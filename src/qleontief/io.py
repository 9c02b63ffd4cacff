"""JSON file formats for posets, down-sets, points, and utilities.

Poset:     {"elements": ["e1", ...], "covers": [["a","b"], ...]} or {"leq": [...]}
Product:   {"product": [<poset>, ...]}
Down-set:  {"generators": [...]} or {"members": [...]}
Utility:   tabulated {"poset": <poset-or-path>, "values": {"e1": "3/2", ...}}
           or {"type": "classical"|"power"|"min_product"|"affine"|"restrict", ...}

``utility_from_json`` always returns a table: a classical or power form
loads as its table on its box, which needs a ``step`` on every axis, and
the combinators map tables to tables.  A box axis without a step and the
retired ``price_matrix`` form are input errors.

Rationals are "p/q" strings; a closed form's numbers may also be floats, but
not NaN or an infinity.  Product points appear either as arrays of
factor ids or as comma-joined strings ("2,3"); value-map keys always use the
comma-joined form.  A key gives each factor as many comma parts as the keys
of that factor's own points have, so "1,2,1" names a point of a nested
product.  A token names the element equal to it, else the one element whose
``elem_key`` is the token's key (an array's entries comma-joined, any other
token's string form) stripped of surrounding blanks; an array names only a
tuple point.  So arrays and "a,b" keys also name the points of a restricted
product table.  Two such elements make the token ambiguous, which is an
input error, as is a key given twice in one JSON object.
"""
from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Tuple, Union

from .leontief import (
    Box,
    BoxAxis,
    PowerLeontief,
    TabulatedUtility,
    UtilityError,
    affine_transform,
    classical_leontief,
    min_product,
    restrict,
    tabulate,
)
from .order import EXACT, DownSet, FinitePoset, OrderError, ProductSpace, check_size, elem_key


class InputError(ValueError):
    """Malformed input file or value."""


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict: a key given twice is an input error, where
    ``json.load`` would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"key {key!r} is named twice in one object")
            seen.add(key)
    return obj


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def parse_rational(raw) -> Fraction:
    if isinstance(raw, bool):
        raise InputError(f"not a rational: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"not a rational: {raw!r}") from None
    if isinstance(raw, float):
        raise InputError(f"floats are not exact rationals: {raw!r}")
    raise InputError(f"not a rational: {raw!r}")


def parse_number(raw) -> Union[Fraction, float]:
    """A rational, or a finite float: JSON's NaN and Infinity are refused."""
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise InputError(f"not a finite number: {raw!r}")
        return raw
    return parse_rational(raw)


def encode_value(v) -> Any:
    return str(v) if isinstance(v, Fraction) else v


def encode_elem(e) -> Any:
    if isinstance(e, tuple):
        return [encode_elem(c) for c in e]
    if isinstance(e, Fraction):
        return str(e)
    return e


def poset_from_json(obj, *, base_dir: str = ".") -> FinitePoset:
    if isinstance(obj, str):
        return poset_from_json(load_json(os.path.join(base_dir, obj)), base_dir=base_dir)
    if not isinstance(obj, dict):
        raise InputError("poset must be an object or a path string")
    if "product" in obj:
        factors = []
        for sub in obj["product"]:
            p = poset_from_json(sub, base_dir=base_dir)
            if isinstance(p, ProductSpace):
                raise InputError("product factors must be plain posets")
            factors.append(p)
        return ProductSpace(factors)
    elements = obj.get("elements")
    if not _ids(elements):
        raise InputError("poset needs an 'elements' list of strings or numbers")
    try:
        if "covers" in obj:
            return FinitePoset.from_covers(elements, _pairs(obj, "covers"))
        if "leq" in obj:
            return FinitePoset.from_leq(elements, _pairs(obj, "leq"))
    except OrderError as exc:
        raise InputError(f"invalid poset: {exc}") from exc
    raise InputError("poset needs 'covers' or 'leq'")


def _ids(raw, n=None) -> bool:  # arrays and objects are unhashable, null means no element
    return isinstance(raw, list) and (n is None or len(raw) == n) and not any(
        e is None or isinstance(e, (list, dict)) for e in raw)


def _pairs(obj, field: str) -> list:
    pairs = obj[field]
    if not isinstance(pairs, list) or not all(_ids(p, 2) for p in pairs):
        raise InputError(f"poset '{field}' must be a list of element pairs")
    return [tuple(p) for p in pairs]


def resolve_element(space: FinitePoset, raw):
    """Match a raw JSON token (string, number, or array) to a domain element."""
    return space.point(_reader(space)[0](raw))


def _reader(space: FinitePoset) -> Tuple[Callable[[Any], int], int]:
    """``locate``, which reads a token to the index of its element, and the
    number of comma parts in the key of a point (one per coordinate of a tuple
    point).  On a product, a key's index is the sum of one lookup per part in
    the product's ``_offsets``, or on a miss of each part's factor ``locate``
    x stride: no key is read as a point, and no product table is built.  A
    table file reads here only the keys that miss its ``_key_index``."""
    if not isinstance(space, ProductSpace):
        first = next(iter(space.elements), None)
        width = elem_key(first).count(",") + 1 if isinstance(first, tuple) else 1
        return partial(_locate_plain, space), width
    locates, widths = zip(*map(_reader, space.factors))
    ends, strides = list(accumulate(widths)), space.strides

    def locate(raw):
        if isinstance(raw, str):
            parts, arity = raw.split(","), ends[-1]
        elif isinstance(raw, (list, tuple)):
            parts, arity = raw, len(locates)
        else:
            raise InputError(f"cannot read product point from {raw!r}")
        if len(parts) != arity:
            raise InputError(f"point {raw!r} has wrong arity")
        if arity != len(locates):  # a factor with wider keys takes more parts
            parts = [",".join(parts[end - w:end]) for w, end in zip(widths, ends)]
        else:
            try:
                return sum(map(dict.__getitem__, space._offsets, parts))
            except (KeyError, TypeError):  # an array part is unhashable
                pass
        return sum(loc(c) * s for loc, c, s in zip(locates, parts, strides))

    return locate, ends[-1]


def _locate_plain(space: FinitePoset, raw) -> int:
    try:
        return space._index[raw]
    except (KeyError, TypeError):  # JSON arrays are unhashable, so never ids
        pass
    found = space._by_key().get(elem_key(raw).strip(), ())
    if isinstance(raw, list):  # an array names only a tuple point
        found = [e for e in found if isinstance(e, tuple)]
    if len(found) > 1:
        raise InputError(f"ambiguous element {raw!r}: matches {', '.join(map(repr, found))}")
    if not found:
        raise InputError(f"unknown element {raw!r}")
    return space._index[found[0]]


def downset_from_json(obj, space) -> DownSet:
    """The down-set of a ``generators`` or ``members`` object: each point is
    read by ``locate`` to its index, which goes to ``DownSet.from_indices``
    as it is, with no point decoded and read back."""
    if isinstance(obj, str):
        raise InputError("down-set must be inline JSON here")
    if isinstance(obj, dict):
        locate = _reader(space)[0]
        try:
            for field in ("generators", "members"):
                if field in obj:
                    indices = [locate(p) for p in _list(obj, field)]
                    return DownSet.from_indices(space, indices, generated=field == "generators")
        except OrderError as exc:
            raise InputError(f"invalid down-set: {exc}") from exc
    raise InputError("down-set needs 'generators' or 'members'")


def _box_from_json(obj) -> Box:
    axes = obj.get("axes") if isinstance(obj, dict) else None
    if not isinstance(axes, list) or not axes:
        raise InputError("box needs a nonempty 'axes' list")
    if not all(isinstance(ax, dict) for ax in axes):
        raise InputError("box 'axes' must be a list of objects")
    for k, ax in enumerate(axes, 1):
        if "step" not in ax:
            raise InputError(f"box axis {k} has no 'step': a closed form is read as its table on a grid")
    return Box([BoxAxis(*(parse_number(ax[f]) for f in ("lo", "hi", "step"))) for ax in axes])


def utility_from_json(obj, *, base_dir: str = ".") -> TabulatedUtility:
    if isinstance(obj, str):
        return utility_from_json(load_json(os.path.join(base_dir, obj)), base_dir=base_dir)
    if not isinstance(obj, dict):
        raise InputError("utility must be an object or a path string")
    kind = obj.get("type", "tabulated" if "values" in obj else None)
    try:
        if kind == "tabulated":
            return _tabulated_from_json(obj, base_dir)
        if kind == "classical":
            a = [parse_number(c) for c in _list(obj, "a")]
            return _on_grid(classical_leontief(a, _box_from_json(obj["box"])))
        if kind == "power":
            a = [parse_number(c) for c in _list(obj, "a")]
            alpha = [parse_number(c) for c in _list(obj, "alpha")]
            return _on_grid(PowerLeontief(a, alpha, _box_from_json(obj["box"])))
        if kind == "price_matrix":
            raise InputError("the price_matrix form is no longer read: give the utility as a table")
        if kind == "affine":
            base = utility_from_json(obj["base"], base_dir=base_dir)
            return affine_transform(base, parse_number(obj["a"]), parse_number(obj["b"]))
        if kind == "min_product":
            from .oracle import require_certified

            factors = [utility_from_json(f, base_dir=base_dir) for f in _list(obj, "factors")]
            product = min_product(*factors)
            for f in factors:  # a factor that is not quasi-Leontief fails with its own witness
                require_certified(f)
            return product
        if kind == "restrict":
            base = utility_from_json(obj["base"], base_dir=base_dir)
            return restrict(base, downset_from_json(obj["downset"], base.poset))
    except KeyError as exc:
        raise InputError(f"utility object is missing field {exc}") from None
    except (OrderError, UtilityError) as exc:
        raise InputError(f"invalid utility: {exc}") from exc
    raise InputError(f"unknown utility type {kind!r}")


def _on_grid(form) -> TabulatedUtility:
    """The table of a closed form on its gridded box."""
    try:
        return tabulate(form)
    except (OrderError, UtilityError) as exc:
        # a grid or a power over its bound: the message stands on its own
        raise InputError(str(exc)) from exc


def _list(obj: dict, field: str) -> list:
    """``obj[field]``, which must be a JSON array."""
    raw = obj[field]
    if not isinstance(raw, list):
        raise InputError(f"'{field}' must be a list")
    return raw


_EMPTY_SLOT = object()


def _key_index(space: FinitePoset) -> dict:
    """Each point's index by its canonical key, its ids comma-joined, on a
    product of plain factors whose ids are all strings without a comma:
    there ``locate`` reads that key by its ``_offsets`` lookup, to the same
    index.  Empty on any other space, where the joined ids need not be a key
    that ``locate`` reads to that point: a numeric id's string may name
    another element, and a comma-bearing id splits into two parts."""
    if not isinstance(space, ProductSpace) or not all(
            not isinstance(f, ProductSpace) and all(isinstance(e, str) and "," not in e for e in f.elements)
            for f in space.factors):
        return {}
    return dict(zip(map(",".join, space.points()), range(len(space))))


def _tabulated_from_json(obj, base_dir: str) -> TabulatedUtility:
    """The table of a ``values`` object, written by element index into one
    column: each key is read to its index (on a product of plain factors,
    the mixed-radix number of its factor indices), and an error names its
    point by ``point``, with no product table built.  A key spelled the way
    ``_key_index`` spells its point is read by one dict lookup, any other
    spelling by ``locate``.  A slot is tested for a value by identity:
    ``in`` would compare every value in the column."""
    space = poset_from_json(obj["poset"], base_dir=base_dir)
    raw_values = obj["values"]
    if not isinstance(raw_values, dict):
        raise InputError("tabulated 'values' must be an object")
    locate = _reader(space)[0]
    column = [_EMPTY_SLOT] * check_size(len(space))
    index = _key_index(space)  # after check_size: no key of an oversized product is made
    parsed = {}  # each distinct raw value is parsed once; its type keeps true apart from 1
    for key, raw in raw_values.items():
        i = index.get(key)
        if i is None:
            i = locate(key)
        if column[i] is not _EMPTY_SLOT:
            raise InputError(f"point {elem_key(space.point(i))!r} is named twice in 'values' "
                             f"(again as {key!r})")
        try:
            column[i] = parsed[type(raw), raw]
        except KeyError:
            column[i] = parsed[type(raw), raw] = parse_rational(raw)
        except TypeError:  # an array or an object: refused with its own message
            column[i] = parse_rational(raw)
    if len(raw_values) < len(column):  # no key filled two slots, so some slot is empty
        i = next(i for i, v in enumerate(column) if v is _EMPTY_SLOT)
        raise UtilityError(f"no value for element {space.point(i)!r}")
    return TabulatedUtility._of_column(space, column, EXACT)


def point_from_json(obj, space):
    if isinstance(obj, dict):
        if "point" not in obj:
            raise InputError("point file needs a 'point' field")
        obj = obj["point"]
    return resolve_element(space, obj)


def dumps_report(report: dict) -> str:
    """Deterministic JSON text for a report object."""
    return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
