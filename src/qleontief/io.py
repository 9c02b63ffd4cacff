"""JSON file formats for posets, down-sets, points, and utilities.

Poset:     {"elements": ["e1", ...], "covers": [["a","b"], ...]} or {"leq": [...]}
Product:   {"product": [<poset>, ...]}
Down-set:  {"generators": [...]} or {"members": [...]}
Utility:   tabulated {"poset": <poset-or-path>, "values": {"e1": "3/2", ...}}
           or closed form {"type": "classical"|"power"|"price_matrix"|
           "min_product"|"affine"|"restrict", ...}

``utility_from_json`` alone picks table or formula: a classical or power
form on a box gridded on every axis loads as its table, and combinators of
tables give tables; a continuous box keeps the formula.  A ``min_product``
takes tables only, so one with a continuous factor is refused at load.

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
    TabulatedUtility,
    UtilityError,
    affine_transform,
    classical_leontief,
    min_product,
    power_leontief,
    price_matrix_leontief,
    restrict,
    tabulate,
)
from .order import DownSet, FinitePoset, OrderError, ProductSpace, elem_key


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
    return _reader(space)[0](raw)


def _reader(space: FinitePoset) -> Tuple[Callable[[Any], Any], int]:
    """``resolve_element`` on ``space``, and the number of comma parts in the
    key of a point: one per coordinate of a tuple point.  On a product, both
    are worked out once per factor, and the product's tables are never built."""
    if not isinstance(space, ProductSpace):
        first = next(iter(space.elements), None)
        width = elem_key(first).count(",") + 1 if isinstance(first, tuple) else 1
        return partial(_resolve_plain, space), width
    readers, widths = zip(*map(_reader, space.factors))
    ends = list(accumulate(widths))
    # on plain factors with one part per coordinate, a part equal to an
    # element is read by one lookup; any other part takes the full resolver
    plain = ends[-1] == len(readers) and not any(isinstance(f, ProductSpace) for f in space.factors)
    lookups = [(f._index, f.elements) for f in space.factors] if plain else ()

    def read(raw):
        if isinstance(raw, str):
            parts = raw.split(",")
            if len(parts) != ends[-1]:
                raise InputError(f"point {raw!r} has wrong arity")
            if plain:
                try:
                    return tuple([els[index[c]] for (index, els), c in zip(lookups, parts)])
                except KeyError:
                    pass
            elif ends[-1] != len(readers):  # a factor with wider keys takes more parts
                parts = [",".join(parts[end - w:end]) for w, end in zip(widths, ends)]
        elif isinstance(raw, (list, tuple)):
            parts = raw
            if len(parts) != len(readers):
                raise InputError(f"point {raw!r} has wrong arity")
        else:
            raise InputError(f"cannot read product point from {raw!r}")
        return tuple(r(c) for r, c in zip(readers, parts))

    return read, ends[-1]


def _resolve_plain(space: FinitePoset, raw):
    try:
        i = space._index.get(raw)
    except TypeError:  # JSON arrays are unhashable, so never ids
        i = None
    if i is not None:
        return space.elements[i]
    found = space._by_key().get(elem_key(raw).strip(), ())
    if isinstance(raw, list):  # an array names only a tuple point
        found = [e for e in found if isinstance(e, tuple)]
    if len(found) > 1:
        raise InputError(f"ambiguous element {raw!r}: matches {', '.join(map(repr, found))}")
    if not found:
        raise InputError(f"unknown element {raw!r}")
    return found[0]


def downset_from_json(obj, space) -> DownSet:
    if isinstance(obj, str):
        raise InputError("down-set must be inline JSON here")
    if isinstance(obj, dict):
        read = _reader(space)[0]
        try:
            if "generators" in obj:
                gens = [read(g) for g in _list(obj, "generators")]
                return DownSet.from_generators(space, gens)
            if "members" in obj:
                members = [read(m) for m in _list(obj, "members")]
                return DownSet.from_members(space, members)
        except OrderError as exc:
            raise InputError(f"invalid down-set: {exc}") from exc
    raise InputError("down-set needs 'generators' or 'members'")


def generators_from_json(obj, missing: str) -> list:
    """The points of a closed-form generated down-set, ``{"generators":
    [[x1, ...], ...]}``, as tuples of numbers; ``missing`` is the error text
    when ``obj`` has no generators."""
    gens = obj.get("generators") if isinstance(obj, dict) else None
    if gens is None:
        raise InputError(missing)
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise InputError("down-set 'generators' must be a list of points")
    return [tuple(parse_number(c) for c in g) for g in gens]


def _box_from_json(obj) -> Box:
    axes = obj.get("axes") if isinstance(obj, dict) else None
    if not isinstance(axes, list) or not axes:
        raise InputError("box needs a nonempty 'axes' list")
    if not all(isinstance(ax, dict) for ax in axes):
        raise InputError("box 'axes' must be a list of objects")
    return Box([
        BoxAxis(
            parse_number(ax["lo"]),
            parse_number(ax["hi"]),
            parse_number(ax["step"]) if "step" in ax else None,
        )
        for ax in axes
    ])


def utility_from_json(obj, *, base_dir: str = "."):
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
            return _on_grid(power_leontief(a, alpha, _box_from_json(obj["box"])))
        if kind == "price_matrix":
            P = obj["P"]
            if not isinstance(P, list) or not all(isinstance(r, list) and len(r) == len(P) for r in P):
                raise InputError("price matrix 'P' must be a square list of rows")
            return price_matrix_leontief([[parse_number(c) for c in row] for row in P])
        if kind == "affine":
            base = utility_from_json(obj["base"], base_dir=base_dir)
            return affine_transform(base, parse_number(obj["a"]), parse_number(obj["b"]))
        if kind == "min_product":
            from .oracle import require_certified

            factors = [utility_from_json(f, base_dir=base_dir) for f in _list(obj, "factors")]
            product = min_product(*factors)  # refuses a closed-form factor
            for f in factors:  # a factor that is not quasi-Leontief fails with its own witness
                require_certified(f)
            return product
        if kind == "restrict":
            base = utility_from_json(obj["base"], base_dir=base_dir)
            if isinstance(base, TabulatedUtility):
                return restrict(base, downset_from_json(obj["downset"], base.poset))
            gens = generators_from_json(
                obj["downset"], "closed-form restriction needs generators"
            )
            return restrict(base, gens)
    except KeyError as exc:
        raise InputError(f"utility object is missing field {exc}") from None
    except (OrderError, UtilityError) as exc:
        raise InputError(f"invalid utility: {exc}") from exc
    raise InputError(f"unknown utility type {kind!r}")


def _on_grid(form):
    """The table of a closed form on a fully gridded box, else the form."""
    if not form.box.is_grid():
        return form
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


def _tabulated_from_json(obj, base_dir: str) -> TabulatedUtility:
    space = poset_from_json(obj["poset"], base_dir=base_dir)
    raw_values = obj["values"]
    if not isinstance(raw_values, dict):
        raise InputError("tabulated 'values' must be an object")
    read = _reader(space)[0]
    values = {}
    parsed = {}  # each distinct raw value is parsed once; its type keeps true apart from 1
    for key, raw in raw_values.items():
        e = read(key)
        if e in values:
            raise InputError(f"point {elem_key(e)!r} is named twice in 'values' (again as {key!r})")
        try:
            values[e] = parsed[type(raw), raw]
        except KeyError:
            values[e] = parsed[type(raw), raw] = parse_rational(raw)
        except TypeError:  # an array or an object: refused with its own message
            values[e] = parse_rational(raw)
    return TabulatedUtility(space, values)


def point_from_json(obj, space):
    if isinstance(obj, dict):
        if "point" not in obj:
            raise InputError("point file needs a 'point' field")
        obj = obj["point"]
    return resolve_element(space, obj)


def dumps_report(report: dict) -> str:
    """Deterministic JSON text for a report object."""
    return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
