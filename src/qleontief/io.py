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
from itertools import accumulate, chain
from typing import Any, Callable, Dict, Optional, Tuple, Union

from .leontief import (
    Box,
    BoxAxis,
    PowerLeontief,
    TabulatedUtility,
    UtilityError,
    _Ranks,
    _rank_objects,
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
    except OSError as exc:  # a directory, or a file that cannot be read
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except InputError:
        raise
    except ValueError as exc:  # an integer past the int-string limit, or bytes not in UTF-8
        raise InputError(f"{path}: {str(exc).split(';')[0]}") from None
    except RecursionError:
        raise InputError(f"{path}: arrays or objects nested too deeply") from None


def _open(name: str, base_dir: str, opened: frozenset) -> Tuple[Any, frozenset]:
    """The JSON of the file at the path ``name`` under ``base_dir``, and
    ``opened``, the files whose reading led to that path, with it added: a
    path to one of them leads back to itself, which is an input error."""
    path = os.path.join(base_dir, name)
    real = os.path.realpath(path)
    if real in opened:
        raise InputError(f"{path}: the path leads back to itself")
    return load_json(path), opened | {real}


def parse_rational(raw) -> Fraction:
    """An int, or a string that ``Fraction`` reads, as a Fraction.  A string
    of decimal digits, or two of them around a slash, is read by ``int``,
    which takes the digits ``Fraction``'s pattern takes, with no pattern
    match."""
    if isinstance(raw, bool):
        raise InputError(f"not a rational: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        num, slash, den = raw.partition("/")
        try:
            if num.isdecimal() and (den.isdecimal() or not slash):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
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


# The exact type tests come first: ``isinstance`` against Fraction, an ABC,
# is the slow part of these two.
def encode_value(v) -> Any:
    return str(v) if type(v) is Fraction or isinstance(v, Fraction) else v


def encode_elem(e) -> Any:
    if type(e) is str:
        return e
    if isinstance(e, tuple):
        return [encode_elem(c) for c in e]
    if type(e) is Fraction or isinstance(e, Fraction):
        return str(e)
    return e


def poset_from_json(obj, *, base_dir: str = ".") -> FinitePoset:
    return _poset(obj, base_dir, frozenset())


def _poset(obj, base_dir: str, opened: frozenset) -> FinitePoset:
    """``poset_from_json``, with ``opened`` the files read on the way here (see ``_open``)."""
    if isinstance(obj, str):
        obj, opened = _open(obj, base_dir, opened)
        return _poset(obj, base_dir, opened)
    if not isinstance(obj, dict):
        raise InputError("poset must be an object or a path string")
    if "product" in obj:
        factors = []
        for sub in obj["product"]:
            p = _poset(sub, base_dir, opened)
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


def _ids(raw) -> bool:
    """A list of ids: arrays and objects are unhashable, and null names no element."""
    return isinstance(raw, list) and not {type(None), list, dict} & set(map(type, raw))


def _pairs(obj, field: str) -> list:
    pairs = obj[field]
    if not (isinstance(pairs, list) and set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and _ids(list(chain.from_iterable(pairs)))):
        raise InputError(f"poset '{field}' must be a list of element pairs")
    return list(map(tuple, pairs))


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
    return _utility(obj, base_dir, frozenset())


def _utility(obj, base_dir: str, opened: frozenset) -> TabulatedUtility:
    """``utility_from_json``, with ``opened`` the files read on the way here (see ``_open``)."""
    if isinstance(obj, str):
        obj, opened = _open(obj, base_dir, opened)
        return _utility(obj, base_dir, opened)
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
            base = _utility(obj["base"], base_dir, opened)
            return affine_transform(base, parse_number(obj["a"]), parse_number(obj["b"]))
        if kind == "min_product":
            from .oracle import require_certified

            factors = [_utility(f, base_dir, opened) for f in _list(obj, "factors")]
            product = min_product(*factors)
            for f in factors:  # a factor that is not quasi-Leontief fails with its own witness
                require_certified(f)
            return product
        if kind == "restrict":
            base = _utility(obj["base"], base_dir, opened)
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


def _canonical_keys(space: FinitePoset) -> Optional[list]:
    """Each point's key in index order: a plain poset's ids, or the ids
    comma-joined on a product of plain factors whose ids are strings without
    a comma.  None on any other product, where a numeric id's string may
    name another element and a comma-bearing id splits in two."""
    if not isinstance(space, ProductSpace):
        return list(space.elements)
    if all(not isinstance(f, ProductSpace) and all(isinstance(e, str) and "," not in e for e in f.elements)
           for f in space.factors):
        return list(map(",".join, space.points()))
    return None


def _key_index(space: FinitePoset, keys: Optional[list]) -> dict:
    """Each canonical key's point index, the one ``locate`` reads it to: on
    a plain poset its ``_index``, which ``locate`` reads first."""
    if not isinstance(space, ProductSpace):
        return space._index
    return dict(zip(keys, range(len(keys)))) if keys else {}


def _tabulated_from_json(obj, base_dir: str) -> TabulatedUtility:
    """The table of a ``values`` object, its column and rank table made in
    a few passes with no Python step per key.  Keys listed as
    ``_canonical_keys`` lists them take one list comparison; else each is
    read by ``_key_index``, a miss by ``locate``, and one dict puts the
    values in element order.  Only strings and ints are read, and no string
    equals an int, so each distinct raw value is parsed once (``true`` is
    never read as 1) and ranked once by ``_rank_objects``.  A faulty file
    is read again key by key for its error (``_first_fault``)."""
    space = poset_from_json(obj["poset"], base_dir=base_dir)
    raw_values = obj["values"]
    if not isinstance(raw_values, dict):
        raise InputError("tabulated 'values' must be an object")
    n = check_size(len(space))
    keys, raws = list(raw_values), list(raw_values.values())
    canonical = _canonical_keys(space)  # after check_size: no key of an oversized product is made
    try:
        if keys != canonical:
            index, locate = _key_index(space, canonical), _reader(space)[0]
            ids = list(map(index.get, keys))
            if None in ids:
                ids = [locate(k) if i is None else i for k, i in zip(keys, ids)]
            raws = list(map(dict(zip(ids, raws)).__getitem__, range(n)))  # KeyError: a point has no value
        distinct = dict.fromkeys(raws)  # TypeError: an array or an object
        objects = list(map(parse_rational, distinct))
        fault = len(keys) > n or not set(map(type, raws)) <= {str, int}  # a point named twice, or true or a float
    except (InputError, KeyError, TypeError):
        fault = True
    if fault:
        raise _first_fault(space, raw_values)
    rank, image = _rank_objects(objects)
    rank = list(map(dict(zip(distinct, rank)).__getitem__, raws))  # each point takes its raw value's rank
    column = list(map(dict(zip(distinct, objects)).__getitem__, raws))
    return TabulatedUtility._of_column(space, column, EXACT, _Ranks(rank, image))


def _first_fault(space: FinitePoset, raw_values: dict) -> Exception:
    """The first fault of ``values`` in file order, a key's before its
    value's and a missing point last: a point named twice or missing is
    returned, an unreadable key or value raises from its reader."""
    locate, seen = _reader(space)[0], set()
    for key, raw in raw_values.items():
        i = locate(key)
        if i in seen:
            return InputError(f"point {elem_key(space.point(i))!r} is named twice in 'values' "
                              f"(again as {key!r})")
        seen.add(i)
        parse_rational(raw)
    i = next(i for i in range(len(space)) if i not in seen)
    return UtilityError(f"no value for element {space.point(i)!r}")


def point_from_json(obj, space):
    if isinstance(obj, dict):
        if "point" not in obj:
            raise InputError("point file needs a 'point' field")
        obj = obj["point"]
    return resolve_element(space, obj)


def dumps_report(report: dict) -> str:
    """Deterministic JSON text for a report object: the text of
    ``json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))``
    plus a newline, and the same exception where ``json.dumps`` refuses the
    report (a cycle is not detected).  ``json.dumps`` with an indent always
    runs the pure-Python encoder; this one pass joins strings instead, and
    writes a dict or list that the report holds more than once (such as a
    dual table two certificates share) once per indent."""
    return _encode(report, "\n", {}) + "\n"


_quote = json.encoder.encode_basestring_ascii


def _key(k) -> str:
    """A dict key as ``json.dumps`` writes it, before quoting."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _encode(obj, newline: str, memo: Dict[Tuple[int, int], str]) -> str:
    """``obj`` as ``dumps_report`` writes it, where ``newline`` is a newline
    and the indent of the line ``obj`` starts on.  A str item is quoted in
    place, with no call of its own.  ``memo`` holds the text of each
    nonempty dict or list written so far, by its id and indent: one call's
    report keeps every object it holds alive, so no id is reused."""
    if isinstance(obj, str):
        return _quote(obj)
    if not isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    key = (id(obj), len(newline))
    text = memo.get(key)
    if text is None:
        inner = newline + "  "
        if isinstance(obj, dict):
            text = "{" + inner + ("," + inner).join([
                _quote(k if type(k) is str else _key(k)) + ": "
                + (_quote(v) if type(v) is str else _encode(v, inner, memo))
                for k, v in sorted(obj.items())
            ]) + newline + "}"
        else:
            text = "[" + inner + ("," + inner).join([
                _quote(v) if type(v) is str else _encode(v, inner, memo) for v in obj
            ]) + newline + "]"
        memo[key] = text
    return text
