"""JSON file formats for posets, down-sets, points, and utilities.

Poset:     {"elements": ["e1", ...], "covers": [["a","b"], ...]} or {"leq": [...]}
Product:   {"product": [<poset>, ...]}
Down-set:  {"generators": [...]} or {"members": [...]}
Utility:   tabulated {"poset": <poset-or-path>, "values": {"e1": "3/2", ...}}
           or closed form {"type": "classical"|"power"|"price_matrix"|
           "min_product"|"affine"|"restrict", ...}

Rationals are "p/q" strings.  Product points appear either as arrays of
factor ids or as comma-joined strings ("2,3"); value-map keys always use the
comma-joined form.  A token names the element equal to it, else the one
element whose string form is the token stripped of surrounding blanks; two
such elements make the token ambiguous, which is an input error.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Any, Union

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
)
from .order import DownSet, FinitePoset, OrderError, ProductSpace


class InputError(ValueError):
    """Malformed input file or value."""


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
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
    if isinstance(raw, float):
        return raw
    return parse_rational(raw)


def encode_value(v) -> Any:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return v
    return v


def encode_elem(e) -> Any:
    if isinstance(e, tuple):
        return [encode_elem(c) for c in e]
    if isinstance(e, Fraction):
        return str(e)
    return e


def elem_key(e) -> str:
    """Canonical string key for one element (comma-joined for product points)."""
    if isinstance(e, tuple):
        return ",".join(elem_key(c) for c in e)
    return str(e)


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


def _ids(raw, n=None) -> bool:  # JSON arrays and objects are unhashable, so not ids
    return isinstance(raw, list) and (n is None or len(raw) == n) and not any(
        isinstance(e, (list, dict)) for e in raw)


def _pairs(obj, field: str) -> list:
    pairs = obj[field]
    if not isinstance(pairs, list) or not all(_ids(p, 2) for p in pairs):
        raise InputError(f"poset '{field}' must be a list of element pairs")
    return [tuple(p) for p in pairs]


def resolve_element(space: FinitePoset, raw):
    """Match a raw JSON token (string, number, or array) to a domain element."""
    if isinstance(space, ProductSpace):
        if isinstance(raw, str):
            parts = raw.split(",")
        elif isinstance(raw, (list, tuple)):
            parts = list(raw)
        else:
            raise InputError(f"cannot read product point from {raw!r}")
        if len(parts) != space.n_axes:
            raise InputError(f"point {raw!r} has wrong arity")
        return tuple(
            resolve_element(f, c) for f, c in zip(space.factors, parts)
        )
    try:
        i = space._index.get(raw)
    except TypeError:  # JSON arrays are unhashable, so never ids
        i = None
    if i is not None:
        return space.elements[i]
    found = space._by_str().get(str(raw).strip(), ())
    if len(found) > 1:
        raise InputError(f"ambiguous element {raw!r}: matches {', '.join(map(repr, found))}")
    if not found:
        raise InputError(f"unknown element {raw!r}")
    return found[0]


def downset_from_json(obj, space) -> DownSet:
    if isinstance(obj, str):
        raise InputError("down-set must be inline JSON here")
    if isinstance(obj, dict):
        try:
            if "generators" in obj:
                gens = [resolve_element(space, g) for g in _list(obj, "generators")]
                return DownSet.from_generators(space, gens)
            if "members" in obj:
                members = [resolve_element(space, m) for m in _list(obj, "members")]
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
            return classical_leontief(a, _box_from_json(obj["box"]))
        if kind == "power":
            a = [parse_number(c) for c in _list(obj, "a")]
            alpha = [parse_number(c) for c in _list(obj, "alpha")]
            return power_leontief(a, alpha, _box_from_json(obj["box"]))
        if kind == "price_matrix":
            P = obj["P"]
            if not isinstance(P, list) or not all(isinstance(r, list) and len(r) == len(P) for r in P):
                raise InputError("price matrix 'P' must be a square list of rows")
            return price_matrix_leontief([[parse_number(c) for c in row] for row in P])
        if kind == "affine":
            base = utility_from_json(obj["base"], base_dir=base_dir)
            return affine_transform(base, parse_number(obj["a"]), parse_number(obj["b"]))
        if kind == "min_product":
            factors = [utility_from_json(f, base_dir=base_dir) for f in _list(obj, "factors")]
            from .oracle import require_certified

            factors = [
                require_certified(f) if isinstance(f, TabulatedUtility) else f
                for f in factors
            ]
            return min_product(*factors)
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
    values = {
        resolve_element(space, key): parse_rational(val) for key, val in raw_values.items()
    }
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
