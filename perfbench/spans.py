"""Span tracer that wraps the library's public functions from outside.

``Tracer.install`` replaces each traced function wherever the package binds
it: in the module that defines it, in every module that imported it by name
(``cli`` binds ``check_charpar``, ``tabulate`` and the ``io`` loaders;
``maximize`` binds ``certified_partial``), in ``cli._COMMANDS``, and on the
class for methods.  ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, request, weight]``
and written out once at the end.  A span's self time is its duration minus
the durations of its direct children; calls run one at a time on one
thread, so children never overlap.
"""
from __future__ import annotations

import inspect
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Callable, Dict, List

LAYERS = ("cli", "io", "order", "leontief", "oracle", "efficiency", "maximize", "corpus")

# Per-token or per-element helpers run thousands of times per call; a span
# on each would cost more than the work it measures, so their time stays
# in the caller's self time.
UNTRACED = {
    "io": {"parse_rational", "parse_number", "encode_value", "encode_elem", "elem_key",
           "resolve_element"},
}

# Methods that carry the order layer's structural work.
METHODS = {
    "order": ["FinitePoset.from_leq", "FinitePoset.from_covers", "FinitePoset.induced",
              "FinitePoset.is_inf_semilattice", "ProductSpace.as_poset",
              "DownSet.from_members", "DownSet.from_generators"],
}

# Hot methods that are counted, never timed.
COUNTED = {
    "order.meet_calls": ("order", "FinitePoset.meet", None),
    "order.points": ("order", "FinitePoset.__init__", lambda self, elements, *a, **k: len(elements)),
}

# Span weights: pu_map looks up one axis efficient set per axis of its point.
WEIGHTS = {"efficiency.pu_map": lambda u, x, *a, **k: len(x)}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._undo: List[Callable[[], None]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, weight=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            w = weight(*args, **kwargs) if weight is not None else 0
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, w]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn, amount=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += amount(*args, **kwargs) if amount is not None else 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "qleontief" or name.startswith("qleontief.")}
        replaced: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = pkg[f"qleontief.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or name in UNTRACED.get(layer, ())):
                    continue
                span = f"{layer}.{name}"
                replaced[id(obj)] = self._span(span, obj, WEIGHTS.get(span))
            for qual in METHODS.get(layer, ()):
                self._patch_method(mod, qual, lambda f, span=f"{layer}.{qual}": self._span(span, f))
        for metric, (layer, qual, amount) in COUNTED.items():
            self._patch_method(pkg[f"qleontief.{layer}"], qual,
                               lambda f, m=metric, a=amount: self._counter(m, f, a))
        for mod in pkg.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._setattr(mod, name, replaced[id(obj)])
        commands = pkg["qleontief.cli"]._COMMANDS
        for name, fn in list(commands.items()):
            if id(fn) in replaced:
                commands[name] = replaced[id(fn)]
                self._undo.append(lambda n=name, f=fn: commands.__setitem__(n, f))

    def _setattr(self, owner, name, value) -> None:
        old = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def _patch_method(self, mod, qual: str, make) -> None:
        cls_name, meth = qual.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            self._setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            self._setattr(cls, meth, make(raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, req, w) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req, "weight": w}) + "\n")


# -- per-layer metrics ------------------------------------------------------------

SELF_TIME_METRICS = {
    "oracle.check_property_phi_s": ["oracle.check_property_phi"],
    "oracle.check_meet_homomorphism_s": ["oracle.check_meet_homomorphism"],
    "oracle.check_characterization_equivalence_s": ["oracle.check_characterization_equivalence"],
    "oracle.certify_quasi_leontief_s": ["oracle.certify_quasi_leontief"],
    "oracle.certify_regular_s": ["oracle.certify_regular"],
    "oracle.verify_galois_s": ["oracle.verify_galois"],
    "oracle.check_isotone_s": ["oracle.check_isotone"],
    "oracle.check_lower_bounded_level_sets_s": ["oracle.check_lower_bounded_level_sets"],
    "order.semilattice_s": ["order.FinitePoset.is_inf_semilattice"],
    "order.downset_s": ["order.DownSet.from_members", "order.DownSet.from_generators"],
    "order.as_poset_s": ["order.ProductSpace.as_poset"],
    "order.poset_build_s": ["order.FinitePoset.from_covers", "order.FinitePoset.from_leq"],
    "maximize.localization_s": ["maximize.check_argmax_localization"],
    "maximize.argmax_s": ["maximize.argmax_over_downset", "maximize.argmax_via_generators"],
    "maximize.maximal_argmax_s": ["maximize.maximal_argmax"],
    "maximize.product_downset_s": ["maximize.product_downset"],
    "maximize.refine_s": ["maximize.efficient_refinement"],
    "efficiency.check_charpar_s": ["efficiency.check_charpar"],
    "efficiency.efficient_set_s": ["efficiency.efficient_set"],
    "io.load_s": ["io.load_json", "io.poset_from_json", "io.utility_from_json",
                  "io.downset_from_json", "io.point_from_json"],
    "io.report_s": ["io.dumps_report"],
    "leontief.tabulate_s": ["leontief.tabulate"],
}


def layer_metrics(tracer: Tracer, calls: int) -> Dict[str, float]:
    """Self times, counts and ratios from one traced run of ``calls`` verdicts."""
    spans = tracer.spans
    self_t = tracer.self_times()
    by_name: Dict[str, float] = defaultdict(float)
    n_calls: Counter = Counter()
    busy: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for (name, *_), t in zip(spans, self_t):
        by_name[name] += t
        n_calls[name] += 1
        busy[name.split(".", 1)[0]] += t
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(by_name[n] for n in names)
    out["corpus.generate_s"] = busy["corpus"]
    out["cli.self_s"] = busy["cli"]
    for layer in ("io", "order", "leontief", "oracle", "efficiency", "maximize"):
        out[f"{layer}.busy_s"] = busy[layer]
    out["oracle.certify_per_verdict"] = n_calls["oracle.certify_quasi_leontief"] / calls
    out["order.as_poset_calls"] = n_calls["order.ProductSpace.as_poset"]
    out["order.meet_calls"] = tracer.counts["order.meet_calls"]
    out["order.points"] = tracer.counts["order.points"]
    out["efficiency.axis_cache_hit_ratio"] = _axis_cache_hit_ratio(spans)
    return out


def _axis_cache_hit_ratio(spans: List[list]) -> float:
    """(pu_map axis lookups - certified_partial calls) / lookups, both inside
    check_charpar; 0 when no check_charpar ran."""

    def under_charpar(i: int) -> bool:
        while i >= 0:
            if spans[i][0] == "efficiency.check_charpar":
                return True
            i = spans[i][3]
        return False

    lookups = misses = 0
    for name, _, _, parent, _, weight in spans:
        if name == "efficiency.pu_map" and under_charpar(parent):
            lookups += weight
        elif name == "efficiency.certified_partial" and under_charpar(parent):
            misses += 1
    return (lookups - misses) / lookups if lookups else 0.0


# Chain lengths of the k x k grids, k^3 cubes and k^4 products timed for the
# slopes.  The grids reach N = 256 so that fixed per-call costs do not pull
# the pairwise certifiers' slopes below 3.
GRID_SIDES = (8, 10, 13, 16)
CUBE_SIDES = (5, 7, 9)
TESSERACT_SIDES = (3, 4, 5, 6)


def loglog_slope(sizes: List[int], times: List[float]) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def median_times(fn, makers: Dict[int, Callable]) -> Dict[int, float]:
    """Median wall time of fn(makers[n]()) for each size n, over at least
    SLOPE_ROUNDS rounds and SLOPE_MIN_S seconds of timed calls.  The sizes
    take turns within each round, so a drift in machine speed falls on every
    size alike; each argument is built outside the timed region."""
    samples: Dict[int, List[float]] = {n: [] for n in makers}
    rounds, timed = 0, 0.0
    while rounds < SLOPE_ROUNDS or timed < SLOPE_MIN_S:
        rounds += 1
        for n, make in makers.items():
            arg = make()
            t0 = time.perf_counter()
            fn(arg)
            samples[n].append(time.perf_counter() - t0)
            timed += samples[n][-1]
    return {n: statistics.median(v) for n, v in samples.items()}


SLOPE_ROUNDS = 3
SLOPE_MIN_S = 1.5  # cheap functions repeat until their small sizes are read steadily


def scaling_exponents(q) -> Dict[str, float]:
    """Log-log slope of wall time against domain size N for the functions the
    certifier and product-order rewrites target.  N stays at or below 1296;
    the pairwise certifiers take minutes per call at N=1600 and above."""

    def grid_min(k: int):
        space = q.grid_space(range(k), range(k))
        vals = {p: Fraction(min(2 * p[0], 3 * p[1])) for p in space.points()}
        return q.TabulatedUtility(space.as_poset(), vals, space=space)

    def lower_half(k: int):
        space = q.grid_space(*[range(k)] * 3)
        return space, [p for p in space.points() if p[0] <= (k - 1) // 2]

    grids = {k: grid_min(k) for k in GRID_SIDES}
    halves = {k: lower_half(k) for k in CUBE_SIDES}
    cases = {
        "oracle.check_property_phi_exp": (
            q.check_property_phi, {k * k: (lambda u=u: u) for k, u in grids.items()}),
        "oracle.check_meet_homomorphism_exp": (
            q.check_meet_homomorphism, {k * k: (lambda u=u: u) for k, u in grids.items()}),
        "order.is_inf_semilattice_exp": (
            lambda p: p.is_inf_semilattice(),
            {k * k: (lambda k=k: q.grid_space(range(k), range(k)).as_poset())
             for k in grids}),
        "order.from_members_exp": (
            lambda sm: q.DownSet.from_members(*sm),
            {k ** 3: (lambda h=h: h) for k, h in halves.items()}),
        "order.as_poset_exp": (
            lambda s: s.as_poset(),
            {k ** 4: (lambda k=k: q.grid_space(*[range(k)] * 4)) for k in TESSERACT_SIDES}),
    }
    out = {}
    for metric, (fn, makers) in cases.items():
        times = median_times(fn, makers)
        sizes = sorted(times)
        out[metric] = loglog_slope(sizes, [times[n] for n in sizes])
    return out
