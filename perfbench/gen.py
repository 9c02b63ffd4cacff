"""Seeded inputs for the three workloads, with answers derived without the library.

Nothing here imports ``qleontief``.  Every expected verdict comes from the
construction of the input (a min-form table is regular, a planted strict
maximum below the top breaks the quasi-Leontief property) or from a
brute-force enumeration over plain tuples.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

PASS_PROPS = [
    "quasi-leontief",
    "regular",
    "galois-adjunction",
    "isotone",
    "property-phi",
    "lower-bounded-level-sets",
]
MEET_PROP = "meet-homomorphism"


@dataclass
class Call:
    """One CLI invocation with the answer it must produce."""

    kind: str
    size: int  # domain points N; for corpus calls, the instances per suite
    argv: List[str]
    expect: Dict


class Writer:
    """Writes input files into one directory under deterministic names."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def write(self, stem: str, obj) -> str:
        self.count += 1
        path = os.path.join(self.root, f"{self.count:04d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
        return path


# -- shared pieces ------------------------------------------------------------


def chain_json(k: int) -> dict:
    els = [str(i) for i in range(k)]
    return {"elements": els, "covers": [[els[i], els[i + 1]] for i in range(k - 1)]}


def key(point: Sequence[int]) -> str:
    return ",".join(str(c) for c in point)


def enc(point: Sequence[int]) -> List[str]:
    return [str(c) for c in point]


def min_form(a: Sequence[Fraction], x: Sequence[int]) -> Fraction:
    return min(c * t for c, t in zip(a, x))


def least_efficient_at(a: Sequence[Fraction], lam: Fraction) -> Tuple[int, ...]:
    """Least grid point with min_i a_i x_i >= lam: per axis the least t with a_i t >= lam."""
    return tuple(max(0, -((-lam) // c)) for c in a)


def random_coeffs(rng: random.Random, base: Sequence[Fraction]) -> List[Fraction]:
    """A seeded common multiple of ``base``.

    Every draw has the level structure of ``base``, so the number of
    distinct values and the positions where the certifiers' scans stop do
    not depend on the seed; the values themselves do.
    """
    scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return [scale * c for c in base]


def grid_table(shape: Sequence[int], a: Sequence[Fraction]) -> Dict[Tuple[int, ...], Fraction]:
    return {p: min_form(a, p) for p in iproduct(*(range(k) for k in shape))}


def corrupt(rng: random.Random, values: Dict, q) -> None:
    """Give ``q``, a point that is not a maximal element, a strict maximum value.

    Its level set is then the singleton {q}, which is not the up-set of q, so
    the table cannot be quasi-Leontief.  The caller fixes q, so the point
    where ``certify_quasi_leontief`` stops does not depend on the seed; the
    seed draws only the new value.
    """
    values[q] = max(values.values()) + Fraction(1, rng.randint(1, 3))


def tabulated_json(poset: dict, values: Dict, keyfn) -> dict:
    return {
        "type": "tabulated",
        "poset": poset,
        "values": {keyfn(p): str(v) for p, v in values.items()},
    }


def expect_check_pass(semilattice: bool) -> dict:
    props = PASS_PROPS + ([MEET_PROP] if semilattice else [])
    return {"command": "check", "exit": 0, "ok": True, "props": props}


EXPECT_CHECK_CORRUPT = {"command": "check", "exit": 1, "ok": False, "props": ["quasi-leontief"]}


# -- check-battery ---------------------------------------------------------------


PLAIN_DENSITY = 0.08


def plain_poset(n: int) -> Tuple[List[str], List[Tuple[str, str]], List[int], List[int]]:
    """Random poset with a bottom that is not an inf-semilattice, with a chain
    through it.

    Elements e1..e4 form a planted butterfly: e3 and e4 both lie above the
    incomparable e1 and e2, so {e3, e4} has two maximal common lower bounds
    and no meet.  Further cover pairs only run from lower to higher index,
    which keeps the relation acyclic and leaves the butterfly intact.  The
    chain is a random ascending path from the bottom, at most 12 long.

    The structure is drawn from a generator seeded by ``n`` alone, so the
    certifiers' work on it does not depend on the workload seed, which
    draws only the values (``regular_values``).  Returns elements, cover
    pairs, the up-sets as bitmasks over indices, and the chain.
    """
    rng = random.Random(f"plain-poset:{n}")
    els = ["bot"] + [f"e{i}" for i in range(1, n)]
    covers = {(0, i) for i in range(1, n)} | {(1, 3), (1, 4), (2, 3), (2, 4)}
    for i in range(5, n):
        for j in range(1, i):
            if rng.random() < PLAIN_DENSITY:
                covers.add((j, i))
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for a, b in covers:
            if a == i:
                up[i] |= up[b]
    chain = [0]
    while True:
        above = [j for j in range(n) if up[chain[-1]] >> j & 1 and j != chain[-1]]
        if not above or len(chain) >= 12:
            break
        chain.append(rng.choice(above))
    pairs = sorted(covers)
    return els, [(els[a], els[b]) for a, b in pairs], up, chain


def regular_values(rng: random.Random, up: List[int], chain: List[int]) -> Dict[int, Fraction]:
    """Regular quasi-Leontief table: strictly increasing seeded levels along
    the chain; each point takes the level of the highest chain element below
    it.  The level set at a chain level is the up-set of that chain element."""
    n = len(up)
    levels = []
    lam = Fraction(rng.randint(0, 2))
    for _ in chain:
        levels.append(lam)
        lam += Fraction(rng.randint(1, 3), 2)
    return {
        x: max(levels[k] for k, c in enumerate(chain) if up[c] >> x & 1) for x in range(n)
    }


GRID_BASE = (Fraction(1), Fraction(3, 2))


def check_battery(rng: random.Random, w: Writer, quick: bool) -> List[Call]:
    """Min-form grids, one gridded closed form, plain posets; about a third corrupted.

    Full size has 25 calls: 14 min-form grids, the closed form on a 9x9
    box, 3 regular plain posets and 7 corrupted tables (4 grids, 3 plain).
    The 10 cheapest are the corrupted and plain tables, then come five 8x8
    grids (ranks 11-15), four mid-sized calls and six 11x11 grids (ranks
    20-25).  The median lands in the middle of the 8x8 group and the 90th
    percentile in the 11x11 group, so each percentile is read from the
    samples of five or six equal calls, never from one call or from a
    boundary between two differently sized inputs.
    """
    if quick:
        grids, corrupt_at, plains, k = [(5, 5), (6, 6)], {0}, [24], 6
    else:
        grids = [(8, 8)] * 5 + [(9, 9)] * 2 + [(10, 10)] + [(11, 11)] * 6
        corrupt_at, plains, k = {0, 5, 7, 8}, [60, 80, 100], 9
    calls: List[Call] = []
    for i, shape in enumerate(grids):
        values = grid_table(shape, random_coeffs(rng, GRID_BASE))
        poset = {"product": [chain_json(k) for k in shape]}
        size = len(values)
        path = w.write("grid", tabulated_json(poset, values, key))
        calls.append(Call("grid-min", size, ["check", "--json", path], expect_check_pass(True)))
        if i in corrupt_at:
            corrupt(rng, values, tuple(k // 2 for k in shape))
            path = w.write("grid-bad", tabulated_json(poset, values, key))
            calls.append(Call("grid-corrupt", size, ["check", "--json", path], EXPECT_CHECK_CORRUPT))
    a = random_coeffs(rng, GRID_BASE)
    form = {
        "type": "classical",
        "a": [str(c) for c in a],
        "box": {"axes": [{"lo": "0", "hi": str(k - 1), "step": "1"}] * 2},
    }
    path = w.write("classical", form)
    calls.append(Call("closed-form", k * k, ["check", "--json", path], expect_check_pass(True)))
    for n in plains:
        els, covers, up, chain = plain_poset(n)
        poset = {"elements": els, "covers": [list(c) for c in covers]}
        values = regular_values(rng, up, chain)
        path = w.write("plain", tabulated_json(poset, values, lambda i: els[i]))
        calls.append(Call("plain-regular", n, ["check", "--json", path], expect_check_pass(False)))
        corrupt(rng, values, [i for i in range(n) if up[i] != 1 << i][n // 4])
        path = w.write("plain-bad", tabulated_json(poset, values, lambda i: els[i]))
        calls.append(Call("plain-corrupt", n, ["check", "--json", path], EXPECT_CHECK_CORRUPT))
    return calls


# -- product-maximize -------------------------------------------------------------


def downset_members(shape, gens) -> List[Tuple[int, ...]]:
    """Points below some generator, in lexicographic (ambient) order."""
    return [
        p
        for p in iproduct(*(range(k) for k in shape))
        if any(all(c <= g for c, g in zip(p, gen)) for gen in gens)
    ]


def expect_maximize(a, members) -> dict:
    best = max(min_form(a, p) for p in members)
    return {
        "command": "maximize",
        "exit": 0,
        "value": str(best),
        "maximizers": [enc(p) for p in members if min_form(a, p) == best],
        "largest_efficient": enc(least_efficient_at(a, best)),
    }


PRODUCT_BASE = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1))


def product_maximize(rng: random.Random, w: Writer, quick: bool) -> List[Call]:
    """efficient (whole domain and on a subset), maximize (generators and
    members) and refine on each product of equal chains.

    The seed draws the coefficients' common scale.  The down-sets are fixed
    per shape: ``ProductSpace.leq`` stops at the first coordinate that fails,
    so moving a generator coordinate to another axis changes the work even
    at equal down-set size.

    6^4 appears twice (with its own coefficients each time).  Its
    ``efficient`` and ``refine`` calls are then the four calls at ranks
    12-15 by cost, around the median, and its members-form ``maximize``
    and ``efficient --subset`` the four costliest, around the 90th
    percentile; each percentile is read from the samples of four calls of
    equal cost.
    """
    shapes = [(4, 4, 4)] if quick else [(6, 6, 6), (8, 8, 8), (5, 5, 5, 5), (6, 6, 6, 6), (6, 6, 6, 6)]
    calls: List[Call] = []
    for shape in shapes:
        d, k = len(shape), shape[0]
        a = random_coeffs(rng, PRODUCT_BASE[:d])
        values = grid_table(shape, a)
        poset = {"product": [chain_json(k) for k in shape]}
        size = len(values)
        upath = w.write("product", tabulated_json(poset, values, key))
        order = {p: i for i, p in enumerate(values)}

        def efficient_in(pool):
            eff = [p for p in pool if least_efficient_at(a, values[p]) == p]
            eff.sort(key=lambda p: (values[p], order[p]))
            return {"command": "efficient", "exit": 0, "points": [enc(p) for p in eff]}

        calls.append(Call("efficient", size, ["efficient", "--json", upath], efficient_in(values)))

        # two generators equal to k//3 on every axis but one, where they are k-1
        gens = [tuple(k - 1 if i == j else k // 3 for i in range(d)) for j in (0, d - 1)]
        path = w.write("gens", {"generators": [key(g) for g in gens]})
        calls.append(Call("maximize-generators", size,
                          ["maximize", "--json", upath, "--downset", path],
                          expect_maximize(a, downset_members(shape, gens))))

        corner = [k // 2] * (d - 1) + [k // 4]
        members = downset_members(shape, [corner])
        path = w.write("members", {"members": [enc(p) for p in members]})
        calls.append(Call("maximize-members", size,
                          ["maximize", "--json", upath, "--downset", path],
                          expect_maximize(a, members)))
        calls.append(Call("efficient-subset", size,
                          ["efficient", "--json", upath, "--subset", path],
                          efficient_in(members)))

        tops = [k // 2] + [k - 1] * (d - 1)
        set_paths = [w.write("axis", {"members": [str(t) for t in range(top + 1)]}) for top in tops]
        calls.append(Call("refine", size, ["refine", "--json", upath, "--sets", *set_paths],
                          {"command": "refine", "exit": 0,
                           "result": enc(least_efficient_at(a, min_form(a, tops)))}))
    return calls


# -- corpus-sweep -----------------------------------------------------------------

_VALUE_STEPS = (0, 0, 0, Fraction(1, 2), 1, 1, Fraction(3, 2), 2)


def _derive_rng(seed: int, *tags) -> random.Random:
    text = "|".join([str(seed), *map(str, tags)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def triangle_instance_is_regular(seed: int, i: int) -> bool:
    """Replays the corpus 'characterization-triangle' instance (seed, i) and
    decides regularity by enumeration.

    The instance is a random DAG on 3..16 points with an adjoined bottom and
    an isotone table built along a linear extension.  An isotone table has
    up-closed level sets, so it is regular iff every level set at an
    attained value has a least element.
    """
    rng = _derive_rng(seed, "triangle", i)
    n = rng.randint(2, 15)
    p = rng.uniform(0.15, 0.5)
    edges = [(a + 1, b + 1) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    edges += [(0, j) for j in range(1, n + 1)]
    size = n + 1
    up = [1 << k for k in range(size)]
    for k in reversed(range(size)):
        for a, b in edges:
            if a == k:
                up[k] |= up[b]
    down = [sum(1 << j for j in range(size) if up[j] >> k & 1) for k in range(size)]
    values: Dict[int, Fraction] = {}
    for x in sorted(range(size), key=lambda k: (bin(down[k]).count("1"), k)):
        below = [values[y] for y in range(size) if y != x and down[x] >> y & 1]
        values[x] = (max(below) if below else Fraction(0)) + rng.choice(_VALUE_STEPS)
    for lam in set(values.values()):
        level = [x for x in range(size) if values[x] >= lam]
        if not any(all(up[m] >> x & 1 for x in level) for m in level):
            return False
    return True


def corpus_sweep(rng: random.Random, w: Writer, quick: bool) -> List[Call]:
    """Corpus calls over derived seeds; one call in ten injects a fault into a
    seed whose triangle suite holds a regular instance, so the fault lands.

    The cost of one call varies with its seed (instance sizes are random),
    so the battery holds 200 seeds to keep its median steady across
    workload seeds.
    """
    n = 3 if quick else 8
    count = 10 if quick else 200
    calls: List[Call] = []
    while len(calls) < count:
        seed = rng.getrandbits(31)
        inject = len(calls) % 10 == 5
        if inject and not any(triangle_instance_is_regular(seed, i) for i in range(n)):
            continue
        argv = ["corpus", "--json", "--n", str(n), "--seed", str(seed)]
        calls.append(Call("corpus-fault" if inject else "corpus", n,
                          argv + (["--inject-fault"] if inject else []),
                          {"command": "corpus", "exit": 1 if inject else 0,
                           "inconsistencies": 1 if inject else 0, "n": n, "seed": seed}))
    return calls


WORKLOADS = {
    "check-battery": check_battery,
    "product-maximize": product_maximize,
    "corpus-sweep": corpus_sweep,
}


def build(workload: str, seed: int, root: str, quick: bool = False) -> List[Call]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, Writer(root), quick)


# -- verification -------------------------------------------------------------------


def verify(call: Call, code: int, out: str) -> Optional[str]:
    """None when the call produced its expected answer, else what differed."""
    exp = call.expect
    if code != exp["exit"]:
        return f"exit {code}, expected {exp['exit']}"
    try:
        rep = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if rep.get("command") != exp["command"]:
        return f"report command {rep.get('command')!r}"
    cmd = exp["command"]
    if cmd == "check":
        certs = rep["certificates"]
        if rep["ok"] is not exp["ok"]:
            return f"ok={rep['ok']}"
        if [c["property"] for c in certs] != exp["props"]:
            return f"certificates {[c['property'] for c in certs]}"
        want = "pass" if exp["ok"] else "fail"
        if any(c["verdict"] != want for c in certs):
            return f"a certificate is not {want}"
        if not exp["ok"] and not certs[0]["witnesses"]:
            return "quasi-leontief failure without witnesses"
    elif cmd == "efficient":
        if rep["points"] != exp["points"]:
            return "efficient points differ"
    elif cmd == "maximize":
        res = rep["result"]
        for k in ("value", "maximizers", "largest_efficient"):
            if res[k] != exp[k]:
                return f"{k} {res[k]!r}, expected {exp[k]!r}"
        if rep["localization"]["verdict"] != "pass" or rep["ok"] is not True:
            return "localization did not pass"
    elif cmd == "refine":
        if rep["ok"] is not True or rep["refined_equals_largest_efficient"] is not True:
            return "refined point is not the largest efficient maximizer"
        if rep["trace"]["result"] != exp["result"] or rep["largest_efficient"] != exp["result"]:
            return f"refined to {rep['trace']['result']}, expected {exp['result']}"
    elif cmd == "corpus":
        total = sum(s["inconsistencies"] for s in rep["suites"])
        if total != exp["inconsistencies"]:
            return f"{total} inconsistencies, expected {exp['inconsistencies']}"
        if rep["seed"] != exp["seed"] or any(s["instances"] != exp["n"] for s in rep["suites"]):
            return "corpus seed or instance count differs"
        if total and rep["suites"][0]["failures"][0]["property"] != "galois-adjunction":
            return "injected fault not reported as a galois-adjunction failure"
    return None
