"""Seeded random instance generators for the certification sweeps.

All randomness flows from one 64-bit master seed: per-instance generators are
derived by hashing (seed, suite tag, index), so any instance can be replayed
in isolation and whole sweeps are reproducible byte for byte.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Dict, List, Optional

from .leontief import TabulatedUtility
from .order import DownSet, Element, FinitePoset, ProductSpace


def derive_rng(seed: int, *tags) -> random.Random:
    """Independent RNG for one (seed, tag...) coordinate."""
    text = "|".join([str(seed), *map(str, tags)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_poset(
    rng: random.Random,
    max_size: int = 16,
    *,
    with_bottom: bool = False,
    edge_prob: Optional[float] = None,
) -> FinitePoset:
    """Random DAG on string ids, transitively closed; optional adjoined bottom."""
    budget = max_size - (1 if with_bottom else 0)
    n = rng.randint(2, max(2, budget))
    p = edge_prob if edge_prob is not None else rng.uniform(0.15, 0.5)
    els = [f"e{i}" for i in range(n)]
    covers = [
        (els[i], els[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    if with_bottom:
        bot = "bot"
        covers.extend((bot, e) for e in els)
        els = [bot] + els
    return FinitePoset.from_covers(els, covers)


_VALUE_STEPS = (
    Fraction(0),
    Fraction(0),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
)


def random_isotone_utility(rng: random.Random, poset: FinitePoset) -> TabulatedUtility:
    """Random isotone table: a sweep along a linear extension keeps every value
    at or above the values strictly below (ties are frequent on purpose).  On
    a product of chains every such table is individually quasi-Leontief."""
    values: Dict[Element, Fraction] = {}
    for x in poset.linear_extension():
        below = [values[y] for y in poset.down_set(x) if y != x]
        base = max(below) if below else Fraction(0)
        values[x] = base + rng.choice(_VALUE_STEPS)
    return TabulatedUtility(poset, values)


def random_quasileontief_utility(
    rng: random.Random, poset: FinitePoset
) -> TabulatedUtility:
    """Random regular quasi-Leontief table on a poset with a bottom element.

    A random ascending chain from the bottom gets strictly increasing values;
    every point takes the value of the highest chain element below it.  Upper
    level sets are then exactly the up-sets of chain elements.
    """
    bot = poset.bottom()
    if bot is None:
        raise ValueError("generator needs a poset with a bottom element")
    chain = [bot]
    cur = bot
    while True:
        ups = [y for y in poset.up_set(cur) if y != cur]
        if not ups or rng.random() < 0.3:
            break
        cur = rng.choice(sorted(ups, key=poset.index_of))
        chain.append(cur)
    level = Fraction(rng.randint(0, 2))
    levels = []
    for _ in chain:
        levels.append(level)
        level += Fraction(rng.randint(1, 3), 2)
    values: Dict[Element, Fraction] = {}
    for x in poset.elements:
        vals = [levels[i] for i, e in enumerate(chain) if poset.leq(e, x)]
        values[x] = max(vals)
    return TabulatedUtility(poset, values)


def random_downset(rng: random.Random, poset: FinitePoset) -> DownSet:
    """Down-set generated by a small random nonempty antichain-ish sample."""
    k = rng.randint(1, min(3, len(poset)))
    gens = rng.sample(list(poset.elements), k)
    return DownSet.from_generators(poset, sorted(gens, key=poset.index_of))


def random_product_of_chains(
    rng: random.Random, max_factors: int = 3, max_len: int = 4
) -> ProductSpace:
    n = rng.randint(1, max_factors)
    return ProductSpace(
        [FinitePoset.chain(range(rng.randint(2, max_len))) for _ in range(n)]
    )


def random_prefix_downsets(
    rng: random.Random, space: ProductSpace
) -> List[DownSet]:
    """Per-factor comprehensive sets: prefixes of each chain factor."""
    out = []
    for f in space.factors:
        k = rng.randint(1, len(f))
        out.append(DownSet.from_members(f, f.elements[:k]))
    return out
