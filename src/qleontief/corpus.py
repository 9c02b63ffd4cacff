"""Seeded random instance generators for the certification sweeps.

All randomness flows from one 64-bit master seed: per-instance generators are
derived by hashing (seed, suite tag, index), so any instance can be replayed
in isolation and whole sweeps are reproducible byte for byte.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from .leontief import TabulatedUtility, _Ranks
from .order import EXACT, DownSet, FinitePoset, ProductSpace, _bits


def derive_rng(seed: int, *tags) -> random.Random:
    """Independent RNG for one (seed, tag...) coordinate."""
    import hashlib  # here, not at the top: no other command reads a seed

    text = "|".join([str(seed), *map(str, tags)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_poset(
    rng: random.Random,
    max_size: int = 16,
    *,
    with_bottom: bool = False,
) -> FinitePoset:
    """Random DAG on string ids, transitively closed; optional adjoined bottom."""
    budget = max_size - (1 if with_bottom else 0)
    n = rng.randint(2, max(2, budget))
    p = rng.uniform(0.15, 0.5)
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


_HALF_STEPS = (0, 0, 0, 1, 2, 2, 3, 4)
"""The value steps in halves: 0, 1/2, 1, 3/2 and 2, with 0 and 1 weighted."""


def random_isotone_utility(rng: random.Random, poset: FinitePoset) -> TabulatedUtility:
    """Random isotone table: a sweep along a linear extension keeps every value
    at or above the values strictly below (ties are frequent on purpose).  On
    a product of chains every such table is individually quasi-Leontief.

    The sweep counts in half-steps by element index; each distinct count
    becomes one shared ``Fraction``.  The table comes with its rank table:
    one sort of the distinct counts ranks them, and the shared Fractions
    are its image.

    The maximum below a point is read by a walk over its strict down-set m:
    take the highest-index member j, keep its count, and drop down(j) from
    m.  The table swept so far is isotone, so the count at j is at least
    that of everything below j, and dropping down(j) loses no larger count
    in any listing order.  Where the index order is a linear extension, as
    on every corpus poset, j is maximal in m, so the walk reads one down
    row per lower cover of the point."""
    down = poset.as_poset()._down
    halves = [0] * len(poset)
    for i in poset._extension_order():
        m, below = down[i] & ~(1 << i), 0
        while m:
            j = m.bit_length() - 1
            if halves[j] > below:
                below = halves[j]
            m &= ~down[j]
        halves[i] = below + rng.choice(_HALF_STEPS)
    counts = sorted(set(halves))
    rank = list(map({h: r for r, h in enumerate(counts)}.__getitem__, halves))
    image = [Fraction(h, 2) for h in counts]
    return TabulatedUtility._of_column(poset, list(map(image.__getitem__, rank)), EXACT, _Ranks(rank, image))


def random_quasileontief_utility(
    rng: random.Random, poset: FinitePoset
) -> TabulatedUtility:
    """Random regular quasi-Leontief table on a poset with a bottom element.

    A random ascending chain from the bottom gets strictly increasing values;
    every point takes the value of the highest chain element below it.  Upper
    level sets are then exactly the up-sets of chain elements.  So a point's
    rank is the chain position that sets its value: chain element k keeps
    its own, so every level is attained, and the table comes with its rank
    table.
    """
    up = poset.as_poset()._up
    bot = poset._least_in((1 << len(poset)) - 1)
    if bot is None:
        raise ValueError("generator needs a poset with a bottom element")
    chain = [bot]
    while True:
        ups = list(_bits(up[chain[-1]] & ~(1 << chain[-1])))
        if not ups or rng.random() < 0.3:
            break
        chain.append(rng.choice(ups))
    level = Fraction(rng.randint(0, 2))
    rank, image = [0] * len(poset), []
    for k, c in enumerate(chain):  # ascending, so a point keeps the rank of the last chain element below it
        for i in _bits(up[c]):
            rank[i] = k
        image.append(level)
        level += Fraction(rng.randint(1, 3), 2)
    return TabulatedUtility._of_column(poset, list(map(image.__getitem__, rank)), EXACT, _Ranks(rank, image))


def random_downset(rng: random.Random, poset: FinitePoset) -> DownSet:
    """Down-set generated by a small random nonempty antichain-ish sample."""
    k = rng.randint(1, min(3, len(poset)))
    gens = rng.sample(list(poset), k)
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
        out.append(DownSet.from_members(f, list(f)[:k]))
    return out
