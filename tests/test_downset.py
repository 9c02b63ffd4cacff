"""Down-sets on product spaces against a brute-force reference.

``DownSet`` holds its members as a bitmask over the materialized product
poset.  The reference below never builds that poset: it enumerates the
product points and compares them coordinatewise with ``ProductSpace.leq``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qleontief as q
from qleontief import corpus


def ref_generated(space, gens):
    gens = [space._check_point(g) for g in gens]
    return frozenset(p for p in space.points() if any(space.leq(p, g) for g in gens))


def ref_first_missing(space, members):
    """First point, in enumeration order, below a member but not a member."""
    members = {space._check_point(m) for m in members}
    for p in space.points():
        if p not in members and any(space.leq(p, m) for m in members):
            return p
    return None


def random_space(rng, kind):
    if kind == "chains":
        return corpus.random_product_of_chains(rng)
    if kind == "four-axes":
        return q.ProductSpace([corpus.random_poset(rng, 3) for _ in range(4)])
    if kind == "nested":
        inner = q.ProductSpace([corpus.random_poset(rng, 3), q.FinitePoset.chain(range(rng.randint(1, 3)))])
        return q.ProductSpace([corpus.random_poset(rng, 3), inner, corpus.random_poset(rng, 3)])
    n = rng.randint(1, 3)
    return q.ProductSpace([corpus.random_poset(rng, 4) for _ in range(n)])


def member_sets(rng, space):
    """A random subset, a generated (closed) set and that set minus one point."""
    points = list(space.points())
    subset = [p for p in points if rng.random() < 0.4]
    closed = ref_generated(space, rng.sample(points, rng.randint(1, 2)))
    holed = set(closed)
    holed.discard(rng.choice(sorted(closed, key=points.index)))
    return [subset, sorted(closed, key=points.index), sorted(holed, key=points.index)]


@pytest.mark.parametrize("kind", ["chains", "posets"])
def test_from_members_matches_reference(kind):
    for i in range(60):
        rng = corpus.derive_rng(11, "downset-members", kind, i)
        space = random_space(rng, kind)
        for members in member_sets(rng, space):
            missing = ref_first_missing(space, members)
            if missing is not None:
                with pytest.raises(q.OrderError) as exc:
                    q.DownSet.from_members(space, members)
                assert str(exc.value) == (
                    f"not comprehensive: {missing!r} is below a member but missing"
                )
                continue
            s = q.DownSet.from_members(space, [list(m) for m in members])
            assert frozenset(s) == frozenset(members) and len(s) == len(members)
            assert s.sorted_members() == tuple(p for p in space.points() if p in members)
            assert all((list(p) in s) == (p in members) for p in space.points())


@pytest.mark.parametrize("kind", ["chains", "posets"])
def test_from_generators_matches_reference(kind):
    for i in range(60):
        rng = corpus.derive_rng(11, "downset-generators", kind, i)
        space = random_space(rng, kind)
        points = list(space.points())
        gens = rng.sample(points, rng.randint(0, min(3, len(points))))
        s = q.DownSet.from_generators(space, [list(g) for g in gens])
        assert frozenset(s) == ref_generated(space, gens)
        assert s.space is space.as_poset()


@pytest.mark.parametrize("kind", ["chains", "posets", "four-axes", "nested"])
def test_product_downset_matches_reference(kind):
    for i in range(40):
        rng = corpus.derive_rng(11, "product-downset", kind, i)
        space = random_space(rng, kind)
        tops = [rng.choice(list(f)) for f in space.factors]
        sets = [q.DownSet.from_generators(f, [t]) for f, t in zip(space.factors, tops)]
        s = q.product_downset(space, sets)
        assert frozenset(s) == ref_generated(space, [tuple(tops)])


def test_product_downset_rejects_set_in_wrong_factor():
    space = q.grid_space(range(2), range(3))
    sets = [q.DownSet.from_generators(f, [0]) for f in reversed(space.factors)]
    with pytest.raises(q.OrderError, match="factor set 0 lives in the wrong poset"):
        q.product_downset(space, sets)


_NOT_CLOSED = """
import qleontief as q
space = q.ProductSpace([q.FinitePoset.chain(["a", "b"]), q.FinitePoset.chain(["x", "y"])])
try:
    q.DownSet.from_members(space, [("a", "y"), ("b", "x")])
except q.OrderError as exc:
    print(exc)
"""


def test_product_error_text_independent_of_hash_seed():
    src = str(Path(q.__file__).resolve().parents[1])
    texts = set()
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _NOT_CLOSED], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        texts.add(run.stdout)
    assert texts == {"not comprehensive: ('a', 'x') is below a member but missing\n"}


@pytest.mark.parametrize("kind", ["plain", "product"])
def test_each_member_and_generator_is_read_to_its_index_once(monkeypatch, kind):
    if kind == "plain":
        space = q.FinitePoset.from_covers(["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("l", "t")])
        members, gens = ["b", "l", "r"], ["t", "r"]
    else:
        space = q.grid_space(range(3), range(4))
        members, gens = [(0, 0), (0, 1), (1, 0), (1, 1)], [(2, 1), (0, 3)]
    read = []
    for cls in (q.FinitePoset, q.ProductSpace):
        def counted(self, x, index_of=cls.__dict__["index_of"]):
            if self is space:
                read.append(x)
            return index_of(self, x)
        monkeypatch.setattr(cls, "index_of", counted)
    s = q.DownSet.from_members(space, members)
    assert read == members and frozenset(s) == frozenset(members)
    read.clear()
    s = q.DownSet.from_generators(space, gens)
    assert read == gens
    assert frozenset(s) == {x for x in space if any(space.leq(x, g) for g in gens)}
