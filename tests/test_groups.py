"""Group law, enumeration and canonical-form tests."""

import itertools
import random

import numpy as np
import pytest

from ergolab import (
    GroupElementError,
    UnsupportedGroupError,
    enumerate_prefix,
    group_by_name,
    inverse,
    multiply,
)
from ergolab.groups import from_block, to_block

Z = group_by_name("Z")
Z2 = group_by_name("Z^2")
Z3 = group_by_name("Z^3")
H3 = group_by_name("H3")


def test_z_multiply_and_identity():
    assert multiply(Z, 2, 3) == 5
    assert multiply(Z, 17, Z.identity) == 17
    assert multiply(Z, Z.identity, -4) == -4


def test_h3_multiply_example():
    # evaluate the upper-triangular law (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a b')
    assert multiply(H3, (1, 0, 0), (0, 1, 0)) == (1, 1, 1)


def test_inverse_examples():
    assert inverse(Z, 7) == -7
    assert inverse(Z2, (0, 0)) == (0, 0)
    # solve (1,1,1)(x,y,z) = (0,0,0) under the chosen law
    assert inverse(H3, (1, 1, 1)) == (-1, -1, 0)
    assert multiply(H3, (1, 1, 1), inverse(H3, (1, 1, 1))) == H3.identity


def test_enumeration_examples():
    assert enumerate_prefix(Z, 5) == [0, 1, -1, 2, -2]
    assert enumerate_prefix(Z, 1) == [0]
    assert enumerate_prefix(Z2, 5) == [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    assert enumerate_prefix(H3, 1) == [(0, 0, 0)]


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
def test_enumeration_prefix_property(group):
    long = enumerate_prefix(group, 120)
    assert len(set(long)) == 120  # injective
    for n in (1, 7, 30, 119):
        assert enumerate_prefix(group, n) == long[:n]


def test_group_axioms_exhaustive_z():
    elems = enumerate_prefix(Z, 30)
    for a, b, c in itertools.product(elems, repeat=3):
        assert multiply(Z, multiply(Z, a, b), c) == multiply(Z, a, multiply(Z, b, c))
    for a in elems:
        assert multiply(Z, a, Z.identity) == a
        assert multiply(Z, Z.identity, a) == a
        assert multiply(Z, a, inverse(Z, a)) == Z.identity
        assert multiply(Z, inverse(Z, a), a) == Z.identity


@pytest.mark.parametrize("group", [Z2, H3], ids=lambda g: g.name)
def test_group_axioms_randomized(group):
    rng = random.Random(20240803)
    pool = enumerate_prefix(group, 200)
    for _ in range(1000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert multiply(group, multiply(group, a, b), c) == multiply(group, a, multiply(group, b, c))
        assert multiply(group, a, group.identity) == a
        assert multiply(group, group.identity, a) == a
        assert multiply(group, a, inverse(group, a)) == group.identity
        assert multiply(group, inverse(group, a), a) == group.identity


def test_mismatched_kinds_raise():
    with pytest.raises(GroupElementError):
        multiply(Z, 1, (1, 0))
    with pytest.raises(GroupElementError):
        multiply(Z2, (1, 0), (1, 0, 0))
    with pytest.raises(GroupElementError):
        inverse(H3, (1, 2))
    with pytest.raises(GroupElementError):
        multiply(Z, True, 1)  # bools are not canonical forms


def test_group_by_name():
    assert group_by_name("Z").name == "Z"
    assert group_by_name("Z^3").dimension == 3
    assert group_by_name("H3").name == "H3"
    with pytest.raises(UnsupportedGroupError):
        group_by_name("F_2")


def test_translate_set_matches_multiply():
    rng = random.Random(99)
    for group in (Z, Z2, H3):
        pool = enumerate_prefix(group, 60)
        s = frozenset(rng.sample(pool, 25))
        g = rng.choice(pool)
        assert group.translate_set(s, g) == {multiply(group, g, x) for x in s}


def test_h3_box_geometry_against_enumeration():
    # |B_1| = 3*3*3 for the quadratically scaled central coordinate
    assert H3.box_card(1) == 27
    assert H3.box_card(2) == 25 * 9
    elems = set(H3.box_elements(1))
    assert len(elems) == 27
    assert all(H3.box_contains(1, g) for g in elems)


# ---------------------------------------------------------------------------
# H3 box overlap: closed form against the fibre loop and against set arithmetic
# ---------------------------------------------------------------------------


def loop_overlap(r, a, b, cs):
    """The former O(r) fibre loop of HeisenbergGroup.box_overlap, run for a
    column of central coordinates cs at once: entry k is |B_r ∩ (a, b, cs[k]) B_r|."""
    cs = np.asarray(cs, dtype=np.int64)
    cnt_x1 = max(0, 2 * r + 1 - abs(a))
    lo = max(-r, b - r)
    hi = min(r, b + r)
    depth = 2 * r * r + 1
    total = np.zeros_like(cs)
    for x2 in range(lo, hi + 1):
        t = cs - a * b + a * x2
        total += np.maximum(0, depth - np.abs(t))
    return cnt_x1 * total


@pytest.mark.parametrize("r", range(9))
def test_h3_box_overlap_matches_fibre_loop_on_full_grid(r):
    # |a|, |b| up to 2r + 2 and |c| up to 3r^2 + 3: a of both signs and zero,
    # empty x1 and x2 ranges (|a| > 2r, |b| > 2r), tents cut at either end
    span = range(-(2 * r + 2), 2 * r + 3)
    cs = range(-(3 * r * r + 3), 3 * r * r + 4)
    for a in span:
        for b in span:
            got = [H3.box_overlap(r, (a, b, c)) for c in cs]
            assert got == loop_overlap(r, a, b, cs).tolist(), (r, a, b)


def test_h3_box_overlap_matches_set_arithmetic():
    rng = random.Random(77)
    for r in range(4):
        box = frozenset(H3.box_elements(r))
        # translations just beyond the reach of the box, the identity, and a random sample
        side, depth = 2 * r + 1, 2 * r * r + 1
        gs = list(itertools.product((-side, 0, side), (-side, 0, side), (-depth, 0, depth)))
        for _ in range(150):
            a, b = rng.randint(-side, side), rng.randint(-side, side)
            gs.append((a, b, rng.randint(-2 * depth, 2 * depth)))
        for g in gs:
            assert H3.box_overlap(r, g) == len(box & H3.translate_set(box, g)), (r, g)


def test_h3_box_overlap_is_exact_beyond_machine_integers():
    r = 10**12
    assert H3.box_overlap(r, H3.identity) == H3.box_card(r)
    for g in [(r, -r // 3, r * r // 2), (-2 * r, r, 1), (1, 2 * r, -(r * r)), (7, -5, 3 * r * r), (-r // 7, r // 11, 2**70)]:
        assert H3.box_overlap(r, g) == H3.box_overlap(r, inverse(H3, g)), g
    # a = 0: every x2 fibre has the same depth
    b, c = r // 2, r * r // 3
    assert H3.box_overlap(r, (0, b, c)) == (2 * r + 1) * (2 * r + 1 - b) * (2 * r * r + 1 - c)


# ---------------------------------------------------------------------------
# box overlaps of a whole block against the scalar box_overlap
# ---------------------------------------------------------------------------


def random_translations(group, r, count, rng):
    """count translations, about half inside B_2r (where overlaps are nonzero) and half up to 3x past it."""
    out = []
    for i in range(count):
        reach = 2 * r if i % 2 else 6 * r + 3
        if group is Z:
            out.append(rng.randint(-reach, reach))
        elif group is H3:
            out.append((rng.randint(-reach, reach), rng.randint(-reach, reach), rng.randint(-reach * r, reach * r)))
        else:
            out.append(tuple(rng.randint(-reach, reach) for _ in range(group.dimension)))
    return out


@pytest.mark.parametrize("group", [Z, Z2, Z3, H3], ids=lambda g: g.name)
@pytest.mark.parametrize("r", [1, 2, 5, 13, 40])
def test_box_overlaps_equal_the_scalar_overlap(group, r):
    rng = random.Random(r)
    gs = random_translations(group, r, 1500, rng) + [group.identity, group.box_corner(r) or (r, r, -r * r)]
    got = group.box_overlaps(r, to_block(gs))
    assert got.dtype == np.int64
    assert got.tolist() == [group.box_overlap(r, g) for g in gs]


def test_box_overlaps_at_the_edge_of_the_int64_route():
    reach = 2**12
    r3 = next(r for r in itertools.count(800_000) if (2 * r + 3) ** 3 >= 2**62)  # last r with (2r+1)^3 < 2^62
    cases = [
        (Z, 2**61 - 1, [0, 2**62, -(2**62), 2**61, 12345]),  # (2r+1) just under 2^62, |g| at 2^62
        (Z3, r3, [(0, 0, 0), (5, -7, 2**62), (1, 1, 1)]),
        (H3, reach, [(reach, -reach, reach * reach), (-reach, reach, -(reach * reach)), (0, reach, 5), (3, -4, 11)]),
    ]
    for group, r, gs in cases:
        block = to_block(gs)
        assert block.dtype == np.int64
        got = group.box_overlaps(r, block)
        assert got.dtype == np.int64, group  # still on the int64 route
        assert got.tolist() == [group.box_overlap(r, g) for g in gs], group
    # one step past the guard in r or in a coordinate: the exact scalar loop
    for group, r, gs in [
        (Z, 2**61, [0, 1]),
        (Z, 3, [2**62 + 1]),
        (Z2, 2**31, [(0, 0), (1, -1)]),
        (Z3, r3 + 1, [(0, 0, 0), (1, -1, 2)]),
        (H3, reach + 1, [(0, 0, 0), (1, 2, 3)]),
        (H3, 3, [(reach + 1, 0, 0), (0, 1, 2)]),
        (H3, 3, [(0, -reach - 1, 0), (0, 1, 2)]),
        (H3, 3, [(0, 0, -(reach * reach) - 1), (0, 1, 2)]),
    ]:
        got = group.box_overlaps(r, to_block(gs))
        assert got.dtype == object and got.tolist() == [group.box_overlap(r, g) for g in gs], (group, r)


def test_box_overlaps_are_exact_beyond_machine_integers():
    r = 10**30
    for group, gs in [
        (Z, [0, r, -2 * r, 2 * r + 1, 10**40]),
        (Z2, [(0, 0), (r, -r), (2**70, 1)]),
        (H3, [(0, 0, 0), (r, -r // 3, r * r // 2), (1, 2 * r, -(r * r)), (7, -5, 3 * r * r)]),
    ]:
        block = to_block(gs)
        assert from_block(block) == gs
        got = group.box_overlaps(r, block)
        assert got.dtype == object
        assert got.tolist() == [group.box_overlap(r, g) for g in gs]
        assert max(got) > 2**63  # the identity's overlap |B_r| does not fit in int64


# ---------------------------------------------------------------------------
# element checks: the exact-type fast path accepts what the general check did
# ---------------------------------------------------------------------------


class SubInt(int):
    pass


class SubTuple(tuple):
    pass


def general_check(dimension, a):
    """The element check without a fast path: a tuple of the right length of non-bool ints."""
    return (
        isinstance(a, tuple)
        and len(a) == dimension
        and all(isinstance(c, int) and not isinstance(c, bool) for c in a)
    )


@pytest.mark.parametrize("group", [Z2, group_by_name("Z^3"), H3], ids=lambda g: g.name)
def test_check_element_accepts_exactly_the_general_check(group):
    d = len(group.identity)
    candidates = [
        group.identity,
        (1,) * d,
        (-(2**80),) * d,
        (True,) * d,
        (1,) * (d - 1) + (True,),
        (SubInt(3),) * d,
        SubTuple((1,) * d),
        list((1,) * d),
        (1,) * (d - 1),
        (1,) * (d + 1),
        (),
        (np.int64(1),) * d,
        (1.0,) * d,
        (1,) * (d - 1) + ("1",),
        np.zeros(d, dtype=np.int64),
        5,
        None,
    ]
    for a in candidates:
        if general_check(d, a):
            group.check_element(a)
        else:
            with pytest.raises(GroupElementError):
                group.check_element(a)
