"""Group law, enumeration and canonical-form tests."""

import functools
import itertools
import math
import random
import re
from fractions import Fraction

import group_oracles as literal
import numpy as np
import pytest

from ergolab import DomainError, ExplicitFamily, GroupElementError, UnsupportedGroupError, group_by_name
from ergolab.folner import _common_rows
from ergolab.groups import MAX_DIMENSION, LatticeGroup, from_block, row_codes, to_block

Z = group_by_name("Z")
Z2 = group_by_name("Z^2")
Z3 = group_by_name("Z^3")
H3 = group_by_name("H3")


def test_z_multiply_and_identity():
    assert Z.multiply(2, 3) == 5
    assert Z.multiply(17, Z.identity) == 17
    assert Z.multiply(Z.identity, -4) == -4


def test_h3_multiply_example():
    # evaluate the upper-triangular law (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a b')
    assert H3.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 1)


def test_inverse_examples():
    # the literal inverses multiply to the identity on either side
    assert Z.multiply(7, -7) == Z.multiply(-7, 7) == Z.identity
    assert Z2.multiply((3, -1), (-3, 1)) == Z2.identity
    # solve (1,1,1)(x,y,z) = (0,0,0) under the chosen law
    assert literal.inverse(H3, (1, 1, 1)) == (-1, -1, 0)
    assert H3.multiply((1, 1, 1), (-1, -1, 0)) == H3.multiply((-1, -1, 0), (1, 1, 1)) == H3.identity


def test_enumeration_examples():
    assert literal.prefix(Z, 5) == [0, 1, -1, 2, -2]
    assert literal.prefix(Z, 1) == [0]
    assert literal.prefix(Z2, 5) == [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    assert literal.prefix(H3, 1) == [(0, 0, 0)]


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
def test_enumeration_prefix_property(group):
    long = literal.prefix(group, 120)
    assert len(set(long)) == 120  # injective
    for n in (1, 7, 30, 119):
        assert literal.prefix(group, n) == long[:n]  # the same order on every draw


def test_group_axioms_exhaustive_z():
    elems = literal.prefix(Z, 30)
    multiply = functools.lru_cache(maxsize=None)(Z.multiply)  # each distinct product computed once
    for a, b, c in itertools.product(elems, repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    for a in elems:
        assert Z.multiply(a, Z.identity) == a
        assert Z.multiply(Z.identity, a) == a
        assert Z.multiply(a, literal.inverse(Z, a)) == Z.identity
        assert Z.multiply(literal.inverse(Z, a), a) == Z.identity


@pytest.mark.parametrize("group", [Z2, H3], ids=lambda g: g.name)
def test_group_axioms_randomized(group):
    rng = random.Random(20240803)
    pool = literal.prefix(group, 200)
    for _ in range(1000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert group.multiply(a, b) == literal.law(group, a, b)
        assert group.multiply(group.multiply(a, b), c) == group.multiply(a, group.multiply(b, c))
        assert group.multiply(a, group.identity) == a
        assert group.multiply(group.identity, a) == a
        assert group.multiply(a, literal.inverse(group, a)) == group.identity
        assert group.multiply(literal.inverse(group, a), a) == group.identity


def test_mismatched_kinds_raise():
    with pytest.raises(GroupElementError):
        Z.multiply(1, (1, 0))
    with pytest.raises(GroupElementError):
        Z2.multiply((1, 0), (1, 0, 0))
    with pytest.raises(GroupElementError):
        H3.multiply((1, 2), H3.identity)
    with pytest.raises(GroupElementError):
        Z.multiply(True, 1)  # bools are not canonical forms


def test_multiply_checks_a_then_b_and_is_exact_past_int64():
    # one Group.multiply: a is checked before b, each with its own element error
    for group, bad_a, bad_b in [
        (Z, True, (1, 0)),
        (Z, 1.5, True),
        (Z2, (1, True), (1, 0, 0)),
        (Z2, [1, 0], (1,)),
        (H3, (1, 2), (False, 0, 0)),
        (H3, np.zeros(3, dtype=np.int64), "abc"),
    ]:
        for a, b, named in [(bad_a, bad_b, bad_a), (group.identity, bad_b, bad_b), (bad_a, group.identity, bad_a)]:
            with pytest.raises(GroupElementError, match=re.escape(f"got {named!r}")):
                group.multiply(a, b)
    # Python ints past 2^63 in either factor, and products that leave int64 from int64 factors
    big = [0, 1, -1, 2**62, 2**63 - 1, -(2**63), 2**63, 2**70, -(2**70)]
    rng = random.Random(63)
    for group in (Z, Z2, Z3, H3):
        for _ in range(200):
            a, b = ((rng.choice(big) if group is Z else tuple(rng.choice(big) for _ in group.identity)) for _ in range(2))
            product = group.multiply(a, b)
            assert product == literal.law(group, a, b), (a, b)
            assert all(type(c) is int for c in ([product] if group is Z else product))  # canonical: no numpy ints
    assert H3.multiply((2**40, 1, 2), (1, 2**40, 3)) == (2**40 + 1, 2**40 + 1, 2**80 + 5)


def test_group_by_name():
    assert group_by_name("Z").name == "Z"
    assert group_by_name("Z^3").dimension == 3
    assert group_by_name("H3").name == "H3"
    with pytest.raises(UnsupportedGroupError):
        group_by_name("F_2")


def test_lattice_dimension_is_capped():
    assert group_by_name(f"Z^{MAX_DIMENSION}").dimension == MAX_DIMENSION
    # one past the cap, far past it, and a digit string int() itself would refuse
    for name in (f"Z^{MAX_DIMENSION + 1}", "Z^3000", "Z^" + "1" * 20, "Z^" + "9" * 5000):
        with pytest.raises(UnsupportedGroupError, match=str(MAX_DIMENSION)):
            group_by_name(name)
    for d in (0, MAX_DIMENSION + 1, True):
        with pytest.raises(UnsupportedGroupError):
            LatticeGroup(d)


def test_lattice_enumeration_prefix_is_pinned():
    assert literal.prefix(Z2, 25) == [
        (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (1, 1), (-1, 1), (1, -1), (-1, -1),
        (0, 2), (0, -2), (3, 0), (-3, 0), (2, 1), (-2, 1), (2, -1), (-2, -1), (1, 2), (-1, 2), (1, -2),
        (-1, -2), (0, 3), (0, -3),
    ]
    assert literal.prefix(Z3, 25) == [
        (0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (2, 0, 0),
        (-2, 0, 0), (1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0), (0, 2, 0), (0, -2, 0), (1, 0, 1),
        (-1, 0, 1), (0, 1, 1), (0, -1, 1), (1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1), (0, 0, 2),
        (0, 0, -2),
    ]


def test_h3_enumeration_is_pinned_through_b3():
    # the identity, then each shell B_r minus B_(r-1) in zig-zag order 0, 1, -1, 2, -2, ... of a, then b, then c
    def zigzag(k):
        return 2 * k - 1 if k > 0 else -2 * k

    expected = [(0, 0, 0)]
    for r in (1, 2, 3):
        shell = [
            (a, b, c)
            for a, b, c in itertools.product(range(-r, r + 1), range(-r, r + 1), range(-r * r, r * r + 1))
            if max(abs(a), abs(b)) > r - 1 or abs(c) > (r - 1) ** 2
        ]
        expected += sorted(shell, key=lambda g: tuple(map(zigzag, g)))
    assert len(expected) == H3.box_card(3) == 931
    assert list(itertools.islice(H3.enumeration(), 931)) == expected


def test_lattice_enumeration_at_the_dimension_cap():
    group = LatticeGroup(MAX_DIMENSION)
    prefix = literal.prefix(group, 2 * MAX_DIMENSION + 1)
    # the identity, then the shell of 1-norm 1: +e_1, -e_1, +e_2, -e_2, ...
    unit = [tuple(int(i == k) for i in range(MAX_DIMENSION)) for k in range(MAX_DIMENSION)]
    assert prefix == [group.identity] + [v for e in unit for v in (e, tuple(-c for c in e))]


# int64's ends, the edges of the int64 routes of `translate_block`, and values past int64
EDGES = [0, 1, -1, 2**30, 2**30 + 1, -(2**30), 2**60, 2**60 + 1, 2**62 - 1, 2**62, -(2**63), 2**63 - 1, 2**70, -(2**70)]


def test_translate_block_matches_multiply():
    rng = random.Random(99)
    for group in (Z, Z2, H3):
        pool = literal.prefix(group, 60)
        s = rng.sample(pool, 25)
        g = rng.choice(pool)
        moved = group.translate_block(to_block(s), g)
        assert moved.dtype == np.int64 and from_block(moved) == [literal.law(group, g, x) for x in s]
    for group in (Z, Z2, Z3, H3):
        rows = EDGES if group is Z else [tuple(rng.choice(EDGES) for _ in group.identity) for _ in range(100)]
        # the rows within each size: int64 blocks, and blocks that reach the edges of the int64 routes
        sizes = (2**70, 2**63, 2**62, 2**60 + 1, 2**30 + 1)
        blocks = [[x for x in rows if all(abs(c) <= size for c in (x if group is not Z else (x,)))] for size in sizes]
        if group is H3:
            # at the H3 bounds in a, b, x1, x2 and c, x3, and past them, where c + x3 + a*x2 can reach 2^63
            edge = [(2**30, 2**30, 2**60), (-(2**30), -(2**30), -(2**60)), (1, 2**30, 0)]
            past = [(2**31, 2**31, 2**61), (-(2**31), -(2**31), -(2**61)), (0, 2**33, 0), (2**33, 1, 0)]
            rows = rows + edge + past
            blocks += [edge, past[:2], past[2:], rows]
        for within in blocks:
            block = to_block(within)
            for g in rows:
                assert from_block(group.translate_block(block, g)) == [literal.law(group, g, x) for x in within], g
            assert from_block(block) == within  # the block is left as it was


def test_h3_box_geometry_against_enumeration():
    # |B_1| = 3*3*3 for the quadratically scaled central coordinate
    assert H3.box_card(1) == 27
    assert H3.box_card(2) == 25 * 9
    elems = set(literal.box(H3, 1))
    assert len(elems) == 27
    assert int(H3.box_reaches(to_block(sorted(elems))).max()) == 1


# ---------------------------------------------------------------------------
# H3 box overlap: closed form against the fibre loop and against set arithmetic
# ---------------------------------------------------------------------------


def loop_overlap(r, a, b, cs):
    """The former O(r) fibre loop of HeisenbergGroup.box_overlap, run for a
    column of central coordinates cs at once: entry k is |B_r ∩ (a, b, cs[k]) B_r|,
    summed in int64 for small inputs and in Python ints (an object array) past that."""
    cs = list(cs)
    small = max(r, abs(a), abs(b)) <= 2**12 and all(abs(c) <= 2**24 for c in cs)
    cs = np.array(cs, dtype=np.int64 if small else object)
    cnt_x1 = max(0, 2 * r + 1 - abs(a))
    lo = max(-r, b - r)
    hi = min(r, b + r)
    depth = 2 * r * r + 1
    total = np.zeros_like(cs)
    for x2 in range(lo, hi + 1):
        t = cs - a * b + a * x2
        total += np.maximum(0, depth - np.abs(t))
    return cnt_x1 * total


def scalar_overlap(group, r, g):
    """|B_r ∩ gB_r| for one g, apart from `box_overlaps`: the scalar product on Z and Z^d, and
    the fibre loop on H3, whose scalar `box_overlap` is one row of `box_overlaps`."""
    if group is H3:
        return int(loop_overlap(r, g[0], g[1], [g[2]])[0])
    return group.box_overlap(r, g)


@pytest.mark.parametrize("r", range(9))
def test_h3_box_overlap_matches_fibre_loop_on_full_grid(r):
    # |a|, |b| up to 2r + 2 and |c| up to 3r^2 + 3: a of both signs and zero,
    # empty x1 and x2 ranges (|a| > 2r, |b| > 2r), tents cut at either end
    span = range(-(2 * r + 2), 2 * r + 3)
    cs = range(-(3 * r * r + 3), 3 * r * r + 4)
    for a in span:
        for b in span:
            got = H3.box_overlaps(r, to_block([(a, b, c) for c in cs]))
            assert got.tolist() == loop_overlap(r, a, b, cs).tolist(), (r, a, b)


def test_h3_box_overlap_matches_set_arithmetic():
    rng = random.Random(77)
    for r in range(4):
        box = frozenset(literal.box(H3, r))
        # translations just beyond the reach of the box, the identity, and a random sample
        side, depth = 2 * r + 1, 2 * r * r + 1
        gs = list(itertools.product((-side, 0, side), (-side, 0, side), (-depth, 0, depth)))
        for _ in range(150):
            a, b = rng.randint(-side, side), rng.randint(-side, side)
            gs.append((a, b, rng.randint(-2 * depth, 2 * depth)))
        for g in gs:
            assert H3.box_overlap(r, g) == len(box & {literal.law(H3, g, x) for x in box}), (r, g)


def test_h3_box_overlap_is_exact_beyond_machine_integers():
    # past the int64 bounds, against the fibre loop in Python ints: |b| within a few of 2r
    # leaves at most four x2 fibres to sum
    for r in (2**12 + 1, 10**12, 10**30):
        gs = [
            (a, sign * (2 * r - k), c)
            for a in (0, 1, -7, r, -2 * r, 2 * r + 1)
            for sign in (1, -1)
            for k in (-1, 0, 1, 3)
            for c in (0, a * sign * (2 * r - k), a * sign * (2 * r - k) - r * r, -3 * r * r, 2**70 + 1)
        ]
        got = H3.box_overlaps(r, to_block(gs))
        want = [int(loop_overlap(r, a, b, [c])[0]) for a, b, c in gs]
        assert got.dtype == object and got.tolist() == want, r
        assert [H3.box_overlap(r, g) for g in gs] == want, r  # the scalar is one row of the block
        if r > 2**32:
            assert max(want) > 2**63  # counts past int64, not only intermediates
    r = 10**12
    assert H3.box_overlap(r, H3.identity) == H3.box_card(r)
    for g in [(r, -r // 3, r * r // 2), (-2 * r, r, 1), (1, 2 * r, -(r * r)), (7, -5, 3 * r * r), (-r // 7, r // 11, 2**70)]:
        assert H3.box_overlap(r, g) == H3.box_overlap(r, literal.inverse(H3, g)), g
    # a = 0: every x2 fibre has the same depth
    b, c = r // 2, r * r // 3
    assert H3.box_overlap(r, (0, b, c)) == (2 * r + 1) * (2 * r + 1 - b) * (2 * r * r + 1 - c)


# ---------------------------------------------------------------------------
# box overlaps of a whole block against a count one g at a time
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
    assert got.tolist() == [scalar_overlap(group, r, g) for g in gs]


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
        assert got.tolist() == [scalar_overlap(group, r, g) for g in gs], group
    # one step past the guard in r or in a coordinate: the same steps in Python ints
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
        assert got.dtype == object and got.tolist() == [scalar_overlap(group, r, g) for g in gs], (group, r)


def test_box_overlaps_are_exact_beyond_machine_integers():
    r = 10**30
    for group, gs in [
        (Z, [0, r, -2 * r, 2 * r + 1, 10**40]),
        (Z2, [(0, 0), (r, -r), (2**70, 1)]),
    ]:
        block = to_block(gs)
        assert from_block(block) == gs
        got = group.box_overlaps(r, block)
        assert got.dtype == object
        assert got.tolist() == [group.box_overlap(r, g) for g in gs]
        assert max(got) > 2**63  # the identity's overlap |B_r| does not fit in int64
    # H3 at this radius: the identity's overlap is |B_r|, and the rows past it are the fibre loop's
    gs = [(0, 0, 0), (1, 2 * r, -(r * r)), (r, -(2 * r - 1), r * r // 2), (7, 2 * r - 2, 3 * r * r)]
    got = H3.box_overlaps(r, to_block(gs))
    assert got.dtype == object
    assert got.tolist() == [H3.box_card(r)] + [scalar_overlap(H3, r, g) for g in gs[1:]]


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
def test_box_overlaps_of_a_radius_column_are_its_rows(group):
    # unsorted and repeated radii, 0 included, as a list, a tuple, a range and a numpy array
    rng = random.Random(11)
    gs = random_translations(group, 3, 120, rng) + [group.identity]
    block = to_block(gs)
    for radii in ([0, 3, 1, 3, 5, 2], (4,), range(6), np.array([2, 0, 1], dtype=np.int32)):
        got = group.box_overlaps(radii, block)
        assert got.dtype == np.int64 and got.shape == (len(radii), len(gs))
        for r, row in zip(radii, got):
            assert row.tolist() == group.box_overlaps(int(r), block).tolist(), (group, r)
            assert row.tolist() == [literal.box_overlap(group, int(r), g) for g in gs], (group, r)


def test_box_overlaps_of_a_radius_column_past_the_int64_route():
    reach = 2**12
    # the largest radius decides the route for the whole column, as its own proof does for one radius
    for group, radii, gs in [
        (H3, [1, reach], [(reach, -reach, reach * reach), (0, reach, 5), (3, -4, 11)]),
        (Z, [2, 2**61 - 1], [0, 2**62, 12345]),
    ]:
        got = group.box_overlaps(radii, to_block(gs))
        assert got.dtype == np.int64, group
        assert [row.tolist() for row in got] == [[scalar_overlap(group, r, g) for g in gs] for r in radii], group
    for group, radii, gs in [
        (H3, [3, reach + 1, 0], [(0, 0, 0), (1, 2, 3), (reach, -reach, 5)]),  # a radius past the reach
        (H3, [2, 3], [(reach + 1, 0, 0), (0, 1, 2)]),  # a coordinate past it
        # |b| within 2 of 2r: the fibre loop sums at most three x2 fibres
        (H3, [1, 10**12], [(0, 2 * 10**12 - 1, 0), (1, 2 * 10**12, -(10**24)), (-7, 2 - 2 * 10**12, 3)]),
        (Z, [3, 10**30], [0, 1, 10**40]),
        (Z2, [1, 2**31], [(0, 0), (1, -1), (2**31, 5)]),  # (2^32 + 1)^2 points: a box past 2^62
        (Z2, [2, 1], [(2**63, 0), (1, -1)]),  # a coordinate past int64
    ]:
        block = to_block(gs)
        got = group.box_overlaps(radii, block)
        assert got.dtype == object and got.shape == (len(radii), len(gs)), (group, radii)
        for r, row in zip(radii, got):
            assert row.tolist() == group.box_overlaps(r, block).tolist() == [scalar_overlap(group, r, g) for g in gs]


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
def test_box_overlaps_with_no_radius_or_no_translation(group):
    block = group.box_block(1)
    assert group.box_overlaps([], block).shape == (0, len(block))
    assert group.box_overlaps(np.array([], dtype=np.int64), block).shape == (0, len(block))
    empty = block[:0]
    assert group.box_overlaps([2, 0], empty).shape == (2, 0)
    assert group.box_overlaps(2, empty).shape == (0,)


BAD_RADII = [2.5, 2.0, True, False, -1, np.bool_(True), np.float64(1.0), "3", "", None, [1, -1], [1, 2.0], [True],
             np.array(3), np.array([[1, 2]]), np.array([1.0])]


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
@pytest.mark.parametrize("bad", BAD_RADII, ids=repr)
def test_box_overlaps_refuses_a_radius_that_is_no_integer_at_least_zero(group, bad):
    with pytest.raises(DomainError, match="box radius must be an integer >= 0"):
        group.box_overlaps(bad, group.box_block(1))


def test_box_overlaps_takes_numpy_integer_radii():
    block = H3.box_block(2)
    want = H3.box_overlaps(2, block)
    for r in (np.int64(2), np.int8(2), np.uint64(2)):
        assert H3.box_overlaps(r, block).tolist() == want.tolist()
        assert Z2.box_overlaps(r, Z2.box_block(2)).tolist() == Z2.box_overlaps(2, Z2.box_block(2)).tolist()
    # H3's box_overlap is one row of box_overlaps, so its radius is refused alike
    with pytest.raises(DomainError):
        H3.box_overlap(1.5, (0, 0, 0))


def brute_reach(group, gs):
    """The least r whose materialized box B_r holds every g."""
    return next(r for r in itertools.count() if set(gs) <= set(literal.box(group, r)))


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
def test_box_reach_equals_least_containing_box(group):
    rng = random.Random(len(group.name))
    pool = literal.box(group, 3)
    blocks = [[group.identity], [group.box_corner(2) or (2, -2, -4)]] + [rng.sample(pool, min(k, len(pool))) for k in (1, 2, 5, 30)]
    if group is H3:
        # central coordinates between squares, negative ones included: (0, 0, 5) needs r = 3
        blocks += [[(0, 0, 5)], [(0, 0, -5)], [(0, 0, 4)], [(0, 0, -9), (1, -1, 0)], [(0, 0, 10)], [(-3, 0, 1)]]
    else:
        blocks += [[-3 if group is Z else (0, -3)], [2, -3] if group is Z else [(2, 1), (-1, -3)]]
    for gs in blocks:
        block = to_block(gs)
        want = brute_reach(group, gs)
        assert int(group.box_reaches(block).max()) == want, gs
        assert int(group.box_reaches(np.array(gs, dtype=object)).max()) == want, gs  # the object route agrees
        # per row: the least r with g in B_r, whose max is the least r holding them all
        reaches = [brute_reach(group, [g]) for g in gs]
        assert group.box_reaches(block).tolist() == reaches and max(reaches) == want, gs
        assert group.box_reaches(np.array(gs, dtype=object)).tolist() == reaches, gs


def test_box_reach_is_exact_beyond_machine_integers():
    big = 2**70
    for group, gs, want in [
        (Z, [3, -big], big),
        (Z, [-(2**63)], 2**63),  # int64, where abs would wrap
        (Z2, [(0, 0), (big + 1, -5)], big + 1),
        (H3, [(0, 0, big + 1)], 2**35 + 1),  # big = (2^35)^2, so one more needs the next radius
        (H3, [(0, 0, -big), (1, 2, 3)], 2**35),
        (H3, [(-big, 0, 0)], big),
    ]:
        assert int(group.box_reaches(to_block(gs)).max()) == want, gs


def brute_reach_formula(group, g):
    """The least r with g in B_r, from the box's definition in Python integers."""
    if group is H3:
        a, b, c = g
        return max(abs(a), abs(b), next(r for r in itertools.count(math.isqrt(abs(c))) if r * r >= abs(c)))
    return max(abs(k) for k in (g if isinstance(g, tuple) else (g,)))


def test_box_reaches_are_exact_per_row_beyond_machine_integers():
    big = 2**70
    # central coordinates at, just below and just above squares near the int64 route's 2^62 edge
    squares = [(0, 0, sign * (r * r + d)) for r in (2**31 - 1, 2**31) for d in (-1, 0, 1) for sign in (1, -1)]
    for group, gs in [
        (Z, [3, -big, -(2**63), 0]),
        (Z2, [(0, 0), (big + 1, -5), (-(2**63), 2)]),
        (H3, [(0, 0, big + 1), (0, 0, -big), (1, 2, 3), (-big, 0, 0), (0, -(2**63), 1), (2**40, 2**40, 5)]),
        (H3, squares),
    ]:
        want = [brute_reach_formula(group, g) for g in gs]
        assert group.box_reaches(to_block(gs)).tolist() == want, gs
        assert int(group.box_reaches(to_block(gs)).max()) == max(want), gs


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


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
def test_check_elements_on_a_block_accepts_exactly_its_rows(group):
    elems = literal.prefix(group, 6)
    flat = np.array(elems, dtype=np.int64).reshape(len(elems), -1)
    blocks = [
        to_block(elems),
        to_block(elems + [2**70 if group is Z else (2**70,) * len(group.identity)]),  # an object block
        np.array(elems, dtype=np.int32),
        np.array(elems, dtype=float),
        np.array(elems, dtype=bool),
        np.hstack([flat, flat[:, :1]]),  # one coordinate too many
        flat[:, :-1] if flat.shape[1] > 1 else flat,  # one too few on Z^d and H3; (N, 1) on Z
        np.array(7, dtype=np.int64),
    ]
    for block in blocks:
        rows = from_block(block) if block.ndim else [block.item()]
        try:
            group.check_elements(rows)
        except GroupElementError as exc:
            with pytest.raises(GroupElementError, match=re.escape(str(exc))):
                group.check_elements(block)
        else:
            group.check_elements(block)


@pytest.mark.parametrize(
    "group, top",
    [(Z, 6), (group_by_name("Z^1"), 6), (Z2, 5), (Z3, 3), (H3, 3)],
    ids=lambda v: getattr(v, "name", None),
)
def test_box_block_is_box_elements_as_one_read_only_array(group, top):
    for r in range(top + 1):
        block = group.box_block(r)
        expected = to_block(literal.box(group, r))
        assert block.dtype == expected.dtype == np.int64 and block.shape == expected.shape
        assert np.array_equal(block, expected) and len(block) == group.box_card(r)
        assert not block.flags.writeable
        rows = from_block(block)
        assert rows == sorted(rows) and len(set(rows)) == len(rows)  # ascending canonical order, distinct


@pytest.mark.parametrize("group", [Z, Z2, Z3, H3], ids=lambda g: g.name)
def test_row_codes_are_equal_and_ordered_as_the_rows_are(group):
    rng = random.Random(11)
    k = 1 if group is Z else len(group.identity)
    for spread in (3, 2**40, 2**63, 2**70):  # int64 codes, then boxes of 2^62 points and more, then object rows
        def draw(size):
            rows = [tuple(rng.randint(-spread, spread) for _ in range(k)) for _ in range(size)]
            rows += [(-spread,) * k, (spread,) * k] + [tuple(rng.choice((-spread, spread, 0)) for _ in range(k))]
            return [row[0] for row in rows] if group is Z else rows
        a, b = draw(30), draw(20)
        codes = row_codes(to_block(a), to_block(b))
        pairs = list(zip(a + b, np.concatenate(codes).tolist()))
        for (x, cx), (y, cy) in itertools.product(pairs, repeat=2):
            assert (cx == cy) == (x == y) and (cx < cy) == (x < y)
        small = spread < 2**63 and (2 * spread + 1) ** k < 2**62  # int64 rows in a box of under 2^62 points
        assert all(c.dtype == (np.int64 if small else object) for c in codes), spread


# ---------------------------------------------------------------------------
# one lattice geometry: Z is the scalar Z^1, and a set filling its bounding box is that box
# ---------------------------------------------------------------------------

Z1 = group_by_name("Z^1")
SHIFTS = [0, 1, -1, 3, -4, 7, 2**62, -(2**62), 2**63 - 1, -(2**63)]  # int64's ends included


def as_z(group, rows):
    """Rows of Z^1 as Z's ints on Z, else as they are."""
    return [g for (g,) in rows] if group is Z else rows


def filled_sets(group):
    """Sets that fill their bounding box, as lists of canonical forms: off-centre boxes, one-row sets
    (a single point, and a strip one row high), and boxes at and past int64's ends (object rows)."""
    d = 1 if group is Z else group.dimension
    axes = [
        [range(3, 8), range(-2, 1), range(-9, -7)],
        [range(5, 6)] * 3,
        [range(-1, 2), range(4, 5), range(0, 2)],
        [range(4, 5), range(-3, 3), range(7, 8)],
        [range(2**70, 2**70 + 3), range(-(2**63), -(2**63) + 2), range(2**63 - 2, 2**63)],
        [range(-(2**63), -(2**63) + 3), range(2**63 - 2, 2**63), range(-1, 1)],
    ]
    return [as_z(group, list(itertools.product(*sides[:d]))) for sides in axes]


def translations(group, past_int64):
    """The identity, int64's ends and -2^63 in every coordinate, random small shifts, and with
    past_int64 coordinates of 2^70 too, so the block is an object array."""
    rng = random.Random(len(group.name) + past_int64)
    d = 1 if group is Z else group.dimension
    pool = SHIFTS + ([2**70, -(2**70)] if past_int64 else [])
    gs = [(c,) * d for c in pool] + [tuple(rng.choice(pool) for _ in range(d)) for _ in range(30)]
    gs += [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(30)]
    return as_z(group, list(dict.fromkeys(gs)))


@pytest.mark.parametrize("group", [Z, Z1, Z2, Z3], ids=lambda g: g.name)
def test_filled_overlaps_equal_the_literal_row_count(group):
    for rows in filled_sets(group):
        fam = ExplicitFamily(group, [rows])
        sorted_block, given = fam.block(1), to_block(rows[::-1])  # the formula reads no row order
        for past_int64 in (False, True):
            gs = translations(group, past_int64)
            block = to_block(gs)
            assert block.dtype == (object if past_int64 else np.int64)
            got = group.filled_overlaps(given, block)
            assert got.tolist() == group.filled_overlaps(sorted_block, block).tolist()
            assert got.tolist() == [_common_rows(sorted_block, group.translate_block(sorted_block, g)) for g in gs]
            if not past_int64:
                assert got.dtype == np.int64  # -2^63 included: |F| bounds every factor and product
            for g, shared in zip(gs, got.tolist()):
                assert shared == len(set(rows) & {literal.law(group, g, x) for x in rows}), g


def test_filled_overlaps_is_none_without_a_closed_form():
    holed = {
        Z: [[0, 2], [-3, -2, -1, 1, 2, 3], [2**70, 2**70 + 2], [-(2**63), 2**63 - 1]],
        Z1: [[(0,), (2,)], [(-(2**63),), (2**63 - 1,)]],
        Z2: [
            sorted({(x, 0) for x in range(4)} | {(0, y) for y in range(4)}),  # an L
            [g for g in literal.box(Z2, 2) if g != (2, 2)],  # a box less a corner
            [(0, 0), (5, 5)],
            [(-(2**63), 0), (2**63 - 1, 1)],
        ],
        Z3: [[g for g in literal.box(Z3, 1) if g != (0, 0, 0)], [(0, 0, 0), (1, 1, 1)]],
        H3: [
            literal.box(H3, 1),
            [H3.identity],
            list(itertools.product(range(2), range(3), range(-1, 1))),  # fills its coordinate box
            [(0, 0, 0), (5, 5, 5)],
        ],
    }
    for group, sets in holed.items():
        block = to_block([group.identity])
        for rows in sets:
            assert group.filled_overlaps(to_block(rows), block) is None, (group, rows)


def test_z_is_the_scalar_z1():
    assert isinstance(Z, LatticeGroup) and Z.dimension == 1 and Z != Z1 and Z.name == "Z"
    assert literal.prefix(Z, 120) == as_z(Z, literal.prefix(Z1, 120))
    gs = SHIFTS + [2**70, -(2**70)]
    ints, ones = to_block(gs), to_block([(g,) for g in gs])
    assert Z.box_reaches(ints).tolist() == Z1.box_reaches(ones).tolist()
    for g in gs:
        moved, moved1 = Z.translate_block(ints, g), Z1.translate_block(ones, (g,))
        assert moved.dtype == moved1.dtype and moved.tolist() == moved1.reshape(-1).tolist(), g
    for r in (0, 1, 4, 2**61 - 1, 2**61, 10**30):
        assert Z.box_card(r) == Z1.box_card(r)
        for block, block1 in ((ints, ones), (ints[:6], ones[:6])):  # object and int64 translations
            got, got1 = Z.box_overlaps(r, block), Z1.box_overlaps(r, block1)
            assert got.dtype == got1.dtype and got.tolist() == got1.tolist(), r
        assert [Z.box_overlap(r, g) for g in gs] == [Z1.box_overlap(r, (g,)) for g in gs]
        assert (Z.box_corner(r),) == Z1.box_corner(r)
        for eps in (Fraction(1, 10), Fraction(7, 100), Fraction(1, 2), Fraction(2), Fraction(5, 2)):
            assert Z.corner_floor(r, eps) == Z1.corner_floor(r, eps), (r, eps)
    for r in range(6):
        block = Z.box_block(r)
        assert block.shape == (2 * r + 1,) and not block.flags.writeable
        assert np.array_equal(block, Z1.box_block(r).reshape(-1))
