"""Folner family, ratio, modulus, greedy-construction and refinement tests.

Brute-force oracles here use nothing but frozensets and the group law, so the
closed-form routes and the row counts of explicit sets are checked against
literal set arithmetic.
"""

import itertools
import json
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    Branch,
    ConstructionBudgetError,
    ConvexityModulus,
    DomainError,
    ExplicitFamily,
    FamilyTooLargeError,
    GroupElementError,
    ModulusNotFoundError,
    RefinementWindowError,
    StructureError,
    average_block,
    build_modulus_table,
    check_fast,
    check_modulus,
    convergence_modulus,
    corollary_bound,
    envelope,
    family_from_jsonable,
    fast_refinement,
    folner_ratio,
    greedy_folner,
    group_by_name,
    least_index,
    lp_norm,
    max_chain,
    rotation_system,
    standard_family,
    torus_translation_system,
    verify_corollary,
    worst_ratio,
    worst_ratio_table,
)
from ergolab import folner
from ergolab.folner import ModulusEntry, ModulusTable, RefinedFamily, StandardBoxFamily
from ergolab.groups import IntegerGroup, LatticeGroup, from_block, to_block

Z = group_by_name("Z")
Z2 = group_by_name("Z^2")
Z3 = group_by_name("Z^3")
H3 = group_by_name("H3")


def brute_ratio(group, elems, g):
    """|F delta gF| / |F| straight from the definition."""
    s = frozenset(elems)
    gs = frozenset(group.multiply(g, x) for x in s)
    return Fraction(len(s ^ gs), len(s))


def closed_box_ratio(group, r, g):
    """|B_r delta gB_r| / |B_r| from the group's closed-form overlap count."""
    card = group.box_card(r)
    return Fraction(2 * (card - group.box_overlap(r, g)), card)


# ---------------------------------------------------------------------------
# standard families and ratios
# ---------------------------------------------------------------------------


def test_standard_family_cards():
    assert sorted(standard_family(Z, 5).elements(3)) == list(range(-3, 4))
    assert standard_family(Z, 5).card(3) == 7
    assert standard_family(Z2, 5).card(2) == 25
    assert standard_family(H3, 3).card(1) == 27


def test_ratio_identity_is_zero():
    for group in (Z, Z2, H3):
        fam = standard_family(group, 4)
        for n in range(1, 5):
            assert fam.ratio(n, group.identity) == 0
            assert folner_ratio(fam, n, group.identity) == 0


def test_ratio_z_example():
    fam = standard_family(Z, 10)
    assert folner_ratio(fam, 5, 2) == Fraction(4, 11)
    assert fam.ratio(5, 2) == Fraction(4, 11)


def test_ratio_z2_axis_example():
    fam = standard_family(Z2, 10)
    for m in range(1, 11):
        assert folner_ratio(fam, m, (1, 0)) == Fraction(2, 2 * m + 1)


@pytest.mark.parametrize("group", [Z, Z2], ids=lambda g: g.name)
def test_closed_form_equals_set_arithmetic(group):
    fam = standard_family(group, 8)
    rng = random.Random(2311)
    pool = group.enumerate_prefix(40)
    for m in range(1, 9):
        for g in rng.sample(pool, 12):
            expected = brute_ratio(group, fam.elements(m), g)
            assert fam.ratio(m, g) == expected
            assert folner_ratio(fam, m, g) == expected


def test_h3_overlap_formula_against_brute_force():
    fam = standard_family(H3, 3)
    rng = random.Random(7)
    pool = H3.enumerate_prefix(80)
    for r in (1, 2):
        for g in rng.sample(pool, 15):
            assert fam.ratio(r, g) == brute_ratio(H3, fam.elements(r), g)


def test_explicit_family_overlaps_match_sets():
    rng = random.Random(5)
    sets = [frozenset(rng.sample(range(-500, 500), 80)) for _ in range(3)]
    edge = 2**62 - 10  # near int64's end: shifts leave the int64 route
    sets += [
        frozenset(range(-3, 4)),  # interval, odd length
        frozenset(range(5, 15)),  # interval, even length
        frozenset({-4}),  # single point
        frozenset(range(-6, 7)) - {2},  # interval with one hole: counted per g
        frozenset(range(edge, edge + 9)),  # interval near int64's end
        frozenset(range(edge, edge + 9)) - {edge + 4},  # ... with a hole
        frozenset({2**70, -(2**63), 2**63 - 1, 0, 5}),  # past int64
    ]
    fam = ExplicitFamily(Z, sets)
    for n, s in enumerate(sets, start=1):
        k = len(s)
        shifts = {-7, 3, 250, 0, 1, k - 1, k, k + 5, 2**62, 3 * 2**62, 2**63 - 5, 2**70}
        gs = sorted(shifts | {-g for g in shifts})
        for g in gs:
            assert fam.ratio(n, g) == brute_ratio(Z, s, g)
        # the whole block at once: in closed form on an interval, else one g at a time
        for block in (gs, gs[3:-3], [-(2**63), 0, 2**63 - 1]):
            assert fam.overlaps(n, to_block(block)).tolist() == [len(s & {g + x for x in s}) for g in block]


@pytest.mark.parametrize("group", [Z2, Z3, H3], ids=lambda g: g.name)
def test_explicit_tuple_sets_match_sets(group):
    # boxes, random subsets, and sets with coordinates at and past int64's ends
    rng = random.Random(8)
    box = sorted(group.box_elements(2))
    big = [2**70, -(2**63), 2**63 - 1, 2**31, 0, 1]
    far = {tuple(rng.choice(big) for _ in group.identity) for _ in range(12)}
    # a bounding box of about 2^65 points, where int64 codes of (0, 0) and (0, 2^32) would meet
    k = len(group.identity)
    wide = {(0,) * k, (2**32 - 1,) + (0,) * (k - 1), (0, 2**32) + (0,) * (k - 2)}
    sets = [box, rng.sample(box, len(box) // 2), far, far | set(box[:9]), wide]
    fam = ExplicitFamily(group, sets)
    gs = box[::7] + sorted(far) + [tuple(-c for c in g) for g in far] + sorted(wide)
    for n, s in enumerate(sets, start=1):
        assert fam.overlaps(n, to_block(gs)).tolist() == [
            len(frozenset(s) & {group.multiply(g, x) for x in s}) for g in gs
        ]
        for g in gs:
            assert fam.ratio(n, g) == brute_ratio(group, s, g) == folner_ratio(fam, n, g)


def sweep_rows(group):
    """Distinct canonical forms of `group` whose coordinates reach past int64."""
    coords = st.one_of(st.integers(-50, 50), st.sampled_from([2**62, 2**63 - 1, -(2**63), 2**70, -(2**70)]))
    element = coords if group is Z else st.tuples(*[coords for _ in group.identity])
    return st.lists(element, min_size=1, max_size=20, unique=True)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_translations_and_overlaps_match_the_group_law(data):
    # 20 derandomised draws per group: every translated row against multiply, every overlap against sets
    for group in (Z, Z2, Z3, H3):
        rows, gs = data.draw(sweep_rows(group)), data.draw(sweep_rows(group))
        fam, s = ExplicitFamily(group, [rows]), frozenset(rows)
        for g in gs:
            assert from_block(group.translate_block(to_block(rows), g)) == [group.multiply(g, x) for x in rows]
        assert fam.overlaps(1, to_block(gs)).tolist() == [len(s & {group.multiply(g, x) for x in s}) for g in gs]


def test_empty_set_rejected():
    with pytest.raises(StructureError):
        ExplicitFamily(Z, [set()])


@pytest.mark.parametrize(
    "group, bad, message",
    [
        (Z, True, "Z element must be an int, got True"),
        (Z, 2.5, "Z element must be an int, got 2.5"),
        (Z2, (1, 2, 3), "Z^2 element must be a 2-tuple of ints, got (1, 2, 3)"),
        (Z2, (1, True), "Z^2 element must be a 2-tuple of ints, got (1, True)"),
        (H3, (1, 2), "H3 element must be a 3-tuple of ints, got (1, 2)"),
    ],
)
def test_explicit_sets_are_checked_in_one_pass_with_the_element_errors(group, bad, message, monkeypatch):
    good = [group.identity, group.enumerate_prefix(3)[-1]]
    with pytest.raises(GroupElementError) as info:
        ExplicitFamily(group, [good, good + [bad]])
    assert str(info.value) == message
    # a valid set is accepted without a per-element check
    calls = []
    monkeypatch.setattr(type(group), "check_element", lambda self, a: calls.append(a))
    ExplicitFamily(group, [good, group.enumerate_prefix(50)])
    assert calls == []


def test_box_elements_are_the_group_box(monkeypatch):
    monkeypatch.setattr(folner, "MATERIALIZE_CAP", 300)
    for group, top in ((Z, 149), (Z2, 8), (H3, 2)):
        fam = standard_family(group, top + 1)
        for n in list(range(1, top + 1)) + [1, top, 1]:
            assert fam.elements(n) == frozenset(group.box_elements(n))
            assert fam.block(n) is fam.block(n)  # the latest box is kept
        with pytest.raises(FamilyTooLargeError):
            fam.elements(top + 1)
        assert fam.elements(1) == frozenset(group.box_elements(1))


@pytest.mark.parametrize(
    "group, top",
    [(Z, 6), (group_by_name("Z^1"), 6), (Z2, 5), (Z3, 3), (H3, 3)],
    ids=lambda v: getattr(v, "name", None),
)
def test_box_blocks_are_refused_past_the_cap(group, top, monkeypatch):
    monkeypatch.setattr(folner, "MATERIALIZE_CAP", group.box_card(top))
    fam = standard_family(group, top + 1)
    for r in range(1, top + 1):
        assert np.array_equal(fam.block(r), group.box_block(r))
    with pytest.raises(FamilyTooLargeError, match=re.escape(f"box F_{top + 1} of {group.name} ")):
        fam.block(top + 1)


def _block_cases():
    rng = random.Random(5)
    edge = 2**63 - 2
    explicit_ints = ExplicitFamily(Z, [[3, -1, 3, 0], [5], rng.sample(range(-40, 40), 25) * 2])
    box = sorted(Z2.box_elements(3))
    explicit_tuples = ExplicitFamily(Z2, [[(1, 0), (0, 1), (1, 0), (-1, 5)], rng.sample(box, 20)])
    past_int64 = ExplicitFamily(Z, [[2**70, -(2**63), 0, edge, 2**70], [edge, edge + 1, edge + 3, -5]])
    tuples_past_int64 = ExplicitFamily(H3, [[(2**64, 0, 0), (0, 0, 0), (-1, 2**70, 3), (0, 0, 0)], [(1, 2, 3)]])
    return [
        (standard_family(Z, 5), 5),
        (standard_family(Z2, 4), 4),
        (standard_family(H3, 3), 3),
        (explicit_ints, 3),
        (explicit_tuples, 2),
        (past_int64, 2),
        (tuples_past_int64, 2),
        (greedy_folner(Z, 6), 6),
        (greedy_folner(Z2, 4), 4),
        (greedy_folner(H3, 3), 3),
        (RefinedFamily(standard_family(Z2, 9), [1, 4, 9]), 3),
        (RefinedFamily(explicit_tuples, [2]), 1),
    ]


BLOCK_IDS = [
    "box-Z", "box-Z^2", "box-H3", "explicit-Z", "explicit-Z^2", "past-int64", "H3-past-int64",
    "greedy-Z", "greedy-Z^2", "greedy-H3", "refined-box-Z^2", "refined-explicit",
]


@pytest.mark.parametrize("family, top", _block_cases(), ids=BLOCK_IDS)
def test_family_block_is_its_sorted_distinct_elements(family, top, request):
    for n in range(1, top + 1):
        block, expected = family.block(n), to_block(sorted(family.elements(n)))
        assert block.dtype == expected.dtype and block.shape == expected.shape and np.array_equal(block, expected)
        assert len(set(from_block(block))) == len(block) == family.card(n)
        assert not block.flags.writeable and family.block(n) is block
    assert (family.block(1).dtype == object) == request.node.callspec.id.endswith("past-int64")


def test_explicit_sets_from_int64_blocks_are_sorted_copies():
    given = to_block([(2, 1), (0, 0), (2, 1), (-1, 7)])
    fam = ExplicitFamily(Z2, [given])
    assert from_block(fam.block(1)) == [(-1, 7), (0, 0), (2, 1)]
    given[0] = (5, 5)  # the family keeps its own rows
    assert from_block(fam.block(1)) == [(-1, 7), (0, 0), (2, 1)]


@pytest.mark.parametrize(
    "group, given, bad",
    [
        (Z, [[1, True]], True),
        (Z, [[True, 1]], True),
        (Z2, [[(0, 1), (0, True)]], (0, True)),
        (Z2, [[(0, True), (0, 1)]], (0, True)),
        (H3, [[(1, 1, 1)], [(1, 1, 1), (1, 1, 1.0)]], (1, 1, 1.0)),
    ],
)
def test_explicit_elements_are_checked_as_given_before_duplicates_merge(group, given, bad):
    with pytest.raises(GroupElementError) as info:
        ExplicitFamily(group, given)
    group_text = {Z: "Z element must be an int", Z2: "Z^2 element must be a 2-tuple of ints"}
    assert str(info.value) == f"{group_text.get(group, 'H3 element must be a 3-tuple of ints')}, got {bad!r}"


def test_library_reads_no_frozenset(monkeypatch):
    def refuse(self, n):
        raise AssertionError("elements() read by library code")

    for cls in (folner.FolnerFamily, StandardBoxFamily, ExplicitFamily, RefinedFamily):
        monkeypatch.setattr(cls, "elements", refuse)
    greedy = greedy_folner(Z2, 4)
    assert greedy_folner(Z, 6).card(6) == 721
    explicit = ExplicitFamily(Z2, [greedy.block(n) for n in range(1, 4)] + [Z2.box_block(r) for r in (10, 40)])
    for family in (greedy, explicit, standard_family(H3, 4)):
        build_modulus_table(family, range(1, 3), [Fraction(3, 2)], m_max=4)
        check_fast(family, 1, Fraction(3, 2), 4)
        assert folner_ratio(family, 2, family.group.identity) == 0
        worst_ratio(family, 2, 1)
    assert fast_refinement(explicit, Fraction(1, 2)).indices == [1, 2, 3, 5]
    torus = torus_translation_system(4, 4)
    values = np.arange(16.0)
    for family in (standard_family(Z2, 3), explicit):
        rows = average_block(torus, family, [1, 3, 2], values)
        assert rows.shape == (3, 16)


def test_worst_ratio_witness_is_the_first_maximiser_in_ascending_order():
    # H3 boxes have no known corner, so their worst ratio takes the set route over B_n's block
    fam = standard_family(H3, 3)
    for m in (1, 2, 3):
        r, g = worst_ratio(fam, 1, m)
        maximisers = [h for h in sorted(fam.elements(1)) if fam.ratio(m, h) == r]
        assert g == maximisers[0] == (-1, -1, -1)
        # frozenset order would pick another one: the witness is pinned to the sorted order
        assert next(h for h in frozenset(H3.box_elements(1)) if fam.ratio(m, h) == r) != g
    report = check_fast(fam, 1, Fraction(1, 2), 3)
    assert report.violation == (1, 2, (-1, -1, -1), Fraction(14, 15))


def test_greedy_stage_past_the_cap_is_refused_before_a_larger_box_is_built():
    start = time.process_time()
    with pytest.raises(FamilyTooLargeError) as info:
        greedy_folner(H3, 5)  # stage 5 would need 22,096,855,323 elements
    assert time.process_time() - start < 2.0
    assert str(info.value) == (
        "greedy stage 5 needs a box past the materialization cap 2000000: no radius up to 22 gives a valid candidate"
    )


def test_greedy_stage_is_refused_when_the_largest_box_within_the_cap_is_not_valid(monkeypatch):
    monkeypatch.setattr(folner, "MATERIALIZE_CAP", 100)  # B_49 of Z is the largest box within it
    assert [greedy_folner(Z, 4).card(n) for n in range(1, 5)] == [1, 2, 7, 25]  # as without the cap
    searches = []
    real = folner.least_index

    def spy(pred, lo, hi=None):  # each stage's search is the one given an upper end
        if hi is not None:
            searches.append([])
        return real(pred if hi is None else lambda r: searches[-1].append(r) or pred(r), lo, hi)

    monkeypatch.setattr(folner, "least_index", spy)
    with pytest.raises(FamilyTooLargeError, match="greedy stage 5 .* cap 100: no radius up to 49 "):
        greedy_folner(Z, 5)  # stage 5 takes radius 60 without the cap
    assert len(searches) == 4 and searches[-1] == [0, 1, 2, 4, 8, 16, 32, 49]  # stage 5 stops at the cap
    # stage 4 takes 9 probes and stage 5 eight, where an unbounded search took 13
    with pytest.raises(FamilyTooLargeError):
        greedy_folner(Z, 5, search_budget=9)


# ---------------------------------------------------------------------------
# convergence moduli
# ---------------------------------------------------------------------------


def test_modulus_z_analytic_example():
    fam = standard_family(Z, 60)
    entry = convergence_modulus(fam, 5, Fraction(1, 10))
    assert entry.value == 50 and entry.kind == "analytic" and entry.certified_up_to is None


def test_modulus_small_examples():
    fam = standard_family(Z, 60)
    assert convergence_modulus(fam, 1, Fraction(1, 2)).value == 2
    # ratios are at most 2, so any tolerance above 2 certifies from the start
    assert convergence_modulus(fam, 1, Fraction(5, 2)).value == 1
    assert convergence_modulus(fam, 7, Fraction(5, 2)).value == 1


@pytest.mark.parametrize("eps", [Fraction(1, 10**25), Fraction(5, 10**324), Fraction(3, 7)])
def test_analytic_modulus_exists_for_every_positive_tolerance(eps):
    # the least m with 2*min(n, 2m+1)/(2m+1) < eps, for eps <= 2; far past any fixed search cap
    fam = standard_family(Z, 400)
    for n in (1, 9, 400):
        entry = convergence_modulus(fam, n, eps)
        assert entry.value == max(1, math.floor((2 * n - eps) / (2 * eps)) + 1)
        assert entry.kind == "analytic" and entry.certified_up_to is None


def oracle_modulus(group, r, eps):
    """The least m >= 1 whose box ratio at the corner of B_r is < eps, one Fraction per probe."""
    corner = group.box_corner(r)
    return least_index(lambda m: closed_box_ratio(group, m, corner) < eps, 1)


def nudged(eta: float) -> Fraction:
    """A modulus tolerance built from a float as the verifiers build one (norm 1)."""
    return Branch("norm<=1", 1.0, 1.0, eta).tolerance


radii = st.one_of(st.integers(1, 60), st.integers(1, 10**30))
box_groups = st.sampled_from([Z, Z2, Z3])


@st.composite
def radius_and_tolerance(draw):
    """(r, eps): nudged floats, exact ties with a corner ratio on Z, 2 and above, plain rationals."""
    r = draw(radii)
    kind = draw(st.sampled_from(["float", "tie", "two", "above", "rational"]))
    if kind == "float":
        eps = nudged(draw(st.floats(min_value=1e-12, max_value=12.0)))
    elif kind == "tie":
        # eps = 2r/(2m+1), the Z corner ratio at m once 2m+1 >= r; past 2 when 2m+1 < r
        eps = Fraction(2 * r, 2 * draw(st.one_of(st.integers(1, 100), st.integers(1, 10**32))) + 1)
    elif kind == "two":
        eps = Fraction(2)
    elif kind == "above":
        eps = 2 + Fraction(draw(st.integers(1, 10**20)), draw(st.integers(1, 10**20)))
    else:
        eps = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**9)))
    return r, eps


@settings(max_examples=400, deadline=None)
@given(group=box_groups, case=radius_and_tolerance())
def test_analytic_modulus_equals_the_box_ratio_search(group, case):
    r, eps = case
    entry = convergence_modulus(standard_family(group, 10**30), r, eps)
    assert entry.kind == "analytic" and entry.value == oracle_modulus(group, r, eps)
    floor = group.corner_floor(r, eps)
    assert floor <= entry.value
    if group is Z:
        assert floor == entry.value


@pytest.mark.parametrize("group", [Z, Z2, Z3], ids=lambda g: g.name)
def test_analytic_modulus_at_exact_ties_two_and_above(group):
    for r in (1, 2, 7, 10**30):
        for eps in [Fraction(2 * r, 2 * m + 1) for m in (1, 2, r, 3 * r, 10**12)] + [
            Fraction(2), Fraction(5, 2), Fraction(2 * 10**40 + 1, 10**40), nudged(6.0), nudged(0.05),
        ]:
            value = convergence_modulus(standard_family(group, 10**30), r, eps).value
            assert value == oracle_modulus(group, r, eps)
            assert group.corner_floor(r, eps) <= value
            if eps > 2:
                assert value == 1  # every ratio is at most 2
            if eps == 2:
                assert value == max(1, (r + 1) // 2)  # the ratio is 2 until B_m meets its translate
    # the tie is not below its tolerance, so on Z the answer is the next radius
    assert convergence_modulus(standard_family(Z, 100), 5, Fraction(10, 21)).value == 11


def test_an_analytic_z_entry_makes_one_overlap_probe_and_no_fraction(monkeypatch):
    probes = []
    overlap = IntegerGroup.box_overlap
    monkeypatch.setattr(IntegerGroup, "box_overlap", lambda self, r, g: probes.append(r) or overlap(self, r, g))

    def no_fraction_per_probe(*args):
        raise AssertionError("a Fraction ratio taken in the analytic search")

    monkeypatch.setattr(StandardBoxFamily, "ratio", no_fraction_per_probe)
    fam = standard_family(Z, 10**30)
    for n, eps in ((1, Fraction(1, 2)), (400, nudged(0.05)), (5, Fraction(10, 21)), (7, Fraction(5, 2)),
                   (7, Fraction(2)), (10**30, Fraction(1, 10**25)), (9, Fraction(5, 10**324))):
        probes.clear()
        convergence_modulus(fam, n, eps)
        assert len(probes) == 1, (n, eps, probes)


def test_modulus_empirical_matches_analytic_on_boxes():
    boxes = standard_family(Z, 60)
    explicit = ExplicitFamily(Z, [boxes.elements(n) for n in range(1, 61)])
    for n, eps in [(5, Fraction(1, 10)), (1, Fraction(1, 2)), (3, Fraction(1, 4))]:
        analytic = convergence_modulus(boxes, n, eps)
        empirical = convergence_modulus(explicit, n, eps, m_max=60)
        assert empirical.value == analytic.value
        assert empirical.kind == "empirical" and empirical.certified_up_to == 60


def test_modulus_not_found_carries_data():
    fam = ExplicitFamily(Z, [set(range(-n, n + 1)) for n in range(1, 6)])
    with pytest.raises(ModulusNotFoundError) as err:
        convergence_modulus(fam, 4, Fraction(1, 100), m_max=5)
    assert err.value.n == 4 and err.value.m_max == 5
    assert err.value.worst_by_m[5] >= Fraction(1, 100)


def test_modulus_h3_empirical_and_reverified():
    fam = standard_family(H3, 12)
    entry = convergence_modulus(fam, 1, Fraction(1, 2), m_max=12)
    assert entry.kind == "empirical" and entry.certified_up_to == 12
    # independent re-verification by literal set arithmetic over the window
    for m in range(entry.value, 13):
        for g in fam.elements(1):
            assert folner_ratio(fam, m, g) < Fraction(1, 2)
    if entry.value > 1:
        assert any(
            folner_ratio(fam, entry.value - 1, g) >= Fraction(1, 2) for g in fam.elements(1)
        )


def test_modulus_entries_reverify():
    fam = standard_family(Z, 60)
    for n in (1, 3, 5):
        for eps in (Fraction(1, 4), Fraction(1, 7)):
            entry = convergence_modulus(fam, n, eps)
            assert check_modulus(fam, n, eps, entry.value, 60)
            if entry.value > 1:
                # minimality: the window check must fail one step earlier
                assert not check_modulus(fam, n, eps, entry.value - 1, 60)


def test_envelope_running_max_and_idempotence():
    eps = Fraction(1, 3)
    entries = [
        ModulusEntry(n=i + 1, epsilon=eps, value=v, kind="empirical", certified_up_to=9)
        for i, v in enumerate([3, 2, 5])
    ]
    table = ModulusTable("Z", "explicit", entries)
    env = envelope(table)
    assert [env.value(n, eps) for n in (1, 2, 3)] == [3, 3, 5]
    env2 = envelope(env)
    assert [env2.value(n, eps) for n in (1, 2, 3)] == [3, 3, 5]
    single = envelope(ModulusTable("Z", "explicit", entries[:1]))
    assert single.value(1, eps) == 3


def test_envelope_missing_entries_raise():
    eps = Fraction(1, 3)
    table = ModulusTable(
        "Z", "explicit", [ModulusEntry(n=2, epsilon=eps, value=4, kind="empirical", certified_up_to=9)]
    )
    with pytest.raises(StructureError):
        envelope(table)


def test_modulus_table_roundtrip():
    fam = standard_family(Z, 30)
    table = build_modulus_table(fam, range(1, 6), [Fraction(1, 4), Fraction(1, 9)])
    back = ModulusTable.from_jsonable(json.loads(json.dumps(table.to_jsonable())))
    assert back.entries.keys() == table.entries.keys()
    for key, entry in table.entries.items():
        assert back.entries[key] == entry


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------


def test_greedy_seed_and_second_stage():
    fam = greedy_folner(Z, 2)
    assert fam.elements(1) == frozenset({0})
    assert fam.elements(2) == frozenset({0, 1})
    assert fam.provenance == "greedy-constructed"


def test_greedy_guarantee_small_window():
    fam = greedy_folner(Z, 6)
    for n in range(2, 7):
        bound = Fraction(3, n)
        for g in fam.elements(n - 1):
            assert fam.ratio(n, g) < bound


def test_greedy_is_nested_and_contains_enumeration():
    fam = greedy_folner(Z, 6)
    enum = Z.enumerate_prefix(6)
    for n in range(1, 6):
        assert fam.elements(n) <= fam.elements(n + 1)
        assert enum[n - 1] in fam.elements(n)


def test_greedy_draws_each_enumerated_element_when_its_stage_is_built(monkeypatch):
    drawn, first_six = [], Z.enumerate_prefix(6)
    enumerate_all = Z.enumeration
    monkeypatch.setattr(Z, "enumeration", lambda: (drawn.append(g) or g for g in enumerate_all()))
    assert greedy_folner(Z, 6).n_max == 6 and drawn == first_six
    drawn.clear()
    # stage 3 exhausts a budget of 1, so no g past g_2 is drawn: 10**6 is not enumerated up front
    with pytest.raises(ConstructionBudgetError):
        greedy_folner(Z, 10**6, search_budget=1)
    assert drawn == [0, 1]


def test_greedy_budget_exhaustion():
    with pytest.raises(ConstructionBudgetError) as err:
        greedy_folner(Z, 6, search_budget=2)
    assert err.value.budget == 2
    assert err.value.stage >= 2


@pytest.mark.parametrize(
    "group, n_max, cards",
    [
        (Z, 8, [1, 2, 7, 25, 121, 721, 5041, 40321]),
        (Z2, 4, [1, 2, 49, 2209]),
        (H3, 3, [1, 2, 225]),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_greedy_stage_cardinalities_are_pinned(group, n_max, cards):
    # a different least radius would still give a valid family, with other cardinalities
    fam = greedy_folner(group, n_max)
    assert [fam.card(n) for n in range(1, n_max + 1)] == cards


def scalar_greedy(group, n_max, search_budget=10_000):
    """The greedy construction with every candidate tested one g at a time: the reference
    for `greedy_folner`'s blocks.  The reach is a `least_index` search over coordinate
    containment, and each g of F_{n-1} is decided alone: by the scalar `box_overlap` on a
    box, and on a set by a one-row `overlaps` block (the rows shared with `translate_block`
    on every set with no closed form), g in ascending canonical order, the order of F_{n-1}'s
    block; the probes, and so the budget count, are `greedy_folner`'s.
    """

    def contains(r, g):
        if group is H3:
            return abs(g[0]) <= r and abs(g[1]) <= r and abs(g[2]) <= r * r
        return all(abs(c) <= r for c in (g if isinstance(g, tuple) else (g,)))

    enum = group.enumerate_prefix(n_max)
    sets = [frozenset([enum[0]])]
    for stage in range(2, n_max + 1):
        prev = sets[-1]
        reach = least_index(lambda r: all(contains(r, g) for g in prev), 0)
        evals = itertools.count(1)

        def valid(r):
            if next(evals) > search_budget:
                raise ConstructionBudgetError(stage, search_budget)
            if r and r >= reach:
                card, overlap_of = group.box_card(r), lambda g: group.box_overlap(r, g)
            else:
                s = prev | frozenset(group.box_elements(r)) if r else prev
                if r and s == prev:
                    return False  # the r = 0 candidate, probed first and refuted
                one = ExplicitFamily(group, [s])
                card, overlap_of = len(s), lambda g: int(one.overlaps(1, to_block([g]))[0])
            return all(stage * 2 * (card - overlap_of(g)) < card for g in sorted(prev))

        radius = least_index(valid, 0)
        chosen = prev | frozenset(group.box_elements(radius)) if radius else prev
        sets.append(chosen | {enum[stage - 1]})
    return sets


@pytest.mark.parametrize(
    "group, n_max, least_budget", [(Z, 8, 31), (Z2, 4, 11), (H3, 3, 3)], ids=lambda v: getattr(v, "name", None)
)
def test_greedy_blocks_match_the_per_g_construction(group, n_max, least_budget):
    fam = greedy_folner(group, n_max)
    assert [fam.elements(n) for n in range(1, n_max + 1)] == scalar_greedy(group, n_max)
    # the same probes: every smaller budget runs out at the same stage, and the least one that suffices is pinned
    for budget in range(1, least_budget):
        with pytest.raises(ConstructionBudgetError) as got:
            greedy_folner(group, n_max, search_budget=budget)
        with pytest.raises(ConstructionBudgetError) as want:
            scalar_greedy(group, n_max, search_budget=budget)
        assert got.value.stage == want.value.stage, budget
    assert greedy_folner(group, n_max, search_budget=least_budget).to_jsonable() == fam.to_jsonable()


@pytest.mark.parametrize("group, n_max", [(Z2, 4), (H3, 3)], ids=lambda v: getattr(v, "name", None))
def test_greedy_refutes_a_set_candidate_at_its_first_failing_g(group, n_max, monkeypatch):
    # sets with no closed form are counted one g at a time; the count stops where the reference's
    # all() stops, reading F_{n-1} in ascending canonical order.  Every Z^2 candidate through stage 4
    # fills its bounding box, so its overlaps are one product formula and nothing is translated
    seen = []
    cls = type(group)
    real = cls.translate_block
    monkeypatch.setattr(cls, "translate_block", lambda self, block, g: seen.append(g) or real(self, block, g))
    greedy_folner(group, n_max)
    blocks, seen[:] = list(seen), []
    scalar_greedy(group, n_max)
    assert blocks == seen and len(seen) == {"Z^2": 0, "H3": 3}[group.name]


def test_a_lattice_set_with_no_closed_form_stops_at_its_first_refuting_g(monkeypatch):
    # an L of 7 points does not fill its 4 x 4 bounding box: counted g by g, up to the first
    # overlap at or under the floor, (1, 0)'s 3, so (5, 5) and (0, 1) are never translated
    rows = to_block(sorted({(x, 0) for x in range(4)} | {(0, y) for y in range(4)}))
    gs = [(0, 0), (1, 0), (5, 5), (0, 1)]
    assert Z2.filled_overlaps(rows, to_block(gs)) is None
    seen = []
    real = LatticeGroup.translate_block
    monkeypatch.setattr(LatticeGroup, "translate_block", lambda self, block, g: seen.append(g) or real(self, block, g))
    assert folner._set_overlaps(Z2, rows, to_block(gs), 3).tolist() == [7, 3]
    assert seen == gs[:2]
    assert folner._set_overlaps(Z2, rows, to_block(gs)).tolist() == [7, 3, 0, 3]  # no floor: every g


def test_greedy_z2_last_box_is_counted_by_the_product_formula(monkeypatch):
    # F_5 of the Z^2 greedy family is exactly B_224: the overlaps against it are one closed form,
    # with no set translated, where each of F_4's 2,209 rows was once translated and counted alone
    fam = greedy_folner(Z2, 5)
    assert np.array_equal(fam.block(5), Z2.box_block(224))
    seen = []
    real = LatticeGroup.translate_block
    monkeypatch.setattr(LatticeGroup, "translate_block", lambda self, block, g: seen.append(g) or real(self, block, g))
    assert fam.overlaps(5, fam.block(4)).tolist() == Z2.box_overlaps(224, fam.block(4)).tolist()
    assert seen == []
    table = build_modulus_table(fam, range(1, 5), [Fraction(1, 2)], m_max=5)
    assert [table.value(n, Fraction(1, 2)) for n in range(1, 5)] == [1, 3, 4, 5]


def test_greedy_z2_small():
    fam = greedy_folner(Z2, 4)
    for n in range(2, 5):
        bound = Fraction(3, n)
        for g in fam.elements(n - 1):
            assert fam.ratio(n, g) < bound


# ---------------------------------------------------------------------------
# fast refinement and fastness checks
# ---------------------------------------------------------------------------


def test_refinement_first_steps_z_boxes():
    refined = fast_refinement(standard_family(Z, 100), Fraction(1, 2))
    assert refined.indices[0] == 1
    assert refined.indices[1] == 2  # least m with 2/(2m+1) < 1/2
    assert refined.provenance == "refined"


def test_refinement_matches_generic_scan():
    # the closed-form jump on boxes must agree with a literal scan on the
    # same sets stored explicitly
    boxes = standard_family(Z, 200)
    explicit = ExplicitFamily(Z, [boxes.elements(n) for n in range(1, 201)])
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 1)):
        a = fast_refinement(boxes, eps, count=5)
        b = fast_refinement(explicit, eps, count=5)
        assert a.indices == b.indices


def test_refinement_trivial_when_eps_large():
    refined = fast_refinement(standard_family(Z, 12), Fraction(5, 2))
    assert refined.indices == list(range(1, 13))
    refined2 = fast_refinement(standard_family(Z, 12), Fraction(2, 1))
    assert refined2.indices == list(range(1, 13))


def test_refinement_window_exhausted():
    with pytest.raises(RefinementWindowError) as err:
        fast_refinement(standard_family(Z, 10), Fraction(1, 5), count=6)
    assert err.value.requested == 6
    assert err.value.found[0] == 1


def test_box_refinement_of_z_starts_at_the_corner_floor(monkeypatch):
    probes = []
    overlap = IntegerGroup.box_overlap
    monkeypatch.setattr(IntegerGroup, "box_overlap", lambda self, r, g: probes.append(r) or overlap(self, r, g))
    refined = fast_refinement(standard_family(Z, 10**30), Fraction(1, 1000), count=8)
    assert refined.indices == [10 ** (3 * j) for j in range(8)]
    assert len(probes) == 7  # the floor is the least index on Z: one probe per step


STEP_TOLERANCES = [Fraction(1, 10), Fraction(7, 100), Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 2)]


@pytest.mark.parametrize("n_max", [60, 10**30])
@pytest.mark.parametrize("group", [Z, Z2, Z3], ids=lambda g: g.name)
def test_box_refinement_steps_by_the_analytic_modulus(group, n_max):
    # n_{j+1} = max(n_j + 1, beta(n_j, eps)) of the standard boxes, while that index is a source index
    boxes = standard_family(group, 10**30)
    for eps in STEP_TOLERANCES:
        count = None if n_max < 10**6 else 7
        indices = fast_refinement(standard_family(group, n_max), eps, count=count).indices
        steps = [max(n + 1, convergence_modulus(boxes, n, eps).value) for n in indices]
        assert indices[1:] == steps[:-1], eps
        assert count is not None or steps[-1] > n_max, eps  # refined until the source ended


@pytest.mark.parametrize("group", [Z, Z2, Z3], ids=lambda g: g.name)
def test_refined_box_refinement_steps_to_the_least_radius_reaching_the_modulus(group):
    boxes = standard_family(group, 10**30)
    source = RefinedFamily(standard_family(group, 3000), [r * r for r in range(1, 55)])  # radii 1, 4, 9, ...
    for eps in STEP_TOLERANCES:
        indices = fast_refinement(source, eps).indices
        for j, n in enumerate(indices):
            beta = convergence_modulus(boxes, source.box_radius(n), eps).value
            later = [m for m in range(n + 1, source.n_max + 1) if source.box_radius(m) >= beta]
            assert indices[j + 1 : j + 2] == later[:1], (eps, n)


@pytest.mark.parametrize(
    "group_name, eps, indices",
    [
        ("Z", "1/10", [1, 10, 100, 1000, 10000, 100000, 1000000, 10000000]),
        ("Z", "7/100", [1, 14, 200, 2857, 40814, 583057, 8329386, 118991229]),
        ("Z", "3/2", [1, 2, 3, 4, 5, 6, 7, 8]),
        ("Z^2", "1/3", [1, 6, 34, 195, 1119, 6422, 36853, 211485]),
        ("Z^2", "7/100", [1, 28, 793, 22457, 635964, 18009993, 510028629, 14443603736]),
        ("Z^2", "3/2", [1, 2, 3, 4, 5, 6, 7, 8]),
    ],
)
def test_box_refinement_indices_on_z_and_z2(group_name, eps, indices):
    # the indices a search from last + 1 finds: starting at the corner floor skips no answer
    refined = fast_refinement(standard_family(group_by_name(group_name), 10**30), Fraction(eps), count=8)
    assert refined.indices == indices


def test_refined_passes_check_fast():
    for eps in (Fraction(1, 2), Fraction(1, 5)):
        refined = fast_refinement(standard_family(Z, 10**6), eps, count=7)
        report = check_fast(refined, 1, eps, 7)
        assert report.ok, report.violation


def test_check_fast_box_failure():
    report = check_fast(standard_family(Z, 20), 1, Fraction(1, 10), 20)
    assert not report.ok
    n, m, g, ratio = report.violation
    assert ratio >= Fraction(1, 10)
    # the reported witness must be a real violation of the definition
    assert standard_family(Z, 20).ratio(m, g) == ratio and m >= n + 1


def test_check_fast_trivial_eps():
    assert check_fast(standard_family(Z, 20), 1, Fraction(5, 2), 20).ok


@pytest.mark.parametrize("eps", [0, -1, "0/5", Fraction(-1, 3)])
def test_checks_refuse_a_nonpositive_tolerance(eps):
    fam = standard_family(Z, 10)
    with pytest.raises(DomainError, match="tolerance must be positive"):
        check_fast(fam, 1, eps, 5)
    with pytest.raises(DomainError, match="tolerance must be positive"):
        check_modulus(fam, 1, eps, 2, 5)


def test_folner_ratio_never_uses_the_family_ratio(monkeypatch):
    sets = [{0}, {-1, 0, 1, 2}, {-3, -1, 0, 2, 5}, set(range(-4, 5))]
    fam = ExplicitFamily(Z, sets)

    def refuse(self, n, g):
        raise AssertionError("folner_ratio took the family's own ratio route")

    monkeypatch.setattr(ExplicitFamily, "ratio", refuse)
    for n, s in enumerate(sets, start=1):
        for g in range(-10, 11):
            assert folner_ratio(fam, n, g) == brute_ratio(Z, s, g)


def test_check_fast_matches_explicit_route():
    boxes = standard_family(Z, 15)
    explicit = ExplicitFamily(Z, [boxes.elements(n) for n in range(1, 16)])
    for lam in (1, 3):
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 2)):
            a = check_fast(boxes, lam, eps, 15)
            b = check_fast(explicit, lam, eps, 15)
            assert a.ok == b.ok
            if not a.ok:
                assert a.violation[:2] == b.violation[:2]  # same first (n, m) pair


# ---------------------------------------------------------------------------
# helpers and serialization
# ---------------------------------------------------------------------------


def test_least_index_matches_a_scan():
    rng = random.Random(17)
    for _ in range(400):
        lo = rng.randrange(0, 50)
        hi = lo + rng.choice([0, 1, 2, rng.randrange(0, 200)])
        turn = rng.randrange(lo, hi + 3)  # past hi: never true inside [lo, hi]
        probed = []

        def pred(i):
            assert lo <= i <= hi
            probed.append(i)
            return i >= turn

        expected = next((i for i in range(lo, hi + 1) if pred(i)), None)
        probed.clear()
        assert least_index(pred, lo, hi) == expected
        assert len(probed) <= 2 * (hi - lo + 1).bit_length() + 2
    for lo, hi in ((7, 7), (0, 0), (3, 1000)):
        assert least_index(lambda i: False, lo, hi) is None
        assert least_index(lambda i: True, lo, hi) == lo
    assert least_index(lambda i: True, 5, 4) is None
    # no upper end: the same probes, for as long as pred stays false
    probed = []
    assert least_index(lambda i: probed.append(i) or i >= 5, 0) == 5
    assert probed == [0, 1, 2, 4, 8, 6, 5]
    assert least_index(lambda i: i >= 10**40, 3) == 10**40
    # lo, then doubling, then bisection between the last false and first true probe
    probed = []
    assert least_index(lambda i: probed.append(i) or i >= 5, 0, 100) == 5
    assert probed == [0, 1, 2, 4, 8, 6, 5]


class CornerlessLattice(LatticeGroup):
    """Z^d with no known box corner, so its boxes take the set route."""

    def box_corner(self, r):
        return None


def _worst_ratio_cases():
    rng = random.Random(3)
    non_nested = ExplicitFamily(Z, [rng.sample(range(-30, 30), k) for k in (3, 9, 5, 12)])
    tuples = ExplicitFamily(Z2, [rng.sample(sorted(Z2.box_elements(3)), k) for k in (2, 7, 4)])
    edge = 2**62 - 10  # translations shift past int64
    huge = ExplicitFamily(Z, [{edge, -3}, {edge, edge + 2, 0, 5}, {2**70, 1, -(2**64), 9}])
    return [
        (standard_family(Z, 6), 6),
        (standard_family(Z2, 4), 4),
        (standard_family(H3, 2), 2),
        (RefinedFamily(standard_family(Z2, 40), [1, 3, 7]), 3),  # corner route
        (standard_family(CornerlessLattice(2), 4), 4),  # Z^2 boxes on the set route
        (greedy_folner(Z, 5), 5),
        (non_nested, 4),
        (tuples, 3),
        (huge, 3),
    ]


WORST_RATIO_IDS = [
    "Z", "Z^2", "H3", "refined-Z^2", "Z^2-no-corner", "greedy-Z", "non-nested", "explicit-Z^2", "past-int64"
]


@pytest.mark.parametrize("family, top", _worst_ratio_cases(), ids=WORST_RATIO_IDS)
def test_worst_ratio_equals_set_arithmetic(family, top):
    group = family.group
    for n in range(1, top + 1):
        for m in range(1, top + 1):
            target = family.elements(m)
            ratios = {g: brute_ratio(group, target, g) for g in family.elements(n)}
            worst = max(ratios.values())
            r, g = worst_ratio(family, n, m)
            assert r == worst and brute_ratio(group, target, g) == r
            some = sorted(family.elements(n), key=str)[::2]
            assert worst_ratio(family, n, m, over=some)[0] == max(ratios[g] for g in some)
    assert worst_ratio(family, 1, 1, over=[]) == (0, None)


def per_translation_worst(family, m, over):
    """The worst ratio by one `family.ratio` per translation, and its first maximiser in the order given."""
    worst, arg = Fraction(0), None
    for g in over:
        r = family.ratio(m, g)
        if arg is None or r > worst:
            worst, arg = r, g
    return worst, arg


def per_translation_violation(family, lam, eps, window):
    """The first (n, m) whose worst ratio reaches eps, with that ratio's first maximiser in F_n's order."""
    for n in range(1, window + 1):
        for m in range(n + lam, window + 1):
            r, g = per_translation_worst(family, m, sorted(family.elements(n)))
            if r >= eps:
                return (n, m, g, r)
    return None


@pytest.mark.parametrize(
    "family, top",
    _worst_ratio_cases() + [(standard_family(H3, 3), 3)],
    ids=WORST_RATIO_IDS + ["H3-to-3"],
)
def test_worst_ratio_is_the_per_translation_loop(family, top):
    # value and witness, down to the witness's type: a canonical form, never a numpy scalar
    set_route = folner._corner(family, 1) is None
    for n in range(1, top + 1):
        for m in range(1, top + 1):
            expected = per_translation_worst(family, m, sorted(family.elements(n)))
            got = worst_ratio(family, n, m)
            assert (repr(got) == repr(expected)) if set_route else got[0] == expected[0]
        for eps in (Fraction(1, 2), Fraction(1, 5), nudged(0.7)):
            for claimed in range(1, top + 1):
                want = all(per_translation_worst(family, m, family.elements(n))[0] < eps
                           for m in range(claimed, top + 1))
                assert check_modulus(family, n, eps, claimed, top) == want
    for lam in (1, 2):
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(6, 5), Fraction(5, 2)):
            report = check_fast(family, lam, eps, top)
            want = per_translation_violation(family, lam, eps, top)
            assert report.ok == (want is None)
            if want is not None:
                got = report.violation
                if not set_route:  # the witness is the corner, which need not be F_n's first maximiser
                    got, want = got[:2] + got[3:], want[:2] + want[3:]
                assert repr(got) == repr(want)


@pytest.mark.parametrize("family, top", _worst_ratio_cases(), ids=WORST_RATIO_IDS)
def test_check_fast_reports_the_worst_ratio_at_its_first_violation(family, top):
    violations = 0
    for lam in (1, 2):
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(6, 5)):
            report = check_fast(family, lam, eps, top)
            if not report.ok:
                n, m, g, r = report.violation
                assert r == worst_ratio(family, n, m)[0] >= eps
                assert brute_ratio(family.group, family.elements(m), g) == r
                violations += 1
    assert violations


@pytest.mark.parametrize(
    "family, bad",
    [
        (standard_family(Z, 5), True),
        (standard_family(H3, 2), (1, 2)),
        (ExplicitFamily(Z, [{0}, {-1, 0, 3}]), 1.5),
        (ExplicitFamily(Z2, [{(0, 0)}, {(0, 0), (1, 2)}]), (1, 2, 3)),
        (RefinedFamily(standard_family(Z2, 9), [1, 4, 9]), [1, 2]),
        (RefinedFamily(standard_family(Z, 9), [2, 5]), "3"),
    ],
    ids=["box-Z", "box-H3", "explicit-Z", "explicit-Z^2", "refined-Z^2", "refined-Z"],
)
def test_worst_ratio_validates_every_given_translation(family, bad):
    good = family.group.identity
    for over in ([bad], [good, bad], [bad, good]):
        with pytest.raises(GroupElementError):
            worst_ratio(family, 1, 2, over=over)
        with pytest.raises(GroupElementError):
            per_translation_worst(family, 2, over)  # as the per-translation route does


def test_worst_ratio_table_matches_direct_loops():
    fam = greedy_folner(Z, 5)
    table = worst_ratio_table(fam, 4, 5)
    for n in range(1, 5):
        for m in range(1, 6):
            direct = max(fam.ratio(m, g) for g in fam.elements(n))
            assert table[(n, m)] == direct


def test_worst_ratio_table_keeps_the_worst_of_earlier_shells():
    # the worst translation of F_3 is -20, which entered at F_1
    fam = ExplicitFamily(Z, [{-20}, {-20, 0}, {-20, 0, 1}, range(-25, 26)])
    table = worst_ratio_table(fam, 3, 4)
    for n in range(1, 4):
        for m in range(1, 5):
            assert table[(n, m)] == max(brute_ratio(Z, fam.elements(m), g) for g in fam.elements(n))
    assert table[(3, 4)] == Fraction(40, 51)


def test_groups_without_a_box_corner_take_the_set_route(monkeypatch):
    # the box corner is the one decision: without it, Z^2 boxes are plain sets
    monkeypatch.setattr(LatticeGroup, "box_corner", lambda self, r: None)
    fam = standard_family(Z2, 5)
    for n, m in ((1, 1), (2, 4), (3, 2)):
        ratio, g = worst_ratio(fam, n, m)
        assert ratio == max(brute_ratio(Z2, fam.elements(m), h) for h in fam.elements(n))
        assert brute_ratio(Z2, fam.elements(m), g) == ratio
    entry = convergence_modulus(fam, 1, Fraction(1, 2), m_max=5)
    assert entry.kind == "empirical" and entry.certified_up_to == 5 and entry.value == 4
    assert fast_refinement(fam, Fraction(1, 2), count=2).indices == [1, 4]


@pytest.mark.parametrize(
    "group, indices", [(Z, [1, 2, 4, 7, 11, 16, 22, 29, 37, 46]), (Z2, [1, 2, 3, 5, 7, 10, 13])], ids=["Z", "Z^2"]
)
def test_refinement_of_refined_boxes_matches_the_set_scan(group, indices):
    refined = RefinedFamily(standard_family(group, indices[-1]), indices)
    explicit = ExplicitFamily(group, [refined.elements(n) for n in range(1, refined.n_max + 1)])
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 1)):
        a = fast_refinement(refined, eps)
        assert a.indices == fast_refinement(explicit, eps).indices


def refinement_scan(family, eps, count):
    """Box-family refinement from the definition: the worst Fraction ratio over the union, index by index."""
    indices = [1]
    while len(indices) < count:
        union = family.elements(indices[-1])  # nested boxes: the union of the chosen sets is the last
        fast = (
            m for m in range(indices[-1] + 1, family.n_max + 1)
            if max(closed_box_ratio(family.group, family.box_radius(m), g) for g in union) < eps
        )
        nxt = next(fast, None)
        if nxt is None:
            break
        indices.append(nxt)
    return indices


@pytest.mark.parametrize(
    "family, ties",
    [
        (standard_family(Z, 200), [Fraction(2, 5), Fraction(4, 11)]),  # 2r/(2m+1) at (1, 2) and (2, 5)
        (standard_family(Z2, 40), [Fraction(18, 25)]),  # 2(1 - (4/5)^2) at (1, 2)
        (RefinedFamily(standard_family(Z2, 60), [1, 2, 3, 5, 8, 13, 21, 34, 55]), [Fraction(18, 25)]),
    ],
    ids=["Z", "Z^2", "refined Z^2"],
)
def test_box_refinement_equals_a_fraction_scan(family, ties):
    for eps in ties + [Fraction(1, 2), Fraction(1, 3), nudged(0.9), Fraction(2), Fraction(5, 2)]:
        count = 6 if family.group is Z else 4
        expected = refinement_scan(family, eps, count)
        got = fast_refinement(family, eps, count=count) if len(expected) == count else fast_refinement(family, eps)
        assert got.indices[:count] == expected, eps
    # the tie itself is not fast: the step passes the tied index
    assert fast_refinement(standard_family(Z, 20), Fraction(2, 5), count=2).indices == [1, 3]


def test_refinement_of_huge_refined_boxes_materializes_nothing():
    refined = RefinedFamily(standard_family(Z, 10**30), [1, 10**6, 10**12, 10**20])
    assert fast_refinement(refined, Fraction(1, 3), count=3).indices == [1, 2, 3]


def test_family_serialization_roundtrips():
    for fam in (
        standard_family(Z2, 6),
        greedy_folner(Z, 4),
        fast_refinement(standard_family(Z, 50), Fraction(1, 2), count=4),
    ):
        data = json.loads(json.dumps(fam.to_jsonable()))
        back = family_from_jsonable(data)
        assert back.n_max == fam.n_max
        assert back.provenance == fam.provenance
        for n in range(1, min(fam.n_max, 4) + 1):
            assert back.card(n) == fam.card(n)
            if fam.card(n) < 10_000:
                assert back.elements(n) == fam.elements(n)


def test_box_ratio_clamps_to_two():
    # disjoint translate: the ratio saturates at 2
    assert closed_box_ratio(Z, 1, 10) == standard_family(Z, 1).ratio(1, 10) == 2
    assert closed_box_ratio(Z2, 1, (10, 0)) == standard_family(Z2, 1).ratio(1, (10, 0)) == 2


def _verify_corollary_with_lambda(lam):
    system, hanner = rotation_system(12), ConvexityModulus.hanner(2)
    f = system.observable([1.0] + [0.0] * 11, 2)
    fast = fast_refinement(standard_family(Z, 10**30), Branch.of(hanner, lp_norm(system, f), 0.3).tolerance, count=4)
    return verify_corollary(system, fast, lam, hanner, f, [0.3], window=4)


EXACT_INT_ARGUMENTS = {  # name: (call, an int it accepts)
    "FolnerFamily n_max": (lambda x: standard_family(Z, x), 2),
    "greedy_folner n_max": (lambda x: greedy_folner(Z, x), 2),
    "greedy_folner search_budget": (lambda x: greedy_folner(Z, 3, search_budget=x), 100),
    "convergence_modulus m_max": (lambda x: convergence_modulus(
        ExplicitFamily(Z, [range(-k, k + 1) for k in range(1, 6)]), 1, Fraction(5, 2), m_max=x
    ), 5),
    "check_modulus claimed": (lambda x: check_modulus(standard_family(Z, 10), 1, Fraction(1, 2), x, 5), 2),
    "check_modulus window": (lambda x: check_modulus(standard_family(Z, 10), 1, Fraction(1, 2), 2, x), 5),
    "check_fast lam": (lambda x: check_fast(standard_family(Z, 10), x, Fraction(5, 2), 5), 2),
    "check_fast window": (lambda x: check_fast(standard_family(Z, 10), 1, Fraction(5, 2), x), 5),
    "fast_refinement count": (lambda x: fast_refinement(standard_family(Z, 10), Fraction(1, 2), count=x), 2),
    "corollary_bound lam": (lambda x: corollary_bound(ConvexityModulus.hanner(2), 1.0, 0.5, 0.001, x), 2),
    "verify_corollary lam": (_verify_corollary_with_lambda, 1),
    "max_chain beta": (lambda x: max_chain([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 0.5, beta=[x, 3, 4]), 2),
    "enumerate_prefix count": (lambda x: Z.enumerate_prefix(x), 2),
}


@pytest.mark.parametrize("bad", [lambda good: True, lambda good: good + 0.5, float], ids=["bool", "float", "integral-float"])
@pytest.mark.parametrize("call, good", EXACT_INT_ARGUMENTS.values(), ids=EXACT_INT_ARGUMENTS.keys())
def test_integer_arguments_refuse_bools_and_floats(call, good, bad):
    call(good)
    with pytest.raises(DomainError):  # an ErgolabError naming the argument, not an error of the run it would start
        call(bad(good))


def test_max_chain_keeps_numpy_integer_beta():
    beta = np.array([2, 3, 4], dtype=np.int64)
    assert max_chain([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 0.5, beta=beta).beta_used == [2, 3, 4]
