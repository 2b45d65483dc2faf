"""Folner family, ratio, modulus, greedy-construction and refinement tests.

Brute-force oracles here use nothing but frozensets and the literal group law
and boxes of `group_oracles`, so the closed-form routes and the row counts of
explicit sets are checked against literal set arithmetic.
"""

import dataclasses
import json
import math
import random
import re
import time
from fractions import Fraction

import group_oracles as literal
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    Branch,
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
    """|F delta gF| / |F| straight from the definition, by the literal law."""
    s = frozenset(elems)
    gs = frozenset(literal.law(group, g, x) for x in s)
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
            assert brute_ratio(group, fam.elements(n), group.identity) == 0


def test_ratio_z_example():
    fam = standard_family(Z, 10)
    assert brute_ratio(Z, fam.elements(5), 2) == Fraction(4, 11)
    assert fam.ratio(5, 2) == Fraction(4, 11)


def test_ratio_z2_axis_example():
    fam = standard_family(Z2, 10)
    for m in range(1, 11):
        assert brute_ratio(Z2, fam.elements(m), (1, 0)) == Fraction(2, 2 * m + 1)


@pytest.mark.parametrize("group", [Z, Z2], ids=lambda g: g.name)
def test_closed_form_equals_set_arithmetic(group):
    fam = standard_family(group, 8)
    rng = random.Random(2311)
    pool = literal.prefix(group, 40)
    for m in range(1, 9):
        for g in rng.sample(pool, 12):
            assert fam.ratio(m, g) == brute_ratio(group, fam.elements(m), g)


def test_h3_overlap_formula_against_brute_force():
    fam = standard_family(H3, 3)
    rng = random.Random(7)
    pool = literal.prefix(H3, 80)
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
    box = literal.box(group, 2)
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
            len(frozenset(s) & {literal.law(group, g, x) for x in s}) for g in gs
        ]
        for g in gs:
            assert fam.ratio(n, g) == brute_ratio(group, s, g)


def sweep_rows(group):
    """Distinct canonical forms of `group` whose coordinates reach past int64."""
    coords = st.one_of(st.integers(-50, 50), st.sampled_from([2**62, 2**63 - 1, -(2**63), 2**70, -(2**70)]))
    element = coords if group is Z else st.tuples(*[coords for _ in group.identity])
    return st.lists(element, min_size=1, max_size=20, unique=True)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_translations_and_overlaps_match_the_group_law(data):
    # 20 derandomised draws per group: every translated row against the literal law, every overlap against sets
    for group in (Z, Z2, Z3, H3):
        rows, gs = data.draw(sweep_rows(group)), data.draw(sweep_rows(group))
        fam, s = ExplicitFamily(group, [rows]), frozenset(rows)
        for g in gs:
            assert from_block(group.translate_block(to_block(rows), g)) == [literal.law(group, g, x) for x in rows]
        assert fam.overlaps(1, to_block(gs)).tolist() == [len(s & {literal.law(group, g, x) for x in s}) for g in gs]


@pytest.mark.parametrize("provenance", [5, None, ["x"], b"x", 1.5], ids=repr)
def test_an_explicit_family_refuses_a_provenance_that_is_not_a_string(provenance):
    message = re.escape(f"family provenance must be a string, got {provenance!r}")
    with pytest.raises(StructureError, match=message):
        family_from_jsonable({"kind": "explicit", "group": "Z", "sets": [[0], [0, 1]], "provenance": provenance})
    with pytest.raises(StructureError, match=message):
        ExplicitFamily(Z, [[0]], provenance=provenance)
    assert ExplicitFamily(Z, [[0]], provenance="from a file").provenance == "from a file"


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
    good = [group.identity, literal.prefix(group, 3)[-1]]
    with pytest.raises(GroupElementError) as info:
        ExplicitFamily(group, [good, good + [bad]])
    assert str(info.value) == message
    # a valid set is accepted without a per-element check
    calls = []
    monkeypatch.setattr(type(group), "check_element", lambda self, a: calls.append(a))
    ExplicitFamily(group, [good, literal.prefix(group, 50)])
    assert calls == []


def test_box_elements_are_the_group_box(monkeypatch):
    monkeypatch.setattr(folner, "MATERIALIZE_CAP", 300)
    for group, top in ((Z, 149), (Z2, 8), (H3, 2)):
        fam = standard_family(group, top + 1)
        for n in list(range(1, top + 1)) + [1, top, 1]:
            assert fam.elements(n) == frozenset(literal.box(group, n))
            assert fam.block(n) is fam.block(n)  # the latest box is kept
        with pytest.raises(FamilyTooLargeError):
            fam.elements(top + 1)
        assert fam.elements(1) == frozenset(literal.box(group, 1))


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
    box = literal.box(Z2, 3)
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
        assert family.ratio(2, family.group.identity) == 0
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
        assert next(h for h in frozenset(literal.box(H3, 1)) if fam.ratio(m, h) == r) != g
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


def stage_searches(monkeypatch) -> list:
    """A list to which each later greedy stage appends the radii its search probes, in order:
    `folner.least_index` wrapped, each stage's search being the one given an upper end."""
    searches = []
    real = folner.least_index

    def spy(pred, lo, hi=None):
        if hi is not None:
            searches.append([])
        return real(pred if hi is None else lambda r: searches[-1].append(r) or pred(r), lo, hi)

    monkeypatch.setattr(folner, "least_index", spy)
    return searches


def test_greedy_stage_is_refused_when_the_largest_box_within_the_cap_is_not_valid(monkeypatch):
    monkeypatch.setattr(folner, "MATERIALIZE_CAP", 100)  # B_49 of Z is the largest box within it
    assert [greedy_folner(Z, 4).card(n) for n in range(1, 5)] == [1, 2, 7, 25]  # as without the cap
    searches = stage_searches(monkeypatch)
    with pytest.raises(FamilyTooLargeError, match="greedy stage 5 .* cap 100: no radius up to 49 "):
        greedy_folner(Z, 5)  # stage 5 takes radius 60 without the cap
    assert len(searches) == 4 and searches[-1] == [0, 1, 2, 4, 8, 16, 32, 49]  # stage 5 stops at the cap
    assert [len(s) for s in searches] == [1, 5, 9, 8]


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


def z_wide_tolerances() -> list:
    """The branch tolerances of `ergolab run` on a 24-point rotation with a normal observable (seeds
    0-9), the Hanner modulus at p = 2 and eps 0.05, 0.1, 0.2: denominators of 104 to 114 bits."""
    system, hanner = rotation_system(24), ConvexityModulus.hanner(2)
    observables = [system.observable(np.random.default_rng(seed).normal(0.0, 1.0, size=24), 2) for seed in range(10)]
    return [Branch.of(hanner, lp_norm(system, f), eps).tolerance for f in observables for eps in (0.05, 0.1, 0.2)]


@pytest.mark.parametrize("group", [Z, Z2], ids=lambda g: g.name)
def test_box_thresholds_are_the_least_index_search_from_the_corner_floor(group):
    radii = [*range(1, 301), 10**30]
    wide = z_wide_tolerances()
    assert {eps.denominator.bit_length() for eps in wide} <= set(range(104, 115))
    for eps in [Fraction(5, 2), 2 + Fraction(1, 10**20), Fraction(2), Fraction(1, 2), *wide]:
        got = group.box_thresholds(radii, eps)
        for r, value in zip(radii, got):
            corner = group.box_corner(r)
            below = lambda m: closed_box_ratio(group, m, corner) < eps  # noqa: E731
            assert value == least_index(below, group.corner_floor(r, eps)), (r, eps)
            assert value == 1 or not below(value - 1), (r, eps)  # and nothing smaller qualifies
    assert H3.box_thresholds(radii, Fraction(1, 2)) is None


def test_an_analytic_z_entry_makes_no_overlap_probe_and_no_fraction(monkeypatch):
    # on Z the corner floor is the threshold itself, so no overlap is counted at all
    probes = []
    for name in ("box_overlap", "box_overlaps"):
        spied = getattr(IntegerGroup, name)
        monkeypatch.setattr(IntegerGroup, name, lambda self, r, g, spied=spied: probes.append(r) or spied(self, r, g))

    def no_fraction_per_probe(*args):
        raise AssertionError("a Fraction ratio taken in the analytic search")

    monkeypatch.setattr(StandardBoxFamily, "ratio", no_fraction_per_probe)
    fam = standard_family(Z, 10**30)
    for n, eps in ((1, Fraction(1, 2)), (400, nudged(0.05)), (5, Fraction(10, 21)), (7, Fraction(5, 2)),
                   (7, Fraction(2)), (10**30, Fraction(1, 10**25)), (9, Fraction(5, 10**324))):
        value = convergence_modulus(fam, n, eps).value
        assert probes == [], (n, eps, probes)
        assert value == oracle_modulus(Z, n, eps)  # which probes
        probes.clear()


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


def upward_modulus(worst, eps, m_max):
    """The modulus the definition gives from a full upward scan of worst ratios {m: ratio}: the least N
    with every m in [N, m_max] below eps, or, when m_max itself fails, the error with every m's ratio."""
    if worst[m_max] >= eps:
        return ModulusNotFoundError(worst["n"], eps, m_max, {m: worst[m] for m in range(1, m_max + 1)})
    N = m_max
    while N > 1 and worst[N - 1] < eps:
        N -= 1
    return N


MODULUS_SCAN_FAMILIES = {
    "H3": lambda: (standard_family(H3, 10), [1, 2]),
    "refined-H3": lambda: (RefinedFamily(standard_family(H3, 30), [1, 2, 3, 5, 8, 12]), [1, 2]),
    "greedy-Z": lambda: (greedy_folner(Z, 8), [1, 3, 6]),
    "greedy-Z^2": lambda: (greedy_folner(Z2, 4), [1, 2, 3]),
}


@pytest.mark.parametrize("name", MODULUS_SCAN_FAMILIES)
def test_the_downward_modulus_scan_is_the_upward_full_scan(name):
    # the worst ratios by one `family.ratio` per translation, m ascending; entries and errors alike
    family, ns = MODULUS_SCAN_FAMILIES[name]()
    outcomes = set()
    for n in ns:
        worst = {"n": n}
        for m in range(1, family.n_max + 1):
            worst[m] = per_translation_worst(family, m, sorted(family.elements(n)))[0]
        for eps in (Fraction(1, 2), Fraction(1, 5), Fraction(3, 7), Fraction(1, 100), Fraction(2), nudged(0.3)):
            for m_max in sorted({1, 3, family.n_max - 1, family.n_max}):
                want = upward_modulus(worst, eps, m_max)
                if isinstance(want, ModulusNotFoundError):
                    with pytest.raises(ModulusNotFoundError) as err:
                        convergence_modulus(family, n, eps, m_max=m_max)
                    assert str(err.value) == str(want)
                    assert list(err.value.worst_by_m.items()) == list(want.worst_by_m.items())  # complete, ascending
                else:
                    entry = convergence_modulus(family, n, eps, m_max=m_max)
                    assert (entry.value, entry.kind, entry.certified_up_to) == (want, "empirical", m_max)
                outcomes.add((type(want), want == 1))
    assert outcomes == {(ModulusNotFoundError, False), (int, True), (int, False)}  # errors, N = 1 and N > 1


def test_modulus_h3_empirical_and_reverified():
    fam = standard_family(H3, 12)
    entry = convergence_modulus(fam, 1, Fraction(1, 2), m_max=12)
    assert entry.kind == "empirical" and entry.certified_up_to == 12
    # independent re-verification over the window, by the literal law and box
    def literal_ratio(m, g):
        card = (2 * m + 1) ** 2 * (2 * m * m + 1)
        return Fraction(2 * (card - literal.box_overlap(H3, m, g)), card)

    for m in range(entry.value, 13):
        for g in fam.elements(1):
            assert literal_ratio(m, g) < Fraction(1, 2)
    if entry.value > 1:
        assert any(literal_ratio(entry.value - 1, g) >= Fraction(1, 2) for g in fam.elements(1))


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


def json_dumps_oracle(table: ModulusTable) -> str:
    return json.dumps(table.to_jsonable(), indent=2, sort_keys=True) + "\n"


# tolerances whose string order differs from their numeric order, huge and float-exact ones, an integer
WRITER_TOLERANCES = [Fraction(1, 10), Fraction(1, 2), Fraction(3, 7), Fraction(0.1), Fraction(10**40 + 1, 3 * 10**39), Fraction(5)]


def writer_tables():
    mixed = [
        ModulusEntry(n=n, epsilon=eps, value=v, kind=kind, certified_up_to=cap)
        for i, eps in enumerate(WRITER_TOLERANCES)
        for n, v, kind, cap in [(3, 2**70 + i, "analytic", None), (1, 4, "empirical", 9 + i), (2, 1, "analytic", 12)]
    ]
    return {
        "mixed": ModulusTable("Z", 'hand "quoted" \u00e9\u2603 \\ /', mixed),
        "one empirical": ModulusTable("H3", "explicit", mixed[1:2]),
        "one analytic": ModulusTable("Z^2", "standard-box", mixed[:1]),
        "empty": ModulusTable("Z^3", "explicit", []),
        "empty build": build_modulus_table(standard_family(Z, 5), [], WRITER_TOLERANCES),
        "z-wide shape": build_modulus_table(standard_family(Z, 400), range(1, 401), [0.05, 0.1, 0.2]),
        "greedy": build_modulus_table(greedy_folner(Z, 8), range(1, 7), [Fraction(1, 2), Fraction(1, 10)], m_max=8),
        "h3": build_modulus_table(standard_family(H3, 6), [2, 1], [Fraction(3, 2), Fraction(1)], m_max=6),
    }


@pytest.mark.parametrize("name", list(writer_tables()))
def test_modulus_json_text_is_json_dumps_byte_for_byte(name):
    table = writer_tables()[name]
    assert table.to_json_text() == json_dumps_oracle(table)
    if name == "mixed":  # the entries run in str(eps) order, which is not the numeric order
        eps_order = list(dict.fromkeys(e["eps"] for e in json.loads(table.to_json_text())["entries"]))
        assert eps_order == sorted(eps_order) != sorted(eps_order, key=Fraction)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(1, 10**6),
            st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)),
            st.integers(1, 2**80),
            st.sampled_from(["analytic", "empirical"]),
            st.none() | st.integers(1, 10**9),
        ),
        max_size=12,
    ),
    names=st.tuples(st.text(max_size=8), st.text(max_size=8)),
)
def test_modulus_json_text_matches_json_dumps_on_random_tables(entries, names):
    table = ModulusTable(*names, [ModulusEntry(n, eps, v, kind, cap) for n, eps, v, kind, cap in entries])
    assert table.to_json_text() == json_dumps_oracle(table)


def per_entry_table(family, ns, epsilons, m_max=None) -> ModulusTable:
    """The table as one `convergence_modulus` call per (eps, n), handed to the public constructor."""
    entries = [convergence_modulus(family, n, eps, m_max=m_max) for eps in epsilons for n in ns]
    return ModulusTable(family.group.name, family.provenance, entries)


@pytest.mark.parametrize(
    "family, ns, epsilons, m_max",
    [
        (standard_family(Z, 60), range(1, 61), [0.05, Fraction(1, 10), "3/7", 0.05], None),
        (standard_family(Z2, 30), [3, 1, 2, 2, 30], [Fraction(1, 2), 0.1], 30),
        (standard_family(H3, 6), [1, 2], [Fraction(3, 2), Fraction(1)], 6),  # empirical: H3 has no box corner
        (greedy_folner(Z, 8), range(1, 7), [Fraction(1, 2), Fraction(1, 10), "3/7"], 8),
    ],
    ids=["Z", "Z^2", "H3-empirical", "greedy-Z"],
)
def test_modulus_table_by_rows_equals_the_per_entry_table(family, ns, epsilons, m_max):
    table = build_modulus_table(family, ns, epsilons, m_max=m_max)
    expected = per_entry_table(family, ns, epsilons, m_max)
    assert list(table.entries.items()) == list(expected.entries.items())
    assert table.epsilons() == expected.epsilons()
    assert (table.group_name, table.provenance, table.kind) == (expected.group_name, expected.provenance, expected.kind)
    assert table.to_json_text() == json_dumps_oracle(expected)


def outcome(call):
    """call()'s value, or the type and text of what it raised."""
    try:
        return call()
    except (StructureError, DomainError) as exc:
        return type(exc), str(exc)


def public_view(table: ModulusTable, epsilons, top: int) -> dict:
    """Everything a table shows: its queries at each eps of epsilons and n, window in [0, top]."""
    return {
        "entries": dict(table.entries),
        "entries_at": {eps: dict(table.entries_at(eps)) for eps in epsilons},
        "value": {(n, eps): outcome(lambda: table.value(n, eps)) for n in range(top + 1) for eps in epsilons},
        "covers": {(w, eps): table.covers(w, eps) for w in range(top + 1) for eps in epsilons},
        "kind": table.kind,
        "certified_up_to": table.certified_up_to,
        "epsilons": table.epsilons(),
        "to_jsonable": table.to_jsonable(),
        "to_json_text": table.to_json_text(),
    }


def row_tables():
    """Tables handed finished rows, as `build_modulus_table` builds them: analytic and empirical rows,
    gaps in n, different caps, an N past int64, and rows that each cover 1..k."""
    row = folner._Row
    mixed = {
        Fraction(1, 10): row([1, 2, 3, 4], [3, 2, 7, 7], ["analytic", "empirical"] * 2, [None, 9, None, 12]),
        Fraction(1, 2): row([1, 3, 8], [2, 2**70, 5], ["analytic"] * 3, [None] * 3),
        Fraction(0.1): row([2, 5], [4, 6], ["empirical"] * 2, [5, 7]),
    }
    covering = {eps: r for eps, r in mixed.items() if r.ns == list(range(1, len(r.ns) + 1))}
    return {
        "mixed": ModulusTable._of_rows("Z", "hand", mixed),
        "covering": ModulusTable._of_rows("H3", "hand", covering),
        "boxes with gaps": build_modulus_table(standard_family(Z, 40), [9, 1, 3, 30, 3], [0.05, Fraction(1, 2), 3]),
        "greedy": build_modulus_table(greedy_folner(Z, 8), [5, 1, 2, 3, 4], [Fraction(1, 2), Fraction(1, 10)], m_max=8),
    }


@pytest.mark.parametrize("name", list(row_tables()))
def test_a_table_of_rows_is_the_table_of_its_entries(name):
    by_rows = row_tables()[name]
    by_entries = ModulusTable(by_rows.group_name, by_rows.provenance, reversed(list(by_rows.entries.values())))
    epsilons = [*by_rows.epsilons(), Fraction(1, 3)]
    assert public_view(by_rows, epsilons, 10) == public_view(by_entries, epsilons, 10)
    assert by_rows.to_json_text() == json_dumps_oracle(by_entries)
    envelopes = outcome(lambda: envelope(by_rows)), outcome(lambda: envelope(by_entries))
    if isinstance(envelopes[0], ModulusTable):
        assert public_view(envelopes[0], epsilons, 10) == public_view(envelopes[1], epsilons, 10)
    else:
        assert envelopes[0] == envelopes[1] and envelopes[0][0] is StructureError
    assert name != "covering" or isinstance(envelopes[0], ModulusTable)


@pytest.mark.parametrize("family", [standard_family(Z, 10), greedy_folner(Z, 6)], ids=["boxes", "greedy"])
@pytest.mark.parametrize(
    "n, eps, m_max",
    [
        (True, Fraction(1, 2), 6),
        (0, Fraction(1, 2), 6),
        (99, Fraction(1, 2), 6),
        (2.0, Fraction(1, 2), 6),
        (1, 0, 6),
        (1, "-1/2", 6),
        (1, -0.5, 6),
        (1, "x", 6),
        (1, Fraction(1, 2), 6.0),
        (1, Fraction(1, 2), True),
    ],
)
def test_modulus_table_by_rows_refuses_what_convergence_modulus_refuses(family, n, eps, m_max):
    with pytest.raises((DomainError, StructureError)) as per_entry:
        convergence_modulus(family, n, eps, m_max=m_max)
    with pytest.raises(type(per_entry.value)) as by_rows:
        build_modulus_table(family, [1, n], [Fraction(1, 2), eps], m_max=m_max)
    assert str(by_rows.value) == str(per_entry.value)


def test_modulus_table_with_no_index_still_checks_its_tolerances_and_m_max():
    # with no ns there is no entry, but each tolerance and m_max's type are checked once all the same
    family = standard_family(Z, 10)
    for eps in (0, "-1/2", "x"):
        with pytest.raises(DomainError):
            build_modulus_table(family, [], [Fraction(1, 2), eps])
    with pytest.raises(DomainError, match="m_max must be an integer"):
        build_modulus_table(family, [], [Fraction(1, 2)], m_max=2.5)
    empty = build_modulus_table(family, [], [Fraction(1, 2)], m_max=4)
    assert (empty.entries, empty.epsilons(), empty.kind) == ({}, [], "analytic")


@pytest.mark.parametrize(
    "change",
    [
        {"n": True},
        {"n": 0},
        {"n": 1.0},
        {"N": 3.5},
        {"N": 0},
        {"N": "3"},
        {"kind": "bogus"},
        {"certified_up_to": "x"},
        {"certified_up_to": 0},
        {"certified_up_to": False},
        {"eps": "-1/2"},
        {"eps": "0"},
        {"eps": "one half"},
        {"eps": True},
        {"eps": None},
    ],
)
def test_modulus_table_from_jsonable_refuses_a_malformed_entry_naming_it(change):
    doc = build_modulus_table(standard_family(Z, 5), range(1, 4), [Fraction(1, 2)]).to_jsonable()
    assert ModulusTable.from_jsonable(json.loads(json.dumps(doc))).to_json_text() == json_dumps_oracle(
        ModulusTable.from_jsonable(doc)
    )
    doc["entries"][1].update(change)
    with pytest.raises(StructureError, match=r"^malformed modulus entry") as info:
        ModulusTable.from_jsonable(doc)
    assert repr(next(iter(change.values()))) in str(info.value)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"group": "Z"},
        {"group": "Z", "entries": {}},
        {"entries": []},
        {"group": 5, "entries": []},
        {"group": "Z", "provenance": ["x"], "entries": []},
        {"group": "Z", "entries": [5]},
        {"group": "Z", "entries": [{"n": 1, "eps": "1/2"}]},
    ],
)
def test_modulus_table_from_jsonable_refuses_a_malformed_document(doc):
    with pytest.raises(StructureError):
        ModulusTable.from_jsonable(doc)


def test_modulus_table_constructor_refuses_a_malformed_entry():
    good = ModulusEntry(n=1, epsilon=Fraction(1, 2), value=3, kind="analytic", certified_up_to=None)
    assert ModulusTable("Z", "hand", [good]).value(1, "1/2") == 3
    for bad in (
        dataclasses.replace(good, value=3.5),
        dataclasses.replace(good, n=True),
        dataclasses.replace(good, kind="bogus"),
        dataclasses.replace(good, certified_up_to="x"),
        dataclasses.replace(good, epsilon=0.5),
        dataclasses.replace(good, epsilon=Fraction(-1, 2)),
        (1, Fraction(1, 2), 3, "analytic", None),
    ):
        with pytest.raises(StructureError, match=re.escape(f"malformed modulus entry {bad!r}")):
            ModulusTable("Z", "hand", [good, bad])


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
    enum = literal.prefix(Z, 6)
    for n in range(1, 6):
        assert fam.elements(n) <= fam.elements(n + 1)
        assert enum[n - 1] in fam.elements(n)


def test_greedy_draws_each_enumerated_element_when_its_stage_is_built(monkeypatch):
    drawn, first_six = [], literal.prefix(Z, 6)
    enumerate_all = Z.enumeration
    monkeypatch.setattr(Z, "enumeration", lambda: (drawn.append(g) or g for g in enumerate_all()))
    assert greedy_folner(Z, 6).n_max == 6 and drawn == first_six
    drawn.clear()
    # B_1 is the largest box within a cap of 4, and no radius up to 1 is valid at stage 3,
    # so no g past g_2 is drawn: 10**6 is not enumerated up front
    monkeypatch.setattr(folner, "MATERIALIZE_CAP", 4)
    with pytest.raises(FamilyTooLargeError, match="greedy stage 3 "):
        greedy_folner(Z, 10**6)
    assert drawn == [0, 1]


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


def scalar_greedy(group, n_max, probes=None):
    """The greedy construction with every candidate tested one g at a time: the reference
    for `greedy_folner`'s blocks.  The reach is a `least_index` search over coordinate
    containment, and each g of F_{n-1} is decided alone: by the scalar `box_overlap` on a
    box, and on a set by a one-row `overlaps` block (the rows shared with `translate_block`
    on every set with no closed form), g in ascending canonical order, the order of F_{n-1}'s
    block.  With a list given as probes, each stage appends the list of radii it probes.
    """

    def contains(r, g):
        if group is H3:
            return abs(g[0]) <= r and abs(g[1]) <= r and abs(g[2]) <= r * r
        return all(abs(c) <= r for c in (g if isinstance(g, tuple) else (g,)))

    enum = literal.prefix(group, n_max)
    sets = [frozenset([enum[0]])]
    for stage in range(2, n_max + 1):
        prev = sets[-1]
        reach = least_index(lambda r: all(contains(r, g) for g in prev), 0)
        probed = []
        if probes is not None:
            probes.append(probed)

        def valid(r):
            probed.append(r)
            if r and r >= reach:
                card, overlap_of = group.box_card(r), lambda g: group.box_overlap(r, g)
            else:
                s = prev | frozenset(literal.box(group, r)) if r else prev
                if r and s == prev:
                    return False  # the r = 0 candidate, probed first and refuted
                one = ExplicitFamily(group, [s])
                card, overlap_of = len(s), lambda g: int(one.overlaps(1, to_block([g]))[0])
            return all(stage * 2 * (card - overlap_of(g)) < card for g in sorted(prev))

        radius = least_index(valid, 0)
        chosen = prev | frozenset(literal.box(group, radius)) if radius else prev
        sets.append(chosen | {enum[stage - 1]})
    return sets


@pytest.mark.parametrize(
    "group, n_max, most", [(Z, 8, 31), (Z2, 4, 11), (H3, 3, 3)], ids=lambda v: getattr(v, "name", None)
)
def test_greedy_blocks_match_the_per_g_construction(group, n_max, most, monkeypatch):
    searches = stage_searches(monkeypatch)
    fam = greedy_folner(group, n_max)
    want = []
    assert [fam.elements(n) for n in range(1, n_max + 1)] == scalar_greedy(group, n_max, want)
    # the same radii probed at every stage, in the same order, and the most at any one stage pinned
    assert searches == want and max(map(len, searches)) == most


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
    assert probes == []  # the floor is the least index on Z: no probe at all


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
    tuples = ExplicitFamily(Z2, [rng.sample(literal.box(Z2, 3), k) for k in (2, 7, 4)])
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


CHUNK_FAMILIES = {
    "H3": lambda: (standard_family(H3, 9), 9),
    "refined-H3": lambda: (RefinedFamily(standard_family(H3, 30), [1, 2, 4, 7, 11]), 5),
    "Z^2-no-corner": lambda: (standard_family(CornerlessLattice(2), 12), 12),
    "Z-no-corner": lambda: (standard_family(CornerlessLattice(1), 20), 20),
}


@pytest.mark.parametrize("cap", [2**12, 40, 1], ids=lambda c: f"cap{c}")
@pytest.mark.parametrize("name", CHUNK_FAMILIES)
def test_worst_ratios_in_chunks_are_the_per_m_loop(name, cap, monkeypatch):
    # values and first-maximiser witnesses, whatever the chunk cap, for ms in any order and repeated
    monkeypatch.setattr(folner, "_CHUNK_ENTRIES", cap)
    family, top = CHUNK_FAMILIES[name]()
    for n in (1, 2):
        elements = sorted(family.elements(n))
        over = sorted(elements, key=str)[::3]
        for ms in (range(1, top + 1), range(top, 0, -1), [3, 1, 3, 2, top, 1], []):
            got = list(folner._worst_ratios(family, n, ms))
            assert repr(got) == repr([per_translation_worst(family, m, elements) for m in ms])
            got = list(folner._worst_ratios(family, n, ms, over=over))
            assert repr(got) == repr([per_translation_worst(family, m, over) for m in ms])
        assert list(folner._worst_ratios(family, n, [1, 2], over=[])) == [(0, None), (0, None)]


def test_worst_ratios_draw_their_ms_a_chunk_at_a_time():
    # F_1 of H3 has 27 rows, so a chunk is 2^12 // 27 = 151 radii; a 10^12-long range is never listed
    drawn = []
    ms = (drawn.append(m) or m for m in range(2, 10**12))
    ratios = folner._worst_ratios(standard_family(H3, 10**12), 1, ms)
    next(ratios)
    assert drawn == list(range(2, 153))
    for _ in range(151):
        next(ratios)
    assert drawn == list(range(2, 304))


def test_a_chunk_checks_every_index_before_it_is_counted(monkeypatch):
    family = standard_family(H3, 6)
    monkeypatch.setattr(H3, "box_overlaps", lambda r, block: pytest.fail(f"counted {r}"))
    with pytest.raises(StructureError, match=re.escape("family index must be in [1, 6], got 7")):
        next(folner._worst_ratios(family, 1, [5, 6, 7]))
    for over in ([(0, 0, 0)], []):  # with no translation to count, m is checked all the same
        with pytest.raises(StructureError, match=re.escape("family index must be in [1, 5], got 99")):
            worst_ratio(standard_family(H3, 5), 1, 99, over=over)


@pytest.mark.parametrize("cap", [2**12, 64, 1], ids=lambda c: f"cap{c}")
def test_h3_refinements_and_fastness_checks_are_the_parents(cap, monkeypatch):
    # pinned from the per-m scan, before chunks: indices, verdicts, violations and witnesses
    monkeypatch.setattr(folner, "_CHUNK_ENTRIES", cap)
    source = standard_family(H3, 10**12)
    assert [fast_refinement(source, Fraction(1, k), count=c).indices for k, c in ((2, 3), (3, 3), (5, 2))] == [
        [1, 5, 23], [1, 7, 50], [1, 12]
    ]
    assert fast_refinement(standard_family(H3, 22), Fraction(1, 2)).indices == [1, 5]
    assert fast_refinement(standard_family(H3, 9), Fraction(2, 3)).indices == [1, 4]
    family = standard_family(H3, 12)
    reports = [check_fast(family, lam, eps, w) for lam, eps, w in (
        (1, Fraction(1, 2), 12), (3, Fraction(1, 2), 12), (8, Fraction(3, 4), 12), (1, Fraction(2), 6), (4, Fraction(1, 3), 12)
    )]
    assert [r.violation for r in reports] == [
        (1, 2, (-1, -1, -1), Fraction(14, 15)),
        (1, 4, (-1, -1, -1), Fraction(470, 891)),
        None,
        None,
        (1, 5, (-1, -1, -1), Fraction(894, 2057)),
    ]
    assert [r.ok for r in reports] == [False, False, True, True, False]
    assert check_fast(RefinedFamily(standard_family(H3, 40), [1, 5, 23]), 1, Fraction(1, 2), 3).ok


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
