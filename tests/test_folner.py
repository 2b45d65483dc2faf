"""Folner family, ratio, modulus, greedy-construction and refinement tests.

Brute-force oracles here use nothing but frozensets and the group law, so the
closed-form and packed-array routes are checked against literal set
arithmetic.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from ergolab import (
    ConstructionBudgetError,
    DomainError,
    ExplicitFamily,
    ModulusNotFoundError,
    RefinementWindowError,
    StructureError,
    box_ratio,
    build_modulus_table,
    check_fast,
    check_modulus,
    convergence_modulus,
    envelope,
    family_from_jsonable,
    fast_refinement,
    folner_ratio,
    greedy_folner,
    group_by_name,
    least_index,
    standard_family,
    worst_ratio,
    worst_ratio_table,
)
from ergolab.folner import ModulusEntry, ModulusTable, RefinedFamily
from ergolab.groups import LatticeGroup

Z = group_by_name("Z")
Z2 = group_by_name("Z^2")
H3 = group_by_name("H3")


def brute_ratio(group, elems, g):
    """|F delta gF| / |F| straight from the definition."""
    s = frozenset(elems)
    gs = frozenset(group.multiply(g, x) for x in s)
    return Fraction(len(s ^ gs), len(s))


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


def test_explicit_family_packed_path_matches_sets():
    rng = random.Random(5)
    sets = [frozenset(rng.sample(range(-500, 500), 80)) for _ in range(3)]
    edge = 2**62 - 10  # packable, but a shift past _PACK_LIMIT leaves the searched route
    sets += [
        frozenset(range(-3, 4)),  # interval, odd length
        frozenset(range(5, 15)),  # interval, even length
        frozenset({-4}),  # single point
        frozenset(range(-6, 7)) - {2},  # interval with one hole: searched
        frozenset(range(edge, edge + 9)),  # interval near the packing limit
        frozenset(range(edge, edge + 9)) - {edge + 4},  # ... with a hole: set arithmetic past the limit
    ]
    fam = ExplicitFamily(Z, sets)
    for n, s in enumerate(sets, start=1):
        k = len(s)
        shifts = {-7, 3, 250, 0, 1, k - 1, k, k + 5, 2**62, 3 * 2**62}
        for g in shifts | {-g for g in shifts}:
            assert fam.ratio(n, g) == brute_ratio(Z, s, g)


def test_empty_set_rejected():
    with pytest.raises(StructureError):
        ExplicitFamily(Z, [set()])


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


def _worst_ratio_cases():
    rng = random.Random(3)
    non_nested = ExplicitFamily(Z, [rng.sample(range(-30, 30), k) for k in (3, 9, 5, 12)])
    return [
        (standard_family(Z, 6), 6),
        (standard_family(Z2, 4), 4),
        (standard_family(H3, 2), 2),
        (RefinedFamily(standard_family(Z2, 40), [1, 3, 7]), 3),  # corner route
        (greedy_folner(Z, 5), 5),
        (non_nested, 4),
    ]


@pytest.mark.parametrize(
    "family, top", _worst_ratio_cases(), ids=["Z", "Z^2", "H3", "refined-Z^2", "greedy-Z", "non-nested"]
)
def test_worst_ratio_equals_set_arithmetic(family, top):
    group = family.group
    for n in range(1, top + 1):
        for m in range(1, top + 1):
            target = family.elements(m)
            ratios = {g: brute_ratio(group, target, g) for g in family.elements(n)}
            worst = max(ratios.values())
            r, g = worst_ratio(family, n, m)
            assert r == worst and brute_ratio(group, target, g) == r
            for eps in (Fraction(1, 10), worst, worst + Fraction(1, 10**9)):
                r, g = worst_ratio(family, n, m, stop_at=eps)
                if worst >= eps:
                    # early exit: the witness is a real violation of the bound
                    assert r >= eps and g in family.elements(n) and brute_ratio(group, target, g) == r
                else:
                    assert r == worst
            some = sorted(family.elements(n), key=str)[::2]
            assert worst_ratio(family, n, m, over=some)[0] == max(ratios[g] for g in some)
    assert worst_ratio(family, 1, 1, over=[]) == (0, None)


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
    assert box_ratio(Z, 1, 10) == 2
    assert box_ratio(Z2, 1, (10, 0)) == 2
