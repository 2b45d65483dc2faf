"""Koopman action, L^p norms, ergodic averages and the averaging lemma.

The exact oracle for averages reimplements the defining finite sum with
Fraction arithmetic and raw permutation powers, independent of the library's
float pipeline.
"""

from fractions import Fraction

import numpy as np
import pytest

from ergolab import (
    ConvexityModulus,
    DomainError,
    ExplicitFamily,
    Observable,
    StructureError,
    average_defect,
    average_operator,
    average_sequence,
    convergence_modulus,
    ergodic_average,
    fast_refinement,
    group_by_name,
    heisenberg_torus_system,
    koopman_apply,
    lp_distances,
    lp_norm,
    rotation_system,
    standard_family,
    torus_translation_system,
    verify_main_theorem,
    weighted_mean,
)
from ergolab.dynamics import FiniteMeasureSystem, _perm_power, _z_interval_averages
from ergolab.folner import RefinedFamily
from ergolab.groups import Group, HeisenbergGroup

Z = group_by_name("Z")


def power_by_steps(perm, k):
    """perm^k as a list: step perm (its inverse when k < 0) |k| times from every point."""
    step = list(perm)
    if k < 0:
        step = [0] * len(perm)
        for s, img in enumerate(perm):
            step[img] = s
    out = list(range(len(perm)))
    for _ in range(abs(k)):
        out = [step[v] for v in out]
    return out


def exact_average(system, elems, values):
    """(1/|F|) sum_{g in F} f(g . s) with exact rationals; Z-systems only."""
    perm = system.generators["t"].tolist()
    powers = {g: power_by_steps(perm, g) for g in elems}
    out = []
    for s in range(system.n_points):
        acc = Fraction(0)
        for g in elems:
            acc += values[powers[g][s]]
        out.append(acc / len(elems))
    return out


# ---------------------------------------------------------------------------
# systems and the Koopman action
# ---------------------------------------------------------------------------


def test_rotation_koopman_example():
    sys4 = rotation_system(4)
    f = sys4.observable([1, 0, 0, 0], 2)
    out = koopman_apply(sys4, 1, f)
    assert np.array_equal(out.values, [0, 1, 0, 0])


def test_koopman_identity_and_length_mismatch():
    sys6 = rotation_system(6)
    f = sys6.observable(np.arange(6.0), 3)
    assert np.array_equal(koopman_apply(sys6, 0, f).values, f.values)
    with pytest.raises(StructureError):
        koopman_apply(sys6, 1, Observable(np.arange(5.0), 3))


def test_koopman_isometry_random():
    rng = np.random.default_rng(123)
    systems = [rotation_system(12), torus_translation_system(5, 4), heisenberg_torus_system(4, 4)]
    for system in systems:
        pool = system.group.enumerate_prefix(30)
        for _ in range(25):
            f = system.observable(rng.normal(size=system.n_points), float(rng.uniform(1.2, 5.0)))
            g = pool[int(rng.integers(len(pool)))]
            assert lp_norm(system, koopman_apply(system, g, f)) == pytest.approx(
                lp_norm(system, f), abs=1e-10
            )


def test_koopman_is_linear():
    system = rotation_system(9)
    rng = np.random.default_rng(5)
    f = system.observable(rng.normal(size=9), 2)
    h = system.observable(rng.normal(size=9), 2)
    combo = system.observable(2.5 * f.values + h.values, 2)
    out = koopman_apply(system, 4, combo)
    expect = 2.5 * koopman_apply(system, 4, f).values + koopman_apply(system, 4, h).values
    assert np.allclose(out.values, expect, atol=1e-12)


def test_action_validation_catches_bad_weights():
    with pytest.raises(StructureError, match="preserve"):
        FiniteMeasureSystem(Z, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], {"t": [1, 2, 0]})


def test_action_validation_weights_constant_on_orbits():
    # two 2-cycles with distinct weights per orbit is measure-preserving
    system = FiniteMeasureSystem(
        Z, [Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6)], {"t": [1, 0, 3, 2]}
    )
    system.validate_action()


def test_shipped_systems_are_exact_homomorphisms():
    rotation_system(12).validate_action(pairs=80)
    torus_translation_system(10, 10).validate_action(pairs=80)
    heisenberg_torus_system(5, 5).validate_action(pairs=80)


def test_heisenberg_center_acts_trivially():
    system = heisenberg_torus_system(4, 4)
    assert system.act((0, 0, 5)).tolist() == list(range(16))
    # abelianized action only sees (a, b)
    assert np.array_equal(system.act((2, 3, 7)), system.act((2, 3, 0)))


def heisenberg_mod3_system():
    # H3 acting on H3(Z/3) by left multiplication: a faithful, non-abelian action,
    # so the order of the generator powers in act(g) matters
    points = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    index = {h: i for i, h in enumerate(points)}
    h3 = HeisenbergGroup()

    def left(g):
        return [index[tuple(v % 3 for v in h3.multiply(g, h))] for h in points]

    gens = {"x": left((1, 0, 0)), "y": left((0, 1, 0)), "z": left((0, 0, 1))}
    return FiniteMeasureSystem(h3, [Fraction(1, 27)] * 27, gens), left


def test_heisenberg_act_is_left_multiplication():
    system, left = heisenberg_mod3_system()
    for g in system.group.enumerate_prefix(200):
        assert system.act(g).tolist() == left(g)
    system.validate_action(pairs=200, prefix=200)


def test_act_returns_one_cached_read_only_array():
    for system, g in [(rotation_system(9), -4), (heisenberg_mod3_system()[0], (2, -1, 5))]:
        first = system.act(g)
        assert system.act(g) is first
        with pytest.raises(ValueError):
            first[0] = first[1]
        for perm in system.generators.values():
            with pytest.raises(ValueError):
                perm[0] = perm[1]


@pytest.mark.parametrize(
    "entries",
    [[1.9, 0.2], [True, False], ["1", "0"]],
    ids=["floats", "bools", "strings"],
)
def test_generator_entries_must_be_integers(entries):
    with pytest.raises(StructureError, match="integers"):
        FiniteMeasureSystem(Z, [Fraction(1, 2)] * 2, {"t": entries})


def test_generator_accepts_numpy_integers():
    for perm in (np.array([1, 2, 0]), np.array([1, 2, 0], dtype=np.int32), [np.int64(1), 2, np.uint8(0)]):
        system = FiniteMeasureSystem(Z, [Fraction(1, 3)] * 3, {"t": perm})
        assert system.act(1).tolist() == [1, 2, 0]


class _NamedGroup(Group):
    # every method, identity included, is the base class's NotImplementedError
    name = "F2"


class _GroupWithIdentity(_NamedGroup):
    @property
    def identity(self):
        return ()


@pytest.mark.parametrize("group", [_NamedGroup(), _GroupWithIdentity()], ids=["bare", "with-identity"])
def test_unsupported_group_is_a_structure_error(group):
    with pytest.raises(StructureError, match="unsupported group for dynamics"):
        FiniteMeasureSystem(group, [Fraction(1, 2)] * 2, {"t": [1, 0]})


POWER_CASES = ["multi-cycle", "t1", "t2"]


def power_case(name):
    """The 7+5+5+3+1+1 generator of multi_cycle_system, or a generator of the 10x10 torus."""
    if name == "multi-cycle":
        return multi_cycle_system().generators["t"]
    return torus_translation_system(10, 10).generators[name]


@pytest.mark.parametrize("name", POWER_CASES)
def test_perm_power_equals_repeated_composition(name):
    perm = power_case(name)
    n = len(perm)
    steps = perm.tolist()
    for sign in (1, -1):
        step = power_by_steps(steps, sign)
        cur = list(range(n))
        for k in range(3 * n + 1):
            assert _perm_power(perm, sign * k).tolist() == cur, (name, sign * k)
            cur = [step[v] for v in cur]


@pytest.mark.parametrize("name", POWER_CASES)
def test_perm_power_huge_exponents_reduce_mod_order(name):
    perm = power_case(name)
    steps = perm.tolist()
    order, cur = 1, steps
    while cur != list(range(len(steps))):
        order, cur = order + 1, [steps[v] for v in cur]
    for k in (2**70, 10**30 + 7, -(10**30)):
        assert _perm_power(perm, k).tolist() == power_by_steps(steps, k % order), (name, k)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_lp_distances_refuses_no_averages_and_mixed_shapes():
    system = rotation_system(4)
    f = system.observable([1, 0, 0, 0], 2)
    with pytest.raises(StructureError):
        lp_distances(system, [])
    with pytest.raises(StructureError):
        lp_distances(system, [f, system.observable([0, 1, 0, 0], 3)])
    with pytest.raises(StructureError):
        lp_distances(system, [f, Observable(np.ones(3), 2)])


def test_lp_norm_examples():
    sys4 = rotation_system(4)
    assert lp_norm(sys4, sys4.observable([0, 0, 0, 0], 2)) == 0.0
    for p in (1.5, 2.0, 7.0):
        assert lp_norm(sys4, sys4.observable([1, 1, 1, 1], p)) == pytest.approx(1.0, abs=1e-12)
    assert lp_norm(sys4, sys4.observable([2, 0, 0, 0], 2)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ergodic averages
# ---------------------------------------------------------------------------


def test_average_over_identity_set_is_f():
    system = rotation_system(8)
    fam = ExplicitFamily(Z, [{0}])
    f = system.observable(np.arange(8.0), 2)
    assert np.array_equal(ergodic_average(system, fam, 1, f).values, f.values)


def test_average_fixes_constants():
    system = rotation_system(10)
    fam = standard_family(Z, 20)
    f = system.observable(np.full(10, 3.25), 2)
    for n in (1, 7, 20):
        assert np.allclose(ergodic_average(system, fam, n, f).values, 3.25, atol=1e-12)


def test_full_orbit_average_is_mean():
    system = rotation_system(6)
    fam = ExplicitFamily(Z, [set(range(6))])  # F = {0..N-1}: every point sees the whole orbit
    rng = np.random.default_rng(0)
    f = system.observable(rng.normal(size=6), 2)
    out = ergodic_average(system, fam, 1, f)
    assert np.allclose(out.values, f.values.mean(), atol=1e-12)


def test_average_matches_exact_oracle():
    system = rotation_system(7)
    rng = np.random.default_rng(3)
    vals = [Fraction(int(v), 16) for v in rng.integers(-32, 32, size=7)]
    f = system.observable([float(v) for v in vals], 2)
    elems = list(range(-4, 5))
    fam = ExplicitFamily(Z, [set(elems)])
    got = ergodic_average(system, fam, 1, f)
    expect = exact_average(system, elems, vals)
    assert np.allclose(got.values, [float(v) for v in expect], atol=1e-12)


def test_interval_fast_path_equals_generic():
    system = rotation_system(12)
    boxes = standard_family(Z, 25)
    explicit = ExplicitFamily(Z, [boxes.elements(n) for n in range(1, 26)])
    rng = np.random.default_rng(11)
    f = system.observable(rng.normal(size=12), 2.5)
    for n in (1, 6, 25):
        fast = ergodic_average(system, boxes, n, f)
        slow = ergodic_average(system, explicit, n, f)
        assert np.allclose(fast.values, slow.values, atol=1e-12)


def test_interval_fast_path_multi_cycle_permutation():
    # generator with cycle structure 5 + 4 + 2 + 1: the residue-counting route
    # must agree with the literal element sum cycle by cycle
    perm = [1, 2, 3, 4, 0, 6, 7, 8, 5, 10, 9, 11]
    system = FiniteMeasureSystem(Z, [Fraction(1, 12)] * 12, {"t": perm})
    boxes = standard_family(Z, 30)
    explicit = ExplicitFamily(Z, [boxes.elements(n) for n in range(1, 31)])
    rng = np.random.default_rng(4)
    f = system.observable(rng.normal(size=12), 2)
    for n in (1, 7, 30):
        fast = ergodic_average(system, boxes, n, f)
        slow = ergodic_average(system, explicit, n, f)
        assert np.allclose(fast.values, slow.values, atol=1e-12)
        op = average_operator(system, boxes, n)
        assert np.allclose(op @ f.values, slow.values, atol=1e-12)


def test_interval_fast_path_huge_radius():
    # residue counting keeps astronomically wide windows cheap and sane
    system = rotation_system(12)
    fam = standard_family(Z, 10**20)
    f = system.observable([1.0] + [0.0] * 11, 2)
    out = ergodic_average(system, fam, 10**20, f)
    assert np.allclose(out.values, 1 / 12, atol=1e-12)


def scalar_interval_average(system, radius, values):
    """The one-radius residue-counting loop: per cycle position i, sum count * f
    left to right over the cycle, then divide by 2r+1; the batched route must
    reproduce it bit for bit."""
    perm = system.generators["t"]
    n = system.n_points
    width = 2 * radius + 1
    out = np.zeros(n)
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
            seen[cycle[-1]] = True
        ln = len(cycle)
        base, rem = divmod(width, ln)
        counts = [base + (1 if (j + radius) % ln < rem else 0) for j in range(ln)]
        for i in range(ln):
            acc = 0.0
            for t in range(ln):
                acc += counts[(t - i) % ln] * values[cycle[t]]
            out[cycle[i]] = acc / float(width)
    return out


def multi_cycle_system():
    # cycles 7 + 5 + 5 + 3 + 1 + 1, weights constant on each orbit
    perm = [1, 2, 3, 4, 5, 6, 0, 8, 9, 10, 11, 7, 13, 14, 15, 16, 12, 18, 19, 17, 20, 21]
    weights = [Fraction(1, 30)] * 7 + [Fraction(1, 60)] * 10 + [Fraction(1, 20)] * 3 + [Fraction(1, 15)] * 2
    return FiniteMeasureSystem(Z, weights, {"t": perm})


def test_batched_interval_averages_match_element_sum_and_scalar_loop():
    system = multi_cycle_system()
    rng = np.random.default_rng(17)
    values = rng.normal(size=system.n_points) * 10.0 ** rng.integers(-3, 4, size=system.n_points)
    f = system.observable(values, 2)
    radii = list(range(61))
    rows = _z_interval_averages(system, radii, f.values)
    assert rows.shape == (61, system.n_points)
    boxes = ExplicitFamily(Z, [set(range(-r, r + 1)) for r in radii])
    for r in radii:
        oracle = ergodic_average(system, boxes, r + 1, f)
        assert np.allclose(rows[r], oracle.values, rtol=1e-12, atol=1e-12)
        assert np.array_equal(rows[r], scalar_interval_average(system, r, f.values))
    # a batch gives exactly the rows of one call per radius, astronomically wide ones included;
    # at r = 3 * 2^52 + 2 the 3-cycle counts are 2^53 + 1 and 2^53 + 2, which float
    # arithmetic on the counts would round together
    huge = [3, 10**20, 2**70, 10**30 + 7, 2**63 + 1, 3 * 2**52 + 2]
    batch = _z_interval_averages(system, huge, f.values)
    for r, row in zip(huge, batch):
        assert np.array_equal(row, _z_interval_averages(system, [r], f.values)[0])
        assert np.array_equal(row, scalar_interval_average(system, r, f.values))


def test_average_sequence_on_intervals_equals_per_index_averages():
    system = multi_cycle_system()
    rng = np.random.default_rng(23)
    f = system.observable(rng.normal(size=system.n_points), 3)
    refined = fast_refinement(standard_family(Z, 10**30), Fraction(1, 4), count=6)
    for family in (standard_family(Z, 40), refined):
        window = min(family.n_max, 40)
        seq = average_sequence(system, family, f, window)
        assert len(seq) == window
        for n, avg in enumerate(seq, start=1):
            assert avg.p == f.p
            assert np.array_equal(avg.values, ergodic_average(system, family, n, f).values)
    with pytest.raises(StructureError):
        average_sequence(system, standard_family(Z, 5), Observable(np.ones(3), 2), 5)


def box_families(group):
    """Boxes of radius up to 3 as a standard, an explicit and a refined family."""
    boxes = standard_family(group, 3)
    return [boxes, ExplicitFamily(group, [boxes.elements(n) for n in (1, 2)]), RefinedFamily(boxes, [1, 3])]


@pytest.mark.parametrize(
    "system, group_name",
    [(rotation_system(7), "Z"), (torus_translation_system(3, 4), "Z^2"), (heisenberg_torus_system(3, 3), "H3")],
    ids=["Z", "Z^2", "H3"],
)
def test_averages_refuse_an_index_outside_the_family(system, group_name):
    f = system.observable(np.arange(system.n_points, dtype=float), 2)
    for family in box_families(group_by_name(group_name)):
        for n in (0, family.n_max + 1):
            with pytest.raises(StructureError):
                ergodic_average(system, family, n, f)
            with pytest.raises(StructureError):
                average_operator(system, family, n)


@pytest.mark.parametrize("bad", [True, 2.5, 2.0], ids=["bool", "fraction", "integral-float"])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda system, family, f, bad: ergodic_average(system, family, bad, f), StructureError),
        (lambda system, family, f, bad: average_operator(system, family, bad), StructureError),
        (lambda system, family, f, bad: average_sequence(system, family, f, bad), StructureError),
        (
            lambda system, family, f, bad: verify_main_theorem(
                system, family, None, ConvexityModulus.hanner(2), f, 0.3, window=bad
            ),
            DomainError,
        ),
    ],
    ids=["index", "operator-index", "window", "verify-window"],
)
@pytest.mark.parametrize("kind", ["standard", "explicit"])
def test_indices_and_windows_must_be_ints_not_bools(call, error, bad, kind):
    system = rotation_system(12)
    boxes = standard_family(Z, 5)
    family = boxes if kind == "standard" else ExplicitFamily(Z, [boxes.elements(n) for n in range(1, 6)])
    f = system.observable([1.0] + [0.0] * 11, 2)
    with pytest.raises(error):
        call(system, family, f, bad)


AVERAGE_CASES = [
    (multi_cycle_system(), "Z"),
    (torus_translation_system(3, 4), "Z^2"),
    (heisenberg_torus_system(3, 3), "H3"),
    (heisenberg_mod3_system()[0], "H3"),
]
AVERAGE_IDS = ["Z-multi-cycle", "Z^2", "H3", "H3-faithful"]


@pytest.mark.parametrize("system, group_name", AVERAGE_CASES, ids=AVERAGE_IDS)
def test_average_operator_columns_are_averages_of_unit_vectors(system, group_name):
    eye = np.eye(system.n_points)
    for family in box_families(group_by_name(group_name)):
        for n in range(1, family.n_max + 1):
            op = average_operator(system, family, n)
            for j in range(system.n_points):
                column = ergodic_average(system, family, n, system.observable(eye[j], 2)).values
                assert np.array_equal(op[:, j], column), (family, n, j)


@pytest.mark.parametrize("system, group_name", AVERAGE_CASES, ids=AVERAGE_IDS)
def test_average_defect_is_the_norm_of_separate_averages(system, group_name):
    rng = np.random.default_rng(31)
    for family in box_families(group_by_name(group_name)):
        f = system.observable(rng.normal(size=system.n_points), 2.5)
        for N in range(1, family.n_max + 1):
            a_n_f = ergodic_average(system, family, N, f)
            for K in range(1, family.n_max + 1):
                a_k_f = ergodic_average(system, family, K, f)
                a_k_a_n_f = ergodic_average(system, family, K, a_n_f)
                expect = lp_norm(system, Observable(a_k_f.values - a_k_a_n_f.values, f.p))
                assert average_defect(system, family, N, K, f) == expect, (family, N, K)


def test_interval_averages_of_columns_equal_one_call_per_column():
    system = multi_cycle_system()
    rng = np.random.default_rng(41)
    block = rng.normal(size=(system.n_points, 3)) * 10.0 ** rng.integers(-3, 4, size=(system.n_points, 3))
    radii = [0, 1, 6, 10**20, 3 * 2**52 + 2]
    rows = _z_interval_averages(system, radii, block)
    assert rows.shape == (len(radii), system.n_points, 3)
    for j in range(3):
        assert np.array_equal(rows[:, :, j], _z_interval_averages(system, radii, block[:, j]))


def test_average_operator_matches_direct():
    for system, group_name, window in [
        (rotation_system(12), "Z", 9),
        (torus_translation_system(4, 5), "Z^2", 4),
    ]:
        fam = standard_family(group_by_name(group_name), window)
        rng = np.random.default_rng(21)
        f = system.observable(rng.normal(size=system.n_points), 2)
        for n in (1, window):
            op = average_operator(system, fam, n)
            direct = ergodic_average(system, fam, n, f)
            assert np.allclose(op @ f.values, direct.values, atol=1e-12)


def test_contraction_across_random_observables():
    rng = np.random.default_rng(99)
    system = rotation_system(11)
    fam = standard_family(Z, 30)
    for _ in range(20):
        f = system.observable(rng.normal(size=11), float(rng.uniform(1.1, 6)))
        nf = lp_norm(system, f)
        for a in average_sequence(system, fam, f, 30):
            assert lp_norm(system, a) <= nf + 1e-10


def test_average_linearity():
    system = torus_translation_system(4, 4)
    fam = standard_family(group_by_name("Z^2"), 5)
    rng = np.random.default_rng(17)
    f = system.observable(rng.normal(size=16), 2)
    h = system.observable(rng.normal(size=16), 2)
    for n in (2, 5):
        lhs = ergodic_average(system, fam, n, system.observable(1.75 * f.values + h.values, 2))
        rhs = 1.75 * ergodic_average(system, fam, n, f).values + ergodic_average(system, fam, n, h).values
        assert np.allclose(lhs.values, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# averaging lemma (discrete sharpening) and mean convergence
# ---------------------------------------------------------------------------


def test_defect_trivial_action_is_zero():
    system = FiniteMeasureSystem(Z, [Fraction(1, 3)] * 3, {"t": [0, 1, 2]})
    fam = standard_family(Z, 10)
    f = system.observable([1.0, -2.0, 0.5], 2)
    for N, K in [(1, 2), (3, 9)]:
        assert average_defect(system, fam, N, K, f) == pytest.approx(0.0, abs=1e-14)


def test_defect_invariant_observable_is_zero():
    system = rotation_system(9)
    fam = standard_family(Z, 12)
    f = system.observable(np.full(9, 2.0), 2)
    assert average_defect(system, fam, 2, 8, f) == pytest.approx(0.0, abs=1e-12)


def test_defect_below_eta_at_certified_index():
    system = rotation_system(12)
    fam = standard_family(Z, 60)
    eta = Fraction(1, 4)
    K = convergence_modulus(fam, 2, eta).value
    assert K == 8  # 2*2/(2m+1) < 1/4 first holds at m = 8
    rng = np.random.default_rng(42)
    for _ in range(100):
        f = system.observable(rng.normal(size=12), 2)
        assert average_defect(system, fam, 2, K, f) < float(eta) * lp_norm(system, f) + 1e-10
    # the guarantee covers every K at or past the certified index
    f = system.observable(rng.normal(size=12), 2)
    for later in (K + 1, K + 9, 60):
        assert average_defect(system, fam, 2, later, f) < float(eta) * lp_norm(system, f) + 1e-10


def test_mean_convergence_rotation():
    system = rotation_system(12)
    fam = standard_family(Z, 60)
    f = system.observable([1.0] + [0.0] * 11, 2)
    mean = weighted_mean(system, f)
    avgs = average_sequence(system, fam, f, 60)
    for n in range(48, 61):
        dev = lp_norm(system, Observable(avgs[n - 1].values - mean, 2))
        assert dev <= 1e-2


def test_norm_limit_is_window_infimum_for_rotation():
    # empirical check that lim ||A_n f|| = inf ||A_n f||: the minimum over the
    # window sits within 1e-6 of the final value
    system = rotation_system(12)
    fam = standard_family(Z, 60)
    f = system.observable([1.0] + [0.0] * 11, 2)
    norms = [lp_norm(system, a) for a in average_sequence(system, fam, f, 60)]
    assert min(norms) >= norms[-1] - 1e-6
