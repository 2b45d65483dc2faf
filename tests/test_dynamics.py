"""Koopman action, L^p norms, ergodic averages and the averaging lemma.

The exact oracle for averages reimplements the defining finite sum with
Fraction arithmetic and raw permutation powers, independent of the library's
float pipeline.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    ConvexityModulus,
    DomainError,
    ExplicitFamily,
    Observable,
    StructureError,
    average_block,
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
from ergolab.dynamics import _GATHER_BYTES, _POWER_MEMO, FiniteMeasureSystem, _perm_power, _z_interval_averages
from ergolab.errors import FamilyTooLargeError, GroupElementError
from ergolab.folner import MATERIALIZE_CAP, RefinedFamily
from ergolab.groups import Group, HeisenbergGroup, to_block

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


def test_act_returns_equal_read_only_arrays():
    for system, g in [(rotation_system(9), -4), (heisenberg_mod3_system()[0], (2, -1, 5))]:
        first = system.act(g)
        assert np.array_equal(system.act(g), first)
        with pytest.raises(ValueError):
            first[0] = first[1]
        for perm in system.generators.values():
            with pytest.raises(ValueError):
                perm[0] = perm[1]


def test_act_block_rows_are_the_left_action():
    big = 2**70 + 5
    h3, left = heisenberg_mod3_system()
    cases = [
        (rotation_system(7), lambda g: [(s + g) % 7 for s in range(7)], [[3], [0, -1, 5, 5, 2**63, -big]]),
        (
            torus_translation_system(4, 3),
            lambda g: [((s // 3 + g[0]) % 4) * 3 + (s % 3 + g[1]) % 3 for s in range(12)],
            [[(1, 2)], [(0, 0), (-1, 4), (2**63, -3), (big, -big), (-1, 4)]],
        ),
        # (2^40, -2^40, 3) fits int64 but its z exponent c - ab does not
        (h3, left, [[(2, -1, 5)], [(0, 0, 0), (1, 2, 3), (2**40, -(2**40), 3), (2**64, 3, -(2**65)), (-big, big, 7)]]),
    ]
    for system, action, blocks in cases:
        for elems in blocks:
            rows = system.act_block(to_block(elems))
            assert rows.shape == (len(elems), system.n_points) and not rows.flags.writeable
            assert rows.tolist() == [action(g) for g in elems], elems
        with pytest.raises(GroupElementError):
            system.act_block(np.array([0.5]))


def arrays_held_by(system):
    """The numpy arrays the system holds in its attributes, one level into containers."""
    found = []
    for value in vars(system).values():
        items = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else [value]
        found += [v for v in items if isinstance(v, np.ndarray)]
    return found


def test_acting_keeps_no_array_per_element_and_a_bounded_memo_of_powers():
    system = rotation_system(7)
    held = len(arrays_held_by(system))
    for g in range(-2500, 2500):  # 5,000 distinct elements, each its own generator power
        assert system.act(g).tolist() == [(s + g) % 7 for s in range(7)]
    assert len(arrays_held_by(system)) == held
    memo = system._power.cache_info()
    assert memo.maxsize == _POWER_MEMO and memo.currsize <= _POWER_MEMO


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


@pytest.mark.parametrize(
    "make, sizes",
    [
        (rotation_system, (0,)),
        (rotation_system, (2.5,)),
        (rotation_system, (-3,)),
        (rotation_system, (True,)),
        (torus_translation_system, (0, 3)),
        (torus_translation_system, (3, 2.0)),
        (heisenberg_torus_system, (2, 0)),
        (heisenberg_torus_system, ("2", 2)),
    ],
)
def test_shipped_systems_refuse_a_size_that_is_not_an_int_of_at_least_one(make, sizes):
    message = f"system sizes must be integers >= 1, got {', '.join(map(repr, sizes))}"
    with pytest.raises(StructureError, match=re.escape(message)):
        make(*sizes)
    assert make(*[1] * len(sizes)).n_points == 1


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
                system, family, None, ConvexityModulus.hanner(2), f, [0.3], window=bad
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


def one_point_system(group_name):
    names = {"Z^2": ("t1", "t2"), "H3": ("x", "y", "z")}[group_name]
    return FiniteMeasureSystem(group_by_name(group_name), [Fraction(1)], {k: [0] for k in names})


ORACLE_SYSTEMS = {
    "Z^2": torus_translation_system(3, 4),
    "H3": heisenberg_torus_system(3, 3),
    "H3-faithful": heisenberg_mod3_system()[0],
    "Z^2-one-point": one_point_system("Z^2"),
    "H3-one-point": one_point_system("H3"),
}


@st.composite
def oracle_families(draw, group):
    """A standard, refined or explicit family of at most three sets; explicit sets need not nest."""
    kind = draw(st.sampled_from(["standard", "refined", "explicit"]))
    boxes = standard_family(group, 2 if group.name == "H3" else 3)
    if kind == "standard":
        return boxes
    if kind == "refined":
        return RefinedFamily(boxes, sorted(draw(st.sets(st.integers(1, boxes.n_max), min_size=1))))
    pool = group.enumerate_prefix(60)
    subsets = st.sets(st.sampled_from(pool), min_size=1, max_size=25)
    return ExplicitFamily(group, draw(st.lists(subsets, min_size=1, max_size=3)))


UNIT_GENERATORS = {
    "Z": {"t": 1},
    "Z^2": {"t1": (1, 0), "t2": (0, 1)},
    "H3": {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)},
}
_PLAIN_ACTIONS = {}  # (system, g) -> plain_action(system, g)


def plain_action(system, g):
    """s -> g . s as a list, composed from the generator lists in plain Python.

    g is written as a word in the generators, x^a y^b z^(c - ab) on H3, and the
    word is checked against g by the group law; a point then takes the word's
    letters right to left, each a generator power stepped out by power_by_steps.
    """
    key = (system, g)
    if key not in _PLAIN_ACTIONS:
        group = system.group
        units = UNIT_GENERATORS[group.name]
        if group.name == "H3":
            a, b, c = g
            word = [("x", a), ("y", b), ("z", c - a * b)]
        else:
            word = list(zip(units, [g] if group.name == "Z" else g))
        product = group.identity
        for name, k in word:
            unit = units[name] if k >= 0 else group.inverse(units[name])
            for _ in range(abs(k)):
                product = group.multiply(product, unit)
        assert product == g, (g, word)
        perm = list(range(system.n_points))
        for name, k in reversed(word):
            power = power_by_steps(system.generators[name].tolist(), k)
            perm = [power[v] for v in perm]
        _PLAIN_ACTIONS[key] = perm
    return _PLAIN_ACTIONS[key]


def element_sum_oracle(system, family, indices, values):
    """For each n, sum values[g . s] over sorted(F_n) left to right, divided by |F_n|;
    g . s comes from plain_action, not from the system's own action."""
    rows = []
    for n in indices:
        elems = sorted(family.elements(n))
        acc = np.zeros(values.shape)
        for g in elems:
            acc += values[plain_action(system, g)]
        rows.append(acc / len(elems))
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(ORACLE_SYSTEMS)), shape=st.sampled_from(["1-d", "2-col", "eye"]),
       seed=st.integers(0, 2**32 - 1))
def test_element_sum_averages_are_bitwise_the_per_set_loop(data, name, shape, seed):
    system = ORACLE_SYSTEMS[name]
    family = data.draw(oracle_families(system.group))
    indices = data.draw(st.lists(st.integers(1, family.n_max), min_size=1, max_size=4))
    if shape == "eye":
        values = np.eye(system.n_points)
        for n in indices:
            expect = element_sum_oracle(system, family, [n], values)[0]
            assert np.array_equal(average_operator(system, family, n), expect)
    else:  # magnitudes spread over 16 decades, so the summation order shows in the last bits
        rng = np.random.default_rng(seed)
        size = (system.n_points,) if shape == "1-d" else (system.n_points, 2)
        values = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)
    got = average_block(system, family, indices, values)
    assert got.shape == (len(indices),) + values.shape
    assert np.array_equal(got, element_sum_oracle(system, family, indices, values))


def test_validate_action_names_the_first_sampled_pair_that_fails():
    # commuting x and y with a z that moves points: not an action of H3, whose [x, y] = z
    torus = heisenberg_torus_system(3, 3)
    gens = {name: perm.tolist() for name, perm in torus.generators.items()}
    gens["z"] = gens["x"]
    system = FiniteMeasureSystem(torus.group, torus.weights, gens)
    pool = system.group.enumerate_prefix(24)
    rng = np.random.default_rng(0)
    for _ in range(50):  # the pairs validate_action samples, in its order
        g, h = pool[int(rng.integers(len(pool)))], pool[int(rng.integers(len(pool)))]
        act_g, act_h = plain_action(system, g), plain_action(system, h)
        if plain_action(system, system.group.multiply(g, h)) != [act_g[v] for v in act_h]:
            break
    else:
        pytest.fail("no sampled pair fails")
    with pytest.raises(StructureError, match=re.escape(f"action is not a homomorphism at g={g!r}, h={h!r}")):
        system.validate_action()


BOX_FAMILIES = {
    "Z^2": (torus_translation_system(3, 4), standard_family(group_by_name("Z^2"), 5)),
    "H3": (heisenberg_mod3_system()[0], standard_family(group_by_name("H3"), 5)),
    "Z^2-refined": (
        torus_translation_system(3, 4),
        RefinedFamily(standard_family(group_by_name("Z^2"), 9), [1, 2, 4, 6, 9]),
    ),
}


@pytest.mark.parametrize("name", sorted(BOX_FAMILIES))
def test_box_averages_of_repeated_and_unordered_indices_equal_one_call_per_index(name):
    system, family = BOX_FAMILIES[name]
    rng = np.random.default_rng(7)
    values = rng.normal(size=(system.n_points, 2)) * 10.0 ** rng.integers(-8, 9, size=(system.n_points, 2))
    got = average_block(system, family, [5, 2, 5], values)
    for row, n in zip(got, [5, 2, 5]):
        assert np.array_equal(row, average_block(system, family, [n], values)[0])
    assert np.array_equal(got[1], element_sum_oracle(system, family, [2], values)[0])


def test_box_average_past_the_materialization_cap_is_refused():
    for system, family, n in [
        (torus_translation_system(3, 4), standard_family(group_by_name("Z^2"), 1001), 1001),  # 2003^2 elements
        (heisenberg_torus_system(3, 3), standard_family(group_by_name("H3"), 30), 25),  # 51^2 * 1251 elements
    ]:
        assert family.card(n) > MATERIALIZE_CAP
        with pytest.raises(FamilyTooLargeError, match=re.escape(f"box F_{n} of {system.group.name} ")):
            average_block(system, family, [1, n], np.ones(system.n_points))


def test_element_sum_gathers_in_chunks_of_bounded_bytes(monkeypatch):
    system = torus_translation_system(10, 10)
    family = standard_family(group_by_name("Z^2"), 6)
    chunks = []
    act_block = FiniteMeasureSystem.act_block
    monkeypatch.setattr(
        FiniteMeasureSystem, "act_block", lambda self, block: chunks.append(len(block)) or act_block(self, block)
    )
    op = average_operator(system, family, 6)  # one element gathers a 100 x 100 identity: 80,000 bytes
    assert sum(chunks) == family.card(6) == 169 and len(chunks) > 1
    assert max(chunks) * np.eye(100).nbytes <= _GATHER_BYTES
    monkeypatch.undo()
    assert np.array_equal(op, element_sum_oracle(system, family, [6], np.eye(100))[0])


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
