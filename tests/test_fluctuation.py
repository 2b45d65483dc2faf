"""Fluctuation counting, theorem/corollary bounds, and the verify pipelines.

The chain oracle enumerates every index subset by bitmask, entirely
independent of the DP route.
"""

import dataclasses
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from ergolab import (
    ConvexityModulus,
    DomainError,
    ModulusEntry,
    ModulusTable,
    NotFastError,
    RefinedFamily,
    RefinementWindowError,
    StructureError,
    UncertifiedModulusError,
    build_modulus_table,
    check_fast,
    convergence_modulus,
    corollary_bound,
    default_eta,
    fast_refinement,
    group_by_name,
    lp_norm,
    max_chain,
    rotation_system,
    standard_family,
    theorem_bound,
    torus_translation_system,
    verify_corollary,
    verify_main_theorem,
)
from ergolab import fluctuation
from ergolab.dynamics import FiniteMeasureSystem, Observable, average_sequence, lp_distances
from ergolab.fluctuation import Branch

mp.mp.dps = 60
Z = group_by_name("Z")
Z2 = group_by_name("Z^2")


def scalar_distances(data):
    return [[abs(a - b) for b in data] for a in data]


def exhaustive_max_count(data, eps, beta=None):
    """Maximum admissible chain length - 1 by enumerating all subsets."""
    L = len(data)
    best = 1
    for mask in range(1, 1 << L):
        idx = [i for i in range(L) if mask >> i & 1]
        ok = True
        for a, b in zip(idx, idx[1:]):
            if abs(data[a] - data[b]) < eps:
                ok = False
                break
            if beta is not None and (b + 1) < beta[a]:
                ok = False
                break
        if ok:
            best = max(best, len(idx))
    return best - 1


# ---------------------------------------------------------------------------
# max_chain
# ---------------------------------------------------------------------------


def test_constant_sequence_has_no_fluctuations():
    rep = max_chain(scalar_distances([2.0] * 6), 0.5)
    assert rep.count == 0 and len(rep.chain) == 1


def test_alternating_example_plain():
    rep = max_chain(scalar_distances([0, 1, 0, 1]), 1.0)
    assert rep.count == 3
    assert rep.chain == [1, 2, 3, 4]
    assert rep.chain_length == 4


def test_alternating_example_at_distance():
    rep = max_chain(scalar_distances([0, 1, 0, 1]), 1.0, beta=[3, 4, 5, 6])
    assert rep.count == 1
    assert rep.chain == [1, 4]
    assert rep.mode == "at-distance"


def test_beta_must_exceed_index():
    with pytest.raises(DomainError):
        max_chain(scalar_distances([0, 1, 0]), 1.0, beta=[2, 2, 4])


def test_dp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(314)
    for _ in range(120):
        L = int(rng.integers(1, 11))
        data = list(rng.normal(size=L))
        eps = float(rng.uniform(0.1, 2.0))
        assert max_chain(scalar_distances(data), eps).count == exhaustive_max_count(data, eps)
        lam = int(rng.integers(1, 4))
        beta = [n + lam for n in range(1, L + 1)]
        assert (
            max_chain(scalar_distances(data), eps, beta=beta).count
            == exhaustive_max_count(data, eps, beta)
        )


def nested_loop_chain(d, eps, beta=None):
    """Longest-path DP by a scan over predecessors that keeps the first strict maximum."""
    L = len(d)
    best = [1] * L
    pred = [-1] * L
    for i in range(L):
        for j in range(i):
            if d[j][i] < eps or (beta is not None and i + 1 < beta[j]):
                continue
            if best[j] + 1 > best[i]:
                best[i] = best[j] + 1
                pred[i] = j
    at = best.index(max(best))
    chain = []
    while at != -1:
        chain.append(at + 1)
        at = pred[at]
    return chain[::-1]


def test_dp_chain_matches_nested_loop_reference():
    # few distinct values make many equal distances and many tied chain lengths,
    # so the choice among tied predecessors and ends is what is being checked
    rng = np.random.default_rng(1618)
    for trial in range(300):
        L = int(rng.integers(1, 40))
        if trial % 2:
            data = list(rng.integers(0, 4, size=L).astype(float))
            d = scalar_distances(data)
        else:
            upper = np.triu(rng.choice([0.0, 0.5, 1.0, 1.5], size=(L, L)), 1)
            d = (upper + upper.T).tolist()
        eps = float(rng.choice([0.5, 1.0, 1.5]))
        rep = max_chain(d, eps)
        assert rep.chain == nested_loop_chain(d, eps)
        assert rep.count == len(rep.chain) - 1
        beta = [n + int(rng.integers(1, 5)) for n in range(1, L + 1)]
        if L > 2:
            beta[int(rng.integers(L))] = 10**30  # an index no chain may leave
        rep = max_chain(d, eps, beta=beta)
        assert rep.chain == nested_loop_chain(d, eps, beta)
        assert rep.beta_used == beta


def test_count_monotone_in_eps_and_beta():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        data = list(rng.normal(size=10))
        d = scalar_distances(data)
        counts = [max_chain(d, eps).count for eps in (0.2, 0.5, 1.0, 2.0)]
        assert counts == sorted(counts, reverse=True)
        b1 = [n + 1 for n in range(1, 11)]
        b2 = [n + 3 for n in range(1, 11)]
        assert max_chain(d, 0.5, beta=b2).count <= max_chain(d, 0.5, beta=b1).count


def test_nonfinite_distances_rejected():
    with pytest.raises(StructureError):
        max_chain([[0.0, float("nan")], [float("nan"), 0.0]], 1.0)


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0])
def test_eps_must_be_positive_nan_included(eps):
    with pytest.raises(DomainError):
        max_chain(scalar_distances([0, 1, 0]), eps)


def test_infinite_eps_is_accepted_and_admits_no_jump():
    assert max_chain(scalar_distances([0, 1, 0]), float("inf")).count == 0


def test_pairwise_norms_bitwise_equal_per_pair_lp_norm():
    rng = np.random.default_rng(2024)
    # Z on 24 points in cycles 10 + 8 + 6, a Z^2 action on two 3 x 4 tori;
    # weights differ from orbit to orbit
    z_perm = [(s + 1) % 10 for s in range(10)] + [10 + (s + 1) % 8 for s in range(8)]
    z_perm += [18 + (s + 1) % 6 for s in range(6)]
    z_weights = [Fraction(1, 40)] * 10 + [Fraction(3, 80)] * 8 + [Fraction(1, 20)] * 6
    torus = torus_translation_system(3, 4)
    gens = {k: list(v) + [12 + i for i in v] for k, v in torus.generators.items()}
    z2_weights = [Fraction(1, 36)] * 12 + [Fraction(1, 18)] * 12
    systems = [
        (FiniteMeasureSystem(Z, z_weights, {"t": z_perm}), standard_family(Z, 30), 30),
        (FiniteMeasureSystem(Z2, z2_weights, gens), standard_family(Z2, 6), 6),
    ]
    for system, family, window in systems:
        for p in (1.5, 2.0, 3.0):
            f = system.observable(rng.normal(size=system.n_points) * 3.0, p)
            avgs = average_sequence(system, family, f, window)
            avgs += [system.observable(rng.normal(size=system.n_points) * 10.0**k, p) for k in (-6, 0, 5)]
            mat = lp_distances(system, avgs)
            L = len(avgs)
            expect = np.zeros((L, L))
            for i in range(L):
                for j in range(L):
                    if i != j:
                        expect[i, j] = lp_norm(system, Observable(avgs[i].values - avgs[j].values, p))
            assert np.array_equal(mat, expect)


def beta_maps(rng, L):
    """Valid at-distance maps on 1..L of each kind a caller may hand over."""
    steps = rng.integers(1, 6, size=L)
    envelope = np.maximum.accumulate(np.arange(1, L + 1) + steps)  # nondecreasing, as the verifier builds them
    arbitrary = [n + int(rng.integers(1, L + 2)) for n in range(1, L + 1)]
    past_end = [v if rng.random() < 0.6 else L + 1 + int(rng.integers(0, 3)) * 10**30 for v in arbitrary]
    return {
        "envelope": [int(v) for v in envelope],
        "arbitrary": arbitrary,
        "past-end": past_end,
        "numpy": list(np.array(arbitrary, dtype=np.int64)),  # numpy integer values
        "adjacent": [n + 1 for n in range(1, L + 1)],  # every pair admitted
        "none": [L + 1] * L,  # no pair admitted
    }


def admitted(beta, L):
    """The entries lp_distances(..., beta) fills: row n at m >= max(n + 1, beta(n)), mirrored."""
    upper = np.zeros((L, L), dtype=bool)
    for i, b in enumerate(beta):
        upper[i, max(i + 1, min(int(b), L + 1) - 1) :] = True
    return upper | upper.T


def test_distances_restricted_to_a_beta_map_are_the_full_tables_entries():
    rng = np.random.default_rng(4242)
    z_perm = [(s + 1) % 10 for s in range(10)] + [10 + (s + 1) % 7 for s in range(7)]
    z_weights = [Fraction(1, 30)] * 10 + [Fraction(2, 21)] * 7
    systems = [
        (FiniteMeasureSystem(Z, z_weights, {"t": z_perm}), standard_family(Z, 25), 25),
        (torus_translation_system(3, 4), standard_family(Z2, 6), 6),
    ]
    checked = set()
    for system, family, window in systems:
        for p in (1.5, 2.0, 3.0):
            f = system.observable(rng.normal(size=system.n_points) * 2.0, p)
            avgs = average_sequence(system, family, f, window)
            avgs += [system.observable(rng.normal(size=system.n_points) * 10.0**k, p) for k in (-3, 0, 2)]
            L = len(avgs)
            full = lp_distances(system, avgs)
            for kind, beta in beta_maps(rng, L).items():
                table = lp_distances(system, avgs, beta=beta)
                mask = admitted(beta, L)
                expect = np.where(mask, full, 0.0)
                assert table.shape == (L, L) and table.dtype == np.float64
                assert np.array_equal(table.view(np.int64), expect.view(np.int64)), kind  # bitwise
                later = [b + int(rng.integers(0, 3)) for b in beta]  # a map at least beta serves too
                for eps in (0.05, 0.3, 1.0):
                    for b in (beta, later):
                        got, want = max_chain(table, eps, b), max_chain(full, eps, b)
                        assert (got.chain, got.count, got.beta_used) == (want.chain, want.count, want.beta_used)
                        checked.add(got.count > 0)
    assert checked == {True, False}  # both chains with jumps and without


def test_distances_restricted_to_a_beta_map_refuse_a_malformed_map():
    system = rotation_system(4)
    avgs = [system.observable(np.arange(4.0) * k, 2) for k in range(3)]
    with pytest.raises(StructureError):
        lp_distances(system, avgs, beta=[2, 3])
    for bad in ([2, 3.0, 4], [2, True, 4], [2, "3", 4]):
        with pytest.raises(DomainError):
            lp_distances(system, avgs, beta=bad)


def recorded_tables(monkeypatch) -> list:
    """Every distance table the verifiers hand to max_chain, in call order."""
    tables = []

    def recording(distances, eps, beta=None):
        tables.append(np.array(distances))
        return max_chain(distances, eps, beta)

    monkeypatch.setattr(fluctuation, "max_chain", recording)
    return tables


def test_verify_main_on_small_moduli_counts_over_the_admitted_pairs(monkeypatch):
    # a hand-made table of small moduli admits many pairs, so the counts are nonzero
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable(np.random.default_rng(11).normal(size=12), 2)
    hm = ConvexityModulus.hanner(2)
    norm = lp_norm(system, f)
    epsilons = [0.02, 0.05, 0.1]
    # the two smaller eps read the first tolerance's moduli, the largest the second's
    low, high = (Branch.of(hm, norm, eps).tolerance for eps in (0.02, 0.1))
    entries = [ModulusEntry(n, low, n + 2 + n % 3, "empirical", None) for n in range(1, 31)]
    entries += [ModulusEntry(n, high, n + 1, "empirical", None) for n in range(1, 31)]
    tables = recorded_tables(monkeypatch)
    reports = verify_main_theorem(system, fam, ModulusTable("Z", "hand", entries), hm, f, epsilons, window=30)
    full = lp_distances(system, average_sequence(system, fam, f, 30))
    for rep in reports:
        want = max_chain(full, rep.epsilon, rep.beta_used)
        assert (rep.chain, rep.count, rep.beta_used) == (want.chain, want.count, want.beta_used)
    assert reports[0].beta_used[:4] == [4, 6, 6, 7]  # the envelope of n + 2 + n % 3
    assert reports[2].beta_used == list(range(2, 32))
    assert all(rep.count > 0 for rep in reports)
    # one table, holding the pairs the least map admits
    least = [min(vals) for vals in zip(*(rep.beta_used for rep in reports))]
    assert len(tables) == 3 and all(t is not None for t in tables)
    assert np.array_equal(tables[0], np.where(admitted(least, 30), full, 0.0))


def test_verify_main_on_the_wide_z_shape_evaluates_no_distance(monkeypatch):
    # Z on 24 points, window 400: every branch tolerance puts beta(1) past the window
    system = rotation_system(24)
    fam = standard_family(Z, 400)
    f = system.observable(np.random.default_rng(0).normal(size=24), 2)
    hm = ConvexityModulus.hanner(2)
    epsilons = [0.05, 0.1, 0.2]
    tables = recorded_tables(monkeypatch)
    reports = verify_main_theorem(system, fam, None, hm, f, epsilons, window=400)
    assert len(tables) == 3 and all(t.shape == (400, 400) and not t.any() for t in tables)
    assert all(rep.beta_used[0] > 400 for rep in reports)
    full = lp_distances(system, average_sequence(system, fam, f, 400))
    assert full.any()
    for rep in reports:
        want = max_chain(full, rep.epsilon, rep.beta_used)
        assert (rep.chain, rep.count, rep.beta_used) == (want.chain, want.count, want.beta_used)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_theorem_bound_flat_modulus_example():
    flat = ConvexityModulus.from_delta(lambda e: 0.2 / e * 2 * 0.5)  # u = 0.1 at any eps
    assert theorem_bound(flat, 1.0, 0.5, 0.01) == 25


def test_theorem_bound_invariant_vector_lower_bound():
    hm = ConvexityModulus.hanner(2)
    eta = 0.25 * hm(0.5)
    assert theorem_bound(hm, 1.0, 0.5, eta, lower=1.0) == 0


def test_theorem_bound_hanner_example_against_mpmath():
    hm = ConvexityModulus.hanner(2)
    eta = 0.25 * hm(0.5)
    got = theorem_bound(hm, 1.0, 0.5, eta)
    e = mp.mpf("0.5")
    u = e / 2 - (e / 2) * (1 - (e / 2) ** 2) ** mp.mpf("0.5")
    assert got == int(mp.floor(1 / (u / 2 - u / 4)))
    assert got == 503


def test_theorem_bound_branch_continuity_at_norm_one():
    hm = ConvexityModulus.hanner(3)
    for eps in (0.2, 0.5, 1.1):
        eta = 0.25 * hm(eps)
        le = theorem_bound(hm, 1.0, eps, eta)
        # the norm > 1 branch evaluated in the limit ||x|| = 1 is the same formula
        import math

        gt = math.floor(1.0 / (0.5 * hm(eps / 1.0) - eta) + 1e-12)
        assert le == gt


def test_theorem_bound_preconditions():
    hm = ConvexityModulus.hanner(2)
    with pytest.raises(DomainError, match="eta"):
        theorem_bound(hm, 1.0, 0.5, 0.5 * hm(0.5))
    with pytest.raises(DomainError, match="eta"):
        theorem_bound(hm, 2.0, 0.5, 0.5 * hm(0.25))
    with pytest.raises(DomainError, match="lower"):
        theorem_bound(hm, 1.0, 0.5, 0.25 * hm(0.5), lower=1.5)
    with pytest.raises(DomainError):
        theorem_bound(hm, -1.0, 0.5, 1e-4)


def test_corollary_bound_examples():
    flat = ConvexityModulus.from_delta(lambda e: 0.2 / e * 2 * 0.5)
    assert corollary_bound(flat, 1.0, 0.5, 0.01, 1) == 26
    tiny = ConvexityModulus.from_delta(lambda e: 1.0)  # u = eps/2
    # inner bound 0: norm 0 numerator
    assert corollary_bound(tiny, 0.0, 0.5, 0.05, 3) == 3
    hm = ConvexityModulus.hanner(2)
    eta = 0.25 * hm(0.5 / 2.0)
    inner = theorem_bound(hm, 2.0, 0.5, eta)
    assert corollary_bound(hm, 2.0, 0.5, eta, 2) == 2 * inner + 2
    with pytest.raises(DomainError):
        corollary_bound(hm, 1.0, 0.5, eta, 0)


@pytest.mark.parametrize("norm", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eta", [1e-4, 1e-310, 1e-320, 1e-323, 2.5e-323])
def test_branch_tolerance_errs_below_the_exact_tolerance(eta, norm):
    flat = ConvexityModulus.from_delta(lambda e: 0.2 / e * 2 * 0.5)  # u = 0.1 at any eps
    branch = Branch.of(flat, norm, 0.5, eta)
    exact = Fraction(eta) / (3 * min(Fraction(norm), 1))
    try:
        tolerance = branch.tolerance
    except DomainError:
        assert eta < 1e-300  # only a subnormal quotient is refused
    else:
        assert 0 < tolerance < exact


def test_branch_refuses_a_negative_norm():
    hm = ConvexityModulus.hanner(2)
    with pytest.raises(DomainError, match="norm must be nonnegative"):
        Branch.of(hm, -1.0, 0.5)
    assert Branch.of(hm, 0.0, 0.5).bound() == 0


def test_default_eta_is_quarter_u():
    hm = ConvexityModulus.hanner(2)
    assert default_eta(hm, 0.7, 0.5) == 0.25 * hm(0.5)
    assert default_eta(hm, 2.0, 0.5) == 0.25 * hm(0.25)


# ---------------------------------------------------------------------------
# verify pipelines
# ---------------------------------------------------------------------------


def test_verify_main_invariant_observable():
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable(np.full(12, 0.8), 2)
    [rep] = verify_main_theorem(system, fam, None, ConvexityModulus.hanner(2), f, [0.3], window=30)
    assert rep.verdict and rep.count == 0


def test_verify_main_rotation_pipeline():
    system = rotation_system(12)
    fam = standard_family(Z, 60)
    f = system.observable([1.0] + [0.0] * 11, 2)
    [rep] = verify_main_theorem(system, fam, None, ConvexityModulus.hanner(2), f, [0.3], window=60)
    assert rep.verdict is True
    assert rep.mode == "at-distance"
    assert rep.branch == "norm<=1"
    assert rep.count <= rep.bound
    assert len(rep.beta_used) == 60
    assert all(b > n for n, b in enumerate(rep.beta_used, start=1))


def test_verify_main_norm_gt1_branch():
    system = rotation_system(10)
    rng = np.random.default_rng(8)
    f = system.observable(rng.normal(size=10) * 6.0, 2)
    assert lp_norm(system, f) > 1
    fam = standard_family(Z, 40)
    [rep] = verify_main_theorem(system, fam, None, ConvexityModulus.hanner(2), f, [0.4], window=40)
    assert rep.branch == "norm>1" and rep.verdict


def test_verify_main_zero_observable_short_circuits():
    system = rotation_system(6)
    fam = standard_family(Z, 10)
    f = system.observable(np.zeros(6), 2)
    [rep] = verify_main_theorem(system, fam, None, ConvexityModulus.hanner(2), f, [0.3], window=10)
    assert rep.verdict and rep.branch == "zero" and rep.count == 0 and rep.bound == 0


def test_verify_main_refuses_uncertified_table():
    system = rotation_system(12)
    fam = standard_family(Z, 60)
    f = system.observable([1.0] + [0.0] * 11, 2)
    # a table at far too coarse a tolerance cannot certify the branch tolerance
    coarse = build_modulus_table(fam, range(1, 61), [Fraction(1, 2)])
    with pytest.raises(UncertifiedModulusError):
        verify_main_theorem(system, fam, coarse, ConvexityModulus.hanner(2), f, [0.3], window=60)


def test_verify_main_accepts_fine_enough_table():
    system = rotation_system(12)
    fam = standard_family(Z, 60)
    f = system.observable([1.0] + [0.0] * 11, 2)
    norm = lp_norm(system, f)
    hm = ConvexityModulus.hanner(2)
    eps_beta = Branch.of(hm, norm, 0.3, None).tolerance
    fine = build_modulus_table(fam, range(1, 61), [eps_beta / 2])
    [rep] = verify_main_theorem(system, fam, fine, hm, f, [0.3], window=60)
    assert rep.verdict


def test_verify_main_accepts_empirical_table_from_explicit_family():
    system = rotation_system(12)
    boxes = standard_family(Z, 30)
    from ergolab import ExplicitFamily

    explicit = ExplicitFamily(Z, [boxes.elements(n) for n in range(1, 31)])
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    norm = lp_norm(system, f)
    eps_beta = Branch.of(hm, norm, 0.3, None).tolerance
    try:
        table = build_modulus_table(explicit, range(1, 31), [eps_beta], m_max=30)
    except Exception:
        # a 30-window cannot certify this tolerance on explicit sets; the
        # refusal contract is exercised below instead
        table = None
    if table is not None:
        [rep] = verify_main_theorem(system, explicit, table, hm, f, [0.3], window=30)
        assert rep.verdict
    else:
        from ergolab import ModulusNotFoundError

        with pytest.raises(ModulusNotFoundError):
            verify_main_theorem(system, explicit, None, hm, f, [0.3], window=30)


def test_verify_main_eta_domain_error():
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    with pytest.raises(DomainError, match="eta"):
        verify_main_theorem(system, fam, None, hm, f, [0.3], eta=hm(0.3), window=30)


def test_verify_corollary_refuses_slow_family():
    # the verifier refines its source first: no later box of 30 is fast enough to follow F_1
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable([1.0] + [0.0] * 11, 2)
    with pytest.raises(RefinementWindowError, match=r"found 1 terms \[1\], requested 30$"):
        verify_corollary(system, fam, 1, ConvexityModulus.hanner(2), f, [0.3], window=30)


def test_verify_corollary_refuses_a_refinement_that_is_not_fast(monkeypatch):
    # a refinement step that handed back the first 8 boxes, which are not fast, is caught by check_fast
    system = rotation_system(12)
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    slow = RefinedFamily(standard_family(Z, 30), range(1, 9))
    monkeypatch.setattr(fluctuation, "fast_refinement", lambda source, eps, count: slow)
    tolerance = Branch.of(hm, lp_norm(system, f), 0.3).tolerance
    violation = check_fast(slow, 2, tolerance, 8).violation
    assert violation[:2] == (1, 3)
    with pytest.raises(NotFastError) as info:
        verify_corollary(system, standard_family(Z, 30), 2, hm, f, [0.3], window=8)
    assert str(info.value) == f"family is not (2, {tolerance})-fast over [1, 8]: violation {violation}"


def test_verify_corollary_on_a_fast_source_counts_on_the_source_itself():
    system = rotation_system(12)
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    norm = lp_norm(system, f)
    branch = Branch.of(hm, norm, 0.3)
    fast = fast_refinement(standard_family(Z, 10**30), branch.tolerance, count=8)
    [rep] = verify_corollary(system, fast, 2, hm, f, [0.3], window=8)
    assert rep.family.source is fast and rep.family.indices == list(range(1, 9))
    # the report a plain count of the fast family's own averages gives
    avgs = average_sequence(system, fast, f, 8)
    expected = max_chain(lp_distances(system, avgs), 0.3)
    expected.eta, expected.branch, expected.lam, expected.norm_x = branch.eta, branch.name, 2, norm
    expected.bound = corollary_bound(hm, norm, 0.3, branch.eta, 2)
    expected.verdict, expected.certified_window = expected.count <= expected.bound, 8
    assert rep == expected and rep.to_jsonable() == expected.to_jsonable()
    assert all(np.array_equal(a.values, b.values) for a, b in zip(rep.averages, avgs))


def test_verify_corollary_refined_pipeline():
    system = rotation_system(12)
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    norm = lp_norm(system, f)
    eps_fast = Branch.of(hm, norm, 0.3, None).tolerance
    refined = fast_refinement(standard_family(Z, 10**30), eps_fast, count=8)
    [rep] = verify_corollary(system, refined, 1, hm, f, [0.3], window=8)
    assert rep.verdict is True
    assert rep.mode == "plain"
    assert rep.lam == 1
    assert rep.bound == rep.count or rep.bound >= rep.count


def test_verify_corollary_invariant_observable():
    system = rotation_system(12)
    f = system.observable(np.full(12, 1.2), 2)
    hm = ConvexityModulus.hanner(2)
    eps_fast = Branch.of(hm, lp_norm(system, f), 0.3, None).tolerance
    refined = fast_refinement(standard_family(Z, 10**30), eps_fast, count=5)
    [rep] = verify_corollary(system, refined, 1, hm, f, [0.3], window=5)
    assert rep.verdict and rep.count == 0


def test_report_serialization_keys():
    system = rotation_system(12)
    fam = standard_family(Z, 20)
    f = system.observable([1.0] + [0.0] * 11, 2)
    [rep] = verify_main_theorem(system, fam, None, ConvexityModulus.hanner(2), f, [0.3], window=20)
    doc = rep.to_jsonable()
    for key in ("epsilon", "eta", "branch", "bound", "count", "chain", "beta_used", "certified_window", "verdict"):
        assert key in doc
    assert doc["chain_length"] == doc["count"] + 1


def test_each_verifier_call_evaluates_the_modulus_once():
    from ergolab.convexity import hanner_delta

    calls = []
    counting = ConvexityModulus.from_delta(lambda e: calls.append(e) or hanner_delta(2.0, e))
    hm = ConvexityModulus.hanner(2)
    system = rotation_system(12)
    f = system.observable([1.0] + [0.0] * 11, 2)
    norm = lp_norm(system, f)

    [rep] = verify_main_theorem(system, standard_family(Z, 30), None, counting, f, [0.3], window=30)
    assert len(calls) == 1
    assert rep.bound == theorem_bound(hm, norm, 0.3, rep.eta)

    refined = fast_refinement(standard_family(Z, 10**30), Branch.of(hm, norm, 0.3).tolerance, count=6)
    calls.clear()
    [rep] = verify_corollary(system, refined, 2, counting, f, [0.3], window=6)
    assert len(calls) == 1
    assert rep.bound == corollary_bound(hm, norm, 0.3, rep.eta, 2)


# ---------------------------------------------------------------------------
# one verifier call over several epsilons
# ---------------------------------------------------------------------------

EPSILONS = [0.05, 0.1, 0.2]


def _verifier_calls():
    """(id, call(epsilons)) for main and corollary mode, the zero observable and a fixed eta."""
    system = rotation_system(12)
    hm = ConvexityModulus.hanner(2)
    f = system.observable([1.0] + [0.0] * 11, 2)
    zero = system.observable(np.zeros(12), 2)
    boxes = standard_family(Z, 30)
    eta = 0.5 * default_eta(hm, lp_norm(system, f), EPSILONS[0])  # inside every eps's precondition
    # fast at the least tolerance any of these calls asks for, hence at every other
    tolerance = Branch.of(hm, lp_norm(system, f), EPSILONS[0], eta).tolerance
    refined = fast_refinement(standard_family(Z, 10**30), tolerance, count=5)
    return [
        ("main", lambda eps: verify_main_theorem(system, boxes, None, hm, f, eps, window=30)),
        ("main-zero", lambda eps: verify_main_theorem(system, boxes, None, hm, zero, eps, window=30)),
        ("main-fixed-eta", lambda eps: verify_main_theorem(system, boxes, None, hm, f, eps, window=30, eta=eta)),
        ("corollary", lambda eps: verify_corollary(system, refined, 1, hm, f, eps, window=5)),
        ("corollary-zero", lambda eps: verify_corollary(system, boxes, 2, hm, zero, eps, window=8)),
        ("corollary-fixed-eta", lambda eps: verify_corollary(system, refined, 1, hm, f, eps, window=5, eta=eta)),
    ]


@pytest.mark.parametrize("case", range(6), ids=[name for name, _ in _verifier_calls()])
def test_one_call_over_several_epsilons_equals_one_call_per_eps(case):
    _, call = _verifier_calls()[case]
    together = call(EPSILONS)
    apart = [rep for eps in EPSILONS for rep in call([eps])]
    assert [r.epsilon for r in together] == EPSILONS
    assert [r.to_jsonable() for r in together] == [r.to_jsonable() for r in apart]
    assert together == apart


def test_reports_of_one_call_share_the_window_averages():
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable([1.0] + [0.0] * 11, 2)
    reports = verify_main_theorem(system, fam, None, ConvexityModulus.hanner(2), f, EPSILONS, window=30)
    avgs = reports[0].averages
    assert all(rep.averages is avgs for rep in reports)
    expected = average_sequence(system, fam, f, 30)
    assert len(avgs) == 30 and all(np.array_equal(a.values, b.values) for a, b in zip(avgs, expected))
    # the averages are carried, not reported: absent from the JSON, the repr and equality
    assert "averages" not in reports[0].to_jsonable()
    assert "averages" not in repr(reports[0])
    other = dataclasses.replace(reports[0], averages=None)
    assert other == reports[0]


def counted_tables(monkeypatch) -> list:
    """One entry per `build_modulus_table` call the verifiers make."""
    calls = []
    monkeypatch.setattr(fluctuation, "build_modulus_table", lambda *a, **k: calls.append(a) or build_modulus_table(*a, **k))
    return calls


def test_one_call_over_several_epsilons_builds_one_modulus_table(monkeypatch):
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    tables = counted_tables(monkeypatch)
    reports = verify_main_theorem(system, fam, None, hm, f, EPSILONS, window=30)
    assert len(tables) == 1
    # the one table holds every branch tolerance over the window, as `run` writes it
    tolerances = [Branch.of(hm, lp_norm(system, f), eps).tolerance for eps in EPSILONS]
    expected = build_modulus_table(fam, range(1, 31), tolerances, m_max=30)
    assert reports[0].modulus_table.to_jsonable() == expected.to_jsonable()


def test_a_supplied_table_checks_each_of_its_tolerances_once(monkeypatch):
    # which table tolerances cover the window is decided once each, not once per branch tolerance
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    epsilons = [0.3, 0.2, 0.1, 0.05, 0.04]
    table = build_modulus_table(fam, range(1, 31), [Fraction(1, 2**k) for k in range(8, 40)], m_max=30)
    calls = []
    covers = ModulusTable.covers
    monkeypatch.setattr(ModulusTable, "covers", lambda self, window, e: calls.append(e) or covers(self, window, e))
    reports = verify_main_theorem(system, fam, table, hm, f, epsilons, window=30)
    assert sorted(calls) == table.epsilons()
    # each eps counts at the largest table tolerance at or below its branch tolerance, as before
    for eps, rep in zip(epsilons, reports):
        tolerance = Branch.of(hm, lp_norm(system, f), eps).tolerance
        chosen = max(e for e in table.epsilons() if e <= tolerance)
        alone = build_modulus_table(fam, range(1, 31), [chosen], m_max=30)
        assert rep.to_jsonable() == verify_main_theorem(system, fam, alone, hm, f, [eps], 30)[0].to_jsonable()
    # a branch tolerance below every covering one is refused with the same message
    tiny = Branch.of(hm, lp_norm(system, f), 1e-5).tolerance
    with pytest.raises(UncertifiedModulusError) as info:
        verify_main_theorem(system, fam, table, hm, f, [0.3, 1e-5], window=30)
    assert str(info.value) == (
        f"modulus table does not certify the window [1, 30] at any tolerance <= {tiny} "
        f"(have {table.epsilons()}, certified_up_to=None)"
    )


def test_reports_of_one_call_share_the_modulus_table():
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    reports = verify_main_theorem(system, fam, None, hm, f, EPSILONS, window=30)
    table = reports[0].modulus_table
    assert table is not None and all(rep.modulus_table is table for rep in reports)
    # carried, not reported: absent from the JSON, the repr and equality
    assert "modulus_table" not in reports[0].to_jsonable()
    assert "modulus_table" not in repr(reports[0])
    assert dataclasses.replace(reports[0], modulus_table=None) == reports[0]
    # a supplied table is carried as given
    supplied = build_modulus_table(fam, range(1, 31), [Fraction(1, 10**6)], m_max=30)
    assert all(rep.modulus_table is supplied for rep in verify_main_theorem(system, fam, supplied, hm, f, EPSILONS, 30))
    # no table for the zero observable
    zero = system.observable(np.zeros(12), 2)
    assert verify_main_theorem(system, fam, None, hm, zero, EPSILONS, window=30)[0].modulus_table is None
    assert verify_corollary(system, fam, 2, hm, zero, EPSILONS, window=8)[0].modulus_table is None
    # the corollary's one table holds each eps's refined family below the window, as `run` writes it
    epsilons = [0.3, 0.28]
    reports = verify_corollary(system, standard_family(Z, 10**30), 2, hm, f, epsilons, window=6)
    table = reports[0].modulus_table
    assert all(rep.modulus_table is table for rep in reports)
    entries = []
    for eps, rep in zip(epsilons, reports):
        tolerance = Branch.of(hm, lp_norm(system, f), eps).tolerance
        assert rep.family.indices == fast_refinement(standard_family(Z, 10**30), tolerance, count=6).indices
        entries += [convergence_modulus(rep.family, n, tolerance, m_max=6) for n in range(1, 6)]
    assert table.to_jsonable() == ModulusTable("Z", "refined", entries).to_jsonable()


def test_fixed_eta_refused_at_the_second_eps(monkeypatch):
    system = rotation_system(12)
    fam = standard_family(Z, 30)
    f = system.observable([1.0] + [0.0] * 11, 2)
    hm = ConvexityModulus.hanner(2)
    eta = 0.3 * hm(0.3)  # inside u(0.3)/2, outside u(0.05)/2
    tables = counted_tables(monkeypatch)
    with pytest.raises(DomainError, match=r"^eta violates its precondition 0 < eta < u\(eps\)/2: eta="):
        verify_main_theorem(system, fam, None, hm, f, [0.3, 0.05], window=30, eta=eta)
    assert tables == []  # every Branch is built before any certification
    [rep] = verify_main_theorem(system, fam, None, hm, f, [0.3], window=30, eta=eta)
    assert rep.verdict
