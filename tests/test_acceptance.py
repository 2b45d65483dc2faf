"""Acceptance criteria, one test per criterion, each printing a pass line.

Every expected value is produced by an independent route: literal counts
of box elements for ratios (the tests' own law and boxes, `group_oracles`), exhaustive subset enumeration for chains, exact
rational orbit counting for aligned averages, and re-verification of every
certified modulus over its window.
"""

import time
from fractions import Fraction

import group_oracles as literal
import numpy as np
import pytest

from ergolab import (
    ConvexityModulus,
    ExplicitFamily,
    FiniteMeasureSystem,
    Observable,
    average_operator,
    average_sequence,
    convergence_modulus,
    ergodic_average,
    fast_refinement,
    greedy_folner,
    group_by_name,
    koopman_apply,
    lp_norm,
    max_chain,
    rotation_system,
    standard_family,
    torus_translation_system,
    verify_corollary,
    verify_main_theorem,
    weighted_mean,
    worst_ratio_table,
)
from ergolab.fluctuation import Branch

Z = group_by_name("Z")
Z2 = group_by_name("Z^2")
HANNER2 = ConvexityModulus.hanner(2)

MASTER_SEED = 20240810
N_TRIALS = 100
TRIAL_EPSILONS = (0.2, 0.3, 0.5)
WINDOW = 60


def _orbits(perm):
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        nxt = perm[s]
        while nxt != s:
            seen[nxt] = True
            cyc.append(nxt)
            nxt = perm[nxt]
        out.append(cyc)
    return out


@pytest.fixture(scope="module")
def trials():
    """100 randomized Z-actions: weight-preserving permutations of <= 24 points."""
    rng = np.random.default_rng(MASTER_SEED)
    out = []
    for _ in range(N_TRIALS):
        m = int(rng.integers(2, 25))
        perm = [int(v) for v in rng.permutation(m)]
        weights = [None] * m
        for orbit in _orbits(perm):
            w = Fraction(int(rng.integers(1, 4)), int(rng.integers(m, 2 * m + 1)))
            for s in orbit:
                weights[s] = w
        system = FiniteMeasureSystem(Z, weights, {"t": perm})  # construction checks the action
        f = system.observable(rng.normal(size=m), 2)
        out.append((system, f))
    return out


def test_criterion_1_greedy_construction_guarantee():
    start = time.monotonic()
    family = greedy_folner(Z, 8)
    worst = worst_ratio_table(family, 7, 8)

    # every stage satisfies the 3/n ratio bound, exactly
    for n in range(2, 9):
        assert worst[(n - 1, n)] < Fraction(3, n), (n, worst[(n - 1, n)])

    # beta(n, 1/k) = max{n+1, 3k} certifies over the built window
    for n in range(1, 8):
        for k in range(1, 6):
            claimed = max(n + 1, 3 * k)
            for m in range(claimed, 9):
                assert worst[(n, m)] < Fraction(1, k), (n, k, m, worst[(n, m)])

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: greedy guarantee max(n+1,3k) and 3/n bound ({elapsed:.1f}s)")


def test_criterion_2_averaging_lemma_discrete():
    start = time.monotonic()
    rng = np.random.default_rng(MASTER_SEED + 1)
    cases = [
        (rotation_system(12), standard_family(Z, 100)),
        (torus_translation_system(10, 10), standard_family(Z2, 100)),
    ]
    etas = (Fraction(1, 4), Fraction(1, 8))
    checked = 0
    for system, family in cases:
        observables = [system.observable(rng.normal(size=system.n_points), 2) for _ in range(100)]
        operators = {}

        def op(n):
            if n not in operators:
                operators[n] = average_operator(system, family, n)
            return operators[n]

        for N in range(1, 6):
            for eta in etas:
                entry = convergence_modulus(family, N, eta)
                assert entry.kind == "analytic"
                K = entry.value
                a_n, a_k = op(N), op(K)
                for f in observables:
                    defect = lp_norm(
                        system, Observable(a_k @ f.values - a_k @ (a_n @ f.values), 2)
                    )
                    assert defect < float(eta) * lp_norm(system, f) + 1e-10
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert checked == 2 * 100 * 5 * 2
    print(f"PASS criterion 2: averaging-lemma defect < eta*norm on {checked} cases ({elapsed:.1f}s)")


def test_criterion_3_main_theorem_campaign(trials):
    start = time.monotonic()
    family = standard_family(Z, WINDOW)
    violations = 0
    for system, f in trials:
        for eps in TRIAL_EPSILONS:
            [rep] = verify_main_theorem(system, family, None, HANNER2, f, [eps], window=WINDOW)
            if not rep.verdict:
                violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 600.0
    print(
        f"PASS criterion 3: main-theorem verdict true in {len(trials) * len(TRIAL_EPSILONS)} "
        f"runs, zero violations ({elapsed:.1f}s)"
    )


def test_criterion_4_corollary_on_fast_refinements(trials):
    start = time.monotonic()
    source = standard_family(Z, 10**60)
    lam = 1
    count = 6
    for system, f in trials:
        norm = lp_norm(system, f)
        for eps in TRIAL_EPSILONS:
            eps_fast = Branch.of(HANNER2, norm, eps, None).tolerance
            refined = fast_refinement(source, eps_fast, count=count)
            [rep] = verify_corollary(system, refined, lam, HANNER2, f, [eps], window=count)
            assert rep.verdict, (eps, rep.count, rep.bound)
    elapsed = time.monotonic() - start
    print(
        f"PASS criterion 4: corollary count <= lam*floor(...)+lam on "
        f"{len(trials) * len(TRIAL_EPSILONS)} fast-refined runs ({elapsed:.1f}s)"
    )


def _exhaustive_max_count(data, eps, beta=None):
    L = len(data)
    best = 1
    for mask in range(1, 1 << L):
        idx = [i for i in range(L) if mask >> i & 1]
        ok = True
        for a, b in zip(idx, idx[1:]):
            if abs(data[a] - data[b]) < eps or (beta is not None and (b + 1) < beta[a]):
                ok = False
                break
        if ok:
            best = max(best, len(idx))
    return best - 1


def test_criterion_5_fluctuation_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(MASTER_SEED + 5)
    for _ in range(500):
        L = int(rng.integers(1, 13))
        data = list(rng.normal(size=L))
        eps = float(rng.uniform(0.05, 2.5))
        table = [[abs(a - b) for b in data] for a in data]
        assert max_chain(table, eps).count == _exhaustive_max_count(data, eps)
        lam = int(rng.integers(1, 5))
        beta = [n + lam for n in range(1, L + 1)]
        assert max_chain(table, eps, beta=beta).count == _exhaustive_max_count(data, eps, beta)
    elapsed = time.monotonic() - start
    print(f"PASS criterion 5: DP equals exhaustive enumeration on 500 sequences, both modes ({elapsed:.1f}s)")


def test_criterion_6_contraction_and_isometry(trials):
    start = time.monotonic()
    family = standard_family(Z, WINDOW)
    rng = np.random.default_rng(MASTER_SEED + 6)
    pool = literal.prefix(Z, 40)
    for system, f in trials:
        nf = lp_norm(system, f)
        for _ in range(5):
            g = pool[int(rng.integers(len(pool)))]
            assert abs(lp_norm(system, koopman_apply(system, g, f)) - nf) <= 1e-10
        for a in average_sequence(system, family, f, WINDOW):
            assert lp_norm(system, a) <= nf + 1e-10
    elapsed = time.monotonic() - start
    print(f"PASS criterion 6: isometry and contraction across all trials ({elapsed:.1f}s)")


def test_criterion_7_mean_convergence():
    start = time.monotonic()
    system = rotation_system(12)
    f = system.observable([1.0] + [0.0] * 11, 2)
    mean = weighted_mean(system, f)

    # box family: within 1e-2 of the mean projection for all n >= 48
    avgs = average_sequence(system, standard_family(Z, WINDOW), f, WINDOW)
    for n in range(48, WINDOW + 1):
        dev = lp_norm(system, Observable(avgs[n - 1].values - mean, 2))
        assert dev <= 1e-2, (n, dev)

    # orbit-aligned one-sided windows {0..n-1}, n = 12k: exactly the mean.
    # The oracle runs in exact rationals, independent of the float pipeline.
    f_exact = [Fraction(1)] + [Fraction(0)] * 11
    # g . s for g = 0..n-1 is s stepped g times along the generator's image list
    perm = system.generators["t"].tolist()
    aligned = [12 * k for k in range(1, 6)]
    for n in aligned:
        exact = []
        for s in range(12):
            acc = Fraction(0)
            point = s
            for _ in range(n):
                acc += f_exact[point]
                point = perm[point]
            exact.append(acc / n)
        assert all(v == Fraction(1, 12) for v in exact)  # exactly the weighted mean
    # float pipeline agrees to machine precision at the aligned windows
    one_sided = ExplicitFamily(Z, [set(range(n)) for n in aligned])
    for j, n in enumerate(aligned, start=1):
        out = ergodic_average(system, one_sided, j, f)
        dev = lp_norm(system, Observable(out.values - mean, 2))
        assert dev <= 1e-12, (n, dev)
    elapsed = time.monotonic() - start
    print(f"PASS criterion 7: mean convergence <= 1e-2 past n=48; exact at aligned windows ({elapsed:.1f}s)")


def test_criterion_8_closed_form_ratio_agreement():
    start = time.monotonic()
    fam_z = standard_family(Z, 30)
    for m in range(1, 31):
        L = 2 * m + 1
        for g in sorted(fam_z.elements(5)):
            # 2|k|/(2m+1), saturating at 2 once the translate is disjoint
            expected = Fraction(2 * min(abs(g), L), L)
            assert Fraction(2 * (L - literal.box_overlap(Z, m, g)), L) == expected
            if abs(g) <= L:
                assert expected == Fraction(2 * abs(g), L)

    fam_z2 = standard_family(Z2, 30)
    for m in range(1, 31):
        L = 2 * m + 1
        for g in sorted(fam_z2.elements(5)):
            k1, k2 = abs(g[0]), abs(g[1])
            expected = Fraction(2 * (L * L - max(0, L - k1) * max(0, L - k2)), L * L)
            assert Fraction(2 * (L * L - literal.box_overlap(Z2, m, g)), L * L) == expected
            if (k1 == 0 or k2 == 0) and max(k1, k2) <= L:
                # additive per axis on axis translations
                assert expected == Fraction(2 * (k1 + k2), L)
    elapsed = time.monotonic() - start
    print(f"PASS criterion 8: set-arithmetic ratios equal Z and Z^2 closed forms exactly ({elapsed:.1f}s)")
