"""Counting eps-fluctuations and verifying the uniform fluctuation bounds.

A chain n_1 < ... < n_k is admissible when consecutive values are at least
eps apart and, in at-distance mode, n_{i+1} >= beta(n_i).  The maximum
admissible chain is found by longest-path dynamic programming over the
induced DAG; the fluctuation count is the number of separated consecutive
pairs, i.e. chain length minus one.  Reports carry the chain itself, so both
counting conventions (jumps = count, indices = count + 1) are visible.

Bounds take the convexity modulus u as input.  Integer floors are taken with
a 1e-12 tie guard: a value within the guard below an integer snaps up, which
keeps the closed-form examples stable under double-precision evaluation.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .convexity import ConvexityModulus
from .dynamics import FiniteMeasureSystem, Observable, average_sequence, lp_distances, lp_norm
from .errors import DomainError, NotFastError, StructureError, UncertifiedModulusError
from .folner import FolnerFamily, ModulusTable, build_modulus_table, check_fast, convergence_modulus, fast_refinement

FLOOR_GUARD = 1e-12
_EPS_DOWN = 1 - Fraction(1, 10**12)  # nudges float tolerances down before exact-rational use


def guarded_floor(value: float) -> int:
    """floor with ties within FLOOR_GUARD below an integer snapped up."""
    return int(math.floor(value + FLOOR_GUARD))


@dataclass
class FluctuationReport:
    """Outcome of a fluctuation count, optionally compared against a bound."""

    epsilon: float
    mode: str  # "plain" | "at-distance"
    chain: List[int]  # 1-based indices of a maximum admissible chain
    count: int  # len(chain) - 1
    eta: Optional[float] = None
    bound: Optional[int] = None
    verdict: Optional[bool] = None
    branch: Optional[str] = None  # "norm<=1" | "norm>1" | "zero"
    beta_used: Optional[List[int]] = None
    certified_window: Optional[int] = None
    norm_x: Optional[float] = None
    lam: Optional[int] = None
    # [A_1 f, ..., A_window f], one list shared by the reports of one verifier call
    averages: Optional[List[Observable]] = field(default=None, repr=False, compare=False)
    # the modulus table the verifier certified against, shared the same way
    modulus_table: Optional[ModulusTable] = field(default=None, repr=False, compare=False)
    # the family whose averages were counted, carried the same way
    family: Optional[FolnerFamily] = field(default=None, repr=False, compare=False)

    @property
    def chain_length(self) -> int:
        return self.count + 1

    def to_jsonable(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "eta": self.eta,
            "branch": self.branch,
            "mode": self.mode,
            "bound": self.bound,
            "count": self.count,
            "chain": list(self.chain),
            "chain_length": self.chain_length,
            "beta_used": list(self.beta_used) if self.beta_used is not None else None,
            "certified_window": self.certified_window,
            "verdict": self.verdict,
            "norm_x": self.norm_x,
            "lambda": self.lam,
        }


def _distance_matrix(distances) -> np.ndarray:
    mat = np.asarray(distances, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructureError(f"distance table must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise StructureError("distances must be finite")
    return mat


def _beta_values(beta, length: int) -> Optional[List[int]]:
    if beta is None:
        return None
    vals = list(beta)
    for v in vals:
        if not (type(v) is int or isinstance(v, np.integer)):  # int(v) would truncate a float, take a bool as 0 or 1
            raise DomainError(f"beta values must be integers, got {v!r}")
    vals = [int(v) for v in vals]
    if len(vals) != length:
        raise StructureError(f"beta needs one value per index, got {len(vals)} for length {length}")
    for n, v in enumerate(vals, start=1):
        if v <= n:
            raise DomainError(f"beta(n) > n is required, got beta({n}) = {v}")
    return vals


def max_chain(distances, eps: float, beta: Optional[Sequence[int]] = None) -> FluctuationReport:
    """Maximum admissible chain over indices 1..L via longest-path DP.

    distances: square L x L table of d(i, j) on 1-based indices.
    beta: optional at-distance map, one value beta(n) > n per index; edges
    then additionally require m >= beta(n).

    Each index takes one masked numpy step over its predecessors: the
    predecessor is the first j < i of greatest chain length among the
    admissible ones, exactly the one a scan over j with a strict > keeps, so
    the chain itself (not only its length) is that of the nested-loop DP.
    With beta the steps start at the 1-based index min(beta), the first any
    predecessor may reach; each earlier index keeps chain length 1 and no
    predecessor, as its step would.  Entries the beta mask rules out are never
    edges, so lp_distances(..., beta=b) serves any map pointwise at least b.
    """
    eps = float(eps)
    if not eps > 0:  # NaN too: no d >= NaN holds, so every count would read 0
        raise DomainError(f"eps must be positive, got {eps}")
    mat = _distance_matrix(distances)
    L = mat.shape[0]
    if L < 1:
        raise StructureError("need at least one index")
    beta_vals = _beta_values(beta, L)

    # beta beyond L + 1 admits no edge inside the table; clamping keeps the
    # comparison in int64 whatever the size of the supplied values
    beta_arr = None if beta_vals is None else np.array([min(v, L + 1) for v in beta_vals])
    best = np.ones(L, dtype=np.int64)
    pred = [-1] * L
    for i in range(1 if beta_arr is None else max(1, int(beta_arr.min()) - 1), L):
        ok = mat[:i, i] >= eps
        if beta_arr is not None:
            ok &= beta_arr[:i] <= i + 1
        cand = np.where(ok, best[:i], 0)
        j = int(np.argmax(cand))  # first maximum: the predecessor a strict > scan keeps
        if cand[j]:
            best[i] = cand[j] + 1
            pred[i] = j
    end = int(np.argmax(best))  # first maximum: deterministic chain choice
    chain = []
    at = end
    while at != -1:
        chain.append(at + 1)
        at = pred[at]
    chain.reverse()
    return FluctuationReport(
        epsilon=eps,
        mode="plain" if beta_vals is None else "at-distance",
        chain=chain,
        count=len(chain) - 1,
        beta_used=beta_vals,
    )


@dataclass(frozen=True)
class Branch:
    """The branch of the uniform bound at one (norm, eps, eta), built by `Branch.of`.

    "norm<=1" uses u_eff = u(eps), "norm>1" uses u_eff = u(eps/norm), and
    `Branch.of` refuses a negative norm and an eta outside (0, u_eff/2).
    """

    name: str
    norm: float
    u_eff: float
    eta: float

    @classmethod
    def of(cls, modulus: ConvexityModulus, norm_x: float, eps: float, eta: Optional[float] = None) -> "Branch":
        """The branch for this norm and eps; eta None means u_eff/4."""
        norm_x = float(norm_x)
        if norm_x < 0:
            raise DomainError(f"norm must be nonnegative, got {norm_x}")
        small = norm_x <= 1
        u_eff = modulus(eps) if small else modulus(eps / norm_x)
        if eta is None:
            eta = 0.25 * u_eff
        if not 0 < eta < 0.5 * u_eff:
            what = "u(eps)/2" if small else "u(eps/norm)/2"
            raise DomainError(
                f"eta violates its precondition 0 < eta < {what}: eta={eta}, {what}={0.5 * u_eff}"
            )
        return cls("norm<=1" if small else "norm>1", norm_x, u_eff, eta)

    def bound(self, lower: Optional[float] = None) -> int:
        """The uniform at-distance fluctuation bound on this branch.

        norm <= 1: floor((norm - L) / (u(eps)/2 - eta))         [L = 0 without a lower bound]
        norm >  1: floor((1 - L/norm) / (u(eps/norm)/2 - eta))
        A lower bound L, when given, must lie in [0, norm].
        """
        num = min(self.norm, 1.0)
        if lower is not None:
            lower = float(lower)
            if not 0 <= lower <= self.norm:
                raise DomainError(f"lower bound must lie in [0, norm]=[0, {self.norm}], got {lower}")
            num -= lower if self.norm <= 1 else lower / self.norm
        return guarded_floor(num / (0.5 * self.u_eff - self.eta))

    @property
    def tolerance(self) -> Fraction:
        """The exact modulus/fastness tolerance eta / (3 min(norm, 1)), nudged down.

        The theorem needs a modulus certified at a tolerance no larger than
        the exact eta / (3 min(norm, 1)), and the corollary a family fast at
        one no larger than it; a smaller tolerance only asks more of both, so
        rounding down keeps both hypotheses true.  In the normal float range
        the two roundings (the product, the quotient) are each within a
        relative 2**-53, far inside the 1e-12 nudge.  A subnormal operand or
        quotient carries a larger relative error than the nudge can absorb,
        so it is refused.
        """
        divisor = 3 * min(self.norm, 1.0)
        quotient = self.eta / divisor
        if not (divisor >= sys.float_info.min and sys.float_info.min <= quotient < math.inf):
            raise DomainError(
                f"tolerance eta / (3 min(norm, 1)) = {self.eta!r} / {divisor!r} is outside the "
                f"normal float range, where rounding it could err upwards"
            )
        return Fraction(quotient) * _EPS_DOWN


def theorem_bound(
    modulus: ConvexityModulus, norm_x: float, eps: float, eta: float, lower: Optional[float] = None
) -> int:
    """The uniform at-distance fluctuation bound, resolved across all four branches (`Branch.bound`)."""
    return Branch.of(modulus, norm_x, eps, eta).bound(lower)


def _check_lambda(lam) -> None:
    if not (type(lam) is int and lam >= 1):  # an int, not a bool
        raise DomainError(f"lambda must be an integer >= 1, got {lam!r}")


def corollary_bound(
    modulus: ConvexityModulus, norm_x: float, eps: float, eta: float, lam: int, lower: Optional[float] = None
) -> int:
    """lam * theorem_bound + lam: the plain-count bound on (lam, .)-fast families."""
    _check_lambda(lam)
    return lam * theorem_bound(modulus, norm_x, eps, eta, lower=lower) + lam


def default_eta(modulus: ConvexityModulus, norm_x: float, eps: float) -> float:
    """eta = u(branch eps)/4, safely inside the strict precondition."""
    return Branch.of(modulus, norm_x, eps).eta


def _verify(system, family, convexity_modulus, f, epsilons, window, eta, certify, lam=None) -> List[FluctuationReport]:
    """The steps both verifiers share, around their one certification step.

    Every eps's `Branch` is built first; certify(tolerances, window) checks
    the mode's hypothesis at all their tolerances and returns, one each, the
    family to count on and its at-distance map (None for a plain count), and
    the modulus table it certified against, or None.  The zero observable
    counts on `family`.  With lam the bound is lam * bound + lam.  Each
    distinct family's window is averaged once, into one distance table that
    holds the pairs its eps's maps admit: under the pointwise least of those
    maps, or every pair when one eps counts plainly.
    """
    if not (type(window) is int and 1 <= window <= family.n_max):
        raise DomainError(f"window must be in [1, {family.n_max}], got {window}")
    norm = lp_norm(system, f)
    # the zero observable has no branch and needs no certification: zip_longest pads with None
    branches = [Branch.of(convexity_modulus, norm, eps, eta) for eps in epsilons] if norm > 0.0 else []
    zero = [family] * len(epsilons), [], None
    families, betas, modulus_table = certify([b.tolerance for b in branches], window) if branches else zero

    least = {}  # id(family) -> the least at-distance map over its eps, None if one counts plainly
    for fam, beta_vals in zip(families, betas):
        prev = least.get(id(fam), beta_vals)
        least[id(fam)] = None if prev is None or beta_vals is None else list(map(min, prev, beta_vals))
    averaged = {}  # id(family) -> (its averages, their distance table)
    reports = []
    for eps, branch, fam, beta_vals in itertools.zip_longest(epsilons, branches, families, betas):
        if id(fam) not in averaged:
            avgs = average_sequence(system, fam, f, window)
            averaged[id(fam)] = avgs, (lp_distances(system, avgs, least[id(fam)]) if norm > 0.0 else None)
        avgs, table = averaged[id(fam)]
        if branch is None:
            mode = "at-distance" if lam is None else "plain"
            rep = FluctuationReport(float(eps), mode, [1], 0, bound=0, verdict=True, branch="zero", norm_x=0.0)
        else:
            rep = max_chain(table, eps, beta=beta_vals)
            bound = branch.bound()
            rep.eta = branch.eta
            rep.branch = branch.name
            rep.lam = lam
            rep.bound = bound if lam is None else lam * bound + lam
            rep.verdict = rep.count <= rep.bound
            rep.norm_x = norm
        rep.certified_window = window
        rep.averages = avgs
        rep.modulus_table = modulus_table
        rep.family = fam
        reports.append(rep)
    return reports


def verify_main_theorem(
    system: FiniteMeasureSystem,
    family: FolnerFamily,
    modulus_table: Optional[ModulusTable],
    convexity_modulus: ConvexityModulus,
    f: Observable,
    epsilons: Sequence[float],
    window: int,
    eta: Optional[float] = None,
) -> List[FluctuationReport]:
    """Count at-distance eps-fluctuations of (A_n f) against the uniform bound, one report per eps.

    The at-distance map is the nondecreasing envelope of the convergence
    modulus at the branch tolerance (eta / 3||f|| for ||f|| <= 1, else eta/3),
    clamped to at least n + 1.  With modulus_table None, one table over the
    window at every branch tolerance is built; a supplied table must cover the
    window at a tolerance at most each branch tolerance, otherwise the run is
    refused.  Each report carries the table, and `family`, averaged once.
    """

    def beta_maps(tolerances: List[Fraction], window: int):
        table = modulus_table
        if table is None:
            table = build_modulus_table(family, range(1, window + 1), tolerances, m_max=window)
        betas = []
        covering = [e for e in table.epsilons() if table.covers(window, e)]  # each table tolerance once
        for eps_beta in tolerances:
            usable = [e for e in covering if e <= eps_beta]
            if not usable:
                raise UncertifiedModulusError(
                    f"modulus table does not certify the window [1, {window}] at any tolerance <= {eps_beta} "
                    f"(have {table.epsilons()}, certified_up_to={table.certified_up_to})"
                )
            betas.append([max(v, n + 1) for n, v in enumerate(table.envelope_at(max(usable), window), start=1)])
        return [family] * len(tolerances), betas, table

    return _verify(system, family, convexity_modulus, f, epsilons, window, eta, beta_maps)


def verify_corollary(
    system: FiniteMeasureSystem,
    source: FolnerFamily,
    lam: int,
    convexity_modulus: ConvexityModulus,
    f: Observable,
    epsilons: Sequence[float],
    window: int,
    eta: Optional[float] = None,
) -> List[FluctuationReport]:
    """Count plain eps-fluctuations on fast refinements of source against lam*floor(...) + lam, one report per eps.

    Each eps counts on `fast_refinement(source, tolerance, count=window)` at its
    branch tolerance, which must pass check_fast at lam (a NotFastError if not);
    a source already (1, tolerance)-fast refines to itself.  Each report carries
    its family and one table of every family's moduli (n < window, m_max = window);
    the zero observable counts on source, with no table.  Each eps averages its
    own family: one shared refinement, at the least tolerance, would change reports.
    """
    _check_lambda(lam)

    def refine(tolerances: List[Fraction], window: int):
        families, entries = [], []
        for eps_fast in tolerances:
            fast = fast_refinement(source, eps_fast, count=window)
            fast_rep = check_fast(fast, lam, eps_fast, window)
            if not fast_rep.ok:
                raise NotFastError(
                    f"family is not ({lam}, {eps_fast})-fast over [1, {window}]: "
                    f"violation {fast_rep.violation}"
                )
            families.append(fast)
            # the last index has no within-window modulus (beta(n) > n)
            entries += [convergence_modulus(fast, n, eps_fast, m_max=window) for n in range(1, window)]
        table = ModulusTable(source.group.name, "refined", entries) if entries else None
        return families, [None] * len(tolerances), table

    return _verify(system, source, convexity_modulus, f, epsilons, window, eta, refine, lam)
