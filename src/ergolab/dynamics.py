"""Finite measure-preserving systems and ergodic averages of Koopman actions.

A system is a finite weighted point set together with a group action given by
generator images (permutations).  Every permutation here is a read-only numpy
index array: each generator is validated into one when the system is built,
and act(g) returns a cached one.  The action of a general element is recovered
by factoring its canonical form into generator powers (_word), each raised by
repeated squaring for any integer exponent:

    Z:    k         -> T^k
    Z^d:  (k_1...)  -> T_1^{k_1} ... T_d^{k_d}
    H3:   (a, b, c) -> X^a Y^b Z^{c - a*b}     (since x^a y^b z^m = (a, b, ab+m))

Weights are exact rationals so measure preservation is checked exactly;
observables and norms are double precision.  Every average goes through
_averages, which applies A_n to a block of observables and picks the route
once: residue counting, which never iterates an interval and so keeps averages
over astronomically large boxes cheap, when every F_n is an integer interval
acting on Z, else the element sum.  Every L^p norm goes through _lp_norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import StructureError
from .folner import FolnerFamily, as_fraction
from .groups import Group, HeisenbergGroup, IntegerGroup, LatticeGroup


def _perm_array(perm: Sequence[int], n_points: int) -> np.ndarray:
    """perm as a read-only index array; entries must be ints or numpy integers, not bools."""
    entries = list(perm)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in entries):
        raise StructureError(f"permutation entries must be integers: {perm!r}")
    if sorted(entries) != list(range(n_points)):
        raise StructureError(f"not a permutation of 0..{n_points - 1}: {perm!r}")
    arr = np.array(entries, dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _cycles(perm: Sequence[int]) -> List[List[int]]:
    """The cycles of a permutation, each starting at its least point, in order of that point."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            seen[nxt] = True
            cycle.append(nxt)
            nxt = perm[nxt]
        cycles.append(cycle)
    return cycles


def _perm_power(perm: np.ndarray, k: int) -> np.ndarray:
    """perm^k by repeated squaring, as a new array; k may be any integer, however large."""
    if k < 0:
        perm, k = np.argsort(perm), -k
    out = np.arange(perm.size)
    while k:
        if k & 1:
            out = perm[out]
        perm = perm[perm]
        k >>= 1
    return out


def _word(group: Group, g) -> List[Tuple[str, int]]:
    """g as generator powers (name, exponent), in the order they act on a point.

    Only for the groups FiniteMeasureSystem accepts: Z, Z^d and H3.
    """
    if isinstance(group, IntegerGroup):
        return [("t", g)]
    if isinstance(group, LatticeGroup):
        return [(f"t{i + 1}", k) for i, k in enumerate(g)]
    a, b, c = g  # H3
    return [("z", c - a * b), ("y", b), ("x", a)]


@dataclass(frozen=True)
class Observable:
    """A real function on the system's points, measured in the L^p norm."""

    values: np.ndarray
    p: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise StructureError(f"observable values must be a 1-d vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise StructureError("observable values must be finite")
        if not (1.0 < float(self.p) < float("inf")):
            raise StructureError(f"p must lie in (1, inf), got {self.p}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "p", float(self.p))

    def __len__(self):
        return self.values.size


class FiniteMeasureSystem:
    """Finite point set with positive rational weights and a permutation action."""

    def __init__(self, group: Group, weights: Sequence, generators: Dict[str, Sequence[int]]):
        self.group = group
        self.weights = tuple(as_fraction(w) for w in weights)
        if not self.weights:
            raise StructureError("system needs at least one point")
        if any(w <= 0 for w in self.weights):
            raise StructureError("weights must be positive rationals")
        self.n_points = len(self.weights)
        if not isinstance(group, (IntegerGroup, LatticeGroup, HeisenbergGroup)):
            raise StructureError(f"unsupported group for dynamics: {group!r}")
        names = [name for name, _ in _word(group, group.identity)]
        if set(generators) != set(names):
            raise StructureError(
                f"group {group.name} needs generators named {sorted(names)}, got {sorted(generators)}"
            )
        self.generators = {k: _perm_array(v, self.n_points) for k, v in generators.items()}
        self._check_measure_preserving()
        self._act_cache: Dict = {}
        self._weights_float = np.array([float(w) for w in self.weights])

    def _check_measure_preserving(self) -> None:
        # exact: weights constant along every generator orbit
        for name, perm in self.generators.items():
            for s, img in enumerate(perm.tolist()):
                if self.weights[img] != self.weights[s]:
                    raise StructureError(
                        f"generator {name!r} does not preserve the measure: "
                        f"weight({img}) != weight({s})"
                    )

    def act(self, g) -> np.ndarray:
        """The permutation s -> g . s, as a cached read-only index array."""
        self.group.check_element(g)
        perm = self._act_cache.get(g)
        if perm is None:
            perm = np.arange(self.n_points)
            for name, k in _word(self.group, g):
                perm = _perm_power(self.generators[name], k)[perm]
            perm.flags.writeable = False
            self._act_cache[g] = perm
        return perm

    def validate_action(self, pairs: int = 50, prefix: int = 24, seed: int = 0) -> None:
        """Check the homomorphism property act(gh) = act(g) o act(h) on sampled pairs."""
        if not np.array_equal(self.act(self.group.identity), np.arange(self.n_points)):
            raise StructureError("identity element does not act as the identity permutation")
        pool = self.group.enumerate_prefix(prefix)
        rng = np.random.default_rng(seed)
        for _ in range(pairs):
            g = pool[int(rng.integers(len(pool)))]
            h = pool[int(rng.integers(len(pool)))]
            gh = self.group.multiply(g, h)
            if not np.array_equal(self.act(gh), self.act(g)[self.act(h)]):
                raise StructureError(f"action is not a homomorphism at g={g!r}, h={h!r}")

    def observable(self, values, p: float) -> Observable:
        v = np.asarray(values, dtype=float)
        if v.size != self.n_points:
            raise StructureError(f"observable has {v.size} values for {self.n_points} points")
        return Observable(v, p)


def _check_length(system: FiniteMeasureSystem, length: int) -> None:
    if length != system.n_points:
        raise StructureError(f"observable length {length} does not match {system.n_points} points")


def koopman_apply(system: FiniteMeasureSystem, g, f: Observable) -> Observable:
    """pi(g) f = f o g^{-1}, i.e. (pi(g) f)(s) = f(g^{-1} . s)."""
    _check_length(system, len(f))
    out = np.empty_like(f.values)
    out[system.act(g)] = f.values  # out[g.s] = f(s)
    return Observable(out, f.p)


def _lp_norms(system: FiniteMeasureSystem, rows: np.ndarray, p: float) -> List[float]:
    """(sum_s mu_s |row(s)|^p)^(1/p) for each row of a 2-d array: the one L^p formula.

    Each row is one contiguous numpy sum, and the 1/p root is the scalar pow
    (Python float ** float), not an array power, whose fast paths can round
    differently in the last place; so a row's norm does not depend on its stack.
    """
    _check_length(system, rows.shape[1])
    root = 1.0 / p
    return [s ** root for s in np.sum(system._weights_float * np.abs(rows) ** p, axis=1).tolist()]


def lp_norm(system: FiniteMeasureSystem, f: Observable) -> float:
    """(sum_s mu_s |f(s)|^p)^(1/p)."""
    return _lp_norms(system, f.values[None], f.p)[0]


def lp_distances(system: FiniteMeasureSystem, avgs: Sequence[Observable]) -> np.ndarray:
    """The symmetric table of ||avgs[i] - avgs[j]||_p; the averages share one length and one p.

    Rows of the upper triangle are filled one at a time from the stacked
    averages, so memory stays O(len(avgs) * points).  Each entry is bitwise
    lp_norm(system, Observable(avgs[i] - avgs[j])).
    """
    shapes = {(len(a), a.p) for a in avgs}
    if len(shapes) != 1:
        raise StructureError(f"lp_distances needs averages of one length and one p, got {sorted(shapes)}")
    stacked = np.stack([a.values for a in avgs])
    L = len(avgs)
    mat = np.zeros((L, L))
    for i in range(L - 1):
        mat[i, i + 1 :] = mat[i + 1 :, i] = _lp_norms(system, stacked[i] - stacked[i + 1 :], avgs[0].p)
    return mat


def _z_interval_averages(system: FiniteMeasureSystem, radii: Sequence[int], values: np.ndarray) -> np.ndarray:
    """Averages of s -> f(k . s) over k in [-r, r], one row per radius r in radii.

    Never iterates an interval: within a cycle of length ln of the generator,
    the count of k hitting a residue class is floor((2r+1)/ln) plus at most
    one, so the cost is O(len(radii) * points * ln) whatever the radii.  The
    counts are exact Python integers converted once with float(), so radii
    beyond 2^63 work.

    Each entry is bitwise the sum count_t * f_t accumulated left to right over
    the cycle positions t, then divided by float(2r+1): the same operations in
    the same order for every radius and for every trailing column of values,
    so a batch gives exactly the entries that one call per radius and column gives.
    """
    out = np.zeros((len(radii),) + values.shape)
    widths = [2 * r + 1 for r in radii]
    trail = (1,) * (values.ndim - 1)  # counts and widths broadcast over the columns
    fl = np.array([float(w) for w in widths]).reshape((-1, 1) + trail)
    for cycle in _cycles(system.generators["t"].tolist()):
        ln = len(cycle)
        fvals = values[cycle]
        split = [divmod(w, ln) for w in widths]
        lo = np.array([float(base) for base, _ in split])[:, None]
        hi = np.array([float(base + 1) for base, _ in split])[:, None]
        rem = np.array([rem for _, rem in split])[:, None]
        shift = np.array([r % ln for r in radii])[:, None]
        pos = np.arange(ln)
        # counts[r, j]: number of k in [-r, r] with k = j (mod ln)
        counts = np.where((pos + shift) % ln < rem, hi, lo).reshape((len(radii), ln) + trail)
        acc = np.zeros((len(radii),) + fvals.shape)
        for t in range(ln):
            acc += counts[:, (t - pos) % ln] * fvals[t]
        out[:, cycle] = acc / fl
    return out


def _averages(
    system: FiniteMeasureSystem, family: FolnerFamily, indices: Sequence[int], values: np.ndarray
) -> np.ndarray:
    """A_n applied to values (one entry per point, then one column per observable), one row per n.

    The one place that decides the route: residue counting when every F_n is an
    integer interval acting on Z, otherwise the sum of s -> f(g . s) over F_n in
    ascending canonical form.  Either way each column is averaged as it would be alone.
    """
    _check_length(system, len(values))
    if isinstance(system.group, IntegerGroup):
        radii = [family.box_radius(n) for n in indices]
        if None not in radii:
            return _z_interval_averages(system, radii, values)
    out = np.empty((len(indices),) + values.shape)
    for row, n in zip(out, indices):
        elems = sorted(family.elements(n))
        acc = np.zeros(values.shape)
        for g in elems:
            acc += values[system.act(g)]
        row[...] = acc / len(elems)
    return out


def ergodic_average(system: FiniteMeasureSystem, family: FolnerFamily, n: int, f: Observable) -> Observable:
    """A_n f = (1/|F_n|) sum_{g in F_n} pi(g^{-1}) f; a contraction in every L^p.

    Since (pi(g^{-1}) f)(s) = f(g . s), the sum pulls values forward along the
    action.
    """
    return Observable(_averages(system, family, [n], f.values)[0], f.p)


def average_sequence(
    system: FiniteMeasureSystem, family: FolnerFamily, f: Observable, window: int
) -> List[Observable]:
    """[A_1 f, ..., A_window f], each bitwise equal to ergodic_average at its index."""
    if not (type(window) is int and 1 <= window <= family.n_max):
        raise StructureError(f"window must be in [1, {family.n_max}], got {window}")
    return [Observable(row, f.p) for row in _averages(system, family, range(1, window + 1), f.values)]


def average_operator(system: FiniteMeasureSystem, family: FolnerFamily, n: int) -> np.ndarray:
    """The matrix of A_n acting on observables: (A_n f) = M @ f; column j is A_n e_j."""
    return _averages(system, family, [n], np.eye(system.n_points))[0]


def average_defect(
    system: FiniteMeasureSystem, family: FolnerFamily, N: int, K: int, f: Observable
) -> float:
    """||A_K f - A_K A_N f||_p.

    Whenever K >= beta(N, eta) from a certified modulus table, this is below
    eta * ||f||_p (discrete sharpening of the averaging lemma).
    """
    a_n_f = _averages(system, family, [N], f.values)[0]
    a_k = _averages(system, family, [K], np.column_stack([f.values, a_n_f]))[0]
    return lp_norm(system, Observable(a_k[:, 0] - a_k[:, 1], f.p))


def weighted_mean(system: FiniteMeasureSystem, f: Observable) -> float:
    """The mean-projection value sum mu f / mu(S); the norm limit target for ergodic systems."""
    w = system._weights_float
    return float(np.dot(w, f.values) / w.sum())


# ---------------------------------------------------------------------------
# Shipped example systems
# ---------------------------------------------------------------------------


def rotation_system(modulus: int) -> FiniteMeasureSystem:
    """Z acting on Z/modulus by s -> s + 1."""
    perm = [(s + 1) % modulus for s in range(modulus)]
    return FiniteMeasureSystem(IntegerGroup(), [Fraction(1, modulus)] * modulus, {"t": perm})


def torus_translation_system(width: int, height: int) -> FiniteMeasureSystem:
    """Z^2 acting on (Z/width) x (Z/height) by coordinate shifts; points row-major."""
    m = width * height
    t1 = [((i // height + 1) % width) * height + (i % height) for i in range(m)]
    t2 = [(i // height) * height + ((i % height) + 1) % height for i in range(m)]
    return FiniteMeasureSystem(LatticeGroup(2), [Fraction(1, m)] * m, {"t1": t1, "t2": t2})


def heisenberg_torus_system(width: int, height: int) -> FiniteMeasureSystem:
    """H3(Z) acting through its abelianization on a 2-torus; the center acts trivially."""
    m = width * height
    x = [((i // height + 1) % width) * height + (i % height) for i in range(m)]
    y = [(i // height) * height + ((i % height) + 1) % height for i in range(m)]
    z = list(range(m))
    return FiniteMeasureSystem(HeisenbergGroup(), [Fraction(1, m)] * m, {"x": x, "y": y, "z": z})
