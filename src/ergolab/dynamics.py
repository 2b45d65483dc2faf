"""Finite measure-preserving systems and ergodic averages of Koopman actions.

A system is a finite weighted point set together with a group action given by
generator images (permutations).  Every permutation here is a read-only numpy
index array: each generator is validated into one when the system is built.
The action has one primitive, act_block, which takes a block of elements (a
`groups.to_block` array) and returns one permutation row per element; act(g)
is its one-row case.  Each element is factored into generator powers (_word),
one exponent column per generator; the distinct exponents of a column are
raised by repeated squaring, for any integer exponent, and memoized, at most
_POWER_MEMO powers per system; the stacked powers are then gathered once per
generator:

    Z:    k         -> T^k
    Z^d:  (k_1...)  -> T_1^{k_1} ... T_d^{k_d}
    H3:   (a, b, c) -> X^a Y^b Z^{c - a*b}     (since x^a y^b z^m = (a, b, ab+m))

Weights are exact rationals so measure preservation is checked exactly;
observables and norms are double precision.  Every average goes through
average_block, which applies A_n to a block of observables and picks the route
once: residue counting, which never iterates an interval and so keeps averages
over astronomically large boxes cheap, when the group is Z and every F_n has a
box_radius (standard or refined boxes; an explicit family's intervals have
none), else the element sum, acting once per distinct element, in chunks
whose gathered values stay within _GATHER_BYTES.  On boxes of Z^d and H3 the
element sum reads the largest box's block once, and an element is added to the
rows whose radius reaches it (Group.box_reaches); other families code their
sets' rows together (row_codes).  Every L^p norm goes through _lp_norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, StructureError
from .folner import FolnerFamily, as_fraction
from .groups import Group, HeisenbergGroup, IntegerGroup, LatticeGroup, row_codes, to_block

_POWER_MEMO = 1024  # generator powers a system keeps, least recently used dropped first
_GATHER_BYTES = 2**18  # bytes of gathered values, and of action rows, one element-sum chunk may hold


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
    """perm^k by repeated squaring, as a new read-only array; k may be any integer, however large."""
    if k < 0:
        perm, k = np.argsort(perm), -k
    out = np.arange(perm.size)
    while k:
        if k & 1:
            out = perm[out]
        perm = perm[perm]
        k >>= 1
    out.flags.writeable = False
    return out


def _word(group: Group, block: np.ndarray) -> List[Tuple[str, np.ndarray]]:
    """The rows of a nonempty `to_block` array as generator powers (name, exponent column),
    in the order they act on a point.

    Only for the groups FiniteMeasureSystem accepts: Z, Z^d and H3.
    """
    if isinstance(group, IntegerGroup):
        return [("t", block)]
    if isinstance(group, LatticeGroup):
        return [(f"t{i + 1}", block[:, i]) for i in range(group.dimension)]
    # H3; with every |coordinate| < 2^31, |c - a*b| < 2^31 + 2^62 fits int64
    if block.dtype != np.int64 or max(int(block.max()), -int(block.min())) >= 2**31:
        block = block.astype(object)
    a, b, c = block.T
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
        if not isinstance(group, (LatticeGroup, HeisenbergGroup)):
            raise StructureError(f"unsupported group for dynamics: {group!r}")
        names = [name for name, _ in _word(group, to_block([group.identity]))]
        if set(generators) != set(names):
            raise StructureError(
                f"group {group.name} needs generators named {sorted(names)}, got {sorted(generators)}"
            )
        self.generators = {k: _perm_array(v, self.n_points) for k, v in generators.items()}
        self._check_measure_preserving()
        gens = self.generators
        self._power = functools.lru_cache(_POWER_MEMO)(lambda name, k: _perm_power(gens[name], k))
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

    def act_block(self, block: np.ndarray) -> np.ndarray:
        """Row i is the permutation s -> g_i . s for row g_i of a `to_block` array.

        A new read-only (N, points) index array.  Each generator's exponent
        column is raised through its distinct values (np.unique), and the
        stacked powers are gathered once per generator, in word order.
        """
        self.group.check_elements(block)
        if not len(block):
            perms = np.empty((0, self.n_points), dtype=np.intp)
        else:
            perms = None
            for name, column in _word(self.group, block):
                exponents, which = np.unique(column, return_inverse=True)
                powers = np.stack([self._power(name, k) for k in exponents.tolist()])
                perms = powers[which] if perms is None else powers[which[:, None], perms]
        perms.flags.writeable = False
        return perms

    def act(self, g) -> np.ndarray:
        """The permutation s -> g . s, as a new read-only index array: `act_block` of one row."""
        self.group.check_element(g)
        return self.act_block(to_block([g]))[0]

    def validate_action(self, pairs: int = 50, prefix: int = 24, seed: int = 0) -> None:
        """Check the homomorphism property act(gh) = act(g) o act(h) on sampled pairs.

        The pairs act as blocks of rows g, h, gh, pair after pair, at most
        _GATHER_BYTES of action rows per block; the first failing pair is named.
        """
        if not np.array_equal(self.act(self.group.identity), np.arange(self.n_points)):
            raise StructureError("identity element does not act as the identity permutation")
        pool = self.group.enumerate_prefix(prefix)
        rng = np.random.default_rng(seed)
        sampled = [(pool[int(rng.integers(len(pool)))], pool[int(rng.integers(len(pool)))]) for _ in range(pairs)]
        step = max(1, _GATHER_BYTES // (3 * 8 * self.n_points))
        for lo in range(0, len(sampled), step):
            chunk = sampled[lo : lo + step]
            rows = self.act_block(to_block([x for g, h in chunk for x in (g, h, self.group.multiply(g, h))]))
            for (g, h), (act_g, act_h, act_gh) in zip(chunk, rows.reshape(len(chunk), 3, -1)):
                if not np.array_equal(act_gh, act_g[act_h]):
                    raise StructureError(f"action is not a homomorphism at g={g!r}, h={h!r}")

    def observable(self, values, p: float) -> Observable:
        v = np.asarray(values, dtype=float)
        _check_length(self, v.size)
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


def lp_distances(
    system: FiniteMeasureSystem, avgs: Sequence[Observable], beta: Optional[Sequence[int]] = None
) -> np.ndarray:
    """The symmetric L x L table of ||avgs[i] - avgs[j]||_p; the averages share one length and one p.

    beta: optional at-distance map, one integer beta(n) per average on 1-based
    indices, as max_chain takes it.  Row n is then filled only at the columns
    m >= max(n + 1, beta(n)), and mirrored below the diagonal: the pairs a
    chain at distance beta can step along.  Every other entry stays 0.0.
    Each filled entry is one _lp_norms row, so bitwise lp_norm(system,
    Observable(avgs[i] - avgs[j])) whichever entries are filled.
    """
    shapes = {(len(a), a.p) for a in avgs}
    if len(shapes) != 1:
        raise StructureError(f"lp_distances needs averages of one length and one p, got {sorted(shapes)}")
    L = len(avgs)
    starts = range(1, L)  # 0-based: row i from column i + 1
    if beta is not None:
        beta = list(beta)
        if len(beta) != L:
            raise StructureError(f"beta needs one value per average, got {len(beta)} for {L}")
        if not all(type(b) is int or isinstance(b, np.integer) for b in beta):
            raise DomainError("beta values must be integers")
        starts = [max(i + 1, int(b) - 1) for i, b in enumerate(beta)]
    stacked = np.stack([a.values for a in avgs])
    mat = np.zeros((L, L))
    for i, lo in enumerate(starts):
        if lo < L:
            mat[i, lo:] = mat[lo:, i] = _lp_norms(system, stacked[i] - stacked[lo:], avgs[0].p)
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


def _rows(rows: Sequence[int]):
    """An increasing list of row numbers as an index: a slice (a view) when they are
    consecutive, as nested sets give, else the list."""
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else list(rows)


def _box_rows(family: FolnerFamily, indices: Sequence[int], radii: Sequence[int]) -> Tuple[np.ndarray, list]:
    """The largest requested box's `block` (refused past MATERIALIZE_CAP), and for each of its
    elements g the rows i with g in F_{indices[i]}: those whose radius radii[i] reaches g."""
    block = family.block(indices[int(np.argmax(radii))])
    radii = np.array(radii)
    holding = [_rows(np.flatnonzero(radii >= reach).tolist()) for reach in range(int(radii.max()) + 1)]
    return block, [holding[reach] for reach in family.group.box_reaches(block).tolist()]


def _set_rows(family: FolnerFamily, indices: Sequence[int]) -> Tuple[np.ndarray, list]:
    """The distinct elements of the requested F_n as one `to_block` array in ascending
    canonical order, by their `row_codes`, and for each the rows whose F_n holds it."""
    blocks = [family.block(n) for n in indices]
    if not blocks:
        return to_block([]), []
    _, first, which = np.unique(np.concatenate(row_codes(*blocks)), return_index=True, return_inverse=True)
    holders = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])[np.argsort(which, kind="stable")]
    bounds = np.cumsum(np.bincount(which))[:-1].tolist()
    return np.concatenate(blocks)[first], [_rows(rows.tolist()) for rows in np.split(holders, bounds)]


def average_block(
    system: FiniteMeasureSystem, family: FolnerFamily, indices: Sequence[int], values: np.ndarray
) -> np.ndarray:
    """A_n applied to values (one entry per point, then one column per observable), one row per n.

    The one place that decides the route: residue counting when the group is Z
    and every F_n has a box_radius (standard or refined boxes, not an explicit
    family's intervals), otherwise the sum of s -> f(g . s) over F_n in
    ascending canonical form: one pass over the distinct g of all the F_n, acting
    on them as blocks of at most _GATHER_BYTES of gathered values, that adds each
    to the row of every F_n holding it.  Either way each row and column is
    averaged as it would be alone.
    """
    _check_length(system, len(values))
    radii = [family.box_radius(n) for n in indices]
    boxes = bool(radii) and None not in radii
    if boxes and isinstance(system.group, IntegerGroup):
        return _z_interval_averages(system, radii, values)
    elems, targets = _box_rows(family, indices, radii) if boxes else _set_rows(family, indices)
    out = np.zeros((len(indices),) + values.shape)
    # one element gathers values.nbytes, and its action row 8 bytes per point
    step = max(1, _GATHER_BYTES // max(values.nbytes, 8 * system.n_points))
    for lo in range(0, len(elems), step):
        gathered = values[system.act_block(elems[lo : lo + step])]
        for rows, row_values in zip(targets[lo : lo + step], gathered):
            out[rows] += row_values
    cards = np.array([family.card(n) for n in indices], dtype=float)
    return out / cards.reshape((-1,) + (1,) * values.ndim)


def ergodic_average(system: FiniteMeasureSystem, family: FolnerFamily, n: int, f: Observable) -> Observable:
    """A_n f = (1/|F_n|) sum_{g in F_n} pi(g^{-1}) f; a contraction in every L^p.

    Since (pi(g^{-1}) f)(s) = f(g . s), the sum pulls values forward along the
    action.
    """
    return Observable(average_block(system, family, [n], f.values)[0], f.p)


def average_sequence(
    system: FiniteMeasureSystem, family: FolnerFamily, f: Observable, window: int
) -> List[Observable]:
    """[A_1 f, ..., A_window f], each bitwise equal to ergodic_average at its index."""
    if not (type(window) is int and 1 <= window <= family.n_max):
        raise StructureError(f"window must be in [1, {family.n_max}], got {window}")
    return [Observable(row, f.p) for row in average_block(system, family, range(1, window + 1), f.values)]


def average_operator(system: FiniteMeasureSystem, family: FolnerFamily, n: int) -> np.ndarray:
    """The matrix of A_n acting on observables: (A_n f) = M @ f; column j is A_n e_j."""
    return average_block(system, family, [n], np.eye(system.n_points))[0]


def average_defect(
    system: FiniteMeasureSystem, family: FolnerFamily, N: int, K: int, f: Observable
) -> float:
    """||A_K f - A_K A_N f||_p.

    Whenever K >= beta(N, eta) from a certified modulus table, this is below
    eta * ||f||_p (discrete sharpening of the averaging lemma).
    """
    a_n_f = average_block(system, family, [N], f.values)[0]
    a_k = average_block(system, family, [K], np.column_stack([f.values, a_n_f]))[0]
    return lp_norm(system, Observable(a_k[:, 0] - a_k[:, 1], f.p))


def weighted_mean(system: FiniteMeasureSystem, f: Observable) -> float:
    """The mean-projection value sum mu f / mu(S); the norm limit target for ergodic systems."""
    w = system._weights_float
    return float(np.dot(w, f.values) / w.sum())


# ---------------------------------------------------------------------------
# Shipped example systems
# ---------------------------------------------------------------------------


def _points(*sides) -> int:
    """The number of points of a shipped system with these side lengths, each an int >= 1 (not a bool)."""
    if not all(type(side) is int and side >= 1 for side in sides):
        raise StructureError(f"system sizes must be integers >= 1, got {', '.join(map(repr, sides))}")
    return math.prod(sides)


def rotation_system(modulus: int) -> FiniteMeasureSystem:
    """Z acting on Z/modulus by s -> s + 1."""
    m = _points(modulus)
    return FiniteMeasureSystem(IntegerGroup(), [Fraction(1, m)] * m, {"t": [(s + 1) % m for s in range(m)]})


def torus_translation_system(width: int, height: int) -> FiniteMeasureSystem:
    """Z^2 acting on (Z/width) x (Z/height) by coordinate shifts; points row-major."""
    m = _points(width, height)
    t1 = [((i // height + 1) % width) * height + (i % height) for i in range(m)]
    t2 = [(i // height) * height + ((i % height) + 1) % height for i in range(m)]
    return FiniteMeasureSystem(LatticeGroup(2), [Fraction(1, m)] * m, {"t1": t1, "t2": t2})


def heisenberg_torus_system(width: int, height: int) -> FiniteMeasureSystem:
    """H3(Z) acting through its abelianization, the torus's shifts, on a 2-torus; the center acts trivially."""
    torus = torus_translation_system(width, height)
    x, y, z = torus.generators["t1"], torus.generators["t2"], range(torus.n_points)
    return FiniteMeasureSystem(HeisenbergGroup(), torus.weights, {"x": x, "y": y, "z": z})
