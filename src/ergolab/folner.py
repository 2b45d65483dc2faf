"""Folner families, exact invariance ratios, convergence moduli and refinements.

All cardinality comparisons are exact: set sizes are integers, tolerances are
`fractions.Fraction`, and the strict inequalities of the modulus definitions
are decided without floating point.  Standard box families are represented by
their radii, so ratios on them come from closed-form overlap counts; the
module-level `folner_ratio` always takes the literal set-arithmetic route,
which the tests replay against the closed forms.

A worst ratio over F_n is decided in integers: `FolnerFamily.overlaps` counts
|F_m intersect gF_m| for every g of F_n at once, as one array (`to_block`),
the least overlap is the largest ratio, and a single `Fraction` is built per
(n, m).  F_n's array is built once per n and reused across m.

The universally quantified "for all m >= N" in the modulus definition is
undecidable for arbitrary families; empirical entries are therefore stamped
`certified_up_to = m_max`, while entries for standard boxes of a group with
a known box corner are analytic (the box ratio is monotone in m, so a single
corner computation certifies every larger index).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConstructionBudgetError,
    DomainError,
    FamilyTooLargeError,
    ModulusNotFoundError,
    RefinementWindowError,
    StructureError,
)
from .groups import Group, from_block, group_by_name, to_block

MATERIALIZE_CAP = 2_000_000
_PACK_LIMIT = 2**62


def as_fraction(x) -> Fraction:
    """Exact rational from Fraction, int, 'a/b' string, or float (converted exactly)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise DomainError(f"expected a rational number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {x!r}") from exc
    if isinstance(x, float):
        if not np.isfinite(x):
            raise DomainError(f"rational parameter must be finite, got {x!r}")
        return Fraction(x)
    raise DomainError(f"cannot interpret {x!r} as a rational number")


def _check_int(x, what: str, lo: Optional[int] = None, hi: Optional[int] = None) -> None:
    """Refuse x unless it is an int, not a bool, with lo <= x <= hi for whichever bounds are given."""
    if not (type(x) is int and (lo is None or lo <= x) and (hi is None or x <= hi)):
        bounds = " and".join(f" {op} {v}" for op, v in ((">=", lo), ("<=", hi)) if v is not None)
        raise DomainError(f"{what} must be an integer{bounds}, got {x!r}")


def _tolerance(eps, what: str) -> Fraction:
    """eps as an exact rational, refused unless positive; `what` names it in the error."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise DomainError(f"{what} tolerance must be positive, got {eps}")
    return eps


def _pack_sorted(elems) -> Optional[np.ndarray]:
    """Sorted int64 array of integer canonical forms, or None if not packable."""
    if not elems:
        return None
    first = next(iter(elems))
    if not isinstance(first, int):
        return None
    try:
        arr = np.fromiter(elems, dtype=np.int64, count=len(elems))
    except OverflowError:
        return None
    arr.sort()
    return arr


def _packed_overlap(arr: np.ndarray, g: int) -> Optional[int]:
    if int(arr[-1]) - int(arr[0]) + 1 == arr.size:
        # one integer interval: F and g + F share |F| - |g| points, exact for any g
        return max(0, arr.size - abs(g))
    if abs(g) + max(abs(int(arr[0])), abs(int(arr[-1]))) >= _PACK_LIMIT:
        return None
    shifted = arr + g
    pos = np.searchsorted(arr, shifted)
    inside = pos < arr.size
    pos[~inside] = 0
    return int(np.count_nonzero(inside & (arr[pos] == shifted)))


def _interval_overlaps(arr: np.ndarray, block: np.ndarray) -> Optional[np.ndarray]:
    """`_packed_overlap` for every g of a 1-d block at once when arr is one integer interval, else None."""
    if block.dtype != np.int64 or int(arr[-1]) - int(arr[0]) + 1 != arr.size:
        return None
    # exact on all of int64: np.abs(-2^63) wraps to -2^63, and |F| + 2^63 wraps negative, so 0
    return np.maximum(0, arr.size - np.abs(block))


def _overlap(group: Group, s: frozenset, arr: Optional[np.ndarray], g) -> int:
    """|s intersect gs|: searched in `arr`, the packed form of s, when g fits, else by set arithmetic."""
    overlap = None if arr is None else _packed_overlap(arr, g)
    return len(s & group.translate_set(s, g)) if overlap is None else overlap


def _below(group: Group, r: int, corner, eps: Fraction) -> bool:
    """|B_r delta corner B_r| / |B_r| < eps, decided in integers; corner comes from `box_corner`."""
    card = group.box_card(r)
    return 2 * (card - group.box_overlap(r, corner)) * eps.denominator < eps.numerator * card


class FolnerFamily:
    """Indexed family F_1 ... F_n_max of finite nonempty subsets of a group.

    Indices are 1-based; there is no F_0.  Instances are immutable after
    construction and all query operations are pure.
    """

    provenance = "explicit"

    def __init__(self, group: Group, n_max: int):
        _check_int(n_max, "family length", 1)
        self.group = group
        self.n_max = n_max

    def _check_index(self, n: int) -> None:
        if not (type(n) is int and 1 <= n <= self.n_max):  # an int, not a bool
            raise StructureError(f"family index must be in [1, {self.n_max}], got {n!r}")

    def card(self, n: int) -> int:
        raise NotImplementedError

    def elements(self, n: int) -> frozenset:
        raise NotImplementedError

    def box_radius(self, n: int) -> Optional[int]:
        """Radius when F_n is a standard box of this group, else None."""
        return None

    def ratio(self, n: int, g) -> Fraction:
        """|F_n delta g F_n| / |F_n| by the fastest exact route available."""
        raise NotImplementedError

    def overlaps(self, n: int, block: np.ndarray) -> np.ndarray:
        """|F_n intersect g F_n| for each translation g of a `to_block` array, in order.

        int64, or an object array of Python ints where int64 could overflow.
        """
        raise NotImplementedError

    def to_jsonable(self) -> dict:
        raise NotImplementedError


class ExplicitFamily(FolnerFamily):
    """Family with explicitly stored element sets.

    A set of integers is also kept as a sorted int64 array.  When that array
    is one integer interval, |F intersect gF| = max(0, |F| - |g|) in closed
    form for any g, for a whole block at once; otherwise g + F is searched in
    the array one g at a time, and sets that do not pack (tuples, or a shift
    past the packing limit) take set arithmetic.
    """

    def __init__(self, group: Group, sets: Sequence[Iterable], provenance: str = "explicit"):
        sets = [frozenset(s) for s in sets]
        super().__init__(group, len(sets))
        for i, s in enumerate(sets):
            if not s:
                raise StructureError(f"F_{i + 1} is empty; Folner sets must be nonempty")
            group.check_elements(s)
        self.provenance = provenance
        self._sets = sets
        self._packed = [_pack_sorted(s) for s in sets]

    def card(self, n: int) -> int:
        self._check_index(n)
        return len(self._sets[n - 1])

    def elements(self, n: int) -> frozenset:
        self._check_index(n)
        return self._sets[n - 1]

    def ratio(self, n: int, g) -> Fraction:
        self._check_index(n)
        self.group.check_element(g)
        s = self._sets[n - 1]
        return Fraction(2 * (len(s) - _overlap(self.group, s, self._packed[n - 1], g)), len(s))

    def overlaps(self, n: int, block: np.ndarray) -> np.ndarray:
        self._check_index(n)
        s, arr = self._sets[n - 1], self._packed[n - 1]
        counts = None if arr is None else _interval_overlaps(arr, block)
        if counts is None:
            # not one interval, or a translation past int64: one element at a time
            group = self.group
            counts = np.fromiter((_overlap(group, s, arr, g) for g in from_block(block)), np.int64, len(block))
        return counts

    def to_jsonable(self) -> dict:
        return {
            "kind": "explicit",
            "group": self.group.name,
            "provenance": self.provenance,
            "n_max": self.n_max,
            "sets": [
                [list(g) if isinstance(g, tuple) else g for g in sorted(s)]
                for s in self._sets
            ],
        }


class StandardBoxFamily(FolnerFamily):
    """F_n = standard box of radius n; nothing is stored per index.

    Z^d uses F_n = [-n, n]^d; H3 uses |a|, |b| <= n with |c| <= n^2.
    Element sets are materialized on demand up to MATERIALIZE_CAP elements;
    only the latest one is kept, for loops that ask for the same F_n again.
    """

    provenance = "standard-box"

    def __init__(self, group: Group, n_max: int):
        super().__init__(group, n_max)
        self._last: Tuple[int, frozenset] = (0, frozenset())  # (n, F_n) of the latest `elements` call

    def card(self, n: int) -> int:
        self._check_index(n)
        return self.group.box_card(n)

    def elements(self, n: int) -> frozenset:
        self._check_index(n)
        if self._last[0] != n:
            card = self.group.box_card(n)
            if card > MATERIALIZE_CAP:
                raise FamilyTooLargeError(
                    f"box F_{n} of {self.group.name} has {card} elements; cannot materialize beyond {MATERIALIZE_CAP}"
                )
            self._last = (n, frozenset(self.group.box_elements(n)))
        return self._last[1]

    def box_radius(self, n: int) -> Optional[int]:
        self._check_index(n)
        return n

    def ratio(self, n: int, g) -> Fraction:
        self._check_index(n)
        self.group.check_element(g)
        card = self.group.box_card(n)
        return Fraction(2 * (card - self.group.box_overlap(n, g)), card)

    def overlaps(self, n: int, block: np.ndarray) -> np.ndarray:
        self._check_index(n)
        return self.group.box_overlaps(n, block)

    def to_jsonable(self) -> dict:
        return {
            "kind": "standard-box",
            "group": self.group.name,
            "provenance": self.provenance,
            "n_max": self.n_max,
        }


class RefinedFamily(FolnerFamily):
    """Subsequence view F'_j = F_{indices[j]} of a source family."""

    provenance = "refined"

    def __init__(self, source: FolnerFamily, indices: Sequence[int]):
        indices = list(indices)
        if not indices:
            raise StructureError("refined family needs at least one index")
        for i, idx in enumerate(indices):
            source._check_index(idx)
            if i and indices[i - 1] >= idx:
                raise StructureError(f"refinement indices must increase, got {indices}")
        super().__init__(source.group, len(indices))
        self.source = source
        self.indices = indices

    def _src(self, n: int) -> int:
        self._check_index(n)
        return self.indices[n - 1]

    def card(self, n: int) -> int:
        return self.source.card(self._src(n))

    def elements(self, n: int) -> frozenset:
        return self.source.elements(self._src(n))

    def box_radius(self, n: int) -> Optional[int]:
        return self.source.box_radius(self._src(n))

    def ratio(self, n: int, g) -> Fraction:
        return self.source.ratio(self._src(n), g)

    def overlaps(self, n: int, block: np.ndarray) -> np.ndarray:
        return self.source.overlaps(self._src(n), block)

    def to_jsonable(self) -> dict:
        return {
            "kind": "refined",
            "group": self.group.name,
            "provenance": self.provenance,
            "indices": list(self.indices),
            "source": self.source.to_jsonable(),
        }


def standard_family(group: Group, n_max: int) -> StandardBoxFamily:
    """The group's standard nested box family F_1 ... F_n_max."""
    return StandardBoxFamily(group, n_max)


def family_from_jsonable(data: dict) -> FolnerFamily:
    group = group_by_name(data["group"])
    kind = data.get("kind", "explicit")
    if kind == "standard-box":
        return StandardBoxFamily(group, data["n_max"])
    if kind == "refined":
        return RefinedFamily(family_from_jsonable(data["source"]), data["indices"])
    if kind == "explicit":
        sets = [
            frozenset(tuple(g) if isinstance(g, list) else g for g in s)
            for s in data["sets"]
        ]
        return ExplicitFamily(group, sets, provenance=data.get("provenance", "explicit"))
    raise StructureError(f"unknown family kind {kind!r}")


def folner_ratio(family: FolnerFamily, n: int, g) -> Fraction:
    """|F_n delta g F_n| / |F_n| by exact set arithmetic.

    Materializes F_n and takes the literal translate/symmetric-difference
    route for every family, independent of the closed-form and packed
    counts used by `family.ratio`.
    """
    s = family.elements(n)
    family.group.check_element(g)
    return Fraction(len(s ^ family.group.translate_set(s, g)), len(s))


# ---------------------------------------------------------------------------
# Convergence moduli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulusEntry:
    n: int
    epsilon: Fraction
    value: int
    kind: str  # "analytic" | "empirical"
    certified_up_to: Optional[int]  # None = certified for every m >= value


class ModulusTable:
    """Certified values of the Folner convergence modulus beta(n, eps).

    Entries are keyed by tolerance, then by n.  Hashing an exact tolerance
    costs a modular inverse of its denominator (about 104 bits for a float
    tolerance), so each query looks its tolerance up once and then indexes
    by integers.
    """

    def __init__(self, group_name: str, provenance: str, entries: Iterable[ModulusEntry]):
        self.group_name = group_name
        self.provenance = provenance
        self._rows: Dict[Fraction, Dict[int, ModulusEntry]] = {}
        for e in entries:
            self._rows.setdefault(e.epsilon, {})[e.n] = e

    def _all(self) -> Iterator[ModulusEntry]:
        return (e for row in self._rows.values() for e in row.values())

    @property
    def entries(self) -> Mapping[Tuple[int, Fraction], ModulusEntry]:
        """Every entry keyed by (n, eps), as a read-only view."""
        return MappingProxyType({(e.n, e.epsilon): e for e in self._all()})

    def entries_at(self, eps) -> Mapping[int, ModulusEntry]:
        """The entries at one tolerance keyed by n, as a read-only view (empty if none)."""
        return MappingProxyType(self._rows.get(as_fraction(eps), {}))

    @property
    def kind(self) -> str:
        return "analytic" if all(e.kind == "analytic" for e in self._all()) else "empirical"

    @property
    def certified_up_to(self) -> Optional[int]:
        caps = [e.certified_up_to for e in self._all() if e.certified_up_to is not None]
        return min(caps) if caps else None

    def value(self, n: int, eps) -> int:
        eps = as_fraction(eps)
        try:
            return self._rows[eps][n].value
        except KeyError:
            raise StructureError(f"no modulus entry for (n={n}, eps={eps})") from None

    def epsilons(self) -> List[Fraction]:
        return sorted(self._rows)

    def covers(self, window: int, eps) -> bool:
        """True if entries exist for n = 1..window at eps and certify past window."""
        row = self.entries_at(eps)
        for n in range(1, window + 1):
            e = row.get(n)
            if e is None:
                return False
            if e.certified_up_to is not None and e.certified_up_to < window:
                return False
        return True

    def to_jsonable(self) -> dict:
        entries = sorted(self._all(), key=lambda e: (str(e.epsilon), e.n))
        return {
            "group": self.group_name,
            "provenance": self.provenance,
            "kind": self.kind,
            "certified_up_to": self.certified_up_to,
            "entries": [
                {
                    "n": e.n,
                    "eps": f"{e.epsilon.numerator}/{e.epsilon.denominator}",
                    "N": e.value,
                    "kind": e.kind,
                    "certified_up_to": e.certified_up_to,
                }
                for e in entries
            ],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ModulusTable":
        entries = [
            ModulusEntry(
                n=e["n"],
                epsilon=as_fraction(e["eps"]),
                value=e["N"],
                kind=e.get("kind", "empirical"),
                certified_up_to=e.get("certified_up_to"),
            )
            for e in data["entries"]
        ]
        return cls(data["group"], data.get("provenance", "explicit"), entries)


def least_index(pred: Callable[[int], bool], lo: int, hi: Optional[int] = None) -> Optional[int]:
    """Least i in [lo, hi] with pred(i) for pred monotone in i (false, then true), else None.

    Probes lo, then doubles (0 steps to 1) until pred holds or hi is reached,
    then bisects between the last false and the first true probe: for a
    monotone pred, the index an index-by-index scan finds.  With hi None the
    range has no upper end, and the search ends only when pred holds.
    """
    if hi is not None and lo > hi:
        return None
    if pred(lo):
        return lo
    bad = lo
    while hi is None or bad < hi:
        good = max(2 * bad, bad + 1)
        good = good if hi is None else min(good, hi)
        if pred(good):
            while good - bad > 1:
                mid = (bad + good) // 2
                if pred(mid):
                    good = mid
                else:
                    bad = mid
            return good
        bad = good
    return None


def _corner(family: FolnerFamily, n: int):
    """The group's box corner at F_n's box radius; None unless F_n is a box with a known corner."""
    r = family.box_radius(n)
    return None if r is None else family.group.box_corner(r)


def worst_ratio(family: FolnerFamily, n: int, m: int, over=None) -> Tuple[Fraction, object]:
    """(ratio, g): the max over g in F_n of |F_m delta gF_m|/|F_m|, and a g attaining it.

    Corner route: with F_n and F_m standard boxes and the corner of F_n known
    (`Group.box_corner`), that corner attains the max, taken from `family.ratio`.
    Set route otherwise, in integers: `family.overlaps(m, ...)` counts
    |F_m intersect gF_m| for every g of F_n at once (of `over` in place of
    F_n when given, a union of sets, each element validated), the least
    count is the largest ratio, and one `Fraction` is built from it.  The
    witness is the first maximum in F_n's iteration order (in `over`'s
    order).  No elements give (0, None).
    """
    return next(_worst_ratios(family, n, (m,), over))


def _worst_ratios(family: FolnerFamily, n: int, ms: Iterable[int], over=None) -> Iterator[tuple]:
    """`worst_ratio(family, n, m, over)` for each m of ms in turn, F_n's array built once."""
    corner = _corner(family, n) if over is None else None
    elems = block = None
    for m in ms:
        if corner is not None and family.box_radius(m) is not None:
            yield family.ratio(m, corner), corner
            continue
        if elems is None:
            elems = list(family.elements(n) if over is None else over)
            if over is not None:
                family.group.check_elements(elems)
            block = to_block(elems)
        if not elems:
            yield Fraction(0), None
            continue
        card = family.card(m)
        overlaps = family.overlaps(m, block)
        i = int(np.argmin(overlaps))
        yield Fraction(2 * (card - int(overlaps[i])), card), elems[i]


def convergence_modulus(family: FolnerFamily, n: int, eps, m_max: Optional[int] = None) -> ModulusEntry:
    """A certified entry N = beta(n, eps) for the family.

    Standard box families whose group knows the box corner get an analytic
    entry valid for every m >= N; the corner ratio tends to 0 in m, so one
    exists for every positive eps.  Its search is in integers and starts at
    the group's `corner_floor`, below which no m qualifies.  Other families
    get the least N such that the defining condition holds for all m in
    [N, m_max], stamped certified_up_to = m_max.
    """
    eps = _tolerance(eps, "modulus")
    family._check_index(n)
    if m_max is not None:
        _check_int(m_max, "m_max")  # its range matters only to an empirical entry

    corner = _corner(family, n) if isinstance(family, StandardBoxFamily) else None
    if corner is not None:
        # the corner of B_n dominates every g in B_n and its ratio falls in m, so one
        # threshold search certifies every larger m, also past the family's length
        group = family.group
        value = least_index(lambda m: _below(group, m, corner, eps), group.corner_floor(n, eps))
        return ModulusEntry(n=n, epsilon=eps, value=value, kind="analytic", certified_up_to=None)

    if m_max is None:
        raise DomainError("m_max is required for empirical modulus certification")
    _check_int(m_max, "m_max", 1, family.n_max)

    ms = range(1, m_max + 1)
    worst_by_m = {m: r for m, (r, _) in zip(ms, _worst_ratios(family, n, ms))}
    if worst_by_m[m_max] >= eps:
        raise ModulusNotFoundError(n, eps, m_max, worst_by_m)
    value = m_max
    while value > 1 and worst_by_m[value - 1] < eps:
        value -= 1
    return ModulusEntry(n=n, epsilon=eps, value=value, kind="empirical", certified_up_to=m_max)


def build_modulus_table(
    family: FolnerFamily,
    ns: Iterable[int],
    epsilons: Iterable,
    m_max: Optional[int] = None,
) -> ModulusTable:
    entries = [
        convergence_modulus(family, n, eps, m_max=m_max)
        for eps in list(epsilons)
        for n in list(ns)
    ]
    return ModulusTable(family.group.name, family.provenance, entries)


def envelope(table: ModulusTable) -> ModulusTable:
    """Nondecreasing-in-n envelope: entry(n) -> max over i <= n of entry(i).

    Requires contiguous coverage n = 1..k at each tolerance present.
    """
    out: List[ModulusEntry] = []
    for eps in table.epsilons():
        row = table.entries_at(eps)
        ns = sorted(row)
        if ns != list(range(1, len(ns) + 1)):
            raise StructureError(f"envelope needs entries for all i <= n at eps={eps}, have n in {ns}")
        running = 0
        cap: Optional[int] = None
        kind = "analytic"
        for n in ns:
            e = row[n]
            running = max(running, e.value)
            if e.certified_up_to is not None:
                cap = e.certified_up_to if cap is None else min(cap, e.certified_up_to)
            if e.kind != "analytic":
                kind = "empirical"
            out.append(ModulusEntry(n=n, epsilon=eps, value=running, kind=kind, certified_up_to=cap))
    return ModulusTable(table.group_name, table.provenance, out)


def check_modulus(family: FolnerFamily, n: int, eps, claimed: int, window: int) -> bool:
    """Re-verify a claimed modulus value over [claimed, window] (vacuous if empty)."""
    eps = _tolerance(eps, "modulus")
    family._check_index(n)
    _check_int(claimed, "claimed")
    _check_int(window, "window", hi=family.n_max)
    return all(r < eps for r, _ in _worst_ratios(family, n, range(max(claimed, 1), window + 1)))


def worst_ratio_table(family: FolnerFamily, n_hi: int, m_hi: int) -> Dict[Tuple[int, int], Fraction]:
    """worst[(n, m)] = max over g in F_n of |F_m delta g F_m|/|F_m|, from `worst_ratio`."""
    family._check_index(n_hi)
    family._check_index(m_hi)
    ms = range(1, m_hi + 1)
    rows = {n: [r for r, _ in _worst_ratios(family, n, ms)] for n in range(1, n_hi + 1)}
    return {(n, m): rows[n][m - 1] for m in ms for n in rows}


# ---------------------------------------------------------------------------
# Greedy computable construction
# ---------------------------------------------------------------------------


def greedy_folner(group: Group, n_max: int, search_budget: int = 10_000) -> ExplicitFamily:
    """The computable greedy Folner construction.

    F_1 = {g_1}; for n >= 2 the augmented set F~_n is the first candidate in a
    deterministic stream (F_{n-1} itself, then F_{n-1} united with standard
    boxes of growing radius) satisfying |F~ delta g F~| < |F~|/n for all g in
    F_{n-1}; then F_n = F~_n union {g_n}.  The least valid box radius is
    located by `least_index`, which matches a radius-by-radius scan
    whenever validity is monotone in the radius (true for the supported box
    geometries at these scales).  Each candidate evaluation counts against
    search_budget per stage.  Once per stage, outside that budget, the least
    radius whose box contains F_{n-1} is found (containment is monotone in
    the radius); a candidate at or past it is the box itself, whose
    overlaps are closed-form.

    Every built stage then satisfies |F_n delta g F_n|/|F_n| < 3/n for all
    g in F_{n-1}.
    """
    _check_int(n_max, "n_max", 1)
    _check_int(search_budget, "search_budget", 1)
    enum = group.enumerate_prefix(n_max)
    sets: List[frozenset] = [frozenset([enum[0]])]

    for stage in range(2, n_max + 1):
        prev = sets[-1]
        # largest norm first (violations of a ratio bound usually sit there), then by value
        prev_sorted = sorted(prev, key=lambda g: (-group.norm1(g), g))
        # the least radius whose box contains prev; a box of radius norm1(g) contains g
        reach = least_index(
            lambda r: all(group.box_contains(r, g) for g in prev), 0, max(map(group.norm1, prev))
        )
        evals = itertools.count(1)

        def candidate_valid(r: int) -> bool:
            if next(evals) > search_budget:
                raise ConstructionBudgetError(stage, search_budget)
            if r and r >= reach:
                # prev lies inside the box, so the candidate is the box itself
                card = group.box_card(r)
                overlap_of = functools.partial(group.box_overlap, r)
            else:
                s = prev if r == 0 else frozenset(prev | set(group.box_elements(r)))
                card = len(s)
                overlap_of = functools.partial(_overlap, group, s, _pack_sorted(s))
            # |C delta gC| < |C|/stage as integers: stage * 2 * (card - overlap) < card
            return all(stage * 2 * (card - overlap_of(g)) < card for g in prev_sorted)

        # unbounded search: the budget ends it
        radius = least_index(candidate_valid, 0)
        if radius and group.box_card(radius) > MATERIALIZE_CAP:
            raise FamilyTooLargeError(
                f"greedy stage {stage} needs a box with {group.box_card(radius)} elements; "
                f"materialization cap is {MATERIALIZE_CAP}"
            )
        chosen = frozenset(prev | set(group.box_elements(radius))) if radius else prev
        sets.append(frozenset(chosen | {enum[stage - 1]}))

    return ExplicitFamily(group, sets, provenance="greedy-constructed")


# ---------------------------------------------------------------------------
# Fast refinement and fastness checks
# ---------------------------------------------------------------------------


def fast_refinement(family: FolnerFamily, eps, count: Optional[int] = None) -> RefinedFamily:
    """Greedy subsequence F_{n_1}, F_{n_2}, ... that is (1, eps)-fast over its window.

    n_1 = 1; n_{j+1} is the least later index m such that
    |F_m delta g F_m|/|F_m| < eps for every g in the union of the chosen sets.
    With count given, raises RefinementWindowError if the source ends first;
    with count None, refines until the source is exhausted.  Families of boxes
    with a known corner (F_1 has one) refine without materializing a set; on
    standard boxes, where index m is radius m, each step's search starts at the
    group's `corner_floor`, below which no m qualifies.
    """
    eps = _tolerance(eps, "refinement")
    if count is not None:
        _check_int(count, "count", 1)

    box_mode = _corner(family, 1) is not None
    group, standard = family.group, isinstance(family, StandardBoxFamily)
    if count is None and family.n_max > 10**6:
        raise DomainError("count is required when refining a source longer than 10^6")

    indices = [1]
    union: set = set()
    while count is None or len(indices) < count:
        last = indices[-1]
        if box_mode:
            # nested boxes: the union is F_last, whose corner ratio is its worst and is monotone in m
            corner = _corner(family, last)
            lo = max(last + 1, group.corner_floor(last, eps)) if standard else last + 1
            nxt = least_index(lambda m: _below(group, family.box_radius(m), corner, eps), lo, family.n_max)
        else:
            union |= family.elements(last)
            ms = range(last + 1, family.n_max + 1)
            nxt = next((m for m, (r, _) in zip(ms, _worst_ratios(family, last, ms, over=union)) if r < eps), None)
        if nxt is None:
            if count is not None:
                raise RefinementWindowError(indices, count)
            break
        indices.append(nxt)
    return RefinedFamily(family, indices)


@dataclass
class FastCheckReport:
    ok: bool
    lam: int
    epsilon: Fraction
    window: int
    violation: Optional[tuple] = None  # (n, m, g, ratio)


def check_fast(family: FolnerFamily, lam: int, eps, window: int) -> FastCheckReport:
    """Verify the (lam, eps)-fast property over [1, window]; report first violation.

    The first violating (n, m) pair in (n, m) order is reported with its
    worst ratio and the witness g that `worst_ratio` gives.
    """
    eps = _tolerance(eps, "fastness")
    _check_int(lam, "lambda", 1)
    _check_int(window, "window", 1, family.n_max)

    for n in range(1, window + 1):
        ms = range(n + lam, window + 1)
        for m, (r, g) in zip(ms, _worst_ratios(family, n, ms)):
            if r >= eps:
                return FastCheckReport(False, lam, eps, window, (n, m, g, r))
    return FastCheckReport(True, lam, eps, window)
