"""Folner families, exact invariance ratios, convergence moduli and refinements.

All cardinality comparisons are exact: set sizes are integers, tolerances are
`fractions.Fraction`, and the strict inequalities of the modulus definitions
are decided without floating point.  Standard box families are represented by
their radii, so ratios on them come from closed-form overlap counts, as do
explicit lattice sets that fill their bounding box (`Group.filled_overlaps`);
`folner_ratio` always counts literally (every element translated, the shared
rows counted), which the tests replay against the closed forms.

A set is read only as `FolnerFamily.block(n)`, one read-only `to_block` array
of distinct rows in ascending canonical order.  A worst ratio over F_n is
decided in integers: `overlaps` counts |F_m intersect gF_m| for every row g of
F_n at once, and one `Fraction` is built per (n, m) from the least count.

The universally quantified "for all m >= N" in the modulus definition is
undecidable for arbitrary families; empirical entries are therefore stamped
`certified_up_to = m_max`, while entries for standard boxes of a group with
a known box corner are analytic: one corner count, (|B_r delta cB_r|, |B_r|),
and one threshold search over it, beta(r, eps), certify every larger index
(the box ratio is monotone in m), and box refinements step by that threshold.
"""

from __future__ import annotations

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
from .groups import Group, from_block, group_by_name, row_codes, to_block

MATERIALIZE_CAP = 2_000_000


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


def _sorted_rows(block: np.ndarray) -> np.ndarray:
    """The distinct rows of a nonempty `to_block` array in ascending canonical order, as a new
    read-only array: rows sorted by their `row_codes`, unless already in order, and each kept once."""
    codes = row_codes(block)[0]
    order = slice(None) if np.all(codes[1:] > codes[:-1]) else np.argsort(codes, kind="stable")
    codes, rows = codes[order], block[order]
    rows = rows[np.concatenate([[True], codes[1:] != codes[:-1]])]  # a copy, as a mask index is
    rows.flags.writeable = False
    return rows


def _common_rows(a: np.ndarray, b: np.ndarray) -> int:
    """How many rows two `to_block` arrays of distinct rows share, exactly: the equal neighbours of
    their `row_codes` sorted together.  The sort is stable (timsort), which merges ascending runs in
    one pass, and a sorted block and each translate of it are ascending (the group laws keep rows'
    canonical order)."""
    codes = np.concatenate(row_codes(a, b))
    codes.sort(kind="stable")
    return int(np.count_nonzero(codes[1:] == codes[:-1]))


def _set_overlaps(group: Group, rows: np.ndarray, block: np.ndarray, floor: int = -1) -> np.ndarray:
    """|F intersect gF| for every g of a `to_block` array, F given as one of distinct rows: in the group's
    closed form when it has one for F (`Group.filled_overlaps`: on a lattice, a set that fills its bounding
    box), else one g at a time up to the first overlap <= floor."""
    filled = group.filled_overlaps(rows, block)
    if filled is not None:
        return filled
    counts = []
    for i in range(len(block)):  # g by g, so a refuted candidate never lists the whole block
        counts.append(_common_rows(rows, group.translate_block(rows, from_block(block[i : i + 1])[0])))
        if counts[-1] <= floor:
            break
    return np.array(counts, dtype=np.int64)


def check_box_size(group: Group, r: int) -> None:
    """Refuse to materialize B_r, with FamilyTooLargeError, when it has more than MATERIALIZE_CAP elements."""
    card = group.box_card(r)
    if card > MATERIALIZE_CAP:
        raise FamilyTooLargeError(
            f"box F_{r} of {group.name} has {card} elements; cannot materialize beyond {MATERIALIZE_CAP}"
        )


def _corner_count(group: Group, r: int, corner) -> Tuple[int, int]:
    """(|B_r delta corner B_r|, |B_r|) as exact integers; corner comes from `box_corner`."""
    card = group.box_card(r)
    return 2 * (card - group.box_overlap(r, corner)), card


def _below(group: Group, r: int, corner, eps: Fraction) -> bool:
    """|B_r delta corner B_r| / |B_r| < eps, decided in integers."""
    diff, card = _corner_count(group, r, corner)
    return diff * eps.denominator < eps.numerator * card


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
        return len(self.block(n))

    def block(self, n: int) -> np.ndarray:
        """F_n as one read-only `to_block` array of distinct rows in ascending canonical order."""
        raise NotImplementedError

    def elements(self, n: int) -> frozenset:
        """F_n as a frozenset of canonical forms: a view of `block`, which the library reads instead."""
        return frozenset(from_block(self.block(n)))

    def box_radius(self, n: int) -> Optional[int]:
        """Radius when F_n is a standard box of this group, else None."""
        return None

    def ratio(self, n: int, g) -> Fraction:
        """|F_n delta g F_n| / |F_n|: one row of `overlaps`, for every family; no library path calls it."""
        card = self.card(n)
        self.group.check_element(g)
        return Fraction(2 * (card - int(self.overlaps(n, to_block([g]))[0])), card)

    def overlaps(self, n: int, block: np.ndarray) -> np.ndarray:
        """|F_n intersect g F_n| for each translation g of a `to_block` array, in order.

        int64, or an object array of Python ints where int64 could overflow.
        """
        raise NotImplementedError

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "group": self.group.name, "provenance": self.provenance, **self._json_fields()}

    def _json_fields(self) -> dict:  # what `to_jsonable` records besides the kind, group and provenance
        return {"n_max": self.n_max}


class ExplicitFamily(FolnerFamily):
    """Family with explicitly stored element sets, each checked as given, then sorted into its `block`.

    `overlaps` is the one overlap route and `ratio` its one-row case: the group's closed form for a
    whole block where it has one (a lattice set that fills its bounding box), else the rows F shares
    with gF, one g at a time.
    """

    kind = "explicit"

    def __init__(self, group: Group, sets: Sequence[Iterable], provenance: str = "explicit"):
        blocks = []
        for i, s in enumerate(sets):
            block = group.check_elements(s)
            if not len(block):
                raise StructureError(f"F_{i + 1} is empty; Folner sets must be nonempty")
            blocks.append(_sorted_rows(block))
        super().__init__(group, len(blocks))
        self.provenance = provenance
        self._blocks = blocks

    def block(self, n: int) -> np.ndarray:
        self._check_index(n)
        return self._blocks[n - 1]

    elements, ratio = FolnerFamily.elements, FolnerFamily.ratio  # in this class: the benchmark wraps them here

    def overlaps(self, n: int, block: np.ndarray) -> np.ndarray:
        return _set_overlaps(self.group, self.block(n), block)

    def _json_fields(self) -> dict:
        return {"n_max": self.n_max, "sets": [b.tolist() for b in self._blocks]}


class StandardBoxFamily(FolnerFamily):
    """F_n = standard box of radius n; nothing is stored per index.

    Z^d uses F_n = [-n, n]^d; H3 uses |a|, |b| <= n with |c| <= n^2.
    A box's `block` is built on demand (`Group.box_block`) up to MATERIALIZE_CAP
    elements; only the latest one is kept, for loops that ask for the same F_n again.
    """

    kind = provenance = "standard-box"
    _last: Tuple[int, Optional[np.ndarray]] = (0, None)  # (n, F_n) of the latest `block` call, set per family

    def card(self, n: int) -> int:
        self._check_index(n)
        return self.group.box_card(n)

    def block(self, n: int) -> np.ndarray:
        self._check_index(n)
        if self._last[0] != n:
            check_box_size(self.group, n)
            self._last = (n, self.group.box_block(n))
        return self._last[1]

    elements, ratio = FolnerFamily.elements, FolnerFamily.ratio  # in this class: the benchmark wraps them here

    def box_radius(self, n: int) -> Optional[int]:
        self._check_index(n)
        return n

    def overlaps(self, n: int, block: np.ndarray) -> np.ndarray:
        self._check_index(n)
        return self.group.box_overlaps(n, block)


class RefinedFamily(FolnerFamily):
    """Subsequence view F'_j = F_{indices[j]} of a source family."""

    kind = provenance = "refined"

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

    def block(self, n: int) -> np.ndarray:
        return self.source.block(self._src(n))

    def box_radius(self, n: int) -> Optional[int]:
        return self.source.box_radius(self._src(n))

    def overlaps(self, n: int, block: np.ndarray) -> np.ndarray:
        return self.source.overlaps(self._src(n), block)

    def _json_fields(self) -> dict:
        return {"indices": list(self.indices), "source": self.source.to_jsonable()}


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
        sets = [[tuple(g) if isinstance(g, list) else g for g in s] for s in data["sets"]]
        return ExplicitFamily(group, sets, provenance=data.get("provenance", "explicit"))
    raise StructureError(f"unknown family kind {kind!r}")


def folner_ratio(family: FolnerFamily, n: int, g) -> Fraction:
    """|F_n delta g F_n| / |F_n| by exact set arithmetic.

    Translates every element of F_n's `block` by the group law
    (`Group.translate_block`) and counts the elements shared with F_n:
    |F delta gF| = 2(|F| - |F intersect gF|).  Independent of the
    closed-form counts of `family.overlaps`, whose one row is `family.ratio`.
    """
    rows = family.block(n)
    shared = _common_rows(rows, family.group.translate_block(rows, g))
    return Fraction(2 * (len(rows) - shared), len(rows))


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


def _box_threshold(group: Group, r: int, eps: Fraction) -> Optional[int]:
    """beta(r, eps) of the standard boxes, or None without a box corner: the least m >= 1 with
    |B_m delta cB_m| < eps |B_m|, c the corner of B_r, which dominates B_r and whose ratio falls in m
    to 0, so it exists; searched from the group's `corner_floor`, below which no m qualifies."""
    corner = group.box_corner(r)
    if corner is None:
        return None
    return least_index(lambda m: _below(group, m, corner, eps), group.corner_floor(r, eps))


def worst_ratio(family: FolnerFamily, n: int, m: int, over=None) -> Tuple[Fraction, object]:
    """(ratio, g): the max over g in F_n of |F_m delta gF_m|/|F_m|, and a g attaining it.

    Corner route: with F_n and F_m standard boxes and the corner of F_n known
    (`Group.box_corner`), that corner attains the max, from its integer corner count.
    Set route otherwise, in integers: `family.overlaps(m, ...)` counts
    |F_m intersect gF_m| for every g of F_n's `block` at once (of `over`, any
    collection of elements, each validated, in place of F_n when given), the
    least count is the largest ratio, and one `Fraction` is built from it.  The
    witness is the first maximum in F_n's order, ascending canonical order (in
    `over`'s order).  No elements give (0, None).
    """
    return next(_worst_ratios(family, n, (m,), over))


def _worst_ratios(family: FolnerFamily, n: int, ms: Iterable[int], over=None) -> Iterator[tuple]:
    """`worst_ratio(family, n, m, over)` for each m of ms in turn, F_n's array read once."""
    corner = _corner(family, n) if over is None else None
    block = None
    for m in ms:
        r = None if corner is None else family.box_radius(m)
        if r is not None:
            yield Fraction(*_corner_count(family.group, r, corner)), corner
            continue
        if block is None:
            block = family.block(n) if over is None else family.group.check_elements(over)
        if not len(block):
            yield Fraction(0), None
            continue
        card = family.card(m)
        overlaps = family.overlaps(m, block)
        i = int(np.argmin(overlaps))
        yield Fraction(2 * (card - int(overlaps[i])), card), from_block(block[i : i + 1])[0]


def convergence_modulus(family: FolnerFamily, n: int, eps, m_max: Optional[int] = None) -> ModulusEntry:
    """A certified entry N = beta(n, eps) for the family.

    Standard box families whose group knows the box corner get an analytic
    entry valid for every m >= N: the box threshold beta(n, eps), the one
    integer search from the group's `corner_floor` that box refinements step
    by too.  Other families get the least N such that the defining condition
    holds for all m in [N, m_max], stamped certified_up_to = m_max.
    """
    eps = _tolerance(eps, "modulus")
    family._check_index(n)
    if m_max is not None:
        _check_int(m_max, "m_max")  # its range matters only to an empirical entry

    value = _box_threshold(family.group, n, eps) if isinstance(family, StandardBoxFamily) else None
    if value is not None:  # certifies every larger m, also past the family's length
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
    located by `least_index` up to hi, the largest radius whose box is within
    MATERIALIZE_CAP; it matches a radius-by-radius scan whenever validity is
    monotone in the radius (true for the supported box geometries at these
    scales), and a stage whose search finds none raises FamilyTooLargeError.
    Each probe counts against search_budget.  A candidate at or past F_{n-1}'s
    reach (`Group.box_reaches`) is the box, counted by `Group.box_overlaps`; a
    smaller one is `Group.box_block` and the rows of F_{n-1} outside it,
    disjoint, so no probe unions or sorts, counted as `ExplicitFamily.overlaps`
    counts but up to the first g that refutes it, unless F_{n-1} holds B_r,
    when it is F_{n-1} itself, refuted by the search's first probe.  The least
    overlap decides, in integers.  Only the chosen F_n is sorted.

    Every built stage then satisfies |F_n delta g F_n|/|F_n| < 3/n for all
    g in F_{n-1}.
    """
    _check_int(n_max, "n_max", 1)
    _check_int(search_budget, "search_budget", 1)
    hi = least_index(lambda r: group.box_card(r + 1) > MATERIALIZE_CAP, 0)  # the largest box within the cap
    enum = group.enumeration()  # g_n is drawn when stage n is built
    sets = [to_block([next(enum)])]

    for stage in range(2, n_max + 1):
        prev = sets[-1]
        reaches = group.box_reaches(prev)
        reach = int(reaches.max())
        evals = itertools.count(1)

        def candidate(r: int) -> np.ndarray:
            return np.concatenate([group.box_block(r), prev[reaches > r]]) if r else prev

        def candidate_valid(r: int) -> bool:
            if next(evals) > search_budget:
                raise ConstructionBudgetError(stage, search_budget)
            if r and r >= reach:
                card = group.box_card(r)
                overlaps = group.box_overlaps(r, prev)
            else:
                if r and np.count_nonzero(reaches <= r) == group.box_card(r):
                    return False  # B_r lies in F_{n-1}, so the candidate is F_{n-1}: refuted at r = 0, probed first
                rows = candidate(r)
                card = len(rows)
                # a g with overlap <= card - ceil(card / (2 * stage)) already refutes the candidate
                overlaps = _set_overlaps(group, rows, prev, card + -card // (2 * stage))
            # |C delta gC| < |C|/stage for every g in prev, as integers: stage * 2 * (card - overlap) < card
            return stage * 2 * (card - int(np.min(overlaps))) < card

        radius = least_index(candidate_valid, 0, hi)
        if radius is None:
            raise FamilyTooLargeError(
                f"greedy stage {stage} needs a box past the materialization cap {MATERIALIZE_CAP}: "
                f"no radius up to {hi} gives a valid candidate"
            )
        sets.append(_sorted_rows(np.concatenate([candidate(radius), to_block([next(enum)])])))

    return ExplicitFamily(group, sets, provenance="greedy-constructed")


# ---------------------------------------------------------------------------
# Fast refinement and fastness checks
# ---------------------------------------------------------------------------


def fast_refinement(family: FolnerFamily, eps, count: Optional[int] = None) -> RefinedFamily:
    """Greedy subsequence F_{n_1}, F_{n_2}, ... that is (1, eps)-fast over its window.

    n_1 = 1; n_{j+1} is the least later index m such that
    |F_m delta g F_m|/|F_m| < eps for every g in the union of the chosen sets.
    With count given, raises RefinementWindowError if the source ends first;
    with count None, refines until the source is exhausted.  Boxes with a known
    corner (F_1 has one), standard or refined, refine with no set materialized:
    n_{j+1} is the least later index whose radius reaches beta(radius(n_j), eps),
    the box threshold that gives the standard boxes' analytic moduli.
    """
    eps = _tolerance(eps, "refinement")
    if count is not None:
        _check_int(count, "count", 1)

    box_mode = _corner(family, 1) is not None
    if count is None and family.n_max > 10**6:
        raise DomainError("count is required when refining a source longer than 10^6")

    indices = [1]
    union = None  # the distinct rows of the chosen sets
    while count is None or len(indices) < count:
        last = indices[-1]
        if box_mode:
            # nested boxes: the union is F_last, whose corner ratio is its worst and falls in the radius
            beta = _box_threshold(family.group, family.box_radius(last), eps)
            nxt = least_index(lambda m: family.box_radius(m) >= beta, last + 1, family.n_max)
        else:
            union = family.block(last) if union is None else _sorted_rows(np.concatenate([union, family.block(last)]))
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
