"""Folner families, exact invariance ratios, convergence moduli and refinements.

All cardinality comparisons are exact: set sizes are integers, tolerances are
`fractions.Fraction`, and the strict inequalities of the modulus definitions
are decided without floating point.  Standard box families are represented by
their radii, so ratios on them come from closed-form overlap counts, as do
explicit lattice sets that fill their bounding box (`Group.filled_overlaps`);
other explicit sets count the rows they share with each translate.

A set is read only as `FolnerFamily.block(n)`, one read-only `to_block` array
of distinct rows in ascending canonical order.  A worst ratio over F_n is
decided in integers: `overlaps` counts |F_m intersect gF_m| for every row g of
F_n at once (and, where the F_m are boxes, a chunk of m at once, one radius
column per `Group.box_overlaps` call), and one `Fraction` is built per (n, m)
from the least count.

The universally quantified "for all m >= N" in the modulus definition is
undecidable for arbitrary families; empirical entries are therefore stamped
`certified_up_to = m_max`, while entries for standard boxes of a group with
a known box corner are analytic: the group's box threshold beta(r, eps), a
row of radii per `Group.box_thresholds` call, certifies every larger index
(the box ratio is monotone in m), and box refinements step by that threshold.
A modulus table holds one row of columns per tolerance.

The greedy construction is bounded by MATERIALIZE_CAP alone: each stage
searches only the box radii whose box fits it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    FamilyTooLargeError,
    ModulusNotFoundError,
    RefinementWindowError,
    StructureError,
)
from .groups import Group, from_block, group_by_name, least_index, row_codes, to_block

MATERIALIZE_CAP = 2_000_000
# the most (m, g) pairs one `_worst_ratios` chunk counts at once
_CHUNK_ENTRIES = 2**12


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
        if not isinstance(provenance, str):
            raise StructureError(f"family provenance must be a string, got {provenance!r}")
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


_KINDS = ("analytic", "empirical")


def _entry_problem(e) -> Optional[str]:
    """Why e is no entry a table can hold, or None: n, N and a cap are ints (not bools) >= 1,
    the kind is one of _KINDS, and eps is a positive Fraction."""
    if not isinstance(e, ModulusEntry):
        return "not a ModulusEntry"
    ints = {"n": e.n, "N": e.value, "certified_up_to": 1 if e.certified_up_to is None else e.certified_up_to}
    bad = [name for name, v in ints.items() if not (type(v) is int and v >= 1)]
    if bad:
        return f"{' and '.join(bad)} not an integer >= 1"
    if e.kind not in _KINDS:
        return f"kind not one of {_KINDS}"
    if not (isinstance(e.epsilon, Fraction) and e.epsilon > 0):
        return "eps not a positive Fraction"
    return None


# one entry, eps written in, and the table around them, as json.dumps(indent=2, sort_keys=True) lays them out
_ENTRY_TEXT = (
    '    {\n      "N": %%d,\n      "certified_up_to": %%s,\n      "eps": "%d/%d",\n'
    '      "kind": "%%s",\n      "n": %%d\n    }'
)
_TABLE_TEXT = '{\n  "certified_up_to": %s,\n  "entries": %s,\n  "group": %s,\n  "kind": "%s",\n  "provenance": %s\n}\n'


class _Row(NamedTuple):
    """One tolerance's entries as columns in ascending n: n, N, kind and cap (None for every m >= N),
    Python ints and strings, so an N past int64 stays exact."""

    ns: List[int]
    values: List[int]
    kinds: List[str]
    caps: List[Optional[int]]

    @classmethod
    def of(cls, entries: Mapping[int, ModulusEntry]) -> "_Row":
        """The row of entries keyed by their n."""
        return cls(*map(list, zip(*((e.n, e.value, e.kind, e.certified_up_to) for _, e in sorted(entries.items())))))

    def entries(self, eps: Fraction) -> Dict[int, ModulusEntry]:
        return {n: ModulusEntry(n, eps, v, k, c) for n, v, k, c in zip(*self)}

    def holds(self, window: int) -> bool:
        """Whether the row has every n = 1 ... window: its ns are distinct ints >= 1 in ascending order."""
        return len(self.ns) >= window and (window < 1 or self.ns[window - 1] == window)


_NO_ROW = _Row([], [], [], [])


class ModulusTable:
    """Certified values of the Folner convergence modulus beta(n, eps).

    One row of columns per tolerance (`_Row`), hashed once: an exact tolerance's
    hash costs a modular inverse of its denominator (about 104 bits for a float
    tolerance).  A `ModulusEntry` is built only when `entries`, `entries_at` or
    `value` asks.  `build_modulus_table` hands over finished rows; the
    constructor and `from_jsonable` check every entry, a malformed one a
    StructureError naming it, so `to_json_text` formats only ints, known kinds
    and positive tolerances.
    """

    def __init__(self, group_name: str, provenance: str, entries: Iterable[ModulusEntry]):
        for what, name in (("group name", group_name), ("provenance", provenance)):
            if not isinstance(name, str):
                raise StructureError(f"modulus table {what} must be a string, got {name!r}")
        rows: Dict[Fraction, Dict[int, ModulusEntry]] = {}
        for e in entries:
            problem = _entry_problem(e)
            if problem is not None:
                raise StructureError(f"malformed modulus entry {e!r}: {problem}")
            rows.setdefault(e.epsilon, {})[e.n] = e
        self.group_name, self.provenance = group_name, provenance
        self._rows = {eps: _Row.of(row) for eps, row in rows.items()}

    @classmethod
    def _of_rows(cls, group_name: str, provenance: str, rows: Dict[Fraction, _Row]) -> "ModulusTable":
        """A table over finished rows, trusted as built: each a nonempty `_Row` of well-formed entries."""
        table = cls(group_name, provenance, ())
        table._rows = rows
        return table

    @property
    def entries(self) -> Mapping[Tuple[int, Fraction], ModulusEntry]:
        """Every entry keyed by (n, eps), as a read-only view."""
        return MappingProxyType({(n, eps): e for eps, row in self._rows.items() for n, e in row.entries(eps).items()})

    def entries_at(self, eps) -> Mapping[int, ModulusEntry]:
        """The entries at one tolerance keyed by n, as a read-only view (empty if none)."""
        eps = as_fraction(eps)
        return MappingProxyType(self._rows.get(eps, _NO_ROW).entries(eps))

    def envelope_at(self, eps, window: int) -> List[int]:
        """max over i <= n of beta(i, eps) for n = 1 ... window >= 0: the running max of the row's N
        column, which must hold n = 1 ... window (a StructureError if not)."""
        row = self._rows.get(as_fraction(eps), _NO_ROW)
        if not row.holds(window):
            raise StructureError(f"envelope needs entries for all n <= {window} at eps={eps}, have n in {row.ns}")
        return list(itertools.accumulate(row.values[:window], max))

    @property
    def kind(self) -> str:
        return "empirical" if any("empirical" in row.kinds for row in self._rows.values()) else "analytic"

    @property
    def certified_up_to(self) -> Optional[int]:
        return min((c for row in self._rows.values() for c in row.caps if c is not None), default=None)

    def value(self, n: int, eps) -> int:
        eps = as_fraction(eps)
        try:
            return dict(zip(*self._rows.get(eps, _NO_ROW)[:2]))[n]
        except KeyError:
            raise StructureError(f"no modulus entry for (n={n}, eps={eps})") from None

    def epsilons(self) -> List[Fraction]:
        return sorted(self._rows)

    def covers(self, window: int, eps) -> bool:
        """True if entries exist for n = 1..window at eps and certify past window."""
        row = self._rows.get(as_fraction(eps), _NO_ROW)
        return window < 1 or row.holds(window) and all(c is None or c >= window for c in row.caps[:window])

    def to_jsonable(self) -> dict:
        return {
            "group": self.group_name,
            "provenance": self.provenance,
            "kind": self.kind,
            "certified_up_to": self.certified_up_to,
            "entries": [
                {"n": n, "eps": f"{eps.numerator}/{eps.denominator}", "N": v, "kind": k, "certified_up_to": c}
                for eps in sorted(self._rows, key=str)
                for n, v, k, c in zip(*self._rows[eps])
            ],
        }

    def to_json_text(self) -> str:
        """`json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\\n"`, byte for byte, written
        row by row in that layout: the entries sorted by (str(eps), n), which is rows by str(eps),
        then n, each row's entry text with its eps written in once; json.dumps writes the two free
        strings, the group name and the provenance."""
        entries = []
        for eps in sorted(self._rows, key=str):
            text = _ENTRY_TEXT % (eps.numerator, eps.denominator)
            entries += [text % (v, "null" if c is None else c, k, n) for n, v, k, c in zip(*self._rows[eps])]
        cap = self.certified_up_to
        return _TABLE_TEXT % (
            "null" if cap is None else cap,
            "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]",
            json.dumps(self.group_name),
            self.kind,
            json.dumps(self.provenance),
        )

    @classmethod
    def from_jsonable(cls, data: dict) -> "ModulusTable":
        """The table a `to_jsonable` document describes; a malformed entry is a StructureError naming it."""
        if not (isinstance(data, dict) and isinstance(data.get("entries"), list) and "group" in data):
            raise StructureError("a modulus table document is an object with a group and a list of entries")
        entries = []
        for i, e in enumerate(data["entries"]):
            try:
                entry = ModulusEntry(
                    n=e["n"],
                    epsilon=as_fraction(e["eps"]),
                    value=e["N"],
                    kind=e.get("kind", "empirical"),
                    certified_up_to=e.get("certified_up_to"),
                )
            except (TypeError, KeyError, AttributeError, DomainError) as exc:
                raise StructureError(f"malformed modulus entry {i}: {e!r} ({exc})") from None
            problem = _entry_problem(entry)
            if problem is not None:
                raise StructureError(f"malformed modulus entry {i}: {e!r}: {problem}")
            entries.append(entry)
        return cls(data["group"], data.get("provenance", "explicit"), entries)


def _corner(family: FolnerFamily, n: int):
    """The group's box corner at F_n's box radius; None unless F_n is a box with a known corner."""
    r = family.box_radius(n)
    return None if r is None else family.group.box_corner(r)


def worst_ratio(family: FolnerFamily, n: int, m: int, over=None) -> Tuple[Fraction, object]:
    """(ratio, g): the max over g in F_n of |F_m delta gF_m|/|F_m|, and a g attaining it.

    Corner route: with F_n and F_m standard boxes and the corner of F_n known
    (`Group.box_corner`), that corner attains the max, from its integer corner count.
    Set route otherwise, in integers: `family.overlaps(m, ...)` counts
    |F_m intersect gF_m| for every g of F_n's `block` at once (of `over`, any
    collection of elements, each validated, in place of F_n when given), the
    least count is the largest ratio, and one `Fraction` is built from it.  The
    witness is the first maximum in F_n's order, ascending canonical order (in
    `over`'s order).  No elements give (0, None), m checked as an index all the same.
    """
    return next(_worst_ratios(family, n, (m,), over))


def _worst_ratios(family: FolnerFamily, n: int, ms: Iterable[int], over=None) -> Iterator[tuple]:
    """`worst_ratio(family, n, m, over)` for each m of ms in turn, F_n's array read once.

    ms is drawn lazily, a chunk at a time: off the corner route, a box F_m takes the next ms with it,
    up to _CHUNK_ENTRIES (m, g) pairs (one m at least), and where every F_m of the chunk is a box the
    chunk is one `Group.box_overlaps` call, every index checked first; other sets are counted one m at
    a time.  A consumer that stops early counts at most one chunk past the m it stopped at.
    """
    corner = _corner(family, n) if over is None else None
    block, ms = None, iter(ms)
    for m in ms:
        r = None if corner is None else family.box_radius(m)
        if r is not None:
            card = family.group.box_card(r)  # the corner's count: |B_r delta corner B_r| over |B_r|
            yield Fraction(2 * (card - family.group.box_overlap(r, corner)), card), corner
            continue
        if block is None:
            block = family.block(n) if over is None else family.group.check_elements(over)
            size = max(1, _CHUNK_ENTRIES // max(1, len(block)))
        if not len(block):
            family._check_index(m)
            yield Fraction(0), None
            continue
        r = family.box_radius(m)
        chunk = [m] if r is None else [m, *itertools.islice(ms, size - 1)]
        radii = [r, *map(family.box_radius, chunk[1:])]
        if None in radii:
            rows = (family.overlaps(k, block) for k in chunk)
        else:
            rows = family.group.box_overlaps(radii, block)
        for k, row in zip(chunk, rows):
            i = int(np.argmin(row))
            card = family.card(k)
            yield Fraction(2 * (card - int(row[i])), card), from_block(block[i : i + 1])[0]


def convergence_modulus(family: FolnerFamily, n: int, eps, m_max: Optional[int] = None) -> ModulusEntry:
    """A certified entry N = beta(n, eps) for the family.

    Standard box families whose group knows the box corner get an analytic
    entry valid for every m >= N: the box threshold beta(n, eps), the
    group's `Group.box_thresholds` at one radius, which box refinements step
    by too.  Other families get the least N such that the defining condition
    holds for all m in [N, m_max], stamped certified_up_to = m_max: the scan
    runs down from m_max and stops at the first m that fails, so no m below
    N - 1 is counted.  If m_max itself fails, ModulusNotFoundError carries the
    worst ratio at every m in [1, m_max], counted on that path alone.
    """
    eps = _tolerance(eps, "modulus")
    family._check_index(n)
    if m_max is not None:
        _check_int(m_max, "m_max")  # its range matters only to an empirical entry

    value = family.group.box_thresholds([n], eps) if isinstance(family, StandardBoxFamily) else None
    if value is not None:  # certifies every larger m, also past the family's length
        return ModulusEntry(n=n, epsilon=eps, value=value[0], kind="analytic", certified_up_to=None)

    if m_max is None:
        raise DomainError("m_max is required for empirical modulus certification")
    _check_int(m_max, "m_max", 1, family.n_max)

    value = None  # the last m, down from m_max, whose worst ratio is below eps
    for m, (ratio, _) in zip(range(m_max, 0, -1), _worst_ratios(family, n, range(m_max, 0, -1))):
        if ratio >= eps:
            break
        value = m
    if value is None:
        ms = range(1, m_max + 1)
        raise ModulusNotFoundError(n, eps, m_max, {m: r for m, (r, _) in zip(ms, _worst_ratios(family, n, ms))})
    return ModulusEntry(n=n, epsilon=eps, value=value, kind="empirical", certified_up_to=m_max)


def build_modulus_table(
    family: FolnerFamily,
    ns: Iterable[int],
    epsilons: Iterable,
    m_max: Optional[int] = None,
) -> ModulusTable:
    """The table of `convergence_modulus(family, n, eps, m_max)` for every eps of epsilons and n of ns,
    built one row of columns per tolerance.  Every tolerance, and m_max's type, is checked once, also
    when ns is empty, and each tolerance keys its row once; then every n is checked as an index.  A
    standard box family whose group knows the box corner fills each row with one
    `Group.box_thresholds` call; every other entry is a `convergence_modulus` call, in the order ns
    gives them.
    """
    ns = list(ns)
    tolerances = dict.fromkeys([_tolerance(eps, "modulus") for eps in epsilons])
    if m_max is not None:
        _check_int(m_max, "m_max")
    for n in ns if tolerances else ():
        family._check_index(n)
    ordered = sorted(set(ns))
    analytic = ["analytic"] * len(ordered), [None] * len(ordered)

    def row(eps: Fraction) -> _Row:
        values = family.group.box_thresholds(ordered, eps) if isinstance(family, StandardBoxFamily) else None
        if values is not None:
            return _Row(ordered, values, *analytic)
        return _Row.of({n: convergence_modulus(family, n, eps, m_max=m_max) for n in dict.fromkeys(ns)})

    rows = {eps: row(eps) for eps in tolerances} if ns else {}
    return ModulusTable._of_rows(family.group.name, family.provenance, rows)


def envelope(table: ModulusTable) -> ModulusTable:
    """Nondecreasing-in-n envelope: entry(n) -> max over i <= n of entry(i) (`ModulusTable.envelope_at`),
    with the least cap so far, and empirical from the first empirical entry on.

    Requires contiguous coverage n = 1..k at each tolerance present.
    """
    rows = {}
    for eps in table.epsilons():
        ns, _, kinds, caps = table._rows[eps]
        caps = itertools.accumulate(caps, lambda a, b: b if a is None else a if b is None else min(a, b))
        kinds = itertools.accumulate(kinds, max)  # "empirical" > "analytic"
        rows[eps] = _Row(ns, table.envelope_at(eps, len(ns)), list(kinds), list(caps))
    return ModulusTable._of_rows(table.group_name, table.provenance, rows)


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


def greedy_folner(group: Group, n_max: int) -> ExplicitFamily:
    """The computable greedy Folner construction.

    F_1 = {g_1}; for n >= 2 the augmented set F~_n is the first candidate in a
    deterministic stream (F_{n-1} itself, then F_{n-1} united with standard
    boxes of growing radius) satisfying |F~ delta g F~| < |F~|/n for all g in
    F_{n-1}; then F_n = F~_n union {g_n}.  The least valid box radius is
    located by `least_index` up to hi, the largest radius whose box is within
    MATERIALIZE_CAP; it matches a radius-by-radius scan whenever validity is
    monotone in the radius (true for the supported box geometries at these
    scales).  The cap is a stage's only bound: doubling then bisecting over
    [0, hi] makes O(log hi) probes, at most 41 on Z, whose hi is 999,999,
    and a stage whose search finds none raises FamilyTooLargeError.

    A candidate at or past F_{n-1}'s reach (`Group.box_reaches`) is the box,
    counted by `Group.box_overlaps`; a smaller one is `Group.box_block` and
    the rows of F_{n-1} outside it, disjoint, so no probe unions or sorts,
    counted as `ExplicitFamily.overlaps` counts but up to the first g that
    refutes it, unless F_{n-1} holds B_r, when it is F_{n-1} itself, refuted
    by the search's first probe.  The least overlap decides, in integers.
    Only the chosen F_n is sorted.

    Every built stage then satisfies |F_n delta g F_n|/|F_n| < 3/n for all
    g in F_{n-1}.
    """
    _check_int(n_max, "n_max", 1)
    hi = least_index(lambda r: group.box_card(r + 1) > MATERIALIZE_CAP, 0)  # the largest box within the cap
    enum = group.enumeration()  # g_n is drawn when stage n is built
    sets = [to_block([next(enum)])]

    for stage in range(2, n_max + 1):
        prev = sets[-1]
        reaches = group.box_reaches(prev)
        reach = int(reaches.max())

        def candidate(r: int) -> np.ndarray:
            return np.concatenate([group.box_block(r), prev[reaches > r]]) if r else prev

        def candidate_valid(r: int) -> bool:
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
            [beta] = family.group.box_thresholds([family.box_radius(last)], eps)
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
