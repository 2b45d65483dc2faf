"""Countable discrete groups with decidable equality and fixed enumerations.

Supported groups: the integers Z, the lattices Z^d, and the discrete
Heisenberg group H3(Z) in the upper-triangular presentation

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a*b').

Canonical forms are plain Python ints (Z) or tuples of ints (Z^d, H3), so
equality of canonical forms is group equality and arithmetic never wraps
around.  Every group carries one fixed computable enumeration g_1, g_2, ...
starting at the identity; constructions that consume the enumeration are
deterministic across runs.

Each group also knows the geometry of its standard Folner boxes (cardinality,
membership, exact translation overlap counts), which the folner module uses
for closed-form invariance ratios.  A block of translations is one array
(`to_block`): overlaps for the whole block come from `Group.box_overlaps` in
int64 wherever no intermediate can reach 2^62, and from the exact scalar
`box_overlap` past that.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from .errors import DomainError, GroupElementError, UnsupportedGroupError


# every int64 intermediate of an array overlap route stays strictly below this
_INT64_SAFE = 2**62
# H3's array route: r, |a|, |b| <= _H3_ARRAY_REACH and |c| <= _H3_ARRAY_REACH^2
_H3_ARRAY_REACH = 2**12


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def to_block(elems: Sequence) -> np.ndarray:
    """Canonical forms as one array, in order: shape (N,) for ints, (N, k) for k-tuples.

    int64 when every coordinate fits, else an object array of the Python ints.
    """
    try:
        return np.array(elems, dtype=np.int64)
    except OverflowError:
        return np.array(elems, dtype=object)


def from_block(block: np.ndarray) -> list:
    """The canonical forms of a `to_block` array, in order."""
    rows = block.tolist()
    return [tuple(row) for row in rows] if block.ndim == 2 else rows


def _within(values: np.ndarray, limit: int) -> bool:
    """True if values is int64 and every entry lies in [-limit, limit] (so abs cannot overflow)."""
    if values.dtype != np.int64:
        return False
    return values.size == 0 or (int(values.min()) >= -limit and int(values.max()) <= limit)


def _axis_factors(r: int, block: np.ndarray, dimension: int):
    """max(0, 2r+1-|k|) for each coordinate k of the block in int64, or None past the bound.

    With every |k| <= 2^62 and (2r+1)^dimension < 2^62: 2r+1-|k| lies in
    (-2^63, 2^62), each factor is at most 2r+1, and a product of `dimension`
    factors, partial products included, is at most (2r+1)^dimension.
    """
    if (2 * r + 1) ** dimension >= _INT64_SAFE or not _within(block, _INT64_SAFE):
        return None
    return np.maximum(0, 2 * r + 1 - np.abs(block))


def _progression_sum(lo: int, hi: int, base: int, step: int) -> int:
    """Sum of base + step*x over the integers x in [lo, hi]; 0 when lo > hi."""
    if lo > hi:
        return 0
    k = hi - lo + 1
    return k * base + step * ((lo + hi) * k // 2)


def _progression_sums(lo, hi, base, step):
    """`_progression_sum` elementwise on int64 arrays: an empty range has k = 0, so its terms vanish."""
    k = np.maximum(0, hi - lo + 1)
    return k * base + step * ((lo + hi) * k // 2)


def _axis_corner_floor(r: int, eps) -> int:
    """Least m >= 1 with 2r/(2m+1) < eps, or 1 if eps > 2; eps is an exact rational.

    The `corner_floor` of Z and Z^d.  With x = r/(2m+1), the ratio of B_m and
    its corner translate (r, ..., r) on Z^d is 2(1 - (1 - x)^d) >= 2x when
    2m+1 >= r, and 2 otherwise; on Z (d = 1) it is 2x, so there the floor is
    the least m itself.
    """
    num, den = eps.numerator, eps.denominator
    if num > 2 * den:
        return 1
    return max(1, (2 * r * den - num) // (2 * num) + 1)


def _zigzag(i: int) -> int:
    """i-th integer along 0, 1, -1, 2, -2, ..."""
    q, r = divmod(i, 2)
    return q + r if r else -q


def _zigzag_rank(k: int) -> int:
    """Position of k in the zig-zag order (inverse of _zigzag)."""
    return 2 * k - 1 if k > 0 else -2 * k


class Group:
    """Base interface; elements are canonical integer forms."""

    name: str

    @property
    def identity(self):
        raise NotImplementedError

    def check_element(self, a) -> None:
        """Raise GroupElementError unless a is a canonical form for this group."""
        raise NotImplementedError

    def check_elements(self, elems) -> None:
        """`check_element` on every element of a collection.

        One pass accepts the common case, exact ints or exact tuples of exact
        ints shaped like the identity; otherwise each element is checked in
        order, so the first bad one raises its own error.
        """
        shape = self.identity
        if type(shape) is int:
            exact = all(type(g) is int for g in elems)
        else:
            k = len(shape)
            exact = all(type(g) is tuple and len(g) == k for g in elems) and all(
                type(c) is int for g in elems for c in g
            )
        if not exact:
            for g in elems:
                self.check_element(g)

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def enumerate_prefix(self, count: int) -> list:
        """First count elements of the fixed enumeration, identity first."""
        if not (type(count) is int and count >= 1):  # an int, not a bool
            raise DomainError(f"enumeration prefix length must be an integer >= 1, got {count!r}")
        return list(itertools.islice(self._enumerate(), count))

    def _enumerate(self) -> Iterator:
        raise NotImplementedError

    def translate_set(self, elems: Iterable, g) -> set:
        """{g*x : x in elems} with the group law inlined for speed."""
        raise NotImplementedError

    def norm1(self, a) -> int:
        """1-norm of the canonical form; used only to order search heuristics."""
        raise NotImplementedError

    # -- standard Folner box geometry -------------------------------------

    def box_card(self, r: int) -> int:
        raise NotImplementedError

    def box_contains(self, r: int, g) -> bool:
        raise NotImplementedError

    def box_elements(self, r: int) -> Iterator:
        raise NotImplementedError

    def box_overlap(self, r: int, g) -> int:
        """|B_r intersect g*B_r| as an exact integer."""
        raise NotImplementedError

    def box_overlaps(self, r: int, block: np.ndarray) -> np.ndarray:
        """`box_overlap(r, g)` for each translation g of a `to_block` array, in order.

        The groups compute this in int64 where every intermediate provably
        stays below 2^62, and fall back past that to this loop over the
        scalar `box_overlap`, which returns an object array of Python ints.
        """
        return np.array([self.box_overlap(r, g) for g in from_block(block)], dtype=object)

    def box_corner(self, r: int):
        """A translation c in B_r maximizing |B_m delta g*B_m| over g in B_r for every m, or None.

        folner relies on this, on |B_m delta c*B_m| / |B_m| being nonincreasing in m with
        limit 0, and on `corner_floor(r, eps)` never exceeding the least m where it is < eps.
        """
        return None

    def corner_floor(self, r: int, eps) -> int:
        """A proven lower bound on the least m >= 1 with |B_m delta c*B_m| < eps*|B_m|, c = box_corner(r).

        folner starts its analytic modulus search here; 1 is always sound.
        """
        return 1

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash((type(self).__name__, self.name))


class IntegerGroup(Group):
    """The integers under addition; canonical form is a Python int."""

    name = "Z"

    @property
    def identity(self):
        return 0

    def check_element(self, a) -> None:
        if not _is_int(a):
            raise GroupElementError(f"Z element must be an int, got {a!r}")

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return a + b

    def inverse(self, a):
        self.check_element(a)
        return -a

    def _enumerate(self):
        i = 0
        while True:
            yield _zigzag(i)
            i += 1

    def translate_set(self, elems, g):
        self.check_element(g)
        return {g + x for x in elems}

    def norm1(self, a):
        return abs(a)

    def box_card(self, r):
        return 2 * r + 1

    def box_contains(self, r, g):
        return -r <= g <= r

    def box_elements(self, r):
        return iter(range(-r, r + 1))

    def box_overlap(self, r, g):
        return max(0, 2 * r + 1 - abs(g))

    def box_overlaps(self, r, block):
        factors = _axis_factors(r, block, 1)
        return super().box_overlaps(r, block) if factors is None else factors

    def box_corner(self, r):
        return r

    def corner_floor(self, r, eps):
        return _axis_corner_floor(r, eps)  # exact on Z


class LatticeGroup(Group):
    """Z^d under coordinatewise addition; canonical form is a d-tuple of ints."""

    def __init__(self, dimension: int):
        if not _is_int(dimension) or dimension < 1:
            raise UnsupportedGroupError(f"lattice dimension must be a positive int, got {dimension}")
        self.dimension = dimension
        self.name = f"Z^{dimension}"

    @property
    def identity(self):
        return (0,) * self.dimension

    def check_element(self, a) -> None:
        if type(a) is tuple and len(a) == self.dimension and all(type(c) is int for c in a):
            return  # exact types: the common case, accepted without the general check
        if (
            not isinstance(a, tuple)
            or len(a) != self.dimension
            or not all(_is_int(c) for c in a)
        ):
            raise GroupElementError(f"{self.name} element must be a {self.dimension}-tuple of ints, got {a!r}")

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        self.check_element(a)
        return tuple(-x for x in a)

    def _shell(self, s: int) -> List[tuple]:
        """Elements of 1-norm exactly s, in the decided deterministic order."""

        def build(rem: int, coords_left: int):
            if coords_left == 1:
                for v in ((rem, -rem) if rem else (0,)):
                    yield (v,)
                return
            for k in range(-rem, rem + 1):
                for tail in build(rem - abs(k), coords_left - 1):
                    yield (k,) + tail

        shell = list(build(s, self.dimension))
        # spiral tie-break: later coordinates vary slowest, zig-zag within each
        shell.sort(key=lambda t: tuple(_zigzag_rank(c) for c in reversed(t)))
        return shell

    def _enumerate(self):
        s = 0
        while True:
            yield from self._shell(s)
            s += 1

    def translate_set(self, elems, g):
        self.check_element(g)
        return {tuple(gi + xi for gi, xi in zip(g, x)) for x in elems}

    def norm1(self, a):
        return sum(abs(c) for c in a)

    def box_card(self, r):
        return (2 * r + 1) ** self.dimension

    def box_contains(self, r, g):
        return all(-r <= c <= r for c in g)

    def box_elements(self, r):
        return itertools.product(range(-r, r + 1), repeat=self.dimension)

    def box_overlap(self, r, g):
        prod = 1
        for k in g:
            prod *= max(0, 2 * r + 1 - abs(k))
        return prod

    def box_overlaps(self, r, block):
        factors = _axis_factors(r, block, self.dimension)
        return super().box_overlaps(r, block) if factors is None else factors.prod(axis=1)

    def box_corner(self, r):
        return (r,) * self.dimension

    def corner_floor(self, r, eps):
        return _axis_corner_floor(r, eps)  # the least m on Z: the Z^d corner ratio is at least Z's


class HeisenbergGroup(Group):
    """Discrete Heisenberg group H3(Z); canonical form is a triple (a, b, c).

    Standard Folner boxes use the quadratic central scaling
    B_r = {(a, b, c): |a|, |b| <= r, |c| <= r^2}; boxes with a linear c-range
    are not Folner in H3.
    """

    name = "H3"

    @property
    def identity(self):
        return (0, 0, 0)

    def check_element(self, a) -> None:
        if type(a) is tuple and len(a) == 3 and type(a[0]) is int and type(a[1]) is int and type(a[2]) is int:
            return  # exact types: the common case, accepted without the general check
        if not isinstance(a, tuple) or len(a) != 3 or not all(_is_int(c) for c in a):
            raise GroupElementError(f"H3 element must be a 3-tuple of ints, got {a!r}")

    def multiply(self, x, y):
        self.check_element(x)
        self.check_element(y)
        a, b, c = x
        ap, bp, cp = y
        return (a + ap, b + bp, c + cp + a * bp)

    def inverse(self, x):
        self.check_element(x)
        a, b, c = x
        return (-a, -b, -c + a * b)

    def _enumerate(self):
        # box-radius sweep: new elements of B_r \ B_{r-1} per shell, zig-zag keyed
        r = 0
        while True:
            if r == 0:
                yield (0, 0, 0)
            else:
                shell = [
                    (a, b, c)
                    for a, b, c in self.box_elements(r)
                    if max(abs(a), abs(b)) > r - 1 or abs(c) > (r - 1) ** 2
                ]
                shell.sort(key=lambda t: (_zigzag_rank(t[0]), _zigzag_rank(t[1]), _zigzag_rank(t[2])))
                yield from shell
            r += 1

    def translate_set(self, elems, g):
        self.check_element(g)
        a, b, c = g
        return {(a + x1, b + x2, c + x3 + a * x2) for x1, x2, x3 in elems}

    def norm1(self, x):
        return abs(x[0]) + abs(x[1]) + abs(x[2])

    def box_card(self, r):
        return (2 * r + 1) ** 2 * (2 * r * r + 1)

    def box_contains(self, r, g):
        a, b, c = g
        return abs(a) <= r and abs(b) <= r and abs(c) <= r * r

    def box_elements(self, r):
        rng = range(-r, r + 1)
        crng = range(-r * r, r * r + 1)
        return itertools.product(rng, rng, crng)

    def box_overlap(self, r, g):
        # x in B_r and g^-1 x in B_r: cnt_x1 choices of x1 and, for each x2 in
        # [lo, hi], max(0, D - |t0 + a*x2|) choices of x3; the tent over that
        # progression is summed in closed form, in exact integers
        a, b, c = g
        cnt_x1 = 2 * r + 1 - abs(a)
        if cnt_x1 <= 0 or abs(b) > 2 * r:
            return 0
        # x2 in [-r, r] and x2 - b in [-r, r]
        lo, hi = (b - r, r) if b > 0 else (-r, b + r)
        depth = 2 * r * r + 1
        t0 = c - a * b
        if a == 0:
            return cnt_x1 * (hi - lo + 1) * max(0, depth - abs(t0))
        if a < 0:
            # x2 -> -x2 turns the slope positive
            a, lo, hi = -a, -hi, -lo
        # t = t0 + a*x2 rises with x2; the tent is depth + t on -depth < t <= 0
        # and depth - t on 0 < t < depth
        split = -t0 // a
        rising = _progression_sum(max(lo, -((depth - 1 + t0) // a)), min(hi, split), depth + t0, a)
        falling = _progression_sum(max(lo, split + 1), min(hi, (depth - 1 - t0) // a), depth - t0, -a)
        return cnt_x1 * (rising + falling)

    def box_overlaps(self, r, block):
        # `box_overlap` on every row at once, its branches taken by np.where.  With R =
        # _H3_ARRAY_REACH and r, |a|, |b| <= R, |c| <= R^2: |t0| <= 2R^2 and depth <= 2R^2+1,
        # so every tent end, split and base is at most 4R^2+1 in size, and the a = 0 value
        # at most (2R+1)(4R+1)(4R^2+1) < 2^54.  lo and hi lie in [-2R, 2R]; a progression
        # with k > 0 has both ends there and one with k = 0 adds 0, so each sum is at most
        # (4R+1)(4R^2+1) + R(4R)(4R+1)/2 < 2^41, and each overlap is below 2^55 < 2^62.
        reach = _H3_ARRAY_REACH
        if r > reach or not (_within(block[:, :2], reach) and _within(block[:, 2], reach * reach)):
            return super().box_overlaps(r, block)
        a, b, c = block[:, 0], block[:, 1], block[:, 2]
        cnt_x1 = 2 * r + 1 - np.abs(a)
        positive = b > 0
        lo, hi = np.where(positive, b - r, -r), np.where(positive, r, b + r)
        depth = 2 * r * r + 1
        t0 = c - a * b
        level = cnt_x1 * (hi - lo + 1) * np.maximum(0, depth - np.abs(t0))
        # a < 0: x2 -> -x2 turns the slope positive; a = 0 divides by 1 and is discarded
        negative = a < 0
        lo, hi = np.where(negative, -hi, lo), np.where(negative, -lo, hi)
        slope = np.maximum(np.abs(a), 1)
        split = -t0 // slope
        rise_lo, fall_hi = -((depth - 1 + t0) // slope), (depth - 1 - t0) // slope
        rising = _progression_sums(np.maximum(lo, rise_lo), np.minimum(hi, split), depth + t0, slope)
        falling = _progression_sums(np.maximum(lo, split + 1), np.minimum(hi, fall_hi), depth - t0, -slope)
        overlap = np.where(a == 0, level, cnt_x1 * (rising + falling))
        return np.where((cnt_x1 <= 0) | (np.abs(b) > 2 * r), 0, overlap)


def group_by_name(name: str) -> Group:
    """Resolve the CLI/config group names: "Z", "Z^2", "Z^3", ..., "H3"."""
    if name == "Z":
        return IntegerGroup()
    if name == "H3":
        return HeisenbergGroup()
    m = re.fullmatch(r"Z\^(\d+)", name) if isinstance(name, str) else None
    if m:
        return LatticeGroup(int(m.group(1)))
    raise UnsupportedGroupError(f"unknown group name {name!r}; expected Z, Z^d or H3")


def multiply(group: Group, a, b):
    """Canonical form of a*b."""
    return group.multiply(a, b)


def inverse(group: Group, a):
    """Canonical form of a^-1."""
    return group.inverse(a)


def enumerate_prefix(group: Group, count: int) -> list:
    """g_1 ... g_count of the group's fixed enumeration."""
    return group.enumerate_prefix(count)
