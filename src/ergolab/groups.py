"""Countable discrete groups with decidable equality and fixed enumerations.

Supported groups: the integers Z, the lattices Z^d, and the discrete
Heisenberg group H3(Z) in the upper-triangular presentation

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a*b').

Canonical forms are plain Python ints (Z) or tuples of ints (Z^d, H3), so
equality of canonical forms is group equality and arithmetic never wraps
around; Z is Z^1 with an int for its canonical form.  Every group carries one
fixed computable enumeration g_1, g_2, ... starting at the identity;
constructions that consume the enumeration are deterministic across runs.

Each group also knows the geometry of its standard Folner boxes (cardinality,
the least radius holding each element, exact translation overlap counts, and
the box corner with its `corner_floor`), which the folner module reads through
its one corner count and one box threshold.  A block of elements is one array
(`to_block`, B_r's is `Group.box_block`, each row coded as one integer by
`row_codes`); `Group.translate_block` applies the law to each row and
`Group.box_overlaps` counts a block of translations by one formula, both in
int64 wherever no value can reach 2^62 and by the same numpy steps on Python
ints (an object array) past that; on a lattice it is prod max(0, w_i - |g_i|)
over side widths w_i, for boxes and sets filling their bounding box alike
(`Group.filled_overlaps`).  `Group.box_overlap` is one row of the block; Z
and Z^d keep a scalar product for the threshold's one-corner probes.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .errors import DomainError, GroupElementError, UnsupportedGroupError


# every int64 intermediate of an array overlap route stays strictly below this
_INT64_SAFE = 2**62
# the largest d of a lattice Z^d: past d = 13, B_1 (3^d points) is past folner's MATERIALIZE_CAP
MAX_DIMENSION = 64
# H3's array route: r, |a|, |b| <= _H3_ARRAY_REACH and |c| <= _H3_ARRAY_REACH^2
_H3_ARRAY_REACH = 2**12


def _grid(*radii) -> np.ndarray:
    """[-r, r] x ..., one range per r, first slowest (itertools.product's order), as a read-only int64 array."""
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in radii]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(radii))
    grid.flags.writeable = False
    return grid


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


def row_codes(*blocks: np.ndarray) -> List[np.ndarray]:
    """Each row of each nonempty `to_block` array as one integer over the bounding box of them all,
    the first coordinate most significant, so codes are equal exactly where rows are, and order rows
    as their canonical forms order: int64 when the box has under 2^62 points, else Python ints."""
    cols = [b.reshape(len(b), -1).T for b in blocks]  # one column per coordinate
    lo = [min(int(c.min()) for c in axis) for axis in zip(*cols)]
    extents = [max(int(c.max()) for c in axis) - low + 1 for axis, low in zip(zip(*cols), lo)]
    if math.prod(extents) >= _INT64_SAFE or any(b.dtype != np.int64 for b in blocks):
        cols = [c.astype(object) for c in cols]
    codes = [c[0] - lo[0] for c in cols]
    for i in range(1, len(lo)):  # Horner's rule in place: every partial code is below the final one
        for code, c in zip(codes, cols):
            code *= extents[i]
            code += c[i] - lo[i]
    return codes


def _within(values: np.ndarray, limit: int) -> bool:
    """True if values is int64 and every entry lies in [-limit, limit] (so abs cannot overflow)."""
    if values.dtype != np.int64:
        return False
    return values.size == 0 or (int(values.min()) >= -limit and int(values.max()) <= limit)


def _abs(values: np.ndarray) -> np.ndarray:
    """|x| for every entry, exactly: int64, or object where an entry is -2^63, whose abs int64 would wrap."""
    if values.dtype == np.int64 and values.size and int(values.min()) == -(2**63):
        values = values.astype(object)
    return np.abs(values)


def _span_overlaps(widths: Sequence[int], block: np.ndarray) -> np.ndarray:
    """prod_i max(0, w_i - |g_i|) for each row g of a lattice `to_block` array, column by column (numpy
    is several times slower on the whole block): |F intersect gF| for F a box of side widths w_i, exactly.

    In the block's dtype, which must be object (Python ints) unless prod(widths) < 2^62; then int64
    is exact too: each factor is at most w_i and each partial product at most prod(widths), and
    np.abs(-2^63) wraps to -2^63, and w_i + 2^63 wraps negative, so that factor is 0, as the true one is."""
    if block.ndim == 1:  # one column, with no list to reduce
        return np.maximum(0, widths[0] - np.abs(block))
    return functools.reduce(np.multiply, [np.maximum(0, w - np.abs(col)) for w, col in zip(widths, block.T)])


def _progression_sums(lo, hi, base, step):
    """Sum of base + step*x over the integers x in [lo, hi], elementwise; an empty range has k = 0,
    so its terms vanish."""
    k = np.maximum(0, hi - lo + 1)
    return k * base + step * ((lo + hi) * k // 2)


def _zigzag_rank(k: int) -> int:
    """Position of k in the zig-zag order 0, 1, -1, 2, -2, ..."""
    return 2 * k - 1 if k > 0 else -2 * k


class Group:
    """Base interface; elements are canonical integer forms."""

    name: str

    @property
    def identity(self):
        raise NotImplementedError

    def check_element(self, a) -> None:
        """Raise GroupElementError unless a is a canonical form: a tuple of ints shaped like the identity."""
        k = len(self.identity)
        if not (isinstance(a, tuple) and len(a) == k and all(_is_int(c) for c in a)):
            raise GroupElementError(f"{self.name} element must be a {k}-tuple of ints, got {a!r}")

    def check_elements(self, elems) -> np.ndarray:
        """`check_element` on every element of a collection or `to_block` array, as given; returns them as one.

        An int64 block of rows shaped like the identity is accepted at once; one pass accepts exact
        ints or exact tuples of exact ints shaped like it; otherwise each element is checked in
        order, so the first bad one raises its own error.
        """
        shape = self.identity
        if not isinstance(elems, np.ndarray):
            elems = list(elems)
        elif elems.ndim and elems.dtype == np.int64 and elems.shape[1:] == np.shape(shape):
            return elems
        else:
            elems = from_block(elems) if elems.ndim else [elems.item()]
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
        return to_block(elems)

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def enumerate_prefix(self, count: int) -> list:
        """First count elements of the fixed enumeration, identity first."""
        if not (type(count) is int and count >= 1):  # an int, not a bool
            raise DomainError(f"enumeration prefix length must be an integer >= 1, got {count!r}")
        return list(itertools.islice(self.enumeration(), count))

    def enumeration(self) -> Iterator:
        """The fixed enumeration g_1, g_2, ..., identity first, drawn lazily."""
        raise NotImplementedError

    def translate_block(self, block: np.ndarray, g) -> np.ndarray:
        """g*x for each row x of a `to_block` array, in order: int64 where every coordinate provably
        stays below 2^62 in size, and past that the same steps on Python ints (an object array)."""
        raise NotImplementedError

    # -- standard Folner box geometry -------------------------------------

    def box_card(self, r: int) -> int:
        raise NotImplementedError

    def box_reaches(self, block: np.ndarray) -> np.ndarray:
        """For each row g of a `to_block` array, the least r >= 0 with g in B_r, exactly.

        int64 where it fits, else an object array of Python ints.
        """
        raise NotImplementedError

    def box_elements(self, r: int) -> Iterator:
        raise NotImplementedError

    def box_block(self, r: int) -> np.ndarray:
        """B_r as a read-only int64 `to_block` array in ascending canonical order, `box_elements`' order."""
        raise NotImplementedError

    def box_overlap(self, r: int, g) -> int:
        """|B_r intersect g*B_r| as an exact integer: one row of `box_overlaps`."""
        return int(self.box_overlaps(r, to_block([g]))[0])

    def box_overlaps(self, r: int, block: np.ndarray) -> np.ndarray:
        """|B_r intersect g*B_r| for each translation g of a `to_block` array, in order.

        int64 where every intermediate provably stays below 2^62; past that,
        the same steps on Python ints give an exact object array.
        """
        raise NotImplementedError

    def filled_overlaps(self, rows: np.ndarray, block: np.ndarray) -> Optional[np.ndarray]:
        """|F intersect gF| for each g of a `to_block` array in closed form, F an array of distinct rows,
        where the group has one for F (a lattice set that fills its bounding box); else None, as here."""
        return None

    def box_corner(self, r: int):
        """A translation c in B_r maximizing |B_m delta g*B_m| over g in B_r for every m, or None.

        folner relies on this, on |B_m delta c*B_m| / |B_m| being nonincreasing in m with
        limit 0, and on `corner_floor(r, eps)` never exceeding the least m where it is < eps.
        """
        return None

    def corner_floor(self, r: int, eps) -> int:
        """A proven lower bound on the least m >= 1 with |B_m delta c*B_m| < eps*|B_m|, c = box_corner(r).

        folner's box threshold starts its search here; 1 is always sound.
        """
        return 1

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash((type(self).__name__, self.name))


class LatticeGroup(Group):
    """Z^d under coordinatewise addition; canonical form is a d-tuple of ints."""

    def __init__(self, dimension: int):
        if not _is_int(dimension) or not 1 <= dimension <= MAX_DIMENSION:
            raise UnsupportedGroupError(f"lattice dimension must be an int in [1, {MAX_DIMENSION}], got {dimension}")
        self.dimension = dimension
        self.name = f"Z^{dimension}"

    @property
    def identity(self):
        return (0,) * self.dimension

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        self.check_element(a)
        return tuple(-x for x in a)

    def _shell(self, s: int) -> List[tuple]:
        """Elements of 1-norm exactly s, in the decided deterministic order."""
        partial = [((), s)]  # (leading coordinates, 1-norm left for the rest)
        for _ in range(self.dimension - 1):
            partial = [(head + (k,), rem - abs(k)) for head, rem in partial for k in range(-rem, rem + 1)]
        shell = [head + (v,) for head, rem in partial for v in ((rem, -rem) if rem else (0,))]
        # spiral tie-break: later coordinates vary slowest, zig-zag within each
        shell.sort(key=lambda t: tuple(map(_zigzag_rank, reversed(t))))
        return shell

    def enumeration(self):
        for s in itertools.count():
            yield from self._shell(s)

    def translate_block(self, block, g):
        # g + x coordinatewise: int64 while every entry of both is below 2^62 in size
        self.check_element(g)
        shift = to_block(g)
        if not (_within(block, _INT64_SAFE - 1) and _within(shift, _INT64_SAFE - 1)):
            block, shift = block.astype(object), shift.astype(object)
        return block + shift

    def box_card(self, r):
        return (2 * r + 1) ** self.dimension

    def box_reaches(self, block):
        reaches = _abs(block)
        # column by column: on a tall block, 10x faster than max(axis=1)
        return reaches if reaches.ndim == 1 else functools.reduce(np.maximum, reaches.T)

    def box_elements(self, r):
        return itertools.product(range(-r, r + 1), repeat=self.dimension)

    def box_block(self, r):
        return _grid(*[r] * self.dimension).reshape(-1, *np.shape(self.identity))  # (N,) on Z

    def box_overlap(self, r, g):
        prod = 1
        for k in g:
            prod *= max(0, 2 * r + 1 - abs(k))
        return prod

    def box_overlaps(self, r, block):
        if self.box_card(r) >= _INT64_SAFE or not _within(block, _INT64_SAFE):
            block = block.astype(object)  # Python ints past 2^62
        return _span_overlaps([2 * r + 1] * self.dimension, block)

    def filled_overlaps(self, rows, block):
        # F fills its bounding box exactly when the box has |F| points, and is then that box, of
        # |F| < 2^62 points, so the formula stays in int64 on an int64 block
        widths = [int(col.max()) - int(col.min()) + 1 for col in (rows.T if rows.ndim > 1 else [rows])]
        return _span_overlaps(widths, block) if math.prod(widths) == len(rows) else None

    def box_corner(self, r):
        return (r,) * self.dimension

    def corner_floor(self, r, eps):
        """Least m >= 1 with 2r/(2m+1) < eps, or 1 if eps > 2; eps is an exact rational.

        With x = r/(2m+1), the ratio of B_m and its corner translate (r, ..., r)
        on Z^d is 2(1 - (1 - x)^d) >= 2x when 2m+1 >= r, and 2 otherwise; on
        Z^1 it is 2x, so there the floor is the least m itself.
        """
        num, den = eps.numerator, eps.denominator
        if num > 2 * den:
            return 1
        return max(1, (2 * r * den - num) // (2 * num) + 1)


class IntegerGroup(LatticeGroup):
    """The integers under addition: Z^1 with a plain Python int as canonical form and blocks of shape (N,);
    Z^1's block law, box geometry and enumeration order, with the scalar element methods."""

    def __init__(self):
        super().__init__(1)
        self.name = "Z"

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

    def enumeration(self):
        return (k for (k,) in super().enumeration())

    def box_elements(self, r):
        return iter(range(-r, r + 1))

    def box_overlap(self, r, g):
        return max(0, 2 * r + 1 - abs(g))

    def box_corner(self, r):
        return r


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

    def enumeration(self):
        # box-radius sweep: new elements of B_r \ B_{r-1} per shell, zig-zag keyed
        yield (0, 0, 0)
        for r in itertools.count(1):
            shell = [
                (a, b, c)
                for a, b, c in self.box_elements(r)
                if max(abs(a), abs(b)) > r - 1 or abs(c) > (r - 1) ** 2
            ]
            shell.sort(key=lambda t: (_zigzag_rank(t[0]), _zigzag_rank(t[1]), _zigzag_rank(t[2])))
            yield from shell

    def translate_block(self, block, g):
        self.check_element(g)
        a, b, c = g
        # |a|, |b|, |x1|, |x2| <= 2^30 and |c|, |x3| <= 2^60 keep every coordinate, c + x3 + a*x2 too, below 2^62
        small = max(abs(a), abs(b)) <= 2**30 and abs(c) <= 2**60
        # each column on its own: a min and a max over a strided 2-column slice take about 3x as long
        if not (small and all(_within(block[:, k], 2**30) for k in (0, 1)) and _within(block[:, 2], 2**60)):
            block = block.astype(object)
        x1, x2, x3 = block.T
        return np.column_stack([a + x1, b + x2, c + x3 + a * x2])

    def box_card(self, r):
        return (2 * r + 1) ** 2 * (2 * r * r + 1)

    def box_reaches(self, block):
        # |c| <= r^2 first holds at r = ceil(sqrt|c|)
        central = _abs(block[:, 2])
        if _within(block[:, 2], _INT64_SAFE):
            # float sqrt is within 1 of the root for |c| <= 2^62, and (root + 1)^2 < 2^63
            root = np.sqrt(central.astype(float)).astype(np.int64)
            root -= root * root > central
            root += (root + 1) * (root + 1) <= central
            ceil = root + (root * root < central)
        else:
            ceil = np.array([math.isqrt(c - 1) + 1 if c else 0 for c in central.tolist()], dtype=object)
        # column by column, as on lattices: on a tall block, faster than a row-wise max(axis=1)
        return np.maximum(np.maximum(_abs(block[:, 0]), _abs(block[:, 1])), ceil)

    def box_elements(self, r):
        rng = range(-r, r + 1)
        crng = range(-r * r, r * r + 1)
        return itertools.product(rng, rng, crng)

    def box_block(self, r):
        return _grid(r, r, r * r)

    box_overlap = Group.box_overlap  # in this class: the benchmark wraps it here

    def box_overlaps(self, r, block):
        # x in B_r and g^-1 x in B_r: cnt_x1 choices of x1 and, for each x2 in [lo, hi],
        # max(0, depth - |t0 + a*x2|) choices of x3; the tent over that progression is summed
        # in closed form, its branches taken by np.where.  With R = _H3_ARRAY_REACH and
        # r, |a|, |b| <= R, |c| <= R^2: |t0| <= 2R^2 and depth <= 2R^2+1, so every tent end,
        # split and base is at most 4R^2+1 in size, and the a = 0 value at most
        # (2R+1)(4R+1)(4R^2+1) < 2^54.  lo and hi lie in [-2R, 2R]; a progression with k > 0
        # has both ends there and one with k = 0 adds 0, so each sum is at most
        # (4R+1)(4R^2+1) + R(4R)(4R+1)/2 < 2^41, and each overlap is below 2^55 < 2^62.
        # Past that bound the same steps run on Python ints.
        reach = _H3_ARRAY_REACH
        if r > reach or not (all(_within(block[:, k], reach) for k in (0, 1)) and _within(block[:, 2], reach * reach)):
            block = block.astype(object)
        a, b, c = block[:, 0], block[:, 1], block[:, 2]
        cnt_x1 = 2 * r + 1 - np.abs(a)
        # x2 in [-r, r] and x2 - b in [-r, r]
        positive = b > 0
        lo, hi = np.where(positive, b - r, -r), np.where(positive, r, b + r)
        depth = 2 * r * r + 1
        t0 = c - a * b
        level = cnt_x1 * (hi - lo + 1) * np.maximum(0, depth - np.abs(t0))
        # a < 0: x2 -> -x2 turns the slope positive; a = 0 divides by 1 and is discarded
        negative = a < 0
        lo, hi = np.where(negative, -hi, lo), np.where(negative, -lo, hi)
        slope = np.maximum(np.abs(a), 1)
        # t = t0 + slope*x2 rises with x2; the tent is depth + t on -depth < t <= 0
        # and depth - t on 0 < t < depth
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
        digits = m.group(1)
        if len(digits) > len(str(MAX_DIMENSION)):  # past the cap; int() refuses over 4,300 digits
            raise UnsupportedGroupError(f"lattice dimension of {name[:20]!r} is past the cap {MAX_DIMENSION}")
        return LatticeGroup(int(digits))
    raise UnsupportedGroupError(f"unknown group name {name!r}; expected Z, Z^d or H3")
