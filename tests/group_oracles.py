"""Literal group oracles for the tests, written out from the definitions.

The law, inverse, boxes and box overlaps of Z, Z^d and H3, and the action a
word in the generators defines, apart from the library's array forms
(`Group.translate_block`, `Group.box_block`, `Group.word`), so the tests that
compare against them compare two independent computations.
Elements are canonical forms: an int on Z, a tuple of ints elsewhere.
H3's law is the upper-triangular one, (a, b, c)(a', b', c') = (a + a',
b + b', c + c' + a b').
"""

import functools
import itertools

import numpy as np


def law(group, g, h):
    """g * h."""
    if group.name == "Z":
        return g + h
    if group.name == "H3":
        (a, b, c), (x, y, z) = g, h
        return (a + x, b + y, c + z + a * y)
    return tuple(p + q for p, q in zip(g, h))


def inverse(group, g):
    """g^-1: on H3, (a, b, c)(-a, -b, ab - c) is the identity."""
    if group.name == "Z":
        return -g
    if group.name == "H3":
        a, b, c = g
        return (-a, -b, a * b - c)
    return tuple(-c for c in g)


def prefix(group, count):
    """The first count elements of the group's fixed enumeration."""
    return list(itertools.islice(group.enumeration(), count))


def box(group, r):
    """B_r in ascending canonical order: [-r, r] in every coordinate, and [-r^2, r^2] in H3's centre."""
    if group.name == "Z":
        return list(range(-r, r + 1))
    side = range(-r, r + 1)
    if group.name == "H3":
        return list(itertools.product(side, side, range(-r * r, r * r + 1)))
    return list(itertools.product(side, repeat=group.dimension))


@functools.lru_cache(maxsize=4)
def _box_columns(group, r):
    """B_r's coordinate columns, one int64 array each (a single array on Z)."""
    rows = np.array(box(group, r), dtype=np.int64)
    return rows if group.name == "Z" else tuple(rows.T)


def box_overlap(group, r, g):
    """|B_r intersect g B_r|, counted as the x in B_r whose product g x lies in B_r.

    g x is the literal law applied to B_r's coordinate columns at once, so g and r
    must keep every coordinate well inside int64.
    """
    moved = law(group, g, _box_columns(group, r))
    moved = [moved] if group.name == "Z" else moved
    bounds = [r, r, r * r] if group.name == "H3" else [r] * len(moved)
    return int(np.logical_and.reduce([np.abs(c) <= bound for c, bound in zip(moved, bounds)]).sum())


def units(group):
    """The generators by name: t on Z, t1 ... td on Z^d (the unit vectors), and x, y, z on H3."""
    if group.name == "Z":
        return {"t": 1}
    if group.name == "H3":
        return {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
    return {f"t{i + 1}": tuple(int(i == j) for j in range(group.dimension)) for i in range(group.dimension)}


def power_by_steps(perm, k):
    """perm^k as a list: step perm (its inverse when k < 0) |k| times from every point."""
    step = list(perm)
    if k < 0:
        step = [0] * len(perm)
        for s, img in enumerate(perm):
            step[img] = s
    out = list(range(len(perm)))
    for _ in range(abs(k)):
        out = [step[v] for v in out]
    return out


def word_action(group, generators, g):
    """s -> g . s as a list, composed from the generator lists (a dict name -> permutation list) in plain Python.

    g is written as a word in the generators, x^a y^b z^(c - ab) on H3, and the
    word is checked against g by the literal law; a point then takes the word's
    letters right to left, each a generator power stepped out by power_by_steps.
    """
    gens = units(group)
    if group.name == "H3":
        a, b, c = g
        word = [("x", a), ("y", b), ("z", c - a * b)]
    else:
        word = list(zip(gens, [g] if group.name == "Z" else g))
    product = group.identity
    for name, k in word:
        unit = gens[name] if k >= 0 else inverse(group, gens[name])
        for _ in range(abs(k)):
            product = law(group, product, unit)
    assert product == g, (g, word)
    perm = list(range(len(next(iter(generators.values())))))
    for name, k in reversed(word):
        power = power_by_steps(generators[name], k)
        perm = [power[v] for v in perm]
    return perm
