"""Convexity modulus formulas against direct and high-precision evaluation."""

import math

import mpmath as mp
import pytest

from ergolab import (
    ConfigError,
    ConvexityModulus,
    DomainError,
    hanner_delta,
    hanner_u,
    lp_small_p_u,
    p_uniform_u,
    u_from_delta,
)

mp.mp.dps = 50


def mp_hanner_u(p, eps):
    e = mp.mpf(eps)
    return float(e / 2 - (e / 2) * (1 - (e / 2) ** p) ** (mp.mpf(1) / p))


def test_u_from_delta_examples():
    assert u_from_delta(lambda e: 0.0, 1.3) == 0.0
    assert u_from_delta(lambda e: 1.0, 2.0) == 1.0
    assert u_from_delta(lambda e: e / 4, 1.0) == pytest.approx(1 / 8, abs=0)
    with pytest.raises(DomainError):
        u_from_delta(lambda e: 0.5, 2.5)
    with pytest.raises(DomainError):
        u_from_delta(lambda e: 1.5, 1.0)


def test_hanner_examples():
    assert hanner_u(2, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert hanner_u(2, math.sqrt(2)) == pytest.approx(0.20710678118654757, abs=1e-15)
    # p = 4, eps = 1: delta = 1 - (15/16)^(1/4), u = delta/2
    assert hanner_u(4, 1.0) == pytest.approx(0.5 * (1 - (15 / 16) ** 0.25), abs=1e-15)
    assert hanner_u(4, 1.0) == pytest.approx(0.0080, abs=5e-4)


@pytest.mark.parametrize("p", [2.0, 2.5, 4.0, 7.0])
def test_hanner_against_mpmath(p):
    for eps in (0.05, 0.3, 0.5, 1.0, 1.7, 2.0):
        assert hanner_u(p, eps) == pytest.approx(mp_hanner_u(p, eps), rel=1e-12, abs=1e-15)


def test_hanner_equals_u_from_delta_exactly():
    # same arithmetic path: (eps/2) * hanner_delta must reproduce hanner_u bitwise
    for p in (2.0, 3.0, 5.5):
        eps = 1e-3
        while eps <= 2.0:
            assert hanner_u(p, eps) == u_from_delta(lambda e: hanner_delta(p, e), eps)
            eps += 1e-3


def test_hanner_p2_below_half_eps():
    eps = 1e-3
    while eps <= 2.0:
        assert hanner_u(2, eps) <= eps / 2
        eps += 1e-3


def test_hanner_rejects_small_p():
    with pytest.raises(DomainError, match="lp_small_p_u"):
        hanner_u(1.5, 0.3)


def test_p_uniform_examples():
    assert p_uniform_u(1.0, 1.0, 1.0) == 1.0
    assert p_uniform_u(0.5, 2.0, 0.5) == pytest.approx(1 / 16, abs=0)
    with pytest.raises(DomainError):
        p_uniform_u(0.0, 2.0, 0.5)


def test_small_p_examples():
    assert lp_small_p_u(1.5, 1.0) == pytest.approx(1 / 32, abs=0)
    # the (p-1) factor kills the modulus as p -> 1+
    assert lp_small_p_u(1.0 + 1e-9, 1.0) < 1e-9
    with pytest.raises(DomainError):
        lp_small_p_u(2.0, 1.0)
    with pytest.raises(DomainError):
        lp_small_p_u(0.9, 1.0)


@pytest.mark.parametrize(
    "modulus",
    [
        ConvexityModulus.hanner(2),
        ConvexityModulus.hanner(4.5),
        ConvexityModulus.p_uniform(0.25, 2),
        ConvexityModulus.small_p(1.5),
    ],
    ids=lambda m: m.kind + str(m.p),
)
def test_positive_and_nondecreasing_on_grid(modulus):
    prev = 0.0
    eps = 1e-3
    while eps <= 2.0:
        val = modulus(eps)
        assert val > 0.0
        assert val >= prev  # exact monotonicity for these formulas
        prev = val
        eps += 1e-3


def test_modulus_selection_from_config():
    assert ConvexityModulus.from_config({"type": "hanner", "p": 3}).kind == "hanner-lp"
    assert ConvexityModulus.from_config({"type": "p-uniform", "K": 1, "p": 2}).kind == "p-uniform"
    assert ConvexityModulus.from_config({"type": "small-p", "p": 1.4}).kind == "lp-small-p"
    assert ConvexityModulus.from_config({"type": "hanner"}, default_p=2).p == 2
    assert ConvexityModulus.for_lp(2).kind == "hanner-lp"
    assert ConvexityModulus.for_lp(1.5).kind == "lp-small-p"
    with pytest.raises(DomainError):
        ConvexityModulus.from_config({"type": "mystery"})


def test_modulus_from_config_defaults_by_p_and_types_its_numbers():
    # no type: the same choice as for_lp, which `bound eval --modulus auto` also takes
    assert ConvexityModulus.from_config({}, default_p=3) == ConvexityModulus.for_lp(3)
    assert ConvexityModulus.from_config({"p": 1.5}) == ConvexityModulus.for_lp(1.5)
    for cfg in ({"type": "p-uniform", "p": 2}, {"type": "p-uniform", "K": "x", "p": 2}, {"type": "hanner", "p": "x"}, {}):
        with pytest.raises(ConfigError):
            ConvexityModulus.from_config(cfg)
