"""Moduli of uniform convexity u(eps) consumed by the fluctuation bounds.

Two conventions are in circulation: delta(eps) shrinks midpoints below 1,
u(eps) shrinks them below max(norm); u(eps) = (eps/2) * delta(eps) converts
between them.  For L^p with p >= 2 the sharp delta has the closed form
1 - (1 - (eps/2)^p)^(1/p); for p in (1, 2) no equally nice sharp form exists,
so a standard non-sharp modulus delta(eps) = (p-1) eps^2 / 8 is supplied
under the explicitly marked kind "lp-small-p".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .config import REQUIRED, get_float
from .errors import DomainError


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps <= 2.0:
        raise DomainError(f"convexity modulus argument must be in (0, 2], got {eps}")
    return eps


def u_from_delta(delta: Callable[[float], float], eps: float) -> float:
    """u(eps) = (eps/2) * delta(eps) for a midpoint modulus delta with values in [0, 1]."""
    eps = _check_eps(eps)
    d = float(delta(eps))
    if not 0.0 <= d <= 1.0:
        raise DomainError(f"delta({eps}) = {d} is outside [0, 1]")
    return (eps / 2.0) * d


def hanner_delta(p: float, eps: float) -> float:
    """Sharp midpoint modulus for L^p, p >= 2."""
    if p < 2:
        raise DomainError(f"hanner modulus needs p >= 2 (got p={p}); use lp_small_p_u for p in (1, 2)")
    eps = _check_eps(eps)
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


def hanner_u(p: float, eps: float) -> float:
    """u(eps) = eps/2 - (eps/2)(1 - (eps/2)^p)^(1/p) for L^p, p >= 2.

    Evaluated as (eps/2) * delta so it shares the arithmetic path of
    u_from_delta(hanner_delta) bit for bit.
    """
    eps = _check_eps(eps)
    return (eps / 2.0) * hanner_delta(p, eps)


def p_uniform_u(K: float, p: float, eps: float) -> float:
    """u(eps) = K * eps^(p+1) for a p-uniformly convex space with constant K."""
    if K <= 0:
        raise DomainError(f"p-uniform constant K must be positive, got {K}")
    eps = _check_eps(eps)
    return K * eps ** (p + 1.0)


def lp_small_p_u(p: float, eps: float) -> float:
    """Valid (non-sharp) u for L^p with 1 < p < 2, via delta(eps) = (p-1) eps^2 / 8."""
    if not 1.0 < p < 2.0:
        raise DomainError(f"lp_small_p_u needs p in (1, 2), got {p}")
    eps = _check_eps(eps)
    return (eps / 2.0) * ((p - 1.0) * eps * eps / 8.0)


@dataclass(frozen=True)
class ConvexityModulus:
    """A selected modulus of uniform convexity, evaluated as u(eps)."""

    kind: str  # "hanner-lp" | "p-uniform" | "lp-small-p" | "from-delta"
    p: Optional[float] = None
    K: Optional[float] = None
    delta: Optional[Callable[[float], float]] = None

    @classmethod
    def hanner(cls, p: float) -> "ConvexityModulus":
        if p < 2:
            raise DomainError(f"hanner modulus needs p >= 2, got {p}")
        return cls(kind="hanner-lp", p=float(p))

    @classmethod
    def p_uniform(cls, K: float, p: float) -> "ConvexityModulus":
        if K <= 0:
            raise DomainError(f"p-uniform constant K must be positive, got {K}")
        return cls(kind="p-uniform", p=float(p), K=float(K))

    @classmethod
    def small_p(cls, p: float) -> "ConvexityModulus":
        if not 1.0 < p < 2.0:
            raise DomainError(f"small-p modulus needs p in (1, 2), got {p}")
        return cls(kind="lp-small-p", p=float(p))

    @classmethod
    def from_delta(cls, delta: Callable[[float], float]) -> "ConvexityModulus":
        return cls(kind="from-delta", delta=delta)

    @classmethod
    def for_lp(cls, p: float) -> "ConvexityModulus":
        """The natural choice for L^p: Hanner for p >= 2, the non-sharp one below."""
        if p >= 2:
            return cls.hanner(p)
        return cls.small_p(p)

    @classmethod
    def from_config(cls, cfg: dict, default_p: Optional[float] = None) -> "ConvexityModulus":
        """The modulus a config section names, at its `p` (default_p when absent).

        `type` is hanner, small-p or p-uniform (which reads `K`); without a
        `type` it is the natural choice for L^p (for_lp).
        """
        kind = cfg.get("type")
        if kind not in (None, "hanner", "small-p", "p-uniform"):
            raise DomainError(f"unknown convexity modulus type {kind!r}")
        p = get_float(cfg, "p", REQUIRED if default_p is None else default_p)
        if kind == "p-uniform":
            return cls.p_uniform(get_float(cfg, "K"), p)
        return {None: cls.for_lp, "hanner": cls.hanner, "small-p": cls.small_p}[kind](p)

    def __call__(self, eps: float) -> float:
        if self.kind == "hanner-lp":
            return hanner_u(self.p, eps)
        if self.kind == "p-uniform":
            return p_uniform_u(self.K, self.p, eps)
        if self.kind == "lp-small-p":
            return lp_small_p_u(self.p, eps)
        if self.kind == "from-delta":
            return u_from_delta(self.delta, eps)
        raise DomainError(f"unknown modulus kind {self.kind!r}")
