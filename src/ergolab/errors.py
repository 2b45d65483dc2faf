"""Exception hierarchy shared by all ergolab modules."""

from __future__ import annotations


class ErgolabError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(ErgolabError, ValueError):
    """Malformed or mismatched data: wrong element kind, bad shapes, missing entries."""


class GroupElementError(StructureError):
    """An element does not belong to (or is not a canonical form of) the given group."""


class UnsupportedGroupError(StructureError):
    """A group name or operation outside the supported families Z, Z^d, H3."""


class DomainError(ErgolabError, ValueError):
    """A numeric parameter violates a stated precondition; the message names it."""


class ModulusNotFoundError(ErgolabError):
    """No index N within the window certifies the convergence-modulus condition.

    Carries the best partial data: the worst translation ratio observed for
    each window index, so callers can see how far the search got.
    """

    def __init__(self, n, epsilon, m_max, worst_by_m):
        self.n = n
        self.epsilon = epsilon
        self.m_max = m_max
        self.worst_by_m = dict(worst_by_m)
        super().__init__(
            f"modulus not found in window: no N <= {m_max} certifies "
            f"(n={n}, eps={epsilon}); worst ratio at m={m_max} is {worst_by_m.get(m_max)}"
        )


class RefinementWindowError(ErgolabError):
    """The source family ended before the next fast-refinement term was found."""

    def __init__(self, found, requested):
        self.found = list(found)
        self.requested = requested
        super().__init__(
            f"refinement window exhausted: found {len(self.found)} terms "
            f"{self.found}, requested {requested}"
        )


class FamilyTooLargeError(ErgolabError):
    """A lazily represented Folner set is too large to materialize element-wise."""


class UncertifiedModulusError(ErgolabError):
    """A verification run was refused because its modulus table does not cover the window."""


class NotFastError(ErgolabError):
    """A corollary verification was refused because the family fails its fastness check."""


class ConfigError(ErgolabError, ValueError):
    """An experiment configuration does not validate."""
