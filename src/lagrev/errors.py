"""Exception hierarchy shared by all lagrev modules."""


class LagrevError(Exception):
    """Base class for all library errors."""


class DomainError(LagrevError):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateSeries(LagrevError):
    """A series operation hit a forbidden constant term (e.g. division by
    a series with zero constant term, log of a series vanishing at 0)."""


class CompositionDomain(LagrevError):
    """Inner series of a composition has a nonzero constant term."""


class ZeroAtOrigin(LagrevError):
    """The f of the reversion problem vanishes at the origin."""


class ConvergenceDomain(LagrevError):
    """Argument outside the convergence domain of a series or product."""


class PoleError(LagrevError):
    """Evaluation requested at a pole."""


class BranchError(LagrevError):
    """A branch cut was crossed, or no solution exists on the requested
    branch."""


class NoConvergence(LagrevError):
    """An iteration failed to converge within its budget."""


class AccuracyLoss(LagrevError):
    """A truncated-series evaluation cannot meet its accuracy contract."""


class NoBracket(LagrevError):
    """Root-finding target lies outside the range of the monotone map."""


class NonMonotone(LagrevError):
    """A map that must be monotone on the working interval is not."""


class NonIntegrable(LagrevError):
    """Quadrature stalled above the requested tolerance, or its terms do
    not decay at a singular end."""


class ParseError(LagrevError):
    """Expression text rejected; the message carries the position."""
