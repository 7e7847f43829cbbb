"""Exception hierarchy shared by all modules.

Every domain failure raises a subclass of ThetaCalcError so the CLI can map
them onto its exit-code contract (1 = domain error, 2 = usage error).
"""


class ThetaCalcError(Exception):
    """Base class for all library errors."""


class DivisionByZero(ThetaCalcError):
    """Division by the zero rational function or zero polynomial."""


class PoleAtPoint(ThetaCalcError):
    """A rational function was evaluated at a zero of its denominator."""


class NotSquarefree(ThetaCalcError):
    """f and df/dy share a factor of positive y-degree."""


class OutOfWindow(ThetaCalcError):
    """A grid function was sampled outside its stored window."""


class InsufficientWindow(ThetaCalcError):
    """The requested analysis window is too short."""


class ZeroDivisor(ThetaCalcError):
    """Attempt to divide a difference form by the zero form."""


class NoExactRoots(ThetaCalcError):
    """Exact mode was requested but irrational roots remain."""


class ZeroPolynomial(ThetaCalcError):
    """The zero polynomial was passed where a nonzero one is required."""


class PreconditionViolated(ThetaCalcError):
    """A documented precondition failed (e.g. nonvanishing Casoratian)."""


class InconsistentMultiplier(ThetaCalcError):
    """A formal local solution mixes incompatible monodromy multipliers."""


class EigenfailNumeric(ThetaCalcError):
    """Numeric eigenvalue clustering is ambiguous at the given tolerance."""


class TruncationTooSmall(ThetaCalcError):
    """No valid input degree remains on a truncated operator."""


class NotASolution(ThetaCalcError):
    """Operator does not satisfy the required symbolic equation."""


class NotClassifiable(ThetaCalcError):
    """No (alpha, xi) pair satisfies the multiplication identity."""


class CandidateNotARoot(ThetaCalcError):
    """Candidate function is not a root of the characteristic equation."""


class SampleAtSingularity(ThetaCalcError):
    """A numeric sample point hits a singularity of the problem."""


class EvalDomainError(ThetaCalcError):
    """Expression is grammatical but meaningless in the requested context."""


class ExprSyntaxError(ThetaCalcError):
    """Parse failure, carrying the byte offset and the expected-token set."""

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(sorted(expected))

    def __str__(self):
        base = super().__str__()
        if self.expected:
            return "%s at offset %d (expected one of: %s)" % (
                base, self.offset, ", ".join(self.expected))
        return "%s at offset %d" % (base, self.offset)
