"""Exception types shared across the package."""


class HsrootsError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(HsrootsError, ValueError):
    """Parameters outside their documented range, such as 1 <= d < n."""


class InvalidTermIndex(HsrootsError, ValueError):
    """Summation index outside [0, d-1]."""


class ConjectureDomain(HsrootsError, ValueError):
    """Operation requires the standing assumption 2d <= n."""


class DimensionMismatch(HsrootsError, ValueError):
    """Vector length incompatible with the requested lattice."""


class EvaluationAtRoot(HsrootsError, ZeroDivisionError):
    """Logarithmic derivative requested at an exact zero of the polynomial."""


class ZeroPolynomial(HsrootsError, ValueError):
    """Stability test on the zero polynomial (or degree < 1)."""


class DivisionByZeroTerm(HsrootsError, ZeroDivisionError):
    """Modulus ratio requested at a zero of the reference product term."""


class HypothesisViolation(HsrootsError, ValueError):
    """Inputs violate the hypothesis under which a bound check is meaningful."""


class DomainViolation(HsrootsError, ValueError):
    """Evaluation point outside the domain a bound check or an evaluator covers."""


class StructureViolation(HsrootsError, ArithmeticError):
    """An exact identity the solver relies on failed for the polynomial at hand."""
