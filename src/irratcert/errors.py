"""Exception types raised across the library."""


class IrratCertError(Exception):
    """Base class for every failure this library raises on purpose."""


class PerfectPowerError(IrratCertError, ValueError):
    """Radicand is an exact power, so the requested root is an integer."""


class ZeroExponentError(IrratCertError, ValueError):
    """e**r requested with r = 0."""


class BadIndexError(IrratCertError, ValueError):
    """Sequence generators are 1-based; the index fell outside that range."""


def check_index(n: int):
    if n < 1:
        raise BadIndexError(f"index must be >= 1, got {n}")


class ZeroNumeratorError(IrratCertError, ValueError):
    """Reciprocal of an approximant whose numerator is zero."""


class ChainMismatchError(IrratCertError, ValueError):
    """Composition needs the outer numerator to equal the inner denominator."""


class DivisibilityViolationError(IrratCertError, ValueError):
    """Scaled composition needs a.q == b.p * d exactly."""


class CapExceededError(IrratCertError, ValueError):
    """Divisor exceeded the declared cap of a scaled composition."""


class ZeroScaleError(IrratCertError, ValueError):
    """Rescaling by zero would destroy every denominator."""


class NotMonicError(IrratCertError, ValueError):
    """Operation requires a monic modulus."""


class NotSquarefreeError(IrratCertError, ValueError):
    """Root isolation requires gcd(f, f') to be constant."""


class BracketAmbiguousError(IrratCertError, ValueError):
    """Given interval does not isolate exactly one real root."""


class AngleOutOfRangeError(IrratCertError, ValueError):
    """Trig functionals need a rational angle in (0, pi]."""


class AngleNearPiError(AngleOutOfRangeError):
    """Angle falls in the refusal window just below/at pi; refused, not guessed."""


class PrecisionExhausted(IrratCertError, RuntimeError):
    """Refinement budget ran out before the requested property was certified."""
