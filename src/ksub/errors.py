"""Exception hierarchy shared across the package."""


class KsubError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(KsubError):
    """Malformed expression text; carries the 0-based offset of the problem."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UndeclaredVariableError(ExprSyntaxError):
    """Identifier used in an expression but absent from its variable list."""


class DomainEvalError(KsubError):
    """Evaluation hit an analytic domain problem (division by zero, log of a
    nonpositive number, a result that is not finite, ...). The message names
    the offending subexpression or output field."""


class ArityMismatchError(KsubError):
    """Jet composition with inconsistent variable counts."""


class OutsideDomainError(KsubError):
    """A base point or curve sample left the metric's domain rectangle."""


class FdMarginError(KsubError):
    """Not enough room inside the domain for the requested finite-difference
    stencil."""


class DegenerateImmersionError(KsubError):
    """Surface patch whose coordinate tangents are linearly dependent."""


class AngleSingularError(KsubError):
    """The tilt angle is too close to 0: the tangential part of the vertical
    field vanishes and no adapted tangent frame exists."""


class NotCMCError(KsubError):
    """Mean curvature varies beyond tolerance over the probe stencil, so the
    constant-mean-curvature residual systems do not apply."""


class ZeroGradRError(KsubError):
    """The bundle-curvature gradient vanishes; the reduced angle system is
    undefined and the constant-r path should be used instead."""


class GaussBundleDegenerateError(KsubError):
    """4 r^2 - G vanishes while grad r does not: the angle equation has no
    solution, so no surface through here can be properly biharmonic."""


class DegenerateCurveError(KsubError):
    """Base curve with vanishing speed somewhere on its interval."""


class NotArcLengthError(KsubError):
    """Curve operation that requires unit speed got a non-unit-speed curve."""


class NoIsolatedRootError(KsubError):
    """Root bracketing failed: the scanned function has no sign change (or is
    identically zero)."""
