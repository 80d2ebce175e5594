"""Exception types shared across the package.

Every numerical guard raises one of these instead of letting NaN/inf
propagate silently. Each carries enough context to report the offending
input (position, step size, matrix size, ...).

The CLI sets its exit code from two families: ConvergenceFailure and its
subclasses (a solver could not reach its guard) exit 2, and any other
SusywellError, ConfigError included, exits 3 (the request was refused).
"""

from __future__ import annotations


class SusywellError(Exception):
    """Base class for all package-specific errors."""


class SingularPoint(SusywellError):
    """Evaluation requested within the exclusion radius of a pole."""

    def __init__(self, x: float, singularity: float):
        self.x = x
        self.singularity = singularity
        super().__init__(
            f"evaluation at x={x!r} is within the exclusion radius of the "
            f"singular point {singularity!r}"
        )


class DomainViolation(SusywellError):
    """Position outside the fundamental cell of the requested closed form."""

    def __init__(self, x: float, message: str):
        self.x = x
        super().__init__(f"x={x!r}: {message}")


class StepTooLarge(SusywellError):
    """Finite-difference step too close to a singularity to be trusted."""

    def __init__(self, h: float, limit: float):
        self.h = h
        self.limit = limit
        super().__init__(
            f"step h={h!r} exceeds 1/10 of the distance {limit!r} to the "
            "nearest singularity"
        )


class ConvergenceFailure(SusywellError):
    """A solver did not converge or failed its guard; scattering raises the
    subclasses below."""


class EvanescentOverflow(ConvergenceFailure):
    """Exponential growth across a structure would overflow double precision:
    one slice with |Im z| above 700, or a product of slices, or its match to
    the free waves, beyond e^700."""

    def __init__(self, exponent: float):
        self.exponent = exponent
        super().__init__(
            f"evanescent exponent {exponent!r} exceeds the overflow guard: the "
            "transfer matrix would leave the double range"
        )


class DegenerateMatch(ConvergenceFailure):
    """The free waves e^{+ik0 x}, e^{-ik0 x} outside a structure cannot be
    matched: their Wronskian 2 k0 is below its guard (E near 0), or the
    transfer-matrix entry M22 that r and t divide by vanishes."""

    def __init__(self, what: str, value: complex, bound: float, where: float):
        self.value = value
        self.where = where
        super().__init__(
            f"free-wave matching at x={where!r} is degenerate: {what} = {value!r} "
            f"is below {bound:g}"
        )


class SliceTooCoarse(ConvergenceFailure):
    """Thin-slice refinement failed to stabilize the transmission."""

    def __init__(self, energy: float, slices: int, change: float):
        self.energy = energy
        self.slices = slices
        self.change = change
        super().__init__(
            f"transmission at E={energy!r} still changes by {change!r} after "
            f"refining to {slices} slices"
        )


class ConfigError(SusywellError):
    """Invalid run configuration (bad key, value, or combination)."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
