"""Exception types shared across the package.

Every numerical guard raises one of these instead of letting NaN/inf
propagate silently, with a message that names the offending input
(position, step size, matrix size, ...).

There is one class per way a run ends, and the CLI reads nothing else: a
ConvergenceFailure (a solver could not reach its guard) exits 2, a
ConfigError exits 3, and any other SusywellError (the request was refused)
exits 3 too.
"""

from __future__ import annotations


class SusywellError(Exception):
    """A refused request, such as an evaluation within the exclusion radius
    of a pole, a point outside the cell of a closed form, or a
    finite-difference step too close to a pole; base of the other two."""


class ConvergenceFailure(SusywellError):
    """A solver did not converge or failed its guard: an eigenpair not
    certified, a transfer matrix that would leave the double range, free
    waves that cannot be matched, or a plane series that grows past its
    guard."""


class ConfigError(SusywellError):
    """Invalid run configuration (bad key, value, or combination)."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
