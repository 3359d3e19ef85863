"""Exception types shared across the package.

The CLI maps InfeasiblePlanError to exit code 2; every other failure
exits 1.
"""


class PfestError(Exception):
    """Base class for all package-specific failures."""


class InfeasiblePlanError(PfestError):
    """No finite sample size achieves the requested accuracy.

    Raised when the growth inverse of the divergence generator is
    infinite at the required argument (linear-regime generators below
    their feasibility threshold), and when the smallest sufficient n
    exceeds 10^4000 draws.
    """


class SingularPairError(PfestError):
    """The target places mass where the proposal has none.

    Coverage thresholds and planners require an absolutely continuous
    pair; callers must inspect ``singular_mass`` and handle the mass
    explicitly before planning.
    """


class AllNullDrawsError(PfestError):
    """Every proposal draw landed on a zero-weight atom, so the race
    has no winner."""


class ClassificationError(PfestError):
    """Growth-regime probing failed (non-finite generator values at the
    probe points)."""


class ConfigError(PfestError):
    """Malformed experiment configuration (unknown key, missing
    section, unparseable value)."""
