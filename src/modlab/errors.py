"""Exception taxonomy for modlab.

Every failure mode that callers are expected to branch on gets its own
class.  Each class belongs to one of four groups, and the group carries
the CLI exit code and the stderr label:

    InvalidInput      2  invalid config, argument or output sink
    OrbitNotFound     3  no periodic orbit
    LimitFailure      4  degenerate orbit or limit failure
    ToleranceFailure  5  tolerance, fit or integrator failure
"""


class ModlabError(Exception):
    """Base class for all modlab errors; each class sits in one group."""


class InvalidInput(ModlabError):
    exit_code = 2
    label = "invalid input"


class OrbitNotFound(ModlabError):
    exit_code = 3
    label = "no periodic orbit"


class LimitFailure(ModlabError):
    exit_code = 4
    label = "limit failure"


class ToleranceFailure(ModlabError):
    exit_code = 5
    label = "tolerance failure"


class ConfigError(InvalidInput):
    """Invalid or unparsable run configuration."""

    label = "config error"


class DomainViolation(InvalidInput):
    """Evaluation point outside the model's admissible interval."""


class IOFailure(InvalidInput):
    """Report could not be written to its sink."""

    label = "io failure"


class NoPeriodicOrbit(OrbitNotFound):
    """The energy level cuts no bounded well in the search window."""


class MultipleWells(OrbitNotFound):
    """More than one candidate well in the window; caller must narrow it."""


class DegenerateOrbit(LimitFailure):
    """Two turning points have collapsed (harmonic or soliton edge)."""


class StencilLeftBranch(LimitFailure):
    """A finite-difference stencil point crossed a distinguished limit."""


class LeftBranch(LimitFailure):
    """Parameter update left the wave branch during a solve."""


class NoWellMinimum(LimitFailure):
    """No nondegenerate potential minimum in the window."""


class DegenerateWell(LimitFailure):
    """Potential minimum with vanishing curvature."""


class NoSaddle(LimitFailure):
    """No nondegenerate potential maximum with an adjacent well."""


class GroupVelocityResonance(LimitFailure):
    """Group velocity collides with a dispersionless characteristic."""


class SpeedResonance(LimitFailure):
    """Solitary-wave speed collides with a dispersionless characteristic."""


class InadmissibleWavenumber(LimitFailure):
    """Harmonic wavenumber below the admissibility threshold."""


class UncoveredClass(LimitFailure):
    """Model outside the classes with a sign prediction."""


class UnsupportedConjugateFamily(LimitFailure):
    """Conjugate model falls outside the supported function families."""


class QuadratureNotConverged(ToleranceFailure):
    """Order-doubling error estimate above the requested tolerance."""


class IntegratorFailure(ToleranceFailure):
    """Shooting integration failed or the return event never fired."""


class SingularThetaHessian(ToleranceFailure):
    """Action Hessian numerically singular where an inverse is needed."""


class SingularJacobian(ToleranceFailure):
    """Newton Jacobian singular in the coordinate-change solve."""


class NoConvergence(ToleranceFailure):
    """Iteration exhausted without meeting tolerance."""


class EigenFailure(ToleranceFailure):
    """Small dense eigensolver could not meet its residual tolerance."""


class FitRejected(ToleranceFailure):
    """Asymptotic fit failed its R² or residual gate."""


class GridDegenerate(ToleranceFailure):
    """Sweep grid empty, non-monotone, or collapsed."""
