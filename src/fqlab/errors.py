"""Exception taxonomy.

Two broad families map onto CLI exit codes: bad inputs or misuse
(``ValidationError``, exit 2) and violated numerical assumptions
discovered mid-computation (``NumericalAssumptionError``, exit 3).
"""


class FqlabError(Exception):
    """Base class for all package errors."""


class ValidationError(FqlabError):
    """Invalid input, configuration, or precondition."""


class NumericalAssumptionError(FqlabError):
    """A numerical assumption failed during a computation."""


# -- states ------------------------------------------------------------------

class ZeroProjection(NumericalAssumptionError):
    """Antisymmetric component of the state is numerically zero."""


class NonOrthonormalInput(ValidationError):
    """Orbital set is not orthonormal to tolerance."""


class NonUnitary(ValidationError):
    """Matrix fails the unitarity check."""


class DuplicateRegister(ValidationError):
    """Register sequence contains repeated entries."""


class NotAntisymmetric(ValidationError):
    """State does not satisfy the antisymmetry invariant."""


class BruteForceLimitExceeded(ValidationError):
    """Dense-representation size above the declared brute-force regime."""


# -- hamiltonian -------------------------------------------------------------

class SingularPotential(NumericalAssumptionError):
    """Bare Coulomb kernel evaluated at zero separation."""


# -- meanfield ---------------------------------------------------------------

class DimensionMismatch(ValidationError):
    """Array shapes are inconsistent."""


class ConvergenceFailure(NumericalAssumptionError):
    """Fixed-point iteration did not converge."""


class OrbitalDrift(NumericalAssumptionError):
    """A non-unitary integrator step left the orbitals non-orthonormal."""


# -- stateprep ---------------------------------------------------------------

class DecompositionFailure(NumericalAssumptionError):
    """Rotation network left residual off-pattern matrix elements."""


class ResidualPopulation(NumericalAssumptionError):
    """Second-quantized window not disentangled at end of conversion."""


class OrderingViolation(NumericalAssumptionError):
    """A conversion branch broke the ascending-label invariant."""


# -- shadows -----------------------------------------------------------------

class InsufficientSamples(ValidationError):
    """Fewer samples than the estimator configuration requires."""


class AssumptionViolated(ValidationError):
    """Parameters outside the domain of a bound."""


class EnumerationUnavailable(ValidationError):
    """Exhaustive group enumeration not available at this qubit count."""


class IndexOutOfRange(ValidationError):
    """Register or orbital index out of range."""


# -- costmodel ---------------------------------------------------------------

class EtaTooSmall(ValidationError):
    """Formula requires more particles."""


class MissingM(ValidationError):
    """Finite-temperature variant needs the occupied-orbital count M."""


# -- cli ---------------------------------------------------------------------

class UsageError(ValidationError):
    """Bad command line."""
