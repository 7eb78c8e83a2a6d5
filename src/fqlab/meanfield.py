"""Real-time time-dependent Hartree-Fock on the grid discretization.

The basis is the set of grid delta functions, which makes the two-body
integrals diagonal: (mu nu|lambda sigma) = delta_{mu nu} delta_{lambda
sigma} v(mu, lambda). The Fock build then reduces to a diagonal Coulomb
contraction plus an elementwise exchange term, and the quantum and
classical modules share one Hamiltonian.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    OrbitalDrift,
    ValidationError,
)
from .grids import GridSpec
from .hamiltonian import (
    CoulombKernel,
    NuclearConfig,
    kinetic_matrix,
    nuclear_potential_table,
    nuclear_repulsion,
    pair_potential_table,
)


ORTHONORMAL_TOL = 1e-8


def _orthonormality_residual(c: np.ndarray) -> float:
    """max |C†C - I|, elementwise."""
    if c.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(c.conj().T @ c - np.eye(c.shape[1]))))


@dataclass
class OccupiedOrbitals:
    """N x eta coefficient matrix with orthonormal columns."""

    coeffs: np.ndarray
    grid: GridSpec | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2:
            raise ValidationError("coefficients must be an N x eta matrix")
        if not np.all(np.isfinite(c)):
            raise ValidationError("orbital coefficients must be finite")
        if _orthonormality_residual(c) > ORTHONORMAL_TOL:
            raise ValidationError("orbital columns not orthonormal within 1e-8")
        self.coeffs = c

    @property
    def eta(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_basis(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class GridIntegrals:
    """One-body matrix h and diagonal two-body kernel values v."""

    h: np.ndarray          # (N, N) Hermitian
    v: np.ndarray          # (N, N) symmetric, nonnegative
    nuclear_offset: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        v = np.asarray(self.v, dtype=float)
        if h.shape != v.shape or h.shape[0] != h.shape[1]:
            raise DimensionMismatch("h and v must be square with equal shape")
        if np.max(np.abs(h - h.conj().T)) > 1e-10:
            raise ValidationError("h must be Hermitian within 1e-10")
        if np.max(np.abs(v - v.T)) > 1e-12 or np.any(v < 0):
            raise ValidationError("v must be symmetric and nonnegative")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)

    @staticmethod
    def from_grid(grid: GridSpec, nuclei: NuclearConfig,
                  kernel: CoulombKernel) -> "GridIntegrals":
        h = (kinetic_matrix(grid)
             + np.diag(nuclear_potential_table(grid, nuclei, kernel)))
        return GridIntegrals(h=h, v=pair_potential_table(grid, kernel),
                             nuclear_offset=nuclear_repulsion(nuclei))


@dataclass(frozen=True)
class TdhfPlan:
    total_time: float
    steps: int
    scheme: str = "exponential-midpoint"

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.scheme not in ("exponential-midpoint", "rk4"):
            raise ValidationError("scheme must be exponential-midpoint or rk4")


def _density_matrix(c: np.ndarray) -> np.ndarray:
    """P = C C†, the density contracted into the Fock build."""
    return c @ c.conj().T


def mean_field_1rdm(orbitals: OccupiedOrbitals) -> np.ndarray:
    """One-particle RDM with elements <a_mu† a_nu>: Hermitian rank-eta
    projector with trace eta.

    This is the transpose (conjugate) of the density P = C C† used in
    the Fock contraction; the two coincide for real coefficients. The
    transition-operator convention is the one the first-quantized
    k-RDM oracle uses, so the cross-module checks compare elementwise.
    """
    return _density_matrix(orbitals.coeffs).T.copy()


def _density_diagonal(c: np.ndarray) -> np.ndarray:
    """diag(P) = sum_b |C_ib|^2, without forming P."""
    return np.sum(c.real ** 2 + c.imag ** 2, axis=1)


def _fock_from_matrix(c: np.ndarray, integrals: GridIntegrals) -> np.ndarray:
    """F(C), built in place in the one N x N temporary P = C C†."""
    if c.shape[0] != integrals.h.shape[0]:
        raise DimensionMismatch("orbital and integral dimensions differ")
    fock = _density_matrix(c)
    coulomb = integrals.v @ fock.real.diagonal()
    fock *= integrals.v
    fock *= -0.5
    fock += integrals.h
    fock[np.diag_indices_from(fock)] += coulomb
    return fock


def build_fock(orbitals: OccupiedOrbitals, integrals: GridIntegrals) -> np.ndarray:
    """F = h + Coulomb - exchange/2 contracted with P = C C†.

    With diagonal grid integrals the Coulomb term is diag(v @ diag(P))
    and the exchange term is v * P elementwise.
    """
    return _fock_from_matrix(orbitals.coeffs, integrals)


def hf_energy(orbitals: OccupiedOrbitals, integrals: GridIntegrals,
              fock: np.ndarray | None = None) -> float:
    """E = Tr[(h + F) P] / 2 plus the nuclear repulsion offset; ``fock``
    is F(C) when the caller has built it already.

    P is Hermitian, so Tr[X P] = sum_ij X_ij conj(P_ij): an elementwise
    O(N^2) sum, not a matrix product. ``np.sum`` adds pairwise, which
    keeps the rounding at the level of the product's trace; a BLAS dot
    over all N^2 terms at once does not.
    """
    p = _density_matrix(orbitals.coeffs)
    f = build_fock(orbitals, integrals) if fock is None else fock
    return float(np.sum((integrals.h + f) * p.conj()).real) / 2 + integrals.nuclear_offset


def fock_spectral_norm(orbitals: OccupiedOrbitals,
                       integrals: GridIntegrals) -> float:
    """Largest singular value of F(C_occ)."""
    f = build_fock(orbitals, integrals)
    return float(np.linalg.norm(f, ord=2))


_TAYLOR_TOL = 2.0 ** -53
# The terms of exp(-i x) sum to e^|x| in magnitude before they cancel, so
# a substep rounds off about e^theta * 2^-53; degree 30 keeps theta < 4.
_MAX_TAYLOR_DEGREE = 30


def _taylor_theta(m: int) -> float:
    """Largest theta at which the degree-m Taylor remainder of exp(-i x),
    at most theta^(m+1)/(m+1)! for real |x| <= theta, is 2^-53 * theta."""
    return math.exp((math.log(_TAYLOR_TOL) + math.lgamma(m + 2)) / m)


_TAYLOR_THETA = {m: _taylor_theta(m) for m in range(1, _MAX_TAYLOR_DEGREE + 1)}


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(substeps s, degree m) with the fewest products s * m such that
    every substep's operator has 1-norm at most theta_m."""
    return min(((max(1, math.ceil(norm / theta)), m)
                for m, theta in _TAYLOR_THETA.items()),
               key=lambda plan: plan[0] * plan[1])


def _taylor_action(a: np.ndarray, c: np.ndarray, norm: float,
                   plan: tuple[int, int]) -> np.ndarray:
    """exp(-i a) @ c by s substeps of a degree-m Taylor series, where
    ``norm`` is ||a||_1 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)). ``a`` is scaled in place.

    For Hermitian a, ||a||_2 <= ||a||_1, so a substep truncated at degree
    m errs by at most 2^-53 of its operator's norm. A substep stops
    earlier at term k once k + 1 > theta = ||a||_1 / s and the remainder
    bound |term_k| theta / (k + 1 - theta) is below 2^-53 of the sum.
    """
    s, m = plan
    x = a
    x *= -1j / s
    theta = norm / s
    for _ in range(s):
        term = total = c
        for k in range(1, m + 1):
            term = (x @ term) / k
            total = total + term
            if k + 1 > theta and (np.linalg.norm(term) * theta
                                  <= _TAYLOR_TOL * (k + 1 - theta)
                                  * np.linalg.norm(total)):
                break
        c = total
    return c


def _exp_action(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """exp(-i a) @ c for Hermitian a, without forming exp(-i a).

    The identity is shifted out first: a - mu I with mu = tr(a) / N
    usually has the smaller 1-norm, and exp(-i a) = exp(-i mu)
    exp(-i (a - mu I)). The Taylor series then needs at most s * m
    products of the N x N operator with the N x eta block, a cost linear
    in ||a||_1. One eigh of the N x N operator costs about as much as N
    products with an N x 2 block (measured at N = 125..729), so once
    s * m * eta exceeds 2N the step takes the exactly unitary eigh route.
    """
    n, eta = c.shape
    mu = float(np.trace(a).real) / n
    shifted = a.astype(complex)
    shifted[np.diag_indices(n)] -= mu
    norm = np.linalg.norm(shifted, 1)
    if not math.isfinite(norm):
        raise ConvergenceFailure(f"||F dt||_1 is {norm}; the step is not finite")
    s, m = plan = _taylor_plan(norm)
    if s * m * eta > 2 * n:
        w, vec = np.linalg.eigh(a)
        return vec @ (np.exp(-1j * w)[:, None] * (vec.conj().T @ c))
    return np.exp(-1j * mu) * _taylor_action(shifted, c, norm, plan)


def _midpoint(c: np.ndarray, integrals: GridIntegrals, dt: float,
              max_iterations: int, fp_tol: float,
              fock: np.ndarray | None) -> tuple[np.ndarray, int]:
    """Exponential midpoint step and its fixed-point iteration count.
    ``fock`` is F(c), the first iterate's, if the caller has it."""
    c_mid = c
    f_mid = _fock_from_matrix(c, integrals) if fock is None else fock
    for iteration in range(1, max_iterations + 1):
        c_new = _exp_action(f_mid * (dt / 2), c)
        delta = np.max(np.abs(c_new - c_mid))
        c_mid = c_new
        f_mid = _fock_from_matrix(c_mid, integrals)
        if delta < fp_tol:
            break
    else:
        raise ConvergenceFailure(
            f"midpoint fixed point did not reach {fp_tol} in {max_iterations} iterations")
    return _exp_action(f_mid * dt, c), iteration


def _rk4(c: np.ndarray, integrals: GridIntegrals, dt: float) -> np.ndarray:
    """Classical RK4 step; not unitary, so its drift is checked."""
    def rhs(mat):
        return -1j * (_fock_from_matrix(mat, integrals) @ mat)
    k1 = rhs(c)
    k2 = rhs(c + dt / 2 * k1)
    k3 = rhs(c + dt / 2 * k2)
    k4 = rhs(c + dt * k3)
    out = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    residual = _orthonormality_residual(out)
    if residual > ORTHONORMAL_TOL:
        raise OrbitalDrift(
            f"rk4 step left the orbitals non-orthonormal (max |C^H C - I| = "
            f"{residual:.3g} > {ORTHONORMAL_TOL:g}); use a smaller time step "
            "(more steps) or the exponential-midpoint scheme")
    return out


def tdhf_step(orbitals: OccupiedOrbitals, integrals: GridIntegrals, dt: float,
              scheme: str = "exponential-midpoint",
              max_iterations: int = 20, fp_tol: float = 1e-10,
              iterations: list | None = None,
              fock: np.ndarray | None = None) -> OccupiedOrbitals:
    """One integrator step of i dC/dt = F(C) C.

    The exponential acts on C directly; an N x N matrix is diagonalized
    only for a step long enough that the Taylor series costs more.
    When ``iterations`` is a list, the step appends its midpoint
    fixed-point iteration count (0 for rk4 and for dt = 0). ``fock`` is
    F(C) if the caller has built it, for the midpoint's first iterate.
    """
    c = orbitals.coeffs
    count = 0
    if dt == 0:
        out = c.copy()
    elif scheme == "exponential-midpoint":
        out, count = _midpoint(c, integrals, dt, max_iterations, fp_tol, fock)
    elif scheme == "rk4":
        out = _rk4(c, integrals, dt)
    else:
        raise ValidationError(f"unknown scheme {scheme!r}")
    if iterations is not None:
        iterations.append(count)
    return OccupiedOrbitals(out, orbitals.grid)


@dataclass
class TdhfTrajectory:
    times: np.ndarray
    energies: np.ndarray
    orbital_history: list
    rdm_diagonals: np.ndarray | None = None
    # midpoint fixed-point iterations per step, a health diagnostic
    fp_iterations: np.ndarray | None = None

    @property
    def final(self) -> OccupiedOrbitals:
        return self.orbital_history[-1]


def evolve_tdhf(orbitals: OccupiedOrbitals, integrals: GridIntegrals,
                plan: TdhfPlan, record_rdm_diag: bool = False,
                keep_history: bool = True) -> TdhfTrajectory:
    """Propagate C_occ and record the energy (and optionally the density).

    F(C_n), built for the energy, is also the next step's first midpoint
    Fock matrix.
    """
    dt = plan.total_time / plan.steps
    times = [0.0]
    fock = _fock_from_matrix(orbitals.coeffs, integrals)
    energies = [hf_energy(orbitals, integrals, fock)]
    history = [orbitals]
    diags = [_density_diagonal(orbitals.coeffs)] if record_rdm_diag else None
    current = orbitals
    fp_iterations = []
    for step in range(plan.steps):
        current = tdhf_step(current, integrals, dt, plan.scheme,
                            iterations=fp_iterations, fock=fock)
        fock = _fock_from_matrix(current.coeffs, integrals)
        times.append((step + 1) * dt)
        energies.append(hf_energy(current, integrals, fock))
        if record_rdm_diag:
            diags.append(_density_diagonal(current.coeffs))
        if keep_history:
            history.append(current)
    if not keep_history:
        history.append(current)
    return TdhfTrajectory(
        times=np.array(times), energies=np.array(energies),
        orbital_history=history,
        rdm_diagonals=np.array(diags) if record_rdm_diag else None,
        fp_iterations=np.array(fp_iterations, dtype=int))
