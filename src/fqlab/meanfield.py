"""Real-time time-dependent Hartree-Fock on the grid discretization.

The basis is the set of grid delta functions, which makes the two-body
integrals diagonal: (mu nu|lambda sigma) = delta_{mu nu} delta_{lambda
sigma} v(mu, lambda). The Fock build then reduces to a diagonal Coulomb
contraction plus an elementwise exchange term, and the quantum and
classical modules share one Hamiltonian.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, ValidationError
from .grids import GridSpec
from .hamiltonian import (
    CoulombKernel,
    NuclearConfig,
    kinetic_matrix,
    nuclear_potential_table,
    nuclear_repulsion,
    pair_potential_table,
)


@dataclass
class OccupiedOrbitals:
    """N x eta coefficient matrix with orthonormal columns."""

    coeffs: np.ndarray
    grid: GridSpec | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2:
            raise ValidationError("coefficients must be an N x eta matrix")
        if c.shape[1] > 0:
            gram = c.conj().T @ c
            if np.max(np.abs(gram - np.eye(c.shape[1]))) > 1e-8:
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


def _fock_from_matrix(c: np.ndarray, integrals: GridIntegrals) -> np.ndarray:
    if c.shape[0] != integrals.h.shape[0]:
        raise DimensionMismatch("orbital and integral dimensions differ")
    p = c @ c.conj().T
    coulomb = np.diag(integrals.v @ np.real(np.diag(p)))
    exchange = integrals.v * p
    return integrals.h + coulomb - 0.5 * exchange


def build_fock(orbitals: OccupiedOrbitals, integrals: GridIntegrals) -> np.ndarray:
    """F = h + Coulomb - exchange/2 contracted with P = C C†.

    With diagonal grid integrals the Coulomb term is diag(v @ diag(P))
    and the exchange term is v * P elementwise.
    """
    return _fock_from_matrix(orbitals.coeffs, integrals)


def hf_energy(orbitals: OccupiedOrbitals, integrals: GridIntegrals) -> float:
    """E = Tr[(h + F) P] / 2 plus the nuclear repulsion offset."""
    p = _density_matrix(orbitals.coeffs)
    f = build_fock(orbitals, integrals)
    return float(np.real(np.trace((integrals.h + f) @ p))) / 2 + integrals.nuclear_offset


def fock_spectral_norm(orbitals: OccupiedOrbitals,
                       integrals: GridIntegrals) -> float:
    """Largest singular value of F(C_occ)."""
    f = build_fock(orbitals, integrals)
    return float(np.linalg.norm(f, ord=2))


def _expm_hermitian(a: np.ndarray) -> np.ndarray:
    """exp(-i a) for Hermitian a via eigendecomposition (exactly unitary)."""
    w, vec = np.linalg.eigh(a)
    return (vec * np.exp(-1j * w)) @ vec.conj().T


def tdhf_step(orbitals: OccupiedOrbitals, integrals: GridIntegrals, dt: float,
              scheme: str = "exponential-midpoint",
              max_iterations: int = 20, fp_tol: float = 1e-10) -> OccupiedOrbitals:
    """One integrator step of i dC/dt = F(C) C."""
    c = orbitals.coeffs
    if dt == 0:
        return OccupiedOrbitals(c.copy(), orbitals.grid)
    if scheme == "exponential-midpoint":
        c_mid = c
        for _ in range(max_iterations):
            f_mid = _fock_from_matrix(c_mid, integrals)
            c_new = _expm_hermitian(f_mid * (dt / 2)) @ c
            delta = np.max(np.abs(c_new - c_mid))
            c_mid = c_new
            if delta < fp_tol:
                break
        else:
            raise ConvergenceFailure(
                f"midpoint fixed point did not reach {fp_tol} in {max_iterations} iterations")
        f_mid = _fock_from_matrix(c_mid, integrals)
        return OccupiedOrbitals(_expm_hermitian(f_mid * dt) @ c, orbitals.grid)
    if scheme == "rk4":
        def rhs(mat):
            return -1j * (_fock_from_matrix(mat, integrals) @ mat)
        k1 = rhs(c)
        k2 = rhs(c + dt / 2 * k1)
        k3 = rhs(c + dt / 2 * k2)
        k4 = rhs(c + dt * k3)
        return OccupiedOrbitals(c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), orbitals.grid)
    raise ValidationError(f"unknown scheme {scheme!r}")


@dataclass
class TdhfTrajectory:
    times: np.ndarray
    energies: np.ndarray
    orbital_history: list
    rdm_diagonals: np.ndarray | None = None

    @property
    def final(self) -> OccupiedOrbitals:
        return self.orbital_history[-1]


def evolve_tdhf(orbitals: OccupiedOrbitals, integrals: GridIntegrals,
                plan: TdhfPlan, record_rdm_diag: bool = False,
                keep_history: bool = True) -> TdhfTrajectory:
    """Propagate C_occ and record the energy (and optionally the density)."""
    dt = plan.total_time / plan.steps
    times = [0.0]
    energies = [hf_energy(orbitals, integrals)]
    history = [orbitals]
    diags = [np.real(np.diag(mean_field_1rdm(orbitals)))] if record_rdm_diag else None
    current = orbitals
    for step in range(plan.steps):
        current = tdhf_step(current, integrals, dt, plan.scheme)
        times.append((step + 1) * dt)
        energies.append(hf_energy(current, integrals))
        if record_rdm_diag:
            diags.append(np.real(np.diag(mean_field_1rdm(current))))
        if keep_history:
            history.append(current)
    if not keep_history:
        history.append(current)
    return TdhfTrajectory(
        times=np.array(times), energies=np.array(energies),
        orbital_history=history,
        rdm_diagonals=np.array(diags) if record_rdm_diag else None)
