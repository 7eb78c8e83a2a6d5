"""Real-time time-dependent Hartree-Fock on the grid discretization.

The basis is the set of grid delta functions, which makes the two-body
integrals diagonal: (mu nu|lambda sigma) = delta_{mu nu} delta_{lambda
sigma} v(mu, lambda). The Fock build then reduces to a diagonal Coulomb
contraction plus an elementwise exchange term, and the quantum and
classical modules share one Hamiltonian.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonOrthonormalInput,
    OrbitalDrift,
    ValidationError,
)
from .grids import GridSpec
from .hamiltonian import GridHamiltonian
from .states import check_orthonormal_columns


# exponential-midpoint fixed point: converged below this max |change|
MIDPOINT_TOL = 1e-10
MIDPOINT_ITERATIONS = 20


@dataclass
class OccupiedOrbitals:
    """N x eta coefficient matrix with orthonormal columns."""

    coeffs: np.ndarray
    grid: GridSpec | None = None

    def __post_init__(self):
        self.coeffs = check_orthonormal_columns(self.coeffs, self.grid)

    @property
    def eta(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_basis(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class GridIntegrals:
    """One-body matrix h and diagonal two-body kernel values v.

    A real h is kept real, so that it acts on a complex block as one real
    GEMM. The spectral bounds the TDHF exponential needs are taken once
    here: h's Gershgorin center and radius (the radius is ||h - mu I||_1)
    and ||v||_1.
    """

    h: np.ndarray          # (N, N) Hermitian, real or complex
    v: np.ndarray          # (N, N) symmetric, nonnegative
    nuclear_offset: float = 0.0
    h_center: float = field(init=False, repr=False, compare=False)
    h_radius: float = field(init=False, repr=False, compare=False)
    v_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.h)
        h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
        v = np.asarray(self.v, dtype=float)
        if h.shape != v.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch("h and v must be square with equal shape")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(v))):
            raise ValidationError("h and v must be finite")
        if np.max(np.abs(h - h.conj().T)) > 1e-10:
            raise ValidationError("h must be Hermitian within 1e-10")
        if np.max(np.abs(v - v.T)) > 1e-12 or np.any(v < 0):
            raise ValidationError("v must be symmetric and nonnegative")
        diag = h.diagonal().real
        off = np.abs(h).sum(axis=1) - np.abs(h.diagonal())
        lo, hi = float(np.min(diag - off)), float(np.max(diag + off))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "h_center", (hi + lo) / 2)
        object.__setattr__(self, "h_radius", (hi - lo) / 2)
        object.__setattr__(self, "v_norm", float(np.max(v.sum(axis=0))))

    @staticmethod
    def from_grid(ham: GridHamiltonian) -> "GridIntegrals":
        """h = T + U, v = V and the nuclear repulsion of ``ham``."""
        h = ham.kinetic_matrix()
        h[np.diag_indices_from(h)] += ham.nuclear()
        return GridIntegrals(h=h, v=ham.pair(),
                             nuclear_offset=ham.nuclear_repulsion())


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
    return FockOperator(orbitals.coeffs, integrals).matrix()


def _matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a complex N x k block x. A real ``a`` acts on the real
    and imaginary parts as one real GEMM, with no complex copy of a."""
    if np.iscomplexobj(a):
        return a @ x
    x = np.ascontiguousarray(x, dtype=complex)
    return (a @ x.reshape(len(x), -1).view(float)).view(complex).reshape(x.shape)


class FockOperator:
    """F(C) = h + diag(J) - (v * P)/2 as an action on N x k blocks; the
    N x N matrix is never formed.

    P = C C† has rank eta, so (v * P) X = sum_b C_b * (v (conj(C_b) * X)):
    one real GEMM of v with the eta * k columns conj(C_b) * X_c. Updating
    F(C) costs the one real mat-vec J = v diag(P).

    ``center`` mu and ``radius`` r bound the spectrum, r >= ||F - mu I||_2:
    h's radius ||h - mu_h I||_1, plus the half-range of J, plus
    max_i P_ii ||v||_1 / 2 (Schur: ||v * P||_2 <= max_i P_ii ||v||_2 for
    P positive semidefinite, and ||v||_2 <= ||v||_1 for symmetric v).
    """

    def __init__(self, c: np.ndarray, integrals: GridIntegrals):
        if c.shape[0] != integrals.h.shape[0]:
            raise DimensionMismatch("orbital and integral dimensions differ")
        self.c = c
        self.integrals = integrals
        rho = _density_diagonal(c)
        self.coulomb = integrals.v @ rho
        j_lo, j_hi = float(np.min(self.coulomb)), float(np.max(self.coulomb))
        self.center = integrals.h_center + (j_hi + j_lo) / 2
        self.radius = (integrals.h_radius + (j_hi - j_lo) / 2
                       + float(np.max(rho)) * integrals.v_norm / 2)

    def two_body(self, x: np.ndarray) -> np.ndarray:
        """(J - K/2) x: the Coulomb diagonal and the exchange GEMM."""
        pairs = self.c.conj()[:, :, None] * x[:, None, :]
        exchange = _matmul(self.integrals.v, pairs)
        return (self.coulomb[:, None] * x
                - 0.5 * np.einsum("ib,ibk->ik", self.c, exchange))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """F(C) x."""
        return _matmul(self.integrals.h, x) + self.two_body(x)

    def matrix(self) -> np.ndarray:
        """F(C) as a dense matrix, for the eigh route."""
        return _fock_from_matrix(self.c, self.integrals)


def hf_energy(orbitals: OccupiedOrbitals, integrals: GridIntegrals,
              fock: FockOperator | None = None) -> float:
    """E = sum_b C_b† (h + F) C_b / 2 plus the nuclear repulsion offset;
    ``fock`` is the operator F(C) when the caller has it already.

    Tr[(h + F) P] / 2 over the occupied columns: an O(N eta) sum after
    the products with h and the two-body terms; ``np.sum`` adds pairwise.
    """
    c = orbitals.coeffs
    f = FockOperator(c, integrals) if fock is None else fock
    hc = 2 * _matmul(integrals.h, c) + f.two_body(c)
    return (float(np.sum(c.real * hc.real + c.imag * hc.imag)) / 2
            + integrals.nuclear_offset)


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


def _taylor_action(op, c: np.ndarray, dt: float,
                   plan: tuple[int, int]) -> np.ndarray:
    """exp(-i dt A) @ c by s substeps of a degree-m Taylor series in
    dt (A - mu I) (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).

    ``op`` is a Hermitian operator: ``op(x)`` is A @ x, and ``op.center``
    mu and ``op.radius`` r satisfy ||A - mu I||_2 <= r. mu and dt enter
    each term as scalars, so no N x N matrix is copied or scaled. A
    substep truncated at degree m errs by at most 2^-53 of its operator's
    norm. A substep stops earlier at term k once k + 1 > theta = r |dt| / s
    and the remainder bound |term_k| theta / (k + 1 - theta) is below
    2^-53 of the sum.
    """
    s, m = plan
    mu = op.center
    scale = -1j * dt / s
    theta = op.radius * abs(dt) / s
    for _ in range(s):
        term = total = c
        for k in range(1, m + 1):
            term = (op(term) - mu * term) * (scale / k)
            total = total + term
            if k + 1 > theta and (np.linalg.norm(term) * theta
                                  <= _TAYLOR_TOL * (k + 1 - theta)
                                  * np.linalg.norm(total)):
                break
        c = total
    return np.exp(-1j * mu * dt) * c


def _exp_action(op, c: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt A) @ c for a Hermitian operator ``op`` (see
    _taylor_action), without forming exp(-i dt A).

    The Taylor series needs at most s * m products of A with the N x eta
    block, a cost linear in r |dt|. One eigh of the N x N operator costs
    about as much as N products with an N x 2 block (measured at
    N = 125..729), so once s * m * eta exceeds 2N the step takes the
    exactly unitary eigh of ``op.matrix()``.
    """
    n, eta = c.shape
    norm = op.radius * abs(dt)
    if not math.isfinite(norm):
        raise ConvergenceFailure(
            f"the bound on ||(F - mu I) dt||_2 is {norm}; the step is not finite")
    s, m = plan = _taylor_plan(norm)
    if s * m * eta > 2 * n:
        w, vec = np.linalg.eigh(op.matrix())
        return vec @ (np.exp(-1j * dt * w)[:, None] * (vec.conj().T @ c))
    return _taylor_action(op, c, dt, plan)


def _midpoint(c: np.ndarray, integrals: GridIntegrals, dt: float,
              fock: FockOperator | None) -> tuple[np.ndarray, int]:
    """Exponential midpoint step and its fixed-point iteration count.
    ``fock`` is F(c), the first iterate's, if the caller has it."""
    c_mid = c
    f_mid = FockOperator(c, integrals) if fock is None else fock
    for iteration in range(1, MIDPOINT_ITERATIONS + 1):
        c_new = _exp_action(f_mid, c, dt / 2)
        delta = np.max(np.abs(c_new - c_mid))
        c_mid = c_new
        f_mid = FockOperator(c_mid, integrals)
        if delta < MIDPOINT_TOL:
            break
    else:
        raise ConvergenceFailure(
            f"midpoint fixed point did not reach {MIDPOINT_TOL} in "
            f"{MIDPOINT_ITERATIONS} iterations")
    return _exp_action(f_mid, c, dt), iteration


def _rk4(c: np.ndarray, integrals: GridIntegrals, dt: float) -> np.ndarray:
    """Classical RK4 step; not unitary, so its drift is checked."""
    def rhs(mat):
        return -1j * FockOperator(mat, integrals)(mat)
    k1 = rhs(c)
    k2 = rhs(c + dt / 2 * k1)
    k3 = rhs(c + dt / 2 * k2)
    k4 = rhs(c + dt * k3)
    out = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    try:
        check_orthonormal_columns(out)
    except NonOrthonormalInput as exc:
        raise OrbitalDrift(
            f"rk4 step drifted off orthonormality ({exc}); use a smaller time "
            "step (more steps) or the exponential-midpoint scheme") from exc
    return out


def tdhf_step(orbitals: OccupiedOrbitals, integrals: GridIntegrals, dt: float,
              scheme: str = "exponential-midpoint",
              iterations: list | None = None,
              fock: FockOperator | None = None) -> OccupiedOrbitals:
    """One integrator step of i dC/dt = F(C) C.

    The exponential acts on C directly through the operator F(C); an
    N x N Fock matrix is formed and diagonalized only for a step long
    enough that the Taylor series costs more. When ``iterations`` is a
    list, the step appends its midpoint fixed-point iteration count (0
    for rk4 and for dt = 0). ``fock`` is the operator F(C) if the caller
    has it, for the midpoint's first iterate.
    """
    c = orbitals.coeffs
    count = 0
    if dt == 0:
        out = c.copy()
    elif scheme == "exponential-midpoint":
        out, count = _midpoint(c, integrals, dt, fock)
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

    The operator F(C_n), built for the energy, is also the next step's
    first midpoint iterate.
    """
    dt = plan.total_time / plan.steps
    times = [0.0]
    fock = FockOperator(orbitals.coeffs, integrals)
    energies = [hf_energy(orbitals, integrals, fock)]
    history = [orbitals]
    diags = [_density_diagonal(orbitals.coeffs)] if record_rdm_diag else None
    current = orbitals
    fp_iterations = []
    for step in range(plan.steps):
        current = tdhf_step(current, integrals, dt, plan.scheme,
                            iterations=fp_iterations, fock=fock)
        fock = FockOperator(current.coeffs, integrals)
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
