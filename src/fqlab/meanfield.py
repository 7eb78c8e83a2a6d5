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
    NumericalAssumptionError,
    ValidationError,
)
from .grids import GridSpec
from .hamiltonian import GridHamiltonian, _kronecker_sum
from .states import (_squared_norm, check_budget, check_orthonormal_columns,
                     slabs)


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


class GridIntegrals:
    """The one-body term h, the diagonal two-body kernel values v and the
    nuclear repulsion, in the grid's own form.

    h = sum_f A_f + diag(U) on N = m^dim points: A_f is the Hermitian
    m x m ``axis`` matrix A acting on grid axis f, and U a ``diagonal``
    of length N. On a grid, A is the real kinetic axis operator and U the
    nuclear potential, so no N x N h is stored; :attr:`h` builds it when
    asked. A dense h is the same form with dim = 1, A = h and U = 0. A
    real A is kept real, so that it acts on a complex block as real GEMMs.

    The spectral bounds the TDHF exponential needs are taken once here,
    from A and U: h's Gershgorin center and radius (the radius is
    ||h - mu I||_1; the rows of h are sums of rows of A, one per axis,
    plus U) and ||v||_1.
    """

    def __init__(self, axis, v, nuclear_offset: float = 0.0, *,
                 dim: int = 1, diagonal=None):
        a = np.asarray(axis)
        a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
        v = np.asarray(v, dtype=float)
        square = a.ndim == 2 and a.shape[0] == a.shape[1]
        n = len(a) ** dim if square else 0
        u = (np.zeros(n) if diagonal is None
             else np.asarray(diagonal, dtype=float))
        if not square or v.shape != (n, n) or u.shape != (n,):
            raise DimensionMismatch(
                "h (an m x m axis matrix over dim axes, and its diagonal of "
                "length N = m^dim) and v (N x N) must agree in N")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(u))
                and np.all(np.isfinite(v))):
            raise ValidationError("h and v must be finite")
        if np.max(np.abs(a - a.conj().T)) > 1e-10:
            raise ValidationError("h must be Hermitian within 1e-10")
        # v - v.T, a slab at a time, is antisymmetric (exactly: a - b is
        # -(b - a)), so its largest entry is its largest modulus
        asymmetry = max(float(np.max(v[rows] - v.T[rows]))
                        for rows in slabs(v.shape))
        if asymmetry > 1e-12 or v.min() < 0:
            raise ValidationError("v must be symmetric and nonnegative")
        self.axis, self.dim, self.diagonal, self.v = a, dim, u, v
        self.nuclear_offset = nuclear_offset
        diag = a.diagonal().real
        off = np.abs(a).sum(axis=1) - np.abs(a.diagonal())
        lo = float(np.min(_on_axes(diag - off, dim) + u))
        hi = float(np.max(_on_axes(diag + off, dim) + u))
        self.h_center, self.h_radius = (hi + lo) / 2, (hi - lo) / 2
        self.v_norm = float(np.max(v.sum(axis=0)))

    @property
    def n_basis(self) -> int:
        return len(self.diagonal)

    @property
    def h(self) -> np.ndarray:
        """The dense N x N one-body matrix, built anew on each read: for
        the core guess, the eigh route and tests."""
        n = self.n_basis
        check_budget(f"the {n} x {n} one-body matrix h", (n, n))
        h = _kronecker_sum(self.axis, self.dim)
        h[np.diag_indices_from(h)] += self.diagonal
        return h

    def one_body(self, x: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
        """(sum_f A_f + diag(``diagonal``)) x for an N x k block x: h x
        when ``diagonal`` is U. A acts on each grid axis of the block as
        one matmul, real on the block's float view when A is real."""
        x = np.ascontiguousarray(x, dtype=complex)
        out = diagonal[:, None] * x
        parts = x if np.iscomplexobj(self.axis) else x.view(float)
        sums = out.view(parts.dtype)
        m = len(self.axis)
        for f in range(self.dim):
            axis_f = sums.reshape(m ** f, m, -1)
            axis_f += self.axis @ parts.reshape(m ** f, m, -1)
        return out

    @staticmethod
    def from_grid(ham: GridHamiltonian) -> "GridIntegrals":
        """A = the kinetic axis operator, U, v = V and the nuclear
        repulsion of ``ham``."""
        return GridIntegrals(axis=ham.axis_kinetic_matrix(),
                             dim=ham.grid.dim, diagonal=ham.nuclear(),
                             v=ham.pair(),
                             nuclear_offset=ham.nuclear_repulsion())


def _on_axes(values: np.ndarray, dim: int) -> np.ndarray:
    """sum_f values[i_f] over the dim axis indices of every flat grid
    index (row-major, axis 0 most significant): the diagonal of the
    Kronecker sum of diag(values)."""
    total = np.zeros((len(values),) * dim)
    for f in range(dim):
        total += values.reshape((-1,) + (1,) * (dim - 1 - f))
    return total.reshape(-1)


def core_guess(h: np.ndarray, eta: int) -> np.ndarray:
    """The eta lowest eigenvectors of the real core Hamiltonian ``h``, as
    a new N x eta array, so that the N x N eigenvector matrix is dropped.

    Refused when the occupied and the first virtual level tie within
    rounding of the spectral scale: the determinant would then be
    whichever vectors of the degenerate subspace LAPACK returns.
    """
    w, vecs = np.linalg.eigh(h)
    if eta < len(w):
        gap, scale = w[eta] - w[eta - 1], float(np.max(np.abs(w)))
        if gap <= len(w) * np.finfo(float).eps * scale:
            raise NumericalAssumptionError(
                f"core-Hamiltonian guess is degenerate at eta = {eta}: gap "
                f"w[eta] - w[eta-1] = {gap:.3g} at spectral scale {scale:.3g}; "
                f"give --coeffs or another --eta")
    return vecs[:, :eta].copy()


@dataclass(frozen=True)
class TdhfPlan:
    total_time: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")


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


class FockOperator:
    """F(C) = h + diag(J) - (v * P)/2 as an action on N x k blocks; the
    N x N matrix is never formed.

    h's axis matrices act as :meth:`GridIntegrals.one_body` applies them,
    with U + J as one diagonal. P = C C† has rank eta, so
    (v * P) X = sum_b C_b * (v (conj(C_b) * X)): one real GEMM of v with
    the eta * k columns conj(C_b) * X_c, each formed and contracted back
    as an N x k product. Updating F(C) costs the one real mat-vec
    J = v diag(P).

    ``center`` mu and ``radius`` r bound the spectrum, r >= ||F - mu I||_2:
    h's radius ||h - mu_h I||_1, plus the half-range of J, plus
    max_i P_ii ||v||_1 / 2 (Schur: ||v * P||_2 <= max_i P_ii ||v||_2 for
    P positive semidefinite, and ||v||_2 <= ||v||_1 for symmetric v).
    """

    def __init__(self, c: np.ndarray, integrals: GridIntegrals):
        if c.shape[0] != integrals.n_basis:
            raise DimensionMismatch("orbital and integral dimensions differ")
        self.c = c
        self.integrals = integrals
        rho = _density_diagonal(c)
        coulomb = integrals.v @ rho
        self.diagonal = integrals.diagonal + coulomb
        self.c_conj, self.half_c = c.conj(), 0.5 * c
        j_lo, j_hi = float(np.min(coulomb)), float(np.max(coulomb))
        self.center = integrals.h_center + (j_hi + j_lo) / 2
        self.radius = (integrals.h_radius + (j_hi - j_lo) / 2
                       + float(np.max(rho)) * integrals.v_norm / 2)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """F(C) x, as a new array."""
        out = self.integrals.one_body(x, self.diagonal)
        n, k = out.shape
        eta = self.c.shape[1]
        pairs = np.empty((n, eta * k), dtype=complex)
        for b in range(eta):
            np.multiply(self.c_conj[:, b, None], x,
                        out=pairs[:, b * k:(b + 1) * k])
        exchange = (self.integrals.v @ pairs.view(float)).view(complex)
        for b in range(eta):
            out -= self.half_c[:, b, None] * exchange[:, b * k:(b + 1) * k]
        return out

    def matrix(self) -> np.ndarray:
        """F(C) as a dense matrix, for the eigh route."""
        return _fock_from_matrix(self.c, self.integrals)


def hf_energy(orbitals: OccupiedOrbitals, integrals: GridIntegrals,
              fock: FockOperator | None = None) -> float:
    """E = sum_b C_b† (h + F) C_b / 2 plus the nuclear repulsion offset;
    ``fock`` is the operator F(C) when the caller has it already.

    Tr[(h + F) P] / 2 over the occupied columns: an O(N eta) sum after
    the actions of h and F; ``np.sum`` adds pairwise.
    """
    c = orbitals.coeffs
    f = FockOperator(c, integrals) if fock is None else fock
    hc = f(c)
    hc += integrals.one_body(c, integrals.diagonal)
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

    ``op`` is a Hermitian operator: ``op(x)`` is A @ x as a new array,
    and ``op.center`` mu and ``op.radius`` r satisfy ||A - mu I||_2 <= r.
    mu and dt enter each term as scalars, so no N x N matrix is copied or
    scaled; each term and the sum are updated in place. A
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
        term, total = c, np.array(c, dtype=complex)
        for k in range(1, m + 1):
            term, previous = op(term), term
            term -= mu * previous
            term *= scale / k
            total += term
            if k + 1 > theta and (math.sqrt(_squared_norm(term)) * theta
                                  <= _TAYLOR_TOL * (k + 1 - theta)
                                  * math.sqrt(_squared_norm(total))):
                break
        c = total
    return np.exp(-1j * mu * dt) * c


def _exp_action(op, c: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt A) @ c for a Hermitian operator ``op`` (see
    _taylor_action), without forming exp(-i dt A).

    The Taylor series needs at most s * m products of A with the N x eta
    block, a cost linear in r |dt|. Once s * m * eta exceeds 2N the step
    takes the exactly unitary eigh of ``op.matrix()`` instead. That rule
    was set against dense products with A and is not calibrated for the
    structured ``FockOperator``: at N = 343 (3-D, dt = 8) the eigh route
    measured 1.6x slower than the Taylor series alone, while at N = 16
    and N = 125 it was faster. Retuning it is ROADMAP item 20.
    """
    n, eta = c.shape
    norm = op.radius * abs(dt)
    if not math.isfinite(norm):
        raise ConvergenceFailure(
            f"the bound on ||(F - mu I) dt||_2 is {norm}; the step is not finite")
    if not math.isfinite(norm / min(_TAYLOR_THETA.values())):
        raise ValidationError(f"the bound on ||(F - mu I) dt||_2 is {norm:.3g}, "
                              "too large to count its Taylor substeps; use more steps")
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


def tdhf_step(orbitals: OccupiedOrbitals, integrals: GridIntegrals, dt: float,
              iterations: list | None = None,
              fock: FockOperator | None = None) -> OccupiedOrbitals:
    """One exponential-midpoint step of i dC/dt = F(C) C.

    The exponential acts on C directly through the operator F(C); an
    N x N Fock matrix is formed and diagonalized only for a step long
    enough that the Taylor series costs more. When ``iterations`` is a
    list, the step appends its midpoint fixed-point iteration count (0
    for dt = 0). ``fock`` is the operator F(C) if the caller has it, for
    the midpoint's first iterate.
    """
    c = orbitals.coeffs
    count = 0
    if dt == 0:
        out = c.copy()
    else:
        out, count = _midpoint(c, integrals, dt, fock)
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
        current = tdhf_step(current, integrals, dt,
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
