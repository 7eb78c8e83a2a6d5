"""Grid Hamiltonian H = T + U + V and split-operator time evolution.

T is diagonal in the centered-DFT dual basis with phases |k_p|^2/2 per
register (the discrete-value-representation form; there is deliberately
no discrete-Laplacian alternative). U and V are diagonal in position:
nuclear attraction and pairwise electron repulsion evaluated with open
boundary distances, optionally cusp-softened as 1/(r + s).
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import SingularPotential, ValidationError
from .grids import GridSpec, from_fft_window, grid_dft_matrix, to_fft_window
from .states import FirstQuantizedState, check_unit_norm


@dataclass(frozen=True)
class NuclearConfig:
    """Nuclear positions (length units of the cell edge) and charges."""

    positions: np.ndarray  # (L, dim)
    charges: np.ndarray    # (L,)

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        chg = np.atleast_1d(np.asarray(self.charges, dtype=float))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", chg)
        if pos.shape[0] != chg.shape[0]:
            raise ValidationError("positions/charges length mismatch")
        if pos.size and not np.all(np.isfinite(pos)):
            raise ValidationError("nuclear positions must be finite")
        if np.any(chg < 1):
            raise ValidationError("nuclear charges must be >= 1")

    @staticmethod
    def empty(dim: int) -> "NuclearConfig":
        return NuclearConfig(np.zeros((0, dim)), np.zeros((0,)))


@dataclass(frozen=True)
class CoulombKernel:
    """Bare 1/r or softened 1/(r + s) interaction, s = 1/V_max."""

    softening: float = 0.0

    def __post_init__(self):
        if self.softening < 0:
            raise ValidationError("softening must be nonnegative")

    @property
    def mode(self) -> str:
        return "softened" if self.softening > 0 else "bare"

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.softening > 0:
            return 1.0 / (r + self.softening)
        if np.any(r == 0):
            raise SingularPotential("bare Coulomb kernel at zero separation")
        return 1.0 / r


@dataclass(frozen=True)
class EvolutionPlan:
    """Total time, step count, and product-formula order (1, 2 or 4)."""

    total_time: float
    steps: int
    order: int = 2

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.order not in (1, 2, 4):
            raise ValidationError("order must be 1, 2 or 4")


# -- diagonal tables ------------------------------------------------------


def kinetic_phase_table(grid: GridSpec) -> np.ndarray:
    """|k_p|^2 / 2 for every flat grid index."""
    return 0.5 * np.sum(grid.frequencies ** 2, axis=1)


def kinetic_matrix(grid: GridSpec) -> np.ndarray:
    """One-register kinetic operator DFT† diag(|k|^2/2) DFT, Hermitized."""
    dft = grid_dft_matrix(grid)
    kinetic = dft.conj().T @ np.diag(kinetic_phase_table(grid)) @ dft
    return (kinetic + kinetic.conj().T) / 2


def _on_registers(table: np.ndarray, eta: int, *registers: int) -> np.ndarray:
    """A per-register table (N, or N x N for a pair) placed on the axes
    ``registers`` of the N^eta block, broadcastable over the others."""
    shape = [table.shape[0] if axis in registers else 1 for axis in range(eta)]
    return table.reshape(shape)


def nuclear_potential_table(grid: GridSpec, nuclei: NuclearConfig,
                            kernel: CoulombKernel) -> np.ndarray:
    """U(p) = -sum_l zeta_l * kernel(|R_l - r_p|), length N."""
    u = np.zeros(grid.total_points)
    if nuclei.positions.shape[0] == 0:
        return u
    if nuclei.positions.shape[1] != grid.dim:
        raise ValidationError("nuclear position dimension does not match grid")
    for pos, zeta in zip(nuclei.positions, nuclei.charges):
        dist = np.linalg.norm(grid.positions - pos[None, :], axis=1)
        if kernel.mode == "bare" and np.any(dist == 0):
            raise SingularPotential("nucleus coincides with a grid point")
        u -= zeta * kernel(dist)
    return u


def pair_potential_table(grid: GridSpec, kernel: CoulombKernel) -> np.ndarray:
    """Symmetric N x N table of kernel(|r_p - r_q|).

    The p == q diagonal is 0 in bare mode (antisymmetric states carry no
    weight there and a point charge does not self-interact on the grid)
    and kernel(0) = 1/s in softened mode.
    """
    diff = grid.positions[:, None, :] - grid.positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    v = np.zeros_like(dist)
    off = ~np.eye(grid.total_points, dtype=bool)
    v[off] = kernel(dist[off])
    if kernel.mode == "softened":
        np.fill_diagonal(v, 1.0 / kernel.softening)
    return v


def potential_diagonal(grid: GridSpec, nuclei: NuclearConfig,
                       kernel: CoulombKernel, eta: int) -> np.ndarray:
    """(U + V)(p_1..p_eta) over the full N^eta index block."""
    u = nuclear_potential_table(grid, nuclei, kernel)
    v = pair_potential_table(grid, kernel)
    total = np.zeros((grid.total_points,) * eta)
    for j in range(eta):
        total = total + _on_registers(u, eta, j)
    for j, k in combinations(range(eta), 2):
        total = total + _on_registers(v, eta, j, k)
    return total


def nuclear_repulsion(nuclei: NuclearConfig) -> float:
    """sum_{l<k} zeta_l zeta_k / |R_l - R_k| (bare, independent of kernel)."""
    total = 0.0
    L = nuclei.positions.shape[0]
    for a in range(L):
        for b in range(a + 1, L):
            d = np.linalg.norm(nuclei.positions[a] - nuclei.positions[b])
            if d == 0:
                raise SingularPotential("coincident nuclei")
            total += nuclei.charges[a] * nuclei.charges[b] / d
    return float(total)


# -- evolution ------------------------------------------------------------


def _register_block(state: FirstQuantizedState):
    """Slice tuple selecting the N^eta physical block of the tensor."""
    return (slice(0, state.n_orbitals),) * state.eta


def _fft_layout(block: np.ndarray, grid: GridSpec, eta: int) -> np.ndarray:
    """The N^eta block as dim*eta axes in the FFT window, where the
    centered DFT of every register is one n-D FFT."""
    return to_fft_window(
        block.reshape((grid.points_per_axis,) * (grid.dim * eta)))


def _diagonal(op: str, grid: GridSpec, eta: int, nuclei: NuclearConfig,
              kernel: CoulombKernel) -> np.ndarray:
    """Over the N^eta block in FFT layout: the diagonal of T in momentum
    ("T") or of U + V in position ("V")."""
    if op == "T":
        table = kinetic_phase_table(grid)
        total = sum(_on_registers(table, eta, j) for j in range(eta))
    else:
        total = potential_diagonal(grid, nuclei, kernel, eta)
    return _fft_layout(total, grid, eta)


def _phases(keys, grid: GridSpec, eta: int, nuclei: NuclearConfig,
            kernel: CoulombKernel) -> dict:
    """exp(-i X t) for each distinct (X, t) in ``keys``. Each diagonal is
    built once and dropped once its phases are, so only the phases stay."""
    phases = {}
    for op in ("T", "V"):
        times = {t for x, t in keys if x == op}
        if times:
            table = _diagonal(op, grid, eta, nuclei, kernel)
            for t in times:
                phases[op, t] = np.exp(-1j * t * table)
            del table
    return phases


def _propagate(state: FirstQuantizedState, substeps, nuclei: NuclearConfig,
               kernel: CoulombKernel) -> FirstQuantizedState:
    """Apply exp(-i X t) for each (X, t) that ``substeps()`` yields, X one
    of "T", "V". ``substeps`` is called twice: once for the distinct
    phases, which are built before the first substep, once to apply them.

    The block is rotated into FFT layout once, so that a kinetic substep
    is fftn, one phase multiplication and ifftn. Every substep checks the
    norm of the block; the padding stays zero because only the block is
    propagated, and the output state checks it again.
    """
    grid, eta = state.grid, state.eta
    if grid is None:
        raise ValidationError("evolution requires a grid-backed state")
    phases = _phases(set(substeps()), grid, eta, nuclei, kernel)
    block = _fft_layout(state.tensor[_register_block(state)], grid, eta)
    for op, t in substeps():
        if op == "T":
            block = np.fft.fftn(block, norm="ortho")
            block *= phases[op, t]
            block = np.fft.ifftn(block, norm="ortho")
        else:
            block *= phases[op, t]
        check_unit_norm(block)
    out = np.zeros_like(state.tensor)
    out[_register_block(state)] = from_fft_window(block).reshape(
        (grid.total_points,) * eta)
    return state.copy_with(out)


def apply_kinetic_evolution(state: FirstQuantizedState,
                            dt: float) -> FirstQuantizedState:
    """exp(-i T dt): DFT each register, apply |k|^2/2 phases, transform back."""
    return _propagate(state, lambda: [("T", dt)], None, None)


def apply_potential_evolution(state: FirstQuantizedState, dt: float,
                              nuclei: NuclearConfig,
                              kernel: CoulombKernel) -> FirstQuantizedState:
    """exp(-i (U+V) dt): diagonal phase multiplication in position space."""
    return _propagate(state, lambda: [("V", dt)], nuclei, kernel)


_SUZUKI_U = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))


def _substeps(plan: EvolutionPlan):
    """The product formula as (operator, time) pairs, adjacent kinetic
    substeps merged: exp(-i T a) exp(-i T b) = exp(-i T (a + b)).

    Order 2 is the Strang step T/2 V T/2; order 4 is Suzuki's five
    Strang steps with factors u, u, 1 - 4u, u, u. A generator, so that
    memory does not grow with the step count.
    """
    dt = plan.total_time / plan.steps
    if plan.order == 1:
        step = [("T", dt), ("V", dt)]
    else:
        u = _SUZUKI_U
        factors = (1.0,) if plan.order == 2 else (u, u, 1.0 - 4.0 * u, u, u)
        step = [sub for f in factors
                for sub in (("T", f * dt / 2), ("V", f * dt), ("T", f * dt / 2))]
    kinetic = None  # a kinetic substep held back to merge with the next one
    for _ in range(plan.steps):
        for op, t in step:
            if op == "T":
                kinetic = t if kinetic is None else kinetic + t
                continue
            if kinetic is not None:
                yield "T", kinetic
                kinetic = None
            yield op, t
    if kinetic is not None:
        yield "T", kinetic


def evolve(state: FirstQuantizedState, plan: EvolutionPlan,
           nuclei: NuclearConfig, kernel: CoulombKernel) -> FirstQuantizedState:
    """Product-formula approximation to exp(-i H t) |psi>.

    Exchange symmetry of H means the antisymmetry flag is preserved.
    """
    return _propagate(state, lambda: _substeps(plan), nuclei, kernel)


# -- observables -----------------------------------------------------------


def kinetic_expectation(state: FirstQuantizedState) -> float:
    grid, eta = state.grid, state.eta
    block = _fft_layout(state.tensor[_register_block(state)], grid, eta)
    dens = np.abs(np.fft.fftn(block, norm="ortho")) ** 2
    return float(np.sum(dens * _diagonal("T", grid, eta, None, None)))


def potential_expectation(state: FirstQuantizedState, nuclei: NuclearConfig,
                          kernel: CoulombKernel) -> float:
    grid = state.grid
    w = potential_diagonal(grid, nuclei, kernel, state.eta)
    dens = np.abs(state.tensor[_register_block(state)]) ** 2
    return float(np.sum(dens * w))


def total_energy(state: FirstQuantizedState, nuclei: NuclearConfig,
                 kernel: CoulombKernel) -> float:
    """<T> + <U+V> + nuclear repulsion scalar."""
    return (kinetic_expectation(state)
            + potential_expectation(state, nuclei, kernel)
            + nuclear_repulsion(nuclei))


def dense_hamiltonian(grid: GridSpec, nuclei: NuclearConfig,
                      kernel: CoulombKernel, eta: int) -> np.ndarray:
    """Dense H over the full padded register space (test-scale only).

    The kinetic operator acts as DFT† diag(|k|^2/2) DFT on the physical
    block of each register and as zero on padding.
    """
    n_orb = grid.total_points
    reg = 2 ** grid.qubits_per_register
    t_reg = np.zeros((reg, reg), dtype=complex)
    t_reg[:n_orb, :n_orb] = kinetic_matrix(grid)
    dim = reg ** eta
    ham = np.zeros((dim, dim), dtype=complex)
    for j in range(eta):
        op = np.array([[1.0 + 0j]])
        for a in range(eta):
            op = np.kron(op, t_reg if a == j else np.eye(reg))
        ham += op
    w = np.zeros((reg,) * eta)
    w[(slice(0, n_orb),) * eta] = potential_diagonal(grid, nuclei, kernel, eta)
    ham += np.diag(w.reshape(-1))
    return ham
