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
from .grids import GridSpec, centered_dft, grid_dft_matrix
from .states import FirstQuantizedState


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


def _to_momentum(block: np.ndarray, grid: GridSpec, eta: int,
                 inverse: bool) -> np.ndarray:
    """Centered DFT on every register, each register split into d axes."""
    shaped = block.reshape((grid.points_per_axis,) * (grid.dim * eta))
    out = centered_dft(shaped, tuple(range(shaped.ndim)), inverse=inverse)
    return out.reshape(block.shape)


def apply_kinetic_evolution(state: FirstQuantizedState,
                            dt: float) -> FirstQuantizedState:
    """exp(-i T dt): DFT each register, apply |k|^2/2 phases, transform back."""
    grid = state.grid
    if grid is None:
        raise ValidationError("kinetic evolution requires a grid-backed state")
    table = kinetic_phase_table(grid)
    phases = np.exp(-1j * table * dt)
    out = state.tensor.copy()
    block = _to_momentum(out[_register_block(state)], grid, state.eta, inverse=False)
    for j in range(state.eta):
        block = block * _on_registers(phases, state.eta, j)
    out[_register_block(state)] = _to_momentum(block, grid, state.eta, inverse=True)
    return state.copy_with(out)


def apply_potential_evolution(state: FirstQuantizedState, dt: float,
                              nuclei: NuclearConfig,
                              kernel: CoulombKernel) -> FirstQuantizedState:
    """exp(-i (U+V) dt): diagonal phase multiplication in position space."""
    grid = state.grid
    if grid is None:
        raise ValidationError("potential evolution requires a grid-backed state")
    w = potential_diagonal(grid, nuclei, kernel, state.eta)
    out = state.tensor.copy()
    out[_register_block(state)] *= np.exp(-1j * w * dt)
    return state.copy_with(out)


def _strang_step(state, dt, nuclei, kernel):
    state = apply_kinetic_evolution(state, dt / 2)
    state = apply_potential_evolution(state, dt, nuclei, kernel)
    return apply_kinetic_evolution(state, dt / 2)


_SUZUKI_U = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))


def _suzuki4_step(state, dt, nuclei, kernel):
    u = _SUZUKI_U
    for factor in (u, u, 1.0 - 4.0 * u, u, u):
        state = _strang_step(state, factor * dt, nuclei, kernel)
    return state


def evolve(state: FirstQuantizedState, plan: EvolutionPlan,
           nuclei: NuclearConfig, kernel: CoulombKernel) -> FirstQuantizedState:
    """Product-formula approximation to exp(-i H t) |psi>.

    Exchange symmetry of H means the antisymmetry flag is preserved.
    """
    dt = plan.total_time / plan.steps
    was_antisymmetric = state.antisymmetric
    for _ in range(plan.steps):
        if plan.order == 1:
            state = apply_kinetic_evolution(state, dt)
            state = apply_potential_evolution(state, dt, nuclei, kernel)
        elif plan.order == 2:
            state = _strang_step(state, dt, nuclei, kernel)
        else:
            state = _suzuki4_step(state, dt, nuclei, kernel)
    state.antisymmetric = was_antisymmetric
    return state


# -- observables -----------------------------------------------------------


def kinetic_expectation(state: FirstQuantizedState) -> float:
    grid = state.grid
    table = kinetic_phase_table(grid)
    block = _to_momentum(state.tensor[_register_block(state)], grid,
                         state.eta, inverse=False)
    dens = np.abs(block) ** 2
    return float(sum(np.sum(dens * _on_registers(table, state.eta, j))
                     for j in range(state.eta)))


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
