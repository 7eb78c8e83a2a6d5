"""Grid Hamiltonian H = T + U + V and split-operator time evolution.

T is diagonal in the centered-DFT dual basis with phases |k_p|^2/2 per
register (the discrete-value-representation form; there is deliberately
no discrete-Laplacian alternative). U and V are diagonal in position:
nuclear attraction and pairwise electron repulsion evaluated with open
boundary distances, optionally cusp-softened as 1/(r + s).

|k|^2/2 is a sum over grid axes, so exp(-i T t) is one m x m unitary
per axis, applied to each of the dim * eta axes of the N^eta block; only
long 1-D axes take an FFT instead.
"""

from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from .errors import SingularPotential, ValidationError
from .grids import GridSpec, from_fft_window, to_fft_window
from .states import (FirstQuantizedState, check_budget, check_dense_size,
                     check_unit_norm, contract_registers)


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
        if not np.all(np.isfinite(chg) & (chg >= 1)):
            raise ValidationError("nuclear charges must be finite and >= 1")

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


def _axis_operator(values: np.ndarray) -> np.ndarray:
    """F^-1 diag(values) F on one grid axis, F the unitary DFT, with
    ``values`` and both indices in the FFT window."""
    dft = np.fft.fft(np.eye(len(values)), axis=0, norm="ortho")
    return np.fft.ifft(values[:, None] * dft, axis=0, norm="ortho")


def _kronecker_sum(op: np.ndarray, copies: int) -> np.ndarray:
    """sum_f I (x) .. (x) op (x) .. (x) I, ``op`` on factor f of ``copies``."""
    m = len(op)
    out = np.zeros((m ** copies,) * 2, dtype=op.dtype)
    for f in range(copies):
        # the entries with equal indices on the other factors, as a
        # writeable einsum view of the (a, i, b, a', j, b') array
        a, b = m ** f, m ** (copies - 1 - f)
        np.einsum("aibajb->abij", out.reshape(a, m, b, a, m, b))[...] += op
    return out


def _on_registers(table: np.ndarray, eta: int, *registers: int) -> np.ndarray:
    """A per-register table (N, or N x N for a pair) placed on the axes
    ``registers`` of the N^eta block, broadcastable over the others."""
    shape = [table.shape[0] if axis in registers else 1 for axis in range(eta)]
    return table.reshape(shape)


@dataclass(frozen=True)
class GridHamiltonian:
    """H = T + U + V on ``grid``: the one place its tables are built, read
    by Trotter evolution, the dense oracle and the TDHF integrals alike.
    Each method builds its table anew when called; an N x N one above
    the dense regime is refused before it is allocated."""

    grid: GridSpec
    nuclei: NuclearConfig
    kernel: CoulombKernel

    def __post_init__(self):
        positions = self.nuclei.positions
        if positions.shape[0] and positions.shape[1] != self.grid.dim:
            raise ValidationError(
                "nuclear position dimension does not match grid")

    def axis_kinetic(self) -> np.ndarray:
        """k^2/2 on one grid axis, in the FFT window."""
        grid = self.grid
        k = to_fft_window(grid.axis_window) * (2.0 * np.pi / grid.length)
        return 0.5 * k ** 2

    def kinetic_matrix(self) -> np.ndarray:
        """One-register kinetic operator DFT† diag(|k|^2/2) DFT, real, as a
        new array.

        |k|^2/2 is a sum over axes, so the operator is the Kronecker sum of
        one m x m matrix per axis. That matrix is real: the phases of +-nu
        pair up, and at even m the lone -m/2 phase is +-1.
        """
        n = self.grid.total_points
        check_budget(f"the {n} x {n} kinetic matrix", (n, n))
        axis = _axis_operator(self.axis_kinetic())
        axis = from_fft_window(axis, axes=(0, 1)).real
        return _kronecker_sum((axis + axis.T) / 2, self.grid.dim)

    def nuclear(self) -> np.ndarray:
        """U(p) = -sum_l zeta_l * kernel(|R_l - r_p|), length N."""
        u = np.zeros(self.grid.total_points)
        for pos, zeta in zip(self.nuclei.positions, self.nuclei.charges):
            dist = np.linalg.norm(self.grid.positions - pos[None, :], axis=1)
            if self.kernel.mode == "bare" and np.any(dist == 0):
                raise SingularPotential("nucleus coincides with a grid point")
            u -= zeta * self.kernel(dist)
        return u

    def pair(self) -> np.ndarray:
        """Symmetric N x N table of kernel(|r_p - r_q|).

        The p == q diagonal is 0 in bare mode (antisymmetric states carry
        no weight there and a point charge does not self-interact on the
        grid) and kernel(0) = 1/s in softened mode.

        The value depends only on the lattice difference d = p - q, so it
        is gathered from a (2m - 1)^dim table of kernel(|d| delta). |d|
        and |-d| round alike, which keeps the result exactly symmetric.
        """
        grid, kernel = self.grid, self.kernel
        n = grid.total_points
        check_budget(f"the {n} x {n} pair table V", (n, n))
        m, dim = grid.points_per_axis, grid.dim
        steps = np.arange(-(m - 1), m)
        diffs = np.stack(np.meshgrid(*[steps] * dim, indexing="ij"), axis=-1)
        dist = np.linalg.norm(diffs * grid.spacing, axis=-1).ravel()
        table = np.zeros_like(dist)
        off = dist != 0
        table[off] = kernel(dist[off])
        if kernel.mode == "softened":
            table[~off] = 1.0 / kernel.softening
        # the table's flat index of d = p - q is place(p) - place(q) plus
        # that of d = 0, its middle entry
        place = grid.index_points @ (2 * m - 1) ** np.arange(dim - 1, -1, -1)
        return table[place[:, None] - place[None, :] + len(table) // 2]

    def nuclear_repulsion(self) -> float:
        """sum_{l<k} zeta_l zeta_k / |R_l - R_k|, bare whatever the kernel."""
        positions, charges = self.nuclei.positions, self.nuclei.charges
        total = 0.0
        for a in range(len(charges)):
            for b in range(a + 1, len(charges)):
                d = np.linalg.norm(positions[a] - positions[b])
                if d == 0:
                    raise SingularPotential("coincident nuclei")
                total += charges[a] * charges[b] / d
        return float(total)


def potential_diagonal(ham: GridHamiltonian, eta: int) -> np.ndarray:
    """(U + V)(p_1..p_eta) over the full N^eta index block; V is built only
    when there are pairs."""
    total = np.zeros((ham.grid.total_points,) * eta)
    u = ham.nuclear()
    for j in range(eta):
        total = total + _on_registers(u, eta, j)
    v = ham.pair() if eta > 1 else None
    for j, k in combinations(range(eta), 2):
        total = total + _on_registers(v, eta, j, k)
    return total


# -- evolution ------------------------------------------------------------


def _register_block(state: FirstQuantizedState):
    """Slice tuple selecting the N^eta physical block of the tensor."""
    return (slice(0, state.n_orbitals),) * state.eta


def _fft_layout(block: np.ndarray, grid: GridSpec, eta: int) -> np.ndarray:
    """The N^eta block as dim*eta axes in the FFT window, where the
    centered DFT of every register is one n-D FFT."""
    return to_fft_window(
        block.reshape((grid.points_per_axis,) * (grid.dim * eta)))


# Axis length from which a kinetic substep takes the FFT route. An m x m
# matmul costs m multiply-adds per amplitude and axis, an FFT about
# log m. On one BLAS thread at 1-D, eta = 2, the matmul is 1.4x faster at
# m = 64 and the FFT 1.4x faster at m = 128; at eta = 3 the two stay
# within 25% from m = 96 to 256 (table in CHANGES.md). Only 1-D grids
# reach m = 128 under the dense cap.
_FFT_MIN_POINTS = 128


def _phase(t: float, table: np.ndarray) -> np.ndarray:
    """exp(-i t table), refused when an angle t * table overflows: its
    phase would be NaN."""
    if not math.isfinite(abs(float(t)) * float(np.max(np.abs(table)))):
        raise ValidationError(
            f"the propagator phases of a {float(t):.6g} time step overflow; "
            "use more steps")
    return np.exp(-1j * t * table)


def _kinetic_propagator(axis_kinetic: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t k^2/2) on one grid axis, given its k^2/2 in the FFT window.

    Below _FFT_MIN_POINTS the m x m matrix F^-1 diag(phases) F, F the
    unitary DFT: the operator the FFT route applies. From it on, the
    m phases themselves.
    """
    phases = _phase(t, axis_kinetic)
    if len(axis_kinetic) >= _FFT_MIN_POINTS:
        return phases
    return _axis_operator(phases)


def _kinetic_substep(block: np.ndarray, propagator: np.ndarray) -> np.ndarray:
    """exp(-i T t) on the block in FFT layout: the m x m ``propagator``
    contracted with every axis, or (given the m phases) fftn, the phases
    of each axis, ifftn."""
    if propagator.ndim == 2:
        return contract_registers(
            block, np.broadcast_to(propagator, (block.ndim,) + propagator.shape))
    block = np.fft.fftn(block, norm="ortho")
    for axis in range(block.ndim):
        block *= propagator.reshape((-1,) + (1,) * (block.ndim - 1 - axis))
    return np.fft.ifftn(block, norm="ortho")


def _phases(keys, ham: GridHamiltonian, eta: int) -> dict:
    """The propagator of each distinct (X, t) in ``keys``: one grid
    axis's for "T" (see _kinetic_propagator), the phases over the block
    for "V". The U + V diagonal is built once and dropped once its phases
    are."""
    axis = ham.axis_kinetic()
    phases = {(x, t): _kinetic_propagator(axis, t) for x, t in keys if x == "T"}
    times = {t for x, t in keys if x == "V"}
    if times:
        table = _fft_layout(potential_diagonal(ham, eta), ham.grid, eta)
        phases.update({("V", t): _phase(t, table) for t in times})
    return phases


def _propagate(state: FirstQuantizedState, substeps,
               ham: GridHamiltonian) -> FirstQuantizedState:
    """Apply exp(-i X t) for each (X, t) that ``substeps()`` yields, X one
    of "T", "V". ``substeps`` is called twice: once for the distinct
    propagators, which are built before the first substep, once to apply
    them.

    The block is rotated into FFT layout once, as dim * eta axes of
    length m. A kinetic substep is one m x m matmul per axis (an FFT pair
    on long 1-D axes), a potential substep one phase multiplication.
    Every substep checks the norm of the block; the padding stays zero
    because only the block is propagated, and the output state checks it
    again.
    """
    grid, eta = state.grid, state.eta
    if grid is None:
        raise ValidationError("evolution requires a grid-backed state")
    if ham.grid != grid:
        raise ValidationError("the Hamiltonian's grid is not the state's grid")
    phases = _phases(set(substeps()), ham, eta)
    block = _fft_layout(state.tensor[_register_block(state)], grid, eta)
    for op, t in substeps():
        if op == "T":
            block = _kinetic_substep(block, phases[op, t])
        else:
            block *= phases[op, t]
        check_unit_norm(block)
    out = np.zeros_like(state.tensor)
    out[_register_block(state)] = from_fft_window(block).reshape(
        (grid.total_points,) * eta)
    return state.copy_with(out)


def apply_kinetic_evolution(state: FirstQuantizedState, dt: float,
                            ham: GridHamiltonian) -> FirstQuantizedState:
    """exp(-i T dt): one m x m propagator on each grid axis of each register."""
    return _propagate(state, lambda: [("T", dt)], ham)


def apply_potential_evolution(state: FirstQuantizedState, dt: float,
                              ham: GridHamiltonian) -> FirstQuantizedState:
    """exp(-i (U+V) dt): diagonal phase multiplication in position space."""
    return _propagate(state, lambda: [("V", dt)], ham)


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
           ham: GridHamiltonian) -> FirstQuantizedState:
    """Product-formula approximation to exp(-i H t) |psi>.

    Exchange symmetry of H means the antisymmetry flag is preserved.
    """
    return _propagate(state, lambda: _substeps(plan), ham)


# -- observables -----------------------------------------------------------


def kinetic_expectation(state: FirstQuantizedState) -> float:
    grid, eta = state.grid, state.eta
    block = _fft_layout(state.tensor[_register_block(state)], grid, eta)
    dens = np.abs(np.fft.fftn(block, norm="ortho")) ** 2
    table = kinetic_phase_table(grid)
    total = sum(_on_registers(table, eta, j) for j in range(eta))
    return float(np.sum(dens * _fft_layout(total, grid, eta)))


def potential_expectation(state: FirstQuantizedState,
                          ham: GridHamiltonian) -> float:
    w = potential_diagonal(ham, state.eta)
    dens = np.abs(state.tensor[_register_block(state)]) ** 2
    return float(np.sum(dens * w))


def total_energy(state: FirstQuantizedState, nuclei: NuclearConfig,
                 kernel: CoulombKernel) -> float:
    """<T> + <U+V> + nuclear repulsion scalar."""
    ham = GridHamiltonian(state.grid, nuclei, kernel)
    return (kinetic_expectation(state) + potential_expectation(state, ham)
            + ham.nuclear_repulsion())


def dense_hamiltonian(ham: GridHamiltonian, eta: int) -> np.ndarray:
    """Dense H over the full padded register space (test-scale only).

    The kinetic operator acts as DFT† diag(|k|^2/2) DFT on the physical
    block of each register and as zero on padding. H holds as many entries
    as 2 eta registers hold amplitudes, and is refused as they would be.
    """
    n_orb = ham.grid.total_points
    check_dense_size(n_orb, 2 * eta)
    reg = 2 ** ham.grid.qubits_per_register
    t_reg = np.zeros((reg, reg), dtype=complex)
    t_reg[:n_orb, :n_orb] = ham.kinetic_matrix()
    dense = _kronecker_sum(t_reg, eta)
    w = np.zeros((reg,) * eta)
    w[(slice(0, n_orb),) * eta] = potential_diagonal(ham, eta)
    np.einsum("ii->i", dense)[...] += w.reshape(-1)
    return dense
