"""Grid Hamiltonian H = T + U + V and split-operator time evolution.

T is diagonal in the centered-DFT dual basis with phases |k_p|^2/2 per
register (the discrete-value-representation form; there is deliberately
no discrete-Laplacian alternative). U and V are diagonal in position:
nuclear attraction and pairwise electron repulsion evaluated with open
boundary distances, optionally cusp-softened as 1/(r + s).

|k|^2/2 is a sum over grid axes, so exp(-i T t) is one m x m unitary
per axis, applied to each of the dim * eta axes of the N^eta block; only
long 1-D axes take an FFT instead. The unitary is circulant, so the
block is propagated in the centered layout a state stores it in.
"""

from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from .errors import SingularPotential, ValidationError
from .grids import GridSpec
from .states import (SLAB_ENTRIES, FirstQuantizedState, check_budget,
                     check_dense_size, check_unit_norm, slabs, slater_oracle)


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


def lowest_momentum_slater(grid: GridSpec, eta: int) -> FirstQuantizedState:
    """Slater determinant of the eta lowest-|k| plane waves (index tiebreak)."""
    table = kinetic_phase_table(grid)
    order = np.lexsort((np.arange(table.size), table))
    k = grid.frequencies[order[:eta]]
    orbitals = np.exp(1j * grid.positions @ k.T) / np.sqrt(grid.total_points)
    return slater_oracle(orbitals, grid=grid)


def _axis_operator(values: np.ndarray) -> np.ndarray:
    """F^-1 diag(values) F on one grid axis, F the unitary DFT, with
    ``values`` in FFT-bin order. The operator is circulant (entry (i, j)
    depends only on i - j mod m), so it is the same matrix whichever
    cyclic window both indices are read in, the centered one included."""
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
    """A per-register table (one axis, or two for a pair) placed on the
    axes ``registers`` of an eta-axis block, broadcastable over the others."""
    shape = [1] * eta
    for axis, size in zip(registers, table.shape):
        shape[axis] = size
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
        k = 2.0 * np.pi * (self.grid.points_per_axis // 2) / self.grid.length
        if not math.isfinite(self.grid.dim * k * k):  # bounds every |k|^2
            raise ValidationError(f"the kinetic energy on a cell of volume "
                                  f"{self.grid.cell_volume:.6g} overflows")
        # every distance a table takes has dim components of at most twice
        # the largest coordinate, so this bounds every squared distance
        reach = max(float(np.max(np.abs(positions), initial=0.0)),
                    (self.grid.points_per_axis // 2) * self.grid.spacing)
        if not math.isfinite(self.grid.dim * (2 * reach) * (2 * reach)):
            raise ValidationError(f"distances on this geometry overflow: a "
                                  f"coordinate reaches {reach:.6g}")

    def axis_kinetic(self) -> np.ndarray:
        """k^2/2 on one grid axis, in FFT-bin order."""
        grid = self.grid
        k = np.fft.ifftshift(grid.axis_window) * (2.0 * np.pi / grid.length)
        return 0.5 * k ** 2

    def axis_kinetic_matrix(self) -> np.ndarray:
        """The kinetic operator DFT† diag(k^2/2) DFT on one grid axis, in
        the centered window: an m x m matrix, real and symmetric. It is
        real because the phases of +-nu pair up, and at even m the lone
        -m/2 phase is +-1."""
        axis = _axis_operator(self.axis_kinetic())
        # circulant up to rounding: the shift fixes which rounding of each
        # entry the centered matrix holds
        axis = np.fft.fftshift(axis, axes=(0, 1)).real
        return (axis + axis.T) / 2

    def kinetic_matrix(self) -> np.ndarray:
        """One-register kinetic operator DFT† diag(|k|^2/2) DFT, real, as a
        new array: |k|^2/2 is a sum over axes, so the operator is the
        Kronecker sum of :meth:`axis_kinetic_matrix` over the grid's axes."""
        n = self.grid.total_points
        check_budget(f"the {n} x {n} kinetic matrix", (n, n))
        return _kronecker_sum(self.axis_kinetic_matrix(), self.grid.dim)

    def nuclear(self) -> np.ndarray:
        """U(p) = -sum_l zeta_l * kernel(|R_l - r_p|), length N; refused,
        naming the charge, when a term or a partial sum would overflow."""
        u = np.zeros(self.grid.total_points)
        reach = 0.0  # bounds every partial sum; Python floats never warn
        for pos, zeta in zip(self.nuclei.positions, self.nuclei.charges):
            dist = np.linalg.norm(self.grid.positions - pos[None, :], axis=1)
            if self.kernel.mode == "bare" and np.any(dist == 0):
                raise SingularPotential("nucleus coincides with a grid point")
            kernel = self.kernel(dist)
            reach += float(zeta) * float(kernel.max())
            if not math.isfinite(reach):
                raise ValidationError(
                    f"nuclear charge {zeta:g} overflows the nuclear potential")
            u -= zeta * kernel
        return u

    def pair(self) -> np.ndarray:
        """Symmetric N x N table of kernel(|r_p - r_q|).

        The p == q diagonal is 0 in bare mode (antisymmetric states carry
        no weight there and a point charge does not self-interact on the
        grid) and kernel(0) = 1/s in softened mode.

        The value depends only on the lattice difference d = p - q, so
        row p is window p of a (2m - 1)^dim table of kernel(|d| delta),
        read backwards, and v is those windows copied once into one array.
        |d| and |-d| round alike, which keeps the result exactly symmetric.
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
        # window a's entry b holds d = a + b - (m - 1) on each axis, which
        # is p - q at a = p and b = m - 1 - q
        windows = np.lib.stride_tricks.sliding_window_view(
            table.reshape((2 * m - 1,) * dim), (m,) * dim)
        backwards = (slice(None),) * dim + (slice(None, None, -1),) * dim
        return np.ascontiguousarray(windows[backwards]).reshape(n, n)

    def nuclear_repulsion(self) -> float:
        """sum_{l<k} zeta_l zeta_k / |R_l - R_k|, bare whatever the kernel."""
        positions, charges = self.nuclei.positions, self.nuclei.charges
        total = 0.0
        for a in range(len(charges)):
            for b in range(a + 1, len(charges)):
                d = np.linalg.norm(positions[a] - positions[b])
                if d == 0:
                    raise SingularPotential("coincident nuclei")
                # Python floats: an overflow gives inf, not a warning
                total += float(charges[a]) * float(charges[b]) / float(d)
                if not math.isfinite(total):
                    raise ValidationError(
                        f"nuclear charges {charges[a]:g} and {charges[b]:g} "
                        f"overflow the nuclear repulsion")
        return total


def potential_diagonal(ham: GridHamiltonian, eta: int) -> np.ndarray:
    """(U + V)(p_1..p_eta) over the full N^eta index block."""
    return _potential_rows(*_potential_tables(ham, eta), eta, slice(None))


def _potential_tables(ham: GridHamiltonian, eta: int):
    """The tables U and, when there are pairs, V of eta electrons; refused
    when a sum of eta U terms and the pair terms could overflow."""
    u, v = ham.nuclear(), ham.pair() if eta > 1 else None
    pairs = math.comb(eta, 2) * float(v.max()) if eta > 1 else 0.0
    if not math.isfinite(eta * float(-u.min()) + pairs):
        raise ValidationError(
            f"the potential of {eta} electrons overflows: nuclear charges "
            f"reach {float(ham.nuclei.charges.max()):g}")
    return u, v


def _potential_rows(u: np.ndarray, v, eta: int, rows: slice) -> np.ndarray:
    """(U + V)(p_1..p_eta) for the labels p_1 in ``rows``: a slab of the
    N^eta index block, summed in place from the tables ``u`` and ``v``."""
    total = np.zeros((len(u[rows]),) + u.shape * (eta - 1))
    for j in range(eta):
        total += _on_registers(u[rows] if j == 0 else u, eta, j)
    for j, k in combinations(range(eta), 2):
        total += _on_registers(v[rows] if j == 0 else v, eta, j, k)
    return total


# -- evolution ------------------------------------------------------------


# Axis length from which a kinetic substep takes the FFT route. An m x m
# matmul costs m multiply-adds per amplitude and axis, an FFT about
# log m. On one BLAS thread at 1-D, eta = 2, the matmul is 1.4x faster at
# m = 64 and the FFT 1.4x faster at m = 128; at eta = 3 the two stay
# within 25% from m = 96 to 256 (table in CHANGES.md). Only 1-D grids
# reach m = 128 under the dense cap.
_FFT_MIN_POINTS = 128


def _phase(t: float, table: np.ndarray) -> np.ndarray:
    """exp(-i t table) of a real table, refused when an angle t * table
    overflows: its phase would be NaN. Built SLAB_ENTRIES entries at a
    time, so no complex temporary is the table's size."""
    if not math.isfinite(abs(float(t)) * float(max(table.max(), -table.min()))):
        raise ValidationError(
            f"the propagator phases of a {float(t):.6g} time step overflow; "
            "use more steps")
    out = np.empty(table.shape, dtype=complex)
    flat, phases = np.ravel(table), out.reshape(-1)
    for lo in range(0, flat.size, SLAB_ENTRIES):
        part = slice(lo, lo + SLAB_ENTRIES)
        np.exp(-1j * t * flat[part], out=phases[part])
    return out


def _kinetic_propagator(axis_kinetic: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t k^2/2) on one grid axis, given its k^2/2 in FFT-bin order.

    Below _FFT_MIN_POINTS the m x m matrix F^-1 diag(phases) F, F the
    unitary DFT: the operator the FFT route applies. From it on, the
    m phases themselves.
    """
    phases = _phase(t, axis_kinetic)
    if len(axis_kinetic) >= _FFT_MIN_POINTS:
        return phases
    return _axis_operator(phases)


def _times_axis_phases(freq: np.ndarray, phases: np.ndarray) -> None:
    """``freq`` times the m ``phases`` along each of its axes, in place."""
    for axis in range(freq.ndim):
        freq *= phases.reshape((-1,) + (1,) * (freq.ndim - 1 - axis))


def _kinetic_substep(block: np.ndarray, propagator: np.ndarray, spare):
    """exp(-i T t) on the C-contiguous block, dim * eta axes of m points
    in the centered window, where the circulant propagator acts as on any
    rotation of it; returns the propagated block and the free buffer.

    The m x m ``propagator`` is contracted with every axis by one matmul
    each, written into the other of ``block`` and ``spare`` (a buffer of
    the block's size, allocated here when None): the leading axis is
    contracted and its image appended as the last, so after one matmul
    per axis the axes are back in order. Given the m phases instead (the
    FFT route), in the FFT-bin order fftn returns, fftn writes into the
    spare buffer, the phases of each axis multiply it in place, and ifftn
    writes back into the block.
    """
    if spare is None:
        spare = np.empty_like(block)
    if propagator.ndim == 1:
        _times_axis_phases(np.fft.fftn(block, norm="ortho", out=spare), propagator)
        return np.fft.ifftn(spare, norm="ortho", out=block), spare
    m = len(propagator)
    for _ in range(block.ndim):
        np.matmul(block.reshape(m, -1).T, propagator.T, out=spare.reshape(-1, m))
        block, spare = spare, block
    return block, spare


def _phases(keys, ham: GridHamiltonian, eta: int) -> dict:
    """The propagator of each distinct (X, t) in ``keys``: one grid
    axis's for "T" (see _kinetic_propagator), the phases over the block's
    dim * eta axes for "V". The U + V diagonal is built once and dropped
    once its phases are."""
    axis = ham.axis_kinetic()
    phases = {(x, t): _kinetic_propagator(axis, t) for x, t in keys if x == "T"}
    times = {t for x, t in keys if x == "V"}
    if times:
        table = potential_diagonal(ham, eta).reshape(
            (ham.grid.points_per_axis,) * (ham.grid.dim * eta))
        phases.update({("V", t): _phase(t, table) for t in times})
    return phases


def _propagate(block: np.ndarray, substeps,
               ham: GridHamiltonian) -> FirstQuantizedState:
    """Apply exp(-i X t) for each (X, t) that ``substeps()`` yields, X one
    of "T", "V", to ``block``, an N^eta block (C-contiguous complex),
    which is overwritten; the state returned holds the buffer the last
    substep wrote. ``substeps`` is called twice: once for the distinct
    propagators, which are built before the first substep, once to apply
    them.

    Live while it propagates: the block, viewed as dim * eta axes of m
    points; one spare buffer of its size, which a kinetic substep's
    transforms alternate with (one m x m matmul per axis, or on long 1-D
    axes an fftn and an ifftn); and one phase table per distinct V time,
    built a slab at a time, which a potential substep multiplies in
    place. Every substep checks the norm of the block.
    """
    grid, eta, n = ham.grid, block.ndim, ham.grid.total_points
    phases = _phases(set(substeps()), ham, eta)
    block = block.reshape((grid.points_per_axis,) * (grid.dim * eta))
    spare = None
    for op, t in substeps():
        if op == "T":
            block, spare = _kinetic_substep(block, phases[op, t], spare)
        else:
            block *= phases[op, t]
        check_unit_norm(block)
    return FirstQuantizedState(eta, n, block.reshape((n,) * eta), grid=grid)


def _state_block(state: FirstQuantizedState, ham: GridHamiltonian) -> np.ndarray:
    """A copy of the N^eta block of ``state``, which must lie on ``ham``'s
    grid."""
    if state.grid is None:
        raise ValidationError("evolution requires a grid-backed state")
    if ham.grid != state.grid:
        raise ValidationError("the Hamiltonian's grid is not the state's grid")
    return state.tensor.copy()


def apply_kinetic_evolution(state: FirstQuantizedState, dt: float,
                            ham: GridHamiltonian) -> FirstQuantizedState:
    """exp(-i T dt): one m x m propagator on each grid axis of each register."""
    return _propagate(_state_block(state, ham), lambda: [("T", dt)], ham)


def apply_potential_evolution(state: FirstQuantizedState, dt: float,
                              ham: GridHamiltonian) -> FirstQuantizedState:
    """exp(-i (U+V) dt): diagonal phase multiplication in position space."""
    return _propagate(_state_block(state, ham), lambda: [("V", dt)], ham)


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
    """Product-formula approximation to exp(-i H t) |psi>: ``state``'s block
    copied, then :func:`evolve_block`.

    Exchange symmetry of H means the antisymmetry flag is preserved.
    """
    return evolve_block(_state_block(state, ham), plan, ham)


def evolve_block(block: np.ndarray, plan: EvolutionPlan,
                 ham: GridHamiltonian) -> FirstQuantizedState:
    """:func:`evolve` from ``block``, the (N,)*eta array of a state on
    ``ham``'s grid (a state's ``tensor``), in the centered layout it is
    stored in. It is the propagation's working buffer and is overwritten
    (a copy is taken first unless it is C-contiguous complex), so a
    caller that passes its state's tensor and drops the state holds no
    more than the propagation's own arrays."""
    n = ham.grid.total_points
    if not block.ndim or block.shape != (n,) * block.ndim:
        raise ValidationError(f"a block of shape {block.shape} is not N^eta "
                              f"with N = {n}")
    return _propagate(np.ascontiguousarray(block, dtype=complex),
                      lambda: _substeps(plan), ham)


# -- observables -----------------------------------------------------------


def kinetic_expectation(state: FirstQuantizedState) -> float:
    """<T>: register by register, |k|^2/2 weighted by that register's
    momentum density. The DFT of the other registers is unitary and
    leaves the density unchanged, so each register's dim-D DFT is taken a
    slab of another register's labels at a time, on the centered block:
    its output only differs by phases from that of the FFT window, and
    comes in FFT-bin order, as the |k|^2/2 table is read."""
    grid, eta = state.grid, state.eta
    table = np.fft.ifftshift(
        kinetic_phase_table(grid).reshape((grid.points_per_axis,) * grid.dim))
    axes = tuple(range(-grid.dim, 0))
    total = 0.0
    for j in range(eta):
        amps = np.moveaxis(state.tensor, j, -1)  # register j last
        if eta == 1:
            amps = amps[None]
        for rows in slabs(amps.shape):
            part = amps[rows].reshape(amps[rows].shape[:-1] + table.shape)
            dens = np.abs(np.fft.fftn(part, axes=axes, norm="ortho")) ** 2
            total += float(np.sum(dens * table))
    return total


def potential_expectation(state: FirstQuantizedState,
                          ham: GridHamiltonian) -> float:
    """<U + V>, a slab of register 1's labels at a time: the density and
    the potential are formed slab by slab (:func:`_potential_rows`)."""
    eta, block = state.eta, state.tensor
    u, v = _potential_tables(ham, eta)
    total = 0.0
    for rows in slabs(block.shape):
        dens = np.abs(block[rows]) ** 2
        total += float(np.sum(dens * _potential_rows(u, v, eta, rows)))
    return total


def total_energy(state: FirstQuantizedState, nuclei: NuclearConfig,
                 kernel: CoulombKernel) -> float:
    """<T> + <U+V> + nuclear repulsion scalar."""
    ham = GridHamiltonian(state.grid, nuclei, kernel)
    return (kinetic_expectation(state) + potential_expectation(state, ham)
            + ham.nuclear_repulsion())


def dense_hamiltonian(ham: GridHamiltonian, eta: int) -> np.ndarray:
    """Dense H over the N^eta block a state stores (test-scale only).

    The kinetic operator acts as DFT† diag(|k|^2/2) DFT on each register.
    H holds as many entries as 2 eta registers hold amplitudes, and is
    refused as they would be.
    """
    check_dense_size(ham.grid.total_points, 2 * eta)
    dense = _kronecker_sum(ham.kinetic_matrix().astype(complex), eta)
    np.einsum("ii->i", dense)[...] += potential_diagonal(ham, eta).reshape(-1)
    return dense
