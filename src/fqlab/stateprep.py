"""Slater determinant preparation via Givens layers and register conversion.

The pipeline mirrors the streaming construction: the determinant is
built in second quantization one orbital window at a time, and as soon
as an orbital's qubit will no longer be rotated it is converted into the
first-quantized registers and zeroed. Only eta + 1 second-quantized
qubits are ever live; the simulation keeps exactly that many window
slots and reuses them cyclically.

Orbital labels are 0-based throughout. Layer index q (0-based, q from 0
to N - eta - 1) rotates orbitals [q, q + eta]; after layer q orbital q
is converted. Orbitals N - eta .. N - 1 are converted without further
rotations. Label ordering inside the first-quantized registers is
strictly ascending on every branch, which is what makes the conversion
reversible; an instrumented mode verifies this branch by branch.

Toffoli accounting follows the improved conversion procedure: per
orbital, one simultaneous unary-iteration step on all eta registers
(eta), the counter increment (n_eta - 1), the counter-controlled unary
iteration (eta - 1), and the window-qubit erasure (eta), for a total of
N (3 eta + n_eta - 2) over a full run.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (
    DecompositionFailure,
    OrderingViolation,
    ResidualPopulation,
    ValidationError,
)
from .grids import register_qubits
from .states import FirstQuantizedState, signed_permutation_sum


# -- Givens network ------------------------------------------------------


@dataclass(frozen=True)
class GivensRotation:
    """Two-orbital rotation: block [[c, -s e^{-i phi}], [s e^{i phi}, c]]."""

    orbital_a: int
    orbital_b: int
    theta: float
    phi: float

    def block(self) -> np.ndarray:
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        return np.array([[c, -s * np.exp(-1j * self.phi)],
                         [s * np.exp(1j * self.phi), c]])


@dataclass(frozen=True)
class GivensNetwork:
    """Layered rotation schedule; layer q acts inside orbitals [q, q+eta]."""

    n_orbitals: int
    eta: int
    layers: tuple  # tuple of tuples of GivensRotation

    def __post_init__(self):
        for q, layer in enumerate(self.layers):
            for rot in layer:
                if not q <= rot.orbital_a < rot.orbital_b <= q + self.eta:
                    raise ValidationError(
                        f"rotation {rot} escapes layer-{q} window")

    def rotation_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def single_particle_unitary(self) -> np.ndarray:
        """The N x N orbital rotation implemented by the full schedule."""
        u = np.eye(self.n_orbitals, dtype=complex)
        for layer in self.layers:
            for rot in layer:
                g = rot.block()
                rows = [rot.orbital_a, rot.orbital_b]
                u[rows, :] = g @ u[rows, :]
        return u


def _staircase_gauge(coeffs: np.ndarray) -> np.ndarray:
    """Column-rotate C so row r is zero in columns c with r > N - eta + c.

    Column operations mix occupied orbitals only, so the spanned space
    (and the prepared physical state, up to phase) is unchanged.
    """
    m = coeffs.copy()
    n, eta = m.shape
    for r in range(n - 1, n - eta, -1):
        limit = eta - (n - r) - 1  # zero columns 0..limit of row r
        for c in range(limit + 1):
            alpha, beta = m[r, c], m[r, c + 1]
            if abs(alpha) < 1e-15:
                continue
            # unitary column mix with first column (beta, -alpha)/nrm,
            # sending the row-r pair (alpha, beta) to (0, nrm)
            nrm = math.hypot(abs(alpha), abs(beta))
            rot = np.array([[beta, np.conj(alpha)],
                            [-alpha, np.conj(beta)]], dtype=complex) / nrm
            m[:, [c, c + 1]] = m[:, [c, c + 1]] @ rot
    return m


def givens_decompose(coeffs: np.ndarray, tol: float = 1e-9) -> GivensNetwork:
    """Layered Givens schedule preparing the span of ``coeffs``.

    The backward pass gauges C to a staircase, then eliminates one
    antidiagonal per layer with adjacent-row rotations; reversing that
    order yields the forward schedule. Zero pivots emit no rotation.
    """
    m = np.asarray(coeffs, dtype=complex)
    n, eta = m.shape
    if not 1 <= eta <= n:
        raise ValidationError("need an N x eta matrix with eta <= N")
    gram = m.conj().T @ m
    if np.max(np.abs(gram - np.eye(eta))) > 1e-8:
        raise ValidationError("columns must be orthonormal")
    work = _staircase_gauge(m)
    layers_reversed = []
    for q in range(n - eta - 1, -1, -1):  # elimination: last layer first
        layer = []
        for i in range(eta):
            row = q + i + 1           # entry (row, i) is eliminated
            alpha = work[row - 1, i]
            beta = work[row, i]
            if abs(beta) < 1e-15:
                continue
            if abs(alpha) < 1e-15:
                theta, phi = math.pi / 2, float(np.angle(beta))
            else:
                theta = math.atan2(abs(beta), abs(alpha))
                phi = float(np.angle(beta) - np.angle(alpha))
            rot = GivensRotation(row - 1, row, theta, phi)
            g_dag = rot.block().conj().T
            work[[row - 1, row], :] = g_dag @ work[[row - 1, row], :]
            layer.append(rot)
        layers_reversed.append(tuple(reversed(layer)))
    residual = float(np.max(np.abs(work[eta:, :]))) if n > eta else 0.0
    if residual > tol:
        raise DecompositionFailure(
            f"off-pattern residual {residual:.2e} exceeds {tol}")
    layers = tuple(reversed(layers_reversed))
    return GivensNetwork(n_orbitals=n, eta=eta, layers=layers)


# -- Toffoli accounting ---------------------------------------------------


def counter_register_width(eta: int) -> int:
    """Qubits needed to count 0..eta."""
    return max(1, math.ceil(math.log2(eta + 1)))


@dataclass
class ToffoliLedger:
    """Per-primitive Toffoli counts for the conversion procedure."""

    counts: dict = field(default_factory=dict)

    def charge(self, primitive: str, amount: int) -> None:
        if amount < 0:
            raise ValidationError("ledger charges are nonnegative")
        self.counts[primitive] = self.counts.get(primitive, 0) + amount

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def toffoli_count(n_orbitals: int, eta: int, variant: str = "improved") -> int:
    """Closed-form Toffoli count of the conversion, leading term only."""
    if n_orbitals < 2 or not 1 <= eta < n_orbitals:
        raise ValidationError("need N >= 2 and 1 <= eta < N")
    n_eta = counter_register_width(eta)
    if variant == "improved":
        return n_orbitals * (3 * eta + n_eta - 2)
    if variant == "basic":
        log_n = math.ceil(math.log2(n_orbitals))
        return n_orbitals * (2 * eta + n_eta - 3 + eta * log_n)
    raise ValidationError("variant must be 'improved' or 'basic'")


def antisymmetrization_gate_estimate(n_orbitals: int, eta: int) -> int:
    """Order-of-magnitude gate estimate for the sorting-network step.

    Reported separately from the ledger; the statevector simulation uses
    the exact signed-permutation isometry instead of that circuit.
    """
    if eta < 2:
        return 0
    return eta * math.ceil(math.log2(eta)) * math.ceil(math.log2(n_orbitals))


# -- joint-space conversion simulation ------------------------------------


class ConversionRegisters:
    """Joint state of window qubits, the counter, and the eta registers.

    Axes: eta + 1 window slots (dim 2 each), the counter (dim
    2**counter_width), then eta first-quantized registers (dim 2**n
    each). Window slot for orbital o is o mod (eta + 1); a slot is reused
    only after the conversion has provably zeroed it.
    """

    def __init__(self, n_orbitals: int, eta: int):
        if not 1 <= eta < n_orbitals:
            raise ValidationError("need 1 <= eta < N")
        self.n_orbitals = n_orbitals
        self.eta = eta
        self.window_slots = eta + 1
        self.counter_width = counter_register_width(eta)
        self.counter_dim = 2 ** self.counter_width
        self.register_qubits = register_qubits(n_orbitals)
        self.register_dim = 2 ** self.register_qubits
        shape = ((2,) * self.window_slots + (self.counter_dim,)
                 + (self.register_dim,) * eta)
        self.tensor = np.zeros(shape, dtype=complex)
        # reference: orbitals 0..eta-1 occupied, counter 0, registers 0
        start = [0] * len(shape)
        for o in range(eta):
            start[self._slot(o)] = 1
        self.tensor[tuple(start)] = 1.0
        self.converted = 0
        self.ledger = ToffoliLedger()

    def _slot(self, orbital: int) -> int:
        return orbital % self.window_slots

    def _counter_axis(self) -> int:
        return self.window_slots

    def _register_axis(self, register: int) -> int:
        return self.window_slots + register  # register is 1-based

    def window_population(self, orbital: int) -> float:
        """Probability mass with the slot for ``orbital`` in state |1>."""
        axis = self._slot(orbital)
        idx = [slice(None)] * self.tensor.ndim
        idx[axis] = 1
        return float(np.sum(np.abs(self.tensor[tuple(idx)]) ** 2))

    def apply_window_rotation(self, rot: GivensRotation) -> None:
        """Number-conserving two-qubit gate on the slots of (a, b).

        The one-particle amplitudes transform by the rotation block with
        |10> (orbital a occupied) as the first component; |00> and |11>
        are untouched (the block has unit determinant).
        """
        sa, sb = self._slot(rot.orbital_a), self._slot(rot.orbital_b)
        if sa == sb:
            raise ValidationError("rotation maps to a single window slot")
        g = rot.block()
        t = np.moveaxis(self.tensor, (sa, sb), (0, 1))
        amp_a, amp_b = t[1, 0].copy(), t[0, 1].copy()
        t[1, 0] = g[0, 0] * amp_a + g[0, 1] * amp_b
        t[0, 1] = g[1, 0] * amp_a + g[1, 1] * amp_b
        self.tensor = np.moveaxis(t, (0, 1), (sa, sb))

    def conversion_step(self, orbital: int, validate: bool = False) -> None:
        """Move orbital occupancy into register xi+1 on every branch.

        Branches with the window qubit at |1> increment the counter,
        write the orbital label into the next register, and return the
        qubit to |0>; |0> branches are untouched. The map permutes basis
        states on the valid subspace, hence is an isometry there.
        """
        if orbital != self.converted:
            raise ValidationError(
                f"conversion must proceed in orbital order; expected "
                f"{self.converted}, got {orbital}")
        slot = self._slot(orbital)
        ca = self._counter_axis()
        ndim = self.tensor.ndim
        for xi in range(self.eta):
            reg_axis = self._register_axis(xi + 1)
            if validate:
                viol = [slice(None)] * ndim
                viol[slot], viol[ca], viol[reg_axis] = 1, xi, slice(1, None)
                if float(np.linalg.norm(self.tensor[tuple(viol)])) > 1e-12:
                    raise OrderingViolation(
                        f"register {xi + 1} already written on an occupied branch")
            src = [slice(None)] * ndim
            src[slot], src[ca], src[reg_axis] = 1, xi, 0
            dst = [slice(None)] * ndim
            dst[slot], dst[ca], dst[reg_axis] = 0, xi + 1, orbital
            self.tensor[tuple(dst)] += self.tensor[tuple(src)]
            self.tensor[tuple(src)] = 0.0
        leftover = [slice(None)] * ndim
        leftover[slot] = 1
        if float(np.linalg.norm(self.tensor[tuple(leftover)])) > 1e-12:
            raise OrderingViolation(
                "occupied branch with the counter already at capacity")
        self.converted += 1
        if validate:
            self._check_branch_invariants()
        n_eta = self.counter_width
        self.ledger.charge("register-unary-iteration", self.eta)
        self.ledger.charge("counter-increment", n_eta - 1)
        self.ledger.charge("controlled-counter-iteration", self.eta - 1)
        self.ledger.charge("window-qubit-erasure", self.eta)

    def _check_branch_invariants(self, tol: float = 1e-12) -> None:
        """Every populated basis branch: counter matches written count and
        register labels are strictly ascending."""
        flat = self.tensor.reshape(-1)
        shape = self.tensor.shape
        for idx in np.flatnonzero(np.abs(flat) > tol):
            coords = np.unravel_index(idx, shape)
            xi = coords[self._counter_axis()]
            labels = [coords[self._register_axis(r)] for r in range(1, self.eta + 1)]
            written = labels[:xi]
            rest = labels[xi:]
            if any(rest):
                raise OrderingViolation("label in an unwritten register")
            if any(written[a] >= written[a + 1] for a in range(len(written) - 1)):
                raise OrderingViolation("register labels not strictly ascending")

    def finish(self, residual_tol: float = 1e-10):
        """Extract the sorted-configuration tensor after full conversion."""
        if self.converted != self.n_orbitals:
            raise ValidationError("conversion incomplete")
        window_weight = 0.0
        for o in range(self.window_slots):
            idx = [slice(None)] * self.tensor.ndim
            idx[o] = 1
            window_weight += float(np.sum(np.abs(self.tensor[tuple(idx)]) ** 2))
        if window_weight > residual_tol ** 2:
            raise ResidualPopulation(
                f"window population {window_weight:.2e} after conversion")
        idx = [0] * self.window_slots + [self.eta] + [slice(None)] * self.eta
        return np.array(self.tensor[tuple(idx)])


@dataclass
class PreparationResult:
    state: FirstQuantizedState
    network: GivensNetwork
    ledger: ToffoliLedger


def prepare_slater(coeffs: np.ndarray, grid=None, validate: bool = False,
                   n_orbitals: int | None = None) -> PreparationResult:
    """Run the full pipeline and return the prepared state plus ledger.

    Layers and conversions interleave: layer q is applied just before
    orbital q is converted, so at most eta + 1 window qubits are live.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n, eta = coeffs.shape
    if n_orbitals is not None and n_orbitals != n:
        raise ValidationError("n_orbitals does not match coefficient rows")
    network = givens_decompose(coeffs)
    regs = ConversionRegisters(n_orbitals=n, eta=eta)
    n_layers = n - eta
    for orbital in range(n):
        if orbital < n_layers:
            for rot in network.layers[orbital]:
                regs.apply_window_rotation(rot)
        regs.conversion_step(orbital, validate=validate)
    sorted_tensor = regs.finish()
    # signed-permutation isometry from the sorted configurations
    tensor = signed_permutation_sum(sorted_tensor) / math.sqrt(math.factorial(eta))
    state = FirstQuantizedState(eta, n, tensor, grid=grid, antisymmetric=True)
    return PreparationResult(state=state, network=network, ledger=regs.ledger)
