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

The joint register state is simulated on its live basis branches only,
each keyed by its window occupancy, counter and written labels: every
branch holds eta particles, the written ones in ascending order, so at
most C(N, eta) branches exist and memory is O(C(N, eta)) instead of the
2^(eta+1) 2^n_eta (2^n)^eta amplitudes of the full register space. A
Givens rotation mixes pairs of branches, a conversion step rewrites
keys, and only the final sorted-configuration tensor is dense.

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
from .states import (
    FirstQuantizedState,
    check_dense_size,
    check_orthonormal_columns,
    signed_permutation_sum,
)


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


def givens_decompose(coeffs: np.ndarray) -> GivensNetwork:
    """Layered Givens schedule preparing the span of ``coeffs``.

    The backward pass gauges C to a staircase, then eliminates one
    antidiagonal per layer with adjacent-row rotations; reversing that
    order yields the forward schedule. Zero pivots emit no rotation.
    """
    m = check_orthonormal_columns(coeffs)
    n, eta = m.shape
    if not 1 <= eta <= n:
        raise ValidationError("need an N x eta matrix with eta <= N")
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
    if residual > 1e-9:
        raise DecompositionFailure(
            f"off-pattern residual {residual:.2e} exceeds 1e-09")
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


# -- keyed-branch conversion simulation -----------------------------------


class ConversionRegisters:
    """Joint state of window qubits, the counter, and the eta registers.

    Only the live basis branches are stored, as a struct of arrays with
    one row per branch: ``occupancy`` (bitmask over the eta + 1 window
    slots), ``counter`` (registers written so far), ``labels`` (one row
    of eta register labels, 0 where unwritten) and ``amplitudes``.
    Window slot for orbital o is o mod (eta + 1); a slot is reused only
    after the conversion has provably zeroed it. Every branch places eta
    particles, written ones in ascending order below the next orbital to
    convert, so at most C(N, eta) branches are live.
    """

    def __init__(self, n_orbitals: int, eta: int):
        if not 1 <= eta < n_orbitals:
            raise ValidationError("need 1 <= eta < N")
        self.n_orbitals = n_orbitals
        self.eta = eta
        self.window_slots = eta + 1
        self.counter_width = counter_register_width(eta)
        self.register_qubits = register_qubits(n_orbitals)
        self.register_dim = 2 ** self.register_qubits
        # packed branch key, low bits first: slots, counter, labels
        label_base = self.window_slots + self.counter_width
        if label_base + eta * self.register_qubits > 63:
            raise ValidationError("branch keys do not fit 63 bits")
        self._label_shifts = label_base + self.register_qubits * np.arange(eta)
        # reference: orbitals 0..eta-1 occupied, counter 0, registers 0
        self.occupancy = np.array([sum(1 << self._slot(o) for o in range(eta))],
                                  dtype=np.int64)
        self.counter = np.zeros(1, dtype=np.int64)
        self.labels = np.zeros((1, eta), dtype=np.int64)
        self.amplitudes = np.ones(1, dtype=complex)
        self.converted = 0
        self.ledger = ToffoliLedger()

    def _slot(self, orbital: int) -> int:
        return orbital % self.window_slots

    def window_population(self, orbital: int) -> float:
        """Probability mass with the slot for ``orbital`` in state |1>."""
        on = (self.occupancy & (1 << self._slot(orbital))) != 0
        return float(np.sum(np.abs(self.amplitudes[on]) ** 2))

    def apply_window_rotation(self, rot: GivensRotation) -> None:
        """Number-conserving two-qubit gate on the slots of (a, b).

        The one-particle amplitudes transform by the rotation block with
        |10> (orbital a occupied) as the first component; |00> and |11>
        are untouched (the block has unit determinant). Branches with
        one of the two slots occupied pair up by the rest of their key;
        a missing partner enters with amplitude 0.
        """
        sa, sb = self._slot(rot.orbital_a), self._slot(rot.orbital_b)
        if sa == sb:
            raise ValidationError("rotation maps to a single window slot")
        g = rot.block()
        bit_a, bit_b = 1 << sa, 1 << sb
        pair = self.occupancy & (bit_a | bit_b)
        is_single = (pair == bit_a) | (pair == bit_b)
        single, kept = np.flatnonzero(is_single), np.flatnonzero(~is_single)
        rest = self.occupancy[single] & ~(bit_a | bit_b)
        pair_keys = (rest | (self.counter[single] << self.window_slots)
                     | (self.labels[single] << self._label_shifts).sum(axis=1))
        _, first, inverse = np.unique(pair_keys, return_index=True,
                                      return_inverse=True)
        on_a = pair[single] == bit_a
        amp_a = np.zeros(len(first), dtype=complex)
        amp_b = np.zeros(len(first), dtype=complex)
        amp_a[inverse[on_a]] = self.amplitudes[single[on_a]]
        amp_b[inverse[~on_a]] = self.amplitudes[single[~on_a]]
        rows = np.concatenate([kept, single[first], single[first]])
        self.occupancy = np.concatenate(
            [self.occupancy[kept], rest[first] | bit_a, rest[first] | bit_b])
        self.counter = self.counter[rows]
        self.labels = self.labels[rows]
        self.amplitudes = np.concatenate(
            [self.amplitudes[kept],
             g[0, 0] * amp_a + g[0, 1] * amp_b,
             g[1, 0] * amp_a + g[1, 1] * amp_b])

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
        bit = 1 << self._slot(orbital)
        rows = np.flatnonzero(self.occupancy & bit)
        xi = self.counter[rows]
        full = xi >= self.eta
        written = ~full & (self.labels[rows, np.minimum(xi, self.eta - 1)] != 0)
        free = ~full & ~written
        if validate and np.linalg.norm(self.amplitudes[rows[written]]) > 1e-12:
            raise OrderingViolation(
                f"register {int(xi[written].min()) + 1} already written on an "
                f"occupied branch")
        if np.linalg.norm(self.amplitudes[rows[~free]]) > 1e-12:
            raise OrderingViolation(
                "occupied branch with the counter already at capacity")
        move = rows[free]
        self.labels[move, xi[free]] = orbital
        self.counter[move] += 1
        self.occupancy[move] &= ~bit
        self.converted += 1
        if validate:
            self._check_branch_invariants()
        n_eta = self.counter_width
        self.ledger.charge("register-unary-iteration", self.eta)
        self.ledger.charge("counter-increment", n_eta - 1)
        self.ledger.charge("controlled-counter-iteration", self.eta - 1)
        self.ledger.charge("window-qubit-erasure", self.eta)

    def _check_branch_invariants(self) -> None:
        """Every populated basis branch: counter matches written count and
        register labels are strictly ascending."""
        live = np.abs(self.amplitudes) > 1e-12
        labels = self.labels[live]
        written = np.arange(self.eta) < self.counter[live][:, None]
        if np.any(labels[~written]):
            raise OrderingViolation("label in an unwritten register")
        if np.any(written[:, 1:] & (labels[:, :-1] >= labels[:, 1:])):
            raise OrderingViolation("register labels not strictly ascending")

    def finish(self):
        """Extract the sorted-configuration tensor after full conversion."""
        if self.converted != self.n_orbitals:
            raise ValidationError("conversion incomplete")
        probs = np.abs(self.amplitudes) ** 2
        window_weight = sum(float(np.sum(probs[(self.occupancy & (1 << s)) != 0]))
                            for s in range(self.window_slots))
        if window_weight > 1e-10 ** 2:
            raise ResidualPopulation(
                f"window population {window_weight:.2e} after conversion")
        done = (self.occupancy == 0) & (self.counter == self.eta)
        out = np.zeros((self.register_dim,) * self.eta, dtype=complex)
        np.add.at(out, tuple(self.labels[done].T), self.amplitudes[done])
        return out


@dataclass
class PreparationResult:
    state: FirstQuantizedState
    network: GivensNetwork
    ledger: ToffoliLedger


def prepare_slater(coeffs: np.ndarray, grid=None,
                   validate: bool = False) -> PreparationResult:
    """Run the full pipeline and return the prepared state plus ledger.

    Layers and conversions interleave: layer q is applied just before
    orbital q is converted, so at most eta + 1 window qubits are live.
    """
    n, eta = np.shape(coeffs)
    check_dense_size(n, eta)  # the output state is dense
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
    state = FirstQuantizedState(eta, n, tensor, grid=grid)
    return PreparationResult(state=state, network=network, ledger=regs.ledger)
