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
each one int64 key packing its window occupancy, counter and written
labels: every branch holds eta particles, the written ones in ascending
order, so at most C(N, eta) branches exist and memory is O(C(N, eta))
instead of the 2^(eta+1) 2^n_eta (2^n)^eta amplitudes of the full
register space. The branch set is kept closed and sorted: before a
layer's first rotation each rest of key (counter and labels) gets every
window pattern of its eta - counter particles, at amplitude 0, which
are the C(q + 1 + eta, eta) branches that layer q's rotations reach, and
the keys are sorted. A Givens rotation then creates no branch: adding
bit_b - bit_a to a key keeps the keys' order, so the i-th branch with
only slot a occupied pairs with the i-th with only slot b, checked key
by key, and each pair is mixed in place. A conversion step rewrites keys
in place and so reopens the set. The antisymmetrizing isometry scatters
each finished branch onto the eta! permutations of its labels, so the
output tensor is the only dense array.

Toffoli accounting follows the improved conversion procedure: per
orbital, one simultaneous unary-iteration step on all eta registers
(eta), the counter increment (n_eta - 1), the counter-controlled unary
iteration (eta - 1), and the window-qubit erasure (eta), for a total of
N (3 eta + n_eta - 2) over a full run.
"""

from dataclasses import dataclass, field
import itertools
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
    slater_oracle,
)


# -- Givens network ------------------------------------------------------


@dataclass(frozen=True)
class GivensRotation:
    """Two-orbital rotation: block [[c, -s e^{-i phi}], [s e^{i phi}, c]]."""

    orbital_a: int
    orbital_b: int
    theta: float
    phi: float
    block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Build the block once, read-only, for every reader to share."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        block = np.array([[c, -s * np.exp(-1j * self.phi)],
                          [s * np.exp(1j * self.phi), c]])
        block.flags.writeable = False
        object.__setattr__(self, "block", block)


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
    # rows of Python complex numbers: the 2 x eta updates are scalar
    # arithmetic, cheaper than numpy calls at these sizes
    work = _staircase_gauge(m).tolist()
    layers_reversed = []
    for q in range(n - eta - 1, -1, -1):  # elimination: last layer first
        layer = []
        for i in range(eta):
            row = q + i + 1           # entry (row, i) is eliminated
            upper, lower = work[row - 1], work[row]
            alpha, beta = upper[i], lower[i]
            if abs(beta) < 1e-15:
                continue
            if abs(alpha) < 1e-15:
                theta, phi = math.pi / 2, math.atan2(beta.imag, beta.real)
            else:
                theta = math.atan2(abs(beta), abs(alpha))
                phi = (math.atan2(beta.imag, beta.real)
                       - math.atan2(alpha.imag, alpha.real))
            rot = GivensRotation(row - 1, row, theta, phi)
            # the two rows <- G^dagger times the two rows
            (g00, g01), (g10, g11) = rot.block.conj().tolist()
            work[row - 1] = [g00 * x + g10 * y for x, y in zip(upper, lower)]
            work[row] = [g01 * x + g11 * y for x, y in zip(upper, lower)]
            layer.append(rot)
        layers_reversed.append(tuple(reversed(layer)))
    residual = max((abs(x) for row in work[eta:] for x in row), default=0.0)
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

    Only the live basis branches are stored, and from a layer's first
    rotation on the ones that layer can reach, at amplitude 0, in
    ascending key order: branch i is ``keys[i]``, one int64 packing the
    whole basis state, with amplitude ``amplitudes[i]``. Low bits first, a key holds the eta + 1 window
    slots, then the counter (registers written so far), then the eta
    register label fields, 0 where unwritten. ``occupancy``, ``counter``
    and ``labels`` unpack those fields. Window slot for orbital o is
    o mod (eta + 1); a slot is reused only after the conversion has
    provably zeroed it. Every branch places eta particles, written ones
    in ascending order below the next orbital to convert, so at most
    C(N, eta) branches are live.
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
        label_base = self.window_slots + self.counter_width
        if label_base + eta * self.register_qubits > 63:
            raise ValidationError("branch keys do not fit 63 bits")
        self._label_shifts = label_base + self.register_qubits * np.arange(eta)
        # reference: orbitals 0..eta-1 occupied, counter 0, registers 0
        self.keys = np.array([sum(1 << self._slot(o) for o in range(eta))],
                             dtype=np.int64)
        self.amplitudes = np.ones(1, dtype=complex)
        # row c: the window patterns of eta - c particles, ascending,
        # padded with -1; rows for counters beyond eta are all padding
        rows = [[m for m in range(1 << self.window_slots)
                 if m.bit_count() == eta - c]
                for c in range(1 << self.counter_width)]
        width = max(map(len, rows))
        self._window_patterns = np.array(
            [row + [-1] * (width - len(row)) for row in rows], dtype=np.int64)
        self._closed = False
        self.converted = 0
        self.ledger = ToffoliLedger()

    def _slot(self, orbital: int) -> int:
        return orbital % self.window_slots

    def _counter_of(self, keys: np.ndarray) -> np.ndarray:
        return (keys >> self.window_slots) & ((1 << self.counter_width) - 1)

    def _labels_of(self, keys: np.ndarray) -> np.ndarray:
        return (keys[:, None] >> self._label_shifts) & (self.register_dim - 1)

    @property
    def occupancy(self) -> np.ndarray:
        """Window-slot bitmask of each branch, unpacked from ``keys``."""
        return self.keys & ((1 << self.window_slots) - 1)

    @property
    def counter(self) -> np.ndarray:
        """Registers written on each branch, unpacked from ``keys``."""
        return self._counter_of(self.keys)

    @property
    def labels(self) -> np.ndarray:
        """One row of eta register labels per branch, 0 where unwritten,
        unpacked from ``keys``."""
        return self._labels_of(self.keys)

    def _close(self) -> None:
        """Give every rest-of-key all window patterns of its eta - counter
        particles, at amplitude 0, and sort the keys.

        These are the branches that the rotations of the current layer
        can reach, so after closing a rotation finds every partner in
        the set and creates no key.
        """
        rests = np.sort(self.keys & ~((1 << self.window_slots) - 1))
        rests = rests[np.append(rests[1:] != rests[:-1], True)]
        patterns = self._window_patterns[self._counter_of(rests)]
        keys = (rests[:, None] | patterns)[patterns >= 0]
        at = np.searchsorted(keys, self.keys)
        if (keys.take(at, mode="clip") != self.keys).any():
            raise ValidationError("a branch does not hold eta particles")
        amplitudes = np.zeros(keys.size, dtype=complex)
        amplitudes[at] = self.amplitudes
        self.keys, self.amplitudes = keys, amplitudes
        self._closed = True

    def apply_window_rotation(self, rot: GivensRotation) -> None:
        """Number-conserving two-qubit gate on the slots of (a, b).

        The one-particle amplitudes transform by the rotation block with
        |10> (orbital a occupied) as the first component; |00> and |11>
        are untouched (the block has unit determinant). The first
        rotation of a layer closes the branch set; then each branch with
        only slot a occupied has its partner, the key + bit_b - bit_a, in
        the set, and the pair is mixed in place. A missing partner is
        refused.
        """
        sa, sb = self._slot(rot.orbital_a), self._slot(rot.orbital_b)
        if sa == sb:
            raise ValidationError("rotation maps to a single window slot")
        if not self._closed:
            self._close()
        g = rot.block
        bit_a, bit_b = 1 << sa, 1 << sb
        pair = self.keys & (bit_a | bit_b)
        on_a = np.flatnonzero(pair == bit_a)
        on_b = np.flatnonzero(pair == bit_b)
        # adding bit_b - bit_a to every key keeps their order, so in the
        # closed, sorted set the i-th branch on a pairs with the i-th on b
        if (on_a.size != on_b.size
                or (self.keys[on_b] - self.keys[on_a] != bit_b - bit_a).any()):
            raise ValidationError("a rotated branch has no partner")
        amp_a, amp_b = self.amplitudes[on_a], self.amplitudes[on_b]
        self.amplitudes[on_a] = g[0, 0] * amp_a + g[0, 1] * amp_b
        self.amplitudes[on_b] = g[1, 0] * amp_a + g[1, 1] * amp_b

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
        rows = np.flatnonzero(self.keys & bit)
        keys = self.keys[rows]
        xi = self._counter_of(keys)
        full = xi >= self.eta
        shift = self._label_shifts[np.minimum(xi, self.eta - 1)]
        written = ~full & (((keys >> shift) & (self.register_dim - 1)) != 0)
        free = ~full & ~written
        if validate and np.linalg.norm(self.amplitudes[rows[written]]) > 1e-12:
            raise OrderingViolation(
                f"register {int(xi[written].min()) + 1} already written on an "
                f"occupied branch")
        if np.linalg.norm(self.amplitudes[rows[~free]]) > 1e-12:
            raise OrderingViolation(
                "occupied branch with the counter already at capacity")
        # clear the slot, bump the counter and write the label, in one add
        self.keys[rows[free]] = (keys[free] - bit + (1 << self.window_slots)
                                 + (orbital << shift[free]))
        self.converted += 1
        self._closed = False
        if validate:
            self._check_branch_invariants()
        n_eta = self.counter_width
        self.ledger.charge("register-unary-iteration", self.eta)
        self.ledger.charge("counter-increment", n_eta - 1)
        self.ledger.charge("controlled-counter-iteration", self.eta - 1)
        self.ledger.charge("window-qubit-erasure", self.eta)

    def _check_branch_invariants(self) -> None:
        """Every populated basis branch, read from its packed key: counter
        matches written count and register labels are strictly ascending."""
        keys = self.keys[np.abs(self.amplitudes) > 1e-12]
        counter = np.minimum(self._counter_of(keys), self.eta)
        if (keys >> (self._label_shifts[0] + self.register_qubits * counter)).any():
            raise OrderingViolation("label in an unwritten register")
        field, shifts = self.register_dim - 1, self._label_shifts
        for x in range(1, self.eta):  # registers x - 1 and x, both written
            lower = (keys >> shifts[x - 1]) & field
            if ((counter > x) & (lower >= ((keys >> shifts[x]) & field))).any():
                raise OrderingViolation("register labels not strictly ascending")

    def finish(self) -> np.ndarray:
        """The antisymmetric N^eta block after full conversion.

        Each done branch holds ascending labels s with amplitude a; the
        signed-permutation isometry puts sgn(pi) a / sqrt(eta!) at every
        permutation pi of s. Distinct branches hold distinct label sets,
        so each entry receives exactly one term and the isometry is one
        scatter per permutation, with no dense temporary.
        """
        if self.converted != self.n_orbitals:
            raise ValidationError("conversion incomplete")
        probs = np.abs(self.amplitudes) ** 2
        window_weight = sum(float(np.sum(probs[(self.keys & (1 << s)) != 0]))
                            for s in range(self.window_slots))
        if window_weight > 1e-10 ** 2:
            raise ResidualPopulation(
                f"window population {window_weight:.2e} after conversion")
        done = (self.occupancy == 0) & (self.counter == self.eta)
        labels = self._labels_of(self.keys[done]).T
        values = self.amplitudes[done] / math.sqrt(math.factorial(self.eta))
        # 0 - v, not -v: a zero part comes out +0, as from dense subtraction
        signed = {1: values, -1: 0 - values}
        dim = self.n_orbitals
        # place[x][y]: the flat-index term of label y read by register x
        place = [[row * dim ** (self.eta - 1 - x) for row in labels]
                 for x in range(self.eta)]
        out = np.zeros(dim ** self.eta, dtype=complex)
        for perm in itertools.permutations(range(self.eta)):
            flat = sum(place[x][y] for x, y in enumerate(perm))
            out[flat] = signed[_permutation_sign(perm)]
        return out.reshape((dim,) * self.eta)


def _permutation_sign(perm) -> int:
    """+1 for an even permutation of 0..len-1, -1 for an odd one."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


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
    state = FirstQuantizedState(eta, n, regs.finish(), grid=grid)
    return PreparationResult(state=state, network=network, ledger=regs.ledger)


def verify_preparation(coeffs: np.ndarray,
                       result: PreparationResult) -> tuple[float, bool]:
    """The prepared state's overlap modulus with the Slater oracle of
    ``coeffs``, and whether its ledger total equals the closed form
    ``toffoli_count(N, eta, "improved")``."""
    n, eta = np.shape(coeffs)
    overlap = abs(result.state.overlap(slater_oracle(coeffs)))
    return overlap, result.ledger.total == toffoli_count(n, eta, "improved")
