"""Dense first-quantized fermionic states and brute-force oracles.

A state over ``eta`` particles is stored as a complex tensor with one
axis per particle register. Each register has dimension 2**n with
n = ceil(log2(n_orbitals)); amplitudes on padded indices (>= n_orbitals)
are identically zero. Registers are numbered 1..eta in the public API,
orbital/grid labels are 0-based.

Everything here is exact and O(dimension), intended as the ground truth
the other modules are validated against.
"""

from itertools import combinations
import math
import os
import struct

import numpy as np

from .errors import (
    BruteForceLimitExceeded,
    DuplicateRegister,
    NonOrthonormalInput,
    NonUnitary,
    NotAntisymmetric,
    ValidationError,
    ZeroProjection,
)
from .grids import GridSpec, register_qubits

BRUTE_FORCE_AMPLITUDES = 2 ** 24
NORM_TOL = 1e-12
ORTHONORMAL_TOL = 1e-8
SNAPSHOT_MAGIC = b"FQS1"


def check_unit_norm(amplitudes: np.ndarray) -> None:
    """Raise unless the 2-norm of ``amplitudes`` is 1 within NORM_TOL.

    The squared norm is one real dot product over the interleaved real
    and imaginary parts (a NaN or Inf amplitude makes it NaN or Inf,
    which fails the test).
    """
    flat = np.ravel(amplitudes, order="K").astype(complex, copy=False)
    parts = flat.view(np.float64)
    if not abs(math.sqrt(parts @ parts) - 1.0) <= NORM_TOL:
        raise ValidationError("state must be normalized within 1e-12")


def _antisymmetrize_axis(tensor: np.ndarray, k: int) -> np.ndarray:
    """``tensor`` minus its swaps of axis k with each earlier axis, as a new
    array: the signed permutation sum over axes 0..k of a tensor that is
    antisymmetric in axes 0..k-1, since the transpositions (j, k), j < k,
    and the identity are coset representatives of S_k in S_{k+1}."""
    out = tensor - np.swapaxes(tensor, 0, k)
    for j in range(1, k):
        out -= np.swapaxes(tensor, j, k)
    return out


def signed_permutation_sum(tensor: np.ndarray) -> np.ndarray:
    """Sum over axis permutations pi of sgn(pi) * transpose(tensor, pi), as a
    new array: eta(eta-1)/2 strided subtractions instead of eta! transposes."""
    acc = tensor if tensor.ndim > 1 else tensor.copy()
    for k in range(1, tensor.ndim):
        acc = _antisymmetrize_axis(acc, k)
    return acc


def contract_registers(tensor: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Apply ``unitaries[..., x, :, :]`` to axis x of ``tensor``.

    ``unitaries`` has shape (..., tensor.ndim, d, d); its leading
    dimensions are a batch, so the result has shape batch + tensor.shape.
    Each step is one (batched) matmul that contracts the leading axis and
    appends its image as the last axis, so after one step per axis the
    axes are back in order. The transposes are views the matmul reads as
    such, and a broadcast stack is read without a copy.
    """
    batch = unitaries.shape[:-3]
    dim = unitaries.shape[-1]
    out = tensor.reshape(dim, -1).T
    for x in range(tensor.ndim):
        if x:
            out = out.reshape(batch + (dim, -1)).swapaxes(-1, -2)
        out = out @ unitaries[..., x, :, :].swapaxes(-1, -2)
    return out.reshape(batch + tensor.shape)


def register_factor(tensor: np.ndarray) -> np.ndarray:
    """A d x d' factor W of register 1's Gram matrix, d' <= d: W W† =
    flat flat†, where flat is ``tensor`` unfolded as d x d^(ndim-1).

    W is flat itself when it has at most d columns (ndim <= 2), else the
    conjugate transpose of the R of a Householder QR of flat†. Either
    way a zero row of flat stays zero in W: a padding label keeps weight
    exactly 0.
    """
    flat = tensor.reshape(tensor.shape[0], -1)
    if flat.shape[1] <= flat.shape[0]:
        return flat
    return np.linalg.qr(flat.conj().T, mode="r").conj().T


def sample_registers(tensor: np.ndarray, uniforms: np.ndarray,
                     unitaries: np.ndarray | None = None) -> np.ndarray:
    """Born outcomes of measuring every register, one row per uniform.

    Sample b applies ``unitaries[b, x]`` (shape (B, ndim, d, d); the
    identity when omitted) to axis x of ``tensor`` and measures all
    registers. Its outcome is the joint row-major inverse CDF at
    ``uniforms[b]`` in [0, 1), drawn by the chain rule, one register at a
    time: the label of register x is the inverse CDF of its marginal in
    the slice of the labels already drawn, at what is left of the
    uniform scaled by the total.

    Level 1 reads every sample's register-1 marginals from one factor W
    of the tensor (:func:`register_factor`, formed once per call): the
    weight of label a is the squared norm of row a of U_1 W, all rows of
    all samples in one GEMM. Only the drawn row U_1[b_1, :] then meets
    the tensor, in one (B x d) @ (d x d^(ndim-1)) GEMM, and each later
    level applies the next unitary to the live slice alone: no sample
    holds d^ndim amplitudes. A label of probability zero is never drawn,
    also when rounding puts the remaining target past the end of a level.
    """
    batch, dim = len(uniforms), tensor.shape[0]
    flat = np.ascontiguousarray(tensor).reshape(dim, -1)
    if unitaries is None:
        unitaries = np.broadcast_to(np.eye(dim, dtype=complex),
                                    (batch, tensor.ndim, dim, dim))
    live = unitaries[:, 0].reshape(-1, dim) @ register_factor(flat)
    live = live.reshape(batch, dim, -1)
    # cdf[a, b] is the weight of the labels below a in sample b's slice
    cdf = np.zeros((dim + 1, batch))
    picks = np.arange(batch)
    outcomes = np.empty((batch, tensor.ndim), dtype=np.int64)
    for x in range(tensor.ndim):
        if x == 1:
            live = unitaries[picks, 0, outcomes[:, 0]] @ flat
        elif x:
            live = live[picks, outcomes[:, x - 1]]
        if x:
            live = unitaries[:, x] @ live.reshape(batch, dim, -1)
        parts = live.view(np.float64)  # |amplitude|^2 = re^2 + im^2
        weights = np.einsum("bij,bij->ib", parts, parts)
        for a in range(dim):  # d row adds; np.cumsum here measured slower
            np.add(cdf[a], weights[a], out=cdf[a + 1])
        if not x:
            target = uniforms * cdf[-1]
        # past the end only by rounding: the label where the total is reached
        target = np.minimum(target, np.nextafter(cdf[-1], -1))
        label = (cdf[1:] <= target).sum(axis=0)
        target = target - cdf[label, picks]
        outcomes[:, x] = label
    return outcomes


def check_orthonormal_columns(coeffs, grid: GridSpec | None = None) -> np.ndarray:
    """``coeffs`` as a complex (N, eta) array with orthonormal columns.

    Refused (NonOrthonormalInput): not 2-D, N other than ``grid``'s point
    count, a non-finite entry or one of modulus above 1 + ORTHONORMAL_TOL
    (both tested before the Gram product, which they could overflow), and
    max |C^H C - I| not within ORTHONORMAL_TOL.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2:
        raise NonOrthonormalInput(f"coefficients of shape {c.shape} are not N x eta")
    if grid is not None and len(c) != grid.total_points:
        raise NonOrthonormalInput(f"coefficients have {len(c)} rows for "
                                  f"{grid.total_points} grid points")
    if not np.all(np.isfinite(c)):
        raise NonOrthonormalInput("coefficients hold a non-finite value")
    largest = np.abs(c).max(initial=0.0)
    if not largest <= 1.0 + ORTHONORMAL_TOL:
        raise NonOrthonormalInput(
            f"columns not orthonormal: an entry has modulus {largest:.3g} > 1")
    residual = np.abs(c.conj().T @ c - np.eye(c.shape[1])).max(initial=0.0)
    if not residual <= ORTHONORMAL_TOL:
        raise NonOrthonormalInput(f"columns not orthonormal: max |C^H C - I| = "
                                  f"{residual:.3g} > {ORTHONORMAL_TOL:g}")
    return c


def check_dense_size(n_orbitals: int, eta: int) -> None:
    """Refuse a state whose stored (2^n)^eta amplitudes exceed the dense regime.

    The budget is a power of two, so comparing the exponent n * eta with
    its log2 is exact and forms no huge power.
    """
    n = register_qubits(n_orbitals)
    if n * eta > BRUTE_FORCE_AMPLITUDES.bit_length() - 1:
        raise BruteForceLimitExceeded(
            f"{eta} registers of {n} qubits hold 2^{n * eta} amplitudes, "
            f"above the dense regime ({BRUTE_FORCE_AMPLITUDES})")


class FirstQuantizedState:
    """Complex amplitudes over ``eta`` registers of n qubits each.

    Parameters
    ----------
    eta:
        Particle count (>= 1).
    n_orbitals:
        Number of valid orbital labels per register; labels >= n_orbitals
        are padding and must carry zero amplitude.
    tensor:
        Complex array of shape (2**n,)*eta with register 1 on axis 0.
    grid:
        Optional grid the orbital labels refer to. Required for file I/O
        and the Hamiltonian modules; shadow and preparation tests may use
        bare orbital spaces.
    """

    def __init__(self, eta, n_orbitals, tensor, grid: GridSpec | None = None):
        if eta < 1:
            raise ValidationError("eta must be >= 1")
        if n_orbitals < 2:
            raise ValidationError("need at least two orbitals per register")
        if grid is not None and grid.total_points != n_orbitals:
            raise ValidationError("grid size does not match n_orbitals")
        check_dense_size(n_orbitals, eta)
        self.eta = int(eta)
        self.n_orbitals = int(n_orbitals)
        self.qubits_per_register = register_qubits(n_orbitals)
        self.register_dim = 2 ** self.qubits_per_register
        tensor = np.asarray(tensor, dtype=complex)
        if tensor.shape != (self.register_dim,) * eta:
            raise ValidationError(
                f"tensor shape {tensor.shape} != {(self.register_dim,) * eta}")
        self.tensor = tensor
        self.grid = grid
        if self._padding_weight() > 1e-24:
            raise ValidationError("nonzero amplitude on padded orbital labels")
        check_unit_norm(self.tensor)

    # -- basics ---------------------------------------------------------

    @property
    def amplitudes(self) -> np.ndarray:
        """Flat view, register 1 most significant."""
        return self.tensor.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    def _padding_weight(self) -> float:
        if self.register_dim == self.n_orbitals:
            return 0.0
        probs = np.abs(self.tensor) ** 2
        probs[(slice(0, self.n_orbitals),) * self.eta] = 0.0
        return float(np.sum(probs))

    def copy_with(self, tensor):
        return FirstQuantizedState(self.eta, self.n_orbitals, tensor, grid=self.grid)

    def overlap(self, other: "FirstQuantizedState") -> complex:
        return complex(np.vdot(self.tensor, other.tensor))

    def is_antisymmetric(self, tol: float = 1e-10) -> bool:
        """Check the exchange invariant on adjacent register swaps."""
        for j in range(self.eta - 1):
            swapped = np.swapaxes(self.tensor, j, j + 1)
            if np.max(np.abs(swapped + self.tensor)) > tol:
                return False
        return True

    @property
    def antisymmetric(self) -> bool:
        """:meth:`is_antisymmetric` at its default tolerance, read from the
        amplitudes on every access."""
        return self.is_antisymmetric()

    @staticmethod
    def from_basis(eta, n_orbitals, labels, grid=None):
        """Computational basis state |p_1,...,p_eta>."""
        tensor = np.zeros((2 ** register_qubits(n_orbitals),) * eta, dtype=complex)
        labels = tuple(int(p) for p in labels)
        if len(labels) != eta or any(not 0 <= p < n_orbitals for p in labels):
            raise ValidationError(f"bad basis labels {labels}")
        tensor[labels] = 1.0
        return FirstQuantizedState(eta, n_orbitals, tensor, grid=grid)


# -- operations ---------------------------------------------------------


def antisymmetrize(state: FirstQuantizedState) -> FirstQuantizedState:
    """Project onto the antisymmetric subspace and renormalize.

    Raises ZeroProjection when the antisymmetric component is numerically
    zero (for example a doubly occupied configuration).
    """
    acc = signed_permutation_sum(state.tensor)
    acc /= math.factorial(state.eta)
    nrm = np.linalg.norm(acc)
    if nrm < 1e-12:
        raise ZeroProjection("antisymmetric component has norm < 1e-12")
    return state.copy_with(acc / nrm)


def slater_oracle(orbitals, grid: GridSpec | None = None) -> FirstQuantizedState:
    """Slater determinant of mutually orthonormal orbitals.

    The amplitude at (p_1,...,p_eta) is det[phi_a(p_b)] / sqrt(eta!).
    Columns that :func:`check_orthonormal_columns` accepts may be up to
    ORTHONORMAL_TOL from orthonormal, which can leave that norm off 1 by
    more than NORM_TOL; the amplitudes are then divided by their computed
    norm as well. ``orbitals`` may be a list of orbital vectors or an
    (N, eta) coefficient matrix; N is its row count.
    """
    if not isinstance(orbitals, np.ndarray):
        orbitals = np.stack(list(orbitals), axis=1)
    coeff = check_orthonormal_columns(orbitals, grid)
    n_orbitals, eta = coeff.shape
    check_dense_size(n_orbitals, eta)
    padded = np.pad(coeff, ((0, 2 ** register_qubits(n_orbitals) - n_orbitals), (0, 0)))
    acc = np.ones((), dtype=complex)
    for b in range(eta):  # antisymmetrized as each orbital joins the product
        acc = np.multiply.outer(acc, padded[:, b])
        if b:
            acc = _antisymmetrize_axis(acc, b)
    acc /= math.sqrt(math.factorial(eta))
    norm = np.linalg.norm(acc)
    if not abs(norm - 1.0) <= NORM_TOL:
        acc /= norm
    return FirstQuantizedState(eta, n_orbitals, acc, grid=grid)


def apply_register_unitary(state: FirstQuantizedState, register: int,
                           unitary: np.ndarray) -> FirstQuantizedState:
    """Apply a register-local unitary (I x ... x U x ... x I).

    ``register`` is 1-based. A register-local operation generically
    breaks exchange symmetry, so the result is rarely antisymmetric.
    """
    if not 1 <= register <= state.eta:
        raise ValidationError(f"register {register} out of range 1..{state.eta}")
    try:
        u = check_orthonormal_columns(unitary)
    except NonOrthonormalInput as exc:
        raise NonUnitary(f"U is not unitary: {exc}") from exc
    d = state.register_dim
    if u.shape != (d, d):
        raise ValidationError(f"unitary must be {d}x{d}")
    stack = [u if x == register - 1 else np.eye(d) for x in range(state.eta)]
    out = contract_registers(state.tensor, np.array(stack))  # complex, as u
    return state.copy_with(out)


def measure_all(state: FirstQuantizedState, rng: np.random.Generator):
    """Sample a joint computational-basis outcome (p_1,...,p_eta)."""
    outcome = sample_registers(state.tensor, rng.random(1))[0]
    return tuple(int(i) for i in outcome)


def transition_expectation(state: FirstQuantizedState, registers, bra_labels,
                           ket_labels) -> complex:
    """<psi| prod_l |i_l><j_l|_{x_l} |psi> computed exactly.

    ``registers`` are distinct 1-based register indices; ``bra_labels``
    holds the i's and ``ket_labels`` the j's.
    """
    regs = tuple(int(x) for x in registers)
    if len(set(regs)) != len(regs):
        raise DuplicateRegister(f"registers {regs} contain duplicates")
    if any(not 1 <= x <= state.eta for x in regs):
        raise ValidationError("register index out of range")
    bra_idx = [slice(None)] * state.eta
    ket_idx = [slice(None)] * state.eta
    for x, i, j in zip(regs, bra_labels, ket_labels):
        bra_idx[x - 1] = int(i)
        ket_idx[x - 1] = int(j)
    bra = state.tensor[tuple(bra_idx)]
    ket = state.tensor[tuple(ket_idx)]
    return complex(np.vdot(bra, ket))


def exact_krdm_element(state: FirstQuantizedState, bra_labels, ket_labels,
                       check: bool = True) -> complex:
    """k-RDM element: eta!/(eta-k)! times the k-register transition value.

    The transition operators act on registers 1..k; antisymmetry makes the
    register choice immaterial and is verified unless ``check`` is False.
    """
    k = len(bra_labels)
    if k != len(ket_labels) or k > state.eta:
        raise ValidationError("label tuples must have equal length k <= eta")
    if check and not state.is_antisymmetric():
        raise NotAntisymmetric("k-RDM requires an antisymmetric state")
    factor = math.factorial(state.eta) // math.factorial(state.eta - k)
    return factor * transition_expectation(
        state, range(1, k + 1), bra_labels, ket_labels)


def exact_1rdm(state: FirstQuantizedState) -> np.ndarray:
    """Full one-particle RDM, shape (n_orbitals, n_orbitals)."""
    n = state.n_orbitals
    rdm = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            rdm[i, j] = exact_krdm_element(state, (i,), (j,), check=False)
    if not state.is_antisymmetric():
        raise NotAntisymmetric("1-RDM requires an antisymmetric state")
    return rdm


# -- first/second quantization correspondence ---------------------------


def _occupation_coefficients(state: FirstQuantizedState) -> dict:
    """Map sorted occupation tuples to second-quantized coefficients.

    For an antisymmetric state the coefficient of the occupation set
    {s_1 < ... < s_eta} is sqrt(eta!) * psi[s_1,...,s_eta] with the
    ascending-order phase convention.
    """
    root = math.sqrt(math.factorial(state.eta))
    coeffs = {}
    for occ in combinations(range(state.n_orbitals), state.eta):
        c = state.tensor[occ] * root
        if abs(c) > 0:
            coeffs[occ] = complex(c)
    return coeffs


def _apply_creation_annihilation(coeffs: dict, p: int, q: int) -> dict:
    """Apply a_p† a_q to occupation-basis coefficients with parity signs."""
    out: dict = {}
    for occ, c in coeffs.items():
        if q not in occ:
            continue
        sign = (-1) ** occ.index(q)  # electrons before q in ascending order
        rest = tuple(o for o in occ if o != q)
        if p in rest:
            continue
        new = tuple(sorted(rest + (p,)))
        sign *= (-1) ** new.index(p)  # electrons before p after reinsertion
        out[new] = out.get(new, 0.0) + sign * c
    return {occ: c for occ, c in out.items() if abs(c) > 0}


def first_second_equivalence_check(state: FirstQuantizedState, p: int,
                                   q: int) -> bool:
    """Compare sum_j |p><q|_j against the mapped image of a_p† a_q.

    The first-quantized side applies the transition operator summed over
    registers; the second-quantized side maps the state to occupation
    coefficients (ascending-order convention), applies a_p† a_q with
    fermionic parity signs, and maps back. Returns True when the two
    resulting vectors agree within 1e-10.
    """
    if state.eta > 3 or state.n_orbitals > 8:
        raise BruteForceLimitExceeded("equivalence check limited to eta<=3, N<=8")
    if not state.is_antisymmetric():
        raise NotAntisymmetric("equivalence check needs an antisymmetric state")
    # First-quantized side: sum over registers of |p><q| on that register.
    fq = np.zeros_like(state.tensor)
    for j in range(state.eta):
        idx_src = [slice(None)] * state.eta
        idx_src[j] = q
        idx_dst = [slice(None)] * state.eta
        idx_dst[j] = p
        fq[tuple(idx_dst)] += state.tensor[tuple(idx_src)]
    # Second-quantized side, mapped back to register space.
    coeffs = _apply_creation_annihilation(_occupation_coefficients(state), p, q)
    sorted_occ = np.zeros_like(state.tensor)
    root = math.sqrt(math.factorial(state.eta))
    for occ, c in coeffs.items():
        sorted_occ[occ] = c / root
    sq = signed_permutation_sum(sorted_occ)
    return bool(np.max(np.abs(fq - sq)) <= 1e-10)


# -- binary snapshot format ---------------------------------------------

_HEADER = struct.Struct("<4sBIdI")


def save_state(path, state: FirstQuantizedState) -> None:
    """Write the FQS1 binary snapshot (header + little-endian complex128)."""
    if state.grid is None:
        raise ValidationError("snapshot format requires a grid-backed state")
    header = _HEADER.pack(SNAPSHOT_MAGIC, state.grid.dim,
                          state.grid.points_per_axis,
                          float(state.grid.cell_volume), state.eta)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.amplitudes, dtype="<c16").tobytes())


def load_state(path) -> FirstQuantizedState:
    """Read a FQS1 snapshot back into a state.

    The header is checked in full, and the amplitude count it implies is
    checked against the dense regime and the file size, before any
    amplitude is read.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValidationError("snapshot header truncated")
        magic, dim, points, volume, eta = _HEADER.unpack(raw)
        if magic != SNAPSHOT_MAGIC:
            raise ValidationError(f"bad snapshot magic {magic!r}")
        grid = GridSpec(dim=dim, points_per_axis=points, cell_volume=volume)
        check_dense_size(grid.total_points, eta)
        reg = 2 ** grid.qubits_per_register
        size = reg ** eta * 16
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != size:
            raise ValidationError(
                f"snapshot holds {body} amplitude bytes, its header implies {size}")
        amps = np.frombuffer(fh.read(size), dtype="<c16").astype(complex)
    return FirstQuantizedState(eta, grid.total_points, amps.reshape((reg,) * eta),
                               grid=grid)
