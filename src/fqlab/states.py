"""Dense first-quantized fermionic states and brute-force oracles.

A state over ``eta`` particles is stored as its N^eta block, one axis
per register. A register is n = ceil(log2 N) qubits; its padding labels
N..2**n - 1 are not stored, and appear only where qubits do: a register
Clifford's first N columns and an FQS1 snapshot's (2**n)^eta tensor.
Registers are numbered 1..eta in the public API, orbital/grid labels
are 0-based.

Everything here is exact and O(dimension), intended as the ground truth
the other modules are validated against.
"""

from itertools import combinations, repeat
import math
import os
import struct

import numpy as np

from .errors import (
    BruteForceLimitExceeded,
    DuplicateRegister,
    IndexOutOfRange,
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
# Entries per slab of a slab-by-slab read: its temporaries stay this small
SLAB_ENTRIES = 2 ** 14


def _squared_norm(amplitudes: np.ndarray) -> float:
    """sum |a|^2: one real dot product over the interleaved real and
    imaginary parts, copying only an array that is not contiguous."""
    flat = np.ravel(amplitudes, order="K").astype(complex, copy=False)
    parts = flat.view(np.float64)
    return float(parts @ parts)


def check_unit_norm(amplitudes: np.ndarray) -> None:
    """Raise unless the 2-norm of ``amplitudes`` is 1 within NORM_TOL (a
    NaN or Inf amplitude makes it NaN or Inf, which fails the test)."""
    if not abs(math.sqrt(_squared_norm(amplitudes)) - 1.0) <= NORM_TOL:
        raise ValidationError("state must be normalized within 1e-12")


def slabs(shape):
    """Slices of the leading axis of an array of ``shape``, in order, each
    of at most SLAB_ENTRIES entries or one row: the reads that must not
    form a temporary of the array's size take it a slab at a time."""
    rows = max(1, SLAB_ENTRIES // math.prod(shape[1:]))
    for lo in range(0, shape[0], rows):
        yield slice(lo, min(lo + rows, shape[0]))


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

    ``unitaries`` has shape (..., tensor.ndim, d, N), N the length of
    every axis of ``tensor`` (d = N for square unitaries); its leading
    dimensions are a batch, so the result has shape batch + (d,) * ndim.
    Each step is one (batched) matmul that contracts the leading axis and
    appends its image as the last axis, so after one step per axis the
    axes are back in order. The transposes are views the matmul reads as
    such, and a broadcast stack is read without a copy.
    """
    batch = unitaries.shape[:-3]
    dim, labels = unitaries.shape[-2:]
    out = tensor.reshape(labels, -1).T
    for x in range(tensor.ndim):
        if x:
            out = out.reshape(batch + (labels, -1)).swapaxes(-1, -2)
        out = out @ unitaries[..., x, :, :].swapaxes(-1, -2)
    return out.reshape(batch + (dim,) * tensor.ndim)


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

    Sample b applies ``unitaries[b, x]`` (shape (B, ndim, d, N); the
    identity when omitted) to axis x of ``tensor`` and measures all
    registers. Its outcome is the joint row-major inverse CDF at
    ``uniforms[b]`` in [0, 1), drawn by the chain rule, one register at a
    time: the label of register x is the inverse CDF of its marginal in
    the slice of the labels already drawn, at what is left of the uniform
    scaled by the total.

    Level 1 reads every sample's register-1 marginals from one factor W
    of the tensor (:func:`register_factor`, formed once per call): the
    weight of label a is the squared norm of row a of U_1 W, all rows of
    all samples in one GEMM. Only the drawn row U_1[b_1, :] then meets
    the tensor, in one (B x N) @ (N x N^(ndim-1)) GEMM, and each later
    level applies the next unitary to the live slice alone: no sample
    holds N^ndim amplitudes. A label of probability zero is never drawn,
    also when rounding puts the remaining target past the end of a level.
    """
    batch, labels = len(uniforms), tensor.shape[0]
    flat = np.ascontiguousarray(tensor).reshape(labels, -1)
    if unitaries is None:
        unitaries = np.broadcast_to(np.eye(labels, dtype=complex),
                                    (batch, tensor.ndim, labels, labels))
    dim = unitaries.shape[-2]
    live = unitaries[:, 0].reshape(-1, labels) @ register_factor(flat)
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
            live = unitaries[:, x] @ live.reshape(batch, labels, -1)
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


def check_budget(what: str, factors) -> None:
    """Refuse ``what`` when the product of ``factors`` exceeds
    BRUTE_FORCE_AMPLITUDES, the one entry budget of the dense regime. The
    product stops growing once it passes the budget, so a long run of
    factors forms no huge number."""
    entries = 1
    for factor in factors:
        entries *= factor
        if entries > BRUTE_FORCE_AMPLITUDES:
            raise BruteForceLimitExceeded(
                f"{what} would hold more than the {BRUTE_FORCE_AMPLITUDES} "
                f"entries of the dense regime")


def check_dense_size(n_orbitals: int, eta: int) -> None:
    """Refuse eta < 1, N < 2, or N^eta amplitudes beyond the dense regime."""
    if eta < 1:
        raise ValidationError("eta must be >= 1")
    if n_orbitals < 2:
        raise ValidationError("need at least two orbitals per register")
    check_budget(f"{eta} registers of {n_orbitals} orbitals",
                 repeat(n_orbitals, eta))


def check_labels(bra_labels, ket_labels, eta: int, dim: int,
                 k: int | None = None) -> None:
    """Refuse bra and ket of unequal length, of a length outside 1..eta or
    other than ``k`` when given, and a label not an integer in 0..dim-1."""
    order = len(bra_labels)
    if len(ket_labels) != order or not 1 <= order <= eta or k not in (None, order):
        raise ValidationError(
            f"element {tuple(bra_labels)}, {tuple(ket_labels)}: bra and ket need "
            f"one length in 1..{eta}" + (f", equal to k = {k}" if k else ""))
    labels = (*bra_labels, *ket_labels)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               and 0 <= v < dim for v in labels):
        raise IndexOutOfRange(f"orbital labels {labels} must be integers in "
                              f"0..{dim - 1}")


class FirstQuantizedState:
    """Complex amplitudes over ``eta`` registers, as their N^eta block.

    Parameters
    ----------
    eta:
        Particle count (>= 1).
    n_orbitals:
        Number N of orbital labels per register; the padding labels of
        its n = ceil(log2 N) qubits are not stored.
    tensor:
        Complex array of shape (N,)*eta with register 1 on axis 0.
    grid:
        Optional grid the orbital labels refer to. Required for file I/O
        and the Hamiltonian modules; shadow and preparation tests may use
        bare orbital spaces.
    """

    def __init__(self, eta, n_orbitals, tensor, grid: GridSpec | None = None):
        check_dense_size(n_orbitals, eta)
        if grid is not None and grid.total_points != n_orbitals:
            raise ValidationError("grid size does not match n_orbitals")
        self.eta = int(eta)
        self.n_orbitals = int(n_orbitals)
        self.qubits_per_register = register_qubits(n_orbitals)
        self.register_dim = 2 ** self.qubits_per_register
        tensor = np.asarray(tensor, dtype=complex)
        if tensor.shape != (self.n_orbitals,) * eta:
            raise ValidationError(
                f"tensor shape {tensor.shape} != {(self.n_orbitals,) * eta}")
        self.tensor = tensor
        self.grid = grid
        check_unit_norm(self.tensor)

    # -- basics ---------------------------------------------------------

    @property
    def amplitudes(self) -> np.ndarray:
        """Flat view, register 1 most significant."""
        return self.tensor.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    def copy_with(self, tensor):
        return FirstQuantizedState(self.eta, self.n_orbitals, tensor, grid=self.grid)

    def overlap(self, other: "FirstQuantizedState") -> complex:
        return complex(np.vdot(self.tensor, other.tensor))

    def is_antisymmetric(self, tol: float = 1e-10) -> bool:
        """Check the exchange invariant on adjacent register swaps, a slab
        of register 1's labels at a time: no temporary is the tensor's size.
        For the swap of registers 1 and 2 the slab's partner holds the same
        labels of register 2."""
        tensor = self.tensor
        for rows in slabs(tensor.shape):
            slab = tensor[rows]
            for j in range(self.eta - 1):
                swapped = (np.swapaxes(tensor[:, rows], 0, 1) if j == 0
                           else np.swapaxes(slab, j, j + 1))
                if np.max(np.abs(swapped + slab)) > tol:
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
        tensor = np.zeros((n_orbitals,) * eta, dtype=complex)
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
    (N, eta) coefficient matrix; N is its row count. The determinant is
    built and antisymmetrized as each orbital joins the product.
    """
    if not isinstance(orbitals, np.ndarray):
        orbitals = np.stack(list(orbitals), axis=1)
    coeff = check_orthonormal_columns(orbitals, grid)
    n_orbitals, eta = coeff.shape
    check_dense_size(n_orbitals, eta)
    acc = np.ones((), dtype=complex)
    for b in range(eta):  # antisymmetrized as each orbital joins the product
        acc = np.multiply.outer(acc, coeff[:, b])
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

    ``register`` is 1-based and ``unitary`` N x N. A register-local op
    generically breaks exchange symmetry, so the result is rarely antisymmetric.
    """
    if not 1 <= register <= state.eta:
        raise ValidationError(f"register {register} out of range 1..{state.eta}")
    try:
        u = check_orthonormal_columns(unitary)
    except NonOrthonormalInput as exc:
        raise NonUnitary(f"U is not unitary: {exc}") from exc
    n = state.n_orbitals
    if u.shape != (n, n):
        raise ValidationError(f"unitary must be {n}x{n}")
    stack = [u if x == register - 1 else np.eye(n) for x in range(state.eta)]
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
    holds the i's and ``ket_labels`` the j's, labels in 0..N-1.
    """
    regs = tuple(int(x) for x in registers)
    check_labels(bra_labels, ket_labels, state.eta, state.n_orbitals, len(regs))
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
    if check and not state.is_antisymmetric():
        raise NotAntisymmetric("k-RDM requires an antisymmetric state")
    k = len(bra_labels)
    return math.perm(state.eta, k) * transition_expectation(
        state, range(1, k + 1), bra_labels, ket_labels)


def exact_1rdm(state: FirstQuantizedState) -> np.ndarray:
    """Full one-particle RDM, shape (n_orbitals, n_orbitals)."""
    if not state.is_antisymmetric():
        raise NotAntisymmetric("1-RDM requires an antisymmetric state")
    n = state.n_orbitals
    rdm = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            rdm[i, j] = exact_krdm_element(state, (i,), (j,), check=False)
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
    """Write the FQS1 binary snapshot (header + little-endian complex128).

    The file holds the padded (2^n)^eta tensor, written a slab at a time:
    zeros with the block's rows placed in them.
    """
    if state.grid is None:
        raise ValidationError("snapshot format requires a grid-backed state")
    header = _HEADER.pack(SNAPSHOT_MAGIC, state.grid.dim,
                          state.grid.points_per_axis,
                          float(state.grid.cell_volume), state.eta)
    shape = (state.register_dim,) * state.eta
    with open(path, "wb") as fh:
        fh.write(header)
        for rows in slabs(shape):
            block = state.tensor[rows]
            slab = np.zeros((rows.stop - rows.start,) + shape[1:], dtype="<c16")
            slab[tuple(map(slice, block.shape))] = block
            fh.write(slab.data)


def load_state(path) -> FirstQuantizedState:
    """Read a FQS1 snapshot back into a state.

    The header is checked in full, and the amplitude count it implies is
    checked against the dense regime and the file size, before any
    amplitude is read. The padded tensor is then read a slab at a time
    into the N^eta block the state holds, and refused if its padding has
    a squared norm above 1e-24: the one place padded data enters.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValidationError("snapshot header truncated")
        magic, dim, points, volume, eta = _HEADER.unpack(raw)
        if magic != SNAPSHOT_MAGIC:
            raise ValidationError(f"bad snapshot magic {magic!r}")
        grid = GridSpec(dim=dim, points_per_axis=points, cell_volume=volume)
        n = grid.total_points
        check_dense_size(n, eta)
        shape = (2 ** grid.qubits_per_register,) * eta
        size = math.prod(shape) * 16
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != size:
            raise ValidationError(
                f"snapshot holds {body} amplitude bytes, its header implies {size}")
        tensor, padding = np.zeros((n,) * eta, dtype=complex), 0.0
        for rows in slabs(shape):
            part = (rows.stop - rows.start,) + shape[1:]
            slab = np.fromfile(fh, dtype="<c16", count=math.prod(part))
            if slab.size != math.prod(part):
                raise ValidationError("snapshot ended before its amplitudes did")
            slab, block = slab.reshape(part), tensor[rows]
            where = tuple(map(slice, block.shape))  # the block's rows
            block[...] = slab[where]
            slab[where] = 0
            padding += _squared_norm(slab)
    if not padding <= 1e-24:  # NaN included
        raise ValidationError("nonzero amplitude on padded orbital labels")
    return FirstQuantizedState(eta, n, tensor, grid=grid)
