"""Dense first-quantized fermionic states and brute-force oracles.

A state over ``eta`` particles is stored as a complex tensor with one
axis per particle register. Each register has dimension 2**n with
n = ceil(log2(n_orbitals)); amplitudes on padded indices (>= n_orbitals)
are identically zero. Registers are numbered 1..eta in the public API,
orbital/grid labels are 0-based.

Everything here is exact and O(dimension), intended as the ground truth
the other modules are validated against.
"""

from dataclasses import dataclass
from itertools import combinations, permutations
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
SNAPSHOT_MAGIC = b"FQS1"


def check_unit_norm(amplitudes: np.ndarray) -> None:
    """Raise unless the 2-norm of ``amplitudes`` is 1 within NORM_TOL."""
    if not abs(np.linalg.norm(amplitudes) - 1.0) <= NORM_TOL:
        raise ValidationError("state must be normalized within 1e-12")


def _permutation_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def signed_permutation_sum(tensor: np.ndarray) -> np.ndarray:
    """Sum over axis permutations pi of sgn(pi) * transpose(tensor, pi)."""
    acc = np.zeros_like(tensor)
    for perm in permutations(range(tensor.ndim)):
        acc += _permutation_sign(perm) * np.transpose(tensor, perm)
    return acc


def contract_registers(tensor: np.ndarray, unitaries) -> np.ndarray:
    """Apply each (axis, U) pair of ``unitaries`` to its register axis."""
    for axis, u in unitaries:
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [axis])), 0, axis)
    return tensor


def born_outcome(tensor: np.ndarray, rng: np.random.Generator) -> tuple:
    """Draw one joint computational-basis outcome by the Born rule."""
    probs = np.abs(tensor.reshape(-1)) ** 2
    probs /= probs.sum()
    flat = rng.choice(probs.size, p=probs)
    return tuple(int(i) for i in np.unravel_index(flat, tensor.shape))


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


@dataclass(frozen=True)
class OrbitalVector:
    """A single-particle orbital over n_orbitals grid points, unit norm."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1:
            raise ValidationError("orbital coefficients must be a vector")
        if abs(np.linalg.norm(c) - 1.0) > 1e-12:
            raise ValidationError("orbital vector must have unit norm within 1e-12")


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

    def __init__(self, eta, n_orbitals, tensor, grid: GridSpec | None = None,
                 antisymmetric: bool = False, _normalized: bool = True):
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
        self.antisymmetric = bool(antisymmetric)
        if self._padding_weight() > 1e-24:
            raise ValidationError("nonzero amplitude on padded orbital labels")
        if _normalized:
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

    def copy_with(self, tensor, antisymmetric=None, normalized=True):
        return FirstQuantizedState(
            self.eta, self.n_orbitals, tensor, grid=self.grid,
            antisymmetric=self.antisymmetric if antisymmetric is None else antisymmetric,
            _normalized=normalized)

    def overlap(self, other: "FirstQuantizedState") -> complex:
        return complex(np.vdot(self.tensor, other.tensor))

    def is_antisymmetric(self, tol: float = 1e-10) -> bool:
        """Check the exchange invariant on adjacent register swaps."""
        for j in range(self.eta - 1):
            swapped = np.swapaxes(self.tensor, j, j + 1)
            if np.max(np.abs(swapped + self.tensor)) > tol:
                return False
        return True

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
    return state.copy_with(acc / nrm, antisymmetric=True)


def slater_oracle(orbitals, grid: GridSpec | None = None,
                  n_orbitals: int | None = None) -> FirstQuantizedState:
    """Slater determinant of mutually orthonormal orbitals.

    The amplitude at (p_1,...,p_eta) is det[phi_a(p_b)] / sqrt(eta!).
    ``orbitals`` may be a list of OrbitalVector/arrays or an (N, eta)
    coefficient matrix.
    """
    if isinstance(orbitals, np.ndarray) and orbitals.ndim == 2:
        cols = [orbitals[:, a] for a in range(orbitals.shape[1])]
    else:
        cols = [o.coeffs if isinstance(o, OrbitalVector) else np.asarray(o, dtype=complex)
                for o in orbitals]
    eta = len(cols)
    if n_orbitals is None:
        n_orbitals = grid.total_points if grid is not None else len(cols[0])
    check_dense_size(n_orbitals, eta)
    coeff = np.stack(cols, axis=1).astype(complex)  # (N, eta)
    if coeff.shape[0] != n_orbitals:
        raise ValidationError("orbital length does not match n_orbitals")
    gram = coeff.conj().T @ coeff
    if np.max(np.abs(gram - np.eye(eta))) > 1e-8:
        raise NonOrthonormalInput("orbital Gram matrix deviates from identity by > 1e-8")

    reg = 2 ** register_qubits(n_orbitals)
    padded = np.zeros((reg, eta), dtype=complex)
    padded[:n_orbitals, :] = coeff
    outer = np.array([1.0 + 0j])
    for b in range(eta):
        outer = np.multiply.outer(outer, padded[:, b])
    acc = signed_permutation_sum(outer.reshape((reg,) * eta))
    acc /= math.sqrt(math.factorial(eta))
    return FirstQuantizedState(eta, n_orbitals, acc, grid=grid, antisymmetric=True)


def apply_register_unitary(state: FirstQuantizedState, register: int,
                           unitary: np.ndarray) -> FirstQuantizedState:
    """Apply a register-local unitary (I x ... x U x ... x I).

    ``register`` is 1-based. The result carries no antisymmetry flag:
    a register-local operation generically breaks exchange symmetry.
    """
    if not 1 <= register <= state.eta:
        raise ValidationError(f"register {register} out of range 1..{state.eta}")
    u = np.asarray(unitary, dtype=complex)
    d = state.register_dim
    if u.shape != (d, d):
        raise ValidationError(f"unitary must be {d}x{d}")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-8:
        raise NonUnitary("U†U deviates from identity by > 1e-8")
    out = contract_registers(state.tensor, [(register - 1, u)])
    return state.copy_with(out, antisymmetric=False)


def measure_all(state: FirstQuantizedState, rng: np.random.Generator):
    """Sample a joint computational-basis outcome (p_1,...,p_eta)."""
    return born_outcome(state.tensor, rng)


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


def first_second_equivalence_check(state: FirstQuantizedState, p: int, q: int,
                                   tol: float = 1e-10) -> bool:
    """Compare sum_j |p><q|_j against the mapped image of a_p† a_q.

    The first-quantized side applies the transition operator summed over
    registers; the second-quantized side maps the state to occupation
    coefficients (ascending-order convention), applies a_p† a_q with
    fermionic parity signs, and maps back. Returns True when the two
    resulting vectors agree within ``tol``.
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
    return bool(np.max(np.abs(fq - sq)) <= tol)


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
    tensor = amps.reshape((reg,) * eta)
    state = FirstQuantizedState(eta, grid.total_points, tensor, grid=grid)
    if state.is_antisymmetric():
        state.antisymmetric = True
    return state
