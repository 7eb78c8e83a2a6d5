from itertools import combinations, permutations
import importlib.util
from pathlib import Path
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from fqlab.cliffords import CliffordRows, _all_bit_vectors, pauli_from_bits, table_rows
from fqlab.errors import EnumerationUnavailable, IndexOutOfRange, ValidationError
from fqlab.grids import GridSpec
from fqlab.meanfield import build_fock
from fqlab.shadows import _RegisterRows, gather_outcome_rows
from fqlab.states import (FirstQuantizedState, antisymmetrize, check_budget,
                          check_labels, contract_registers, register_factor)

# The same examples on every run, and no example database carried over
# from earlier runs, so that reruns are bit-identical.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def perfbench_module(name):
    """perfbench/<name>.py, loaded from its file to be read, not installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_peak(fn):
    """Bytes allocated at the peak of ``fn()`` above what was live before,
    as tracemalloc counts them (numpy arrays included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_orthonormal(n, eta, seed):
    """Columns of the Q factor of a random complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(mat)
    return q[:, :eta]


def centered_dft_matrix(m):
    """Unitary one-axis DFT with both indices in the centered window, each
    entry exp(-2i pi nu p / m) / sqrt(m) evaluated explicitly: the oracle
    for the FFT-based axis operators."""
    w = GridSpec(1, m, 1.0).axis_window
    return np.exp(-2j * np.pi * np.outer(w, w) / m) / np.sqrt(m)


def kron_sum(op, copies):
    """sum_j I x .. x op x .. x I, one np.kron chain per term: the oracle
    for the Kronecker sums."""
    total = 0
    for j in range(copies):
        term = np.array([[1.0]])
        for a in range(copies):
            term = np.kron(term, op if a == j else np.eye(len(op)))
        total = total + term
    return total


def grid_dft_matrix(grid):
    """Dense position-to-frequency unitary over all N grid points, the
    Kronecker product of the per-axis centered DFT: the oracle for the
    FFT-based transforms."""
    axis = centered_dft_matrix(grid.points_per_axis)
    full = np.array([[1.0 + 0j]])
    for _ in range(grid.dim):
        full = np.kron(full, axis)
    return full


def joint_born_outcomes(tensors, uniforms):
    """One joint outcome per tensor of a batch, shape (B, ndim): the number
    of normalized row-major CDF entries <= its uniform, unraveled. The
    oracle for the register-by-register sampler."""
    cdf = np.cumsum(np.abs(tensors.reshape(len(tensors), -1)) ** 2, axis=1)
    cdf /= cdf[:, -1:]
    flat = np.count_nonzero(cdf <= uniforms[:, None], axis=1)
    return np.stack(np.unravel_index(flat, tensors.shape[1:]), axis=-1)


def identity_rows(tensor, count):
    """``count`` samples of the identity on every register of ``tensor``,
    as the draws of :func:`~fqlab.states.sample_registers`: its outcomes
    are then those of measuring in the computational basis."""
    labels = tensor.shape[0]
    return CliffordRows(np.eye(labels, dtype=complex), np.arange(labels)[None],
                        np.zeros((count, tensor.ndim), dtype=np.intp))


# The register-by-register sampler as it read a dense (B, ndim, d, N) stack
# of unitaries, kept as it was: the oracle for the row-form sampler.
def stack_sample_registers(tensor: np.ndarray, uniforms: np.ndarray,
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


def permutation_sign(perm):
    """(-1) to the number of inversions of ``perm``."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def naive_signed_permutation_sum(tensor):
    """Sum of sgn(pi) * transpose(tensor, pi) over all eta! axis
    permutations, one transpose each: the oracle for the antisymmetrizer."""
    acc = np.zeros_like(tensor)
    for perm in permutations(range(tensor.ndim)):
        acc += permutation_sign(perm) * np.transpose(tensor, perm)
    return acc


def random_antisymmetric_state(n_orbitals, eta, seed):
    """Antisymmetrized random dense state (not generally a determinant)."""
    rng = np.random.default_rng(seed)
    tensor = rng.normal(size=(n_orbitals,) * eta) + 1j * rng.normal(size=(n_orbitals,) * eta)
    tensor /= np.linalg.norm(tensor)
    return antisymmetrize(FirstQuantizedState(eta, n_orbitals, tensor))



def basis_state(eta, n_orbitals, labels, grid=None):
    """Computational basis state |p_1,...,p_eta>."""
    tensor = np.zeros((n_orbitals,) * eta, dtype=complex)
    labels = tuple(int(p) for p in labels)
    if len(labels) != eta or any(not 0 <= p < n_orbitals for p in labels):
        raise ValidationError(f"bad basis labels {labels}")
    tensor[labels] = 1.0
    return FirstQuantizedState(eta, n_orbitals, tensor, grid=grid)


def flat_index(grid, point) -> int:
    """Flat grid index of an integer lattice point."""
    m = grid.points_per_axis
    lo = int(grid.axis_window[0])
    idx = 0
    for comp in np.atleast_1d(np.asarray(point, dtype=np.int64)):
        t = int(comp) - lo
        if not 0 <= t < m:
            raise ValidationError(f"lattice point {point} outside grid window")
        idx = idx * m + t
    return idx


def maps_paulis_to_paulis(element) -> bool:
    """Check U P U† is a (phase times) Pauli for the generator Paulis of a
    :class:`~fqlab.cliffords.CliffordElement`."""
    for bits in np.eye(2 * element.n, dtype=np.uint8):
        p = pauli_from_bits(bits, element.n)
        img = element.unitary @ p @ element.unitary.conj().T
        if not is_signed_pauli(img, element.n):
            return False
    return True


def is_signed_pauli(mat: np.ndarray, n: int) -> bool:
    """Whether ``mat`` is a unit phase times a Pauli, within 1e-10."""
    for bits in _all_bit_vectors(2 * n):
        p = pauli_from_bits(bits, n)
        overlap = np.trace(p.conj().T @ mat) / (2 ** n)
        if abs(abs(overlap) - 1.0) <= 1e-10 and np.max(np.abs(mat - overlap * p)) <= 1e-10:
            return True
    return False


def fock_spectral_norm(orbitals, integrals) -> float:
    """Largest singular value of F(C_occ)."""
    f = build_fock(orbitals, integrals)
    return float(np.linalg.norm(f, ord=2))


def rotation_count(network) -> int:
    """Givens rotations in a :class:`~fqlab.stateprep.GivensNetwork`."""
    return sum(len(layer) for layer in network.layers)


def single_particle_unitary(network) -> np.ndarray:
    """The N x N orbital rotation implemented by the full schedule."""
    u = np.eye(network.n_orbitals, dtype=complex)
    for layer in network.layers:
        for rot in layer:
            g = rot.block
            rows = [rot.orbital_a, rot.orbital_b]
            u[rows, :] = g @ u[rows, :]
    return u


def window_population(registers, orbital: int) -> float:
    """Probability mass of :class:`~fqlab.stateprep.ConversionRegisters`
    with the slot for ``orbital`` in state |1>."""
    on = (registers.keys & (1 << registers._slot(orbital))) != 0
    return float(np.sum(np.abs(registers.amplitudes[on]) ** 2))


# -- shadow estimator oracles ---------------------------------------------


def snapshot_term_estimate(rows: np.ndarray, registers, bra_labels,
                           ket_labels) -> complex:
    """Factorized tr[M^{-1}(snapshot) O] for O = prod |i_l><j_l| on x_l.

    ``rows`` holds one sample's outcome rows U_x[b_x, :N], shape (eta, N).
    Registers not in ``registers`` contribute exactly 1 (the inverted
    single-register snapshot has unit trace), so the product runs over
    the k involved registers only.
    """
    eta, width = rows.shape
    check_labels(bra_labels, ket_labels, eta, width, len(registers))
    factors = _RegisterRows(rows[None])
    value = 1.0 + 0.0j
    for x, i, j in zip(registers, bra_labels, ket_labels):
        if not 1 <= x <= eta:
            raise IndexOutOfRange(f"register {x} out of range 1..{eta}")
        value *= factors._factors(i, j)[x - 1, 0]
    return complex(value)


def single_shot_values(batch, bra_labels, ket_labels) -> np.ndarray:
    """Per-sample estimator values (before grouping), vectorized."""
    return _RegisterRows(batch.rows).values(bra_labels, ket_labels)


def exhaustive_estimator_mean(state: FirstQuantizedState, bra_labels,
                              ket_labels) -> complex:
    """Exact estimator mean: average over all Clifford tuples and outcomes.

    Only available when the single-register group can be enumerated
    (n <= 2). Equals the exact k-RDM element; the identity
    M^{-1}(M(sigma)) = sigma register by register is what this exercises.

    All |G|^eta Clifford tuples take one batched contraction, and every
    (tuple, outcome) pair is weighted by its Born probability at once.
    Refused before any tuple is built when the rows of every pair, the
    largest array, would exceed the dense regime.
    """
    table = table_rows(state.qubits_per_register)
    order = len(table.index)
    eta, dim, n = state.eta, state.register_dim, state.n_orbitals
    check_budget(f"the exhaustive mean's rows over {order}^{eta} "
                 f"Clifford tuples", (order * dim,) * eta + (eta, n))
    combos = np.indices((order,) * eta).reshape(eta, -1).T
    columns = table.select(combos).unitaries()[..., :n]  # (tuples, eta, d, N)
    probs = np.abs(contract_registers(state.tensor, columns)) ** 2
    outcomes = np.indices((dim,) * eta).reshape(eta, -1).T
    # rows[c, o, x] = U_{c, x}[o_x, :N], for outcome o in row-major order
    rows = gather_outcome_rows(table.select(combos[:, None]), outcomes[None], n)
    values = _RegisterRows(rows.reshape(-1, eta, n)).values(bra_labels,
                                                            ket_labels)
    return complex(probs.reshape(-1) @ values / order ** eta)


def twirl_deviations(n: int, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray) -> tuple:
    """Max deviations of the 2-fold and 3-fold twirl identities.

    2-fold:  E_U U†|x><x|U <x|U A U†|x>
               = (A + tr[A] I) / (2^n (2^n + 1))
    3-fold:  E_U U†|x><x|U <x|U B U†|x> <x|U C U†|x>
               = (I (tr[BC] + tr[B] tr[C]) + B tr[C] + C tr[B] + BC + CB)
                 / (2^n (2^n + 1) (2^n + 2))

    Both are checked for every computational basis outcome x by
    exhaustive average over the group table.
    """
    if n > 2:
        raise EnumerationUnavailable("twirl checks need the group table (n <= 2)")
    table = table_rows(n).unitaries()
    dim = 2 ** n
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    rhs2 = (a + np.trace(a) * np.eye(dim)) / (dim * (dim + 1))
    rhs3 = (np.eye(dim) * (np.trace(b @ c) + np.trace(b) * np.trace(c))
            + b * np.trace(c) + c * np.trace(b) + b @ c + c @ b)
    rhs3 = rhs3 / (dim * (dim + 1) * (dim + 2))
    dev2 = 0.0
    dev3 = 0.0
    for x in range(dim):
        acc2 = np.zeros((dim, dim), dtype=complex)
        acc3 = np.zeros((dim, dim), dtype=complex)
        for u in table:
            ux = u.conj().T[:, x]          # U†|x>
            proj = np.outer(ux, ux.conj())  # U†|x><x|U
            amp_a = ux.conj() @ (a @ ux)    # <x|U A U†|x>
            amp_b = ux.conj() @ (b @ ux)
            amp_c = ux.conj() @ (c @ ux)
            acc2 += proj * amp_a
            acc3 += proj * amp_b * amp_c
        acc2 /= len(table)
        acc3 /= len(table)
        dev2 = max(dev2, float(np.max(np.abs(acc2 - rhs2))))
        dev3 = max(dev3, float(np.max(np.abs(acc3 - rhs3))))
    return dev2, dev3


def twirl_identity_check(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                         tol: float = 1e-10) -> bool:
    dev2, dev3 = twirl_deviations(n, a, b, c)
    return dev2 < tol and dev3 < tol

@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
