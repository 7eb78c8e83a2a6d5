from itertools import combinations, permutations
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from fqlab.grids import GridSpec
from fqlab.states import FirstQuantizedState, antisymmetrize, register_factor

# The same examples on every run, and no example database carried over
# from earlier runs, so that reruns are bit-identical.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
