from itertools import combinations, permutations
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import settings

from fqlab.grids import GridSpec
from fqlab.states import FirstQuantizedState, antisymmetrize

# The same examples on every run, and no example database carried over
# from earlier runs, so that reruns are bit-identical.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# numpy >= 1.25 keeps ComplexWarning in numpy.exceptions, 2.x only there
_COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning


@pytest.fixture(autouse=True)
def numpy_warnings_are_errors():
    """A complex value cast to real (ComplexWarning) or an overflow, an
    invalid value or a division by zero (RuntimeWarning) fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", _COMPLEX_WARNING)
        warnings.simplefilter("error", RuntimeWarning)
        yield


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
