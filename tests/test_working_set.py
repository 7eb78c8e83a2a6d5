"""Working sets of the dense dynamics path at the benchmark's size.

3-D grid of 7 points per axis (N = 343, 9-qubit registers), eta = 2. A
state stores its N^eta block, 343^2 complex amplitudes (1.8 MiB); the
padded (2^9)^2 tensor of its snapshot file is 4.0 MiB. The evolve
bounds are multiples of the block, the others of the padded tensor.
Peaks are traced allocations. Shadow collection is measured at N = 4
(2-qubit registers), the size of the benchmark's readout.
"""

import tracemalloc

import numpy as np
import pytest

from fqlab.cli import _lowest_momentum_slater, dispatch
from fqlab.grids import GridSpec
from fqlab.hamiltonian import (CoulombKernel, GridHamiltonian, NuclearConfig,
                               total_energy)
from fqlab.meanfield import GridIntegrals
from fqlab.shadows import _BLOCK_AMPLITUDES, collect_shadows
from fqlab.states import load_state

from conftest import random_antisymmetric_state, traced_peak

GRID = GridSpec(dim=3, points_per_axis=7, cell_volume=343.0)
BLOCK = 343 ** 2 * 16
PADDED = 512 ** 2 * 16
NUCLEI = [[0.7, 0.0, 0.0], [-0.7, 0.0, 0.0]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("working_set")
    (path / "nuclei.txt").write_text("".join(f"1 {x} {y} {z}\n"
                                             for x, y, z in NUCLEI))
    return path


def evolve_args(workdir, order, steps):
    return ["evolve", "--dim", "3", "--points", "7", "--omega", "343",
            "--eta", "2", "--nuclei", str(workdir / "nuclei.txt"),
            "--soften", "0.5", "--time", "0.5", "--steps", str(steps),
            "--order", str(order), "--out", str(workdir / f"o{order}.bin")]


@pytest.fixture(scope="module")
def evolved(workdir):
    """The order-2 snapshot the benchmark's check reads."""
    assert dispatch(evolve_args(workdir, 2, 20)) == 0
    return workdir / "o2.bin"


# The propagation holds the block, one spare buffer and a phase table per
# distinct potential time (one at order 2, two at order 4): 3 and 4 blocks.
# A padded copy of the result would hold 4.42x (order 2) and 4.24x (order 4).
EVOLVE_BLOCKS = {2: 3.5, 4: 4.1}


@pytest.mark.parametrize("order,steps", [(2, 20), (4, 5)])
def test_cli_evolve(workdir, order, steps):
    peak = traced_peak(lambda: dispatch(evolve_args(workdir, order, steps)))
    assert peak <= EVOLVE_BLOCKS[order] * BLOCK


def test_load_state(evolved):
    # a bytes object plus its astype copy would hold 2.0x
    assert traced_peak(lambda: load_state(evolved)) <= 1.1 * PADDED


def test_is_antisymmetric(evolved):
    state = load_state(evolved)
    # forming swapped + tensor and its modulus whole would hold 1.5x
    assert traced_peak(state.is_antisymmetric) <= 0.25 * PADDED
    assert state.is_antisymmetric()


def test_lowest_momentum_slater():
    # antisymmetrizing the padded determinant would hold 2.04x
    peak = traced_peak(lambda: _lowest_momentum_slater(GRID, 2))
    assert peak <= 1.6 * PADDED


def test_total_energy(evolved):
    state = load_state(evolved)
    nuclei = NuclearConfig(np.array(NUCLEI), np.ones(2))
    # a whole density, U + V diagonal and table sum would hold 1.35x
    peak = traced_peak(lambda: total_energy(state, nuclei, CoulombKernel(0.5)))
    assert peak <= 1.1 * PADDED


def test_tdhf_integrals_hold_one_dense_matrix():
    # v is the one N x N array: h is kept as a 7 x 7 axis matrix and the
    # nuclear diagonal; a dense h beside v would hold 2.0x
    square = 8 * GRID.total_points ** 2
    ham = GridHamiltonian(GRID, NuclearConfig(np.array(NUCLEI), np.ones(2)),
                          CoulombKernel(0.5))
    GridIntegrals.from_grid(ham)  # the modules a first call imports
    tracemalloc.start()
    try:
        ints = GridIntegrals.from_grid(ham)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert square <= held <= 1.05 * square
    # v is copied once from windows of its small difference table; an
    # N x N gather index, a dense h or a temporary of v's size would take
    # it past 2x
    assert peak <= 1.3 * square
    del ints


# Beyond the batch's own keys, outcomes and rows, 2000 samples hold the
# chunk's uniforms and table draws, the level-1 weight table and one
# block's arrays, in block budgets (16 _BLOCK_AMPLITUDES bytes each): 2.7
# at eta = 2 and 3.3 at eta = 4. A (B, eta, d, d) stack of each block's
# unitaries and its index arrays would take them to 3.8 and 4.1.
SHADOW_BUDGETS = {2: 3.0, 4: 3.6}


@pytest.mark.parametrize("eta", [2, 4])
def test_collect_shadows(eta):
    state = random_antisymmetric_state(4, eta, seed=9)
    collect_shadows(state, 10, seed=1)  # the tables a first call builds
    batch = 2000 * eta * (8 + 8 + 4 * 16)
    peak = traced_peak(lambda: collect_shadows(state, 2000, seed=11))
    assert peak - batch <= SHADOW_BUDGETS[eta] * 16 * _BLOCK_AMPLITUDES
