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

from fqlab import cliffords
from fqlab.cli import dispatch
from fqlab.grids import GridSpec
from fqlab.hamiltonian import (CoulombKernel, EvolutionPlan, GridHamiltonian,
                               NuclearConfig, evolve_block,
                               lowest_momentum_slater, total_energy)
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


def test_fft_route_evolve_block():
    # 1-D m = 256, eta = 2 takes the FFT route: the block, the spare
    # buffer the transforms write into and the phase table of the one V
    # time, about 2.1 blocks; fftn and ifftn allocating an output per
    # axis would hold 5.0
    grid = GridSpec(dim=1, points_per_axis=256, cell_volume=256.0)
    ham = GridHamiltonian(grid, NuclearConfig.empty(1), CoulombKernel(0.0))
    plan = EvolutionPlan(total_time=0.2, steps=2, order=2)
    evolve_block(lowest_momentum_slater(grid, 2).tensor, plan, ham)  # imports
    block = lowest_momentum_slater(grid, 2).tensor
    size = block.nbytes
    assert traced_peak(lambda: evolve_block(block, plan, ham)) <= 2.5 * size


def test_tdhf_rows_are_written_as_made(workdir):
    # 1-D N = 32, eta = 3 with the density diagonal: a run's peak grows by
    # the trajectory's arrays, 8N bytes a step for the diagonal (0.4 kB a
    # step traced in all); every row held as Python floats before the
    # write grew it by 1.5 kB a step
    def peak(steps):
        return traced_peak(lambda: dispatch([
            "tdhf", "--dim", "1", "--points", "32", "--omega", "32", "--eta",
            "3", "--soften", "1.0", "--time", str(0.005 * steps), "--steps",
            str(steps), "--observables", "energy,rdm-diag",
            "--out", str(workdir / "t.csv")]))
    peak(10)  # imports
    assert peak(400) - peak(100) <= 300 * 3 * 8 * 32


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
    peak = traced_peak(lambda: lowest_momentum_slater(GRID, 2))
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


def test_first_collection_keeps_only_the_row_table():
    # at N = 4 a first collection builds the n = 2 table by its rows and
    # keeps it: 184 kB of representative rows, the 92 kB row index and
    # the 23 kB element ids, about 0.32 MB; key strings for the 11 520
    # table indices, cached beside it, would keep 0.74 MB more
    state = random_antisymmetric_state(4, 2, seed=9)
    cliffords._factorized.cache_clear()
    tracemalloc.start()
    try:
        collect_shadows(state, 10, seed=1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 0.4e6


# Beyond the batch's own ids, outcomes and rows, 2000 samples hold the
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
