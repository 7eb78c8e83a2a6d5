"""Working sets of the dense dynamics path at the benchmark's size.

Every bound is a multiple of the padded state: 3-D grid of 7 points per
axis (N = 343, 9-qubit registers), eta = 2, so 512^2 complex amplitudes,
4.0 MiB. The N^eta block is 0.45 of it. Peaks are traced allocations.
"""

import numpy as np
import pytest

from fqlab.cli import _lowest_momentum_slater, dispatch
from fqlab.grids import GridSpec
from fqlab.hamiltonian import CoulombKernel, NuclearConfig, total_energy
from fqlab.states import load_state

from conftest import traced_peak

GRID = GridSpec(dim=3, points_per_axis=7, cell_volume=343.0)
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


@pytest.mark.parametrize("order,steps", [(2, 20), (4, 5)])
def test_cli_evolve(workdir, order, steps):
    # keeping the padded input, a contraction's input and output, the
    # phases and an unshifted copy alive held 3.5x (order 2), 3.85x (order 4)
    peak = traced_peak(lambda: dispatch(evolve_args(workdir, order, steps)))
    assert peak <= 2.75 * PADDED


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
