"""The fqlab names the benchmark (perfbench/workloads.py) imports, called
the way it calls them, so that a change breaking the benchmark's checks
fails here first rather than as a failed benchmark run."""

import functools
import importlib
import math

import numpy as np

from fqlab.cli import dispatch
from fqlab.grids import GridSpec
from fqlab.hamiltonian import CoulombKernel, NuclearConfig, total_energy
from fqlab.shadows import EstimatorConfig
from fqlab.states import exact_krdm_element, load_state, slater_oracle
from fqlab.stateprep import toffoli_count

from conftest import perfbench_module, random_orthonormal

NUCLEI = [[0.7, 0.0, 0.0], [-0.7, 0.0, 0.0]]  # the dynamics workload's


def test_dynamics_energy_of_an_evolved_snapshot(tmp_path, monkeypatch):
    # the dynamics workload's evolve call and energy check at N = 27
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nuclei.txt").write_text(
        "".join(f"1 {x} {y} {z}\n" for x, y, z in NUCLEI))
    assert dispatch(["evolve", "--dim", "3", "--points", "3", "--omega", "27",
                     "--eta", "2", "--nuclei", "nuclei.txt", "--soften",
                     "0.5", "--time", "0.5", "--steps", "2", "--order", "2",
                     "--out", "o2.bin"]) == 0
    state = load_state("o2.bin")
    assert state.antisymmetric
    energy = total_energy(state, NuclearConfig(np.array(NUCLEI), np.ones(2)),
                          CoulombKernel(0.5))
    assert isinstance(energy, float) and math.isfinite(energy)
    # recorded with fqlab 0.2.0; the benchmark compares its energies with
    # recorded ones to the same 1e-10
    assert abs(energy - 1.169364027166699) <= 1e-10
    diagonal = sum(exact_krdm_element(state, (p,), (p,)) for p in range(27))
    assert abs(diagonal - 2) < 1e-12


def test_dynamics_last_tdhf_energy(tmp_path, monkeypatch):
    # the dynamics workload's tdhf call and energy check at N = 27
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nuclei.txt").write_text(
        "".join(f"1 {x} {y} {z}\n" for x, y, z in NUCLEI))
    assert dispatch(["tdhf", "--dim", "3", "--points", "3", "--omega", "27",
                     "--eta", "2", "--nuclei", "nuclei.txt", "--soften",
                     "0.5", "--time", "0.5", "--steps", "10", "--observables",
                     "energy,rdm-diag", "--out", "tdhf.csv"]) == 0
    rows = (tmp_path / "tdhf.csv").read_text().splitlines()
    assert len(rows) == 12 and len(rows[0].split(",")) == 3 + 27
    # recorded with fqlab 0.2.0 from a dense one-body matrix; the
    # benchmark compares its energies with recorded ones to 1e-10
    assert abs(float(rows[-1].split(",")[2]) - 1.2883363961957202) <= 1e-10


def test_readout_and_prep_check_calls():
    cfg = EstimatorConfig.from_sample_count(1, 0.1, 0.05, 2000)
    assert cfg.groups * cfg.group_size <= 2000
    assert toffoli_count(16, 4) > 0


def test_readout_exact_elements():
    # the readout workload's exact values at N = 4: the 16 pair elements
    # of its k = 2 call on a filled eta = 4 state, and every k = 1 element
    # of its eta = 2 calls
    grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
    tuples = [(0, 1), (0, 2), (1, 3), (2, 3)]
    filled = slater_oracle(random_orthonormal(4, 4, seed=1), grid)
    for bra in tuples:
        for ket in tuples:
            # a filled determinant's 2-RDM is delta_pr delta_qs here
            assert abs(exact_krdm_element(filled, bra, ket)
                       - (bra == ket)) < 1e-12
    pair = slater_oracle(random_orthonormal(4, 2, seed=2), grid)
    one = np.array([[exact_krdm_element(pair, (i,), (j,)) for j in range(4)]
                    for i in range(4)])
    assert abs(np.trace(one) - 2) < 1e-12
    assert np.max(np.abs(one - one.conj().T)) < 1e-12


# Deleted from fqlab while the tracer still names it; dropping it from
# TARGETS is a change of the benchmark.
GONE = {("fqlab.grids", "centered_dft")}


def test_every_traced_function_resolves():
    # the tracer finds its spans by function name: a traced function that
    # is renamed or moved blanks its metric without an error
    missing = []
    for module, qualname in perfbench_module("tracer").TARGETS:
        try:
            functools.reduce(getattr, qualname.split("."),
                             importlib.import_module(module))
        except AttributeError:
            missing.append((module, qualname))
    assert set(missing) <= GONE, missing
