"""CLI surface: subcommands, manifests, determinism, exit codes."""

import argparse
import csv
import hashlib
import json
import math
import os
from pathlib import Path
import string
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fqlab
from fqlab import cli, hamiltonian, shadows
from fqlab.cli import _PARAMETERS, _build_parser, dispatch
from fqlab.costmodel import CostQuery, classical_mf_cost
from fqlab.errors import NonOrthonormalInput, ValidationError
from fqlab.experiment import pipeline_shadow_experiment
from fqlab.grids import GridSpec
from fqlab.states import load_state, save_state, slater_oracle

from conftest import basis_state, random_orthonormal, traced_peak


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def write_coeffs(path, coeffs):
    rows = np.empty((coeffs.shape[0], 2 * coeffs.shape[1]))
    rows[:, 0::2] = coeffs.real
    rows[:, 1::2] = coeffs.imag
    np.savetxt(path, rows, delimiter=",")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCost:
    def test_alpha_range_row_count(self, workdir):
        assert dispatch(["cost", "--alpha-range", "1:8:0.25",
                         "--out", "s.csv"]) == 0
        rows = list(csv.reader(open("s.csv")))
        assert rows[0] == ["alpha", "beta_classical", "beta_quantum",
                           "speedup", "optimal_quantum",
                           "optimal_classical_term"]
        assert len(rows) == 30  # header + 29 points

    def test_query_json(self, workdir, capsys):
        assert dispatch(["cost", "--query", "1000,10,1,0.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "optimal_quantum" in report
        assert report["alpha"] == pytest.approx(3.0)

    def test_missing_mode_is_usage_error(self, workdir):
        assert dispatch(["cost"]) == 2

    def test_query_with_m_reports_the_finite_temperature_rows(
            self, workdir, capsys):
        assert dispatch(["cost", "--query", "1000,10,1,0.1,5"]) == 0
        report = json.loads(capsys.readouterr().out)
        q = CostQuery(n_basis=1000.0, eta=10.0, time=1.0, epsilon=0.1,
                      occupied_orbitals=5.0)
        for variant in ("density", "trajectories"):
            assert report[f"classical_finite_T_{variant}"] == classical_mf_cost(
                q, f"finite-T-{variant}")

    def test_alpha_range_without_a_step_exits_two(self, workdir, capsys):
        exits_two_with_one_line(["cost", "--alpha-range", "1:8", "--out",
                                 "s.csv"], capsys,
                                "--alpha-range must be lo:hi:step")
        assert not (workdir / "s.csv").exists()

    @pytest.mark.parametrize("query,needle", [
        ("4,2,1,0.1,,-5", "L must be >= 1"),
        ("4,2,1,0.1,,2,,,-1", "k must lie in 1..eta"),
        ("4,2,1,0.1,,2,,,3", "k must lie in 1..eta"),
        ("4,2,1,0.1,,2,-3", "lambda must be >= 0"),
        ("4,2,1,0.1,,2,,-1", "C_samp must be >= 0"),
        ("4,2,1,0.1,0", "M must be positive"),
        ("4,2,1,0.1,-2", "M must be positive"),
        ("100000,100000,1,0.1,,2,,,40000", "overflows a float"),  # k^k eta^k
        ("1e300,2,1,0.1", "overflows a float"),
        ("4,2,1,1e-300,,2", "overflows a float")])  # eps^2 underflows to 0
    def test_query_outside_its_domain_exits_two(self, workdir, capsys, query,
                                                needle):
        exits_two_with_one_line(["cost", "--query", query], capsys, needle)

    def test_alpha_range_without_out_refused_before_a_row(
            self, workdir, capsys, monkeypatch):
        def built(alphas):
            raise AssertionError("a row was built before --out was checked")
        monkeypatch.setattr(cli, "regime_table", built)
        exits_two_with_one_line(["cost", "--alpha-range", "1:8:0.25"], capsys,
                                "--alpha-range needs --out")

    def test_alpha_below_one_refused_before_the_file(self, workdir, capsys):
        exits_two_with_one_line(["cost", "--alpha-range", "0.5:2:0.5", "--out",
                                 "s.csv"], capsys, "alpha must be >= 1")
        assert not (workdir / "s.csv").exists()

    def test_alpha_range_streams_its_rows(self, workdir):
        # 100001 rows are written as they are made (0.2 MB traced); held
        # as dicts and lists before the write they took 50 MB
        peak = traced_peak(lambda: dispatch(["cost", "--alpha-range",
                                             "1:2:1e-5", "--out", "s.csv"]))
        with open("s.csv") as fh:
            assert sum(1 for _ in fh) == 100_002
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("spec", ["1:1e308:1e-308", "1:5:1e-9"])
    def test_alpha_range_beyond_the_budget_refused_before_a_row(
            self, workdir, capsys, monkeypatch, spec):
        def built(alphas):
            raise AssertionError("a row was built before the budget check")
        monkeypatch.setattr(cli, "regime_table", built)
        exits_two_with_one_line(["cost", "--alpha-range", spec, "--out",
                                 "s.csv"], capsys, "--alpha-range table")


class TestDispatch:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_no_subcommand_exits_two(self, capsys):
        assert dispatch([]) == 2

    def test_singular_potential_exits_three(self, workdir):
        # bare kernel with a nucleus exactly on a grid point
        (workdir / "nuclei.txt").write_text("1 0.0\n")
        code = dispatch(["evolve", "--dim", "1", "--points", "5", "--omega",
                         "5", "--eta", "2", "--nuclei", "nuclei.txt",
                         "--time", "0.1", "--steps", "5", "--out", "x.bin"])
        assert code == 3

    def test_missing_required_flag_exits_two(self, workdir):
        assert dispatch(["evolve", "--dim", "1", "--points", "5"]) == 2


class TestEvolveShadowsPipeline:
    def test_end_to_end_with_replay(self, workdir):
        (workdir / "nuclei.txt").write_text("2 0.4\n")
        args = ["evolve", "--dim", "1", "--points", "5", "--omega", "5",
                "--eta", "2", "--nuclei", "nuclei.txt", "--soften", "0.5",
                "--time", "0.3", "--steps", "40", "--order", "2",
                "--seed", "7", "--out", "state.bin"]
        assert dispatch(args) == 0
        state = load_state("state.bin")
        assert state.eta == 2
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

        shadows = ["shadows", "--in", "state.bin", "--k", "1", "--epsilon",
                   "0.3", "--delta", "0.1", "--samples", "2000", "--seed",
                   "3", "--elements", "all-1rdm", "--out", "est.csv",
                   "--dump-samples", "raw.csv"]
        assert dispatch(shadows) == 0
        rows = list(csv.reader(open("est.csv")))
        assert rows[0] == ["i", "j", "re", "im", "groups", "group_size"]
        assert len(rows) == 1 + 25  # all 1-RDM elements of N=5

        first = sha256("est.csv")
        assert dispatch(shadows) == 0
        assert sha256("est.csv") == first

        assert dispatch(["--manifest", "est.csv.manifest.json"]) == 0
        assert sha256("est.csv") == first

    def test_shadows_outputs_do_not_depend_on_threads(self, workdir):
        assert dispatch(["evolve", "--dim", "1", "--points", "4", "--omega",
                         "4", "--eta", "2", "--time", "0.1", "--steps", "2",
                         "--out", "st.bin"]) == 0
        digests = set()
        for threads in ("1", "2"):
            assert dispatch(["--threads", threads, "shadows", "--in", "st.bin",
                             "--epsilon", "0.3", "--delta", "0.1", "--samples",
                             "9000", "--seed", "5", "--out", "est.csv",
                             "--dump-samples", "raw.csv"]) == 0  # 3 chunks
            digests.add((sha256("est.csv"), sha256("raw.csv")))
        assert len(digests) == 1

    def test_auto_sample_count_beyond_budget_exits_two(self, workdir, capsys,
                                                      monkeypatch):
        assert dispatch(["evolve", "--dim", "1", "--points", "4", "--omega",
                         "4", "--eta", "2", "--time", "0.1", "--steps", "2",
                         "--out", "st.bin"]) == 0

        def drawn(*args, **kwargs):
            raise AssertionError("sample drawn or batch allocated")
        monkeypatch.setattr(shadows, "derive_rng", drawn)
        monkeypatch.setattr(np, "empty", drawn)
        # 8,378,008 samples of 2 x 4 outcome-row entries: 4 times the budget
        exits_two_with_one_line(
            ["shadows", "--in", "st.bin", "--epsilon", "0.1", "--delta",
             "0.05", "--samples", "auto", "--out", "est.csv"], capsys,
            "8378008 samples")
        assert not (workdir / "est.csv").exists()

    def test_evolve_same_seed_same_digest(self, workdir):
        args = ["evolve", "--dim", "1", "--points", "5", "--omega", "5",
                "--eta", "2", "--time", "0.2", "--steps", "10",
                "--out", "a.bin"]
        assert dispatch(args) == 0
        digest = sha256("a.bin")
        args[-1] = "b.bin"
        assert dispatch(args) == 0
        assert sha256("b.bin") == digest


class TestSnapshotBytesPinned:
    """FQS1 bytes of seeded evolve runs, as SHA-256 digests: the same
    arithmetic in the same order writes the same bytes. The matmul route
    (a, c, d.bin) sums each axis in the centered index order the state is
    stored in. Recorded with numpy 2.4 and OpenBLAS 0.3 on x86-64; another
    BLAS build may round a matmul differently."""

    RUNS = {
        # padded 2-D registers, order 4, nuclei: the matmul route
        "a.bin": (["--dim", "2", "--points", "3", "--omega", "9", "--eta", "2",
                   "--nuclei", "nuclei.txt", "--soften", "0.5", "--time", "0.3",
                   "--steps", "3", "--order", "4", "--seed", "5"],
                  "84ef33705296bd738be7c2ea6491911740f54011f37478933d665ca2b50624d1"),
        # 128 points per axis: the FFT route
        "b.bin": (["--dim", "1", "--points", "128", "--omega", "128", "--eta",
                   "2", "--time", "0.2", "--steps", "2"],
                  "ab7a56ad920167dcf97a01f67c2f81684054395e62c7d2e0bb1bcde412988d83"),
        # from the snapshot a.bin, order 1
        "c.bin": (["--in", "a.bin", "--nuclei", "nuclei.txt", "--soften", "0.5",
                   "--time", "0.1", "--steps", "2", "--order", "1"],
                  "28c601ecda7ce1b31b2ff72b771dc970c1189e837413c3faa14703220d38b55e"),
        # nine axes of 2 points: an odd count of matmuls per kinetic substep;
        # the eta = 3 start is the oracle's Laplace GEMM
        "d.bin": (["--dim", "3", "--points", "2", "--omega", "8", "--eta", "3",
                   "--time", "0.4", "--steps", "2"],
                  "9ebe90ef363f4e492f6f8f0d559fbfc7a29d4da89dc06444e5c65288dec501f7"),
    }

    def test_digests(self, workdir):
        (workdir / "nuclei.txt").write_text("1 0.3 0.1\n")
        for name, (args, digest) in self.RUNS.items():
            assert dispatch(["evolve", *args, "--out", name]) == 0
            assert sha256(name) == digest, name


class TestTdhfBytesPinned:
    """tdhf CSV bytes as SHA-256 digests: the same arithmetic in the same
    order writes the same bytes. Recorded with numpy 2.4 and OpenBLAS 0.3
    on x86-64; another BLAS build may round a matmul differently."""

    def test_one_dimensional_trajectory(self, workdir):
        # the run of TestTdhfCommand.test_trajectory_csv
        assert dispatch(["tdhf", "--dim", "1", "--points", "8", "--omega",
                         "16", "--eta", "3", "--soften", "1.0", "--time",
                         "0.2", "--steps", "20", "--observables",
                         "energy,rdm-diag", "--out", "traj.csv"]) == 0
        assert sha256("traj.csv") == (
            "177e80b7db54a21856c9da1c614d3921b0bee704fad206242d879d2a789bc83f")

    def test_benchmark_grid_on_one_blas_thread(self, workdir):
        # the dynamics benchmark's tdhf call (N = 343, eta = 2); its bytes
        # move with the BLAS thread count, so one thread is pinned
        (workdir / "nuclei.txt").write_text("1 0.7 0 0\n1 -0.7 0 0\n")
        run = run_module(["tdhf", "--dim", "3", "--points", "7", "--omega",
                          "343", "--eta", "2", "--nuclei", "nuclei.txt",
                          "--soften", "0.5", "--time", "0.5", "--steps", "10",
                          "--observables", "energy,rdm-diag",
                          "--out", "tdhf.csv"],
                         OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                         MKL_NUM_THREADS="1")
        assert run.returncode == 0, run.stderr
        assert sha256("tdhf.csv") == (
            "85a8c7bd962b7483b66762dcb9ef63467a520c8f6730fcf67b201b32c22051c7")

    def test_benchmark_grid_from_coefficients_on_one_and_two_blas_threads(
            self, workdir):
        # the same run from the one-thread core guess, read from a 343-row
        # CSV: no eigh is taken, and the trajectory writes the pinned bytes
        # on one BLAS thread and on two
        (workdir / "nuclei.txt").write_text("1 0.7 0 0\n1 -0.7 0 0\n")
        threads = dict(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1")
        guess = run_python("-c", textwrap.dedent("""
            import numpy as np
            from fqlab.grids import GridSpec
            from fqlab.hamiltonian import (CoulombKernel, GridHamiltonian,
                                           NuclearConfig)
            from fqlab.meanfield import GridIntegrals, core_guess
            nuclei = NuclearConfig(np.array([[0.7, 0, 0], [-0.7, 0, 0]]),
                                   np.ones(2))
            ham = GridHamiltonian(GridSpec(3, 7, 343.0), nuclei,
                                  CoulombKernel(0.5))
            c = core_guess(GridIntegrals.from_grid(ham).h, 2)
            pairs = np.empty((343, 4))
            pairs[:, 0::2], pairs[:, 1::2] = c.real, c.imag
            np.savetxt("guess.csv", pairs, delimiter=",", fmt="%.17g")
        """), **threads)
        assert guess.returncode == 0, guess.stderr
        for count in ("1", "2"):
            run = run_module(["tdhf", "--dim", "3", "--points", "7", "--omega",
                              "343", "--coeffs", "guess.csv", "--nuclei",
                              "nuclei.txt", "--soften", "0.5", "--time", "0.5",
                              "--steps", "10", "--observables",
                              "energy,rdm-diag", "--out", "tdhf.csv"],
                             **{key: count for key in threads})
            assert run.returncode == 0, run.stderr
            assert sha256("tdhf.csv") == (
                "85a8c7bd962b7483b66762dcb9ef63467a520c8f6730fcf67b201b32c22051c7"
            ), count


class TestTdhfCommand:
    def test_trajectory_csv(self, workdir):
        # eta = 3: at eta = 2 the core guess of this grid is degenerate
        code = dispatch(["tdhf", "--dim", "1", "--points", "8", "--omega",
                         "16", "--eta", "3", "--soften", "1.0", "--time",
                         "0.2", "--steps", "20", "--observables",
                         "energy,rdm-diag", "--out", "traj.csv"])
        assert code == 0
        rows = list(csv.reader(open("traj.csv")))
        assert rows[0][:3] == ["step", "time", "energy"]
        assert len(rows[0]) == 3 + 8
        assert len(rows) == 1 + 21
        energies = [float(r[2]) for r in rows[1:]]
        assert max(energies) - min(energies) < 1e-6

    def test_unknown_observable_rejected(self, workdir):
        assert dispatch(["tdhf", "--dim", "1", "--points", "8", "--omega",
                         "16", "--eta", "2", "--time", "0.1", "--steps",
                         "5", "--observables", "dipole",
                         "--out", "t.csv"]) == 2

    def test_degenerate_core_guess_exits_three_with_the_gap(self, workdir,
                                                           capsys):
        # free particles on a 1-D grid: the +-k_1 plane waves tie at eta = 2
        code = dispatch(["tdhf", "--dim", "1", "--points", "8", "--omega",
                         "16", "--eta", "2", "--soften", "1.0", "--time",
                         "0.2", "--steps", "20", "--out", "traj.csv"])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        gap = float(err.split("w[eta] - w[eta-1] = ")[1].split()[0])
        assert abs(gap) < 1e-14
        assert not (workdir / "traj.csv").exists()

    def test_core_guess_on_the_benchmark_grid_accepted(self, workdir):
        # the 3-D grid of the dynamics benchmark: gap 0.0596 at eta = 2
        (workdir / "nuclei.txt").write_text("1 0.7 0 0\n1 -0.7 0 0\n")
        assert dispatch(["tdhf", "--dim", "3", "--points", "7", "--omega",
                         "343", "--eta", "2", "--nuclei", "nuclei.txt",
                         "--soften", "0.5", "--time", "0.05", "--steps", "1",
                         "--out", "traj.csv"]) == 0

    def test_grid_beyond_the_dense_budget_exits_two_before_allocating(
            self, workdir, capsys, monkeypatch):
        # N = 31^3: the N x N v would take 7 GB, and so would a dense h,
        # which the integrals do not build
        def built(*args, **kwargs):
            raise AssertionError("kinetic matrix built before the size check")
        monkeypatch.setattr(hamiltonian, "_kronecker_sum", built)
        exits_two_with_one_line(
            ["tdhf", "--dim", "3", "--points", "31", "--omega", "29791",
             "--eta", "2", "--time", "0.1", "--steps", "1", "--out", "t.csv"],
            capsys, "29791 x 29791 pair table V")
        assert not (workdir / "t.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--steps", "0")])
    def test_bad_plan_exits_two_before_the_core_guess(
            self, workdir, capsys, monkeypatch, flag, value):
        # at eta = 2 the core guess of this grid is degenerate (exit 3)
        def guessed(*args, **kwargs):
            raise AssertionError("core guess formed before the plan check")
        monkeypatch.setattr(cli, "core_guess", guessed)
        argv = ["tdhf", "--dim", "1", "--points", "5", "--omega", "5",
                "--eta", "2", "--time", "0.1", "--steps", "2", "--out", "t.csv"]
        exits_two_with_one_line(argv + [flag, value], capsys, flag[2:])
        assert not (workdir / "t.csv").exists()

    @pytest.mark.parametrize("form", ["flag", "config", "manifest"])
    def test_removed_scheme_parameter_exits_two(self, workdir, capsys, form):
        # tdhf has one integrator; a run naming a scheme is refused
        argv = ["tdhf", "--dim", "1", "--points", "8", "--omega", "16",
                "--eta", "3", "--soften", "1.0", "--time", "0.1", "--steps",
                "2", "--out", "t.csv"]
        if form == "flag":
            argv += ["--scheme", "rk4"]
        elif form == "config":
            (workdir / "cfg.json").write_text('{"scheme": "rk4"}')
            argv = ["--config", "cfg.json", *argv]
        else:
            assert dispatch(argv) == 0
            with open("t.csv.manifest.json") as fh:
                manifest = json.load(fh)
            manifest["parameters"]["scheme"] = "exponential-midpoint"
            (workdir / "old.json").write_text(json.dumps(manifest))
            for name in ("t.csv", "t.csv.manifest.json"):
                os.remove(name)
            argv = ["--manifest", "old.json"]
        before = sorted(os.listdir(workdir))
        exits_two_with_one_line(argv, capsys, "scheme")
        assert sorted(os.listdir(workdir)) == before


class TestEvolveFromSnapshot:
    """With --in the snapshot fixes the grid and eta."""

    GRID = ["--dim", "1", "--points", "4", "--omega", "4", "--eta", "2"]
    RUN = ["--time", "0.1", "--steps", "3", "--out", "b.bin"]

    @pytest.fixture
    def snapshot(self, workdir):
        assert dispatch(["evolve", *self.GRID, "--time", "0.1", "--steps",
                         "2", "--out", "a.bin"]) == 0
        return workdir / "a.bin"

    def recorded(self, path):
        with open(f"{path}.manifest.json") as fh:
            return json.load(fh)["parameters"]

    def test_grid_flags_may_be_omitted(self, snapshot):
        (snapshot.parent / "nuclei.txt").write_text("1 0.3\n")  # 1-D line
        assert dispatch(["evolve", "--in", "a.bin", "--nuclei", "nuclei.txt",
                         "--soften", "0.5", *self.RUN]) == 0
        params = self.recorded("b.bin")
        assert [params[k] for k in ("dim", "points", "omega", "eta")] == [
            1, 4, 4.0, 2]
        digest = sha256("b.bin")
        assert dispatch(["--manifest", "b.bin.manifest.json"]) == 0
        assert sha256("b.bin") == digest

    def test_matching_flags_accepted(self, snapshot):
        assert dispatch(["evolve", "--in", "a.bin", *self.RUN]) == 0
        digest = sha256("b.bin")
        assert dispatch(["evolve", "--in", "a.bin", *self.GRID,
                         *self.RUN]) == 0
        assert sha256("b.bin") == digest

    @pytest.mark.parametrize("flag,value", [
        ("--dim", "3"), ("--points", "7"), ("--omega", "343"), ("--eta", "9")])
    def test_conflicting_flag_exits_two(self, snapshot, capsys, flag, value):
        assert dispatch(["evolve", "--in", "a.bin", flag, value,
                         *self.RUN]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and flag in err, err
        assert not (snapshot.parent / "b.bin").exists()


class TestPrepCommand:
    def test_verify_and_ledger(self, workdir, capsys):
        coeffs = random_orthonormal(6, 2, seed=5)
        write_coeffs("c.csv", coeffs)
        code = dispatch(["prep", "--coeffs", "c.csv", "--verify",
                         "--ledger-out", "ledger.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle overlap modulus: 1.0000" in out
        rows = {r[0]: r[1] for r in csv.reader(open("ledger.csv"))
                if r[0] != "primitive"}
        assert int(rows["total"]) == 6 * (3 * 2 + 2 - 2)

    def test_failed_verification_exits_three(self, workdir, capsys,
                                             monkeypatch):
        write_coeffs("c.csv", random_orthonormal(6, 2, seed=5))
        monkeypatch.setattr(cli, "verify_preparation",
                            lambda coeffs, result: (0.5, True))
        assert dispatch(["prep", "--coeffs", "c.csv", "--verify"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical assumption failed: preparation verification failed"]

    def test_output_beyond_dense_regime_exits_two(self, workdir, capsys):
        # 40^5 amplitudes would need terabytes; refused before any work
        write_coeffs("c.csv", random_orthonormal(40, 5, seed=405))
        assert dispatch(["prep", "--coeffs", "c.csv", "--verify",
                         "--ledger-out", "ledger.csv"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert not (workdir / "ledger.csv").exists()


    def test_verify_accepts_columns_the_orthonormal_check_accepts(
            self, workdir, capsys):
        # 2e-9 off unit norm per column: within the 1e-8 column check, so
        # the oracle must give a unit-norm state too
        write_coeffs("c.csv", random_orthonormal(4, 2, seed=3) * (1 + 1e-9))
        assert dispatch(["prep", "--coeffs", "c.csv", "--verify"]) == 0
        assert "oracle overlap modulus: 1.0000" in capsys.readouterr().out


class TestConfigPrecedence:
    def test_flags_override_config(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps(
            {"alpha-range": "1:2:1", "out": "unused.csv"}))
        assert dispatch(["--config", "cfg.json", "cost",
                         "--out", "real.csv"]) == 0
        rows = list(csv.reader(open("real.csv")))
        assert len(rows) == 3  # config supplied the range, flag the path


class TestShadowPipelineFunction:
    def test_zero_time_identity_orbitals(self):
        config = {
            "grid": {"dim": 1, "points": 4, "omega": 4.0},
            "coeffs": np.eye(4)[:, :2],
            "estimator": {"k": 1, "epsilon": 0.25, "delta": 0.1,
                          "samples": 6000},
            "elements": [((0,), (0,)), ((0,), (1,))],
            "seed": 5,
        }
        report = pipeline_shadow_experiment(config)
        assert report["within_variance_bound"]
        by_key = {r["i"] + r["j"]: r for r in report["elements"]}
        assert by_key[(0, 0)]["exact"] == pytest.approx(1.0)
        assert abs(by_key[(0, 0)]["estimate"] - 1.0) < 0.25
        assert report["variance_bound"] == pytest.approx(
            math.e ** 3 * 2 * (2 + 2 * math.e))

    def test_reports_are_seed_deterministic(self):
        config = {
            "grid": {"dim": 1, "points": 4, "omega": 4.0},
            "coeffs": np.eye(4)[:, :2],
            "estimator": {"k": 1, "epsilon": 0.4, "delta": 0.2,
                          "samples": 800},
            "elements": [((0,), (0,))],
            "seed": 9,
        }
        a = pipeline_shadow_experiment(config)
        b = pipeline_shadow_experiment(config)
        assert a["elements"][0]["estimate"] == b["elements"][0]["estimate"]

    def test_evolution_leg_runs(self):
        config = {
            "grid": {"dim": 1, "points": 4, "omega": 4.0},
            "coeffs": np.eye(4)[:, :2],
            "evolution": {"time": 0.2, "steps": 10, "order": 2,
                          "soften": 0.5},
            "estimator": {"k": 1, "epsilon": 0.4, "delta": 0.2,
                          "samples": 500},
            "elements": [((0,), (0,))],
            "seed": 2,
        }
        report = pipeline_shadow_experiment(config)
        assert "exact" in report["elements"][0]
        assert report["samples"] == 500

    @pytest.mark.parametrize("points,eta,estimator", [
        (8, 4, {"k": 2, "epsilon": 0.5, "delta": 0.2, "samples": 200}),
        (4, 2, {"k": 1, "epsilon": 0.5, "delta": 0.2, "samples": "abc"}),
    ], ids=["k2-all-1rdm", "text-samples"])
    def test_bad_estimator_refused(self, points, eta, estimator):
        config = {"grid": {"dim": 1, "points": points, "omega": float(points)},
                  "coeffs": np.eye(points)[:, :eta], "estimator": estimator,
                  "seed": 1}
        with pytest.raises(ValidationError):
            pipeline_shadow_experiment(config)

    def test_nan_coefficient_refused(self):
        coeffs = np.eye(4)[:, :2]
        coeffs[0, 0] = np.nan
        config = {"grid": {"dim": 1, "points": 4, "omega": 4.0},
                  "coeffs": coeffs, "seed": 1,
                  "estimator": {"k": 1, "epsilon": 0.5, "delta": 0.2,
                                "samples": 200}}
        with pytest.raises(NonOrthonormalInput):
            pipeline_shadow_experiment(config)


class TestElementsFile:
    def test_two_body_elements_from_file(self, workdir):
        assert dispatch(["evolve", "--dim", "1", "--points", "4", "--omega",
                         "4", "--eta", "2", "--soften", "0.5", "--time",
                         "0.1", "--steps", "5", "--out", "st.bin"]) == 0
        with open("elements.csv", "w") as fh:
            fh.write("0,1,0,1\n0,1,1,2\n")
        assert dispatch(["shadows", "--in", "st.bin", "--k", "2",
                         "--epsilon", "0.5", "--delta", "0.2", "--samples",
                         "600", "--seed", "8", "--elements", "elements.csv",
                         "--out", "two.csv"]) == 0
        rows = list(csv.reader(open("two.csv")))
        assert len(rows) == 3
        assert rows[1][0] == "0;1" and rows[1][1] == "0;1"

    def test_malformed_elements_rejected(self, workdir):
        assert dispatch(["evolve", "--dim", "1", "--points", "4", "--omega",
                         "4", "--eta", "2", "--soften", "0.5", "--time",
                         "0.1", "--steps", "5", "--out", "st2.bin"]) == 0
        with open("bad.csv", "w") as fh:
            fh.write("0,1,2\n")
        assert dispatch(["shadows", "--in", "st2.bin", "--k", "2",
                         "--epsilon", "0.5", "--delta", "0.2", "--samples",
                         "200", "--seed", "8", "--elements", "bad.csv",
                         "--out", "x.csv"]) == 2
        # negative, out-of-range and non-integer labels on the N=4 grid
        for row in ("-1,0", "9,0", "a,0"):
            with open("bad1.csv", "w") as fh:
                fh.write(row + "\n")
            assert dispatch(["shadows", "--in", "st2.bin", "--k", "1",
                             "--epsilon", "0.5", "--delta", "0.2", "--samples",
                             "200", "--seed", "8", "--elements", "bad1.csv",
                             "--out", "x.csv"]) == 2

    def test_comments_blank_lines_and_crlf_read_as_the_plain_file(
            self, workdir):
        assert dispatch([*EVOLVE_N5, "--eta", "2"]) == 0
        (workdir / "plain.csv").write_text("0,1\n2,3\n")
        (workdir / "noted.csv").write_bytes(
            b"# bra,ket\r\n\r\n0,1  # first\r\n   \r\n 2, 3\r\n# end")
        for name in ("plain", "noted"):
            assert dispatch(["shadows", "--in", "st5.bin", "--epsilon", "0.5",
                             "--delta", "0.2", "--samples", "200", "--elements",
                             f"{name}.csv", "--out", f"{name}.out.csv"]) == 0
        assert sha256("noted.out.csv") == sha256("plain.out.csv")

    @pytest.mark.parametrize("row", ["0,7", "5,5"])
    def test_padding_labels_exit_two(self, workdir, capsys, row):
        # N = 5 orbitals in registers of 2^3: labels 5..7 are padding
        assert dispatch([*EVOLVE_N5, "--eta", "2"]) == 0
        (workdir / "pad.csv").write_text(row + "\n")
        exits_two_with_one_line(
            ["shadows", "--in", "st5.bin", "--epsilon", "0.5", "--delta",
             "0.2", "--samples", "200", "--elements", "pad.csv",
             "--out", "x.csv"], capsys, "0..4")
        assert not (workdir / "x.csv").exists()

    @pytest.mark.parametrize("text", ["", "# nothing\n\n"],
                             ids=["empty", "comments-only"])
    def test_no_elements_exit_two_before_any_draw(self, workdir, capsys,
                                                  text):
        assert dispatch([*EVOLVE_N5, "--eta", "2"]) == 0
        (workdir / "e.csv").write_text(text)
        exits_two_with_one_line(
            ["shadows", "--in", "st5.bin", "--epsilon", "0.5", "--delta",
             "0.2", "--samples", "200", "--elements", "e.csv",
             "--out", "x.csv", "--dump-samples", "d.csv"],
            capsys, "e.csv", "holds no rows")
        assert not (workdir / "x.csv").exists()
        assert not (workdir / "d.csv").exists()


EVOLVE_N5 = ["evolve", "--dim", "1", "--points", "5", "--omega", "5",
             "--time", "0.1", "--steps", "2", "--out", "st5.bin"]


@pytest.mark.parametrize("flag,value,needle", [
    ("--k", "0", "k must lie in 1..2, got 0"),
    ("--k", "3", "k must lie in 1..2, got 3"),
    ("--epsilon", "7", "epsilon must lie in (0, 1], got 7.0"),
    ("--epsilon", "0", "epsilon must lie in (0, 1], got 0.0"),
    ("--delta", "0", "delta must lie in (0, 1), got 0.0"),
    ("--delta", "1", "delta must lie in (0, 1), got 1.0"),
], ids=["k-0", "k-3", "epsilon-7", "epsilon-0", "delta-0", "delta-1"])
def test_bad_readout_parameter_one_line_on_both_sample_paths(
        workdir, capsys, flag, value, needle):
    assert dispatch([*EVOLVE_N5, "--eta", "2"]) == 0
    flags = {"--k": "1", "--epsilon": "0.5", "--delta": "0.2", flag: value}
    errors = []
    for samples in ("auto", "200"):
        argv = ["shadows", "--in", "st5.bin", "--samples", samples,
                "--out", "x.csv", *(part for item in flags.items()
                                    for part in item)]
        assert dispatch(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].splitlines() == [f"error: {needle}"], errors
    assert errors[1] == errors[0]


@pytest.mark.parametrize("seed", ["-1", "-2147483648"])
def test_negative_shadow_seed_refused_before_the_snapshot_is_read(
        workdir, capsys, monkeypatch, seed):
    def read(*args, **kwargs):
        raise AssertionError("the snapshot was read")
    monkeypatch.setattr(cli, "load_state", read)
    exits_two_with_one_line(
        ["shadows", "--in", "a.bin", "--k", "1", "--epsilon", "0.1", "--delta",
         "0.05", "--samples", "100", "--seed", seed, "--elements", "all-1rdm",
         "--out", "e.csv"], capsys, "--seed", seed)
    assert not (workdir / "e.csv").exists()


@pytest.mark.parametrize("k", ["0", "3"])
@pytest.mark.parametrize("elements", ["all-1rdm", "e.csv"])
def test_k_outside_eta_refused_before_the_elements_are_read(
        workdir, capsys, k, elements):
    # an element file is split into rows of 2k labels; k is checked first
    assert dispatch([*EVOLVE_N5, "--eta", "2"]) == 0
    (workdir / "e.csv").write_text("0,1\n")
    exits_two_with_one_line(
        ["shadows", "--in", "st5.bin", "--k", k, "--epsilon", "0.5",
         "--delta", "0.2", "--samples", "200", "--elements", elements,
         "--out", "x.csv"], capsys, f"error: k must lie in 1..2, got {k}")
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("flag", ["--out", "--dump-samples"])
def test_unwritable_shadow_output_refused_before_sampling(
        workdir, capsys, monkeypatch, flag):
    # one line and exit 2 before any sample is drawn, and no estimates
    # CSV is left behind without its manifest
    assert dispatch([*EVOLVE_N5, "--eta", "2"]) == 0

    def drawn(*args, **kwargs):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(shadows, "derive_rng", drawn)
    paths = {"--out": "est.csv", "--dump-samples": "raw.csv",
             flag: str(workdir / "no" / "such" / "x.csv")}
    exits_two_with_one_line(
        ["shadows", "--in", "st5.bin", "--epsilon", "0.5", "--delta", "0.2",
         "--samples", "200", *(part for item in paths.items() for part in item)],
        capsys, "error: ", "x.csv")
    assert sorted(p.name for p in workdir.iterdir()) == [
        "st5.bin", "st5.bin.manifest.json"]


@pytest.fixture
def never(monkeypatch):
    """Patches the named work functions of the CLI to fail if called."""
    def patch(*names):
        for name in names:
            def called(*args, name=name, **kwargs):
                raise AssertionError(f"{name} ran before the path check")
            monkeypatch.setattr(cli, name, called)
    return patch


class TestOutputPathCheckedFirst:
    """An output path that cannot be written is refused before any work:
    exit 2, one line, and no file left behind."""

    UNWRITABLE = "/no/such/dir/out"

    def refused(self, argv, workdir, capsys):
        before = sorted(os.listdir(workdir))
        exits_two_with_one_line(argv, capsys, "error: ", self.UNWRITABLE)
        assert sorted(os.listdir(workdir)) == before

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_evolve(self, workdir, capsys, never, snapshot):
        argv = ["evolve", "--time", "0.1", "--steps", "2",
                "--out", self.UNWRITABLE]
        if snapshot:
            assert dispatch([*EVOLVE_N5, "--eta", "2"]) == 0
            argv += ["--in", "st5.bin"]
        else:
            argv += ["--dim", "1", "--points", "5", "--omega", "5", "--eta",
                     "2"]
        never("load_state", "_hamiltonian", "evolve_block")
        self.refused(argv, workdir, capsys)

    def test_tdhf(self, workdir, capsys, never):
        never("_hamiltonian", "core_guess", "evolve_tdhf")
        self.refused(["tdhf", "--dim", "1", "--points", "8", "--omega", "16",
                      "--eta", "3", "--time", "0.1", "--steps", "2",
                      "--out", self.UNWRITABLE], workdir, capsys)

    def test_prep_ledger(self, workdir, capsys, never):
        write_coeffs("c.csv", random_orthonormal(6, 2, seed=5))
        never("_load_coeffs", "prepare_slater")
        self.refused(["prep", "--coeffs", "c.csv", "--verify",
                      "--ledger-out", self.UNWRITABLE], workdir, capsys)

    @pytest.mark.parametrize("mode", [["--query", "343,2,0.5,0.01"],
                                      ["--alpha-range", "1:8:0.25"]])
    def test_cost(self, workdir, capsys, never, mode):
        never("cost_report", "regime_table")
        self.refused(["cost", *mode, "--out", self.UNWRITABLE], workdir,
                     capsys)


class TestFileNamedTwice:
    """An output that names an input or another output, compared by real
    path, is refused before any work: exit 2, one line, and every file is
    left as it was."""

    SHADOWS = ["shadows", "--in", "st5.bin", "--epsilon", "0.5", "--delta",
               "0.2", "--samples", "200"]

    @pytest.fixture
    def files(self, workdir):
        assert dispatch([*EVOLVE_N5, "--eta", "2"]) == 0
        write_coeffs("c.csv", random_orthonormal(5, 2, seed=5))
        (workdir / "e.csv").write_text("0,1\n")
        os.symlink("st5.bin", "link.bin")
        return workdir

    def refused(self, argv, workdir, capsys, *needles):
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        exits_two_with_one_line(argv, capsys, "error: ", *needles)
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before

    @pytest.mark.parametrize("out", ["st5.bin", "link.bin"])
    def test_evolve_onto_its_snapshot(self, files, capsys, never, out):
        never("load_state", "_hamiltonian", "evolve_block")
        self.refused(["evolve", "--in", "st5.bin", "--time", "0.1", "--steps",
                      "2", "--out", out], files, capsys, f"--out {out}", "--in")

    def test_tdhf_onto_its_coefficients(self, files, capsys, never):
        # one spelling relative, the other absolute
        never("_load_coeffs", "_hamiltonian", "core_guess", "evolve_tdhf")
        self.refused(["tdhf", "--dim", "1", "--points", "5", "--omega", "5",
                      "--coeffs", "c.csv", "--time", "0.1", "--steps", "2",
                      "--out", str(files / "c.csv")], files, capsys,
                     "--out", "--coeffs")

    def test_prep_ledger_onto_its_coefficients(self, files, capsys, never):
        never("_load_coeffs", "prepare_slater")
        self.refused(["prep", "--coeffs", "c.csv", "--verify", "--ledger-out",
                      "./c.csv"], files, capsys, "--ledger-out", "--coeffs")

    @pytest.mark.parametrize("flag", ["--out", "--dump-samples"])
    def test_shadows_onto_its_snapshot(self, files, capsys, never, flag):
        never("load_state", "read_out")
        paths = {"--out": "est.csv", "--dump-samples": "raw.csv",
                 flag: "st5.bin"}
        self.refused([*self.SHADOWS, *(part for item in paths.items()
                                       for part in item)],
                     files, capsys, flag, "--in")

    def test_shadows_onto_its_elements(self, files, capsys, never):
        never("load_state", "read_out")
        self.refused([*self.SHADOWS, "--elements", "e.csv", "--out", "e.csv"],
                     files, capsys, "--out", "--elements")

    def test_estimates_onto_the_sample_dump(self, files, capsys, never):
        never("load_state", "read_out")
        self.refused([*self.SHADOWS, "--out", "x.csv", "--dump-samples",
                      "x.csv"], files, capsys, "--dump-samples", "--out")


class TestManifestBytesPinned:
    """SHA-256 of the manifest JSON of each subcommand form, recorded
    while each subcommand still wrote its own manifests: the manifests
    written from the file table are the same bytes. The digests inside
    follow the pinned output bytes of evolve, tdhf and shadows. Re-recorded
    at tool_version 0.3.0, the only line that changed."""

    FORMS = {
        "evolve": (["evolve", "--dim", "1", "--points", "4", "--omega", "4",
                    "--eta", "2", "--nuclei", "nuclei.txt", "--soften", "0.5",
                    "--time", "0.1", "--steps", "3", "--seed", "7",
                    "--out", "e.bin"],
            "ee876696a0cfa5de13a8736d4ea4a9951b3d4825aac73fe0c57f310971bada68"),
        "evolve-in": (["evolve", "--in", "a.bin", "--nuclei", "nuclei.txt",
                       "--time", "0.1", "--steps", "2", "--order", "4",
                       "--out", "b.bin"],
            "42a4363b7301df321b5e67f101c3e291ca525d5f63c44c1c4017d6e49f8c2617"),
        "tdhf": (["tdhf", "--dim", "1", "--points", "4", "--omega", "4",
                  "--nuclei", "nuclei.txt", "--coeffs", "c.csv", "--time",
                  "0.1", "--steps", "3", "--observables", "energy,rdm-diag",
                  "--out", "t.csv"],
            "d137f32f281ded166cb6b29ebde22c26be07e264156459da59ac553e4968eae2"),
        "prep": (["prep", "--coeffs", "c.csv", "--verify", "--ledger-out",
                  "ledger.csv"],
            "e5c60d7cd217e7d6412b518e91f8e4853f23c3c3f5f5cf91ae17eaf1783009d0"),
        "shadows": (["shadows", "--in", "a.bin", "--epsilon", "0.3",
                     "--delta", "0.1", "--samples", "200", "--seed", "3",
                     "--elements", "e.csv", "--out", "est.csv",
                     "--dump-samples", "raw.csv"],
            "f21751bcc5513dee7dd0d21174b03eea19c1b3ac1e82b29b4948bc2dc8abe8d2"),
        "cost-query": (["cost", "--query", "343,2,0.5,0.01", "--out",
                        "q.json"],
            "74ff4a78f3ac410712f347bfda51474a4b3eae5ccc6b0a458df446677c148311"),
        "cost-alpha-range": (["cost", "--alpha-range", "1:3:0.5", "--out",
                              "s.csv"],
            "92297e758c5915ee657e705ec5906fe0ddfc18699819258998439d96a6ce35b2"),
    }

    @pytest.mark.parametrize("form", list(FORMS))
    def test_manifest_digest(self, workdir, form):
        (workdir / "nuclei.txt").write_text("1 0.3\n")
        (workdir / "c.csv").write_text("1,0,0,0\n0,0,1,0\n0,0,0,0\n0,0,0,0\n")
        (workdir / "e.csv").write_text("0,1\n2,2\n")
        assert dispatch(["evolve", "--dim", "1", "--points", "4", "--omega",
                         "4", "--eta", "2", "--time", "0.1", "--steps", "2",
                         "--out", "a.bin"]) == 0
        argv, digest = self.FORMS[form]
        assert dispatch(argv) == 0
        outputs = [argv[i + 1] for i, flag in enumerate(argv)
                   if flag in ("--out", "--ledger-out", "--dump-samples")]
        for out in outputs:
            assert sha256(f"{out}.manifest.json") == digest, out


class TestSampleDumpPinned:
    """SHA-256 of --dump-samples CSVs of 300 samples from a Slater
    determinant of eta = 2 on a 1-D grid, recorded when a batch held one
    key string per sample and register: key text formed only at the dump
    writes the same bytes. The dump reads back as the batch it came from.
    """

    DUMPS = {
        4: "96965b8cc019be5ce30db48870d7a81b154012a616f2fce1863a910278bd1a45",  # t2
        8: "13fb9e7e09326cb78867e73cdabb1adeb728ac3e99d9e84a358f61fa2ff31eba",  # c3
    }

    @pytest.mark.parametrize("n_orbitals", list(DUMPS))
    def test_dump_bytes_and_round_trip(self, workdir, n_orbitals):
        grid = GridSpec(1, n_orbitals, float(n_orbitals))
        save_state("st.bin", slater_oracle(
            random_orthonormal(n_orbitals, 2, seed=9), grid=grid))
        assert dispatch(["shadows", "--in", "st.bin", "--epsilon", "0.3",
                         "--delta", "0.1", "--samples", "300", "--seed", "4",
                         "--out", "est.csv", "--dump-samples", "raw.csv"]) == 0
        assert sha256("raw.csv") == self.DUMPS[n_orbitals]
        with open("raw.csv", newline="") as fh:
            header, *lines = csv.reader(fh)
        assert header == ["cliffords", "outcomes"]
        rebuilt = shadows.samples_from_keys(
            [(keys.split("|"), outcomes.split("|")) for keys, outcomes in lines],
            n_orbitals)
        batch = shadows.collect_shadows(load_state("st.bin"), 300, seed=4)
        assert rebuilt.keys.tolist() == batch.keys.tolist()
        assert np.array_equal(rebuilt.outcomes, batch.outcomes)
        assert rebuilt.rows.tobytes() == batch.rows.tobytes()


class TestMalformedInputs:
    @pytest.fixture
    def inputs(self, workdir):
        assert dispatch(["evolve", "--dim", "1", "--points", "4", "--omega",
                         "4", "--eta", "2", "--time", "0.1", "--steps", "2",
                         "--out", "st.bin"]) == 0
        (workdir / "cfg.json").write_text("{not json")
        (workdir / "coeffs.csv").write_text("1,0\nx,0\n")
        (workdir / "params.json").write_text(json.dumps(
            {"subcommand": "cost", "parameters": "query"}))
        (workdir / "inf.csv").write_text("1,0,0,0\n0,0,1,inf\n0,0,0,0\n0,0,0,0\n")
        (workdir / "nul.json").write_text(json.dumps({"dump-samples": "x\0"}))
        (workdir / "list.json").write_text(json.dumps({"subcommand": []}))
        (workdir / "nul-input.json").write_text(json.dumps(
            {"subcommand": "cost", "inputs": {"x\0": ""}}))
        (workdir / "huge-charge.txt").write_text("1e308 0.3\n")
        # off the grid points U stays finite, but the energy sum would not
        (workdir / "huge-charge-off-grid.txt").write_text("1e308 1.7\n")
        save_state(workdir / "product.bin", basis_state(
            2, 4, (0, 1), grid=GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)))
        return workdir

    @pytest.mark.parametrize("argv", [
        ["shadows", "--in", "missing.bin", "--epsilon", "0.5", "--delta",
         "0.2", "--samples", "200", "--out", "x.csv"],
        ["--manifest", "missing.json"],
        ["--config", "cfg.json", "cost", "--query", "1000,10,1,0.1"],
        ["prep", "--coeffs", "coeffs.csv"],
        ["shadows", "--in", "st.bin", "--epsilon", "0.5", "--delta", "0.2",
         "--samples", "abc", "--out", "x.csv"],
        ["cost", "--query", "a,b,c,d"],
        ["cost", "--query", "1,,1,0.1"],
        ["cost", "--query", "4,2,nan,0.1"],
        ["cost", "--query", "4,2,1,0.1,inf"],
        ["cost", "--query", "4.5,2,1,0.1"],
        ["cost", "--query", "4,1.5,1,0.1"],
        ["cost", "--query", "1000,10,1,0.1,,,,,1,99,zz"],
        ["--manifest", "params.json"],
        ["shadows", "--in", "st.bin", "--epsilon", "0.5", "--delta", "0",
         "--samples", "200", "--out", "x.csv"],
        ["shadows", "--in", "st.bin", "--epsilon", "-1", "--delta", "0.05",
         "--samples", "200", "--out", "x.csv"],
        ["shadows", "--in", "st.bin", "--epsilon", "0", "--delta", "0.05",
         "--samples", "200", "--out", "x.csv"],
        ["shadows", "--in", "st.bin", "--epsilon", "7", "--delta", "0.05",
         "--samples", "200", "--out", "x.csv"],
        ["shadows", "--in", "product.bin", "--epsilon", "0.5", "--delta",
         "0.2", "--samples", "200", "--out", "x.csv"],
        EVOLVE_N5 + ["--eta", "0"],
        EVOLVE_N5 + ["--eta", "6"],
        EVOLVE_N5 + ["--eta", "-1"],
        ["tdhf", "--points", "5", "--omega", "5", "--eta", "7", "--time",
         "0.1", "--steps", "2", "--out", "t.csv"],
        # 2^16 x 2^16 stored amplitudes, refused before the state is formed
        ["evolve", "--dim", "3", "--points", "40", "--omega", "64000",
         "--eta", "2", "--time", "0.1", "--steps", "1", "--out", "big.bin"],
        ["cost", "--alpha-range", "1:8:0", "--out", "s.csv"],
        ["cost", "--alpha-range", "1:8:-1", "--out", "s.csv"],
        ["cost", "--alpha-range", "8:1:1", "--out", "s.csv"],
        ["cost", "--alpha-range", "1:inf:1", "--out", "s.csv"],
        ["cost", "--alpha-range", "1:2:1", "--out", "no-such-dir/s.csv"],
        ["cost", "--alpha-range", "1:2:0.5", "--query", "4,2,1,0.1",
         "--out", "c.csv"],
        ["prep", "--coeffs", "inf.csv"],
        ["--config", "nul.json", "shadows", "--in", "st.bin", "--epsilon",
         "0.5", "--delta", "0.2", "--samples", "200", "--out", "x.csv"],
        ["--manifest", "list.json"],
        ["--manifest", "nul-input.json"],
        ["evolve", "--dim", "1", "--points", "4", "--omega", "4", "--eta",
         "2", "--nuclei", "huge-charge.txt", "--time", "0.1", "--steps", "1",
         "--out", "e.bin"],
        ["tdhf", "--dim", "1", "--points", "4", "--omega", "4", "--eta", "2",
         "--nuclei", "huge-charge.txt", "--time", "0.1", "--steps", "1",
         "--out", "t.csv"],
        ["tdhf", "--dim", "1", "--points", "4", "--omega", "4", "--eta", "2",
         "--nuclei", "huge-charge-off-grid.txt", "--soften", "0.5", "--time",
         "0.1", "--steps", "1", "--out", "t.csv"],
        # steps + 1 rows of times and energies, refused before allocation
        ["tdhf", "--dim", "1", "--points", "4", "--omega", "4", "--eta", "1",
         "--time", "1", "--steps", "100000000000", "--out", "t.csv"],
    ], ids=["missing-in", "missing-manifest", "bad-config", "bad-coeffs",
            "bad-samples", "bad-query", "empty-query-field", "nan-query-field",
            "inf-query-field", "fractional-query-n", "fractional-query-eta",
            "query-beyond-nine-fields", "manifest-parameters-not-object",
            "zero-delta", "negative-epsilon", "zero-epsilon",
            "epsilon-above-one", "not-antisymmetric",
            "evolve-eta-zero", "evolve-eta-above-n", "evolve-eta-negative",
            "tdhf-eta-above-n", "evolve-beyond-dense", "alpha-zero-step",
            "alpha-negative-step", "alpha-empty-range", "alpha-infinite",
            "unwritable-out", "cost-both-modes", "inf-imaginary-coeff",
            "nul-in-an-output-name", "manifest-subcommand-a-list",
            "nul-in-a-replay-input", "evolve-huge-charge", "tdhf-huge-charge",
            "tdhf-huge-charge-off-grid", "tdhf-steps-beyond-the-budget"])
    def test_exit_two_with_one_line(self, inputs, capsys, argv):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert not (inputs / "e.bin").exists()
        assert not (inputs / "t.csv").exists()

    @pytest.mark.parametrize("argv", [
        EVOLVE_N5 + ["--eta", "2", "--nuclei", "latin1.txt"],
        ["prep", "--coeffs", "latin1.txt"],
        ["shadows", "--in", "st.bin", "--epsilon", "0.5", "--delta", "0.2",
         "--samples", "200", "--elements", "latin1.txt", "--out", "x.csv"],
        ["--config", "latin1.txt", "cost", "--query", "4,2,1,0.1"],
        ["--manifest", "latin1.txt"],
    ], ids=["nuclei", "coeffs", "elements", "config", "manifest"])
    def test_non_utf8_input_exits_two_naming_the_file(self, inputs, capsys,
                                                      argv):
        # each input is decoded as UTF-8 whatever the locale
        (inputs / "latin1.txt").write_bytes(b"# caf\xe9\n")
        exits_two_with_one_line(argv, capsys, "latin1.txt", "UTF-8")

    @pytest.mark.parametrize("argv,text,needle", [
        (["prep", "--coeffs", "f.csv"], "1,0\n0,1,0\n", "equal rows"),
        (["prep", "--coeffs", "f.csv"], "1,0\n\n0,x\n", "f.csv line 3"),
        (["shadows", "--in", "st.bin", "--k", "1", "--epsilon", "0.5",
          "--delta", "0.2", "--samples", "200", "--elements", "f.csv",
          "--out", "x.csv"], "0,1\n1,2,\n", "f.csv line 2"),
        (["shadows", "--in", "st.bin", "--k", "1", "--epsilon", "0.5",
          "--delta", "0.2", "--samples", "200", "--elements", "f.csv",
          "--out", "x.csv"], '# bra,ket\n"0",1\n', "f.csv line 2"),
        (EVOLVE_N5 + ["--eta", "2", "--nuclei", "f.csv"], "1 0.3\n1 x\n",
         "f.csv line 2"),
    ], ids=["ragged-coeffs", "coeffs-letter", "elements-trailing-comma",
            "elements-quoted", "nuclei-letter"])
    def test_field_or_row_refused_naming_the_file(self, inputs, capsys, argv,
                                                  text, needle):
        (inputs / "f.csv").write_text(text)
        exits_two_with_one_line(argv, capsys, needle)


def exits_two_with_one_line(argv, capsys, *needles):
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert all(needle in err for needle in needles), err


TDHF_N4 = ["tdhf", "--dim", "1", "--points", "4", "--omega", "4",
           "--time", "0.1", "--steps", "2", "--out", "t.csv"]


class TestNonFiniteInputs:
    """A non-finite or out-of-range number, or none at all, is refused where
    it is read: exit 2, one line."""

    @pytest.mark.parametrize("command", ["evolve", "tdhf"])
    @pytest.mark.parametrize("charge", ["inf", "nan"])
    def test_nuclear_charge(self, workdir, capsys, command, charge):
        (workdir / "nuclei.txt").write_text(f"{charge} 0.3\n")
        argv = EVOLVE_N5 if command == "evolve" else TDHF_N4
        exits_two_with_one_line([*argv, "--eta", "2", "--nuclei", "nuclei.txt",
                                 "--soften", "0.5"], capsys, "charge")

    @pytest.mark.parametrize("command", ["tdhf", "prep"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_coefficient(self, workdir, capsys, command, value):
        coeffs = random_orthonormal(4, 2, seed=3)
        write_coeffs("c.csv", coeffs)
        lines = open("c.csv").read().splitlines()
        lines[1] = ",".join([value] + lines[1].split(",")[1:])
        (workdir / "c.csv").write_text("\n".join(lines) + "\n")
        argv = TDHF_N4 if command == "tdhf" else ["prep", "--verify"]
        exits_two_with_one_line([*argv, "--coeffs", "c.csv"], capsys,
                                "non-finite")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["tdhf", "prep"])
    def test_coefficient_of_modulus_above_one(self, workdir, capsys, command):
        # 1e308 entries would overflow the Gram product C^H C
        write_coeffs("c.csv", np.full((4, 2), 1e308 + 0j))
        argv = TDHF_N4 if command == "tdhf" else ["prep", "--verify"]
        exits_two_with_one_line([*argv, "--coeffs", "c.csv"], capsys,
                                "modulus")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["tdhf", "prep"])
    def test_empty_coefficient_file(self, workdir, capsys, command):
        (workdir / "empty.csv").write_text("")
        argv = TDHF_N4 if command == "tdhf" else ["prep", "--verify"]
        exits_two_with_one_line([*argv, "--coeffs", "empty.csv"], capsys,
                                "empty.csv", "no rows")

    def test_time_step_overflowing_the_phases(self, workdir, capsys):
        # |t k^2/2| overflows at t = 1e308, and the phases would be NaN
        exits_two_with_one_line(
            ["evolve", "--dim", "1", "--points", "4", "--omega", "4", "--eta",
             "2", "--time", "1e308", "--steps", "1", "--out", "a.bin"],
            capsys, "time step overflow")
        assert not (workdir / "a.bin").exists()

    @pytest.mark.filterwarnings("error")
    def test_tdhf_time_step_overflowing_the_taylor_plan(self, workdir, capsys):
        # a finite norm bound whose substep count overflows math.ceil
        exits_two_with_one_line(
            ["tdhf", "--dim", "1", "--points", "6", "--omega", "6", "--eta",
             "3", "--time", "1e300", "--steps", "2", "--out", "t.csv"],
            capsys, "use more steps")
        assert not (workdir / "t.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["evolve", "tdhf"])
    def test_cell_volume_overflowing_the_kinetic_energy(self, workdir, capsys,
                                                        command):
        # |k|^2 overflows on a cell of volume 1e-300: refused before a
        # table is squared, so no numpy warning precedes the line
        exits_two_with_one_line(
            [command, "--dim", "1", "--points", "5", "--omega", "1e-300",
             "--eta", "2", "--time", "0.1", "--steps", "1", "--out", "b.out"],
            capsys, "kinetic energy", "1e-300")
        assert not (workdir / "b.out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["evolve", "tdhf"])
    @pytest.mark.parametrize("omega,nucleus", [("1e300", None),
                                               ("16", "1 1e308\n")])
    def test_geometry_whose_distances_overflow(self, workdir, capsys, command,
                                               omega, nucleus):
        # a cell of volume 1e300 or a nucleus at 1e308: squared distances
        # overflow, refused before a table takes one
        argv = [command, "--dim", "1", "--points", "8", "--omega", omega,
                "--eta", "2", "--time", "0.1", "--steps", "1",
                "--out", "d.out"]
        if nucleus:
            (workdir / "far.txt").write_text(nucleus)
            argv += ["--nuclei", "far.txt"]
        exits_two_with_one_line(argv, capsys, "distances", "overflow")
        assert not (workdir / "d.out").exists()

    def test_orbitals_and_nuclei_refuse_non_finite(self):
        from fqlab.errors import ValidationError
        from fqlab.hamiltonian import NuclearConfig
        from fqlab.meanfield import OccupiedOrbitals
        coeffs = random_orthonormal(4, 2, seed=3)
        coeffs[0, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            OccupiedOrbitals(coeffs)
        with pytest.raises(ValidationError, match="finite"):
            NuclearConfig(np.array([[0.3]]), np.array([np.inf]))


class TestTdhfEtaFromCoefficients:
    """With --coeffs the CSV's column pairs fix eta."""

    @pytest.fixture
    def coeffs(self, workdir):
        write_coeffs("c.csv", random_orthonormal(4, 2, seed=12))  # 4 x 2
        return workdir / "c.csv"

    def recorded_eta(self):
        with open("t.csv.manifest.json") as fh:
            return json.load(fh)["parameters"]["eta"]

    def test_eta_may_be_omitted_and_is_recorded(self, coeffs):
        assert dispatch([*TDHF_N4, "--coeffs", "c.csv"]) == 0
        assert self.recorded_eta() == 2
        digest = sha256("t.csv")
        assert dispatch(["--manifest", "t.csv.manifest.json"]) == 0
        assert sha256("t.csv") == digest

    def test_matching_eta_accepted(self, coeffs):
        assert dispatch([*TDHF_N4, "--coeffs", "c.csv", "--eta", "2"]) == 0
        assert self.recorded_eta() == 2

    def test_disagreeing_eta_flag_exits_two(self, coeffs, capsys):
        exits_two_with_one_line([*TDHF_N4, "--coeffs", "c.csv", "--eta", "3"],
                                capsys, "--eta")
        assert not (coeffs.parent / "t.csv").exists()

    def test_disagreeing_eta_in_config_exits_two(self, coeffs, capsys):
        (coeffs.parent / "cfg.json").write_text(json.dumps({"eta": 3}))
        exits_two_with_one_line(["--config", "cfg.json", *TDHF_N4,
                                 "--coeffs", "c.csv"], capsys, "--eta")

    def test_row_count_must_match_grid(self, coeffs, capsys):
        argv = [*TDHF_N4, "--coeffs", "c.csv"]
        argv[argv.index("--points") + 1] = "5"
        exits_two_with_one_line(argv, capsys, "rows")


class TestParameterCasts:
    """A config value of the wrong kind exits 2 naming its key."""

    @pytest.fixture
    def inputs(self, workdir):
        assert dispatch(["evolve", "--dim", "1", "--points", "4", "--omega",
                         "4", "--eta", "2", "--time", "0.1", "--steps", "2",
                         "--out", "st.bin"]) == 0
        write_coeffs("c.csv", random_orthonormal(4, 2, seed=5))
        return workdir

    @pytest.mark.parametrize("config,argv", [
        ({"points": "abc"}, ["evolve", "--dim", "1", "--omega", "4", "--eta",
                             "2", "--time", "0.1", "--steps", "2",
                             "--out", "e.bin"]),
        ({"steps": 2.5}, ["tdhf", "--dim", "1", "--points", "4", "--omega",
                          "4", "--eta", "2", "--time", "0.1", "--out", "t.csv"]),
        ({"steps": True}, ["tdhf", "--dim", "1", "--points", "4", "--omega",
                           "4", "--eta", "2", "--time", "0.1", "--out", "t.csv"]),
        ({"omega": False}, ["evolve", "--dim", "1", "--points", "4", "--eta",
                            "2", "--time", "0.1", "--steps", "2",
                            "--out", "e.bin"]),
        ({"epsilon": "NaN"}, ["shadows", "--in", "st.bin", "--delta", "0.2",
                              "--samples", "200", "--out", "s.csv"]),
        ({"verify": "yes"}, ["prep", "--coeffs", "c.csv"]),
        ({"out": ["a"]}, ["evolve", "--dim", "1", "--points", "4", "--omega",
                          "4", "--eta", "2", "--time", "0.1", "--steps", "2"]),
        ({"out": 7}, ["shadows", "--in", "st.bin", "--epsilon", "0.5",
                      "--delta", "0.2", "--samples", "200"]),
        ({"nuclei": True}, ["tdhf", "--dim", "1", "--points", "4", "--omega",
                            "4", "--eta", "2", "--time", "0.1", "--steps",
                            "2", "--out", "t.csv"]),
        ({"in": ["a"]}, EVOLVE_N5),
        ({"coeffs": ["a"]}, ["tdhf", "--dim", "1", "--points", "4", "--omega",
                             "4", "--time", "0.1", "--steps", "2",
                             "--out", "t.csv"]),
    ], ids=["evolve", "tdhf", "tdhf-bool-int", "evolve-bool-float", "shadows",
            "prep", "text-list", "text-int", "text-bool", "snapshot-list",
            "coeffs-list"])
    def test_bad_config_value_exits_two(self, inputs, capsys, config, argv):
        (inputs / "cfg.json").write_text(json.dumps(config))
        key, = config
        exits_two_with_one_line(["--config", "cfg.json", *argv], capsys,
                                f"--{key}")


class TestReplayInputDigests:
    """A replay first checks every recorded input against its digest."""

    @pytest.fixture
    def recorded(self, workdir):
        (workdir / "nuclei.txt").write_text("2 0.4\n")
        assert dispatch(["evolve", "--dim", "1", "--points", "5", "--omega",
                         "5", "--eta", "2", "--nuclei", "nuclei.txt",
                         "--soften", "0.5", "--time", "0.1", "--steps", "5",
                         "--out", "state.bin"]) == 0
        return {name: sha256(name)
                for name in ("state.bin", "state.bin.manifest.json")}

    def test_changed_input_exits_two_and_writes_nothing(self, workdir, capsys,
                                                        recorded):
        (workdir / "nuclei.txt").write_text("2 0.6\n")
        exits_two_with_one_line(["--manifest", "state.bin.manifest.json"],
                                capsys, "nuclei.txt")
        assert {name: sha256(name) for name in recorded} == recorded

    def test_missing_input_exits_two(self, workdir, capsys, recorded):
        (workdir / "nuclei.txt").unlink()
        exits_two_with_one_line(["--manifest", "state.bin.manifest.json"],
                                capsys, "nuclei.txt")
        assert {name: sha256(name) for name in recorded} == recorded

    def test_unchanged_input_replays(self, workdir, recorded):
        assert dispatch(["--manifest", "state.bin.manifest.json"]) == 0
        assert {name: sha256(name) for name in recorded} == recorded


class TestUsageErrors:
    """Every usage error, argparse's included, is one line and exit 2."""

    @pytest.mark.parametrize("argv,needle", [
        (["--threads", "abc", "cost", "--query", "1000,10,1,0.1"], "--threads"),
        (["--threads", "0", "cost", "--query", "1000,10,1,0.1"], "--threads"),
        (["--threads", "-1", "cost", "--query", "1000,10,1,0.1"], "--threads"),
        (["--threads", "1.5", "cost", "--query", "1000,10,1,0.1"], "--threads"),
        (["cost", "--frobnicate", "1"], "--frobnicate"),
        (["frobnicate"], "frobnicate"),
        ([], "subcommand"),
        (["evolve", "--steps", "abc"], "--steps"),
        (["evolve", "--steps"], "--steps"),
        ([*EVOLVE_N5[:-4], "--eta", "2", "--ste", "2", "--out", "e.bin"],
         "--ste"),
        (["--config", "ste.json", *EVOLVE_N5, "--eta", "2"], "ste"),
    ], ids=["threads-text", "threads-zero", "threads-negative",
            "threads-fraction", "unknown-flag", "unknown-subcommand",
            "no-subcommand", "typed-flag", "flag-without-value",
            "flag-prefix", "unknown-config-key"])
    def test_exit_two_with_one_line(self, workdir, capsys, argv, needle):
        (workdir / "ste.json").write_text(json.dumps({"ste": "abc"}))
        exits_two_with_one_line(argv, capsys, needle)
        assert not any(workdir.glob("*.bin"))

    @pytest.mark.parametrize("argv", [["--help"], ["evolve", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert dispatch(argv) == 0
        assert "usage: fqlab" in capsys.readouterr().out


def test_each_subparser_flags_are_its_table_keys():
    action, = [a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    parsers = action.choices
    assert set(parsers) == set(_PARAMETERS)
    for name, parser in parsers.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        assert sorted(o for a in actions for o in a.option_strings) == sorted(
            f"--{key}" for key in _PARAMETERS[name])
        assert all(a.option_strings == [f"--{a.dest}"] for a in actions)


# Malformed values only, so that no computation starts. As flag text:
_WORDS = st.text(alphabet=string.ascii_letters, max_size=8)
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400"])
_FRACTIONS = st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())
_FLAG_TEXT = {
    "int": st.one_of(_WORDS, _NON_FINITE, _FRACTIONS.map(repr)),
    "float": st.one_of(_WORDS, _NON_FINITE),
    "bool": _WORDS.filter(bool),  # --verify takes no value
}
# ... and as JSON text in --config:
_JSON_NUMBER = st.one_of(
    st.sampled_from(["true", "false", "NaN", "Infinity", "-Infinity",
                     "1e400", "-1e400"]),
    _WORDS.map(json.dumps))
_CONFIG_TEXT = {
    "int": st.one_of(_JSON_NUMBER, _FRACTIONS.map(json.dumps)),
    "float": _JSON_NUMBER,
    "bool": st.one_of(_WORDS.map(json.dumps), st.integers(-2, 2).map(str),
                      _FRACTIONS.map(json.dumps),
                      st.sampled_from(["[]", "{}", '"true"', "NaN"])),
}


@pytest.mark.parametrize("sub,key,kind", [
    (sub, key, kind.__name__) for sub, table in _PARAMETERS.items()
    for key, (kind, _) in table.items() if kind is not str])
@pytest.mark.parametrize("form", ["flag", "config"])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_value_exits_two_naming_its_key(tmp_path, monkeypatch,
                                                  capsys, data, sub, key,
                                                  kind, form):
    monkeypatch.chdir(tmp_path)
    if form == "flag":
        argv = [sub, f"--{key}={data.draw(_FLAG_TEXT[kind])}"]
    else:
        (tmp_path / "cfg.json").write_text(
            f'{{"{key}": {data.draw(_CONFIG_TEXT[kind])}}}')
        argv = ["--config", "cfg.json", sub]
    capsys.readouterr()
    exits_two_with_one_line(argv, capsys, f"--{key}")
    assert list(tmp_path.iterdir()) in ([], [tmp_path / "cfg.json"])


# The contents of the five text inputs. A field is a number of any size
# or sign, a non-finite or non-numeric word, or a label small enough to
# pass; JSON names hold no path separator, so every file a case writes
# stays in its directory.
_FIELD = st.one_of(st.integers(0, 3).map(str), st.integers().map(str),
                   st.floats().map(repr), _NON_FINITE, _WORDS,
                   st.sampled_from(["", " ", "1_0", "0x1", "+2", "\u0663"]))
_NAME = st.one_of(st.sampled_from(["", ".", "a.bin", "x\0"]),
                  st.text(alphabet=string.ascii_letters + "._-: \0", max_size=6))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 60), st.floats(),
              _NAME),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_NAME, inner, max_size=3)),
    max_leaves=6)
_DELETE = object()


def _rows(sep):
    """Up to six lines of up to five fields joined by ``sep``, some of
    small labels only, among comments and blank lines; or any short text."""
    line = st.one_of(st.lists(_FIELD, max_size=5),
                     st.lists(st.sampled_from("0123"), min_size=1, max_size=5))
    extra = st.sampled_from(["", "   ", "# a comment", "1 # after a field"])
    return st.one_of(
        st.lists(st.one_of(line.map(sep.join), extra), max_size=6).map("\n".join),
        st.text(max_size=30))


def _nuclei():
    """Up to three nuclei on the 4-point line, of charge up to 1e308 and
    within a cell length of its points, so every charge reaches the
    potential."""
    nucleus = st.tuples(st.floats(1, 1e308), st.floats(-3, 3))
    return st.lists(nucleus, min_size=1, max_size=3).map(
        lambda rows: "\n".join(f"{charge!r} {x!r}" for charge, x in rows))


def _coefficients():
    """Four rows of eta = 1..4 (re, im) pairs whose columns are
    orthonormal, each float written in full: files that pass the
    coefficient checks on the 4-point line."""
    def text(entries):
        eta = len(entries) // 8
        q = np.linalg.qr(np.array(entries).view(complex).reshape(4, eta))[0]
        return "\n".join(",".join(repr(float(x)) for x in row)
                         for row in q.view(float))
    return st.integers(1, 4).flatmap(lambda eta: st.lists(
        st.floats(-1, 1), min_size=8 * eta, max_size=8 * eta).map(text))


def _edited(base, keys):
    """The JSON object ``base`` with up to three of its keys, or of its
    "parameters" object, set to other JSON values or deleted; or a JSON
    value of another shape, or any short text."""
    edit = st.tuples(st.booleans(), st.one_of(st.sampled_from(keys), _NAME),
                     st.one_of(st.just(_DELETE), _JSON))

    def apply(edits):
        record = json.loads(json.dumps(base))
        for top, key, value in edits:
            params = record.get("parameters")
            target = record if top or not isinstance(params, dict) else params
            if value is _DELETE:
                target.pop(key, None)
            else:
                target[key] = value
        return json.dumps(record)
    return st.one_of(st.lists(edit, max_size=3).map(apply),
                     _JSON.map(json.dumps), st.text(max_size=30))


_SHADOWS_N4 = ["shadows", "--in", "a.bin", "--epsilon", "0.5", "--delta",
               "0.2", "--samples", "40", "--out", "x.csv"]
_NUCLEI_N4 = ["--dim", "1", "--points", "4", "--omega", "4", "--eta", "2",
              "--nuclei", "n.txt", "--soften", "0.5", "--time", "0.1",
              "--steps", "1"]
# each input file and the runs that read it
_TEXT_INPUTS = {
    "nuclei": ("n.txt", [["evolve", *_NUCLEI_N4, "--out", "e.bin"],
                         ["tdhf", *_NUCLEI_N4, "--out", "t.csv"]]),
    "coeffs": ("c.csv", [["prep", "--coeffs", "c.csv", "--verify",
                          "--ledger-out", "l.csv"],
                         ["tdhf", "--dim", "1", "--points", "4", "--omega",
                          "4", "--time", "0.1", "--steps", "1", "--coeffs",
                          "c.csv", "--out", "t.csv"]]),
    "elements": ("e.csv", [[*_SHADOWS_N4, "--k", "2", "--elements", "e.csv"]]),
    "config": ("cfg.json", [["--config", "cfg.json", *_SHADOWS_N4]]),
    "manifest": ("m.json", [["--manifest", "m.json"]]),
}


@pytest.mark.parametrize("source", list(_TEXT_INPUTS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_text_input_contents_exit_cleanly(tmp_path, monkeypatch, capsys,
                                          data, source):
    # a run on a drawn input file ends in exit 0, 2 or 3 with at most one
    # line on stderr and no warning (which a CLI run would print there);
    # an exception escaping dispatch fails the case
    monkeypatch.chdir(tmp_path)
    save_state("a.bin", slater_oracle(random_orthonormal(4, 2, seed=1),
                                      grid=GridSpec(1, 4, 4.0)))
    if source == "config":
        text = data.draw(_edited({}, list(_PARAMETERS["shadows"])))
    elif source == "manifest":
        assert dispatch(_SHADOWS_N4) == 0
        base = json.loads(Path("x.csv.manifest.json").read_text())
        text = data.draw(_edited(base, [*base, *base["parameters"]]))
    elif source == "nuclei":
        text = data.draw(st.one_of(_rows(" "), _nuclei()))
    elif source == "coeffs":
        text = data.draw(st.one_of(_rows(","), _coefficients()))
    else:
        text = data.draw(_rows(","))
    name, runs = _TEXT_INPUTS[source]
    Path(name).write_text(text, encoding="utf-8")
    for argv in runs:
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = dispatch(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and len(err.splitlines()) <= 1, (argv[0], code, err)
        assert not caught, (argv[0], [str(w.message) for w in caught])


def run_python(*args, **env):
    """``python args`` in a fresh process, with src on the path."""
    src = str(Path(fqlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path, **env})


def run_module(argv, **env):
    """``python -m fqlab argv`` in a fresh process, with src on the path."""
    return run_python("-m", "fqlab", *argv, **env)


class TestModuleEntryPoint:
    def test_cost_query_exits_zero(self):
        run = run_module(["cost", "--query", "8,2,1,0.1"])
        assert run.returncode == 0, run.stderr
        assert "optimal_quantum" in json.loads(run.stdout)

    def test_bad_thread_count_exits_two_with_one_line(self):
        run = run_module(["--threads", "0", "cost"])
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            "error: --threads must be at least 1, got 0"]


def test_reused_parser_behaves_as_a_fresh_one(workdir, capsys, monkeypatch):
    """A usage error, --help and a good run in one process each print and
    return what they do in a fresh process, from one parser."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _build_parser() is _build_parser()
    for argv in (["--threads", "0", "cost", "--query", "8,2,1,0.1"],
                 ["--help"], ["cost", "--query", "8,2,1,0.1"]):
        fresh = run_module(argv, COLUMNS="80")
        code = dispatch(argv)
        here = capsys.readouterr()
        assert (code, here.out, here.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
