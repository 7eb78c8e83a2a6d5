"""CLI surface: subcommands, manifests, determinism, exit codes."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from fqlab.cli import dispatch
from fqlab.experiment import pipeline_shadow_experiment
from fqlab.states import load_state

from conftest import random_orthonormal


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

    def test_evolve_same_seed_same_digest(self, workdir):
        args = ["evolve", "--dim", "1", "--points", "5", "--omega", "5",
                "--eta", "2", "--time", "0.2", "--steps", "10",
                "--out", "a.bin"]
        assert dispatch(args) == 0
        digest = sha256("a.bin")
        args[-1] = "b.bin"
        assert dispatch(args) == 0
        assert sha256("b.bin") == digest


class TestTdhfCommand:
    def test_trajectory_csv(self, workdir):
        code = dispatch(["tdhf", "--dim", "1", "--points", "8", "--omega",
                         "16", "--eta", "2", "--soften", "1.0", "--time",
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


    def test_rk4_drift_exits_three_with_one_line(self, workdir, capsys):
        (workdir / "nuclei.txt").write_text("2 0.3\n")
        code = dispatch(["tdhf", "--dim", "1", "--points", "8", "--omega",
                         "8", "--eta", "3", "--nuclei", "nuclei.txt",
                         "--soften", "0.5", "--time", "1", "--steps", "20",
                         "--scheme", "rk4", "--out", "t.csv"])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "exponential-midpoint" in err


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

    def test_output_beyond_dense_regime_exits_two(self, workdir, capsys):
        # 40^5 amplitudes would need terabytes; refused before any work
        write_coeffs("c.csv", random_orthonormal(40, 5, seed=405))
        assert dispatch(["prep", "--coeffs", "c.csv", "--verify",
                         "--ledger-out", "ledger.csv"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert not (workdir / "ledger.csv").exists()


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


EVOLVE_N5 = ["evolve", "--dim", "1", "--points", "5", "--omega", "5",
             "--time", "0.1", "--steps", "2", "--out", "st5.bin"]


class TestMalformedInputs:
    @pytest.fixture
    def inputs(self, workdir):
        assert dispatch(["evolve", "--dim", "1", "--points", "4", "--omega",
                         "4", "--eta", "2", "--time", "0.1", "--steps", "2",
                         "--out", "st.bin"]) == 0
        (workdir / "cfg.json").write_text("{not json")
        (workdir / "coeffs.csv").write_text("1,0\nx,0\n")
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
        ["shadows", "--in", "st.bin", "--epsilon", "0.5", "--delta", "0",
         "--samples", "200", "--out", "x.csv"],
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
    ], ids=["missing-in", "missing-manifest", "bad-config", "bad-coeffs",
            "bad-samples", "bad-query", "empty-query-field", "zero-delta",
            "evolve-eta-zero", "evolve-eta-above-n", "evolve-eta-negative",
            "tdhf-eta-above-n", "evolve-beyond-dense", "alpha-zero-step",
            "alpha-negative-step", "alpha-empty-range", "alpha-infinite",
            "unwritable-out"])
    def test_exit_two_with_one_line(self, inputs, capsys, argv):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
