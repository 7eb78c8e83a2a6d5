"""The three benchmark workloads: inputs, operations and output checks.

Every input is made here from the workload seed and written to files;
`fqlab` sees only those files and its documented command-line flags.
A workload has three parts:

* ``make_inputs`` writes the inputs that every operation shares (the
  set-up that ``setup_s`` times);
* ``op_calls`` returns the CLI calls of operation ``i``, each with the
  units of work it does (shadow samples, propagation steps, window
  operations), after writing any per-operation input (untimed);
* ``check`` validates the outputs of one operation (untimed) and raises
  ``CheckFailed`` with a one-line reason.
"""

import csv
import itertools
import json
import math
import zlib
from pathlib import Path

import numpy as np

from fqlab.hamiltonian import CoulombKernel, NuclearConfig, total_energy
from fqlab.shadows import EstimatorConfig
from fqlab.states import exact_krdm_element, load_state
from fqlab.stateprep import toffoli_count

SNAPSHOT_MAGIC = b"FQS1"

# Sizes per profile. "full" is what the benchmark measures; "smoke" is
# the tiny self-test profile (every workload, every check, in seconds).
SIZES = {
    "full": {
        "readout_small": {"points": 4, "samples": 2000,
                          "epsilon": 0.1, "delta": 0.05},
        "dynamics": {"dim": 3, "points": 7, "omega": 343.0, "eta": 2,
                     "time": 0.5, "o2_steps": 20, "o4_steps": 5,
                     "tdhf_steps": 10, "cost_eps": 0.01},
        "prep_dense": {"n": 16, "eta": 4},
    },
    "smoke": {
        "readout_small": {"points": 4, "samples": 200,
                          "epsilon": 0.1, "delta": 0.05},
        "dynamics": {"dim": 3, "points": 3, "omega": 27.0, "eta": 2,
                     "time": 0.5, "o2_steps": 2, "o4_steps": 1,
                     "tdhf_steps": 2, "cost_eps": 0.01},
        "prep_dense": {"n": 8, "eta": 3},
    },
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _stream(seed, tag, *counters) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), zlib.crc32(tag.encode()),
                                   *map(int, counters)])


def _call_seeds(seed, tag, op, count):
    """Shadow seeds of one operation, a pure function of (seed, op)."""
    return [int(v) & 0x7FFFFFFF
            for v in _stream(seed, tag, op).generate_state(count)]


def write_snapshot(path, dim, points, omega, tensor) -> None:
    """FQS1 snapshot: header then little-endian complex128, register 1 first."""
    eta = tensor.ndim
    header = np.zeros(1, dtype=[("magic", "S4"), ("dim", "u1"),
                                ("points", "<u4"), ("omega", "<f8"),
                                ("eta", "<u4")])
    header["magic"], header["dim"], header["points"] = SNAPSHOT_MAGIC, dim, points
    header["omega"], header["eta"] = omega, eta
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(tensor, dtype="<c16").tobytes())


def slater_tensor(orbitals: np.ndarray) -> np.ndarray:
    """psi(p_1..p_eta) = det[phi_a(p_b)] / sqrt(eta!) for orthonormal columns."""
    n, eta = orbitals.shape
    tensor = np.zeros((n,) * eta, dtype=complex)
    for labels in itertools.product(range(n), repeat=eta):
        if len(set(labels)) == eta:
            tensor[labels] = np.linalg.det(orbitals[list(labels), :])
    return tensor / math.sqrt(math.factorial(eta))


def random_orthonormal(rng, n, eta) -> np.ndarray:
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(mat)
    return q[:, :eta]


def lowest_momentum_orbitals(points, eta) -> np.ndarray:
    """The eta lowest-|k| plane waves on a 1-D centered grid, index tiebreak."""
    lo = -(points - 1) // 2 if points % 2 else -points // 2
    window = np.arange(lo, lo + points)
    order = np.lexsort((np.arange(points), window ** 2))
    pos = window[:, None]
    return np.exp(2j * np.pi * pos * window[order[:eta]][None, :] / points) \
        / math.sqrt(points)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    return rows[0], rows[1:]


# The error figures of one shadow call that the readout check bounds.
ERROR_FIGURES = {
    "worst": "worst element error",
    "scale": "error of the fitted scale",
}


def error_figures(estimates, exact) -> dict:
    """The figures named in ERROR_FIGURES, for estimates of exact values.

    ``worst`` is the largest element error. ``scale`` is |s - 1| for the
    least-squares fit estimates ~ s * exact: it pools every nonzero
    element, so it is far quieter than ``worst`` and catches a wrong
    normalization, which scales every estimate alike.
    """
    scale = np.vdot(exact, estimates).real / np.vdot(exact, exact).real
    return {"worst": float(np.max(np.abs(estimates - exact))),
            "scale": float(abs(scale - 1.0))}


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, size: dict, seed: int, workdir: Path, reference: dict):
        self.size = size
        self.seed = int(seed)
        self.workdir = workdir
        self.reference = reference

    def make_inputs(self) -> None:
        raise NotImplementedError

    def op_calls(self, op: int, opdir: Path) -> list:
        """[(label, argv, work_units)] for operation ``op``."""
        raise NotImplementedError

    def check(self, op: int, opdir: Path, stdout: str) -> dict:
        """Raise CheckFailed, or return the checked figures by name."""
        raise NotImplementedError


class ReadoutSmall(Workload):
    """Three shadow calls on 2-qubit registers (N = 4)."""

    name = "readout_small"
    work_unit = "shadow samples"
    calls = ("slater-k1", "random-k1", "filled-k2")

    def __init__(self, *args):
        super().__init__(*args)
        self._exact_cache = {}

    def _exact(self, snapshot, elements):
        key = (str(snapshot), tuple(elements))
        if key not in self._exact_cache:
            state = load_state(snapshot)
            self._exact_cache[key] = np.array(
                [exact_krdm_element(state, bra, ket) for bra, ket in elements])
        return self._exact_cache[key]

    def _check_estimates(self, path, snapshot, k, elements, tolerances):
        header, rows = _read_csv(path)
        if header != ["i", "j", "re", "im", "groups", "group_size"]:
            raise CheckFailed(f"{path.name}: header {header}")
        if len(rows) != len(elements):
            raise CheckFailed(f"{path.name}: {len(rows)} rows for "
                              f"{len(elements)} elements")
        cfg = EstimatorConfig.from_sample_count(
            k, self.size["epsilon"], self.size["delta"], self.size["samples"])
        estimates = []
        for row, (bra, ket) in zip(rows, elements):
            if (row[0] != ";".join(map(str, bra))
                    or row[1] != ";".join(map(str, ket))):
                raise CheckFailed(f"{path.name}: row {row[:2]} is not "
                                  f"element {bra}, {ket}")
            if (int(row[4]), int(row[5])) != (cfg.groups, cfg.group_size):
                raise CheckFailed(f"{path.name}: groups {row[4:6]} != "
                                  f"{cfg.groups}, {cfg.group_size}")
            estimates.append(complex(float(row[2]), float(row[3])))
        errors = error_figures(np.array(estimates),
                               self._exact(snapshot, elements))
        for name, value in errors.items():
            if not value <= tolerances[name]:
                raise CheckFailed(f"{path.name}: {ERROR_FIGURES[name]} "
                                  f"{value:.4g} > tolerance "
                                  f"{tolerances[name]:.4g}")
        return errors

    def make_inputs(self):
        s, w = self.size, self.workdir
        rng = np.random.default_rng(_stream(self.seed, self.name))
        n = s["points"]
        write_snapshot(w / "slater.bin", 1, n, float(n),
                       slater_tensor(lowest_momentum_orbitals(n, 2)))
        core = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        core = core - core.T
        write_snapshot(w / "random.bin", 1, n, float(n),
                       core / np.linalg.norm(core))
        write_snapshot(w / "filled.bin", 1, n, float(n),
                       slater_tensor(random_orthonormal(rng, n, 4)))
        with open(w / "pairs.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(bra + ket for bra, ket in self.pairs())

    @staticmethod
    def pairs():
        """The 16 pair elements of the statistical acceptance criterion."""
        tuples = [(0, 1), (0, 2), (1, 3), (2, 3)]
        return [(bra, ket) for bra in tuples for ket in tuples]

    def _spec(self, label):
        w, n = self.workdir, self.size["points"]
        if label == "filled-k2":
            return w / "filled.bin", 2, str(w / "pairs.csv"), self.pairs()
        one = [((i,), (j,)) for i in range(n) for j in range(n)]
        snap = w / ("slater.bin" if label == "slater-k1" else "random.bin")
        return snap, 1, "all-1rdm", one

    def op_calls(self, op, opdir):
        s = self.size
        seeds = _call_seeds(self.seed, self.name, op, len(self.calls))
        out = []
        for label, shadow_seed in zip(self.calls, seeds):
            snap, k, elements, _ = self._spec(label)
            out.append((label, [
                "--threads", "1", "shadows", "--in", str(snap), "--k", str(k),
                "--epsilon", str(s["epsilon"]), "--delta", str(s["delta"]),
                "--samples", str(s["samples"]), "--seed", str(shadow_seed),
                "--elements", elements, "--out", str(opdir / f"{label}.csv")],
                s["samples"]))
        return out

    def check(self, op, opdir, stdout):
        tolerances = self.reference["tolerance"][self.name]
        errors = {}
        for label in self.calls:
            snap, k, _, elements = self._spec(label)
            errors[label] = self._check_estimates(
                opdir / f"{label}.csv", snap, k, elements, tolerances[label])
        return errors


class Dynamics(Workload):
    """Order-2 and order-4 Trotter, RT-TDHF and the cost model at N = 343."""

    name = "dynamics"
    work_unit = "propagation steps"

    NUCLEI = [[0.7, 0.0, 0.0], [-0.7, 0.0, 0.0]]  # two unit charges

    def make_inputs(self):
        (self.workdir / "nuclei.txt").write_text(
            "".join(f"1 {x} {y} {z}\n" for x, y, z in self.NUCLEI))

    def _grid_args(self):
        s = self.size
        return ["--dim", str(s["dim"]), "--points", str(s["points"]),
                "--omega", str(s["omega"]), "--eta", str(s["eta"]),
                "--nuclei", str(self.workdir / "nuclei.txt"),
                "--soften", "0.5", "--time", str(s["time"])]

    def op_calls(self, op, opdir):
        s, grid = self.size, self._grid_args()
        n = s["points"] ** s["dim"]
        return [
            ("evolve-o2", ["evolve", *grid, "--steps", str(s["o2_steps"]),
                           "--order", "2", "--seed", str(self.seed),
                           "--out", str(opdir / "o2.bin")], s["o2_steps"]),
            ("evolve-o4", ["evolve", *grid, "--steps", str(s["o4_steps"]),
                           "--order", "4", "--seed", str(self.seed),
                           "--out", str(opdir / "o4.bin")], s["o4_steps"]),
            ("tdhf", ["tdhf", *grid, "--steps", str(s["tdhf_steps"]),
                      "--observables", "energy,rdm-diag",
                      "--out", str(opdir / "tdhf.csv")], s["tdhf_steps"]),
            ("cost", ["cost", "--query",
                      f"{n},{s['eta']},{s['time']},{s['cost_eps']}",
                      "--out", str(opdir / "cost.json")], 0),
        ]

    def final_energies(self, opdir):
        """Total energies of both snapshots and the last TDHF energy."""
        nuclei = NuclearConfig(np.array(self.NUCLEI), np.ones(2))
        out = {}
        for label in ("o2", "o4"):
            state = load_state(opdir / f"{label}.bin")
            if not state.antisymmetric:
                raise CheckFailed(f"{label}.bin is not antisymmetric")
            out[label] = total_energy(state, nuclei, CoulombKernel(0.5))
        header, rows = _read_csv(opdir / "tdhf.csv")
        n = self.size["points"] ** self.size["dim"]
        if len(rows) != self.size["tdhf_steps"] + 1 or len(header) != 3 + n:
            raise CheckFailed(f"tdhf.csv: {len(rows)} rows x {len(header)} "
                              "columns")
        out["tdhf"] = float(rows[-1][2])
        with open(opdir / "cost.json") as fh:
            out["cost"] = json.load(fh)
        return out

    def check(self, op, opdir, stdout):
        ref = self.reference["dynamics"]
        got = self.final_energies(opdir)
        for label in ("o2", "o4", "tdhf"):
            if not abs(got[label] - ref[label]) <= 1e-10:
                raise CheckFailed(f"{label} energy {got[label]!r} != recorded "
                                  f"{ref[label]!r}")
        if got["cost"] != ref["cost"]:
            raise CheckFailed("cost report differs from the recorded one")
        return got


class PrepDense(Workload):
    """Dense Slater preparation with oracle verification (N = 16, eta = 4)."""

    name = "prep_dense"
    work_unit = "window operations"

    def make_inputs(self):
        pass  # every operation draws its own coefficient matrix

    def op_calls(self, op, opdir):
        n, eta = self.size["n"], self.size["eta"]
        rng = np.random.default_rng(_stream(self.seed, self.name, op))
        coeffs = random_orthonormal(rng, n, eta)
        pairs = np.empty((n, 2 * eta))
        pairs[:, 0::2], pairs[:, 1::2] = coeffs.real, coeffs.imag
        np.savetxt(opdir / "coeffs.csv", pairs, delimiter=",", fmt="%.17g")
        # (N - eta) eta Givens rotations plus N conversion steps
        return [("prep", ["prep", "--coeffs", str(opdir / "coeffs.csv"),
                          "--verify", "--ledger-out",
                          str(opdir / "ledger.csv")], (n - eta) * eta + n)]

    def check(self, op, opdir, stdout):
        n, eta = self.size["n"], self.size["eta"]
        _, rows = _read_csv(opdir / "ledger.csv")
        closed = toffoli_count(n, eta)
        if rows[-1] != ["total", str(closed)]:
            raise CheckFailed(f"ledger total {rows[-1]} != closed form {closed}")
        if sum(int(r[1]) for r in rows[:-1]) != closed:
            raise CheckFailed("ledger rows do not sum to the total")
        if "ledger matches closed form: True" not in stdout:
            raise CheckFailed("prep --verify did not confirm the ledger")
        return {"ledger_total": closed}


WORKLOADS = {cls.name: cls for cls in (ReadoutSmall, Dynamics, PrepDense)}
