"""Command-line interface: evolve, tdhf, prep, shadows, cost.

Each run resolves its parameters (flags > config file > defaults),
executes one module pipeline, and writes a JSON manifest next to every
output file recording the resolved parameters, master seed, tool
version, and input/output digests. Re-running `fqlab --manifest m.json`
reproduces byte-identical outputs.
"""

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .costmodel import CostQuery, cost_report, regime_table
from .errors import NumericalAssumptionError, UsageError, ValidationError
from .grids import GridSpec
from .hamiltonian import (
    CoulombKernel,
    EvolutionPlan,
    NuclearConfig,
    evolve,
    kinetic_phase_table,
)
from .meanfield import (
    GridIntegrals,
    OccupiedOrbitals,
    TdhfPlan,
    evolve_tdhf,
)
from .shadows import (
    EstimatorConfig,
    all_1rdm_elements,
    collect_shadows,
    estimate_elements,
    required_samples,
)
from .states import FirstQuantizedState, load_state, save_state, slater_oracle
from .stateprep import prepare_slater, toffoli_count


def _fmt(x) -> str:
    """Floats serialized with 17 significant digits."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(subcommand, params, seed, inputs, outputs) -> None:
    manifest = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "seed": seed,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": {str(p): _digest(p) for p in outputs},
    }
    for out in outputs:
        with open(f"{out}.manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_json(path) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path} is not valid JSON: {exc.msg} "
                             f"(line {exc.lineno})") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return data


def _load_nuclei(path, dim) -> NuclearConfig:
    """One nucleus per line: charge x [y z]; # starts a comment."""
    positions, charges = [], []
    with open(path) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise UsageError(
                    f"nuclei line {line!r} needs charge + {dim} coordinates")
            try:
                charges.append(float(parts[0]))
                positions.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise UsageError(f"nuclei line {line!r} is not numeric") from exc
    if not charges:
        return NuclearConfig.empty(dim)
    return NuclearConfig(np.array(positions), np.array(charges))


def _load_coeffs(path) -> np.ndarray:
    """CSV with N rows and 2*eta columns (re, im per orbital)."""
    with open(path) as fh:
        try:
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise UsageError(f"coefficient CSV {path} must hold numbers only") from exc
    if raw.shape[1] % 2 != 0:
        raise UsageError("coefficient CSV must have re,im column pairs")
    return raw[:, 0::2] + 1j * raw[:, 1::2]


def _particle_count(p, grid: GridSpec) -> int:
    """--eta for a generated initial state: 1..N particles on N grid points."""
    eta = int(p["eta"])
    if not 1 <= eta <= grid.total_points:
        raise UsageError(f"--eta must be in 1..{grid.total_points}, got {eta}")
    return eta


def _lowest_momentum_slater(grid: GridSpec, eta: int) -> FirstQuantizedState:
    """Slater determinant of the eta lowest-|k| plane waves (index tiebreak)."""
    table = kinetic_phase_table(grid)
    order = np.lexsort((np.arange(table.size), table))
    k = grid.frequencies[order[:eta]]
    orbitals = np.exp(1j * grid.positions @ k.T) / np.sqrt(grid.total_points)
    return slater_oracle(orbitals, grid=grid)


# -- subcommands --------------------------------------------------------------


# argparse dest names that differ from the parameter-map keys
_DEST_ALIASES = {"in": "in_", "ledger-out": "ledger_out",
                 "dump-samples": "dump_samples", "alpha-range": "alpha_range"}


def _resolved(args, config, keys):
    out = {}
    for key, default in keys.items():
        dest = _DEST_ALIASES.get(key, key.replace("-", "_"))
        flag = getattr(args, dest, None)
        if flag is not None:
            out[key] = flag
        elif key in config:
            out[key] = config[key]
        else:
            out[key] = default
    missing = [k for k, v in out.items() if v is None]
    if missing:
        raise UsageError(f"missing required parameters: {', '.join(missing)}")
    return out


def _kernel(soften) -> CoulombKernel:
    return CoulombKernel(softening=float(soften or 0.0))


def _snapshot_parameters(args, config, state: FirstQuantizedState) -> dict:
    """Grid and eta of an ``evolve --in`` run: the snapshot's values.

    --dim, --points, --omega and --eta may be omitted; one given (as a
    flag or in the config) that disagrees with the snapshot is an error.
    """
    recorded = {"dim": state.grid.dim, "points": state.grid.points_per_axis,
                "omega": float(state.grid.cell_volume), "eta": state.eta}
    given = _resolved(args, config, dict.fromkeys(recorded, ""))
    for key, value in given.items():
        if value != "" and type(recorded[key])(value) != recorded[key]:
            raise UsageError(f"--{key} {value} disagrees with the snapshot "
                             f"{key} {recorded[key]}")
    return recorded


def _cmd_evolve(args, config) -> int:
    snapshot = _resolved(args, config, {"in": ""})["in"]
    state = load_state(snapshot) if snapshot else None
    fixed = {} if state is None else _snapshot_parameters(args, config, state)
    p = _resolved(args, config, {
        "dim": 3, "points": None, "omega": None, "eta": None, **fixed,
        "nuclei": "", "soften": 0.0, "time": None, "steps": None,
        "order": 2, "seed": 0, "in": "", "out": None})
    p.update(fixed)  # the manifest records the values the run used
    grid = state.grid if state is not None else GridSpec(
        dim=int(p["dim"]), points_per_axis=int(p["points"]),
        cell_volume=float(p["omega"]))
    nuclei = (_load_nuclei(p["nuclei"], grid.dim) if p["nuclei"]
              else NuclearConfig.empty(grid.dim))
    kernel = _kernel(p["soften"])
    plan = EvolutionPlan(total_time=float(p["time"]), steps=int(p["steps"]),
                         order=int(p["order"]))
    if state is None:
        state = _lowest_momentum_slater(grid, _particle_count(p, grid))
    final = evolve(state, plan, nuclei, kernel)
    save_state(p["out"], final)
    inputs = [path for path in (p["in"], p["nuclei"]) if path]
    _write_manifest("evolve", p, int(p["seed"]), inputs, [p["out"]])
    return 0


def _cmd_tdhf(args, config) -> int:
    p = _resolved(args, config, {
        "dim": 1, "points": None, "omega": None, "eta": None,
        "nuclei": "", "soften": 0.0, "time": None, "steps": None,
        "scheme": "exponential-midpoint", "observables": "energy",
        "coeffs": "", "out": None})
    grid = GridSpec(dim=int(p["dim"]), points_per_axis=int(p["points"]),
                    cell_volume=float(p["omega"]))
    nuclei = (_load_nuclei(p["nuclei"], grid.dim) if p["nuclei"]
              else NuclearConfig.empty(grid.dim))
    integrals = GridIntegrals.from_grid(grid, nuclei, _kernel(p["soften"]))
    inputs = [path for path in (p["nuclei"], p["coeffs"]) if path]
    if p["coeffs"]:
        coeffs = _load_coeffs(p["coeffs"])
    else:
        # core-Hamiltonian guess: lowest eigenvectors of h
        _, vecs = np.linalg.eigh(integrals.h)
        coeffs = vecs[:, :_particle_count(p, grid)]
    orbitals = OccupiedOrbitals(coeffs, grid)
    wanted = [w.strip() for w in str(p["observables"]).split(",") if w.strip()]
    unknown = set(wanted) - {"energy", "rdm-diag"}
    if unknown:
        raise UsageError(f"unknown observables: {sorted(unknown)}")
    plan = TdhfPlan(total_time=float(p["time"]), steps=int(p["steps"]),
                    scheme=p["scheme"])
    traj = evolve_tdhf(orbitals, integrals, plan,
                       record_rdm_diag="rdm-diag" in wanted, keep_history=False)
    header = ["step", "time", "energy"]
    if "rdm-diag" in wanted:
        header += [f"rdm_{i}" for i in range(grid.total_points)]
    rows = []
    for step in range(len(traj.times)):
        row = [step, float(traj.times[step]), float(traj.energies[step])]
        if "rdm-diag" in wanted:
            row += [float(v) for v in traj.rdm_diagonals[step]]
        rows.append(row)
    _write_csv(p["out"], header, rows)
    _write_manifest("tdhf", p, 0, inputs, [p["out"]])
    return 0


def _cmd_prep(args, config) -> int:
    p = _resolved(args, config, {
        "coeffs": None, "verify": False, "ledger-out": ""})
    coeffs = _load_coeffs(p["coeffs"])
    n, eta = coeffs.shape
    result = prepare_slater(coeffs, validate=bool(p["verify"]))
    outputs = []
    if p["ledger-out"]:
        rows = sorted(result.ledger.counts.items())
        rows.append(("total", result.ledger.total))
        _write_csv(p["ledger-out"], ["primitive", "toffolis"], rows)
        outputs.append(p["ledger-out"])
    print(f"prepared N={n} eta={eta}: ledger total {result.ledger.total} "
          f"(closed form {toffoli_count(n, eta, 'improved')})")
    if p["verify"]:
        oracle = slater_oracle(coeffs, n_orbitals=n)
        overlap = abs(result.state.overlap(oracle))
        ledger_ok = result.ledger.total == toffoli_count(n, eta, "improved")
        print(f"oracle overlap modulus: {overlap:.12f}")
        print(f"ledger matches closed form: {ledger_ok}")
        if abs(overlap - 1.0) > 1e-9 or not ledger_ok:
            raise NumericalAssumptionError("preparation verification failed")
    if outputs:
        _write_manifest("prep", p, 0, [p["coeffs"]], outputs)
    return 0


def _parse_elements(spec_text, n_orbitals, k):
    if spec_text == "all-1rdm":
        if k != 1:
            raise UsageError("all-1rdm requires k=1")
        return all_1rdm_elements(n_orbitals)
    elements = []
    with open(spec_text) as fh:
        for row in csv.reader(fh):
            try:
                vals = [int(v) for v in row if v.strip() != ""]
            except ValueError as exc:
                raise UsageError(
                    f"element row {row} holds a non-integer label") from exc
            if len(vals) != 2 * k:
                raise UsageError(f"element row {row} needs 2k = {2 * k} indices")
            if not all(0 <= v < n_orbitals for v in vals):
                raise UsageError(
                    f"element row {row} has a label outside 0..{n_orbitals - 1}")
            elements.append((tuple(vals[:k]), tuple(vals[k:])))
    return elements


def _cmd_shadows(args, config) -> int:
    p = _resolved(args, config, {
        "in": None, "k": 1, "epsilon": None, "delta": None,
        "samples": "auto", "seed": 0, "elements": "all-1rdm",
        "out": None, "dump-samples": ""})
    state = load_state(p["in"])
    if not state.is_antisymmetric():
        raise ValidationError("shadow protocol expects an antisymmetric state")
    k = int(p["k"])
    eps, delta = float(p["epsilon"]), float(p["delta"])
    if str(p["samples"]) == "auto":
        m = required_samples(state.n_orbitals, k, state.eta, eps, delta)
    else:
        try:
            m = int(p["samples"])
        except ValueError as exc:
            raise UsageError("--samples must be 'auto' or an integer") from exc
    config_est = EstimatorConfig.from_sample_count(k, eps, delta, m)
    elements = _parse_elements(str(p["elements"]), state.n_orbitals, k)
    batch = collect_shadows(state, m, int(p["seed"]),
                            threads=int(getattr(args, "threads", 1) or 1))
    rows = [[";".join(map(str, bra)), ";".join(map(str, ket)), est.real,
             est.imag, config_est.groups, config_est.group_size]
            for (bra, ket), (est, _) in zip(
                elements, estimate_elements(batch, config_est, elements))]
    _write_csv(p["out"], ["i", "j", "re", "im", "groups", "group_size"], rows)
    outputs = [p["out"]]
    if p["dump-samples"]:
        sample_rows = [["|".join(keys), "|".join(map(str, outcomes))]
                       for keys, outcomes in zip(batch.keys, batch.outcomes)]
        _write_csv(p["dump-samples"], ["cliffords", "outcomes"], sample_rows)
        outputs.append(p["dump-samples"])
    inputs = [p["in"]] + ([p["elements"]] if p["elements"] != "all-1rdm" else [])
    _write_manifest("shadows", p, int(p["seed"]), inputs, outputs)
    return 0


def _cmd_cost(args, config) -> int:
    p = _resolved(args, config, {"alpha-range": "", "query": "", "out": ""})
    if p["alpha-range"]:
        try:
            lo, hi, step = (float(v) for v in str(p["alpha-range"]).split(":"))
        except Exception as exc:
            raise UsageError("--alpha-range must be lo:hi:step") from exc
        if not (np.all(np.isfinite([lo, hi, step])) and step > 0 and lo <= hi):
            raise UsageError("--alpha-range needs finite lo <= hi and step > 0")
        count = int(round((hi - lo) / step)) + 1
        alphas = [lo + i * step for i in range(count) if lo + i * step <= hi + 1e-12]
        rows = regime_table(alphas)
        if not p["out"]:
            raise UsageError("--alpha-range needs --out")
        _write_csv(p["out"],
                   ["alpha", "beta_classical", "beta_quantum", "speedup",
                    "optimal_quantum", "optimal_classical_term"],
                   [[r["alpha"], r["beta_classical"], r["beta_quantum"],
                     r["speedup"], r["optimal_quantum"],
                     r["optimal_classical_term"]] for r in rows])
        _write_manifest("cost", p, 0, [], [p["out"]])
        return 0
    if p["query"]:
        vals = [v.strip() for v in str(p["query"]).split(",")]
        if len(vals) < 4:
            raise UsageError("--query needs at least N,eta,t,eps")
        names = ["n_basis", "eta", "time", "epsilon", "occupied_orbitals",
                 "time_points", "observable_norm", "sampling_cost", "k_body"]
        kwargs = {}
        for name, val in zip(names, vals):
            if val == "":
                if name in ("n_basis", "eta"):
                    raise UsageError(f"--query field {name} is empty")
                continue
            try:
                kwargs[name] = int(val) if name == "k_body" else float(val)
            except ValueError as exc:
                raise UsageError(
                    f"--query value {val!r} for {name} is not a number") from exc
        report = cost_report(CostQuery(**kwargs))
        text = json.dumps(report, indent=2, sort_keys=True, default=str)
        if p["out"]:
            with open(p["out"], "w") as fh:
                fh.write(text + "\n")
            _write_manifest("cost", p, 0, [], [p["out"]])
        else:
            print(text)
        return 0
    raise UsageError("cost needs --alpha-range or --query")


# -- dispatcher ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqlab",
        description="First-quantized electron-dynamics laboratory")
    parser.add_argument("--manifest", help="replay a recorded run")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--config", help="JSON file with defaults")
    sub = parser.add_subparsers(dest="subcommand")

    ev = sub.add_parser("evolve", help="split-operator Trotter evolution")
    ev.add_argument("--dim", type=int)
    ev.add_argument("--points", type=int)
    ev.add_argument("--omega", type=float)
    ev.add_argument("--eta", type=int)
    ev.add_argument("--nuclei")
    ev.add_argument("--soften", type=float)
    ev.add_argument("--time", type=float)
    ev.add_argument("--steps", type=int)
    ev.add_argument("--order", type=int)
    ev.add_argument("--seed", type=int)
    ev.add_argument("--in", dest="in_", help="input state snapshot")
    ev.add_argument("--out")

    td = sub.add_parser("tdhf", help="real-time mean-field propagation")
    td.add_argument("--dim", type=int)
    td.add_argument("--points", type=int)
    td.add_argument("--omega", type=float)
    td.add_argument("--eta", type=int)
    td.add_argument("--nuclei")
    td.add_argument("--soften", type=float)
    td.add_argument("--time", type=float)
    td.add_argument("--steps", type=int)
    td.add_argument("--scheme")
    td.add_argument("--observables")
    td.add_argument("--coeffs")
    td.add_argument("--out")

    pr = sub.add_parser("prep", help="Slater preparation with gate ledger")
    pr.add_argument("--coeffs")
    pr.add_argument("--verify", action="store_const", const=True)
    pr.add_argument("--ledger-out", dest="ledger_out")

    sh = sub.add_parser("shadows", help="classical-shadow RDM estimation")
    sh.add_argument("--in", dest="in_", help="input state snapshot")
    sh.add_argument("--k", type=int)
    sh.add_argument("--epsilon", type=float)
    sh.add_argument("--delta", type=float)
    sh.add_argument("--samples")
    sh.add_argument("--seed", type=int)
    sh.add_argument("--elements")
    sh.add_argument("--out")
    sh.add_argument("--dump-samples", dest="dump_samples")

    co = sub.add_parser("cost", help="asymptotic cost and speedup tables")
    co.add_argument("--alpha-range", dest="alpha_range")
    co.add_argument("--query")
    co.add_argument("--out")
    return parser


_HANDLERS = {
    "evolve": _cmd_evolve,
    "tdhf": _cmd_tdhf,
    "prep": _cmd_prep,
    "shadows": _cmd_shadows,
    "cost": _cmd_cost,
}

def dispatch(argv) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not (args.manifest or args.subcommand):
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.manifest:
            recorded = _load_json(args.manifest)
            sub = recorded.get("subcommand")
            if sub not in _HANDLERS:
                raise UsageError(f"manifest names unknown subcommand {sub!r}")
            replay_args = argparse.Namespace(threads=args.threads)
            return _HANDLERS[sub](replay_args, recorded.get("parameters", {}))
        config = _load_json(args.config) if args.config else {}
        return _HANDLERS[args.subcommand](args, config)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalAssumptionError as exc:
        print(f"numerical assumption failed: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
