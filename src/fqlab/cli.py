"""Command-line interface: evolve, tdhf, prep, shadows, cost.

Each subcommand's parameters are declared once, in ``_PARAMETERS``: a
flag and its ``--config`` key share one name, and each value (flag >
config file > default) is cast once by its kind; ``--threads`` must be
an integer of at least 1. Every usage error exits 2 with one line on
stderr. The parameters that name files are declared once too, as
inputs or outputs: before a subcommand runs, an output that names an
input or another output is refused and every output is checked
writable; after it, a JSON manifest is written next to every output
file recording the resolved parameters, master seed, tool version, and
input/output SHA-256 digests. `fqlab --manifest m.json` first checks
every recorded input against its digest (a missing or changed one exits
2 and nothing is written), then reproduces byte-identical outputs.
``--threads`` has no effect: shadows are collected in one thread, and
the option stays because the benchmark's shadows calls pass it.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .costmodel import CostQuery, cost_report, regime_table
from .errors import NumericalAssumptionError, UsageError, ValidationError
from .grids import GridSpec
from .hamiltonian import (
    CoulombKernel,
    EvolutionPlan,
    GridHamiltonian,
    NuclearConfig,
    evolve_block,
    lowest_momentum_slater,
)
from .meanfield import (
    GridIntegrals,
    OccupiedOrbitals,
    TdhfPlan,
    core_guess,
    evolve_tdhf,
)
from .shadows import check_order, read_out
from .states import check_budget, load_state, save_state
from .stateprep import prepare_slater, toffoli_count, verify_preparation


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_csv(path, header, rows) -> None:
    """Rows as they come, floats with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])


def _check_writable(inputs, outputs) -> None:
    """Refuse, before any work, an output that names an input or another
    output (compared by real path: a run never reads a file it writes,
    nor writes one twice), or that cannot be written: each is opened for
    appending, and removed again if that made it."""
    seen = {os.path.realpath(path): key for key, path in inputs.items()}
    for key, path in outputs.items():
        first = seen.setdefault(os.path.realpath(path), key)
        if first != key:
            raise UsageError(f"--{key} {path} names the same file as --{first}")
        made = not os.path.exists(path)
        with open(path, "a"):
            pass
        if made:
            os.remove(path)


def _write_manifest(sub, p) -> None:
    """Next to each output of a run of ``sub``, a manifest of its resolved
    parameters ``p``; the input digests are taken here, after the run."""
    inputs, outputs = _files(sub, p.get)
    if not outputs:
        return
    manifest = {
        "tool_version": __version__,
        "subcommand": sub,
        "parameters": p,
        "seed": p.get("seed", 0),
        "inputs": {path: _digest(path) for path in inputs.values()},
        "outputs": {path: _digest(path) for path in outputs.values()},
    }
    for out in outputs.values():
        with open(f"{out}.manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _read_text(path, kind=None, sep=","):
    """The UTF-8 text of ``path``, whatever the locale, or given a ``kind``
    (int or float) its rows: ``#`` comments and blank lines dropped, lines
    split at ``sep`` (None: whitespace), a field not of the kind refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    if kind is None:
        return text
    rows = []
    for number, line in enumerate(text.split("\n"), 1):
        body = line.split("#")[0].strip()
        try:
            if body:
                rows.append(list(map(kind, body.split(sep))))
        except ValueError as exc:
            raise UsageError(f"{path} line {number}: {body!r} holds a field "
                             f"that is not {_KINDS[kind]}") from exc
    return rows


def _load_json(path) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc.msg} "
                         f"(line {exc.lineno})") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return data


def _hamiltonian(p, grid: GridSpec) -> GridHamiltonian:
    """H on ``grid`` with the nuclei of the --nuclei file (one nucleus per
    line: charge x [y z]) and the --soften kernel."""
    rows = _read_text(p["nuclei"], float, sep=None) if p["nuclei"] else []
    if any(len(row) != grid.dim + 1 for row in rows):
        raise UsageError(f"nuclei file {p['nuclei']} needs charge + {grid.dim} "
                         f"coordinates a line")
    table = np.array(rows).reshape(-1, grid.dim + 1)
    nuclei = NuclearConfig(table[:, 1:], table[:, 0])
    return GridHamiltonian(grid, nuclei, CoulombKernel(softening=p["soften"]))


def _load_coeffs(path) -> np.ndarray:
    """CSV with N rows and 2*eta columns (re, im per orbital)."""
    rows = _read_text(path, float)
    if not rows:
        raise UsageError(f"coefficient CSV {path} holds no rows")
    if len(rows[0]) % 2 or any(len(row) != len(rows[0]) for row in rows):
        raise UsageError(f"coefficient CSV {path} needs equal rows of re,im pairs")
    return np.array(rows).view(complex)  # no 1j * im, which warns at inf


def _particle_count(p, grid: GridSpec) -> int:
    """--eta for a generated initial state: 1..N particles on N grid points."""
    eta = p["eta"]
    if not 1 <= eta <= grid.total_points:
        raise UsageError(f"--eta must be in 1..{grid.total_points}, got {eta}")
    return eta


# -- parameters ---------------------------------------------------------------


# name -> (kind, default); a default of None marks a required parameter.
# The name is both the flag (--name) and the --config key.
_GRID = {"dim": (int, 3), "points": (int, None), "omega": (float, None),
         "eta": (int, None), "nuclei": (str, ""), "soften": (float, 0.0),
         "time": (float, None), "steps": (int, None)}

_PARAMETERS = {
    "evolve": {**_GRID, "order": (int, 2), "seed": (int, 0), "in": (str, ""),
               "out": (str, None)},
    "tdhf": {**_GRID, "dim": (int, 1), "observables": (str, "energy"),
             "coeffs": (str, ""), "out": (str, None)},
    "prep": {"coeffs": (str, None), "verify": (bool, False),
             "ledger-out": (str, "")},
    "shadows": {"in": (str, None), "k": (int, 1), "epsilon": (float, None),
                "delta": (float, None), "samples": (str, "auto"),
                "seed": (int, 0), "elements": (str, "all-1rdm"),
                "out": (str, None), "dump-samples": (str, "")},
    "cost": {"alpha-range": (str, ""), "query": (str, ""), "out": (str, "")},
}

# The parameters that name files: a run reads its inputs and writes its
# outputs, each with a manifest next to it.
_INPUTS = ("in", "nuclei", "coeffs", "elements")
_OUTPUTS = ("out", "ledger-out", "dump-samples")


def _files(sub, value) -> tuple[dict, dict]:
    """{key: path} of the inputs and of the outputs of a run of ``sub``,
    each path ``value(key)`` checked by :func:`_file_name`; an empty one
    and --elements all-1rdm name no file."""
    def named(keys):
        given = {key: value(key) for key in keys if key in _PARAMETERS[sub]}
        return {key: _file_name(path, f"--{key}")
                for key, path in given.items() if path not in (None, "")
                and (key, path) != ("elements", "all-1rdm")}
    return named(_INPUTS), named(_OUTPUTS)


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string"}


def _checked(value, kind, name):
    """``value`` as an int, a finite float, a bool or a string.

    Flags arrive as text, config values as JSON; a value that is not of
    the kind (a fractional int, a NaN, a string bool, true for a number,
    a list for a string) is a usage error naming ``name``.
    """
    try:
        out = kind(value)
        valid = (isinstance(value, kind) if kind in (bool, str)
                 else not isinstance(value, bool)
                 and math.isfinite(out) and float(value) == out)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise UsageError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return out


def _file_name(path, name):
    """``path``, a string holding no NUL character, as no file name does."""
    if "\0" in _checked(path, str, name):
        raise UsageError(f"{name} {path!r} holds a NUL character")
    return path


def _given(args, config, key):
    """The flag ``key``, else its config value, else None."""
    flag = getattr(args, key, None)
    return config.get(key) if flag is None else flag


def _resolve(sub, args, config, fixed=None, source=""):
    """The parameters of ``sub``: flag, else config value, else default.

    Each value is cast once by its kind. ``fixed`` holds the values an
    input file (``source``) fixes: they may be omitted, and one given
    that disagrees is an error.
    """
    fixed = fixed or {}
    p, missing = {}, []
    for key, (kind, default) in _PARAMETERS[sub].items():
        value = _given(args, config, key)
        if value is None:
            value = fixed.get(key, default)
        if value is None:
            missing.append(key)
            continue
        count = key == "samples" and type(value) is int  # may be a JSON integer
        p[key] = value if count else _checked(value, kind, f"--{key}")
        if key in fixed and p[key] != fixed[key]:
            raise UsageError(f"--{key} {value} disagrees with the {source} "
                             f"{key} {fixed[key]}")
    if missing:
        raise UsageError(f"missing required parameters: {', '.join(missing)}")
    return p


# -- subcommands --------------------------------------------------------------


def _grid(p) -> GridSpec:
    return GridSpec(dim=p["dim"], points_per_axis=p["points"],
                    cell_volume=p["omega"])


def _cmd_evolve(args, config) -> dict:
    snapshot = _given(args, config, "in")  # a string: dispatch checked it
    state = load_state(snapshot) if snapshot else None
    fixed = None if state is None else {
        "dim": state.grid.dim, "points": state.grid.points_per_axis,
        "omega": float(state.grid.cell_volume), "eta": state.eta}
    p = _resolve("evolve", args, config, fixed, "snapshot")
    grid = state.grid if state is not None else _grid(p)
    ham = _hamiltonian(p, grid)
    plan = EvolutionPlan(total_time=p["time"], steps=p["steps"], order=p["order"])
    if state is None:
        state = lowest_momentum_slater(grid, _particle_count(p, grid))
    block = state.tensor
    del state  # the propagation overwrites the N^eta block; nothing else is kept
    save_state(p["out"], evolve_block(block, plan, ham))
    return p


def _cmd_tdhf(args, config) -> dict:
    coeffs_path = _given(args, config, "coeffs")
    coeffs = _load_coeffs(coeffs_path) if coeffs_path else None
    fixed = None if coeffs is None else {"eta": coeffs.shape[1]}
    p = _resolve("tdhf", args, config, fixed, "coefficient CSV")
    wanted = [w.strip() for w in p["observables"].split(",") if w.strip()]
    unknown = set(wanted) - {"energy", "rdm-diag"}
    if unknown:
        raise UsageError(f"unknown observables: {sorted(unknown)}")
    plan = TdhfPlan(total_time=p["time"], steps=p["steps"])
    grid = _grid(p)
    integrals = GridIntegrals.from_grid(_hamiltonian(p, grid))
    if coeffs is None:
        coeffs = core_guess(integrals.h, _particle_count(p, grid))
    orbitals = OccupiedOrbitals(coeffs, grid)
    rdm = "rdm-diag" in wanted
    traj = evolve_tdhf(orbitals, integrals, plan, record_rdm_diag=rdm,
                       keep_history=False)
    header = ["step", "time", "energy"]
    if rdm:
        header += [f"rdm_{i}" for i in range(grid.total_points)]
    # each row is written as it is made: the table is never held whole
    rows = ([step, float(traj.times[step]), float(traj.energies[step])]
            + (traj.rdm_diagonals[step].tolist() if rdm else [])
            for step in range(len(traj.times)))
    _write_csv(p["out"], header, rows)
    return p


def _cmd_prep(args, config) -> dict:
    p = _resolve("prep", args, config)
    coeffs = _load_coeffs(p["coeffs"])
    n, eta = coeffs.shape
    result = prepare_slater(coeffs, validate=p["verify"])
    if p["ledger-out"]:
        rows = sorted(result.ledger.counts.items())
        rows.append(("total", result.ledger.total))
        _write_csv(p["ledger-out"], ["primitive", "toffolis"], rows)
    print(f"prepared N={n} eta={eta}: ledger total {result.ledger.total} "
          f"(closed form {toffoli_count(n, eta, 'improved')})")
    if p["verify"]:
        overlap, ledger_ok = verify_preparation(coeffs, result)
        print(f"oracle overlap modulus: {overlap:.12f}")
        print(f"ledger matches closed form: {ledger_ok}")
        if abs(overlap - 1.0) > 1e-9 or not ledger_ok:
            raise NumericalAssumptionError("preparation verification failed")
    return p


def _parse_elements(spec_text, k):
    """'all-1rdm' or (bra, ket) rows of 2k integers; read_out checks the range."""
    if spec_text == "all-1rdm":
        return spec_text
    rows = _read_text(spec_text, int)
    if not rows:
        raise UsageError(f"element CSV {spec_text} holds no rows")
    if any(len(row) != 2 * k for row in rows):
        raise UsageError(f"element CSV {spec_text} needs 2k = {2 * k} labels a row")
    return [(tuple(row[:k]), tuple(row[k:])) for row in rows]


def _cmd_shadows(args, config) -> dict:
    p = _resolve("shadows", args, config)
    if p["seed"] < 0:  # refused before the snapshot is read
        raise UsageError(f"--seed must be a nonnegative integer, got {p['seed']}")
    state = load_state(p["in"])
    check_order(p["k"], state.eta)  # before the element rows are split by k
    samples = (p["samples"] if p["samples"] == "auto"
               else _checked(p["samples"], int, "--samples"))
    est, batch, readings = read_out(
        state, p["k"], p["epsilon"], p["delta"], samples, p["seed"],
        _parse_elements(p["elements"], p["k"]))
    rows = [[";".join(map(str, bra)), ";".join(map(str, ket)), value.real,
             value.imag, est.groups, est.group_size]
            for (bra, ket), (value, _) in readings]
    _write_csv(p["out"], ["i", "j", "re", "im", "groups", "group_size"], rows)
    if p["dump-samples"]:
        # the key text is formed here, the one place it is written
        sample_rows = (["|".join(keys), "|".join(map(str, outcomes))]
                       for keys, outcomes in zip(batch.keys, batch.outcomes))
        _write_csv(p["dump-samples"], ["cliffords", "outcomes"], sample_rows)
    return p


def _cmd_cost(args, config) -> dict:
    p = _resolve("cost", args, config)
    if bool(p["alpha-range"]) == bool(p["query"]):
        raise UsageError("cost takes exactly one of --alpha-range and --query")
    if p["alpha-range"]:
        if not p["out"]:
            raise UsageError("--alpha-range needs --out")
        try:
            lo, hi, step = (float(v) for v in p["alpha-range"].split(":"))
        except Exception as exc:
            raise UsageError("--alpha-range must be lo:hi:step") from exc
        if not (np.all(np.isfinite([lo, hi, step])) and step > 0 and lo <= hi):
            raise UsageError("--alpha-range needs finite lo <= hi and step > 0")
        if lo < 1:  # refused here, not by the first row of a written file
            raise ValidationError("alpha must be >= 1")
        check_budget("the --alpha-range table", ((hi - lo) / step + 1,))
        count = int(round((hi - lo) / step)) + 1
        alphas = (lo + i * step for i in range(count) if lo + i * step <= hi + 1e-12)
        # each row is written as it is made: the table is never held whole
        columns = ["alpha", "beta_classical", "beta_quantum", "speedup",
                   "optimal_quantum", "optimal_classical_term"]
        _write_csv(p["out"], columns,
                   ([r[c] for c in columns] for r in regime_table(alphas)))
        return p
    vals = [v.strip() for v in p["query"].split(",")]
    names = ["n_basis", "eta", "time", "epsilon", "occupied_orbitals",
             "time_points", "observable_norm", "sampling_cost", "k_body"]
    if not 4 <= len(vals) <= len(names):
        raise UsageError(f"--query needs N,eta,t,eps and at most "
                         f"{len(names)} fields, got {len(vals)}")
    kwargs = {}
    for name, val in zip(names, vals):
        if val == "":
            if name in ("n_basis", "eta"):
                raise UsageError(f"--query field {name} is empty")
            continue
        try:
            number = float(val)
        except ValueError as exc:
            raise UsageError(
                f"--query value {val!r} for {name} is not a number") from exc
        counted = name in ("n_basis", "eta", "k_body")
        number = _checked(number, int if counted else float,
                          f"--query field {name}")
        kwargs[name] = number if name == "k_body" else float(number)
    report = cost_report(CostQuery(**kwargs))
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if p["out"]:
        with open(p["out"], "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return p


# -- dispatcher ----------------------------------------------------------------


_COMMANDS = {
    "evolve": (_cmd_evolve, "split-operator Trotter evolution"),
    "tdhf": (_cmd_tdhf, "real-time mean-field propagation"),
    "prep": (_cmd_prep, "Slater preparation with gate ledger"),
    "shadows": (_cmd_shadows, "classical-shadow RDM estimation"),
    "cost": (_cmd_cost, "asymptotic cost: a speedup table (--alpha-range) or "
                        "one report (--query); give exactly one"),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose errors are usage errors: one line, exit 2."""

    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves no
    state in it, and a build costs more than a parse."""
    parser = _Parser(prog="fqlab", allow_abbrev=False,
                     description="First-quantized electron-dynamics laboratory")
    parser.add_argument("--manifest", help="replay a recorded run")
    parser.add_argument("--threads", default=1)
    parser.add_argument("--config", help="JSON file with defaults")
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, help_text) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key, (kind, _) in _PARAMETERS[name].items():
            if kind is bool:
                command.add_argument(f"--{key}", dest=key,
                                     action="store_const", const=True)
            else:
                command.add_argument(f"--{key}", dest=key)
    return parser


def _replayed(path):
    """Subcommand and parameters of a manifest whose inputs are unchanged."""
    recorded = _load_json(path)
    sub = recorded.get("subcommand")
    if not isinstance(sub, str) or sub not in _COMMANDS:
        raise UsageError(f"manifest names unknown subcommand {sub!r}")
    params, inputs = recorded.get("parameters", {}), recorded.get("inputs", {})
    if not (isinstance(params, dict) and isinstance(inputs, dict)):
        raise UsageError(f"{path}: parameters and inputs must be JSON objects")
    for name, digest in inputs.items():
        if _digest(_file_name(name, "replay input")) != digest:
            raise UsageError(f"replay input {name} differs from the one "
                             f"{path} recorded")
    return sub, params


def dispatch(argv) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        # checked, then unused: the benchmark's shadows calls pass it
        threads = _checked(args.threads, int, "--threads")
        if threads < 1:
            raise UsageError(f"--threads must be at least 1, got {threads}")
        if args.manifest:
            sub, config = _replayed(args.manifest)
            args = argparse.Namespace()
        elif args.subcommand:
            sub = args.subcommand
            config = _load_json(args.config) if args.config else {}
        else:
            raise UsageError("give a subcommand or --manifest")
        unknown = sorted(set(config) - set(_PARAMETERS[sub]))
        if unknown:
            raise UsageError(f"unknown {sub} parameters: {', '.join(unknown)}")
        # every output is checked before any work, and its manifest is
        # written from the parameters the subcommand resolved
        _check_writable(*_files(sub, lambda key: _given(args, config, key)))
        _write_manifest(sub, _COMMANDS[sub][0](args, config))
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
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
