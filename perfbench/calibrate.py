"""Record the reference values that the benchmark's output checks use.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/calibrate.py

It writes ``perfbench/reference.json`` with, for each size profile:

* ``dynamics``: the total energies of the order-2 and order-4 final
  snapshots, the last TDHF energy and the cost report. The dynamics
  inputs do not depend on the seed, so these are single values, and the
  checks allow 1e-10 on the energies.
* ``tolerance``: for each shadow call, the bound on each error figure of
  ``workloads.ERROR_FIGURES`` (the worst element error and the error of
  the fitted scale) against the exact k-RDM. It is ``TOLERANCE_FACTOR``
  times the largest value seen over ``CALIBRATION_SEEDS`` workload
  seeds; the raw figures are kept under ``calibration``.
"""

import json
import shutil
import sys

import run

TOLERANCE_FACTOR = 2.0
CALIBRATION_SEED0 = 100_000  # away from the small seeds runs usually take
CALIBRATION_SEEDS = 24
READOUTS = ("readout_small",)


def first_op(cli, workload, base):
    opdir = base / "op"
    opdir.mkdir()
    for label, argv, _ in workload.op_calls(0, opdir):
        if cli.dispatch(argv) != 0:
            raise SystemExit(f"calibration call {label} failed")
    return opdir


def main():
    cli = run.import_program()
    import workloads

    out = {"machine": run.machine_info(), "seeds": CALIBRATION_SEEDS,
           "tolerance_factor": TOLERANCE_FACTOR}
    scratch = run.ROOT / ".perfbench" / "calibrate"
    unbounded = dict.fromkeys(workloads.ERROR_FIGURES, float("inf"))
    for profile, sizes in workloads.SIZES.items():
        entry = {"tolerance": {}, "calibration": {}}
        for name in READOUTS:
            cls = workloads.WORKLOADS[name]
            reference = {"tolerance": {
                name: dict.fromkeys(cls.calls, unbounded)}}
            seen = {label: {figure: [] for figure in workloads.ERROR_FIGURES}
                    for label in cls.calls}
            for seed in range(CALIBRATION_SEED0,
                              CALIBRATION_SEED0 + CALIBRATION_SEEDS):
                base = scratch / f"{profile}-{name}-{seed}"
                base.mkdir(parents=True)
                workload = cls(sizes[name], seed, base, reference)
                workload.make_inputs()
                opdir = first_op(cli, workload, base)
                for label, figures in workload.check(0, opdir, "").items():
                    for figure, value in figures.items():
                        seen[label][figure].append(value)
                shutil.rmtree(base)
            entry["tolerance"][name] = {
                label: {figure: TOLERANCE_FACTOR * max(values)
                        for figure, values in figures.items()}
                for label, figures in seen.items()}
            entry["calibration"][name] = seen
            print(profile, name, {
                label: {figure: round(max(values), 4)
                        for figure, values in figures.items()}
                for label, figures in seen.items()})
        base = scratch / f"{profile}-dynamics"
        base.mkdir(parents=True)
        dyn = workloads.Dynamics(sizes["dynamics"], 0, base, {})
        dyn.make_inputs()
        entry["dynamics"] = dyn.final_energies(first_op(cli, dyn, base))
        shutil.rmtree(base)
        print(profile, "dynamics", {k: v for k, v in entry["dynamics"].items()
                                    if k != "cost"})
        out[profile] = entry
    shutil.rmtree(scratch, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
