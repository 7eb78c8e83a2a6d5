"""fqlab benchmark: one workload per process, through the documented CLI.

Usage, from the root of a checkout (the directory holding ``src/fqlab``):

    python3 perfbench/run.py --workload readout_small --seed 1 \\
        --seconds 20 --trace 0

Workloads: readout_small, dynamics, prep_dense (see
``workloads.py`` and ``workloads.json``). Each runs as a closed loop with
one client: operation i + 1 starts when operation i and its output
checks have ended. Operations are calls of ``fqlab.cli.dispatch`` in
this process, with shadows at ``--threads 1`` and BLAS pinned to one
thread. Op 0 is the first op of the process; op 1 replays op 0 from its
manifests (``fqlab --manifest``) with op 0's outputs moved aside, and
must write them again byte-identical; fresh ops follow until
``--seconds`` have passed. The
replay and the fresh ops are the warm ops.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends the
second half of ``--seconds`` on ops with timing spans, then runs one op
with allocation tracing, and prints the per-layer metrics (see
``tracer.py``), the tracing overhead, and the first-op time and per-call
rates of the untraced ops; the spans go to
``.perfbench/trace-<workload>-seed<seed>.json``. ``--smoke`` uses the
tiny sizes of the self-test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every operation and check passed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Per-call rates printed by name: call label -> rate name.
RATE_NAMES = {
    "slater-k1": "samples_per_s", "random-k1": "samples_per_s",
    "filled-k2": "samples_per_s",
    "evolve-o2": "trotter2_steps_per_s", "evolve-o4": "trotter4_steps_per_s",
    "tdhf": "tdhf_steps_per_s", "prep": "window_ops_per_s",
}
# Median time of the reference kernel on the machine in workloads.json,
# recorded once. It converts setup_s from reference units back to
# seconds, so it is a fixed scale and is never re-measured.
REFERENCE_KERNEL_S = 0.0556
# Per-layer rates of a traced run, from its untraced warm ops.
RUN_RATES = ("samples_per_s", "trotter2_steps_per_s", "trotter4_steps_per_s",
             "tdhf_steps_per_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="make the shared inputs in DIR, print the "
                             "monotonic time, exit (times setup_s)")
    return parser.parse_args(argv)


def import_program():
    """Import fqlab from this checkout's sources, never from elsewhere."""
    if not (SRC / "fqlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'fqlab'} not found; run from "
                         "the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fqlab
    import fqlab.cli
    if Path(fqlab.__file__).resolve().parent != SRC / "fqlab":
        raise SystemExit(f"perfbench: imported fqlab from {fqlab.__file__}, "
                         f"not from {SRC}")
    return fqlab.cli


def machine_info():
    """The facts about this machine that the figures depend on."""
    import numpy
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.partition(":")[2].strip()
                break
    for index in range(4):
        cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        with contextlib.suppress(OSError):
            level = (cache / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (cache / "size").read_text().strip()
    return info


def make_workload(args, workdir):
    import workloads
    profile = "smoke" if args.smoke else "full"
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    reference = workloads.load_reference()[profile]
    return workloads.WORKLOADS[args.workload](
        workloads.SIZES[profile][args.workload], args.seed, workdir, reference)


class SetupTimer:
    """Times set-up in fresh processes: process start -> shared inputs written.

    One sample is taken before every op and one after the last, outside
    the timed calls, so that the samples spread over the run. Each sample
    is bracketed by two reference measurements (see HostReference);
    ``scaled`` is the sample in reference units times REFERENCE_KERNEL_S,
    that is, seconds at the host speed of the recording.
    """

    def __init__(self, args, base, reference):
        self.args, self.base, self.reference = args, base, reference
        self.samples, self.scaled = [], []

    def __call__(self):
        before = self.reference.measure()
        self._sample()
        self.reference.measure()
        self.scaled.append(self.samples[-1] / self.reference.around(before)
                           * REFERENCE_KERNEL_S)

    def _sample(self):
        workdir = self.base / f"setup{len(self.samples)}"
        workdir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--setup-only", str(workdir)]
        if self.args.smoke:
            cmd.append("--smoke")
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        self.samples.append(float(proc.stdout.split()[-1]) - start)
        shutil.rmtree(workdir)


def _output_path(argv):
    for flag in ("--out", "--ledger-out"):
        if flag in argv:
            return Path(argv[argv.index(flag) + 1])
    raise ValueError(f"call {argv} names no output")




class HostReference:
    """Times a fixed reference kernel around every call, in a helper process.

    On the machine in workloads.json the speed of every process drifts by
    tens of percent over tens of seconds (other tenants of the host), and
    no run length the time budget allows averages that out. A call's time
    in reference units is its wall time over the mean of the kernel times
    measured before and after it (see reference_kernel.py), so a change
    of host speed largely cancels while a change of fqlab does not.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference_kernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def measure(self):
        """Time the kernel now; returns the index of the measurement."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference kernel process ended")
        self.times.append(float(line))
        return len(self.times) - 1

    def around(self, index):
        """Kernel time around the call measured after ``index``, in seconds."""
        return (self.times[index] + self.times[index + 1]) / 2


class Runner:
    """Runs the operations of one workload and keeps their timings.

    An op record holds its phase, its calls as (label, seconds, units,
    index of the reference measurement just before the call), their
    total and an error or None. Every op ends with one more reference
    measurement, after its output checks, so each call is bracketed by
    two. Phases: "first" (op 0), "replay" (op 1, op 0 replayed from its
    manifests), "warm" (untraced), "traced" (timing spans) and "memory"
    (allocation tracing, not timed).
    """

    WARM = ("replay", "warm")

    def __init__(self, cli, workload, base, reference, tracer=None):
        self.cli, self.workload, self.base = cli, workload, base
        self.reference, self.tracer = reference, tracer
        self.ops = []

    def _call(self, record, label, argv, units, out):
        before = self.reference.measure()
        traced = record["phase"] in ("traced", "memory")
        span = (self.tracer.enter("bench.call", {"label": label, "units": units})
                if traced else None)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.cli.dispatch(argv)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.exit(span)
        record["calls"].append((label, elapsed, units, before))
        record["total"] += elapsed
        if code != 0:
            raise RuntimeError(f"{label}: exit code {code}")

    def _run(self, phase, body):
        index = len(self.ops)
        record = {"phase": phase, "calls": [], "total": 0.0, "error": None}
        self.ops.append(record)
        traced = phase in ("traced", "memory")
        op_span = self.tracer.enter("bench.op", {"op": index}) if traced else None
        try:
            body(index, record)
            if traced:
                self.tracer.exit(op_span)
        except Exception as exc:  # one failed op must not end the run
            record["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            if traced:
                self.tracer.abandon()
        self.reference.measure()
        detail = ", ".join(f"{c[0]} {c[1]:.3f}" for c in record["calls"])
        print(f"op {index} {phase}: {record['total']:.3f} s [{detail}] "
              f"{record['error'] or 'ok'}")

    def run_op(self, phase):
        """A fresh op: its own inputs and outputs, checked afterwards."""
        def body(index, record):
            opdir = self.base / f"op{index:03d}"
            opdir.mkdir()
            out = io.StringIO()
            try:
                for label, argv, units in self.workload.op_calls(index, opdir):
                    self._call(record, label, argv, units, out)
                self.workload.check(index, opdir, out.getvalue())
            finally:
                if index > 0:  # op 0 stays for the replay
                    shutil.rmtree(opdir)
        self._run(phase, body)

    def replay_op(self):
        """Replay op 0 from its manifests; it must rewrite op 0's outputs.

        Op 0's outputs and manifests are moved aside first, so a replay
        that writes nothing fails. Each must come back byte-identical,
        and the replay must write nothing else into op 0's directory.
        """
        def body(index, record):
            if self.ops[0]["error"]:
                raise RuntimeError("op 0 failed, so there is nothing to replay")
            opdir, saved = self.base / "op000", self.base / "op000-saved"
            saved.mkdir()
            calls = []
            for label, argv, units in self.workload.op_calls(0, opdir):
                manifest = Path(f"{_output_path(argv)}.manifest.json")
                with open(manifest) as fh:
                    outputs = list(map(Path, json.load(fh)["outputs"]))
                for path in outputs + [Path(f"{p}.manifest.json")
                                       for p in outputs]:
                    path.rename(saved / path.name)
                calls.append((label, saved / manifest.name, units))
            kept = {p.name for p in opdir.iterdir()}
            for label, manifest, units in calls:
                self._call(record, label, ["--manifest", str(manifest)],
                           units, io.StringIO())
            moved = sorted(p.name for p in saved.iterdir())
            wrong = [name for name in moved if not (opdir / name).is_file()
                     or (opdir / name).read_bytes()
                     != (saved / name).read_bytes()]
            extra = {p.name for p in opdir.iterdir()} - kept - set(moved)
            if wrong or extra:
                raise RuntimeError(f"replay did not rewrite {wrong} "
                                   f"byte-identically, or wrote {sorted(extra)}")
            print(f"replay of op 0: {len(moved)} files rewritten "
                  "byte-identical")
        self._run("replay", body)

    def in_reference_units(self, op):
        """The op's time with each call divided by the kernel time around it."""
        return sum(elapsed / self.reference.around(before)
                   for _, elapsed, _, before in op["calls"])

    def phase(self, *phases):
        return [op for op in self.ops if op["phase"] in phases]

    def failed(self):
        return sum(1 for op in self.ops if op["error"])

    def rates(self, ops, in_reference_units=False):
        """{rate name: units / s} over the given ops' calls, plus the total.

        With ``in_reference_units`` each call's time is divided by the
        reference kernel time around its op, so the rates are per
        reference unit instead of per second.
        """
        units, seconds = {}, {}
        for op in ops:
            for label, elapsed, count, before in op["calls"]:
                if count:
                    name = RATE_NAMES[label]
                    units[name] = units.get(name, 0) + count
                    seconds[name] = seconds.get(name, 0.0) + (
                        elapsed / self.reference.around(before)
                        if in_reference_units else elapsed)
        rates = {name: units[name] / seconds[name] for name in units}
        if units:
            rates["work_per_s"] = sum(units.values()) / sum(seconds.values())
        return rates


def run_loop(runner, seconds, trace, between=lambda: None):
    """Op 0, its replay, then fresh warm ops until ``seconds`` have passed.

    ``between`` runs before every untraced op and after the last one. A
    traced run spends the second half on ops with timing spans and then
    runs one op with allocation tracing.
    """
    start = time.monotonic()
    between()
    runner.run_op("first")
    between()
    runner.replay_op()
    while time.monotonic() - start < (seconds / 2 if trace else seconds):
        between()
        runner.run_op("warm")
    between()
    if trace:
        runner.tracer.start()
        try:
            runner.run_op("traced")
            while time.monotonic() - start < seconds:
                runner.run_op("traced")
        finally:
            runner.tracer.stop()
        runner.tracer.start(memory=True)
        try:
            runner.run_op("memory")
        finally:
            runner.tracer.stop()


def end_to_end(runner, setup):
    """End-to-end metrics; ``setup`` is the SetupTimer of the run."""
    warm = runner.phase(*Runner.WARM)
    ref = runner.reference
    op_p50 = statistics.median(op["total"] for op in warm)
    op_p50_ref = statistics.median(map(runner.in_reference_units, warm))
    work_per_ref = runner.rates(warm, in_reference_units=True)["work_per_s"]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"reference kernel: median {statistics.median(ref.times):.4f} s, "
          f"range {min(ref.times):.4f} to {max(ref.times):.4f} s")
    setup_s = statistics.median(setup.scaled)
    print(f"metric setup_s = {setup_s:.4f} s (median of {len(setup.scaled)} "
          f"fresh processes at the recorded reference speed; wall clock "
          f"{', '.join(f'{s:.3f}' for s in setup.samples)} s)")
    print(f"metric work_per_ref = {work_per_ref:.4f} 1/ref "
          f"({runner.workload.work_unit}; {len(warm)} warm ops, the replay "
          "included)")
    print(f"metric peak_rss_mb = {peak:.1f} MB")
    print(f"unbounded: op_p50_ref = {op_p50_ref:.4f} ref")
    print(f"wall-clock figures: first_op_s = {runner.ops[0]['total']:.4f} s, "
          f"op_p50_s = {op_p50:.4f} s")
    for name, value in sorted(runner.rates(warm).items()):
        print(f"wall-clock figures: {name} = {value:.4f} 1/s")
    return {"setup_s": (setup_s, "s"),
            "work_per_ref": (work_per_ref, "1/ref"),
            "peak_rss_mb": (peak, "MB")}


def per_layer(runner):
    traced = runner.phase("traced")
    untraced = runner.phase(*Runner.WARM)
    metrics = runner.tracer.layer_metrics(len(traced))
    traced_p50 = statistics.median(op["total"] for op in traced)
    untraced_p50 = statistics.median(op["total"] for op in untraced)
    # compared in reference units, so that host drift between the halves
    # does not read as tracing overhead
    metrics["trace.overhead_frac"] = (
        statistics.median(map(runner.in_reference_units, traced))
        / statistics.median(map(runner.in_reference_units, untraced)) - 1.0,
        "frac", None)
    metrics["run.first_op_s"] = (runner.ops[0]["total"], "s", None)
    metrics["run.op_p50_s"] = (untraced_p50, "s", None)
    metrics["run.reference_s"] = (statistics.median(runner.reference.times),
                                  "s", None)
    rates = runner.rates(untraced)
    for name in RUN_RATES:
        metrics[f"run.{name}"] = ((rates[name], "1/s", None) if name in rates
                                  else (0.0, "1/s", "no such calls on this "
                                                    "workload"))
    metrics["run.ops_failed_frac"] = (runner.failed() / len(runner.ops),
                                      "frac", None)
    print(f"traced {len(traced)} ops (p50 {traced_p50:.4f} s) against "
          f"{len(untraced)} untraced warm ops (p50 {untraced_p50:.4f} s)")
    for name, (value, unit, reason) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}"
              + (f"  [absent: {reason}]" if reason else ""))
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def main(argv):
    wall_start = time.monotonic()
    args = parse_args(argv)
    cli = import_program()
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        make_workload(args, Path(args.setup_only)).make_inputs()
        print(time.monotonic())
        return 0

    base = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)  # left by a killed run
    base.mkdir(parents=True)
    try:
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"
              f"{' smoke' if args.smoke else ''}")
        print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
        workload = make_workload(args, base)
        workload.make_inputs()

        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            with HostReference() as reference:
                setup = SetupTimer(args, base, reference)
                runner = Runner(cli, workload, base, reference, tracer)
                run_loop(runner, args.seconds, args.trace,
                         (lambda: None) if args.trace else setup)
        finally:
            if tracer:
                tracer.uninstall()

        if args.trace:
            metrics = per_layer(runner)
            trace_path = base.parent / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path, {"workload": args.workload,
                                     "seed": args.seed})
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(runner, setup)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    failed = runner.failed()
    print(f"ops_failed_frac = {failed / len(runner.ops):g} "
          f"({failed}/{len(runner.ops)}); run took "
          f"{time.monotonic() - wall_start:.1f} s")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runner.ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
