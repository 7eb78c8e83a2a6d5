"""Name-based tracer behind the per-layer metrics.

The tracer wraps library functions by name from outside the program:
each target is replaced in every loaded ``fqlab`` module namespace that
binds the same function object (so ``fqlab.cli.evolve`` and
``fqlab.hamiltonian.evolve`` both record), and listed methods are
replaced on their class. A target that no longer exists is reported as
absent with a reason, so refactors that delete helpers keep the
benchmark running.

Spans (name, parent, start, end, bytes allocated above the start, and
captured attributes) are kept in memory and written out at the end.
Times come from a phase without ``tracemalloc``, whose allocation hooks
slow Python-heavy layers several times over. Allocation peaks come from
a separate phase with ``tracemalloc`` on: a span's figure is the peak
during the span minus the traced memory at its start, and peaks are
folded into every open span before each reset, so nesting loses none.
"""

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, qualified name); the span name is "<module tail>.<qualname>".
TARGETS = (
    ("fqlab.cli", "dispatch"),
    ("fqlab.cli", "_write_manifest"),
    ("fqlab.cli", "_write_csv"),
    ("fqlab.states", "load_state"),
    ("fqlab.states", "save_state"),
    ("fqlab.states", "FirstQuantizedState.is_antisymmetric"),
    ("fqlab.states", "slater_oracle"),
    ("fqlab.grids", "centered_dft"),
    ("fqlab.hamiltonian", "evolve"),
    ("fqlab.hamiltonian", "apply_kinetic_evolution"),
    ("fqlab.hamiltonian", "apply_potential_evolution"),
    ("fqlab.hamiltonian", "potential_diagonal"),
    ("fqlab.hamiltonian", "kinetic_phase_table"),
    ("fqlab.meanfield", "GridIntegrals.from_grid"),
    ("fqlab.meanfield", "evolve_tdhf"),
    ("fqlab.meanfield", "tdhf_step"),
    ("fqlab.meanfield", "_fock_from_matrix"),
    ("fqlab.meanfield", "hf_energy"),
    ("fqlab.stateprep", "givens_decompose"),
    ("fqlab.stateprep", "prepare_slater"),
    ("fqlab.stateprep", "ConversionRegisters.apply_window_rotation"),
    ("fqlab.cliffords", "sample_clifford"),
    ("fqlab.shadows", "collect_shadows"),
    ("fqlab.shadows", "estimate_krdm_element"),
    ("fqlab.shadows", "gather_outcome_rows"),
    ("fqlab.costmodel", "cost_report"),
)


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


# Attributes read from a call's arguments after it returns.
CAPTURE = {
    "states.load_state": _file_bytes,
    "states.save_state": _file_bytes,
    "cliffords.sample_clifford":
        lambda args, kwargs: {"n": args[0] if args else kwargs["n"]},
    "shadows.collect_shadows":
        lambda args, kwargs: {"m": args[1] if len(args) > 1 else kwargs["m"]},
}

# Per-layer metrics with their units; "_s" values are seconds per traced op.
LAYER_METRICS = (
    ("cli.dispatch_s", "s"), ("cli.self_s", "s"), ("cli.manifest_s", "s"),
    ("cli.csv_write_s", "s"),
    ("states.load_s", "s"), ("states.save_s", "s"),
    ("states.snapshot_bytes", "bytes"), ("states.antisym_check_s", "s"),
    ("states.slater_oracle_s", "s"),
    ("grids.centered_dft_calls_per_kinetic", "count"),
    ("grids.centered_dft_s", "s"),
    ("hamiltonian.ms_per_step_o2", "ms"), ("hamiltonian.ms_per_step_o4", "ms"),
    ("hamiltonian.kinetic_calls_per_step_o2", "count"),
    ("hamiltonian.kinetic_calls_per_step_o4", "count"),
    ("hamiltonian.kinetic_s", "s"), ("hamiltonian.potential_s", "s"),
    ("hamiltonian.potential_diagonal_calls", "count"),
    ("hamiltonian.potential_diagonal_s", "s"),
    ("hamiltonian.kinetic_table_calls", "count"),
    ("hamiltonian.peak_alloc_mb", "MB"),
    ("meanfield.integrals_s", "s"), ("meanfield.ms_per_step", "ms"),
    ("meanfield.fock_builds_per_step", "count"), ("meanfield.energy_s", "s"),
    ("stateprep.decompose_s", "s"), ("stateprep.prepare_s", "s"),
    ("stateprep.rotations", "count"), ("stateprep.peak_alloc_mb", "MB"),
    ("cliffords.sample_calls", "count"), ("cliffords.sample_s", "s"),
    ("cliffords.us_per_clifford_n2", "us"),
    ("shadows.collect_s", "s"), ("shadows.collect_self_s", "s"),
    ("shadows.us_per_sample", "us"), ("shadows.estimate_calls", "count"),
    ("shadows.estimate_s", "s"), ("shadows.gather_s", "s"),
    ("shadows.peak_alloc_mb", "MB"),
    ("costmodel.report_s", "s"),
)


def span_name(module, qualname):
    return f"{module.rpartition('.')[2]}.{qualname}"


class Absent(Exception):
    """A metric that cannot be measured on this run, with the reason."""


class Span:
    __slots__ = ("name", "parent", "start", "end", "base", "peak", "attrs")

    def __init__(self, name, parent, start, base, attrs):
        self.name, self.parent, self.start = name, parent, start
        self.end, self.base, self.peak, self.attrs = None, base, base, attrs

    @property
    def duration(self):
        return self.end - self.start

    @property
    def alloc(self):
        return self.peak - self.base


class Tracer:
    """Wraps TARGETS while installed; records spans only while active."""

    def __init__(self):
        self.spans = []         # timing phase
        self.memory_spans = []  # allocation phase
        self.absent = {}
        self.active = False
        self.memory = False
        self._stack = []
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self):
        for module, qualname in TARGETS:
            name = span_name(module, qualname)
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent[name] = f"module {module} not found"
                continue
            owner, _, attr = qualname.rpartition(".")
            if owner:
                self._install_method(mod, owner, attr, name)
            else:
                self._install_function(mod, attr, name)

    def _install_function(self, mod, attr, name):
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.absent[name] = f"target {mod.__name__}.{attr} not found"
            return
        wrapped = self._wrap(fn, name)
        for mod_name, namespace in list(sys.modules.items()):
            if namespace is None or mod_name.partition(".")[0] != "fqlab":
                continue
            for key, value in list(vars(namespace).items()):
                if value is fn:
                    setattr(namespace, key, wrapped)
                    self._restore.append((namespace, key, fn))

    def _install_method(self, mod, owner, attr, name):
        cls = getattr(mod, owner, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            self.absent[name] = f"target {mod.__name__}.{owner}.{attr} not found"
            return
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, name))
        else:
            replacement = self._wrap(raw, name)
        setattr(cls, attr, replacement)
        self._restore.append((cls, attr, raw))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        capture = CAPTURE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.enter(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                attrs = capture(args, kwargs) if capture else None
                return result
            finally:
                self.exit(span, attrs)
        return traced

    # -- recording ----------------------------------------------------

    def start(self, memory=False):
        """Record spans: timings only, or allocation peaks with ``memory``."""
        self.memory = memory
        if memory:
            tracemalloc.start()
        self.active = True

    def stop(self):
        self.active = False
        if self.memory:
            tracemalloc.stop()

    def _fold_peak(self):
        current, peak = tracemalloc.get_traced_memory()
        for open_span in self._stack:
            open_span.peak = max(open_span.peak, peak)
        tracemalloc.reset_peak()
        return current

    def enter(self, name, attrs=None):
        current = self._fold_peak() if self.memory else 0
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, time.perf_counter(), current, attrs)
        self._stack.append(span)
        return span

    def exit(self, span, attrs=None):
        span.end = time.perf_counter()
        if self.memory:
            self._fold_peak()
        self._stack.pop()
        if attrs:
            span.attrs = {**(span.attrs or {}), **attrs}
        (self.memory_spans if self.memory else self.spans).append(span)

    def abandon(self):
        """Drop the spans left open by a call that raised."""
        self._stack.clear()

    def dump(self, path, header):
        """Spans as [id, parent id, name, start, end, alloc bytes, attrs]."""
        def rows(spans):
            ids = {id(s): i for i, s in enumerate(spans)}
            return [[i, ids.get(id(s.parent)), s.name, s.start, s.end,
                     s.alloc, s.attrs] for i, s in enumerate(spans)]
        with open(path, "w") as fh:
            json.dump({**header, "absent": self.absent,
                       "spans": rows(self.spans),
                       "memory_spans": rows(self.memory_spans)}, fh)

    # -- per-layer metrics --------------------------------------------

    def layer_metrics(self, ops):
        """{name: (value, unit, absent reason or None)} over ``ops`` traced ops."""
        index = _SpanIndex(self.spans, self.memory_spans, self.absent)
        out = {}
        for name, unit in LAYER_METRICS:
            try:
                out[name] = (float(_METRIC_FUNCS[name](index, ops)), unit, None)
            except Absent as reason:
                out[name] = (0.0, unit, str(reason))
        return out


class _SpanIndex:
    def __init__(self, spans, memory_spans, absent):
        self.absent = absent
        self.memory_spans = memory_spans
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[id(s.parent)].append(s)
        self.all = spans

    def spans(self, name, inside=None):
        """Spans called ``name``, optionally with an ancestor matching ``inside``."""
        if name in self.absent:
            raise Absent(self.absent[name])
        found = self.by_name.get(name, [])
        if inside is None:
            return found
        return [s for s in found if _has_ancestor(s, inside)]

    def total(self, name, inside=None):
        return sum(s.duration for s in self.spans(name, inside))

    def count(self, name, inside=None):
        return len(self.spans(name, inside))

    def self_time(self, span):
        return span.duration - sum(c.duration for c in self.children[id(span)])

    def layer(self, layer, spans=None):
        return [s for s in (self.all if spans is None else spans)
                if s.name.partition(".")[0] == layer]


def _attr(span, key):
    """A captured attribute; 0 when the call raised before capture."""
    return (span.attrs or {}).get(key, 0)


def _has_ancestor(span, predicate):
    node = span.parent
    while node is not None:
        if predicate(node):
            return True
        node = node.parent
    return False


def _named(name):
    return lambda s: s.name == name


def _call(label):
    return lambda s: s.name == "bench.call" and s.attrs["label"] == label


def _ratio(num, den, what):
    if den == 0:
        raise Absent(f"no {what} on this workload")
    return num / den


def _steps(ix, label):
    """Units of work (steps) of the bench calls labelled ``label``."""
    return sum(s.attrs["units"] for s in ix.by_name.get("bench.call", [])
               if s.attrs["label"] == label)


def _per_step(ix, span, label, scale=1.0):
    return scale * _ratio(ix.total(span, _call(label)), _steps(ix, label),
                          f"{label} calls")


def _calls_per_step(ix, span, label):
    return _ratio(ix.count(span, _call(label)), _steps(ix, label),
                  f"{label} calls")


def _peak_mb(ix, layer):
    if not ix.memory_spans:
        raise Absent("no allocation-traced op on this run")
    return max((s.alloc for s in ix.layer(layer, ix.memory_spans)),
               default=0) / 2 ** 20


def _clifford_us(ix, n):
    spans = [s for s in ix.spans("cliffords.sample_clifford")
             if _attr(s, "n") == n]
    return 1e6 * _ratio(sum(s.duration for s in spans), len(spans),
                        f"{n}-qubit Clifford draws")


def _us_per_sample(ix):
    spans = ix.spans("shadows.collect_shadows")
    return 1e6 * _ratio(sum(s.duration for s in spans),
                        sum(_attr(s, "m") for s in spans), "shadow samples")


_KINETIC = "hamiltonian.apply_kinetic_evolution"
_COLLECT = "shadows.collect_shadows"
_TDHF = "meanfield.evolve_tdhf"

_METRIC_FUNCS = {
    "cli.dispatch_s": lambda ix, n: ix.total("cli.dispatch") / n,
    "cli.self_s": lambda ix, n: sum(ix.self_time(s) for s in ix.layer("cli")) / n,
    "cli.manifest_s": lambda ix, n: ix.total("cli._write_manifest") / n,
    "cli.csv_write_s": lambda ix, n: ix.total("cli._write_csv") / n,
    "states.load_s": lambda ix, n: ix.total("states.load_state") / n,
    "states.save_s": lambda ix, n: ix.total("states.save_state") / n,
    "states.snapshot_bytes": lambda ix, n: sum(
        _attr(s, "bytes") for name in ("states.load_state", "states.save_state")
        for s in ix.spans(name)) / n,
    "states.antisym_check_s": lambda ix, n:
        ix.total("states.FirstQuantizedState.is_antisymmetric") / n,
    "states.slater_oracle_s": lambda ix, n: ix.total("states.slater_oracle") / n,
    "grids.centered_dft_calls_per_kinetic": lambda ix, n: _ratio(
        ix.count("grids.centered_dft", _named(_KINETIC)), ix.count(_KINETIC),
        "kinetic substeps"),
    "grids.centered_dft_s": lambda ix, n: ix.total("grids.centered_dft") / n,
    "hamiltonian.ms_per_step_o2": lambda ix, n:
        _per_step(ix, "hamiltonian.evolve", "evolve-o2", 1e3),
    "hamiltonian.ms_per_step_o4": lambda ix, n:
        _per_step(ix, "hamiltonian.evolve", "evolve-o4", 1e3),
    "hamiltonian.kinetic_calls_per_step_o2": lambda ix, n:
        _calls_per_step(ix, _KINETIC, "evolve-o2"),
    "hamiltonian.kinetic_calls_per_step_o4": lambda ix, n:
        _calls_per_step(ix, _KINETIC, "evolve-o4"),
    "hamiltonian.kinetic_s": lambda ix, n: ix.total(_KINETIC) / n,
    "hamiltonian.potential_s": lambda ix, n:
        ix.total("hamiltonian.apply_potential_evolution") / n,
    "hamiltonian.potential_diagonal_calls": lambda ix, n:
        ix.count("hamiltonian.potential_diagonal") / n,
    "hamiltonian.potential_diagonal_s": lambda ix, n:
        ix.total("hamiltonian.potential_diagonal") / n,
    "hamiltonian.kinetic_table_calls": lambda ix, n:
        ix.count("hamiltonian.kinetic_phase_table") / n,
    "hamiltonian.peak_alloc_mb": lambda ix, n: _peak_mb(ix, "hamiltonian"),
    "meanfield.integrals_s": lambda ix, n:
        ix.total("meanfield.GridIntegrals.from_grid") / n,
    "meanfield.ms_per_step": lambda ix, n: _per_step(ix, _TDHF, "tdhf", 1e3),
    "meanfield.fock_builds_per_step": lambda ix, n:
        _ratio(ix.count("meanfield._fock_from_matrix",
                        _named("meanfield.tdhf_step")),
               ix.count("meanfield.tdhf_step"), "TDHF steps"),
    "meanfield.energy_s": lambda ix, n: ix.total("meanfield.hf_energy") / n,
    "stateprep.decompose_s": lambda ix, n:
        ix.total("stateprep.givens_decompose") / n,
    "stateprep.prepare_s": lambda ix, n: ix.total("stateprep.prepare_slater") / n,
    "stateprep.rotations": lambda ix, n:
        ix.count("stateprep.ConversionRegisters.apply_window_rotation") / n,
    "stateprep.peak_alloc_mb": lambda ix, n: _peak_mb(ix, "stateprep"),
    "cliffords.sample_calls": lambda ix, n:
        ix.count("cliffords.sample_clifford") / n,
    "cliffords.sample_s": lambda ix, n: ix.total("cliffords.sample_clifford") / n,
    "cliffords.us_per_clifford_n2": lambda ix, n: _clifford_us(ix, 2),
    "shadows.collect_s": lambda ix, n: ix.total(_COLLECT) / n,
    "shadows.collect_self_s": lambda ix, n: (
        ix.total(_COLLECT)
        - ix.total("cliffords.sample_clifford", _named(_COLLECT))) / n,
    "shadows.us_per_sample": lambda ix, n: _us_per_sample(ix),
    "shadows.estimate_calls": lambda ix, n:
        ix.count("shadows.estimate_krdm_element") / n,
    "shadows.estimate_s": lambda ix, n:
        ix.total("shadows.estimate_krdm_element") / n,
    "shadows.gather_s": lambda ix, n: ix.total("shadows.gather_outcome_rows") / n,
    "shadows.peak_alloc_mb": lambda ix, n: _peak_mb(ix, "shadows"),
    "costmodel.report_s": lambda ix, n: ix.total("costmodel.cost_report") / n,
}
