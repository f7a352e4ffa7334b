"""Out-of-program tracing of the ``twospeed`` layers.

Every public function defined in a ``twospeed`` module is wrapped
wherever it is bound across the ``twospeed.*`` namespaces, matched by
object identity: the CLI imports functions by name, so patching only
the defining module would miss its calls.  A wrapped call records one
span ``(op, parent, key, start, end, raised)`` in memory, where ``key``
is ``<module>.<function>`` and ``parent`` is the index of the enclosing
span.  Spans are kept until the run ends; self time is derived from
them afterwards.  The module (layer) of a span is the module that
defines the function.

Two SciPy kernels the spectral layer leans on, ``svdvals`` and
``expm``, are counted but not spanned, so their time stays in the
self time of the spectral function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
import types
from collections import Counter

import scipy.linalg

#: Functions whose spans feed a named per-layer metric.  ``install``
#: fails if one of them is bound nowhere, so a refactor that moves or
#: renames a call target fails loudly instead of reading 0.
METRIC_FUNCTIONS = (
    "fields.validate_transport_fields",
    "fields.validate_cross_section_overlap",
    "steady_state.solve_steady",
    "generator.assemble",
    "generator.dissipativity_check",
    "generator.hermitian_abscissa",
    "generator.symmetrized",
    "space.norm",
    "space.deflate_to_mean_zero",
    "space.total_mass",
    "evolution.evolve",
    "spectral.psi_sweep",
    "spectral.spectrum",
    "spectral.restricted_operator",
    "spectral.semigroup_bound_check",
    "stationary_phase.lemma_sweep",
    "cli.load_config",
    "cli.cmd_report",
    "textio.write_csv",
    "textio.write_json",
)

#: SciPy kernels counted (not spanned) while tracing.
COUNTED_KERNELS = {"svdvals": "spectral.dense_svd_calls", "expm": "spectral.expm_calls"}


def _namespaces() -> list:
    """The loaded ``twospeed`` package and its modules."""
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "twospeed" or name.startswith("twospeed."))
    ]


def public_functions() -> dict:
    """Map ``id(fn)`` to ``(key, fn)`` for every public ``twospeed`` function."""
    found = {}
    for mod in _namespaces():
        for value in vars(mod).values():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__.startswith("twospeed.")
                and not value.__name__.startswith("_")
            ):
                key = f"{value.__module__.removeprefix('twospeed.')}.{value.__name__}"
                found[id(value)] = (key, value)
    return found


class Tracer:
    """Spans and counters for the ops of one traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self.op = None
        self._stack: list = []
        self._patched: list = []
        self.bindings: Counter = Counter()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        functions = public_functions()
        wrappers = {fid: self._wrap(key, fn) for fid, (key, fn) in functions.items()}
        for mod in _namespaces():
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is functions[id(value)][1]:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrapper)
                    self.bindings[functions[id(value)][0]] += 1
        for name, counter in COUNTED_KERNELS.items():
            original = getattr(scipy.linalg, name)
            self._patched.append((scipy.linalg, name, original))
            setattr(scipy.linalg, name, self._count(counter, original))
        missing = [key for key in METRIC_FUNCTIONS if not self.bindings[key]]
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions bound nowhere: {missing}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- recording ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts[op] = Counter()

    def end_op(self) -> None:
        self.op = None

    def _count(self, counter: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                self.counts[self.op][counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, key: str, fn):
        hook = _HOOKS.get(key)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (op, parent, key, start, end, raised)
            if hook:
                hook(self.counts[op], signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _matrix_bytes(counts, args, gen) -> None:
    held = sum(
        a.nbytes for a in (gen.matrix, gen.face_b1, gen.face_b2, gen.sigma_cells, gen.steady)
    )
    counts["generator.matrix_bytes"] = max(counts["generator.matrix_bytes"], held)


def _steps(counts, args, series) -> None:
    counts["evolution.steps"] += int(round(series.times[-1] / args["dt"]))


def _bytes_written(counts, args, result) -> None:
    counts["textio.bytes_written"] += os.path.getsize(args["path"])


#: Post-call hooks that read a quantity from a call's arguments or result.
_HOOKS = {
    "generator.assemble": _matrix_bytes,
    "evolution.evolve": _steps,
    "textio.write_csv": _bytes_written,
    "textio.write_json": _bytes_written,
}


# -- analysis -------------------------------------------------------------

#: Layers (modules) whose wrapped calls report ``<layer>.errors``.
LAYERS = (
    "fields", "steady_state", "space", "generator", "evolution",
    "spectral", "stationary_phase", "cli", "textio", "quadrature",
)

#: Per-layer metrics that are counts; they repeat exactly for a seed and
#: are taken from the first traced op.  All others are medians over ops.
COUNT_METRICS = (
    "steady_state.solve_steady_calls",
    "generator.symmetrized_calls",
    "generator.matrix_bytes",
    "space.observer_calls",
    "evolution.steps",
    "spectral.dense_svd_calls",
    "spectral.restricted_operator_calls",
    "spectral.expm_calls",
    "textio.bytes_written",
    "trace.spans",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    suffixes = (("_per_s", "1/s"), ("_us", "us"), ("_s", "s"), ("_bytes", "bytes"), ("bytes_written", "bytes"))
    return next((u for suffix, u in suffixes if name.endswith(suffix)), "count")


def op_profile(spans: list, counts: Counter) -> tuple:
    """Per-layer metrics and self time per function of one op.

    ``spans`` are ``(index, parent, key, start, end, raised)`` rows of
    one op.  A span's self time is its duration minus that of its
    direct children.  Inclusive time counts only the outermost span of
    a key, so a function nested in itself is not counted twice.
    """
    by_index = {s[0]: s for s in spans}
    child_time: Counter = Counter()
    for index, parent, key, start, end, _ in spans:
        if parent in by_index:
            child_time[parent] += end - start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    errors: Counter = Counter()
    observer_calls, observer_s = 0, 0.0
    for index, parent, key, start, end, raised in spans:
        duration = end - start
        calls[key] += 1
        self_time[key] += duration - child_time[index]
        errors[key.split(".")[0]] += raised
        ancestors = []
        up = parent
        while up in by_index:
            ancestors.append(by_index[up][2])
            up = by_index[up][1]
        if key not in ancestors:
            inclusive[key] += duration
        if key.startswith("space.") and any(a.startswith("evolution.") for a in ancestors):
            observer_calls += 1
            if ancestors[0].startswith("evolution."):
                observer_s += duration

    steps = counts["evolution.steps"]
    evolve_s = inclusive["evolution.evolve"]
    metrics = {
        "fields.validate_s": inclusive["fields.validate_transport_fields"]
        + inclusive["fields.validate_cross_section_overlap"],
        "steady_state.solve_steady_calls": calls["steady_state.solve_steady"],
        "steady_state.solve_steady_s": inclusive["steady_state.solve_steady"],
        "generator.assemble_s": inclusive["generator.assemble"],
        "generator.dissipativity_check_s": inclusive["generator.dissipativity_check"],
        "generator.hermitian_abscissa_s": inclusive["generator.hermitian_abscissa"],
        "generator.symmetrized_calls": calls["generator.symmetrized"],
        "generator.matrix_bytes": counts["generator.matrix_bytes"],
        "space.observer_calls": observer_calls,
        "space.observer_s": observer_s,
        "evolution.evolve_s": evolve_s,
        "evolution.steps": steps,
        "evolution.step_us": 1e6 * self_time["evolution.evolve"] / steps if steps else 0.0,
        "evolution.steps_per_s": steps / evolve_s if steps else 0.0,
        "spectral.psi_sweep_s": inclusive["spectral.psi_sweep"],
        "spectral.dense_svd_calls": counts["spectral.dense_svd_calls"],
        "spectral.spectrum_s": inclusive["spectral.spectrum"],
        "spectral.restricted_operator_calls": calls["spectral.restricted_operator"],
        "spectral.semigroup_bound_check_s": inclusive["spectral.semigroup_bound_check"],
        "spectral.expm_calls": counts["spectral.expm_calls"],
        "stationary_phase.lemma_sweep_s": inclusive["stationary_phase.lemma_sweep"],
        "cli.load_config_s": inclusive["cli.load_config"],
        "cli.report_self_s": self_time["cli.cmd_report"],
        "textio.write_s": inclusive["textio.write_csv"] + inclusive["textio.write_json"],
        "textio.bytes_written": counts["textio.bytes_written"],
        "trace.spans": len(spans),
    }
    metrics.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
    return metrics, self_time


def layer_metrics(tracer: Tracer) -> tuple:
    """Per-layer metrics over the traced ops, and the median self time per function.

    Times are medians over ops; counts come from the first traced op
    (the seed's first draw); ``<layer>.errors`` is summed over ops.
    """
    per_op: dict = {op: [] for op in tracer.counts}
    for index, span in enumerate(tracer.spans):
        per_op[span[0]].append((index,) + span[1:])
    profiles = [op_profile(per_op[op], tracer.counts[op]) for op in sorted(per_op)]
    rows = [metrics for metrics, _ in profiles]
    out = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        if name in COUNT_METRICS:
            out[name] = values[0]
        elif name.endswith(".errors"):
            out[name] = sum(values)
        else:
            out[name] = statistics.median(values)
    keys = set().union(*(self_time for _, self_time in profiles))
    self_times = {key: statistics.median(p[1][key] for p in profiles) for key in keys}
    return out, self_times
