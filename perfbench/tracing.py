"""Spans and counters around the public functions of each `sinklimit` layer.

The wrappers live here, in the benchmark, not in the program.  A target that
a refactor renamed or deleted is reported as absent and the run goes on, so
the traced run keeps working while the layers change underneath it.

Every span records its name, start, end and parent.  Spans are kept in
memory and handed back as plain lists when the run ends.
"""

import importlib
import sys
import time

# (span name, module, attribute, counter).  A counter maps the wrapped
# call's (args, result) to {counter name: value}.
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("cli.emit", "cli", "_emit_json", None),
    ("game.load_game", "game", "load_game", None),
    ("game.build_response_graph", "game", "build_response_graph",
     lambda a, r: {"game.build_response_graph.regular_edges": len(r.regular_edges),
                   "game.build_response_graph.tie_edges": len(r.tie_edges)}),
    ("game.sink_equilibria", "game", "sink_equilibria",
     lambda a, r: {"game.sink_equilibria.sinks": len(r),
                   "game.sink_equilibria.sink_profiles": sum(map(len, r))}),
    ("game.build_cmc", "game", "build_cmc", None),
    ("scc.sink_components", "scc", "sink_components", None),
    ("epsmc.limit_hitting_probabilities", "epsmc", "limit_hitting_probabilities",
     lambda a, r: {"epsmc.rounds": r.rounds, "epsmc.max_order": max(r.order_trace)}),
    ("epsmc.from_cmc", "epsmc", "from_cmc", None),
    ("epsmc.node_orders", "epsmc", "node_orders", None),
    ("epsmc.rsccs", "epsmc", "rsccs", None),
    ("epsmc.collapse_pseudosink", "epsmc", "collapse_pseudosink",
     lambda a, r: {"epsmc.collapse_pseudosink.members": len(a[1])}),
    ("epsmc.delete_epsilon_edges", "epsmc", "delete_epsilon_edges", None),
    ("solver.chain_matrix", "solver", "chain_matrix",
     lambda a, r: {"solver.chain_matrix.nnz": r.matrix.nnz}),
    ("solver.absorption_probabilities", "solver", "absorption_probabilities",
     lambda a, r: {"solver.absorption_probabilities.transient": len(r.transient),
                   "solver.absorption_probabilities.absorbing": len(r.absorbing),
                   "solver.absorption_probabilities.residual": r.residual,
                   "solver.absorption_probabilities.bound_excess": r.bound_excess}),
    ("solver.stationary_distribution", "solver", "stationary_distribution", None),
    ("dynamics.estimate_limit_distribution", "dynamics", "estimate_limit_distribution", None),
]

COUNTERS = (
    "game.build_response_graph.regular_edges", "game.build_response_graph.tie_edges",
    "game.sink_equilibria.sinks", "game.sink_equilibria.sink_profiles",
    "epsmc.rounds", "epsmc.max_order", "epsmc.collapse_pseudosink.members",
    "solver.chain_matrix.nnz", "solver.absorption_probabilities.transient",
    "solver.absorption_probabilities.absorbing", "solver.absorption_probabilities.residual",
    "solver.absorption_probabilities.bound_excess", "dynamics.step_calls", "dynamics.step_rows",
)
# Counters of work summed over calls; the others are sizes, combined by max.
SUM_COUNTERS = {
    "epsmc.rounds", "epsmc.collapse_pseudosink.members",
    "dynamics.step_calls", "dynamics.step_rows",
}

# Called ~40k times per `simulate` run, so it gets counters but no span.
STEP_TARGET = ("dynamics", "_step_batch")


class Tracer:
    """Installs the wrappers and collects spans and counters of one run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self.absent = set()
        self._stack = []

    def _count(self, counts):
        for key, value in counts.items():
            old = self.counts.get(key)
            if old is None:
                self.counts[key] = value
            else:
                self.counts[key] = old + value if key in SUM_COUNTERS else max(old, value)

    def _span(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    self._count(counter(args, result))
                except (AttributeError, TypeError, IndexError, ValueError):
                    self.absent.add(name + " counters")
            return result
        return traced

    def _step(self, fn):
        def counted(*args, **kwargs):
            try:
                rows = len(args[1][0])  # the batch: one array of runs per player
            except (IndexError, TypeError):
                self.absent.add("dynamics.step counters")
                rows = 0
            self._count({"dynamics.step_calls": 1, "dynamics.step_rows": rows})
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        for name, module, attr, counter in TARGETS:
            self._replace(module, attr, name, lambda fn, n=name, c=counter: self._span(n, fn, c))
        self._replace(*STEP_TARGET, "dynamics.step", self._step)

    def _replace(self, module, attr, name, make_wrapper):
        try:
            fn = getattr(importlib.import_module(f"sinklimit.{module}"), attr)
        except (ImportError, AttributeError):
            self.absent.add(name)
            return
        wrapped = make_wrapper(fn)
        # `from .x import f` copies the binding, so swap it in every module.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sinklimit" or mod_name.startswith("sinklimit."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)


def summarize(spans, counts, absent):
    """Per-layer metrics of one traced run: calls, inclusive and self seconds
    per span name, the counters, and the dynamics rates."""
    metrics = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    for name, _, _, _ in TARGETS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.s"] = 0.0
        metrics[f"{name}.self_s"] = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.s"] += end - start
        metrics[f"{name}.self_s"] += end - start - child_time[i]
    metrics.update(dict.fromkeys(COUNTERS, 0), **counts)
    calls = metrics["dynamics.step_calls"]
    rows = metrics["dynamics.step_rows"]
    simulate_s = metrics["dynamics.estimate_limit_distribution.s"]
    metrics["dynamics.rows_per_step_call"] = rows / calls if calls else 0.0
    metrics["dynamics.run_steps_per_s"] = rows / simulate_s if simulate_s else 0.0
    metrics["trace.absent_spans"] = len(absent)
    return metrics
