"""Layer tracing from outside the program: wrap public functions, record spans.

Each wrap point is a public function of one `kglogic` module.  `install`
replaces it in every loaded `kglogic` module that holds it, so the name each
caller resolves (`kglogic.evalrank.forward`, `kglogic.synthgen.load_store`,
...) is the traced one, not only the defining module's.  A wrap point that no
longer exists is skipped, and its metrics read 0.

A span is (name, start, end, parent index), kept in memory.  A span's self
time is its duration minus its direct children's durations, so the self
times of all spans add up to the root span, `cli.main`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

ROOT = "cli.main"

# Exact counters: (counts, args, kwargs, result) -> None.  Arguments are read
# by position with a keyword fallback, matching how the callers pass them.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_load(counts, args, kwargs, store):
    counts["store.entities"] += store.n_entities
    counts["store.triples"] += len(store.triples)


def _count_compile(counts, args, kwargs, net):
    counts["compiler.dim"] = max(counts["compiler.dim"], net.dim)


def _count_groundings(counts, args, kwargs, groundings):
    counts["labeling.groundings"] += len(groundings)


def _count_forward(counts, args, kwargs, state):
    counts["engine.rounds"] += _arg(args, kwargs, 1, "net").layers
    counts["engine.live_bits"] += sum(len(col) for col in state.cols)


def _count_candidates(counts, args, kwargs, entry):
    counts["evalrank.candidates"] += entry["n_candidates"]


def _count_refine(counts, args, kwargs, colors):
    classes = [len(set(row)) for row in colors.rounds]
    counts["bisim.rounds"] += len(classes) - 1
    counts["bisim.classes_final"] = classes[-1]
    # first round whose partition equals the previous one (refinement only
    # splits classes, so equal class counts mean equal partitions); one past
    # the last round when the partition never stabilizes
    counts["bisim.stable_round"] = next(
        (r for r in range(1, len(classes)) if classes[r] == classes[r - 1]),
        len(classes),
    )


# span name -> exact-counter hook (None: call count only)
WRAPS = {
    "cli.main": None,
    "store.load_store": _count_load,
    "formulas.parse": None,
    "compiler.compile_formula": _count_compile,
    "checker.model_check": None,  # ops are counted by the injected OpCounter
    "labeling.el_label": None,
    "labeling.ground_constants": _count_groundings,
    "engine.init_features": None,
    "engine.forward": _count_forward,
    "engine.readout": None,
    "evalrank.run_dataset": None,
    "evalrank.evaluate_queries": None,
    "evalrank.score_query": None,
    "evalrank.rank_metrics": _count_candidates,
    "synthgen.gen_dataset": None,
    "synthgen.write_dataset": None,
    "synthgen.load_dataset": None,
    "bisim.color_refine": _count_refine,
}

# per-layer metric -> span names whose self times it sums
TIME_METRICS = {
    "engine.forward_s": ("engine.forward",),
    "engine.init_s": ("engine.init_features",),
    "engine.readout_s": ("engine.readout",),
    "labeling.ground_s": ("labeling.ground_constants",),
    "labeling.el_label_s": ("labeling.el_label",),
    "evalrank.score_self_s": ("evalrank.score_query",),
    "evalrank.rank_metrics_s": ("evalrank.rank_metrics",),
    "evalrank.eval_self_s": ("evalrank.run_dataset", "evalrank.evaluate_queries"),
    "compiler.compile_s": ("compiler.compile_formula",),
    "formulas.parse_s": ("formulas.parse",),
    "synthgen.gen_self_s": ("synthgen.gen_dataset",),
    "synthgen.write_s": ("synthgen.write_dataset",),
    "synthgen.load_self_s": ("synthgen.load_dataset",),
    "checker.model_check_s": ("checker.model_check",),
    "store.load_s": ("store.load_store",),
    "bisim.refine_s": ("bisim.color_refine",),
    "cli.self_s": ("cli.main",),
}

# per-layer metric -> span name whose calls it counts
CALL_METRICS = {
    "engine.forward_calls": "engine.forward",
    "engine.readout_calls": "engine.readout",
    "labeling.el_label_calls": "labeling.el_label",
    "evalrank.score_calls": "evalrank.score_query",
    "compiler.compile_calls": "compiler.compile_formula",
    "formulas.parse_calls": "formulas.parse",
    "checker.model_check_calls": "checker.model_check",
    "store.load_calls": "store.load_store",
}

HOOK_COUNTERS = (
    "engine.rounds", "engine.live_bits", "labeling.groundings",
    "evalrank.candidates", "compiler.dim", "checker.ops",
    "store.entities", "store.triples",
    "bisim.rounds", "bisim.classes_final", "bisim.stable_round",
)

# Counters that must repeat exactly between traced runs of one seed.
EXACT_COUNTERS = tuple(CALL_METRICS) + HOOK_COUNTERS

PER_LAYER_METRICS = tuple(TIME_METRICS) + EXACT_COUNTERS + ("trace.overhead_s",)


class Tracer:
    """Spans and counters of one traced command run."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, hook, before=None):
        def traced(*args, **kwargs):
            after = None
            if before is not None:
                args, kwargs, after = before(args, kwargs)
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(self.counts)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every wrap point in every loaded kglogic module."""
        for span_name, hook in WRAPS.items():
            module_name, func_name = span_name.split(".")
            try:
                module = importlib.import_module(f"kglogic.{module_name}")
            except ModuleNotFoundError:
                continue
            original = getattr(module, func_name, None)
            if original is None:
                continue
            before = None
            if span_name == "checker.model_check":
                before = _op_counter_injector(original)
            traced = self.wrap(span_name, original, hook, before)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "kglogic" or mod_name.startswith("kglogic."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and exact counters of the recorded run."""
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(self_time[n] for n in names)
        for metric, name in CALL_METRICS.items():
            out[metric] = calls[name]
        for counter in HOOK_COUNTERS:
            out[counter] = self.counts[counter]
        return out

    def self_time_total(self) -> float:
        """Sum of the self times of all spans."""
        child = sum(e - s for _n, s, e, p in self.spans if p >= 0)
        return sum(e - s for _n, s, e, _p in self.spans) - child

    def roots(self) -> list[tuple[str, float]]:
        """(name, duration) of every span without a parent."""
        return [(n, e - s) for n, s, e, p in self.spans if p < 0]


def _op_counter_injector(model_check):
    """Pass an OpCounter to model_check when the caller passes none."""
    if "op_counter" not in inspect.signature(model_check).parameters:
        return None
    from kglogic.checker import OpCounter

    def before(args, kwargs):
        counter = _arg(args, kwargs, 4, "op_counter")
        if counter is None:
            counter = OpCounter()
            kwargs = {**kwargs, "op_counter": counter}
        ops_before = counter.ops

        def after(counts):
            counts["checker.ops"] += counter.ops - ops_before

        return args, kwargs, after

    return before
