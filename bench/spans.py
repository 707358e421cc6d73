"""Boundary spans and work counters around focksim's public functions.

`tracing(tracer)` rebinds, for its duration, every public function defined
in a `focksim.*` module under each name any `focksim.*` module binds it to,
plus `PureState.__init__` and `ModeUnitary.__init__`.  A call through any of
those bindings (`experiments.transform`, `evolve.transform`, the package
export) records one span: name, start, end, parent span and op id.  Work
counters are computed from call arguments and results at the same
boundaries, inside `trace.hook` child spans so their cost is billed to no
layer.  Nothing under `src/` changes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence

#: Op id of spans recorded outside an op: preparing inputs, checking outputs.
CHECK = -1

HOOK = "trace.hook"


class Tracer:
    """In-memory span log; spans are [name, start, end, parent, op] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = CHECK
        self._stack: list[int] = []
        #: work counters of the ops; calls made by checks are not counted
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        if self.op != CHECK:
            self.counts[key] += value

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            fields = ["name", "start", "end", "parent", "op"]
            json.dump({"fields": fields, "spans": self.spans}, handle)


@contextlib.contextmanager
def span(tracer: Tracer | None, name: str, op: int):
    """Record one span for the benchmark's own step `op`, if tracing."""
    if tracer is None:
        yield
        return
    tracer.op = op
    index = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(index)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _size(items: Iterable) -> int:
    return sum(1 for _ in items)


def _count_pure_state(tracer, args, kwargs, result):
    tracer.count("core.PureState.passed", len(_arg(args, kwargs, 2, "amplitudes")))
    tracer.count("core.PureState.kept", _size(args[0].items()))


def _count_transform(tracer, args, kwargs, result):
    state = _arg(args, kwargs, 1, "state")
    size = state.registry.size
    components = [sum(occ) for occ, _ in state.items()]
    tracer.count("evolve.transform.in_components", len(components))
    tracer.count(
        "evolve.transform.targets_dense", sum(math.comb(n + size - 1, n) for n in components)
    )
    tracer.count("evolve.transform.out_nonzero", _size(result.items()))


def _count_herald(tracer, args, kwargs, result):
    tracer.count("evolve.herald.norm_in", _arg(args, kwargs, 0, "state").norm_squared())
    tracer.count("evolve.herald.probability_out", result.probability)


def _count_write_csv(tracer, args, kwargs, result):
    tracer.count("cli.write_csv.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


HOOKS: dict[str, Callable] = {
    "core.PureState": _count_pure_state,
    "evolve.transform": _count_transform,
    "evolve.herald": _count_herald,
    "cli.write_csv": _count_write_csv,
}


def _wrap(function: Callable, name: str, tracer: Tracer) -> Callable:
    hook = HOOKS.get(name)

    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            index = tracer.open(HOOK)
            try:
                hook(tracer, args, kwargs, result)
            finally:
                tracer.close(index)
        return result

    traced.__wrapped__ = function
    return traced


def _span_name(function: Callable) -> str:
    return f"{function.__module__.removeprefix('focksim.')}.{function.__qualname__}"


@contextlib.contextmanager
def tracing(tracer: Tracer | None):
    """Record spans into `tracer` for every focksim public function while active.

    With no tracer, nothing is patched.
    """
    if tracer is None:
        yield None
        return
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "focksim" or name.startswith("focksim."))
    ]
    wrappers: dict[int, Callable] = {}
    patches: list[tuple[object, str, object]] = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if not str(getattr(value, "__module__", "")).startswith("focksim"):
                continue
            wrapper = wrappers.get(id(value))
            if wrapper is None:
                wrapper = wrappers[id(value)] = _wrap(value, _span_name(value), tracer)
            patches.append((module, attr, value))
            setattr(module, attr, wrapper)
    core, elements = sys.modules["focksim.core"], sys.modules["focksim.elements"]
    for cls in (core.PureState, elements.ModeUnitary):
        name = f"{cls.__module__.removeprefix('focksim.')}.{cls.__qualname__}"
        patches.append((cls, "__init__", cls.__init__))
        cls.__init__ = _wrap(cls.__init__, name, tracer)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans: Sequence[Sequence], keep: Callable[[int], bool]) -> tuple[dict, Counter]:
    """Per-name self time (seconds) and call count over spans whose op passes `keep`.

    A span's self time is its duration minus the durations of its child
    spans.  `Tracer` opens and closes spans in stack order on one thread, so
    children never overlap each other or outlast their parent.
    """
    child_seconds: dict[int, float] = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, parent, op) in enumerate(spans):
        if keep(op):
            seconds[name] += (end - start) - child_seconds[index]
            calls[name] += 1
    return seconds, calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, traced_wall: float, sweep_points: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    seconds, calls = self_times(tracer.spans, lambda op: op != CHECK)
    check_seconds, _ = self_times(tracer.spans, lambda op: op == CHECK)
    counts = tracer.counts
    cli_front = math.fsum(
        s for name, s in seconds.items() if name.startswith("cli.") and name != "cli.write_csv"
    )
    transform_calls = calls["evolve.transform"]
    metrics = {
        "core.PureState.calls": (calls["core.PureState"], "count"),
        "core.PureState.self_s": (seconds["core.PureState"], "s"),
        "core.PureState.kept_ratio": (
            _ratio(counts["core.PureState.kept"], counts["core.PureState.passed"]),
            "ratio",
        ),
        "core.tensor_product.self_s": (seconds["core.tensor_product"], "s"),
        "core.relabel.self_s": (seconds["core.relabel"], "s"),
        "core.expand_onto.self_s": (seconds["core.expand_onto"], "s"),
        "elements.ModeUnitary.calls": (calls["elements.ModeUnitary"], "count"),
        "elements.ModeUnitary.self_s": (seconds["elements.ModeUnitary"], "s"),
        "elements.embed_into.self_s": (seconds["elements.embed_into"], "s"),
        "elements.compose.self_s": (seconds["elements.compose"], "s"),
        "distinguish.extend_ancilla.calls": (calls["distinguish.extend_ancilla"], "count"),
        "distinguish.extend_ancilla.self_s": (seconds["distinguish.extend_ancilla"], "s"),
        "evolve.transform.calls": (transform_calls, "count"),
        "evolve.transform.self_s": (seconds["evolve.transform"], "s"),
        "evolve.transform.share": (_ratio(seconds["evolve.transform"], traced_wall), "ratio"),
        "evolve.transform.in_components": (counts["evolve.transform.in_components"], "count"),
        "evolve.transform.targets_dense": (counts["evolve.transform.targets_dense"], "count"),
        "evolve.transform.out_nonzero": (counts["evolve.transform.out_nonzero"], "count"),
        "evolve.transform.yield": (
            _ratio(
                counts["evolve.transform.out_nonzero"], counts["evolve.transform.targets_dense"]
            ),
            "ratio",
        ),
        "evolve.herald.calls": (calls["evolve.herald"], "count"),
        "evolve.herald.self_s": (seconds["evolve.herald"], "s"),
        "evolve.herald.accept_ratio": (
            _ratio(counts["evolve.herald.probability_out"], counts["evolve.herald.norm_in"]),
            "ratio",
        ),
        "evolve.ns_pipeline.self_s": (seconds["evolve.ns_pipeline"], "s"),
        "evolve.transform_oracle.self_s": (check_seconds["evolve.transform_oracle"], "s"),
        "experiments.apply_bs1.calls": (calls["experiments.apply_bs1"], "count"),
        "experiments.apply_bs1.self_s": (seconds["experiments.apply_bs1"], "s"),
        "experiments.analysis_circuit.calls": (calls["experiments.analysis_circuit"], "count"),
        "experiments.analysis_circuit.self_s": (seconds["experiments.analysis_circuit"], "s"),
        "experiments.fourfold_from_mode3.self_s": (seconds["experiments.fourfold_from_mode3"], "s"),
        "experiments.twofold_probability.self_s": (seconds["experiments.twofold_probability"], "s"),
        "experiments.fit_fringe.self_s": (seconds["experiments.fit_fringe"], "s"),
        "experiments.transforms_per_point": (_ratio(transform_calls, sweep_points), "count/point"),
        "cli.execute.self_s": (cli_front, "s"),
        "cli.write_csv.self_s": (seconds["cli.write_csv"], "s"),
        "cli.write_csv.bytes": (counts["cli.write_csv.bytes"], "B"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return metrics
