"""focksim benchmark: one seeded workload, one closed-loop client.

Usage:
    python3 bench/run.py --workload {sweeps,ns_gate,dense_circuits} \\
        --seed N --seconds S --trace {0,1}

A single process issues one op at a time and waits for it, the way a
scientist's script does; BLAS is pinned to one thread.  Every op's output
is checked against an independent route outside the timed region.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
interpreters), throughput, median op latency and peak resident memory,
plus the 90th-percentile latency where a run completes 100 ops.  --trace 1
runs the op list once untraced and once with spans around every public
focksim function, and prints per-layer metrics.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Run from the root of a checkout;
scratch files and the span log go to `.bench_out/`.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported, here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import oplists  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402  (raises ImportError when the checkout has no src/focksim)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

#: Fresh interpreters timed per run; `setup_s` is their median.
SETUP_REPEATS = 9
#: Outputs of the first ops are kept so one of them can be re-run.
KEPT_OPS = oplists.KEPT_OPS
#: Ops a run must complete before its 90th percentile has ten samples beyond.
P90_MIN_OPS = 100


@dataclass
class Loop:
    """What a run of consecutive ops produced."""

    latencies: list[float] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    kept: dict[int, object] = field(default_factory=dict)

    def extend(self, other: "Loop") -> None:
        self.latencies += other.latencies
        self.failed |= other.failed
        self.kept.update(other.kept)


def run_ops(workload, stream, workdir, start=0, count=1, tracer=None) -> Loop:
    """Run the `count` ops from `start`.

    Only `workload.run` is timed; preparing inputs and checking outputs are
    not.  With a tracer, spans carry the op index and checks carry CHECK.
    """
    loop = Loop()
    for index in range(start, start + count):
        op = stream[index]
        prepared = workload.prepare(op, workdir, f"op{index}")
        with spans.span(tracer, "bench.op", index):
            began = time.perf_counter()
            try:
                output = workload.run(prepared)
                ok = True
            except Exception:
                ok = False
                _report_failure(index)
            latency = time.perf_counter() - began
        with spans.span(tracer, "bench.check", spans.CHECK):
            if ok:
                try:
                    output = workload.collect(output)
                    ok = workload.check(op, output)
                except Exception:
                    ok = False
                    _report_failure(index)
        if not ok:
            loop.failed.add(index)
        elif index < KEPT_OPS:
            loop.kept[index] = output
        loop.latencies.append(latency)
    return loop


def _report_failure(index: int) -> None:
    print(f"op {index} failed:", file=sys.stderr)
    traceback.print_exc()


def rerun_check(workload, stream, workdir, loop: Loop, seed: int) -> None:
    """Re-run one op and require an identical output (CSV bytes never change)."""
    index = min(seed % KEPT_OPS, len(loop.latencies) - 1)
    if index not in loop.kept:
        return  # the op already failed
    try:
        output = workload.collect(workload.run(workload.prepare(stream[index], workdir, "rerun")))
        same = workload.same(loop.kept[index], output)
    except Exception:
        same = False
        _report_failure(index)
    if not same:
        print(f"op {index} gave a different output when re-run", file=sys.stderr)
        loop.failed.add(index)


def setup_seconds(workload_name: str, seed: int, workdir: str) -> float:
    """Import focksim and run op 0 in a fresh interpreter; returns its seconds."""
    probe = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name, str(seed), workdir],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe exited {probe.returncode}: {probe.stderr.strip()}")
    return float(probe.stdout.strip().splitlines()[-1])


def latency_ms(latencies: list[float], percentile: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1] * 1e3


def end_to_end_metrics(setup: list[float], latencies: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, traced_wall, untraced_wall, sweep_points, permanent_us):
    metrics = spans.layer_metrics(tracer, traced_wall, sweep_points)
    for n, micros in permanent_us.items():
        metrics[f"evolve.permanent.us.n{n}"] = (micros, "us")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def environment() -> dict:
    sources = sorted((ROOT / "src" / "focksim").glob("*.py"))
    lines = {path.name: path.read_bytes().count(b"\n") for path in sources}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "source_lines": {**lines, "total": sum(lines.values())},
    }


def _report(metrics: dict, notes: dict) -> list[str]:
    return [
        f"  {name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
        for name, (value, unit) in metrics.items()
    ]


def measure(args, workload, stream, workdir):
    """One untraced run of whole rounds: returns (loops, metrics, report lines).

    The set-up probes are spread over the run, one at the first round
    boundary after each `1 / SETUP_REPEATS` of `--seconds`, so that they
    sample the same drift of the machine's speed as the ops do.
    """
    run_ops(workload, stream, workdir)  # op 0 fills lazy state before timing
    loop, setup, elapsed = Loop(), [], 0.0
    while elapsed < args.seconds:
        if len(setup) * args.seconds <= elapsed * SETUP_REPEATS:
            setup.append(setup_seconds(args.workload, args.seed, workdir))
        part = run_ops(
            workload, stream, workdir, start=len(loop.latencies), count=stream.round_size
        )
        loop.extend(part)
        elapsed += sum(part.latencies)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(args.workload, args.seed, workdir))
    rerun_check(workload, stream, workdir, loop, args.seed)
    done = len(loop.latencies)
    metrics = end_to_end_metrics(setup, loop.latencies)
    lines = _report(
        metrics,
        {
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
            "ops_per_s": f"{done} ops in {sum(loop.latencies):.3f} s of op time",
            "op_p50_ms": f"{done} samples",
        },
    )
    # The 90th percentile needs ten samples beyond it.  It is printed, not
    # listed in BENCHMARK.json, whose metrics must exist on every workload:
    # a sweeps run completes too few ops.
    if done >= P90_MIN_OPS:
        lines.append(f"  op_p90_ms = {latency_ms(loop.latencies, 90):.6g} ms  ({done} samples)")
    else:
        lines.append(f"  op_p90_ms not reported: {done} ops, fewer than {P90_MIN_OPS}")
    return (loop,), metrics, lines


def measure_traced(args, workload, stream, workdir):
    """Each round untraced and traced, for `--seconds`: returns (loops, metrics, report lines).

    The two passes over a round run back to back, in alternating order, so
    a drift of the machine's speed during the run cancels out of
    `trace.overhead_ratio`.
    """
    run_ops(workload, stream, workdir)
    plain, traced, tracer = Loop(), Loop(), spans.Tracer()
    size = stream.round_size
    done = 0
    while not done or sum(plain.latencies) < args.seconds / 2.0:
        for traced_pass in (False, True) if (done // size) % 2 == 0 else (True, False):
            active = tracer if traced_pass else None
            with spans.tracing(active):
                part = run_ops(workload, stream, workdir, count=size, tracer=active, start=done)
            (traced if traced_pass else plain).extend(part)
        done += size
    metrics = per_layer_metrics(
        tracer,
        sum(traced.latencies),
        sum(plain.latencies),
        sum(workload.points(op) for op in oplists.ops(args.workload, args.seed, done)),
        workloads.permanent_timings(args.seed),
    )
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(str(trace_path))
    lines = _report(metrics, {"trace.spans": f"written to {trace_path.relative_to(ROOT)}"})
    return (plain, traced), metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(oplists.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    stream = oplists.OpStream(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        loops, metrics, lines = (measure_traced if args.trace else measure)(
            args, workload, stream, workdir
        )

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(len(loop.failed) for loop in loops)
    # regenerated from the seed after peak_rss_mb has been read
    done_ops = list(oplists.ops(args.workload, args.seed, len(loops[0].latencies)))
    kinds = Counter(workload.kind(op) for op in done_ops)
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"ops={json.dumps(dict(sorted(kinds.items())))} op_list_sha256={oplists.digest(done_ops)}"
    )
    print("\n".join(lines))
    print(f"  fail_ratio = {failed / attempted:.6g}  ({failed} failed / {attempted} attempted)")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
