"""Tests of the benchmark's own code: op generation, checks, span arithmetic.

Run with `python -m pytest bench` from the root of the repository.
"""

import json
from pathlib import Path

import pytest

import oplists
import run
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("workload", sorted(oplists.GENERATORS))
def test_one_seed_gives_one_op_list(workload):
    first, second = oplists.OpStream(workload, 11), oplists.OpStream(workload, 11)
    assert [first[i] for i in range(40)] == [second[i] for i in range(40)]
    regenerated = list(oplists.ops(workload, 11, 40))
    assert regenerated == [oplists.OpStream(workload, 11)[i] for i in range(40)]
    assert oplists.digest(regenerated) == oplists.digest(oplists.ops(workload, 11, 40))
    assert oplists.digest(oplists.ops(workload, 12, 40)) != oplists.digest(regenerated)


@pytest.mark.parametrize("workload", sorted(oplists.GENERATORS))
def test_stream_keeps_only_the_first_ops_and_the_latest_round(workload):
    stream = oplists.OpStream(workload, 11)
    expected = list(oplists.ops(workload, 11, 100))
    assert stream[99] == expected[99]
    assert [stream[i] for i in range(oplists.KEPT_OPS)] == expected[: oplists.KEPT_OPS]
    latest = range(100 - stream.round_size, 100)
    assert [stream[i] for i in latest] == expected[latest.start :]
    with pytest.raises(IndexError):
        stream[latest.start - 1]


def test_ns_gate_always_runs_the_gate_pair_and_every_photon_number():
    for seed in (1, 2, 3):
        stream = oplists.OpStream("ns_gate", seed)
        assert stream[0] == {"m": 0, "n": 2, "r_v": oplists.KLM_R_V, "r_h": oplists.KLM_R_H}
        totals = [stream[i]["m"] + stream[i]["n"] + 1 for i in range(7)]
        assert sorted(totals) == list(range(2, oplists.NS_GATE_MAX_PHOTONS + 1))


def _corrupt_sweep(payload: bytes) -> bytes:
    lines = payload.decode("utf-8").split("\n")
    cells = lines[5].split(",")
    cells[-1] = format(2.0 * float(cells[-1]), "#.9g")
    lines[5] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


def _corrupt_ns_gate(result):
    return result._replace(amplitude=result.amplitude + 1e-9)


def _corrupt_dense(output):
    unitary, state, result = output
    amplitudes = dict(result.items())
    occ = next(iter(amplitudes))
    amplitudes[occ] += 1e-8
    return unitary, state, workloads.PureState(result.registry, amplitudes)


CORRUPTIONS = {
    "sweeps": _corrupt_sweep,
    "ns_gate": _corrupt_ns_gate,
    "dense_circuits": _corrupt_dense,
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_check_passes_clean_output_and_counts_a_corrupted_one(workload, tmp_path, monkeypatch):
    runner = workloads.WORKLOADS[workload]
    stream = oplists.OpStream(workload, 5)
    clean = run.run_ops(runner, stream, str(tmp_path), count=1)
    assert clean.failed == set()

    collect = runner.collect
    monkeypatch.setattr(runner, "collect", lambda output: CORRUPTIONS[workload](collect(output)))
    corrupted = run.run_ops(runner, stream, str(tmp_path), count=1)
    assert corrupted.failed == {0}
    assert len(corrupted.latencies) == 1


def test_an_op_that_raises_is_counted(tmp_path, monkeypatch):
    runner = workloads.WORKLOADS["ns_gate"]

    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr(runner, "run", broken)
    loop = run.run_ops(runner, oplists.OpStream("ns_gate", 5), str(tmp_path), count=3)
    assert loop.failed == {0, 1, 2}


def test_nine_digit_comparison():
    assert workloads.agrees_at_nine_digits("1.25000000e-05", 1.25e-05)
    assert workloads.agrees_at_nine_digits("0.125000001", 0.125)  # one unit in the ninth digit
    assert not workloads.agrees_at_nine_digits("0.125000002", 0.125)
    assert workloads.agrees_at_nine_digits("0.00000000", 3e-18)
    assert not workloads.agrees_at_nine_digits("0.00000000", 1e-12)


def test_self_time_on_a_hand_built_span_tree():
    check = spans.CHECK
    tree = [
        ["root", 0.0, 10.0, -1, 0],  # 0
        ["left", 1.0, 4.0, 0, 0],  # 1
        ["leaf", 2.0, 3.0, 1, 0],  # 2: child of "left"
        ["leaf", 3.5, 3.75, 1, 0],  # 3: second child of "left"
        ["right", 5.0, 8.0, 0, 0],  # 4
        ["root", 20.0, 21.0, -1, 1],  # 5: a second op
        ["oracle", 30.0, 32.0, -1, check],  # 6: outside any op
    ]
    seconds, calls = spans.self_times(tree, lambda op: op != check)
    # the first root's children take 3 s and 3 s; the second root has none
    assert seconds["root"] == pytest.approx((10.0 - 6.0) + 1.0)
    assert seconds["left"] == pytest.approx(3.0 - 1.25)
    assert seconds["leaf"] == pytest.approx(1.25)
    assert seconds["right"] == pytest.approx(3.0)
    assert "oracle" not in seconds
    assert calls == {"root": 2, "left": 1, "leaf": 2, "right": 1}
    outside, _ = spans.self_times(tree, lambda op: op == check)
    assert outside == {"oracle": pytest.approx(2.0)}


def test_tracing_sees_every_binding_and_restores_it():
    import focksim.evolve
    import focksim.experiments

    original = focksim.evolve.transform
    tracer = spans.Tracer()
    tracer.op = 0
    with spans.tracing(tracer):
        assert focksim.experiments.transform is focksim.evolve.transform is focksim.transform
        focksim.experiments.fourfold_probability(0.3, 0.9, focksim.ExperimentConfig())
        focksim.ns_pipeline(0, 2, 0.5, 0.5)
    assert focksim.evolve.transform is original
    assert focksim.experiments.transform is original
    assert focksim.core.PureState.__init__.__name__ == "__init__"
    _, calls = spans.self_times(tracer.spans, lambda op: True)
    assert calls["evolve.transform"] == 3  # apply_bs1, analysis circuit, ns_pipeline
    assert calls["experiments.fourfold_from_mode3"] == 1
    assert calls["core.PureState"] > 0 and calls["elements.ModeUnitary"] > 0
    # components: the pair, the pair times two ancilla bins, the gate input
    assert tracer.counts["evolve.transform.in_components"] == 2 + 4 + 1


def test_printed_metrics_match_benchmark_json():
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    end_to_end = run.end_to_end_metrics([1.0], [0.5, 0.25])
    per_layer = run.per_layer_metrics(spans.Tracer(), 1.0, 1.0, 0, {n: 1.0 for n in range(3, 13)})
    for printed, section in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        assert {name: unit for name, (_, unit) in printed.items()} == {
            metric["name"]: metric["unit"] for metric in declared[section]
        }
