"""Self-tests of the benchmark harness (``pytest benchmarks/perf -q``;
not part of tier-1)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from perfharness import spec as specs  # noqa: E402
from perfharness.spans import SpanRecorder, check_tree, self_time_by_name, self_times  # noqa: E402
from perfharness.stats import (  # noqa: E402
    GUARD_RATIO,
    MAX_EXTRA_ROUNDS,
    MIN_KEPT_ROUNDS,
    PROBE_REFERENCE_S,
    RoundSample,
    calibration_probe,
    guard_keep,
    measure_rounds,
    percentile,
    quartiles,
    reduce_rounds,
    verdict,
)

specs.require_program()

from perfharness.inputs import (  # noqa: E402
    engine_workbench_config,
    poisson_schedule,
    query_index_stream,
    query_stream,
)
from repro.workloads.workbench import build_workbench  # noqa: E402


# --------------------------------------------------------------------
# Order statistics and the median-of-rounds reduction
# --------------------------------------------------------------------


@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy(q):
    values = [5.0, 1.0, 9.0, 3.0, 3.0, 7.5, 2.25, 8.0, 0.5, 6.0, 4.0]
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_edges():
    assert percentile([4.0], 99) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_are_the_drivers():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    q1, median, q3 = quartiles(values)
    assert [q1, q3] == statistics.quantiles(values, n=4)[::2]
    assert median == statistics.median(values)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def _round(wall_s, probe_s=PROBE_REFERENCE_S, ops=100, failed=0, valid=True,
           **flags):
    return RoundSample(
        ops=ops, failed=failed, wall_s=wall_s, cpu_s=wall_s / 2,
        latencies_ms=[wall_s * 1e3 / ops] * ops, probe_s=probe_s, valid=valid,
        **flags,
    )


def test_round_metrics_are_calibrated():
    quiet = _round(1.0).metrics()
    # Same work on a box running twice as slow: every time doubles,
    # the probe doubles, the calibrated values do not move.
    slow = _round(2.0, probe_s=2 * PROBE_REFERENCE_S).metrics()
    assert slow == pytest.approx(quiet)
    assert quiet["throughput_qps"] == pytest.approx(100.0)
    assert _round(2.0, probe_s=2 * PROBE_REFERENCE_S).metrics(calibrated=False)[
        "throughput_qps"
    ] == pytest.approx(50.0)


def test_paced_rounds_keep_wall_times_as_timed():
    # serve-paced: the schedule and timers set throughput and latency,
    # so the probe divides the round's CPU only.
    slow = _round(2.0, probe_s=2 * PROBE_REFERENCE_S, paced=True)
    timed = slow.metrics(calibrated=False)
    assert slow.metrics()["throughput_qps"] == pytest.approx(50.0)
    assert slow.metrics()["latency_p99_ms"] == timed["latency_p99_ms"]
    assert slow.metrics()["cpu_ms_per_op"] == pytest.approx(timed["cpu_ms_per_op"] / 2)


def test_unguarded_rounds_are_all_kept():
    # serve-*: a slow probe discards no round (it may still calibrate).
    clock = _FakeClock()
    probes = iter([1.0, 3.0, 1.0, 5.0])

    def run_round():
        clock.now += 1.0
        return _round(1.0, probe_s=next(probes), guarded=False)

    rounds, keep = measure_rounds(run_round, seconds=4.0, clock=clock)
    assert len(rounds) == 4 and all(keep)
    assert rounds[1].factor == pytest.approx(3.0 / PROBE_REFERENCE_S)


def test_probe_allocates_nothing_large():
    import tracemalloc

    calibration_probe()
    tracemalloc.start()
    calibration_probe()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 64 * 1024  # no 800 kB numpy temporary


def test_failed_operations_do_not_count_as_throughput():
    assert _round(1.0, failed=25).metrics()["throughput_qps"] == pytest.approx(75.0)


def test_reduce_rounds_is_median_over_kept_rounds():
    rounds = [_round(w) for w in (1.0, 2.0, 4.0, 100.0)]
    reduced = reduce_rounds(rounds, [True, True, True, False])
    assert reduced["throughput_qps"]["value"] == pytest.approx(50.0)
    assert reduced["throughput_qps"]["n"] == 3
    assert reduced["latency_p50_ms"]["q1"] <= reduced["latency_p50_ms"]["value"]
    # The tail takes the best kept round, not the median one.
    assert reduced["latency_p99_ms"]["value"] == pytest.approx(10.0)
    assert reduced["latency_p50_ms"]["value"] == pytest.approx(20.0)
    with pytest.raises(ValueError):
        reduce_rounds(rounds, [False] * 4)


# --------------------------------------------------------------------
# Noise guard
# --------------------------------------------------------------------


def test_guard_discards_rounds_slower_than_the_best_probe():
    probes = [1.00, 1.05, 1.20, 1.09, 1.50, GUARD_RATIO]
    assert guard_keep(probes) == [True, True, False, True, False, True]


def test_guard_keeps_the_quietest_when_too_few_pass():
    probes = [1.0, 1.5, 1.3, 1.4, 2.0]
    keep = guard_keep(probes)
    assert sum(keep) == MIN_KEPT_ROUNDS
    assert keep == [True, False, True, True, False]
    assert guard_keep([]) == []
    assert guard_keep([3.0]) == [True]


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_measure_rounds_fills_the_budget_then_guards():
    clock = _FakeClock()
    probes = iter([1.0, 1.0, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0])

    def run_round():
        clock.now += 1.0
        return _round(1.0, probe_s=next(probes))

    rounds, keep = measure_rounds(run_round, seconds=5.0, clock=clock)
    assert len(rounds) == 5  # budget spent, enough rounds kept: no extras
    assert keep == [True, True, False, True, True]


def test_measure_rounds_replaces_discarded_and_invalid_rounds_within_limits():
    clock = _FakeClock()
    calls = []

    def run_round():
        clock.now += 1.0
        calls.append(clock.now)
        # Every round is noisier than the first; the second is invalid.
        return _round(1.0, probe_s=1.0 if len(calls) == 1 else 2.0 + len(calls),
                      valid=len(calls) != 2)

    rounds, keep = measure_rounds(run_round, seconds=3.0, clock=clock)
    # 3 in budget (one invalid), then extras until half the budget
    # again is gone: too few kept, so the quietest three stand.
    assert len(rounds) == 5
    assert keep[1] is False and sum(keep) == MIN_KEPT_ROUNDS

    def instant_invalid_round():
        clock.now += 0.001
        return _round(1.0, valid=False)

    clock.now = 0.0
    rounds, keep = measure_rounds(instant_invalid_round, seconds=0.002, clock=clock)
    assert len(rounds) == 2 + 1 and not any(keep)  # time limit on extras
    clock.now = 0.0
    rounds, keep = measure_rounds(instant_invalid_round, seconds=0.1, clock=clock)
    assert len(rounds) == 100 + MAX_EXTRA_ROUNDS  # count limit on extras


# --------------------------------------------------------------------
# Seeded inputs
# --------------------------------------------------------------------


def test_schedule_repeats_for_a_seed_and_differs_across_seeds():
    a = poisson_schedule(3, 400.0, 500)
    assert np.array_equal(a, poisson_schedule(3, 400.0, 500))
    assert not np.array_equal(a, poisson_schedule(4, 400.0, 500))
    assert np.all(np.diff(a) > 0)
    assert a[-1] == pytest.approx(500 / 400.0, rel=0.2)


def test_query_indices_repeat_for_a_seed_and_differ_across_seeds():
    a = query_index_stream(3, 900, 300)
    assert a == query_index_stream(3, 900, 300)
    assert a != query_index_stream(4, 900, 300)
    # Shuffled passes over the pool: every query exactly three times.
    assert sorted(a) == sorted(list(range(300)) * 3)
    assert sorted(query_index_stream(3, 400, 300)[:300]) == list(range(300))


def test_query_stream_repeats_for_a_seed_and_differs_across_seeds():
    workbench = build_workbench(engine_workbench_config(n_docs=400, vocab_size=800))

    def stream(seed):
        return [q.term_ids for q in query_stream(workbench, "perf", 50, seed)]

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)
    # Every seed holds the same queries, in another order.
    assert sorted(stream(1)) == sorted(stream(2))


# --------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------


def test_self_times_subtract_what_children_cover():
    recorder = SpanRecorder()
    root = recorder.add("op", 0.0, 10.0, None, 0)
    recorder.add("a", 1.0, 4.0, root, 0)
    recorder.add("b", 3.0, 6.0, root, 0)  # overlaps a: union is [1, 6]
    child = recorder.add("c", 7.0, 12.0, root, 0)  # clipped to [7, 10]
    recorder.add("d", 7.0, 8.0, child, 0)
    own = self_times(recorder.spans)
    assert own[root] == pytest.approx(10.0 - 5.0 - 3.0)
    assert own[child] == pytest.approx(5.0 - 1.0)
    assert self_time_by_name(recorder.spans)["a"] == pytest.approx(3.0)


def test_check_tree_accepts_nested_spans_and_names_violations():
    recorder = SpanRecorder()
    root = recorder.add("op", 0.0, 2.0, None, 0)
    recorder.add("plan", 0.0, 0.5, root, 0)
    recorder.add("execute", 0.5, 2.0, root, 0)
    assert check_tree(recorder.spans) == []
    recorder.add("orphan", 0.0, 1.0, 99, 1)
    recorder.add("backwards", 2.0, 1.0, None, 2)
    problems = check_tree(recorder.spans)
    assert any("unknown parent" in p for p in problems)
    assert any("backwards" in p for p in problems)


def test_spans_round_trip_as_json_lines(tmp_path):
    recorder = SpanRecorder()
    root = recorder.add("op", 0.0, 1.0, None, 7)
    recorder.add("plan", 0.0, 0.25, root, 7)
    path = tmp_path / "out" / "trace.jsonl"
    recorder.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[1] == {"id": 1, "name": "plan", "start_s": 0.0, "end_s": 0.25,
                       "parent": 0, "op": 7}


# --------------------------------------------------------------------
# --compare
# --------------------------------------------------------------------


def _row(value, q1=None, q3=None):
    return {"value": value, "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3}


def test_verdict_ok_worse_unresolved():
    assert verdict(_row(100), _row(105), "lower", 0.10) == (1.05, "ok")
    assert verdict(_row(100), _row(111), "lower", 0.10)[1] == "worse"
    assert verdict(_row(100), _row(89), "higher", 0.10)[1] == "worse"
    assert verdict(_row(100), _row(120), "higher", 0.10)[1] == "ok"
    # Not worse, but one side's quartiles are wider apart than the bound.
    assert verdict(_row(100), _row(101, 90, 112), "lower", 0.10)[1] == "unresolved"
    assert verdict(_row(0.0), _row(0.0005), "lower", 0.001, absolute=True)[1] == "ok"
    assert verdict(_row(0.0), _row(0.002), "lower", 0.001, absolute=True)[1] == "worse"


def _full_set(spec, scale=1.0, failed=0):
    metrics = {}
    for row in spec["end_to_end"]:
        value = 100.0 * (scale if row["better"] == "lower" else 1.0 / scale)
        metrics[row["name"]] = {"value": value, "q1": value, "q3": value, "n": 5}
    return {"workloads": {
        name: {"metrics": metrics, "attempted": 1000, "failed": failed}
        for name in specs.workload_names(spec)
    }}


def test_compare_exit_code(tmp_path, capsys):
    spec = specs.load_spec()
    base = tmp_path / "a.json"
    base.write_text(json.dumps(_full_set(spec)))
    same = tmp_path / "b.json"
    same.write_text(json.dumps({"sets": [_full_set(spec, 3.0), _full_set(spec, 1.01)]}))
    slower = tmp_path / "c.json"
    slower.write_text(json.dumps(_full_set(spec, 1.5)))
    wrong = tmp_path / "d.json"
    wrong.write_text(json.dumps(_full_set(spec, failed=5)))
    assert run.main(["--compare", str(base), str(same)]) == 0
    assert run.main(["--compare", str(base), str(slower)]) == 1
    assert run.main(["--compare", str(base), str(wrong)]) == 1
    out = capsys.readouterr().out
    assert "failed_share" in out and "worse" in out


# --------------------------------------------------------------------
# Emitted JSON against BENCHMARK.json
# --------------------------------------------------------------------


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_emits_exactly_the_end_to_end_names(capsys):
    spec = specs.load_spec()
    assert run.main(["--workload", "sim-sweep", "--seed", "5",
                     "--seconds", "0.1", "--trace", "0"]) == 0
    emitted = _last_json(capsys)
    assert set(emitted) == {"correct", "attempted", "failed", "metrics"}
    assert emitted["correct"] is True and emitted["failed"] == 0
    assert emitted["attempted"] >= 1
    assert set(emitted["metrics"]) == {row["name"] for row in spec["end_to_end"]}
    units = {row["name"]: row["unit"] for row in spec["end_to_end"]}
    for name, row in emitted["metrics"].items():
        assert set(row) == {"value", "unit"} and row["unit"] == units[name]
        assert row["value"] > 0


def test_traced_run_emits_exactly_the_per_layer_names(capsys, monkeypatch):
    from perfharness import runner

    spec = specs.load_spec()
    names = [row["name"] for row in spec["per_layer"]]

    def traced(name, seed, drop=()):
        return {
            "workload": name, "seed": seed, "trace": 1, "operation": "query",
            "attempted": 10, "failed": 0, "digests": {},
            "metrics": {n: {"value": 1.5, "q1": 1.5, "q3": 1.5, "n": 1}
                        for n in names if n not in drop},
        }

    monkeypatch.setattr(runner, "run_traced", traced)
    assert run.main(["--workload", "engine-single", "--trace", "1"]) == 0
    assert set(_last_json(capsys)["metrics"]) == set(names)
    # A ledger out of step with BENCHMARK.json is refused, not emitted.
    monkeypatch.setattr(runner, "run_traced",
                        lambda name, seed: traced(name, seed, drop=names[:1]))
    with pytest.raises(SystemExit):
        run.main(["--workload", "engine-single", "--trace", "1"])
