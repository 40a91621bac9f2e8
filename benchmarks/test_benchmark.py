"""Checks of the benchmark itself, on reduced input sizes.

    python3 -m pytest benchmarks
"""

import json
from dataclasses import replace

import pytest

import run
from spans import self_times
from workloads import WORKLOADS

SMALL = {"rowsum-col256-tune": 24, "matmul32-reg": 8, "prefixscan-col192": 16}


def small_bench(name, seed=1, trace=True):
    bench = run.Bench(replace(WORKLOADS[name], n=SMALL[name]), seed, trace=trace)
    bench.setup()
    bench.measure(0)  # the minimum number of rounds
    return bench


@pytest.mark.parametrize("name", sorted(SMALL))
def test_outputs_match_references_and_counts_repeat(name):
    first = small_bench(name)
    assert first.failed == 0, first.errors
    assert first.counts["misses_tiled"] > 0
    assert first.counts["trace_events"] == first.counts["accesses"]
    again = small_bench(name)
    assert again.failed == 0, again.errors
    assert again.counts == first.counts


def test_tuner_counts_are_reported():
    bench = small_bench("rowsum-col256-tune")
    layer = bench.per_layer()
    assert layer["autotuner.probes"] == bench.counts["probes"] > 0
    assert 0 < layer["autotuner.distinct_probes"] <= layer["autotuner.probes"]
    assert layer["autotuner.tuned_misses"] > 0


def test_spans_nest_probes_under_autotune_and_fit_the_wall():
    bench = small_bench("rowsum-col256-tune")
    spans = bench.tracer.spans
    by_id = {s.id: s for s in spans}
    probes = [s for s in spans if s.name == "bench.probe"]
    assert probes
    assert all(by_id[s.parent].name == "autotuner.autotune" for s in probes)
    own = self_times(spans)
    assert min(own.values()) >= 0
    assert sum(own.values()) <= bench.wall_s
    assert set(run.PER_LAYER) == set(bench.per_layer())


def test_end_to_end_metrics_are_all_reported():
    bench = small_bench("prefixscan-col192", trace=False)
    metrics = bench.end_to_end()
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert not bench.tracer.spans


def test_a_wrong_output_is_counted_not_raised():
    bench = run.Bench(replace(WORKLOADS["prefixscan-col192"], n=8), 0)
    bench.setup()
    bench.expected[3] += 1
    bench.measure(0)
    assert not bench.correct
    # every eval and traced run of both rounds disagrees with the reference
    assert bench.failed == 2 * 4


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
