"""The tracer wraps every entry point and puts the originals back."""

import json
from pathlib import Path

import repro.parallel.seeding as seeding
import repro.service.jobspec as jobspec
from repro.osl.pages import PageTable

from perfbench.tracer import LayerTracer, layer_metrics
from perfbench.workload import EXTRA_LAYER_METRICS


def test_install_counts_calls_and_uninstall_restores():
    original_encode = seeding.canonical_json
    original_lookup = PageTable.__dict__["node_fractions"]
    tracer = LayerTracer()
    tracer.install()
    try:
        assert seeding.canonical_json is not original_encode
        # A module that imported the function by name is patched too.
        assert jobspec.canonical_json is seeding.canonical_json
        seeding.canonical_json({"b": 1, "a": [2]})
        jobspec.canonical_json({})
    finally:
        tracer.uninstall()
    assert seeding.canonical_json is original_encode
    assert jobspec.canonical_json is original_encode
    assert PageTable.__dict__["node_fractions"] is original_lookup
    calls, seconds, _ = tracer.snapshot()["codec.encode"]
    assert calls == 2 and seconds > 0


def test_layer_metrics_match_the_benchmark_file():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    names = set(layer_metrics({}, ops=1)) | set(EXTRA_LAYER_METRICS) | {"trace.overhead_pct"}
    assert names == {m["name"] for m in bench["per_layer"]}
