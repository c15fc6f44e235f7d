"""Self-tests of the benchmark (not of the program).

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs at a tiny scale, so the suite takes well under a
minute (``adafl_tcp`` spawns its two worker processes).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.presets import FAST  # noqa: E402

# Two warm-up rounds (all clients) then two probed, selective rounds.
TINY = dataclasses.replace(FAST, num_rounds=4, eval_every=2)
SEED = 3
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str) -> tuple[workloads.Workload, object]:
    workload = workloads.WORKLOADS[name]
    return workload, workloads.spec_for(workload, SEED, TINY)


def _traced(name: str):
    workload, spec = _tiny(name)
    untraced = workloads.run_op(workload, spec)
    traced, tracer = workloads.run_traced_op(workload, spec, untraced.loop_s)
    return untraced, traced, tracer


def test_benchmark_json_names_every_metric_with_unit_and_direction():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m for m in BENCH["per_layer"]}
    assert {k: m["unit"] for k, m in end_to_end.items()} == run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in per_layer.items()} == layers.PER_LAYER_UNITS
    for metric in [*end_to_end.values(), *per_layer.values()]:
        assert metric["better"] in ("higher", "lower")
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in end_to_end.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_emits_every_metric(name):
    untraced, traced, _ = _traced(name)
    assert untraced.signature == traced.signature
    assert untraced.updates > 0 and len(untraced.round_s) > 0
    values, _ = run.end_to_end([untraced], [untraced.setup_s], run.peak_rss_mb())
    assert set(values) == set(run.END_TO_END_UNITS)
    assert set(traced.layer) == set(layers.PER_LAYER_UNITS)
    assert all(v > 0 for v in values.values())


def test_tcp_matches_its_in_memory_reference():
    workload, spec = _tiny("adafl_tcp")
    assert workloads.run_op(workload, spec).signature == workloads.reference_signature(
        workload, spec
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_nest_inside_their_parents(name):
    _, _, tracer = _traced(name)
    spans = tracer.spans
    assert spans and not tracer.recording()
    for index, s in enumerate(spans):
        assert s.start <= s.end
        if s.parent >= 0:
            parent = spans[s.parent]
            assert s.parent < index
            assert parent.start <= s.start and s.end <= parent.end
        else:
            assert s.name in (layers.ROOT, "fl.engine.run")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_counts_repeat_for_one_seed(name):
    _, first, _ = _traced(name)
    _, second, _ = _traced(name)
    assert layers.counts(first.layer) == layers.counts(second.layer)


def test_layers_show_where_the_table_predicts():
    _, constrained, _ = _traced("adafl_constrained")
    _, fedbuff, _ = _traced("fedbuff_async")
    assert constrained.layer["fl.client.probe_calls"] > 0
    assert constrained.layer["nn.batched.run_ms"] == 0
    assert constrained.layer["sim.dropped"] >= 0
    assert fedbuff.layer["fl.batched.train_ms"] > 0
    assert fedbuff.layer["fl.client.probe_calls"] == 0
    assert fedbuff.layer["compression.compress_ms"] == 0
    for layer in (constrained.layer, fedbuff.layer):
        assert layer["transport.rpc_calls"] == 0
        assert layer["wire.uplink_frame_bytes"] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        layers.Span("root", 0.0, 10.0),
        layers.Span("a", 1.0, 5.0, parent=0),
        layers.Span("b", 2.0, 3.0, parent=1),
    ]
    assert layers.self_times(spans) == [6.0, 3.0, 1.0]


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (1.0, 50.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "fedbuff_async", "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
