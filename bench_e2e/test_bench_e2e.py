"""Tests of the end-to-end benchmark's own helpers and of a smoke run.

Run with ``python -m pytest bench_e2e/test_bench_e2e.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from common import (  # noqa: E402
    Reference,
    UnsupportedPercentile,
    load_declarations,
    min_samples,
    percentile,
    self_times,
    spread,
    unattributed,
)
from compare import classify  # noqa: E402
from compare import main as compare_main  # noqa: E402


class TestPercentile:
    def test_median_is_the_plain_median(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5

    def test_ten_samples_beyond_rule(self):
        assert min_samples(0.9) == 100
        assert min_samples(0.95) == 200
        assert min_samples(0.99) == 1000

    def test_refuses_a_thin_tail(self):
        with pytest.raises(UnsupportedPercentile):
            percentile([float(i) for i in range(199)], 0.95)

    def test_nearest_rank_once_supported(self):
        samples = [float(i) for i in range(1, 201)]
        assert percentile(samples, 0.95) == 190.0
        assert sum(1 for s in samples if s > 190.0) == 10

    def test_empty_is_refused(self):
        with pytest.raises(UnsupportedPercentile):
            percentile([], 0.5)

    def test_spread_is_the_quartile_distance_over_the_median(self):
        assert spread([10.0] * 5) == 0.0
        # statistics.quantiles' default (exclusive) method: q1 9.25, q3 10.75
        assert spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


def test_reference_scale_is_the_mean_of_the_bracketing_readings():
    reference = Reference()
    first = reference.scale()
    second = reference.scale()
    readings = reference.seconds
    assert len(readings) == 3 and all(seconds > 0 for seconds in readings)
    assert first == (readings[0] + readings[1]) / 2
    assert second == (readings[1] + readings[2]) / 2


def span(name, seconds, span_id, parent=None, **tags):
    return {"type": "span", "name": name, "seconds": seconds, "span_id": span_id,
            "parent_id": parent, "tags": tags}


class TestSelfTime:
    def test_children_are_subtracted_and_roots_are_unattributed(self):
        spans = [
            span("bench.workflow", 10.0, "r"),
            span("serve.optimize", 6.0, "a", "r"),
            span("io.decode", 1.0, "b", "r"),
            span("search.phase", 4.0, "c", "a", phase="IV"),
        ]
        table = self_times(spans)
        assert table == {
            "unattributed[bench.workflow]": 3.0,
            "serve.optimize": 2.0,
            "io.decode": 1.0,
            "search.phase[IV]": 4.0,
        }
        assert unattributed(table) == 3.0
        assert sum(table.values()) == 10.0

    def test_self_time_never_goes_negative(self):
        table = self_times([span("root", 1.0, "r"), span("child", 1.5, "c", "r")])
        assert table["unattributed[root]"] == 0.0

    def test_a_root_without_children_is_attributed_to_itself(self):
        table = self_times([span("bench.reference", 0.02, "r")])
        assert table == {"bench.reference": 0.02}
        assert unattributed(table) == 0.0

    def test_reads_the_events_of_a_program_recorder(self):
        from repro.obs import Recorder

        recorder = Recorder()
        with recorder.trace("t1"), recorder.span("bench.workflow"):
            with recorder.span("io.encode"):
                pass
            recorder.record_span("serve.optimize", 2.0)
        recorder.counter("search.transitions", outcome="applied").add(3)
        events = recorder.events()
        table = self_times(events)
        assert set(table) == {"unattributed[bench.workflow]", "io.encode", "serve.optimize"}
        assert table["serve.optimize"] == 2.0
        # The root closed long before 2 s passed: its remainder clamps to 0.
        assert table["unattributed[bench.workflow]"] == 0.0
        assert all(e["tags"]["trace"] == "t1" for e in events if e["type"] == "span")


class TestClassify:
    def test_same_numbers_are_unchanged(self):
        runs = [1.00, 1.01, 0.99, 1.00, 1.02]
        assert classify(runs, list(runs), 0.1, "lower") == "unchanged"

    def test_worse_beyond_the_bound_regresses(self):
        base = [1.00, 1.01, 0.99, 1.00]
        assert classify(base, [1.20, 1.21, 1.19, 1.20], 0.1, "lower") == "regressed"
        assert classify(base, [0.80, 0.81, 0.79, 0.80], 0.1, "higher") == "regressed"

    def test_consistent_gain_beyond_the_base_spread_improves(self):
        base = [1.00, 1.01, 0.99, 1.00]
        assert classify(base, [0.95, 0.96, 0.94, 0.95], 0.1, "lower") == "improved"
        assert classify(base, [1.05, 1.06, 1.04, 1.05], 0.1, "higher") == "improved"

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        base = [1.0, 1.5, 0.7, 1.2]
        assert classify(base, [1.0, 1.4, 0.8, 1.1], 0.1, "lower") == "unresolved"

    def test_a_wide_spread_still_improves_when_every_run_wins(self):
        base = [2.0, 3.0, 2.5, 2.2]
        assert classify(base, [1.0, 1.5, 1.2, 1.1], 0.1, "lower") == "improved"


def record(workload: str, seed: int, **metrics: float) -> dict:
    return {"workload": workload, "seed": seed, "trace": 0, "metrics": metrics}


def test_compare_reads_run_files_and_flags_a_regression(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for seed in range(5):
        jitter = 1.0 + 0.001 * seed
        (base / f"{seed}.json").write_text(json.dumps(
            [record("plan-cold", seed, plan_ref=100.0 * jitter, daemon_rss_mb=160.0)]
        ))
        (new / f"{seed}.json").write_text(json.dumps(
            [record("plan-cold", seed, plan_ref=150.0 * jitter, daemon_rss_mb=160.0)]
        ))
    assert compare_main([str(base), str(new)]) == 1
    table = capsys.readouterr().out
    assert "plan_ref" in table and "regressed" in table
    assert compare_main([str(base), str(base)]) == 0


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench_e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_prints_every_declared_metric_with_its_unit(tmp_path):
    runs = tmp_path / "runs.json"
    done = run_bench("--smoke", "--seconds", "2", "--trace", "1", "--json", str(runs))
    assert done.returncode == 0, done.stderr
    records = json.loads(runs.read_text())
    assert len(records) == len(load_declarations()["workloads"])
    assert all(r["correct"] and r["cpu_count"] and r["python"] for r in records)
    assert all(r["measured_cpus"] == 1 for r in records)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declarations = load_declarations()
    text = "\n".join(lines[:-1])
    for workload in declarations["workloads"]:
        assert f"== {workload['name']} " in text
    for metric in declarations["end_to_end"] + declarations["per_layer"]:
        printed = [line for line in lines if line.split()[:1] == [metric["name"]]]
        assert len(printed) == len(declarations["workloads"]), metric["name"]
        assert all(line.split()[2] == metric["unit"] for line in printed)
        for workload in declarations["workloads"]:
            if metric in declarations["per_layer"]:
                key = f"{workload['name']}/{metric['name']}"
                assert result["metrics"][key]["unit"] == metric["unit"]


def test_inputs_that_differ_from_their_pins_are_drift(tmp_path, monkeypatch):
    import pipeline

    pool = pipeline.select_pool("tiny", None, 200, 2)
    assert len(pipeline.check_pins(pool, 200)) == 2
    pins = json.loads(pipeline.PINS_FILE.read_text())
    for key, tampered in (("fingerprints", "tiny:1:200"), ("rows_sha256", "tiny")):
        changed = json.loads(json.dumps(pins))
        changed[key][tampered] = "0" * 24
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(changed))
        monkeypatch.setattr(pipeline, "PINS_FILE", path)
        with pytest.raises(pipeline.DriftError, match="tiny:1:200|tiny:0:200"):
            pipeline.check_pins(pool, 200)


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = run_bench("--workload", "load-rowwise", "--seconds", "1", cwd=tmp_path)
    assert done.returncode not in (0, None)
    assert "correct" not in done.stdout
