"""Checks on the benchmark itself: seeding, metric names, repeatable verdicts.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ladders  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(rung) -> bool:
    return len(rung.graph.edges) <= 150


@pytest.mark.parametrize("workload", ladders.WORKLOADS)
def test_same_seed_gives_identical_instances(workload):
    build = ladders.LADDERS[workload]
    first = ladders.instance_hash(build(7))
    assert ladders.instance_hash(build(7)) == first
    assert ladders.instance_hash(build(8)) != first


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(ladders.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
def test_metric_names_match_benchmark_json(tmp_path, trace, key):
    out = run.run_workload("nae-reductions", 1, 0, trace, tmp_path, keep=small)
    emitted = [(name, m["unit"]) for name, m in out["result"]["metrics"].items()]
    assert emitted == [(m["name"], m["unit"]) for m in SPEC[key]]
    assert out["result"]["correct"]


@pytest.mark.parametrize("workload", ladders.WORKLOADS)
def test_verdicts_identical_across_runs(tmp_path, workload):
    first = run.run_workload(workload, 3, 0, False, tmp_path / "a", keep=small)
    second = run.run_workload(workload, 3, 0, False, tmp_path / "b", keep=small)
    assert first["outcomes"] == second["outcomes"]
    assert len(first["outcomes"]) >= 10
    assert first["result"]["correct"] and second["result"]["correct"]


def test_traced_run_agrees_with_untraced(tmp_path):
    out = run.run_workload("poly-classes", 2, 0, True, tmp_path, keep=small)
    assert out["result"]["correct"]
    assert not any("changed between calls" in line for line in out["report"])
    metrics = {k: m["value"] for k, m in out["result"]["metrics"].items()}
    dispatched = sum(metrics[f"cli.dispatch.{m}"] for m in ("exact", "deg3", "girth4"))
    assert dispatched == metrics["cli.dispatch_calls"] > 0


def test_missing_program_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code == 2


@pytest.mark.parametrize("workload", ladders.WORKLOADS)
def test_ladder_gives_p90_ten_samples_above_it(workload):
    assert len(ladders.LADDERS[workload](1)) >= 100
