"""Tests of the benchmark itself: answers, variants, tracer and contract.

Run from the root of a checkout:  python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from expected import EXPECTED, Expected, mismatches
from mixes import FIXTURE_MIX, WORKLOADS, Mix, Request, fresh_variant
from tracer import PER_LAYER, Tracer

sys.path.insert(0, str(run.SRC))

from engelcalc import charts, expr  # noqa: E402
from engelcalc.manifest import parse_manifest  # noqa: E402

COMMAND_KINDS = {"verify": ("verify", "identities"), "invariant": ("invariant",),
                 "construct": ("construct",)}


def _tasks(text: str) -> dict[str, str]:
    """task id -> kind, read from the manifest text alone."""
    return dict(re.findall(r"^\[task (\S+)\]\s*\nkind = (\S+)", text, flags=re.M))


def test_table_covers_every_fixture_and_command_with_tasks():
    fixtures = sorted(p.stem for p in run.MANIFESTS.glob("*.manifest"))
    assert len(fixtures) == 15 and len(FIXTURE_MIX) == 33
    for name in fixtures:
        tasks = _tasks((run.MANIFESTS / f"{name}.manifest").read_text())
        for command, kinds in COMMAND_KINDS.items():
            ids = {tid for tid, kind in tasks.items() if kind in kinds}
            if ids:
                assert set(EXPECTED[(name, command)].statuses) == ids
            else:
                assert (name, command) not in EXPECTED


def test_mismatches_reports_each_kind_of_difference(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"exit_code": 0, "tasks": [
        {"id": "tw", "status": "match", "witnesses": {"value": 3}}]}))
    assert mismatches(Expected(0, {"tw": "match"}, {"tw": 3}), 0, report, None) == []
    assert len(mismatches(Expected(0, {"tw": "match"}, {"tw": 2}), 0, report, None)) == 1
    assert len(mismatches(Expected(0, {"tw": "mismatch"}), 0, report, None)) == 1
    assert len(mismatches(Expected(1, {"tw": "match"}), 0, report, None)) == 1
    assert len(mismatches(Expected(0, {"tw": "match"}), 1, report, None)) == 2
    assert mismatches(Expected(0, {}), 0, tmp_path / "missing.json", None)


def test_latencies_take_percentiles_over_each_types_median():
    latencies = run.Latencies()
    for i in range(12):
        # every type's median is (i + 1) ms; one slow spell hits each type once
        for seconds in (0.001 * (i + 1), 0.001 * (i + 1), 0.5):
            latencies.add(Request(f"m{i}", "verify"), seconds)
    assert latencies.count == 36
    assert latencies.ms(50) == pytest.approx(6.5)
    assert latencies.ms(75) == pytest.approx(9.25)
    # throughput counts every sample, the slow spells too
    assert latencies.per_second() == pytest.approx(36 / (2 * 0.078 + 12 * 0.5))
    assert latencies.beyond(75) == 9  # three types, three samples each


def _variants(seed: int, passes: int) -> list[Request]:
    mix = Mix("fixtures-fresh", seed, run.fixture_text)
    return [r for _ in range(passes) for r in mix.next_pass()]


def _definition_texts(manifest) -> set[str]:
    texts = set()
    for name, obj in manifest.definitions.items():
        if isinstance(obj, charts.VectorField):
            texts.add("; ".join(expr.to_text(c) for c in obj.components))
        elif isinstance(obj, charts.KForm):
            texts.add(" + ".join(f"{expr.to_text(c)}*d{k}" for k, c in obj.terms))
        else:
            texts.add(expr.to_text(obj))
    return texts


@pytest.mark.parametrize("seed", [0, 7])
def test_fresh_variants_parse_and_share_no_definition(seed):
    seen: set[str] = set()
    for request in _variants(seed, passes=3):
        texts = _definition_texts(parse_manifest(request.text))
        assert not texts & seen, request.manifest
        seen |= texts


def test_fresh_variants_depend_only_on_the_seed():
    assert [r.text for r in _variants(3, 1)] == [r.text for r in _variants(3, 1)]
    assert [r.text for r in _variants(3, 1)] != [r.text for r in _variants(4, 1)]


def test_fresh_variant_renames_coordinates_and_differentials():
    text = (run.MANIFESTS / "standard-engel-r4.manifest").read_text()
    variant = fresh_variant(text, random.Random(0), "q1")
    assert "coords = x_q1 y_q1 z_q1 w_q1" in variant
    assert "dz_q1 - w_q1*dx_q1" in variant
    assert re.search(r"\b[xyzw]\b", variant.split("[structure")[0].split("[define]")[1]) is None


@pytest.mark.parametrize("workload,seed", [("fixtures-replay", 0), ("fixtures-fresh", 0),
                                           ("fixtures-fresh", 7)])
def test_every_request_matches_the_table(tmp_path, workload, seed):
    runner = run.Runner(tmp_path)
    for request in Mix(workload, seed, run.fixture_text).next_pass():
        runner.execute(request)
    assert runner.attempted == 33
    assert runner.problems == []


def test_tracer_accounts_for_request_time_and_restores(tmp_path):
    originals = (expr.simplify, charts.simplify, charts.lie_bracket, charts.VectorField.evaluate_at)
    runner = run.Runner(tmp_path, tracer=Tracer())
    mix = Mix("fixtures-replay", 0, run.fixture_text)
    with runner.tracer:
        assert charts.simplify is not originals[1]
        for request in mix.next_pass()[:8]:
            runner.execute(request)
    assert (expr.simplify, charts.simplify, charts.lie_bracket,
            charts.VectorField.evaluate_at) == originals
    assert runner.problems == []
    metrics = runner.tracer.metrics()
    assert set(metrics) == {name for name, _, _ in PER_LAYER} - {"trace.overhead.ms"}
    assert metrics["unattributed.ms"] >= 0.0
    assert metrics["cli.main.ms"] > 0.0 and metrics["expr.simplify.calls"] > 0
    assert 0.0 <= metrics["expr.simplify.cross_request_repeat_ratio"] <= 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "fixtures-replay", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace,names", [
    ("0", [name for name, *_ in run.END_TO_END]),
    ("1", [name for name, *_ in PER_LAYER]),
])
def test_last_line_is_the_result(trace, names):
    done = _bench(run.ROOT, "--workload", "fixtures-replay", "--seed", "1",
                  "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 33
    assert list(result["metrics"]) == names
