"""The benchmark's own tests: its gate must work in both directions.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  They use
the cheapest workload (``rewrite-batch``, about half a second per
operation) and a single evaluation of the small pincheck program.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import checks, harness

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _measure(tmp_path, trace=False, known=None, seed=0, min_ops=1):
    return harness.measure(
        "rewrite-batch", seed, seconds=0, trace=trace, known=known,
        probes=1, min_ops=min_ops, trace_out=tmp_path / "trace.json")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(
        harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(harness.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(harness.LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_seed_draws_the_inputs():
    first, again, other = (harness.draw_inputs(seed)
                           for seed in (5, 5, 6))
    assert first == again and first != other
    assert all(a != b for a, b in zip(first.pin, first.wrong_pin))
    assert harness.tampered(first.firmware) != first.firmware


def test_known_answer_passes_and_a_corrupted_one_fails(tmp_path):
    known = harness.load_known_answers()
    assert _measure(tmp_path, known=known)["failed"] == 0

    corrupted = json.loads(json.dumps(known))
    answer = corrupted[str(harness.DEFAULT_SEED)]["rewrite-batch"]
    answer["sizes"]["pincheck/detour"][1] += 1
    result = _measure(tmp_path, known=corrupted)
    assert result["failed"] == result["attempted"] == 1
    assert any("known answer" in p for p in result["problems"])


def test_an_operation_that_raises_counts_as_failed(tmp_path,
                                                  monkeypatch):
    calls = []
    original = harness.RewriteBatch.op

    def flaky(self):
        calls.append(self)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return original(self)

    monkeypatch.setattr(harness.RewriteBatch, "op", flaky)
    result = _measure(tmp_path, min_ops=3)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert any("injected" in p for p in result["problems"])


def test_census_invariant_rejects_a_dropped_point():
    from repro.workloads import pincheck

    case = harness.Case.build(pincheck.workload())
    evaluation = case.target().evaluate(models=("skip",))
    args = (evaluation.diff, evaluation.baseline_reports,
            evaluation.hardened_reports)
    assert checks.census_problems(*args) == []
    evaluation.diff.points.pop()
    assert checks.census_problems(*args)


def test_native_check_says_whether_it_ran(tmp_path):
    from repro.workloads import pincheck

    native = checks.NativeReference(tmp_path)
    assert native.status().startswith("not applicable")
    case = harness.Case.build(pincheck.workload())
    assert native.problems(case.elf, case.elf, case.good, case.bad,
                           case.marker, case.name) == []
    assert native.status().startswith(("checked", "skipped"))


def test_traced_run_accounts_for_its_wall_time(tmp_path):
    result = _measure(tmp_path, trace=True)
    assert result["failed"] == 0
    layers = result["layers"]
    attributed = layers["unattributed_s"] + sum(
        value for key, value in layers.items() if key.startswith("self."))
    assert attributed == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert set(layers) == {name for name, _, _ in harness.LAYER_METRICS}
    events = json.loads((tmp_path / "trace.json").read_text())
    assert events["traceEvents"]


def test_deterministic_counters_repeat_between_runs(tmp_path):
    first, second = (_measure(tmp_path, trace=True)["layers"]
                     for _ in range(2))
    for name, _, _ in harness._COUNTERS:
        assert first[name] == second[name], name
    assert first["detour.patched"] > 0 and first["ir.insns"] > 0


def test_injected_delay_shows_in_its_layer_and_end_to_end(
        tmp_path, monkeypatch):
    import repro.detour.rewriter
    import repro.hardening

    def both():
        # the median of three untraced operations for the end-to-end
        # number, so one cold operation cannot hide the delay
        return (_measure(tmp_path, min_ops=3)["e2e"]["op_s"],
                _measure(tmp_path, trace=True)["layers"])

    before = both()
    delay = 0.2
    original = repro.detour.rewriter.detour_harden

    def slow_detour_harden(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.detour.rewriter, "detour_harden",
                        slow_detour_harden)
    monkeypatch.setattr(repro.hardening, "detour_harden",
                        slow_detour_harden)
    after = both()

    added = delay * 5  # five programs are detoured per operation
    # op_s is scaled by the host's speed, which may drift by +-20%
    assert after[0] - before[0] >= 0.5 * added
    for metric in ("detour.harden_s", "self.detour_s"):
        assert after[1][metric] - before[1][metric] >= 0.8 * added, \
            metric
    assert abs(after[1]["self.lower_s"] - before[1]["self.lower_s"]) \
        < 0.5 * added


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "rewrite-batch", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_predictions_name_real_metrics():
    spec = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    layer_names = {name for name, _, _ in harness.LAYER_METRICS}
    for prediction in spec["predictions"]:
        assert set(prediction["metrics"]) <= layer_names, prediction
    assert spec["held_out_seed"] not in (
        harness.DEFAULT_SEED, *map(int, harness.load_known_answers()))
