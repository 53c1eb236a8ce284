"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/tests

They run the real runner on mc-basic for a fraction of a second, with a
single set-up probe.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(capsys, monkeypatch, trace: int, seed: int = 3) -> dict:
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "TRACE_SETUP_PROBES", 1)
    assert run.main(["--workload", "mc-basic", "--seed", str(seed),
                     "--seconds", "0.2", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_correct_reference_passes_and_wrong_reference_fails(capsys, monkeypatch):
    good = run_once(capsys, monkeypatch, trace=0)
    assert good["correct"] and good["failed"] == 0 and good["attempted"] >= 2

    monkeypatch.setitem(workloads.REFERENCES, "asian-put", 82.115 + 1.0)
    bad = run_once(capsys, monkeypatch, trace=0)
    assert not bad["correct"]
    assert 0 < bad["failed"] < bad["attempted"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_the_spec_and_the_allowed_characters(capsys, monkeypatch,
                                                                 trace, key):
    spec_names = [m["name"] for m in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in spec_names)
    out = run_once(capsys, monkeypatch, trace=trace)
    assert list(out["metrics"]) == spec_names
    assert {m["name"]: m["unit"] for m in SPEC[key]} == {
        name: m["unit"] for name, m in out["metrics"].items()}


def test_a_layer_that_never_ran_reports_zero(capsys, monkeypatch):
    metrics = run_once(capsys, monkeypatch, trace=1)["metrics"]
    for name in ("paths.codes_to_bits_calls", "paths.block_probability_calls",
                 "paths.block_probability_us_per_call", "mc.allocate_strata_ms",
                 "exact.pool_busy_share"):
        assert metrics[name]["value"] == 0
    assert metrics["mc.mc_stream_calls"]["value"] == 2
    assert metrics["payoffs.payoff_batch_calls"]["value"] == 2


def test_tracing_leaves_values_and_functions_unchanged():
    plan = workloads.mc_strata(5, n=10, R=1024)
    before = [getattr(module, attr) for module, attr, _, _ in spans.WRAPPED]
    plain, _, _ = run.run_pass(plan.trace_units, 0, None)
    tracer = spans.Tracer()
    with tracer.installed(run=1):
        traced, _, failed = run.run_pass(plan.trace_units, 0, tracer)
    assert failed == 0
    assert [(s.value, s.se) for s in traced] == [(s.value, s.se) for s in plain]
    assert [getattr(module, attr) for module, attr, _, _ in spans.WRAPPED] == before
    roots = {s.id for s in tracer.spans if s.parent == 0}
    assert roots and all(s.parent in {x.id for x in tracer.spans} | {0}
                         for s in tracer.spans)
    assert len(roots) == len(plan.trace_units)


def test_covered_ns_counts_overlaps_once():
    assert spans.covered_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert spans.covered_ns([]) == 0


def test_strict_report_parsing_rejects_nan():
    with pytest.raises(ValueError):
        workloads.parse_report('{"value": NaN}')


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-basic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
