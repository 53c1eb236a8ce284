import json
import os
import subprocess
import sys

import pytest

from binpaths.cli import METHODS, main

DESK = [
    "--payoff", "asian-put", "--S0", "20", "--K", "100",
    "--q", "0.06", "--sigma", "3.0", "--T", "1",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def price_json(capsys, *argv):
    code, out, err = run_cli(capsys, "price", *argv)
    assert code == 0, err
    return json.loads(out)


# At q=0, T=1, N=2 this sigma makes derive_crr's u exactly 2; with fair
# coins the euro-put on S0=4, K=5 is worth (5-1)/4 + (5-4)/2 = 1.5.
HAND = [
    "--payoff", "euro-put", "--S0", "4", "--K", "5", "--q", "0",
    "--sigma", "0.9005166385005492", "--T", "1", "--N", "2", "--probs", "0.5,0.5",
]


def test_hand_example_without_override_flags(capsys):
    report = price_json(capsys, "--method", "exact", *HAND)
    assert report["value"] == pytest.approx(1.5, abs=1e-12)
    assert report["method"] == "exact"
    assert report["R"] == 0 and report["variance"] == 0.0
    code, out, _ = run_cli(capsys, "price", "--method", "exact", *HAND, "--override-u", "2")
    assert code == 2 and out == ""


def test_report_has_exact_key_set_in_order(capsys):
    report = price_json(capsys, "--method", "mc", "--N", "12", "--samples", "64", *DESK)
    assert list(report.keys()) == [
        "method", "payoff", "S0", "K", "q", "sigma", "T", "N", "M", "R",
        "seed", "reps", "value", "variance", "std_error", "wall_seconds",
    ]
    assert report["M"] == 1 and report["R"] == 64 and report["reps"] == 1


def test_json_parse_reserialize_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "price", "--method", "mc", "--N", "12", "--samples", "256",
        "--seed", "9", *DESK,
    )
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    parsed = json.loads(out)
    assert json.loads(json.dumps(parsed)) == parsed


def test_pmc_single_worker_matches_mc_bitwise(capsys):
    mc = price_json(
        capsys, "--method", "mc", "--N", "12", "--samples", "1024", "--seed", "7", *DESK
    )
    pmc = price_json(
        capsys, "--method", "pmc", "--N", "12", "--samples", "1024", "--seed", "7",
        "--workers", "1", *DESK,
    )
    for key in ("value", "variance", "std_error", "M", "R"):
        assert mc[key] == pmc[key]


def test_identical_invocations_are_identical(capsys):
    runs = [
        price_json(
            capsys, "--method", "smc", "--N", "12", "--samples", "512",
            "--seed", "3", "--workers", "8", *DESK,
        )
        for _ in range(3)
    ]
    for later in runs[1:]:
        for key in ("value", "variance", "std_error"):
            assert later[key] == runs[0][key]


def test_eval_threads_leave_results_unchanged(capsys):
    reports = [
        price_json(
            capsys, "--method", "pmc", "--N", "12", "--samples", "512",
            "--seed", "3", "--workers", "8", "--eval-threads", str(t), *DESK,
        )
        for t in (1, 2, 4)
    ]
    assert len({r["value"] for r in reports}) == 1
    assert len({r["variance"] for r in reports}) == 1


def test_exact_needs_force_large_beyond_28(capsys):
    code, _, err = run_cli(
        capsys, "price", "--method", "exact", "--N", "30", *DESK
    )
    assert code == 2
    assert "force-large" in err


def test_leaf_method_runs_at_depth_30_without_flag(capsys):
    report = price_json(
        capsys, "--method", "leaf", "--payoff", "euro-put", "--S0", "5", "--K", "10",
        "--q", "0.06", "--sigma", "0.30", "--T", "1", "--N", "30",
    )
    assert report["value"] > 0


def test_reps_add_empirical_variance_key(capsys):
    report = price_json(
        capsys, "--method", "mc", "--N", "12", "--samples", "256", "--reps", "5",
        "--seed", "2", *DESK,
    )
    assert report["reps"] == 5
    assert "empirical_variance" in report
    assert list(report.keys())[-1] == "empirical_variance"


def test_unknown_payoff_rejected_at_parse_time(capsys):
    code, _, err = run_cli(
        capsys, "price", "--method", "mc", "--payoff", "asian-call", "--S0", "20",
        "--K", "100", "--q", "0.06", "--sigma", "3.0", "--T", "1", "--N", "12",
        "--samples", "64",
    )
    assert code == 2


def test_missing_samples_for_mc_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "price", "--method", "mc", "--N", "12", *DESK)
    assert code == 2
    assert "--samples" in err


def test_domain_errors_exit_three(capsys):
    # probability outside (0,1)
    code, _, err = run_cli(
        capsys, "price", "--method", "exact", "--payoff", "euro-put", "--S0", "4",
        "--K", "5", "--q", "0", "--sigma", "0.3", "--T", "1", "--N", "2",
        "--probs", "0.5,1.5",
    )
    assert code == 3
    assert "(0, 1)" in err
    # wrong probs length
    code, _, err = run_cli(
        capsys, "price", "--method", "exact", "--payoff", "euro-put", "--S0", "4",
        "--K", "5", "--q", "0", "--sigma", "0.3", "--T", "1", "--N", "3",
        "--probs", "0.5,0.5",
    )
    assert code == 3
    # R below the estimator minimum
    code, _, err = run_cli(
        capsys, "price", "--method", "mc", "--N", "12", "--samples", "1", *DESK
    )
    assert code == 3


def test_pmc_with_one_draw_in_every_stratum_exits_three(capsys):
    # A stratum of one draw has no squared deviations to pool.
    for samples, workers in (("4", "4"), ("1", "1")):
        code, out, err = run_cli(
            capsys, "price", "--method", "pmc", "--samples", samples, "--workers", workers,
            *DESK, "--N", "8",
        )
        assert code == 3
        assert out == "" and "two draws" in err


# sigma=40 at N=20: u^20 overflows while that path's weight underflows.
EXTREME = ["--payoff", "euro-call", "--S0", "1", "--K", "1", "--q", "0",
           "--sigma", "40", "--T", "1"]
# Fair coins reach the overflowing paths often enough for 1000 draws to hit them.
FAIR_20 = ["--probs", ",".join(["0.5"] * 20)]


def assert_one_error_line(code, out, err):
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("method, n, extra", [
    ("leaf", "20", ()),
    ("exact", "20", ()),
    ("mc", "2", ("--samples", "64")),  # exp(sigma^2 * T / N) overflows
])
def test_non_finite_results_exit_three(capsys, method, n, extra):
    assert_one_error_line(*run_cli(
        capsys, "price", "--method", method, *EXTREME, "--N", n, *extra,
    ))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("method, extra", [
    ("mc", ()),
    ("pmc", ("--workers", "4")),
    ("pmc-equal", ("--workers", "4", "--eval-threads", "2")),
    ("smc", ("--workers", "64", "--eval-threads", "2")),  # two chunks of 32 prefixes
])
def test_non_finite_mc_results_exit_three(capsys, method, extra, fmt):
    assert_one_error_line(*run_cli(
        capsys, "price", "--method", method, *EXTREME, "--N", "20", *FAIR_20,
        "--samples", "1000", "--format", fmt, *extra,
    ))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("market", [
    [*DESK, "--N", "4", "--probs", "nan,0.5,0.5,0.5"],
    # sigma = 0: the move size exp(q * T / N) or its inverse overflows.
    ["--payoff", "euro-call", "--S0", "1", "--K", "1", "--q", "800",
     "--sigma", "0", "--T", "1", "--N", "1"],
    ["--payoff", "euro-call", "--S0", "1", "--K", "1", "--q", "-800",
     "--sigma", "0", "--T", "1", "--N", "1"],
], ids=["nan-probs", "sigma0-q800", "sigma0-q-800"])
def test_out_of_domain_trees_exit_three_on_every_method(capsys, method, market):
    assert_one_error_line(*run_cli(
        capsys, "price", "--method", method, *market, "--samples", "64",
    ))


def test_non_finite_study_rows_exit_three(capsys):
    assert_one_error_line(*run_cli(
        capsys, "study", "--table", "mc-convergence", *EXTREME, "--N", "20", *FAIR_20,
        "--R-list", "1000", "--reps", "2",
    ))


VALID_CALLS = {
    "price": ["price", "--method", "pmc", "--N", "4", "--samples", "64", *DESK],
    "study": ["study", "--table", "pmc-variance", "--M-list", "1", "--samples", "64",
              "--reps", "2", "--N", "4", *DESK],
    "bench": ["bench", "--N-list", "4", "--M-list", "1", "--reps", "1", *DESK],
}
BELOW_FLOOR = [
    *[("price", flag, "0") for flag in ("--workers", "--reps", "--eval-threads", "--samples")],
    ("price", "--seed", "-1"),
    *[("study", flag, "0") for flag in ("--reps", "--samples", "--R-list", "--M-list")],
    ("study", "--seed", "-1"),
    *[("bench", flag, "0") for flag in ("--reps", "--N-list", "--M-list")],
]


@pytest.mark.parametrize("command, flag, value", BELOW_FLOOR,
                         ids=[" ".join(case) for case in BELOW_FLOOR])
def test_count_flags_below_their_floor_are_usage_errors(capsys, command, flag, value):
    # argparse converts every occurrence of a flag, so appending the bad
    # value to a valid call must fail even where the call already set it.
    code, out, err = run_cli(capsys, *VALID_CALLS[command], flag, value)
    assert code == 2
    assert out == ""
    assert f"argument {flag}" in err


def test_csv_and_plain_formats(capsys):
    code, out, _ = run_cli(
        capsys, "price", "--method", "mc", "--N", "12", "--samples", "64",
        "--format", "csv", *DESK,
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[0] == "method"
    assert row.split(",")[0] == "mc"
    code, out, _ = run_cli(
        capsys, "price", "--method", "mc", "--N", "12", "--samples", "64",
        "--format", "plain", *DESK,
    )
    assert code == 0
    assert "value" in out and "wall_seconds" in out


def test_study_single_stratum_row_matches_basic_row(capsys):
    common = ["--N", "10", "--seed", "3", "--reps", "5", *DESK]
    code, out_pmc, _ = run_cli(
        capsys, "study", "--table", "pmc-variance", "--M-list", "1",
        "--samples", "256", *common,
    )
    assert code == 0
    code, out_mc, _ = run_cli(
        capsys, "study", "--table", "mc-convergence", "--R-list", "256", *common
    )
    assert code == 0
    pmc_row = out_pmc.strip().split("\n")[1].split(",")
    mc_row = out_mc.strip().split("\n")[1].split(",")
    assert pmc_row[2:] == mc_row[2:]


def test_study_header_and_table_shapes(capsys):
    code, out, _ = run_cli(
        capsys, "study", "--table", "smc-vs-pmc", "--M-list", "2,4",
        "--samples", "128", "--N", "10", "--reps", "3", *DESK,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,M-or-R,mean_estimate,mean_variance_estimate,empirical_variance"
    tags = [line.split(",")[0] for line in lines[1:]]
    assert tags == ["pmc-equal", "smc", "pmc-equal", "smc"]


def test_study_single_repetition_leaves_empirical_variance_empty(capsys):
    # One repetition cannot estimate a variance; price leaves the key out.
    common = ["--N", "4", "--seed", "3", *DESK]
    code, out, _ = run_cli(
        capsys, "study", "--table", "mc-convergence", "--R-list", "64,128",
        "--reps", "1", *common,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [len(row) for row in rows] == [5, 5]
    assert all(row[4] == "" and float(row[3]) > 0.0 for row in rows)
    code, out, _ = run_cli(
        capsys, "study", "--table", "mc-convergence", "--R-list", "64",
        "--reps", "2", *common,
    )
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[4]) >= 0.0


def test_study_missing_list_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "study", "--table", "mc-convergence", "--N", "10", *DESK
    )
    assert code == 2
    assert "--R-list" in err


def test_bench_single_cell(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--N-list", "10", "--M-list", "1", "--reps", "1", *DESK
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("N,M,wall_seconds")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "10" and cells[1] == "1" and float(cells[3]) == 1.0


def test_bench_grid_rows_and_walls(capsys):
    code, out, err = run_cli(
        capsys, "bench", "--N-list", "12", "--M-list", "1,2,4", "--reps", "1", *DESK
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    walls = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(w > 0 for w in walls)
    if (os.cpu_count() or 1) >= 4:
        assert walls[0] >= walls[1] >= walls[2]


def test_bench_malformed_list_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "bench", "--N-list", "10", "--M-list", "1,x", *DESK
    )
    assert code == 2


def test_bench_descending_m_list_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "bench", "--N-list", "10", "--M-list", "4,2", *DESK
    )
    assert code == 2


@pytest.mark.parametrize("n_list, m_list", [("8,8", "1,2"), ("8,10,8", "1")])
def test_bench_repeated_n_list_entry_is_usage_error(capsys, monkeypatch, n_list, m_list):
    import binpaths.cli

    timed = []
    monkeypatch.setattr(binpaths.cli, "value_exact_parallel", timed.append)
    code, out, err = run_cli(
        capsys, "bench", "--N-list", n_list, "--M-list", m_list, "--reps", "1", *DESK
    )
    assert code == 2
    assert out == "" and timed == []
    assert err == "error: --N-list must not repeat an entry\n"


def test_bench_refuses_a_deep_cell_before_timing_any(capsys, monkeypatch):
    import binpaths.cli

    timed = []
    monkeypatch.setattr(binpaths.cli, "value_exact_parallel", timed.append)
    code, out, err = run_cli(
        capsys, "bench", "--N-list", "12,30", "--M-list", "1", "--reps", "1", *DESK
    )
    assert code == 2
    assert out == "" and timed == []
    assert "force-large" in err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "binpaths", "price", "--method", "exact",
         "--payoff", "euro-put", "--S0", "4", "--K", "5", "--q", "0",
         "--sigma", "0.3", "--T", "1", "--N", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N"] == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    code, out, _ = run_cli(capsys, "price", "--help")
    assert code == 0
    assert "--override-u" not in out


def test_exact_serial_is_exact_on_one_worker(capsys):
    serial = price_json(capsys, "--method", "exact-serial", "--workers", "3", "--N", "12", *DESK)
    exact = price_json(capsys, "--method", "exact", "--N", "12", *DESK)
    assert serial["method"] == "exact-serial" and serial["M"] == 1
    for report in (serial, exact):
        del report["method"], report["wall_seconds"]
    assert serial == exact


def test_bench_note_counts_usable_cores(capsys, monkeypatch):
    import binpaths.cli

    monkeypatch.setattr(binpaths.cli, "usable_cores", lambda: 1)
    code, _, err = run_cli(capsys, "bench", "--N-list", "8", "--M-list", "1,2",
                           "--reps", "1", *DESK)
    assert code == 0
    assert "worker counts [2] exceed the 1 available cores" in err
    # The exact engine caps its threads at the usable cores.
    assert "those cells run on 1 threads" in err


def test_cli_leaves_scipy_unimported():
    # In a fresh interpreter: this process has scipy loaded by other tests.
    import binpaths

    src = os.path.dirname(os.path.dirname(binpaths.__file__))
    code = (
        "import sys, binpaths, binpaths.cli\n"
        "assert binpaths.cli.main(['price', '--method', 'leaf', '--payoff', 'euro-call',"
        " '--S0', '20', '--K', '100', '--q', '0.06', '--sigma', '3', '--T', '1',"
        " '--N', '60']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["method"] == "leaf"
