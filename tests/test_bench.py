import pytest

from binpaths import (
    InvalidInput,
    MarketInputs,
    PayoffKind,
    ValuationRequest,
    derive_crr,
    records_to_csv,
    records_to_tables,
    run_bench,
    value_exact_parallel,
)
from binpaths.bench import BENCH_CSV_HEADER


@pytest.fixture
def clock(monkeypatch):
    """The harness's perf_counter, frozen until a runner advances it."""
    now = [0.0]
    monkeypatch.setattr("binpaths.bench.time.perf_counter", lambda: now[0])

    def advance(seconds: float) -> None:
        now[0] += seconds

    return advance


def test_single_cell_grid_is_its_own_baseline(clock):
    records = run_bench([(10, 1)], lambda n, m: clock(0.01), repetitions=1)
    assert len(records) == 1
    rec = records[0]
    assert rec.speedup == 1.0
    assert rec.efficiency == 1.0
    assert rec.baseline_m == 1
    assert rec.wall_seconds == pytest.approx(0.01, rel=1e-12)


def test_synthetic_linear_scaling_yields_unit_efficiency(clock):
    # a runner whose wall time is 0.12 / m scales perfectly by construction
    records = run_bench(
        [(8, m) for m in (1, 2, 4)], lambda n, m: clock(0.12 / m), repetitions=3
    )
    for rec in records:
        assert rec.wall_seconds == pytest.approx(0.12 / rec.m, rel=1e-12)
        assert rec.speedup == pytest.approx(rec.m, rel=1e-12)
        assert rec.efficiency == pytest.approx(1.0, rel=1e-12)


def test_baseline_convention_when_grid_starts_above_one(clock):
    records = run_bench(
        [(8, m) for m in (2, 4)], lambda n, m: clock(0.12 / m), repetitions=3
    )
    assert all(rec.baseline_m == 2 for rec in records)
    assert records[0].speedup == 2.0
    assert records[0].efficiency == 1.0
    assert records[1].speedup == pytest.approx(4.0, rel=1e-12)
    assert records[1].efficiency == pytest.approx(1.0, rel=1e-12)


def test_median_of_repetitions_is_kept(clock):
    walls = iter([0.3, 0.1, 0.2])
    records = run_bench([(8, 1)], lambda n, m: clock(next(walls)), repetitions=3)
    assert records[0].wall_seconds == pytest.approx(0.2, rel=1e-12)


def test_speedup_identity_holds_exactly(clock):
    records = run_bench(
        [(5, m) for m in (1, 2)], lambda n, m: clock(0.02), repetitions=1
    )
    base = records[0]
    assert records[1].speedup == pytest.approx(1.0, rel=1e-12)
    assert records[1].efficiency == pytest.approx(0.5, rel=1e-12)
    for rec in records:
        assert rec.speedup * rec.wall_seconds == pytest.approx(
            base.wall_seconds * base.baseline_m, rel=1e-12
        )
        assert rec.efficiency == rec.speedup / rec.m


def test_grid_validation():
    with pytest.raises(InvalidInput):
        run_bench([(8, 4), (8, 2)], lambda n, m: None)
    with pytest.raises(InvalidInput):
        run_bench([(8, 1), (10, 1), (8, 2)], lambda n, m: None)
    with pytest.raises(InvalidInput):
        run_bench([], lambda n, m: None)
    for bad in (0, -1, True, 2.0):
        with pytest.raises(InvalidInput):
            run_bench([(8, 1)], lambda n, m: None, repetitions=bad)


def test_csv_round_trip_shape(clock):
    records = run_bench(
        [(8, m) for m in (1, 2)], lambda n, m: clock(0.01), repetitions=1
    )
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "8" and first[1] == "1" and first[-1] == "1"
    assert float(first[3]) == 1.0


def test_tables_render_all_three_sections(clock):
    records = run_bench(
        [(8, m) for m in (1, 2)], lambda n, m: clock(0.005), repetitions=1
    )
    text = records_to_tables(records)
    for section in ("wall_seconds", "speedup", "efficiency"):
        assert section in text
    assert "N\\M" in text


def test_real_engine_runner_produces_records():
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=12)
    params = derive_crr(inputs)

    def runner(n, m):
        req = ValuationRequest(
            inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT, workers=m
        )
        value_exact_parallel(req)

    records = run_bench([(12, 1), (12, 2)], runner, repetitions=1)
    assert [rec.m for rec in records] == [1, 2]
    assert all(rec.wall_seconds > 0 for rec in records)
    assert records[0].speedup == 1.0
