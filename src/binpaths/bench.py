"""Scaling measurements for the parallel exact engine.

For each (N, M) pair the harness times a caller-supplied runner and
reports speedup and efficiency against the smallest M measured for that
N.  The baseline convention follows the usual strong-scaling tables: if
the grid starts at M0 instead of 1, the baseline row is assigned
speedup M0 so efficiency stays comparable across grids.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InvalidInput, check_count

BENCH_CSV_HEADER = "N,M,wall_seconds,speedup,efficiency,baseline_M"

# Floor for measured wall times, so a degenerate zero reading from clock
# granularity cannot divide by zero.
_MIN_WALL = 1e-12


@dataclass(frozen=True)
class BenchRecord:
    n: int
    m: int
    wall_seconds: float
    speedup: float
    efficiency: float
    baseline_m: int


def _grouped(pairs: Sequence) -> list:
    groups = []
    for n, m in pairs:
        if groups and groups[-1][0] == n:
            groups[-1][1].append(m)
        else:
            groups.append((n, [m]))
    seen = set()
    for n, ms in groups:
        if n in seen:
            raise InvalidInput(f"grid lists N={n} in two separate runs; group them")
        seen.add(n)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise InvalidInput(
                f"worker counts for N={n} must be strictly ascending, got {ms}"
            )
    return groups


def run_bench(pairs: Iterable, runner: Callable, repetitions: int = 3) -> list:
    """Time runner(n, m) over a grid and derive scaling numbers.

    Each cell is timed `repetitions` times and the median wall time is
    kept.  Within one N the first (smallest) M is the baseline:
    speedup(M) = baseline_M * wall(baseline) / wall(M) and
    efficiency(M) = speedup(M) / M.
    """
    check_count("repetitions", repetitions, 1, InvalidInput)
    pairs = list(pairs)
    if not pairs:
        raise InvalidInput("empty benchmark grid")
    groups = _grouped(pairs)
    records = []
    for n, ms in groups:
        walls = []
        for m in ms:
            times = []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                runner(n, m)
                times.append(time.perf_counter() - t0)
            walls.append(max(statistics.median(times), _MIN_WALL))
        base_m = ms[0]
        base_wall = walls[0]
        for m, wall in zip(ms, walls):
            speedup = base_m * base_wall / wall
            records.append(
                BenchRecord(
                    n=n,
                    m=m,
                    wall_seconds=wall,
                    speedup=speedup,
                    efficiency=speedup / m,
                    baseline_m=base_m,
                )
            )
    return records


def records_to_csv(records: Sequence) -> str:
    lines = [BENCH_CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.n},{r.m},{r.wall_seconds!r},{r.speedup!r},{r.efficiency!r},{r.baseline_m}"
        )
    return "\n".join(lines) + "\n"


def _pivot(records: Sequence, field: str, ms: list) -> list:
    rows = []
    by_cell = {(r.n, r.m): getattr(r, field) for r in records}
    ns = sorted({r.n for r in records})
    for n in ns:
        cells = [by_cell.get((n, m)) for m in ms]
        rows.append((n, cells))
    return rows


def records_to_tables(records: Sequence) -> str:
    """Three aligned sub-tables (wall, speedup, efficiency), N by M."""
    ms = sorted({r.m for r in records})
    out = []
    for field, title in (
        ("wall_seconds", "wall_seconds"),
        ("speedup", "speedup"),
        ("efficiency", "efficiency"),
    ):
        out.append(title)
        header = ["N\\M"] + [str(m) for m in ms]
        rows = [header]
        for n, cells in _pivot(records, field, ms):
            rows.append(
                [str(n)] + ["-" if c is None else f"{c:.4f}" for c in cells]
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        for row in rows:
            out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        out.append("")
    return "\n".join(out)
