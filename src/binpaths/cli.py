"""Command line front end: price, study, bench."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .errors import EnumerationGuard, PricingError
from .exact import (
    ValuationRequest,
    check_enumeration,
    usable_cores,
    value_exact_parallel,
    value_leaf_formula,
)
from .model import MarketInputs, derive_crr, with_custom_probs
from .payoffs import PAYOFF_NAMES, parse_payoff

METHODS = ("exact", "exact-serial", "leaf", "mc", "pmc", "pmc-equal", "smc")
MC_METHODS = ("mc", "pmc", "pmc-equal", "smc")
ENUM_METHODS = ("exact", "exact-serial")
STUDY_HEADER = "method,M-or-R,mean_estimate,mean_variance_estimate,empirical_variance"

# The estimator of each MC method, by its name in binpaths.mc.  mc and bench
# are imported by the commands that run them, so a leaf or exact call loads
# neither.
_ESTIMATORS = {
    "mc": "estimate_basic",
    "pmc": "estimate_partitioned",
    "pmc-equal": "estimate_partitioned_equal",
    "smc": "estimate_shared",
}
# The estimators of each study table, in row order.  mc-convergence sweeps
# R at M=1; the other tables sweep M at R = --samples.
STUDY_TABLES = {
    "mc-convergence": ("mc",),
    "pmc-variance": ("pmc",),
    "smc-vs-pmc": ("pmc-equal", "smc"),
}


def _float_list(text: str):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _at_least(floor: int, many: bool = False):
    """argparse type: one integer, or a comma list of them, none below floor."""
    def parse(text: str):
        parts = text.split(",") if many else [text]
        try:
            values = [int(part) for part in parts]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")
        if min(values) < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {text!r}")
        return values if many else values[0]
    return parse


_count = _at_least(1)
_counts = _at_least(1, many=True)
_seed = _at_least(0)


def _add_market_flags(sp, with_n: bool = True) -> None:
    sp.add_argument("--payoff", required=True, choices=PAYOFF_NAMES)
    sp.add_argument("--S0", required=True, type=float)
    sp.add_argument("--K", required=True, type=float)
    sp.add_argument("--q", required=True, type=float)
    sp.add_argument("--sigma", required=True, type=float)
    sp.add_argument("--T", required=True, type=float)
    if with_n:
        sp.add_argument("--N", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binpaths",
        allow_abbrev=False,
        description="Exact and Monte Carlo valuation on recombinant binomial trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="value one contract")
    _add_market_flags(price)
    price.add_argument("--method", required=True, choices=METHODS)
    price.add_argument("--workers", type=_count, default=1,
                       help="exact threads (see --eval-threads), or MC stratum count M")
    price.add_argument("--samples", type=_count, help="MC draws R per repetition")
    price.add_argument("--seed", type=_seed, default=0)
    price.add_argument("--reps", type=_count, default=1,
                       help="independent repetitions averaged in the report")
    price.add_argument("--probs", type=_float_list,
                       help="comma list of N per-step up probabilities")
    price.add_argument("--force-large", action="store_true",
                       help="allow exact enumeration beyond N=28")
    price.add_argument("--eval-threads", type=_count, default=1,
                       help="threads over pmc and pmc-equal chunks of about 8,192 draws; M=1 "
                            "and smc run on one; at most one per usable core; no result changes")
    price.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    price.set_defaults(handler=cmd_price)

    study = sub.add_parser("study", help="repetition-averaged estimator tables")
    _add_market_flags(study)
    study.add_argument("--table", required=True, choices=STUDY_TABLES)
    study.add_argument("--R-list", type=_counts, dest="R_list")
    study.add_argument("--M-list", type=_counts, dest="M_list")
    study.add_argument("--samples", type=_count, help="R used by the M sweeps")
    study.add_argument("--seed", type=_seed, default=0)
    study.add_argument("--reps", type=_count, default=1000)
    study.add_argument("--probs", type=_float_list)
    study.set_defaults(handler=cmd_study)

    bench = sub.add_parser(
        "bench", help="scaling grid for the exact engine",
        description="Time the exact engine over an (N, M) grid. euro-call, euro-put and "
                    "lookback-put take the merged-state route, which runs inline whatever M "
                    "is; the paper's enumeration scaling grid needs asian-put.")
    _add_market_flags(bench, with_n=False)
    bench.add_argument("--N-list", required=True, type=_counts, dest="N_list")
    bench.add_argument("--M-list", required=True, type=_counts, dest="M_list")
    bench.add_argument("--reps", type=_count, default=3,
                       help="timing repetitions per cell; the median is kept")
    bench.add_argument("--force-large", action="store_true")
    bench.add_argument("--format", choices=("csv", "plain"), default="csv")
    bench.set_defaults(handler=cmd_bench)

    return parser


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _tree_for(args, n: int):
    inputs = MarketInputs(S0=args.S0, K=args.K, q=args.q, sigma=args.sigma,
                          T=args.T, N=n)
    probs = getattr(args, "probs", None)
    return inputs, derive_crr(inputs) if probs is None else with_custom_probs(inputs, probs)


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, allow_nan=False))
    elif fmt == "csv":
        print(",".join(report.keys()))
        print(",".join(str(v) for v in report.values()))
    else:
        width = max(len(k) for k in report)
        for k, v in report.items():
            print(f"{k.ljust(width)}  {v}")


def cmd_price(args) -> int:
    if args.method in MC_METHODS and args.samples is None:
        return _usage_error(f"--samples is required for method {args.method}")

    inputs, params = _tree_for(args, args.N)
    kind = parse_payoff(args.payoff)
    # exact-serial is exact on one worker, whatever --workers says.
    workers = 1 if args.method == "exact-serial" else args.workers
    req = ValuationRequest(inputs=inputs, params=params, kind=kind,
                           workers=workers, force_large=args.force_large)

    reps_used = 1
    empirical = None
    t0 = time.perf_counter()
    if args.method in ENUM_METHODS:
        value, variance, r_used, m_used = value_exact_parallel(req), 0.0, 0, workers
    elif args.method == "leaf":
        value, variance, r_used, m_used = value_leaf_formula(req), 0.0, 0, 1
    else:
        from . import mc

        m_used = 1 if args.method == "mc" else args.workers
        cfg = mc.McConfig(R=args.samples, M=m_used, seed=args.seed, reps=args.reps)
        kwargs = {} if args.method == "mc" else {"eval_threads": args.eval_threads}
        summary = mc.run_repetitions(getattr(mc, _ESTIMATORS[args.method]), req, cfg, **kwargs)
        value = summary.mean_value
        variance = summary.mean_variance
        r_used = summary.estimates[0].R_used
        reps_used = cfg.reps
        if cfg.reps > 1:
            empirical = summary.empirical_variance
    wall = time.perf_counter() - t0

    report = {
        "method": args.method,
        "payoff": args.payoff,
        "S0": inputs.S0,
        "K": inputs.K,
        "q": inputs.q,
        "sigma": inputs.sigma,
        "T": inputs.T,
        "N": inputs.N,
        "M": m_used,
        "R": r_used,
        "seed": args.seed,
        "reps": reps_used,
        "value": value,
        "variance": variance,
        "std_error": math.sqrt(variance),
        "wall_seconds": wall,
    }
    if empirical is not None:
        report["empirical_variance"] = empirical
    _print_report(report, args.format)
    return 0


def cmd_study(args) -> int:
    r_sweep = args.table == "mc-convergence"
    for flag in ("R_list",) if r_sweep else ("M_list", "samples"):
        if getattr(args, flag) is None:
            return _usage_error(
                f"--{flag.replace('_', '-')} is required for table {args.table}"
            )
    inputs, params = _tree_for(args, args.N)
    kind = parse_payoff(args.payoff)
    req = ValuationRequest(inputs=inputs, params=params, kind=kind)
    from . import mc

    lines = [STUDY_HEADER]
    for sweep in args.R_list if r_sweep else args.M_list:
        R, M = (sweep, 1) if r_sweep else (args.samples, sweep)
        cfg = mc.McConfig(R=R, M=M, seed=args.seed, reps=args.reps)
        for tag in STUDY_TABLES[args.table]:
            summary = mc.run_repetitions(getattr(mc, _ESTIMATORS[tag]), req, cfg)
            # One repetition cannot estimate a variance: the field stays empty.
            empirical = repr(summary.empirical_variance) if cfg.reps > 1 else ""
            lines.append(
                f"{tag},{sweep},{summary.mean_value!r},{summary.mean_variance!r},{empirical}"
            )
    print("\n".join(lines))
    return 0


def cmd_bench(args) -> int:
    from .bench import records_to_csv, records_to_tables, run_bench

    if any(m2 <= m1 for m1, m2 in zip(args.M_list, args.M_list[1:])):
        return _usage_error("--M-list must be strictly ascending")
    if len(set(args.N_list)) < len(args.N_list):
        return _usage_error("--N-list must not repeat an entry")
    for n in args.N_list:
        check_enumeration(n, args.force_large)
    kind = parse_payoff(args.payoff)
    cores = usable_cores()
    oversub = [m for m in args.M_list if m > cores]
    if oversub:
        print(
            f"note: worker counts {oversub} exceed the {cores} available "
            f"cores; those cells run on {cores} threads",
            file=sys.stderr,
        )

    trees = {n: _tree_for(args, n) for n in args.N_list}

    def runner(n: int, m: int) -> None:
        inputs, params = trees[n]
        req = ValuationRequest(inputs=inputs, params=params, kind=kind,
                               workers=m, force_large=args.force_large)
        value_exact_parallel(req)

    pairs = [(n, m) for n in args.N_list for m in args.M_list]
    records = run_bench(pairs, runner, repetitions=args.reps)
    if args.format == "csv":
        sys.stdout.write(records_to_csv(records))
    else:
        print(records_to_tables(records))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2
    try:
        return args.handler(args)
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A missing --force-large is a usage error; the rest are domain errors.
        return 2 if isinstance(exc, EnumerationGuard) else 3


def main_entry() -> None:
    raise SystemExit(main())
