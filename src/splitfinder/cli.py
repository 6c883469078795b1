"""Command-line surface: generate, analyze, run, verify, sweep.

Exit codes: 0 success, 1 verification failure, 2 invalid input or
parameters, 3 an internal size limit was hit.  Summaries go to stdout;
artifacts are only written to explicit --out paths; every error path
prints one machine-parseable ``ERROR <code>: <message>`` line to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from fractions import Fraction

from . import analysis, engine, families, persistence
from .core import Instance, parse_rational, rational_text

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_LIMIT = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's SystemExit replaced by our exit contract
        raise UsageError(message)


def _err(exc: BaseException) -> None:
    print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)


def _parse_params(pairs: list[str] | None) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--param expects key=value, got {pair!r}")
        params[key] = value
    return params


def _count(text: str) -> int:
    """argparse type of a count: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _resolve_threads(_value: int | None) -> int:
    # Everything runs on one thread; only the benchmark's provenance reads this.
    return 1


def _number(value: float | Fraction) -> str:
    return rational_text(value) if isinstance(value, Fraction) else f"{value:.12g}"


def _format_bound(value: float | Fraction | None) -> str:
    return "unbounded" if value is None else _number(value)


def _analyze(instance: Instance, args) -> analysis.AnalysisReport:
    return analysis.analyze_instance(
        instance,
        edge_mode=args.edges,
        exhaustive_limit=args.limit,
        samples=args.samples,
        seed=args.seed,
    )


def _report_summary(report: analysis.AnalysisReport) -> str:
    star = rational_text(report.alpha_star)
    if report.alpha_diagnostic:
        star += f" ({report.alpha_diagnostic})"
    return (
        f"k_min={report.k_min}"
        f" coherence={rational_text(report.coherence.value)}"
        f" alpha_star={star}"
        f" beta={rational_text(report.beta)}"
        f" lambda={rational_text(report.bounds.lam)}"
        f" nowak_worst={_format_bound(report.bounds.nowak_worst)}"
        f" split_worst={_format_bound(report.bounds.split_worst)}"
        f" split_average={_format_bound(report.bounds.split_average)}"
    )


def cmd_gen(args) -> int:
    instance = families.generate(args.family, _parse_params(args.param))
    digest = hashlib.sha256()
    persistence.write_instance(instance, args.out, digest)
    print(f"n={instance.n} m_tests={instance.m_tests} digest={digest.hexdigest()}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    instance = persistence.read_instance(args.infile)
    report = _analyze(instance, args)
    if args.out:
        persistence.write_report(report, args.out, instance)
    print(_report_summary(report))
    return EXIT_OK


def cmd_run(args) -> int:
    instance = persistence.read_instance(args.infile)
    if args.oracle == "all":
        stats = engine.gbs_tree(instance)
        if args.out:
            persistence.write_report(stats, args.out)
        print(
            f"oracles={instance.n} worst_case={stats.worst_case}"
            f" average={rational_text(stats.average)} ({float(stats.average):.12g})"
        )
        return EXIT_OK
    index = instance.hypothesis_index.get(args.oracle)
    if index is None:
        raise UsageError(f"unknown oracle {args.oracle!r}; use a hypothesis id or 'all'")
    transcript = engine.run_gbs(
        instance, engine.hypothesis_oracle(instance, index), args.oracle
    )
    if args.out:
        persistence.write_report(transcript, args.out)
    print(f"oracle={args.oracle} queries={transcript.query_count} identified={transcript.identified}")
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = persistence.read_instance(args.infile)
    document = persistence.read_report_document(args.report)
    if document.get("kind") != "analysis_report":
        raise UsageError(f"--report must be an analysis report, got {document.get('kind')!r}")
    digest = persistence.instance_digest(instance)
    if document.get("instance_digest") != digest:
        raise UsageError("report was produced for a different instance (digest mismatch)")
    report = persistence.report_from_document(document, instance)
    try:  # weights that are not a distribution raise NotADistribution: bad input, exit 2
        achieved = analysis.verify_certificate(instance, report.coherence)
    except analysis.OverstatedCertificate as exc:
        print(f"FAIL coherence_certificate: {exc}")
        _err(VerificationFailed(f"coherence_certificate violated: {exc}"))
        return EXIT_VERIFY_FAILED
    claimed = rational_text(report.coherence.value)
    print(f"PASS coherence_certificate: claimed={claimed} achieved={rational_text(achieved)}")
    stats = engine.gbs_tree(instance)
    verdict = analysis.verify_bounds(instance, report, stats, optimal_cap=args.cap)
    for check in verdict.checks:
        status = "PASS" if check.passed else "FAIL"
        bound = _format_bound(check.bound)
        margin = "" if check.margin is None else f" margin={_number(check.margin)}"
        print(f"{status} {check.name}: observed={_number(check.observed)} bound={bound}{margin}")
    if verdict.conditional:
        print("NOTE bounds are conditional: some edges were not exhaustively verified")
    if not verdict.all_passed:
        worst = next(c for c in verdict.checks if not c.passed)
        margin = "" if worst.margin is None else f" by {_number(-worst.margin)}"
        _err(VerificationFailed(f"{worst.name} violated{margin}"))
        return EXIT_VERIFY_FAILED
    return EXIT_OK


class VerificationFailed(Exception):
    pass


def cmd_optimal(args) -> int:
    instance = persistence.read_instance(args.infile)
    print(analysis.optimal_worst_case(instance, n_cap=args.cap))
    return EXIT_OK


def cmd_entropy(args) -> int:
    try:
        p = parse_rational(args.p)
    except ValueError:
        raise UsageError(f"--p must be a rational like 1/5, got {args.p!r}") from None
    if not 0 <= p <= 1:
        raise UsageError(f"--p must lie in [0, 1], got {args.p}")
    rendered = f"{analysis.binary_entropy(p):.12g}"
    if "." not in rendered and "e" not in rendered:
        rendered += ".0"
    print(rendered)
    return EXIT_OK


def cmd_interactive(args) -> int:
    instance = persistence.read_instance(args.infile)
    transcript = engine.interactive_session(instance, sys.stdin, sys.stdout)
    if args.out:
        persistence.write_report(transcript, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    fixed = _parse_params(args.param)
    grid: dict[str, list[str]] = {}
    for pair in args.grid:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise UsageError(f"--grid expects key=v1,v2,..., got {pair!r}")
        grid[key] = value.split(",")
    keys = sorted(grid)
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        params = dict(fixed)
        params.update(dict(zip(keys, combo)))
        instance = families.generate(args.family, params)
        report = _analyze(instance, args)
        stats = engine.gbs_tree(instance)
        rows.append(
            {
                "name": instance.name,
                "n": instance.n,
                "k_min": report.k_min,
                "coherence": report.coherence.value,
                "alpha_star": report.alpha_star,
                "beta": report.beta,
                "bound_nowak_worst": report.bounds.nowak_worst,
                "bound_split_worst": report.bounds.split_worst,
                "bound_split_average": report.bounds.split_average,
                "worst_case": stats.worst_case,
                "average": stats.average,
            }
        )
    persistence.write_csv_summary(rows, args.out)
    print(f"rows={len(rows)} out={args.out}")
    return EXIT_OK


def _add_analysis_flags(sub) -> None:
    sub.add_argument("--edges", choices=["all", "l1"], default=None,
                     help="candidate edge set: family adjacency preset (l1) or all small pairs")
    sub.add_argument("--limit", type=_count, default=analysis.DEFAULT_EXHAUSTIVE_LIMIT,
                     help="max disagreement-set size enumerated exhaustively")
    sub.add_argument("--samples", type=_count, default=analysis.DEFAULT_SAMPLES,
                     help="random subsets probed per oversized edge")
    sub.add_argument("--seed", type=int, default=0, help="base seed for edge sampling")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splitfinder", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a family instance")
    gen.add_argument("--family", required=True, choices=list(families.FAMILIES))
    gen.add_argument("--param", action="append", metavar="KEY=VALUE")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    analyze = commands.add_parser("analyze", help="compute structural constants and bounds")
    analyze.add_argument("--in", dest="infile", required=True)
    analyze.add_argument("--out", default=None)
    _add_analysis_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    run = commands.add_parser("run", help="run the query loop against oracles")
    run.add_argument("--in", dest="infile", required=True)
    run.add_argument("--oracle", default="all",
                     help="hypothesis id, or 'all' for an exhaustive sweep")
    run.add_argument("--out", default=None)
    run.set_defaults(func=cmd_run)

    verify = commands.add_parser(
        "verify", help="re-check a report's coherence certificate and its bounds against exhaustive runs"
    )
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--report", required=True)
    verify.add_argument("--cap", type=_count, default=analysis.DEFAULT_OPTIMAL_CAP,
                        help="max n for the exact optimal-tree comparison")
    verify.set_defaults(func=cmd_verify)

    optimal = commands.add_parser("optimal", help="exact optimal worst-case query count")
    optimal.add_argument("--in", dest="infile", required=True)
    optimal.add_argument("--cap", type=_count, default=analysis.DEFAULT_OPTIMAL_CAP)
    optimal.set_defaults(func=cmd_optimal)

    entropy = commands.add_parser("entropy", help="binary entropy of a rational probability")
    entropy.add_argument("--p", required=True, metavar="NUM/DEN")
    entropy.set_defaults(func=cmd_entropy)

    interactive = commands.add_parser("interactive", help="play the hidden hypothesis over stdin/stdout")
    interactive.add_argument("--in", dest="infile", required=True)
    interactive.add_argument("--out", default=None)
    interactive.set_defaults(func=cmd_interactive)

    sweep = commands.add_parser("sweep", help="batch gen+analyze+run over a parameter grid")
    sweep.add_argument("--family", required=True, choices=list(families.FAMILIES))
    sweep.add_argument("--param", action="append", metavar="KEY=VALUE")
    sweep.add_argument("--grid", action="append", required=True, metavar="KEY=V1,V2,...")
    sweep.add_argument("--out", required=True)
    _add_analysis_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (analysis.InstanceTooLarge, engine.QueryBudgetExceeded) as exc:
        _err(exc)
        return EXIT_LIMIT
    except (ValueError, persistence.PersistenceError, OSError) as exc:
        _err(exc)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
