"""Command-line interface: solve, analyze, verify, check, report.

Exit codes: 0 success, 1 solver nonconvergence, 2 hypothesis violation in
strict mode, 3 invariant violation, 4 configuration error.  No environment
variable is read: the BLAS reads its own thread count, and the CSV export
counts the CPUs of the process's affinity.  A stdout closed by its reader
drops the rest of the output, not the exit code.
"""

import argparse
import json
import os
import sys

from .errors import ConfigError, EvaluationError
from .lagrangian import check_hypotheses
from .pipeline import (EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_OK, RunReport, analyze_into,
                       export_fields, load_config, load_run, read_report,
                       run_pipeline)


def _print(text):
    """``print(text)``, flushed; a stdout that its reader has closed is
    pointed at ``os.devnull``, so the command runs on to its exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_solve(args):
    config = load_config(args.config)
    report = run_pipeline(config, strict=args.strict)
    export_fields(report, args.out)
    _print(f"exit {report.exit_code}; report written to {args.out}")
    for check in report.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        _print(f"  [{mark}] {check['name']}: value={check['value']} tol={check['tolerance']}")
    return report.exit_code


def _reanalyze(indir):
    """Reload a persisted run and re-run its analyses; the report's exit
    code is the one the analyses set.  A run that never got a solution to
    analyze comes back as persisted, with its checks and exit code.

    Only a strict run exits 2, and a strict run that exited otherwise
    analyzes the same without strictness, so a persisted exit 2 is the
    strictness to re-run with."""
    config, domain, result, report_doc = load_run(indir)
    report = RunReport(config=config.raw)
    report.solver = report_doc.get("solver")
    status = report_doc["status"]
    if result is None:
        report.hypotheses = report_doc.get("hypotheses")
        report.checks = report_doc.get("checks", [])
        report.exit_code = status["exit_code"]
        report.violations = status["violations"]
        return report
    return analyze_into(report, config, domain, result,
                        strict=status["exit_code"] == EXIT_HYPOTHESIS)


def _cmd_analyze(args):
    report = _reanalyze(args.indir)
    if report.result is not None:  # a refused run keeps its files as they are
        export_fields(report, args.indir)
    _print(f"re-analysis complete; exit {report.exit_code}")
    return report.exit_code


def _cmd_verify(args):
    report = _reanalyze(args.indir)
    if report.result is None:
        _print(f"not re-checked: {(report.solver or {}).get('failure') or 'no solution'}")
    for check in report.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        _print(f"[{mark}] {check['name']}: value={check['value']} "
               f"tolerance={check['tolerance']} gate={check['gate']}")
    passed = sum(check["passed"] for check in report.checks)
    _print(f"{passed}/{len(report.checks)} checks passed")
    return report.exit_code


def _cmd_check(args):
    config = load_config(args.config)
    rep = check_hypotheses(config.model)
    _print(json.dumps(rep.as_dict(), indent=2, sort_keys=True))
    if args.strict and not rep.convexity_ok:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _cmd_report(args):
    doc = read_report(args.indir)
    _print(json.dumps(doc, indent=2, sort_keys=True))
    status = doc.get("status", {})
    hyp = doc.get("hypotheses") or {}
    if args.strict and hyp and not hyp.get("convexity_ok", True):
        return EXIT_HYPOTHESIS
    return int(status.get("exit_code", EXIT_OK))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="emlab",
        description="Solve radially structured variational problems and "
                    "verify the associated tensor, maximum-principle and "
                    "integral-identity claims.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true",
                   help="escalate hypothesis violations to exit 2")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("analyze", help="re-run analyses on persisted fields")
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("verify", help="re-check every invariant, print pass/fail")
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("check", help="validate a config and its model hypotheses")
    p.add_argument("--config", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("report", help="print the persisted report")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, EvaluationError) as exc:
        # a model singular somewhere it is evaluated is a configuration fault;
        # the message goes on one line (a YAML parse error spans several)
        cause = "model evaluation failed: " if isinstance(exc, EvaluationError) else ""
        print(f"configuration error: {cause}{' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
