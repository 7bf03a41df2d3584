"""Command-line interface.

Subcommands:

* ``assess`` — score one two-view trial and write a report (and traces);
* ``ahp`` — derive weights and run the consistency check for a judgment
  matrix file;
* ``synth`` — generate a synthetic drop-landing trial from a script;
* ``batch`` — assess a list of trials and emit a summary table.

Exit codes: 0 success, 1 assessment error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
from pathlib import Path

from . import ahp, assessment, motion_synth
from . import pose_ingest as pi
from .config import load_config
from .errors import AclRiskError, MalformedDocument


def _read_json(path: str):
    """The JSON document in a file; one that cannot be decoded is MalformedDocument."""
    try:
        return json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # bad JSON, bad encoding, deep nesting
        raise MalformedDocument(f"{path}: invalid JSON ({exc})") from exc


def _trials(entries) -> list[assessment.Trial]:
    """Batch trials from a trials document: {number, sagittal, frontal} items, numbers unique."""
    if not isinstance(entries, list):
        raise MalformedDocument("trials file must hold a JSON list")
    trials = []
    entry_of: dict[int, int] = {}
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or not {"number", "sagittal", "frontal"} <= e.keys():
            raise MalformedDocument(
                f"trials entry {i} must be an object with number, sagittal and frontal")
        if type(e["number"]) is not int:
            raise MalformedDocument(
                f"trials entry {i}: number must be an integer, got {reprlib.repr(e['number'])}")
        if not (isinstance(e["sagittal"], str) and isinstance(e["frontal"], str)):
            raise MalformedDocument(f"trials entry {i}: sagittal and frontal must be paths")
        first = entry_of.setdefault(e["number"], i)
        if first != i:
            raise MalformedDocument(
                f"trials entries {first} and {i} both have number {e['number']}")
        trials.append(assessment.Trial(e["number"], e["sagittal"], e["frontal"]))
    return trials


def cmd_assess(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.window:
        cfg.window_mode = args.window
    if args.force:
        cfg.force = True
    report = assessment.assess_trial(args.sagittal, args.frontal, cfg, number=args.number)
    if args.traces:
        assessment.emit_traces(report, args.traces)
    payload = assessment.emit_report(report, args.format)
    if args.report:
        Path(args.report).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def cmd_ahp(args: argparse.Namespace) -> int:
    matrix = ahp.check_matrix(ahp.parse_matrix(_read_json(args.matrix)))
    weights, report = ahp.derive_weights(matrix, geometric=args.method == "geometric")
    print("weights:", " ".join(f"{w:.6f}" for w in weights))
    print(f"lambda_max: {report.lambda_max:.6f}")
    print(f"CI: {report.ci:.6f}")
    print(f"RI: {report.ri:.2f}")
    print(f"CR: {report.cr:.6f}")
    print("consistency:", "PASS" if report.passed else "FAIL")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    script = motion_synth.MotionScript.from_dict(_read_json(args.script))
    sagittal, frontal, truth = motion_synth.generate(script)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        pi.write_series_csv(sagittal, out / "sagittal.csv")
        pi.write_series_csv(frontal, out / "frontal.csv")
    else:
        pi.write_series_openpose(sagittal, out / "sagittal")
        pi.write_series_openpose(frontal, out / "frontal")
    motion_synth.write_ground_truth(truth, out / "ground_truth.json")
    print(f"wrote trial to {out}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    result = assessment.assess_batch(_trials(_read_json(args.trials)), cfg)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for report in result.reports:
            (out / f"report_{report.number}.json").write_bytes(
                assessment.report_to_json(report))
    summary = result.summary()
    if args.summary:
        Path(args.summary).write_text(summary, encoding="utf-8")
    else:
        sys.stdout.write(summary)
    for failure in result.failures:
        sys.stderr.write(
            f"trial {failure['number']} failed at {failure['stage']}: "
            f"{failure['error']}: {failure['message']}\n")
    return 1 if result.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aclrisk",
        description="ACL injury risk scoring from 2D pose keypoint series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="assess one two-view trial")
    p.add_argument("--sagittal", required=True, help="sagittal series (dir or CSV)")
    p.add_argument("--frontal", required=True, help="frontal series (dir or CSV)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--report", help="report output file (default: stdout)")
    p.add_argument("--traces", help="directory for per-frame trace CSVs")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--window", choices=("full", "landing"))
    p.add_argument("--force", action="store_true",
                   help="proceed even if the weight matrix fails the consistency check")
    p.add_argument("--number", type=int, default=1, help="trial number for the summary")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("ahp", help="weights + consistency for a judgment matrix")
    p.add_argument("--matrix", required=True,
                   help="JSON file of matrix rows; fraction strings like '1/3' allowed")
    p.add_argument("--method", choices=("sum", "geometric"), default="sum")
    p.set_defaults(func=cmd_ahp)

    p = sub.add_parser("synth", help="generate a synthetic drop-landing trial")
    p.add_argument("--script", required=True, help="JSON motion script")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("batch", help="assess a list of trials")
    p.add_argument("--trials", required=True,
                   help="JSON list of {number, sagittal, frontal} entries")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="directory for per-trial reports")
    p.add_argument("--summary", help="summary CSV output file (default: stdout)")
    p.set_defaults(func=cmd_batch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AclRiskError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
