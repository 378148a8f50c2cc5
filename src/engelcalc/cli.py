"""Command-line interface: verify / invariant / construct over manifests.

Exit codes: 0 when every verification passes and every expectation
matches, 1 on any failed or mismatched task, 2 on input errors (bad
manifest, missing file, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .charts import GeometryError
from .expr import ExprError
from .manifest import ManifestError, parse_manifest
from .report import emit_report
from .runner import run_tasks


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("manifest", help="path to a manifest file")
    sub.add_argument("--samples-grid", type=int, default=None, metavar="N")
    sub.add_argument("--samples-random", type=int, default=None, metavar="K")
    sub.add_argument("--seed", type=int, default=None, metavar="S")
    sub.add_argument("--tol-rank", type=float, default=None, metavar="X")
    sub.add_argument("--tol-zero", type=float, default=None, metavar="X")
    sub.add_argument("--fd-step", type=float, default=1e-3, metavar="H")
    sub.add_argument("--report", default=None, metavar="PATH", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "text"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="engelcalc",
        description="Verify plane-field structures, compute twisting invariants,"
        " and run constructions from manifest files.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("verify", "run the manifest's verify and identities tasks"),
        ("invariant", "run the manifest's invariant tasks"),
        ("construct", "run the manifest's construct tasks"),
    ):
        sub = subs.add_parser(name, help=text)
        _add_shared_flags(sub)
        if name == "construct":
            sub.add_argument("--out", required=True, metavar="PATH", help="output manifest path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    path = Path(args.manifest)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"engelcalc: cannot read {path}: {err}", file=sys.stderr)
        return 2

    try:
        manifest = parse_manifest(text).with_overrides(
            grid=args.samples_grid,
            random=args.samples_random,
            seed=args.seed,
            tol_rank=args.tol_rank,
            tol_zero=args.tol_zero,
        )
        if not 0.0 < args.fd_step < math.inf:
            raise GeometryError(f"--fd-step must be finite and > 0, got {args.fd_step!r}")
    except (ManifestError, ExprError, GeometryError) as err:
        print(f"engelcalc: {path}: {err}", file=sys.stderr)
        return 2

    try:
        report = run_tasks(
            manifest,
            command=args.command,
            fd_step=args.fd_step,
            out_path=getattr(args, "out", None),
        )
        payload = emit_report(report, args.format)
        if args.report:
            Path(args.report).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.flush()
    except OSError as err:  # a construct task's output, or the report
        print(f"engelcalc: cannot write: {err}", file=sys.stderr)
        return 2
    return report.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
