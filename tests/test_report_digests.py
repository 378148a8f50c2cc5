"""sha256 digests of every bundled manifest's reports.

``report_digests.json`` holds one digest per manifest, command and plan:
the JSON report that ``cli.main`` writes with ``--report``, with the
values of ``duration_ms`` and ``output_path`` masked.  Each construct run
that writes an ``--out`` manifest adds that file's digest.  The plans are
each manifest's own and ``--samples-grid 8 --samples-random 300 --seed 5``.
A digest that changes means report bytes changed.  Every report must also
be strict JSON: no ``NaN`` or ``Infinity``.

Regenerate, only when a change to report bytes is intended, with

    PYTHONPATH=src python tests/test_report_digests.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

from conftest import MEMOS, strict_json

from engelcalc.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")
MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"
PLANS = {
    "own": [],
    "grid8": ["--samples-grid", "8", "--samples-random", "300", "--seed", "5"],
}
COMMANDS = ("verify", "invariant", "construct")
_MASKS = (
    (re.compile(rb'"duration_ms": \d+'), b'"duration_ms": 0'),
    (re.compile(rb'"output_path": "[^"]*"'), b'"output_path": ""'),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(workdir: Path, reverse: bool = False) -> dict[str, str]:
    """Digest of every report (and ``--out`` file) keyed
    ``<manifest> <command> <plan>`` (``... out`` for the file), running the
    manifests in name order or, with ``reverse``, the other way round."""
    report = workdir / "report.json"
    built = workdir / "built.manifest"
    out = {}
    for path in sorted(MANIFESTS.glob("*.manifest"), reverse=reverse):
        for plan, flags in PLANS.items():
            for command in COMMANDS:
                key = f"{path.stem} {command} {plan}"
                argv = [command, str(path), *flags, "--report", str(report)]
                if command == "construct":
                    argv += ["--out", str(built)]
                built.unlink(missing_ok=True)
                main(argv)
                data = report.read_bytes()
                strict_json(data)
                for pattern, mask in _MASKS:
                    data = pattern.sub(mask, data)
                out[key] = _sha256(data)
                if built.exists():
                    out[key + " out"] = _sha256(built.read_bytes())
    return out


def test_reports_match_their_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = report_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    assert [key for key in expected if actual[key] != expected[key]] == []


def test_reports_match_their_digests_on_warm_tables(tmp_path):
    # the expression tables and the symbolic memos outlive a run: a second
    # pass, in the other order, meets every tree the first pass built and
    # takes every parse, bracket, prolongation and annihilator from the memos
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert report_digests(tmp_path) == expected
    cold = [memo.cache_info() for memo in MEMOS]
    assert report_digests(tmp_path, reverse=True) == expected
    warm = [memo.cache_info() for memo in MEMOS]
    assert [(w.misses - c.misses, w.hits > c.hits) for c, w in zip(cold, warm)] == [
        (0, True)
    ] * len(MEMOS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = report_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
