"""Expected answers for every fixture request, written by hand.

Each row comes from the manifest's header comment and its ``expect``
lines, never from running engelcalc:

* ``prolonged-nK``: the frame and its K-fold prolongation verify, the
  twisting number is K (``expect = K``), and the construction is written.
* ``extension-nK``: the extension frame and its bracket identities verify,
  the minimal twisting number is K (``expect = K``), and the construction
  is written.
* ``standard-contact-r3``, ``standard-engel-r4``, ``t3-contact-k``: the
  standard structures, every verify task passes.
* ``neg-family-jump``: "the verify task errors out".
* ``neg-integrable``: "the verify task fails".
* ``neg-swapped-pair``: "the verify task fails".

A request's exit code follows the CLI contract: 0 when every task passes
or matches, 1 otherwise.  The verdicts do not depend on the sampling plan,
so the scaled-grid workload uses the same rows as the default plans.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Expected:
    exit_code: int
    statuses: dict[str, str]
    values: dict[str, int] = field(default_factory=dict)


EXPECTED: dict[tuple[str, str], Expected] = {
    ("extension-n0", "verify"): Expected(0, {"verify_ext": "pass", "identities": "pass"}),
    ("extension-n0", "invariant"): Expected(0, {"mtw": "match"}, {"mtw": 0}),
    ("extension-n0", "construct"): Expected(0, {"build": "done"}),
    ("extension-n1", "verify"): Expected(0, {"verify_ext": "pass", "identities": "pass"}),
    ("extension-n1", "invariant"): Expected(0, {"mtw": "match"}, {"mtw": 1}),
    ("extension-n1", "construct"): Expected(0, {"build": "done"}),
    ("extension-n2", "verify"): Expected(0, {"verify_ext": "pass", "identities": "pass"}),
    ("extension-n2", "invariant"): Expected(0, {"mtw": "match"}, {"mtw": 2}),
    ("extension-n2", "construct"): Expected(0, {"build": "done"}),
    ("extension-n3", "verify"): Expected(0, {"verify_ext": "pass", "identities": "pass"}),
    ("extension-n3", "invariant"): Expected(0, {"mtw": "match"}, {"mtw": 3}),
    ("extension-n3", "construct"): Expected(0, {"build": "done"}),
    ("neg-family-jump", "verify"): Expected(1, {"family": "error"}),
    ("neg-integrable", "verify"): Expected(1, {"frame": "fail"}),
    ("neg-swapped-pair", "verify"): Expected(1, {"pair": "fail"}),
    ("prolonged-n1", "verify"): Expected(0, {"verify_frame": "pass", "verify_prolonged": "pass"}),
    ("prolonged-n1", "invariant"): Expected(0, {"tw": "match"}, {"tw": 1}),
    ("prolonged-n1", "construct"): Expected(0, {"build": "done"}),
    ("prolonged-n2", "verify"): Expected(0, {"verify_frame": "pass", "verify_prolonged": "pass"}),
    ("prolonged-n2", "invariant"): Expected(0, {"tw": "match"}, {"tw": 2}),
    ("prolonged-n2", "construct"): Expected(0, {"build": "done"}),
    ("prolonged-n3", "verify"): Expected(0, {"verify_frame": "pass", "verify_prolonged": "pass"}),
    ("prolonged-n3", "invariant"): Expected(0, {"tw": "match"}, {"tw": 3}),
    ("prolonged-n3", "construct"): Expected(0, {"build": "done"}),
    ("prolonged-n4", "verify"): Expected(0, {"verify_frame": "pass", "verify_prolonged": "pass"}),
    ("prolonged-n4", "invariant"): Expected(0, {"tw": "match"}, {"tw": 4}),
    ("prolonged-n4", "construct"): Expected(0, {"build": "done"}),
    ("prolonged-n5", "verify"): Expected(0, {"verify_frame": "pass", "verify_prolonged": "pass"}),
    ("prolonged-n5", "invariant"): Expected(0, {"tw": "match"}, {"tw": 5}),
    ("prolonged-n5", "construct"): Expected(0, {"build": "done"}),
    ("standard-contact-r3", "verify"): Expected(0, {"contact": "pass", "frame": "pass"}),
    ("standard-engel-r4", "verify"): Expected(
        0, {"pair": "pass", "even_contact": "pass", "frame": "pass"}
    ),
    ("t3-contact-k", "verify"): Expected(0, {"contact": "pass", "frame": "pass"}),
}


def mismatches(
    expected: Expected, exit_code: int, report_path: Path, out_path: Path | None
) -> list[str]:
    """Every way a finished request differs from its expected answer."""
    problems = []
    if exit_code != expected.exit_code:
        problems.append(f"exit code {exit_code}, expected {expected.exit_code}")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return problems + [f"unreadable report: {err}"]
    if report.get("exit_code") != exit_code:
        problems.append(f"report exit_code {report.get('exit_code')} != returned {exit_code}")
    tasks = {t["id"]: t for t in report.get("tasks", [])}
    statuses = {tid: t["status"] for tid, t in tasks.items()}
    if statuses != expected.statuses:
        problems.append(f"statuses {statuses}, expected {expected.statuses}")
    for tid, value in expected.values.items():
        got = tasks.get(tid, {}).get("witnesses", {}).get("value")
        if got != value:
            problems.append(f"task {tid} value {got}, expected {value}")
    if out_path is not None and "done" in statuses.values():
        # a construct task must have written the file whose digest it reports
        try:
            digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        except OSError as err:
            return problems + [f"construct output missing: {err}"]
        reported = [t["witnesses"].get("output_sha256") for t in tasks.values()]
        if digest not in reported:
            problems.append("construct output does not match its reported sha256")
    return problems
