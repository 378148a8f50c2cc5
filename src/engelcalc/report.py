"""Machine-readable run reports with a stable byte layout.

Two runs over the same manifest, seed, and tool version produce identical
JSON except for the trailing ``duration_ms`` field, which is excluded
from the determinism guarantee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

PASS_STATUSES = frozenset({"pass", "match", "computed", "done"})


def _plain(value):
    """Convert numpy scalars/arrays so json serialization is stable."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class TaskRecord:
    task_id: str
    kind: str
    target: str
    status: str
    witnesses: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    error: str | None = None

    def as_dict(self) -> dict:
        return {
            "id": self.task_id,
            "kind": self.kind,
            "target": self.target,
            "status": self.status,
            "witnesses": _plain(self.witnesses),
            "notes": list(self.notes),
            "error": self.error,
        }


@dataclass
class RunReport:
    version: str
    manifest_digest: str
    command: str
    seed: int
    tasks: list[TaskRecord]
    duration_ms: int = 0

    @property
    def exit_code(self) -> int:
        return 0 if all(t.status in PASS_STATUSES for t in self.tasks) else 1

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "manifest_digest": self.manifest_digest,
            "command": self.command,
            "seed": self.seed,
            "tasks": [t.as_dict() for t in self.tasks],
            "exit_code": self.exit_code,
            "duration_ms": self.duration_ms,
        }


def emit_report(report: RunReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(report.as_dict(), indent=2) + "\n").encode("utf-8")
    if fmt == "text":
        lines = [
            f"engelcalc {report.version}  command={report.command}  seed={report.seed}",
            f"manifest sha256: {report.manifest_digest}",
            "",
        ]
        for t in report.tasks:
            lines.append(f"{t.status.upper():<9} {t.task_id:<24} {t.kind:<11} target={t.target}")
            for key, value in _plain(t.witnesses).items():
                lines.append(f"          {key} = {value}")
            for note in t.notes:
                lines.append(f"          note: {note}")
            if t.error:
                lines.append(f"          error: {t.error}")
        lines.append("")
        lines.append(f"exit code: {report.exit_code}   duration: {report.duration_ms} ms")
        lines.append("")
        return "\n".join(lines).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
