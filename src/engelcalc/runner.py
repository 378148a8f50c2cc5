"""Execute manifest tasks and assemble run reports."""

from __future__ import annotations

import hashlib
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import expr as ex
from .charts import (
    GeometryError,
    SamplePlan,
    fd_lie_bracket,
    lie_bracket,
    random_points,
    require_finite,
    sample_points,
)
from .extension import ExtensionSpec, extend, extend_family, verify_extension_identities
from .invariants import (
    BoundaryConventionWarning,
    minimal_twisting_number,
    minimal_twisting_plan,
    twisting_number,
)
from .manifest import Manifest, StructureDecl, TaskDecl, frame_to_manifest_text, materialize
from .report import RunReport, TaskRecord
from .structures import (
    CheckError,
    Distribution2,
    VerificationReport,
    check_characteristic,
    check_contact_3d,
    check_engel_frame,
    check_engel_pair,
    check_even_contact,
)

COMMAND_TASK_KINDS = {
    "verify": ("verify", "identities"),
    "invariant": ("invariant",),
    "construct": ("construct",),
}


def _report_witnesses(rep: VerificationReport) -> dict:
    out = dict(rep.witnesses)
    if rep.first_failure is not None:
        out["first_failure"] = rep.first_failure
    return out


def _fd_cross_check(dist: Distribution2, manifest: Manifest, fd_step: float) -> float:
    """Max |symbolic - finite-difference| bracket component over a few points."""
    pts = sample_points(dist.chart, SamplePlan(grid=2, random=6, seed=manifest.sampling.seed))
    sym = lie_bracket(dist.x, dist.y).evaluate_at(pts)
    # a huge step overflows the stencil: a non-finite oracle is a task error
    with np.errstate(all="ignore"):
        fd = require_finite(fd_lie_bracket(dist.x, dist.y, pts, fd_step), pts)
    return float(np.max(np.abs(fd - sym)))


def _verify_task(manifest: Manifest, decl: StructureDecl, fd_step: float) -> TaskRecord:
    plan = manifest.sampling
    tol = manifest.tolerances
    record = TaskRecord(task_id="", kind="verify", target=decl.name, status="error")
    obj = materialize(manifest, decl)

    if decl.kind == "contact":
        rep = check_contact_3d(obj, plan, tol)
    elif decl.kind == "even_contact":
        rep = check_even_contact(obj, plan, tol)
    elif decl.kind == "engel_pair":
        rep = check_engel_pair(obj, plan, tol)
        record.notes.extend(rep.notes)
    elif decl.kind == "contact_frame":
        rep = obj.validate(plan, tol)
    elif decl.kind in ("engel_frame", "prolongation", "extension"):
        dist = extend(obj, plan) if decl.kind == "extension" else obj
        if decl.kind == "prolongation":
            # a prolongation's characteristic must be its fiber, judged with
            # the frame where (X, Y, [X, Y]) has full rank
            rep, _, char = check_characteristic(dist, plan, tol, engel=True)
            if char is not None:
                record.witnesses.update({"characteristic_" + k: v for k, v in char.witnesses.items()})
                if not char.passed:
                    rep = char
        else:
            rep = check_engel_frame(dist, plan, tol)
        record.witnesses["fd_bracket_max_error"] = _fd_cross_check(dist, manifest, fd_step)
    elif decl.kind == "extension_family":
        record.status = "pass"
        record.witnesses["mtw_profile"] = list(extend_family(obj, plan, tol))
        return record
    else:
        raise GeometryError(f"verify cannot handle kind '{decl.kind}'")

    record.status = "pass" if rep.passed else "fail"
    record.witnesses.update(_report_witnesses(rep))
    return record


def _invariant_task(manifest: Manifest, decl: StructureDecl, task: TaskDecl) -> TaskRecord:
    plan = manifest.sampling
    tol = manifest.tolerances
    record = TaskRecord(task_id="", kind="invariant", target=decl.name, status="error")
    name = task.options["invariant"]
    obj = materialize(manifest, decl)

    if name == "twisting_number":
        if decl.kind != "prolongation":
            raise GeometryError("twisting_number targets a prolongation structure")
        frame = materialize(manifest, manifest.structures[decl.options["frame"]])
        count = int(task.options.get("base_points", "10"))
        base_pts = random_points(frame.chart, count, plan.seed)
        value = twisting_number(obj, frame, base_pts, tol)
    elif name == "minimal_twisting_number":
        if not isinstance(obj, ExtensionSpec):
            raise GeometryError("minimal_twisting_number targets an extension structure")
        dist = extend(obj, plan)
        base_plan = minimal_twisting_plan(plan.seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BoundaryConventionWarning)
            value = minimal_twisting_number(dist, obj.frame, base_plan, tol)
        for w in caught:
            record.notes.append(str(w.message))
    else:
        raise GeometryError(f"unknown invariant '{name}'")

    record.witnesses["value"] = int(value)
    record.witnesses["abs_value"] = abs(int(value))
    if "expect" in task.options:
        expected = int(task.options["expect"])
        record.witnesses["expected"] = expected
        record.status = "match" if value == expected else "mismatch"
    else:
        record.status = "computed"
    return record


def _identities_task(manifest: Manifest, decl: StructureDecl) -> TaskRecord:
    record = TaskRecord(task_id="", kind="identities", target=decl.name, status="error")
    obj = materialize(manifest, decl)
    if not isinstance(obj, ExtensionSpec):
        raise GeometryError("identities tasks target extension structures")
    rep = verify_extension_identities(obj, manifest.sampling, manifest.tolerances)
    record.status = "pass" if rep.passed else "fail"
    record.witnesses.update(_report_witnesses(rep))
    return record


def _construct_task(
    manifest: Manifest, decl: StructureDecl, task: TaskDecl, out_path: str | None
) -> TaskRecord:
    record = TaskRecord(task_id="", kind="construct", target=decl.name, status="error")
    obj = materialize(manifest, decl)
    if decl.kind == "prolongation":
        dist = obj
    elif decl.kind == "extension":
        dist = extend(obj, manifest.sampling)
    else:
        raise GeometryError("construct tasks target prolongation or extension structures")
    text = frame_to_manifest_text(dist, name=decl.name)
    destination = task.options.get("out", out_path)
    if destination is None:
        raise GeometryError("construct task needs an output path (--out)")
    Path(destination).write_text(text, encoding="utf-8")
    record.status = "done"
    record.witnesses["output_path"] = str(destination)
    record.witnesses["output_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return record


def run_tasks(
    manifest: Manifest,
    command: str = "verify",
    fd_step: float = 1e-3,
    out_path: str | None = None,
) -> RunReport:
    """Run the manifest's tasks of the kinds the command selects, in order.

    Task-level failures are recorded in the report (exit code 1); only
    I/O and parse problems escape as exceptions (exit code 2).  The
    expression intern and memo tables outlive the run, so a later run on
    the same manifest reuses its symbolic work.
    """
    started = time.perf_counter()
    records: list[TaskRecord] = []
    kinds = COMMAND_TASK_KINDS[command]
    for task in manifest.tasks:
        if task.kind not in kinds:
            continue
        decl = manifest.structures[task.options["target"]]
        try:
            if task.kind == "verify":
                record = _verify_task(manifest, decl, fd_step)
            elif task.kind == "invariant":
                record = _invariant_task(manifest, decl, task)
            elif task.kind == "identities":
                record = _identities_task(manifest, decl)
            else:
                record = _construct_task(manifest, decl, task, out_path)
        except (GeometryError, CheckError, ex.ExprError) as err:
            record = TaskRecord(
                task_id=task.task_id,
                kind=task.kind,
                target=task.options["target"],
                status="error",
                error=str(err),
            )
        record.task_id = task.task_id
        records.append(record)
    duration = int(round((time.perf_counter() - started) * 1000))
    return RunReport(
        version=__version__,
        manifest_digest=manifest.digest,
        command=command,
        seed=manifest.sampling.seed,
        tasks=records,
        duration_ms=duration,
    )
