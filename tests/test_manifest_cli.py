import contextlib
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import EXPR_TABLES, MEMOS, built, strict_json

from engelcalc import expr as ex
from engelcalc import manifest as manifest_module
from engelcalc.charts import MEMO_SIZE, KForm, VectorField
from engelcalc.cli import build_parser, main
from engelcalc.expr import ScalarExpr
from engelcalc.invariants import BoundaryConventionWarning
from engelcalc.manifest import _SOME, _STRUCTURES, Manifest, ManifestError, parse_manifest
from engelcalc.report import emit_report
from engelcalc.runner import run_tasks

REPO = Path(__file__).resolve().parents[1]
MANIFESTS = REPO / "manifests"

MINIMAL = """
[chart]
coords = x y z w
box x = -1 1
box y = -1 1
box z = -1 1
box w = -1 1

[define]
form alpha = dz - w*dx
form beta = dy - z*dx

[structure pair]
kind = engel_pair
alpha = alpha
beta = beta

[task check]
kind = verify
target = pair
"""


def _strip_duration(payload: bytes) -> bytes:
    return re.sub(rb'"duration_ms": \d+', b'"duration_ms": 0', payload)


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_manifest():
    m = parse_manifest(MINIMAL)
    assert m.chart.names == ("x", "y", "z", "w")
    assert set(m.structures) == {"pair"}
    assert [t.task_id for t in m.tasks] == ["check"]


def test_undefined_name_reports_line():
    text = MINIMAL.replace("beta = beta", "beta = V9")
    with pytest.raises(ManifestError, match="V9") as err:
        parse_manifest(text)
    offending = text.splitlines()[err.value.line - 1]
    assert offending.strip() == "beta = V9"


def test_zero_period_rejected():
    text = MINIMAL.replace("box w = -1 1", "periodic w = 0")
    with pytest.raises(ManifestError, match="positive period"):
        parse_manifest(text)


def test_dimension_mismatch_rejected():
    text = """
[chart]
coords = x y z
box x = -1 1
box y = -1 1
box z = -1 1

[define]
form alpha = dy - z*dx

[structure c]
kind = even_contact
form = alpha

[task t]
kind = verify
target = c
"""
    with pytest.raises(ManifestError, match="4-dimensional"):
        parse_manifest(text)


def test_unknown_reference_in_task():
    text = MINIMAL.replace("target = pair", "target = nonsense")
    with pytest.raises(ManifestError, match="nonsense"):
        parse_manifest(text)


@pytest.mark.parametrize(
    "mutation,message",
    [
        (("box w = -1 1", "box w = 1 -1"), "hi > lo"),
        (("box w = -1 1", "box w = -1 q"), "bad constant"),
        (("[define]", "[sampling]\ngrid = abc\n\n[define]"), "integer"),
        (("[define]", "[tolerances]\nrank = soft\n\n[define]"), "number"),
        (("kind = verify", "kind = verify\nexpect = maybe"), "integer"),
        (("dz - w*dx", "dz - 1e400*dx"), "'1e400' is not finite"),
        (("[define]", "[sampling]\nseed = -3\n\n[define]"), "line 10: seed must be >= 0"),
        (("alpha = alpha", "alpha = alpha\nalpha = beta"), "line 16: repeated key 'alpha'"),
        (("target = pair", "target = pair\ntarget = pair"), "line 21: repeated key 'target'"),
        (("[define]", "[sampling]\nrandom = 8\nrandom = 9\n\n[define]"),
         "line 11: repeated key 'random'"),
        (("box w = -1 1", "box w = -1 1\nperiodic w = 1"),
         "line 8: second box/periodic entry for 'w'"),
        (("[define]", "[chart]\ncoords = x y z w\n\n[define]"),
         r"line 9: duplicate \[chart\] section"),
        (("[define]", "[sampling]\ngrid = 3\n\n[sampling]\nseed = 1\n\n[define]"),
         r"line 12: duplicate \[sampling\] section"),
        (("[define]", "[tolerances]\nrank = 1e-7\n\n[tolerances]\nzero = 1e-9\n\n[define]"),
         r"line 12: duplicate \[tolerances\] section"),
        (("[task check]", "[structure pair]\nkind = engel_pair\n\n[task check]"),
         "line 18: duplicate structure 'pair'"),
        (("target = pair", "target = pair\n\n[task check]\nkind = verify\ntarget = pair"),
         "line 22: duplicate task 'check'"),
        (("[define]", "[sampling]\ngrid = 4 4\n\n[define]"),
         "line 10: grid has 2 resolutions, but the chart has 4"),
        (("[define]", "[sampling]\ngrid = 4 4 4 4 4\n\n[define]"),
         "line 10: grid has 5 resolutions, but the chart has 4"),
        (("box w = -1 1", "periodic w = 1e308"),
         r"line 7: period of 'w' is too large: period \* 524288 overflows"),
    ],
)
def test_hostile_inputs_are_manifest_errors(mutation, message):
    old, new = mutation
    with pytest.raises(ManifestError, match=message):
        parse_manifest(MINIMAL.replace(old, new))


@pytest.mark.parametrize(
    "text",
    ["-1", "0", "-0", "007", "1.5", "-0.1", "2.5E+3", "1e-400", "1e308", "-1.7976931348623157e308",
     "1e400", "-1e400", "nan", "inf", "-inf", "pi/2", "2*pi", "--1", "+1", "1.", ".5", "1_0"],
)
def test_box_bounds_read_plain_numbers_as_the_parser_does(text):
    try:
        expected = ex.evaluate(ex.parse_scalar_expr(text, ()), {})
    except ex.ExprError as err:
        message = f"line 7: bad constant expression {text!r}: {err}"
        with pytest.raises(ManifestError, match=re.escape(message)):
            manifest_module._const_value(text, 7)
    else:
        assert manifest_module._const_value(text, 7).hex() == expected.hex()


def test_a_parse_is_shared_and_read_only():
    m = parse_manifest(MINIMAL)
    assert parse_manifest(MINIMAL) is m
    mappings = {
        "alpha": m.definitions,
        "pair": m.structures,
        "beta": m.structures["pair"].options,
        "target": m.tasks[0].options,
    }
    for key, mapping in mappings.items():
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
    assert parse_manifest(MINIMAL).structures["pair"].options["beta"] == "beta"


def test_a_bad_text_fails_on_every_parse():
    bad = MINIMAL.replace("target = pair", "target = nothing")
    for _ in range(2):
        with pytest.raises(ManifestError, match="undefined structure 'nothing'"):
            parse_manifest(bad)
    assert parse_manifest.cache_info().currsize == 0


def test_cli_never_tracebacks_on_bad_values(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_text(MINIMAL.replace("box w = -1 1", "box w = 1 -1"))
    assert main(["verify", str(path)]) == 2


def test_repeated_key_is_an_input_error(tmp_path, capsys):
    """A second value for a key is an error, not a silent override."""
    text = (MANIFESTS / "prolonged-n1.manifest").read_text(encoding="utf-8")
    path = tmp_path / "twice.manifest"
    path.write_text(text.replace("n = 1\n", "n = 1\nn = 4\n"), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert "line 27: repeated key 'n'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "invariant"])
def test_a_box_whose_width_overflows_is_an_input_error(tmp_path, capsys, command):
    """No frame of prolonged-n1 reads x, so samples with an infinite step
    along x would pass every task."""
    text = (MANIFESTS / "prolonged-n1.manifest").read_text(encoding="utf-8")
    path = tmp_path / "wide.manifest"
    path.write_text(text.replace("box x = -1 1\n", "box x = -1e308 1e308\n"), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert "line 5: box of 'x' is too wide: hi - lo overflows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,section,message",
    [
        (["--samples-grid", "1"], "", "grid resolutions must be >= 2"),
        (["--samples-random", "-1"], "", "random count must be >= 0"),
        (["--tol-rank", "-1"], "", "'rank' must be finite and > 0"),
        (["--tol-rank", "nan"], "", "'rank' must be finite and > 0"),
        (["--tol-rank", "1"], "", "'rank' must be < 1"),
        (["--tol-zero", "inf"], "", "'zero' must be finite and > 0"),
        ([], "[tolerances]\nrank = -1\n\n", r"line \d+: tolerance 'rank' must be"),
        (["--fd-step=nan"], "", "--fd-step must be finite and > 0, got nan"),
        (["--fd-step=inf"], "", "--fd-step must be finite and > 0, got inf"),
        (["--fd-step=0"], "", "--fd-step must be finite and > 0, got 0.0"),
        (["--fd-step=-1"], "", r"--fd-step must be finite and > 0, got -1\.0"),
        (["--seed", "-1"], "", "seed must be >= 0"),
    ],
)
def test_bad_flags_and_tolerances_are_input_errors(tmp_path, capsys, flags, section, message):
    path = tmp_path / "bad.manifest"
    path.write_text(MINIMAL.replace("[define]", section + "[define]"))
    assert main(["verify", str(path), *flags]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("frame = frame", "frame = nosuch", "undefined structure 'nosuch'"),
        ("frame = frame", "frame = prolonged", "undefined structure 'prolonged'"),
        ("n = 1", "n = 1 2", "'n' must be one integer"),
        ("base_points = 10", "base_points = -3", "base_points must be >= 1, got -3"),
        ("base_points = 10", "base_points = 0", "base_points must be >= 1, got 0"),
        ("base_points = 10", "base_points = 257", "base_points must be <= 256, got 257"),
        ("v1 = V1", "v1 = V1\norientation = negative", "unknown structure entry 'orientation'"),
        ("base_points = 10", "base_points = 10\nsection = banana", "unknown task entry 'section'"),
        ("n = 1", "n = 1\nv0 = V0", "unknown structure entry 'v0' for kind 'prolongation'"),
        ("v1 = V1", "v1 = V1\nn = 2", "unknown structure entry 'n' for kind 'contact_frame'"),
        ("target = frame", "target = frame\nexpect = 1", "unknown task entry 'expect' for kind 'verify'"),
        (
            "target = frame",
            "target = frame\ninvariant = twisting_number",
            "unknown task entry 'invariant' for kind 'verify'",
        ),
        (
            "kind = construct",
            "kind = construct\nbase_points = 10",
            "unknown task entry 'base_points' for kind 'construct'",
        ),
        (
            "invariant = twisting_number\nexpect = 1\nbase_points = 10",
            "invariant = minimal_twisting_number\nexpect = 1\nbase_points = 10",
            "base_points applies only to the twisting_number invariant",
        ),
        (
            "kind = construct\ntarget = prolonged",
            "kind = construct\ntarget = frame",
            "construct task targets prolongation or extension structures,"
            " 'frame' is a contact_frame",
        ),
        (
            "kind = verify\ntarget = prolonged",
            "kind = identities\ntarget = prolonged",
            "identities task targets extension structures, 'prolonged' is a prolongation",
        ),
        (
            "kind = invariant\ntarget = prolonged",
            "kind = invariant\ntarget = frame",
            "twisting_number targets prolongation structures, 'frame' is a contact_frame",
        ),
        (
            "target = prolonged\ninvariant = twisting_number\nexpect = 1\nbase_points = 10",
            "invariant = minimal_twisting_number\nexpect = 1\ntarget = prolonged",
            "minimal_twisting_number targets extension structures, 'prolonged' is a prolongation",
        ),
        (
            "invariant = twisting_number\nexpect = 1\nbase_points = 10",
            "expect = 1\ninvariant = twisting",
            "unknown invariant 'twisting'",
        ),
    ],
)
def test_bad_references_and_options_are_manifest_errors(tmp_path, capsys, old, new, message):
    text = (MANIFESTS / "prolonged-n1.manifest").read_text(encoding="utf-8")
    assert text.count(old + "\n") == 1
    text = text.replace(old + "\n", new + "\n")
    with pytest.raises(ManifestError, match=message) as err:
        parse_manifest(text)
    assert text.splitlines()[err.value.line - 1] == new.splitlines()[-1]
    path = tmp_path / "bad.manifest"
    path.write_text(text)
    for command in ("verify", "invariant"):
        assert main([command, str(path)]) == 2
        assert f"line {err.value.line}: {message}" in capsys.readouterr().err


# One structure of every kind, named by its kind, on the chart it needs.
EVERY_KIND_3 = """
[chart]
coords = x y z
box x = -1 1
box y = -1 1
box z = -1 1

[define]
field V0 = 0; 0; 1
field V1 = 1; z; 0
form alpha = dy - z*dx
expr g = pi/2

[structure contact]
kind = contact
form = alpha

[structure contact_frame]
kind = contact_frame
v0 = V0
v1 = V1

[structure prolongation]
kind = prolongation
frame = contact_frame
n = 1

[structure extension]
kind = extension
frame = contact_frame
g = g
n = 1

[structure extension_family]
kind = extension_family
frame = contact_frame
g = g
n = 1
"""

EVERY_KIND_4 = MINIMAL.replace("[structure pair]", "[structure engel_pair]").replace(
    "[task check]\nkind = verify\ntarget = pair\n", """
[define]
field X = 0; 0; 0; 1
field Y = 1; z; w; 0

[structure even_contact]
kind = even_contact
form = beta

[structure engel_frame]
kind = engel_frame
fields = X Y
""")

# The structure kinds each task may target, as the paper fixes them.
TARGETS = {
    ("verify", None): set(_STRUCTURES),
    ("invariant", "twisting_number"): {"prolongation"},
    ("invariant", "minimal_twisting_number"): {"extension"},
    ("identities", None): {"extension"},
    ("construct", None): {"prolongation", "extension"},
}


@pytest.mark.parametrize("task", TARGETS, ids=lambda t: t[1] or t[0])
@pytest.mark.parametrize("kind", sorted(_STRUCTURES))
def test_a_task_on_a_structure_it_cannot_target_is_an_input_error(tmp_path, capsys, task, kind):
    task_kind, invariant = task
    base = EVERY_KIND_3 if _STRUCTURES[kind].dim == 3 else EVERY_KIND_4
    assert f"[structure {kind}]" in base
    text = base + f"\n[task t]\nkind = {task_kind}\n"
    text += f"invariant = {invariant}\n" if invariant else ""
    text += f"target = {kind}\n"
    if kind in TARGETS[task]:
        assert [t.kind for t in parse_manifest(text).tasks] == [task_kind]
        return
    with pytest.raises(ManifestError, match=f"'{kind}' is a {kind}") as err:
        parse_manifest(text)
    assert err.value.line == len(text.splitlines())
    path = tmp_path / "m.manifest"
    path.write_text(text)
    command = "verify" if task_kind == "identities" else task_kind
    built = ["--out", str(tmp_path / "built.manifest")] if command == "construct" else []
    assert main([command, str(path), *built]) == 2
    assert f"line {err.value.line}: " in capsys.readouterr().err


F1_EXTENSION = """
[chart]
coords = x y z
box x = -1 1
box y = -1 1
box z = -1 1

[sampling]
grid = 3
random = 20
seed = 0

[define]
field V0 = 0; 0; 1
field V1 = 1; z; 0
expr fa = cos(x/4 + 1)
expr fb = sin(x/4 + 1)

[structure frame]
kind = contact_frame
v0 = V0
v1 = V1

[structure ext]
kind = extension
frame = frame
f1 = fa fb
n = 1

[task verify_ext]
kind = verify
target = ext

[task mtw]
kind = invariant
target = ext
invariant = minimal_twisting_number
expect = 1
"""


def test_extension_from_a_coefficient_pair(tmp_path):
    """``f1 = fa fb`` reaches the angle function: g = x/4 + 1 lies in (0, pi]."""
    path = tmp_path / "f1.manifest"
    path.write_text(F1_EXTENSION)
    reports = {}
    for command in ("verify", "invariant"):
        out = tmp_path / f"{command}.json"
        assert main([command, str(path), "--report", str(out)]) == 0
        (task,) = json.loads(out.read_text())["tasks"]
        reports[task["id"]] = task["status"]
    assert reports == {"verify_ext": "pass", "mtw": "match"}


def _run_f1(tmp_path, pair: str) -> dict:
    fa, fb = pair.split()
    text = F1_EXTENSION.replace("cos(x/4 + 1)", fa).replace("sin(x/4 + 1)", fb)
    path = tmp_path / "f1.manifest"
    path.write_text(text)
    tasks = {}
    for command in ("verify", "invariant"):
        out = tmp_path / f"{command}.json"
        main([command, str(path), "--report", str(out)])
        tasks.update((t["id"], t) for t in json.loads(out.read_text())["tasks"])
    return tasks


@pytest.mark.parametrize("pair", ["cos(x) sin(x)", "cos(x+4) sin(x+4)", "1 -1"])
def test_extension_from_any_closed_form_pair(tmp_path, pair):
    # the phase need not be sampled finely, nor the pair be a quarter turn
    tasks = _run_f1(tmp_path, pair)
    assert {k: t["status"] for k, t in tasks.items()} == {"verify_ext": "pass", "mtw": "match"}
    assert tasks["mtw"]["witnesses"]["value"] == 1


@pytest.mark.parametrize(
    "pair,as_matched",
    [
        ("cos(x+1) sin(1+x)", "cos(x+1) sin(x+1)"),
        ("cos(2*x) sin(x*2)", "cos(2*x) sin(2*x)"),
        ("2 1/2", "2 0.5"),
    ],
)
def test_extension_from_a_pair_that_is_closed_form_once_simplified(tmp_path, pair, as_matched):
    # the operands, or the constants, are compared in simplified form, and
    # the tasks report what the pair written in matching form reports; the
    # angle x + 1 is shifted by pi to min g = pi, so the verify and the
    # identities task of each pair warn
    on_pi = pair.startswith("cos(x+1)")
    expected = pytest.warns(BoundaryConventionWarning) if on_pi else contextlib.nullcontext()
    with expected as caught:
        tasks = _run_f1(tmp_path, pair)
        assert tasks["verify_ext"]["status"] == "pass"
        assert tasks["mtw"]["status"] != "error"
        assert tasks == _run_f1(tmp_path, as_matched)
    if on_pi:
        message = "normalized angle function attains pi at its minimum"
        assert [str(w.message) for w in caught] == 4 * [message]


def test_extension_from_a_pair_without_closed_form_is_a_task_error(tmp_path):
    tasks = _run_f1(tmp_path, "x 1")
    assert {k: t["status"] for k, t in tasks.items()} == {"verify_ext": "error", "mtw": "error"}
    assert all("no closed-form angle" in t["error"] for t in tasks.values())


def test_an_f1_pair_undefined_at_a_sample_is_a_task_error(tmp_path):
    # as written the pair is nan at x = 0, though simplified it is the constant pair 1 0
    tasks = _run_f1(tmp_path, "1+0*(1/x) 0")
    assert {k: t.get("error") for k, t in tasks.items()} == dict.fromkeys(
        ["verify_ext", "mtw"], "non-finite value at sample point [0.0, -1.0, -1.0]"
    )


def test_the_members_of_an_f1_pair_are_checked_in_turn(tmp_path):
    # the first member is nan at x = 1 and the second at x = -1, an earlier
    # row: the error names the first member's point, as for a frame's fields
    tasks = _run_f1(tmp_path, "1+0*(1/(x-1)) 0*(1/(x+1))")
    assert {k: t.get("error") for k, t in tasks.items()} == dict.fromkeys(
        ["verify_ext", "mtw"], "non-finite value at sample point [1.0, -1.0, -1.0]"
    )


TWO_SLICE_FAMILY = """
[chart]
coords = x y z
box x = -1 1
box y = -1 1
box z = -1 1

[sampling]
grid = 3
random = 20
seed = 4

[define]
field V0 = 0; 0; 1
field V1 = 1; z; 0
expr g0 = pi/2 + sin(x)/4
expr g1 = pi/3

[structure frame]
kind = contact_frame
v0 = V0
v1 = V1

[structure fam]
kind = extension_family
frame = frame
g = g0 g1
n = 1 2

[structure s0]
kind = extension
frame = frame
g = g0
n = 1

[structure s1]
kind = extension
frame = frame
g = g1
n = 2

[task family]
kind = verify
target = fam

[task mtw0]
kind = invariant
target = s0
invariant = minimal_twisting_number

[task mtw1]
kind = invariant
target = s1
invariant = minimal_twisting_number
"""


def test_family_profile_and_invariant_tasks_share_one_base_plan(monkeypatch):
    """``mtw_profile`` of a two-slice family equals the minimal twisting
    number tasks on the same slices, and both sample the same base points."""
    from engelcalc import extension, invariants, runner
    from engelcalc.charts import SamplePlan

    plans = []
    original = invariants.minimal_twisting_number

    def recording(d, frame, plan, tol):
        plans.append(plan)
        return original(d, frame, plan, tol)

    # extend_family and the runner each bind the function at load time
    monkeypatch.setattr(invariants, "minimal_twisting_number", recording)
    monkeypatch.setattr(extension, "minimal_twisting_number", recording)
    monkeypatch.setattr(runner, "minimal_twisting_number", recording)
    manifest = parse_manifest(TWO_SLICE_FAMILY)
    (family,) = run_tasks(manifest, "verify").tasks
    values = [task.witnesses["value"] for task in run_tasks(manifest, "invariant").tasks]
    assert family.status == "pass"
    assert family.witnesses["mtw_profile"] == values == [1, 2]
    assert plans == [SamplePlan(grid=3, random=8, seed=4)] * 4


@pytest.mark.parametrize(
    "source,base,fiber",
    [("prolonged-n1", "theta", "theta_"), ("extension-n1", "t", "t_")],
)
def test_fiber_name_steps_past_a_base_coordinate(tmp_path, source, base, fiber):
    """A base coordinate with the fiber's default name pushes the fiber to
    the next free name, for both constructions."""
    text = (MANIFESTS / f"{source}.manifest").read_text(encoding="utf-8")
    manifest = parse_manifest(re.sub(r"\bz\b", base, text))
    assert manifest.chart.names == ("x", "y", base)
    assert {task.status for task in run_tasks(manifest, "verify").tasks} == {"pass"}
    assert {task.status for task in run_tasks(manifest, "invariant").tasks} == {"match"}
    out = tmp_path / "constructed.manifest"
    (build,) = run_tasks(manifest, "construct", out_path=str(out)).tasks
    assert build.status == "done"
    constructed = parse_manifest(out.read_text(encoding="utf-8"))
    assert constructed.chart.names == ("x", "y", base, fiber)
    assert constructed.chart.fiber == fiber
    assert {task.status for task in run_tasks(constructed, "verify").tasks} == {"pass"}


def test_frame_reference_must_be_a_contact_frame():
    text = (MANIFESTS / "prolonged-n1.manifest").read_text(encoding="utf-8")
    text = text.replace("[task verify_frame]", "[structure again]\nkind = prolongation\n"
                        "frame = prolonged\nn = 2\n\n[task verify_frame]")
    with pytest.raises(ManifestError, match="'prolonged' is a prolongation, expected"):
        parse_manifest(text)


# placeholder of each reference type in the module docstring's format
_PLACEHOLDERS = {KForm: "FORM", VectorField: "FIELD", ScalarExpr: "EXPR", int: "INT"}


def _placeholder(ref, count) -> str:
    word = _PLACEHOLDERS.get(ref) or ref.upper()
    return f"{word} {word} ..." if count == _SOME else " ".join([word] * count)


def test_manifest_docstring_lists_every_kind_and_entry():
    doc = manifest_module.__doc__
    block = doc[doc.index("[structure NAME]") : doc.index("[task ID]")]
    # "kind = a | b  # entries": kinds on one line share the entries after them
    parts = re.split(r"(?:kind =|\|) (\w+)", block)[1:]
    documented, pending = {}, []
    for kind, stretch in zip(parts[::2], parts[1::2]):
        pending.append(kind)
        if stretch.strip():
            entries = re.findall(r"(\w+) = ([A-Z_]+(?: [A-Z_]+)*(?: \.\.\.)?)", stretch)
            documented.update({k: dict(entries) for k in pending})
            pending = []
    assert documented == {
        kind: {key: _placeholder(ref, count) for key, (ref, count) in spec.entries.items()}
        for kind, spec in _STRUCTURES.items()
    }


def _declaration(kind: str, key: str) -> tuple[str, int]:
    """A manifest text declaring a structure of this kind with this entry,
    and the line number of that entry."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(MANIFESTS.glob("*.manifest"))]
    for text in texts + [F1_EXTENSION, TWO_SLICE_FAMILY]:
        for decl in parse_manifest(text).structures.values():
            if decl.kind == kind and key in decl.options:
                lines = text.splitlines()
                for lineno in range(decl.line + 1, len(lines) + 1):
                    if lines[lineno - 1].split("=")[0].strip() == key:
                        return text, lineno
    raise AssertionError(f"no test manifest declares a {kind} with '{key}'")


@pytest.mark.parametrize(
    "kind,key",
    [
        (kind, key)
        for kind, spec in _STRUCTURES.items()
        for key, (_, count) in spec.entries.items()
        if count != _SOME
    ],
)
def test_one_extra_name_in_a_fixed_count_entry_is_a_manifest_error(tmp_path, capsys, kind, key):
    ref, count = _STRUCTURES[kind].entries[key]
    text, lineno = _declaration(kind, key)
    lines = text.splitlines()
    value = lines[lineno - 1].split("=", 1)[1].strip()
    value = f"{value} {value.split()[0]}"
    lines[lineno - 1] = f"{key} = {value}"
    text = "\n".join(lines) + "\n"
    noun = ("integer" if ref is int else "name") + ("s" if count > 1 else "")
    message = f"line {lineno}: '{key}' must be {'one' if count == 1 else 'two'} {noun}, got {value!r}"
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert str(err.value) == message
    path = tmp_path / "bad.manifest"
    path.write_text(text)
    for command in ("verify", "invariant"):
        assert main([command, str(path)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixture,old,new,message",
    [
        ("extension-n1", "g = g_half", "", "line 25: extension 'ext' needs exactly one of 'g' or 'f1'"),
        (
            "extension-n1",
            "g = g_half",
            "g = g_half\nf1 = g_half g_half",
            "line 25: extension 'ext' needs exactly one of 'g' or 'f1'",
        ),
        ("neg-family-jump", "n = 0 2 3", "n = 0 2", "line 25: 'g' and 'n' lists must have equal length"),
        ("neg-family-jump", "n = 0 2 3", "n =", "line 29: 'n' must be one or more integers, got ''"),
        ("neg-family-jump", "n = 0 2 3", "n = 0 2 x", "line 29: 'n' must be integers, got 'x'"),
    ],
)
def test_cross_entry_rules_are_manifest_errors(tmp_path, capsys, fixture, old, new, message):
    text = (MANIFESTS / f"{fixture}.manifest").read_text(encoding="utf-8")
    assert text.count(old + "\n") == 1
    path = tmp_path / "bad.manifest"
    path.write_text(text.replace(old + "\n", new + "\n"))
    for command in ("verify", "invariant"):
        assert main([command, str(path)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixture,edits,value",
    [
        # past the covering index the old 512 and 256 fiber steps resolved
        ("prolonged-n3", {"n = 3": "n = 257", "expect = 3": "expect = 257"}, 257),
        ("prolonged-n3", {"n = 3": "n = 1000", "expect = 3": "expect = 1000"}, 1000),
        ("extension-n2", {"n = 2": "n = 128", "expect = 2": "expect = 128"}, 128),
        # min g 0.5, but 600.5 at x = 1: 256 steps of 2.37 there used to
        # read as small turns back, "negative rotation -1.975e+02"
        ("extension-n2", {"expr g_half = pi/2": "expr g_half = 0.5 + 600*((x+1)/2)^200"}, 2),
        # 256 base points at n = 200 used to exceed the refinement budget,
        # "development refinement exceeded the resolution budget"
        (
            "prolonged-n3",
            {"n = 3": "n = 200", "expect = 3": "expect = 200", "base_points = 10": "base_points = 256"},
            200,
        ),
    ],
)
def test_any_covering_index_and_any_turn_per_base_point_read_exactly(
    tmp_path, fixture, edits, value
):
    """The development integrates the line's turning rate and takes nothing
    mod pi, so no covering index and no fast turn at one base point aliases."""
    text = (MANIFESTS / f"{fixture}.manifest").read_text(encoding="utf-8")
    for old, new in edits.items():
        assert text.count(old + "\n") == 1
        text = text.replace(old + "\n", new + "\n")
    path = tmp_path / "edited.manifest"
    path.write_text(text)
    report = tmp_path / "report.json"
    assert main(["invariant", str(path), "--report", str(report)]) == 0
    tasks = strict_json(report.read_text())["tasks"]
    assert [(t["status"], t["witnesses"]["value"]) for t in tasks] == [("match", value)]


@pytest.mark.parametrize(
    "n,code,found",
    [
        ("0 1 128", 1, "twist count jumps from 1 to 128 between s=1.0 and s=2.0"),
        ("126 127 128", 0, [126, 127, 128]),
    ],
)
def test_a_family_twist_count_is_not_bounded(tmp_path, n, code, found):
    # neg-family-jump fails verify (exit 1) on its jump, however large its
    # twist counts; without one, every slice's minimal twisting number reads
    text = (MANIFESTS / "neg-family-jump.manifest").read_text(encoding="utf-8")
    path = tmp_path / "family.manifest"
    path.write_text(text.replace("n = 0 2 3\n", f"n = {n}\n"))
    report = tmp_path / "report.json"
    assert main(["verify", str(path), "--report", str(report)]) == code
    (task,) = strict_json(report.read_text())["tasks"]
    assert (task["error"] if code else task["witnesses"]["mtw_profile"]) == found


ENGEL_FRAME_1_OVER_X = """
[chart]
coords = x y z w
box x = -1 1
box y = -1 1
box z = -1 1
box w = -1 1

[define]
field E1 = 1; 0; 0; 1/x
field E2 = 0; 1; x; 0

[structure f]
kind = engel_frame
fields = E1 E2

[task check]
kind = verify
target = f
"""


@pytest.mark.parametrize(
    "text,first_error",
    [
        (ENGEL_FRAME_1_OVER_X, "non-finite value at sample point [0.0, -1.0, -1.0, -1.0]"),
        (
            (MANIFESTS / "t3-contact-k.manifest")
            .read_text(encoding="utf-8")
            .replace("field V1 = 0; 0; 1", "field V1 = 1e200*1e200; z; 0"),
            "non-finite value at sample point [0.0, 0.0, 0.0]",
        ),
        (
            # simplify leaves 10^400 unfolded rather than raising OverflowError
            (MANIFESTS / "prolonged-n1.manifest")
            .read_text(encoding="utf-8")
            .replace("field V1 = 1; z; 0", "field V1 = 1; z + 10^400*0; 0"),
            "non-finite value at sample point [-1.0, -1.0, -1.0]",
        ),
    ],
    ids=["engel-frame-1/x", "contact-frame-1e200*1e200", "contact-frame-10^400*0"],
)
def test_non_finite_samples_are_task_errors(tmp_path, text, first_error):
    path = tmp_path / "m.manifest"
    path.write_text(text)
    out = tmp_path / "r.json"
    flags = ["--samples-grid", "5", "--samples-random", "0", "--report", str(out)]
    assert main(["verify", str(path), *flags]) == 1
    errors = [t["error"] for t in json.loads(out.read_text())["tasks"] if t["status"] == "error"]
    assert errors[0] == first_error


def test_non_finite_fd_oracle_is_a_task_error(tmp_path):
    # the step overflows the stencil; the oracle's values are not finite
    out = tmp_path / "r.json"
    flags = ["--fd-step", "1e308", "--report", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", str(MANIFESTS / "standard-engel-r4.manifest"), *flags]) == 1
    tasks = strict_json(out.read_text())["tasks"]
    assert [(t["id"], t["status"], t.get("error")) for t in tasks] == [
        ("pair", "pass", None),
        ("even_contact", "pass", None),
        ("frame", "error", "non-finite value at sample point [-1.0, -1.0, -1.0, -1.0]"),
    ]


def test_zero_over_zero_field_is_an_error_in_every_task(tmp_path):
    # simplify must not fold 0/0*z to 0: the prolongation is built from
    # simplified components and must meet the same nan as the parsed frame
    text = (MANIFESTS / "prolonged-n1.manifest").read_text(encoding="utf-8")
    path = tmp_path / "m.manifest"
    path.write_text(text.replace("field V1 = 1; z; 0", "field V1 = 1; 0/0*z; 0"))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--report", str(out)]) == 1
    tasks = json.loads(out.read_text())["tasks"]
    assert [(t["id"], t["status"]) for t in tasks] == [
        ("verify_frame", "error"),
        ("verify_prolonged", "error"),
    ]
    assert all(t["error"].startswith("non-finite value at sample point") for t in tasks)


@pytest.mark.parametrize("component", ["z + 10^400*0", "(0/0)*0"])
def test_zero_times_a_non_finite_constant_is_an_error_in_every_task(tmp_path, component):
    # simplify must not fold u*0 to 0 where u is a non-finite constant
    text = (MANIFESTS / "prolonged-n1.manifest").read_text(encoding="utf-8")
    path = tmp_path / "m.manifest"
    path.write_text(text.replace("field V1 = 1; z; 0", f"field V1 = 1; {component}; 0"))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--report", str(out)]) == 1
    tasks = json.loads(out.read_text())["tasks"]
    assert [(t["id"], t["status"]) for t in tasks] == [
        ("verify_frame", "error"),
        ("verify_prolonged", "error"),
    ]
    assert all(t["error"].startswith("non-finite value at sample point") for t in tasks)


@pytest.mark.parametrize(
    "component, grid, point",
    [("z + 10^400 - 10^400", 4, [-1.0, -1.0, -1.0]), ("z + 1/x - 1/x", 3, [0.0, -1.0, -1.0])],
    ids=["10^400-10^400", "1/x-1/x"],
)
def test_a_frame_undefined_at_a_sample_is_one_error_in_every_task(tmp_path, component, grid, point):
    # simplify cancels u - u, so the prolongation's fields are defined
    # everywhere; the frame as written is not, and every task says so
    text = (MANIFESTS / "prolonged-n1.manifest").read_text(encoding="utf-8")
    text = text.replace("field V1 = 1; z; 0", f"field V1 = 1; {component}; 0")
    path = tmp_path / "m.manifest"
    path.write_text(text.replace("grid = 4", f"grid = {grid}"))
    out = tmp_path / "r.json"
    errors = {}
    for command in ("verify", "invariant", "construct"):
        built = ["--out", str(tmp_path / "built.manifest")] if command == "construct" else []
        assert main([command, str(path), "--report", str(out), *built]) == 1
        errors.update((t["id"], t["error"]) for t in json.loads(out.read_text())["tasks"])
    error = f"non-finite value at sample point {point}"
    assert errors == dict.fromkeys(["verify_frame", "verify_prolonged", "tw", "build"], error)
    assert not (tmp_path / "built.manifest").exists()


def test_a_form_undefined_at_a_sample_is_a_task_error(tmp_path):
    # the coefficient of dz simplifies to 0, but the form as written is nan at x = 0
    text = (MANIFESTS / "standard-contact-r3.manifest").read_text(encoding="utf-8")
    text = text.replace("form alpha = dy - z*dx", "form alpha = dy - z*dx + (1/x - 1/x)*dz")
    path = tmp_path / "m.manifest"
    path.write_text(text.replace("grid = 6", "grid = 3"))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--report", str(out)]) == 1
    tasks = json.loads(out.read_text())["tasks"]
    assert [(t["id"], t["status"], t.get("error")) for t in tasks] == [
        ("contact", "error", "non-finite value at sample point [0.0, -1.0, -1.0]"),
        ("frame", "pass", None),
    ]


@pytest.mark.parametrize(
    "fixture, grid, message",
    [
        ("standard-contact-r3", "4 4", "line 10: grid has 2 resolutions, but the chart has 3"),
        ("prolonged-n1", "4 4 5", "line 10: grid has 3 resolutions, but structure 'prolonged' has a fiber"),
        ("extension-n1", "4 4 5", "line 11: grid has 3 resolutions, but structure 'ext' has a fiber"),
        ("neg-family-jump", "3 3 3", "line 11: grid has 3 resolutions, but structure 'fam' has a fiber"),
    ],
)
def test_a_grid_of_resolutions_that_cannot_cover_the_samples_is_an_input_error(
    tmp_path, capsys, fixture, grid, message
):
    text = (MANIFESTS / f"{fixture}.manifest").read_text(encoding="utf-8")
    path = tmp_path / "m.manifest"
    path.write_text(re.sub(r"(?m)^grid = \d+$", f"grid = {grid}", text))
    for command in ("verify", "invariant", "construct"):
        built = ["--out", str(tmp_path / "built.manifest")] if command == "construct" else []
        assert main([command, str(path), "--report", str(tmp_path / "r.json"), *built]) == 2
        assert capsys.readouterr().err == f"engelcalc: {path}: {message}\n"


@pytest.mark.parametrize(
    "v1, grid, frame_failure, rank_step1_max, prolonged_index",
    [
        # V1 = 2*d/dz is parallel to V0: (X, Y, [X, Y]) has rank 2 everywhere
        ("0; 0; 2", 4, ([-1.0, -1.0, -1.0], 0, 1, 1), 2, 0),
        # V1 = x (d/dx + z d/dy) vanishes on x = 0 only, which grid 3 samples:
        # the frame has rank 3 elsewhere, but its characteristic is not
        # judged, and the annihilator's self-check (whose beta vanishes
        # there too) does not turn the failure into an error
        ("x; x*z; 0", 3, ([0.0, -1.0, -1.0], 9, 1, 1), 3, 27),
    ],
    ids=["parallel", "partly-deficient"],
)
def test_degenerate_prolongation_fails_like_the_engel_frame(
    tmp_path, v1, grid, frame_failure, rank_step1_max, prolonged_index
):
    text = (MANIFESTS / "prolonged-n1.manifest").read_text(encoding="utf-8")
    text = text.replace("field V1 = 1; z; 0", f"field V1 = {v1}").replace("grid = 4", f"grid = {grid}")
    path = tmp_path / "m.manifest"
    path.write_text(text)
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--report", str(out)]) == 1
    frame, prolonged = json.loads(out.read_text())["tasks"]
    # both first failures carry their sample row, and ranks print as ints
    point, index, plane, bracket = frame_failure
    assert frame["witnesses"]["first_failure"] == {
        "point": point,
        "sample_index": index,
        "rank_plane": plane,
        "rank_with_bracket": bracket,
    }
    assert (prolonged["id"], prolonged["status"]) == ("verify_prolonged", "fail")
    witnesses = prolonged["witnesses"]
    assert witnesses["rank_step1_max"] == rank_step1_max
    assert witnesses["first_failure"]["sample_index"] == prolonged_index
    assert witnesses["first_failure"]["point"] == [*point, 0.0]
    assert type(witnesses["first_failure"]["rank_step1"]) is int
    assert not any(key.startswith("characteristic_") for key in witnesses)


# ---------------------------------------------------------------------------
# runner


_BUNDLED_COORD = re.compile(r"\b(d?)([xyzw])\b")


def test_run_tasks_keeps_the_tables_under_their_cap():
    # every run renames the coordinates, so no tree repeats across runs and
    # the tables fill with nodes no later run asks for
    texts = {p.stem: p.read_text() for p in sorted(MANIFESTS.glob("*.manifest"))}
    statuses = {
        name: [t.status for t in run_tasks(parse_manifest(text), command="verify").tasks]
        for name, text in texts.items()
    }
    names = sorted(texts)
    for i in range(200):
        name = names[i % len(names)]
        fresh = _BUNDLED_COORD.sub(rf"\1\2_{i}", texts[name])
        report = run_tasks(parse_manifest(fresh), command="verify")
        assert [t.status for t in report.tasks] == statuses[name]
    assert (ex.Variable, "x_0") not in ex._interned  # the intern table wrapped
    assert all(len(table) <= ex._TABLE_CAP for table in EXPR_TABLES)
    cache = ex.compile_program.cache_info()
    assert cache.maxsize == ex._PROGRAM_CAP
    assert cache.currsize <= ex._PROGRAM_CAP
    assert all(memo.cache_info().currsize <= MEMO_SIZE for memo in MEMOS)


def test_no_task_evaluates_an_expression_twice_at_the_same_points(tmp_path, monkeypatch):
    """Each check evaluates everything it judges in one block, so on a warm
    pass of the fixture mix no non-constant expression is evaluated twice at
    the same points within one task, keyed by the expression's identity (the
    nodes are interned) and the points' bytes.  Across tasks, the verify and
    identities tasks of an extension each take the sampled minimum of its
    angle function, which is not memoized because it may warn.  And a
    frame's fields are read as written by an earlier task (the contact frame
    check) and checked again by a later one: every task on a prolongation or
    extension checks that the fields it turns into new ones are finite at
    the samples, so that all of them report the same error where they are
    not."""
    from engelcalc import runner

    seen_in_task, seen_in_request = set(), set()
    within, across = [], set()
    evaluate_many = ex.evaluate_many

    def recording(exprs, var_order, points, out=None):
        rows = points.tobytes()
        for e in {id(e): e for e in (exprs if isinstance(exprs, tuple) else (exprs,))}.values():
            if isinstance(e, ex.Constant):
                continue
            key = (id(e), rows)
            if key in seen_in_task:
                within.append(ex.to_text(e))
            elif key in seen_in_request:
                across.add((*current, ex.to_text(e)))
            seen_in_task.add(key)
            seen_in_request.add(key)
        return evaluate_many(exprs, var_order, points, out=out)

    for name in ("_verify_task", "_invariant_task", "_identities_task", "_construct_task"):
        def starting_a_task(*args, _task=getattr(runner, name)):
            seen_in_task.clear()
            return _task(*args)
        monkeypatch.setattr(runner, name, starting_a_task)

    manifests = {p.stem: parse_manifest(p.read_text()) for p in sorted(MANIFESTS.glob("*.manifest"))}
    out = str(tmp_path / "out.manifest")
    requests = [(stem, command) for stem in manifests for command in ("verify", "invariant", "construct")]
    for recorded in (False, True):  # the first pass warms the tables and memos
        if recorded:
            monkeypatch.setattr(ex, "evaluate_many", recording)
        for current in requests:
            seen_in_request.clear()
            run_tasks(manifests[current[0]], command=current[1], out_path=out)
    assert within == []
    assert across == {(f"extension-n{n}", "verify", "pi/2") for n in range(4)} | {
        (f"prolonged-n{n}", "verify", "z") for n in range(1, 6)
    }


def test_each_declaration_is_checked_at_most_once_per_request(tmp_path, monkeypatch):
    """A request materializes each structure once, in the first task that
    reads it, so the domain check of a declaration evaluates at most once;
    a contact frame that a prolongation resolves has nothing to evaluate."""
    from engelcalc import runner

    names, checked, evaluations = [], [], []
    materialize, check_defined, evaluate_many = (
        manifest_module.materialize, manifest_module._check_defined, ex.evaluate_many
    )

    def materializing(manifest, decl, build):
        names.append(decl.name)
        try:
            return materialize(manifest, decl, build)
        finally:
            names.pop()

    def checking(manifest, args):
        before = len(evaluations)
        check_defined(manifest, args)
        if len(evaluations) > before:
            checked.append((current, names[-1]))

    def evaluating(*args, **kwargs):
        evaluations.append(None)
        return evaluate_many(*args, **kwargs)

    monkeypatch.setattr(manifest_module, "materialize", materializing)
    monkeypatch.setattr(runner, "materialize", materializing)
    monkeypatch.setattr(manifest_module, "_check_defined", checking)
    monkeypatch.setattr(ex, "evaluate_many", evaluating)
    out = str(tmp_path / "out.manifest")
    for path in sorted(MANIFESTS.glob("*.manifest")):
        for command in ("verify", "invariant", "construct"):
            current = (path.stem, command)
            run_tasks(parse_manifest(path.read_text()), command=command, out_path=out)
    repeated = [key for key in checked if checked.count(key) > 1]
    assert checked and repeated == []


def test_a_prolongation_takes_its_frame_from_the_runs_table(monkeypatch):
    from engelcalc import runner

    names, materialize = [], manifest_module.materialize

    def materializing(manifest, decl, *build):
        names.append(decl.name)
        return materialize(manifest, decl, *build)

    monkeypatch.setattr(manifest_module, "materialize", materializing)
    monkeypatch.setattr(runner, "materialize", materializing)
    run_tasks(parse_manifest((MANIFESTS / "prolonged-n1.manifest").read_text()), command="invariant")
    assert names == ["prolonged", "frame"]


def test_the_domain_check_is_one_engine_call_per_declaration(monkeypatch):
    """Each form as written, or V0, V1 and then each f1 member, are the
    "finite" conditions of one engine call; a frame of fields has none."""
    checks, check_defined, judge = [], manifest_module._check_defined, manifest_module._judge

    def checking(manifest, args):
        checks.append([])
        check_defined(manifest, args)

    def judging(chart, plan, tol, *conditions):
        checks[-1].append([c.witness for c in conditions if c.predicate == "finite"])
        return judge(chart, plan, tol, *conditions)

    monkeypatch.setattr(manifest_module, "_check_defined", checking)
    monkeypatch.setattr(manifest_module, "_judge", judging)
    texts = [path.read_text() for path in sorted(MANIFESTS.glob("*.manifest"))]
    for m in map(parse_manifest, [*texts, F1_EXTENSION]):
        for decl in m.structures.values():
            opts, read = decl.options, m.definitions.get
            if "frame" in opts:
                frame = built(m, opts["frame"])
                items = [frame.v0, frame.v1, *map(read, opts.get("f1", "").split())]
            else:
                items = [read(opts[k]).written for k in ("form", "alpha", "beta") if k in opts]
            checks.clear()
            built(m, decl.name)
            assert checks[-1] == ([items] if items else [])


def test_cli_parser_is_built_once():
    assert build_parser() is build_parser()


def test_run_tasks_standard_pair_passes():
    report = run_tasks(parse_manifest(MINIMAL), command="verify")
    assert report.exit_code == 0
    assert report.tasks[0].status == "pass"
    assert report.tasks[0].witnesses["condition1_min_over_max"] >= 0.5


def test_invariant_expectation_match_and_mismatch():
    good = parse_manifest((MANIFESTS / "prolonged-n3.manifest").read_text())
    report = run_tasks(good, command="invariant")
    assert report.exit_code == 0
    assert report.tasks[0].status == "match"
    assert report.tasks[0].witnesses["value"] == 3

    bad_text = (MANIFESTS / "prolonged-n3.manifest").read_text().replace(
        "expect = 3", "expect = 2"
    )
    report = run_tasks(parse_manifest(bad_text), command="invariant")
    assert report.exit_code == 1
    assert report.tasks[0].status == "mismatch"


def test_empty_task_selection_gives_empty_report():
    # MINIMAL has no invariant tasks, so that command runs nothing
    report = run_tasks(parse_manifest(MINIMAL), command="invariant")
    assert report.tasks == []
    assert report.exit_code == 0


def test_report_formats():
    report = run_tasks(parse_manifest(MINIMAL), command="verify")
    payload = emit_report(report, "json")
    parsed = json.loads(payload)
    assert list(parsed) == [
        "version",
        "manifest_digest",
        "command",
        "seed",
        "tasks",
        "exit_code",
        "duration_ms",
    ]
    text = emit_report(report, "text").decode()
    assert "PASS" in text and "check" in text


def test_report_deterministic_modulo_duration():
    m = parse_manifest(MINIMAL)
    a = emit_report(run_tasks(m, command="verify"), "json")
    b = emit_report(run_tasks(m, command="verify"), "json")
    assert _strip_duration(a) == _strip_duration(b)


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_passes(tmp_path, capsys):
    path = tmp_path / "m.manifest"
    path.write_text(MINIMAL)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["exit_code"] == 0


def test_cli_missing_file_is_input_error(tmp_path):
    assert main(["verify", str(tmp_path / "missing.manifest")]) == 2


def test_cli_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.manifest"
    path.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
    assert main(["verify", str(path)]) == 2
    assert f"engelcalc: cannot read {path}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_cli_construct_into_a_missing_directory_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "built.manifest"
    manifest = str(MANIFESTS / "prolonged-n1.manifest")
    assert main(["construct", manifest, "--out", str(out), "--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("engelcalc: cannot write: [Errno 2] No such file or directory")
    assert str(out) in err
    assert not (tmp_path / "r.json").exists()


def test_cli_parse_error_is_input_error(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_text("[chart]\ncoords = x y\n")
    assert main(["verify", str(path)]) == 2


def test_cli_negative_fixtures_fail():
    for name in ("neg-integrable", "neg-swapped-pair", "neg-family-jump"):
        code = main(["verify", str(MANIFESTS / f"{name}.manifest"), "--report", "/dev/null"])
        assert code == 1, name


# Address-space cap of the CLI runs below: a plan that slipped past the
# sample-row budget would fail to allocate here rather than fill the machine.
_CLI_ADDRESS_SPACE = 1 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CLI_ADDRESS_SPACE, _CLI_ADDRESS_SPACE))


@pytest.mark.parametrize(
    "fixture, flags, errors",
    [
        (
            "prolonged-n2",
            ["--samples-grid", "100000"],
            {"verify_prolonged": "SamplePlan(grid=100000, random=60, seed=0) needs"
             " 10000000060 sample rows, more than the 524288 a sample set may hold"},
        ),
        (
            "standard-contact-r3",
            ["--samples-random", "10000000000"],
            dict.fromkeys(
                ("contact", "frame"),
                "SamplePlan(grid=6, random=10000000000, seed=0) needs 10000000006"
                " sample rows, more than the 524288 a sample set may hold",
            ),
        ),
        (
            # the even-contact form reads one coordinate: 60200 rows fit, but
            # the full sample's 60000^4 + 200 rows cannot be numbered
            "standard-engel-r4",
            ["--samples-grid", "60000"],
            {
                "pair": "SamplePlan(grid=60000, random=200, seed=0) needs 3600000200"
                " sample rows, more than the 524288 a sample set may hold",
                "even_contact": "SamplePlan(grid=60000, random=200, seed=0) has"
                " 12960000000000000200 sample rows on a 4-chart, too many to number",
                "frame": "SamplePlan(grid=60000, random=200, seed=0) needs 3600000200"
                " sample rows, more than the 524288 a sample set may hold",
            },
        ),
    ],
    ids=["grid", "random", "row-numbers"],
)
def test_an_oversized_plan_is_a_task_error(tmp_path, fixture, flags, errors):
    report = tmp_path / "r.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["verify", str(MANIFESTS / f"{fixture}.manifest"), "--report", str(report), *flags]
    run = subprocess.run(
        [sys.executable, "-c", f"import sys; from engelcalc.cli import main; sys.exit(main({argv!r}))"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_address_space,
    )
    assert (run.returncode, run.stderr) == (1, "")
    tasks = strict_json(report.read_text())["tasks"]
    assert {t["id"]: t["error"] for t in tasks if t["status"] == "error"} == errors


def test_the_zero_tolerance_flag_governs_an_identities_task(tmp_path):
    text = (MANIFESTS / "extension-n1.manifest").read_text(encoding="utf-8")
    path = tmp_path / "sine.manifest"
    path.write_text(text.replace("expr g_half = pi/2\n", "expr g_half = pi/2 + sin(x)/4\n"))
    status = {}
    for flags in ([], ["--tol-zero", "10"]):
        out = tmp_path / "report.json"
        main(["verify", str(path), "--report", str(out), *flags])
        tasks = json.loads(out.read_text())["tasks"]
        status[tuple(flags)] = next(t["status"] for t in tasks if t["id"] == "identities")
    assert status == {(): "fail", ("--tol-zero", "10"): "pass"}


def test_manifest_overrides():
    from engelcalc.charts import SamplePlan

    m = parse_manifest(MINIMAL)
    m2 = m.with_overrides(grid=3, random=7, seed=9, tol_rank=1e-5, tol_zero=1e-7)
    assert m2.sampling == SamplePlan(grid=3, random=7, seed=9)
    assert m2.tolerances.rank == 1e-5
    assert m2.tolerances.zero == 1e-7
    # untouched fields keep their defaults
    assert m2.tolerances.never_vanishing == m.tolerances.never_vanishing


def test_cli_fd_step_changes_oracle_witness(tmp_path):
    # trig-twisted fields have quadratic fd truncation, so the recorded
    # oracle disagreement must grow with the step
    path = MANIFESTS / "prolonged-n3.manifest"
    outs = {}
    for step in ("1e-3", "1e-2"):
        out = tmp_path / f"fd-{step}.json"
        assert main(["verify", str(path), "--fd-step", step, "--report", str(out)]) == 0
        data = json.loads(out.read_text())
        task = next(t for t in data["tasks"] if t["id"] == "verify_prolonged")
        outs[step] = task["witnesses"]["fd_bracket_max_error"]
    assert outs["1e-2"] > 10 * outs["1e-3"]
    assert outs["1e-3"] < 1e-5


def test_cli_flag_overrides(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text(MINIMAL)
    out = tmp_path / "report.json"
    assert (
        main(
            [
                "verify",
                str(path),
                "--samples-grid",
                "3",
                "--samples-random",
                "10",
                "--seed",
                "5",
                "--report",
                str(out),
            ]
        )
        == 0
    )
    data = json.loads(out.read_text())
    assert data["seed"] == 5


def test_report_witnesses_reproducible():
    """Numeric witnesses in the report equal a direct library call's output."""
    from engelcalc.charts import SamplePlan, parse_one_form
    from engelcalc.structures import EngelPair, check_engel_pair

    m = parse_manifest(MINIMAL)
    report = run_tasks(m, command="verify")
    pair = EngelPair(m.definitions["alpha"], m.definitions["beta"])
    direct = check_engel_pair(pair, m.sampling, m.tolerances)
    for key in (
        "condition1_min_over_max",
        "condition1_max_abs",
        "condition2_max_abs",
        "condition3_min_over_max",
    ):
        assert report.tasks[0].witnesses[key] == direct.witnesses[key]


def test_cli_construct_output_reparses(tmp_path):
    out = tmp_path / "constructed.manifest"
    code = main(
        [
            "construct",
            str(MANIFESTS / "prolonged-n2.manifest"),
            "--out",
            str(out),
            "--report",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    rebuilt = parse_manifest(out.read_text())
    report = run_tasks(rebuilt, command="verify")
    assert report.exit_code == 0
    assert report.tasks[0].status == "pass"


CONSTRUCTED = [f"prolonged-n{n}" for n in range(1, 6)] + [f"extension-n{n}" for n in range(4)]


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructed_frame_reads_back_equal(name):
    """A plane field is its chart and its two fields: the frame each
    constructing fixture writes materializes again to an equal frame with
    its hash, so both share one memoized characteristic check."""
    from engelcalc.extension import extend
    from engelcalc.invariants import CHARACTERISTIC_PLAN
    from engelcalc.manifest import frame_to_manifest_text
    from engelcalc.prolongation import fiber_characteristic_annihilator

    m = parse_manifest((MANIFESTS / f"{name}.manifest").read_text(encoding="utf-8"))
    (decl,) = (s for s in m.structures.values() if s.kind in ("prolongation", "extension"))
    obj = built(m, decl.name)
    d = obj if decl.kind == "prolongation" else extend(obj, m.sampling)
    rebuilt = parse_manifest(frame_to_manifest_text(d, name=decl.name))
    again = built(rebuilt, decl.name)
    assert again is not d
    assert again == d and hash(again) == hash(d)
    beta = fiber_characteristic_annihilator(d, CHARACTERISTIC_PLAN)
    assert fiber_characteristic_annihilator(again, CHARACTERISTIC_PLAN) is beta
