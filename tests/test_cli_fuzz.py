"""Fuzzing the command line: no flag value and no one-line edit of a bundled
manifest may end in a traceback.  Every run gives a report (exit 0 or 1) or
an input error (exit 2)."""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from engelcalc.cli import main

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"
TEXTS = {p.stem: p.read_text(encoding="utf-8") for p in sorted(MANIFESTS.glob("*.manifest"))}

# Each flag's values: a few it accepts, then zero, negative, non-finite,
# huge and malformed ones.
COUNTS = ["2", "3", "5", "0", "-1", "1000000000000", "99999999999999999999", "nan", "inf", "x"]
SEEDS = ["0", "7", "99999999999999999999", "-1", "nan", "x"]
REALS = ["1e-3", "1e-12", "0.5", "0", "-1", "-0.0", "nan", "inf", "-inf", "1e308", "1e-320", "x"]
FLAGS = {
    "--samples-grid": COUNTS,
    "--samples-random": ["0", "10", *COUNTS],
    "--seed": SEEDS,
    "--tol-rank": REALS,
    "--tol-zero": REALS,
    "--fd-step": ["1e3", *REALS],
}
VALUES = [*COUNTS, *REALS, "", "1/0", "0/0", "10^400", "x y", "theta", "1 2 3"]


@st.composite
def flag_sets(draw):
    names = draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=2, unique=True))
    return [arg for name in names for arg in (name, draw(st.sampled_from(FLAGS[name])))]


@st.composite
def edited_texts(draw):
    """A bundled manifest with one line dropped, doubled, or given a new value."""
    lines = TEXTS[draw(st.sampled_from(sorted(TEXTS)))].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["keep", "drop", "double", "value"]))
    if edit == "drop":
        del lines[i]
    elif edit == "double":
        lines.insert(i, lines[i])
    elif edit == "value" and "=" in lines[i]:
        key = lines[i].split("=", 1)[0]
        lines[i] = f"{key}= {draw(st.sampled_from(VALUES))}"
    return "\n".join(lines) + "\n"


@given(
    st.sampled_from(["verify", "invariant", "construct"]),
    edited_texts(),
    flag_sets(),
)
@settings(max_examples=1500, deadline=None)
def test_no_flag_or_line_edit_gives_a_traceback(tmp_path_factory, command, text, flags):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "edited.manifest"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path), "--report", str(work / "report.json"), *flags]
    if command == "construct":
        argv += ["--out", str(work / "out.manifest")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


# Terms that are not finite somewhere (1/x at x = 0, 1/(y - 1/3) near y = 1/3)
# or anywhere, which simplify cancels or multiplies away.
UNDEFINED = ["1/x", "1/(y - 1/3)", "10^400", "0/0", "exp(1000)"]
# Every task of each manifest, under every command, reads the frame's V1.
FRAMED = ["prolonged-n1", "extension-n1"]


@given(
    st.sampled_from(FRAMED),
    st.integers(0, 2),
    st.sampled_from(["{c} + {u} - {u}", "{c} + 0*({u})"]),
    st.sampled_from(UNDEFINED),
    st.integers(2, 6),
)
@settings(max_examples=100, deadline=None)
def test_tasks_on_one_frame_agree_on_where_it_is_undefined(
    tmp_path_factory, stem, slot, pattern, undefined, grid
):
    """A component of V1 rewritten with a term that cancels symbolically:
    the tasks that use V1 either all give one identical error or none does."""
    components = ["1", "z", "0"]
    components[slot] = pattern.format(c=components[slot], u=undefined)
    text = TEXTS[stem].replace("field V1 = 1; z; 0", "field V1 = " + "; ".join(components))
    text = text.replace("grid = 4", f"grid = {grid}")
    work = tmp_path_factory.mktemp("frame")
    path = work / "edited.manifest"
    path.write_text(text, encoding="utf-8")
    errors = []
    for command in ("verify", "invariant", "construct"):
        report = work / "report.json"
        argv = [command, str(path), "--report", str(report)]
        if command == "construct":
            argv += ["--out", str(work / "out.manifest")]
        assert main(argv) in (0, 1)
        errors += [task.get("error") for task in json.loads(report.read_text())["tasks"]]
    assert len(errors) == 4
    assert len(set(errors)) == 1, errors
