"""Manifest files: declarative structure definitions and task lists.

The format is line-oriented with bracketed section headers; every key the
parser accepts is listed here::

    [chart]
    coords = x y z w
    box x = -1 1            # constant expressions; pi is allowed
    periodic theta = 2*pi   # sampled over [0, period)
    fiber = theta           # optional

    [sampling]              # optional; defaults grid 4, random 32, seed 0
    grid = 5                # or one per coordinate, 5 5 5 9, if no structure has a fiber
    random = 200
    seed = 0

    [tolerances]            # optional overrides
    rank = 1e-7             # also never_vanishing, zero, projection,
                            # nonzero_norm

    [define]
    expr g = pi/2
    field V0 = 0; 0; 1      # one component per coordinate
    form alpha = dy - z*dx

    [structure NAME]
    kind = contact | even_contact   # form = FORM
         | engel_pair               # alpha = FORM, beta = FORM
         | engel_frame              # fields = FIELD FIELD
         | contact_frame            # v0 = FIELD, v1 = FIELD
         | prolongation             # frame = CONTACT_FRAME, n = INT
         | extension                # frame = CONTACT_FRAME, n = INT, and
                                    #   g = EXPR or f1 = EXPR EXPR
         | extension_family         # frame = CONTACT_FRAME,
                                    #   g = EXPR EXPR ..., n = INT INT ...
                                    #   (lists of equal length)

    [task ID]
    kind = verify | invariant | identities | construct
    target = NAME
    invariant = twisting_number | minimal_twisting_number   # invariant only
    expect = 3              # invariant only; optional expected value
    base_points = 10        # twisting_number only; 1..256, default 10
    out = PATH              # construct only; overrides --out

FORM, FIELD and EXPR name [define] entries of that type, CONTACT_FRAME
names a structure of kind contact_frame, and INT is an integer.  A
structure or task accepts only the keys its kind uses, each at most once,
and a manifest holds at most one [chart], [sampling] and [tolerances] section
and one section per structure name and task id.  Every referenced name must
be defined before use; validation errors carry the offending line number.

A verify task may target a structure of any kind, an identities task an
extension, a construct task a prolongation or an extension, and an
invariant task the kind its invariant is defined for: twisting_number a
prolongation (an S^1 fibre), minimal_twisting_number an extension (an
interval fibre).  Any other target is a validation error at its line.
Both invariants integrate the line's exact turning rate along the fibre,
which no covering index aliases, so n is not bounded.

Every definition must be finite, as written, at every sample of the
effective plan: ``materialize`` checks what no task evaluates as written (a
form's text with each d<coord> = 1, an ``f1`` pair, a fibred structure's
frame), so every task that uses it meets one error.

An extension's ``f1 = a b`` names the target line a*V0 + b*V1.  Its tasks
accept a pair whose angle has a closed form: a and b are cos(u) and sin(u)
of one expression u, or two number literals, not both 0.  Any other pair
makes them errors that ask for g.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from . import expr as ex
from .charts import (
    MAX_SAMPLE_ROWS,
    MEMO_SIZE,
    Chart,
    CoordinateAxis,
    GeometryError,
    KForm,
    SamplePlan,
    VectorField,
    parse_one_form,
    vector_field,
)
from .expr import ScalarExpr
from .extension import ExtensionSpec
from .prolongation import ContactFrame, prolong
from .structures import Condition, Distribution2, EngelPair, Tolerances, _judge


class ManifestError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class StructureDecl:
    name: str
    kind: str
    options: Mapping[str, str]
    line: int


@dataclass(frozen=True)
class TaskDecl:
    task_id: str
    kind: str
    options: Mapping[str, str]
    line: int


@dataclass(frozen=True)
class Manifest:
    chart: Chart
    definitions: Mapping[str, object]
    structures: Mapping[str, StructureDecl]
    tasks: tuple[TaskDecl, ...]
    sampling: SamplePlan
    tolerances: Tolerances
    digest: str

    def with_overrides(
        self,
        grid: int | None = None,
        random: int | None = None,
        seed: int | None = None,
        tol_rank: float | None = None,
        tol_zero: float | None = None,
    ) -> "Manifest":
        plan = self.sampling
        plan = SamplePlan(
            grid=grid if grid is not None else plan.grid,
            random=random if random is not None else plan.random,
            seed=seed if seed is not None else plan.seed,
        )
        tol = self.tolerances
        if tol_rank is not None:
            tol = replace(tol, rank=tol_rank)
        if tol_zero is not None:
            tol = replace(tol, zero=tol_zero)
        return replace(self, sampling=plan, tolerances=tol)


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


# A finite decimal literal, optionally negated, as most box bounds are,
# reads as the parser would read it; anything else, an overflowing literal
# included, takes the parser and its errors.
_DECIMAL = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _const_value(text: str, line: int) -> float:
    if _DECIMAL.fullmatch(text):
        value = float(text)
        if math.isfinite(value):
            return value
    try:
        return ex.evaluate(ex.parse_scalar_expr(text, ()), {})
    except ex.ExprError as err:
        raise ManifestError(f"bad constant expression {text!r}: {err}", line) from err


# Sections a manifest holds at most once, and sections whose label (a
# structure name or task id) it holds at most once.
_SINGLE_SECTIONS = ("chart", "sampling", "tolerances")
_NAMED_SECTIONS = ("structure", "task")


@lru_cache(maxsize=MEMO_SIZE)
def parse_manifest(text: str) -> Manifest:
    """Parse and validate; raises :class:`ManifestError` at the first defect.

    The last ``MEMO_SIZE`` parses are remembered for the process, keyed by
    the text, and every caller of one text shares its :class:`Manifest`.
    Its mappings are read-only.  A text that fails is parsed again, and
    fails again, on every call.
    """
    sections: list[tuple[str, str, int, list[tuple[str, str, int]]]] = []
    current = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ManifestError("unterminated section header", lineno)
            inner = line[1:-1].strip()
            parts = inner.split(None, 1)
            kind = parts[0]
            label = parts[1].strip() if len(parts) > 1 else ""
            if kind in _SINGLE_SECTIONS or (kind in _NAMED_SECTIONS and label):
                once = f"{kind} '{label}'" if kind in _NAMED_SECTIONS else f"[{kind}] section"
                if once in seen:
                    raise ManifestError(f"duplicate {once}", lineno)
                seen.add(once)
            current = (kind, label, lineno, [])
            sections.append(current)
            keys = set()
            continue
        if current is None:
            raise ManifestError("entry outside any section", lineno)
        if "=" not in line:
            raise ManifestError(f"expected 'key = value', got {line!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in keys:
            raise ManifestError(f"repeated key '{key}'", lineno)
        keys.add(key)
        current[3].append((key, value.strip(), lineno))

    chart = None
    sampling = SamplePlan(grid=4, random=32, seed=0)
    tolerances = Tolerances()
    definitions: dict[str, object] = {}
    structures: dict[str, StructureDecl] = {}
    tasks: list[TaskDecl] = []

    for kind, label, header_line, entries in sections:
        if kind == "chart":
            chart = _parse_chart(entries, header_line)
        elif kind == "sampling":
            sampling = _parse_sampling(entries, sampling)
        elif kind == "tolerances":
            tolerances = _parse_tolerances(entries, tolerances)
        elif kind == "define":
            if chart is None:
                raise ManifestError("[define] requires a preceding [chart]", header_line)
            _parse_definitions(chart, entries, definitions)
        elif kind == "structure":
            if chart is None:
                raise ManifestError(
                    "[structure] requires a preceding [chart]", header_line
                )
            if not label:
                raise ManifestError("structure sections need a name", header_line)
            decl = _parse_structure(
                chart, label, entries, definitions, structures, header_line
            )
            structures[label] = decl
        elif kind == "task":
            if not label:
                raise ManifestError("task sections need an id", header_line)
            tasks.append(_parse_task(label, entries, structures, header_line))
        else:
            raise ManifestError(f"unknown section kind '{kind}'", header_line)

    if chart is None:
        raise ManifestError("manifest has no [chart] section", 1)
    fibred = [decl.name for decl in structures.values() if "frame" in decl.options]
    if isinstance(sampling.grid, tuple) and (len(sampling.grid) != chart.dim or fibred):
        line = next(n for kind, _, _, entries in sections if kind == "sampling"
                    for key, _, n in entries if key == "grid")
        where = f"structure '{fibred[0]}' has a fiber" if fibred else f"the chart has {chart.dim}"
        raise ManifestError(f"grid has {len(sampling.grid)} resolutions, but {where}", line)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Manifest(
        chart=chart,
        definitions=MappingProxyType(definitions),
        structures=MappingProxyType(structures),
        tasks=tuple(tasks),
        sampling=sampling,
        tolerances=tolerances,
        digest=digest,
    )


def _parse_chart(entries, header_line) -> Chart:
    coords: list[str] = []
    axes_spec: dict[str, tuple[float, float, bool]] = {}
    fiber = None
    for key, value, lineno in entries:
        words = key.split()
        if len(words) == 2 and words[1] in axes_spec:
            raise ManifestError(f"second box/periodic entry for '{words[1]}'", lineno)
        if key == "coords":
            coords = value.split()
        elif words[0] == "box" and len(words) == 2:
            bounds = value.split()
            if len(bounds) != 2:
                raise ManifestError("box needs 'lo hi'", lineno)
            lo = _const_value(bounds[0], lineno)
            hi = _const_value(bounds[1], lineno)
            if not math.isfinite(hi - lo):
                raise ManifestError(f"box of '{words[1]}' is too wide: hi - lo overflows", lineno)
            axes_spec[words[1]] = (lo, hi, False)
        elif words[0] == "periodic" and len(words) == 2:
            period = _const_value(value, lineno)
            if period <= 0:
                raise ManifestError(f"periodic coordinate '{words[1]}' needs a positive period", lineno)
            if not math.isfinite(period * MAX_SAMPLE_ROWS):  # no sample set holds a finer grid
                raise ManifestError(
                    f"period of '{words[1]}' is too large: period * {MAX_SAMPLE_ROWS} overflows", lineno
                )
            axes_spec[words[1]] = (0.0, period, True)
        elif key == "fiber":
            fiber = value
        else:
            raise ManifestError(f"unknown chart entry '{key}'", lineno)
    if not coords:
        raise ManifestError("chart section has no 'coords' entry", header_line)
    axes = []
    for name in coords:
        if name not in axes_spec:
            raise ManifestError(
                f"coordinate '{name}' has no box/periodic entry", header_line
            )
        lo, hi, periodic = axes_spec[name]
        try:
            axes.append(CoordinateAxis(name, lo, hi, periodic))
        except GeometryError as err:
            raise ManifestError(str(err), header_line) from err
    extra = set(axes_spec) - set(coords)
    if extra:
        raise ManifestError(
            f"box/periodic entries for unknown coordinates {sorted(extra)}",
            header_line,
        )
    try:
        return Chart(tuple(axes), fiber=fiber)
    except GeometryError as err:
        raise ManifestError(str(err), header_line) from err


def _parse_int(value: str, what: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ManifestError(f"{what} must be an integer, got {value!r}", lineno) from None


def _parse_sampling(entries, plan: SamplePlan) -> SamplePlan:
    for key, value, lineno in entries:
        if key == "grid":
            parts = [_parse_int(p, "grid", lineno) for p in value.split()]
            if not parts:
                raise ManifestError("grid needs at least one resolution", lineno)
            parsed = parts[0] if len(parts) == 1 else tuple(parts)
        elif key in ("random", "seed"):
            parsed = _parse_int(value, key, lineno)
        else:
            raise ManifestError(f"unknown sampling entry '{key}'", lineno)
        try:
            plan = replace(plan, **{key: parsed})
        except GeometryError as err:
            raise ManifestError(str(err), lineno) from None
    return plan


def _parse_tolerances(entries, base: Tolerances) -> Tolerances:
    tol = base
    allowed = set(base.as_dict())
    for key, value, lineno in entries:
        if key not in allowed:
            raise ManifestError(f"unknown tolerance '{key}'", lineno)
        try:
            number = float(value)
        except ValueError:
            raise ManifestError(
                f"tolerance '{key}' must be a number, got {value!r}", lineno
            ) from None
        try:
            tol = replace(tol, **{key: number})
        except GeometryError as err:
            raise ManifestError(str(err), lineno) from None
    return tol


def _parse_definitions(chart: Chart, entries, definitions: dict) -> None:
    for key, value, lineno in entries:
        words = key.split()
        if len(words) != 2 or words[0] not in ("expr", "field", "form"):
            raise ManifestError(
                f"define entries look like 'expr|field|form NAME = ...', got '{key}'",
                lineno,
            )
        what, name = words
        if name in definitions:
            raise ManifestError(f"duplicate definition '{name}'", lineno)
        try:
            if what == "expr":
                definitions[name] = chart.parse(value)
            elif what == "field":
                comps = [c.strip() for c in value.split(";")]
                definitions[name] = vector_field(chart, comps)
            else:
                definitions[name] = parse_one_form(chart, value)
        except (ex.ExprError, GeometryError) as err:
            raise ManifestError(str(err), lineno) from err


# Largest twisting_number base_points: at 256 base points the development
# still compares its rules of 256 and 512 intervals (256 x 513 rows) within
# its row budget (prolongation.MAX_PROFILE_POINTS).
MAX_BASE_POINTS = 256

# The count of an entry that takes one or more names.
_SOME = 0
_COUNT_WORDS = {1: "one", 2: "two", _SOME: "one or more"}


class _Kind(NamedTuple):
    """Chart dimension of a structure kind and, per entry, what its names
    refer to (a definition type, the kind of a structure, or int) and how
    many it takes (1, 2 or ``_SOME``).  Every entry is required except those
    in ``one_of``, of which exactly one is given; the ``_SOME`` lists of one
    structure have equal length."""

    dim: int
    entries: dict[str, tuple[type | str, int]]
    one_of: tuple[str, ...] = ()


_FRAME = ("contact_frame", 1)

_STRUCTURES = {
    "contact": _Kind(3, {"form": (KForm, 1)}),
    "even_contact": _Kind(4, {"form": (KForm, 1)}),
    "engel_pair": _Kind(4, {"alpha": (KForm, 1), "beta": (KForm, 1)}),
    "engel_frame": _Kind(4, {"fields": (VectorField, 2)}),
    "contact_frame": _Kind(3, {"v0": (VectorField, 1), "v1": (VectorField, 1)}),
    "prolongation": _Kind(3, {"frame": _FRAME, "n": (int, 1)}),
    "extension": _Kind(
        3,
        {"frame": _FRAME, "n": (int, 1), "g": (ScalarExpr, 1), "f1": (ScalarExpr, 2)},
        one_of=("g", "f1"),
    ),
    "extension_family": _Kind(
        3, {"frame": _FRAME, "g": (ScalarExpr, _SOME), "n": (int, _SOME)}
    ),
}


def _check_name(key: str, name: str, ref, definitions: dict, structures: dict, lineno: int):
    if ref is int:
        try:
            int(name)
        except ValueError:
            raise ManifestError(f"'{key}' must be integers, got {name!r}", lineno) from None
    elif isinstance(ref, str):
        if name not in structures:
            raise ManifestError(f"undefined structure '{name}'", lineno)
        if structures[name].kind != ref:
            raise ManifestError(
                f"'{name}' is a {structures[name].kind}, expected {ref}", lineno
            )
    elif name not in definitions:
        raise ManifestError(f"undefined name '{name}'", lineno)
    elif not isinstance(definitions[name], ref):
        raise ManifestError(
            f"'{name}' is a {type(definitions[name]).__name__}, expected {ref.__name__}",
            lineno,
        )


def _parse_structure(
    chart: Chart,
    name: str,
    entries,
    definitions: dict,
    structures: dict,
    header_line: int,
) -> StructureDecl:
    options = {}
    kind = None
    for key, value, lineno in entries:
        if key == "kind":
            kind = value
            if kind not in _STRUCTURES:
                raise ManifestError(f"unknown structure kind '{kind}'", lineno)
        else:
            options[key] = (value, lineno)
    if kind is None:
        raise ManifestError(f"structure '{name}' has no kind", header_line)
    spec = _STRUCTURES[kind]
    missing = set(spec.entries) - set(spec.one_of) - set(options)
    if missing:
        raise ManifestError(
            f"structure '{name}' ({kind}) is missing {sorted(missing)}", header_line
        )
    if chart.dim != spec.dim:
        raise ManifestError(
            f"structure kind '{kind}' needs a {spec.dim}-dimensional"
            f" chart, this manifest's chart has dimension {chart.dim}",
            header_line,
        )

    # validate references and value shapes now so errors carry line numbers
    for key, (value, lineno) in options.items():
        if key not in spec.entries:
            raise ManifestError(f"unknown structure entry '{key}' for kind '{kind}'", lineno)
        ref, count = spec.entries[key]
        names = value.split()
        if not names or (count != _SOME and len(names) != count):
            noun = ("integer" if ref is int else "name") + ("" if count == 1 else "s")
            raise ManifestError(
                f"'{key}' must be {_COUNT_WORDS[count]} {noun}, got {value!r}", lineno
            )
        for part in names:
            _check_name(key, part, ref, definitions, structures, lineno)
    if spec.one_of and sum(key in options for key in spec.one_of) != 1:
        either = " or ".join(f"'{key}'" for key in spec.one_of)
        raise ManifestError(f"{kind} '{name}' needs exactly one of {either}", header_line)
    lists = [key for key, (_, count) in spec.entries.items() if count == _SOME]
    if len({len(options[key][0].split()) for key in lists}) > 1:
        raise ManifestError(
            " and ".join(f"'{key}'" for key in lists) + " lists must have equal length",
            header_line,
        )
    flat = {k: v for k, (v, _) in options.items()}
    return StructureDecl(
        name=name, kind=kind, options=MappingProxyType(flat), line=header_line
    )


# Per task kind: the entries it accepts, and the structure kinds it may target
# by the invariant it names (None for other kinds); base_points needs twisting_number.
_TASKS = {
    "verify": ({"target"}, {None: tuple(_STRUCTURES)}),
    "invariant": (
        {"target", "invariant", "expect", "base_points"},
        {"twisting_number": ("prolongation",), "minimal_twisting_number": ("extension",)},
    ),
    "identities": ({"target"}, {None: ("extension",)}),
    "construct": ({"target", "out"}, {None: ("prolongation", "extension")}),
}


def _parse_task(label: str, entries, structures: dict, header_line: int) -> TaskDecl:
    options = {}
    lines = {}
    kind = None
    for key, value, lineno in entries:
        if key == "kind":
            kind = value
            if kind not in _TASKS:
                raise ManifestError(f"unknown task kind '{kind}'", lineno)
            continue
        if key == "target":
            if value not in structures:
                raise ManifestError(f"undefined structure '{value}'", lineno)
        elif key in ("expect", "base_points"):
            number = _parse_int(value, key, lineno)
            if key == "base_points" and number < 1:
                raise ManifestError(f"base_points must be >= 1, got {number}", lineno)
            if key == "base_points" and number > MAX_BASE_POINTS:
                raise ManifestError(
                    f"base_points must be <= {MAX_BASE_POINTS}, got {number}", lineno
                )
        elif key not in ("invariant", "out"):
            raise ManifestError(f"unknown task entry '{key}'", lineno)
        options[key] = value
        lines[key] = lineno
    if kind is None:
        raise ManifestError(f"task '{label}' has no kind", header_line)
    accepted, targets = _TASKS[kind]
    for key, lineno in lines.items():
        if key not in accepted:
            raise ManifestError(f"unknown task entry '{key}' for kind '{kind}'", lineno)
    if "base_points" in options and options.get("invariant") != "twisting_number":
        raise ManifestError(
            "base_points applies only to the twisting_number invariant", lines["base_points"]
        )
    if "target" not in options:
        raise ManifestError(f"task '{label}' has no target", header_line)
    if kind == "invariant" and "invariant" not in options:
        raise ManifestError(f"invariant task '{label}' names no invariant", header_line)
    invariant = options.get("invariant")
    if invariant not in targets:
        raise ManifestError(f"unknown invariant '{invariant}'", lines["invariant"])
    target = structures[options["target"]]
    if target.kind not in targets[invariant]:
        raise ManifestError(
            f"{invariant or kind + ' task'} targets {' or '.join(targets[invariant])} structures,"
            f" '{target.name}' is a {target.kind}",
            lines["target"],
        )
    return TaskDecl(
        task_id=label, kind=kind, options=MappingProxyType(options), line=header_line
    )


# ---------------------------------------------------------------------------
# materialization


def _resolve(manifest: Manifest, decl: StructureDecl, key: str, build: Callable):
    """What the names of one entry refer to: one object for an entry that
    takes one name, else a tuple of them."""
    ref, count = _STRUCTURES[decl.kind].entries[key]
    names = decl.options[key].split()
    if ref is int:
        values = [int(n) for n in names]
    elif isinstance(ref, str):
        values = [build(n) for n in names]
    else:
        values = [manifest.definitions[n] for n in names]
    return values[0] if count == 1 else tuple(values)


def _check_defined(manifest: Manifest, args: dict) -> None:
    """What a declaration reads and no task evaluates as written (see the
    module docstring) is finite at the samples: one engine call, each item
    checked in turn, V0 before V1 as a frame check does, then each f1 member."""
    items = [form.written for form in args.values() if isinstance(form, KForm)]
    if "frame" in args:  # a prolongation, extension or family
        items = [args["frame"].v0, args["frame"].v1, *args.get("f1", ())]
    if items:
        finite = (Condition(item, "finite") for item in items)
        _judge(manifest.chart, manifest.sampling, manifest.tolerances, *finite)


def materialize(manifest: Manifest, decl: StructureDecl, build: Callable):
    """Build the runtime object for a structure declaration; ``build`` maps
    the name of each structure it refers to to that structure, built."""
    args = {key: _resolve(manifest, decl, key, build) for key in decl.options}
    _check_defined(manifest, args)
    if decl.kind in ("contact", "even_contact"):
        return args["form"]
    if decl.kind == "engel_pair":
        return EngelPair(args["alpha"], args["beta"])
    if decl.kind == "engel_frame":
        return Distribution2(manifest.chart, *args["fields"])
    if decl.kind == "contact_frame":
        return ContactFrame(manifest.chart, args["v0"], args["v1"])
    if decl.kind == "prolongation":
        return prolong(args["frame"], args["n"])
    if decl.kind == "extension":
        return ExtensionSpec(**args)  # frame, n, and g or f1
    return [ExtensionSpec(args["frame"], n, g=g) for g, n in zip(args["g"], args["n"])]  # a family


# ---------------------------------------------------------------------------
# serialization of constructed structures


def _axis_to_text(axis: CoordinateAxis) -> str:
    if axis.periodic:
        return f"periodic {axis.name} = {axis.period!r}"
    return f"box {axis.name} = {axis.lo!r} {axis.hi!r}"


def frame_to_manifest_text(dist: Distribution2, name: str = "constructed") -> str:
    """Serialize a two-field frame as a standalone manifest."""
    chart = dist.chart
    lines = ["[chart]", "coords = " + " ".join(chart.names)]
    lines += [_axis_to_text(a) for a in chart.axes]
    if chart.fiber:
        lines.append(f"fiber = {chart.fiber}")
    lines += ["", "[define]"]
    for label, fieldobj in (("F1", dist.x), ("F2", dist.y)):
        comps = "; ".join(ex.to_text(c) for c in fieldobj.components)
        lines.append(f"field {label} = {comps}")
    lines += [
        "",
        f"[structure {name}]",
        "kind = engel_frame",
        "fields = F1 F2",
        "",
        f"[task verify_{name}]",
        "kind = verify",
        f"target = {name}",
        "",
    ]
    return "\n".join(lines)
