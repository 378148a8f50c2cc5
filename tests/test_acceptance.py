"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdicts.
Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import chart_from_box, kernel_plane_basis, plane_angle_sin

from engelcalc import charts as ch
from engelcalc import expr as ex
from engelcalc.charts import (
    SamplePlan,
    exterior_derivative,
    fd_lie_bracket,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    parse_one_form,
    sample_points,
    vector_field,
    volume_form,
    wedge,
)
from engelcalc.cli import main
from engelcalc.extension import ExtensionSpec, extend, verify_extension_identities
from engelcalc.invariants import (
    LegendrianLineField,
    induced_legendrian_line,
    line_angle_distance,
    minimal_twisting_number,
    twisting_number,
)
from engelcalc.prolongation import deprolong, development_profile, prolong
from engelcalc.structures import (
    Distribution2,
    EngelPair,
    characteristic_vector_field,
    check_characteristic,
    check_engel_frame,
    check_engel_pair,
)

REPO = Path(__file__).resolve().parents[1]
MANIFESTS = REPO / "manifests"

ACCEPTANCE_PLAN = SamplePlan(grid=5, random=200, seed=0)
CHECK_PLAN = SamplePlan(grid=4, random=60, seed=0)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _random_base(chart, count, seed):
    rng = np.random.default_rng(seed)
    lo = np.array([a.lo for a in chart.axes])
    hi = np.array([a.hi for a in chart.axes])
    return lo + (hi - lo) * rng.random((count, chart.dim))


# ---------------------------------------------------------------------------


def test_criterion_1_standard_structures(box4, std_pair_forms, std_kernel_frame):
    alpha, beta = std_pair_forms
    rep = check_engel_pair(EngelPair(alpha, beta), ACCEPTANCE_PLAN)
    ok = (
        rep.passed
        and rep.witnesses["condition1_min_over_max"] >= 0.5
        and rep.witnesses["condition3_min_over_max"] >= 0.5
    )
    swapped = check_engel_pair(EngelPair(beta, alpha), ACCEPTANCE_PLAN)
    ok = ok and not swapped.passed
    ok = ok and swapped.witnesses["condition1_max_abs"] <= 1e-12

    frame_rep = check_engel_frame(
        Distribution2(box4, *std_kernel_frame), ACCEPTANCE_PLAN
    )
    ok = ok and frame_rep.passed
    for key, value in (
        ("rank_step1_min", 3),
        ("rank_step1_max", 3),
        ("rank_step2_min", 4),
        ("rank_step2_max", 4),
    ):
        ok = ok and frame_rep.witnesses[key] == value
    _verdict(
        1,
        ok,
        f"pair witness {rep.witnesses['condition1_min_over_max']:.3f} (need >= 0.5),"
        f" swapped max {swapped.witnesses['condition1_max_abs']:.2e} (need <= 1e-12),"
        f" kernel frame ranks 3/4 everywhere",
    )


def test_criterion_2_characteristic_field():
    # the kernel frame of dy - z*dx on the box, with the fiber w
    chart = chart_from_box({"x": (-1, 1), "y": (-1, 1), "z": (-1, 1), "w": (-1, 1)}, fiber="w")
    d = Distribution2(chart, ch.coordinate_field(chart, "w"), vector_field(chart, ["1", "z", "w", "0"]))
    _, beta, rep = check_characteristic(d, ACCEPTANCE_PLAN)
    x0 = characteristic_vector_field(beta, volume_form(chart), ACCEPTANCE_PLAN)
    exact = tuple(ex.simplify(c) for c in x0.components)
    ok = exact == (ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE)
    residual = max(rep.witnesses["lie_wedge_max"], rep.witnesses["kernel_pairing_max"])
    ok = ok and rep.passed and residual <= 1e-12
    _verdict(
        2,
        ok,
        f"components {[ex.to_text(c) for c in x0.components]} (need 0,0,0,1),"
        f" residual {residual:.2e} (need <= 1e-12)",
    )


def test_criterion_3_prolongation_twisting(std_frame, t3_frame):
    worst_fit = 0.0
    ok = True
    for label, frame in (("box", std_frame), ("torus", t3_frame)):
        for n in range(1, 6):
            pe = prolong(frame, n)
            ok = ok and check_engel_frame(pe, CHECK_PLAN).passed
            base = _random_base(frame.chart, 10, seed=100 + n)
            ok = ok and twisting_number(pe, frame, base) == n
            grid = np.linspace(0.0, 2 * math.pi, 64 * n + 1)
            t, profiles = development_profile(pe, frame, base[:3], grid)
            for angles in profiles:
                fit = np.polyfit(t, angles, 1)
                ok = ok and abs(fit[0] - n / 2) <= 1e-8
                worst_fit = max(
                    worst_fit, float(np.max(np.abs(angles - np.polyval(fit, t))))
                )
    ok = ok and worst_fit <= 1e-8
    _verdict(
        3,
        ok,
        f"n=1..5 on both fixtures: frame checks pass, twisting numbers exact,"
        f" slope fit residual {worst_fit:.2e} (need <= 1e-8)",
    )


def test_criterion_4_deprolong_round_trip(std_frame):
    pe = prolong(std_frame, 2)
    pts = sample_points(std_frame.chart, SamplePlan(grid=3, random=20, seed=4))
    v0 = std_frame.v0.evaluate_at(pts)
    v1 = std_frame.v1.evaluate_at(pts)
    worst = 0.0
    for section in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
        alpha = deprolong(pe, float(section), CHECK_PLAN)
        coeffs = alpha.evaluate_at(pts)
        for c, a, b in zip(coeffs, v0, v1):
            worst = max(
                worst, plane_angle_sin(kernel_plane_basis(c), np.stack([a, b], 1))
            )
    ok = worst <= 1e-9
    _verdict(
        4,
        ok,
        f"kernel vs frame plane over 8 sections: max principal angle"
        f" {worst:.2e} (need <= 1e-9)",
    )


def test_criterion_5_extension(std_frame):
    angles = (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    mtw_plan = SamplePlan(grid=3, random=6, seed=0)
    ok = True
    worst_line = 0.0
    worst_resid = 0.0
    for n in range(0, 4):
        for g in angles:
            spec = ExtensionSpec(frame=std_frame, n=n, g=ex.Constant(g))
            dist = extend(spec, CHECK_PLAN)
            ok = ok and check_engel_frame(dist, CHECK_PLAN).passed
            start = induced_legendrian_line(dist, std_frame, 0.0)
            end = induced_legendrian_line(dist, std_frame, 1.0)
            f0 = LegendrianLineField(std_frame.chart, std_frame, a=ex.ONE, b=ex.ZERO)
            f1 = LegendrianLineField(
                std_frame.chart,
                std_frame,
                a=ex.Constant(math.cos(g)),
                b=ex.Constant(math.sin(g)),
            )
            worst_line = max(
                worst_line,
                line_angle_distance(start, f0, mtw_plan),
                line_angle_distance(end, f1, mtw_plan),
            )
            ok = ok and minimal_twisting_number(dist, std_frame, mtw_plan) == n
            rep = verify_extension_identities(spec, CHECK_PLAN)
            ok = ok and rep.passed
            worst_resid = max(
                worst_resid,
                rep.witnesses["first_bracket_residual"],
                rep.witnesses["second_bracket_residual"],
            )
    ok = ok and worst_line <= 1e-9 and worst_resid <= 1e-9
    _verdict(
        5,
        ok,
        f"n=0..3, three angle choices: end foliation distance {worst_line:.2e}"
        f" (need <= 1e-9), identity residual {worst_resid:.2e} (need <= 1e-9),"
        f" minimal twisting numbers exact",
    )


def _fixture_field_pairs(std_frame, t3_frame, std_kernel_frame, box4):
    pairs = [
        (std_frame.chart, std_frame.v0, std_frame.v1),
        (t3_frame.chart, t3_frame.v0, t3_frame.v1),
        (box4, *std_kernel_frame),
    ]
    for n in (1, 5):
        pe = prolong(std_frame, n)
        pairs.append((pe.chart, pe.x, pe.y))
    pe = prolong(t3_frame, 2)
    pairs.append((pe.chart, pe.x, pe.y))
    spec = ExtensionSpec(frame=std_frame, n=0, g=ex.Constant(math.pi / 2))
    dist = extend(spec, CHECK_PLAN)
    pairs.append((dist.chart, dist.x, dist.y))
    return pairs


def test_criterion_6_oracle_equivalence(std_frame, t3_frame, std_kernel_frame, box4):
    pairs = _fixture_field_pairs(std_frame, t3_frame, std_kernel_frame, box4)
    errors = {1e-3: 0.0, 5e-4: 0.0}
    for chart, x, y in pairs:
        sym = lie_bracket(x, y)
        pts = _random_base(chart, 100, seed=hash(chart.names) % 2**32)
        sym_vals = sym.evaluate_at(pts)
        for h in errors:
            fd = fd_lie_bracket(x, y, pts, h)
            errors[h] = max(errors[h], float(np.max(np.abs(fd - sym_vals))))
    ratio = errors[1e-3] / errors[5e-4]
    ok = errors[1e-3] <= 1e-5 and 3.5 <= ratio <= 4.5
    _verdict(
        6,
        ok,
        f"max |symbolic - fd| = {errors[1e-3]:.2e} at h=1e-3 (need <= 1e-5),"
        f" halving ratio {ratio:.2f} (need within [3.5, 4.5])",
    )


def test_criterion_7_calculus_laws(std_frame, t3_frame, box4, std_kernel_frame):
    worst = 0.0
    plan = SamplePlan(grid=3, random=40, seed=0)

    one_forms = {
        std_frame.chart: ["dy - z*dx"],
        t3_frame.chart: ["cos(z)*dx - sin(z)*dy"],
        box4: ["dz - w*dx", "dy - z*dx", "cos(z)*dx + x*y*dw"],
    }
    for chart, texts in one_forms.items():
        pts = sample_points(chart, plan)
        for text in texts:
            omega = parse_one_form(chart, text)
            dd = exterior_derivative(exterior_derivative(omega))
            worst = max(worst, float(np.max(np.abs(dd.evaluate_at(pts)), initial=0.0)))

    # Jacobi identity on fixture triples
    triples = [
        (std_frame.chart, std_frame.v0, std_frame.v1, lie_bracket(std_frame.v0, std_frame.v1)),
        (t3_frame.chart, t3_frame.v0, t3_frame.v1, lie_bracket(t3_frame.v0, t3_frame.v1)),
        (box4, std_kernel_frame[0], std_kernel_frame[1],
         vector_field(box4, ["y", "x*z", "w^2", "cos(x)"])),
    ]
    for chart, x, y, z in triples:
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        pts = sample_points(chart, plan)
        worst = max(worst, float(np.max(np.abs(total.evaluate_at(pts)), initial=0.0)))

    # graded antisymmetry on fixture forms
    pts4 = sample_points(box4, plan)
    a = parse_one_form(box4, "dz - w*dx")
    b = parse_one_form(box4, "cos(z)*dx + x*y*dw")
    two = exterior_derivative(b)
    d11 = wedge(a, b) - wedge(b, a).scaled_by(-1.0)
    d12 = wedge(a, two) - wedge(two, a)
    worst = max(worst, float(np.max(np.abs(d11.evaluate_at(pts4)), initial=0.0)))
    worst = max(worst, float(np.max(np.abs(d12.evaluate_at(pts4)), initial=0.0)))

    # Cartan-formula Leibniz rescaling on a fixture instance
    f = box4.parse("1 + x^2/4")
    x = vector_field(box4, ["1", "z", "w", "0"])
    omega = wedge(a, parse_one_form(box4, "dy"))
    lhs = lie_derivative_form(x.scaled_by(f), omega) - lie_derivative_form(x, omega).scaled_by(f)
    rhs = wedge(exterior_derivative(ch.KForm(box4, 0, (((), f),))), interior_product(x, omega))
    worst = max(worst, float(np.max(np.abs((lhs - rhs).evaluate_at(pts4)), initial=0.0)))

    ok = worst <= 1e-10
    _verdict(7, ok, f"d∘d, Jacobi, antisymmetry, Leibniz max residual {worst:.2e} (need <= 1e-10)")


def _strip_duration(payload: bytes) -> bytes:
    return re.sub(rb'"duration_ms": \d+', b'"duration_ms": 0', payload)


def test_criterion_8_cli_determinism(tmp_path):
    positive = sorted(
        p for p in MANIFESTS.glob("*.manifest") if not p.name.startswith("neg-")
    )
    negative = sorted(MANIFESTS.glob("neg-*.manifest"))
    assert len(positive) == 12 and len(negative) == 3

    ok = True
    detail = []
    for path in positive:
        for command in ("verify", "invariant"):
            payloads = []
            codes = []
            for run in (0, 1):
                out = tmp_path / f"{path.stem}-{command}-{run}.json"
                codes.append(main([command, str(path), "--seed", "0", "--report", str(out)]))
                payloads.append(out.read_bytes())
            if codes != [0, 0]:
                ok = False
                detail.append(f"{path.name} {command} exited {codes}")
            if _strip_duration(payloads[0]) != _strip_duration(payloads[1]):
                ok = False
                detail.append(f"{path.name} {command} not byte-identical")
    for path in negative:
        out = tmp_path / f"{path.stem}.json"
        code = main(["verify", str(path), "--seed", "0", "--report", str(out)])
        if code == 0:
            ok = False
            detail.append(f"{path.name} unexpectedly passed")
    _verdict(
        8,
        ok,
        "12 fixtures byte-identical across reruns and green; 3 negative fixtures red"
        + ("; " + "; ".join(detail) if detail else ""),
    )
