"""End-to-end benchmark of the engelcalc verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixtures-replay --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload, one table

One process drives manifest x command requests through the public entry
point ``engelcalc.cli.main(argv)``, in-process, as a closed loop with one
client: the next request starts when the previous one returns.  Each
request reads its manifest, parses it, runs its tasks and writes its
report (and any ``--out`` file) to a temporary directory inside the
checkout.  Every report is checked against the hand-written answers in
expected.py.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures half its time untraced and half traced, and
prints the per-layer metrics of tracer.py.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from expected import EXPECTED, mismatches
from mixes import WORKLOADS, Mix
from tracer import PER_LAYER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MANIFESTS = ROOT / "manifests"

# Batched small-matrix linear algebra gains nothing from BLAS threads, and
# a fixed cap keeps runs comparable on a shared machine.
THREAD_CAP = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("request_ms.p50", "ms", "lower", 0.15),
    ("request_ms.p75", "ms", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Timings are reported at a nominal machine speed: each request time is
# multiplied by REFERENCE_SECONDS over the mean time reference_seconds()
# took just before and just after it.  The 2-CPU shared virtual machine
# these bounds were set on changes speed by up to 60% in spells of seconds
# to minutes; the reference follows those spells, and no change to
# engelcalc moves it.
REFERENCE_SECONDS = 0.004
# Import time follows a reference of its own kind: a fresh interpreter
# importing these standard-library modules, which no change to engelcalc
# moves.  Each engelcalc import sample is multiplied by
# REFERENCE_IMPORT_SECONDS over the reference import timed right after it.
REFERENCE_IMPORT = (
    "asyncio", "email.mime.multipart", "http.server", "xml.etree.ElementTree",
    "xml.dom.minidom", "decimal", "unittest", "sqlite3", "logging.handlers",
    "csv", "tarfile", "ssl", "multiprocessing.pool", "concurrent.futures", "pydoc",
)
REFERENCE_IMPORT_SECONDS = 0.12
SETUP_REPEATS = 11
# A scaled-grid pass has 12 requests and takes several seconds; four passes
# leave at least ten samples beyond request_ms.p75 even on a slow machine.
MIN_PASSES = 4
_IMPORT_TIMER = """\
import time
start = time.perf_counter()
import {modules}
print(time.perf_counter() - start)
"""


def checkout_problems() -> list[str]:
    """What this checkout lacks to be benchmarked."""
    problems = []
    if not (SRC / "engelcalc" / "cli.py").is_file():
        problems.append(f"no engelcalc source under {SRC}")
    missing = sorted({m for m, _ in EXPECTED if not (MANIFESTS / f"{m}.manifest").is_file()})
    if missing:
        problems.append(f"missing fixture manifests in {MANIFESTS}: {', '.join(missing)}")
    return problems


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return np, rng.random((256, 4, 5)), np.linspace(0.0, 1.0, 8192)


def reference_seconds() -> float:
    """Seconds of a fixed computation that uses nothing from engelcalc.

    It mixes the two kinds of work the workloads do: Python tuple hashing
    and dict traffic, as in symbolic rewriting, and numpy batched SVDs and
    vectorised transcendental functions, as in sampling and rank checks.
    The garbage collector is off meanwhile, so the benchmark's own heap
    does not move it.
    """
    np, mats, xs = _reference_inputs()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(2000):
            key = (("mul", i % 37, ("add", i % 11, 1.5)), i % 5)
            table[key] = table.get(key, 0) + hash(key) % 7
        np.linalg.svd(mats, compute_uv=False)
        np.sin(xs) * np.exp(xs)
        return time.perf_counter() - start
    finally:
        gc.enable()


def import_seconds(modules: tuple[str, ...]) -> float:
    """Seconds a fresh interpreter spends importing ``modules``."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER.format(modules=", ".join(modules))],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def setup_seconds() -> tuple[float, float]:
    """Median seconds over SETUP_REPEATS fresh interpreters to import
    engelcalc.cli: as measured, and at nominal speed."""
    for modules in (("engelcalc.cli",), REFERENCE_IMPORT):
        import_seconds(modules)  # untimed: writes the bytecode caches, as any earlier run would
    measured, nominal = [], []
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds(("engelcalc.cli",))
        measured.append(seconds)
        nominal.append(seconds * REFERENCE_IMPORT_SECONDS / import_seconds(REFERENCE_IMPORT))
    return statistics.median(measured), statistics.median(nominal)


class Latencies:
    """Request latencies of one run, grouped by request type.

    Every pass holds each type once, so the types weigh equally.  A type's
    typical latency is the median of its samples, which discards the slow
    spells of a shared machine; percentiles are taken over the typical
    latencies, and throughput over every sample.
    """

    def __init__(self):
        self.by_type: dict[tuple, list[float]] = {}

    def add(self, request, seconds: float) -> None:
        self.by_type.setdefault((request.manifest, request.command), []).append(seconds)

    @property
    def count(self) -> int:
        return sum(len(v) for v in self.by_type.values())

    def _typical(self) -> list[float]:
        return [statistics.median(v) for v in self.by_type.values()]

    def ms(self, q: int) -> float:
        # inclusive quantiles interpolate linearly, as numpy's default percentile
        return 1000.0 * statistics.quantiles(self._typical(), n=100, method="inclusive")[q - 1]

    def per_second(self) -> float:
        return self.count / sum(sum(v) for v in self.by_type.values())

    def beyond(self, q: int) -> int:
        """Samples of the request types whose typical latency lies beyond the q-th percentile."""
        cut = self.ms(q) / 1000.0
        return sum(len(v) for v in self.by_type.values() if statistics.median(v) > cut)


class Runner:
    """Executes requests through cli.main and checks each against its answer."""

    def __init__(self, workdir: Path, tracer: Tracer | None = None):
        from engelcalc import cli

        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, request) -> float:
        """Run one request; returns its wall time in seconds."""
        report = self.workdir / "report.json"
        out = self.workdir / "out.manifest"
        report.unlink(missing_ok=True)
        out.unlink(missing_ok=True)
        if request.text is None:
            path = MANIFESTS / f"{request.manifest}.manifest"
        else:
            path = self.workdir / "variant.manifest"
            path.write_text(request.text, encoding="utf-8")
        argv = [request.command, str(path), "--report", str(report), *request.flags]
        if request.command == "construct":
            argv += ["--out", str(out)]

        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as err:  # a raising request is a failed request, not a crash
            elapsed = time.perf_counter() - start
            found = [f"raised {type(err).__name__}: {err}"]
        else:
            elapsed = time.perf_counter() - start
            expected = EXPECTED[(request.manifest, request.command)]
            found = mismatches(expected, code, report, out if request.command == "construct" else None)
        if self.tracer is not None:
            self.tracer.end_request(elapsed)

        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.append(f"{request.manifest} {request.command}: {'; '.join(found)}")
        return elapsed

    def run_passes(self, mix: Mix, seconds: float) -> tuple[Latencies, Latencies, int]:
        """Whole passes until ``seconds`` have elapsed and at least MIN_PASSES
        have run; returns the latencies as measured and at nominal speed,
        and the pass count."""
        measured, nominal = Latencies(), Latencies()
        passes = 0
        deadline = time.perf_counter() + seconds
        before = reference_seconds()
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            for request in mix.next_pass():
                elapsed = self.execute(request)
                after = reference_seconds()
                measured.add(request, elapsed)
                nominal.add(request, elapsed * 2 * REFERENCE_SECONDS / (before + after))
                before = after
            passes += 1
        return measured, nominal, passes


def environment() -> dict:
    import numpy

    from engelcalc import _kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.active_backend(),
        "numba": "installed" if _kernels.HAVE_NUMBA
        else "not installed: no number here covers the numba path",
        "blas_openmp_thread_cap": THREAD_CAP,
    }


@functools.cache
def fixture_text(name: str) -> str:
    return (MANIFESTS / f"{name}.manifest").read_text(encoding="utf-8")


def _timings(latencies: Latencies, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "request_ms.p50": latencies.ms(50),
        "request_ms.p75": latencies.ms(75),
        "requests_per_s": latencies.per_second(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        mix = Mix(workload, seed, fixture_text)
        runner = Runner(workdir)
        for request in mix.warmup_pass():
            runner.execute(request)
        print(f"environment {json.dumps(environment())}")
        if not trace:
            setup_measured, setup_nominal = setup_seconds()
            measured, latencies, passes = runner.run_passes(mix, seconds)
            raw = _timings(measured, setup_measured)
            metrics = _timings(latencies, setup_nominal)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {name: unit for name, unit, _, _ in END_TO_END}
        else:
            _, plain, _ = runner.run_passes(mix, seconds / 2)
            runner.tracer = Tracer()
            with runner.tracer:
                _, latencies, passes = runner.run_passes(mix, seconds / 2)
            metrics = runner.tracer.metrics()
            metrics["trace.overhead.ms"] = latencies.ms(50) - plain.ms(50)
            units = {name: unit for name, unit, _ in PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload {workload}: seed {seed}, {passes} passes of {len(latencies.by_type)} requests,"
        f" {latencies.count} timed requests, closed loop with one client,"
        f" {'traced' if trace else 'untraced'}"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not trace:
        for name, value in raw.items():
            print(f"  as measured: {name} = {value:.6g} {units[name]}")
        print(f"  setup_s samples = {SETUP_REPEATS} fresh interpreters")
        print(f"  request samples = {latencies.count}, {latencies.beyond(75)} beyond p75")
        if latencies.beyond(90) >= 10:
            print(f"  request_ms.p90 = {latencies.ms(90):.6g} ms"
                  f" ({latencies.beyond(90)} samples beyond it)")
    print(f"  failed_ratio = {runner.failed / runner.attempted:.6g}"
          f" ({runner.failed} of {runner.attempted} requests, warm-up included)")
    for problem in runner.problems[:10]:
        print(f"  mismatch: {problem}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # a terminated run still removes its temporary directory and waits for its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problems = checkout_problems()
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in every child process
    os.environ.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
