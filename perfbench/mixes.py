"""Request mixes of the three workloads and the seeded fresh-variant generator.

A request is one CLI invocation: a command over one manifest, plus flags.
A workload replays whole passes over its mix, each pass in a seeded
shuffled order, so every run measures the same request types in the same
proportions.  Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from expected import EXPECTED

WORKLOADS = ("fixtures-replay", "fixtures-fresh", "scaled-grid")

# The 15 bundled manifests x every command that has tasks: 33 requests.
FIXTURE_MIX = tuple(sorted(EXPECTED))

# Manifests whose verify tasks run on 4-dimensional charts (the prolonged
# and extended frames live on M x fiber), at a scaled sampling plan.
SCALED_MANIFESTS = (
    "prolonged-n1",
    "prolonged-n2",
    "prolonged-n3",
    "prolonged-n4",
    "prolonged-n5",
    "extension-n0",
    "extension-n1",
    "extension-n2",
    "extension-n3",
    "standard-engel-r4",
    "neg-integrable",
    "neg-swapped-pair",
)
SCALED_FLAGS = ("--samples-grid", "16", "--samples-random", "1000")

# Constants multiplying fields and forms in fresh variants.  Scaling by a
# positive constant keeps every kernel, rank and orientation.
FIELD_SCALE = (0.5, 2.0)
# Constants multiplying ``expr`` definitions; in the fixtures these are
# the constant extension angles g = pi/2, and g stays inside (0, pi),
# where the minimal twisting number of the n-fold extension is n.
ANGLE_SCALE = (0.5, 1.5)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Request:
    manifest: str  # fixture name, the key into the expected-answer table
    command: str
    text: str | None = None  # manifest text of a fresh variant; None reads the fixture
    flags: tuple[str, ...] = ()


def _rename(text: str, names: dict[str, str]) -> str:
    return _IDENT.sub(lambda m: names.get(m.group(), m.group()), text)


def fresh_variant(text: str, rng: random.Random, tag: str) -> str:
    """The manifest with fresh coordinate names and rescaled definitions.

    Every coordinate ``c`` becomes ``c_<tag>`` (and ``dc`` becomes
    ``dc_<tag>``); every field component and form is multiplied by one
    constant per definition drawn from FIELD_SCALE, every ``expr`` by one
    from ANGLE_SCALE.  Verdicts and invariant values do not change.
    """
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    coords = next(
        line.split("=", 1)[1].split()
        for line in lines
        if line.split("=", 1)[0].strip() == "coords"
    )
    names = {c: f"{c}_{tag}" for c in coords}
    names.update({"d" + c: f"d{c}_{tag}" for c in coords})

    out = []
    section = None
    for line in lines:
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1].split()[0]
        elif section == "chart":
            line = _rename(line, names)
        elif section == "define":
            key, value = (part.strip() for part in line.split("=", 1))
            kind = key.split()[0]
            lo, hi = ANGLE_SCALE if kind == "expr" else FIELD_SCALE
            k = repr(rng.uniform(lo, hi))
            value = _rename(value, names)
            if kind == "field":
                value = "; ".join(f"{k}*({c.strip()})" for c in value.split(";"))
            else:
                value = f"{k}*({value})"
            line = f"{key} = {value}"
        out.append(line)
    return "\n".join(out) + "\n"


class Mix:
    """Yields the passes of one workload, deterministically from a seed."""

    def __init__(self, workload: str, seed: int, fixture_text):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(seed)
        self.fixture_text = fixture_text  # callable: fixture name -> manifest text
        self.variants = 0

    def requests(self) -> list[Request]:
        if self.workload == "scaled-grid":
            return [Request(m, "verify", flags=SCALED_FLAGS) for m in SCALED_MANIFESTS]
        if self.workload == "fixtures-replay":
            return [Request(m, c) for m, c in FIXTURE_MIX]
        return [Request(m, c, text=self._variant(m)) for m, c in FIXTURE_MIX]

    def _variant(self, name: str) -> str:
        self.variants += 1
        tag = f"{self.variants:x}" + "".join(self.rng.choices("abcdefghjkmnpqrstuvwxyz", k=3))
        return fresh_variant(self.fixture_text(name), self.rng, tag)

    def next_pass(self) -> list[Request]:
        batch = self.requests()
        self.rng.shuffle(batch)
        return batch

    def warmup_pass(self) -> list[Request]:
        """One pass that fills lazy set-up and caches before timing.

        The scaled-grid warm-up runs the same requests at the manifests' own
        plans: that compiles the same programs (they do not depend on the
        plan) and initialises the same numpy paths at a fraction of the cost.
        """
        batch = self.next_pass()
        if self.workload == "scaled-grid":
            batch = [Request(r.manifest, r.command) for r in batch]
        return batch
