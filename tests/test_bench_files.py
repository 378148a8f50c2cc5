"""The committed benchmark results: each ``BENCH_<slug>.parent.json`` and its
``BENCH_<slug>.change.json`` twin hold the last line that
``perfbench/run.py --workload all`` printed on each side of one change."""

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SIDES = (".parent.json", ".change.json")


def _slugs(side: str) -> set[str]:
    return {p.name[len("BENCH_") : -len(side)] for p in REPO.glob(f"BENCH_*{side}")}


SLUGS = sorted(_slugs(SIDES[0]) | _slugs(SIDES[1]))


def test_every_bench_file_has_its_twin():
    assert SLUGS
    assert _slugs(SIDES[0]) == _slugs(SIDES[1])


@pytest.mark.parametrize("slug", SLUGS)
def test_both_sides_parse_are_correct_and_measure_the_same_things(slug):
    results = [json.loads((REPO / f"BENCH_{slug}{side}").read_text()) for side in SIDES]
    for result in results:
        assert result
        for workload, run in result.items():
            assert run["correct"] is True, workload
            assert run["failed"] == 0, workload
    parent, change = results
    assert parent.keys() == change.keys()
    for workload in parent:
        assert parent[workload]["metrics"].keys() == change[workload]["metrics"].keys()
