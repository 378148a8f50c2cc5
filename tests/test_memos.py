"""The process-lifetime memos of the pure symbolic constructors: each is
bounded by ``charts.MEMO_SIZE``, shares its results, and stores no
exception."""

from __future__ import annotations

import pytest
from conftest import MEMOS

from engelcalc import charts as ch
from engelcalc.charts import ChartMismatchError, GeometryError, MEMO_SIZE
from engelcalc.manifest import parse_manifest
from engelcalc.prolongation import ContactFrame, fiber_characteristic_annihilator, prolong
from engelcalc.structures import CheckError, Distribution2

TEXT = """
[chart]
coords = x y z
box x = 0 1
box y = 0 1
box z = 0 {}
"""


# The i-th of many distinct inputs of each memo, in the order of MEMOS.
DISTINCT_INPUTS = (
    lambda i, box3, frame: (TEXT.format(i + 1),),
    lambda i, box3, frame: (
        ch.vector_field(box3, [f"{i}*y", "0", "0"]),
        ch.coordinate_field(box3, "y"),
    ),
    lambda i, box3, frame: (frame, i + 1),
    lambda i, box3, frame: (prolong(frame, 1), ch.SamplePlan(grid=2, random=1, seed=i)),
)


@pytest.mark.parametrize(
    "memo,inputs", list(zip(MEMOS, DISTINCT_INPUTS)), ids=[m.__name__ for m in MEMOS]
)
def test_each_memo_stays_within_its_bound(memo, inputs, box3, std_frame):
    calls = [inputs(i, box3, std_frame) for i in range(MEMO_SIZE + 8)]
    results = [memo(*args) for args in calls]
    info = memo.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (MEMO_SIZE, MEMO_SIZE, MEMO_SIZE + 8)
    assert memo(*calls[-1]) is results[-1]
    assert memo.cache_info().hits == 1
    # the least recently used inputs were dropped, and build an equal result again
    again = memo(*calls[0])
    assert again == results[0] and memo.cache_info().misses == MEMO_SIZE + 9


def test_a_memo_stores_no_exception(box3, box4, std_frame):
    x = ch.coordinate_field(box3, "x")
    for _ in range(2):
        with pytest.raises(ChartMismatchError):
            ch.lie_bracket(x, ch.coordinate_field(box4, "x"))
    assert ch.lie_bracket.cache_info().currsize == 0
    # prolong is keyed by type too: a stored n = 1 does not answer n = 1.0
    prolong(std_frame, 1)
    for _ in range(2):
        with pytest.raises(GeometryError, match="positive integer"):
            prolong(std_frame, 1.0)
    # the standard Engel frame's characteristic is d/dw, not its fiber x
    chart = ch.Chart(box4.axes, fiber="x")
    d = Distribution2(
        chart, ch.coordinate_field(chart, "w"), ch.vector_field(chart, ["1", "z", "w", "0"])
    )
    plan = ch.SamplePlan(grid=2, random=4, seed=0)
    for _ in range(2):
        with pytest.raises(CheckError, match="fiber-direction characteristic check failed"):
            fiber_characteristic_annihilator(d, plan)
    assert fiber_characteristic_annihilator.cache_info().currsize == 0


def test_equal_inputs_share_one_result(std_frame):
    text = TEXT.format(2)
    copy = "".join([text[:9], text[9:]])
    assert copy is not text and parse_manifest(copy) is parse_manifest(text)
    frame = ContactFrame(std_frame.chart, std_frame.v0, std_frame.v1)
    assert frame is not std_frame and prolong(frame, 3) is prolong(std_frame, 3)
    d = prolong(std_frame, 3)
    copy = Distribution2(d.chart, d.x, d.y)
    plans = [ch.SamplePlan(grid=2, random=4, seed=0) for _ in range(2)]
    assert copy is not d and plans[0] is not plans[1]
    beta = fiber_characteristic_annihilator(d, plans[0])
    assert fiber_characteristic_annihilator(copy, plans[1]) is beta

