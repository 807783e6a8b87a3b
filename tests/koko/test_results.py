"""The column representation of a result (koko/results.py).

A ``KokoResult`` holds a ``ResultColumns``; tuples are built only when the
result is iterated or indexed.  These tests pin that the columns hold
exactly the tuples they were given (scores bit for bit), that the shard
merge equals a stable sort of the tuples, that the cache-admission size is
the per-tuple formula, and that a cached result holds no tuple objects and
can be iterated from many threads at once.
"""

from __future__ import annotations

import gc
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.koko import results as results_module
from repro.koko.results import (
    ExtractionTuple,
    KokoResult,
    ResultColumns,
    StageTimings,
    merge_results,
)
from repro.service import KokoService

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
]


def exact(rows):
    """Rows with scores as ``repr``: equal only when bit-identical."""
    return [(t.doc_id, t.sid, t.values, repr(t.scores)) for t in rows]


# ----------------------------------------------------------------------
# generated results: one output layout, scores present or not per row
# ----------------------------------------------------------------------
_texts = st.text(max_size=6)
_scores = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 5e-324, 1.0])


@st.composite
def tuple_lists(draw, max_rows: int = 12):
    variables = draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True))
    scored = draw(st.lists(st.sampled_from("vwab"), max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        rows.append(
            ExtractionTuple(
                draw(st.sampled_from(["d0", "d1", "dé", "d3"])),
                draw(st.integers(0, 70_000)),
                tuple((name, draw(_texts)) for name in variables),
                tuple(
                    (name, draw(_scores))
                    for name in scored
                    if draw(st.booleans())  # an unbound scored variable has none
                ),
            )
        )
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=tuple_lists())
def test_columns_hold_exactly_the_tuples_they_were_given(rows):
    columns = ResultColumns.from_tuples(rows)
    assert len(columns) == len(rows)
    assert exact(columns) == exact(rows)
    assert all(type(t) is ExtractionTuple for t in columns)
    assert all(type(score) is float for t in columns for _, score in t.scores)
    for index in (0, len(rows) // 2, -1):
        if rows:
            assert exact([columns[index]]) == exact([rows[index]])
    assert exact(columns[1:-1]) == exact(rows[1:-1])
    result = KokoResult(tuples=rows)
    assert len(result.tuples) == len(rows) and list(result) == rows


@settings(max_examples=100, deadline=None)
@given(rows=tuple_lists(), cuts=st.lists(st.integers(0, 12), max_size=4))
def test_merge_is_a_stable_sort_by_sid(rows, cuts):
    bounds = sorted({0, len(rows), *(min(cut, len(rows)) for cut in cuts)})
    parts = [
        KokoResult(tuples=rows[lo:hi], candidate_sentences=hi, evaluated_sentences=lo)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    parts.append(KokoResult())  # a shard DPLI proved empty has no layout
    merged = merge_results(parts)
    assert exact(merged) == exact(sorted(rows, key=lambda t: t.sid))
    assert merged.candidate_sentences == sum(p.candidate_sentences for p in parts)


@settings(max_examples=100, deadline=None)
@given(rows=tuple_lists(), keep=st.lists(st.booleans(), max_size=12))
def test_take_equals_building_the_kept_rows(rows, keep):
    keep = (keep + [False] * len(rows))[: len(rows)]
    columns = ResultColumns.from_tuples(rows)
    taken = columns.take(np.flatnonzero(np.array(keep, bool)))
    kept = [row for row, flag in zip(rows, keep) if flag]
    built = ResultColumns.from_tuples(kept)
    assert exact(taken) == exact(kept)
    if kept:
        # compacted tables: the entries the kept rows use, in table order,
        # and columns as narrow as building the kept rows makes them
        for mine, whole, fresh in zip(
            (taken.doc_ids, *taken.strings),
            (columns.doc_ids, *columns.strings),
            (built.doc_ids, *built.strings),
        ):
            assert set(mine) == set(fresh) and len(mine) == len(fresh)
            assert list(mine) == [entry for entry in whole if entry in set(mine)]
        assert taken.sid.dtype == built.sid.dtype
        assert taken.index.dtype == built.index.dtype
        assert taken.scored == columns.scored


def test_merge_of_parts_with_different_layouts_falls_back_to_tuples():
    a = KokoResult(tuples=[ExtractionTuple("d1", 4, (("x", "A"),), (("v", 0.5),))])
    b = KokoResult(tuples=[ExtractionTuple("d2", 2, (("x", "B"),))])
    merged = merge_results([a, b])
    assert list(merged) == [*b, *a]
    assert merged.columns.scored == ("v",)


def test_a_tuple_list_with_two_output_layouts_is_refused():
    with pytest.raises(ValueError, match="same variables"):
        KokoResult(
            tuples=[
                ExtractionTuple("d1", 0, (("x", "A"),)),
                ExtractionTuple("d1", 1, (("y", "B"),)),
            ]
        )


def test_columns_are_narrow_and_tuples_share_their_pairs():
    rows = [
        ExtractionTuple("d1", 300, (("x", "A"), ("y", "B")), (("v", 0.25),)),
        ExtractionTuple("d1", 301, (("x", "A"), ("y", "C")), ()),
    ]
    columns = ResultColumns.from_tuples(rows)
    assert columns.sid.dtype == np.uint16
    assert columns.index.dtype == np.uint8
    assert columns.index.tolist() == [[0, 0], [0, 0], [0, 1]]  # doc, x, y
    assert columns.present.tolist() == [[True, False]]
    first, second = columns
    assert first.values[0] is second.values[0]  # one ("x", "A") pair object
    assert first == rows[0] and second == rows[1]


def test_result_helpers_and_equality_read_like_the_tuples():
    rows = [
        ExtractionTuple("d1", 0, (("x", "A"),), (("x", 0.7),)),
        ExtractionTuple("d2", 2, (("x", "A"),), (("x", 0.2),)),
    ]
    result = KokoResult(tuples=rows, timings=StageTimings(dpli=1.0))
    assert result == KokoResult(tuples=list(rows), timings=StageTimings(dpli=1.0))
    assert result != KokoResult(tuples=rows[:1], timings=StageTimings(dpli=1.0))
    assert result.tuples == rows and result[-1] == rows[-1]
    assert "ExtractionTuple(doc_id='d1'" in repr(result)
    assert result.selectivity == {"d1": 1, "d2": 1}


# ----------------------------------------------------------------------
# what a cached result holds, and who may read it
# ----------------------------------------------------------------------
@pytest.fixture
def service():
    with KokoService(shards=2, trace_sample_rate=0.0) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        yield service


def test_counting_never_builds_a_tuple(service, monkeypatch):
    result = service.query(ENTITY_QUERY)
    expected = len(list(result))

    def refuse(*args, **kwargs):
        raise AssertionError("a tuple was built")

    monkeypatch.setattr(results_module, "_new_tuple", refuse)
    monkeypatch.setattr(ResultColumns, "__getitem__", refuse)
    cached = service.query(ENTITY_QUERY)
    assert cached is result
    assert len(cached) == len(cached.tuples) == expected > 0
    assert cached.candidate_sentences >= cached.evaluated_sentences > 0


def test_a_cached_result_holds_no_tuple_objects(service):
    result = service.query(ENTITY_QUERY)
    assert len(result) > 0
    seen, stack, reached = set(), [result], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, int, float, type)):
            continue
        seen.add(id(obj))
        reached.append(obj)
        stack.extend(gc.get_referents(obj))
    assert not any(isinstance(obj, ExtractionTuple) for obj in reached)
    arrays = [obj for obj in reached if isinstance(obj, np.ndarray)]
    assert arrays and not any(gc.is_tracked(array) for array in arrays)


def test_one_cached_result_iterated_from_many_threads(service, run_threads):
    result = service.query(ENTITY_QUERY)
    expected = exact(result)
    assert service.query(ENTITY_QUERY) is result

    def work(thread_index: int) -> None:
        for round_no in range(200):
            assert exact(result) == expected
            assert exact([result[round_no % len(expected)]]) == [
                expected[round_no % len(expected)]
            ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL around mid-iteration
    try:
        run_threads(6, work)
    finally:
        sys.setswitchinterval(interval)


def test_scores_keep_every_float_bit():
    tricky = [0.1 + 0.2, -0.0, 5e-324, 1e308, math.inf, -math.inf, 2.0 / 3.0]
    rows = [ExtractionTuple("d", n, (), (("v", score),)) for n, score in enumerate(tricky)]
    rebuilt = list(merge_results([KokoResult(tuples=rows)]))
    assert [repr(t.scores) for t in rebuilt] == [repr(t.scores) for t in rows]
