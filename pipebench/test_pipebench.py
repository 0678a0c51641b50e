"""Tests of the benchmark's own arithmetic and output checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest pipebench -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

from measure import (Recorder, Span, Tally, layer_self_seconds,
                     parallel_efficiency, self_times, summarize, time_skew)
from run import END_TO_END, PER_LAYER, run_json
from verify import (CheckFailed, check_simple_graph, edge_set_digest,
                    read_rows, rows_from_blocks)
from workloads import WORKLOADS


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("run"):
        clock.now = 1.0
        with rec.span("formats.regroup"):
            clock.now = 1.5
            with rec.span("util.chunk"):
                clock.now = 4.0
            clock.now = 4.25
        with rec.span("formats.encode"):
            clock.now = 5.0
        clock.now = 5.5
    assert self_times(rec.spans) == [1.5, 0.75, 2.5, 0.75]
    assert layer_self_seconds(rec.spans) == {
        "run": 1.5, "formats": 1.5, "util": 2.5}


def test_self_time_counts_overlapping_children_once():
    spans = [Span("dist.scatter", 0.0, 10.0, None),
             Span("dist.part_work", 1.0, 6.0, 0),
             Span("dist.part_work", 4.0, 8.0, 0),
             Span("dist.part_work", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_timed_iter_records_one_span_per_pull():
    clock = FakeClock()
    rec = Recorder(clock)

    def source():
        for n in (3, 5):
            clock.now += 1.0
            yield np.zeros(n)
        clock.now += 0.5

    assert [a.size for a in rec.timed_iter("util.chunk", source())] == [3, 5]
    pulls = rec.named("util.chunk")
    assert [p.seconds for p in pulls] == [1.0, 1.0, 0.5]
    assert [p.attrs.get("size") for p in pulls] == [3, 5, None]
    assert pulls[-1].attrs["last"]


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0],
    [10.0, 12.0, 11.0, 30.0, 9.0, 10.5],
    [1.0, 2.0],
])
def test_summary_matches_statistics_quantiles(values):
    s = summarize(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert (s.q1, s.median, s.q3, s.n) == (q1, median, q3, len(values))
    assert s.median == statistics.median(values)


def test_summary_of_one_value_and_of_none():
    one = summarize([4.0])
    assert (one.median, one.q1, one.q3, one.n) == (4.0, 4.0, 4.0, 1)
    with pytest.raises(ValueError):
        summarize([])


def test_parallel_efficiency_and_time_skew():
    # Two partitions that take 3 s and 1 s in-process, scattered over
    # 2 workers in 2.5 s of wall time.
    assert parallel_efficiency(4.0, 2, 2.5) == pytest.approx(0.8)
    assert parallel_efficiency(4.0, 2, 0.0) == 0.0
    assert time_skew([3.0, 1.0]) == pytest.approx(1.5)
    assert time_skew([2.0, 2.0]) == 1.0
    assert time_skew([]) == 0.0


def _child(code: str) -> tuple[dict | None, str | None]:
    return run_json([sys.executable, "-c", code], {}, timeout=30)


def test_failed_share_counts_a_raised_run_and_a_failed_check():
    tally = Tally()
    payload, error = _child("print('{\"wall_s\": 1.0}')")
    assert payload == {"wall_s": 1.0} and error is None
    assert tally.record(error)

    payload, error = _child("raise RuntimeError('boom')")
    assert payload is None and "RuntimeError: boom" in error
    assert not tally.record(error)

    failed = json.dumps({"check_failed": "planted"})
    payload, error = _child(f"print({failed!r}); raise SystemExit(1)")
    assert payload is None and error == "check failed: planted"
    assert not tally.record(error)

    payload, error = _child("print('not json')")
    assert payload is None and error.startswith("exit 0")
    assert not tally.record(error)

    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.failed_share == pytest.approx(0.75)
    assert Tally().failed_share == 0.0


def test_a_hung_run_is_killed_and_fails():
    payload, error = run_json(
        [sys.executable, "-c", "import time; time.sleep(60)"], {},
        timeout=0.5)
    assert payload is None and error.startswith("timed out")


# ----------------------------------------------------------------------
# Output checks, on files written through repro.formats
# ----------------------------------------------------------------------

def _write(tmp_path, fmt, sources, rows, num_vertices):
    from repro.core.generator import AdjacencyBlock
    from repro.formats import get_format
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    block = AdjacencyBlock(np.array(sources, dtype=np.int64),
                           offsets.astype(np.int64),
                           np.array([v for r in rows for v in r],
                                    dtype=np.int64))
    path = tmp_path / f"g.{fmt}"
    get_format(fmt).write_blocks(path, [block], num_vertices)
    return path


@pytest.mark.parametrize("fmt", ["adj6", "tsv"])
def test_checker_accepts_a_simple_graph(tmp_path, fmt):
    path = _write(tmp_path, fmt, [0, 2, 5], [[1, 4], [0], [2, 3, 7]], 8)
    assert check_simple_graph(*read_rows([path], fmt), 8) == 6


@pytest.mark.parametrize("fmt", ["adj6", "tsv"])
def test_checker_rejects_a_duplicate_edge(tmp_path, fmt):
    path = _write(tmp_path, fmt, [0, 2], [[1, 4], [3, 3, 5]], 8)
    with pytest.raises(CheckFailed, match="source 2 do not strictly"):
        check_simple_graph(*read_rows([path], fmt), 8)


@pytest.mark.parametrize("fmt", ["adj6", "tsv"])
def test_checker_rejects_an_out_of_range_id(tmp_path, fmt):
    path = _write(tmp_path, fmt, [0, 2], [[1, 4], [3, 8]], 8)
    with pytest.raises(CheckFailed, match="destination ID 8 outside"):
        check_simple_graph(*read_rows([path], fmt), 8)
    path = _write(tmp_path, fmt, [0, 9], [[1], [3]], 8)
    with pytest.raises(CheckFailed, match="source ID 9 outside"):
        check_simple_graph(*read_rows([path], fmt), 8)


def test_checker_rejects_a_source_split_across_rows():
    sources = np.array([1, 1])
    with pytest.raises(CheckFailed, match="source repeats"):
        check_simple_graph(sources, np.array([1, 1]), np.array([2, 3]), 8)


def test_generated_graph_reads_back_as_its_blocks(tmp_path):
    from repro import RecursiveVectorGenerator
    from repro.formats import get_format
    gen = RecursiveVectorGenerator(10, 16, sampler="bitwise", seed=3,
                                   block_size=128)
    path = tmp_path / "g.adj6"
    get_format("adj6").write_blocks(path, gen.iter_blocks(),
                                    gen.num_vertices)
    rows = read_rows([path], "adj6")
    assert check_simple_graph(*rows, gen.num_vertices) == \
        int(gen.degrees().sum())
    assert edge_set_digest(*rows) == \
        edge_set_digest(*rows_from_blocks(gen.iter_blocks()))


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    # avs-seq-tsv is measured by hand only (see README.md).
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()
         if w.name != "avs-seq-tsv"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
