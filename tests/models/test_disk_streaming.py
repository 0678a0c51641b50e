"""The disk-based RMAT baselines stream their merge at default settings.

With ``spill_chunk`` unset, each run is read ``batch_edges // fan_in``
keys at a time, so no merged chunk exceeds one generation batch and the
merge's buffered volume stays within the documented
``2 * fan_in * chunk_items`` bound (``docs/external_memory.md``).  Reading
one whole batch per run instead buffers every run at once: the first
chunk then carries nearly the whole edge set.
"""

import pytest

from repro.models import RmatDiskGenerator, WespDiskGenerator
from repro.telemetry import registry, reset_telemetry
from repro.util.external_sort import DEFAULT_FAN_IN, merge_chunk_items

BATCH = 1 << 14


@pytest.mark.parametrize("cls", [WespDiskGenerator, RmatDiskGenerator])
def test_default_merge_chunks_stay_within_one_batch(cls):
    reset_telemetry()
    gen = cls(14, 16, seed=1, batch_edges=BATCH)
    sizes = [int(chunk.size) for chunk in gen.iter_unique_key_chunks()]
    reg = registry()
    assert reg.counter("extsort.runs_spilled").value > 1
    assert sum(sizes) == gen.report.realized_edges
    assert len(sizes) > 1
    assert max(sizes) <= BATCH
    chunk_items = merge_chunk_items(None, BATCH, DEFAULT_FAN_IN)
    assert chunk_items == BATCH // DEFAULT_FAN_IN
    peak = reg.gauge("extsort.peak_buffered_items", mode="max").value
    assert 0 < peak <= 2 * DEFAULT_FAN_IN * chunk_items


def test_explicit_spill_chunk_wins():
    assert merge_chunk_items(100, BATCH, DEFAULT_FAN_IN) == 100
    assert merge_chunk_items(None, 8, 16) == 1
