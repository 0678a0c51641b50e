"""Output checks by invariant, not by golden digest.

A later change may alter the bytes of a correct graph on purpose (the hub
scope fix rewrites block 0), so nothing here compares against a frozen
hash.  Files are read back through the format's own reader.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable

import numpy as np


class CheckFailed(Exception):
    """The output broke an invariant of a simple directed graph."""


def read_rows(paths: Iterable[Path], fmt: str
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read files in order through ``repro.formats``' reader.

    Returns ``(sources, degrees, destinations)``: one entry per row in
    file order, and every row's destinations back to back.
    """
    from repro.formats import get_format
    reader = get_format(fmt)
    sources: list[int] = []
    degrees: list[int] = []
    dests: list[np.ndarray] = []
    for path in paths:
        for u, vs in reader.iter_adjacency(path):
            sources.append(u)
            degrees.append(len(vs))
            dests.append(vs)
    return (np.array(sources, dtype=np.int64),
            np.array(degrees, dtype=np.int64),
            np.concatenate(dests).astype(np.int64) if dests
            else np.empty(0, dtype=np.int64))


def rows_from_blocks(blocks: Iterable
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows a writer would emit for ``AdjacencyBlock``s: sources with
    no edges are dropped, as both ADJ6 and TSV drop them."""
    sources, degrees, dests = [], [], []
    for block in blocks:
        deg = np.diff(block.offsets)
        keep = deg > 0
        sources.append(np.asarray(block.sources, dtype=np.int64)[keep])
        degrees.append(deg[keep].astype(np.int64))
        dests.append(np.asarray(block.destinations, dtype=np.int64))
    empty = np.empty(0, dtype=np.int64)
    return (np.concatenate(sources) if sources else empty,
            np.concatenate(degrees) if degrees else empty,
            np.concatenate(dests) if dests else empty)


def check_simple_graph(sources: np.ndarray, degrees: np.ndarray,
                       dests: np.ndarray, num_vertices: int) -> int:
    """Check rows read back from an output and return its edge count.

    Every ID is in ``[0, num_vertices)``, each source has one row and
    rows come in increasing source order, and each row's destinations
    strictly increase.  Together these say the packed keys
    ``u * |V| + v`` strictly increase: no edge repeats.
    """
    if sources.shape != degrees.shape:
        raise CheckFailed("row count mismatch between sources and degrees")
    if int(degrees.sum()) != dests.size:
        raise CheckFailed(f"degrees sum to {int(degrees.sum())} but "
                          f"{dests.size} destinations were read")
    if np.any(degrees < 0):
        raise CheckFailed("negative degree")
    for label, ids in (("source", sources), ("destination", dests)):
        bad = (ids < 0) | (ids >= num_vertices)
        if bad.any():
            raise CheckFailed(f"{label} ID {int(ids[bad][0])} outside "
                              f"[0, {num_vertices})")
    if sources.size > 1 and np.any(np.diff(sources) <= 0):
        at = int(np.argmax(np.diff(sources) <= 0)) + 1
        raise CheckFailed(f"row {at} (source {int(sources[at])}) does not "
                          f"follow source {int(sources[at - 1])}: a source "
                          "repeats or rows are out of order")
    if dests.size > 1:
        # A step inside a row must go up; steps that cross into the next
        # row are exempt.
        row_start = np.zeros(dests.size, dtype=bool)
        starts = np.cumsum(degrees)[:-1]
        row_start[starts[starts < dests.size]] = True
        bad = (np.diff(dests) <= 0) & ~row_start[1:]
        if bad.any():
            at = int(np.argmax(bad)) + 1
            row = int(np.searchsorted(np.cumsum(degrees), at, side="right"))
            raise CheckFailed(f"destinations of source {int(sources[row])} "
                              f"do not strictly increase (repeat or "
                              f"disorder at {int(dests[at])})")
    return int(dests.size)


def edge_set_digest(sources: np.ndarray, degrees: np.ndarray,
                    dests: np.ndarray) -> str:
    """Digest of a checked edge set, to compare two outputs of one run
    with each other (never with a stored value)."""
    h = hashlib.sha256()
    for arr in (sources, degrees, dests):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def file_digests(paths: Iterable[Path]) -> dict[str, str]:
    """sha256 of each file's bytes, keyed by file name."""
    out = {}
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 22), b""):
                h.update(chunk)
        out[Path(path).name] = h.hexdigest()
    return out
