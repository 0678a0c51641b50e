"""External sort with duplicate elimination: the bounded-RAM merge engine.

The disk-based WES variants (RMAT-disk, WES/p-disk) eliminate repeated
edges by external sort: sorted runs are spilled to disk during generation
(:mod:`repro.util.spill`) and k-way merged afterwards with equal keys
collapsed.  Runs are flat little-endian int64 files of packed edge keys
(``u * |V| + v``).

The engine is pipelined and memory-bounded end to end
(``docs/external_memory.md``):

- :func:`merge_sorted_runs` streams one k-way merge in chunks, so its
  peak memory is ``O(k * chunk)`` keys;
- :func:`iter_unique_keys` caps ``k`` at a configurable **fan-in**:
  when more runs exist than the fan-in, groups of ``fan_in`` runs are
  merged into intermediate runs (a *merge pass*, planned by
  :class:`MergePlan`) until one final merge of at most ``fan_in`` runs
  can stream to the consumer — peak memory ``O(fan_in * chunk)`` keys
  regardless of run count or total volume;
- run readers optionally **prefetch**: a daemon thread reads the next
  chunk while the merge consumes the current one (the
  ``ThreadedSink`` pattern from :mod:`repro.formats.pipeline`, with the
  same deferred-error discipline — a reader thread failure surfaces on
  the consumer side, never silently truncates a merge);
- intermediate merge passes are **resumable**: with ``resume=True`` a
  manifest (fsync + atomic rename, like the checkpoint layer) records
  completed intermediate runs, and a re-run after SIGKILL skips them —
  including adoption of runs completed in the rename -> manifest
  window, after verifying they are strictly increasing.

Everything is observable through the ``extsort.*`` telemetry family
(``docs/observability.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigurationError, DataError
from ..telemetry import Stopwatch, registry
from .spill import fsync_dir, write_run, write_run_chunks

__all__ = ["DEFAULT_CHUNK_ITEMS", "DEFAULT_FAN_IN", "MergePlan",
           "write_run", "sorted_unique", "merge_chunk_items",
           "merge_sorted_runs", "iter_unique_keys", "collect_chunks",
           "external_sort_unique"]

#: Keys buffered per run by the merge (512 KiB of int64 per reader).
DEFAULT_CHUNK_ITEMS = 1 << 16
#: Runs merged at once before an intermediate pass is triggered.
DEFAULT_FAN_IN = 16


def sorted_unique(sorted_keys: np.ndarray) -> np.ndarray:
    """Drop repeats from an already-sorted key array (one mask pass, no
    re-sort as ``np.unique`` would do)."""
    if sorted_keys.size <= 1:
        return sorted_keys
    keep = np.empty(sorted_keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
    return sorted_keys[keep]


def merge_chunk_items(spill_chunk: int | None, batch_edges: int,
                      fan_in: int) -> int:
    """Keys per run read by a spilling generator's merge.

    An explicit ``spill_chunk`` wins; otherwise ``batch_edges // fan_in``,
    so the ``fan_in`` runs of one merge buffer about one generation
    batch between them and no merged chunk exceeds ``batch_edges``.
    """
    return spill_chunk or max(1, batch_edges // fan_in)


class _RunReader:
    """Chunked sequential reader over one sorted run file.

    Holds one file handle for the lifetime of the reader (a k-way merge
    calls ``next_chunk`` O(total/chunk) times per run; reopening and
    seeking every call costs a syscall pair per chunk and defeats the
    OS readahead).  Close via :meth:`close` or use as a context manager.

    Rejects files whose size is not a whole number of int64 keys: runs
    are written atomically (:mod:`repro.util.spill`), so a ragged size
    means a torn artifact from a foreign writer — merging its prefix
    silently would corrupt a resumed run.
    """

    def __init__(self, path: Path, chunk_items: int) -> None:
        self._path = Path(path)
        self._chunk = max(chunk_items, 1)
        self._offset = 0
        size = self._path.stat().st_size
        if size % 8 != 0:
            raise DataError(
                f"torn spill run {self._path.name}: {size} bytes is not "
                "a whole number of int64 keys (crashed non-atomic "
                "writer?); delete the file and regenerate")
        self._total = size // 8
        self._file = open(self._path, "rb")

    def next_chunk(self) -> np.ndarray | None:
        """Return the next chunk of keys, or None at end of run."""
        if self._offset >= self._total:
            return None
        count = min(self._chunk, self._total - self._offset)
        # The handle is private and only advanced here, so the file
        # position is always exactly offset * 8: plain sequential reads.
        chunk = np.fromfile(self._file, dtype=np.int64, count=count)
        self._offset += count
        return chunk

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "_RunReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __iter__(self) -> Iterator[int]:
        while True:
            chunk = self.next_chunk()
            if chunk is None:
                return
            yield from chunk.tolist()


class _PrefetchReader:
    """Double-buffered read-ahead over a :class:`_RunReader`.

    A daemon thread keeps a small bounded queue of upcoming chunks
    filled, so disk latency overlaps the merge's CPU work — the read
    side of the ``ThreadedSink`` pattern (:mod:`repro.formats.pipeline`)
    with the same torn-handoff discipline: an exception in the reader
    thread is parked and re-raised on the *consumer* side by the next
    :meth:`next_chunk`, never swallowed into a silently-short run.

    Time the consumer spends blocked on an empty queue (i.e. disk slower
    than merge) accumulates into ``extsort.readahead_wait_seconds``.
    """

    #: Chunks buffered ahead of the consumer (double buffering).
    DEPTH = 2
    _DONE = object()

    def __init__(self, path: Path, chunk_items: int) -> None:
        self._reader = _RunReader(path, chunk_items)
        self._queue: queue.Queue = queue.Queue(maxsize=self.DEPTH)
        self._error: BaseException | None = None
        self._error_lock = threading.Lock()
        self._stop = threading.Event()
        self._wait_watch = Stopwatch()
        self._thread = threading.Thread(
            target=self._pump, name=f"extsort-prefetch-{Path(path).name}",
            daemon=True)
        self._thread.start()

    def _pump(self) -> None:
        try:
            while not self._stop.is_set():
                chunk = self._reader.next_chunk()
                self._put(chunk if chunk is not None else self._DONE)
                if chunk is None:
                    return
        except (OSError, ValueError, DataError) as exc:
            with self._error_lock:
                self._error = exc
            self._put(self._DONE)

    def _put(self, item: object) -> None:
        # Bounded put with a stop check so close() never deadlocks
        # against a full queue the consumer stopped draining.
        while True:
            try:
                self._queue.put(item, timeout=0.05)
                return
            except queue.Full:
                if self._stop.is_set():
                    return

    def _check(self) -> None:
        with self._error_lock:
            error, self._error = self._error, None
        if error is not None:
            raise error

    def next_chunk(self) -> np.ndarray | None:
        with self._wait_watch:
            item = self._queue.get()
        if item is self._DONE:
            self._check()
            return None
        return item  # type: ignore[return-value]

    def close(self) -> None:
        self._stop.set()
        # Drain so a blocked producer put() can observe the stop flag.
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join()
        self._reader.close()
        registry().counter("extsort.readahead_wait_seconds").inc(
            self._wait_watch.seconds)

    def __enter__(self) -> "_PrefetchReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def merge_sorted_runs(paths: Iterable[Path],
                      chunk_items: int = DEFAULT_CHUNK_ITEMS, *,
                      prefetch: bool = False) -> Iterator[np.ndarray]:
    """K-way merge of sorted runs, yielding sorted, duplicate-free chunks.

    The merge loop is fully vectorized: with every live run holding a
    non-empty buffered chunk, everything at or below
    ``bound = min(buffer tails)`` across *all* runs is already buffered,
    so each iteration slices those prefixes out (one ``searchsorted``
    per run), emits ``np.unique`` of their concatenation, and refills
    the run(s) whose buffer drained.  At least one whole chunk is
    consumed per iteration, so the loop runs O(total / chunk_items)
    times regardless of how tightly the runs interleave — a per-element
    heap merge degrades to O(total) Python steps on runs that each span
    the whole key space, which is exactly what RMAT spills look like.

    Keys equal to ``bound`` may recur at the head of a refilled chunk
    (an intra-run duplicate straddling a chunk boundary); the
    ``last_emitted`` guard drops them on the next iteration.

    With ``prefetch`` each run is read through a background read-ahead
    thread (:class:`_PrefetchReader`), overlapping disk I/O with merge
    CPU.  Peak buffered volume (per-run chunks plus the pending output)
    is sampled into the ``extsort.peak_buffered_items`` max-gauge.
    """
    peak_gauge = registry().gauge("extsort.peak_buffered_items",
                                  mode="max")
    readers: list[_RunReader | _PrefetchReader] = []
    try:
        for p in paths:
            readers.append(_PrefetchReader(p, chunk_items) if prefetch
                           else _RunReader(p, chunk_items))
        buffers: dict[int, np.ndarray] = {}

        def refill(idx: int) -> None:
            while True:
                chunk = readers[idx].next_chunk()
                if chunk is None:
                    buffers.pop(idx, None)
                    return
                if chunk.size:
                    buffers[idx] = chunk
                    return

        for idx in range(len(readers)):
            refill(idx)

        last_emitted: int | None = None
        while buffers:
            bound = min(int(arr[-1]) for arr in buffers.values())
            parts = []
            for idx in list(buffers):
                arr = buffers[idx]
                cut = int(np.searchsorted(arr, bound, side="right"))
                if cut == 0:
                    continue
                parts.append(arr[:cut])
                if cut < arr.size:
                    buffers[idx] = arr[cut:]
                else:
                    refill(idx)
            # The concatenation is k already-sorted runs — timsort's
            # best case, and far faster than hash-based np.unique.
            merged = sorted_unique(np.sort(np.concatenate(parts),
                                           kind="stable"))
            if last_emitted is not None:
                start = int(np.searchsorted(merged, last_emitted,
                                            side="right"))
                merged = merged[start:]
            peak_gauge.set(float(
                sum(int(a.size) for a in buffers.values())
                + int(merged.size)))
            if merged.size:
                last_emitted = int(merged[-1])
                yield merged
    finally:
        # Generator finalization (exhaustion, close(), or an exception
        # mid-merge) must not leak the per-run handles or threads.
        for reader in readers:
            reader.close()


@dataclass(frozen=True)
class MergePlan:
    """Deterministic multi-pass merge schedule for bounded fan-in.

    ``passes[k]`` holds the ``(lo, hi)`` group slices over the run list
    entering intermediate pass ``k`` (each group at most ``fan_in`` runs
    wide, groups in run order); after the last intermediate pass at most
    ``fan_in`` runs remain for the final streaming merge.  The schedule
    is a pure function of ``(num_runs, fan_in)`` — the property resume
    relies on to re-derive intermediate run names after a crash.
    """

    num_runs: int
    fan_in: int
    passes: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def plan(cls, num_runs: int, fan_in: int) -> "MergePlan":
        if fan_in < 2:
            raise ConfigurationError("fan_in must be >= 2")
        if num_runs < 0:
            raise ConfigurationError("num_runs must be >= 0")
        passes: list[tuple[tuple[int, int], ...]] = []
        n = num_runs
        while n > fan_in:
            groups = tuple((lo, min(lo + fan_in, n))
                           for lo in range(0, n, fan_in))
            passes.append(groups)
            n = len(groups)
        return cls(num_runs, fan_in, tuple(passes))

    @property
    def num_intermediate_passes(self) -> int:
        return len(self.passes)

    @property
    def num_intermediate_runs(self) -> int:
        return sum(len(groups) for groups in self.passes)


class _MergeManifest:
    """Resume ledger for completed intermediate merge runs.

    The checkpoint-manifest discipline (:mod:`repro.dist.checkpoint`)
    applied to merge passes: a JSON manifest keyed by a **signature** of
    the merge inputs (run basenames + sizes + fan-in) records every
    intermediate run that finished, and is itself written via fsync +
    atomic rename so power loss never surfaces a truncated ledger.

    On open: stale ``*.partial*`` temporaries are swept; if the manifest
    is missing, unparsable, or signed for different inputs, leftover
    intermediate runs are **purged** (their provenance cannot be
    verified) and the merge starts clean.  A run completed in the
    rename -> manifest window of a matching-signature crash is *adopted*
    after verifying it is strictly increasing, instead of re-merged.
    """

    FILENAME = "extsort-manifest.json"

    def __init__(self, directory: Path, run_paths: list[Path],
                 fan_in: int) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self.signature = self._signature(run_paths, fan_in)
        self.completed: dict[str, int] = {}
        matched = self._load()
        self._sweep(purge_runs=not matched)

    @staticmethod
    def _signature(run_paths: list[Path], fan_in: int) -> str:
        doc = {"fan_in": fan_in,
               "runs": [[Path(p).name, Path(p).stat().st_size]
                        for p in run_paths]}
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def _load(self) -> bool:
        """Parse the manifest; True iff it matches this merge's inputs."""
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
            if doc.get("signature") != self.signature:
                return False
            self.completed = {str(name): int(size)
                              for name, size in doc["completed"].items()}
            return True
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError, AttributeError):
            return False

    def _sweep(self, *, purge_runs: bool) -> None:
        for tmp in self.directory.glob("*.partial*"):
            tmp.unlink(missing_ok=True)
        if purge_runs:
            # No trustworthy ledger: leftover intermediates may belong
            # to different inputs (same deterministic names), so they
            # cannot be adopted — sortedness alone does not prove
            # provenance.
            for stale in self.directory.glob("merge-*.run"):
                stale.unlink(missing_ok=True)
            self.completed = {}

    def mark(self, path: Path) -> None:
        """Record ``path`` as a completed intermediate run (durable)."""
        self.completed[path.name] = path.stat().st_size
        doc = {"signature": self.signature, "completed": self.completed}
        tmp = self.path.with_name(
            f"{self.path.name}.partial.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
                handle.flush()
                os.fsync(handle.fileno())
            tmp.replace(self.path)
        finally:
            tmp.unlink(missing_ok=True)
        fsync_dir(self.directory)

    def is_complete(self, path: Path, chunk_items: int) -> bool:
        """True iff ``path`` is a finished intermediate run we may reuse."""
        recorded = self.completed.get(path.name)
        if recorded is not None:
            if path.exists() and path.stat().st_size == recorded \
                    and recorded % 8 == 0:
                return True
            del self.completed[path.name]
            return False
        if not path.exists():
            return False
        # Rename -> manifest crash window: the file carries our
        # deterministic name and the ledger's signature matches this
        # input set, so adopt it once its content checks out.
        if _verify_strictly_increasing(path, chunk_items):
            self.mark(path)
            return True
        path.unlink(missing_ok=True)
        return False


def _verify_strictly_increasing(path: Path, chunk_items: int) -> bool:
    """Streaming check that a run is sorted and duplicate-free."""
    try:
        with _RunReader(path, chunk_items) as reader:
            last: int | None = None
            while (chunk := reader.next_chunk()) is not None:
                if chunk.size == 0:
                    continue
                if last is not None and int(chunk[0]) <= last:
                    return False
                if chunk.size > 1 and not bool(
                        np.all(chunk[1:] > chunk[:-1])):
                    return False
                last = int(chunk[-1])
        return True
    except (DataError, OSError):
        return False


def iter_unique_keys(paths: Iterable[Path], *,
                     chunk_items: int = DEFAULT_CHUNK_ITEMS,
                     fan_in: int = DEFAULT_FAN_IN,
                     spill_dir: Path | str | None = None,
                     prefetch: bool = True,
                     resume: bool = False) -> Iterator[np.ndarray]:
    """Stream the sorted, duplicate-free union of sorted runs.

    The bounded-RAM entry point: at most ``fan_in`` runs are ever open
    in one merge, so peak memory is ``O(fan_in * chunk_items)`` keys.
    More runs than ``fan_in`` trigger intermediate merge passes
    (:class:`MergePlan`) whose outputs land in ``spill_dir`` (a private
    temporary directory when ``None``).  With ``resume=True`` (requires
    a persistent ``spill_dir``) completed intermediate runs from an
    interrupted earlier call are skipped via :class:`_MergeManifest`.
    """
    runs = [Path(p) for p in paths]
    if fan_in < 2:
        raise ConfigurationError("fan_in must be >= 2")
    if chunk_items < 1:
        raise ConfigurationError("chunk_items must be >= 1")
    if resume and spill_dir is None:
        raise ConfigurationError(
            "resume=True requires a persistent spill_dir")
    reg = registry()
    reg.gauge("extsort.fan_in").set(float(fan_in))
    if len(runs) <= fan_in:
        yield from merge_sorted_runs(runs, chunk_items, prefetch=prefetch)
        return
    own: tempfile.TemporaryDirectory | None = None
    if spill_dir is None:
        own = tempfile.TemporaryDirectory(prefix="extsort-")
        work = Path(own.name)
    else:
        work = Path(spill_dir)
        work.mkdir(parents=True, exist_ok=True)
    try:
        plan = MergePlan.plan(len(runs), fan_in)
        manifest = _MergeManifest(work, runs, fan_in) if resume else None
        level_runs = runs
        for level, groups in enumerate(plan.passes):
            next_runs: list[Path] = []
            for gi, (lo, hi) in enumerate(groups):
                out = work / f"merge-L{level:02d}-G{gi:05d}.run"
                if manifest is not None and manifest.is_complete(
                        out, chunk_items):
                    reg.counter("extsort.merge_runs_resumed").inc()
                else:
                    write_run_chunks(
                        merge_sorted_runs(level_runs[lo:hi], chunk_items,
                                          prefetch=prefetch), out)
                    if manifest is not None:
                        manifest.mark(out)
                next_runs.append(out)
            reg.counter("extsort.merge_passes").inc()
            level_runs = next_runs
        yield from merge_sorted_runs(level_runs, chunk_items,
                                     prefetch=prefetch)
    finally:
        if own is not None:
            own.cleanup()


def collect_chunks(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Materialize a key-chunk stream into one int64 array.

    The engine's *explicit* in-memory terminal: APIs whose contract is a
    whole edge array (``ScopeBasedGenerator.generate``) route through
    this helper so every full materialization is visible and greppable.
    Inline collection of a merge stream in the producer layers
    (``np.concatenate(list(...))`` and friends) is flagged by reprolint
    RPL520 — stream to a writer instead whenever possible.
    """
    parts = [np.asarray(chunk, dtype=np.int64) for chunk in chunks]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def external_sort_unique(paths: Iterable[Path],
                         chunk_items: int = DEFAULT_CHUNK_ITEMS, *,
                         fan_in: int = DEFAULT_FAN_IN,
                         spill_dir: Path | str | None = None
                         ) -> np.ndarray:
    """Merge sorted runs into one duplicate-free sorted array.

    Compatibility wrapper over :func:`iter_unique_keys` +
    :func:`collect_chunks` — by construction it holds the whole merged
    set in memory, so the bounded-RAM paths (models, dist) must use the
    streaming API instead (enforced by reprolint RPL520).
    """
    return collect_chunks(iter_unique_keys(
        paths, chunk_items=chunk_items, fan_in=fan_in,
        spill_dir=spill_dir, prefetch=False))
