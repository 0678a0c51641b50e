"""The four workloads, and the child process that runs one of them.

``run.py`` starts this file once per measured run, so every run pays a
fresh ``import repro`` exactly as a user does::

    python3 pipebench/workloads.py run   --workload W --seed S --out DIR
    python3 pipebench/workloads.py trace --workload W --seed S --out DIR
    python3 pipebench/workloads.py check --workload W --seed S --out DIR

``run`` is the untraced public call; ``trace`` writes the same output
through the same public functions with a span around each layer call;
``check`` reads an output back and checks it.  Each prints one JSON
object as its last line.  Only the standard library is imported at
module level, so the set-up clock starts before ``numpy`` loads.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from measure import (Recorder, parallel_efficiency, ratio, self_times,
                     summarize, time_skew)

EDGE_FACTOR = 16
SAMPLER = "bitwise"
#: LocalCluster shape of ``avs-cluster-adj6``: one process per core of
#: the 2-core reference host.
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str       # "avs" (sequential facade), "cluster" or "wesp"
    scale: int
    fmt: str
    why: str


_AVS_SCALE = 18

WORKLOADS = {w.name: w for w in (
    Workload("avs-seq-adj6", "avs", _AVS_SCALE, "adj6",
             "Sequential AVS to ADJ6: core (scope sizes, sampling, "
             "dedup/top-up, hub block 0) is most of the wall time."),
    Workload("avs-seq-tsv", "avs", 17, "tsv",
             "Same generator to TSV: formats (text encode, 1.7x the "
             "bytes) dominates, so a core gain is diluted here."),
    Workload("avs-cluster-adj6", "cluster", _AVS_SCALE, "adj6",
             "The avs-seq-adj6 graph through LocalCluster with 2 "
             "workers: the only workload through dist; the slowest "
             "part sets the wall."),
    Workload("wesp-disk-adj6", "wesp", 18, "adj6",
             "WES/p-disk baseline: the only workload through util "
             "(shuffle, spill, external merge); no core code runs."),
)}


def output_files(out: Path, workload: Workload) -> list[Path]:
    if workload.kind == "cluster":
        return sorted((out / "parts").glob(f"part-*.{workload.fmt}"))
    return [out / f"graph.{workload.fmt}"]


def _peak_rss_mib() -> float:
    """Largest peak RSS of this process or any worker it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _construct(workload: Workload, seed: int, out: Path):
    """Import repro and build the public entry point of ``workload``."""
    import repro
    if workload.kind == "wesp":
        from repro.models.wesp import WespDiskGenerator
        return WespDiskGenerator(workload.scale, EDGE_FACTOR, seed=seed,
                                 spill_dir=str(out))
    cluster = None
    if workload.kind == "cluster":
        from repro.dist import ClusterSpec
        cluster = ClusterSpec(1, WORKERS)
    return repro.TrillionG(workload.scale, EDGE_FACTOR, sampler=SAMPLER,
                           seed=seed, cluster=cluster)


# ----------------------------------------------------------------------
# Untraced run
# ----------------------------------------------------------------------

def run_untraced(workload: Workload, seed: int, out: Path) -> dict:
    t0 = time.perf_counter()
    entry = _construct(workload, seed, out)
    t1 = time.perf_counter()
    extra = {}
    if workload.kind == "wesp":
        result = entry.write_to(out / f"graph.{workload.fmt}", workload.fmt)
        extra["realized_edges"] = entry.report.realized_edges
    elif workload.kind == "cluster":
        result = entry.generate_to(out / "parts", workload.fmt)
    else:
        result = entry.generate_to(out / f"graph.{workload.fmt}",
                                   workload.fmt)
    t2 = time.perf_counter()
    rss = _peak_rss_mib()
    from verify import file_digests
    files = output_files(out, workload)
    return {"setup_s": t1 - t0, "wall_s": t2 - t1,
            "edges": int(result.num_edges),
            "bytes": sum(p.stat().st_size for p in files),
            "rss_mib": rss, "sha256": file_digests(files), **extra}


# ----------------------------------------------------------------------
# Traced run: the same calls written out, one span per layer call
# ----------------------------------------------------------------------

def _trace_avs(workload: Workload, seed: int, out: Path,
               rec: Recorder) -> dict:
    """``write_blocks`` written out: scope sizes, block, encode, close."""
    from repro.formats import get_format
    gen = _construct(workload, seed, out).generator
    path = out / f"graph.{workload.fmt}"
    num_blocks = -(-gen.num_vertices // gen.block_size)
    with rec.span("run"):
        with get_format(workload.fmt).open_writer(
                path, gen.num_vertices) as writer:
            for b in range(num_blocks):
                with rec.span("core.scope", block=b):
                    gen.block_degrees(b)
                with rec.span("core.block", block=b):
                    block = gen.generate_block(b)
                with rec.span("formats.encode", block=b):
                    writer.add_block(block)
            with rec.span("formats.close"):
                result = writer.close()
    blocks = [s.seconds for s in rec.named("core.block")]
    edges = result.num_edges
    return {
        "core.scope_s": sum(s.seconds for s in rec.named("core.scope")),
        "core.block_s": sum(blocks),
        "core.hub_block_s": max(blocks),
        "core.block_p50_ms": summarize(blocks).median * 1e3,
        "core.ns_per_edge": ratio(sum(blocks) * 1e9, edges),
        "core.useful_ratio": ratio(
            edges, edges + gen.stats.duplicates_discarded),
        "core.draws_per_edge": ratio(gen.stats.random_draws, edges),
        **_format_metrics(rec, result.bytes_written),
        "_hub_block": blocks.index(max(blocks)),
    }


def _format_metrics(rec: Recorder, bytes_written: int) -> dict:
    encode = sum(s.seconds for s in rec.named("formats.encode"))
    close = sum(s.seconds for s in rec.named("formats.close"))
    return {"formats.encode_s": encode, "formats.close_s": close,
            "formats.mb_per_s": ratio(bytes_written / 1e6, encode + close)}


def _trace_cluster(workload: Workload, seed: int, out: Path,
                   rec: Recorder) -> dict:
    """Partition and scatter as the facade does, then replay each
    partition in this process to see what it costs without a pool."""
    from repro.dist import LocalCluster, range_partition
    from repro.formats import get_format
    tg = _construct(workload, seed, out)
    gen = tg.generator
    with rec.span("run"):
        with rec.span("dist.partition"):
            ranges = range_partition(gen, WORKERS)
        with rec.span("dist.scatter"):
            dist = LocalCluster(tg.cluster).generate_to_files(
                gen, out / "parts", workload.fmt)
    replay = out / "replay"
    replay.mkdir()
    fmt = get_format(workload.fmt)
    with rec.span("dist.replay"):
        for i, r in enumerate(ranges):
            with rec.span("dist.part_work", part=i):
                fmt.write_blocks(replay / f"part-{i:04d}.{workload.fmt}",
                                 gen.iter_blocks(r.start, r.stop),
                                 gen.num_vertices)
    work = [s.seconds for s in rec.named("dist.part_work")]
    scatter = rec.named("dist.scatter")[0].seconds
    return {
        "dist.partition_s": rec.named("dist.partition")[0].seconds,
        "dist.scatter_s": scatter,
        "dist.part_work_max_s": max(work),
        "dist.part_work_sum_s": sum(work),
        "dist.parallel_efficiency": parallel_efficiency(
            sum(work), len(dist.workers), scatter),
        "dist.overhead_s": scatter - max(work),
        "dist.edge_skew": dist.skew,
        "dist.time_skew": time_skew(
            [w.elapsed_seconds for w in dist.workers]),
        "dist.retries": dist.num_retries + dist.num_fallbacks,
    }


def _trace_wesp(workload: Workload, seed: int, out: Path,
                rec: Recorder) -> dict:
    """``write_to`` written out, with a timing iterator around the
    external-memory key stream."""
    from repro.formats import blocks_from_sorted_keys, get_format
    gen = _construct(workload, seed, out)
    path = out / f"graph.{workload.fmt}"
    with rec.span("run"):
        with get_format(workload.fmt).open_writer(
                path, gen.num_vertices) as writer:
            chunks = rec.timed_iter("util.chunk",
                                    gen.iter_unique_key_chunks())
            for block in rec.timed_iter(
                    "formats.regroup",
                    blocks_from_sorted_keys(chunks, gen.num_vertices)):
                with rec.span("formats.encode"):
                    writer.add_block(block)
            with rec.span("formats.close"):
                result = writer.close()
    pulls = rec.named("util.chunk")
    rest = pulls[1:]
    report = gen.report
    merge_s = sum(s.seconds for s in rest)
    return {
        "util.first_chunk_s": pulls[0].seconds,
        "util.merge_s": merge_s,
        "util.merge_keys_per_s": ratio(
            sum(s.attrs.get("size", 0) for s in rest), merge_s),
        "util.dup_ratio": ratio(
            report.duplicates_discarded,
            report.realized_edges + report.duplicates_discarded),
        "models.generate_s": report.phase_seconds.get("generate", 0.0),
        "util.shuffle_s": report.phase_seconds.get("shuffle", 0.0),
        **_format_metrics(rec, result.bytes_written),
    }


_TRACERS = {"avs": _trace_avs, "cluster": _trace_cluster,
            "wesp": _trace_wesp}


def run_traced(workload: Workload, seed: int, out: Path) -> dict:
    rec = Recorder()
    metrics = _TRACERS[workload.kind](workload, seed, out, rec)
    from verify import file_digests
    # Every tracer opens "run" first: it spans the traced wall.
    root = rec.spans[0]
    metrics["trace.unattributed_s"] = self_times(rec.spans)[0]
    info = {k[1:]: metrics.pop(k) for k in list(metrics)
            if k.startswith("_")}
    payload = {"wall_s": root.seconds, "metrics": metrics, "info": info,
               "sha256": file_digests(output_files(out, workload)),
               "spans": rec.to_json()}
    if workload.kind == "cluster":
        payload["replay_sha256"] = file_digests(
            sorted((out / "replay").iterdir()))
    return payload


# ----------------------------------------------------------------------
# Output check (outside every timed region)
# ----------------------------------------------------------------------

def check_output(workload: Workload, seed: int, out: Path) -> dict:
    """Read the output back and check it; raise CheckFailed on a breach.

    AVS: the edge count must equal the sum of a fresh generator's
    Theorem 1 scope sizes, and the cluster's parts must hold exactly the
    edge set of a sequential pass over the same seed.  WES/p: the count
    is returned for the caller to compare with ``report.realized_edges``.
    """
    import repro
    from verify import (CheckFailed, check_simple_graph, edge_set_digest,
                        read_rows, rows_from_blocks)
    rows = read_rows(output_files(out, workload), workload.fmt)
    num_vertices = 1 << workload.scale
    edges = check_simple_graph(*rows, num_vertices)
    if workload.kind != "wesp":
        gen = repro.RecursiveVectorGenerator(
            workload.scale, EDGE_FACTOR, sampler=SAMPLER, seed=seed)
        expected = int(gen.degrees().sum())
        if edges != expected:
            raise CheckFailed(f"{edges} edges read back, but the scope "
                              f"sizes sum to {expected}")
        if workload.kind == "cluster":
            sequential = rows_from_blocks(gen.iter_blocks())
            if edge_set_digest(*rows) != edge_set_digest(*sequential):
                raise CheckFailed("the parts' edge set differs from a "
                                  "sequential run of the same seed")
    return {"edges": edges}


_MODES = {"run": run_untraced, "trace": run_traced, "check": check_output}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(_MODES))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "check":
        from verify import CheckFailed
        try:
            payload = check_output(workload, args.seed, args.out)
        except CheckFailed as exc:
            print(json.dumps({"check_failed": str(exc)}))
            return 1
    else:
        payload = _MODES[args.mode](workload, args.seed, args.out)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
