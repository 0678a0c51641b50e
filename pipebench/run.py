"""Whole-pipeline benchmark of the TrillionG reproduction.

Run from the repository root::

    python3 pipebench/run.py --workload avs-seq-adj6 --seed 1 --seconds 36
    python3 pipebench/run.py --workload all --trace 1

Each measured run is a fresh child process (``workloads.py``), one at a
time, writing into a temporary directory under ``.pipebench/tmp`` that
is deleted afterwards.  With ``--trace 0`` the end-to-end metrics come
from untraced runs; with ``--trace 1`` untraced runs alternate with
traced ones and the per-layer metrics come from the traced runs.  Every
run's output is checked outside the timed region.  A human-readable
table goes to standard output, and its last line is one JSON object.
The exit code is 1 if any run failed or any check failed.

See ``pipebench/README.md`` for the workloads, the metric catalog and
the predicted interactions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import Span, Tally, layer_self_seconds, ratio, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "pipebench"
SCRATCH = ROOT / ".pipebench"

#: The seed used while a change is developed and measured.
DEFAULT_SEED = 1
#: Held out: a claimed gain is re-checked on this seed, which must not
#: be used while the change is written.
HELD_OUT_SEED = 7

#: Kill a child that runs longer than this; the run counts as failed.
CHILD_TIMEOUT_S = 120.0
#: Measurement steps per workload even when ``--seconds`` is short.
MIN_STEPS = {False: 3, True: 2}

END_TO_END = {
    "edges_per_s": "edges/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "bytes_per_edge": "B/edge",
}

PER_LAYER = {
    "core.scope_s": "s",
    "core.block_s": "s",
    "core.hub_block_s": "s",
    "core.block_p50_ms": "ms",
    "core.ns_per_edge": "ns/edge",
    "core.useful_ratio": "ratio",
    "core.draws_per_edge": "draws/edge",
    "formats.encode_s": "s",
    "formats.close_s": "s",
    "formats.mb_per_s": "MB/s",
    "dist.partition_s": "s",
    "dist.scatter_s": "s",
    "dist.part_work_max_s": "s",
    "dist.part_work_sum_s": "s",
    "dist.parallel_efficiency": "ratio",
    "dist.overhead_s": "s",
    "dist.edge_skew": "ratio",
    "dist.time_skew": "ratio",
    "dist.retries": "count",
    "util.first_chunk_s": "s",
    "util.merge_s": "s",
    "util.merge_keys_per_s": "keys/s",
    "util.dup_ratio": "ratio",
    "models.generate_s": "s",
    "util.shuffle_s": "s",
    "telemetry.overhead": "ratio",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


def run_json(cmd: list[str], env: dict, timeout: float
             ) -> tuple[dict | None, str | None]:
    """Run ``cmd`` to completion and parse the JSON on its last line.

    Returns ``(payload, None)`` on success and ``(None, reason)`` when
    the process raised, timed out, printed no result or reported a
    failed check.  The child gets its own process group, so a timeout
    also kills any worker it started.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    try:
        payload = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        payload = None
    if isinstance(payload, dict) and "check_failed" in payload:
        return None, f"check failed: {payload['check_failed']}"
    if proc.returncode != 0 or not isinstance(payload, dict):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return payload, None


class WorkloadRun:
    """Repeated runs of one workload and everything they measured."""

    def __init__(self, name: str, seed: int, trace: bool,
                 tmp: Path) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.tmp = tmp
        self.tally = Tally()
        self.steps = 0
        #: Seconds spent in measured runs (checks are not counted).
        self.measured = 0.0
        self.untraced: list[dict] = []
        self.telemetry_off: list[dict] = []
        self.traced: list[dict] = []
        #: File digests of the first output that passed the full check;
        #: every later run must reproduce its bytes.
        self.reference: dict | None = None
        #: Edge count read back from that output.
        self.edges = 0

    # ------------------------------------------------------------------

    def _child(self, mode: str, out: Path, env_extra: dict | None = None
               ) -> tuple[dict | None, str | None]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        env.update(env_extra or {})
        cmd = [sys.executable, str(HERE / "workloads.py"), mode,
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--out", str(out)]
        return run_json(cmd, env, CHILD_TIMEOUT_S)

    def _rep(self, mode: str, env_extra: dict | None = None
             ) -> dict | None:
        out = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.tmp))
        try:
            start = time.perf_counter()
            payload, error = self._child(mode, out, env_extra)
            self.measured += time.perf_counter() - start
            if error is None:
                error = self._check(payload, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if error is not None:
            print(f"[{self.workload.name}] {mode}: {error}",
                  file=sys.stderr)
        return payload if self.tally.record(error) else None

    def _check(self, payload: dict, out: Path) -> str | None:
        """Check a run's output; the first output gets the full check."""
        if self.reference is None:
            checked, error = self._child("check", out)
            if error is not None:
                return error
            edges = checked["edges"]
            for field in ("edges", "realized_edges"):
                if payload.get(field, edges) != edges:
                    return (f"{edges} edges read back, the program "
                            f"reported {field}={payload[field]}")
            self.reference = payload["sha256"]
            self.edges = edges
            return None
        if payload["sha256"] != self.reference:
            return "output bytes differ from the checked run of this seed"
        replay = payload.get("replay_sha256")
        if replay is not None and \
                list(replay.values()) != list(self.reference.values()):
            return "in-process partition replay differs from the parts"
        return None

    def step(self) -> None:
        """One untraced run; in trace mode also one untraced run with
        telemetry off and one traced run."""
        payload = self._rep("run")
        if payload is not None:
            self.untraced.append(payload)
        if self.trace:
            for env, mode, into in (
                    ({"TRILLIONG_TELEMETRY": "0"}, "run",
                     self.telemetry_off),
                    (None, "trace", self.traced)):
                if self.reference is None:
                    break
                payload = self._rep(mode, env)
                if payload is not None:
                    into.append(payload)
        self.steps += 1

    def done(self, seconds: float) -> bool:
        """Enough steps, and one more would overshoot ``seconds`` by more
        than stopping now falls short of it."""
        if self.steps < MIN_STEPS[self.trace]:
            return False
        return self.measured + self.measured / self.steps / 2 >= seconds

    # ------------------------------------------------------------------

    def end_to_end(self) -> dict[str, list[float]]:
        runs = self.untraced
        return {
            "edges_per_s": [self.edges / p["wall_s"] for p in runs],
            "setup_s": [p["setup_s"] for p in runs],
            "peak_rss_mb": [p["rss_mib"] for p in runs],
            "bytes_per_edge": [p["bytes"] / self.edges for p in runs],
        }

    def per_layer(self) -> dict[str, list[float]]:
        """Per-layer values of the traced runs; a layer this workload
        does not run is absent."""
        values: dict[str, list[float]] = {}
        for payload in self.traced:
            for name, value in payload["metrics"].items():
                values.setdefault(name, []).append(value)
        walls = [p["wall_s"] for p in self.untraced]
        if self.traced and walls:
            values["trace.overhead"] = [ratio(
                summarize([p["wall_s"] for p in self.traced]).median,
                summarize(walls).median)]
        if self.telemetry_off and walls:
            off = [p["wall_s"] for p in self.telemetry_off]
            # edges/s with telemetry off over edges/s with it on.
            values["telemetry.overhead"] = [ratio(
                summarize(walls).median, summarize(off).median)]
        return values

    def layer_breakdown(self) -> dict[str, float]:
        """Median self seconds per layer over the traced runs."""
        per_run = []
        for payload in self.traced:
            spans = [Span(s["name"], s["start"], s["end"], s["parent"])
                     for s in payload["spans"]]
            per_run.append(layer_self_seconds(spans))
        layers = sorted({k for run in per_run for k in run})
        return {layer: summarize([r.get(layer, 0.0) for r in per_run]
                                 ).median for layer in layers}


def measure(runs: list[WorkloadRun], seconds: float) -> None:
    """Interleave the workloads' steps until each has measured
    ``seconds``, rotating the order so no workload always goes first."""
    cycle = 0
    while True:
        pending = [r for r in runs if not r.done(seconds)]
        if not pending:
            return
        k = cycle % len(pending)
        for run in pending[k:] + pending[:k]:
            run.step()
        cycle += 1


def _table(title: str, rows: dict[str, list[float]],
           units: dict[str, str]) -> list[str]:
    lines = [title, f"  {'metric':<26}{'unit':<12}{'median':>14}"
                    f"{'q1':>14}{'q3':>14}{'n':>4}"]
    for name, values in rows.items():
        s = summarize(values)
        lines.append(f"  {name:<26}{units[name]:<12}{s.median:>14.6g}"
                     f"{s.q1:>14.6g}{s.q3:>14.6g}{s.n:>4}")
    return lines


def report(run: WorkloadRun) -> tuple[list[str], dict]:
    """Human-readable lines and the ``metrics`` object of one workload.

    The metrics object names every metric of the mode; a layer the
    workload does not run reads 0 there and is left out of the table.
    """
    w, t = run.workload, run.tally
    lines = [f"== {w.name} (scale {w.scale}, {w.fmt}, seed {run.seed}): "
             f"{t.attempted} runs, {t.failed} failed, failed_share "
             f"{t.failed_share:.3g}"]
    if not run.untraced or (run.trace and not run.traced):
        return lines + ["  no successful run to report"], {}
    if not run.trace:
        rows = run.end_to_end()
        lines += _table("  end-to-end (untraced)", rows, END_TO_END)
        return lines, {name: {"value": summarize(v).median,
                              "unit": END_TO_END[name]}
                       for name, v in rows.items()}
    rows = run.per_layer()
    lines += _table("  per layer (traced)", rows, PER_LAYER)
    hub = [p["info"]["hub_block"] for p in run.traced
           if "hub_block" in p["info"]]
    if hub:
        share = ratio(summarize(rows["core.hub_block_s"]).median,
                      summarize(rows["core.block_s"]).median)
        lines.append(f"  slowest block: {sorted(set(hub))}, "
                     f"{share:.1%} of core.block_s")
    lines.append("  self seconds per layer (median of traced runs): "
                 + ", ".join(f"{k} {v:.4f}" for k, v in
                             run.layer_breakdown().items()))
    return lines, {name: {"value": summarize(rows[name]).median
                          if name in rows else 0.0, "unit": unit}
                   for name, unit in PER_LAYER.items()}


def write_traces(run: WorkloadRun) -> Path:
    path = SCRATCH / "traces" / f"{run.workload.name}-seed{run.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": run.workload.name, "seed": run.seed,
        "runs": [p["spans"] for p in run.traced]}))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Whole-pipeline benchmark (see pipebench/README.md).")
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for re-checking "
                             "a claimed gain)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measured run time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH / "tmp"))
    try:
        runs = [WorkloadRun(name, args.seed, bool(args.trace), tmp)
                for name in names]
        measure(runs, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics: dict = {}
    for run in runs:
        lines, found = report(run)
        if run.traced:
            lines.append(f"  spans: {write_traces(run).relative_to(ROOT)}")
        print("\n".join(lines))
        prefix = "" if len(runs) == 1 else f"{run.workload.name}."
        metrics.update({prefix + k: v for k, v in found.items()})
    attempted = sum(r.tally.attempted for r in runs)
    failed = sum(r.tally.failed for r in runs)
    correct = failed == 0 and all(r.untraced for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
