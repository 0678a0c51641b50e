"""Programmatic experiment harness: regenerate any paper figure/table.

The benchmark files under ``benchmarks/`` assert the paper's shape claims;
this module exposes the same experiments as plain functions returning row
dicts, so users can regenerate any figure from a notebook or the CLI
(``trilliong experiment --id fig9``) and get the data, not a pass/fail.

Measured experiments run at reduced scales on the local machine;
paper-scale experiments come from the calibrated cost model
(:mod:`repro.cluster`).  Each function documents which.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .analysis import (fit_gaussian, fit_kronecker_class_slope,
                       loglog_plot_distance, oscillation_score,
                       out_degrees)
from .cluster import (figure11a_series, figure11b_series, figure12_series,
                      figure14_series)
from .core.generator import IdeaToggles, RecursiveVectorGenerator
from .core.seed import UNIFORM
from .models import (FastKroneckerGenerator, Graph500Generator,
                     RmatDiskGenerator, RmatMemGenerator, TegGenerator,
                     TrillionGSeqGenerator)
from .rich_graph import (RichGraphGenerator, bibliographical_config,
                         seed_for_in_slope, seed_for_out_slope)

__all__ = ["EXPERIMENTS", "run_experiment", "available_experiments",
           "table2_rows", "table3_rows", "figure8_rows", "figure9_rows",
           "figure10_rows", "figure11a_measured_rows", "figure13_rows",
           "figure14_measured_rows"]

Rows = list[dict]


def table2_rows(scale: int = 12) -> Rows:
    """Table 2 (measured): search-structure sizes at ``scale``."""
    from .core.probability import brute_force_cdf
    from .core.recvec import build_recvec
    from .core.seed import GRAPH500
    cdf = brute_force_cdf(GRAPH500, 5, scale)
    recvec = build_recvec(GRAPH500, 5, scale)
    return [
        {"structure": "CDF vector", "search": "linear",
         "time": "O(|V|)", "entries": int(cdf.size),
         "bytes": int(cdf.nbytes)},
        {"structure": "CDF vector", "search": "binary",
         "time": "O(log |V|)", "entries": int(cdf.size),
         "bytes": int(cdf.nbytes)},
        {"structure": "RecVec", "search": "binary",
         "time": "O(log |V|)", "entries": int(recvec.size),
         "bytes": int(recvec.nbytes)},
    ]


def table3_rows(scale: int = 13, seed: int = 1) -> Rows:
    """Table 3 (measured): predicted vs measured distribution control."""
    rows = []
    for slope in (-1.0, -1.662, -2.2):
        matrix = seed_for_out_slope(slope)
        g = RecursiveVectorGenerator(scale, 16, matrix, seed=seed,
                                     sampler="bitwise")
        measured = fit_kronecker_class_slope(
            out_degrees(g.edges(), g.num_vertices))
        rows.append({"seed": f"Kout zipf({slope})", "predicted": slope,
                     "measured": round(measured, 3)})
    g = RecursiveVectorGenerator(scale, 16, UNIFORM, seed=seed,
                                 sampler="bitwise")
    fit = fit_gaussian(out_degrees(g.edges(), g.num_vertices))
    rows.append({"seed": "uniform (Gaussian)", "predicted": 16.0,
                 "measured": round(fit.mean, 2)})
    return rows


def figure8_rows(scale: int = 14, edge_factor: int = 16) -> Rows:
    """Figure 8 (measured): per-generator degree-plot summaries."""
    n = 1 << scale
    series = {}
    for cls, seed in ((RmatMemGenerator, 10), (FastKroneckerGenerator, 20),
                      (TrillionGSeqGenerator, 30), (TegGenerator, 40)):
        g = cls(scale, edge_factor, seed=seed)
        series[cls.name] = out_degrees(g.generate(), n)
    reference = series["RMAT-mem"]
    rows = []
    for name, degs in series.items():
        dist, common = loglog_plot_distance(reference, degs)
        rows.append({"generator": name, "edges": int(degs.sum()),
                     "d_max": int(degs.max()),
                     "plot_distance_vs_rmat": round(dist, 3),
                     "comparable_degrees": common})
    return rows


def figure9_rows(scale: int = 15, seeds: tuple = (1, 2, 3)) -> Rows:
    """Figure 9 (measured): oscillation vs noise, mean over seeds."""
    rows = []
    for noise in (0.0, 0.05, 0.1):
        scores = []
        for seed in seeds:
            g = RecursiveVectorGenerator(scale, 16, seed=seed,
                                         noise=noise, sampler="bitwise")
            scores.append(oscillation_score(
                out_degrees(g.edges(), g.num_vertices)))
        rows.append({"noise": noise,
                     "oscillation": round(float(np.mean(scores)), 4)})
    return rows


def figure10_rows(num_vertices: int = 1 << 14, seed: int = 21) -> Rows:
    """Figure 10 (measured): the author rectangle's two marginals."""
    config = bibliographical_config(num_vertices)
    author = RichGraphGenerator(config, seed=seed).generate_rule(0)
    src_lo, src_hi = config.vertex_range("researcher")
    dst_lo, dst_hi = config.vertex_range("paper")
    out_deg = np.bincount(author.edges[:, 0] - src_lo,
                          minlength=src_hi - src_lo)
    in_deg = np.bincount(author.edges[:, 1] - dst_lo,
                         minlength=dst_hi - dst_lo)
    in_fit = fit_gaussian(in_deg)
    return [
        {"side": "out (researcher)", "requested": "zipfian(-1.662)",
         "measured": f"slope "
                     f"{fit_kronecker_class_slope(out_deg):.3f}"},
        {"side": "in (paper)", "requested": "gaussian",
         "measured": f"mean {in_fit.mean:.2f} std {in_fit.std:.2f} "
                     f"kurtosis {in_fit.excess_kurtosis:.2f}"},
    ]


def figure11a_measured_rows(scales: tuple = (12, 13, 14)) -> Rows:
    """Figure 11(a) (measured, reduced scales): wall seconds."""
    rows = []
    for cls in (RmatMemGenerator, RmatDiskGenerator,
                FastKroneckerGenerator, TrillionGSeqGenerator):
        row: dict = {"model": cls.name}
        for scale in scales:
            g = cls(scale, 16, seed=7)
            t0 = time.perf_counter()
            g.generate()
            row[f"scale{scale}"] = round(time.perf_counter() - t0, 3)
        rows.append(row)
    return rows


def figure13_rows(scale: int = 11, edge_factor: int = 8) -> Rows:
    """Figure 13 (measured): idea ablation times and work counters."""
    rows = []
    for i1 in (False, True):
        for i2 in (False, True):
            for i3 in (False, True):
                g = RecursiveVectorGenerator(
                    scale, edge_factor, seed=13, sampler="reference",
                    ideas=IdeaToggles(i1, i2, i3))
                t0 = time.perf_counter()
                g.edges()
                rows.append({
                    "idea1": i1, "idea2": i2, "idea3": i3,
                    "seconds": round(time.perf_counter() - t0, 3),
                    "recursions": g.stats.recursion_steps,
                    "draws": g.stats.random_draws,
                    "recvec_builds": g.stats.recvec_builds,
                })
    return rows


def figure14_measured_rows(scale: int = 13) -> Rows:
    """Figure 14 (measured): the Graph500-model pipeline's phases."""
    g = Graph500Generator(scale, 16, seed=2)
    g.generate()
    rows = [{"phase": k, "seconds": round(v, 4)}
            for k, v in g.report.phase_seconds.items()]
    rows.append({"phase": "construction_ratio",
                 "seconds": round(g.construction_overhead_ratio(), 4)})
    return rows


def _series_rows(series) -> Rows:
    return [{"model": r.model, "scale": r.scale, "elapsed": r.cell(),
             "peak_mem_MB": round(r.peak_memory_bytes / 2**20),
             "construction_ratio": round(r.construction_ratio, 3)}
            for r in series]


#: Registry: experiment id -> (description, callable).
EXPERIMENTS: dict[str, tuple[str, Callable[[], Rows]]] = {
    "table2": ("CDF vector vs RecVec (measured)", table2_rows),
    "table3": ("seed params vs distributions (measured)", table3_rows),
    "fig8": ("degree plots of four generators (measured)", figure8_rows),
    "fig9": ("NSKG oscillation vs noise (measured)", figure9_rows),
    "fig10": ("ERV rich-graph marginals (measured)", figure10_rows),
    "fig11a-measured": ("single-thread wall times (measured, reduced "
                        "scales)", figure11a_measured_rows),
    "fig11a": ("single-thread comparison (cost model, paper scales)",
               lambda: _series_rows(figure11a_series())),
    "fig11b": ("distributed comparison (cost model, paper scales)",
               lambda: _series_rows(figure11b_series())),
    "fig12": ("TrillionG scalability (cost model, paper scales)",
              lambda: _series_rows(figure12_series())),
    "fig13": ("idea ablation (measured)", figure13_rows),
    "fig14-measured": ("Graph500 pipeline phases (measured)",
                       figure14_measured_rows),
    "fig14": ("TrillionG vs Graph500 (cost model, paper scales)",
              lambda: _series_rows(figure14_series())),
}


def available_experiments() -> list[str]:
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str) -> Rows:
    """Run one experiment by id and return its rows."""
    try:
        _, fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{available_experiments()}") from None
    return fn()
