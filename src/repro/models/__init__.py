"""Scope-based generators: TrillionG (AVS) and every baseline the paper
evaluates (Section 3, Section 7)."""

from .avs import TrillionGSeqGenerator
from .ba import BarabasiAlbertGenerator
from .base import Complexity, GenerationReport, ScopeBasedGenerator, dedup_edges
from .erdos_renyi import ErdosRenyiGenerator
from .fast_kronecker import FastKroneckerGenerator, fast_kronecker_edge_batch
from .graph500 import Graph500Generator, scramble_vertices
from .kronecker import KroneckerAesGenerator
from .rmat import (RmatDiskGenerator, RmatMemGenerator, rmat_edge_batch,
                   rmat_key_batch)
from .teg import TegGenerator
from .wesp import WespDiskGenerator, WespMemGenerator

#: Registry of all comparable generators by report name.
ALL_MODELS = {
    cls.name: cls
    for cls in (
        RmatMemGenerator, RmatDiskGenerator, KroneckerAesGenerator,
        FastKroneckerGenerator, WespMemGenerator, WespDiskGenerator,
        TrillionGSeqGenerator, TegGenerator, Graph500Generator,
        BarabasiAlbertGenerator, ErdosRenyiGenerator,
    )
}

__all__ = [
    "TrillionGSeqGenerator", "BarabasiAlbertGenerator", "Complexity",
    "GenerationReport", "ScopeBasedGenerator", "dedup_edges",
    "ErdosRenyiGenerator", "FastKroneckerGenerator",
    "fast_kronecker_edge_batch", "Graph500Generator", "scramble_vertices",
    "KroneckerAesGenerator", "RmatDiskGenerator", "RmatMemGenerator",
    "rmat_edge_batch", "rmat_key_batch", "TegGenerator", "WespDiskGenerator",
    "WespMemGenerator", "ALL_MODELS",
]
