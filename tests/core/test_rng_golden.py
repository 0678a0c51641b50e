"""Golden known-seed digests: freeze the RNG key shapes and the output
bytes so any change to the derivation scheme, the sampling order, or an
encoder is caught as an explicit golden-value break, not a silent
different-graph.

Referenced by the ``repro.core.rng`` module docstring: the two
derivation families (``stream`` label paths vs ``spawn_streams`` spawn
keys) are disjoint by construction, and these digests pin both schemes.

If a test here fails, the generator output changed for every user.
Only update the constants for an *intentional*, release-noted break of
seed stability.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import RecursiveVectorGenerator
from repro.core.rng import derive_seed, spawn_streams, stream
from repro.formats import get_format
from repro.models import ALL_MODELS


def draw_digest(gen, n=8):
    """Digest of the first ``n`` uint64 draws — fingerprints the stream."""
    values = gen.integers(0, 1 << 63, size=n)
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()) \
        .hexdigest()[:16]


# -- key-shape freeze --------------------------------------------------

STREAM_DIGESTS = {
    (7,): "f2aa239e8ccb3760",
    (7, 0): "f2aa239e8ccb3760",   # see test_root_equals_label_zero
    (7, 0, 3): "2ba02186d1363e18",
}

SPAWN_DIGESTS = ["0538c293b4a73484", "a241f641f4331ca8",
                 "6a4263f07e4bdd8e"]

DERIVED_SEEDS = {(7, 1): 3317731564112288844,
                 (7, 2): 9139555415570476218}


def test_stream_digests_frozen():
    for (seed, *labels), expected in STREAM_DIGESTS.items():
        assert draw_digest(stream(seed, *labels)) == expected, \
            f"stream({seed}, {labels}) drifted"


def test_spawn_digests_frozen():
    assert [draw_digest(g) for g in spawn_streams(7, 3)] == SPAWN_DIGESTS


def test_derive_seed_frozen():
    for (seed, label), expected in DERIVED_SEEDS.items():
        assert derive_seed(seed, label) == expected


def test_spawn_and_stream_families_are_disjoint():
    # spawn_streams(seed, n)[i] must never equal stream(seed, i): the
    # spawn_key shape differs from the entropy-list shape.  Pinned here
    # because silently unifying them would collide worker streams with
    # scope streams.
    spawned = [draw_digest(g) for g in spawn_streams(7, 3)]
    labelled = [draw_digest(stream(7, i)) for i in range(3)]
    assert not set(spawned) & set(labelled)


def test_root_equals_label_zero():
    # Known numpy SeedSequence property: trailing zero entropy words
    # are absorbed, so ``stream(seed)`` IS ``stream(seed, 0)``.  The
    # library's own label tags therefore all start at 1 (models) or
    # 101+ (core generator).  Frozen so a numpy behaviour change — or a
    # new tag 0 — is noticed.
    assert draw_digest(stream(7)) == draw_digest(stream(7, 0))


# -- output-byte freeze ------------------------------------------------

# scale 8, edge factor 4, seed 42, defaults otherwise.
OUTPUT_DIGESTS = {
    "adj6": "94edec94a19eb79196b23943d46d4ddf9130f16e109b6e253f230e7f974574bc",
    "tsv": "8376072faa2479a9363ad2bb54ed2639694966b4070ad931a39c6db6ac12faff",
    "csr6": "14de09fd87a7e50e2e960fa1c3667ff31b2e45d7698ae5680e840d6236b5e2b4",
}

NOISE_ADJ6_DIGEST = \
    "ee58f18fb6bd9bfabc1a0660050fe43a1fb549d452d2bc990afd5748db741518"

# Per-sampler adj6 digests at the same configuration.  Each sampler is
# deterministic per (params, seed), but the samplers are intentionally
# NOT byte-identical to one another: they consume their edge streams in
# different shapes (one translation uniform vs. per-level Bernoullis).
# ``recvec`` must stay the default.
SAMPLER_ADJ6_DIGESTS = {
    "recvec":
        "94edec94a19eb79196b23943d46d4ddf9130f16e109b6e253f230e7f974574bc",
    "bitwise":
        "54b46034484b9541e723fa0413274458d5af5835792d7d2c239ac6c87635c747",
}

# Edge-array digest of the bitwise sampler, checked both sequentially and
# through the distributed runner (workers must honor the sampler).
BITWISE_EDGE_DIGEST = "55b04457794e06bd"


def write_digest(tmp_path, fmt_name, **kwargs):
    kwargs.setdefault("seed", 42)
    gen = RecursiveVectorGenerator(8, 4, **kwargs)
    path = tmp_path / f"golden.{fmt_name}"
    get_format(fmt_name).write_blocks(path, gen.iter_blocks(),
                                      gen.num_vertices)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_output_digests_frozen(tmp_path):
    for fmt_name, expected in OUTPUT_DIGESTS.items():
        assert write_digest(tmp_path, fmt_name) == expected, \
            f"{fmt_name} output drifted for (scale=8, ef=4, seed=42)"


def test_noise_output_digest_frozen(tmp_path):
    assert write_digest(tmp_path, "adj6", noise=0.1) == NOISE_ADJ6_DIGEST


def test_sampler_digests_frozen(tmp_path):
    for sampler, expected in SAMPLER_ADJ6_DIGESTS.items():
        assert write_digest(tmp_path, "adj6", sampler=sampler) == \
            expected, f"sampler {sampler!r} output drifted"


def test_sampler_digests_are_pairwise_distinct():
    assert len(set(SAMPLER_ADJ6_DIGESTS.values())) == \
        len(SAMPLER_ADJ6_DIGESTS)


def test_default_engine_is_the_recvec_sampler():
    assert SAMPLER_ADJ6_DIGESTS["recvec"] == OUTPUT_DIGESTS["adj6"]


def test_bitwise_digest_stable_through_distributed_runner(tmp_path):
    """Workers rebuild the generator from the picklable recipe; a
    non-default sampler must survive the round trip and reproduce the
    sequential bytes exactly."""
    from repro.dist.runner import LocalCluster
    gen = RecursiveVectorGenerator(8, 4, seed=42, sampler="bitwise")
    cluster = LocalCluster(num_workers=3)
    res = cluster.generate_to_files(gen, tmp_path / "parts", "adj6",
                                    processes=2)
    dist_edges = cluster.read_all_edges(res, "adj6")
    assert edge_digest(dist_edges) == BITWISE_EDGE_DIGEST
    seq = RecursiveVectorGenerator(8, 4, seed=42, sampler="bitwise")
    assert edge_digest(seq.edges()) == BITWISE_EDGE_DIGEST


def test_avs_in_matches_avs_out_for_symmetric_matrix(tmp_path):
    # The Graph500 matrix has b == c, so its transpose is itself and
    # AVS-I must reproduce AVS-O byte for byte.  An asymmetry sneaking
    # into the direction flip would break this first.
    assert write_digest(tmp_path, "adj6", direction="in") == \
        OUTPUT_DIGESTS["adj6"]


def test_block_size_is_part_of_the_determinism_key(tmp_path):
    # Randomness is keyed per block *index*, so the block partitioning
    # is part of the configuration: a different block_size is a
    # different (equally valid) graph.  The explicit default must match
    # the frozen digest; a non-default must not.
    assert write_digest(tmp_path, "adj6", block_size=4096) == \
        OUTPUT_DIGESTS["adj6"]
    assert write_digest(tmp_path, "adj6", block_size=64) == \
        "e005f1dfdfbc642db2ede37269e4df08c292f2e1a082de1985eaae7bb2ad3448"


# -- every registered model --------------------------------------------

# Edge-array digests at (scale=8, edge_factor=4, seed=42).  One entry
# per registry key: adding a model without freezing its digest fails
# loudly, and any sampling-order change in an existing model is an
# explicit golden break.
MODEL_DIGESTS = {
    "Barabasi-Albert": "9dbab01cb3300beb",
    "Erdos-Renyi": "ffa44e2b5f4c5dd9",
    "FastKronecker": "78c5190576b20cbc",
    "Graph500": "b6d225bd88ea14e7",
    "Kronecker-AES": "90a34ae71520d955",
    "RMAT-disk": "8ffa33b8738c239c",
    "RMAT-mem": "78c5190576b20cbc",
    "RMAT/p-disk": "53d53bf920806f18",
    "RMAT/p-mem": "53d53bf920806f18",
    "TeG": "9297d15dfcf8cab9",
    "TrillionG/seq": "b232008130f9d986",
}


def edge_digest(edges):
    arr = np.ascontiguousarray(np.asarray(edges, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def test_every_registered_model_has_a_frozen_digest():
    assert set(MODEL_DIGESTS) == set(ALL_MODELS), \
        "new model registered: freeze its golden digest here"


def test_model_edge_digests_frozen():
    for key, expected in sorted(MODEL_DIGESTS.items()):
        gen = ALL_MODELS[key](scale=8, edge_factor=4, seed=42)
        assert edge_digest(gen.generate()) == expected, \
            f"model {key!r} output drifted for (scale=8, ef=4, seed=42)"


# -- multi-round top-up freeze -----------------------------------------

# Block 0 at scale 14, edge factor 16, seed 1: the hub block, where the
# dedup top-up runs ~20-35 rounds and some scopes finish on the exact
# path.  The scale-8 digests above barely leave the first pass, so these
# pin the multi-round path byte for byte.  The digest covers the CSR
# offsets, the destinations and ``stats.duplicates_discarded``.
TOPUP_BLOCK_DIGESTS = {
    ("recvec", 0.0): "220dd231277b5773",
    ("bitwise", 0.0): "fcf2f349880735d2",
    ("recvec", 0.1): "f557c355995a878f",
    ("bitwise", 0.1): "0aa91ca120287fe5",
}

# Block 0 of the base-3 generator at depth 8, seed 1 (5 top-up rounds,
# 2 scopes finished exactly), as an edge-array digest.
NARY_BLOCK_DIGEST = "bbc924b6b2605ed8"


def block_digest(block, duplicates):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(block.offsets, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(block.destinations,
                                  dtype=np.int64).tobytes())
    h.update(str(duplicates).encode())
    return h.hexdigest()[:16]


def test_topup_block_digests_frozen():
    for (sampler, noise), expected in TOPUP_BLOCK_DIGESTS.items():
        gen = RecursiveVectorGenerator(14, 16, sampler=sampler,
                                       noise=noise, seed=1)
        block = gen.generate_block(0)
        assert block_digest(block, gen.stats.duplicates_discarded) == \
            expected, f"top-up output drifted for {sampler!r}, N={noise}"


def test_nary_block_digest_frozen():
    from repro.core.nary import NAryRecursiveVectorGenerator
    from repro.core.seed import SeedMatrix
    seed3 = SeedMatrix(np.array([[0.30, 0.12, 0.08],
                                 [0.12, 0.10, 0.05],
                                 [0.08, 0.05, 0.10]]))
    gen = NAryRecursiveVectorGenerator(seed3, 8, seed=1)
    assert edge_digest(gen.generate_block(0)) == NARY_BLOCK_DIGEST


# -- external-memory baselines at scale 14 -------------------------------

# WES/p-disk and RMAT-disk at scale 14, edge factor 16, batch_edges=2048:
# over a hundred spill runs against the default fan-in of 16, so the
# merge runs intermediate passes and every merge chunk boundary is
# regrouped into blocks.  The scale-8 MODEL_DIGESTS above spill a single
# run.  Each digest covers the ADJ6 bytes, ``duplicates_discarded`` and
# ``realized_edges``.
DISK_MODEL_DIGESTS = {
    ("RMAT/p-disk", 1): "e892e711cdc398a7",
    ("RMAT/p-disk", 7): "5f95cbe37505aaa7",
    ("RMAT-disk", 1): "f188870aaf522393",
    ("RMAT-disk", 7): "67544de7ebf2aef9",
}

# ``run_wesp_distributed`` at scale 14, 2 workers, seed 1, ADJ6 parts:
# the part bytes in reducer order followed by the edge count.
WESP_DISTRIBUTED_DIGEST = "8140c86344c04c0f"


def test_disk_model_digests_frozen(tmp_path):
    for (key, seed), expected in DISK_MODEL_DIGESTS.items():
        gen = ALL_MODELS[key](scale=14, edge_factor=16, seed=seed,
                              batch_edges=2048)
        path = tmp_path / f"{seed}.adj6"
        gen.write_to(path, "adj6")
        h = hashlib.sha256(path.read_bytes())
        h.update(str(gen.report.duplicates_discarded).encode())
        h.update(str(gen.report.realized_edges).encode())
        assert h.hexdigest()[:16] == expected, \
            f"{key!r} output drifted for (scale=14, seed={seed})"


def test_wesp_distributed_digest_frozen(tmp_path):
    from repro.dist.wesp_runner import run_wesp_distributed
    res = run_wesp_distributed(14, 16, num_workers=2, seed=1,
                               work_dir=tmp_path, fmt_name="adj6",
                               processes=2)
    h = hashlib.sha256()
    for path in res.part_paths:
        h.update(path.read_bytes())
    h.update(str(res.num_edges).encode())
    assert h.hexdigest()[:16] == WESP_DISTRIBUTED_DIGEST
