"""Round-5 fixes, each pinned by a regression test.

1. ModelPairScorer/_embed_surfaces cache-cap eviction hazard (ADVICE r4,
   medium): when an actor crossed ``_cache_cap`` on a batch mixing cached
   and new surfaces, the clear ran AFTER todo was computed, evicting the
   cached surfaces without re-insertion -> KeyError on the post-call
   ``_emb_cache[t]`` lookup. Fixed by clearing before computing todo and
   by embedding left+right in ONE call in bi-mode __call__.
"""

import numpy as np
import pyarrow as pa
import pytest
import ray

from chameleon_entity_linking_ray.stages import joins
from chameleon_entity_linking_ray.stages.model import (
    ModelEmbedder,
    ModelPairScorer,
    SyntheticWeights,
)


@pytest.fixture(scope="module")
def weights_ref():
    return ray.put(SyntheticWeights())


def _pairs_table(pairs):
    return pa.table({
        "left_text": pa.array([p[0] for p in pairs], pa.string()),
        "right_text": pa.array([p[1] for p in pairs], pa.string())})


def test_emb_cache_cap_mixed_batch_no_keyerror(weights_ref):
    """A batch mixing cached + new surfaces while the cache sits at cap
    must not KeyError, and must score identically to an uncapped actor."""
    s = [f"surface {i} token" for i in range(8)]
    capped = ModelPairScorer(weights_ref=weights_ref, mode="bi")
    capped._cache_cap = 4
    fresh = ModelPairScorer(weights_ref=weights_ref, mode="bi")

    # batch 1 fills the capped cache exactly to cap (4 distinct surfaces)
    b1 = _pairs_table([(s[0], s[1]), (s[2], s[3])])
    # batch 2 mixes cached (s0, s1) with new (s4, s5): pre-fix this
    # raised KeyError on s0 after the cap-clear evicted it
    b2 = _pairs_table([(s[0], s[4]), (s[1], s[5])])
    out1c, out2c = capped(b1), capped(b2)
    out1f, out2f = fresh(b1), fresh(b2)
    assert len(capped._emb_cache) <= 6
    np.testing.assert_array_equal(out1c.column("score").to_numpy(),
                                  out1f.column("score").to_numpy())
    np.testing.assert_array_equal(out2c.column("score").to_numpy(),
                                  out2f.column("score").to_numpy())


def test_emb_cache_cap_bi_mode_right_side_survives(weights_ref):
    """bi-mode embeds left+right in one _embed_surfaces call: a cap-clear
    triggered by the right side can no longer evict left-side entries."""
    s = [f"txt {i} alpha" for i in range(10)]
    m = ModelPairScorer(weights_ref=weights_ref, mode="bi")
    m._cache_cap = 3
    # 5 distinct surfaces per side; with cap 3 the old two-call flow
    # cleared between left and right and KeyError'd on the left lookup
    tb = _pairs_table(list(zip(s[:5], s[5:])))
    out = m(tb)
    assert out.num_rows == 5
    scores = out.column("score").to_numpy()
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_embedder_cache_cap_stream(weights_ref):
    """ModelEmbedder streaming distinct surfaces across the cap: every
    batch's lookups succeed and embeddings equal the uncapped actor's."""
    capped = ModelEmbedder(weights_ref=weights_ref)
    capped._cache_cap = 4
    fresh = ModelEmbedder(weights_ref=weights_ref)
    texts = [f"doc {i} body words" for i in range(12)]
    # overlapping windows force cached+new mixes at the cap boundary
    for lo in range(0, 9, 3):
        tb = pa.table({"text": pa.array(texts[lo:lo + 6], pa.string())})
        got = capped(tb).column("embedding").to_numpy(zero_copy_only=False)
        want = fresh(tb).column("embedding").to_numpy(zero_copy_only=False)
        for g, w in zip(got, want):
            # re-embedded surfaces land in different sub-batch collates
            # (fp non-associativity) -> allclose, not bit-equal
            np.testing.assert_allclose(np.asarray(g), np.asarray(w),
                                       rtol=1e-4, atol=1e-5)


# ---- round-4 verdict item 1: broadcast->join swaps, forced-path parity ----

import pandas as pd  # noqa: E402


@pytest.fixture(scope="module")
def sf0001():
    return "/root/testdata/sf0.001"


def _frame(res) -> "pd.DataFrame":
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


def test_doc_keywords_join_path_matches_broadcast(sf0001, monkeypatch):
    """doc_keywords through the forced term-DF shuffle path must match
    its broadcast-path output (the oracle-pinned one) frame-for-frame."""
    from chameleon_entity_linking_ray.pipelines.traindata import doc_keywords

    bcast = _frame(doc_keywords(sf0001))
    monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
    joined = _frame(doc_keywords(sf0001, num_partitions=4))
    pd.testing.assert_frame_equal(bcast, joined)


def test_triangle_counts_join_path_matches_broadcast(sf0001, monkeypatch):
    """triangle_counts with node degrees attached via two shuffles
    (forced) must match the broadcast-degree path exactly."""
    from chameleon_entity_linking_ray.stages.graph import (
        copurchase_edges,
        triangle_counts,
    )

    edges = copurchase_edges(sf0001).materialize()
    bcast = _frame(triangle_counts(edges))
    monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
    joined = _frame(triangle_counts(edges, num_buckets=8))
    pd.testing.assert_frame_equal(bcast, joined)


def test_edge_overlap_join_path_matches_broadcast(sf0001, monkeypatch):
    """edge_overlap through the forced wedge-join path (edge count over
    threshold) must match the broadcast-CSR path exactly — cn, degrees
    and jaccard per edge."""
    from chameleon_entity_linking_ray.stages.graph import edge_overlap

    bcast = _frame(edge_overlap(sf0001))
    monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
    joined = _frame(edge_overlap(sf0001, num_buckets=8))
    pd.testing.assert_frame_equal(bcast, joined)


def test_tf_cosine_disposal_join_path_matches_broadcast(sf0001, monkeypatch):
    """tf_cosine_pairs with the disposal texts attached via forced
    shuffles must match the broadcast disposal exactly."""
    from chameleon_entity_linking_ray.pipelines.corpus import tf_cosine_pairs

    bcast = _frame(tf_cosine_pairs(sf0001))
    monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
    joined = _frame(tf_cosine_pairs(sf0001))
    pd.testing.assert_frame_equal(bcast, joined)


def test_tf_cosine_relative_cap_matches_absolute_at_small_sf(sf0001):
    """At 500 docs the relative cap resolves to max(30, ceil(0.06*500))
    = 30 — the round-4 absolute default — so small-sf oracle values are
    unchanged by the retune."""
    from chameleon_entity_linking_ray.pipelines.corpus import tf_cosine_pairs

    rel = _frame(tf_cosine_pairs(sf0001))
    absd = _frame(tf_cosine_pairs(sf0001, df_cap=30))
    pd.testing.assert_frame_equal(rel, absd)
    assert len(rel) > 0


# ---- round-4 verdict item 5: resumable iterative loops ----

import json  # noqa: E402
import ray.data as rd  # noqa: E402


def test_kcore_checkpoint_resume_byte_identical(tmp_path, sf0001):
    """Kill the k-core peel after round 2, resume from the per-round
    checkpoint: the core must equal the uninterrupted run's exactly, and
    the resumed run must NOT recompute rounds 0-2 (manifest wall times
    unchanged)."""
    from chameleon_entity_linking_ray.stages.graph import kcore_copurchase

    want = _frame(kcore_copurchase(sf0001, k=68))

    ckpt = str(tmp_path / "kcore")
    with pytest.raises(RuntimeError, match="injected failure"):
        kcore_copurchase(sf0001, k=68, checkpoint_dir=ckpt,
                         _fail_after_round=2)
    with open(f"{ckpt}/manifest.json") as f:
        before = json.load(f)["stages"]
    assert set(before) == {"round_000", "round_001", "round_002"}
    assert all("edge_fingerprint" in e and "round" in e
               for e in before.values())

    got = _frame(kcore_copurchase(sf0001, k=68, checkpoint_dir=ckpt))
    pd.testing.assert_frame_equal(want, got)
    with open(f"{ckpt}/manifest.json") as f:
        after = json.load(f)["stages"]
    for r in ("round_000", "round_001", "round_002"):
        # untouched on resume -> identical entries (incl. wall time)
        assert after[r] == before[r]
    assert len(after) > len(before)  # later rounds ran exactly once


def test_cc_star_checkpoint_resume_byte_identical(tmp_path):
    """Kill the CC star loop after round 1 (driver_threshold=0 forces the
    distributed path on a 2000-node path graph), resume: assignments must
    equal the uninterrupted run's, with rounds 1.. untouched."""
    import numpy as np

    from chameleon_entity_linking_ray.stages.cluster import (
        connected_components,
    )

    n = 2000
    u = np.arange(n - 1, dtype=np.int64)
    edges = rd.from_arrow(pa.table({"u": pa.array(u, pa.int64()),
                                    "v": pa.array(u + 1, pa.int64())}))

    want_ds, want_stats = connected_components(edges, num_partitions=4,
                                               driver_threshold=0)
    want = _frame(want_ds)
    assert want_stats["cc_mode"] == "star"
    assert (want["cluster"] == 0).all()  # one path component, min id 0

    ckpt = str(tmp_path / "cc")
    with pytest.raises(RuntimeError, match="injected failure"):
        connected_components(edges, num_partitions=4, driver_threshold=0,
                             checkpoint_dir=ckpt, checkpoint_token="t1",
                             _fail_after_round=1)
    with open(f"{ckpt}/manifest.json") as f:
        before = json.load(f)["stages"]
    assert set(before) == {"canon_init", "star_round_001"}

    got_ds, got_stats = connected_components(
        edges, num_partitions=4, driver_threshold=0,
        checkpoint_dir=ckpt, checkpoint_token="t1")
    pd.testing.assert_frame_equal(want, _frame(got_ds))
    assert got_stats["cc_converged"]
    with open(f"{ckpt}/manifest.json") as f:
        after = json.load(f)["stages"]
    assert after["star_round_001"] == before["star_round_001"]
    assert after["canon_init"] == before["canon_init"]
    assert len(after) > len(before)


def test_cc_checkpoint_fingerprint_mismatch_restarts(tmp_path):
    """A different checkpoint_token invalidates the manifest (lineage
    fingerprint mismatch) — stale rounds are not reused."""
    import numpy as np

    from chameleon_entity_linking_ray.stages.cluster import (
        connected_components,
    )

    u = np.arange(99, dtype=np.int64)
    edges = rd.from_arrow(pa.table({"u": pa.array(u, pa.int64()),
                                    "v": pa.array(u + 1, pa.int64())}))
    ckpt = str(tmp_path / "cc2")
    with pytest.raises(RuntimeError):
        connected_components(edges, num_partitions=2, driver_threshold=0,
                             checkpoint_dir=ckpt, checkpoint_token="a",
                             _fail_after_round=1)
    # same dir, different token: must converge from scratch, not resume
    got_ds, got_stats = connected_components(
        edges, num_partitions=2, driver_threshold=0,
        checkpoint_dir=ckpt, checkpoint_token="b")
    got = _frame(got_ds)
    assert (got["cluster"] == 0).all()
    assert got_stats["cc_converged"]


# ---- round-4 verdict item 4: actor-death retry idempotency ----

import os  # noqa: E402

# Worker-side classes live in the importable testing package: Ray actors
# are pickled by reference, and workers cannot import this test module.
from chameleon_entity_linking_ray.testing.faults import (  # noqa: E402
    CrashOncePairScorer,
    DeviceProbeScorer,
)


def test_flagship_survives_scorer_actor_death(tmp_path):
    """Kill one scorer actor mid-flagship: the run must complete with
    output identical to an undisturbed run — retried partitions are
    idempotent, no duplicated or dropped rows (SURVEY §4 claim). The
    undisturbed run takes the default task path and the faulted one the
    ``scorer_cls`` actor path, so this also compares the two end to end."""
    import ray

    from chameleon_entity_linking_ray.pipelines.linkage import run_linkage
    from chameleon_entity_linking_ray.testing.synth import make_transcripts

    turns, _ = make_transcripts(n_convs=60, n_entities=12, seed=42)

    want_ds, _ = run_linkage(ray.data.from_arrow(turns))
    want = _frame(want_ds)

    sentinel = str(tmp_path / "crash.flag")
    got_ds, _ = run_linkage(
        ray.data.from_arrow(turns), scorer_cls=CrashOncePairScorer,
        scorer_kwargs={"sentinel_path": sentinel})
    got = _frame(got_ds)
    assert os.path.exists(sentinel), "fault was never injected"
    pd.testing.assert_frame_equal(want, got)


# ---- round-4 verdict item 6: GPU-stage readiness knobs ----


def test_resolve_device_semantics():
    """cpu passes through; cuda falls back (no GPU backend in this
    sandbox) with the reference's cuda-if-available-else-cpu semantics;
    unknown strings fail loudly."""
    from chameleon_entity_linking_ray.stages.model import resolve_device

    assert resolve_device("cpu") == "cpu"
    with pytest.warns(RuntimeWarning, match="falling back to cpu"):
        assert resolve_device("cuda") == "cpu"
    with pytest.warns(RuntimeWarning):
        assert resolve_device("cuda:1") == "cpu"
    with pytest.raises(ValueError):
        resolve_device("tpu")


def test_model_scorer_device_knob(weights_ref):
    from chameleon_entity_linking_ray.stages.model import (
        ModelEmbedder,
        ModelPairScorer,
    )

    assert ModelPairScorer(weights_ref=weights_ref).device == "cpu"
    with pytest.warns(RuntimeWarning):
        s = ModelPairScorer(weights_ref=weights_ref, device="cuda")
    assert s.device == "cpu"  # resolved fallback, actor still functional
    out = s(_pairs_table([("alpha beta", "alpha beta")]))
    assert out.num_rows == 1
    with pytest.warns(RuntimeWarning):
        e = ModelEmbedder(weights_ref=weights_ref, device="cuda:0")
    assert e.device == "cpu"  # **kw passthrough via the subclass


def _tiny_pairs():
    return ray.data.from_arrow(pa.table({
        "left_id": pa.array([1, 3], pa.int64()),
        "right_id": pa.array([2, 4], pa.int64()),
        "left_text": pa.array(["acme corp", "foo inc"], pa.string()),
        "right_text": pa.array(["acme corporation", "foo incorporated"],
                               pa.string())}))


def test_score_pairs_device_kwarg_reaches_actor():
    """config.scorer_device flows into scorer classes that accept a
    ``device`` kwarg (and only those) — executed on the CPU default."""
    from chameleon_entity_linking_ray.config import LinkageConfig
    from chameleon_entity_linking_ray.pipelines.linkage import score_pairs

    cfg = LinkageConfig(scorer_device="probe-dev", scorer_concurrency=1)
    out = score_pairs(_tiny_pairs(), cfg,
                      scorer_cls=DeviceProbeScorer).to_pandas()
    assert set(out["device"]) == {"probe-dev"}

    # base PairScorer has no device param: must not receive the kwarg
    # (a stray kwarg would TypeError in the actor constructor)
    base = score_pairs(_tiny_pairs(),
                       LinkageConfig(scorer_device="cuda",
                                     scorer_concurrency=1)).to_pandas()
    assert "score" in base.columns


def test_score_pairs_task_default_equals_actor_path():
    """The default task stage and the ``scorer_cls=PairScorer`` actor pool
    score every pair bit-identically, over a multi-block pair table."""
    from chameleon_entity_linking_ray.config import LinkageConfig
    from chameleon_entity_linking_ray.pipelines.linkage import (
        extract_mentions,
        generate_pairs,
        score_pairs,
    )
    from chameleon_entity_linking_ray.stages.scoring import PairScorer
    from chameleon_entity_linking_ray.stages.stats import build_idf_stats
    from chameleon_entity_linking_ray.stages.vocab import build_vocab
    from chameleon_entity_linking_ray.testing.synth import make_transcripts

    cfg = LinkageConfig(scorer_batch_size=64, scorer_concurrency=1)
    turns, _ = make_transcripts(n_convs=60, n_entities=12, seed=42)
    vocab = build_vocab(extract_mentions(
        ray.data.from_arrow(turns).repartition(4), cfg)).materialize()
    stats_ref = ray.put(build_idf_stats(vocab, cfg))
    pairs = generate_pairs(vocab, cfg).repartition(3).materialize()
    assert pairs.num_blocks() > 1 and pairs.count() > cfg.scorer_batch_size

    def scored(**kw) -> pa.Table:
        t = pa.concat_tables(ray.get(
            score_pairs(pairs, cfg, stats_ref, **kw).to_arrow_refs()))
        return t.sort_by([("left_id", "ascending"), ("right_id", "ascending")])

    want = scored(scorer_cls=PairScorer)
    got = scored()
    assert got.equals(want)


def test_score_pairs_default_starts_no_actor(monkeypatch):
    """Without a ``scorer_cls`` the scorer is a plain task stage: no pool
    size and no constructor kwargs reach ``map_batches``."""
    from ray.data import Dataset

    from chameleon_entity_linking_ray.config import LinkageConfig
    from chameleon_entity_linking_ray.pipelines.linkage import score_pairs

    calls = []
    orig = Dataset.map_batches

    def spy(self, fn, **kw):
        calls.append(kw)
        return orig(self, fn, **kw)

    monkeypatch.setattr(Dataset, "map_batches", spy)
    score_pairs(_tiny_pairs(), LinkageConfig())  # lazy — never consumed
    assert calls
    assert all("concurrency" not in kw and "fn_constructor_kwargs" not in kw
               for kw in calls)


def test_score_pairs_num_gpus_reserved(monkeypatch):
    """config.scorer_num_gpus > 0 reserves that GPU fraction per scoring
    actor via map_batches(num_gpus=...); the CPU default adds nothing.
    Captured from the call kwargs — executing a num_gpus stage would
    never schedule on this CPU-only node (which is the point)."""
    from ray.data import Dataset

    from chameleon_entity_linking_ray.config import LinkageConfig
    from chameleon_entity_linking_ray.pipelines.linkage import score_pairs

    captured = {}
    orig = Dataset.map_batches

    def spy(self, fn, **kw):
        captured.update(kw)
        return orig(self, fn, **kw)

    monkeypatch.setattr(Dataset, "map_batches", spy)
    score_pairs(_tiny_pairs(), LinkageConfig(scorer_num_gpus=0.5),
                scorer_cls=DeviceProbeScorer)  # lazy — never consumed
    assert captured.get("num_gpus") == 0.5

    captured.clear()
    score_pairs(_tiny_pairs(), LinkageConfig(),
                scorer_cls=DeviceProbeScorer)
    assert "num_gpus" not in captured


# ---- round-4 verdict item 7: expanded-entities edge-list / DOT parity ----


def test_expanded_edges_and_dot(sf0001):
    """The star edge list matches the reference's
    visualize_expanded_entities graph build ((qid, node) for the first 5
    expanded nodes, utils/visualize_expanded_entities.py:21-32), and
    format_dot renders one undirected edge per row."""
    from chameleon_entity_linking_ray.stages.graph import (
        dfs_copurchase,
        expanded_edges_copurchase,
        format_dot,
    )

    walk = dfs_copurchase(sf0001, seed_part=0, k=20).to_pandas() \
        .sort_values("visit_order")
    want = walk.head(5)

    got = expanded_edges_copurchase(sf0001, seed_part=0, k=20,
                                    limit=5).to_pandas() \
        .sort_values("visit_order").reset_index(drop=True)
    assert list(got.columns) == ["src", "dst", "visit_order"]
    assert (got["src"] == 0).all()
    np.testing.assert_array_equal(got["dst"].to_numpy(),
                                  want["node"].to_numpy())

    dot = format_dot(got, name="g")
    assert dot.startswith("graph g {")
    assert dot.count(" -- ") == len(got)
    for d in got["dst"]:
        assert f"0 -- {int(d)};" in dot
