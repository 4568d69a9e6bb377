"""The flagship pipeline: transcripts -> entity clusters.

Engine shape (SURVEY.md §7.1), end-to-end as streaming Dataset flows with
optional per-stage checkpoints:

    read_parquet(transcripts)
      -> map_batches(MentionExtractor)                 # stateless, Arrow
      -> groupby(norm).count()   = surface vocabulary  # SHUFFLE 1
      -> map_batches(LshBander)  bands + token blocks  # stateless numpy
      -> groupby(bucket).map_groups(make_pairs)        # SHUFFLE 2 (skew-capped)
      -> groupby(pbucket).map_groups(dedup)            # SHUFFLE 3 pair dedup
      -> map_batches(score_batch) + broadcast IDF      # stateless tasks, fused
      -> filter(score > theta) -> edges                #   with the edge filter
      -> connected_components(...)                     # SHUFFLE 4..k (or driver UF)
      -> mentions x assignments broadcast assign       # map-only join back
      -> per-partition sort(conv_id, turn_idx)         # output invariant:
         range-partitioned input (validated by a per-block bounds probe)
         => stable global order with NO shuffle; interleaved input, or an
         assignment table past the broadcast threshold, takes the global sort

All heavy stages run over DISTINCT normalized surfaces (the vocabulary),
not mention instances — mentions with equal norm share their cluster by
construction (node = hash64(norm)).

Reference flow this reproduces: CrossEncoder/test.py's load -> block ->
score -> rank loop (/root/reference/CrossEncoder/test.py:16-112) recast per
BASELINE.json's north rule as blocking + pairwise scoring + transitive
clustering.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import Dataset

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.stages.blocking import (
    LshBander,
    add_pair_bucket,
    dedup_pairs_fn,
    make_pair_generator,
)
from chameleon_entity_linking_ray.stages.cluster import connected_components
from chameleon_entity_linking_ray.stages.extract import MentionExtractor
from chameleon_entity_linking_ray.stages.joins import hash_join
from chameleon_entity_linking_ray.stages.order import in_logical_order
from chameleon_entity_linking_ray.stages.scoring import PairScorer, score_batch
from chameleon_entity_linking_ray.stages.stats import build_idf_stats
from chameleon_entity_linking_ray.stages.vocab import add_node_column, build_vocab
from chameleon_entity_linking_ray.state.checkpoint import (
    CheckpointManager,
    fingerprint,
    input_fingerprint,
)


def extract_mentions(transcripts: Dataset, config: LinkageConfig) -> Dataset:
    # lean shape: the derivable columns (mention_id, rho, norm) are rebuilt
    # where needed (restore_derived / add_node_column / vocab partial) —
    # they never ride the materialize
    extractor = MentionExtractor(config)
    return transcripts.map_batches(
        extractor.explode_lean, batch_format="pyarrow",
        batch_size=config.batch_size)


def generate_pairs(vocab: Dataset, config: LinkageConfig) -> Dataset:
    banded = vocab.map_batches(
        LshBander(config), batch_format="pyarrow", batch_size=config.batch_size)
    # SHUFFLE: bucketed by hash(block_key) — vectorized pair-gen per bucket
    pairs = banded.groupby("bucket").map_groups(
        make_pair_generator(config), batch_format="pandas")
    # SHUFFLE: bucketed by hash(pair key) — vectorized exact dedup
    pairs = pairs.map_batches(add_pair_bucket(config.num_hash_buckets),
                              batch_format="pyarrow")
    return pairs.groupby("pbucket").map_groups(
        dedup_pairs_fn(), batch_format="pandas").drop_columns(["pbucket"])


def score_pairs(pairs: Dataset, config: LinkageConfig, stats_ref=None,
                scorer_cls=None, scorer_kwargs: dict | None = None) -> Dataset:
    """Append ``text_score``, ``entity_score`` and ``score`` to every pair.

    Default (no ``scorer_cls``): the deterministic ``PairScorer`` kernel as
    a stateless TASK stage — no pool to size or starve, and it fuses with
    the downstream edge filter, so the scored pair table is never pinned.
    Every score is per pair, so the batch layout cannot change a value.

    ``scorer_cls``: any callable class with the PairScorer protocol whose
    ``__init__`` is worth amortizing, e.g. ``stages.model.ModelPairScorer``
    (plus its ``weights_ref`` in ``scorer_kwargs``): it runs as a fixed
    actor pool."""
    if scorer_cls is None:
        return pairs.map_batches(
            score_batch, fn_kwargs={"config": config, "stats_ref": stats_ref,
                                    "scorer_kwargs": scorer_kwargs},
            batch_format="pyarrow", batch_size=config.scorer_batch_size)
    # the pair table emerges from a groupby in a handful of fat blocks, and
    # map_batches parallelism is bounded by input block count — spread it
    # across the pool and PIN it first (cheap: pairs are candidate-pruned).
    # Materializing decouples the actor stage from its upstream so a fixed
    # pool can never starve upstream tasks (observed deadlock at num_cpus=4
    # when a full-width pool reserved every CPU while pair-gen still ran).
    pairs = pairs.repartition(max(4, 4 * config.scorer_concurrency)).materialize()
    # fixed-size pool, capped below the cluster CPU count: an autoscaling
    # (min, max) pool ramps too slowly to ever reach max on a stage this
    # short (measured 2x slower than fixed at the same max)
    avail = int(ray.cluster_resources().get("CPU", 2))
    pool = max(1, min(config.scorer_concurrency, avail - 1))
    kwargs = {"config": config, "stats_ref": stats_ref}
    kwargs.update(scorer_kwargs or {})
    # GPU readiness (reference collate target CrossEncoder/model.py:29-33):
    # forward the device knob to scorer classes that take one (the model
    # path); reserve scorer_num_gpus per actor when configured — on the
    # CPU-only default (0.0, "cpu") the plan is byte-identical to before.
    import inspect
    if "device" in inspect.signature(scorer_cls.__init__).parameters:
        kwargs.setdefault("device", config.scorer_device)
    extra: dict = {}
    if config.scorer_num_gpus > 0:
        extra["num_gpus"] = config.scorer_num_gpus
    return pairs.map_batches(
        scorer_cls, fn_constructor_kwargs=kwargs,
        batch_format="pyarrow", batch_size=config.scorer_batch_size,
        concurrency=pool, **extra)


def matched_edges(scored: Dataset, config: LinkageConfig) -> Dataset:
    """score > theta -> int64 edge table (u, v) on surface node ids."""
    thr = config.score_threshold

    def to_edges(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater(batch.column("score"), pa.scalar(thr, pa.float32())))
        return pa.table({"u": b.column("left_id"), "v": b.column("right_id")})

    return scored.map_batches(to_edges, batch_format="pyarrow")


_OUT_KEYS = ["conv_id", "turn_idx", "span_start"]


def _local_sort(ds: Dataset, keys: list[str]) -> Dataset:
    """Per-block (= per-partition) sort — ZERO data movement.

    The pipeline's map-only stages preserve input block order, and a
    100 TB transcript corpus is stored range-partitioned by conv_id (each
    shard a disjoint, ordered conv range — the layout the resumable
    partitioned writer produces). Under that assumption a per-block sort
    yields globally stable (conv_id, turn_idx) order WITHOUT the all-to-all
    exchange a global ``Dataset.sort`` costs (measured as the scaling wall:
    ~25 s for the 30M-row mention table on one node, round 1 VERDICT).
    Callers validate the assumption with ``blocks_range_partitioned``."""

    import numpy as np

    def psort(batch: pa.Table) -> pa.Table:
        # Arrow-native: one C sort_indices over the block; when the block
        # is already in order (the common case — extraction preserves the
        # input's (conv, turn) order and all later stages are map-only)
        # the take is skipped entirely and the block passes through
        # zero-copy.
        idx = pc.sort_indices(
            batch, sort_keys=[(k, "ascending") for k in keys])
        arr = idx.to_numpy(zero_copy_only=False)
        if len(arr) == 0 or np.array_equal(arr, np.arange(len(arr))):
            return batch
        return batch.take(idx)

    # batch_size=None: one batch per block, so the sort is per-partition
    return ds.map_batches(psort, batch_format="pyarrow", batch_size=None)


def blocks_range_partitioned(ds: Dataset, keys: list[str] | None = None
                             ) -> list[tuple[tuple, tuple]] | None:
    """Validate the range-partition contract the per-block sort relies on:
    per block, emit the min and max composite sort key (one Arrow
    sort_indices per block — no data movement); the per-block sort yields a
    globally stable order iff consecutive block boundaries are
    non-decreasing in Dataset block order.

    Returns the per-block ``(lo, hi)`` key tuples in LOGICAL block order
    (empty blocks omitted) when the contract holds, else ``None``."""
    keys = keys or _OUT_KEYS
    # prune to the key columns: pushes projection into a parquet read and
    # shrinks the per-block sort_indices input on wide tables
    ds = ds.select_columns(list(keys))

    def bounds(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [(f"{k}_{e}", batch.schema.field(k).type)
                 for e in ("lo", "hi") for k in keys]).empty_table()
        idx = pc.sort_indices(
            batch, sort_keys=[(k, "ascending") for k in keys])
        lo = batch.take(idx.slice(0, 1))
        hi = batch.take(idx.slice(len(idx) - 1, 1))
        cols = {f"{k}_lo": lo.column(k) for k in keys}
        cols.update({f"{k}_hi": hi.column(k) for k in keys})
        return pa.table(cols)

    # batch_size=None -> one row per block. The check needs rows in LOGICAL
    # block order; in completion order this probe spuriously failed and
    # silently re-routed callers onto the global sort (a 4x flagship
    # regression).
    rows = in_logical_order(
        ds.map_batches(bounds, batch_format="pyarrow", batch_size=None),
        Dataset.take_all)
    out = [(tuple(r[f"{k}_lo"] for k in keys), tuple(r[f"{k}_hi"] for k in keys))
           for r in rows]
    if any(lo < prev_hi for (_, prev_hi), (lo, _) in zip(out, out[1:])):
        return None
    return out


def assign_clusters(mentions: Dataset, assignments: Dataset,
                    config: LinkageConfig,
                    broadcast_threshold: int = 4_000_000) -> Dataset:
    """Left-join mentions (via node = hash(norm)) with CC assignments
    through ``stages.cluster.attach_assignments``; singleton surfaces
    cluster to their own node id. Output in stable
    (conv_id, turn_idx, span_start) order.

    The assignment table covers only surfaces that matched something —
    vocabulary-scale — so up to ``broadcast_threshold`` rows the attach is
    map-only and keeps the mention blocks in place: when
    ``blocks_range_partitioned`` validates the mention stream, a per-block
    sort gives the total order with no shuffle. Interleaved input, or an
    assignment table past the threshold (the bucketed hash join destroys
    partition order), ends in the global ``Dataset.sort``."""
    from chameleon_entity_linking_ray.stages.cluster import attach_assignments
    from chameleon_entity_linking_ray.stages.extract import restore_derived

    in_range = blocks_range_partitioned(mentions) is not None
    # counted here and in the attach, then read once: pin it
    assignments = assignments.materialize()
    with_node = mentions.map_batches(add_node_column(), batch_format="pyarrow")
    out = attach_assignments(with_node, assignments, "node",
                             broadcast_threshold, config.num_hash_buckets) \
        .drop_columns(["keep"]) \
        .map_batches(restore_derived, batch_format="pyarrow")
    if in_range and assignments.count() <= broadcast_threshold:
        return _local_sort(out, _OUT_KEYS)
    return out.sort(_OUT_KEYS)


def annotate_transcripts(transcripts: Dataset, clustered: Dataset,
                         config: LinkageConfig | None = None) -> Dataset:
    """Turn-level output: every input turn, text byte-identical, plus typed
    ``entities: list<struct<start,end,surface,cluster_id>>`` — the engine's
    run-file analog (/root/reference/BiEncoder/test.py:128-132) satisfying
    the north-rule per-row invariant: per-turn text equality under stable
    (conv_id, turn_idx) ordering.

    When ``blocks_range_partitioned`` validates the INPUT transcripts, the
    collapse groups by RANGE bucket — one bucket per input block's conv
    range, assigned by searchsorted against the probe's block upper bounds
    — so the groupby's own sort-shuffle emits buckets in conv order and
    the trailing global ``Dataset.sort`` disappears (two exchanges instead
    of three). Interleaved input keeps the hash-bucket collapse + global
    sort.
    """
    config = config or LinkageConfig()
    bounds = blocks_range_partitioned(transcripts, ["conv_id", "turn_idx"])

    def shrink(batch: pa.Table) -> pa.Table:
        return batch.select(["conv_id", "turn_idx", "span_start", "span_end",
                             "surface", "cluster_id"])

    # pin the small mention table: it is consumed by count() AND the join —
    # without materialize() the entire upstream linkage lineage re-executes
    ments = clustered.map_batches(shrink, batch_format="pyarrow").materialize()
    n_ments = ments.count()
    if n_ments == 0:
        def empty_entities(batch: pa.Table) -> pa.Table:
            ent_type = pa.list_(pa.struct([
                ("start", pa.int32()), ("end", pa.int32()),
                ("surface", pa.string()), ("cluster_id", pa.int64())]))
            return batch.append_column(
                "entities", pa.array([[]] * batch.num_rows, ent_type))

        return transcripts.map_batches(empty_entities, batch_format="pyarrow") \
                          .sort(["conv_id", "turn_idx"])

    joined = hash_join(transcripts, ments, on=("conv_id", "turn_idx"),
                       join_type="left_outer", num_partitions=config.num_hash_buckets)

    # collapse the join fan-out back to one row per turn with an entity
    # list — pure Arrow offsets: ONE sort_indices per bucket, run
    # boundaries via numpy, pa.ListArray.from_arrays. No per-turn Python,
    # no groupby().apply (round-1 finding: the widest table in the
    # pipeline was collapsed with a per-group listcomp).
    import numpy as np

    from chameleon_entity_linking_ray.functions.hashing import hash64 as _h64

    _MENTION_COLS = ("span_start", "span_end", "surface", "cluster_id")

    if bounds is not None:
        # bucket = first input block whose max conv covers the row, via one
        # vectorized searchsorted over the probe's (sorted, deduped) block
        # upper bounds. A conv spanning two input blocks still maps to ONE
        # bucket (searchsorted is by value, not block), so the collapse
        # never splits a turn.
        bref = ray.put(np.unique(np.asarray([hi[0] for _, hi in bounds])))

        def add_bucket(batch: pa.Table) -> pa.Table:
            uppers = ray.get(bref)
            conv = batch.column("conv_id").to_numpy(zero_copy_only=False)
            if uppers.dtype.kind in ("U", "S"):
                conv = conv.astype("U")  # fixed-width -> vectorized C compare
            b = np.searchsorted(uppers, conv, side="left").astype(np.int32)
            return batch.append_column("tbucket", pa.array(b, pa.int32()))
    else:
        def add_bucket(batch: pa.Table) -> pa.Table:
            conv = batch.column("conv_id").to_numpy(zero_copy_only=False)
            b = (_h64(conv) % np.uint64(config.num_hash_buckets)) \
                .astype(np.int32)
            return batch.append_column("tbucket", pa.array(b, pa.int32()))

    ent_type = pa.list_(pa.struct([
        ("start", pa.int32()), ("end", pa.int32()),
        ("surface", pa.string()), ("cluster_id", pa.int64())]))

    def collapse(t: pa.Table) -> pa.Table:
        turn_cols = [c for c in t.column_names
                     if c not in _MENTION_COLS and c != "tbucket"]
        t = t.take(pc.sort_indices(
            t, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending"),
                          ("span_start", "ascending")]))
        n = t.num_rows
        if n == 0:
            empty = pa.table({c: t.column(c) for c in turn_cols})
            return empty.append_column(
                "entities", pa.array([], type=ent_type))
        # turn-boundary detection via Arrow slice-compare (vectorized C
        # string equality) — no to_pylist / object-dtype round trip
        conv = t.column("conv_id").combine_chunks()
        turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
        conv_ne = pc.not_equal(conv.slice(1), conv.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False)
        new = np.r_[True, conv_ne | (turn[1:] != turn[:-1])]
        starts = np.flatnonzero(new)
        valid = pc.is_valid(t.column("span_start")) \
            .to_numpy(zero_copy_only=False)
        vt = t.filter(pa.array(valid))
        values = pa.StructArray.from_arrays(
            [vt.column("span_start").combine_chunks().cast(pa.int32()),
             vt.column("span_end").combine_chunks().cast(pa.int32()),
             vt.column("surface").combine_chunks().cast(pa.string()),
             vt.column("cluster_id").combine_chunks().cast(pa.int64())],
            names=["start", "end", "surface", "cluster_id"])
        counts = np.add.reduceat(valid.astype(np.int64), starts)
        offsets = np.zeros(len(starts) + 1, np.int32)
        np.cumsum(counts, out=offsets[1:])
        entities = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                            values)
        head = t.take(pa.array(starts)).select(turn_cols)
        return head.append_column("entities", entities.cast(ent_type))

    out = joined.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("tbucket").map_groups(collapse, batch_format="pyarrow")
    if bounds is not None:
        # groupby emits buckets in KEY order (sort-based shuffle) and the
        # collapse sorts within each bucket -> already globally ordered
        return out
    return out.sort(["conv_id", "turn_idx"])


def run_linkage(transcripts: Dataset, config: LinkageConfig | None = None,
                checkpoint_dir: str | None = None,
                input_paths: list[str] | None = None, scorer_cls=None,
                scorer_kwargs: dict | None = None) -> tuple[Dataset, dict]:
    """Full pipeline. Returns (clustered mentions Dataset, stage metrics).

    With ``checkpoint_dir``, each stage's output is written atomically and a
    rerun resumes after the last completed stage (same input + config
    fingerprint), per the north rule's resumability requirement.

    ``scorer_cls`` / ``scorer_kwargs`` swap the scorer (default: the
    deterministic stand-in ``PairScorer`` as a task stage; a ``scorer_cls``
    such as ``stages.model.ModelPairScorer`` runs as an actor pool).
    """
    config = config or LinkageConfig()
    ckpt = None
    if checkpoint_dir:
        # the scorer class participates in the resume fingerprint: a run
        # with a different scorer must never adopt another run's scores
        cfg_fp = dict(asdict(config))
        cfg_fp["scorer_cls"] = (scorer_cls or PairScorer).__name__
        if scorer_kwargs and "mode" in scorer_kwargs:
            cfg_fp["scorer_mode"] = scorer_kwargs["mode"]
        fp = fingerprint(cfg_fp,
                         input_fingerprint(input_paths or []) if input_paths else "mem")
        ckpt = CheckpointManager(checkpoint_dir, fp)

    metrics: dict = {}

    def stage(name: str, upstream: list[str], fn, *args) -> Dataset:
        if ckpt and ckpt.has(name):
            metrics[name] = {"resumed": True}
            return ckpt.load(name)
        t0 = time.time()
        ds = fn(*args)
        if ckpt:
            ds = ckpt.save(name, ds, upstream, t0)
        return ds

    mentions = stage("mentions", ["input"], extract_mentions, transcripts, config)
    if not ckpt:
        # two consumers (vocab + final join-back) — pin once, don't recompute.
        # ORDERED materialize: with preserve_order off, materialize() stores
        # blocks in COMPLETION order, which breaks the range-partition
        # contract downstream (assign_clusters would then always pay the
        # global sort). Mentions is the only order-bearing table — pin order
        # here, leave every other stage free to pipeline out of order.
        mentions = in_logical_order(mentions, Dataset.materialize)

    vocab = stage("vocab", ["mentions"], build_vocab, mentions)
    if not ckpt:
        vocab = vocab.materialize()  # consumed by IDF stats + banding

    pairs = stage("pairs", ["vocab"], generate_pairs, vocab, config)

    # corpus DF statistics: distributed aggregate -> ray.put ONCE -> read by
    # every scorer in its __init__ (broadcast small side, never re-shipped)
    t0 = time.time()
    stats_ref = ray.put(build_idf_stats(vocab, config))
    metrics["idf_stats"] = {"wall_sec": round(time.time() - t0, 3)}

    scored = stage("scores", ["pairs"], score_pairs, pairs, config, stats_ref,
                   scorer_cls, scorer_kwargs)
    # edges is consumed at least twice by connected_components (count +
    # label loop); without materialize() the whole scorer chain re-executes
    # per consumption. The table is threshold-filtered and tiny vs input.
    edges = matched_edges(scored, config).materialize()

    if ckpt and ckpt.has("assignments"):
        assignments = ckpt.load("assignments")
        metrics["assignments"] = {"resumed": True}
        cc_stats = {}
    else:
        t0 = time.time()
        assignments, cc_stats = connected_components(
            edges, num_partitions=config.num_hash_buckets,
            max_rounds=config.max_cc_rounds)
        if ckpt:
            assignments = ckpt.save("assignments", assignments, ["scores"], t0)

    clustered = stage("clusters", ["assignments", "mentions"],
                      assign_clusters, mentions, assignments, config)

    if ckpt:
        for name, ent in ckpt.metrics().items():
            merged = dict(ent)
            merged.update(metrics.get(name, {}))
            metrics[name] = merged
    metrics.update(cc_stats)
    return clustered, metrics


def run_linkage_on_parquet(path: str, config: LinkageConfig | None = None,
                           checkpoint_dir: str | None = None,
                           num_blocks: int | None = None) -> tuple[Dataset, dict]:
    # prune at the read: extraction only needs these three columns.
    # num_blocks: a single small parquet file loads as ONE block and would
    # serialize the extraction stage; benchmarks pass ~4x num_cpus.
    ds = ray.data.read_parquet(path, columns=["conv_id", "turn_idx", "text"],
                               override_num_blocks=num_blocks)
    return run_linkage(ds, config, checkpoint_dir, input_paths=[path])
