"""The flagship pipeline: transcripts -> entity clusters.

Engine shape (SURVEY.md §7.1), end-to-end as streaming Dataset flows with
optional per-stage checkpoints:

    read_parquet(transcripts)
      -> map_batches(MentionExtractor)                 # stateless, Arrow
      -> per-block norm counts, summed per norm bucket # SHUFFLE 1 = vocabulary
      -> map_batches(LshBander)  bands + token blocks  # stateless numpy
      -> block_pairs: pairs per block-key bucket       # SHUFFLE 2 (skew-capped)
         then per pair-hash bucket, lowest key kept    # SHUFFLE 3 pair dedup
      -> map_batches(score_batch) + broadcast IDF      # rerank every pair: one
         per-block distinct-surface features,         #   stateless task per pair
         pairs gathered in bounded chunks             #   block, fused with the
      -> filter(score > theta) -> edges                #   edge filter
      -> connected_components(...)                     # SHUFFLE 4..k (or driver UF)
      -> attach(mentions, assignments, how="left")     # broadcast map: the
         (stages.joins)                                #   table is vocab-sized
      -> per-block sort(conv_id, turn_idx) + ordered   # output invariant:
         materialize; a tiny task per block reads its  #   NO shuffle when the
         first and last key, the driver checks seams   #   input is range-
         (first key >= previous last key) => a failed  #   partitioned
         seam falls back to the global sort of the materialized output

    annotate_transcripts(transcripts, clustered)       # run-file output
      -> fold(clustered): distinct (surface,           # one task; the table
         cluster_id), left in the object store         #   is vocab-sized and
                                                       #   never on the driver
      -> map_batches(re-extract + lookup)              # one map, no join
      -> the same order tail as the mentions, on (conv_id, turn_idx)

Every SHUFFLE is ``stages.shuffle.bucketed``: rows hashed on their key to
a bucket, one Arrow callback per bucket.

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
from chameleon_entity_linking_ray.stages.blocking import LshBander, block_pairs
from chameleon_entity_linking_ray.stages.cluster import connected_components
from chameleon_entity_linking_ray.stages.extract import (
    MentionExtractor,
    find_mentions_batch,
    row_lists,
)
from chameleon_entity_linking_ray.stages.fold import each, fold
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
    """Deduped candidate pairs ``(left_id, right_id, left_text, right_text,
    block_key)`` of the surface vocabulary. Hot blocks pair lexicographic
    neighbors (sort by surface); the texts ride along so scoring needs no
    join back to the vocab (SURVEY.md J1)."""
    banded = vocab.map_batches(
        LshBander(config), batch_format="pyarrow", batch_size=config.batch_size)
    return block_pairs(
        banded, "node", "block_key", config.pair_window, config.max_block_size,
        text_col="norm", num_buckets=config.num_hash_buckets,
    ).rename_columns({"left_norm": "left_text", "right_norm": "right_text"})


def score_pairs(pairs: Dataset, config: LinkageConfig, stats_ref=None,
                scorer_cls=None, scorer_kwargs: dict | None = None) -> Dataset:
    """Append ``text_score``, ``entity_score`` and ``score`` to every pair.

    Default (no ``scorer_cls``): the deterministic ``PairScorer`` kernel as
    a stateless TASK stage, one call per pair BLOCK — each distinct surface
    of the block is featurized once, and its pairs are scored in chunks of
    ``config.scorer_batch_size``. No pool to size or starve, and it fuses
    with the downstream edge filter, so the scored pair table is never
    pinned. Every score is per pair, so the layout cannot change a value.

    ``scorer_cls``: any callable class with the PairScorer protocol whose
    ``__init__`` is worth amortizing, e.g. ``stages.model.ModelPairScorer``
    (plus its ``weights_ref`` in ``scorer_kwargs``): it runs as a fixed
    actor pool. ``scorer_kwargs`` are its constructor arguments, so they
    need a ``scorer_cls``."""
    if scorer_cls is None:
        if scorer_kwargs:
            raise ValueError(f"score_pairs: scorer_kwargs {sorted(scorer_kwargs)} "
                             "given without a scorer_cls")
        return pairs.map_batches(
            score_batch, fn_kwargs={"config": config, "stats_ref": stats_ref},
            batch_format="pyarrow", batch_size=None)
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
_ENTITY_STRUCT = pa.struct([("start", pa.int32()), ("end", pa.int32()),
                            ("surface", pa.string()),
                            ("cluster_id", pa.int64())])
_LOOKUP_SCHEMA = pa.schema([("surface", pa.string()),
                            ("cluster_id", pa.int64())])


def _local_sort(ds: Dataset, keys: list[str]) -> Dataset:
    """Per-block (= per-partition) sort — ZERO data movement.

    The pipeline's map-only stages preserve input block order, and a
    100 TB transcript corpus is stored range-partitioned by conv_id (each
    shard a disjoint, ordered conv range — the layout the resumable
    partitioned writer produces). On such input a per-block sort yields
    globally stable (conv_id, turn_idx) order WITHOUT the all-to-all
    exchange a global ``Dataset.sort`` costs (measured as the scaling wall:
    ~25 s for the 30M-row mention table on one node, round 1 VERDICT).
    ``_output_order`` checks the result at the block seams."""

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


def _ends(block: pa.Table, keys: list[str]) -> tuple[tuple, tuple]:
    """The first and the last ``keys`` row of a sorted, non-empty block."""
    return tuple(tuple(block.column(k)[i].as_py() for k in keys)
                 for i in (0, block.num_rows - 1))


def _seams_in_order(ends: list[tuple[tuple, tuple]]) -> bool:
    """Whether sorted blocks, given by their ``_ends`` in block order, form
    one sorted sequence: each block's first key is >= the key the previous
    block ends on."""
    return all(lo >= prev_hi for (_, prev_hi), (lo, _) in zip(ends, ends[1:]))


def _output_order(ds: Dataset, keys: list[str]) -> Dataset:
    """The output tail of ``assign_clusters`` and ``annotate_transcripts``:
    stable ``keys`` order.

    Every block is sorted in place (``_local_sort``) and the result is
    materialized in LOGICAL block order — without the pin, ``preserve_order``
    off hands ``take_all``/``to_pandas``, ``write_parquet`` and the seam
    check (which reads blocks in stored order) the blocks in completion
    order. One small ``each`` task per block reads its first and last key
    where it is stored; the driver checks the seams. They hold when the
    input was range-partitioned and every stage since kept its blocks in
    place: the materialized output is returned as is. A failed seam
    (interleaved input, or an attach that shuffled) falls back to the
    global ``Dataset.sort`` of that output."""
    out = in_logical_order(_local_sort(ds, keys), Dataset.materialize)
    if _seams_in_order(ray.get(each(out, _ends, keys))):
        return out
    return out.sort(keys)


def assign_clusters(mentions: Dataset, assignments: Dataset,
                    config: LinkageConfig) -> Dataset:
    """Left-join mentions (via node = hash(norm)) with CC assignments
    through ``stages.cluster.attach_assignments``; singleton surfaces
    cluster to their own node id. Output in stable
    (conv_id, turn_idx, span_start) order through ``_output_order``,
    shared with ``annotate_transcripts``.

    The assignment table covers only surfaces that matched something —
    vocabulary-scale — so the attach is a broadcast map that keeps the
    mention blocks in place, and the per-block sort passes the seam check.
    Interleaved input, or an attach past ``joins.BROADCAST_ROWS`` (its
    bucketed shuffle destroys block order), fails the check and takes the
    global sort."""
    from chameleon_entity_linking_ray.stages.cluster import attach_assignments
    from chameleon_entity_linking_ray.stages.extract import restore_derived

    with_node = mentions.map_batches(add_node_column(), batch_format="pyarrow")
    out = attach_assignments(with_node, assignments, "node",
                             config.num_hash_buckets) \
        .drop_columns(["keep"]) \
        .map_batches(restore_derived, batch_format="pyarrow")
    return _output_order(out, _OUT_KEYS)


def _lookup_table(blocks: list[pa.Table]) -> tuple[pa.Array, pa.Array]:
    """The distinct ``(surface, cluster_id)`` pairs of ``clustered``'s
    blocks, as two aligned arrays."""
    t = pa.concat_tables([_LOOKUP_SCHEMA.empty_table()]
                         + [b.select(_LOOKUP_SCHEMA.names) for b in blocks])
    t = t.group_by(_LOOKUP_SCHEMA.names).aggregate([])
    return tuple(t.column(c).combine_chunks() for c in _LOOKUP_SCHEMA.names)


def annotate_transcripts(transcripts: Dataset, clustered: Dataset,
                         config: LinkageConfig | None = None) -> Dataset:
    """Turn-level output: every input turn, text byte-identical, plus typed
    ``entities: list<struct<start,end,surface,cluster_id>>`` — the engine's
    run-file analog (/root/reference/BiEncoder/test.py:128-132) satisfying
    the north-rule per-row invariant: per-turn text equality under stable
    (conv_id, turn_idx) ordering.

    Contract: ``clustered`` is ``run_linkage`` output for these transcripts
    under the same ``config``. A mention's cluster depends only on its
    surface, so the turns are annotated in ONE map: it re-runs the
    extraction kernel at ``config.rho_threshold`` (same spans) and looks
    each surface up in a vocabulary-sized ``surface -> cluster_id`` table.
    One ``fold`` task builds that table from ``clustered`` and every map
    task reads it from the object store; the driver never holds it. A
    re-extracted surface missing from the table breaks the contract and
    raises ``ValueError``. The output then takes the same order tail as
    ``assign_clusters`` (``_output_order``).
    """
    config = config or LinkageConfig()
    lookup_ref = fold(clustered, _lookup_table)

    def annotate(batch: pa.Table) -> pa.Table:
        lut_surface, lut_cluster = ray.get(lookup_ref)
        texts = batch.column("text").to_pylist()
        row, start, end, surfaces, _ = find_mentions_batch(
            texts, config.rho_threshold)
        surf = pa.array(surfaces, pa.string())
        pos = pc.index_in(surf, value_set=lut_surface)
        if pos.null_count:
            i = pc.index(pc.is_null(pos), True).as_py()
            key = tuple(batch.column(c)[int(row[i])].as_py()
                        for c in ("conv_id", "turn_idx"))
            raise ValueError(
                f"surface {surfaces[i]!r} at (conv_id, turn_idx) {key} is "
                "not in `clustered`: it must be run_linkage output for these "
                "transcripts under the same config")
        return batch.append_column("entities", row_lists(
            row, len(texts), _ENTITY_STRUCT,
            [pa.array(start, pa.int32()), pa.array(end, pa.int32()), surf,
             lut_cluster.take(pos)]))

    out = transcripts.map_batches(annotate, batch_format="pyarrow",
                                  batch_size=config.batch_size)
    return _output_order(out, ["conv_id", "turn_idx"])


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
        # contract downstream (assign_clusters' seam check would then fail
        # and pay the global sort). Mentions is the only order-bearing table — pin order
        # here, leave every other stage free to pipeline out of order.
        mentions = in_logical_order(mentions, Dataset.materialize)

    vocab = stage("vocab", ["mentions"], build_vocab, mentions)
    if not ckpt:
        vocab = vocab.materialize()  # consumed by IDF stats + banding

    pairs = stage("pairs", ["vocab"], generate_pairs, vocab, config)

    # corpus DF statistics: one fold task (a distributed aggregate past
    # 200k surfaces) -> ray.put ONCE -> read by every scoring task
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
    # num_blocks=None leaves the read's block count to Ray: one small file
    # is one read task whose output Ray splits into a few blocks (perfbench
    # reads this way, see perfbench/README.md "Input blocks"); pass a count
    # to pin it.
    ds = ray.data.read_parquet(path, columns=["conv_id", "turn_idx", "text"],
                               override_num_blocks=num_blocks)
    return run_linkage(ds, config, checkpoint_dir, input_paths=[path])
