"""Checkpointed multi-stage corpus preparation — the composed
training-data pipeline a corpus actually ships through:

    quality + language filter  ->  fuzzy dedup (SimHash + CC)  ->
    sequence packing

Each stage is an existing value-oracled operator (corpus.doc_quality /
doc_langid semantics, corpus.fuzzy_dedup_assign,
traindata.pack_sequences_ds); this module contributes the COMPOSITION:
one streaming dataflow when run pure, and per-stage Parquet checkpoints
with lineage + metrics (state/checkpoint.CheckpointManager) when given a
checkpoint root — extending the north rule's resume contract
(reference's manual --start_index resume:
/root/reference/BiEncoder/test_retrieval.py:47-56) beyond the flagship
linkage pipeline to the corpus-prep family. A rerun after a kill
resumes from the last durable stage and produces byte-identical output.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from chameleon_entity_linking_ray.functions.text import (
    LANG_STOPWORDS,
    punct_counts,
    stopword_hit_counts,
    token_counts,
)
from chameleon_entity_linking_ray.pipelines.analytics import read_table
from chameleon_entity_linking_ray.pipelines.corpus import (
    LANG_ORDER,
    fuzzy_dedup_assign,
)
from chameleon_entity_linking_ray.pipelines.traindata import pack_sequences_ds


def _doc_gate_scores(text) -> tuple[np.ndarray, np.ndarray]:
    """(quality round6, lang_pred) per document — the ONE copy of the
    gate kernels (same formulas as corpus.doc_quality / corpus.doc_langid)
    shared by ``_quality_lang_filter`` and ``curation_funnel`` so the
    composed ops cannot drift from the standalone operators' semantics."""
    n_punct = punct_counts(text)
    n_tok = np.asarray(pc.cast(token_counts(text), pa.int64())
                       .to_numpy(zero_copy_only=False))
    n_chars = np.asarray(pc.utf8_length(text)
                         .to_numpy(zero_copy_only=False), dtype=np.int64)
    quality = np.round(0.5 * np.minimum(n_tok, 100) / 100.0 +
                       0.5 * (1.0 - n_punct / np.maximum(n_chars, 1)), 6)
    scores = np.stack([stopword_hit_counts(text, LANG_STOPWORDS[lg])
                       for lg in LANG_ORDER])
    best = scores.argmax(axis=0)
    pred = np.array(LANG_ORDER, dtype=object)[best]
    pred[scores.max(axis=0) == 0] = "und"
    return quality, pred


def _quality_lang_filter(docs: Dataset, quality_min: float,
                         lang: str) -> Dataset:
    """Map-only filter: keep docs whose quality score (same formula as
    corpus.doc_quality, round(6)) clears ``quality_min`` AND whose
    language ID (same stopword argmax as corpus.doc_langid) is ``lang``.
    """

    def fn(batch: pa.Table) -> pa.Table:
        quality, pred = _doc_gate_scores(batch.column("text"))
        keep = (quality >= quality_min) & (pred == lang)
        return batch.filter(pa.array(keep))

    return docs.map_batches(fn, batch_format="pyarrow")


def corpus_prep(sf_dir: str, ckpt_root: str | None = None,
                quality_min: float = 0.5, lang: str = "en",
                budget: int = 256, max_hamming: int = 3) -> Dataset:
    """Filter -> fuzzy-dedup -> pack, as one streaming dataflow.

    With ``ckpt_root`` set, every stage writes partitioned Parquet
    atomically and records lineage + row counts in the manifest; a rerun
    with the same fingerprints skips completed stages (see
    tests/test_prep.py for the kill-after-stage resume pin). Output: one
    row per SURVIVING document — (doc_id, n_tokens, seq_id).
    """
    mgr = None
    if ckpt_root is not None:
        from chameleon_entity_linking_ray.state.checkpoint import (
            CheckpointManager,
            fingerprint,
            input_fingerprint,
        )
        mgr = CheckpointManager(
            ckpt_root,
            fingerprint(input_fingerprint([f"{sf_dir}/documents.parquet"]),
                        quality_min, lang, budget, max_hamming))

    def stage(name: str, build, upstream: list[str]) -> Dataset:
        if mgr is None:
            return build()
        if mgr.has(name):
            return mgr.load(name)
        t0 = time.time()
        return mgr.save(name, build(), upstream, t0)

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    filtered = stage("filtered",
                     lambda: _quality_lang_filter(docs, quality_min, lang),
                     upstream=["input"])
    def keepers(batch: pa.Table) -> pa.Table:
        return batch.filter(batch.column("keep")) \
            .select(["doc_id", "text"])

    survivors = stage(
        "dedup",
        lambda: fuzzy_dedup_assign(filtered, max_hamming=max_hamming)
        .map_batches(keepers, batch_format="pyarrow"),
        upstream=["filtered"])
    return stage("packed",
                 lambda: pack_sequences_ds(survivors, budget=budget),
                 upstream=["dedup"])


def curation_funnel(sf_dir: str, lang: str = "en",
                    quality_min: float = 0.75, prefix_tokens: int = 8,
                    sample_hex: str = "8000",
                    num_buckets: int = 64) -> Dataset:
    """Per-document curation-funnel ACCOUNTING: one row per doc with
    cumulative gate flags — (1) ``lang_pred == lang``; (2) ``quality >=
    quality_min``; (3) keep-first dedup on the leading-``prefix_tokens``
    normalized key among stage-2 survivors; (4) content-addressed md5
    sample — so per-stage survivor counts AND which stage killed each
    doc are one tiny aggregate away. ``corpus_prep`` emits the surviving
    subset; this emits the observability table a 100 TB curation run
    needs to debug its own attrition.

    Shape: stages 1/2/4 are computed in ONE map-only pass (the same
    vectorized kernels as ``doc_langid`` / ``doc_quality`` /
    ``sample_documents``); stage 3 is the only shuffle — ``bucketed`` on
    the dedup key, keep-first = min doc_id per key among survivors.
    """
    import hashlib

    from chameleon_entity_linking_ray.stages.shuffle import bucketed

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def gates(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        quality, pred = _doc_gate_scores(text)
        p1 = pred == lang
        p2 = p1 & (quality >= quality_min)
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(text),
                                      r"\s+")
        key = pc.binary_join(pc.list_slice(toks, 0, prefix_tokens), " ") \
            .cast(pa.string())
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        s_ok = np.fromiter(
            (hashlib.md5(str(int(d)).encode()).hexdigest()[:4] < sample_hex
             for d in ids), bool, len(ids))
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "lang_pred": pa.array(pred, pa.string()),
            "quality": pa.array(quality, pa.float64()),
            "pass_lang": pa.array(p1.astype(np.int64)),
            "pass_quality": pa.array(p2.astype(np.int64)),
            "sample_ok": pa.array(s_ok),
            "key": key,
        })

    def dedup_gate(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        alive = g[g["pass_quality"] == 1]
        first = alive.groupby("key")["doc_id"].min()
        keep = g["key"].map(first)
        p3 = ((g["pass_quality"] == 1) &
              (g["doc_id"] == keep)).astype(np.int64)
        p4 = (p3.astype(bool) & g["sample_ok"]).astype(np.int64)
        return t.select(["doc_id", "lang_pred", "quality", "pass_lang",
                         "pass_quality"]) \
            .append_column("pass_dedup", pa.array(p3.to_numpy())) \
            .append_column("pass_sample", pa.array(p4.to_numpy()))

    return bucketed(docs.map_batches(gates, batch_format="pyarrow"),
                    ["key"], dedup_gate, num_buckets)
