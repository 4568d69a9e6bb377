"""Corpus document-frequency statistics for IDF-weighted scoring.

The reference's discriminative power comes from trained LUKE towers; the
deterministic engine scorer gets its discrimination from corpus statistics
instead: char-ngram and token document frequencies, counted in one
``fold`` task over a vocabulary-sized input and as a pre-aggregated
distributed ``groupby().aggregate(Sum)`` above that (partial counts per
batch -> tiny final shuffle), then broadcast via ``ray.put`` once and
looked up inside the scoring tasks with vectorized ``np.searchsorted`` —
the canonical "small side broadcast" join pattern.

At 10^12-mention scale the vocabulary is capped to the ``max_vocab`` most
frequent terms (rare terms get the default/max IDF, which is the right
prior for anything that fell out of the cap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset
from ray.data.aggregate import Sum

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.functions.hashing import flat_ngram_hashes, hash64
from chameleon_entity_linking_ray.stages.fold import fold


@dataclass
class IdfStats:
    """Sorted hash -> idf lookup tables (numpy, searchsorted-friendly)."""

    ngram_hashes: np.ndarray  # uint64, sorted
    ngram_idf: np.ndarray  # float32, aligned
    token_hashes: np.ndarray
    token_idf: np.ndarray
    default_idf: float
    n_docs: int

    def ngram_weights(self, hashes: np.ndarray) -> np.ndarray:
        return _lookup(self.ngram_hashes, self.ngram_idf, hashes, self.default_idf)

    def token_weights(self, hashes: np.ndarray) -> np.ndarray:
        return _lookup(self.token_hashes, self.token_idf, hashes, self.default_idf)


def _lookup(keys: np.ndarray, vals: np.ndarray, q: np.ndarray, default: float) -> np.ndarray:
    if keys.size == 0:
        return np.full(q.shape, default, dtype=np.float32)
    pos = np.searchsorted(keys, q)
    pos_c = np.clip(pos, 0, keys.size - 1)
    hit = keys[pos_c] == q
    out = np.full(q.shape, default, dtype=np.float32)
    out[hit] = vals[pos_c[hit]]
    return out


def _partial_counts(texts: list[str], k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-batch partial DF: distinct (doc, term) once. Returns
    (ngram_hash, ngram_count, token_hash, token_count)."""
    flat, off = flat_ngram_hashes(texts, k)
    rows = np.repeat(np.arange(len(texts), dtype=np.int64), np.diff(off))
    # distinct per doc: unique on (row, hash)
    pair = np.stack([rows.astype(np.uint64), flat], axis=1)
    uniq = np.unique(pair, axis=0)
    ng_h, ng_c = np.unique(uniq[:, 1], return_counts=True)

    token_lists = [t.split() for t in texts]
    tok_rows = np.repeat(np.arange(len(texts), dtype=np.int64),
                         [len(t) for t in token_lists])
    all_toks = [tok for ts in token_lists for tok in ts]
    if all_toks:
        th = hash64(all_toks)
        tpair = np.stack([tok_rows.astype(np.uint64), th], axis=1)
        tuniq = np.unique(tpair, axis=0)
        tk_h, tk_c = np.unique(tuniq[:, 1], return_counts=True)
    else:
        tk_h = np.empty(0, np.uint64)
        tk_c = np.empty(0, np.int64)
    return ng_h, ng_c, tk_h, tk_c


def _df_table(texts: list[str], k: int) -> pa.Table:
    """Document frequencies over ``texts``: ``kind`` (0 char n-gram,
    1 token), ``h`` (its hash as int64), ``c`` (documents holding it)."""
    ng_h, ng_c, tk_h, tk_c = _partial_counts(texts, k)
    return pa.table({
        "kind": pa.array([0] * len(ng_h) + [1] * len(tk_h), pa.int8()),
        "h": pa.array(np.concatenate([ng_h.view(np.int64), tk_h.view(np.int64)]),
                      pa.int64()),
        "c": pa.array(np.concatenate([ng_c, tk_c]), pa.int64()),
    })


def build_idf_stats(mentions: Dataset, config: LinkageConfig,
                    text_col: str = "norm", max_vocab: int = 1_000_000) -> IdfStats:
    """DF aggregate -> IdfStats (bounded by max_vocab): one ``fold`` task
    up to 200k documents, a distributed aggregate above."""
    k = config.shingle_k
    n_docs = mentions.count()
    if n_docs <= 200_000:
        # small vocab: one task counts every block at once — the
        # distributed groupby+sort costs several scheduling barriers that
        # dwarf the actual work at this size
        return ray.get(fold(mentions, _fold_idf_stats, text_col, k,
                            max_vocab, n_docs))

    def partials(batch: pa.Table) -> pa.Table:
        return _df_table(batch.column(text_col).to_pylist(), k)

    agg = mentions.map_batches(partials, batch_format="pyarrow") \
        .groupby(["kind", "h"]).aggregate(Sum("c", alias_name="df")) \
        .sort("df", descending=True).limit(max_vocab)
    return _idf_stats(agg.to_pandas(), n_docs)


def _fold_idf_stats(blocks: list[pa.Table], text_col: str, k: int,
                    max_vocab: int, n_docs: int) -> IdfStats:
    """``build_idf_stats`` in one task: one DF table over every block's
    texts, its ``max_vocab`` most frequent terms kept."""
    texts = [t for b in blocks for t in b.column(text_col).to_pylist()]
    tbl = _df_table(texts, k).to_pandas().rename(columns={"c": "df"}) \
        .sort_values("df", ascending=False, kind="stable").head(max_vocab)
    return _idf_stats(tbl, n_docs)


def _idf_stats(tbl, n_docs: int) -> IdfStats:
    """IdfStats from a pandas (kind, h, df) document-frequency table."""
    if tbl.empty or "kind" not in tbl.columns:  # empty corpus
        e64 = np.empty(0, np.uint64)
        e32 = np.empty(0, np.float32)
        return IdfStats(e64, e32, e64, e32, default_idf=1.0, n_docs=n_docs)

    def side(kind: int) -> tuple[np.ndarray, np.ndarray]:
        sub = tbl[tbl["kind"] == kind]
        h = sub["h"].to_numpy().view(np.uint64)
        df = sub["df"].to_numpy().astype(np.float64)
        idf = np.log1p(n_docs / np.maximum(df, 1)).astype(np.float32)
        order = np.argsort(h)
        return h[order], idf[order]

    ng_h, ng_i = side(0)
    tk_h, tk_i = side(1)
    return IdfStats(ng_h, ng_i, tk_h, tk_i,
                    default_idf=float(np.log1p(n_docs)), n_docs=n_docs)
