"""Training-data corpus operations over the ``documents`` / ``embeddings``
tables: text analysis, the deduplication family, and similarity search.

These are the large-scale data-pipeline ops the engine adds beyond the
reference's operator set (its per-passage dict loops, e.g.
/root/reference/CrossEncoder/test.py:26-32, never scale past driver RAM).
Everything is map_batches + bucketed shuffles; nothing materializes the
corpus on the driver.

Column names/types match the DuckDB oracles in ``__ray_entry__.py``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import Dataset

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.functions.minhash import (
    lsh_band_keys,
    minhash_signatures,
)
from chameleon_entity_linking_ray.functions.text import (
    LANG_STOPWORDS,
    punct_counts,
    stopword_hit_counts,
    token_counts,
)
from chameleon_entity_linking_ray.pipelines.analytics import read_table
from chameleon_entity_linking_ray.stages.agg import embedding_matrix, grouped_agg, grouped_top_k
from chameleon_entity_linking_ray.stages.blocking import block_pairs
from chameleon_entity_linking_ray.stages.fold import fold
from chameleon_entity_linking_ray.stages.joins import attach
from chameleon_entity_linking_ray.stages.shuffle import bucketed


# ---------------------------------------------------------------- text analysis

def doc_tokens(sf_dir: str) -> Dataset:
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pc.cast(token_counts(text), pa.int64()),
            "n_chars2": pc.cast(pc.utf8_length(text), pa.int64()),
        })

    return docs.map_batches(fn, batch_format="pyarrow")


def doc_quality(sf_dir: str) -> Dataset:
    """Quality score: token-volume and punctuation-cleanliness blend,
    round(6) so both engines compare equal doubles."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n_punct = punct_counts(text)
        n_tok = np.asarray(pc.cast(token_counts(text), pa.int64())
                           .to_numpy(zero_copy_only=False))
        n_chars = np.asarray(pc.utf8_length(text).to_numpy(zero_copy_only=False),
                             dtype=np.int64)
        quality = (0.5 * np.minimum(n_tok, 100) / 100.0 +
                   0.5 * (1.0 - n_punct / np.maximum(n_chars, 1)))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_punct": pa.array(n_punct, pa.int64()),
            "quality": pa.array(np.round(quality, 6), pa.float64()),
        })

    return docs.map_batches(fn, batch_format="pyarrow")


LANG_ORDER = ["en", "de", "fr"]


def doc_langid(sf_dir: str) -> Dataset:
    """Stopword-hit language ID; first language (in LANG_ORDER) with the
    max positive score wins, else 'und'. The oracle SQL is generated from
    the same stopword lists, so semantics are pinned by construction."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        scores = np.stack([stopword_hit_counts(text, LANG_STOPWORDS[lang])
                           for lang in LANG_ORDER])  # [lang, n]
        best = scores.argmax(axis=0)  # first max wins (argmax is first)
        pred = np.array(LANG_ORDER, dtype=object)[best]
        pred[scores.max(axis=0) == 0] = "und"
        return pa.table({"doc_id": batch.column("doc_id"),
                         "lang_pred": pa.array(pred, pa.string())})

    return docs.map_batches(fn, batch_format="pyarrow")


def doc_fingerprint(sf_dir: str) -> Dataset:
    """Content-addressed document fingerprint: md5 of the utf-8 text,
    hex-encoded — cross-engine verifiable (oracle: DuckDB ``md5(text)``).
    Exact-dup detection key. At 100 TB the same dataflow runs the keyed
    vectorized SipHash (``functions.hashing.hash64``) instead — md5 is the
    verifiability choice, not the perf choice."""
    import hashlib
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5(t.encode("utf-8")).hexdigest()
               for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "fingerprint": pa.array(fps, pa.string())})

    return docs.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------- dedup family

def _id_pairs(pairs: Dataset, name: str) -> Dataset:
    """``stages.blocking.block_pairs`` output (deduped, canonical) as the
    ``(left_<name>, right_<name>)`` candidate table."""
    return pairs.select_columns(["left_id", "right_id"]).rename_columns(
        {"left_id": f"left_{name}", "right_id": f"right_{name}"})


def _exact_jaccard_tbl(batch: pa.Table, lt: list, rt: list, k: int,
                       threshold: float) -> pa.Table:
    """Vectorized segment-sort char-k-shingle Jaccard over aligned text
    lists; emits pairs with ROUND(j, 6) >= threshold (matches SQL)."""
    from chameleon_entity_linking_ray.functions.hashing import flat_char_shingles

    n = len(lt)
    hl, ol = flat_char_shingles(lt, k)
    hr, orr = flat_char_shingles(rt, k)
    segl = np.repeat(np.arange(n, dtype=np.int64), np.diff(ol))
    segr = np.repeat(np.arange(n, dtype=np.int64), np.diff(orr))
    vl, sl = _seg_unique_pair(hl, segl)
    vr, sr = _seg_unique_pair(hr, segr)
    na = np.bincount(sl, minlength=n)
    nb = np.bincount(sr, minlength=n)
    # intersection: concat both unique sides, count duplicate
    # (segment, value) occurrences
    v = np.concatenate([vl, vr])
    s = np.concatenate([sl, sr])
    order = np.lexsort((v, s))
    v, s = v[order], s[order]
    dup = (v[1:] == v[:-1]) & (s[1:] == s[:-1]) if len(v) else np.zeros(0, bool)
    inter = np.bincount(s[1:][dup], minlength=n)
    union = np.maximum(na + nb - inter, 1)
    out = inter / union
    t = pa.table({"left_doc": batch.column("left_doc"),
                  "right_doc": batch.column("right_doc"),
                  "jaccard": pa.array(np.round(out, 6), pa.float64())})
    return t.filter(pc.greater_equal(t.column("jaccard"), threshold))


def exact_jaccard_filter(cand: Dataset, docs: Dataset, k: int,
                         threshold: float) -> Dataset:
    """(left_doc, right_doc) candidates -> pairs with EXACT char-k-shingle
    Jaccard >= threshold (rounded 6dp, matching SQL ``ROUND``), the
    disposal kernel shared by the rare-shingle and MinHash-LSH candidate
    generators. Both texts come from ``_attach_texts``."""

    def exact(batch: pa.Table) -> pa.Table:
        return _exact_jaccard_tbl(batch, batch.column("text").to_pylist(),
                                  batch.column("text_r").to_pylist(),
                                  k, threshold)

    return _attach_texts(cand, docs).map_batches(exact, batch_format="pyarrow")


def _attach_texts(cand: Dataset, docs: Dataset) -> Dataset:
    """(left_doc, right_doc, ...) + the two docs' ``text`` and ``text_r``:
    two ``attach``es of the (doc_id, text) table — broadcast maps up to
    ``joins.BROADCAST_ROWS`` docs, bucketed shuffles above."""
    docs = docs.select_columns(["doc_id", "text"]).materialize()
    return attach(attach(cand, docs, "left_doc", right_on="doc_id"),
                  docs, "right_doc", right_on="doc_id")


def _assemble_matrix(blocks: list[pa.Table]) -> tuple[np.ndarray, np.ndarray]:
    """(vec_id array, L2-normalized float64 matrix) from (vec_id,
    embedding) blocks, rows sorted by vec_id: one ``fold`` builds it, so
    the embedding table never materializes on the driver."""
    if not blocks:
        return np.empty(0, np.int64), np.empty((0, 0), np.float64)
    t = pa.concat_tables(blocks)
    ids = t.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    mat = embedding_matrix(t.column("embedding"))
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    order = np.argsort(ids, kind="mergesort")  # sorted ids -> searchsorted probes
    return ids[order], mat[order]


def dedup_exact(sf_dir: str) -> Dataset:
    """Exact dedup: a ``bucketed`` shuffle on text, keep min doc_id per
    text group (keep-first). One row per distinct text."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def keep_first(g: pa.Table) -> pa.Table:
        gb = g.to_pandas().groupby("text", sort=False)["doc_id"]
        out = pd.DataFrame({"keep_id": gb.min(), "n_copies": gb.size()}).reset_index()
        out["n_copies"] = out["n_copies"].astype(np.int64)
        return pa.Table.from_pandas(out[["text", "keep_id", "n_copies"]],
                                    preserve_index=False)

    return bucketed(docs, ["text"], keep_first, 64)


def minhash_dup_pairs(sf_dir: str, threshold: float = 0.5, k: int = 8,
                      num_perm: int = 96, num_bands: int = 32,
                      config: LinkageConfig | None = None,
                      max_block: int = 64, window: int = 8) -> Dataset:
    """MinHash+LSH near-duplicate pairs over documents, disposed by EXACT
    char-k-shingle Jaccard >= threshold (value-verifiable): shingle ->
    minhash -> band -> ``block_pairs`` (per-band pair gen, cross-band
    dedup) -> exact-Jaccard filter (the shared segment-sort kernel).

    Emitting the exact Jaccard (not the signature estimate) makes the
    output a deterministic function of the input MODULO candidate recall,
    so the DuckDB oracle can hash-match values. Band config is r=3 rows x
    32 bands: candidate volume stays ~(background_j^3 * bands) of all
    pairs (r=2 admitted ~8% of ALL pairs at sf0.1 and drowned the exact
    filter), while true near-dups at j>=0.9 miss with P ~ (1-0.729)^32 ~
    7e-19 (at the j=0.5 boundary P[miss] ~ 1.4e-2 — this corpus has no
    pairs between 0.3 and 0.9; recall is pinned empirically against brute
    force in tests). At 100 TB, tune bands/rows to the target threshold;
    the dataflow is unchanged.

    Skew control as in stages/blocking.py: band blocks above ``max_block``
    members (low-information bands — everything collides) switch from
    all-pairs to windowed pairing over id-sorted members."""
    c = config or LinkageConfig()
    docs = read_table(sf_dir, "documents", ["doc_id", "text"]).materialize()

    def band(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sigs = minhash_signatures(texts, k, num_perm, c.minhash_seed)
        keys = lsh_band_keys(sigs, num_bands, c.minhash_seed)
        n, bands = keys.shape
        rep = np.repeat(np.arange(n, dtype=np.int64), bands)
        flat = keys.reshape(-1)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)[rep]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "block_key": pa.array(flat.view(np.int64), pa.int64()),
        })

    cand = block_pairs(docs.map_batches(band, batch_format="pyarrow"),
                       "doc_id", "block_key", window, max_block)
    return exact_jaccard_filter(_id_pairs(cand, "doc"), docs, k, threshold)


def _simhash_u64(texts: list[str]) -> np.ndarray:
    """64-bit SimHash per text over its DISTINCT whitespace tokens, as
    uint64 — the shared kernel behind ``simhash_docs`` (signatures) and
    ``simhash_dup_pairs`` (Hamming near-dup detection).

    Token hash = first 16 hex chars of md5(token) so the DuckDB oracle
    reproduces the exact bits; bit j is set iff the signed bit-j vote sum
    over tokens is > 0. md5 runs once per DISTINCT token per batch."""
    import hashlib
    bit_idx = np.arange(64, dtype=np.uint64)
    tok_lists = [sorted(set(t.split())) for t in texts]
    cache: dict[str, int] = {}
    for ts in tok_lists:
        for t in ts:
            if t not in cache:
                cache[t] = int(hashlib.md5(t.encode()).hexdigest()[:16], 16)
    n = len(texts)
    sims = np.zeros(n, dtype=np.uint64)
    counts = np.fromiter((len(t) for t in tok_lists), np.int64, n)
    flat = np.fromiter((cache[t] for ts in tok_lists for t in ts),
                       np.uint64, int(counts.sum()))
    if flat.size:
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        bits = ((flat[:, None] >> bit_idx) & np.uint64(1)) \
            .astype(np.int32) * 2 - 1  # [n_tokens, 64] in {-1, +1}
        # reduceat needs non-empty segments: pad trick via valid starts
        sums = np.zeros((n, 64), np.int64)
        nonempty = np.flatnonzero(counts)
        if len(nonempty):
            sums[nonempty] = np.add.reduceat(bits, offsets[nonempty], axis=0)
        simbits = (sums > 0).astype(np.uint64)
        sims = (simbits << bit_idx).sum(axis=1, dtype=np.uint64)
    return sims


def _popcount64(v: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) — no Python loop, no lookup
    table allocation per call."""
    v = v.astype(np.uint64, copy=True)
    v -= (v >> np.uint64(1)) & np.uint64(0x5555555555555555)
    v = (v & np.uint64(0x3333333333333333)) \
        + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333))
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
        .astype(np.int64)


def simhash_docs(sf_dir: str, config: LinkageConfig | None = None) -> Dataset:
    """64-bit SimHash per document over its DISTINCT whitespace tokens —
    near-dup docs land at small Hamming distance; the 16-bit prefix is a
    cheap blocking key.

    Token hash = first 16 hex chars of md5(token), so the DuckDB oracle
    reproduces the exact bits (``('0x'||substr(md5(t),1,16))::UBIGINT``);
    bit j of the simhash is set iff sum over tokens of (bit_j ? +1 : -1)
    is > 0. md5 runs once per DISTINCT token per batch (cached); the
    100 TB path swaps in the vectorized keyed hash, same dataflow."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sims = _simhash_u64(texts)
        hexes = [format(int(s), "016x") for s in sims]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "simhash": pa.array(hexes, pa.string()),
            "simhash_prefix": pa.array((sims >> np.uint64(48)).astype(np.int64),
                                       pa.int64()),
        })

    return docs.map_batches(fn, batch_format="pyarrow")


def _seg_unique_pair(vals: np.ndarray, segs: np.ndarray):
    """Unique values within each segment, fully vectorized (one lexsort)."""
    order = np.lexsort((vals, segs))
    v, s = vals[order], segs[order]
    keep = np.r_[True, (v[1:] != v[:-1]) | (s[1:] != s[:-1])] \
        if len(v) else np.zeros(0, bool)
    return v[keep], s[keep]


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5, k: int = 8,
                        df_cap: int = 10,
                        config: LinkageConfig | None = None) -> Dataset:
    """Exact char n-gram Jaccard near-dup pairs with RARE-SHINGLE blocking:
    a pair becomes a candidate iff it shares at least one shingle whose
    document frequency is <= ``df_cap`` (pairs per shingle bounded by
    df_cap^2/2 — skew-proof by construction, no hot-shingle blowup), then
    exact shingle-set Jaccard >= ``threshold`` disposes. Measured 100%
    recall vs brute-force all-pairs at j>=0.5 on the synthetic corpus.

    Every step is SQL-expressible (char substrings, DISTINCT, DF groupby,
    equi-join, list intersection), so the DuckDB oracle verifies values —
    the MinHash-LSH path (``minhash_dup_pairs``) remains the probabilistic
    scale alternative. Shingle semantics match SQL ``substring(text,i,k)``
    exactly (``flat_char_shingles``: char-based, no padding)."""
    from chameleon_entity_linking_ray.functions.hashing import flat_char_shingles
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    # (doc_id, shingle-hash) rows, distinct per doc
    def shingle_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        flat, off = flat_char_shingles(texts, k)
        segs = np.repeat(np.arange(len(texts), dtype=np.int64), np.diff(off))
        v, s = _seg_unique_pair(flat, segs)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)[s]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "h": pa.array(v.view(np.int64), pa.int64())})

    sh = docs.map_batches(shingle_rows, batch_format="pyarrow").materialize()

    # document frequency per shingle -> rare shingles only
    rare = grouped_agg(sh, keys=["h"], aggs={"df": (None, "count")}) \
        .filter(expr=f"df <= {df_cap}")
    rare_sh = attach(sh, rare, "h", how="semi")

    # candidate pairs: all-pairs within each rare shingle's doc list
    cand = block_pairs(rare_sh, "doc_id", "h", window=0, max_block=df_cap + 1)
    return exact_jaccard_filter(_id_pairs(cand, "doc"), docs, k, threshold)


# ---------------------------------------------------------------- similarity search

def ann_topk(sf_dir: str, n_queries: int = 10, k: int = 5) -> Dataset:
    """Brute-force cosine top-k: the query matrix (small) is broadcast via
    ``ray.put`` once and read in every task; each batch does one float64
    matmul against it; per-query top-k is a bucketed grouped_top_k.

    The scale path swaps the batch matmul for an IVF/LSH-bucketed variant
    (see ann_lsh_topk) — the surrounding dataflow is identical.
    """
    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = pa.concat_tables(
        [b for b in emb.filter(expr=f"vec_id < {n_queries}")
         .iter_batches(batch_format="pyarrow")]).to_pandas()
    qids = qdf["vec_id"].to_numpy()
    qmat = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    qmat /= np.maximum(np.linalg.norm(qmat, axis=1, keepdims=True), 1e-12)
    ref = ray.put((qids, qmat))

    def score(batch: pa.Table) -> pa.Table:
        qids, qmat = ray.get(ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        mat = embedding_matrix(batch.column("embedding"))
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        scores = qmat @ mat.T  # [q, n]
        nq, n = scores.shape
        # raw float64 scores: ordering is compared cross-engine, values
        # are not — rounding would CREATE ties the oracle doesn't see
        return pa.table({
            "query_id": pa.array(np.repeat(qids, n), pa.int64()),
            "vec_id": pa.array(np.tile(ids, nq), pa.int64()),
            "score": pa.array(scores.reshape(-1), pa.float64()),
        })

    scored = emb.map_batches(score, batch_format="pyarrow", batch_size=4096)
    scored = scored.filter(expr="query_id != vec_id")
    out = grouped_top_k(scored, group_keys=["query_id"],
                        by=["score", "vec_id"], ascending=[False, True],
                        k=k, rank_col="rnk")

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rnk"] = df["rnk"].astype(np.int64)
        return df[["query_id", "vec_id", "rnk"]]

    return out.map_batches(shape, batch_format="pandas")


def ann_lsh_topk(sf_dir: str, n_queries: int = 10, k: int = 5,
                 n_planes: int = 8, seed: int = 7,
                 planes: str = "axis") -> Dataset:
    """LSH-bucketed ANN (the 100 TB path): hyperplane-sign signatures
    partition vectors; each query only scans its own bucket, turning a
    full scan into a ~1/2^planes scan. Output contract is "exact cosine
    top-k WITHIN the query's bucket" (query_id, vec_id, rnk).

    Two plane modes:
    - ``"axis"`` (default): plane i is the i-th standard basis vector, so
      bit i = (embedding[i] > 0). Deterministic and SQL-derivable — the
      DuckDB oracle reproduces the buckets exactly, making this the
      value-verified variant (signs are invariant under L2 normalization,
      so raw coordinates give the same bits as normalized ones).
    - ``"random"``: seeded Gaussian hyperplanes — the statistically
      data-independent choice for adversarial/axis-correlated embeddings;
      same dataflow, rows-only checkable.

    Like ``ann_topk``, ranking is by RAW float64 cosine (rounding would
    create ties the oracle doesn't see) and the score column is dropped
    from the output because raw floats don't hash-match cross-engine."""
    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    first = pa.concat_tables(
        [b for b in emb.filter(expr=f"vec_id < {n_queries}")
         .iter_batches(batch_format="pyarrow")]).to_pandas()
    dim = len(first["embedding"].iloc[0])
    if planes == "axis":
        plane_mat = np.eye(n_planes, dim)
    else:
        plane_mat = np.random.RandomState(seed).randn(n_planes, dim)
    qids = first["vec_id"].to_numpy()
    qmat = np.stack(first["embedding"].to_numpy()).astype(np.float64)
    qmat /= np.maximum(np.linalg.norm(qmat, axis=1, keepdims=True), 1e-12)
    qsig = (qmat @ plane_mat.T > 0).astype(np.uint64)
    qbucket = (qsig << np.arange(n_planes, dtype=np.uint64)).sum(axis=1)
    ref = ray.put((qids, qmat, qbucket, plane_mat))

    def bucket_score(batch: pa.Table) -> pa.Table:
        qids, qmat, qbucket, planes = ray.get(ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        mat = embedding_matrix(batch.column("embedding"))
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        sig = (mat @ planes.T > 0).astype(np.uint64)
        bucket = (sig << np.arange(sig.shape[1], dtype=np.uint64)).sum(axis=1)
        outs = []
        for qi in range(len(qids)):
            mask = bucket == qbucket[qi]
            if not mask.any():
                continue
            scores = mat[mask] @ qmat[qi]
            outs.append(pa.table({
                "query_id": pa.array(np.full(mask.sum(), qids[qi]),
                                     pa.int64()),
                "vec_id": pa.array(ids[mask], pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }))
        if not outs:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.concat_tables(outs)

    scored = emb.map_batches(bucket_score, batch_format="pyarrow",
                             batch_size=4096)
    scored = scored.filter(expr="query_id != vec_id")
    out = grouped_top_k(scored, group_keys=["query_id"],
                        by=["score", "vec_id"], ascending=[False, True],
                        k=k, rank_col="rnk")

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rnk"] = df["rnk"].astype(np.int64)
        return df[["query_id", "vec_id", "rnk"]]

    return out.map_batches(shape, batch_format="pandas")


def embedding_near_dups(sf_dir: str, threshold: float = 0.35) -> Dataset:
    """Embedding-cosine near-dup pairs, EXACT: every block computes one
    matmul against the broadcast normalized matrix (one ``fold``) and
    emits its (i < j) pairs above threshold — the brute-force baseline the
    DuckDB oracle verifies value-for-value. O(n^2/B) per block: right for
    corpora whose embedding table fits the object store; the 100 TB path
    is ``embedding_near_dups_lsh`` (hyperplane-bucketed, same output
    contract)."""
    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    ref = fold(emb, _assemble_matrix)

    def block_pairs(batch: pa.Table) -> pa.Table:
        aids, amat = ray.get(ref)  # zero-copy shared-memory read per task
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        mat = embedding_matrix(batch.column("embedding"))
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        sims = np.round(mat @ amat.T, 6)  # [block, all]; threshold on the
        # ROUNDED value so the oracle's ROUND(...) >= t agrees exactly
        keep = (ids[:, None] < aids[None, :]) & (sims >= threshold)
        bi, ai = np.nonzero(keep)
        return pa.table({
            "left_vec": pa.array(ids[bi], pa.int64()),
            "right_vec": pa.array(aids[ai], pa.int64()),
            "cosine": pa.array(sims[bi, ai], pa.float64()),
        })

    return emb.map_batches(block_pairs, batch_format="pyarrow",
                           batch_size=2048)


def embedding_near_dups_lsh(sf_dir: str, threshold: float = 0.35,
                            n_tables: int = 128, n_planes: int = 4,
                            seed: int = 11, max_bucket: int = 4096) -> Dataset:
    """Embedding-cosine near-dup pairs via MULTI-TABLE random-hyperplane
    LSH: ``n_tables`` independent tables of ``n_planes`` hyperplanes each;
    a pair becomes a candidate if it collides in ANY table; candidates are
    deduped and disposed by exact cosine against the broadcast matrix
    (same output contract and threshold as ``embedding_near_dups``, so the
    brute-force DuckDB oracle hash-matches values MODULO recall).

    Recall math (checked empirically in tests): at the worst-case cosine
    0.35, per-plane collision p = 1 - acos(0.35)/pi = 0.614, per-table
    p^4 = 0.142, so P[miss] = (1-0.142)^128 ~ 3e-9. At 100 TB raise
    ``n_planes`` (smaller buckets) and accept recall < 1, or keep the
    table count and pay more candidate volume — the dataflow is unchanged.

    A HOT bucket above ``max_bucket`` members falls back to windowed
    pairing over id-sorted members (cap n*W instead of n^2/2 — the
    blocking stage's skew policy)."""
    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    mat_ref = fold(emb, _assemble_matrix)

    # LSH buckets ride as (vec_id, table*2^planes + bits) — embeddings do
    # NOT ride the n_tables-x shuffle; the exact-cosine stage reads the
    # broadcast matrix instead
    def lsh_keys(batch: pa.Table) -> pa.Table:
        mat = embedding_matrix(batch.column("embedding"))
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        planes = np.random.RandomState(seed).randn(n_tables * n_planes,
                                                   mat.shape[1])
        bits = (mat @ planes.T > 0).reshape(len(mat), n_tables, n_planes)
        weights = (1 << np.arange(n_planes, dtype=np.int64))
        bucket = (bits * weights).sum(axis=2) + \
            (np.arange(n_tables, dtype=np.int64) << n_planes)  # [n, T]
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        rep = np.repeat(ids, n_tables)
        return pa.table({
            "vec_id": pa.array(rep, pa.int64()),
            "lsh_key": pa.array(bucket.reshape(-1), pa.int64()),
        })

    cand = _id_pairs(block_pairs(
        emb.map_batches(lsh_keys, batch_format="pyarrow"), "vec_id",
        "lsh_key", window=64, max_block=max_bucket), "vec")

    def exact_cosine(batch: pa.Table) -> pa.Table:
        ids, mat = ray.get(mat_ref)  # ids sorted by _assemble_matrix
        li = np.searchsorted(ids, batch.column("left_vec")
                             .to_numpy(zero_copy_only=False))
        ri = np.searchsorted(ids, batch.column("right_vec")
                             .to_numpy(zero_copy_only=False))
        sims = np.round(np.einsum("ij,ij->i", mat[li], mat[ri]), 6)
        t = batch.append_column("cosine", pa.array(sims, pa.float64()))
        return t.filter(pc.greater_equal(t.column("cosine"), threshold))

    return cand.map_batches(exact_cosine, batch_format="pyarrow")


def group_mean_vectors(sf_dir: str, n_groups: int = 10) -> Dataset:
    """A2 mean-pool parity query: element-wise mean embedding per
    ``vec_id %% n_groups`` group, LONG format (grp, pos, mean_v) — oracle
    verifies per-position means against DuckDB list indexing."""
    from chameleon_entity_linking_ray.stages.agg import mean_pool_vectors
    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def with_grp(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "grp": pa.array(vid % n_groups, pa.int64()),
            "embedding": batch.column("embedding"),
        })

    return mean_pool_vectors(emb.map_batches(with_grp, batch_format="pyarrow"),
                             "grp", "embedding")


# ------------------------------------------------------- extraction parity ops

def _title_sentence(batch: pa.Table) -> pa.Table:
    """Deterministic capitalized corpus derived from part names:
    'Order for <Title Cased Name> placed by <Brand>'. Gives the mention
    extractor real multi-token capitalized surfaces (documents.text is
    all-lowercase word salad)."""
    names = batch.column("p_name").to_pylist()
    brands = batch.column("p_brand").to_pylist()
    titled = [" ".join(w[:1].upper() + w[1:] for w in n.split(" "))
              for n in names]
    text = [f"Order for {t} placed by {b}" for t, b in zip(titled, brands)]
    return pa.table({"p_partkey": batch.column("p_partkey"),
                     "text": pa.array(text, pa.string())})


def part_mentions(sf_dir: str, config: LinkageConfig | None = None) -> Dataset:
    """Mention extraction (M1/M2 with the rho>0.26 filter) over the derived
    capitalized corpus; per-doc mention count. Oracle: DuckDB regexp over
    the same derivation — pins the extraction regex + rho semantics."""
    from chameleon_entity_linking_ray.stages.extract import find_mentions_batch
    c = config or LinkageConfig()
    parts = read_table(sf_dir, "part", ["p_partkey", "p_name", "p_brand"])

    def fn(batch: pa.Table) -> pa.Table:
        t = _title_sentence(batch)
        texts = t.column("text").to_pylist()
        row, *_ = find_mentions_batch(texts, c.rho_threshold)
        counts = np.bincount(row, minlength=len(texts)).astype(np.int64)
        return pa.table({"p_partkey": t.column("p_partkey"),
                         "n_mentions": pa.array(counts, pa.int64())})

    return parts.map_batches(fn, batch_format="pyarrow")


def mention_vocab(sf_dir: str, config: LinkageConfig | None = None) -> Dataset:
    """Normalized surface vocabulary (the linkage pipeline's SHUFFLE 1,
    pipelines/linkage.py) over the derived corpus: norm -> n_mentions.
    Oracle: DuckDB unnest + the same normalize chain."""
    from chameleon_entity_linking_ray.functions.text import normalize_list
    from chameleon_entity_linking_ray.stages.extract import find_mentions_batch
    from chameleon_entity_linking_ray.stages.agg import grouped_agg
    c = config or LinkageConfig()
    parts = read_table(sf_dir, "part", ["p_partkey", "p_name", "p_brand"])

    def fn(batch: pa.Table) -> pa.Table:
        t = _title_sentence(batch)
        *_, surfaces, _rho = find_mentions_batch(t.column("text").to_pylist(),
                                                 c.rho_threshold)
        return pa.table({"norm": pa.array(normalize_list(surfaces), pa.string())})

    ments = parts.map_batches(fn, batch_format="pyarrow")
    return grouped_agg(ments, keys=["norm"], aggs={"n_mentions": (None, "count")})


def parts_transcripts(sf_dir: str) -> Dataset:
    """Transcript-shaped table (conv_id, turn_idx, text) derived
    deterministically from the part table — the flagship linkage input when
    running over the star-schema testdata (documents.text has no
    capitalized mentions)."""
    parts = read_table(sf_dir, "part", ["p_partkey", "p_name", "p_brand"])

    def fn(batch: pa.Table) -> pa.Table:
        t = _title_sentence(batch)
        return pa.table({
            "conv_id": batch.column("p_brand").cast(pa.string()),
            "turn_idx": batch.column("p_partkey").cast(pa.int32()),
            "text": t.column("text"),
        })

    return parts.map_batches(fn, batch_format="pyarrow")


def linkage_parts(sf_dir: str, config: LinkageConfig | None = None) -> Dataset:
    """Flagship pipeline over the derived transcript table: extraction ->
    LSH+token blocking -> pair scoring -> connected components -> clustered
    mention table sorted by (conv_id, turn_idx, span_start)."""
    from chameleon_entity_linking_ray.pipelines.linkage import run_linkage
    clustered, _ = run_linkage(parts_transcripts(sf_dir),
                               config or LinkageConfig())
    return clustered


def simhash_pairs_ds(docs: Dataset, max_hamming: int = 3,
                     n_bands: int = 4) -> Dataset:
    """SimHash near-duplicate PAIRS: all doc pairs whose 64-bit SimHash
    signatures differ in at most ``max_hamming`` bits among candidates
    sharing at least one 16-bit signature band — the classic
    Charikar-style near-dup detector as a banded shuffle.

    Shape: one map_batches computes signatures and fans each doc out to
    its ``n_bands`` (band, band_value) keys; one ``bucketed`` shuffle
    co-locates each band key's docs; the per-key kernel is a vectorized
    XOR + SWAR-popcount matrix over the key's docs (16-bit-key-bounded).
    Pairs are emitted EXACTLY ONCE with no dedup shuffle: a pair found in
    band j is emitted only if no band j' < j also matches (the
    first-matching-band rule — each side of the pair can check it
    locally from the two signatures). By the pigeonhole principle 4 bands
    catch every pair with Hamming <= 3, so the candidate set is exact,
    not approximate.

    Scale: bucket width is data-dependent (near-identical corpora
    concentrate); the kernel is O(bucket^2) XORs — cheap vector ops — and
    at web scale real 64-bit signatures keep 16-bit buckets small. For
    adversarially hot buckets, raise n_bands' band width or apply the
    windowed-pairing cap used by minhash_dup_pairs (documented
    divergence: capping breaks the exactness contract the oracle checks).
    """
    assert 64 % n_bands == 0
    width = 64 // n_bands
    mask = np.uint64((1 << width) - 1)

    def to_bands(batch: pa.Table) -> pa.Table:
        sims = _simhash_u64(batch.column("text").to_pylist())
        n = len(sims)
        doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
        bands = np.arange(n_bands, dtype=np.uint64)
        bv = (sims[:, None] >> (bands * np.uint64(width))) & mask
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_id, n_bands), pa.int64()),
            "sig": pa.array(np.repeat(sims, n_bands).view(np.int64)),
            "band": pa.array(np.tile(bands.astype(np.int64), n),
                             pa.int64()),
            "bv": pa.array(bv.reshape(-1).view(np.int64)),
        })

    def key_pairs(sig: np.ndarray, doc: np.ndarray, band: int) -> np.ndarray:
        """(doc_a, doc_b, hamming) rows of one (band, bv) key's docs."""
        n = len(sig)
        x = sig[:, None] ^ sig[None, :]
        hd = _popcount64(x.reshape(-1)).reshape(n, n)
        cand = np.triu(hd <= max_hamming, k=1)
        # first-matching-band rule: skip pairs an earlier band also holds
        for j in range(band):
            bj = (sig >> np.uint64(j * width)) & mask
            cand &= bj[:, None] != bj[None, :]
        ia, ib = np.nonzero(cand)
        return np.c_[doc[ia], doc[ib], hd[ia, ib]]

    def bucket_pairs(g: pa.Table) -> pa.Table:
        g = g.sort_by([("band", "ascending"), ("bv", "ascending"),
                       ("doc_id", "ascending")])
        band, bv = g["band"].to_numpy(), g["bv"].to_numpy()
        sig = g["sig"].to_numpy().view(np.uint64)
        doc = g["doc_id"].to_numpy()
        cuts = np.r_[0, np.flatnonzero((band[1:] != band[:-1])
                                       | (bv[1:] != bv[:-1])) + 1, len(g)]
        out = np.concatenate([np.empty((0, 3), np.int64)] + [
            key_pairs(sig[lo:hi], doc[lo:hi], int(band[lo]))
            for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo > 1]) \
            .astype(np.int64)
        return pa.table({"doc_a": out[:, 0], "doc_b": out[:, 1],
                         "hamming": out[:, 2]})

    return bucketed(docs.map_batches(to_bands, batch_format="pyarrow"),
                    ["band", "bv"], bucket_pairs, 32)


def simhash_dup_pairs(sf_dir: str, max_hamming: int = 3,
                      n_bands: int = 4) -> Dataset:
    """``simhash_pairs_ds`` over the ``documents`` table (driver-contract
    wrapper)."""
    return simhash_pairs_ds(read_table(sf_dir, "documents",
                                       ["doc_id", "text"]),
                            max_hamming=max_hamming, n_bands=n_bands)


def doc_repetition(sf_dir: str) -> Dataset:
    """Gopher-style within-document repetition statistics over whitespace
    tokens — the quality signals used to filter repetitive machine text
    from LLM training corpora: total/distinct word counts, the most
    frequent word's multiplicity, and the number of tokens belonging to
    words that repeat (count >= 2).

    Map-only and embarrassingly parallel: per batch, one pandas
    two-level groupby over the flattened (doc, token) table — no
    shuffles, no driver work, integer outputs so hashes never wobble.
    Docs with no tokens emit an all-zero row (every input doc appears
    exactly once).
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        toks = [t.split() for t in texts]
        counts = np.fromiter((len(t) for t in toks), np.int64, len(toks))
        flat = pd.DataFrame({
            "d": np.repeat(np.arange(len(toks)), counts),
            "t": np.concatenate([np.asarray(t, dtype=object)
                                 for t in toks]) if counts.sum()
            else np.array([], dtype=object),
        })
        n = len(toks)
        n_words = np.zeros(n, np.int64)
        n_distinct = np.zeros(n, np.int64)
        top_word_n = np.zeros(n, np.int64)
        dup_word_n = np.zeros(n, np.int64)
        if len(flat):
            wc = flat.groupby(["d", "t"], sort=False).size()
            per_doc = wc.groupby(level="d")
            agg = pd.DataFrame({
                "n_words": per_doc.sum(),
                "n_distinct": per_doc.size(),
                "top_word_n": per_doc.max(),
                "dup_word_n": wc.where(wc >= 2, 0).groupby(level="d").sum(),
            })
            idx = agg.index.to_numpy()
            n_words[idx] = agg["n_words"]
            n_distinct[idx] = agg["n_distinct"]
            top_word_n[idx] = agg["top_word_n"]
            dup_word_n[idx] = agg["dup_word_n"]
        return pa.table({
            "doc_id": pa.array(doc_id, pa.int64()),
            "n_words": pa.array(n_words),
            "n_distinct": pa.array(n_distinct),
            "top_word_n": pa.array(top_word_n),
            "dup_word_n": pa.array(dup_word_n),
        })

    return docs.map_batches(fn, batch_format="pyarrow")


def fuzzy_dedup_assign(docs: Dataset, max_hamming: int = 3) -> Dataset:
    """END-TO-END fuzzy deduplication: SimHash near-dup pairs ->
    distributed connected components -> canonical-document election —
    the full transitive-clustering dedup a training corpus actually
    ships through, not just the candidate pairs.

    One row per input document: its dedup ``cluster_id`` (min doc_id of
    its near-dup component, via ``stages/cluster.py`` CC — union-find
    fast path under the documented threshold, alternating-star shuffle
    loop above it) and ``keep`` = is this the component's canonical doc.
    Singletons keep themselves. Assignment attach is
    ``stages/cluster.attach_assignments``, shared with
    ``pipelines/linkage.assign_clusters``: a ``left`` ``attach``, so a
    broadcast up to ``joins.BROADCAST_ROWS`` rows and a bucketed shuffle
    above (on a 100 TB corpus with a high dup rate the assignment table
    is proportional to the duplicated-doc count — it must never be
    forced whole onto the driver).

    Oracle: recursive-CTE transitive closure + MIN reachable node — the
    SQL fixpoint the distributed CC must agree with exactly.
    """
    from chameleon_entity_linking_ray.stages.cluster import (
        attach_assignments,
        connected_components,
    )

    docs = docs.materialize()  # consumed twice: pair gen + assignment
    pairs = simhash_pairs_ds(docs, max_hamming=max_hamming)

    def as_edges(batch: pa.Table) -> pa.Table:
        return pa.table({"u": batch.column("doc_a").cast(pa.int64()),
                         "v": batch.column("doc_b").cast(pa.int64())})

    assignments, _stats = connected_components(
        pairs.map_batches(as_edges, batch_format="pyarrow"))
    return attach_assignments(docs, assignments, id_col="doc_id")


def dedup_fuzzy_docs(sf_dir: str, max_hamming: int = 3) -> Dataset:
    """``fuzzy_dedup_assign`` over the ``documents`` table (driver-contract
    wrapper; oracle: recursive-CTE transitive closure)."""
    assigned = fuzzy_dedup_assign(
        read_table(sf_dir, "documents", ["doc_id", "text"]),
        max_hamming=max_hamming)
    return assigned.select_columns(["doc_id", "cluster_id", "keep"])


def ann_ivf_topk(sf_dir: str, n_queries: int = 10, k: int = 5,
                 n_centroids: int = 16, n_probe: int = 4,
                 iters: int = 5) -> Dataset:
    """IVF (inverted-file) ANN top-k — the second 100 TB scale path next
    to ``ann_lsh_topk``: a deterministic distributed k-means coarse
    quantizer partitions the vectors; each query scans only its
    ``n_probe`` nearest cells (n_probe/n_centroids of the corpus)
    instead of everything.

    k-means is Lloyd with FIXED seed-free init (the n_centroids lowest
    vec_ids) and a FIXED iteration count, in combiner form: per-batch
    partial (sum, count) per cell -> tiny per-block partial table ->
    centroid update on that bounded table — the corpus is never
    collected. With n_probe = n_centroids the output is bit-equal to
    the brute-force ``ann_topk`` (pytest-pinned); partial probing trades
    recall for scan fraction exactly like a FAISS IVF index. Iterative
    model fitting is not SQL-expressible, so this entry is rows-only in
    the driver gate (same class as ``ppr_copurchase``'s power method),
    pinned instead by exactness-at-full-probe + recall tests.
    """
    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _norm(m: np.ndarray) -> np.ndarray:
        return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                              1e-12)

    # deterministic init: the n_centroids smallest vec_ids
    seed_tbl = pa.concat_tables(
        [b for b in emb.filter(expr=f"vec_id < {n_centroids}")
         .iter_batches(batch_format="pyarrow")]).to_pandas() \
        .sort_values("vec_id")
    centroids = _norm(np.stack(seed_tbl["embedding"].to_numpy())
                      .astype(np.float64))

    for _ in range(iters):
        cref = ray.put(centroids)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            mat = _norm(embedding_matrix(batch.column("embedding")))
            cell = (mat @ c.T).argmax(axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, cell, mat)
            cnt = np.bincount(cell, minlength=len(c)).astype(np.int64)
            nz = np.flatnonzero(cnt)
            return pa.table({
                "cell": pa.array(nz.astype(np.int64)),
                "vsum": pa.array(list(sums[nz]),
                                 pa.list_(pa.float64())),
                "n": pa.array(cnt[nz]),
            })

        # bounded: n_centroids rows per block, never the corpus
        parts = emb.map_batches(partial, batch_format="pyarrow").to_pandas()
        new = centroids.copy()
        for cell, sub in parts.groupby("cell"):
            tot = np.sum(np.stack(sub["vsum"].to_numpy()), axis=0)
            n = sub["n"].sum()
            if n > 0:
                new[int(cell)] = tot / n
        centroids = _norm(new)

    cref = ray.put(centroids)

    # query probe sets: n_probe nearest cells per query vector
    qdf = pa.concat_tables(
        [b for b in emb.filter(expr=f"vec_id < {n_queries}")
         .iter_batches(batch_format="pyarrow")]).to_pandas() \
        .sort_values("vec_id")
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat = _norm(np.stack(qdf["embedding"].to_numpy()).astype(np.float64))
    probe = np.argsort(-(qmat @ centroids.T), axis=1,
                       kind="stable")[:, :n_probe]
    qref = ray.put((qids, qmat, probe))

    def probe_score(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        qids, qmat, probe = ray.get(qref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        mat = _norm(embedding_matrix(batch.column("embedding")))
        cell = (mat @ c.T).argmax(axis=1)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qids)):
            hit = np.isin(cell, probe[qi])
            hit &= ids != qids[qi]
            if not hit.any():
                continue
            s = mat[hit] @ qmat[qi]
            out_q.append(np.full(int(hit.sum()), qids[qi], np.int64))
            out_v.append(ids[hit].astype(np.int64))
            out_s.append(s)
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_v)),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        })

    scored = emb.map_batches(probe_score, batch_format="pyarrow",
                             batch_size=4096)
    out = grouped_top_k(scored, group_keys=["query_id"],
                        by=["score", "vec_id"], ascending=[False, True],
                        k=k, rank_col="rnk")

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rnk"] = df["rnk"].astype(np.int64)
        return df[["query_id", "vec_id", "rnk"]]

    return out.map_batches(shape, batch_format="pandas")


def edit_distance_pairs(sf_dir: str, cap: int = 10,
                        num_buckets: int = 32) -> Dataset:
    """Edit-distance similarity join over part names: all pairs of parts
    sharing their FIRST name token with Levenshtein distance <= ``cap``
    — a value-level SQL oracle (DuckDB ``levenshtein()``) for the same
    batched DP kernel the flagship scorer uses
    (stages/scoring.py:levenshtein_batch), pinning the string-similarity
    core of T2 (/root/reference/CrossEncoder/model.py:36-62's pairwise
    scoring role) beyond the rows-only linkage check.

    Shape: ONE ``bucketed`` shuffle on the blocking token; per bucket a
    vectorized segment all-pairs emission (ragged arange, no Python
    loops over pairs), a |len(a)-len(b)| <= cap prefilter, then the
    batched DP whose cost is O(maxlen^2) numpy steps per bucket — never
    per pair. Blocking assumption: first-token groups are bounded (the
    colors/adjectives vocabulary); for open-vocabulary corpora reuse the
    rare-shingle df-cap blocking of ngram_jaccard_pairs instead.
    """
    from chameleon_entity_linking_ray.stages.blocking import _run_pairs
    from chameleon_entity_linking_ray.stages.scoring import levenshtein_batch

    part = read_table(sf_dir, "part", ["p_partkey", "p_name"])

    def prep(batch: pa.Table) -> pa.Table:
        names = batch.column("p_name").cast(pa.string())
        tok = pc.list_element(pc.split_pattern(names, " "), 0)
        return pa.table({
            "p_partkey": batch.column("p_partkey"),
            "p_name": names,
            "tok": tok,
        })

    def pairs(g: pa.Table) -> pa.Table:
        g = g.sort_by([("tok", "ascending"), ("p_partkey", "ascending")])
        n = len(g)
        tok = g["tok"].to_numpy()
        keys = g["p_partkey"].to_numpy()
        names = g["p_name"].to_numpy()
        # all pairs within each run of equal first tokens
        seg_starts = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
        idx_a, idx_b = _run_pairs(np.diff(np.r_[seg_starts, n]), window=0,
                                  max_block=n + 1)
        # length prefilter bounds the DP width and kills most pairs
        ln = np.fromiter(map(len, names), np.int64, n)
        keep = np.abs(ln[idx_a] - ln[idx_b]) <= cap
        idx_a, idx_b = idx_a[keep], idx_b[keep]
        lev = levenshtein_batch(list(names[idx_a]), list(names[idx_b])) \
            if idx_a.size else np.empty(0, np.int64)
        hit = lev <= cap
        return pa.table({"part_a": keys[idx_a[hit]],
                         "part_b": keys[idx_b[hit]],
                         "lev": lev[hit].astype(np.int64)})

    return bucketed(part.map_batches(prep, batch_format="pyarrow"),
                    ["tok"], pairs, num_buckets)


# fixed benchmark queries over the synthetic document vocabulary — the
# engine analog of the reference's fixed dev-query set
# (/root/reference/BiEncoder/test.py:37-43)
BM25_QUERIES: dict[str, str] = {
    "q1": "hash join table",
    "q2": "window agg stream",
    "q3": "fast scan filter",
}


def _bm25_stats(blocks: list[pa.Table],
                m: int) -> tuple[int, float, np.ndarray]:
    """(N docs, avgdl, df per term) from the per-doc tf table's blocks."""
    n_docs = 0
    sum_dl = 0
    df = np.zeros(m, np.int64)
    for t in blocks:
        n_docs += t.num_rows
        sum_dl += int(pc.sum(t.column("dl")).as_py())
        for i in range(m):
            df[i] += int(pc.sum(pc.cast(pc.greater(
                t.column(f"tf{i}"), 0), pa.int64())).as_py())
    return n_docs, sum_dl / max(n_docs, 1), df


def bm25_topk(sf_dir: str, k: int = 10, k1: float = 1.2,
              b: float = 0.75) -> Dataset:
    """Distributed BM25 retrieval: top-k documents per benchmark query —
    the scoring the reference DELEGATES to a pre-built Anserini BM25 run
    file (/root/reference/CrossEncoder/test.py:61-75 reads
    ``runbm25anserini``; this computes the same ranking in-engine).

    Shape: ONE tokenize pass emits a narrow per-doc table (doc_id, dl,
    tf per query term — a handful of int columns); one ``fold`` reduces
    its blocks to (N, avgdl, df) — O(#terms) broadcast state; the
    scoring pass is map-only vectorized float math; the only shuffle is
    the per-query top-k over docs that matched at least one term.
    Scores are rounded to 6 dp on both engines and tie-broken by doc_id,
    so ranking is deterministic cross-engine.
    """
    terms = sorted({t for q in BM25_QUERIES.values() for t in q.split()})
    m = len(terms)
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def tf_table(batch: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(batch.column("text"))
        toks = pc.split_pattern_regex(text, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(toks.flatten().to_pylist(), dtype=object)
        off = np.asarray(toks.offsets)
        nonempty = pc.greater(pc.utf8_length(text), 0).to_numpy(
            zero_copy_only=False)
        dl = np.where(nonempty, np.diff(off), 0).astype(np.int64)
        cols = {"doc_id": batch.column("doc_id").cast(pa.int64()),
                "dl": pa.array(dl, pa.int64())}
        for i, t in enumerate(terms):
            eq = (flat == t).astype(np.int64)
            tf = np.add.reduceat(eq, off[:-1]) if len(flat) else \
                np.zeros(len(dl), np.int64)
            tf = np.where(np.diff(off) > 0, tf, 0)
            cols[f"tf{i}"] = pa.array(tf.astype(np.int64), pa.int64())
        return pa.table(cols)

    tfs = docs.map_batches(tf_table, batch_format="pyarrow").materialize()
    ref = fold(tfs, _bm25_stats, m)

    def score(batch: pa.Table) -> pa.Table:
        n_docs, avgdl, df = ray.get(ref)
        idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        dl = batch.column("dl").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        tf = {t: batch.column(f"tf{i}").to_numpy(zero_copy_only=False)
              .astype(np.float64) for i, t in enumerate(terms)}
        ti = {t: i for i, t in enumerate(terms)}
        out_q, out_d, out_s = [], [], []
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        for qid in sorted(BM25_QUERIES):
            s = np.zeros(len(ids), np.float64)
            # fixed term order (the query's token order) so the IEEE sum
            # is reproducible; SQL sums the same rounded-at-the-end way
            for t in BM25_QUERIES[qid].split():
                f = tf[t]
                s += idf[ti[t]] * (f * (k1 + 1.0)) / (f + norm)
            hit = s > 0
            out_q.append(np.full(int(hit.sum()), qid, dtype=object))
            out_d.append(ids[hit].astype(np.int64))
            out_s.append(np.round(s[hit], 6))
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.string()),
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.float64()),
        })

    scored = tfs.map_batches(score, batch_format="pyarrow")
    out = grouped_top_k(scored, group_keys=["query_id"],
                        by=["score", "doc_id"], ascending=[False, True],
                        k=k, rank_col="rnk")

    def shape(df_: pd.DataFrame) -> pd.DataFrame:
        df_ = df_.copy()
        df_["rnk"] = df_["rnk"].astype(np.int64)
        return df_[["query_id", "doc_id", "score", "rnk"]]

    return out.map_batches(shape, batch_format="pandas")


def doc_token_rows(sf_dir: str, max_doc: int = 50) -> Dataset:
    """EXPLODE / UNNEST surface: one output row per (doc, position,
    token) — the flat_map shape every tokenize-and-shuffle pipeline
    starts from, with an explicit 1-based position column so order is
    part of the contract. Pure Arrow offset arithmetic (the flattened
    token array + repeat/arange over list offsets), zero Python per
    row."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"]) \
        .filter(expr=f"doc_id < {max_doc}")

    def explode(batch: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(batch.column("text"))
        keep = pc.greater(pc.utf8_length(text), 0)
        sub = batch.filter(keep)
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(sub.column("text")), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        off = np.asarray(toks.offsets)
        lens = np.diff(off)
        ids = sub.column("doc_id").to_numpy(zero_copy_only=False)
        total = int(lens.sum())
        starts = np.cumsum(lens) - lens
        pos = (np.arange(total, dtype=np.int64)
               - np.repeat(starts, lens) + 1) if total else \
            np.empty(0, np.int64)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, lens).astype(np.int64),
                               pa.int64()),
            "pos": pa.array(pos.astype(np.int64), pa.int64()),
            "token": toks.flatten(),
        })

    return docs.map_batches(explode, batch_format="pyarrow")


# ------------------------------------------------- sorted-neighborhood blocking

def snm_pairs(sf_dir: str, window: int = 6) -> Dataset:
    """Sorted-Neighborhood blocking over part names: candidate pairs of
    parts within a ``window``-row sliding window of the (p_name,
    p_partkey) sort order — the classic record-linkage blocker
    (Hernandez & Stolfo, SIGMOD'95) the reference approximates with its
    pre-built BM25 candidate lists
    (/root/reference/CrossEncoder/test.py:61-75: only the run file's
    (q, p) pairs are ever scored; SNM is the sort-based equivalent for
    name-keyed records).

    One range-shuffle sort + a boundary-chained map over sorted blocks
    (stages/blocking.py:sorted_neighborhood_pairs) — pair count is
    exactly (n - w/2)*(w - 1), skew-proof by construction. Value oracle:
    ROW_NUMBER self-join in DuckDB.
    """
    from chameleon_entity_linking_ray.stages.blocking import (
        sorted_neighborhood_pairs,
    )

    part = read_table(sf_dir, "part", ["p_partkey", "p_name"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch.column("p_partkey").cast(pa.int64()),
                         "key": batch.column("p_name").cast(pa.string())})

    keyed = part.map_batches(prep, batch_format="pyarrow")
    return sorted_neighborhood_pairs(keyed, key_col="key", id_col="id",
                                     window=window)


# ------------------------------------------------------- retrieve-then-rerank

def rerank_bm25(sf_dir: str, k_retrieve: int = 50,
                k_final: int = 10) -> Dataset:
    """The reference's core retrieve-then-rerank flow as ONE composed,
    value-verified pipeline (/root/reference/CrossEncoder/test.py: read
    BM25 candidates :61-75 -> score each (q, p) pair :80-106 -> sort desc
    + rank :102-106): BM25 top-``k_retrieve`` retrieval in-engine, then a
    rerank score over the candidates, then per-query top-``k_final``.

    The rerank score mirrors the reference's 0.9/0.1 text/entity blend
    (/root/reference/BiEncoder/test.py:120): rerank = 0.9 * bm25 +
    0.1 * token-set Jaccard(query, doc) — both terms SQL-expressible, so
    the whole composition hash-matches DuckDB (unlike the model scorer,
    which is pinned by the linkage e2e instead).

    Shape: the candidate table (<= #queries * k_retrieve rows) is
    assembled in one ``fold`` and broadcast; the rerank
    pass is a map over the documents table (is_in prefilter, vectorized
    distinct-token counts + per-term presence), so no shuffle touches the
    corpus — the only shuffle is the final tiny per-query top-k.
    """
    terms_by_q = {q: BM25_QUERIES[q].split() for q in sorted(BM25_QUERIES)}
    qids = sorted(terms_by_q)
    cand = bm25_topk(sf_dir, k=k_retrieve)
    # one table of the candidates, None when there are none
    cand_ref = fold(cand, lambda blocks: pa.concat_tables(blocks)
                    if blocks else None)

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def rerank(batch: pa.Table) -> pa.Table:
        c = ray.get(cand_ref)
        empty = pa.table({
            "query_id": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "bm25": pa.array([], pa.float64()),
            "jac": pa.array([], pa.float64()),
            "rerank": pa.array([], pa.float64())})
        if c is None:
            return empty
        keep = pc.is_in(batch.column("doc_id").cast(pa.int64()),
                        value_set=c.column("doc_id").combine_chunks())
        sub = batch.filter(keep)
        if sub.num_rows == 0:
            return empty
        text = pc.utf8_trim_whitespace(sub.column("text"))
        toks = pc.split_pattern_regex(text, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(toks.flatten().to_pylist(), dtype=object)
        off = np.asarray(toks.offsets)
        lens = np.diff(off)
        n = sub.num_rows
        seg = np.repeat(np.arange(n, dtype=np.int64), lens)
        # distinct tokens per doc: sort within segment, count run heads
        order = np.lexsort((flat, seg))
        fs, ss = flat[order], seg[order]
        head = np.ones(len(fs), bool)
        if len(fs) > 1:
            head[1:] = (ss[1:] != ss[:-1]) | (fs[1:] != fs[:-1])
        distinct = np.bincount(ss[head], minlength=n).astype(np.int64)
        # per-query intersection size: presence of each query term
        inter = {}
        for q in qids:
            acc = np.zeros(n, np.int64)
            for t in terms_by_q[q]:
                eq = (flat == t).astype(np.int64)
                pres = (np.add.reduceat(eq, off[:-1]) > 0) if len(flat) \
                    else np.zeros(n, bool)
                pres = np.where(lens > 0, pres, False)
                acc += pres.astype(np.int64)
            inter[q] = acc
        stats = pd.DataFrame({
            "doc_id": sub.column("doc_id").cast(pa.int64())
            .to_numpy(zero_copy_only=False),
            "distinct": distinct,
            **{f"i_{q}": inter[q] for q in qids}})
        cdf = c.to_pandas()
        m = cdf.merge(stats, on="doc_id", how="inner")
        if len(m) == 0:
            return empty
        qn = m["query_id"].map({q: len(terms_by_q[q]) for q in qids}) \
            .to_numpy(np.int64)
        # column-stack + take_along_axis (np.choose hard-caps at 32
        # choice arrays — would break the day the query set grows)
        qidx = m["query_id"].map({q: i for i, q in enumerate(qids)}) \
            .to_numpy(np.int64)
        im = np.take_along_axis(
            np.stack([m[f"i_{q}"].to_numpy(np.int64) for q in qids],
                     axis=1),
            qidx[:, None], axis=1)[:, 0]
        union = m["distinct"].to_numpy(np.int64) + qn - im
        jac = im.astype(np.float64) / union.astype(np.float64)
        bm25 = m["score"].to_numpy(np.float64)
        # HALF-AWAY rounding (floor(x*1e6+0.5)): the blend of a 6dp-
        # rounded bm25 with an exact rational jac lands exactly on
        # .5e-6 boundaries (e.g. 0.9*1.233625 + 0.1*0.12), where
        # np.round's half-even diverges from SQL ROUND; all values >= 0
        rr = np.floor((0.9 * bm25 + 0.1 * jac) * 1e6 + 0.5) / 1e6
        return pa.table({
            "query_id": pa.array(m["query_id"].to_numpy(object),
                                 pa.string()),
            "doc_id": pa.array(m["doc_id"].to_numpy(np.int64), pa.int64()),
            "bm25": pa.array(bm25, pa.float64()),
            "jac": pa.array(np.floor(jac * 1e6 + 0.5) / 1e6, pa.float64()),
            "rerank": pa.array(rr, pa.float64())})

    reranked = docs.map_batches(rerank, batch_format="pyarrow")
    out = grouped_top_k(reranked, group_keys=["query_id"],
                        by=["rerank", "doc_id"], ascending=[False, True],
                        k=k_final, rank_col="rnk")

    def shape(df_: pd.DataFrame) -> pd.DataFrame:
        df_ = df_.copy()
        df_["rnk"] = df_["rnk"].astype(np.int64)
        return df_[["query_id", "doc_id", "bm25", "jac", "rerank", "rnk"]]

    return out.map_batches(shape, batch_format="pandas")


def damerau_pairs(sf_dir: str, cap: int = 10,
                  num_buckets: int = 32) -> Dataset:
    """UNRESTRICTED Damerau-Levenshtein similarity join over part names —
    value-pins the batched Lowrance-Wagner transposition DP
    (stages/scoring.py:damerau_levenshtein_batch) against DuckDB's
    ``damerau_levenshtein``. Transposition-tolerant edit distance is the
    classic typo model for record linkage (swapped letters in names),
    one notch stronger than the flagship scorer's plain Levenshtein.

    Blocking: the first two name tokens; scoring runs over the
    DISTINCT-NAME-PAIR surface, not id pairs — the flagship's
    distinct-surface-vocabulary trick (stages/vocab.py). Names repeat
    heavily in real entity tables (here 20k rows share 64 names), so the
    DP cost is O(distinct-pairs) while the id-pair output is a pure
    vectorized cross-product expansion. The naive per-id-pair version of
    this join measured 309 s at sf0.1; this one ~2 s for the same rows.
    Per-bucket distinct-name count is bounded by the surface vocabulary
    — the same assumption the flagship scorer documents.
    """
    from chameleon_entity_linking_ray.stages.scoring import (
        damerau_levenshtein_batch,
    )

    part = read_table(sf_dir, "part", ["p_partkey", "p_name"])

    def prep(batch: pa.Table) -> pa.Table:
        names = batch.column("p_name").cast(pa.string())
        words = pc.split_pattern(names, " ")
        tok = pc.binary_join(pc.list_slice(words, 0, 2), " ")
        return pa.table({
            "p_partkey": batch.column("p_partkey"),
            "p_name": names,
            "tok": tok,
        })

    def pairs(g: pa.Table) -> pa.Table:
        # sort by tok FIRST so tok runs are contiguous by construction
        # (not as an artifact of space sorting below alphanumerics in
        # the name sort), matching jw_name_pairs; name runs stay
        # contiguous because tok is a pure function of p_name
        g = g.sort_by([("tok", "ascending"), ("p_name", "ascending"),
                       ("p_partkey", "ascending")])
        names = g["p_name"].to_numpy()
        toks = g["tok"].to_numpy()
        ids = g["p_partkey"].to_numpy().astype(np.int64)
        # distinct-name surface: one row per (tok, name), id lists ride
        # along as offsets into the name-sorted id array
        uniq_mask = np.r_[True, names[1:] != names[:-1]]
        u_start = np.flatnonzero(uniq_mask)
        u_cnt = np.diff(np.r_[u_start, len(names)])
        u_name = names[u_start]
        u_tok = toks[u_start]
        nu = len(u_name)
        # candidate distinct pairs: all (i <= j) within the same tok
        # block (self-pair i == j covers exact-duplicate names, dl = 0)
        _, tcnt = np.unique(u_tok, return_counts=True)
        tstart = np.cumsum(tcnt) - tcnt
        within = np.arange(nu) - np.repeat(tstart, tcnt)
        c_of = np.repeat(tcnt, tcnt)
        rem = c_of - within  # pairs including self
        P = int(rem.sum())
        di = np.repeat(np.arange(nu), rem)
        seg = np.cumsum(rem) - rem
        dj = np.arange(P) - np.repeat(seg, rem) + di
        # length prefilter + ONE DP per distinct name pair
        lens = np.fromiter(map(len, u_name), np.int64, nu)
        ok = np.abs(lens[di] - lens[dj]) <= cap
        di, dj = di[ok], dj[ok]
        d = np.zeros(len(di), np.int64)
        diff = di != dj
        if diff.any():
            d[diff] = damerau_levenshtein_batch(
                list(u_name[di[diff]]), list(u_name[dj[diff]]))
        keep = d <= cap
        di, dj, d = di[keep], dj[keep], d[keep]
        # expand matched name pairs to id pairs (vectorized cross
        # products; same-name pairs keep the a < b triangle)
        sa, sb = u_cnt[di], u_cnt[dj]
        cnt = sa * sb
        tot = int(cnt.sum())
        pseg = np.cumsum(cnt) - cnt
        k = np.arange(tot) - np.repeat(pseg, cnt)
        ia = ids[np.repeat(u_start[di], cnt) + k // np.repeat(sb, cnt)]
        ib = ids[np.repeat(u_start[dj], cnt) + k % np.repeat(sb, cnt)]
        dd = np.repeat(d, cnt)
        # cross-name products emit each unordered pair once (id sets are
        # disjoint) -> canonicalize by min/max; same-name products emit
        # the full square -> keep the strict triangle
        same = np.repeat(di == dj, cnt)
        keep2 = ~same | (ia < ib)
        return pa.table({
            "part_a": np.minimum(ia, ib)[keep2],
            "part_b": np.maximum(ia, ib)[keep2],
            "dl": dd[keep2]})

    return bucketed(part.map_batches(prep, batch_format="pyarrow"),
                    ["tok"], pairs, num_buckets)


_SOUNDEX_MAP = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                             "01230120022455012623010202")


def _soundex(word: str) -> str:
    """Simplified American Soundex (no H/W-separator rule — the variant
    is pinned by an equivalent SQL formulation, so parity is exact):
    first letter + the first three non-zero digit codes after collapsing
    adjacent duplicates."""
    u = word.upper()
    d = u.translate(_SOUNDEX_MAP)
    coll, prev = [], None
    for ch in d:
        if ch != prev:
            coll.append(ch)
        prev = ch
    tail = "".join(c for c in coll[1:] if c != "0")
    return u[0] + (tail + "000")[:3]


def soundex_parts(sf_dir: str) -> Dataset:
    """Phonetic blocking keys: simplified Soundex of each part name's
    first token — the third classic record-linkage blocker alongside
    LSH/token blocks (stages/blocking.py) and sorted-neighborhood
    (``snm_pairs``); phonetic keys catch sound-alike misspellings
    ("smith" ~ "smyth") that neither char-Jaccard nor sort order pairs.

    Map-only, zero shuffle; per-batch memo over the distinct-token
    vocabulary (bounded — the same surface-vocab assumption the flagship
    scorer uses). The code column itself is value-verified against a
    LAG-window SQL reformulation (RE2 has no backreferences, so the SQL
    collapse step is a per-character window dedup).
    """
    part = read_table(sf_dir, "part", ["p_partkey", "p_name"])

    def fn(batch: pa.Table) -> pa.Table:
        names = batch.column("p_name").cast(pa.string())
        tok = pc.list_element(pc.split_pattern(names, " "), 0)
        words = tok.to_pylist()
        memo: dict[str, str] = {}
        sdx = [memo.get(w) or memo.setdefault(w, _soundex(w))
               for w in words]
        return pa.table({
            "p_partkey": batch.column("p_partkey"),
            "word": tok,
            "sdx": pa.array(sdx, pa.string())})

    return part.map_batches(fn, batch_format="pyarrow")


def dedup_parts_snm(sf_dir: str, window: int = 6, cap: int = 4) -> Dataset:
    """END-TO-END entity resolution over part names using this round's
    blockers: Sorted-Neighborhood candidate pairs (keys carried through,
    no join back) -> batched Damerau-Levenshtein match (dl <= ``cap``)
    -> distributed connected components -> canonical election. The same
    blocking/scoring/clustering skeleton as the flagship linkage
    pipeline, but every stage SQL-expressible, so the WHOLE composition
    (including the CC fixpoint) hash-matches a recursive-CTE closure
    oracle — a value-verified twin of the flagship's rows-only check.

    One row per part: (p_partkey, cluster_id = min id of its match
    component, keep = is canonical). Singletons keep themselves.
    """
    from chameleon_entity_linking_ray.stages.blocking import (
        sorted_neighborhood_pairs,
    )
    from chameleon_entity_linking_ray.stages.cluster import (
        attach_assignments,
        connected_components,
    )
    from chameleon_entity_linking_ray.stages.scoring import (
        damerau_levenshtein_batch,
    )

    part = read_table(sf_dir, "part", ["p_partkey", "p_name"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch.column("p_partkey").cast(pa.int64()),
                         "key": batch.column("p_name").cast(pa.string())})

    keyed = part.map_batches(prep, batch_format="pyarrow")
    pairs = sorted_neighborhood_pairs(keyed, key_col="key", id_col="id",
                                      window=window, carry_key=True)

    def match(batch: pa.Table) -> pa.Table:
        lk = batch.column("left_key").to_pylist()
        rk = batch.column("right_key").to_pylist()
        if not lk:
            e = pa.array([], pa.int64())
            return pa.table({"u": e, "v": e})
        d = damerau_levenshtein_batch(lk, rk)
        keep = pa.array(d <= cap)
        sub = batch.filter(keep)
        return pa.table({"u": sub.column("left_id").cast(pa.int64()),
                         "v": sub.column("right_id").cast(pa.int64())})

    edges = pairs.map_batches(match, batch_format="pyarrow")
    assignments, _stats = connected_components(edges)
    assigned = attach_assignments(part, assignments, id_col="p_partkey")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": batch.column("p_partkey").cast(pa.int64()),
            "cluster_id": batch.column("cluster_id"),
            "keep": batch.column("keep")})

    return assigned.map_batches(project, batch_format="pyarrow")


def jw_name_pairs(sf_dir: str, threshold: float = 0.85,
                  num_buckets: int = 32) -> Dataset:
    """Jaro-Winkler similarity join over the DISTINCT part-name surface
    (two-token blocking): the third string-similarity kernel next to
    Levenshtein and Damerau-Levenshtein, and the one designed for names
    (Winkler's prefix boost). The engine kernel
    (stages/scoring.py:jaro_winkler_batch) is BIT-EQUAL to DuckDB's
    ``jaro_winkler_similarity``, so the emitted doubles hash-match with
    no rounding at all. Output is surface-level (name_a < name_b, jw) —
    expanding to id pairs is the same vectorized cross-product
    ``damerau_pairs`` uses.
    """
    from chameleon_entity_linking_ray.stages.agg import distinct
    from chameleon_entity_linking_ray.stages.blocking import _run_pairs
    from chameleon_entity_linking_ray.stages.scoring import (
        jaro_winkler_batch,
    )

    names_ds = distinct(read_table(sf_dir, "part", ["p_name"]), ["p_name"])

    def prep(batch: pa.Table) -> pa.Table:
        names = batch.column("p_name").cast(pa.string())
        # ONE-token blocking: the distinct-name surface is vocabulary-
        # bounded, so block growth is bounded too (unlike the id-level
        # joins, where damerau_pairs needs the two-token key)
        tok = pc.list_element(pc.split_pattern(names, " "), 0)
        return pa.table({"p_name": names, "tok": tok})

    out = pa.schema([("name_a", pa.string()), ("name_b", pa.string()),
                     ("jw", pa.float64())])

    def pairs(g: pa.Table) -> pa.Table:
        g = g.sort_by([("tok", "ascending"), ("p_name", "ascending")])
        _, counts = np.unique(g["tok"].to_numpy(), return_counts=True)
        li, ri = _run_pairs(counts, window=0, max_block=len(g) + 1)
        if len(li) == 0:
            return out.empty_table()
        names = g["p_name"].to_numpy()
        a, b = names[li], names[ri]  # a < b: name-sorted within block
        jw = jaro_winkler_batch(list(a), list(b))
        keep = jw >= threshold
        return pa.table({"name_a": a[keep], "name_b": b[keep],
                         "jw": jw[keep]}, schema=out)

    return bucketed(names_ds.map_batches(prep, batch_format="pyarrow"),
                    ["tok"], pairs, num_buckets)


def _pair_f1(blocks: list[pa.Table]) -> pa.Table:
    """Fold (cluster_id, truth, n) contingency blocks into pairwise
    precision/recall/F1 — the north-rule clustering metric. The
    contingency table is O(clusters x truth-groups), tiny by the time it
    reaches this fold; the corpus never leaves the combiner stage."""
    if not blocks:
        df = pd.DataFrame({"cluster_id": [], "truth": [], "n": []})
    else:
        df = pa.concat_tables(blocks).to_pandas()
    n = df["n"].to_numpy(np.int64) if len(df) else np.empty(0, np.int64)

    def pairs(sizes: np.ndarray) -> int:
        return int((sizes * (sizes - 1) // 2).sum())

    both = pairs(n)
    pred = pairs(df.groupby("cluster_id")["n"].sum().to_numpy(np.int64)) \
        if len(df) else 0
    true = pairs(df.groupby("truth")["n"].sum().to_numpy(np.int64)) \
        if len(df) else 0
    # float expressions written identically in the SQL oracle
    p = both / pred if pred else 0.0
    r = both / true if true else 0.0
    f1 = 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0
    return pa.table({
        "n_items": pa.array([int(n.sum())], pa.int64()),
        "pairs_pred": pa.array([pred], pa.int64()),
        "pairs_true": pa.array([true], pa.int64()),
        "pairs_both": pa.array([both], pa.int64()),
        "precision": pa.array([p], pa.float64()),
        "recall": pa.array([r], pa.float64()),
        "f1": pa.array([f1], pa.float64())})


def clustering_eval(sf_dir: str, window: int = 6, cap: int = 4) -> Dataset:
    """Pairwise precision/recall/F1 of the SNM->Damerau->CC dedup
    (``dedup_parts_snm``) against the exact-name partition as reference
    labels — the north rule's clustering metric as an ENGINE OPERATOR,
    not just a test harness: one bucketed contingency aggregate
    (cluster_id x truth label, combiner form), then O(groups) arithmetic
    in one ``fold``. pairs_* are exact integers; P/R/F1 single float
    divisions, so the whole row hash-matches SQL.
    """
    from chameleon_entity_linking_ray.stages.agg import grouped_agg
    assigned = dedup_parts_snm(sf_dir, window=window, cap=cap)
    names = read_table(sf_dir, "part", ["p_partkey", "p_name"])
    j = attach(assigned, names, "p_partkey")
    joint = grouped_agg(j, keys=["cluster_id", "p_name"],
                        aggs={"n": (None, "count")})

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"cluster_id": batch.column("cluster_id"),
                         "truth": batch.column("p_name"),
                         "n": batch.column("n")})

    cont = joint.map_batches(rename, batch_format="pyarrow")
    return ray.data.from_arrow_refs([fold(cont, _pair_f1)])


def _blocking_fold(blocks: list[pa.Table], true_pairs: int,
                   n_records: int) -> pa.Table:
    """Fold per-block (pairs, covered) partials into the blocking-quality
    row: reduction ratio + pairs completeness (Christen's blocking
    metrics). All counts exact ints; the two ratios single float
    divisions mirrored in SQL."""
    cand = 0
    covered = 0
    for t in blocks:
        cand += int(pc.sum(t.column("pairs")).as_py())
        covered += int(pc.sum(t.column("covered")).as_py())
    total = n_records * (n_records - 1) // 2
    rr = 1.0 - cand / total if total else 0.0
    pcm = covered / true_pairs if true_pairs else 0.0
    return pa.table({
        "n_records": pa.array([n_records], pa.int64()),
        "total_pairs": pa.array([total], pa.int64()),
        "cand_pairs": pa.array([cand], pa.int64()),
        "covered_pairs": pa.array([covered], pa.int64()),
        "true_pairs": pa.array([true_pairs], pa.int64()),
        "reduction_ratio": pa.array([rr], pa.float64()),
        "pairs_completeness": pa.array([pcm], pa.float64())})


def blocking_stats(sf_dir: str, window: int = 6) -> Dataset:
    """Blocking-quality evaluation of the Sorted-Neighborhood blocker:
    REDUCTION RATIO (1 - candidates/all-pairs) and PAIRS COMPLETENESS
    (fraction of true duplicate pairs — exact-name matches — surviving
    the blocker), the two standard blocking metrics. The pair stream is
    reduced map-side to per-block (pairs, covered) ints (keys carried by
    ``sorted_neighborhood_pairs``, so no join back), and the truth-pair
    count is one combiner name-count aggregate — nothing materializes.
    """
    from chameleon_entity_linking_ray.stages.agg import grouped_agg
    from chameleon_entity_linking_ray.stages.blocking import (
        sorted_neighborhood_pairs,
    )

    part = read_table(sf_dir, "part", ["p_partkey", "p_name"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch.column("p_partkey").cast(pa.int64()),
                         "key": batch.column("p_name").cast(pa.string())})

    keyed = part.map_batches(prep, batch_format="pyarrow")
    pairs = sorted_neighborhood_pairs(keyed, key_col="key", id_col="id",
                                      window=window, carry_key=True)

    def reduce_block(batch: pa.Table) -> pa.Table:
        eq = pc.equal(batch.column("left_key"), batch.column("right_key"))
        cov = int(pc.sum(pc.cast(eq, pa.int64())).as_py() or 0)
        return pa.table({"pairs": pa.array([batch.num_rows], pa.int64()),
                         "covered": pa.array([cov], pa.int64())})

    partials = pairs.map_batches(reduce_block, batch_format="pyarrow")

    name_counts = grouped_agg(keyed, keys=["key"],
                              aggs={"c": (None, "count")})

    def tp_partial(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy(zero_copy_only=False)
        return pa.table({
            "tp": pa.array([int((c * (c - 1) // 2).sum())], pa.int64()),
            "n": pa.array([int(c.sum())], pa.int64())})

    tp_parts = name_counts.map_batches(tp_partial, batch_format="pyarrow") \
        .to_pandas()
    true_pairs = int(tp_parts["tp"].sum()) if len(tp_parts) else 0
    n_records = int(tp_parts["n"].sum()) if len(tp_parts) else 0
    return ray.data.from_arrow_refs(
        [fold(partials, _blocking_fold, true_pairs, n_records)])


def tf_cosine_pairs(sf_dir: str, threshold: float = 0.6,
                    df_cap: int | None = None, df_frac: float = 0.06
                    ) -> Dataset | pa.Table:
    """Integer-TF cosine similarity join over documents — the sparse
    bag-of-words twin of ``embedding_near_dups``: candidates from
    RARE-TOKEN blocking (a pair qualifies iff it shares a token whose
    document frequency is <= the cap; pairs per token bounded by
    cap^2/2, skew-proof like ``ngram_jaccard_pairs``), disposed by
    EXACT cosine over integer term frequencies. dot and the two squared
    norms are exact int64 sums (order-independent), sqrt is correctly
    rounded IEEE, and the final division mirrors the SQL expression — so
    the raw doubles hash-match with no rounding anywhere.

    The cap is RELATIVE by default: ``max(30, ceil(df_frac * non-empty
    docs))`` — an absolute cap silently empties out as the corpus grows
    (a token rare at 500 docs has 10x the df at 5,000), which is exactly
    what made the sf0.1 bench time an empty pipeline in round 4. Pass
    ``df_cap`` to pin an absolute cap.

    The disposal attaches both texts with ``_attach_texts`` (as
    ``exact_jaccard_filter`` does).

    The result is materialized before returning — OUTPUT-bound (only
    pairs above ``threshold``), never the corpus — because the all-
    filtered case must return the typed empty Arrow table from the
    driver (Ray cannot keep a 0-row Dataset's schema through
    ``to_pandas``); callers accept ``Dataset | pa.Table``.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    if df_cap is None:
        def nonempty(batch: pa.Table) -> pa.Table:
            t = pc.utf8_trim_whitespace(batch.column("text"))
            n = pc.sum(pc.greater(pc.utf8_length(t), 0)).as_py() or 0
            return pa.table({"n": pa.array([int(n)], pa.int64())})

        n_docs = docs.map_batches(nonempty, batch_format="pyarrow") \
            .sum("n") or 0
        import math
        df_cap = max(30, math.ceil(df_frac * n_docs))

    def tok_rows(batch: pa.Table) -> pa.Table:
        # vectorized explode (the doc_token_rows offset-arithmetic
        # idiom): trim + regex split + list-offset repeat, then one
        # hash-based drop_duplicates for the per-doc token SET — no
        # Python loop over rows or tokens
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "tok": pa.array([], pa.string())})
        text = pc.utf8_trim_whitespace(batch.column("text"))
        sub = batch.filter(pc.greater(pc.utf8_length(text), 0))
        if sub.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(sub.column("text")), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = np.diff(np.asarray(toks.offsets))
        ids = np.repeat(sub.column("doc_id")
                        .to_numpy(zero_copy_only=False).astype(np.int64),
                        lens)
        df = pd.DataFrame({"doc_id": ids,
                           "tok": toks.flatten().to_pandas()}) \
            .drop_duplicates()
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64),
                               pa.int64()),
            "tok": pa.array(df["tok"], pa.string())})

    tk = docs.map_batches(tok_rows, batch_format="pyarrow").materialize()
    rare = grouped_agg(tk, keys=["tok"], aggs={"df": (None, "count")}) \
        .filter(expr=f"df <= {df_cap}").select_columns(["tok"])
    rare_tk = attach(tk, rare, "tok", how="semi")

    cand = _id_pairs(block_pairs(rare_tk, "doc_id", "tok", window=0,
                                 max_block=df_cap + 1), "doc")

    def _cosine_rows(pairs_tbl: pa.Table, lt, rt) -> pa.Table:
        memo: dict[str, tuple] = {}

        def decomp(t: str):
            d = memo.get(t)
            if d is None:
                u, c = np.unique(np.asarray(t.split(), dtype=object),
                                 return_counts=True)
                d = memo.setdefault(t, (u, c.astype(np.int64),
                                        int((c.astype(np.int64) ** 2)
                                            .sum())))
            return d

        cos = np.empty(pairs_tbl.num_rows, np.float64)
        for i, (a, b) in enumerate(zip(lt, rt)):
            ua, ca, na2 = decomp(a)
            ub, cb, nb2 = decomp(b)
            _, ia, ib = np.intersect1d(ua, ub, assume_unique=True,
                                       return_indices=True)
            dot = int((ca[ia] * cb[ib]).sum())
            cos[i] = dot / (np.sqrt(float(na2)) * np.sqrt(float(nb2))) \
                if na2 and nb2 else 0.0
        t = pairs_tbl.select(["left_doc", "right_doc"]).append_column(
            "cosine", pa.array(cos, pa.float64()))
        return t.filter(pc.greater_equal(t.column("cosine"), threshold))

    def dispose(batch: pa.Table) -> pa.Table:
        lt = np.asarray(batch.column("text").to_pylist(), object)
        rt = np.asarray(batch.column("text_r").to_pylist(), object)
        return _cosine_rows(batch, lt, rt)

    scored = _attach_texts(cand, docs).map_batches(dispose,
                                                   batch_format="pyarrow")

    # when no pair clears the threshold every block is empty and the
    # Dataset API cannot keep the schema: Ray skips map_batches UDFs on
    # empty blocks AND Dataset.to_pandas() drops the schema of any 0-row
    # dataset (even a typed from_arrow seed) — materialize the
    # (pair-bounded) result and return the typed empty ARROW table itself
    # from the driver (the query contract accepts Dataset | pa.Table)
    out = scored.materialize()
    if out.count() == 0:
        return pa.table({
            "left_doc": pa.array([], pa.int64()),
            "right_doc": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64())})
    return out


def _assemble_part_attrs(blocks: list[pa.Table]):
    """(sorted p_partkey, brand/type/size arrays) from part blocks."""
    t = pa.concat_tables(blocks)
    ids = t.column("p_partkey").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.argsort(ids, kind="mergesort")
    return (ids[order],
            np.asarray(t.column("p_brand").to_pylist(), object)[order],
            np.asarray(t.column("p_type").to_pylist(), object)[order],
            t.column("p_size").to_numpy(zero_copy_only=False)[order])


_FS_FIELDS = ("p_brand", "p_type", "p_size")


def _fs_fold(blocks: list[pa.Table]) -> pa.Table:
    """Fold per-block agreement partials into the Fellegi-Sunter m/u
    table: one row per comparator field with P(agree|match) and
    P(agree|non-match) — the supervised (truth-labelled) estimate of the
    FS match/unmatch weights (the EM-free case). Counts exact ints; m/u
    single divisions mirrored in SQL."""
    tot = np.zeros(2 + 2 * len(_FS_FIELDS), np.int64)
    for t in blocks:
        tot += t.to_pandas().to_numpy(np.int64).sum(axis=0)
    n_match, n_unmatch = int(tot[0]), int(tot[1])
    rows = []
    for i, f in enumerate(_FS_FIELDS):
        am, au = int(tot[2 + 2 * i]), int(tot[3 + 2 * i])
        rows.append((f, n_match, n_unmatch, am, au,
                     am / n_match if n_match else 0.0,
                     au / n_unmatch if n_unmatch else 0.0))
    return pa.table({
        "field": pa.array([r[0] for r in rows], pa.string()),
        "n_match": pa.array([r[1] for r in rows], pa.int64()),
        "n_unmatch": pa.array([r[2] for r in rows], pa.int64()),
        "agree_match": pa.array([r[3] for r in rows], pa.int64()),
        "agree_unmatch": pa.array([r[4] for r in rows], pa.int64()),
        "m": pa.array([r[5] for r in rows], pa.float64()),
        "u": pa.array([r[6] for r in rows], pa.float64())})


def fs_weights(sf_dir: str, window: int = 6) -> Dataset:
    """Fellegi-Sunter comparator weights estimated over the SNM
    candidate space with exact-name matches as truth labels: for each
    attribute comparator (brand / type / size equality), m =
    P(agree | match) and u = P(agree | non-match) — the probabilistic
    record-linkage parameters whose log-odds rank match evidence.
    Supervised closed-form estimates (counts/ratios), so unlike the EM
    fitting the reference-class systems use, every value is
    SQL-verifiable. Pair stream reduces map-side to one partial-count
    row per block; attributes probe a sorted-array table broadcast from
    one ``fold`` (dimension-table assumption — swap for a bucketed
    ``hash_join`` on the pair ids when the attribute table outgrows a
    broadcast).
    """
    from chameleon_entity_linking_ray.stages.blocking import (
        sorted_neighborhood_pairs,
    )

    part = read_table(sf_dir, "part",
                      ["p_partkey", "p_name", "p_brand", "p_type",
                       "p_size"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch.column("p_partkey").cast(pa.int64()),
                         "key": batch.column("p_name").cast(pa.string())})

    keyed = part.map_batches(prep, batch_format="pyarrow")
    pairs = sorted_neighborhood_pairs(keyed, key_col="key", id_col="id",
                                      window=window, carry_key=True)
    attr_ref = fold(part.select_columns(
        ["p_partkey", "p_brand", "p_type", "p_size"]), _assemble_part_attrs)

    def partial(batch: pa.Table) -> pa.Table:
        cols = ["n_match", "n_unmatch"] + \
            [f"{k}_{f}" for f in _FS_FIELDS for k in ("am", "au")]
        if batch.num_rows == 0:
            return pa.table({c: pa.array([], pa.int64()) for c in cols})
        ids_s, brand, ptype, size = ray.get(attr_ref)
        li = np.searchsorted(ids_s, batch.column("left_id")
                             .to_numpy(zero_copy_only=False))
        ri = np.searchsorted(ids_s, batch.column("right_id")
                             .to_numpy(zero_copy_only=False))
        match = np.asarray(
            pc.equal(batch.column("left_key"),
                     batch.column("right_key")).to_pylist(), bool)
        out = [int(match.sum()), int((~match).sum())]
        for arr in (brand, ptype, size):
            agree = arr[li] == arr[ri]
            out += [int((agree & match).sum()),
                    int((agree & ~match).sum())]
        return pa.table({c: pa.array([v], pa.int64())
                         for c, v in zip(cols, out)})

    partials = pairs.map_batches(partial, batch_format="pyarrow")
    return ray.data.from_arrow_refs([fold(partials, _fs_fold)])


def golden_records(sf_dir: str, window: int = 6, cap: int = 4,
                   num_buckets: int = 32) -> Dataset:
    """Survivorship merge — the final step of the entity-resolution
    lifecycle (block -> match -> cluster -> CANONICALIZE): one golden
    record per ``dedup_parts_snm`` cluster with deterministic
    survivorship rules: canonical name = the minimum member id's name
    (arg_min), brand = deterministic mode (most frequent, lexicographic
    min on ties), size = max, plus the member count. One ``bucketed``
    shuffle on cluster_id; every rule is tie-deterministic, so the table
    is hash-exact vs SQL.
    """
    assigned = dedup_parts_snm(sf_dir, window=window, cap=cap) \
        .select_columns(["p_partkey", "cluster_id"])
    part = read_table(sf_dir, "part",
                      ["p_partkey", "p_name", "p_brand", "p_size"])
    j = attach(assigned, part, "p_partkey")

    def merge(g: pa.Table) -> pa.Table:
        outs = []
        for cid, sub in g.to_pandas().groupby("cluster_id", sort=False):
            sub = sub.sort_values("p_partkey", kind="mergesort")
            vc = sub.groupby("p_brand")["p_brand"].count()
            top = vc[vc == vc.max()].index.min()
            outs.append({
                "cluster_id": int(cid),
                "n_members": len(sub),
                "canonical_name": sub["p_name"].iloc[0],
                "mode_brand": top,
                "max_size": int(sub["p_size"].max())})
        return pa.Table.from_pylist(outs)

    return bucketed(j, ["cluster_id"], merge, num_buckets)


def model_pair_scores(sf_dir: str, window: int = 4,
                      threshold: float = 0.80) -> Dataset:
    """The MODEL-BACKED scoring actor pool as a public query: SNM
    candidate pairs over part names scored by
    ``stages/model.ModelPairScorer`` — a pure-numpy synthetic-weight
    transformer run exactly as a production model stage (weights
    broadcast once via ``ray.put``, fetched per actor in ``__init__``;
    tokenize + length-sorted padded collate + batched attention forward
    per ``__call__``). Output: matched pairs (score > ``threshold``)
    with the raw score and the M7 ``tok_fallback`` column.

    Rows-only in the driver gate (a transformer forward is not
    SQL-expressible); the model path's quality gate is the flagship
    e2e pytest (tests/test_model_scorer.py, pairwise F1 >= 0.85 vs
    planted truth at the same threshold).
    """
    from chameleon_entity_linking_ray.stages.blocking import (
        sorted_neighborhood_pairs,
    )
    from chameleon_entity_linking_ray.stages.model import (
        ModelPairScorer,
        SyntheticWeights,
    )

    part = read_table(sf_dir, "part", ["p_partkey", "p_name"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch.column("p_partkey").cast(pa.int64()),
                         "key": pc.utf8_lower(
                             batch.column("p_name").cast(pa.string()))})

    keyed = part.map_batches(prep, batch_format="pyarrow")
    pairs = sorted_neighborhood_pairs(keyed, key_col="key", id_col="id",
                                      window=window, carry_key=True)

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "part_a": batch.column("left_id").cast(pa.int64()),
            "part_b": batch.column("right_id").cast(pa.int64()),
            "left_text": batch.column("left_key").cast(pa.string()),
            "right_text": batch.column("right_key").cast(pa.string())})

    w_ref = ray.put(SyntheticWeights())
    scored = pairs.map_batches(shape, batch_format="pyarrow").map_batches(
        ModelPairScorer,
        fn_constructor_kwargs={"weights_ref": w_ref, "mode": "bi"},
        batch_format="pyarrow", batch_size=2048, concurrency=2)

    def out(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater(batch.column("score"),
                                    pa.scalar(threshold, pa.float32())))
        return pa.table({
            "part_a": b.column("part_a"),
            "part_b": b.column("part_b"),
            "score": b.column("score"),
            "tok_fallback": b.column("tok_fallback")})

    return scored.map_batches(out, batch_format="pyarrow")


def linkage_parts_surfaces(sf_dir: str) -> Dataset:
    """Value-verified projection of the FLAGSHIP's output: every
    SQL-derivable column of ``linkage_parts`` — (conv_id, turn_idx,
    mention ordinal by span_start, surface, norm, rho) — hash-matched
    against the extraction oracle. Scores/clusters are model-derived
    (pinned by the e2e F1 gate instead), but this pins that the flagship
    carries the mention stream through blocking + scoring + CC + ordered
    output INTACT: the north rule's per-turn text-equality invariant at
    mention granularity, verified value-for-value."""
    from chameleon_entity_linking_ray.pipelines.linkage import (  # noqa: F401
        run_linkage,
    )

    clustered = linkage_parts(sf_dir)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch.column("conv_id").cast(pa.string()),
            "turn_idx": batch.column("turn_idx").cast(pa.int64()),
            "span_start": batch.column("span_start").cast(pa.int64()),
            "surface": batch.column("surface").cast(pa.string()),
            "norm": batch.column("norm").cast(pa.string()),
            "rho": batch.column("rho").cast(pa.float32()),
        })

    def ordinal(g: pa.Table) -> pa.Table:
        g = g.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending"),
                       ("span_start", "ascending")])
        conv, turn = g["conv_id"].to_numpy(), g["turn_idx"].to_numpy()
        idx = np.arange(len(g))
        first = np.r_[True, (conv[1:] != conv[:-1]) | (turn[1:] != turn[:-1])]
        ord_ = idx - np.maximum.accumulate(np.where(first, idx, 0)) + 1
        return pa.table({"conv_id": conv, "turn_idx": turn, "ord": ord_,
                         "surface": g["surface"], "norm": g["norm"],
                         "rho": g["rho"]})

    return bucketed(clustered.map_batches(project, batch_format="pyarrow"),
                    ["conv_id", "turn_idx"], ordinal, 32)


def ann_ivf_fixed_topk(sf_dir: str, n_queries: int = 10, k: int = 5,
                       n_centroids: int = 16, n_probe: int = 4) -> Dataset:
    """``ann_ivf_topk`` with a FIXED coarse quantizer (zero Lloyd
    iterations: the cells are the ``n_centroids`` lowest vec_ids'
    normalized vectors, exactly the k-means init). Removing the
    iterative fitting makes the ENTIRE index + probe + top-k dataflow
    SQL-expressible, so this variant is value-verified against a DuckDB
    oracle — pinning the cell-assignment argmax, the per-query probe
    ranking, and the final tie-broken top-k of the IVF path that the
    full ``ann_ivf_topk`` shares (its only non-SQL piece is the Lloyd
    loop, covered by the exact-at-full-probe pytest)."""
    return ann_ivf_topk(sf_dir, n_queries=n_queries, k=k,
                        n_centroids=n_centroids, n_probe=n_probe, iters=0)


def _int8_quant(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 floor quantization — the ONE copy shared by
    ``embedding_quantize`` and ``ann_topk_int8`` so the cross-op
    hash-verifiability contract ('same floor semantics on both sides')
    cannot drift. Returns (q int64 [n, d], scale float64 [n])."""
    mx = np.max(np.abs(mat), axis=1)
    safe = np.where(mx == 0, 1.0, mx)
    q = np.floor(mat / safe[:, None] * 127.0).astype(np.int64)
    q[mx == 0] = 0
    return q, mx


def embedding_quantize(sf_dir: str) -> Dataset:
    """Symmetric int8 scalar quantization of the embedding column — the
    storage-shrink step a 100 TB embedding corpus runs before ANN
    serving (4x smaller, matmul in int8): per vector ``scale =
    max(|x|)``, ``q_i = floor(x_i / scale * 127)``.

    Map-only, zero shuffle. The emitted per-vector audit stats are all
    ORDER-INDEPENDENT (integer checksum/extrema of q, max reconstruction
    error) so the DuckDB oracle hash-matches despite float summation
    being order-sensitive: floor() is used instead of banker's/half-up
    round() for the same reason — identical IEEE semantics in numpy and
    SQL. Output (vec_id, scale, qsum, qmin, qmax, max_abs_err)."""
    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "scale": pa.array([], pa.float64()),
                "qsum": pa.array([], pa.int64()),
                "qmin": pa.array([], pa.int64()),
                "qmax": pa.array([], pa.int64()),
                "max_abs_err": pa.array([], pa.float64())})
        e = embedding_matrix(batch.column("embedding"))
        q, mx = _int8_quant(e)
        err = np.abs(e - q * mx[:, None] / 127.0)
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "scale": pa.array(np.round(mx, 6), pa.float64()),
            "qsum": pa.array(q.sum(axis=1), pa.int64()),
            "qmin": pa.array(q.min(axis=1), pa.int64()),
            "qmax": pa.array(q.max(axis=1), pa.int64()),
            "max_abs_err": pa.array(np.round(err.max(axis=1), 6),
                                    pa.float64()),
        })

    return emb.map_batches(fn, batch_format="pyarrow")


def ann_topk_int8(sf_dir: str, n_queries: int = 10, k: int = 5) -> Dataset:
    """Top-k search over the INT8-QUANTIZED embeddings — the serving twin
    of ``embedding_quantize`` + ``ann_topk``: both sides are quantized
    with the same floor semantics and scored by the exact INTEGER dot
    product, so unlike the float path the scores themselves are
    hash-verifiable cross-engine (int64, order-independent sums, no
    rounding anywhere). Same dataflow as ``ann_topk``: broadcast query
    matrix, per-batch matmul combiner, bucketed grouped_top_k.
    Output (query_id, vec_id, rnk, dot_int)."""
    emb = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    qdf = pa.concat_tables(
        [b for b in emb.filter(expr=f"vec_id < {n_queries}")
         .iter_batches(batch_format="pyarrow")]).to_pandas()
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat, _ = _int8_quant(
        np.stack(qdf["embedding"].to_numpy()).astype(np.float64))
    ref = ray.put((qids, qmat))

    def score(batch: pa.Table) -> pa.Table:
        qids, qmat = ray.get(ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        mat, _ = _int8_quant(embedding_matrix(batch.column("embedding")))
        dots = qmat @ mat.T  # exact int64 [q, n]
        nq, n = dots.shape
        return pa.table({
            "query_id": pa.array(np.repeat(qids, n), pa.int64()),
            "vec_id": pa.array(np.tile(ids, nq), pa.int64()),
            "dot_int": pa.array(dots.reshape(-1), pa.int64()),
        })

    scored = emb.map_batches(score, batch_format="pyarrow", batch_size=4096)
    scored = scored.filter(expr="query_id != vec_id")
    out = grouped_top_k(scored, group_keys=["query_id"],
                        by=["dot_int", "vec_id"], ascending=[False, True],
                        k=k, rank_col="rnk")

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rnk"] = df["rnk"].astype(np.int64)
        return df[["query_id", "vec_id", "rnk", "dot_int"]]

    return out.map_batches(shape, batch_format="pandas")
