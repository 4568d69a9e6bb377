"""Training-data preparation operators beyond the reference's set:
deterministic sampling, PII redaction, sequence packing, corpus n-gram
statistics, BPE-ish token counting, and exact distributed percentiles.

These complete the "large-scale training-data pipeline" family started in
``pipelines/corpus.py`` (dedup / similarity / text analysis). The design
constraints are the same:

- map-only where possible (redaction, sampling, token counting);
- when global state is needed (prefix sums for packing, histograms for
  percentiles) it is computed as a TINY per-range/per-bucket aggregate —
  bounded by a knob, never by the data — broadcast back via ``ray.put``;
- every op is value-verified against a DuckDB oracle (``__ray_entry__``),
  which forces the determinism a resumable 100 TB run needs anyway.

Determinism choices worth naming: sampling keys are md5 of the row key —
content-addressed, partition-invariant, and reproducible in SQL (the same
verifiability-over-speed trade as ``corpus.doc_fingerprint``; swap in the
keyed vectorized SipHash ``functions.hashing.hash64`` at scale). Regexes
are RE2 on both sides (Arrow and DuckDB), so redaction semantics match
bit-for-bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import Dataset

from chameleon_entity_linking_ray.functions.text import token_counts
from chameleon_entity_linking_ray.pipelines.analytics import read_table
from chameleon_entity_linking_ray.stages.agg import (
    distinct,
    grouped_agg,
    grouped_top_k,
    top_k,
)
from chameleon_entity_linking_ray.stages.fold import fold
from chameleon_entity_linking_ray.stages.shuffle import bucketed, run_cumsum

# GPT-2-ish pretokenizer classes: letter runs, digit runs, single
# non-alphanumeric marks. RE2-compatible (no lookarounds) so Arrow and
# DuckDB count identically.
BPE_TOKEN_RE = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]"


def _md5_hex(values) -> list[str]:
    """md5 hex digests of str(v) — the content-addressed sample key.
    Per-row md5 is inherent to the verifiability contract (DuckDB md5());
    the scale swap is functions.hashing.hash64 (vectorized SipHash)."""
    return [hashlib.md5(str(v).encode("utf-8")).hexdigest() for v in values]


# ------------------------------------------------------------------ redaction

def regex_redact(ds: Dataset, column: str, pattern: str, replacement: str,
                 out_col: str | None = None) -> Dataset:
    """Map-only regex scrub of one string column (PII masking, boilerplate
    stripping). RE2 via ``pc.replace_substring_regex`` — zero-copy Arrow in,
    Arrow out, no Python in the hot loop."""
    out_col = out_col or column

    def fn(batch: pa.Table) -> pa.Table:
        red = pc.replace_substring_regex(batch.column(column), pattern,
                                         replacement)
        if out_col in batch.column_names:
            i = batch.column_names.index(out_col)
            return batch.set_column(i, out_col, red)
        return batch.append_column(out_col, red)

    return ds.map_batches(fn, batch_format="pyarrow")


def redact_ids(sf_dir: str) -> Dataset:
    """PII redaction example: mask every 4+-digit run (account/customer
    identifiers) in ``c_name``. Arrow replaces ALL matches; the oracle
    passes the 'g' flag to DuckDB ``regexp_replace`` to match."""
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    red = regex_redact(cust, "c_name", r"[0-9]{4,}", "[ID]",
                       out_col="name_redacted")
    return red.select_columns(["c_custkey", "name_redacted"])


# ------------------------------------------------------------------- sampling

def sample_documents(sf_dir: str, hex_threshold: str = "2800") -> Dataset:
    """Deterministic Bernoulli sample: keep a document iff the first 4 hex
    chars of md5(doc_id) sort below ``hex_threshold`` (rate =
    int(hex_threshold,16)/65536; "2800" ~ 15.6%). Hash-based sampling is
    the only kind that survives resume/repartition at 100 TB — Ray's
    ``random_sample`` is run-dependent, this is content-addressed."""
    docs = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keys = np.asarray([h[:4] for h in _md5_hex(ids)], dtype=object)
        keep = keys < hex_threshold
        return batch.filter(pa.array(keep))

    return docs.map_batches(fn, batch_format="pyarrow")


def stratified_sample(sf_dir: str, n_per_group: int = 25) -> Dataset:
    """Per-language deterministic sample of ``n_per_group`` docs: rank by
    (md5(doc_id), doc_id) inside each ``lang`` stratum and keep the first n.
    One bucketed grouped_top_k — no global sort, no driver loop."""
    docs = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def with_key(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "skey", pa.array(_md5_hex(batch.column("doc_id").to_pylist()),
                             pa.string()))

    keyed = docs.map_batches(with_key, batch_format="pyarrow")
    out = grouped_top_k(keyed, group_keys=["lang"], by=["skey", "doc_id"],
                        ascending=[True, True], k=n_per_group,
                        rank_col="rnk")

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rnk"] = df["rnk"].astype(np.int64)
        return df[["lang", "doc_id", "rnk"]]

    return out.map_batches(shape, batch_format="pandas")


# ------------------------------------------------------------ sequence packing

def pack_sequences_ds(docs: Dataset, budget: int = 256,
                      range_size: int = 1024) -> Dataset:
    """Greedy-by-cumsum sequence packing for LLM training: documents in
    doc_id order are packed into token-budget bins,
    ``seq_id = floor(tokens_before_doc / budget)`` — the streaming packer
    where a bin may overrun by at most one document.

    This is a DISTRIBUTED PREFIX SUM: (1) map-only token counts; (2) a
    combiner groupby collapses per-doc counts to one row per doc_id range
    (``range_size`` docs each — the only driver-held state is #ranges rows,
    a knob, not the corpus); (3) exclusive range offsets are broadcast via
    ``ray.put``; (4) one ``bucketed`` shuffle on the range id co-locates
    each range, whose docs are sorted and numbered by a local cumsum on
    the range's broadcast base. No global sort, no driver loop over
    rows."""

    def tok(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pc.cast(token_counts(batch.column("text")), pa.int64()),
            "range_id": pa.array(d // range_size, pa.int64()),
        })

    tkr = docs.map_batches(tok, batch_format="pyarrow").materialize()

    sums = grouped_agg(tkr, ["range_id"],
                       {"tok_sum": ("n_tokens", "sum")}).to_pandas()
    sums = sums.sort_values("range_id").reset_index(drop=True)
    totals = sums["tok_sum"].to_numpy(np.int64)
    offsets = np.concatenate([[0], np.cumsum(totals)[:-1]])
    off_ref = ray.put((sums["range_id"].to_numpy(np.int64), offsets))

    def assign(g: pa.Table) -> pa.Table:
        rids, offs = ray.get(off_ref)
        g = g.sort_by("doc_id")             # ranges ascend with doc_id
        nt = g["n_tokens"].to_numpy()
        before = run_cumsum(g["range_id"].to_numpy(), nt) - nt
        base = offs[np.searchsorted(rids, g["range_id"].to_numpy())]
        return pa.table({"doc_id": g["doc_id"].cast(pa.int64()),
                         "n_tokens": nt,
                         "seq_id": (base + before) // budget})

    return bucketed(tkr, ["range_id"], assign, 32)


def pack_sequences(sf_dir: str, budget: int = 256,
                   range_size: int = 1024) -> Dataset:
    """``pack_sequences_ds`` over the ``documents`` table (driver-contract
    wrapper)."""
    return pack_sequences_ds(read_table(sf_dir, "documents",
                                        ["doc_id", "text"]),
                             budget=budget, range_size=range_size)


# ------------------------------------------------------------ n-gram statistics

def top_ngrams(sf_dir: str, k: int = 20) -> Dataset:
    """Corpus-level top-k word bigrams: per-block bigram building is all
    offset arithmetic over the flattened Arrow token lists (no per-row
    Python), per-block value_counts is the combiner, one tiny groupby
    merges partials, top_k prunes per block before the final cut."""
    docs = read_table(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(batch.column("text"))
        toks = pc.split_pattern_regex(text, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(toks.flatten().to_pylist(), dtype=object)
        off = np.asarray(toks.offsets)
        lens = np.diff(off)
        # docs with empty text split to [''] (len 1) -> zero bigrams
        nbi = np.maximum(lens - 1, 0)
        total = int(nbi.sum())
        if total == 0:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        doc_of = np.repeat(np.arange(len(lens)), nbi)
        within = np.arange(total) - np.repeat(np.cumsum(nbi) - nbi, nbi)
        pos = off[:-1][doc_of] + within
        big = pd.Series(flat[pos]).str.cat(pd.Series(flat[pos + 1]), sep=" ")
        vc = big.value_counts()
        return pa.table({"bigram": pa.array(vc.index, pa.string()),
                         "cnt": pa.array(vc.to_numpy(np.int64), pa.int64())})

    counts = grouped_agg(docs.map_batches(partial, batch_format="pyarrow"),
                         ["bigram"], {"cnt": ("cnt", "sum")})
    return top_k(counts, by=["cnt", "bigram"], ascending=[False, True], k=k)


def doc_tokens_bpe(sf_dir: str) -> Dataset:
    """BPE-ish pretokenizer count (letter runs / digit runs / punctuation
    marks) — the token-budget estimator whitespace counting undercounts.
    One RE2 kernel per batch on both engines (BPE_TOKEN_RE)."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch.column("text"), BPE_TOKEN_RE)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_bpe_tokens": pc.cast(n, pa.int64())})

    return docs.map_batches(fn, batch_format="pyarrow")


def doc_chunks(sf_dir: str, max_tokens: int = 32,
               overlap: int = 8) -> Dataset:
    """Sliding-window document chunking (LLM context prep): whitespace
    tokens windowed into chunks of ``max_tokens`` with ``overlap`` tokens
    shared between neighbours (stride = max_tokens - overlap). Map-only
    flat_map-shaped expansion; chunk text is rebuilt with ONE Arrow
    ``binary_join`` over a gathered ListArray — no per-row Python.

    Chunk contract (shared with the DuckDB oracle): chunk i covers tokens
    [i*stride, i*stride+max_tokens); n_chunks = 1 if n <= max_tokens else
    ceil((n-max_tokens)/stride)+1 (empty docs emit one empty chunk)."""
    stride = max_tokens - overlap
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(batch.column("text"))
        toks = pc.split_pattern_regex(text, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        off = np.asarray(toks.offsets)
        lens = np.diff(off)
        # empty text splits to [''] — treat as zero tokens
        empty = np.asarray(pc.equal(pc.utf8_length(text), 0)
                           .to_numpy(zero_copy_only=False))
        lens = np.where(empty, 0, lens)
        nch = np.where(lens <= max_tokens, 1,
                       -(-(lens - max_tokens) // stride) + 1).astype(np.int64)
        total = int(nch.sum())
        doc_of = np.repeat(np.arange(len(lens)), nch)
        chunk_idx = np.arange(total) - np.repeat(np.cumsum(nch) - nch, nch)
        start = chunk_idx * stride
        end = np.minimum(start + max_tokens, lens[doc_of])
        clen = np.maximum(end - start, 0)
        # gather the (overlapping) token runs into one flat values array
        coff = np.zeros(total + 1, np.int64)
        np.cumsum(clen, out=coff[1:])
        gather = (np.repeat(off[:-1][doc_of] + start, clen) +
                  (np.arange(int(clen.sum())) - np.repeat(coff[:-1], clen)))
        flat = toks.values.take(pa.array(gather, pa.int64()))
        chunks = pa.ListArray.from_arrays(pa.array(coff, pa.int32()), flat)
        ctext = pc.binary_join(chunks, " ")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids[doc_of], pa.int64()),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "start_tok": pa.array(start, pa.int64()),
            "n_chunk_tokens": pa.array(clen, pa.int64()),
            "chunk_text": ctext,
        })

    return docs.map_batches(fn, batch_format="pyarrow")


def doc_keywords(sf_dir: str, k: int = 3,
                 num_partitions: int = 32) -> Dataset:
    """Per-document top-k TF-IDF keywords: tf from a combiner groupby on
    (doc, term), df from a second combiner groupby on the tf table (one
    row per (doc, term) — already distinct), idf = ln(N/df) applied after
    an ``attach`` of the df table to tf (a broadcast up to
    ``joins.BROADCAST_ROWS`` distinct terms; a 100 TB web corpus has a
    heavy-tailed, billions-row vocabulary, which shuffles instead of ever
    landing on the driver). Scores are rounded to 6 places BEFORE ranking
    so engine and oracle rank identical values (raw float64 libm could
    differ in the last ulp across engines)."""
    from chameleon_entity_linking_ray.stages.joins import attach

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    n_docs = docs.count()

    def pairs(batch: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(batch.column("text"))
        toks = pc.split_pattern_regex(text, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = np.diff(np.asarray(toks.offsets))
        empty = np.asarray(pc.equal(pc.utf8_length(text), 0)
                           .to_numpy(zero_copy_only=False))
        lens = np.where(empty, 0, lens)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        d = np.repeat(ids, lens)
        w = np.asarray(toks.flatten().to_pylist(), dtype=object)
        keep = np.repeat(~empty, np.diff(np.asarray(toks.offsets)))
        w = w[keep]
        return pa.table({"doc_id": pa.array(d, pa.int64()),
                         "term": pa.array(w, pa.string())})

    tf = grouped_agg(docs.map_batches(pairs, batch_format="pyarrow"),
                     ["doc_id", "term"], {"tf": (None, "count")}).materialize()
    df_ds = grouped_agg(tf, ["term"], {"df": (None, "count")})

    def score(batch: pa.Table) -> pa.Table:
        dfv = batch.column("df").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        tfv = batch.column("tf").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        score = np.round(tfv * np.log(n_docs / dfv), 6)
        return batch.drop_columns(["df"]) \
            .append_column("tfidf", pa.array(score, pa.float64()))

    scored = attach(tf, df_ds, "term", num_partitions=num_partitions) \
        .map_batches(score, batch_format="pyarrow")
    out = grouped_top_k(scored, group_keys=["doc_id"],
                        by=["tfidf", "term"], ascending=[False, True],
                        k=k, rank_col="rnk")

    def shape(df_: pd.DataFrame) -> pd.DataFrame:
        df_ = df_.copy()
        df_["rnk"] = df_["rnk"].astype(np.int64)
        df_["tf"] = df_["tf"].astype(np.int64)
        return df_[["doc_id", "term", "tf", "tfidf", "rnk"]]

    return out.map_batches(shape, batch_format="pandas")


# ------------------------------------------------------------------ percentiles

def _parquet_column_stats(path: str, column: str):
    """(min, max, rows) from the parquet FOOTER row-group statistics —
    zero data scanned. Returns None when any row group lacks stats."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(path)
    try:
        ci = md.schema.names.index(column)
    except ValueError:
        return None
    lo = hi = None
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(ci).statistics
        if st is None or not st.has_min_max:
            return None
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    if lo is None:
        return None
    return lo, hi, md.num_rows


def exact_percentiles(sf_dir: str, qs: tuple[float, ...] =
                      (0.25, 0.5, 0.75, 0.9, 0.99),
                      n_buckets: int = 256) -> Dataset:
    """EXACT distributed percentiles of l_extendedprice (in cents) — the
    two-phase histogram method in exactly TWO data scans:

    1. (min, max, N) come from the parquet FOOTER statistics — no scan at
       all (cents = trunc(v*100) is monotone, so the footer min/max map
       through); a full aggregate pass is the fallback for stat-less
       files. Per-block partial histograms over ``n_buckets`` fixed-width
       ranges then combine into a tiny bucket-count table (n_buckets rows
       on the driver — a knob, never the data) whose cumsum locates the
       bucket holding each target rank.
    2. ONE filtered pass re-scans only the rank-holding buckets (~
       len(qs) * N/n_buckets rows), one distributed sort+limit over their
       union, and every order statistic is an index into it (union rank =
       global rank minus values below the bucket that are outside the
       union — all known from the histogram).

    Rank contract (shared with the DuckDB oracle): value at 1-based rank
    floor(q*(N-1))+1. At a skewed 100 TB the refinement recurses
    (re-histogram inside the hot bucket) instead of sorting it; one level
    suffices here and the dataflow is identical."""
    path = f"{sf_dir}/lineitem.parquet"
    col = "l_extendedprice"
    li = ray.data.read_parquet(path, columns=[col])

    def cents_of(batch: pa.Table) -> np.ndarray:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        return np.trunc(v * 100).astype(np.int64)

    st = _parquet_column_stats(path, col)
    if st is not None:
        lo = int(np.trunc(st[0] * 100))
        hi = int(np.trunc(st[1] * 100))
        n = int(st[2])
    else:  # fallback: one aggregate scan
        from ray.data.aggregate import Count, Max, Min

        def cents_tbl(batch: pa.Table) -> pa.Table:
            return pa.table({"v": pa.array(cents_of(batch), pa.int64())})

        s = li.map_batches(cents_tbl, batch_format="pyarrow") \
            .aggregate(Min("v"), Max("v"), Count())
        lo, hi, n = int(s["min(v)"]), int(s["max(v)"]), int(s["count()"])
    width = max(1, (hi - lo) // n_buckets + 1)

    def hist(batch: pa.Table) -> pa.Table:
        ub, cnt = np.unique((cents_of(batch) - lo) // width,
                            return_counts=True)
        return pa.table({"bucket": pa.array(ub, pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64())})

    h = grouped_agg(li.map_batches(hist, batch_format="pyarrow"),
                    ["bucket"], {"cnt": ("cnt", "sum")}).to_pandas()
    h = h.sort_values("bucket").reset_index(drop=True)
    buckets = h["bucket"].to_numpy(np.int64)
    cum = np.cumsum(h["cnt"].to_numpy(np.int64))
    below_of_bucket = np.concatenate([[0], cum[:-1]])

    # quantile -> (histogram row, within-union 1-based rank)
    union_rows = sorted({int(np.searchsorted(cum, int(np.floor(q * (n - 1))) + 1))
                         for q in qs})
    union_below = {bi: sum(int(h["cnt"].iloc[b]) for b in union_rows if b < bi)
                   for bi in union_rows}
    targets = []
    for q in qs:
        r = int(np.floor(q * (n - 1))) + 1
        bi = int(np.searchsorted(cum, r))
        targets.append((q, r - int(below_of_bucket[bi]) + union_below[bi]))
    m = max(t[1] for t in targets)
    ranges = [(lo + int(buckets[bi]) * width, lo + (int(buckets[bi]) + 1) * width)
              for bi in union_rows]

    def in_union(batch: pa.Table) -> pa.Table:
        v = cents_of(batch)
        mask = np.zeros(len(v), dtype=bool)
        for bs, be in ranges:
            mask |= (v >= bs) & (v < be)
        return pa.table({"v": pa.array(v[mask], pa.int64())})

    sub = li.map_batches(in_union, batch_format="pyarrow") \
        .sort("v").limit(m).to_pandas()["v"].to_numpy(np.int64)

    out = pa.table({"q": pa.array([t[0] for t in targets], pa.float64()),
                    "val_c": pa.array([int(sub[t[1] - 1]) for t in targets],
                                      pa.int64())})
    return ray.data.from_arrow(out)


# ------------------------------------------------------- decontamination

def _word_ngrams(batch: pa.Table, n: int):
    """Flattened word n-grams over a batch's trimmed ``text`` column.

    Returns (grams, doc_of, n_grams_per_doc): one joined-string gram per
    token position (offset arithmetic over the flattened Arrow token
    lists — the same zero-Python-per-row kernel as ``top_ngrams``),
    the row index each gram came from, and per-row gram counts (rows
    shorter than n tokens contribute zero grams).
    """
    text = pc.utf8_trim_whitespace(batch.column("text"))
    toks = pc.split_pattern_regex(text, r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = np.asarray(toks.flatten().to_pylist(), dtype=object)
    off = np.asarray(toks.offsets)
    lens = np.diff(off)
    ng = np.maximum(lens - (n - 1), 0)
    total = int(ng.sum())
    if total == 0:
        return (np.empty(0, object), np.empty(0, np.int64),
                ng.astype(np.int64))
    doc_of = np.repeat(np.arange(len(lens)), ng)
    within = np.arange(total) - np.repeat(np.cumsum(ng) - ng, ng)
    pos = off[:-1][doc_of] + within
    s = pd.Series(flat[pos])
    for j in range(1, n):
        s = s.str.cat(pd.Series(flat[pos + j]), sep=" ")
    return s.to_numpy(), doc_of.astype(np.int64), ng.astype(np.int64)


def _gram_set(blocks: list[pa.Table]) -> frozenset:
    """Union the blocks' ``g`` (gram) columns into one frozenset, folded
    in a worker: the driver holds only the object ref. Its callers'
    sets — a benchmark eval slice's grams, the duplicated grams of a
    corpus — are bounded by the benchmark or by the duplication, not by
    the corpus, so a broadcast set is the right shape."""
    out: set = set()
    for t in blocks:
        out.update(t.column("g").to_pylist())
    return frozenset(out)


def decontaminate(sf_dir: str, n: int = 5, eval_mod: int = 20) -> Dataset:
    """Benchmark decontamination: flag training documents that share any
    word n-gram with a held-out eval slice — the GPT-3 / FLAN-style
    n-gram overlap check every pretraining pipeline runs before
    training. The eval slice is the deterministic ``doc_id % eval_mod
    == 0`` subset (a stand-in for the real benchmark suite); n=5 is
    sized to the ~54-token synthetic docs (real pipelines use 8-13).

    Dataflow: one pass builds the eval slice's DISTINCT n-grams as
    per-block partials (map-only), one ``fold`` unions them into a
    broadcast frozenset, then one map-only pass over the training slice
    counts gram occurrences hitting the set (vectorized pandas isin +
    bincount). No shuffle at all — the benchmark side is broadcast-small
    by nature, which is exactly why decontamination scales where
    train-vs-train dedup needs LSH.

    Output per training doc: total n-gram positions, positions matching
    the benchmark set, and the contaminated flag (any match).
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def eval_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % eval_mod == 0))
        if sub.num_rows == 0:
            return pa.table({"g": pa.array([], pa.string())})
        grams, _, _ = _word_ngrams(sub, n)
        return pa.table({"g": pa.array(pd.unique(grams), pa.string())})

    bench = docs.map_batches(eval_grams, batch_format="pyarrow")
    ref = fold(bench, _gram_set)

    def score(batch: pa.Table) -> pa.Table:
        bench_set = ray.get(ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % eval_mod != 0))
        grams, doc_of, ng = _word_ngrams(sub, n)
        if len(grams):
            hit = pd.Series(grams).isin(bench_set).to_numpy()
            matched = np.bincount(doc_of, weights=hit,
                                  minlength=sub.num_rows).astype(np.int64)
        else:
            matched = np.zeros(sub.num_rows, np.int64)
        return pa.table({
            "doc_id": sub.column("doc_id"),
            "n_ngrams": pa.array(ng, pa.int64()),
            "n_matched": pa.array(matched, pa.int64()),
            "contaminated": pa.array(matched > 0, pa.bool_()),
        })

    return docs.map_batches(score, batch_format="pyarrow")


# ------------------------------------------------- LM scoring / dup spans

def _count_map(blocks: list[pa.Table]) -> tuple[dict, int]:
    """Union per-block (token, cnt) partials into one {token: count} dict
    plus the corpus total, in one ``fold`` (the unigram LM of a 100 TB
    corpus is bounded by the VOCABULARY, so a broadcast dict is the right
    shape)."""
    out: dict = {}
    total = 0
    for t in blocks:
        for tok, c in zip(t.column("tok").to_pylist(),
                          t.column("cnt").to_pylist()):
            out[tok] = out.get(tok, 0) + int(c)
            total += int(c)
    return out, total


def doc_logprob(sf_dir: str) -> Dataset:
    """Per-document mean unigram log-probability — the KenLM-style
     'perplexity' quality score every pretraining pipeline gates on
    (CCNet / LLaMA data prep), with the corpus itself as the LM.

    Two passes: (1) combiner token counts (per-block value_counts, one
    tiny grouped_agg keyed by token — shuffle O(vocabulary)), unioned
    into a broadcast {token: count} dict by one ``fold``; (2) map-only
    scoring — mean over token positions of ln(count/total). No smoothing
    term is needed: every scored token is in the LM by construction.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def tok_partial(batch: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(batch.column("text"))
        keep = pc.greater(pc.utf8_length(text), 0)
        toks = pc.split_pattern_regex(text.filter(keep), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        vc = pd.Series(toks.flatten().to_pylist()).value_counts()
        return pa.table({"tok": pa.array(vc.index, pa.string()),
                         "cnt": pa.array(vc.to_numpy(np.int64), pa.int64())})

    counts = grouped_agg(docs.map_batches(tok_partial, batch_format="pyarrow"),
                         ["tok"], {"cnt": ("cnt", "sum")})
    ref = fold(counts, _count_map)

    def score(batch: pa.Table) -> pa.Table:
        cmap, total = ray.get(ref)
        text = pc.utf8_trim_whitespace(batch.column("text"))
        keep = pc.greater(pc.utf8_length(text), 0)
        sub = batch.filter(keep)
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(sub.column("text")), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pd.Series(toks.flatten().to_pylist())
        off = np.asarray(toks.offsets)
        lens = np.diff(off).astype(np.int64)
        cnt = flat.map(cmap).to_numpy(np.float64)
        lp = np.log(cnt / float(total))
        sums = np.add.reduceat(lp, off[:-1]) if len(lp) else np.empty(0)
        return pa.table({
            "doc_id": sub.column("doc_id"),
            "n_tokens": pa.array(lens, pa.int64()),
            "logprob": pa.array(sums / lens, pa.float64()),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def dup_spans(sf_dir: str, n: int = 8) -> Dataset:
    """Exact duplicated-substring statistics at fixed n — the bounded
    form of suffix-array substring dedup (Lee et al. 2022, 'Deduplicating
    Training Data Makes Language Models Better'): for every document,
    how many word n-gram positions also occur in ANOTHER document.

    Dataflow: per-block distinct (gram, doc) partials -> bucketed exact
    distinct -> combiner count by gram = document frequency (shuffle
    O(distinct grams)); grams with df >= 2 are unioned into a broadcast
    frozenset by one ``fold`` (bounded by the duplicated-gram count,
    not the corpus); one map-only pass then scores every doc. Output:
    n-gram positions, positions duplicated elsewhere, and the duplicated
    fraction — the signal substring-dedup pipelines cut on.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def gram_doc_partial(batch: pa.Table) -> pa.Table:
        grams, doc_of, _ = _word_ngrams(batch, n)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        part = pd.DataFrame({"g": grams, "doc_id": ids[doc_of]}) \
            .drop_duplicates()
        return pa.table({"g": pa.array(part["g"], pa.string()),
                         "doc_id": pa.array(part["doc_id"].to_numpy(np.int64),
                                            pa.int64())})

    gd = distinct(docs.map_batches(gram_doc_partial, batch_format="pyarrow"),
                  ["g", "doc_id"])
    df_tbl = grouped_agg(gd, ["g"], {"df": (None, "count")})

    def dup_only(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch.column("df"), 2)
        return pa.table({"g": batch.filter(keep).column("g")})

    ref = fold(df_tbl.map_batches(dup_only, batch_format="pyarrow"), _gram_set)

    def score(batch: pa.Table) -> pa.Table:
        dups = ray.get(ref)
        grams, doc_of, ng = _word_ngrams(batch, n)
        if len(grams):
            hit = pd.Series(grams).isin(dups).to_numpy()
            ndup = np.bincount(doc_of, weights=hit,
                               minlength=batch.num_rows).astype(np.int64)
        else:
            ndup = np.zeros(batch.num_rows, np.int64)
        frac = np.where(ng > 0, ndup / np.maximum(ng, 1), 0.0)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_ngrams": pa.array(ng, pa.int64()),
            "n_dup": pa.array(ndup, pa.int64()),
            "dup_frac": pa.array(frac, pa.float64()),
        })

    return docs.map_batches(score, batch_format="pyarrow")


# ------------------------------------------------- domain mixing / budgets

def source_mix(sf_dir: str) -> Dataset:
    """Per-source corpus composition and uniform-target mixture weights —
    the domain-reweighting table a pretraining run samples from
    (DoReMi-style weights are one softmax away; the uniform target keeps
    the arithmetic SQL-checkable).

    One combiner grouped_agg to (source, n_docs, n_tokens) — shuffle
    O(#sources) — then a single-block pass computes token shares and
    weight = (1/#sources) / share. Exact int token sums; shares/weights
    are int/int IEEE divisions, bit-stable across engines.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "source": batch.column("source"),
            "n_tokens": pc.cast(token_counts(batch.column("text")),
                                pa.int64()),
        })

    agg = grouped_agg(docs.map_batches(prep, batch_format="pyarrow"),
                      ["source"], {"n_docs": (None, "count"),
                                   "n_tokens": ("n_tokens", "sum")})

    def shares(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        total = float(df["n_tokens"].sum())
        k = len(df)
        share = df["n_tokens"].to_numpy(np.float64) / total
        return pa.table({
            "source": pa.array(df["source"], pa.string()),
            "n_docs": pa.array(df["n_docs"].to_numpy(np.int64), pa.int64()),
            "n_tokens": pa.array(df["n_tokens"].to_numpy(np.int64),
                                 pa.int64()),
            "token_share": pa.array(share, pa.float64()),
            "mix_weight": pa.array((1.0 / k) / share, pa.float64()),
        })

    # the aggregate is #sources rows — one block, one pass
    return agg.repartition(1).map_batches(shares, batch_format="pyarrow")


def budget_sample(sf_dir: str, token_budget: int = 600) -> Dataset:
    """Per-source token-budget sampling: within each source, take
    documents in deterministic md5-rank order while the running token
    sum stays within ``token_budget`` — how a mixing pipeline fills each
    domain's quota reproducibly (hash order survives resume and
    repartition, unlike any randomized reservoir).

    One ``bucketed`` shuffle co-locates each source (same grouped shape as
    ``stratified_sample``); the per-group kernel is a sort by
    (md5(doc_id), doc_id) + cumsum + prefix cut. Only (doc_id, source,
    n_tokens, skey) rows move — never text.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "n_tokens": pc.cast(token_counts(batch.column("text")),
                                pa.int64()),
            "skey": pa.array(_md5_hex(ids), pa.string()),
        })

    def take_prefix(g: pa.Table) -> pa.Table:
        g = g.sort_by([("source", "ascending"), ("skey", "ascending"),
                       ("doc_id", "ascending")])
        cum = run_cumsum(g["source"].to_numpy(), g["n_tokens"].to_numpy())
        keep = cum <= token_budget
        return g.select(["doc_id", "source", "n_tokens"]).filter(keep) \
            .append_column("cum_tokens", pa.array(cum[keep]))

    return bucketed(docs.map_batches(prep, batch_format="pyarrow"),
                    ["source"], take_prefix, 32)


# ------------------------------------------------------------ KMV sketch

def _kmv_merge(blocks: list[pa.Table], k: int) -> pa.Table:
    """Merge per-block KMV candidate sets: global distinct, sort, keep the
    k smallest, estimate. The merge input is <= k rows per block — tiny by
    construction, the defining property of a mergeable sketch."""
    parts = [t.column("v").to_numpy(zero_copy_only=False) for t in blocks]
    hs = (np.unique(np.concatenate(parts)) if parts
          else np.empty(0, np.uint64))
    m = min(len(hs), k)
    if m < k:
        est = float(m)
    else:
        kth = float(hs[k - 1])  # hs is sorted ascending
        est = (k - 1) / (kth / 16.0 ** 15)
    return pa.table({
        "k": pa.array([k], pa.int64()),
        "n_hashes": pa.array([m], pa.int64()),
        "n_distinct_est": pa.array([est], pa.float64()),
    })


def approx_distinct(sf_dir: str, k: int = 256) -> Dataset:
    """Approximate COUNT(DISTINCT text) via a KMV (k-minimum-values)
    sketch — the mergeable distinct-count sketch a 100 TB profiler uses
    where exact distinct would shuffle every row: each block contributes
    its k smallest md5 values (the combiner), the merge keeps the global
    k smallest, and est = (k-1) / normalized kth value. Standard error
    ~ 1/sqrt(k-2) (~6% at k=256).

    Unlike HLL this sketch is EXACTLY reproducible in SQL (the k minimum
    md5 values are a deterministic set), so the estimate itself is
    value-verified against a DuckDB oracle — a sketch with a bit-exact
    correctness gate. Shuffle cost: <= k rows per block, never the data.
    """
    docs = read_table(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = set(batch.column("text").to_pylist())
        hs = np.unique(np.fromiter(
            (int(hashlib.md5(s.encode("utf-8")).hexdigest()[:15], 16)
             for s in texts), np.uint64, len(texts)))
        return pa.table({"v": pa.array(hs[:k], pa.uint64())})

    cands = docs.map_batches(partial, batch_format="pyarrow")
    return ray.data.from_arrow(ray.get(fold(cands, _kmv_merge, k)))


def _hh_candidates(blocks: list[pa.Table]) -> tuple[tuple, int]:
    """Union per-block frequent-token candidates + total token count from
    the pass-1 blocks, in one ``fold``; the driver holds the ref."""
    cands: set = set()
    total = 0
    for t in blocks:
        toks = t.column("tok").to_pylist()
        kinds = t.column("kind").to_pylist()
        cnts = t.column("cnt").to_pylist()
        for tok, kind, c in zip(toks, kinds, cnts):
            if kind == 0:
                cands.add(tok)
            else:
                total += int(c)
    return tuple(sorted(cands)), total


def heavy_hitters(sf_dir: str, k: int = 64) -> Dataset:
    """EXACT frequent tokens (count*k > corpus total) with bounded
    memory — the two-pass frequent-elements design (Misra-Gries class):

    Pass 1 (map-only combiner): each block emits only the tokens whose
    LOCAL count clears the local threshold ``cnt * k > block_tokens``
    (< k rows per block by pigeonhole) plus one block-total row. Any
    token with global frequency > N/k must clear the local bar in at
    least one block (if it missed everywhere, summing gives <= N/k), so
    the union of block candidates is a guaranteed superset — no
    sketch-miss risk, and per-block state is O(k), independent of the
    vocabulary (unlike a full value-count shuffle).

    Pass 2 (map-only + tiny grouped_agg): exact counts restricted to
    the broadcast candidate set, filtered by the exact integer global
    threshold. Output is therefore EXACT and SQL-oracle-checkable —
    the bounded-memory pass changes cost, never the answer.
    """
    docs = read_table(sf_dir, "documents", ["text"])

    def _flat_tokens(batch: pa.Table):
        text = pc.utf8_trim_whitespace(batch.column("text"))
        keep = pc.greater(pc.utf8_length(text), 0)
        toks = pc.split_pattern_regex(text.filter(keep), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        return toks

    def local(batch: pa.Table) -> pa.Table:
        toks = _flat_tokens(batch)
        vc = pd.Series(toks.flatten().to_pylist()).value_counts()
        n_b = int(vc.sum())
        freq = vc[vc.to_numpy() * k > n_b]
        return pa.table({
            "tok": pa.array(list(freq.index) + [""], pa.string()),
            "kind": pa.array([0] * len(freq) + [1], pa.int8()),
            "cnt": pa.array(list(freq.to_numpy(np.int64)) + [n_b],
                            pa.int64()),
        })

    pass1 = docs.map_batches(local, batch_format="pyarrow")
    ref = fold(pass1, _hh_candidates)

    def exact_counts(batch: pa.Table) -> pa.Table:
        cands, _total = ray.get(ref)
        toks = _flat_tokens(batch)
        flat = pd.Series(toks.flatten().to_pylist())
        vc = flat[flat.isin(cands)].value_counts()
        return pa.table({"token": pa.array(vc.index, pa.string()),
                         "cnt": pa.array(vc.to_numpy(np.int64), pa.int64())})

    counts = grouped_agg(docs.map_batches(exact_counts,
                                          batch_format="pyarrow"),
                         ["token"], {"cnt": ("cnt", "sum")})

    def threshold(batch: pa.Table) -> pa.Table:
        _cands, total = ray.get(ref)
        keep = pc.greater(pc.multiply(batch.column("cnt"), k),
                          pa.scalar(total, pa.int64()))
        return batch.filter(keep)

    return counts.map_batches(threshold, batch_format="pyarrow")


def percentiles_cont(sf_dir: str, qs: tuple[float, ...] =
                     (0.25, 0.5, 0.75, 0.9),
                     n_buckets: int = 256) -> Dataset:
    """EXACT interpolated percentiles (SQL ``quantile_cont`` semantics,
    type-7: v_lo + frac*(v_hi - v_lo) at h = (N-1)*q) of l_extendedprice
    cents — same two-phase histogram dataflow as ``exact_percentiles``
    (footer stats -> tiny bucket table -> one filtered re-scan of the
    rank-holding buckets), except each quantile resolves BOTH bounding
    order statistics. The interpolation expression is written
    identically in the oracle SQL, so the doubles agree bit-for-bit."""
    path = f"{sf_dir}/lineitem.parquet"
    col = "l_extendedprice"
    li = ray.data.read_parquet(path, columns=[col])

    def cents_of(batch: pa.Table) -> np.ndarray:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        return np.trunc(v * 100).astype(np.int64)

    st = _parquet_column_stats(path, col)
    if st is not None:
        lo, hi, n = (int(np.trunc(st[0] * 100)),
                     int(np.trunc(st[1] * 100)), int(st[2]))
    else:
        from ray.data.aggregate import Count, Max, Min

        def cents_tbl(batch: pa.Table) -> pa.Table:
            return pa.table({"v": pa.array(cents_of(batch), pa.int64())})

        s = li.map_batches(cents_tbl, batch_format="pyarrow") \
            .aggregate(Min("v"), Max("v"), Count())
        lo, hi, n = int(s["min(v)"]), int(s["max(v)"]), int(s["count()"])
    width = max(1, (hi - lo) // n_buckets + 1)

    def hist(batch: pa.Table) -> pa.Table:
        ub, cnt = np.unique((cents_of(batch) - lo) // width,
                            return_counts=True)
        return pa.table({"bucket": pa.array(ub, pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64())})

    h = grouped_agg(li.map_batches(hist, batch_format="pyarrow"),
                    ["bucket"], {"cnt": ("cnt", "sum")}).to_pandas()
    h = h.sort_values("bucket").reset_index(drop=True)
    buckets = h["bucket"].to_numpy(np.int64)
    cum = np.cumsum(h["cnt"].to_numpy(np.int64))
    below_of_bucket = np.concatenate([[0], cum[:-1]])

    # each q needs ranks r_lo = floor(h)+1 and r_hi = min(r_lo+1, N)
    want: dict[float, tuple[int, int, float]] = {}
    need_ranks: set[int] = set()
    for q in qs:
        hq = (n - 1) * q
        r_lo = int(np.floor(hq)) + 1
        r_hi = min(r_lo + 1, n)
        want[q] = (r_lo, r_hi, hq - np.floor(hq))
        need_ranks.update((r_lo, r_hi))

    union_rows = sorted({int(np.searchsorted(cum, r)) for r in need_ranks})
    union_below = {bi: sum(int(h["cnt"].iloc[b]) for b in union_rows
                           if b < bi) for bi in union_rows}

    def local_rank(r: int) -> int:
        bi = int(np.searchsorted(cum, r))
        return r - int(below_of_bucket[bi]) + union_below[bi]

    m = max(local_rank(r) for r in need_ranks)
    ranges = [(lo + int(buckets[bi]) * width,
               lo + (int(buckets[bi]) + 1) * width) for bi in union_rows]

    def in_union(batch: pa.Table) -> pa.Table:
        v = cents_of(batch)
        mask = np.zeros(len(v), dtype=bool)
        for bs, be in ranges:
            mask |= (v >= bs) & (v < be)
        return pa.table({"v": pa.array(v[mask], pa.int64())})

    sub = li.map_batches(in_union, batch_format="pyarrow") \
        .sort("v").limit(m).to_pandas()["v"].to_numpy(np.int64)

    out_q, out_v = [], []
    for q in qs:
        r_lo, r_hi, frac = want[q]
        v_lo = float(sub[local_rank(r_lo) - 1])
        v_hi = float(sub[local_rank(r_hi) - 1])
        out_q.append(q)
        out_v.append(v_lo + frac * (v_hi - v_lo))
    return ray.data.from_arrow(pa.table({
        "q": pa.array(out_q, pa.float64()),
        "val_c": pa.array(out_v, pa.float64())}))


def hdr_percentiles(sf_dir: str, qs: tuple[float, ...] =
                    (0.25, 0.5, 0.75, 0.9, 0.99),
                    sub_buckets: int = 32) -> Dataset:
    """HdrHistogram/DDSketch-class QUANTILE SKETCH: log-linear integer
    bucketing (one bucket per (bit-length, linear sub-bucket) pair, so
    relative error <= 1/sub_buckets per octave), ONE data pass, O(64 ×
    sub_buckets) mergeable state per block — the bounded-memory
    streaming alternative to ``exact_percentiles``' two-pass refinement.

    Unlike float-boundary sketches (DDSketch's ln-gamma buckets), the
    bucket function here is PURE INTEGER arithmetic (bit length + linear
    subdivision), so the sketch — and therefore the quantile estimate —
    is bit-reproducible in SQL: a sketch with a value-level oracle.
    Estimate contract: lower bound of the bucket holding 1-based rank
    floor(q*(N-1))+1 (the exact_percentiles rank contract).
    """
    S = sub_buckets
    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])

    def hist(batch: pa.Table) -> pa.Table:
        v = np.trunc(batch.column("l_extendedprice")
                     .to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        v = v[v > 0]
        bl = np.frexp(v.astype(np.float64))[1]  # exact bit length < 2^53
        lo = np.int64(1) << (bl - 1)
        key = (bl - 1) * S + ((v - lo) * S) // lo
        ub, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(ub.astype(np.int64), pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64())})

    h = grouped_agg(li.map_batches(hist, batch_format="pyarrow"),
                    ["key"], {"cnt": ("cnt", "sum")}).to_pandas() \
        .sort_values("key").reset_index(drop=True)
    keys = h["key"].to_numpy(np.int64)
    cum = np.cumsum(h["cnt"].to_numpy(np.int64))
    n = int(cum[-1]) if len(cum) else 0

    out_q, out_v = [], []
    for q in qs:
        r = int(np.floor(q * (n - 1))) + 1
        k = int(keys[int(np.searchsorted(cum, r))])
        b = k // S + 1
        sub = k % S
        lo = 1 << (b - 1)
        out_q.append(q)
        out_v.append(lo + sub * lo // S)
    return ray.data.from_arrow(pa.table({
        "q": pa.array(out_q, pa.float64()),
        "est_c": pa.array(out_v, pa.int64())}))


def grouped_approx_distinct(sf_dir: str, k: int = 16) -> Dataset:
    """Per-source approximate COUNT(DISTINCT text) — the GROUPED form of
    the KMV sketch (``approx_distinct``), fully distributed: each block's
    combiner keeps the k smallest distinct md5 values PER GROUP (<= k
    rows per (block, group)), a (source, v) dedup collapses cross-block
    duplicates, ``grouped_top_k`` keeps the global per-group k-min set,
    and one tiny grouped_agg yields (m, kth) -> est. Only sketch rows
    ever shuffle — the corpus stays map-only.

    Like the global sketch, the k minimum md5 values are a deterministic
    set, so the per-group ESTIMATE is bit-reproducible in SQL (the same
    value-verified-sketch property). k=16 keeps the estimator path
    exercised on the small test tables; production k would be 256+.
    """
    from chameleon_entity_linking_ray.stages.agg import (
        grouped_agg, grouped_top_k,
    )

    docs = read_table(sf_dir, "documents", ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["source", "text"]).to_pandas() \
            .drop_duplicates()
        df["v"] = np.fromiter(
            (int(hashlib.md5(s.encode("utf-8")).hexdigest()[:15], 16)
             for s in df["text"]), np.int64, len(df))
        df = df.drop_duplicates(subset=["source", "v"]) \
            .sort_values(["source", "v"], kind="mergesort") \
            .groupby("source", sort=False).head(k)
        return pa.table({
            "source": pa.array(df["source"].to_numpy(object), pa.string()),
            "v": pa.array(df["v"].to_numpy(np.int64), pa.int64())})

    cands = docs.map_batches(partial, batch_format="pyarrow")
    dist = grouped_agg(cands, keys=["source", "v"],
                       aggs={"c": (None, "count")})
    kmin = grouped_top_k(dist, group_keys=["source"], by=["v"],
                         ascending=[True], k=k, rank_col="rn")
    agg = grouped_agg(kmin, keys=["source"],
                      aggs={"n_hashes": (None, "count"), "kth": ("v", "max")})

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        m = df["n_hashes"].to_numpy(np.int64)
        kth = df["kth"].to_numpy(np.float64)
        est = np.where(m < k, m.astype(np.float64),
                       (k - 1) / (kth / 16.0 ** 15))
        return pd.DataFrame({
            "source": df["source"],
            "k": np.full(len(df), k, np.int64),
            "n_hashes": m,
            "n_distinct_est": est})

    return agg.map_batches(estimate, batch_format="pandas")


def weighted_sample(sf_dir: str, wmax_c: int = 60_000_000) -> Dataset:
    """Weighted deterministic Bernoulli sample: keep an order with
    probability ~ total_c / ``wmax_c`` — selection by EXACT integer
    cross-multiply ``u36 * wmax_c < total_c * 2^36`` where u36 is the
    first 9 md5 hex chars of the orderkey (36 bits of content-addressed
    randomness). No floats anywhere in the predicate, so engine and SQL
    agree bit-for-bit; like ``sample_documents``, hash-based selection
    survives resume/repartition. Both products stay under 2^63 for
    total_c < wmax_c <= ~1.3e8 cents. Map-only — zero shuffle.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("o_orderkey").to_pylist()
        u36 = np.fromiter((int(h[:9], 16) for h in _md5_hex(ids)),
                          np.int64, len(ids))
        tc = pc.cast(pc.trunc(pc.multiply(
            batch.column("o_totalprice"), 100.0)), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keep = u36 * wmax_c < tc * (1 << 36)
        out = pa.table({"o_orderkey": batch.column("o_orderkey"),
                        "total_c": pa.array(tc, pa.int64())})
        return out.filter(pa.array(keep))

    return orders.map_batches(fn, batch_format="pyarrow")


def dataset_split(sf_dir: str, val_hex: str = "e000",
                  test_hex: str = "f000") -> Dataset:
    """Deterministic train/val/test assignment: the first 4 md5 hex
    chars of doc_id partition [0, ffff] into train / val / test ranges
    (~87.5 / 6.25 / 6.25 here). Content-addressed like
    ``sample_documents``, so the split survives resume / repartition /
    re-shuffle and never leaks rows between splits across runs — the
    property random splits lose the moment the corpus is rewritten.
    Map-only, zero shuffle.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keys = np.asarray([h[:4] for h in _md5_hex(ids)], dtype=object)
        split = np.where(keys < val_hex, "train",
                         np.where(keys < test_hex, "val", "test"))
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "lang": batch.column("lang").cast(pa.string()),
            "split": pa.array(split, pa.string())})

    return docs.map_batches(fn, batch_format="pyarrow")


# ----------------------------------------- O6: pos/neg training rotation

def train_interleave(sf_dir: str, ratio: int = 4,
                     range_size: int = 4096) -> Dataset:
    """CrossEncoder O6: global-counter positive/negative interleave
    (``cnt % (pos_neg_ration + 1)``, /root/reference/CrossEncoder/
    train.py:95): walking a triple stream in order, every (ratio+1)-th
    example takes the positive side, the rest take the negative side.

    The triple stream is derived per customer (pos = top order by price,
    negs = the next ``ratio`` orders; stream order = (qid, neg rank) —
    deterministic where the reference shuffles, so the oracle can pin
    values). The global counter is a DISTRIBUTED PREFIX SUM, the
    ``pack_sequences_ds`` pattern: (1) per-block top-(ratio+1) prune is
    the combiner; (2) one ``bucketed`` shuffle on qid assembles each
    query's triples, tagged with ``range_id = qid // range_size``; (3)
    per-range triple counts are a tiny combiner aggregate (#ranges rows on
    the driver, a knob, never the data); (4) exclusive offsets broadcast
    via ``ray.put``; (5) a second shuffle on the range id sorts each
    range's triples and adds a local count to its base. No global sort,
    no driver loop over rows.

    Output (ordinal, qid, pid, label): label 1 where
    ``ordinal % (ratio+1) == 0`` (the positive turn), else 0.
    """
    k = ratio + 1
    orders = read_table(sf_dir, "orders",
                        ["o_custkey", "o_orderkey", "o_totalprice"])

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                              ascending=[True, False, True],
                              kind="mergesort") \
            .groupby("o_custkey", sort=False).head(k)

    def assemble(t: pa.Table) -> pa.Table:
        g = prune(t.to_pandas())
        rank = g.groupby("o_custkey", sort=False).cumcount().to_numpy()
        q = g["o_custkey"].to_numpy(np.int64)
        p = g["o_orderkey"].to_numpy(np.int64)
        neg_mask = rank > 0
        pos_ids = p[rank == 0]
        pos_q = q[rank == 0]
        idx = np.searchsorted(pos_q, q[neg_mask])
        return pa.table({
            "qid": q[neg_mask],
            "r": rank[neg_mask].astype(np.int64),
            "pos_id": pos_ids[idx],
            "neg_id": p[neg_mask],
            "range_id": q[neg_mask] // range_size,
        })

    triples = bucketed(orders.map_batches(prune, batch_format="pandas"),
                       ["o_custkey"], assemble, 32).materialize()

    counts = grouped_agg(triples, ["range_id"],
                         {"n": ("qid", "count")}).to_pandas()
    counts = counts.sort_values("range_id").reset_index(drop=True)
    n = counts["n"].to_numpy(np.int64)
    offsets = np.concatenate([[0], np.cumsum(n)[:-1]])
    off_ref = ray.put((counts["range_id"].to_numpy(np.int64), offsets))

    def number(g: pa.Table) -> pa.Table:
        rids, offs = ray.get(off_ref)
        g = g.sort_by([("qid", "ascending"), ("r", "ascending")])
        rid = g["range_id"].to_numpy()      # ranges ascend with qid
        ordinal = offs[np.searchsorted(rids, rid)] \
            + run_cumsum(rid, np.ones(len(g), np.int64)) - 1
        is_pos = (ordinal % k) == 0
        return pa.table({
            "ordinal": ordinal,
            "qid": g["qid"],
            "pid": np.where(is_pos, g["pos_id"].to_numpy(),
                            g["neg_id"].to_numpy()),
            "label": is_pos.astype(np.int64),
        })

    return bucketed(triples, ["range_id"], number, 32)


def train_rotation(sf_dir: str, epochs: int = 3, max_pos: int = 2,
                   max_neg: int = 6, pool: int = 8,
                   num_buckets: int = 32) -> Dataset:
    """BiEncoder O6: per-query pop-and-append queue rotation
    (/root/reference/BiEncoder/model.py:407-424): each visit pops the
    head of the positive queue and the head of the negative queue and
    re-appends them (circular), and a query with NO positives pops TWO
    negatives instead (head as stand-in positive, next as negative).
    Deterministic closed form for visit v: ``P[v % |P|]`` / ``N[v % |N|]``
    when ``|P| > 0``, else ``N[2v % |N|]`` / ``N[(2v+1) % |N|]``.

    Queues are derived per customer from the top-``pool`` orders by
    price: positives = the first ``max_pos`` with status 'F', negatives =
    the next ``max_neg`` of the rest (some customers have no 'F' order in
    the pool — those exercise the two-negative branch). The margin label
    is the teacher-score difference (reference model.py:426-430), teacher
    = ``round(price * 1e-3, 6)`` as in ``teacher_scores``.

    Shape: per-block top-``pool`` prune (combiner) -> ONE ``bucketed``
    shuffle on qid -> fully vectorized queue assembly + modular indexing
    per bucket (no per-row Python). Output (qid, visit, pos_id, neg_id,
    margin), ``epochs`` rows per eligible query.
    """
    orders = read_table(sf_dir, "orders",
                        ["o_custkey", "o_orderkey", "o_totalprice",
                         "o_orderstatus"])

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                              ascending=[True, False, True],
                              kind="mergesort") \
            .groupby("o_custkey", sort=False).head(pool)

    def per_bucket(t: pa.Table) -> pa.Table:
        g = prune(t.to_pandas())
        q = g["o_custkey"].to_numpy(np.int64)
        pid = g["o_orderkey"].to_numpy(np.int64)
        price = g["o_totalprice"].to_numpy(np.float64)
        teach = np.round(price * 1e-3, 6)
        is_f = (g["o_orderstatus"] == "F").to_numpy()
        # positive queue: first max_pos 'F' rows per qid, in rank order
        posrank = pd.Series(is_f.astype(np.int64)).groupby(q).cumsum() \
            .to_numpy()
        is_pos = is_f & (posrank <= max_pos)
        # negative queue: first max_neg of the remaining rows
        negrank = pd.Series((~is_pos).astype(np.int64)).groupby(q) \
            .cumsum().to_numpy()
        is_neg = (~is_pos) & (negrank <= max_neg)

        pq, pstart, pcnt = np.unique(q[is_pos], return_index=True,
                                     return_counts=True)
        ppid, pteach = pid[is_pos], teach[is_pos]
        nq, nstart, ncnt = np.unique(q[is_neg], return_index=True,
                                     return_counts=True)
        npid, nteach = pid[is_neg], teach[is_neg]
        if len(nq) == 0:
            return pa.table({"qid": np.array([], np.int64),
                             "visit": np.array([], np.int64),
                             "pos_id": np.array([], np.int64),
                             "neg_id": np.array([], np.int64),
                             "margin": np.array([], np.float64)})
        # align the (possibly absent) positive queue to each neg-queue qid
        if len(pq):
            pj = np.searchsorted(pq, nq)
            has_p = pj < len(pq)
            has_p[has_p] &= pq[pj[has_p]] == nq[has_p]
            pj_safe = np.where(has_p, pj, 0)
            a_pcnt = np.where(has_p, pcnt[pj_safe], 0)
            a_pstart = np.where(has_p, pstart[pj_safe], 0)
        else:
            a_pcnt = np.zeros(len(nq), np.int64)
            a_pstart = np.zeros(len(nq), np.int64)

        rq = np.repeat(nq, epochs)
        v = np.tile(np.arange(epochs, dtype=np.int64), len(nq))
        r_pcnt = np.repeat(a_pcnt, epochs)
        r_pstart = np.repeat(a_pstart, epochs)
        r_ncnt = np.repeat(ncnt, epochs)
        r_nstart = np.repeat(nstart, epochs)
        hp = r_pcnt > 0

        # the two branches index DIFFERENT arrays: evaluate each with
        # indices clamped to its own array, then select
        pos_idx_p = r_pstart + v % np.maximum(r_pcnt, 1)
        pos_idx_n = r_nstart + (2 * v) % r_ncnt
        if len(ppid):
            pp_id = ppid[np.minimum(pos_idx_p, len(ppid) - 1)]
            pp_t = pteach[np.minimum(pos_idx_p, len(ppid) - 1)]
        else:
            pp_id = np.zeros(len(rq), np.int64)
            pp_t = np.zeros(len(rq), np.float64)
        pos_id = np.where(hp, pp_id, npid[pos_idx_n])
        pos_t = np.where(hp, pp_t, nteach[pos_idx_n])
        neg_idx = r_nstart + np.where(hp, v % r_ncnt, (2 * v + 1) % r_ncnt)
        return pa.table({
            "qid": rq, "visit": v, "pos_id": pos_id.astype(np.int64),
            "neg_id": npid[neg_idx],
            "margin": pos_t - nteach[neg_idx],
        })

    return bucketed(orders.map_batches(prune, batch_format="pandas"),
                    ["o_custkey"], per_bucket, num_buckets)


# ------------------------------------- DSIR: importance-resampling score

def dsir_logratio(sf_dir: str, target_lang: str = "en") -> Dataset:
    """DSIR-style data-selection score (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): per document, the
    mean unigram log-likelihood RATIO between a target-domain LM (here:
    the ``lang == target_lang`` slice) and the source LM (the whole
    corpus), Laplace-smoothed over the source vocabulary. Documents with
    ``log_ratio > 0`` look more target-like than the corpus average —
    the importance weight a resampling pass would gate on.

    Same shape as ``doc_logprob``: two combiner token-count aggregates
    (shuffle O(vocabulary)), both LMs broadcast as dicts from one
    ``fold`` each, then a MAP-ONLY scoring pass. The oracle mirrors the
    smoothing expression term for term."""
    docs = read_table(sf_dir, "documents", ["doc_id", "lang", "text"])

    def tok_partial_all(batch: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(batch.column("text"))
        keep = pc.greater(pc.utf8_length(text), 0)
        toks = pc.split_pattern_regex(text.filter(keep), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        vc = pd.Series(toks.flatten().to_pylist()).value_counts()
        return pa.table({"tok": pa.array(vc.index, pa.string()),
                         "cnt": pa.array(vc.to_numpy(np.int64),
                                         pa.int64())})

    def tok_partial_tgt(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch.column("lang"),
                                    pa.scalar(target_lang)))
        return tok_partial_all(sub)

    src_counts = grouped_agg(
        docs.map_batches(tok_partial_all, batch_format="pyarrow"),
        ["tok"], {"cnt": ("cnt", "sum")})
    tgt_counts = grouped_agg(
        docs.map_batches(tok_partial_tgt, batch_format="pyarrow"),
        ["tok"], {"cnt": ("cnt", "sum")})
    src_ref = fold(src_counts, _count_map)
    tgt_ref = fold(tgt_counts, _count_map)

    def score(batch: pa.Table) -> pa.Table:
        smap, s_total = ray.get(src_ref)
        tmap, t_total = ray.get(tgt_ref)
        vocab = len(smap)  # source vocabulary (superset of target's)
        text = pc.utf8_trim_whitespace(batch.column("text"))
        keep = pc.greater(pc.utf8_length(text), 0)
        sub = batch.filter(keep)
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(sub.column("text")), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pd.Series(toks.flatten().to_pylist())
        off = np.asarray(toks.offsets)
        lens = np.diff(off).astype(np.int64)
        cs = flat.map(smap).to_numpy(np.float64)
        ct = flat.map(lambda t: tmap.get(t, 0)).to_numpy(np.float64)
        lp = (np.log((ct + 1.0) / float(t_total + vocab))
              - np.log((cs + 1.0) / float(s_total + vocab)))
        sums = np.add.reduceat(lp, off[:-1]) if len(lp) else np.empty(0)
        return pa.table({
            "doc_id": sub.column("doc_id"),
            "n_tokens": pa.array(lens, pa.int64()),
            "log_ratio": pa.array(sums / lens, pa.float64()),
        })

    return docs.map_batches(score, batch_format="pyarrow")
