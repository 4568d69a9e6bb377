"""MinHash-LSH + token blocking, and candidate-pair generation.

The scalable replacement for the reference's candidate generation (BM25 run
file blocking, /root/reference/BiEncoder/test.py:63-79, and FAISS top-k,
/root/reference/BiEncoder/test_retrieval.py:43-76). Two complementary
stateless blockers run in one ``map_batches`` over the surface vocabulary:

- **LSH bands** over char-shingle MinHash — catch typo variants (high
  Jaccard, e.g. "wayne industries" ~ "wbyne industries");
- **token blocks** (one block per distinct token) — catch subset/
  abbreviation variants whose char Jaccard is low (e.g. "hooli" ~
  "hooli industries" share the token block "hooli").

Shuffle design: grouping by raw ``block_key`` would make millions of tiny
groups and pay a Python call per group. Instead rows are shuffled by
``bucket = hash(block_key) % num_hash_buckets`` — every member of a block
lands in the same bucket, ``map_groups`` runs once per BUCKET, and pair
generation inside is pure vectorized numpy over runs of equal block keys
(no per-block Python loop).

Skew handling (SURVEY.md §4): blocks larger than ``max_block_size`` (hot
tokens — a tool name in every transcript) switch from all-pairs to windowed
pairing over the lexicographically sorted members — each member pairs with
its next ``pair_window`` neighbors, capping pairs at n*W instead of n^2/2
while keeping near-identical surfaces (sort-adjacent) paired; rare-token
blocks and LSH bands provide the high-recall candidates.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data import Dataset

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.functions.hashing import hash64, mix64
from chameleon_entity_linking_ray.functions.minhash import lsh_band_keys, minhash_signatures
from chameleon_entity_linking_ray.stages.order import in_logical_order


class LshBander:
    """map_batches over the vocab: one row per (surface, band) and per
    (surface, token) + shuffle bucket. id col is int64 ``node``."""

    def __init__(self, config: LinkageConfig | None = None, id_col: str = "node",
                 text_col: str = "norm", token_blocks: bool = True):
        self.c = config or LinkageConfig()
        self.id_col = id_col
        self.text_col = text_col
        self.token_blocks = token_blocks

    def __call__(self, batch: pa.Table) -> pa.Table:
        c = self.c
        texts = batch.column(self.text_col).to_pylist()
        n = len(texts)
        sigs = minhash_signatures(texts, c.shingle_k, c.num_perm, c.minhash_seed)
        keys = lsh_band_keys(sigs, c.num_bands, c.minhash_seed)  # [n, bands] uint64
        bands = keys.shape[1]
        rep = np.repeat(np.arange(n, dtype=np.int64), bands)
        flat_keys = keys.reshape(-1)

        if self.token_blocks:
            token_lists = [list(dict.fromkeys(t.split())) for t in texts]
            counts = np.fromiter((len(t) for t in token_lists), dtype=np.int64, count=n)
            if counts.sum():
                toks = [tok for ts in token_lists for tok in ts]
                tok_keys = mix64(hash64(toks), seed=101)
                tok_rep = np.repeat(np.arange(n, dtype=np.int64), counts)
                rep = np.concatenate([rep, tok_rep])
                flat_keys = np.concatenate([flat_keys, tok_keys])

        take = pa.array(rep)
        return pa.table({
            self.id_col: batch.column(self.id_col).take(take),
            self.text_col: batch.column(self.text_col).take(take),
            "block_key": pa.array(flat_keys.view(np.int64), pa.int64()),
            "bucket": pa.array((mix64(flat_keys, seed=11) %
                                np.uint64(c.num_hash_buckets)).astype(np.int32), pa.int32()),
        })


def _run_pairs(counts: np.ndarray, window: int, max_block: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized pair-index generation over runs of equal block keys.

    For a run of size c: all-pairs when c <= max_block, else windowed
    (each element with its next `window` neighbors). Returns global
    (left, right) index arrays. No Python loop over runs.
    """
    total = int(counts.sum())
    starts = np.zeros(len(counts), dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    c_of = np.repeat(counts, counts)
    rem = c_of - within - 1  # rights available after each element
    lcounts = np.where(c_of <= max_block, rem, np.minimum(rem, window))
    P = int(lcounts.sum())
    if P == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    li = np.repeat(np.arange(total, dtype=np.int64), lcounts)
    seg_starts = np.zeros(total, dtype=np.int64)
    seg_starts[1:] = np.cumsum(lcounts)[:-1]
    ri = np.arange(P, dtype=np.int64) - np.repeat(seg_starts, lcounts) + li + 1
    return li, ri


def make_pair_generator(config: LinkageConfig | None = None, id_col: str = "node",
                        text_col: str = "norm"):
    """Per-BUCKET pandas fn for ``groupby('bucket').map_groups``.

    Emits canonical (left_id < right_id) candidate pairs carrying both
    texts so scoring needs no join back to the vocab table (SURVEY.md J1:
    "carry texts through blocking to avoid the join entirely"). Pairs can
    repeat across blocks; ``dedup_pairs_fn`` removes them before scoring.
    """
    c = config or LinkageConfig()

    def make_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # members sorted by surface: windowed pairing in hot blocks then
        # pairs lexicographic neighbors (near-identical surfaces adjacent)
        g = g.drop_duplicates(subset=["block_key", id_col]) \
             .sort_values(["block_key", text_col], kind="mergesort")
        bk = g["block_key"].to_numpy()
        _, counts = np.unique(bk, return_counts=True)
        li, ri = _run_pairs(counts, c.pair_window, c.max_block_size)
        if len(li) == 0:
            return pd.DataFrame({
                "left_id": pd.Series(dtype=np.int64),
                "right_id": pd.Series(dtype=np.int64),
                "left_text": pd.Series(dtype=object),
                "right_text": pd.Series(dtype=object),
                "block_key": pd.Series(dtype=np.int64),
            })
        ids = g[id_col].to_numpy()
        texts = g[text_col].to_numpy()
        lid, rid = ids[li], ids[ri]
        lt, rt = texts[li], texts[ri]
        flip = lid > rid
        lid2 = np.where(flip, rid, lid)
        rid2 = np.where(flip, lid, rid)
        lt2 = np.where(flip, rt, lt)
        rt2 = np.where(flip, lt, rt)
        return pd.DataFrame({
            "left_id": lid2, "right_id": rid2,
            "left_text": lt2, "right_text": rt2,
            "block_key": bk[li],
        })

    return make_pairs


def add_pair_bucket(num_buckets: int):
    """Vectorized pair-key bucket column for the dedup shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        left = batch.column("left_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        right = batch.column("right_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = mix64(left ^ mix64(right, seed=23), seed=29)
        return batch.append_column(
            "pbucket", pa.array((h % np.uint64(num_buckets)).astype(np.int32), pa.int32()))

    return fn


@ray.remote(num_cpus=0.25)
def _snm_tail(prev_tail: pa.Table, block: pa.Table, n: int) -> pa.Table:
    """Last ``n`` rows of concat(prev_tail, block) — the boundary rows the
    NEXT sorted block needs. O(window) rows; chained block-to-block so the
    sorted table never round-trips through the driver."""
    # empty sort blocks can arrive with an EMPTY schema (Ray Data drops
    # column metadata on zero-row blocks) — skip them
    if block.num_rows == 0:
        return prev_tail
    t = block if prev_tail is None else \
        pa.concat_tables([prev_tail, block]).combine_chunks()
    return t.slice(max(0, t.num_rows - n))


@ray.remote
def _snm_window_pairs(prev_tail: pa.Table, block: pa.Table, window: int,
                      id_col: str, key_col: str, carry_key: bool) -> pa.Table:
    """Emit (left_id, right_id) for every row j of ``block`` paired with
    its ``window - 1`` predecessors in global sort order (prev_tail carries
    the cross-block predecessors). Pure vectorized ragged-arange — no
    Python loop over rows. With ``carry_key`` the sort key rides along as
    (left_key, right_key) so scorers need no join back (SURVEY.md M10)."""
    if block.num_rows == 0:
        # zero-row blocks may carry an empty schema; emit a typed empty
        src = prev_tail if (prev_tail is not None
                            and id_col in prev_tail.schema.names) else None
        idt = src.schema.field(id_col).type if src is not None else pa.int64()
        kt = src.schema.field(key_col).type if src is not None \
            else pa.string()
        cols = {"left_id": pa.array([], idt), "right_id": pa.array([], idt)}
        if carry_key:
            cols["left_key"] = pa.array([], kt)
            cols["right_key"] = pa.array([], kt)
        return pa.table(cols)
    if prev_tail is None:
        t, n_prev = block, 0
    else:
        t = pa.concat_tables([prev_tail, block]).combine_chunks()
        n_prev = prev_tail.num_rows
    ids = t.column(id_col)
    keys = t.column(key_col)
    total = t.num_rows
    j = np.arange(n_prev, total, dtype=np.int64)
    c = np.minimum(window - 1, j)
    npairs = int(c.sum())
    if npairs == 0:
        ii = jj = pa.array([], pa.int64())
    else:
        jj_np = np.repeat(j, c)
        seg = np.zeros(len(j), np.int64)
        seg[1:] = np.cumsum(c)[:-1]
        k = np.arange(npairs, dtype=np.int64) - np.repeat(seg, c)
        ii = pa.array(jj_np - np.repeat(c, c) + k)
        jj = pa.array(jj_np)
    cols = {"left_id": ids.take(ii), "right_id": ids.take(jj)}
    if carry_key:
        cols["left_key"] = keys.take(ii)
        cols["right_key"] = keys.take(jj)
    return pa.table(cols)


def sorted_neighborhood_pairs(ds: Dataset, key_col: str, id_col: str,
                              window: int = 5,
                              carry_key: bool = False) -> Dataset:
    """Sorted-Neighborhood Method blocking (Hernandez & Stolfo, SIGMOD'95):
    sort records by a blocking key, slide a ``window``-row window over the
    global sort order, emit every in-window candidate pair. The classic
    complement to LSH/token blocking when near-duplicates sort adjacently
    (names, addresses) — pair count is O(n * window), skew-proof by
    construction (a hot key contributes windowed pairs only, exactly the
    ``max_block_size`` fallback in ``make_pair_generator``).

    Dataflow: ONE range-shuffle sort on ``(key, id)`` (the id tie-break
    makes the total order — and therefore the pair set — deterministic
    under duplicate keys); then a map over the sorted blocks where each
    block receives the previous block's last ``window - 1`` rows through a
    chain of O(window)-row boundary tasks. Blocks stay in the object store
    end-to-end — the driver touches refs only.

    Output: (left_id, right_id), left earlier in sort order. left_id can
    exceed right_id when keys sort against id order — canonicalize
    downstream if the consumer needs (min, max) pairs.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    s = in_logical_order(ds.select_columns([id_col, key_col])
                         .sort([key_col, id_col]), Dataset.materialize)
    refs = s.to_arrow_refs()
    prev = None  # first block has no cross-block predecessors
    pair_refs = []
    for r in refs:
        pair_refs.append(_snm_window_pairs.remote(prev, r, window, id_col,
                                                  key_col, carry_key))
        prev = _snm_tail.remote(prev, r, window - 1)
    return ray.data.from_arrow_refs(pair_refs)


def dedup_pairs_fn():
    """Per-BUCKET exact pair dedup (vectorized pandas drop_duplicates);
    keep-first by lowest block_key — same keep-first semantics as the
    reference's run merge (/root/reference/utils/merge_results.py:14-20)."""

    def first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["left_id", "right_id", "block_key"], kind="mergesort") \
                .drop_duplicates(subset=["left_id", "right_id"], keep="first")

    return first
