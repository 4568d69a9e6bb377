"""MinHash-LSH + token blocking, and the blocked-pair primitive.

The scalable replacement for the reference's candidate generation (BM25 run
file blocking, /root/reference/BiEncoder/test.py:63-79, and FAISS top-k,
/root/reference/BiEncoder/test_retrieval.py:43-76). Two complementary
stateless blockers run in one ``map_batches`` over the surface vocabulary
(``LshBander``):

- **LSH bands** over char-shingle MinHash — catch typo variants (high
  Jaccard, e.g. "wayne industries" ~ "wbyne industries");
- **token blocks** (one block per distinct token) — catch subset/
  abbreviation variants whose char Jaccard is low (e.g. "hooli" ~
  "hooli industries" share the token block "hooli").

``block_pairs`` turns any (id, block key) table into canonical candidate
pairs; the flagship and the corpus pair operators (MinHash, rare-shingle,
embedding-LSH and rare-token blocking) all run through it. Shuffle
design: grouping by the raw key would make millions of tiny groups and
pay a Python call per group. Instead rows go through
``stages.shuffle.bucketed`` on the key — every member of a block lands in
the same bucket, the callback runs once per BUCKET, and pair generation
inside is vectorized numpy over runs of equal keys (``_run_pairs``, no
per-block Python loop). A second ``bucketed`` stage, on the pair
``(left_id, right_id)``, removes the pairs found in several blocks and
keeps the lowest shared key.

Skew handling (SURVEY.md §4): blocks larger than ``max_block`` (hot
tokens — a tool name in every transcript) switch from all-pairs to
windowed pairing over the sorted members — each member pairs with its
next ``window`` neighbors, capping pairs at n*W instead of n^2/2. The
flagship sorts members by surface text, so near-identical surfaces sit
adjacent and stay paired; rare-token blocks and LSH bands provide the
high-recall candidates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import Dataset

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.functions.hashing import hash64, mix64
from chameleon_entity_linking_ray.functions.minhash import lsh_band_keys, minhash_signatures
from chameleon_entity_linking_ray.stages.order import in_logical_order
from chameleon_entity_linking_ray.stages.shuffle import bucketed


class LshBander:
    """map_batches over the vocab (int64 ``node``, ``norm``): one row per
    (surface, band) and per (surface, token), keyed by ``block_key``."""

    def __init__(self, config: LinkageConfig | None = None):
        self.c = config or LinkageConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        c = self.c
        texts = batch.column("norm").to_pylist()
        n = len(texts)
        sigs = minhash_signatures(texts, c.shingle_k, c.num_perm, c.minhash_seed)
        keys = lsh_band_keys(sigs, c.num_bands, c.minhash_seed)  # [n, bands] uint64
        bands = keys.shape[1]
        rep = np.repeat(np.arange(n, dtype=np.int64), bands)
        flat_keys = keys.reshape(-1)

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
            "node": batch.column("node").take(take),
            "norm": batch.column("norm").take(take),
            "block_key": pa.array(flat_keys.view(np.int64), pa.int64()),
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


def _same_as_prev(col) -> np.ndarray:
    """Per row of a sorted column: equal to the row before it."""
    n = len(col)
    if n < 2:
        return np.zeros(n, bool)
    eq = pc.equal(col.slice(1), col.slice(0, n - 1))
    return np.r_[False, eq.to_numpy(zero_copy_only=False)]


def _first_per_pair(t: pa.Table, key_col: str) -> pa.Table:
    """One row per (left_id, right_id): the one with the lowest key — the
    reference run merge's keep-first (/root/reference/utils/merge_results.py:14-20)."""
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("left_id", "ascending"), ("right_id", "ascending"),
        (key_col, "ascending")]))
    dup = _same_as_prev(t.column("left_id")) & _same_as_prev(t.column("right_id"))
    return t.filter(pa.array(~dup)) if dup.any() else t


def _bucket_pairs(t: pa.Table, id_col: str, key_col: str, window: int,
                  max_block: int, text_col: str | None) -> pa.Table:
    """All candidate pairs of one key bucket, deduped within the bucket."""
    order = [key_col] + ([text_col] if text_col else []) + [id_col]
    t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in order]))
    # distinct on (key, id): text_col is a per-id attribute, so repeats of
    # one (key, id) sit adjacent
    same_key = _same_as_prev(t.column(key_col))
    dup = same_key & _same_as_prev(t.column(id_col))
    if dup.any():
        t, same_key = t.filter(pa.array(~dup)), same_key[~dup]
    starts = np.flatnonzero(~same_key)
    li, ri = _run_pairs(np.diff(np.r_[starts, t.num_rows]), window, max_block)
    ids = t.column(id_col)
    idv = ids.to_numpy(zero_copy_only=False)
    flip = idv[li] > idv[ri]
    lo, hi = np.where(flip, ri, li), np.where(flip, li, ri)
    cols = {"left_id": ids.take(lo), "right_id": ids.take(hi)}
    if text_col:
        text = t.column(text_col)
        cols[f"left_{text_col}"] = text.take(lo)
        cols[f"right_{text_col}"] = text.take(hi)
    cols[key_col] = t.column(key_col).take(li)
    return _first_per_pair(pa.table(cols), key_col)


def block_pairs(rows: Dataset, id_col: str, key_col: str, window: int,
                max_block: int, text_col: str | None = None,
                num_buckets: int = 64) -> Dataset:
    """Candidate pairs of ``rows`` that share a ``key_col`` value.

    Every distinct (key, id) row joins its key's block; a block of up to
    ``max_block`` members pairs all its members, a larger one pairs each
    member with its next ``window`` members in (``text_col``, id) order.
    ``id_col`` holds integers; ``text_col`` is a per-id attribute. Output:
    one row per distinct pair, ``left_id < right_id``, with
    ``left_/right_<text_col>`` when ``text_col`` is given and the lowest
    ``key_col`` the two share. A Dataset with no pairs has no schema: Ray
    calls no ``map_groups`` UDF on an empty shuffle partition.

    Dataflow: one ``bucketed`` stage on ``key_col`` pairs each key
    bucket; a second one, on ``(left_id, right_id)``, dedups the pairs
    found in several blocks."""

    def pairs(g: pa.Table) -> pa.Table:
        return _bucket_pairs(g, id_col, key_col, window, max_block, text_col)

    def dedup(g: pa.Table) -> pa.Table:
        return _first_per_pair(g, key_col)

    return bucketed(bucketed(rows, [key_col], pairs, num_buckets),
                    ["left_id", "right_id"], dedup, num_buckets)


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
    ``max_block`` fallback of ``block_pairs``).

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

