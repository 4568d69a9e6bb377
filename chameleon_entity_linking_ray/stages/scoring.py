"""Pairwise scoring — a stateless task stage by default.

Reproduces the reference's retrieve-then-rerank semantics. ``PairScorer``
has the call shape of a model stage: a callable CLASS whose ``__init__``
does the setup (fetching the broadcast IDF tables from the object store)
and whose ``__call__`` scores an Arrow batch of candidate pairs. The
default flagship path runs it through ``score_batch`` as plain
``map_batches`` tasks, one scorer per batch; a scorer class whose setup
is expensive (``stages.model.ModelPairScorer``, the model-load analog)
runs as a fixed actor pool instead (``pipelines.linkage.score_pairs``).

Stage anatomy, mirroring the reference:
- **retrieve prefilter** (bi-encoder analog, /root/reference/BiEncoder/
  model.py:68-166): MinHash-estimated Jaccard — pairs below ``prefilter``
  skip the expensive path entirely.
- **rerank** (cross-encoder analog, /root/reference/CrossEncoder/
  model.py:36-62): ``text_score`` = IDF-weighted Monge-Elkan token
  alignment with edit-distance token similarity (the classic soft-TFIDF
  record-linkage scorer); ``entity_score`` = IDF-weighted hashed char-ngram
  cosine. Blended ``0.9*text + 0.1*entity`` exactly as
  /root/reference/BiEncoder/test.py:120.

Because scoring runs over DISTINCT surface pairs (see stages/vocab.py) the
per-pair token alignment cost is paid once per unique string pair; within
a batch (or across an actor's batches) the scorer also memoizes token-pair
similarities and per-surface token decompositions. Every score is per
pair and the memos are bit-equal to a fresh computation, so neither the
batch layout nor the path changes a value. Swap in a real model by
implementing the same protocol.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.functions.hashing import flat_ngram_hashes, hash64, mix64
from chameleon_entity_linking_ray.functions.minhash import (
    cosine_rows,
    estimate_jaccard,
    minhash_signatures,
)
from chameleon_entity_linking_ray.stages.stats import IdfStats

PREFILTER_DEFAULT = 0.03


def edit_similarity(a: str, b: str) -> float:
    """Normalized Levenshtein similarity with prefix/abbreviation boost:
    "ind" ~ "industries" -> 0.92 (abbreviation), "wbyne" ~ "wayne" -> 0.8."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if a.startswith(b) or b.startswith(a):
        return 0.92 if min(la, lb) >= 3 else 0.7
    if abs(la - lb) > 3:
        return 0.0
    prev = list(range(lb + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * lb
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return max(0.0, 1.0 - prev[lb] / max(la, lb))


def levenshtein_batch(A: list[str], B: list[str]) -> np.ndarray:
    """Raw batched Levenshtein distances (int64) over UTF-32 codepoint
    matrices: the j-loop is sequential (cur[j-1] dependency) but every
    cell op is vectorized over ALL pairs — O(maxLa*maxLb) numpy steps
    instead of per-pair Python. Handles empty strings (dist = other
    length)."""
    n = len(A)
    if n == 0:
        return np.empty(0, np.int64)
    la = np.fromiter(map(len, A), np.int64, n)
    lb = np.fromiter(map(len, B), np.int64, n)
    La, Lb = int(la.max()), int(lb.max())
    if La == 0 or Lb == 0:
        return (la + lb).astype(np.int64)
    # distinct pad sentinels so padding never matches
    arr_a = np.frombuffer("".join(a.ljust(La, "\0") for a in A)
                          .encode("utf-32-le"), np.uint32).reshape(n, La)
    arr_b = np.frombuffer("".join(b.ljust(Lb, "\1") for b in B)
                          .encode("utf-32-le"), np.uint32).reshape(n, Lb)
    prev = np.tile(np.arange(Lb + 1, dtype=np.int32), (n, 1))
    cur = np.empty_like(prev)
    dist = lb.astype(np.int32)  # rows with la == 0 never hit `done`
    for i in range(1, La + 1):
        cur[:, 0] = i
        ca = arr_a[:, i - 1]
        for j in range(1, Lb + 1):
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + (ca != arr_b[:, j - 1]))
        done = la == i
        if done.any():
            dist[done] = cur[done, lb[done]]
        prev, cur = cur, prev
    return dist.astype(np.int64)


def _dp_batch(A: list[str], B: list[str]) -> np.ndarray:
    n = len(A)
    la = np.fromiter(map(len, A), np.int64, n)
    lb = np.fromiter(map(len, B), np.int64, n)
    dist = levenshtein_batch(A, B)
    # float64 end-to-end: cached values must be bit-equal to the scalar
    # edit_similarity path (which computes 1 - dist/max in float64), so the
    # memo cache yields identical scores no matter which path populated it
    sim = 1.0 - dist / np.maximum(la, lb)
    return np.maximum(0.0, sim)


def edit_similarity_batch(A: list[str], B: list[str]) -> np.ndarray:
    """Vectorized ``edit_similarity`` over aligned string lists: the
    equal / prefix / length-gap fast paths are numpy masks; only the
    remainder runs the batched DP. Bit-equal to the scalar function."""
    n = len(A)
    out = np.zeros(n, np.float64)
    if n == 0:
        return out
    la = np.fromiter(map(len, A), np.int64, n)
    lb = np.fromiter(map(len, B), np.int64, n)
    eq = np.fromiter((a == b for a, b in zip(A, B)), bool, n)
    pre = np.fromiter((a.startswith(b) or b.startswith(a)
                       for a, b in zip(A, B)), bool, n) & ~eq
    out[eq] = 1.0
    out[pre] = np.where(np.minimum(la, lb)[pre] >= 3, 0.92, 0.7)
    rest = np.flatnonzero(~eq & ~pre & (np.abs(la - lb) <= 3))
    if rest.size:
        out[rest] = _dp_batch([A[i] for i in rest], [B[i] for i in rest])
    return out


def weighted_ngram_features(texts: list[str], dim: int, k: int, seed: int,
                            stats: IdfStats | None) -> np.ndarray:
    """L2-normalized hashed char-ngram vectors, IDF-weighted when stats given."""
    flat, offsets = flat_ngram_hashes(texts, k)
    n = len(offsets) - 1
    mat = np.zeros((n, dim), dtype=np.float32)
    if flat.size:
        cols = (mix64(flat, seed=seed) % np.uint64(dim)).astype(np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        w = stats.ngram_weights(flat) if stats is not None else np.ones(flat.size, np.float32)
        np.add.at(mat, (rows, cols), w)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    np.divide(mat, norms, out=mat, where=norms > 0)
    return mat


class PairScorer:
    def __init__(self, config: LinkageConfig | None = None,
                 stats_ref=None, prefilter: float = PREFILTER_DEFAULT):
        # runs once per task batch, or once per actor on the scorer_cls
        # path: fetch the broadcast IDF tables (model-load analog)
        self.c = config or LinkageConfig()
        self.stats: IdfStats | None = ray.get(stats_ref) if stats_ref is not None else None
        self.prefilter = prefilter
        # text -> (tokens, token hash64s, IDF weights)
        self._tok_cache: dict[str, tuple[list[str], np.ndarray, np.ndarray]] = {}
        self._sim_cache: dict[tuple[str, str], float] = {}
        # memo caches are bounded: an actor lives for the whole stage, and
        # at 1e12-scale vocabularies unbounded memos are an OOM; reset-on-cap
        # keeps amortization within a working set without LRU bookkeeping
        self._cache_cap = 2_000_000

    def _tokens(self, text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
        hit = self._tok_cache.get(text)
        if hit is None:
            if len(self._tok_cache) >= self._cache_cap:
                self._tok_cache.clear()
            toks = text.split()
            th = hash64(toks)
            if self.stats is not None and toks:
                w = self.stats.token_weights(th).astype(np.float64)
            else:
                w = np.ones(len(toks), dtype=np.float64)
            hit = (toks, th, w)
            self._tok_cache[text] = hit
        return hit

    def _batch_monge_elkan(self, lefts: list[str], rights: list[str]) -> np.ndarray:
        """Vectorized symmetrized Monge-Elkan over a batch of pairs: token
        decompositions come from the scorer's cache, missing token-pair
        similarities are computed in ONE batched DP
        (``edit_similarity_batch``), and the per-side max/weighted-mean
        arithmetic is segment ``reduceat`` — no per-pair Python beyond the
        cache probes."""
        n = len(lefts)
        out = np.zeros(n, np.float32)
        lt = [self._tokens(t) for t in lefts]
        rt = [self._tokens(t) for t in rights]
        nl_all = np.fromiter((len(t[0]) for t in lt), np.int64, n)
        nr_all = np.fromiter((len(t[0]) for t in rt), np.int64, n)
        live = np.flatnonzero((nl_all > 0) & (nr_all > 0))
        if live.size == 0:
            return out
        nl = nl_all[live]
        nr = nr_all[live]
        cnt = nl * nr
        total = int(cnt.sum())
        off = np.zeros(len(live), np.int64)
        np.cumsum(cnt[:-1], out=off[1:])

        # flat (ai-major) token-pair similarity array, cache-resolved
        flat = [(a, b) for i in live for a in lt[i][0] for b in rt[i][0]]
        sims = np.empty(total, np.float64)
        cache = self._sim_cache
        miss_pos: list[int] = []
        miss_keys: list[tuple[str, str]] = []
        for idx, (a, b) in enumerate(flat):
            key = (a, b) if a < b else (b, a)
            v = cache.get(key)
            if v is None:
                miss_pos.append(idx)
                miss_keys.append(key)
            else:
                sims[idx] = v
        if miss_pos:
            uniq = list(dict.fromkeys(miss_keys))
            vals = edit_similarity_batch([k[0] for k in uniq],
                                         [k[1] for k in uniq])
            if len(cache) + len(uniq) >= self._cache_cap:
                cache.clear()
            for k, v in zip(uniq, vals):
                cache[k] = float(v)
            for pos, key in zip(miss_pos, miss_keys):
                sims[pos] = cache[key]

        wl = np.concatenate([lt[i][2] for i in live])
        wr = np.concatenate([rt[i][2] for i in live])
        tok_starts_l = np.zeros(len(live), np.int64)
        np.cumsum(nl[:-1], out=tok_starts_l[1:])
        tok_starts_r = np.zeros(len(live), np.int64)
        np.cumsum(nr[:-1], out=tok_starts_r[1:])

        # direction 1: max over right tokens per (pair, left-token)
        run1 = np.repeat(nr, nl)  # one run of nr[i] per left token
        starts1 = np.zeros(len(run1), np.int64)
        np.cumsum(run1[:-1], out=starts1[1:])
        max1 = np.maximum.reduceat(sims, starts1)
        num1 = np.add.reduceat(wl * max1, tok_starts_l)
        den1 = np.add.reduceat(wl, tok_starts_l)
        side1 = np.divide(num1, den1, out=np.zeros_like(num1), where=den1 > 0)

        # direction 2: transpose each pair's local (ai, bj) matrix
        nl_rep = np.repeat(nl, cnt)
        nr_rep = np.repeat(nr, cnt)
        off_rep = np.repeat(off, cnt)
        within2 = np.arange(total, dtype=np.int64) - off_rep
        perm = off_rep + (within2 % nl_rep) * nr_rep + within2 // nl_rep
        sims_t = sims[perm]
        run2 = np.repeat(nl, nr)
        starts2 = np.zeros(len(run2), np.int64)
        np.cumsum(run2[:-1], out=starts2[1:])
        max2 = np.maximum.reduceat(sims_t, starts2)
        num2 = np.add.reduceat(wr * max2, tok_starts_r)
        den2 = np.add.reduceat(wr, tok_starts_r)
        side2 = np.divide(num2, den2, out=np.zeros_like(num2), where=den2 > 0)

        out[live] = np.minimum(side1, side2).astype(np.float32)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        c = self.c
        left = batch.column("left_text").to_pylist()
        right = batch.column("right_text").to_pylist()
        n = len(left)
        if n == 0:
            empty = pa.array([], pa.float32())
            return (batch.append_column("text_score", empty)
                    .append_column("entity_score", empty)
                    .append_column("score", empty))

        # --- retrieve prefilter (bi-encoder analog) ---
        sig_l = minhash_signatures(left, c.shingle_k, c.num_perm, c.minhash_seed)
        sig_r = minhash_signatures(right, c.shingle_k, c.num_perm, c.minhash_seed)
        jac = estimate_jaccard(sig_l, sig_r)
        # token-block pairs share a whole token: always worth reranking.
        # Vectorized via token hash64s (cached per surface): concatenate
        # (pair, hash, side) rows, one lexsort, and any equal (pair, hash)
        # run containing both sides has an adjacent left->right boundary.
        lh = [self._tokens(t)[1] for t in left]
        rh = [self._tokens(t)[1] for t in right]
        nl = np.fromiter(map(len, lh), np.int64, n)
        nr = np.fromiter(map(len, rh), np.int64, n)
        pid = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), nl),
                              np.repeat(np.arange(n, dtype=np.int64), nr)])
        hsh = np.concatenate(lh + rh) if pid.size else np.empty(0, np.uint64)
        side = np.concatenate([np.zeros(int(nl.sum()), np.int8),
                               np.ones(int(nr.sum()), np.int8)])
        shares_token = np.zeros(n, dtype=bool)
        if pid.size > 1:
            o = np.lexsort((side, hsh, pid))
            pid, hsh, side = pid[o], hsh[o], side[o]
            hit = (pid[1:] == pid[:-1]) & (hsh[1:] == hsh[:-1]) & \
                (side[1:] > side[:-1])
            shares_token[pid[:-1][hit]] = True
        survivors = np.flatnonzero((jac >= self.prefilter) | shares_token)

        text_score = np.zeros(n, dtype=np.float32)
        entity_score = np.zeros(n, dtype=np.float32)
        if survivors.size:
            sl = [left[i] for i in survivors]
            sr = [right[i] for i in survivors]
            # --- rerank (cross-encoder analog), batch-vectorized ---
            text_score[survivors] = self._batch_monge_elkan(sl, sr)
            fl = weighted_ngram_features(sl, c.feature_dim, c.shingle_k,
                                         c.minhash_seed, self.stats)
            fr = weighted_ngram_features(sr, c.feature_dim, c.shingle_k,
                                         c.minhash_seed, self.stats)
            entity_score[survivors] = cosine_rows(fl, fr)

        if c.score_mode == "dual_mean":
            # Fully dual-tower variant: unweighted mean of the two tower
            # scores (/root/reference/Fully/model.py:65-68)
            score = ((text_score + entity_score) / 2).astype(np.float32)
        else:
            score = (c.text_weight * text_score +
                     c.entity_weight * entity_score).astype(np.float32)
        return (batch
                .append_column("text_score", pa.array(text_score, pa.float32()))
                .append_column("entity_score", pa.array(entity_score, pa.float32()))
                .append_column("score", pa.array(score, pa.float32())))


def score_batch(batch: pa.Table, config: LinkageConfig, stats_ref=None,
                scorer_kwargs: dict | None = None) -> pa.Table:
    """Task-stage form of ``PairScorer``: a fresh scorer per batch."""
    return PairScorer(config, stats_ref, **(scorer_kwargs or {}))(batch)


def damerau_levenshtein_batch(A: list[str], B: list[str]) -> np.ndarray:
    """Batched UNRESTRICTED Damerau-Levenshtein (Lowrance-Wagner: true
    transpositions, e.g. dl("ca","abc") = 2 where OSA gives 3) — the
    same all-pairs-vectorized DP discipline as ``levenshtein_batch``:
    the (i, j) loops are sequential but every cell op runs over ALL
    pairs at once. The transposition term d[k-1][l-1] needs random
    access into earlier rows, so the full (La+2, Lb+2, n) tensor is
    kept; per-pair last-seen-row state ``da`` is an (n, vocab) matrix
    over the batch's codepoint vocabulary. Matches DuckDB's
    ``damerau_levenshtein`` (fuzz-pinned).
    """
    n = len(A)
    if n == 0:
        return np.empty(0, np.int64)
    la = np.fromiter(map(len, A), np.int64, n)
    lb = np.fromiter(map(len, B), np.int64, n)
    La, Lb = int(la.max()), int(lb.max())
    if La == 0 or Lb == 0:
        return (la + lb).astype(np.int64)
    arr_a = np.frombuffer("".join(a.ljust(La, "\0") for a in A)
                          .encode("utf-32-le"), np.uint32).reshape(n, La)
    arr_b = np.frombuffer("".join(b.ljust(Lb, "\1") for b in B)
                          .encode("utf-32-le"), np.uint32).reshape(n, Lb)
    # batch codepoint vocabulary -> small ids for the da state matrix
    vocab, inv = np.unique(np.concatenate([arr_a.ravel(), arr_b.ravel()]),
                           return_inverse=True)
    aidx = inv[:n * La].reshape(n, La)
    bidx = inv[n * La:].reshape(n, Lb)
    V = len(vocab)

    INF = np.int32(La + Lb + 1)
    D = np.full((La + 2, Lb + 2, n), INF, np.int32)
    D[1, 1:, :] = np.arange(Lb + 1, dtype=np.int32)[:, None]
    D[1:, 1, :] = np.arange(La + 1, dtype=np.int32)[:, None]
    da = np.zeros((n, V), np.int32)
    rows = np.arange(n)
    active_rows = la.astype(np.int32)
    for i in range(1, La + 1):
        db = np.zeros(n, np.int32)
        ca = arr_a[:, i - 1]
        for j in range(1, Lb + 1):
            k = da[rows, bidx[:, j - 1]]          # last row of b[j] in a
            l = db                                 # last matching col
            match = ca == arr_b[:, j - 1]
            cost = (~match).astype(np.int32)
            trans = (D[k, l, rows] + (i - k - 1) + 1
                     + (j - l - 1)).astype(np.int32)
            val = np.minimum(
                np.minimum(D[i, j] + cost, D[i + 1, j] + 1),
                np.minimum(D[i, j + 1] + 1, trans))
            D[i + 1, j + 1] = val
            db = np.where(match, np.int32(j), db)
        # padding rows must not update last-seen state
        upd = i <= active_rows
        da[rows[upd], aidx[upd, i - 1]] = i
    return D[la + 1, lb + 1, rows].astype(np.int64)


def jaro_winkler_batch(A: list[str], B: list[str], p: float = 0.1,
                       boost_threshold: float = 0.7) -> np.ndarray:
    """Batched Jaro-Winkler similarity, BIT-EQUAL to DuckDB's
    ``jaro_winkler_similarity`` (50k-pair fuzz-pinned): Winkler prefix
    boost only when jaro > ``boost_threshold``; empty strings score 0;
    float op order mirrored exactly ((m/la + m/lb + (m-t)/m) / 3, then
    sim + (l*p)*(1-sim)) so no rounding is needed anywhere downstream.

    Vectorization: the greedy window matching loops over (i, window
    offset) — sequential by the algorithm's first-unmatched-wins rule —
    but every step is an O(n)-pairs mask op; transpositions come from a
    stable-argsort row compaction of the matched flags, never a per-pair
    Python pass.
    """
    n = len(A)
    if n == 0:
        return np.empty(0, np.float64)
    la = np.fromiter(map(len, A), np.int64, n)
    lb = np.fromiter(map(len, B), np.int64, n)
    La, Lb = int(la.max()) if n else 0, int(lb.max()) if n else 0
    out = np.zeros(n, np.float64)
    if La == 0 or Lb == 0:
        return out  # any empty side scores 0 (DuckDB convention)
    arr_a = np.frombuffer("".join(a.ljust(La, "\0") for a in A)
                          .encode("utf-32-le"), np.uint32).reshape(n, La)
    arr_b = np.frombuffer("".join(b.ljust(Lb, "\1") for b in B)
                          .encode("utf-32-le"), np.uint32).reshape(n, Lb)
    w = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    W = int(w.max())
    am = np.zeros((n, La), bool)
    bm = np.zeros((n, Lb), bool)
    cols = np.arange(n)
    for i in range(La):
        done = i >= la  # rows whose a is exhausted never match here
        ca = arr_a[:, i]
        for dj in range(-W, W + 1):  # ascending j preserves greedy order
            j = i + dj
            if j < 0 or j >= Lb:
                continue
            ok = (~done & (np.abs(dj) <= w) & (j < lb)
                  & ~bm[:, j] & (ca == arr_b[:, j]))
            if ok.any():
                bm[ok, j] = True
                am[ok, i] = True
                done = done | ok
    m = am.sum(axis=1).astype(np.int64)
    # row-wise compaction: matched chars in original order on both sides
    oa = np.argsort(~am, axis=1, kind="stable")
    ob = np.argsort(~bm, axis=1, kind="stable")
    Mx = int(m.max()) if m.max() > 0 else 0
    if Mx > 0:
        ca = np.take_along_axis(arr_a, oa[:, :Mx], axis=1)
        cb = np.take_along_axis(arr_b, ob[:, :Mx], axis=1)
        pos = np.arange(Mx)[None, :]
        t = ((ca != cb) & (pos < m[:, None])).sum(axis=1) // 2
    else:
        t = np.zeros(n, np.int64)
    nz = m > 0
    mf, laf, lbf = m.astype(np.float64), la.astype(np.float64), \
        lb.astype(np.float64)
    sim = np.zeros(n, np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        sim_nz = (mf / laf + mf / lbf + (mf - t) / mf) / 3.0
    sim[nz] = sim_nz[nz]
    # winkler prefix (<= 4), only above the boost threshold
    k4 = min(4, La, Lb)
    if k4 > 0:
        eq4 = arr_a[:, :k4] == arr_b[:, :k4]
        l = np.cumprod(eq4, axis=1).sum(axis=1).astype(np.float64)
    else:
        l = np.zeros(n, np.float64)
    boost = sim > boost_threshold
    out = np.where(boost, sim + (l * p) * (1.0 - sim), sim)
    return out
