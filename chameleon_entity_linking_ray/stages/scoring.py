"""Pairwise scoring — a stateless task stage by default.

Reproduces the reference's retrieve-then-rerank semantics. ``PairScorer``
has the call shape of a model stage: a callable CLASS whose ``__init__``
does the setup (fetching the broadcast IDF tables from the object store)
and whose ``__call__`` scores an Arrow batch of candidate pairs. The
default flagship path runs it through ``score_batch`` as plain
``map_batches`` tasks, one scorer call per pair block; a scorer class
whose setup is expensive (``stages.model.ModelPairScorer``, the
model-load analog) runs as a fixed actor pool on
``scorer_batch_size``-row calls instead (``pipelines.linkage.score_pairs``).

The retrieve stage is blocking (``pipelines.linkage.generate_pairs``):
every candidate pair shares a block key, so the scorer reranks every pair
it is given (filter while candidates are generated, verify after).
Rerank (cross-encoder analog, the reference's CrossEncoder/model.py:36-62):
``text_score`` = IDF-weighted Monge-Elkan token alignment with
edit-distance token similarity (the classic soft-TFIDF record-linkage
scorer); ``entity_score`` = IDF-weighted hashed char-ngram cosine. Blended
``0.9*text + 0.1*entity`` exactly as the reference's BiEncoder/test.py:120.

Each call first finds its DISTINCT surfaces (one Arrow
``dictionary_encode`` over both text columns) and featurizes each once:
one ``hash64`` + IDF lookup over their tokens, one n-gram feature matrix,
and one batched edit-distance DP over the distinct token pairs of all its
pairs. The per-pair phase then runs in chunks of ``scorer_batch_size``
pairs: the Monge-Elkan ragged token-pair gathers and ``reduceat``s, and
the n-gram cosine gather by surface index, so a whole pair block scores
in one call with bounded memory (the dense n-gram gathers of an unchunked
300k-pair block grew RSS by over 1 GB). Every score is a function of its
pair alone, so neither the call layout, the chunking nor the path
changes a value. Swap in a real model by implementing the same protocol.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.functions.hashing import flat_ngram_hashes, hash64, mix64
from chameleon_entity_linking_ray.functions.minhash import cosine_rows
from chameleon_entity_linking_ray.stages.stats import IdfStats


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
    # float64 end-to-end: bit-equal to the scalar edit_similarity path
    # (which computes 1 - dist/max in float64)
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


def _ragged(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat positions ``starts[i] + arange(lens[i])``, concatenated."""
    return np.repeat(starts - _starts(lens), lens) + np.arange(int(lens.sum()))


def _starts(lens: np.ndarray) -> np.ndarray:
    """Start offset of each run in the concatenation of runs ``lens``."""
    return np.cumsum(lens) - lens


class PairScorer:
    def __init__(self, config: LinkageConfig | None = None, stats_ref=None):
        # runs once per pair block, or once per actor on the scorer_cls
        # path: fetch the broadcast IDF tables (model-load analog)
        self.c = config or LinkageConfig()
        self.stats: IdfStats | None = ray.get(stats_ref) if stats_ref is not None else None

    def _token_table(self, surfaces: list[str]):
        """Whitespace tokens of the distinct surfaces, flat: per-surface
        offsets, a token id per token, the distinct token strings and each
        token's IDF weight (one hash64 + one lookup over the distinct
        tokens)."""
        split = [s.split() for s in surfaces]
        offsets = np.zeros(len(split) + 1, np.int64)
        np.cumsum(np.fromiter(map(len, split), np.int64, len(split)), out=offsets[1:])
        enc = pa.array([t for ts in split for t in ts], pa.string()).dictionary_encode()
        tok_id = enc.indices.to_numpy().astype(np.int64)
        tokens = enc.dictionary.to_pylist()
        if self.stats is None:
            return offsets, tok_id, tokens, np.ones(tok_id.size, np.float64)
        w = self.stats.token_weights(hash64(tokens)).astype(np.float64)
        return offsets, tok_id, tokens, w[tok_id]

    def _monge_elkan(self, li: np.ndarray, ri: np.ndarray, surfaces: list[str],
                     chunk: int) -> np.ndarray:
        """Vectorized symmetrized Monge-Elkan over pairs of surface indices:
        every distinct token pair of the call is scored in ONE batched DP
        (``edit_similarity_batch``); the ragged token-pair gathers and the
        per-side max / weighted-mean ``reduceat``s run ``chunk`` pairs at a
        time."""
        out = np.zeros(len(li), np.float32)
        offsets, tok_id, tokens, w = self._token_table(surfaces)
        ntok = np.diff(offsets)
        live = np.flatnonzero((ntok[li] > 0) & (ntok[ri] > 0))
        parts = [live[s:s + chunk] for s in range(0, live.size, chunk)]
        V = len(tokens)

        def token_pairs(a: np.ndarray, b: np.ndarray):
            # a-major: each token of surface a[i] meets every token of b[i];
            # the pair key is order-free (edit similarity is symmetric)
            ta = _ragged(offsets[a], ntok[a])
            runs = np.repeat(ntok[b], ntok[a])
            x = tok_id[np.repeat(ta, runs)]
            y = tok_id[_ragged(np.repeat(offsets[b], ntok[a]), runs)]
            return ta, runs, np.minimum(x, y) * V + np.maximum(x, y), ntok[a]

        keys = np.unique(np.concatenate(
            [np.zeros(0, np.int64)]
            + [np.unique(token_pairs(li[p], ri[p])[2]) for p in parts]))
        sims = edit_similarity_batch([tokens[k] for k in keys // V],
                                     [tokens[k] for k in keys % V])
        # hash lookup key -> position in `keys` (built once per call)
        key_pos = pd.Index(keys).get_indexer

        def side(ta, runs, key, na) -> np.ndarray:
            # weighted mean over one side's tokens of their best match
            best = np.maximum.reduceat(sims[key_pos(key)], _starts(runs))
            num = np.add.reduceat(w[ta] * best, _starts(na))
            den = np.add.reduceat(w[ta], _starts(na))
            return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

        for p in parts:
            a, b = li[p], ri[p]
            out[p] = np.minimum(side(*token_pairs(a, b)),
                                side(*token_pairs(b, a))).astype(np.float32)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        c = self.c
        n = batch.num_rows
        chunk = c.scorer_batch_size
        # distinct surfaces of the call, keyed by text: every per-surface
        # feature is computed once, then gathered by surface index
        enc = pa.concat_arrays([batch.column("left_text").combine_chunks(),
                                batch.column("right_text").combine_chunks()]
                               ).dictionary_encode()
        surfaces = enc.dictionary.to_pylist()
        idx = enc.indices.to_numpy().astype(np.int64)
        li, ri = idx[:n], idx[n:]

        # --- rerank (cross-encoder analog): per-surface features once, the
        # per-pair gathers in chunks of `chunk` pairs (bounded memory) ---
        text_score = self._monge_elkan(li, ri, surfaces, chunk)
        feats = weighted_ngram_features(surfaces, c.feature_dim, c.shingle_k,
                                        c.minhash_seed, self.stats)
        entity_score = np.zeros(n, np.float32)
        for s in range(0, n, chunk):
            entity_score[s:s + chunk] = cosine_rows(feats[li[s:s + chunk]],
                                                    feats[ri[s:s + chunk]])

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


def score_batch(batch: pa.Table, config: LinkageConfig, stats_ref=None) -> pa.Table:
    """Task-stage form of ``PairScorer``: a fresh scorer per pair block."""
    return PairScorer(config, stats_ref)(batch)


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
