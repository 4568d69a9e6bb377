"""Transitive clustering: distributed connected components over matched pairs.

The engine generalization of the reference's per-query dedup/merge logic
(SURVEY.md §2.7): matched pairs (score > theta) are edges; clusters are the
connected components; cluster_id = min node id in the component.

Algorithm: alternating large-star / small-star contraction (Kiveris et al.,
"Connected Components in MapReduce and Beyond" — see PAPERS.md), expressed
entirely as ``stages.shuffle.bucketed`` shuffles on ``u``: the Python
callback runs once per bucket on an Arrow table, and the per-node
min-neighbour is numpy over the bucket sorted by (u, v) (the first v of
each run of equal u). The canonical dedup and the root rows are bucketed
the same way. No joins, no per-node Python calls, O(log n) rounds,
nothing driver-side except an order-independent checksum per round for
fixpoint detection.

A driver union-find fast path handles provably-small edge sets (matched
pairs after thresholding are a small fraction of the input) in one pass.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from chameleon_entity_linking_ray.functions.hashing import mix64
from chameleon_entity_linking_ray.stages.fold import each
from chameleon_entity_linking_ray.stages.shuffle import bucketed

_M64 = (1 << 64) - 1


def _symmetric(edges: Dataset) -> Dataset:
    """(u,v) -> both directions."""

    def expand(batch: pa.Table) -> pa.Table:
        u, v = batch.column("u"), batch.column("v")
        return pa.table({"u": pa.chunked_array(u.chunks + v.chunks, u.type),
                         "v": pa.chunked_array(v.chunks + u.chunks, v.type)})

    return edges.map_batches(expand, batch_format="pyarrow")


def _edges(u: np.ndarray, v: np.ndarray) -> pa.Table:
    return pa.table({"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64())})


def _runs(g: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v) sorted by (u, v), and the start index of each run of equal u:
    ``v[starts]`` is the smallest neighbour of each u."""
    u = g.column("u").to_numpy(zero_copy_only=False)
    v = g.column("v").to_numpy(zero_copy_only=False)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    return u, v, np.flatnonzero(np.diff(u, prepend=u[:1] - 1))


def _large_star(g: pa.Table) -> pa.Table:
    """Per node u: connect each neighbour v > u to
    m = min(neighbours(u) + {u})."""
    u, v, starts = _runs(g)
    m = np.repeat(np.minimum(v[starts], u[starts]),
                  np.diff(np.r_[starts, len(u)]))
    keep = v > u
    return _edges(v[keep], m[keep])


def _small_star(g: pa.Table) -> pa.Table:
    """Per node u: connect its smaller neighbours, and u itself, to
    m = min(smaller neighbours)."""
    u, v, starts = _runs(g.filter(pc.less(g.column("v"), g.column("u"))))
    m = v[starts]
    out_u = np.concatenate([v, u[starts]])
    out_v = np.concatenate([np.repeat(m, np.diff(np.r_[starts, len(u)])), m])
    ok = out_u != out_v
    return _edges(out_u[ok], out_v[ok])


def _star_step(edges: Dataset, fn, num_buckets: int) -> Dataset:
    return bucketed(_symmetric(edges), ["u"], fn, num_buckets)


def _canon_dedup(edges: Dataset, num_buckets: int) -> Dataset:
    """Canonicalize to (u=min, v=max), drop self-loops, exact-dedup —
    bucketed by the pair, one Arrow ``group_by`` per bucket."""

    def canon(batch: pa.Table) -> pa.Table:
        u = batch.column("u")
        v = batch.column("v")
        t = pa.table({"u": pc.min_element_wise(u, v),
                      "v": pc.max_element_wise(u, v)})
        return t.filter(pc.not_equal(t.column("u"), t.column("v")))

    def dedup(g: pa.Table) -> pa.Table:
        return g.group_by(["u", "v"], use_threads=False).aggregate([])

    return bucketed(edges.map_batches(canon, batch_format="pyarrow"),
                    ["u", "v"], dedup, num_buckets)


def _checksum(edges: Dataset) -> tuple[int, int]:
    """Order-independent (sum mod 2^64) multiset checksum + count: one
    ``each`` task per block hashes its edges, the driver sums the pairs."""
    parts = ray.get(each(edges, _checksum_block))
    return sum(h for h, _ in parts) & _M64, sum(n for _, n in parts)


def _checksum_block(b: pa.Table) -> tuple[int, int]:
    u = b.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
    v = b.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
    h = mix64(u ^ mix64(v, seed=3), seed=5)
    return int(h.sum(dtype=np.uint64)), len(u)


def _unionfind_assignments(edges: Dataset) -> Dataset:
    """Driver CC over a provably-small edge set — fully VECTORIZED min-label
    propagation with pointer jumping (no per-edge Python loop; ~10 O(E)
    numpy rounds for 1M edges): avoids the per-round shuffles when the
    matched-pair set fits one process. cluster = min node in component
    (labels start as compact indices of the SORTED node array, so the
    minimum label is the minimum node id)."""
    import ray.data

    parts_u, parts_v = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for batch in edges.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        parts_u.append(batch.column("u").to_numpy(zero_copy_only=False))
        parts_v.append(batch.column("v").to_numpy(zero_copy_only=False))
    u = np.concatenate(parts_u)
    v = np.concatenate(parts_v)
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: len(u)], inv[len(u):]
    label = np.arange(len(nodes), dtype=np.int64)
    while True:
        # scatter the edge-wise min label to both endpoints
        mn = np.minimum(label[ui], label[vi])
        before = label.copy()
        np.minimum.at(label, ui, mn)
        np.minimum.at(label, vi, mn)
        # pointer jumping: collapse label chains to their roots
        while True:
            nxt = label[label]
            if np.array_equal(nxt, label):
                break
            label = nxt
        if np.array_equal(label, before):
            break
    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes, pa.int64()),
        "cluster": pa.array(nodes[label], pa.int64())}))


def connected_components(edges: Dataset, num_partitions: int = 32,
                         max_rounds: int = 50,
                         driver_threshold: int = 2_000_000,
                         checkpoint_dir: str | None = None,
                         checkpoint_token: str = "",
                         _fail_after_round: int | None = None
                         ) -> tuple[Dataset, dict]:
    """edges(u:int64, v:int64) -> (assignments(node:int64, cluster:int64), stats).

    ``assignments`` covers every node that appears in an edge; singleton
    nodes (no edges) are their own cluster — callers fill them at join-back
    time (see pipelines/linkage.py). cluster = min node id in the component.

    Two execution paths:
    - edge count <= ``driver_threshold``: single-pass union-find streamed on
      the driver.
    - larger: fully distributed alternating star loop — O(log n) rounds of
      bucketed groupby shuffles; nothing driver-side but a checksum.

    With ``checkpoint_dir`` set (star path only — the driver-UF path is a
    single pass), every star round's contracted edge set is a per-round
    Parquet checkpoint whose manifest entry carries the round counter and
    the round's multiset checksum (lineage + metrics); a re-run with the
    same ``checkpoint_token`` after a mid-loop kill resumes from the
    latest completed round without touching the input edge stream.
    ``_fail_after_round`` is the resume test's fault-injection hook."""
    mgr = None
    if checkpoint_dir is not None:
        from chameleon_entity_linking_ray.state.checkpoint import (
            CheckpointManager,
            fingerprint,
        )
        mgr = CheckpointManager(
            checkpoint_dir,
            fingerprint("cc-star", num_partitions, max_rounds,
                        driver_threshold, checkpoint_token))

    start_round = 1
    prev = None
    n_edges = -1
    edges_m = None
    if mgr is not None:
        done = sorted(int(s.rsplit("_", 1)[1])
                      for s in mgr.manifest["stages"]
                      if s.startswith("star_round_") and mgr.has(s))
        if done:
            latest = done[-1]
            ent = mgr.manifest["stages"][f"star_round_{latest:03d}"]
            edges_m = mgr.load(f"star_round_{latest:03d}").materialize()
            prev = tuple(ent["checksum"])
            n_edges = int(ent["input_edges"])
            start_round = latest + 1
        elif mgr.has("canon_init"):
            ent = mgr.manifest["stages"]["canon_init"]
            edges_m = mgr.load("canon_init").materialize()
            prev = tuple(ent["checksum"])
            n_edges = int(ent["input_edges"])

    if edges_m is None:
        n_edges = edges.count()
        if n_edges <= driver_threshold:
            return _unionfind_assignments(edges), {
                "cc_rounds": 0, "cc_mode": "unionfind", "cc_edges": n_edges,
                "cc_converged": True}

        # materialize() per round truncates the lazy lineage — without it
        # every checksum re-executes all previous rounds. The edge table is
        # the only pinned intermediate and shrinks toward one row per
        # non-root node.
        t0 = time.time()
        edges_m = _canon_dedup(edges, num_partitions).materialize()
        prev = _checksum(edges_m)
        if mgr is not None:
            edges_m = mgr.save(
                "canon_init", edges_m, upstream=["input_edges"], t_start=t0,
                extra={"checksum": [int(prev[0]), int(prev[1])],
                       "input_edges": int(n_edges)}).materialize()

    edges = edges_m
    rounds = start_round - 1
    converged = False
    for rounds in range(start_round, max_rounds + 1):
        t0 = time.time()
        e = _star_step(edges, _large_star, num_partitions)
        e = _star_step(e, _small_star, num_partitions)
        e = _canon_dedup(e, num_partitions).materialize()
        cur = _checksum(e)
        if mgr is not None:
            upstream = [f"star_round_{rounds - 1:03d}"] if rounds > 1 \
                else ["canon_init"]
            e = mgr.save(
                f"star_round_{rounds:03d}", e, upstream=upstream,
                t_start=t0,
                extra={"round": rounds,
                       "checksum": [int(cur[0]), int(cur[1])],
                       "input_edges": int(n_edges)}).materialize()
            if _fail_after_round is not None and rounds >= _fail_after_round:
                raise RuntimeError(
                    f"injected failure after star round {rounds}")
        edges = e
        if cur == prev:
            converged = True
            break
        prev = cur
    if not converged:
        # assignments extracted from a non-converged edge set can split a
        # component — surface it loudly instead of returning silently
        import warnings
        warnings.warn(
            f"connected_components hit max_rounds={max_rounds} without "
            "checksum fixpoint; assignments may split components "
            "(raise max_rounds)", RuntimeWarning)

    # converged: every canonical edge is (root=u, leaf=v).
    def leaf_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("v"), "cluster": batch.column("u")})

    def root_rows(g: pa.Table) -> pa.Table:
        roots = pc.unique(g.column("u"))
        return pa.table({"node": roots, "cluster": roots})

    leaves = edges.map_batches(leaf_rows, batch_format="pyarrow")
    roots = bucketed(edges, ["u"], root_rows, num_partitions)
    assignments = leaves.union(roots)
    return assignments, {"cc_rounds": rounds, "cc_mode": "star",
                         "cc_edges": n_edges, "cc_converged": converged}


def attach_assignments(ds: Dataset, assignments: Dataset, id_col: str,
                       num_partitions: int = 32) -> Dataset:
    """Attach CC cluster assignments to a row stream: ds + ``cluster_id``
    (component min-id; own id for singletons) + ``keep`` (is this row the
    component's canonical record).

    A ``left`` ``stages.joins.attach`` of the (node, cluster) table, so
    it is a map over ``ds`` while the table fits a broadcast and a
    bucketed shuffle of both sides above that (a 100 TB corpus with a high
    dup rate makes the assignment table proportional to the duplicated-row
    count); rows without an assignment keep their own id.
    """
    from chameleon_entity_linking_ray.stages.joins import attach

    def finalize(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch.column(id_col), pa.int64())
        cluster = pc.cast(pc.coalesce(batch.column("cluster"), ids),
                          pa.int64())
        out = batch.drop_columns(["cluster"]) \
            .append_column("cluster_id", cluster)
        return out.append_column("keep", pc.equal(cluster, ids))

    return attach(ds, assignments, id_col, right_on="node", how="left",
                  num_partitions=num_partitions) \
        .map_batches(finalize, batch_format="pyarrow")
