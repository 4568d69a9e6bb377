"""Graph expansion: k-hop BFS / DFS-order expansion and personalized
PageRank over an edge Dataset — the engine form of the reference's entity
expander (/root/reference/utils/entity_expander.py): its pickled adjacency
dict + scipy CSR PageRank (:24-77, :122-126) become per-round Dataset joins.

DISTRIBUTED BY CONSTRUCTION (round-2 rework): the frontier, visited set,
degree table and rank vector are all ``ray.data.Dataset``s; each round is a
``stages.joins.attach`` semi/anti join or a join-aggregate, and the driver
holds nothing but per-round scalars (counts, the dangling mass, the
convergence delta). ``attach`` broadcasts a key table of up to
``joins.BROADCAST_ROWS`` rows (sorted key arrays, binary-searched per
batch) and shuffles both sides above that, so a 100 TB graph never
funnels a node table through the driver.

Edge tables are ``(src:int64, dst:int64)``; like the reference, expansion
follows REVERSED edges having been built that way upstream
(entity_expander.py:31-35 appends src to linked_pages[dst]).
"""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import Dataset

from chameleon_entity_linking_ray.functions.hashing import mix64
from chameleon_entity_linking_ray.stages.agg import distinct, grouped_agg
from chameleon_entity_linking_ray.stages.fold import each, fold
from chameleon_entity_linking_ray.stages import joins
from chameleon_entity_linking_ray.stages.joins import attach, hash_join
from chameleon_entity_linking_ray.stages.shuffle import bucketed


def _normalize_blocks(ds: Dataset, min_rows_per_block: int = 65536) -> Dataset:
    """Coalesce pathologically tiny blocks (e.g. ``from_items`` emits one
    block PER ROW) so iterative loops don't pay per-block task overhead
    times the round count. Large inputs with sane blocks pass through
    untouched — this never reduces real parallelism."""
    ds = ds.materialize()
    n_blocks = ds.num_blocks()
    rows = ds.count()
    target = max(1, min(n_blocks, rows // min_rows_per_block + 1))
    if n_blocks > 4 * target:
        ds = ds.repartition(target).materialize()
    return ds


def _nodes_table(nodes: list[int], hop: int | None = None) -> Dataset:
    arr = pa.array([int(n) for n in dict.fromkeys(nodes)], pa.int64())
    cols = {"node": arr}
    if hop is not None:
        cols["hop"] = pa.array(np.full(len(arr), hop, np.int64), pa.int64())
    return ray.data.from_arrow(pa.table(cols))


def bfs_expand(edges: Dataset, seeds: list[int], k: int = 2,
               num_buckets: int = 16) -> Dataset:
    """All nodes within k hops of the seed set, with hop distance.

    One round per hop, everything a Dataset op (reference BFS semantics,
    /root/reference/utils/entity_expander.py:93-103):

      successors   = edges ⋉ frontier on src       (``attach`` semi)
      new frontier = distinct(successors.dst) ▷ visited   (``attach`` anti)
      visited     += new frontier @ hop

    The driver sees only the per-round frontier COUNT. Returns
    (node:int64, hop:int64)."""
    edges = _normalize_blocks(edges)
    frontier = _nodes_table(seeds).materialize()
    visited = _nodes_table(seeds, hop=0).materialize()
    for hop in range(1, k + 1):
        n_frontier = frontier.count()  # driver scalar only
        if n_frontier == 0:
            break
        succ = attach(edges, frontier, "src", right_on="node", how="semi",
                      num_partitions=num_buckets)
        cand = distinct(
            succ.map_batches(lambda b: pa.table({"node": b.column("dst")}),
                             batch_format="pyarrow"),
            ["node"], num_buckets=num_buckets)
        frontier = attach(cand, visited, "node", how="anti",
                          num_partitions=num_buckets).materialize()

        def with_hop(batch: pa.Table, h=hop) -> pa.Table:
            return pa.table({"node": batch.column("node"),
                             "hop": pa.array(np.full(batch.num_rows, h,
                                                     np.int64), pa.int64())})

        visited = visited.union(
            frontier.map_batches(with_hop, batch_format="pyarrow")).materialize()
    return visited


def _lookup(at: pa.ChunkedArray, keys: pa.ChunkedArray,
            vals: pa.ChunkedArray) -> np.ndarray:
    """The ``vals`` entry of each of ``at`` in the unique ``keys``, 0
    where ``keys`` lacks it."""
    idx = pc.index_in(at, value_set=keys.combine_chunks())
    return pc.fill_null(pc.take(vals, idx), 0).to_numpy()


def personalized_pagerank(edges: Dataset, seeds: list[int], alpha: float = 0.85,
                          iters: int = 20, num_buckets: int = 16,
                          tol: float = 1e-12) -> Dataset:
    """Distributed power iteration — rank lives in a Dataset, never on the
    driver (reference semantics: pagerank_power with a personalize vector,
    /root/reference/utils/entity_expander.py:122-126).

    Per round, exactly THREE ``bucketed`` shuffles and one materialize
    barrier (the joins are lean schema-pinned union+shuffle forms, not the
    general ``hash_join`` — no per-call materialize, no schema probes):

      1. edges ∪ shares on src:   share lookup + per-bucket partial Σ per
         dst   (the combiner)
      2. partials on dst:         contrib = Σ c
      3. ranks ∪ contrib on node: rank' = α·(contrib + dangling·restart)
         + (1-α)·restart

    The driver holds per-round SCALARS only (dangling mass, L1 delta),
    summed from one ``each`` task per rank block. Returns
    (node:int64, rank:float64)."""
    edges = _normalize_blocks(edges)
    seed_set = sorted({int(s) for s in seeds})
    n_seeds = max(1, len(seed_set))
    seed_ref = ray.put(pa.array(seed_set, pa.int64()))

    # --- static tables, built once ---------------------------------------
    def edge_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch.column("src").cast(pa.int64()),
            "dst": batch.column("dst").cast(pa.int64()),
            "share": pa.nulls(batch.num_rows, pa.float64()),
        })

    edges_t = edges.map_batches(edge_rows, batch_format="pyarrow").materialize()

    def both_ends(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [batch.column("src").cast(pa.int64()).combine_chunks(),
             batch.column("dst").cast(pa.int64()).combine_chunks()])})

    nodes = distinct(edges.map_batches(both_ends, batch_format="pyarrow"),
                     ["node"], num_buckets=num_buckets)
    degree = grouped_agg(
        edges.map_batches(
            lambda b: pa.table({"node": b.column("src").cast(pa.int64())}),
            batch_format="pyarrow"),
        keys=["node"], aggs={"deg": (None, "count")}, num_buckets=num_buckets)
    nd = attach(nodes, degree, "node", how="left",
                num_partitions=num_buckets)

    def init_rank(batch: pa.Table) -> pa.Table:
        seeds_arr = ray.get(seed_ref)
        node = batch.column("node")
        is_seed = pc.is_in(node, value_set=seeds_arr)
        restart = pc.if_else(is_seed, pa.scalar(1.0 / n_seeds), pa.scalar(0.0))
        deg = pc.cast(pc.fill_null(batch.column("deg"), 0), pa.int64())
        return pa.table({"node": node, "deg": deg, "restart": restart,
                         "rank": restart, "prev": restart,
                         "c": pa.nulls(batch.num_rows, pa.float64())})

    ranks = nd.map_batches(init_rank, batch_format="pyarrow").materialize()
    # pin the per-round block count: every groupby's output block count
    # tracks its input's, and the union feeds both edge and rank blocks in,
    # so unchecked the rank table's block count grows round over round
    # (measured superlinear slowdown). One bounded repartition per round
    # keeps the loop O(rounds).
    rank_blocks = max(1, min(num_buckets, ranks.count() // 65536 + 1))
    ranks = ranks.repartition(rank_blocks).materialize()

    def _sums(ds: Dataset) -> tuple[float, float]:
        """(dangling mass, L1 delta): one ``each`` partial per block of the
        materialized ``ds``, summed on the driver."""
        def partial(b: pa.Table) -> tuple[float, float]:
            deg = b.column("deg").to_numpy(zero_copy_only=False)
            rank = b.column("rank").to_numpy(zero_copy_only=False)
            prev = b.column("prev").to_numpy(zero_copy_only=False)
            return (float(rank[deg == 0].sum()),
                    float(np.abs(rank - prev).sum()))
        parts = ray.get(each(ds, partial))
        return (float(sum(d for d, _ in parts)),
                float(sum(e for _, e in parts)))

    dangling, _ = _sums(ranks)

    def dst_sums(dst: np.ndarray, c: np.ndarray) -> pa.Table:
        du, inv = np.unique(dst, return_inverse=True)
        sums = np.bincount(inv, weights=c, minlength=len(du))
        return pa.table({"dst": du, "c": pa.array(sums, pa.float64())})

    for _ in range(iters):
        # 1. share lookup per src bucket + per-bucket partial sums per dst
        def share_rows(batch: pa.Table) -> pa.Table:
            deg = batch.column("deg").to_numpy(zero_copy_only=False)
            rank = batch.column("rank").to_numpy(zero_copy_only=False)
            share = np.divide(rank, deg, out=np.zeros_like(rank), where=deg > 0)
            return pa.table({"k": batch.column("node"),
                             "dst": pa.nulls(batch.num_rows, pa.int64()),
                             "share": pa.array(share, pa.float64())})

        def contrib_partial(g: pa.Table) -> pa.Table:
            is_share = pc.is_null(g["dst"])
            sh, ed = g.filter(is_share), g.filter(pc.invert(is_share))
            return dst_sums(ed["dst"].to_numpy(),
                            _lookup(ed["k"], sh["k"], sh["share"]))

        partials = bucketed(edges_t.union(
            ranks.map_batches(share_rows, batch_format="pyarrow")),
            ["k"], contrib_partial, num_buckets)
        contrib = bucketed(partials, ["dst"], lambda g: dst_sums(
            g["dst"].to_numpy(), g["c"].to_numpy()), num_buckets)

        # 3. step: ranks ∪ contrib on node
        def contrib_rows(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({"node": batch.column("dst").cast(pa.int64()),
                             "deg": pa.nulls(n, pa.int64()),
                             "restart": pa.nulls(n, pa.float64()),
                             "rank": pa.nulls(n, pa.float64()),
                             "prev": pa.nulls(n, pa.float64()),
                             "c": batch.column("c").cast(pa.float64())})

        def step(g: pa.Table, d=dangling) -> pa.Table:
            is_c = pc.is_null(g["deg"])
            cm, rk = g.filter(is_c), g.filter(pc.invert(is_c))
            c = _lookup(rk["node"], cm["node"], cm["c"])
            restart = rk["restart"].to_numpy()
            new = alpha * (c + d * restart) + (1 - alpha) * restart
            return pa.table({"node": rk["node"], "deg": rk["deg"],
                             "restart": rk["restart"], "rank": new,
                             "prev": rk["rank"],
                             "c": pa.nulls(len(rk), pa.float64())})

        ranks = bucketed(ranks.union(
            contrib.map_batches(contrib_rows, batch_format="pyarrow")),
            ["node"], step, num_buckets) \
            .repartition(rank_blocks).materialize()
        dangling, delta = _sums(ranks)
        if delta < tol:
            break

    return ranks.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "rank": b.column("rank")}),
        batch_format="pyarrow")


def _build_csr(blocks: list[pa.Table]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted src keys, CSR bounds, dst array) from edge blocks — a
    ``fold``, so the adjacency never materializes on the driver."""
    if blocks:
        tbl = pa.concat_tables(blocks)
        src = tbl.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = tbl.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        src = dst = np.empty(0, np.int64)
    order = np.lexsort((dst, src))
    src_s, dst_s = src[order], dst[order]
    keys, starts = np.unique(src_s, return_index=True)
    bounds = np.r_[starts, len(src_s)]
    return keys, bounds, dst_s


def expand_per_seed(edges: Dataset, seeds: list[int], k: int = 20,
                    mode: str = "dfs") -> Dataset:
    """Per-seed k-NODE-limited DFS/BFS — the reference's ``dfs``/``bfs``
    (/root/reference/utils/entity_expander.py:78-101: stack/queue pop,
    collect up to k nodes excluding the start, push unvisited neighbors).

    This is the T6 broadcast-graph pattern: the adjacency (CSR numpy
    arrays, built in one ``fold`` over the edges) is stored ONCE and
    every task walks its own seeds against the shared copy — per-seed
    traversal is inherently sequential, so the parallelism axis is the
    SEED SET, which is what the reference loops over line by line.

    Divergence (documented): neighbors are pushed in sorted-ascending
    order; the reference extends a Python ``set`` whose iteration order is
    implementation-defined. Returns (seed, node, visit_order)."""
    edges = _normalize_blocks(edges)
    # CSR adjacency built in one fold — the blocks never round-trip
    # through the driver heap; the fold's ref is the broadcast handle
    # every walker reads.
    adj_ref = fold(edges, _build_csr)

    seeds_ds = _nodes_table(list(seeds))

    def walk(batch: pa.Table) -> pa.Table:
        keys_s, bounds_s, dst_a = ray.get(adj_ref)

        def neighbors(v: int) -> np.ndarray:
            i = np.searchsorted(keys_s, v)
            if i >= len(keys_s) or keys_s[i] != v:
                return np.empty(0, np.int64)
            return dst_a[bounds_s[i]: bounds_s[i + 1]]

        out_seed, out_node, out_ord = [], [], []
        for s in batch.column("node").to_pylist():
            s = int(s)
            visited: list[int] = []
            vset: set[int] = set()
            fringe = [s]
            # loop shape mirrors the reference exactly (including its
            # start-reexpansion quirk: the start node is never marked
            # visited, so popping it again re-expands its neighbors)
            while fringe and len(visited) < k:
                v = fringe.pop() if mode == "dfs" else fringe.pop(0)
                if v not in vset:
                    if v != s:
                        visited.append(v)
                        vset.add(v)
                    nxt = {int(x) for x in neighbors(v)} - vset
                    fringe.extend(sorted(nxt))
            out_seed += [int(s)] * len(visited)
            out_node += visited
            out_ord += list(range(1, len(visited) + 1))
        return pa.table({"seed": pa.array(out_seed, pa.int64()),
                         "node": pa.array(out_node, pa.int64()),
                         "visit_order": pa.array(out_ord, pa.int64())})

    return seeds_ds.map_batches(walk, batch_format="pyarrow")


def copurchase_edges(sf_dir: str) -> Dataset:
    """Part co-purchase graph from lineitem: (src part, dst part) for parts
    sharing an order, both directions, deduped — a self-join realized as a
    ``bucketed`` shuffle on the order key (never a cartesian across
    orders), deduped by a second one on src."""
    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_partkey"])

    def edge_table(e: np.ndarray) -> pa.Table:
        e = np.unique(e.reshape(-1, 2).astype(np.int64), axis=0)
        return pa.table({"src": e[:, 0], "dst": e[:, 1]})

    def pairs(g: pa.Table) -> pa.Table:
        # sorted distinct (order, part) rows, one run of parts per order
        op = np.unique(np.c_[g["l_orderkey"].to_numpy(),
                             g["l_partkey"].to_numpy()], axis=0)
        outs = [np.empty((0, 2), np.int64)]
        for parts in np.split(op[:, 1], np.flatnonzero(np.diff(op[:, 0])) + 1):
            iu, ju = np.triu_indices(len(parts), k=1)
            outs += [np.c_[parts[iu], parts[ju]], np.c_[parts[ju], parts[iu]]]
        return edge_table(np.concatenate(outs))

    return bucketed(bucketed(li, ["l_orderkey"], pairs, 32), ["src"],
                    lambda g: edge_table(np.c_[g["src"].to_numpy(),
                                               g["dst"].to_numpy()]), 32)


def bfs_copurchase(sf_dir: str, seed_part: int = 0, k: int = 2) -> Dataset:
    """k-hop BFS over the co-purchase graph (oracle: recursive CTE)."""
    out = bfs_expand(copurchase_edges(sf_dir), [seed_part], k=k)

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node").cast(pa.int64()),
                         "hop": batch.column("hop").cast(pa.int64())})

    return out.map_batches(shape, batch_format="pyarrow")


def dfs_copurchase(sf_dir: str, seed_part: int = 0, k: int = 20) -> Dataset:
    """k-node-limited DFS expansion over the co-purchase graph (reference
    entity_expander ``dfs``; rows-only check — traversal order is not
    SQL-expressible, pinned instead by the pytest vs a direct
    reimplementation of the reference loop)."""
    return expand_per_seed(copurchase_edges(sf_dir), [seed_part], k=k,
                           mode="dfs")


def expanded_edge_list(expanded: Dataset, limit: int = 5) -> Dataset:
    """Star edge list (src=seed -- dst=expanded node) of an
    ``expand_per_seed`` result, first ``limit`` nodes per seed by visit
    order — exactly the graph the reference's
    /root/reference/utils/visualize_expanded_entities.py:21-32 feeds
    networkx (``(qid, node) for node in bfs/dfs[:5]``); emitted as data
    rows (render anywhere, e.g. ``format_dot``) instead of a matplotlib
    dependency. Map-only: no shuffle, no driver materialization."""
    def fn(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less_equal(batch.column("visit_order"),
                                       pa.scalar(limit, pa.int64())))
        return pa.table({
            "src": t.column("seed").cast(pa.int64()),
            "dst": t.column("node").cast(pa.int64()),
            "visit_order": t.column("visit_order").cast(pa.int64())})

    return expanded.map_batches(fn, batch_format="pyarrow")


def format_dot(edges: pd.DataFrame, name: str = "expanded") -> str:
    """Small driver-side DOT rendering of an ``expanded_edge_list`` frame
    (undirected, matching the reference's ``nx.Graph``). Input is the
    per-seed star — bounded by seeds x limit, never the graph."""
    body = "".join(
        f"  {int(s)} -- {int(d)};\n"
        for s, d in zip(edges["src"].to_numpy(), edges["dst"].to_numpy()))
    return f"graph {name} {{\n{body}}}\n"


def expanded_edges_copurchase(sf_dir: str, seed_part: int = 0,
                              k: int = 20, limit: int = 5) -> Dataset:
    """visualize_expanded_entities parity query: DFS-expand the seed on
    the co-purchase graph, emit the first-``limit`` star edge list."""
    return expanded_edge_list(dfs_copurchase(sf_dir, seed_part=seed_part,
                                             k=k), limit=limit)


def ppr_copurchase(sf_dir: str, seed_part: int = 0) -> Dataset:
    """Personalized PageRank over the co-purchase graph, top-20 by rank
    with the SEED EXCLUDED (rank values rounded; rows-only check —
    iterative, not SQL).

    Seed exclusion mirrors the reference's intent at
    /root/reference/utils/entity_expander.py:125: it takes the top
    ``number+1`` by rank and drops one — under personalization the seed
    holds the top rank, so the honest deterministic reading is "top k
    excluding the seed" (the reference's ``argpartition[...][:-1]``
    actually drops an ARBITRARY member of the unordered top block; pinned
    by a pytest against dense-numpy argpartition semantics)."""
    ranks = personalized_pagerank(copurchase_edges(sf_dir), [seed_part],
                                  alpha=0.85, iters=15)
    ranks = ranks.filter(expr=f"node != {int(seed_part)}")

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rank"] = np.round(df["rank"], 8)
        return df

    from chameleon_entity_linking_ray.stages.agg import top_k
    return top_k(ranks.map_batches(shape, batch_format="pandas"),
                 by=["rank", "node"], ascending=[False, True], k=20)


def _attach_degrees(cand: Dataset, deg: Dataset, num_buckets: int) -> Dataset:
    """cand(src, dst) -> (src, dst, deg_s, deg_d): two ``attach``es of the
    (node, deg) table, on src and on dst."""
    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["src", "dst", "deg_s", "deg_d"])

    return attach(attach(cand, deg, "src", right_on="node",
                         num_partitions=num_buckets),
                  deg, "dst", right_on="node", num_partitions=num_buckets) \
        .map_batches(rename, batch_format="pyarrow")


def _triangles(cand: Dataset, deg: Dataset, num_buckets: int) -> Dataset:
    """Triangle rows (u, v, center) of a canonical (src < dst) edge set —
    the degree-ordered orientation algorithm as bucketed shuffles + one
    distributed hash join, never an all-pairs pass:

      1. attach endpoint degrees (``_attach_degrees``);
      2. orient every edge from the (degree, id)-smaller node to the
         larger — each node's OUT-degree is then O(sqrt(m)), which kills
         hub skew in step 3 (a hub's edges point INTO it);
      3. wedges: bucket oriented edges by src, per src emit ordered
         out-neighbor pairs (vectorized ragged-arange, no per-node
         Python) — each triangle yields exactly one wedge, at its
         (degree, id)-minimal corner;
      4. close: distributed hash join of wedges against oriented edges.
    """
    withdeg = _attach_degrees(cand, deg, num_buckets)

    def orient(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        gs = batch.column("deg_s").to_numpy(zero_copy_only=False)
        gd = batch.column("deg_d").to_numpy(zero_copy_only=False)
        # total order by (degree, id) — no dense rank needed, so no
        # driver-side node materialization anywhere on this path
        flip = (gs > gd) | ((gs == gd) & (s > d))
        os_, od_ = np.where(flip, d, s), np.where(flip, s, d)
        oddeg = np.where(flip, gs, gd)
        return pa.table({
            "src": pa.array(os_, pa.int64()),
            "dst": pa.array(od_, pa.int64()),
            "ddeg": pa.array(oddeg.astype(np.int64), pa.int64()),
        })

    oriented = withdeg.map_batches(orient, batch_format="pyarrow")

    def wedge_rows(g: pa.Table) -> pa.Table:
        g = g.sort_by([("src", "ascending"), ("ddeg", "ascending"),
                       ("dst", "ascending")])
        n = len(g)
        src = g["src"].to_numpy()
        dst = g["dst"].to_numpy()
        # per-src runs: each anchor pairs with every later out-neighbor
        # of the same src ((ddeg, dst)-sorted, so u precedes v in the
        # (degree, id) total order — matching the closing edge's
        # orientation)
        run_start = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        run_len = np.diff(np.r_[run_start, n])
        run_end = np.repeat(run_start + run_len, run_len)
        idx = np.arange(n)
        counts = run_end - idx - 1
        total = int(counts.sum())
        ia = np.repeat(idx, counts)
        starts = np.cumsum(counts) - counts
        ib = np.arange(total) - np.repeat(starts, counts) \
            + np.repeat(idx + 1, counts)
        return pa.table({"u": dst[ia], "v": dst[ib], "center": src[ia]})

    wedges = bucketed(oriented, ["src"], wedge_rows, num_buckets)

    _W = pa.schema([("u", pa.int64()), ("v", pa.int64()),
                    ("center", pa.int64())])
    _E = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def edge_only(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch.column("src"),
                         "dst": batch.column("dst")}, schema=_E)

    return hash_join(wedges, oriented.map_batches(edge_only,
                                                  batch_format="pyarrow"),
                     on=("u", "v"), right_on=("src", "dst"),
                     num_partitions=num_buckets, schemas=(_W, _E))


def triangle_counts(edges: Dataset, num_buckets: int = 32) -> Dataset:
    """Per-node triangle counts on an undirected graph: canonicalize to
    one row per undirected edge (src < dst), enumerate triangles via the
    degree-ordered wedge join (``_triangles``), then credit each triangle
    to its three corners (flat emission + combiner grouped_agg)."""
    def und(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less(batch.column("src"), batch.column("dst")))
        return pa.table({"src": t.column("src").cast(pa.int64()),
                         "dst": t.column("dst").cast(pa.int64())})

    u = edges.map_batches(und, batch_format="pyarrow")

    def both_ends(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(np.concatenate([s, d]), pa.int64())})

    deg = grouped_agg(u.map_batches(both_ends, batch_format="pyarrow"),
                      keys=["node"], aggs={"deg": (None, "count")},
                      num_buckets=num_buckets).materialize()  # attached twice
    tri = _triangles(u, deg, num_buckets)

    def corners(batch: pa.Table) -> pa.Table:
        cols = [batch.column("u").to_numpy(zero_copy_only=False),
                batch.column("v").to_numpy(zero_copy_only=False),
                batch.column("center").to_numpy(zero_copy_only=False)]
        return pa.table({"node": pa.array(np.concatenate(cols), pa.int64())})

    return grouped_agg(tri.map_batches(corners, batch_format="pyarrow"),
                       keys=["node"], aggs={"n_triangles": (None, "count")},
                       num_buckets=num_buckets)


def triangles_copurchase(sf_dir: str) -> Dataset:
    """Per-part triangle counts on the co-purchase graph (oracle: 3-way
    self-join on the canonical src<dst edge set + UNION ALL corner
    count)."""
    return triangle_counts(copurchase_edges(sf_dir))


def degree_histogram(sf_dir: str) -> Dataset:
    """Degree distribution of the co-purchase graph: (degree, n_nodes) —
    the first profiling pass of any graph pipeline. Edges are globally
    deduped (copurchase_edges dedups per order-bucket only; the same
    pair can arise from different orders), then two combiner aggregates:
    per-node degree, then the histogram over degrees. Shuffles carry
    O(edges) then O(nodes) narrow rows."""
    from chameleon_entity_linking_ray.stages.agg import distinct, grouped_agg

    edges = distinct(copurchase_edges(sf_dir), ["src", "dst"])
    deg = grouped_agg(edges, keys=["src"], aggs={"d": (None, "count")})
    return grouped_agg(deg, keys=["d"], aggs={"n_nodes": (None, "count")})


def edge_overlap(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Neighborhood-overlap (embeddedness) features for every undirected
    co-purchase edge: exact common-neighbor count and neighbor-set
    Jaccard — the classic tie-strength / link-analysis features
    (Granovetter embeddedness; the building block of Jaccard link
    prediction). Output is one row per edge.

    Broadcast-or-shuffle on the EDGE count: up to ``joins.BROADCAST_ROWS``
    edges the full adjacency is a broadcast CSR assembled in one
    ``fold`` (O(edges x avg-degree) probes, zero shuffle); beyond that
    — O(edges) memory per task is a scale-killer on a 100x graph — the
    oriented wedge-join path takes over:
    cn(a, b) = triangles containing edge (a, b), enumerated by the same
    skew-safe ``_triangles`` dataflow ``triangle_counts`` uses, then
    credited to each triangle's three edges and left-joined back onto
    the canonical edge set. cn / degrees exact ints, jaccard one
    division — hash-exact vs SQL on both paths.
    """
    from chameleon_entity_linking_ray.stages.agg import distinct

    edges = distinct(copurchase_edges(sf_dir), ["src", "dst"]) \
        .materialize()  # consumed by the candidate filter and the CSR
    cand = edges.filter(expr="src < dst")
    if edges.count() > joins.BROADCAST_ROWS:
        return _edge_overlap_join(edges, cand, num_buckets)
    adj_ref = fold(edges, _build_csr)

    def score(batch: pa.Table) -> pa.Table:
        empty = pa.table({"node_a": pa.array([], pa.int64()),
                          "node_b": pa.array([], pa.int64()),
                          "cn": pa.array([], pa.int64()),
                          "deg_a": pa.array([], pa.int64()),
                          "deg_b": pa.array([], pa.int64()),
                          "jaccard": pa.array([], pa.float64())})
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return empty
        keys_s, bounds, dst_s = ray.get(adj_ref)
        a = batch.column("src").to_numpy(zero_copy_only=False)
        b = batch.column("dst").to_numpy(zero_copy_only=False)

        def nbrs(v: int) -> np.ndarray:
            i = np.searchsorted(keys_s, v)
            if i >= len(keys_s) or keys_s[i] != v:
                return dst_s[:0]  # endpoint absent from the CSR keys
            return dst_s[bounds[i]: bounds[i + 1]]

        cn = np.empty(len(a), np.int64)
        da = np.empty(len(a), np.int64)
        db = np.empty(len(a), np.int64)
        for i in range(len(a)):
            na_, nb_ = nbrs(int(a[i])), nbrs(int(b[i]))
            cn[i] = len(np.intersect1d(na_, nb_, assume_unique=True))
            da[i], db[i] = len(na_), len(nb_)
        union = da + db - cn
        jac = cn.astype(np.float64) / union.astype(np.float64)
        return pa.table({
            "node_a": pa.array(a, pa.int64()),
            "node_b": pa.array(b, pa.int64()),
            "cn": pa.array(cn, pa.int64()),
            "deg_a": pa.array(da, pa.int64()),
            "deg_b": pa.array(db, pa.int64()),
            "jaccard": pa.array(jac, pa.float64())})

    return cand.map_batches(score, batch_format="pyarrow")


def _edge_overlap_join(edges: Dataset, cand: Dataset,
                       num_buckets: int) -> Dataset:
    """``edge_overlap``'s over-threshold arm: wedge-join triangles ->
    per-edge common-neighbor counts -> left join onto the canonical edge
    set with degrees attached (``_attach_degrees``)."""
    def src_node(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("src").cast(pa.int64())})

    # edges is symmetric + deduped, so src occurrences = undirected degree
    deg = grouped_agg(edges.map_batches(src_node, batch_format="pyarrow"),
                      keys=["node"], aggs={"deg": (None, "count")},
                      num_buckets=num_buckets).materialize()  # attached 4x
    tri = _triangles(cand, deg, num_buckets)

    def tri_edges(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        c = batch.column("center").to_numpy(zero_copy_only=False)
        a = np.concatenate([np.minimum(u, v), np.minimum(u, c),
                            np.minimum(v, c)])
        b = np.concatenate([np.maximum(u, v), np.maximum(u, c),
                            np.maximum(v, c)])
        return pa.table({"node_a": pa.array(a, pa.int64()),
                         "node_b": pa.array(b, pa.int64())})

    cn = grouped_agg(tri.map_batches(tri_edges, batch_format="pyarrow"),
                     keys=["node_a", "node_b"], aggs={"cn": (None, "count")},
                     num_buckets=num_buckets)

    def as_pair(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node_a": batch.column("src").cast(pa.int64()),
            "node_b": batch.column("dst").cast(pa.int64()),
            "deg_a": batch.column("deg_s").cast(pa.int64()),
            "deg_b": batch.column("deg_d").cast(pa.int64())})

    base = _attach_degrees(cand, deg, num_buckets) \
        .map_batches(as_pair, batch_format="pyarrow")
    _B = pa.schema([("node_a", pa.int64()), ("node_b", pa.int64()),
                    ("deg_a", pa.int64()), ("deg_b", pa.int64())])
    _C = pa.schema([("node_a", pa.int64()), ("node_b", pa.int64()),
                    ("cn", pa.int64())])
    joined = hash_join(base, cn, on=("node_a", "node_b"),
                       join_type="left_outer",
                       num_partitions=num_buckets, schemas=(_B, _C))

    def finalize(batch: pa.Table) -> pa.Table:
        cnv = pc.coalesce(batch.column("cn"),
                          pa.scalar(0, pa.int64())).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        da = batch.column("deg_a").to_numpy(zero_copy_only=False)
        db = batch.column("deg_b").to_numpy(zero_copy_only=False)
        union = da + db - cnv
        jac = cnv.astype(np.float64) / union.astype(np.float64)
        return pa.table({
            "node_a": batch.column("node_a").cast(pa.int64()),
            "node_b": batch.column("node_b").cast(pa.int64()),
            "cn": pa.array(cnv, pa.int64()),
            "deg_a": pa.array(da.astype(np.int64), pa.int64()),
            "deg_b": pa.array(db.astype(np.int64), pa.int64()),
            "jaccard": pa.array(jac, pa.float64())})

    return joined.map_batches(finalize, batch_format="pyarrow")


def _edge_fingerprint(edges: Dataset) -> str:
    """Order-independent multiset fingerprint of an edge Dataset (sum of
    per-row mixed hashes mod 2^64, hex) — the per-round lineage stamp in
    loop checkpoints; one ``each`` partial per block."""
    def partial(batch: pa.Table) -> int:
        s = batch.column("src").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        d = batch.column("dst").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = mix64(s ^ mix64(d, seed=101), seed=103)
        return int(h.sum(dtype=np.uint64))

    return f"{sum(ray.get(each(edges, partial))) & ((1 << 64) - 1):016x}"


def kcore_copurchase(sf_dir: str, k: int = 68,
                     max_rounds: int = 64,
                     checkpoint_dir: str | None = None,
                     _fail_after_round: int | None = None
                     ) -> Dataset | pa.Table:
    """Distributed k-core decomposition of the co-purchase graph:
    iteratively drop nodes of degree < ``k`` until fixpoint; emit the
    surviving nodes with their core-induced degree.

    Each round is one COMBINER degree aggregate + two ``attach`` semi
    joins of the edge Dataset against the surviving node set (a
    broadcast up to ``joins.BROADCAST_ROWS`` nodes, a bucketed shuffle
    above) — the driver holds only per-round scalar counts, never nodes
    or edges; ``materialize()`` per round cuts lineage (the CC-loop
    rule). Convergence is detected by an unchanged edge count.

    With ``checkpoint_dir`` set, every round's surviving edge set is
    written as a per-round Parquet checkpoint whose manifest entry
    carries the round counter and an order-independent edge fingerprint
    (lineage + metrics); a re-run after a mid-loop kill resumes from the
    latest completed round instead of round zero — a 64-round peel on
    100 TB that dies at round 60 must not restart from scratch.
    ``_fail_after_round`` is the fault-injection hook the resume test
    uses to kill the loop after checkpointing round N.

    Oracle: single-row recursive CTE carrying the surviving node list
    (the ``dfs_copurchase`` state-machine pattern); like
    ``tf_cosine_pairs``, an empty core returns the typed Arrow table
    from the driver (Ray cannot keep a 0-row Dataset's schema)."""
    mgr = None
    start_round = 0
    prev_edges = -1
    edges = None
    if checkpoint_dir is not None:
        from chameleon_entity_linking_ray.state.checkpoint import (
            CheckpointManager,
            fingerprint,
            input_fingerprint,
        )
        fp = fingerprint("kcore", k, max_rounds,
                         input_fingerprint([f"{sf_dir}/lineitem.parquet"]))
        mgr = CheckpointManager(checkpoint_dir, fp)
        done = sorted(int(s.split("_")[1])
                      for s in mgr.manifest["stages"]
                      if s.startswith("round_") and mgr.has(s))
        if done:
            latest = done[-1]
            edges = mgr.load(f"round_{latest:03d}").materialize()
            # prev_edges = survivor count of the round BEFORE the one we
            # resume from, so the loop's convergence compare is exactly
            # where the killed run left it
            if latest > 0 and f"round_{latest - 1:03d}" in \
                    mgr.manifest["stages"]:
                prev_edges = mgr.manifest["stages"][
                    f"round_{latest - 1:03d}"]["rows"]
            start_round = latest + 1
    if edges is None:
        edges = copurchase_edges(sf_dir).materialize()
    converged = False
    for rnd in range(start_round, max_rounds):
        n_edges = edges.count()
        if n_edges == prev_edges or n_edges == 0:
            converged = True
            break
        prev_edges = n_edges
        t0 = time.time()
        deg = grouped_agg(edges, ["src"], {"deg": (None, "count")})
        keep = deg.filter(expr=f"deg >= {k}") \
            .select_columns(["src"]).materialize()
        edges = attach(edges, keep, "src", how="semi")
        edges = attach(edges, keep, "dst", right_on="src",
                       how="semi").materialize()
        if mgr is not None:
            upstream = [f"round_{rnd - 1:03d}"] if rnd > 0 else \
                ["copurchase_edges"]
            edges = mgr.save(
                f"round_{rnd:03d}", edges, upstream=upstream, t_start=t0,
                extra={"round": rnd,
                       "edge_fingerprint": _edge_fingerprint(edges)}) \
                .materialize()
            if _fail_after_round is not None and rnd >= _fail_after_round:
                raise RuntimeError(
                    f"injected failure after round {rnd}")
    if not converged and edges.count() != prev_edges:
        # a silent cap would ship a non-core (and diverge from the
        # fixpoint oracle) — fail loudly instead
        raise RuntimeError(
            f"k-core did not converge in {max_rounds} rounds; "
            "raise max_rounds")

    if edges.count() == 0:
        return pa.table({"part": pa.array([], pa.int64()),
                         "deg": pa.array([], pa.int64())})

    deg = grouped_agg(edges, ["src"], {"deg": (None, "count")})

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "part": df["src"].to_numpy(np.int64),
            "deg": df["deg"].to_numpy(np.int64)})

    return deg.map_batches(shape, batch_format="pandas")
