"""Graph expansion tests: distributed BFS/PPR vs dense numpy oracles."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from chameleon_entity_linking_ray.stages import joins
from chameleon_entity_linking_ray.stages.graph import (
    bfs_expand,
    personalized_pagerank,
)


@pytest.fixture(scope="module")
def chain_edges():
    # 0-1-2-3-4 chain plus a 5-6 island, both directions
    e = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]
    rows = [{"src": a, "dst": b} for a, b in e] + \
           [{"src": b, "dst": a} for a, b in e]
    return rd.from_items(rows)


class TestBfs:
    def test_hops(self, chain_edges):
        out = bfs_expand(chain_edges, [0], k=2).to_pandas() \
            .set_index("node")["hop"].to_dict()
        assert out == {0: 0, 1: 1, 2: 2}

    def test_island_unreached(self, chain_edges):
        out = bfs_expand(chain_edges, [0], k=10).to_pandas()
        assert set(out["node"]) == {0, 1, 2, 3, 4}

    def test_multi_seed(self, chain_edges):
        out = bfs_expand(chain_edges, [0, 5], k=1).to_pandas() \
            .set_index("node")["hop"].to_dict()
        assert out == {0: 0, 5: 0, 1: 1, 6: 1}


class TestExpandPerSeed:
    def _reference_walk(self, graph: dict, start: int, k: int, mode: str):
        """Direct reimplementation of the reference loop
        (utils/entity_expander.py:78-101) with sorted neighbor order."""
        visited, fringe = [], [start]
        while fringe and len(visited) < k:
            v = fringe.pop() if mode == "dfs" else fringe.pop(0)
            if v not in visited:
                if v != start:
                    visited.append(v)
                fringe.extend(sorted(set(graph.get(v, [])) - set(visited)))
        return visited

    @pytest.mark.parametrize("mode", ["dfs", "bfs"])
    def test_matches_reference_loop(self, mode):
        from chameleon_entity_linking_ray.stages.graph import expand_per_seed
        rng = np.random.RandomState(9)
        edges = {(int(a), int(b)) for a, b in rng.randint(0, 12, (40, 2))
                 if a != b}
        graph: dict = {}
        for a, b in edges:
            graph.setdefault(a, []).append(b)
        ds = rd.from_items([{"src": a, "dst": b} for a, b in edges])
        for seed in (0, 3, 7):
            df = expand_per_seed(ds, [seed], k=6, mode=mode).to_pandas()
            got = df.sort_values("visit_order")["node"].tolist() \
                if len(df) else []
            want = self._reference_walk(graph, seed, 6, mode)
            assert got == want, (mode, seed)


class TestPpr:
    def test_matches_dense_power_iteration(self):
        rng = np.random.RandomState(4)
        n = 30
        edges = set()
        for _ in range(120):
            a, b = rng.randint(0, n, 2)
            if a != b:
                edges.add((int(a), int(b)))
        ds = rd.from_items([{"src": a, "dst": b} for a, b in edges])
        got = personalized_pagerank(ds, [0], alpha=0.85, iters=15).to_pandas()
        got = got.set_index("node")["rank"]

        # dense oracle: identical formulation
        nodes = sorted({x for e in edges for x in e})
        idx = {x: i for i, x in enumerate(nodes)}
        A = np.zeros((len(nodes), len(nodes)))
        for a, b in edges:
            A[idx[b], idx[a]] = 1.0
        deg = A.sum(axis=0)
        restart = np.zeros(len(nodes))
        restart[idx[0]] = 1.0
        r = restart.copy()
        for _ in range(15):
            share = np.divide(r, deg, out=np.zeros_like(r), where=deg > 0)
            dangling = r[deg == 0].sum()
            r = 0.85 * (A @ share + dangling * restart) + 0.15 * restart
        for x in nodes:
            assert got[x] == pytest.approx(r[idx[x]], abs=1e-9)


class TestNoDriverMaterialization:
    """The distributed BFS/PPR must never pull a node/rank table to the
    driver: with every bulk driver-materialization API patched to raise,
    both ops must still complete (per-block SCALAR partials from ``each``
    tasks are the one allowed driver touch)."""

    def _patched(self, monkeypatch, with_take_all: bool):
        import ray.data as rdm

        def boom(*a, **k):
            raise AssertionError("driver-side materialization in graph op")

        # (iter_batches stays: Dataset.count() uses it internally)
        monkeypatch.setattr(rdm.Dataset, "to_pandas", boom)
        monkeypatch.setattr(rdm.Dataset, "to_numpy_refs", boom)
        if with_take_all:
            monkeypatch.setattr(rdm.Dataset, "take_all", boom)

    def test_bfs_shuffle_path(self, chain_edges, monkeypatch):
        with monkeypatch.context() as m:
            self._patched(m, with_take_all=True)
            # BROADCAST_ROWS=0 forces the shuffle semi/anti path too
            m.setattr(joins, "BROADCAST_ROWS", 0)
            out = bfs_expand(chain_edges, [0], k=2)
        got = out.to_pandas().set_index("node")["hop"].to_dict()
        assert got == {0: 0, 1: 1, 2: 2}

    def test_ppr_distributed(self, chain_edges, monkeypatch):
        with monkeypatch.context() as m:
            # PPR's one allowed driver touch is the per-block SCALAR
            # partials (dangling/delta sums) of its ``each`` tasks
            self._patched(m, with_take_all=True)
            ranks = personalized_pagerank(chain_edges, [0], iters=5).materialize()
        df = ranks.to_pandas()
        assert set(df["node"]) == {0, 1, 2, 3, 4, 5, 6}
        assert df["rank"].sum() == pytest.approx(1.0, abs=1e-6)


class TestRunfile:
    def test_rank_and_format(self):
        from chameleon_entity_linking_ray.functions.runfile import (
            format_trec, rank_run)
        rows = [{"qid": q, "pid": p, "score": float((q * 7 + p * 3) % 11)}
                for q in range(3) for p in range(8)]
        ranked = rank_run(rd.from_items(rows), k=3)
        df = format_trec(ranked, tag="t").to_pandas()
        assert len(df) == 9
        first = df[df["line"].str.startswith("0 Q0 ")].sort_values("rank")
        parts = first.iloc[0]["line"].split()
        assert parts[1] == "Q0" and parts[5] == "t" and parts[3] == "1"

    def test_write_trec_order(self, tmp_path):
        from chameleon_entity_linking_ray.functions.runfile import (
            rank_run, write_trec)
        rows = [{"qid": q, "pid": p, "score": float(p)}
                for q in range(2) for p in range(5)]
        ranked = rank_run(rd.from_items(rows), k=2)
        path = str(tmp_path / "run.txt")
        write_trec(ranked, path)
        lines = open(path).read().splitlines()
        assert len(lines) == 4
        assert [l.split()[0] for l in lines] == ["0", "0", "1", "1"]
        assert [l.split()[3] for l in lines] == ["1", "2", "1", "2"]


class TestKCore:
    def test_edge_fingerprint_unchanged(self):
        """Checkpoint manifests keep their lineage stamps: the value was
        frozen from the map + take_all version, and the block split does
        not move it."""
        import pyarrow as pa
        from chameleon_entity_linking_ray.stages.graph import _edge_fingerprint

        edges = pa.table({
            "src": pa.array([(i * 7919) % 1000 for i in range(500)],
                            pa.int64()),
            "dst": pa.array([(i * 104729 + 13) % 997 for i in range(500)],
                            pa.int64())})
        for n_blocks in (1, 3, 7):
            ds = rd.from_arrow(edges).repartition(n_blocks).materialize()
            assert _edge_fingerprint(ds) == "6dd48bd0be7055f6"

    def test_fixpoint_matches_python_simulation(self):
        import collections

        import duckdb
        import numpy as np
        from chameleon_entity_linking_ray.stages.graph import kcore_copurchase

        got = kcore_copurchase("/root/testdata/sf0.001").to_pandas() \
            .sort_values("part").reset_index(drop=True)

        con = duckdb.connect()
        edges = con.sql(
            "SELECT DISTINCT a.l_partkey s, b.l_partkey d "
            "FROM read_parquet('/root/testdata/sf0.001/lineitem.parquet') a "
            "JOIN read_parquet('/root/testdata/sf0.001/lineitem.parquet') b "
            "ON a.l_orderkey=b.l_orderkey AND a.l_partkey != b.l_partkey"
        ).df()
        adj = collections.defaultdict(set)
        for s_, d_ in zip(edges["s"], edges["d"]):
            adj[int(s_)].add(int(d_))
        nodes = set(adj)
        rounds = 0
        while True:
            drop = {n for n in nodes if len(adj[n] & nodes) < 68}
            if not drop:
                break
            nodes -= drop
            rounds += 1
        assert rounds >= 2, "fixture stopped exercising iterative pruning"
        want = {n: len(adj[n] & nodes) for n in nodes}
        assert dict(zip(got["part"].astype(int),
                        got["deg"].astype(int))) == want
        assert (got["deg"] >= 68).all()
