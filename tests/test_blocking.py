"""Blocking + pair generation tests: canonical ordering, no self-pairs,
dedup keeping the lowest key, windowed skew capping in text order, and the
typed empty table of a bucket without pairs."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.functions.hashing import node_id
from chameleon_entity_linking_ray.pipelines.linkage import generate_pairs
from chameleon_entity_linking_ray.stages.blocking import (
    LshBander,
    _bucket_pairs,
    _run_pairs,
    block_pairs,
)


def vocab_batch(norms):
    return pa.table({
        "norm": pa.array(norms, pa.string()),
        "node": pa.array(node_id(norms), pa.int64()),
    })


class TestRunPairs:
    def test_all_pairs_small_runs(self):
        li, ri = _run_pairs(np.array([3, 2]), window=8, max_block=64)
        pairs = set(zip(li.tolist(), ri.tolist()))
        assert pairs == {(0, 1), (0, 2), (1, 2), (3, 4)}

    def test_windowed_large_run(self):
        n = 100
        li, ri = _run_pairs(np.array([n]), window=2, max_block=10)
        # each i pairs with i+1, i+2 only
        assert len(li) == 2 * n - 3
        assert (ri - li).max() == 2
        # connectivity: consecutive chain present
        chain = set(zip(range(n - 1), range(1, n)))
        assert chain <= set(zip(li.tolist(), ri.tolist()))

    def test_empty(self):
        li, ri = _run_pairs(np.array([1]), window=8, max_block=64)
        assert len(li) == 0


class TestPairGeneration:
    def _pairs_for(self, norms, cfg=None):
        return generate_pairs(rd.from_arrow(vocab_batch(norms)),
                              cfg or LinkageConfig()).to_pandas()

    def test_no_self_pairs_canonical_order(self):
        df = self._pairs_for(["acme industries", "acme ind", "acme", "globex corp"])
        assert (df["left_id"] < df["right_id"]).all()

    def test_token_blocking_catches_subset_alias(self):
        df = self._pairs_for(["hooli", "hooli industries"])
        # char-Jaccard is low but the shared token must block them together
        assert len(df) == 1

    def test_lsh_catches_typo_alias(self):
        df = self._pairs_for(["wayne industries", "wbyne industries"])
        assert len(df) == 1

    def test_dedup_unique_pairs(self):
        df = self._pairs_for(["acme industries", "acme industries x",
                              "acme industries y"])
        keys = list(zip(df["left_id"], df["right_id"]))
        assert len(keys) == len(set(keys))

    def test_disjoint_surfaces_not_paired(self):
        df = self._pairs_for(["qqqq zzzz", "wwww rrrr"])
        assert len(df) == 0

    def test_hot_block_capped(self):
        cfg = LinkageConfig(max_block_size=8, pair_window=2)
        norms = [f"hotword suffix{i:03d}" for i in range(50)]
        df = self._pairs_for(norms, cfg)
        # token block "hotword" has 50 members: windowed => <= ~n*W per block
        # (each surface also collides in other blocks; bound is loose but
        # far below the all-pairs 1225)
        assert 0 < len(df) < 400

    def test_dedup_keeps_lowest_shared_key(self):
        # ids 1 and 2 share four keys (signed: -4 is the lowest), id 3 only
        # one; rows repeat, and the keys spread over several buckets
        rows = pa.table({"id": pa.array([1, 2, 1, 2, 1, 2, 1, 2, 3, 2, 2],
                                        pa.int64()),
                         "key": pa.array([7, 7, -4, -4, 2, 2, 9, 9, 9, 9, -4],
                                         pa.int64())})
        out = block_pairs(rd.from_arrow(rows), "id", "key", window=8,
                          max_block=64, num_buckets=3).to_pandas() \
            .sort_values(["left_id", "right_id"]).reset_index(drop=True)
        assert out[["left_id", "right_id", "key"]].values.tolist() == \
            [[1, 2, -4], [1, 3, 9], [2, 3, 9]]

    def test_hot_block_window_follows_text_col(self):
        # one block of 6 > max_block: each member pairs with its next
        # neighbour in TEXT order (a b c d e f), not in id order
        rows = pa.table({"id": pa.array(range(6), pa.int64()),
                         "key": pa.array([5] * 6, pa.int64()),
                         "text": ["c", "a", "f", "b", "e", "d"]})
        out = block_pairs(rd.from_arrow(rows), "id", "key", window=1,
                          max_block=2, text_col="text").to_pandas()
        assert set(zip(out["left_id"], out["right_id"])) == \
            {(1, 3), (0, 3), (0, 5), (4, 5), (2, 4)}
        # carried texts follow their ids through the canonical swap
        text = dict(zip(rows["id"].to_pylist(), rows["text"].to_pylist()))
        assert out["left_text"].tolist() == out["left_id"].map(text).tolist()
        assert out["right_text"].tolist() == out["right_id"].map(text).tolist()

    def test_bucket_without_pairs_typed_empty(self):
        # a bucket whose blocks are all singletons emits the typed schema
        # (the same as a bucket with pairs), never a column-less table; a
        # whole Dataset without pairs still has none (see block_pairs)
        t = LshBander(LinkageConfig())(vocab_batch(["qqqq zzzz", "wwww rrrr"]))
        out = _bucket_pairs(t, "node", "block_key", 8, 64, "norm")
        assert out.num_rows == 0
        assert out.schema == pa.schema([
            ("left_id", pa.int64()), ("right_id", pa.int64()),
            ("left_norm", pa.string()), ("right_norm", pa.string()),
            ("block_key", pa.int64())])
