"""stages/shuffle: one key hash and one bucketed Arrow shuffle, and the
connected-components star loop that runs on it."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from chameleon_entity_linking_ray.stages.cluster import (
    _unionfind_assignments,
    connected_components,
)
from chameleon_entity_linking_ray.stages.shuffle import (
    arrow_key_values,
    bucket_of,
    bucketed,
    key_hash,
)
from chameleon_entity_linking_ray.testing.synth import make_chain_edges

KEYS = pd.DataFrame({"i": np.array([0, 1, -7, 2**62, 123456789], np.int64),
                     "s": ["", "a", "acme corp", "wayne industries", "ümlaut"]})

# key hashes of KEYS before the shared helper existed: stages/joins'
# per-column hash and stages/agg's bucket of the same algorithm
FROZEN_HASH = {
    ("i",): [3998411274607395365, 10820770463232788922, 15779986192206077410,
             554418521603026450, 16411024287878306682],
    ("s",): [708086124761580536, 15524877990830848331, 18267194077799218195,
             11428683550989634114, 17988247639561975630],
    ("i", "s"): [1082690751376200590, 15882670695940476769,
                 12874211508030561482, 11715124627608863460,
                 3811829544438237646],
}
FROZEN_BUCKET_32 = {("i",): [5, 26, 2, 18, 26], ("s",): [24, 11, 19, 2, 14],
                    ("i", "s"): [14, 1, 10, 4, 14]}
FROZEN_BUCKET_P31 = {
    ("i",): [400453091, 1969077387, 821995921, 1282346876, 1053471429],
    ("s",): [1148405024, 1873255900, 1566291084, 139196555, 320857898],
    ("i", "s"): [594415247, 1289681174, 1488790300, 1295481461, 1046558555],
}


@pytest.mark.parametrize("keys", sorted(FROZEN_HASH))
def test_key_hash_matches_frozen_values(keys):
    t = pa.Table.from_pandas(KEYS, preserve_index=False)
    assert key_hash(arrow_key_values(t, keys)).tolist() == FROZEN_HASH[keys]
    # the buckets every keyed shuffle uses (``bucketed``) did not move
    assert bucket_of(arrow_key_values(t, keys), 32).tolist() == \
        FROZEN_BUCKET_32[keys]
    assert bucket_of(arrow_key_values(t, keys), 2**31 - 1).tolist() == \
        FROZEN_BUCKET_P31[keys]


# ``bucket_of(arrow_key_values(...), 97)`` of the every-dtype frame below
FROZEN_DTYPE_BUCKET_97 = {
    ("f",): [84, 8, 75, 82, 22], ("n",): [56, 42, 15, 91, 14],
    ("t",): [1, 17, 79, 95, 69], ("b",): [50, 81, 50, 50, 81],
    ("u",): [56, 92, 15, 16, 23], ("o",): [62, 8, 95, 41, 62],
    ("f", "t", "n"): [94, 86, 84, 43, 93]}


def test_agg_buckets_unmoved_for_every_dtype():
    """Every key dtype keeps its Arrow-path buckets, and a row's bucket
    does not depend on the batch it is hashed in (``bucketed`` hashes
    each input batch on its own)."""
    df = pd.DataFrame({
        "f": [0.5, np.nan, -1.0, 1e300, 0.0],
        "n": pd.array([1, None, 3, 2**40, -5], dtype="Int64"),
        "t": pd.to_datetime(["2020-01-01 00:00", "1999-12-31 23:59:59.000000001",
                             "2038-01-19 00:00", "1970-01-01 00:00",
                             "2001-09-09 00:00"], format="ISO8601"),
        "b": [True, False, True, True, False],
        "u": np.array([1, 2**63, 3, 4, 5], np.uint64),
        "o": ["a", None, "", "b", "a"]})
    t = pa.Table.from_pandas(df, preserve_index=False)
    for keys, frozen in FROZEN_DTYPE_BUCKET_97.items():
        assert bucket_of(arrow_key_values(t, keys), 97).tolist() == frozen, \
            keys
        assert [bucket_of(arrow_key_values(t.slice(i, 1), keys), 97)[0]
                for i in range(len(t))] == frozen, keys


def test_nullable_int_keys_hash_exactly():
    """An integer key column with nulls is read exactly: values past 2**53
    keep distinct hashes, a null is not 0, and a value hashes the same
    whether or not its batch holds a null."""
    t = pa.table({"k": pa.array([1, None, 2**53 + 1, 2**53, 0], pa.int64())})
    h = key_hash(arrow_key_values(t, ["k"]))
    assert len(set(h.tolist())) == 5
    no_null = pa.table({"k": pa.array([1, 2**53 + 1, 2**53, 0], pa.int64())})
    assert key_hash(arrow_key_values(no_null, ["k"])).tolist() == \
        h[[0, 2, 3, 4]].tolist()


def call_ids():
    """A bucket callback tagging its rows with an id of the call (built in
    a test, so Ray ships it by value)."""

    def tag(g: pa.Table) -> pa.Table:
        assert "__bucket" not in g.column_names
        return g.append_column("call",
                               pa.array([uuid.uuid4().hex] * g.num_rows))

    return tag


@pytest.mark.parametrize("keys", [["i"], ["s"], ["i", "s"]])
def test_bucketed_puts_each_key_in_one_call(keys):
    rng = np.random.RandomState(0)
    n = 600
    t = pa.table({"i": pa.array(rng.randint(0, 40, n), pa.int64()),
                  "s": pa.array([f"k{x}" for x in rng.randint(0, 20, n)]),
                  "row": pa.array(np.arange(n), pa.int64())})
    ds = rd.from_arrow(t).repartition(5)
    out = bucketed(ds, keys, call_ids(), 4).to_pandas()
    assert sorted(out["row"]) == list(range(n))
    assert list(out.columns) == ["i", "s", "row", "call"]
    calls_per_key = out.groupby(keys)["call"].nunique()
    assert (calls_per_key == 1).all()
    assert out["call"].nunique() >= 2  # the keys spread over several buckets


def test_bucketed_empty_input_yields_no_rows():
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert bucketed(empty, ["k"], call_ids(), 4).count() == 0
    filtered = rd.range(10).filter(lambda r: r["id"] < 0)
    assert bucketed(filtered, ["id"], call_ids(), 4).count() == 0


def test_bucketed_output_carries_no_pandas_metadata():
    """A callback that goes through pandas hands back a schema with
    pandas metadata; ``bucketed`` drops it, so the blocks it emits have
    a schema Ray can hash."""
    t = pa.table({"k": pa.array([1, 2, 3, 1], pa.int64()),
                  "v": pa.array([1.0, 2.0, 3.0, 4.0])})
    out = bucketed(rd.from_arrow(t), ["k"], lambda g: pa.Table.from_pandas(
        g.to_pandas(), preserve_index=False), 2).materialize()
    blocks = ray.get(out.to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == 4
    assert all(b.schema.metadata is None for b in blocks)


@pytest.mark.parametrize("chain_len", [16, 64])
def test_star_loop_matches_unionfind_on_chains(chain_len):
    edges = rd.from_arrow(make_chain_edges(3000, chain_len, seed=chain_len))
    star, stats = connected_components(edges, num_partitions=4,
                                       driver_threshold=0)
    assert stats["cc_mode"] == "star" and stats["cc_converged"]
    got = star.to_pandas().sort_values("node", ignore_index=True)
    want = _unionfind_assignments(edges).to_pandas() \
        .sort_values("node", ignore_index=True)
    assert got.equals(want)
    assert got["cluster"].nunique() == 3000 // (chain_len - 1)
