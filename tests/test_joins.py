"""stages/joins: the keyed ``attach`` (one probe kernel on a broadcast and
on a shuffle path) and the cluster-id attach built on it."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from chameleon_entity_linking_ray.stages import joins
from chameleon_entity_linking_ray.stages.cluster import attach_assignments
from chameleon_entity_linking_ray.stages.joins import attach

# rows 0-7 of ds: int key k (one null), string key s (one null), a
# value column v that the tables also carry
DS = pa.table({
    "id": pa.array(range(8), pa.int64()),
    "k": pa.array([1, 2, None, 4, 2**53 + 1, 6, 7, 1], pa.int64()),
    "s": pa.array(["a", "b", "c", None, "e", "a", "zz", "b"], pa.string()),
    "v": pa.array(range(100, 108), pa.int64()),
})
# int table keyed by kk (right_on), with a null key that must never match
# the null row of DS, a key past 2**53 and clashing value column v
INT_TABLE = pa.table({
    "kk": pa.array([2**53 + 1, 1, 4, None, 9, 2**53], pa.int64()),
    "v": pa.array([-1, -2, -3, -4, -5, -6], pa.int64()),
    "w": pa.array(["p", "q", "r", "s", "t", "u"], pa.string()),
})
STR_TABLE = pa.table({
    "s": pa.array(["b", None, "a", "e", "q"], pa.string()),
    "label": pa.array([20, 21, 22, 23, 24], pa.int64()),
})


def _blocks(t: pa.Table, n: int = 3) -> rd.Dataset:
    step = max(1, -(-t.num_rows // n))
    return rd.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)]
                         or [t])


def _pandas(t: pa.Table) -> pd.DataFrame:
    """Arrow-backed columns: integers stay exact past 2**53 with nulls."""
    return t.to_pandas(types_mapper=pd.ArrowDtype)


def _collect(ds: rd.Dataset) -> pa.Table:
    """All rows of ``ds`` as one table (empty shuffle partitions come back
    as column-less blocks, which are skipped)."""
    tables = map(ray.get, ds.materialize().to_arrow_refs())
    return pa.concat_tables([t for t in tables if t.num_columns])


def pandas_attach(ds: pa.Table, table: pa.Table, on: str, right_on: str,
                  how: str) -> pd.DataFrame:
    """The same lookup in pandas: null keys dropped from both sides before
    matching, clashing value columns suffixed ``_r``."""
    left, right = _pandas(ds), _pandas(table)
    right = right[right[right_on].notna()]
    hit = left[on].notna() & left[on].isin(right[right_on])
    if how == "semi":
        return left[hit]
    if how == "anti":
        return left[~hit]
    right = right.rename(columns={c: c + "_r" for c in right
                                  if c != right_on and c in left})
    out = left.merge(right, how=how, left_on=on, right_on=right_on,
                     suffixes=("", "_dup"))
    return out.drop(columns=[right_on]) if right_on != on else out


def _frame(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("id").reset_index(drop=True)


@pytest.fixture(params=["broadcast", "shuffle"])
def path(request, monkeypatch):
    if request.param == "shuffle":
        # -1: even an empty table takes the shuffle
        monkeypatch.setattr(joins, "BROADCAST_ROWS", -1)
    return request.param


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
@pytest.mark.parametrize("case", ["int_right_on", "string", "empty"])
def test_attach_matches_pandas(path, how, case):
    on, right_on, table = {
        "int_right_on": ("k", "kk", INT_TABLE),
        "string": ("s", "s", STR_TABLE),
        "empty": ("k", "kk", INT_TABLE.slice(0, 0)),
    }[case]
    got = _pandas(_collect(attach(_blocks(DS), _blocks(table), on,
                                  right_on=right_on, how=how,
                                  num_partitions=4)))
    want = pandas_attach(DS, table, on, right_on, how)
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(_frame(got), _frame(want),
                                  check_dtype=False)


def test_attach_keeps_values_exact_and_typed(path):
    t = _collect(attach(_blocks(DS), _blocks(INT_TABLE), "k", right_on="kk",
                        how="left", num_partitions=4))
    assert t.schema.field("v_r").type == pa.int64()
    rows = {r["id"]: r for r in t.to_pylist()}
    # 2**53 + 1 matches itself, not the 2**53 row next to it
    assert rows[4]["v_r"] == -1 and rows[4]["w"] == "p"
    assert rows[2]["v_r"] is None  # a null key never matches


def test_attach_duplicate_table_key_raises(path):
    table = _blocks(pa.table({"kk": [1, 2, 1], "x": [0, 1, 2]}))
    for how in ("inner", "left"):
        with pytest.raises(Exception, match="kk=1 occurs more than once"):
            attach(_blocks(DS), table, "k", right_on="kk", how=how,
                   num_partitions=4).materialize()
    # a membership test does not care
    assert attach(_blocks(DS), table, "k", right_on="kk", how="semi",
                  num_partitions=4).count() == 3


def test_attach_broadcast_duplicate_raises_on_the_driver():
    table = rd.from_arrow(pa.table({"kk": [1, 1]}))
    with pytest.raises(ValueError, match="kk=1"):
        attach(_blocks(DS), table, "k", right_on="kk")


def test_attach_runs_a_lazy_table_once(path, monkeypatch):
    """The table is executed once: no schema probe re-runs its plan
    under a limit."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    def op_names(op) -> list[str]:
        return [op.name] + [n for d in op.input_dependencies
                            for n in op_names(d)]

    plans = []
    execute = StreamingExecutor.execute

    def spy(self, dag, *args, **kwargs):
        plans.append(op_names(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    table = _blocks(INT_TABLE).map_batches(lambda b: b,
                                           batch_format="pyarrow")
    got = attach(_blocks(DS), table, "k", right_on="kk", how="inner",
                 num_partitions=4).materialize()
    assert got.count() == 4
    assert plans
    assert not [p for p in plans if any("limit" in n.lower() for n in p)]


class TestJoinGuards:
    def test_attach_rejects_unknown_how(self):
        ds = rd.from_items([{"k": 1, "x": 2}])
        for how in ("right", "full_outer", "outer"):
            with pytest.raises(ValueError, match="how must be one of"):
                attach(ds, ds, "k", how=how)


def _docs(ids):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([f"t{i}" for i in ids], pa.string()),
    }))


def _assign(pairs):
    return rd.from_arrow(pa.table({
        "node": pa.array([p[0] for p in pairs], pa.int64()),
        "cluster": pa.array([p[1] for p in pairs], pa.int64()),
    }))


def test_attach_assignments_broadcast_vs_join_identical(monkeypatch):
    """The shuffle path must produce exactly the same (cluster_id, keep)
    rows as the broadcast path — forced with ``BROADCAST_ROWS = 0``."""
    ids = list(range(10))
    assigns = [(1, 0), (0, 0), (5, 3), (3, 3), (7, 3)]

    def run():
        out = attach_assignments(_docs(ids), _assign(assigns),
                                 id_col="doc_id",
                                 num_partitions=4).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    bcast = run()
    monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
    joined = run()
    pd.testing.assert_frame_equal(
        bcast[["doc_id", "cluster_id", "keep"]],
        joined[["doc_id", "cluster_id", "keep"]])
    # singletons are their own cluster and kept
    row9 = bcast[bcast.doc_id == 9].iloc[0]
    assert row9.cluster_id == 9 and bool(row9.keep)
    # matched nodes take the component min and only the min keeps
    assert bcast[bcast.doc_id == 5].iloc[0].cluster_id == 3
    assert not bool(bcast[bcast.doc_id == 5].iloc[0].keep)
    assert bool(bcast[bcast.doc_id == 3].iloc[0].keep)


def test_attach_assignments_empty_assignments():
    out = attach_assignments(_docs([4, 2]), _assign([]), id_col="doc_id") \
        .to_pandas().sort_values("doc_id")
    assert list(out.cluster_id) == [2, 4]
    assert out.keep.all()


def test_attach_assignments_is_a_map_on_the_broadcast_path():
    """The flagship's order tail needs the attach to keep ds's blocks."""
    ds = _docs(list(range(12))).repartition(3).materialize()
    out = attach_assignments(ds, _assign([(5, 3), (3, 3)]), id_col="doc_id")
    assert [b.num_rows for b in out.iter_batches(batch_size=None,
                                                  batch_format="pyarrow")] \
        == [4, 4, 4]
    assert np.array_equal(out.to_pandas()["doc_id"], np.arange(12))
