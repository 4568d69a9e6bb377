"""``stages.fold``: one task over every block (``fold``) or one per block
(``each``), the input executed once; the output-order seam check built on
``each``; the flagship's execution count."""

import time

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.pipelines.linkage import (
    _ends,
    _seams_in_order,
    annotate_transcripts,
    run_linkage,
)
from chameleon_entity_linking_ray.stages.agg import grouped_agg
from chameleon_entity_linking_ray.stages.fold import each, fold
from chameleon_entity_linking_ray.testing.synth import make_transcripts


@pytest.fixture
def plans(monkeypatch):
    """The operator names of every Ray Data execution, one list each."""

    def op_names(op) -> list[str]:
        return [op.name] + [n for d in op.input_dependencies
                            for n in op_names(d)]

    seen = []
    execute = StreamingExecutor.execute

    def spy(self, dag, *args, **kwargs):
        seen.append(op_names(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    return seen


class TestFold:
    def test_lazy_grouped_agg_runs_once(self, plans):
        ds = rd.from_arrow(pa.table({"k": [1, 2, 1, 3, 2, 1],
                                     "v": [1, 2, 3, 4, 5, 6]})).repartition(3)
        agg = grouped_agg(ds, ["k"], {"n": ("v", "count"),
                                      "s": ("v", "sum")}, num_buckets=4)

        def total(blocks):
            t = pa.concat_tables(blocks).sort_by("k")
            return t.column("k").to_pylist(), t.column("s").to_pylist()

        assert ray.get(fold(agg, total)) == ([1, 2, 3], [10, 7, 4])
        assert len(plans) == 1
        assert not [n for n in plans[0] if "limit" in n.lower()]

    def test_materialized_input_runs_nothing(self, plans):
        ds = rd.from_arrow(pa.table({"k": [1, 2, 3]})).materialize()
        plans.clear()
        assert ray.get(fold(ds, lambda blocks, c: sum(
            b.num_rows for b in blocks) + c, 10)) == 13
        assert plans == []

    def test_skips_empty_and_columnless_blocks(self):
        typed = rd.from_arrow(pa.table({"k": [1, 2]}))
        empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
        columnless = rd.from_pandas(pd.DataFrame())
        ds = typed.union(empty, columnless, typed).materialize()

        def rows(blocks):
            return [b.to_pylist() for b in blocks]

        assert ray.get(fold(ds, rows)) == [[{"k": 1}, {"k": 2}]] * 2
        assert ray.get(fold(empty, rows)) == []

    def test_logical_block_order_with_preserve_order_off(self):
        def slow_low(batch: pa.Table) -> pa.Table:
            # low blocks finish last: completion order != logical order
            if batch.column("k")[0].as_py() < 40:
                time.sleep(0.3)
            return batch

        ctx = rd.DataContext.get_current()
        saved = ctx.execution_options.preserve_order
        ctx.execution_options.preserve_order = False
        try:
            ds = rd.from_arrow(pa.table({"k": list(range(80))})) \
                .repartition(8).map_batches(slow_low, batch_format="pyarrow")
            firsts = ray.get(fold(
                ds, lambda blocks: [b.column("k")[0].as_py() for b in blocks]))
            assert ds.context.execution_options.preserve_order is False
        finally:
            ctx.execution_options.preserve_order = saved
        assert firsts == sorted(firsts) and len(firsts) == 8


class TestEach:
    def test_one_result_per_nonempty_block_in_logical_order(self, plans):
        def slow_low(batch: pa.Table) -> pa.Table:
            if batch.column("k")[0].as_py() < 40:
                time.sleep(0.3)
            return batch

        ctx = rd.DataContext.get_current()
        saved = ctx.execution_options.preserve_order
        ctx.execution_options.preserve_order = False
        try:
            ds = rd.from_arrow(pa.table({"k": list(range(80))})) \
                .repartition(8).map_batches(slow_low, batch_format="pyarrow")
            firsts = ray.get(each(ds, lambda b, c: b.column("k")[0].as_py()
                                  + c, 1000))
        finally:
            ctx.execution_options.preserve_order = saved
        assert firsts == sorted(firsts) and len(firsts) == 8
        assert firsts[0] == 1000 and len(plans) == 1

    def test_skips_empty_and_columnless_blocks(self):
        typed = rd.from_arrow(pa.table({"k": [1, 2]}))
        empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
        columnless = rd.from_pandas(pd.DataFrame())
        ds = typed.union(empty, columnless, typed).materialize()
        assert ray.get(each(ds, pa.Table.to_pylist)) == \
            [[{"k": 1}, {"k": 2}]] * 2
        assert each(empty, pa.Table.to_pylist) == []


class TestSeams:
    KEYS = ["k", "t"]

    def _in_order(self, *rows) -> bool:
        blocks = [pa.table({"k": [r[0] for r in b], "t": [r[1] for r in b]})
                  for b in rows]
        return _seams_in_order([_ends(b, self.KEYS) for b in blocks])

    def test_blocks_in_order(self):
        assert self._in_order(
            [("a", 0), ("a", 3)], [("b", 0)], [("c", 1), ("d", 0)])

    def test_overlapping_seam(self):
        assert not self._in_order([("a", 0), ("c", 0)], [("b", 0), ("d", 0)])
        # the second key decides when the first ties
        assert not self._in_order([("a", 0), ("a", 5)], [("a", 4)])

    def test_equal_keys_across_a_seam(self):
        assert self._in_order([("a", 0), ("b", 1)], [("b", 1), ("c", 0)])

    def test_no_or_one_block(self):
        assert self._in_order()
        assert self._in_order([("z", 9)])

    def test_empty_blocks_skipped(self):
        # an empty block between two ordered ones does not break the chain:
        # ``each`` reads the ends of the two non-empty blocks only
        a = pa.table({"k": ["a", "b"], "t": [0, 0]})
        b = pa.table({"k": ["c"], "t": [0]})
        ds = rd.from_arrow(a).union(rd.from_arrow(a.slice(0, 0)),
                                    rd.from_arrow(b)).materialize()
        ends = ray.get(each(ds, _ends, self.KEYS))
        assert ends == [(("a", 0), ("b", 0)), (("c", 0), ("c", 0))]
        assert _seams_in_order(ends)


def test_flagship_job_runs_six_executions(plans, tmp_path):
    """run_linkage -> annotate_transcripts -> write_parquet: extract,
    vocab, pairs->score->edges, assign, annotate, write. The IDF table
    and the annotate lookup are fold tasks, and both order checks
    ``each`` tasks, over materialized data, not executions."""
    transcripts, _ = make_transcripts(n_convs=40, n_entities=10, seed=42)
    ds = rd.from_arrow(transcripts).select_columns(
        ["conv_id", "turn_idx", "text"])
    clustered, _ = run_linkage(ds, LinkageConfig())
    out = annotate_transcripts(rd.from_arrow(transcripts), clustered)
    out.write_parquet(str(tmp_path))
    assert len(plans) <= 6, [" <- ".join(p) for p in plans]
    assert not [p for p in plans if any("limit" in n.lower() for n in p)]
