"""``stages.fold``: one task over every block (``fold``) or one per block
(``each``), the input executed once; the output-order seam check built on
``each``; the flagship's execution count; the corpus and curation
queries whose reductions run on ``fold``; the guards that keep every
Ray task in ``fold`` and every keyed shuffle in ``shuffle.bucketed``, and
the queries whose keyed shuffles run on ``bucketed``."""

import ast
import re
import sys
import time
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd
from ray.data._internal.execution.streaming_executor import StreamingExecutor

import chameleon_entity_linking_ray
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from check_oracle import RERUNS, run_sweep, sweep_costs  # noqa: E402

SF = "/root/testdata/sf0.001"


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

    def test_num_returns_gives_one_ref_per_item(self, plans):
        ds = rd.from_arrow(pa.table({"k": [3, 1, 2, 5]})).repartition(2)

        def count_and_sort(blocks):
            return (sum(b.num_rows for b in blocks),
                    pa.concat_tables(blocks).sort_by("k"))

        n_ref, table_ref = fold(ds, count_and_sort, num_returns=2)
        assert ray.get(n_ref) == 4
        assert ray.get(table_ref).column("k").to_pylist() == [1, 2, 3, 5]
        assert len(plans) == 1

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


# each ran a fold task over ``to_arrow_refs()``, which re-ran its input
# up to a ``limit=1`` operator for the schema
FOLD_QUERIES = ["doc_logprob", "dup_spans", "rerank_bm25", "dsir_logratio",
                "decontaminate", "approx_distinct", "heavy_hitters",
                "fs_weights", "blocking_stats", "embedding_near_dups",
                "embedding_near_dups_lsh"]


@pytest.mark.parametrize("query", FOLD_QUERIES)
def test_fold_query_runs_no_schema_probe(plans, query):
    """The query matches its DuckDB oracle, and no execution of it ends
    in a ``limit`` operator."""
    assert run_sweep(SF, only={query}) == []
    assert plans
    assert not [p for p in plans if any("limit" in n.lower() for n in p)], \
        [" <- ".join(p) for p in plans]


def test_no_hand_written_fold_tasks():
    """No package module defines a Ray task or calls ``to_arrow_refs``,
    except ``stages/fold.py`` and the sorted-neighbourhood chain of
    ``stages/blocking.py`` (block to block, not a fold)."""
    root = Path(chameleon_entity_linking_ray.__file__).parent
    allowed = {"stages/blocking.py": {"_snm_tail", "_snm_window_pairs",
                                      "sorted_neighborhood_pairs"}}
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "stages/fold.py":
            continue
        for top in ast.parse(path.read_text()).body:
            name = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and (
                        node.attr == "to_arrow_refs"
                        or (node.attr == "remote"
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "ray")) \
                        and name not in allowed.get(rel, ()):
                    found.append(f"{rel}:{node.lineno} in {name}")
    assert found == []


def test_no_map_groups_outside_shuffle():
    """Every keyed shuffle runs on ``stages/shuffle.bucketed``: no other
    package module calls ``map_groups``."""
    root = Path(chameleon_entity_linking_ray.__file__).parent
    found = [f"{path.relative_to(root).as_posix()}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             if path.relative_to(root).as_posix() != "stages/shuffle.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr == "map_groups"]
    assert found == []


class TestCheckOracleReruns:
    """check_oracle counts a ``limit=1`` plan only when it re-runs
    operators the same query already ran."""

    def test_a_real_rerun_is_counted(self):
        with sweep_costs() as tally:
            ds = rd.range(8).map_batches(lambda b: b)
            ds.take_all()
            ds.take(1)  # runs the read and the map again, up to limit=1
            assert tally()[RERUNS] == 1
            rd.range(8).map_batches(lambda b: b).take(1)  # a first run
            assert tally()[RERUNS] == 0
        assert tally.totals[RERUNS] == 1

    def test_single_execution_ending_in_limit_is_not(self, plans):
        """``tf_cosine_pairs``' ``Dataset.sum`` is one execution that
        ends in ``limit=1``; it re-runs nothing."""
        lines = []
        assert run_sweep(SF, only={"tf_cosine_pairs"},
                         echo=lines.append) == []
        assert [p for p in plans if "limit=1" in p[0]]
        assert f"{RERUNS}: 0;" in lines[0], lines[0]


# queries that run a keyed shuffle ported onto ``bucketed``; before the
# port the copurchase graph queries and stringsort_rank_quirk logged
# "Failed to hash the schemas" (pandas metadata from a pandas
# ``map_groups`` reaching the next shuffle)
BUCKETED_QUERIES = [
    "asof_events_orders", "asof_next_event", "sessionize_events",
    "funnel_events", "event_lift", "event_transitions",
    "rolling_user_window", "moving_avg_user", "user_running_total",
    "event_pairs_within", "segment_percentiles", "throttle_events",
    "merge_upsert", "snapshot_diff", "user_value_history",
    "row_number_orders", "user_gaps", "user_event_paths",
    "stringsort_rank_quirk", "topk_per_customer", "priority_mode",
    "triangles_copurchase", "kcore_copurchase", "page_link_degrees",
    "bfs_copurchase", "dfs_copurchase", "expanded_edges_dfs",
    "ppr_copurchase", "degree_histogram", "edge_overlap",
    "dedup_exact", "simhash_dup_pairs", "edit_distance_pairs",
    "damerau_pairs", "jw_name_pairs", "golden_records",
    "linkage_parts_surfaces", "pack_sequences", "train_interleave",
    "train_rotation", "budget_sample", "curation_funnel",
    "hard_negative_pairs", "ir_metrics"]


@pytest.mark.parametrize("query", BUCKETED_QUERIES)
def test_bucketed_query_matches_oracle_without_hash_warnings(query):
    lines = []
    assert run_sweep(SF, only={query}, echo=lines.append) == [], lines
    verdict = next(line for line in lines if f" {query}:" in str(line))
    assert re.search(r'"Failed to hash the schemas" warnings: 0\b',
                     verdict), verdict
