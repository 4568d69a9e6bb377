"""The benchmark's own tests: fixtures, each verification against a
corrupted output, and a tiny-size run of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import fixtures  # noqa: E402
import verify  # noqa: E402

TINY = {
    "turns_annotate": {"n_convs": 40, "n_entities": 20},
    "vocab_score": {"n_convs": 40, "n_entities": 200},
}


@pytest.fixture(scope="module")
def fixture_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fixtures"))


def _fixture(root: str, params: dict, seed: int = 3):
    spec = {"seed": seed, **params}
    path = fixtures.fixture_dir(root, spec)
    if not fixtures.is_complete(path, spec):
        fixtures.build(path, spec)
    return fixtures.files(path)


# --- fixtures ----------------------------------------------------------------

def test_fixture_deterministic_by_seed(tmp_path):
    spec = {"seed": 5, "n_convs": 6, "n_entities": 4}
    a, b, c = (str(tmp_path / n) for n in "abc")
    fixtures.build(a, spec)
    fixtures.build(b, spec)
    fixtures.build(c, {**spec, "seed": 6})
    ta, tb, tc = (pq.read_table(fixtures.files(p)[0]) for p in (a, b, c))
    assert ta.equals(tb)
    assert not ta.equals(tc)


def test_half_written_fixture_is_rebuilt(tmp_path):
    spec = {"seed": 1, "n_convs": 5, "n_entities": 3}
    path = str(tmp_path / "fx")
    fixtures.build(path, spec)
    assert fixtures.is_complete(path, spec)
    turns, _ = fixtures.files(path)
    pq.write_table(pq.read_table(turns).slice(0, 3), turns)  # truncated file
    assert not fixtures.is_complete(path, spec)
    os.remove(os.path.join(path, "meta.json"))  # interrupted before meta
    assert not fixtures.is_complete(path, spec)
    assert not fixtures.is_complete(path, {**spec, "seed": 2})
    fixtures.build(path, spec)
    assert fixtures.is_complete(path, spec)


# --- verification ------------------------------------------------------------

def test_pairwise_f1_matches_pair_sets():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred = rng.integers(0, 6, 40)
        true = rng.integers(0, 5, 40)

        def pairs(lab):
            return {(i, j) for i, j in itertools.combinations(range(len(lab)), 2)
                    if lab[i] == lab[j]}

        pp, tp = pairs(pred), pairs(true)
        prec = len(pp & tp) / len(pp)
        rec = len(pp & tp) / len(tp)
        want = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        got = verify.pairwise_f1(pa.array(pred), pa.array(true))
        assert got == pytest.approx(want)


def _good_mentions(truth: pa.Table) -> pa.Table:
    """A clustering that passes every check: one cluster per norm."""
    from chameleon_entity_linking_ray.functions.text import normalize_array

    norm = normalize_array(truth.column("surface"))
    return pa.table({
        "conv_id": truth.column("conv_id"),
        "turn_idx": truth.column("turn_idx"),
        "span_start": truth.column("span_start"),
        "surface": truth.column("surface"),
        "cluster_id": pc.dictionary_encode(norm).combine_chunks().indices
                        .cast(pa.int64()),
    })


@pytest.fixture(scope="module")
def transcripts(fixture_root):
    turns, truth = _fixture(fixture_root, TINY["turns_annotate"])
    return pq.read_table(turns), pq.read_table(truth)


def test_check_mentions_accepts_and_rejects(transcripts):
    _, truth = transcripts
    good = _good_mentions(truth)
    assert verify.check_mentions(good, truth)["pairwise_f1"] > 0
    rng = np.random.default_rng(1)
    permuted = good.set_column(
        4, "cluster_id",
        good.column("cluster_id").take(pa.array(rng.permutation(good.num_rows))))
    dropped = good.slice(1)
    duplicated = pa.concat_tables([good, good.slice(0, 1)])
    swapped = good.take(pa.array([1, 0] + list(range(2, good.num_rows))))
    for bad in (permuted, dropped, duplicated, swapped):
        with pytest.raises(verify.VerificationError):
            verify.check_mentions(bad, truth)


def _annotated(turns: pa.Table, mentions: pa.Table) -> pa.Table:
    """Annotated turns built in the driver from a mention clustering."""
    keys = verify.mention_ids(mentions).to_pylist()
    by_turn: dict[tuple, list] = {}
    for key, start, surf, cid in zip(keys, mentions.column("span_start").to_pylist(),
                                     mentions.column("surface").to_pylist(),
                                     mentions.column("cluster_id").to_pylist()):
        conv, turn, _ = key.rsplit(":", 2)
        by_turn.setdefault((conv, int(turn)), []).append(
            {"start": start, "end": start + len(surf), "surface": surf,
             "cluster_id": cid})
    ents = [by_turn.get((c, t), []) for c, t in zip(
        turns.column("conv_id").to_pylist(), turns.column("turn_idx").to_pylist())]
    ent_type = pa.list_(pa.struct([("start", pa.int32()), ("end", pa.int32()),
                                   ("surface", pa.string()),
                                   ("cluster_id", pa.int64())]))
    return turns.append_column("entities", pa.array(ents, ent_type))


def test_check_annotated_accepts_and_rejects(transcripts):
    turns, truth = transcripts
    good = _annotated(turns, _good_mentions(truth))
    verify.check_annotated(good, turns, truth)
    text = good.column("text").to_pylist()
    text[3] = text[3] + " "
    edited = good.set_column(good.column_names.index("text"), "text",
                             pa.array(text, pa.string()))
    ents = good.column("entities").to_pylist()
    hit = next(i for i, e in enumerate(ents) if e)
    ents[hit] = ents[hit][1:]
    fewer = good.set_column(good.column_names.index("entities"), "entities",
                            pa.array(ents, good.schema.field("entities").type))
    dropped_turn = pa.concat_tables([good.slice(0, 5), good.slice(6)])
    for bad in (edited, fewer, dropped_turn, good.slice(0, good.num_rows - 1)):
        with pytest.raises(verify.VerificationError):
            verify.check_annotated(bad, turns, truth)


# --- tiny-size runs through Ray ----------------------------------------------

@pytest.fixture(scope="module")
def ray_session():
    import run

    tmp_dir = run.ray_tmp_dir()
    session = run.RaySession(tmp_dir)
    yield run
    session.stop()
    shutil.rmtree(tmp_dir, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_each_workload(name, ray_session, fixture_root, tmp_path):
    import workloads

    got = workloads.run_job(_fixture(fixture_root, TINY[name]),
                            str(tmp_path / "out"))
    assert got["rows"] > 0 and 0 < got["pairwise_f1"] <= 1


def test_runner_metrics(ray_session, fixture_root, tmp_path):
    run = ray_session
    inputs = _fixture(fixture_root, TINY["vocab_score"])
    runner = run.Runner("vocab_score", inputs, inputs)
    e2e = run.end_to_end(runner, run.timed_jobs(runner, 0, 2))
    assert runner.attempted == 2 and runner.failed == 0
    assert e2e["jobs_ok_frac"] == 1.0 and e2e["job_s"] > 0
    assert len(runner.f1s) == 1

    spans = str(tmp_path / "spans.json")
    layers = run.per_layer(runner, 0, spans)
    assert os.path.exists(spans)
    for name in run.LAYERS:
        assert layers[f"{name}.s"] > 0, name
    assert layers["blocking.pairs"] > 0 and layers["extract.rows_out"] > 0
    assert 0 < layers["scoring.match_rate"] <= 1
    assert layers["write.bytes"] > 0
    assert layers["trace.unattributed_s"] >= 0
