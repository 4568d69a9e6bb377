"""Reference-format ingest surface (SURVEY.md S1-S5) — the readers a user
of the reference repo needs to load their EXISTING files into the engine:

- ``read_id_text_tsv``      collection.tsv / queries.*.tsv (``id\\ttext``,
  /root/reference/BiEncoder/train.py:49-64)
- ``read_entity_literal_tsv`` entity-annotation TSV whose second column is a
  Python-literal list of TAGME dicts; the reference ``eval()``s it
  (/root/reference/BiEncoder/train.py:67-82) — we parse with
  ``ast.literal_eval`` (no code execution) into a typed Arrow list<struct>
- ``read_trec_run``         TREC run files ``qid Q0 pid rank score tag``
  (/root/reference/BiEncoder/test.py:63-79, utils/merge_results.py:6-20)
- ``read_jsonl_gz``         gzip-JSONL hard negatives {qid, pos, neg{sys}}
  (/root/reference/BiEncoder/train.py:92-126), normalized to long format
- ``read_score_pickle_gz``  gzip-pickle (qid,pid)->score teacher cache
  (/root/reference/BiEncoder/train.py:86-89)
- ``join_teacher_scores``   the T7/J7 broadcast score lookup
  (/root/reference/BiEncoder/model.py:426-427)

All text readers are line-distributed (``ray.data.read_text`` splits by
line) with vectorized Arrow splits; only the literal/JSON parses are
per-row Python (the parse itself is irreducibly per-record — it happens
once at the ingest boundary, inside parallel tasks, never on the driver).
gzip members are not splittable, so ``read_jsonl_gz`` parallelizes across
FILES — shard big negative dumps into many .gz parts.
"""

from __future__ import annotations

import ast
import gzip
import io
import json
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import Dataset

from chameleon_entity_linking_ray.stages.shuffle import bucketed

ENTITY_STRUCT = pa.struct([
    ("spot", pa.string()),
    ("title", pa.string()),
    ("start", pa.int32()),
    ("end", pa.int32()),
    ("rho", pa.float32()),
    ("page_id", pa.int64()),
])


def read_id_text_tsv(path: str, id_col: str = "id", text_col: str = "text",
                     id_as_int: bool = True) -> Dataset:
    """``id\\ttext`` lines -> Dataset(id, text). Matches the reference's
    ``line.strip().split("\\t")`` parse: the line is trimmed, the FIRST tab
    splits (a tab inside the text crashes the reference; we keep the rest
    intact — documented divergence)."""

    def parse(batch: pa.Table) -> pa.Table:
        lines = pc.utf8_trim_whitespace(batch.column("text"))
        parts = pc.split_pattern(lines, "\t", max_splits=1)
        ids = pc.list_element(parts, 0)
        # second element may be missing on malformed lines -> null
        texts = pc.if_else(pc.greater(pc.list_value_length(parts), 1),
                           pc.list_element(parts, 1), pa.scalar("", pa.string()))
        if id_as_int:
            ids = pc.cast(ids, pa.int64())
        return pa.table({id_col: ids, text_col: texts})

    return ray.data.read_text(path).map_batches(parse, batch_format="pyarrow")


def _annotation_rows(literal: str) -> list[dict]:
    """One TSV annotation cell -> typed dicts. ``ast.literal_eval`` replaces
    the reference's ``eval`` (train.py:73 — same accepted grammar for data,
    no code execution); field fallbacks mirror
    /root/reference/BiEncoder/model.py:404 (title falls back to spot)."""
    out = []
    for d in ast.literal_eval(literal):
        spot = d.get("spot")
        out.append({
            "spot": spot,
            "title": d.get("title", spot),
            "start": int(d.get("start", -1)),
            "end": int(d.get("end", -1)),
            "rho": float(d.get("rho", 0.0)),
            "page_id": int(d.get("id", -1)),
        })
    return out


def read_entity_literal_tsv(path: str, id_col: str = "id",
                            id_as_int: bool = True) -> Dataset:
    """``id\\t<python-literal list of TAGME dicts>`` -> Dataset(id,
    entities: list<struct>, status). The typed-Arrow replacement for the
    reference's ``eval()``-parsed dicts (SURVEY.md S2). A malformed cell
    does NOT crash the task (the reference would die on the whole file):
    the row gets ``entities=[]`` and an error ``status`` — route it through
    ``stages.deadletter.split_dead_letters`` for the S9 side sink."""

    def parse(batch: pa.Table) -> pa.Table:
        lines = pc.utf8_trim_whitespace(batch.column("text"))
        parts = pc.split_pattern(lines, "\t", max_splits=1)
        ids = pc.list_element(parts, 0)
        if id_as_int:
            ids = pc.cast(ids, pa.int64())
        cells = pc.if_else(pc.greater(pc.list_value_length(parts), 1),
                           pc.list_element(parts, 1),
                           pa.scalar("", pa.string())).to_pylist()
        rows, status = [], []
        for c in cells:
            try:
                rows.append(_annotation_rows(c))
                status.append("ok")
            except (ValueError, SyntaxError, TypeError, KeyError,
                    AttributeError) as exc:
                rows.append([])
                status.append(f"parse_error: {type(exc).__name__}")
        return pa.table({
            id_col: ids,
            "entities": pa.array(rows, type=pa.list_(ENTITY_STRUCT)),
            "status": pa.array(status, pa.string()),
        })

    return ray.data.read_text(path).map_batches(parse, batch_format="pyarrow")


def read_trec_run(path: str) -> Dataset:
    """TREC run lines ``qid Q0 pid rank score tag`` -> Dataset(qid, pid,
    rank, score, tag). qid/pid stay STRINGS (the reference treats them as
    opaque tokens); score is float64 — numeric semantics, not the
    string-sort quirk of merge_results.py:24 (SURVEY.md O2)."""

    def parse(batch: pa.Table) -> pa.Table:
        lines = pc.utf8_trim_whitespace(batch.column("text"))
        parts = pc.split_pattern_regex(lines, r"\s+")
        return pa.table({
            "qid": pc.list_element(parts, 0),
            "pid": pc.list_element(parts, 2),
            "rank": pc.cast(pc.list_element(parts, 3), pa.int64()),
            "score": pc.cast(pc.list_element(parts, 4), pa.float64()),
            "tag": pc.list_element(parts, 5),
        })

    return ray.data.read_text(path).map_batches(parse, batch_format="pyarrow")


def read_jsonl_gz(paths: str | list[str]) -> Dataset:
    """gzip-JSONL hard negatives -> LONG normalized Dataset(qid, kind,
    system, pid, pos_in_list). ``kind``: "pos" rows carry system="";
    "neg" rows carry their mining system name. One task per file (gzip is
    not splittable); shard large dumps into many .gz parts."""

    def parse_files(batch: pa.Table) -> pa.Table:
        qids, kinds, systems, pids, ranks = [], [], [], [], []
        for payload in batch.column("bytes").to_pylist():
            # some readers auto-decompress by extension — dispatch on the
            # gzip magic so both raw and pre-inflated payloads parse
            if payload[:2] == b"\x1f\x8b":
                stream = gzip.open(io.BytesIO(payload), "rt")
            else:
                stream = io.TextIOWrapper(io.BytesIO(payload))
            with stream as f:
                for line in f:
                    if not line.strip():
                        continue
                    data = json.loads(line)  # never eval, even LOCAL-mode
                    qid = int(data["qid"])
                    for i, pid in enumerate(data.get("pos", [])):
                        qids.append(qid)
                        kinds.append("pos")
                        systems.append("")
                        pids.append(int(pid))
                        ranks.append(i)
                    for system, negs in data.get("neg", {}).items():
                        for i, pid in enumerate(negs):
                            qids.append(qid)
                            kinds.append("neg")
                            systems.append(system)
                            pids.append(int(pid))
                            ranks.append(i)
        return pa.table({
            "qid": pa.array(qids, pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "system": pa.array(systems, pa.string()),
            "pid": pa.array(pids, pa.int64()),
            "pos_in_list": pa.array(ranks, pa.int32()),
        })

    return ray.data.read_binary_files(paths).map_batches(
        parse_files, batch_format="pyarrow", batch_size=1)


def select_hard_negatives(ds: Dataset, negs_to_use: list[str],
                          num_negs_per_system: int = 4,
                          num_buckets: int = 16) -> Dataset:
    """Reference negative selection (/root/reference/BiEncoder/train.py:
    100-122) over the long format: per qid keep all pos pids, then walk
    the systems IN ``negs_to_use`` ORDER, adding up to
    ``num_negs_per_system`` per system, skipping pids already added
    (cross-system dedup counts only NEW pids toward a system's cap —
    faithful to the reference's ``negs_added`` loop). Emits (qid, pid,
    label) with label 1.0 for pos, 0.0 for neg."""
    sys_order = {s: i for i, s in enumerate(negs_to_use)}

    def per_bucket(g: pa.Table) -> pa.Table:
        out_q, out_p, out_l = [], [], []
        for qid, sub in g.to_pandas().groupby("qid", sort=False):
            pos = sub.loc[sub["kind"] == "pos"] \
                .sort_values("pos_in_list", kind="mergesort")["pid"].tolist()
            neg = sub.loc[(sub["kind"] == "neg") &
                          sub["system"].isin(sys_order)].copy()
            neg["__sys"] = neg["system"].map(sys_order)
            neg = neg.sort_values(["__sys", "pos_in_list"], kind="mergesort")
            seen: set = set()
            kept = []
            for system, srows in neg.groupby("__sys", sort=True):
                added = 0
                for pid in srows["pid"]:
                    if pid not in seen:
                        seen.add(pid)
                        kept.append(pid)
                        added += 1
                        if added >= num_negs_per_system:
                            break
            if pos and kept:  # reference keeps qids with both sides only
                out_q += [qid] * (len(pos) + len(kept))
                out_p += pos + kept
                out_l += [1.0] * len(pos) + [0.0] * len(kept)
        return pa.table({"qid": np.asarray(out_q, np.int64),
                         "pid": np.asarray(out_p, np.int64),
                         "label": np.asarray(out_l, np.float64)})

    return bucketed(ds, ["qid"], per_bucket, num_buckets)


def read_score_pickle_gz(path: str) -> Dataset:
    """gzip-pickle ``{qid: {pid: score}}`` (or ``{(qid,pid): score}``) ->
    Dataset(qid, pid, ce_score). The teacher cache is small-side by
    contract (it only covers training pairs); it is loaded once and
    becomes a normal Dataset for joining/broadcast."""
    with gzip.open(path, "rb") as f:
        scores = pickle.load(f)
    qids, pids, vals = [], [], []
    for k, v in scores.items():
        if isinstance(v, dict):  # nested {qid: {pid: score}}
            for pid, s in v.items():
                qids.append(int(k))
                pids.append(int(pid))
                vals.append(float(s))
        else:  # flat {(qid, pid): score}
            qids.append(int(k[0]))
            pids.append(int(k[1]))
            vals.append(float(v))
    return ray.data.from_arrow(pa.table({
        "qid": pa.array(qids, pa.int64()),
        "pid": pa.array(pids, pa.int64()),
        "ce_score": pa.array(vals, pa.float64()),
    }))


def join_teacher_scores(pairs: Dataset, scores: Dataset,
                        left_cols: tuple[str, str] = ("qid", "pid"),
                        out_col: str = "ce_score",
                        default: float = float("nan")) -> Dataset:
    """T7/J7: attach the teacher score to every (qid, pid) pair — the
    engine form of ``ce_scores[qid][pid]``
    (/root/reference/BiEncoder/model.py:426-427). The score table is
    broadcast ONCE as a pandas MultiIndex + value array (``ray.put``);
    each task probes it with the vectorized ``get_indexer`` — no shuffle
    of the pair stream, no per-row dict probes."""
    sdf = scores.to_pandas()
    idx = pd.MultiIndex.from_arrays([sdf["qid"].to_numpy(np.int64),
                                     sdf["pid"].to_numpy(np.int64)])
    vals = sdf[out_col if out_col in sdf.columns else "ce_score"] \
        .to_numpy(np.float64)
    ref = ray.put((idx, vals))

    def attach(batch: pa.Table) -> pa.Table:
        index, values = ray.get(ref)
        probe = pd.MultiIndex.from_arrays([
            batch.column(left_cols[0]).to_numpy(zero_copy_only=False),
            batch.column(left_cols[1]).to_numpy(zero_copy_only=False)])
        pos = index.get_indexer(probe)
        out = np.where(pos >= 0, values[np.clip(pos, 0, None)], default)
        return batch.append_column(out_col, pa.array(out, pa.float64()))

    return pairs.map_batches(attach, batch_format="pyarrow")


def read_page_link_tsv(path: str) -> Dataset:
    """Reference ``page_link.tsv`` graph format -> Dataset(src:int64,
    dst:int64) with the REVERSED-edge build (S6 format parity): the
    adjacency key is the SECOND column —
    /root/reference/utils/entity_expander.py:31-35 builds
    ``linked_pages[int(pair[1])].append(int(pair[0]))`` and the CSR
    build :57-59 likewise appends ``(pair[1], pair[0])`` — so an edge
    ``src -> dst`` is stored in the file as the line ``dst\\tsrc``.

    The reference skips the header via ``lines[1:]``; under a parallel
    read no block owns "the first line", so the header is dropped by a
    both-columns-integer regex filter instead (equivalent on any header
    whose columns are not both bare integers, which the reference
    format guarantees)."""

    def parse(batch: pa.Table) -> pa.Table:
        lines = pc.utf8_trim_whitespace(batch.column("text"))
        kept = lines.filter(pc.match_substring_regex(lines,
                                                     r"^\d+\t\d+$"))
        parts = pc.split_pattern(kept, "\t")
        return pa.table({
            "src": pc.cast(pc.list_element(parts, 1), pa.int64()),
            "dst": pc.cast(pc.list_element(parts, 0), pa.int64())})

    return ray.data.read_text(path).map_batches(parse,
                                                batch_format="pyarrow")
