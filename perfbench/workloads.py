"""The benchmark's jobs, driven through the package's public functions.

Every job reads the transcript Parquet, links its mentions, annotates the
turns with their clusters, writes the annotated turns as Parquet, reads
them back and verifies them. The untraced job is what a user runs:
``run_linkage_on_parquet`` then ``annotate_transcripts`` then the write.
The traced job calls each layer's public function in turn and materializes
its output, so a span per layer can be recorded; it exists for the
per-layer metrics only.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import pyarrow.parquet as pq
import ray
import ray.data

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.pipelines.linkage import (
    annotate_transcripts,
    assign_clusters,
    extract_mentions,
    generate_pairs,
    matched_edges,
    run_linkage_on_parquet,
    score_pairs,
)
from chameleon_entity_linking_ray.stages.cluster import connected_components
from chameleon_entity_linking_ray.stages.stats import build_idf_stats
from chameleon_entity_linking_ray.stages.vocab import build_vocab

import verify

# the defaults a caller gets, input block count included: reading the one
# input file as a single block keeps job times from tracking how many idle
# cores a shared host has (see README.md, "Input blocks")
CONFIG = LinkageConfig()


# workload name -> testing.synth.make_transcripts arguments (the seed comes
# from the command line). Both run the same job; the catalogue size sets how
# much blocking and scoring work there is.
WORKLOADS = {
    "turns_annotate": {"n_convs": 2000, "n_entities": 20},
    "vocab_score": {"n_convs": 1200, "n_entities": 300},
}


class Tracer:
    """In-memory spans (name, start, end, parent) and per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.failed_in: str | None = None  # innermost span an error left
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(),
               "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        except BaseException:
            self.failed_in = self.failed_in or name
            raise
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value


def _materialize_in_order(ds):
    """``materialize()`` keeping logical block order, as the pipeline does
    for the mention table (the range-partitioned output relies on it)."""
    opts = ds.context.execution_options
    saved = opts.preserve_order
    opts.preserve_order = True
    try:
        out = ds.materialize()
    finally:
        opts.preserve_order = saved
    out.context.execution_options.preserve_order = saved
    return out


def _read_turns(path: str, columns=None):
    return ray.data.read_parquet(path, columns=columns)


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _verify(out_dir: str, inputs: tuple[str, str]) -> dict:
    return verify.check_annotated(pq.read_table(out_dir),
                                  pq.read_table(inputs[0]),
                                  pq.read_table(inputs[1]))


def run_job(inputs: tuple[str, str], out_dir: str) -> dict:
    """Untraced job: the one-call public pipeline, annotate, write, verify."""
    clustered, _ = run_linkage_on_parquet(inputs[0], CONFIG)
    annotate_transcripts(_read_turns(inputs[0]), clustered,
                         CONFIG).write_parquet(out_dir)
    return _verify(out_dir, inputs)


def run_job_traced(inputs: tuple[str, str], out_dir: str, tr: Tracer) -> dict:
    """Traced job: each layer called and materialized in turn."""
    cfg, path = CONFIG, inputs[0]
    with tr.span("job"):
        with tr.span("extract"):
            mentions = _materialize_in_order(extract_mentions(
                _read_turns(path, ["conv_id", "turn_idx", "text"]), cfg))
        tr.count("extract.rows_out", mentions.count())
        with tr.span("vocab"):
            vocab = build_vocab(mentions).materialize()
        tr.count("vocab.rows_out", vocab.count())
        with tr.span("blocking"):
            pairs = generate_pairs(vocab, cfg).materialize()
        n_pairs = pairs.count()
        tr.count("blocking.pairs", n_pairs)
        with tr.span("stats"):
            stats_ref = ray.put(build_idf_stats(vocab, cfg))
        with tr.span("scoring") as sp:
            scored = score_pairs(pairs, cfg, stats_ref).materialize()
        tr.count("scoring.pairs_per_s", n_pairs / (sp["end"] - sp["start"]))
        with tr.span("edges"):
            edges = matched_edges(scored, cfg).materialize()
        tr.count("scoring.match_rate", edges.count() / max(n_pairs, 1))
        with tr.span("cluster"):
            assignments, stats = connected_components(
                edges, num_partitions=cfg.num_hash_buckets,
                max_rounds=cfg.max_cc_rounds)
            assignments = assignments.materialize()
        tr.count("cluster.rounds", stats["cc_rounds"])
        with tr.span("assign"):
            clustered = assign_clusters(mentions, assignments, cfg).materialize()
        with tr.span("annotate"):
            annotated = annotate_transcripts(_read_turns(path), clustered,
                                             cfg).materialize()
        with tr.span("write"):
            annotated.write_parquet(out_dir)
        tr.count("write.bytes", _dir_bytes(out_dir))
        with tr.span("verify"):
            checks = _verify(out_dir, inputs)
    tr.count("cluster.largest_share", checks["largest_share"])
    return checks
