#!/usr/bin/env python
"""Benchmark harness — prints ONE JSON line per run.

    python bench.py              # headline pipelines over $GRAFT_SF_DIR
    python bench.py --scaling    # linkage throughput at 4 vs 16 CPUs (N vs 4N)
                                 # (fresh processes, same input) + efficiency
    python bench.py --scaling-sf1  # same N-vs-4N protocol at 8 vs 32 CPUs on
                                 # the 10x corpus (~400M turns) — the north
                                 # rule's evidence at stress scale
    python bench.py --linkage-only   # child mode used by --scaling

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# deterministic synthetic transcript corpus for the linkage headline
# (the sf dirs carry no transcript table; see TESTDATA.md / FIXTURES.md).
# Sized so real pipeline compute dominates scheduling latency — the point
# of the scaling run is the asymptote a 10^12-turn corpus lives in.
# (4M convs since round 2: the round-1 size left fixed per-run costs at
# ~5% of the 16-cpu wall, which capped measurable efficiency.)
BENCH_CONVS = 4_000_000        # ~40M turns
BENCH_ENTITIES = 8000
BENCH_SEED = 42
# --scaling-sf1: 10x the bench corpus (~400M turns) — per-run fixed costs
# (fixture open, pool spawn) drop below 1% of wall, so the measured ratio
# is the engine's asymptote, the regime a 10^12-turn corpus lives in
SF1_CONVS = BENCH_CONVS * 10

QUERY_NAMES = [
    "q1_pricing", "segment_revenue", "events_daily", "topk_per_customer",
    "merge_runs", "doc_langid", "minhash_dup_pairs", "ngram_jaccard_pairs",
    "ann_topk", "ir_metrics", "linkage_parts", "asof_events_orders",
    "sessionize_events", "pack_sequences", "top_ngrams", "exact_percentiles",
    "rolling_user_window", "event_pairs_within", "simhash_dup_pairs",
    "rank_orders", "decontaminate",
    "row_number_orders", "moving_avg_user", "heavy_hitters", "bm25_topk",
    "user_event_paths",
    "rerank_bm25", "snm_pairs", "funnel_events", "damerau_pairs",
    "jw_name_pairs", "dedup_parts_snm",
    # round 4: model-backed scorer pool, M5 conformance, tf cosine join
    "model_pair_scores", "entity_span_quirk", "tf_cosine_pairs",
    # round 4 session 2: O6 rotation, curation funnel, int8 embeddings
    "train_interleave", "train_rotation", "curation_funnel",
    "embedding_quantize", "ann_topk_int8", "dsir_logratio",
    "kcore_copurchase", "stringsort_rank_quirk", "psi_drift", "dq_checks",
]


def _init_ray(num_cpus: int) -> None:
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def _bench_fixture(convs: int = BENCH_CONVS) -> tuple[str, int]:
    """Deterministic transcript parquet dir, generated DISTRIBUTED by the
    synth source and cached by params (both scaling children must read the
    identical input). Requires an initialized Ray session."""
    path = (f"/tmp/graft_bench/transcripts_c{convs}_e{BENCH_ENTITIES}"
            f"_s{BENCH_SEED}")
    meta = path + ".rows"
    if os.path.isdir(path) and os.path.exists(meta):
        return path, int(open(meta).read())
    from chameleon_entity_linking_ray.sources.synth import synth_transcripts
    ds = synth_transcripts(convs, n_entities=BENCH_ENTITIES,
                           seed=BENCH_SEED)
    tmp = path + ".tmp"
    ds.write_parquet(tmp)
    import ray.data
    n_rows = ray.data.read_parquet(tmp).count()
    os.replace(tmp, path)
    open(meta, "w").write(str(n_rows))
    return path, n_rows


def _warm_workers(num_cpus: int) -> None:
    """Spin up the worker pool + heavy imports BEFORE the timed section so
    the measurement sees steady-state throughput, not cold-start."""
    import ray.data

    def warm(batch):
        import numpy, pandas  # noqa: F401
        from chameleon_entity_linking_ray.stages import (  # noqa: F401
            blocking, cluster, extract, scoring)
        return batch

    ray.data.range(num_cpus * 4, override_num_blocks=num_cpus * 4) \
        .map_batches(warm, batch_format="pyarrow").materialize()


import ray  # noqa: E402


def run_linkage_bench(num_cpus: int, convs: int = BENCH_CONVS) -> dict:
    from chameleon_entity_linking_ray.pipelines.linkage import run_linkage_on_parquet
    path, n_turns = _bench_fixture(convs)
    _warm_workers(num_cpus)
    t0 = time.time()
    clustered, _ = run_linkage_on_parquet(
        path, num_blocks=128 if convs <= BENCH_CONVS else 512)
    n_mentions = clustered.count()
    sec = time.time() - t0
    return {"turns": n_turns, "mentions": n_mentions,
            "sec": round(sec, 3), "turns_per_sec": round(n_turns / sec, 1)}


def run_queries(sf_dir: str) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    out = {}
    for name in QUERY_NAMES:
        t0 = time.time()
        ds = qs[name](sf_dir)
        n = ds.count() if hasattr(ds, "count") else len(ds)
        out[name] = round(time.time() - t0, 3)
        out[name + "_rows"] = int(n)
    return {k: v for k, v in out.items() if not k.endswith("_rows")}, \
           {k[:-5]: v for k, v in out.items() if k.endswith("_rows")}


def _interleaved_children(label: str, lo: int, hi: int, repeats: int,
                          warmup: bool, timeout: int,
                          env: dict | None = None) -> dict[int, list]:
    """Run ``--linkage-only`` children at ``lo`` and ``hi`` CPUs, ``repeats``
    interleaved pairs (plus one discarded first pair when ``warmup``), and
    return each level's parsed JSON results. A child that prints no JSON
    raises with its return code and stderr tail instead of an IndexError."""
    samples: dict[int, list] = {lo: [], hi: []}
    for rnd in range(repeats + int(warmup)):
        # alternate within-pair order so neither level systematically
        # runs on the fresher machine
        for cpus in ((lo, hi) if rnd % 2 == 0 else (hi, lo)):
            child_env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus), **(env or {}))
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--linkage-only"],
                env=child_env, capture_output=True, text=True, timeout=timeout)
            lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
            if not lines:
                sys.stderr.write(
                    f"{label} child (cpus={cpus}) exited rc={proc.returncode}"
                    f" with no JSON; stderr tail:\n"
                    + "\n".join(proc.stderr.splitlines()[-40:]) + "\n")
                raise RuntimeError(f"{label} child failed at cpus={cpus}")
            if rnd > 0 or not warmup:  # round 0 is the discarded warmup pair
                samples[cpus].append(json.loads(lines[-1]))
            time.sleep(20)  # let raylet teardown + spill cleanup settle
    return samples


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--scaling-sf1", action="store_true")
    ap.add_argument("--linkage-only", action="store_true")
    args = ap.parse_args()

    if args.linkage_only:
        convs = int(os.environ.get("GRAFT_BENCH_CONVS", str(BENCH_CONVS)))
        _init_ray(NUM_CPUS)
        res = run_linkage_bench(NUM_CPUS, convs)
        res["num_cpus"] = NUM_CPUS
        print(json.dumps(res))
        import ray
        ray.shutdown()
        return

    if args.scaling_sf1:
        # north-rule evidence at stress scale: the SAME flagship job on the
        # 10x corpus (~400M turns) at N vs 4N CPUs, fresh processes,
        # interleaved pairs. Levels default to 4 vs 16 — the SAME levels as
        # the sf0.1 protocol, for the same reason: 8-vs-32 saturates this
        # single node's memory/shuffle bandwidth (measured: the 32-cpu arm
        # hits ~900k turns/s, the node ceiling, so the ratio measures the
        # VM, not the engine — BENCH_scaling_sf1_8v32.json). Override with
        # GRAFT_SF1_LEVELS="8,32". No warmup pair here: at ~10-30 min per
        # run the per-run fixed costs the sf0.1 protocol discards are <1%
        # of wall, and fixture generation itself leaves the page cache
        # warm for every child equally.
        lo, hi = (int(x) for x in
                  os.environ.get("GRAFT_SF1_LEVELS", "4,16").split(","))
        assert hi == 4 * lo, "sf1 scaling protocol is N vs 4N"
        _init_ray(NUM_CPUS)
        _bench_fixture(SF1_CONVS)
        import ray
        ray.shutdown()
        repeats = int(os.environ.get("GRAFT_SCALING_SF1_REPEATS", "2"))
        # the low arm at 2 cpus runs ~45 min healthy on 400M turns; leave
        # headroom for a degraded host window
        samples = _interleaved_children(
            "sf1", lo, hi, repeats, warmup=False, timeout=10800,
            env={"GRAFT_BENCH_CONVS": str(SF1_CONVS)})

        def median(vals: list[float]) -> float:
            vals = sorted(vals)
            m = len(vals) // 2
            return vals[m] if len(vals) % 2 else (vals[m - 1] + vals[m]) / 2

        pair_effs = [
            (samples[hi][i]["turns_per_sec"] / samples[lo][i]["turns_per_sec"])
            / 4 for i in range(len(samples[lo]))]
        print(json.dumps({
            "metric": "linkage_scaling_efficiency_sf1",
            "value": round(median(pair_effs), 3), "unit": "ratio",
            "turns": samples[lo][0]["turns"], "num_cpus": [lo, hi],
            "protocol": (f"10x corpus, interleaved x{repeats}, efficiency = "
                         "median over per-pair ratios (adjacent runs share "
                         "machine conditions); no warmup pair — fixed costs "
                         "<1% of wall at this size"),
            "pair_efficiencies": [round(e, 3) for e in pair_effs],
            "turns_per_sec": {
                f"cpus{lo}_median": median([r["turns_per_sec"]
                                            for r in samples[lo]]),
                f"cpus{hi}_median": median([r["turns_per_sec"]
                                            for r in samples[hi]])},
            "spread": {str(c): [r["turns_per_sec"] for r in samples[c]]
                       for c in (lo, hi)}}))
        return

    if args.scaling:
        # build the fixture cache once so both children read identical input
        _init_ray(NUM_CPUS)
        _bench_fixture()
        import ray
        ray.shutdown()
        # N and 4N: at 4 CPUs every stage (including shuffles) is CPU-bound,
        # so the ratio measures the engine, not this VM's memory bandwidth
        # (8 vs 32 saturates the single node's shuffle bandwidth — see
        # BASELINE.md for both measurements).
        # SYMMETRIC protocol (round-2 ADVICE): both levels run the same
        # number of times, interleaved (4,16, 4,16, ...), the MEDIAN of each
        # level is compared, and the per-level spread is reported alongside
        # the ratio — no per-level best-of selection, no ordering bias.
        # one UNTIMED warmup pair first (both levels, same order) — the
        # very first child after fixture generation pays page-cache and
        # worker-spawn costs that are not the engine's; discarding one
        # pair for BOTH levels keeps the protocol symmetric.
        repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "5"))
        samples = _interleaved_children("scaling", 4, 16, repeats,
                                        warmup=True, timeout=1800)

        def median(vals: list[float]) -> float:
            vals = sorted(vals)
            m = len(vals) // 2
            return vals[m] if len(vals) % 2 else (vals[m - 1] + vals[m]) / 2

        # efficiency per ADJACENT pair: this host drifts 20-30% over the
        # ~40 min the protocol takes (measured: the 4-cpu level alone
        # degraded 174k->131k turns/s across a session); each interleaved
        # pair runs back-to-back under near-identical machine conditions,
        # so the per-pair ratio isolates the ENGINE's scaling from the
        # host drift, and the median over pairs is reported. Both levels
        # get identical treatment (same count, same order, no selection).
        pair_effs = [
            (samples[16][i]["turns_per_sec"] / samples[4][i]["turns_per_sec"]) / 4
            for i in range(len(samples[4]))]
        eff = median(pair_effs)
        thr_n = median([r["turns_per_sec"] for r in samples[4]])
        thr_4n = median([r["turns_per_sec"] for r in samples[16]])
        spread = {str(c): {"min": min(r["turns_per_sec"] for r in samples[c]),
                           "max": max(r["turns_per_sec"] for r in samples[c]),
                           "all": [r["turns_per_sec"] for r in samples[c]]}
                  for c in (4, 16)}
        print(json.dumps({
            "metric": "linkage_scaling_efficiency", "value": round(eff, 3),
            "unit": "ratio", "sf": SF_DIR, "num_cpus": [4, 16],
            "protocol": (f"1 discarded warmup pair + interleaved x{repeats}; "
                         "efficiency = median over per-pair ratios "
                         "(adjacent runs share machine conditions)"),
            "pair_efficiencies": [round(e, 3) for e in pair_effs],
            "turns_per_sec": {"cpus4_median": thr_n, "cpus16_median": thr_4n},
            "spread": spread}))
        return

    _init_ray(NUM_CPUS)
    t0 = time.time()
    linkage = run_linkage_bench(NUM_CPUS)
    qsecs, qrows = run_queries(SF_DIR)
    total = round(time.time() - t0, 3)
    queries = dict(qsecs)
    queries["linkage_synth"] = linkage["sec"]
    print(json.dumps({
        "metric": "bench_total_sec", "value": total, "unit": "sec",
        "queries": queries, "sf": SF_DIR, "num_cpus": NUM_CPUS,
        "linkage": linkage, "query_rows": qrows}))
    import ray
    ray.shutdown()


if __name__ == "__main__":
    main()
