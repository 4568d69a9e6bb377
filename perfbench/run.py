"""Linkage benchmark: one workload per run, closed loop, one driver process.

    python3 perfbench/run.py --workload turns_annotate --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.WORKLOADS`` and ``BENCHMARK.json``):
``turns_annotate`` and ``vocab_score``. The run

1. builds its inputs from ``--seed`` in a child process (cached under
   ``.perfbench_work/fixtures``; not part of any metric);
2. in each of ``SESSIONS`` fresh Ray sessions: sets up (Ray start plus one
   untimed, verified warm-up job on a ``WARMUP_CONVS``-conversation input
   built with the same parameters; timed as a ``setup_s`` sample), then
   runs verified jobs back to back for its share of ``--seconds``, with at
   least ``MIN_JOBS`` over the run; end-to-end metrics are medians over all
   timed jobs;
3. with ``--trace 1`` instead: one session that alternates untraced and
   traced jobs and reports the per-layer metrics;
4. prints one JSON object as its last stdout line:
   ``{"correct", "attempted", "failed", "metrics"}``.

A job that raises or fails verification is reported on stderr with its
stage and traceback and counted in ``failed``. Spans of traced jobs are
written to ``.perfbench_work/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

NUM_CPUS = 2  # Ray CPU slots; see perfbench/README.md for why not 1
SESSIONS = 2  # fresh Ray sessions per timed run, each set up and timed
MIN_JOBS = 2  # timed jobs per run, spread over the sessions
WARMUP_CONVS = 50  # the warm-up job runs on the workload's input at this size
OBJECT_STORE_BYTES = 512 << 20
# Ray binds Unix sockets under its temp dir; AF_UNIX paths are capped at
# 107 bytes and Ray appends ~64 characters of session/socket name
_MAX_RAY_TMP_LEN = 40

LAYERS = ["extract", "vocab", "blocking", "stats", "scoring", "edges",
          "cluster", "assign", "annotate", "write"]


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --- inputs ----------------------------------------------------------------

def ensure_fixture(params: dict, seed: int) -> tuple[str, str]:
    """(transcripts, truth) Parquet paths, built in a child process unless
    a complete cached copy exists."""
    import fixtures

    spec = {"seed": seed, **params}
    path = fixtures.fixture_dir(os.path.join(WORK, "fixtures"), spec)
    if not fixtures.is_complete(path, spec):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        subprocess.run([sys.executable, os.path.join(HERE, "fixtures.py"),
                        path, json.dumps(spec)], check=True, timeout=150)
    return fixtures.files(path)


# --- Ray session -------------------------------------------------------------

def _descendants() -> list[int]:
    """PIDs of every live descendant of this process (from /proc)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class RaySession:
    """``ray.init`` with the benchmark's settings; ``stop`` shuts Ray down
    and waits until every process it started has exited."""

    def __init__(self, tmp_dir: str):
        import logging

        import ray
        from ray.data import DataContext

        self._ray = ray
        ray.init(num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=tmp_dir,
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self, timeout: float = 30.0) -> None:
        procs = _descendants()
        self._ray.shutdown()
        deadline = time.monotonic() + timeout
        while any(_alive(p) for p in procs) and time.monotonic() < deadline:
            time.sleep(0.05)
        for p in procs:
            if _alive(p):
                log(f"killing leftover process {p}")
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass


def ray_tmp_dir() -> str:
    """Ray's temp dir for this run, removed at exit: inside the checkout
    when the socket paths fit, else a short private dir."""
    path = os.path.join(WORK, "ray", str(os.getpid()))
    if len(path) <= _MAX_RAY_TMP_LEN:
        return path
    return tempfile.mkdtemp(prefix="perfbench-ray-")


# --- measurement -------------------------------------------------------------

class PeakRss:
    """Peak resident set size of this process while the block runs,
    sampled from /proc every 5 ms."""

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self) -> None:
        with open("/proc/self/statm") as f:
            self.peak = max(self.peak, int(f.read().split()[1]) * self._page)

    def _loop(self) -> None:
        while not self._stop.wait(0.005):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


class Runner:
    """Runs and verifies jobs; counts attempts and failures."""

    def __init__(self, name: str, inputs, warmup_inputs):
        import pyarrow.parquet as pq

        self.name, self.inputs, self.warmup_inputs = name, inputs, warmup_inputs
        self.input_rows = pq.ParquetFile(inputs[0]).metadata.num_rows
        self.attempted = self.failed = 0
        self.slot_wait_s = 0.0
        self.f1s: set[float] = set()
        self._n = 0

    def _out_dir(self) -> str:
        self._n += 1
        path = os.path.join(WORK, "out", f"{self.name}-{os.getpid()}-{self._n}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def job(self, traced: bool = False, warmup: bool = False):
        """One verified job -> (wall seconds, checks, tracer, peak rss) or
        None when it failed."""
        import workloads
        from verify import VerificationError

        out = self._out_dir()
        tr = workloads.Tracer() if traced else None
        if not warmup:
            self.attempted += 1
            self._wait_for_free_slots()
        try:
            with PeakRss() as rss:
                t0 = time.perf_counter()
                if warmup:
                    checks = workloads.run_job(self.warmup_inputs, out)
                elif traced:
                    checks = workloads.run_job_traced(self.inputs, out, tr)
                else:
                    checks = workloads.run_job(self.inputs, out)
                wall = time.perf_counter() - t0
        except Exception as e:  # noqa: BLE001 - a failed job is counted, not fatal
            self.failed += not warmup
            if tr is not None:
                stage = tr.failed_in
            else:
                stage = "verify" if isinstance(e, VerificationError) else "pipeline"
            log(f"JOB FAILED workload={self.name} warmup={warmup} "
                f"traced={traced} stage={stage}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if not warmup:
            self.f1s.add(checks["pairwise_f1"])
        return wall, checks, tr, rss.peak

    def _wait_for_free_slots(self, timeout: float = 60.0) -> None:
        """Closed loop: start a job only once the previous job's actors have
        given back every CPU slot. A job started while the last scorer
        actor still holds a slot can stall for 15-20 s; the wait is summed
        into ``slot_wait_s`` instead of any job's time."""
        import ray

        t0 = time.perf_counter()
        while ray.available_resources().get("CPU", 0) < NUM_CPUS:
            if time.perf_counter() - t0 > timeout:
                log(f"CPU slots still busy after {timeout:.0f} s; starting anyway")
                break
            time.sleep(0.02)
        self.slot_wait_s += time.perf_counter() - t0


def median(xs) -> float:
    return float(statistics.median(xs))


def set_up(runner: Runner, tmp_dir: str) -> tuple[RaySession, float]:
    """Ray start + one verified warm-up job -> (live session, seconds)."""
    t0 = time.perf_counter()
    session = RaySession(tmp_dir)
    if runner.job(warmup=True) is None:
        session.stop()
        raise RuntimeError("warm-up job failed; see the log above")
    return session, time.perf_counter() - t0


def timed_jobs(runner: Runner, seconds: float, min_jobs: int) -> list:
    """Closed loop: verified jobs back to back for ``seconds`` and at least
    ``min_jobs`` of them."""
    jobs = []
    t_end = time.perf_counter() + seconds
    while len(jobs) < min_jobs or time.perf_counter() < t_end:
        r = runner.job()
        if r is not None:
            jobs.append(r)
        elif runner.failed >= 3:
            break
    return jobs


def end_to_end(runner: Runner, jobs: list) -> dict:
    return {
        "job_s": median([j[0] for j in jobs]),
        "rows_per_s": median([runner.input_rows / j[0] for j in jobs]),
        "driver_peak_rss_mb": median([j[3] / 2**20 for j in jobs]),
        "pairwise_f1": median([j[1]["pairwise_f1"] for j in jobs]),
        "jobs_ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(runner: Runner, seconds: float, spans_path: str) -> dict:
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < t_end:
        r = runner.job(traced=len(traced) < len(plain))
        if r is not None:
            (traced if r[2] else plain).append(r)
        elif runner.failed >= 3:
            break
    if not (plain and traced):
        return {}
    with open(spans_path, "w") as f:
        json.dump([j[2].spans for j in traced], f)

    def layer_s(tr, name: str) -> float:
        return sum(s["end"] - s["start"] for s in tr.spans if s["name"] == name)

    out = {f"{name}.s": median([layer_s(j[2], name) for j in traced])
           for name in LAYERS}
    out.update(traced[-1][2].counts)
    out["scoring.pairs_per_s"] = median(
        [j[2].counts.get("scoring.pairs_per_s", 0.0) for j in traced])

    def unattributed(tr) -> float:
        job = tr.spans[0]
        kids = [s for s in tr.spans if s["parent"] == job["id"]]
        return (job["end"] - job["start"]) - sum(s["end"] - s["start"] for s in kids)

    out["trace.overhead_s"] = median([j[0] for j in traced]) - \
        median([j[0] for j in plain])
    out["trace.unattributed_s"] = median([unattributed(j[2]) for j in traced])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import workloads
    except ImportError as e:
        log(f"cannot import the linkage package from {ROOT}: {e}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}")
        return 2
    name, params = args.workload, workloads.WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]

    t0 = time.perf_counter()
    inputs = ensure_fixture(params, args.seed)
    warmup_inputs = ensure_fixture({**params, "n_convs": WARMUP_CONVS},
                                   args.seed)
    fixture_s = time.perf_counter() - t0

    runner = Runner(name, inputs, warmup_inputs)
    tmp_dir = ray_tmp_dir()
    session = None
    try:
        jobs, setups, metrics = [], [], {}
        sessions = 1 if args.trace else SESSIONS
        for left in range(sessions, 0, -1):
            session, t = set_up(runner, tmp_dir)
            setups.append(t)
            if args.trace:
                metrics = per_layer(runner, args.seconds, os.path.join(
                    WORK, f"trace-{name}-seed{args.seed}.json"))
            else:
                jobs += timed_jobs(runner, args.seconds / sessions,
                                   -(-(MIN_JOBS - len(jobs)) // left))
            session.stop()
            session = None
        if jobs:
            metrics = end_to_end(runner, jobs)
            metrics["setup_s"] = median(setups)
    except Exception as e:  # noqa: BLE001 - reported, then exit non-zero
        log(f"RUN FAILED workload={name}: {type(e).__name__}: {e}")
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        if session is not None:
            session.stop()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    if not metrics:
        log(f"RUN FAILED workload={name}: no job completed "
            f"({runner.failed}/{runner.attempted} failed)")
        return 1
    deterministic = len(runner.f1s) == 1
    if not deterministic:
        log(f"pairwise F1 differs between jobs on one input: {sorted(runner.f1s)}")
    if runner.failed:
        log(f"{runner.failed}/{runner.attempted} jobs failed")

    result = {
        "correct": runner.failed == 0 and deterministic,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps({
        "workload": name, "seed": args.seed, "trace": args.trace,
        "num_cpus": NUM_CPUS, "cpus_visible": len(os.sched_getaffinity(0)),
        "input_rows": runner.input_rows,
        "params": params, "fixture_s": round(fixture_s, 3),
        "setup_samples_s": [round(s, 4) for s in setups],
        "slot_wait_s": round(runner.slot_wait_s, 3),
        "job_samples_s": [round(j[0], 4) for j in jobs]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
