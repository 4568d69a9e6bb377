"""Deterministic benchmark inputs, cached by (generator params, seed).

``testing.synth.make_transcripts`` writes ``transcripts.parquet`` and the
planted ``mentions_truth.parquet``. Each fixture is built in a temporary
sibling directory and renamed into place only after both files are written
and ``meta.json`` records their row counts; a cached fixture is reused only
when those counts match the Parquet footers, so a half-written directory is
rebuilt rather than read.

Run as a script to build one fixture in a child process (the benchmark does
this so generator garbage never inflates the driver's RSS):

    python3 perfbench/fixtures.py <out_dir> '<json spec>'
"""

from __future__ import annotations

import json
import os
import shutil
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FILES = ("transcripts.parquet", "mentions_truth.parquet")


def fixture_dir(root: str, spec: dict) -> str:
    """Cache location: one directory per (params, seed)."""
    return os.path.join(root, "-".join(f"{k}{spec[k]}" for k in sorted(spec)))


def files(path: str) -> tuple[str, str]:
    return os.path.join(path, FILES[0]), os.path.join(path, FILES[1])


def is_complete(path: str, spec: dict) -> bool:
    """True iff ``path`` holds every file of ``spec`` with the row counts
    recorded when it was written."""
    import pyarrow.parquet as pq

    meta_path = os.path.join(path, "meta.json")
    if not os.path.exists(meta_path):
        return False
    try:
        with open(meta_path) as f:
            meta = json.load(f)
        if meta.get("spec") != spec:
            return False
        for name, rows in meta["rows"].items():
            if pq.ParquetFile(os.path.join(path, name)).metadata.num_rows != rows:
                return False
    except (OSError, ValueError, KeyError):
        return False
    return True


def build(path: str, spec: dict) -> None:
    """Generate ``spec`` (make_transcripts kwargs) into ``path`` atomically."""
    import pyarrow.parquet as pq

    sys.path.insert(0, REPO_ROOT)
    from chameleon_entity_linking_ray.testing.synth import make_transcripts

    tables = make_transcripts(**spec)
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    rows = {}
    for table, name in zip(tables, FILES):
        pq.write_table(table, os.path.join(tmp, name))
        rows[name] = table.num_rows
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"spec": spec, "rows": rows}, f)
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)


if __name__ == "__main__":
    out, spec_json = sys.argv[1], sys.argv[2]
    spec = json.loads(spec_json)
    build(out, spec)
    if not is_complete(out, spec):
        sys.exit(f"fixture {out} failed its row-count check after writing")
