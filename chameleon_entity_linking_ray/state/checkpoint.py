"""Per-stage Parquet checkpoints with a lineage + metrics manifest.

The reference's resume story is manual shard files and ``--start_index``
offsets (/root/reference/BiEncoder/test_retrieval.py:47-56,
/root/reference/utils/entity_extractor.py:12,51). Here every expensive
stage writes partitioned Parquet atomically (temp dir -> rename) and records
a manifest entry carrying lineage (stage name, input fingerprint, config
fingerprint), row counts and wall time — the north rule's "resume from
per-partition checkpoints carrying lineage + stage metrics". A rerun with
the same fingerprints skips straight to reading the checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import ray.data

from chameleon_entity_linking_ray.stages.order import in_logical_order


class CheckpointManager:
    def __init__(self, root: str, run_fingerprint: str):
        self.root = root
        self.fingerprint = run_fingerprint
        self.manifest_path = os.path.join(root, "manifest.json")
        os.makedirs(root, exist_ok=True)
        self.manifest = self._load()

    def _load(self) -> dict:
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as f:
                m = json.load(f)
            if m.get("run_fingerprint") == self.fingerprint:
                return m
        return {"run_fingerprint": self.fingerprint, "stages": {}}

    def _save(self) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.manifest, f, indent=2, sort_keys=True)
        os.replace(tmp, self.manifest_path)

    def has(self, stage: str) -> bool:
        ent = self.manifest["stages"].get(stage)
        return bool(ent) and os.path.isdir(os.path.join(self.root, stage))

    def load(self, stage: str) -> "ray.data.Dataset":
        return ray.data.read_parquet(os.path.join(self.root, stage))

    def save(self, stage: str, ds: "ray.data.Dataset", upstream: list[str],
             t_start: float, extra: dict | None = None) -> "ray.data.Dataset":
        """Write atomically, record lineage + metrics, return re-read dataset
        (so downstream stages consume the durable copy, making a kill after
        this point resumable)."""
        final = os.path.join(self.root, stage)
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        # checkpoints must be byte-identical across runs (the resume
        # invariant); the streaming executor reorders blocks by completion
        # unless preserve_order is set, so pin it for the write only
        in_logical_order(ds, lambda d: d.write_parquet(tmp))
        os.replace(tmp, final)
        out = ray.data.read_parquet(final)
        self.manifest["stages"][stage] = {
            "rows": out.count(),
            "upstream": upstream,
            "wall_sec": round(time.time() - t_start, 3),
            "path": final,
            **(extra or {}),
        }
        self._save()
        return out

    def metrics(self) -> dict:
        return {s: {k: v for k, v in ent.items() if k != "path"}
                for s, ent in self.manifest["stages"].items()}


def fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def input_fingerprint(paths: list[str]) -> str:
    """Cheap input lineage: path + size + mtime per file (content-hash would
    re-read 100 TB; size+mtime is the standard manifest compromise)."""
    items = []
    for p in sorted(paths):
        if os.path.isdir(p):
            for root_, _, files in os.walk(p):
                for fn in sorted(files):
                    fp = os.path.join(root_, fn)
                    st = os.stat(fp)
                    items.append((fp, st.st_size, int(st.st_mtime)))
        elif os.path.exists(p):
            st = os.stat(p)
            items.append((p, st.st_size, int(st.st_mtime)))
    return fingerprint(items)
