"""build_vocab invariants: the Arrow value_counts-then-normalize combiner
must agree with a direct pandas normalize-then-group reference on both
input shapes (lean surface-only stream vs norm-carrying stream)."""

import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.functions.hashing import node_id
from chameleon_entity_linking_ray.functions.text import normalize_list
from chameleon_entity_linking_ray.pipelines.linkage import extract_mentions
from chameleon_entity_linking_ray.stages.vocab import build_vocab
from chameleon_entity_linking_ray.testing.synth import make_transcripts

SURFACES = [
    "Acme Corp", "acme corp", "ACME-CORP", "Acme  Corp.", "Globex",
    "globex!", "Initech", "initech", "Acme Corp", "Umbrella, Inc",
    "umbrella inc", "Hooli", "", "  ", "Vandelay Industries",
]


def _reference_counts(surfaces):
    norms = normalize_list(surfaces)
    return pd.Series(norms).value_counts().sort_index()


class TestBuildVocab:
    def _check(self, ds):
        out = build_vocab(ds).to_pandas().sort_values("norm") \
            .reset_index(drop=True)
        ref = _reference_counts(SURFACES * 7)
        assert out["norm"].tolist() == ref.index.tolist()
        assert out["n_mentions"].tolist() == ref.values.tolist()
        # node ids attached and deterministic
        assert out["node"].notna().all()
        out2 = build_vocab(ds).to_pandas().sort_values("norm") \
            .reset_index(drop=True)
        assert out2["node"].tolist() == out["node"].tolist()

    def test_lean_surface_stream(self):
        tbl = pa.table({"surface": pa.array(SURFACES * 7, pa.string())})
        self._check(rd.from_arrow(tbl).repartition(4))

    def test_norm_carrying_stream(self):
        tbl = pa.table({
            "surface": pa.array(SURFACES * 7, pa.string()),
            "norm": pa.array(normalize_list(SURFACES * 7), pa.string()),
        })
        self._check(rd.from_arrow(tbl).repartition(4))

    def test_empty_stream(self):
        tbl = pa.table({"surface": pa.array([], pa.string())})
        out = build_vocab(rd.from_arrow(tbl)).to_pandas()
        assert len(out) == 0

    def test_e2e_fixture_vocab_blocks_are_plain_arrow(self):
        # pandas schema metadata on the vocab blocks makes their schemas
        # unhashable when Ray unifies them ("Failed to hash the schemas")
        turns, _ = make_transcripts(n_convs=60, n_entities=12, seed=42)
        mentions = extract_mentions(rd.from_arrow(turns), LinkageConfig()).materialize()
        blocks = ray.get(build_vocab(mentions).to_arrow_refs())
        assert not any(b"pandas" in (b.schema.metadata or {}) for b in blocks)
        got = pa.concat_tables(blocks).sort_by("norm")
        ref = _reference_counts(mentions.to_pandas()["surface"].tolist())
        assert got.column_names == ["norm", "n_mentions", "node"]
        assert got.column("norm").to_pylist() == ref.index.tolist()
        assert got.column("n_mentions").to_pylist() == ref.values.tolist()
        assert got.column("node").to_pylist() == node_id(ref.index.tolist()).tolist()
