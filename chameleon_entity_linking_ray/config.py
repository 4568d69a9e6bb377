"""Pipeline configuration.

The reference exposes its knobs as argparse flags and module constants
(`/root/reference/utils/entity_extractor.py:8-13`, `/root/reference/BiEncoder/train.py:17-25`);
we formalize them in one dataclass that every stage receives.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LinkageConfig:
    # --- mention extraction (reference: TAGME rho>0.26 threshold,
    # /root/reference/utils/entity_extractor.py:10,32) ---
    rho_threshold: float = 0.26

    # --- MinHash / LSH blocking (engine replacement for the reference's FAISS
    # top-k blocking, /root/reference/BiEncoder/test_retrieval.py:43-76) ---
    shingle_k: int = 3  # char n-gram size over normalized surfaces
    num_perm: int = 64  # MinHash permutations
    num_bands: int = 16  # LSH bands (rows_per_band = num_perm // num_bands)
    minhash_seed: int = 0x5EED_1234

    # --- pair generation / skew control (SURVEY.md §4 "skew") ---
    max_block_size: int = 64  # groups above this use windowed pairing
    pair_window: int = 8  # neighbors paired per member in oversized blocks

    # --- scoring (reference blend 0.9*text + 0.1*entity,
    # /root/reference/BiEncoder/test.py:120) ---
    feature_dim: int = 512  # hashed char-ngram feature space
    text_weight: float = 0.9
    entity_weight: float = 0.1
    # "blend": 0.9*text + 0.1*entity (BiEncoder/test.py:120);
    # "dual_mean": unweighted mean of the two scores — the Fully dual-tower
    # variant (/root/reference/Fully/model.py:65-68)
    score_mode: str = "blend"
    score_threshold: float = 0.70  # match iff score > threshold; calibrated
    # offline: blend = 0.9*MongeElkan + 0.1*ngram-idf-cosine gives cluster
    # F1=1.0 on the synthetic alias noise for thresholds in [0.65, 0.72]

    # --- clustering ---
    max_cc_rounds: int = 50

    # --- execution sizing ---
    batch_size: int = 4096
    # a scorer_cls stage runs as a FIXED pool of min(scorer_concurrency,
    # CPUs - 1) actors, and scorer_batch_size is the rows per call on that
    # pool; the default task stage scores each pair block in one call and
    # gathers its pairs scorer_batch_size at a time (bounded memory)
    scorer_concurrency: int = 4
    scorer_batch_size: int = 2048
    num_hash_buckets: int = 32  # partitioned hash-join bucket count

    # --- device placement (GPU readiness; reference collate target:
    # /root/reference/CrossEncoder/model.py:29-33, BiEncoder/model.py:68-70).
    # scorer_num_gpus > 0 reserves that GPU fraction per scoring actor
    # (map_batches num_gpus); scorer_device is forwarded to model-backed
    # scorer classes that accept a ``device`` kwarg and resolves with the
    # reference's cuda-if-available-else-cpu fallback. Defaults are the
    # CPU-only sandbox; on a GPU fleet set (1.0, "cuda") — nothing else
    # changes.
    scorer_num_gpus: float = 0.0
    scorer_device: str = "cpu"

    # determinism note: the global 16-byte string-hash key lives in
    # functions/hashing.py:HASH_KEY (it is a library constant, not a
    # per-pipeline knob — two runs must agree on it to share checkpoints)

    extra: dict = field(default_factory=dict, compare=False)


DEFAULT_CONFIG = LinkageConfig()
