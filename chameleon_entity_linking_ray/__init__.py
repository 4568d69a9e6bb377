"""chameleon_entity_linking_ray — a Ray-Data-native record-linkage engine.

A from-scratch rebuild of the *semantics* of ``sadjadeb/chameleon_entity_linking``
(retrieve-then-rerank entity linking) as an idiomatic distributed data pipeline:

    read_parquet(transcripts)
      -> map_batches(extract_mentions)          # stateless, zero-copy Arrow
      -> map_batches(minhash + LSH bands)       # stateless numpy kernels
      -> groupby(block_key).map_groups(pairs)   # shuffle 1 (salted for skew)
      -> groupby(pair_key)  dedup               # shuffle 2
      -> map_batches(score_batch)               # stateless tasks (a model
                                                #   scorer_cls: actor pool)
      -> filter(score > theta)
      -> connected components (groupby loop)    # shuffles 3..k
      -> join back -> sort(conv_id, turn_idx) -> write_parquet

See SURVEY.md for the operator-by-operator mapping to the reference.
"""

from chameleon_entity_linking_ray.config import LinkageConfig

__all__ = ["LinkageConfig"]
__version__ = "0.1.0"
