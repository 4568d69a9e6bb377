"""chameleon_entity_linking_ray — a Ray-Data-native record-linkage engine.

A from-scratch rebuild of the *semantics* of ``sadjadeb/chameleon_entity_linking``
(retrieve-then-rerank entity linking) as an idiomatic distributed data pipeline:

    read_parquet(transcripts)
      -> map_batches(extract_mentions)          # stateless, zero-copy Arrow
      -> groupby(norm) -> surface vocabulary    # shuffle 1
      -> map_batches(minhash + LSH bands,       # stateless numpy kernels
                     token blocks)
      -> block_pairs: bucketed on the key       # shuffle 2, hot blocks
         bucket, then per pair-hash bucket      #   windowed; shuffle 3
         (lowest shared key kept)               #   pair dedup (Arrow)
      -> map_batches(score_batch)               # one stateless task per pair
                                                #   block: surfaces featurized
                                                #   once, pairs in chunks (a
                                                #   model scorer_cls: actor pool)
      -> filter(score > theta)
      -> connected components                   # driver union-find, or a
                                                #   groupby loop (shuffles 4..k)
      -> attach cluster ids -> order (conv_id, turn_idx) -> write_parquet

See SURVEY.md for the operator-by-operator mapping to the reference.
"""

from chameleon_entity_linking_ray.config import LinkageConfig

__all__ = ["LinkageConfig"]
__version__ = "0.1.0"
