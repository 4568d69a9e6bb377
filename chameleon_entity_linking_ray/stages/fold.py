"""``fold``: every block of a Dataset reduced in ONE Ray task; ``each``:
one small task per block, for per-block facts the driver combines.

The obvious spelling, ``task.remote(*ds.to_arrow_refs())``, has two
traps: on a lazy Dataset ``to_arrow_refs`` runs the plan, then runs it
again up to a ``limit=1`` operator to probe the schema; and with
``preserve_order`` off the blocks arrive in completion order.
"""

from __future__ import annotations

import ray
from ray.data import Dataset
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset

from chameleon_entity_linking_ray.stages.order import in_logical_order


def _block_refs(ds: Dataset) -> list[ray.ObjectRef]:
    """The refs of ``ds``'s non-empty blocks, in the order ``ds`` was
    materialized: logical order when it is materialized here (through
    ``in_logical_order``); a MaterializedDataset executes nothing."""
    if not isinstance(ds, MaterializedDataset):
        ds = in_logical_order(ds, Dataset.materialize)
    return [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0]


def fold(ds: Dataset, fn, *args) -> ray.ObjectRef:
    """The ref of ``fn(blocks, *args)`` run in one Ray task: ``blocks``
    are the non-empty blocks of ``ds`` as Arrow tables, in the order of
    ``_block_refs``. The driver holds only refs: rows go from the object
    store to the task, and the result stays there until ``ray.get``."""
    return _fold.remote(fn, args, *_block_refs(ds))


def each(ds: Dataset, fn, *args) -> list[ray.ObjectRef]:
    """The refs of ``fn(block, *args)``, one task per non-empty block of
    ``ds`` (as an Arrow table) in the order of ``_block_refs``: each block
    is read where it is stored, only the results move."""
    return [_each.remote(fn, args, ref) for ref in _block_refs(ds)]


def _arrow(blocks) -> list:
    # column-less empty blocks (empty shuffle buckets) are dropped too
    tables = (BlockAccessor.for_block(b).to_arrow() for b in blocks)
    return [t for t in tables if t.num_rows and t.num_columns]


@ray.remote
def _fold(fn, args, *blocks):
    return fn(_arrow(blocks), *args)


@ray.remote
def _each(fn, args, block):
    return fn(_arrow([block])[0], *args)
