"""The one place the engine pins Ray Data block order.

With ``ExecutionOptions.preserve_order`` off (the default) the streaming
executor hands blocks to ``materialize``, ``take_all`` and writes in
COMPLETION order. Each Dataset snapshots its DataContext at creation, so
mutating the global context afterwards is a no-op: the pin has to go on
the dataset's own context. That context object is shared by reference
with the caller's lineage, so it is restored after the (synchronous)
action — leaving it on would cost every downstream stage its pipelining.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from ray.data import Dataset

T = TypeVar("T")


def in_logical_order(ds: Dataset, action: Callable[[Dataset], T]) -> T:
    """Run ``action(ds)`` (``materialize``, ``take_all``, ``write_parquet``
    ...) with blocks delivered in LOGICAL order, then restore the flag on
    ``ds.context`` and, when the result is a Dataset, on the context it
    snapshotted while the flag was on."""
    opts = ds.context.execution_options
    saved = opts.preserve_order
    opts.preserve_order = True
    try:
        out = action(ds)
    finally:
        opts.preserve_order = saved
    if isinstance(out, Dataset):
        out.context.execution_options.preserve_order = saved
    return out
