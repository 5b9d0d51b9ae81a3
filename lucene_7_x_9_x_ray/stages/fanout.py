"""One executor for the index stages whose tasks write their real output
to disk and return a small stats row: segment build and append, the pull
merge and its sampled plan, tiered compaction, reclaim (and its retention
pre-count), and the ANN partition build.

``fan_out(fn, items)`` runs ``fn`` once per item inside
``ray.data.from_items(items).map_batches(...)`` and returns the rows the
tasks produced as plain Python dicts, nested values included (each row
rides the Arrow block pickled, so per-field stats dicts, lists and empty
dicts need no JSON round trip and no schema inference). With
``use_ray=False`` the same ``fn`` runs over the items in this process, so
a stage's no-Ray entry point (``build_index_local``, ``merge_index_local``,
``compact_index(use_ray=False)``) runs the same plan as its Ray one.

Data-plane datasets (sized reads, ANN partition search) do not belong
here: their blocks are real data, and the block-size hint below would
also split them.
"""

from __future__ import annotations

import pickle
from typing import Callable

import pyarrow as pa

# Ray Data budgets a not-yet-reporting task's output at
# target_max_block_size x _max_num_blocks_in_streaming_gen_buffer (128 MiB
# x 2 in Ray 2.49) until the operator's first block arrives, so a 512 MiB
# object store admits ONE first-wave task and the rest wait for it. Our
# tasks return ~1 KB, so the true size is the honest hint. Measured with
# perfbench's Ray start (4 CPUs, 512 MiB store): four 1 s tasks started at
# 0.00/1.01/1.02/1.02 s (wall 2.06 s) with the default, all at 0.00 s
# (wall 1.05 s) with 1 MiB. Set on the fan-out Dataset's own context only.
FANOUT_BLOCK_BYTES = 1 << 20

_ROW = "row"
_SCHEMA = pa.schema([(_ROW, pa.binary())])


def cluster_cpus() -> int:
    """CPUs in the running Ray cluster (32 if it cannot say)."""
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 32))
    except Exception:
        return 32


def fan_out(
    fn: Callable[[dict], dict | None],
    items: list[dict],
    n_blocks: int | None = None,
    batch_size: int | None = 1,
    use_ray: bool = True,
    **map_kwargs,
) -> list[dict]:
    """Run ``fn(item)`` for every item as a Ray Data stage; returns the
    non-None results in completion order.

    ``n_blocks`` (default: one per item) and ``batch_size`` shape the
    tasks as in ``from_items`` / ``map_batches``; ``map_kwargs`` (e.g.
    ``concurrency``, ``num_cpus``) go to ``map_batches``. ``use_ray=False``
    runs ``fn`` over ``items`` in order, in this process, and ignores the
    task-shaping arguments."""
    if not use_ray:
        return [r for r in map(fn, items) if r is not None]
    import ray.data as rd

    if not items:
        return []

    def run(batch: pa.Table) -> pa.Table:
        rows = [fn(item) for item in batch.to_pylist()]
        return pa.table(
            {_ROW: pa.array([pickle.dumps(r) for r in rows if r is not None], pa.binary())},
            schema=_SCHEMA,
        )

    ds = rd.from_items(items, override_num_blocks=n_blocks or len(items)).map_batches(
        run, batch_size=batch_size, batch_format="pyarrow", **map_kwargs
    )
    ds.context.target_max_block_size = FANOUT_BLOCK_BYTES
    return [pickle.loads(r[_ROW]) for r in ds.take_all()]
