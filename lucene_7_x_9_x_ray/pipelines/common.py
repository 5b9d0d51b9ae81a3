"""Shared pipeline plumbing.

``sized_read`` is the one read entry point the operator pipelines use:
``ray.data.read_parquet`` with a block count derived from the table's
actual row count. Ray's default splits even a 5 000-row file into
~2x-CPU near-empty blocks, and every downstream ``groupby``/``sort``
inherits that block count — at benchmark scale the per-task constants
(scheduling, (de)serialization, per-block aggregate setup) then dwarf
the useful work by an order of magnitude. Sizing blocks by rows keeps
each task big enough to amortize its constants while still fanning out
on real data: the block count grows linearly with the input, capped at
16x the cluster's CPUs (past that, ``map_batches``' ``batch_size``
provides intra-block chunking and the streaming executor pipelines
blocks, so more blocks only add scheduling load).

``keyed_reduce`` is the one keyed pass the curation operators use: a
vectorized bucket column, one ``groupby(bucket).map_groups``, and all
per-key work inside the bucket as ``pa.Table.group_by`` / ``pc.is_in``.
Ray 2.49's own keyed aggregate (``TableBlockAccessor._aggregate``) walks
every row with ``iter_rows`` and builds one Python dict per group:
``groupby(line_h).aggregate(Min)`` over 14,828 lines took 2.60 s on a
4-CPU host, against 0.375 s for the same rows through the bucketed pass.
``repartition(keys=)`` would hash-partition directly, but Ray 2.49
raises on it unless the whole ``DataContext`` runs ``HASH_SHUFFLE``, so
the bucket column rides Ray's default sort-based shuffle instead.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

__all__ = ["sized_read", "keyed_reduce", "HEAVY_ROWS_PER_BLOCK",
           "LIGHT_ROWS_PER_BLOCK"]

# heavy per-row kernels (shingling, minhash, per-doc matmul): small blocks
# so a handful of rows still spreads across the cluster. Round 4 chose 256
# from op_minhash_lsh at sf0.1 on 32 CPUs: 1.4 s at 256 rows/block, 2.1 s
# at 64, 5.1 s at 1024, where its shuffled candidate stage starved. Under
# the driver-verify doc cap that stage no longer runs, and on 4 CPUs
# q_minhash_lsh_pairs (median of 4) took 1.40 s at 256 against 1.02 s at
# 1024 on sf0.1 (5,000 docs), 0.74 s against 0.75 s on 1,500 docs, and
# 1.2-2.1 s at 64. 256 stays for the other kernels that share it, which
# were not re-measured.
HEAVY_ROWS_PER_BLOCK = 256
# light columnar kernels (hash, partial aggregates): big blocks, the work
# per row is nanoseconds and the task constant is the whole cost
LIGHT_ROWS_PER_BLOCK = 32_768


def _cluster_cpus() -> int:
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 32)) or 32
    except Exception:
        return 32


def sized_read(path: str, columns: list[str] | None = None,
               rows_per_block: int = LIGHT_ROWS_PER_BLOCK,
               row_filter=None):
    """``read_parquet`` with ``override_num_blocks`` matched to table size.
    ``row_filter`` (a pyarrow dataset expression) pushes the predicate into
    the parquet scan — row-group zone maps prune before rows ever reach a
    worker."""
    import pyarrow.parquet as pq
    import ray.data as rd

    n = pq.read_metadata(path).num_rows
    blocks = max(1, min(math.ceil(n / rows_per_block), 16 * _cluster_cpus()))
    kw = {} if row_filter is None else {"filter": row_filter}
    return rd.read_parquet(path, columns=columns, override_num_blocks=blocks, **kw)


_BUCKET = "__bucket"


def keyed_reduce(ds, bucket_of, fn):
    """Run ``fn`` once per key bucket: every row whose key maps to the
    same bucket reaches the same ``fn`` call, so ``fn`` can finish any
    per-key reduction there with ``pa.Table.group_by`` / ``pc.is_in``.

    ``bucket_of(batch)`` returns one integer per row that depends only on
    the row's key and is the same in every process: the int key itself,
    or ``md5_lower64_array`` of a string key (never Python's salted
    ``hash``). ``fn(table) -> pa.Table`` gets the bucket's rows without
    the bucket column and must return the same schema for every bucket.
    The bucket width is the input's block count, floored at the cluster's
    CPUs, so each bucket is about one block's worth of rows."""
    width = np.uint64(max(ds._plan.initial_num_blocks() or 1, _cluster_cpus()))

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = np.asarray(bucket_of(batch)).astype(np.uint64) % width
        # parquet's pandas metadata is a dict, so the schema is unhashable:
        # Ray's shuffle then logs a warning per reduce and unifies block
        # schemas field by field instead of by one set()
        return batch.replace_schema_metadata(None).append_column(
            _BUCKET, pa.array(b.astype(np.int64)))

    def reduce_bucket(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns([_BUCKET]))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby(_BUCKET)
        .map_groups(reduce_bucket, batch_format="pyarrow")
    )
