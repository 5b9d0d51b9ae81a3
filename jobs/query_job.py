"""Cluster job entry point: serve a query file against a built index.

    ray job submit --working-dir . -- \
        python jobs/query_job.py --index-dir /shared/index \
            --queries queries.jsonl --k 10 --sharded

``--queries`` is JSONL: {"query_id": ..., "terms": [...], "k": 10} per
line (k optional). ``--concurrency`` is the number of scoring actors. The
default streams the queries through the merged-index actor pool
(stages/serve.py ``serve``); ``--sharded`` fans each query out to a
ServingPool of doc-range segment shards (LeafSlice model) instead.
"""

from __future__ import annotations

import argparse
import json
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index-dir", required=True)
    ap.add_argument("--queries", required=True, help="JSONL query file")
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--concurrency", type=int, default=4)
    ap.add_argument("--sharded", action="store_true")
    ap.add_argument("--out", default="", help="optional parquet output path")
    args = ap.parse_args()

    import pyarrow as pa
    import ray

    if not ray.is_initialized():
        ray.init()
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    specs = []
    with open(args.queries) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                specs.append({"query_id": str(row["query_id"]), "terms": list(row["terms"]),
                              "k": int(row.get("k", args.k))})

    from lucene_7_x_9_x_ray.stages.serve import RESULT_SCHEMA, ServingPool, hit_rows, serve

    if args.sharded:
        pool = ServingPool(args.index_dir, n_shards=args.concurrency)
        rows = [
            hit for spec in specs
            for hit in hit_rows(spec["query_id"], pool.search(spec["terms"], spec["k"]))
        ]
        pool.shutdown()
        table = pa.Table.from_pylist(rows, schema=RESULT_SCHEMA)
    else:
        table = serve(args.index_dir, specs, concurrency=args.concurrency)
    if args.out:
        import pyarrow.parquet as pq

        pq.write_table(table, args.out)
    else:
        for row in table.to_pylist():
            print(json.dumps(row))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
