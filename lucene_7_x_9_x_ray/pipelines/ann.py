"""Similarity search over the embeddings table.

- Brute-force cosine top-k: each batch does one numpy matmul against the
  broadcast query matrix (ray.put once per run, read zero-copy by every
  task), emits per-batch partial top-k, driver merges — the scan path and
  the correctness baseline.
- IVF variant: vectors are bucketed by nearest centroid (broadcast
  centroid matrix) with the probe list controlling how many buckets a
  query scans. nprobe = n_centroids reproduces brute-force exactly (so it
  shares the SQL oracle); small nprobe is the 100 TB scale path — the
  bucket id becomes the Parquet partition key so a probe only reads its
  buckets' row groups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.rounding import round_half_away
from ..stages.fanout import fan_out
from .common import HEAVY_ROWS_PER_BLOCK, sized_read

ANN_K = 10
BRUTE_QUERY_IDS = [0, 1, 2, 3, 4]
IVF_QUERY_IDS = [5, 6, 7, 8, 9]
IVF_CENTROIDS = 16


def _query_vectors(sf_dir: str, query_ids: list[int]) -> np.ndarray:
    """Fetch ONLY the query vectors via a pruned duckdb point lookup over
    the source parquet (row-group zone-map pruning; never a whole-table
    driver load) and return them L2-normalized, row-per-query."""
    import duckdb

    con = duckdb.connect()
    ids_sql = ",".join(str(q) for q in query_ids)
    qrows = con.sql(
        f"SELECT vec_id, embedding FROM '{sf_dir}/embeddings.parquet' "
        f"WHERE vec_id IN ({ids_sql}) ORDER BY vec_id"
    ).fetchall()
    qmap = {int(v): np.asarray(e, dtype=np.float64) for v, e in qrows}
    return _normalize(np.stack([qmap[q] for q in query_ids]))


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _topk_table(query_ids, cand_ids_per_q, cand_sims_per_q) -> pa.Table:
    """Merge per-batch partial top-k candidates into
    (query_id, rank, vec_id, cos_r); tie-break (sim desc, vec_id asc)."""
    out_q, out_r, out_v, out_s = [], [], [], []
    for qi, qid in enumerate(query_ids):
        cand_ids = cand_ids_per_q[qi]
        cand_sims = cand_sims_per_q[qi]
        order = np.lexsort((cand_ids, -cand_sims))[:ANN_K]
        for r, o in enumerate(order, start=1):
            out_q.append(int(qid))
            out_r.append(r)
            out_v.append(int(cand_ids[o]))
            out_s.append(round_half_away(float(cand_sims[o]), 6))
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cos_r": pa.array(out_s, pa.float64()),
        }
    )


def _brute_force(
    sf_dir: str, query_ids: list[int], label: int | None = None
) -> pa.Table:
    """Exact cosine top-k; ``label`` restricts CANDIDATES to that label
    value — the KnnFloatVectorQuery(filter) role (s9x core
    KnnFloatVectorQuery exact-search fallback: when the filtered set is
    below the visit limit, Lucene scores it exhaustively, which is
    precisely this path). The predicate is pushed into the parquet scan
    (row-group pruning), never evaluated per batch."""
    import ray
    import ray.data as rd

    qmat = _query_vectors(sf_dir, query_ids)
    qref = ray.put(qmat)

    class Scorer:
        """Stateful: query matrix fetched once per actor, not per batch."""

        def __init__(self):
            self.q = ray.get(qref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:  # an all-filtered row group
                return pa.table(
                    {
                        "qi": pa.array([], pa.int64()),
                        "vec_id": pa.array([], pa.int64()),
                        "sim": pa.array([], pa.float64()),
                    }
                )
            ids = batch["vec_id"].to_numpy()
            v = _normalize(
                np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
            )
            sims = self.q @ v.T  # (queries, batch)
            k = min(ANN_K, sims.shape[1])
            # per-query partial top-k inside the task: only k rows per query
            # leave the batch (argpartition, then exact ordering at merge)
            part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
            rows = []
            for qi in range(sims.shape[0]):
                sel = part[qi]
                rows.append((ids[sel], sims[qi, sel]))
            return pa.table(
                {
                    "qi": pa.array(
                        np.repeat(np.arange(sims.shape[0]), k).astype(np.int64)
                    ),
                    "vec_id": pa.array(np.concatenate([r[0] for r in rows]).astype(np.int64)),
                    "sim": pa.array(np.concatenate([r[1] for r in rows]), pa.float64()),
                }
            )

    row_filter = None
    if label is not None:
        import pyarrow.dataset as pads

        row_filter = pads.field("label") == label
    ds = sized_read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
                    rows_per_block=HEAVY_ROWS_PER_BLOCK, row_filter=row_filter)
    parts = ds.map_batches(Scorer, batch_format="pyarrow", concurrency=2)

    tbls = [t for t in ray.get(parts.materialize().to_arrow_refs()) if t.num_rows]
    nq = len(query_ids)
    per_q_ids = [[np.empty(0, np.int64)] for _ in range(nq)]
    per_q_sims = [[np.empty(0)] for _ in range(nq)]
    for t in tbls:
        qi = t["qi"].to_numpy()
        vid = t["vec_id"].to_numpy()
        sim = t["sim"].to_numpy()
        for i in range(nq):
            m = qi == i
            per_q_ids[i].append(vid[m])
            per_q_sims[i].append(sim[m])
    return _topk_table(
        query_ids,
        [np.concatenate(per_q_ids[i]) for i in range(nq)],
        [np.concatenate(per_q_sims[i]) for i in range(nq)],
    )


def q_ann_brute_topk(sf_dir: str) -> pa.Table:
    """Exact cosine top-k for the fixed query set."""
    return _brute_force(sf_dir, BRUTE_QUERY_IDS)


# --- IVF: distributed build (k-means) + bucket-partitioned store + probes ---

IVF_KMEANS_ITERS = 2
_IVF_CACHE_ROOT = "/tmp/lucene_ray_cache"


def _ivf_dir(sf_dir: str) -> str:
    import hashlib
    import os

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    return f"{_IVF_CACHE_ROOT}/ivf_{key}_v1"


def _seed_centroids(sf_dir: str) -> np.ndarray:
    """First IVF_CENTROIDS normalized vectors — a footer-bounded read of the
    first parquet batch, NOT a whole-table load."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    batch = next(pf.iter_batches(batch_size=IVF_CENTROIDS, columns=["embedding"]))
    return _normalize(
        np.stack(batch.column("embedding").to_numpy(zero_copy_only=False)).astype(np.float64)
    )


def build_ivf(sf_dir: str) -> str:
    """Distributed IVF index build; returns the index dir.

    1. k-means (Lloyd) over the embeddings as Ray stages: assignment +
       per-centroid partial vector sums inside map_batches (the combiner —
       only IVF_CENTROIDS rows per batch leave a task), tiny driver reduce.
    2. bucket assignment via map_batches (broadcast centroids).
    3. bucket-PARTITIONED parquet write (one directory per centroid), so a
       probe is a pruned read of its buckets' files only — the 100 TB path:
       scan cost scales with nprobe/IVF_CENTROIDS of the corpus.
    Resume: a completed build (meta.json present) is reused.
    """
    import json
    import os

    import ray
    import ray.data as rd

    out = _ivf_dir(sf_dir)
    meta_path = os.path.join(out, "meta.json")
    if os.path.exists(meta_path):
        return out
    os.makedirs(out, exist_ok=True)

    centroids = _seed_centroids(sf_dir)

    def partial_sums(batch: pa.Table, C: np.ndarray) -> pa.Table:
        v = _normalize(
            np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        a = np.argmax(v @ C.T, axis=1)
        rows_c, rows_sum, rows_n = [], [], []
        for c in np.unique(a):
            m = a == c
            rows_c.append(int(c))
            rows_sum.append(v[m].sum(axis=0).tobytes())
            rows_n.append(int(m.sum()))
        return pa.table(
            {
                "centroid": pa.array(rows_c, pa.int32()),
                "vsum": pa.array(rows_sum, pa.binary()),
                "n": pa.array(rows_n, pa.int64()),
            }
        )

    dim = centroids.shape[1]
    for _ in range(IVF_KMEANS_ITERS):
        cref = ray.put(centroids)
        rows = (
            sized_read(f"{sf_dir}/embeddings.parquet", columns=["embedding"],
                   rows_per_block=HEAVY_ROWS_PER_BLOCK)
            .map_batches(
                lambda b: partial_sums(b, ray.get(cref)), batch_format="pyarrow"
            )
            .take_all()
        )  # <= IVF_CENTROIDS rows per input block — tiny driver reduce
        sums = np.zeros((IVF_CENTROIDS, dim))
        counts = np.zeros(IVF_CENTROIDS)
        for r in rows:
            sums[r["centroid"]] += np.frombuffer(r["vsum"], dtype=np.float64)
            counts[r["centroid"]] += r["n"]
        live = counts > 0
        centroids[live] = _normalize(sums[live] / counts[live, None])

    cref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        C = ray.get(cref)
        v = _normalize(
            np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        a = np.argmax(v @ C.T, axis=1).astype(np.int32)
        return batch.append_column("bucket", pa.array(a))

    (
        sized_read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
                   rows_per_block=HEAVY_ROWS_PER_BLOCK)
        .map_batches(assign, batch_format="pyarrow")
        .write_parquet(os.path.join(out, "buckets"), partition_cols=["bucket"])
    )
    np.save(os.path.join(out, "centroids.npy"), centroids)
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"n_centroids": IVF_CENTROIDS, "dim": int(dim)}, f)
    os.replace(tmp, meta_path)
    return out


def _ivf_search(sf_dir: str, query_ids: list[int], nprobe: int) -> pa.Table:
    """Probe-limited IVF search as a Ray pipeline: each query reads ONLY its
    nprobe buckets (pruned partitioned-parquet read); scoring is the same
    per-batch partial-top-k matmul as the brute path."""
    import os

    import ray
    import ray.data as rd

    ivf = build_ivf(sf_dir)
    centroids = np.load(os.path.join(ivf, "centroids.npy"))

    # query vectors: pruned point lookup via duckdb over the source parquet
    qmat = _query_vectors(sf_dir, query_ids)

    probe_order = np.argsort(-(qmat @ centroids.T), axis=1)[:, :nprobe]
    probes_per_q = [set(int(b) for b in row) for row in probe_order]
    union_buckets = sorted({b for s in probes_per_q for b in s})
    # expand bucket dirs to their files (ray read_parquet expands a single
    # directory path but not a LIST of directories); keep the hive bucket=
    # value alive by re-deriving it from each file's parent dir
    paths = []
    for b in union_buckets:
        d = os.path.join(ivf, "buckets", f"bucket={b}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
            )
    qref = ray.put((qmat, probes_per_q))

    class ProbeScorer:
        def __init__(self):
            self.q, self.probes = ray.get(qref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["vec_id"].to_numpy()
            # bucket id from the hive dir in each row's source path (the
            # include_paths column): one dict lookup per UNIQUE path
            paths_col = batch["path"].to_pylist()
            uniq = {p: int(p.split("bucket=")[1].split("/")[0]) for p in set(paths_col)}
            bucket = np.array([uniq[p] for p in paths_col], dtype=np.int64)
            v = _normalize(
                np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
            )
            sims = self.q @ v.T
            out_qi, out_v, out_s = [], [], []
            for qi in range(sims.shape[0]):
                m = np.isin(bucket, list(self.probes[qi]))
                if not m.any():
                    continue
                s = sims[qi][m]
                cids = ids[m]
                k = min(ANN_K, len(s))
                sel = np.argpartition(-s, k - 1)[:k]
                out_qi.append(np.full(k, qi, dtype=np.int64))
                out_v.append(cids[sel].astype(np.int64))
                out_s.append(s[sel])
            if not out_qi:
                return pa.table(
                    {"qi": pa.array([], pa.int64()), "vec_id": pa.array([], pa.int64()),
                     "sim": pa.array([], pa.float64())}
                )
            return pa.table(
                {
                    "qi": pa.array(np.concatenate(out_qi)),
                    "vec_id": pa.array(np.concatenate(out_v)),
                    "sim": pa.array(np.concatenate(out_s), pa.float64()),
                }
            )

    parts = rd.read_parquet(paths, include_paths=True).map_batches(
        ProbeScorer, batch_format="pyarrow", concurrency=(1, 8)
    )
    tbls = [t for t in ray.get(parts.materialize().to_arrow_refs()) if t.num_rows]
    nq = len(query_ids)
    per_q_ids = [[np.empty(0, np.int64)] for _ in range(nq)]
    per_q_sims = [[np.empty(0)] for _ in range(nq)]
    for t in tbls:
        qi = t["qi"].to_numpy()
        vid = t["vec_id"].to_numpy()
        sim = t["sim"].to_numpy()
        for i in range(nq):
            m = qi == i
            per_q_ids[i].append(vid[m])
            per_q_sims[i].append(sim[m])
    return _topk_table(
        query_ids,
        [np.concatenate(per_q_ids[i]) for i in range(nq)],
        [np.concatenate(per_q_sims[i]) for i in range(nq)],
    )


# --- HNSW: per-partition graphs (the Lucene per-segment KNN model) ----------

HNSW_EF_SEARCH = 64
HNSW_QUERY_IDS = [10, 11, 12, 13, 14]


def _hnsw_dir(sf_dir: str) -> str:
    import hashlib
    import os

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    return f"{_IVF_CACHE_ROOT}/hnsw_{key}_v1"


def build_hnsw_index(sf_dir: str, target_rows: int = 4096) -> str:
    """Per-partition HNSW graphs, built in parallel Ray tasks — the Lucene
    per-segment KNN build (each segment flushes its own graph;
    LuceneDemo9.1.0 TestKNNQuery.java model). Each task builds the graph
    for ONE row-group range of the embeddings table and persists it as
    npz + a normalized vector matrix; a query searches every partition
    graph and merges top-k (the per-leaf KNN + reduce)."""
    import json
    import os

    out = _hnsw_dir(sf_dir)
    meta_path = os.path.join(out, "meta.json")
    if os.path.exists(meta_path):
        return out
    os.makedirs(out, exist_ok=True)

    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    md = pf.metadata
    rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
    specs = []
    start = 0
    while start < len(rg_rows):
        rows = 0
        end = start
        while end < len(rg_rows) and (rows == 0 or rows + rg_rows[end] <= target_rows):
            rows += rg_rows[end]
            end += 1
        specs.append({"part": len(specs), "rg_start": start, "rg_end": end})
        start = end

    src = f"{sf_dir}/embeddings.parquet"

    def build_one(spec: dict) -> dict:
        from ..functions.hnsw import build_hnsw

        t = pq.ParquetFile(src).read_row_groups(
            list(range(spec["rg_start"], spec["rg_end"])),
            columns=["vec_id", "embedding"], use_threads=False,
        )
        ids = t["vec_id"].to_numpy()
        v = _normalize(
            np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        ).astype(np.float32)
        g = build_hnsw(v)
        pdir = os.path.join(out, f"part_{spec['part']:04d}")
        os.makedirs(pdir, exist_ok=True)
        np.savez(os.path.join(pdir, "graph.npz"), **g.to_arrays())
        np.save(os.path.join(pdir, "vecs.npy"), v)
        np.save(os.path.join(pdir, "ids.npy"), ids.astype(np.int64))
        return {"part": spec["part"], "n": int(len(ids))}

    parts = fan_out(build_one, specs)
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"parts": sorted(p["part"] for p in parts)}, f)
    os.replace(tmp, meta_path)
    return out


def _hnsw_search(sf_dir: str, query_ids: list[int], k: int = ANN_K,
                 ef: int = HNSW_EF_SEARCH) -> pa.Table:
    """Search every partition graph (one Ray task per partition, graph
    mmap-loaded per task), merge per-partition top-k on the driver."""
    import json
    import os

    import ray
    import ray.data as rd

    root = build_hnsw_index(sf_dir)
    meta = json.load(open(os.path.join(root, "meta.json")))

    qmat = _query_vectors(sf_dir, query_ids).astype(np.float32)
    qref = ray.put(qmat)

    def search_part(batch: pa.Table) -> pa.Table:
        from ..functions.hnsw import HNSWGraph

        qm = ray.get(qref)
        out_qi, out_v, out_s = [], [], []
        for row in batch.to_pylist():
            pdir = os.path.join(root, f"part_{row['part']:04d}")
            vecs = np.load(os.path.join(pdir, "vecs.npy"), mmap_mode="r")
            ids = np.load(os.path.join(pdir, "ids.npy"))
            with np.load(os.path.join(pdir, "graph.npz")) as z:
                g = HNSWGraph.from_arrays(np.asarray(vecs), dict(z))
            for qi in range(len(qm)):
                lids, sims = g.search(qm[qi], k, ef=ef)
                out_qi.append(np.full(len(lids), qi, dtype=np.int64))
                out_v.append(ids[lids])
                out_s.append(sims)
        if not out_qi:
            return pa.table(
                {"qi": pa.array([], pa.int64()), "vec_id": pa.array([], pa.int64()),
                 "sim": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "qi": pa.array(np.concatenate(out_qi)),
                "vec_id": pa.array(np.concatenate(out_v)),
                "sim": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    parts = (
        rd.from_items([{"part": p} for p in meta["parts"]],
                      override_num_blocks=len(meta["parts"]))
        .map_batches(search_part, batch_size=1, batch_format="pyarrow")
    )
    tbls = [t for t in ray.get(parts.materialize().to_arrow_refs()) if t.num_rows]
    nq = len(query_ids)
    per_q_ids = [[np.empty(0, np.int64)] for _ in range(nq)]
    per_q_sims = [[np.empty(0)] for _ in range(nq)]
    for t in tbls:
        qi = t["qi"].to_numpy()
        for i in range(nq):
            m = qi == i
            per_q_ids[i].append(t["vec_id"].to_numpy()[m])
            per_q_sims[i].append(t["sim"].to_numpy()[m])
    return _topk_table(
        query_ids,
        [np.concatenate(per_q_ids[i]) for i in range(nq)],
        [np.concatenate(per_q_sims[i]) for i in range(nq)],
    )


def q_ann_hnsw_topk(sf_dir: str) -> pa.Table:
    """HNSW top-k (KnnVectorQuery analogue): per-partition graph search +
    merge. Approximate (graph recall) — rows-only driver check; recall@10
    vs brute force is pinned by tests (>= 0.9 at ef=64)."""
    return _hnsw_search(sf_dir, HNSW_QUERY_IDS)


def q_ann_ivf_topk(sf_dir: str) -> pa.Table:
    """IVF with FULL probe (exact — shares the brute-force SQL oracle).

    Runs the real distributed IVF pipeline end to end: k-means build,
    bucket-partitioned parquet, probe-pruned reads, per-batch partial
    top-k. nprobe = IVF_CENTROIDS makes it exhaustive; the small-nprobe
    scale behavior is pinned by the recall test
    (tests/test_pipelines.py::test_ivf_small_nprobe_recall)."""
    return _ivf_search(sf_dir, IVF_QUERY_IDS, nprobe=IVF_CENTROIDS)


def oracle_ann_sql(query_ids: list[int], relation: str = "embeddings") -> str:
    ids = ",".join(str(q) for q in query_ids)
    return f"""WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM {relation}),
q AS (SELECT vec_id AS query_id, e AS qe FROM n WHERE vec_id IN ({ids})),
sims AS (SELECT q.query_id, n.vec_id,
                list_dot_product(q.qe, n.e)
                / (sqrt(list_dot_product(q.qe, q.qe)) * sqrt(list_dot_product(n.e, n.e))) AS sim
         FROM q CROSS JOIN n),
ranked AS (SELECT query_id, vec_id, sim,
                  CAST(row_number() OVER (PARTITION BY query_id
                                          ORDER BY sim DESC, vec_id) AS BIGINT) AS rank
           FROM sims)
SELECT query_id, rank, vec_id, ROUND(sim, 6) AS cos_r
FROM ranked WHERE rank <= {ANN_K}"""


ANN_FILTER_LABEL = 1


def q_ann_filtered_topk(sf_dir: str) -> pa.Table:
    """Filtered kNN (KnnFloatVectorQuery with a filter query): exact
    cosine top-k over only the candidates whose label matches — the
    predicate prunes at the parquet scan."""
    return _brute_force(sf_dir, BRUTE_QUERY_IDS, label=ANN_FILTER_LABEL)


def oracle_ann_filtered_sql(
    query_ids: list[int], label: int, relation: str = "embeddings"
) -> str:
    """Filtered twin of oracle_ann_sql: candidates restricted by label,
    query vectors unrestricted (the Lucene filter applies to MATCHES, not
    to the query)."""
    ids = ",".join(str(q) for q in query_ids)
    return f"""WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
           FROM {relation} WHERE label = {label}),
q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
      FROM {relation} WHERE vec_id IN ({ids})),
sims AS (SELECT q.query_id, n.vec_id,
                list_dot_product(q.qe, n.e)
                / (sqrt(list_dot_product(q.qe, q.qe)) * sqrt(list_dot_product(n.e, n.e))) AS sim
         FROM q CROSS JOIN n),
ranked AS (SELECT query_id, vec_id, sim,
                  CAST(row_number() OVER (PARTITION BY query_id
                                          ORDER BY sim DESC, vec_id) AS BIGINT) AS rank
           FROM sims)
SELECT query_id, rank, vec_id, ROUND(sim, 6) AS cos_r
FROM ranked WHERE rank <= {ANN_K}"""
