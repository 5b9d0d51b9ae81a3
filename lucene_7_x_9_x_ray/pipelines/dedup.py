"""Deduplication operators: exact, n-gram Jaccard, MinHash+LSH, SimHash,
embedding-cosine — the training-data-pipeline dedup suite.

Scale notes (designed for 10^12 docs, tested at sf*). Every operator is a
Ray Data pipeline end to end — no driver-side materialization of the
shingle relation, and candidate machinery on the driver only under a
capped corpus size and pair bound (MinHash, below):
- exact: one keyed pass (common.keyed_reduce) by the content hash, with
  min(doc_id) and count per hash folded by pa group_by inside each bucket
  — the only shuffle moves (hash, doc_id) pairs, never text.
- line (C4/RefinedWeb sub-document dedup): lines explode in map_batches;
  a keyed pass by line fingerprint finds first occurrences and folds them
  into per-doc partials in-bucket, and a keyed pass by doc_id combines
  them — two shuffles, no union, no second explode.
- jaccard (exact, oracle-checked): map_batches(shingle+bucket) ->
  groupby(bucket).map_groups(vectorized pair partials with in-group
  combiner) -> groupby(a, b).sum -> map_batches finalize against broadcast
  per-doc sizes. Quadratic in duplicate density by nature; the LSH variant
  is the scale path.
- minhash_lsh (THE 100-TB dedup path): signatures (128 universal-hash
  mins, Mersenne-folded) + 16 band keys computed per doc inside
  map_batches — shingles never shuffle; each band row is (run_key,
  doc_id) with the band folded into the key. Corpora over the driver doc
  cap: candidates via a keyed pass by run_key with in-bucket vectorized
  pair expansion; global pair dedup via groupby(pair hash); exact-Jaccard
  verify via a hash-partitioned semi-join of pair-need rows against the
  document stream (shingle sets attached in the doc-keyed group, Jaccard
  computed in the pair-keyed group) — ONE lazy Dataset end to end, no
  take_all/broadcast dict anywhere (see minhash_lsh_pairs_dataset).
  Corpora under the cap bring only the band rows to the driver (one pass,
  no shuffle), bound the candidate count from the run lengths, and expand
  and verify there, or hand the rows to the distributed stages when the
  bound overflows (see q_minhash_lsh_pairs). Probabilistic recall ->
  rows-only.
- simhash (exact, oracle-checked): fingerprint + 4-band pigeonhole rows in
  map_batches (any pair within Hamming 3 agrees on >= 1 of 4 disjoint
  16-bit bands); candidates AND the Hamming check evaluate inside the
  groupby(bucket) group (the simhash rides the band row); cross-band dedup
  via groupby(a, b).min.
- embedding exact (oracle-checked): blocked numpy matmul against one
  broadcast matrix (ray.put once) — the O(N^2)-scan baseline.
- embedding LSH (scale path, rows-only): random-hyperplane sign bands;
  candidates + cosine verify inside bucket groups; work scales with
  collision volume, not N^2.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import md5_hex, md5_lower64_array
from .common import HEAVY_ROWS_PER_BLOCK, keyed_reduce, sized_read
from ..functions.rounding import round_half_away, round_half_away_np

# 3-word shingles: the standard near-dup width. 2-word shingles are
# degenerate on a small vocabulary — at sf0.1 only 931 distinct bigrams
# exist, so exact-Jaccard's run expansion blew up to 36.5M pair partials
# (vs 1.27M at n=3, same 25 found pairs at sf0.01) and the candidate
# shuffle dominated wall time 29x.
JACCARD_SHINGLE_N = 3
JACCARD_THRESHOLD = 0.4
MINHASH_PERMS = 128
MINHASH_BANDS = 16  # x 8 rows
SIMHASH_MAX_HAMMING = 3
EMBED_COS_THRESHOLD = 0.35

_MERSENNE = (1 << 61) - 1


def _to_table(ds) -> pa.Table:
    import ray

    # materialize() first: to_arrow_refs() on a lazy Dataset runs the plan
    # TWICE (full pass + a limit-1 re-execution for the schema fetch) —
    # measured ~3-5 s of duplicated pipeline work per dedup op at sf0.1
    parts = ray.get(ds.materialize().to_arrow_refs())
    parts = [p for p in parts if p.num_rows] or parts[:1]
    return pa.concat_tables(parts) if parts else pa.table({})


# --- exact dedup ------------------------------------------------------------


def _add_text_md5(batch: pa.Table) -> pa.Table:
    """(doc_id, text...) -> the same rows plus their content hash."""
    fps = [md5_hex(t) for t in batch["text"].to_pylist()]
    return batch.append_column("text_md5", pa.array(fps, pa.string()))


def _text_md5_bucket(batch: pa.Table) -> np.ndarray:
    return md5_lower64_array(batch["text_md5"].to_pylist())


def q_exact_dedup(sf_dir: str) -> pa.Table:
    """Exact duplicate groups by content hash: (text_md5, keep_doc_id,
    n_copies). updateDocument/delete-by-term analogue: keep = min doc_id."""

    def groups(t: pa.Table) -> pa.Table:
        g = t.group_by("text_md5").aggregate([("doc_id", "min"), ("doc_id", "count")])
        return pa.table({"text_md5": g["text_md5"], "keep_doc_id": g["doc_id_min"],
                         "n_copies": g["doc_id_count"]})

    ds = sized_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]).map_batches(
        lambda b: _add_text_md5(b).drop_columns(["text"]), batch_format="pyarrow")
    return _to_table(keyed_reduce(ds, _text_md5_bucket, groups)).cast(
        pa.schema(
            [("text_md5", pa.string()), ("keep_doc_id", pa.int64()), ("n_copies", pa.int64())]
        )
    )


def oracle_exact_dedup_sql(relation: str = "documents") -> str:
    return f"""SELECT md5(text) AS text_md5, min(doc_id) AS keep_doc_id,
       count(*) AS n_copies
FROM {relation} GROUP BY md5(text)"""


# --- shingles (shared) ------------------------------------------------------


def shingle_batch(batch: pa.Table, n: int = JACCARD_SHINGLE_N) -> pa.Table:
    """Explode docs to DISTINCT (doc_id, shingle-hash) pairs (uint64).

    Fully vectorized (no per-row Python): n-gram windows via the
    `_ngram_strings` object-concat trick shared with decontamination
    (curation._row_ngram_hashes — windows never cross doc boundaries),
    then per-doc dedup via one lexsort over (parent, hash) + a
    first-occurrence mask. Dedup is by 64-bit hash rather than by shingle
    string; the hash IS the shingle identity everywhere downstream
    (Jaccard, minhash mins, semi-join verify), so this is the same
    relation modulo in-doc 64-bit collisions.
    """
    from .curation import _row_ngram_hashes

    hashes, parents = _row_ngram_hashes(batch, n)
    if len(hashes) == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "shingle": pa.array([], pa.uint64())}
        )
    order = np.lexsort((hashes, parents))
    p = parents[order]
    h = hashes[order]
    keep = np.empty(len(p), dtype=bool)
    keep[0] = True
    keep[1:] = (p[1:] != p[:-1]) | (h[1:] != h[:-1])
    doc_ids = batch["doc_id"].to_numpy()
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[p[keep]], pa.int64()),
            "shingle": pa.array(h[keep], pa.uint64()),
        }
    )


def _shingle_dataset(sf_dir: str, n: int, with_bucket: bool = False,
                     with_sizes: bool = False):
    import ray.data as rd

    def fn(b: pa.Table) -> pa.Table:
        t = shingle_batch(b, n)
        if with_sizes:
            # each doc's shingles come out of ITS OWN text inside this
            # batch, so its distinct-shingle count is known right here —
            # carrying it per row removes the O(N) driver size-dict the
            # jaccard finalize used to broadcast
            d = t["doc_id"].to_numpy()
            rstarts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
            rlens = np.diff(np.r_[rstarts, len(d)])
            t = t.append_column("n_sh", pa.array(np.repeat(rlens, rlens)))
        if with_bucket:
            bucket = pa.array(
                (t["shingle"].to_numpy() % np.uint64(PAIR_BUCKETS)).astype(np.int64)
            )
            t = t.append_column("bucket", bucket)
        return t

    return sized_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
                      rows_per_block=HEAVY_ROWS_PER_BLOCK).map_batches(
        fn, batch_format="pyarrow"
    )


PAIR_BUCKETS = 256  # shingle-hash buckets per pair-emit group

def _expand_candidate_runs(run_key: np.ndarray, docs: np.ndarray):
    """Shared candidate-pair expansion: sort rows by (run_key, doc), find
    equal-key runs, fan each length-L run out to its L*(L-1)/2 index pairs
    (vectorized per distinct run length). Returns (order, ai, bi) — indices
    into the SORTED arrays — or None when no run has >= 2 members."""
    order = np.lexsort((docs, run_key))
    rk = run_key[order]
    run_start = np.flatnonzero(np.r_[True, rk[1:] != rk[:-1]])
    run_len = np.diff(np.r_[run_start, len(rk)])
    keep = run_len > 1
    starts, lens = run_start[keep], run_len[keep]
    if len(starts) == 0:
        return None
    a_idx, b_idx = [], []
    for L in np.unique(lens):
        ii, jj = np.triu_indices(int(L), k=1)
        base = starts[lens == L]
        a_idx.append((base[:, None] + ii[None, :]).ravel())
        b_idx.append((base[:, None] + jj[None, :]).ravel())
    return order, np.concatenate(a_idx), np.concatenate(b_idx)



def _emit_pairs_vectorized(group: pa.Table) -> pa.Table:
    """All intra-shingle doc pairs of one bucket, numpy run-length style.

    The group holds many shingles (bucketed groupby, not per-shingle):
    sort by shingle, find runs, expand each run of length L to its
    L*(L-1)/2 ordered pairs without a Python loop over shingles.
    """
    sh = group["shingle"].to_numpy()
    docs = group["doc_id"].to_numpy()
    sizes = group["n_sh"].to_numpy()
    expanded = _expand_candidate_runs(sh, docs)
    if expanded is None:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "inter_part": pa.array([], pa.int64()),
             "n_a": pa.array([], pa.int64()), "n_b": pa.array([], pa.int64())}
        )
    order, ai, bi = expanded
    docs, sizes = docs[order], sizes[order]
    a, b = docs[ai], docs[bi]
    na, nb = sizes[ai], sizes[bi]
    swap = a > b
    lo, hi = np.where(swap, b, a), np.where(swap, a, b)
    n_lo, n_hi = np.where(swap, nb, na), np.where(swap, na, nb)
    # partial aggregation (combiner): count per pair INSIDE the group so the
    # downstream combine only sees one row per (pair, bucket). Pair identity
    # is kept as two int64 columns (lexsort run-length), NOT packed into one
    # word — doc_ids at 10^12-doc scale don't fit 32 bits each. Each side's
    # distinct-shingle count rides along (constant per pair) so the final
    # jaccard needs no broadcast size lookup.
    order = np.lexsort((hi, lo))
    lo, hi, n_lo, n_hi = lo[order], hi[order], n_lo[order], n_hi[order]
    change = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
    starts = np.flatnonzero(change)
    cnt = np.diff(np.r_[starts, len(lo)])
    lo, hi = lo[starts].astype(np.int64), hi[starts].astype(np.int64)
    return pa.table(
        {
            "pb": pa.array(_pair_bucket(lo, hi)),
            "a": pa.array(lo),
            "b": pa.array(hi),
            "inter_part": pa.array(cnt.astype(np.int64)),
            "n_a": pa.array(n_lo[starts].astype(np.int64)),
            "n_b": pa.array(n_hi[starts].astype(np.int64)),
        }
    )


def _collapse_pair_partials(group: pa.Table) -> pa.Table:
    """One pair-hash bucket: sum each pair's per-shingle-bucket intersection
    partials into its final intersection count, vectorized (lexsort +
    reduceat). Replaces groupby(a, b).aggregate(...): Ray's keyed aggregate
    walks group boundaries in Python — measured 519 s at sf0.1 for 1.1M
    tiny groups vs ~3 s for this in-group collapse."""
    a = group["a"].to_numpy()
    b = group["b"].to_numpy()
    ip = group["inter_part"].to_numpy()
    na = group["n_a"].to_numpy()
    nb = group["n_b"].to_numpy()
    order = np.lexsort((b, a))
    a, b, ip, na, nb = a[order], b[order], ip[order], na[order], nb[order]
    starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    inter = np.add.reduceat(ip, starts) if len(starts) else ip[:0]
    return pa.table(
        {
            "a": pa.array(a[starts]),
            "b": pa.array(b[starts]),
            "inter": pa.array(inter.astype(np.int64)),
            "n_a": pa.array(na[starts]),
            "n_b": pa.array(nb[starts]),
        }
    )


def q_jaccard_pairs(sf_dir: str) -> pa.Table:
    """Exact n-gram Jaccard near-dup pairs: (doc_a, doc_b, jaccard_r >= θ).

    Fully distributed plan — neither shingles nor per-doc sizes ever
    materialize on the driver:
      map_batches(shingle+size+bucket) -> groupby(bucket).map_groups(pair
      partials carrying both sides' distinct-shingle counts, vectorized)
      -> groupby(pb = hash(pair)).map_groups(vectorized reduceat collapse)
      -> map_batches finalize (pure column arithmetic). Quadratic by
      nature in duplicate density (documented); MinHash-LSH below is the
      sub-quadratic path.
    """
    inter_ds = (
        _shingle_dataset(sf_dir, JACCARD_SHINGLE_N, with_bucket=True,
                         with_sizes=True)
        .groupby("bucket")
        .map_groups(_emit_pairs_vectorized, batch_format="pyarrow")
        .groupby("pb")
        .map_groups(_collapse_pair_partials, batch_format="pyarrow")
    )

    def finalize(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        i = batch["inter"].to_numpy().astype(np.float64)
        na = batch["n_a"].to_numpy().astype(np.float64)
        nb = batch["n_b"].to_numpy().astype(np.float64)
        j = i / (na + nb - i)
        keep = j >= JACCARD_THRESHOLD
        return pa.table(
            {
                "doc_a": pa.array(a[keep], pa.int64()),
                "doc_b": pa.array(b[keep], pa.int64()),
                "jaccard_r": pa.array(round_half_away_np(j[keep], 6), pa.float64()),
            }
        )

    t = _to_table(inter_ds.map_batches(finalize, batch_format="pyarrow"))
    if t.num_rows == 0:
        return pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
             "jaccard_r": pa.array([], pa.float64())}
        )
    return t.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])


def oracle_jaccard_pairs_sql(relation: str = "documents") -> str:
    n = JACCARD_SHINGLE_N
    expr = " || ' ' || ".join(f"arr[i+{k}]" for k in range(n))
    return f"""WITH t AS (SELECT doc_id, string_split(text, ' ') AS arr FROM {relation}),
sh AS (SELECT DISTINCT doc_id, md5_number_lower({expr}) AS shingle
       FROM (SELECT doc_id, arr,
                    unnest(generate_series(1, greatest(len(arr) - {n - 1}, 0))) AS i
             FROM t)),
sizes AS (SELECT doc_id, count(*) AS n_sh FROM sh GROUP BY doc_id),
pairs AS (SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, count(*) AS inter
          FROM sh x JOIN sh y ON x.shingle = y.shingle AND x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id)
SELECT p.doc_a, p.doc_b,
       ROUND(CAST(p.inter AS DOUBLE) / (sa.n_sh + sb.n_sh - p.inter), 6) AS jaccard_r
FROM pairs p JOIN sizes sa ON sa.doc_id = p.doc_a JOIN sizes sb ON sb.doc_id = p.doc_b
WHERE CAST(p.inter AS DOUBLE) / (sa.n_sh + sb.n_sh - p.inter) >= {JACCARD_THRESHOLD}"""


# --- MinHash + LSH ----------------------------------------------------------


def _minhash_params(seed: int = 42):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=MINHASH_PERMS, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=MINHASH_PERMS, dtype=np.int64).astype(np.uint64)
    return a, b


def _mod_mersenne(y: np.ndarray) -> np.ndarray:
    """``y % (2^61 - 1)`` for uint64 ``y``; ``y`` is overwritten as scratch.

    2^61 = 1 (mod M), so ``y = hi * 2^61 + lo`` folds to ``lo + hi`` in
    [0, M + 7]; one conditional subtract finishes it. For ``r < M`` the
    subtraction wraps above ``r``, so ``minimum`` keeps ``r``. Two masks,
    a shift, an add and a min instead of a 64-bit integer division."""
    m = np.uint64(_MERSENNE)
    r = y & m
    y >>= np.uint64(61)
    r += y
    np.subtract(r, m, out=y)
    np.minimum(r, y, out=r)
    return r


def minhash_signatures(sh_table: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, signatures[n_docs, MINHASH_PERMS]) from (doc, shingle).

    h_i(x) = (a_i * x + b_i) mod 2^61-1, where the product and the sum
    wrap at 2^64 before the modulus (numpy uint64), folded by
    ``_mod_mersenne``. The per-doc column minima use
    ``np.minimum.reduceat`` over contiguous doc runs (``np.minimum.at`` is
    a scalar inner loop). Chunks are cut at DOC boundaries, about 256
    shingle rows each, so every reduceat segment is complete and the
    (rows x 128) hash matrix stays cache-sized: chunks of 2^16 rows made
    several 64 MB temporaries per worker and ran 3x slower."""
    docs = sh_table["doc_id"].to_numpy()
    sh = sh_table["shingle"].to_numpy().astype(np.uint64)
    if len(docs) > 1 and not np.all(docs[1:] >= docs[:-1]):
        order = np.argsort(docs, kind="stable")
        docs, sh = docs[order], sh[order]
    uniq_docs, starts = np.unique(docs, return_index=True)
    ends = np.append(starts[1:], len(docs))
    a, b = _minhash_params()
    parts: list[np.ndarray] = []
    i, n_docs, block = 0, len(uniq_docs), 256
    while i < n_docs:
        j = max(int(np.searchsorted(starts, starts[i] + block, side="left")), i + 1)
        lo, hi = int(starts[i]), int(ends[j - 1])
        hv = np.multiply(sh[lo:hi, None], a[None, :])
        hv += b
        hv = _mod_mersenne(hv)
        parts.append(np.minimum.reduceat(hv, starts[i:j] - lo, axis=0))
        i = j
    if not parts:
        return uniq_docs, np.empty((0, MINHASH_PERMS), dtype=np.uint64)
    sig = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return uniq_docs, sig


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _mix_columns(mat: np.ndarray) -> np.ndarray:
    """FNV-1a fold of each row's uint64 columns into one 64-bit bucket key
    (deterministic cross-process; numpy uint64 arithmetic wraps)."""
    k = np.full(len(mat), _FNV_OFFSET, dtype=np.uint64)
    for c in range(mat.shape[1]):
        k = (k ^ mat[:, c]) * _FNV_PRIME
    return k


def _band_rows_batch(batch: pa.Table) -> pa.Table:
    """map_batches stage: docs -> one (run_key, doc_id) LSH-bucket row per
    band, 16 bytes each. ``run_key`` folds the band into the band's key,
    so two docs are candidates iff they share a run_key. Each doc's
    shingles live entirely in its own batch, so the signature is exact;
    only these tiny rows leave the task."""
    sh_tbl = shingle_batch(batch, JACCARD_SHINGLE_N)
    if sh_tbl.num_rows == 0:
        return pa.table(
            {"run_key": pa.array([], pa.uint64()), "doc_id": pa.array([], pa.int64())}
        )
    doc_ids, sig = minhash_signatures(sh_tbl)
    rows = MINHASH_PERMS // MINHASH_BANDS
    salt = _PAIR_MIX * np.arange(MINHASH_BANDS, dtype=np.uint64)  # wraps
    keys = [
        _mix_columns(sig[:, band * rows : (band + 1) * rows]) ^ salt[band]
        for band in range(MINHASH_BANDS)
    ]
    return pa.table(
        {
            "run_key": pa.array(np.concatenate(keys), pa.uint64()),
            "doc_id": pa.array(np.tile(doc_ids, MINHASH_BANDS), pa.int64()),
        }
    )


def _emit_bucket_pairs(group: pa.Table) -> pa.Table:
    """Candidate pairs of one bucket of LSH buckets: runs of equal run_key
    after a lexsort expand to their doc pairs, vectorized."""
    docs = group["doc_id"].to_numpy()
    expanded = _expand_candidate_runs(group["run_key"].to_numpy(), docs)
    if expanded is None:
        return pa.table({"pb": pa.array([], pa.int64()), "a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64())})
    lo, hi = _unique_pairs(docs, *expanded)
    return pa.table(
        {"pb": pa.array(_pair_bucket(lo, hi)),
         "a": pa.array(lo), "b": pa.array(hi)}
    )


def _unique_pairs(docs: np.ndarray, order: np.ndarray, ai: np.ndarray,
                  bi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (lo, hi) doc pairs of an ``_expand_candidate_runs``
    result, as two int64 arrays ordered by (lo, hi)."""
    docs = docs[order]
    a, b = docs[ai], docs[bi]
    u = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1), axis=0)
    return u[:, 0].astype(np.int64), u[:, 1].astype(np.int64)


def _dedup_candidate_pairs(group: pa.Table) -> pa.Table:
    """One pair-hash bucket of LSH candidates: collapse duplicate (a, b)
    rows (one per colliding band bucket) to a single row carrying the
    collision count. Vectorized; replaces groupby(a, b).aggregate(Count)
    — see _collapse_pair_partials for the measured pathology."""
    a = group["a"].to_numpy()
    b = group["b"].to_numpy()
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    n = np.diff(np.r_[starts, len(a)])
    return pa.table(
        {
            "a": pa.array(a[starts]),
            "b": pa.array(b[starts]),
            "n_bands": pa.array(n.astype(np.int64)),
        }
    )


def _dedup_shuffle_partitions() -> int:
    """Shuffle width for the small intermediate dedup streams (candidate
    pairs, semi-join legs): LUCENE_RAY_DEDUP_PARTITIONS env override, else
    the cluster CPU count."""
    import os

    v = os.environ.get("LUCENE_RAY_DEDUP_PARTITIONS")
    if v:
        return max(2, int(v))
    try:
        import ray

        return max(8, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 8


_PAIR_MIX = np.uint64(0x9E3779B97F4A7C15)


def _pair_bucket(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Deterministic pair -> verify-bucket hash (numpy uint64 wraps)."""
    k = (lo.astype(np.uint64) * _PAIR_MIX) ^ hi.astype(np.uint64)
    return (k % np.uint64(PAIR_BUCKETS)).astype(np.int64)


def _pair_need_rows(batch: pa.Table) -> pa.Table:
    """Candidate pairs -> two 'shingle-set needed' rows per pair (one per
    side), keyed by doc_id for the hash-partitioned semi-join with the
    document stream. text is null on this side (union schema harmony)."""
    a = batch["a"].to_numpy().astype(np.int64)
    b = batch["b"].to_numpy().astype(np.int64)
    doc = np.concatenate([a, b])
    lo = np.concatenate([a, a])
    hi = np.concatenate([b, b])
    return pa.table(
        {
            "jbucket": pa.array((doc % PAIR_BUCKETS).astype(np.int64)),
            "doc_id": pa.array(doc),
            "text": pa.array([None] * len(doc), pa.string()),
            "pair_lo": pa.array(lo),
            "pair_hi": pa.array(hi),
        }
    )


def _doc_join_rows(batch: pa.Table) -> pa.Table:
    """Document stream side of the semi-join: (jbucket, doc_id, text) with
    null pair columns. Shuffles text ONCE, hash-partitioned by doc_id — the
    promised no-broadcast fallback: memory per task is one bucket's docs,
    never an O(corpus) driver set."""
    d = batch["doc_id"].to_numpy().astype(np.int64)
    nulls = pa.array([None] * len(d), pa.int64())
    return pa.table(
        {
            "jbucket": pa.array((d % PAIR_BUCKETS).astype(np.int64)),
            "doc_id": pa.array(d),
            "text": batch["text"].cast(pa.string()),
            "pair_lo": nulls,
            "pair_hi": nulls,
        }
    )


def _attach_shingles(group: pa.Table) -> pa.Table:
    """One jbucket of the semi-join: shingle ONLY the docs some pair needs
    (np.isin membership, vectorized shingle_batch) and emit one row per
    pair-side carrying the doc's packed shingle set (uint64 bytes), keyed
    by the PAIR's verify bucket."""
    import pyarrow.compute as pc

    empty = pa.table(
        {"pbucket": pa.array([], pa.int64()), "pair_lo": pa.array([], pa.int64()),
         "pair_hi": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64()),
         "sh": pa.array([], pa.binary())}
    )
    is_need = pc.is_valid(group["pair_lo"])
    need = group.filter(is_need)
    if need.num_rows == 0:
        return empty
    docs_side = group.filter(pc.invert(is_need))
    need_ids = np.unique(need["doc_id"].to_numpy())
    dmask = np.isin(docs_side["doc_id"].to_numpy(), need_ids)
    sub = docs_side.filter(pa.array(dmask)).select(["doc_id", "text"])
    sh = shingle_batch(sub, JACCARD_SHINGLE_N)
    sdocs = sh["doc_id"].to_numpy()
    svals = sh["shingle"].to_numpy()
    order = np.argsort(sdocs, kind="stable")
    sdocs, svals = sdocs[order], svals[order]
    uniq, starts = np.unique(sdocs, return_index=True)
    ends = np.r_[starts[1:], len(sdocs)]
    blob = {int(d): svals[s:e].tobytes() for d, s, e in zip(uniq, starts, ends)}
    nd = need["doc_id"].to_numpy()
    lo = need["pair_lo"].to_numpy().astype(np.int64)
    hi = need["pair_hi"].to_numpy().astype(np.int64)
    return pa.table(
        {
            "pbucket": pa.array(_pair_bucket(lo, hi)),
            "pair_lo": pa.array(lo),
            "pair_hi": pa.array(hi),
            "doc_id": pa.array(nd.astype(np.int64)),
            "sh": pa.array([blob.get(int(d), b"") for d in nd], pa.binary()),
        }
    )


def _verify_pair_group(group: pa.Table) -> pa.Table:
    """One verify bucket: rows arrive two per pair (side a, side b), each
    carrying its doc's packed shingle set — exact Jaccard computes WHERE
    the pair lives (the simhash verify-in-group pattern applied to the
    MinHash path; reference role: updateDocument dedup semantics, s84
    index/IndexWriter.java:1603)."""
    lo = group["pair_lo"].to_numpy()
    hi = group["pair_hi"].to_numpy()
    docs = group["doc_id"].to_numpy()
    blobs = group["sh"].to_pylist()
    order = np.lexsort((docs, hi, lo))
    out_a, out_b, out_j = [], [], []
    i = 0
    while i + 1 < len(order):
        ra, rb = order[i], order[i + 1]
        if lo[ra] != lo[rb] or hi[ra] != hi[rb]:  # unpaired row (shouldn't happen)
            i += 1
            continue
        sa = np.frombuffer(blobs[ra], dtype=np.uint64)
        sb = np.frombuffer(blobs[rb], dtype=np.uint64)
        inter = len(np.intersect1d(sa, sb)) if len(sa) and len(sb) else 0
        j = inter / (len(sa) + len(sb) - inter) if inter else 0.0
        if j >= JACCARD_THRESHOLD:
            out_a.append(int(lo[ra]))
            out_b.append(int(hi[ra]))
            out_j.append(round_half_away(j, 6))
        i += 2
    return pa.table(
        {
            "doc_a": pa.array(out_a, pa.int64()),
            "doc_b": pa.array(out_b, pa.int64()),
            "jaccard_r": pa.array(out_j, pa.float64()),
        }
    )


def _candidate_pairs_dataset(band_rows, parts: int):
    """Distributed candidate generation from a Dataset of band rows: pairs
    via one keyed pass by run_key (common.keyed_reduce) with in-bucket
    vectorized expansion -> global pair dedup via groupby(pb = hash(pair))
    with an in-group vectorized collapse. Returns a Dataset of
    (a, b, n_bands)."""
    pairs = keyed_reduce(band_rows, lambda t: t["run_key"].to_numpy(), _emit_bucket_pairs)
    return (
        pairs.repartition(max(4, parts // 4))
        .groupby("pb")
        .map_groups(_dedup_candidate_pairs, batch_format="pyarrow")
    )


def _minhash_driver_verify_max_docs() -> int:
    import os

    return int(os.environ.get("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_DOCS", "250000"))


def _minhash_driver_verify_max_pairs() -> int:
    """Cap on the candidate-pair BOUND for the driver-verify fast path:
    Σ L(L-1)/2 over the sorted run lengths L of the band rows' run keys.

    The bound counts a pair once per band it collides in, so it is an
    upper bound on the distinct candidates, and it is known from the run
    lengths alone, before any pair is expanded. The doc-count pre-filter
    alone is unsafe on skewed corpora: a 200k-doc corpus that is 50%
    boilerplate puts O(dups^2) pairs in each hot LSH bucket. So the fast
    path is gated TWICE: corpus docs (parquet metadata; decides whether
    band rows come to the driver at all) AND this bound. Over the cap, the
    band rows already on the driver go into the distributed candidate and
    semi-join verify stages (no recompute of the banding), so the driver
    never expands a quadratic hot run."""
    import os

    return int(os.environ.get("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_PAIRS", "100000"))


def _driver_verify_pairs(sf_dir: str, cand: pa.Table) -> pa.Table:
    """Toy-scale exact-verify fast path: candidate pairs (already small —
    post-LSH, post-dedup) land on the driver, the needed docs' texts come
    back via a pruned duckdb semi-join (the ann.py point-lookup pattern),
    and Jaccard runs locally. O(candidates + needed docs) driver memory —
    safe ONLY under the corpus-size cutover that routes large corpora to
    the distributed semi-join in minhash_lsh_pairs_dataset."""
    import duckdb

    a = cand["a"].to_numpy().astype(np.int64)
    b = cand["b"].to_numpy().astype(np.int64)
    need = np.unique(np.concatenate([a, b]))
    con = duckdb.connect()
    con.register("need_ids", pa.table({"doc_id": pa.array(need, pa.int64())}))
    sub = con.execute(
        f"SELECT d.doc_id, d.text FROM read_parquet('{sf_dir}/documents.parquet') d "
        "JOIN need_ids USING (doc_id)"
    ).fetch_arrow_table()
    sh = shingle_batch(sub.combine_chunks(), JACCARD_SHINGLE_N)
    sdocs = sh["doc_id"].to_numpy()
    svals = sh["shingle"].to_numpy()
    order = np.argsort(sdocs, kind="stable")
    sdocs, svals = sdocs[order], svals[order]
    uniq, starts = np.unique(sdocs, return_index=True)
    ends = np.r_[starts[1:], len(sdocs)]
    sets = {int(d): svals[s:e] for d, s, e in zip(uniq, starts, ends)}
    out_a, out_b, out_j = [], [], []
    for lo, hi in zip(a, b):
        sa = sets.get(int(lo))
        sb = sets.get(int(hi))
        if sa is None or sb is None:
            continue
        inter = len(np.intersect1d(sa, sb))
        j = inter / (len(sa) + len(sb) - inter) if inter else 0.0
        if j >= JACCARD_THRESHOLD:
            out_a.append(int(lo))
            out_b.append(int(hi))
            out_j.append(round_half_away(j, 6))
    return pa.table(
        {
            "doc_a": pa.array(out_a, pa.int64()),
            "doc_b": pa.array(out_b, pa.int64()),
            "jaccard_r": pa.array(out_j, pa.float64()),
        }
    )


def minhash_lsh_pairs_dataset(sf_dir: str):
    """The full MinHash+LSH near-dup pipeline as ONE lazy Ray Dataset —
    no driver-side materialization anywhere on the path (pinned by
    tests/test_pipelines.py::test_minhash_lsh_distributed_verify, which
    executes it with Dataset.take_all forbidden).

    Plan: band rows (map_batches; shingles never shuffle) -> candidate
    pairs via a keyed pass by run_key (band folded into the band key) with
    in-bucket vectorized expansion -> global pair dedup via groupby(pb =
    hash(pair)) -> exact verify via a hash-partitioned SEMI-JOIN: pair-side
    'need' rows union the document stream, groupby(jbucket = hash(doc_id))
    attaches each needed doc's packed shingle set to its pair rows, and
    groupby(pbucket = hash(pair)) computes exact Jaccard inside the pair
    group. Work on the verify leg is proportional to candidate volume; the
    only corpus-wide cost is one hash-partitioned pass of the text column
    (the join's doc side) — no broadcast set, no O(corpus) driver state.

    Physical shuffle width: the candidate/verify streams are orders of
    magnitude smaller than the corpus, but a groupby inherits its input's
    block count, so at small scale the plan degenerates into hundreds of
    KB-sized shuffle tasks (measured: ~3x wall time in pure task-scheduling
    overhead). The intermediate streams are therefore repartitioned to
    LUCENE_RAY_DEDUP_PARTITIONS (default: cluster CPU count — the Spark
    spark.sql.shuffle.partitions precedent; raise to ~corpus_bytes/512MB on
    a 100-TB deployment so the semi-join legs keep block sizes bounded)."""
    parts = _dedup_shuffle_partitions()
    docs = sized_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
                      rows_per_block=HEAVY_ROWS_PER_BLOCK)
    band_rows = docs.map_batches(_band_rows_batch, batch_format="pyarrow")
    return _distributed_verify_dataset(
        docs, _candidate_pairs_dataset(band_rows, parts), parts)


def _distributed_verify_dataset(docs, cand, parts: int):
    """Exact-Jaccard verify of a candidate-pair Dataset against the document
    stream via the hash-partitioned semi-join (see minhash_lsh_pairs_dataset
    docstring). Shared with the small-corpus path, whose band rows go
    through the distributed candidate stage and here when their pair bound
    overflows."""
    need = cand.map_batches(_pair_need_rows, batch_format="pyarrow")
    doc_side = docs.map_batches(_doc_join_rows, batch_format="pyarrow")
    return (
        doc_side.union(need)
        .repartition(parts)
        .groupby("jbucket")
        .map_groups(_attach_shingles, batch_format="pyarrow")
        .groupby("pbucket")
        .map_groups(_verify_pair_group, batch_format="pyarrow")
    )


def q_minhash_lsh_pairs(sf_dir: str) -> pa.Table:
    """MinHash+LSH near-dup pairs verified by exact Jaccard:
    (doc_a, doc_b, jaccard_r). Probabilistic recall — rows-only check.

    Corpora at or under LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_DOCS (default
    250k rows, read from parquet metadata — no execution) run ONE pass,
    read + map_batches(_band_rows_batch), and bring only the 16-byte
    (run_key, doc_id) band rows to the driver (64 MB at the cap): no
    groupby, repartition or union. Each distributed stage cost about 2 s
    of fixed task-scheduling latency at toy scale (BASELINE.md round 3),
    and the three shuffles the candidate stage ran found about 100 pairs
    that landed on the driver anyway. On the driver, the pair bound
    Σ L(L-1)/2 over the run lengths comes first: at or under
    LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_PAIRS, one run expansion plus
    np.unique gives the distinct candidates, verified on the driver via a
    pruned duckdb text lookup; over it (skew guard: a small
    boilerplate-heavy corpus can put quadratic pairs in one bucket), the
    band rows go to the distributed candidate and semi-join verify stages
    without recomputing the banding. Corpora over the doc cap take the
    100-TB scale path, fully distributed end to end
    (minhash_lsh_pairs_dataset): only band rows, candidate pairs,
    hash-partitioned text blocks and packed shingle blobs ever move between
    nodes. All paths produce identical pairs (pinned by
    test_minhash_cutover_paths_agree, test_minhash_pair_overflow_reroute
    and test_minhash_hot_run_reroutes_before_expansion)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    if n_docs > _minhash_driver_verify_max_docs():
        t = _to_table(minhash_lsh_pairs_dataset(sf_dir))
    else:
        docs = sized_read(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"],
                          rows_per_block=HEAVY_ROWS_PER_BLOCK)
        rows = _to_table(docs.map_batches(_band_rows_batch, batch_format="pyarrow"))
        t = rows.slice(0, 0)
        if rows.num_rows:
            run_key = rows["run_key"].to_numpy()
            _, lens = np.unique(run_key, return_counts=True)
            bound = int((lens * (lens - 1) // 2).sum())
            if bound > _minhash_driver_verify_max_pairs():
                parts = _dedup_shuffle_partitions()
                cand = _candidate_pairs_dataset(rd.from_arrow(rows), parts)
                t = _to_table(_distributed_verify_dataset(docs, cand, parts))
            elif bound:
                doc_ids = rows["doc_id"].to_numpy()
                lo, hi = _unique_pairs(doc_ids, *_expand_candidate_runs(run_key, doc_ids))
                t = _driver_verify_pairs(sf_dir, pa.table({"a": lo, "b": hi}))
    if t.num_rows == 0:
        return pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
             "jaccard_r": pa.array([], pa.float64())}
        )
    t = t.select(["doc_a", "doc_b", "jaccard_r"])
    return t.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])


# --- SimHash ----------------------------------------------------------------


def _simhash_band_rows(batch: pa.Table) -> pa.Table:
    """map_batches: docs -> one (band, key16, doc_id, simhash) row per band
    (4-band pigeonhole: any pair within Hamming distance 3 agrees exactly
    on >= 1 of the 4 disjoint 16-bit bands)."""
    from .textops import fingerprint_batch

    fp = fingerprint_batch(batch)
    docs = fp["doc_id"].to_numpy()
    sims = fp["simhash"].to_numpy().astype(np.uint64)
    bands, keys, out_docs, out_sims = [], [], [], []
    for band in range(4):
        bands.append(np.full(len(docs), band, dtype=np.int32))
        keys.append(((sims >> np.uint64(band * 16)) & np.uint64(0xFFFF)).astype(np.int64))
        out_docs.append(docs)
        out_sims.append(sims)
    keys_cat = np.concatenate(keys)
    bands_cat = np.concatenate(bands)
    bucket = ((bands_cat.astype(np.int64) << 16) | keys_cat) % PAIR_BUCKETS
    return pa.table(
        {
            "band": pa.array(bands_cat),
            "key": pa.array(keys_cat),
            "bucket": pa.array(bucket),
            "doc_id": pa.array(np.concatenate(out_docs)),
            "simhash": pa.array(np.concatenate(out_sims), pa.uint64()),
        }
    )


def _emit_simhash_pairs(group: pa.Table) -> pa.Table:
    """In-group candidate expansion + Hamming verification: the group rows
    carry each doc's full simhash, so pairs verify WHERE they are found —
    no second lookup pass. Output: one row per surviving (a, b) in-bucket."""
    band = group["band"].to_numpy().astype(np.int64)
    key = group["key"].to_numpy()
    docs = group["doc_id"].to_numpy()
    sims = group["simhash"].to_numpy().astype(np.uint64)
    run_key = (band << 16) | key
    expanded = _expand_candidate_runs(run_key.astype(np.uint64), docs)
    if expanded is None:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "hamming": pa.array([], pa.int64())}
        )
    order, ai, bi = expanded
    docs, sims = docs[order], sims[order]
    # vectorized popcount of the XOR (bit_count arrived in numpy 2; unpackbits works everywhere)
    x = (sims[ai] ^ sims[bi]).view(np.uint8).reshape(-1, 8)
    ham = np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)
    keep2 = ham <= SIMHASH_MAX_HAMMING
    a = docs[ai[keep2]]
    b = docs[bi[keep2]]
    h = ham[keep2]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    u, ui = np.unique(np.stack([lo, hi], axis=1), axis=0, return_index=True)
    return pa.table(
        {
            "a": pa.array(u[:, 0].astype(np.int64)),
            "b": pa.array(u[:, 1].astype(np.int64)),
            "hamming": pa.array(h[ui]),
        }
    )


def q_simhash_pairs(sf_dir: str) -> pa.Table:
    """SimHash near-dup pairs with Hamming distance <= 3, found exactly via
    4-band pigeonhole blocking: (doc_a, doc_b, hamming).

    Distributed plan: fingerprints + band rows in map_batches, candidates
    AND Hamming verification inside groupby(bucket) groups (simhash rides
    the band row), cross-band pair dedup via groupby(a, b).min(hamming)."""
    import ray.data as rd
    from ray.data.aggregate import Min

    t = _to_table(
        sized_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
                   rows_per_block=HEAVY_ROWS_PER_BLOCK)
        .map_batches(_simhash_band_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_emit_simhash_pairs, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Min("hamming", alias_name="hamming"))
    )
    if t.num_rows == 0:
        return pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
             "hamming": pa.array([], pa.int64())}
        )
    t = t.sort_by([("a", "ascending"), ("b", "ascending")])
    return pa.table(
        {
            "doc_a": t["a"].cast(pa.int64()),
            "doc_b": t["b"].cast(pa.int64()),
            "hamming": t["hamming"].cast(pa.int64()),
        }
    )


def oracle_simhash_pairs_sql(relation: str = "documents") -> str:
    from .textops import oracle_fingerprint_sql

    return f"""WITH fp AS ({oracle_fingerprint_sql(relation)})
SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
       CAST(bit_count(xor(x.simhash, y.simhash)) AS BIGINT) AS hamming
FROM fp x JOIN fp y ON x.doc_id < y.doc_id
WHERE bit_count(xor(x.simhash, y.simhash)) <= {SIMHASH_MAX_HAMMING}"""


# --- embedding cosine near-dup ----------------------------------------------


def q_embed_dup_pairs(sf_dir: str) -> pa.Table:
    """Embedding near-dup pairs: cosine >= θ, (vec_a, vec_b, cos_r).

    Blocked matmul of each batch against the full broadcast matrix
    (ray.put once; each task reads the object-store copy zero-copy).
    """
    import ray
    import ray.data as rd
    import pyarrow.parquet as pq

    full = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids_all = full["vec_id"].to_numpy()
    mat = np.stack(full["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    ref = ray.put((ids_all, mat))

    class PairFinder:
        def __init__(self):
            self.ids_all, self.mat = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["vec_id"].to_numpy()
            v = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            sims = v @ self.mat.T
            ii, jj = np.nonzero(sims >= EMBED_COS_THRESHOLD)
            a = ids[ii]
            b = self.ids_all[jj]
            keep = a < b
            return pa.table(
                {
                    "vec_a": pa.array(a[keep], pa.int64()),
                    "vec_b": pa.array(b[keep], pa.int64()),
                    "cos_r": pa.array(round_half_away_np(sims[ii, jj][keep], 6), pa.float64()),
                }
            )

    ds = sized_read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
                    rows_per_block=HEAVY_ROWS_PER_BLOCK).map_batches(
        PairFinder, batch_format="pyarrow", concurrency=(1, 8)
    )
    return _to_table(ds)


# --- embedding near-dup, LSH-blocked (the sub-quadratic scale path) ---------

EMBED_LSH_COS_THRESHOLD = 0.85  # near-dup bar for the blocked variant
EMBED_LSH_BANDS = 16
EMBED_LSH_BITS = 8  # bits per band; recall ~0.98 at cos=0.85


def _hyperplanes(dim: int, seed: int = 7) -> np.ndarray:
    """Deterministic random hyperplanes [EMBED_LSH_BANDS*EMBED_LSH_BITS, dim]."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((EMBED_LSH_BANDS * EMBED_LSH_BITS, dim)).astype(np.float64)


def _embed_band_rows(batch: pa.Table) -> pa.Table:
    """map_batches: vectors -> one (band, key, vec_id, vec bytes) row per
    band. Sign bits of random projections (SimHash over embeddings) bucket
    similar vectors; the normalized vector rides along so verification
    happens inside the candidate group."""
    ids = batch["vec_id"].to_numpy()
    v = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    bits = (v @ _hyperplanes(v.shape[1]).T) >= 0  # [n, bands*bits]
    weights = (1 << np.arange(EMBED_LSH_BITS, dtype=np.int64))
    bands, keys, out_ids, out_vecs = [], [], [], []
    vec_bytes = [x.astype(np.float32).tobytes() for x in v]
    for band in range(EMBED_LSH_BANDS):
        chunk = bits[:, band * EMBED_LSH_BITS : (band + 1) * EMBED_LSH_BITS]
        key = (chunk.astype(np.int64) * weights[None, :]).sum(axis=1)
        bands.append(np.full(len(ids), band, dtype=np.int32))
        keys.append(key)
        out_ids.append(ids)
        out_vecs.extend(vec_bytes)
    bands_cat = np.concatenate(bands)
    keys_cat = np.concatenate(keys)
    bucket = ((bands_cat.astype(np.int64) << EMBED_LSH_BITS) | keys_cat) % PAIR_BUCKETS
    return pa.table(
        {
            "band": pa.array(bands_cat),
            "key": pa.array(keys_cat),
            "bucket": pa.array(bucket),
            "vec_id": pa.array(np.concatenate(out_ids).astype(np.int64)),
            "vec": pa.array(out_vecs, pa.binary()),
        }
    )


def _emit_embed_pairs(group: pa.Table) -> pa.Table:
    """In-group verify: per (band, key) run, brute cosine among members."""
    band = group["band"].to_numpy().astype(np.int64)
    key = group["key"].to_numpy()
    ids = group["vec_id"].to_numpy()
    vecs = group["vec"].to_pylist()
    run_key = (band << EMBED_LSH_BITS) | key
    order = np.argsort(run_key, kind="stable")
    rk, ids = run_key[order], ids[order]
    out_a, out_b, out_c = [], [], []
    bounds = np.flatnonzero(np.r_[True, rk[1:] != rk[:-1]])
    for s, e in zip(bounds, np.r_[bounds[1:], len(rk)]):
        if e - s < 2:
            continue
        members = order[s:e]
        m = np.stack([np.frombuffer(vecs[i], dtype=np.float32) for i in members]).astype(np.float64)
        sims = m @ m.T
        ii, jj = np.nonzero(np.triu(sims >= EMBED_LSH_COS_THRESHOLD, k=1))
        a = ids[s:e][ii]
        b = ids[s:e][jj]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        out_a.append(lo)
        out_b.append(hi)
        out_c.append(sims[ii, jj])
    if not out_a:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "cos": pa.array([], pa.float64())}
        )
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    c = np.concatenate(out_c)
    u, ui = np.unique(np.stack([a, b], axis=1), axis=0, return_index=True)
    return pa.table(
        {
            "a": pa.array(u[:, 0].astype(np.int64)),
            "b": pa.array(u[:, 1].astype(np.int64)),
            "cos": pa.array(c[ui]),
        }
    )


EMBED_LSH_PLANT_N = 32  # planted jittered near-dups in the gate query
EMBED_LSH_PLANT_OFFSET = 1_000_000


def _plant_near_dups(batch: pa.Table) -> pa.Table:
    """Deterministically append a jittered copy (cos ~0.99) of each vec_id <
    EMBED_LSH_PLANT_N as vec_id + EMBED_LSH_PLANT_OFFSET. The natural
    fixture has no pairs above the near-dup bar (max cos ~0.51), so the
    gate query plants its own ground truth — the recall statement is that
    every planted (i, i+offset) pair must come back."""
    ids = batch["vec_id"].to_numpy()
    sel = np.flatnonzero(ids < EMBED_LSH_PLANT_N)
    if len(sel) == 0:
        return batch
    embs = batch["embedding"].to_numpy(zero_copy_only=False)
    new_ids, new_embs = [], []
    for i in sel:
        v = np.asarray(embs[i], dtype=np.float64)
        rng = np.random.default_rng(int(ids[i]) + 12345)
        w = v + rng.standard_normal(len(v)) * (0.05 * np.linalg.norm(v) / np.sqrt(len(v)))
        new_ids.append(int(ids[i]) + EMBED_LSH_PLANT_OFFSET)
        new_embs.append(w.astype(np.float32).tolist())
    extra = pa.table(
        {
            "vec_id": pa.array(new_ids, batch["vec_id"].type),
            "embedding": pa.array(new_embs, batch["embedding"].type),
        }
    )
    return pa.concat_tables([batch.select(["vec_id", "embedding"]), extra])


def q_embed_dup_lsh_pairs(sf_dir: str) -> pa.Table:
    """Hyperplane-LSH-blocked embedding near-dups (vec_a, vec_b, cos_r >=
    EMBED_LSH_COS_THRESHOLD) over the embeddings table augmented with
    EMBED_LSH_PLANT_N deterministic jittered copies (see _plant_near_dups).
    Probabilistic recall (~0.98 per pair at the bar) — rows-only check; the
    exact q_embed_dup_pairs above is the oracle-checked baseline. No
    full-matrix broadcast: candidates form inside bucket groups, so work
    scales with collision volume, not N^2."""
    import ray.data as rd
    from ray.data.aggregate import Max

    t = _to_table(
        sized_read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
                   rows_per_block=HEAVY_ROWS_PER_BLOCK)
        .map_batches(_plant_near_dups, batch_format="pyarrow")
        .map_batches(_embed_band_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_emit_embed_pairs, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Max("cos", alias_name="cos"))
    )
    if t.num_rows == 0:
        return pa.table(
            {"vec_a": pa.array([], pa.int64()), "vec_b": pa.array([], pa.int64()),
             "cos_r": pa.array([], pa.float64())}
        )
    t = t.sort_by([("a", "ascending"), ("b", "ascending")])
    return pa.table(
        {
            "vec_a": t["a"].cast(pa.int64()),
            "vec_b": t["b"].cast(pa.int64()),
            "cos_r": pa.array(
                round_half_away_np(t["cos"].to_numpy(), 6), pa.float64()
            ),
        }
    )


def oracle_embed_dup_sql(relation: str = "embeddings") -> str:
    return f"""WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM {relation})
SELECT x.vec_id AS vec_a, y.vec_id AS vec_b,
       ROUND(list_dot_product(x.e, y.e)
             / (sqrt(list_dot_product(x.e, x.e)) * sqrt(list_dot_product(y.e, y.e))), 6) AS cos_r
FROM n x JOIN n y ON x.vec_id < y.vec_id
WHERE list_dot_product(x.e, y.e)
      / (sqrt(list_dot_product(x.e, x.e)) * sqrt(list_dot_product(y.e, y.e)))
      >= {EMBED_COS_THRESHOLD}"""


# --- line-level exact dedup (C4 / RefinedWeb sub-document dedup) ------------

LINE_DEDUP_W = 10       # tokens per "line" window
LINE_DEDUP_MAXL = 1024  # lines-per-doc bound for the (doc, line) -> key pack


_LINE_HASH_A = np.uint64(1099511628211)  # FNV-1a prime, position multiplier
_LINE_POW = np.empty(LINE_DEDUP_W, dtype=np.uint64)
_LINE_POW[0] = 1
with np.errstate(over="ignore"):  # uint64 wraparound is the point
    for _k in range(1, LINE_DEDUP_W):
        _LINE_POW[_k] = _LINE_POW[_k - 1] * _LINE_HASH_A
_LINE_LEN_C = np.uint64(0x9E3779B97F4A7C15)


def _line_rows(batch: pa.Table, w: int = LINE_DEDUP_W) -> pa.Table:
    """Explode docs into consecutive non-overlapping w-token lines:
    (line_h, key, n_lines) with line_h a position-weighted uint64
    fingerprint of the window's tokens, key = doc_id * LINE_DEDUP_MAXL +
    line_idx (the corpus-order first-occurrence key), and n_lines the
    owner doc's total window count (repeated per row — a doc's lines never
    split across batches, so totals are batch-local).

    Fully vectorized: tokens hash at VOCAB level (one md5_lower64 per
    distinct token, mapped back by np.unique inverse), each token
    contributes hash * A^(position-in-line), and one np.add.reduceat over
    the line-start offsets folds a whole batch's windows at once; the
    window length is mixed in so short tails never collide with prefixes.
    The 64-bit fingerprint IS the line identity downstream (same contract
    as shingle_batch — identical modulo 64-bit collisions)."""
    import pyarrow.compute as pc

    from ..functions.hashing import md5_lower64_array

    doc_ids = batch["doc_id"].to_numpy()
    toks = pc.split_pattern(batch["text"], " ")
    flat = np.asarray(
        pc.list_flatten(toks).to_numpy(zero_copy_only=False), dtype=object
    )
    counts = pc.list_value_length(toks).to_numpy().astype(np.int64)
    if len(flat) == 0:
        return pa.table(
            {"line_h": pa.array([], pa.int64()), "key": pa.array([], pa.int64()),
             "n_lines": pa.array([], pa.int64())}
        )
    vocab, inv = np.unique(flat, return_inverse=True)
    th = md5_lower64_array(vocab)[inv]  # uint64 hash per token
    if w == LINE_DEDUP_W:
        pow_tab = _LINE_POW
    else:  # non-default window: build the position multipliers on the fly
        pow_tab = np.empty(w, dtype=np.uint64)
        pow_tab[0] = 1
        with np.errstate(over="ignore"):
            for k in range(1, w):
                pow_tab[k] = pow_tab[k - 1] * _LINE_HASH_A

    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    parents = np.repeat(np.arange(len(counts)), counts)
    pos_in_doc = np.arange(len(flat), dtype=np.int64) - starts[parents]
    pos_in_line = pos_in_doc % w
    contrib = th * pow_tab[pos_in_line]
    line_start = pos_in_line == 0
    offs = np.flatnonzero(line_start)
    with np.errstate(over="ignore"):
        line_h = np.add.reduceat(contrib, offs)
    line_len = np.diff(np.r_[offs, len(flat)]).astype(np.uint64)
    line_h = line_h ^ (line_len * _LINE_LEN_C)
    line_h = line_h.view(np.int64)  # only equality matters downstream
    line_doc = parents[offs]
    key = doc_ids[line_doc] * LINE_DEDUP_MAXL + (pos_in_doc[offs] // w)
    n_lines_doc = -(-counts // w)
    return pa.table(
        {
            "line_h": pa.array(line_h, pa.int64()),
            "key": pa.array(key, pa.int64()),
            "n_lines": pa.array(n_lines_doc[line_doc], pa.int64()),
        }
    )


def _line_doc_partials(t: pa.Table) -> pa.Table:
    """One line_h bucket -> per-doc partials (doc_id, n_lines, n_kept):
    a line row is kept when its key is its line's min key (first corpus
    occurrence); every row carries its doc's total, so the max over a
    doc's partials is that total."""
    first = t.group_by("line_h").aggregate([("key", "min")])["key_min"]
    return _doc_totals(pa.table({
        "doc_id": pa.array(t["key"].to_numpy() // LINE_DEDUP_MAXL),
        "n_lines": t["n_lines"],
        "n_kept": pc.cast(pc.is_in(t["key"], value_set=first), pa.int64()),
    }))


def _doc_totals(t: pa.Table) -> pa.Table:
    """Per-doc (doc_id, n_lines, n_kept) rows -> one row per doc: the max
    of n_lines, the sum of n_kept."""
    g = t.group_by("doc_id").aggregate([("n_lines", "max"), ("n_kept", "sum")])
    return pa.table({"doc_id": g["doc_id"], "n_lines": g["n_lines_max"],
                     "n_kept": g["n_kept_sum"]})


def q_line_dedup(sf_dir: str) -> pa.Table:
    """Sub-document exact dedup (the C4/RefinedWeb line-dedup shape over
    the synthetic token stream): each doc splits into consecutive
    LINE_DEDUP_W-token lines; a line is KEPT only at its first corpus
    occurrence (min (doc_id, line_idx) key). Returns per-doc
    (doc_id, n_lines, n_kept).

    Scale shape: lines explode inside map_batches (never the whole corpus
    at the driver) and go through two keyed passes. Pass 1, keyed by
    line_h, finds each line's first occurrence and folds its bucket into
    per-doc partials (doc_id, n_lines, n_kept) in the same call; a doc's
    total rides on each of its line rows, so no second explode and no
    union is needed. Pass 2, keyed by doc_id, combines a doc's partials
    from every line bucket."""
    lines = sized_read(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(_line_rows, batch_format="pyarrow")
    partials = keyed_reduce(lines, lambda b: b["line_h"].to_numpy(), _line_doc_partials)
    per_doc = keyed_reduce(partials, lambda b: b["doc_id"].to_numpy(), _doc_totals)
    return _to_table(per_doc).cast(
        pa.schema([("doc_id", pa.int64()), ("n_lines", pa.int64()),
                   ("n_kept", pa.int64())])
    )


def oracle_line_dedup_sql(relation: str = "documents") -> str:
    w, maxl = LINE_DEDUP_W, LINE_DEDUP_MAXL
    return f"""WITH toks AS (SELECT doc_id, string_split(text, ' ') AS arr FROM {relation}),
lines AS (SELECT doc_id, i,
                 array_to_string(arr[(i-1)*{w}+1 : i*{w}], ' ') AS h,
                 doc_id * {maxl} + i - 1 AS key
          FROM (SELECT doc_id, arr,
                       unnest(generate_series(1, CAST(ceil(len(arr) / {w}.0) AS BIGINT))) AS i
                FROM toks)),
firsts AS (SELECT h, min(key) AS fk FROM lines GROUP BY h),
kept AS (SELECT fk // {maxl} AS doc_id, count(*) AS n FROM firsts GROUP BY 1),
tot AS (SELECT doc_id, count(*) AS n_lines FROM lines GROUP BY doc_id)
SELECT t.doc_id, t.n_lines, COALESCE(k.n, 0) AS n_kept
FROM tot t LEFT JOIN kept k USING (doc_id)"""
