"""Segment merge: the groupby-on-term shuffle with head-term salting.

The SegmentMerger equivalent (SURVEY.md §2.5 "Segment merge", §3.3;
s84 index/SegmentMerger.java:100-166) re-expressed as a Ray Data shuffle:

  stage A (driver + tiny Ray pass): global per-term docFreq from the
          per-segment term dictionaries -> the HOT TERM set (df above
          threshold). Zipf head terms ("the" at Common-Crawl scale) would
          otherwise send one reduce group ~10^11 postings.
  stage B (map): each segment emits fragment rows
          (term, shard_id, doc_base, df, ttf, region bytes, norm bytes).
          shard_id = crc32(term) % n_shards for normal terms; hot terms are
          SALTED across `hot_buckets` sub-shards keyed by contiguous
          doc_base ranges, so each reduce group is bounded and the merge
          stays associative + order-preserving (SURVEY.md §7.4).
  stage C (reduce): groupby(shard_id).map_groups writes one merged shard
          per group: fragments of a term are concatenated in doc_base order
          with docIDs rebased to GLOBAL ids (doc_base + local — the
          MergeState.docMaps remap, index/MergeState.java:180-184) and
          re-encoded into packed blocks with fresh impacts.

No docID re-sort is ever needed: doc_base prefix sums make global ids
strictly increasing across fragments (SURVEY.md §7.4).

The partitioning assumptions this stage relies on (documented per the
task brief): one reduce group must fit a worker's heap — bounded by
n_shards for the torso and by hot_buckets salting for the head; fragments
of a term arrive with disjoint, doc_base-ordered doc ranges.

Resume: each shard dir commits atomically with a stats.json keyed by the
segment-set fingerprint; re-running skips completed shards.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import uuid
import zlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.codec import TermFragments, rewrite_postings
from ..state.manifest import STATS_NAME, IndexManifest, atomic_write_json, load_json
from ..state.segment import (
    PAYLOADS_FILE,
    NORMS_FILE,
    POSITIONS_FILE,
    POSTINGS_FILE,
    TERMS_FILE,
    mmap_file,
    write_term_files,
)
from .fanout import cluster_cpus, fan_out

MERGED_MANIFEST = "merged.json"
# pull-merge Ray tasks (blocks of specs) per CPU; merge_index_pull says why
MERGE_BLOCKS_PER_CPU = 2


@dataclass
class MergeConfig:
    n_shards: int = 32
    hot_df_threshold: int = 1_000_000  # global df above which a term is salted
    hot_buckets: int = 8  # sub-shards per hot term (doc_base ranges)
    emit_chunk_terms: int = 8192  # fragment rows per emitted batch


def shard_of(term: str, n_shards: int) -> int:
    """Deterministic cross-process term -> shard hash (not Python hash())."""
    return zlib.crc32(term.encode("utf-8")) % n_shards


def _hot_shard_id(cfg: MergeConfig, hot_index: int, bucket: int) -> int:
    return cfg.n_shards + hot_index * cfg.hot_buckets + bucket


def compute_hot_terms(index_dir: str, manifest: IndexManifest, cfg: MergeConfig) -> list[str]:
    """Global df per term -> sorted list of head terms to salt.

    Per-segment dictionaries already hold one (term, doc_freq) row per term,
    i.e. the partial aggregate — the groupby here shuffles only dictionary
    rows, never postings.
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    paths = [os.path.join(d, TERMS_FILE) for d in manifest.segment_dirs()]
    agg = (
        rd.read_parquet(paths, columns=["term", "doc_freq"])
        .groupby("term")
        .aggregate(Sum("doc_freq", alias_name="df"))
    )
    def over_threshold(batch):
        import pyarrow.compute as _pc

        return batch.filter(_pc.greater(batch["df"], cfg.hot_df_threshold))

    hot = agg.map_batches(over_threshold, batch_format="pyarrow").take_all()
    return sorted(r["term"] for r in hot)


def compute_hot_terms_local(manifest: IndexManifest, cfg: MergeConfig) -> list[str]:
    acc: dict[str, int] = {}
    for d in manifest.segment_dirs():
        t = pq.read_table(os.path.join(d, TERMS_FILE), columns=["term", "doc_freq"])
        for term, df in zip(t["term"].to_pylist(), t["doc_freq"].to_pylist()):
            acc[term] = acc.get(term, 0) + df
    return sorted(t for t, df in acc.items() if df > cfg.hot_df_threshold)


# ---------------------------------------------------------------------------
# pull merge (default): term-RANGE partitioned shuffle with ranged reads
# ---------------------------------------------------------------------------


def collect_term_stats(manifest: IndexManifest, max_workers: int = 16, prefix: str = ""):
    """Driver-side global (term, df) aggregate from per-segment dictionaries.

    Per-segment dicts are already partial aggregates, so this reads only
    vocabulary rows (never postings). Threaded reads are fine up to ~10k
    segments; beyond that, run a hierarchical merge first (TieredMergePolicy
    analogue) or fall back to strategy="groupby".
    """
    from concurrent.futures import ThreadPoolExecutor

    def read_one(d):
        t = pq.read_table(os.path.join(d, prefix + TERMS_FILE), columns=["term", "doc_freq"])
        return (
            np.asarray(t["term"].to_numpy(zero_copy_only=False), dtype=object),
            t["doc_freq"].to_numpy(),
        )

    with ThreadPoolExecutor(max_workers=max_workers) as ex:
        parts = list(ex.map(read_one, manifest.segment_dirs()))
    all_terms = np.concatenate([p[0] for p in parts])
    all_dfs = np.concatenate([p[1] for p in parts])
    import pandas as pd

    codes, vocab = pd.factorize(all_terms)
    dfs = np.bincount(codes, weights=all_dfs.astype(np.float64)).astype(np.int64)
    vocab = np.asarray(vocab, dtype=object)
    order = np.argsort(vocab)
    return vocab[order], dfs[order]


def plan_merge_sampled(
    manifest: IndexManifest, cfg: MergeConfig, samples_per_segment: int = 256,
    prefix: str = "",
) -> tuple[list[str], list[str]]:
    """(hot_terms, boundaries) WITHOUT materializing the global vocabulary
    on the driver (merge_index_pull's plan above 1,024 segments;
    collect_term_stats + plan_merge_ranges are the exact plan below).

    Pass 1 (Ray, per segment): each segment's sorted dictionary emits (a)
    ~samples_per_segment df-mass quantile samples (term, df-mass since the
    previous sample) and (b) its LOCALLY HEAVY terms (df >= hot_threshold /
    n_segments) — any globally hot term must be locally heavy somewhere
    (pigeonhole), so the candidate set is exact-superset and tiny.
    Pass 2 (Ray, per segment): exact global df for the candidates via
    per-dictionary binary-search lookups; driver sums |candidates| ints.
    Boundaries: weighted merge of the samples, equal-df-mass cuts — the
    RangePartitioner-style approximation; balance error is bounded by the
    per-segment sample spacing and hot terms are salted separately anyway.
    Driver state: O(n_segments * samples + |candidates|)."""
    seg_dirs = manifest.segment_dirs()
    n_segs = len(seg_dirs)
    local_thr = max(1, cfg.hot_df_threshold // max(1, n_segs))

    def sample_one(item: dict) -> dict:
        t = pq.read_table(
            os.path.join(item["seg_dir"], prefix + TERMS_FILE),
            columns=["term", "doc_freq"],
        )
        terms = np.asarray(t["term"].to_numpy(zero_copy_only=False), dtype=object)
        dfs = t["doc_freq"].to_numpy()
        samples: list[tuple[str, int]] = []
        if len(terms):
            cum = np.cumsum(dfs)
            k = min(samples_per_segment, len(terms))
            targets = cum[-1] * (np.arange(1, k + 1) / k)
            cuts = np.unique(np.minimum(np.searchsorted(cum, targets), len(terms) - 1))
            prev = 0
            for c in cuts:
                samples.append((str(terms[c]), int(cum[c] - prev)))
                prev = int(cum[c])
        heavy = [(str(terms[i]), int(dfs[i])) for i in np.flatnonzero(dfs >= local_thr)]
        return {"samples": samples, "heavy": heavy}

    rows = fan_out(
        sample_one, [{"seg_dir": d} for d in seg_dirs],
        n_blocks=max(1, n_segs // 8), batch_size=8,
    )
    samples = sorted((s_ for r in rows for s_ in r["samples"]), key=lambda x: x[0])
    # conservative hot detection from the single pass: a term's unobserved
    # per-segment dfs are each < local_thr, so observed_sum + (n_segs -
    # n_observed) * (local_thr - 1) bounds its global df from above. Any
    # term whose BOUND clears the threshold is salted — a small superset of
    # the true hot set (over-salting only adds a few bucket tasks; it never
    # affects results), and it saves the second cluster pass.
    obs_sum: dict[str, int] = {}
    obs_n: dict[str, int] = {}
    for r in rows:
        for term, w in r["heavy"]:
            obs_sum[term] = obs_sum.get(term, 0) + w
            obs_n[term] = obs_n.get(term, 0) + 1
    hot_terms = sorted(
        t
        for t, s_ in obs_sum.items()
        if s_ + (n_segs - obs_n[t]) * max(0, local_thr - 1) > cfg.hot_df_threshold
    )

    hot_set = set(hot_terms)
    cold = [(t, w) for t, w in samples if t not in hot_set]
    if not cold:
        return hot_terms, [""] if samples else []
    ws = np.array([w for _, w in cold], dtype=np.float64)
    cum = np.cumsum(ws)
    n = min(cfg.n_shards, len(cold))
    targets = cum[-1] * (np.arange(n) / n)
    cuts = np.unique(np.minimum(np.searchsorted(cum, targets, side="left"), len(cold) - 1))
    boundaries = [cold[c][0] for c in cuts]
    boundaries[0] = ""
    return hot_terms, boundaries


def plan_merge_ranges(
    terms_sorted: np.ndarray, dfs: np.ndarray, cfg: MergeConfig
) -> tuple[list[str], list[str]]:
    """(hot_terms, range_boundaries) for the pull merge.

    Boundaries are equal-docFreq quantile cuts over the NON-hot sorted
    vocabulary: each range shard re-encodes ~the same posting volume, which
    is the skew guarantee hashing can't give (hash shards are only equal in
    EXPECTATION; ranges are equal by construction from the measured df).
    Hot terms (df > threshold) are excluded and salted into per-doc-range
    bucket tasks exactly as in the groupby strategy.
    """
    hot_mask = dfs > cfg.hot_df_threshold
    hot_terms = [str(t) for t in terms_sorted[hot_mask]]
    cold_terms = terms_sorted[~hot_mask]
    cold_dfs = dfs[~hot_mask]
    n = min(cfg.n_shards, max(1, len(cold_terms)))
    if len(cold_terms) == 0:
        return hot_terms, []
    cum = np.cumsum(cold_dfs)
    targets = cum[-1] * (np.arange(n) / n)
    cuts = np.searchsorted(cum, targets, side="left")
    cuts = np.unique(np.minimum(cuts, len(cold_terms) - 1))
    boundaries = [str(cold_terms[c]) for c in cuts]
    boundaries[0] = ""  # first range starts at the beginning of term space
    return hot_terms, boundaries


def _bucket_of(seg_ord: int, n_segs: int, hot_buckets: int) -> int:
    return seg_ord * hot_buckets // n_segs


_FRAG_SCHEMA_COLS = (
    "term", "shard_id", "doc_base", "seg_dir", "doc_freq", "total_term_freq",
    "n_blocks", "n_imp", "len_docs", "len_freqs", "region",
)
_FRAG_POS_COLS = ("pos_width", "pos_blob")
_FRAG_PAY_COLS = ("pay_blob",)  # raw float32 payload bytes per term fragment


def _frag_table(cols: dict) -> pa.Table:
    keys = (
        _FRAG_SCHEMA_COLS
        + (_FRAG_POS_COLS if "pos_blob" in cols else ())
        + (_FRAG_PAY_COLS if "pay_blob" in cols else ())
    )
    return pa.table({k: cols[k] for k in keys})


def _empty_frag_table(has_pos: bool) -> pa.Table:
    cols = {
        "term": pa.array([], type=pa.string()),
        "shard_id": pa.array([], type=pa.int32()),
        "doc_base": pa.array([], type=pa.int64()),
        "seg_dir": pa.array([], type=pa.string()),
        "doc_freq": pa.array([], type=pa.int64()),
        "total_term_freq": pa.array([], type=pa.int64()),
        "n_blocks": pa.array([], type=pa.int32()),
        "n_imp": pa.array([], type=pa.int32()),
        "len_docs": pa.array([], type=pa.int64()),
        "len_freqs": pa.array([], type=pa.int64()),
        "region": pa.array([], type=pa.large_binary()),
    }
    if has_pos:
        cols["pos_width"] = pa.array([], type=pa.uint8())
        cols["pos_blob"] = pa.array([], type=pa.large_binary())
    return _frag_table(cols)


def _ship_range(buf, starts: np.ndarray, end: int) -> pa.LargeBinaryArray:
    """Binary values buf[starts[i]:starts[i+1]] (the last one ending at
    ``end``) of one contiguous byte range, shipped as ONE copied slice."""
    s0 = int(starts[0]) if len(starts) else 0
    offsets = np.append(np.asarray(starts, dtype=np.int64) - s0, end - s0)
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(starts),
        [None, pa.py_buffer(offsets), pa.py_buffer(np.array(buf[s0:end]))],
    )


def _term_range_cols(t: pa.Table, seg_dir: str, a: int, b: int, prefix: str) -> dict:
    """Fragment columns of the sorted terms [a, b) of one segment: term
    metadata plus the regions, positions and payloads of the range, each
    one contiguous slice of its file."""
    cols = {k: t[k].slice(a, b - a) for k in _FRAG_SCHEMA_COLS if k in t.column_names}
    off = t["off"].to_numpy()
    post = mmap_file(os.path.join(seg_dir, prefix + POSTINGS_FILE))
    cols["region"] = _ship_range(post, off[a:b], int(off[b]) if b < len(off) else len(post))
    if "pos_off" in t.column_names:
        pos_off = t["pos_off"].to_numpy()
        cols["pos_width"] = t["pos_width"].slice(a, b - a)
        cols["pos_blob"] = _ship_range(
            mmap_file(os.path.join(seg_dir, prefix + POSITIONS_FILE)), pos_off[a:b],
            int(pos_off[b - 1] + t["len_pos"].to_numpy()[b - 1]),
        )
    if "pay_off" in t.column_names:
        pay_off = t["pay_off"].to_numpy() * 4
        cols["pay_blob"] = _ship_range(
            mmap_file(os.path.join(seg_dir, prefix + PAYLOADS_FILE)), pay_off[a:b],
            int(pay_off[b - 1] + 4 * t["total_term_freq"].to_numpy()[b - 1]),
        )
    return cols


def assemble_range_group(
    seg_dirs: list[str],
    doc_bases: list[int],
    lo: str,
    hi: str | None,
    hot_set: frozenset,
    shard_id: int,
    prefix: str = "",
) -> pa.Table:
    """Pull one term-range's fragments from every segment (ranged reads).

    Region bytes for a term range are CONTIGUOUS in postings.bin (regions
    are written in sorted term order), so each segment contributes one
    sequential read, shipped as one buffer — the pull-shuffle property
    that replaces the all-to-all exchange. Hot terms (salted into their
    own groups) are filtered out of the range.
    """
    parts = []
    has_pos = False
    hot = pa.array(sorted(hot_set), type=pa.string())
    for seg_dir, doc_base in zip(seg_dirs, doc_bases):
        t = pq.read_table(os.path.join(seg_dir, prefix + TERMS_FILE))
        terms = np.asarray(t["term"].to_numpy(zero_copy_only=False), dtype=object)
        a = int(np.searchsorted(terms, lo, side="left"))
        b = len(terms) if hi is None else int(np.searchsorted(terms, hi, side="left"))
        if a >= b:
            continue
        cols = _term_range_cols(t, seg_dir, a, b, prefix)
        m = b - a
        cols["shard_id"] = pa.array(np.full(m, shard_id, dtype=np.int32))
        cols["doc_base"] = pa.array(np.full(m, doc_base, dtype=np.int64))
        cols["seg_dir"] = pa.array([seg_dir] * m, type=pa.string())
        has_pos = has_pos or "pos_blob" in cols
        frag = _frag_table(cols)
        if len(hot):
            frag = frag.filter(pc.invert(pc.is_in(frag["term"], value_set=hot)))
        parts.append(frag)
    if not parts:
        return _empty_frag_table(has_pos)
    return pa.concat_tables(parts)


def assemble_hot_group(
    seg_dirs: list[str],
    doc_bases: list[int],
    seg_ords: list[int],
    n_segs: int,
    term: str,
    bucket: int,
    cfg: MergeConfig,
    shard_id: int,
    prefix: str = "",
) -> pa.Table:
    """Pull one salted hot term's fragments for one doc-range bucket."""
    sel = [
        (d, base)
        for d, base, o in zip(seg_dirs, doc_bases, seg_ords)
        if _bucket_of(o, n_segs, cfg.hot_buckets) == bucket
    ]
    rows = []
    has_pos = False
    for seg_dir, doc_base in sel:
        t = pq.read_table(os.path.join(seg_dir, prefix + TERMS_FILE))
        terms = np.asarray(t["term"].to_numpy(zero_copy_only=False), dtype=object)
        i = int(np.searchsorted(terms, term))
        if i >= len(terms) or terms[i] != term:
            continue
        off = t["off"].to_numpy()
        post = np.memmap(os.path.join(seg_dir, prefix + POSTINGS_FILE), dtype=np.uint8, mode="r")
        end = int(off[i + 1]) if i + 1 < len(terms) else len(post)
        row = {
            "term": term,
            "shard_id": shard_id,
            "doc_base": doc_base,
            "seg_dir": seg_dir,
            "doc_freq": int(t["doc_freq"][i].as_py()),
            "total_term_freq": int(t["total_term_freq"][i].as_py()),
            "n_blocks": int(t["n_blocks"][i].as_py()),
            "n_imp": int(t["n_imp"][i].as_py()),
            "len_docs": int(t["len_docs"][i].as_py()),
            "len_freqs": int(t["len_freqs"][i].as_py()),
            "region": bytes(post[int(off[i]) : end]),
        }
        if "pos_off" in t.column_names:
            has_pos = True
            po = int(t["pos_off"][i].as_py())
            lp = int(t["len_pos"][i].as_py())
            posf = np.memmap(
                os.path.join(seg_dir, prefix + POSITIONS_FILE), dtype=np.uint8, mode="r"
            )
            row["pos_width"] = int(t["pos_width"][i].as_py())
            row["pos_blob"] = bytes(posf[po : po + lp])
        if "pay_off" in t.column_names:
            pao = int(t["pay_off"][i].as_py())
            ttf_i = int(t["total_term_freq"][i].as_py())
            pay_path = os.path.join(seg_dir, prefix + PAYLOADS_FILE)
            payf = (
                np.memmap(pay_path, dtype=np.uint8, mode="r")
                if os.path.getsize(pay_path)
                else np.empty(0, dtype=np.uint8)
            )
            row["pay_blob"] = bytes(payf[pao * 4 : (pao + ttf_i) * 4])
        rows.append(row)
    if not rows:
        return _empty_frag_table(False)
    tb = pa.Table.from_pylist(rows)
    cols = {
        **{
            k: tb[k]
            for k in _FRAG_SCHEMA_COLS
            if k not in ("shard_id", "n_blocks", "n_imp", "region")
        },
        "shard_id": tb["shard_id"].cast(pa.int32()),
        "n_blocks": tb["n_blocks"].cast(pa.int32()),
        "n_imp": tb["n_imp"].cast(pa.int32()),
        "region": tb["region"].cast(pa.large_binary()),
    }
    if has_pos:
        cols["pos_width"] = tb["pos_width"].cast(pa.uint8())
        cols["pos_blob"] = tb["pos_blob"].cast(pa.large_binary())
    if "pay_blob" in tb.column_names:
        cols["pay_blob"] = tb["pay_blob"].cast(pa.large_binary())
    return _frag_table(cols)


def merge_index_pull(
    index_dir: str, cfg: MergeConfig | None = None, boundaries: str = "auto"
) -> dict:
    """Range-partitioned pull merge (default strategy).

    One Ray task per output shard assembles its term range (or salted hot
    bucket) by contiguous ranged reads from the sorted segment files on
    shared storage, then re-encodes — no all-to-all exchange, no shuffle
    machinery on the critical path. Range boundaries bound each task's
    work; ``boundaries="auto"`` (default) uses the exact whole-vocabulary
    driver aggregate while the segment count is bounded (<= 1024: a
    threaded dictionary read whose driver memory is n_segments x per-seg
    vocab rows — no extra Ray stage) and switches to distributed
    per-segment df-quantile SAMPLING with O(n_segments) driver state
    (plan_merge_sampled) beyond that — the web-scale regime where the
    union vocabulary cannot live on the driver. "sampled"/"exact" force a
    plan.
    """
    cfg = cfg or MergeConfig()
    manifest = IndexManifest.load(index_dir)
    merged_dir = os.path.join(index_dir, "merged")
    os.makedirs(merged_dir, exist_ok=True)

    if boundaries == "auto":
        # the exact driver aggregate is one threaded dictionary read — fine
        # while segment count (and so driver vocab memory) is bounded; the
        # sampled plan takes over where the vocabulary would not fit a
        # driver (its fixed Ray-stage latency only amortizes there)
        boundaries = "sampled" if len(manifest.segments) > 1024 else "exact"

    def merge_one_field(prefix: str, out_dir: str):
        """Plan + run the range/hot pull merge for one field's term space."""
        if boundaries == "sampled":
            hot_terms, bnds = plan_merge_sampled(manifest, cfg, prefix=prefix)
        else:
            terms_sorted, dfs = collect_term_stats(manifest, prefix=prefix)
            hot_terms, bnds = plan_merge_ranges(terms_sorted, dfs, cfg)
        hot_set = frozenset(hot_terms)
        fp = _fingerprint(manifest)
        seg_dirs = manifest.segment_dirs()
        doc_bases = [
            s["doc_base"] for s in sorted(manifest.segments, key=lambda s: s["doc_base"])
        ]
        n_segs = len(seg_dirs)
        os.makedirs(out_dir, exist_ok=True)

        specs: list[dict] = []
        for si, lo in enumerate(bnds):
            hi = bnds[si + 1] if si + 1 < len(bnds) else None
            specs.append({"kind": "range", "shard_id": si, "lo": lo, "hi": hi})
        for hr, term in enumerate(hot_terms):
            for bucket in range(cfg.hot_buckets):
                specs.append(
                    {
                        "kind": "hot",
                        "shard_id": _hot_shard_id(cfg, hr, bucket),
                        "term": term,
                        "bucket": bucket,
                    }
                )

        def run_spec(spec: dict) -> dict | None:
            if spec["kind"] == "range":
                group = assemble_range_group(
                    seg_dirs, doc_bases, spec["lo"], spec["hi"], hot_set,
                    spec["shard_id"], prefix=prefix,
                )
            else:
                group = assemble_hot_group(
                    seg_dirs, doc_bases, list(range(n_segs)), n_segs,
                    spec["term"], spec["bucket"], cfg, spec["shard_id"],
                    prefix=prefix,
                )
            if group.num_rows == 0:
                return None
            return write_merged_shard(
                group, out_dir, fp, shard_id=spec["shard_id"],
                postings_format=manifest.postings_format, prefix=prefix,
            )

        # one Ray task per BLOCK of specs, MERGE_BLOCKS_PER_CPU (2) blocks
        # per CPU: at toy scale a block per spec means hundreds of ~50 ms
        # tasks whose scheduling dwarfs the work; at 100-TB scale each spec
        # is minutes of work and the min() leaves one spec per block. Specs
        # are interleaved range/hot round-robin so a block doesn't
        # accumulate one term's hottest buckets (skew guard).
        n_blocks = max(1, min(len(specs), cluster_cpus() * MERGE_BLOCKS_PER_CPU))
        interleaved = [specs[i::n_blocks] for i in range(n_blocks)]
        flat = [s for group in interleaved for s in group]
        shard_stats = fan_out(run_spec, flat, n_blocks=n_blocks, batch_size=None)
        return hot_terms, bnds, shard_stats

    hot_terms, bnds, shard_stats = merge_one_field("", merged_dir)

    # extra fields: same range/hot pull merge over each field's own term
    # space, shards under merged/f_<name>/ (the per-field structures the
    # per-segment FieldReaders hold, now at the merged tier too)
    from ..state.segment import field_prefix

    # heterogeneous field sets (an incremental build that later added
    # extra_fields) cannot range-pull merge: every segment must hold every
    # merged field's artifacts, or the pull tasks would crash mid-merge on
    # a missing f_<name>.terms.parquet — fail up front with the same
    # explicit error compact.py raises for this case
    for fname in sorted((manifest.field_stats or {}).keys()):
        missing = [
            s["seg_name"]
            for s in manifest.segments
            if fname not in (s.get("field_stats") or {})
        ]
        if missing:
            raise ValueError(
                f"refusing to merge segments with differing field sets: field "
                f"{fname!r} missing from segments {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''} — compact or rebuild the "
                f"older segments with the full field set first"
            )

    field_meta: dict[str, dict] = {}
    for fname in sorted((manifest.field_stats or {}).keys()):
        f_hot, f_bnds, f_stats = merge_one_field(
            field_prefix(fname), os.path.join(merged_dir, f"f_{fname}")
        )
        field_meta[fname] = {
            "n_shards": cfg.n_shards,
            "hot_buckets": cfg.hot_buckets,
            "hot_terms": f_hot,
            "boundaries": f_bnds,
            "shards": sorted(f_stats, key=lambda s: s["shard_id"]),
        }

    return _finalize(
        index_dir, merged_dir, manifest, cfg, hot_terms, shard_stats,
        boundaries=bnds, field_meta=field_meta,
    )


def emit_fragments(
    seg_dir: str, seg_ord: int, n_segs: int, cfg: MergeConfig, hot_rank: dict[str, int]
):
    """Yield fragment batches for one segment (stage B map task): raw
    packed regions only — postings are NOT decoded here; the reducer reads
    the segment's norms from shared storage, so the shuffle ships each
    posting region exactly once, nothing else."""
    t = pq.read_table(os.path.join(seg_dir, TERMS_FILE))
    terms = t["term"].to_pylist()
    doc_base = int(load_json(os.path.join(seg_dir, STATS_NAME))["doc_base"])
    bucket = seg_ord * cfg.hot_buckets // n_segs
    for s in range(0, len(terms), cfg.emit_chunk_terms):
        e = min(s + cfg.emit_chunk_terms, len(terms))
        cols = _term_range_cols(t, seg_dir, s, e, "")
        cols["shard_id"] = pa.array(np.array([
            _hot_shard_id(cfg, hot_rank[x], bucket) if x in hot_rank else shard_of(x, cfg.n_shards)
            for x in terms[s:e]
        ], dtype=np.int32))
        cols["doc_base"] = pa.array(np.full(e - s, doc_base, dtype=np.int64))
        cols["seg_dir"] = pa.array([seg_dir] * (e - s), type=pa.string())
        yield _frag_table(cols)


def _binary_values(col) -> tuple[np.ndarray, np.ndarray]:
    """(data bytes, start of each value in them) of a binary column, read
    in place from its Arrow buffers."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[arr.offset : arr.offset + len(arr) + 1]
    data = arr.buffers()[2]
    if data is None or len(arr) == 0:
        return np.empty(0, np.uint8), np.zeros(len(arr), np.int64)
    return np.frombuffer(data, dtype=np.uint8)[offs[0] : offs[-1]], offs[:-1] - offs[0]


def _group_norms(group: pa.Table, prefix: str) -> tuple[np.ndarray, int]:
    """(norms over the group's docID span, first global docID of the span):
    the field's norms of every segment in the group, loaded once from
    shared storage (not shipped through the shuffle), placed at their
    doc_base."""
    bases, first = np.unique(group["doc_base"].to_numpy(), return_index=True)
    seg_dirs = group["seg_dir"].take(pa.array(first)).to_pylist()
    parts = [np.fromfile(os.path.join(sd, prefix + NORMS_FILE), dtype=np.uint8)
             for sd in seg_dirs]
    norms = np.zeros(int(bases[-1]) + len(parts[-1]) - int(bases[0]), dtype=np.uint8)
    for b, n in zip(bases, parts):
        norms[b - bases[0] : b - bases[0] + len(n)] = n
    return norms, int(bases[0])


def write_merged_shard(
    group: pa.Table, merged_dir: str, fingerprint: str, shard_id: int | None = None,
    postings_format: str = "for", prefix: str = "",
) -> dict:
    """Reduce: merge one shard group's fragments, commit atomically.
    ``prefix`` names the field (state.segment.field_prefix) whose norms
    the re-encoded impacts use."""
    if shard_id is None:
        shard_id = int(group["shard_id"][0].as_py())
    shard_name = f"shard_{shard_id:05d}"
    out_dir = os.path.join(merged_dir, shard_name)
    stats_path = os.path.join(out_dir, "stats.json")
    if os.path.exists(stats_path):
        st = load_json(stats_path)
        if st.get("fingerprint") == fingerprint:
            st["resumed"] = True
            return st

    # one vectorized decode of every fragment, docIDs rebased to GLOBAL ids
    # (doc_base + local), re-encoded in one pass (rewrite_postings)
    terms = np.asarray(group["term"].to_numpy(zero_copy_only=False), dtype=object)
    uniq, term = np.unique(terms, return_inverse=True)
    post, off = _binary_values(group["region"])
    positions = payloads = None
    if "pos_blob" in group.column_names:
        positions = (*_binary_values(group["pos_blob"]), group["pos_width"].to_numpy())
    if "pay_blob" in group.column_names:
        pay, pay_off = _binary_values(group["pay_blob"])
        payloads = (pay.view("<f4"), pay_off // 4)
    norms, norms_base = _group_norms(group, prefix)
    enc = rewrite_postings(
        [TermFragments(
            post, off, group["doc_freq"].to_numpy(), group["n_blocks"].to_numpy(),
            group["n_imp"].to_numpy(), group["len_docs"].to_numpy(),
            group["len_freqs"].to_numpy(), term=term,
            doc_base=group["doc_base"].to_numpy(),
            positions=positions, payloads=payloads,
        )],
        norms=norms, norms_base=norms_base, postings_format=postings_format,
    )

    tmp = os.path.join(merged_dir, f".{shard_name}.tmp-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp, exist_ok=True)
    try:
        write_term_files(tmp, "", uniq, enc)
        st = {
            "shard_id": shard_id,
            "shard_name": shard_name,
            "n_terms": int(len(uniq)),
            "sum_doc_freq": int(enc.dfs.sum()),
            "fingerprint": fingerprint,
            "resumed": False,
        }
        atomic_write_json(os.path.join(tmp, "stats.json"), st)
        from ..state.manifest import fsync_dir_files

        fsync_dir_files(tmp)
        if os.path.exists(out_dir):
            # keep an existing dir only if it is the SAME fingerprint (a
            # concurrent task of this run won the race — content identical);
            # a stale shard from a previous segment set must be replaced or
            # re-merge-after-append would silently serve the old index
            try:
                same = load_json(os.path.join(out_dir, "stats.json")).get(
                    "fingerprint"
                ) == fingerprint
            except Exception:
                same = False
            if same:
                shutil.rmtree(tmp)
            else:
                from ..state.manifest import durable_rename

                old = out_dir + f".stale-{uuid.uuid4().hex[:8]}"
                os.rename(out_dir, old)
                durable_rename(tmp, out_dir)
                shutil.rmtree(old, ignore_errors=True)
        else:
            from ..state.manifest import durable_rename

            durable_rename(tmp, out_dir)
        return st
    finally:
        if os.path.exists(tmp):
            shutil.rmtree(tmp, ignore_errors=True)


def _fingerprint(manifest: IndexManifest) -> str:
    from ..state.manifest import segments_fingerprint

    return segments_fingerprint(manifest)


def _finalize(index_dir: str, merged_dir: str, manifest: IndexManifest,
              cfg: MergeConfig, hot_terms: list[str], shard_stats: list[dict],
              boundaries: list[str] | None = None,
              field_meta: dict | None = None) -> dict:
    # norms are NOT re-written at merge: readers resolve global docIDs to
    # per-segment norms files via doc_base offsets (SegmentedNorms in
    # search/merged.py) — the driver-side whole-corpus norms concat was a
    # 1-byte-per-doc single-writer bottleneck at scale
    merged = {
        "n_shards": cfg.n_shards,
        "hot_buckets": cfg.hot_buckets,
        "hot_terms": hot_terms,
        "doc_count": manifest.doc_count,
        "sum_total_term_freq": manifest.sum_total_term_freq,
        "shards": sorted(shard_stats, key=lambda s: s["shard_id"]),
        "fingerprint": _fingerprint(manifest),
        # range strategy: shard i covers terms [boundaries[i], boundaries[i+1])
        "strategy": "range" if boundaries is not None else "hash",
        "boundaries": boundaries,
        "fields": field_meta or {},
    }
    atomic_write_json(os.path.join(merged_dir, MERGED_MANIFEST), merged)
    manifest.merged = True
    manifest.save()
    return merged


def merge_index(
    index_dir: str, cfg: MergeConfig | None = None, strategy: str = "pull"
) -> dict:
    """Distributed segment merge (Ray must be initialised).

    strategy="pull" (default): range-partitioned ranged-read merge —
    see merge_index_pull; its boundaries come from the exact
    whole-vocabulary driver aggregate up to 1,024 segments and from
    distributed df-quantile sampling beyond. strategy="groupby": the Ray
    Data groupby-on-term shuffle — the true all-to-all path, kept for
    segment counts too large for per-reducer fan-in reads.
    """
    if strategy == "pull":
        return merge_index_pull(index_dir, cfg)
    if strategy == "groupby":
        return merge_index_groupby(index_dir, cfg)
    raise ValueError(f"strategy must be pull|groupby, got {strategy!r}")


def merge_index_groupby(index_dir: str, cfg: MergeConfig | None = None) -> dict:
    """Distributed merge via Ray Data groupby (the all-to-all exchange)."""
    import ray
    import ray.data as rd

    cfg = cfg or MergeConfig()
    manifest = IndexManifest.load(index_dir)
    merged_dir = os.path.join(index_dir, "merged")
    os.makedirs(merged_dir, exist_ok=True)
    hot_terms = compute_hot_terms(index_dir, manifest, cfg)
    hot_rank = {t: i for i, t in enumerate(hot_terms)}
    hot_ref = ray.put(hot_rank)
    fp = _fingerprint(manifest)
    seg_dirs = manifest.segment_dirs()
    n_segs = len(seg_dirs)
    specs = [{"seg_dir": d, "seg_ord": i} for i, d in enumerate(seg_dirs)]

    def emit(batch: pa.Table):
        hr = ray.get(hot_ref)
        for row in batch.to_pylist():
            yield from emit_fragments(row["seg_dir"], row["seg_ord"], n_segs, cfg, hr)

    pfmt = manifest.postings_format

    def reduce_shard(group: pa.Table) -> pa.Table:
        st = write_merged_shard(group, merged_dir, fp, postings_format=pfmt)
        return pa.Table.from_pylist([st])

    shard_stats = (
        rd.from_items(specs, override_num_blocks=len(specs))
        .map_batches(emit, batch_size=1, batch_format="pyarrow")
        .groupby("shard_id")
        .map_groups(reduce_shard, batch_format="pyarrow")
        .take_all()
    )
    return _finalize(index_dir, merged_dir, manifest, cfg, hot_terms, shard_stats)


def merge_index_local(index_dir: str, cfg: MergeConfig | None = None) -> dict:
    """Single-process merge (tests): same artifacts, no Ray session."""
    cfg = cfg or MergeConfig()
    manifest = IndexManifest.load(index_dir)
    merged_dir = os.path.join(index_dir, "merged")
    os.makedirs(merged_dir, exist_ok=True)
    hot_terms = compute_hot_terms_local(manifest, cfg)
    hot_rank = {t: i for i, t in enumerate(hot_terms)}
    fp = _fingerprint(manifest)
    seg_dirs = manifest.segment_dirs()
    frags: list[pa.Table] = []
    for i, d in enumerate(seg_dirs):
        frags.extend(emit_fragments(d, i, len(seg_dirs), cfg, hot_rank))
    all_frags = pa.concat_tables(frags)
    shard_stats = []
    for sid in np.unique(all_frags["shard_id"].to_numpy()):
        group = all_frags.filter(pc.equal(all_frags["shard_id"], int(sid)))
        shard_stats.append(write_merged_shard(
            group, merged_dir, fp, postings_format=manifest.postings_format))
    return _finalize(index_dir, merged_dir, manifest, cfg, hot_terms, shard_stats)
