"""Segment merge: the term-range pull merge with head-term salting.

The SegmentMerger equivalent (SURVEY.md §2.5 "Segment merge", §3.3;
s84 index/SegmentMerger.java:100-166) re-expressed as one plan of
independent shard tasks, run by stages/fanout.fan_out (Ray Data tasks, or
in-process for merge_index_local — the same plan writes the same bytes):

  plan (driver): global per-term docFreq from the per-segment term
          dictionaries (collect_term_stats; df-quantile sampling past
          1,024 segments, plan_merge_sampled) -> the HOT TERM set (df above
          threshold) and equal-docFreq term-range boundaries over the rest
          (plan_merge_ranges). Zipf head terms ("the" at Common-Crawl
          scale) would otherwise make one shard re-encode ~10^11 postings.
  pull (one task per shard): a range shard reads the contiguous slice of
          its term range from every segment's sorted files
          (assemble_range_group); a hot term is SALTED across
          `hot_buckets` sub-shards keyed by contiguous doc_base ranges of
          segments (assemble_hot_group), so each task is bounded and the
          merge stays associative + order-preserving (SURVEY.md §7.4).
  write (same task): fragments of a term are concatenated in doc_base
          order with docIDs rebased to GLOBAL ids (doc_base + local — the
          MergeState.docMaps remap, index/MergeState.java:180-184) and
          re-encoded into packed blocks with fresh impacts
          (write_merged_shard); merged.json + a manifest generation bump
          commit the tier (_finalize).

No docID re-sort is ever needed: doc_base prefix sums make global ids
strictly increasing across fragments (SURVEY.md §7.4). No all-to-all
exchange either: every task pulls its inputs from shared storage.

Extra indexed fields merge the same way over their own term spaces, into
merged/f_<name>/.

Resume: each shard dir commits atomically with a stats.json keyed by the
segment-set fingerprint; re-running skips completed shards.
"""

from __future__ import annotations

import os
import shutil
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.codec import TermFragments, rewrite_postings
from ..state.manifest import IndexManifest, atomic_write_json, load_json
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
# pull-merge Ray tasks (blocks of specs) per CPU; _pull_merge says why
MERGE_BLOCKS_PER_CPU = 2


@dataclass
class MergeConfig:
    n_shards: int = 32  # term-range shards (equal-docFreq cuts)
    hot_df_threshold: int = 1_000_000  # global df above which a term is salted
    hot_buckets: int = 8  # sub-shards per hot term (doc_base ranges)


def _hot_shard_id(cfg: MergeConfig, hot_index: int, bucket: int) -> int:
    return cfg.n_shards + hot_index * cfg.hot_buckets + bucket


def collect_term_stats(manifest: IndexManifest, max_workers: int = 16, prefix: str = ""):
    """Driver-side global (term, df) aggregate from per-segment dictionaries.

    Per-segment dicts are already partial aggregates, so this reads only
    vocabulary rows (never postings). The pull merge uses it up to 1,024
    segments; past that the driver vocabulary may not fit, and
    plan_merge_sampled plans from per-segment samples instead.
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
    prefix: str = "", use_ray: bool = True,
) -> tuple[list[str], list[str]]:
    """(hot_terms, boundaries) WITHOUT materializing the global vocabulary
    on the driver (the pull merge's plan above 1,024 segments;
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
        n_blocks=max(1, n_segs // 8), batch_size=8, use_ray=use_ray,
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
    bucket tasks.
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


# terms.parquet columns a fragment carries to the shard writer
_FRAG_META_COLS = ("term", "doc_freq", "n_blocks", "n_imp", "len_docs", "len_freqs")


def _ship_range(buf, starts: np.ndarray, end: int) -> pa.LargeBinaryArray:
    """Binary values buf[starts[i]:starts[i+1]] (the last one ending at
    ``end``) of one contiguous byte range, shipped as ONE copied slice."""
    s0 = int(starts[0]) if len(starts) else 0
    offsets = np.append(np.asarray(starts, dtype=np.int64) - s0, end - s0)
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(starts),
        [None, pa.py_buffer(offsets), pa.py_buffer(np.array(buf[s0:end]))],
    )


def _term_range_cols(t: pa.Table, seg_dir: str, doc_base: int, a: int, b: int,
                     prefix: str) -> dict:
    """Fragment columns of the sorted terms [a, b) of one segment: term
    metadata, the segment's doc_base and dir (the writer loads its norms
    from there), plus the regions, positions and payloads of the range,
    each one contiguous slice of its file."""
    m = b - a
    cols = {k: t[k].slice(a, m) for k in _FRAG_META_COLS}
    cols["doc_base"] = pa.array(np.full(m, doc_base, dtype=np.int64))
    cols["seg_dir"] = pa.array([seg_dir] * m, type=pa.string())
    off = t["off"].to_numpy()
    post = mmap_file(os.path.join(seg_dir, prefix + POSTINGS_FILE))
    cols["region"] = _ship_range(post, off[a:b], int(off[b]) if b < len(off) else len(post))
    if "pos_off" in t.column_names:
        pos_off = t["pos_off"].to_numpy()
        cols["pos_width"] = t["pos_width"].slice(a, m)
        cols["pos_blob"] = _ship_range(
            mmap_file(os.path.join(seg_dir, prefix + POSITIONS_FILE)), pos_off[a:b],
            int(pos_off[b - 1] + t["len_pos"].to_numpy()[b - 1]),
        )
    if "pay_off" in t.column_names:
        # raw float32 payload bytes per term fragment
        pay_off = t["pay_off"].to_numpy() * 4
        cols["pay_blob"] = _ship_range(
            mmap_file(os.path.join(seg_dir, prefix + PAYLOADS_FILE)), pay_off[a:b],
            int(pay_off[b - 1] + 4 * t["total_term_freq"].to_numpy()[b - 1]),
        )
    return cols


def _read_terms(seg_dir: str, prefix: str) -> tuple[pa.Table, np.ndarray]:
    t = pq.read_table(os.path.join(seg_dir, prefix + TERMS_FILE))
    return t, np.asarray(t["term"].to_numpy(zero_copy_only=False), dtype=object)


def assemble_range_group(
    seg_dirs: list[str],
    doc_bases: list[int],
    lo: str,
    hi: str | None,
    hot_set: frozenset,
    prefix: str = "",
) -> pa.Table | None:
    """Pull one term-range's fragments from every segment (ranged reads);
    None when no segment holds a term of the range.

    Region bytes for a term range are CONTIGUOUS in postings.bin (regions
    are written in sorted term order), so each segment contributes one
    sequential read, shipped as one buffer — the pull-shuffle property
    that replaces the all-to-all exchange. Hot terms (salted into their
    own groups) are filtered out of the range.
    """
    parts = []
    hot = pa.array(sorted(hot_set), type=pa.string())
    for seg_dir, doc_base in zip(seg_dirs, doc_bases):
        t, terms = _read_terms(seg_dir, prefix)
        a = int(np.searchsorted(terms, lo, side="left"))
        b = len(terms) if hi is None else int(np.searchsorted(terms, hi, side="left"))
        if a >= b:
            continue
        frag = pa.table(_term_range_cols(t, seg_dir, doc_base, a, b, prefix))
        if len(hot):
            frag = frag.filter(pc.invert(pc.is_in(frag["term"], value_set=hot)))
        if frag.num_rows:
            parts.append(frag)
    return pa.concat_tables(parts) if parts else None


def assemble_hot_group(
    seg_dirs: list[str],
    doc_bases: list[int],
    term: str,
    bucket: int,
    hot_buckets: int,
    prefix: str = "",
) -> pa.Table | None:
    """Pull one salted hot term's fragments for one doc-range bucket: the
    term's one-row range of every segment in the bucket (a contiguous run
    of segments, so bucket order is docID order); None when none holds
    the term."""
    parts = []
    for o, (seg_dir, doc_base) in enumerate(zip(seg_dirs, doc_bases)):
        if o * hot_buckets // len(seg_dirs) != bucket:
            continue
        t, terms = _read_terms(seg_dir, prefix)
        i = int(np.searchsorted(terms, term))
        if i < len(terms) and terms[i] == term:
            parts.append(pa.table(_term_range_cols(t, seg_dir, doc_base, i, i + 1, prefix)))
    return pa.concat_tables(parts) if parts else None


def _pull_merge(index_dir: str, cfg: MergeConfig | None, boundaries: str,
                use_ray: bool) -> dict:
    """The merge: plan each field's range and hot shards, run them through
    fan_out (Ray tasks, or in this process), commit merged.json.

    ``boundaries="auto"`` uses the exact whole-vocabulary driver aggregate
    while the segment count is bounded (<= 1024: a threaded dictionary
    read whose driver memory is n_segments x per-seg vocab rows — no extra
    stage) and switches to per-segment df-quantile SAMPLING with
    O(n_segments) driver state (plan_merge_sampled) beyond that — the
    web-scale regime where the union vocabulary cannot live on the driver.
    "sampled"/"exact" force a plan.
    """
    cfg = cfg or MergeConfig()
    manifest = IndexManifest.load(index_dir)
    merged_dir = os.path.join(index_dir, "merged")
    os.makedirs(merged_dir, exist_ok=True)
    if boundaries == "auto":
        boundaries = "sampled" if len(manifest.segments) > 1024 else "exact"

    # heterogeneous field sets (an incremental build that later added
    # extra_fields) cannot range-pull merge: every segment must hold every
    # merged field's artifacts, or the pull tasks would crash mid-merge on
    # a missing f_<name>.terms.parquet — fail up front with the same
    # explicit error compact.py raises for this case
    fields = sorted((manifest.field_stats or {}).keys())
    for fname in fields:
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

    fp = _fingerprint(manifest)
    seg_dirs = manifest.segment_dirs()
    doc_bases = [
        s["doc_base"] for s in sorted(manifest.segments, key=lambda s: s["doc_base"])
    ]

    def merge_one_field(prefix: str, out_dir: str) -> dict:
        """Plan + run the range/hot pull merge for one field's term space;
        returns the field's shard-set record for merged.json."""
        if boundaries == "sampled":
            hot_terms, bnds = plan_merge_sampled(manifest, cfg, prefix=prefix, use_ray=use_ray)
        else:
            hot_terms, bnds = plan_merge_ranges(*collect_term_stats(manifest, prefix=prefix), cfg)
        hot_set = frozenset(hot_terms)
        os.makedirs(out_dir, exist_ok=True)

        specs = [
            {"kind": "range", "shard_id": si, "lo": lo,
             "hi": bnds[si + 1] if si + 1 < len(bnds) else None}
            for si, lo in enumerate(bnds)
        ] + [
            {"kind": "hot", "shard_id": _hot_shard_id(cfg, hr, bucket),
             "term": term, "bucket": bucket}
            for hr, term in enumerate(hot_terms)
            for bucket in range(cfg.hot_buckets)
        ]

        def run_spec(spec: dict) -> dict | None:
            if spec["kind"] == "range":
                group = assemble_range_group(
                    seg_dirs, doc_bases, spec["lo"], spec["hi"], hot_set, prefix=prefix,
                )
            else:
                group = assemble_hot_group(
                    seg_dirs, doc_bases, spec["term"], spec["bucket"], cfg.hot_buckets,
                    prefix=prefix,
                )
            if group is None:
                return None
            return write_merged_shard(
                group, out_dir, fp, spec["shard_id"],
                postings_format=manifest.postings_format, prefix=prefix,
            )

        # one Ray task per BLOCK of specs, MERGE_BLOCKS_PER_CPU (2) blocks
        # per CPU: at toy scale a block per spec means hundreds of ~50 ms
        # tasks whose scheduling dwarfs the work; at 100-TB scale each spec
        # is minutes of work and the min() leaves one spec per block. Specs
        # are interleaved range/hot round-robin so a block doesn't
        # accumulate one term's hottest buckets (skew guard).
        n_blocks = (
            max(1, min(len(specs), cluster_cpus() * MERGE_BLOCKS_PER_CPU)) if use_ray else 1
        )
        flat = [s for i in range(n_blocks) for s in specs[i::n_blocks]]
        shards = fan_out(run_spec, flat, n_blocks=n_blocks, batch_size=None, use_ray=use_ray)
        return {
            "n_shards": cfg.n_shards,
            "hot_buckets": cfg.hot_buckets,
            "hot_terms": hot_terms,
            "boundaries": bnds,
            "shards": sorted(shards, key=lambda s: s["shard_id"]),
        }

    primary = merge_one_field("", merged_dir)
    # extra fields: same range/hot pull merge over each field's own term
    # space, shards under merged/f_<name>/ (the per-field structures the
    # per-segment FieldReaders hold, now at the merged tier too)
    from ..state.segment import field_prefix

    field_meta = {
        fname: merge_one_field(field_prefix(fname), os.path.join(merged_dir, f"f_{fname}"))
        for fname in fields
    }
    return _finalize(merged_dir, manifest, primary, field_meta)


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
    shared storage (not shipped with the fragments), placed at their
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
    group: pa.Table, merged_dir: str, fingerprint: str, shard_id: int,
    postings_format: str = "for", prefix: str = "",
) -> dict:
    """Merge one shard's pulled fragments, commit atomically.
    ``prefix`` names the field (state.segment.field_prefix) whose norms
    the re-encoded impacts use."""
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


def _finalize(merged_dir: str, manifest: IndexManifest, primary: dict,
              field_meta: dict) -> dict:
    """Commit the merged tier: merged.json (the primary field's shard set,
    ``primary``, plus every extra field's, over the segments of
    ``manifest``, the commit the merge planned from), then the next
    generation of the LATEST commit, so open_if_changed moves readers onto
    the tier. A commit that landed while the merge ran keeps its segments;
    the tier then no longer matches them and readers serve per segment.
    There is no commit lock, so a commit landing between the reload and
    the save is still lost."""
    # norms are NOT re-written at merge: readers resolve global docIDs to
    # per-segment norms files via doc_base offsets (SegmentedNorms in
    # search/merged.py) — the driver-side whole-corpus norms concat was a
    # 1-byte-per-doc single-writer bottleneck at scale
    merged = {
        **primary,
        "doc_count": manifest.doc_count,
        "sum_total_term_freq": manifest.sum_total_term_freq,
        "fingerprint": _fingerprint(manifest),
        # shard i covers terms [boundaries[i], boundaries[i+1]); readers
        # serve no other layout (search/merged._merged_is_fresh)
        "strategy": "range",
        "fields": field_meta,
    }
    atomic_write_json(os.path.join(merged_dir, MERGED_MANIFEST), merged)
    latest = IndexManifest.load(manifest.index_dir)
    if _fingerprint(latest) == merged["fingerprint"]:
        latest.merged = True
    latest.version += 1  # the generation bump readers poll for
    latest.save()
    return merged


def merge_index(index_dir: str, cfg: MergeConfig | None = None) -> dict:
    """Distributed segment merge (Ray must be initialised): the term-range
    pull merge, its boundaries from the exact whole-vocabulary driver
    aggregate up to 1,024 segments and from df-quantile sampling beyond."""
    return _pull_merge(index_dir, cfg, "auto", use_ray=True)


def merge_index_local(index_dir: str, cfg: MergeConfig | None = None) -> dict:
    """merge_index in this process, no Ray session (tests, tiny corpora):
    the same plan, writing a byte-identical merged/ tree."""
    return _pull_merge(index_dir, cfg, "auto", use_ray=False)


def merge_index_pull(
    index_dir: str, cfg: MergeConfig | None = None, boundaries: str = "auto"
) -> dict:
    """merge_index with the boundary plan forced: "exact" or "sampled"
    ("auto" picks by segment count, see _pull_merge)."""
    return _pull_merge(index_dir, cfg, boundaries, use_ray=True)
