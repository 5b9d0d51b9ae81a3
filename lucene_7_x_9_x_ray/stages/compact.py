"""Tiered segment compaction: the TieredMergePolicy + SegmentMerger pair.

Keeps segment counts bounded under incremental builds (the NRT/append
path): small adjacent segments are merged into one larger segment —
segment-level merge, distinct from the term-sharded query-optimized merge
in merge.py. Policy semantics follow TieredMergePolicy defaults in spirit
(index/TieredMergePolicy.java:99-106): pick up to ``max_merge_at_once``
ADJACENT segments per merge whose combined docs stay under
``max_merged_docs``, smallest tiers first.

Correctness invariants:
- only doc_base-CONTIGUOUS runs merge, so global docIDs are unchanged
  (the merged segment's doc_base = first input's doc_base; postings
  concatenate in doc_base order with local-id rebasing — the
  MergeState.docMaps remap);
- the new segment dir commits atomically and the manifest is rewritten
  afterwards; inputs are deleted only after the manifest points at the
  new segment.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.codec import TermFragments, rewrite_postings
from ..state.manifest import IndexManifest, SegmentStats, atomic_write_json
from ..state.segment import (
    DOCMAP_FILE,
    TERMVECTORS_FILE,
    field_prefix,
    NORMS_FILE,
    POSITIONS_FILE,
    STATS_NAME,
    TERMS_FILE,
    SegmentReader,
    write_docmap,
    write_term_files,
)
from .build import _aggregate_field_stats
from .fanout import fan_out


@dataclass
class CompactionPolicy:
    max_merge_at_once: int = 10  # TieredMergePolicy.maxMergeAtOnce
    max_merged_docs: int = 5_000_000  # 5 GB-segment analogue, in docs
    min_segments_to_merge: int = 2


def plan_compactions(manifest: IndexManifest, policy: CompactionPolicy) -> list[list[str]]:
    """Groups of ADJACENT segment names to merge (doc_base order)."""
    segs = sorted(manifest.segments, key=lambda s: s["doc_base"])
    groups: list[list[str]] = []
    cur: list[str] = []
    cur_docs = 0
    for s in segs:
        if (
            cur
            and (len(cur) >= policy.max_merge_at_once
                 or cur_docs + s["doc_count"] > policy.max_merged_docs)
        ):
            if len(cur) >= policy.min_segments_to_merge:
                groups.append(cur)
            cur, cur_docs = [], 0
        cur.append(s["seg_name"])
        cur_docs += s["doc_count"]
    if len(cur) >= policy.min_segments_to_merge:
        groups.append(cur)
    return groups


def _view_fragments(view, term: np.ndarray, doc_base: int) -> TermFragments:
    """Every term region of one field view (SegmentReader for the primary
    field, FieldReader for extras), read from its memory-mapped files."""
    return TermFragments(
        view._post, view._off, view.doc_freqs, view._n_blocks, view._n_imp,
        view._len_docs, view._len_freqs, term=term, doc_base=doc_base,
        positions=(view._positions, view._pos_off, view._pos_width)
        if view.has_positions else None,
        payloads=(view._payloads, view._pay_off) if view.has_payloads else None,
    )


def _merge_field_views(views, rebases, tmp: str, prefix: str,
                       postings_format: str = "for") -> dict:
    """k-way merge ONE field's term tables/postings/norms from per-segment
    views into prefixed artifact files under ``tmp`` (rewrite_postings with
    each view's rebase). Returns the merged field stats. Positions and
    payloads are homogeneous across the views (merge_segment_group guards
    mixing)."""
    all_terms = np.unique(np.concatenate([v.terms for v in views]))
    norms = np.concatenate([v.norms for v in views])
    enc = rewrite_postings(
        [_view_fragments(v, np.searchsorted(all_terms, v.terms), rb)
         for v, rb in zip(views, rebases)],
        norms=norms, postings_format=postings_format,
    )
    write_term_files(tmp, prefix, all_terms, enc)
    with open(os.path.join(tmp, prefix + NORMS_FILE), "wb") as f:
        f.write(norms.tobytes())
    return {
        "unique_terms": int(len(all_terms)),
        "sum_doc_freq": int(enc.dfs.sum()),
        "sum_total_term_freq": int(enc.ttfs.sum()),
    }


def merge_segment_group(index_dir: str, seg_names: list[str], out_name: str) -> dict:
    """SegmentMerger: k-way merge adjacent segments into one new segment.

    Every indexed field merges (primary + extras) — the per-field pass of
    SegmentMerger.java:100-166 (stored fields -> norms -> terms/postings
    per field), with docIDs rebased to the new segment's local space.
    """
    readers = [
        SegmentReader(os.path.join(index_dir, "segments", n)) for n in seg_names
    ]
    readers.sort(key=lambda r: r.doc_base)
    base = readers[0].doc_base
    doc_count = sum(r.doc_count for r in readers)
    pos_flags = {r.has_positions for r in readers}
    pay_flags = {bool(getattr(r, "has_payloads", False)) for r in readers}
    if len(pay_flags) > 1:
        raise ValueError(
            f"refusing to merge segments with mixed payloads: {seg_names}"
        )
    if len(pos_flags) > 1:
        # merging a positions segment into a no-positions one would silently
        # drop .pos data (PhraseQuery over those docs would then fail);
        # plan_compactions/compact_index keep such segments in separate tiers
        raise ValueError(
            f"refusing to merge segments with mixed has_positions: {seg_names}"
        )
    tv_flags = {bool(getattr(r, "has_term_vectors", False)) for r in readers}
    if len(tv_flags) > 1:
        raise ValueError(
            f"refusing to merge segments with mixed term_vectors: {seg_names}"
        )
    has_tv = tv_flags.pop()
    field_sets = {frozenset((r.stats.field_stats or {}).keys()) for r in readers}
    if len(field_sets) > 1:
        raise ValueError(
            f"refusing to merge segments with differing field sets: {seg_names}"
        )
    extra_names = sorted(field_sets.pop())
    for fname in extra_names:
        flags = {bool(r.stats.field_stats[fname].get("index_positions")) for r in readers}
        if len(flags) > 1:
            # same silent-.pos-loss hazard as the primary field, per field
            raise ValueError(
                f"refusing to merge segments with mixed has_positions for "
                f"field {fname!r}: {seg_names}"
            )
    rebases = [r.doc_base - base for r in readers]

    import uuid

    seg_root = os.path.join(index_dir, "segments")
    tmp = os.path.join(seg_root, f".{out_name}.tmp-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp, exist_ok=True)
    try:
        pfmt = IndexManifest.load(index_dir).postings_format
        primary = _merge_field_views(readers, rebases, tmp, "",
                                     postings_format=pfmt)
        field_stats: dict = {}
        for fname in extra_names:
            views = [r.field_view(fname) for r in readers]
            fres = _merge_field_views(
                views, rebases, tmp, field_prefix(fname), postings_format=pfmt,
            )
            fres["doc_count"] = sum(
                int(r.stats.field_stats[fname]["doc_count"]) for r in readers
            )
            # homogeneous across the views (guard above)
            fres["index_positions"] = views[0].has_positions
            field_stats[fname] = fres
        write_docmap(pa.concat_tables([r.docmap() for r in readers]),
                     os.path.join(tmp, DOCMAP_FILE))
        if has_tv:
            # carry term vectors: local docs rebase to the merged segment's
            # space; term_ords remap old dictionary -> merged dictionary
            # (docs stay sorted because readers concatenate in doc_base
            # order and each reader's vectors are already doc-sorted)
            merged_terms = pq.read_table(
                os.path.join(tmp, TERMS_FILE), columns=["term"]
            )["term"].to_numpy(zero_copy_only=False).astype(object)
            tv_parts = []
            for r, rb in zip(readers, rebases):
                t = pq.read_table(os.path.join(r.seg_dir, TERMVECTORS_FILE))
                ords_old = t["term_ord"].to_numpy()
                new_ord = np.searchsorted(merged_terms, r.terms[ords_old])
                tv_parts.append(
                    pa.table(
                        {
                            "doc": pa.array((t["doc"].to_numpy() + rb).astype(np.int32)),
                            "term_ord": pa.array(new_ord.astype(np.int32)),
                            "freq": t["freq"],
                        }
                    )
                )
            pq.write_table(
                pa.concat_tables(tv_parts),
                os.path.join(tmp, TERMVECTORS_FILE),
                row_group_size=65536,
            )
        import hashlib

        h = hashlib.sha256()
        for r in readers:
            h.update(str(r.stats.lineage_fingerprint).encode())
        st = SegmentStats(
            seg_name=out_name,
            doc_base=base,
            doc_count=doc_count,
            sum_total_term_freq=sum(r.stats.sum_total_term_freq for r in readers),
            sum_doc_freq=primary["sum_doc_freq"],
            unique_terms=primary["unique_terms"],
            lineage_file=";".join(r.stats.lineage_file for r in readers),
            lineage_rg_start=readers[0].stats.lineage_rg_start,
            lineage_rg_end=readers[-1].stats.lineage_rg_end,
            lineage_fingerprint=h.hexdigest(),
            analyzer=readers[0].stats.analyzer,
            field_stats=field_stats,
            elapsed_sec=0.0,
        )
        atomic_write_json(os.path.join(tmp, STATS_NAME), st.to_dict())
        from ..state.manifest import fsync_dir_files

        fsync_dir_files(tmp)
        from ..state.manifest import durable_rename

        out_dir = os.path.join(seg_root, out_name)
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        durable_rename(tmp, out_dir)
        return st.to_dict()
    finally:
        if os.path.exists(tmp):
            shutil.rmtree(tmp, ignore_errors=True)


def compact_index(
    index_dir: str, policy: CompactionPolicy | None = None, use_ray: bool = True
) -> IndexManifest:
    """Run one round of tiered compaction; returns the updated manifest.

    Each group merges in its own Ray task (the ConcurrentMergeScheduler
    background-merge analogue); the manifest is rewritten once at the end
    and input segment dirs are deleted only afterwards.
    """
    policy = policy or CompactionPolicy()
    manifest = IndexManifest.load(index_dir)
    groups = plan_compactions(manifest, policy)
    # split any group at positions-signature boundaries: mixed merges would
    # drop .pos data (primary or any field), so differing segments stay in
    # separate (still doc_base-adjacent) tiers
    def _has_pos(name: str):
        seg_dir = os.path.join(index_dir, "segments", name)
        from ..state.manifest import load_json

        try:
            fs = load_json(os.path.join(seg_dir, STATS_NAME)).get("field_stats") or {}
        except FileNotFoundError:
            fs = {}
        return (
            os.path.exists(os.path.join(seg_dir, POSITIONS_FILE)),
            tuple(sorted((k, bool(v.get("index_positions"))) for k, v in fs.items())),
        )

    split_groups: list[list[str]] = []
    for g in groups:
        cur: list[str] = []
        cur_flag: bool | None = None
        for name in g:
            flag = _has_pos(name)
            if cur and flag != cur_flag:
                if len(cur) >= policy.min_segments_to_merge:
                    split_groups.append(cur)
                cur = []
            cur.append(name)
            cur_flag = flag
        if len(cur) >= policy.min_segments_to_merge:
            split_groups.append(cur)
    groups = split_groups
    if not groups:
        return manifest
    jobs = [
        {"segs": g, "out_name": manifest.new_segment_name(f"_c{len(g)}")} for g in groups
    ]

    new_stats = fan_out(
        lambda j: merge_segment_group(index_dir, j["segs"], j["out_name"]), jobs,
        use_ray=use_ray,
    )

    merged_names = {n for g in groups for n in g}
    kept = [s for s in manifest.segments if s["seg_name"] not in merged_names]
    manifest.segments = sorted(kept + list(new_stats), key=lambda s: s["doc_base"])
    manifest.merged = False  # a term-sharded merge (merge.py) is now stale
    manifest.save()
    # deletion policy: drop replaced segments now (KeepOnlyLastCommit)
    # unless a snapshot pins them — those defer to gc_unreferenced at
    # snapshot release (state/commits.py)
    from ..state.commits import remove_segments_unless_pinned

    remove_segments_unless_pinned(index_dir, merged_names)
    # drop any stale term-sharded merged index: its fingerprint no longer
    # matches and the pull merge would rebuild it anyway
    shutil.rmtree(os.path.join(index_dir, "merged"), ignore_errors=True)
    return manifest


# ---------------------------------------------------------------------------
# delete reclamation (deletesPct merge)
# ---------------------------------------------------------------------------

RECLAIM_DELETES_PCT = 0.33  # TieredMergePolicy deletesPct<=33 default spirit


def _reclaim_field(view, keep: np.ndarray, remap: np.ndarray, tmp: str, prefix: str,
                   postings_format: str = "for") -> dict:
    """Rewrite ONE field's term table/postings/positions/norms keeping only
    the ``keep`` local docIDs (sorted), renumbered via ``remap`` (-1 =
    dropped). Terms whose postings empty out are dropped (df=0 terms don't
    survive a reclaiming merge). Returns the field's new stats."""
    norms_new = view.norms[keep]
    enc = rewrite_postings(
        [_view_fragments(view, np.arange(len(view.terms)), 0)], remap,
        norms=norms_new, postings_format=postings_format,
    )
    write_term_files(tmp, prefix, view.terms[enc.term_ords], enc)
    with open(os.path.join(tmp, prefix + NORMS_FILE), "wb") as f:
        f.write(norms_new.tobytes())
    return {
        "unique_terms": int(enc.n_terms),
        "sum_doc_freq": int(enc.dfs.sum()),
        "sum_total_term_freq": int(enc.ttfs.sum()),
        "doc_count": int((norms_new > 0).sum()),
        "index_positions": bool(view.has_positions),
    }


def reclaim_segment(index_dir: str, seg_name: str, new_name: str,
                    new_doc_base: int, deleted_global: np.ndarray,
                    retention_query=None) -> dict:
    """Rewrite one segment without its tombstoned docs, at a new doc_base.

    The docID-renumbering half of a reclaiming merge
    (index/TieredMergePolicy.java:99-106 deletesPct): local ids compact to
    the kept rows, global ids re-derive from the new prefix sums.

    ``retention_query`` (SoftDeletesRetentionMergePolicy.java:47 analogue):
    tombstoned docs MATCHING it are physically RETAINED (still hidden from
    search — their renumbered ids come back under "retained" in the result
    and stay tombstoned); only non-matching deletes are reclaimed."""
    import hashlib
    import uuid

    seg_root = os.path.join(index_dir, "segments")
    r = SegmentReader(os.path.join(seg_root, seg_name))
    lo, hi = r.doc_base, r.doc_base + r.doc_count
    local_del = (
        deleted_global[(deleted_global >= lo) & (deleted_global < hi)] - r.doc_base
    )
    retained_local = np.empty(0, dtype=np.int64)
    if retention_query is not None and len(local_del):
        from ..functions.bm25 import BM25
        from ..search.scorers import CollectionStats, eval_query

        matches, _ = eval_query(
            r, retention_query, CollectionStats(r.doc_count, 1, {}, {}), BM25()
        )
        retained_local = np.intersect1d(local_del, matches, assume_unique=False)
    keep = np.setdiff1d(
        np.arange(r.doc_count, dtype=np.int64),
        np.setdiff1d(local_del, retained_local),
    )
    remap = np.full(r.doc_count, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep), dtype=np.int64)
    retained_new = (remap[retained_local] + new_doc_base).tolist()

    tmp = os.path.join(seg_root, f".{new_name}.tmp-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp, exist_ok=True)
    try:
        pfmt = IndexManifest.load(index_dir).postings_format
        primary = _reclaim_field(r, keep, remap, tmp, "", postings_format=pfmt)
        field_stats: dict = {}
        for fname in sorted((r.stats.field_stats or {}).keys()):
            field_stats[fname] = _reclaim_field(
                r.field_view(fname), keep, remap, tmp, field_prefix(fname),
                postings_format=pfmt,
            )
        dm = r.docmap().take(pa.array(keep))
        write_docmap(dm, os.path.join(tmp, DOCMAP_FILE))
        if getattr(r, "has_term_vectors", False):
            # carry term vectors for the KEPT docs: local ids compact via
            # remap; term_ords remap to the post-reclaim dictionary (rows
            # of dropped docs vanish, and with them every reference to a
            # df=0-dropped term)
            new_terms = pq.read_table(
                os.path.join(tmp, TERMS_FILE), columns=["term"]
            )["term"].to_numpy(zero_copy_only=False).astype(object)
            t = pq.read_table(os.path.join(r.seg_dir, TERMVECTORS_FILE))
            tv_docs = t["doc"].to_numpy()
            m = np.isin(tv_docs, keep)
            ords_old = t["term_ord"].to_numpy()[m]
            tv = pa.table(
                {
                    "doc": pa.array(remap[tv_docs[m]].astype(np.int32)),
                    "term_ord": pa.array(
                        np.searchsorted(new_terms, r.terms[ords_old]).astype(np.int32)
                    ),
                    "freq": t["freq"].filter(pa.array(m)),
                }
            )
            pq.write_table(tv, os.path.join(tmp, TERMVECTORS_FILE),
                           row_group_size=65536)
        h = hashlib.sha256()
        h.update(str(r.stats.lineage_fingerprint).encode())
        h.update(keep.tobytes())
        st = SegmentStats(
            seg_name=new_name,
            doc_base=new_doc_base,
            doc_count=int(len(keep)),
            sum_total_term_freq=primary["sum_total_term_freq"],
            sum_doc_freq=primary["sum_doc_freq"],
            unique_terms=primary["unique_terms"],
            lineage_file=r.stats.lineage_file,
            lineage_rg_start=r.stats.lineage_rg_start,
            lineage_rg_end=r.stats.lineage_rg_end,
            lineage_fingerprint=h.hexdigest(),
            analyzer=r.stats.analyzer,
            field_stats=field_stats,
            elapsed_sec=0.0,
        )
        atomic_write_json(os.path.join(tmp, STATS_NAME), st.to_dict())
        from ..state.manifest import fsync_dir_files

        fsync_dir_files(tmp)
        from ..state.manifest import durable_rename

        out_dir = os.path.join(seg_root, new_name)
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        durable_rename(tmp, out_dir)
        d = st.to_dict()
        d["retained"] = retained_new
        return d
    finally:
        if os.path.exists(tmp):
            shutil.rmtree(tmp, ignore_errors=True)


def _retained_counts(index_dir: str, segs: list[dict], deleted: np.ndarray,
                     retention_query, use_ray: bool) -> dict[str, int]:
    """Per-segment count of tombstoned docs the retention query keeps —
    the pre-pass that fixes the renumbering prefix sums (one cheap Ray map
    over segments; no rewrite)."""
    def count_one(seg_name: str, deleted: np.ndarray, retention_query) -> int:
        from ..functions.bm25 import BM25
        from ..search.scorers import CollectionStats, eval_query

        r = SegmentReader(os.path.join(index_dir, "segments", seg_name))
        lo, hi = r.doc_base, r.doc_base + r.doc_count
        local_del = deleted[(deleted >= lo) & (deleted < hi)] - r.doc_base
        if len(local_del) == 0:
            return 0
        matches, _ = eval_query(
            r, retention_query, CollectionStats(r.doc_count, 1, {}, {}), BM25()
        )
        return int(len(np.intersect1d(local_del, matches)))

    if not use_ray:
        return {s["seg_name"]: count_one(s["seg_name"], deleted, retention_query) for s in segs}
    import ray

    del_ref = ray.put(deleted)
    q_ref = ray.put(retention_query)

    def run(item: dict) -> dict:
        n = count_one(item["seg_name"], ray.get(del_ref), ray.get(q_ref))
        return {"seg_name": item["seg_name"], "n": n}

    rows = fan_out(run, [{"seg_name": s["seg_name"]} for s in segs])
    return {r["seg_name"]: r["n"] for r in rows}


def reclaim_deletes(
    index_dir: str,
    deletes_pct_threshold: float = RECLAIM_DELETES_PCT,
    use_ray: bool = True,
    force: bool = False,
    retention_query=None,
) -> IndexManifest:
    """deletesPct-triggered reclaiming merge: rewrite every segment without
    its tombstoned docs and renumber the global docID space.

    No-op below the threshold (deleted/doc_count <= deletes_pct_threshold,
    TieredMergePolicy deletesPct spirit) unless ``force``. Afterwards the
    tombstone file holds only RETAINED soft deletes (empty without a
    retention query), collection statistics reflect the kept rows, and any
    term-sharded merged index (now stale by fingerprint) is dropped. Each
    segment rewrites in its own Ray task; the manifest is the single
    commit point (old segments remain until it flips).

    ``retention_query`` = the SoftDeletesRetentionMergePolicy.java:47
    analogue: tombstoned docs matching it survive the rewrite physically
    but STAY tombstoned (hidden) under their renumbered ids — deletes age
    out only once the retention query stops matching them.
    """
    from ..state.livedocs import TOMBSTONES_FILE, load_tombstones

    manifest = IndexManifest.load(index_dir)
    deleted = load_tombstones(index_dir)
    if len(deleted) == 0:
        return manifest
    if not force and len(deleted) / max(1, manifest.doc_count) <= deletes_pct_threshold:
        return manifest

    segs = sorted(manifest.segments, key=lambda s: s["doc_base"])
    retained_counts = (
        _retained_counts(index_dir, segs, deleted, retention_query, use_ray)
        if retention_query is not None
        else {}
    )
    # new doc_base prefix sums from per-segment kept counts (driver-side,
    # tiny: one searchsorted per segment over the sorted tombstones, plus
    # the retained counts from the pre-pass)
    import re as _re

    jobs = []
    new_base = 0
    # reclaim generation: names the tombstone generation file and tags the
    # rewritten segments; their names come fresh from the manifest counter,
    # so a live segment dir is never rewritten in place (that would lean on
    # unlink-with-open-mmap semantics)
    gens = [
        int(m.group(1))
        for seg in segs
        if (m := _re.search(r"_rc(\d+)$", seg["seg_name"]))
    ]
    gen = max(gens, default=0) + 1
    for s in segs:
        lo, hi = s["doc_base"], s["doc_base"] + s["doc_count"]
        n_del = int(np.searchsorted(deleted, hi) - np.searchsorted(deleted, lo))
        jobs.append(
            {"seg_name": s["seg_name"], "new_name": manifest.new_segment_name(f"_rc{gen}"),
             "new_doc_base": new_base}
        )
        new_base += s["doc_count"] - n_del + retained_counts.get(s["seg_name"], 0)

    if use_ray:
        import ray

        del_ref = ray.put(deleted)
        rq_ref = ray.put(retention_query)

        def run(job: dict) -> dict:
            return reclaim_segment(
                index_dir, job["seg_name"], job["new_name"], job["new_doc_base"],
                ray.get(del_ref), retention_query=ray.get(rq_ref),
            )

        new_stats = fan_out(run, jobs)
    else:
        new_stats = [
            reclaim_segment(index_dir, j["seg_name"], j["new_name"],
                            j["new_doc_base"], deleted, retention_query=retention_query)
            for j in jobs
        ]

    new_stats.sort(key=lambda s: s["doc_base"])
    retained_all = sorted(int(x) for st in new_stats for x in st.pop("retained", []))
    # tombstones commit ATOMICALLY with the renumbered docID space: the
    # retained set goes into a NEW generation file first, and the manifest
    # save below switches both together (a crash in between leaves the old
    # manifest + old tombstones — a consistent pre-reclaim view)
    old_tpath = os.path.join(index_dir, manifest.tombstones_file or TOMBSTONES_FILE)
    new_tname = f"tombstones_rc{gen}.json"
    if retained_all:
        atomic_write_json(os.path.join(index_dir, new_tname), {"deleted": retained_all})
        manifest.tombstones_file = new_tname
    else:
        manifest.tombstones_file = new_tname  # generation exists but is empty
    manifest.segments = new_stats
    manifest.doc_count = sum(s["doc_count"] for s in new_stats)
    manifest.sum_total_term_freq = sum(s["sum_total_term_freq"] for s in new_stats)
    manifest.field_stats = _aggregate_field_stats(new_stats)
    manifest.merged = False
    manifest.save()
    # only after the manifest commit: drop the previous tombstone
    # generation, old segments, and the now-stale merged index
    if os.path.abspath(old_tpath) != os.path.abspath(
        os.path.join(index_dir, manifest.tombstones_file)
    ) and os.path.exists(old_tpath):
        os.unlink(old_tpath)
    from ..state.commits import remove_segments_unless_pinned

    remove_segments_unless_pinned(index_dir, [j["seg_name"] for j in jobs])
    shutil.rmtree(os.path.join(index_dir, "merged"), ignore_errors=True)
    return manifest
