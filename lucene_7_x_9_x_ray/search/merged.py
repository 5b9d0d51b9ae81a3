"""Searcher over the merged (term-partitioned, salted) index.

The merged index (stages/merge.py) keeps GLOBAL docIDs inside the packed
postings, so a single virtual "reader" with doc_base=0 duck-types the
SegmentReader interface the scorers need (term_postings / term_stats /
norms / doc_count) — eval_query runs unchanged and returns global ids.

Hot (salted) terms live as `hot_buckets` sub-shards covering contiguous
doc_base ranges; FragmentedPostings stitches them back in bucket order
(which IS ascending docID order — the associative-stitch guarantee of
SURVEY.md §7.4).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..state.manifest import IndexManifest, load_json
from ..state.segment import NORMS_FILE, TermPostings, TermTableReader
from ..stages.merge import MERGED_MANIFEST
from .searcher import IndexSearcher


class _Shard(TermTableReader):
    """One merged shard dir — the shared TermTableReader parsing core."""

    def __init__(self, shard_dir: str):
        self._load_term_table(shard_dir)


@dataclass
class FragmentedPostings:
    """Hot-term postings stitched from salted sub-shards (decode-only)."""

    parts: list[TermPostings]
    doc_freq: int
    total_term_freq: int

    def decode(self):
        decoded = [p.decode() for p in self.parts]  # one pass per fragment
        docs = np.concatenate([d for d, _ in decoded])
        freqs = np.concatenate([f for _, f in decoded])
        return docs, freqs


class SegmentedNorms:
    """Global-docID-indexed norms view over lazily memory-mapped PER-SEGMENT
    norms files. Replaces the merged norms.bin the driver used to write by
    streaming every segment (a single-writer 1-byte-per-doc step — 1 TB at
    10^12 docs): readers resolve a global id to (segment, local) via the
    doc_base prefix sums and read the segment's own file."""

    def __init__(self, seg_dirs: list[str], doc_bases: list[int], total_docs: int,
                 filename: str = NORMS_FILE):
        self._dirs = seg_dirs
        self._bases = np.asarray(doc_bases, dtype=np.int64)
        self._total = int(total_docs)
        self._filename = filename
        self._maps: list[np.ndarray | None] = [None] * len(seg_dirs)

    def __len__(self) -> int:
        return self._total

    def _seg(self, i: int) -> np.ndarray:
        m = self._maps[i]
        if m is None:
            m = np.memmap(os.path.join(self._dirs[i], self._filename), dtype=np.uint8, mode="r")
            self._maps[i] = m
        return m

    # below this corpus size, materialize one dense array on first use —
    # the exact cost of the old single norms file (64 MB), without any
    # driver write step; above it, per-segment gathers keep memory bounded
    _DENSE_MAX = 1 << 26
    _dense: np.ndarray | None = None

    def __getitem__(self, idx):
        if self._total <= self._DENSE_MAX:
            if self._dense is None:
                self._dense = np.concatenate(
                    [np.asarray(self._seg(i)) for i in range(len(self._dirs))]
                ) if self._dirs else np.empty(0, dtype=np.uint8)
            return self._dense[idx]
        if isinstance(idx, (int, np.integer)):
            si = int(np.searchsorted(self._bases, idx, side="right")) - 1
            return self._seg(si)[int(idx) - int(self._bases[si])]
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty(len(idx), dtype=np.uint8)
        if len(idx) > 1 and not bool((idx[1:] >= idx[:-1]).all()):
            # every engine call site passes sorted posting/candidate docs;
            # guard the invariant instead of silently gathering garbage
            si = np.searchsorted(self._bases, idx, side="right") - 1
            for seg in np.unique(si):
                m = si == seg
                out[m] = self._seg(int(seg))[idx[m] - int(self._bases[seg])]
            return out
        # posting doc arrays arrive sorted: one boundary cut per segment,
        # contiguous slices instead of per-element searchsorted + masks
        cuts = np.searchsorted(idx, self._bases)
        ends = np.append(cuts[1:], len(idx))
        for s in range(len(self._dirs)):
            a, b = int(cuts[s]), int(ends[s])
            if a < b:
                out[a:b] = self._seg(s)[idx[a:b] - int(self._bases[s])]
        return out


class _ShardedTermLookup:
    """Shared term lookup over one field's merged shard set (cold ranges +
    salted hot buckets): the per-field Terms reader of the merged tier."""

    def _init_shards(
        self, shard_dir: str, n_shards: int, hot_buckets: int,
        hot_terms: list[str], boundaries, shard_infos: list[dict],
    ) -> None:
        self.n_shards = n_shards
        self.hot_buckets = hot_buckets
        self.hot_rank = {t: i for i, t in enumerate(hot_terms)}
        self._merged_dir = shard_dir
        self._shards: dict[int, _Shard] = {}
        self._shard_infos = shard_infos
        self._have = {s["shard_id"] for s in shard_infos}
        # shard i covers [boundaries[i], boundaries[i+1]); no boundaries =
        # every term is hot
        self._boundaries = np.asarray(boundaries or [], dtype=object)

    def _cold_shard_id(self, term: str) -> int:
        """Range shard of a non-hot term (-1, no shard, if there are none)."""
        return int(np.searchsorted(self._boundaries, term, side="right")) - 1

    def _shard(self, sid: int) -> _Shard | None:
        if sid not in self._have:
            return None
        if sid not in self._shards:
            self._shards[sid] = _Shard(os.path.join(self._merged_dir, f"shard_{sid:05d}"))
        return self._shards[sid]

    def _hot_sids(self, rank: int) -> list[int]:
        base = self.n_shards + rank * self.hot_buckets
        return [s for s in range(base, base + self.hot_buckets) if s in self._have]

    def term_stats(self, term: str) -> tuple[int, int]:
        hr = self.hot_rank.get(term)
        if hr is not None:
            df = ttf = 0
            for sid in self._hot_sids(hr):
                sh = self._shard(sid)
                i = sh.lookup(term)
                if i >= 0:
                    df += int(sh.doc_freqs[i])
                    ttf += int(sh.ttfs[i])
            return df, ttf
        sh = self._shard(self._cold_shard_id(term))
        if sh is None:
            return 0, 0
        i = sh.lookup(term)
        return (int(sh.doc_freqs[i]), int(sh.ttfs[i])) if i >= 0 else (0, 0)

    def term_postings(self, term: str):
        hr = self.hot_rank.get(term)
        if hr is not None:
            parts = []
            df = ttf = 0
            for sid in self._hot_sids(hr):  # ascending bucket == ascending docID
                sh = self._shard(sid)
                i = sh.lookup(term)
                if i >= 0:
                    tp = sh.postings_by_ord(i)
                    parts.append(tp)
                    df += tp.doc_freq
                    ttf += tp.total_term_freq
            if not parts:
                return None
            if len(parts) == 1:
                return parts[0]
            return FragmentedPostings(parts, df, ttf)
        sh = self._shard(self._cold_shard_id(term))
        if sh is None:
            return None
        i = sh.lookup(term)
        return sh.postings_by_ord(i) if i >= 0 else None

    def term_positions(self, term: str):
        """(global docs, freqs, positions stream) or None — hot terms stitch
        their doc-range fragments in bucket (== docID) order."""
        return self._stitch_positions(term, payloads=False)

    def term_positions_payloads(self, term: str):
        """(global docs, freqs, positions, payloads) or None — payload
        fragments stitch in the same bucket order as positions."""
        return self._stitch_positions(term, payloads=True)

    def _stitch_positions(self, term: str, payloads: bool):
        hr = self.hot_rank.get(term)
        sids = self._hot_sids(hr) if hr is not None else [self._cold_shard_id(term)]
        parts = [sh._read_positions(term, payloads) for sh in map(self._shard, sids)
                 if sh is not None]
        parts = [p for p in parts if p is not None]
        if not parts:
            return None
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _any_shard_flag(self, attr: str) -> bool:
        """True iff ANY loadable shard carries the capability."""
        for s in self._shard_infos:
            sh = self._shard(s["shard_id"])
            if sh is not None and bool(getattr(sh, attr, False)):
                return True
        return False

    @property
    def has_positions(self) -> bool:
        return self._any_shard_flag("has_positions")

    @property
    def has_payloads(self) -> bool:
        return self._any_shard_flag("has_payloads")


    @property
    def terms(self) -> np.ndarray:
        """Union sorted dictionary across shards (multi-term rewrites),
        cached after the first use."""
        cached = getattr(self, "_terms_cache", None)
        if cached is None:
            parts = [self._shard(s["shard_id"]).terms for s in self._shard_infos]
            cached = (
                np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=object)
            )
            self._terms_cache = cached
        return cached



class _MergedFieldView(_ShardedTermLookup):
    """Merged-tier reader for one EXTRA field: its own shard set + the
    per-segment field norms, aligned to global docIDs."""

    def __init__(self, index_dir: str, field: str, fmeta: dict,
                 seg_dirs: list[str], doc_bases: list[int], doc_count: int):
        from ..state.segment import NORMS_FILE as _N, field_prefix

        self.field = field
        self.doc_count = doc_count
        self.doc_base = 0
        self._init_shards(
            os.path.join(index_dir, "merged", f"f_{field}"),
            fmeta["n_shards"], fmeta["hot_buckets"],
            fmeta.get("hot_terms") or [],
            fmeta.get("boundaries"), fmeta.get("shards") or [],
        )
        self.norms = SegmentedNorms(
            seg_dirs, doc_bases, doc_count, filename=field_prefix(field) + _N
        )


class MergedReader(_ShardedTermLookup):
    """Virtual whole-index reader (doc_base=0, global docIDs)."""

    def __init__(self, index_dir: str, manifest: IndexManifest | None = None):
        merged_dir = os.path.join(index_dir, "merged")
        self.meta = load_json(os.path.join(merged_dir, MERGED_MANIFEST))
        self.doc_count = self.meta["doc_count"]
        self.doc_base = 0
        self.index_dir = index_dir
        man = manifest or IndexManifest.load(index_dir)
        segs = sorted(man.segments, key=lambda s: s["doc_base"])
        self._seg_dirs = [
            os.path.join(index_dir, "segments", s["seg_name"]) for s in segs
        ]
        self._doc_bases = [s["doc_base"] for s in segs]
        self.norms = SegmentedNorms(
            self._seg_dirs, self._doc_bases, sum(s["doc_count"] for s in segs)
        )
        self._init_shards(
            merged_dir, self.meta["n_shards"], self.meta["hot_buckets"],
            self.meta["hot_terms"], self.meta.get("boundaries"),
            self.meta["shards"],
        )
        self._dv_cache: dict[str, np.ndarray] = {}
        # numeric DV updates (state/dvupdates.py): loaded at open time —
        # NRT semantics, an already-open reader keeps its generation
        from ..state.dvupdates import load_dv_updates

        self._dv_updates = load_dv_updates(index_dir)
        self._field_views: dict[str, _MergedFieldView] = {}
        self._field_doc_counts = {
            k: int(v.get("doc_count", self.doc_count))
            for k, v in (man.field_stats or {}).items()
        }

    def field_view(self, field: str):
        """Per-field merged reader ("" = primary = self). Raises if the
        merged index was built before the field existed."""
        if not field:
            return self
        fv = self._field_views.get(field)
        if fv is None:
            fmeta = (self.meta.get("fields") or {}).get(field)
            if fmeta is None:
                raise ValueError(
                    f"merged index at {self._merged_dir} has no field {field!r}"
                )
            fv = _MergedFieldView(
                self.index_dir, field, fmeta, self._seg_dirs, self._doc_bases,
                self._field_doc_counts.get(field, self.doc_count),
            )
            self._field_views[field] = fv
        return fv

    def doc_values(self, col: str) -> np.ndarray:
        """Global-docID-aligned doc-values column: per-segment docmap
        columns concatenated in doc_base order (cached)."""
        arr = self._dv_cache.get(col)
        if arr is None:
            from ..state.segment import read_doc_values

            arr = np.concatenate([read_doc_values(d, col) for d in self._seg_dirs])
            upd = self._dv_updates.get(col)
            if upd is not None:
                ids, vals = upd
                arr = arr.copy()
                arr[ids] = vals.astype(arr.dtype)
            self._dv_cache[col] = arr
        return arr

    def doc_values_list(self, col: str):
        """Global-docID-aligned MULTI-VALUED (SORTED_SET) doc-values
        column: per-segment list<string> docmap columns concatenated in
        doc_base order (cached)."""
        key = ("__list__", col)
        arr = self._dv_cache.get(key)
        if arr is None:
            import os

            import pyarrow as pa
            import pyarrow.parquet as pq

            from ..state.segment import DOCMAP_FILE

            parts = [
                pq.read_table(os.path.join(d, DOCMAP_FILE), columns=[col])[col]
                for d in self._seg_dirs
            ]
            arr = pa.concat_arrays(
                [c.combine_chunks() for c in parts]
            )
            self._dv_cache[key] = arr
        return arr

    def doc_values_range_docs(
        self, col: str, lower, upper, include_lower: bool, include_upper: bool
    ) -> np.ndarray:
        """Global docIDs matching a numeric range via each segment's
        BKD-analogue block index (docmap row-group min/max stats): whole
        segments/blocks outside the range cost no IO. Pruning counters
        accumulate in self.dv_prune_stats."""
        import pyarrow.parquet as _pq

        from ..state.segment import DOCMAP_FILE, range_docs_pruned

        pfs = self._dv_cache.get(("__pf__", col))
        if pfs is None:
            pfs = [_pq.ParquetFile(os.path.join(d, DOCMAP_FILE)) for d in self._seg_dirs]
            self._dv_cache[("__pf__", col)] = pfs
        stats = getattr(self, "dv_prune_stats", None)
        if stats is None:
            stats = self.dv_prune_stats = {}
        parts = []
        for pf, seg_dir, base in zip(pfs, self._seg_dirs, self._doc_bases):
            docs = range_docs_pruned(
                pf, col, lower, upper, include_lower, include_upper, prune_stats=stats
            )
            if docs is None:  # no usable stats: full scan of this segment
                from ..state.segment import read_doc_values

                vals = read_doc_values(seg_dir, col)
                mask = np.ones(len(vals), dtype=bool)
                if lower is not None:
                    mask &= (vals >= lower) if include_lower else (vals > lower)
                if upper is not None:
                    mask &= (vals <= upper) if include_upper else (vals < upper)
                docs = np.flatnonzero(mask).astype(np.int64)
            parts.append(docs + base)
        out = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        upd = self._dv_updates.get(col)
        if upd is not None:
            # block stats predate the patch: drop patched docs from the
            # pruned result, then re-admit those whose NEW value matches
            ids, vals = upd
            out = np.setdiff1d(out, ids, assume_unique=False)
            m = np.ones(len(ids), dtype=bool)
            if lower is not None:
                m &= (vals >= lower) if include_lower else (vals > lower)
            if upper is not None:
                m &= (vals <= upper) if include_upper else (vals < upper)
            out = np.union1d(out, ids[m])
        return out

    def doc_values_valid(self, col: str) -> np.ndarray:
        """Global-docID-aligned validity bitmap (per-segment bitmaps
        concatenated in doc_base order, cached)."""
        key = ("__valid__", col)
        arr = self._dv_cache.get(key)
        if arr is None:
            from ..state.segment import read_doc_values_validity

            arr = np.concatenate(
                [read_doc_values_validity(d, col) for d in self._seg_dirs]
            )
            upd = self._dv_updates.get(col)
            if upd is not None:
                # updating a previously-missing value SETS it
                # (NumericDocValuesField update semantics)
                arr = arr.copy()
                arr[upd[0]] = True
            self._dv_cache[key] = arr
        return arr

class MergedIndexSearcher(IndexSearcher):
    """IndexSearcher API over the merged index: the same searcher, whose
    reader list is the one virtual MergedReader (global docIDs). The
    per-segment searcher opens only when a query needs it (extra fields an
    older merge lacks, doc lookups), not at construction.

    mode="auto" runs the dense vectorized bulk scorer (fastest at these
    segment sizes — measured with perfbench/run.py); mode="wand" runs block-max WAND
    document-at-a-time, with salted hot terms expanded into one clause per
    doc-range fragment (see wand.py) — the pruning scale path, duel-tested
    rank-identical in tests/test_merge.py."""

    _seg_searcher: IndexSearcher | None = None

    def _open_readers(self, reuse: dict) -> list:
        return [MergedReader(self.index_dir, self.manifest)]

    @property
    def _merged(self) -> MergedReader:
        return self.readers[0]

    def _seg(self) -> IndexSearcher:
        if self._seg_searcher is None:
            self._seg_searcher = IndexSearcher(self.index_dir, self.bm25, manifest=self.manifest)
        return self._seg_searcher

    def _route(self, query):
        """Queries scoring extra fields run on the merged index when its
        per-field shard sets exist (merges now carry every field); older
        merged dirs without them fall back to the per-segment searcher.
        Returns (query, searcher-or-None)."""
        from . import queries as Q

        q = self.parse(query) if isinstance(query, str) else query
        used = {f for f, _ in Q.collect_field_terms(q) if f}
        if used and not used <= set(self._merged.meta.get("fields") or {}):
            return q, self._seg()
        return q, None

    def search(self, query, k=10, mode="auto", total_hits_threshold=None, **kw):
        from .topk import DEFAULT_TOTAL_HITS_THRESHOLD

        tht = DEFAULT_TOTAL_HITS_THRESHOLD if total_hits_threshold is None else total_hits_threshold
        q, delegate = self._route(query)
        if delegate is not None:
            return delegate.search(q, k=k, mode=mode, total_hits_threshold=tht, **kw)
        return super().search(q, k=k, mode=mode, total_hits_threshold=tht, **kw)

    def count(self, query) -> int:
        q, delegate = self._route(query)
        if delegate is not None:
            return delegate.count(q)
        return super().count(q)

    def search_after(self, query, k, after):
        q, delegate = self._route(query)
        if delegate is not None:
            return delegate.search_after(q, k, after)
        return super().search_after(q, k, after)

    def lookup_docs(self, global_doc_ids) -> list[dict]:
        return self._seg().lookup_docs(global_doc_ids)


def _merged_is_fresh(index_dir: str, manifest: IndexManifest) -> bool:
    """True iff a merged index exists, was built from ``manifest``'s
    segment set, and is range-partitioned. An NRT append bumps the
    manifest generation without touching merged/, so a stale fingerprint
    means the merged artifact is missing appended docs and must not serve.
    A tier of any other strategy (the hash-sharded "hash" tiers of older
    merges) would route terms to the wrong shards, so it serves
    per-segment until the next merge. The caller opens its searcher on
    the same manifest, so an append landing between this check and the
    open cannot pair a newer segment set with the tier."""
    from ..state.manifest import segments_fingerprint

    merged_path = os.path.join(index_dir, "merged", MERGED_MANIFEST)
    if not os.path.exists(merged_path):
        return False
    meta = load_json(merged_path)
    return (
        meta.get("strategy") == "range"
        and meta.get("fingerprint") == segments_fingerprint(manifest)
    )


def open_searcher(index_dir: str, prefer_merged: bool = True,
                  bm25=None) -> IndexSearcher:
    """Factory: merged searcher when a FRESH merged index exists (built
    from the current segment generation), else the per-segment searcher —
    after an NRT append the merged shards are stale and serving falls back
    to segments until the next merge. ``bm25`` is the pluggable
    Similarity (IndexSearcher.setSimilarity role, functions/bm25.py
    get_similarity). Reads ``manifest.json`` once."""
    manifest = IndexManifest.load(index_dir)
    if prefer_merged and _merged_is_fresh(index_dir, manifest):
        return MergedIndexSearcher(index_dir, bm25=bm25, manifest=manifest)
    return IndexSearcher(index_dir, bm25=bm25, manifest=manifest)


def open_if_changed(searcher: IndexSearcher) -> IndexSearcher | None:
    """DirectoryReader.openIfChanged analogue (s84
    index/DirectoryReader.java:154; blog NRT reopen loop): return a NEW
    searcher if the index has a newer committed generation, else None.

    The new searcher reuses the old one's SegmentReader objects for every
    segment dir that is still in the manifest, so a reopen after an append
    only cold-opens the appended segments. If a fresh merged index exists
    for the new generation, the merged searcher is returned instead.
    Reads ``manifest.json`` once."""
    current = IndexManifest.load(searcher.index_dir)
    old = searcher.manifest
    if current.version == old.version and [s["seg_name"] for s in current.segments] == [
        s["seg_name"] for s in old.segments
    ]:
        return None
    if _merged_is_fresh(searcher.index_dir, current):
        return MergedIndexSearcher(searcher.index_dir, searcher.bm25, manifest=current)
    from ..state.segment import SegmentReader

    reuse = {r.seg_dir: r for r in searcher.readers if isinstance(r, SegmentReader)}
    return IndexSearcher(searcher.index_dir, searcher.bm25, reuse_readers=reuse,
                         manifest=current)
