"""Index manifests: per-partition lineage/metrics + the global commit record.

The reference's durability model is re-created, not ported:
- per-segment artifacts are written to a temp dir then atomically renamed
  (the fsync-then-rename discipline of IndexWriter.commit,
  solr-8.4.0/lucene/core/.../index/IndexWriter.java:3180-3467);
- the global ``manifest.json`` is written LAST and is the only commit point,
  playing the role of the ``segments_N`` generation file
  (index/SegmentInfos.java:119): an index is exactly the set of segments its
  manifest lists, and a crashed build leaves the previous manifest intact;
- each segment's ``stats.json`` records input lineage (file + row-group
  range + content fingerprint) and build metrics, which is what makes builds
  resumable: a re-run skips any partition whose stats.json matches its spec
  (north rule: per-partition checkpointed lineage/metrics).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import asdict, dataclass, field
from dataclasses import field as _dc_field  # usable where an attr named "field" shadows
from typing import Any

MANIFEST_NAME = "manifest.json"
STATS_NAME = "stats.json"
FORMAT_VERSION = 2  # bump on any incompatible artifact-layout change


def atomic_write_json(path: str, obj: Any) -> None:
    """Write JSON durably: temp file in the same dir + fsync + rename +
    parent-directory fsync (the rename itself lives in the parent dir's
    pages — without syncing it a power loss can undo the replace)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(obj, f, indent=1, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        if fsync_enabled():
            fsync_path(d)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_json(path: str) -> Any:
    with open(path) as f:
        return json.load(f)


def fsync_enabled() -> bool:
    """Segment-file durability: ON by default; LUCENE_RAY_FSYNC_SEGMENTS=0
    opts into unsynced mode (faster, but a power loss can leave a committed
    manifest pointing at segment files whose pages never reached disk)."""
    return os.environ.get("LUCENE_RAY_FSYNC_SEGMENTS", "1").lower() not in (
        "0", "false", "no", "off",
    )


def fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def durable_rename(src: str, dst: str) -> None:
    """os.rename + fsync of the PARENT directory: the rename record lives
    in the parent dir's pages, so without the directory fsync a power loss
    can make a committed manifest reference a segment dir whose rename
    never reached disk (the full IndexWriter.commit sync discipline)."""
    os.rename(src, dst)
    if fsync_enabled():
        fsync_path(os.path.dirname(os.path.abspath(dst)))


def fsync_dir_files(dir_path: str) -> None:
    """fsync every regular file in dir_path, then the directory itself —
    the 'sync every referenced file before writing segments_N' discipline
    of IndexWriter.commit (s84 index/IndexWriter.java:3180-3467). Called on
    a segment/shard temp dir immediately before its atomic rename so the
    manifest (our segments_N) never references unsynced data. No-op when
    fsync_enabled() is off.

    File fsyncs run on an io-thread pool: os.fsync releases the GIL, so
    the per-file device flushes overlap instead of serializing their
    latencies (a segment dir has ~10 files; sequential fsyncs were ~25%
    of build+merge wall time at sf0.1 — round-2 VERDICT item #7). The
    directory fsync stays LAST: it must not be issued before every file
    flush has completed."""
    if not fsync_enabled():
        return
    files = [
        p
        for name in os.listdir(dir_path)
        if os.path.isfile(p := os.path.join(dir_path, name))
    ]
    if len(files) > 2:
        list(_io_pool().map(fsync_path, files))  # list() re-raises any error
    else:
        for p in files:
            fsync_path(p)
    fsync_path(dir_path)


_IO_POOL = None


def _io_pool():
    """Process-wide fsync thread pool: merge reducers flush hundreds of
    small shard dirs, and spinning up a fresh ThreadPoolExecutor per dir
    costs ~10 ms of thread startup — comparable to the flushes themselves
    on a warm page cache."""
    global _IO_POOL
    if _IO_POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _IO_POOL = ThreadPoolExecutor(max_workers=8, thread_name_prefix="fsync")
    return _IO_POOL


@dataclass
class SegmentStats:
    """Per-partition checkpoint record (written inside the segment dir)."""

    seg_name: str
    doc_base: int  # global docID of this segment's local doc 0
    doc_count: int
    sum_total_term_freq: int  # BM25 avgdl numerator contribution
    sum_doc_freq: int
    unique_terms: int
    lineage_file: str
    lineage_rg_start: int  # parquet row-group range [start, end)
    lineage_rg_end: int
    lineage_fingerprint: str  # content fingerprint of the input slice
    analyzer: str
    field: str = "text"
    elapsed_sec: float = 0.0
    resumed: bool = False
    # extra indexed fields: name -> {sum_total_term_freq, sum_doc_freq,
    # unique_terms, doc_count (docs with the field), index_positions}.
    # The FieldInfos (.fnm) record of this segment's non-primary fields.
    field_stats: dict = _dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SegmentStats":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


@dataclass
class IndexManifest:
    """The commit record: global stats + ordered segment list."""

    index_dir: str
    analyzer: str
    field: str
    doc_count: int
    sum_total_term_freq: int
    segments: list[dict] = field(default_factory=list)  # SegmentStats dicts, doc_base ascending
    merged: bool = False
    version: int = 1  # commit generation (segments_N counter; NRT bumps it)
    # on-disk layout version (the segments_N format header role,
    # index/SegmentInfos.java:119 VERSION_* checks): 2 = postings regions
    # lead with a fmt_id byte (codec SPI). load() refuses other layouts
    # loudly instead of misparsing region bytes.
    format_version: int = FORMAT_VERSION
    # index-sort column (BuildConfig.sort_by); "" = not sorted. Recorded so
    # sorted_field_topn can refuse a mismatched field instead of silently
    # returning head rows of an unsorted docmap.
    sort_by: str = ""
    # cross-segment aggregate of extra-field statistics: field name ->
    # {sum_total_term_freq, doc_count} (per-field avgdl/idf inputs — the
    # global FieldInfos + FieldSummary record, tim&&tip.md:152-163)
    field_stats: dict = _dc_field(default_factory=dict)
    # live tombstone file name (the .liv generation): renumbering merges
    # write a NEW generation file and switch it HERE, so tombstones and the
    # docID space they refer to always commit atomically together
    tombstones_file: str = "tombstones.json"
    # postings-format SPI name the index was built with (codec SPI record,
    # the segments_N codec-name role): merge/compaction re-encode at THIS
    # format. Regions self-describe via their fmt_id byte, so segments of
    # mixed formats (e.g. after an append with a different cfg) still
    # decode transparently; this is the writer-side default.
    postings_format: str = "for"
    # BuildConfig.payload_delimiter ("" = no payloads): recorded so NRT
    # appends refuse a config mismatch (mixed payload/no-payload segments
    # would poison the merged term table's column set)
    payload_delimiter: str = ""
    # IndexOptions analogue for the primary field: "positions",
    # "docs_freqs", or "docs" (freqs stored as 1 — IndexOptions.java:34).
    # Appends refuse a mismatch (mixed freq semantics would skew stats).
    # "" = manifest predates the field; resolve from segment artifacts
    # (stages/build.py resolve_index_options) rather than guessing.
    index_options: str = ""
    # next segment number (the SegmentInfos.counter role): build, append,
    # addIndexes, compaction and reclaim all name new segments from it, so
    # no two segments ever share a name. -1 = a manifest that predates the
    # counter: resolved to 1 + the largest leading number in use.
    counter: int = -1

    def __post_init__(self):
        if self.counter < 0:
            nums = [int(m.group(1)) for s in self.segments
                    if (m := re.match(r"seg_(\d+)", s["seg_name"]))]
            self.counter = 1 + max(nums, default=-1)

    def new_segment_name(self, suffix: str = "") -> str:
        """Take the next segment name from the counter (committed with the
        next save; a retry after a crash reuses the same names)."""
        name = f"seg_{self.counter:06d}{suffix}"
        self.counter += 1
        return name

    @property
    def avgdl_inputs(self) -> tuple[int, int]:
        return self.sum_total_term_freq, self.doc_count

    def segment_dirs(self) -> list[str]:
        return [os.path.join(self.index_dir, "segments", s["seg_name"]) for s in self.segments]

    def save(self) -> None:
        # index_dir is where the manifest was found, not part of the commit:
        # load() sets it, so a moved index reopens and its size does not
        # depend on its path
        d = asdict(self)
        del d["index_dir"]
        atomic_write_json(os.path.join(self.index_dir, MANIFEST_NAME), d)

    @classmethod
    def load(cls, index_dir: str) -> "IndexManifest":
        d = load_json(os.path.join(index_dir, MANIFEST_NAME))
        got = int(d.get("format_version", 1))
        if got != FORMAT_VERSION:
            raise ValueError(
                f"index at {index_dir} has on-disk format version {got}, "
                f"this build reads version {FORMAT_VERSION} — rebuild the "
                "index (v2 added the per-region postings-format id byte)"
            )
        d["index_dir"] = index_dir  # allow relocated index dirs
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


def segment_is_complete(seg_dir: str, expect: dict | None = None) -> SegmentStats | None:
    """Return the segment's stats iff it was fully committed (atomic rename
    happened and stats.json parses) and, when ``expect`` is given, its
    lineage matches the partition spec. Used for resume-from-checkpoint."""
    stats_path = os.path.join(seg_dir, STATS_NAME)
    if not os.path.exists(stats_path):
        return None
    try:
        st = SegmentStats.from_dict(load_json(stats_path))
    except (json.JSONDecodeError, TypeError, KeyError):
        return None
    if expect is not None:
        if (
            st.lineage_file != expect["path"]
            or st.lineage_rg_start != expect["rg_start"]
            or st.lineage_rg_end != expect["rg_end"]
            or st.doc_base != expect["doc_base"]
        ):
            return None
    return st


def segments_fingerprint(manifest: "IndexManifest") -> str:
    """Content fingerprint of the committed segment set (name + lineage).
    A merged index records this at merge time; readers compare it against
    the CURRENT manifest to detect that an NRT append made the merged
    artifact stale (segments_N vs the merge's source set)."""
    import hashlib

    h = hashlib.sha256()
    for s in manifest.segments:
        h.update(s["seg_name"].encode())
        h.update(str(s["lineage_fingerprint"]).encode())
    return h.hexdigest()[:16]
