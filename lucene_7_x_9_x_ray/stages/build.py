"""Ray Data index-build stage: partition plan -> per-partition segments.

Topology (SURVEY.md §7.2 stages 1-4):

  plan_partitions (driver, parquet FOOTERS only — no data read)
    -> fanout.fan_out(build_one_segment, specs): ray.data.from_items, one
       block per spec, map_batches(batch_size=1)  # the DWPT-flush equivalent
    -> tiny stats rows back to the driver as plain dicts
    -> IndexManifest written last (the segments_N commit)

  fan_out tells Ray Data each task's output is small, so every spec's
  task starts in the first wave instead of one per 256 MiB of object
  store (see stages/fanout.py).

Design points for 100 TB scale:
- Partitioning is by parquet row-group ranges with doc_base prefix-sums
  computed from footers, so global docIDs derive from (file, row) lineage —
  deterministic under any task scheduling (SURVEY.md §7.5).
- The partitions fill the build slots, as Lucene flushes one segment per
  indexing thread (DocumentsWriterPerThreadPool.java:182):
  target_docs_per_segment caps a segment's size, and when that plan cuts
  a file into fewer ranges than the cluster has build slots (CPUs over
  cpus_per_task, capped by ``concurrency``), build_index re-cuts the
  file's row groups into one even range per slot. Each file is planned
  alone, so adding input files keeps the earlier files' segments. The
  segment layout depends on the slot count (build_index_local and
  append_index plan for one slot, and an index sort keeps the target
  plan); the docIDs do not.
- Each task reads ONLY its row groups with column pruning (url/warc_ts/
  text/lang; html never leaves the task unless extraction is verified).
- Resume: a task whose segment dir already holds a matching stats.json
  returns it without re-reading input (north-rule checkpoint semantics).
- No shuffle anywhere in the build: term aggregation happens inside each
  task (the per-thread DWPT hash, DocumentsWriterPerThreadPool.java:182
  analogue); the only wide op in the system is the optional merge stage.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.analysis import get_analyzer
from ..sources.pages import extract_text
from ..state.manifest import IndexManifest, SegmentStats, segment_is_complete
from ..state.segment import write_segment
from .fanout import cluster_cpus, fan_out


@dataclass(frozen=True)
class FieldSpec:
    """One additional indexed field: FieldType-style per-field config
    (s84 document/FieldType.java:32,141 — indexed flags per field).

    ``name`` is the query-time field name; ``col`` the source parquet
    column holding its text (analyzed with the index's analyzer)."""

    name: str
    col: str
    index_positions: bool = False


@dataclass
class BuildConfig:
    analyzer: str = "standard"
    text_col: str = "text"
    url_col: str = "url"
    ts_col: str = "warc_ts"
    lang_col: str = "lang"
    html_col: str = "html"
    # derive text from html and check byte-identity vs the text column
    # (per-row north-rule invariant); off by default for throughput
    verify_extract: bool = False
    # IndexOptions: positions on by default, as for Lucene text fields
    # (DOCS_AND_FREQS_AND_POSITIONS, index/IndexOptions.java:26-56)
    index_positions: bool = True
    # IndexOptions.DOCS role (index/IndexOptions.java:34, demo
    # LuceneDemo/.../IndexOptionTest.java): index_freqs=False stores every
    # freq as 1, so freq() returns 1, totalTermFreq == docFreq, and the
    # field's sumTotalTermFreq (hence avgdl) degrades to the sum of
    # per-doc distinct-term counts — exactly the stats Lucene serves for a
    # DOCS-only field. All-1 freq blocks hit the dense width-0 marker, so
    # the on-disk freq stream costs ~1 byte/block. Requires
    # index_positions=False (positions imply freqs).
    index_freqs: bool = True
    # upper bound on a segment's docs (a lone larger row group stays
    # whole); build_index cuts a file that the bound leaves in fewer
    # ranges than build slots into smaller, even ones (plan_partitions)
    target_docs_per_segment: int = 100_000
    chunk_rows: int = 8192
    # Ray cpu slots reserved per build task. 1 is right on real clusters;
    # raise to 2-4 on hosts where concurrent heavy tasks contend for memory
    # bandwidth (measured 3x on this sandbox for 400-token docs — see
    # BASELINE.md), trading slot count for per-task headroom.
    cpus_per_task: int = 1
    # index sort (IndexSortTest / 段内排序IndexSort, SURVEY.md §2.6): rows of
    # each partition are sorted by this column (ascending, stable) before
    # docIDs are assigned, so sorted-field top-N queries early-terminate by
    # reading only each segment's docmap head (search/sortedfield.py).
    sort_by: str | None = None
    # additional indexed fields beyond text_col (the multi-field schema —
    # FieldInfos accretes per-field postings/norms/stats in the reference)
    extra_fields: tuple = ()
    # per-doc term vectors for the primary field (.tvx/.tvd analogue;
    # enables term_vector(doc) / MLT-by-docID without stored text)
    term_vectors: bool = False
    # extra source columns copied into docmap verbatim — user-defined
    # stored fields / doc values (queryable via doc_values(col), e.g.
    # NumericRangeQuery or GeoDistanceQuery over lat/lon columns)
    store_cols: tuple = ()
    # postings-format SPI name (codec SPI, s84 codecs/Codec.java:43):
    # "for" = plain FOR blocks (the default), "pfor" = patched FOR with
    # ≤7 exceptions/block (codecs/lucene84/PForUtil.java:33). Recorded in
    # the manifest; merge/compaction re-encode at the index's format.
    postings_format: str = "for"
    # DelimitedPayloadTokenFilter + FloatEncoder role (s84 analysis/common/
    # .../payloads/DelimitedPayloadTokenFilter.java): when set, primary-field
    # tokens of the form "term<delim><float>" index as "term" with a float32
    # payload at that position (the .pay stream); tokens without the
    # delimiter get no payload. Requires index_positions. Pick an analyzer
    # whose tokenizer does not split on the delimiter (e.g. "whitespace").
    payload_delimiter: str | None = None


def plan_partitions(
    input_paths: list[str], cfg: BuildConfig, slots: int = 1
) -> list[dict]:
    """Driver-side partition plan from parquet footers (no data IO).

    Splits each file into contiguous row-group ranges of at most
    ``target_docs_per_segment`` docs (a single larger row group stays
    whole). When that greedy cut gives a file fewer than ``min(slots,
    its row groups)`` ranges, the file's row groups are re-cut into that
    many ranges of about equal rows instead (see _even_ranges), as long as
    every range still fits the target. A range never splits a row group or
    spans a file, and a file's ranges depend only on that file, the target
    and ``slots`` (so many files below ``slots`` x target get up to
    ``slots`` segments each). The plan order (sorted file path, then row-group start)
    fixes doc_base prefix sums and segment names deterministically. An
    index sort (``sort_by``) orders rows inside each segment, so its plan
    ignores ``slots``: the segment layout may depend on ``slots``, the
    docIDs never do.
    """
    if cfg.sort_by:
        slots = 1
    specs: list[dict] = []
    doc_base = 0
    for path in sorted(input_paths):
        md = pq.ParquetFile(path).metadata
        rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        for start, end in _file_ranges(rg_rows, cfg.target_docs_per_segment, slots):
            rows = sum(rg_rows[start:end])
            specs.append(
                {
                    "seg_name": f"seg_{len(specs):06d}",
                    "path": path,
                    "rg_start": start,
                    "rg_end": end,
                    "n_rows": rows,
                    "doc_base": doc_base,
                }
            )
            doc_base += rows
    return specs


def _file_ranges(rg_rows: list[int], target: int, slots: int) -> list[tuple[int, int]]:
    """One file's [start, end) row-group ranges: the greedy target cut, or
    ``min(slots, row groups)`` even ranges when the greedy cut has fewer
    and every even range of more than one row group fits the target."""
    ranges = _greedy_ranges(rg_rows, target)
    k = min(slots, len(rg_rows))
    if len(ranges) < k:
        even = _even_ranges(rg_rows, k)
        if all(end - start == 1 or sum(rg_rows[start:end]) <= target for start, end in even):
            return even
    return ranges


def _greedy_ranges(rg_rows: list[int], target: int) -> list[tuple[int, int]]:
    """[start, end) row-group ranges of one file, each filled up to
    ``target`` rows (a lone row group above the target is its own range)."""
    ranges = []
    start = 0
    while start < len(rg_rows):
        rows = 0
        end = start
        while end < len(rg_rows) and (rows == 0 or rows + rg_rows[end] <= target):
            rows += rg_rows[end]
            end += 1
        ranges.append((start, end))
        start = end
    return ranges


def _even_ranges(rg_rows: list[int], k: int) -> list[tuple[int, int]]:
    """``k`` contiguous, non-empty row-group ranges of one file: the i-th
    cut is the row-group boundary whose row prefix sum is nearest i/k of
    the file's rows, kept after the previous cut and before enough row
    groups for the cuts still to come."""
    prefix = np.concatenate([[0], np.cumsum(rg_rows)])
    n = len(rg_rows)
    cuts = [0]
    for i in range(1, k):
        share = prefix[-1] * i / k
        j = int(np.searchsorted(prefix, share))
        lo, hi = cuts[-1] + 1, n - (k - i)
        below, above = min(max(j - 1, lo), hi), min(max(j, lo), hi)
        cuts.append(below if abs(share - prefix[below]) <= abs(prefix[above] - share) else above)
    cuts.append(n)
    return list(zip(cuts, cuts[1:]))


def _index_options(cfg: BuildConfig) -> str:
    """Manifest IndexOptions string for the primary field."""
    if not cfg.index_freqs:
        return "docs"
    return "positions" if cfg.index_positions else "docs_freqs"


def resolve_index_options(manifest: IndexManifest) -> str:
    """The index's IndexOptions, inferring legacy manifests (no recorded
    index_options) from segment artifacts: a positions.bin means
    "positions", else "docs_freqs" (legacy builds predate the DOCS
    option, so freqs were always real)."""
    if manifest.index_options:
        return manifest.index_options
    for s in manifest.segments:
        seg_dir = os.path.join(manifest.index_dir, "segments", s["seg_name"])
        return (
            "positions"
            if os.path.exists(os.path.join(seg_dir, "positions.bin"))
            else "docs_freqs"
        )
    return "positions"


def build_one_segment(spec: dict, cfg: BuildConfig, segments_dir: str) -> SegmentStats:
    """Build (or resume) the segment for one partition spec."""
    seg_dir = os.path.join(segments_dir, spec["seg_name"])
    done = segment_is_complete(seg_dir, expect=spec)
    if done is not None:
        done.resumed = True
        return done

    t0 = time.perf_counter()
    pf = pq.ParquetFile(spec["path"])
    schema_names = set(pf.schema_arrow.names)
    cols = [c for c in (cfg.url_col, cfg.ts_col, cfg.text_col, cfg.lang_col) if c in schema_names]
    if cfg.verify_extract and cfg.html_col in schema_names:
        cols.append(cfg.html_col)
    if cfg.sort_by and cfg.sort_by not in cols:
        cols.append(cfg.sort_by)
    for fs in cfg.extra_fields:
        if fs.col not in schema_names:
            raise ValueError(f"extra field {fs.name!r}: column {fs.col!r} not in input")
        if fs.col not in cols:
            cols.append(fs.col)
    for sc in cfg.store_cols:
        if sc not in schema_names:
            raise ValueError(f"store_cols: column {sc!r} not in input")
        if sc not in cols:
            cols.append(sc)
    table = pf.read_row_groups(
        list(range(spec["rg_start"], spec["rg_end"])), columns=cols, use_threads=False
    )  # 1-cpu task: arrow's own pool would oversubscribe the node
    if cfg.sort_by:
        # deterministic index sort: stable by the sort column, original row
        # order breaking ties — docIDs remain a pure function of the input
        # (plan_partitions keeps the target plan under an index sort)
        import pyarrow.compute as pc

        idx = pc.sort_indices(table, sort_keys=[(cfg.sort_by, "ascending")])
        table = table.take(idx)

    texts = table[cfg.text_col].to_pylist()
    if cfg.verify_extract and cfg.html_col in table.column_names:
        htmls = table[cfg.html_col].to_pylist()
        for i, (h, t) in enumerate(zip(htmls, texts)):
            ext = extract_text(h)
            if ext != t:
                raise ValueError(
                    f"html->text extraction not byte-identical at row {i} of "
                    f"{spec['path']} rg[{spec['rg_start']}:{spec['rg_end']}]"
                )
    n = len(texts)
    urls = (
        table[cfg.url_col].to_pylist()
        if cfg.url_col in table.column_names
        else [f"row:{spec['doc_base'] + i}" for i in range(n)]
    )
    ts = (
        table[cfg.ts_col]
        if cfg.ts_col in table.column_names
        else pa.array(np.zeros(n, dtype=np.int64), type=pa.timestamp("us"))
    )
    langs = (
        table[cfg.lang_col].to_pylist() if cfg.lang_col in table.column_names else [""] * n
    )

    analyzer = get_analyzer(cfg.analyzer)
    extra = {
        fs.name: (table[fs.col].to_pylist(), fs.index_positions)
        for fs in cfg.extra_fields
    }
    stats = write_segment(
        out_dir=seg_dir,
        seg_name=spec["seg_name"],
        texts=texts,
        urls=urls,
        warc_ts=ts,
        langs=langs,
        analyzer=analyzer,
        doc_base=spec["doc_base"],
        lineage_file=spec["path"],
        rg_start=spec["rg_start"],
        rg_end=spec["rg_end"],
        elapsed_sec=time.perf_counter() - t0,
        index_positions=cfg.index_positions,
        index_freqs=cfg.index_freqs,
        extra_fields=extra or None,
        term_vectors=cfg.term_vectors,
        extra_docmap={c: table[c] for c in cfg.store_cols} or None,
        postings_format=cfg.postings_format,
        payload_delimiter=cfg.payload_delimiter,
    )
    return stats



def _aggregate_field_stats(stats_rows: list[dict]) -> dict:
    """Cross-segment per-field stats for the manifest (idf/avgdl inputs)."""
    agg: dict[str, dict] = {}
    for r in stats_rows:
        for fname, fs in (r.get("field_stats") or {}).items():
            a = agg.setdefault(fname, {"sum_total_term_freq": 0, "doc_count": 0})
            a["sum_total_term_freq"] += int(fs["sum_total_term_freq"])
            a["doc_count"] += int(fs["doc_count"])
    return agg


def build_index(
    input_paths: list[str],
    index_dir: str,
    cfg: BuildConfig | None = None,
    concurrency: int | None = None,
) -> IndexManifest:
    """Distributed index build: specs Dataset -> segment tasks -> manifest.

    Ray must already be initialised by the caller (driver contract).
    """
    return _build(input_paths, index_dir, cfg or BuildConfig(), concurrency, use_ray=True)


def build_index_local(
    input_paths: list[str], index_dir: str, cfg: BuildConfig | None = None
) -> IndexManifest:
    """build_index in this process, no Ray session (tests / tiny corpora):
    the same plan and artifacts."""
    return _build(input_paths, index_dir, cfg or BuildConfig(), None, use_ray=False)


def _build(input_paths: list[str], index_dir: str, cfg: BuildConfig,
           concurrency: int | None, use_ray: bool) -> IndexManifest:
    """Plan the partitions, build their segments, commit the manifest."""
    segments_dir = os.path.join(index_dir, "segments")
    os.makedirs(segments_dir, exist_ok=True)
    # in-process builds run one segment at a time: the target plan as is
    slots = _build_slots(cfg, concurrency) if use_ray else 1
    specs = plan_partitions(input_paths, cfg, slots)
    if not specs:
        raise ValueError(f"no input rows found in {input_paths}")

    stats_rows = _run_specs(specs, cfg, segments_dir, concurrency, use_ray)

    manifest = IndexManifest(
        index_dir=index_dir,
        analyzer=cfg.analyzer,
        field=cfg.text_col,
        doc_count=sum(r["doc_count"] for r in stats_rows),
        sum_total_term_freq=sum(r["sum_total_term_freq"] for r in stats_rows),
        segments=stats_rows,
        sort_by=cfg.sort_by or "",
        field_stats=_aggregate_field_stats(stats_rows),
        postings_format=cfg.postings_format,
        payload_delimiter=cfg.payload_delimiter or "",
        index_options=_index_options(cfg),
    )
    manifest.save()
    return manifest


def _build_slots(cfg: BuildConfig, concurrency: int | None) -> int:
    """Build tasks the Ray cluster runs at once: its CPUs over
    cpus_per_task, capped by ``concurrency`` when given."""
    slots = max(1, cluster_cpus() // cfg.cpus_per_task)
    return slots if concurrency is None else min(slots, concurrency)


def _run_specs(
    specs: list[dict], cfg: BuildConfig, segments_dir: str, concurrency: int | None,
    use_ray: bool = True,
) -> list[dict]:
    """Run the partition specs as a Ray Data stage (or in this process);
    returns stats rows sorted by doc_base. Shared by the builds and
    append_index."""
    kwargs = {}
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    if cfg.cpus_per_task != 1:
        kwargs["num_cpus"] = cfg.cpus_per_task
    stats_rows = fan_out(
        lambda spec: build_one_segment(spec, cfg, segments_dir).to_dict(), specs,
        use_ray=use_ray, **kwargs,
    )
    stats_rows.sort(key=lambda r: r["doc_base"])
    return stats_rows


def append_index(
    input_paths: list[str],
    index_dir: str,
    cfg: BuildConfig | None = None,
    concurrency: int | None = None,
) -> IndexManifest:
    """NRT append: build NEW segments from ``input_paths`` behind the
    committed docID space and atomically publish the next manifest
    generation (the segments_N analogue — only the manifest rename makes
    the appended docs visible; a crash mid-append leaves the old
    generation intact and the orphan segment dirs are resumed/reused on
    retry). Readers pick the new generation up via
    search.merged.open_if_changed (DirectoryReader.openIfChanged role,
    s84 index/DirectoryReader.java:154; blog NRT article).

    Appended docs get global docIDs starting at the old doc_count;
    existing segments and their statistics are untouched. Global BM25
    stats (doc_count, sum_total_term_freq, per-field aggregates) are
    re-aggregated over the full segment list, so post-append scores equal
    a from-scratch build of the union (the bm25_topk_after_append gate).
    """
    cfg = cfg or BuildConfig()
    manifest = IndexManifest.load(index_dir)
    if manifest.analyzer != cfg.analyzer or manifest.field != cfg.text_col:
        raise ValueError(
            f"append config mismatch: index is analyzer={manifest.analyzer!r} "
            f"field={manifest.field!r}, append wants {cfg.analyzer!r}/{cfg.text_col!r}"
        )
    if (manifest.sort_by or "") != (cfg.sort_by or ""):
        raise ValueError("append config mismatch: index sort differs")
    if resolve_index_options(manifest) != _index_options(cfg):
        raise ValueError(
            f"append config mismatch: index has index_options="
            f"{resolve_index_options(manifest)!r}, append wants "
            f"{_index_options(cfg)!r}"
        )
    if (manifest.payload_delimiter or "") != (cfg.payload_delimiter or ""):
        raise ValueError(
            "append config mismatch: index payload_delimiter="
            f"{manifest.payload_delimiter!r}, append wants {cfg.payload_delimiter!r}"
        )
    want_fields = {f.name for f in cfg.extra_fields}
    for s in manifest.segments:
        have = set((s.get("field_stats") or {}).keys())
        if have != want_fields:
            raise ValueError(
                f"append config mismatch: segment {s['seg_name']} has fields "
                f"{sorted(have)}, append wants {sorted(want_fields)} "
                "(heterogeneous field sets would poison the merge)"
            )

    segments_dir = os.path.join(index_dir, "segments")
    # appends plan for one slot: every extra cut is one more segment for
    # searches and compactions to visit until the next merge
    specs = plan_partitions(input_paths, cfg)
    if not specs:
        raise ValueError(f"no input rows found in {input_paths}")
    for sp in specs:
        sp["seg_name"] = manifest.new_segment_name()
        sp["doc_base"] += manifest.doc_count

    new_rows = _run_specs(specs, cfg, segments_dir, concurrency)
    manifest.segments = manifest.segments + new_rows
    manifest.doc_count += sum(r["doc_count"] for r in new_rows)
    manifest.sum_total_term_freq += sum(r["sum_total_term_freq"] for r in new_rows)
    manifest.field_stats = _aggregate_field_stats(manifest.segments)
    manifest.version += 1  # the generation bump readers poll for
    manifest.save()
    return manifest


def add_indexes(dst_dir: str, src_dirs: list[str]) -> IndexManifest:
    """IndexWriter.addIndexes(Directory...) analogue (s84 core
    index/IndexWriter.java:2917): graft every segment of the source
    indexes into the destination's docID space WITHOUT re-indexing —
    segment files are docID-local (postings/norms/docmap/terms all use
    segment-local ids; only stats.json carries doc_base), so a copy +
    doc_base rebase is the whole move, exactly the reference's
    file-copy-plus-SegmentInfo-rename fast path. Source tombstones are
    rebased into the destination's live-docs generation. Configs must be
    compatible (same analyzer/field/sort/index-options/payload/field set
    — the reference likewise refuses incompatible FieldInfos); mixed
    postings FORMATS are fine, regions self-describe via fmt_id.

    Atomicity matches append_index: segment dirs copy first, the manifest
    rename publishes; a crash mid-copy leaves the old generation serving
    and orphan dirs that a retry overwrites."""
    import shutil

    from ..state.livedocs import delete_docs, load_tombstones
    from ..state.manifest import STATS_NAME, SegmentStats, atomic_write_json, load_json

    manifest = IndexManifest.load(dst_dir)
    want_fields = {
        k for s in manifest.segments for k in (s.get("field_stats") or {})
    }
    new_rows: list[dict] = []
    new_tombs: list[int] = []
    doc_base = manifest.doc_count
    for src_dir in src_dirs:
        src = IndexManifest.load(src_dir)
        for attr in ("analyzer", "field", "payload_delimiter"):
            if getattr(src, attr) != getattr(manifest, attr):
                raise ValueError(
                    f"addIndexes config mismatch: {attr} is "
                    f"{getattr(manifest, attr)!r} here, {getattr(src, attr)!r} "
                    f"in {src_dir}"
                )
        if (src.sort_by or "") != (manifest.sort_by or ""):
            raise ValueError("addIndexes config mismatch: index sort differs")
        if resolve_index_options(src) != resolve_index_options(manifest):
            raise ValueError("addIndexes config mismatch: index_options differ")
        src_tombs = load_tombstones(src_dir, manifest=src)
        for s in src.segments:
            have = set((s.get("field_stats") or {}).keys())
            if have != want_fields:
                raise ValueError(
                    f"addIndexes config mismatch: segment {s['seg_name']} has "
                    f"fields {sorted(have)}, destination has {sorted(want_fields)}"
                )
            new_name = manifest.new_segment_name()
            src_seg = os.path.join(src_dir, "segments", s["seg_name"])
            dst_seg = os.path.join(dst_dir, "segments", new_name)
            if os.path.exists(dst_seg):  # orphan from a crashed attempt
                shutil.rmtree(dst_seg)
            shutil.copytree(src_seg, dst_seg, copy_function=os.link)
            stats = SegmentStats.from_dict(load_json(os.path.join(dst_seg, STATS_NAME)))
            old_base = stats.doc_base
            stats.seg_name = new_name
            stats.doc_base = doc_base
            atomic_write_json(os.path.join(dst_seg, STATS_NAME), stats.to_dict())
            # rebase this segment's deletes into the destination space
            lo, hi = old_base, old_base + stats.doc_count
            seg_t = src_tombs[(src_tombs >= lo) & (src_tombs < hi)]
            new_tombs.extend(int(t - old_base + doc_base) for t in seg_t)
            doc_base += stats.doc_count
            new_rows.append(stats.to_dict())
    # tombstones land BEFORE the manifest publish: ids beyond the old
    # doc_count are inert until the new generation appears, so a crash
    # in between leaves the old commit fully intact (never a new commit
    # missing its deletes)
    if new_tombs:
        delete_docs(dst_dir, new_tombs)
    manifest.segments = manifest.segments + new_rows
    manifest.doc_count = doc_base
    manifest.sum_total_term_freq += sum(r["sum_total_term_freq"] for r in new_rows)
    manifest.field_stats = _aggregate_field_stats(manifest.segments)
    manifest.version += 1
    manifest.save()
    return manifest
