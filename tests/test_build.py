"""Build pipeline: planning determinism, resume-from-checkpoint, extraction
invariant, manifest commit semantics (FIXTURES.md F7)."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_7_x_9_x_ray.sources.pages import extract_text, generate_pages, wrap_html, write_pages_parquet
from lucene_7_x_9_x_ray.stages.build import (
    BuildConfig,
    build_index_local,
    build_one_segment,
    plan_partitions,
)
from lucene_7_x_9_x_ray.state.manifest import IndexManifest


@pytest.fixture(scope="module")
def pages_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pages")
    t = generate_pages(1000, seed=5, vocab_size=300, mean_tokens=40)
    return write_pages_parquet(t, str(tmp / "pages.parquet"), rows_per_row_group=100)


def test_plan_is_deterministic_and_covers_input(pages_file):
    cfg = BuildConfig(target_docs_per_segment=250)
    a = plan_partitions([pages_file], cfg)
    b = plan_partitions([pages_file], cfg)
    assert a == b
    assert sum(s["n_rows"] for s in a) == 1000
    # doc_base prefix sums consistent
    base = 0
    for s in a:
        assert s["doc_base"] == base
        base += s["n_rows"]
    # row-group ranges tile the file exactly
    md = pq.ParquetFile(pages_file).metadata
    covered = sorted((s["rg_start"], s["rg_end"]) for s in a)
    assert covered[0][0] == 0 and covered[-1][1] == md.num_row_groups
    for (s1, e1), (s2, _) in zip(covered, covered[1:]):
        assert e1 == s2


def _target_plan(input_paths, cfg):
    """The plan before build slots: each file cut greedily up to the
    target (the reference for slots=1 and for targets that already fill
    the slots)."""
    specs = []
    doc_base = 0
    seg_i = 0
    for path in sorted(input_paths):
        md = pq.ParquetFile(path).metadata
        rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        start = 0
        while start < len(rg_rows):
            rows = 0
            end = start
            while end < len(rg_rows) and (rows == 0 or rows + rg_rows[end] <= cfg.target_docs_per_segment):
                rows += rg_rows[end]
                end += 1
            specs.append({"seg_name": f"seg_{seg_i:06d}", "path": path, "rg_start": start,
                          "rg_end": end, "n_rows": rows, "doc_base": doc_base})
            doc_base += rows
            seg_i += 1
            start = end
    return specs


def _rows_file(path, rg_rows):
    """A parquet file with the given row-group sizes (footers are all the
    plan reads)."""
    t = pa.table({"text": ["x"] * sum(rg_rows)})
    with pq.ParquetWriter(path, t.schema) as w:
        start = 0
        for n in rg_rows:
            w.write_table(t.slice(start, n), row_group_size=n)
            start += n
    return path


def _assert_tiles(specs, paths):
    """Each file's ranges tile its row groups in order, doc_bases are the
    row prefix sums, and every n_rows is the footer's sum of its rows."""
    base = 0
    for s in specs:
        assert s["doc_base"] == base
        base += s["n_rows"]
    for path in paths:
        md = pq.ParquetFile(path).metadata
        mine = [s for s in specs if s["path"] == path]
        assert mine[0]["rg_start"] == 0 and mine[-1]["rg_end"] == md.num_row_groups
        for a, b in zip(mine, mine[1:]):
            assert a["rg_end"] == b["rg_start"]
        for s in mine:
            assert s["rg_end"] > s["rg_start"]
            assert s["n_rows"] == sum(md.row_group(i).num_rows
                                      for i in range(s["rg_start"], s["rg_end"]))


def test_plan_with_one_slot_or_a_filling_target_is_the_target_plan(pages_file, tmp_path):
    two = [_rows_file(str(tmp_path / "a.parquet"), [40, 40, 40]),
           _rows_file(str(tmp_path / "b.parquet"), [100, 7])]
    for paths, target in (([pages_file], 250), ([pages_file], 10**9), ([pages_file], 50),
                          (two, 80), (two, 10**9)):
        cfg = BuildConfig(target_docs_per_segment=target)
        assert plan_partitions(paths, cfg, 1) == _target_plan(paths, cfg)
        assert plan_partitions(paths, cfg) == _target_plan(paths, cfg)
    # 10 row groups of 100 at target 300: 4 partitions, enough for 4 slots
    cfg = BuildConfig(target_docs_per_segment=300)
    assert len(_target_plan([pages_file], cfg)) == 4
    assert plan_partitions([pages_file], cfg, 4) == _target_plan([pages_file], cfg)
    assert plan_partitions(two, BuildConfig(target_docs_per_segment=40), 4) == _target_plan(
        two, BuildConfig(target_docs_per_segment=40))
    # an index sort orders rows inside each segment, so even cuts would
    # move docIDs: its plan ignores the slots
    cfg = BuildConfig(target_docs_per_segment=10**9, sort_by="warc_ts")
    assert plan_partitions([pages_file], cfg, 4) == _target_plan([pages_file], cfg)
    assert len(plan_partitions([pages_file], cfg, 4)) == 1


def test_plan_fills_the_slots_with_even_cuts(pages_file, tmp_path):
    # perfbench's search set-up: 88,000 pages in row groups of 8,192 at a
    # target of 44,000 leave one of 4 slots idle with 40,960/40,960/6,080
    bench = _rows_file(str(tmp_path / "bench.parquet"), [8192] * 10 + [6080])
    cfg = BuildConfig(target_docs_per_segment=44_000)
    assert [s["n_rows"] for s in _target_plan([bench], cfg)] == [40960, 40960, 6080]
    plan = plan_partitions([bench], cfg, 4)
    assert [s["n_rows"] for s in plan] == [24576, 16384, 24576, 22464]
    assert [s["seg_name"] for s in plan] == [f"seg_{i:06d}" for i in range(4)]
    assert plan == plan_partitions([bench], cfg, 4)
    _assert_tiles(plan, [bench])

    # never more ranges than row groups
    few = _rows_file(str(tmp_path / "few.parquet"), [30, 20])
    plan = plan_partitions([few], BuildConfig(target_docs_per_segment=10**9), 8)
    assert [(s["rg_start"], s["rg_end"]) for s in plan] == [(0, 1), (1, 2)]

    # several files: each file is cut alone, into min(slots, its row
    # groups) ranges, and never shares a range with another file
    two = [_rows_file(str(tmp_path / "a.parquet"), [40, 40, 40]),
           _rows_file(str(tmp_path / "b.parquet"), [100, 7])]
    for paths, target, slots in (([pages_file], 10**9, 4), ([pages_file], 600, 3),
                                 ([pages_file], 10**9, 16), (two, 10**9, 4),
                                 (two, 10**9, 3), (two, 10**9, 5), (two, 10**9, 64)):
        cfg = BuildConfig(target_docs_per_segment=target)
        plan = plan_partitions(paths, cfg, slots)
        for p in paths:
            n_rgs = pq.ParquetFile(p).metadata.num_row_groups
            assert sum(s["path"] == p for s in plan) == min(slots, n_rgs), (p, target, slots)
            alone = plan_partitions([p], cfg, slots)
            assert [(s["rg_start"], s["rg_end"]) for s in plan if s["path"] == p] == [
                (s["rg_start"], s["rg_end"]) for s in alone]
        assert plan == plan_partitions(paths, cfg, slots)
        _assert_tiles(plan, paths)
        assert max(s["n_rows"] for s in plan) <= max(s["n_rows"] for s in _target_plan(paths, cfg))
    plan = plan_partitions(two, BuildConfig(target_docs_per_segment=10**9), 2)
    assert [(s["path"][-9:], s["n_rows"]) for s in plan] == [
        ("a.parquet", 40), ("a.parquet", 80), ("b.parquet", 100), ("b.parquet", 7)]
    plan = plan_partitions([pages_file], BuildConfig(target_docs_per_segment=10**9), 4)
    assert [s["n_rows"] for s in plan] == [200, 300, 200, 300]  # ties cut low


def test_plan_keeps_the_target_as_an_upper_bound(tmp_path):
    # the target plan gives 35/35/100 rows; even cuts into 4 would put 45
    # rows in the first range, over the target of 37, so the target plan
    # stays
    lumpy = _rows_file(str(tmp_path / "lumpy.parquet"), [3, 10, 2, 20, 10, 5, 20, 100])
    cfg = BuildConfig(target_docs_per_segment=37)
    assert [s["n_rows"] for s in _target_plan([lumpy], cfg)] == [35, 35, 100]
    assert plan_partitions([lumpy], cfg, 4) == _target_plan([lumpy], cfg)
    for target in (1, 20, 37, 50, 100, 10**9):
        cfg = BuildConfig(target_docs_per_segment=target)
        for slots in range(1, 10):
            for s in plan_partitions([lumpy], cfg, slots):
                assert s["n_rows"] <= target or s["rg_end"] - s["rg_start"] == 1


def test_extraction_byte_identity(pages_file):
    """Per-row north-rule invariant: html -> text is byte-identical."""
    t = pq.read_table(pages_file, columns=["html", "text"])
    for h, x in zip(t["html"].to_pylist()[:50], t["text"].to_pylist()[:50]):
        assert extract_text(h) == x
    # and stable: same bytes in, same bytes out
    h0 = wrap_html("sömé ünïcode 漢字", "T")
    assert extract_text(h0) == extract_text(h0) == "sömé ünïcode 漢字"


def test_build_with_verify_extract(pages_file, tmp_path):
    man = build_index_local(
        [pages_file], str(tmp_path / "idx"),
        BuildConfig(target_docs_per_segment=300, verify_extract=True),
    )
    assert man.doc_count == 1000
    assert len(man.segments) == 4


def test_resume_skips_completed_partitions(pages_file, tmp_path):
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(target_docs_per_segment=250)
    man1 = build_index_local([pages_file], idx, cfg)
    mtimes = {
        d: os.path.getmtime(os.path.join(d, "postings.bin"))
        for d in glob.glob(os.path.join(idx, "segments", "seg_*"))
    }
    man2 = build_index_local([pages_file], idx, cfg)  # re-run
    assert all(s["resumed"] for s in man2.segments)
    for d, m in mtimes.items():
        assert os.path.getmtime(os.path.join(d, "postings.bin")) == m  # untouched
    assert man1.doc_count == man2.doc_count
    assert [s["seg_name"] for s in man1.segments] == [s["seg_name"] for s in man2.segments]


def test_resume_after_partial_build_matches_clean(pages_file, tmp_path):
    """Kill-after-1-partition fixture (F7): partial + resume == clean."""
    cfg = BuildConfig(target_docs_per_segment=250)
    clean = str(tmp_path / "clean")
    partial = str(tmp_path / "partial")
    build_index_local([pages_file], clean, cfg)

    specs = plan_partitions([pages_file], cfg)
    os.makedirs(os.path.join(partial, "segments"), exist_ok=True)
    build_one_segment(specs[0], cfg, os.path.join(partial, "segments"))
    # no manifest yet: the "crash" happened before commit
    assert not os.path.exists(os.path.join(partial, "manifest.json"))
    man = build_index_local([pages_file], partial, cfg)  # resume
    assert man.segments[0]["resumed"] and not man.segments[1]["resumed"]

    for seg in ("seg_000000", "seg_000001"):
        a = open(os.path.join(clean, "segments", seg, "postings.bin"), "rb").read()
        b = open(os.path.join(partial, "segments", seg, "postings.bin"), "rb").read()
        assert a == b  # byte-identical artifacts
    mc = IndexManifest.load(clean)
    mp = IndexManifest.load(partial)
    assert mc.doc_count == mp.doc_count
    assert mc.sum_total_term_freq == mp.sum_total_term_freq


def test_stale_checkpoint_is_rebuilt(pages_file, tmp_path):
    """A segment whose lineage doesn't match its spec is NOT reused."""
    cfg = BuildConfig(target_docs_per_segment=250)
    idx = str(tmp_path / "idx")
    build_index_local([pages_file], idx, cfg)
    # tamper: change the recorded lineage of segment 1
    stats_path = os.path.join(idx, "segments", "seg_000001", "stats.json")
    st = json.load(open(stats_path))
    st["lineage_rg_start"] = 999
    json.dump(st, open(stats_path, "w"))
    specs = plan_partitions([pages_file], cfg)
    out = build_one_segment(specs[1], cfg, os.path.join(idx, "segments"))
    # the tampered dir already exists, so the rebuild keeps the committed
    # winner (concurrent-writer rule) — but it must NOT report resumed
    assert not out.resumed


def test_manifest_lists_segments_in_doc_base_order(pages_file, tmp_path):
    man = build_index_local(
        [pages_file], str(tmp_path / "idx"), BuildConfig(target_docs_per_segment=300)
    )
    bases = [s["doc_base"] for s in man.segments]
    assert bases == sorted(bases)
    assert man.sum_total_term_freq == sum(s["sum_total_term_freq"] for s in man.segments)


def test_ray_build_matches_local(pages_file, tmp_path, ray_session):
    """The distributed build produces byte-identical artifacts to the
    single-process build (determinism under Ray scheduling)."""
    from lucene_7_x_9_x_ray.stages.build import build_index

    cfg = BuildConfig(target_docs_per_segment=250)
    local = str(tmp_path / "local")
    dist = str(tmp_path / "dist")
    build_index_local([pages_file], local, cfg)
    man = build_index([pages_file], dist, cfg)
    assert man.doc_count == 1000
    for seg in [s["seg_name"] for s in man.segments]:
        a = open(os.path.join(local, "segments", seg, "postings.bin"), "rb").read()
        b = open(os.path.join(dist, "segments", seg, "postings.bin"), "rb").read()
        assert a == b
        sa = json.load(open(os.path.join(local, "segments", seg, "stats.json")))
        sb = json.load(open(os.path.join(dist, "segments", seg, "stats.json")))
        assert sa["lineage_fingerprint"] == sb["lineage_fingerprint"]


def test_incremental_append_preserves_docids(ray_session, tmp_path):
    """Appending a later-sorting input file resumes existing segments
    unchanged (lineage docIDs stable) and indexes only the new file —
    the NRT/incremental-build analogue of segments_N append."""
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest

    p1 = str(tmp_path / "pages_000.parquet")
    p2 = str(tmp_path / "pages_001.parquet")
    write_pages_parquet(generate_pages(200, seed=1, vocab_size=50, mean_tokens=20), p1,
                        rows_per_row_group=100)
    write_pages_parquet(generate_pages(150, seed=2, vocab_size=50, mean_tokens=20), p2,
                        rows_per_row_group=100)

    idx = str(tmp_path / "idx")
    cfg = BuildConfig(target_docs_per_segment=100)
    m1 = build_index([p1], idx, cfg)
    assert m1.doc_count == 200
    m2 = build_index([p1, p2], idx, cfg)
    assert m2.doc_count == 350
    resumed = [s for s in m2.segments if s.get("resumed")]
    fresh = [s for s in m2.segments if not s.get("resumed")]
    assert len(resumed) == 2 and len(fresh) == 2  # p1's segments untouched
    bases = [s["doc_base"] for s in sorted(m2.segments, key=lambda s: s["doc_base"])]
    assert bases == [0, 100, 200, 300]


def test_ray_build_fills_the_slots_and_matches_local(tmp_path, ray_session):
    """A target above the input's rows leaves Ray build slots idle, so the
    Ray build cuts one even segment per slot (4 CPUs in ray_session); the
    one-segment local build answers every query identically, and both
    merge to byte-identical merged/ files (merged.json differs only in the
    segment-set fingerprint)."""
    import numpy as np

    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import MergedIndexSearcher, open_searcher
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.stages.build import build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index

    path = write_pages_parquet(generate_pages(800, seed=7, vocab_size=200, mean_tokens=25),
                               str(tmp_path / "pages.parquet"), rows_per_row_group=100)
    cfg = BuildConfig(target_docs_per_segment=10**6)
    dist, local = str(tmp_path / "dist"), str(tmp_path / "local")
    man = build_index([path], dist, cfg)
    assert [s["doc_count"] for s in man.segments] == [200] * 4
    assert len(build_index_local([path], local, cfg).segments) == 1

    probes = [
        Q.TermQuery("t00000"),
        Q.TermQuery("t00150"),
        Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery("t00002")),
                              (Q.SHOULD, Q.TermQuery("t00030"))]),
        Q.BooleanQuery.build([(Q.MUST, Q.TermQuery("t00001")),
                              (Q.MUST, Q.TermQuery("t00004"))]),
        Q.PhraseQuery(terms=("t00000", "t00001")),
    ]

    def same_results(a, b):
        for q in probes:
            ta = a.search(q, k=50, total_hits_threshold=1 << 30)
            tb = b.search(q, k=50, total_hits_threshold=1 << 30)
            assert len(ta.doc_ids) > 0, q
            assert list(ta.doc_ids) == list(tb.doc_ids), q
            assert np.array_equal(ta.scores, tb.scores), q

    same_results(IndexSearcher(dist), IndexSearcher(local))
    # no salted hot terms: a hot term's buckets are runs of segments, so
    # that part of the merged layout follows the segment count
    mcfg = MergeConfig(n_shards=4)
    merge_index(dist, mcfg)
    merge_index(local, mcfg)
    sd, sl = open_searcher(dist), open_searcher(local)
    assert isinstance(sd, MergedIndexSearcher) and isinstance(sl, MergedIndexSearcher)
    same_results(sd, sl)

    def merged_files(idx):
        root = os.path.join(idx, "merged")
        return {
            os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
            for d, _, fs in os.walk(root) for f in fs if not f.endswith(".json")
        }

    a, b = merged_files(dist), merged_files(local)
    assert a and a.keys() == b.keys()
    assert [k for k in a if a[k] != b[k]] == []

    again = build_index([path], dist, cfg)
    assert len(again.segments) == 4 and all(s["resumed"] for s in again.segments)


def test_incremental_build_resumes_an_even_cut_file(ray_session, tmp_path):
    """A file that the Ray build cut one range per slot keeps its cuts,
    and so its segments, when a later build adds another file; an append
    plans for one slot, so it adds one segment under a target above its
    rows."""
    from lucene_7_x_9_x_ray.stages.build import append_index, build_index

    p1, p2, p3 = (str(tmp_path / f"pages_{i:03d}.parquet") for i in range(3))
    for path, n, seed in ((p1, 400, 1), (p2, 200, 2), (p3, 300, 3)):
        write_pages_parquet(generate_pages(n, seed=seed, vocab_size=50, mean_tokens=20), path,
                            rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(target_docs_per_segment=10**6)
    m1 = build_index([p1], idx, cfg)
    assert [s["doc_count"] for s in m1.segments] == [100] * 4  # 4 slots in ray_session
    m2 = build_index([p1, p2], idx, cfg)
    segs = sorted(m2.segments, key=lambda s: s["doc_base"])
    assert [s["doc_count"] for s in segs] == [100] * 6
    assert [bool(s.get("resumed")) for s in segs] == [True] * 4 + [False] * 2
    assert [s["seg_name"] for s in segs[:4]] == [s["seg_name"] for s in m1.segments]

    m3 = append_index([p3], idx, cfg)
    assert len(m3.segments) == 7 and m3.segments[-1]["doc_count"] == 300
    assert m3.doc_count == 900


def test_arrow_and_list_texts_write_identical_files(tmp_path, monkeypatch):
    """build_one_segment hands write_segment the Arrow text, url and lang
    columns; the segment and merged files are byte-identical to those of a
    build that passes lists (non-ASCII, null and long-run documents, and
    null urls, included)."""
    from lucene_7_x_9_x_ray.stages import build as build_mod
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index_local

    t = generate_pages(600, seed=9, vocab_size=150, mean_tokens=20)
    texts = t["text"].to_pylist()
    for i in range(0, 600, 7):
        texts[i] = ["Café naïve O'Neil's", None, "x" * 300 + ".y 3.14 1,000", ""][i % 4]
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts))
    urls = t["url"].to_pylist()
    urls[3::11] = [None] * len(urls[3::11])
    t = t.set_column(t.schema.get_field_index("url"), "url", pa.array(urls, pa.string()))
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path, row_group_size=100)
    write_segment = build_mod.write_segment
    passed = []

    def as_list(*args, texts, urls, langs, **kwargs):
        passed.append((type(texts), type(urls), type(langs)))
        return write_segment(*args, texts=texts.to_pylist(), urls=urls.to_pylist(),
                             langs=langs.to_pylist(), **kwargs)

    trees = {}
    for name in ("arrow", "list"):
        if name == "list":
            monkeypatch.setattr(build_mod, "write_segment", as_list)
        idx = str(tmp_path / name)
        build_index_local([path], idx, BuildConfig(target_docs_per_segment=200))
        merge_index_local(idx, MergeConfig(n_shards=3, hot_df_threshold=300))
        trees[name] = {}
        for f in sorted(glob.glob(os.path.join(idx, "**", "*"), recursive=True)):
            rel = os.path.relpath(f, idx)
            if not os.path.isfile(f) or rel == "manifest.json":
                continue
            data = open(f, "rb").read()
            if rel.endswith(".json"):  # the build's own timing differs run to run
                data = {k: v for k, v in json.loads(data).items() if k != "elapsed_sec"}
            trees[name][rel] = data
    assert passed and all(p is pa.ChunkedArray for ps in passed for p in ps)
    assert any(k.startswith("segments") for k in trees["arrow"])
    assert any(k.startswith("merged") for k in trees["arrow"])
    assert trees["arrow"] == trees["list"]


@pytest.mark.parametrize("drop", [(), ("url", "lang")])
def test_lineage_fingerprint_is_the_per_url_hash(tmp_path, drop):
    """Each segment's lineage fingerprint is sha256 over str(url) per doc
    (null urls as "None"; "row:<docID>" when the input has no url column)
    and then the doc lengths, as the docmap records them."""
    import hashlib

    t = generate_pages(500, seed=3, vocab_size=100, mean_tokens=15)
    urls = t["url"].to_pylist()
    urls[::9] = [None] * len(urls[::9])
    t = t.set_column(t.schema.get_field_index("url"), "url", pa.array(urls, pa.string()))
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t.drop_columns(list(drop)), path, row_group_size=100)
    idx = str(tmp_path / "idx")
    man = build_index_local([path], idx, BuildConfig(target_docs_per_segment=200))
    assert len(man.segments) > 1
    for seg in man.segments:
        dm = pq.read_table(os.path.join(idx, "segments", seg["seg_name"], "docmap.parquet"))
        want = (dm["url"].to_pylist() if not drop
                else [f"row:{seg['doc_base'] + i}" for i in range(seg["doc_count"])])
        if not drop:
            assert want == urls[seg["doc_base"] : seg["doc_base"] + seg["doc_count"]]
        h = hashlib.sha256()
        for u in want:
            h.update(str(u).encode())
        h.update(dm["length"].to_numpy().tobytes())
        assert seg["lineage_fingerprint"] == h.hexdigest()


def test_index_digest_masks_run_values_and_finds_changed_bytes(pages_file, tmp_path):
    """tools/index_digest.py: two builds + merges of one input in different
    places at different times digest equal file by file (wall times, input
    paths and resume fingerprints masked); one changed byte of a segment
    file, or a missing file, is reported."""
    import importlib.util
    import shutil

    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index_local

    spec = importlib.util.spec_from_file_location(
        "index_digest",
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "index_digest.py"),
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    idx = {}
    for name in ("a", "b"):
        src = str(tmp_path / f"{name}.parquet")
        shutil.copy(pages_file, src)
        idx[name] = str(tmp_path / name)
        build_index_local([src], idx[name], BuildConfig(target_docs_per_segment=400))
        merge_index_local(idx[name], MergeConfig(n_shards=3))
    a, b = tool.index_digest(idx["a"]), tool.index_digest(idx["b"])
    assert a == b and any(k.startswith("merged") for k in a)
    assert tool.main([idx["a"], idx["b"]]) == 0
    post = os.path.join(idx["b"], "segments", "seg_000000", "postings.bin")
    with open(post, "r+b") as f:
        f.seek(os.path.getsize(post) // 2)
        byte = f.read(1)[0]
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte ^ 1]))
    os.remove(os.path.join(idx["b"], "merged", "merged.json"))
    changed = {k for k in a if tool.index_digest(idx["b"]).get(k) != a[k]}
    assert changed == {os.path.join("segments", "seg_000000", "postings.bin"),
                       os.path.join("merged", "merged.json")}
    assert tool.main([idx["a"], idx["b"]]) == 1
