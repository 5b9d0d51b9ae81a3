"""NRT append + reopen semantics (round-2 VERDICT item #4).

The reference's most common post-build operation: append new documents as
new segments, commit a new manifest generation, reopen readers cheaply
(DirectoryReader.openIfChanged, s84 index/DirectoryReader.java:154; blog
NRT article), and keep serving — results must equal a from-scratch build
of the union, and compaction must compose with appended generations.
"""

from __future__ import annotations

import numpy as np

from lucene_7_x_9_x_ray.search import queries as Q
from lucene_7_x_9_x_ray.search.merged import (
    MergedIndexSearcher,
    open_if_changed,
    open_searcher,
)
from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
from lucene_7_x_9_x_ray.stages.build import BuildConfig, append_index, build_index
from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index
from lucene_7_x_9_x_ray.state.checkindex import check_index

PROBES = [
    Q.TermQuery("t00000"),
    Q.BooleanQuery.build(
        [(Q.SHOULD, Q.TermQuery("t00002")), (Q.SHOULD, Q.TermQuery("t00030"))]
    ),
    Q.PhraseQuery(terms=("t00000", "t00001")),
]


def _two_files(tmp_path):
    p1 = str(tmp_path / "pages_000.parquet")
    p2 = str(tmp_path / "pages_001.parquet")
    write_pages_parquet(generate_pages(300, seed=41, vocab_size=60, mean_tokens=22),
                        p1, rows_per_row_group=75)
    write_pages_parquet(generate_pages(200, seed=42, vocab_size=60, mean_tokens=22),
                        p2, rows_per_row_group=50)
    return p1, p2


def _assert_same_results(sa, sb):
    for q in PROBES:
        ta = sa.search(q, k=30, total_hits_threshold=1 << 30)
        tb = sb.search(q, k=30, total_hits_threshold=1 << 30)
        assert list(ta.doc_ids) == list(tb.doc_ids), q
        assert np.array_equal(ta.scores, tb.scores), q


def test_append_openifchanged_matches_fresh_union(ray_session, tmp_path):
    p1, p2 = _two_files(tmp_path)
    cfg = BuildConfig(target_docs_per_segment=75)

    idx = str(tmp_path / "idx")
    build_index([p1], idx, cfg)
    merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=10**9))

    s1 = open_searcher(idx)
    assert isinstance(s1, MergedIndexSearcher)  # fresh merged serves
    assert open_if_changed(s1) is None  # nothing changed yet

    m = append_index([p2], idx, cfg)
    assert m.doc_count == 500 and m.version == 3  # build 1, merge 2, append 3

    # stale merged artifact must NOT serve the old doc space
    s2 = open_searcher(idx)
    assert not isinstance(s2, MergedIndexSearcher)
    assert s2.doc_count == 500

    s2 = IndexSearcher(idx)
    assert open_if_changed(s2) is None  # s2 already on gen 3

    # the live reopen loop: searcher open on gen 3, another append lands,
    # open_if_changed returns a successor SHARING the old readers (cheap
    # NRT reopen) with only the appended segments cold-opened
    p3 = str(tmp_path / "pages_002.parquet")
    write_pages_parquet(generate_pages(100, seed=43, vocab_size=60, mean_tokens=22),
                        p3, rows_per_row_group=50)
    append_index([p3], idx, cfg)
    s3 = open_if_changed(s2)
    assert s3 is not None and s3.doc_count == 600
    shared = {id(r) for r in s2.readers}
    assert sum(1 for r in s3.readers if id(r) in shared) == len(s2.readers)

    # union equivalence: counts, docIDs and scores equal a from-scratch
    # build over all three inputs
    idx_u = str(tmp_path / "idx_union")
    build_index([p1, p2, p3], idx_u, cfg)
    su = IndexSearcher(idx_u)
    assert su.doc_count == s3.doc_count
    assert su.sum_total_term_freq == s3.sum_total_term_freq
    _assert_same_results(s3, su)
    check_index(idx)

    # re-merge picks the appended generation up; merged serves again
    merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=10**9))
    s4 = open_searcher(idx)
    assert isinstance(s4, MergedIndexSearcher) and s4.doc_count == 600
    _assert_same_results(s4, su)


def test_append_config_mismatch_refused(ray_session, tmp_path):
    p1, p2 = _two_files(tmp_path)
    idx = str(tmp_path / "idx")
    build_index([p1], idx, BuildConfig(target_docs_per_segment=100))
    import pytest

    with pytest.raises(ValueError, match="config mismatch"):
        append_index([p2], idx, BuildConfig(analyzer="english",
                                            target_docs_per_segment=100))
    from lucene_7_x_9_x_ray.stages.build import FieldSpec

    with pytest.raises(ValueError, match="config mismatch"):
        append_index([p2], idx, BuildConfig(
            target_docs_per_segment=100,
            extra_fields=(FieldSpec("title", "title"),),
        ))


def test_compaction_after_append(ray_session, tmp_path):
    """Compaction over a multi-generation index (built + appended
    segments) preserves results and passes check_index — the
    TieredMergePolicy x NRT interplay."""
    from lucene_7_x_9_x_ray.stages.compact import CompactionPolicy, compact_index

    p1, p2 = _two_files(tmp_path)
    cfg = BuildConfig(target_docs_per_segment=75)
    idx = str(tmp_path / "idx")
    build_index([p1], idx, cfg)  # 4 segments
    append_index([p2], idx, cfg)  # +3 segments (gen 2)

    before = IndexSearcher(idx)
    res0 = [before.search(q, k=30, total_hits_threshold=1 << 30) for q in PROBES]

    m = compact_index(idx, CompactionPolicy(max_merge_at_once=4))
    assert len(m.segments) < 7
    out = check_index(idx)
    assert out["doc_count"] == 500

    after = open_if_changed(before)
    assert after is not None  # compaction replaced segments -> new gen
    for q, td0 in zip(PROBES, res0):
        td1 = after.search(q, k=30, total_hits_threshold=1 << 30)
        assert list(td0.doc_ids) == list(td1.doc_ids)
        assert np.array_equal(td0.scores, td1.scores)


def test_append_after_compaction_reclaim_and_add_indexes(ray_session, tmp_path):
    """Every new segment takes its name from the manifest's counter, so
    append -> compact -> append -> delete + reclaim -> append -> addIndexes
    runs with unique segment names, passes check_index, and scores
    exactly like a fresh build of the same live documents in order."""
    import pyarrow as pa

    from lucene_7_x_9_x_ray.stages.build import add_indexes
    from lucene_7_x_9_x_ray.stages.compact import (
        CompactionPolicy,
        compact_index,
        reclaim_deletes,
    )
    from lucene_7_x_9_x_ray.state.livedocs import delete_docs, load_tombstones
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest

    batches, paths = [], []
    for i, n in enumerate([200, 60, 60, 60, 80]):
        b = generate_pages(n, seed=70 + i, vocab_size=60, mean_tokens=22, dup_url_frac=0)
        b = b.set_column(b.schema.get_field_index("url"), "url",
                         pa.array([f"b{i}-{j}" for j in range(n)], pa.string()))
        paths.append(str(tmp_path / f"batch{i}.parquet"))
        write_pages_parquet(b, paths[-1], rows_per_row_group=100)
        batches.append(b)
    cfg = BuildConfig(target_docs_per_segment=100)
    idx = str(tmp_path / "idx")
    build_index([paths[0]], idx, cfg)
    append_index([paths[1]], idx, cfg)
    compact_index(idx, CompactionPolicy(max_merge_at_once=3))
    assert len(IndexManifest.load(idx).segments) == 1
    append_index([paths[2]], idx, cfg)
    n = IndexManifest.load(idx).doc_count
    dead = np.arange(0, n, 3)
    delete_docs(idx, dead)
    reclaim_deletes(idx, force=True)
    assert len(load_tombstones(idx)) == 0
    append_index([paths[3]], idx, cfg)
    other = str(tmp_path / "other")
    build_index([paths[4]], other, cfg)
    add_indexes(idx, [other])

    check_index(idx)
    names = [s["seg_name"] for s in IndexManifest.load(idx).segments]
    assert len(names) == len(set(names)) == 4

    first = pa.concat_tables(batches[:3])
    keep = np.setdiff1d(np.arange(n), dead)
    fresh_path = str(tmp_path / "fresh.parquet")
    write_pages_parquet(pa.concat_tables([first.take(keep), *batches[3:]]), fresh_path,
                        rows_per_row_group=100)
    fresh = str(tmp_path / "fresh")
    build_index([fresh_path], fresh, cfg)
    sa, sb = IndexSearcher(idx), IndexSearcher(fresh)
    assert sa.doc_count == sb.doc_count and sa.sum_total_term_freq == sb.sum_total_term_freq
    _assert_same_results(sa, sb)


def test_moved_index_reopens_with_identical_results(ray_session, tmp_path):
    """manifest.json records no path: an index (appended to, with deletes
    and a merged tier) moved with shutil.move reopens from its new place
    and returns rank-identical, float-exact top-k, per segment and merged."""
    import json
    import shutil

    from lucene_7_x_9_x_ray.state.livedocs import delete_docs

    def top_k(searcher):
        out = []
        for q in PROBES:
            td = searcher.search(q, k=30, total_hits_threshold=1 << 30)
            out.append((list(td.doc_ids), td.scores.tobytes()))
        return out

    p1, p2 = _two_files(tmp_path)
    cfg = BuildConfig(target_docs_per_segment=75)
    idx = str(tmp_path / "idx")
    build_index([p1], idx, cfg)
    append_index([p2], idx, cfg)
    delete_docs(idx, np.arange(0, 500, 7))
    merge_index(idx, MergeConfig(n_shards=2, hot_df_threshold=10**9))
    with open(f"{idx}/manifest.json") as f:
        assert "index_dir" not in json.load(f)
    merged = open_searcher(idx)
    assert isinstance(merged, MergedIndexSearcher)
    want = (top_k(IndexSearcher(idx)), top_k(merged))
    assert any(docs for docs, _ in want[0])

    moved = str(tmp_path / "elsewhere" / "moved_idx")
    shutil.move(idx, moved)
    merged = open_searcher(moved)
    assert isinstance(merged, MergedIndexSearcher)
    assert (top_k(IndexSearcher(moved)), top_k(merged)) == want
    check_index(moved)


def test_open_and_reopen_load_the_manifest_once(ray_session, tmp_path, monkeypatch):
    """open_searcher and open_if_changed each read manifest.json once and
    open the searcher on that same manifest, so an append landing between
    the merged-tier freshness check and the open cannot pair the tier with
    a newer segment set."""
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest

    p1, p2 = _two_files(tmp_path)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(target_docs_per_segment=100)
    build_index([p1], idx, cfg)
    merge_index(idx, MergeConfig(n_shards=4))

    loads = []
    real_load = IndexManifest.load.__func__

    def counting_load(cls, index_dir):
        loads.append(index_dir)
        return real_load(cls, index_dir)

    monkeypatch.setattr(IndexManifest, "load", classmethod(counting_load))

    def n_loads(fn, *args):
        loads.clear()
        out = fn(*args)
        return out, len(loads)

    s, n = n_loads(open_searcher, idx)
    assert isinstance(s, MergedIndexSearcher) and n == 1
    assert s.readers[0].doc_count == s.manifest.doc_count
    assert n_loads(open_if_changed, s) == (None, 1)

    append_index([p2], idx, cfg)  # the merged tier is now stale
    s2, n = n_loads(open_if_changed, s)
    assert type(s2) is IndexSearcher and n == 1
    assert s2.manifest.doc_count == 500

    merge_index(idx, MergeConfig(n_shards=4))
    s3, n = n_loads(open_searcher, idx)
    assert isinstance(s3, MergedIndexSearcher) and n == 1
    loads.clear()
    _assert_same_results(s3, s3._seg())  # the lazy per-segment searcher too
    assert loads == []


def test_reopen_moves_onto_a_fresh_merge(ray_session, tmp_path):
    """A merge commits a new manifest generation, so open_if_changed on a
    searcher of the generation before it returns the merged searcher, and
    that searcher's top-k equals the per-segment exhaustive search."""
    p1, p2 = _two_files(tmp_path)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(target_docs_per_segment=100)
    mcfg = MergeConfig(n_shards=4, hot_df_threshold=150, hot_buckets=2)
    build_index([p1], idx, cfg)
    merge_index(idx, mcfg)
    s0 = open_searcher(idx)
    assert isinstance(s0, MergedIndexSearcher)
    append_index([p2], idx, cfg)
    s1 = open_if_changed(s0)
    assert type(s1) is IndexSearcher  # the tier is stale after the append

    meta = merge_index(idx, mcfg)
    assert meta["hot_terms"]
    s2 = open_if_changed(s1)
    assert isinstance(s2, MergedIndexSearcher) and s2.doc_count == 500
    exhaustive = IndexSearcher(idx)
    for q in PROBES:
        a = exhaustive.search(q, k=30, mode="exhaustive", total_hits_threshold=1 << 30)
        b = s2.search(q, k=30, total_hits_threshold=1 << 30)
        assert list(a.doc_ids) == list(b.doc_ids), q
        assert np.array_equal(a.scores, b.scores), q
    assert open_if_changed(s2) is None


def test_merge_keeps_a_commit_that_landed_while_it_ran(tmp_path, monkeypatch):
    """addIndexes committing while a merge runs: the merge's commit keeps
    the grafted segment and bumps past its generation, and its tier (built
    from the older segment set) does not serve."""
    from lucene_7_x_9_x_ray.stages import merge as merge_mod
    from lucene_7_x_9_x_ray.stages.build import add_indexes, build_index_local
    from lucene_7_x_9_x_ray.stages.merge import merge_index_local
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest

    _, p2 = _two_files(tmp_path)
    src = str(tmp_path / "pages_src.parquet")
    write_pages_parquet(generate_pages(100, seed=43, vocab_size=60, mean_tokens=22),
                        src, rows_per_row_group=100)
    idx, other = str(tmp_path / "idx"), str(tmp_path / "other")
    build_index_local([p2], idx, BuildConfig(target_docs_per_segment=100))
    build_index_local([src], other, BuildConfig(target_docs_per_segment=100))

    grafted = []
    write_shard = merge_mod.write_merged_shard

    def write_and_graft(*args, **kwargs):
        if not grafted:
            grafted.append(add_indexes(idx, [other]))
        return write_shard(*args, **kwargs)

    monkeypatch.setattr(merge_mod, "write_merged_shard", write_and_graft)
    merge_index_local(idx, MergeConfig(n_shards=4, hot_df_threshold=10**9))

    assert len(grafted[0].segments) == 3 and grafted[0].doc_count == 300
    man = IndexManifest.load(idx)
    assert len(man.segments) == 3 and man.doc_count == 300
    assert man.version > grafted[0].version
    s = open_searcher(idx)
    assert type(s) is IndexSearcher and s.doc_count == 300
    exhaustive = IndexSearcher(idx)
    for q in PROBES:
        a = exhaustive.search(q, k=30, mode="exhaustive", total_hits_threshold=1 << 30)
        b = s.search(q, k=30, total_hits_threshold=1 << 30)
        assert list(a.doc_ids) == list(b.doc_ids), q
        assert np.array_equal(a.scores, b.scores), q
