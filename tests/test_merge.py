"""Merge stage: term-shuffle + salting correctness, resume, Ray==local.

The key assertion: searching the MERGED index returns bit-identical
(docID, score) results to searching the segment set — the merge preserves
postings exactly (docID remap is a pure doc_base offset; SURVEY.md §7.4)."""

import os

import numpy as np
import pytest

from lucene_7_x_9_x_ray.search import queries as Q
from lucene_7_x_9_x_ray.search.merged import MergedIndexSearcher, open_searcher
from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index_local
from lucene_7_x_9_x_ray.stages.merge import (
    MergeConfig,
    compute_hot_terms_local,
    merge_index_local,
)
from lucene_7_x_9_x_ray.state.manifest import IndexManifest


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("merge")
    t = generate_pages(2500, seed=21, vocab_size=400, mean_tokens=60, dup_url_frac=0)
    p = write_pages_parquet(t, str(tmp / "pages.parquet"), rows_per_row_group=250)
    idx = str(tmp / "idx")
    build_index_local([p], idx, BuildConfig(target_docs_per_segment=500))
    return idx


# low threshold so the Zipf head terms actually get salted in the test
MCFG = MergeConfig(n_shards=8, hot_df_threshold=1500, hot_buckets=4)


@pytest.fixture(scope="module")
def merged(built):
    merge_index_local(built, MCFG)
    return built


def test_hot_terms_detected(built):
    hot = compute_hot_terms_local(IndexManifest.load(built), MCFG)
    assert "t00000" in hot  # Zipf head appears in >60% of docs
    assert len(hot) < 20


def test_merged_results_identical_to_segments(merged):
    seg = IndexSearcher(merged)
    mrg = MergedIndexSearcher(merged)
    queries = [
        "t00000",  # hot (salted) head term
        "t00000 t00001 t00002",  # several hot terms
        "t00150 t00250",  # torso terms
        "t00399",  # tail
        "t00000 t00350",  # hot + tail mix
    ]
    for qt in queries:
        a = seg.search(qt, k=20, mode="exhaustive").to_lists()
        b = mrg.search(qt, k=20).to_lists()
        assert a == b, qt
    q = Q.BooleanQuery.build(
        [(Q.MUST, Q.TermQuery("t00000")), (Q.MUST_NOT, Q.TermQuery("t00010"))]
    )
    assert seg.search(q, k=15).to_lists() == mrg.search(q, k=15).to_lists()
    assert seg.count(Q.TermQuery("t00000")) == mrg.count(Q.TermQuery("t00000"))


def test_merged_term_stats_match(merged):
    seg = IndexSearcher(merged)
    mrg = MergedIndexSearcher(merged)
    for term in ["t00000", "t00150", "t00399", "absent"]:
        s = seg.collection_stats({term})
        m = mrg.collection_stats({term})
        assert s.term_df == m.term_df
        assert s.term_ttf == m.term_ttf


def test_salted_shards_exist(merged):
    from lucene_7_x_9_x_ray.state.manifest import load_json

    meta = load_json(os.path.join(merged, "merged", "merged.json"))
    assert meta["hot_terms"]
    hot_sids = {s["shard_id"] for s in meta["shards"] if s["shard_id"] >= MCFG.n_shards}
    assert len(hot_sids) > 1  # head terms spread over multiple sub-shards
    # every sub-shard of the hottest term is bounded by the bucket split
    mrg = MergedIndexSearcher(merged)
    tp = mrg._merged.term_postings(meta["hot_terms"][0])
    docs, freqs = tp.decode()
    assert np.all(np.diff(docs) > 0)  # global docIDs strictly ascending


def test_merge_resume(merged):
    import glob

    before = {
        d: os.path.getmtime(os.path.join(d, "postings.bin"))
        for d in glob.glob(os.path.join(merged, "merged", "shard_*"))
    }
    out = merge_index_local(merged, MCFG)  # re-run
    assert all(s["resumed"] for s in out["shards"])
    for d, m in before.items():
        assert os.path.getmtime(os.path.join(d, "postings.bin")) == m


def test_open_searcher_factory(merged, tmp_path):
    assert isinstance(open_searcher(merged), MergedIndexSearcher)
    # an unmerged index opens as a segment searcher
    t = generate_pages(100, seed=1, vocab_size=50, mean_tokens=10)
    p = write_pages_parquet(t, str(tmp_path / "p.parquet"))
    build_index_local([p], str(tmp_path / "idx"), BuildConfig())
    s = open_searcher(str(tmp_path / "idx"))
    assert isinstance(s, IndexSearcher) and not isinstance(s, MergedIndexSearcher)


def test_ray_merge_matches_local(built, tmp_path, ray_session):
    """Distributed merge artifacts == single-process merge artifacts."""
    import shutil

    from lucene_7_x_9_x_ray.stages.merge import merge_index

    # copy the built index (segments only) to merge it independently
    idx2 = str(tmp_path / "idx2")
    shutil.copytree(built, idx2, ignore=shutil.ignore_patterns("merged"))
    man = IndexManifest.load(idx2)
    man.index_dir = idx2
    man.merged = False
    man.save()
    merge_index(idx2, MCFG)

    a = MergedIndexSearcher(built)
    b = MergedIndexSearcher(idx2)
    for qt in ["t00000", "t00000 t00123", "t00399"]:
        assert a.search(qt, k=20).to_lists() == b.search(qt, k=20).to_lists()


def test_groupby_strategy_carries_positions_and_duels(ray_session, tmp_path):
    """strategy='groupby' produces a merged index equivalent to the pull
    strategy: same phrase results, WAND duel rank-identical."""
    import numpy as np

    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index

    pages = generate_pages(500, vocab_size=60, mean_tokens=25, seed=77)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    cfgs = {}
    for strat in ("pull", "groupby"):
        idx = str(tmp_path / f"idx_{strat}")
        build_index([path], idx, BuildConfig(target_docs_per_segment=100))
        merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=60, hot_buckets=2),
                    strategy=strat)
        cfgs[strat] = open_searcher(idx)

    probes = [
        Q.PhraseQuery(terms=("t00000", "t00001")),
        Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery("t00000")), (Q.SHOULD, Q.TermQuery("t00020"))]),
    ]
    for q in probes:
        a = cfgs["pull"].search(q, k=25, total_hits_threshold=1 << 30)
        b = cfgs["groupby"].search(q, k=25, total_hits_threshold=1 << 30)
        assert list(a.doc_ids) == list(b.doc_ids)
        assert np.array_equal(a.scores, b.scores)
    # WAND over the groupby-merged index (fragment expansion path)
    q = Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery("t00000")), (Q.SHOULD, Q.TermQuery("t00005"))])
    w = cfgs["groupby"].search(q, k=10, mode="wand")
    e = cfgs["groupby"].search(q, k=10, mode="exhaustive")
    assert list(w.doc_ids) == list(e.doc_ids)
    assert np.array_equal(w.scores, e.scores)


def test_sampled_boundaries_match_exact_results(ray_session, tmp_path):
    """Sampled boundary planning (no driver vocabulary) produces a merged
    index with IDENTICAL search results to the exact-boundary plan, and
    detects the same hot-term set."""
    import json
    import os
    import shutil

    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index_pull

    pages = generate_pages(800, vocab_size=300, mean_tokens=30, seed=81)
    path = str(tmp_path / "p.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx_a = str(tmp_path / "a")
    build_index([path], idx_a, BuildConfig(target_docs_per_segment=100))
    idx_b = str(tmp_path / "b")
    shutil.copytree(idx_a, idx_b)

    cfg = MergeConfig(n_shards=6, hot_df_threshold=200)
    ma = merge_index_pull(idx_a, cfg, boundaries="sampled")  # force the scale plan
    mb = merge_index_pull(idx_b, cfg, boundaries="exact")    # whole-vocab driver
    # single-pass hot detection salts a conservative SUPERSET of the true set
    assert set(mb["hot_terms"]) <= set(ma["hot_terms"]) and mb["hot_terms"]

    sa, sb = open_searcher(idx_a), open_searcher(idx_b)
    probes = [
        Q.TermQuery("t00000"),
        Q.BooleanQuery.build(
            [(Q.SHOULD, Q.TermQuery("t00005")), (Q.SHOULD, Q.TermQuery("t00100"))]
        ),
        Q.PhraseQuery(terms=("t00000", "t00001")),
    ]
    for q in probes:
        ta = sa.search(q, k=30, total_hits_threshold=1 << 30)
        tb = sb.search(q, k=30, total_hits_threshold=1 << 30)
        assert list(ta.doc_ids) == list(tb.doc_ids)
        assert np.array_equal(ta.scores, tb.scores)
    # no merged norms file is written any more (SegmentedNorms serves reads)
    assert not os.path.exists(os.path.join(idx_a, "merged", "norms.bin"))
