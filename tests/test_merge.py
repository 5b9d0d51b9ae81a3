"""Merge stage: term-range pull merge + salting correctness, resume,
Ray == in-process.

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
    collect_term_stats,
    merge_index_local,
    plan_merge_ranges,
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
    hot, _ = plan_merge_ranges(*collect_term_stats(IndexManifest.load(built)), MCFG)
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


def _tree_bytes(root: str) -> dict:
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_ray_merge_matches_local(tmp_path, ray_session):
    """merge_index (Ray tasks) and merge_index_local (in this process) run
    one plan and write byte-identical merged/ trees: positions, payloads,
    salted hot terms and an extra field's shards included."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_7_x_9_x_ray.stages.build import FieldSpec
    from lucene_7_x_9_x_ray.stages.merge import merge_index

    pages = generate_pages(600, seed=23, vocab_size=120, mean_tokens=30, dup_url_frac=0)
    # every other token carries a float payload ("term|0.75")
    docs = [
        " ".join(f"{w}|{(i % 8) * 0.25}" if i % 2 else w for i, w in enumerate(text.split()))
        for text in pages["text"].to_pylist()
    ]
    pages = pages.set_column(pages.schema.get_field_index("text"), "text", pa.array(docs))
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pages, path, row_group_size=100)
    built = str(tmp_path / "built")
    build_index_local([path], built, BuildConfig(
        analyzer="whitespace", payload_delimiter="|", target_docs_per_segment=100,
        extra_fields=(FieldSpec("title", "title", index_positions=True),),
    ))
    idx_ray, idx_local = str(tmp_path / "ray"), str(tmp_path / "local")
    shutil.copytree(built, idx_ray)
    shutil.copytree(built, idx_local)
    cfg = MergeConfig(n_shards=4, hot_df_threshold=200, hot_buckets=3)
    merged = merge_index(idx_ray, cfg)
    assert merge_index_local(idx_local, cfg) == merged
    assert merged["strategy"] == "range" and merged["hot_terms"]
    assert merged["fields"]["title"]["shards"]

    a = _tree_bytes(os.path.join(idx_ray, "merged"))
    b = _tree_bytes(os.path.join(idx_local, "merged"))
    assert sorted(a) == sorted(b)
    assert any(k.startswith("f_title") for k in a)
    assert any(k.endswith("payloads.bin") for k in a)
    assert any(k.endswith("positions.bin") for k in a)
    assert [k for k in a if a[k] != b[k]] == []


def test_local_pull_merge_carries_positions_and_duels(tmp_path):
    """The in-process pull merge with salted hot terms serves phrase
    queries exactly as the per-segment searcher does, and WAND over the
    hot-term fragments is rank-identical to exhaustive."""
    pages = generate_pages(500, vocab_size=60, mean_tokens=25, seed=77)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    build_index_local([path], idx, BuildConfig(target_docs_per_segment=100))
    meta = merge_index_local(idx, MergeConfig(n_shards=4, hot_df_threshold=60, hot_buckets=2))
    assert {"t00000", "t00001", "t00005"} <= set(meta["hot_terms"])
    mrg, seg = open_searcher(idx), IndexSearcher(idx)
    assert isinstance(mrg, MergedIndexSearcher)

    probes = [
        Q.PhraseQuery(terms=("t00000", "t00001")),
        Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery("t00000")), (Q.SHOULD, Q.TermQuery("t00020"))]),
    ]
    for q in probes:
        a = seg.search(q, k=25, total_hits_threshold=1 << 30)
        b = mrg.search(q, k=25, total_hits_threshold=1 << 30)
        assert list(a.doc_ids) == list(b.doc_ids)
        assert np.array_equal(a.scores, b.scores)
    # WAND over the salted tier (one clause per hot-term fragment)
    q = Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery("t00000")), (Q.SHOULD, Q.TermQuery("t00005"))])
    w = mrg.search(q, k=10, mode="wand")
    e = mrg.search(q, k=10, mode="exhaustive")
    assert list(w.doc_ids) == list(e.doc_ids)
    assert np.array_equal(w.scores, e.scores)


def test_hash_tier_serves_per_segment(merged, tmp_path):
    """A merged.json of any strategy but "range" (the hash-sharded tiers
    older merges wrote) is never served: open_searcher falls back to the
    per-segment searcher and CheckIndex skips the tier, until a re-merge."""
    import json
    import shutil

    from lucene_7_x_9_x_ray.state.checkindex import check_index

    idx = str(tmp_path / "idx")
    shutil.copytree(merged, idx)
    path = os.path.join(idx, "merged", "merged.json")
    with open(path) as f:
        meta = json.load(f)
    meta["strategy"] = "hash"
    with open(path, "w") as f:
        json.dump(meta, f)
    s = open_searcher(idx)
    assert type(s) is IndexSearcher
    assert check_index(idx)["merged"] is None
    merge_index_local(idx, MCFG)
    assert isinstance(open_searcher(idx), MergedIndexSearcher)


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



def test_a_resumed_merge_pulls_no_fragment(built, tmp_path, monkeypatch):
    """Re-running a merge whose shards all hold the plan's fingerprint
    resumes every shard before any term-range slice is pulled; the first
    run of the same merge pulls."""
    import shutil

    from lucene_7_x_9_x_ray.stages import merge as merge_mod

    pulls = []
    pull = merge_mod._term_range_cols

    def counting(t, seg_dir, *args, **kwargs):
        pulls.append(seg_dir)
        return pull(t, seg_dir, *args, **kwargs)

    monkeypatch.setattr(merge_mod, "_term_range_cols", counting)
    idx = str(tmp_path / "idx")
    shutil.copytree(built, idx, ignore=shutil.ignore_patterns("merged"))
    first = merge_index_local(idx, MCFG)
    assert pulls and not any(s["resumed"] for s in first["shards"])
    pulls.clear()
    again = merge_index_local(idx, MCFG)
    assert pulls == []
    assert [s["shard_id"] for s in again["shards"]] == [s["shard_id"] for s in first["shards"]]
    assert all(s["resumed"] for s in again["shards"])

def test_a_new_shard_plan_resumes_no_shard(tmp_path):
    """Re-merging the same segments under another shard plan rewrites
    every shard: a shard id names a different term range under n_shards=8
    than under n_shards=4, so the resume key covers the plan."""
    pages = generate_pages(800, seed=31, vocab_size=200, mean_tokens=25, dup_url_frac=0)
    path = write_pages_parquet(pages, str(tmp_path / "pages.parquet"), rows_per_row_group=200)
    idx = str(tmp_path / "idx")
    build_index_local([path], idx, BuildConfig(target_docs_per_segment=200))
    merge_index_local(idx, MergeConfig(n_shards=4, hot_df_threshold=10**9))
    out = merge_index_local(idx, MergeConfig(n_shards=8, hot_df_threshold=10**9))
    assert len(out["shards"]) == 8
    assert not any(s["resumed"] for s in out["shards"])
    again = merge_index_local(idx, MergeConfig(n_shards=8, hot_df_threshold=10**9))
    assert all(s["resumed"] for s in again["shards"])

    mrg, seg = open_searcher(idx), IndexSearcher(idx)
    assert isinstance(mrg, MergedIndexSearcher)
    for i in range(0, 200, 7):
        q = Q.TermQuery(f"t{i:05d}")
        a = seg.search(q, k=20, mode="exhaustive", total_hits_threshold=1 << 30)
        b = mrg.search(q, k=20, total_hits_threshold=1 << 30)
        assert list(a.doc_ids) == list(b.doc_ids), q
        assert np.array_equal(a.scores, b.scores), q


def test_a_merge_task_reads_each_term_dictionary_once(built, tmp_path, monkeypatch):
    """The in-process merge runs all its specs (8 range shards and the hot
    buckets) as one task, which reads each segment's terms.parquet once;
    the merged tree is the one a read per spec writes, and a term search
    in place finds the rows numpy's searchsorted over the terms finds."""
    import bisect
    import shutil

    import pyarrow.parquet as pq

    from lucene_7_x_9_x_ray.stages import merge as merge_mod

    idx = str(tmp_path / "idx")
    shutil.copytree(built, idx, ignore=shutil.ignore_patterns("merged"))
    reads = []
    read_terms = merge_mod._read_terms

    def counting(seg_dir, prefix):
        reads.append(seg_dir)
        return read_terms(seg_dir, prefix)

    monkeypatch.setattr(merge_mod, "_read_terms", counting)
    out = merge_index_local(idx, MCFG)
    seg_dirs = IndexManifest.load(idx).segment_dirs()
    assert len(out["shards"]) > MCFG.n_shards  # range and hot specs
    assert sorted(reads) == sorted(set(reads)) and len(reads) == len(seg_dirs)

    task_terms = merge_mod._TaskTerms

    class PerSpec(task_terms):
        # every spec reads every dictionary afresh, as a one-spec task does
        def take(self, seg_dir, k):
            return task_terms([self.ranges[k]], self.prefix).take(seg_dir, 0)

    ref = str(tmp_path / "ref")
    shutil.copytree(built, ref, ignore=shutil.ignore_patterns("merged"))
    reads.clear()
    monkeypatch.setattr(merge_mod, "_TaskTerms", PerSpec)
    merge_index_local(ref, MCFG)
    assert len(reads) > len(seg_dirs)
    a = _tree_bytes(os.path.join(idx, "merged"))
    b = _tree_bytes(os.path.join(ref, "merged"))
    assert sorted(a) == sorted(b)
    assert [k for k in a if a[k] != b[k]] == []

    for seg_dir in seg_dirs:
        col = pq.read_table(os.path.join(seg_dir, "terms.parquet"))["term"]
        terms = col.to_pylist()
        probes = ["", "\uffff", terms[0], terms[-1]] + terms[::37] + [t + "\x00" for t in terms[::53]]
        want = np.searchsorted(np.array(terms, dtype=object), probes)
        got = [bisect.bisect_left(merge_mod._SortedTerms(col), p) for p in probes]
        assert got == want.tolist()
