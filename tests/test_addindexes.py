"""IndexWriter.addIndexes(Directory...) analogue: segment grafting."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_7_x_9_x_ray.search import queries as Q
from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
from lucene_7_x_9_x_ray.stages.build import (
    BuildConfig,
    add_indexes,
    build_index_local,
)
from lucene_7_x_9_x_ray.state.livedocs import delete_docs


def _build(tmp_path, name, texts, cfg=None):
    t = pa.table(
        {
            "url": [f"{name}-{i}" for i in range(len(texts))],
            "warc_ts": pa.array(range(len(texts)), pa.timestamp("us")),
            "text": texts,
            "lang": ["en"] * len(texts),
        }
    )
    path = str(tmp_path / f"{name}.parquet")
    pq.write_table(t, path)
    idx = str(tmp_path / f"idx_{name}")
    build_index_local([path], idx, cfg or BuildConfig(target_docs_per_segment=3))
    return idx


def _matches(idx, term):
    s = IndexSearcher(idx)
    td = s.search(Q.TermQuery(term), k=100, total_hits_threshold=1 << 30)
    return sorted(int(d) for d in td.doc_ids)


def test_add_indexes_grafts_segments_and_rebases(tmp_path):
    a = _build(tmp_path, "a", ["alpha one", "alpha two", "beta", "alpha three"])
    b = _build(tmp_path, "b", ["alpha b0", "gamma", "alpha b2"])
    c = _build(tmp_path, "c", ["alpha c0"])

    m = add_indexes(a, [b, c])
    assert m.doc_count == 8
    # docIDs: a keeps 0..3; b rebases to 4..6; c to 7
    assert _matches(a, "alpha") == [0, 1, 3, 4, 6, 7]
    assert _matches(a, "gamma") == [5]
    # scores equal a from-scratch build of the union (global stats
    # re-aggregated): verify avgdl inputs
    s = IndexSearcher(a)
    texts = ["alpha one", "alpha two", "beta", "alpha three",
             "alpha b0", "gamma", "alpha b2", "alpha c0"]
    assert s.manifest.sum_total_term_freq == sum(len(t.split()) for t in texts)


def test_add_indexes_carries_deletes_rebased(tmp_path):
    a = _build(tmp_path, "a", ["alpha one", "beta"])
    b = _build(tmp_path, "b", ["alpha b0", "alpha b1", "alpha b2"])
    delete_docs(b, [0, 2])  # kill b's first and third docs
    add_indexes(a, [b])
    # only b's middle doc (now id 3) survives among the grafted alphas
    assert _matches(a, "alpha") == [0, 3]


def test_add_indexes_refuses_config_mismatch(tmp_path):
    a = _build(tmp_path, "a", ["alpha"])
    w = _build(tmp_path, "w", ["Alpha"], cfg=BuildConfig(analyzer="whitespace"))
    with pytest.raises(ValueError, match="analyzer"):
        add_indexes(a, [w])


def test_exorcise_drops_corrupt_segment(tmp_path):
    """CheckIndex -exorcise: a segment with truncated postings drops from
    the commit; survivors keep their docID ranges and stay searchable."""
    import glob
    import os

    from lucene_7_x_9_x_ray.state.checkindex import check_index, exorcise

    texts = ["alpha one", "alpha two", "beta", "alpha three",
             "gamma four", "alpha five"]
    t = pa.table(
        {
            "url": [f"x-{i}" for i in range(len(texts))],
            "warc_ts": pa.array(range(len(texts)), pa.timestamp("us")),
            "text": texts,
            "lang": ["en"] * len(texts),
        }
    )
    path = str(tmp_path / "x.parquet")
    pq.write_table(t, path, row_group_size=2)  # 3 row groups -> 3 segments
    idx = str(tmp_path / "idx_x")
    build_index_local([path], idx, BuildConfig(target_docs_per_segment=2))
    before = _matches(idx, "alpha")
    seg_dirs = sorted(glob.glob(os.path.join(idx, "segments", "seg_*")))
    assert len(seg_dirs) >= 2
    # truncate the middle segment's postings payload
    victim = seg_dirs[1]
    post = glob.glob(os.path.join(victim, "postings*"))[0]
    with open(post, "r+b") as f:
        f.truncate(3)

    dropped = exorcise(idx)
    assert dropped == [os.path.basename(victim)]
    check_index(idx)  # the published commit validates clean
    after = _matches(idx, "alpha")
    # survivors: every pre-corruption match outside the victim's range
    import json

    stats = json.load(open(os.path.join(victim, "stats.json")))
    lo, hi = stats["doc_base"], stats["doc_base"] + stats["doc_count"]
    assert after == [d for d in before if not (lo <= d < hi)]
    # nothing to exorcise the second time
    assert exorcise(idx) == []


def test_exorcise_propagates_transient_io_errors(tmp_path, monkeypatch):
    """A transient I/O error (EIO) while checking a segment is not
    corruption: exorcise raises it, drops nothing and publishes no
    manifest. A missing segment file still is corruption."""
    import errno
    import glob
    import os

    from lucene_7_x_9_x_ray.state import checkindex
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest

    texts = ["alpha one", "alpha two", "beta", "alpha three"]
    t = pa.table({"url": [f"x-{i}" for i in range(4)],
                  "warc_ts": pa.array(range(4), pa.timestamp("us")),
                  "text": texts, "lang": ["en"] * 4})
    path = str(tmp_path / "x.parquet")
    pq.write_table(t, path, row_group_size=2)  # 2 row groups -> 2 segments
    idx = str(tmp_path / "idx_x")
    build_index_local([path], idx, BuildConfig(target_docs_per_segment=2))
    before = IndexManifest.load(idx)
    assert len(before.segments) == 2

    def eio(*a, **k):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(checkindex, "check_segment", eio)
    with pytest.raises(OSError) as err:
        checkindex.exorcise(idx)
    assert err.value.errno == errno.EIO
    after = IndexManifest.load(idx)
    assert (after.version, after.segments) == (before.version, before.segments)

    monkeypatch.undo()
    victim = before.segments[1]["seg_name"]
    os.remove(glob.glob(os.path.join(idx, "segments", victim, "postings*"))[0])
    assert checkindex.exorcise(idx) == [victim]
    assert IndexManifest.load(idx).version == before.version + 1
