"""Replicator module analogue (lucene/replicator): publish -> incremental
checkout -> adopt, with snapshot refcounting on the primary."""

import pyarrow as pa
import pyarrow.parquet as pq

from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
from lucene_7_x_9_x_ray.search import queries as Q
from lucene_7_x_9_x_ray.stages.build import (
    BuildConfig,
    append_index,
    build_index_local,
)
from lucene_7_x_9_x_ray.state.commits import list_snapshots
from lucene_7_x_9_x_ray.state.replicator import (
    IndexRevision,
    LocalReplicator,
    ReplicationClient,
)


def _write(tmp_path, name, texts, base=0):
    t = pa.table(
        {
            "url": [f"u{base + i}" for i in range(len(texts))],
            "warc_ts": pa.array(range(base, base + len(texts)), pa.timestamp("us")),
            "text": texts,
            "lang": ["en"] * len(texts),
        }
    )
    path = str(tmp_path / name)
    pq.write_table(t, path)
    return path


def _top(idx_dir, term):
    s = IndexSearcher(idx_dir)
    td = s.search(Q.TermQuery(term), k=50, total_hits_threshold=1 << 30)
    return [(int(d), float(sc)) for d, sc in zip(td.doc_ids, td.scores)]


def test_publish_checkout_incremental_and_gc(tmp_path):
    primary = str(tmp_path / "primary")
    replica = str(tmp_path / "replica")
    cfg = BuildConfig(target_docs_per_segment=4)
    p1 = _write(tmp_path, "p1.parquet", ["alpha beta", "beta gamma", "alpha alpha"])
    build_index_local([p1], primary, cfg)

    rep = LocalReplicator(primary)
    rev1 = rep.publish()
    client = ReplicationClient(rep, replica)
    n1 = client.update_now()
    assert n1 == len(rev1.files) > 0
    # replica serves the identical commit
    assert _top(replica, "alpha") == _top(primary, "alpha")
    # idempotent: nothing new to pull
    assert client.update_now() == 0

    # primary appends a generation; replica is stale until it updates
    p2 = _write(tmp_path, "p2.parquet", ["alpha delta", "delta delta"], base=3)
    append_index([p2], primary, cfg)
    before = _top(replica, "delta")
    assert before == []
    rev2 = rep.publish()
    assert rev2.version > rev1.version
    n2 = client.update_now()
    # incremental: only the appended segment's files moved
    assert 0 < n2 < len(rev2.files)
    assert _top(replica, "delta") == _top(primary, "delta")
    assert _top(replica, "alpha") == _top(primary, "alpha")

    # superseded revision's snapshot was released (no sessions held it)
    snaps = list_snapshots(primary)
    assert rev2.snap_id in snaps and rev1.snap_id not in snaps

    # a fresh client on an already-populated replica dir resumes at the
    # adopted version (no re-copy)
    client2 = ReplicationClient(rep, replica)
    assert client2.update_now() == 0


def test_session_defers_snapshot_release(tmp_path):
    primary = str(tmp_path / "primary")
    cfg = BuildConfig(target_docs_per_segment=4)
    p1 = _write(tmp_path, "p1.parquet", ["a b", "b c"])
    build_index_local([p1], primary, cfg)
    rep = LocalReplicator(primary)
    rev1 = rep.publish()
    rep.start_session(rev1)  # a slow replica is mid-copy
    p2 = _write(tmp_path, "p2.parquet", ["c d"], base=2)
    append_index([p2], primary, cfg)
    rev2 = rep.publish()
    # rev1 still pinned while its session is open
    assert rev1.snap_id in list_snapshots(primary)
    rep.end_session(rev1)
    snaps = list_snapshots(primary)
    assert rev1.snap_id not in snaps and rev2.snap_id in snaps


def test_revisions_hash_and_sit_in_a_set(tmp_path):
    """A revision hashes by (version, snap_id) although its manifest and
    file set are dicts, so published revisions can key a set or a dict."""
    assert hash(IndexRevision(1, "s", {"a": 1}, {})) == hash(
        IndexRevision(1, "s", {"a": 2}, {"f": 3}))
    primary = str(tmp_path / "primary")
    cfg = BuildConfig(target_docs_per_segment=4)
    build_index_local([_write(tmp_path, "p1.parquet", ["alpha beta", "beta gamma"])],
                      primary, cfg)
    rep = LocalReplicator(primary)
    rev1 = rep.publish()
    append_index([_write(tmp_path, "p2.parquet", ["alpha delta"], base=2)], primary, cfg)
    rev2 = rep.publish()
    seen = {rev1, rev2, rev1}
    assert len(seen) == 2 and rev1 in seen and rev2 in seen
