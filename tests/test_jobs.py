"""Smoke the `ray job submit` entry points (jobs/build_index_job.py +
jobs/query_job.py) as real subprocesses — the north-rule launch path.
Each owns its own local Ray session, so they run OUTSIDE the pytest
session's Ray (fresh processes, RAY_ADDRESS=local)."""

import json
import operator
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, cwd):
    env = dict(os.environ, RAY_ADDRESS="local")
    out = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=420,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return out.stdout


def test_build_and_query_jobs_end_to_end(tmp_path):
    n = 60
    texts = [f"alpha doc{i % 7} beta {'gamma' if i % 3 else 'delta'}" for i in range(n)]
    pages = pa.table(
        {
            "url": [f"https://x/d/{i}" for i in range(n)],
            "warc_ts": pa.array(range(n), pa.timestamp("us")),
            "text": texts,
            "lang": ["en"] * n,
        }
    )
    inp = str(tmp_path / "pages.parquet")
    pq.write_table(pages, inp, row_group_size=16)
    idx = str(tmp_path / "index")

    out = _run(
        ["jobs/build_index_job.py", "--input", inp, "--index-dir", idx,
         "--docs-per-segment", "16", "--n-shards", "4", "--checkindex"],
        cwd=REPO,
    )
    line = [l for l in out.splitlines() if l.startswith("{")][-1]
    stats = json.loads(line)
    assert stats["doc_count"] == n

    qfile = str(tmp_path / "q.jsonl")
    with open(qfile, "w") as f:
        f.write(json.dumps({"query_id": "q1", "terms": ["alpha", "gamma"], "k": 5}) + "\n")
        f.write(json.dumps({"query_id": "q2", "terms": ["delta"]}) + "\n")
    outp = str(tmp_path / "hits.parquet")
    _run(
        ["jobs/query_job.py", "--index-dir", idx, "--queries", qfile,
         "--k", "5", "--out", outp],
        cwd=REPO,
    )
    hits = pq.read_table(outp)
    got = {}
    for r in hits.to_pylist():
        got.setdefault(r["query_id"], []).append(r)
    assert len(got["q1"]) == 5
    assert all(r["score"] > 0 for r in got["q1"])
    # delta appears in every third doc only
    assert {r["doc_id"] % 3 for r in got["q2"]} == {0}

    # --sharded serves from a ServingPool of segment shards: same hits
    outs = str(tmp_path / "hits_sharded.parquet")
    _run(
        ["jobs/query_job.py", "--index-dir", idx, "--queries", qfile,
         "--k", "5", "--out", outs, "--sharded"],
        cwd=REPO,
    )
    key = operator.itemgetter("query_id", "rank")
    assert sorted(pq.read_table(outs).to_pylist(), key=key) == sorted(hits.to_pylist(), key=key)
