"""Tests of the benchmark itself (not part of the engine's test suite):

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

The workload tests start the command in a subprocess from a temporary
directory, so they also show that it runs outside the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
sys.path.insert(0, ROOT)

from perfbench.reference import RefIndex, engine_hits, same_hits  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER  # noqa: E402


def _run(cwd, *args, timeout=600):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["search", "curate"])
def test_toy_workload_has_no_failed_operation(workload, tmp_path):
    res = _result(_run(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--size", "toy"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] > 0 and res["failed"] == 0
    assert set(res["metrics"]) == {n for n, _ in END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    res = _result(_run(tmp_path, "--workload", "curate", "--seed", "4", "--seconds", "1",
                       "--trace", "1", "--size", "toy"))
    assert res["failed"] == 0
    assert set(res["metrics"]) == {n for n, _ in PER_LAYER}
    for name in ("nrt.append_s", "build.segment_s", "search.bulk_s", "compact.tiered_s",
                 "compact.reclaim_s"):
        assert res["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout


def test_waits_for_orphaned_descendants():
    code = f"""
import os, subprocess, sys
sys.path.insert(0, {ROOT!r})
from perfbench.run import become_subreaper, stop_descendants
become_subreaper()
# the child exits at once and leaves a grandchild running, as a raylet
# killed before its workers does
pid = int(subprocess.run(["bash", "-c", "sleep 1000 >/dev/null 2>&1 & echo $!"], capture_output=True,
                         text=True).stdout)
left = stop_descendants(grace_s=0.5, limit_s=3.0)
print(left, os.path.exists(f"/proc/{{pid}}"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.split() == ["[]", "False"]


TEXTS = [
    "t00001 t00002 t00001 t00003",
    "t00002 t00004",
    "t00001 t00005 t00006 t00007 t00008",
    "t00001 t00002",
    "t00009 t00001 t00001 t00001",
]


@pytest.fixture(scope="module")
def engine_and_reference(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index_local

    d = tmp_path_factory.mktemp("idx")
    urls = [f"u{i}" for i in range(len(TEXTS))]
    path = str(d / "pages.parquet")
    pq.write_table(pa.table({"url": urls, "text": TEXTS}), path)
    build_index_local([path], str(d / "index"), BuildConfig())
    ref = RefIndex()
    ref.add(urls, TEXTS)
    return IndexSearcher(str(d / "index")), ref, urls


def _engine_top(searcher, terms, k):
    from lucene_7_x_9_x_ray.search import queries as Q

    q = Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery(t)) for t in terms])
    return searcher.search(q, k=k)


def test_reference_agrees_with_engine(engine_and_reference):
    searcher, ref, urls = engine_and_reference
    for terms in (["t00001"], ["t00001", "t00002"], ["t00004", "t00009", "t00005"]):
        got = engine_hits(_engine_top(searcher, terms, 3), urls)
        assert same_hits(got, ref.topk(terms, 3))


def test_check_flags_swapped_doc_and_one_ulp(engine_and_reference):
    searcher, ref, urls = engine_and_reference
    td = _engine_top(searcher, ["t00001", "t00002"], 3)
    want = ref.topk(["t00001", "t00002"], 3)
    assert same_hits(engine_hits(td, urls), want)

    swapped = np.array(td.doc_ids).copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert not same_hits(engine_hits(SimpleNamespace(doc_ids=swapped, scores=td.scores), urls), want)

    bumped = np.array(td.scores, dtype=np.float32).copy()
    bumped[1] = np.nextafter(bumped[1], np.float32(np.inf))
    assert not same_hits(engine_hits(SimpleNamespace(doc_ids=td.doc_ids, scores=bumped), urls), want)
