"""The stats fan-out helper (stages/fanout.py): every first-wave task
starts at once, and every index stage that fans out goes through it."""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# four tasks meet at a filesystem barrier; a task that waits 15 s without
# seeing the other three reports met=False. Ray starts the way perfbench
# does: 4 CPUs and a 512 MiB object store, whose default per-task output
# budget (2 x 128 MiB) admits one first-wave task at a time.
_BARRIER_SCRIPT = r"""
import json, os, sys, time

import ray
import ray.data

from lucene_7_x_9_x_ray.stages.fanout import fan_out

barrier = sys.argv[1]
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR",
         log_to_driver=False, object_store_memory=512 * 1024 * 1024)
ctx = ray.data.DataContext.get_current()
ctx.enable_progress_bars = False
before = ctx.target_max_block_size


def meet(item):
    open(os.path.join(barrier, str(item["i"])), "w").close()
    deadline = time.monotonic() + 15
    while len(os.listdir(barrier)) < 4 and time.monotonic() < deadline:
        time.sleep(0.05)
    return {"i": item["i"], "met": len(os.listdir(barrier)) == 4}


rows = sorted(fan_out(meet, [{"i": i} for i in range(4)]), key=lambda r: r["i"])
print(json.dumps({"met": [r["met"] for r in rows], "before": before,
                  "after": ray.data.DataContext.get_current().target_max_block_size}))
ray.shutdown()
"""


def test_first_wave_starts_every_task(tmp_path):
    barrier = tmp_path / "barrier"
    barrier.mkdir()
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, RAY_ADDRESS="local",
               PYTHONPATH=REPO + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", _BARRIER_SCRIPT, str(barrier)], cwd=str(tmp_path),
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    got = json.loads([ln for ln in out.stdout.splitlines() if ln.startswith("{")][-1])
    assert got["met"] == [True] * 4
    # the hint lives on the fan-out Dataset's own context only
    assert got["after"] == got["before"]


def test_index_stages_fan_out_through_the_helper(ray_session, tmp_path, monkeypatch):
    """build, append, the pull merge, compaction and reclaim (with its
    retention pre-count) each fan out, and every ``from_items`` they run
    is the helper's, so none skips the block-size hint."""
    import numpy as np
    import ray.data

    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages import build, compact, fanout, merge
    from lucene_7_x_9_x_ray.state.livedocs import delete_docs
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest

    calls = {"fan_out": 0, "from_items": 0}
    real_fan_out, real_from_items = fanout.fan_out, ray.data.from_items

    def counting_fan_out(*args, **kwargs):
        calls["fan_out"] += 1
        return real_fan_out(*args, **kwargs)

    def counting_from_items(*args, **kwargs):
        calls["from_items"] += 1
        return real_from_items(*args, **kwargs)

    for mod in (build, merge, compact):
        monkeypatch.setattr(mod, "fan_out", counting_fan_out)
    monkeypatch.setattr(ray.data, "from_items", counting_from_items)

    def through_helper(stage, *args, **kwargs):
        calls.update(fan_out=0, from_items=0)
        stage(*args, **kwargs)
        assert calls["fan_out"] >= 1, stage.__name__
        assert calls["from_items"] == calls["fan_out"], stage.__name__
        return calls["fan_out"]

    before = ray.data.DataContext.get_current().target_max_block_size
    paths = []
    for i, n in enumerate([300, 100]):
        paths.append(str(tmp_path / f"pages_{i}.parquet"))
        write_pages_parquet(generate_pages(n, seed=50 + i, vocab_size=60, mean_tokens=22),
                            paths[-1], rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    cfg = build.BuildConfig(target_docs_per_segment=100)

    through_helper(build.build_index, [paths[0]], idx, cfg)
    through_helper(build.append_index, [paths[1]], idx, cfg)
    through_helper(merge.merge_index, idx, merge.MergeConfig(n_shards=4))
    n_segs = len(IndexManifest.load(idx).segments)
    through_helper(compact.compact_index, idx, compact.CompactionPolicy(max_merge_at_once=4))
    assert len(IndexManifest.load(idx).segments) < n_segs
    delete_docs(idx, np.arange(0, 400, 5))
    # the retention pre-count and the rewrite: two fan-outs
    assert through_helper(compact.reclaim_deletes, idx, force=True,
                          retention_query=Q.TermQuery("t00000")) == 2
    assert ray.data.DataContext.get_current().target_max_block_size == before
