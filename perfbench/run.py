"""Benchmark command line.

    python3 perfbench/run.py --workload <search|curate> \\
        --seed <n> --seconds <s> --trace <0|1> [--size toy]

Run it from the repository root or from anywhere else: the repository is
found from this file's location. It starts a fresh local Ray session sized
from the CPUs this process may run on, with the repository on the workers'
import path, runs one workload, shuts Ray down and removes everything it
wrote under ``.perfbench_work/``. The line before the last is a host block
(CPU count, load average, a fixed single-thread numpy kernel timed before
and after the run), which marks noisy runs and is not a metric. The last
line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). ``--size toy`` shrinks every input, for the tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG_DIR = os.path.join(ROOT, "lucene_7_x_9_x_ray")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("docs_per_s", "1/s"),
    ("index_bytes_per_doc", "B"),
)

# query latency of every workload: measured in every run, but reported with
# the per-layer metrics (traced run) because its run-to-run spread on a
# shared host reached 0.30 of the median, above any allowed bound
QUERY_METRICS = (
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
)

CURATE_LAYERS = tuple(
    (f"curate.{op}_{kind}", unit)
    for op in ("exact_dedup", "line_dedup", "minhash_lsh", "quality_filter",
               "pack_sequences", "classify_nb", "corpus_clean")
    for kind, unit in (("s", "s"), ("rows", "count"))
)

# span-derived layer times are self seconds per round of the workload
PER_LAYER = (
    ("build.segment_s", "s"), ("build.analyze_s", "s"), ("build.invert_s", "s"),
    ("build.encode_s", "s"), ("build.fsync_s", "s"), ("build.sched_s", "s"),
    ("build.tokens", "count"), ("build.bytes_written", "B"),
    ("merge.plan_s", "s"), ("merge.assemble_s", "s"), ("merge.decode_s", "s"),
    ("merge.encode_s", "s"), ("merge.write_s", "s"), ("merge.finalize_s", "s"),
    ("merge.sched_s", "s"), ("merge.terms", "count"), ("merge.bytes_written", "B"),
    ("merge.shard_skew", "ratio"),
    ("search.stats_s", "s"), ("search.rewrite_s", "s"), ("search.dispatch_s", "s"),
    ("search.impact_s", "s"), ("search.maxscore_s", "s"), ("search.bulk_s", "s"),
    ("search.live_s", "s"), ("search.collect_s", "s"), ("search.decode_s", "s"),
    ("search.impact_calls", "count"), ("search.maxscore_calls", "count"),
    ("search.bulk_calls", "count"), ("search.blocks_decoded", "count"),
    ("search.blocks_per_query", "count"),
    ("nrt.append_s", "s"), ("nrt.delete_s", "s"), ("nrt.reopen_s", "s"),
    ("nrt.segments_max", "count"), ("refresh_p50_ms", "ms"),
    ("compact.tiered_s", "s"), ("compact.reclaim_s", "s"), ("compact.bytes_rewritten", "B"),
    ("compact_s", "s"),
) + CURATE_LAYERS + (("curate.to_pandas_s", "s"),) + QUERY_METRICS

SPAN_COUNTERS = ("search.impact_calls", "search.maxscore_calls", "search.bulk_calls",
                 "search.blocks_decoded")


def host_kernel_ms() -> float:
    """Median of three timings of a fixed single-thread numpy kernel."""
    import numpy as np

    a = np.random.default_rng(0).random(4_000_000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(a)
        np.cumsum(a)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def _vmhwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class PeakRss:
    """Peak resident set of the program: the driver's own VmHWM (the
    in-process searcher, and the benchmark's reference checks) plus the
    largest VmHWM of any one Ray worker process. Ray's daemons (GCS,
    raylet, agents) are its runtime's baseline, not the engine's, and are
    left out. Workers are sampled once a second from a thread, because a
    worker may exit before the run ends."""

    def __init__(self):
        self.worker_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        while not self._stop.wait(1.0):
            self.sample()

    def sample(self) -> None:
        import psutil

        for proc in psutil.Process().children(recursive=True):
            try:
                if proc.name().startswith("ray::"):  # a worker's title
                    self.worker_kb = max(self.worker_kb, _vmhwm_kb(proc.pid))
            except (psutil.Error, OSError):
                continue  # a worker that exited between listing and reading

    def stop_mb(self) -> float:
        self._stop.set()
        self._thread.join()
        self.sample()
        return (_vmhwm_kb(os.getpid()) + self.worker_kb) / 1024.0


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``prctl(PR_SET_CHILD_SUBREAPER)``). ``ray.shutdown`` kills the raylet
    without waiting, and the workers it started exit on their own some
    time later; as a subreaper this process inherits them and can wait for
    each one to end."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: stop_descendants still waits for the ones it sees


def _reap_zombies() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float = 10.0, limit_s: float = 30.0) -> list[int]:
    """Wait until every process this one started, directly or not, has
    ended: first ``grace_s`` for them to exit by themselves, then SIGTERM,
    then SIGKILL from ``limit_s / 2`` on. Returns the pids still there
    after ``limit_s`` (none, in practice)."""
    import ray  # noqa: F401  (puts Ray's bundled psutil on sys.path)
    import psutil

    me = psutil.Process()
    t0 = time.monotonic()
    left: list = []
    while time.monotonic() - t0 < limit_s:
        _reap_zombies()
        left = me.children(recursive=True)
        if not left:
            return []
        waited = time.monotonic() - t0
        if waited >= grace_s:
            for proc in left:
                try:
                    proc.kill() if waited >= limit_s / 2 else proc.terminate()
                except psutil.Error:
                    continue  # it ended meanwhile
        time.sleep(0.1)
    return [proc.pid for proc in left]


def _warm_worker() -> int:
    import lucene_7_x_9_x_ray.stages.build  # noqa: F401  (the heavy imports)
    import lucene_7_x_9_x_ray.stages.merge  # noqa: F401

    return os.getpid()


def start_ray(ncpu: int, work: str, trace_dir: str | None) -> None:
    import ray
    import ray.data

    from perfbench.spans import TRACE_DIR_ENV

    path = os.environ.get("PYTHONPATH")
    env_vars = {"PYTHONPATH": ROOT + (os.pathsep + path if path else "")}
    runtime_env: dict = {"env_vars": env_vars}
    if trace_dir:
        env_vars[TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.spans.install_worker"
    kwargs = {}
    temp = os.path.join(work, "ray")
    # Ray's socket paths under its temp dir must fit in an AF_UNIX address
    # (107 bytes, ~62 of them Ray's own); a deeper checkout keeps Ray's
    # default temp dir
    if len(temp) <= 44:
        kwargs["_temp_dir"] = temp
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, runtime_env=runtime_env,
             object_store_memory=512 * 1024 * 1024, **kwargs)
    ray.data.DataContext.get_current().enable_progress_bars = False
    # start one worker per CPU and pay the engine's import cost and Ray
    # Data's first-use cost before set-up
    warm = ray.remote(_warm_worker)
    ray.get([warm.remote() for _ in range(ncpu)])
    ray.data.range(1).materialize()


def layer_metrics(run, recorder, trace_dir: str) -> dict:
    from perfbench import spans

    all_spans, counts = spans.load(recorder, trace_dir)
    summary = spans.summarize(all_spans, counts, run.windows)
    out = {}
    for name, _unit in PER_LAYER:
        per_round = 1.0 / max(1, run.per_round.get(name.split(".")[0], run.rounds))
        if name in run.layers:
            out[name] = float(run.layers[name])
        elif name in SPAN_COUNTERS:
            out[name] = summary["counts"].get(name, 0.0) * per_round
        elif name.endswith("_s"):
            out[name] = summary["self_s"].get(name[:-2], 0.0) * per_round
        else:
            out[name] = 0.0
    n_queries = len(run.latencies_ms)
    out["search.blocks_per_query"] = (
        summary["counts"].get("search.blocks_decoded", 0.0) / n_queries if n_queries else 0.0
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isdir(PKG_DIR):
        print(f"perfbench: engine package not found at {PKG_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import spans
    from perfbench.workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # a run stopped with SIGTERM still shuts Ray down and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    ncpu = len(os.sched_getaffinity(0))
    host = {"cpus": ncpu, "loadavg_before": os.getloadavg(), "kernel_ms_before": host_kernel_ms()}
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    trace_dir = os.path.join(work, "trace") if args.trace else None
    recorder = None
    import ray

    try:
        if trace_dir:
            os.makedirs(trace_dir)
            recorder = spans.Recorder()
            spans.install(recorder)
        run = Run(args.seed, args.seconds, work, args.size)
        start_ray(ncpu, work, trace_dir)
        peak_rss = PeakRss()
        run.phase("ray_start")
        e2e = WORKLOADS[args.workload](run)
        run.phase("check")
        lat = sorted(run.latencies_ms)
        e2e.update({
            "peak_rss_mb": peak_rss.stop_mb(),
            "queries_per_s": len(lat) / run.query_busy_s,
            "query_p50_ms": statistics.median(lat),
            # nearest rank: at least 10 samples lie beyond it from 1,000 on
            "query_p99_ms": lat[math.ceil(0.99 * len(lat)) - 1],
        })
        if trace_dir:
            run.layers.update({n: e2e[n] for n, _ in QUERY_METRICS})
            values = layer_metrics(run, recorder, trace_dir)
            metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        else:
            metrics = {n: {"value": float(e2e[n]), "unit": u} for n, u in END_TO_END}
    finally:
        ray.shutdown()
        stuck = stop_descendants()
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    run.phase("ray_stop")
    host.update({"loadavg_after": os.getloadavg(), "kernel_ms_after": host_kernel_ms(),
                 "rounds": run.rounds, "round_s": run.round_s, "queries": len(lat),
                 "phases_s": run.phases})
    if stuck:
        print(f"perfbench: processes {stuck} did not end", file=sys.stderr)
        return 3
    print(json.dumps({"host": host}))
    # every answer is checked, and a wrong one counts as a failed operation
    print(json.dumps({"correct": run.attempted > 0 and run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
