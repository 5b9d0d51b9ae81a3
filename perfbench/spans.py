"""Span timers for the traced run.

``install`` wraps public functions of the engine's ``stages``, ``search``,
``state`` and ``functions`` modules with timers, in the benchmark process
and, through Ray's ``worker_process_setup_hook`` (``install_worker``), in
every Ray worker process. The engine itself is not changed: each wrapper
replaces a module or class attribute, in every loaded engine module that
binds it, so callers that look the name up at call time reach the timer.

A span records its name, start, end and self time (its duration minus the
time of the spans it encloses). A leaf name without a dot ("decode",
"encode", "fsync") takes the stage of the enclosing span, so the same
codec call counts as ``build.encode`` under a segment build and as
``merge.encode`` under a merge shard. Spans stay in memory; a worker
appends its spans to ``<trace dir>/<pid>.jsonl`` whenever its outermost
span closes, and the benchmark reads those files at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

PKG = "lucene_7_x_9_x_ray"
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# (module, attribute, span name). "Class.method" patches a class attribute;
# a plain function is patched in every engine module that binds it, except
# those in ONLY_IN, patched only in the module named (scorers.eval_query
# recurses into itself, and only the searcher's top-level call is a layer).
TARGETS = [
    # segment build (Ray workers)
    ("stages.build", "build_index", "build.stage"),
    ("stages.build", "build_one_segment", "build.segment"),
    ("functions.analysis", "Analyzer.tokenize_batch", "build.analyze"),
    ("state.segment", "invert_tokens_coded", "build.invert"),
    ("state.segment", "invert_texts_coded", "build.invert"),
    ("functions.codec", "encode_segment_terms", "encode"),
    ("state.segment", "encode_term_table", "encode"),
    ("state.manifest", "fsync_dir_files", "fsync"),
    # term-range merge (driver plan/finalize, worker shards)
    ("stages.merge", "merge_index", "merge.stage"),
    ("stages.merge", "collect_term_stats", "merge.plan"),
    ("stages.merge", "plan_merge_ranges", "merge.plan"),
    ("stages.merge", "plan_merge_sampled", "merge.plan"),
    ("stages.merge", "assemble_range_group", "merge.assemble"),
    ("stages.merge", "assemble_hot_group", "merge.assemble"),
    ("stages.merge", "write_merged_shard", "merge.write"),
    ("stages.merge", "_finalize", "merge.finalize"),
    ("state.segment", "TermPostings.decode", "decode"),
    ("state.segment", "TermPostings.decode_block", "decode"),
    # query path (in-process)
    ("search.searcher", "IndexSearcher._search_impl", "search.dispatch"),
    ("search.searcher", "IndexSearcher.collection_stats", "search.stats"),
    ("search.queries", "needs_rewrite", "search.rewrite"),
    ("search.queries", "rewrite", "search.rewrite"),
    ("search.wand", "probe_score_floor", "search.impact"),
    ("search.wand", "term_impact_topk", "search.impact"),
    ("search.wand", "maxscore_topk", "search.maxscore"),
    ("search.searcher", "eval_query", "search.bulk"),
    ("search.searcher", "IndexSearcher._live", "search.live"),
    ("search.topk", "topk_from_arrays", "search.collect"),
    ("search.topk", "merge_topk", "search.collect"),
    ("search.topk", "TopKCollector.result", "search.collect"),
    # NRT path
    ("stages.build", "append_index", "nrt.append"),
    ("state.livedocs", "delete_docs", "nrt.delete"),
    ("search.merged", "open_if_changed", "nrt.reopen"),
    # compaction (driver entry points, worker segment rewrites)
    ("stages.compact", "compact_index", "compact.tiered"),
    ("stages.compact", "reclaim_deletes", "compact.reclaim"),
    ("stages.compact", "merge_segment_group", "compact.group"),
    ("stages.compact", "reclaim_segment", "compact.segment"),
]

ONLY_IN = {"eval_query"}

# calls whose count is a per-layer metric: span name -> counter name
CALL_COUNTERS = {
    "search.impact": "search.impact_calls",
    "search.maxscore": "search.maxscore_calls",
    "search.bulk": "search.bulk_calls",
}


def _blocks(args) -> int:
    """Postings blocks a TermPostings.decode/decode_block call decodes."""
    if len(args) > 1:  # decode_block(self, bi)
        return 1
    return len(args[0].doc_widths)


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, flush_path: str | None = None):
        self.spans: list[tuple] = []  # (name, start, end, self_s)
        self.counts: list[tuple] = []  # (name, t, n)
        self.flush_path = flush_path
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn, name: str):
        counter = CALL_COUNTERS.get(name)
        is_decode = name == "decode"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            full = name
            if "." not in name:
                stage = stack[-1][0].split(".", 1)[0] if stack else "other"
                full = f"{stage}.{name}"
            frame = [full, 0.0]  # name, child time
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.spans.append((full, t0, t1, dur - frame[1]))
                if counter:
                    self.counts.append((counter, t0, 1))
                if is_decode:
                    self.counts.append((full.split(".", 1)[0] + ".blocks_decoded", t0, _blocks(args)))
                if not stack and self.flush_path:
                    self.flush()

        return timed

    def flush(self) -> None:
        with open(self.flush_path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(["s", *s]) + "\n")
            for c in self.counts:
                f.write(json.dumps(["c", *c]) + "\n")
        self.spans.clear()
        self.counts.clear()


def install(recorder: Recorder) -> None:
    """Wrap every TARGETS entry with ``recorder``'s timer."""
    mods = {m for m, _, _ in TARGETS}
    for m in sorted(mods):
        importlib.import_module(f"{PKG}.{m}")
    for modname, attr, name in TARGETS:
        mod = sys.modules[f"{PKG}.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, recorder.wrap(cls.__dict__[meth], name))
            continue
        orig = getattr(mod, attr)
        timed = recorder.wrap(orig, name)
        if attr in ONLY_IN:
            setattr(mod, attr, timed)
            continue
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith(PKG) and getattr(m, attr, None) is orig:
                setattr(m, attr, timed)
    # the pipelines' corpus-sized Dataset -> pandas round trips
    from ray.data import Dataset

    Dataset.to_pandas = recorder.wrap(Dataset.to_pandas, "curate.to_pandas")


def install_worker() -> None:
    """Ray worker_process_setup_hook: trace this worker into the run's
    trace directory."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir:
        install(Recorder(os.path.join(trace_dir, f"{os.getpid()}.jsonl")))


def load(recorder: Recorder, trace_dir: str) -> tuple[list, list]:
    """All spans and counters: this process's plus every worker file."""
    spans, counts = list(recorder.spans), list(recorder.counts)
    if os.path.isdir(trace_dir):
        for fn in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, fn)) as f:
                for line in f:
                    rec = json.loads(line)
                    (spans if rec[0] == "s" else counts).append(tuple(rec[1:]))
    return spans, counts


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi):
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, counts, windows) -> dict:
    """Self seconds per span name and totals per counter, over the spans
    that start inside one of the timed ``windows``; plus the scheduling
    time of the build and merge stages (stage wall time not covered by any
    of its task or driver-side spans)."""
    def inside(t: float) -> bool:
        return any(a <= t <= b for a, b in windows)

    self_s: dict[str, float] = {}
    kept = [s for s in spans if inside(s[1])]
    for name, _t0, _t1, own in kept:
        self_s[name] = self_s.get(name, 0.0) + own
    totals: dict[str, float] = {}
    for name, t, n in counts:
        if inside(t):
            totals[name] = totals.get(name, 0.0) + n
    for stage, stage_names, task_names in (
        ("build", ("build.stage", "nrt.append"), ("build.segment",)),
        ("merge", ("merge.stage",), ("merge.plan", "merge.assemble", "merge.write", "merge.finalize")),
    ):
        tasks = [(s[1], s[2]) for s in kept if s[0] in task_names]
        sched = 0.0
        for s in kept:
            if s[0] in stage_names:
                sched += (s[2] - s[1]) - _covered(tasks, s[1], s[2])
        self_s[f"{stage}.sched"] = sched
    return {"self_s": self_s, "counts": totals}
