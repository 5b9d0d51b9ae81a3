"""The benchmark's workloads. Each generates its inputs from the seed, sets
up, runs an untimed warm-up, then runs whole rounds until the run's time
is used (and at least a minimum number of rounds), and checks every
answer against ``reference``.

- search: set-up runs the ingest path (build_index -> merge_index ->
  open_searcher) over more than 65,536 short pages, so the head term
  crosses the impact-skipping df cut-off; then one closed-loop client
  queries the merged index. No deletes.
- curate: the training-data operators over a documents table with planted
  exact, near and line duplicates; the cleaned corpus is then indexed and
  queried, as the step that consumes it, and updated while it serves
  (``IndexUpdates``: append / delete / reopen cycles with a query burst
  after each, then tiered compaction and a reclaiming merge).

Every workload reports the same end-to-end metrics (see README.md for
what each means per workload); layer metrics come from ``spans``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .reference import RefIndex, engine_hits, frames_equal, same_hits, shingle_jaccard


class Run:
    """State of one benchmark run, shared by the workloads."""

    def __init__(self, seed: int, seconds: float, work_dir: str, size: str = "full"):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.toy = size == "toy"
        self.attempted = 0
        self.failed = 0
        self.windows: list[tuple[float, float]] = []
        self.rounds = 0
        self.round_s: list[float] = []
        self.layers: dict[str, float] = {}
        self.latencies_ms: list[float] = []
        self.query_busy_s = 0.0
        self.phases: dict[str, float] = {}
        # rounds a layer's span times are divided by, where not self.rounds
        self.per_round: dict[str, int] = {}
        self._mark = time.perf_counter()

    def phase(self, name: str) -> None:
        """Record the wall time since the previous phase ended (host block)."""
        now = time.perf_counter()
        self.phases[name] = self.phases.get(name, 0.0) + now - self._mark
        self._mark = now

    def path(self, *parts: str) -> str:
        return os.path.join(self.work_dir, *parts)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def timed_rounds(self, round_fn, min_rounds: int) -> None:
        """Run ``round_fn(i)`` in whole rounds until the run's seconds are
        used and ``min_rounds`` have run. ``round_fn`` marks its timed
        parts with ``self.window``."""
        self.phase("warmup")
        gc.collect()  # set-up garbage would otherwise be collected mid-round
        t_end = time.perf_counter() + self.seconds
        i = 0
        while i < min_rounds or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            round_fn(i)
            self.round_s.append(time.perf_counter() - t0)
            i += 1
        self.rounds = i
        self.phase("measure")

    def window(self, t0: float, t1: float) -> None:
        self.windows.append((t0, t1))


# --- inputs ------------------------------------------------------------------


def make_pages(n: int, seed: int, tag: str, vocab: int, mean_tokens: float) -> pa.Table:
    """Seeded Zipf pages (sources.pages.generate_pages) with urls unique
    across every batch of the run."""
    from lucene_7_x_9_x_ray.sources.pages import generate_pages

    t = generate_pages(n, seed=seed, vocab_size=vocab, mean_tokens=mean_tokens,
                       dup_url_frac=0.0, with_html=False)
    urls = pa.array([f"https://bench.example/{tag}/{i}" for i in range(n)], pa.string())
    return t.set_column(t.schema.get_field_index("url"), "url", urls)


def write_pages(table: pa.Table, path: str, row_group: int) -> str:
    pq.write_table(table, path, row_group_size=row_group)
    return path


# Query mix. The shapes are the repository's BM25 reference query set
# (pipelines/flagship.py): the term counts of the eight SHOULD queries of
# BM25_QUERY_SPECS (1, 1, 1, 1, 2, 3, 5 and 2 terms; the searchAfter page
# counts as one more 2-term query) and the one pure-MUST query of
# BOOLEAN_COUNT_SPECS (a 2-term conjunction). That set asks for k = 10
# only; every shape runs at k = 10 and at k = 100, each equally often, and
# each term comes from the head, torso or tail band with equal chance.
# Nothing here is a measured traffic share: the mix is the reference set
# crossed with the two k and the three bands, every cell equally often.
SHAPES = ((1, False),) * 4 + ((2, False), (3, False), (5, False), (2, False), (2, True))
KS = (10, 100)


def vocab_bands(vocab: int) -> tuple[tuple[int, int], ...]:
    """[lo, hi) Zipf ranks (rank = vocabulary index) of the head, torso and
    tail: equal thirds of the log-rank axis."""
    a, b = round(vocab ** (1 / 3)), round(vocab ** (2 / 3))
    return ((0, a), (a, b), (b, vocab))


def _shares(n: int, shares, rng) -> np.ndarray:
    """n labels with exactly the given shares (rounded), in seeded order."""
    counts = [int(round(n * s)) for s in shares[:-1]]
    counts.append(n - sum(counts))
    return rng.permutation(np.repeat(np.arange(len(shares)), counts))


def query_mix(seed: int, vocab: int, n: int) -> list[tuple[tuple[str, ...], int, bool]]:
    """Seeded list of n (terms, k, is_conjunction); n is a multiple of the
    number of (shape, k) cells. The mix is stratified, so seeds differ in
    which terms they draw but not in how much work the mix is: every cell
    has n / cells queries, a cell's term slots fall in equal thirds on the
    three bands, and the head slots take the head ranks in turn, cell by
    cell, so each cell gets the same head ranks whatever the seed (the
    single-term cells get rank 0, the impact-skipping path, the same number
    of times)."""
    cells = [(terms, conj, k) for terms, conj in SHAPES for k in KS]
    if n % len(cells):
        raise ValueError(f"query count {n} is not a multiple of {len(cells)}")
    per = n // len(cells)
    rng = np.random.default_rng(seed)
    bands = vocab_bands(vocab)
    head = bands[0][1]
    next_head = 0
    mix = []
    for terms, conj, k in cells:
        for row in _shares(per * terms, (1 / 3, 1 / 3, 1 / 3), rng).reshape(per, terms):
            ranks: list[int] = []
            for band in row:
                if band == 0:
                    r, next_head = next_head % head, next_head + 1
                else:
                    r = int(rng.integers(*bands[band]))
                    while r in ranks:
                        r = int(rng.integers(*bands[band]))
                ranks.append(r)
            mix.append((tuple(f"t{r:05d}" for r in ranks), k, conj))
    return [mix[i] for i in rng.permutation(len(mix))]


def to_query(spec):
    from lucene_7_x_9_x_ray.search import queries as Q

    terms, _k, conj = spec
    if len(terms) == 1:
        return Q.TermQuery(terms[0])
    occur = Q.MUST if conj else Q.SHOULD
    return Q.BooleanQuery.build([(occur, Q.TermQuery(t)) for t in terms])


def doc_urls(searcher) -> list[str]:
    """url of every global docID of the searcher's commit."""
    from lucene_7_x_9_x_ray.state.segment import SegmentReader

    urls: list[str] = [""] * searcher.manifest.doc_count
    for s in searcher.manifest.segments:
        r = SegmentReader(os.path.join(searcher.index_dir, "segments", s["seg_name"]))
        col = r.docmap()["url"].to_pylist()
        urls[s["doc_base"] : s["doc_base"] + len(col)] = col
    return urls


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def index_counts(idx: str) -> dict:
    """Work counts of one build + merge, from the index it left."""
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest, load_json

    shards = load_json(os.path.join(idx, "merged", "merged.json"))["shards"]
    sizes = [s["sum_doc_freq"] for s in shards]
    return {
        "build.tokens": IndexManifest.load(idx).sum_total_term_freq,
        "build.bytes_written": dir_bytes(os.path.join(idx, "segments")),
        "merge.terms": sum(s["n_terms"] for s in shards),
        "merge.bytes_written": dir_bytes(os.path.join(idx, "merged")),
        "merge.shard_skew": max(sizes) / statistics.median(sizes),
    }


def query_burst(run: Run, searcher, queries, specs, timed: bool = True) -> list:
    """Closed loop: each query is sent when the previous one returned."""
    out = []
    t_start = time.perf_counter()
    for q, spec in zip(queries, specs):
        t0 = time.perf_counter()
        td = searcher.search(q, k=spec[1])
        if timed:
            run.latencies_ms.append((time.perf_counter() - t0) * 1000.0)
        out.append(td)
    if timed:
        t_end = time.perf_counter()
        run.query_busy_s += t_end - t_start
        run.window(t_start, t_end)
    return out


def check_burst(run: Run, ref: RefIndex, specs, results, urls, cache: dict | None = None,
                tag=None) -> None:
    """Check each result against the reference answer to its query spec.
    ``cache`` keeps answers by (tag, spec), for index states that repeat."""
    for spec, td in zip(specs, results):
        key = (tag, spec)
        want = cache.get(key) if cache is not None else None
        if want is None:
            want = ref.topk(spec[0], spec[1], conjunction=spec[2])
            if cache is not None:
                cache[key] = want
        run.check(same_hits(engine_hits(td, urls), want))


def median_setup(run: Run, setup_fn, repeats: int = 3):
    """Run ``setup_fn`` ``repeats`` times; return (median seconds, last
    result). Each repeat starts from nothing."""
    times, result = [], None
    for i in range(repeats):
        t0 = time.perf_counter()
        result = setup_fn(i)
        times.append(time.perf_counter() - t0)
    run.phase("setup")
    return statistics.median(times), result


# --- search ------------------------------------------------------------------

# the set-up is the ingest path (build -> merge -> open of every page); its
# repeats are the rounds of the build and merge layer metrics
SEARCH_SETUPS = 2
SEARCH = {"full": dict(pages=88_000, segments=2, tokens=20.0, vocab=10_000, queries=576),
          "toy": dict(pages=2_000, segments=2, tokens=20.0, vocab=2_000, queries=108)}


def search(run: Run) -> dict:
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import merge_index

    p = SEARCH["toy" if run.toy else "full"]
    n = p["pages"]
    index_s = []

    def setup(i):
        pages = make_pages(n, run.seed, "search", p["vocab"], p["tokens"])
        path = write_pages(pages, run.path(f"pages{i}.parquet"), 8192)
        idx = run.path(f"idx{i}")
        t0 = time.perf_counter()
        build_index([path], idx, BuildConfig(target_docs_per_segment=-(-n // p["segments"])))
        merge_index(idx)
        searcher = open_searcher(idx)
        t1 = time.perf_counter()
        run.window(t0, t1)
        index_s.append(t1 - t0)
        for name, v in index_counts(idx).items():
            layer_counts.setdefault(name, []).append(v)
        return pages, idx, searcher

    layer_counts: dict = {}
    setup_s, (pages, idx, searcher) = median_setup(run, setup, repeats=SEARCH_SETUPS)
    for name, values in layer_counts.items():
        run.layers[name] = statistics.median(values)
    run.per_round["build"] = run.per_round["merge"] = SEARCH_SETUPS
    specs = query_mix(run.seed, p["vocab"], p["queries"])
    queries = [to_query(s) for s in specs]
    # a whole untimed pass: the first pass over a mix runs far slower than
    # the passes after it, for every distinct term it touches
    query_burst(run, searcher, queries, specs, timed=False)

    results: list = []
    run.timed_rounds(lambda i: results.extend(query_burst(run, searcher, queries, specs)),
                     min_rounds=3)

    ref = RefIndex()
    ref.add(pages["url"].to_pylist(), pages["text"].to_pylist())
    urls = doc_urls(searcher)
    cache: dict = {}
    for start in range(0, len(results), len(specs)):
        check_burst(run, ref, specs, results[start : start + len(specs)], urls, cache)
    return {
        "setup_s": setup_s,
        "docs_per_s": n / statistics.median(index_s),
        "index_bytes_per_doc": dir_bytes(idx) / n,
    }


# --- index updates -----------------------------------------------------------

UPDATES = {"full": dict(batch=100, cycles=4, queries=576),
           "toy": dict(batch=25, cycles=2, queries=72)}
DELETE_SHARE = 0.04  # of live documents, per cycle
RECLAIM_PCT = 0.05  # deleted / doc_count above which reclaim_deletes rewrites


class IndexUpdates:
    """Reads beside writes on a per-segment index: ``cycles`` cycles of
    append_index (a batch of new pages), delete_docs (a share of the live
    documents), open_if_changed and a query burst, then plan_compactions /
    compact_index, reclaim_deletes and a reopen. Every answer is checked.
    A round must start from the same index state each time, because
    appending to an index after compact_index or reclaim_deletes has
    renamed its segments fails."""

    def __init__(self, run: Run, vocab: int, tokens: float):
        from lucene_7_x_9_x_ray.stages.compact import CompactionPolicy

        p = UPDATES["toy" if run.toy else "full"]
        self.run = run
        self.cycles, batch = p["cycles"], p["batch"]
        self.batches = []
        for c in range(self.cycles):
            new = make_pages(batch, run.seed * 1000 + c, f"b{c}", vocab, tokens)
            self.batches.append((new, write_pages(new, run.path(f"batch{c}.parquet"), batch)))
        mix = query_mix(run.seed + 1, vocab, p["queries"])
        per = len(mix) // self.cycles
        self.chunks = [mix[c * per : (c + 1) * per] for c in range(self.cycles)]  # cycle c's burst
        self.queries = [[to_query(s) for s in c] for c in self.chunks]
        # the `cycles` small appended segments of a round merge into one;
        # the base segments are larger than max_merged_docs and stay
        self.policy = CompactionPolicy(max_merge_at_once=self.cycles,
                                       max_merged_docs=self.cycles * batch,
                                       min_segments_to_merge=self.cycles)
        self.refresh_ms: list[float] = []
        self.compact_s: list[float] = []
        self.rewritten: list[int] = []
        self.segments_max = 0
        self.cache: dict = {}

    def cycle(self, idx, cfg, ref, searcher, c: int, rng, timed: bool):
        from lucene_7_x_9_x_ray.search.merged import open_if_changed
        from lucene_7_x_9_x_ray.stages.build import append_index
        from lucene_7_x_9_x_ray.state.livedocs import delete_docs

        run = self.run
        new, path = self.batches[c]
        live = ref.live_positions()
        dels = np.sort(rng.choice(live, size=int(len(live) * DELETE_SHARE), replace=False))
        t0 = time.perf_counter()
        append_index([path], idx, cfg)
        delete_docs(idx, dels)
        searcher = open_if_changed(searcher) or searcher
        t1 = time.perf_counter()
        ref.add(new["url"].to_pylist(), new["text"].to_pylist())
        ref.delete(dels)
        results = query_burst(run, searcher, self.queries[c], self.chunks[c], timed=timed)
        if timed:
            run.window(t0, t1)
            self.refresh_ms.append((t1 - t0) * 1000.0)
            self.segments_max = max(self.segments_max, len(searcher.manifest.segments))
            check_burst(run, ref, self.chunks[c], results, doc_urls(searcher), self.cache, tag=c)
        return searcher

    def compact(self, idx, ref, searcher) -> None:
        from lucene_7_x_9_x_ray.search.merged import open_if_changed
        from lucene_7_x_9_x_ray.stages.compact import compact_index, plan_compactions, reclaim_deletes
        from lucene_7_x_9_x_ray.state.livedocs import load_tombstones
        from lucene_7_x_9_x_ray.state.manifest import IndexManifest

        run = self.run
        before = {x["seg_name"] for x in IndexManifest.load(idx).segments}
        t0 = time.perf_counter()
        if plan_compactions(IndexManifest.load(idx), self.policy):
            compact_index(idx, self.policy)
        reclaim_deletes(idx, deletes_pct_threshold=RECLAIM_PCT)
        searcher = open_if_changed(searcher) or searcher
        t1 = time.perf_counter()
        if len(load_tombstones(idx)) == 0:
            ref.reclaim()
        run.window(t0, t1)
        self.compact_s.append(t1 - t0)
        after = IndexManifest.load(idx).segments
        self.rewritten.append(sum(dir_bytes(os.path.join(idx, "segments", x["seg_name"]))
                                  for x in after if x["seg_name"] not in before))
        # the compacted, renumbered index answers the same queries
        results = query_burst(run, searcher, self.queries[-1], self.chunks[-1], timed=False)
        check_burst(run, ref, self.chunks[-1], results, doc_urls(searcher), self.cache,
                    tag="compacted")

    def warm_up(self, idx, cfg, ref, searcher) -> None:
        """One untimed cycle and a forced reclaim."""
        from lucene_7_x_9_x_ray.stages.compact import reclaim_deletes

        self.cycle(idx, cfg, ref, searcher, 0, np.random.default_rng(self.run.seed + 7), timed=False)
        reclaim_deletes(idx, force=True)

    def round(self, idx, cfg, ref, searcher) -> None:
        rng = np.random.default_rng(self.run.seed + 7)
        for c in range(self.cycles):
            searcher = self.cycle(idx, cfg, ref, searcher, c, rng, timed=True)
        self.compact(idx, ref, searcher)

    def report(self) -> None:
        self.run.layers.update({
            "refresh_p50_ms": statistics.median(self.refresh_ms),
            "compact_s": statistics.median(self.compact_s),
            "compact.bytes_rewritten": statistics.median(self.rewritten),
            "nrt.segments_max": self.segments_max,
        })


# --- curate ------------------------------------------------------------------

CURATE = {"full": dict(docs=1500, tokens=100.0, vocab=3_000, queries=1008),
          "toy": dict(docs=200, tokens=80.0, vocab=1_000, queries=54)}
# the first Zipf ranks become the words the quality and language gates
# look for, so the cleaning pass keeps a real share of the corpus
WORDS = ("the", "table", "a", "row", "key", "of", "column", "hash", "and", "scan",
         "value", "window", "to", "batch", "in", "stream", "is", "spark", "it")
PLANT_SHARE = 0.03  # of docs, for each of exact, near and line duplicates
NEAR_EDIT_SHARE = 0.04  # tokens replaced in a near duplicate


def make_documents(n: int, seed: int, vocab: int, mean_tokens: float):
    """Seeded documents table with planted duplicates; returns the table
    and the planted (source, copy) pairs by kind."""
    from lucene_7_x_9_x_ray.pipelines.dedup import LINE_DEDUP_W

    pages = make_pages(n, seed, "doc", vocab, mean_tokens)
    rename = {f"t{i:05d}": w for i, w in enumerate(WORDS)}
    toks = [[rename.get(t, t) for t in text.split(" ")] for text in pages["text"].to_pylist()]
    rng = np.random.default_rng(seed + 1)
    m = max(1, int(n * PLANT_SHARE))
    copies = rng.choice(np.arange(n // 2, n), size=3 * m, replace=False)
    planted = {"exact": [], "near": [], "line": []}
    for kind, dsts in zip(planted, np.split(copies, 3)):
        for dst in dsts:
            src = int(rng.integers(0, n // 2))
            dst = int(dst)
            if kind == "exact":
                toks[dst] = list(toks[src])
            elif kind == "near":
                t = list(toks[src])
                for j in rng.choice(len(t), size=max(1, int(len(t) * NEAR_EDIT_SHARE)), replace=False):
                    t[j] = f"t{int(rng.integers(len(WORDS), vocab)):05d}"
                toks[dst] = t
            else:
                w = LINE_DEDUP_W
                if len(toks[src]) < w or len(toks[dst]) < w:
                    continue
                a = int(rng.integers(0, len(toks[src]) // w)) * w
                b = int(rng.integers(0, len(toks[dst]) // w)) * w
                toks[dst][b : b + w] = toks[src][a : a + w]
            planted[kind].append((src, dst))
    texts = [" ".join(t) for t in toks]
    table = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pages["lang"],
        "source": pa.array([f"src{i % 4}" for i in range(n)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    return table, planted


CURATE_OPS = ("exact_dedup", "line_dedup", "minhash_lsh", "quality_filter",
              "pack_sequences", "classify_nb", "corpus_clean")


def _curate_fns():
    from lucene_7_x_9_x_ray.pipelines import classify, corpus, curation, dedup, textops

    return {
        "exact_dedup": dedup.q_exact_dedup,
        "line_dedup": dedup.q_line_dedup,
        "minhash_lsh": dedup.q_minhash_lsh_pairs,
        "quality_filter": textops.q_quality_filter,
        "pack_sequences": curation.q_pack_sequences,
        "classify_nb": classify.q_classify_nb_corpus,
        "corpus_clean": corpus.q_corpus_clean,
    }


def _curate_oracles(sf_dir: str) -> dict:
    """Expected output of every op with a shipped DuckDB oracle."""
    import duckdb

    from lucene_7_x_9_x_ray.pipelines import corpus, curation, dedup, textops
    from lucene_7_x_9_x_ray.pipelines import oracles as O

    sql = {
        "exact_dedup": dedup.oracle_exact_dedup_sql(),
        "line_dedup": dedup.oracle_line_dedup_sql(),
        "quality_filter": textops.oracle_quality_filter_sql(),
        "pack_sequences": curation.oracle_pack_sequences_sql(),
        "classify_nb": O.classify_nb_corpus_sql(),
        "corpus_clean": corpus.oracle_corpus_clean_sql(),
    }
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")  # steadier on a shared host; part of set-up
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')")
        return {op: con.execute(q).fetch_arrow_table() for op, q in sql.items()}
    finally:
        con.close()


def _curate_ok(op: str, out: pa.Table, want: dict, texts: list[str], planted: dict) -> bool:
    """Oracle equality plus the planted-duplicate properties."""
    from lucene_7_x_9_x_ray.pipelines.dedup import JACCARD_THRESHOLD

    if op in want and not frames_equal(out, want[op]):
        return False
    if op == "exact_dedup":
        keep = dict(zip(out["text_md5"].to_pylist(), out["keep_doc_id"].to_pylist()))
        for src, dst in planted["exact"]:
            k = keep.get(hashlib.md5(texts[dst].encode()).hexdigest())
            if k is None or k == dst or k > src:
                return False
    elif op == "corpus_clean":
        kept = set(out["doc_id"].to_pylist())
        if any(dst in kept for _src, dst in planted["exact"]):
            return False
    elif op == "line_dedup":
        rows = {d: (nl, nk) for d, nl, nk in zip(out["doc_id"].to_pylist(), out["n_lines"].to_pylist(),
                                                 out["n_kept"].to_pylist())}
        if any(rows[dst][1] >= rows[dst][0] for _src, dst in planted["line"]):
            return False
    elif op == "minhash_lsh":
        for a, b, j in zip(out["doc_a"].to_pylist(), out["doc_b"].to_pylist(), out["jaccard_r"].to_pylist()):
            true_j = shingle_jaccard(texts[a], texts[b])
            if true_j < JACCARD_THRESHOLD or abs(true_j - j) > 5e-7:
                return False
    return True


def curate(run: Run) -> dict:
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index

    p = CURATE["toy" if run.toy else "full"]
    n = p["docs"]
    fns = _curate_fns()

    def setup(i):
        table, planted = make_documents(n, run.seed, p["vocab"], p["tokens"])
        sf = run.path(f"docs{i}")
        os.makedirs(sf)
        pq.write_table(table, os.path.join(sf, "documents.parquet"))
        return table, planted, sf, _curate_oracles(sf)

    def serve(docs: pa.Table, name: str):
        """Index a documents table in 2 segments and open it per segment;
        returns the index, its build config, a reference and a searcher."""
        docs = docs.select(["doc_id", "text", "lang"])
        docs = docs.append_column("url", pa.array([f"doc:{d}" for d in docs["doc_id"].to_pylist()],
                                                  pa.string()))
        # a segment ends at a row-group boundary: two equal row groups give
        # two equal segments, each larger than the updates' merges
        half = -(-docs.num_rows // 2)
        path = write_pages(docs, run.path(f"{name}.parquet"), half)
        idx = run.path(f"{name}_idx")
        cfg = BuildConfig(target_docs_per_segment=half)
        build_index([path], idx, cfg)
        ref = RefIndex()
        ref.add(docs["url"].to_pylist(), docs["text"].to_pylist())
        return idx, cfg, ref, open_searcher(idx, prefer_merged=False)

    setup_s, (table, planted, sf, want) = median_setup(run, setup)
    texts = table["text"].to_pylist()
    specs = query_mix(run.seed, p["vocab"], p["queries"])
    queries = [to_query(s) for s in specs]

    warm_sf = run.path("warm_docs")
    os.makedirs(warm_sf)
    warm_table, _ = make_documents(max(60, n // 8), run.seed + 1, p["vocab"], p["tokens"])
    pq.write_table(warm_table, os.path.join(warm_sf, "documents.parquet"))
    for op in CURATE_OPS:
        fns[op](warm_sf)
    updates = IndexUpdates(run, p["vocab"], p["tokens"])
    warm_idx, warm_cfg, warm_ref, warm_searcher = serve(warm_table, "warm")
    updates.warm_up(warm_idx, warm_cfg, warm_ref, warm_searcher)
    shutil.rmtree(warm_idx)

    round_s, sizes = [], []
    op_s = {op: [] for op in CURATE_OPS}
    op_rows = {op: 0 for op in CURATE_OPS}

    def one(i):
        outs = {}
        t_round = time.perf_counter()
        for op in CURATE_OPS:
            t0 = time.perf_counter()
            outs[op] = fns[op](sf)
            op_s[op].append(time.perf_counter() - t0)
            op_rows[op] += outs[op].num_rows
        t1 = time.perf_counter()
        run.window(t_round, t1)
        round_s.append(t1 - t_round)
        for op in CURATE_OPS:
            run.check(_curate_ok(op, outs[op], want, texts, planted))
        # the cleaned corpus is what gets indexed and served next, and
        # then updated while it serves
        clean = table.take(pa.array(outs["corpus_clean"]["doc_id"].to_numpy()))
        idx, cfg, ref, searcher = serve(clean, f"clean{i}")
        sizes.append(dir_bytes(idx) / clean.num_rows)
        query_burst(run, searcher, queries, specs, timed=False)
        results = query_burst(run, searcher, queries, specs)
        check_burst(run, ref, specs, results, doc_urls(searcher))
        updates.round(idx, cfg, ref, searcher)
        shutil.rmtree(idx)

    run.timed_rounds(one, min_rounds=1)
    for op in CURATE_OPS:
        run.layers[f"curate.{op}_s"] = statistics.median(op_s[op])
        run.layers[f"curate.{op}_rows"] = op_rows[op] / run.rounds
    updates.report()
    return {
        "setup_s": setup_s,
        "docs_per_s": n / statistics.median(round_s),
        "index_bytes_per_doc": statistics.median(sizes),
    }


WORKLOADS = {"search": search, "curate": curate}
