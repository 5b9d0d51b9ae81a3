"""Query serving over the memory-mapped index: two entry points, one
search core.

- ``serve(index_dir, specs)`` streams query rows through a Ray Data actor
  pool, ``map_batches(QueryScorer, concurrency=N)``: each actor opens the
  (merged, if fresh) index ONCE in ``__init__`` (term dicts in RAM,
  postings/norms memory-mapped — the MMapDirectory.java:95 equivalent) and
  scores its batches with ``searcher.search``. Batch throughput: the
  actors partition the query stream.
- ``ServingPool`` keeps one long-lived Ray actor per doc-range segment
  shard and fans every query out to all of them — the IndexSearcher
  LeafSlice model (IndexSearcher.java:222, 609-639) at the 10^12-doc
  deployment shape. createWeight (parse, dictionary rewrite, global
  statistics, the kth-score floor probe) runs once on the driver; each
  shard returns its top-k and the driver reduces (CollectorManager.reduce).

Both score through ``search.searcher.search_leaves``, so every path
shares one scorer-dispatch rule and one live-docs filter.
"""

from __future__ import annotations

import functools

import pyarrow as pa

from ..search import queries as Q
from ..search.merged import open_searcher

RESULT_SCHEMA = pa.schema(
    [("query_id", pa.string()), ("rank", pa.int64()), ("doc_id", pa.int64()),
     ("score", pa.float64())]
)
SPEC_SCHEMA = pa.schema(
    [("query_id", pa.string()), ("k", pa.int64()), ("terms", pa.list_(pa.string())),
     ("qstr", pa.string()), ("similarity", pa.string())]
)


def hit_rows(query_id: str, td) -> list[dict]:
    """RESULT_SCHEMA rows of one query's TopDocs, rank 1 first."""
    return [
        {"query_id": query_id, "rank": r, "doc_id": int(d), "score": float(s)}
        for r, (d, s) in enumerate(zip(td.doc_ids, td.scores), start=1)
    ]


class QueryScorer:
    """map_batches actor: load-once searcher, per-batch top-k scoring.

    A row may carry a ``similarity`` spec string (functions/bm25.py
    get_similarity — the IndexSearcher.setSimilarity surface at the
    serving pool): the actor binds a searcher to that Similarity once
    and caches it, sharing the process's mmapped artifacts across specs
    (only the lightweight searcher wrapper is per-spec)."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self._searchers = {None: open_searcher(index_dir, prefer_merged=True)}

    def _searcher_for(self, sim_spec):
        if sim_spec not in self._searchers:
            from ..functions.bm25 import get_similarity

            self._searchers[sim_spec] = open_searcher(
                self.index_dir, prefer_merged=True, bm25=get_similarity(sim_spec),
            )
        return self._searchers[sim_spec]

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            searcher = self._searcher_for(row["similarity"])
            if row["qstr"] is not None:
                # classic-parser query string (grouping, field scopes,
                # phrases, multi-term rewrites — the full parse_classic
                # surface) compiled per row against the actor's analyzer
                query = Q.parse_classic(row["qstr"], searcher.analyzer)
            else:
                query = Q.BooleanQuery.build(
                    [(Q.SHOULD, Q.TermQuery(t)) for t in row["terms"]]
                )
            rows.extend(hit_rows(row["query_id"], searcher.search(query, k=int(row["k"]))))
        return pa.Table.from_pylist(rows, schema=RESULT_SCHEMA)


def serve(index_dir: str, specs: list[dict], concurrency: int = 2) -> pa.Table:
    """Score query rows on ``concurrency`` QueryScorer actors; returns
    (query_id, rank, doc_id, score). Each spec row holds ``query_id``,
    ``k``, and either ``terms`` (scored as their SHOULD disjunction) or
    ``qstr`` (a classic-parser string, parsed at the actor); an optional
    ``similarity`` names a get_similarity spec."""
    import ray
    import ray.data as rd

    rows = pa.Table.from_pylist(
        [
            {"query_id": str(s["query_id"]), "k": int(s["k"]), "terms": s.get("terms"),
             "qstr": s.get("qstr"), "similarity": s.get("similarity")}
            for s in specs
        ],
        schema=SPEC_SCHEMA,
    )
    # one block per query: the pool load-balances query by query, and
    # starts no more actors than there are queries
    blocks = [rows.slice(i, 1) for i in range(rows.num_rows)] or [rows]
    ds = rd.from_arrow(blocks).map_batches(
        QueryScorer,
        fn_constructor_kwargs={"index_dir": index_dir},
        batch_format="pyarrow",
        batch_size=4,
        concurrency=min(concurrency, len(blocks)),
    )
    parts = [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else RESULT_SCHEMA.empty_table()


class _Shard:
    """ServingPool actor: the segment readers of one doc-range shard
    (opened and memory-mapped once) and the commit's live-docs filter."""

    def __init__(self, seg_dirs: list[str], tombstones):
        from ..functions.bm25 import BM25
        from ..state.livedocs import live_mask
        from ..state.segment import SegmentReader

        self.readers = [SegmentReader(d) for d in seg_dirs]
        self.live = functools.partial(live_mask, tombstones) if len(tombstones) else None
        self.bm25 = BM25()

    def search(self, query, k: int, stats_tuple: tuple, floor: float):
        """This shard's top-k of a rewritten query under the driver's
        global statistics; ``floor`` is the driver-probed lower bound of
        the global kth score (0.0 for none)."""
        from ..search.scorers import CollectionStats
        from ..search.searcher import search_leaves

        stats = CollectionStats.from_tuple(stats_tuple)
        return search_leaves(self.readers, query, stats, self.bm25, k, self.live, floor)


class ServingPool:
    """Persistent sharded serving: one long-lived Ray actor per doc-range
    shard, created once (each opens and memory-maps only its segments),
    then every query fans out with `.remote` and reduces on the caller —
    the steady-state deployment shape for 10^12-doc serving, where the
    per-call actor startup of a fresh Dataset pool would dominate.
    """

    def __init__(self, index_dir: str, n_shards: int = 8):
        import numpy as np
        import ray

        from ..search.searcher import IndexSearcher

        # the driver's searcher holds the commit the shards serve: its
        # tombstones ride to the shards, its readers give the shard split
        self._searcher = IndexSearcher(index_dir)
        seg_dirs = [r.seg_dir for r in self._searcher.readers]
        parts = np.array_split(np.arange(len(seg_dirs)), min(n_shards, len(seg_dirs)))
        shard = ray.remote(_Shard)
        self._actors = [
            shard.remote([seg_dirs[i] for i in part], self._searcher.tombstones)
            for part in parts
        ]

    def search(self, terms: list[str], k: int = 10):
        """Global top-k of the SHOULD disjunction of ``terms``."""
        return self.search_query(
            Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery(t)) for t in terms]), k
        )

    def search_query(self, query, k: int = 10):
        """Global top-k for an arbitrary query — a string (classic parser)
        or any Query tree: phrases, field-scoped clauses, numeric ranges,
        multi-term rewrites. createWeight runs on the driver (parse,
        dictionary rewrite, global stats); shards evaluate leaves.

        A plain term disjunction on a commit without deletes seeds every
        shard with a driver-probed lower bound of the global kth score
        (probe_score_floor — a handful of highest-impact blocks decoded
        once), so shards prune from the first block instead of each doing
        full-k work — the cross-shard MaxScoreAccumulator exchange
        (IndexSearcher.java:432)."""
        import ray

        from ..search.searcher import _as_term_disjunction
        from ..search.topk import merge_topk
        from ..search.wand import probe_score_floor

        s = self._searcher
        if isinstance(query, str):
            query = Q.parse_classic(query, s.analyzer)
        query, stats = s.create_weight(query)
        disj = _as_term_disjunction(query)
        floor = 0.0
        if disj is not None and not len(s.tombstones):
            floor = probe_score_floor(s.readers[0], disj, k, stats, s.bm25)
        st = stats.to_tuple()
        return merge_topk(ray.get([a.search.remote(query, k, st, floor) for a in self._actors]), k)

    def shutdown(self) -> None:
        """Terminate the shard actor processes. Idle actors hold no CPU
        slots (Ray actors use 1 CPU for placement, 0 while running), but
        each shard process keeps its segment mmaps and Python heap alive
        until ray.shutdown — on a long-lived driver, retiring a pool
        should release that memory promptly."""
        import ray

        for a in self._actors:
            ray.kill(a, no_restart=True)
        self._actors = []
