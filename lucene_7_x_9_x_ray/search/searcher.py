"""Multi-segment IndexSearcher: global stats, rewrite, per-segment score,
top-k reduce (SURVEY.md §3.2).

Mirrors the reference search lifecycle:
1. rewrite the query against the term dictionary (multi-term expansion),
2. collect GLOBAL CollectionStatistics/TermStatistics across all segments
   (IndexSearcher.createWeight semantics — idf/avgdl are corpus-wide),
3. score each segment independently (leaf slices),
4. reduce per-segment top-k by (score desc, global docID asc)
   (CollectorManager.reduce, TopScoreDocCollector tie-break).

Steps 3-4 are ``search_leaves``, the one leaf executor: the searcher, the
ServingPool shard actors and the QueryScorer Dataset actors all score
through it, so the scorer-dispatch rule and the live-docs filter exist
once. Mode "wand" runs block-max WAND when the query is a pure term
disjunction (the Boolean2ScorerSupplier.java:192-205 dispatch: SHOULD-only
+ TOP_SCORES -> WANDScorer); everything else runs the exhaustive
vectorized scorer unless "auto" picks a pruning scorer.
"""

from __future__ import annotations

import os

import numpy as np

from ..functions.analysis import get_analyzer
from ..functions.bm25 import BM25
from ..state.livedocs import live_mask, load_tombstones
from ..state.manifest import IndexManifest
from ..state.segment import SegmentReader
from . import queries as Q
from .scorers import CollectionStats, eval_query
from .topk import DEFAULT_TOTAL_HITS_THRESHOLD, TopDocs, TopKCollector, merge_topk, topk_from_arrays
from .wand import (
    MAXSCORE_MIN_SAVED_DF,
    _build_ms_clauses,
    conjunction_topk,
    maxscore_saved_fraction,
    maxscore_topk,
    probe_score_floor,
    term_impact_topk,
    wand_topk,
)

__all__ = ["IndexSearcher", "search_leaves"]

# a single plain term at least this frequent takes impact-level block
# skipping with a probed kth-score floor (2-4x over exhaustive at >=100k
# df; below ~64k df the probe overhead dominates)
IMPACT_MIN_DF = 1 << 16


def _plain_term(q: Q.Query) -> bool:
    """Primary-field TermQuery with the index's OWN statistics — the only
    leaves the WAND/MaxScore term paths may score (their term_weight calls
    read stats directly, so BlendedTermQuery's df/ttf overrides must take
    the exhaustive scorer instead)."""
    return (
        isinstance(q, Q.TermQuery)
        and not q.field
        and q.df_override < 0
        and q.ttf_override < 0
    )


def _as_term_disjunction(query: Q.Query) -> list[tuple[str, float]] | None:
    """[(term, boost)] if the query is a SHOULD-only term disjunction."""
    if _plain_term(query):
        return [(query.term, query.boost)]
    if isinstance(query, Q.BooleanQuery) and query.min_should_match <= 1:
        out = []
        for c in query.clauses:
            q = c.query
            if c.occur != Q.SHOULD:
                return None
            if _plain_term(q):
                out.append((q.term, q.boost))
            elif isinstance(q, Q.BoostQuery) and _plain_term(q.query):
                out.append((q.query.term, float(q.boost) * q.query.boost))
            else:
                return None
        return out or None
    return None


def _as_term_conjunction(query: Q.Query) -> list[tuple[str, float]] | None:
    """[(term, boost)] if the query is a MUST-only term conjunction."""
    if isinstance(query, Q.BooleanQuery) and query.min_should_match == 0:
        out = []
        for c in query.clauses:
            q = c.query
            if c.occur != Q.MUST or not _plain_term(q):
                return None
            out.append((q.term, q.boost))
        return out if len(out) >= 2 else None
    return None


def _pruning_mode(mode: str, live, total_hits_threshold: int) -> str:
    """The mode search_leaves dispatches on. Deletes are applied as a
    post-match live filter and the pruning collectors have no filter hook,
    so any deleted doc takes the exhaustive scorer. A caller raising
    total_hits_threshold asks for accurate counts, which pruning scorers
    cannot give (the TOP_SCORES vs COMPLETE ScoreMode split)."""
    if live is not None or (mode == "auto" and total_hits_threshold > DEFAULT_TOTAL_HITS_THRESHOLD):
        return "exhaustive"
    return mode


def _impact_term(query: Q.Query, stats: CollectionStats, mode: str) -> tuple[str, float] | None:
    """(term, boost) when search_leaves scores ``query`` by impact-level
    block skipping: a plain term with df >= IMPACT_MIN_DF under a pruning
    mode (as returned by _pruning_mode)."""
    if mode not in ("auto", "maxscore"):
        return None
    disj = _as_term_disjunction(query)
    if disj is not None and len(disj) == 1 and stats.df(disj[0][0]) >= IMPACT_MIN_DF:
        return disj[0]
    return None


def search_leaves(
    readers: list,
    query: Q.Query,
    stats: CollectionStats,
    bm25: BM25,
    k: int,
    live,
    floor: float = 0.0,
    mode: str = "auto",
    total_hits_threshold: int = DEFAULT_TOTAL_HITS_THRESHOLD,
) -> TopDocs:
    """Top-k of a rewritten ``query`` over leaf ``readers`` under global
    ``stats`` — the leaf-slice executor (IndexSearcher.java:609-639).

    ``live`` is None when no doc is deleted, else a callable mapping an
    array of global docIDs to its keep mask. ``floor`` is a lower bound of
    the global kth score (probe_score_floor, or 0.0 for none): the
    cross-shard MaxScoreAccumulator seed (IndexSearcher.java:432) that lets
    the pruning scorers skip from the first block.

    Mode "maxscore" = the vectorized essential-list MaxScore scorer; "wand"
    = document-at-a-time block-max WAND / conjunction (duel-verified
    rank-identical); "auto" runs impact skipping for a big single term and
    MaxScore when the optimistic essential-set simulation predicts most
    postings are never decoded (measured 4-11x on head+rare disjunctions;
    the dense bulk scorer wins otherwise), else the exhaustive bulk scorer.
    """
    mode = _pruning_mode(mode, live, total_hits_threshold)
    coll = TopKCollector(k, total_hits_threshold)
    imp = _impact_term(query, stats, mode)
    if imp is not None:
        for r in readers:
            term_impact_topk(
                r, imp[0], imp[1], k, stats, bm25, floor=floor,
                total_hits_threshold=total_hits_threshold,
                collector=coll, doc_base=r.doc_base,
            )
        return coll.result()
    disj = _as_term_disjunction(query)
    if mode in ("auto", "maxscore") and disj is not None and len(disj) >= 2:
        clauses0 = _build_ms_clauses(readers[0], disj, stats, bm25)
        if mode == "maxscore" or (
            maxscore_saved_fraction(readers[0], disj, stats, bm25, clauses=clauses0)
            >= MAXSCORE_MIN_SAVED_DF
        ):
            for ri, r in enumerate(readers):
                maxscore_topk(
                    r, disj, k, stats, bm25,
                    total_hits_threshold=total_hits_threshold,
                    collector=coll, doc_base=r.doc_base, floor=floor,
                    clauses=clauses0 if ri == 0 else None,
                )
            return coll.result()
    if mode == "wand" and disj is not None:
        for r in readers:
            wand_topk(
                r, disj, k, stats, bm25, total_hits_threshold=total_hits_threshold,
                collector=coll, doc_base=r.doc_base,
            )
        return coll.result()
    conj = _as_term_conjunction(query) if mode == "wand" else None
    if conj is not None:
        for r in readers:
            conjunction_topk(
                r, conj, k, stats, bm25, total_hits_threshold=total_hits_threshold,
                collector=coll, doc_base=r.doc_base,
            )
        return coll.result()

    parts: list[TopDocs] = []
    for r in readers:
        docs, scores = eval_query(r, query, stats, bm25)
        gdocs = docs + r.doc_base
        if live is not None:
            keep = live(gdocs)
            gdocs, scores = gdocs[keep], scores[keep]
        parts.append(topk_from_arrays(gdocs, scores, k))
    return merge_topk(parts, k)


class IndexSearcher:
    def __init__(
        self,
        index_dir: str,
        bm25: BM25 | None = None,
        reuse_readers: dict | None = None,
        manifest: "IndexManifest | None" = None,
    ):
        # an explicit manifest opens the index AS OF that commit (the
        # IndexCommit-parameterized DirectoryReader.open — snapshots /
        # stale-commit readers, state/commits.py)
        self.manifest = manifest or IndexManifest.load(index_dir)
        self.index_dir = index_dir
        self.bm25 = bm25 or BM25()
        self.analyzer = get_analyzer(self.manifest.analyzer)
        self.readers = self._open_readers(reuse_readers or {})
        self.doc_count = self.manifest.doc_count
        self.sum_total_term_freq = self.manifest.sum_total_term_freq
        # live-docs filter (.liv analogue): deleted GLOBAL docIDs, sorted.
        # Statistics intentionally still include deleted docs until a
        # reclaiming merge, as in Lucene between commits.
        self.tombstones = load_tombstones(index_dir, manifest=self.manifest)

    def _open_readers(self, reuse: dict) -> list:
        """One SegmentReader per segment in doc_base order. NRT reopen
        (open_if_changed) passes the previous generation's readers keyed by
        segment dir: unchanged segments keep their already-open reader
        (mmaps, decoded dictionaries, caches) and only newly appended
        segments cold-open — the SegmentReader sharing
        DirectoryReader.openIfChanged does (s84
        index/StandardDirectoryReader.java:137)."""
        segs = sorted(self.manifest.segments, key=lambda s: s["doc_base"])
        return [
            reuse.get(d) or SegmentReader(d)
            for d in (os.path.join(self.index_dir, "segments", s["seg_name"]) for s in segs)
        ]

    def _live(self, global_docs: np.ndarray) -> np.ndarray:
        """Boolean mask of docs NOT tombstoned."""
        return live_mask(self.tombstones, global_docs)

    # -- statistics ---------------------------------------------------------

    def collection_stats(self, terms: set) -> CollectionStats:
        """Global stats for a set of terms — plain strings (primary field)
        and/or (field, term) pairs (per-field TermStatistics gathering)."""
        pairs = {("", t) if isinstance(t, str) else t for t in terms}
        df: dict[str, int] = {}
        ttf: dict[str, int] = {}
        fdf: dict[tuple[str, str], int] = {}
        fttf: dict[tuple[str, str], int] = {}
        for r in self.readers:
            for f, t in pairs:
                view = r if not f else r.field_view(f)
                d, tf = view.term_stats(t)
                if not f:
                    df[t] = df.get(t, 0) + d
                    ttf[t] = ttf.get(t, 0) + tf
                else:
                    fdf[(f, t)] = fdf.get((f, t), 0) + d
                    fttf[(f, t)] = fttf.get((f, t), 0) + tf
        fs = getattr(self.manifest, "field_stats", {}) or {}
        return CollectionStats(
            self.doc_count, self.sum_total_term_freq, df, ttf,
            field_df=fdf, field_ttf=fttf,
            field_sttf={k: v["sum_total_term_freq"] for k, v in fs.items()},
            field_doc_count={k: v["doc_count"] for k, v in fs.items()},
        )

    def term_dict_union(self) -> np.ndarray:
        """Union sorted term dictionary (for multi-term rewrites), cached —
        computing it is O(V log V) and must not run per query."""
        cached = getattr(self, "_term_union", None)
        if cached is None:
            if len(self.readers) == 1:
                cached = self.readers[0].terms
            else:
                cached = np.unique(np.concatenate([r.terms for r in self.readers]))
            self._term_union = cached
        return cached

    def create_weight(self, query: Q.Query) -> tuple[Q.Query, CollectionStats]:
        """The createWeight half of a search: the query rewritten against
        the term dictionary (only when it holds multi-term clauses) and the
        global statistics of every term it scores."""
        if Q.needs_rewrite(query):
            query = Q.rewrite(query, self.term_dict_union())
        return query, self.collection_stats(Q.collect_field_terms(query))

    # -- search -------------------------------------------------------------

    def parse(self, text: str, operator: str = Q.SHOULD, min_should_match: int = 0) -> Q.Query:
        return Q.parse_query(text, self.analyzer, operator, min_should_match)

    def search(
        self,
        query: Q.Query | str,
        k: int = 10,
        mode: str = "auto",
        total_hits_threshold: int = DEFAULT_TOTAL_HITS_THRESHOLD,
        count_mode: str = "lower_bound",
    ) -> TopDocs:
        """count_mode="lower_bound" (default, Lucene parity): pruning
        scorers may report total_hits as a GREATER_THAN_OR_EQUAL bound
        once total_hits_threshold is reached. count_mode="exact" keeps the
        pruned top-k but force-counts every clause exhaustively
        (TotalHitCountCollector alongside TOP_SCORES — the accurate-count
        opt-in of IndexSearcher.java:105 semantics), so total_hits is the
        true match count and total_hits_is_lower_bound is False."""
        if count_mode not in ("lower_bound", "exact"):
            raise ValueError(f"count_mode must be lower_bound|exact, got {count_mode!r}")
        if isinstance(query, str):
            query = self.parse(query)
        td = self._search_impl(query, k, mode, total_hits_threshold)
        if count_mode == "exact" and td.total_hits_is_lower_bound:
            from dataclasses import replace

            td = replace(
                td, total_hits=self.count(query), total_hits_is_lower_bound=False
            )
        return td

    def _search_impl(
        self,
        query: Q.Query,
        k: int = 10,
        mode: str = "auto",
        total_hits_threshold: int = DEFAULT_TOTAL_HITS_THRESHOLD,
    ) -> TopDocs:
        query, stats = self.create_weight(query)
        live = self._live if len(self.tombstones) else None
        imp = _impact_term(query, stats, _pruning_mode(mode, live, total_hits_threshold))
        floor = 0.0 if imp is None else probe_score_floor(self.readers[0], [imp], k, stats, self.bm25)
        return search_leaves(
            self.readers, query, stats, self.bm25, k, live, floor, mode, total_hits_threshold
        )

    def count(self, query: Q.Query | str) -> int:
        """Total matching docs (TotalHitCountCollector equivalent)."""
        if isinstance(query, str):
            query = self.parse(query)
        query, stats = self.create_weight(query)
        return sum(
            int(self._live(eval_query(r, query, stats, self.bm25)[0] + r.doc_base).sum())
            for r in self.readers
        )

    def search_after(
        self, query: Q.Query | str, k: int, after: tuple[float, int]
    ) -> TopDocs:
        """Pagination anchor (IndexSearcher.searchAfter:418-553): top-k among
        docs ranking strictly after (score, global docID)."""
        if isinstance(query, str):
            query = self.parse(query)
        query, stats = self.create_weight(query)
        a_score, a_doc = np.float32(after[0]), int(after[1])
        parts = []
        for r in self.readers:
            docs, scores = eval_query(r, query, stats, self.bm25)
            gdocs = docs + r.doc_base
            keep = (scores < a_score) | ((scores == a_score) & (gdocs > a_doc))
            keep &= self._live(gdocs)
            parts.append(topk_from_arrays(gdocs[keep], scores[keep], k))
        return merge_topk(parts, k)

    # -- doc materialization ------------------------------------------------

    def lookup_docs(self, global_doc_ids) -> list[dict]:
        """Resolve global docIDs to stored fields (docmap rows)."""
        out = []
        bases = [r.doc_base for r in self.readers]
        for gd in global_doc_ids:
            si = int(np.searchsorted(bases, gd, side="right")) - 1
            r = self.readers[si]
            local = int(gd) - r.doc_base
            row = r.docmap().slice(local, 1).to_pylist()[0]
            row["doc_id"] = int(gd)
            out.append(row)
        return out
