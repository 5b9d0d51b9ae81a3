"""Block-max WAND top-k over the packed postings (SURVEY.md §2.4 v1 core).

Algorithm re-created from the reference's semantics (not a port):
- WANDScorer.java:45-326: prune docs whose Σ max_score < minCompetitiveScore,
  with float scores scaled into integers — max scores rounded UP, the min
  competitive score rounded DOWN (functions/wand_math.py) so pruning can
  never drop a true top-k hit.
- ImpactsDISI.java:79-130 + MaxScoreCache.java:62-106: per-128-doc-block max
  scores derived from the stored competitive (freq, norm) impact pairs drive
  block-level skipping (advanceShallow equivalent).
- Skipping uses the flat per-block last_doc array (searchsorted) instead of
  the multi-level skip list — same O(log) advance contract
  (Lucene84SkipWriter replacement, SURVEY.md §2.7).

This is the document-at-a-time scale path: it decodes only the blocks it
visits. The exhaustive scorer (scorers.py) is the duel oracle; the pytest
duels assert rank-identical (docID, score) sequences between the two.
"""

from __future__ import annotations

import numpy as np

from ..functions.bm25 import BM25, BM25TermWeight
from ..functions.wand_math import scale_max_score, scale_min_score, scaling_factor
from ..state.segment import SegmentReader, TermPostings
from .scorers import CollectionStats
from .topk import DEFAULT_TOTAL_HITS_THRESHOLD, TopDocs, TopKCollector

NO_MORE_DOCS = np.iinfo(np.int64).max


class TermIterator:
    """Postings cursor with block-max metadata (TermScorer + ImpactsDISI)."""

    __slots__ = (
        "tp", "tw", "norms", "nblocks", "block", "docs", "freqs", "pos",
        "max_scaled", "block_max_scaled", "doc",
    )

    def __init__(self, tp: TermPostings, tw: BM25TermWeight, norms: np.ndarray, sf: int):
        self.tp = tp
        self.tw = tw
        self.norms = norms
        self.nblocks = len(tp.doc_widths)
        # per-block scaled (rounded-up) max scores from the impact frontiers
        bms = np.empty(self.nblocks, dtype=np.int64)
        for bi, (f, n) in enumerate(tp.impact_slices()):
            bms[bi] = scale_max_score(tw.max_score(f, n), sf)
        self.block_max_scaled = bms
        self.max_scaled = int(bms.max()) if self.nblocks else 0
        self.block = -1
        self.docs = self.freqs = None
        self.pos = 0
        self.doc = -1
        self._load_block(0)

    def _load_block(self, bi: int) -> None:
        if bi >= self.nblocks:
            self.doc = NO_MORE_DOCS
            return
        self.block = bi
        self.docs, self.freqs = self.tp.decode_block(bi)
        self.pos = 0
        self.doc = int(self.docs[0])

    def next_doc(self) -> int:
        self.pos += 1
        if self.pos < len(self.docs):
            self.doc = int(self.docs[self.pos])
        else:
            self._load_block(self.block + 1)
        return self.doc

    def advance(self, target: int) -> int:
        """First doc >= target; block skip via last_docs searchsorted."""
        if self.doc >= target:
            return self.doc
        last = self.tp.last_docs
        if target > int(last[self.block]):
            bi = int(np.searchsorted(last, target))
            if bi >= self.nblocks:
                self.doc = NO_MORE_DOCS
                return self.doc
            self._load_block(bi)
        self.pos = int(np.searchsorted(self.docs, target, side="left"))
        if self.pos >= len(self.docs):  # can't happen if block chosen right
            self._load_block(self.block + 1)
        else:
            self.doc = int(self.docs[self.pos])
        return self.doc

    def block_max_at(self, target: int) -> tuple[int, int]:
        """(scaled block max score, block last doc) for the block holding
        target — the advanceShallow/getMaxScore pair."""
        bi = int(np.searchsorted(self.tp.last_docs, target))
        if bi >= self.nblocks:
            return 0, NO_MORE_DOCS
        return int(self.block_max_scaled[bi]), int(self.tp.last_docs[bi])

    def score(self) -> float:
        freq = int(self.freqs[self.pos])
        return self.tw.score_scalar(freq, int(self.norms[self.doc]))


class ChainedTermIterator:
    """TermIterator over FragmentedPostings: fragments hold disjoint,
    ascending doc ranges (salted hot terms), so chaining their iterators
    in order preserves every TermIterator invariant."""

    __slots__ = ("its", "ci", "max_scaled")

    def __init__(self, parts, tw, norms, sf):
        self.its = [TermIterator(p, tw, norms, sf) for p in parts]
        self.ci = 0
        self.max_scaled = max(it.max_scaled for it in self.its)

    @property
    def doc(self) -> int:
        return self.its[self.ci].doc if self.ci < len(self.its) else NO_MORE_DOCS

    def next_doc(self) -> int:
        if self.ci >= len(self.its):
            return NO_MORE_DOCS
        if self.its[self.ci].next_doc() != NO_MORE_DOCS:
            return self.doc
        # crossing a fragment boundary: the next fragment's iterator is
        # already positioned on its FIRST doc — return it, don't skip it
        self.ci += 1
        while self.ci < len(self.its):
            if self.its[self.ci].doc != NO_MORE_DOCS:
                return self.doc
            self.ci += 1
        return NO_MORE_DOCS

    def advance(self, target: int) -> int:
        while self.ci < len(self.its):
            if self.its[self.ci].advance(target) != NO_MORE_DOCS:
                return self.doc
            self.ci += 1
        return NO_MORE_DOCS

    def block_max_at(self, target: int) -> tuple[int, int]:
        if self.ci >= len(self.its):
            return 0, NO_MORE_DOCS
        return self.its[self.ci].block_max_at(target)

    def score(self) -> float:
        return self.its[self.ci].score()


def _make_iter(tp, tw, norms, sf):
    parts = getattr(tp, "parts", None)
    if parts:
        return ChainedTermIterator(parts, tw, norms, sf)
    return TermIterator(tp, tw, norms, sf)


class _MSClause:
    """One disjunction clause for the vectorized MaxScore scorer: global
    max score (impact frontiers scored in ONE kernel call), whole-list
    decode+score (cached), and block-targeted contribution lookups that
    decode ONLY the 128-doc blocks containing candidate docs."""

    __slots__ = ("tp", "tw", "norms", "max_score", "df", "_full")

    def __init__(self, tp: TermPostings, tw: BM25TermWeight, norms):
        self.tp = tp
        self.tw = tw
        self.norms = norms
        self.df = tp.doc_freq
        self.max_score = (
            float(tw.score(tp.imp_freqs, tp.imp_norms).max())
            if len(tp.imp_freqs)
            else 0.0
        )
        self._full = None

    def full(self):
        """(docs, float32 scores) of the whole list, decoded once."""
        if self._full is None:
            docs, freqs = self.tp.decode()
            self._full = (docs, self.tw.score(freqs, self.norms[docs]))
        return self._full

    def scores_at(self, cand: np.ndarray) -> np.ndarray:
        """float32 contribution of this clause at the sorted candidate docs
        (0 where absent). Decodes only the blocks candidates fall into, all
        in ONE vectorized subset pass (TermPostings.decode_blocks) — the
        "non-essential clause lookup" of MaxScore; cost tracks |candidate
        blocks|, not df."""
        out = np.zeros(len(cand), dtype=np.float32)
        tp = self.tp
        if self._full is not None:
            d, s = self._full
            idx = np.searchsorted(d, cand)
            idx_c = np.minimum(idx, len(d) - 1)
            m = d[idx_c] == cand
            out[m] = s[idx_c[m]]
            return out
        last = tp.last_docs
        nblocks = len(last)
        bis = np.searchsorted(last, cand)
        bis = np.unique(bis[bis < nblocks])
        if len(bis) == 0:
            return out
        if len(bis) * 2 >= nblocks:
            # most blocks touched anyway: decode the whole list (and cache)
            d, s = self.full()
            f = None
        else:
            d, f = tp.decode_blocks(bis)
            s = None
        idx = np.searchsorted(d, cand)
        idx_c = np.minimum(idx, len(d) - 1)
        m = d[idx_c] == cand
        if not m.any():
            return out
        if s is not None:
            out[m] = s[idx_c[m]]
        else:
            out[m] = self.tw.score(f[idx_c[m]], self.norms[cand[m]])
        return out


# auto-dispatch: run MaxScore only when the optimistic essential-set
# simulation predicts at least this fraction of postings are never decoded
MAXSCORE_MIN_SAVED_DF = 0.8


def _build_ms_clauses(reader, term_boosts, stats, bm25) -> list[_MSClause]:
    clauses: list[_MSClause] = []
    for term, boost in term_boosts:
        tp = reader.term_postings(term)
        if tp is None:
            continue
        tw = bm25.term_weight(stats.df(term), stats.doc_count, stats.sum_total_term_freq, boost, ttf=stats.ttf(term))
        parts = getattr(tp, "parts", None) or [tp]
        for part in parts:
            clauses.append(_MSClause(part, tw, reader.norms))
    clauses.sort(key=lambda c: -c.max_score)
    return clauses


def maxscore_saved_fraction(reader, term_boosts, stats, bm25,
                            clauses: list | None = None) -> float:
    """Predicted fraction of postings MaxScore never decodes, from the
    OPTIMISTIC simulation θ = best clause max (real θ is at most that, so
    the real essential set is at least as large — this only ever
    over-predicts savings; the caller gates on a high threshold). Pass
    prebuilt ``clauses`` to share the build with maxscore_topk."""
    if clauses is None:
        clauses = _build_ms_clauses(reader, term_boosts, stats, bm25)
    if len(clauses) < 2:
        return 0.0
    theta_opt = clauses[0].max_score
    suffix = 0.0
    n_ess = len(clauses)
    for i in range(len(clauses) - 1, 0, -1):
        if suffix + clauses[i].max_score >= theta_opt:
            n_ess = i + 1
            break
        suffix += clauses[i].max_score
        n_ess = i
    total = sum(c.df for c in clauses)
    saved = sum(c.df for c in clauses[n_ess:])
    return saved / total if total else 0.0


def _block_max_scores(tp: TermPostings, tw: BM25TermWeight) -> np.ndarray:
    """Per-block max scores from the impact frontiers, one kernel call +
    segmented max (the vectorized MaxScoreCache)."""
    nblocks = len(tp.doc_widths)
    if nblocks == 0 or len(tp.imp_freqs) == 0:
        return np.zeros(nblocks, dtype=np.float32)
    offsets = np.zeros(nblocks, dtype=np.int64)
    np.cumsum(tp.imp_counts.astype(np.int64)[:-1], out=offsets[1:])
    return np.maximum.reduceat(tw.score(tp.imp_freqs, tp.imp_norms), offsets)


def probe_score_floor(reader, term_boosts, k, stats, bm25) -> float:
    """Cheap LOWER bound of the global kth-best score: decode the
    highest-block-max blocks of the strongest clause until >= k docs are
    scored; their kth-best single-clause score is a floor (full scores are
    >= the partial, so >= k docs globally score at least it). The
    MaxScoreAccumulator seed (IndexSearcher.java:432): shards prune
    against it from the very first block."""
    best = None
    for term, boost in term_boosts:
        tp = reader.term_postings(term)
        if tp is None:
            continue
        tw = bm25.term_weight(stats.df(term), stats.doc_count, stats.sum_total_term_freq, boost, ttf=stats.ttf(term))
        parts = getattr(tp, "parts", None) or [tp]
        for part in parts:
            bms = _block_max_scores(part, tw)
            if len(bms) and (best is None or float(bms.max()) > best[0]):
                best = (float(bms.max()), part, tw, bms)
    if best is None:
        return 0.0
    _, tp, tw, bms = best
    order = np.argsort(-bms, kind="stable")
    scores = []
    n = 0
    for i in range(0, len(order), 8):
        sel = np.sort(order[i : i + 8]).astype(np.int64)
        d, f = tp.decode_blocks(sel)
        scores.append(tw.score(f, reader.norms[d]))
        n += len(d)
        if n >= k:
            break
    if n < k:
        return 0.0
    s = np.concatenate(scores)
    return float(np.partition(s, len(s) - k)[len(s) - k])


def term_impact_topk(
    reader,
    term: str,
    boost: float,
    k: int,
    stats: CollectionStats,
    bm25: BM25,
    floor: float = 0.0,
    total_hits_threshold: int = DEFAULT_TOTAL_HITS_THRESHOLD,
    collector: TopKCollector | None = None,
    doc_base: int = 0,
) -> TopDocs:
    """Single-TermQuery top-k with impact-level block skipping: only blocks
    whose impact-derived max score reaches max(floor, min-competitive) are
    decoded, in one vectorized subset pass (ImpactsEnum top-level skipping;
    the floor is the cross-shard MaxScoreAccumulator value). Docs in
    skipped blocks score strictly below the bound, so results are
    rank-identical to exhaustive scoring."""
    coll = collector if collector is not None else TopKCollector(k, total_hits_threshold)
    tp = reader.term_postings(term)
    if tp is None:
        return coll.result()
    tw = bm25.term_weight(stats.df(term), stats.doc_count, stats.sum_total_term_freq, boost, ttf=stats.ttf(term))
    parts = getattr(tp, "parts", None) or [tp]
    for part in parts:
        bms = _block_max_scores(part, tw)
        theta = max(floor, coll.min_competitive())
        sel = np.flatnonzero(bms >= np.float32(theta)).astype(np.int64) if theta > 0 else np.arange(len(bms), dtype=np.int64)
        if len(sel) < len(bms):
            coll.force_lower_bound = True  # skipped blocks held uncounted matches
        if len(sel) == 0:
            continue
        d, f = part.decode_blocks(sel)
        s = tw.score(f, reader.norms[d])
        coll.collect_batch(d + doc_base, s)
    return coll.result()


def maxscore_topk(
    reader,
    term_boosts: list[tuple[str, float]],
    k: int,
    stats: CollectionStats,
    bm25: BM25,
    total_hits_threshold: int = DEFAULT_TOTAL_HITS_THRESHOLD,
    collector: TopKCollector | None = None,
    doc_base: int = 0,
    floor: float = 0.0,
    clauses: list | None = None,
) -> TopDocs:
    """Vectorized MaxScore disjunction top-k — the block-max pruning idea
    re-expressed for batch execution (WANDScorer.java:45-326 semantics;
    Lucene 9.x moved top-k disjunctions to the same essential-list design
    in MaxScoreBulkScorer):

    1. clauses sort by impact-derived max score DESCENDING; the ESSENTIAL
       prefix is fully decoded + scored (vectorized); candidates = union of
       essential docs.
    2. every NON-essential clause contributes via block-targeted lookups at
       the candidates only (scores_at — decodes just the blocks candidates
       land in).
    3. a doc matched ONLY by non-essential clauses scores <= Σ their maxes;
       if that bound is STRICTLY below the kth-best fully-scored candidate
       (or the cross-segment collector's min-competitive score), those docs
       can never enter the top-k — the essential set stops growing and the
       rest of the head clause lists are never decoded.

    Candidates are scored exactly, pruning is strict — results are
    rank-identical to the exhaustive scorer. Worst case (bound never
    binds) every clause ends up decoded once, i.e. exhaustive cost plus a
    union/lookup overhead. ``clauses`` may be passed prebuilt (the auto
    dispatcher shares them with its prediction pass)."""
    if clauses is None:
        clauses = _build_ms_clauses(reader, term_boosts, stats, bm25)
    coll = collector if collector is not None else TopKCollector(k, total_hits_threshold)
    if not clauses:
        return coll.result()
    suffix_max = np.zeros(len(clauses) + 1)
    for i in range(len(clauses) - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + clauses[i].max_score

    n_clauses = len(clauses)
    n_ess = 1
    while True:
        cand = (
            clauses[0].full()[0]
            if n_ess == 1
            else np.unique(np.concatenate([clauses[i].full()[0] for i in range(n_ess)]))
        )
        acc = np.zeros(len(cand), dtype=np.float64)
        for i in range(n_ess):
            d, s = clauses[i].full()
            if n_ess == 1:
                acc += s.astype(np.float64)
            else:
                pos = np.searchsorted(cand, d)
                acc[pos] += s.astype(np.float64)
        ne_bound = float(suffix_max[n_ess])
        if n_ess >= n_clauses:
            scores32 = acc.astype(np.float32)
            break
        # pre-check on the PARTIAL kth (full scores only grow it): if the
        # non-essential bound is already below it, the essential set is
        # final and the lookups below run exactly once
        if len(cand) >= k:
            kth_p = float(np.partition(acc, len(acc) - k)[len(acc) - k].astype(np.float32))
        else:
            kth_p = 0.0
        theta_p = max(kth_p, coll.min_competitive(), floor)
        # prune only when the float32 image of the bound, rounded UP one
        # ulp, is still strictly below theta: a pruned doc's final score is
        # float32(sum) and can round up to EXACTLY the kth-best score, in
        # which case it deserves the docID tie-break (the nextUp round-up
        # discipline of Lucene's max-score bounds, WANDScorer.java:76-93)
        ne_bound32_up = float(np.nextafter(np.float32(ne_bound), np.float32(np.inf)))
        if ne_bound32_up < theta_p:
            for i in range(n_ess, n_clauses):
                acc += clauses[i].scores_at(cand).astype(np.float64)
            scores32 = acc.astype(np.float32)
            # docs matched ONLY by non-essential clauses were pruned and
            # never counted — the total is a lower bound
            coll.force_lower_bound = True
            break
        n_ess += 1
    coll.collect_batch(cand + doc_base, scores32)
    return coll.result()


def conjunction_topk(
    reader,
    term_boosts: list[tuple[str, float]],
    k: int,
    stats: CollectionStats,
    bm25: BM25,
    total_hits_threshold: int = DEFAULT_TOTAL_HITS_THRESHOLD,
    collector: TopKCollector | None = None,
    doc_base: int = 0,
) -> TopDocs:
    """Top-k of a MUST conjunction of term queries with block-max pruning
    (BlockMaxConjunctionScorer.java:30 semantics): leapfrog intersection,
    and once the heap is competitive, windows whose Σ per-clause block max
    stays below the min competitive score are skipped wholesale."""
    iters = []
    pre = []
    max_float = 0.0
    for term, boost in term_boosts:
        tp = reader.term_postings(term)
        if tp is None:
            return (collector or TopKCollector(k, total_hits_threshold)).result()
        tw = bm25.term_weight(stats.df(term), stats.doc_count, stats.sum_total_term_freq, boost, ttf=stats.ttf(term))
        pre.append((tp, tw))
        parts = getattr(tp, "parts", None) or [tp]
        m = max(
            (tw.max_score(f, n) for p in parts for f, n in p.impact_slices()),
            default=0.0,
        )
        max_float = max(max_float, m)
    sf = scaling_factor(np.float32(max_float))
    # lead = rarest clause (ConjunctionDISI cost ordering)
    pre.sort(key=lambda p: p[0].doc_freq)
    for tp, tw in pre:
        iters.append(_make_iter(tp, tw, reader.norms, sf))
    coll = collector if collector is not None else TopKCollector(k, total_hits_threshold)

    doc = iters[0].doc
    while doc != NO_MORE_DOCS:
        # leapfrog all clauses to a common doc
        target = doc
        for it in iters:
            d = it.advance(target)
            if d == NO_MORE_DOCS:
                return coll.result()
            target = max(target, d)
        if target != doc:
            doc = target
            continue
        min_scaled = scale_min_score(np.float32(coll.min_competitive()), sf)
        if min_scaled > 0:
            # block-max bound for the window containing doc
            bsum = 0
            window_end = NO_MORE_DOCS
            for it in iters:
                bm, bend = it.block_max_at(doc)
                bsum += bm
                window_end = min(window_end, bend)
            if bsum < min_scaled:
                doc = iters[0].advance(window_end + 1)
                continue
        ssum = 0.0
        for it in iters:
            ssum += it.score()
        coll.collect(doc + doc_base, float(np.float32(ssum)))
        doc = iters[0].next_doc()
    return coll.result()


def wand_topk(
    reader: SegmentReader,
    term_boosts: list[tuple[str, float]],
    k: int,
    stats: CollectionStats,
    bm25: BM25,
    total_hits_threshold: int = DEFAULT_TOTAL_HITS_THRESHOLD,
    collector: TopKCollector | None = None,
    doc_base: int = 0,
) -> TopDocs:
    """Top-k of a SHOULD disjunction of term queries over one segment.

    Pass a shared ``collector`` (and this segment's ``doc_base``) to carry
    the min-competitive score across segments processed in doc_base order —
    the MaxScoreAccumulator cross-slice exchange analogue; collected docIDs
    are then global.
    """
    iters: list[TermIterator] = []
    # one shared scaling factor from the largest clause max score
    pre: list[tuple[TermPostings, BM25TermWeight]] = []
    max_float = 0.0
    for term, boost in term_boosts:
        tp = reader.term_postings(term)
        if tp is None:
            continue
        tw = bm25.term_weight(stats.df(term), stats.doc_count, stats.sum_total_term_freq, boost, ttf=stats.ttf(term))
        # a salted hot term on a merged index arrives as FragmentedPostings;
        # its doc-range fragments become independent clauses with the SAME
        # weight — ranges are disjoint, so per-doc scores are unchanged and
        # the Σ-max pruning bound stays valid (merely looser)
        parts = getattr(tp, "parts", None) or [tp]
        for part in parts:
            pre.append((part, tw))
            m = max(
                (tw.max_score(f, n) for f, n in part.impact_slices()),
                default=0.0,
            )
            max_float = max(max_float, m)
    sf = scaling_factor(np.float32(max_float))
    for tp, tw in pre:
        iters.append(TermIterator(tp, tw, reader.norms, sf))

    coll = collector if collector is not None else TopKCollector(k, total_hits_threshold)

    live = [it for it in iters if it.doc != NO_MORE_DOCS]
    while live:
        live.sort(key=lambda it: it.doc)
        min_scaled = scale_min_score(np.float32(coll.min_competitive()), sf)

        # pivot: smallest prefix whose Σ global max >= min competitive
        acc = 0
        pivot_idx = -1
        for i, it in enumerate(live):
            acc += it.max_scaled
            if acc >= min_scaled and acc > 0:
                pivot_idx = i
                break
        if pivot_idx < 0:
            break  # nothing can compete any more
        pivot_doc = live[pivot_idx].doc

        if live[0].doc == pivot_doc:
            # block-max check (BMW): can any doc in the lead block window
            # compete? Upper bound = Σ block max of the lead clauses (those
            # at pivot_doc) + Σ GLOBAL max of every other clause positioned
            # inside the window (global >= its block max, so the bound is
            # safe); if it is below the min competitive score, nothing in
            # [pivot_doc, window_end] can make the heap — skip the window.
            if min_scaled > 0:
                bsum = 0
                window_end = NO_MORE_DOCS
                for it in live:
                    if it.doc > pivot_doc:
                        break
                    bm, bend = it.block_max_at(pivot_doc)
                    bsum += bm
                    window_end = min(window_end, bend)
                for it in live:
                    if pivot_doc < it.doc <= window_end:
                        bsum += it.max_scaled
                if bsum < min_scaled:
                    target = window_end + 1
                    for it in live:
                        if it.doc <= window_end:
                            it.advance(target)
                    live = [it for it in live if it.doc != NO_MORE_DOCS]
                    continue
            # score pivot_doc: sum clause scores in float64, cast to float32
            ssum = 0.0
            for it in live:
                if it.doc == pivot_doc:
                    ssum += it.score()
                elif it.doc > pivot_doc:
                    break
            score = float(np.float32(ssum))
            coll.collect(pivot_doc + doc_base, score)
            for it in live:
                if it.doc == pivot_doc:
                    it.next_doc()
            live = [it for it in live if it.doc != NO_MORE_DOCS]
        else:
            # advance the highest-max-score clause strictly BEFORE the pivot
            # doc up to it (ties at pivot_doc must not be picked: advancing
            # them is a no-op and would spin the loop)
            behind = [it for it in live if it.doc < pivot_doc]
            adv = max(behind, key=lambda it: it.max_scaled)
            adv.advance(pivot_doc)
            live = [it for it in live if it.doc != NO_MORE_DOCS]

    return coll.result()
