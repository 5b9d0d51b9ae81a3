"""Suggest module: prefix completion + direct spell checking over the
index term dictionary.

Behavioral references (semantics recreated, representation redesigned):

- ``suggest/src/java/org/apache/lucene/search/spell/DirectSpellChecker.java``
  (s84): candidate terms within ``maxEdits`` (Damerau; transpositions are
  primitive edits, FuzzyTermsEnum.java:438 passes transpositions=true),
  sharing a ``minPrefix``-char prefix with the query, scored by the
  INTERNAL_LEVENSHTEIN similarity ``1 - ed/min(|candidate|, |query|)``
  (FuzzyTermsEnum.java:266-270), filtered at ``accuracy`` (default 0.5),
  ranked by SuggestWordScoreComparator.java: score desc, docFreq desc,
  term text asc. Query-frequency gating per DirectSpellChecker.java:356-376
  (maxQueryFrequency / thresholdFrequency / SuggestMode).
- ``suggest/.../suggest/analyzing/AnalyzingSuggester.java`` and
  ``FreeTextSuggester.java``: top-N completions of a prefix weighted from
  the corpus. The FST is replaced by the engine's sorted term dictionary
  (merged tier: range shards pruned by boundary, the same structure every
  multi-term rewrite uses); weights come from the dictionary itself
  (total_term_freq), the LuceneDictionary/HighFrequencyDictionary input
  path (``spell/LuceneDictionary.java``).

Deviations (documented):
- Candidate enumeration considers ALL dictionary terms in the prefix
  range (vectorized length prefilter + banded DP) instead of Lucene's
  inspection-bounded automaton walk with non-competitive-boost early
  termination — a pure optimization in Lucene that can drop competitive
  candidates when the boost ordering disagrees with the final comparator;
  the full scan is deterministic and oracle-checkable.
- Damerau distance is the unrestricted variant (matching DuckDB's
  ``damerau_levenshtein``); Lucene's parametric automata implement the
  same transposition-as-primitive-edit metric.

Scale: a suggester lookup touches only the dictionary shards whose
boundary range intersects the prefix/first-character range — O(shards
covering the range), not O(vocabulary). Serving many lookups is a
stateless fan-out (each actor holds the searcher, as stages/serve.py
does for queries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PREFIX_CEILING = "￿"

SUGGEST_WHEN_NOT_IN_INDEX = "when_not_in_index"
SUGGEST_MORE_POPULAR = "more_popular"
SUGGEST_ALWAYS = "always"


@dataclass
class Suggestion:
    term: str
    score: float
    freq: int


def damerau_levenshtein(a: str, b: str) -> int:
    """Unrestricted Damerau-Levenshtein distance (transpositions are
    primitive edits applied in parallel: d("ca","abc")==2), matching
    DuckDB's ``damerau_levenshtein`` and the Lucene automaton metric
    (LuceneLevenshteinDistance.java:28-33 documents the same rules)."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return la + lb
    maxdist = la + lb
    # d is offset by +1: d[0][*] / d[*][0] is the "minus infinity" row
    d = np.empty((la + 2, lb + 2), dtype=np.int64)
    d[0, :] = maxdist
    d[:, 0] = maxdist
    d[1, 1:] = np.arange(lb + 1)
    d[1:, 1] = np.arange(la + 1)
    da: dict[str, int] = {}
    for i in range(1, la + 1):
        db = 0
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cb = b[j - 1]
            k = da.get(cb, 0)
            l = db
            if ca == cb:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1, j + 1] = min(
                d[i, j] + cost,           # substitute / match
                d[i + 1, j] + 1,          # insert
                d[i, j + 1] + 1,          # delete
                d[k, l] + (i - k - 1) + 1 + (j - l - 1),  # transpose block
            )
        da[ca] = i
    return int(d[la + 1, lb + 1])


def _reader_range_stats(reader, lo: str, hi: str):
    """(terms, df, ttf) arrays for dictionary terms in [lo, hi) from one
    reader — SegmentReader (flat sorted dict) or the merged sharded tier
    (cold shards pruned by boundary; salted hot terms re-aggregated via
    term_stats, matching what the postings reader itself does)."""
    if hasattr(reader, "_shard_infos"):  # merged _ShardedTermLookup
        terms: list[np.ndarray] = []
        dfs: list[np.ndarray] = []
        ttfs: list[np.ndarray] = []
        bounds = reader._boundaries
        for info in reader._shard_infos:
            sid = info["shard_id"]
            if sid >= reader.n_shards:
                continue  # hot buckets handled below
            if bounds is not None:
                s_lo = bounds[sid]
                s_hi = bounds[sid + 1] if sid + 1 < len(bounds) else None
                if s_hi is not None and s_hi <= lo:
                    continue
                if s_lo >= hi:
                    continue
            sh = reader._shard(sid)
            if sh is None:
                continue
            a = int(np.searchsorted(sh.terms, lo, side="left"))
            b = int(np.searchsorted(sh.terms, hi, side="left"))
            if a < b:
                terms.append(sh.terms[a:b])
                dfs.append(sh.doc_freqs[a:b])
                ttfs.append(sh.ttfs[a:b])
        for t in reader.hot_rank:
            if lo <= t < hi:
                d, tf = reader.term_stats(t)
                terms.append(np.asarray([t], dtype=object))
                dfs.append(np.asarray([d]))
                ttfs.append(np.asarray([tf]))
        if not terms:
            e = np.empty(0, dtype=object)
            return e, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return (
            np.concatenate(terms),
            np.concatenate(dfs).astype(np.int64),
            np.concatenate(ttfs).astype(np.int64),
        )
    a = int(np.searchsorted(reader.terms, lo, side="left"))
    b = int(np.searchsorted(reader.terms, hi, side="left"))
    return (
        reader.terms[a:b],
        reader.doc_freqs[a:b].astype(np.int64),
        reader.ttfs[a:b].astype(np.int64),
    )


def dict_range_stats(searcher, lo: str, hi: str):
    """Aggregated (terms_sorted, df, ttf) over every reader of a searcher
    for the dictionary range [lo, hi). Stats sum across segments (the
    MultiTerms.getTerms view of the union dictionary)."""
    parts = [_reader_range_stats(r, lo, hi) for r in searcher.readers]
    parts = [p for p in parts if len(p[0])]
    if not parts:
        e = np.empty(0, dtype=object)
        return e, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    terms = np.concatenate([p[0] for p in parts])
    dfs = np.concatenate([p[1] for p in parts])
    ttfs = np.concatenate([p[2] for p in parts])
    if len(searcher.readers) == 1 and len(parts) == 1 and not hasattr(
        searcher.readers[0], "_shard_infos"
    ):
        return terms, dfs, ttfs
    uniq, inv = np.unique(terms, return_inverse=True)
    df_sum = np.zeros(len(uniq), dtype=np.int64)
    ttf_sum = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(df_sum, inv, dfs)
    np.add.at(ttf_sum, inv, ttfs)
    return uniq, df_sum, ttf_sum


class CompletionSuggester:
    """Top-N prefix completions ranked by corpus weight (total_term_freq),
    ties broken by term text — the AnalyzingSuggester lookup contract with
    LuceneDictionary-style weights. Works over any searcher (segment tier
    or merged range-sharded tier; shard pruning in _reader_range_stats)."""

    def __init__(self, searcher):
        self.searcher = searcher

    def lookup(self, prefix: str, n: int) -> list[Suggestion]:
        if not prefix:
            return []
        terms, dfs, ttfs = dict_range_stats(
            self.searcher, prefix, prefix + _PREFIX_CEILING
        )
        if len(terms) == 0:
            return []
        # weight desc, term asc — np.lexsort's last key is primary
        order = np.lexsort((terms, -ttfs))[:n]
        return [
            Suggestion(str(terms[i]), float(ttfs[i]), int(ttfs[i])) for i in order
        ]


class DirectSpellChecker:
    """Spelling corrections from the index dictionary.

    Defaults mirror DirectSpellChecker.java:68-95: maxEdits=2, minPrefix=1,
    accuracy=0.5, maxQueryFrequency=0.01, thresholdFrequency=0,
    minQueryLength=4, lowercaseTerms=True.
    """

    def __init__(
        self,
        searcher,
        max_edits: int = 2,
        min_prefix: int = 1,
        accuracy: float = 0.5,
        max_query_frequency: float = 0.01,
        threshold_frequency: float = 0.0,
        min_query_length: int = 4,
        lowercase_terms: bool = True,
    ):
        if not 1 <= max_edits <= 2:
            raise ValueError("max_edits must be 1 or 2")
        self.searcher = searcher
        self.max_edits = max_edits
        self.min_prefix = min_prefix
        self.accuracy = accuracy
        self.max_query_frequency = max_query_frequency
        self.threshold_frequency = threshold_frequency
        self.min_query_length = min_query_length
        self.lowercase_terms = lowercase_terms

    def _query_df(self, text: str) -> int:
        df = 0
        for r in self.searcher.readers:
            d, _ = r.term_stats(text)
            df += int(d)
        return df

    def suggest_similar(
        self, text: str, num_sug: int, mode: str = SUGGEST_WHEN_NOT_IN_INDEX
    ) -> list[Suggestion]:
        if self.min_query_length > 0 and len(text) < self.min_query_length:
            return []
        if self.lowercase_terms:
            text = text.lower()
        docfreq = self._query_df(text)
        if mode == SUGGEST_WHEN_NOT_IN_INDEX and docfreq > 0:
            return []
        max_doc = self.searcher.doc_count
        # DirectSpellChecker.java:364-368 — absolute count when >= 1,
        # fraction of maxDoc otherwise
        if self.max_query_frequency >= 1.0:
            if docfreq > self.max_query_frequency:
                return []
        elif docfreq > int(np.ceil(self.max_query_frequency * float(max_doc))):
            return []
        if mode != SUGGEST_MORE_POPULAR:
            docfreq = 0
        if self.threshold_frequency >= 1.0:
            docfreq = max(docfreq, int(self.threshold_frequency))
        elif self.threshold_frequency > 0.0:
            docfreq = max(
                docfreq, int(self.threshold_frequency * float(max_doc)) - 1
            )

        pfx = text[: self.min_prefix]
        terms, dfs, _ = dict_range_stats(
            self.searcher, pfx, pfx + _PREFIX_CEILING
        ) if pfx else dict_range_stats(self.searcher, "", _PREFIX_CEILING)
        if len(terms) == 0:
            return []
        # vectorized length-band prefilter before the per-candidate DP
        lens = np.fromiter((len(str(t)) for t in terms), dtype=np.int64, count=len(terms))
        band = np.abs(lens - len(text)) <= self.max_edits
        cand_idx = np.nonzero(band)[0]

        out: list[Suggestion] = []
        qlen = len(text)
        for i in cand_idx:
            t = str(terms[i])
            if t == text:
                continue  # DirectSpellChecker.java:454 exact-match skip
            df = int(dfs[i])
            if df <= docfreq:
                continue
            ed = damerau_levenshtein(text, t)
            if ed > self.max_edits:
                continue
            # INTERNAL_LEVENSHTEIN similarity (FuzzyTermsEnum.java:266-270)
            score = float(
                np.float32(1.0) - np.float32(ed) / np.float32(min(len(t), qlen))
            )
            if score < self.accuracy:
                continue
            out.append(Suggestion(t, score, df))
        # SuggestWordScoreComparator: score desc, freq desc, term asc
        out.sort(key=lambda s: (-s.score, -s.freq, s.term))
        return out[:num_sug]


class FuzzySuggester:
    """FuzzySuggester analogue over the index term dictionary (s84
    suggest/src/java/org/apache/lucene/search/suggest/analyzing/
    FuzzySuggester.java): completions whose analyzed form starts with some
    string within ``max_edits`` of the lookup key, where the first
    ``non_fuzzy_prefix`` characters must match exactly and NO edits are
    allowed when the key is shorter than ``min_fuzzy_length``
    (toLevenshteinAutomata: exact-string automaton when ``len(key) <=
    nonFuzzyPrefix or len(key) < minFuzzyLength``, else
    key[:nfp] + LevenshteinAutomata(key[nfp:])). Defaults mirror
    DEFAULT_MAX_EDITS=1 / DEFAULT_NON_FUZZY_PREFIX=1 /
    DEFAULT_MIN_FUZZY_LENGTH=3 / transpositions=true.

    The automaton-vs-FST intersection becomes: dict term T matches iff
    T[:nfp] == key[:nfp] and min over prefix lengths ``plen`` of
    damerau(T[nfp:plen], key[nfp:]) <= max_edits; since edit distance >=
    length difference, only plen in [len(key)-me, len(key)+me] can match
    (the banded window — O(2*me+1) DP calls per candidate, candidates
    pruned to the nfp-prefix dictionary range exactly like
    DirectSpellChecker). Ranking: AnalyzingSuggester's EXACT_FIRST default
    (the key itself, when present, outranks any weight), then weight
    (LuceneDictionary total_term_freq) desc, term asc (TopNSearcher ties
    resolve by input bytes ascending). Damerau is the unrestricted variant
    (see module docstring deviation note)."""

    def __init__(
        self,
        searcher,
        max_edits: int = 1,
        non_fuzzy_prefix: int = 1,
        min_fuzzy_length: int = 3,
        exact_first: bool = True,
    ):
        if max_edits < 0 or max_edits > 2:
            raise ValueError("max_edits must be between 0 and 2")
        self.searcher = searcher
        self.max_edits = max_edits
        self.non_fuzzy_prefix = non_fuzzy_prefix
        self.min_fuzzy_length = min_fuzzy_length
        self.exact_first = exact_first

    def lookup(self, key: str, n: int) -> list[Suggestion]:
        if not key:
            return []
        nfp = self.non_fuzzy_prefix
        me = (
            0
            if (len(key) <= nfp or len(key) < self.min_fuzzy_length)
            else self.max_edits
        )
        pfx = key[:nfp]
        terms, dfs, ttfs = dict_range_stats(
            self.searcher, pfx, pfx + _PREFIX_CEILING
        ) if pfx else dict_range_stats(self.searcher, "", _PREFIX_CEILING)
        if len(terms) == 0:
            return []
        key_rest = key[nfp:]
        out: list[Suggestion] = []
        for i in range(len(terms)):
            t = str(terms[i])
            lo = max(nfp, len(key) - me)
            hi = min(len(t), len(key) + me)
            if any(
                damerau_levenshtein(t[nfp:plen], key_rest) <= me
                for plen in range(lo, hi + 1)
            ):
                out.append(Suggestion(t, float(ttfs[i]), int(ttfs[i])))
        out.sort(
            key=lambda s: (
                not (self.exact_first and s.term == key),
                -s.freq,
                s.term,
            )
        )
        return out[:n]


@dataclass
class FreeTextSuggestion:
    text: str  # the full gram (context + predicted token, space-joined)
    score: float  # stupid-backoff probability (double)


class FreeTextSuggester:
    """FreeTextSuggester analogue (s84 suggest/src/java/org/apache/lucene/
    search/suggest/analyzing/FreeTextSuggester.java): an n-gram "stupid
    backoff" language model (ALPHA = 0.4) predicting the next/current
    token from gram counts. Lookup semantics mirrored from lookup():

    - The analyzed key keeps its last (g+1)-grams; a key ending at a token
      boundary (trailing separator) "upgrades" each gram with a trailing
      separator — "foo " suggests bigram continuations of foo, never
      unigrams (FreeTextSuggester.java:515-530) — and the empty unigram is
      skipped for non-empty keys.
    - Orders run highest first. A missing model prefix multiplies backoff
      by ALPHA and falls through; a processed order ALSO multiplies
      backoff afterwards; an order skipped for lack of input tokens does
      NOT (the reference's plain continue before the multiply).
    - Per order: candidates = this order's grams extending the token,
      ranked count desc / gram asc (TopNSearcher cost order, ties by input
      bytes); the first ``num`` whose LAST token was not already suggested
      by a higher order are accepted (acceptResult seen-set, queue depth
      num+len(seen)); score = (backoff * count) / contextCount where
      contextCount = the context gram's own count, or totTokens at order 1.
    - Final ranking: score desc, full gram text asc.

    Deviation (documented): the reference quantizes scores to a long via
    (long)(Long.MAX_VALUE * score) before comparing; this keeps the raw
    double (ranking-identical unless two distinct scores differ by less
    than one long ULP ~ 1e-16 relative, impossible for the small-rational
    count ratios the model produces). Stopword-hole positions
    (endPosInc-gated in the reference) are out of scope: the analyzer here
    emits no holes.

    Scale: gram counting is a distributed partial-combine map_batches →
    groupby sum (pipelines/flagship.q_suggest_freetext); the fitted model
    (vocabulary-bounded) broadcasts to lookups."""

    ALPHA = 0.4

    def __init__(self, grams: int = 2, analyzer=None):
        from ..functions.analysis import get_analyzer

        if grams < 1:
            raise ValueError("grams must be >= 1")
        self.grams = grams
        self.analyzer = analyzer or get_analyzer("standard")
        # per order o (1-based): sorted gram strings + aligned counts
        self._terms: dict[int, np.ndarray] = {}
        self._counts: dict[int, np.ndarray] = {}
        self.tot_tokens = 0

    def build_from_counts(
        self, gram_counts: dict[int, dict[str, int]], tot_tokens: int
    ) -> "FreeTextSuggester":
        """gram_counts[order] = {space-joined gram: count}."""
        for o in range(1, self.grams + 1):
            m = gram_counts.get(o, {})
            terms = np.array(sorted(m), dtype=object)
            self._terms[o] = terms
            self._counts[o] = np.array([m[t] for t in terms], dtype=np.int64)
        self.tot_tokens = int(tot_tokens)
        return self

    def build(self, texts) -> "FreeTextSuggester":
        """Local (driver-side) gram counting for small corpora/tests; the
        distributed path lives in pipelines/flagship.q_suggest_freetext."""
        counts: dict[int, dict[str, int]] = {o: {} for o in range(1, self.grams + 1)}
        tot = 0
        for text in texts:
            toks = self.analyzer.tokens(str(text))
            tot += len(toks)
            for o in range(1, self.grams + 1):
                for j in range(len(toks) - o + 1):
                    g = " ".join(toks[j : j + o])
                    counts[o][g] = counts[o].get(g, 0) + 1
        return self.build_from_counts(counts, tot)

    def _order_range(self, order: int, prefix: str) -> tuple[int, int]:
        terms = self._terms.get(order)
        if terms is None or len(terms) == 0:
            return 0, 0
        lo = int(np.searchsorted(terms, prefix, side="left"))
        hi = int(np.searchsorted(terms, prefix + _PREFIX_CEILING, side="left"))
        return lo, hi

    def lookup(self, key: str, n: int) -> list[FreeTextSuggestion]:
        toks = self.analyzer.tokens(key)
        if not toks:
            return []
        # offsetAtt.endOffset() > maxEndOffset in the reference — the key
        # ends past the last token; trailing whitespace is the signal here
        last_token_ended = key != key.rstrip()
        # last (g+1)-grams of the analyzed key; None = not enough tokens
        last: list[str | None] = [
            " ".join(toks[len(toks) - (g + 1) :]) if len(toks) >= g + 1 else None
            for g in range(self.grams)
        ]
        if last_token_ended:
            # upgrade: predict continuations, not completions
            for g in range(self.grams - 1, 0, -1):
                if last[g - 1] is not None:
                    last[g] = last[g - 1] + " "
            last[0] = ""

        backoff = 1.0
        seen: set[str] = set()
        results: list[FreeTextSuggestion] = []
        for g in range(self.grams - 1, -1, -1):
            token = last[g]
            if token is None or (token == "" and len(key) > 0):
                continue  # not enough input: NO backoff multiply
            order = g + 1
            lo, hi = self._order_range(order, token)
            if lo == hi:
                backoff *= self.ALPHA  # model never saw this prefix
                continue
            if " " in token:
                context = token[: token.rindex(" ")]
                corder = context.count(" ") + 1
                cterms = self._terms[corder]
                ci = int(np.searchsorted(cterms, context))
                context_count = int(self._counts[corder][ci])
            else:
                context_count = self.tot_tokens
            cand_terms = self._terms[order][lo:hi]
            cand_counts = self._counts[order][lo:hi]
            order_ix = np.lexsort((cand_terms, -cand_counts))
            accepted = 0
            for ix in order_ix:
                if accepted >= n:
                    break
                gram = str(cand_terms[ix])
                last_tok = gram.rsplit(" ", 1)[-1]
                if last_tok in seen:
                    continue
                seen.add(last_tok)
                accepted += 1
                score = float(
                    (np.float64(backoff) * np.float64(cand_counts[ix]))
                    / np.float64(context_count)
                )
                results.append(FreeTextSuggestion(gram, score))
            backoff *= self.ALPHA
        results.sort(key=lambda r: (-r.score, r.text))
        return results[:n]


@dataclass
class InfixSuggestion:
    key: int
    text: str
    weight: int


class InfixSuggester:
    """AnalyzingInfixSuggester analogue (s84 suggest/src/java/org/apache/
    lucene/search/suggest/analyzing/AnalyzingInfixSuggester.java) — the
    suggester real search boxes use: suggestions match when the analyzed
    query's tokens occur ANYWHERE in the suggestion (not only at its
    start), ranked by weight desc.

    Semantics mirrored from lookup(): every query token but the last must
    match a suggestion token EXACTLY; the last query token matches as a
    token PREFIX (the reference's PrefixQuery-on-last-token / textgrams
    contract, AnalyzingInfixSuggester.java:355-392). Ties in weight break
    by insertion key ascending (the reference leaves ties in suggest-index
    doc order, which is insertion order). Like the reference, build()
    constructs the suggester's OWN searchable structure from an input
    iterator (keys, texts, weights) — here one sorted token array +
    parallel suggestion-ids in place of the dedicated Lucene index, so a
    lookup is two searchsorteds per query token + an id intersection.

    Scale path: build is embarrassingly partitionable (sort each
    partition's exploded (token, id) pairs; a lookup fans out and merges
    per-partition top-n by weight — the stages/serve.py pool shape)."""

    def __init__(self, analyzer=None):
        from ..functions.analysis import get_analyzer

        self.analyzer = analyzer or get_analyzer("standard")
        self._n = 0

    def build(self, keys, texts, weights) -> "InfixSuggester":
        self.keys = np.asarray(keys, dtype=np.int64)
        self.texts = np.asarray(texts, dtype=object)
        self.weights = np.asarray(weights, dtype=np.int64)
        tokens, doc_idx = self.analyzer.tokenize_batch(list(self.texts))
        order = np.argsort(tokens, kind="stable")
        self._tokens = tokens[order]
        self._tok_ids = doc_idx[order]
        self._n = len(self.keys)
        return self

    def lookup(self, query: str, n: int) -> list[InfixSuggestion]:
        if self._n == 0:
            return []
        qtoks = self.analyzer.tokens(query)
        if not qtoks:
            return []
        cand = None
        for i, t in enumerate(qtoks):
            lo = int(np.searchsorted(self._tokens, t, side="left"))
            if i == len(qtoks) - 1:  # last token: prefix match
                hi = int(np.searchsorted(self._tokens, t + _PREFIX_CEILING,
                                         side="left"))
            else:  # earlier tokens: exact match
                hi = int(np.searchsorted(self._tokens, t, side="right"))
            ids = np.unique(self._tok_ids[lo:hi])
            cand = ids if cand is None else np.intersect1d(
                cand, ids, assume_unique=True
            )
            if len(cand) == 0:
                return []
        w = self.weights[cand]
        order = np.lexsort((self.keys[cand], -w))[:n]
        sel = cand[order]
        return [
            InfixSuggestion(int(self.keys[i]), str(self.texts[i]),
                            int(self.weights[i]))
            for i in sel
        ]


@dataclass
class BreakSuggestion:
    words: tuple[str, ...]
    freqs: tuple[int, ...]
    changes: int

    @property
    def freq_sum(self) -> int:
        return sum(self.freqs)


class WordBreakSpellChecker:
    """Word-break / word-combine suggestions from the index dictionary.

    Mirrors suggest/.../spell/WordBreakSpellChecker.java:45-120 semantics:
    ``suggest_word_breaks`` recursively splits an out-of-dictionary term
    into parts that each occur in the index with freq >=
    min_suggestion_frequency (up to max_changes splits, each part >=
    min_break_word_length chars); ``suggest_word_combinations`` joins
    adjacent query words into one dictionary word (combined length <=
    max_combine_word_length). Break results rank by
    NUM_CHANGES_THEN_SUMMED_FREQUENCY (WordBreakSpellChecker.java:383):
    fewer changes first, then summed freq desc, then the joined suggestion
    ascending for determinism.
    """

    def __init__(
        self,
        searcher,
        min_suggestion_frequency: int = 1,
        min_break_word_length: int = 1,
        max_changes: int = 1,
        max_combine_word_length: int = 20,
        max_evaluations: int = 1000,
    ):
        self.searcher = searcher
        self.min_suggestion_frequency = min_suggestion_frequency
        self.min_break_word_length = min_break_word_length
        self.max_changes = max_changes
        self.max_combine_word_length = max_combine_word_length
        self.max_evaluations = max_evaluations

    def _df(self, text: str) -> int:
        df = 0
        for r in self.searcher.readers:
            d, _ = r.term_stats(text)
            df += int(d)
        return df

    def suggest_word_breaks(self, term: str, n: int) -> list[BreakSuggestion]:
        """SUGGEST_WHEN_NOT_IN_INDEX: no suggestions if the term itself is
        a dictionary word (WordBreakSpellChecker.java:134-139)."""
        if self._df(term) >= max(1, self.min_suggestion_frequency):
            return []
        out: list[BreakSuggestion] = []
        self._evals = 0
        self._break_rec(term, (), (), self.max_changes, out)
        out.sort(key=lambda s: (s.changes, -s.freq_sum, " ".join(s.words)))
        return out[:n]

    def _break_rec(
        self,
        rest: str,
        words: tuple[str, ...],
        freqs: tuple[int, ...],
        changes_left: int,
        out: list,
    ) -> None:
        m = self.min_break_word_length
        for i in range(m, len(rest) - m + 1):
            if self._evals >= self.max_evaluations:
                return
            self._evals += 1
            left, right = rest[:i], rest[i:]
            ldf = self._df(left)
            if ldf < self.min_suggestion_frequency:
                continue
            rdf = self._df(right)
            if rdf >= self.min_suggestion_frequency:
                out.append(
                    BreakSuggestion(
                        words + (left, right), freqs + (ldf, rdf),
                        changes=len(words) + 1,
                    )
                )
            if changes_left > 1 and len(right) >= 2 * m:
                self._break_rec(
                    right, words + (left,), freqs + (ldf,), changes_left - 1, out
                )

    def suggest_word_combinations(
        self, terms: list[str], n: int
    ) -> list[BreakSuggestion]:
        """Join runs of 2+ adjacent query words into one dictionary word
        (WordBreakSpellChecker.java:175-230); rank freq desc, word asc."""
        out: list[BreakSuggestion] = []
        for i in range(len(terms)):
            combined = terms[i]
            for j in range(i + 1, len(terms)):
                combined = combined + terms[j]
                if len(combined) > self.max_combine_word_length:
                    break
                df = self._df(combined)
                if df >= self.min_suggestion_frequency:
                    out.append(
                        BreakSuggestion((combined,), (df,), changes=j - i)
                    )
        out.sort(key=lambda s: (-s.freq_sum, s.words[0]))
        return out[:n]


class ContextCompletionSuggester:
    """Context-filtered completions — the ContextSuggestField/ContextQuery
    role (s84 suggest/src/java/org/apache/lucene/search/suggest/document/
    ContextSuggestField.java + ContextQuery.java): candidates come from
    the same prefix range scan as CompletionSuggester, but each term's
    weight is its total term frequency WITHIN the context's document set
    (a vectorized mask over the context doc-values column applied to the
    candidate's postings); terms with no occurrence in the context are
    filtered out, like suggestions whose contexts don't match."""

    def __init__(self, searcher, context_col: str = "lang"):
        self.searcher = searcher
        self.context_col = context_col

    def lookup(self, prefix: str, context: str, n: int) -> list[Suggestion]:
        if not prefix:
            return []
        terms, _dfs, _ttfs = dict_range_stats(
            self.searcher, prefix, prefix + _PREFIX_CEILING
        )
        if len(terms) == 0:
            return []
        import numpy as np

        weights = np.zeros(len(terms), dtype=np.int64)
        # every reader (one per segment, or the merged tier's one global
        # reader), each masked by its own doc-values column
        for r in self.searcher.readers:
            ctx = np.asarray(
                r.doc_values(self.context_col), dtype=object
            ) == context
            for i, t in enumerate(terms):
                tp = r.term_postings(str(t))
                if tp is None:
                    continue
                docs, freqs = tp.decode()
                weights[i] += int(freqs[ctx[docs]].sum())
        keep = weights > 0
        terms, weights = terms[keep], weights[keep]
        order = np.lexsort((terms, -weights))[:n]
        return [
            Suggestion(str(terms[i]), float(weights[i]), int(weights[i]))
            for i in order
        ]


class BlendedInfixSuggester(InfixSuggester):
    """BlendedInfixSuggester analogue (s84 suggest/.../analyzing/
    BlendedInfixSuggester.java:47): infix candidates like the parent, but
    the weight BLENDS with the first matching token's POSITION in the
    suggestion — "position_linear" coef = 1 - 0.10*position
    (java:60 LINEAR_COEF), "position_reciprocal" coef = 1/(position+1)
    (java:calculateCoefficient) — so matches near the start of the
    suggestion outrank deep matches of equal raw weight. Ranking is by
    blended score desc, insertion key asc."""

    LINEAR_COEF = 0.10

    def __init__(self, analyzer=None, blender: str = "position_reciprocal"):
        super().__init__(analyzer)
        if blender not in ("position_linear", "position_reciprocal"):
            raise ValueError(f"unknown blender {blender!r}")
        self.blender = blender

    def build(self, keys, texts, weights) -> "BlendedInfixSuggester":
        super().build(keys, texts, weights)
        # parallel token-position array (same sort order as _tokens):
        # position of each token within its own suggestion
        tokens, doc_idx = self.analyzer.tokenize_batch(list(self.texts))
        starts = np.flatnonzero(np.r_[True, doc_idx[1:] != doc_idx[:-1]])
        pos = np.arange(len(tokens), dtype=np.int64)
        pos = pos - np.repeat(pos[starts], np.diff(np.r_[starts, len(tokens)]))
        order = np.argsort(tokens, kind="stable")
        self._tok_pos = pos[order]
        return self

    def _coef(self, position: np.ndarray) -> np.ndarray:
        p = position.astype(np.float64)
        if self.blender == "position_linear":
            return 1.0 - self.LINEAR_COEF * p
        return 1.0 / (p + 1.0)

    def lookup(self, query: str, n: int) -> list[InfixSuggestion]:
        if self._n == 0:
            return []
        qtoks = self.analyzer.tokens(query)
        if not qtoks:
            return []
        cand = None
        first_pos: dict[int, int] = {}
        for i, t in enumerate(qtoks):
            lo = int(np.searchsorted(self._tokens, t, side="left"))
            if i == len(qtoks) - 1:
                hi = int(np.searchsorted(self._tokens, t + _PREFIX_CEILING,
                                         side="left"))
            else:
                hi = int(np.searchsorted(self._tokens, t, side="right"))
            ids = self._tok_ids[lo:hi]
            poss = self._tok_pos[lo:hi]
            # earliest match position per suggestion for THIS token
            order = np.lexsort((poss, ids))
            ids_s, poss_s = ids[order], poss[order]
            keep = np.r_[True, ids_s[1:] != ids_s[:-1]]
            for sid, p in zip(ids_s[keep], poss_s[keep]):
                cur = first_pos.get(int(sid))
                if cur is None or p < cur:
                    first_pos[int(sid)] = int(p)
            uids = np.unique(ids)
            cand = uids if cand is None else np.intersect1d(
                cand, uids, assume_unique=True
            )
            if len(cand) == 0:
                return []
        pos_arr = np.array([first_pos[int(c)] for c in cand], dtype=np.int64)
        blended = self.weights[cand].astype(np.float64) * self._coef(pos_arr)
        order = np.lexsort((self.keys[cand], -blended))[:n]
        return [
            InfixSuggestion(int(self.keys[cand[o]]), str(self.texts[cand[o]]),
                            float(blended[o]))
            for o in order
        ]
