"""Suggest-module tests: Damerau distance vs DuckDB, completion lookup on
the sharded merged dictionary (incl. salted hot terms), DirectSpellChecker
modes / accuracy boundary / frequency gating."""

from __future__ import annotations

import numpy as np
import pytest


def test_damerau_levenshtein_matches_duckdb():
    """The Python DP must match DuckDB's unrestricted damerau_levenshtein
    (the oracle's metric) on random pairs and the documented corner cases."""
    import duckdb

    from lucene_7_x_9_x_ray.search.suggest import damerau_levenshtein

    rng = np.random.default_rng(7)
    alpha = list("abcde")
    pairs = [("ca", "abc"), ("ab", "ba"), ("abcd", "badc"), ("", "xy"), ("x", "")]
    for _ in range(300):
        a = "".join(rng.choice(alpha, size=rng.integers(0, 8)))
        b = "".join(rng.choice(alpha, size=rng.integers(0, 8)))
        pairs.append((a, b))
    con = duckdb.connect()
    for a, b in pairs:
        want = con.execute(
            "SELECT damerau_levenshtein(?, ?)", [a, b]
        ).fetchone()[0]
        assert damerau_levenshtein(a, b) == want, (a, b)


@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory):
    """Merged index with salted hot terms (tiny hot_df_threshold) plus the
    token table to brute-force expected stats."""
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index

    tmp = tmp_path_factory.mktemp("suggest_idx")
    pages = generate_pages(500, vocab_size=300, mean_tokens=30)
    path = str(tmp / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100))
    merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=60))

    toks: dict[int, list[str]] = {
        i: t.split(" ") for i, t in enumerate(pages["text"].to_pylist())
    }
    return idx, toks


def _brute_stats(toks: dict[int, list[str]]) -> dict[str, tuple[int, int]]:
    df: dict[str, int] = {}
    ttf: dict[str, int] = {}
    for ts in toks.values():
        for t in set(ts):
            df[t] = df.get(t, 0) + 1
        for t in ts:
            ttf[t] = ttf.get(t, 0) + 1
    return {t: (df[t], ttf[t]) for t in df}


def test_completion_merged_matches_bruteforce(small_index):
    """Sharded-dictionary completion == brute force over the corpus, and
    the merged tier (salted hot terms re-aggregated) == the segment tier."""
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.search.suggest import CompletionSuggester

    idx, toks = small_index
    stats = _brute_stats(toks)
    merged = CompletionSuggester(open_searcher(idx))
    seg = CompletionSuggester(IndexSearcher(idx))
    for prefix, n in [("t0000", 5), ("t001", 8), ("t", 10), ("zz", 3)]:
        want = sorted(
            ((t, w) for t, (_d, w) in stats.items() if t.startswith(prefix)),
            key=lambda x: (-x[1], x[0]),
        )[:n]
        got_m = [(s.term, s.freq) for s in merged.lookup(prefix, n)]
        got_s = [(s.term, s.freq) for s in seg.lookup(prefix, n)]
        assert got_m == want, prefix
        assert got_s == want, prefix


def test_spellcheck_modes_and_boundaries(small_index):
    """WHEN_NOT_IN_INDEX empties on present terms; MORE_POPULAR keeps only
    strictly-more-frequent candidates; accuracy keeps the exact-0.5
    boundary; comparator is score desc / df desc / term asc."""
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.search.suggest import (
        SUGGEST_ALWAYS,
        SUGGEST_MORE_POPULAR,
        DirectSpellChecker,
        damerau_levenshtein,
    )

    idx, toks = small_index
    stats = _brute_stats(toks)
    searcher = open_searcher(idx)
    # generous query-frequency cap: the synthetic head terms are frequent
    sc = DirectSpellChecker(searcher, max_query_frequency=10**9)

    present = "t00000"
    assert sc.suggest_similar(present, 5) == []  # default WHEN_NOT_IN_INDEX

    # absent misspelling of a vocab word: t0001x (ed 1 from t00010..t00019)
    got = sc.suggest_similar("t0001x", 10, mode=SUGGEST_ALWAYS)
    assert got, "expected suggestions for t0001x"

    def brute(text, num, min_df=0):
        out = []
        for t, (d, _w) in stats.items():
            if t == text or d <= min_df:
                continue
            ed = damerau_levenshtein(text, t)
            if ed > 2 or t[0] != text[0]:
                continue
            score = float(
                np.float32(1.0) - np.float32(ed) / np.float32(min(len(t), len(text)))
            )
            if score < 0.5:
                continue
            out.append((t, score, d))
        out.sort(key=lambda s: (-s[1], -s[2], s[0]))
        return out[:num]

    assert [(s.term, s.score, s.freq) for s in got] == brute("t0001x", 10)

    # MORE_POPULAR: only candidates with df strictly above the query's df
    qdf = stats[present][0]
    got_mp = sc.suggest_similar(present, 10, mode=SUGGEST_MORE_POPULAR)
    want_mp = brute(present, 10, min_df=qdf)
    assert [(s.term, s.score, s.freq) for s in got_mp] == want_mp
    assert all(s.freq > qdf for s in got_mp)

    # maxQueryFrequency gate: default 0.01 of maxDoc silences frequent terms
    strict = DirectSpellChecker(searcher)
    assert strict.suggest_similar(present, 5, mode=SUGGEST_MORE_POPULAR) == []

    # min_query_length: short inputs never suggest
    assert sc.suggest_similar("t0", 5, mode=SUGGEST_ALWAYS) == []


def test_infix_suggester_semantics():
    """InfixSuggester: token-start matches anywhere in the suggestion;
    earlier query tokens exact, last token prefix; weight-desc key-asc
    order; empty on no match (AnalyzingInfixSuggester lookup contract)."""
    import numpy as np

    from lucene_7_x_9_x_ray.search.suggest import InfixSuggester

    texts = [
        "the fast key order",      # 0
        "spark group query row",   # 1
        "join a filter window",    # 2
        "fast window filter",      # 3
        "window fast",             # 4  (weight tie with 0)
    ]
    s = InfixSuggester().build([0, 1, 2, 3, 4], texts, [128, 441, 348, 348, 128])
    # prefix hit mid-suggestion ("fi" starts 'filter' at position 2 / 1)
    assert [x.key for x in s.lookup("fi", 5)] == [2, 3]
    # weight desc, key asc on ties
    assert [x.key for x in s.lookup("window", 5)] == [2, 3, 4]
    assert [x.key for x in s.lookup("fast", 5)] == [3, 0, 4]
    # multi-token: "the" exact + "fa" prefix — only doc 0 has BOTH
    assert [x.key for x in s.lookup("the fa", 5)] == [0]
    # earlier tokens are EXACT: "fas window" must not match (no token "fas")
    assert s.lookup("fas window", 5) == []
    # but as the LAST token "fas" is a prefix
    assert [x.key for x in s.lookup("window fas", 5)] == [3, 4]
    # n truncates after ordering
    assert [x.key for x in s.lookup("window", 2)] == [2, 3]
    assert s.lookup("zzz", 5) == [] and s.lookup("", 5) == []


def test_fuzzy_suggester_semantics(small_index):
    """FuzzySuggester over the merged dictionary vs a brute-force oracle:
    nfp-exact first char, banded prefix-edit window, min_fuzzy_length
    zero-edit gate, EXACT_FIRST rank, weight desc / term asc ties."""
    from lucene_7_x_9_x_ray.search.merged import MergedIndexSearcher
    from lucene_7_x_9_x_ray.search.suggest import FuzzySuggester, damerau_levenshtein

    idx, toks = small_index
    stats = _brute_stats(toks)
    s = MergedIndexSearcher(idx)

    def brute(key, n, me=1, nfp=1, mfl=3):
        eff = 0 if (len(key) <= nfp or len(key) < mfl) else me
        out = []
        for t, (_, ttf) in stats.items():
            if t[:nfp] != key[:nfp]:
                continue
            lo, hi = max(nfp, len(key) - eff), min(len(t), len(key) + eff)
            if any(
                damerau_levenshtein(t[nfp:p], key[nfp:]) <= eff
                for p in range(lo, hi + 1)
            ):
                out.append((t, ttf))
        out.sort(key=lambda x: (x[0] != key, -x[1], x[0]))
        return [(t, w) for t, w in out[:n]]

    sug = FuzzySuggester(s)
    # vocab is t00000..t00299: "t0012" fuzzes across many neighbours
    for key in ["t0012", "t00123", "t0", "t00", "t00299", "t99999", "t001"]:
        got = [(r.term, r.freq) for r in sug.lookup(key, 8)]
        assert got == brute(key, 8), key
    # exact term ranks first even when a neighbour has higher weight
    got = sug.lookup("t00250", 5)
    assert got and got[0].term == "t00250"
    assert brute("t00250", 5)[0][0] == "t00250"
    # zero-edit path for short keys: plain prefix completions
    short = sug.lookup("t0", 5)
    assert all(r.term.startswith("t0") for r in short)


def test_freetext_suggester_semantics():
    """FreeTextSuggester stupid backoff (FreeTextSuggester.java lookup):
    trailing-space upgrade (bigram only), fragment completion with
    unigram backoff 0.4, seen-set dedup across orders, prefix-miss
    backoff, per-order top-n, score desc / text asc ranking."""
    from lucene_7_x_9_x_ray.search.suggest import FreeTextSuggester

    s = FreeTextSuggester().build(["a b c a b d a c", "b c a b"])
    # corpus: uni a4 b4 c3 d1 (tot 12); big: ab3 ac1 bc2 bd1 ca2 da1

    # trailing space: continuations of 'a' only, no unigram predictions
    got = s.lookup("a ", 5)
    assert [(r.text, round(r.score, 6)) for r in got] == [
        ("a b", 0.75), ("a c", 0.25)
    ]
    # fragment: bigram "a b" (3/4) wins; unigram "b" is seen-suppressed
    assert [(r.text, round(r.score, 6)) for r in s.lookup("a b", 5)] == [
        ("a b", 0.75)
    ]
    # fragment with no bigram support: unigram model at backoff 0.4
    # key "d c": bigram "d c" absent -> backoff 0.4; uni c=3/12 * 0.4 = 0.1
    assert [(r.text, round(r.score, 6)) for r in s.lookup("d c", 5)] == [
        ("c", 0.1)
    ]
    # single token, no context: unigram model at backoff 1.0
    assert [(r.text, round(r.score, 6)) for r in s.lookup("c", 5)] == [
        ("c", 0.25)
    ]
    # unigram fallback adds UNSEEN last tokens after the bigram stage:
    # "b c"(2/4) then "b d"(1/4); unigram 'b' (4/12)*0.4 = 0.1333.. ranks between
    got = s.lookup("b ", 5)  # trailing space: bigram only
    assert [r.text for r in got] == ["b c", "b d"]
    got2 = s.lookup("b b", 5)  # fragment 'b': no bigram 'b b...'; uni 'b'
    assert [(r.text, round(r.score, 6)) for r in got2] == [("b", 0.133333)]
    # per-order top-n: n=1 keeps only the best bigram
    assert [r.text for r in s.lookup("a ", 1)] == ["a b"]
    # empty / unseen everything
    assert s.lookup("zz xx", 5) == [] and s.lookup("", 5) == []


def test_wordbreak_spellchecker(ray_session):
    """WordBreakSpellChecker: break/combine semantics over the sf0.001
    dictionary — in-dictionary inputs yield nothing, compounds split at
    every all-dictionary decomposition, ranking is changes asc then
    summed-freq desc, combinations only fire on dictionary concats."""
    from lucene_7_x_9_x_ray.pipelines.flagship import get_searchers
    from lucene_7_x_9_x_ray.search.suggest import WordBreakSpellChecker

    merged, _ = get_searchers("/root/testdata/sf0.001")
    wb = WordBreakSpellChecker(merged, max_changes=2)

    # SUGGEST_WHEN_NOT_IN_INDEX: dictionary words are never broken
    assert wb.suggest_word_breaks("table", 5) == []
    # 1-change split
    br = wb.suggest_word_breaks("keyhash", 5)
    assert br and br[0].words == ("key", "hash") and br[0].changes == 1
    assert br[0].freq_sum == sum(br[0].freqs)
    # 2-change recursion
    br2 = wb.suggest_word_breaks("sortmergejoin", 5)
    assert ("sort", "merge", "join") in [s.words for s in br2]
    assert all(s.changes <= 2 for s in br2)
    # ranking: changes asc, then freq_sum desc
    keys = [(s.changes, -s.freq_sum) for s in br2]
    assert keys == sorted(keys)
    # combinations: only dictionary concats fire
    cb = wb.suggest_word_combinations(["tab", "le"], 3)
    assert [s.words for s in cb] == [("table",)]
    assert wb.suggest_word_combinations(["foo", "bar"], 3) == []
    # max_combine_word_length guard
    wb2 = WordBreakSpellChecker(merged, max_combine_word_length=4)
    assert wb2.suggest_word_combinations(["tab", "le"], 3) == []


def test_blended_infix_suggester_position_blending():
    """BlendedInfixSuggester: equal raw weights rank by first-match
    position (reciprocal and linear blenders); multi-token queries blend
    on the earliest matching token; parent ordering restored at pos 0."""
    from lucene_7_x_9_x_ray.search.suggest import BlendedInfixSuggester

    keys = [0, 1, 2]
    texts = ["star wars saga", "wars of star", "the old star wars"]
    weights = [100, 100, 100]
    sug = BlendedInfixSuggester(blender="position_reciprocal").build(
        keys, texts, weights
    )
    got = sug.lookup("star", 3)
    # first-match positions: 0, 2, 2 -> doc0 first; ties (1,2) by key
    assert [s.key for s in got] == [0, 1, 2]
    assert got[0].weight == 100.0 and abs(got[1].weight - 100 / 3) < 1e-12

    lin = BlendedInfixSuggester(blender="position_linear").build(
        keys, texts, weights
    )
    got_l = lin.lookup("star", 3)
    assert [s.key for s in got_l] == [0, 1, 2]
    assert got_l[1].weight == 100 * (1 - 0.10 * 2)

    # multi-token: all-but-last exact, last prefix; blend on earliest match
    got_m = sug.lookup("star wa", 3)
    assert [s.key for s in got_m] == [0, 1, 2]  # doc1 matches star@2, wars@0
    assert got_m[1].weight == 100.0  # earliest match (wars@0) drives the coef

    import pytest

    with pytest.raises(ValueError):
        BlendedInfixSuggester(blender="nope")


def test_context_completion_spans_every_segment(ray_session, tmp_path):
    """Context-weighted completions over a 2-segment index equal those of
    a 1-segment index of the same docs: each segment's postings are
    masked by that segment's own context doc-values column."""
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.search.suggest import ContextCompletionSuggester
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index

    pages = generate_pages(200, vocab_size=200, mean_tokens=30)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    sugs = []
    for n_seg, per_seg in [(1, 200), (2, 100)]:
        idx = str(tmp_path / f"idx{n_seg}")
        build_index([path], idx, BuildConfig(target_docs_per_segment=per_seg))
        searcher = IndexSearcher(idx)
        assert len(searcher.readers) == n_seg
        sugs.append(ContextCompletionSuggester(searcher, context_col="lang"))
    one, two = sugs
    seen = 0
    for prefix in ("t0000", "t001", "t01", "t1"):
        for ctx in ("en", "de", "zh"):
            want = [(s.term, s.score, s.freq) for s in one.lookup(prefix, ctx, 8)]
            got = [(s.term, s.score, s.freq) for s in two.lookup(prefix, ctx, 8)]
            assert got == want, (prefix, ctx)
            seen += len(want)
    assert seen > 0
