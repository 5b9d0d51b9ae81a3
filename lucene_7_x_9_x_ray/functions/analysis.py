"""Analyzers: text -> token stream, vectorized over Arrow batches.

Behavioral reference (re-implemented from scratch, not ported):
- StandardTokenizer: UAX#29 word-break tokenization with token types
  ALPHANUM/NUM/IDEOGRAPHIC/HIRAGANA/KATAKANA/HANGUL and
  maxTokenLength=255 (longer runs are split), solr-8.4.0/lucene/core/src/
  java/org/apache/lucene/analysis/standard/StandardTokenizer.java:57-179.
- StandardAnalyzer chain = tokenizer -> LowerCaseFilter -> StopFilter with a
  default EMPTY stop set (StandardAnalyzer.java:56-58,91-100).
- Classic 33-word English stop list from
  analysis/common/.../en/EnglishAnalyzer.java:48-56.

Our tokenizer approximates UAX#29 with a compiled regex:
- Han ideographs and Hiragana emit ONE token per character; Katakana and
  Hangul emit runs (matches StandardTokenizer's emitted token texts).
- Word tokens are runs of Unicode word characters (letters, digits, marks,
  underscore=ExtendNumLet) joined by single mid-token connectors:
  apostrophe/'/:/middle-dot between letters (MidLetter), '.' between
  alphanumerics (MidNumLet), ',' between digits (MidNum).
Documented deviations from full UAX#29: regional-indicator/emoji sequences
are not tokenized (dropped), and connector rules check only the right-hand
neighbor. Conformance vectors live in tests/test_analysis.py.

Batch API: ``tokenize_batch`` runs one compiled-regex ``findall`` per
document (a Python loop over documents, never over tokens), then builds
the flat token array and its doc index with one ``np.repeat`` over the
per-document counts. Each analyzer's ``_findall`` may take a
per-document fast path — StandardAnalyzer matches a pure-ASCII document
with a narrower ASCII word regex — so a document's tokens never depend on
its batch neighbours. (One pass over a sentinel-joined batch gave the same
tokens but only ~25% less tokenize time on 40,960 pages, so the simpler
per-document loop stays.)
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Analyzer",
    "StandardAnalyzer",
    "SimpleAnalyzer",
    "EnglishAnalyzer",
    "WhitespaceAnalyzer",
    "KeywordAnalyzer",
    "LetterAnalyzer",
    "StopAnalyzer",
    "CustomAnalyzer",
    "get_analyzer",
    "ENGLISH_STOP_WORDS",
    "MAX_TOKEN_LENGTH",
]

MAX_TOKEN_LENGTH = 255  # StandardAnalyzer.DEFAULT_MAX_TOKEN_LENGTH

# Classic English stop set (EnglishAnalyzer.java:48-56). StandardAnalyzer's
# default stop set is EMPTY — this list is opt-in, as in the reference.
ENGLISH_STOP_WORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)

# --- script ranges (Han / Hiragana / Katakana / Hangul) --------------------
_HAN = (
    "⺀-⻿々〇〡-〩〸-〻"
    "㐀-䶿一-鿿豈-﫿"
)
_HIRA = "ぁ-ゖゝ-ゟ"
_KATA = "ァ-ヺー-ヿㇰ-ㇿｦ-ﾝ"
_HANGUL = "ᄀ-ᇿ㄰-㆏ꥠ-꥿가-퟿"
_CJK_ALL = _HAN + _HIRA + _KATA + _HANGUL

# Combining marks (UAX#29 Extend) — Python's \w excludes category Mn, so
# tokens like "i̇stanbul" (lowercased İstanbul) would otherwise split.
_MARKS = "̀-ͯ᪰-᫿᷀-᷿⃐-⃿︠-︯"
# Word char = unicode \w (plus combining marks) minus the CJK ranges.
_W = rf"(?:(?![{_CJK_ALL}])[\w{_MARKS}])"
_WL = rf"(?:(?![{_CJK_ALL}])[^\W\d_])"  # letter-ish (no digit/underscore)
_D = r"\d"
# Mid-token connectors (right-neighbor checked): MidLetter ' ’ : · before a
# letter, MidNumLet . before alnum, MidNum , before a digit.
_CONN = rf"(?:['’:·״](?={_WL})|\.(?={_W})|,(?={_D}))"
_WORD_RUN = rf"{_W}+(?:{_CONN}{_W}+)*"

_STANDARD_PATTERN = re.compile(
    rf"[{_HAN}]|[{_HIRA}]|[{_KATA}]+|[{_HANGUL}]+|{_WORD_RUN}",
    re.UNICODE,
)

# Pure-ASCII fast path. MUST tokenize identically to _STANDARD_PATTERN on
# ASCII input (same connector lookaheads, ASCII classes) — tokenization may
# not depend on which documents share a batch; equivalence is property-
# tested in tests/test_analysis.py::test_ascii_fast_path_equivalence.
_ASCII_WORD = re.compile(
    r"[A-Za-z0-9_]+(?:(?:[':](?=[A-Za-z])|\.(?=[A-Za-z0-9_])|,(?=[0-9]))[A-Za-z0-9_]+)*"
)

# SimpleAnalyzer: lowercase alnum runs — exactly replicable in DuckDB SQL as
# unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) for oracle parity.
_SIMPLE_PATTERN = re.compile(r"[a-z0-9]+")

_SENTINEL = "\x1f"  # unit separator: not a word char, survives lower()


class Analyzer:
    """text column -> (tokens, doc_idx) arrays. Subclasses set pattern/stop."""

    name = "base"
    # LowerCaseFilter position: most chains lowercase before matching, so the
    # tokenizer regexes only need lowercase classes. Case-preserving
    # tokenizers (Whitespace/Keyword, per their reference chains) set False.
    lowercase_input = True

    def __init__(self, stopwords: Iterable[str] | None = None):
        self.stopwords = frozenset(stopwords) if stopwords else frozenset()
        self._stop_arr = (
            np.array(sorted(self.stopwords), dtype=object) if self.stopwords else None
        )

    # -- single string (query side / tests) --------------------------------
    def tokens(self, text: str) -> list[str]:
        toks, _ = self.tokenize_batch([text])
        return list(toks)

    # -- batch (index side) -------------------------------------------------
    def _findall(self, text: str) -> list[str]:
        raise NotImplementedError

    def tokenize_batch(
        self, texts: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tokenize a batch of strings.

        Returns (tokens: object ndarray, doc_idx: int64 ndarray) where
        doc_idx[i] is the row of texts that produced tokens[i]. Tokens are
        emitted in document order then position order (deterministic; the
        ASCII fast path is chosen PER DOCUMENT, so a doc's tokens never
        depend on its batch neighbors). The Python loop is per document —
        token extraction is one C-level findall per doc.
        """
        tokens, doc_idx = self._tokenize_raw(texts)
        tokens = self._map_pre_stop(tokens)
        if self._stop_arr is not None and len(tokens):
            # vectorized membership: binary-search the sorted stop array
            loc = np.searchsorted(self._stop_arr, tokens)
            loc = np.minimum(loc, len(self._stop_arr) - 1)
            is_stop = self._stop_arr[loc] == tokens
            keep = ~is_stop
            tokens, doc_idx = tokens[keep], doc_idx[keep]
        tokens = self._map_post_stop(tokens)
        return tokens, doc_idx

    def _tokenize_raw(
        self, texts: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tokenizer + maxTokenLength stage, before any token filters."""
        n = len(texts)
        if n == 0:
            return np.empty(0, dtype=object), np.empty(0, dtype=np.int64)
        if self.lowercase_input:
            per_doc = [
                self._findall(("" if t is None else str(t)).lower()) for t in texts
            ]
        else:
            per_doc = [self._findall("" if t is None else str(t)) for t in texts]
        counts = np.fromiter(map(len, per_doc), dtype=np.int64, count=n)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        flat: list[str] = []
        for toks in per_doc:
            flat.extend(toks)
        tokens = np.array(flat, dtype=object)

        # maxTokenLength=255: overlong runs are split (rare; vectorized scan)
        if len(tokens):
            import pyarrow.compute as _pc
            import pyarrow as _pa

            lens = _pc.utf8_length(_pa.array(tokens, type=_pa.string())).to_numpy()
            if int(lens.max(initial=0)) > MAX_TOKEN_LENGTH:
                out_t: list[str] = []
                out_d: list[int] = []
                for tok, d in zip(tokens, doc_idx):
                    if len(tok) <= MAX_TOKEN_LENGTH:
                        out_t.append(tok)
                        out_d.append(int(d))
                    else:
                        for off in range(0, len(tok), MAX_TOKEN_LENGTH):
                            out_t.append(tok[off : off + MAX_TOKEN_LENGTH])
                            out_d.append(int(d))
                tokens = np.array(out_t, dtype=object)
                doc_idx = np.array(out_d, dtype=np.int64)
        return tokens, doc_idx

    # chain hooks: token-to-token maps applied before/after the stop filter
    # (the TokenFilter slots of the reference's analyzer chains)
    def _map_pre_stop(self, tokens: np.ndarray) -> np.ndarray:
        return tokens

    def _map_post_stop(self, tokens: np.ndarray) -> np.ndarray:
        return tokens

    def doc_token_counts(self, texts: Sequence[str]) -> np.ndarray:
        """Per-row token count (the BM25 doc-length statistic input)."""
        _, doc_idx = self.tokenize_batch(texts)
        return np.bincount(doc_idx, minlength=len(texts)).astype(np.int64)


class StandardAnalyzer(Analyzer):
    """StandardAnalyzer-equivalent: UAX#29-ish tokenize + lowercase + stop.

    Default stop set is EMPTY, matching the reference
    (StandardAnalyzer.java:56-58). Pass ``stopwords=ENGLISH_STOP_WORDS`` for
    the classic English list.
    """

    name = "standard"

    def _findall(self, text: str) -> list[str]:
        if text.isascii():
            return _ASCII_WORD.findall(text)
        return _STANDARD_PATTERN.findall(text)


class SimpleAnalyzer(Analyzer):
    """Lowercase [a-z0-9]+ runs — SQL-oracle-replicable tokenization."""

    name = "simple"

    def _findall(self, text: str) -> list[str]:
        return _SIMPLE_PATTERN.findall(text)


class EnglishAnalyzer(StandardAnalyzer):
    """EnglishAnalyzer-equivalent chain (s84 analysis/common/.../en/
    EnglishAnalyzer.java:108-117): StandardTokenizer -> possessive strip
    ('s removal, EnglishPossessiveFilter) -> LowerCase -> classic-33 stop
    set -> Porter stemmer. Stemming runs at VOCAB level: unique tokens are
    stemmed once and mapped back (vocab << token stream)."""

    name = "english"

    def __init__(self, stopwords: Iterable[str] | None = None):
        super().__init__(
            stopwords=ENGLISH_STOP_WORDS if stopwords is None else stopwords
        )

    def _map_pre_stop(self, tokens: np.ndarray) -> np.ndarray:
        if len(tokens) == 0:
            return tokens
        # EnglishPossessiveFilter: trailing 's (tokenizer keeps "john's"
        # as one token via the MidLetter apostrophe rule)
        out = tokens
        mask = np.array(
            [t.endswith("'s") or t.endswith("’s") for t in tokens], dtype=bool
        )
        if mask.any():
            out = tokens.copy()
            out[mask] = [t[:-2] for t in out[mask]]
        return out

    def _map_post_stop(self, tokens: np.ndarray) -> np.ndarray:
        if len(tokens) == 0:
            return tokens
        from .porter import porter_stem

        vocab, inv = np.unique(tokens, return_inverse=True)
        stemmed = np.array([porter_stem(v) for v in vocab], dtype=object)
        return stemmed[inv]


class WhitespaceAnalyzer(Analyzer):
    """WhitespaceTokenizer only: split on Unicode whitespace, case
    preserved (s84 analysis/core/WhitespaceAnalyzer.java:33 +
    WhitespaceTokenizer.java:36 — Character.isWhitespace boundaries)."""

    name = "whitespace"
    lowercase_input = False

    def _findall(self, text: str) -> list[str]:
        return text.split()


class KeywordAnalyzer(Analyzer):
    """Whole input emitted as ONE untouched token (s84 analysis/core/
    KeywordAnalyzer.java:28 / KeywordTokenizer.java:32); empty input
    emits nothing."""

    name = "keyword"
    lowercase_input = False

    def _findall(self, text: str) -> list[str]:
        return [text] if text else []


_LETTER_PATTERN = re.compile(rf"{_WL}+", re.UNICODE)


class LetterAnalyzer(Analyzer):
    """LowerCaseTokenizer semantics — maximal LETTER runs, lowercased
    (digits split tokens): the reference's SimpleAnalyzer chain (s84
    analysis/core/SimpleAnalyzer.java:32 + LetterTokenizer.java:36).
    Registered as "letter" because this package's "simple" is the
    SQL-oracle-replicable [a-z0-9]+ variant (documented deviation)."""

    name = "letter"

    def _findall(self, text: str) -> list[str]:
        return _LETTER_PATTERN.findall(text)


class StopAnalyzer(LetterAnalyzer):
    """LowerCaseTokenizer + StopFilter (s84 analysis/core/StopAnalyzer
    .java:40). The reference takes the stop set as a constructor arg;
    default here is the classic-33 English list."""

    name = "stop"

    def __init__(self, stopwords: Iterable[str] | None = None):
        super().__init__(
            stopwords=ENGLISH_STOP_WORDS if stopwords is None else stopwords
        )


# --- token-filter library (the TokenFilter chain slots) ---------------------
# Each filter: (tokens, doc_idx) -> (tokens, doc_idx). Vocab-level filters
# transform unique tokens once and scatter back (vocab << token stream).


def _vocab_map(tokens: np.ndarray, fn) -> np.ndarray:
    if len(tokens) == 0:
        return tokens
    vocab, inv = np.unique(tokens, return_inverse=True)
    mapped = np.array([fn(v) for v in vocab], dtype=object)
    return mapped[inv]


_SOUNDEX_CODE = {}
for _grp, _d in (("BFPV", "1"), ("CGJKQSXZ", "2"), ("DT", "3"),
                 ("L", "4"), ("MN", "5"), ("R", "6")):
    for _c in _grp:
        _SOUNDEX_CODE[_c] = _d


def _soundex_token(s: str) -> str:
    """American Soundex, commons-codec semantics (the encoder Lucene's
    PhoneticFilterFactory defaults to): first letter + 3 digits; vowels
    (AEIOUY) separate duplicate codes, H/W do not; pad with zeros.
    Tokens with no ASCII letter pass through unchanged."""
    letters = [c for c in s.upper() if "A" <= c <= "Z"]
    if not letters:
        return s
    out = [letters[0]]
    last = _SOUNDEX_CODE.get(letters[0], "")
    for c in letters[1:]:
        d = _SOUNDEX_CODE.get(c)
        if d is None:
            if c not in "HW":
                last = ""  # vowel: resets the duplicate-code window
            continue
        if d != last:
            out.append(d)
            if len(out) == 4:
                break
        last = d
    return "".join(out) + "0" * (4 - len(out))


def _utf8_lower(tokens: np.ndarray) -> np.ndarray:
    if len(tokens) == 0:
        return tokens
    import pyarrow as _pa
    import pyarrow.compute as _pc

    return _pc.utf8_lower(_pa.array(tokens, type=_pa.string())).to_numpy(
        zero_copy_only=False
    )


# ASCIIFoldingFilter supplements: Latin chars NFKD leaves undecomposed
# (s84 analysis/miscellaneous/ASCIIFoldingFilter.java:60 table entries).
_FOLD_EXTRA = str.maketrans(
    {"æ": "ae", "Æ": "AE", "œ": "oe", "Œ": "OE", "ß": "ss", "ø": "o",
     "Ø": "O", "đ": "d", "Đ": "D", "ð": "d", "Ð": "D", "þ": "th",
     "Þ": "TH", "ł": "l", "Ł": "L", "ħ": "h", "Ħ": "H", "ı": "i",
     "ŋ": "n", "Ŋ": "N", "ŧ": "t", "Ŧ": "T"}
)


def _fold_token(t: str) -> str:
    if t.isascii():
        return t
    import unicodedata

    t = t.translate(_FOLD_EXTRA)
    return "".join(
        c for c in unicodedata.normalize("NFKD", t)
        if not unicodedata.combining(c)
    )


def _stop_filter(stop_arr: np.ndarray):
    def f(tokens, doc_idx):
        if len(tokens) == 0:
            return tokens, doc_idx
        loc = np.minimum(np.searchsorted(stop_arr, tokens), len(stop_arr) - 1)
        keep = stop_arr[loc] != tokens
        return tokens[keep], doc_idx[keep]

    return f


def _length_filter(min_len: int, max_len: int):
    def f(tokens, doc_idx):
        if len(tokens) == 0:
            return tokens, doc_idx
        import pyarrow as _pa
        import pyarrow.compute as _pc

        lens = _pc.utf8_length(_pa.array(tokens, type=_pa.string())).to_numpy()
        keep = (lens >= min_len) & (lens <= max_len)
        return tokens[keep], doc_idx[keep]

    return f


def _per_doc_spans(doc_idx: np.ndarray) -> list[tuple[int, int]]:
    if len(doc_idx) == 0:
        return []
    starts = np.flatnonzero(np.r_[True, doc_idx[1:] != doc_idx[:-1]])
    ends = np.append(starts[1:], len(doc_idx))
    return list(zip(starts.tolist(), ends.tolist()))


_HAN_SINGLE = re.compile(rf"[{_HAN}]\Z")


def _cjk_bigram_filter(output_unigrams: bool = False):
    """CJKBigramFilter (s84 analysis/common/.../cjk/CJKBigramFilter.java:55):
    runs of single-ideograph tokens (the StandardTokenizer emits Han one
    char per token) re-emit as overlapping character BIGRAMS; a lone
    ideograph stays a unigram; non-CJK tokens pass through in place.
    ``output_unigrams`` additionally keeps each ideograph (the
    high-recall indexing mode). Vectorized: one regex per VOCAB entry
    marks ideographs, run boundaries come from doc/adjacency masks, and
    bigram strings build with two object-array concats."""

    def f(tokens, doc_idx):
        n = len(tokens)
        if n == 0:
            return tokens, doc_idx
        is_han = _vocab_map(tokens, lambda t: bool(_HAN_SINGLE.match(t)))
        is_han = np.asarray(is_han, dtype=bool)
        if not is_han.any():
            return tokens, doc_idx
        # adjacency: consecutive array slots, same doc, both ideographs
        pair_ok = np.zeros(n, dtype=bool)  # pair (i, i+1) valid at i
        pair_ok[:-1] = is_han[:-1] & is_han[1:] & (doc_idx[:-1] == doc_idx[1:])
        # emit order: for each slot i -> optional unigram (pass-through or
        # output_unigrams), then the bigram starting at i. A lone
        # ideograph (no valid pair either side) always keeps its unigram.
        prev_pair = np.zeros(n, dtype=bool)
        prev_pair[1:] = pair_ok[:-1]
        lone = is_han & ~pair_ok & ~prev_pair
        keep_uni = ~is_han | lone | (is_han & output_unigrams)
        out_t: list = []
        out_d: list = []
        bigrams = np.empty(n, dtype=object)
        idx = np.flatnonzero(pair_ok)
        if len(idx):
            bigrams[idx] = tokens[idx] + tokens[idx + 1]
        for i in range(n):
            if keep_uni[i]:
                out_t.append(tokens[i])
                out_d.append(int(doc_idx[i]))
            if pair_ok[i]:
                out_t.append(bigrams[i])
                out_d.append(int(doc_idx[i]))
        return np.array(out_t, dtype=object), np.array(out_d, dtype=np.int64)

    return f


def _shingle_filter(min_size: int = 2, max_size: int = 2,
                    output_unigrams: bool = True, sep: str = " "):
    """ShingleFilter (s84 analysis/shingle/ShingleFilter.java:63): at each
    position emit the unigram (if output_unigrams) then shingles of size
    min..max joined by the separator. Shingles never cross documents."""

    def f(tokens, doc_idx):
        if len(tokens) == 0:
            return tokens, doc_idx
        out_t: list[str] = []
        out_d: list[int] = []
        for s, e in _per_doc_spans(doc_idx):
            d = int(doc_idx[s])
            toks = tokens[s:e]
            for i in range(len(toks)):
                if output_unigrams:
                    out_t.append(toks[i])
                    out_d.append(d)
                for size in range(min_size, max_size + 1):
                    if i + size <= len(toks):
                        out_t.append(sep.join(toks[i : i + size]))
                        out_d.append(d)
        return np.array(out_t, dtype=object), np.array(out_d, dtype=np.int64)

    return f


def _ngram_filter(min_gram: int = 1, max_gram: int = 2, edge: bool = False):
    """NGramTokenFilter / EdgeNGramTokenFilter (s84 analysis/ngram/
    NGramTokenFilter.java:51, EdgeNGramTokenFilter.java:39): per token,
    grams ordered by start offset then length; edge keeps offset 0 only.
    Tokens shorter than min_gram are dropped (preserveOriginal=false)."""

    def grams(t: str) -> list[str]:
        out = []
        limit = 1 if edge else len(t)
        for i in range(limit):
            for g in range(min_gram, max_gram + 1):
                if i + g <= len(t):
                    out.append(t[i : i + g])
        return out

    def f(tokens, doc_idx):
        if len(tokens) == 0:
            return tokens, doc_idx
        per_tok = [grams(t) for t in tokens]
        counts = np.fromiter(map(len, per_tok), dtype=np.int64, count=len(per_tok))
        flat: list[str] = []
        for g in per_tok:
            flat.extend(g)
        return (
            np.array(flat, dtype=object),
            np.repeat(doc_idx, counts),
        )

    return f


# ElisionFilter article set (FrenchAnalyzer.DEFAULT_ARTICLES,
# analysis/common/.../fr/FrenchAnalyzer.java:60): a leading article +
# apostrophe is stripped ("l'avion" -> "avion"); both ASCII ' and U+2019
_ELISION_ARTICLES = frozenset(
    ["l", "m", "t", "qu", "n", "s", "j", "d", "c",
     "jusqu", "quoiqu", "lorsqu", "puisqu"]
)


def _elide_token(t: str) -> str:
    for apo in ("'", "’"):
        i = t.find(apo)
        if i != -1 and t[:i].lower() in _ELISION_ARTICLES:
            return t[i + 1:]
    return t


def _possessive_strip(tokens: np.ndarray) -> np.ndarray:
    if len(tokens) == 0:
        return tokens
    mask = np.array(
        [t.endswith("'s") or t.endswith("’s") for t in tokens], dtype=bool
    )
    if mask.any():
        tokens = tokens.copy()
        tokens[mask] = [t[:-2] for t in tokens[mask]]
    return tokens


_TOKENIZERS: dict[str, type[Analyzer]] = {}  # filled after CustomAnalyzer


class CustomAnalyzer(Analyzer):
    """Compositional analyzer — the CustomAnalyzer.builder() surface (s84
    analysis/common/.../custom/CustomAnalyzer.java:87): a named tokenizer
    plus an ORDERED token-filter chain.

    ``filters`` entries are names or (name, kwargs):
      "lowercase"      LowerCaseFilter
      "stop"           StopFilter (kwargs: stopwords=iterable; default English 33)
      "ascii_folding"  ASCIIFoldingFilter (NFKD + Latin supplement table)
      "length"         LengthFilter (kwargs: min_len, max_len)
      "reverse"        ReverseStringFilter
      "porter"         PorterStemFilter (vocab-level)
      "possessive"     EnglishPossessiveFilter
      "shingle"        ShingleFilter (kwargs: min_size, max_size,
                       output_unigrams, sep)
      "ngram"          NGramTokenFilter (kwargs: min_gram, max_gram)
      "edge_ngram"     EdgeNGramTokenFilter (kwargs: min_gram, max_gram)
      "elision"        ElisionFilter (French article+apostrophe strip)
      "french_light_stem" / "german_light_stem" / "spanish_light_stem"
                       Savoy light stemmers (functions/lightstem.py)
      "soundex"        PhoneticFilter(Soundex, inject=false) — token
                       replaced by its American Soundex code
      "cjk_bigram"     CJKBigramFilter (kwargs: output_unigrams) —
                       ideograph runs re-emit as overlapping bigrams
      "keyword_marker" KeywordMarkerFilter guarding a 1:1 stemmer
                       (kwargs: keywords=iterable, filter=spec)
      "stemmer_override" StemmerOverrideFilter (kwargs: rules=dict,
                       filter=spec) — rule hits bypass the stemmer
    """

    name = "custom"

    def __init__(self, tokenizer: str = "standard",
                 filters: Sequence[str | tuple[str, dict]] = ()):
        super().__init__()
        try:
            tok_cls = _TOKENIZERS[tokenizer]
        except KeyError:
            raise ValueError(
                f"unknown tokenizer {tokenizer!r}; have {sorted(_TOKENIZERS)}"
            )
        self._tok = tok_cls()  # bare tokenizer: no stop set, chain is ours
        self._tok.stopwords, self._tok._stop_arr = frozenset(), None
        self.lowercase_input = self._tok.lowercase_input
        self._chain = [self._make_filter(spec) for spec in filters]
        self.filter_specs = tuple(
            spec if isinstance(spec, str) else (spec[0], dict(spec[1]))
            for spec in filters
        )

    @staticmethod
    def _make_filter(spec):
        name, kw = (spec, {}) if isinstance(spec, str) else (spec[0], dict(spec[1]))
        if name == "lowercase":
            return lambda t, d: (_utf8_lower(t), d)
        if name == "stop":
            words = sorted(frozenset(kw.get("stopwords", ENGLISH_STOP_WORDS)))
            return _stop_filter(np.array(words, dtype=object))
        if name == "ascii_folding":
            return lambda t, d: (_vocab_map(t, _fold_token), d)
        if name == "length":
            return _length_filter(int(kw.get("min_len", 0)),
                                  int(kw.get("max_len", MAX_TOKEN_LENGTH)))
        if name == "reverse":
            return lambda t, d: (_vocab_map(t, lambda s: s[::-1]), d)
        if name == "porter":
            from .porter import porter_stem

            return lambda t, d: (_vocab_map(t, porter_stem), d)
        if name == "french_light_stem":
            from .lightstem import french_light_stem

            return lambda t, d: (_vocab_map(t, french_light_stem), d)
        if name == "german_light_stem":
            from .lightstem import german_light_stem

            return lambda t, d: (_vocab_map(t, german_light_stem), d)
        if name == "spanish_light_stem":
            from .lightstem import spanish_light_stem

            return lambda t, d: (_vocab_map(t, spanish_light_stem), d)
        if name == "elision":
            return lambda t, d: (_vocab_map(t, _elide_token), d)
        if name == "possessive":
            return lambda t, d: (_possessive_strip(t), d)
        if name == "shingle":
            return _shingle_filter(**kw)
        if name == "cjk_bigram":
            return _cjk_bigram_filter(bool(kw.get("output_unigrams", False)))
        if name == "ngram":
            return _ngram_filter(int(kw.get("min_gram", 1)),
                                 int(kw.get("max_gram", 2)), edge=False)
        if name == "edge_ngram":
            return _ngram_filter(int(kw.get("min_gram", 1)),
                                 int(kw.get("max_gram", 1)), edge=True)
        if name == "soundex":
            # analysis/phonetic PhoneticFilter(Soundex, inject=false): the
            # token is REPLACED by its code (injection would stack
            # positions; this chain is order-implied)
            return lambda t, d: (_vocab_map(t, _soundex_token), d)
        if name in ("keyword_marker", "stemmer_override"):
            # KeywordMarkerFilter / StemmerOverrideFilter guarding a
            # 1:1 downstream stemmer (the keyword attribute the reference
            # threads through the chain, expressed as a guarded compose):
            # protected/overridden tokens bypass the wrapped filter.
            inner = CustomAnalyzer._make_filter(kw.get("filter", "porter"))
            if name == "keyword_marker":
                protected = np.array(sorted(set(kw.get("keywords", ()))),
                                     dtype=object)

                def guard(t, d, _inner=inner, _prot=protected):
                    it, _ = _inner(t, d)
                    if len(it) != len(t):
                        raise ValueError(
                            "keyword_marker requires a 1:1 inner filter"
                        )
                    keep = np.isin(t, _prot)
                    return np.where(keep, t, it), d

                return guard
            rules = dict(kw.get("rules") or {})

            def override(t, d, _inner=inner, _rules=rules):
                it, _ = _inner(t, d)
                if len(it) != len(t):
                    raise ValueError(
                        "stemmer_override requires a 1:1 inner filter"
                    )
                mapped = _vocab_map(t, lambda s: _rules.get(s, ""))
                hit = mapped != ""
                return np.where(hit, mapped, it), d

            return override
        raise ValueError(f"unknown token filter {name!r}")

    def tokenize_batch(self, texts: Sequence[str]):
        tokens, doc_idx = self._tok._tokenize_raw(texts)
        for f in self._chain:
            tokens, doc_idx = f(tokens, doc_idx)
        return tokens, doc_idx

    @property
    def spec_name(self) -> str:
        """Canonical ``custom:{json}`` name — pass as BuildConfig.analyzer
        so the chain round-trips through the manifest (stopword sets must
        be JSON-serializable: pass them as sorted lists)."""
        import json

        return "custom:" + json.dumps(
            {
                "tokenizer": self._tok.name,
                "filters": [
                    s if isinstance(s, str)
                    else [s[0], {k: sorted(v) if isinstance(v, (set, frozenset))
                                 else v for k, v in s[1].items()}]
                    for s in self.filter_specs
                ],
            },
            sort_keys=True,
        )


_REGISTRY = {
    "standard": StandardAnalyzer,
    "simple": SimpleAnalyzer,
    "english": EnglishAnalyzer,
    "whitespace": WhitespaceAnalyzer,
    "keyword": KeywordAnalyzer,
    "letter": LetterAnalyzer,
    "stop": StopAnalyzer,
}

_TOKENIZERS.update(
    {
        "standard": StandardAnalyzer,
        "simple": SimpleAnalyzer,
        "whitespace": WhitespaceAnalyzer,
        "keyword": KeywordAnalyzer,
        "letter": LetterAnalyzer,
    }
)


def get_analyzer(name: str, stopwords: Iterable[str] | None = None) -> Analyzer:
    """Analyzer factory — the pluggable-analyzer hook (SURVEY.md §2.10).

    ``custom:{json}`` names deserialize a CustomAnalyzer chain (the
    manifest stores the analyzer by NAME, so custom chains round-trip
    through builds/reopens via ``CustomAnalyzer.spec_name``)."""
    if name == "standard_en":
        return StandardAnalyzer(stopwords=ENGLISH_STOP_WORDS)
    if name in ("french", "german", "spanish"):
        # FrenchAnalyzer / GermanAnalyzer / SpanishAnalyzer shape (s84
        # analysis/common/.../fr/FrenchAnalyzer.java:116-124 etc.):
        # standard tokenizer + (elision for fr) + lowercase + optional
        # stop set + the language's light stem filter
        chain: list = ["elision"] if name == "french" else []
        chain.append("lowercase")
        if stopwords:
            chain.append(("stop", {"stopwords": sorted(stopwords)}))
        chain.append(f"{name}_light_stem")
        return CustomAnalyzer("standard", chain)
    if name.startswith("custom:"):
        import json

        spec = json.loads(name[len("custom:"):])
        filters = [
            f if isinstance(f, str) else (f[0], dict(f[1]))
            for f in spec.get("filters", [])
        ]
        return CustomAnalyzer(spec.get("tokenizer", "standard"), filters)
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown analyzer {name!r}; have {sorted(_REGISTRY)} + standard_en")
    return cls(stopwords=stopwords)
