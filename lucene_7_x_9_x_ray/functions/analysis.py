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

Batch API. ``tokenize_coded(texts)`` is the index side: it returns the
batch's vocabulary, one integer code per token and the document of each
token, tokens in (document, position) order. StandardAnalyzer (and the
chains built on its tokenizer) runs pure-ASCII documents through one
vectorized byte-class kernel over the Arrow text column's data and offsets
buffers (``_ascii_kernel``): no Python string per token, and the kept bytes
dictionary-encode straight into (vocab, codes) — the role Lucene's
StandardTokenizer char buffer and BytesRefHash byte pools play. A document
with a non-ASCII byte, or a null, takes the per-document
``_STANDARD_PATTERN`` regex instead, so a document's tokens never depend on
its batch neighbours; a batch of under 512 bytes (a query string) takes
the regex whole, which costs less than the kernel's fixed setup there.
Filters that map or drop one token at a time (stop, possessive, Porter,
...) run once per vocabulary entry, not per token; a custom chain's filters
up to its last context-dependent one (shingle, n-grams, CJK bigrams) run
over the token stream first. Other tokenizers run one compiled-regex
``findall`` per document (a Python loop over documents, never over tokens)
and their tokens are factorized. ``tokenize_batch(texts)`` is
``vocab[codes]`` of the same pass.
Tokenizing and inverting one 24,576-page segment of perfbench's
``search`` corpus (``invert_tokens_coded``, in one process on a shared
4-CPU host, median of 7 calls) took 0.09-0.12 s, against 0.34-0.35 s with
the per-document ``findall`` loop and per-token Python strings it
replaced.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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

# SimpleAnalyzer: lowercase alnum runs — exactly replicable in DuckDB SQL as
# unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) for oracle parity.
_SIMPLE_PATTERN = re.compile(r"[a-z0-9]+")


class Analyzer:
    """text column -> token stream. A subclass names its tokenizer
    (``_findall``, or a coded ``_tokenize_raw_coded``) and its chain of
    token-local filters (``_filters``)."""

    name = "base"
    # LowerCaseFilter position: most chains lowercase before matching, so the
    # tokenizer regexes only need lowercase classes. Case-preserving
    # tokenizers (Whitespace/Keyword, per their reference chains) set False.
    lowercase_input = True

    def __init__(self, stopwords: Iterable[str] | None = None):
        self.stopwords = frozenset(stopwords) if stopwords else frozenset()
        # token-local filters (each maps or drops one token at a time), in
        # chain order: tokenize_coded runs them once per vocabulary entry
        self._filters = (
            [_stop_filter(np.array(sorted(self.stopwords), dtype=object))]
            if self.stopwords else []
        )

    # -- single string (query side / tests) --------------------------------
    def tokens(self, text: str) -> list[str]:
        toks, _ = self.tokenize_batch([text])
        return list(toks)

    # -- batch (index side) -------------------------------------------------
    def _findall(self, text: str) -> list[str]:
        raise NotImplementedError

    def tokenize_coded(self, texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tokenize a batch: a sequence of strings or an Arrow string
        (chunked) array, nulls analyzed as empty documents.

        Returns (vocab: object ndarray of distinct tokens, codes: integer
        ndarray, doc_idx: int64 ndarray): token i is vocab[codes[i]] and
        came from row doc_idx[i]. Tokens are in document order then
        position order, and every vocab entry occurs at least once."""
        vocab, codes, doc_idx = self._tokenize_raw_coded(texts)
        if self._filters:
            return _filter_vocab(self._filters, vocab, codes, doc_idx)
        return vocab, codes, doc_idx

    def tokenize_batch(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """(tokens: object ndarray, doc_idx: int64 ndarray) of
        ``tokenize_coded``: each code replaced by its token."""
        vocab, codes, doc_idx = self.tokenize_coded(texts)
        return vocab[codes], doc_idx

    def _tokenize_raw_coded(self, texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tokenizer stage, coded: the tokens of ``_tokenize_raw``
        factorized (vocab in first-occurrence order)."""
        import pandas as pd

        if isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = texts.to_pylist()
        tokens, doc_idx = self._tokenize_raw(texts)
        codes, vocab = pd.factorize(tokens)
        return np.asarray(vocab, dtype=object), codes, doc_idx

    def _tokenize_raw(
        self, texts: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tokenizer + maxTokenLength stage, before any token filters: one
        ``_findall`` per document (a Python loop over documents, never over
        tokens)."""
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

        # maxTokenLength=255: overlong runs are split (rare)
        if flat and max(map(len, flat)) > MAX_TOKEN_LENGTH:
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

    def doc_token_counts(self, texts: Sequence[str]) -> np.ndarray:
        """Per-row token count (the BM25 doc-length statistic input)."""
        doc_idx = self.tokenize_coded(texts)[2]
        return np.bincount(doc_idx, minlength=len(texts)).astype(np.int64)


def _filter_vocab(filters, vocab, codes, doc_idx):
    """Run token-local filters over the vocabulary instead of the token
    stream: a filter that maps rewrites vocab entries, one that drops
    removes the tokens of the entries it drops (each filter sees the vocab
    as its token array and the entry indices as its doc array). A drop
    takes its entries out of the vocab with their tokens, so every entry
    left is still used; a map may merge entries, so the vocab is
    deduplicated at the end when it did."""
    import pandas as pd

    for f in filters:
        mapped, kept = f(vocab, np.arange(len(vocab)))
        if len(kept) < len(vocab):
            remap = np.full(len(vocab), -1, dtype=np.int64)
            remap[kept] = np.arange(len(kept))
            codes = remap[codes]
            keep = codes >= 0
            codes, doc_idx = codes[keep], doc_idx[keep]
        vocab = mapped
    if len(set(vocab.tolist())) == len(vocab):
        return vocab, codes, doc_idx
    remap, uniq = pd.factorize(vocab)
    return np.asarray(uniq, dtype=object), remap[codes], doc_idx


# --- the StandardTokenizer's ASCII kernel ----------------------------------
# Byte classes of lowered pure-ASCII text. A word byte is [a-z0-9_]; a connector
# joins the word bytes on either side of it (in one document) when the byte
# after it has the class the connector needs: ' and : a letter (MidLetter),
# . a word byte (MidNumLet), , a digit (MidNum) — _STANDARD_PATTERN's _CONN
# rules on ASCII input. Equivalence is property-tested in
# tests/test_analysis.py::test_ascii_fast_path_equivalence.
_LETTER, _DIGIT, _WORD = 1, 2, 4
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[ord("a") : ord("z") + 1] = _LETTER | _WORD
_CLASS[ord("0") : ord("9") + 1] = _DIGIT | _WORD
_CLASS[ord("_")] = _WORD
_IS_WORD = _CLASS != 0
_NEEDS = np.zeros(256, dtype=np.uint8)
for _c, _need in (("'", _LETTER), (":", _LETTER), (".", _WORD), (",", _DIGIT)):
    _NEEDS[ord(_c)] = _need


def _string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(data bytes, int64 offsets from 0) of a string/large_string array,
    read in place from its Arrow buffers."""
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    width = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    _, offs, data = arr.buffers()
    off = np.frombuffer(offs, dtype=width)[arr.offset : arr.offset + len(arr) + 1]
    off = off.astype(np.int64)
    if data is None or off[-1] == off[0]:
        return np.empty(0, dtype=np.uint8), off - off[0]
    return np.frombuffer(data, dtype=np.uint8)[off[0] : off[-1]], off - off[0]


def _ascii_kernel(arr: pa.Array) -> tuple[pa.LargeStringArray, np.ndarray]:
    """LowerCaseFilter + StandardTokenizer + maxTokenLength over pure-ASCII,
    non-null documents, on the data and offsets buffers of the lowered
    array: (tokens as one LargeStringArray of the kept bytes, doc_idx
    int64). Byte passes use np.take / np.compress (faster than fancy
    indexing on 8,192 pages: 1.5 ms against 3.3 ms per table lookup)."""
    data, off = _string_buffers(pc.ascii_lower(arr))
    n = len(data)
    if n == 0:
        return pa.array([], type=pa.large_string()), np.empty(0, dtype=np.int64)
    keep = np.take(_IS_WORD, data)
    # first[p]: byte p starts a document, so nothing joins across p - 1 | p
    first = np.zeros(n + 1, dtype=bool)
    first[off[:-1]] = True
    # a connector joins when a word byte precedes it and the byte after it
    # has the class it needs, both in its document (first[0] is set, so
    # conn - 1 never wraps round for a kept connector)
    conn = np.flatnonzero(np.take(_NEEDS, data[:-1]))
    conn = conn[
        keep[conn - 1] & ~first[conn] & ~first[conn + 1]
        & ((_CLASS[data[conn + 1]] & _NEEDS[data[conn]]) != 0)
    ]
    keep[conn] = True
    # a token is a run of kept bytes within one document
    edge = first
    edge[n] = True
    edge[1:n] |= ~(keep[:-1] & keep[1:])
    starts = np.flatnonzero(keep & edge[:-1])
    lens = np.flatnonzero(keep & edge[1:]) + 1 - starts
    doc_idx = np.searchsorted(off, starts, side="right") - 1
    tok_off = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(lens, out=tok_off[1:])
    if int(lens.max(initial=0)) > MAX_TOKEN_LENGTH:
        # maxTokenLength: a longer run becomes consecutive 255-byte pieces
        pieces = -(-lens // MAX_TOKEN_LENGTH)
        tok = np.repeat(np.arange(len(lens)), pieces)
        k = np.arange(len(tok)) - (np.cumsum(pieces) - pieces)[tok]
        tok_off = np.append(tok_off[:-1][tok] + k * MAX_TOKEN_LENGTH, tok_off[-1])
        doc_idx = doc_idx[tok]
    kept = np.compress(keep, data)
    tokens = pa.LargeStringArray.from_buffers(
        len(tok_off) - 1, pa.py_buffer(tok_off), pa.py_buffer(kept)
    )
    return tokens, doc_idx


# Below this many bytes of Arrow text buffers a batch is tokenized by the
# per-document regex: the kernel's fixed cost (about 20 array passes, about
# 0.1 ms) exceeds a findall over that little text. One ASCII document of
# 276 bytes took 0.12 ms by the regex and 0.17 ms by the kernel, one of
# 1,104 bytes 0.26 ms against 0.19 ms (coded output, one process on a
# shared host).
_KERNEL_MIN_BYTES = 512


def _string_array(texts) -> pa.Array | None:
    """``texts`` as one Arrow string/large_string array, or None when it
    holds a value Arrow cannot store as UTF-8 text (then the caller takes
    the per-document regex path)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    elif not isinstance(texts, pa.Array):
        try:
            texts = pa.array(texts, type=pa.large_string())
        except (pa.ArrowException, UnicodeEncodeError):
            return None
    if not (pa.types.is_string(texts.type) or pa.types.is_large_string(texts.type)):
        return None
    return texts


class StandardAnalyzer(Analyzer):
    """StandardAnalyzer-equivalent: UAX#29-ish tokenize + lowercase + stop.

    Default stop set is EMPTY, matching the reference
    (StandardAnalyzer.java:56-58). Pass ``stopwords=ENGLISH_STOP_WORDS`` for
    the classic English list.
    """

    name = "standard"

    def _findall(self, text: str) -> list[str]:
        return _STANDARD_PATTERN.findall(text)

    def _tokenize_raw_coded(self, texts):
        """The ASCII kernel over the pure-ASCII documents, the per-document
        regex over the rest, one dictionary encode of the tokens. A batch
        under _KERNEL_MIN_BYTES (a query string) takes the regex whole."""
        arr = _string_array(texts)
        if arr is None or arr.get_total_buffer_size() < _KERNEL_MIN_BYTES:
            return super()._tokenize_raw_coded(texts)
        ascii_ok = pc.fill_null(pc.string_is_ascii(arr), False).to_numpy(
            zero_copy_only=False
        )
        if ascii_ok.all():
            tokens, doc_idx = _ascii_kernel(arr)
        else:
            rows, other = np.flatnonzero(ascii_ok), np.flatnonzero(~ascii_ok)
            k_tok, k_doc = _ascii_kernel(arr.filter(pa.array(ascii_ok)))
            r_tok, r_doc = self._tokenize_raw(arr.take(pa.array(other)).to_pylist())
            doc = np.concatenate([rows[k_doc], other[r_doc]])
            order = np.argsort(doc, kind="stable")  # a doc is all kernel or all regex
            tokens = pa.concat_arrays(
                [k_tok, pa.array(r_tok, type=pa.large_string())]
            ).take(pa.array(order))
            doc_idx = doc[order]
        enc = tokens.dictionary_encode()
        return (
            enc.dictionary.to_numpy(zero_copy_only=False),
            enc.indices.to_numpy(),
            doc_idx,
        )


class SimpleAnalyzer(Analyzer):
    """Lowercase [a-z0-9]+ runs — SQL-oracle-replicable tokenization."""

    name = "simple"

    def _findall(self, text: str) -> list[str]:
        return _SIMPLE_PATTERN.findall(text)


class EnglishAnalyzer(StandardAnalyzer):
    """EnglishAnalyzer-equivalent chain (s84 analysis/common/.../en/
    EnglishAnalyzer.java:108-117): StandardTokenizer -> possessive strip
    ('s removal, EnglishPossessiveFilter) -> LowerCase -> classic-33 stop
    set -> Porter stemmer. Every filter is token-local, so each runs once
    per vocabulary entry (vocab << token stream)."""

    name = "english"

    def __init__(self, stopwords: Iterable[str] | None = None):
        super().__init__(
            stopwords=ENGLISH_STOP_WORDS if stopwords is None else stopwords
        )
        self._filters = [_possessive_filter, *self._filters, _porter_filter]


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
    import pandas as pd

    inv, vocab = pd.factorize(tokens)
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
    return pc.utf8_lower(pa.array(tokens, type=pa.string())).to_numpy(
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


def _drop_stopwords(stop_arr: np.ndarray, tokens, doc_idx):
    if len(tokens) == 0:
        return tokens, doc_idx
    # vectorized membership: binary-search the sorted stop array
    loc = np.minimum(np.searchsorted(stop_arr, tokens), len(stop_arr) - 1)
    keep = stop_arr[loc] != tokens
    return tokens[keep], doc_idx[keep]


def _stop_filter(stop_arr: np.ndarray):
    import functools

    return functools.partial(_drop_stopwords, stop_arr)


def _length_filter(min_len: int, max_len: int):
    def f(tokens, doc_idx):
        if len(tokens) == 0:
            return tokens, doc_idx
        lens = pc.utf8_length(pa.array(tokens, type=pa.string())).to_numpy()
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


def _possessive_filter(tokens, doc_idx):
    """EnglishPossessiveFilter: trailing 's (the tokenizer keeps "john's"
    as one token via the MidLetter apostrophe rule)."""
    return _possessive_strip(tokens), doc_idx


def _porter_filter(tokens, doc_idx):
    from .porter import porter_stem

    return _vocab_map(tokens, porter_stem), doc_idx


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
        self.lowercase_input = self._tok.lowercase_input
        chain, local = zip(*map(self._make_filter, filters)) if filters else ((), ())
        # the filters before (and including) the last one that is not
        # token-local run over the token stream; the rest run per vocab entry
        cut = max((i + 1 for i, ok in enumerate(local) if not ok), default=0)
        self._token_chain, self._filters = list(chain[:cut]), list(chain[cut:])
        self.filter_specs = tuple(
            spec if isinstance(spec, str) else (spec[0], dict(spec[1]))
            for spec in filters
        )

    @staticmethod
    def _make_filter(spec):
        """(filter, token_local): token_local when the filter maps or drops
        one token at a time, whatever its neighbours (then it may run once
        per vocabulary entry)."""
        name, kw = (spec, {}) if isinstance(spec, str) else (spec[0], dict(spec[1]))
        if name == "lowercase":
            return (lambda t, d: (_utf8_lower(t), d)), True
        if name == "stop":
            words = sorted(frozenset(kw.get("stopwords", ENGLISH_STOP_WORDS)))
            return _stop_filter(np.array(words, dtype=object)), True
        if name == "ascii_folding":
            return (lambda t, d: (_vocab_map(t, _fold_token), d)), True
        if name == "length":
            return _length_filter(int(kw.get("min_len", 0)),
                                  int(kw.get("max_len", MAX_TOKEN_LENGTH))), True
        if name == "reverse":
            return (lambda t, d: (_vocab_map(t, lambda s: s[::-1]), d)), True
        if name == "porter":
            return _porter_filter, True
        if name == "french_light_stem":
            from .lightstem import french_light_stem

            return (lambda t, d: (_vocab_map(t, french_light_stem), d)), True
        if name == "german_light_stem":
            from .lightstem import german_light_stem

            return (lambda t, d: (_vocab_map(t, german_light_stem), d)), True
        if name == "spanish_light_stem":
            from .lightstem import spanish_light_stem

            return (lambda t, d: (_vocab_map(t, spanish_light_stem), d)), True
        if name == "elision":
            return (lambda t, d: (_vocab_map(t, _elide_token), d)), True
        if name == "possessive":
            return _possessive_filter, True
        # shingles, bigrams and grams read a token's neighbours or emit
        # several tokens in its place
        if name == "shingle":
            return _shingle_filter(**kw), False
        if name == "cjk_bigram":
            return _cjk_bigram_filter(bool(kw.get("output_unigrams", False))), False
        if name == "ngram":
            return _ngram_filter(int(kw.get("min_gram", 1)),
                                 int(kw.get("max_gram", 2)), edge=False), False
        if name == "edge_ngram":
            return _ngram_filter(int(kw.get("min_gram", 1)),
                                 int(kw.get("max_gram", 1)), edge=True), False
        if name == "soundex":
            # analysis/phonetic PhoneticFilter(Soundex, inject=false): the
            # token is REPLACED by its code (injection would stack
            # positions; this chain is order-implied)
            return (lambda t, d: (_vocab_map(t, _soundex_token), d)), True
        if name in ("keyword_marker", "stemmer_override"):
            # KeywordMarkerFilter / StemmerOverrideFilter guarding a
            # 1:1 downstream stemmer (the keyword attribute the reference
            # threads through the chain, expressed as a guarded compose):
            # protected/overridden tokens bypass the wrapped filter.
            inner, local = CustomAnalyzer._make_filter(kw.get("filter", "porter"))
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

                return guard, local
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

            return override, local
        raise ValueError(f"unknown token filter {name!r}")

    def _tokenize_raw_coded(self, texts):
        """The tokenizer's coded output (the ASCII kernel included), then
        the per-token part of the chain over its tokens, re-factorized."""
        vocab, codes, doc_idx = self._tok._tokenize_raw_coded(texts)
        if not self._token_chain:
            return vocab, codes, doc_idx
        import pandas as pd

        tokens = vocab[codes]
        for f in self._token_chain:
            tokens, doc_idx = f(tokens, doc_idx)
        codes, vocab = pd.factorize(tokens)
        return np.asarray(vocab, dtype=object), codes, doc_idx

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
