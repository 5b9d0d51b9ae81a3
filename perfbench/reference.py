"""Checks that stand apart from the engine.

``RefIndex`` is a BM25 reference written from the Lucene 8 formulas
(BM25Similarity, k1 = 1.2, b = 0.75, every step in float32 as Lucene
computes it; SmallFloat.intToByte4 length norms; clause scores summed in
float64 and cast to float32 as DisjunctionSumScorer/ConjunctionScorer do;
ties broken by ascending docID). It works from the generated text split on
spaces and imports nothing from the engine.

Until a reclaiming merge runs, deleted documents still count in every
statistic (docCount, avgdl, df) but are never returned; ``reclaim`` drops
them, as the engine's renumbering does. Results are (url, score) pairs, so
they compare across a renumbering.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

K1 = np.float32(1.2)
B = np.float32(0.75)
_ONE = np.float32(1.0)


def _long_to_int4(i: int) -> int:
    bits = i.bit_length()
    if bits < 4:
        return i
    shift = bits - 4
    return ((i >> shift) & 0x07) | ((shift + 1) << 3)


def _int4_to_long(i: int) -> int:
    bits = i & 0x07
    shift = (i >> 3) - 1
    return bits if shift == -1 else (bits | 0x08) << shift


# SmallFloat: lengths below NUM_FREE_VALUES encode exactly, larger ones
# as 4-bit-mantissa floats (intToByte4 / byte4ToInt)
NUM_FREE_VALUES = 255 - _long_to_int4(2**31 - 1)


def int_to_byte4(i: int) -> int:
    if i < NUM_FREE_VALUES:
        return i
    return NUM_FREE_VALUES + _long_to_int4(i - NUM_FREE_VALUES)


def byte4_to_int(b: int) -> int:
    if b < NUM_FREE_VALUES:
        return b
    return NUM_FREE_VALUES + _int4_to_long(b - NUM_FREE_VALUES)


LENGTH_TABLE = np.array([byte4_to_int(b) for b in range(256)], dtype=np.float32)


class RefIndex:
    """Documents in engine docID order: url, length norm byte, postings."""

    def __init__(self) -> None:
        self.urls: list[str] = []
        self.lengths: list[int] = []
        self.deleted: list[bool] = []
        self._post: dict[str, tuple[list[int], list[int]]] = {}
        self._arrays: dict = {}

    def __len__(self) -> int:
        return len(self.urls)

    def add(self, urls, texts) -> None:
        for url, text in zip(urls, texts):
            pos = len(self.urls)
            toks = text.split(" ")
            self.urls.append(url)
            self.lengths.append(len(toks))
            self.deleted.append(False)
            for term, tf in Counter(toks).items():
                p = self._post.get(term)
                if p is None:
                    p = self._post[term] = ([], [])
                p[0].append(pos)
                p[1].append(tf)
        self._arrays.clear()

    def delete(self, positions) -> None:
        for p in positions:
            self.deleted[int(p)] = True
        self._arrays.pop("", None)

    def live_positions(self) -> np.ndarray:
        return np.flatnonzero(~np.asarray(self.deleted, dtype=bool))

    def reclaim(self) -> None:
        """Drop deleted documents; survivors keep their relative order."""
        keep = self.live_positions()
        remap = np.full(len(self.urls), -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        self.urls = [self.urls[i] for i in keep]
        self.lengths = [self.lengths[i] for i in keep]
        self.deleted = [False] * len(keep)
        post = {}
        for term, (ps, tfs) in self._post.items():
            kept = [(int(remap[p]), tf) for p, tf in zip(ps, tfs) if remap[p] >= 0]
            if kept:
                post[term] = ([p for p, _ in kept], [tf for _, tf in kept])
        self._post = post
        self._arrays.clear()

    def _docs(self):
        """(norm bytes, deleted mask, avgdl) over all docs, cached."""
        arr = self._arrays.get("")
        if arr is None:
            lengths = np.asarray(self.lengths, dtype=np.int64)
            norms = np.array([int_to_byte4(int(x)) for x in lengths], dtype=np.uint8)
            avgdl = np.float32(lengths.sum() / float(len(lengths)))
            arr = (norms, np.asarray(self.deleted, dtype=bool), avgdl)
            self._arrays[""] = arr
        return arr

    def _postings(self, term: str):
        arr = self._arrays.get(term)
        if arr is None:
            ps, tfs = self._post.get(term, ([], []))
            arr = (np.asarray(ps, dtype=np.int64), np.asarray(tfs, dtype=np.float32))
            self._arrays[term] = arr
        return arr

    def topk(self, terms, k: int, conjunction: bool = False) -> list[tuple[str, np.float32]]:
        """Top-k (url, float32 score) of a BM25 term disjunction (or
        conjunction), best first, ties by ascending docID."""
        n = len(self.urls)
        norms, deleted, avgdl = self._docs()
        cache = _ONE / (K1 * ((_ONE - B) + B * LENGTH_TABLE / avgdl))
        acc = np.zeros(n, dtype=np.float64)
        hits = np.zeros(n, dtype=np.int32)
        for term in terms:
            docs, tfs = self._postings(term)
            if len(docs) == 0:
                continue
            df = len(docs)
            idf = np.float32(math.log(1.0 + (n - df + 0.5) / (df + 0.5)))
            weight = _ONE * idf
            scores = weight - weight / (_ONE + tfs * cache[norms[docs]])
            acc[docs] += scores  # a term lists each doc once
            hits[docs] += 1
        match = hits == len(terms) if conjunction else hits > 0
        cand = np.flatnonzero(match & ~deleted)
        s32 = acc[cand].astype(np.float32)
        if len(cand) > k:
            kth = np.partition(s32, len(s32) - k)[len(s32) - k]
            keep = s32 >= kth
            cand, s32 = cand[keep], s32[keep]
        order = np.lexsort((cand, -s32))[:k]
        return [(self.urls[d], s32[i]) for i, d in zip(order, cand[order])]


def engine_hits(top_docs, urls) -> list[tuple[str, np.float32]]:
    """An engine TopDocs as (url, float32 score) pairs, best first."""
    return [
        (urls[int(d)], np.float32(s))
        for d, s in zip(top_docs.doc_ids, np.asarray(top_docs.scores, dtype=np.float32))
    ]


def same_hits(got, want) -> bool:
    """Exact match: same urls in the same order, scores bit-identical."""
    if len(got) != len(want):
        return False
    for (gu, gs), (wu, ws) in zip(got, want):
        if gu != wu or np.float32(gs).view(np.uint32) != np.float32(ws).view(np.uint32):
            return False
    return True


# --- curate checks -----------------------------------------------------------


def frames_equal(got, want) -> bool:
    """Row-set equality of two tables (order-free, exact values)."""
    import pandas as pd

    a = got.to_pandas() if not isinstance(got, pd.DataFrame) else got
    b = want.to_pandas() if not isinstance(want, pd.DataFrame) else want
    if sorted(a.columns) != sorted(b.columns) or len(a) != len(b):
        return False
    cols = sorted(a.columns)
    a = a[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    b = b[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    except AssertionError:
        return False
    return True


def shingle_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact Jaccard of the two texts' sets of n-word shingles."""

    def shingles(t: str) -> set:
        w = t.split(" ")
        return {" ".join(w[i : i + n]) for i in range(len(w) - n + 1)}

    a, b = shingles(text_a), shingles(text_b)
    return len(a & b) / len(a | b) if a or b else 0.0
