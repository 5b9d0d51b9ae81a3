"""Block codec round-trip + impacts properties (FIXTURES.md F2/F6).

Corpus shapes: block boundaries at multiples of 128 (SkipListTest shape),
VInt-tail equivalents (df % 128 != 0), singletons (df == 1), dense runs
(all deltas 1 -> zero-width blocks, ForDeltaUtil.java:57-93 semantics).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_7_x_9_x_ray.functions.codec import (
    BLOCK_SIZE,
    block_bounds,
    compute_impacts,
    decode_blocks,
    encode_postings,
)


def roundtrip(docs, freqs, norms):
    enc = encode_postings(docs, freqs, norms)
    dw = np.frombuffer(enc.doc_widths, dtype=np.uint8)
    fw = np.frombuffer(enc.freq_widths, dtype=np.uint8)
    last = np.frombuffer(enc.last_docs, dtype=np.int64)
    d = decode_blocks(enc.docs_blob, dw, enc.doc_freq, last_docs=last)
    f = decode_blocks(enc.freqs_blob, fw, enc.doc_freq)
    assert d.dtype == np.int64 and f.dtype == np.int32
    return enc, d, f


def test_block_size_is_reference_128():
    assert BLOCK_SIZE == 128


def test_singleton():
    enc, d, f = roundtrip(np.array([42]), np.array([7]), np.array([3], dtype=np.uint8))
    assert list(d) == [42] and list(f) == [7]
    assert enc.doc_freq == 1 and enc.total_term_freq == 7


def test_exact_block_multiple():
    n = 256
    docs = np.arange(0, n * 3, 3)
    freqs = np.ones(n, dtype=np.int64)
    norms = np.full(n, 9, dtype=np.uint8)
    enc, d, f = roundtrip(docs, freqs, norms)
    nblocks, counts = block_bounds(n)
    assert nblocks == 2 and list(counts) == [128, 128]
    assert np.array_equal(d, docs)
    assert np.array_equal(f, freqs)


def test_tail_block():
    n = 200  # 128 + 72 tail
    rng = np.random.default_rng(42)
    docs = np.sort(rng.choice(100_000, size=n, replace=False))
    freqs = rng.integers(1, 50, size=n)
    norms = rng.integers(0, 256, size=n).astype(np.uint8)
    enc, d, f = roundtrip(docs, freqs, norms)
    assert np.array_equal(d, docs)
    assert np.array_equal(f, freqs)
    assert enc.total_term_freq == freqs.sum()


def test_dense_run_zero_width():
    # A fully dense range starting at 0: every delta is 1 -> stored delta-1
    # is 0 everywhere -> all blocks pack at width 0, zero payload bytes
    # (the ForDeltaUtil all-ones special case, ForDeltaUtil.java:57-93).
    n = 256
    docs = np.arange(0, n)
    enc, d, f = roundtrip(docs, np.ones(n), np.full(n, 1, dtype=np.uint8))
    dw = np.frombuffer(enc.doc_widths, dtype=np.uint8)
    assert list(dw) == [0, 0] and len(enc.docs_blob) == 0
    assert np.array_equal(d, docs)
    # a dense run NOT starting at 0: only the block carrying the base jump
    # pays a nonzero width; later dense blocks still pack at width 0
    docs2 = np.arange(1000, 1000 + n)
    enc2, d2, _ = roundtrip(docs2, np.ones(n), np.full(n, 1, dtype=np.uint8))
    dw2 = np.frombuffer(enc2.doc_widths, dtype=np.uint8)
    assert dw2[0] > 0 and dw2[1] == 0
    assert np.array_equal(d2, docs2)


def test_partial_decode_with_base():
    n = 400
    docs = np.sort(np.random.default_rng(7).choice(1_000_000, size=n, replace=False))
    enc = encode_postings(docs, np.ones(n), np.full(n, 5, dtype=np.uint8))
    dw = np.frombuffer(enc.doc_widths, dtype=np.uint8)
    last = np.frombuffer(enc.last_docs, dtype=np.int64)
    # decode only block 2: its base is last_docs[1]
    part = decode_blocks(enc.docs_blob, dw, n, [2], last_docs=last)
    assert np.array_equal(part, docs[256:384])
    assert last[-1] == docs[-1]


def test_impacts_pareto():
    freqs = np.array([3, 1, 3, 5, 1], dtype=np.int32)
    norms = np.array([10, 2, 8, 20, 9], dtype=np.uint8)
    kf, kn = compute_impacts(freqs, norms)
    # (1,2) survives (lowest norm), (3,8) survives, (5,20) survives;
    # (3,10) dominated by (3,8); (1,9) dominated by (1,2) and (3,8)
    assert list(kf) == [1, 3, 5]
    assert list(kn) == [2, 8, 20]
    # frontier sorted ascending in both
    assert np.all(np.diff(kf) > 0) and np.all(np.diff(kn) > 0)


def test_impacts_dominate_block():
    rng = np.random.default_rng(3)
    freqs = rng.integers(1, 30, size=128).astype(np.int32)
    norms = rng.integers(1, 200, size=128).astype(np.uint8)
    kf, kn = compute_impacts(freqs, norms)
    # every (freq, norm) in the block is dominated by some frontier pair:
    # exists i with kf[i] >= freq and kn[i] <= norm
    for f, n in zip(freqs, norms):
        assert any(kf[i] >= f and kn[i] <= n for i in range(len(kf)))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 600),
    seed=st.integers(0, 10_000),
    maxdoc=st.sampled_from([1_000, 100_000, 50_000_000]),
)
def test_roundtrip_property(n, seed, maxdoc):
    rng = np.random.default_rng(seed)
    n = min(n, maxdoc)
    docs = np.sort(rng.choice(maxdoc, size=n, replace=False))
    freqs = rng.integers(1, 1000, size=n)
    norms = rng.integers(0, 256, size=n).astype(np.uint8)
    enc, d, f = roundtrip(docs, freqs, norms)
    assert np.array_equal(d, docs)
    assert np.array_equal(f, freqs)
    # per-block last_docs strictly increasing (FIXTURES F6 invariant)
    last = np.frombuffer(enc.last_docs, dtype=np.int64)
    assert np.all(np.diff(last.astype(np.int64)) > 0) or len(last) == 1
