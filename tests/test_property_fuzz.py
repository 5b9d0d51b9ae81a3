"""Property-based fuzzing (hypothesis) of the byte-level kernels — the
RandomPostingsTester / BasePostingsFormatTestCase analogue (SURVEY.md §5.3):
random posting corpora round-trip through every codec path."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from lucene_7_x_9_x_ray.functions import codec
from lucene_7_x_9_x_ray.functions.analysis import get_analyzer
from lucene_7_x_9_x_ray.functions.smallfloat import BYTE4_DECODE_TABLE, int_to_byte4


@st.composite
def posting_list(draw):
    doc_count = draw(st.integers(min_value=1, max_value=1500))
    df = draw(st.integers(min_value=1, max_value=min(doc_count, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    docs = np.sort(rng.choice(doc_count, size=df, replace=False)).astype(np.int64)
    freqs = rng.integers(1, draw(st.integers(2, 300)), size=df).astype(np.int64)
    norms = rng.integers(0, 256, size=doc_count).astype(np.uint8)
    return docs, freqs, norms


@given(posting_list())
@settings(max_examples=60, deadline=None)
def test_postings_roundtrip_fuzz(pl):
    docs, freqs, norms = pl
    enc = codec.encode_postings(docs, freqs, norms[docs])
    nblocks, counts = codec.block_bounds(len(docs))
    dw = np.frombuffer(enc.doc_widths, dtype=np.uint8)
    last = np.frombuffer(enc.last_docs, dtype=np.int64)
    got_docs = codec.decode_blocks(enc.docs_blob, dw, len(docs), last_docs=last)
    got_freqs = codec.decode_blocks(
        enc.freqs_blob, np.frombuffer(enc.freq_widths, dtype=np.uint8), len(docs)
    )
    assert np.array_equal(got_docs, docs)
    assert np.array_equal(got_freqs, freqs)
    # per-block decode agrees with bulk decode
    for bi in range(nblocks):
        d = codec.decode_blocks(enc.docs_blob, dw, len(docs), [bi], last_docs=last)
        s = bi * codec.BLOCK_SIZE
        assert np.array_equal(d, docs[s : s + int(counts[bi])])


@given(posting_list(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_segment_encoder_matches_per_term_fuzz(pl, seed):
    """encode_segment_terms over a random multi-term layout == per-term
    encode_postings/encode_positions, byte for byte."""
    docs, freqs, norms = pl
    rng = np.random.default_rng(seed)
    # split the posting list into 1..5 'terms'
    n_terms = int(rng.integers(1, 6))
    cuts = np.sort(rng.choice(np.arange(1, len(docs)), size=min(n_terms - 1, len(docs) - 1),
                              replace=False)) if len(docs) > 1 and n_terms > 1 else np.array([], int)
    starts = np.r_[0, cuts]
    ends = np.r_[cuts, len(docs)]
    # positions per occurrence
    pos_parts = [np.sort(rng.choice(5000, size=int(f), replace=False)) for f in freqs]
    pos_stream = np.concatenate(pos_parts).astype(np.int64)
    # each "term" must have strictly increasing docs — they do (global sort)
    enc = codec.encode_segment_terms(docs, freqs, norms[docs], starts, ends, pos_stream)
    p_off = 0
    for ti, (s, e) in enumerate(zip(starts, ends)):
        from lucene_7_x_9_x_ray.state.segment import _region_blobs

        want, wnb, wni = _region_blobs(codec.encode_postings(docs[s:e], freqs[s:e], norms[docs[s:e]]))
        got, nb, ni, _ld, _lf = enc.term_region(ti)
        assert got == want and (nb, ni) == (wnb, wni)
        ttf = int(freqs[s:e].sum())
        stream_t = pos_stream[p_off : p_off + ttf]
        p_off += ttf
        wb, ww = codec.encode_positions(stream_t, freqs[s:e])
        gb, gw, _ = enc.term_positions_blob(ti)
        assert gb == wb and gw == ww


@st.composite
def packed_blocks(draw):
    """Blocks of 1..128 values (tails and 1-value blocks included) at
    widths 0..63, each value drawn over its full width, so widths 57..63
    straddle 64-bit words at most offsets; zero blocks is the empty input."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.lists(
        st.tuples(st.integers(0, 63), st.sampled_from([1, 2, 7, 63, 127, 128])),
        max_size=12,
    ))
    widths = np.array([w for w, _ in shape], dtype=np.int64)
    counts = np.array([c for _, c in shape], dtype=np.int64)
    vals = [rng.integers(0, 1 << w, size=c, dtype=np.int64) if w < 63
            else rng.integers(0, 2**63 - 1, size=c, dtype=np.int64, endpoint=True)
            for w, c in shape]
    values = np.concatenate(vals) if vals else np.zeros(0, np.int64)
    return values, counts, widths


def _pack_per_block(values, counts, widths):
    starts = np.cumsum(counts) - counts
    return b"".join(codec._pack_block(values[s : s + c], int(w))
                    for s, c, w in zip(starts, counts, widths))


@given(packed_blocks())
@settings(max_examples=200, deadline=None)
def test_pack_blocks_matches_per_block_fuzz(blocks):
    """pack_blocks == the concatenation of per-block _pack_block output,
    with byte offsets at each block's packed size."""
    values, counts, widths = blocks
    packed, off = codec.pack_blocks(values, counts, widths)
    assert packed.dtype == np.uint8
    assert packed.tobytes() == _pack_per_block(values, counts, widths)
    assert off.tolist() == [0, *np.cumsum((counts * widths + 7) // 8).tolist()]


def test_pack_blocks_every_width():
    """Every width 0..63 in one call: full, tail and 1-value blocks, all
    bits set (the widest straddle) and random values; widths 0..53 decode
    back through decode_blocks."""
    rng = np.random.default_rng(7)
    widths, counts, vals = [], [], []
    for w in range(64):
        for c in (128, 93, 1):
            widths.append(w)
            counts.append(c)
            top = (1 << w) - 1
            vals.append(np.full(c, top, np.int64) if c == 93
                        else rng.integers(0, top, size=c, dtype=np.int64, endpoint=True))
    values, counts, widths = np.concatenate(vals), np.array(counts), np.array(widths)
    packed, off = codec.pack_blocks(values, counts, widths)
    assert packed.tobytes() == _pack_per_block(values, counts, widths)
    for b in range(len(counts)):
        got = codec._unpack_block(memoryview(packed)[off[b] : off[b + 1]],
                                  int(counts[b]), int(widths[b]))
        start = int(counts[:b].sum())
        assert np.array_equal(got.astype(np.int64), values[start : start + counts[b]])
    empty, eoff = codec.pack_blocks(np.zeros(0, np.int64), np.zeros(0, np.int64),
                                    np.zeros(0, np.int64))
    assert len(empty) == 0 and eoff.tolist() == [0]
    # decode_blocks reads widths 0..53 back exactly (its full-block gather
    # sums bits in float64): full, tail and 1-value blocks of one stream,
    # the tail with all bits set, as docs (values + 1 prefix-summed) and,
    # while value + 1 fits int32, as freqs
    for w in range(54):
        top = (1 << w) - 1
        for c in ([128, 93], [128, 1], [1]):
            c = np.array(c, dtype=np.int64)
            v = rng.integers(0, top, size=int(c.sum()), dtype=np.int64, endpoint=True)
            v[128:] = top
            blob, _ = codec.pack_blocks(v, c, np.full(len(c), w))
            ws = np.full(len(c), w, dtype=np.uint8)
            docs = np.cumsum(v + 1) - 1
            last = docs[np.cumsum(c) - 1]
            got = codec.decode_blocks(blob, ws, len(v), last_docs=last)
            assert got.dtype == np.int64 and np.array_equal(got, docs)
            for b in range(len(c)):
                got = codec.decode_blocks(blob, ws, len(v), [b], last_docs=last)
                assert np.array_equal(got, docs[128 * b : 128 * b + c[b]])
            if w <= 30:
                got = codec.decode_blocks(blob, ws, len(v))
                assert got.dtype == np.int32 and np.array_equal(got, v + 1)


@given(st.lists(st.integers(1, 600), min_size=1, max_size=6),
       st.sampled_from([1, 3, 40, 1 << 16, (1 << 16) + 5, 1 << 30]),
       st.sampled_from([1, 2, 5, 256]), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_segment_impacts_match_per_block_fuzz(dfs, fmax, nmax, seed):
    """encode_segment_terms' impacts == compute_impacts of every block,
    with many tied (freq, norm) rows (small ranges) and freqs >= 2^16."""
    rng = np.random.default_rng(seed)
    dfs = np.array(dfs, dtype=np.int64)
    docs = np.concatenate([np.sort(rng.choice(2000, size=d, replace=False)) for d in dfs])
    freqs = rng.integers(1, fmax, size=len(docs), dtype=np.int64, endpoint=True)
    norms = rng.integers(0, nmax, size=len(docs)).astype(np.uint8)
    ends = np.cumsum(dfs)
    enc = codec.encode_segment_terms(docs, freqs, norms, ends - dfs, ends)
    want_c, want_f, want_n = [], [], []
    for s, e in zip(ends - dfs, ends):
        for b in range(s, e, codec.BLOCK_SIZE):
            c = min(codec.BLOCK_SIZE, e - b)
            kf, kn = codec.compute_impacts(freqs[b : b + c].astype(np.int32), norms[b : b + c])
            want_c.append(len(kf))
            want_f.extend(kf.tolist())
            want_n.extend(kn.tolist())
    assert enc.imp_counts.tolist() == want_c
    assert enc.imp_freqs.dtype == np.int32 and enc.imp_freqs.tolist() == want_f
    assert enc.imp_norms.dtype == np.uint8 and enc.imp_norms.tolist() == want_n


def _fingerprint_per_url(urls, lengths) -> str:
    import hashlib

    h = hashlib.sha256()
    for u in urls:
        h.update(str(u).encode())
    h.update(lengths.tobytes())
    return h.hexdigest()


@given(st.lists(st.one_of(st.none(), st.text(max_size=12)), max_size=30),
       st.integers(0, 30), st.integers(0, 30), st.booleans())
@settings(max_examples=100, deadline=None)
def test_lineage_fingerprint_matches_per_url_loop_fuzz(urls, cut, start, large):
    """The one-update lineage fingerprint == sha256 over str(url) per url
    (null as "None") then the lengths, for a list, a chunked Arrow column
    and a sliced one."""
    import pyarrow as pa

    from lucene_7_x_9_x_ray.state.segment import _string_array, lineage_fingerprint

    lengths = np.arange(len(urls), dtype=np.int64) * 3
    want = _fingerprint_per_url(urls, lengths)
    assert lineage_fingerprint(_string_array(urls), lengths) == want
    typ = pa.large_string() if large else pa.string()
    cut = min(cut, len(urls))
    chunked = pa.chunked_array([pa.array(urls[:cut], typ), pa.array(urls[cut:], typ)])
    assert lineage_fingerprint(_string_array(chunked), lengths) == want
    start = min(start, len(urls))
    sliced = pa.array(urls, typ).slice(start)
    assert lineage_fingerprint(_string_array(sliced), lengths[start:]) == (
        _fingerprint_per_url(urls[start:], lengths[start:])
    )


@given(st.lists(st.text(max_size=60), max_size=8))
@settings(max_examples=80, deadline=None)
def test_analyzer_batch_consistency_fuzz(texts):
    """Batch tokenization == per-document tokenization for arbitrary
    unicode input (no cross-document contamination), and doc_idx is
    consistent with per-doc counts."""
    an = get_analyzer("standard")
    toks, doc_idx = an.tokenize_batch(texts)
    per_doc = [an.tokens(t) for t in texts]
    flat = [x for p in per_doc for x in p]
    assert list(toks) == flat
    counts = np.bincount(doc_idx, minlength=len(texts)) if len(toks) else np.zeros(len(texts))
    assert [int(c) for c in counts] == [len(p) for p in per_doc]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_smallfloat_quantization_fuzz(length):
    """byte4ToInt(intToByte4(x)) is the largest table value <= x (the
    floor-quantization contract the SQL oracles rely on)."""
    b = int(int_to_byte4(np.array([length]))[0])
    decoded = int(BYTE4_DECODE_TABLE[b])
    assert decoded <= length
    larger = BYTE4_DECODE_TABLE[BYTE4_DECODE_TABLE > decoded]
    if len(larger):
        assert larger.min() > length or larger.min() > decoded
        # no table value in (decoded, length]
        assert not ((BYTE4_DECODE_TABLE > decoded) & (BYTE4_DECODE_TABLE <= length)).any()
