"""Block postings codec: docID-delta FOR bit-packing + block-max impacts.

Behavioral reference (semantics re-created, storage redesigned for Arrow):
- 128-entry packed blocks, fixed width per block:
  solr-8.4.0/lucene/core/.../codecs/lucene84/ForUtil.java:31-34 (BLOCK_SIZE).
- Delta-encode strictly-increasing docIDs then pack; all-1 deltas collapse
  to a zero-width marker: ForDeltaUtil.java:57-93.
- Tail (< 128 remaining) postings: the reference uses VInts
  (Lucene84PostingsWriter.java:374-387); we pack the tail at its own fixed
  width instead — same compression role, simpler random access. Deviation
  documented here and in SURVEY.md §2.7.
- Per-block competitive (freq, norm) impacts = pareto frontier (higher freq
  AND lower norm dominate): CompetitiveImpactAccumulator.java:77-129.
- Multi-level skip lists (Lucene84SkipWriter.java:151-203) are replaced by a
  flat per-block last_doc array — O(log nblocks) `advance` via searchsorted,
  which beats pointer-chasing skips in a columnar layout.

All encode/decode paths are numpy-vectorized (little-endian bit order): the
whole-segment writer packs a 64-bit word at a time (pack_blocks); merge,
compaction and reclaim read back through unaligned 64-bit windows
(_read_bits); queries decode any sorted set of one term's blocks through
decode_blocks (a width-grouped unpackbits gather, _unpack_block for the
tail). No Python loop over postings, only over blocks in the per-term
reference kernels. Packing takes widths up to 63 bits, but decode_blocks
sums bits in float64 and is exact only up to width 53; docID deltas and
freqs stay far below 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_SIZE",
    "EncodedPostings",
    "encode_postings",
    "decode_blocks",
    "compute_impacts",
    "block_bounds",
    "PostingsFormat",
    "register_postings_format",
    "get_postings_format",
    "format_by_id",
]

BLOCK_SIZE = 128  # ForUtil.BLOCK_SIZE


# ---------------------------------------------------------------------------
# postings-format SPI (Codec.java:43 forName/availableCodecs analogue)
# ---------------------------------------------------------------------------


class PostingsFormat:
    """One packed-ints strategy for doc-delta / freq blocks.

    The pluggable-codec seam (s84 codecs/Codec.java:43 SPI;
    codecs/lucene84/PForUtil.java:33 is the "pfor" built-in's reference):
    every postings region starts with this format's ``fmt_id`` byte, so
    readers, the merge shuffle and compaction dispatch per REGION with no
    side-channel — mixed-format indexes decode transparently and re-encode
    at the writer's configured format.

    ``plan(values, bvstart, bcount)`` -> (widths int64[B], masked values,
    exc) chooses each block's base bit width and, optionally, patch
    exceptions ``exc = (counts uint8[B], pos uint8[E], high uint8[E])``
    (None for exception-free formats). ``E`` rows are sorted by (block,
    pos); ``high`` is the value's bits above the base width.
    """

    name: str = ""
    fmt_id: int = -1

    def plan(self, values, bvstart, bcount, widths_full):
        raise NotImplementedError


class ForPostingsFormat(PostingsFormat):
    """Plain FOR: per-block width = bit width of the block max, no
    exceptions (ForUtil.java:31 semantics — the default)."""

    name = "for"
    fmt_id = 0

    def plan(self, values, bvstart, bcount, widths_full):
        return widths_full, values, None


class PForPostingsFormat(PostingsFormat):
    """Patched FOR: per-block base width chosen so that a few outlier
    values ("exceptions") store only their low bits in the packed block,
    with the high bits (one byte each) patched back at decode
    (s84 codecs/lucene84/PForUtil.java:48-81: (position, highByte) pairs
    appended after the packed block). Documented deviation: the reference
    caps at 3 exceptions with width = max(bits(4th-largest), maxBits-8);
    we allow up to 7 and pick the width minimizing packed bytes +
    2 bytes/exception — same decode semantics (scores never depend on
    encoding), strictly never-larger blocks under the cost model.
    Positions streams stay plain FOR (one width per term), as before."""

    name = "pfor"
    fmt_id = 1
    MAX_EXCEPTIONS = 7

    def plan(self, values, bvstart, bcount, widths_full):
        B = len(bcount)
        if B == 0 or len(values) == 0:
            return widths_full, values, (
                np.zeros(0, np.uint8), np.zeros(0, np.uint8), np.zeros(0, np.uint8)
            )
        v = np.asarray(values, dtype=np.int64)
        bcount = np.asarray(bcount, dtype=np.int64)
        bvstart = np.asarray(bvstart, dtype=np.int64)
        # blocks tile `values` contiguously -> one lexsort groups each
        # block's values ascending; the top-e of a block are its run's tail
        vblock = np.repeat(np.arange(B, dtype=np.int64), bcount)
        order = np.lexsort((v, vblock))
        sv = v[order]
        ends = np.cumsum(bcount)
        E = self.MAX_EXCEPTIONS + 1  # e = 0..7 exceptions considered
        cand_idx = ends[:, None] - 1 - np.arange(E, dtype=np.int64)[None, :]
        valid = cand_idx >= (ends - bcount)[:, None]
        cand_w = bit_widths(sv[np.clip(cand_idx, 0, len(sv) - 1)].ravel()).reshape(B, E)
        blockmax = sv[ends - 1]
        # an exception's high bits must fit one byte (PForUtil's invariant)
        ok_high = (blockmax[:, None] >> np.minimum(cand_w, 63)) <= 255
        sizes = (bcount[:, None] * cand_w + 7) // 8 + 2 * np.arange(E, dtype=np.int64)[None, :]
        sizes = np.where(valid & ok_high, sizes, np.int64(1) << 60)
        best_e = np.argmin(sizes, axis=1)  # ties -> fewest exceptions
        widths = cand_w[np.arange(B), best_e]
        exc_counts = best_e.astype(np.int64)
        tot = int(exc_counts.sum())
        if tot == 0:
            return widths, v, (
                exc_counts.astype(np.uint8), np.zeros(0, np.uint8), np.zeros(0, np.uint8)
            )
        eoff = np.zeros(B + 1, np.int64)
        np.cumsum(exc_counts, out=eoff[1:])
        bidx = np.repeat(np.arange(B, dtype=np.int64), exc_counts)
        k = np.arange(tot, dtype=np.int64) - eoff[bidx]
        sorted_pos = ends[bidx] - exc_counts[bidx] + k  # the top-e run, asc
        orig_idx = order[sorted_pos]
        w_b = widths[bidx]
        pos_in_block = orig_idx - bvstart[bidx]
        masked = v.copy()
        masked[orig_idx] = v[orig_idx] & ((np.int64(1) << w_b) - 1)
        high = (v[orig_idx] >> w_b).astype(np.int64)
        so = np.lexsort((pos_in_block, bidx))  # canonical (block, pos) order
        return widths, masked, (
            exc_counts.astype(np.uint8),
            pos_in_block[so].astype(np.uint8),
            high[so].astype(np.uint8),
        )


_FORMATS: dict[str, PostingsFormat] = {}
_FORMATS_BY_ID: dict[int, PostingsFormat] = {}


def register_postings_format(fmt: PostingsFormat) -> None:
    """SPI registration (Codec.forName's NamedSPILoader role); a format
    registered here is encodable via BuildConfig.postings_format and
    decodable from any region carrying its fmt_id byte."""
    if not fmt.name or fmt.fmt_id < 0 or fmt.fmt_id > 255:
        raise ValueError(f"invalid postings format {fmt.name!r}/{fmt.fmt_id}")
    existing = _FORMATS_BY_ID.get(fmt.fmt_id)
    if existing is not None and existing.name != fmt.name:
        raise ValueError(
            f"fmt_id {fmt.fmt_id} already registered to {existing.name!r}"
        )
    _FORMATS[fmt.name] = fmt
    _FORMATS_BY_ID[fmt.fmt_id] = fmt


def get_postings_format(name: str) -> PostingsFormat:
    try:
        return _FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown postings format {name!r} (registered: {sorted(_FORMATS)})"
        ) from None


def format_by_id(fmt_id: int) -> PostingsFormat:
    try:
        return _FORMATS_BY_ID[fmt_id]
    except KeyError:
        raise ValueError(f"unknown postings format id {fmt_id}") from None


register_postings_format(ForPostingsFormat())
register_postings_format(PForPostingsFormat())


def apply_exceptions(
    out: np.ndarray,
    sel: np.ndarray,
    widths: np.ndarray,
    exc: tuple,
    out_starts: np.ndarray,
) -> None:
    """Patch PFOR exceptions into decoded base values, in place.

    ``out`` holds the concatenated base-width values of the blocks in
    ``sel`` (docs: the raw deltas BEFORE +1/cumsum); ``out_starts[i]`` is
    block sel[i]'s first index in ``out``; ``exc`` = (counts, pos, high)
    per-TERM arrays. Pure scatter — vectorized, no per-exception Python."""
    exc_counts, exc_pos, exc_high = exc
    ec = np.asarray(exc_counts, dtype=np.int64)
    cnt = ec[sel]
    tot = int(cnt.sum())
    if tot == 0:
        return
    eoff = np.zeros(len(ec) + 1, np.int64)
    np.cumsum(ec, out=eoff[1:])
    soff = np.zeros(len(sel), np.int64)
    np.cumsum(cnt[:-1], out=soff[1:])
    srow = np.repeat(np.arange(len(sel), dtype=np.int64), cnt)
    k = np.arange(tot, dtype=np.int64) - soff[srow]
    src = eoff[sel[srow]] + k
    dst = np.asarray(out_starts, dtype=np.int64)[srow] + np.asarray(exc_pos)[src].astype(np.int64)
    out[dst] |= np.asarray(exc_high)[src].astype(np.int64) << np.asarray(widths)[sel[srow]].astype(np.int64)


def _pack_block(values: np.ndarray, width: int) -> bytes:
    """Bit-pack non-negative ints at `width` bits each, little-endian bit
    order. Widths up to 63 pack; decode_blocks reads full blocks back
    exactly only up to width 53 (a float64 sum), far above any docID
    delta or freq."""
    if width == 0:
        return b""
    v = values.astype(np.uint64)
    bits = (v[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8).ravel(), bitorder="little").tobytes()


def _unpack_block(buf: memoryview, count: int, width: int) -> np.ndarray:
    """Inverse of _pack_block -> uint64[count]."""
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    nbytes = (count * width + 7) // 8
    raw = np.frombuffer(buf[:nbytes], dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: count * width]
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    return (bits.reshape(count, width).astype(np.uint64) * weights).sum(
        axis=1, dtype=np.uint64
    )


def _packed_nbytes(counts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    return (counts.astype(np.int64) * widths.astype(np.int64) + 7) // 8


def bit_widths(maxima: np.ndarray) -> np.ndarray:
    """Vectorized int.bit_length over non-negative int64 maxima."""
    m = np.asarray(maxima, dtype=np.int64)
    w = np.zeros(len(m), dtype=np.int64)
    nz = m > 0
    w[nz] = np.floor(np.log2(m[nz].astype(np.float64))).astype(np.int64) + 1
    # float log2 can land one low at exact powers of two — fix up exactly
    bad = nz & ((m >> np.minimum(w, 63)) > 0)
    w[bad] += 1
    return w


def pack_blocks(
    values: np.ndarray, block_counts: np.ndarray, block_widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack MANY bit-packed blocks in one vectorized pass.

    ``values`` holds every block's values back to back (block i contributes
    block_counts[i] values packed at block_widths[i] bits, little-endian,
    each block padded to a byte boundary — byte-identical to concatenating
    per-block _pack_block outputs). Returns (packed uint8 array,
    byte offsets[B+1]).

    Values are placed a 64-bit word at a time: the value at stream bit b
    puts ``v << (b & 63)`` into word ``b >> 6`` and, when it straddles the
    word's end, ``v >> (64 - (b & 63))`` into the next word. Values never
    share a bit, so one OR-reduce over each run of equal word indices
    assembles a word, and the words viewed as little-endian bytes are the
    stream. Cost is a few passes over the values, whatever the widths.
    """
    counts = np.asarray(block_counts, dtype=np.int64)
    widths = np.asarray(block_widths, dtype=np.int64)
    nbytes = _packed_nbytes(counts, widths)
    byte_off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=byte_off[1:])
    total_bytes = int(byte_off[-1])
    if total_bytes == 0:
        return np.zeros(0, dtype=np.uint8), byte_off

    # width-0 blocks write no bits: drop their values
    nz = widths > 0
    v = np.asarray(values, dtype=np.int64)
    if not nz.all():
        v = v[np.repeat(nz, counts)]
    c, w = counts[nz], widths[nz]
    # stream bit of a block's i-th value: byte_off * 8 + i * w
    wv = np.repeat(w, c)
    bit = np.arange(len(v), dtype=np.int64) * wv
    bit += np.repeat(byte_off[:-1][nz] * 8 - (np.cumsum(c) - c) * w, c)
    word = bit >> 6
    shift = (bit & 63).astype(np.uint64)
    u = v.astype(np.uint64)
    out = np.zeros((total_bytes + 7) // 8 + 1, dtype="<u8")
    runs = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
    out[word[runs]] = np.bitwise_or.reduceat(u << shift, runs)
    # at most one value straddles into a word, so a plain scatter ORs it
    st = np.flatnonzero(shift + wv.astype(np.uint64) > 64)
    out[word[st] + 1] |= u[st] >> (np.uint64(64) - shift[st])
    return out.view(np.uint8)[:total_bytes], byte_off


def block_bounds(doc_freq: int) -> tuple[int, np.ndarray]:
    """(num_blocks, per-block counts) for a posting list of length doc_freq."""
    nblocks = (doc_freq + BLOCK_SIZE - 1) // BLOCK_SIZE
    counts = np.full(nblocks, BLOCK_SIZE, dtype=np.int64)
    tail = doc_freq % BLOCK_SIZE
    if tail:
        counts[-1] = tail
    return nblocks, counts


def compute_impacts(freqs: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pareto frontier of (freq, norm) pairs for one block.

    A pair is competitive iff no other pair has freq >= AND norm <= it
    (CompetitiveImpactAccumulator semantics). Returns (freqs asc, norms asc),
    deduplicated.
    """
    order = np.lexsort((norms, -freqs.astype(np.int64)))  # freq desc, norm asc
    f_sorted = freqs[order]
    n_sorted = norms[order].astype(np.int64)
    running_min = np.minimum.accumulate(n_sorted)
    first = np.ones(len(order), dtype=bool)
    first[1:] = n_sorted[1:] < running_min[:-1]
    keep_f = f_sorted[first][::-1].astype(np.int32)
    keep_n = n_sorted[first][::-1].astype(np.uint8)
    return keep_f, keep_n


@dataclass
class EncodedPostings:
    """One term's encoded posting list (all fields -> binary parquet cells)."""

    doc_freq: int
    total_term_freq: int
    docs_blob: bytes
    freqs_blob: bytes
    last_docs: bytes  # int64 LE per block
    doc_widths: bytes  # uint8 per block
    freq_widths: bytes  # uint8 per block
    imp_counts: bytes  # uint8 per block
    imp_freqs: bytes  # int32 LE, concatenated frontiers
    imp_norms: bytes  # uint8, concatenated frontiers


def encode_postings(
    docs: np.ndarray, freqs: np.ndarray, norms: np.ndarray
) -> EncodedPostings:
    """Encode one term's postings.

    docs: strictly-increasing segment-local docIDs (int64/int32)
    freqs: per-doc term frequency (>= 1)
    norms: per-doc norm byte (uint8), aligned with docs (for impacts)
    """
    df = len(docs)
    assert df > 0
    docs = np.asarray(docs, dtype=np.int64)
    freqs = np.asarray(freqs, dtype=np.int64)
    norms = np.asarray(norms, dtype=np.uint8)

    deltas = np.empty(df, dtype=np.int64)
    deltas[0] = docs[0] + 1  # delta from virtual previous doc -1
    np.subtract(docs[1:], docs[:-1], out=deltas[1:])
    deltas -= 1  # deltas >= 1 always; store delta-1 so dense runs pack to width 0

    nblocks, counts = block_bounds(df)
    starts = np.zeros(nblocks, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])

    doc_parts: list[bytes] = []
    freq_parts: list[bytes] = []
    doc_widths = np.empty(nblocks, dtype=np.uint8)
    freq_widths = np.empty(nblocks, dtype=np.uint8)
    last_docs = np.empty(nblocks, dtype=np.int64)
    imp_counts = np.empty(nblocks, dtype=np.uint8)
    imp_f_parts: list[np.ndarray] = []
    imp_n_parts: list[np.ndarray] = []

    fm1 = freqs - 1
    for bi in range(nblocks):
        s, c = starts[bi], counts[bi]
        d = deltas[s : s + c]
        f = fm1[s : s + c]
        dw = int(d.max()).bit_length()
        fw = int(f.max()).bit_length()
        doc_widths[bi] = dw
        freq_widths[bi] = fw
        doc_parts.append(_pack_block(d, dw))
        freq_parts.append(_pack_block(f, fw))
        last_docs[bi] = docs[s + c - 1]
        kf, kn = compute_impacts(freqs[s : s + c].astype(np.int32), norms[s : s + c])
        imp_counts[bi] = len(kf)
        imp_f_parts.append(kf)
        imp_n_parts.append(kn)

    return EncodedPostings(
        doc_freq=df,
        total_term_freq=int(freqs.sum()),
        docs_blob=b"".join(doc_parts),
        freqs_blob=b"".join(freq_parts),
        last_docs=last_docs.tobytes(),
        doc_widths=doc_widths.tobytes(),
        freq_widths=freq_widths.tobytes(),
        imp_counts=imp_counts.tobytes(),
        imp_freqs=np.concatenate(imp_f_parts).astype(np.int32).tobytes(),
        imp_norms=np.concatenate(imp_n_parts).astype(np.uint8).tobytes(),
    )


def encode_positions(pos_stream: np.ndarray, freqs: np.ndarray) -> tuple[bytes, int]:
    """Encode one term's concatenated per-doc token positions.

    pos_stream holds each posting's positions ascending, doc after doc
    (length == total_term_freq); deltas restart at every doc boundary
    (Lucene84PostingsWriter position deltas). Returns (packed bytes, width).
    """
    if len(pos_stream) == 0:
        return b"", 0
    pos_stream = np.asarray(pos_stream, dtype=np.int64)
    deltas = np.empty(len(pos_stream), dtype=np.int64)
    deltas[0] = pos_stream[0]
    np.subtract(pos_stream[1:], pos_stream[:-1], out=deltas[1:])
    starts = np.zeros(len(freqs), dtype=np.int64)
    np.cumsum(np.asarray(freqs, dtype=np.int64)[:-1], out=starts[1:])
    deltas[starts] = pos_stream[starts]  # delta restarts at doc boundaries
    width = int(deltas.max()).bit_length()
    return _pack_block(deltas, width), width


def decode_positions(
    blob, width: int, freqs: np.ndarray
) -> np.ndarray:
    """Inverse of encode_positions -> int64 positions stream."""
    freqs = np.asarray(freqs, dtype=np.int64)
    total = int(freqs.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    deltas = _unpack_block(memoryview(blob), total, width).astype(np.int64)
    cums = np.cumsum(deltas)
    starts = np.zeros(len(freqs), dtype=np.int64)
    np.cumsum(freqs[:-1], out=starts[1:])
    # subtract each doc's incoming prefix so cumsum restarts per doc
    base = cums[starts] - deltas[starts]
    return cums - np.repeat(base, freqs)


class SegmentEncoding:
    """Whole-segment batch encoding of many terms' postings (+ positions).

    Produced by encode_segment_terms: all packed streams are built in a
    few vectorized passes (pack_blocks) instead of per-term encode calls.
    ``term_files()`` lays every term's postings.bin region out back to back
    (byte-identical to _region_blobs(encode_postings(...)) per term) with
    the term-table metadata; ``payloads`` (float32, positions order) and
    ``term_ords`` (the input term ordinal of each encoded term, set by
    rewrite_postings) ride along for the writer.
    """

    __slots__ = (
        "n_terms", "dfs", "ttfs", "nbs", "bstart", "bcount",
        "last_docs", "dwidths", "fwidths", "imp_counts", "imp_freqs",
        "imp_norms", "imp_term_off", "docs_packed", "docs_off",
        "freqs_packed", "freqs_off", "pos_packed", "pos_off", "pos_widths",
        "fmt_id", "dexc", "fexc", "dexc_off", "fexc_off",
        "has_positions", "payloads", "term_ords", "_files",
    )

    def term_files(self):
        """(postings bytes, (off, n_blocks, n_imp, len_docs, len_freqs),
        positions bytes, (pos_off, pos_width, len_pos)) of every term.

        Each region is: fmt_id byte, last_docs, doc/freq widths, impact
        counts, impact freqs and norms, [PFOR: exception counts, positions
        and high bytes], packed docs, packed freqs. Every section of every
        term lands in one scatter per section (the section's source arrays
        are already term-ordered and contiguous). Computed once, cached."""
        if getattr(self, "_files", None) is not None:
            return self._files
        T, bs, it = self.n_terms, self.bstart, self.imp_term_off
        secs = [
            (np.full(T, self.fmt_id, np.uint8), np.arange(T + 1)),
            (_le_bytes(self.last_docs, "<i8"), bs * 8),
            (_le_bytes(self.dwidths, np.uint8), bs),
            (_le_bytes(self.fwidths, np.uint8), bs),
            (_le_bytes(self.imp_counts, np.uint8), bs),
            (_le_bytes(self.imp_freqs, "<i4"), it * 4),
            (_le_bytes(self.imp_norms, np.uint8), it),
        ]
        if self.fmt_id != 0:
            de, fe = self.dexc_off[bs], self.fexc_off[bs]
            secs += [
                (_le_bytes(self.dexc[0], np.uint8), bs),
                (_le_bytes(self.fexc[0], np.uint8), bs),
                (_le_bytes(self.dexc[1], np.uint8), de),
                (_le_bytes(self.dexc[2], np.uint8), de),
                (_le_bytes(self.fexc[1], np.uint8), fe),
                (_le_bytes(self.fexc[2], np.uint8), fe),
            ]
        secs += [
            (self.docs_packed, self.docs_off[bs]),
            (self.freqs_packed, self.freqs_off[bs]),
        ]
        lens = [np.diff(o) for _, o in secs]
        size = np.sum(lens, axis=0)
        off = np.zeros(T, np.int64)
        np.cumsum(size[:-1], out=off[1:])
        post = np.empty(int(size.sum()), np.uint8)
        cur = off.copy()
        for (src, o), ln in zip(secs, lens):
            post[_ranges(cur, ln)] = src[o[0] : o[-1]]
            cur += ln
        meta = (off, self.nbs.astype(np.int32), np.diff(it).astype(np.int32),
                lens[-2], lens[-1])
        pos_meta = (self.pos_off[:-1], self.pos_widths.astype(np.uint8),
                    np.diff(self.pos_off))
        self._files = (post, meta, self.pos_packed[: self.pos_off[-1]], pos_meta)
        return self._files

    def term_region(self, ti: int) -> tuple[bytes, int, int, int, int]:
        """(region bytes, n_blocks, n_imp, len_docs, len_freqs) for term ti:
        one slice of term_files(). len_docs/len_freqs are PACKED lengths."""
        post, (off, nb, ni, ld, lf), _, _ = self.term_files()
        end = off[ti + 1] if ti + 1 < self.n_terms else len(post)
        return post[off[ti] : end].tobytes(), int(nb[ti]), int(ni[ti]), int(ld[ti]), int(lf[ti])

    def term_positions_blob(self, ti: int) -> tuple[bytes, int, int]:
        """(pos blob bytes, pos width, len) for term ti (positions mode)."""
        p0, p1 = int(self.pos_off[ti]), int(self.pos_off[ti + 1])
        return self.pos_packed[p0:p1].tobytes(), int(self.pos_widths[ti]), p1 - p0


def _le_bytes(a, dtype) -> np.ndarray:
    """``a`` as little-endian ``dtype`` values, viewed as raw bytes."""
    return np.ascontiguousarray(a, dtype=dtype).view(np.uint8)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated index ranges [starts[i], starts[i] + lens[i])."""
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    first = np.cumsum(lens) - lens
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(starts - first, lens)


def encode_segment_terms(
    docs: np.ndarray,
    freqs: np.ndarray,
    norms_aligned: np.ndarray,
    term_starts: np.ndarray,
    term_ends: np.ndarray,
    pos_stream: np.ndarray | None = None,
    postings_format: str = "for",
    payloads: np.ndarray | None = None,
) -> SegmentEncoding:
    """Batch-encode every term of a segment in vectorized passes.

    docs/freqs are the (term, doc)-sorted posting triples (term boundaries
    in term_starts/term_ends); norms_aligned[i] is the norm byte of the
    doc at position i (aligned with docs); pos_stream (optional; None = the
    field indexes no positions) holds positions in the same global order,
    expanded per occurrence, and ``payloads`` (optional) one float32 per
    position in that order. Semantically identical to per-term
    encode_postings + encode_positions (asserted by tests)."""
    T = len(term_starts)
    enc = SegmentEncoding()
    enc.has_positions = pos_stream is not None
    enc.payloads = payloads
    enc.term_ords = np.arange(T, dtype=np.int64)
    docs = np.asarray(docs, dtype=np.int64)
    freqs = np.asarray(freqs, dtype=np.int64)
    term_starts = np.asarray(term_starts, dtype=np.int64)
    term_ends = np.asarray(term_ends, dtype=np.int64)
    enc.n_terms = T
    enc.dfs = (term_ends - term_starts).astype(np.int64)

    # docID deltas with restarts at term boundaries (store delta-1)
    deltas = np.empty(len(docs), dtype=np.int64)
    if len(docs):
        deltas[1:] = docs[1:] - docs[:-1] - 1
        deltas[term_starts] = docs[term_starts]
    fm1 = freqs - 1

    # global block table: nbs[t] blocks per term, 128 values except tails
    nbs = (enc.dfs + BLOCK_SIZE - 1) // BLOCK_SIZE
    enc.nbs = nbs
    B = int(nbs.sum())
    bstart = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(nbs, out=bstart[1:])
    enc.bstart = bstart
    bterm = np.repeat(np.arange(T, dtype=np.int64), nbs)
    local_b = np.arange(B, dtype=np.int64) - np.repeat(bstart[:-1], nbs)
    bcount = np.where(
        local_b < nbs[bterm] - 1,
        BLOCK_SIZE,
        enc.dfs[bterm] - (nbs[bterm] - 1) * BLOCK_SIZE,
    ).astype(np.int64)
    enc.bcount = bcount
    bvstart = term_starts[bterm] + local_b * BLOCK_SIZE

    # per-block maxima -> widths (reduceat: blocks tile the value range)
    if B:
        dmax = np.maximum.reduceat(deltas, bvstart)
        fmax = np.maximum.reduceat(fm1, bvstart)
    else:
        dmax = fmax = np.empty(0, dtype=np.int64)
    fmt = get_postings_format(postings_format)
    enc.fmt_id = fmt.fmt_id
    enc.dwidths, d_store, enc.dexc = fmt.plan(deltas, bvstart, bcount, bit_widths(dmax))
    enc.fwidths, f_store, enc.fexc = fmt.plan(fm1, bvstart, bcount, bit_widths(fmax))
    enc.last_docs = docs[bvstart + bcount - 1] if B else np.empty(0, np.int64)
    for attr, e in (("dexc_off", enc.dexc), ("fexc_off", enc.fexc)):
        off = np.zeros(B + 1, np.int64)
        if e is not None:
            np.cumsum(np.asarray(e[0], dtype=np.int64), out=off[1:])
        setattr(enc, attr, off)

    enc.docs_packed, enc.docs_off = pack_blocks(d_store, bcount, enc.dwidths)
    enc.freqs_packed, enc.freqs_off = pack_blocks(f_store, bcount, enc.fwidths)
    # free the packing inputs: the impacts and positions passes below set
    # the flush's peak memory
    del deltas, fm1, d_store, f_store

    # per-block competitive (freq, norm) pareto frontiers of every block in
    # one pass (== compute_impacts per block): sort one int64 key of
    # (block, freq desc, norm asc), fields sized from the data's maxima.
    # Rows with equal keys carry equal (freq, norm), so the frontier does
    # not depend on their order and the key alone carries the row. The
    # running key norm - block*256 puts each block below every earlier one,
    # so one running minimum restarts at each block and a row is kept iff
    # its norm beats every earlier row of its block
    norms_aligned = np.asarray(norms_aligned, dtype=np.uint8)
    fmax = int(freqs.max()) if len(freqs) else 0
    fshift = fmax.bit_length() + 8
    if max(B - 1, 0).bit_length() + fshift > 63:
        raise OverflowError(f"impact sort key of {B} blocks, max freq {fmax} exceeds 63 bits")
    key = np.repeat(np.arange(B, dtype=np.int64) << fshift, bcount)
    key |= (fmax - freqs) << 8
    key |= norms_aligned
    key.sort()
    kblock = key >> fshift
    run = key & 255
    run -= kblock * 256
    first = np.ones(len(key), dtype=bool)
    first[1:] = run[1:] < np.minimum.accumulate(run)[:-1]
    del run
    kept = key[first]
    kb = kblock[first]
    imp_counts = np.bincount(kb, minlength=B)
    imp_end = np.cumsum(imp_counts)
    # a block's frontier is stored freq-ascending: reverse its kept rows
    kept = kept[2 * imp_end[kb] - imp_counts[kb] - 1 - np.arange(len(kept))]
    enc.imp_counts = imp_counts
    enc.imp_freqs = (fmax - ((kept & ((np.int64(1) << fshift) - 1)) >> 8)).astype(np.int32)
    enc.imp_norms = (kept & 255).astype(np.uint8)
    imp_term_off = np.zeros(T + 1, dtype=np.int64)
    if B:
        per_term_imps = np.add.reduceat(imp_counts, bstart[:-1])
        np.cumsum(per_term_imps, out=imp_term_off[1:])
    enc.imp_term_off = imp_term_off

    # positions: delta restarts at every posting (doc) boundary, one width
    # per term, each term's stream padded to a byte (== encode_positions)
    if pos_stream is not None and len(pos_stream):
        pos_stream = np.asarray(pos_stream, dtype=np.int64)
        pd = np.empty(len(pos_stream), dtype=np.int64)
        pd[1:] = pos_stream[1:] - pos_stream[:-1]
        posting_starts = np.zeros(len(freqs), dtype=np.int64)
        np.cumsum(freqs[:-1], out=posting_starts[1:])
        pd[posting_starts] = pos_stream[posting_starts]
        ttfs_arr = np.add.reduceat(freqs, term_starts) if T else np.empty(0, np.int64)
        # term token boundaries in the stream
        term_tok_starts = np.zeros(T, dtype=np.int64)
        np.cumsum(ttfs_arr[:-1], out=term_tok_starts[1:])
        pmax = np.maximum.reduceat(pd, term_tok_starts)
        enc.pos_widths = bit_widths(pmax)
        enc.pos_packed, enc.pos_off = pack_blocks(pd, ttfs_arr, enc.pos_widths)
        enc.ttfs = ttfs_arr
    else:
        enc.pos_packed = np.empty(0, np.uint8)
        enc.pos_off = np.zeros(T + 1, dtype=np.int64)
        enc.pos_widths = np.zeros(T, dtype=np.int64)
        enc.ttfs = (
            np.add.reduceat(freqs, term_starts) if T and len(freqs) else np.zeros(T, np.int64)
        )
    return enc


def _read_bits(buf: np.ndarray, bit_off: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The ``widths[i]``-bit values (<= 63, LSB first) at absolute bit
    offsets ``bit_off[i]`` of the uint8 buffer ``buf`` -> int64.

    One unaligned little-endian 64-bit window read at each value's first
    byte covers widths <= 56; wider values take their top bits from the
    byte after the window. Windows that would run past the end of ``buf``
    read a zero-padded copy of its last bytes, so ``buf`` (a memory map,
    say) is never copied.

    The merge's kernel: there it is as fast as or faster than
    decode_blocks' width-grouped gather (17.0 ms against 19.4 ms for one
    391k-posting segment), and it decodes many regions in one call."""
    byte = np.asarray(bit_off, dtype=np.int64) >> 3
    shift = (np.asarray(bit_off, dtype=np.int64) & 7).astype(np.uint64)
    w = np.asarray(widths).astype(np.uint64)
    n = len(buf)
    win = np.zeros(len(byte), dtype=np.uint64)
    inside = byte < n - 7
    if inside.any():
        wins = np.ndarray((n - 7,), dtype="<u8", buffer=buf, strides=(1,))
        win[inside] = wins[byte[inside]]
    edge = ~inside
    if edge.any():
        t0 = max(n - 8, 0)
        tail = np.zeros(24, dtype=np.uint8)
        tail[: n - t0] = buf[t0:]
        win[edge] = np.ndarray((17,), dtype="<u8", buffer=tail, strides=(1,))[byte[edge] - t0]
    v = win >> shift
    wide = np.flatnonzero(w + shift > 64)
    if len(wide):
        nxt = byte[wide] + 8
        hi = np.where(nxt < n, buf[np.minimum(nxt, n - 1)], 0).astype(np.uint64)
        v[wide] |= hi << (np.uint64(64) - shift[wide])
    return (v & ((np.uint64(1) << w) - np.uint64(1))).astype(np.int64)


def decode_segment_terms(
    post: np.ndarray,
    off: np.ndarray,
    doc_freq: np.ndarray,
    n_blocks: np.ndarray,
    n_imp: np.ndarray,
    len_docs: np.ndarray,
    len_freqs: np.ndarray,
    positions: tuple | None = None,
    payloads: tuple | None = None,
):
    """Vectorized inverse of encode_segment_terms + term_files.

    ``post`` holds term regions (any order, any gaps) starting at byte
    ``off[i]``; the other arrays are each region's term-table row. FOR and
    PFOR regions mix freely (each leads with its fmt_id byte). Every
    section offset and the whole block table come from array arithmetic,
    and each stream decodes in one gather (_read_bits); PFOR exceptions
    patch through apply_exceptions. ``positions`` = (buffer, pos_off,
    pos_width) and ``payloads`` = (float32 buffer, pay_off) decode the
    regions' position and payload streams too.

    Returns (docs, freqs, positions or None, payloads or None): region
    after region, docIDs local to each region (first delta from -1)."""
    post = np.asarray(post, dtype=np.uint8)
    off = np.asarray(off, dtype=np.int64)
    df = np.asarray(doc_freq, dtype=np.int64)
    nb = np.asarray(n_blocks, dtype=np.int64)
    ni = np.asarray(n_imp, dtype=np.int64)
    ld = np.asarray(len_docs, dtype=np.int64)
    F = len(off)
    fmt = post[off]
    for f in np.unique(fmt):
        format_by_id(int(f))  # corrupt regions fail loud
    # block table: region, block-in-region, value count, first value
    B = int(nb.sum())
    bfrag = np.repeat(np.arange(F, dtype=np.int64), nb)
    bfirst = np.cumsum(nb) - nb
    local_b = np.arange(B, dtype=np.int64) - bfirst[bfrag]
    nbb = nb[bfrag]
    bcount = np.where(local_b < nbb - 1, BLOCK_SIZE, df[bfrag] - (nbb - 1) * BLOCK_SIZE)
    vstart = np.cumsum(bcount) - bcount
    # section offsets (see SegmentEncoding.term_files for the layout)
    widths_at = off + 1 + 8 * nb
    dw = post[widths_at[bfrag] + local_b]
    fw = post[widths_at[bfrag] + nbb + local_b]
    exc_at = widths_at + 3 * nb + 5 * ni
    patched = fmt != 0
    pb = patched[bfrag]
    dcnt = np.zeros(B, np.uint8)
    fcnt = np.zeros(B, np.uint8)
    dcnt[pb] = post[exc_at[bfrag][pb] + local_b[pb]]
    fcnt[pb] = post[exc_at[bfrag][pb] + nbb[pb] + local_b[pb]]
    nd = np.bincount(bfrag, weights=dcnt, minlength=F).astype(np.int64)
    nf = np.bincount(bfrag, weights=fcnt, minlength=F).astype(np.int64)
    dpos_at = exc_at + 2 * nb
    dexc = (dcnt, post[_ranges(dpos_at, nd)], post[_ranges(dpos_at + nd, nd)])
    fexc = (fcnt, post[_ranges(dpos_at + 2 * nd, nf)],
            post[_ranges(dpos_at + 2 * nd + nf, nf)])
    docs_at = np.where(patched, dpos_at + 2 * nd + 2 * nf, exc_at)
    blocks = np.arange(B, dtype=np.int64)
    vb = np.repeat(blocks, bcount)
    k = np.arange(len(vb), dtype=np.int64) - vstart[vb]

    def unpack(at, w, exc):
        nbytes = (bcount * w.astype(np.int64) + 7) // 8
        bbyte = np.cumsum(nbytes) - nbytes
        bbyte += at[bfrag] - bbyte[bfirst[bfrag]]  # restart in each region
        vals = _read_bits(post, 8 * bbyte[vb] + k * w[vb], w[vb])
        apply_exceptions(vals, blocks, w, exc, vstart)
        return vals + 1

    d = unpack(docs_at, dw, dexc)
    freqs = unpack(docs_at + ld, fw, fexc)
    cs = np.cumsum(d)
    first = np.cumsum(df) - df
    docs = cs - np.repeat(cs[first] - d[first] + 1, df)
    ttf = np.add.reduceat(freqs, first)
    tok_first = np.cumsum(ttf) - ttf
    pos = pay = None
    if positions is not None:
        pbuf, pos_off, pos_w = positions
        pos_off = np.asarray(pos_off, dtype=np.int64)
        pos_w = np.asarray(pos_w, dtype=np.int64)
        tfrag = np.repeat(np.arange(F, dtype=np.int64), ttf)
        kt = np.arange(len(tfrag), dtype=np.int64) - tok_first[tfrag]
        pd = _read_bits(np.asarray(pbuf, dtype=np.uint8),
                        8 * pos_off[tfrag] + kt * pos_w[tfrag], pos_w[tfrag])
        # deltas restart at every posting: subtract each posting's prefix
        pc = np.cumsum(pd)
        ps = np.cumsum(freqs) - freqs
        pos = pc - np.repeat(pc[ps] - pd[ps], freqs)
    if payloads is not None:
        pay_buf, pay_off = payloads
        pay = np.asarray(pay_buf, dtype=np.float32)[_ranges(pay_off, ttf)]
    return docs, freqs, pos, pay


@dataclass
class TermFragments:
    """Term regions of ONE postings buffer, queued for rewrite_postings.

    ``post``/``off``/``doc_freq``/``n_blocks``/``n_imp``/``len_docs``/
    ``len_freqs`` locate and describe each region (decode_segment_terms);
    ``term`` is each region's OUTPUT term ordinal and ``doc_base`` (per
    region, or one int) is added to its local docIDs. ``positions`` /
    ``payloads`` are decode_segment_terms' optional stream tuples."""

    post: np.ndarray
    off: np.ndarray
    doc_freq: np.ndarray
    n_blocks: np.ndarray
    n_imp: np.ndarray
    len_docs: np.ndarray
    len_freqs: np.ndarray
    term: np.ndarray
    doc_base: np.ndarray | int = 0
    positions: tuple | None = None
    payloads: tuple | None = None


def rewrite_postings(
    fragments: list[TermFragments],
    doc_remap: np.ndarray | None = None,
    *,
    norms: np.ndarray,
    norms_base: int = 0,
    postings_format: str = "for",
) -> SegmentEncoding:
    """The one postings-rewrite kernel of merge, compaction and reclaim.

    Decodes every fragment (decode_segment_terms, one call per buffer),
    maps its docIDs to ``doc_base + local`` and, with ``doc_remap``, on
    through ``doc_remap[...]`` where -1 drops the doc with its positions
    and payloads. A merge shard is ``doc_base`` = each segment's base; a
    compaction is the rebase of each input segment; a reclaim is the
    renumbering ``doc_remap``. Fragments of a term concatenate in
    doc_base order; terms left with no postings are dropped (the result's
    ``term_ords`` lists the surviving output ordinals). Norms are
    gathered once, as ``norms[new_doc - norms_base]``. Re-encodes with
    encode_segment_terms at ``postings_format``."""
    dec = [
        decode_segment_terms(
            f.post, f.off, f.doc_freq, f.n_blocks, f.n_imp, f.len_docs,
            f.len_freqs, positions=f.positions, payloads=f.payloads,
        )
        for f in fragments
    ]
    df = np.concatenate([np.asarray(f.doc_freq, np.int64) for f in fragments])
    term = np.concatenate([np.asarray(f.term, np.int64) for f in fragments])
    base = np.concatenate([
        np.broadcast_to(np.asarray(f.doc_base, np.int64), len(f.off)) for f in fragments
    ])
    docs = np.concatenate([x[0] for x in dec]) + np.repeat(base, df)
    freqs = np.concatenate([x[1] for x in dec])
    if doc_remap is not None:
        docs = np.asarray(doc_remap, dtype=np.int64)[docs]
    # fragments in (term, doc_base) order; a posting whose doc maps to -1
    # drops out with its tokens
    order = np.lexsort((base, term))
    first = np.cumsum(df) - df
    pidx = _ranges(first[order], df[order])
    pterm = np.repeat(term[order], df[order])
    keep = docs[pidx] >= 0 if doc_remap is not None else slice(None)
    pos = pay = None
    if fragments[0].positions is not None or fragments[0].payloads is not None:
        ttf = np.add.reduceat(freqs, first)
        tidx = _ranges((np.cumsum(ttf) - ttf)[order], ttf[order])
        if doc_remap is not None:
            tidx = tidx[np.repeat(keep, freqs[pidx])]
        if fragments[0].positions is not None:
            pos = np.concatenate([x[2] for x in dec])[tidx]
        if fragments[0].payloads is not None:
            pay = np.concatenate([x[3] for x in dec])[tidx]
    pidx, pterm = pidx[keep], pterm[keep]
    docs, freqs = docs[pidx], freqs[pidx]
    starts = np.flatnonzero(np.r_[True, pterm[1:] != pterm[:-1]])[: len(pterm)]
    enc = encode_segment_terms(
        docs, freqs, np.asarray(norms, dtype=np.uint8)[docs - norms_base],
        starts, np.append(starts[1:], len(docs)), pos_stream=pos,
        postings_format=postings_format, payloads=pay,
    )
    enc.term_ords = pterm[starts]
    return enc


def decode_blocks(
    blob, widths: np.ndarray, doc_freq: int, blocks: np.ndarray | None = None,
    exc: tuple | None = None, last_docs: np.ndarray | None = None,
) -> np.ndarray:
    """The query-side decoder of one doc-delta or freq stream: the sorted,
    distinct ``blocks`` (None = all of them), concatenated in block order.

    With ``last_docs`` the stream holds docIDs (stored as delta - 1): each
    block is the prefix sum of value + 1 on the previous block's last doc
    (-1 before block 0) -> int64. Without it, the stream holds freqs
    (stored as freq - 1) -> int32. ``exc`` (PFOR) patches high bits in
    before either (apply_exceptions)."""
    _, counts = block_bounds(doc_freq)
    widths = np.asarray(widths)
    nbytes = _packed_nbytes(counts, widths)
    offsets = np.cumsum(nbytes) - nbytes
    if blocks is None:
        sel, sub = np.arange(len(counts), dtype=np.int64), counts
    else:
        sel = np.asarray(blocks, dtype=np.int64)
        sub = counts[sel]
    starts = np.cumsum(sub) - sub
    vals = np.empty(int(sub.sum()), dtype=np.int64)
    raw = np.frombuffer(blob, dtype=np.uint8)
    # Full blocks: one unpackbits gather per distinct width. On the query
    # side this beats _read_bits 3-4x (1.8 ms against 7.7 ms for the docs
    # of an 80k-posting list, 4-CPU host) and a 2-D 64-bit window gather
    # (1.79 against 2.16 ms). The float64 sum is exact up to width 53;
    # docID deltas and freqs stay far below 2^53.
    full = np.flatnonzero(sub == BLOCK_SIZE)
    w_full = widths[sel[full]].astype(np.int64)
    for w in np.unique(w_full):
        rows = full[w_full == w]
        dst = (starts[rows][:, None] + np.arange(BLOCK_SIZE)[None, :]).ravel()
        if w == 0:
            vals[dst] = 0
            continue
        gather = raw[offsets[sel[rows]][:, None] + np.arange(BLOCK_SIZE * int(w) // 8)[None, :]]
        if w == 8:
            vals[dst] = gather.ravel()
        elif w == 16:
            vals[dst] = gather.view(np.uint16).ravel()
        else:
            bits = np.unpackbits(gather, axis=1, bitorder="little")
            weights = np.exp2(np.arange(w, dtype=np.float64))
            vals[dst] = (bits.reshape(-1, int(w)).astype(np.float64) @ weights).astype(np.int64)
    if len(sel) and sub[-1] < BLOCK_SIZE:
        # The tail block (only the list's last block can be short) keeps
        # _unpack_block: through _read_bits a df-50 list (docs and freqs)
        # cost 232 us against 152 us, and half the terms of a query mix
        # are that short.
        tail = int(sel[-1])
        vals[int(starts[-1]):] = _unpack_block(
            memoryview(blob)[int(offsets[tail]):], int(sub[-1]), int(widths[tail])
        )
    if exc is not None:
        apply_exceptions(vals, sel, widths, exc, starts)
    vals += 1
    if last_docs is None:
        return vals.astype(np.int32)
    docs = np.cumsum(vals)
    if len(sel) and int(sel[-1] - sel[0]) == len(sel) - 1:
        # a contiguous run (the whole list, one block) takes one base;
        # rebasing each block cost 8% more on a 300k-posting list
        docs += int(last_docs[sel[0] - 1]) if sel[0] > 0 else -1
        return docs
    # scattered blocks: restart the prefix sum at each block on its base
    bases = np.where(sel > 0, last_docs[np.maximum(sel - 1, 0)], -1)
    return docs - np.repeat(docs[starts] - vals[starts] - bases, sub)
