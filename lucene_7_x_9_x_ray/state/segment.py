"""Segment artifacts: the on-disk mini-index (writer + mmap reader).

A segment is the engine's immutable self-contained partition index — the
role Lucene's flushed segment plays (postings .doc + term dict .tim/.tip +
norms .nvd + stored fields, SURVEY.md §1.1) — redesigned for Arrow/numpy:

  terms.parquet   sorted term dictionary: term, doc_freq, total_term_freq,
                  and the (offset, lengths) of each term's region in
                  postings.bin. Replaces the block-tree + FST term index
                  (BlockTreeTermsWriter.java:199-206) with a sorted column
                  + binary search — the columnar equivalent.
  postings.bin    per term, contiguous: block metadata (last_docs int64[],
                  doc_widths u8[], freq_widths u8[], imp_counts u8[],
                  imp_freqs i32[], imp_norms u8[]) then the packed doc-delta
                  and freq blocks (functions/codec.py). Memory-mapped by
                  readers — the MMapDirectory analogue (MMapDirectory.java:95).
  norms.bin       one uint8 norm byte per local doc (the .nvd analogue,
                  BM25's doc-length statistic).
  docmap.parquet  local docID -> (url, warc_ts, lang, length): the stored
                  fields / docID remap record (MergeState.docMaps analogue).
  stats.json      per-partition lineage + metrics checkpoint (manifest.py).

Writes go to a temp sibling dir and are atomically renamed into place; a
segment directory either fully exists or does not.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import codec
from ..functions.analysis import Analyzer
from ..functions.smallfloat import int_to_byte4
from .manifest import STATS_NAME, SegmentStats, atomic_write_json

TERMS_FILE = "terms.parquet"
POSTINGS_FILE = "postings.bin"
NORMS_FILE = "norms.bin"
DOCMAP_FILE = "docmap.parquet"
# docmap parquet row-group size — the BKD leaf-block analogue: each row
# group's footer min/max statistics form the per-block index that
# NumericRangeQuery prunes with (s84 util/bkd/BKDWriter.java:79 cell
# bounds; PointRangeQuery.java:428 CELL_OUTSIDE/INSIDE/CROSSES visitor)
DV_BLOCK_ROWS = 65536
POSITIONS_FILE = "positions.bin"  # the .pos analogue (optional, per IndexOptions)
# the .pay analogue (s84 codecs/lucene50/Lucene50PostingsFormat PAY_EXTENSION):
# one little-endian float32 per position, in (term, doc, position) stream
# order — the FloatEncoder/PayloadHelper payload value; NaN = no payload at
# that position (DelimitedPayloadTokenFilter leaves payloads null for tokens
# without the delimiter)
PAYLOADS_FILE = "payloads.bin"
TERMVECTORS_FILE = "tvx.parquet"  # the .tvx/.tvd analogue (optional per-doc vectors)


# ---------------------------------------------------------------------------
# inversion: texts -> (term, local_doc, freq) triples + lengths
# ---------------------------------------------------------------------------


def invert_texts(
    texts, analyzer: Analyzer, chunk_rows: int = 8192
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invert a partition of documents.

    Returns (terms: object[], local_docs: int64[], freqs: int64[],
    doc_lengths: int64[]) where the triples are the nonzero (term, doc)
    frequency pairs, unsorted (kept for tests / API compatibility;
    the writer uses the coded variant below).
    """
    vocab, codes, docs, freqs, lengths = invert_texts_coded(texts, analyzer, chunk_rows)
    return vocab[codes] if len(codes) else np.empty(0, dtype=object), docs, freqs, lengths


def invert_texts_coded(
    texts, analyzer: Analyzer, chunk_rows: int = 8192
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invert a partition into integer-coded triples.

    Returns (vocab: object[] unsorted, term_codes: int64[], local_docs:
    int64[], freqs: int64[], doc_lengths: int64[]). This is the DWPT
    in-RAM inverted table equivalent (blog/Lucene/Index/倒排表) built with
    hash-based factorization (the BytesRefHash analogue) — no O(n log n)
    sort over token strings; only the small vocab is ever sorted later.
    """
    import pandas as pd

    n = len(texts)
    lengths = np.zeros(n, dtype=np.int64)
    vocab_index: dict = {}
    vocab_list: list = []
    c_parts: list[np.ndarray] = []
    d_parts: list[np.ndarray] = []
    f_parts: list[np.ndarray] = []
    for base in range(0, n, chunk_rows):
        chunk = texts[base : base + chunk_rows]
        tokens, doc_idx = analyzer.tokenize_batch(chunk)
        m = len(chunk)
        lengths[base : base + m] = np.bincount(doc_idx, minlength=m)
        if len(tokens) == 0:
            continue
        local_codes, local_vocab = pd.factorize(tokens)
        # remap chunk-local codes to the growing global vocab (loop is over
        # the chunk VOCAB only, not tokens)
        remap = np.empty(len(local_vocab), dtype=np.int64)
        for i, t in enumerate(local_vocab):
            gc = vocab_index.get(t)
            if gc is None:
                gc = len(vocab_list)
                vocab_index[t] = gc
                vocab_list.append(t)
            remap[i] = gc
        gcodes = remap[local_codes]
        # pair-count via a single flat key; (term, doc) pairs are unique
        # across chunks because each doc lives in exactly one chunk
        key = gcodes * m + doc_idx
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        counts = np.diff(np.r_[starts, len(key)])
        pair_keys = key[starts]
        c_parts.append(pair_keys // m)
        d_parts.append(pair_keys % m + base)
        f_parts.append(counts.astype(np.int64))
    vocab = np.array(vocab_list, dtype=object)
    if not c_parts:
        empty = np.empty(0, dtype=np.int64)
        return vocab, empty, empty, empty, lengths
    return (
        vocab,
        np.concatenate(c_parts),
        np.concatenate(d_parts),
        np.concatenate(f_parts),
        lengths,
    )


def split_payload_tokens(tokens, delimiter: str):
    """DelimitedPayloadTokenFilter + FloatEncoder (s84 analysis/common/
    .../payloads/DelimitedPayloadTokenFilter.java:54-69): split each token
    at the FIRST delimiter occurrence; the prefix is the term, the suffix
    parses as the float payload. Tokens without the delimiter keep their
    full text and get no payload (NaN). A non-numeric suffix raises, like
    FloatEncoder's NumberFormatException.

    Returns (terms object-array, payloads float32-array)."""
    import pandas as pd

    if len(tokens) == 0:
        return np.empty(0, dtype=object), np.empty(0, dtype=np.float32)
    s = pd.Series(tokens, dtype=object)
    parts = s.str.partition(delimiter)
    has = parts[1].to_numpy() == delimiter
    terms = np.where(has, parts[0].to_numpy(dtype=object), np.asarray(tokens, dtype=object))
    pays = np.full(len(s), np.nan, dtype=np.float32)
    if has.any():
        suffix = parts[2].to_numpy(dtype=object)[has]
        vals = pd.to_numeric(pd.Series(suffix), errors="coerce").to_numpy()
        if np.isnan(vals).any():
            bad = suffix[np.isnan(vals)][:3]
            raise ValueError(f"non-numeric payload suffix(es): {list(bad)!r}")
        pays[has] = vals.astype(np.float32)
    return terms, pays


def invert_tokens_coded(
    texts, analyzer: Analyzer, chunk_rows: int = 8192, payload_delimiter: str | None = None
):
    """Token-level inversion (positions path).

    Returns (vocab unsorted, term_codes per token, local_docs per token,
    positions per token [0-based within doc], doc_lengths). Used when
    IndexOptions include positions — the DefaultIndexingChain.invert:806
    analogue that keeps the position attribute. With ``payload_delimiter``
    set, tokens are split by split_payload_tokens and a sixth element (the
    per-token float32 payload stream, NaN = absent) is appended.
    """
    import pandas as pd

    n = len(texts)
    lengths = np.zeros(n, dtype=np.int64)
    vocab_index: dict = {}
    vocab_list: list = []
    c_parts, d_parts, p_parts, pay_parts = [], [], [], []
    for base in range(0, n, chunk_rows):
        chunk = texts[base : base + chunk_rows]
        tokens, doc_idx = analyzer.tokenize_batch(chunk)
        if payload_delimiter is not None:
            tokens, tok_pays = split_payload_tokens(tokens, payload_delimiter)
        m = len(chunk)
        per_doc = np.bincount(doc_idx, minlength=m)
        lengths[base : base + m] = per_doc
        if len(tokens) == 0:
            continue
        doc_tok_starts = np.zeros(m, dtype=np.int64)
        np.cumsum(per_doc[:-1], out=doc_tok_starts[1:])
        positions = np.arange(len(tokens), dtype=np.int64) - doc_tok_starts[doc_idx]
        local_codes, local_vocab = pd.factorize(tokens)
        remap = np.empty(len(local_vocab), dtype=np.int64)
        for i, t in enumerate(local_vocab):
            gc = vocab_index.get(t)
            if gc is None:
                gc = len(vocab_list)
                vocab_index[t] = gc
                vocab_list.append(t)
            remap[i] = gc
        c_parts.append(remap[local_codes])
        d_parts.append(doc_idx.astype(np.int64) + base)
        p_parts.append(positions)
        if payload_delimiter is not None:
            pay_parts.append(tok_pays)
    vocab = np.array(vocab_list, dtype=object)
    if not c_parts:
        empty = np.empty(0, dtype=np.int64)
        base_out = (vocab, empty, empty, empty, lengths)
        if payload_delimiter is not None:
            return base_out + (np.empty(0, dtype=np.float32),)
        return base_out
    out = (
        vocab,
        np.concatenate(c_parts),
        np.concatenate(d_parts),
        np.concatenate(p_parts),
        lengths,
    )
    if payload_delimiter is not None:
        return out + (np.concatenate(pay_parts),)
    return out


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def _region_blobs(enc: codec.EncodedPostings) -> tuple[bytes, int, int]:
    """Pack one term's encoded postings into its postings.bin region
    (plain-FOR reference layout; the leading byte is the postings-format
    id, 0 = "for")."""
    n_imp = len(enc.imp_norms)
    region = b"".join(
        (
            b"\x00",
            enc.last_docs,
            enc.doc_widths,
            enc.freq_widths,
            enc.imp_counts,
            enc.imp_freqs,
            enc.imp_norms,
            enc.docs_blob,
            enc.freqs_blob,
        )
    )
    n_blocks = len(enc.doc_widths)
    return region, n_blocks, n_imp


def field_prefix(field: str) -> str:
    """Artifact filename prefix for a non-primary field ("" = primary).

    Per-field postings/norms/terms files are the FieldInfos-driven per-field
    structures of the reference (s84 index/FieldInfos.java; every field gets
    its own terms dict + postings + norms in the codec)."""
    return f"f_{field}." if field else ""


def _write_field_artifacts(
    tmp: str, prefix: str, texts, analyzer: Analyzer, index_positions: bool,
    term_vectors: bool = False, postings_format: str = "for",
    payload_delimiter: str | None = None, index_freqs: bool = True,
) -> dict:
    """Invert + encode + write ONE field's term dict/postings/positions/norms
    into ``tmp`` under ``prefix``. Returns the field's stats (plus the raw
    per-doc lengths array under "lengths" for the caller's docmap)."""
    n = len(texts)
    pos_s = None
    pay_tok = pay_s = None
    tv_freqs = None  # true freqs for term vectors when postings clamp to 1
    if payload_delimiter is not None and not index_positions:
        raise ValueError("payloads require index_positions=True")
    if index_positions and not index_freqs:
        raise ValueError("index_positions=True requires index_freqs=True "
                         "(IndexOptions.DOCS has no positions)")
    if index_positions:
        # token-level path: one lexsort of (term rank, doc, position) gives
        # the postings AND the per-term position streams in final order
        if payload_delimiter is not None:
            vocab, codes_tok, docs_tok, pos_tok, lengths, pay_tok = invert_tokens_coded(
                texts, analyzer, payload_delimiter=payload_delimiter
            )
        else:
            vocab, codes_tok, docs_tok, pos_tok, lengths = invert_tokens_coded(texts, analyzer)
    else:
        vocab, codes, docs, freqs, lengths = invert_texts_coded(texts, analyzer)
    norms = int_to_byte4(lengths)

    # sort triples by (term, doc): only the SMALL vocab is string-sorted;
    # the big triple arrays sort on integer codes (rank remap + lexsort)
    if len(vocab):
        vocab_order = np.argsort(vocab)  # sorted term strings
        uniq_terms = vocab[vocab_order]
        rank = np.empty(len(vocab), dtype=np.int64)
        rank[vocab_order] = np.arange(len(vocab))
        if index_positions:
            inv_tok = rank[codes_tok]
            order = np.lexsort((pos_tok, docs_tok, inv_tok))
            inv_st = inv_tok[order]
            docs_st = docs_tok[order]
            pos_s = pos_tok[order]
            if pay_tok is not None:
                pay_s = pay_tok[order]
            change = np.r_[
                True, (inv_st[1:] != inv_st[:-1]) | (docs_st[1:] != docs_st[:-1])
            ]
            pair_tok_starts = np.flatnonzero(change)
            freqs_s = np.diff(np.r_[pair_tok_starts, len(inv_st)])
            docs_s = docs_st[pair_tok_starts]
            inv_s = inv_st[pair_tok_starts]
        else:
            inv = rank[codes]
            order = np.lexsort((docs, inv))
            docs_s = docs[order]
            freqs_s = freqs[order]
            inv_s = inv[order]
            if not index_freqs:
                # IndexOptions.DOCS: freq() == 1, ttf == df; all-1 blocks
                # pack at the dense width-0 marker (~1 byte/block). Term
                # vectors keep the TRUE freqs (a per-doc stored structure,
                # independent of the field's IndexOptions in Lucene).
                tv_freqs = freqs_s
                freqs_s = np.ones_like(freqs_s)
        # term boundaries
        starts = np.searchsorted(inv_s, np.arange(len(uniq_terms)))
        ends = np.append(starts[1:], len(inv_s))
    else:
        uniq_terms = np.empty(0, dtype=object)
        starts = ends = np.empty(0, dtype=np.int64)
        docs_s = freqs_s = np.empty(0, dtype=np.int64)

    # batch-encode the whole segment in vectorized passes (the per-term
    # Python encode loop was the flush hot spot on realistic doc sizes);
    # a field with no tokens still gets its positions / payloads files
    if index_positions and pos_s is None:
        pos_s = np.empty(0, dtype=np.int64)
    if payload_delimiter is not None and pay_s is None:
        pay_s = np.empty(0, dtype=np.float32)
    seg_enc = codec.encode_segment_terms(
        docs_s, freqs_s, norms[docs_s] if len(docs_s) else norms[:0],
        starts, ends, pos_stream=pos_s, postings_format=postings_format,
        payloads=pay_s,
    )
    write_term_files(tmp, prefix, uniq_terms, seg_enc)
    dfs = seg_enc.dfs

    with open(os.path.join(tmp, prefix + NORMS_FILE), "wb") as f:
        f.write(norms.astype(np.uint8).tobytes())

    if term_vectors and len(uniq_terms):
        # .tvx/.tvd analogue: per-doc (term_ord, freq) vectors as a parquet
        # CSR sorted by (doc, term_ord); term_ord indexes THIS segment's
        # sorted dictionary (blog/Lucene/索引文件/tvx&&tvd role)
        tv_order = np.lexsort((inv_s, docs_s))
        tv = pa.table(
            {
                "doc": pa.array(docs_s[tv_order].astype(np.int32)),
                "term_ord": pa.array(inv_s[tv_order].astype(np.int32)),
                "freq": pa.array(
                    (freqs_s if tv_freqs is None else tv_freqs)[tv_order].astype(
                        np.int32
                    )
                ),
            }
        )
        pq.write_table(tv, os.path.join(tmp, prefix + TERMVECTORS_FILE),
                       row_group_size=65536)

    return {
        "lengths": lengths,
        # DOCS-only: sumTotalTermFreq falls back to the (term, doc) pair
        # count == sumDocFreq (Lucene's stats for an index without freqs);
        # norms below still encode the TRUE analyzer token count
        "sum_total_term_freq": int(lengths.sum()) if index_freqs else int(len(docs_s)),
        "sum_doc_freq": int(dfs.sum()),
        "unique_terms": int(len(uniq_terms)),
        # docCount of this field = docs with >= 1 token (the docsWithField
        # statistic norms presence encodes in the reference; BM25 idf/avgdl
        # for a field use ITS docCount, BM25Similarity.java:88-90)
        "doc_count": int((lengths > 0).sum()),
        "index_positions": bool(index_positions),
    }


def write_docmap(table: pa.Table, path: str) -> None:
    """Write a segment's docmap: one row group per DV_BLOCK_ROWS docs (the
    block index range queries prune with), zstd-compressed. Against
    snappy, a 40,960-row docmap of perfbench's `search` pages shrank from
    629 KB to 431 KB and read in 3.2 ms instead of 3.7 ms (4-CPU host).
    terms.parquet stays snappy: zstd made a 24,576-doc segment's 44%
    smaller but 17% slower to read."""
    pq.write_table(table, path, row_group_size=DV_BLOCK_ROWS, compression="zstd")


def write_segment(
    out_dir: str,
    seg_name: str,
    texts,
    urls,
    warc_ts,
    langs,
    analyzer: Analyzer,
    doc_base: int,
    lineage_file: str = "",
    rg_start: int = 0,
    rg_end: int = 0,
    elapsed_sec: float = 0.0,
    index_positions: bool = False,
    index_freqs: bool = True,
    extra_fields: dict | None = None,
    term_vectors: bool = False,
    extra_docmap: dict | None = None,
    postings_format: str = "for",
    payload_delimiter: str | None = None,
) -> SegmentStats:
    """Build + atomically commit one segment from a partition of pages.

    Local docIDs are row positions within the partition (ascending input
    order), so global docID = doc_base + local is deterministic lineage, not
    task arrival order (SURVEY.md §7.5). ``elapsed_sec`` is the caller's
    pre-work (read) time; the stats record adds this function's own time.

    ``extra_fields`` maps field name -> (texts, index_positions): each extra
    field gets its own prefixed term dict/postings/norms artifacts in the
    same segment dir (the per-field structures FieldInfos drives in the
    reference), sharing the docID space and docmap with the primary field.
    """
    import time as _time

    _t_start = _time.perf_counter()
    n = len(texts)
    tmp = os.path.join(os.path.dirname(out_dir), f".{seg_name}.tmp-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp, exist_ok=True)
    try:
        primary = _write_field_artifacts(
            tmp, "", texts, analyzer, index_positions, term_vectors=term_vectors,
            postings_format=postings_format, payload_delimiter=payload_delimiter,
            index_freqs=index_freqs,
        )
        lengths = primary["lengths"]
        field_stats: dict[str, dict] = {}
        for fname, (ftexts, fpos) in (extra_fields or {}).items():
            if len(ftexts) != n:
                raise ValueError(
                    f"field {fname!r} has {len(ftexts)} values for {n} docs"
                )
            fres = _write_field_artifacts(
                tmp, field_prefix(fname), ftexts, analyzer, fpos,
                postings_format=postings_format,
            )
            fres.pop("lengths")
            field_stats[fname] = fres

        docmap_cols = {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(warc_ts),
            "lang": pa.array(langs, type=pa.string()),
            "length": pa.array(lengths),
        }
        for col, arr in (extra_docmap or {}).items():
            # user-defined stored fields / doc values, copied verbatim
            docmap_cols[col] = arr
        write_docmap(pa.table(docmap_cols), os.path.join(tmp, DOCMAP_FILE))

        # content fingerprint for lineage: urls + lengths (cheap, order-sensitive)
        h = hashlib.sha256()
        for u in urls:
            h.update(str(u).encode())
        h.update(lengths.tobytes())
        stats = SegmentStats(
            seg_name=seg_name,
            doc_base=doc_base,
            doc_count=n,
            sum_total_term_freq=primary["sum_total_term_freq"],
            sum_doc_freq=primary["sum_doc_freq"],
            unique_terms=primary["unique_terms"],
            lineage_file=lineage_file,
            lineage_rg_start=rg_start,
            lineage_rg_end=rg_end,
            lineage_fingerprint=h.hexdigest(),
            analyzer=analyzer.name,
            field_stats=field_stats,
            elapsed_sec=elapsed_sec + (_time.perf_counter() - _t_start),
        )
        atomic_write_json(os.path.join(tmp, STATS_NAME), stats.to_dict())
        # sync all segment data files before the dir becomes visible: the
        # global manifest commit must never reference unsynced pages
        from .manifest import fsync_dir_files

        fsync_dir_files(tmp)

        if os.path.exists(out_dir):
            # keep the existing dir only if its lineage matches this build
            # (a concurrent task of the same plan won the race — identical
            # content); a dir left by a DIFFERENT plan (e.g. the partition
            # was remapped by a prepended input file) must be replaced,
            # else the manifest would describe postings that aren't there
            from .manifest import segment_is_complete as _sic

            existing = _sic(
                out_dir,
                expect={
                    "path": lineage_file,
                    "rg_start": rg_start,
                    "rg_end": rg_end,
                    "doc_base": doc_base,
                },
            )
            if existing is not None:
                shutil.rmtree(tmp)
            else:
                from .manifest import durable_rename

                old = out_dir + f".stale-{uuid.uuid4().hex[:8]}"
                os.rename(out_dir, old)
                durable_rename(tmp, out_dir)
                shutil.rmtree(old, ignore_errors=True)
        else:
            from .manifest import durable_rename

            durable_rename(tmp, out_dir)
        return stats
    finally:
        if os.path.exists(tmp):
            shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


@dataclass
class TermPostings:
    """Decoded-on-demand view of one term's posting list."""

    doc_freq: int
    total_term_freq: int
    last_docs: np.ndarray  # int64 per block
    doc_widths: np.ndarray  # uint8 per block
    freq_widths: np.ndarray  # uint8 per block
    imp_counts: np.ndarray  # uint8 per block
    imp_freqs: np.ndarray  # int32 concatenated frontiers
    imp_norms: np.ndarray  # uint8 concatenated frontiers
    docs_blob: memoryview
    freqs_blob: memoryview
    # PFOR patch exceptions (None for plain FOR): (counts/blk, pos, high)
    dexc: tuple | None = None
    fexc: tuple | None = None

    def decode(self) -> tuple[np.ndarray, np.ndarray]:
        docs = codec.decode_docs(self.docs_blob, self.doc_widths, self.doc_freq,
                                 exc=self.dexc)
        freqs = codec.decode_freqs(self.freqs_blob, self.freq_widths, self.doc_freq,
                                   exc=self.fexc)
        return docs, freqs

    def decode_block(self, bi: int) -> tuple[np.ndarray, np.ndarray]:
        base = -1 if bi == 0 else int(self.last_docs[bi - 1])
        docs = codec.decode_docs(
            self.docs_blob, self.doc_widths, self.doc_freq, bi, bi + 1, base,
            exc=self.dexc,
        )
        freqs = codec.decode_freqs(self.freqs_blob, self.freq_widths, self.doc_freq,
                                   bi, bi + 1, exc=self.fexc)
        return docs, freqs

    def impact_slices(self):
        """Yield per-block (freqs, norms) impact frontiers."""
        off = 0
        for c in self.imp_counts:
            yield self.imp_freqs[off : off + c], self.imp_norms[off : off + c]
            off += int(c)


def parse_region(region, doc_freq: int, n_blocks: int, n_imp: int,
                 len_docs: int, len_freqs: int) -> "TermPostings":
    """Parse one term's postings.bin region from standalone bytes (used by
    the merge reducer, which receives shuffled fragment rows). The leading
    byte is the postings-format id (codec SPI dispatch: 0 = "for",
    1 = "pfor" with patch-exception sections); regions of different
    formats can coexist in one index and one merge."""
    mv = memoryview(region)
    fmt_id = mv[0]
    codec.format_by_id(fmt_id)  # validate early: corrupt regions fail loud
    p = 1
    last_docs = np.frombuffer(mv[p : p + n_blocks * 8], dtype=np.int64); p += n_blocks * 8
    doc_widths = np.frombuffer(mv[p : p + n_blocks], dtype=np.uint8); p += n_blocks
    freq_widths = np.frombuffer(mv[p : p + n_blocks], dtype=np.uint8); p += n_blocks
    imp_counts = np.frombuffer(mv[p : p + n_blocks], dtype=np.uint8); p += n_blocks
    imp_freqs = np.frombuffer(mv[p : p + n_imp * 4], dtype=np.int32); p += n_imp * 4
    imp_norms = np.frombuffer(mv[p : p + n_imp], dtype=np.uint8); p += n_imp
    dexc = fexc = None
    if fmt_id != 0:
        dexc_counts = np.frombuffer(mv[p : p + n_blocks], dtype=np.uint8); p += n_blocks
        fexc_counts = np.frombuffer(mv[p : p + n_blocks], dtype=np.uint8); p += n_blocks
        nd = int(dexc_counts.astype(np.int64).sum())
        nf = int(fexc_counts.astype(np.int64).sum())
        dexc_pos = np.frombuffer(mv[p : p + nd], dtype=np.uint8); p += nd
        dexc_high = np.frombuffer(mv[p : p + nd], dtype=np.uint8); p += nd
        fexc_pos = np.frombuffer(mv[p : p + nf], dtype=np.uint8); p += nf
        fexc_high = np.frombuffer(mv[p : p + nf], dtype=np.uint8); p += nf
        dexc = (dexc_counts, dexc_pos, dexc_high)
        fexc = (fexc_counts, fexc_pos, fexc_high)
    docs_blob = mv[p : p + len_docs]; p += len_docs
    freqs_blob = mv[p : p + len_freqs]
    return TermPostings(
        doc_freq=doc_freq, total_term_freq=-1, last_docs=last_docs,
        doc_widths=doc_widths, freq_widths=freq_widths, imp_counts=imp_counts,
        imp_freqs=imp_freqs, imp_norms=imp_norms, docs_blob=docs_blob,
        freqs_blob=freqs_blob, dexc=dexc, fexc=fexc,
    )


def write_term_files(out_dir: str, prefix: str, terms, enc: codec.SegmentEncoding) -> None:
    """Write one field's postings.bin, positions.bin (when the encoding has
    positions), payloads.bin (when it carries payloads) and terms.parquet
    from a SegmentEncoding — the one term-file writer of the segment
    flush, the merge shards, compaction and reclaim. The .pay stream is
    raw float32 per position in the SAME (term, doc, position) order as
    positions.bin; term ti's slice starts at its first token index
    (length = ttf, implied)."""
    post, meta, pos, pos_meta = enc.term_files()
    with open(os.path.join(out_dir, prefix + POSTINGS_FILE), "wb") as f:
        f.write(post)
    if enc.has_positions:
        with open(os.path.join(out_dir, prefix + POSITIONS_FILE), "wb") as f:
            f.write(pos)
    pay_off = None
    if enc.payloads is not None:
        with open(os.path.join(out_dir, prefix + PAYLOADS_FILE), "wb") as f:
            f.write(np.ascontiguousarray(enc.payloads, dtype="<f4"))
        pay_off = np.cumsum(enc.ttfs) - enc.ttfs
    pq.write_table(
        encode_term_table(terms, enc.dfs, enc.ttfs, meta,
                          pos_meta=pos_meta if enc.has_positions else None,
                          pay_off=pay_off),
        os.path.join(out_dir, prefix + TERMS_FILE),
        row_group_size=65536,
    )


def encode_term_table(
    uniq_terms, dfs, ttfs, regions_meta, pos_meta=None, pay_off=None
) -> pa.Table:
    """Assemble a terms.parquet table from per-term region metadata
    (offsets, n_blocks, n_imp, len_docs, len_freqs) — shared by the segment
    writer and the merge shard writer. ``pos_meta`` = (pos_off, pos_width,
    len_pos) adds the positions columns when positions are indexed.
    ``pay_off`` (per-term first-entry index into the float32 payloads.bin
    stream; length = ttf implied) adds the payloads column."""
    offsets, n_blocks_arr, n_imp_arr, len_docs_arr, len_freqs_arr = regions_meta
    cols = {
        "term": pa.array(uniq_terms, type=pa.string()),
        "doc_freq": pa.array(np.asarray(dfs, dtype=np.int64)),
        "total_term_freq": pa.array(np.asarray(ttfs, dtype=np.int64)),
        "off": pa.array(np.asarray(offsets, dtype=np.int64)),
        "n_blocks": pa.array(np.asarray(n_blocks_arr, dtype=np.int32)),
        "n_imp": pa.array(np.asarray(n_imp_arr, dtype=np.int32)),
        "len_docs": pa.array(np.asarray(len_docs_arr, dtype=np.int64)),
        "len_freqs": pa.array(np.asarray(len_freqs_arr, dtype=np.int64)),
    }
    if pos_meta is not None:
        pos_off, pos_width, len_pos = pos_meta
        cols["pos_off"] = pa.array(np.asarray(pos_off, dtype=np.int64))
        cols["pos_width"] = pa.array(np.asarray(pos_width, dtype=np.uint8))
        cols["len_pos"] = pa.array(np.asarray(len_pos, dtype=np.int64))
    if pay_off is not None:
        cols["pay_off"] = pa.array(np.asarray(pay_off, dtype=np.int64))
    return pa.table(cols)


def mmap_file(path: str, dtype=np.uint8) -> np.ndarray:
    """Read-only memory map of a segment stream. A tiny shard can
    legitimately own ZERO bytes of a stream (e.g. every term in its range
    is position-free after filtering) — mmap refuses empty files, numpy
    arrays don't."""
    if os.path.getsize(path) == 0:
        return np.empty(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r")


class TermTableReader:
    """Shared reader core for any directory holding terms.parquet +
    postings.bin (+ positions.bin): sorted-dict lookup, region parsing,
    positions decode. Subclassed by SegmentReader and the merged-index
    shard reader so the on-disk layout is parsed in exactly one place.
    """

    def _load_term_table(self, dir_path: str, prefix: str = "") -> None:
        t = pq.read_table(os.path.join(dir_path, prefix + TERMS_FILE), memory_map=True)
        self.terms = np.asarray(t["term"].to_numpy(zero_copy_only=False), dtype=object)
        self.doc_freqs = t["doc_freq"].to_numpy()
        self.ttfs = t["total_term_freq"].to_numpy()
        self._off = t["off"].to_numpy()
        self._n_blocks = t["n_blocks"].to_numpy()
        self._n_imp = t["n_imp"].to_numpy()
        self._len_docs = t["len_docs"].to_numpy()
        self._len_freqs = t["len_freqs"].to_numpy()
        self._post = mmap_file(os.path.join(dir_path, prefix + POSTINGS_FILE))
        self.has_positions = "pos_off" in t.column_names
        if self.has_positions:
            self._pos_off = t["pos_off"].to_numpy()
            self._pos_width = t["pos_width"].to_numpy()
            self._len_pos = t["len_pos"].to_numpy()
            self._positions = mmap_file(os.path.join(dir_path, prefix + POSITIONS_FILE))
        self.has_payloads = "pay_off" in t.column_names
        if self.has_payloads:
            self._pay_off = t["pay_off"].to_numpy()
            self._payloads = mmap_file(
                os.path.join(dir_path, prefix + PAYLOADS_FILE), dtype="<f4"
            )

    def lookup(self, term: str) -> int:
        """Sorted-dict binary search; -1 if absent (the FST-replacement)."""
        i = int(np.searchsorted(self.terms, term))
        if i < len(self.terms) and self.terms[i] == term:
            return i
        return -1

    def term_stats(self, term: str) -> tuple[int, int]:
        i = self.lookup(term)
        if i < 0:
            return 0, 0
        return int(self.doc_freqs[i]), int(self.ttfs[i])

    def term_postings(self, term: str) -> "TermPostings | None":
        i = self.lookup(term)
        if i < 0:
            return None
        return self.postings_by_ord(i)

    def postings_by_ord(self, i: int) -> "TermPostings":
        off = int(self._off[i])
        end = int(self._off[i + 1]) if i + 1 < len(self._off) else len(self._post)
        tp = parse_region(
            self._post[off:end],
            int(self.doc_freqs[i]),
            int(self._n_blocks[i]),
            int(self._n_imp[i]),
            int(self._len_docs[i]),
            int(self._len_freqs[i]),
        )
        tp.total_term_freq = int(self.ttfs[i])
        return tp

    def positions_by_ord(self, i: int, freqs: np.ndarray) -> np.ndarray:
        """Decoded positions stream for term ord i (needs its decoded freqs
        to place doc boundaries) — the PostingsEnum.nextPosition analogue."""
        off, ln = int(self._pos_off[i]), int(self._len_pos[i])
        return codec.decode_positions(
            self._positions[off : off + ln], int(self._pos_width[i]), freqs
        )

    def term_positions(self, term: str):
        """(docs, freqs, positions stream) or None (term absent / no .pos)."""
        if not self.has_positions:
            return None
        i = self.lookup(term)
        if i < 0:
            return None
        docs, freqs = self.postings_by_ord(i).decode()
        return docs, freqs, self.positions_by_ord(i, freqs)

    def payloads_by_ord(self, i: int) -> np.ndarray:
        """Term ord i's float32 payload stream (one entry per position,
        NaN = no payload) — the PostingsEnum.getPayload analogue."""
        off = int(self._pay_off[i])
        return np.asarray(self._payloads[off : off + int(self.ttfs[i])], dtype=np.float32)

    def term_positions_payloads(self, term: str):
        """(docs, freqs, positions stream, payloads stream) or None."""
        if not (self.has_positions and self.has_payloads):
            return None
        i = self.lookup(term)
        if i < 0:
            return None
        docs, freqs = self.postings_by_ord(i).decode()
        return docs, freqs, self.positions_by_ord(i, freqs), self.payloads_by_ord(i)


class FieldReader(TermTableReader):
    """Reader for one NON-primary field's artifacts within a segment dir:
    its own term dict, postings, positions and norms over the segment's
    shared docID space (the per-field Terms/NumericDocValues(norms) readers
    FieldInfos resolves in the reference)."""

    def __init__(self, seg_dir: str, field: str, doc_count: int, doc_base: int):
        prefix = field_prefix(field)
        self.field = field
        self._load_term_table(seg_dir, prefix)
        self.norms = np.fromfile(
            os.path.join(seg_dir, prefix + NORMS_FILE), dtype=np.uint8
        )
        self.doc_count = doc_count
        self.doc_base = doc_base


class SegmentReader(TermTableReader):
    """Open one segment: term dict in RAM, postings/norms memory-mapped.

    The IndexSearcher/SegmentReader + MMapDirectory analogue (SURVEY.md
    §2.3): construct once per query actor, serve many queries. The reader
    itself is the PRIMARY field's view; ``field_view(name)`` opens the
    per-field artifacts of additional indexed fields.
    """

    def __init__(self, seg_dir: str):
        self.seg_dir = seg_dir
        from .manifest import load_json

        self.stats = SegmentStats.from_dict(load_json(os.path.join(seg_dir, STATS_NAME)))
        self._load_term_table(seg_dir)
        self.norms = np.fromfile(os.path.join(seg_dir, NORMS_FILE), dtype=np.uint8)
        self.doc_count = self.stats.doc_count
        self.doc_base = self.stats.doc_base
        self._docmap = None
        self._field_views: dict[str, FieldReader] = {}

    def field_view(self, field: str):
        """Per-field reader ("" = primary = self); lazy-opened and cached."""
        if not field:
            return self
        fv = self._field_views.get(field)
        if fv is None:
            if field not in (self.stats.field_stats or {}):
                raise ValueError(
                    f"segment {self.seg_dir} has no indexed field {field!r} "
                    f"(fields: {sorted(self.stats.field_stats or ())})"
                )
            fv = FieldReader(self.seg_dir, field, self.doc_count, self.doc_base)
            self._field_views[field] = fv
        return fv

    def docmap(self) -> pa.Table:
        if self._docmap is None:
            self._docmap = pq.read_table(os.path.join(self.seg_dir, DOCMAP_FILE))
        return self._docmap

    @property
    def has_term_vectors(self) -> bool:
        return os.path.exists(os.path.join(self.seg_dir, TERMVECTORS_FILE))

    def term_vector(self, local_doc: int) -> tuple[np.ndarray, np.ndarray]:
        """One doc's (terms, freqs) — the TermVectorsReader.get(doc) role.
        The per-doc CSR loads once per reader; lookup is two searchsorteds."""
        tv = getattr(self, "_tv", None)
        if tv is None:
            t = pq.read_table(os.path.join(self.seg_dir, TERMVECTORS_FILE))
            tv = self._tv = (
                t["doc"].to_numpy(), t["term_ord"].to_numpy(), t["freq"].to_numpy()
            )
        docs, ords, freqs = tv
        a = int(np.searchsorted(docs, local_doc, side="left"))
        b = int(np.searchsorted(docs, local_doc, side="right"))
        return self.terms[ords[a:b]], freqs[a:b].astype(np.int64)

    def doc_values(self, col: str) -> np.ndarray:
        """Columnar per-doc values by segment-local docID — the query-time
        doc-values structure (NUMERIC/SORTED DocValues analogue, s84
        index/DocValuesType.java): the docmap column decoded once per
        reader into a numpy array (timestamps -> int64 micros) and cached,
        so range/facet queries touch columns, not stored-field rows."""
        cache = getattr(self, "_dv_cache", None)
        if cache is None:
            cache = self._dv_cache = {}
        arr = cache.get(col)
        if arr is None:
            arr = read_doc_values(self.seg_dir, col)
            cache[col] = arr
        return arr

    def doc_values_list(self, col: str) -> pa.ListArray:
        """Multi-valued (SORTED_SET) doc-values column as an Arrow
        list<string> array by segment-local docID (s84
        Lucene80DocValuesFormat.java:133 SORTED_SET role), column-pruned
        and cached per reader like the single-valued twin."""
        cache = getattr(self, "_dvl_cache", None)
        if cache is None:
            cache = self._dvl_cache = {}
        arr = cache.get(col)
        if arr is None:
            arr = pq.read_table(
                os.path.join(self.seg_dir, DOCMAP_FILE), columns=[col]
            )[col].combine_chunks()
            cache[col] = arr
        return arr

    def doc_values_range_docs(
        self, col: str, lower, upper, include_lower: bool, include_upper: bool
    ) -> np.ndarray:
        """Local docIDs matching a numeric range, via the BKD-analogue
        block index (docmap row-group min/max stats — see
        range_docs_pruned): blocks fully outside the range cost no IO,
        blocks fully inside emit docID runs without decoding. Cumulative
        pruning counters live in self.dv_prune_stats."""
        pf = getattr(self, "_docmap_pf", None)
        if pf is None:
            pf = self._docmap_pf = pq.ParquetFile(os.path.join(self.seg_dir, DOCMAP_FILE))
        stats = getattr(self, "dv_prune_stats", None)
        if stats is None:
            stats = self.dv_prune_stats = {}
        docs = range_docs_pruned(
            pf, col, lower, upper, include_lower, include_upper, prune_stats=stats
        )
        if docs is not None:
            return docs
        # no usable statistics (non-numeric column, stats disabled):
        # full-column scan, same semantics
        vals = self.doc_values(col)
        mask = np.ones(len(vals), dtype=bool)
        if lower is not None:
            mask &= (vals >= lower) if include_lower else (vals > lower)
        if upper is not None:
            mask &= (vals <= upper) if include_upper else (vals < upper)
        return np.flatnonzero(mask).astype(np.int64)

    def doc_values_valid(self, col: str) -> np.ndarray:
        """Validity bitmap of one docmap column (True = value present) —
        the IndexedDISI 'which docs have this doc-values field' role
        (s84 codecs/lucene80/Lucene80DocValuesFormat.java sparse sets);
        cached alongside the decoded values."""
        cache = getattr(self, "_dv_cache", None)
        if cache is None:
            cache = self._dv_cache = {}
        key = ("__valid__", col)
        arr = cache.get(key)
        if arr is None:
            arr = read_doc_values_validity(self.seg_dir, col)
            cache[key] = arr
        return arr


def _stat_to_int64(v, col_type) -> int | float | None:
    """Normalize a parquet row-group statistic to the numeric domain
    read_doc_values exposes (timestamps -> int64 micros). None = can't
    interpret; caller must treat the block as CROSSES."""
    import datetime as _dt

    import pyarrow.types as pat

    if v is None:
        return None
    if isinstance(v, _dt.datetime):
        if v.tzinfo is not None:
            v = v.replace(tzinfo=None)
        return int(np.datetime64(v, "us").astype(np.int64))
    if pat.is_timestamp(col_type) and isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (int, float, np.integer, np.floating)):
        return v
    return None


def range_docs_pruned(
    pf: pq.ParquetFile,
    col: str,
    lower,
    upper,
    include_lower: bool,
    include_upper: bool,
    prune_stats: dict | None = None,
) -> np.ndarray | None:
    """BKD-style numeric range over one docmap file: the parquet row-group
    footer min/max statistics are the per-block index (BKDWriter cell
    bounds); each block resolves to the PointRangeQuery IntersectVisitor
    relations — OUTSIDE (skip, no IO), INSIDE (emit the docID run without
    decoding values), CROSSES (read just that row group and mask). Returns
    sorted local docIDs, or None when statistics are unavailable (caller
    falls back to the full column scan). prune_stats, when given,
    accumulates {"blocks_skipped", "blocks_inside", "blocks_scanned"}."""
    import pyarrow.types as pat

    md = pf.metadata
    try:
        ci = pf.schema_arrow.names.index(col)
    except ValueError:
        return None
    col_type = pf.schema_arrow.types[ci]
    if not (pat.is_integer(col_type) or pat.is_floating(col_type) or pat.is_timestamp(col_type)):
        return None

    def passes_lower(v) -> bool:
        return lower is None or (v >= lower if include_lower else v > lower)

    def passes_upper(v) -> bool:
        return upper is None or (v <= upper if include_upper else v < upper)

    out: list[np.ndarray] = []
    offset = 0
    stats = prune_stats if prune_stats is not None else {}
    for rg_i in range(md.num_row_groups):
        rg = md.row_group(rg_i)
        n = rg.num_rows
        st = rg.column(ci).statistics
        mn = _stat_to_int64(st.min, col_type) if st is not None and st.has_min_max else None
        mx = _stat_to_int64(st.max, col_type) if st is not None and st.has_min_max else None
        has_nulls = bool(st.null_count) if st is not None and st.null_count is not None else True
        if mn is None or mx is None:
            rel = "CROSSES"
        elif not passes_lower(mx) or not passes_upper(mn):
            rel = "OUTSIDE"  # whole block out of range
        elif passes_lower(mn) and passes_upper(mx) and not has_nulls:
            rel = "INSIDE"  # every doc in the block matches
        else:
            rel = "CROSSES"
        if rel == "OUTSIDE":
            stats["blocks_skipped"] = stats.get("blocks_skipped", 0) + 1
        elif rel == "INSIDE":
            stats["blocks_inside"] = stats.get("blocks_inside", 0) + 1
            out.append(np.arange(offset, offset + n, dtype=np.int64))
        else:
            stats["blocks_scanned"] = stats.get("blocks_scanned", 0) + 1
            c = pf.read_row_group(rg_i, columns=[col])[col].combine_chunks()
            if pat.is_timestamp(c.type):
                vals = c.cast(pa.int64()).to_numpy(zero_copy_only=False)
            else:
                vals = c.to_numpy(zero_copy_only=False)
            mask = np.ones(n, dtype=bool)
            if c.null_count:
                mask &= ~np.asarray(pa.compute.is_null(c).to_numpy(zero_copy_only=False))
            if lower is not None:
                mask &= (vals >= lower) if include_lower else (vals > lower)
            if upper is not None:
                mask &= (vals <= upper) if include_upper else (vals < upper)
            out.append((np.flatnonzero(mask) + offset).astype(np.int64))
        offset += n
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def read_doc_values_validity(seg_dir: str, col: str) -> np.ndarray:
    """Validity bitmap of one docmap column as a numpy bool array."""
    import pyarrow.compute as pc

    c = pq.read_table(os.path.join(seg_dir, DOCMAP_FILE), columns=[col])[
        col
    ].combine_chunks()
    return pc.is_valid(c).to_numpy(zero_copy_only=False)


def read_doc_values(seg_dir: str, col: str) -> np.ndarray:
    """One docmap column of one segment as a numpy array (column-pruned
    parquet read; timestamps -> int64 micros)."""
    import pyarrow.types as pat

    c = pq.read_table(os.path.join(seg_dir, DOCMAP_FILE), columns=[col])[
        col
    ].combine_chunks()
    if pat.is_timestamp(c.type):
        return c.cast(pa.int64()).to_numpy()
    if pat.is_integer(c.type) or pat.is_floating(c.type):
        if c.null_count:
            # nullable numeric (sparse doc values): NaN-filled float64;
            # callers gate on doc_values_valid for the doc set
            return c.to_numpy(zero_copy_only=False)
        return c.to_numpy()
    return np.asarray(c.to_numpy(zero_copy_only=False), dtype=object)
