"""The postings-rewrite kernel: codec.decode_segment_terms round trips
(Hypothesis), and byte identity of merge / compaction / reclaim output
against a per-term reference path (TermPostings.decode per term and
fragment, then encode_postings / encode_positions per term)."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_7_x_9_x_ray.functions import codec
from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index_local
from lucene_7_x_9_x_ray.state.manifest import IndexManifest
from lucene_7_x_9_x_ray.state.segment import (
    NORMS_FILE,
    PAYLOADS_FILE,
    POSITIONS_FILE,
    POSTINGS_FILE,
    TERMS_FILE,
    SegmentReader,
    _region_blobs,
    encode_term_table,
)

# ---------------------------------------------------------------------------
# decode_segment_terms round trip
# ---------------------------------------------------------------------------


@st.composite
def _segments(draw):
    """A random multi-term segment: per term a df (tail-only, exact
    multiples of 128, or longer), docID gaps (dense width-0 runs, small,
    or wide up to 2^61), freqs, positions (narrow or up to 2^62) and
    payloads."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_terms = draw(st.integers(1, 6))
    docs, freqs, pos = [], [], []
    for _ in range(n_terms):
        df = draw(st.sampled_from([1, 5, 127, 128, 129, 256, 300, 640]))
        gap_kind = draw(st.sampled_from(["dense", "small", "wide"]))
        if gap_kind == "dense":
            gaps = np.ones(df, np.int64)
        elif gap_kind == "small":
            gaps = rng.integers(1, 40, df)
        else:
            gaps = rng.integers(1, 2**61 // 700, df)
            gaps[rng.integers(0, df)] = 2**52  # an outlier for PFOR
        d = np.cumsum(gaps) - 1
        f = rng.integers(1, draw(st.sampled_from([2, 9, 300])), df)
        top = draw(st.sampled_from([1, 500, 2**62]))
        docs.append(d)
        freqs.append(f)
        pos.extend(np.sort(rng.integers(0, top, k)) for k in f)
    return docs, freqs, np.concatenate(pos)


def _encode(docs, freqs, pos, fmt, rng):
    d = np.concatenate(docs)
    f = np.concatenate(freqs)
    dfs = np.array([len(x) for x in docs])
    starts = np.cumsum(dfs) - dfs
    pay = rng.standard_normal(len(pos)).astype(np.float32)
    norms = rng.integers(0, 256, len(d)).astype(np.uint8)
    enc = codec.encode_segment_terms(
        d, f, norms, starts, starts + dfs, pos_stream=pos, postings_format=fmt,
        payloads=pay,
    )
    return enc, pay


@settings(max_examples=60, deadline=None)
@given(_segments(), st.sampled_from(["for", "pfor"]))
def test_decode_segment_terms_round_trip(seg, fmt):
    docs, freqs, pos = seg
    enc, pay = _encode(docs, freqs, pos, fmt, np.random.default_rng(0))
    post, (off, nb, ni, ld, lf), pbuf, (pos_off, pos_w, _) = enc.term_files()
    d, f, p, y = codec.decode_segment_terms(
        post, off, enc.dfs, nb, ni, ld, lf,
        positions=(pbuf, pos_off, pos_w), payloads=(pay, np.cumsum(enc.ttfs) - enc.ttfs),
    )
    assert np.array_equal(d, np.concatenate(docs))
    assert np.array_equal(f, np.concatenate(freqs))
    assert np.array_equal(p, pos)
    assert np.array_equal(y.view(np.uint32), pay.view(np.uint32))


@settings(max_examples=30, deadline=None)
@given(_segments(), _segments())
def test_decode_mixes_for_and_pfor_regions_in_one_call(a, b):
    """FOR regions of one segment and PFOR regions of another, in one
    buffer and in reversed region order: one call decodes both."""
    rng = np.random.default_rng(1)
    ea, _ = _encode(*a, "for", rng)
    eb, _ = _encode(*b, "pfor", rng)
    pa_, ma, _, _ = ea.term_files()
    pb_, mb, _, _ = eb.term_files()
    buf = np.concatenate([pa_, pb_])
    meta = [np.concatenate([x, y]) for x, y in zip(ma, mb)]
    meta[0][len(ma[0]):] += len(pa_)
    dfs = np.concatenate([ea.dfs, eb.dfs])
    rev = np.arange(len(dfs))[::-1]
    d, f, _, _ = codec.decode_segment_terms(buf, *(m[rev] for m in [meta[0]]),
                                            dfs[rev], *(m[rev] for m in meta[1:]))
    terms = list(a[0]) + list(b[0])
    tfreqs = list(a[1]) + list(b[1])
    assert np.array_equal(d, np.concatenate([terms[i] for i in rev]))
    assert np.array_equal(f, np.concatenate([tfreqs[i] for i in rev]))


def test_block_impacts_match_per_block_frontier():
    rng = np.random.default_rng(5)
    n = 128 * 40 + 17
    freqs = rng.integers(1, 30, n)
    norms = rng.integers(0, 256, n).astype(np.uint8)
    enc = codec.encode_segment_terms(np.arange(n), freqs, norms, [0, 2000], [2000, n])
    off = 0
    for s, e in ((0, 2000), (2000, n)):
        for b in range(s, e, 128):
            c = min(b + 128, e)
            kf, kn = codec.compute_impacts(freqs[b:c].astype(np.int32), norms[b:c])
            k = len(kf)
            assert np.array_equal(enc.imp_freqs[off : off + k], kf)
            assert np.array_equal(enc.imp_norms[off : off + k], kn)
            off += k
    assert off == len(enc.imp_freqs) == enc.imp_counts.sum()


# ---------------------------------------------------------------------------
# per-term reference path
# ---------------------------------------------------------------------------


def _ref_region(docs, freqs, norms, fmt) -> tuple[bytes, int, int, int, int]:
    """One term's postings.bin region, encoded on its own."""
    if fmt == "for":
        ep = codec.encode_postings(docs, freqs, norms)
        region, nb, ni = _region_blobs(ep)
        return region, nb, ni, len(ep.docs_blob), len(ep.freqs_blob)
    enc = codec.encode_segment_terms(docs, freqs, norms, [0], [len(docs)],
                                     postings_format=fmt)
    imps = [codec.compute_impacts(freqs[b : b + 128].astype(np.int32), norms[b : b + 128])
            for b in range(0, len(docs), 128)]
    parts = [
        bytes([enc.fmt_id]), enc.last_docs.astype("<i8").tobytes(),
        enc.dwidths.astype(np.uint8).tobytes(), enc.fwidths.astype(np.uint8).tobytes(),
        np.array([len(k) for k, _ in imps], np.uint8).tobytes(),
        np.concatenate([k for k, _ in imps]).astype("<i4").tobytes(),
        np.concatenate([n for _, n in imps]).tobytes(),
        *(x.tobytes() for x in (enc.dexc[0], enc.fexc[0], enc.dexc[1], enc.dexc[2],
                                enc.fexc[1], enc.fexc[2])),
        enc.docs_packed.tobytes(), enc.freqs_packed.tobytes(),
    ]
    return (b"".join(parts), len(enc.dwidths), len(enc.imp_norms),
            len(enc.docs_packed), len(enc.freqs_packed))


def _reference_files(views, bases, terms, norms, norms_base, fmt, remap=None,
                     drop_empty=False) -> dict[str, bytes]:
    """Rewrite ``terms`` from ``views`` one term x fragment at a time:
    TermPostings.decode, rebase by ``bases``, optional ``remap`` (-1 =
    dropped), then per-term encode. Returns {file name: bytes}."""
    has_pos = views[0].has_positions
    has_pay = views[0].has_payloads
    post, posb, pays = [], [], []
    kept, meta, pmeta, dfs, ttfs = [], [], [], [], []
    for term in terms:
        d_, f_, p_, y_ = [], [], [], []
        for v, base in zip(views, bases):
            i = v.lookup(str(term))
            if i < 0:
                continue
            d, f = v.postings_by_ord(i).decode()
            p = v.positions_by_ord(i, f) if has_pos else None
            y = v.payloads_by_ord(i) if has_pay else None
            d = d + base
            if remap is not None:
                d = remap[d]
                m = d >= 0
                tm = np.repeat(m, f)
                d, f = d[m], f[m]
                p = p[tm] if has_pos else None
                y = y[tm] if has_pay else None
            d_.append(d), f_.append(f), p_.append(p), y_.append(y)
        d, f = np.concatenate(d_), np.concatenate(f_).astype(np.int64)
        if drop_empty and len(d) == 0:
            continue
        region, nb, ni, ld, lf = _ref_region(d, f, norms[d - norms_base], fmt)
        meta.append((sum(len(r) for r in post), nb, ni, ld, lf))
        post.append(region)
        kept.append(term)
        dfs.append(len(d))
        ttfs.append(int(f.sum()))
        if has_pos:
            blob, w = codec.encode_positions(np.concatenate(p_), f)
            pmeta.append((sum(len(b) for b in posb), w, len(blob)))
            posb.append(blob)
        if has_pay:
            pays.append(np.concatenate(y_))
    cols = [np.array(c) for c in zip(*meta)] if meta else [np.zeros(0, np.int64)] * 5
    pos_meta = ([np.array(c) for c in zip(*pmeta)] if pmeta else [np.zeros(0, np.int64)] * 3) \
        if has_pos else None
    pay_off = np.cumsum(ttfs) - np.array(ttfs, np.int64) if has_pay else None
    sink = pa.BufferOutputStream()
    pq.write_table(encode_term_table(np.array(kept, dtype=object), dfs, ttfs, cols,
                                     pos_meta=pos_meta, pay_off=pay_off),
                   sink, row_group_size=65536)
    out = {POSTINGS_FILE: b"".join(post), TERMS_FILE: sink.getvalue().to_pybytes()}
    if has_pos:
        out[POSITIONS_FILE] = b"".join(posb)
    if has_pay:
        out[PAYLOADS_FILE] = np.concatenate(pays).astype("<f4").tobytes() if pays else b""
    return out


def _assert_same_files(out_dir, want: dict[str, bytes]):
    for name, data in want.items():
        with open(os.path.join(out_dir, name), "rb") as f:
            assert f.read() == data, f"{name} differs in {out_dir}"


FORMATS = [
    ("for", {}),
    ("pfor", {"postings_format": "pfor"}),
    ("payload", {"analyzer": "whitespace", "payload_delimiter": "|"}),
]


def _corpus(tmp_path, kind, n=520, seed=3):
    pages = generate_pages(n, vocab_size=90, mean_tokens=24, seed=seed, dup_url_frac=0)
    if kind == "payload":
        rng = np.random.default_rng(seed)
        texts = [
            " ".join(f"{w}|{rng.integers(0, 9) / 4}" if rng.random() < 0.5 else w
                     for w in t.split())
            for t in pages["text"].to_pylist()
        ]
        pages = pages.set_column(pages.schema.get_field_index("text"), "text",
                                 pa.array(texts, pa.string()))
    path = str(tmp_path / f"pages_{kind}_{seed}.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=130)
    return path


def _index(tmp_path, kind, cfg_kw, name="idx"):
    idx = str(tmp_path / f"{name}_{kind}")
    build_index_local([_corpus(tmp_path, kind)], idx,
                      BuildConfig(target_docs_per_segment=130, **cfg_kw))
    return idx


@pytest.mark.parametrize("kind,cfg_kw", FORMATS, ids=[k for k, _ in FORMATS])
def test_merge_files_match_per_term_reference(tmp_path, kind, cfg_kw):
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index_local

    idx = _index(tmp_path, kind, cfg_kw)
    merge_index_local(idx, MergeConfig(n_shards=3, hot_df_threshold=200, hot_buckets=2))
    readers = [SegmentReader(d) for d in IndexManifest.load(idx).segment_dirs()]
    norms = np.concatenate([r.norms for r in readers])
    merged = os.path.join(idx, "merged")
    shards = json.load(open(os.path.join(merged, "merged.json")))["shards"]
    assert len(shards) > 3  # range/hash shards plus salted hot buckets
    for sh in shards:
        d = os.path.join(merged, sh["shard_name"])
        terms = pq.read_table(os.path.join(d, TERMS_FILE))["term"].to_pylist()
        # a salted bucket holds one hot term's postings from ITS segments
        frags = [r for r in readers
                 if any(r.lookup(t) >= 0 for t in terms)] if sh["shard_id"] < 3 else None
        views = frags if frags is not None else _bucket_readers(readers, sh["shard_id"], 3, 2)
        want = _reference_files(views, [r.doc_base for r in views], terms, norms, 0,
                                cfg_kw.get("postings_format", "for"))
        _assert_same_files(d, want)


def _bucket_readers(readers, shard_id, n_shards, hot_buckets):
    bucket = (shard_id - n_shards) % hot_buckets
    return [r for o, r in enumerate(readers) if o * hot_buckets // len(readers) == bucket]


@pytest.mark.parametrize("kind,cfg_kw", FORMATS, ids=[k for k, _ in FORMATS])
def test_compaction_and_reclaim_files_match_per_term_reference(tmp_path, kind, cfg_kw):
    from lucene_7_x_9_x_ray.stages.compact import (
        CompactionPolicy,
        compact_index,
        reclaim_deletes,
    )
    from lucene_7_x_9_x_ray.state.livedocs import delete_docs

    fmt = cfg_kw.get("postings_format", "for")
    idx = _index(tmp_path, kind, cfg_kw)
    before = [SegmentReader(d) for d in IndexManifest.load(idx).segment_dirs()]
    m = compact_index(idx, CompactionPolicy(max_merge_at_once=3, max_merged_docs=10**6),
                      use_ray=False)
    assert len(m.segments) == 2  # 4 segments -> groups of 3 and 1
    seg = m.segments[0]
    views = before[:3]
    base = views[0].doc_base
    norms = np.concatenate([v.norms for v in views])
    terms = np.unique(np.concatenate([v.terms for v in views]))
    out = os.path.join(idx, "segments", seg["seg_name"])
    want = _reference_files(views, [v.doc_base - base for v in views], terms, norms, 0, fmt)
    want[NORMS_FILE] = norms.tobytes()
    _assert_same_files(out, want)

    # reclaim: drop every doc of some terms, so df=0 terms disappear
    rng = np.random.default_rng(9)
    dead = np.sort(rng.choice(m.doc_count, size=m.doc_count // 3, replace=False))
    delete_docs(idx, dead)
    pre = [SegmentReader(d) for d in IndexManifest.load(idx).segment_dirs()]
    m2 = reclaim_deletes(idx, force=True, use_ray=False)
    for r, s2 in zip(pre, m2.segments):
        local = dead[(dead >= r.doc_base) & (dead < r.doc_base + r.doc_count)] - r.doc_base
        keep = np.setdiff1d(np.arange(r.doc_count), local)
        remap = np.full(r.doc_count, -1, np.int64)
        remap[keep] = np.arange(len(keep))
        norms_new = r.norms[keep]
        want = _reference_files([r], [0], r.terms, norms_new, 0, fmt, remap=remap,
                                drop_empty=True)
        want[NORMS_FILE] = norms_new.tobytes()
        _assert_same_files(os.path.join(idx, "segments", s2["seg_name"]), want)
    assert sum(s["unique_terms"] for s in m2.segments) < sum(len(r.terms) for r in pre) + 1


def test_field_merge_impacts_use_the_fields_norms(ray_session, tmp_path):
    """The pull merge of an extra field re-encodes its impacts with THAT
    field's norms (f_<name>.norms.bin), not the primary field's."""
    from lucene_7_x_9_x_ray.stages.build import FieldSpec
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index

    idx = str(tmp_path / "idx")
    build_index_local([_corpus(tmp_path, "for")], idx, BuildConfig(
        target_docs_per_segment=130, extra_fields=(FieldSpec("title", "title"),)))
    merge_index(idx, MergeConfig(n_shards=3))
    views = [SegmentReader(d).field_view("title")
             for d in IndexManifest.load(idx).segment_dirs()]
    norms = np.concatenate([v.norms for v in views])
    meta = json.load(open(os.path.join(idx, "merged", "merged.json")))["fields"]["title"]
    for sh in meta["shards"]:
        d = os.path.join(idx, "merged", "f_title", sh["shard_name"])
        terms = pq.read_table(os.path.join(d, TERMS_FILE))["term"].to_pylist()
        _assert_same_files(d, _reference_files(views, [v.doc_base for v in views], terms,
                                               norms, 0, "for"))
