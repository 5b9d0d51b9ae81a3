"""PFOR postings format + codec SPI (s84 codecs/lucene84/PForUtil.java:33,
codecs/Codec.java:43 forName).

- Plan invariants: <= 7 exceptions per block, high byte fits uint8, packed
  bytes never larger than plain FOR under the format's own cost model.
- Round-trip duels: full decode, arbitrary block-subset decode and
  parse_region all reproduce the plain-FOR stream bit-for-bit.
- End-to-end: an index built with postings_format="pfor" returns identical
  top-k (ids AND float32 scores) to the same corpus built with "for";
  compaction re-encodes at the manifest's format and still duels clean.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_7_x_9_x_ray.functions import codec
from lucene_7_x_9_x_ray.functions.codec import (
    PForPostingsFormat,
    encode_segment_terms,
    format_by_id,
    get_postings_format,
)
from lucene_7_x_9_x_ray.state.segment import parse_region


def _skewed_postings(rng, df, outlier_frac=0.05):
    deltas = rng.integers(1, 7, size=df).astype(np.int64)
    hot = rng.random(df) < outlier_frac
    deltas[hot] += rng.integers(64, 4000, size=int(hot.sum()))
    docs = np.cumsum(deltas) - 1
    freqs = rng.integers(1, 4, size=df).astype(np.int64)
    freqs[rng.random(df) < 0.03] = int(rng.integers(200, 1000))
    norms = rng.integers(1, 255, size=df).astype(np.uint8)
    return docs, freqs, norms


def _encode_corpus(term_dfs, seed=0, outlier_frac=0.05, fmt="pfor"):
    rng = np.random.default_rng(seed)
    starts, ends, d_all, f_all, n_all = [], [], [], [], []
    pos = 0
    for df in term_dfs:
        d, f, n = _skewed_postings(rng, df, outlier_frac)
        d_all.append(d)
        f_all.append(f)
        n_all.append(n)
        starts.append(pos)
        pos += df
        ends.append(pos)
    docs = np.concatenate(d_all)
    freqs = np.concatenate(f_all)
    norms = np.concatenate(n_all)
    ts, te = np.array(starts), np.array(ends)
    enc = encode_segment_terms(docs, freqs, norms, ts, te, postings_format=fmt)
    return enc, docs, freqs, ts, te


def test_spi_registry():
    assert get_postings_format("for").fmt_id == 0
    assert get_postings_format("pfor").fmt_id == 1
    assert format_by_id(1).name == "pfor"
    with pytest.raises(ValueError, match="unknown postings format"):
        get_postings_format("nope")
    with pytest.raises(ValueError, match="unknown postings format id"):
        format_by_id(77)


def test_plan_invariants_and_size_win():
    rng = np.random.default_rng(7)
    df = 4096
    docs, freqs, norms = _skewed_postings(rng, df, outlier_frac=0.04)
    ts, te = np.array([0]), np.array([df])
    enc_f = encode_segment_terms(docs, freqs, norms, ts, te, postings_format="for")
    enc_p = encode_segment_terms(docs, freqs, norms, ts, te, postings_format="pfor")
    # <= 7 exceptions per block, high bits fit one byte
    assert int(enc_p.dexc[0].max()) <= PForPostingsFormat.MAX_EXCEPTIONS
    assert enc_p.dexc[2].dtype == np.uint8 and enc_p.fexc[2].dtype == np.uint8
    # patched widths never exceed the plain-FOR width per block
    assert np.all(enc_p.dwidths <= enc_f.dwidths)
    # cost model honored: packed + 2B/exception <= plain FOR packed
    cost_p = len(enc_p.docs_packed) + 2 * int(enc_p.dexc[0].astype(np.int64).sum())
    assert cost_p <= len(enc_f.docs_packed)
    # and on this outlier-heavy stream it's a real win
    assert len(enc_p.docs_packed) < 0.8 * len(enc_f.docs_packed)


@st.composite
def _block_subset(draw):
    """(format, df, seed, sorted blocks): the first block, the tail block,
    a contiguous run or scattered blocks of one posting list."""
    fmt = draw(st.sampled_from(["for", "pfor"]))
    df = draw(st.sampled_from([1, 100, 128, 129, 777, 3000]) | st.integers(1, 3000))
    nb = -(-df // 128)
    kind = draw(st.sampled_from(["first", "tail", "run", "scattered"]))
    if kind == "first":
        sel = [0]
    elif kind == "tail":
        sel = [nb - 1]
    elif kind == "run":
        lo = draw(st.integers(0, nb - 1))
        sel = list(range(lo, draw(st.integers(lo, nb - 1)) + 1))
    else:
        sel = sorted(draw(st.sets(st.integers(0, nb - 1), min_size=1)))
    return fmt, df, draw(st.integers(0, 2**16)), np.array(sel, dtype=np.int64)


@given(_block_subset())
@settings(max_examples=80, deadline=None)
def test_region_roundtrip_and_subset_decode(case):
    fmt, df, seed, sel = case
    # the list under test is the corpus' second term: its region starts
    # after another term's
    enc, docs, freqs, ts, te = _encode_corpus([300, df], seed=seed, fmt=fmt)
    for ti in range(len(ts)):
        region, nb, ni, ld, lf = enc.term_region(ti)
        assert region[0] == get_postings_format(fmt).fmt_id  # fmt_id byte leads
        tp = parse_region(region, int(te[ti] - ts[ti]), nb, ni, ld, lf)
        d, f = tp.decode()
        assert d.dtype == np.int64 and f.dtype == np.int32
        assert np.array_equal(d, docs[ts[ti] : te[ti]])
        assert np.array_equal(f, freqs[ts[ti] : te[ti]])
    # the drawn blocks in one pass each (the MaxScore candidate-lookup and
    # impact-skipping path) == slices of the whole-list decode
    dsub = codec.decode_blocks(tp.docs_blob, tp.doc_widths, df, sel, tp.dexc, tp.last_docs)
    fsub = codec.decode_blocks(tp.freqs_blob, tp.freq_widths, df, sel, tp.fexc)
    want_d = np.concatenate([d[b * 128 : (b + 1) * 128] for b in sel])
    want_f = np.concatenate([f[b * 128 : (b + 1) * 128] for b in sel])
    assert dsub.dtype == d.dtype and fsub.dtype == f.dtype
    assert np.array_equal(dsub, want_d)
    assert np.array_equal(fsub, want_f)
    # single-block decode (TermPostings.decode_block path)
    bi = int(sel[len(sel) // 2])
    bd, bf = tp.decode_block(bi)
    assert np.array_equal(bd, d[bi * 128 : (bi + 1) * 128])
    assert np.array_equal(bf, f[bi * 128 : (bi + 1) * 128])


def test_mixed_format_append_serves_and_merges(tmp_path, ray_session):
    """Regions self-describe via the fmt_id byte: an NRT append with a
    DIFFERENT postings format than the base index yields a mixed-format
    segment set that must search identically to a from-scratch build of
    the union, and a subsequent merge re-encodes everything at the
    manifest's writer-default format."""
    import pyarrow.parquet as pq

    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, append_index, build_index_local
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index_local

    t = generate_pages(800, seed=23, vocab_size=400, mean_tokens=50)
    p_all = str(tmp_path / "all.parquet")
    p1, p2 = str(tmp_path / "p1.parquet"), str(tmp_path / "p2.parquet")
    write_pages_parquet(t, p_all, rows_per_row_group=100)
    write_pages_parquet(t.slice(0, 400), p1, rows_per_row_group=100)
    write_pages_parquet(t.slice(400), p2, rows_per_row_group=100)

    union = str(tmp_path / "idx_union")
    build_index_local([p_all], union, BuildConfig(target_docs_per_segment=200))

    mixed = str(tmp_path / "idx_mixed")
    build_index_local([p1], mixed, BuildConfig(target_docs_per_segment=200))
    append_index(
        [p2], mixed,
        BuildConfig(target_docs_per_segment=200, postings_format="pfor"),
    )
    _duel({"for": union, "pfor": mixed}, n_queries=12)

    merge_index_local(mixed, MergeConfig(n_shards=2, hot_df_threshold=10**9))
    _duel({"for": union, "pfor": mixed}, n_queries=12)


def test_manifest_refuses_older_format_version(duel_indexes, tmp_path):
    """A pre-fmt_id index (FORMAT_VERSION 1) must fail loudly at manifest
    load with a rebuild message, not misparse region bytes downstream."""
    import json
    import shutil

    from lucene_7_x_9_x_ray.state.manifest import MANIFEST_NAME, IndexManifest

    idx = str(tmp_path / "old_idx")
    shutil.copytree(duel_indexes["for"], idx)
    mpath = f"{idx}/{MANIFEST_NAME}"
    d = json.load(open(mpath))
    d["format_version"] = 1
    json.dump(d, open(mpath, "w"))
    with pytest.raises(ValueError, match="on-disk format version 1"):
        IndexManifest.load(idx)


def test_parse_region_rejects_unknown_format():
    enc_p, docs, freqs, ts, te = _encode_corpus([64], seed=9)
    region, nb, ni, ld, lf = enc_p.term_region(0)
    bad = b"\x63" + bytes(region[1:])
    with pytest.raises(ValueError, match="unknown postings format id"):
        parse_region(bad, int(te[0] - ts[0]), nb, ni, ld, lf)


@settings(max_examples=40, deadline=None)
@given(
    df=st.integers(min_value=1, max_value=700),
    seed=st.integers(min_value=0, max_value=2**20),
    outlier=st.sampled_from([0.0, 0.02, 0.2, 0.9]),
)
def test_pfor_fuzz_matches_for(df, seed, outlier):
    rng = np.random.default_rng(seed)
    docs, freqs, norms = _skewed_postings(rng, df, outlier)
    ts, te = np.array([0]), np.array([df])
    for fmt in ("for", "pfor"):
        enc = encode_segment_terms(docs, freqs, norms, ts, te, postings_format=fmt)
        region, nb, ni, ld, lf = enc.term_region(0)
        tp = parse_region(region, df, nb, ni, ld, lf)
        d, f = tp.decode()
        assert np.array_equal(d, docs), fmt
        assert np.array_equal(f, freqs), fmt


@pytest.fixture(scope="module")
def duel_indexes(tmp_path_factory):
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index_local

    tmp = tmp_path_factory.mktemp("pfor_duel")
    t = generate_pages(1200, seed=11, vocab_size=500, mean_tokens=60)
    p = str(tmp / "pages.parquet")
    write_pages_parquet(t, p, rows_per_row_group=200)
    paths = {}
    for fmt in ("for", "pfor"):
        idx = str(tmp / f"idx_{fmt}")
        build_index_local(
            [p], idx,
            BuildConfig(target_docs_per_segment=400, postings_format=fmt),
        )
        paths[fmt] = idx
    return paths


def _duel(paths, n_queries=30):
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher

    s_for = IndexSearcher(paths["for"])
    s_pfor = IndexSearcher(paths["pfor"])
    terms = s_for.term_dict_union()
    rng = np.random.default_rng(5)
    picks = rng.choice(len(terms), size=min(n_queries, len(terms)), replace=False)
    for i in picks:
        term = str(terms[i])
        for q in (term, f"{term} the", f"+{term} the"):
            a = s_for.search(q, k=10)
            b = s_pfor.search(q, k=10)
            assert a.to_lists() == b.to_lists(), q
            assert a.total_hits == b.total_hits, q


def test_pfor_index_duels_for_index(duel_indexes):
    assert (
        __import__("lucene_7_x_9_x_ray.state.manifest", fromlist=["IndexManifest"])
        .IndexManifest.load(duel_indexes["pfor"]).postings_format
        == "pfor"
    )
    _duel(duel_indexes)


def test_pfor_survives_shard_merge(duel_indexes, tmp_path):
    """The big-shuffle merge parses pfor regions from shuffled fragments
    (fmt_id dispatch in parse_region) and re-encodes shards at the
    manifest's format; the merged index must still duel plain FOR."""
    import shutil

    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index_local

    idx = str(tmp_path / "idx_pfor_m")
    shutil.copytree(duel_indexes["pfor"], idx)
    merge_index_local(idx, MergeConfig(n_shards=2, hot_df_threshold=10**9))
    _duel({"for": duel_indexes["for"], "pfor": idx}, n_queries=15)


def test_pfor_compaction_reencodes_at_manifest_format(duel_indexes, tmp_path):
    import shutil

    from lucene_7_x_9_x_ray.stages.compact import CompactionPolicy, compact_index
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest

    idx = str(tmp_path / "idx_pfor_c")
    shutil.copytree(duel_indexes["pfor"], idx)
    m = compact_index(idx, CompactionPolicy(max_merge_at_once=4))
    assert len(m.segments) < len(IndexManifest.load(duel_indexes["pfor"]).segments)
    _duel({"for": duel_indexes["for"], "pfor": idx}, n_queries=15)
