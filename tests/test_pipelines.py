"""Pipelines + oracle-parity tests (the driver-gate invariants).

Covers the claims oracles.py relies on (SQL tokenizer equivalence, DuckDB
FLOAT == numpy float32 BM25), the training-data ops on corpora with
planted near-duplicates, ANN brute/IVF equality, and the actor-pool
serving stage vs the driver-side searcher.
"""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_7_x_9_x_ray.functions.analysis import get_analyzer
from lucene_7_x_9_x_ray.functions.bm25 import BM25
from lucene_7_x_9_x_ray.functions.hashing import md5_lower64, md5_upper64
from lucene_7_x_9_x_ray.functions.rounding import round_half_away

SF = "/root/testdata/sf0.001"


def test_sql_tokenizer_equivalence():
    """On the driver corpus, UAX#29 analyze == string_split(text, ' ')."""
    texts = pq.read_table(f"{SF}/documents.parquet", columns=["text"])["text"].to_pylist()
    an = get_analyzer("standard")
    for t in texts[:100]:
        assert an.tokens(t) == t.split(" ")


def test_md5_number_compat():
    con = duckdb.connect()
    for s in ("", "abc", "key hash value", "the 123"):
        lo, hi = con.execute(
            "select md5_number_lower(?), md5_number_upper(?)", [s, s]
        ).fetchone()
        assert md5_lower64(s) == lo
        assert md5_upper64(s) == hi


def test_bm25_sql_float32_identity():
    """DuckDB FLOAT arithmetic reproduces the numpy float32 BM25 kernel
    bit-for-bit across a parameter sweep (the oracles.py contract)."""
    from lucene_7_x_9_x_ray.functions.smallfloat import BYTE4_DECODE_TABLE

    con = duckdb.connect()
    bm25 = BM25()
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(200):
        n_docs = int(rng.integers(10, 10_000_000))
        df = int(rng.integers(1, n_docs + 1))
        sttf = int(n_docs * rng.integers(5, 500))
        freq = int(rng.integers(1, 50))
        nbyte = int(rng.integers(0, 256))
        rows.append((n_docs, df, sttf, freq, int(BYTE4_DECODE_TABLE[nbyte]), nbyte))
    sql = """
    SELECT w - w / (CAST(1.0 AS FLOAT) + CAST(freq AS FLOAT)
           * (CAST(1.0 AS FLOAT) / (CAST(1.2 AS FLOAT) * ((CAST(1.0 AS FLOAT) - CAST(0.75 AS FLOAT))
              + (CAST(0.75 AS FLOAT) * CAST(nlen AS FLOAT)) / avgdl))))
    FROM (SELECT CAST(ln(1 + (n_docs - df + 0.5) / (df + 0.5)) AS FLOAT) AS w,
                 CAST(CAST(sttf AS DOUBLE) / n_docs AS FLOAT) AS avgdl,
                 freq, nlen
          FROM (SELECT ? AS n_docs, ? AS df, ? AS sttf, ? AS freq, ? AS nlen))
    """
    for n_docs, df, sttf, freq, nlen, nbyte in rows:
        got_sql = con.execute(sql, [n_docs, df, sttf, freq, nlen]).fetchone()[0]
        tw = bm25.term_weight(df, n_docs, sttf)
        got_np = float(tw.score(np.array([freq]), np.array([nbyte]))[0])
        assert got_sql == pytest.approx(got_np, abs=0.0), (
            n_docs, df, sttf, freq, nlen, got_sql, got_np,
        )


def test_similarity_registry_sql_float32_identity():
    """The 7.x BM25 ((k1+1) numerator, s75 BM25Similarity.java:257-294) and
    ClassicSimilarity (TFIDF, s84 TFIDFSimilarity.java:538-560) kernels
    match DuckDB FLOAT arithmetic bit-for-bit — the similarity_topk oracle
    contract."""
    from lucene_7_x_9_x_ray.functions.bm25 import get_similarity
    from lucene_7_x_9_x_ray.functions.smallfloat import BYTE4_DECODE_TABLE

    con = duckdb.connect()
    legacy = get_similarity("bm25legacy")
    classic = get_similarity("classic")
    rng = np.random.default_rng(11)
    legacy_sql = """
    SELECT (CAST(w * (CAST(1.2 AS FLOAT) + CAST(1.0 AS FLOAT)) AS FLOAT) * CAST(freq AS FLOAT))
           / (CAST(freq AS FLOAT)
              + CAST(1.2 AS FLOAT) * ((CAST(1.0 AS FLOAT) - CAST(0.75 AS FLOAT))
                 + (CAST(0.75 AS FLOAT) * CAST(nlen AS FLOAT)) / avgdl))
    FROM (SELECT CAST(ln(1 + (n_docs - df + 0.5) / (df + 0.5)) AS FLOAT) AS w,
                 CAST(CAST(sttf AS DOUBLE) / n_docs AS FLOAT) AS avgdl, freq, nlen
          FROM (SELECT ? AS n_docs, ? AS df, ? AS sttf, ? AS freq, ? AS nlen))
    """
    classic_sql = """
    SELECT (CAST(sqrt(CAST(freq AS DOUBLE)) AS FLOAT) * w)
           * CAST(1.0 / sqrt(CAST(nlen AS DOUBLE)) AS FLOAT)
    FROM (SELECT CAST(ln((n_docs + 1) / CAST(df + 1 AS DOUBLE)) + 1.0 AS FLOAT) AS w,
                 freq, nlen
          FROM (SELECT ? AS n_docs, ? AS df, ? AS freq, ? AS nlen))
    """
    for _ in range(200):
        n_docs = int(rng.integers(10, 10_000_000))
        df = int(rng.integers(1, n_docs + 1))
        sttf = int(n_docs * rng.integers(5, 500))
        freq = int(rng.integers(1, 50))
        nbyte = int(rng.integers(1, 256))  # byte 0 = length 0: classic pins it
        nlen = int(BYTE4_DECODE_TABLE[nbyte])

        got_sql = con.execute(legacy_sql, [n_docs, df, sttf, freq, nlen]).fetchone()[0]
        tw = legacy.term_weight(df, n_docs, sttf)
        got_np = float(tw.score(np.array([freq]), np.array([nbyte]))[0])
        assert got_sql == pytest.approx(got_np, abs=0.0), ("legacy", n_docs, df, freq, nlen)

        got_sql = con.execute(classic_sql, [n_docs, df, freq, nlen]).fetchone()[0]
        tw = classic.term_weight(df, n_docs, sttf)
        got_np = float(tw.score(np.array([freq]), np.array([nbyte]))[0])
        assert got_sql == pytest.approx(got_np, abs=0.0), ("classic", n_docs, df, freq, nlen)


def test_lmjm_boolean_sql_float32_identity():
    """LM Jelinek-Mercer (LMJelinekMercerSimilarity.java:70-75) and
    BooleanSimilarity kernels match DuckDB FLOAT arithmetic bit-for-bit —
    the lmjm/bool similarity_topk oracle contract."""
    from lucene_7_x_9_x_ray.functions.bm25 import get_similarity

    con = duckdb.connect()
    from lucene_7_x_9_x_ray.functions.smallfloat import BYTE4_DECODE_TABLE

    lmjm = get_similarity("lmjelinekmercer(lambda=0.7)")
    boolean = get_similarity("boolean")
    rng = np.random.default_rng(13)
    lmjm_sql = """
    SELECT CAST(greatest(ln(1.0 + ((1.0 - CAST(CAST(0.7 AS FLOAT) AS DOUBLE))
                                   * CAST(freq AS DOUBLE) / CAST(nlen AS DOUBLE))
                                  / (CAST(CAST(0.7 AS FLOAT) AS DOUBLE)
                                     * ((ttf + 1.0) / (sttf + 1.0)))),
                         0.0) AS FLOAT)
    FROM (SELECT ? AS ttf, ? AS sttf, ? AS freq, ? AS nlen)
    """
    for _ in range(200):
        n_docs = int(rng.integers(10, 10_000_000))
        df = int(rng.integers(1, n_docs + 1))
        sttf = int(n_docs * rng.integers(5, 500))
        ttf = int(rng.integers(df, df * 40))
        freq = int(rng.integers(1, 50))
        nbyte = int(rng.integers(1, 256))
        nlen = int(BYTE4_DECODE_TABLE[nbyte])

        got_sql = con.execute(lmjm_sql, [ttf, sttf, freq, nlen]).fetchone()[0]
        tw = lmjm.term_weight(df, n_docs, sttf, ttf=ttf)
        got_np = float(tw.score(np.array([freq]), np.array([nbyte]))[0])
        assert got_sql == pytest.approx(got_np, abs=0.0), ("lmjm", ttf, sttf, freq, nlen)

        tw = boolean.term_weight(df, n_docs, sttf, boost=2.5)
        assert float(tw.score(np.array([freq]), np.array([nbyte]))[0]) == np.float32(2.5)
        assert tw.max_score(np.array([freq]), np.array([nbyte])) == np.float32(2.5)

    with pytest.raises(ValueError):
        get_similarity("lmjelinekmercer(lambda=0)")
    with pytest.raises(ValueError):
        get_similarity("lmjelinekmercer(mu=2)")


def test_axiomatic_sql_float32_identity():
    """Axiomatic F1EXP / F2EXP / F3LOG kernels (Axiomatic.java:103-112 +
    subclass components) match DuckDB FLOAT arithmetic bit-for-bit — the
    axf1/axf2/axf3 similarity_topk oracle contract."""
    from lucene_7_x_9_x_ray.functions.bm25 import get_similarity
    from lucene_7_x_9_x_ray.functions.smallfloat import BYTE4_DECODE_TABLE

    con = duckdb.connect()
    f1 = get_similarity("axiomaticf1exp")
    f2 = get_similarity("axiomaticf2exp")
    f3 = get_similarity("axiomaticf3log(queryLen=2)")
    rng = np.random.default_rng(29)
    f1_sql = """
    SELECT CAST((1.0 + ln(1.0 + ln(CAST(freq AS DOUBLE) + 1.0)))
                * ((avgfl + 0.25) / (avgfl + CAST(nlen AS DOUBLE) * 0.25))
                * pow((n_docs + 1.0) / df,
                      CAST(CAST(0.35 AS FLOAT) AS DOUBLE)) AS FLOAT)
    FROM (SELECT ? AS n_docs, ? AS df, ? AS freq, ? AS nlen,
                 CAST(? AS DOUBLE) / ? AS avgfl)
    """
    f2_sql = """
    SELECT CAST((CAST(freq AS DOUBLE)
                 / (CAST(freq AS DOUBLE) + 0.25
                    + 0.25 * CAST(nlen AS DOUBLE) / avgfl))
                * pow((n_docs + 1.0) / df,
                      CAST(CAST(0.35 AS FLOAT) AS DOUBLE)) AS FLOAT)
    FROM (SELECT ? AS n_docs, ? AS df, ? AS freq, ? AS nlen,
                 CAST(? AS DOUBLE) / ? AS avgfl)
    """
    f3_sql = """
    SELECT CAST(greatest((1.0 + ln(1.0 + ln(CAST(freq AS DOUBLE) + 1.0)))
                         * ln((n_docs + 1.0) / df)
                         - (CAST(nlen AS DOUBLE) - 2.0) * 0.25 * 2.0 / avgfl,
                         0.0) AS FLOAT)
    FROM (SELECT ? AS n_docs, ? AS df, ? AS freq, ? AS nlen,
                 CAST(? AS DOUBLE) / ? AS avgfl)
    """
    for _ in range(200):
        n_docs = int(rng.integers(10, 10_000_000))
        df = int(rng.integers(1, n_docs + 1))
        sttf = int(n_docs * rng.integers(5, 500))
        freq = int(rng.integers(1, 50))
        nbyte = int(rng.integers(1, 256))
        nlen = int(BYTE4_DECODE_TABLE[nbyte])

        for sim, sql in ((f1, f1_sql), (f2, f2_sql), (f3, f3_sql)):
            got_sql = con.execute(sql, [n_docs, df, freq, nlen, sttf, n_docs]).fetchone()[0]
            tw = sim.term_weight(df, n_docs, sttf)
            got_np = float(tw.score(np.array([freq]), np.array([nbyte]))[0])
            assert got_sql == pytest.approx(got_np, abs=0.0), (
                sim.variant, n_docs, df, freq, nlen)

    with pytest.raises(ValueError):
        get_similarity("axiomaticf1exp(s=1.5)")
    with pytest.raises(ValueError):
        get_similarity("axiomaticf9exp")
    with pytest.raises(ValueError):
        get_similarity("axiomaticf2log(k=-0.1)")


def _planted_corpus() -> pa.Table:
    """12 docs: 0/1 near-dup pair, 2/3 exact dup pair, rest random-ish."""
    base = "the quick brown fox jumps over the lazy dog again and again today"
    texts = [
        base,
        base.replace("today", "tomorrow"),
        "alpha beta gamma delta epsilon zeta eta theta",
        "alpha beta gamma delta epsilon zeta eta theta",
    ]
    rng = np.random.default_rng(11)
    vocab = ["red", "green", "blue", "cyan", "teal", "plum", "gold", "jade"]
    for i in range(8):
        texts.append(" ".join(rng.choice(vocab, size=12)))
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("planted")
    pq.write_table(_planted_corpus(), os.path.join(d, "documents.parquet"))
    return str(d)


def test_jaccard_and_minhash_find_planted_dups(ray_session, planted_dir):
    from lucene_7_x_9_x_ray.pipelines import dedup

    jp = dedup.q_jaccard_pairs(planted_dir)
    pairs = set(zip(jp["doc_a"].to_pylist(), jp["doc_b"].to_pylist()))
    assert (0, 1) in pairs and (2, 3) in pairs

    mh = dedup.q_minhash_lsh_pairs(planted_dir)
    mh_pairs = set(zip(mh["doc_a"].to_pylist(), mh["doc_b"].to_pylist()))
    assert (0, 1) in mh_pairs and (2, 3) in mh_pairs
    # LSH candidates never report below-threshold jaccard
    assert all(j >= dedup.JACCARD_THRESHOLD for j in mh["jaccard_r"].to_pylist())


def test_minhash_cutover_paths_agree(ray_session, planted_dir, monkeypatch):
    """The driver-verify fast path (small corpus) and the distributed
    semi-join verify produce identical (doc_a, doc_b, jaccard_r) tables."""
    from lucene_7_x_9_x_ray.pipelines import dedup

    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_DOCS", "1000000")
    fast = dedup.q_minhash_lsh_pairs(planted_dir)
    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_DOCS", "0")
    dist = dedup.q_minhash_lsh_pairs(planted_dir)
    assert fast.equals(dist)
    assert fast.num_rows > 0


def test_minhash_pair_overflow_reroute(ray_session, planted_dir, monkeypatch):
    """Skew guard: a corpus under the doc cap whose MEASURED candidate count
    exceeds LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_PAIRS reroutes the
    already-materialized candidate table into the distributed semi-join
    verify — and produces the same pairs as the driver path."""
    from lucene_7_x_9_x_ray.pipelines import dedup

    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_DOCS", "1000000")
    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_PAIRS", "1000000")
    fast = dedup.q_minhash_lsh_pairs(planted_dir)
    # planted corpus yields >= 2 candidate pairs, so a cap of 1 overflows
    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_PAIRS", "1")
    rerouted = dedup.q_minhash_lsh_pairs(planted_dir)
    assert fast.equals(rerouted)
    assert fast.num_rows >= 2


def test_minhash_lsh_distributed_verify(ray_session, tmp_path, monkeypatch):
    """Dense-dup corpus (>=10% of docs are near-dup pair members): the whole
    MinHash+LSH path — banding, candidates, exact-Jaccard verify — runs as
    one lazy Dataset with driver-side materialization FORBIDDEN
    (Dataset.take_all / take / to_pandas monkeypatched to raise)."""
    import ray.data as rd

    from lucene_7_x_9_x_ray.pipelines import dedup

    # 40 docs, 10 planted near-dup pairs => 50% of docs in a dup pair.
    rng = np.random.default_rng(7)
    vocab = [f"w{i:03d}" for i in range(400)]
    texts, want = [], set()
    for p in range(10):
        words = list(rng.choice(vocab, size=30))
        a = " ".join(words)
        words[-1] = "zz" + words[-1]  # one-token perturbation
        b = " ".join(words)
        want.add((len(texts), len(texts) + 1))
        texts.extend([a, b])
    for _ in range(20):
        texts.append(" ".join(rng.choice(vocab, size=30)))
    d = tmp_path / "dense"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(d / "documents.parquet"),
    )

    def _forbidden(self, *a, **k):  # pragma: no cover - should never fire
        raise AssertionError("driver-side materialization on the LSH path")

    monkeypatch.setattr(rd.Dataset, "take_all", _forbidden)
    monkeypatch.setattr(rd.Dataset, "take", _forbidden)
    monkeypatch.setattr(rd.Dataset, "to_pandas", _forbidden)

    ds = dedup.minhash_lsh_pairs_dataset(str(d))
    got = set()
    for batch in ds.iter_batches(batch_format="pyarrow"):
        got.update(zip(batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist()))
    assert want <= got  # every planted near-dup pair verified


def test_minhash_small_corpus_path_runs_no_shuffle(ray_session, planted_dir, monkeypatch):
    """Corpora under the doc cap take one read + map_batches pass and
    bring only the band rows to the driver: groupby, repartition and union
    are forbidden while it runs, and its output equals the distributed
    path's."""
    import ray.data as rd

    from lucene_7_x_9_x_ray.pipelines import dedup

    def _forbidden(*a, **k):
        raise AssertionError("shuffle on the small-corpus MinHash path")

    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_DOCS", "1000000")
    for name in ("groupby", "repartition", "union"):
        monkeypatch.setattr(rd.Dataset, name, _forbidden)
    fast = dedup.q_minhash_lsh_pairs(planted_dir)
    monkeypatch.undo()
    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_DOCS", "0")
    dist = dedup.q_minhash_lsh_pairs(planted_dir)
    assert fast.num_rows > 0
    assert fast.equals(dist)


def test_minhash_hot_run_reroutes_before_expansion(ray_session, tmp_path, monkeypatch):
    """Skew guard on the pair bound: one hot LSH run (20 copies of one
    text, 190 pairs in each band) sits above a pair cap of 100, so the
    band rows go to the distributed stages; the driver neither expands a
    run nor verifies a pair, and the pairs equal the driver path's."""
    from lucene_7_x_9_x_ray.pipelines import dedup

    rng = np.random.default_rng(3)
    vocab = [f"w{i:03d}" for i in range(300)]
    hot = " ".join(rng.choice(vocab, size=40))
    texts = [hot] * 20
    for _ in range(4):
        words = list(rng.choice(vocab, size=40))
        texts.append(" ".join(words))
        words[0] = "zz" + words[0]
        texts.append(" ".join(words))
    texts += [" ".join(rng.choice(vocab, size=40)) for _ in range(16)]
    d = tmp_path / "hot"
    d.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                             "text": pa.array(texts, pa.string())}),
                   str(d / "documents.parquet"))

    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_DOCS", "1000000")
    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_PAIRS", "1000000")
    driver = dedup.q_minhash_lsh_pairs(str(d))
    assert driver.num_rows >= 190

    def _forbidden(*a, **k):
        raise AssertionError("driver-side pair expansion or verify over the pair cap")

    monkeypatch.setenv("LUCENE_RAY_MINHASH_DRIVER_VERIFY_MAX_PAIRS", "100")
    monkeypatch.setattr(dedup, "_expand_candidate_runs", _forbidden)
    monkeypatch.setattr(dedup, "_driver_verify_pairs", _forbidden)
    rerouted = dedup.q_minhash_lsh_pairs(str(d))
    assert rerouted.equals(driver)


_U64 = st.integers(0, 2**64 - 1)
_M61 = (1 << 61) - 1


@settings(max_examples=200, deadline=None)
@given(st.lists(_U64, max_size=40), st.lists(_U64, min_size=1, max_size=6),
       st.lists(_U64, min_size=1, max_size=6),
       st.lists(st.integers(_M61, _M61 + 7), max_size=8))
def test_mersenne_fold_matches_modulo(xs, a_vals, b_vals, near_m):
    """The folded (a*x + b) mod 2^61-1 equals numpy's % bit for bit, with
    the product and the sum wrapping at 2^64: x = 0 and 2^64-1, the
    shipped MinHash parameters, and y in [M, M+7]."""
    from lucene_7_x_9_x_ray.pipelines.dedup import _minhash_params, _mod_mersenne

    m = np.uint64(_M61)
    pa_, pb_ = _minhash_params()
    x = np.array(xs + [0, 2**64 - 1, _M61, _M61 + 1], dtype=np.uint64)
    a = np.concatenate([np.array(a_vals, dtype=np.uint64), pa_[:8]])
    b = np.resize(np.concatenate([np.array(b_vals, dtype=np.uint64), pb_[:8]]), len(a))
    y = x[:, None] * a[None, :] + b[None, :]
    assert np.array_equal(_mod_mersenne(y.copy()), y % m)
    y2 = np.array(near_m + [_M61, _M61 + 7, 0, 2**64 - 1], dtype=np.uint64)
    assert np.array_equal(_mod_mersenne(y2.copy()), y2 % m)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 700), min_size=1, max_size=6), st.integers(0, 2**32))
def test_minhash_signatures_match_modulo_reference(sizes, seed):
    """minhash_signatures (chunked at doc boundaries, folded modulus)
    equals the per-doc min of the plain % formula, for docs smaller and
    larger than one chunk and rows in any doc order."""
    from lucene_7_x_9_x_ray.pipelines.dedup import _minhash_params, minhash_signatures

    rng = np.random.default_rng(seed)
    docs = np.repeat(np.arange(len(sizes), dtype=np.int64) * 7, sizes)
    sh = rng.integers(0, 2**64, size=len(docs), dtype=np.uint64)
    perm = rng.permutation(len(docs))
    got_docs, got = minhash_signatures(pa.table({"doc_id": docs[perm], "shingle": sh[perm]}))
    a, b = _minhash_params()
    want = np.stack([((sh[docs == d][:, None] * a + b) % np.uint64(_M61)).min(axis=0)
                     for d in np.unique(docs)])
    assert np.array_equal(got_docs, np.unique(docs))
    assert np.array_equal(got, want)


def test_simhash_banding_is_exact(ray_session, planted_dir):
    """4-band pigeonhole blocking finds EXACTLY the hamming<=3 pairs."""
    from lucene_7_x_9_x_ray.pipelines import dedup, textops

    got = dedup.q_simhash_pairs(planted_dir)
    got_pairs = set(zip(got["doc_a"].to_pylist(), got["doc_b"].to_pylist()))

    fp = textops.fingerprint_batch(_planted_corpus())
    sims = fp["simhash"].to_numpy().astype(np.uint64)
    want = set()
    for i in range(len(sims)):
        for j in range(i + 1, len(sims)):
            if bin(int(sims[i]) ^ int(sims[j])).count("1") <= dedup.SIMHASH_MAX_HAMMING:
                want.add((i, j))
    assert got_pairs == want
    assert (2, 3) in want  # exact dups -> hamming 0


def test_exact_dedup_groups(ray_session, planted_dir):
    from lucene_7_x_9_x_ray.pipelines import dedup

    t = dedup.q_exact_dedup(planted_dir)
    by_keep = {int(k): int(n) for k, n in zip(t["keep_doc_id"].to_pylist(),
                                              t["n_copies"].to_pylist())}
    assert by_keep[2] == 2  # docs 2,3 identical, min doc_id kept
    assert t.num_rows == 11  # 12 docs, one exact-dup pair collapses


def test_ann_ivf_fullprobe_equals_brute(ray_session):
    from lucene_7_x_9_x_ray.pipelines import ann

    brute = ann._brute_force(SF, ann.IVF_QUERY_IDS)
    ivf = ann.q_ann_ivf_topk(SF)
    assert brute.to_pylist() == ivf.to_pylist()


def test_doc_stats_values(ray_session, planted_dir):
    from lucene_7_x_9_x_ray.pipelines import textops

    t = textops.q_doc_stats(planted_dir)
    row = {r["doc_id"]: r for r in t.to_pylist()}
    toks = _planted_corpus()["text"].to_pylist()[0].split()
    assert row[0]["n_tokens"] == len(toks)
    assert row[0]["n_distinct"] == len(set(toks))
    stops = sum(1 for x in toks if x in textops.QUALITY_STOPWORDS)
    assert row[0]["stop_ratio"] == round_half_away(stops / len(toks), 6)


def test_serve_stage_matches_searcher(ray_session, tmp_path):
    """Actor-pool serving == driver-side searcher, including salted terms."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index
    from lucene_7_x_9_x_ray.stages.serve import serve

    pages = generate_pages(600, vocab_size=500, mean_tokens=40)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100))
    merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=50))

    specs = [("q1", ["t00000"], 5), ("q2", ["t00001", "t00040"], 7), ("q3", ["t00420"], 3)]
    served = serve(idx, [{"query_id": q, "terms": t, "k": k} for q, t, k in specs],
                   concurrency=2)
    s = open_searcher(idx)
    got = {r["query_id"]: [] for r in served.to_pylist()}
    for r in served.to_pylist():
        got[r["query_id"]].append((r["rank"], r["doc_id"], np.float32(r["score"])))
    for qid, terms, k in specs:
        q = Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery(t)) for t in terms])
        td = s.search(q, k=k)
        want = [(i + 1, int(d), np.float32(sc))
                for i, (d, sc) in enumerate(zip(td.doc_ids, td.scores))]
        assert sorted(got.get(qid, [])) == want


def test_merged_wand_duel_with_hot_terms(ray_session, tmp_path):
    """Block-max WAND on the merged index (salted hot terms expanded to
    per-fragment clauses) is rank-identical to the exhaustive scorer."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index

    pages = generate_pages(800, vocab_size=300, mean_tokens=30, seed=5)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=200))
    merged = merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=60, hot_buckets=4))
    assert merged["hot_terms"], "fixture must exercise salting"

    s = open_searcher(idx)
    hot = merged["hot_terms"][0]
    cases = [[hot], [hot, "t00050"], ["t00010", "t00020", hot], ["t00200"]]
    for terms in cases:
        q = Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery(t)) for t in terms])
        for k in (1, 10):
            a = s.search(q, k=k, mode="exhaustive")
            b = s.search(q, k=k, mode="wand")
            assert list(a.doc_ids) == list(b.doc_ids), (terms, k)
            assert np.array_equal(a.scores, b.scores), (terms, k)


def test_positions_roundtrip():
    from lucene_7_x_9_x_ray.functions.codec import decode_positions, encode_positions

    rng = np.random.default_rng(3)
    for _ in range(30):
        n_docs = int(rng.integers(1, 20))
        freqs = rng.integers(1, 9, size=n_docs)
        stream = np.concatenate(
            [np.sort(rng.choice(500, size=f, replace=False)) for f in freqs]
        ).astype(np.int64)
        blob, w = encode_positions(stream, freqs)
        out = decode_positions(blob, w, freqs)
        assert np.array_equal(out, stream)


def test_phrase_query_matches_bruteforce(ray_session, tmp_path):
    """Exact PhraseQuery vs a per-doc python scan, segment AND merged."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index

    pages = generate_pages(400, vocab_size=50, mean_tokens=30, seed=9)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100, index_positions=True))
    merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=40, hot_buckets=4))

    texts = pages["text"].to_pylist()
    phrase = ("t00000", "t00001")

    def brute_freq(toks):
        return sum(
            1
            for i in range(len(toks) - 1)
            if toks[i] == phrase[0] and toks[i + 1] == phrase[1]
        )

    want_docs = sorted(
        d for d, t in enumerate(texts) if brute_freq(t.split()) > 0
    )
    for searcher in (IndexSearcher(idx), open_searcher(idx)):
        td = searcher.search(Q.PhraseQuery(terms=phrase), k=1000,
                             total_hits_threshold=1 << 30)
        assert sorted(int(d) for d in td.doc_ids) == want_docs


def test_checkindex_passes_and_catches_corruption(ray_session, tmp_path):
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index
    from lucene_7_x_9_x_ray.state.checkindex import CheckIndexError, check_index

    pages = generate_pages(300, vocab_size=80, mean_tokens=25, seed=13)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100))
    merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=50, hot_buckets=2))

    out = check_index(idx)
    assert out["doc_count"] == 300 and out["merged"] is not None

    # corrupt one segment's norms file -> impacts domination must fail
    import glob, os
    norms = sorted(glob.glob(os.path.join(idx, "segments", "*", "norms.bin")))[0]
    b = bytearray(open(norms, "rb").read())
    b[0] = 0  # length-0 norm: no stored impact pair can dominate it
    open(norms, "wb").write(bytes(b))
    import pytest as _pytest

    with _pytest.raises(CheckIndexError):
        check_index(idx)


def test_sharded_serving_matches_searcher(ray_session, tmp_path):
    """Leaf-slice fan-out + driver reduce == single-searcher top-k."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.serve import ServingPool, hit_rows

    pages = generate_pages(500, vocab_size=200, mean_tokens=30, seed=21)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=50)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=50))

    specs = [("q1", ["t00000"], 5), ("q2", ["t00003", "t00010"], 8), ("q3", ["t00150"], 4)]
    pool = ServingPool(idx, n_shards=4)
    served = [r for qid, terms, k in specs for r in hit_rows(qid, pool.search(terms, k))]
    pool.shutdown()
    s = IndexSearcher(idx)
    got: dict[str, list] = {}
    for r in served:
        got.setdefault(r["query_id"], []).append(
            (r["rank"], r["doc_id"], np.float32(r["score"]))
        )
    for qid, terms, k in specs:
        q = Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery(t)) for t in terms])
        td = s.search(q, k=k)
        want = [(i + 1, int(d), np.float32(sc))
                for i, (d, sc) in enumerate(zip(td.doc_ids, td.scores))]
        assert sorted(got.get(qid, [])) == want, qid


def test_remerge_after_append_replaces_stale_shards(ray_session, tmp_path):
    """Re-merging after an appended input must replace shards built from
    the old segment set — the merged index then serves ALL documents."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index
    from lucene_7_x_9_x_ray.state.checkindex import check_index

    p1 = str(tmp_path / "pages_000.parquet")
    p2 = str(tmp_path / "pages_001.parquet")
    write_pages_parquet(generate_pages(200, seed=1, vocab_size=40, mean_tokens=20), p1,
                        rows_per_row_group=100)
    write_pages_parquet(generate_pages(150, seed=2, vocab_size=40, mean_tokens=20), p2,
                        rows_per_row_group=75)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(target_docs_per_segment=100)
    mcfg = MergeConfig(n_shards=4, hot_df_threshold=80, hot_buckets=2)

    build_index([p1], idx, cfg)
    merge_index(idx, mcfg)
    build_index([p1, p2], idx, cfg)
    merge_index(idx, mcfg)

    s = open_searcher(idx)  # merged searcher
    assert s.doc_count == 350
    td = s.search(Q.TermQuery("t00000"), k=350, total_hits_threshold=1 << 30)
    assert int(max(td.doc_ids)) >= 200  # appended docs visible post-merge
    check_index(idx)  # cross-checks merged df/ttf against segments


def test_rebuilt_segment_replaces_stale_dir(ray_session, tmp_path):
    """A segment whose partition was remapped (e.g. a prepended input file)
    must be rebuilt IN PLACE, not silently keep the old dir's postings."""
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.state.checkindex import check_index

    pa_ = str(tmp_path / "a.parquet")  # sorts BEFORE b -> remaps seg_000000
    pb = str(tmp_path / "b.parquet")
    write_pages_parquet(generate_pages(120, seed=3, vocab_size=40, mean_tokens=20), pb,
                        rows_per_row_group=120)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(target_docs_per_segment=200)
    build_index([pb], idx, cfg)

    write_pages_parquet(generate_pages(90, seed=4, vocab_size=40, mean_tokens=20), pa_,
                        rows_per_row_group=90)
    m = build_index([pa_, pb], idx, cfg)
    assert m.doc_count == 210
    out = check_index(idx)  # stale seg_000000 content would fail doc ranges
    assert out["doc_count"] == 210


def test_tiered_compaction_preserves_results(ray_session, tmp_path):
    """Compaction merges adjacent segments without changing global docIDs,
    stats, or search results; a re-merge after compaction serves the same
    index (TieredMergePolicy + SegmentMerger analogue)."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.compact import CompactionPolicy, compact_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index
    from lucene_7_x_9_x_ray.state.checkindex import check_index

    pages = generate_pages(600, vocab_size=80, mean_tokens=25, seed=31)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=50)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=50))

    s0 = IndexSearcher(idx)
    probes = [
        Q.TermQuery("t00000"),
        Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery("t00002")), (Q.SHOULD, Q.TermQuery("t00030"))]),
        Q.PhraseQuery(terms=("t00000", "t00001")),
    ]
    before = [s0.search(q, k=20, total_hits_threshold=1 << 30) for q in probes]

    m = compact_index(idx, CompactionPolicy(max_merge_at_once=4))
    assert len(m.segments) == 3  # 12 segments -> groups of 4
    out = check_index(idx)
    assert out["doc_count"] == 600

    s1 = IndexSearcher(idx)
    for q, td0 in zip(probes, before):
        td1 = s1.search(q, k=20, total_hits_threshold=1 << 30)
        assert list(td0.doc_ids) == list(td1.doc_ids)
        assert np.array_equal(td0.scores, td1.scores)

    merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=100))
    s2 = open_searcher(idx)
    for q, td0 in zip(probes, before):
        td2 = s2.search(q, k=20, total_hits_threshold=1 << 30)
        assert list(td0.doc_ids) == list(td2.doc_ids)
        assert np.array_equal(td0.scores, td2.scores)


def test_index_sort_early_termination(ray_session, tmp_path):
    """BuildConfig.sort_by pre-sorts each partition; sorted_field_topn
    reads only segment heads/tails and matches a brute-force sort."""
    import pyarrow.parquet as pq_

    from lucene_7_x_9_x_ray.search.sortedfield import sorted_field_topn
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index

    pages = generate_pages(400, vocab_size=50, mean_tokens=20, seed=41)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100, sort_by="lang"))

    got = sorted_field_topn(idx, "lang", 10)
    got_desc = sorted_field_topn(idx, "lang", 10, descending=True)
    assert len(got) == 10 and len(got_desc) == 10
    # brute force over the docmaps (values only; ids depend on sort order)
    import glob

    vals = []
    for p in sorted(glob.glob(idx + "/segments/*/docmap.parquet")):
        vals.extend(pq_.read_table(p, columns=["lang"])["lang"].to_pylist())
    assert [v for v, _ in got] == sorted(vals)[:10]
    assert [v for v, _ in got_desc] == sorted(vals, reverse=True)[:10]
    # within-segment ordering invariant: docmap is ascending in sort_by
    for p in sorted(glob.glob(idx + "/segments/*/docmap.parquet")):
        lv = pq_.read_table(p, columns=["lang"])["lang"].to_pylist()
        assert lv == sorted(lv)


def test_serving_pool_matches_searcher(ray_session, tmp_path):
    """Persistent sharded ServingPool == single searcher, rank-identical."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.serve import ServingPool

    pages = generate_pages(400, vocab_size=100, mean_tokens=25, seed=51)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=50)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=50))

    pool = ServingPool(idx, n_shards=4)
    s = IndexSearcher(idx)
    for terms in (["t00000"], ["t00002", "t00015"], ["t00090"]):
        q = Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery(t)) for t in terms])
        a = s.search(q, k=7)
        b = pool.search(terms, 7)
        assert list(a.doc_ids) == list(b.doc_ids)
        assert np.array_equal(a.scores, b.scores)
    pool.shutdown()


def test_sloppy_phrase_javadoc_examples(ray_session, tmp_path):
    """Pinned behaviors from SloppyPhraseMatcher's own javadoc, plus the
    slop=0 duel: sloppy freq at slop=0 == exact phrase match count."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.scorers import _sloppy_freq
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index

    # javadoc: doc "x a b a y", query "a b"~2 matches twice: dist 0 and 2
    a = np.array([1, 3]) - 0
    b = np.array([2]) - 1
    assert _sloppy_freq([a, b], 2) == np.float32(np.float32(1.0) + np.float32(1.0) / 3)
    # no match outside slop
    assert _sloppy_freq([np.array([0]), np.array([10 - 1])], 2) == 0.0

    # slop=0 duel on a generated corpus: sloppy freq == exact count per doc
    pages = generate_pages(200, vocab_size=12, mean_tokens=30, seed=61)
    path = str(tmp_path / "p.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "i")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100))
    s = IndexSearcher(idx)
    q0 = Q.PhraseQuery(terms=("t00000", "t00001"), slop=0)
    exact = s.search(q0, k=500, total_hits_threshold=1 << 30)

    # property duel: at slop=0 the sloppy matcher's float freq equals the
    # exact matcher's adjacency count on random position lists
    rng = np.random.default_rng(7)
    for _ in range(200):
        pa_pos = np.sort(rng.choice(60, size=rng.integers(1, 12), replace=False))
        pb_pos = np.sort(rng.choice(60, size=rng.integers(1, 12), replace=False))
        exact_count = len(np.intersect1d(pa_pos, pb_pos - 1))
        got = _sloppy_freq([pa_pos, pb_pos - 1], 0)
        assert got == float(exact_count), (pa_pos, pb_pos)

    q2 = Q.PhraseQuery(terms=("t00000", "t00001"), slop=3)
    sloppy = s.search(q2, k=500, total_hits_threshold=1 << 30)
    assert set(int(x) for x in exact.doc_ids) <= set(int(x) for x in sloppy.doc_ids)
    # repeated-term sloppy phrases run through the rptGroups matcher
    # (test_search.py::test_sloppy_repeats_hand_traced pins its semantics)
    td_rpt = s.search(Q.PhraseQuery(terms=("t00000", "t00000"), slop=1), k=5)
    assert all(float(sc) > 0 for sc in td_rpt.scores)


def test_delete_by_url_and_update_flow(ray_session, tmp_path):
    """Delete-by-term (url) tombstones filter every query path; an update
    is delete + append (IndexWriter.updateDocument semantics)."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.merged import open_searcher
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index
    from lucene_7_x_9_x_ray.state.livedocs import delete_by_url, load_tombstones

    pages = generate_pages(300, vocab_size=40, mean_tokens=20, seed=71, dup_url_frac=0)
    path = str(tmp_path / "p000.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "i")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100))
    merge_index(idx, MergeConfig(n_shards=4, hot_df_threshold=50))

    s = IndexSearcher(idx)
    td = s.search(Q.TermQuery("t00000"), k=5)
    victim_gid = int(td.doc_ids[0])
    victim_url = s.lookup_docs([victim_gid])[0]["url"]

    n = delete_by_url(idx, [victim_url])
    assert n == 1 and victim_gid in set(load_tombstones(idx).tolist())

    for searcher in (IndexSearcher(idx), open_searcher(idx)):
        td2 = searcher.search(Q.TermQuery("t00000"), k=300, total_hits_threshold=1 << 30)
        assert victim_gid not in set(int(d) for d in td2.doc_ids)
        assert searcher.count(Q.TermQuery("t00000")) == len(td2.doc_ids)
        # wand mode silently falls back and still excludes the tombstone
        td3 = searcher.search(Q.TermQuery("t00000"), k=300, mode="wand",
                              total_hits_threshold=1 << 30)
        assert victim_gid not in set(int(d) for d in td3.doc_ids)

    # update = delete + append of a replacement file
    repl = generate_pages(50, vocab_size=40, mean_tokens=20, seed=72, dup_url_frac=0)
    p2 = str(tmp_path / "p001.parquet")
    write_pages_parquet(repl, p2, rows_per_row_group=50)
    m2 = build_index([path, p2], idx, BuildConfig(target_docs_per_segment=100))
    assert m2.doc_count == 350
    s2 = IndexSearcher(idx)
    td4 = s2.search(Q.TermQuery("t00000"), k=350, total_hits_threshold=1 << 30)
    assert victim_gid not in set(int(d) for d in td4.doc_ids)
    assert max(int(d) for d in td4.doc_ids) >= 300  # replacement docs visible


def test_serving_paths_respect_tombstones(ray_session, tmp_path):
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.serve import ServingPool
    from lucene_7_x_9_x_ray.state.livedocs import delete_docs

    pages = generate_pages(200, vocab_size=30, mean_tokens=20, seed=81, dup_url_frac=0)
    path = str(tmp_path / "p.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=50)
    idx = str(tmp_path / "i")
    build_index([path], idx, BuildConfig(target_docs_per_segment=50))

    s = IndexSearcher(idx)
    victim = int(s.search(Q.TermQuery("t00000"), k=1).doc_ids[0])
    delete_docs(idx, [victim])

    pool = ServingPool(idx, n_shards=2)
    td = pool.search(["t00000"], 200)
    assert victim not in set(int(d) for d in td.doc_ids)
    # a disjunction the pool would seed with a probed floor without deletes:
    # under a tombstone the shards filter it out and still match the searcher
    q = Q.BooleanQuery.build([(Q.SHOULD, Q.TermQuery("t00000")), (Q.SHOULD, Q.TermQuery("t00003"))])
    a, b = IndexSearcher(idx).search(q, k=5), pool.search_query(q, k=5)
    assert victim not in set(int(d) for d in b.doc_ids)
    assert list(a.doc_ids) == list(b.doc_ids) and np.array_equal(a.scores, b.scores)
    pool.shutdown()


def test_sorted_field_topn_deletes_and_validation(ray_session, tmp_path):
    """ADVICE fixes: sorted_field_topn filters tombstones and refuses a
    field the index was not sorted by."""
    import glob

    import pyarrow.parquet as pq_
    import pytest

    from lucene_7_x_9_x_ray.search.sortedfield import sorted_field_topn
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.state.livedocs import delete_docs

    pages = generate_pages(300, vocab_size=50, mean_tokens=20, seed=43)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "idx")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100, sort_by="url"))

    with pytest.raises(ValueError, match="sort_by"):
        sorted_field_topn(idx, "lang", 5)

    # delete the docs that would have been ranks 0, 2, 3 -> results skip them
    before = sorted_field_topn(idx, "url", 6)
    dead = [before[0][1], before[2][1], before[3][1]]
    delete_docs(idx, dead)
    after = sorted_field_topn(idx, "url", 6)
    assert all(gd not in dead for _, gd in after)
    # brute-force expected: live rows sorted by (url, docid)
    rows = []
    base = 0
    for p in sorted(glob.glob(idx + "/segments/*/docmap.parquet")):
        t = pq_.read_table(p, columns=["url"])
        rows.extend((u, base + i) for i, u in enumerate(t["url"].to_pylist()))
        base += t.num_rows
    live = [r for r in rows if r[1] not in set(dead)]
    assert after == sorted(live)[:6]


def test_compaction_refuses_mixed_positions(ray_session, tmp_path):
    """Compacting a mix of positions/no-positions segments must not drop
    .pos silently: merge_segment_group raises; compact_index splits tiers."""
    import pytest

    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.compact import (
        CompactionPolicy,
        compact_index,
        merge_segment_group,
    )
    from lucene_7_x_9_x_ray.state.manifest import IndexManifest

    pages = generate_pages(300, vocab_size=40, mean_tokens=15, seed=44, dup_url_frac=0)
    p1 = str(tmp_path / "p000.parquet")
    write_pages_parquet(pages[:200], p1, rows_per_row_group=50)
    idx = str(tmp_path / "idx")
    build_index([p1], idx, BuildConfig(target_docs_per_segment=50, index_positions=True))
    # append segments WITHOUT positions (incremental build with a different
    # IndexOptions config — the mixed-tier scenario)
    p2 = str(tmp_path / "p001.parquet")
    write_pages_parquet(pages[200:], p2, rows_per_row_group=50)
    build_index([p1, p2], idx, BuildConfig(target_docs_per_segment=50, index_positions=False))

    man = IndexManifest.load(idx)
    names = [s["seg_name"] for s in sorted(man.segments, key=lambda s: s["doc_base"])]
    assert len(names) == 6
    with pytest.raises(ValueError, match="mixed has_positions"):
        merge_segment_group(idx, [names[3], names[4]], "bad")

    m = compact_index(idx, CompactionPolicy(max_merge_at_once=10))
    # 4 positioned + 2 position-less -> exactly two homogeneous merged tiers
    assert len(m.segments) == 2
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher

    rs = IndexSearcher(idx).readers
    assert [r.has_positions for r in rs] == [True, False]
    assert sum(r.doc_count for r in rs) == 300


def test_embed_lsh_finds_planted_near_dups(ray_session):
    """Hyperplane-LSH embedding dedup recovers every planted jittered pair
    without a full-matrix broadcast (the sub-quadratic scale path)."""
    from lucene_7_x_9_x_ray.pipelines import dedup

    t = dedup.q_embed_dup_lsh_pairs("/root/testdata/sf0.001")
    pairs = set(zip(t["vec_a"].to_pylist(), t["vec_b"].to_pylist()))
    planted = {
        (i, i + dedup.EMBED_LSH_PLANT_OFFSET) for i in range(dedup.EMBED_LSH_PLANT_N)
    }
    # per-pair recall ~0.98 -> allow at most one miss out of 32
    assert len(planted - pairs) <= 1
    assert all(c >= dedup.EMBED_LSH_COS_THRESHOLD for c in t["cos_r"].to_pylist())


def test_ivf_small_nprobe_recall(ray_session):
    """IVF with nprobe=4/16 must reach recall@10 >= 0.9 vs brute force —
    the scale path actually prunes (reads 4 bucket dirs) and still finds
    the neighbors."""
    from lucene_7_x_9_x_ray.pipelines import ann

    sf = "/root/testdata/sf0.001"
    brute = ann._brute_force(sf, ann.IVF_QUERY_IDS).to_pandas()
    small = ann._ivf_search(sf, ann.IVF_QUERY_IDS, nprobe=4).to_pandas()
    recalls = []
    for q in ann.IVF_QUERY_IDS:
        b = set(brute[brute.query_id == q].vec_id)
        s = set(small[small.query_id == q].vec_id)
        recalls.append(len(b & s) / len(b))
    assert sum(recalls) / len(recalls) >= 0.9, recalls


def test_reclaim_deletes_renumbers_and_matches_fresh_build(ray_session, tmp_path):
    """Delete 40% -> reclaim_deletes: doc_count shrinks, tombstones file
    gone, and every query path scores IDENTICALLY to a fresh index built
    from only the surviving rows (docID renumbering = compaction order)."""
    import os

    import pyarrow.parquet as pq_

    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, FieldSpec, build_index
    from lucene_7_x_9_x_ray.stages.compact import reclaim_deletes
    from lucene_7_x_9_x_ray.state.livedocs import delete_docs, load_tombstones

    pages = generate_pages(400, vocab_size=60, mean_tokens=20, seed=61, dup_url_frac=0)
    path = str(tmp_path / "pages.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    cfg = BuildConfig(
        target_docs_per_segment=100,
        extra_fields=(FieldSpec("title", "title", index_positions=True),),
    )
    idx = str(tmp_path / "idx")
    build_index([path], idx, cfg)

    dead = list(range(0, 400, 5)) + list(range(1, 200, 2)) + list(range(200, 260))
    dead = sorted(set(dead))  # 40%-ish spread over all segments
    delete_docs(idx, dead)

    # below-threshold no-op guard
    m0 = reclaim_deletes(idx, deletes_pct_threshold=0.99)
    assert m0.doc_count == 400 and len(load_tombstones(idx)) == len(dead)

    m = reclaim_deletes(idx)  # 40% > 33% threshold -> runs
    keep = [i for i in range(400) if i not in set(dead)]
    assert m.doc_count == len(keep)
    assert len(load_tombstones(idx)) == 0
    assert not os.path.exists(os.path.join(idx, "tombstones.json"))

    # fresh index over only the surviving rows = ground truth
    fresh_pages = pages.take(keep)
    fpath = str(tmp_path / "fresh.parquet")
    write_pages_parquet(fresh_pages, fpath, rows_per_row_group=100)
    fidx = str(tmp_path / "fidx")
    build_index([fpath], fidx, cfg)

    sr, sf = IndexSearcher(idx), IndexSearcher(fidx)
    assert sr.doc_count == sf.doc_count
    assert sr.sum_total_term_freq == sf.sum_total_term_freq
    assert sr.manifest.field_stats == sf.manifest.field_stats
    probes = [
        Q.TermQuery("t00000"),
        Q.BooleanQuery.build(
            [(Q.SHOULD, Q.TermQuery("t00002")), (Q.SHOULD, Q.TermQuery("t00010"))]
        ),
        Q.PhraseQuery(terms=("t00000", "t00001")),
        Q.PhraseQuery(terms=("t00000", "t00001"), slop=2),
        Q.TermQuery("t00001", field="title"),
        Q.PhraseQuery(terms=("t00000", "t00001"), field="title"),
    ]
    for q in probes:
        tr = sr.search(q, k=50, total_hits_threshold=1 << 30)
        tf = sf.search(q, k=50, total_hits_threshold=1 << 30)
        assert list(tr.doc_ids) == list(tf.doc_ids), q
        assert np.array_equal(tr.scores, tf.scores), q
        assert sr.count(q) == sf.count(q)


def test_corpus_clean_composition(ray_session, monkeypatch):
    """The composed clean pass on the driver corpus: non-vacuous
    survivorship, dup collapse to min doc_id, thresholds enforced —
    with driver-side materialization forbidden on the whole path
    (the keep set is a hash-partitioned semi-join, not a broadcast)."""
    import duckdb as _dd
    import ray.data as rd

    from lucene_7_x_9_x_ray.pipelines import corpus

    def _forbidden(self, *a, **k):  # pragma: no cover - should never fire
        raise AssertionError("driver-side materialization on the clean path")

    monkeypatch.setattr(rd.Dataset, "take_all", _forbidden)
    monkeypatch.setattr(rd.Dataset, "take", _forbidden)
    monkeypatch.setattr(rd.Dataset, "to_pandas", _forbidden)
    parts = [
        b for b in corpus.corpus_clean_dataset(SF).iter_batches(batch_format="pyarrow")
    ]
    monkeypatch.undo()
    t = pa.concat_tables([p for p in parts if p.num_rows]).sort_by(
        [("doc_id", "ascending")]
    )
    assert 0 < t.num_rows < 500  # filters bite, corpus survives
    ids = t["doc_id"].to_pylist()
    assert ids == sorted(ids)
    for n in t["n_tokens"].to_pylist():
        assert n >= corpus.CLEAN_MIN_TOKENS
    for l in t["lang"].to_pylist():
        assert l in corpus.CLEAN_LANGS
    # exact-dup semantics (keep = min doc_id) are pinned by the
    # exact_dedup oracle; here just confirm the SQL oracle agrees fully
    con = _dd.connect()
    con.sql(f"create view documents as select * from '{SF}/documents.parquet'")
    want = con.sql(corpus.oracle_corpus_clean_sql()).df()
    assert len(want) == t.num_rows


def test_hnsw_recall_vs_brute(ray_session):
    """Per-partition HNSW graphs reach recall@10 >= 0.9 vs brute force at
    ef=64 (the KnnVectorQuery analogue; Malkov-Yashunin graph)."""
    from lucene_7_x_9_x_ray.pipelines import ann

    sf = "/root/testdata/sf0.001"
    brute = ann._brute_force(sf, ann.HNSW_QUERY_IDS).to_pandas()
    hnsw = ann._hnsw_search(sf, ann.HNSW_QUERY_IDS).to_pandas()
    recalls = []
    for q in ann.HNSW_QUERY_IDS:
        b = set(brute[brute.query_id == q].vec_id)
        h = set(hnsw[hnsw.query_id == q].vec_id)
        recalls.append(len(b & h) / len(b))
    assert sum(recalls) / len(recalls) >= 0.9, recalls


def test_serving_pool_arbitrary_queries(ray_session, tmp_path):
    """ServingPool.search_query serves phrases, field-scoped clauses,
    parsed strings, and numeric ranges — identical to the driver-side
    searcher on every probe."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import EPOCH_2025, generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, FieldSpec, build_index
    from lucene_7_x_9_x_ray.stages.serve import ServingPool

    pages = generate_pages(500, vocab_size=80, mean_tokens=25, seed=91, dup_url_frac=0)
    path = str(tmp_path / "p.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "i")
    build_index(
        [path], idx,
        BuildConfig(
            target_docs_per_segment=100,
            extra_fields=(FieldSpec("title", "title", index_positions=True),),
        ),
    )
    s = IndexSearcher(idx)
    pool = ServingPool(idx, n_shards=3)
    probes = [
        Q.PhraseQuery(terms=("t00000", "t00001")),
        Q.BooleanQuery.build(
            [(Q.MUST, Q.TermQuery("t00002")), (Q.MUST_NOT, Q.TermQuery("t00000"))]
        ),
        Q.TermQuery("t00001", field="title"),
        'title:t00003^2 t00003',
        Q.BooleanQuery.build(
            [(Q.SHOULD, Q.TermQuery("t00004")),
             (Q.FILTER, Q.NumericRangeQuery("warc_ts", EPOCH_2025,
                                            EPOCH_2025 + 250 * 1_000_000))]
        ),
        Q.PrefixQuery("t0000"),
        # span module through the sharded pool: per-shard eval_span with
        # the driver's global stats must equal the single searcher
        Q.SpanNearQuery(
            (Q.SpanTermQuery("t00000"), Q.SpanTermQuery("t00002")),
            slop=3, in_order=False,
        ),
        Q.SpanNearQuery(
            (Q.SpanOrQuery((Q.SpanTermQuery("t00001"), Q.SpanTermQuery("t00003"))),
             Q.SpanTermQuery("t00000")),
            slop=2, in_order=True,
        ),
        Q.SpanNotQuery(Q.SpanTermQuery("t00001"), Q.SpanTermQuery("t00000"),
                       pre=1, post=1),
    ]
    from lucene_7_x_9_x_ray.search.queries import parse_classic

    for q in probes:
        qq = parse_classic(q, s.analyzer) if isinstance(q, str) else q
        td_ref = s.search(qq, k=40, total_hits_threshold=1 << 30)
        td_pool = pool.search_query(q, k=40)
        assert list(td_ref.doc_ids) == list(td_pool.doc_ids), q
        assert np.array_equal(td_ref.scores, td_pool.scores), q
    pool.shutdown()


def test_reclaim_with_soft_delete_retention(ray_session, tmp_path):
    """SoftDeletesRetentionMergePolicy analogue: tombstoned docs matching
    the retention query survive the reclaim physically but stay hidden;
    they age out on a later reclaim without retention."""
    import os

    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import EPOCH_2025, generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.compact import reclaim_deletes
    from lucene_7_x_9_x_ray.state.livedocs import delete_docs, load_tombstones

    pages = generate_pages(400, vocab_size=50, mean_tokens=20, seed=71, dup_url_frac=0)
    path = str(tmp_path / "p.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "i")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100))

    dead = sorted(set(range(0, 400, 3)) | set(range(100, 160)))  # ~45%
    delete_docs(idx, dead)
    # retain deletes with warc_ts >= doc 150 (ts = EPOCH + id*1e6)
    cutoff = EPOCH_2025 + 150 * 1_000_000
    retention = Q.NumericRangeQuery("warc_ts", lower=cutoff)
    n_retained = sum(1 for d in dead if d >= 150)

    m = reclaim_deletes(idx, retention_query=retention)
    assert m.doc_count == 400 - (len(dead) - n_retained)
    tombs = load_tombstones(idx)
    assert len(tombs) == n_retained  # retained soft deletes, renumbered

    s = IndexSearcher(idx)
    # hidden from every search path
    td = s.search(Q.TermQuery("t00000"), k=400, total_hits_threshold=1 << 30)
    urls = {r["url"] for r in s.lookup_docs([int(d) for d in td.doc_ids])}
    dead_urls = {f"https://site{d % 211}.example/p/{d}" for d in dead}
    assert not (urls & dead_urls)
    # but physically present: retained rows still resolve via docmap
    ret_rows = s.lookup_docs([int(t) for t in tombs[:5]])
    assert all(int(r["url"].rsplit("/", 1)[1]) >= 150 for r in ret_rows)

    # aging out: a later reclaim WITHOUT retention drops the remainder
    m2 = reclaim_deletes(idx, force=True)
    assert m2.doc_count == 400 - len(dead)
    assert len(load_tombstones(idx)) == 0
    assert not os.path.exists(os.path.join(idx, "tombstones.json"))


def test_reclaim_generations_are_monotonic(ray_session, tmp_path):
    """Successive reclaims write NEW segment dir names (never rewrite a
    live dir in place)."""
    from lucene_7_x_9_x_ray.search import queries as Q
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index
    from lucene_7_x_9_x_ray.stages.compact import reclaim_deletes
    from lucene_7_x_9_x_ray.state.livedocs import delete_docs

    pages = generate_pages(200, vocab_size=40, mean_tokens=15, seed=77, dup_url_frac=0)
    path = str(tmp_path / "p.parquet")
    write_pages_parquet(pages, path, rows_per_row_group=100)
    idx = str(tmp_path / "i")
    build_index([path], idx, BuildConfig(target_docs_per_segment=100))

    delete_docs(idx, list(range(0, 200, 2)))
    m1 = reclaim_deletes(idx, force=True)
    names1 = [s["seg_name"] for s in m1.segments]
    assert all(n.endswith("_rc1") for n in names1)

    delete_docs(idx, list(range(0, m1.doc_count, 3)))
    m2 = reclaim_deletes(idx, force=True)
    names2 = [s["seg_name"] for s in m2.segments]
    assert all(n.endswith("_rc2") for n in names2)
    assert not (set(names1) & set(names2))
    s = IndexSearcher(idx)
    assert s.count(Q.MatchAllDocsQuery()) == m2.doc_count


def test_field_exists_oracle_parity(ray_session):
    """FieldExists gate == DuckDB IS NOT NULL oracle on the driver corpus
    (score_hint nullable by construction, lang all-valid, title norms
    always present)."""
    import duckdb as _dd

    from lucene_7_x_9_x_ray.pipelines import flagship, oracles

    got = flagship.q_field_exists_match(SF)
    con = _dd.connect()
    con.sql(f"create view documents as select * from '{SF}/documents.parquet'")
    want = con.sql(oracles.field_exists_sql()).arrow()
    g = got.sort_by([("kind", "ascending"), ("doc_id", "ascending")])
    w = want.cast(g.schema).sort_by([("kind", "ascending"), ("doc_id", "ascending")])
    assert g.equals(w)
    # the nullable column really is sparse: 1/3 of docs lack score_hint
    n_docs = con.sql("select count(*) from documents").fetchone()[0]
    n_hint = got.filter(
        pa.compute.equal(got["kind"], "dv_exists_score_hint")
    ).num_rows
    assert 0 < n_hint < n_docs


def test_quality_filter_metrics_and_oracle(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from lucene_7_x_9_x_ray.pipelines import textops

    # hand-checkable: "a b a b a" -> bigrams [a b, b a, a b, b a]:
    # 2 distinct / 4 total -> dup 0.5, top 0.5; max token a=3/5
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": [0, 1],
                "text": ["a b a b a", " ".join(f"u{i}" for i in range(20))],
            }
        ),
        str(sf / "documents.parquet"),
    )
    t = textops.q_quality_filter(str(sf)).sort_by([("doc_id", "ascending")]).to_pylist()
    assert t[0]["dup_bigram_frac"] == 0.5
    assert t[0]["top_bigram_frac"] == 0.5
    assert t[0]["max_tok_frac"] == 0.6
    assert not t[0]["keep"]
    assert t[1]["dup_bigram_frac"] == 0.0
    assert t[1]["keep"]

    import duckdb as _dd

    con = _dd.connect()
    sfr = "/root/testdata/sf0.001"
    con.sql(f"create view documents as select * from '{sfr}/documents.parquet'")
    got = textops.q_quality_filter(sfr)
    want = con.sql(textops.oracle_quality_filter_sql()).arrow()
    key = [("doc_id", "ascending")]
    assert got.sort_by(key).equals(want.cast(got.schema).sort_by(key))
    kept = sum(got["keep"].to_pylist())
    assert 0 < kept < got.num_rows  # thresholds split the corpus


def test_facet_length_ranges_oracle(ray_session):
    import duckdb as _dd

    from lucene_7_x_9_x_ray.pipelines import flagship, oracles

    sfr = "/root/testdata/sf0.001"
    got = flagship.q_facet_length_ranges(sfr)
    con = _dd.connect()
    con.sql(f"create view documents as select * from '{sfr}/documents.parquet'")
    want = con.sql(
        oracles.facet_range_sql(
            flagship.FACET_TERM, flagship.FACET_RANGE_EDGES, flagship.FACET_RANGE_LABELS
        )
    ).arrow()
    key = [("bucket", "ascending")]
    assert got.sort_by(key).equals(want.cast(got.schema).sort_by(key))
    assert got.num_rows >= 2  # multiple buckets populated


def test_bucketed_equijoin_mn_expansion(ray_session):
    """unique_build=False: full M:N inner-join multiplicity — each probe
    row expands to one output row per matching build row; the 1:N default
    refuses duplicate build keys instead of silently dropping rows."""
    import ray.data as rd

    from lucene_7_x_9_x_ray.pipelines.relational import _bucketed_equijoin

    # build: key 1 -> tags a, b; key 2 -> tag c. probe: key 1 x2, key 2,
    # key 3 (no match). Expected M:N pairs: (1,a)x2, (1,b)x2, (2,c).
    build = pa.table(
        {"key": pa.array([1, 1, 2], pa.int64()),
         "tag": pa.array(["a", "b", "c"], pa.string()),
         "val": pa.array([0, 0, 0], pa.int64()),
         "side": pa.array([0, 0, 0], pa.int8())}
    )
    probe = pa.table(
        {"key": pa.array([1, 1, 2, 3], pa.int64()),
         "tag": pa.array(["", "", "", ""], pa.string()),
         "val": pa.array([10, 20, 30, 40], pa.int64()),
         "side": pa.array([1, 1, 1, 1], pa.int8())}
    )

    def emit(p, b):
        if p is None:
            return pa.table({"tag": pa.array([], pa.string()),
                             "val": pa.array([], pa.int64())})
        return pa.table({"tag": pa.array(b["tag"], pa.string()),
                         "val": pa.array(p["val"], pa.int64())})

    ds = _bucketed_equijoin(
        rd.from_arrow(build).union(rd.from_arrow(probe)), parts=4,
        build_cols=["tag"], probe_cols=["val"], emit=emit, unique_build=False,
    )
    import ray as _ray

    parts_tables = [
        t for t in _ray.get(ds.materialize().to_arrow_refs()) if t.num_rows
    ]
    t = pa.concat_tables(parts_tables)
    got = sorted(zip(t["tag"].to_pylist(), t["val"].to_pylist()))
    assert got == [("a", 10), ("a", 20), ("b", 10), ("b", 20), ("c", 30)]

    with pytest.raises(Exception):  # duplicate build keys under the 1:N default
        _bucketed_equijoin(
            rd.from_arrow(build).union(rd.from_arrow(probe)), parts=1,
            build_cols=["tag"], probe_cols=["val"], emit=emit,
        ).materialize()


def test_bucketed_equijoin_hot_key_salting(ray_session):
    """Planted skew: ONE key carries 50% of probe rows. detect_hot_keys
    finds it, the salted join returns results identical to the unsalted
    run, and no single group sees the hot key's full probe run (memory
    bound = the round-4 verdict's first-thing-to-break item)."""
    import ray
    import ray.data as rd

    from lucene_7_x_9_x_ray.pipelines.relational import (
        _bucketed_equijoin, detect_hot_keys,
    )

    rng = np.random.default_rng(7)
    n = 4000
    keys = np.where(
        np.arange(n) % 2 == 0, 42, rng.integers(1000, 2000, n)
    ).astype(np.int64)
    vals = rng.integers(0, 100, n).astype(np.int64)
    probe = pa.table(
        {"key": pa.array(keys), "nk": pa.array(np.zeros(n, np.int64)),
         "val": pa.array(vals), "side": pa.array([1] * n, pa.int8())}
    )
    uniq = np.unique(keys)
    build = pa.table(
        {"key": pa.array(uniq), "nk": pa.array(uniq * 3),
         "val": pa.array(np.zeros(len(uniq), np.int64)),
         "side": pa.array([0] * len(uniq), pa.int8())}
    )

    hot = detect_hot_keys(rd.from_arrow(probe), threshold=500)
    assert list(hot) == [42]

    def emit(p, b):
        if p is None:
            return pa.table({"nk": pa.array([], pa.int64()),
                             "p_sum": pa.array([], pa.int64()),
                             "p_cnt": pa.array([], pa.int64())})
        u, inv = np.unique(b["nk"], return_inverse=True)
        sums = np.zeros(len(u), dtype=np.int64)
        np.add.at(sums, inv, p["val"])
        return pa.table({"nk": pa.array(u, pa.int64()),
                         "p_sum": pa.array(sums, pa.int64()),
                         "p_cnt": pa.array(np.bincount(inv, minlength=len(u)).astype(np.int64), pa.int64())})

    def run(hot_keys):
        ds = _bucketed_equijoin(
            rd.from_arrow(build).union(rd.from_arrow(probe)), parts=8,
            build_cols=["nk"], probe_cols=["val"], emit=emit,
            hot_keys=hot_keys, n_salts=16,
        )
        return pa.concat_tables(
            [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]
        )

    plain = run(None)
    salted = run(hot)

    def totals(t):
        out = {}
        for nk, s, c in zip(t["nk"].to_pylist(), t["p_sum"].to_pylist(),
                            t["p_cnt"].to_pylist()):
            a, b = out.get(nk, (0, 0))
            out[nk] = (a + s, b + c)
        return out

    # identical aggregates, and equal to the numpy oracle
    assert totals(plain) == totals(salted)
    want_sum = int(vals[keys == 42].sum())
    assert totals(salted)[42 * 3] == (want_sum, n // 2)
    # the unsalted run holds all 2000 hot-probe rows in one group; the
    # salted run bounds every group's share of the hot key
    hot_partials = [
        c for nk, c in zip(salted["nk"].to_pylist(), salted["p_cnt"].to_pylist())
        if nk == 42 * 3
    ]
    assert len(hot_partials) > 1
    assert max(hot_partials) <= (n // 2) // 16 + 64
    plain_hot = [
        c for nk, c in zip(plain["nk"].to_pylist(), plain["p_cnt"].to_pylist())
        if nk == 42 * 3
    ]
    assert max(plain_hot) == n // 2  # the baseline really was unbounded


def test_facet_assoc_matches_oracle(ray_session):
    """Association facets (TaxonomyFacetSumIntAssociations role): per-path
    sum of the int association (doc length) over matching docs."""
    import __ray_entry__ as E

    mine = E.queries()["facet_assoc"](SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.execute(E.oracle_sql()["facet_assoc"]).df()
    mine = mine.sort_values("path").reset_index(drop=True)
    want = want.sort_values("path").reset_index(drop=True)
    assert mine["path"].tolist() == want["path"].tolist()
    assert mine["total"].tolist() == want["total"].tolist()


def test_line_dedup_first_occurrence_semantics(tmp_path, ray_session):
    """Line dedup keeps each w-token line only at its first (doc, idx)
    occurrence; totals count all windows including the short tail."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_7_x_9_x_ray.pipelines import dedup

    w = dedup.LINE_DEDUP_W
    a = " ".join(f"t{i}" for i in range(w))          # line A
    b = " ".join(f"u{i}" for i in range(w))          # line B
    c = "tail one two"                                # short tail line
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            # doc0 = A B ; doc1 = B A (both dup) ; doc2 = A + short tail
            "text": [f"{a} {b}", f"{b} {a}", f"{a} {c}"],
        }
    )
    sf = str(tmp_path)
    pq.write_table(docs, f"{sf}/documents.parquet")
    got = {
        int(r["doc_id"]): (int(r["n_lines"]), int(r["n_kept"]))
        for r in dedup.q_line_dedup(sf).to_pylist()
    }
    # doc0 owns first A and first B; doc1 keeps nothing; doc2 keeps only
    # its short tail
    assert got == {0: (2, 2), 1: (2, 0), 2: (2, 1)}


def test_sorted_field_topn_search_after_pages(tmp_path, ray_session):
    """searchAfter paging over the index-sorted field: consecutive pages
    tile the full ordering (incl. heavy value ties crossing the anchor),
    ascending and descending."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_7_x_9_x_ray.search.sortedfield import sorted_field_topn
    from lucene_7_x_9_x_ray.stages.build import BuildConfig, build_index_local

    n = 40
    vals = [i % 5 for i in range(n)]  # heavy ties
    rows = sorted(range(n), key=lambda i: (vals[i], i))
    t = pa.table(
        {
            "url": [f"u{i}" for i in range(n)],
            "warc_ts": pa.array(range(n), pa.timestamp("us")),
            "text": ["doc text"] * n,
            "lang": ["en"] * n,
            "v": pa.array(vals, pa.int64()),
        }
    )
    path = str(tmp_path / "p.parquet")
    pq.write_table(t, path)
    idx = str(tmp_path / "i")
    build_index_local([path], idx,
                      BuildConfig(target_docs_per_segment=9, sort_by="v",
                                  store_cols=("v",)))

    # ascending: page through the whole order 7 at a time
    got = []
    after = None
    while True:
        page = sorted_field_topn(idx, "v", 7, after=after)
        if not page:
            break
        got.extend(d for _, d in page)
        after = page[-1]
    want = [i for i in rows]
    # docIDs are assigned by the SORTED build order, so expected global
    # order is just 0..n-1 grouped by value
    assert got == sorted(range(n), key=lambda d: (sorted_field_topn(idx, "v", n)[d][0], d)) or len(got) == n
    assert len(got) == n and len(set(got)) == n
    full = [d for _, d in sorted_field_topn(idx, "v", n)]
    assert got == full

    # descending pages tile the reverse ordering too
    got_d = []
    after = None
    while True:
        page = sorted_field_topn(idx, "v", 6, descending=True, after=after)
        if not page:
            break
        got_d.extend(d for _, d in page)
        after = page[-1]
    full_d = [d for _, d in sorted_field_topn(idx, "v", n, descending=True)]
    assert got_d == full_d and len(got_d) == n


def test_multimodal_resize_and_frame_sample_shapes(tmp_path, ray_session):
    """Resize planning preserves aspect (fit-in-box, floor >= 1) and the
    frame sampler fans one payload out to ceil(n_frames/step) rows with
    the right indices."""
    import numpy as np
    import pyarrow as pa

    from lucene_7_x_9_x_ray.pipelines.multimodal import (
        FRAME_BYTES_PER_FRAME,
        FRAME_SAMPLE_TARGET,
        FrameSampleStage,
        MediaResizeStage,
    )

    body = "tok " * 200
    html = f"<html><head><title>t one</title></head><body>{body}</body></html>"
    batch = pa.table(
        {
            "url": ["https://docs.example/d/7", "https://x/d/9"],
            "html": [html.encode(), b"<html><head><title>s</title></head><body>x</body></html>"],
        }
    )
    rs = MediaResizeStage()(batch)
    for r in rs.to_pylist():
        scale = min(256.0 / r["in_w"], 256.0 / r["in_h"])
        assert r["out_w"] == max(1, int(np.floor(r["in_w"] * scale)))
        assert r["out_h"] == max(1, int(np.floor(r["in_h"] * scale)))
        assert max(r["out_w"], r["out_h"]) <= 256

    fs = FrameSampleStage()(batch)
    rows = fs.to_pylist()
    n_frames = 1 + len(html.encode()) // FRAME_BYTES_PER_FRAME
    step = max(1, n_frames // FRAME_SAMPLE_TARGET)
    doc7 = [r for r in rows if r["doc_id"] == 7]
    assert [r["frame_idx"] for r in doc7] == list(range(0, n_frames, step))
    assert all(r["frame_sig"] == (7 * 1_000_003 + r["frame_idx"]) % 2_147_483_647
               for r in doc7)
    # the tiny payload yields exactly one frame
    assert [r["frame_idx"] for r in rows if r["doc_id"] == 9] == [0]


def _assert_same_rows(got: pa.Table, want: pa.Table) -> None:
    """Order-free exact row-set equality of two tables."""
    import pandas as pd

    cols = sorted(want.column_names)
    assert sorted(got.column_names) == cols
    a, b = (t.to_pandas()[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
            for t in (got, want))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_curate_ops_use_no_ray_aggregate_union_or_to_pandas(ray_session, monkeypatch):
    """exact dedup, line dedup, corpus clean and corpus NB classification
    run on keyed map_groups passes and task map_batches only: Ray's
    per-row keyed aggregate, Dataset.union and Dataset.to_pandas are
    forbidden while they run, and each output equals its DuckDB oracle."""
    import ray.data as rd
    from ray.data.grouped_data import GroupedData

    from lucene_7_x_9_x_ray.pipelines import classify, corpus, dedup
    from lucene_7_x_9_x_ray.pipelines import oracles as O

    def _forbidden(*a, **k):
        raise AssertionError("Ray aggregate/union/to_pandas on the curate path")

    monkeypatch.setattr(GroupedData, "aggregate", _forbidden)
    monkeypatch.setattr(rd.Dataset, "union", _forbidden)
    monkeypatch.setattr(rd.Dataset, "to_pandas", _forbidden)
    got = {
        "exact_dedup": dedup.q_exact_dedup(SF),
        "line_dedup": dedup.q_line_dedup(SF),
        "corpus_clean": corpus.q_corpus_clean(SF),
        "classify_nb": classify.q_classify_nb_corpus(SF),
    }
    monkeypatch.undo()
    sql = {
        "exact_dedup": dedup.oracle_exact_dedup_sql(),
        "line_dedup": dedup.oracle_line_dedup_sql(),
        "corpus_clean": corpus.oracle_corpus_clean_sql(),
        "classify_nb": O.classify_nb_corpus_sql(),
    }
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    for op, q in sql.items():
        want = con.execute(q).fetch_arrow_table()
        assert got[op].num_rows > 0, op
        _assert_same_rows(got[op], want)


@pytest.mark.parametrize("key_type", ["int", "str"])
@pytest.mark.parametrize("shape", ["distinct", "hot_half", "empty_batches"])
def test_keyed_reduce_matches_one_group_by(ray_session, key_type, shape):
    """keyed_reduce == one pa.Table.group_by over the whole input: every
    key reaches exactly one fn call (a key split across buckets would
    show up as a duplicate output row), a key holding half the rows
    lands whole in one bucket, and empty batches change nothing."""
    import ray.data as rd

    from lucene_7_x_9_x_ray.functions.hashing import md5_lower64_array
    from lucene_7_x_9_x_ray.pipelines.common import keyed_reduce

    def fold(t: pa.Table) -> pa.Table:  # nested: workers unpickle it by value
        g = t.group_by("k").aggregate([("v", "sum"), ("v", "count"), ("v", "min")])
        return g.select(["k", "v_sum", "v_count", "v_min"])

    rng = np.random.default_rng(7)
    n = 4000
    if shape == "distinct":
        keys = rng.permutation(n)
    elif shape == "hot_half":
        keys = np.where(rng.random(n) < 0.5, 12345, rng.integers(0, 300, n))
    else:
        keys = rng.integers(0, 500, n)
    keys = keys.astype(np.int64) - 100  # negative int keys too
    col = pa.array(keys) if key_type == "int" else pa.array([f"k{k}" for k in keys])
    whole = pa.table({"k": col, "v": pa.array(rng.integers(0, 1000, n))})
    blocks = [whole.slice(i, n // 5) for i in range(0, n, n // 5)]
    if shape == "empty_batches":
        blocks = [whole.slice(0, 0)] + [b for blk in blocks for b in (blk, whole.slice(0, 0))]
    ds = rd.from_arrow(blocks)
    if key_type == "int":
        bucket_of = lambda b: b["k"].to_numpy()  # noqa: E731
    else:
        bucket_of = lambda b: md5_lower64_array(b["k"].to_pylist())  # noqa: E731

    out = keyed_reduce(ds, bucket_of, fold)
    got = pa.concat_tables(out.iter_batches(batch_format="pyarrow", batch_size=None))
    want = fold(whole)
    _assert_same_rows(got, want)
