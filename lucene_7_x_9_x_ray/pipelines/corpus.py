"""Composed corpus-cleaning pipeline: the end-to-end training-data pass a
100 TB crawl gets before indexing/training — exact dedup, quality gating,
language gating — chained as ONE streaming Ray Data pipeline.

Shape (nothing materializes on the driver; no broadcast state):
  read documents
    -> content hash (map_batches)
    -> ONE keyed pass by text_md5 (common.keyed_reduce) that carries the
       text: inside each hash bucket, keep rows = doc_id == min(doc_id)
       of its hash group (pa group_by + pc.is_in), then quality metrics +
       profile language ID + gating, fused in the same call
    -> (doc_id, n_tokens, stop_ratio_r, lang) of the clean corpus

Every copy of a text shares its hash, so a hash bucket holds every
candidate for a keep decision: the documents are read once and shuffled
once, with no keep-side stream, union or second semi-join shuffle.
Memory per task is one bucket's rows — there is no O(distinct-docs)
driver set or object-store broadcast anywhere, so the plan holds at
10^12 docs regardless of dup rate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.rounding import round_half_away_np
from .common import HEAVY_ROWS_PER_BLOCK, keyed_reduce, sized_read
from .textops import LANG_PROFILES, QUALITY_STOPWORDS

CLEAN_MIN_TOKENS = 40
CLEAN_MAX_STOP_RATIO = 0.3
CLEAN_LANGS = ("lang_a", "lang_b")


def _clean_metrics(b: pa.Table) -> pa.Table:
    """Quality metrics + profile language ID + gating, one vectorized pass."""
    import pyarrow.compute as pc

    if b.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_tokens": pa.array([], pa.int64()),
             "stop_ratio_r": pa.array([], pa.float64()),
             "lang": pa.array([], pa.string())}
        )
    toks = pc.split_pattern(b["text"], pattern=" ")
    flat = toks.combine_chunks().flatten()
    parents = pc.list_parent_indices(toks.combine_chunks()).to_numpy()
    n = b.num_rows
    n_tokens = pc.list_value_length(toks).combine_chunks().to_numpy().astype(np.int64)
    stop_mask = pc.is_in(flat, value_set=pa.array(QUALITY_STOPWORDS)).to_numpy(
        zero_copy_only=False
    )
    stop_hits = np.bincount(parents[stop_mask], minlength=n).astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        stop_ratio = stop_hits / n_tokens
    # profile language ID (lexicographically-first argmax, 'und' if none)
    names = sorted(LANG_PROFILES)
    hits = np.zeros((len(names), n), dtype=np.int64)
    for li, nm in enumerate(names):
        m = pc.is_in(flat, value_set=pa.array(LANG_PROFILES[nm])).to_numpy(
            zero_copy_only=False
        )
        hits[li] = np.bincount(parents[m], minlength=n)
    best = np.argmax(hits, axis=0)  # first max wins (names sorted)
    any_hit = hits.max(axis=0) > 0
    langs = np.where(any_hit, np.asarray(names, dtype=object)[best], "und")

    ok = (
        (n_tokens >= CLEAN_MIN_TOKENS)
        & (stop_ratio <= CLEAN_MAX_STOP_RATIO)
        & np.isin(langs, list(CLEAN_LANGS))
    )
    sel = np.flatnonzero(ok)
    return pa.table(
        {
            "doc_id": b["doc_id"].take(pa.array(sel)),
            "n_tokens": pa.array(n_tokens[sel]),
            "stop_ratio_r": pa.array(round_half_away_np(stop_ratio[sel], 6), pa.float64()),
            "lang": pa.array(langs[sel], pa.string()),
        }
    )


def _keep_and_clean(t: pa.Table) -> pa.Table:
    """One text_md5 bucket: keep each hash group's min doc_id, then the
    fused clean metrics over the survivors."""
    import pyarrow.compute as pc

    keep = t.group_by("text_md5").aggregate([("doc_id", "min")])["doc_id_min"]
    return _clean_metrics(t.filter(pc.is_in(t["doc_id"], value_set=keep)))


def corpus_clean_dataset(sf_dir: str):
    """The whole clean pipeline as ONE lazy Dataset (see module docstring);
    pinned driver-materialization-free by
    tests/test_pipelines.py::test_corpus_clean_composition."""
    from .dedup import _add_text_md5, _text_md5_bucket

    src = sized_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
                     rows_per_block=HEAVY_ROWS_PER_BLOCK)
    hashed = src.map_batches(_add_text_md5, batch_format="pyarrow")
    return keyed_reduce(hashed, _text_md5_bucket, _keep_and_clean)


def q_corpus_clean(sf_dir: str) -> pa.Table:
    """Clean-corpus rows (doc_id, n_tokens, stop_ratio_r, lang) after
    exact dedup (keep min doc_id), quality gating (>= CLEAN_MIN_TOKENS
    tokens, stop ratio <= CLEAN_MAX_STOP_RATIO) and profile language
    gating (lang in CLEAN_LANGS)."""
    from .dedup import _to_table

    t = _to_table(corpus_clean_dataset(sf_dir))
    if t.num_rows == 0:
        return t
    return t.sort_by([("doc_id", "ascending")])


def oracle_corpus_clean_sql(relation: str = "documents") -> str:
    stops = " OR ".join(f"x = '{s}'" for s in QUALITY_STOPWORDS)
    names = sorted(LANG_PROFILES)
    hit_exprs = []
    for nm in names:
        cond = " OR ".join(f"x = '{t}'" for t in LANG_PROFILES[nm])
        hit_exprs.append(f"len(list_filter(arr, x -> {cond})) AS c_{nm}")
    # lexicographically-first argmax over the profile hit counts
    best = f"greatest({', '.join('c_' + n for n in names)})"
    lang_case = "CASE WHEN " + best + " = 0 THEN 'und' " + " ".join(
        f"WHEN c_{n} = {best} THEN '{n}'" for n in names
    ) + " END"
    langs_in = ",".join(f"'{l}'" for l in CLEAN_LANGS)
    return f"""WITH keep AS (SELECT min(doc_id) AS doc_id FROM {relation} GROUP BY md5(text)),
t AS (SELECT d.doc_id, string_split(d.text, ' ') AS arr
      FROM {relation} d JOIN keep USING (doc_id)),
m AS (SELECT doc_id, CAST(len(arr) AS BIGINT) AS n_tokens,
             CAST(len(list_filter(arr, x -> {stops})) AS DOUBLE) / len(arr) AS stop_ratio,
             {', '.join(hit_exprs)}
      FROM t)
SELECT doc_id, n_tokens, ROUND(stop_ratio, 6) AS stop_ratio_r, {lang_case} AS lang
FROM m
WHERE n_tokens >= {CLEAN_MIN_TOKENS} AND stop_ratio <= {CLEAN_MAX_STOP_RATIO}
  AND {lang_case} IN ({langs_in})"""
