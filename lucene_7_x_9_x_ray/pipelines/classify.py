"""Classification module: Lucene's classification package re-expressed
Ray-Data-first.

* ``SimpleNaiveBayesClassifier`` (s84 classification/src/java/org/apache/
  lucene/classification/SimpleNaiveBayesClassifier.java:48) — add-one
  smoothed multinomial-ish NB whose statistics are INDEX statistics:
  P(c) = docFreq(class:c) / docsWithClass and
  P(w|c) = (hits(w AND c) + 1) / (avgUniqueTermsPerDoc * docFreq(c)
  + docsWithClass), scored as logPrior + sum(log P(w|c)) over the input
  tokens and softmax-normalized (normClassificationResults, the
  log-sum-exp at SimpleNaiveBayesClassifier.java:283-309).

  Ray-Data shape: the training statistics are ONE streaming pass over the
  corpus — ``map_batches`` emits tiny per-batch partial count rows
  (class doc counts, per-(class, query-word) doc hits, distinct
  (doc, term) pair count) which one keyed pass (``keyed_reduce`` by
  (kind, key)) folds into the model. The corpus never shuffles; only
  (classes x query-vocab) count rows move. Classification of the (small)
  input set is then pure arithmetic against the model; corpus-wide, the
  (classes x vocab) log-probability arrays are built once on the driver,
  broadcast through ``ray.put`` and applied by a plain task
  ``map_batches``.

* ``KNearestNeighborClassifier`` (KNearestNeighborClassifier.java:98) —
  MoreLikeThis query from the input text, top-k BM25 hits over the index,
  then the vote fold of buildListFromTopDocs (java:192-238): per class
  count + sum(score/maxScore), score_c = (count * (boostSum/count)) / k,
  scaled by k/sumdoc when fewer than k hits carry a class. Class labels
  are stored-field reads (IndexSearcher.doc() at java:197) — here the
  searcher's ``lookup_docs`` docmap rows (the stored ``lang`` field).

Both gates are oracle-exact: double math with the same operation order
as DuckDB's ordered aggregates, rounded half-away at 6 decimals.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import md5_lower64_array
from ..functions.rounding import round_half_away
from .common import keyed_reduce, sized_read
from .dedup import _to_table

# classification corpus: the documents table; class field = lang,
# text field = text (space-tokenized, the repo-wide oracle convention)
NB_INPUT_DOCS = (3, 7, 42)
KNN_INPUT_DOCS = (7, 42)
KNN_K = 10


def _input_texts(sf_dir: str, doc_ids: tuple[int, ...]) -> dict[int, str]:
    import duckdb

    ids = ",".join(str(d) for d in doc_ids)
    rows = duckdb.sql(
        f"SELECT doc_id, text FROM '{sf_dir}/documents.parquet' "
        f"WHERE doc_id IN ({ids})"
    ).fetchall()
    return {int(d): t for d, t in rows}


# --- Naive Bayes: distributed index statistics ------------------------------


def _nb_partials(batch: pa.Table, vocab: np.ndarray) -> pa.Table:
    """Per-batch partial counts for the NB model, all Arrow/numpy:

    kind="cls"  key=lang            cnt=#docs of that class
    kind="hit"  key=lang+\\x1f+term cnt=#docs of class containing term
    kind="sdf"  key=""              cnt=#distinct (doc, term) pairs
    kind="docs" key=""              cnt=#docs with >=1 token
    """
    toks = pc.split_pattern(batch["text"], pattern=" ")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy()
    langs = np.asarray(batch["lang"].to_pylist(), dtype=object)

    kinds: list[str] = []
    keys: list[str] = []
    cnts: list[int] = []

    # class doc counts (lang is single-valued; nulls would be skipped the
    # way TermsEnum skips the empty class term, java:146)
    valid = np.array([l is not None and l != "" for l in langs], dtype=bool)
    cls, cls_n = np.unique(langs[valid].astype("U"), return_counts=True)
    kinds.extend(["cls"] * len(cls))
    keys.extend(cls.tolist())
    cnts.extend(int(x) for x in cls_n)

    # distinct (doc, term) pairs via (parent, token-code) dedup
    codes = pc.dictionary_encode(flat).combine_chunks().indices.to_numpy()
    if len(codes):
        width = int(codes.max()) + 1
        pair = parents.astype(np.int64) * width + codes
        first = np.unique(pair, return_index=True)[1]
    else:
        first = np.array([], dtype=np.int64)
    kinds.append("sdf")
    keys.append("")
    cnts.append(int(len(first)))

    n_tok = pc.list_value_length(toks).to_numpy()
    kinds.append("docs")
    keys.append("")
    cnts.append(int(np.count_nonzero(n_tok > 0)))

    # per-(class, query-word) doc hits over the DISTINCT pairs only
    if len(first):
        d_par = parents[first]
        d_tok = np.asarray(flat.take(pa.array(first)).to_pylist(), dtype=object)
        if vocab is None:  # full-vocabulary model (corpus classification)
            sel = valid[d_par]
        else:
            sel = np.isin(d_tok.astype("U"), vocab) & valid[d_par]
        if sel.any():
            combo = np.char.add(
                np.char.add(langs[d_par[sel]].astype("U"), "\x1f"),
                d_tok[sel].astype("U"),
            )
            hk, hn = np.unique(combo, return_counts=True)
            kinds.extend(["hit"] * len(hk))
            keys.extend(hk.tolist())
            cnts.extend(int(x) for x in hn)

    return pa.table(
        {
            "kind": pa.array(kinds, pa.string()),
            "key": pa.array(keys, pa.string()),
            "cnt": pa.array(cnts, pa.int64()),
        }
    )


def _nb_counts(sf_dir: str, vocab: set[str] | None) -> pa.Table:
    """One streaming corpus pass -> the NB statistics as a (kind, key,
    cnt) table. The keyed pass folds (classes x vocab)-sized partial rows,
    never corpus rows."""
    varr = None if vocab is None else np.array(sorted(vocab), dtype="U")
    ds = sized_read(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text", "lang"])
    parts = ds.map_batches(
        lambda b: _nb_partials(b, varr), batch_format="pyarrow"
    )

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by(["kind", "key"]).aggregate([("cnt", "sum")])
        return pa.table({"kind": g["kind"], "key": g["key"], "cnt": g["cnt_sum"]})

    return _to_table(keyed_reduce(
        parts, lambda b: md5_lower64_array(b["key"].to_pylist()), fold))


def nb_model(sf_dir: str, vocab: set[str] | None) -> dict:
    """The tiny NB model dict: {"cls": {lang: docs}, "hit": {(lang, term):
    docs}, "sdf": distinct (doc, term) pairs, "docs": docs with a token}.
    ``vocab=None`` keeps every corpus term (the corpus-classification
    model; fine while |classes| x |vocab| fits a worker — at web-scale
    vocabularies, swap the broadcast for a (class, term) equijoin)."""
    t = _nb_counts(sf_dir, vocab)
    model: dict = {"cls": {}, "hit": {}, "sdf": 0, "docs": 0}
    for kind, key, n in zip(t["kind"].to_pylist(), t["key"].to_pylist(),
                            t["cnt"].to_pylist()):
        if kind == "cls":
            model["cls"][key] = n
        elif kind == "hit":
            lang, term = key.split("\x1f", 1)
            model["hit"][(lang, term)] = n
        else:
            model[kind] = n
    return model


def nb_scores(tokens: list[str], model: dict) -> list[tuple[str, float]]:
    """assignClassNormalizedList (java:136-155): per class
    logPrior + logLikelihood, then the log-sum-exp softmax
    (normClassificationResults java:283). Returns (lang, prob) sorted
    score DESC, lang ASC — double ops in the reference's order."""
    docs_with_class = sum(model["cls"].values())  # single-valued class field
    avg_unique = model["sdf"] / float(model["docs"])  # java:233-242
    raw: list[tuple[str, float]] = []
    for lang in sorted(model["cls"]):
        dfc = model["cls"][lang]
        prior = math.log(float(dfc)) - math.log(float(docs_with_class))
        den = avg_unique * dfc + docs_with_class
        ll = 0.0
        for w in tokens:  # input order, sequential adds (java:204-224)
            num = model["hit"].get((lang, w), 0) + 1.0
            ll += math.log(num / den)
        # prior + completed sum (the oracle's `prior + sum(...)` op order)
        raw.append((lang, prior + ll))
    return softmax_norm(raw)


def softmax_norm(raw: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """normClassificationResults (java:283-309): sort desc, smax = best,
    log-sum-exp softmax with the fold in sorted order."""
    raw = sorted(raw, key=lambda x: (-x[1], x[0]))
    smax = raw[0][1]
    sum_exp = 0.0
    for _, v in raw:  # sorted order, sequential adds (java:295-298)
        sum_exp += math.exp(v - smax)
    loga = smax + math.log(sum_exp)
    return [(lang, math.exp(v - loga)) for lang, v in raw]


def q_classify_nb(sf_dir: str) -> pa.Table:
    """Gate: classify NB_INPUT_DOCS' texts against the corpus ->
    (input_doc, rank, lang, prob_r)."""
    texts = _input_texts(sf_dir, NB_INPUT_DOCS)
    vocab = set()
    tok_lists = {}
    for d, t in texts.items():
        tok_lists[d] = t.split(" ")
        vocab.update(tok_lists[d])
    model = nb_model(sf_dir, vocab)
    rows = {"input_doc": [], "rank": [], "lang": [], "prob_r": []}
    for d in NB_INPUT_DOCS:
        for r, (lang, prob) in enumerate(nb_scores(tok_lists[d], model), 1):
            rows["input_doc"].append(d)
            rows["rank"].append(r)
            rows["lang"].append(lang)
            rows["prob_r"].append(round_half_away(prob, 6))
    return pa.table(
        {
            "input_doc": pa.array(rows["input_doc"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "prob_r": pa.array(rows["prob_r"], pa.float64()),
        }
    )


# --- BM25NBClassifier: NB over BM25 query scores -----------------------------


def q_classify_bm25nb(sf_dir: str) -> pa.Table:
    """BM25NBClassifier (BM25NBClassifier.java:48): NB whose statistics
    are live BM25 QUERY SCORES against the index — the class field (lang)
    is indexed as its own single-token field, prior = ln(top-1 score of
    TermQuery(lang:c)) (java:223-232), and P(w|c) = top-1 score of
    `MUST lang:c SHOULD text:w` (java:208-221, 1 when no hit — cannot
    happen here since the class term always matches). clVal = prior +
    sum(ln P(w|c)) over input tokens, softmax-normalized. Gate ->
    (input_doc, rank, lang, prob_r)."""
    import duckdb

    from ..search import queries as Q
    from .flagship import get_searchers

    merged, _ = get_searchers(sf_dir)
    texts = _input_texts(sf_dir, NB_INPUT_DOCS)
    tok_lists = {d: t.split(" ") for d, t in texts.items()}
    vocab = sorted({w for ts in tok_lists.values() for w in ts})
    # class enumeration = the lang field's term dictionary (TermsEnum
    # order); equivalently the distinct non-empty lang values
    classes = [
        r[0]
        for r in duckdb.sql(
            f"SELECT DISTINCT lang FROM '{sf_dir}/documents.parquet' "
            "WHERE lang IS NOT NULL AND lang <> '' ORDER BY lang"
        ).fetchall()
    ]
    priors: dict[str, float] = {}
    log_prob: dict[tuple[str, str], float] = {}
    for c in classes:
        td = merged.search(Q.TermQuery(c, field="lang"), k=1)
        priors[c] = math.log(float(td.scores[0])) if len(td.doc_ids) else 0.0
        for w in vocab:
            q = Q.BooleanQuery.build(
                [(Q.MUST, Q.TermQuery(c, field="lang")),
                 (Q.SHOULD, Q.TermQuery(w))]
            )
            td = merged.search(q, k=1)
            p = float(td.scores[0]) if len(td.doc_ids) else 1.0
            log_prob[(c, w)] = math.log(p)
    rows = {"input_doc": [], "rank": [], "lang": [], "prob_r": []}
    for d in NB_INPUT_DOCS:
        raw = []
        for c in classes:
            ll = 0.0
            for w in tok_lists[d]:  # token order, sequential adds
                ll += log_prob[(c, w)]
            raw.append((c, priors[c] + ll))
        for r, (lang, prob) in enumerate(softmax_norm(raw), 1):
            rows["input_doc"].append(d)
            rows["rank"].append(r)
            rows["lang"].append(lang)
            rows["prob_r"].append(round_half_away(prob, 6))
    return pa.table(
        {
            "input_doc": pa.array(rows["input_doc"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "prob_r": pa.array(rows["prob_r"], pa.float64()),
        }
    )


# --- KNN classifier: MLT top-k + class vote ---------------------------------


def knn_vote(
    hit_scores: list[float], hit_classes: list[str], k: int
) -> list[tuple[str, int, float]]:
    """buildListFromTopDocs (java:192-238): per class count and
    sum(score/maxScore) folded in HIT ORDER; score_c = (count *
    (boostSum/count)) / k, scaled by k/sumdoc when sumdoc < k. Returns
    (lang, count, score) sorted score DESC, lang ASC."""
    if not hit_scores:
        return []
    max_score = float(hit_scores[0])
    counts: dict[str, int] = {}
    boosts: dict[str, float] = {}
    for s, c in zip(hit_scores, hit_classes):
        counts[c] = counts.get(c, 0) + 1
        boosts[c] = boosts.get(c, 0.0) + float(s) / max_score
    sumdoc = sum(counts.values())
    out = []
    for c in counts:
        norm_boost = boosts[c] / counts[c]  # java:224
        score = (counts[c] * norm_boost) / float(k)
        if sumdoc < k:  # correction, java:230-233
            score = score * k / float(sumdoc)
        out.append((c, counts[c], score))
    out.sort(key=lambda x: (-x[2], x[0]))
    return out


def q_classify_knn(sf_dir: str) -> pa.Table:
    """Gate: KNN-classify KNN_INPUT_DOCS' texts -> (input_doc, lang, cnt,
    score_r). MLT interesting-term selection (repo defaults = MLT
    defaults), BM25 top-KNN_K over the flagship index, class = the lang
    suffix of the stored facet_path doc value (source/lang)."""
    from ..search.mlt import mlt_query
    from .flagship import get_searchers

    merged, _ = get_searchers(sf_dir)
    texts = _input_texts(sf_dir, KNN_INPUT_DOCS)
    rows = {"input_doc": [], "lang": [], "cnt": [], "score_r": []}
    for d in KNN_INPUT_DOCS:
        query = mlt_query(merged, texts[d])
        td = merged.search(query, k=KNN_K)
        # stored-field class labels: IndexSearcher.doc(scoreDoc.doc)
        # .getFields(classFieldName) (java:197-199)
        classes = [r["lang"] for r in merged.lookup_docs(td.doc_ids)]
        for lang, cnt, score in knn_vote(
            [float(s) for s in td.scores], classes, KNN_K
        ):
            rows["input_doc"].append(d)
            rows["lang"].append(lang)
            rows["cnt"].append(cnt)
            rows["score_r"].append(round_half_away(score, 6))
    return pa.table(
        {
            "input_doc": pa.array(rows["input_doc"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
            "score_r": pa.array(rows["score_r"], pa.float64()),
        }
    )


# --- BooleanPerceptronClassifier: online binary perceptron -------------------


def perceptron_train(
    sf_dir: str,
    positive_lang: str = "en",
    bias: float | None = None,
) -> tuple[dict[str, float], float]:
    """BooleanPerceptronClassifier training (s84 classification/.../
    BooleanPerceptronClassifier.java:82-150): weights initialize to each
    term's totalTermFreq, bias defaults to sumTotalTermFreq/docCount (the
    average doc length), then ONE sequential pass over the training docs
    in index order — classify with the current weights, and on a
    misclassification nudge the doc's term weights by
    max(0, w + modifier * tf) (java:176), modifier = correct - assigned.

    The algorithm is inherently ONLINE (each update depends on every
    prior one), so the pass itself is a driver fold over a STREAMED
    Dataset (iter_batches, read order = doc order); both statistics
    passes (ttf init, bias) are distributed map_batches + groupby. This
    is the batchSize=1 configuration — weights take effect immediately
    (the reference's FST refresh cadence)."""
    import ray

    ds = sized_read(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text", "lang"])

    def ttf_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], pattern=" ")
        flat = pc.list_flatten(toks)
        t = pc.value_counts(flat)
        # the batch's doc count rides on the first row (groupby-summable)
        docs = [0] * len(t)
        if docs:
            docs[0] = batch.num_rows
        return pa.table(
            {
                "term": t.field("values"),
                "cnt": t.field("counts").cast(pa.int64()),
                "docs": pa.array(docs, pa.int64()),
            }
        )

    agg = ds.map_batches(ttf_partial, batch_format="pyarrow") \
            .groupby("term").sum(["cnt", "docs"])
    weights: dict[str, float] = {}
    total_tokens = 0
    total_docs = 0
    for row in agg.take_all():  # vocab-sized
        weights[row["term"]] = float(row["sum(cnt)"])
        total_tokens += int(row["sum(cnt)"])
        total_docs += int(row["sum(docs)"])
    if bias is None or bias == 0.0:
        bias = total_tokens / float(total_docs)  # java:93-96

    # the online pass: stream in doc order, fold on the driver
    for batch in ds.sort("doc_id").iter_batches(batch_format="pyarrow"):
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        for text, lang in zip(texts, langs):
            tokens = text.split(" ")
            output = 0.0
            for t in tokens:  # token order, duplicates counted (java:208)
                output += weights.get(t, 0.0)
            assigned = output >= bias
            correct = lang == positive_lang
            modifier = int(correct) - int(assigned)  # Boolean.compareTo
            if modifier != 0:
                tf: dict[str, int] = {}
                for t in tokens:
                    tf[t] = tf.get(t, 0) + 1
                for t, f in tf.items():
                    prev = weights.get(t)
                    weights[t] = 0.0 if prev is None else max(
                        0.0, prev + modifier * f
                    )
    return weights, float(bias)


def perceptron_assign(text: str, weights: dict[str, float],
                      bias: float) -> tuple[bool, float]:
    """assignClass (java:199-217): output = sum of token weights;
    class = output >= bias; score = 1 - exp(-|bias - output| / bias)."""
    output = 0.0
    for t in text.split(" "):
        output += weights.get(t, 0.0)
    score = 1.0 - math.exp(-1.0 * abs(bias - output) / bias)
    return output >= bias, score


def q_classify_perceptron(sf_dir: str) -> pa.Table:
    """Gate (rows-only: the training fold is order-dependent and not
    SQL-expressible): train on the corpus (positive class lang='en'),
    assign NB_INPUT_DOCS' texts -> (input_doc, assigned, score_r)."""
    weights, bias = perceptron_train(sf_dir)
    texts = _input_texts(sf_dir, NB_INPUT_DOCS)
    rows = {"input_doc": [], "assigned": [], "score_r": []}
    for d in NB_INPUT_DOCS:
        assigned, score = perceptron_assign(texts[d], weights, bias)
        rows["input_doc"].append(d)
        rows["assigned"].append(bool(assigned))
        rows["score_r"].append(round_half_away(score, 6))
    return pa.table(
        {
            "input_doc": pa.array(rows["input_doc"], pa.int64()),
            "assigned": pa.array(rows["assigned"], pa.bool_()),
            "score_r": pa.array(rows["score_r"], pa.float64()),
        }
    )


# --- corpus-wide NB classification: broadcast arrays + map_batches -----------


def _nb_arrays(t: pa.Table) -> dict:
    """(kind, key, cnt) counts -> the corpus-apply arrays, built once on
    the driver: sorted classes, sorted vocab, the (classes x vocab)
    log-probability matrix, and per-class prior and unseen-term logs.
    Each entry is ``math.log`` of the same double the pointwise
    ``nb_scores`` takes the log of, so both paths add identical terms."""
    kind = t["kind"]
    cls = t.filter(pc.equal(kind, "cls")).sort_by("key")
    sd = t.filter(pc.is_in(kind, pa.array(["sdf", "docs"])))
    scal = dict(zip(sd["kind"].to_pylist(), sd["cnt"].to_pylist()))
    classes = np.array(cls["key"].to_pylist(), dtype="U")
    dfc = cls["cnt"].to_numpy().astype(np.float64)
    dwc = float(dfc.sum())
    den = scal["sdf"] / float(scal["docs"]) * dfc + dwc
    prior = np.array([math.log(d) - math.log(dwc) for d in dfc.tolist()])
    miss = np.array([math.log(1.0 / d) for d in den.tolist()])
    hit = t.filter(pc.equal(kind, "hit"))
    parts = pc.split_pattern(hit["key"], "\x1f", max_splits=1)
    langs = np.array(pc.list_element(parts, 0).to_pylist(), dtype="U")
    terms = np.array(pc.list_element(parts, 1).to_pylist(), dtype="U")
    vocab = np.unique(terms)
    ci = np.searchsorted(classes, langs)
    vi = np.searchsorted(vocab, terms)
    logp = np.repeat(miss[:, None], len(vocab), axis=1)
    ratio = (hit["cnt"].to_numpy().astype(np.float64) + 1.0) / den[ci]
    logp[ci, vi] = [math.log(x) for x in ratio.tolist()]
    return {"classes": classes, "vocab": vocab, "logp": logp,
            "prior": prior, "miss": miss}


def _nb_classify(batch: pa.Table, arrays_ref) -> pa.Table:
    """Classify one Arrow batch with the broadcast ``_nb_arrays``:
    explode + searchsorted + per-class segmented reduceat (token sums in
    document order — the oracle's ordered aggregate), then the per-row
    softmax/argmax (|classes|-sized, bounded). Appends (predicted,
    prob_r); every input column but ``text`` passes through."""
    import ray

    m = ray.get(arrays_ref)
    classes, vocab, logp, prior, miss = (
        m["classes"], m["vocab"], m["logp"], m["prior"], m["miss"])
    toks = pc.split_pattern(batch["text"], pattern=" ")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy()
    n = batch.num_rows
    terms = flat.to_numpy(zero_copy_only=False).astype("U")
    idx = np.searchsorted(vocab, terms)
    idx_c = np.minimum(idx, len(vocab) - 1)
    known = vocab[idx_c] == terms
    starts = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]]) \
        if len(parents) else np.array([], np.int64)
    clv = np.tile(prior[:, None], (1, n))
    for ci in range(len(classes)):
        vals = np.where(known, logp[ci][idx_c], miss[ci])
        if len(starts):
            # reduceat folds LEFT-TO-RIGHT inside each doc segment —
            # the oracle's sum(... ORDER BY pos) op order
            sums = np.add.reduceat(vals, starts)
            clv[ci, parents[starts]] = prior[ci] + sums
    names = classes.tolist()
    out_lang, out_prob = [], []
    for i in range(n):  # |classes|-bounded per row (softmax + argmax)
        lang, prob = softmax_norm(
            [(c, float(clv[ci, i])) for ci, c in enumerate(names)]
        )[0]
        out_lang.append(lang)
        out_prob.append(round_half_away(prob, 6))
    return batch.drop_columns(["text"]) \
        .append_column("predicted", pa.array(out_lang, pa.string())) \
        .append_column("prob_r", pa.array(out_prob, pa.float64()))


def _nb_classified(sf_dir: str, columns: list[str]):
    """Every corpus doc NB-classified: the model trains in one keyed
    pass, its arrays broadcast once via ray.put, and a plain task
    map_batches applies them corpus-wide."""
    import ray

    ref = ray.put(_nb_arrays(_nb_counts(sf_dir, vocab=None)))
    ds = sized_read(f"{sf_dir}/documents.parquet", columns=columns)
    return ds.map_batches(_nb_classify, fn_args=(ref,), batch_size=512,
                          batch_format="pyarrow")


def q_classify_nb_corpus(sf_dir: str) -> pa.Table:
    """Gate: NB-classify EVERY corpus doc (argmax class + softmax prob):
    (doc_id, lang, prob_r)."""
    t = _to_table(_nb_classified(sf_dir, ["doc_id", "text"]))
    return t.rename_columns(["doc_id", "lang", "prob_r"]) \
        .sort_by([("doc_id", "ascending")])


def q_classify_confusion(sf_dir: str) -> pa.Table:
    """ConfusionMatrixGenerator analogue (s84 classification/src/java/org/
    apache/lucene/classification/utils/ConfusionMatrixGenerator.java:58):
    NB-classify every corpus doc and cross-tabulate actual vs predicted
    class: (actual, predicted, n). The matrix is a Ray groupby over the
    per-doc (actual, predicted) pairs — the classifier stage carries
    the actual label through, so no join is ever needed; only
    |classes|^2 rows reach the driver."""
    from ray.data.aggregate import Count

    out = (
        _nb_classified(sf_dir, ["doc_id", "text", "lang"])
        .groupby(["lang", "predicted"])
        .aggregate(Count(alias_name="n"))
    )
    t = _to_table(out).select(["lang", "predicted", "n"])
    return t.rename_columns(["actual", "predicted", "n"]).cast(
        pa.schema([("actual", pa.string()), ("predicted", pa.string()),
                   ("n", pa.int64())])
    ).sort_by([("actual", "ascending"), ("predicted", "ascending")])


# DatasetSplitter ratios: 10% test, 10% cross-validation, rest train
SPLIT_TEST_MOD = 1000
SPLIT_TEST_LT = 100   # bucket < 100 -> test
SPLIT_CV_LT = 200     # 100 <= bucket < 200 -> cv


def q_dataset_split(sf_dir: str) -> pa.Table:
    """DatasetSplitter analogue (s84 classification/src/java/org/apache/
    lucene/classification/utils/DatasetSplitter.java:45): partition the
    corpus into train/test/cross-validation sets. The reference samples
    randomly per doc; here the assignment is a deterministic hash bucket
    (re-runs, resumes and cluster size never move a doc between splits —
    the property a resumable 100-TB split needs). Returns per-(lang,
    split) counts: (lang, split, n) — the stratification audit a real
    splitter run reports."""
    from ray.data.aggregate import Count

    from ..functions.hashing import md5_lower64_array

    def assign(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy()
        buckets = md5_lower64_array(
            np.asarray([f"split:{int(d)}" for d in doc_ids], dtype=object)
        ) % np.uint64(SPLIT_TEST_MOD)
        split = np.where(
            buckets < SPLIT_TEST_LT, "test",
            np.where(buckets < SPLIT_CV_LT, "cv", "train"),
        )
        return pa.table(
            {
                "lang": batch["lang"],
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    out = (
        sized_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby(["lang", "split"])
        .aggregate(Count(alias_name="n"))
    )
    return _to_table(out).select(["lang", "split", "n"]).cast(
        pa.schema([("lang", pa.string()), ("split", pa.string()),
                   ("n", pa.int64())])
    ).sort_by([("lang", "ascending"), ("split", "ascending")])
