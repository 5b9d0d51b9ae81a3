"""Driver contract for the graft builder (Ray Data target).

The driver calls ``entry()`` as a smoke check (Ray already initialised),
runs each ``queries()[name](sf_dir)`` at sf=0.01 and compares against the
matching ``oracle_sql()[name]`` via DuckDB (row-count + schema +
order-insensitive value-hash). Column names/types match on both sides by
construction; float columns are rounded (``*_r``) on both sides.

No ray.init()/ray.shutdown() here or in the library (driver owns the
session); perfbench/run.py and tests own their own sessions.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline at sf0.001: pages -> Ray segment build (lineage
    docIDs, resume) -> salted term-shuffle merge -> BM25 top-k for the
    reference query set."""
    from lucene_7_x_9_x_ray.pipelines import flagship

    return flagship.q_bm25_topk(SF_SMOKE)


def queries() -> dict[str, Callable[[str], Any]]:
    from lucene_7_x_9_x_ray.pipelines import ann, classify, corpus, curation, dedup, flagship, monitor, multimodal, relational, textops

    return {
        # --- full-text engine (index-backed) ---
        "bm25_topk": flagship.q_bm25_topk,
        "bm25_topk_served": flagship.q_bm25_topk_served,  # actor-pool serving stage
        "bm25_topk_after_append": flagship.q_bm25_topk_after_append,  # NRT reopen path
        "bm25_topk_pfor": flagship.q_bm25_topk_pfor,  # PFOR codec-SPI variant index
        "phrase_topk": flagship.q_phrase_topk,
        "multiphrase_topk": flagship.q_multiphrase_topk,  # per-position term disjunction
        "phrase_sloppy_topk": flagship.q_phrase_sloppy_topk,  # repeats path (rptGroups)
        "phrase_sloppy2_topk": flagship.q_phrase_sloppy2_topk,  # 2-term: oracle-exact
        "scoring_variants": flagship.q_scoring_variants,
        "boolean_counts": flagship.q_boolean_counts,
        "term_stats": flagship.q_term_stats,
        "postings": flagship.q_postings,
        "doc_lengths": flagship.q_doc_lengths,
        "multiterm_match": flagship.q_multiterm_match,
        "field_exists_match": flagship.q_field_exists_match,  # IS NOT NULL twin
        "bm25_lang_filtered": flagship.q_bm25_lang_filtered,
        "bm25_ts_filtered": flagship.q_bm25_ts_filtered,  # numeric-range FILTER clause
        "field_topk": flagship.q_field_topk,  # multi-field (title vs body)
        "parsed_topk": flagship.q_parsed_topk,  # classic query-parser strings
        "parsed_topk_served": flagship.q_parsed_topk_served,  # parse at the actor
        "simple_topk": flagship.q_simple_topk,  # SimpleQueryParser (+ | - syntax)
        "similarity_topk": flagship.q_similarity_topk,  # TFIDF + 7.x BM25 registry
        "commonterms_topk": flagship.q_commonterms_topk,  # df-split high/low frequency query
        "blended_topk": flagship.q_blended_topk,  # cross-field blended term statistics
        "similarity_topk_served": flagship.q_similarity_topk_served,  # setSimilarity at the actor
        "function_topk": flagship.q_function_topk,  # FunctionScoreQuery (log1p dl boost)
        "feature_topk": flagship.q_feature_topk,  # FeatureField static-feature ranking
        "covering_topk": flagship.q_covering_topk,  # sandbox CoveringQuery (dynamic msm)
        "rescored_topk": flagship.q_rescored_topk,  # QueryRescorer two-phase ranking
        "sort_rescored_topk": flagship.q_sort_rescored_topk,  # SortRescorer
        "diversified_topk": flagship.q_diversified_topk,  # max-N-per-key top-k
        "wordbreak": flagship.q_wordbreak,  # WordBreakSpellChecker break/combine
        "complexphrase_topk": flagship.q_complexphrase_topk,  # wildcard/fuzzy phrases
        "dv_update": flagship.q_dv_update,  # updateNumericDocValue patch paths
        "expr_topk": flagship.q_expr_topk,  # expressions-module compiled arithmetic
        "mlt_topk": flagship.q_mlt_topk,  # MoreLikeThis query-by-document
        "facet_lang": flagship.q_facet_lang,
        "facet_length_ranges": flagship.q_facet_length_ranges,  # numeric range facets
        "facet_taxonomy": flagship.q_facet_taxonomy,  # hierarchical path rollup
        "facet_drilldown": flagship.q_facet_drilldown,  # DrillDownQuery subtree filter
        "facet_drillsideways": flagship.q_facet_drillsideways,  # DrillSideways
        "facet_tags": flagship.q_facet_tags,  # SORTED_SET multi-valued facets
        "facet_value_counts": flagship.q_facet_value_counts,  # LongValueFacetCounts
        "facet_assoc": flagship.q_facet_assoc,  # int-association sum facets
        "bm25_tags_filtered": flagship.q_bm25_tags_filtered,  # SORTED_SET FILTER
        "grouped_topk": flagship.q_grouped_topk,
        "interval_topk": flagship.q_interval_topk,  # queries/intervals module
        "geo_match": flagship.q_geo_match,  # LatLonPoint distance/box predicates
        "geo_nearest": flagship.q_geo_nearest,  # LatLonDocValuesField distance sort
        "synonym_topk": flagship.q_synonym_topk,  # QueryBuilder synonym expansion
        "high_freq_terms": flagship.q_high_freq_terms,  # misc/HighFreqTerms
        "dv_stats": flagship.q_dv_stats,  # misc/DocValuesStats
        "span_topk": flagship.q_span_topk,  # search/spans module
        "surround_topk": flagship.q_surround_topk,  # surround span-syntax parser
        "termautomaton_topk": flagship.q_termautomaton_topk,  # sandbox TermAutomatonQuery
        "expr_sort_topn": flagship.q_expr_sort_topn,  # Expression.getSortField
        "multifield_topk": flagship.q_multifield_topk,  # MultiFieldQueryParser
        "numeric_set_topk": flagship.q_numeric_set_topk,  # PointInSetQuery role
        "xml_topk": flagship.q_xml_topk,  # queryparser/xml CoreParser
        "function_range_topk": flagship.q_function_range_topk,  # FunctionRangeQuery
        "payload_topk": flagship.q_payload_topk,  # queries/payloads module
        "payload_check": flagship.q_payload_check,  # SpanPayloadCheckQuery
        "join_topk": flagship.q_join_topk,  # JoinUtil scored query-time join
        "revenue_by_nation": relational.q_revenue_by_nation,  # 2-hop hash join chain
        "brand_returned_revenue": relational.q_brand_returned_revenue,  # part join
        "supplier_stats_by_nation": relational.q_supplier_stats_by_nation,
        "customer_supplier_pairs": relational.q_customer_supplier_pairs,  # M:N + hot-key salting
        "blockjoin_topk": flagship.q_blockjoin_topk,  # join module: nested doc blocks
        "tochild_topk": flagship.q_tochild_topk,  # inverse block join
        "bm25_topk_docsonly": flagship.q_bm25_topk_docsonly,  # IndexOptions.DOCS
        "suggest_completion": flagship.q_suggest_completion,  # suggest module
        "suggest_context": flagship.q_suggest_context,  # ContextSuggestField
        "spellcheck": flagship.q_spellcheck,  # DirectSpellChecker
        "suggest_infix": flagship.q_suggest_infix,  # AnalyzingInfixSuggester analogue
        "suggest_blended": flagship.q_suggest_blended,  # BlendedInfixSuggester
        "suggest_fuzzy": flagship.q_suggest_fuzzy,  # FuzzySuggester (Levenshtein prefix)
        "suggest_freetext": flagship.q_suggest_freetext,  # stupid-backoff ngram model
        "classify_nb": classify.q_classify_nb,  # SimpleNaiveBayesClassifier
        "classify_knn": classify.q_classify_knn,  # KNearestNeighborClassifier
        "classify_bm25nb": classify.q_classify_bm25nb,  # BM25NBClassifier
        "classify_perceptron": classify.q_classify_perceptron,  # rows-only (online fold)
        "classify_nb_corpus": classify.q_classify_nb_corpus,  # corpus-wide broadcast apply
        "classify_confusion": classify.q_classify_confusion,  # ConfusionMatrixGenerator
        "dataset_split": classify.q_dataset_split,  # DatasetSplitter train/test/cv
        "percolate": monitor.q_percolate,  # monitor module: registered-query stream
        # --- training-data text ops ---
        "corpus_clean": corpus.q_corpus_clean,  # composed dedup+quality+lang pass
        "doc_stats": textops.q_doc_stats,
        "lang_id": textops.q_lang_id,
        "fingerprint": textops.q_fingerprint,
        "highlight_corpus": textops.q_highlight_corpus,  # UnifiedHighlighter
        "decontaminate": curation.q_decontaminate,  # benchmark n-gram decontamination
        "stratified_sample": curation.q_stratified_sample,  # hash-threshold sampling
        "mixture_sample": curation.q_mixture_sample,  # token-budget source mixing
        "chunk_windows": curation.q_chunk_windows,  # fixed-window doc chunking
        "pack_sequences": curation.q_pack_sequences,  # concat-and-chunk packing
        "source_caps": curation.q_source_caps,  # per-host document caps
        "corpus_to_sequences": curation.q_corpus_to_sequences,  # filter -> pack
        "quality_filter": textops.q_quality_filter,  # Gopher repetition rules
        "stem_es_tokens": textops.q_stem_es_tokens,  # Savoy Spanish light stemmer
        # --- dedup suite ---
        "exact_dedup": dedup.q_exact_dedup,
        "line_dedup": dedup.q_line_dedup,  # C4-style sub-document line dedup
        "jaccard_pairs": dedup.q_jaccard_pairs,
        "minhash_lsh_pairs": dedup.q_minhash_lsh_pairs,  # rows-only (LSH recall)
        "simhash_pairs": dedup.q_simhash_pairs,
        "embed_dup_pairs": dedup.q_embed_dup_pairs,
        "embed_dup_lsh_pairs": dedup.q_embed_dup_lsh_pairs,  # rows-only (LSH recall)
        # --- similarity search ---
        "ann_brute_topk": ann.q_ann_brute_topk,
        "ann_filtered_topk": ann.q_ann_filtered_topk,  # KnnFloatVectorQuery(filter)
        "ann_ivf_topk": ann.q_ann_ivf_topk,
        "ann_hnsw_topk": ann.q_ann_hnsw_topk,  # rows-only (graph recall)
        # --- relational companions ---
        "semi_join": relational.q_semi_join,
        "lineitem_pricing": relational.q_lineitem_pricing,
        "latest_event_per_user": relational.q_latest_event_per_user,
        "event_type_agg": relational.q_event_type_agg,
        "event_window_agg": relational.q_event_window_agg,
        "sort_topn_docs": relational.q_sort_topn_docs,
        # --- multimodal plumbing ---
        "multimodal_meta": multimodal.q_multimodal_meta,
        "multimodal_resize": multimodal.q_multimodal_resize,  # letterbox geometry
        "multimodal_frames": multimodal.q_multimodal_frames,  # frame-sample fan-out
    }


def _title_tokens() -> int:
    from lucene_7_x_9_x_ray.sources.pages import TITLE_TOKENS

    return TITLE_TOKENS


def oracle_sql() -> dict[str, str]:
    from lucene_7_x_9_x_ray.pipelines import ann, classify, corpus, curation, dedup, flagship, monitor, multimodal, relational, textops
    from lucene_7_x_9_x_ray.pipelines import oracles as O

    multiterm_specs = [
        ("prefix_ta", "t.term LIKE 'ta%'"),
        ("wildcard_s_w", "t.term LIKE 's%w'"),
        ("fuzzy_tabel_1", "levenshtein(t.term, 'tabel') <= 1"),
        ("range_q_to_t", "t.term >= 'q' AND t.term <= 't'"),
        ("regexp_av", "regexp_full_match(t.term, '[av].*e')"),
        ("inset_3", "t.term IN ('table', 'key', 'zzznosuch')"),
    ]
    return {
        "bm25_topk": O.bm25_topk_sql(flagship.BM25_QUERY_SPECS),
        # NRT gate: appended index must equal a from-scratch build of the
        # union, i.e. the SAME oracle as bm25_topk over the full table
        "bm25_topk_after_append": O.bm25_topk_sql(flagship.BM25_QUERY_SPECS),
        # PFOR variant index: encoding never touches scores, so the oracle
        # is exactly bm25_topk's
        "bm25_topk_pfor": O.bm25_topk_sql(flagship.BM25_QUERY_SPECS),
        "bm25_topk_served": O.bm25_topk_sql(
            [s for s in flagship.BM25_QUERY_SPECS if s[3] == 0]
        ),
        "phrase_topk": O.phrase_topk_sql(flagship.PHRASE_SPECS),
        "multiphrase_topk": O.multiphrase_topk_sql(flagship.MULTIPHRASE_SPECS),
        "phrase_sloppy_topk": O.sloppy_phrase_rpt_topk_sql(flagship.SLOPPY_PHRASE_SPECS),
        "phrase_sloppy2_topk": O.sloppy_phrase2_topk_sql(flagship.SLOPPY_PHRASE2_SPECS),
        "scoring_variants": O.scoring_variants_sql(
            *flagship.SCORING_VARIANT_TERMS, flagship.SCORING_VARIANTS_K
        ),
        "boolean_counts": O.boolean_counts_sql(flagship.BOOLEAN_COUNT_SPECS),
        "term_stats": O.term_stats_sql(),
        "postings": O.postings_sql(flagship.POSTINGS_TERMS),
        "doc_lengths": O.doc_lengths_sql(),
        "multiterm_match": O.multiterm_match_sql(multiterm_specs),
        "field_exists_match": O.field_exists_sql(),
        "bm25_lang_filtered": O.lang_filtered_topk_sql(
            list(flagship.LANG_FILTER_TERMS), flagship.LANG_FILTER_LANG,
            flagship.LANG_FILTER_K,
        ),
        "bm25_ts_filtered": O.filtered_topk_sql(
            list(flagship.TS_FILTER_TERMS), flagship.TS_FILTER_WHERE_SQL,
            flagship.TS_FILTER_K,
        ),
        "field_topk": O.field_topk_sql(flagship.FIELD_TOPK_SPECS),
        "mlt_topk": O.mlt_topk_sql(flagship.MLT_SRC_DOC, flagship.MLT_K),
        "function_topk": O.function_topk_sql(
            list(flagship.FUNCTION_TOPK_TERMS), flagship.FUNCTION_TOPK_K
        ),
        "feature_topk": O.feature_topk_sql(
            flagship.FEATURE_TOPK_SPECS, flagship.FEATURE_TOPK_K
        ),
        "covering_topk": O.covering_topk_sql(
            flagship.COVERING_TERMS, flagship.COVERING_K
        ),
        "complexphrase_topk": O.complexphrase_topk_sql(flagship.COMPLEXPHRASE_SPECS),
        "dv_update": O.dv_update_sql(
            flagship.DV_UPDATE_TERM, flagship.DV_UPDATE_RANGE,
            flagship.DV_UPDATE_FILTER_LO, flagship.DV_UPDATE_K,
        ),
        "wordbreak": O.wordbreak_sql(
            flagship.WORDBREAK_BREAK_SPECS, flagship.WORDBREAK_COMBINE_SPECS,
        ),
        "diversified_topk": O.diversified_topk_sql(
            flagship.DIVERSIFIED_TERMS, flagship.DIVERSIFIED_K,
            flagship.DIVERSIFIED_MAX_PER_KEY,
        ),
        "sort_rescored_topk": O.sort_rescored_topk_sql(
            flagship.RESCORE_FIRST_TERMS, flagship.RESCORE_FIRST_K,
            flagship.RESCORE_TOP_N,
        ),
        "rescored_topk": O.rescored_topk_sql(
            flagship.RESCORE_FIRST_TERMS, flagship.RESCORE_QUERY_TERM,
            flagship.RESCORE_WEIGHT, flagship.RESCORE_FIRST_K,
            flagship.RESCORE_TOP_N,
        ),
        "expr_topk": O.expression_topk_sql(
            list(flagship.EXPR_TOPK_TERMS), flagship.EXPR_TOPK_K
        ),
        "parsed_topk": O.field_topk_sql(
            [(qid, kind, cls, k) for qid, _s, kind, cls, k in flagship.PARSED_TOPK_SPECS]
        ),
        "commonterms_topk": O.commonterms_topk_sql(flagship.COMMONTERMS_SPECS),
        "blended_topk": O.blended_topk_sql(flagship.BLENDED_SPECS),
        "similarity_topk": O.similarity_topk_sql(
            *flagship.SIMILARITY_TOPK_TERMS, flagship.SIMILARITY_TOPK_K
        ),
        "similarity_topk_served": O.similarity_topk_sql(
            *flagship.SIMILARITY_TOPK_TERMS, flagship.SIMILARITY_TOPK_K
        ),
        "parsed_topk_served": O.field_topk_sql(
            [(qid, kind, cls, k) for qid, _s, kind, cls, k in flagship.PARSED_TOPK_SPECS]
        ),
        "simple_topk": O.field_topk_sql(
            [(qid, kind, cls, k) for qid, _s, kind, cls, k in flagship.SIMPLE_TOPK_SPECS]
            + [(flagship.SIMPLE_FIELDS_SPEC[0], flagship.SIMPLE_FIELDS_SPEC[2],
                flagship.SIMPLE_FIELDS_SPEC[3], flagship.SIMPLE_FIELDS_SPEC[4])]
        ),
        "interval_topk": O.interval_topk_sql(flagship.INTERVAL_TOPK_SPECS),
        "geo_match": O.geo_match_sql(
            flagship.GEO_CENTER, flagship.GEO_RADIUS_M, flagship.GEO_BOX,
            flagship.GEO_POLYGON,
        ),
        "geo_nearest": O.geo_nearest_sql(flagship.GEO_CENTER, flagship.GEO_K),
        "synonym_topk": O.synonym_topk_sql(
            [
                (qid, flagship.synonym_positions(text, syn), kind, k)
                for qid, text, syn, kind, k in flagship.SYNONYM_TOPK_SPECS
            ]
        ),
        "high_freq_terms": O.high_freq_terms_sql(flagship.HIGH_FREQ_N),
        "dv_stats": O.dv_stats_sql(),
        "payload_topk": O.payload_topk_sql(flagship.PAYLOAD_TOPK_SPECS),
        "payload_check": O.payload_check_sql(flagship.PAYLOAD_CHECK_SPECS),
        "blockjoin_topk": O.blockjoin_topk_sql(
            flagship.BLOCKJOIN_TOPK_SPECS, flagship.BLOCKJOIN_CHUNK_W,
            flagship.BLOCKJOIN_PARENT_TEXT,
        ),
        "tochild_topk": O.tochild_topk_sql(
            flagship.TOCHILD_TOPK_SPECS, flagship.BLOCKJOIN_CHUNK_W,
            flagship.BLOCKJOIN_PARENT_TEXT,
        ),
        "span_topk": O.span_topk_sql(flagship.SPAN_TOPK_SPECS),
        "expr_sort_topn": O.expr_sort_topn_sql(flagship.EXPR_SORT_K),
        "multifield_topk": O.multifield_topk_sql(flagship.MULTIFIELD_TOPK_SPECS),
        "xml_topk": O.xml_topk_sql(flagship.XML_K),
        "function_range_topk": O.function_range_topk_sql(
            flagship.FNRANGE_TERM, flagship.FNRANGE_LO, flagship.FNRANGE_HI,
            flagship.FNRANGE_K,
        ),
        "numeric_set_topk": O.numeric_set_topk_sql(
            flagship.NUMSET_TERM, flagship.NUMSET_VALUES, flagship.NUMSET_K
        ),
        "termautomaton_topk": O.termautomaton_topk_sql(
            flagship.TERMAUTOMATON_SPECS, flagship.TERMAUTOMATON_K
        ),
        "surround_topk": O.span_topk_sql(
            [
                (qid, kind, clauses, param, flagship.SURROUND_K)
                for qid, _text, (kind, clauses, param) in flagship.SURROUND_TOPK_SPECS
            ]
        ),
        "bm25_topk_docsonly": O.bm25_docsonly_topk_sql(flagship.BM25_QUERY_SPECS),
        "suggest_completion": O.completion_sql(flagship.COMPLETION_SPECS),
        "suggest_context": O.suggest_context_sql(flagship.CONTEXT_COMPLETION_SPECS),
        "spellcheck": O.spellcheck_sql(flagship.SPELLCHECK_SPECS),
        "stem_es_tokens": textops.oracle_stem_es_sql(),
        "suggest_infix": O.suggest_infix_sql(flagship.INFIX_SPECS, 8),
        "suggest_blended": O.suggest_blended_sql(
            flagship.BLENDED_INFIX_SPECS, _title_tokens()
        ),
        "suggest_fuzzy": O.fuzzy_suggest_sql(flagship.FUZZY_SUGGEST_SPECS),
        "suggest_freetext": O.freetext_suggest_sql(flagship.FREETEXT_SPECS),
        "classify_nb": O.classify_nb_sql(classify.NB_INPUT_DOCS),
        "classify_knn": O.classify_knn_sql(classify.KNN_INPUT_DOCS, classify.KNN_K),
        "classify_bm25nb": O.classify_bm25nb_sql(classify.NB_INPUT_DOCS),
        "classify_nb_corpus": O.classify_nb_corpus_sql(),
        "classify_confusion": O.classify_confusion_sql(),
        "dataset_split": O.dataset_split_sql(),
        "percolate": O.percolate_sql(),
        "facet_lang": O.facet_lang_sql(flagship.FACET_TERM),
        "facet_assoc": O.facet_assoc_sql(flagship.FACET_TERM),
        "facet_length_ranges": O.facet_range_sql(
            flagship.FACET_TERM, flagship.FACET_RANGE_EDGES, flagship.FACET_RANGE_LABELS
        ),
        "facet_taxonomy": O.facet_taxonomy_sql(flagship.FACET_TERM),
        "join_topk": O.join_topk_sql(flagship.JOIN_FROM_TERM, flagship.JOIN_TOPK_K),
        "revenue_by_nation": relational.oracle_revenue_by_nation_sql(),
        "brand_returned_revenue": relational.oracle_brand_returned_revenue_sql(),
        "supplier_stats_by_nation": relational.oracle_supplier_stats_sql(),
        "customer_supplier_pairs": relational.oracle_customer_supplier_pairs_sql(),
        "facet_drillsideways": O.facet_drillsideways_sql(
            flagship.FACET_TERM, flagship.DRILLDOWN_PATH
        ),
        "facet_tags": O.facet_tags_sql(flagship.FACET_TERM),
        "facet_value_counts": O.facet_value_counts_sql(
            flagship.FACET_TERM, flagship.FACET_VALUE_K
        ),
        "bm25_tags_filtered": O.filtered_topk_sql(
            list(flagship.TAGS_FILTER_TERMS),
            O.tags_where_sql(flagship.TAGS_FILTER_VALUE),
            flagship.TAGS_FILTER_K,
        ),
        "facet_drilldown": O.filtered_topk_sql(
            [flagship.FACET_TERM], f"source = '{flagship.DRILLDOWN_PATH}'",
            flagship.DRILLDOWN_K,
        ),
        "grouped_topk": O.grouped_topk_sql(
            flagship.GROUPED_TOPK_TERMS, flagship.GROUPED_TOPK_PER_GROUP
        ),
        "corpus_clean": corpus.oracle_corpus_clean_sql(),
        "doc_stats": textops.oracle_doc_stats_sql(),
        "lang_id": textops.oracle_lang_id_sql(),
        "decontaminate": curation.oracle_decontaminate_sql(),
        "stratified_sample": curation.oracle_stratified_sample_sql(),
        "mixture_sample": curation.oracle_mixture_sample_sql(),
        "chunk_windows": curation.oracle_chunk_windows_sql(),
        "pack_sequences": curation.oracle_pack_sequences_sql(),
        "source_caps": curation.oracle_source_caps_sql(),
        "corpus_to_sequences": curation.oracle_corpus_to_sequences_sql(),
        "quality_filter": textops.oracle_quality_filter_sql(),
        "fingerprint": textops.oracle_fingerprint_sql(),
        "highlight_corpus": textops.oracle_highlight_sql(),
        "exact_dedup": dedup.oracle_exact_dedup_sql(),
        "line_dedup": dedup.oracle_line_dedup_sql(),
        "jaccard_pairs": dedup.oracle_jaccard_pairs_sql(),
        "simhash_pairs": dedup.oracle_simhash_pairs_sql(),
        "embed_dup_pairs": dedup.oracle_embed_dup_sql(),
        "ann_brute_topk": ann.oracle_ann_sql(ann.BRUTE_QUERY_IDS),
        "ann_filtered_topk": ann.oracle_ann_filtered_sql(
            ann.BRUTE_QUERY_IDS, ann.ANN_FILTER_LABEL
        ),
        "ann_ivf_topk": ann.oracle_ann_sql(ann.IVF_QUERY_IDS),
        "semi_join": relational.oracle_semi_join_sql(),
        "lineitem_pricing": relational.oracle_lineitem_pricing_sql(),
        "latest_event_per_user": relational.oracle_latest_event_sql(),
        "event_type_agg": relational.oracle_event_type_agg_sql(),
        "event_window_agg": relational.oracle_event_window_agg_sql(),
        "sort_topn_docs": relational.oracle_sort_topn_sql(),
        "multimodal_meta": multimodal.oracle_multimodal_sql(),
        "multimodal_resize": multimodal.oracle_multimodal_resize_sql(),
        "multimodal_frames": multimodal.oracle_multimodal_frames_sql(),
    }
