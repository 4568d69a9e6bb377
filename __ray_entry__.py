"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship linkage pipeline on sf0.001;
``queries()``/``oracle_sql()`` expose every implemented operator from
SURVEY.md §2 plus the training-data ops (dedup family, similarity search,
text analysis) with DuckDB oracles where the semantics are SQL-expressible.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF0001 = "/root/testdata/sf0.001"

# ---------------------------------------------------------------------------
# SQL fragments shared by several oracles (kept in lockstep with the Python
# kernels in chameleon_entity_linking_ray/functions/text.py and
# stages/extract.py — see each query's docstring for the pairing)
# ---------------------------------------------------------------------------

# stages/extract.py:_MENTION_RE (RE2-compatible; duckdb standard strings do
# not process backslashes, so \b etc. pass through verbatim)
_MENTION_RE_SQL = r"\b[A-Z][\w&.\-]*(?:\s+(?:[A-Z][\w&.\-]*|\d+))*"

# stages/extract.py:_rho — min(0.99, 0.15 + 0.10*ntok + 0.01*len) > 0.26,
# same operation order so the IEEE doubles agree bit-for-bit
_RHO_EXPR = ("LEAST(0.99, 0.15 + 0.10*(length({c}) - "
             "length(replace({c}, ' ', '')) + 1) + 0.01*length({c}))")
_RHO_FILTER_SQL = _RHO_EXPR.format(c="m") + " > 0.26"

# pipelines/corpus.py:_title_sentence
_TITLE_TEXT_SQL = (
    "'Order for ' || array_to_string(list_transform(string_split(p_name, ' '), "
    "w -> upper(substring(w, 1, 1)) || substring(w, 2)), ' ') || "
    "' placed by ' || p_brand")

# functions/text.py:normalize_array
_NORM_SQL = ("trim(regexp_replace(regexp_replace(lower({col}), "
             r"'[^\w\s]+', ' ', 'g'), '\s+', ' ', 'g'))")


def _stopword_scores_sql() -> dict[str, str]:
    """Per-language stopword-hit-sum SQL fragments, generated from the
    SAME stopword lists as the Python kernel (functions/text.py
    LANG_STOPWORDS) — the ONE copy shared by every oracle that embeds
    language ID (_langid_sql, _corpus_prep_sql, _curation_funnel_sql)."""
    from chameleon_entity_linking_ray.functions.text import LANG_STOPWORDS
    from chameleon_entity_linking_ray.pipelines.corpus import LANG_ORDER

    def score(lang: str) -> str:
        terms = [f"len(regexp_extract_all(lower(text), '\\b{w}\\b'))"
                 for w in LANG_STOPWORDS[lang]]
        return "(" + " + ".join(terms) + ")"

    return {lang: score(lang) for lang in LANG_ORDER}


# first-max-wins language pick over the s_en/s_de/s_fr score columns —
# shared verbatim by every langid-embedding oracle
_LANG_CASE_SQL = """CASE WHEN s_en = 0 AND s_de = 0 AND s_fr = 0 THEN 'und'
                WHEN s_en >= s_de AND s_en >= s_fr THEN 'en'
                WHEN s_de >= s_fr THEN 'de'
                ELSE 'fr' END"""

# doc_quality's blend formula — shared by the composed-funnel oracles
_QUALITY_SQL = r"""ROUND(0.5 * LEAST(CASE WHEN length(trim(text)) = 0 THEN 0
                   ELSE len(string_split_regex(trim(text), '\s+')) END,
                   100) / 100.0 +
              0.5 * (1.0 - len(regexp_extract_all(text, '[^\w\s]'))
                     / GREATEST(length(text), 1)), 6)"""


def _langid_sql() -> str:
    """Generated from the SAME stopword lists as the Python kernel
    (functions/text.py LANG_STOPWORDS), so semantics agree by construction."""
    s = _stopword_scores_sql()
    return f"""
    WITH s AS (SELECT doc_id, {s['en']} AS s_en, {s['de']} AS s_de,
                      {s['fr']} AS s_fr FROM documents)
    SELECT doc_id, {_LANG_CASE_SQL} AS lang_pred
    FROM s"""


def _corpus_prep_sql(quality_min: float = 0.5, lang: str = "en",
                     budget: int = 256, max_hamming: int = 3) -> str:
    """Composed oracle for pipelines/prep.corpus_prep: quality+lang
    filter -> simhash-banded fuzzy dedup (recursive-CTE closure,
    min-id canonical) -> prefix-sum sequence packing, each sub-expression
    identical to the standalone operators' oracles."""
    s = _stopword_scores_sql()
    return rf"""
    WITH RECURSIVE scored AS (
        SELECT doc_id, text,
               {_QUALITY_SQL} AS quality,
               {s['en']} AS s_en, {s['de']} AS s_de, {s['fr']} AS s_fr
        FROM documents
    ), q AS (
        SELECT doc_id, text FROM scored
        WHERE quality >= {quality_min}
          AND ({_LANG_CASE_SQL}) = '{lang}'
    ), toks AS (
        SELECT doc_id, unnest(list_distinct(string_split_regex(trim(text),
                                                               '\s+'))) AS t
        FROM q WHERE length(trim(text)) > 0
    ), bits AS (
        SELECT doc_id, j,
               SUM(CASE WHEN ((('0x' || substr(md5(t), 1, 16))::UBIGINT
                               >> j) & 1) = 1 THEN 1 ELSE -1 END) AS s
        FROM toks CROSS JOIN generate_series(0, 63) g(j)
        GROUP BY doc_id, j
    ), hashes AS (
        SELECT doc_id, CAST(SUM(CASE WHEN s > 0 THEN (1::UBIGINT << j)
                                     ELSE 0::UBIGINT END) AS UBIGINT) AS h
        FROM bits GROUP BY doc_id
    ), bands AS (
        SELECT doc_id, h, j AS band,
               CAST((h >> (j*16)) & 65535 AS BIGINT) AS bv
        FROM hashes CROSS JOIN generate_series(0, 3) g(j)
    ), edges AS (
        SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
        FROM bands x JOIN bands y ON x.band = y.band AND x.bv = y.bv
         AND x.doc_id < y.doc_id
        WHERE bit_count(xor(x.h, y.h)) <= {max_hamming}
    ), sym AS (
        SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges
    ), reach(src, node) AS (
        SELECT doc_id, doc_id FROM q
        UNION
        SELECT r.src, s2.b FROM reach r JOIN sym s2 ON s2.a = r.node
    ), asn AS (
        SELECT src AS doc_id, MIN(node) AS cluster FROM reach GROUP BY src
    ), surv AS (
        SELECT q.doc_id, q.text FROM q JOIN asn USING (doc_id)
        WHERE asn.cluster = q.doc_id
    ), tk AS (
        SELECT doc_id, CASE WHEN length(trim(text)) = 0 THEN 0
                            ELSE len(string_split_regex(trim(text), '\s+'))
                       END AS n_tokens
        FROM surv
    ), w AS (
        SELECT doc_id, n_tokens,
               COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                   AS before
        FROM tk
    )
    SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
           CAST(before // {budget} AS BIGINT) AS seq_id
    FROM w"""


def entry() -> Any:
    """Flagship linkage pipeline over a transcript table derived from
    sf0.001 (extraction -> blocking -> scoring -> clustering)."""
    from chameleon_entity_linking_ray.pipelines.corpus import linkage_parts
    return linkage_parts(SF0001)


def queries() -> dict[str, Callable[[str], Any]]:
    from chameleon_entity_linking_ray.pipelines import analytics as A
    from chameleon_entity_linking_ray.pipelines import corpus as C
    from chameleon_entity_linking_ray.pipelines import reference_io as R
    from chameleon_entity_linking_ray.pipelines import traindata as T
    from chameleon_entity_linking_ray.pipelines.retrieval import (
        model_retrieval_run as _q_model_retrieval_run,
    )

    return {
        # --- relational operator coverage (SURVEY.md §2.4-2.7) ---
        "q1_pricing": A.q1_pricing,
        "top_orders": A.top_orders,
        "segment_revenue": A.segment_revenue,
        "nation_customers": A.nation_customers,
        "events_daily": A.events_daily,
        "events_semi": A.events_semi,
        "customers_no_orders": A.customers_no_orders,
        "merge_runs": A.merge_runs,
        "stringsort_rank_quirk": A.stringsort_rank_quirk,
        "psi_drift": A.psi_drift,
        "dq_checks": A.dq_checks,
        "topk_per_customer": A.topk_per_customer,
        "distinct_counts": A.distinct_counts,
        "asof_events_orders": A.asof_join_events_orders,
        "asof_next_event": A.asof_next_event_after_order,
        "flag_corr": A.flag_corr,
        "profile_orders": A.profile_orders,
        "sessionize_events": A.sessionize_events,
        "funnel_events": A.funnel_events,
        "event_lift": A.event_lift,
        "event_transitions": A.event_transitions,
        "cohort_retention": A.cohort_retention,
        "priority_segment_chisq": A.priority_segment_chisq,
        "revenue_share": A.revenue_share,
        "rolling_user_window": A.rolling_user_window,
        "moving_avg_user": A.moving_avg_user,
        "user_running_total": A.user_running_total,
        "zscore_events": A.zscore_events,
        "nation_balance_full": A.nation_balance_full,
        "event_pairs_within": A.event_pairs_within,
        "rollup_revenue": A.rollup_revenue,
        "cume_dist_orders": A.cume_dist_orders,
        "rank_orders": A.rank_orders,
        "cube_revenue": A.cube_revenue,
        "triangles_copurchase": _q_triangles,
        "kcore_copurchase": _q_kcore,
        "segment_percentiles": A.segment_percentiles,
        "pivot_revenue": A.pivot_revenue,
        "unpivot_revenue": A.unpivot_revenue,
        "histogram_orders": A.histogram_orders,
        "outlier_events": A.outlier_events,
        "value_mad": A.value_mad,
        "top_orders_ties": A.top_orders_ties,
        "percent_rank_orders": A.percent_rank_orders,
        "throttle_events": A.throttle_events,
        "merge_upsert": A.merge_upsert,
        "snapshot_diff": A.snapshot_diff,
        "user_value_history": A.user_value_history,
        "lineitem_big_orders": A.lineitem_big_orders,
        "zorder_parts": A.zorder_parts,
        "row_number_orders": A.row_number_orders,
        "user_gaps": A.user_gaps,
        "segment_stats": A.segment_stats,
        "customer_order_span": A.customer_order_span,
        "priority_mode": A.priority_mode,
        "nation_set_ops": A.nation_set_ops,
        "user_event_paths": A.user_event_paths,
        "pareto_parts": A.pareto_parts,
        # --- text analysis (documents) ---
        "doc_tokens": C.doc_tokens,
        "doc_quality": C.doc_quality,
        "doc_langid": C.doc_langid,
        "doc_fingerprint": C.doc_fingerprint,
        # --- dedup family ---
        "dedup_exact": C.dedup_exact,
        "minhash_dup_pairs": C.minhash_dup_pairs,
        "simhash_docs": C.simhash_docs,
        "simhash_dup_pairs": C.simhash_dup_pairs,
        "doc_repetition": C.doc_repetition,
        "dedup_fuzzy": C.dedup_fuzzy_docs,
        "corpus_prep": _q_corpus_prep,
        "curation_funnel": _q_curation_funnel,
        "embedding_quantize": C.embedding_quantize,
        "ann_topk_int8": C.ann_topk_int8,
        "ngram_jaccard_pairs": C.ngram_jaccard_pairs,
        "tf_cosine_pairs": C.tf_cosine_pairs,
        "edit_distance_pairs": C.edit_distance_pairs,
        "damerau_pairs": C.damerau_pairs,
        "jw_name_pairs": C.jw_name_pairs,
        "snm_pairs": C.snm_pairs,
        "soundex_parts": C.soundex_parts,
        "dedup_parts_snm": C.dedup_parts_snm,
        "clustering_eval": C.clustering_eval,
        "blocking_stats": C.blocking_stats,
        "fs_weights": C.fs_weights,
        "golden_records": C.golden_records,
        "embedding_near_dups": C.embedding_near_dups,
        "embedding_near_dups_lsh": C.embedding_near_dups_lsh,
        # --- similarity search / vector pooling ---
        "ann_topk": C.ann_topk,
        "ann_lsh_topk": C.ann_lsh_topk,
        # rows-only: IVF's k-means quantizer is iterative model fitting
        # (same non-SQL class as ppr_copurchase); pinned by exactness-at-
        # full-probe + recall pytest (tests/test_ann_ivf.py)
        "ann_ivf_topk": C.ann_ivf_topk,
        # value-verified IVF: fixed quantizer (zero Lloyd iterations)
        # makes index + probe + top-k fully SQL-expressible
        "ann_ivf_fixed_topk": C.ann_ivf_fixed_topk,
        "group_mean_vectors": C.group_mean_vectors,
        # --- reference ingest surface (S1-S5 roundtrips through real
        #     files under /tmp, re-read by sources/ingest.py readers) ---
        "tsv_mentions": R.tsv_mentions,
        "entity_tsv_stats": R.entity_tsv_stats,
        "trec_merge": R.trec_merge,
        "hard_negative_pairs": R.hard_negative_pairs,
        "teacher_scores": R.teacher_scores,
        "partitioned_docs": R.partitioned_docs,
        # --- M5: reference synthetic-span arithmetic, quirks included ---
        "entity_span_quirk": R.entity_span_quirk,
        # --- S6 format parity: page_link.tsv reversed-edge roundtrip ---
        "page_link_degrees": R.page_link_degrees,
        # --- IR metric aggregate (A5) ---
        "ir_metrics": R.ir_metrics,
        # --- graph expansion (reference entity_expander parity) ---
        "bfs_copurchase": _q_bfs,
        "dfs_copurchase": _q_dfs,
        # visualize_expanded_entities parity: the star edge list the
        # reference feeds networkx, as data rows (render via format_dot)
        "expanded_edges_dfs": _q_expanded_edges,
        "ppr_copurchase": _q_ppr,
        "degree_histogram": _q_degree_hist,
        "edge_overlap": _q_edge_overlap,
        # --- multimodal plumbing (decode stubs, deterministic fakes) ---
        "media_decode": _q_media,
        "media_resize": _q_media_resize,
        # --- extraction parity + flagship ---
        "part_mentions": C.part_mentions,
        "mention_vocab": C.mention_vocab,
        "linkage_parts": C.linkage_parts,
        # rows-only: transformer forward isn't SQL-expressible; the model
        # path's quality gate is tests/test_model_scorer.py (flagship e2e
        # through the model actor pool, pairwise F1 >= 0.85)
        "model_pair_scores": C.model_pair_scores,
        "model_retrieval_run": _q_model_retrieval_run,
        # value-verified flagship projection: every SQL-derivable column
        # of linkage_parts' output, hash-matched (scores/clusters stay
        # pinned by the e2e F1 gate)
        "linkage_parts_surfaces": C.linkage_parts_surfaces,
        # --- training-data prep (pipelines/traindata.py) ---
        "redact_ids": T.redact_ids,
        "sample_documents": T.sample_documents,
        "weighted_sample": T.weighted_sample,
        "dataset_split": T.dataset_split,
        "stratified_sample": T.stratified_sample,
        "pack_sequences": T.pack_sequences,
        "top_ngrams": T.top_ngrams,
        "doc_tokens_bpe": T.doc_tokens_bpe,
        "exact_percentiles": T.exact_percentiles,
        "percentiles_cont": T.percentiles_cont,
        "doc_chunks": T.doc_chunks,
        "doc_keywords": T.doc_keywords,
        "decontaminate": T.decontaminate,
        "doc_logprob": T.doc_logprob,
        "dup_spans": T.dup_spans,
        "source_mix": T.source_mix,
        "train_interleave": T.train_interleave,
        "train_rotation": T.train_rotation,
        "dsir_logratio": T.dsir_logratio,
        "budget_sample": T.budget_sample,
        "approx_distinct": T.approx_distinct,
        "grouped_approx_distinct": T.grouped_approx_distinct,
        "heavy_hitters": T.heavy_hitters,
        "hdr_percentiles": T.hdr_percentiles,
        "doc_token_rows": C.doc_token_rows,
        # --- in-engine BM25 (replaces the reference's pre-built
        #     Anserini run file, CrossEncoder/test.py:61-75) ---
        "bm25_topk": C.bm25_topk,
        "rerank_bm25": C.rerank_bm25,
    }


def _q_corpus_prep(sf_dir):
    from chameleon_entity_linking_ray.pipelines.prep import corpus_prep
    return corpus_prep(sf_dir)


def _q_curation_funnel(sf_dir):
    from chameleon_entity_linking_ray.pipelines.prep import curation_funnel
    return curation_funnel(sf_dir)


def _curation_funnel_sql(lang: str = "en", quality_min: float = 0.75,
                         prefix_tokens: int = 8,
                         sample_hex: str = "8000") -> str:
    """Composed funnel oracle: each gate expression is identical to the
    standalone operators' oracles (langid / quality / md5-sample), the
    dedup gate is a MIN window over the prefix key among stage-2
    survivors — semantics pinned by construction."""
    s = _stopword_scores_sql()
    return f"""
    WITH s AS (SELECT doc_id, text, {s['en']} AS s_en, {s['de']} AS s_de,
                      {s['fr']} AS s_fr FROM documents),
    base AS (SELECT doc_id,
        {_LANG_CASE_SQL} AS lang_pred,
        {_QUALITY_SQL} AS quality,
        array_to_string(string_split_regex(trim(text),
                        '\\s+')[1:{prefix_tokens}], ' ') AS key,
        substring(md5(CAST(doc_id AS VARCHAR)), 1, 4)
            < '{sample_hex}' AS s_ok
        FROM s),
    flags AS (SELECT *,
        CAST(lang_pred = '{lang}' AS BIGINT) AS pass_lang,
        CAST(lang_pred = '{lang}' AND quality >= {quality_min}
             AS BIGINT) AS pass_quality
        FROM base),
    ded AS (SELECT *,
        MIN(CASE WHEN pass_quality = 1 THEN doc_id END)
            OVER (PARTITION BY key) AS keep_id
        FROM flags)
    SELECT doc_id, lang_pred, quality, pass_lang, pass_quality,
           CAST(pass_quality = 1 AND doc_id = keep_id AS BIGINT)
               AS pass_dedup,
           CAST(pass_quality = 1 AND doc_id = keep_id AND s_ok
                AS BIGINT) AS pass_sample
    FROM ded"""


def _q_triangles(sf_dir):
    from chameleon_entity_linking_ray.stages.graph import triangles_copurchase
    return triangles_copurchase(sf_dir)


def _q_kcore(sf_dir):
    from chameleon_entity_linking_ray.stages.graph import kcore_copurchase
    return kcore_copurchase(sf_dir)


def _q_bfs(sf_dir):
    from chameleon_entity_linking_ray.stages.graph import bfs_copurchase
    return bfs_copurchase(sf_dir, seed_part=0, k=2)


def _q_dfs(sf_dir):
    from chameleon_entity_linking_ray.stages.graph import dfs_copurchase
    return dfs_copurchase(sf_dir, seed_part=0, k=20)


def _q_expanded_edges(sf_dir):
    from chameleon_entity_linking_ray.stages.graph import (
        expanded_edges_copurchase,
    )
    return expanded_edges_copurchase(sf_dir, seed_part=0, k=20, limit=5)


def _q_ppr(sf_dir):
    from chameleon_entity_linking_ray.stages.graph import ppr_copurchase
    return ppr_copurchase(sf_dir, seed_part=0)


def _q_degree_hist(sf_dir):
    from chameleon_entity_linking_ray.stages.graph import degree_histogram
    return degree_histogram(sf_dir)


def _q_edge_overlap(sf_dir):
    from chameleon_entity_linking_ray.stages.graph import edge_overlap
    return edge_overlap(sf_dir)


def _q_media(sf_dir):
    # REAL pure-numpy BMP encode->decode round trip over media derived
    # from the part table with FORMULAIC pixels (stages/multimodal.py:
    # formula_pixels), so the decoded mean_intensity is SQL-derivable:
    # the oracle recomputes AVG((key + i) % 256) with generate_series and
    # never sees the codec — a value-level check of the decode path.
    import ray.data
    from chameleon_entity_linking_ray.stages.multimodal import (
        decode_media, media_from_keys)
    parts = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                  columns=["p_partkey"]) \
        .filter(expr="p_partkey < 256")
    media = parts.map_batches(media_from_keys, batch_format="pyarrow")
    return decode_media(media, feature_dim=16).drop_columns(["feature"])


def _q_media_resize(sf_dir):
    # block-mean grid resize over the same formulaic BMPs as media_decode:
    # output cell (py,px) = AVG of pixels whose floor-grid map lands there
    # — SQL-derivable from generate_series, codec never seen by the oracle
    import ray.data
    from chameleon_entity_linking_ray.stages.multimodal import (
        media_from_keys, resize_media)
    parts = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                  columns=["p_partkey"]) \
        .filter(expr="p_partkey < 256")
    media = parts.map_batches(media_from_keys, batch_format="pyarrow")
    return resize_media(media, out_w=4, out_h=4)


def _oracle_sql_base() -> dict[str, str]:
    title = _TITLE_TEXT_SQL
    norm = _NORM_SQL.format(col="surface")
    return {
        "q1_pricing": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(trunc(l_quantity*100) AS BIGINT)) AS BIGINT) AS sum_qty_c,
                   CAST(SUM(CAST(trunc(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_c,
                   CAST(SUM(CAST(trunc(l_extendedprice*(1-l_discount)*100) AS BIGINT)) AS BIGINT) AS sum_disc_c,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "top_orders": """
            SELECT o_orderkey, o_custkey,
                   CAST(trunc(o_totalprice*100) AS BIGINT) AS total_c
            FROM orders
            ORDER BY total_c DESC, o_orderkey LIMIT 20""",
        "segment_revenue": """
            SELECT c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(trunc(o_totalprice*100) AS BIGINT)) AS BIGINT) AS sum_total_c
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment""",
        "nation_customers": """
            SELECT r_name, n_name, CAST(COUNT(*) AS BIGINT) AS n_cust,
                   CAST(SUM(CAST(trunc(c_acctbal*100) AS BIGINT)) AS BIGINT) AS sum_acctbal_c
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name, n_name""",
        "events_daily": """
            SELECT event_type,
                   strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(trunc(value*100) AS BIGINT)) AS BIGINT) AS sum_value_c
            FROM events GROUP BY event_type, day""",
        "events_semi": """
            SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events
            WHERE user_id IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000)
            GROUP BY event_type""",
        # backward inner as-of: DuckDB's native ASOF JOIN; orders deduped
        # to one row per (custkey, day) with MIN(o_orderkey) so the
        # tie-break is deterministic on both sides; epoch_us // 1000000
        # mirrors the engine's Arrow int64 floor division exactly
        "asof_events_orders": """
            WITH od AS (
                SELECT o_custkey AS user_id,
                       epoch_us(o_orderdate) // 1000000 AS order_ts_s,
                       MIN(o_orderkey) AS matched_order
                FROM orders GROUP BY 1, 2
            ), ev AS (
                SELECT event_id, user_id,
                       epoch_us(ts) // 1000000 AS ts_s, event_type
                FROM events
            )
            SELECT ev.event_id, ev.user_id, ev.ts_s, ev.event_type,
                   od.matched_order, od.order_ts_s
            FROM ev ASOF JOIN od
              ON ev.user_id = od.user_id AND ev.ts_s >= od.order_ts_s""",
        # FORWARD as-of: each order matched to the customer's EARLIEST
        # event at-or-after it; ties deduped to min event_id per second
        "asof_next_event": """
            WITH ev AS (
                SELECT user_id, epoch_us(ts) // 1000000 AS event_ts_s,
                       MIN(event_id) AS next_event
                FROM events GROUP BY 1, 2
            ), od AS (
                SELECT o_orderkey, o_custkey AS user_id,
                       epoch_us(o_orderdate) // 1000000 AS order_ts_s
                FROM orders
            )
            SELECT od.o_orderkey, od.user_id, od.order_ts_s,
                   ev.next_event, ev.event_ts_s
            FROM od ASOF JOIN ev
              ON od.user_id = ev.user_id
             AND od.order_ts_s <= ev.event_ts_s""",
        # grouped Pearson correlation from exact integer moments; the
        # final float expression is identical on both engines
        "flag_corr": """
            WITH m AS (SELECT l_returnflag,
                              CAST(COUNT(*) AS BIGINT) AS n,
                              SUM(x) AS sx, SUM(y) AS sy,
                              SUM(x*x) AS sxx, SUM(y*y) AS syy,
                              SUM(x*y) AS sxy
                       FROM (SELECT l_returnflag,
                                    CAST(trunc(l_quantity) AS BIGINT) AS x,
                                    CAST(trunc(l_extendedprice) AS BIGINT)
                                        AS y
                             FROM lineitem)
                       GROUP BY l_returnflag)
            SELECT l_returnflag, n,
                   (n * CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE)
                        * CAST(sy AS DOUBLE))
                   / (sqrt(n * CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE)
                           * CAST(sx AS DOUBLE))
                      * sqrt(n * CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE)
                             * CAST(sy AS DOUBLE))) AS corr_qty_price
            FROM m""",
        # dataset profiler (SUMMARIZE): long-format per-column stats
        "profile_orders": """
            SELECT 'o_orderkey' AS col, CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(COUNT(*) - COUNT(o_orderkey) AS BIGINT) AS n_null,
                   CAST(MIN(o_orderkey) AS BIGINT) AS min_v,
                   CAST(MAX(o_orderkey) AS BIGINT) AS max_v,
                   CAST(COUNT(DISTINCT o_orderkey) AS BIGINT) AS n_distinct
            FROM orders
            UNION ALL
            SELECT 'o_custkey', COUNT(*), COUNT(*) - COUNT(o_custkey),
                   MIN(o_custkey), MAX(o_custkey),
                   COUNT(DISTINCT o_custkey)
            FROM orders
            UNION ALL
            SELECT 'o_totalprice_c', COUNT(*),
                   COUNT(*) - COUNT(o_totalprice),
                   MIN(CAST(trunc(o_totalprice*100) AS BIGINT)),
                   MAX(CAST(trunc(o_totalprice*100) AS BIGINT)),
                   COUNT(DISTINCT CAST(trunc(o_totalprice*100) AS BIGINT))
            FROM orders""",
        # gap-based session windows (gap 1800 s): LAG + running SUM per
        # user; ties share a gap of 0 so tie order never changes sessions
        "sessionize_events": """
            WITH e AS (SELECT user_id, epoch_us(ts) // 1000000 AS ts_s
                       FROM events),
            l AS (SELECT user_id, ts_s,
                     CASE WHEN LAG(ts_s) OVER w IS NULL
                          OR ts_s - LAG(ts_s) OVER w > 1800
                          THEN 1 ELSE 0 END AS new_s
                  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_s)),
            s AS (SELECT user_id, ts_s,
                     SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts_s
                                      ROWS UNBOUNDED PRECEDING) AS sid
                  FROM l)
            SELECT user_id, CAST(sid AS BIGINT) AS session_idx,
                   MIN(ts_s) AS session_start_s,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   MAX(ts_s) - MIN(ts_s) AS duration_s
            FROM s GROUP BY user_id, sid""",
        # ordered-sequence funnel: each step strictly after the previous
        # step's first completion; epoch-us int64 comparisons on both
        # engines so tie semantics are exact
        "funnel_events": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            e AS (SELECT user_id, event_type, epoch_us(ts) AS ts_us
                  FROM events),
            s1 AS (SELECT user_id, MIN(ts_us) AS t1 FROM e
                   WHERE event_type = 'view' GROUP BY user_id),
            s2 AS (SELECT e.user_id, MIN(ts_us) AS t2 FROM e
                   JOIN s1 USING (user_id)
                   WHERE event_type = 'click' AND ts_us > t1
                   GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, MIN(ts_us) AS t3 FROM e
                   JOIN s2 USING (user_id)
                   WHERE event_type = 'purchase' AND ts_us > t2
                   GROUP BY e.user_id)
            SELECT u.user_id,
                   CAST(CASE WHEN t3 IS NOT NULL THEN 3
                             WHEN t2 IS NOT NULL THEN 2
                             WHEN t1 IS NOT NULL THEN 1
                             ELSE 0 END AS BIGINT) AS depth,
                   t1, t2, t3
            FROM u LEFT JOIN s1 USING (user_id)
                   LEFT JOIN s2 USING (user_id)
                   LEFT JOIN s3 USING (user_id)""",
        # market-basket association stats over distinct (user, type)
        # sets; counts exact ints, support/confidence/lift mirrored
        "event_lift": """
            WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
            nn AS (SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n
                   FROM events),
            s AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS c
                  FROM ut GROUP BY event_type),
            b AS (SELECT a.event_type AS type_a, b2.event_type AS type_b,
                         CAST(COUNT(*) AS BIGINT) AS n_both
                  FROM ut a JOIN ut b2 ON a.user_id = b2.user_id
                   AND a.event_type < b2.event_type
                  GROUP BY 1, 2)
            SELECT type_a, type_b, n_both,
                   CAST(n_both AS DOUBLE) / nn.n AS support,
                   CAST(n_both AS DOUBLE) / sa.c AS confidence,
                   (CAST(n_both AS DOUBLE) / nn.n)
                   / ((CAST(sa.c AS DOUBLE) / nn.n)
                      * (CAST(sb.c AS DOUBLE) / nn.n)) AS lift
            FROM b CROSS JOIN nn
              JOIN s sa ON sa.event_type = b.type_a
              JOIN s sb ON sb.event_type = b.type_b""",
        # first-order Markov transitions per user over the unique
        # (ts_us, event_id) order key
        "event_transitions": """
            WITH e AS (SELECT user_id, event_type, epoch_us(ts) AS ts_us,
                              event_id
                       FROM events),
            l AS (SELECT event_type,
                         LAG(event_type) OVER (PARTITION BY user_id
                             ORDER BY ts_us, event_id) AS prev_type
                  FROM e)
            SELECT prev_type, event_type, CAST(COUNT(*) AS BIGINT) AS n
            FROM l WHERE prev_type IS NOT NULL
            GROUP BY prev_type, event_type""",
        # cohort retention over exact integer epoch-week indices
        "cohort_retention": """
            WITH uw AS (SELECT DISTINCT user_id,
                               epoch_us(ts) // 604800000000 AS week
                        FROM events),
            c AS (SELECT user_id, MIN(week) AS cohort FROM uw
                  GROUP BY user_id)
            SELECT c.cohort AS cohort_week,
                   uw.week - c.cohort AS week_offset,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM uw JOIN c USING (user_id)
            GROUP BY 1, 2""",
        # chi-square contingency decomposition; expected = int product /
        # one division, contribution written as x*x/e on both engines
        "priority_segment_chisq": """
            WITH j AS (SELECT o_orderpriority, c_mktsegment
                       FROM orders JOIN customer ON o_custkey = c_custkey),
            cont AS (SELECT o_orderpriority, c_mktsegment,
                            CAST(COUNT(*) AS BIGINT) AS observed
                     FROM j GROUP BY 1, 2),
            rm AS (SELECT o_orderpriority,
                          CAST(SUM(observed) AS BIGINT) AS rtot
                   FROM cont GROUP BY 1),
            cm AS (SELECT c_mktsegment,
                          CAST(SUM(observed) AS BIGINT) AS ctot
                   FROM cont GROUP BY 1),
            nn AS (SELECT CAST(SUM(observed) AS BIGINT) AS n FROM cont)
            SELECT cont.o_orderpriority, cont.c_mktsegment, observed,
                   CAST(rtot * ctot AS DOUBLE) / nn.n AS expected,
                   (observed - CAST(rtot * ctot AS DOUBLE) / nn.n)
                   * (observed - CAST(rtot * ctot AS DOUBLE) / nn.n)
                   / (CAST(rtot * ctot AS DOUBLE) / nn.n) AS contrib
            FROM cont JOIN rm USING (o_orderpriority)
                      JOIN cm USING (c_mktsegment)
                      CROSS JOIN nn""",
        # ratio-to-report: nation share within region + grand total
        "revenue_share": """
            WITH f AS (SELECT r_name, n_name,
                              CAST(SUM(CAST(trunc(o_totalprice*100)
                                            AS BIGINT)) AS BIGINT)
                                  AS revenue_c
                       FROM orders JOIN customer ON o_custkey = c_custkey
                         JOIN nation ON c_nationkey = n_nationkey
                         JOIN region ON n_regionkey = r_regionkey
                       GROUP BY r_name, n_name),
            r AS (SELECT r_name, CAST(SUM(revenue_c) AS BIGINT) AS rtot
                  FROM f GROUP BY r_name),
            t AS (SELECT CAST(SUM(revenue_c) AS BIGINT) AS tot FROM f)
            SELECT f.r_name, f.n_name, f.revenue_c,
                   CAST(f.revenue_c AS DOUBLE) / r.rtot AS region_share,
                   CAST(f.revenue_c AS DOUBLE) / t.tot AS total_share
            FROM f JOIN r USING (r_name) CROSS JOIN t""",
        # RANGE-mode rolling window: peers (equal ts) share one window on
        # both sides, so tie order can never perturb the hash
        "rolling_user_window": """
            WITH e AS (SELECT event_id, user_id,
                              epoch_us(ts) // 1000000 AS ts_s,
                              CAST(trunc(value*100) AS BIGINT) AS cents
                       FROM events)
            SELECT event_id, user_id, ts_s,
                   CAST(SUM(cents) OVER w AS BIGINT) AS w_sum_c,
                   CAST(COUNT(*) OVER w AS BIGINT) AS w_count
            FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_s
                RANGE BETWEEN 604800 PRECEDING AND CURRENT ROW)""",
        # temporal-proximity self-join (interval band join, IEJoin class);
        # canonical pair order = (ts, event_id) lexicographic
        "event_pairs_within": """
            WITH e AS (SELECT event_id, user_id,
                              epoch_us(ts) // 1000000 AS ts_s FROM events)
            SELECT a.event_id AS event_a, b.event_id AS event_b,
                   b.ts_s - a.ts_s AS gap_s
            FROM e a JOIN e b ON a.user_id = b.user_id
              AND b.ts_s >= a.ts_s AND b.ts_s - a.ts_s <= 21600
              AND (a.ts_s < b.ts_s OR a.event_id < b.event_id)""",
        # exact grouped percentiles via PERCENTILE_DISC; q are exact
        # binary fractions so the cum >= q*n boundary agrees bit-for-bit
        "segment_percentiles": """
            SELECT c_mktsegment,
              CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY
                   CAST(trunc(o_totalprice*100) AS BIGINT)) AS BIGINT)
                  AS p25_c,
              CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY
                   CAST(trunc(o_totalprice*100) AS BIGINT)) AS BIGINT)
                  AS p50_c,
              CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY
                   CAST(trunc(o_totalprice*100) AS BIGINT)) AS BIGINT)
                  AS p75_c
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment""",
        # pivot as conditional aggregation (columns = the fixed TPC-H
        # segment enumeration, missing cells 0 on both engines)
        "pivot_revenue": """
            SELECT r_name,
              CAST(SUM(CASE WHEN c_mktsegment='AUTOMOBILE' THEN total_c
                       ELSE 0 END) AS BIGINT) AS "AUTOMOBILE",
              CAST(SUM(CASE WHEN c_mktsegment='BUILDING' THEN total_c
                       ELSE 0 END) AS BIGINT) AS "BUILDING",
              CAST(SUM(CASE WHEN c_mktsegment='FURNITURE' THEN total_c
                       ELSE 0 END) AS BIGINT) AS "FURNITURE",
              CAST(SUM(CASE WHEN c_mktsegment='HOUSEHOLD' THEN total_c
                       ELSE 0 END) AS BIGINT) AS "HOUSEHOLD",
              CAST(SUM(CASE WHEN c_mktsegment='MACHINERY' THEN total_c
                       ELSE 0 END) AS BIGINT) AS "MACHINERY"
            FROM (SELECT r_name, c_mktsegment,
                         CAST(trunc(o_totalprice*100) AS BIGINT) AS total_c
                  FROM orders JOIN customer ON o_custkey = c_custkey
                    JOIN nation ON c_nationkey = n_nationkey
                    JOIN region ON n_regionkey = r_regionkey)
            GROUP BY r_name""",
        # UNPIVOT of the same wide table back to (region, segment, cell);
        # pivot cells are 0 (never NULL) so every cell row survives
        "unpivot_revenue": """
            UNPIVOT (
              SELECT r_name,
                CAST(SUM(CASE WHEN c_mktsegment='AUTOMOBILE' THEN total_c
                         ELSE 0 END) AS BIGINT) AS "AUTOMOBILE",
                CAST(SUM(CASE WHEN c_mktsegment='BUILDING' THEN total_c
                         ELSE 0 END) AS BIGINT) AS "BUILDING",
                CAST(SUM(CASE WHEN c_mktsegment='FURNITURE' THEN total_c
                         ELSE 0 END) AS BIGINT) AS "FURNITURE",
                CAST(SUM(CASE WHEN c_mktsegment='HOUSEHOLD' THEN total_c
                         ELSE 0 END) AS BIGINT) AS "HOUSEHOLD",
                CAST(SUM(CASE WHEN c_mktsegment='MACHINERY' THEN total_c
                         ELSE 0 END) AS BIGINT) AS "MACHINERY"
              FROM (SELECT r_name, c_mktsegment,
                           CAST(trunc(o_totalprice*100) AS BIGINT)
                               AS total_c
                    FROM orders JOIN customer ON o_custkey = c_custkey
                      JOIN nation ON c_nationkey = n_nationkey
                      JOIN region ON n_regionkey = r_regionkey)
              GROUP BY r_name)
            ON "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
               "MACHINERY"
            INTO NAME segment VALUE revenue_c""",
        # equi-width histogram: exact int64 floor-division bucket edges
        "histogram_orders": """
            SELECT bucket, bucket * 5000000 AS lo_c,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM (SELECT CAST(trunc(o_totalprice*100) AS BIGINT)
                         // 5000000 AS bucket FROM orders)
            GROUP BY bucket""",
        # Tukey 1.5*IQR outlier filter: PERCENTILE_DISC fences (int q1/q3
        # + exact 1.5x float), bit-identical boundary compares
        "outlier_events": """
            WITH o AS (SELECT event_id,
                              CAST(trunc(value*100) AS BIGINT) AS total_c
                       FROM events WHERE value IS NOT NULL),
            q AS (SELECT percentile_disc(0.25) WITHIN GROUP
                             (ORDER BY total_c) AS q1,
                         percentile_disc(0.75) WITHIN GROUP
                             (ORDER BY total_c) AS q3
                  FROM o)
            SELECT event_id, total_c FROM o, q
            WHERE total_c < q1 - 1.5 * (q3 - q1)
               OR total_c > q3 + 1.5 * (q3 - q1)""",
        # median absolute deviation: two PERCENTILE_DISC passes, all ints
        "value_mad": """
            WITH o AS (SELECT CAST(trunc(value*100) AS BIGINT) AS v
                       FROM events WHERE value IS NOT NULL),
            m AS (SELECT CAST(percentile_disc(0.5) WITHIN GROUP
                              (ORDER BY v) AS BIGINT) AS median_c FROM o),
            d AS (SELECT abs(v - median_c) AS av FROM o CROSS JOIN m)
            SELECT m.median_c,
                   (SELECT CAST(percentile_disc(0.5) WITHIN GROUP
                                (ORDER BY av) AS BIGINT) FROM d) AS mad_c
            FROM m""",
        # global top-k WITH TIES via the broadcast CDF (RANK semantics)
        "top_orders_ties": """
            WITH o AS (SELECT o_orderkey,
                              CAST(trunc(o_totalprice*100) AS BIGINT)
                                  AS total_c
                       FROM orders)
            SELECT o_orderkey, total_c,
                   CAST(RANK() OVER (ORDER BY total_c DESC) AS BIGINT)
                       AS rnk
            FROM o QUALIFY rnk <= 20""",
        # PERCENT_RANK off the same broadcast CDF: (rank-1)/(n-1),
        # exact ints into one division
        "percent_rank_orders": """
            WITH o AS (SELECT o_orderkey,
                              CAST(trunc(o_totalprice*100) AS BIGINT)
                                  AS total_c
                       FROM orders)
            SELECT o_orderkey, total_c,
                   PERCENT_RANK() OVER (ORDER BY total_c) AS pct_rank
            FROM o""",
        # LAG-based event throttling (de-bounce): keep iff no same
        # (user, type) event within gap_s before it
        "throttle_events": """
            WITH e AS (SELECT event_id, user_id, event_type,
                              epoch_us(ts) AS ts_us FROM events),
            l AS (SELECT event_id, user_id, event_type, ts_us,
                         LAG(ts_us) OVER (PARTITION BY user_id, event_type
                             ORDER BY ts_us, event_id) AS prev
                  FROM e)
            SELECT event_id, user_id, event_type, ts_us FROM l
            WHERE prev IS NULL OR ts_us - prev > 600000000""",
        # SQL MERGE / upsert: change side wins per key, unmatched rows
        # from both sides survive (change set derived from orders)
        "merge_upsert": """
            WITH base AS (SELECT o_orderkey,
                                 CAST(trunc(o_totalprice*100) AS BIGINT)
                                     AS total_c
                          FROM orders),
            chg AS (
                SELECT o_orderkey, total_c + 100 AS total_c FROM base
                WHERE o_orderkey % 2 = 1
                UNION ALL
                SELECT o_orderkey + 1000000000, total_c FROM base
                WHERE o_orderkey < 100)
            SELECT COALESCE(c.o_orderkey, b.o_orderkey) AS o_orderkey,
                   COALESCE(c.total_c, b.total_c) AS total_c
            FROM base b FULL OUTER JOIN chg c
              ON b.o_orderkey = c.o_orderkey""",
        # CDC diff: ADDED / CHANGED rows only (change-proportional)
        "snapshot_diff": """
            WITH base AS (SELECT o_orderkey,
                                 CAST(trunc(o_totalprice*100) AS BIGINT)
                                     AS total_c
                          FROM orders),
            chg AS (
                SELECT o_orderkey, total_c + 100 AS total_c FROM base
                WHERE o_orderkey % 2 = 1
                UNION ALL
                SELECT o_orderkey + 1000000000, total_c FROM base
                WHERE o_orderkey < 100),
            nw AS (SELECT COALESCE(c.o_orderkey, b.o_orderkey)
                              AS o_orderkey,
                          COALESCE(c.total_c, b.total_c) AS total_c
                   FROM base b FULL OUTER JOIN chg c
                     ON b.o_orderkey = c.o_orderkey)
            SELECT n.o_orderkey, b.total_c AS old_c, n.total_c AS new_c,
                   CASE WHEN b.o_orderkey IS NULL THEN 'ADDED'
                        ELSE 'CHANGED' END AS status
            FROM nw n LEFT JOIN base b ON b.o_orderkey = n.o_orderkey
            WHERE b.o_orderkey IS NULL OR b.total_c != n.total_c""",
        # SCD2 validity intervals via LEAD over the unique order key
        "user_value_history": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                              CAST(trunc(value*100) AS BIGINT) AS value_c
                       FROM events WHERE value IS NOT NULL)
            SELECT user_id, event_id, value_c,
                   ts_us AS valid_from_us,
                   LEAD(ts_us) OVER (PARTITION BY user_id
                       ORDER BY ts_us, event_id) AS valid_to_us
            FROM e""",
        # semi attach == plain semi-join
        "lineitem_big_orders": """
            SELECT l_orderkey, l_partkey,
                   CAST(trunc(l_extendedprice*100) AS BIGINT) AS price_c
            FROM lineitem
            WHERE l_orderkey IN (
                SELECT o_orderkey FROM orders
                WHERE CAST(trunc(o_totalprice*100) AS BIGINT)
                      > 40000000)""",
        # Z-order / Morton clustering key: exact integer bit interleave
        "zorder_parts": """
            WITH p AS (SELECT p_partkey,
                              LEAST(CAST(p_size AS BIGINT), 65535) AS x,
                              LEAST(CAST(trunc(p_retailprice*100)
                                         AS BIGINT) // 100, 65535) AS y
                       FROM part)
            SELECT p_partkey, x, y,
                   CAST((SELECT SUM((((x >> j) & 1) << (2*j))
                                    + (((y >> j) & 1) << (2*j + 1)))
                         FROM generate_series(0, 15) g(j)) AS BIGINT)
                       AS zcode
            FROM p""",
        # global CDF: tie-deterministic CUME_DIST; int/int division is
        # bit-identical IEEE double on both engines
        "cume_dist_orders": """
            WITH o AS (SELECT o_orderkey,
                              CAST(trunc(o_totalprice*100) AS BIGINT)
                                  AS total_c
                       FROM orders)
            SELECT o_orderkey, total_c,
                   CUME_DIST() OVER (ORDER BY total_c) AS cume_dist
            FROM o""",
        # global RANK / DENSE_RANK without a global sort: tie-deterministic
        # window functions, exact int arithmetic on both engines
        "rank_orders": """
            WITH o AS (SELECT o_orderkey,
                              CAST(trunc(o_totalprice*100) AS BIGINT)
                                  AS total_c
                       FROM orders)
            SELECT o_orderkey, total_c,
                   CAST(RANK() OVER (ORDER BY total_c) AS BIGINT) AS rnk,
                   CAST(DENSE_RANK() OVER (ORDER BY total_c) AS BIGINT)
                       AS drnk
            FROM o""",
        # hive-partitioned write -> partition-pruned read roundtrip; the
        # oracle reproduces the pruned (en/de) aggregate from the source
        "partitioned_docs": """
            SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
                   CAST(MAX(doc_id) AS BIGINT) AS max_doc
            FROM documents WHERE lang IN ('en', 'de')
            GROUP BY lang""",
        # fit/transform z-score standardization from exact int moments;
        # the (x-mean)/std expression is written identically both sides
        "zscore_events": """
            WITH m AS (SELECT COUNT(*) AS n,
                              SUM(CAST(trunc(value*100) AS BIGINT)) AS s,
                              SUM(CAST(trunc(value*100) AS BIGINT)
                                  * CAST(trunc(value*100) AS BIGINT))
                                  AS s2
                       FROM events)
            SELECT event_id,
                   CAST(trunc(value*100) AS BIGINT) AS value_c,
                   (CAST(trunc(value*100) AS BIGINT)
                    - CAST(s AS DOUBLE) / n)
                   / sqrt((CAST(s2 AS DOUBLE)
                           - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / n)
                          / n) AS z
            FROM events CROSS JOIN m""",
        # per-user cumulative prefix sum; unique (ts_s, event_id) order
        "user_running_total": """
            WITH e AS (SELECT event_id, user_id,
                              epoch_us(ts) // 1000000 AS ts_s,
                              CAST(trunc(value*100) AS BIGINT) AS cents
                       FROM events)
            SELECT event_id, user_id, ts_s,
                   CAST(SUM(cents) OVER w AS BIGINT) AS running_c,
                   CAST(ROW_NUMBER() OVER w AS BIGINT) AS row_in_user
            FROM e WINDOW w AS (PARTITION BY user_id
                ORDER BY ts_s, event_id ROWS UNBOUNDED PRECEDING)""",
        # FULL OUTER join of two combiner aggregates; missing sides NULL
        "nation_balance_full": """
            WITH c AS (SELECT CAST(c_nationkey AS BIGINT) AS nationkey,
                              CAST(SUM(CAST(trunc(c_acctbal*100) AS BIGINT))
                                   AS BIGINT) AS cust_bal_c
                       FROM customer WHERE c_acctbal > 3000.0
                       GROUP BY c_nationkey),
                 s AS (SELECT CAST(s_nationkey AS BIGINT) AS nationkey,
                              CAST(SUM(CAST(trunc(s_acctbal*100) AS BIGINT))
                                   AS BIGINT) AS supp_bal_c
                       FROM supplier GROUP BY s_nationkey)
            SELECT COALESCE(c.nationkey, s.nationkey) AS nationkey,
                   cust_bal_c, supp_bal_c
            FROM c FULL OUTER JOIN s ON c.nationkey = s.nationkey""",
        # interpolated percentiles, type-7 (quantile_cont semantics) with
        # the interpolation expression spelled out so doubles agree
        "percentiles_cont": """
            WITH v AS (SELECT CAST(trunc(l_extendedprice*100) AS BIGINT)
                           AS val FROM lineitem),
            s AS (SELECT val, ROW_NUMBER() OVER (ORDER BY val) AS rn
                  FROM v),
            n AS (SELECT COUNT(*) AS n FROM v),
            qs(q) AS (VALUES (0.25), (0.5), (0.75), (0.9)),
            pick AS (SELECT q,
                            CAST(floor((n.n - 1) * q) + 1 AS BIGINT)
                                AS r_lo,
                            LEAST(CAST(floor((n.n - 1) * q) + 2 AS BIGINT),
                                  n.n) AS r_hi,
                            (n.n - 1) * q - floor((n.n - 1) * q) AS frac
                     FROM qs CROSS JOIN n)
            SELECT p.q,
                   CAST(lo.val AS DOUBLE)
                   + p.frac * (CAST(hi.val AS DOUBLE)
                               - CAST(lo.val AS DOUBLE)) AS val_c
            FROM pick p JOIN s lo ON lo.rn = p.r_lo
                        JOIN s hi ON hi.rn = p.r_hi""",
        # block-mean 4x4 grid resize over formulaic pixels: the oracle
        # recomputes the floor-grid AVG from generate_series, never the
        # codec — value-verifies the decode+resize path cell by cell
        "media_resize": """
            WITH m AS (SELECT p_partkey AS media_id,
                              8 + p_partkey % 25 AS w,
                              8 + (p_partkey // 25) % 25 AS h
                       FROM part WHERE p_partkey < 256),
            cells AS (SELECT media_id,
                             ((i // w) * 4) // h AS py,
                             ((i % w) * 4) // w AS px,
                             (media_id + i) % 256 AS v
                      FROM m CROSS JOIN generate_series(0, 1023) t(i)
                      WHERE i < w * h)
            SELECT media_id, CAST(py AS BIGINT) AS py,
                   CAST(px AS BIGINT) AS px, AVG(v) AS v
            FROM cells GROUP BY media_id, py, px""",
        # HdrHistogram-class log-linear quantile sketch: PURE INTEGER
        # bucketing (bit length + linear subdivision), so the sketch
        # estimate is bit-reproducible in SQL — a value-verified sketch
        "hdr_percentiles": """
            WITH v AS (SELECT CAST(trunc(l_extendedprice*100) AS BIGINT)
                           AS val FROM lineitem WHERE
                           trunc(l_extendedprice*100) > 0),
            k AS (SELECT ((length(printf('%b', val)) - 1) * 32
                          + ((val - (1::BIGINT
                                     << (length(printf('%b', val)) - 1)))
                             * 32)
                            // (1::BIGINT
                                << (length(printf('%b', val)) - 1)))
                      AS key
                  FROM v),
            h AS (SELECT key, COUNT(*) AS cnt FROM k GROUP BY key),
            c AS (SELECT key, SUM(cnt) OVER (ORDER BY key
                      ROWS UNBOUNDED PRECEDING) AS cum FROM h),
            n AS (SELECT COUNT(*) AS n FROM v),
            qs(q) AS (VALUES (0.25), (0.5), (0.75), (0.9), (0.99)),
            r AS (SELECT q, CAST(floor(q * (n.n - 1)) + 1 AS BIGINT)
                      AS rnk FROM qs CROSS JOIN n),
            pick AS (SELECT q, MIN(key) AS key FROM r
                     JOIN c ON c.cum >= r.rnk GROUP BY q)
            SELECT q,
                   CAST((1::BIGINT << (key // 32))
                        + (key % 32) * (1::BIGINT << (key // 32)) // 32
                        AS BIGINT) AS est_c
            FROM pick""",
        # EXPLODE / UNNEST with a 1-based position column
        "doc_token_rows": r"""
            WITH d AS (SELECT doc_id, string_split_regex(trim(text),
                                                         '\s+') AS l
                       FROM documents
                       WHERE doc_id < 50 AND length(trim(text)) > 0)
            SELECT doc_id, CAST(i AS BIGINT) AS pos, l[i] AS token
            FROM d, LATERAL (SELECT unnest(generate_series(1, len(l)))
                             AS i)""",
        # ROWS-mode trailing window: unique (ts_s, event_id) order key;
        # sums exact int cents, avg = IEEE division of the exact ints
        "moving_avg_user": """
            WITH e AS (SELECT event_id, user_id,
                              epoch_us(ts) // 1000000 AS ts_s,
                              CAST(trunc(value*100) AS BIGINT) AS cents
                       FROM events)
            SELECT event_id, user_id, ts_s,
                   CAST(SUM(cents) OVER w AS BIGINT) AS ma_sum_c,
                   CAST(COUNT(*) OVER w AS BIGINT) AS ma_count,
                   CAST(SUM(cents) OVER w AS DOUBLE)
                       / (COUNT(*) OVER w) AS ma_avg_c
            FROM e WINDOW w AS (PARTITION BY user_id
                ORDER BY ts_s, event_id
                ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)""",
        # exact frequent elements: the bounded-memory two-pass engine
        # answer equals the plain HAVING-threshold SQL by construction
        "heavy_hitters": r"""
            WITH tk AS (SELECT unnest(string_split_regex(trim(text),
                                                         '\s+')) AS token
                        FROM documents WHERE length(trim(text)) > 0)
            SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt FROM tk
            GROUP BY token
            HAVING COUNT(*) * 64 > (SELECT COUNT(*) FROM tk)""",
        # in-engine BM25 (k1=1.2, b=0.75, idf = ln(1+(N-df+.5)/(df+.5)));
        # scores rounded to 6 dp then tie-broken by doc_id on both sides
        "bm25_topk": r"""
            WITH q(query_id, term) AS (VALUES
                ('q1','hash'), ('q1','join'), ('q1','table'),
                ('q2','window'), ('q2','agg'), ('q2','stream'),
                ('q3','fast'), ('q3','scan'), ('q3','filter')),
            tk AS (SELECT doc_id, unnest(string_split_regex(trim(text),
                                                            '\s+')) AS tok
                   FROM documents WHERE length(trim(text)) > 0),
            dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl
                   FROM tk GROUP BY doc_id),
            stats AS (SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
                             (SELECT CAST(SUM(dl) AS DOUBLE)
                                     / (SELECT COUNT(*) FROM documents)
                              FROM dl) AS avgdl),
            tf AS (SELECT doc_id, tok AS term, COUNT(*) AS tf
                   FROM tk WHERE tok IN (SELECT term FROM q)
                   GROUP BY doc_id, tok),
            df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
            contrib AS (
                SELECT q.query_id, tf.doc_id,
                       ln(1.0 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                       * (tf.tf * 2.2)
                       / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))
                           AS c
                FROM q JOIN tf ON q.term = tf.term
                  JOIN df ON df.term = q.term
                  JOIN dl ON dl.doc_id = tf.doc_id
                  CROSS JOIN stats s),
            scored AS (SELECT query_id, doc_id,
                              ROUND(SUM(c), 6) AS score
                       FROM contrib GROUP BY query_id, doc_id)
            SELECT query_id, doc_id, score,
                   CAST(ROW_NUMBER() OVER (PARTITION BY query_id
                        ORDER BY score DESC, doc_id) AS BIGINT) AS rnk
            FROM scored
            QUALIFY rnk <= 10""",
        # the composed retrieve-then-rerank flow: BM25 top-50 candidates,
        # rerank = 0.9*bm25 + 0.1*token-set-Jaccard (the reference's
        # 0.9/0.1 blend), per-query top-10 — one value oracle over the
        # WHOLE composition
        "rerank_bm25": r"""
            WITH q(query_id, term) AS (VALUES
                ('q1','hash'), ('q1','join'), ('q1','table'),
                ('q2','window'), ('q2','agg'), ('q2','stream'),
                ('q3','fast'), ('q3','scan'), ('q3','filter')),
            qn AS (SELECT query_id, CAST(COUNT(*) AS BIGINT) AS nq
                   FROM q GROUP BY query_id),
            tk AS (SELECT doc_id, unnest(string_split_regex(trim(text),
                                                            '\s+')) AS tok
                   FROM documents WHERE length(trim(text)) > 0),
            dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl
                   FROM tk GROUP BY doc_id),
            stats AS (SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
                             (SELECT CAST(SUM(dl) AS DOUBLE)
                                     / (SELECT COUNT(*) FROM documents)
                              FROM dl) AS avgdl),
            tf AS (SELECT doc_id, tok AS term, COUNT(*) AS tf
                   FROM tk WHERE tok IN (SELECT term FROM q)
                   GROUP BY doc_id, tok),
            df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
            contrib AS (
                SELECT q.query_id, tf.doc_id,
                       ln(1.0 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                       * (tf.tf * 2.2)
                       / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))
                           AS c
                FROM q JOIN tf ON q.term = tf.term
                  JOIN df ON df.term = q.term
                  JOIN dl ON dl.doc_id = tf.doc_id
                  CROSS JOIN stats s),
            scored AS (SELECT query_id, doc_id,
                              ROUND(SUM(c), 6) AS score
                       FROM contrib GROUP BY query_id, doc_id),
            cand AS (SELECT query_id, doc_id, score FROM (
                SELECT query_id, doc_id, score,
                       ROW_NUMBER() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS r
                FROM scored) WHERE r <= 50),
            ddist AS (SELECT doc_id,
                             CAST(COUNT(DISTINCT tok) AS BIGINT) AS dtoks
                      FROM tk GROUP BY doc_id),
            inter AS (SELECT q.query_id, tk.doc_id,
                             CAST(COUNT(DISTINCT tk.tok) AS BIGINT) AS i
                      FROM q JOIN tk ON tk.tok = q.term
                      GROUP BY q.query_id, tk.doc_id),
            rr AS (SELECT c.query_id, c.doc_id, c.score AS bm25,
                          CAST(COALESCE(i.i, 0) AS DOUBLE)
                          / CAST(dd.dtoks + qn.nq - COALESCE(i.i, 0)
                                 AS DOUBLE) AS jac_raw
                   FROM cand c
                     JOIN ddist dd ON dd.doc_id = c.doc_id
                     JOIN qn ON qn.query_id = c.query_id
                     LEFT JOIN inter i ON i.query_id = c.query_id
                                      AND i.doc_id = c.doc_id)
            SELECT query_id, doc_id, bm25, ROUND(jac_raw, 6) AS jac,
                   ROUND(0.9 * bm25 + 0.1 * jac_raw, 6) AS rerank,
                   CAST(ROW_NUMBER() OVER (PARTITION BY query_id
                        ORDER BY ROUND(0.9 * bm25 + 0.1 * jac_raw, 6) DESC,
                                 doc_id) AS BIGINT) AS rnk
            FROM rr
            QUALIFY rnk <= 10""",
        # ROW_NUMBER / NTILE without a global sort: unique (total_c,
        # orderkey) order key, exact int arithmetic on both engines
        "row_number_orders": """
            WITH o AS (SELECT o_orderkey,
                              CAST(trunc(o_totalprice*100) AS BIGINT)
                                  AS total_c
                       FROM orders)
            SELECT o_orderkey, total_c,
                   CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn,
                   CAST(NTILE(7) OVER w AS BIGINT) AS tile
            FROM o WINDOW w AS (ORDER BY total_c, o_orderkey)""",
        # per-user LAG gap; (ts_s, event_id) order key is unique so the
        # gap is deterministic
        "user_gaps": """
            WITH e AS (SELECT event_id, user_id,
                              epoch_us(ts) // 1000000 AS ts_s FROM events),
            l AS (SELECT event_id, user_id, ts_s,
                         ts_s - LAG(ts_s) OVER (PARTITION BY user_id
                             ORDER BY ts_s, event_id) AS gap_s
                  FROM e)
            SELECT event_id, user_id, ts_s, CAST(gap_s AS BIGINT) AS gap_s
            FROM l WHERE gap_s IS NOT NULL""",
        # grouped variance/stddev from exact integer moments; the final
        # float expression is written identically on both engines so the
        # IEEE doubles agree bit-for-bit
        "segment_stats": """
            WITH m AS (SELECT c_mktsegment,
                              CAST(COUNT(*) AS BIGINT) AS n,
                              CAST(SUM(CAST(trunc(o_totalprice) AS BIGINT))
                                   AS BIGINT) AS sum_d,
                              CAST(SUM(CAST(trunc(o_totalprice) AS BIGINT)
                                       * CAST(trunc(o_totalprice) AS BIGINT))
                                   AS BIGINT) AS sumsq_d
                       FROM orders JOIN customer ON o_custkey = c_custkey
                       GROUP BY c_mktsegment)
            SELECT c_mktsegment, n, sum_d,
                   CAST(sum_d AS DOUBLE) / n AS mean_d,
                   (CAST(sumsq_d AS DOUBLE)
                    - CAST(sum_d AS DOUBLE) * CAST(sum_d AS DOUBLE) / n)
                   / n AS var_d,
                   sqrt((CAST(sumsq_d AS DOUBLE)
                         - CAST(sum_d AS DOUBLE) * CAST(sum_d AS DOUBLE)
                           / n) / n) AS std_d
            FROM m""",
        # grouped ARG_MIN/ARG_MAX via the same composite day*2^32+orderkey
        # encoding the engine's combiner min/max uses
        "customer_order_span": """
            WITH e AS (SELECT o_custkey,
                              (epoch_us(o_orderdate) // 1000000 // 86400)
                              * 4294967296 + o_orderkey AS enc
                       FROM orders)
            SELECT o_custkey,
                   CAST(MIN(enc) // 4294967296 AS BIGINT) AS first_day,
                   CAST(MIN(enc) % 4294967296 AS BIGINT) AS first_orderkey,
                   CAST(MAX(enc) // 4294967296 AS BIGINT) AS last_day,
                   CAST(MAX(enc) % 4294967296 AS BIGINT) AS last_orderkey
            FROM e GROUP BY o_custkey""",
        # grouped MODE with a deterministic lexicographic tie-break
        "priority_mode": """
            WITH c AS (SELECT o_orderstatus, o_orderpriority,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM orders GROUP BY o_orderstatus, o_orderpriority)
            SELECT o_orderstatus, o_orderpriority, n FROM c
            QUALIFY ROW_NUMBER() OVER (PARTITION BY o_orderstatus
                ORDER BY n DESC, o_orderpriority) = 1""",
        # INTERSECT / EXCEPT as presence tags: 1 = customers only,
        # 2 = suppliers only, 3 = both
        "nation_set_ops": """
            WITH c AS (SELECT DISTINCT CAST(c_nationkey AS BIGINT)
                           AS nationkey FROM customer),
                 s AS (SELECT DISTINCT CAST(s_nationkey AS BIGINT)
                           AS nationkey FROM supplier)
            SELECT COALESCE(c.nationkey, s.nationkey) AS nationkey,
                   CAST(CASE WHEN c.nationkey IS NOT NULL THEN 1 ELSE 0 END
                        + CASE WHEN s.nationkey IS NOT NULL THEN 2 ELSE 0
                          END AS BIGINT) AS tag
            FROM c FULL OUTER JOIN s ON c.nationkey = s.nationkey""",
        # grouped ORDERED collect: string_agg with a unique order key
        "user_event_paths": """
            WITH e AS (SELECT event_id, user_id, event_type,
                              epoch_us(ts) // 1000000 AS ts_s FROM events)
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
                   string_agg(event_type, ',' ORDER BY ts_s, event_id)
                       AS path
            FROM e GROUP BY user_id""",
        # Pareto frontier (skyline): rows with no strict dominator on
        # (minimize price, maximize size)
        "pareto_parts": """
            WITH p AS (SELECT p_partkey,
                              CAST(trunc(p_retailprice*100) AS BIGINT)
                                  AS price_c,
                              CAST(p_size AS BIGINT) AS p_size
                       FROM part)
            SELECT p_partkey, price_c, p_size FROM p a
            WHERE NOT EXISTS (SELECT 1 FROM p b
                WHERE b.price_c <= a.price_c AND b.p_size >= a.p_size
                  AND (b.price_c < a.price_c OR b.p_size > a.p_size))""",
        "cube_revenue": """
            SELECT r_name, n_name,
                   CAST(SUM(CAST(trunc(o_totalprice*100) AS BIGINT))
                        AS BIGINT) AS revenue_c,
                   CAST(GROUPING(r_name)*2 + GROUPING(n_name) AS BIGINT)
                       AS lvl
            FROM orders JOIN customer ON o_custkey = c_custkey
              JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
            GROUP BY CUBE(r_name, n_name)""",
        # k-core fixpoint: single-row recursive CTE carrying the surviving
        # node list; adjacency rides as a MAP expression (the dfs pattern
        # without correlated subqueries, which DuckDB's binder rejects
        # inside recursion)
        "kcore_copurchase": """
            WITH RECURSIVE pairs AS (
                SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey != b.l_partkey
            ), adj AS (
                SELECT src, list_sort(list(DISTINCT dst)) AS nbrs
                FROM pairs GROUP BY src
            ), amap AS (
                SELECT map(list(src ORDER BY src),
                           list(nbrs ORDER BY src)) AS m
                FROM adj
            ), s(it, nodes, prev) AS (
                SELECT 0,
                       (SELECT list(DISTINCT src ORDER BY src) FROM pairs),
                       CAST(-1 AS BIGINT)
                UNION ALL
                SELECT it + 1,
                  list_sort([n FOR n IN s.nodes IF
                      len(list_filter(COALESCE(amap.m[n][1],
                                               CAST([] AS BIGINT[])),
                          x -> list_contains(s.nodes, x))) >= 68]),
                  CAST(len(s.nodes) AS BIGINT)
                FROM s, amap WHERE len(s.nodes) != s.prev
            ), fin AS (SELECT nodes FROM s ORDER BY it DESC LIMIT 1),
            members AS (SELECT unnest(nodes) AS part, nodes FROM fin)
            SELECT CAST(part AS BIGINT) AS part,
                   CAST(len(list_filter(COALESCE(amap.m[part][1],
                                                 CAST([] AS BIGINT[])),
                        x -> list_contains(nodes, x))) AS BIGINT) AS deg
            FROM members, amap""",
        # per-node triangle counts: canonical src<dst edge set, 3-way
        # self-join, each triangle credits its three corners
        "triangles_copurchase": """
            WITH pairs AS (
                SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey != b.l_partkey
            ), und AS (SELECT src, dst FROM pairs WHERE src < dst),
            tri AS (
                SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
                FROM und e1 JOIN und e2 ON e2.src = e1.dst
                  JOIN und e3 ON e3.src = e1.src AND e3.dst = e2.dst
            )
            SELECT node, CAST(COUNT(*) AS BIGINT) AS n_triangles FROM (
                SELECT a AS node FROM tri
                UNION ALL SELECT b AS node FROM tri
                UNION ALL SELECT c AS node FROM tri) t(node)
            GROUP BY node""",
        # ROLLUP grouping sets; lvl = GROUPING(r)*2 + GROUPING(n)
        "rollup_revenue": """
            SELECT r_name, n_name,
                   CAST(SUM(CAST(trunc(o_totalprice*100) AS BIGINT))
                        AS BIGINT) AS revenue_c,
                   CAST(GROUPING(r_name)*2 + GROUPING(n_name) AS BIGINT)
                       AS lvl
            FROM orders JOIN customer ON o_custkey = c_custkey
              JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
            GROUP BY ROLLUP(r_name, n_name)""",
        "customers_no_orders": """
            SELECT c_custkey FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 300000.0)""",
        # declarative DQ gate: one row per constraint rule
        "dq_checks": """
            WITH t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(COUNT(*) - COUNT(DISTINCT o_orderkey) AS BIGINT)
                       AS dup_keys,
                   CAST(SUM(CASE WHEN o_custkey IS NULL
                                 THEN 1 ELSE 0 END) AS BIGINT) AS nulls,
                   CAST(SUM(CASE WHEN o_totalprice < 0
                                 THEN 1 ELSE 0 END) AS BIGINT) AS neg,
                   CAST(SUM(CASE WHEN o_orderdate
                                      < TIMESTAMP '1990-01-01'
                                   OR o_orderdate
                                      >= TIMESTAMP '2030-01-01'
                                 THEN 1 ELSE 0 END) AS BIGINT) AS oob
                       FROM orders),
            fk AS (SELECT CAST(COUNT(*) AS BIGINT) AS bad
                   FROM orders o LEFT JOIN customer c
                     ON o.o_custkey = c.c_custkey
                   WHERE c.c_custkey IS NULL)
            SELECT 'unique_orderkey' AS rule, dup_keys AS violations,
                   n AS n_checked FROM t
            UNION ALL SELECT 'fk_custkey_customer', bad, n FROM t, fk
            UNION ALL SELECT 'null_custkey', nulls, n FROM t
            UNION ALL SELECT 'nonneg_price', neg, n FROM t
            UNION ALL SELECT 'date_in_range', oob, n FROM t""",
        # PSI drift decomposition: per-bucket Laplace-smoothed
        # contributions, no cross-engine float summation
        "psi_drift": """
            WITH b AS (SELECT CASE WHEN o_orderdate < DATE '1998-01-01'
                                   THEN 0 ELSE 1 END AS half,
                              LEAST(9, CAST(FLOOR(o_totalprice / 50000)
                                            AS BIGINT)) AS bucket
                       FROM orders),
            c AS (SELECT half, bucket, CAST(COUNT(*) AS BIGINT) AS n
                  FROM b GROUP BY half, bucket),
            g AS (SELECT gs.bucket,
                         COALESCE(MAX(CASE WHEN c.half = 0
                                           THEN c.n END), 0) AS n0,
                         COALESCE(MAX(CASE WHEN c.half = 1
                                           THEN c.n END), 0) AS n1
                  FROM (SELECT UNNEST(range(10)) AS bucket) gs
                  LEFT JOIN c ON c.bucket = gs.bucket
                  GROUP BY gs.bucket),
            t AS (SELECT CAST(SUM(n0) AS DOUBLE) AS t0,
                         CAST(SUM(n1) AS DOUBLE) AS t1 FROM g)
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(n0 AS BIGINT) AS n_ref,
                   CAST(n1 AS BIGINT) AS n_cur,
                   ROUND(((n0 + 1.0) / (t0 + 10)
                          - (n1 + 1.0) / (t1 + 10))
                         * ln(((n0 + 1.0) / (t0 + 10))
                              / ((n1 + 1.0) / (t1 + 10))), 6) AS contrib
            FROM g CROSS JOIN t""",
        # O2 faithful mode: scores compared as STRINGS (binary collation
        # = Python byte-wise compare), the reference merge_results quirk
        "stringsort_rank_quirk": """
            WITH c AS (SELECT o_custkey AS qid, o_orderkey AS pid,
                              CAST(trunc(o_totalprice * 100) AS BIGINT)
                                  AS score_c
                       FROM orders),
            e AS (SELECT qid, pid, score_c,
                         CAST(score_c // 100 AS VARCHAR) || '.' ||
                         lpad(CAST(score_c % 100 AS VARCHAR), 2, '0')
                             AS score_str
                  FROM c),
            r AS (SELECT qid, pid, score_str,
                         ROW_NUMBER() OVER (PARTITION BY qid
                             ORDER BY score_str DESC, pid) AS rank_str,
                         ROW_NUMBER() OVER (PARTITION BY qid
                             ORDER BY score_c DESC, pid) AS rank_num
                  FROM e)
            SELECT CAST(qid AS BIGINT) AS qid, CAST(pid AS BIGINT) AS pid,
                   score_str, CAST(rank_str AS BIGINT) AS rank_str,
                   CAST(rank_num AS BIGINT) AS rank_num
            FROM r WHERE rank_str <= 10""",
        "merge_runs": """
            SELECT o_orderkey, CAST(MIN(src) AS BIGINT) AS src FROM (
                SELECT o_orderkey, 0 AS src FROM orders WHERE o_orderstatus = 'F'
                UNION ALL
                SELECT o_orderkey, 1 AS src FROM orders WHERE o_totalprice > 100000.0
            ) GROUP BY o_orderkey""",
        "topk_per_customer": """
            SELECT o_custkey, o_orderkey, total_c, CAST(rnk AS BIGINT) AS rnk
            FROM (SELECT o_custkey, o_orderkey,
                         CAST(trunc(o_totalprice*100) AS BIGINT) AS total_c,
                         ROW_NUMBER() OVER (
                             PARTITION BY o_custkey
                             ORDER BY CAST(trunc(o_totalprice*100) AS BIGINT) DESC,
                                      o_orderkey) AS rnk
                  FROM orders)
            WHERE rnk <= 3""",
        "distinct_counts": """
            SELECT CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n_event_types,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events""",
        "doc_tokens": r"""
            SELECT doc_id,
                   CAST(CASE WHEN length(trim(text)) = 0 THEN 0
                        ELSE len(string_split_regex(trim(text), '\s+')) END
                        AS BIGINT) AS n_tokens,
                   CAST(length(text) AS BIGINT) AS n_chars2
            FROM documents""",
        "doc_quality": r"""
            SELECT doc_id, CAST(n_punct AS BIGINT) AS n_punct,
                   ROUND(0.5 * LEAST(n_tokens, 100) / 100.0 +
                         0.5 * (1.0 - n_punct / GREATEST(n_chars, 1)), 6) AS quality
            FROM (SELECT doc_id,
                         len(regexp_extract_all(text, '[^\w\s]')) AS n_punct,
                         CASE WHEN length(trim(text)) = 0 THEN 0
                              ELSE len(string_split_regex(trim(text), '\s+')) END
                              AS n_tokens,
                         length(text) AS n_chars
                  FROM documents)""",
        "doc_langid": _langid_sql(),
        "dedup_exact": """
            SELECT text, CAST(MIN(doc_id) AS BIGINT) AS keep_id, CAST(COUNT(*) AS BIGINT) AS n_copies
            FROM documents GROUP BY text""",
        "ann_topk": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings WHERE vec_id < 10),
                 s AS (SELECT q.query_id, e.vec_id,
                              list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                                     CAST(e.embedding AS DOUBLE[])) AS score
                       FROM q CROSS JOIN embeddings e
                       WHERE e.vec_id != q.query_id)
            SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rnk
            FROM (SELECT query_id, vec_id,
                         ROW_NUMBER() OVER (PARTITION BY query_id
                                            ORDER BY score DESC, vec_id) AS rnk
                  FROM s)
            WHERE rnk <= 5""",
        # fixed-quantizer IVF: cells = 16 lowest vec_ids; cell assignment
        # is argmax cosine (ties -> lowest cell, the numpy argmax
        # convention); each query probes its 4 best cells; final top-5
        # tie-broken by vec_id — every step plain SQL
        "ann_ivf_fixed_topk": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings),
                 c AS (SELECT vec_id AS cell_id, v FROM e
                       WHERE vec_id < 16),
                 a AS (SELECT e.vec_id, c.cell_id,
                              ROW_NUMBER() OVER (PARTITION BY e.vec_id
                                  ORDER BY list_cosine_similarity(e.v, c.v)
                                      DESC, c.cell_id) AS rn
                       FROM e CROSS JOIN c),
                 cell AS (SELECT vec_id, cell_id FROM a WHERE rn = 1),
                 q AS (SELECT vec_id AS query_id, v FROM e
                       WHERE vec_id < 10),
                 pr AS (SELECT q.query_id, c.cell_id,
                               ROW_NUMBER() OVER (PARTITION BY q.query_id
                                   ORDER BY list_cosine_similarity(q.v, c.v)
                                       DESC, c.cell_id) AS rn
                        FROM q CROSS JOIN c),
                 probe AS (SELECT query_id, cell_id FROM pr WHERE rn <= 4),
                 s AS (SELECT q.query_id, e.vec_id,
                              list_cosine_similarity(q.v, e.v) AS score
                       FROM q
                       JOIN probe p ON p.query_id = q.query_id
                       JOIN cell ce ON ce.cell_id = p.cell_id
                       JOIN e ON e.vec_id = ce.vec_id
                       WHERE e.vec_id != q.query_id)
            SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rnk
            FROM (SELECT query_id, vec_id,
                         ROW_NUMBER() OVER (PARTITION BY query_id
                             ORDER BY score DESC, vec_id) AS rnk
                  FROM s)
            WHERE rnk <= 5""",
        "part_mentions": f"""
            WITH t AS (SELECT p_partkey, {title} AS text FROM part)
            SELECT p_partkey,
                   CAST(len(list_filter(regexp_extract_all(text, '{_MENTION_RE_SQL}'),
                                        m -> {_RHO_FILTER_SQL})) AS BIGINT) AS n_mentions
            FROM t""",
        "linkage_parts_surfaces": f"""
            WITH t AS (SELECT p_brand AS conv_id,
                              CAST(p_partkey AS BIGINT) AS turn_idx,
                              {title} AS text FROM part),
                 f AS (SELECT conv_id, turn_idx,
                              list_filter(regexp_extract_all(text,
                                  '{_MENTION_RE_SQL}'),
                                  m -> {_RHO_FILTER_SQL}) AS ms FROM t),
                 m AS (SELECT conv_id, turn_idx,
                              unnest(ms) AS surface,
                              unnest(range(1, len(ms) + 1)) AS ord
                       FROM f)
            SELECT conv_id, turn_idx, CAST(ord AS BIGINT) AS ord, surface,
                   {_NORM_SQL.format(col="surface")} AS norm,
                   ROUND({_RHO_EXPR.format(c="surface")}, 6) AS rho
            FROM m""",
        "mention_vocab": f"""
            WITH t AS (SELECT {title} AS text FROM part),
                 m AS (SELECT unnest(list_filter(
                           regexp_extract_all(text, '{_MENTION_RE_SQL}'),
                           m -> {_RHO_FILTER_SQL})) AS surface FROM t)
            SELECT {norm} AS norm, CAST(COUNT(*) AS BIGINT) AS n_mentions
            FROM m GROUP BY norm""",
        # DFS visit order IS SQL-expressible after all: the engine's
        # stack machine (stages/graph.expand_per_seed walk: pop from the
        # end, push unvisited neighbors sorted ascending, seed never
        # marked visited — the reference's re-expansion quirk) simulated
        # by a SINGLE-ROW recursive CTE carrying list-typed (stack,
        # visited) state, one iteration per pop. Promotes the former
        # rows-only check to a full value match.
        "dfs_copurchase": r"""
            WITH RECURSIVE adj AS (
                SELECT src, list_sort(list(DISTINCT dst)) AS nbrs FROM (
                    SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                    FROM lineitem a JOIN lineitem b
                      ON a.l_orderkey = b.l_orderkey
                     AND a.l_partkey != b.l_partkey
                ) GROUP BY src
            ), walk(step, stack, visited) AS (
                SELECT 0, [CAST(0 AS BIGINT)], CAST([] AS BIGINT[])
                UNION ALL
                SELECT step + 1,
                    list_concat(
                        stack[1:len(stack)-1],
                        CASE WHEN list_contains(visited, stack[len(stack)])
                             THEN CAST([] AS BIGINT[])
                             ELSE list_sort(list_filter(
                                 COALESCE((SELECT nbrs FROM adj
                                     WHERE adj.src = stack[len(stack)]),
                                     CAST([] AS BIGINT[])),
                                 x -> NOT list_contains(
                                     CASE WHEN list_contains(
                                              visited, stack[len(stack)])
                                            OR stack[len(stack)] = 0
                                          THEN visited
                                          ELSE list_append(
                                              visited, stack[len(stack)])
                                     END, x)))
                        END),
                    CASE WHEN list_contains(visited, stack[len(stack)])
                              OR stack[len(stack)] = 0
                         THEN visited
                         ELSE list_append(visited, stack[len(stack)])
                    END
                FROM walk
                WHERE len(stack) > 0 AND len(visited) < 20
            ), final AS (
                SELECT visited FROM walk ORDER BY step DESC LIMIT 1
            )
            SELECT CAST(0 AS BIGINT) AS seed,
                   unnest(visited) AS node,
                   unnest(range(1, len(visited) + 1)) AS visit_order
            FROM final""",
        "bfs_copurchase": """
            WITH RECURSIVE pairs AS (
                SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey AND a.l_partkey != b.l_partkey
            ), r(node, hop) AS (
                SELECT CAST(0 AS BIGINT), CAST(0 AS BIGINT)
                UNION
                SELECT p.dst, r.hop + 1 FROM r JOIN pairs p ON p.src = r.node
                WHERE r.hop < 2
            )
            SELECT node, MIN(hop) AS hop FROM r GROUP BY node""",
        # degree distribution over the deduped co-purchase graph
        "degree_histogram": """
            WITH pairs AS (
                SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey != b.l_partkey
            ), deg AS (
                SELECT src, CAST(COUNT(*) AS BIGINT) AS d
                FROM pairs GROUP BY src
            )
            SELECT d, CAST(COUNT(*) AS BIGINT) AS n_nodes
            FROM deg GROUP BY d""",
        # per-edge neighborhood overlap (embeddedness): exact common
        # neighbors + neighbor-set Jaccard for every undirected edge
        "edge_overlap": """
            WITH pairs AS (
                SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey != b.l_partkey
            ), deg AS (
                SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS d
                FROM pairs GROUP BY src
            ), cand AS (
                SELECT src AS node_a, dst AS node_b FROM pairs
                WHERE src < dst
            ), cnj AS (
                SELECT c.node_a, c.node_b, CAST(COUNT(*) AS BIGINT) AS cn
                FROM cand c JOIN pairs x ON x.src = c.node_a
                            JOIN pairs y ON y.src = c.node_b
                                        AND y.dst = x.dst
                GROUP BY c.node_a, c.node_b
            )
            SELECT c.node_a, c.node_b,
                   CAST(COALESCE(cnj.cn, 0) AS BIGINT) AS cn,
                   da.d AS deg_a, db.d AS deg_b,
                   CAST(COALESCE(cnj.cn, 0) AS DOUBLE)
                   / (da.d + db.d - COALESCE(cnj.cn, 0)) AS jaccard
            FROM cand c
              LEFT JOIN cnj ON cnj.node_a = c.node_a
                           AND cnj.node_b = c.node_b
              JOIN deg da ON da.node = c.node_a
              JOIN deg db ON db.node = c.node_b""",
        "doc_fingerprint": """
            SELECT doc_id, md5(text) AS fingerprint FROM documents""",
        "simhash_docs": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(list_distinct(string_split_regex(trim(text),
                                                               '\s+'))) AS t
                FROM documents WHERE length(trim(text)) > 0
            ), bits AS (
                SELECT doc_id, j,
                       SUM(CASE WHEN ((('0x' || substr(md5(t), 1, 16))::UBIGINT
                                       >> j) & 1) = 1 THEN 1 ELSE -1 END) AS s
                FROM toks CROSS JOIN generate_series(0, 63) g(j)
                GROUP BY doc_id, j
            ), hashes AS (
                SELECT doc_id,
                       CAST(SUM(CASE WHEN s > 0 THEN (1::UBIGINT << j)
                                     ELSE 0::UBIGINT END) AS UBIGINT) AS h
                FROM bits GROUP BY doc_id
            )
            SELECT d.doc_id,
                   lower(lpad(to_hex(coalesce(h.h, 0::UBIGINT)), 16, '0'))
                       AS simhash,
                   CAST(coalesce(h.h, 0::UBIGINT) >> 48 AS BIGINT)
                       AS simhash_prefix
            FROM documents d LEFT JOIN hashes h USING (doc_id)""",
        # Charikar SimHash near-dup pairs: banded candidates (pigeonhole-
        # exact for hamming <= 3 with 4 bands) + XOR popcount disposal
        "simhash_dup_pairs": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(list_distinct(string_split_regex(trim(text),
                                                               '\s+'))) AS t
                FROM documents WHERE length(trim(text)) > 0
            ), bits AS (
                SELECT doc_id, j,
                       SUM(CASE WHEN ((('0x' || substr(md5(t), 1, 16))::UBIGINT
                                       >> j) & 1) = 1 THEN 1 ELSE -1 END) AS s
                FROM toks CROSS JOIN generate_series(0, 63) g(j)
                GROUP BY doc_id, j
            ), hashes AS (
                SELECT doc_id,
                       CAST(SUM(CASE WHEN s > 0 THEN (1::UBIGINT << j)
                                     ELSE 0::UBIGINT END) AS UBIGINT) AS h
                FROM bits GROUP BY doc_id
            ), bands AS (
                SELECT doc_id, h, j AS band,
                       CAST((h >> (j*16)) & 65535 AS BIGINT) AS bv
                FROM hashes CROSS JOIN generate_series(0, 3) g(j)
            ), cand AS (
                SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       a.h AS ha, b.h AS hb
                FROM bands a JOIN bands b
                  ON a.band = b.band AND a.bv = b.bv
                 AND a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b,
                   CAST(bit_count(xor(ha, hb)) AS BIGINT) AS hamming
            FROM cand WHERE bit_count(xor(ha, hb)) <= 3""",
        # end-to-end fuzzy dedup: near-dup edges -> transitive closure
        # (recursive CTE) -> min-id canonical election; the distributed
        # CC must agree with the SQL fixpoint exactly
        # composed corpus-prep pipeline: filter -> fuzzy dedup -> pack
        "corpus_prep": _corpus_prep_sql(),
        "curation_funnel": _curation_funnel_sql(),
        # int8 scalar quantization: floor() (not round) and order-
        # independent audit stats so numpy and SQL agree bit-for-bit
        "embedding_quantize": """
            WITH b AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                       FROM embeddings),
            m AS (SELECT vec_id, e,
                         list_max(list_transform(e, x -> abs(x))) AS mx
                  FROM b),
            q AS (SELECT vec_id, e, mx,
                    CASE WHEN mx = 0
                         THEN list_transform(e, x -> CAST(0 AS BIGINT))
                         ELSE list_transform(e, x ->
                              CAST(FLOOR(x / mx * 127.0) AS BIGINT))
                    END AS qv
                  FROM m)
            SELECT vec_id, ROUND(mx, 6) AS scale,
                   CAST(list_sum(qv) AS BIGINT) AS qsum,
                   CAST(list_min(qv) AS BIGINT) AS qmin,
                   CAST(list_max(qv) AS BIGINT) AS qmax,
                   ROUND(list_max([abs(e[i] - qv[i] * mx / 127.0)
                                   FOR i IN generate_series(1, len(e))]),
                         6) AS max_abs_err
            FROM q""",
        # int8 ANN serving: same floor quantization as embedding_quantize
        # on BOTH sides, exact integer dot — scores hash-verifiable
        "ann_topk_int8": """
            WITH b AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                       FROM embeddings),
            m AS (SELECT vec_id, e,
                         list_max(list_transform(e, x -> abs(x))) AS mx
                  FROM b),
            q8 AS (SELECT vec_id,
                     CASE WHEN mx = 0
                          THEN list_transform(e, x -> CAST(0 AS BIGINT))
                          ELSE list_transform(e, x ->
                               CAST(FLOOR(x / mx * 127.0) AS BIGINT))
                     END AS qv
                   FROM m),
            qs AS (SELECT vec_id AS query_id, qv AS qq FROM q8
                   WHERE vec_id < 10),
            d AS (SELECT qs.query_id, q8.vec_id,
                         list_sum([qq[i] * qv[i]
                                   FOR i IN generate_series(1, len(qq))])
                             AS dot_int
                  FROM qs CROSS JOIN q8
                  WHERE qs.query_id != q8.vec_id),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY query_id
                          ORDER BY dot_int DESC, vec_id) AS rnk
                  FROM d)
            SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rnk,
                   CAST(dot_int AS BIGINT) AS dot_int
            FROM r WHERE rnk <= 5""",
        "dedup_fuzzy": r"""
            WITH RECURSIVE toks AS (
                SELECT doc_id,
                       unnest(list_distinct(string_split_regex(trim(text),
                                                               '\s+'))) AS t
                FROM documents WHERE length(trim(text)) > 0
            ), bits AS (
                SELECT doc_id, j,
                       SUM(CASE WHEN ((('0x' || substr(md5(t), 1, 16))::UBIGINT
                                       >> j) & 1) = 1 THEN 1 ELSE -1 END) AS s
                FROM toks CROSS JOIN generate_series(0, 63) g(j)
                GROUP BY doc_id, j
            ), hashes AS (
                SELECT doc_id,
                       CAST(SUM(CASE WHEN s > 0 THEN (1::UBIGINT << j)
                                     ELSE 0::UBIGINT END) AS UBIGINT) AS h
                FROM bits GROUP BY doc_id
            ), bands AS (
                SELECT doc_id, h, j AS band,
                       CAST((h >> (j*16)) & 65535 AS BIGINT) AS bv
                FROM hashes CROSS JOIN generate_series(0, 3) g(j)
            ), edges AS (
                SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
                FROM bands x JOIN bands y
                  ON x.band = y.band AND x.bv = y.bv
                 AND x.doc_id < y.doc_id
                WHERE bit_count(xor(x.h, y.h)) <= 3
            ), sym AS (
                SELECT a, b FROM edges
                UNION SELECT b AS a, a AS b FROM edges
            ), reach(src, node) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.node
            )
            SELECT src AS doc_id, MIN(node) AS cluster_id,
                   MIN(node) = src AS keep
            FROM reach GROUP BY src""",
        # Gopher-style within-doc repetition stats; empty docs emit zeros
        "doc_repetition": r"""
            WITH toks AS (
                SELECT doc_id, unnest(string_split_regex(trim(text),
                                                         '\s+')) AS t
                FROM documents WHERE length(trim(text)) > 0
            ), wc AS (
                SELECT doc_id, t, COUNT(*) AS c FROM toks GROUP BY doc_id, t
            ), agg AS (
                SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_words,
                       CAST(COUNT(*) AS BIGINT) AS n_distinct,
                       CAST(MAX(c) AS BIGINT) AS top_word_n,
                       CAST(SUM(CASE WHEN c >= 2 THEN c ELSE 0 END)
                            AS BIGINT) AS dup_word_n
                FROM wc GROUP BY doc_id
            )
            SELECT d.doc_id, coalesce(n_words, 0) AS n_words,
                   coalesce(n_distinct, 0) AS n_distinct,
                   coalesce(top_word_n, 0) AS top_word_n,
                   coalesce(dup_word_n, 0) AS dup_word_n
            FROM documents d LEFT JOIN agg USING (doc_id)""",
        "ngram_jaccard_pairs": """
            WITH sets AS (
                SELECT doc_id, list_distinct([substring(text, i, 8)
                    FOR i IN generate_series(1, length(text)-7)]) AS sh
                FROM documents
            ), sh AS (SELECT doc_id, unnest(sh) AS g FROM sets),
            df AS (SELECT g, count(*) AS c FROM sh GROUP BY g),
            cand AS (
                SELECT DISTINCT a.doc_id AS left_doc, b.doc_id AS right_doc
                FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
                WHERE a.g IN (SELECT g FROM df WHERE c <= 10)
            ), j AS (
                SELECT c.left_doc, c.right_doc,
                       ROUND(len(list_intersect(sa.sh, sb.sh))::DOUBLE /
                             GREATEST(len(sa.sh) + len(sb.sh)
                                      - len(list_intersect(sa.sh, sb.sh)), 1),
                             6) AS jaccard
                FROM cand c JOIN sets sa ON sa.doc_id = c.left_doc
                            JOIN sets sb ON sb.doc_id = c.right_doc
            )
            SELECT left_doc, right_doc, jaccard FROM j WHERE jaccard >= 0.5""",
        # integer-TF cosine with rare-token blocking: dot/norms exact
        # int sums, sqrt correctly rounded -> raw doubles hash-match
        "tf_cosine_pairs": r"""
            WITH tk AS (
                SELECT doc_id, tok, CAST(COUNT(*) AS BIGINT) AS tf
                FROM (SELECT doc_id,
                             unnest(string_split_regex(trim(text),
                                                       '\s+')) AS tok
                      FROM documents WHERE length(trim(text)) > 0)
                GROUP BY doc_id, tok
            ), norms AS (
                SELECT doc_id, CAST(SUM(tf*tf) AS BIGINT) AS n2
                FROM tk GROUP BY doc_id
            ), df AS (
                SELECT tok, COUNT(*) AS df FROM tk GROUP BY tok
            ), cap AS (
                -- relative rare-token cap: max(30, ceil(6% of non-empty
                -- docs)) — matches tf_cosine_pairs' df_frac default
                SELECT GREATEST(30, CAST(CEIL(0.06 * COUNT(*)) AS BIGINT))
                       AS cap
                FROM documents WHERE length(trim(text)) > 0
            ), cand AS (
                SELECT DISTINCT a.doc_id AS left_doc, b.doc_id AS right_doc
                FROM tk a JOIN tk b ON a.tok = b.tok
                 AND a.doc_id < b.doc_id
                WHERE a.tok IN (SELECT tok FROM df
                                WHERE df <= (SELECT cap FROM cap))
            ), dots AS (
                SELECT c.left_doc, c.right_doc,
                       CAST(SUM(a.tf * b.tf) AS BIGINT) AS dot
                FROM cand c JOIN tk a ON a.doc_id = c.left_doc
                            JOIN tk b ON b.doc_id = c.right_doc
                                     AND b.tok = a.tok
                GROUP BY c.left_doc, c.right_doc
            ), res AS (
                SELECT d.left_doc, d.right_doc,
                       CAST(d.dot AS DOUBLE) /
                       (sqrt(CAST(na.n2 AS DOUBLE))
                        * sqrt(CAST(nb.n2 AS DOUBLE))) AS cosine
                FROM dots d JOIN norms na ON na.doc_id = d.left_doc
                            JOIN norms nb ON nb.doc_id = d.right_doc
            )
            SELECT left_doc, right_doc, cosine FROM res
            WHERE cosine >= 0.6""",
        # edit-distance similarity join blocked on the first name token;
        # value-verifies the scorer's batched Levenshtein DP kernel
        "edit_distance_pairs": """
            WITH p AS (SELECT p_partkey, p_name,
                              string_split(p_name, ' ')[1] AS tok
                       FROM part)
            SELECT a.p_partkey AS part_a, b.p_partkey AS part_b,
                   CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS lev
            FROM p a JOIN p b ON a.tok = b.tok
              AND a.p_partkey < b.p_partkey
            WHERE levenshtein(a.p_name, b.p_name) <= 10""",
        # unrestricted Damerau-Levenshtein join (true transpositions):
        # value-pins the batched Lowrance-Wagner DP kernel
        "damerau_pairs": """
            WITH p AS (SELECT p_partkey, p_name,
                              array_to_string(
                                  string_split(p_name, ' ')[1:2],
                                  ' ') AS tok
                       FROM part)
            SELECT a.p_partkey AS part_a, b.p_partkey AS part_b,
                   CAST(damerau_levenshtein(a.p_name, b.p_name)
                        AS BIGINT) AS dl
            FROM p a JOIN p b ON a.tok = b.tok
              AND a.p_partkey < b.p_partkey
            WHERE damerau_levenshtein(a.p_name, b.p_name) <= 10""",
        # Jaro-Winkler over the distinct-name surface; the engine kernel
        # is bit-equal to DuckDB's builtin, so the raw doubles hash-match
        "jw_name_pairs": """
            WITH d AS (SELECT DISTINCT p_name FROM part),
            p AS (SELECT p_name,
                         string_split(p_name, ' ')[1] AS tok
                  FROM d)
            SELECT a.p_name AS name_a, b.p_name AS name_b,
                   jaro_winkler_similarity(a.p_name, b.p_name) AS jw
            FROM p a JOIN p b ON a.tok = b.tok AND a.p_name < b.p_name
            WHERE jaro_winkler_similarity(a.p_name, b.p_name) >= 0.85""",
        # Sorted-Neighborhood blocking: window-5-neighbor pairs over the
        # (p_name, p_partkey) total sort order — engine side is one range
        # sort + boundary-chained block map, never a rank self-join
        "snm_pairs": """
            WITH rk AS (SELECT p_partkey AS id,
                               ROW_NUMBER() OVER (ORDER BY p_name,
                                                  p_partkey) AS rn
                        FROM part)
            SELECT a.id AS left_id, b.id AS right_id
            FROM rk a JOIN rk b ON b.rn - a.rn BETWEEN 1 AND 5""",
        # simplified-Soundex phonetic key; the adjacent-duplicate collapse
        # is a LAG-window dedup (RE2 regexp_replace has no backreferences)
        "soundex_parts": """
            WITH p AS (SELECT p_partkey,
                              string_split(p_name, ' ')[1] AS w FROM part),
            words AS (SELECT DISTINCT w FROM p),
            m AS (SELECT w, translate(upper(w),
                      'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                      '01230120022455012623010202') AS d FROM words),
            ch AS (SELECT w, i, substring(d, i, 1) AS c
                   FROM m CROSS JOIN generate_series(1, 64) AS g(i)
                   WHERE i <= length(d)),
            f AS (SELECT w, i, c,
                         LAG(c) OVER (PARTITION BY w ORDER BY i) AS prev
                  FROM ch),
            coll AS (SELECT w, string_agg(c, '' ORDER BY i) AS coll
                     FROM f WHERE prev IS NULL OR c != prev GROUP BY w),
            sdx AS (SELECT w, substring(upper(w), 1, 1) ||
                        substring(rpad(replace(substring(coll, 2),
                                               '0', ''), 3, '0'), 1, 3)
                        AS sdx
                    FROM coll)
            SELECT p.p_partkey, p.w AS word, sdx.sdx
            FROM p JOIN sdx ON sdx.w = p.w""",
        # end-to-end SNM -> Damerau -> transitive closure dedup: the
        # value-verified twin of the flagship linkage composition
        "dedup_parts_snm": """
            WITH RECURSIVE rk AS (
                SELECT p_partkey AS id, p_name AS name,
                       ROW_NUMBER() OVER (ORDER BY p_name,
                                          p_partkey) AS rn
                FROM part
            ), edges AS (
                SELECT a.id AS a, b.id AS b
                FROM rk a JOIN rk b ON b.rn - a.rn BETWEEN 1 AND 5
                WHERE damerau_levenshtein(a.name, b.name) <= 4
            ), sym AS (
                SELECT a, b FROM edges
                UNION SELECT b AS a, a AS b FROM edges
            ), reach(src, node) AS (
                SELECT p_partkey, p_partkey FROM part
                UNION
                SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.node
            )
            SELECT src AS p_partkey, MIN(node) AS cluster_id,
                   MIN(node) = src AS keep
            FROM reach GROUP BY src""",
        # pairwise P/R/F1 of the SNM dedup vs the exact-name partition —
        # the north-rule clustering metric; pairs_* exact ints, P/R/F1
        # single float divisions written identically on both engines
        "clustering_eval": """
            WITH RECURSIVE rk AS (
                SELECT p_partkey AS id, p_name AS name,
                       ROW_NUMBER() OVER (ORDER BY p_name,
                                          p_partkey) AS rn
                FROM part
            ), edges AS (
                SELECT a.id AS a, b.id AS b
                FROM rk a JOIN rk b ON b.rn - a.rn BETWEEN 1 AND 5
                WHERE damerau_levenshtein(a.name, b.name) <= 4
            ), sym AS (
                SELECT a, b FROM edges
                UNION SELECT b AS a, a AS b FROM edges
            ), reach(src, node) AS (
                SELECT p_partkey, p_partkey FROM part
                UNION
                SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.node
            ), assign AS (
                SELECT src AS p_partkey, MIN(node) AS cluster_id
                FROM reach GROUP BY src
            ), cont AS (
                SELECT a.cluster_id, p.p_name AS truth,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM assign a JOIN part p USING (p_partkey)
                GROUP BY a.cluster_id, p.p_name
            ), stats AS (
                SELECT CAST(SUM(n) AS BIGINT) AS n_items,
                       CAST((SELECT SUM(s*(s-1)//2) FROM (
                           SELECT SUM(n) AS s FROM cont
                           GROUP BY cluster_id)) AS BIGINT) AS pairs_pred,
                       CAST((SELECT SUM(s*(s-1)//2) FROM (
                           SELECT SUM(n) AS s FROM cont
                           GROUP BY truth)) AS BIGINT) AS pairs_true,
                       CAST(SUM(n*(n-1)//2) AS BIGINT) AS pairs_both
                FROM cont
            )
            SELECT n_items, pairs_pred, pairs_true, pairs_both,
                   CASE WHEN pairs_pred > 0
                        THEN CAST(pairs_both AS DOUBLE) / pairs_pred
                        ELSE 0.0 END AS "precision",
                   CASE WHEN pairs_true > 0
                        THEN CAST(pairs_both AS DOUBLE) / pairs_true
                        ELSE 0.0 END AS recall,
                   CASE WHEN pairs_pred > 0 AND pairs_true > 0
                         AND (CAST(pairs_both AS DOUBLE) / pairs_pred
                              + CAST(pairs_both AS DOUBLE) / pairs_true)
                             > 0.0
                        THEN 2.0 * (CAST(pairs_both AS DOUBLE) / pairs_pred)
                             * (CAST(pairs_both AS DOUBLE) / pairs_true)
                             / (CAST(pairs_both AS DOUBLE) / pairs_pred
                                + CAST(pairs_both AS DOUBLE) / pairs_true)
                        ELSE 0.0 END AS f1
            FROM stats""",
        # blocking-quality metrics for the SNM blocker: reduction ratio
        # + pairs completeness vs the exact-name truth partition
        "blocking_stats": """
            WITH rk AS (SELECT p_partkey AS id, p_name AS name,
                               ROW_NUMBER() OVER (ORDER BY p_name,
                                                  p_partkey) AS rn
                        FROM part),
            cand AS (SELECT a.name AS na, b.name AS nb
                     FROM rk a JOIN rk b ON b.rn - a.rn BETWEEN 1 AND 5),
            nc AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM part),
            tp AS (SELECT CAST(COALESCE(SUM(c*(c-1)//2), 0) AS BIGINT)
                       AS true_pairs
                   FROM (SELECT COUNT(*) AS c FROM part
                         GROUP BY p_name)),
            cs AS (SELECT CAST(COUNT(*) AS BIGINT) AS cand_pairs,
                          CAST(COALESCE(SUM(CASE WHEN na = nb THEN 1
                                            ELSE 0 END), 0) AS BIGINT)
                              AS covered
                   FROM cand)
            SELECT n AS n_records,
                   CAST(n*(n-1)//2 AS BIGINT) AS total_pairs,
                   cand_pairs, covered AS covered_pairs, true_pairs,
                   CASE WHEN n*(n-1)//2 > 0
                        THEN 1.0 - CAST(cand_pairs AS DOUBLE)
                                   / CAST(n*(n-1)//2 AS BIGINT)
                        ELSE 0.0 END AS reduction_ratio,
                   CASE WHEN true_pairs > 0
                        THEN CAST(covered AS DOUBLE) / true_pairs
                        ELSE 0.0 END AS pairs_completeness
            FROM nc, tp, cs""",
        # Fellegi-Sunter m/u comparator weights over SNM candidates,
        # truth = exact-name equality; closed-form supervised estimates
        "fs_weights": """
            WITH rk AS (SELECT p_partkey AS id, p_name AS name,
                               ROW_NUMBER() OVER (ORDER BY p_name,
                                                  p_partkey) AS rn
                        FROM part),
            cand AS (SELECT a.id AS la, b.id AS lb,
                            a.name = b.name AS is_match
                     FROM rk a JOIN rk b ON b.rn - a.rn BETWEEN 1 AND 5),
            j AS (SELECT c.is_match,
                         pa.p_brand = pb.p_brand AS ab,
                         pa.p_type = pb.p_type AS at,
                         pa.p_size = pb.p_size AS asz
                  FROM cand c JOIN part pa ON pa.p_partkey = c.la
                              JOIN part pb ON pb.p_partkey = c.lb),
            agg AS (SELECT
                CAST(SUM(CASE WHEN is_match THEN 1 ELSE 0 END) AS BIGINT)
                    AS n_match,
                CAST(SUM(CASE WHEN NOT is_match THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_unmatch,
                CAST(SUM(CASE WHEN ab AND is_match THEN 1 ELSE 0 END)
                     AS BIGINT) AS am_brand,
                CAST(SUM(CASE WHEN ab AND NOT is_match THEN 1 ELSE 0 END)
                     AS BIGINT) AS au_brand,
                CAST(SUM(CASE WHEN at AND is_match THEN 1 ELSE 0 END)
                     AS BIGINT) AS am_type,
                CAST(SUM(CASE WHEN at AND NOT is_match THEN 1 ELSE 0 END)
                     AS BIGINT) AS au_type,
                CAST(SUM(CASE WHEN asz AND is_match THEN 1 ELSE 0 END)
                     AS BIGINT) AS am_size,
                CAST(SUM(CASE WHEN asz AND NOT is_match THEN 1 ELSE 0 END)
                     AS BIGINT) AS au_size
                FROM j)
            SELECT 'p_brand' AS field, n_match, n_unmatch,
                   am_brand AS agree_match, au_brand AS agree_unmatch,
                   CASE WHEN n_match > 0 THEN
                       CAST(am_brand AS DOUBLE) / n_match ELSE 0.0 END
                       AS m,
                   CASE WHEN n_unmatch > 0 THEN
                       CAST(au_brand AS DOUBLE) / n_unmatch ELSE 0.0 END
                       AS u
            FROM agg
            UNION ALL
            SELECT 'p_type', n_match, n_unmatch, am_type, au_type,
                   CASE WHEN n_match > 0 THEN
                       CAST(am_type AS DOUBLE) / n_match ELSE 0.0 END,
                   CASE WHEN n_unmatch > 0 THEN
                       CAST(au_type AS DOUBLE) / n_unmatch ELSE 0.0 END
            FROM agg
            UNION ALL
            SELECT 'p_size', n_match, n_unmatch, am_size, au_size,
                   CASE WHEN n_match > 0 THEN
                       CAST(am_size AS DOUBLE) / n_match ELSE 0.0 END,
                   CASE WHEN n_unmatch > 0 THEN
                       CAST(au_size AS DOUBLE) / n_unmatch ELSE 0.0 END
            FROM agg""",
        # survivorship merge: one golden record per dedup cluster with
        # deterministic rules (arg_min name, tie-broken mode brand, max)
        "golden_records": """
            WITH RECURSIVE rk AS (
                SELECT p_partkey AS id, p_name AS name,
                       ROW_NUMBER() OVER (ORDER BY p_name,
                                          p_partkey) AS rn
                FROM part
            ), edges AS (
                SELECT a.id AS a, b.id AS b
                FROM rk a JOIN rk b ON b.rn - a.rn BETWEEN 1 AND 5
                WHERE damerau_levenshtein(a.name, b.name) <= 4
            ), sym AS (
                SELECT a, b FROM edges
                UNION SELECT b AS a, a AS b FROM edges
            ), reach(src, node) AS (
                SELECT p_partkey, p_partkey FROM part
                UNION
                SELECT r.src, s.b FROM reach r JOIN sym s ON s.a = r.node
            ), assign AS (
                SELECT src AS p_partkey, MIN(node) AS cluster_id
                FROM reach GROUP BY src
            ), j AS (
                SELECT a.cluster_id, p.p_partkey, p.p_name, p.p_brand,
                       p.p_size
                FROM assign a JOIN part p USING (p_partkey)
            ), bc AS (
                SELECT cluster_id, p_brand, COUNT(*) AS c
                FROM j GROUP BY cluster_id, p_brand
            ), bm AS (
                SELECT b1.cluster_id, MIN(b1.p_brand) AS mode_brand
                FROM bc b1
                WHERE b1.c = (SELECT MAX(c) FROM bc b2
                              WHERE b2.cluster_id = b1.cluster_id)
                GROUP BY b1.cluster_id
            )
            SELECT j.cluster_id,
                   CAST(COUNT(*) AS BIGINT) AS n_members,
                   arg_min(j.p_name, j.p_partkey) AS canonical_name,
                   MIN(bm.mode_brand) AS mode_brand,
                   CAST(MAX(j.p_size) AS BIGINT) AS max_size
            FROM j JOIN bm ON bm.cluster_id = j.cluster_id
            GROUP BY j.cluster_id""",
        "embedding_near_dups": """
            SELECT * FROM (
                SELECT a.vec_id AS left_vec, b.vec_id AS right_vec,
                       ROUND(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])), 6) AS cosine
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id)
            WHERE cosine >= 0.35""",
        # multi-table hyperplane LSH candidates disposed by EXACT cosine:
        # same contract as the brute-force op, so the same oracle applies
        # (recall tuned to ~1-3e-9 at the 0.35 boundary; see
        # pipelines/corpus.py:embedding_near_dups_lsh)
        "embedding_near_dups_lsh": """
            SELECT * FROM (
                SELECT a.vec_id AS left_vec, b.vec_id AS right_vec,
                       ROUND(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])), 6) AS cosine
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id)
            WHERE cosine >= 0.35""",
        # MinHash-LSH candidates disposed by EXACT char-8-shingle Jaccard:
        # value-identical to the rare-shingle exact pipeline's contract
        # (both have full recall on this corpus's j>=0.5 pairs — near-dups
        # sit at j>=0.9 with nothing between 0.3 and 0.9; see
        # pipelines/corpus.py:minhash_dup_pairs).
        # Known divergence ABOVE the sf0.01 gate: at sf0.1 the df<=10
        # rare-shingle ORACLE under-recalls (211 pairs vs the engine's 256;
        # raising the cap to 30 still misses 2 and costs 400s of SQL) —
        # the LSH engine is the more-complete side there, measured directly.
        "minhash_dup_pairs": """
            WITH sets AS (
                SELECT doc_id, list_distinct([substring(text, i, 8)
                    FOR i IN generate_series(1, length(text)-7)]) AS sh
                FROM documents
            ), sh AS (SELECT doc_id, unnest(sh) AS g FROM sets),
            df AS (SELECT g, count(*) AS c FROM sh GROUP BY g),
            cand AS (
                SELECT DISTINCT a.doc_id AS left_doc, b.doc_id AS right_doc
                FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
                WHERE a.g IN (SELECT g FROM df WHERE c <= 10)
            ), j AS (
                SELECT c.left_doc, c.right_doc,
                       ROUND(len(list_intersect(sa.sh, sb.sh))::DOUBLE /
                             GREATEST(len(sa.sh) + len(sb.sh)
                                      - len(list_intersect(sa.sh, sb.sh)), 1),
                             6) AS jaccard
                FROM cand c JOIN sets sa ON sa.doc_id = c.left_doc
                            JOIN sets sb ON sb.doc_id = c.right_doc
            )
            SELECT left_doc, right_doc, jaccard FROM j WHERE jaccard >= 0.5""",
        "group_mean_vectors": """
            WITH g AS (SELECT vec_id % 10 AS grp,
                              CAST(embedding AS DOUBLE[]) AS e
                       FROM embeddings),
            u AS (SELECT grp, i AS pos1, e[i] AS v
                  FROM g CROSS JOIN generate_series(1, 64) t(i))
            SELECT grp, CAST(pos1 - 1 AS BIGINT) AS pos,
                   ROUND(AVG(v), 6) AS mean_v
            FROM u GROUP BY grp, pos1""",
        "tsv_mentions": f"""
            WITH t AS (SELECT p_partkey, {title} AS text FROM part)
            SELECT p_partkey,
                   CAST(len(list_filter(regexp_extract_all(text, '{_MENTION_RE_SQL}'),
                                        m -> {_RHO_FILTER_SQL})) AS BIGINT) AS n_mentions
            FROM t""",
        "entity_tsv_stats": f"""
            WITH t AS (SELECT p_partkey, {title} AS text FROM part),
            m AS (SELECT p_partkey,
                         unnest(list_filter(regexp_extract_all(text,
                             '{_MENTION_RE_SQL}'), m -> {_RHO_FILTER_SQL})) AS s
                  FROM t),
            agg AS (SELECT p_partkey, count(*) AS c,
                           max({_RHO_EXPR.format(c="s")}) AS mx
                    FROM m GROUP BY p_partkey)
            SELECT t.p_partkey,
                   CAST(COALESCE(agg.c, 0) AS BIGINT) AS n_entities,
                   ROUND(COALESCE(agg.mx, 0.0), 6) AS max_rho
            FROM t LEFT JOIN agg USING (p_partkey)""",
        # S6 format parity: out-degree of the (bounded) co-purchase graph
        # after a roundtrip through the reference's page_link.tsv format
        # (edge src->dst stored as line "dst\tsrc"; reader reverses)
        "page_link_degrees": """
            WITH pairs AS (
                SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey != b.l_partkey
                WHERE a.l_partkey < 500 AND b.l_partkey < 500)
            SELECT CAST(src AS BIGINT) AS part,
                   CAST(COUNT(*) AS BIGINT) AS out_degree
            FROM pairs GROUP BY src""",
        # M5 conformance: the reference's entities-only span arithmetic
        # (BiEncoder/model.py:168-186) — end inclusive (len-1), and for
        # idx >= 2 the start uses ONLY the previous entity's length + 1
        # (LAG), not the cumulative prefix. Entity lists = doc tokens.
        "entity_span_quirk": r"""
            WITH d AS (
              SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS arr
              FROM documents
              WHERE doc_id < 200 AND length(trim(text)) > 0
            ), toks AS (
              SELECT doc_id,
                     unnest(arr) AS entity,
                     unnest(range(1, len(arr) + 1)) AS ord
              FROM d
            )
            SELECT doc_id, CAST(ord - 1 AS BIGINT) AS idx, entity,
                   CAST(CASE WHEN ord = 1 THEN 0
                        ELSE length(LAG(entity) OVER
                            (PARTITION BY doc_id ORDER BY ord)) + 1
                   END AS BIGINT) AS start_q,
                   CAST(CASE WHEN ord = 1 THEN length(entity) - 1
                        ELSE length(LAG(entity) OVER
                            (PARTITION BY doc_id ORDER BY ord))
                             + length(entity)
                   END AS BIGINT) AS end_q
            FROM toks""",
        "trec_merge": """
            WITH rf AS (
                SELECT o_custkey q, o_orderkey p,
                       ROW_NUMBER() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) rnk
                FROM orders WHERE o_orderstatus = 'F'),
            ra AS (
                SELECT o_custkey q, o_orderkey p,
                       ROW_NUMBER() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) rnk
                FROM orders),
            runs AS (
                SELECT q, p, 0 AS src FROM rf WHERE rnk <= 3
                UNION ALL
                SELECT q, p, 1 AS src FROM ra WHERE rnk <= 3)
            SELECT CAST(q AS BIGINT) AS qid, CAST(p AS BIGINT) AS pid,
                   CAST(MIN(src) AS BIGINT) AS src
            FROM runs GROUP BY q, p""",
        "hard_negative_pairs": """
            WITH ranked AS (
                SELECT o_custkey q, o_orderkey p,
                       ROW_NUMBER() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) rnk
                FROM orders),
            pos AS (SELECT q, p FROM ranked WHERE rnk = 1),
            price_sel AS (SELECT q, p FROM ranked WHERE rnk BETWEEN 2 AND 5),
            key6 AS (
                SELECT q, p FROM (
                    SELECT q, p, ROW_NUMBER() OVER (PARTITION BY q
                        ORDER BY p) krn
                    FROM ranked WHERE rnk > 1)
                WHERE krn <= 6),
            key_filtered AS (
                SELECT k.q, k.p FROM key6 k
                LEFT JOIN price_sel ps ON ps.q = k.q AND ps.p = k.p
                WHERE ps.q IS NULL),
            key_sel AS (
                SELECT q, p FROM (
                    SELECT q, p, ROW_NUMBER() OVER (PARTITION BY q
                        ORDER BY p) rn2
                    FROM key_filtered)
                WHERE rn2 <= 4),
            negs AS (SELECT q, p FROM price_sel
                     UNION ALL SELECT q, p FROM key_sel)
            SELECT CAST(q AS BIGINT) AS qid, CAST(p AS BIGINT) AS pid,
                   1.0 AS label
            FROM pos WHERE q IN (SELECT q FROM negs)
            UNION ALL
            SELECT CAST(q AS BIGINT), CAST(p AS BIGINT), 0.0 FROM negs""",
        "teacher_scores": """
            WITH ranked AS (
                SELECT o_custkey q, o_orderkey p, o_orderstatus st,
                       o_totalprice t,
                       ROW_NUMBER() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) rnk
                FROM orders)
            SELECT CAST(q AS BIGINT) AS qid, CAST(p AS BIGINT) AS pid,
                   CASE WHEN st = 'F' THEN ROUND(t * 0.001, 6)
                        ELSE -1.0 END AS ce_score
            FROM ranked WHERE rnk <= 3""",
        "ir_metrics": """
            WITH run AS (
                SELECT o_custkey q, o_orderkey p, o_totalprice s,
                       CASE WHEN o_orderstatus = 'F' THEN 1.0 ELSE 0.0 END rel
                FROM orders),
            ranked AS (
                SELECT q, p, rel,
                       ROW_NUMBER() OVER w AS rnk,
                       SUM(rel) OVER (PARTITION BY q ORDER BY s DESC, p
                           ROWS UNBOUNDED PRECEDING) AS cumrel,
                       SUM(rel) OVER (PARTITION BY q) AS nrel
                FROM run WINDOW w AS (PARTITION BY q ORDER BY s DESC, p)),
            perq0 AS (
                SELECT q,
                       SUM(CASE WHEN rnk <= 10 THEN rel ELSE 0 END) AS relk,
                       MAX(nrel) AS nrel,
                       MAX(CASE WHEN rel > 0 AND rnk <= 10
                                THEN 1.0 / rnk ELSE 0 END) AS rr,
                       SUM(CASE WHEN rel > 0 AND rnk <= 10
                                THEN cumrel / rnk ELSE 0 END) AS ap_num,
                       SUM(CASE WHEN rnk <= 10
                                THEN rel / log2(rnk + 1) ELSE 0 END) AS dcg
                FROM ranked GROUP BY q),
            ideal AS (
                SELECT n, SUM(1.0 / log2(i + 1)) AS idcg
                FROM generate_series(1, 10) nn(n)
                JOIN generate_series(1, 10) ii(i) ON i <= n
                GROUP BY n),
            perq AS (
                SELECT q,
                       ROUND(COALESCE(dcg / NULLIF(ideal.idcg, 0), 0), 6)
                           AS ndcg,
                       ROUND(relk / 10.0, 6) AS p_at_k,
                       ROUND(ap_num / GREATEST(nrel, 1), 6) AS ap,
                       ROUND(rr, 6) AS rr,
                       ROUND(relk / GREATEST(nrel, 1), 6) AS r_at_k
                FROM perq0
                LEFT JOIN ideal ON ideal.n = LEAST(CAST(nrel AS BIGINT), 10))
            SELECT ROUND(AVG(ndcg), 6) AS ndcg, ROUND(AVG(p_at_k), 6) AS p_at_k,
                   ROUND(AVG(ap), 6) AS ap, ROUND(AVG(rr), 6) AS rr,
                   ROUND(AVG(r_at_k), 6) AS r_at_k,
                   CAST(COUNT(*) AS BIGINT) AS n_queries
            FROM perq""",
        # the oracle emits the UNROUNDED double (both sides are identical
        # IEEE doubles — exact integer sums / counts — and the harness
        # rounds both the same way; a SQL-side ROUND would double-round)
        "media_decode": """
            WITH m AS (SELECT p_partkey AS media_id,
                              8 + p_partkey % 25 AS w,
                              8 + (p_partkey // 25) % 25 AS h
                       FROM part WHERE p_partkey < 256),
            cells AS (SELECT media_id, (media_id + i) % 256 AS v
                      -- no lateral column args in generate_series: fixed
                      -- series to the max w*h (32*32) then filter
                      FROM m CROSS JOIN generate_series(0, 1023) t(i)
                      WHERE i < w * h)
            SELECT media_id, AVG(v) AS mean_intensity, 'ok' AS status
            FROM cells GROUP BY media_id""",
        # personalized PageRank IS SQL-derivable once the power iteration
        # is unrolled: the co-purchase graph is symmetric so every node
        # has deg >= 1 and the dangling term is identically zero; 15
        # fixed iterations as CTE pairs (contrib_k, pr_k). Engine and SQL
        # agree to the last ulp at sf0.01 (measured diff 0.0 after the
        # shared ROUND(rank, 8)).
        "ppr_copurchase": _ppr_sql(),
        # axis-plane LSH buckets (bit i = embedding[i] > 0 — invariant
        # under L2 normalization, so raw coordinates give the engine's
        # bits) + exact cosine top-k within the query's bucket; same
        # raw-score-ranking contract as ann_topk
        "ann_lsh_topk": _ann_lsh_sql(),
        # dfs_copurchase / linkage_parts: traversal-order and
        # iterative-model-scoring semantics (mix64-hashed n-gram feature
        # buckets, IDF-weighted Monge-Elkan) — rows-only checks, each
        # pinned by a dedicated pytest.
        # --- training-data prep (pipelines/traindata.py) ---
        "redact_ids": r"""
            SELECT c_custkey,
                   regexp_replace(c_name, '[0-9]{4,}', '[ID]', 'g')
                       AS name_redacted
            FROM customer""",
        "sample_documents": """
            SELECT doc_id, lang FROM documents
            WHERE substring(md5(CAST(doc_id AS VARCHAR)), 1, 4) < '2800'""",
        # weighted Bernoulli sample: pure-integer cross-multiply predicate
        # (u36 * wmax < total_c * 2^36) — no floats, bit-exact everywhere
        "weighted_sample": """
            WITH o AS (SELECT o_orderkey,
                              CAST(trunc(o_totalprice*100) AS BIGINT)
                                  AS total_c,
                              CAST(concat('0x', substring(
                                  md5(CAST(o_orderkey AS VARCHAR)), 1, 9))
                                  AS BIGINT) AS u36
                       FROM orders)
            SELECT o_orderkey, total_c FROM o
            WHERE u36 * 60000000 < total_c * 68719476736""",
        # content-addressed train/val/test split: md5 hex ranges
        "dataset_split": """
            SELECT doc_id, lang,
                   CASE WHEN substring(md5(CAST(doc_id AS VARCHAR)),
                                       1, 4) < 'e000' THEN 'train'
                        WHEN substring(md5(CAST(doc_id AS VARCHAR)),
                                       1, 4) < 'f000' THEN 'val'
                        ELSE 'test' END AS split
            FROM documents""",
        "stratified_sample": """
            SELECT lang, doc_id, CAST(rnk AS BIGINT) AS rnk
            FROM (SELECT lang, doc_id,
                         ROW_NUMBER() OVER (
                             PARTITION BY lang
                             ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rnk
                  FROM documents)
            WHERE rnk <= 25""",
        # streaming packer contract: seq_id = floor(tokens_before/budget)
        # over doc_id order (the engine computes this as a distributed
        # prefix sum — pipelines/traindata.py:pack_sequences)
        "pack_sequences": r"""
            WITH tk AS (SELECT doc_id,
                           CASE WHEN length(trim(text)) = 0 THEN 0
                                ELSE len(string_split_regex(trim(text), '\s+'))
                           END AS n_tokens
                        FROM documents),
                 w AS (SELECT doc_id, n_tokens,
                           COALESCE(SUM(n_tokens) OVER (
                               ORDER BY doc_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS before
                       FROM tk)
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(before // 256 AS BIGINT) AS seq_id
            FROM w""",
        # O6 (CrossEncoder): global-counter pos/neg interleave over the
        # deterministic triple stream — cnt % (ratio+1) picks the side
        # (reference CrossEncoder/train.py:95)
        "train_interleave": """
            WITH ranked AS (
                SELECT o_custkey AS qid, o_orderkey AS oid,
                       ROW_NUMBER() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) AS rnk
                FROM orders),
            pos AS (SELECT qid, oid AS pos_id FROM ranked WHERE rnk = 1),
            neg AS (SELECT qid, oid AS neg_id, rnk - 1 AS r
                    FROM ranked WHERE rnk BETWEEN 2 AND 5),
            stream AS (
                SELECT pos.qid, pos_id, neg_id,
                       ROW_NUMBER() OVER (ORDER BY pos.qid, r) - 1 AS ordinal
                FROM pos JOIN neg ON pos.qid = neg.qid)
            SELECT CAST(ordinal AS BIGINT) AS ordinal,
                   CAST(qid AS BIGINT) AS qid,
                   CAST(CASE WHEN ordinal % 5 = 0 THEN pos_id
                             ELSE neg_id END AS BIGINT) AS pid,
                   CAST(CASE WHEN ordinal % 5 = 0 THEN 1
                             ELSE 0 END AS BIGINT) AS label
            FROM stream""",
        # O6 (BiEncoder): pop-and-append queue rotation closed form —
        # P[v % |P|] / N[v % |N|], or the two-negative branch when the
        # positive queue is empty (reference BiEncoder/model.py:407-424);
        # margin = teacher(pos) - teacher(neg) (model.py:426-430)
        "train_rotation": """
            WITH ranked AS (
                SELECT o_custkey AS qid, o_orderkey AS oid,
                       ROUND(o_totalprice * 0.001, 6) AS teach,
                       o_orderstatus AS st,
                       ROW_NUMBER() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) AS rnk
                FROM orders),
            pool AS (SELECT * FROM ranked WHERE rnk <= 8),
            posr AS (SELECT qid, oid, teach, rnk,
                            ROW_NUMBER() OVER (PARTITION BY qid
                                ORDER BY rnk) AS pr
                     FROM pool WHERE st = 'F'),
            pos AS (SELECT qid, oid, teach, rnk FROM posr WHERE pr <= 2),
            negr AS (SELECT p.qid, p.oid, p.teach, p.rnk,
                            ROW_NUMBER() OVER (PARTITION BY p.qid
                                ORDER BY p.rnk) AS nr
                     FROM pool p LEFT JOIN pos x
                       ON p.qid = x.qid AND p.oid = x.oid
                     WHERE x.oid IS NULL),
            neg AS (SELECT qid, oid, teach, rnk FROM negr WHERE nr <= 6),
            plists AS (SELECT qid, list(oid ORDER BY rnk) AS P,
                              list(teach ORDER BY rnk) AS PT
                       FROM pos GROUP BY qid),
            nlists AS (SELECT qid, list(oid ORDER BY rnk) AS N,
                              list(teach ORDER BY rnk) AS NT
                       FROM neg GROUP BY qid),
            q AS (SELECT n.qid, COALESCE(P, []) AS P, COALESCE(PT, []) AS PT,
                         N, NT
                  FROM nlists n LEFT JOIN plists p ON n.qid = p.qid),
            visits AS (SELECT q.*, v.visit
                       FROM q CROSS JOIN
                       (SELECT UNNEST(range(3)) AS visit) v)
            SELECT CAST(qid AS BIGINT) AS qid,
                   CAST(visit AS BIGINT) AS visit,
                   CAST(CASE WHEN len(P) > 0 THEN P[1 + visit % len(P)]
                             ELSE N[1 + (2 * visit) % len(N)]
                        END AS BIGINT) AS pos_id,
                   CAST(CASE WHEN len(P) > 0 THEN N[1 + visit % len(N)]
                             ELSE N[1 + (2 * visit + 1) % len(N)]
                        END AS BIGINT) AS neg_id,
                   (CASE WHEN len(P) > 0 THEN PT[1 + visit % len(P)]
                         ELSE NT[1 + (2 * visit) % len(N)] END)
                   - (CASE WHEN len(P) > 0 THEN NT[1 + visit % len(N)]
                           ELSE NT[1 + (2 * visit + 1) % len(N)]
                      END) AS margin
            FROM visits""",
        "top_ngrams": r"""
            WITH toks AS (SELECT string_split_regex(trim(text), '\s+') AS t
                          FROM documents WHERE length(trim(text)) > 0),
                 bg AS (SELECT unnest([t[i] || ' ' || t[i+1]
                            FOR i IN generate_series(1, len(t)-1)]) AS bigram
                        FROM toks WHERE len(t) > 1),
                 c AS (SELECT bigram, CAST(COUNT(*) AS BIGINT) AS cnt
                       FROM bg GROUP BY bigram)
            SELECT bigram, cnt
            FROM (SELECT bigram, cnt,
                         ROW_NUMBER() OVER (ORDER BY cnt DESC, bigram) AS rn
                  FROM c)
            WHERE rn <= 20""",
        "doc_tokens_bpe": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(
                       text, '[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]')) AS BIGINT)
                       AS n_bpe_tokens
            FROM documents""",
        # sliding-window chunking: chunk i covers tokens
        # [i*24, i*24+32) (stride 24 = max 32 - overlap 8); DuckDB
        # list_slice is 1-based inclusive
        "doc_chunks": r"""
            WITH tk AS (SELECT doc_id,
                           CASE WHEN length(trim(text)) = 0
                                THEN CAST([] AS VARCHAR[])
                                ELSE string_split_regex(trim(text), '\s+')
                           END AS t
                        FROM documents),
                 c AS (SELECT doc_id, t, len(t) AS n,
                          CASE WHEN len(t) <= 32 THEN 1
                               ELSE CAST(ceil((len(t) - 32) / 24.0) AS BIGINT)
                                    + 1 END AS n_chunks
                       FROM tk),
                 e AS (SELECT doc_id, t, n,
                          unnest(generate_series(0, n_chunks - 1)) AS chunk_idx
                       FROM c)
            SELECT doc_id, CAST(chunk_idx AS BIGINT) AS chunk_idx,
                   CAST(chunk_idx * 24 AS BIGINT) AS start_tok,
                   CAST(LEAST(chunk_idx * 24 + 32, n) - chunk_idx * 24
                        AS BIGINT) AS n_chunk_tokens,
                   array_to_string(list_slice(t, chunk_idx * 24 + 1,
                                              LEAST(chunk_idx * 24 + 32, n)),
                                   ' ') AS chunk_text
            FROM e""",
        # tf-idf keywords: scores rounded to 6 BEFORE ranking on both
        # sides so cross-engine libm last-ulp differences cannot flip
        # the order
        "doc_keywords": r"""
            WITH tk AS (SELECT doc_id,
                           unnest(string_split_regex(trim(text), '\s+')) AS term
                        FROM documents WHERE length(trim(text)) > 0),
                 tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                        FROM tk GROUP BY doc_id, term),
                 df AS (SELECT term, COUNT(DISTINCT doc_id) AS df
                        FROM tk GROUP BY term),
                 nd AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents),
                 s AS (SELECT tf.doc_id, tf.term, tf.tf,
                          ROUND(tf.tf * ln(nd.n / df.df), 6) AS tfidf
                       FROM tf JOIN df USING (term) CROSS JOIN nd)
            SELECT doc_id, term, tf, tfidf, CAST(rnk AS BIGINT) AS rnk
            FROM (SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY doc_id
                      ORDER BY tfidf DESC, term) AS rnk FROM s)
            WHERE rnk <= 3""",
        # shared rank contract: value at 1-based rank floor(q*(N-1))+1
        "exact_percentiles": """
            WITH v AS (SELECT CAST(trunc(l_extendedprice*100) AS BIGINT) AS v
                       FROM lineitem),
                 r AS (SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS rn FROM v),
                 n AS (SELECT COUNT(*) AS cnt FROM v),
                 t AS (SELECT CAST(q AS DOUBLE) AS q
                       FROM (VALUES (0.25), (0.5), (0.75), (0.9), (0.99))
                            AS qt(q))
            SELECT t.q AS q, r.v AS val_c
            FROM t CROSS JOIN n
            JOIN r ON r.rn = CAST(floor(t.q * (n.cnt - 1)) AS BIGINT) + 1""",
        # benchmark decontamination: word 5-gram overlap of the training
        # slice (doc_id % 20 != 0) against the DISTINCT 5-grams of the
        # held-out eval slice (doc_id % 20 == 0); n_matched counts gram
        # POSITIONS in the training doc hitting the benchmark set
        "decontaminate": r"""
            WITH tk AS (SELECT doc_id,
                           string_split_regex(trim(text), '\s+') AS t
                        FROM documents),
                 bench AS (SELECT DISTINCT
                               unnest([t[i] || ' ' || t[i+1] || ' ' ||
                                       t[i+2] || ' ' || t[i+3] || ' ' ||
                                       t[i+4]
                                   FOR i IN generate_series(1, len(t)-4)])
                                   AS g
                           FROM tk
                           WHERE doc_id % 20 = 0 AND len(t) >= 5),
                 tg AS (SELECT doc_id,
                               unnest([t[i] || ' ' || t[i+1] || ' ' ||
                                       t[i+2] || ' ' || t[i+3] || ' ' ||
                                       t[i+4]
                                   FOR i IN generate_series(1, len(t)-4)])
                                   AS g
                        FROM tk
                        WHERE doc_id % 20 <> 0 AND len(t) >= 5),
                 m AS (SELECT tg.doc_id,
                              CAST(COUNT(b.g) AS BIGINT) AS n_matched
                       FROM tg LEFT JOIN bench b ON tg.g = b.g
                       GROUP BY tg.doc_id)
            SELECT tk.doc_id,
                   CAST(GREATEST(len(tk.t) - 4, 0) AS BIGINT) AS n_ngrams,
                   CAST(COALESCE(m.n_matched, 0) AS BIGINT) AS n_matched,
                   COALESCE(m.n_matched, 0) > 0 AS contaminated
            FROM tk LEFT JOIN m ON tk.doc_id = m.doc_id
            WHERE tk.doc_id % 20 <> 0""",
        # unigram-LM quality score: the corpus is its own LM, so every
        # token resolves (no smoothing); AVG vs numpy reduceat/mean agree
        # to the harness's 6-decimal rounding
        # DSIR importance-resampling score: Laplace-smoothed target-vs-
        # source unigram log-likelihood ratio, smoothing expression
        # mirrored term for term with the numpy kernel
        "dsir_logratio": r"""
            WITH tk AS (SELECT doc_id,
                           unnest(string_split_regex(trim(text), '\s+'))
                               AS tok
                        FROM documents WHERE length(trim(text)) > 0),
                 tgt AS (SELECT tk.tok FROM tk
                         JOIN documents d USING (doc_id)
                         WHERE d.lang = 'en'),
                 cs AS (SELECT tok, COUNT(*) AS cnt FROM tk GROUP BY tok),
                 ctv AS (SELECT tok, COUNT(*) AS cnt FROM tgt
                         GROUP BY tok),
                 tots AS (SELECT
                     (SELECT CAST(COUNT(*) AS DOUBLE) FROM tk) AS ns,
                     (SELECT CAST(COUNT(*) AS DOUBLE) FROM tgt) AS nt,
                     (SELECT CAST(COUNT(*) AS DOUBLE) FROM cs) AS v)
            SELECT tk.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   AVG(ln((COALESCE(ctv.cnt, 0) + 1.0) / (nt + v))
                       - ln((cs.cnt + 1.0) / (ns + v))) AS log_ratio
            FROM tk JOIN cs USING (tok) LEFT JOIN ctv USING (tok)
            CROSS JOIN tots
            GROUP BY tk.doc_id""",
        "doc_logprob": r"""
            WITH tk AS (SELECT doc_id,
                           unnest(string_split_regex(trim(text), '\s+'))
                               AS tok
                        FROM documents WHERE length(trim(text)) > 0),
                 c AS (SELECT tok, COUNT(*) AS cnt FROM tk GROUP BY tok),
                 n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS total FROM tk)
            SELECT tk.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   AVG(ln(c.cnt / n.total)) AS logprob
            FROM tk JOIN c USING (tok) CROSS JOIN n
            GROUP BY tk.doc_id""",
        # duplicated 8-gram span stats (bounded substring dedup): df via
        # COUNT(DISTINCT doc_id); n_dup counts POSITIONS whose gram also
        # occurs in another document
        "dup_spans": r"""
            WITH tk AS (SELECT doc_id,
                           string_split_regex(trim(text), '\s+') AS t
                        FROM documents),
                 gr AS (SELECT doc_id,
                               unnest([t[i] || ' ' || t[i+1] || ' ' ||
                                       t[i+2] || ' ' || t[i+3] || ' ' ||
                                       t[i+4] || ' ' || t[i+5] || ' ' ||
                                       t[i+6] || ' ' || t[i+7]
                                   FOR i IN generate_series(1, len(t)-7)])
                                   AS g
                        FROM tk WHERE len(t) >= 8),
                 df AS (SELECT g, COUNT(DISTINCT doc_id) AS df
                        FROM gr GROUP BY g),
                 m AS (SELECT gr.doc_id,
                              CAST(COUNT(*) FILTER (WHERE df.df >= 2)
                                   AS BIGINT) AS n_dup
                       FROM gr JOIN df USING (g)
                       GROUP BY gr.doc_id)
            SELECT tk.doc_id,
                   CAST(GREATEST(len(tk.t) - 7, 0) AS BIGINT) AS n_ngrams,
                   CAST(COALESCE(m.n_dup, 0) AS BIGINT) AS n_dup,
                   CASE WHEN GREATEST(len(tk.t) - 7, 0) > 0
                        THEN COALESCE(m.n_dup, 0) /
                             CAST(GREATEST(len(tk.t) - 7, 0) AS DOUBLE)
                        ELSE 0.0 END AS dup_frac
            FROM tk LEFT JOIN m ON tk.doc_id = m.doc_id""",
        # domain-mix table: token shares + uniform-target mixture weights
        "source_mix": r"""
            WITH tk AS (SELECT source,
                           CASE WHEN length(trim(text)) = 0 THEN 0
                                ELSE len(string_split_regex(trim(text),
                                                            '\s+')) END
                               AS n_tokens
                        FROM documents),
                 a AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                              CAST(SUM(n_tokens) AS BIGINT) AS n_tokens
                       FROM tk GROUP BY source),
                 t AS (SELECT CAST(SUM(n_tokens) AS DOUBLE) AS total,
                              CAST(COUNT(*) AS DOUBLE) AS k
                       FROM a)
            SELECT a.source, a.n_docs, a.n_tokens,
                   a.n_tokens / t.total AS token_share,
                   (1.0 / t.k) / (a.n_tokens / t.total) AS mix_weight
            FROM a CROSS JOIN t""",
        # per-source token-budget prefix sample in md5-rank order
        "budget_sample": r"""
            WITH tk AS (SELECT doc_id, source,
                           CAST(CASE WHEN length(trim(text)) = 0 THEN 0
                                ELSE len(string_split_regex(trim(text),
                                                            '\s+')) END
                               AS BIGINT) AS n_tokens,
                           md5(CAST(doc_id AS VARCHAR)) AS skey
                        FROM documents),
                 w AS (SELECT doc_id, source, n_tokens,
                              SUM(n_tokens) OVER (
                                  PARTITION BY source
                                  ORDER BY skey, doc_id
                                  ROWS UNBOUNDED PRECEDING) AS cum
                       FROM tk)
            SELECT doc_id, source, n_tokens,
                   CAST(cum AS BIGINT) AS cum_tokens
            FROM w WHERE cum <= 600""",
        # KMV distinct sketch: the k minimum md5 values are a
        # deterministic set, so even the ESTIMATE is value-verifiable;
        # 16^15 = 2^60 (exact power of two) keeps the division
        # bit-identical across engines
        "approx_distinct": """
            WITH h AS (SELECT DISTINCT
                           CAST(concat('0x', substr(md5(text), 1, 15))
                                AS UBIGINT) AS v
                       FROM documents),
                 s AS (SELECT v FROM h ORDER BY v LIMIT 256),
                 a AS (SELECT COUNT(*) AS m, MAX(v) AS kth FROM s)
            SELECT CAST(256 AS BIGINT) AS k,
                   CAST(m AS BIGINT) AS n_hashes,
                   CASE WHEN m < 256 THEN CAST(m AS DOUBLE)
                        ELSE (256 - 1) /
                             (CAST(kth AS DOUBLE) / POWER(16, 15))
                   END AS n_distinct_est
            FROM a""",
        # grouped KMV: per-source k-minimum md5 values — deterministic
        # set, so the grouped estimate is bit-reproducible in SQL
        "grouped_approx_distinct": """
            WITH h AS (SELECT DISTINCT source,
                           CAST(concat('0x', substr(md5(text), 1, 15))
                                AS BIGINT) AS v
                       FROM documents),
                 s AS (SELECT source, v, ROW_NUMBER() OVER (
                           PARTITION BY source ORDER BY v) AS rn FROM h),
                 a AS (SELECT source, COUNT(*) AS m, MAX(v) AS kth
                       FROM s WHERE rn <= 16 GROUP BY source)
            SELECT source, CAST(16 AS BIGINT) AS k,
                   CAST(m AS BIGINT) AS n_hashes,
                   CASE WHEN m < 16 THEN CAST(m AS DOUBLE)
                        ELSE (16 - 1) /
                             (CAST(kth AS DOUBLE) / POWER(16, 15))
                   END AS n_distinct_est
            FROM a""",
    }


def oracle_sql() -> dict[str, str]:
    d = _oracle_sql_base()
    # visualize_expanded_entities parity: the star edge list is a pure
    # projection of the DFS walk (src=seed, dst=node) capped at the
    # reference's [:5] (utils/visualize_expanded_entities.py:21-32) —
    # derive the oracle from the dfs stack-machine CTE so the two can
    # never drift
    d["expanded_edges_dfs"] = f"""
        WITH dfs AS ({d['dfs_copurchase']})
        SELECT seed AS src, node AS dst, visit_order
        FROM dfs WHERE visit_order <= 5"""
    return d


def _ann_lsh_sql(n_queries: int = 10, k: int = 5, n_planes: int = 8) -> str:
    """Oracle for pipelines/corpus.py:ann_lsh_topk(planes="axis"): the
    bucket is the n_planes-bit sign pattern of the leading embedding
    coordinates (DuckDB lists are 1-indexed)."""
    bits = " + ".join(
        f"(CASE WHEN embedding[{i + 1}] > 0 THEN {1 << i} ELSE 0 END)"
        for i in range(n_planes))
    return f"""
        WITH e AS (SELECT vec_id, embedding, {bits} AS bucket
                   FROM embeddings),
             q AS (SELECT vec_id AS query_id, embedding AS qe, bucket AS qb
                   FROM e WHERE vec_id < {n_queries}),
             s AS (SELECT q.query_id, e.vec_id,
                          list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                                 CAST(e.embedding AS DOUBLE[])) AS score
                   FROM q JOIN e ON e.bucket = q.qb
                   WHERE e.vec_id != q.query_id)
        SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rnk
        FROM (SELECT query_id, vec_id,
                     ROW_NUMBER() OVER (PARTITION BY query_id
                                        ORDER BY score DESC, vec_id) AS rnk
              FROM s)
        WHERE rnk <= {k}"""


def _ppr_sql(alpha: float = 0.85, iters: int = 15, seed: int = 0) -> str:
    """Unrolled power-iteration oracle mirroring
    stages/graph.py:personalized_pagerank (reference semantics:
    /root/reference/utils/entity_expander.py:122-126) + the seed-excluded
    rounded top-20 of ppr_copurchase."""
    restart = f"(CASE WHEN n.node = {seed} THEN 1.0 ELSE 0.0 END)"
    parts = [f"""
        WITH po AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
        edges AS (SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                  FROM po a JOIN po b ON a.l_orderkey = b.l_orderkey
                            AND a.l_partkey <> b.l_partkey),
        deg AS (SELECT src AS node, COUNT(*) AS d FROM edges GROUP BY src),
        nodes AS (SELECT DISTINCT src AS node FROM edges),
        pr0 AS (SELECT node,
                       CASE WHEN node = {seed} THEN 1.0 ELSE 0.0 END AS rank
                FROM nodes)"""]
    for k in range(1, iters + 1):
        parts.append(f""",
        c{k} AS (SELECT e.dst AS node, SUM(p.rank / d.d) AS c
                 FROM pr{k - 1} p JOIN deg d ON d.node = p.node
                                  JOIN edges e ON e.src = p.node
                 GROUP BY e.dst),
        pr{k} AS (SELECT n.node,
                         {alpha} * COALESCE(c.c, 0)
                         + {1 - alpha} * {restart} AS rank
                  FROM nodes n LEFT JOIN c{k} c ON c.node = n.node)""")
    parts.append(f"""
        SELECT node, ROUND(rank, 8) AS rank FROM pr{iters}
        WHERE node <> {seed}
        ORDER BY rank DESC, node ASC LIMIT 20""")
    return "".join(parts)
