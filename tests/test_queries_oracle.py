"""queries() vs oracle_sql() on the driver testdata at sf0.001 — the same
comparison the driver's correctness gate runs at sf0.01."""

import duckdb
import pytest

import sys
import os

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _compare(got, want):
    from scripts.check_queries import compare

    return compare("q", got, want)


@pytest.mark.parametrize("name", [
    "q01_pricing_summary", "q02_regex_filter", "q03_first_wins",
    "q04_anti_join", "q05_shared_frequency", "q06_staleness_order",
    "q07_keep_freshest", "q08_topk", "q09_window_tumbling",
    "q10_broadcast_join", "q11_hash_join", "q12_asof_join",
    "q13_token_stats", "q14_lang_id", "q15_quality", "q16_exact_dedup",
    "q17_minhash_pairs", "q18_simhash", "q19_embedding_dups", "q20_ann_topk",
    "q21_ann_lsh", "q22_simhash_dups", "q24_ngram_jaccard",
    "q25_range_join", "q26_window_hopping", "q27_group_topk",
    "q28_stratified_sample", "q29_ngram_vocab", "q30_sessionize",
    "q31_token_chunks", "q32_length_quantiles", "q33_decontaminate",
    "q35_pii_scrub", "q36_repetition_signals", "q37_dup_clusters",
    "q38_audio_features", "q39_image_blocks", "q40_span_dedup",
    "q41_semdedup", "q42_tfidf", "q43_knn_graph", "q44_image_exact_dedup",
    "q45_global_shuffle", "q46_mixture_resample", "q47_group_quantiles",
    "q48_json_extract", "q49_incremental_dedup", "q50_bigram_lm",
    "q51_image_ahash_dups", "q52_window_functions", "q53_hll_distinct",
    "q54_cms_heavy_hitters", "q55_pagerank", "q56_group_linreg",
    "q57_collocations", "q58_bm25_search", "q59_grouped_hll",
    "q60_triangle_count", "q61_image_dup_clusters", "q62_image_histograms",
    "q63_kcore", "q64_time_decay", "q65_quality_gate", "q66_rollup",
    "q67_percentile_rank", "q68_outliers", "q69_star_join", "q70_funnel",
    "q71_image_caption_table", "q72_cohort_retention", "q73_late_events",
    "q74_chunk_langid", "q75_label_centroids", "q76_skyline", "q77_cube",
    "q78_video_frames", "q79_sequence_packing", "q80_quantile_sketch",
    "q81_source_overlap", "q82_bitext_mining", "q83_zorder_layout",
    "q84_pq_adc", "q85_image_whash_dups", "q86_bloom_dedup",
    "q87_cdc_chunks", "q88_audio_fp_dups", "q89_dsir_select",
    "q90_ppjoin", "q91_bpe_merges", "q92_bpe_tokenize",
    "q93_video_dups", "q94_hard_negatives", "q95_zipf_slope",
    "q96_fuzzy_decontaminate", "q97_canonical_docs", "q98_image_quality",
    "q99_blocklist_scan", "q100_corpus_scrub", "q101_priority_sample",
    "q102_event_transitions", "q103_left_join_enrich",
    "q104_image_blobs", "q105_profile", "q106_fk_audit",
    "q107_label_noise", "q108_heldout_lm_eval", "q109_kcenter_coreset", "q110_gini_concentration",
    "q111_gapfill", "q112_table_checksum", "q113_boolean_search",
    "q114_setcover_sources", "q115_behavior_entropy",
])
def test_query_matches_oracle(name, con, ray_session):
    from wikicrawl.queries import ORACLE_SQL, QUERIES

    got = QUERIES[name](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    want = con.execute(ORACLE_SQL[name]).fetchdf()
    status = _compare(got, want)
    assert status is None, f"{name}: {status}"


def test_q21_recall_floor_and_q23_ivf(ray_session):
    """Semantic contract of the two approximate-ANN paths at sf0.001:
    both recall reports (value-verified against their SQL oracles in the
    parametrized test above) must meet the committed floors, and the raw
    IVF top-k must be well-formed with recall vs exact q20 clearing the
    floor (the report is derived from these, so this pins the derivation)."""
    from wikicrawl.queries import (ANN_RECALL_FLOOR_MILLI,
                                   IVF_RECALL_FLOOR_MILLI, QUERIES,
                                   TOPK, q20_ann_topk, q23_ann_ivf_raw)

    rep = QUERIES["q21_ann_lsh"](SF)
    assert len(rep) > 0
    assert int(rep.recall_milli.sum()) // len(rep) >= ANN_RECALL_FLOOR_MILLI
    assert rep.meets_floor.all()

    ivf = q23_ann_ivf_raw(SF)
    exact = q20_ann_topk(SF)
    assert set(ivf.columns) == {"query_id", "neighbor_id", "sim_micro", "rank"}
    recs = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g.neighbor_id)
        got = set(ivf[ivf.query_id == qid].neighbor_id)
        recs.append(len(truth & got) * 1000 // max(len(truth), 1))
    assert sum(recs) // len(recs) >= IVF_RECALL_FLOOR_MILLI

    rep23 = QUERIES["q23_ann_ivf"](SF)
    assert sorted(rep23.columns) == ["meets_floor", "query_id", "recall_milli"]
    assert rep23.recall_milli.tolist() == recs
    assert rep23.meets_floor.all()


def test_entry_contract(ray_session):
    import __ray_entry__ as E

    ds = E.entry()
    df = ds.to_pandas()
    # flagship = the composed training pipeline; its sf0.001 output is
    # value-verified against the q34 DuckDB CTE-chain oracle in the
    # parametrized test above — here we pin the driver-contract shape
    assert len(df) > 0
    assert list(df.columns) == ["doc_id", "lang", "chunk_id", "chunk_text",
                                "n_tokens"]
    from wikicrawl.queries import q34_training_pipeline

    want = q34_training_pipeline(SF)
    assert len(df) == len(want)
    assert set(E.oracle_sql()) <= set(E.queries())


def test_q55_edge_build_paths_parity(ray_session):
    """q55's size-switched edge build: broadcast validated-searchsorted
    lookup (small orders side) vs the co-partitioned hash-join fallback
    (the at-scale path) must be bit-equal — the q69 forced-path rule."""
    import wikicrawl.queries as Q

    a = Q.q55_pagerank(SF)
    old = Q._FORCE_HASH_JOIN_EDGES
    Q._FORCE_HASH_JOIN_EDGES = True
    try:
        b = Q.q55_pagerank(SF)
    finally:
        Q._FORCE_HASH_JOIN_EDGES = old
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_minhash_pairs_memo_invalidation(tmp_path, ray_session):
    """The q17/q37/q60 shared pair-list memo must invalidate when
    documents.parquet changes at the same path (mtime key) and not leak
    entries (single-slot cache)."""
    import shutil as _sh

    import wikicrawl.queries as Q

    d = str(tmp_path)
    _sh.copy(f"{SF}/documents.parquet", f"{d}/documents.parquet")
    a = Q._minhash_pairs(d)
    assert Q._minhash_pairs(d) is a  # memo hit
    import os as _os
    _os.utime(f"{d}/documents.parquet", ns=(1, 1))
    b = Q._minhash_pairs(d)
    assert b is not a  # mtime change invalidates
    assert len(Q._MINHASH_PAIRS_CACHE) == 1  # single-slot


def test_q103_left_semantics_zero_order_customers(tmp_path, ray_session):
    """The driver testdata has NO order-less customers, so the gate alone
    cannot distinguish q103's LEFT join from an inner join — this pins
    the zero-fill: customers absent from orders appear with (0, 0)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from wikicrawl.queries import q103_left_join_enrich

    d = str(tmp_path)
    pq.write_table(pa.table({"c_custkey": pa.array([1, 2, 3, 4],
                                                   pa.int64())}),
                   f"{d}/customer.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 3], pa.int64()),
        "o_totalprice": pa.array([10.005, 20.0, 5.555])}),
        f"{d}/orders.parquet")
    out = q103_left_join_enrich(d)
    got = {r.c_custkey: (r.n_orders, r.spent_cents)
           for r in out.itertuples()}
    # 10.005*100 rounds half-away to 1001 (the q48 rounding discipline)
    assert got == {1: (2, 1001 + 2000), 2: (0, 0),
                   3: (1, 556), 4: (0, 0)}


def test_q114_stops_when_coverage_saturates(tmp_path, ray_session):
    """Two train sources cover every benchmark gram in two rounds; rounds
    3..SETCOVER_K add nothing, and neither side emits a row for them."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from scripts.check_queries import compare
    from wikicrawl.queries import BENCH_DOC_MOD, ORACLE_SQL, SETCOVER_K, QUERIES

    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": ["a b c d e", "a b c d", "c d e", "x y z"],
        "source": ["bench", "s1", "s2", "s3"]}), f"{d}/documents.parquet")
    assert BENCH_DOC_MOD > 3 and SETCOVER_K > 2
    got = QUERIES["q114_setcover_sources"](d)
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM "
              f"read_parquet('{d}/documents.parquet')")
    want = c.execute(ORACLE_SQL["q114_setcover_sources"]).fetchdf()
    assert compare("q114", got, want) is None
    assert got[["source", "new_covered"]].values.tolist() == [["s1", 2], ["s2", 1]]


def test_q12_asof_matches_on_overlapping_dates(tmp_path, ray_session):
    """The driver testdata's events all fall after every order, so the
    ASOF condition never holds there. Map event times linearly onto the
    order-date range: some orders then find a latest event, others
    (unknown user, or no event yet) stay NULL — on both sides."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from wikicrawl.queries import SQL_Q12, q12_asof_join

    d = str(tmp_path)
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderkey", "o_custkey", "o_orderdate"])
    events = pq.read_table(f"{SF}/events.parquet",
                           columns=["event_id", "ts", "user_id"])
    o = orders["o_orderdate"].cast(pa.int64()).to_numpy()
    t = events["ts"].cast(pa.int64()).to_numpy()
    ts = o.min() + (t - t.min()) * (o.max() - o.min()) // (t.max() - t.min())
    events = events.set_column(1, "ts", pa.array(ts.astype(np.int64))
                               .cast(events.schema.field("ts").type))
    pq.write_table(orders, f"{d}/orders.parquet")
    pq.write_table(events, f"{d}/events.parquet")

    got = q12_asof_join(d)
    c = duckdb.connect()
    for name in ("orders", "events"):
        c.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                  f"read_parquet('{d}/{name}.parquet')")
    want = c.execute(SQL_Q12).fetchdf()
    assert _compare(got, want) is None
    assert 0 < int(got["last_event_id"].notna().sum()) < len(got)


def test_check_queries_runs_outside_checkout(tmp_path):
    """scripts/check_queries.py imports the library from its own checkout:
    it passes with no PYTHONPATH, started from an unrelated directory."""
    import subprocess

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "check_queries.py"),
         SF, "q04_anti_join"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert "q04_anti_join: OK" in res.stdout
    assert "TOTAL" in res.stdout
