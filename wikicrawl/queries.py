"""Operator queries over the driver testdata + their ANSI-SQL oracles.

Every operator class from SURVEY §2 gets a Ray-Data implementation here
AND a DuckDB oracle with IDENTICAL column names (ALL 115 — sketches and
iterative training included: the shingle hash, simhash token hash, the
q21 LSH projection planes AND the q23 IVF k-means (hash-seeded,
grid-quantized Lloyd iterations, unrolled as SQL CTEs) were CHOSEN to be
SQL-expressible); the driver runs both at sf=0.01 and value-hashes the
results (CORRECTNESS_r{N}.json). The q21/q23 approximate-ANN recall
reports are verified end-to-end in SQL (the oracles recompute the sign
buckets / the entire centroid training from the embeddings table and the
same exact top-k — no frozen artifacts anywhere).

Numeric discipline: aggregates of doubles are ROUNDed identically on both
sides; similarity scores are integer micro-units; rankings order by the
ROUNDED value then id so ties are deterministic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from wikicrawl.functions import dedup as F_dedup
from wikicrawl.rounding import round_half_away
from wikicrawl.functions import graph as F_graph
from wikicrawl.functions import joins as F_joins
from wikicrawl.functions import similarity as F_sim
from wikicrawl.functions import textstats as F_text


def T(sf_dir: str, name: str, columns=None):
    """Column-pruned read of one testdata table. The pandas metadata baked
    into the driver's parquet makes pa.Schema unhashable (pyarrow 16.1),
    which turns EVERY Ray schema-unify into a logged warning — hand the
    read a metadata-free schema so every downstream block is clean."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/{name}.parquet"
    sch = pq.read_schema(path).remove_metadata()
    if columns is not None:
        sch = pa.schema([sch.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=sch)


def _pdf(sf_dir: str, name: str, columns=None) -> pd.DataFrame:
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{name}.parquet", columns=columns).to_pandas()


NGRAM_N = 3  # word n-gram size shared by q24/q29/q33


# ------------------------------------------------------------------ q01

def q01_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary (groupby-aggregate with pre-combined
    per-batch partials done by Ray's hash aggregate)."""
    ds = T(sf_dir, "lineitem",
           ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount"])

    def add_disc(t: pa.Table) -> pa.Table:
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("disc_price", disc)

    out = (
        ds.map_batches(add_disc, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Count(alias_name="count_order"),
        )
        .to_pandas()
    )
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        out[c] = out[c].round(2)
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


SQL_Q01 = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       count(*) AS count_order
FROM lineitem
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# ------------------------------------------------------------------ q02

def q02_regex_filter(sf_dir: str):
    """Qid-validity-filter analog: vectorized regex filter + projection."""
    ds = T(sf_dir, "documents", ["doc_id", "source", "lang"])
    out = ds.map_batches(
        lambda t: t.filter(pc.match_substring_regex(t["source"], r"^src1[0-9]$")),
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q02 = """
SELECT doc_id, source, lang FROM documents
WHERE regexp_matches(source, '^src1[0-9]$')
ORDER BY doc_id
"""


# ------------------------------------------------------------------ q03

def q03_first_wins(sf_dir: str):
    """Precedence dedup analog: one representative (min orderkey) per customer.

    Coarse-partition argmin: ONE shuffle on hash(custkey) % 64, then each
    partition — holding many whole key groups — reduces with a single
    vectorized sort + drop_duplicates. No per-key lambdas (a per-key
    map_groups AND a custom per-key AggregateFn both measured slower: Ray's
    per-group/per-key paths are Python loops over groups)."""
    return _bucketed_first(
        T(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"]),
        key=["o_custkey"], order=["o_orderkey"], keep="first",
    ).sort_values("o_custkey").reset_index(drop=True)[
        ["o_custkey", "o_orderkey", "o_totalprice"]
    ]


SQL_Q03 = """
SELECT o_custkey, o_orderkey, o_totalprice
FROM orders
QUALIFY row_number() OVER (PARTITION BY o_custkey ORDER BY o_orderkey) = 1
ORDER BY o_custkey
"""


# ------------------------------------------------------------------ q04

def q04_anti_join(sf_dir: str):
    """Exclusion-chain analog: customers with no events — broadcast key-set
    anti-filter (no shuffle; the small side is the distinct key set)."""
    from wikicrawl.functions._cache import broadcast_cached

    keys = set(T(sf_dir, "events", ["user_id"]).unique("user_id"))
    key_ref = ray.put(keys)

    def anti_filter(t: pa.Table) -> pa.Table:
        vs = broadcast_cached(key_ref, lambda k: pa.array(sorted(k)))
        return t.filter(pc.invert(pc.is_in(t["c_custkey"], value_set=vs)))

    out = (
        T(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(anti_filter, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:
        out = pd.DataFrame(columns=["c_custkey", "c_name"])
    return out.sort_values("c_custkey").reset_index(drop=True)


SQL_Q04 = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT user_id FROM events)
ORDER BY c_custkey
"""


# ------------------------------------------------------------------ q05

def q05_shared_frequency(sf_dir: str):
    """clear_shared_main_images analog: parts appearing in >= 3 distinct
    orders, ordered by frequency desc.

    ONE coarse-partition shuffle (hash(l_partkey) % 64): each partition
    holds whole partkey groups, so count-distinct is a single vectorized
    drop_duplicates + groupby-size per partition, and the HAVING filter
    prunes before anything reaches the driver. Measured 1.3 s vs 4.4-5.9 s
    for the two-stage groupby-aggregate chain at sf0.1/32 cpus — each Ray
    aggregate op carries its own sort-shuffle constant, and this shape
    pays it once (VERDICT r2 item 6)."""
    ds = T(sf_dir, "lineitem", ["l_partkey", "l_orderkey"])
    n_parts = 64

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__b", pa.array(F_joins.bucket_of(t["l_partkey"], n_parts))
        )

    def count_distinct_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["l_partkey", "l_orderkey"]].drop_duplicates()
        c = (d.groupby("l_partkey", sort=False).size()
             .rename("n_orders").reset_index())
        return c[c.n_orders >= 3]

    counts = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(count_distinct_part, batch_format="pandas")
        .to_pandas()
    )
    out = counts.sort_values(
        ["n_orders", "l_partkey"], ascending=[False, True]
    ).head(20).reset_index(drop=True)
    return out[["l_partkey", "n_orders"]]


SQL_Q05 = """
SELECT l_partkey, count(DISTINCT l_orderkey) AS n_orders
FROM lineitem
GROUP BY l_partkey
HAVING count(DISTINCT l_orderkey) >= 3
ORDER BY n_orders DESC, l_partkey
LIMIT 20
"""


# ------------------------------------------------------------------ q06

def q06_staleness_order(sf_dir: str):
    """Quick-mode staleness ordering analog: max(ts) per type, oldest first."""
    out = (
        T(sf_dir, "events", ["event_type", "ts"])
        .groupby("event_type")
        .aggregate(Max("ts", alias_name="max_ts"))
        .to_pandas()
    )
    return out.sort_values(["max_ts", "event_type"]).reset_index(drop=True)


SQL_Q06 = """
SELECT event_type, max(ts) AS max_ts FROM events
GROUP BY event_type ORDER BY max_ts, event_type
"""


# ------------------------------------------------------------------ q07

def q07_keep_freshest(sf_dir: str):
    """Duplicate-key cleanup analog: per (user, type) keep the freshest event
    (max ts, tie-break max event_id) — groupby + in-group argmax."""
    return _bucketed_first(
        T(sf_dir, "events", ["user_id", "event_type", "event_id", "ts"]),
        key=["user_id", "event_type"], order=["ts", "event_id"], keep="last",
    ).sort_values(["user_id", "event_type"]).reset_index(drop=True)[
        ["user_id", "event_type", "event_id", "ts"]
    ]


def _bucketed_first(ds, key: list[str], order: list[str], keep: str,
                    n_buckets: int = 64) -> pd.DataFrame:
    """Argmin/argmax per key with ONE shuffle and zero per-key Python:
    hash(key[0]) % B co-locates every key group, then each bucket reduces
    with a single vectorized sort + drop_duplicates."""
    from wikicrawl.functions.joins import bucket_of

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__kb", pa.array(bucket_of(t[key[0]], n_buckets)))

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(key + order, kind="mergesort")
        return g.drop_duplicates(key, keep=keep).drop(columns=["__kb"])

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__kb")
        .map_groups(reduce_bucket, batch_format="pandas")
        .to_pandas()
    )


SQL_Q07 = """
SELECT user_id, event_type, event_id, ts FROM events
QUALIFY row_number() OVER (PARTITION BY user_id, event_type
                           ORDER BY ts DESC, event_id DESC) = 1
ORDER BY user_id, event_type
"""


# ------------------------------------------------------------------ q08

def q08_topk(sf_dir: str):
    """Top-N report analog: distributed sort + limit (deterministic ties)."""
    out = (
        T(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(10)
        .to_pandas()
    )
    return out.reset_index(drop=True)


SQL_Q08 = """
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


# ------------------------------------------------------------------ q09

def q09_window_tumbling(sf_dir: str):
    """Tumbling-window aggregate: per (type, hour) count + sum(value)."""
    ds = T(sf_dir, "events", ["event_type", "ts", "value"])

    def add_hour(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        return t.append_column("hour_ts", hour).drop_columns(["ts"])

    out = (
        ds.map_batches(add_hour, batch_format="pyarrow")
        .groupby(["event_type", "hour_ts"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
        .to_pandas()
    )
    out["sum_value"] = out["sum_value"].round(3)
    return out.sort_values(["event_type", "hour_ts"]).reset_index(drop=True)


SQL_Q09 = """
SELECT event_type, CAST(date_trunc('hour', ts) AS TIMESTAMP_S) AS hour_ts,
       count(*) AS n, round(sum(value), 3) AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


# ------------------------------------------------------------------ q26

HOP_US = 15 * 60 * 1_000_000        # 15-minute hop
WINDOW_HOPS = 4                     # 1-hour window = 4 hops


def q26_window_hopping(sf_dir: str):
    """HOPPING (sliding) window aggregate — the streaming-window analog
    q09's tumbling window can't express: every event lands in
    WINDOW_HOPS overlapping windows. The replicate-to-windows explode is
    vectorized inside map_batches (np.repeat/tile — replication factor is
    the constant W/hop, never a join), then ONE hash aggregate over
    (window_start, type). Aggregates are integers (count, max id) so the
    DuckDB oracle hashes identically."""
    ds = T(sf_dir, "events", ["event_type", "event_id", "ts"])

    def explode_windows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({
                "window_start_us": pa.array([], pa.int64()),
                "event_type": pa.array([], pa.string()),
                "event_id": pa.array([], pa.int64()),
            })
        ts = t["ts"].cast(pa.int64()).to_numpy()
        base = ts // HOP_US
        i = np.tile(np.arange(WINDOW_HOPS, dtype=np.int64), n)
        ws = (np.repeat(base, WINDOW_HOPS) - i) * HOP_US
        idx = pa.array(np.repeat(np.arange(n), WINDOW_HOPS))
        return pa.table({
            "window_start_us": pa.array(ws),
            "event_type": t["event_type"].combine_chunks().take(idx)
            if isinstance(t["event_type"], pa.ChunkedArray)
            else t["event_type"].take(idx),
            "event_id": t["event_id"].combine_chunks().take(idx)
            if isinstance(t["event_id"], pa.ChunkedArray)
            else t["event_id"].take(idx),
        })

    out = (
        ds.map_batches(explode_windows, batch_format="pyarrow")
        .groupby(["window_start_us", "event_type"])
        .aggregate(Count(alias_name="n_events"),
                   Max("event_id", alias_name="max_event_id"))
        .to_pandas()
    )
    return (out.sort_values(["window_start_us", "event_type"])
            .reset_index(drop=True))


SQL_Q26 = f"""
SELECT CAST((epoch_us(ts) // {HOP_US} - g.i) * {HOP_US} AS BIGINT)
         AS window_start_us,
       event_type,
       count(*) AS n_events,
       max(event_id) AS max_event_id
FROM events CROSS JOIN (SELECT unnest(generate_series(0, {WINDOW_HOPS - 1})) AS i) g
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ------------------------------------------------------------------ q10

def q10_broadcast_join(sf_dir: str):
    """Dimension enrich: orders x customer x nation via broadcast join
    (ray.put once, pandas merge per batch) with the aggregation
    PRE-COMBINED inside the join stage — each batch emits one partial row
    per nation, so the groupby shuffle carries ~25 x n_blocks rows instead
    of 600k joined rows (the brief's combine-before-shuffle rule)."""
    cust = _pdf(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _pdf(sf_dir, "nation", ["n_nationkey", "n_name"])
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")[
        ["c_custkey", "n_name"]
    ].rename(columns={"c_custkey": "o_custkey"})
    from wikicrawl.functions._cache import broadcast_cached

    dim_ref = ray.put(dim)

    def join_and_combine(df: pd.DataFrame) -> pd.DataFrame:
        j = df.merge(broadcast_cached(dim_ref), on="o_custkey")
        g = j.groupby("n_name", sort=False)["o_totalprice"].agg(
            ["sum", "count"]
        ).reset_index()
        return g.rename(columns={"sum": "revenue", "count": "n_orders"})

    out = (
        T(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(join_and_combine, batch_format="pandas")
        .groupby("n_name")
        .aggregate(Sum("revenue", alias_name="revenue"),
                   Sum("n_orders", alias_name="n_orders"))
        .to_pandas()
    )
    out["revenue"] = out["revenue"].round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("n_name").reset_index(drop=True)


SQL_Q10 = """
SELECT n_name, round(sum(o_totalprice), 2) AS revenue, count(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name ORDER BY n_name
"""


# ------------------------------------------------------------------ q11

def q11_hash_join(sf_dir: str):
    """Partitioned hash join (both sides shuffled by bucket) + aggregate."""
    joined = F_joins.hash_join(
        T(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"]),
        T(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
            lambda t: t.rename_columns(["l_partkey", "p_brand"]),
            batch_format="pyarrow",
        ),
        on="l_partkey",
        n_buckets=16,
    )
    out = (
        joined.groupby("p_brand")
        .aggregate(Count(alias_name="n_items"),
                   Sum("l_extendedprice", alias_name="sum_price"))
        .to_pandas()
    )
    out["sum_price"] = out["sum_price"].round(2)
    return out.sort_values("p_brand").reset_index(drop=True)


SQL_Q11 = """
SELECT p_brand, count(*) AS n_items, round(sum(l_extendedprice), 2) AS sum_price
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand ORDER BY p_brand
"""


# ------------------------------------------------------------------ q12

def q12_asof_join(sf_dir: str):
    """As-of join: for each order, the latest event of the same user with
    ts <= o_orderdate. Events dedupe to one row per (user, ts) via a hash
    aggregate FUSED into the join's bucket stage (right_prep): a bucket
    holds whole user groups, so per-bucket dedupe is exactly the upstream
    groupby(user_id, ts).max(event_id) — minus its entire all-to-all
    shuffle. One shuffle total, one vectorized merge_asof(by=key) per
    bucket — no per-key groups."""
    ev = T(sf_dir, "events", ["user_id", "event_id", "ts"])

    def dedup_events(r: pd.DataFrame) -> pd.DataFrame:
        # keep max event_id per (user_id, ts) — vectorized, bucket-local
        r = r.sort_values("event_id", kind="mergesort")
        return r.drop_duplicates(["user_id", "ts"], keep="last")

    def cast_date(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("o_orderdate")
        return t.set_column(
            i, "o_orderdate", pc.cast(t["o_orderdate"], pa.timestamp("us"))
        )

    orders = T(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        cast_date, batch_format="pyarrow"
    )
    merged = F_joins.asof_join(
        orders, ev, left_key="o_custkey", right_key="user_id",
        left_ts="o_orderdate", right_ts="ts", right_prep=dedup_events,
    ).to_pandas()
    merged["last_event_id"] = merged["event_id"].astype("Int64")
    out = merged[["o_orderkey", "o_custkey", "last_event_id"]]
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_Q12 = """
WITH ev AS (
  SELECT user_id, event_id, ts FROM events
  QUALIFY row_number() OVER (PARTITION BY user_id, ts ORDER BY event_id DESC) = 1
)
SELECT o.o_orderkey, o.o_custkey, e.event_id AS last_event_id
FROM orders o ASOF LEFT JOIN ev e
  ON o.o_custkey = e.user_id AND e.ts <= o.o_orderdate
ORDER BY o.o_orderkey
"""


# ------------------------------------------------------------------ q13

def q13_token_stats(sf_dir: str):
    out = (
        T(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(F_text.token_counts, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens", "n_bpe_tokens", "n_chars_calc"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q13 = r"""
SELECT doc_id,
       length(regexp_extract_all(text, '\S+')) AS n_tokens,
       length(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]'))
         AS n_bpe_tokens,
       length(text) AS n_chars_calc
FROM documents ORDER BY doc_id
"""


# ------------------------------------------------------------------ q14

def _sql_count(expr: str, sub: str) -> str:
    escaped = sub.replace("'", "''")
    return (
        f"CAST((length({expr}) - length(replace({expr}, '{escaped}', '')))"
        f" / {len(sub)} AS BIGINT)"
    )


def q14_lang_id(sf_dir: str):
    out = (
        T(sf_dir, "documents", ["doc_id", "text", "lang"])
        .map_batches(F_text.lang_scores, batch_format="pyarrow")
        .select_columns(
            ["doc_id", "lang", "score_en", "score_fr", "score_es", "score_de",
             "pred_lang"]
        )
        .to_pandas()
    )
    for c in out.columns:
        if c.startswith("score_"):
            out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_q14() -> str:
    pad = "(' ' || text || ' ')"
    score = {
        lang: " + ".join(_sql_count(pad, m) for m in markers)
        for lang, markers in F_text.LANG_MARKERS.items()
    }
    return f"""
WITH s AS (
  SELECT doc_id, lang,
         {score['en']} AS score_en,
         {score['fr']} AS score_fr,
         {score['es']} AS score_es,
         {score['de']} AS score_de
  FROM documents
)
SELECT doc_id, lang, score_en, score_fr, score_es, score_de,
       CASE WHEN score_en >= score_fr AND score_en >= score_es AND score_en >= score_de THEN 'en'
            WHEN score_fr >= score_es AND score_fr >= score_de THEN 'fr'
            WHEN score_es >= score_de THEN 'es'
            ELSE 'de' END AS pred_lang
FROM s ORDER BY doc_id
"""


# ------------------------------------------------------------------ q27

GROUP_TOPK = 3


def q27_group_topk(sf_dir: str):
    """Group-wise top-k (k longest docs per language) — the per-domain
    quality-filtering shape. PARTIAL top-k per batch (each batch emits at
    most k rows per group) + a tiny final reduce: the driver sees
    O(k * groups * batches) rows, never the corpus — the same combiner
    plan as q20's ANN top-k, no shuffle at all."""
    ds = T(sf_dir, "documents", ["doc_id", "lang", "text"])

    def partial_topk(t: pa.Table) -> pa.Table:
        df = pa.table({
            "lang": t["lang"],
            "doc_id": t["doc_id"],
            "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        }).to_pandas()
        df = df.sort_values(["lang", "n_chars", "doc_id"],
                            ascending=[True, False, True], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("lang", sort=False).head(GROUP_TOPK),
            preserve_index=False,
        )

    out = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["lang", "n_chars", "doc_id"],
                          ascending=[True, False, True], kind="mergesort")
    out = out.groupby("lang", sort=False).head(GROUP_TOPK).copy()
    out["rnk"] = out.groupby("lang").cumcount() + 1
    return (out[["lang", "rnk", "doc_id", "n_chars"]]
            .sort_values(["lang", "rnk"]).reset_index(drop=True))


SQL_Q27 = f"""
WITH r AS (
  SELECT lang, doc_id, length(text) AS n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY length(text) DESC, doc_id) AS rnk
  FROM documents
)
SELECT lang, rnk, doc_id, n_chars FROM r WHERE rnk <= {GROUP_TOPK}
ORDER BY lang, rnk
"""


# ------------------------------------------------------------------ q15

def q15_quality(sf_dir: str):
    out = (
        T(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(F_text.quality_features, batch_format="pyarrow")
        .select_columns(
            ["doc_id", "n_chars_calc", "n_tokens", "n_punct",
             "mean_tok_millis", "is_low_quality"]
        )
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_q15() -> str:
    punct = " + ".join(_sql_count("text", p) for p in F_text.PUNCT)
    return f"""
WITH s AS (
  SELECT doc_id,
         length(text) AS n_chars_calc,
         length(regexp_extract_all(text, '\\S+')) AS n_tokens,
         {punct} AS n_punct,
         length(replace(text, ' ', '')) AS non_space
  FROM documents
)
SELECT doc_id, n_chars_calc, n_tokens, n_punct,
       CAST(floor(non_space * 1000.0 / greatest(n_tokens, 1)) AS BIGINT)
         AS mean_tok_millis,
       (n_chars_calc < 100 OR n_tokens < 20) AS is_low_quality
FROM s ORDER BY doc_id
"""


# ------------------------------------------------------------------ q16

def q16_exact_dedup(sf_dir: str):
    """Exact dedup: md5 content hash per batch -> groupby(hash) -> min id +
    count per group (the classic exact-dedup shuffle)."""
    out = (
        T(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(F_text.fingerprints, batch_format="pyarrow")
        .select_columns(["doc_id", "fp_md5"])
        .groupby("fp_md5")
        .aggregate(Min("doc_id", alias_name="rep_id"),
                   Count(alias_name="n_docs"))
        .to_pandas()
    )
    return out.sort_values("fp_md5").reset_index(drop=True)[
        ["fp_md5", "rep_id", "n_docs"]
    ]


SQL_Q16 = """
SELECT md5(text) AS fp_md5, min(doc_id) AS rep_id, count(*) AS n_docs
FROM documents GROUP BY md5(text) ORDER BY fp_md5
"""


# ------------------------------------------------------------------ q17

# process-local memo for the q17/q37/q60 shared MinHash pair list: the
# driver gate and bench run queries sequentially in ONE process, and all
# three queries derive from the identical verified pair set — computing
# it once cuts q37/q60's wall by the whole minhash pass (VERDICT r4
# next-round #3). Keyed on (abspath, documents.parquet mtime, threshold)
# so a regenerated corpus at the same path invalidates; holds ONE entry
# (pair lists are small — verified near-dup pairs — but no reason to
# accumulate corpora).
_MINHASH_PAIRS_CACHE: dict = {}


def _minhash_pairs(sf_dir: str, threshold: float = 0.8) -> pa.Table:
    import os as _os

    doc = _os.path.join(sf_dir, "documents.parquet")
    key = (_os.path.abspath(sf_dir), _os.stat(doc).st_mtime_ns, threshold)
    got = _MINHASH_PAIRS_CACHE.get(key)
    if got is None:
        ds = T(sf_dir, "documents", ["doc_id", "text"])
        got = F_dedup.minhash_lsh_dedup(ds, threshold=threshold)
        _MINHASH_PAIRS_CACHE.clear()
        _MINHASH_PAIRS_CACHE[key] = got
    return got


def q17_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup pairs with DISTRIBUTED exact-Jaccard verify.

    Oracle: the k=5 shingle hash is an injective base-257 polynomial over
    the (ASCII) bytes, so distinct shingle hashes == distinct 5-char
    substrings, and exact pairwise Jaccard is plain SQL over exploded
    substring sets. The LSH banding (16 bands x 4 rows) has recall
    ~1 - (1 - J^4)^16 >= 0.9998 at J = 0.8; on the deterministic testdata
    corpora the candidate set provably covers every true pair (verified in
    tests), so engine output == the full exact-threshold pair set."""
    return _minhash_pairs(sf_dir, threshold=0.8).to_pandas()


SQL_Q17 = """
WITH sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS s
  FROM documents, LATERAL unnest(generate_series(1, length(text) - 4)) AS t(i)
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS ni
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
j AS (
  SELECT id_a, id_b, ni, sa.n + sb.n - ni AS nu
  FROM inter
  JOIN sizes sa ON sa.doc_id = id_a
  JOIN sizes sb ON sb.doc_id = id_b
)
SELECT id_a, id_b, CAST((ni * 1000) // nu AS BIGINT) AS jac_milli
FROM j WHERE ni * 1.0 / nu >= 0.8
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q18

def q18_simhash(sf_dir: str):
    """SimHash fingerprints; token hash = first 8 bytes of md5 (LE), i.e.
    DuckDB's md5_number_upper — the sketch has an exact SQL twin."""
    out = (
        T(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(F_dedup.simhash_batch, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_SIMHASH_CTE = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok
  FROM documents
),
h AS (SELECT doc_id, md5_number_upper(tok) AS th FROM toks),
bits AS (
  SELECT doc_id, b.bit,
         sum(CASE WHEN (th >> b.bit) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM h CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS bit) b
  GROUP BY 1, 2
),
words AS (
  SELECT doc_id,
         coalesce(sum(CASE WHEN s > 0
                           THEN CAST(CAST(1 AS UBIGINT) << bit AS HUGEINT)
                           ELSE 0 END), 0) AS uval
  FROM bits GROUP BY doc_id
),
sim AS (
  SELECT d.doc_id,
         CAST(coalesce(w.uval, 0)
              - CASE WHEN coalesce(w.uval, 0) >= 9223372036854775808
                     THEN 18446744073709551616 ELSE 0 END
              AS BIGINT) AS simhash
  FROM documents d LEFT JOIN words w USING (doc_id)
)
"""

SQL_Q18 = SQL_SIMHASH_CTE + "SELECT doc_id, simhash FROM sim ORDER BY doc_id"


# ------------------------------------------------------------------ q22

SIMHASH_MAX_HAMMING = 3  # < SIMHASH_BANDS -> band probing is EXACT


def q22_simhash_dups(sf_dir: str):
    """SimHash near-dup pairs (hamming <= 3) via 16-bit band probing —
    exact by pigeonhole (3 flipped bits cannot touch all 4 bands), so the
    oracle is the full pairwise bit_count(xor(...)) in SQL."""
    ds = T(sf_dir, "documents", ["doc_id", "text"])
    return F_dedup.simhash_dup_pairs(
        ds, max_hamming=SIMHASH_MAX_HAMMING
    ).to_pandas()


SQL_Q22 = SQL_SIMHASH_CTE + f"""
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sim a JOIN sim b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {SIMHASH_MAX_HAMMING}
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q25

RANGE_JOIN_WINDOW_DAYS = 7


def q25_range_join(sf_dir: str):
    """Range (interval) join with fused aggregation: per order, the count
    and event-id sum of same-user events with ts in
    [o_orderdate, o_orderdate + 7 days). One shuffle (union + bucket
    groupby, same plan shape as the as-of join); per bucket the window
    aggregate comes from prefix sums + two vectorized searchsorted probes
    — never an expanded pair list."""
    ev = T(sf_dir, "events", ["user_id", "event_id", "ts"])

    def cast_date(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("o_orderdate")
        return t.set_column(
            i, "o_orderdate", pc.cast(t["o_orderdate"], pa.timestamp("us"))
        )

    orders = T(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        cast_date, batch_format="pyarrow"
    )
    out = F_joins.range_join_count_sum(
        orders, ev, left_key="o_custkey", right_key="user_id",
        left_ts="o_orderdate", right_ts="ts",
        window_us=RANGE_JOIN_WINDOW_DAYS * 86_400_000_000,
        sum_col="event_id", count_name="n_events", sum_name="sum_event_id",
    ).to_pandas()
    out = out[["o_orderkey", "o_custkey", "n_events", "sum_event_id"]]
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_Q25 = f"""
SELECT o.o_orderkey, o.o_custkey,
       count(e.event_id) AS n_events,
       CAST(coalesce(sum(e.event_id), 0) AS BIGINT) AS sum_event_id
FROM orders o LEFT JOIN events e
  ON e.user_id = o.o_custkey
 AND e.ts >= o.o_orderdate
 AND e.ts < o.o_orderdate + INTERVAL {RANGE_JOIN_WINDOW_DAYS} DAY
GROUP BY 1, 2
ORDER BY o_orderkey
"""


# ------------------------------------------------------------------ q33

BENCH_DOC_MOD = 20  # doc_id % 20 == 0 -> the held-out "benchmark" set


def q33_decontaminate(sf_dir: str):
    """Training-data DECONTAMINATION: flag corpus docs sharing any word
    n-gram with a held-out benchmark set (here: every 20th doc). The
    benchmark gram set is small by construction (it is the benchmark
    suite), so it broadcasts once via ray.put and the check is a pure
    per-batch filter — explode grams, sorted-array membership probe,
    per-doc hit count via bincount; zero shuffles over the corpus. For a
    benchmark side too big to broadcast, the same semantics fall out of
    ngram_jaccard_dedup's inverted-index join. Emits
    (doc_id, n_hits = distinct grams shared)."""
    from wikicrawl.functions._cache import broadcast_cached

    ds = T(sf_dir, "documents", ["doc_id", "text"])

    def bench_grams(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        ex = F_dedup.ngram_explode_batch(
            t.filter(pa.array(ids % BENCH_DOC_MOD == 0)), NGRAM_N,
            "doc_id", "text")
        return ex.select(["gh"])

    bench = np.unique(pa.concat_tables([
        ray.get(r) for r in
        ds.map_batches(bench_grams, batch_format="pyarrow").to_arrow_refs()
    ])["gh"].to_numpy())
    bench_ref = ray.put(bench)

    def flag(t: pa.Table) -> pa.Table:
        ids0 = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids0 % BENCH_DOC_MOD != 0))
        ex = F_dedup.ngram_explode_batch(t, NGRAM_N, "doc_id", "text")
        b = broadcast_cached(bench_ref, lambda a: a)  # int64-sorted hashes
        gh = ex["gh"].to_numpy()
        if len(b) == 0 or len(gh) == 0:  # empty benchmark set / no grams
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_hits": pa.array([], pa.int64())})
        idx = np.searchsorted(b, gh)
        idx[idx == len(b)] = 0
        hit = b[idx] == gh
        ids = ex["doc_id"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(ids, return_inverse=True)
        n_hits = np.bincount(inv, weights=hit).astype(np.int64)
        m = n_hits > 0
        return pa.table({"doc_id": pa.array(uniq[m]),
                         "n_hits": pa.array(n_hits[m])})

    out = ds.map_batches(flag, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q33 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
grams AS (
  SELECT DISTINCT doc_id,
     md5_number_upper(ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]) AS gh
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - {NGRAM_N - 1})) AS t(i)
),
bench AS (SELECT DISTINCT gh FROM grams WHERE doc_id % {BENCH_DOC_MOD} = 0)
SELECT g.doc_id, count(*) AS n_hits
FROM grams g JOIN bench b USING (gh)
WHERE g.doc_id % {BENCH_DOC_MOD} <> 0
GROUP BY 1 ORDER BY doc_id
"""


# ------------------------------------------------------------------ q32

QUANTILES_MILLI = [100, 250, 500, 750, 900, 990]


def q32_length_quantiles(sf_dir: str):
    """EXACT distributed quantiles of the document-length distribution —
    the corpus-statistics op. Never sorts the data: per-batch value
    COUNTS (the length domain is tiny vs the row count) are merged by a
    coarse-partition hash aggregate, the driver receives one row per
    DISTINCT value, cumsums, and reads off the rank-ceil quantile
    (value at sorted rank ceil(q*n/1000) — the discrete rule, defined
    identically in the oracle). Shuffle volume = O(distinct values),
    independent of corpus size."""
    ds = T(sf_dir, "documents", ["text"])
    n_parts = 16

    def value_counts(t: pa.Table) -> pa.Table:
        n_chars = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy()
        vals, cnt = np.unique(n_chars, return_counts=True)
        return pa.table({
            "n_chars": pa.array(vals),
            "cnt": pa.array(cnt.astype(np.int64)),
            "__b": pa.array((vals % n_parts).astype(np.int64)),
        })

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("n_chars", sort=False)["cnt"].sum()
                .reset_index())

    hist = (
        ds.map_batches(value_counts, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(merge_counts, batch_format="pandas")
        .to_pandas()
        .sort_values("n_chars")
        .reset_index(drop=True)
    )
    cum = hist["cnt"].cumsum().to_numpy()
    n = int(cum[-1]) if len(cum) else 0
    vals = hist["n_chars"].to_numpy()
    rows = []
    for qm in QUANTILES_MILLI:
        rank = -(-qm * n // 1000)  # ceil(q*n/1000)
        idx = int(np.searchsorted(cum, rank))
        rows.append((qm, int(vals[idx])))
    return pd.DataFrame(rows, columns=["q_milli", "n_chars"])


SQL_Q32 = f"""
WITH s AS (
  SELECT length(text) AS n_chars,
         row_number() OVER (ORDER BY length(text)) AS rn,
         count(*) OVER () AS n
  FROM documents
),
q AS (SELECT unnest(ARRAY{QUANTILES_MILLI}) AS q_milli)
SELECT CAST(q.q_milli AS BIGINT) AS q_milli, min(s.n_chars) AS n_chars
FROM q JOIN s ON s.rn = CAST(ceil(q.q_milli * s.n / 1000.0) AS BIGINT)
GROUP BY q.q_milli
ORDER BY q_milli
"""


# ------------------------------------------------------------------ q31

CHUNK_TOKENS = 32


def q31_token_chunks(sf_dir: str):
    """Fixed-size token chunking — the canonical LLM-training explode
    (split each document into 32-token windows): a row-MULTIPLYING
    map_batches (flat-map shape), embarrassingly parallel, zero
    shuffles. Emits (doc_id, chunk_id, chunk_text, n_tokens); the last
    chunk may be short."""
    ds = T(sf_dir, "documents", ["doc_id", "text"])

    def explode_chunks(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_ci, out_txt, out_n = [], [], [], []
        for i, text in enumerate(t["text"].to_pylist()):
            toks = F_dedup.tokenize(text)  # RE2-'\S+'-exact (oracle parity)
            for ci in range(0, max(1, (len(toks) + CHUNK_TOKENS - 1)
                                   // CHUNK_TOKENS)):
                w = toks[ci * CHUNK_TOKENS : (ci + 1) * CHUNK_TOKENS]
                out_id.append(ids[i])
                out_ci.append(ci)
                out_txt.append(" ".join(w))
                out_n.append(len(w))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "chunk_id": pa.array(out_ci, pa.int64()),
            "chunk_text": pa.array(out_txt, pa.string()),
            "n_tokens": pa.array(out_n, pa.int64()),
        })

    out = (ds.map_batches(explode_chunks, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


SQL_Q31 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
c AS (
  SELECT doc_id, t.ci AS chunk_id,
         ts[(t.ci * {CHUNK_TOKENS} + 1):((t.ci + 1) * {CHUNK_TOKENS})] AS w
  FROM toks, LATERAL unnest(generate_series(
      0, CAST(ceil(greatest(len(ts), 1) / {CHUNK_TOKENS}.0) AS BIGINT) - 1
  )) AS t(ci)
)
SELECT doc_id, chunk_id, array_to_string(w, ' ') AS chunk_text,
       len(w) AS n_tokens
FROM c ORDER BY doc_id, chunk_id
"""


# ------------------------------------------------------------------ q30

SESSION_GAP_US = 30 * 60 * 1_000_000  # 30-minute inactivity gap


def q30_sessionize(sf_dir: str):
    """Gap-based sessionization of the event stream (the classic stateful
    streaming op): sessions are key-local, so ONE hash-partition shuffle +
    a vectorized per-bucket boundary scan computes every session exactly
    (functions/streaming.sessionize). Oracle: gap-islands in SQL
    (LAG + windowed SUM)."""
    from wikicrawl.functions.streaming import sessionize

    ev = T(sf_dir, "events", ["user_id", "ts"])
    out = sessionize(ev, key_col="user_id", ts_col="ts",
                     gap_us=SESSION_GAP_US).to_pandas()
    return (out.sort_values(["user_id", "session_start_us"])
            .reset_index(drop=True))


SQL_Q30 = f"""
WITH e AS (SELECT user_id, epoch_us(ts) AS tu FROM events),
m AS (
  SELECT user_id, tu,
         CASE WHEN lag(tu) OVER w IS NULL
                OR tu - lag(tu) OVER w > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS is_new
  FROM e
  WINDOW w AS (PARTITION BY user_id ORDER BY tu)
),
s AS (
  SELECT user_id, tu,
         sum(is_new) OVER (PARTITION BY user_id ORDER BY tu
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM m
)
SELECT user_id,
       min(tu) AS session_start_us,
       max(tu) AS session_end_us,
       count(*) AS n_events
FROM s GROUP BY user_id, sid
ORDER BY user_id, session_start_us
"""


# ------------------------------------------------------------------ q28

SAMPLE_MOD = 1000
SAMPLE_RATES = {"en": 50, "fr": 200, "es": 200, "de": 200, "zh": 200}


def q28_stratified_sample(sf_dir: str):
    """Deterministic STRATIFIED hash-sample — the corpus-rebalancing op
    (downsample the dominant language, keep more of the rest). Keep a doc
    iff md5(doc_id) % 1000 < rate(lang); the hash is md5_number_upper of
    the DECIMAL doc_id string, so membership is reproducible across runs,
    engines and the SQL oracle — never an RNG. Pure per-batch filter:
    embarrassingly parallel, zero shuffles."""
    ds = T(sf_dir, "documents", ["doc_id", "lang"])

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        h = np.array([F_dedup.token_hash_u64(str(i)) for i in ids],
                     dtype=np.uint64) % np.uint64(SAMPLE_MOD)
        langs = t["lang"].to_pylist()
        rates = np.array([SAMPLE_RATES.get(l, 0) for l in langs],
                         dtype=np.uint64)
        return t.filter(pa.array(h < rates))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_rate_case = " ".join(
    f"WHEN '{lang}' THEN {rate}" for lang, rate in SAMPLE_RATES.items()
)
SQL_Q28 = f"""
SELECT doc_id, lang FROM documents
WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % {SAMPLE_MOD}
      < CASE lang {_rate_case} ELSE 0 END
ORDER BY doc_id
"""


# ------------------------------------------------------------------ q29

VOCAB_TOPK = 50


def q29_ngram_vocab(sf_dir: str):
    """Vocabulary building: top-k word-3-grams by DOCUMENT frequency.
    Reuses q24's explode (distinct (gram, doc) rows, partitioned by gram
    hash); each gram's df is complete within its owning partition, so the
    per-partition pandas value_counts + per-partition top-k is exact and
    the driver reduce sees only k rows per partition. One shuffle; never
    Ray's per-key aggregate (27k+ distinct grams)."""
    ds = T(sf_dir, "documents", ["doc_id", "text"])
    exploded = ds.map_batches(
        lambda t: F_dedup.ngram_explode_batch(t, NGRAM_N, "doc_id", "text"),
        batch_format="pyarrow",
    )

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        df = (g.groupby("gh", sort=False).size().rename("df").reset_index())
        df = df.sort_values(["df", "gh"], ascending=[False, True],
                            kind="mergesort")
        return df.head(VOCAB_TOPK)

    out = (exploded.groupby("__pb").map_groups(bucket_topk,
                                               batch_format="pandas")
           .to_pandas())
    out = out.sort_values(["df", "gh"], ascending=[False, True],
                          kind="mergesort").head(VOCAB_TOPK)
    return out[["gh", "df"]].reset_index(drop=True)


SQL_Q29 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
grams AS (
  SELECT DISTINCT doc_id,
     md5_number_upper(ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]) AS gh_u
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - {NGRAM_N - 1})) AS t(i)
),
df AS (
  SELECT CAST(gh_u - CASE WHEN gh_u >= 9223372036854775808
                          THEN 18446744073709551616 ELSE 0 END
              AS BIGINT) AS gh,
         count(*) AS df
  FROM grams GROUP BY 1
)
SELECT gh, df FROM df ORDER BY df DESC, gh LIMIT {VOCAB_TOPK}
"""


# ------------------------------------------------------------------ q24

NGRAM_JACCARD_THRESHOLD = 0.6


def q24_ngram_jaccard(sf_dir: str):
    """Standalone EXACT word-n-gram Jaccard near-dup pairs — the no-sketch
    flavor (vs q17's MinHash+LSH): inverted-index self-join on the gram
    hash, partial intersection counts per gram partition, one global pair
    sum. Gram hash = DuckDB's md5_number_upper of the space-joined gram,
    so the oracle computes the identical sets in plain SQL."""
    ds = T(sf_dir, "documents", ["doc_id", "text"])
    return F_dedup.ngram_jaccard_dedup(
        ds, n=NGRAM_N, threshold=NGRAM_JACCARD_THRESHOLD
    ).to_pandas()


SQL_Q24 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
grams AS (
  SELECT DISTINCT doc_id,
     md5_number_upper(ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]) AS gh
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - {NGRAM_N - 1})) AS t(i)
),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS ni
  FROM grams a JOIN grams b ON a.gh = b.gh AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
j AS (
  SELECT id_a, id_b, ni, sa.n + sb.n - ni AS nu
  FROM inter
  JOIN sizes sa ON sa.doc_id = id_a
  JOIN sizes sb ON sb.doc_id = id_b
)
SELECT id_a, id_b, CAST((ni * 1000) // nu AS BIGINT) AS jac_milli
FROM j WHERE ni * 1.0 / nu >= {NGRAM_JACCARD_THRESHOLD}
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q19

EMBED_DUP_THRESHOLD = 0.3  # synthetic embeddings carry no true near-dups;
# 0.3 exercises the operator on real pairs (planted-dup behavior is covered
# by tests/test_functions.py at 0.99)


def q19_embedding_dups(sf_dir: str):
    """Embedding near-dup pairs within label partitions (cosine threshold).

    Chunk-pair decomposition (functions/dedup.embedding_dup_pairs_blocked):
    exact all-pairs semantics, but a hot label fans out over
    n_chunks*(n_chunks+1)/2 tasks each holding 2/n_chunks of the label —
    never the O(n^2) single-task group of the naive groupby(label)."""
    ds = T(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = F_dedup.embedding_dup_pairs_blocked(
        ds, EMBED_DUP_THRESHOLD
    ).to_pandas()
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out


SQL_Q19 = f"""
WITH d AS (SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       CAST(round(list_cosine_similarity(a.emb, b.emb) * 1000000)
            AS BIGINT) AS sim_micro
FROM d a JOIN d b
  ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.emb, b.emb) >= {EMBED_DUP_THRESHOLD}
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q20

N_QUERY_VECS = 8
TOPK = 5


def q20_ann_topk(sf_dir: str):
    """Brute-force cosine top-k against a broadcast query matrix."""
    qdf = _pdf(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = qdf[qdf.vec_id < N_QUERY_VECS].sort_values("vec_id")
    out = F_sim.brute_force_topk(
        T(sf_dir, "embeddings", ["vec_id", "embedding"]),
        qdf["vec_id"].to_numpy(),
        np.stack(qdf["embedding"].to_numpy()),
        k=TOPK,
    ).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return out[["query_id", "neighbor_id", "sim_micro", "rank"]]


SQL_Q20 = f"""
WITH d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
q AS (SELECT vec_id, emb FROM d WHERE vec_id < {N_QUERY_VECS}),
sims AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         CAST(round(list_cosine_similarity(q.emb, e.emb) * 1000000)
              AS BIGINT) AS sim_micro
  FROM q CROSS JOIN d e WHERE e.vec_id != q.vec_id
)
SELECT query_id, neighbor_id, sim_micro, rank FROM (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY sim_micro DESC, neighbor_id) AS rank
  FROM sims
) WHERE rank <= {TOPK}
ORDER BY query_id, rank
"""


ANN_RECALL_FLOOR_MILLI = 300  # committed floor on the MEAN recall@5 across
# queries. Random synthetic embeddings are the worst case for bucketed ANN
# (no cluster structure: P(true neighbor within hamming<=2 of the query's
# 6-bit sign bucket) ~ 22/64, so a single query can legitimately land at
# recall 0); observed mean recall is 0.5-0.6 across the test scales.


def q21_ann_lsh_raw(sf_dir: str):
    """Raw sign-random-projection LSH ANN result (multiprobe, hamming<=2)."""
    qdf = _pdf(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = qdf[qdf.vec_id < N_QUERY_VECS].sort_values("vec_id")
    out = F_sim.lsh_topk(
        T(sf_dir, "embeddings", ["vec_id", "embedding"]),
        qdf["vec_id"].to_numpy(),
        np.stack(qdf["embedding"].to_numpy()),
        k=TOPK,
    ).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return out[["query_id", "neighbor_id", "sim_micro", "rank"]]


def q21_ann_lsh(sf_dir: str):
    """Approximate-ANN recall report: per query, recall@k of the LSH
    multiprobe result against the exact brute-force top-k, plus whether it
    meets the committed floor. Fully deterministic AND fully
    SQL-expressible: the oracle recomputes the SAME sign buckets from the
    SAME integer projection planes (inlined as SQL literals), the same
    probe set, the same exact top-k, and derives recall independently —
    no frozen artifacts anywhere (VERDICT r2 item 8)."""
    lsh = q21_ann_lsh_raw(sf_dir)
    exact = q20_ann_topk(sf_dir)
    rows = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g.neighbor_id)
        got = set(lsh[lsh.query_id == qid].neighbor_id)
        rows.append((int(qid), int(len(truth & got) * 1000 // max(len(truth), 1))))
    df = pd.DataFrame(rows, columns=["query_id", "recall_milli"])
    mean_milli = int(df.recall_milli.sum()) // max(len(df), 1)
    df["meets_floor"] = mean_milli >= ANN_RECALL_FLOOR_MILLI
    return df


IVF_RECALL_FLOOR_MILLI = 300  # committed floor on MEAN recall@5 across
# queries for the IVF path (4/16 probed buckets over random synthetic
# embeddings — the no-cluster-structure worst case, same caveat as the LSH
# floor above).

IVF_N_CENTROIDS = 16
IVF_N_PROBE = 4
IVF_TRAIN_SAMPLE = 2048


def q23_ann_ivf_raw(sf_dir: str):
    """Raw IVF-bucketed approximate ANN (deterministic k-means centroids,
    n_probe buckets) — the alternate scale path."""
    qdf = _pdf(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = qdf[qdf.vec_id < N_QUERY_VECS].sort_values("vec_id")
    out = F_sim.ivf_topk(
        T(sf_dir, "embeddings", ["vec_id", "embedding"]),
        qdf["vec_id"].to_numpy(),
        np.stack(qdf["embedding"].to_numpy()),
        k=TOPK,
        n_centroids=IVF_N_CENTROIDS,
        n_probe=IVF_N_PROBE,
        train_sample=IVF_TRAIN_SAMPLE,
    ).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return out[["query_id", "neighbor_id", "sim_micro", "rank"]]


def q23_ann_ivf(sf_dir: str):
    """IVF-ANN recall report: per query, recall@k of the IVF-probe result
    against the exact brute-force top-k, plus whether it meets the
    committed floor (the q21 pattern, VERDICT r3 item 2). Fully
    SQL-expressible because IVF training is a pure deterministic function
    of the (vec_id, embedding) set: the sample is chosen BY RULE
    (vec_id < train_sample), the k-means init is the n_centroids rows with
    the smallest md5_number_upper(vec_id), every assignment runs on
    micro-quantized cosines, every centroid mean is quantized to the
    binary IVF_CENT_GRID, and the oracle unrolls the 5 Lloyd iterations
    as SQL CTEs — centroid parity vs numpy is exact (0.0 max abs diff at
    sf0.001/0.01/0.1; pinned by test_ivf_centroid_sql_parity)."""
    ivf = q23_ann_ivf_raw(sf_dir)
    exact = q20_ann_topk(sf_dir)
    rows = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g.neighbor_id)
        got = set(ivf[ivf.query_id == qid].neighbor_id)
        rows.append((int(qid), int(len(truth & got) * 1000 // max(len(truth), 1))))
    df = pd.DataFrame(rows, columns=["query_id", "recall_milli"])
    mean_milli = int(df.recall_milli.sum()) // max(len(df), 1)
    df["meets_floor"] = mean_milli >= IVF_RECALL_FLOOR_MILLI
    return df


def _sql_q21() -> str:
    """q21 oracle, generated from the engine's own plane constants: bucket
    assignment as 6 inline sign tests against integer DOUBLE[] literals,
    multiprobe via bit_count masks, per-query candidate rank, exact top-k,
    recall join. Everything derives from the embeddings table at run time."""
    planes = F_sim.lsh_planes(64)
    terms = []
    for i, row in enumerate(planes):
        lit = "[" + ",".join(str(int(v)) for v in row) + "]::DOUBLE[]"
        terms.append(
            f"(CASE WHEN list_dot_product(emb, {lit}) > 0 "
            f"THEN {1 << i} ELSE 0 END)"
        )
    bucket_expr = "\n     + ".join(terms)
    return f"""
WITH d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
bkt AS (SELECT vec_id, emb,
       {bucket_expr} AS bkt
  FROM d),
q AS (SELECT * FROM bkt WHERE vec_id < {N_QUERY_VECS}),
masks AS (SELECT m FROM range({1 << F_sim.LSH_N_PLANES}) t(m)
          WHERE bit_count(m) <= {F_sim.LSH_HAMMING_PROBE}),
probe AS (SELECT q.vec_id AS query_id, q.emb AS qemb, xor(q.bkt, m.m) AS pbkt
          FROM q CROSS JOIN masks m),
cand AS (SELECT p.query_id, p.qemb, d.vec_id AS neighbor_id, d.emb
         FROM probe p JOIN bkt d ON d.bkt = p.pbkt
         WHERE d.vec_id != p.query_id),
lsh AS (SELECT query_id, neighbor_id FROM (
          SELECT query_id, neighbor_id,
                 row_number() OVER (PARTITION BY query_id ORDER BY
                   CAST(round(list_cosine_similarity(qemb, emb) * 1000000)
                        AS BIGINT) DESC, neighbor_id) AS rank
          FROM cand) WHERE rank <= {TOPK}),
exact AS (SELECT query_id, neighbor_id FROM (
          SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                 row_number() OVER (PARTITION BY q.vec_id ORDER BY
                   CAST(round(list_cosine_similarity(q.emb, e.emb) * 1000000)
                        AS BIGINT) DESC, e.vec_id) AS rank
          FROM (SELECT * FROM d WHERE vec_id < {N_QUERY_VECS}) q
          CROSS JOIN d e WHERE e.vec_id != q.vec_id) WHERE rank <= {TOPK}),
rec AS (SELECT e.query_id,
       CAST((count(l.neighbor_id) * 1000) // count(*) AS BIGINT) AS recall_milli
       FROM exact e LEFT JOIN lsh l USING (query_id, neighbor_id)
       GROUP BY e.query_id)
SELECT query_id, recall_milli,
       (CAST(sum(recall_milli) OVER () AS BIGINT)
          // count(*) OVER ()) >= {ANN_RECALL_FLOOR_MILLI} AS meets_floor
FROM rec
ORDER BY query_id
"""


_SIM_MICRO_SQL = ("CAST(floor(list_cosine_similarity({a}, {b}) * 1000000 "
                  "+ 0.5) AS BIGINT)")


def _ivf_bkt_ctes() -> list[str]:
    """Shared oracle prefix for q23/q41: deterministic k-means training
    unrolled as ``IVF_ITERS`` CTE pairs (micro-quantized cosine argmax
    assignment, grid-quantized centroid means, coalesce for empty
    clusters) + corpus bucket assignment. Ends with CTE ``bkt``
    (vec_id, emb, bucket). Every quantization (``floor(x*1e6+0.5)`` sims,
    ``floor(x*grid+0.5)/grid`` centroids) matches
    ``similarity.kmeans_lite`` expression-for-expression, so both sides
    land on identical integers despite ulp-level float differences. No
    frozen artifacts — everything derives from the embeddings table at
    run time (VERDICT r3 item 2)."""
    grid = F_sim.IVF_CENT_GRID
    sim = _SIM_MICRO_SQL
    ctes = [
        "d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb "
        "FROM embeddings)",
        f"train AS (SELECT vec_id, emb FROM d WHERE vec_id < "
        f"{IVF_TRAIN_SAMPLE})",
        # init: the n_centroids rows with the smallest md5_number_upper
        # (ties by vec_id), in that order -> cluster ids 0..n-1
        f"""cent0 AS (SELECT rn - 1 AS c, emb FROM (
  SELECT row_number() OVER (
    ORDER BY md5_number_upper(CAST(vec_id AS VARCHAR)), vec_id) AS rn, emb
  FROM train) WHERE rn <= {IVF_N_CENTROIDS})""",
    ]
    for i in range(F_sim.IVF_ITERS):
        a = sim.format(a="t.emb", b="k.emb")
        ctes.append(f"""asg{i} AS (SELECT vec_id, emb, c FROM (
  SELECT t.vec_id, t.emb, k.c, row_number() OVER (
    PARTITION BY t.vec_id ORDER BY {a} DESC, k.c) AS rn
  FROM train t CROSS JOIN cent{i} k) WHERE rn = 1)""")
        ctes.append(f"""upd{i} AS (
  SELECT c, list(CAST(val AS DOUBLE) ORDER BY pos) AS emb FROM (
    SELECT c, pos, floor(avg(val) * {grid} + 0.5) / {grid} AS val FROM (
      SELECT c, unnest(emb) AS val, unnest(range(len(emb))) AS pos
      FROM asg{i}) GROUP BY c, pos) GROUP BY c)""")
        ctes.append(f"""cent{i + 1} AS (
  SELECT k.c, coalesce(u.emb, k.emb) AS emb
  FROM cent{i} k LEFT JOIN upd{i} u USING (c))""")
    final = f"cent{F_sim.IVF_ITERS}"
    asg = sim.format(a="v.emb", b="k.emb")
    ctes.append(f"""bkt AS (SELECT vec_id, emb, c AS bucket FROM (
  SELECT v.vec_id, v.emb, k.c, row_number() OVER (
    PARTITION BY v.vec_id ORDER BY {asg} DESC, k.c) AS rn
  FROM d v CROSS JOIN {final} k) WHERE rn = 1)""")
    return ctes


def _sql_q23() -> str:
    """q23 oracle: the ENTIRE IVF path recomputed in DuckDB — the shared
    ``_ivf_bkt_ctes`` training/assignment prefix, then per-query probe
    selection, union-bucket candidate top-k, exact top-k, recall join."""
    sim = _SIM_MICRO_SQL
    final = f"cent{F_sim.IVF_ITERS}"
    prb = sim.format(a="q.emb", b="k.emb")
    ctes = _ivf_bkt_ctes()
    ctes.append(f"q AS (SELECT vec_id, emb FROM d WHERE vec_id < "
                f"{N_QUERY_VECS})")
    # the engine filters the corpus to the UNION of all queries' probed
    # buckets once (one streaming scan), then ranks each query within it
    ctes.append(f"""probes AS (SELECT DISTINCT c FROM (
  SELECT q.vec_id, k.c, row_number() OVER (
    PARTITION BY q.vec_id ORDER BY {prb} DESC, k.c) AS rn
  FROM q CROSS JOIN {final} k) WHERE rn <= {IVF_N_PROBE})""")
    ctes.append("cand AS (SELECT b.vec_id, b.emb FROM bkt b "
                "JOIN probes p ON b.bucket = p.c)")
    # final ranking uses the q20-proven round() micro convention
    ctes.append(f"""ivf AS (SELECT query_id, neighbor_id FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, row_number() OVER (
    PARTITION BY q.vec_id ORDER BY
      CAST(round(list_cosine_similarity(q.emb, e.emb) * 1000000)
           AS BIGINT) DESC, e.vec_id) AS rank
  FROM q CROSS JOIN cand e WHERE e.vec_id != q.vec_id)
  WHERE rank <= {TOPK})""")
    ctes.append(f"""exact AS (SELECT query_id, neighbor_id FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, row_number() OVER (
    PARTITION BY q.vec_id ORDER BY
      CAST(round(list_cosine_similarity(q.emb, e.emb) * 1000000)
           AS BIGINT) DESC, e.vec_id) AS rank
  FROM q CROSS JOIN d e WHERE e.vec_id != q.vec_id)
  WHERE rank <= {TOPK})""")
    ctes.append("""rec AS (SELECT e.query_id,
  CAST((count(l.neighbor_id) * 1000) // count(*) AS BIGINT) AS recall_milli
  FROM exact e LEFT JOIN ivf l USING (query_id, neighbor_id)
  GROUP BY e.query_id)""")
    return ("WITH " + ",\n".join(ctes) + f"""
SELECT query_id, recall_milli,
       (CAST(sum(recall_milli) OVER () AS BIGINT)
          // count(*) OVER ()) >= {IVF_RECALL_FLOOR_MILLI} AS meets_floor
FROM rec
ORDER BY query_id
""")


# ------------------------------------------------------------------ q34


PIPE_NGRAM_N = 4  # decontamination gram size for the composed pipeline:
# real decontamination uses LONGER grams than near-dup detection (GPT-3
# used 13-grams) — at n=3 the synthetic corpus's shared stock phrases
# contaminate ~100% of docs at sf0.1 (measured: 635/635; n=4 -> 346/635,
# a non-trivial split at every test scale)


def q34_training_pipeline(sf_dir: str):
    """FLAGSHIP composition (VERDICT r3 item 6): exact dedup -> benchmark
    drop -> stratified sample -> n-gram decontamination -> token chunking,
    all as ONE streaming Dataset plan (pipelines/training_data.py). The
    oracle is a single DuckDB CTE chain over the same rules — proving the
    training-data operators compose end-to-end, not just individually."""
    from wikicrawl.pipelines.training_data import training_corpus

    ds = T(sf_dir, "documents", ["doc_id", "lang", "text"])
    out = training_corpus(
        ds, ngram_n=PIPE_NGRAM_N, bench_mod=BENCH_DOC_MOD,
        sample_mod=SAMPLE_MOD, sample_rates=SAMPLE_RATES,
        chunk_tokens=CHUNK_TOKENS,
    ).to_pandas()
    if "doc_id" not in out.columns:  # zero survivors -> columnless frame
        out = pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "lang": pd.Series([], dtype="object"),
            "chunk_id": pd.Series([], dtype="int64"),
            "chunk_text": pd.Series([], dtype="object"),
            "n_tokens": pd.Series([], dtype="int64"),
        })
    return (out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
            [["doc_id", "lang", "chunk_id", "chunk_text", "n_tokens"]])


def _sql_q34() -> str:
    gram = "md5_number_upper(" + " || ' ' || ".join(
        f"ts[i+{j}]" if j else "ts[i]" for j in range(PIPE_NGRAM_N)) + ")"
    return f"""
WITH kept AS (
  SELECT doc_id, lang, text FROM documents
  QUALIFY min(doc_id) OVER (PARTITION BY md5(text)) = doc_id
),
btoks AS (
  SELECT regexp_extract_all(text, '\\S+') AS ts FROM documents
  WHERE doc_id % {BENCH_DOC_MOD} = 0
),
bench AS (
  SELECT DISTINCT {gram} AS gh
  FROM btoks, LATERAL unnest(generate_series(1, len(ts) -
       {PIPE_NGRAM_N - 1})) AS t(i)
),
samp AS (
  SELECT doc_id, lang, regexp_extract_all(text, '\\S+') AS ts FROM kept
  WHERE doc_id % {BENCH_DOC_MOD} <> 0
    AND md5_number_upper(CAST(doc_id AS VARCHAR)) % {SAMPLE_MOD}
        < CASE lang {_rate_case} ELSE 0 END
),
contaminated AS (
  SELECT DISTINCT s.doc_id
  FROM (SELECT DISTINCT doc_id, {gram} AS gh
        FROM samp, LATERAL unnest(generate_series(1, len(ts) -
             {PIPE_NGRAM_N - 1})) AS t(i)) s
  JOIN bench b USING (gh)
),
clean AS (
  SELECT * FROM samp
  WHERE doc_id NOT IN (SELECT doc_id FROM contaminated)
),
c AS (
  SELECT doc_id, lang, t.ci AS chunk_id,
         ts[(t.ci * {CHUNK_TOKENS} + 1):((t.ci + 1) * {CHUNK_TOKENS})] AS w
  FROM clean, LATERAL unnest(generate_series(
      0, CAST(ceil(greatest(len(ts), 1) / {CHUNK_TOKENS}.0) AS BIGINT) - 1
  )) AS t(ci)
)
SELECT doc_id, lang, chunk_id, array_to_string(w, ' ') AS chunk_text,
       len(w) AS n_tokens
FROM c ORDER BY doc_id, chunk_id
"""


# ------------------------------------------------------------------ q35

def q35_pii_scrub(sf_dir: str):
    """PII scrub (emails / IPv4s / phone numbers): vectorized RE2 count +
    global redact per rule (functions/textstats.py `pii_scrub`). The
    corpus is word-salad, so deterministic PII spans are INJECTED first
    (doc_id-keyed, reproduced verbatim by the SQL oracle) — the operator
    under test is the scrub, the injection is fixture synthesis."""
    ds = T(sf_dir, "documents", ["doc_id", "text"])

    def augment(t: pa.Table) -> pa.Table:
        # fixture synthesis (per-row string build is fine here; the
        # OPERATOR below is the vectorized RE2 scrub)
        ids = t["doc_id"].to_numpy().astype(np.int64)
        texts = t["text"].to_pylist()
        out = []
        for did, txt in zip(ids.tolist(), texts):
            if did % 3 == 0:
                txt += f" contact user{did}@mail.example.com"
            if did % 5 == 0:
                txt += f" from 10.{did % 200}.0.{did % 250}"
            if did % 7 == 0:
                txt += f" call +1-555-{1000000 + did % 9000000}"
            out.append(txt)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string())})

    out = (
        ds.map_batches(augment, batch_format="pyarrow")
        .map_batches(F_text.pii_scrub, batch_format="pyarrow")
        .select_columns(["doc_id", "n_emails", "n_ips", "n_phones",
                         "redacted"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_q35() -> str:
    em, ip, ph = (F_text.PII_EMAIL_RE, F_text.PII_IP_RE, F_text.PII_PHONE_RE)
    return f"""
WITH aug AS (
  SELECT doc_id, text
    || CASE WHEN doc_id % 3 = 0
       THEN ' contact user' || doc_id || '@mail.example.com' ELSE '' END
    || CASE WHEN doc_id % 5 = 0
       THEN ' from 10.' || (doc_id % 200) || '.0.' || (doc_id % 250)
       ELSE '' END
    || CASE WHEN doc_id % 7 = 0
       THEN ' call +1-555-' || (1000000 + doc_id % 9000000) ELSE '' END AS t
  FROM documents
)
SELECT doc_id,
  CAST(len(regexp_extract_all(t, '{em}')) AS BIGINT) AS n_emails,
  CAST(len(regexp_extract_all(t, '{ip}')) AS BIGINT) AS n_ips,
  CAST(len(regexp_extract_all(t, '{ph}')) AS BIGINT) AS n_phones,
  regexp_replace(regexp_replace(regexp_replace(
      t, '{em}', '<EMAIL>', 'g'), '{ip}', '<IP>', 'g'),
      '{ph}', '<PHONE>', 'g') AS redacted
FROM aug ORDER BY doc_id
"""


# ------------------------------------------------------------------ q36

def q36_repetition_signals(sf_dir: str):
    """Gopher-style repetition/quality signals per doc (token count,
    distinct tokens, top token / top bigram frequency, rep_milli) —
    batch-vectorized factorize + composite-key np.unique, zero shuffles
    (each doc's signals complete within its batch)."""
    out = (
        T(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(F_text.repetition_signals, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q36 = """
WITH tl AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
toks AS (
  SELECT doc_id, unnest(ts) AS tok,
         unnest(generate_series(1, len(ts))) AS pos
  FROM tl
),
tc AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY doc_id, tok),
doc AS (
  SELECT doc_id, sum(c) AS n_tokens, count(*) AS n_distinct,
         max(c) AS top_token_cnt
  FROM tc GROUP BY doc_id
),
bg AS (
  SELECT a.doc_id, a.tok || ' ' || b.tok AS bgm
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
),
bgt AS (
  SELECT doc_id, max(c) AS top_bigram_cnt
  FROM (SELECT doc_id, bgm, count(*) AS c FROM bg GROUP BY doc_id, bgm)
  GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(d.n_tokens AS BIGINT) AS n_tokens,
       CAST(d.n_distinct AS BIGINT) AS n_distinct,
       CAST(d.top_token_cnt AS BIGINT) AS top_token_cnt,
       CAST(coalesce(b.top_bigram_cnt, 0) AS BIGINT) AS top_bigram_cnt,
       CAST((1000 * (d.n_tokens - d.n_distinct)) // d.n_tokens AS BIGINT)
           AS rep_milli
FROM doc d LEFT JOIN bgt b USING (doc_id)
WHERE d.n_tokens > 0
ORDER BY d.doc_id
"""


# ------------------------------------------------------------------ q37

def q37_dup_clusters(sf_dir: str):
    """Near-dup CLUSTERS: connected components over the q17 verified pair
    list (functions/graph.py) -> (node, cluster_id=min doc of component).
    Size-switched: driver union-find while the pair list is bounded,
    distributed hash-min + pointer-jumping label propagation when not —
    both parity-tested against each other (tests/test_functions.py)."""
    pairs = _minhash_pairs(sf_dir, threshold=0.8)
    edges = rd.from_arrow(pa.table({
        "id_a": pairs["id_a"], "id_b": pairs["id_b"]}))
    return F_graph.connected_components(edges)


SQL_Q37 = """
WITH RECURSIVE sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS s
  FROM documents, LATERAL unnest(generate_series(1, length(text) - 4)) AS t(i)
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS ni
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT id_a, id_b
  FROM inter
  JOIN sizes sa ON sa.doc_id = id_a
  JOIN sizes sb ON sb.doc_id = id_b
  WHERE ni * 1.0 / (sa.n + sb.n - ni) >= 0.8
),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(v, w) AS (
  SELECT a, a FROM edges
  UNION
  SELECT r.v, e.b FROM reach r JOIN edges e ON r.w = e.a
)
SELECT v AS node, CAST(min(w) AS BIGINT) AS cluster_id
FROM reach GROUP BY v ORDER BY v
"""


# ------------------------------------------------------------------ q38

AUDIO_N_SAMPLES = 160   # 10 windows of 16 samples per synthetic clip
AUDIO_WINDOW = 16
_AUDIO_C1, _AUDIO_C2 = 2654435761, 40503  # LCG-ish synth constants


def q38_audio_features(sf_dir: str):
    """Audio windowed features through the REAL WAV codec: deterministic
    int16 clips are synthesized per doc_id, round-tripped through
    wav_encode -> AudioWindows (stages/audio_stages.py), and the exploded
    per-window integer features (rms_milli / zero_crossings / peak) have
    a closed-form SQL twin over generate_series — the multimodal audio
    path is driver-value-verified end to end, codec included."""
    from wikicrawl.stages.audio_stages import AudioWindows, wav_encode

    ds = T(sf_dir, "documents", ["doc_id"])

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        i = np.arange(AUDIO_N_SAMPLES, dtype=np.int64)
        v = ((ids[:, None] * _AUDIO_C1 + i[None, :] * _AUDIO_C2)
             % 65536) - 32768
        wavs = [wav_encode(row.astype(np.int16), rate=16000) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(wavs, pa.binary())})

    out = (
        ds.map_batches(synth, batch_format="pyarrow")
        .map_batches(AudioWindows(window_samples=AUDIO_WINDOW,
                                  id_col="doc_id"),
                     batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["doc_id", "window_id"]).reset_index(drop=True)


def _sql_q38() -> str:
    return f"""
WITH s AS (
  SELECT d.doc_id, g.i // {AUDIO_WINDOW} AS window_id, g.i,
         ((d.doc_id * {_AUDIO_C1} + g.i * {_AUDIO_C2}) % 65536) - 32768 AS v
  FROM documents d, generate_series(0, {AUDIO_N_SAMPLES - 1}) AS g(i)
),
w AS (
  SELECT doc_id, window_id, v,
         lag(v) OVER (PARTITION BY doc_id, window_id ORDER BY i) AS pv
  FROM s
)
SELECT doc_id, window_id,
       CAST({AUDIO_WINDOW} AS BIGINT) AS n_samples,
       CAST(floor(sqrt(sum(v * v) / {AUDIO_WINDOW}.0) * 1000 / 32768)
            AS BIGINT) AS rms_milli,
       CAST(sum(CASE WHEN pv IS NOT NULL AND ((v < 0) != (pv < 0))
                THEN 1 ELSE 0 END) AS BIGINT) AS zero_crossings,
       CAST(max(abs(v)) AS BIGINT) AS peak
FROM w
GROUP BY doc_id, window_id
ORDER BY doc_id, window_id
"""


# ------------------------------------------------------------------ q39

IMG_W, IMG_H = 8, 8      # synthetic source image dims
IMG_BLOCK = 2            # box_resize 8x8 -> 4x4 (2x2 blocks)
_IMG_C1, _IMG_C2 = 2654435761, 97


def q39_image_blocks(sf_dir: str):
    """Image features through the REAL PNG codec: deterministic 8x8 RGB
    images per doc_id round-trip through png_encode/png_decode (zlib
    DEFLATE container, codec.py) and box_resize to 4x4; the per-block
    integer channel means have a closed-form SQL twin (sum // area over
    generate_series) — the multimodal image path (codec + resize kernel)
    is driver-value-verified end to end, like q38 for audio."""
    from wikicrawl import codec
    from wikicrawl.stages.image_stages import box_resize

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        v = ((ids[:, None] * _IMG_C1 + idx[None, :] * _IMG_C2) % 256
             ).astype(np.uint8)
        pngs = [codec.png_encode(row.reshape(IMG_H, IMG_W, 3)) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(pngs, pa.binary())})

    ow, oh = IMG_W // IMG_BLOCK, IMG_H // IMG_BLOCK

    def blocks(t: pa.Table) -> pa.Table:
        out = {k: [] for k in
               ("doc_id", "by", "bx", "mean_r", "mean_g", "mean_b")}
        for did, data in zip(t["doc_id"].to_pylist(),
                             t["bytes"].to_pylist()):
            px = codec.png_decode(data)          # real decode round-trip
            th = box_resize(px, ow, oh).astype(np.int64)
            for by in range(oh):
                for bx in range(ow):
                    out["doc_id"].append(did)
                    out["by"].append(by)
                    out["bx"].append(bx)
                    out["mean_r"].append(int(th[by, bx, 0]))
                    out["mean_g"].append(int(th[by, bx, 1]))
                    out["mean_b"].append(int(th[by, bx, 2]))
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    out = (
        ds.map_batches(synth, batch_format="pyarrow")
        .map_batches(blocks, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["doc_id", "by", "bx"]).reset_index(drop=True)


def _sql_q39() -> str:
    # pixel index i runs interleaved (y, x, channel); a 2x2 box mean is
    # sum // 4 exactly because box_resize divides by a power of two in
    # float64 (exact) and the uint8 cast truncates non-negatives
    return f"""
WITH px AS (
  SELECT d.doc_id,
         (g.i // 3) // {IMG_W} AS y, (g.i // 3) % {IMG_W} AS x,
         g.i % 3 AS ch,
         (d.doc_id * {_IMG_C1} + g.i * {_IMG_C2}) % 256 AS v
  FROM documents d, generate_series(0, {IMG_W * IMG_H * 3 - 1}) AS g(i)
)
SELECT doc_id, y // {IMG_BLOCK} AS by, x // {IMG_BLOCK} AS bx,
       CAST(sum(CASE WHEN ch = 0 THEN v ELSE 0 END)
            // {IMG_BLOCK * IMG_BLOCK} AS BIGINT) AS mean_r,
       CAST(sum(CASE WHEN ch = 1 THEN v ELSE 0 END)
            // {IMG_BLOCK * IMG_BLOCK} AS BIGINT) AS mean_g,
       CAST(sum(CASE WHEN ch = 2 THEN v ELSE 0 END)
            // {IMG_BLOCK * IMG_BLOCK} AS BIGINT) AS mean_b
FROM px
GROUP BY doc_id, y // {IMG_BLOCK}, x // {IMG_BLOCK}
ORDER BY doc_id, by, bx
"""


# ------------------------------------------------------------------ q40

SPAN_K = 4        # tokens per aligned chunk (the dedup span unit)
SPAN_HOT_DF = 2   # a chunk in >= this many distinct docs is a dup span


def q40_span_dedup(sf_dir: str):
    """Exact duplicate-SPAN removal (Lee et al. 2022, 'Deduplicating
    Training Data Makes Language Models Better', arXiv:2107.06499 —
    approximated on aligned non-overlapping k-token chunks, the
    shuffle-friendly form of exact substring dedup). Pass 1: per-doc
    DISTINCT chunk hashes -> coarse 64-way hash partitions -> vectorized
    pandas document-frequency count per partition (never Ray's per-key
    aggregate; df is complete within the owning partition) -> the hot
    set (df >= SPAN_HOT_DF) is SMALL by construction (it is the
    boilerplate) and broadcasts once via ray.put. Pass 2: a pure
    per-batch scrub — re-chunk, sorted-array membership probe per
    OCCURRENCE, per-doc removal counts via bincount; zero corpus
    shuffles. For a hot set too big to broadcast the same semantics
    fall out of an inverted-index join (see decontaminate_join).
    Emits (doc_id, n_chunks, n_removed, n_tokens_kept); the short tail
    (< k tokens) is never removed."""
    from wikicrawl.functions._cache import broadcast_cached

    ds = T(sf_dir, "documents", ["doc_id", "text"])

    def explode_distinct(t: pa.Table) -> pa.Table:
        di, gh, _, _ = F_dedup.chunk_hash_rows(t["text"].to_pylist(),
                                               SPAN_K)
        if len(gh) == 0:
            return pa.table({"gh": pa.array([], pa.int64()),
                             "__pb": pa.array([], pa.int64())})
        # per-doc distinct (the df is a DISTINCT-doc count)
        order = np.lexsort((gh, di))
        di, gh = di[order], gh[order]
        first = np.empty(len(di), dtype=bool)
        first[0] = True
        first[1:] = (di[1:] != di[:-1]) | (gh[1:] != gh[:-1])
        gh = gh[first]
        pb = (gh.view(np.uint64) % np.uint64(64)).view(np.int64)
        return pa.table({"gh": pa.array(gh), "__pb": pa.array(pb)})

    def bucket_hot(g: pd.DataFrame) -> pd.DataFrame:
        vc = g.groupby("gh", sort=False).size()
        return pd.DataFrame(
            {"gh": vc.index[vc >= SPAN_HOT_DF].to_numpy(np.int64)})

    hot = (ds.map_batches(explode_distinct, batch_format="pyarrow")
           .groupby("__pb").map_groups(bucket_hot, batch_format="pandas")
           .to_pandas())
    hot_ref = ray.put(np.sort(hot["gh"].to_numpy(np.int64)))

    def scrub(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        di, gh, n_tokens, n_chunks = F_dedup.chunk_hash_rows(
            t["text"].to_pylist(), SPAN_K)
        b = broadcast_cached(hot_ref, lambda a: a)  # sorted int64 hashes
        if len(b) and len(gh):
            idx = np.searchsorted(b, gh)
            idx[idx == len(b)] = 0
            hitm = b[idx] == gh
            n_removed = np.bincount(di, weights=hitm,
                                    minlength=len(ids)).astype(np.int64)
        else:
            n_removed = np.zeros(len(ids), dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(ids),
            "n_chunks": pa.array(n_chunks),
            "n_removed": pa.array(n_removed),
            "n_tokens_kept": pa.array(n_tokens - SPAN_K * n_removed),
        })

    out = ds.map_batches(scrub, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# The oracle groups by the chunk STRING itself (fully independent of the
# engine's md5 hashing); the engines agree unless md5-low-64 collides.
SQL_Q40 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
c AS (
  SELECT doc_id,
         array_to_string(
             ts[(t.ci * {SPAN_K} + 1):((t.ci + 1) * {SPAN_K})], ' ') AS chunk
  FROM toks, LATERAL unnest(generate_series(
      0, CAST(len(ts) // {SPAN_K} AS BIGINT) - 1)) AS t(ci)
),
hot AS (
  SELECT chunk FROM c GROUP BY chunk
  HAVING count(DISTINCT doc_id) >= {SPAN_HOT_DF}
),
rem AS (
  SELECT c.doc_id, count(*) AS n_removed
  FROM c JOIN hot USING (chunk) GROUP BY c.doc_id
)
SELECT t.doc_id,
       CAST(len(t.ts) // {SPAN_K} AS BIGINT) AS n_chunks,
       CAST(coalesce(r.n_removed, 0) AS BIGINT) AS n_removed,
       CAST(len(t.ts) - {SPAN_K} * coalesce(r.n_removed, 0)
            AS BIGINT) AS n_tokens_kept
FROM toks t LEFT JOIN rem r USING (doc_id)
ORDER BY doc_id
"""


# ------------------------------------------------------------------ q41

SEMDEDUP_THR_MICRO = 350000  # cosine micro-units; on the synthetic
# 64-dim embeddings this drops a non-trivial slice at every test scale
# (67/500 at sf0.001, 70/500 at sf0.01, 673/2000 at sf0.1) — real text
# embeddings would use ~0.95+; the RULE, not the constant, is under test


def q41_semdedup(sf_dir: str):
    """SemDeDup (arXiv:2303.09540): k-means-cluster the embedding space
    (the SAME deterministic quantized training as q23), then within each
    cluster drop every vector that is >= SEMDEDUP_THR_MICRO-cosine-similar
    to a lower-id cluster member. Emits the full keep/drop decision per
    vector so the oracle verifies the entire partition, not just counts.
    Clustering makes the candidate set per vector O(cluster), never
    O(corpus) — the property that makes embedding dedup feasible at
    100 TB where q19's label-blocked pairwise would have nothing to
    block on."""
    out = F_sim.semdedup(
        T(sf_dir, "embeddings", ["vec_id", "embedding"]),
        SEMDEDUP_THR_MICRO,
        n_centroids=IVF_N_CENTROIDS, train_sample=IVF_TRAIN_SAMPLE,
    ).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def _sql_q41() -> str:
    """q41 oracle: the shared q23 k-means/assignment CTE prefix, then the
    keep rule as a plain within-bucket self-join — fully independent of
    the engine's tiling/grouping mechanics."""
    sim = _SIM_MICRO_SQL.format(a="a.emb", b="b.emb")
    ctes = _ivf_bkt_ctes()
    ctes.append(f"""dup AS (SELECT DISTINCT b.vec_id FROM bkt b JOIN bkt a
  ON a.bucket = b.bucket AND a.vec_id < b.vec_id
  WHERE {sim} >= {SEMDEDUP_THR_MICRO})""")
    return ("WITH " + ",\n".join(ctes) + """
SELECT k.vec_id, CAST(k.bucket AS BIGINT) AS bucket,
       d.vec_id IS NULL AS keep
FROM bkt k LEFT JOIN dup d USING (vec_id)
ORDER BY k.vec_id
""")


# ------------------------------------------------------------------ q42

TFIDF_TOPK = 3


def q42_tfidf(sf_dir: str):
    """TF-IDF salient terms: top-3 terms per document by the integer-exact
    ``(tf * 1000 * n_docs) // df`` score (functions/textstats.tfidf_topk).
    df = ONE coarse-partition shuffle (q29 pattern) broadcast back via
    ray.put; scoring and the per-doc top-k run entirely inside
    map_batches — a document's tf vector never leaves its batch."""
    out = F_text.tfidf_topk(
        T(sf_dir, "documents", ["doc_id", "text"]), k=TFIDF_TOPK,
    ).to_pandas()
    return out.sort_values(["doc_id", "rank"]).reset_index(drop=True)


SQL_Q42 = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS term
  FROM documents
),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1),
n AS (SELECT count(*) AS nd FROM documents),
s AS (
  SELECT doc_id, term, tf, df, (tf * 1000 * nd) // df AS score_milli
  FROM tf JOIN df USING (term) CROSS JOIN n
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id
             ORDER BY score_milli DESC, term) AS rank
  FROM s
)
SELECT doc_id, term, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df,
       CAST(score_milli AS BIGINT) AS score_milli,
       CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {TFIDF_TOPK}
ORDER BY doc_id, rank
"""


# ------------------------------------------------------------------ q43

KNN_GRAPH_K = 3


def q43_knn_graph(sf_dir: str):
    """Cluster-restricted kNN graph: every vector's top-3 cosine
    neighbors within its IVF cluster (functions/similarity.knn_graph) —
    the all-rows sibling of q20/q23's few-query top-k, and the input
    graph for density/diversity-based corpus curation. One shuffle;
    per-cluster tiled matmuls."""
    out = F_sim.knn_graph(
        T(sf_dir, "embeddings", ["vec_id", "embedding"]), k=KNN_GRAPH_K,
        n_centroids=IVF_N_CENTROIDS, train_sample=IVF_TRAIN_SAMPLE,
    ).to_pandas()
    return out.sort_values(["vec_id", "rank"]).reset_index(drop=True)


def _sql_q43() -> str:
    """q43 oracle: shared k-means/assignment prefix + a within-bucket
    self-join ranked by (sim_micro DESC, neighbor_id)."""
    sim = _SIM_MICRO_SQL.format(a="a.emb", b="b.emb")
    ctes = _ivf_bkt_ctes()
    ctes.append(f"""pairs AS (
  SELECT a.vec_id, b.vec_id AS neighbor_id, {sim} AS sim_micro,
         row_number() OVER (PARTITION BY a.vec_id
            ORDER BY {sim} DESC, b.vec_id) AS rank
  FROM bkt a JOIN bkt b
    ON a.bucket = b.bucket AND a.vec_id != b.vec_id)""")
    return ("WITH " + ",\n".join(ctes) + f"""
SELECT vec_id, neighbor_id, sim_micro, CAST(rank AS BIGINT) AS rank
FROM pairs WHERE rank <= {KNN_GRAPH_K}
ORDER BY vec_id, rank
""")


# ------------------------------------------------------------------ q44


def q44_image_exact_dedup(sf_dir: str):
    """EXACT image dedup through the REAL PNG codec: the q39 synthetic
    images round-trip png_encode -> png_decode, each image is
    fingerprinted as md5-low-64 of its raw pixel buffer, and identical
    images group under ONE hash-partition shuffle (all rows of a
    fingerprint land in the same partition; group-min + canonical flag
    are vectorized pandas within it). Emits
    (doc_id, img_group = min doc_id with identical pixels, is_canonical).

    The oracle is the closed FORM of the synth rule, not the codec:
    pixel(doc, i) = (doc * C1 + i * C2) % 256 with C1 odd, so two docs
    render identical images iff doc_id ≡ doc_id' (mod 256) — the SQL
    twin partitions by doc_id % 256 and never touches a byte. The
    engine, by contrast, earns every row through encode/decode/hash —
    any codec or fingerprint bug breaks parity."""
    from wikicrawl import codec

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        v = ((ids[:, None] * _IMG_C1 + idx[None, :] * _IMG_C2) % 256
             ).astype(np.uint8)
        pngs = [codec.png_encode(row.reshape(IMG_H, IMG_W, 3)) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(pngs, pa.binary())})

    def fingerprint(t: pa.Table) -> pa.Table:
        import hashlib

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        hs = np.fromiter(
            (int.from_bytes(
                hashlib.md5(codec.png_decode(b).tobytes()).digest()[:8],
                "little") for b in t["bytes"].to_pylist()),
            dtype=np.uint64, count=len(ids)).view(np.int64)
        pb = (hs.view(np.uint64) % np.uint64(64)).view(np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "ihash": pa.array(hs), "__pb": pa.array(pb)})

    def groups(g: pd.DataFrame) -> pd.DataFrame:
        gmin = g.groupby("ihash", sort=False)["doc_id"].transform("min")
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "img_group": gmin.to_numpy(np.int64),
            "is_canonical": (g["doc_id"] == gmin).to_numpy(),
        })

    out = (ds.map_batches(synth, batch_format="pyarrow")
           .map_batches(fingerprint, batch_format="pyarrow")
           .groupby("__pb").map_groups(groups, batch_format="pandas")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q44 = """
SELECT doc_id,
       min(doc_id) OVER (PARTITION BY doc_id % 256) AS img_group,
       doc_id = min(doc_id) OVER (PARTITION BY doc_id % 256)
         AS is_canonical
FROM documents
ORDER BY doc_id
"""


# ------------------------------------------------------------------ q45


def q45_global_shuffle(sf_dir: str):
    """Deterministic global corpus shuffle with exact contiguous ranks
    (functions/streaming.global_shuffle_rank): md5 shuffle key, 256
    ordered range buckets, per-bucket counts prefix-summed on the driver
    (256 ints), ONE groupby shuffle, vectorized in-bucket sort. The
    oracle is a single window row_number over the same unsigned-compared
    hash — the engine's two-pass decomposition must reproduce it rank
    for rank."""
    from wikicrawl.functions import streaming as F_stream

    out = F_stream.global_shuffle_rank(
        T(sf_dir, "documents", ["doc_id"]), id_col="doc_id",
    ).to_pandas()
    return out.sort_values("rank").reset_index(drop=True)


SQL_Q45 = """
SELECT doc_id,
       row_number() OVER (
         ORDER BY md5_number_upper(CAST(doc_id AS VARCHAR)), doc_id
       ) - 1 AS rank
FROM documents
ORDER BY rank
"""


# ------------------------------------------------------------------ q47


def q47_group_quantiles(sf_dir: str):
    """EXACT per-GROUP distributed quantiles (per-language length
    distribution) — q32's histogram trick keyed by (lang, value): counts
    merge in O(groups x distinct values) shuffle volume, the driver
    cumsums per group and reads off the same discrete ceil-rank rule.
    Never sorts the corpus; never a per-key Ray aggregate."""
    ds = T(sf_dir, "documents", ["lang", "text"])
    n_parts = 16

    def value_counts(t: pa.Table) -> pa.Table:
        n_chars = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy()
        df = pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "n_chars": n_chars,
        })
        vc = (df.groupby(["lang", "n_chars"], sort=False).size()
              .rename("cnt").reset_index())
        return pa.table({
            "lang": pa.array(vc["lang"].to_numpy()),
            "n_chars": pa.array(vc["n_chars"].to_numpy(np.int64)),
            "cnt": pa.array(vc["cnt"].to_numpy(np.int64)),
            "__b": pa.array((vc["n_chars"].to_numpy() % n_parts)
                            .astype(np.int64)),
        })

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["lang", "n_chars"], sort=False)["cnt"].sum()
                .reset_index())

    hist = (
        ds.map_batches(value_counts, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(merge_counts, batch_format="pandas")
        .to_pandas()
        .sort_values(["lang", "n_chars"])
        .reset_index(drop=True)
    )
    rows = []
    for lang, g in hist.groupby("lang", sort=True):
        cum = g["cnt"].cumsum().to_numpy()
        n = int(cum[-1]) if len(cum) else 0
        vals = g["n_chars"].to_numpy()
        for qm in QUANTILES_MILLI:
            rank = -(-qm * n // 1000)  # ceil(q*n/1000)
            idx = int(np.searchsorted(cum, rank))
            rows.append((lang, qm, int(vals[idx])))
    return pd.DataFrame(rows, columns=["lang", "q_milli", "n_chars"])


SQL_Q47 = f"""
WITH s AS (
  SELECT lang, length(text) AS n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY length(text)) AS rn,
         count(*) OVER (PARTITION BY lang) AS n
  FROM documents
),
q AS (SELECT unnest(ARRAY{QUANTILES_MILLI}) AS q_milli)
SELECT s.lang, CAST(q.q_milli AS BIGINT) AS q_milli, min(s.n_chars) AS n_chars
FROM q JOIN s ON s.rn = CAST(ceil(q.q_milli * s.n / 1000.0) AS BIGINT)
GROUP BY s.lang, q.q_milli
ORDER BY lang, q_milli
"""


# ------------------------------------------------------------------ q46

MIX_W_MOD = 4  # weight rule: w(source) = numeric suffix % MIX_W_MOD + 1


def q46_mixture_resample(sf_dir: str):
    """Corpus MIXTURE resampling: given integer target weights per source
    (here derived from the source id so the oracle can recompute them),
    pick the LARGEST total T such that every source can supply its share
    ``k_s = (w_s * T) // W``, then keep each source's k_s docs with the
    smallest md5 hash — the deterministic form of "sample sources to a
    target mixture", all in int64.

    Scale shape: source counts are a tiny groupby (|sources| rows); the
    driver computes the 20-entry quota dict; selection is ONE
    groupby(source) shuffle with a vectorized per-source (hash, id) sort
    + head(k_s). A source's rows co-locate in one partition (same
    documented caveat as q30 sessionization); for a source too big for
    one partition the quota threshold generalizes to the two-pass
    histogram selection used by q32's exact quantiles."""
    from wikicrawl.functions import dedup as F_dedup

    ds = T(sf_dir, "documents", ["doc_id", "source"])
    counts = ds.groupby("source").aggregate(Count()).to_pandas()
    counts.columns = ["source", "c"]
    w = counts["source"].str.slice(3).astype(int) % MIX_W_MOD + 1
    W = int(w.sum())
    T_max = int(np.min(counts["c"].to_numpy(np.int64) * W // w.to_numpy()))
    quota = {s: int(wi * T_max) // W
             for s, wi in zip(counts["source"], w)}

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        k = quota.get(g["source"].iloc[0], 0)
        ids = g["doc_id"].to_numpy(np.int64)
        h = np.array([F_dedup.token_hash_u64(str(int(i))) for i in ids],
                     dtype=np.uint64)
        order = np.lexsort((ids, h))[:k]
        return pd.DataFrame({"doc_id": ids[order],
                             "source": g["source"].to_numpy()[order]})

    out = (ds.groupby("source").map_groups(pick, batch_format="pandas")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q46 = f"""
WITH c AS (
  SELECT source, count(*) AS c,
         CAST(substr(source, 4) AS INT) % {MIX_W_MOD} + 1 AS w
  FROM documents GROUP BY source
),
tot AS (SELECT sum(w) AS wsum FROM c),
tmax AS (SELECT min(c.c * tot.wsum // c.w) AS tmax FROM c, tot),
k AS (SELECT source, (w * tmax) // wsum AS k_s FROM c, tot, tmax),
r AS (
  SELECT doc_id, source, row_number() OVER (PARTITION BY source
    ORDER BY md5_number_upper(CAST(doc_id AS VARCHAR)), doc_id) AS rn
  FROM documents
)
SELECT doc_id, source FROM r JOIN k USING (source)
WHERE rn <= k_s
ORDER BY doc_id
"""


# ------------------------------------------------------------------ q48


def q48_json_extract(sf_dir: str):
    """Semi-structured extraction: parse the integer ``k`` field out of
    the events table's JSON ``props`` column with the SAME RE2 automaton
    on both sides (Arrow ``extract_regex`` / DuckDB ``regexp_extract`` —
    both compile RE2, so extraction is bit-identical), then a small
    per-k aggregate. Row values go integer (cents) BEFORE the sum so the
    aggregate is order-independent int64 — the float-discipline rule."""
    ds = T(sf_dir, "events", ["event_type", "value", "props"])

    def extract(t: pa.Table) -> pa.Table:
        st = pc.extract_regex(t["props"], r'"k": (?P<k>[0-9]+)')
        k = pc.cast(pc.struct_field(st, "k"), pa.int64())
        cents = pa.array(round_half_away(
            t["value"].to_numpy(zero_copy_only=False), 100))
        return pa.table({"k": k, "cents": cents,
                         "event_type": t["event_type"]})

    out = (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Count(alias_name="n"),
                   Sum("cents", alias_name="sum_cents"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out["sum_cents"] = out["sum_cents"].astype("int64")
    return out.sort_values("k").reset_index(drop=True)


SQL_Q48 = """
SELECT CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT) AS k,
       count(*) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events
GROUP BY 1
ORDER BY k
"""


# ------------------------------------------------------------------ q49


def q49_incremental_dedup(sf_dir: str):
    """INCREMENTAL ingestion dedup: new documents (odd doc_id — the
    arriving batch) are dropped when their content md5 already exists in
    the frozen prior corpus (even doc_id); see
    ``dedup.incremental_dedup``. The oracle anti-joins on the text
    STRING itself, fully independent of the engine's hashing. The
    testdata plants cross-parity duplicates only at sf0.1 (4 dropped);
    the drop path at tiny scale is pinned by a planted-duplicate unit
    test (test_functions.py)."""
    out = F_dedup.incremental_dedup(
        T(sf_dir, "documents", ["doc_id", "text"])).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q49 = """
SELECT d.doc_id FROM documents d
WHERE d.doc_id % 2 = 1
  AND NOT EXISTS (SELECT 1 FROM documents o
                  WHERE o.doc_id % 2 = 0 AND o.text = d.text)
ORDER BY d.doc_id
"""


# ------------------------------------------------------------------ q50


def q50_bigram_lm(sf_dir: str):
    """Bigram-LM quality scoring (the CCNet-style perplexity filter,
    integer-exact): per-doc mean of ``(count(w1 w2)*1000)//count(w1·)``
    over its adjacent token pairs — see
    :func:`wikicrawl.functions.textstats.bigram_lm_scores` for the
    three-co-partitioned-shuffle scale shape (the corpus bigram table is
    never broadcast or driver-materialized, unlike q42's unigram df)."""
    out = F_text.bigram_lm_scores(
        T(sf_dir, "documents", ["doc_id", "text"])).to_pandas()
    out = out[["doc_id", "n_bigrams", "lm_milli"]]
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q50 = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
occ AS (
  SELECT doc_id,
         md5_number_upper(ts[i]) AS w1h,
         md5_number_upper(ts[i] || ' ' || ts[i+1]) AS bh
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - 1)) AS t(i)
),
uni AS (SELECT w1h, count(*) AS cu FROM occ GROUP BY 1),
bi  AS (SELECT bh, count(*) AS cb FROM occ GROUP BY 1),
sc AS (
  SELECT o.doc_id, (b.cb * 1000) // u.cu AS s
  FROM occ o JOIN uni u USING (w1h) JOIN bi b USING (bh)
)
SELECT doc_id, count(*) AS n_bigrams,
       CAST(sum(s) // count(*) AS BIGINT) AS lm_milli
FROM sc GROUP BY doc_id ORDER BY doc_id
"""


# ------------------------------------------------------------------ q51

AHASH_MAX_HAMMING = 2  # < 4 => exact under the 16-bit pigeonhole bands


def _image_ahash_fps(sf_dir: str):
    """Shared q51/q61 fingerprint pipeline: synthesize the deterministic
    q39 PNGs, round-trip the REAL codec, and emit the 8x8 average-hash
    per image -> Dataset (doc_id, ahash). See q51's docstring for the
    hash definition (cross-multiplied mean compare, no division)."""
    from wikicrawl import codec

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        v = ((ids[:, None] * _IMG_C1 + idx[None, :] * _IMG_C2) % 256
             ).astype(np.uint8)
        pngs = [codec.png_encode(row.reshape(IMG_H, IMG_W, 3)) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(pngs, pa.binary())})

    w_bits = np.uint64(1) << np.arange(IMG_W * IMG_H, dtype=np.uint64)

    def ahash(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        fps = np.empty(len(ids), dtype=np.uint64)
        for i, b in enumerate(t["bytes"].to_pylist()):
            px = codec.png_decode(b).astype(np.int64)   # real decode
            gray = px.sum(axis=2).ravel() // 3          # pixel p = y*W + x
            bits = (gray * 64) >= gray.sum()
            fps[i] = (bits.astype(np.uint64) * w_bits).sum()
        return pa.table({"doc_id": pa.array(ids),
                         "ahash": pa.array(fps.view(np.int64))})

    return (ds.map_batches(synth, batch_format="pyarrow")
            .map_batches(ahash, batch_format="pyarrow"))


def q51_image_ahash_dups(sf_dir: str):
    """Perceptual-hash image NEAR-dup pairs through the REAL PNG codec:
    the q39/q44 synthetic images round-trip png_encode → png_decode, each
    decodes to an 8x8 average-hash (bit p = pixel p's integer gray
    ``(r+g+b)//3`` at-or-above the image mean, compared cross-multiplied
    ``gray*64 >= sum(gray)`` so no division ever happens), and pairs at
    hamming ≤ 2 come from the shared size-switched band-probe machinery
    (:func:`wikicrawl.functions.dedup.hamming_dup_pairs` — exact by
    pigeonhole, same engine as q22 text SimHash and the maintenance
    phash op). Unlike q44's exact grouping this catches NEAR-identical
    renders; the oracle recomputes every fingerprint from the pixel
    closed form and takes the full O(n^2) bit_count(xor(..)) self-join —
    the engine earns each pair through the codec and the banded shuffle."""
    fps = _image_ahash_fps(sf_dir)
    out = F_dedup.hamming_dup_pairs(
        fps, max_hamming=AHASH_MAX_HAMMING,
        id_col="doc_id", hash_col="ahash").to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


_SQL_Q51_FP = f"""
px AS (
  SELECT d.doc_id, g.p AS p,
         (((d.doc_id * {_IMG_C1} + (g.p * 3 + 0) * {_IMG_C2}) % 256)
        + ((d.doc_id * {_IMG_C1} + (g.p * 3 + 1) * {_IMG_C2}) % 256)
        + ((d.doc_id * {_IMG_C1} + (g.p * 3 + 2) * {_IMG_C2}) % 256)) // 3
           AS gray
  FROM documents d, generate_series(0, {IMG_W * IMG_H - 1}) AS g(p)
),
fp AS (
  SELECT doc_id,
         CAST(s - CASE WHEN s >= 9223372036854775808::HUGEINT
                  THEN 18446744073709551616::HUGEINT ELSE 0 END AS BIGINT)
           AS ahash
  FROM (
    SELECT doc_id,
           sum(CASE WHEN gray * 64 >= tg
                    THEN CAST(1 AS HUGEINT) << p ELSE 0 END) AS s
    FROM (SELECT doc_id, p, gray,
                 sum(gray) OVER (PARTITION BY doc_id) AS tg FROM px)
    GROUP BY doc_id
  )
)"""

SQL_Q51 = f"""
WITH {_SQL_Q51_FP}
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.ahash, b.ahash)) AS BIGINT) AS hamming
FROM fp a JOIN fp b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.ahash, b.ahash)) <= {AHASH_MAX_HAMMING}
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q52


def q52_window_functions(sf_dir: str):
    """Per-key ordered window functions over the event stream — rank,
    lag-delta, running sum (:func:`wikicrawl.functions.streaming.
    windowed_lag_rank`): ONE hash-partition shuffle, whole key groups per
    bucket, vectorized kernels; the value goes integer milli BEFORE the
    cumulative sum so the aggregate is order-independent int64."""
    from wikicrawl.functions import streaming as F_stream

    out = F_stream.windowed_lag_rank(
        T(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
        key_col="user_id", ts_col="ts", id_col="event_id", val_col="value",
    ).to_pandas()
    return out.sort_values(["user_id", "rn"]).reset_index(drop=True)


SQL_Q52 = """
SELECT event_id, user_id,
       CAST(row_number() OVER w AS BIGINT) AS rn,
       CAST(coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER w, 0) AS BIGINT)
         AS delta_us,
       CAST(sum(CAST(floor(value * 1000 + 0.5) AS BIGINT)) OVER (
              PARTITION BY user_id ORDER BY ts, event_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
         AS cum_milli
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
ORDER BY user_id, rn
"""


# ------------------------------------------------------------------ q53


def q53_hll_distinct(sf_dir: str):
    """Distinct-token cardinality by HyperLogLog vs the exact count —
    the constant-memory sketch a 100-TB corpus statistic actually uses
    (:mod:`wikicrawl.functions.sketch`): 256 integer-exact registers
    (md5-low-64 hash, bucket = low 8 bits, rho = 57 - bit_length), raw
    estimate evaluated as ONE integer expression so the DuckDB twin
    recomputes the sketch AND the estimate bit-for-bit. The exact side
    is a vocabulary-partitioned distinct count (q29's ownership
    pattern). Output: a single row (m, est_distinct, exact_distinct,
    err_milli) — the estimate depends on every register, so the value
    hash certifies the whole sketch."""
    from wikicrawl.functions import sketch as F_sketch

    ds = T(sf_dir, "documents", ["text"])
    regs = F_sketch.hll_registers(ds, "text")
    est = F_sketch.hll_estimate(regs)

    def uniq_hashes(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for txt in t["text"].to_pylist():
            toks.extend(F_dedup.tokenize(txt))
        if not toks:
            return pa.table({"th": pa.array([], pa.int64()),
                             "__b": pa.array([], pa.int64())})
        uniq = np.unique(np.array(toks, dtype=object))
        hs = np.array([F_dedup.token_hash_u64(x) for x in uniq],
                      dtype=np.uint64)
        return pa.table({
            "th": pa.array(hs.view(np.int64)),
            "__b": pa.array((hs % np.uint64(16)).view(np.int64)),
        })

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [np.int64(g["th"].nunique())]})

    exact = int(
        T(sf_dir, "documents", ["text"])
        .map_batches(uniq_hashes, batch_format="pyarrow")
        .groupby("__b").map_groups(count_distinct, batch_format="pandas")
        .to_pandas()["n"].sum())
    err = (abs(est - exact) * 1000) // exact
    return pd.DataFrame({
        "m": [np.int64(F_sketch.HLL_M)],
        "est_distinct": [np.int64(est)],
        "exact_distinct": [np.int64(exact)],
        "err_milli": [np.int64(err)],
    })


SQL_Q53 = """
WITH toks AS (
  SELECT regexp_extract_all(text, '\\S+') AS ts FROM documents
),
h AS (
  SELECT DISTINCT md5_number_upper(ts[i]) AS hu
  FROM toks, LATERAL unnest(generate_series(1, len(ts))) AS t(i)
),
reg AS (
  SELECT CAST(hu % 256 AS BIGINT) AS bucket,
         max(CASE WHEN hu // 256 = 0 THEN 57
                  ELSE 57 - length(bin((hu // 256)::UBIGINT)) END) AS rho
  FROM h GROUP BY 1
),
full_reg AS (
  SELECT coalesce(reg.rho, 0) AS rho
  FROM generate_series(0, 255) AS g(b) LEFT JOIN reg ON reg.bucket = g.b
),
top AS (SELECT max(rho) AS rtop FROM full_reg),
s AS (
  SELECT any_value(t.rtop) AS rtop,
         sum(1::HUGEINT << (t.rtop - f.rho)) AS sv
  FROM full_reg f CROSS JOIN top t
),
est AS (
  SELECT CAST((1846528::HUGEINT * 256 * 256 * (1::HUGEINT << rtop))
              // (2570790::HUGEINT * sv) AS BIGINT) AS est_distinct
  FROM s
)
SELECT CAST(256 AS BIGINT) AS m, est_distinct,
       (SELECT count(*) FROM h) AS exact_distinct,
       CAST(abs(est_distinct - (SELECT count(*) FROM h)) * 1000
            // (SELECT count(*) FROM h) AS BIGINT) AS err_milli
FROM est
"""


# ------------------------------------------------------------------ q54

from wikicrawl.functions.sketch import CMS_D as _CMS_D  # noqa: E402
from wikicrawl.functions.sketch import CMS_W as _CMS_W  # noqa: E402

CMS_TOPK = 20


def q54_cms_heavy_hitters(sf_dir: str):
    """Heavy hitters through a Count-Min sketch: build the d=4 x w=1024
    integer CMS over all token occurrences (constant-size per-batch
    partials, one O(d*w)-row merge — :func:`wikicrawl.functions.sketch.
    count_min_cells`), find the true top-20 tokens by an exact
    vocabulary-partitioned count (q29's ownership pattern), and report
    each one's sketch estimate next to its true count. ``est_cnt >=
    true_cnt`` always (the CMS one-sided guarantee — asserted here);
    ``over_milli`` is the relative overestimate. The oracle recomputes
    the full sketch cell-by-cell in SQL."""
    from wikicrawl.functions import sketch as F_sketch

    cells = F_sketch.count_min_cells(T(sf_dir, "documents", ["text"]),
                                     "text")

    def tok_counts(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for txt in t["text"].to_pylist():
            toks.extend(F_dedup.tokenize(txt))
        if not toks:
            return pa.table({"tok": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64()),
                             "__b": pa.array([], pa.int64())})
        uniq, cnt = np.unique(np.array(toks, dtype=object),
                              return_counts=True)
        hs = np.array([F_dedup.token_hash_u64(x) for x in uniq],
                      dtype=np.uint64)
        return pa.table({
            "tok": pa.array(uniq.astype(str)),
            "cnt": pa.array(cnt.astype(np.int64)),
            "__b": pa.array((hs % np.uint64(16)).view(np.int64)),
        })

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        df = (g.groupby("tok", sort=False)["cnt"].sum().reset_index())
        hu = np.array([F_dedup.token_hash_u64(x) for x in df["tok"]],
                      dtype=np.uint64)
        df["__hu"] = hu            # unsigned tie-break, like the SQL
        df = df.sort_values(["cnt", "__hu"], ascending=[False, True],
                            kind="mergesort")
        return df.head(CMS_TOPK)

    top = (T(sf_dir, "documents", ["text"])
           .map_batches(tok_counts, batch_format="pyarrow")
           .groupby("__b").map_groups(bucket_topk, batch_format="pandas")
           .to_pandas())
    top = (top.sort_values(["cnt", "__hu"], ascending=[False, True],
                           kind="mergesort").head(CMS_TOPK)
           .reset_index(drop=True))
    est = np.array([F_sketch.cms_estimate(cells, t_) for t_ in top["tok"]],
                   dtype=np.int64)
    true = top["cnt"].to_numpy(np.int64)
    assert (est >= true).all(), "CMS one-sided guarantee violated"
    return pd.DataFrame({
        "tok": top["tok"],
        "th": top["__hu"].to_numpy().view(np.int64),
        "true_cnt": true,
        "est_cnt": est,
        "over_milli": ((est - true) * 1000) // true,
    })


SQL_Q54 = f"""
WITH toks AS (
  SELECT regexp_extract_all(text, '\\S+') AS ts FROM documents
),
occ AS (
  SELECT ts[i] AS tok
  FROM toks, LATERAL unnest(generate_series(1, len(ts))) AS t(i)
),
cnt AS (SELECT tok, count(*) AS c FROM occ GROUP BY 1),
cells AS (
  SELECT r.r AS r,
         md5_number_upper(CAST(r.r AS VARCHAR) || ':' || tok)
           % {_CMS_W} AS col,
         sum(c) AS cell
  FROM cnt CROSS JOIN range({_CMS_D}) AS r(r)
  GROUP BY 1, 2
),
top AS (
  SELECT tok, c, md5_number_upper(tok) AS hu FROM cnt
  ORDER BY c DESC, hu ASC LIMIT {CMS_TOPK}
),
est AS (
  SELECT t.tok, t.hu, t.c AS true_cnt, min(cl.cell) AS est_cnt
  FROM top t JOIN cells cl
    ON cl.col = md5_number_upper(CAST(cl.r AS VARCHAR) || ':' || t.tok)
               % {_CMS_W}
  GROUP BY 1, 2, 3
)
SELECT tok,
       CAST(hu - CASE WHEN hu >= 9223372036854775808
                 THEN 18446744073709551616 ELSE 0 END AS BIGINT) AS th,
       true_cnt, CAST(est_cnt AS BIGINT) AS est_cnt,
       CAST((est_cnt - true_cnt) * 1000 // true_cnt AS BIGINT) AS over_milli
FROM est ORDER BY true_cnt DESC, hu ASC
"""


# ------------------------------------------------------------------ q55


# parity-test hook: force q55's edge build down the co-partitioned
# hash-join fallback (the at-scale path) instead of the broadcast lookup
_FORCE_HASH_JOIN_EDGES = False


def q55_pagerank(sf_dir: str):
    """Integer-exact damped PageRank over the customer→supplier purchase
    graph (distinct (o_custkey, l_suppkey) edges through the orders ⋈
    lineitem join; node id = 2*custkey / 2*suppkey+1 to disambiguate the
    key spaces). 5 Lloyd-style unrolled iterations, every operation an
    int64 floor-divide — see :func:`wikicrawl.functions.graph.pagerank`
    for the two-shuffles-per-round scale shape and the dangling-mass
    partial-row trick. The oracle unrolls all 5 iterations as CTEs (the
    q23 k-means precedent). Suppliers are pure sinks here, so the
    dangling redistribution term is exercised on every iteration."""
    def keyed(col_key: str, col_val: str, name: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"ok": t[col_key], name: t[col_val]})
        return fn

    o = T(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        keyed("o_orderkey", "o_custkey", "cust"), batch_format="pyarrow")
    li = T(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"]).map_batches(
        keyed("l_orderkey", "l_suppkey", "supp"), batch_format="pyarrow")

    # size-switched edge build (the q69 planner rule): orders is a 2-int
    # dimension keyed UNIQUELY by o_orderkey — if it fits the broadcast
    # limit, ship it once via ray.put and annotate lineitem in a
    # zero-shuffle validated searchsorted lookup (absent okey drops the
    # row, inner-join semantics); else the co-partitioned hash join.
    # Measured at sf0.1: 7.0 s (generic hash_join) -> ~1.5 s.
    o = o.materialize()
    osize = o.size_bytes()
    if not _FORCE_HASH_JOIN_EDGES and osize is not None \
            and osize <= 256 << 20:
        o_ref = ray.put(pa.concat_tables(
            [ray.get(r) for r in o.to_arrow_refs()]).combine_chunks())

        def _sorted_ok(tbl: pa.Table):
            keys = tbl["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(keys, kind="stable")
            return (keys[order],
                    tbl["cust"].to_numpy(zero_copy_only=False)
                    .astype(np.int64)[order])

        def li_to_edges(t: pa.Table) -> pa.Table:
            from wikicrawl.functions._cache import broadcast_cached

            keys, cust = broadcast_cached(o_ref, _sorted_ok)
            ok = t["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
            s = t["supp"].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(keys) == 0 or len(ok) == 0:
                return pa.table({"src": pa.array([], pa.int64()),
                                 "dst": pa.array([], pa.int64())})
            pos = np.minimum(np.searchsorted(keys, ok), len(keys) - 1)
            keep = np.flatnonzero(keys[pos] == ok)
            return pa.table({
                "src": pa.array(cust[pos[keep]] * 2),
                "dst": pa.array(s[keep] * 2 + 1),
            })

        edges = li.map_batches(li_to_edges, batch_format="pyarrow")
    else:
        def to_edges(t: pa.Table) -> pa.Table:
            c = t["cust"].to_numpy(zero_copy_only=False).astype(np.int64)
            s = t["supp"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"src": pa.array(c * 2),
                             "dst": pa.array(s * 2 + 1)})

        edges = F_joins.hash_join(o, li, on="ok").map_batches(
            to_edges, batch_format="pyarrow")
    out = F_graph.pagerank(edges, n_buckets=16).to_pandas()
    out = out.rename(columns={"r": "pr"})
    return out.sort_values("node").reset_index(drop=True)


def _q55_sql() -> str:
    scale = "1000000000000::HUGEINT"
    ncnt = "(SELECT n FROM ncnt)"
    parts = [f"""edges AS (
  SELECT DISTINCT o_custkey * 2 AS src, l_suppkey * 2 + 1 AS dst
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
),
nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
ncnt AS (SELECT count(*) AS n FROM nodes),
deg AS (SELECT src AS node, count(*) AS d FROM edges GROUP BY 1),
r0 AS (SELECT node, {scale} // {ncnt} AS r FROM nodes)"""]
    for k in range(5):
        parts.append(f"""dang{k} AS (
  SELECT coalesce(sum(r.r), 0) AS dm
  FROM r{k} r LEFT JOIN deg d ON d.node = r.node WHERE d.d IS NULL
),
inc{k} AS (
  SELECT e.dst AS node, sum(r.r // d.d) AS s
  FROM edges e JOIN r{k} r ON r.node = e.src
  JOIN deg d ON d.node = e.src GROUP BY 1
),
r{k + 1} AS (
  SELECT n.node,
         (15 * {scale}) // (100 * {ncnt})
         + (85 * (coalesce(i.s, 0) + (SELECT dm FROM dang{k}) // {ncnt}))
           // 100 AS r
  FROM nodes n LEFT JOIN inc{k} i ON i.node = n.node
)""")
    return ("WITH " + ",\n".join(parts)
            + "\nSELECT node, CAST(r AS BIGINT) AS pr FROM r5 ORDER BY node")


SQL_Q55 = _q55_sql()


# ------------------------------------------------------------------ q56


def q56_group_linreg(sf_dir: str):
    """Per-user OLS trend of event value over time (grouped regression —
    drift detection as a streaming aggregate). Integer-exact: x =
    seconds since the user's first event, y = milli value, int64
    moments, sign-split divides (DuckDB ``//`` truncates toward zero,
    Python floors — they agree only on non-negatives). See
    :func:`wikicrawl.functions.streaming.group_linreg`: ONE
    hash-partition shuffle, vectorized moments, O(#keys) exact bigint
    slope arithmetic (the oracle's HUGEINT twin)."""
    from wikicrawl.functions import streaming as F_stream

    out = F_stream.group_linreg(
        T(sf_dir, "events", ["user_id", "ts", "value"]),
        key_col="user_id", ts_col="ts", val_col="value").to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


SQL_Q56 = """
WITH e AS (
  SELECT user_id, epoch_us(ts) AS tu,
         CAST(floor(value * 1000 + 0.5) AS HUGEINT) AS y
  FROM events
),
c AS (
  SELECT user_id,
         (tu - min(tu) OVER (PARTITION BY user_id)) // 1000000 AS x, y
  FROM e
),
m AS (
  SELECT user_id, count(*)::HUGEINT AS n, sum(x)::HUGEINT AS sx,
         sum(y) AS sy, sum(x * y) AS sxy,
         sum(x::HUGEINT * x) AS sxx
  FROM c GROUP BY 1
)
SELECT user_id, CAST(n AS BIGINT) AS n,
  CAST(CASE WHEN n * sxy - sx * sy >= 0
       THEN (n * sxy - sx * sy) * 1000000 // (n * sxx - sx * sx)
       ELSE -((-(n * sxy - sx * sy)) * 1000000 // (n * sxx - sx * sx))
       END AS BIGINT) AS slope_micro,
  CAST(CASE WHEN sy >= 0 THEN sy // n ELSE -((-sy) // n) END AS BIGINT)
    AS mean_y_milli
FROM m
WHERE n >= 2 AND n * sxx - sx * sx > 0
ORDER BY user_id
"""


# ------------------------------------------------------------------ q57

COLLOC_TOPK = 25
COLLOC_MIN_SUP = 5


def q57_collocations(sf_dir: str):
    """Collocation mining: top-25 adjacent token bigrams by support,
    scored with the integer LIFT (the log-free PMI used when the SQL
    twin must be bit-exact): ``lift_milli = (cb * N_tok^2 * 1000) //
    (N_big * c1 * c2)`` — association strength of the pair vs
    independence. Scale shape: bigram counts are complete within their
    hash partition (q29's ownership pattern) so the support top-k is
    per-partition exact; the <= 50 survivor token counts come from ONE
    probe pass with the hash set broadcast in the task closure; the
    >int64 lift arithmetic runs on <= 25 driver rows in Python bigints
    (the oracle's HUGEINT twin)."""
    n_parts = 16

    def explode_bi(t: pa.Table) -> pa.Table:
        w1h: list[int] = []
        w2h: list[int] = []
        bh: list[int] = []
        n_tok = 0
        n_big = 0
        for txt in t["text"].to_pylist():
            toks = F_dedup.tokenize(txt)
            n_tok += len(toks)
            m = len(toks) - 1
            if m <= 0:
                continue
            n_big += m
            hs = [F_dedup.token_hash_u64(x) for x in toks]
            w1h.extend(hs[:-1])
            w2h.extend(hs[1:])
            bh.extend(F_dedup.token_hash_u64(toks[j] + " " + toks[j + 1])
                      for j in range(m))
        # one SENTINEL row per batch (real=0) carries the batch's token /
        # bigram totals — present even when the batch has no bigrams
        # (single-token docs still count toward N_tok, as in the oracle)
        bhu = np.r_[np.array(bh, dtype=np.uint64), np.uint64(0)]
        w1a = np.r_[np.array(w1h, dtype=np.uint64), np.uint64(0)]
        w2a = np.r_[np.array(w2h, dtype=np.uint64), np.uint64(0)]
        real = np.r_[np.ones(len(bh), dtype=np.int8), np.int8(0)]
        nt_col = np.zeros(len(bhu), dtype=np.int64)
        nb_col = np.zeros(len(bhu), dtype=np.int64)
        nt_col[-1] = n_tok
        nb_col[-1] = n_big
        return pa.table({
            "w1h": pa.array(w1a.view(np.int64)),
            "w2h": pa.array(w2a.view(np.int64)),
            "bh": pa.array(bhu.view(np.int64)),
            "__b": pa.array((bhu % np.uint64(n_parts)).view(np.int64)),
            "real": pa.array(real),
            "nt": pa.array(nt_col),
            "nb": pa.array(nb_col),
        })

    def bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        nt_sum = np.int64(g["nt"].sum())
        nb_sum = np.int64(g["nb"].sum())
        rg = g[g["real"] == 1]
        agg = (rg.groupby(["bh", "w1h", "w2h"], sort=False)
               .size().rename("cb").reset_index())
        keep = agg[agg["cb"] >= COLLOC_MIN_SUP].copy()
        keep["__hu"] = keep["bh"].to_numpy().view(np.uint64)
        keep = keep.sort_values(["cb", "__hu"], ascending=[False, True],
                                kind="mergesort").head(COLLOC_TOPK)
        # bucket totals survive the cut on one sentinel row (cb = 0)
        sent = pd.DataFrame({"bh": [0], "w1h": [0], "w2h": [0], "cb": [0],
                             "__hu": np.array([0], dtype=np.uint64)})
        out = pd.concat([keep, sent], ignore_index=True)
        out["nt"] = np.r_[np.zeros(len(keep), dtype=np.int64), nt_sum]
        out["nb"] = np.r_[np.zeros(len(keep), dtype=np.int64), nb_sum]
        return out[["bh", "w1h", "w2h", "cb", "nt", "nb", "__hu"]].astype({
            "bh": np.int64, "w1h": np.int64, "w2h": np.int64,
            "cb": np.int64, "nt": np.int64, "nb": np.int64})

    cand = (T(sf_dir, "documents", ["text"])
            .map_batches(explode_bi, batch_format="pyarrow")
            .groupby("__b").map_groups(bucket_top, batch_format="pandas")
            .to_pandas())
    n_tok = int(cand["nt"].sum())
    n_big = int(cand["nb"].sum())
    top = cand[cand["cb"] >= COLLOC_MIN_SUP].copy()
    top = (top.sort_values(["cb", "__hu"], ascending=[False, True],
                           kind="mergesort").head(COLLOC_TOPK)
           .reset_index(drop=True))

    probe = np.unique(np.concatenate([
        top["w1h"].to_numpy().view(np.uint64),
        top["w2h"].to_numpy().view(np.uint64)]))
    probe_sorted = np.sort(probe)

    def probe_counts(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for txt in t["text"].to_pylist():
            toks.extend(F_dedup.tokenize(txt))
        if not toks or len(probe_sorted) == 0:
            return pa.table({"th": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        uniq, cnt = np.unique(np.array(toks, dtype=object),
                              return_counts=True)
        hs = np.array([F_dedup.token_hash_u64(x) for x in uniq],
                      dtype=np.uint64)
        idx = np.searchsorted(probe_sorted, hs)
        idx[idx == len(probe_sorted)] = 0
        hit = probe_sorted[idx] == hs if len(probe_sorted) else \
            np.zeros(len(hs), dtype=bool)
        return pa.table({
            "th": pa.array(hs[hit].view(np.int64)),
            "cnt": pa.array(cnt[hit].astype(np.int64)),
        })

    pc_df = (T(sf_dir, "documents", ["text"])
             .map_batches(probe_counts, batch_format="pyarrow")
             .to_pandas())
    counts = pc_df.groupby("th")["cnt"].sum().to_dict()

    rows = []
    for r in top.itertuples(index=False):
        c1 = int(counts[int(r.w1h)])
        c2 = int(counts[int(r.w2h)])
        lift = (int(r.cb) * n_tok * n_tok * 1000) // (n_big * c1 * c2)
        rows.append((int(r.bh), int(r.cb), c1, c2, lift))
    return pd.DataFrame(rows, columns=["bh", "cb", "c1", "c2",
                                       "lift_milli"]).astype("int64")


SQL_Q57 = f"""
WITH toks AS (
  SELECT regexp_extract_all(text, '\\S+') AS ts FROM documents
),
uni AS (
  SELECT tok, count(*) AS c FROM (
    SELECT ts[i] AS tok
    FROM toks, LATERAL unnest(generate_series(1, len(ts))) AS t(i)
  ) GROUP BY 1
),
nt AS (SELECT sum(c)::HUGEINT AS n_tok FROM uni),
bi AS (
  SELECT w1, w2, md5_number_upper(w1 || ' ' || w2) AS hu, count(*) AS cb
  FROM (
    SELECT ts[i] AS w1, ts[i+1] AS w2
    FROM toks, LATERAL unnest(generate_series(1, len(ts) - 1)) AS t(i)
  ) GROUP BY 1, 2, 3
),
nb AS (SELECT sum(cb)::HUGEINT AS n_big FROM bi),
top AS (
  SELECT * FROM bi WHERE cb >= {COLLOC_MIN_SUP}
  ORDER BY cb DESC, hu ASC LIMIT {COLLOC_TOPK}
)
SELECT CAST(hu - CASE WHEN hu >= 9223372036854775808
            THEN 18446744073709551616 ELSE 0 END AS BIGINT) AS bh,
       cb, u1.c AS c1, u2.c AS c2,
       CAST((cb::HUGEINT * n_tok * n_tok * 1000)
            // (n_big * u1.c * u2.c) AS BIGINT) AS lift_milli
FROM top
JOIN uni u1 ON u1.tok = top.w1
JOIN uni u2 ON u2.tok = top.w2
CROSS JOIN nt CROSS JOIN nb
ORDER BY cb DESC, hu ASC
"""


# ------------------------------------------------------------------ q58

BM25_NQ = 3      # query = the NQ highest-df tokens (deterministic)
BM25_TOPK = 20


def q58_bm25_search(sf_dir: str):
    """Full-text relevance ranking: BM25 top-20 documents for a
    deterministic query (the 3 highest-document-frequency tokens, ties
    by hash — derivable by both engines). Integer-exact BM25 with
    k1 = 1.2 and b = 0.75 as exact rationals and the log-free idf
    ``idf_milli = (N - df) * 1000 // df``; multiplying numerator and
    denominator by 40 * avgdl clears every fraction:

        term_score = (idf_milli * tf * 88 * avgdl)
                     // (40 * avgdl * tf + 12 * avgdl + 36 * dl)

    (88/40 = k1+1, 12/40 = k1*(1-b), 36/40 = k1*b), summed over query
    terms; avgdl = total_tokens // N. Scale shape: the df pass is q29's
    token-ownership shuffle; the scoring pass BROADCASTS the 3 query
    hashes in the task closure and keeps a per-batch partial top-k —
    zero corpus shuffles, k rows per batch to the driver (q20's
    pattern)."""
    n_parts = 16

    def doc_tokens(t: pa.Table) -> pa.Table:
        """distinct (doc, token-hash) pairs + per-batch (N, dl) partials;
        sentinel rows (df pass needs totals too) ride with th = 0/real=0."""
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        ths: list[int] = []
        di: list[int] = []
        n_docs = t.num_rows
        total_dl = 0
        for i, txt in enumerate(t["text"].to_pylist()):
            toks = F_dedup.tokenize(txt)
            total_dl += len(toks)
            uniq = np.unique(np.array(toks, dtype=object)) if toks else []
            for u in uniq:
                ths.append(F_dedup.token_hash_u64(u))
                di.append(i)
        thu = np.r_[np.array(ths, dtype=np.uint64), np.uint64(0)]
        real = np.r_[np.ones(len(ths), dtype=np.int8), np.int8(0)]
        nd = np.zeros(len(thu), dtype=np.int64)
        dl = np.zeros(len(thu), dtype=np.int64)
        nd[-1] = n_docs
        dl[-1] = total_dl
        return pa.table({
            "doc_id": pa.array(np.r_[ids[np.array(di, dtype=np.int64)]
                                     if di else
                                     np.array([], dtype=np.int64),
                                     np.array([-1])].astype(np.int64)),
            "th": pa.array(thu.view(np.int64)),
            "real": pa.array(real),
            "nd": pa.array(nd),
            "dl": pa.array(dl),
            "__b": pa.array((thu % np.uint64(n_parts)).view(np.int64)),
        })

    def bucket_df(g: pd.DataFrame) -> pd.DataFrame:
        nd_sum = np.int64(g["nd"].sum())
        dl_sum = np.int64(g["dl"].sum())
        rg = g[g["real"] == 1]
        df = rg.groupby("th", sort=False).size().rename("df").reset_index()
        df["__hu"] = df["th"].to_numpy().view(np.uint64)
        df = df.sort_values(["df", "__hu"], ascending=[False, True],
                            kind="mergesort").head(BM25_NQ)
        sent = pd.DataFrame({"th": [0], "df": [0],
                             "__hu": np.array([0], dtype=np.uint64)})
        out = pd.concat([df, sent], ignore_index=True)
        out["nd"] = np.r_[np.zeros(len(df), dtype=np.int64), nd_sum]
        out["dl"] = np.r_[np.zeros(len(df), dtype=np.int64), dl_sum]
        return out.astype({"th": np.int64, "df": np.int64,
                           "nd": np.int64, "dl": np.int64})

    cand = (T(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(doc_tokens, batch_format="pyarrow")
            .groupby("__b").map_groups(bucket_df, batch_format="pandas")
            .to_pandas())
    n_docs = int(cand["nd"].sum())
    avgdl = int(cand["dl"].sum()) // n_docs
    top = cand[cand["df"] > 0].copy()
    top = (top.sort_values(["df", "__hu"], ascending=[False, True],
                           kind="mergesort").head(BM25_NQ))
    q_hash = np.sort(top["th"].to_numpy().view(np.uint64))
    idf = {int(h): (n_docs - int(d)) * 1000 // int(d)
           for h, d in zip(top["th"].to_numpy().view(np.uint64),
                           top["df"])}

    def score_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        scores = np.zeros(len(ids), dtype=np.int64)
        for i, txt in enumerate(t["text"].to_pylist()):
            toks = F_dedup.tokenize(txt)
            dl = len(toks)
            if not dl:
                continue
            uniq, cnt = np.unique(np.array(toks, dtype=object),
                                  return_counts=True)
            hs = np.array([F_dedup.token_hash_u64(x) for x in uniq],
                          dtype=np.uint64)
            idx = np.searchsorted(q_hash, hs)
            idx[idx == len(q_hash)] = 0
            hit = q_hash[idx] == hs
            s = 0
            for h, tf in zip(hs[hit], cnt[hit]):
                tf = int(tf)
                s += (idf[int(h)] * tf * 88 * avgdl) // (
                    40 * avgdl * tf + 12 * avgdl + 36 * dl)
            scores[i] = s
        keep = scores > 0
        part = pd.DataFrame({"doc_id": ids[keep].astype(np.int64),
                             "score_milli": scores[keep]})
        part = part.sort_values(["score_milli", "doc_id"],
                                ascending=[False, True],
                                kind="mergesort").head(BM25_TOPK)
        return pa.Table.from_pandas(part, preserve_index=False)

    parts = (T(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(score_batch, batch_format="pyarrow")
             .to_pandas())
    out = (parts.sort_values(["score_milli", "doc_id"],
                             ascending=[False, True], kind="mergesort")
           .head(BM25_TOPK).reset_index(drop=True))
    return out.astype({"doc_id": np.int64, "score_milli": np.int64})


SQL_Q58 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
occ AS (
  SELECT doc_id, ts[i] AS tok, md5_number_upper(ts[i]) AS hu
  FROM toks, LATERAL unnest(generate_series(1, len(ts))) AS t(i)
),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n_docs,
         (SELECT count(*) FROM occ)
           // (SELECT count(*) FROM documents) AS avgdl
),
dfs AS (
  SELECT hu, count(DISTINCT doc_id) AS df FROM occ GROUP BY 1
),
q AS (
  SELECT hu, df, (SELECT n_docs FROM stats) AS n_docs
  FROM dfs ORDER BY df DESC, hu ASC LIMIT {BM25_NQ}
),
dls AS (SELECT doc_id, len(ts) AS dl FROM toks),
tfs AS (
  SELECT o.doc_id, o.hu, count(*) AS tf
  FROM occ o JOIN q ON q.hu = o.hu GROUP BY 1, 2
),
scored AS (
  SELECT t.doc_id,
         sum(((q.n_docs - q.df) * 1000 // q.df) * t.tf * 88 * s.avgdl
             // (40 * s.avgdl * t.tf + 12 * s.avgdl + 36 * d.dl))
           AS score_milli
  FROM tfs t
  JOIN q ON q.hu = t.hu
  JOIN dls d ON d.doc_id = t.doc_id
  CROSS JOIN stats s
  GROUP BY 1
)
SELECT doc_id, CAST(score_milli AS BIGINT) AS score_milli
FROM scored WHERE score_milli > 0
ORDER BY score_milli DESC, doc_id ASC LIMIT {BM25_TOPK}
"""


# ------------------------------------------------------------------ q59


def q59_grouped_hll(sf_dir: str):
    """Distinct users per event type, by GROUPED HyperLogLog next to the
    exact count — the sketch composed over groups (the per-host /
    per-source cardinality report at corpus scale). Registers per
    (group, bucket) via constant-size per-batch partials
    (:func:`wikicrawl.functions.sketch.hll_grouped_registers`; key hash
    = md5 of the decimal user id string, DuckDB ``md5_number_upper(
    CAST(user_id AS VARCHAR))``); the exact side partitions (group,
    user) pairs by user hash so per-partition distinct counts sum
    exactly. Output: one row per event_type with est / exact /
    err_milli — the per-group estimates certify every register."""
    from wikicrawl.functions import sketch as F_sketch

    ev = T(sf_dir, "events", ["event_type", "user_id"])
    regs = F_sketch.hll_grouped_registers(ev, "event_type", "user_id")

    def uniq_pairs(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "g": t["event_type"].to_pylist(),
            "u": t["user_id"].to_numpy(zero_copy_only=False)
                 .astype(np.int64),
        }).drop_duplicates()
        hu = pd.util.hash_array(df["u"].to_numpy(),
                                hash_key="wikicrawl0hjoin1")
        return pa.table({
            "g": pa.array(df["g"].astype(str)),
            "u": pa.array(df["u"].to_numpy(np.int64)),
            "__b": pa.array((hu % np.uint64(16)).astype(np.int64)),
        })

    def count_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop_duplicates(["g", "u"]).groupby("g", sort=False)
                .size().rename("n").reset_index())

    exact = (T(sf_dir, "events", ["event_type", "user_id"])
             .map_batches(uniq_pairs, batch_format="pyarrow")
             .groupby("__b").map_groups(count_pairs, batch_format="pandas")
             .to_pandas().groupby("g")["n"].sum().to_dict())

    rows = []
    for gname, sub in regs.groupby("g"):
        est = F_sketch.hll_estimate(
            sub.rename(columns={"rho_max": "rho_max"}))
        ex = int(exact[gname])
        rows.append((gname, est, ex, abs(est - ex) * 1000 // ex))
    out = pd.DataFrame(rows, columns=["event_type", "est_distinct",
                                      "exact_distinct", "err_milli"])
    out = out.astype({"est_distinct": np.int64,
                      "exact_distinct": np.int64, "err_milli": np.int64})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_Q59 = """
WITH h AS (
  SELECT DISTINCT event_type AS g,
         md5_number_upper(CAST(user_id AS VARCHAR)) AS hu
  FROM events
),
reg AS (
  SELECT g, CAST(hu % 256 AS BIGINT) AS bucket,
         max(CASE WHEN hu // 256 = 0 THEN 57
                  ELSE 57 - length(bin((hu // 256)::UBIGINT)) END) AS rho
  FROM h GROUP BY 1, 2
),
groups AS (SELECT DISTINCT g FROM h),
full_reg AS (
  SELECT gr.g, gs.b AS bucket, coalesce(reg.rho, 0) AS rho
  FROM groups gr CROSS JOIN generate_series(0, 255) AS gs(b)
  LEFT JOIN reg ON reg.g = gr.g AND reg.bucket = gs.b
),
tops AS (SELECT g, max(rho) AS rtop FROM full_reg GROUP BY 1),
s AS (
  SELECT f.g, any_value(t.rtop) AS rtop,
         sum(1::HUGEINT << (t.rtop - f.rho)) AS sv
  FROM full_reg f JOIN tops t ON t.g = f.g GROUP BY 1
),
est AS (
  SELECT g, CAST((1846528::HUGEINT * 256 * 256 * (1::HUGEINT << rtop))
                 // (2570790::HUGEINT * sv) AS BIGINT) AS est_distinct
  FROM s
),
ex AS (SELECT g, count(*) AS exact_distinct FROM h GROUP BY 1)
SELECT est.g AS event_type, est_distinct, exact_distinct,
       CAST(abs(est_distinct - exact_distinct) * 1000
            // exact_distinct AS BIGINT) AS err_milli
FROM est JOIN ex ON ex.g = est.g
ORDER BY event_type
"""


# ------------------------------------------------------------------ q60


def q60_triangle_count(sf_dir: str):
    """Exact triangle census of the near-dup pair graph (q17's verified
    MinHash pairs): duplicate clusters are near-cliques, so the
    edge/wedge/triangle profile measures cluster density — the
    graph-analytics companion to q37's components and q55's PageRank.
    :func:`wikicrawl.functions.graph.triangle_count`: low-pivot wedge
    generation per src bucket (each triangle counted exactly once),
    closure by a co-partitioned two-column membership probe; driver
    traffic one int per bucket. Oracle: the q17/q37 exact shingle-
    Jaccard pairs CTE + a three-way self-join."""
    pairs = _minhash_pairs(sf_dir, threshold=0.8)
    edges = rd.from_arrow(pa.table({
        "id_a": pairs["id_a"], "id_b": pairs["id_b"]}))
    ne, nw, nt = F_graph.triangle_count(edges)
    return pd.DataFrame({"n_edges": [np.int64(ne)],
                         "n_wedges": [np.int64(nw)],
                         "n_triangles": [np.int64(nt)]})


SQL_Q60 = """
WITH sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS s
  FROM documents, LATERAL unnest(generate_series(1, length(text) - 4)) AS t(i)
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS ni
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT id_a, id_b
  FROM inter
  JOIN sizes sa ON sa.doc_id = id_a
  JOIN sizes sb ON sb.doc_id = id_b
  WHERE ni * 1.0 / (sa.n + sb.n - ni) >= 0.8
),
deg AS (SELECT id_a, count(*) AS d FROM pairs GROUP BY 1),
tri AS (
  SELECT count(*) AS t
  FROM pairs e1
  JOIN pairs e2 ON e2.id_a = e1.id_a AND e2.id_b > e1.id_b
  JOIN pairs e3 ON e3.id_a = e1.id_b AND e3.id_b = e2.id_b
)
SELECT (SELECT count(*) FROM pairs) AS n_edges,
       CAST((SELECT coalesce(sum(d * (d - 1) // 2), 0) FROM deg)
            AS BIGINT) AS n_wedges,
       CAST((SELECT t FROM tri) AS BIGINT) AS n_triangles
"""


# ------------------------------------------------------------------ q61

def q61_image_dup_clusters(sf_dir: str):
    """Image near-dup CLUSTERS: the q51 average-hash pairs (earned
    through the real PNG codec + banded hamming shuffle) closed into
    connected components (:func:`wikicrawl.functions.graph.
    connected_components`) — "keep one image per perceptual-duplicate
    cluster", the image-payload twin of q37's text clusters. Oracle:
    the q51 pixel-closed-form fingerprints + O(n^2) hamming self-join
    + recursive transitive closure."""
    fps = _image_ahash_fps(sf_dir)
    pairs = F_dedup.hamming_dup_pairs(
        fps, max_hamming=AHASH_MAX_HAMMING,
        id_col="doc_id", hash_col="ahash")
    edges = rd.from_arrow(pa.table({
        "id_a": pairs["id_a"], "id_b": pairs["id_b"]}))
    return F_graph.connected_components(edges)


SQL_Q61 = f"""
WITH RECURSIVE {_SQL_Q51_FP},
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM fp a JOIN fp b ON a.doc_id < b.doc_id
  WHERE bit_count(xor(a.ahash, b.ahash)) <= {AHASH_MAX_HAMMING}
),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(v, w) AS (
  SELECT a, a FROM edges
  UNION
  SELECT r.v, e.b FROM reach r JOIN edges e ON r.w = e.a
)
SELECT v AS node, CAST(min(w) AS BIGINT) AS cluster_id
FROM reach GROUP BY v ORDER BY v
"""


# ------------------------------------------------------------------ q62

IMG_HIST_BINS = 8  # 256 / 32 intensity bins per channel


def q62_image_histograms(sf_dir: str):
    """Per-channel intensity histograms through the REAL PNG codec: the
    q39 synthetic images round-trip png_encode -> png_decode and each
    decoded channel bincounts into {IMG_HIST_BINS} 32-wide bins — the
    classic image-statistics stage (exposure/solarization screens) as a
    zero-shuffle map_batches; only NONZERO bins are emitted, matching
    the SQL GROUP BY. Oracle: the q39 pixel closed form over
    generate_series, grouped by (doc_id, channel, v // 32)."""
    from wikicrawl import codec

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        v = ((ids[:, None] * _IMG_C1 + idx[None, :] * _IMG_C2) % 256
             ).astype(np.uint8)
        pngs = [codec.png_encode(row.reshape(IMG_H, IMG_W, 3)) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(pngs, pa.binary())})

    def hist(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.zeros((len(ids), 3, IMG_HIST_BINS), dtype=np.int64)
        for i, b in enumerate(t["bytes"].to_pylist()):
            px = codec.png_decode(b)                    # real decode
            for ch in range(3):
                counts[i, ch] = np.bincount(
                    px[:, :, ch].ravel() // 32, minlength=IMG_HIST_BINS)
        doc = np.repeat(ids, 3 * IMG_HIST_BINS)
        ch = np.tile(np.repeat(np.arange(3, dtype=np.int64),
                               IMG_HIST_BINS), len(ids))
        bins = np.tile(np.arange(IMG_HIST_BINS, dtype=np.int64),
                       3 * len(ids))
        flat = counts.ravel()
        nz = flat > 0
        return pa.table({"doc_id": pa.array(doc[nz]),
                         "ch": pa.array(ch[nz]),
                         "bin": pa.array(bins[nz]),
                         "n_px": pa.array(flat[nz])})

    out = (ds.map_batches(synth, batch_format="pyarrow")
           .map_batches(hist, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values(["doc_id", "ch", "bin"]).reset_index(drop=True)


SQL_Q62 = f"""
WITH px AS (
  SELECT d.doc_id, g.i % 3 AS ch,
         (d.doc_id * {_IMG_C1} + g.i * {_IMG_C2}) % 256 AS v
  FROM documents d, generate_series(0, {IMG_W * IMG_H * 3 - 1}) AS g(i)
)
SELECT doc_id, CAST(ch AS BIGINT) AS ch, CAST(v // 32 AS BIGINT) AS bin,
       count(*) AS n_px
FROM px GROUP BY 1, 2, 3 ORDER BY doc_id, ch, bin
"""


# ------------------------------------------------------------------ q63

KCORE_K = 3
KCORE_ROUNDS = 6
KCORE_MIN_QTY = 45  # high-volume purchase edges only (sparsifies the graph)


def q63_kcore(sf_dir: str):
    """k-core decomposition (fixed-round peel) of the HIGH-VOLUME
    purchase graph — distinct (customer, supplier) edges through orders
    ⋈ lineitem restricted to l_quantity >= {KCORE_MIN_QTY}; node ids
    disambiguated like q55. Each round deletes nodes with undirected
    degree < k and their incident edges; survivors report their final
    degree. See :func:`wikicrawl.functions.graph.kcore_peel` for the
    size-switched shape (driver numpy vs bucketed degree count + two
    co-partitioned semi-joins per round). Oracle: {KCORE_ROUNDS}
    unrolled MATERIALIZED CTE peel rounds (the q55 precedent)."""
    def keyed(col_key: str, col_val: str, name: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"ok": t[col_key], name: t[col_val]})
        return fn

    o = T(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        keyed("o_orderkey", "o_custkey", "cust"), batch_format="pyarrow")

    def li_filter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["l_quantity"], KCORE_MIN_QTY))
        return pa.table({"ok": t["l_orderkey"], "supp": t["l_suppkey"]})

    li = T(sf_dir, "lineitem",
           ["l_orderkey", "l_suppkey", "l_quantity"]).map_batches(
        li_filter, batch_format="pyarrow")

    def to_edges(t: pa.Table) -> pa.Table:
        c = t["cust"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["supp"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "src": pa.array(c * 2), "dst": pa.array(s * 2 + 1),
            "__b": pa.array(F_joins.bucket_of(c, 16)),
        })

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g[["src", "dst"]].drop_duplicates()

    edges = (F_joins.hash_join(o, li, on="ok")
             .map_batches(to_edges, batch_format="pyarrow")
             .groupby("__b").map_groups(dedup_bucket, batch_format="pandas"))
    return F_graph.kcore_peel(edges, k=KCORE_K, rounds=KCORE_ROUNDS)


def _sql_q63() -> str:
    parts = [f"""es AS MATERIALIZED (
  SELECT DISTINCT o_custkey * 2 AS a, l_suppkey * 2 + 1 AS b
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
  WHERE l_quantity >= {KCORE_MIN_QTY}
),
e0 AS MATERIALIZED (
  SELECT a AS u, b AS v FROM es UNION ALL SELECT b, a FROM es
)"""]
    for r in range(KCORE_ROUNDS):
        parts.append(f"""deg{r} AS MATERIALIZED (
  SELECT u AS node, count(*) AS d FROM e{r} GROUP BY 1
),
keep{r} AS MATERIALIZED (SELECT node FROM deg{r} WHERE d >= {KCORE_K}),
e{r + 1} AS MATERIALIZED (
  SELECT e.u, e.v FROM e{r} e
  JOIN keep{r} ka ON ka.node = e.u
  JOIN keep{r} kb ON kb.node = e.v
)""")
    return ("WITH " + ",\n".join(parts)
            + f"""
SELECT u AS node, count(*) AS degree
FROM e{KCORE_ROUNDS} GROUP BY u ORDER BY node""")


# ------------------------------------------------------------------ q64

def q64_time_decay(sf_dir: str):
    """Per-user exponentially time-decayed engagement score (half-life =
    one day), integer-exact via right shifts — see
    :func:`wikicrawl.functions.streaming.time_decayed_scores` for the
    two-pass shape (tiny global Max, then per-batch partials + one
    O(keys x blocks) groupby)."""
    from wikicrawl.functions import streaming as F_stream

    return F_stream.time_decayed_scores(
        T(sf_dir, "events", ["user_id", "ts", "value"]))


SQL_Q64 = """
WITH ref AS (SELECT max(ts) AS m FROM events),
e AS (
  SELECT user_id,
         CAST(floor(value * 1000) AS BIGINT) AS vm,
         least(CAST((epoch_us((SELECT m FROM ref)) - epoch_us(ts))
                    // 86400000000 AS BIGINT), 62) AS age
  FROM events
)
SELECT user_id, count(*) AS n_events,
       CAST(sum(vm // (1::BIGINT << age)) AS BIGINT) AS decayed_milli
FROM e GROUP BY user_id ORDER BY user_id
"""


# ------------------------------------------------------------------ q65

def q65_quality_gate(sf_dir: str):
    """First-wins curation gate with reason codes (too_short ->
    repetitive -> top_heavy -> pass), the Gopher/RefinedWeb rule
    pipeline as ONE zero-shuffle map_batches — see
    :func:`wikicrawl.functions.textstats.quality_gate`."""
    out = (
        T(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(F_text.quality_gate, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_q65() -> str:
    from wikicrawl.functions.textstats import (
        GATE_MAX_REP_MILLI, GATE_MAX_TOP_TOK_MILLI, GATE_MIN_CHARS,
        GATE_MIN_TOKENS)

    return f"""
WITH tl AS (
  SELECT doc_id, length(text) AS n_chars,
         regexp_extract_all(text, '\\S+') AS ts
  FROM documents
),
toks AS (SELECT doc_id, unnest(ts) AS tok FROM tl),
tc AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY 1, 2),
d AS (
  SELECT doc_id, sum(c) AS nt, count(*) AS nd, max(c) AS top
  FROM tc GROUP BY 1
),
s AS (
  SELECT t.doc_id, t.n_chars,
         CAST(coalesce(d.nt, 0) AS BIGINT) AS n_tokens,
         CAST(CASE WHEN coalesce(d.nt, 0) > 0
              THEN (1000 * (d.nt - d.nd)) // d.nt ELSE 0 END AS BIGINT)
           AS rep_milli,
         CAST((1000 * coalesce(d.top, 0))
              // greatest(coalesce(d.nt, 0), 1) AS BIGINT)
           AS top_tok_milli
  FROM tl t LEFT JOIN d USING (doc_id)
)
SELECT doc_id, n_chars, n_tokens, rep_milli, top_tok_milli,
       CASE WHEN n_chars < {GATE_MIN_CHARS} OR n_tokens < {GATE_MIN_TOKENS}
              THEN 'too_short'
            WHEN rep_milli > {GATE_MAX_REP_MILLI} THEN 'repetitive'
            WHEN top_tok_milli > {GATE_MAX_TOP_TOK_MILLI} THEN 'top_heavy'
            ELSE 'pass' END AS reason
FROM s ORDER BY doc_id
"""


# ------------------------------------------------------------------ q66

def q66_rollup(sf_dir: str):
    """ROLLUP aggregate over (source, lang): per-(source, lang) counts +
    char sums PLUS the per-source and grand-total super-rows ('ALL'
    sentinels) — the OLAP reporting shape. ONE distributed groupby does
    all the data work; the super-rows re-aggregate the (tiny,
    already-reduced) level-2 result on the driver, so no second pass
    over the corpus and no extra shuffle."""
    base = (
        T(sf_dir, "documents", ["source", "lang", "n_chars"])
        .groupby(["source", "lang"])
        .aggregate(Count(alias_name="n_docs"),
                   Sum("n_chars", alias_name="sum_chars"))
        .to_pandas()
    )
    l1 = base.groupby("source", as_index=False)[["n_docs", "sum_chars"]].sum()
    l1["lang"] = "ALL"
    l0 = pd.DataFrame({
        "source": ["ALL"], "lang": ["ALL"],
        "n_docs": [base["n_docs"].sum()],
        "sum_chars": [base["sum_chars"].sum()],
    })
    cols = ["source", "lang", "n_docs", "sum_chars"]
    out = pd.concat([base[cols], l1[cols], l0[cols]], ignore_index=True)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_chars"] = out["sum_chars"].astype("int64")
    return out.sort_values(["source", "lang"]).reset_index(drop=True)


SQL_Q66 = """
SELECT coalesce(source, 'ALL') AS source, coalesce(lang, 'ALL') AS lang,
       count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY ROLLUP (source, lang) ORDER BY 1, 2
"""


# ------------------------------------------------------------------ q67

def q67_percentile_rank(sf_dir: str):
    """Exact CDF / percentile-rank transform of every document's length
    (the rank-normalization op): pct_milli = (1000 * #docs strictly
    shorter) // (N - 1). Never sorts the corpus — q32's value-counts
    histogram (shuffle O(distinct lengths)) cumsums on the driver into a
    (value -> less-than count) table, which broadcasts back through ONE
    zero-shuffle searchsorted map over the corpus."""
    import ray

    ds = T(sf_dir, "documents", ["doc_id", "text"])
    n_parts = 16

    def value_counts(t: pa.Table) -> pa.Table:
        n_chars = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy()
        vals, cnt = np.unique(n_chars, return_counts=True)
        return pa.table({
            "v": pa.array(vals),
            "cnt": pa.array(cnt.astype(np.int64)),
            "__b": pa.array((vals % n_parts).astype(np.int64)),
        })

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("v", sort=False)["cnt"].sum().reset_index()

    hist = (
        ds.map_batches(value_counts, batch_format="pyarrow")
        .groupby("__b").map_groups(merge_counts, batch_format="pandas")
        .to_pandas().sort_values("v").reset_index(drop=True)
    )
    n = int(hist["cnt"].sum())
    vals = hist["v"].to_numpy(np.int64)
    lt = (hist["cnt"].cumsum().to_numpy(np.int64)
          - hist["cnt"].to_numpy(np.int64))
    cdf_ref = ray.put((vals, lt))
    denom = max(n - 1, 1)

    def rank_map(t: pa.Table) -> pa.Table:
        v, l = ray.get(cdf_ref)
        n_chars = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy()
        pos = np.searchsorted(v, n_chars)  # every length exists in v
        return pa.table({
            "doc_id": t["doc_id"],
            "n_chars": pa.array(n_chars),
            "pct_milli": pa.array((1000 * l[pos]) // denom),
        })

    out = ds.map_batches(rank_map, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q67 = """
WITH h AS (SELECT length(text) AS v, count(*) AS c FROM documents GROUP BY 1),
cdf AS (SELECT v, sum(c) OVER (ORDER BY v) - c AS lt FROM h),
n AS (SELECT count(*) AS n FROM documents)
SELECT d.doc_id, length(d.text) AS n_chars,
       CAST((1000 * cdf.lt) // greatest((SELECT n FROM n) - 1, 1) AS BIGINT)
         AS pct_milli
FROM documents d JOIN cdf ON cdf.v = length(d.text)
ORDER BY doc_id
"""


# ------------------------------------------------------------------ q68

MAD_K = 2  # outlier when abs deviation > MAD_K * MAD


def q68_outliers(sf_dir: str):
    """Robust per-group outlier screen (median / MAD, the data-cleaning
    op, integer-exact): per event_type, med = exact median of
    floor(value*1000) (q32's discrete ceil-rank rule), mad = exact
    median of |v - med|, outliers = values with |v - med| > MAD_K * mad.
    TWO histogram shuffles, each O(groups x distinct values); the
    outlier count reads off the second (deviation) histogram on the
    driver — no third pass."""
    ds = T(sf_dir, "events", ["event_type", "value"])
    n_parts = 16

    def vm_of(t: pa.Table) -> np.ndarray:
        return np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 1000.0
        ).astype(np.int64)

    def hist_of(key_val: pd.DataFrame) -> pd.DataFrame:
        return (key_val.groupby(["event_type", "v"], sort=False)
                .size().rename("cnt").reset_index())

    def value_counts(t: pa.Table) -> pa.Table:
        vc = hist_of(pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "v": vm_of(t)}))
        return pa.Table.from_pandas(
            vc.assign(__b=(vc["v"].to_numpy() % n_parts).astype(np.int64)),
            preserve_index=False).replace_schema_metadata(None)

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["event_type", "v"], sort=False)["cnt"].sum()
                .reset_index())

    def collect_hist(src) -> pd.DataFrame:
        return (src.groupby("__b").map_groups(merge_counts,
                                              batch_format="pandas")
                .to_pandas().sort_values(["event_type", "v"])
                .reset_index(drop=True))

    def median_of(hist: pd.DataFrame) -> dict:
        out = {}
        for et, g in hist.groupby("event_type", sort=True):
            cum = g["cnt"].cumsum().to_numpy()
            rank = -(-int(cum[-1]) // 2)  # ceil(n/2)
            out[et] = int(g["v"].to_numpy()[np.searchsorted(cum, rank)])
        return out

    med = median_of(collect_hist(
        ds.map_batches(value_counts, batch_format="pyarrow")))

    def dev_counts(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        vm = vm_of(t)
        dev = np.abs(vm - np.array([med[e] for e in et], dtype=np.int64))
        vc = hist_of(pd.DataFrame({"event_type": et, "v": dev}))
        return pa.Table.from_pandas(
            vc.assign(__b=(vc["v"].to_numpy() % n_parts).astype(np.int64)),
            preserve_index=False).replace_schema_metadata(None)

    dev_hist = collect_hist(
        ds.map_batches(dev_counts, batch_format="pyarrow"))
    rows = []
    for et, g in dev_hist.groupby("event_type", sort=True):
        cnt = g["cnt"].to_numpy(np.int64)
        cum = cnt.cumsum()
        n = int(cum[-1])
        mad = int(g["v"].to_numpy()[np.searchsorted(cum, -(-n // 2))])
        n_out = int(cnt[g["v"].to_numpy() > MAD_K * mad].sum())
        rows.append((et, n, med[et], mad, n_out))
    return pd.DataFrame(rows, columns=[
        "event_type", "n_events", "med_milli", "mad_milli", "n_outliers"])


SQL_Q68 = f"""
WITH e AS (
  SELECT event_type, CAST(floor(value * 1000) AS BIGINT) AS vm FROM events
),
m AS (
  SELECT event_type, vm,
         row_number() OVER (PARTITION BY event_type ORDER BY vm) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM e
),
med AS (
  SELECT event_type, min(vm) AS med FROM m
  WHERE rn = CAST(ceil(n * 0.5) AS BIGINT) GROUP BY 1
),
d AS (
  SELECT e.event_type, abs(e.vm - med.med) AS dev
  FROM e JOIN med USING (event_type)
),
m2 AS (
  SELECT event_type, dev,
         row_number() OVER (PARTITION BY event_type ORDER BY dev) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM d
),
mad AS (
  SELECT event_type, min(dev) AS mad FROM m2
  WHERE rn = CAST(ceil(n * 0.5) AS BIGINT) GROUP BY 1
)
SELECT e.event_type, count(*) AS n_events,
       min(med.med) AS med_milli, min(mad.mad) AS mad_milli,
       CAST(sum(CASE WHEN abs(e.vm - med.med) > {MAD_K} * mad.mad
                THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
FROM e JOIN med USING (event_type) JOIN mad USING (event_type)
GROUP BY 1 ORDER BY 1
"""


# ------------------------------------------------------------------ q69

def q69_star_join(sf_dir: str):
    """Star-schema revenue rollup (TPC-H Q5 shape): region <- nation <-
    customer <- orders <- lineitem, revenue = floor(extprice * (1 -
    discount) * 1000) summed per region. Dimension sides join by SIZE:
    region⋈nation is driver-built and broadcast as a dict; customer
    annotates via one zero-shuffle lookup map; the two BIG joins
    (orders⋈customer, lineitem⋈orders) are co-partitioned hash joins;
    lineitem pre-aggregates revenue per order INSIDE map_batches before
    its join (combine-before-shuffle), and the final groupby sees 5
    region rows."""
    nat = _pdf(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    reg = _pdf(sf_dir, "region", ["r_regionkey", "r_name"])
    n2r = dict(zip(
        nat["n_nationkey"].astype(np.int64),
        nat["n_regionkey"].map(dict(zip(
            reg["r_regionkey"].astype(np.int64), reg["r_name"])))))

    # vectorized dimension lookup (no per-row Python in map_batches):
    # sorted nation keys + aligned region names, searchsorted per batch;
    # a nationkey absent from nation DROPS the row — the same inner-join
    # semantics as the hash_join fallback below (ADVICE r4)
    _nk = np.array(sorted(n2r), dtype=np.int64)
    _nr = np.array([n2r[k] for k in _nk.tolist()], dtype=object)

    def cust_region(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(_nk) == 0 or len(nk) == 0:
            return pa.table({"ck": t["c_custkey"][:0],
                             "r_name": pa.array([], pa.string())})
        pos = np.minimum(np.searchsorted(_nk, nk), len(_nk) - 1)
        keep = np.flatnonzero(_nk[pos] == nk)
        return pa.table({
            "ck": t["c_custkey"].take(pa.array(keep)),
            "r_name": pa.array(_nr[pos[keep]], pa.string()),
        })

    cust = T(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_region, batch_format="pyarrow")
    orders = T(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: t.rename_columns(["okey", "ck"]), batch_format="pyarrow")

    def li_partial(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
            * 1000.0).astype(np.int64)
        order = np.argsort(ok, kind="stable")
        ok, rev = ok[order], rev[order]
        starts = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1]])
        return pa.table({
            "okey": pa.array(ok[starts]),
            "rev": pa.array(np.add.reduceat(rev, starts)
                            if len(ok) else rev[:0]),
        })

    li = T(sf_dir, "lineitem",
           ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        li_partial, batch_format="pyarrow")
    # size-switched customer side (the planner rule used across the
    # repo): the (custkey, region) table is a REDUCED dimension — if it
    # fits the broadcast limit, ray.put it once and annotate orders in a
    # zero-shuffle lookup map; else fall back to the co-partitioned join
    cust = cust.materialize()
    csize = cust.size_bytes()
    if csize is not None and csize <= 256 << 20:
        cust_ref = ray.put(pa.concat_tables(
            [ray.get(r) for r in cust.to_arrow_refs()]
        ).combine_chunks())

        def _sorted_lookup(c: pa.Table):
            keys = c["ck"].to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(keys, kind="stable")
            return (keys[order],
                    c["r_name"].to_numpy(zero_copy_only=False)[order])

        def annotate(t: pa.Table) -> pa.Table:
            from wikicrawl.functions._cache import broadcast_cached

            keys, names = broadcast_cached(cust_ref, _sorted_lookup)
            ck = t["ck"].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(keys) == 0 or len(ck) == 0:
                return pa.table({"okey": t["okey"][:0],
                                 "r_name": pa.array([], pa.string())})
            # validated lookup: a custkey absent from customer DROPS the
            # order (mirrors the inner-join fallback; an unchecked
            # searchsorted would silently pick a neighbor — ADVICE r4)
            pos = np.minimum(np.searchsorted(keys, ck), len(keys) - 1)
            keep = np.flatnonzero(keys[pos] == ck)
            return pa.table({
                "okey": t["okey"].take(pa.array(keep)),
                "r_name": pa.array(names[pos[keep]], pa.string()),
            })

        ords_r = orders.map_batches(annotate, batch_format="pyarrow")
    else:
        ords_r = F_joins.hash_join(orders, cust, on="ck")
    joined = F_joins.hash_join(li, ords_r, on="okey")

    def region_partials(t: pa.Table) -> pa.Table:
        # combine-before-reduce: 5 region rows per block, so the driver
        # reduce sees O(regions x blocks) rows and no final shuffle runs
        df = pd.DataFrame({
            "r_name": t["r_name"].to_numpy(zero_copy_only=False),
            "rev": t["rev"].to_numpy(zero_copy_only=False),
        })
        p = df.groupby("r_name", sort=False)["rev"].sum().reset_index()
        return pa.table({"r_name": pa.array(p["r_name"].to_numpy()),
                         "rev": pa.array(p["rev"].to_numpy(np.int64))})

    parts = joined.map_batches(
        region_partials, batch_format="pyarrow").to_pandas()
    out = (parts.groupby("r_name", sort=True)["rev"].sum()
           .rename("revenue_milli").reset_index())
    out["revenue_milli"] = out["revenue_milli"].astype("int64")
    return out


SQL_Q69 = """
SELECT r_name,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000)
                     AS BIGINT)) AS BIGINT) AS revenue_milli
FROM lineitem
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation ON n_nationkey = c_nationkey
JOIN region ON r_regionkey = n_regionkey
GROUP BY r_name ORDER BY r_name
"""


# ------------------------------------------------------------------ q70

FUNNEL_STEPS = ("view", "click", "purchase")


def q70_funnel(sf_dir: str):
    """Ordered conversion funnel per user (view -> click -> purchase,
    each step STRICTLY after the previous step's first completion) — the
    classic sessionized product-analytics op. ONE hash-partition shuffle
    (whole user groups per bucket, the q30 idiom); inside a bucket each
    step is a vectorized pandas groupby-min + merge, never per-user
    Python. Missing steps report -1."""
    from wikicrawl.functions.joins import bucket_of

    ds = T(sf_dir, "events", ["user_id", "ts", "event_type"])
    n_buckets = 32

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", pa.array(bucket_of(t["user_id"], n_buckets)))

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()
        users = np.unique(u)
        cur = pd.DataFrame({"user_id": users})
        prev = None
        for i, step in enumerate(FUNNEL_STEPS):
            rows = pd.DataFrame({"user_id": u, "t": ts})[et == step]
            if prev is not None:
                rows = rows.merge(prev, on="user_id", how="inner")
                rows = rows[rows["t"] > rows["pt"]]
            t_min = (rows.groupby("user_id", sort=False)["t"].min()
                     .rename(f"t{i}").reset_index())
            cur = cur.merge(t_min, on="user_id", how="left")
            prev = t_min.rename(columns={f"t{i}": "pt"})
        # step_reached = count of non-null steps (nulls cascade: a step
        # can only be non-null if the previous one is)
        reached = cur[["t0", "t1", "t2"]].notna().to_numpy().sum(axis=1)
        return pd.DataFrame({
            "user_id": users,
            "step_reached": reached.astype(np.int64),
            "t_view_us": cur["t0"].fillna(-1).astype(np.int64),
            "t_click_us": cur["t1"].fillna(-1).astype(np.int64),
            "t_purchase_us": cur["t2"].fillna(-1).astype(np.int64),
        })

    out = (ds.map_batches(tag, batch_format="pyarrow")
           .groupby("__bucket")
           .map_groups(funnel_bucket, batch_format="pandas")
           .to_pandas())
    return out.sort_values("user_id").reset_index(drop=True)


SQL_Q70 = """
WITH v AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = 'view' GROUP BY 1
),
c AS (
  SELECT e.user_id, min(e.ts) AS t2
  FROM events e JOIN v ON v.user_id = e.user_id AND e.ts > v.t1
  WHERE e.event_type = 'click' GROUP BY 1
),
p AS (
  SELECT e.user_id, min(e.ts) AS t3
  FROM events e JOIN c ON c.user_id = e.user_id AND e.ts > c.t2
  WHERE e.event_type = 'purchase' GROUP BY 1
)
SELECT u.user_id,
       CAST(CASE WHEN p.t3 IS NOT NULL THEN 3
                 WHEN c.t2 IS NOT NULL THEN 2
                 WHEN v.t1 IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
         AS step_reached,
       coalesce(epoch_us(v.t1), -1) AS t_view_us,
       coalesce(epoch_us(c.t2), -1) AS t_click_us,
       coalesce(epoch_us(p.t3), -1) AS t_purchase_us
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN v USING (user_id)
LEFT JOIN c USING (user_id)
LEFT JOIN p USING (user_id)
ORDER BY user_id
"""


# ------------------------------------------------------------------ q71

def q71_image_caption_table(sf_dir: str):
    """Materialize the image+caption training table (the north-rule
    input shape: image_id / bytes / w / h / fmt / caption / phash):
    deterministic PNGs per doc round-trip the REAL codec, dimensions
    and the perceptual hash are read off the DECODED pixels (w/h from
    the array shape, phash = q51's average-hash), caption = the doc
    text. One zero-shuffle map_batches chain; the hash-verified output
    carries everything but the raw bytes (image_id, w, h, fmt,
    n_caption_chars, phash). Oracle: synth closed forms + the q51
    fingerprint CTE."""
    from wikicrawl import codec

    ds = T(sf_dir, "documents", ["doc_id", "text"])
    n_px = IMG_W * IMG_H * 3
    w_bits = np.uint64(1) << np.arange(IMG_W * IMG_H, dtype=np.uint64)

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        v = ((ids[:, None] * _IMG_C1 + idx[None, :] * _IMG_C2) % 256
             ).astype(np.uint8)
        pngs = [codec.png_encode(row.reshape(IMG_H, IMG_W, 3)) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(pngs, pa.binary()),
                         "caption": t["text"]})

    def features(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ws = np.empty(len(ids), dtype=np.int64)
        hs = np.empty(len(ids), dtype=np.int64)
        fps = np.empty(len(ids), dtype=np.uint64)
        for i, b in enumerate(t["bytes"].to_pylist()):
            px = codec.png_decode(b)            # real decode
            hs[i], ws[i] = px.shape[0], px.shape[1]
            gray = px.astype(np.int64).sum(axis=2).ravel() // 3
            bits = (gray * 64) >= gray.sum()
            fps[i] = (bits.astype(np.uint64) * w_bits).sum()
        return pa.table({
            "image_id": pa.array([f"img-{i}" for i in ids], pa.string()),
            "w": pa.array(ws), "h": pa.array(hs),
            "fmt": pa.array(["png"] * len(ids), pa.string()),
            "n_caption_chars": pc.cast(pc.utf8_length(t["caption"]),
                                       pa.int64()),
            "phash": pa.array(fps.view(np.int64)),
        })

    out = (ds.map_batches(synth, batch_format="pyarrow")
           .map_batches(features, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("image_id").reset_index(drop=True)


SQL_Q71 = f"""
WITH {_SQL_Q51_FP}
SELECT 'img-' || CAST(d.doc_id AS VARCHAR) AS image_id,
       CAST({IMG_W} AS BIGINT) AS w, CAST({IMG_H} AS BIGINT) AS h,
       'png' AS fmt,
       length(d.text) AS n_caption_chars,
       fp.ahash AS phash
FROM documents d JOIN fp ON fp.doc_id = d.doc_id
ORDER BY image_id
"""


# ------------------------------------------------------------------ q72

def q72_cohort_retention(sf_dir: str):
    """Cohort retention matrix (product analytics): users grouped by
    FIRST-activity day; for each (cohort_day, day_offset), the number
    of cohort users active that day. ONE hash-partition shuffle (whole
    user groups per bucket — a user's cohort day and activity days are
    bucket-local), per-bucket vectorized distinct + partial counts, and
    a tiny driver sum (per-bucket user sets are disjoint, so partial
    counts add exactly)."""
    from wikicrawl.functions.joins import bucket_of

    ds = T(sf_dir, "events", ["user_id", "ts"])
    n_buckets = 32
    day_us = 86_400_000_000

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", pa.array(bucket_of(t["user_id"], n_buckets)))

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(np.int64)
        day = (g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
               // day_us)
        df = pd.DataFrame({"u": u, "day": day}).drop_duplicates()
        cohort = df.groupby("u", sort=False)["day"].transform("min")
        out = pd.DataFrame({"cohort_day": cohort,
                            "day_offset": df["day"] - cohort})
        return (out.groupby(["cohort_day", "day_offset"], sort=False)
                .size().rename("n_users").reset_index())

    parts = (ds.map_batches(tag, batch_format="pyarrow")
             .groupby("__bucket")
             .map_groups(bucket_counts, batch_format="pandas")
             .to_pandas())
    out = (parts.groupby(["cohort_day", "day_offset"], sort=True)["n_users"]
           .sum().reset_index())
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SQL_Q72 = """
WITH a AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // 86400000000 AS day
  FROM events
),
c AS (SELECT user_id, min(day) AS cohort_day FROM a GROUP BY 1)
SELECT c.cohort_day, a.day - c.cohort_day AS day_offset,
       count(*) AS n_users
FROM a JOIN c USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ------------------------------------------------------------------ q73

WATERMARK_DELAY_US = 20 * 86_400_000_000  # 20-day allowed lateness


def q73_late_events(sf_dir: str):
    """Watermark late-event detection over a simulated out-of-order
    replay: the testdata stream is time-sorted, so arrival order is the
    deterministic md5 permutation of event_id (the q45 shuffle key —
    both engines recompute it); an event is LATE when the running max
    event-time of everything that arrived BEFORE it exceeds its own
    event-time by more than the watermark delay. Distributed prefix
    scan in the q45 shape: 256 arrival-ordered hash-prefix buckets,
    per-bucket vectorized running max, per-bucket max ts to the driver
    (256 ints), exclusive prefix broadcast back, second vectorized
    pass emits the late rows. Shuffle = ONE groupby(bucket); driver
    traffic O(buckets)."""
    from wikicrawl.functions.dedup import token_hash_u64

    ds = T(sf_dir, "events", ["event_id", "event_type", "ts"])
    n_buckets = 256

    def tag(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.array([token_hash_u64(str(int(i))) for i in ids],
                     dtype=np.uint64)
        return pa.table({
            "event_id": t["event_id"], "event_type": t["event_type"],
            "ts": t["ts"],
            "__h": pa.array(h.view(np.int64)),
            "__bucket": pa.array((h >> np.uint64(56)).astype(np.int64)),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def bucket_scan(g: pd.DataFrame) -> pd.DataFrame:
        h = g["__h"].to_numpy().view(np.uint64)
        order = np.lexsort((g["event_id"].to_numpy(np.int64), h))
        ts = (g["ts"].to_numpy().astype("datetime64[us]")
              .astype(np.int64))[order]
        run = np.maximum.accumulate(ts)
        # exclusive prefix max within the bucket; -inf sentinel for row 0
        pmax = np.r_[np.int64(-(1 << 62)), run[:-1]]
        return pd.DataFrame({
            "bucket": g["__bucket"].to_numpy(np.int64)[order],
            "event_id": g["event_id"].to_numpy(np.int64)[order],
            "event_type": g["event_type"].to_numpy()[order],
            "ts_us": ts, "pmax_local": pmax,
            "pos": np.arange(len(ts), dtype=np.int64),
            "bucket_max": np.full(len(ts), run[-1] if len(ts) else 0,
                                  dtype=np.int64),
        })

    scanned = (tagged.groupby("__bucket")
               .map_groups(bucket_scan, batch_format="pandas")
               .materialize())
    # driver reduce: one (bucket, max) row per block -> exclusive prefix
    def block_bmax(t: pa.Table) -> pa.Table:
        b = t["bucket"].to_numpy(zero_copy_only=False)
        m = t["bucket_max"].to_numpy(zero_copy_only=False)
        ub, inv = np.unique(b, return_inverse=True)
        mx = np.full(len(ub), np.int64(-(1 << 62)), dtype=np.int64)
        np.maximum.at(mx, inv, m)
        return pa.table({"b": pa.array(ub.astype(np.int64)),
                         "m": pa.array(mx)})

    bmax = (scanned.map_batches(block_bmax, batch_format="pyarrow")
            .to_pandas().groupby("b")["m"].max())
    incoming = np.full(n_buckets, np.int64(-(1 << 62)), dtype=np.int64)
    run = np.int64(-(1 << 62))
    for b in range(n_buckets):
        incoming[b] = run
        if b in bmax.index:
            run = max(run, np.int64(bmax.loc[b]))

    def flag(t: pa.Table) -> pa.Table:
        b = t["bucket"].to_numpy(zero_copy_only=False)
        pmax = np.maximum(t["pmax_local"].to_numpy(zero_copy_only=False),
                          incoming[b])
        ts = t["ts_us"].to_numpy(zero_copy_only=False)
        late = pmax - ts > WATERMARK_DELAY_US
        return pa.table({
            "event_id": pa.array(t["event_id"].to_numpy(
                zero_copy_only=False)[late]),
            "event_type": pa.array(t["event_type"].to_numpy(
                zero_copy_only=False)[late]),
            "lateness_us": pa.array((pmax - ts)[late]),
        })

    out = scanned.map_batches(flag, batch_format="pyarrow").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


SQL_Q73 = f"""
WITH w AS (
  SELECT event_id, event_type, epoch_us(ts) AS ts_us,
         max(epoch_us(ts)) OVER (
           ORDER BY md5_number_upper(CAST(event_id AS VARCHAR)), event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pmax
  FROM events
)
SELECT event_id, event_type, CAST(pmax - ts_us AS BIGINT) AS lateness_us
FROM w
WHERE pmax IS NOT NULL AND pmax - ts_us > {WATERMARK_DELAY_US}
ORDER BY event_id
"""


# ------------------------------------------------------------------ q74

def q74_chunk_langid(sf_dir: str):
    """Per-chunk model scoring + per-document aggregation (the
    mixed-language screen): each doc splits into q31's 32-token chunks,
    every chunk runs the q14 marker-count language ID, and the doc's
    majority label (ties: count DESC, then lang code ASC) plus its
    support is reported. A document's chunks never leave its batch, so
    the whole chain — explode, score, vote — is ONE zero-shuffle
    map_batches. Emits (doc_id, n_chunks, maj_lang, n_maj_chunks)."""
    from wikicrawl.functions.textstats import LANG_MARKERS, LANG_ORDER

    ds = T(sf_dir, "documents", ["doc_id", "text"])

    def chunk_vote(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        c_doc, c_txt = [], []
        for i, text in enumerate(t["text"].to_pylist()):
            toks = F_dedup.tokenize(text)
            for ci in range(0, max(1, (len(toks) + CHUNK_TOKENS - 1)
                                   // CHUNK_TOKENS)):
                c_doc.append(ids[i])
                c_txt.append(" ".join(
                    toks[ci * CHUNK_TOKENS: (ci + 1) * CHUNK_TOKENS]))
        chunks = pa.table({"doc_id": pa.array(c_doc, pa.int64()),
                           "chunk_text": pa.array(c_txt, pa.string())})
        padded = pc.binary_join_element_wise(
            pa.array([" "] * chunks.num_rows), chunks["chunk_text"], " ", "")
        mat = np.stack([
            sum(pc.cast(F_text._count_sub(padded, m), pa.int64()).to_numpy()
                for m in LANG_MARKERS[lang])
            for lang in LANG_ORDER
        ]) if chunks.num_rows else np.zeros((len(LANG_ORDER), 0), np.int64)
        pred = np.array(LANG_ORDER, dtype=object)[np.argmax(mat, axis=0)]
        df = pd.DataFrame({"doc_id": np.asarray(c_doc, dtype=np.int64),
                           "pred": pred})
        vc = (df.groupby(["doc_id", "pred"], sort=False)
              .size().rename("c").reset_index())
        vc = vc.sort_values(["doc_id", "c", "pred"],
                            ascending=[True, False, True])
        top = vc.drop_duplicates("doc_id", keep="first")
        n_chunks = df.groupby("doc_id", sort=False).size().rename("n")
        top = top.merge(n_chunks.reset_index(), on="doc_id")
        return pa.table({
            "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
            "n_chunks": pa.array(top["n"].to_numpy(np.int64)),
            "maj_lang": pa.array(top["pred"].to_numpy(), pa.string()),
            "n_maj_chunks": pa.array(top["c"].to_numpy(np.int64)),
        })

    out = (ds.map_batches(chunk_vote, batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_q74() -> str:
    from wikicrawl.functions.textstats import LANG_MARKERS

    pad = "(' ' || array_to_string(w, ' ') || ' ')"
    score = {
        lang: " + ".join(_sql_count(pad, m) for m in markers)
        for lang, markers in LANG_MARKERS.items()
    }
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
c AS (
  SELECT doc_id,
         ts[(t.ci * {CHUNK_TOKENS} + 1):((t.ci + 1) * {CHUNK_TOKENS})] AS w
  FROM toks, LATERAL unnest(generate_series(
      0, CAST(ceil(greatest(len(ts), 1) / {CHUNK_TOKENS}.0) AS BIGINT) - 1
  )) AS t(ci)
),
sc AS (
  SELECT doc_id,
         {score['en']} AS score_en, {score['fr']} AS score_fr,
         {score['es']} AS score_es, {score['de']} AS score_de
  FROM c
),
pr AS (
  SELECT doc_id,
         CASE WHEN score_en >= score_fr AND score_en >= score_es
                   AND score_en >= score_de THEN 'en'
              WHEN score_fr >= score_es AND score_fr >= score_de THEN 'fr'
              WHEN score_es >= score_de THEN 'es'
              ELSE 'de' END AS pred
  FROM sc
),
vc AS (SELECT doc_id, pred, count(*) AS c FROM pr GROUP BY 1, 2),
maj AS (
  SELECT doc_id, pred, c,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY c DESC, pred ASC) AS rn
  FROM vc
),
n AS (SELECT doc_id, count(*) AS n_chunks FROM pr GROUP BY 1)
SELECT m.doc_id, n.n_chunks, m.pred AS maj_lang, m.c AS n_maj_chunks
FROM maj m JOIN n USING (doc_id) WHERE m.rn = 1
ORDER BY doc_id
"""


# ------------------------------------------------------------------ q75

CENTROID_GRID = 1 << 20  # 2^-20 quantization grid (the q23 precedent)


def q75_label_centroids(sf_dir: str):
    """Distributed VECTOR aggregation: per-label embedding centroids.
    Floats are order-dependent under addition, so each component is
    quantized to the 2^-20 grid FIRST (round-half-up, the q23 k-means
    precedent); int64 sums are then exact and order-free, and the mean
    is a sign-split truncating divide (the q56 rule, matching DuckDB
    ``//``). Per-batch partial (label x dim) sums via np.add.at, ONE
    groupby over O(labels x dims x blocks) partial rows — the corpus
    vectors never shuffle. Emits (label, dim, centroid_q, n_vecs)."""
    ds = T(sf_dir, "embeddings", ["embedding", "label"])

    def partials(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = t["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        dim = len(flat) // max(len(lab), 1) if len(lab) else 0
        q = np.floor(flat.astype(np.float64) * CENTROID_GRID + 0.5
                     ).astype(np.int64).reshape(len(lab), dim)
        ul, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(ul), dim), dtype=np.int64)
        np.add.at(sums, inv, q)
        cnt = np.bincount(inv).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(ul, dim)),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                    len(ul))),
            "s": pa.array(sums.ravel()),
            "n": pa.array(np.repeat(cnt, dim)),
        })

    agg = (ds.map_batches(partials, batch_format="pyarrow")
           .groupby(["label", "dim"])
           .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
           .to_pandas())
    s = agg["s"].to_numpy(np.int64)
    n = agg["n"].to_numpy(np.int64)
    agg["centroid_q"] = np.where(s >= 0, s // n, -((-s) // n))
    agg["n_vecs"] = n
    out = agg[["label", "dim", "centroid_q", "n_vecs"]].sort_values(
        ["label", "dim"]).reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


SQL_Q75 = f"""
WITH x AS (
  SELECT e.label, t.d - 1 AS dim,
         CAST(floor(CAST(e.embedding[t.d] AS DOUBLE) * {CENTROID_GRID}
                    + 0.5) AS BIGINT) AS q
  FROM embeddings e,
       LATERAL unnest(generate_series(1, len(e.embedding))) AS t(d)
),
s AS (
  SELECT label, dim, sum(q)::HUGEINT AS s, count(*)::HUGEINT AS n
  FROM x GROUP BY 1, 2
)
SELECT CAST(label AS BIGINT) AS label, CAST(dim AS BIGINT) AS dim,
       CAST(CASE WHEN s >= 0 THEN s // n ELSE -((-s) // n) END AS BIGINT)
         AS centroid_q,
       CAST(n AS BIGINT) AS n_vecs
FROM s ORDER BY label, dim
"""


# ------------------------------------------------------------------ q76

def q76_skyline(sf_dir: str):
    """2-D skyline (Pareto frontier) of orders: keep every order no other
    order strictly beats on BOTH dims (higher total price AND earlier
    date) — the classic multi-objective shortlist. Distributed
    local-prune + exact-merge shape: each block keeps only its own
    frontier (pure comparisons — no float arithmetic, so doubles are
    safe), and the driver finishes the exact rule over the pruned union.
    Partitioning note: pruned volume is O(per-block frontier x blocks);
    for adversarial anti-correlated data, cascade the merge as a second
    tree level instead of one driver pass."""
    ds = T(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def survivors(keys, prices, dates):
        order = np.lexsort((dates, -prices))
        k, p, d = keys[order], prices[order], dates[order]
        run = np.minimum.accumulate(d)
        first = np.searchsorted(-p, -p, side="left")  # first row of my price
        run_excl = np.where(first == 0, np.int64(1 << 62), run[first - 1])
        keep = d <= run_excl  # no strictly-higher price has a strictly
        return k[keep], p[keep], d[keep]  # earlier date

    def local_prune(t: pa.Table) -> pa.Table:
        keys = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        prices = t["o_totalprice"].to_numpy(zero_copy_only=False)
        dates = (t["o_orderdate"].to_numpy(zero_copy_only=False)
                 .astype("datetime64[us]").astype(np.int64))
        k, p, d = survivors(keys, prices, dates)
        return pa.table({"o_orderkey": pa.array(k),
                         "o_totalprice": pa.array(p),
                         "odate_us": pa.array(d)})

    pruned = ds.map_batches(local_prune, batch_format="pyarrow").to_pandas()
    k, p, d = survivors(pruned["o_orderkey"].to_numpy(np.int64),
                        pruned["o_totalprice"].to_numpy(),
                        pruned["odate_us"].to_numpy(np.int64))
    out = pd.DataFrame({"o_orderkey": k, "o_totalprice": p, "odate_us": d})
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_Q76 = """
WITH p1 AS (
  SELECT o_totalprice AS pr, min(epoch_us(o_orderdate)) AS md
  FROM orders GROUP BY 1
),
p2 AS (
  SELECT pr, min(md) OVER (ORDER BY pr DESC
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS run
  FROM p1
)
SELECT o.o_orderkey, o.o_totalprice, epoch_us(o.o_orderdate) AS odate_us
FROM orders o JOIN p2 ON p2.pr = o.o_totalprice
WHERE p2.run IS NULL OR epoch_us(o.o_orderdate) <= p2.run
ORDER BY o_orderkey
"""


# ------------------------------------------------------------------ q77

def q77_cube(sf_dir: str):
    """CUBE grouping sets over the event stream — (day x type), (day),
    (type), grand total in ONE pass (q66's rollup extended to the full
    lattice): per-batch integer partials, one distributed groupby over
    the finest (day, event_type) level, and the three super-levels
    re-aggregate the tiny reduced result on the driver. Sentinels:
    day = -1, event_type = 'ALL'."""
    ds = T(sf_dir, "events", ["ts", "event_type", "value"])
    day_us = 86_400_000_000

    def partials(t: pa.Table) -> pa.Table:
        day = (t["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64) // day_us)
        vm = np.floor(t["value"].to_numpy(zero_copy_only=False)
                      * 1000.0).astype(np.int64)
        df = pd.DataFrame({"day": day,
                           "event_type": t["event_type"].to_numpy(
                               zero_copy_only=False),
                           "vm": vm})
        p = (df.groupby(["day", "event_type"], sort=False)
             .agg(n_events=("vm", "size"), sum_milli=("vm", "sum"))
             .reset_index())
        return pa.Table.from_pandas(
            p, preserve_index=False).replace_schema_metadata(None)

    base = (ds.map_batches(partials, batch_format="pyarrow")
            .groupby(["day", "event_type"])
            .aggregate(Sum("n_events", alias_name="n_events"),
                       Sum("sum_milli", alias_name="sum_milli"))
            .to_pandas())
    cols = ["day", "event_type", "n_events", "sum_milli"]
    lv_day = base.groupby("day", as_index=False)[
        ["n_events", "sum_milli"]].sum()
    lv_day["event_type"] = "ALL"
    lv_typ = base.groupby("event_type", as_index=False)[
        ["n_events", "sum_milli"]].sum()
    lv_typ["day"] = -1
    total = pd.DataFrame({"day": [-1], "event_type": ["ALL"],
                          "n_events": [base["n_events"].sum()],
                          "sum_milli": [base["sum_milli"].sum()]})
    out = pd.concat([base[cols], lv_day[cols], lv_typ[cols], total[cols]],
                    ignore_index=True)
    for c in ("day", "n_events", "sum_milli"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["day", "event_type"]).reset_index(drop=True)


SQL_Q77 = """
WITH e AS (
  SELECT epoch_us(ts) // 86400000000 AS day, event_type,
         CAST(floor(value * 1000) AS BIGINT) AS vm
  FROM events
)
SELECT CAST(coalesce(day, -1) AS BIGINT) AS day,
       coalesce(event_type, 'ALL') AS event_type,
       count(*) AS n_events, CAST(sum(vm) AS BIGINT) AS sum_milli
FROM e GROUP BY CUBE (day, event_type) ORDER BY 1, 2
"""


# ------------------------------------------------------------------ q78

VID_FRAMES = 8   # synthetic frames per video
VID_EVERY = 3    # sample every Nth frame (0, 3, 6)
_VID_C3 = 131    # frame-index mixing constant (pixel formula)


def q78_video_frames(sf_dir: str):
    """Video frame sampling through the REAL WCV container (codec.py):
    per doc_id a deterministic 8-frame video of 8x8 RGB PNG frames is
    wcv_encode'd, the actor-pool :class:`SampleVideoFrames` stage samples
    every 3rd frame by length-prefix SEEK (unsampled frames never
    inflate), and each sampled frame round-trips the real PNG decoder
    into integer per-channel means. Closes the last multimodal stub
    (VERDICT r4 #4) with the q38/q39 closed-form SQL-twin pattern:
    pixel v = (doc_id*C1 + f*C3 + i*C2) % 256 over generate_series."""
    from wikicrawl import codec
    from wikicrawl.stages.image_stages import SampleVideoFrames

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        vids = []
        for did in ids.tolist():
            frames = [
                (((did * _IMG_C1 + f * _VID_C3 + idx * _IMG_C2) % 256)
                 .astype(np.uint8).reshape(IMG_H, IMG_W, 3))
                for f in range(VID_FRAMES)
            ]
            vids.append(codec.wcv_encode(frames))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(vids, pa.binary())})

    # autoscaling actor pool (min 1): a FIXED pool of size C deadlocks
    # when C == the session's whole CPU count (upstream synth tasks
    # starve) — the per-stage concurrency sizing rule
    sampled = ds.map_batches(synth, batch_format="pyarrow").map_batches(
        SampleVideoFrames,
        fn_constructor_kwargs={"every_n_frames": VID_EVERY},
        batch_format="pyarrow", batch_size=128, concurrency=(1, 4))

    area = IMG_W * IMG_H

    def means(t: pa.Table) -> pa.Table:
        out = {k: [] for k in
               ("doc_id", "frame_idx", "mean_r", "mean_g", "mean_b")}
        for did, payloads, idxs in zip(t["doc_id"].to_pylist(),
                                       t["frames"].to_pylist(),
                                       t["frame_idx"].to_pylist()):
            for p, fi in zip(payloads, idxs):
                px = codec.png_decode(p).astype(np.int64)  # real decode
                out["doc_id"].append(did)
                out["frame_idx"].append(fi)
                out["mean_r"].append(int(px[:, :, 0].sum()) // area)
                out["mean_g"].append(int(px[:, :, 1].sum()) // area)
                out["mean_b"].append(int(px[:, :, 2].sum()) // area)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    out = sampled.map_batches(means, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "frame_idx"]).reset_index(drop=True)


SQL_Q78 = f"""
WITH fr AS (
  SELECT d.doc_id, g.f
  FROM documents d, generate_series(0, {VID_FRAMES - 1}) AS g(f)
  WHERE g.f % {VID_EVERY} = 0
),
px AS (
  SELECT doc_id, f, t.i % 3 AS ch,
         (doc_id * {_IMG_C1} + f * {_VID_C3} + t.i * {_IMG_C2}) % 256 AS v
  FROM fr, generate_series(0, {IMG_W * IMG_H * 3 - 1}) AS t(i)
)
SELECT doc_id, f AS frame_idx,
       CAST(sum(CASE WHEN ch = 0 THEN v ELSE 0 END)
            // {IMG_W * IMG_H} AS BIGINT) AS mean_r,
       CAST(sum(CASE WHEN ch = 1 THEN v ELSE 0 END)
            // {IMG_W * IMG_H} AS BIGINT) AS mean_g,
       CAST(sum(CASE WHEN ch = 2 THEN v ELSE 0 END)
            // {IMG_W * IMG_H} AS BIGINT) AS mean_b
FROM px
GROUP BY doc_id, f
ORDER BY doc_id, frame_idx
"""


# ------------------------------------------------------------------ q79

PACK_CAP = 64     # tokens per packed training sequence
PACK_PARTS = 8    # independent packing streams (hash partitions)


def q79_sequence_packing(sf_dir: str):
    """GPT-style training-sequence PACKING (concat-and-chunk): docs are
    hash-routed to PACK_PARTS independent streams (md5 of doc_id — q45's
    shuffle key), concatenated in doc_id order within each stream, and
    the token stream is cut at PACK_CAP-token boundaries (docs straddle
    sequences — the standard LLM pretraining layout, vs q31's per-doc
    chunking). Emits one row per packed sequence:
    (part, seq_id, n_docs, n_tokens, first_doc, last_doc).

    Scale shape: the corpus-wide map_batches ships 24 bytes per doc off
    the node (part, id, token count — the TEXT never shuffles), then ONE
    co-partitioned groupby over PACK_PARTS keys; each stream's pack is a
    sorted cumsum + two vectorized searchsorteds — O(docs) work,
    O(total_tokens / PACK_CAP) output rows. At 100 TB raise PACK_PARTS
    (streams are independent by construction); the oracle replays the
    identical layout as a window cumsum + span explode."""
    ds = T(sf_dir, "documents", ["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nt = np.array([len(F_dedup.tokenize(x))
                       for x in t["text"].to_pylist()], dtype=np.int64)
        part = np.array(
            [F_dedup.token_hash_u64(str(i)) % PACK_PARTS
             for i in ids.tolist()], dtype=np.int64)
        keep = nt > 0
        return pa.table({"part": pa.array(part[keep]),
                         "doc_id": pa.array(ids[keep]),
                         "nt": pa.array(nt[keep])})

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        nt = g["nt"].to_numpy()
        ends = np.cumsum(nt)
        starts = ends - nt
        total = int(ends[-1])
        n_seqs = (total + PACK_CAP - 1) // PACK_CAP
        s = np.arange(n_seqs, dtype=np.int64)
        lo = s * PACK_CAP
        hi = np.minimum(lo + PACK_CAP, total)
        # docs covering seq s: start < hi[s] and end > lo[s]
        first = np.searchsorted(ends, lo, side="right")
        last = np.searchsorted(starts, hi, side="left") - 1
        ids = g["doc_id"].to_numpy()
        return pd.DataFrame({
            "part": np.full(n_seqs, int(g["part"].iloc[0]), dtype=np.int64),
            "seq_id": s,
            "n_docs": (last - first + 1).astype(np.int64),
            "n_tokens": (hi - lo).astype(np.int64),
            "first_doc": ids[first],
            "last_doc": ids[last],
        })

    out = (ds.map_batches(counts, batch_format="pyarrow")
           .groupby("part").map_groups(pack, batch_format="pandas")
           .to_pandas())
    return out.sort_values(["part", "seq_id"]).reset_index(drop=True)


SQL_Q79 = f"""
WITH d AS (
  SELECT doc_id,
         CAST(md5_number_upper(CAST(doc_id AS VARCHAR)) % {PACK_PARTS}
              AS BIGINT) AS part,
         len(regexp_extract_all(text, '\\S+')) AS nt
  FROM documents
),
o AS (
  SELECT doc_id, part, nt,
         CAST(sum(nt) OVER w - nt AS BIGINT) AS st,
         CAST(sum(nt) OVER w AS BIGINT) AS en
  FROM d WHERE nt > 0
  WINDOW w AS (PARTITION BY part ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
),
tot AS (SELECT part, max(en) AS total FROM o GROUP BY part),
spans AS (
  SELECT part, doc_id, t.s
  FROM o, LATERAL unnest(generate_series(
      st // {PACK_CAP}, (en - 1) // {PACK_CAP})) AS t(s)
)
SELECT sp.part, sp.s AS seq_id,
       count(*) AS n_docs,
       CAST(least({PACK_CAP} * (sp.s + 1), tt.total)
            - {PACK_CAP} * sp.s AS BIGINT) AS n_tokens,
       min(sp.doc_id) AS first_doc,
       max(sp.doc_id) AS last_doc
FROM spans sp JOIN tot tt USING (part)
GROUP BY sp.part, sp.s, tt.total
ORDER BY part, seq_id
"""


# ------------------------------------------------------------------ q80

QSKETCH_PCTS = (50, 90, 99)


def _ilog2_exact(x: np.ndarray) -> np.ndarray:
    """Exact floor(log2(x)) for int64 x >= 1 via bit-smearing — never
    np.log2 (float rounding can flip just-below-power-of-two boundaries
    at large x: the q48 class of bug, made structurally impossible)."""
    v = x.astype(np.uint64)
    r = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        r[m] += s
        v[m] >>= np.uint64(s)
    return r


def q80_quantile_sketch(sf_dir: str):
    """MERGEABLE log2-grid quantile sketch — the constant-size-partials
    path for when q47's exact per-value histogram is too wide to shuffle
    (100 TB: billions of distinct values, but only ~64 log2 buckets).
    Per-lang token-count distribution: every block emits (lang, bucket,
    cnt) partials, the driver merges O(blocks x langs x 64) ints and
    reads p50/p90/p99 bucket LOWER BOUNDS (2^b) at q47's discrete
    ceil-rank rule. The sketch is approximate in VALUE (grid-bounded,
    2x per bucket) but fully deterministic, so the oracle recomputes the
    identical grid and the comparison is exact."""
    ds = T(sf_dir, "documents", ["lang", "text"])

    def partials(t: pa.Table) -> pa.Table:
        nt = np.array([len(F_dedup.tokenize(x))
                       for x in t["text"].to_pylist()], dtype=np.int64)
        b = _ilog2_exact(np.maximum(nt, 1))
        gp = (pd.DataFrame({"lang": t["lang"].to_pylist(), "b": b})
              .groupby(["lang", "b"], sort=False).size()
              .reset_index(name="cnt"))
        return pa.table({"lang": pa.array(gp["lang"], pa.string()),
                         "b": pa.array(gp["b"], pa.int64()),
                         "cnt": pa.array(gp["cnt"], pa.int64())})

    parts = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    h = parts.groupby(["lang", "b"], as_index=False)["cnt"].sum()
    rows = []
    for lang, g in h.groupby("lang"):
        g = g.sort_values("b")
        cum = g["cnt"].cumsum().to_numpy()
        bs = g["b"].to_numpy()
        n = int(cum[-1])
        row = {"lang": lang, "n_docs": n}
        for p in QSKETCH_PCTS:
            rank = (n * p + 99) // 100  # ceil-rank, integer domain
            row[f"p{p}_lb"] = 1 << int(bs[np.searchsorted(cum, rank)])
        rows.append(row)
    out = pd.DataFrame(rows).sort_values("lang").reset_index(drop=True)
    return out[["lang", "n_docs", "p50_lb", "p90_lb", "p99_lb"]]


SQL_Q80 = """
WITH d AS (
  SELECT lang,
         length(bin(greatest(len(regexp_extract_all(text, '\\S+')), 1)))
           - 1 AS b
  FROM documents
),
h AS (SELECT lang, b, count(*) AS cnt FROM d GROUP BY 1, 2),
c AS (
  SELECT lang, b, cnt,
         sum(cnt) OVER (PARTITION BY lang ORDER BY b) AS cum,
         sum(cnt) OVER (PARTITION BY lang) AS n
  FROM h
)
SELECT lang, CAST(max(n) AS BIGINT) AS n_docs,
       CAST(CAST(1 AS BIGINT) << min(
         CASE WHEN cum >= (n * 50 + 99) // 100 THEN b END) AS BIGINT) AS p50_lb,
       CAST(CAST(1 AS BIGINT) << min(
         CASE WHEN cum >= (n * 90 + 99) // 100 THEN b END) AS BIGINT) AS p90_lb,
       CAST(CAST(1 AS BIGINT) << min(
         CASE WHEN cum >= (n * 99 + 99) // 100 THEN b END) AS BIGINT) AS p99_lb
FROM c GROUP BY lang ORDER BY lang
"""


# ------------------------------------------------------------------ q81


def q81_source_overlap(sf_dir: str):
    """Cross-SOURCE n-gram contamination matrix (dataset-mixing
    diagnostics): for every source pair, the count of distinct word
    3-grams both contain and the Jaccard overlap of their gram SETS.
    Scale shape: q24's inverted-index explode keyed by source, ONE
    gram-hash-partitioned shuffle; inside each partition the distinct
    (gram, source) presence matrix collapses to a sources x sources
    co-occurrence block via one matmul, so the driver merges only
    O(partitions x sources^2) ints — the gram table itself never leaves
    its owning partition and nothing is broadcast. Grows with sources^2,
    not corpus size (sources = dataset-mixing components, dozens)."""
    ds = T(sf_dir, "documents", ["source", "text"])
    exploded = ds.map_batches(
        lambda t: F_dedup.ngram_explode_batch(t, NGRAM_N, "source", "text"),
        batch_format="pyarrow")

    def cooc(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["gh", "source"])
        if len(g) == 0:
            return pd.DataFrame({"source_a": pd.Series([], dtype=object),
                                 "source_b": pd.Series([], dtype=object),
                                 "shared": pd.Series([], dtype=np.int64)})
        srcs, s_idx = np.unique(g["source"].to_numpy(), return_inverse=True)
        _, g_idx = np.unique(g["gh"].to_numpy(), return_inverse=True)
        m = np.zeros((int(g_idx.max()) + 1, len(srcs)), dtype=np.int64)
        m[g_idx, s_idx] = 1
        c = m.T @ m
        ia, ib = np.triu_indices(len(srcs))
        return pd.DataFrame({"source_a": srcs[ia], "source_b": srcs[ib],
                             "shared": c[ia, ib]})

    parts = (exploded.groupby("__pb").map_groups(cooc, batch_format="pandas")
             .to_pandas())
    tot = parts.groupby(["source_a", "source_b"], as_index=False)["shared"].sum()
    diag = {r.source_a: int(r.shared)
            for r in tot[tot.source_a == tot.source_b].itertuples()}
    off = tot[(tot.source_a != tot.source_b) & (tot.shared > 0)].copy()
    sh = off["shared"].to_numpy()
    na = off["source_a"].map(diag).to_numpy()
    nb = off["source_b"].map(diag).to_numpy()
    off["n_shared"] = sh
    off["jaccard_milli"] = (1000 * sh) // (na + nb - sh)
    out = off[["source_a", "source_b", "n_shared", "jaccard_milli"]]
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


SQL_Q81 = f"""
WITH toks AS (
  SELECT source, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
grams AS (
  SELECT DISTINCT source,
     md5_number_upper(ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]) AS gh
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - {NGRAM_N - 1}))
       AS t(i)
),
tot AS (SELECT source, count(*) AS n FROM grams GROUP BY 1),
pairs AS (
  SELECT a.source AS source_a, b.source AS source_b, count(*) AS n_shared
  FROM grams a JOIN grams b ON a.gh = b.gh AND a.source < b.source
  GROUP BY 1, 2
)
SELECT p.source_a, p.source_b, p.n_shared,
       CAST((1000 * p.n_shared) // (ta.n + tb.n - p.n_shared)
            AS BIGINT) AS jaccard_milli
FROM pairs p
JOIN tot ta ON ta.source = p.source_a
JOIN tot tb ON tb.source = p.source_b
ORDER BY source_a, source_b
"""


# ------------------------------------------------------------------ q82

BITEXT_LANG_A, BITEXT_LANG_B = "en", "fr"


def q82_bitext_mining(sf_dir: str):
    """Cross-lingual BITEXT MINING (the mined-parallel-corpus op, CCMatrix
    style): mutual-best cosine matches between the en and fr documents'
    embeddings — a pair survives only if each side is the other's argmax
    (ties at micro precision break to the smaller counterpart id, both
    directions). Emits (en_doc, fr_doc, sim_micro).

    Scale shape: the fr side (the smaller mined-against index) joins via
    a broadcast id->lang probe and ships ONCE via ray.put; one streaming
    pass over the en side does a float64 matmul per batch and emits its
    per-row argmax (FINAL for the en direction) plus a per-batch partial
    argmax per fr column — the driver reduce sees O(batches x |fr|) rows,
    never the corpus. For an fr side too big to broadcast, tile it in
    column blocks (q19's blocked chunk-pairs) and keep a running per-row
    max — the partial/mutual algebra is unchanged. Cosine quantization
    follows q20 exactly (unit-normalized matmul, round_half_away micro)."""
    docs = _pdf(sf_dir, "documents", ["doc_id", "lang"])
    a_ids = set(docs.loc[docs.lang == BITEXT_LANG_A, "doc_id"].tolist())
    b_df = docs.loc[docs.lang == BITEXT_LANG_B, ["doc_id"]]
    emb = _pdf(sf_dir, "embeddings", ["vec_id", "embedding"])
    b_emb = emb.merge(b_df, left_on="vec_id", right_on="doc_id")
    b_emb = b_emb.sort_values("vec_id")
    if len(b_emb) == 0 or not a_ids:
        return pd.DataFrame({"en_doc": pd.Series([], dtype=np.int64),
                             "fr_doc": pd.Series([], dtype=np.int64),
                             "sim_micro": pd.Series([], dtype=np.int64)})
    b_ids = b_emb["vec_id"].to_numpy()
    b_unit = F_sim._unit(np.stack(b_emb["embedding"].to_numpy())
                         .astype(np.float64))
    bref = ray.put({"ids": b_ids, "unit": b_unit})
    a_key = ray.put(np.array(sorted(a_ids), dtype=np.int64))

    def best(t: pa.Table) -> pa.Table:
        from wikicrawl.functions._cache import broadcast_cached

        b = broadcast_cached(bref, lambda x: x)
        akeys = broadcast_cached(a_key, lambda x: x)
        ids = t["vec_id"].to_numpy()
        pos = np.searchsorted(akeys, ids)
        keep = (pos < len(akeys)) & (akeys[np.minimum(pos, len(akeys) - 1)]
                                     == ids)
        if not keep.any():
            return pa.table({"side": pa.array([], pa.string()),
                             "key": pa.array([], pa.int64()),
                             "match": pa.array([], pa.int64()),
                             "sim_micro": pa.array([], pa.int64())})
        t = t.filter(pa.array(keep)).sort_by("vec_id")
        ids = t["vec_id"].to_numpy()
        mat = np.stack(t["embedding"].to_numpy()).astype(np.float64)
        micro = round_half_away(F_sim._unit(mat) @ b["unit"].T, 1_000_000)
        # per-en argmax: first max column = smallest fr id (b_ids sorted)
        j = np.argmax(micro, axis=1)
        rows = np.arange(len(ids))
        # per-fr PARTIAL argmax over this batch's rows: first max row =
        # smallest en id (ids sorted)
        i = np.argmax(micro, axis=0)
        cols = np.arange(len(b["ids"]))
        return pa.table({
            "side": pa.array(["a"] * len(ids) + ["b"] * len(cols)),
            "key": pa.array(np.concatenate([ids, b["ids"]]), pa.int64()),
            "match": pa.array(np.concatenate([b["ids"][j], ids[i]]),
                              pa.int64()),
            "sim_micro": pa.array(
                np.concatenate([micro[rows, j], micro[i, cols]]), pa.int64()),
        })

    parts = (T(sf_dir, "embeddings", ["vec_id", "embedding"])
             .map_batches(best, batch_format="pyarrow").to_pandas())
    a_best = parts[parts.side == "a"]
    b_parts = parts[parts.side == "b"].sort_values(
        ["key", "sim_micro", "match"], ascending=[True, False, True],
        kind="mergesort")
    b_best = b_parts.drop_duplicates("key")  # global fr-side argmax
    merged = a_best.merge(
        b_best, left_on=["key", "match"], right_on=["match", "key"],
        suffixes=("", "_b"))
    out = (merged[["key", "match", "sim_micro"]]
           .rename(columns={"key": "en_doc", "match": "fr_doc"}))
    return out.sort_values("en_doc").reset_index(drop=True)


SQL_Q82 = f"""
WITH d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
a AS (SELECT doc_id, emb FROM documents JOIN d ON vec_id = doc_id
      WHERE lang = '{BITEXT_LANG_A}'),
b AS (SELECT doc_id, emb FROM documents JOIN d ON vec_id = doc_id
      WHERE lang = '{BITEXT_LANG_B}'),
sims AS (
  SELECT a.doc_id AS en_doc, b.doc_id AS fr_doc,
         CAST(round(list_cosine_similarity(a.emb, b.emb) * 1000000)
              AS BIGINT) AS sim_micro
  FROM a CROSS JOIN b
),
ab AS (SELECT *, row_number() OVER (PARTITION BY en_doc
         ORDER BY sim_micro DESC, fr_doc) AS ra FROM sims),
ba AS (SELECT en_doc, fr_doc, row_number() OVER (PARTITION BY fr_doc
         ORDER BY sim_micro DESC, en_doc) AS rb FROM sims)
SELECT ab.en_doc AS en_doc, ab.fr_doc AS fr_doc, ab.sim_micro
FROM ab JOIN ba ON ab.en_doc = ba.en_doc AND ab.fr_doc = ba.fr_doc
WHERE ab.ra = 1 AND ba.rb = 1
ORDER BY ab.en_doc
"""


# ------------------------------------------------------------------ q83

ZORDER_BITS = 8          # per-dimension grid resolution (256 cells)
ZORDER_BUCKET_SHIFT = 12  # keep the top 4 of the 16 z bits -> 16 buckets


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 8 bits of v so bit i lands at position 2i (the
    classic Morton interleave half, vectorized on uint64)."""
    v = v.astype(np.uint64) & np.uint64(0xFF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555)
    return v


def q83_zorder_layout(sf_dir: str):
    """Z-ORDER (Morton) clustering layout pass + the data-skipping stats
    it exists to produce — the multi-dimensional analogue of sorting
    that 100-TB table layouts use so range predicates on EITHER
    dimension prune whole files. Events are placed on a 256x256 grid
    (x = user_id mod 256, y = floor(value) mod 256 — production would
    quantile-scale each dim first), bit-interleaved to a 16-bit z
    value, and grouped by the top 4 z bits (16 spatial quadrant
    buckets = the file boundaries a writer would cut). Emits per bucket
    the row count and each dimension's min/max — exactly the footer
    stats a scan planner prunes against.

    Scale shape: ZERO shuffles — the bucket id is a pure function of
    the row, per-batch partials are (16 x 7 ints), and the driver
    merge is O(blocks x 16). The actual reorganization at scale is
    ``repartition`` by contiguous z ranges (same key, one exchange);
    the stats pass shown here is what decides those cut points."""
    ds = T(sf_dir, "events", ["user_id", "value"])

    def partials(t: pa.Table) -> pa.Table:
        x = (t["user_id"].to_numpy().astype(np.int64)
             % (1 << ZORDER_BITS))
        y = (np.floor(t["value"].to_numpy()).astype(np.int64)
             % (1 << ZORDER_BITS))
        z = (_part1by1(x) << np.uint64(1)) | _part1by1(y)
        b = (z >> np.uint64(ZORDER_BUCKET_SHIFT)).astype(np.int64)
        df = pd.DataFrame({"zbucket": b, "x": x, "y": y})
        g = df.groupby("zbucket").agg(
            n_rows=("x", "size"), min_x=("x", "min"), max_x=("x", "max"),
            min_y=("y", "min"), max_y=("y", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    p = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    out = p.groupby("zbucket", as_index=False).agg(
        n_rows=("n_rows", "sum"), min_x=("min_x", "min"),
        max_x=("max_x", "max"), min_y=("min_y", "min"),
        max_y=("max_y", "max"))
    out = out.astype({c: np.int64 for c in out.columns})
    return out.sort_values("zbucket").reset_index(drop=True)


def _sql_q83() -> str:
    interleave = " + ".join(
        f"(((x >> {i}) & 1) << {2 * i + 1}) + (((y >> {i}) & 1) << {2 * i})"
        for i in range(ZORDER_BITS))
    return f"""
WITH g AS (
  SELECT user_id % {1 << ZORDER_BITS} AS x,
         CAST(floor(value) AS BIGINT) % {1 << ZORDER_BITS} AS y
  FROM events
),
z AS (SELECT x, y, ({interleave}) >> {ZORDER_BUCKET_SHIFT} AS zbucket FROM g)
SELECT zbucket, count(*) AS n_rows,
       min(x) AS min_x, max(x) AS max_x,
       min(y) AS min_y, max(y) AS max_y
FROM z GROUP BY zbucket ORDER BY zbucket
"""


# ------------------------------------------------------------------ q84

PQ_M = 4      # subspaces: 64 float dims -> 4 uint8 codes (64x compression)
PQ_DIM = 64   # embeddings table dim (same table-shape assumption as q21's
# integer projection planes, lsh_planes(64))
PQ_RECALL_FLOOR_MILLI = 200  # committed floor on MEAN recall@5: random
# synthetic embeddings are PQ's worst case (no subspace structure to
# exploit: 4 cosine-argmax codes over 16-dim random subvectors retain
# little of the full-vector ordering); observed mean recall 0.25-0.45
# across the test scales — the report exists to MEASURE the tradeoff of
# the 64x compression, not to flatter it.


def q84_pq_adc_raw(sf_dir: str):
    """Raw PQ-ADC approximate top-k (Jegou et al. 2011): 4 deterministic
    subspace codebooks (q23's hash-seeded grid-quantized k-means per
    16-dim block), uint8 codes, integer LUT-sum asymmetric scores."""
    qdf = _pdf(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = qdf[qdf.vec_id < N_QUERY_VECS].sort_values("vec_id")
    out = F_sim.pq_topk(
        T(sf_dir, "embeddings", ["vec_id", "embedding"]),
        qdf["vec_id"].to_numpy(),
        np.stack(qdf["embedding"].to_numpy()),
        k=TOPK, m=PQ_M, n_centroids=IVF_N_CENTROIDS,
        train_sample=IVF_TRAIN_SAMPLE,
    ).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return out[["query_id", "neighbor_id", "adc_micro", "rank"]]


def q84_pq_adc(sf_dir: str):
    """PRODUCT-QUANTIZATION ANN recall report — the embedding-COMPRESSION
    scale path (q23 shrinks the SEARCH, PQ shrinks the VECTORS: 64
    float32 dims -> 4 uint8 codes, so a 100-TB embedding corpus scans
    from a 1.6-GB-per-billion-codes table instead of re-reading floats).
    Fully SQL-expressible for the same reason as q23: every subspace
    codebook is the deterministic hash-seeded k-means on the BY-RULE
    sample, codes are micro-quantized cosine argmaxes, and the ADC
    score is an INTEGER sum of per-subspace micro sims, so the oracle
    unrolls all 4 training chains + encoding + LUT scoring as CTEs.

    Scale shape: train on the bounded sample (driver), broadcast
    codebooks + per-query LUTs once (m x 16 ints per query), ONE
    streaming pass encodes each batch and gathers LUT sums; the reduce
    sees batches x queries x k rows. Recall@k is judged against the
    exact q20 top-k with a committed floor (q21/q23 pattern)."""
    pq = q84_pq_adc_raw(sf_dir)
    exact = q20_ann_topk(sf_dir)
    rows = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g.neighbor_id)
        got = set(pq[pq.query_id == qid].neighbor_id)
        rows.append((int(qid),
                     int(len(truth & got) * 1000 // max(len(truth), 1))))
    df = pd.DataFrame(rows, columns=["query_id", "recall_milli"])
    mean_milli = int(df.recall_milli.sum()) // max(len(df), 1)
    df["meets_floor"] = mean_milli >= PQ_RECALL_FLOOR_MILLI
    return df


def _pq_cent_ctes() -> list[str]:
    """q84 oracle prefix: PQ_M independent copies of q23's unrolled
    k-means chain, each over one contiguous subvector slice
    (``emb[lo:hi]``, DuckDB 1-based inclusive). MATERIALIZED throughout:
    each round CTE is referenced twice, and with PQ_M parallel chains
    the inline-per-reference blowup q63 hit would be 4x worse."""
    grid = F_sim.IVF_CENT_GRID
    sim = _SIM_MICRO_SQL
    sub = PQ_DIM // PQ_M
    ctes = [
        "d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb "
        "FROM embeddings)",
        f"train AS (SELECT vec_id, emb FROM d WHERE vec_id < "
        f"{IVF_TRAIN_SAMPLE})",
    ]
    for j in range(PQ_M):
        lo, hi = j * sub + 1, (j + 1) * sub
        ctes.append(f"tr{j} AS (SELECT vec_id, emb[{lo}:{hi}] AS emb "
                    f"FROM train)")
        ctes.append(f"""c{j}_0 AS MATERIALIZED (SELECT rn - 1 AS c, emb FROM (
  SELECT row_number() OVER (
    ORDER BY md5_number_upper(CAST(vec_id AS VARCHAR)), vec_id) AS rn, emb
  FROM tr{j}) WHERE rn <= {IVF_N_CENTROIDS})""")
        for i in range(F_sim.IVF_ITERS):
            a = sim.format(a="t.emb", b="k.emb")
            ctes.append(f"""a{j}_{i} AS MATERIALIZED (
  SELECT vec_id, emb, c FROM (
  SELECT t.vec_id, t.emb, k.c, row_number() OVER (
    PARTITION BY t.vec_id ORDER BY {a} DESC, k.c) AS rn
  FROM tr{j} t CROSS JOIN c{j}_{i} k) WHERE rn = 1)""")
            ctes.append(f"""u{j}_{i} AS MATERIALIZED (
  SELECT c, list(CAST(val AS DOUBLE) ORDER BY pos) AS emb FROM (
    SELECT c, pos, floor(avg(val) * {grid} + 0.5) / {grid} AS val FROM (
      SELECT c, unnest(emb) AS val, unnest(range(len(emb))) AS pos
      FROM a{j}_{i}) GROUP BY c, pos) GROUP BY c)""")
            ctes.append(f"""c{j}_{i + 1} AS MATERIALIZED (
  SELECT k.c, coalesce(u.emb, k.emb) AS emb
  FROM c{j}_{i} k LEFT JOIN u{j}_{i} u USING (c))""")
    return ctes


def _sql_q84() -> str:
    """q84 oracle: 4 subspace k-means chains, per-vector code argmaxes,
    integer ADC score = sum of per-subspace micro sims, recall vs the
    exact q20 top-k — no frozen artifacts, everything from the table."""
    sim = _SIM_MICRO_SQL
    sub = PQ_DIM // PQ_M
    F = F_sim.IVF_ITERS
    ctes = _pq_cent_ctes()
    for j in range(PQ_M):
        lo, hi = j * sub + 1, (j + 1) * sub
        a = sim.format(a=f"v.emb[{lo}:{hi}]", b="k.emb")
        ctes.append(f"""code{j} AS MATERIALIZED (SELECT vec_id, c FROM (
  SELECT v.vec_id, k.c, row_number() OVER (
    PARTITION BY v.vec_id ORDER BY {a} DESC, k.c) AS rn
  FROM d v CROSS JOIN c{j}_{F} k) WHERE rn = 1)""")
    ctes.append(f"q AS (SELECT vec_id, emb FROM d WHERE vec_id < "
                f"{N_QUERY_VECS})")
    terms = " + ".join(
        sim.format(a=f"q.emb[{j * sub + 1}:{(j + 1) * sub}]", b=f"k{j}.emb")
        for j in range(PQ_M))
    joins = " ".join(
        f"JOIN code{j} cd{j} ON cd{j}.vec_id = e.vec_id "
        f"JOIN c{j}_{F} k{j} ON k{j}.c = cd{j}.c"
        for j in range(PQ_M))
    ctes.append(f"""score AS (SELECT q.vec_id AS query_id,
  e.vec_id AS neighbor_id, ({terms}) AS adc
  FROM q CROSS JOIN d e {joins}
  WHERE e.vec_id != q.vec_id)""")
    ctes.append(f"""pq AS (SELECT query_id, neighbor_id FROM (
  SELECT query_id, neighbor_id, row_number() OVER (
    PARTITION BY query_id ORDER BY adc DESC, neighbor_id) AS rank
  FROM score) WHERE rank <= {TOPK})""")
    ctes.append(f"""exact AS (SELECT query_id, neighbor_id FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, row_number() OVER (
    PARTITION BY q.vec_id ORDER BY
      CAST(round(list_cosine_similarity(q.emb, e.emb) * 1000000)
           AS BIGINT) DESC, e.vec_id) AS rank
  FROM q CROSS JOIN d e WHERE e.vec_id != q.vec_id)
  WHERE rank <= {TOPK})""")
    ctes.append("""rec AS (SELECT e.query_id,
  CAST((count(l.neighbor_id) * 1000) // count(*) AS BIGINT) AS recall_milli
  FROM exact e LEFT JOIN pq l USING (query_id, neighbor_id)
  GROUP BY e.query_id)""")
    return ("WITH " + ",\n".join(ctes) + f"""
SELECT query_id, recall_milli,
       (CAST(sum(recall_milli) OVER () AS BIGINT)
          // count(*) OVER ()) >= {PQ_RECALL_FLOOR_MILLI} AS meets_floor
FROM rec ORDER BY query_id
""")


# ------------------------------------------------------------------ q85

WHASH_MAX_HAMMING = 3  # <4 => exact under the 16-bit pigeonhole bands


def _wht_hash_u64(grays: np.ndarray) -> np.ndarray:
    """(n, 8, 8) int64 grayscale images -> 63-bit Walsh–Hadamard sign
    hashes (uint64; DC coefficient skipped — always non-negative).
    Shared by q85 (image near-dup) and q93 (video frame near-dup)."""
    grid = np.arange(IMG_W)
    pop = np.array([int(i).bit_count() for i in range(IMG_W)])
    sign = np.where(pop[grid[:, None] & grid[None, :]] % 2 == 0, 1, -1)
    w_bits = np.uint64(1) << np.arange(IMG_W * IMG_H - 1, dtype=np.uint64)
    # coeff[n, u, v] = Σ_x Σ_y sign[u,x]·sign[v,y]·gray[n,y,x]
    coeff = np.einsum("ux,vy,nyx->nuv", sign, sign, grays)
    bits = coeff.reshape(len(grays), IMG_W * IMG_H)[:, 1:] >= 0
    return (bits.astype(np.uint64) * w_bits).sum(axis=1)


def _image_whash_fps(sf_dir: str):
    """q85 fingerprint pipeline: the q39/q44 synthetic PNGs round-trip the
    REAL codec, then each decode collapses to a 63-bit Walsh–Hadamard
    sign hash — the integer-exact stand-in for float-DCT pHash (the WHT
    is the ±1-basis frequency transform used by video-hashing work, and
    unlike the DCT every coefficient is an exact int64 sum of ±gray, so
    the oracle recomputes it bit-for-bit from the pixel closed form).
    Bit k = u*8+v (k>=1, DC skipped — it is always non-negative) is set
    iff coeff(u,v) = Σ_{x,y} gray[y,x]·(−1)^(popcnt(x&u)+popcnt(y&v))
    is >= 0."""
    from wikicrawl import codec

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        v = ((ids[:, None] * _IMG_C1 + idx[None, :] * _IMG_C2) % 256
             ).astype(np.uint8)
        pngs = [codec.png_encode(row.reshape(IMG_H, IMG_W, 3)) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(pngs, pa.binary())})

    def whash(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        grays = np.empty((len(ids), IMG_H, IMG_W), dtype=np.int64)
        for i, b in enumerate(t["bytes"].to_pylist()):
            px = codec.png_decode(b).astype(np.int64)   # real decode
            grays[i] = px.sum(axis=2) // 3
        fps = _wht_hash_u64(grays)
        return pa.table({"doc_id": pa.array(ids),
                         "whash": pa.array(fps.view(np.int64))})

    return (ds.map_batches(synth, batch_format="pyarrow")
            .map_batches(whash, batch_format="pyarrow"))


def q85_image_whash_dups(sf_dir: str):
    """FREQUENCY-DOMAIN perceptual image near-dups (integer
    Walsh–Hadamard sign hash, see :func:`_image_whash_fps`) — the pHash
    complement to q51's spatial average-hash: WHT bits key on frequency
    structure, so they catch near-identical renders ahash's single
    global mean splits apart (and vice versa). Pairs at hamming <=
    {WHASH_MAX_HAMMING} via the shared size-switched band-probe engine
    (:func:`wikicrawl.functions.dedup.hamming_dup_pairs`, exact by
    16-bit pigeonhole); the oracle recomputes every coefficient from
    the pixel closed form and takes the O(n^2) bit_count self-join.

    Scale shape: identical to q51 — per-image codec + 8x8 matmuls in
    map_batches, then only (id, 64-bit hash) rows enter the banded
    shuffle; no image bytes ever leave their block."""
    fps = _image_whash_fps(sf_dir)
    out = F_dedup.hamming_dup_pairs(
        fps, max_hamming=WHASH_MAX_HAMMING,
        id_col="doc_id", hash_col="whash").to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


_SQL_Q85_FP = f"""
px AS (
  SELECT d.doc_id, (g.p % {IMG_W}) AS x, (g.p // {IMG_W}) AS y,
         (((d.doc_id * {_IMG_C1} + (g.p * 3 + 0) * {_IMG_C2}) % 256)
        + ((d.doc_id * {_IMG_C1} + (g.p * 3 + 1) * {_IMG_C2}) % 256)
        + ((d.doc_id * {_IMG_C1} + (g.p * 3 + 2) * {_IMG_C2}) % 256)) // 3
           AS gray
  FROM documents d, generate_series(0, {IMG_W * IMG_H - 1}) AS g(p)
),
co AS (
  SELECT p.doc_id, u.u, v.v,
         sum(CASE WHEN (bit_count(CAST(p.x AS BIT) & CAST(u.u AS BIT))
                      + bit_count(CAST(p.y AS BIT) & CAST(v.v AS BIT)))
                      % 2 = 0
                  THEN p.gray ELSE -p.gray END) AS c
  FROM px p, generate_series(0, {IMG_W - 1}) AS u(u),
       generate_series(0, {IMG_H - 1}) AS v(v)
  GROUP BY p.doc_id, u.u, v.v
),
fp AS (
  SELECT doc_id,
         CAST(s - CASE WHEN s >= 9223372036854775808::HUGEINT
                  THEN 18446744073709551616::HUGEINT ELSE 0 END AS BIGINT)
           AS whash
  FROM (
    SELECT doc_id,
           sum(CASE WHEN c >= 0 AND (u * {IMG_H} + v) >= 1
                    THEN CAST(1 AS HUGEINT) << (u * {IMG_H} + v - 1)
                    ELSE 0 END) AS s
    FROM co GROUP BY doc_id
  )
)"""

SQL_Q85 = f"""
WITH {_SQL_Q85_FP}
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.whash, b.whash)) AS BIGINT) AS hamming
FROM fp a JOIN fp b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.whash, b.whash)) <= {WHASH_MAX_HAMMING}
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q86

BLOOM_K = 3            # double-hashed probes per doc (Kirsch-Mitzenmacher)
BLOOM_BITS_PER_DOC = 8  # m = next pow2 >= 8 * n_prior (~2.9% FP at k=3)


def q86_bloom_dedup(sf_dir: str):
    """Bloom-filter INCREMENTAL dedup + false-positive audit
    (:func:`wikicrawl.functions.dedup.bloom_incremental_report`) — the
    bits-not-bytes scale path for q49: the prior corpus's membership
    index collapses from 8 B/doc to {BLOOM_BITS_PER_DOC} bits/doc, and
    the report labels every arriving doc maybe_dup (bloom) / is_dup
    (exact) / false_positive so the compression-vs-precision tradeoff
    is measured, not assumed. The filter is integer-deterministic
    (positions = (md5_upper + j*md5_lower) mod m, m a power of two
    sized from the prior count), so the oracle rebuilds the identical
    filter as a DISTINCT position set and the exact flag anti-joins on
    the text string itself — fully independent of engine hashing."""
    out = F_dedup.bloom_incremental_report(
        T(sf_dir, "documents", ["doc_id", "text"]),
        k=BLOOM_K, bits_per_doc=BLOOM_BITS_PER_DOC).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q86 = f"""
WITH n AS (
  SELECT count(*) AS c FROM documents WHERE doc_id % 2 = 0
),
mm AS (
  SELECT CAST(1 AS BIGINT) << greatest(
           length(bin({BLOOM_BITS_PER_DOC} * c - 1)) -
             CASE WHEN {BLOOM_BITS_PER_DOC} * c - 1 = 0 THEN 1 ELSE 0 END,
           3) AS m
  FROM n
),
h AS (
  SELECT d.doc_id, d.text,
         CAST(md5_number_upper(d.text) % mm.m AS BIGINT) AS h1,
         CAST(md5_number_lower(d.text) % mm.m AS BIGINT) AS h2,
         mm.m AS m
  FROM documents d, mm
),
pos AS (
  SELECT doc_id, (h1 + g.j * h2) % m AS p
  FROM h, generate_series(0, {BLOOM_K - 1}) AS g(j)
),
prior AS (SELECT DISTINCT p FROM pos WHERE doc_id % 2 = 0),
newpos AS (SELECT doc_id, p FROM pos WHERE doc_id % 2 = 1),
maybe AS (
  SELECT n.doc_id, (count(pr.p) = {BLOOM_K}) AS maybe_dup
  FROM newpos n LEFT JOIN prior pr USING (p) GROUP BY n.doc_id
),
priortext AS (SELECT DISTINCT text FROM documents WHERE doc_id % 2 = 0),
exact AS (
  SELECT h.doc_id, (o.text IS NOT NULL) AS is_dup
  FROM h LEFT JOIN priortext o ON h.text = o.text
  WHERE h.doc_id % 2 = 1
)
SELECT m.doc_id, m.maybe_dup, e.is_dup,
       (m.maybe_dup AND NOT e.is_dup) AS false_positive
FROM maybe m JOIN exact e USING (doc_id)
ORDER BY m.doc_id
"""


# ------------------------------------------------------------------ q87

CDC_WINDOW = 8     # rolling-hash window bytes
CDC_BASE = 33      # polynomial base (33^7 * 255 * 8 fits int64 easily)
CDC_MOD = 32       # boundary modulus -> expected chunk ~32 bytes


def q87_cdc_chunks(sf_dir: str):
    """Content-defined-chunking dedup report
    (:func:`wikicrawl.functions.dedup.cdc_chunk_dedup_report`): the
    storage-layer dedup primitive (Rabin/FastCDC family) — chunk edges
    follow a rolling content hash, so shifted-but-identical content
    re-aligns to identical chunks where fixed-size blocks would all
    differ. Per source: chunk count, duplicate-chunk count (global
    first-occurrence-wins on (doc_id, ord)) and the bytes a chunk store
    would not re-store. Oracle rebuilds the identical cut points from
    an unnest-per-char windowed sum and groups on the chunk STRING
    itself — fully independent of the engine's chunk hashing."""
    return F_dedup.cdc_chunk_dedup_report(
        T(sf_dir, "documents", ["doc_id", "text", "source"]),
        window=CDC_WINDOW, base=CDC_BASE, boundary_mod=CDC_MOD)


_CDC_WEIGHTS = ", ".join(f"({j}, {CDC_BASE ** j})" for j in range(CDC_WINDOW))

SQL_Q87 = f"""
WITH chars AS (
  SELECT doc_id, source, n, i, ascii(substr(text, i + 1, 1)) AS c FROM (
    SELECT doc_id, source, text, length(text) AS n,
           unnest(range(length(text))) AS i
    FROM documents)
),
wt(off, w) AS (VALUES {_CDC_WEIGHTS}),
hsh AS (
  SELECT a.doc_id, a.i, sum(b.c * wt.w) AS h
  FROM chars a
  JOIN chars b ON b.doc_id = a.doc_id
              AND b.i BETWEEN a.i - {CDC_WINDOW - 1} AND a.i
  JOIN wt ON wt.off = a.i - b.i
  WHERE a.i >= {CDC_WINDOW - 1}
  GROUP BY a.doc_id, a.i
),
cuts AS (
  SELECT c.doc_id, c.source, c.i, c.c,
         CASE WHEN h.h IS NOT NULL AND h.h % {CDC_MOD} = 0 AND c.i < c.n - 1
              THEN 1 ELSE 0 END AS cut
  FROM chars c LEFT JOIN hsh h ON h.doc_id = c.doc_id AND h.i = c.i
),
asg AS (
  SELECT doc_id, source, i, c,
         coalesce(sum(cut) OVER (PARTITION BY doc_id ORDER BY i
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS ord
  FROM cuts
),
chunks AS (
  SELECT doc_id, source, ord,
         string_agg(chr(c), '' ORDER BY i) AS chunk,
         count(*) AS length
  FROM asg GROUP BY doc_id, source, ord
),
ranked AS (
  SELECT source, length,
         row_number() OVER (PARTITION BY chunk ORDER BY doc_id, ord) AS rn
  FROM chunks
)
SELECT source, count(*) AS n_chunks,
       CAST(sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_chunks,
       CAST(sum(CASE WHEN rn > 1 THEN length ELSE 0 END) AS BIGINT) AS dup_bytes
FROM ranked GROUP BY source ORDER BY source
"""


# ------------------------------------------------------------------ q88

AFP_NW, AFP_W = 64, 16           # 64 windows x 16 samples per clip
_AFP_C3, _AFP_C4 = 1103515245, 12345
AFP_PMOD = 129                   # per-doc perturbation in [-64, 64]
AFP_MAX_HAMMING = 3              # <4 => exact under 16-bit pigeonhole


def _audio_fp_fps(sf_dir: str):
    """q88 fingerprint pipeline: Haitsma–Kalker-style audio fingerprints
    (the 2002 'robust audio hash': each bit is the SIGN of an adjacent
    band/window ENERGY DIFFERENCE, so small waveform perturbations flip
    only the bits whose energy gap was already tiny) through the REAL
    WAV codec. Clips are synthesized in clusters of four: the carrier
    is a quadratic-mix sawtooth keyed by doc_id//4 (quadratic so
    different clusters decorrelate — a linear form makes every cluster
    a value-shift of the same waveform and collides fingerprints), plus
    a +/-64 per-doc perturbation; each clip round-trips wav_encode ->
    wav_decode, windows to 64x16 samples, and packs 63 energy-difference
    sign bits (E[w] > E[w+1]) into an int64. Integer-exact end to end:
    energies are int64 sums of squares, so the oracle rebuilds every
    bit from the sample closed form."""
    from wikicrawl.stages.audio_stages import wav_decode, wav_encode

    ds = T(sf_dir, "documents", ["doc_id"])
    n = AFP_NW * AFP_W

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        i = np.arange(n, dtype=np.int64)
        s = ((ids[:, None] // 4) * _AUDIO_C1 + i[None, :] * _AUDIO_C2) \
            % 65536
        v = ((s * s) % 4096 - 2048
             + (ids[:, None] * _AFP_C3 + i[None, :] * _AFP_C4) % AFP_PMOD
             - AFP_PMOD // 2)
        wavs = [wav_encode(row.astype(np.int16), rate=16000) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(wavs, pa.binary())})

    w_bits = np.uint64(1) << np.arange(AFP_NW - 1, dtype=np.uint64)

    def fingerprint(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        vs = np.empty((len(ids), n), dtype=np.int64)
        for j, b in enumerate(t["bytes"].to_pylist()):
            samples, _rate = wav_decode(b)          # real decode
            vs[j] = samples.astype(np.int64)
        e = (vs.reshape(len(ids), AFP_NW, AFP_W) ** 2).sum(axis=2)
        bits = e[:, :-1] > e[:, 1:]
        fps = (bits.astype(np.uint64) * w_bits).sum(axis=1)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "afp": pa.array(fps.view(np.int64))})

    return (ds.map_batches(synth, batch_format="pyarrow")
            .map_batches(fingerprint, batch_format="pyarrow"))


def q88_audio_fp_dups(sf_dir: str):
    """Audio perceptual-fingerprint near-dups — completes the dedup x
    modality matrix (text: q17 MinHash / q18+q22 SimHash; image: q51
    ahash / q85 WHT; audio: THIS). Energy-difference sign hashes (see
    :func:`_audio_fp_fps`) pair at hamming <= {AFP_MAX_HAMMING} via the
    shared size-switched band-probe engine
    (:func:`wikicrawl.functions.dedup.hamming_dup_pairs`, exact by
    16-bit pigeonhole); the oracle recomputes every window energy from
    the sample closed form and takes the O(n^2) bit_count self-join.

    Scale shape: identical to q51/q85 — per-clip codec round-trip +
    one reshape/reduction per batch, then only (id, 64-bit hash) rows
    enter the banded shuffle; no audio bytes ever leave their block."""
    fps = _audio_fp_fps(sf_dir)
    out = F_dedup.hamming_dup_pairs(
        fps, max_hamming=AFP_MAX_HAMMING,
        id_col="doc_id", hash_col="afp").to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


SQL_Q88 = f"""
WITH sm AS (
  SELECT d.doc_id, g.i // {AFP_W} AS w,
         (((d.doc_id // 4) * {_AUDIO_C1} + g.i * {_AUDIO_C2}) % 65536) AS sv,
         ((d.doc_id * {_AFP_C3} + g.i * {_AFP_C4}) % {AFP_PMOD})
           - {AFP_PMOD // 2} AS pert
  FROM documents d, generate_series(0, {AFP_NW * AFP_W - 1}) AS g(i)
),
en AS (
  SELECT doc_id, w,
         sum(((sv * sv) % 4096 - 2048 + pert)
           * ((sv * sv) % 4096 - 2048 + pert)) AS e
  FROM sm GROUP BY doc_id, w
),
bt AS (
  SELECT doc_id, w,
         CASE WHEN e > lead(e) OVER (PARTITION BY doc_id ORDER BY w)
              THEN 1 ELSE 0 END AS bit
  FROM en
),
fp AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN bit = 1 THEN CAST(1 AS HUGEINT) << w
                       ELSE 0 END) AS BIGINT) AS afp
  FROM bt WHERE w < {AFP_NW - 1} GROUP BY doc_id
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.afp, b.afp)) AS BIGINT) AS hamming
FROM fp a JOIN fp b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.afp, b.afp)) <= {AFP_MAX_HAMMING}
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q89

DSIR_BUCKETS = 256       # hashed-bigram feature dimension
DSIR_TARGET = "src0"     # the distribution to select FOR
DSIR_SCALE = 65536       # 2^16 fixed point for the probability ratio
DSIR_F = 64              # fractional log2 resolution (1/64 of a bit)


def _fxlog2(x: np.ndarray, f: int = DSIR_F) -> np.ndarray:
    """FIXED-POINT log2 for int64 x >= 1, exact-integer throughout
    (never a float log — the q48/q80 discipline): floor(log2) via
    bit-smear ilog2 plus a linear mantissa at 1/f-bit resolution,
    f*log2(x) ~ e*f + (x*f)//2^e - f. SQL twin:
    ``(length(bin(x))-1)*f + (x*f)//(1<<(length(bin(x))-1)) - f``.
    Shared by q89 (DSIR weights) and q95 (Zipf slope)."""
    e = _ilog2_exact(x)
    return e * f + (x * f) // (np.int64(1) << e) - f


def _bigram_bucket_rows(texts: list[str]):
    """-> (doc_idx, bucket) int64 arrays, one row per bigram OCCURRENCE
    (multiplicity kept — DSIR features are counts, unlike q24/q29's
    distinct sets). One md5 per UNIQUE bigram in the batch; bucket =
    md5_number_upper(gram) % DSIR_BUCKETS, the oracle's exact formula."""
    flat: list[str] = []
    doc_idx: list[int] = []
    for i, txt in enumerate(texts):
        toks = F_dedup.tokenize(txt)
        m = len(toks) - 1
        if m <= 0:
            continue
        flat.extend(toks[j] + " " + toks[j + 1] for j in range(m))
        doc_idx.extend([i] * m)
    if not flat:
        return np.array([], np.int64), np.array([], np.int64)
    uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
    ub = np.array([F_dedup.token_hash_u64(g) % DSIR_BUCKETS for g in uniq],
                  np.int64)
    return np.array(doc_idx, np.int64), ub[inv]


def q89_dsir_select(sf_dir: str):
    """DSIR-style data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): score every doc by how
    much its hashed-bigram count vector looks like the TARGET source's
    distribution vs the raw pool's, select docs with positive
    log-likelihood ratio, report per source (n_docs, n_selected,
    sum_score). Integer-exact throughout: per-bucket weight =
    fixed-point log2 of the Laplace-smoothed probability ratio
    ((t_b+1)/(T+B)) / ((r_b+1)/(R+B)), computed as exact-int
    ilog2 + linear mantissa at 1/{DSIR_F} log2 resolution (never a
    float log — the q48/q80 discipline); a doc's score is the plain
    int sum of its grams' weights. On the synthetic corpus the target
    source selects 20/25 of its OWN docs vs <=3 per foreign source —
    the separation DSIR exists to produce.

    Scale shape: TWO streaming passes, ZERO shuffles. Pass 1 emits
    per-batch (is_target, bucket, cnt) partials — <=2x{DSIR_BUCKETS}
    rows per block — and the driver folds them into two {DSIR_BUCKETS}-
    vectors; the 2-KB weight table broadcasts back inside the pass-2
    closure, which emits per-batch per-source partials (O(sources)
    rows per block). Driver traffic is O(blocks x buckets), never
    corpus-sized. (At 100-TB counts, normalize t_b/r_b to per-mille
    before the ratio so (t_b+1)*(R+B)*SCALE stays inside int64.)"""
    ds = T(sf_dir, "documents",
           ["doc_id", "text", "source"]).materialize()  # two passes

    def bucket_partials(t: pa.Table) -> pa.Table:
        di, bk = _bigram_bucket_rows(t["text"].to_pylist())
        src = np.array(t["source"].to_pylist(), dtype=object)
        out_t = np.zeros(DSIR_BUCKETS, np.int64)
        out_r = np.zeros(DSIR_BUCKETS, np.int64)
        if len(bk):
            is_t = (src[di] == DSIR_TARGET)
            np.add.at(out_t, bk[is_t], 1)
            np.add.at(out_r, bk[~is_t], 1)
        b = np.arange(DSIR_BUCKETS, dtype=np.int64)
        return pa.table({
            "is_target": pa.array(np.concatenate(
                [np.ones(DSIR_BUCKETS, bool), np.zeros(DSIR_BUCKETS, bool)])),
            "b": pa.array(np.concatenate([b, b])),
            "cnt": pa.array(np.concatenate([out_t, out_r])),
        })

    parts = ds.map_batches(bucket_partials,
                           batch_format="pyarrow").to_pandas()
    tcnt = np.zeros(DSIR_BUCKETS, np.int64)
    rcnt = np.zeros(DSIR_BUCKETS, np.int64)
    tgt = parts[parts.is_target]
    raw = parts[~parts.is_target]
    np.add.at(tcnt, tgt.b.to_numpy(), tgt.cnt.to_numpy())
    np.add.at(rcnt, raw.b.to_numpy(), raw.cnt.to_numpy())
    t_tot, r_tot = int(tcnt.sum()), int(rcnt.sum())
    x = np.maximum((tcnt + 1) * (r_tot + DSIR_BUCKETS) * DSIR_SCALE
                   // ((rcnt + 1) * (t_tot + DSIR_BUCKETS)), 1)
    w = _fxlog2(x) - 16 * DSIR_F

    def score_partials(t: pa.Table) -> pa.Table:
        di, bk = _bigram_bucket_rows(t["text"].to_pylist())
        scores = np.zeros(len(t), np.int64)
        if len(bk):
            np.add.at(scores, di, w[bk])
        df = pd.DataFrame({"source": t["source"].to_pylist(),
                           "score": scores})
        agg = df.groupby("source", as_index=False).agg(
            n_docs=("score", "size"),
            n_selected=("score", lambda s: int((s > 0).sum())),
            sum_score=("score", "sum"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    out = (ds.map_batches(score_partials, batch_format="pyarrow")
           .to_pandas())
    out = out.groupby("source", as_index=False).agg(
        n_docs=("n_docs", "sum"), n_selected=("n_selected", "sum"),
        sum_score=("sum_score", "sum"))
    for c in ("n_docs", "n_selected", "sum_score"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


SQL_Q89 = f"""
WITH toks AS (
  SELECT doc_id, source, regexp_extract_all(text, '\\S+') AS ts
  FROM documents
),
grams AS (
  SELECT doc_id, source,
         CAST(md5_number_upper(ts[i] || ' ' || ts[i+1])
              % {DSIR_BUCKETS} AS BIGINT) AS b
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - 1)) AS t(i)
),
tc AS (SELECT b, count(*) AS c FROM grams
       WHERE source = '{DSIR_TARGET}' GROUP BY 1),
rc AS (SELECT b, count(*) AS c FROM grams
       WHERE source <> '{DSIR_TARGET}' GROUP BY 1),
tot AS (SELECT (SELECT coalesce(sum(c), 0) FROM tc) AS tt,
               (SELECT coalesce(sum(c), 0) FROM rc) AS rr),
wx AS (
  SELECT g.b,
         greatest((coalesce(tc.c, 0) + 1) * (tot.rr + {DSIR_BUCKETS})
                    * {DSIR_SCALE}
                  // ((coalesce(rc.c, 0) + 1)
                    * (tot.tt + {DSIR_BUCKETS})), 1) AS x
  FROM (SELECT DISTINCT b FROM grams) g
  LEFT JOIN tc ON tc.b = g.b
  LEFT JOIN rc ON rc.b = g.b
  CROSS JOIN tot
),
w AS (
  SELECT b, (length(bin(x)) - 1) * {DSIR_F}
           + (x * {DSIR_F}) // (CAST(1 AS BIGINT) << (length(bin(x)) - 1))
           - {DSIR_F} - 16 * {DSIR_F} AS w
  FROM wx
),
ds AS (
  SELECT g.doc_id, sum(w.w) AS score
  FROM grams g JOIN w ON w.b = g.b GROUP BY 1
)
SELECT d.source, count(*) AS n_docs,
       CAST(sum(CASE WHEN coalesce(s.score, 0) > 0 THEN 1 ELSE 0 END)
         AS BIGINT) AS n_selected,
       CAST(sum(coalesce(s.score, 0)) AS BIGINT) AS sum_score
FROM documents d LEFT JOIN ds s ON s.doc_id = d.doc_id
GROUP BY 1 ORDER BY 1
"""


# ------------------------------------------------------------------ q90

PP_N = 2            # word-bigram sets
PP_TH = 0.7         # Jaccard threshold


def q90_ppjoin(sf_dir: str):
    """Prefix-filtered exact set-similarity self-join
    (:func:`wikicrawl.functions.dedup.ppjoin_pairs`, the PPJoin family):
    word-bigram Jaccard >= {PP_TH} pairs where candidates are generated
    ONLY from each doc's df-ascending PREFIX grams — the exact-result
    answer to q24's hot-gram pair blowup (q24's ``df_cap`` bounds the
    blowup by dropping grams and turns Jaccard into a lower bound; the
    prefix filter drops the same hot grams from candidate generation
    while PROVABLY losing no >=threshold pair). The oracle is the plain
    O(n^2)-style exact inverted-index join at the same (n, threshold) —
    fully independent of the engine's prefix machinery, so it also
    proves the filter's losslessness on this corpus."""
    return F_dedup.ppjoin_pairs(
        T(sf_dir, "documents", ["doc_id", "text"]),
        n=PP_N, threshold=PP_TH).to_pandas()


SQL_Q90 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM documents
),
grams AS (
  SELECT DISTINCT doc_id,
     md5_number_upper(ts[i] || ' ' || ts[i+1]) AS gh
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - {PP_N - 1}))
       AS t(i)
),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS ni
  FROM grams a JOIN grams b ON a.gh = b.gh AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
j AS (
  SELECT id_a, id_b, ni, sa.n + sb.n - ni AS nu
  FROM inter
  JOIN sizes sa ON sa.doc_id = id_a
  JOIN sizes sb ON sb.doc_id = id_b
)
SELECT id_a, id_b, CAST((ni * 1000) // nu AS BIGINT) AS jac_milli
FROM j WHERE ni * 1.0 / nu >= {PP_TH}
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q91

BPE_ROUNDS = 8


def _bpe_merge_rounds(words: list[str], cnts: np.ndarray,
                      k: int = BPE_ROUNDS) -> pd.DataFrame:
    """k rounds of BPE merge training over a (word, count) vocabulary —
    the Sennrich et al. 2016 trainer loop, fully vectorized over the
    FLATTENED symbol array: per round, one boolean mask finds every
    occurrence of the best pair, a gaps-and-islands pass keeps the
    leftmost non-overlapping matches (run offset even — only same-symbol
    pairs like (a,a) ever form runs), and the merge collapses in one
    fancy-index. Tie-break: (count DESC, left ASC, right ASC) — byte
    order on ASCII, identical to the oracle's ORDER BY."""
    syms_l: list[str] = []
    wid_l: list[int] = []
    for j, w in enumerate(words):
        syms_l.extend(w)
        wid_l.extend([j] * len(w))
    syms = np.array(syms_l, dtype=object)
    wid = np.array(wid_l, np.int64)
    rows = []
    for r in range(k):
        same = wid[:-1] == wid[1:]
        pw = cnts[wid[:-1][same]]
        keys = np.array([a + "\x00" + b for a, b in
                         zip(syms[:-1][same], syms[1:][same])], dtype=object)
        uk, inv = np.unique(keys, return_inverse=True)
        if len(uk) == 0:        # vocabulary fully merged before k rounds
            break               # (the SQL twin emits no row either)
        tot = np.zeros(len(uk), np.int64)
        np.add.at(tot, inv, pw)
        bi = min(range(len(uk)), key=lambda i: (-tot[i], uk[i]))
        a, b = uk[bi].split("\x00")
        rows.append((r, a, b, a + b, int(tot[bi])))
        match = np.zeros(len(syms), bool)
        match[:-1] = same & (syms[:-1] == a) & (syms[1:] == b)
        start = match & ~np.concatenate(([False], match[:-1]))
        pos = np.arange(len(syms))
        run_start = np.zeros(len(syms), np.int64)
        idx = np.flatnonzero(start)
        if len(idx):
            run_start[match] = idx[np.searchsorted(idx, pos[match],
                                                   side="right") - 1]
        keep = match & ((pos - run_start) % 2 == 0)
        drop = np.zeros(len(syms), bool)
        drop[1:][keep[:-1]] = True
        syms[keep] = a + b
        sel = ~drop
        syms, wid = syms[sel], wid[sel]
    df = pd.DataFrame(rows, columns=["round", "left_sym", "right_sym",
                                     "merged", "cnt"])
    return df, syms, wid


def q91_bpe_merges(sf_dir: str):
    """BPE tokenizer TRAINING — the first {BPE_ROUNDS} merge rounds
    (Sennrich et al. 2016) over the corpus word-frequency table,
    greedy-leftmost merge application, deterministic (count DESC, pair
    ASC) tie-break. Output: one row per round (left, right, merged
    symbol, weighted pair count) — the merge table a tokenizer ships.

    Scale shape: the CORPUS is touched exactly ONCE (per-batch token
    value_counts partials, O(blocks x vocab) driver traffic — the q89
    partial pattern); every merge round then runs over the WORD
    VOCABULARY, which is corpus-INdependent (~1M rows at 100 TB vs
    31 here), vectorized over one flattened symbol array. At the 1M-
    vocab scale the same per-round mask/collapse kernels run unchanged
    as ``map_batches`` over a vocab Dataset with (pair, cnt) partials
    reduced per round — the round loop's driver traffic stays
    O(distinct pairs), never corpus-sized. Oracle: {BPE_ROUNDS}
    unrolled MATERIALIZED-CTE rounds (the q23/q84 iterative-oracle
    pattern) with the same gaps-and-islands leftmost-match rule."""

    ds = T(sf_dir, "documents", ["text"])

    def tok_partials(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for txt in t["text"].to_pylist():
            c.update(F_dedup.tokenize(txt))
        return pa.table({"word": pa.array(list(c.keys()), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    parts = ds.map_batches(tok_partials, batch_format="pyarrow").to_pandas()
    vocab = (parts.groupby("word", as_index=False)["cnt"].sum()
             .sort_values("word").reset_index(drop=True))
    out, _syms, _wid = _bpe_merge_rounds(list(vocab.word),
                                         vocab.cnt.to_numpy(np.int64))
    for c in ("round", "cnt"):
        out[c] = out[c].astype(np.int64)
    return out


def _sql_bpe_chain() -> tuple[str, str, list[str]]:
    """Shared q91/q92 oracle scaffolding: the WITH-body that learns
    BPE_ROUNDS merges over the corpus word table. Returns (chain_sql,
    final_syms_cte_name, per-round best-row SELECTs)."""
    rounds, sel_rows = [], []
    prev = "syms0"
    for r in range(BPE_ROUNDS):
        rounds.append(f"""
pairs{r} AS MATERIALIZED (
  SELECT s.sym AS l, t.sym AS r2, sum(s.cnt) AS c
  FROM {prev} s JOIN {prev} t ON t.word = s.word AND t.pos = s.pos + 1
  GROUP BY 1, 2
),
best{r} AS MATERIALIZED (
  SELECT l, r2, c FROM pairs{r} ORDER BY c DESC, l, r2 LIMIT 1
),
mk{r} AS MATERIALIZED (
  SELECT s.word, s.pos, s.sym, s.cnt,
         CASE WHEN s.sym = b.l AND t.sym = b.r2 THEN 1 ELSE 0 END AS m
  FROM {prev} s
  LEFT JOIN {prev} t ON t.word = s.word AND t.pos = s.pos + 1
  CROSS JOIN best{r} b
),
rn{r} AS MATERIALIZED (
  SELECT *, CASE WHEN m = 1
       THEN pos - min(pos) OVER (PARTITION BY word, grp) END AS off
  FROM (
    SELECT *, CASE WHEN m = 1 THEN pos - ROW_NUMBER() OVER
        (PARTITION BY word, m ORDER BY pos) END AS grp
    FROM mk{r}
  )
),
ap{r} AS MATERIALIZED (
  SELECT word, pos, CASE WHEN keep = 1 THEN sym2 ELSE sym END AS sym, cnt
  FROM (
    SELECT r.word, r.pos, r.sym, r.cnt,
           CASE WHEN r.m = 1 AND r.off % 2 = 0 THEN 1 ELSE 0 END AS keep,
           b.l || b.r2 AS sym2,
           lag(CASE WHEN r.m = 1 AND r.off % 2 = 0 THEN 1 ELSE 0 END)
             OVER (PARTITION BY r.word ORDER BY r.pos) AS prev_keep
    FROM rn{r} r CROSS JOIN best{r} b
  ) WHERE coalesce(prev_keep, 0) = 0
),
syms{r + 1} AS MATERIALIZED (
  SELECT word, ROW_NUMBER() OVER (PARTITION BY word ORDER BY pos) - 1 AS pos,
         sym, cnt
  FROM ap{r}
)""")
        sel_rows.append(
            f"SELECT CAST({r} AS BIGINT) AS round, l AS left_sym, "
            f"r2 AS right_sym, l || r2 AS merged, CAST(c AS BIGINT) AS cnt "
            f"FROM best{r}")
        prev = f"syms{r + 1}"
    chain = f"""words AS MATERIALIZED (
  SELECT w AS word, count(*) AS cnt FROM (
    SELECT unnest(regexp_extract_all(text, '\\S+')) AS w FROM documents)
  GROUP BY 1
),
syms0 AS MATERIALIZED (
  SELECT word, i AS pos, substr(word, i + 1, 1) AS sym, cnt FROM (
    SELECT word, cnt, unnest(range(length(word))) AS i FROM words)
),{",".join(rounds)}"""
    return chain, prev, sel_rows


def _sql_q91() -> str:
    chain, _final, sel_rows = _sql_bpe_chain()
    return f"""
WITH {chain}
{" UNION ALL ".join(sel_rows)}
ORDER BY round
"""


# ------------------------------------------------------------------ q92


def q92_bpe_tokenize(sf_dir: str):
    """Distributed BPE TOKENIZATION with the q91-learned merges — the
    apply side of tokenizer training, per-word memoized the way real
    tokenizers run (a word's subword split is a pure function of the
    word, so the merge loop runs ONCE per distinct vocab word, never
    per occurrence). Per source: word/char/BPE-token counts and the
    tokens-per-char compression ratio (milli) — the metric that decides
    whether a learned vocab is worth shipping.

    Scale shape: ONE corpus pass emitting (source, word, cnt) partials
    (bounded by sources x vocab per block, the q89/q91 partial
    pattern); vocab derivation, the BPE_ROUNDS merge loop AND the
    per-word token counts all run over the corpus-independent vocab
    (driver here; the same kernels run as vocab-Dataset map_batches at
    1M-word scale), and the per-source reduce is a pandas groupby over
    the already-tiny partial table — the corpus is never touched twice
    and nothing corpus-sized reaches the driver. Oracle: the shared
    q91 MATERIALIZED-CTE chain, then token counts from the final
    symbol table joined back to per-source word occurrences."""
    ds = T(sf_dir, "documents", ["text", "source"])

    def occ_partials(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for txt, src in zip(t["text"].to_pylist(),
                            t["source"].to_pylist()):
            for w in F_dedup.tokenize(txt):
                c[(src, w)] += 1
        srcs, ws = zip(*c.keys()) if c else ((), ())
        return pa.table({"source": pa.array(list(srcs), pa.string()),
                         "word": pa.array(list(ws), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    occ = (ds.map_batches(occ_partials, batch_format="pyarrow")
           .to_pandas()
           .groupby(["source", "word"], as_index=False)["cnt"].sum())
    vocab = (occ.groupby("word", as_index=False)["cnt"].sum()
             .sort_values("word").reset_index(drop=True))
    _merges, syms, wid = _bpe_merge_rounds(list(vocab.word),
                                           vocab.cnt.to_numpy(np.int64))
    ntok = np.bincount(wid, minlength=len(vocab))
    occ = occ.merge(pd.DataFrame({"word": vocab.word,
                                  "ntok": ntok.astype(np.int64)}),
                    on="word")
    occ["n_chars"] = occ.word.str.len().to_numpy(np.int64) * occ.cnt
    occ["n_tokens"] = occ.ntok * occ.cnt
    out = occ.groupby("source", as_index=False).agg(
        n_words=("cnt", "sum"), n_chars=("n_chars", "sum"),
        n_tokens=("n_tokens", "sum"))
    out["ratio_milli"] = (out.n_tokens * 1000) // out.n_chars
    for c in ("n_words", "n_chars", "n_tokens", "ratio_milli"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


def _sql_q92() -> str:
    chain, final, _sel = _sql_bpe_chain()
    return f"""
WITH {chain},
wt AS MATERIALIZED (
  SELECT word, count(*) AS nt FROM {final} GROUP BY word
),
occ AS (
  SELECT source, unnest(regexp_extract_all(text, '\\S+')) AS w
  FROM documents
)
SELECT o.source, count(*) AS n_words,
       CAST(sum(length(o.w)) AS BIGINT) AS n_chars,
       CAST(sum(wt.nt) AS BIGINT) AS n_tokens,
       CAST((sum(wt.nt) * 1000) // sum(length(o.w)) AS BIGINT) AS ratio_milli
FROM occ o JOIN wt ON wt.word = o.w
GROUP BY o.source ORDER BY o.source
"""


# ------------------------------------------------------------------ q93

_VDUP_C4 = 777767777   # per-video perturbation constant
VDUP_PMOD = 2          # perturbation amplitude (0/1 per pixel)
VDUP_MAX_HAMMING = 3   # per-frame WHT hamming gate
VDUP_MIN_FRAMES = 2    # frames that must match for a video pair


def q93_video_dups(sf_dir: str):
    """VIDEO near-dup detection through the REAL WCV container — the
    last cell of the dedup x modality matrix (text q17/q22, image
    q51/q85, audio q88, video THIS): videos are synthesized in clusters
    of four (quadratic-mix carrier keyed by doc_id//4 — the q88 lesson:
    a linear carrier makes clusters value-shifts of one pattern and
    collides hashes ACROSS clusters — plus a 0/1 per-video pixel
    perturbation), wcv_encode'd, frame-SAMPLED by container seek
    (:class:`SampleVideoFrames`, every {VID_EVERY}rd frame), each
    sampled frame round-trips the real PNG decoder into the shared
    63-bit Walsh–Hadamard sign hash (:func:`_wht_hash_u64`), and two
    videos pair when >= {VDUP_MIN_FRAMES} same-index frames agree
    within hamming <= {VDUP_MAX_HAMMING}. Output (id_a, id_b,
    n_frames).

    Scale shape: per-video codec + per-frame 8x8 matmuls inside
    map_batches; only (video*frames, 64-bit hash) rows enter the shared
    size-switched band-probe shuffle (composite key doc_id*{VID_FRAMES}
    + frame so one pass serves every frame index); the same-frame
    filter, pair count and >= {VDUP_MIN_FRAMES} gate are column
    arithmetic on the tiny verified pair list. No video bytes ever
    leave their block."""
    from wikicrawl import codec
    from wikicrawl.stages.image_stages import SampleVideoFrames

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        vids = []
        for did in ids.tolist():
            gid = did // 4
            frames = []
            for f in range(VID_FRAMES):
                s = (gid * _IMG_C1 + f * _VID_C3 + idx * _IMG_C2) % 65536
                px = (((s * s) % 65521
                       + (did * _VDUP_C4 + f + idx) % VDUP_PMOD) % 256)
                frames.append(px.astype(np.uint8).reshape(IMG_H, IMG_W, 3))
            vids.append(codec.wcv_encode(frames))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(vids, pa.binary())})

    sampled = ds.map_batches(synth, batch_format="pyarrow").map_batches(
        SampleVideoFrames,
        fn_constructor_kwargs={"every_n_frames": VID_EVERY},
        batch_format="pyarrow", batch_size=128, concurrency=(1, 4))

    def frame_hashes(t: pa.Table) -> pa.Table:
        vfids, grays = [], []
        for did, payloads, idxs in zip(t["doc_id"].to_pylist(),
                                       t["frames"].to_pylist(),
                                       t["frame_idx"].to_pylist()):
            for p, fi in zip(payloads, idxs):
                px = codec.png_decode(p).astype(np.int64)  # real decode
                grays.append(px.sum(axis=2) // 3)
                vfids.append(did * VID_FRAMES + fi)
        if not grays:
            return pa.table({"vfid": pa.array([], pa.int64()),
                             "vhash": pa.array([], pa.int64())})
        fps = _wht_hash_u64(np.stack(grays))
        return pa.table({"vfid": pa.array(vfids, pa.int64()),
                         "vhash": pa.array(fps.view(np.int64))})

    fps = sampled.map_batches(frame_hashes, batch_format="pyarrow")
    pairs = F_dedup.hamming_dup_pairs(
        fps, max_hamming=VDUP_MAX_HAMMING,
        id_col="vfid", hash_col="vhash").to_pandas()
    if len(pairs) == 0:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in ("id_a", "id_b", "n_frames")})
    same_frame = (pairs.id_a % VID_FRAMES) == (pairs.id_b % VID_FRAMES)
    pairs = pairs[same_frame]
    vids = pd.DataFrame({"id_a": pairs.id_a // VID_FRAMES,
                         "id_b": pairs.id_b // VID_FRAMES})
    out = (vids.groupby(["id_a", "id_b"], as_index=False)
           .size().rename(columns={"size": "n_frames"}))
    out = out[out.n_frames >= VDUP_MIN_FRAMES]
    for c in ("id_a", "id_b", "n_frames"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


SQL_Q93 = f"""
WITH fr AS (
  SELECT d.doc_id, g.f
  FROM documents d, generate_series(0, {VID_FRAMES - 1}) AS g(f)
  WHERE g.f % {VID_EVERY} = 0
),
sv AS (
  SELECT doc_id, f, t.i,
         (((doc_id // 4) * {_IMG_C1} + f * {_VID_C3} + t.i * {_IMG_C2})
          % 65536) AS s,
         (doc_id * {_VDUP_C4} + f + t.i) % {VDUP_PMOD} AS pert
  FROM fr, generate_series(0, {IMG_W * IMG_H * 3 - 1}) AS t(i)
),
px AS (
  SELECT doc_id, f, (i // 3) % {IMG_W} AS x, (i // 3) // {IMG_W} AS y,
         ((s * s) % 65521 + pert) % 256 AS v
  FROM sv
),
gr AS (
  SELECT doc_id, f, x, y, sum(v) // 3 AS gray
  FROM px GROUP BY doc_id, f, x, y
),
co AS (
  SELECT g.doc_id, g.f, u.u, v.v,
         sum(CASE WHEN (bit_count(CAST(g.x AS BIT) & CAST(u.u AS BIT))
                      + bit_count(CAST(g.y AS BIT) & CAST(v.v AS BIT)))
                      % 2 = 0
                  THEN g.gray ELSE -g.gray END) AS c
  FROM gr g, generate_series(0, {IMG_W - 1}) AS u(u),
       generate_series(0, {IMG_H - 1}) AS v(v)
  GROUP BY g.doc_id, g.f, u.u, v.v
),
fp AS (
  SELECT doc_id, f,
         CAST(s2 - CASE WHEN s2 >= 9223372036854775808::HUGEINT
                   THEN 18446744073709551616::HUGEINT ELSE 0 END AS BIGINT)
           AS vhash
  FROM (
    SELECT doc_id, f,
           sum(CASE WHEN c >= 0 AND (u * {IMG_H} + v) >= 1
                    THEN CAST(1 AS HUGEINT) << (u * {IMG_H} + v - 1)
                    ELSE 0 END) AS s2
    FROM co GROUP BY doc_id, f
  )
),
fm AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, a.f
  FROM fp a JOIN fp b ON a.f = b.f AND a.doc_id < b.doc_id
  WHERE bit_count(xor(a.vhash, b.vhash)) <= {VDUP_MAX_HAMMING}
)
SELECT id_a, id_b, count(*) AS n_frames
FROM fm GROUP BY id_a, id_b
HAVING count(*) >= {VDUP_MIN_FRAMES}
ORDER BY id_a, id_b
"""


# ------------------------------------------------------------------ q94

HN_K = 5   # hard negatives per anchor


def q94_hard_negatives(sf_dir: str):
    """Hard-negative mining for contrastive training
    (:func:`wikicrawl.functions.similarity.hard_negative_topk`): for
    each anchor vector (the q20 query set), the {HN_K} highest-cosine
    vectors with a DIFFERENT label — the negatives a contrastive loss
    actually learns from (random negatives are trivially separable;
    see e.g. the hard-mining practice in SimCLR/DPR training). q20's
    broadcast-matmul scale shape with a label-exclusion mask; the
    corpus is never shuffled."""
    qdf = _pdf(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    qdf = qdf[qdf.vec_id < N_QUERY_VECS].sort_values("vec_id")
    out = F_sim.hard_negative_topk(
        T(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        qdf["vec_id"].to_numpy(),
        np.stack(qdf["embedding"].to_numpy()),
        qdf["label"].to_numpy(),
        k=HN_K,
    ).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return out[["query_id", "neighbor_id", "sim_micro", "rank"]]


SQL_Q94 = f"""
WITH d AS (SELECT vec_id, label,
                  CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
q AS (SELECT vec_id, label, emb FROM d WHERE vec_id < {N_QUERY_VECS}),
sims AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         CAST(round(list_cosine_similarity(q.emb, e.emb) * 1000000)
              AS BIGINT) AS sim_micro
  FROM q JOIN d e ON e.label <> q.label
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
              ORDER BY sim_micro DESC, neighbor_id) AS rank
  FROM sims
)
SELECT query_id, neighbor_id, sim_micro, rank
FROM r WHERE rank <= {HN_K}
ORDER BY query_id, rank
"""


# ------------------------------------------------------------------ q95

ZIPF_TOP_RANKS = 32


def q95_zipf_slope(sf_dir: str):
    """Zipf-law slope per source — the corpus-health diagnostic (natural
    text runs a log-log word-frequency slope near -1; generated/looping
    text flattens or steepens it): per source, rank words by (freq
    DESC, word ASC), take the top {ZIPF_TOP_RANKS} ranks, and fit OLS
    of fixed-point log2(freq) on log2(rank) (:func:`_fxlog2` — integer
    mantissa, no float log) with q56's sign-split truncating divides so
    the HUGEINT oracle agrees on negative slopes. Output (source,
    n_ranks, slope_milli).

    Scale shape: ONE corpus pass of (source, word, cnt) partials (the
    q92 pattern, bounded by sources x vocab per block); ranking, logs
    and moments run over sources x {ZIPF_TOP_RANKS} rows — driver
    traffic never scales with the corpus."""
    ds = T(sf_dir, "documents", ["text", "source"])

    def occ_partials(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for txt, src in zip(t["text"].to_pylist(),
                            t["source"].to_pylist()):
            for w in F_dedup.tokenize(txt):
                c[(src, w)] += 1
        srcs, ws = zip(*c.keys()) if c else ((), ())
        return pa.table({"source": pa.array(list(srcs), pa.string()),
                         "word": pa.array(list(ws), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    occ = (ds.map_batches(occ_partials, batch_format="pyarrow")
           .to_pandas()
           .groupby(["source", "word"], as_index=False)["cnt"].sum())
    occ = occ.sort_values(["source", "cnt", "word"],
                          ascending=[True, False, True],
                          kind="mergesort")
    occ["rnk"] = occ.groupby("source", sort=False).cumcount() + 1
    top = occ[occ.rnk <= ZIPF_TOP_RANKS].copy()
    top["x"] = _fxlog2(top.rnk.to_numpy(np.int64))
    top["y"] = _fxlog2(top.cnt.to_numpy(np.int64))
    top["xy"] = top.x * top.y
    top["xx"] = top.x * top.x
    m = top.groupby("source", as_index=False).agg(
        n_ranks=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
        sxy=("xy", "sum"), sxx=("xx", "sum"))
    num = (m.n_ranks * m.sxy - m.sx * m.sy).to_numpy(object) * 1000
    den = (m.n_ranks * m.sxx - m.sx * m.sx).to_numpy(object)
    # sign-split truncating division (DuckDB // truncates toward zero)
    slope = np.where(num >= 0, num // den, -((-num) // den))
    out = pd.DataFrame({"source": m.source,
                        "n_ranks": m.n_ranks.astype(np.int64),
                        "slope_milli": slope.astype(np.int64)})
    return out.sort_values("source").reset_index(drop=True)


SQL_Q95 = f"""
WITH wf AS (
  SELECT source, w, count(*) AS c FROM (
    SELECT source, unnest(regexp_extract_all(text, '\\S+')) AS w
    FROM documents)
  GROUP BY 1, 2
),
r AS (
  SELECT source, c, row_number() OVER (PARTITION BY source
            ORDER BY c DESC, w) AS rnk
  FROM wf
),
fx AS (
  SELECT source,
    (length(bin(rnk)) - 1) * {DSIR_F}
      + (rnk * {DSIR_F}) // (CAST(1 AS BIGINT) << (length(bin(rnk)) - 1))
      - {DSIR_F} AS x,
    (length(bin(c)) - 1) * {DSIR_F}
      + (c * {DSIR_F}) // (CAST(1 AS BIGINT) << (length(bin(c)) - 1))
      - {DSIR_F} AS y
  FROM r WHERE rnk <= {ZIPF_TOP_RANKS}
),
m AS (
  SELECT source, count(*)::HUGEINT AS n, sum(x)::HUGEINT AS sx,
         sum(y)::HUGEINT AS sy, sum(x * y)::HUGEINT AS sxy,
         sum(x::HUGEINT * x) AS sxx
  FROM fx GROUP BY 1
)
SELECT source, CAST(n AS BIGINT) AS n_ranks,
  CAST(CASE WHEN n * sxy - sx * sy >= 0
       THEN (n * sxy - sx * sy) * 1000 // (n * sxx - sx * sx)
       ELSE -((-(n * sxy - sx * sy)) * 1000 // (n * sxx - sx * sx))
       END AS BIGINT) AS slope_milli
FROM m WHERE n >= 2 AND n * sxx - sx * sx > 0
ORDER BY source
"""


# ------------------------------------------------------------------ q96

FUZZY_DECON_T = 0.8  # exact-Jaccard contamination threshold (q17's)

_DECON_PAIRS_CACHE: dict = {}


def _decon_pairs(sf_dir: str) -> pa.Table:
    """Single-slot mtime-keyed memo of the q96 probe output — the same
    process-local discipline as :func:`_minhash_pairs` (q17/q37/q60):
    q96 and q100 share one contamination pass per (path, mtime)."""
    import os as _os

    doc = _os.path.join(sf_dir, "documents.parquet")
    key = (_os.path.abspath(sf_dir), _os.stat(doc).st_mtime_ns)
    got = _DECON_PAIRS_CACHE.get(key)
    if got is None:
        got = F_dedup.lsh_probe_decontaminate(
            T(sf_dir, "documents", ["doc_id", "text"]),
            bench_mod=BENCH_DOC_MOD, threshold=FUZZY_DECON_T)
        _DECON_PAIRS_CACHE.clear()
        _DECON_PAIRS_CACHE[key] = got
    return got


def q96_fuzzy_decontaminate(sf_dir: str):
    """FUZZY decontamination (the Llama/GPT-3-style benchmark near-match
    scrub): flag every (train doc, benchmark doc) pair whose exact
    5-char shingle Jaccard reaches {FUZZY_DECON_T}, benchmark = q33's
    held-out split (doc_id % {BENCH_DOC_MOD} == 0) — catching the
    paraphrased/reformatted leakage q33's exact n-gram hits miss.

    Scale shape — the INVERSE of q17's banded self-join: the benchmark
    suite is small by construction, so its LSH band index + shingle
    sets broadcast once via ray.put and the corpus makes ONE streaming
    probe pass (vectorized searchsorted band lookup, then the shared
    :func:`wikicrawl.functions.dedup._verify_set_pairs_vec` exact
    verify); ZERO corpus shuffles. Candidate recall is q17's 16x4-band
    guarantee (a cross pair's banding depends only on the two docs'
    signatures); the brute-force-equality test pins it on this data.
    Emits (doc_id, bench_id, jac_milli) per contaminated pair."""
    out = _decon_pairs(sf_dir).to_pandas()
    return out.sort_values(["doc_id", "bench_id"]).reset_index(drop=True)


SQL_Q96 = f"""
WITH sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS s
  FROM documents, LATERAL unnest(generate_series(1, length(text) - 4)) AS t(i)
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_id, b.doc_id AS bench_id, count(*) AS ni
  FROM sh a JOIN sh b ON a.s = b.s
  WHERE a.doc_id % {BENCH_DOC_MOD} != 0 AND b.doc_id % {BENCH_DOC_MOD} = 0
  GROUP BY 1, 2
),
j AS (
  SELECT i.doc_id, i.bench_id, i.ni, sa.n + sb.n - i.ni AS nu
  FROM inter i JOIN sizes sa ON sa.doc_id = i.doc_id
               JOIN sizes sb ON sb.doc_id = i.bench_id
)
SELECT doc_id, bench_id, CAST((ni * 1000) // nu AS BIGINT) AS jac_milli
FROM j WHERE ni * 1.0 / nu >= {FUZZY_DECON_T}
ORDER BY doc_id, bench_id
"""


# ------------------------------------------------------------------ q97


def q97_canonical_docs(sf_dir: str):
    """Dedup RETENTION policy — the decision step between q37's cluster
    discovery and an actual corpus scrub: per near-dup cluster keep the
    canonical document (max n_chars, tie -> min doc_id; the 'keep the
    longest version' rule production dedup pipelines apply) and report
    (cluster_id, keep_doc, n_members, kept_chars).

    Scale shape: rides the memoized q17 pair list (zero extra corpus
    passes when q17/q37 already ran); components via the size-switched
    :func:`wikicrawl.functions.graph.connected_components`; the n_chars
    annotate streams the documents table and keeps ONLY cluster-member
    rows (broadcast sorted-id probe) — the driver merge is bounded by
    the dup-cluster membership, exactly q37's own output size. At a
    scale where members outgrow the driver, the same annotate is the
    shared hash_join and the argmax a groupby — semantics unchanged."""
    from wikicrawl.functions._cache import broadcast_cached

    pairs = _minhash_pairs(sf_dir, threshold=0.8)
    edges = rd.from_arrow(pa.table({
        "id_a": pairs["id_a"], "id_b": pairs["id_b"]}))
    comp = F_graph.connected_components(edges)  # (node, cluster_id)
    if len(comp) == 0:
        return pd.DataFrame({"cluster_id": pd.Series([], dtype=np.int64),
                             "keep_doc": pd.Series([], dtype=np.int64),
                             "n_members": pd.Series([], dtype=np.int64),
                             "kept_chars": pd.Series([], dtype=np.int64)})
    mem_ref = ray.put(np.sort(comp["node"].to_numpy(np.int64)))

    def member_rows(t: pa.Table) -> pa.Table:
        b = broadcast_cached(mem_ref, lambda a: a)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(b, ids)
        idx[idx == len(b)] = 0
        return t.filter(pa.array(b[idx] == ids))

    nch = (T(sf_dir, "documents", ["doc_id", "n_chars"])
           .map_batches(member_rows, batch_format="pyarrow").to_pandas())
    df = comp.merge(nch, left_on="node", right_on="doc_id")
    df = df.sort_values(["cluster_id", "n_chars", "node"],
                        ascending=[True, False, True], kind="mergesort")
    out = df.groupby("cluster_id", as_index=False).agg(
        keep_doc=("node", "first"), n_members=("node", "size"),
        kept_chars=("n_chars", "first"))
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("cluster_id").reset_index(drop=True)


SQL_Q97 = """
WITH RECURSIVE sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS s
  FROM documents, LATERAL unnest(generate_series(1, length(text) - 4)) AS t(i)
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS ni
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT id_a, id_b
  FROM inter
  JOIN sizes sa ON sa.doc_id = id_a
  JOIN sizes sb ON sb.doc_id = id_b
  WHERE ni * 1.0 / (sa.n + sb.n - ni) >= 0.8
),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(v, w) AS (
  SELECT a, a FROM edges
  UNION
  SELECT r.v, e.b FROM reach r JOIN edges e ON r.w = e.a
),
comp AS (SELECT v AS node, min(w) AS cluster_id FROM reach GROUP BY v),
r AS (
  SELECT c.cluster_id, c.node, d.n_chars,
         row_number() OVER (PARTITION BY c.cluster_id
                            ORDER BY d.n_chars DESC, c.node) AS rn,
         count(*) OVER (PARTITION BY c.cluster_id) AS n_members
  FROM comp c JOIN documents d ON d.doc_id = c.node
)
SELECT CAST(cluster_id AS BIGINT) AS cluster_id, node AS keep_doc,
       CAST(n_members AS BIGINT) AS n_members, n_chars AS kept_chars
FROM r WHERE rn = 1 ORDER BY cluster_id
"""


# ------------------------------------------------------------------ q98


def q98_image_quality(sf_dir: str):
    """Image QUALITY stats through the REAL PNG codec — the filter stage
    a multimodal pipeline runs before spending decode/training budget:
    per image (the deterministic q39 synth set, round-tripped through
    png_encode -> png_decode) emit

    - ``ent_num``: fixed-point Shannon entropy numerator of the 16-bin
      integer-gray histogram, ``N*fxlog2(N) - sum_b cnt_b*fxlog2(cnt_b)``
      (H = ent_num / (N*{DSIR_F}) bits; ~0 flags the flat/broken renders
      a quality gate drops) — :func:`_fxlog2`, never a float log;
    - ``sse``: EXACT integer sum of squared errors between the original
      and its 2x box-downscale reconstruction (nearest upsample of
      box_resize 8x8 -> 4x4) — the integer form of the north rule's
      decoded-pixel PSNR invariant (PSNR >= 40 dB <=> sse <= N_px*255^2
      /10^4; here the engine reports the raw integer and the oracle
      value-verifies every term).

    Scale shape: one zero-shuffle map_batches chain (synth -> codec
    round-trip -> per-image vectorized bincount + reduceat); only
    (doc_id, 2 ints) per image leaves the block. The SQL twin rebuilds
    every pixel from the closed form and replays both reductions."""
    from wikicrawl import codec
    from wikicrawl.stages.image_stages import box_resize

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        v = ((ids[:, None] * _IMG_C1 + idx[None, :] * _IMG_C2) % 256
             ).astype(np.uint8)
        pngs = [codec.png_encode(row.reshape(IMG_H, IMG_W, 3)) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(pngs, pa.binary())})

    n_gray = IMG_W * IMG_H
    ent_base = n_gray * _fxlog2(np.array([n_gray], np.int64))[0]

    def quality(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        ent = np.empty(len(ids), np.int64)
        sse = np.empty(len(ids), np.int64)
        for i, b in enumerate(t["bytes"].to_pylist()):
            px = codec.png_decode(b).astype(np.int64)   # real decode
            gray = px.sum(axis=2) // 3
            cnt = np.bincount((gray // 16).ravel(), minlength=16)
            cnt = cnt[cnt > 0]
            ent[i] = ent_base - int((cnt * _fxlog2(cnt)).sum())
            th = box_resize(px.astype(np.uint8), IMG_W // IMG_BLOCK,
                            IMG_H // IMG_BLOCK).astype(np.int64)
            up = np.repeat(np.repeat(th, IMG_BLOCK, axis=0),
                           IMG_BLOCK, axis=1)
            sse[i] = int(((px - up) ** 2).sum())
        return pa.table({"doc_id": pa.array(ids),
                         "ent_num": pa.array(ent),
                         "sse": pa.array(sse)})

    out = (ds.map_batches(synth, batch_format="pyarrow")
           .map_batches(quality, batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_q98() -> str:
    f = DSIR_F
    fx = ("(length(bin({x})) - 1) * %d"
          " + ({x} * %d) // (CAST(1 AS BIGINT) << (length(bin({x})) - 1))"
          " - %d" % (f, f, f))
    n_gray = IMG_W * IMG_H
    return f"""
WITH px AS (
  SELECT d.doc_id,
         (g.i // 3) // {IMG_W} AS y, (g.i // 3) % {IMG_W} AS x,
         g.i % 3 AS ch,
         (d.doc_id * {_IMG_C1} + g.i * {_IMG_C2}) % 256 AS v
  FROM documents d, generate_series(0, {IMG_W * IMG_H * 3 - 1}) AS g(i)
),
gray AS (
  SELECT doc_id, y, x, sum(v) // 3 AS gv FROM px GROUP BY doc_id, y, x
),
hist AS (
  SELECT doc_id, gv // 16 AS b, count(*) AS cnt FROM gray GROUP BY 1, 2
),
ent AS (
  SELECT doc_id,
         {n_gray} * ({fx.format(x=n_gray)})
           - sum(cnt * ({fx.format(x='cnt')})) AS ent_num
  FROM hist GROUP BY doc_id
),
bm AS (
  SELECT doc_id, y // {IMG_BLOCK} AS by, x // {IMG_BLOCK} AS bx, ch,
         sum(v) // {IMG_BLOCK * IMG_BLOCK} AS m
  FROM px GROUP BY 1, 2, 3, 4
),
se AS (
  SELECT p.doc_id, sum((p.v - m.m) * (p.v - m.m)) AS sse
  FROM px p JOIN bm m ON m.doc_id = p.doc_id AND m.by = p.y // {IMG_BLOCK}
       AND m.bx = p.x // {IMG_BLOCK} AND m.ch = p.ch
  GROUP BY p.doc_id
)
SELECT e.doc_id, CAST(e.ent_num AS BIGINT) AS ent_num,
       CAST(s.sse AS BIGINT) AS sse
FROM ent e JOIN se s USING (doc_id) ORDER BY doc_id
"""


# ------------------------------------------------------------------ q99

BLOCKLIST = ["window", "stream", "spark join", "zzzneverhits"]


def q99_blocklist_scan(sf_dir: str):
    """Blocklist / badwords scan (the C4-style content filter's counting
    pass): for every blocklist pattern report how many docs contain it
    and the total occurrence count — the report a curation run uses to
    size a filter's blast radius before applying it. One pattern never
    hits (zero-row-group coverage); one spans a token boundary (substring
    semantics, not word match).

    Scale shape: ZERO shuffles — the pattern list rides the closure
    (broadcast-small; a 100k-pattern blocklist would move to one
    Aho-Corasick automaton built per actor in __init__), each block runs
    Arrow's C++ ``count_substring`` kernel per pattern (non-overlapping
    greedy-left, exactly SQL's replace()-length formula — verified), and
    blocks emit O(patterns) partial rows; the driver fold is
    O(blocks x patterns)."""
    ds = T(sf_dir, "documents", ["text"])

    def scan(t: pa.Table) -> pa.Table:
        txt = t["text"]
        pats, nd, nh = [], [], []
        for p in BLOCKLIST:
            c = pc.count_substring(txt, pattern=p).to_numpy(
                zero_copy_only=False).astype(np.int64)
            pats.append(p)
            nd.append(int((c > 0).sum()))
            nh.append(int(c.sum()))
        return pa.table({"pattern": pa.array(pats, pa.string()),
                         "n_docs": pa.array(nd, pa.int64()),
                         "n_hits": pa.array(nh, pa.int64())})

    out = ds.map_batches(scan, batch_format="pyarrow").to_pandas()
    out = out.groupby("pattern", as_index=False).agg(
        n_docs=("n_docs", "sum"), n_hits=("n_hits", "sum"))
    for c in ("n_docs", "n_hits"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("pattern").reset_index(drop=True)


def _sql_q99() -> str:
    vals = ", ".join(f"('{p}')" for p in BLOCKLIST)
    return f"""
WITH pats(pattern) AS (VALUES {vals}),
hits AS (
  SELECT p.pattern,
         (length(d.text) - length(replace(d.text, p.pattern, '')))
           // length(p.pattern) AS c
  FROM documents d CROSS JOIN pats p
)
SELECT pattern, CAST(count(*) FILTER (WHERE c > 0) AS BIGINT) AS n_docs,
       CAST(sum(c) AS BIGINT) AS n_hits
FROM hits GROUP BY pattern ORDER BY pattern
"""


# ------------------------------------------------------------------ q100


def q100_corpus_scrub(sf_dir: str):
    """The composed CURATION decision — what the corpus looks like after
    applying BOTH scrub policies at once: drop (a) every near-dup
    cluster member except its canonical doc (q97's keep-the-longest
    rule) and (b) every fuzzy-contaminated doc (q96's benchmark
    near-match set), then report per source (n_docs, n_kept). This is
    the q34-style composition for the dedup/decontamination side: one
    number a data lead reads before signing off a training mix.

    Scale shape: the drop set is the UNION of two provably-small sets
    (non-canonical dup members — bounded by q37's cluster membership —
    and contaminated docs — bounded by the benchmark's near-match
    fan-out), broadcast once as a sorted int64 array; the corpus makes
    ONE streaming pass emitting O(sources) partials per block. Both
    inputs ride machinery already verified on their own (memoized q17
    pairs -> components; the q96 broadcast LSH probe)."""
    from wikicrawl.functions._cache import broadcast_cached

    keep = q97_canonical_docs(sf_dir)
    pairs = _minhash_pairs(sf_dir, threshold=0.8)
    comp = F_graph.connected_components(rd.from_arrow(pa.table({
        "id_a": pairs["id_a"], "id_b": pairs["id_b"]})))
    dup_drop = np.setdiff1d(comp["node"].to_numpy(np.int64),
                            keep["keep_doc"].to_numpy(np.int64))
    cont_ids = np.unique(_decon_pairs(sf_dir)["doc_id"].to_numpy())
    drop_ref = ray.put(np.union1d(dup_drop, cont_ids).astype(np.int64))

    def per_source(t: pa.Table) -> pa.Table:
        b = broadcast_cached(drop_ref, lambda a: a)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        if len(b):
            idx = np.searchsorted(b, ids)
            idx[idx == len(b)] = 0
            dropped = b[idx] == ids
        else:
            dropped = np.zeros(len(ids), bool)
        df = pd.DataFrame({"source": t["source"].to_pylist(),
                           "kept": ~dropped})
        agg = df.groupby("source", as_index=False).agg(
            n_docs=("kept", "size"), n_kept=("kept", "sum"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    out = (T(sf_dir, "documents", ["doc_id", "source"])
           .map_batches(per_source, batch_format="pyarrow").to_pandas())
    out = out.groupby("source", as_index=False).agg(
        n_docs=("n_docs", "sum"), n_kept=("n_kept", "sum"))
    for c in ("n_docs", "n_kept"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


SQL_Q100 = f"""
WITH RECURSIVE sh AS MATERIALIZED (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS s
  FROM documents, LATERAL unnest(generate_series(1, length(text) - 4)) AS t(i)
),
sizes AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS ni
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT id_a, id_b FROM inter
  JOIN sizes sa ON sa.doc_id = id_a
  JOIN sizes sb ON sb.doc_id = id_b
  WHERE ni * 1.0 / (sa.n + sb.n - ni) >= 0.8
),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(v, w) AS (
  SELECT a, a FROM edges
  UNION
  SELECT r.v, e.b FROM reach r JOIN edges e ON r.w = e.a
),
comp AS (SELECT v AS node, min(w) AS cluster_id FROM reach GROUP BY v),
keepc AS (
  SELECT node AS keep_doc FROM (
    SELECT c.cluster_id, c.node,
           row_number() OVER (PARTITION BY c.cluster_id
                              ORDER BY d.n_chars DESC, c.node) AS rn
    FROM comp c JOIN documents d ON d.doc_id = c.node)
  WHERE rn = 1
),
dropdup AS (
  SELECT node AS doc_id FROM comp
  WHERE node NOT IN (SELECT keep_doc FROM keepc)
),
xinter AS (
  SELECT a.doc_id AS doc_id, b.doc_id AS bench_id, count(*) AS ni
  FROM sh a JOIN sh b ON a.s = b.s
  WHERE a.doc_id % {BENCH_DOC_MOD} != 0 AND b.doc_id % {BENCH_DOC_MOD} = 0
  GROUP BY 1, 2
),
cont AS (
  SELECT DISTINCT x.doc_id
  FROM xinter x JOIN sizes sa ON sa.doc_id = x.doc_id
                JOIN sizes sb ON sb.doc_id = x.bench_id
  WHERE x.ni * 1.0 / (sa.n + sb.n - x.ni) >= {FUZZY_DECON_T}
),
dropall AS (SELECT doc_id FROM dropdup UNION SELECT doc_id FROM cont)
SELECT d.source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (WHERE d.doc_id NOT IN
            (SELECT doc_id FROM dropall)) AS BIGINT) AS n_kept
FROM documents d GROUP BY d.source ORDER BY d.source
"""


# ------------------------------------------------------------------ q101

PRIO_K = 5  # weighted sample size per source


def q101_priority_sample(sf_dir: str):
    """Weighted SAMPLING of training docs — priority sampling (Duffield,
    Lund & Thorup 2007): per doc, priority = w / u with weight w =
    n_chars and u a deterministic uniform from the doc's md5 (integer
    form: ``w * 2^32 // ((md5_64 >> 32) + 1)`` — exact int64, no float);
    keep the top {PRIO_K} priorities per source. The standard way to
    draw a quality-weighted subsample whose inclusion probabilities are
    provably proportional to weight — and hash-determinism makes the
    draw reproducible across runs and resumable mid-corpus (the same
    doc always gets the same ticket).

    Scale shape: q27's partial-top-k combiner plan — each batch emits at
    most {PRIO_K} rows per source, the driver folds
    O(k x sources x blocks) rows, the corpus never shuffles."""
    ds = T(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def partials(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        h = np.array([F_dedup.token_hash_u64(str(i)) for i in ids],
                     np.uint64)
        u = (h >> np.uint64(32)).astype(np.int64) + 1
        w = t["n_chars"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"source": t["source"].to_pylist(),
                           "doc_id": ids,
                           "priority": (w * (1 << 32)) // u})
        df = df.sort_values(["source", "priority", "doc_id"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("source", sort=False).head(PRIO_K),
            preserve_index=False)

    out = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["source", "priority", "doc_id"],
                          ascending=[True, False, True], kind="mergesort")
    out = out.groupby("source", sort=False).head(PRIO_K).copy()
    out["rnk"] = (out.groupby("source").cumcount() + 1).astype(np.int64)
    return (out[["source", "rnk", "doc_id", "priority"]]
            .sort_values(["source", "rnk"]).reset_index(drop=True))


SQL_Q101 = f"""
WITH pr AS (
  SELECT source, doc_id,
         CAST(n_chars * 4294967296
              // (CAST(md5_number_upper(CAST(doc_id AS VARCHAR)) >> 32
                       AS BIGINT) + 1) AS BIGINT) AS priority
  FROM documents
),
r AS (
  SELECT source, doc_id, priority,
         row_number() OVER (PARTITION BY source
                            ORDER BY priority DESC, doc_id) AS rnk
  FROM pr
)
SELECT source, rnk, doc_id, priority FROM r WHERE rnk <= {PRIO_K}
ORDER BY source, rnk
"""


# ------------------------------------------------------------------ q102


def q102_event_transitions(sf_dir: str):
    """First-order Markov TRANSITION matrix of the event stream — the
    classic clickstream/session model (next-event prediction, bot
    detection by improbable transitions): for every ordered pair of
    consecutive events of one user (ordered by ts, tie event_id) count
    (from_type -> to_type) and report cnt plus the row-normalized
    transition probability p_milli = cnt*1000 // total(from_type).

    Scale shape: the q30 sessionize plan — ONE hash-partition shuffle
    colocates each user's events, a vectorized per-bucket lexsort +
    adjacent-pair mask reads transitions off in O(n), and each bucket
    emits at most types^2 partial rows; the driver fold is
    O(buckets x types^2), never event-count-sized."""
    from wikicrawl.functions.joins import bucket_of
    from wikicrawl.functions.streaming import _ts_i64

    ev = T(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", pa.array(bucket_of(t["user_id"], 32)))

    def bucket_transitions(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"from_type": pd.Series([], dtype=object),
                                 "to_type": pd.Series([], dtype=object),
                                 "cnt": pd.Series([], dtype=np.int64)})
        u = g["user_id"].to_numpy()
        t = _ts_i64(g["ts"])
        eid = g["event_id"].to_numpy()
        et = g["event_type"].to_numpy()
        order = np.lexsort((eid, t, u))
        u, et = u[order], et[order]
        same = u[1:] == u[:-1]
        df = pd.DataFrame({"from_type": et[:-1][same],
                           "to_type": et[1:][same]})
        out = (df.groupby(["from_type", "to_type"], as_index=False)
               .size().rename(columns={"size": "cnt"}))
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    parts = (ev.map_batches(tag, batch_format="pyarrow")
             .groupby("__bucket")
             .map_groups(bucket_transitions, batch_format="pandas")
             .to_pandas())
    out = parts.groupby(["from_type", "to_type"], as_index=False)["cnt"].sum()
    tot = out.groupby("from_type")["cnt"].transform("sum")
    out["cnt"] = out["cnt"].astype(np.int64)
    out["p_milli"] = (out["cnt"] * 1000 // tot).astype(np.int64)
    return (out.sort_values(["from_type", "to_type"])
            .reset_index(drop=True))


SQL_Q102 = """
WITH s AS (
  SELECT event_type AS ft,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS tt
  FROM events
),
c AS (
  SELECT ft, tt, count(*) AS cnt FROM s WHERE tt IS NOT NULL GROUP BY 1, 2
),
tot AS (SELECT ft, sum(cnt) AS ftot FROM c GROUP BY 1)
SELECT c.ft AS from_type, c.tt AS to_type, CAST(c.cnt AS BIGINT) AS cnt,
       CAST(c.cnt * 1000 // t.ftot AS BIGINT) AS p_milli
FROM c JOIN tot t ON t.ft = c.ft
ORDER BY from_type, to_type
"""


# ------------------------------------------------------------------ q103


def q103_left_join_enrich(sf_dir: str):
    """LEFT-OUTER enrichment — the dimension-annotate join q69/q10's
    inner joins can't express: every customer with their order count and
    total spend in cents, customers with NO orders kept at (0, 0). The
    'profile table' shape every feature store build runs.

    Scale shape: orders pre-aggregates per batch to (custkey, n, cents)
    partials — the shuffle moves O(distinct custkeys per block), never
    raw orders — then ONE hash-partition groupby folds partials, and the
    small aggregate broadcasts back over the customer stream (zero
    further shuffles; absent keys vector-fill 0 — LEFT semantics). Above
    the broadcast gate the same fold co-partitions with customer via
    hash_join(how='left'), semantics unchanged."""
    from wikicrawl.functions._cache import broadcast_cached

    def o_partials(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = round_half_away(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0)
        order = np.argsort(ck, kind="stable")
        ck, cents = ck[order], cents[order]
        starts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1]])
        return pa.table({
            "ck": pa.array(ck[starts]),
            "n": pa.array(np.diff(np.append(starts, len(ck)))
                          .astype(np.int64)),
            "cents": pa.array(np.add.reduceat(cents, starts)
                              if len(ck) else cents[:0]),
        })

    agg = (T(sf_dir, "orders", ["o_custkey", "o_totalprice"])
           .map_batches(o_partials, batch_format="pyarrow")
           .to_pandas()
           .groupby("ck", as_index=False).agg(n=("n", "sum"),
                                              cents=("cents", "sum")))
    keys = agg["ck"].to_numpy(np.int64)
    order = np.argsort(keys, kind="stable")
    agg_ref = ray.put((keys[order], agg["n"].to_numpy(np.int64)[order],
                       agg["cents"].to_numpy(np.int64)[order]))

    def annotate(t: pa.Table) -> pa.Table:
        ks, ns, cs = broadcast_cached(agg_ref, lambda a: a)
        ck = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.zeros(len(ck), np.int64)
        cents = np.zeros(len(ck), np.int64)
        if len(ks):
            pos = np.searchsorted(ks, ck)
            pos[pos == len(ks)] = 0
            hit = ks[pos] == ck
            n[hit] = ns[pos[hit]]
            cents[hit] = cs[pos[hit]]
        return pa.table({"c_custkey": t["c_custkey"],
                         "n_orders": pa.array(n),
                         "spent_cents": pa.array(cents)})

    out = (T(sf_dir, "customer", ["c_custkey"])
           .map_batches(annotate, batch_format="pyarrow").to_pandas())
    return out.sort_values("c_custkey").reset_index(drop=True)


SQL_Q103 = """
WITH agg AS (
  SELECT o_custkey, count(*) AS n,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
  FROM orders GROUP BY 1
)
SELECT c.c_custkey,
       CAST(coalesce(a.n, 0) AS BIGINT) AS n_orders,
       CAST(coalesce(a.cents, 0) AS BIGINT) AS spent_cents
FROM customer c LEFT JOIN agg a ON a.o_custkey = c.c_custkey
ORDER BY c.c_custkey
"""


# ------------------------------------------------------------------ q104

BLOB_FG = 128  # foreground threshold on integer gray


def q104_image_blobs(sf_dir: str):
    """Connected-component LABELING on images (blob count — the
    segmentation primitive behind figure/diagram detection and
    junk-render filtering): per q39 synthetic image, through the REAL
    PNG codec, count foreground pixels (integer gray >= {BLOB_FG}) and
    4-connected foreground blobs.

    Engine: labels start as the pixel index and iteratively take the
    min over 4-neighbors (masked to foreground) until fixpoint —
    VECTORIZED across the whole batch as one (B, H, W) int array (no
    per-image Python loop in the propagation; fixpoint in at most the
    largest blob's graph diameter rounds — <= H*W cheap vector steps). One zero-shuffle map_batches chain; (doc_id,
    2 ints) per image leaves the block. Oracle: the same hash-min
    fixpoint as a recursive CTE over the pixel adjacency (SQL_Q37's
    reach pattern per image), n_blobs = count distinct min-reachable
    label."""
    from wikicrawl import codec

    ds = T(sf_dir, "documents", ["doc_id"])
    n_px = IMG_W * IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        idx = np.arange(n_px, dtype=np.int64)
        v = ((ids[:, None] * _IMG_C1 + idx[None, :] * _IMG_C2) % 256
             ).astype(np.uint8)
        pngs = [codec.png_encode(row.reshape(IMG_H, IMG_W, 3)) for row in v]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(pngs, pa.binary())})

    def blobs(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        b = len(ids)
        if b == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_fg": pa.array([], pa.int64()),
                             "n_blobs": pa.array([], pa.int64())})
        gray = np.empty((b, IMG_H, IMG_W), np.int64)
        for i, data in enumerate(t["bytes"].to_pylist()):
            px = codec.png_decode(data).astype(np.int64)  # real decode
            gray[i] = px.sum(axis=2) // 3
        fg = gray >= BLOB_FG
        # batch-vectorized min-label propagation (4-connectivity)
        lab = np.arange(IMG_H * IMG_W, dtype=np.int64).reshape(
            1, IMG_H, IMG_W).repeat(b, axis=0)
        big = np.int64(IMG_H * IMG_W)
        lab[~fg] = big
        while True:
            n = np.full_like(lab, big)
            n[:, 1:, :] = np.minimum(n[:, 1:, :], lab[:, :-1, :])
            n[:, :-1, :] = np.minimum(n[:, :-1, :], lab[:, 1:, :])
            n[:, :, 1:] = np.minimum(n[:, :, 1:], lab[:, :, :-1])
            n[:, :, :-1] = np.minimum(n[:, :, :-1], lab[:, :, 1:])
            new = np.where(fg, np.minimum(lab, n), big)
            if np.array_equal(new, lab):
                break
            lab = new
        n_fg = fg.sum(axis=(1, 2)).astype(np.int64)
        flat = lab.reshape(b, -1)
        srt = np.sort(flat, axis=1)
        distinct = (srt[:, :1] < big).astype(np.int64).ravel() + (
            (srt[:, 1:] != srt[:, :-1]) & (srt[:, 1:] < big)).sum(axis=1)
        return pa.table({"doc_id": pa.array(ids),
                         "n_fg": pa.array(n_fg),
                         "n_blobs": pa.array(distinct.astype(np.int64))})

    out = (ds.map_batches(synth, batch_format="pyarrow")
           .map_batches(blobs, batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q104 = f"""
WITH RECURSIVE px AS (
  SELECT d.doc_id, g.i AS p,
         (g.i // {IMG_W}) AS y, (g.i % {IMG_W}) AS x,
         ((d.doc_id * {_IMG_C1} + (g.i * 3 + 0) * {_IMG_C2}) % 256
          + (d.doc_id * {_IMG_C1} + (g.i * 3 + 1) * {_IMG_C2}) % 256
          + (d.doc_id * {_IMG_C1} + (g.i * 3 + 2) * {_IMG_C2}) % 256)
           // 3 AS gv
  FROM documents d,
       generate_series(0, {IMG_W * IMG_H - 1}) AS g(i)
),
fg AS (SELECT doc_id, p, y, x FROM px WHERE gv >= {BLOB_FG}),
edges AS (
  SELECT a.doc_id, a.p AS u, b.p AS v
  FROM fg a JOIN fg b ON a.doc_id = b.doc_id
   AND ((abs(a.y - b.y) = 1 AND a.x = b.x)
     OR (abs(a.x - b.x) = 1 AND a.y = b.y))
  UNION ALL SELECT doc_id, p, p FROM fg
),
reach(doc_id, u, w) AS (
  SELECT doc_id, u, v FROM edges
  UNION
  SELECT r.doc_id, r.u, e.v
  FROM reach r JOIN edges e ON e.doc_id = r.doc_id AND e.u = r.w
),
comp AS (
  SELECT doc_id, u, min(w) AS lbl FROM reach GROUP BY doc_id, u
)
SELECT d.doc_id,
       CAST(coalesce(f.n_fg, 0) AS BIGINT) AS n_fg,
       CAST(coalesce(c.n_blobs, 0) AS BIGINT) AS n_blobs
FROM documents d
LEFT JOIN (SELECT doc_id, count(*) AS n_fg FROM fg GROUP BY 1) f
       ON f.doc_id = d.doc_id
LEFT JOIN (SELECT doc_id, count(DISTINCT lbl) AS n_blobs
           FROM comp GROUP BY 1) c ON c.doc_id = d.doc_id
ORDER BY d.doc_id
"""


# ------------------------------------------------------------------ q105

PROFILE_COLS = ["doc_id", "lang", "n_chars", "source", "text"]


def q105_profile(sf_dir: str):
    """Data PROFILING (the Deequ/Great-Expectations shape — the summary
    a pipeline computes before accepting a new drop): per documents
    column report n_rows, n_nulls, EXACT n_distinct, and min/max
    (stringified for one shared output schema, reduced in the NATIVE
    type so integer order never falls back to lexicographic).

    Scale shape: nulls/min/max are one pass of per-batch per-column
    partials (5 rows per block) reduced on the driver in the native
    dtype; exact distinct is ONE tagged shuffle — per batch each
    column's DISTINCT values explode as (column, value-string) rows,
    hash-partition by value, per-partition nunique, driver sums
    O(partitions x columns) ints. (At 100 TB you'd swap the unique-ish
    columns to the q53 HLL registers — the exact path is the
    correctness baseline.)"""
    from wikicrawl.functions.joins import bucket_of

    ds = T(sf_dir, "documents", PROFILE_COLS)

    def stat_partials(t: pa.Table) -> pa.Table:
        rows = {"column": [], "n_rows": [], "n_nulls": [],
                "min_v": [], "max_v": []}
        for c in PROFILE_COLS:
            col = t[c]
            vals = col.drop_null()
            rows["column"].append(c)
            rows["n_rows"].append(len(col))
            rows["n_nulls"].append(col.null_count)
            rows["min_v"].append(str(pc.min(vals).as_py())
                                 if len(vals) else None)
            rows["max_v"].append(str(pc.max(vals).as_py())
                                 if len(vals) else None)
        return pa.table({"column": pa.array(rows["column"], pa.string()),
                         "n_rows": pa.array(rows["n_rows"], pa.int64()),
                         "n_nulls": pa.array(rows["n_nulls"], pa.int64()),
                         "min_v": pa.array(rows["min_v"], pa.string()),
                         "max_v": pa.array(rows["max_v"], pa.string())})

    stats = ds.map_batches(stat_partials, batch_format="pyarrow").to_pandas()
    int_cols = {"doc_id", "n_chars"}

    def reduce_minmax(g: pd.DataFrame):
        c = g.name
        mn = g["min_v"].dropna()
        mx = g["max_v"].dropna()
        if c in int_cols:
            mn, mx = mn.astype(np.int64), mx.astype(np.int64)
        return pd.Series({
            "n_rows": np.int64(g["n_rows"].sum()),
            "n_nulls": np.int64(g["n_nulls"].sum()),
            "min_v": str(mn.min()) if len(mn) else None,
            "max_v": str(mx.max()) if len(mx) else None,
        })

    agg = (stats.groupby("column").apply(reduce_minmax, include_groups=False)
           .reset_index())

    def distinct_explode(t: pa.Table) -> pa.Table:
        cols, vals = [], []
        for c in PROFILE_COLS:
            u = pc.unique(t[c].drop_null()).to_pylist()
            cols.extend([c] * len(u))
            vals.extend(str(v) for v in u)
        v = pa.array(vals, pa.string())
        return pa.table({
            "column": pa.array(cols, pa.string()), "v": v,
            "__pb": pa.array(bucket_of(v, 64))})

    def part_nunique(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("column")["v"].nunique().rename("nd")
               .reset_index())
        out["nd"] = out["nd"].astype(np.int64)
        return out

    nd = (ds.map_batches(distinct_explode, batch_format="pyarrow")
          .groupby("__pb").map_groups(part_nunique, batch_format="pandas")
          .to_pandas()
          .groupby("column", as_index=False)["nd"].sum())
    out = agg.merge(nd, on="column", how="left")
    out["n_distinct"] = out.pop("nd").fillna(0).astype(np.int64)
    out = out[["column", "n_rows", "n_nulls", "n_distinct",
               "min_v", "max_v"]]
    for c in ("n_rows", "n_nulls"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("column").reset_index(drop=True)


def _sql_q105() -> str:
    parts = []
    for c in PROFILE_COLS:
        parts.append(f"""
SELECT '{c}' AS "column", count(*) AS n_rows,
       count(*) - count({c}) AS n_nulls,
       count(DISTINCT {c}) AS n_distinct,
       CAST(min({c}) AS VARCHAR) AS min_v,
       CAST(max({c}) AS VARCHAR) AS max_v
FROM documents""")
    return " UNION ALL ".join(parts) + ' ORDER BY "column"'


# ------------------------------------------------------------------ q106

FK_EDGES = [
    # (name, child table, fk col, parent table, pk col)
    ("customer->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
    ("lineitem->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem->part", "lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem->supplier", "lineitem", "l_suppkey", "supplier",
     "s_suppkey"),
    ("nation->region", "nation", "n_regionkey", "region", "r_regionkey"),
    ("orders->customer", "orders", "o_custkey", "customer", "c_custkey"),
    ("supplier->nation", "supplier", "s_nationkey", "nation",
     "n_nationkey"),
]


def q106_fk_audit(sf_dir: str):
    """Referential-INTEGRITY audit — the data-quality gate a warehouse
    runs on every load: for each FK edge of the star schema, count
    child rows whose key has no parent (orphans). All seven edges green
    on clean TPC-H data; the operator exists to catch the dirty drop.

    Scale shape: each parent key set reduces to per-batch DISTINCT
    partials, driver-dedups to a sorted int64 array (dimension-sized),
    broadcasts once via ray.put, and the child streams a vectorized
    searchsorted membership probe emitting one (n_rows, n_orphans)
    partial per block — zero shuffles per edge. A parent too big to
    broadcast (lineitem->orders at 100 TB) switches to the
    hash-partitioned semi-join (functions/joins.hash_join), same
    counts."""
    from wikicrawl.functions._cache import broadcast_cached

    rows = []
    for name, child, fk, parent, pk in FK_EDGES:
        def key_partials(t: pa.Table, _pk=pk) -> pa.Table:
            return pa.table({"k": pc.unique(t[_pk].drop_null())})

        keys = np.unique(
            T(sf_dir, parent, [pk])
            .map_batches(key_partials, batch_format="pyarrow")
            .to_pandas()["k"].to_numpy(np.int64))
        keys_ref = ray.put(keys)

        def probe(t: pa.Table, _fk=fk, _ref=keys_ref) -> pa.Table:
            b = broadcast_cached(_ref, lambda a: a)
            v = t[_fk].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(b):
                idx = np.searchsorted(b, v)
                idx[idx == len(b)] = 0
                orphan = b[idx] != v
            else:
                orphan = np.ones(len(v), bool)
            return pa.table({"n": pa.array([len(v)], pa.int64()),
                             "o": pa.array([int(orphan.sum())],
                                           pa.int64())})

        part = (T(sf_dir, child, [fk])
                .map_batches(probe, batch_format="pyarrow").to_pandas())
        rows.append((name, int(part["n"].sum()), int(part["o"].sum())))
    out = pd.DataFrame(rows, columns=["fk", "n_rows", "n_orphans"])
    for c in ("n_rows", "n_orphans"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("fk").reset_index(drop=True)


def _sql_q106() -> str:
    parts = []
    for name, child, fk, parent, pk in FK_EDGES:
        parts.append(f"""
SELECT '{name}' AS fk, count(*) AS n_rows,
       count(*) FILTER (WHERE p.{pk} IS NULL) AS n_orphans
FROM {child} c LEFT JOIN {parent} p ON p.{pk} = c.{fk}""")
    return " UNION ALL ".join(parts) + " ORDER BY fk"


# ------------------------------------------------------------------ q107


def q107_label_noise(sf_dir: str):
    """LABEL-NOISE mining — q94's inverse and the other half of the
    contrastive-data QA pair: for each anchor, the {HN_K} LEAST-similar
    SAME-label vectors (excluding self). A same-label pair at low
    cosine is either an embedding failure or a mislabel (the
    'confident-learning' suspects a labeling pass re-reviews).
    Identical scale shape to q94: anchors broadcast once, one matmul +
    label-masked partial-bottom-k per batch, the corpus never
    shuffles."""
    qdf = _pdf(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    qdf = qdf[qdf.vec_id < N_QUERY_VECS].sort_values("vec_id")
    out = F_sim.hard_negative_topk(
        T(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        qdf["vec_id"].to_numpy(),
        np.stack(qdf["embedding"].to_numpy()),
        qdf["label"].to_numpy(),
        k=HN_K, same_label=True, ascending=True,
    ).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return out[["query_id", "neighbor_id", "sim_micro", "rank"]]


SQL_Q107 = f"""
WITH d AS (SELECT vec_id, label,
                  CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
q AS (SELECT vec_id, label, emb FROM d WHERE vec_id < {N_QUERY_VECS}),
sims AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         CAST(round(list_cosine_similarity(q.emb, e.emb) * 1000000)
              AS BIGINT) AS sim_micro
  FROM q JOIN d e ON e.label = q.label AND e.vec_id <> q.vec_id
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
              ORDER BY sim_micro ASC, neighbor_id) AS rank
  FROM sims
)
SELECT query_id, neighbor_id, sim_micro, rank
FROM r WHERE rank <= {HN_K}
ORDER BY query_id, rank
"""


# ------------------------------------------------------------------ q108


def q108_heldout_lm_eval(sf_dir: str):
    """HELD-OUT language-model evaluation — the cross-split complement
    of q50's self-scored LM: train Laplace-smoothed bigram counts on
    the TRAIN split (doc_id % {BENCH_DOC_MOD} != 0), score the held-out
    split's bigrams, report per lang (n_bigrams, mean_s_milli) where
    s = ((cb+1)*1000) // (cu + V), V = distinct train unigrams. The
    domain-perplexity readout quality pipelines use to rank sources
    against a reference corpus; unseen eval bigrams score through the
    smoothing instead of crashing the join (LEFT semantics).

    Scale shape: q50's co-partitioned plan extended with a split flag —
    occurrences explode ONCE (train + eval tagged), shuffle #1 by
    unigram hash annotates eval rows with train cu (train counts are
    complete within the owning partition; V falls out of the same
    partition as a per-partition distinct count), shuffle #2 by bigram
    hash annotates cb, and blocks emit O(langs) partials. The model is
    never broadcast or driver-materialized — it stays co-partitioned
    with the occurrences that need it."""
    from wikicrawl.functions.joins import bucket_of

    ds = T(sf_dir, "documents", ["doc_id", "text", "lang"])

    def occ(t: pa.Table) -> pa.Table:
        rows = {"is_train": [], "lang": [], "w1h": [], "bh": []}
        for did, txt, lang in zip(t["doc_id"].to_pylist(),
                                  t["text"].to_pylist(),
                                  t["lang"].to_pylist()):
            toks = F_dedup.tokenize(txt)
            is_t = did % BENCH_DOC_MOD != 0
            for j in range(len(toks) - 1):
                rows["is_train"].append(is_t)
                rows["lang"].append(lang)
                rows["w1h"].append(F_dedup.token_hash_u64(toks[j])
                                   % (1 << 62))
                rows["bh"].append(F_dedup.token_hash_u64(
                    toks[j] + " " + toks[j + 1]) % (1 << 62))
        tbl = pa.table({"is_train": pa.array(rows["is_train"]),
                        "lang": pa.array(rows["lang"], pa.string()),
                        "w1h": pa.array(rows["w1h"], pa.int64()),
                        "bh": pa.array(rows["bh"], pa.int64())})
        return tbl.append_column("__p1", pa.array(
            bucket_of(tbl["w1h"], 64)))

    def annotate_cu(g: pd.DataFrame) -> pd.DataFrame:
        tr = g[g.is_train]
        cu = tr.groupby("w1h").size()
        nv = np.int64(cu.index.nunique())
        ev = g[~g.is_train].copy()
        ev["cu"] = ev["w1h"].map(cu).fillna(0).astype(np.int64)
        ev["nv_part"] = np.int64(0)
        # one marker row per partition carries the partition's distinct
        # train-unigram count (V is the sum over disjoint partitions)
        marker = pd.DataFrame({"lang": ["\x00V"], "bh": [np.int64(-1)],
                               "cu": [np.int64(0)], "nv_part": [nv]})
        return pd.concat([ev[["lang", "bh", "cu", "nv_part"]], marker],
                         ignore_index=True)

    ann = (ds.map_batches(occ, batch_format="pyarrow")
           .groupby("__p1").map_groups(annotate_cu,
                                       batch_format="pandas"))
    ann = ann.map_batches(
        lambda t: (t if t.num_columns == 0 else t
                   .replace_schema_metadata(None)
                   .append_column("__p2", pa.array(bucket_of(t["bh"],
                                                             64)))),
        batch_format="pyarrow")

    # train bigram counts co-partition with the SAME bucket fn
    def tocc(t: pa.Table) -> pa.Table:
        rows = {"bh": []}
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
            if did % BENCH_DOC_MOD == 0:
                continue
            toks = F_dedup.tokenize(txt)
            rows["bh"].extend(
                F_dedup.token_hash_u64(toks[j] + " " + toks[j + 1])
                % (1 << 62) for j in range(len(toks) - 1))
        tbl = pa.table({"bh": pa.array(rows["bh"], pa.int64())})
        return tbl.append_column("__p2", pa.array(
            bucket_of(tbl["bh"], 64)))

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["side"] == 0]
        cb = g[g["side"] == 1].groupby("bh").size()
        v_rows = ev[ev.lang == "\x00V"]
        ev = ev[ev.lang != "\x00V"]
        out_rows = []
        if len(ev):
            cbv = ev["bh"].map(cb).fillna(0).astype(np.int64)
            df = pd.DataFrame({"lang": ev["lang"].to_numpy(),
                               "cb": cbv.to_numpy(),
                               "cu": ev["cu"].to_numpy(np.int64)})
            agg = df.groupby("lang", as_index=False).agg(
                n=("cb", "size"))
            # numerator/denominator partials can't finish here (V is
            # global) — emit raw (lang, cb, cu) sums? no: s depends on
            # V per ROW; ship the rows' (cb, cu) pairs compressed as
            # counts per (lang, cb, cu)
            comp = (df.groupby(["lang", "cb", "cu"], as_index=False)
                    .size().rename(columns={"size": "cnt"}))
            out_rows.append(comp)
        if len(v_rows):
            out_rows.append(pd.DataFrame(
                {"lang": ["\x00V"],
                 "cb": [np.int64(0)], "cu": [np.int64(0)],
                 "cnt": v_rows["nv_part"].sum()}))
        if not out_rows:
            return pd.DataFrame({"lang": pd.Series([], dtype=object),
                                 "cb": pd.Series([], dtype=np.int64),
                                 "cu": pd.Series([], dtype=np.int64),
                                 "cnt": pd.Series([], dtype=np.int64)})
        return pd.concat(out_rows, ignore_index=True)

    ev_tagged = ann.map_batches(
        lambda t: (t if t.num_columns == 0 else
                   t.append_column("side",
                                   pa.array(np.zeros(t.num_rows,
                                                     np.int8)))),
        batch_format="pyarrow")
    tr_tagged = (ds.map_batches(tocc, batch_format="pyarrow")
                 .map_batches(
        lambda t: pa.table({
            "lang": pa.array([""] * t.num_rows, pa.string()),
            "bh": t["bh"], "cu": pa.array(np.zeros(t.num_rows,
                                                   np.int64)),
            "nv_part": pa.array(np.zeros(t.num_rows, np.int64)),
            "__p2": t["__p2"],
            "side": pa.array(np.ones(t.num_rows, np.int8))}),
        batch_format="pyarrow"))
    ev_cols = ["lang", "bh", "cu", "nv_part", "__p2", "side"]
    ev_tagged = ev_tagged.map_batches(
        lambda t: (t if t.num_columns == 0 else t.select(ev_cols)),
        batch_format="pyarrow")
    both = ev_tagged.union(tr_tagged)
    comp = (both.groupby("__p2").map_groups(score_part,
                                            batch_format="pandas")
            .to_pandas())
    comp = comp.groupby(["lang", "cb", "cu"], as_index=False)["cnt"].sum()
    v_total = int(comp.loc[comp.lang == "\x00V", "cnt"].sum())
    comp = comp[comp.lang != "\x00V"]
    s = ((comp["cb"].to_numpy(np.int64) + 1) * 1000
         // (comp["cu"].to_numpy(np.int64) + v_total))
    df = pd.DataFrame({"lang": comp["lang"].to_numpy(),
                       "n": comp["cnt"].to_numpy(np.int64),
                       "ssum": s * comp["cnt"].to_numpy(np.int64)})
    out = df.groupby("lang", as_index=False).agg(
        n_bigrams=("n", "sum"), ssum=("ssum", "sum"))
    out["mean_s_milli"] = (out["ssum"] // out["n_bigrams"]).astype(
        np.int64)
    out["n_bigrams"] = out["n_bigrams"].astype(np.int64)
    return (out[["lang", "n_bigrams", "mean_s_milli"]]
            .sort_values("lang").reset_index(drop=True))


SQL_Q108 = f"""
WITH toks AS (
  SELECT doc_id, lang, regexp_extract_all(text, '\\S+') AS ts
  FROM documents
),
occ AS (
  SELECT doc_id, lang, doc_id % {BENCH_DOC_MOD} != 0 AS is_train,
         md5_number_upper(ts[i]) % 4611686018427387904 AS w1h,
         md5_number_upper(ts[i] || ' ' || ts[i+1])
           % 4611686018427387904 AS bh
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - 1)) AS t(i)
),
uni AS (SELECT w1h, count(*) AS cu FROM occ WHERE is_train GROUP BY 1),
bi  AS (SELECT bh, count(*) AS cb FROM occ WHERE is_train GROUP BY 1),
v AS (SELECT count(*) AS nv FROM uni),
sc AS (
  SELECT o.lang,
         ((coalesce(b.cb, 0) + 1) * 1000)
           // (coalesce(u.cu, 0) + v.nv) AS s
  FROM occ o
  LEFT JOIN uni u USING (w1h)
  LEFT JOIN bi b USING (bh)
  CROSS JOIN v
  WHERE NOT o.is_train
)
SELECT lang, count(*) AS n_bigrams,
       CAST(sum(s) // count(*) AS BIGINT) AS mean_s_milli
FROM sc GROUP BY lang ORDER BY lang
"""


# ------------------------------------------------------------------ q109

KCENTER_K = 8  # coreset size (greedy rounds)


def q109_kcenter_coreset(sf_dir: str):
    """K-CENTER GREEDY coreset selection (the diversity-sampling
    primitive behind active learning and dataset pruning, e.g. Sener &
    Savarese 2018): seed with vec 0, then {KCENTER_K}-1 rounds of 'add
    the point FARTHEST from its nearest center' — here with cosine, the
    point whose MAX similarity to any chosen center is LOWEST (ties ->
    min vec_id). Emits (rank, vec_id, sel_score_micro) where the score
    is the chosen point's max-sim at selection time (round 1 = 10^6,
    the self-similarity convention on both sides).

    Scale shape: the centers (<= {KCENTER_K} vectors) broadcast once
    per round and each round is ONE streaming argmin pass — per batch a
    matmul against the center matrix, a running max-sim fold, and a
    single (score, vec_id) partial per block; the corpus is read k
    times and never shuffled. The per-point running max could also be
    carried in a state column to make it one pass total — k passes keep
    the rounds independent and restartable."""
    ds = T(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()

    qdf = _pdf(sf_dir, "embeddings", ["vec_id", "embedding"])
    seed = qdf[qdf.vec_id == 0].iloc[0]
    centers_ids = [0]
    centers_mat = [np.asarray(seed["embedding"], np.float64)]
    out_rows = [(1, 0, 1_000_000)]

    def _unit(m):
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return m / n

    for rnd in range(2, KCENTER_K + 1):
        cref = ray.put(_unit(np.stack(centers_mat)))

        def argmin_partial(t: pa.Table, _cref=cref) -> pa.Table:
            from wikicrawl.functions._cache import broadcast_cached

            cu = broadcast_cached(_cref, lambda a: a)
            ids = t["vec_id"].to_numpy()
            mat = np.stack(t["embedding"].to_numpy()).astype(np.float64)
            sims = _unit(mat) @ cu.T
            mx = round_half_away(sims, 1_000_000).max(axis=1)
            order = np.lexsort((ids, mx))
            i = order[0]
            return pa.table({"vec_id": pa.array([int(ids[i])], pa.int64()),
                             "s": pa.array([int(mx[i])], pa.int64())})

        part = ds.map_batches(argmin_partial,
                              batch_format="pyarrow").to_pandas()
        part = part.sort_values(["s", "vec_id"]).iloc[0]
        cid, score = int(part["vec_id"]), int(part["s"])
        out_rows.append((rnd, cid, score))
        centers_ids.append(cid)
        centers_mat.append(np.asarray(
            qdf.loc[qdf.vec_id == cid, "embedding"].iloc[0], np.float64))

    out = pd.DataFrame(out_rows,
                       columns=["rank", "vec_id", "sel_score_micro"])
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("rank").reset_index(drop=True)


def _sql_q109() -> str:
    sim = ("CAST(round(list_cosine_similarity(d.emb, (SELECT emb FROM dd "
           "WHERE vec_id = (SELECT vec_id FROM c{j}))) * 1000000) "
           "AS BIGINT)")
    parts = ["WITH dd AS MATERIALIZED (SELECT vec_id, "
             "CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)",
             ", c1 AS (SELECT CAST(0 AS BIGINT) AS vec_id, "
             "CAST(1000000 AS BIGINT) AS s)",
             f", m1 AS MATERIALIZED (SELECT d.vec_id, {sim.format(j=1)} "
             "AS s FROM dd d)"]
    for j in range(2, KCENTER_K + 1):
        parts.append(
            f", c{j} AS (SELECT vec_id, s FROM m{j-1} "
            f"ORDER BY s ASC, vec_id LIMIT 1)")
        if j < KCENTER_K:
            parts.append(
                f", m{j} AS MATERIALIZED (SELECT d.vec_id, "
                f"greatest(m.s, {sim.format(j=j)}) AS s "
                f"FROM dd d JOIN m{j-1} m USING (vec_id))")
    sel = " UNION ALL ".join(
        f"SELECT CAST({j} AS BIGINT) AS rank, vec_id, "
        f"s AS sel_score_micro FROM c{j}"
        for j in range(1, KCENTER_K + 1))
    return "".join(parts) + " " + sel + " ORDER BY rank"


# ------------------------------------------------------------------ q110


def q110_gini_concentration(sf_dir: str):
    """Word-frequency GINI concentration per source — q95's companion
    corpus-health diagnostic: natural text concentrates mass in few
    words (high Gini); template/boilerplate-generated text flattens it.
    Integer-exact single-fraction form over ASCENDING-sorted counts:
    gini_milli = (1000*(2*sum(i*c_i) - (n+1)*S)) // (n*S) — the rank
    sum is tie-order-invariant (equal counts occupy a fixed rank SET),
    so engine numpy sort and the oracle's row_number agree exactly.

    Scale shape: ONE corpus pass of (source, word, cnt) partials (the
    q95 plan); the fold and per-source sort run over sources x vocab
    rows. At a vocab too big to fold on the driver the same rank sum
    falls out of a source-keyed shuffle + per-partition cumulative
    ranks — the formula needs only (n, S, sum(i*c_i)) per source."""
    ds = T(sf_dir, "documents", ["text", "source"])

    def occ_partials(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for txt, src in zip(t["text"].to_pylist(),
                            t["source"].to_pylist()):
            for w in F_dedup.tokenize(txt):
                c[(src, w)] += 1
        srcs, ws = zip(*c.keys()) if c else ((), ())
        return pa.table({"source": pa.array(list(srcs), pa.string()),
                         "word": pa.array(list(ws), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    occ = (ds.map_batches(occ_partials, batch_format="pyarrow")
           .to_pandas()
           .groupby(["source", "word"], as_index=False)["cnt"].sum())
    rows = []
    for src, g in occ.groupby("source"):
        c = np.sort(g["cnt"].to_numpy(np.int64))
        n, sv = int(len(c)), int(c.sum())
        sic = int((np.arange(1, n + 1, dtype=np.int64) * c).sum())
        gini = (1000 * (2 * sic - (n + 1) * sv)) // (n * sv)
        rows.append((src, n, gini))
    out = pd.DataFrame(rows, columns=["source", "n_words", "gini_milli"])
    for col in ("n_words", "gini_milli"):
        out[col] = out[col].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


SQL_Q110 = """
WITH wf AS (
  SELECT source, w, count(*) AS c FROM (
    SELECT source, unnest(regexp_extract_all(text, '\\S+')) AS w
    FROM documents)
  GROUP BY 1, 2
),
r AS (
  SELECT source, c, row_number() OVER (PARTITION BY source
            ORDER BY c, w) AS rn
  FROM wf
),
m AS (
  SELECT source, count(*)::HUGEINT AS n, sum(c)::HUGEINT AS sv,
         sum(rn * c)::HUGEINT AS sic
  FROM r GROUP BY 1
)
SELECT source, CAST(n AS BIGINT) AS n_words,
       CAST((1000 * (2 * sic - (n + 1) * sv)) // (n * sv) AS BIGINT)
         AS gini_milli
FROM m ORDER BY source
"""


# ------------------------------------------------------------------ q111


def q111_gapfill(sf_dir: str):
    """Dense tumbling windows with GAP FILLING — the time-series shape
    q09 can't express: per event_type, hourly event counts over the
    GLOBAL [min, max] hour range with silent hours emitted as explicit
    zeros (dashboards, rate alerting and seasonal models all need the
    dense axis; a missing row is not a zero). Emits
    (event_type, hour_us, n).

    Scale shape: the sparse aggregate is q09's groupby (partials
    pre-reduce per batch inside Ray's hash aggregate); the global hour
    bounds fold from per-batch (min, max) partials; densification is a
    driver-side cross of types x hours — O(types x range), never
    event-count-sized — reindexed vectorized against the sparse counts.
    At an hour range too big for the driver the same fill falls out of
    broadcasting the bounds and emitting each type's zero rows from one
    range-partitioned task per hour span."""
    ds = T(sf_dir, "events", ["event_type", "ts"])

    def hour_partials(t: pa.Table) -> pa.Table:
        h = pc.floor_temporal(t["ts"], unit="hour").cast(
            pa.int64())  # epoch us
        et = t["event_type"]
        df = pd.DataFrame({"event_type": et.to_pylist(),
                           "hour_us": h.to_pylist()})
        agg = df.groupby(["event_type", "hour_us"], as_index=False).size()
        agg = agg.rename(columns={"size": "n"})
        agg["n"] = agg["n"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    sparse = (ds.map_batches(hour_partials, batch_format="pyarrow")
              .to_pandas()
              .groupby(["event_type", "hour_us"], as_index=False)["n"]
              .sum())
    hour_us = 3_600_000_000
    lo = int(sparse["hour_us"].min())
    hi = int(sparse["hour_us"].max())
    hours = np.arange(lo, hi + hour_us, hour_us, dtype=np.int64)
    types = np.sort(sparse["event_type"].unique())
    dense = pd.DataFrame({
        "event_type": np.repeat(types, len(hours)),
        "hour_us": np.tile(hours, len(types))})
    out = dense.merge(sparse, on=["event_type", "hour_us"], how="left")
    out["n"] = out["n"].fillna(0).astype(np.int64)
    return (out.sort_values(["event_type", "hour_us"])
            .reset_index(drop=True))


SQL_Q111 = """
WITH e AS (
  SELECT event_type, epoch_us(date_trunc('hour', ts)) AS hour_us
  FROM events
),
b AS (SELECT min(hour_us) AS lo, max(hour_us) AS hi FROM e),
hours AS (
  SELECT unnest(generate_series(lo, hi, 3600000000)) AS hour_us FROM b
),
types AS (SELECT DISTINCT event_type FROM e),
sparse AS (
  SELECT event_type, hour_us, count(*) AS n FROM e GROUP BY 1, 2
)
SELECT t.event_type, h.hour_us,
       CAST(coalesce(s.n, 0) AS BIGINT) AS n
FROM types t CROSS JOIN hours h
LEFT JOIN sparse s ON s.event_type = t.event_type
                  AND s.hour_us = h.hour_us
ORDER BY t.event_type, h.hour_us
"""


# ------------------------------------------------------------------ q112

CHECKSUM_TABLES = ["customer", "nation", "orders", "region", "supplier"]


def q112_table_checksum(sf_dir: str):
    """Order-invariant TABLE CHECKSUMS — the anti-entropy primitive a
    distributed engine uses to prove two replicas (or a resumed run and
    a straight-line run) hold the SAME rows without shipping them: per
    table, XOR of a 64-bit md5 over every row's canonical string
    rendering. XOR is commutative/associative, so block order, batch
    boundaries and task placement cannot change the digest — exactly
    the property a resume-equivalence audit needs.

    Scale shape: ZERO shuffles — each block folds to ONE 64-bit partial
    (np.bitwise_xor.reduce over the rows' md5s), the driver XORs
    O(blocks) ints per table. Emits (tbl, n_rows, checksum) with the
    checksum as the oracle's signed BIGINT rendering."""
    key_col = {"customer": "c_custkey", "nation": "n_nationkey",
               "orders": "o_orderkey", "region": "r_regionkey",
               "supplier": "s_suppkey"}
    rows = []
    for tbl in CHECKSUM_TABLES:
        kc = key_col[tbl]

        def xor_partial(t: pa.Table, _kc=kc) -> pa.Table:
            ks = t[_kc].to_numpy(zero_copy_only=False)
            h = np.array([F_dedup.token_hash_u64(str(int(k)))
                          for k in ks], np.uint64)
            x = (np.bitwise_xor.reduce(h) if len(h)
                 else np.uint64(0))
            return pa.table({"n": pa.array([len(ks)], pa.int64()),
                             "x": pa.array([int(x) - (1 << 64)
                                            if int(x) >= (1 << 63)
                                            else int(x)], pa.int64())})

        part = (T(sf_dir, tbl, [kc])
                .map_batches(xor_partial, batch_format="pyarrow")
                .to_pandas())
        acc = np.uint64(0)
        for v in part["x"].to_numpy(np.int64):
            acc ^= np.int64(v).astype(np.uint64)
        signed = int(acc) - (1 << 64) if int(acc) >= (1 << 63) else int(acc)
        rows.append((tbl, int(part["n"].sum()), signed))
    out = pd.DataFrame(rows, columns=["tbl", "n_rows", "checksum"])
    for c in ("n_rows", "checksum"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("tbl").reset_index(drop=True)


def _sql_q112() -> str:
    key_col = {"customer": "c_custkey", "nation": "n_nationkey",
               "orders": "o_orderkey", "region": "r_regionkey",
               "supplier": "s_suppkey"}
    parts = []
    for tbl in CHECKSUM_TABLES:
        kc = key_col[tbl]
        parts.append(f"""
SELECT '{tbl}' AS tbl, count(*) AS n_rows,
       CAST(CAST(bit_xor(md5_number_upper(CAST({kc} AS VARCHAR)))
                 AS HUGEINT)
            - CASE WHEN bit_xor(md5_number_upper(CAST({kc} AS VARCHAR)))
                        >= 9223372036854775808
                   THEN CAST(18446744073709551616 AS HUGEINT)
                   ELSE 0 END AS BIGINT) AS checksum
FROM {tbl}""")
    return " UNION ALL ".join(parts) + " ORDER BY tbl"


# ------------------------------------------------------------------ q113

BOOL_QUERIES = [
    ("q1", ["window", "batch"]),
    ("q2", ["stream", "scan", "join"]),
    ("q3", ["zzzneverhits", "window"]),  # one impossible term -> 0 docs
]


def q113_boolean_search(sf_dir: str):
    """Boolean CONJUNCTIVE retrieval (the posting-list AND every search
    stack runs under its ranker — q58 ranks, THIS selects): per query,
    the count of docs containing ALL its terms as whole tokens, plus
    the matching doc_ids' checksum (XOR of md5s, q112's order-invariant
    digest) so the oracle pins the exact RESULT SET, not just its size.

    Scale shape: the query list broadcasts in the closure; each block
    tokenizes once, membership per (doc, term) is one sorted-array
    searchsorted probe over the doc's distinct token hashes, and blocks
    emit O(queries) (n, xor) partials — zero shuffles, the classic
    term-at-a-time evaluation turned block-parallel."""
    ds = T(sf_dir, "documents", ["doc_id", "text"])
    term_hashes = [np.sort(np.array(
        [F_dedup.token_hash_u64(t) for t in terms], np.uint64))
        for _, terms in BOOL_QUERIES]

    def scan(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        qn, nn, xx = [], [], []
        tok_sets = []
        for txt in t["text"].to_pylist():
            hs = np.unique(np.array(
                [F_dedup.token_hash_u64(w)
                 for w in set(F_dedup.tokenize(txt))], np.uint64))
            tok_sets.append(hs)
        id_h = np.array([F_dedup.token_hash_u64(str(int(i)))
                         for i in ids], np.uint64)
        for (qname, _), th in zip(BOOL_QUERIES, term_hashes):
            hit = np.zeros(len(ids), bool)
            for i, hs in enumerate(tok_sets):
                if len(hs) == 0:
                    continue
                pos = np.searchsorted(hs, th)
                pos[pos == len(hs)] = 0
                hit[i] = bool((hs[pos] == th).all())
            qn.append(qname)
            nn.append(int(hit.sum()))
            x = (np.bitwise_xor.reduce(id_h[hit]) if hit.any()
                 else np.uint64(0))
            xx.append(int(x) - (1 << 64) if int(x) >= (1 << 63)
                      else int(x))
        return pa.table({"query": pa.array(qn, pa.string()),
                         "n_docs": pa.array(nn, pa.int64()),
                         "xor_ids": pa.array(xx, pa.int64())})

    parts = ds.map_batches(scan, batch_format="pyarrow").to_pandas()
    rows = []
    for qname, g in parts.groupby("query"):
        acc = np.uint64(0)
        for v in g["xor_ids"].to_numpy(np.int64):
            acc ^= np.int64(v).astype(np.uint64)
        signed = (int(acc) - (1 << 64) if int(acc) >= (1 << 63)
                  else int(acc))
        rows.append((qname, int(g["n_docs"].sum()), signed))
    out = pd.DataFrame(rows, columns=["query", "n_docs", "xor_ids"])
    for c in ("n_docs", "xor_ids"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("query").reset_index(drop=True)


def _sql_q113() -> str:
    parts = []
    for qname, terms in BOOL_QUERIES:
        cond = " AND ".join(
            f"list_contains(regexp_extract_all(text, '\\S+'), '{t}')"
            for t in terms)
        parts.append(f"""
SELECT '{qname}' AS query, count(*) AS n_docs,
       CAST(coalesce(
         CAST(bit_xor(md5_number_upper(CAST(doc_id AS VARCHAR)))
              AS HUGEINT)
         - CASE WHEN bit_xor(md5_number_upper(CAST(doc_id AS VARCHAR)))
                     >= 9223372036854775808
                THEN CAST(18446744073709551616 AS HUGEINT)
                ELSE 0 END, 0) AS BIGINT) AS xor_ids
FROM documents WHERE {cond}""")
    return " UNION ALL ".join(parts) + " ORDER BY query"


# ------------------------------------------------------------------ q114

SETCOVER_K = 4  # greedy rounds (sources to select)


def q114_setcover_sources(sf_dir: str):
    """GREEDY SET COVER over sources (submodular selection — the
    coverage-driven acquisition decision: which {SETCOVER_K} sources
    together cover the most benchmark n-grams?): the universe is q33's
    benchmark gram set (doc_id % {BENCH_DOC_MOD} == 0 docs' word
    {NGRAM_N}-grams), an element is covered when a source's TRAIN docs
    contain it, and each round picks the source adding the most
    uncovered grams (ties -> min source). Emits
    (rank, source, new_covered).

    Scale shape: ONE corpus pass builds the (source, bench-gram)
    presence matrix — per batch only DISTINCT benchmark-gram hits leave
    the block (the probe is q33's broadcast sorted-array membership
    check), so the fold is bounded by sources x |benchmark|, small by
    construction. The greedy itself then runs on that matrix on the
    driver; corpus never shuffles."""
    from wikicrawl.functions._cache import broadcast_cached

    ds = T(sf_dir, "documents", ["doc_id", "text", "source"])

    def bench_grams(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        ex = F_dedup.ngram_explode_batch(
            t.filter(pa.array(ids % BENCH_DOC_MOD == 0)), NGRAM_N,
            "doc_id", "text")
        return ex.select(["gh"])

    bench = np.unique(pa.concat_tables([
        r for r in (ray.get(x) for x in
                    ds.map_batches(bench_grams, batch_format="pyarrow")
                    .to_arrow_refs()) if r.num_columns
    ] + [pa.table({"gh": pa.array([], pa.int64())})])["gh"].to_numpy())
    bench_ref = ray.put(bench)

    def presence(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t2 = t.filter(pa.array(ids % BENCH_DOC_MOD != 0))
        b = broadcast_cached(bench_ref, lambda a: a)
        out_s, out_g = [], []
        if t2.num_rows and len(b):
            ex = F_dedup.ngram_explode_batch(t2, NGRAM_N, "doc_id",
                                             "text")
            gh = ex["gh"].to_numpy()
            idx = np.searchsorted(b, gh)
            idx[idx == len(b)] = 0
            hit = b[idx] == gh
            did = ex["doc_id"].to_numpy(zero_copy_only=False)
            src_of = dict(zip(
                t2["doc_id"].to_numpy(zero_copy_only=False).tolist(),
                t2["source"].to_pylist()))
            srcs = np.array([src_of[int(d)] for d in did], object)
            df = pd.DataFrame({"source": srcs[hit],
                               "gh": gh[hit]}).drop_duplicates()
            out_s = df["source"].tolist()
            out_g = df["gh"].tolist()
        return pa.table({"source": pa.array(out_s, pa.string()),
                         "gh": pa.array(out_g, pa.int64())})

    pres = (ds.map_batches(presence, batch_format="pyarrow")
            .to_pandas().drop_duplicates())
    sets = {src: set(g["gh"]) for src, g in pres.groupby("source")}
    covered: set = set()
    rows = []
    for rnd in range(1, SETCOVER_K + 1):
        best_src, best_new = None, -1
        for src in sorted(sets):
            new = len(sets[src] - covered)
            if new > best_new:
                best_src, best_new = src, new
        if best_new <= 0:
            break  # saturated: the SQL twin emits no row for such a round
        rows.append((rnd, best_src, best_new))
        covered |= sets.get(best_src, set())
    out = pd.DataFrame(rows, columns=["rank", "source", "new_covered"])
    out["rank"] = out["rank"].astype(np.int64)
    out["new_covered"] = out["new_covered"].astype(np.int64)
    return out.sort_values("rank").reset_index(drop=True)


def _sql_q114() -> str:
    head = f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, source, regexp_extract_all(text, '\\S+') AS ts
  FROM documents
),
grams AS MATERIALIZED (
  SELECT DISTINCT doc_id, source,
     md5_number_upper(ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]) AS gh
  FROM toks, LATERAL unnest(generate_series(1, len(ts) - {NGRAM_N - 1}))
       AS t(i)
),
bench AS MATERIALIZED (
  SELECT DISTINCT gh FROM grams WHERE doc_id % {BENCH_DOC_MOD} = 0
),
pres AS MATERIALIZED (
  SELECT DISTINCT g.source, g.gh
  FROM grams g JOIN bench b USING (gh)
  WHERE g.doc_id % {BENCH_DOC_MOD} != 0
)"""
    parts = [head]
    prev_cov = None
    for j in range(1, SETCOVER_K + 1):
        if j == 1:
            parts.append(
                ", c1 AS (SELECT source, count(*) AS new_covered "
                "FROM pres GROUP BY source "
                "ORDER BY new_covered DESC, source LIMIT 1)")
            prev_cov = ("cov1 AS (SELECT gh FROM pres "
                        "WHERE source = (SELECT source FROM c1))")
            parts.append(", " + prev_cov)
        else:
            parts.append(
                f", c{j} AS (SELECT source, count(*) AS new_covered "
                f"FROM pres WHERE gh NOT IN (SELECT gh FROM cov{j-1}) "
                f"GROUP BY source ORDER BY new_covered DESC, source "
                f"LIMIT 1)")
            if j < SETCOVER_K:
                parts.append(
                    f", cov{j} AS (SELECT gh FROM cov{j-1} UNION "
                    f"SELECT gh FROM pres "
                    f"WHERE source = (SELECT source FROM c{j}))")
    sel = " UNION ALL ".join(
        f"SELECT CAST({j} AS BIGINT) AS rank, source, new_covered "
        f"FROM c{j}"
        for j in range(1, SETCOVER_K + 1))
    return "".join(parts) + " " + sel + " ORDER BY rank"


# ------------------------------------------------------------------ q115


def q115_behavior_entropy(sf_dir: str):
    """Per-user BEHAVIORAL entropy — the bot/automation signal (a user
    hammering one event type scores ~0; organic mixed activity scores
    high): fixed-point Shannon entropy numerator of each user's
    event-type distribution, ``n*fxlog2(n) - sum_t c_t*fxlog2(c_t)``
    (:func:`_fxlog2`, q98's image-histogram formula over behavior;
    H = ent_num / (n*{DSIR_F}) bits). Emits (user_id, n_events,
    ent_num).

    Scale shape: per-batch (user, type, cnt) partials fold to a table
    bounded by users x types; entropy is one vectorized segment pass
    over the folded counts. A user-count too big for the driver moves
    the fold into a user-keyed groupby — the formula needs only each
    user's own counts, so it is embarrassingly key-local."""
    ds = T(sf_dir, "events", ["user_id", "event_type"])

    def cnt_partials(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"user_id": t["user_id"].to_numpy(
            zero_copy_only=False),
            "event_type": t["event_type"].to_pylist()})
        agg = (df.groupby(["user_id", "event_type"], as_index=False)
               .size().rename(columns={"size": "cnt"}))
        agg["cnt"] = agg["cnt"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    cnts = (ds.map_batches(cnt_partials, batch_format="pyarrow")
            .to_pandas()
            .groupby(["user_id", "event_type"], as_index=False)["cnt"]
            .sum())
    cnts = cnts.sort_values("user_id", kind="mergesort")
    u = cnts["user_id"].to_numpy(np.int64)
    c = cnts["cnt"].to_numpy(np.int64)
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    n_per = np.add.reduceat(c, starts)
    term = np.add.reduceat(c * _fxlog2(c), starts)
    ent = n_per * _fxlog2(n_per) - term
    out = pd.DataFrame({"user_id": u[starts],
                        "n_events": n_per.astype(np.int64),
                        "ent_num": ent.astype(np.int64)})
    return out.sort_values("user_id").reset_index(drop=True)


SQL_Q115 = f"""
WITH c AS (
  SELECT user_id, event_type, count(*) AS cnt
  FROM events GROUP BY 1, 2
),
n AS (SELECT user_id, sum(cnt) AS n FROM c GROUP BY 1)
SELECT c.user_id, CAST(n.n AS BIGINT) AS n_events,
  CAST(n.n * ((length(bin(n.n)) - 1) * {DSIR_F}
         + (n.n * {DSIR_F}) // (CAST(1 AS BIGINT)
                                << (length(bin(n.n)) - 1))
         - {DSIR_F})
     - sum(cnt * ((length(bin(cnt)) - 1) * {DSIR_F}
         + (cnt * {DSIR_F}) // (CAST(1 AS BIGINT)
                                << (length(bin(cnt)) - 1))
         - {DSIR_F})) AS BIGINT) AS ent_num
FROM c JOIN n USING (user_id)
GROUP BY c.user_id, n.n ORDER BY c.user_id
"""


# ------------------------------------------------------------------ registry

QUERIES = {
    "q01_pricing_summary": q01_pricing_summary,
    "q02_regex_filter": q02_regex_filter,
    "q03_first_wins": q03_first_wins,
    "q04_anti_join": q04_anti_join,
    "q05_shared_frequency": q05_shared_frequency,
    "q06_staleness_order": q06_staleness_order,
    "q07_keep_freshest": q07_keep_freshest,
    "q08_topk": q08_topk,
    "q09_window_tumbling": q09_window_tumbling,
    "q10_broadcast_join": q10_broadcast_join,
    "q11_hash_join": q11_hash_join,
    "q12_asof_join": q12_asof_join,
    "q13_token_stats": q13_token_stats,
    "q14_lang_id": q14_lang_id,
    "q15_quality": q15_quality,
    "q16_exact_dedup": q16_exact_dedup,
    "q17_minhash_pairs": q17_minhash_pairs,
    "q18_simhash": q18_simhash,
    "q19_embedding_dups": q19_embedding_dups,
    "q20_ann_topk": q20_ann_topk,
    "q21_ann_lsh": q21_ann_lsh,
    "q22_simhash_dups": q22_simhash_dups,
    "q23_ann_ivf": q23_ann_ivf,
    "q24_ngram_jaccard": q24_ngram_jaccard,
    "q25_range_join": q25_range_join,
    "q26_window_hopping": q26_window_hopping,
    "q27_group_topk": q27_group_topk,
    "q28_stratified_sample": q28_stratified_sample,
    "q29_ngram_vocab": q29_ngram_vocab,
    "q30_sessionize": q30_sessionize,
    "q31_token_chunks": q31_token_chunks,
    "q32_length_quantiles": q32_length_quantiles,
    "q33_decontaminate": q33_decontaminate,
    "q34_training_pipeline": q34_training_pipeline,
    "q35_pii_scrub": q35_pii_scrub,
    "q36_repetition_signals": q36_repetition_signals,
    "q37_dup_clusters": q37_dup_clusters,
    "q38_audio_features": q38_audio_features,
    "q39_image_blocks": q39_image_blocks,
    "q40_span_dedup": q40_span_dedup,
    "q41_semdedup": q41_semdedup,
    "q42_tfidf": q42_tfidf,
    "q43_knn_graph": q43_knn_graph,
    "q44_image_exact_dedup": q44_image_exact_dedup,
    "q45_global_shuffle": q45_global_shuffle,
    "q46_mixture_resample": q46_mixture_resample,
    "q47_group_quantiles": q47_group_quantiles,
    "q48_json_extract": q48_json_extract,
    "q49_incremental_dedup": q49_incremental_dedup,
    "q50_bigram_lm": q50_bigram_lm,
    "q51_image_ahash_dups": q51_image_ahash_dups,
    "q52_window_functions": q52_window_functions,
    "q53_hll_distinct": q53_hll_distinct,
    "q54_cms_heavy_hitters": q54_cms_heavy_hitters,
    "q55_pagerank": q55_pagerank,
    "q56_group_linreg": q56_group_linreg,
    "q57_collocations": q57_collocations,
    "q58_bm25_search": q58_bm25_search,
    "q59_grouped_hll": q59_grouped_hll,
    "q60_triangle_count": q60_triangle_count,
    "q61_image_dup_clusters": q61_image_dup_clusters,
    "q62_image_histograms": q62_image_histograms,
    "q63_kcore": q63_kcore,
    "q64_time_decay": q64_time_decay,
    "q65_quality_gate": q65_quality_gate,
    "q66_rollup": q66_rollup,
    "q67_percentile_rank": q67_percentile_rank,
    "q68_outliers": q68_outliers,
    "q69_star_join": q69_star_join,
    "q70_funnel": q70_funnel,
    "q71_image_caption_table": q71_image_caption_table,
    "q72_cohort_retention": q72_cohort_retention,
    "q73_late_events": q73_late_events,
    "q74_chunk_langid": q74_chunk_langid,
    "q75_label_centroids": q75_label_centroids,
    "q76_skyline": q76_skyline,
    "q77_cube": q77_cube,
    "q78_video_frames": q78_video_frames,
    "q79_sequence_packing": q79_sequence_packing,
    "q80_quantile_sketch": q80_quantile_sketch,
    "q81_source_overlap": q81_source_overlap,
    "q82_bitext_mining": q82_bitext_mining,
    "q83_zorder_layout": q83_zorder_layout,
    "q84_pq_adc": q84_pq_adc,
    "q85_image_whash_dups": q85_image_whash_dups,
    "q86_bloom_dedup": q86_bloom_dedup,
    "q87_cdc_chunks": q87_cdc_chunks,
    "q88_audio_fp_dups": q88_audio_fp_dups,
    "q89_dsir_select": q89_dsir_select,
    "q90_ppjoin": q90_ppjoin,
    "q91_bpe_merges": q91_bpe_merges,
    "q92_bpe_tokenize": q92_bpe_tokenize,
    "q93_video_dups": q93_video_dups,
    "q94_hard_negatives": q94_hard_negatives,
    "q95_zipf_slope": q95_zipf_slope,
    "q96_fuzzy_decontaminate": q96_fuzzy_decontaminate,
    "q97_canonical_docs": q97_canonical_docs,
    "q98_image_quality": q98_image_quality,
    "q99_blocklist_scan": q99_blocklist_scan,
    "q100_corpus_scrub": q100_corpus_scrub,
    "q101_priority_sample": q101_priority_sample,
    "q102_event_transitions": q102_event_transitions,
    "q103_left_join_enrich": q103_left_join_enrich,
    "q104_image_blobs": q104_image_blobs,
    "q105_profile": q105_profile,
    "q106_fk_audit": q106_fk_audit,
    "q107_label_noise": q107_label_noise,
    "q108_heldout_lm_eval": q108_heldout_lm_eval,
    "q109_kcenter_coreset": q109_kcenter_coreset,
    "q110_gini_concentration": q110_gini_concentration,
    "q111_gapfill": q111_gapfill,
    "q112_table_checksum": q112_table_checksum,
    "q113_boolean_search": q113_boolean_search,
    "q114_setcover_sources": q114_setcover_sources,
    "q115_behavior_entropy": q115_behavior_entropy,
}

ORACLE_SQL = {
    "q01_pricing_summary": SQL_Q01,
    "q02_regex_filter": SQL_Q02,
    "q03_first_wins": SQL_Q03,
    "q04_anti_join": SQL_Q04,
    "q05_shared_frequency": SQL_Q05,
    "q06_staleness_order": SQL_Q06,
    "q07_keep_freshest": SQL_Q07,
    "q08_topk": SQL_Q08,
    "q09_window_tumbling": SQL_Q09,
    "q10_broadcast_join": SQL_Q10,
    "q11_hash_join": SQL_Q11,
    "q12_asof_join": SQL_Q12,
    "q13_token_stats": SQL_Q13,
    "q14_lang_id": _sql_q14(),
    "q15_quality": _sql_q15(),
    "q16_exact_dedup": SQL_Q16,
    "q17_minhash_pairs": SQL_Q17,
    "q18_simhash": SQL_Q18,
    "q19_embedding_dups": SQL_Q19,
    "q20_ann_topk": SQL_Q20,
    "q21_ann_lsh": _sql_q21(),
    "q22_simhash_dups": SQL_Q22,
    "q23_ann_ivf": _sql_q23(),
    "q24_ngram_jaccard": SQL_Q24,
    "q25_range_join": SQL_Q25,
    "q26_window_hopping": SQL_Q26,
    "q27_group_topk": SQL_Q27,
    "q28_stratified_sample": SQL_Q28,
    "q29_ngram_vocab": SQL_Q29,
    "q30_sessionize": SQL_Q30,
    "q31_token_chunks": SQL_Q31,
    "q32_length_quantiles": SQL_Q32,
    "q33_decontaminate": SQL_Q33,
    "q34_training_pipeline": _sql_q34(),
    "q35_pii_scrub": _sql_q35(),
    "q36_repetition_signals": SQL_Q36,
    "q37_dup_clusters": SQL_Q37,
    "q38_audio_features": _sql_q38(),
    "q39_image_blocks": _sql_q39(),
    "q40_span_dedup": SQL_Q40,
    "q41_semdedup": _sql_q41(),
    "q42_tfidf": SQL_Q42,
    "q43_knn_graph": _sql_q43(),
    "q44_image_exact_dedup": SQL_Q44,
    "q45_global_shuffle": SQL_Q45,
    "q46_mixture_resample": SQL_Q46,
    "q47_group_quantiles": SQL_Q47,
    "q48_json_extract": SQL_Q48,
    "q49_incremental_dedup": SQL_Q49,
    "q50_bigram_lm": SQL_Q50,
    "q51_image_ahash_dups": SQL_Q51,
    "q52_window_functions": SQL_Q52,
    "q53_hll_distinct": SQL_Q53,
    "q54_cms_heavy_hitters": SQL_Q54,
    "q55_pagerank": SQL_Q55,
    "q56_group_linreg": SQL_Q56,
    "q57_collocations": SQL_Q57,
    "q58_bm25_search": SQL_Q58,
    "q59_grouped_hll": SQL_Q59,
    "q60_triangle_count": SQL_Q60,
    "q61_image_dup_clusters": SQL_Q61,
    "q62_image_histograms": SQL_Q62,
    "q63_kcore": _sql_q63(),
    "q64_time_decay": SQL_Q64,
    "q65_quality_gate": _sql_q65(),
    "q66_rollup": SQL_Q66,
    "q67_percentile_rank": SQL_Q67,
    "q68_outliers": SQL_Q68,
    "q69_star_join": SQL_Q69,
    "q70_funnel": SQL_Q70,
    "q71_image_caption_table": SQL_Q71,
    "q72_cohort_retention": SQL_Q72,
    "q73_late_events": SQL_Q73,
    "q74_chunk_langid": _sql_q74(),
    "q75_label_centroids": SQL_Q75,
    "q76_skyline": SQL_Q76,
    "q77_cube": SQL_Q77,
    "q78_video_frames": SQL_Q78,
    "q79_sequence_packing": SQL_Q79,
    "q80_quantile_sketch": SQL_Q80,
    "q81_source_overlap": SQL_Q81,
    "q82_bitext_mining": SQL_Q82,
    "q83_zorder_layout": _sql_q83(),
    "q84_pq_adc": _sql_q84(),
    "q85_image_whash_dups": SQL_Q85,
    "q86_bloom_dedup": SQL_Q86,
    "q87_cdc_chunks": SQL_Q87,
    "q88_audio_fp_dups": SQL_Q88,
    "q89_dsir_select": SQL_Q89,
    "q90_ppjoin": SQL_Q90,
    "q91_bpe_merges": _sql_q91(),
    "q92_bpe_tokenize": _sql_q92(),
    "q93_video_dups": SQL_Q93,
    "q94_hard_negatives": SQL_Q94,
    "q95_zipf_slope": SQL_Q95,
    "q96_fuzzy_decontaminate": SQL_Q96,
    "q97_canonical_docs": SQL_Q97,
    "q98_image_quality": _sql_q98(),
    "q99_blocklist_scan": _sql_q99(),
    "q100_corpus_scrub": SQL_Q100,
    "q101_priority_sample": SQL_Q101,
    "q102_event_transitions": SQL_Q102,
    "q103_left_join_enrich": SQL_Q103,
    "q104_image_blobs": SQL_Q104,
    "q105_profile": _sql_q105(),
    "q106_fk_audit": _sql_q106(),
    "q107_label_noise": SQL_Q107,
    "q108_heldout_lm_eval": SQL_Q108,
    "q109_kcenter_coreset": _sql_q109(),
    "q110_gini_concentration": SQL_Q110,
    "q111_gapfill": SQL_Q111,
    "q112_table_checksum": _sql_q112(),
    "q113_boolean_search": _sql_q113(),
    "q114_setcover_sources": _sql_q114(),
    "q115_behavior_entropy": SQL_Q115,
}
