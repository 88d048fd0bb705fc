"""Query workload: a fixed set of library queries plus the flagship
training-data pipeline, over a fixed copy of the TPC-H-style test tables.

The tables and the query order are fixed, so the seed does not apply: a
query's cost depends on what ran before it in the session, so a varying
order would add spread that says nothing about the engine. Every result
is compared with its DuckDB twin from ``wikicrawl.queries.ORACLE_SQL`` in
columns, row count, values and per-column dtype. A result that differs only in dtype counts as a
failed operation without marking the run incorrect; one that differs in
columns, rows or values marks it incorrect.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pandas as pd

from session import warm_workers

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "sf0.01")
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()

# One query per library family (joins, streaming windows, exact and
# near-duplicate dedup, text statistics, JSON extraction, sketches,
# similarity search), each well under a second here and with an oracle
# that DuckDB answers in well under a second. q48's oracle returns float64
# where the engine returns int64, so it fails the dtype check until its SQL
# gets a CAST. q17 and q96 memoize their result in the calling process, so
# a repeat would time a dictionary lookup; they are left out.
QUERY_SET = (
    "q04_anti_join", "q09_window_tumbling", "q16_exact_dedup",
    "q22_simhash_dups", "q42_tfidf", "q48_json_extract",
    "q53_hll_distinct", "q58_bm25_search",
)
ENTRY = "training_data.entry"  # checked against q34, the same pipeline
WARMUP_QUERY = "q28_stratified_sample"


def _compare(got: pd.DataFrame, want: pd.DataFrame) -> tuple[str, str] | None:
    """None when equal; else (kind, message), kind "dtype" or "mismatch"."""
    if sorted(got.columns) != sorted(want.columns):
        return "mismatch", f"columns {sorted(got.columns)} vs {sorted(want.columns)}"
    if len(got) != len(want):
        return "mismatch", f"rows {len(got)} vs {len(want)}"
    cols = sorted(got.columns)
    g = got[cols].apply(lambda s: s.astype(str) if s.dtype == object else s)
    w = want[cols].apply(lambda s: s.astype(str) if s.dtype == object else s)
    g = g.sort_values(cols).reset_index(drop=True)
    w = w.sort_values(cols).reset_index(drop=True)
    for c in cols:
        a, b = g[c], w[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            ok = np.allclose(a.astype(float).fillna(-1e18),
                             b.astype(float).fillna(-1e18), rtol=0, atol=1e-9)
        else:
            ok = bool((a.astype(str) == b.astype(str)).all())
        if not ok:
            return "mismatch", f"column {c} values differ"
    dtypes = [c for c in cols if got[c].dtype != want[c].dtype]
    if dtypes:
        return "dtype", "dtype " + ", ".join(
            f"{c}: {got[c].dtype} vs {want[c].dtype}" for c in dtypes)
    return None


def _entry(sf_dir: str) -> pd.DataFrame:
    """The flagship pipeline as ``__ray_entry__.entry()`` builds it,
    materialized in q34's column order."""
    import ray.data as rd

    from wikicrawl.pipelines.training_data import training_corpus
    from wikicrawl.queries import (BENCH_DOC_MOD, CHUNK_TOKENS, PIPE_NGRAM_N,
                                   SAMPLE_MOD, SAMPLE_RATES)

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "text"],
    ).map_batches(lambda t: t.replace_schema_metadata(None),
                  batch_format="pyarrow")
    out = training_corpus(
        ds, ngram_n=PIPE_NGRAM_N, bench_mod=BENCH_DOC_MOD,
        sample_mod=SAMPLE_MOD, sample_rates=SAMPLE_RATES,
        chunk_tokens=CHUNK_TOKENS,
    ).to_pandas()
    return out[["doc_id", "lang", "chunk_id", "chunk_text", "n_tokens"]]


class QuerySweep:
    name = "query_sweep"
    not_run = {p: "the query workload runs no crawl" for p in (
        "crawl", "frontier.", "seen.", "table.", "codec.", "maintenance.")}

    def __init__(self, work_dir: str, seed: int, num_cpus: int):
        self.order = [*QUERY_SET, ENTRY]
        self.oracle: dict[str, pd.DataFrame] = {}
        self.oracle_s = 0.0
        self.results: dict[str, pd.DataFrame] = {}
        self.errors: dict[str, str] = {}
        self.latency: dict[str, list[float]] = {n: [] for n in self.order}
        self.tracer = None

    def prepare(self) -> None:
        """DuckDB answers for the set, computed once per run, untimed."""
        import duckdb

        from wikicrawl.queries import ORACLE_SQL

        if not os.path.exists(os.path.join(DATA_DIR, "documents.parquet")):
            raise FileNotFoundError(f"query tables missing under {DATA_DIR}")
        t0 = time.perf_counter()
        con = duckdb.connect()
        try:
            for t in TABLES:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                            f"read_parquet('{DATA_DIR}/{t}.parquet')")
            for name in self.order:
                sql = ORACLE_SQL["q34_training_pipeline" if name == ENTRY else name]
                self.oracle[name] = con.execute(sql).fetchdf()
        finally:
            con.close()
        self.oracle_s = time.perf_counter() - t0

    def _call(self, name: str) -> pd.DataFrame:
        if name == ENTRY:
            return _entry(DATA_DIR)
        from wikicrawl.queries import QUERIES

        got = QUERIES[name](DATA_DIR)
        return got.to_pandas() if hasattr(got, "to_pandas") else got

    def trace_targets(self) -> list:
        """None: :meth:`op` records one span per query while traced."""
        return []

    def warm_up(self) -> None:
        from ray.data import DataContext

        # crawl() pins preserve_order for its resolve stream; queries have
        # no cross-batch order contract
        DataContext.get_current().execution_options.preserve_order = False
        warm_workers(("ray.data", "wikicrawl.queries",
                      "wikicrawl.pipelines.training_data"))
        self._call(WARMUP_QUERY)

    def reset(self) -> None:
        self.results.clear()
        self.errors.clear()

    def op(self) -> dict:
        """One round over the set; each query is one operation, and
        ``op_walls`` holds their latencies. A query that raises is recorded
        and the round goes on; it counts as a failed operation."""
        rows, walls = 0, []
        for name in self.order:
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:
                    with self.tracer.span(f"queries.{name}"):
                        got = self._call(name)
                else:
                    got = self._call(name)
            except Exception as e:  # noqa: BLE001 - counted, run goes on
                self.errors[name] = f"{type(e).__name__}: {e}"
                continue
            walls.append(time.perf_counter() - t0)
            self.latency[name].append(walls[-1])
            self.results[name] = got
            rows += len(got)
        return {"items": len(self.results), "rows": rows, "ops": len(self.order),
                "op_walls": walls}

    def check(self) -> list[dict]:
        out = [{"op": n, "kind": "error", "msg": m} for n, m in self.errors.items()]
        for name, got in self.results.items():
            bad = _compare(got, self.oracle[name])
            if bad is not None:
                out.append({"op": name, "kind": bad[0], "msg": bad[1]})
        return out

    def layer_metrics(self, base: list[dict], tracer, run_op) -> dict:
        """Per-query medians over the untraced rounds ``base`` (and the
        traced one); a round's wall is ``queries.sweep_s``."""
        round_walls = [s["wall"] for s in base]
        m = {f"queries.{n}_s": statistics.median(v) if v else 0.0
             for n, v in self.latency.items() if n != ENTRY}
        m["training_data.entry_s"] = (statistics.median(self.latency[ENTRY])
                                      if self.latency[ENTRY] else 0.0)
        m["queries.sweep_s"] = statistics.median(round_walls) if round_walls else 0.0
        every = [x for v in self.latency.values() for x in v]
        m["queries.p50_s"] = statistics.median(every) if every else 0.0
        m["queries.max_s"] = max((x for v in self.latency.values() for x in v),
                                 default=0.0)
        return m
