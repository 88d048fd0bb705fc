"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing here
(nor in the wikicrawl library) calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``   — flagship pipeline on /root/testdata/sf0.001: the composed
  TRAINING-DATA pipeline (exact dedup -> benchmark drop -> stratified
  hash-sample -> n-gram decontamination -> token chunking) as one streaming
  Dataset plan; value-verified against a single DuckDB CTE chain (q34).
  The enrichment operators (token counts, language ID, quality,
  fingerprints) remain independently oracled as q13-q16.
- ``queries()`` — one callable per implemented operator/pipeline from
  SURVEY §2 + the training-data operator suite (dedup, similarity search,
  text analysis); see wikicrawl/queries.py.
- ``oracle_sql()`` — a DuckDB twin for EVERY query (all 115), with
  identical column names. Sketch and iterative operators included: q17
  exact pairwise shingle Jaccard (the shingle hash is injective over
  5-byte windows), q18/q22 SimHash via DuckDB's ``md5_number_upper`` +
  ``bit_count(xor(...))``, q21 LSH-ANN recall@k whose oracle recomputes
  the sign buckets from the same literal integer projection planes, and
  q23 IVF-ANN recall@k whose oracle recomputes the ENTIRE deterministic
  k-means training (hash-seeded init, micro-quantized cosine argmax,
  grid-quantized means) as unrolled SQL CTEs — recall derived vs the
  exact top-k entirely in SQL, no frozen artifacts anywhere.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: enrichment + composed training-data pipeline over sf0.001
    (returns a streaming Dataset of training chunks)."""
    import ray.data as rd

    from wikicrawl.pipelines.training_data import training_corpus
    from wikicrawl.queries import (BENCH_DOC_MOD, CHUNK_TOKENS, PIPE_NGRAM_N,
                                   SAMPLE_MOD, SAMPLE_RATES)

    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "lang", "text"],
    ).map_batches(lambda t: t.replace_schema_metadata(None),
                  batch_format="pyarrow")
    return training_corpus(
        ds, ngram_n=PIPE_NGRAM_N, bench_mod=BENCH_DOC_MOD,
        sample_mod=SAMPLE_MOD, sample_rates=SAMPLE_RATES,
        chunk_tokens=CHUNK_TOKENS,
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from wikicrawl.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from wikicrawl.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
