"""Worker-crash fault injection: golden parity through Ray task retry.

Two sites, each killed once with os._exit(1) — a hard worker crash, the
failure mode Ray's default task retry handles transparently:

- the first fetch task to claim the ``died`` marker, BEFORE any side
  effect. Its one file, the payload delta part, has a fixed name and is
  atomically renamed, counters ride on the (single successful) task
  return, and the admission WAL journals before the frontier push;
- the first finalize stager to claim the ``stager_died`` marker, right
  after its first yielded block. Its blocks live only as task outputs,
  so the retried generator must re-derive every one of them exactly.

The crawl must still finish, and its tables, crawl order and URL-seen set
must be value-identical to the straight-line oracle.

Run directly or via tests/test_fault_retry.py (subprocess — the env var
must be set before the Ray workers fork). Prints ONE JSON line.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CORPUS = "/tmp/wikicrawl_fault_corpus"
OUT = "/tmp/wikicrawl_fault_out"

TS_COLS = {"last_crawled_at", "last_success_at", "dat"}
BOOK_COLS = {"_row_id", "_dat_creat"}


def norm(tbl, sort_keys):
    df = tbl.to_pandas() if hasattr(tbl, "to_pandas") else tbl
    df = df.drop(columns=[c for c in df.columns if c in TS_COLS | BOOK_COLS])
    return df.sort_values(sort_keys).reset_index(drop=True)


def frames_equal(a, b) -> bool:
    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    for c in a.columns:
        if a[c].dtype == object:
            if not (a[c].fillna("\x00") == b[c].fillna("\x00")).all():
                return False
        elif not a[c].equals(b[c]):
            return False
    return True


def main() -> None:
    fault_dir = tempfile.mkdtemp(prefix="wikicrawl_fault_")
    os.environ["WIKICRAWL_FAULT_ONCE_DIR"] = fault_dir

    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from wikicrawl.oracle import run_oracle
    from wikicrawl.pipelines.crawl import CrawlConfig, crawl, read_crawl_log
    from wikicrawl.synth import generate

    generate(CORPUS, n_entities=200, seed=42)
    shutil.rmtree(OUT, ignore_errors=True)
    cfg = CrawlConfig(corpus_dir=CORPUS, out_dir=OUT, entity_wave=64,
                      strict_order=True)
    res = crawl(cfg)

    fired = {site: os.path.exists(os.path.join(fault_dir, marker))
             for site, marker in (("fetch", "died"), ("stager", "stager_died"))}
    oracle = run_oracle(CORPUS)
    checks = {
        "pages": frames_equal(
            norm(res.tables["pages"].read_all(), ["wikidata_id", "lang"]),
            norm(oracle.pages, ["wikidata_id", "lang"])),
        "sections": frames_equal(
            norm(res.tables["sections"].read_all(),
                 ["wikidata_id", "lang", "display_order"]),
            norm(oracle.sections, ["wikidata_id", "lang", "display_order"])),
        "images_out": frames_equal(
            norm(res.tables["images_out"].read_all(),
                 ["wikidata_id", "lang", "display_order"]),
            norm(oracle.images_out, ["wikidata_id", "lang", "display_order"])),
    }
    log = read_crawl_log(OUT).to_pandas()
    want_log = oracle.crawl_log.to_pandas()
    checks["crawl_order"] = bool(
        len(log) == len(want_log)
        and (log["canonical_url"].to_numpy()
             == want_log["canonical_url"].to_numpy()).all()
        and (log["seq"].to_numpy() == want_log["seq"].to_numpy()).all()
    )
    out = {
        "metric": "worker-crash fault injection golden parity",
        "fault_fired": fired,
        "fetched": res.metrics["fetched"],
        "parity": checks,
        "ok": all(fired.values()) and all(checks.values()),
    }
    ray.shutdown()
    shutil.rmtree(fault_dir, ignore_errors=True)
    print(json.dumps(out))
    assert out["ok"], out


if __name__ == "__main__":
    main()
