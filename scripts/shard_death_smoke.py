"""STATE-SHARD death resilience (VERDICT r3 item 7 — "the ugly case").

The worker/node drills (fault_retry_smoke, node_death_smoke) kill things
Ray can re-execute from lineage. This one kills what Ray CANNOT restore:
a stateful seen-set shard actor, mid-run, with committed waves behind it
and an in-flight wave ahead. The crawl fails (the facade's ray.get
surfaces RayActorError); the drill then proves the durability design —
FIFO wave manifests + admission WAL + per-wave seen segments — restores
EXACT golden parity via ``resume=True`` in the SAME Ray session:

- no Ray restart, no corpus regeneration, no re-crawl of committed waves
  (asserted: the resumed run fetches strictly fewer URLs than the full
  crawl);
- waves whose manifest never committed (the killed shard's segment flush
  died with it) are replayed from the admission WAL — the FIFO commit
  gate guarantees no committed manifest ever references lost state;
- final tables AND exact crawl order match the straight-line oracle.

Prints ONE JSON line. Run directly or via tests/test_shard_death.py.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CORPUS = "/tmp/wikicrawl_sharddeath_corpus"
OUT = "/tmp/wikicrawl_sharddeath_out"

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
    import ray

    from wikicrawl.oracle import run_oracle
    from wikicrawl.pipelines.crawl import CrawlConfig, crawl, read_crawl_log
    from wikicrawl.synth import generate

    generate(CORPUS, n_entities=1500, seed=42)
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    shutil.rmtree(OUT, ignore_errors=True)
    kill_wave = 3
    os.environ["WIKICRAWL_KILL_SEEN_SHARD_WAVE"] = str(kill_wave)
    cfg = CrawlConfig(corpus_dir=CORPUS, out_dir=OUT, entity_wave=64,
                      strict_order=True)
    died, err = False, None
    t0 = time.time()
    try:
        crawl(cfg)
    except Exception as e:  # noqa: BLE001 — the drill EXPECTS the failure
        died, err = True, f"{type(e).__name__}"
    finally:
        del os.environ["WIKICRAWL_KILL_SEEN_SHARD_WAVE"]
    fail_sec = time.time() - t0

    # committed manifests exist for waves before the kill
    ckpt_dir = os.path.join(OUT, "checkpoints")
    committed = sorted(f for f in os.listdir(ckpt_dir)) if \
        os.path.isdir(ckpt_dir) else []

    # snapshot the committed crawl-log files: resume must PRESERVE them
    # (append-only — committed waves are never re-crawled or rewritten)
    log_dir = os.path.join(OUT, "crawl_log")
    pre_logs = {
        f: os.path.getsize(os.path.join(log_dir, f))
        for f in os.listdir(log_dir)
    } if os.path.isdir(log_dir) else {}
    pre_rows = len(read_crawl_log(OUT)) if pre_logs else 0

    cfg2 = CrawlConfig(corpus_dir=CORPUS, out_dir=OUT, entity_wave=64,
                       strict_order=True, resume=True)
    t1 = time.time()
    res = crawl(cfg2)  # SAME Ray session — no restart
    resume_sec = time.time() - t1

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
    post_logs = {
        f: os.path.getsize(os.path.join(log_dir, f))
        for f in os.listdir(log_dir)
    }
    committed_preserved = (
        pre_rows > 0
        and all(post_logs.get(f) == sz for f, sz in pre_logs.items())
        and len(post_logs) > len(pre_logs)  # resume APPENDED new waves
    )
    out = {
        "metric": "seen-shard death mid-run: resume restores golden parity",
        "shard_killed": died,
        "failure": err,
        "kill_wave": kill_wave,
        "manifests_before_resume": len(committed),
        "fail_sec": round(fail_sec, 2),
        "resume_sec": round(resume_sec, 2),
        "total_fetched": res.metrics["fetched"],  # cumulative incl. resume-loaded baseline
        "oracle_urls": len(want_log),
        "committed_log_rows_before_resume": pre_rows,
        "committed_preserved_append_only": committed_preserved,
        "parity": checks,
        "ok": (died and len(committed) > 0 and committed_preserved
               and all(checks.values())),
    }
    ray.shutdown()
    print(json.dumps(out))
    assert out["ok"], out


if __name__ == "__main__":
    main()
