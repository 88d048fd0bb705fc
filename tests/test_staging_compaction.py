"""Staging happens once, at finalize: fetch tasks write only their
payload delta part, and finalize's stager tasks derive the five output
tables from all committed deltas in a few batches. Covers the file-count
bound, the halt/resume and corrupt-delta exits, and merge_partition's
collapse of duplicated staged rows."""

import glob
import os
import shutil
import time

import pandas as pd
import pyarrow.parquet as pq
import pytest

from wikicrawl.oracle import run_discovery_oracle, run_oracle
from wikicrawl.pipelines import crawl as crawl_mod
from wikicrawl.pipelines.crawl import CrawlConfig, crawl, read_crawl_log
from wikicrawl.synth import generate

CORPUS = "/tmp/wikicrawl_test_corpus_compact"
OUT = "/tmp/wikicrawl_test_crawl_compact"

TS_COLS = {"last_crawled_at", "last_success_at", "dat"}
BOOK_COLS = {"_row_id", "_dat_creat"}


def norm(tbl, sort_keys):
    df = tbl.to_pandas() if hasattr(tbl, "to_pandas") else tbl
    df = df.drop(columns=[c for c in df.columns if c in TS_COLS | BOOK_COLS])
    return df.sort_values(sort_keys).reset_index(drop=True)


def assert_tables_match_oracle(tables, want, names=("pages", "sections",
                                                    "images_out")):
    keys = {"pages": ["wikidata_id", "lang"],
            "sections": ["wikidata_id", "lang", "display_order"],
            "images_out": ["wikidata_id", "lang", "display_order"]}
    for name in names:
        a = norm(tables[name].read_all(), keys[name])
        b = norm(getattr(want, name), keys[name])
        assert list(a.columns) == list(b.columns), name
        assert len(a) == len(b), name
        for c in a.columns:
            av, bv = a[c], b[c]
            if av.dtype == object:
                assert (av.fillna("\x00") == bv.fillna("\x00")).all(), (name, c)
            else:
                assert av.equals(bv), (name, c)


def staging_files(out):
    return sorted(glob.glob(os.path.join(out, "*", "staging", "**", "*.parquet"),
                            recursive=True))


def delta_parts(out):
    return glob.glob(os.path.join(out, "payload", "wave-*", "part-*.parquet"))


def test_staging_files_bounded_by_stager_batches(ray_session, monkeypatch):
    """A many-tick strict crawl (one fetch job per 12 entities) stages at
    finalize only: no staging/p=* dir holds more files than there were
    stager batches, far fewer than the fetch tasks, and the output keeps
    golden parity."""
    generate(CORPUS, n_entities=120, seed=42)
    shutil.rmtree(OUT, ignore_errors=True)
    seen = {}
    real_merge = crawl_mod._merge_staged

    def counting_merge(tables, images_arg, clock):
        seen["parts"] = len(delta_parts(OUT))
        seen["per_dir"] = [
            len(os.listdir(d))
            for d in glob.glob(os.path.join(OUT, "*", "staging", "p=*"))]
        return real_merge(tables, images_arg, clock)

    monkeypatch.setattr(crawl_mod, "_merge_staged", counting_merge)
    res = crawl(CrawlConfig(corpus_dir=CORPUS, out_dir=OUT, entity_wave=12,
                            strict_order=True))
    batches = res.metrics.get("staging_batches", 0)
    assert seen["per_dir"] and max(seen["per_dir"]) <= batches
    assert seen["parts"] > 4 * batches  # the bound is not trivially met
    assert_tables_match_oracle(res.tables, run_oracle(CORPUS))
    shutil.rmtree(OUT, ignore_errors=True)


def test_stager_splits_share_at_batch_rows(ray_session, monkeypatch):
    """A stager stages its share in batches of at most STAGE_BATCH_ROWS
    payload rows, whole parts each: every staging dir holds at most one
    file per batch and every payload row is staged once."""
    generate(CORPUS, n_entities=120, seed=42)
    shutil.rmtree(OUT, ignore_errors=True)
    crawl(CrawlConfig(corpus_dir=CORPUS, out_dir=OUT, entity_wave=24,
                      strict_order=True, halt_after_waves=3))
    parts = sorted(delta_parts(OUT))
    rows = [pq.ParquetFile(f).metadata.num_rows for f in parts]
    limit = max(rows) + 1
    want_batches, acc = 1, 0
    for r in rows:
        if acc and acc + r > limit:
            want_batches, acc = want_batches + 1, 0
        acc += r
    assert want_batches > 1
    monkeypatch.setattr(crawl_mod, "STAGE_BATCH_ROWS", limit)
    tables = crawl_mod.open_tables(OUT, 8)
    specs = {name: (os.path.join(t.path, "staging"), t.key, t.n_partitions)
             for name, t in tables.items()}
    assert crawl_mod._stage_deltas_task._function(parts, specs) == want_batches
    per_dir = [len(os.listdir(d))
               for d in glob.glob(os.path.join(OUT, "*", "staging", "p=*"))]
    assert per_dir and max(per_dir) <= want_batches
    staged_pages = glob.glob(os.path.join(OUT, "pages", "staging", "*", "*"))
    assert sum(pq.ParquetFile(f).metadata.num_rows
               for f in staged_pages) == sum(rows)
    shutil.rmtree(OUT, ignore_errors=True)


def test_halted_crawl_leaves_only_deltas(ray_session):
    """A halted strict discovery crawl has written its payload delta parts
    and no staging file at all; resuming it stages every committed delta
    and matches the discovery oracle (crawl order and tables)."""
    corpus = "/tmp/wikicrawl_test_corpus_stage_halt"
    out = "/tmp/wikicrawl_test_crawl_stage_halt"
    generate(corpus, n_entities=120, seed=7)
    shutil.rmtree(out, ignore_errors=True)
    base = dict(corpus_dir=corpus, out_dir=out, entity_wave=24,
                strict_order=True, discover_links=True)
    crawl(CrawlConfig(**base, halt_after_waves=2))
    assert delta_parts(out)
    assert staging_files(out) == []
    res = crawl(CrawlConfig(**base, resume=True))
    want = run_discovery_oracle(corpus, entity_wave=24)
    log = read_crawl_log(out).to_pandas()
    wlog = want.crawl_log.to_pandas()
    assert len(log) == len(wlog)
    assert (log.canonical_url.to_numpy() == wlog.canonical_url.to_numpy()).all()
    assert (log.seq.to_numpy() == wlog.seq.to_numpy()).all()
    assert_tables_match_oracle(res.tables, want, ("pages", "sections"))
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)


def test_corrupt_delta_fails_without_stray_stagers(ray_session):
    """A truncated committed delta part makes the resumed crawl raise at
    finalize, and no stager outlives crawl(): the staging file set is the
    same 2 s after the raise."""
    corpus = "/tmp/wikicrawl_test_corpus_stage_corrupt"
    out = "/tmp/wikicrawl_test_crawl_stage_corrupt"
    generate(corpus, n_entities=160, seed=5)
    shutil.rmtree(out, ignore_errors=True)
    base = dict(corpus_dir=corpus, out_dir=out, entity_wave=16,
                strict_order=True)
    crawl(CrawlConfig(**base, halt_after_waves=3))
    victim = sorted(delta_parts(out))[0]
    with open(victim, "r+b") as f:
        f.truncate(os.path.getsize(victim) // 2)
    with pytest.raises(Exception, match="[Pp]arquet"):
        crawl(CrawlConfig(**base, resume=True))
    before = staging_files(out)
    assert before  # the other stagers ran to completion before the raise
    time.sleep(2)
    assert staging_files(out) == before
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)


def test_duplicate_staged_rows_collapse(ray_session):
    """A partition whose staging holds the same rows twice (every file
    plus one file duplicating them all) must merge exactly as the files
    alone: identical (key, _seq) rows collapse in merge_partition's
    crawl-order dedup; counters unaffected."""
    import numpy as np
    import pyarrow as pa

    from wikicrawl.pipelines.crawl import _write_staging_files
    from wikicrawl.state.table import KeyedTable
    import wikicrawl.schema as S

    def mk(out):
        shutil.rmtree(out, ignore_errors=True)
        t = KeyedTable(os.path.join(out, "pages"), S.PAGES,
                       key=["wikidata_id", "lang"], n_partitions=2)
        rows = pa.table({
            "wikidata_id": pa.array([f"Q{i%5}" for i in range(20)]),
            "lang": pa.array(["en", "fr"] * 10),
            **{f.name: pa.array([None] * 20, f.type)
               for f in S.PAGES if f.name not in
               ("wikidata_id", "lang", "_seq")},
            "_seq": pa.array(np.arange(20, dtype=np.int64)),
        }).select([f.name for f in S.PAGES])
        staging = os.path.join(t.path, "staging")
        _write_staging_files(rows, staging, ["wikidata_id", "lang"], 2)
        return t, staging

    # reference: merge the staged files as-is
    t1, s1 = mk("/tmp/wikicrawl_compact_ref")
    for p in (0, 1):
        pdir = os.path.join(s1, f"p={p:05d}")
        if not os.path.isdir(pdir):
            continue
        files = [os.path.join(pdir, f) for f in sorted(os.listdir(pdir))]
        chunk = pa.concat_tables([pq.read_table(f) for f in files])
        t1.merge_partition(p, chunk, clock=7)

    # crash-window: same staging PLUS a compact run duplicating every row
    t2, s2 = mk("/tmp/wikicrawl_compact_dup")
    for p in (0, 1):
        pdir = os.path.join(s2, f"p={p:05d}")
        if not os.path.isdir(pdir):
            continue
        files = [os.path.join(pdir, f) for f in sorted(os.listdir(pdir))]
        run = pa.concat_tables([pq.read_table(f) for f in files])
        pq.write_table(run, os.path.join(pdir, "compact-deadbeef.parquet"))
        files = [os.path.join(pdir, f) for f in sorted(os.listdir(pdir))]
        chunk = pa.concat_tables([pq.read_table(f) for f in files])
        t2.merge_partition(p, chunk, clock=7)

    a = t1.read_all().to_pandas().sort_values(
        ["wikidata_id", "lang"]).reset_index(drop=True)
    b = t2.read_all().to_pandas().sort_values(
        ["wikidata_id", "lang"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    shutil.rmtree("/tmp/wikicrawl_compact_ref", ignore_errors=True)
    shutil.rmtree("/tmp/wikicrawl_compact_dup", ignore_errors=True)
