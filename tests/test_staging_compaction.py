"""LSM-style staging compaction (CrawlConfig.staging_compact_files):
value parity with compaction forced aggressive, and the crash-window
safety property the design leans on — duplicated staged rows (a run AND
its original files both present) collapse in merge_partition's stable
crawl-order dedup."""

import os
import shutil

import pandas as pd
import pyarrow.parquet as pq

from wikicrawl.oracle import run_oracle
from wikicrawl.pipelines.crawl import CrawlConfig, crawl
from wikicrawl.synth import generate

CORPUS = "/tmp/wikicrawl_test_corpus_compact"
OUT = "/tmp/wikicrawl_test_crawl_compact"

TS_COLS = {"last_crawled_at", "last_success_at", "dat"}
BOOK_COLS = {"_row_id", "_dat_creat"}


def norm(tbl, sort_keys):
    df = tbl.to_pandas() if hasattr(tbl, "to_pandas") else tbl
    df = df.drop(columns=[c for c in df.columns if c in TS_COLS | BOOK_COLS])
    return df.sort_values(sort_keys).reset_index(drop=True)


def test_compaction_golden_parity(ray_session):
    """threshold=2 forces a compaction on nearly every wave tick; the five
    output tables must stay value-identical to the straight-line oracle,
    and runs must actually have been produced. Small waves (many ticks):
    compaction fires DURING the crawl only — finalize drains in-flight runs
    but launches none (folding a dir the merge is about to read is strictly
    extra work; measured as a serial pre-merge stall at 960k/16 cpus)."""
    generate(CORPUS, n_entities=120, seed=42)
    shutil.rmtree(OUT, ignore_errors=True)
    res = crawl(CrawlConfig(
        corpus_dir=CORPUS, out_dir=OUT, entity_wave=12, strict_order=True,
        staging_compact_files=2))
    assert res.metrics.get("staging_compacted_files", 0) > 0
    want = run_oracle(CORPUS)
    for name, keys, oracle_df in [
        ("pages", ["wikidata_id", "lang"], want.pages),
        ("sections", ["wikidata_id", "lang", "display_order"], want.sections),
        ("images_out", ["wikidata_id", "lang", "display_order"],
         want.images_out),
    ]:
        a = norm(res.tables[name].read_all(), keys)
        b = norm(oracle_df, keys)
        assert list(a.columns) == list(b.columns), name
        assert len(a) == len(b), name
        for c in a.columns:
            av, bv = a[c], b[c]
            if av.dtype == object:
                assert (av.fillna("\x00") == bv.fillna("\x00")).all(), (name, c)
            else:
                assert av.equals(bv), (name, c)
    shutil.rmtree(OUT, ignore_errors=True)


def test_duplicate_staged_rows_collapse(ray_session):
    """The crash window leaves BOTH a compact-* run and its original
    files: merging that state must equal merging the originals alone
    (identical (key, _seq) rows collapse; counters unaffected)."""
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


def test_compaction_with_crash_sim_resume(ray_session):
    """Compaction + halt_after_waves + resume IN THE SAME Ray session
    (ADVICE r4 medium): the crash-sim return must not leave stale
    compactor tasks that later os.remove staging originals between the
    resumed finalize's listdir and its reads. crawl() now drains
    in-flight compactors before the simulated-crash return and the merge
    task re-lists on a vanished file; this pins golden parity for the
    whole interleaving."""
    corpus = "/tmp/wikicrawl_test_corpus_compact_crash"
    out = "/tmp/wikicrawl_test_crawl_compact_crash"
    generate(corpus, n_entities=160, seed=7)
    shutil.rmtree(out, ignore_errors=True)
    base = dict(corpus_dir=corpus, out_dir=out, entity_wave=24,
                strict_order=True, staging_compact_files=2)
    crawl(CrawlConfig(**base, halt_after_waves=2))   # simulated crash
    res = crawl(CrawlConfig(**base, resume=True))    # same Ray session
    want = run_oracle(corpus)
    for name, keys, oracle_df in [
        ("pages", ["wikidata_id", "lang"], want.pages),
        ("sections", ["wikidata_id", "lang", "display_order"],
         want.sections),
        ("images_out", ["wikidata_id", "lang", "display_order"],
         want.images_out),
    ]:
        a = norm(res.tables[name].read_all(), keys)
        b = norm(oracle_df, keys)
        assert len(a) == len(b), name
        for c in a.columns:
            av, bv = a[c], b[c]
            if av.dtype == object:
                assert (av.fillna("\x00") == bv.fillna("\x00")).all(), (
                    name, c)
            else:
                assert av.equals(bv), (name, c)
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)


def test_auto_compaction_triggers_without_knob(ray_session):
    """Compaction is on by default (VERDICT r4 #6): a regime whose
    per-partition staging-file count crosses staging_compact_files must
    compact during the crawl, finalize stays merge-only over the folded
    runs, and the output keeps golden parity. (The threshold is lowered
    here so a unit-scale crawl reproduces the 480k/fetch_batch=256
    file-count pressure; the default 128 is sized to the measured
    ~2 ms/file finalize budget.)"""
    corpus = "/tmp/wikicrawl_test_corpus_autocompact"
    out = "/tmp/wikicrawl_test_crawl_autocompact"
    generate(corpus, n_entities=160, seed=3)
    shutil.rmtree(out, ignore_errors=True)
    res = crawl(CrawlConfig(
        corpus_dir=corpus, out_dir=out, entity_wave=16, strict_order=True,
        staging_compact_files=3))
    assert res.metrics.get("staging_compacted_files", 0) > 0
    want = run_oracle(corpus)
    a = norm(res.tables["pages"].read_all(), ["wikidata_id", "lang"])
    b = norm(want.pages, ["wikidata_id", "lang"])
    assert len(a) == len(b)
    for c in a.columns:
        av, bv = a[c], b[c]
        if av.dtype == object:
            assert (av.fillna("\x00") == bv.fillna("\x00")).all(), c
        else:
            assert av.equals(bv), c
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)


def test_compaction_disabled_with_zero(ray_session):
    """staging_compact_files=0 disables compaction entirely."""
    corpus = "/tmp/wikicrawl_test_corpus_nocompact"
    out = "/tmp/wikicrawl_test_crawl_nocompact"
    generate(corpus, n_entities=80, seed=4)
    shutil.rmtree(out, ignore_errors=True)
    res = crawl(CrawlConfig(
        corpus_dir=corpus, out_dir=out, entity_wave=16, strict_order=True,
        staging_compact_files=0))
    assert res.metrics.get("staging_compacted_files", 0) == 0
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)
