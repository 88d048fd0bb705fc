"""Staging happens once, at finalize: fetch tasks write only their
payload delta part, and finalize's stager tasks derive the five output
tables from all committed deltas in a few batches, as (table, partition)
blocks in the object store that the merge tasks take as arguments. Covers
the block-count bound, the halt/resume and corrupt-delta exits, that no
staging directory is ever written, and merge_partition's collapse of
duplicated staged rows."""

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


def staging_dirs(out):
    return [d for d in glob.glob(os.path.join(out, "**", "staging"),
                                 recursive=True) if os.path.isdir(d)]


def table_files(out):
    """(path, size, mtime) of every file under the five output tables."""
    return sorted(
        (f, os.path.getsize(f), os.path.getmtime(f))
        for name in crawl_mod._DERIVE
        for f in glob.glob(os.path.join(out, name, "**", "*"), recursive=True)
        if os.path.isfile(f))


def nonempty_blocks(blocks):
    """Non-empty staged blocks per (table, partition)."""
    return [sum(b.num_rows > 0 for b in part)
            for parts in blocks.values() for part in parts]


def delta_parts(out):
    return glob.glob(os.path.join(out, "payload", "wave-*", "part-*.parquet"))


def test_staging_files_bounded_by_stager_batches(ray_session, monkeypatch):
    """A many-tick strict crawl (one fetch job per 12 entities) stages at
    finalize only: no (table, partition) gets more non-empty blocks than
    there were stager batches, far fewer than the fetch tasks, and the
    output keeps golden parity."""
    import ray

    generate(CORPUS, n_entities=120, seed=42)
    shutil.rmtree(OUT, ignore_errors=True)
    seen = {}
    real_merge = crawl_mod._merge_staged

    def counting_merge(tables, blocks, images_arg, clock):
        seen["parts"] = len(delta_parts(OUT))
        seen["per_part"] = nonempty_blocks(
            {name: [ray.get(part) for part in parts]
             for name, parts in blocks.items()})
        return real_merge(tables, blocks, images_arg, clock)

    monkeypatch.setattr(crawl_mod, "_merge_staged", counting_merge)
    res = crawl(CrawlConfig(corpus_dir=CORPUS, out_dir=OUT, entity_wave=12,
                            strict_order=True))
    batches = res.metrics.get("staging_batches", 0)
    assert seen["per_part"] and max(seen["per_part"]) <= batches
    assert seen["parts"] > 4 * batches  # the bound is not trivially met
    assert_tables_match_oracle(res.tables, run_oracle(CORPUS))
    shutil.rmtree(OUT, ignore_errors=True)


def test_stager_splits_share_at_batch_rows(ray_session, monkeypatch):
    """A stager stages its share in batches of at most STAGE_BATCH_ROWS
    payload rows, whole parts each: each batch yields one block per
    (table, partition) in fixed order, then the batch count; every
    payload row is staged once."""
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
    specs = {name: (t.key, t.n_partitions) for name, t in tables.items()}
    out = list(crawl_mod._stage_deltas_task._function(parts, specs))
    assert out.pop() == want_batches
    assert len(out) == want_batches * 5 * 8
    blocks = crawl_mod._blocks_by_partition(specs, [out])
    per_part = nonempty_blocks(blocks)
    assert per_part and max(per_part) <= want_batches
    assert sum(b.num_rows for part in blocks["pages"] for b in part) == sum(rows)
    shutil.rmtree(OUT, ignore_errors=True)


def test_halted_crawl_leaves_only_deltas(ray_session):
    """A halted strict discovery crawl has written its payload delta parts
    and no staging directory at all; resuming it stages every committed
    delta and matches the discovery oracle (crawl order and tables)."""
    corpus = "/tmp/wikicrawl_test_corpus_stage_halt"
    out = "/tmp/wikicrawl_test_crawl_stage_halt"
    generate(corpus, n_entities=120, seed=7)
    shutil.rmtree(out, ignore_errors=True)
    base = dict(corpus_dir=corpus, out_dir=out, entity_wave=24,
                strict_order=True, discover_links=True)
    crawl(CrawlConfig(**base, halt_after_waves=2))
    assert delta_parts(out)
    assert staging_dirs(out) == []
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
    finalize, before any merge: every output-table file (name, size,
    mtime) is the same 2 s after the raise."""
    corpus = "/tmp/wikicrawl_test_corpus_stage_corrupt"
    out = "/tmp/wikicrawl_test_crawl_stage_corrupt"
    generate(corpus, n_entities=160, seed=5)
    shutil.rmtree(out, ignore_errors=True)
    base = dict(corpus_dir=corpus, out_dir=out, entity_wave=16,
                strict_order=True)
    crawl(CrawlConfig(**base, halt_after_waves=3))
    before = table_files(out)
    victim = sorted(delta_parts(out))[0]
    with open(victim, "r+b") as f:
        f.truncate(os.path.getsize(victim) // 2)
    with pytest.raises(Exception, match="[Pp]arquet"):
        crawl(CrawlConfig(**base, resume=True))
    assert table_files(out) == before
    time.sleep(2)
    assert table_files(out) == before
    assert staging_dirs(out) == []
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)


def test_no_staging_dir_in_output(ray_session):
    """No crawl writes a staging directory: not a finished strict crawl,
    not a halted crawl nor its resume, and not a crawl whose image bytes
    take the co-partition shuffle (images_broadcast_limit_bytes=0)."""
    corpus = "/tmp/wikicrawl_test_corpus_no_staging"
    out = "/tmp/wikicrawl_test_crawl_no_staging"
    generate(corpus, n_entities=80, seed=3)
    base = dict(corpus_dir=corpus, out_dir=out, entity_wave=16,
                strict_order=True)
    for steps in ([{}], [{"halt_after_waves": 2}, {"resume": True}],
                  [{"images_broadcast_limit_bytes": 0}]):
        shutil.rmtree(out, ignore_errors=True)
        for extra in steps:
            res = crawl(CrawlConfig(**base, **extra))
            assert staging_dirs(out) == [], extra
        assert res.tables["images_out"].read_all().num_rows > 0
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)


def test_duplicate_staged_rows_collapse(ray_session):
    """A partition handed the same rows twice (its block plus a second
    block duplicating every row) must merge exactly as the block alone:
    identical (key, _seq) rows collapse in merge_partition's crawl-order
    dedup; counters unaffected."""
    import numpy as np
    import pyarrow as pa

    from wikicrawl.pipelines.crawl import _split_by_partition
    from wikicrawl.state.table import KeyedTable
    import wikicrawl.schema as S

    rows = pa.table({
        "wikidata_id": pa.array([f"Q{i%5}" for i in range(20)]),
        "lang": pa.array(["en", "fr"] * 10),
        **{f.name: pa.array([None] * 20, f.type)
           for f in S.PAGES if f.name not in
           ("wikidata_id", "lang", "_seq")},
        "_seq": pa.array(np.arange(20, dtype=np.int64)),
    }).select([f.name for f in S.PAGES])
    blocks = _split_by_partition(rows, ["wikidata_id", "lang"], 2)
    assert sum(b.num_rows for b in blocks) == rows.num_rows

    def merged(out, copies):
        shutil.rmtree(out, ignore_errors=True)
        t = KeyedTable(os.path.join(out, "pages"), S.PAGES,
                       key=["wikidata_id", "lang"], n_partitions=2)
        counters = [t.merge_partition(p, pa.Table.from_batches([b] * copies), 7)
                    for p, b in enumerate(blocks) if b.num_rows]
        df = t.read_all().to_pandas().sort_values(
            ["wikidata_id", "lang"]).reset_index(drop=True)
        shutil.rmtree(out, ignore_errors=True)
        return df, counters

    a, ca = merged("/tmp/wikicrawl_compact_ref", 1)
    b, cb = merged("/tmp/wikicrawl_compact_dup", 2)
    pd.testing.assert_frame_equal(a, b)
    assert ca == cb
