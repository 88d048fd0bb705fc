"""Golden parity: the Ray Data engine must reproduce the straight-line
oracle's output tables, crawl order and URL-seen set on the same virtual
wiki (SURVEY §5.1 / north_rule). Timestamps and bookkeeping columns are
excluded; everything else is compared value-exact, plus the decoded-pixel
PSNR invariant on image rows."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from wikicrawl import codec
from wikicrawl.oracle import run_oracle
from wikicrawl.pipelines.crawl import CrawlConfig, crawl, read_crawl_log
from wikicrawl.synth import generate

CORPUS = "/tmp/wikicrawl_test_corpus_t1"
OUT = "/tmp/wikicrawl_test_crawl_t1"

TS_COLS = {"last_crawled_at", "last_success_at", "dat"}
BOOK_COLS = {"_row_id", "_dat_creat"}


@pytest.fixture(scope="session")
def corpus():
    generate(CORPUS, n_entities=200, seed=42)
    return CORPUS


@pytest.fixture(scope="session")
def oracle_result(corpus):
    return run_oracle(corpus)


@pytest.fixture(scope="session")
def engine_result(corpus, ray_session):
    import shutil

    shutil.rmtree(OUT, ignore_errors=True)
    cfg = CrawlConfig(corpus_dir=corpus, out_dir=OUT, entity_wave=64,
                      strict_order=True)
    return crawl(cfg)


def norm(tbl, sort_keys, drop=()):
    df = tbl.to_pandas() if hasattr(tbl, "to_pandas") else tbl
    drop_cols = [c for c in df.columns if c in TS_COLS | BOOK_COLS | set(drop)]
    df = df.drop(columns=drop_cols)
    return df.sort_values(sort_keys).reset_index(drop=True)


def assert_frames_equal(a: pd.DataFrame, b: pd.DataFrame, label: str):
    assert list(a.columns) == list(b.columns), f"{label}: column mismatch"
    assert len(a) == len(b), f"{label}: row count {len(a)} != {len(b)}"
    for c in a.columns:
        av, bv = a[c], b[c]
        if av.dtype == object:
            eq = (av.fillna("\x00") == bv.fillna("\x00")).all()
        else:
            eq = av.equals(bv)
        assert eq, f"{label}: column {c} differs\n{a[c][a[c] != b[c]].head()}"


def test_pages_parity(oracle_result, engine_result):
    keys = ["wikidata_id", "lang"]
    a = norm(engine_result.tables["pages"].read_all(), keys)
    b = norm(oracle_result.pages, keys)
    assert_frames_equal(a, b, "pages")


def test_sections_parity(oracle_result, engine_result):
    keys = ["wikidata_id", "lang", "display_order"]
    a = norm(engine_result.tables["sections"].read_all(), keys)
    b = norm(oracle_result.sections, keys)
    assert_frames_equal(a, b, "sections")


def test_images_parity_and_psnr(oracle_result, engine_result, corpus):
    keys = ["wikidata_id", "lang", "display_order"]
    a = norm(engine_result.tables["images_out"].read_all(), keys)
    b = norm(oracle_result.images_out, keys)
    assert_frames_equal(a, b, "images_out")

    # per-row invariant: decoded pixels of engine rows vs the source corpus
    src = {
        r["image_id"]: r
        for r in pq.read_table(os.path.join(corpus, "images.parquet")).to_pylist()
    }
    sample = a.head(200)
    for _, row in sample.iterrows():
        if row["bytes"] is None:
            continue
        ref = src[row["image_id"]]
        got = codec.decode(row["bytes"], row["fmt"])
        want = codec.decode(ref["bytes"], ref["fmt"])
        assert codec.psnr(want, got) == float("inf")  # same stored bytes
        assert got.shape == (row["h"], row["w"], 3)


def test_entity_images_and_movie_format_parity(oracle_result, engine_result):
    a = norm(engine_result.tables["entity_images"].read_all(), ["family", "entity_id"])
    b = norm(oracle_result.entity_images, ["family", "entity_id"])
    assert_frames_equal(a, b, "entity_images")

    a = norm(engine_result.tables["movie_format"].read_all(), ["entity_id"])
    b = norm(oracle_result.movie_format, ["entity_id"])
    assert_frames_equal(a, b, "movie_format")


def test_crawl_order_parity(oracle_result, engine_result):
    """Strict-order config: the global fetch sequence must equal the
    oracle's crawl order exactly (north_rule)."""
    log = read_crawl_log(OUT).to_pandas()
    want = oracle_result.crawl_log.to_pandas()
    assert len(log) == len(want)
    assert (log["canonical_url"].to_numpy() == want["canonical_url"].to_numpy()).all()
    assert (log["seq"].to_numpy() == want["seq"].to_numpy()).all()


def test_seen_set_parity(oracle_result, engine_result):
    seen_dir = os.path.join(OUT, "seen_segments")
    hashes = set()
    for f in sorted(os.listdir(seen_dir)):
        if f.endswith(".parquet"):
            hashes.update(
                int(x) for x in pq.read_table(os.path.join(seen_dir, f))["url_hash"].to_pylist()
            )
    assert hashes == oracle_result.seen_hashes


def test_retry_routing_parity(oracle_result, engine_result):
    retry_dir = os.path.join(OUT, "retry")
    got = set()
    for f in os.listdir(retry_dir):
        t = pq.read_table(os.path.join(retry_dir, f))
        got.update(zip(t["family"].to_pylist(), t["wikidata_id"].to_pylist()))
    assert got == set(oracle_result.retry_entities)


def test_metrics_parity(oracle_result, engine_result):
    m_e, m_o = engine_result.metrics, oracle_result.metrics
    assert m_e["fetched"] == m_o["fetched"]
    assert m_e["requests"] == m_o["requests"]
    assert m_e["no_sitelink"] == m_o["no_sitelink"]
    assert m_e["transient"] == m_o["transient"]
    # per-(family, lang) successful-content-page counters (the reference's
    # per-content english/french server vars)
    assert m_e.get("page_counters", {}) == m_o["page_counters"]


def test_decode_audit_on_crawl_output(engine_result, ray_session):
    """Every image row written by the crawl decodes, and decoded dims match
    the stored w/h (the multimodal audit stage over real engine output)."""
    from wikicrawl.stages.image_stages import decode_audit

    ds = engine_result.tables["images_out"].read_dataset()
    stats = decode_audit(ds, batch_size=128)
    assert stats["rows"] > 0
    assert stats["decode_ok"] == stats["rows"]
    assert stats["dims_match"] == stats["rows"]


def test_shared_main_image_job_on_crawl_output(engine_result, ray_session):
    """The frequency-as-decoration-detector job over real crawl output:
    gallery rows of the hot shared image span many entities."""
    from wikicrawl.synth import HOT_SHARED_IMAGE

    imgs = engine_result.tables["images_out"].read_all().to_pandas()
    hot = imgs[imgs.image_id == HOT_SHARED_IMAGE]
    assert hot.wikidata_id.nunique() >= 3  # planted hot image found broadly

    from wikicrawl.pipelines.maintenance import phash_dup_images
    import ray.data as rd

    # phash dedup over the input images table finds nothing unplanted
    # (generator content is distinct) — exercises the groupby path
    import pyarrow.parquet as pq

    src = pq.read_table(f"{CORPUS}/images.parquet", columns=["image_id", "phash"])
    dup = phash_dup_images(rd.from_arrow(src))
    for _, row in dup.iterrows():
        assert row.n_images >= 2


def test_images_parity_bucketed_bytes(oracle_result, corpus, ray_session):
    """VERDICT r1 item 4: with the broadcast limit forced to 0 the images
    binary column is co-partitioned straight from images.parquet to the
    output partitions instead of riding one ray.put table — output must be
    identical."""
    import shutil

    out = OUT + "_bucketed"
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=64,
                      strict_order=True, images_broadcast_limit_bytes=0)
    res = crawl(cfg)
    # the finalize co-partition shuffle ran (bytes_shuffle.py): merge tasks
    # read only their own partition's bytes, never the whole corpus
    assert "finalize_bytes_shuffle" in res.metrics["timings"]
    keys = ["wikidata_id", "lang", "display_order"]
    a = norm(res.tables["images_out"].read_all(), keys)
    b = norm(oracle_result.images_out, keys)
    assert_frames_equal(a, b, "images_out (bucketed bytes)")


def test_ownership_semijoin_forced_distributed(corpus, ray_session, monkeypatch):
    """The at-scale ownership path (distributed Min aggregate +
    hash-bucketed semi-join, OWNER_SMALL_LIMIT=0) must yield the
    exact same owned-seed stream as the broadcast fast path — same rows,
    same (family_rank, seed_order) order (VERDICT r2 item 3)."""
    import pyarrow as pa

    from wikicrawl.pipelines import crawl as crawl_mod
    from wikicrawl.pipelines.crawl import owned_seed_batches

    fast = pa.concat_tables(list(owned_seed_batches(corpus, 512)))
    monkeypatch.setattr(crawl_mod, "OWNER_SMALL_LIMIT", 0)
    slow = pa.concat_tables(list(owned_seed_batches(corpus, 512)))
    assert fast.num_rows == slow.num_rows
    a = fast.to_pandas().reset_index(drop=True)
    b = slow.to_pandas()[fast.column_names].reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_crawl_order_parity_forced_distributed_ownership(
    corpus, oracle_result, ray_session, monkeypatch
):
    """Full crawl with the distributed ownership semi-join forced: the
    global fetch sequence must still equal the oracle's crawl order."""
    import shutil

    from wikicrawl.pipelines import crawl as crawl_mod

    out2 = OUT + "_distown"
    shutil.rmtree(out2, ignore_errors=True)
    monkeypatch.setattr(crawl_mod, "OWNER_SMALL_LIMIT", 0)
    crawl(CrawlConfig(corpus_dir=corpus, out_dir=out2, entity_wave=64,
                      strict_order=True))
    log = read_crawl_log(out2).to_pandas()
    want = oracle_result.crawl_log.to_pandas()
    assert len(log) == len(want)
    assert (log["canonical_url"].to_numpy() == want["canonical_url"].to_numpy()).all()
    assert (log["seq"].to_numpy() == want["seq"].to_numpy()).all()
    shutil.rmtree(out2, ignore_errors=True)


def test_ephemeral_mode_rejected(corpus):
    """Finalize stages the output tables from the payload deltas, so the
    removed ephemeral mode (durable_payload=False) is refused up front,
    before any output directory is touched."""
    import shutil

    out2 = OUT + "_ephemeral"
    shutil.rmtree(out2, ignore_errors=True)
    with pytest.raises(ValueError, match="ephemeral mode was removed"):
        crawl(CrawlConfig(corpus_dir=corpus, out_dir=out2,
                          durable_payload=False))
    assert not os.path.exists(out2)


def test_no_naked_np_round():
    """Float-discipline meta-test (VERDICT r4 #8): numpy's np.round is
    half-to-EVEN while SQL round() is half-away-from-zero — the q48
    class of bug. Every engine quantization must go through the pinned
    wikicrawl.rounding.round_half_away helper (or the explicitly shared
    floor(x*scale+0.5) formula whose SQL twin spells the identical
    expression). Fails on any naked np.round call in engine sources."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "wikicrawl"
    offenders = []
    for py in sorted(root.rglob("*.py")):
        if py.name == "rounding.py":  # the helper's own docstring
            continue
        for i, line in enumerate(py.read_text().splitlines(), 1):
            if "np.round(" in line:
                offenders.append(f"{py.relative_to(root.parent)}:{i}")
    assert not offenders, (
        "naked np.round (half-even; diverges from SQL round()) at: "
        + ", ".join(offenders))


def test_crawl_pipeline_stays_split():
    """Structure meta-test: the crawl is split into parts that take their
    state as arguments (restore, corpus broadcast, seed waves, wave
    controller, job runner, finalizer). No function in pipelines/crawl.py
    grows past 150 lines, and none shares state through ``nonlocal`` or
    ``global``."""
    import ast
    import pathlib

    path = (pathlib.Path(__file__).resolve().parents[1]
            / "wikicrawl" / "pipelines" / "crawl.py")
    tree = ast.parse(path.read_text())
    long_fns = [f"{n.name} ({n.end_lineno - n.lineno + 1} lines)"
                for n in ast.walk(tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n.end_lineno - n.lineno + 1 > 150]
    assert not long_fns, "functions over 150 lines: " + ", ".join(long_fns)
    shared = [f"line {n.lineno}" for n in ast.walk(tree)
              if isinstance(n, (ast.Nonlocal, ast.Global))]
    assert not shared, "nonlocal/global in crawl.py at " + ", ".join(shared)


def test_laps_are_one_record(corpus, ray_session):
    """``metrics["timings"]`` is derived from the timeline: each lap equals
    its spans' rounded sum, and every span lies within the crawl's wall.
    Throughput mode with discovery and two writer threads, so concurrent
    jobs record laps at once and the tail drain runs."""
    import shutil
    import time

    out = OUT + "_laps"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.time()
    res = crawl(CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=64,
                            strict_order=False, discover_links=True,
                            write_workers=2))
    wall = time.time() - t0
    timings, timeline = res.metrics["timings"], res.metrics["timeline"]
    assert timeline
    sums: dict = {}
    for name, start, end in timeline:
        assert 0 <= start <= end <= wall + 1e-3, (name, start, end, wall)
        sums[name] = sums.get(name, 0.0) + (end - start)
    laps = {k: v for k, v in timings.items() if k not in ("task_cpu", "task_wall")}
    assert laps == {k: round(v, 2) for k, v in sums.items()}
    assert timings["task_wall"] > 0
    shutil.rmtree(out, ignore_errors=True)


def test_ledger_keeps_every_update_under_threads():
    """Writer threads record laps, counters and task times at once: the
    ledger's one lock must lose none of them."""
    import sys
    import threading
    import time

    from wikicrawl.pipelines.crawl import _Ledger

    ledger = _Ledger({"fetched": 0})

    def work():
        for _ in range(2000):
            t0 = time.time()
            ledger.add(0, {"fetched": 1}, {"movie/en": 1})
            ledger.add_task_times(0.5, 1.0)
            ledger.lap("job_exec", t0)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    totals = ledger.commit(0)
    assert totals["fetched"] == 16000
    assert totals["page_counters"] == {"movie/en": 16000}
    assert len(ledger.spans) == 16000
    assert (ledger.task_cpu, ledger.task_wall) == (8000.0, 16000.0)


def test_round_half_away_matches_sql_round():
    """Pin the helper's semantics against DuckDB round() on a grid that
    includes exact half-cent values of BOTH signs — the inputs where
    np.round and SQL round() disagree."""
    import duckdb
    import numpy as np

    from wikicrawl.rounding import round_half_away

    vals = np.array([0.005, -0.005, 0.015, -0.015, 1.005, -1.005,
                     0.004999, -0.004999, 2.675, -2.675, 0.0, 123.456,
                     -123.456, 0.125, -0.125])
    got = round_half_away(vals, 100)
    con = duckdb.connect()
    want = np.array([
        con.execute("SELECT CAST(round(? * 100) AS BIGINT)", [float(v)])
        .fetchone()[0] for v in vals], dtype=np.int64)
    con.close()
    assert (got == want).all(), list(zip(vals, got, want))
