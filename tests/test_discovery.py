"""Link-discovery (dynamic frontier) parity: engine vs the wave-structured
BFS oracle — crawl order, tables, seen set, metrics — plus coverage under a
tight politeness budget (north_star: the frontier grows from discovered
links, not just seeds)."""

import os
import shutil

import pyarrow.parquet as pq
import pytest

from wikicrawl.oracle import run_discovery_oracle
from wikicrawl.pipelines.crawl import CrawlConfig, crawl, read_crawl_log
from wikicrawl.synth import generate

CORPUS = "/tmp/wikicrawl_test_corpus_disc"
OUT = "/tmp/wikicrawl_test_crawl_disc"

TS_COLS = {"last_crawled_at", "last_success_at", "dat"}
BOOK_COLS = {"_row_id", "_dat_creat"}


@pytest.fixture(scope="module")
def corpus():
    generate(CORPUS, n_entities=150, seed=7)
    return CORPUS


@pytest.fixture(scope="module")
def oracle_result(corpus):
    return run_discovery_oracle(corpus, entity_wave=64)


@pytest.fixture(scope="module")
def engine_result(corpus, ray_session):
    shutil.rmtree(OUT, ignore_errors=True)
    cfg = CrawlConfig(corpus_dir=corpus, out_dir=OUT, entity_wave=64,
                      strict_order=True, discover_links=True)
    return crawl(cfg)


def norm(tbl, sort_cols):
    df = tbl.to_pandas()
    df = df[[c for c in df.columns if c not in TS_COLS | BOOK_COLS]]
    return df.sort_values(sort_cols).reset_index(drop=True)


def test_discovery_crawl_order_parity(oracle_result, engine_result):
    log = read_crawl_log(OUT).to_pandas()
    want = oracle_result.crawl_log.to_pandas()
    assert len(log) == len(want)
    assert (log["canonical_url"].to_numpy() == want["canonical_url"].to_numpy()).all()
    assert (log["seq"].to_numpy() == want["seq"].to_numpy()).all()
    # the frontier genuinely grew: discovered fetches exist and include
    # link-only pages no seed can reach
    assert (log["family"] == "discovered").sum() > 0


def test_discovery_reaches_link_only_pages(engine_result):
    pages = engine_result.tables["pages"].read_all().to_pandas()
    disc = pages[pages.item_type == "discovered"]
    assert len(disc) > 0
    assert disc.page_title.str.startswith("Dossier ").any()  # unreachable by seeds
    # BFS went deeper than one level: chained Dossier pages link k -> k+1
    dossier = sorted(disc[disc.page_title.str.startswith("Dossier ")].page_title)
    assert len(dossier) >= 2


def test_discovery_tables_parity(oracle_result, engine_result):
    for name, oracle_tbl, keys in (
        ("pages", oracle_result.pages, ["wikidata_id", "lang"]),
        ("sections", oracle_result.sections, ["wikidata_id", "lang", "display_order"]),
        ("entity_images", oracle_result.entity_images, ["family", "entity_id"]),
    ):
        a = norm(engine_result.tables[name if name != "pages" else "pages"].read_all(), keys)
        b = norm(oracle_tbl, keys)
        assert a.columns.tolist() == b.columns.tolist(), name
        assert len(a) == len(b), f"{name}: {len(a)} vs {len(b)}"
        for c in a.columns:
            assert (a[c].fillna("¤") == b[c].fillna("¤")).all(), f"{name}.{c}"


def test_discovery_seen_set_parity(oracle_result, engine_result):
    seen_dir = os.path.join(OUT, "seen_segments")
    hashes = set()
    for f in sorted(os.listdir(seen_dir)):
        if f.endswith(".parquet"):
            hashes.update(
                int(x)
                for x in pq.read_table(os.path.join(seen_dir, f))["url_hash"].to_pylist()
            )
    assert hashes == oracle_result.seen_hashes


def test_discovery_metrics_parity(oracle_result, engine_result):
    m_e, m_o = engine_result.metrics, oracle_result.metrics
    assert m_e["fetched"] == m_o["fetched"]
    assert m_e["requests"] == m_o["requests"]
    assert m_e.get("discovered", 0) == m_o["discovered"]
    assert m_e.get("page_counters", {}) == m_o["page_counters"]
    assert m_e["robots_skipped"] == m_o["robots_skipped"]


def test_strict_ticks_fan_out_over_fetch_slots(corpus, oracle_result, ray_session):
    """Every strict-order tick is spread evenly over the fetch slots, even
    when it holds far fewer rows than fetch_batch x fetch_concurrency: a
    tick of r rows runs ceil(r / ceil(r / 3)) fetch tasks, one delta part
    each. Crawl order, tables and counters stay the oracle's."""
    out = OUT + "_fanout"
    shutil.rmtree(out, ignore_errors=True)
    res = crawl(CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=64,
                            strict_order=True, discover_links=True,
                            fetch_concurrency=3))
    waves = sorted(d for d in os.listdir(os.path.join(out, "payload"))
                   if d.startswith("wave-"))
    assert len(waves) > 1
    for w in waves:
        wdir = os.path.join(out, "payload", w)
        parts = [f for f in os.listdir(wdir) if f.endswith(".parquet")]
        r = sum(pq.ParquetFile(os.path.join(wdir, f)).metadata.num_rows
                for f in parts)
        assert 0 < r < 64 * 3, w
        assert len(parts) == -(-r // -(-r // 3)), (w, r, len(parts))
    log = read_crawl_log(out).to_pandas()
    want = oracle_result.crawl_log.to_pandas()
    assert (log.canonical_url.to_numpy() == want.canonical_url.to_numpy()).all()
    assert (log.seq.to_numpy() == want.seq.to_numpy()).all()
    for name, keys in (("pages", ["wikidata_id", "lang"]),
                       ("sections", ["wikidata_id", "lang", "display_order"])):
        a = norm(res.tables[name].read_all(), keys)
        b = norm(getattr(oracle_result, name), keys)
        assert len(a) == len(b), name
        for c in a.columns:
            assert (a[c].fillna("¤") == b[c].fillna("¤")).all(), f"{name}.{c}"
    assert res.metrics["requests"] == oracle_result.metrics["requests"]


def test_discovery_tight_budget_order_parity(corpus, oracle_result, ray_session):
    """Under a tight per-host politeness budget the schedule stretches over
    many ticks AND interleaves discovery with seed leftovers; the budgeted
    discovery oracle (frontier-state-driven) must match the engine's global
    fetch sequence EXACTLY, and coverage must equal the ample-budget run."""
    out = OUT + "_tight"
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=64,
                      strict_order=True, discover_links=True,
                      n_frontier_shards=1,
                      host_rate=7, host_burst=7)
    crawl(cfg)
    log = read_crawl_log(out).to_pandas()
    want = run_discovery_oracle(corpus, entity_wave=64,
                                host_rate=7, host_burst=7).crawl_log.to_pandas()
    assert len(log) == len(want)
    assert (log.canonical_url.to_numpy() == want.canonical_url.to_numpy()).all()
    assert (log.seq.to_numpy() == want.seq.to_numpy()).all()
    # budget changes the order, never the coverage
    ample = oracle_result.crawl_log.to_pandas()
    assert set(log.canonical_url) == set(ample.canonical_url)


def test_discovery_halt_resume_no_loss(corpus, oracle_result, ray_session):
    """ADVICE r1 (admission WAL): halt after 1 committed wave with discovered
    URLs still sitting in the frontier, resume, and verify NOTHING admitted
    was lost and nothing fetched twice."""
    out = OUT + "_halt"
    shutil.rmtree(out, ignore_errors=True)
    base = dict(corpus_dir=corpus, out_dir=out, entity_wave=48,
                strict_order=False, discover_links=True,
                host_rate=30, host_burst=30)
    crawl(CrawlConfig(**base, halt_after_waves=1))
    # the halted state must have a non-empty pending backlog to make the
    # test meaningful: journaled admissions exceed the durable crawl log
    import glob

    adm = [pq.read_table(f) for f in glob.glob(os.path.join(out, "admissions", "*.parquet"))]
    n_admitted = sum(t.num_rows for t in adm)
    n_logged = len(read_crawl_log(out))
    assert n_admitted > n_logged  # URLs admitted but not yet fetched

    res = crawl(CrawlConfig(**base, resume=True))
    log = read_crawl_log(out).to_pandas()
    want = oracle_result.crawl_log.to_pandas()
    assert log.canonical_url.nunique() == len(log)  # no double fetches
    assert set(log.canonical_url) == set(want.canonical_url)
    assert res.metrics["fetched"] == len(log)


def test_discovery_depth_budget_parity(corpus, oracle_result, ray_session):
    """max_link_depth=1: only links found on seed pages (depth 1) are
    crawled; links found on discovered pages (depth 2+) are dropped at
    admission. Engine must match the depth-budgeted oracle exactly and
    fetch strictly fewer pages than the unbounded run."""
    out = OUT + "_depth"
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=64,
                      strict_order=True, discover_links=True,
                      max_link_depth=1)
    crawl(cfg)
    log = read_crawl_log(out).to_pandas()
    want = run_discovery_oracle(corpus, entity_wave=64,
                                max_link_depth=1).crawl_log.to_pandas()
    assert len(log) == len(want)
    assert (log.canonical_url.to_numpy() == want.canonical_url.to_numpy()).all()
    assert (log.seq.to_numpy() == want.seq.to_numpy()).all()
    ample = oracle_result.crawl_log.to_pandas()
    assert len(log) < len(ample)  # depth 2+ pages exist in this corpus
    assert (log.family == "discovered").sum() > 0  # depth-1 still crawled
