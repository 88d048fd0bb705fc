"""Politeness and skew: crawling under a TIGHT per-host token budget must
preserve per-host priority order and the exact final output (tables + seen
set); hot-host splitting must preserve the total per-host budget."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from wikicrawl.oracle import run_oracle
from wikicrawl.pipelines.crawl import CrawlConfig, crawl, read_crawl_log
from wikicrawl.state.frontier import FrontierShardState, ShardedFrontier
from wikicrawl.synth import generate

CORPUS = "/tmp/wikicrawl_test_corpus_t1"


@pytest.fixture(scope="module")
def corpus():
    generate(CORPUS, n_entities=200, seed=42)
    return CORPUS


def test_tight_budget_per_host_order_and_output_parity(corpus, ray_session):
    """host_rate=25/tick: every wave needs several politeness ticks. The
    global interleaving lawfully differs from the oracle (ticks layer the
    sequence), but per-host fetch order and the final tables/seen set must
    be EXACTLY the oracle's (north_rule: same seed list + budget)."""
    out = "/tmp/wc_polite"
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=64,
                      strict_order=True, host_rate=25, host_burst=25)
    res = crawl(cfg)
    want = run_oracle(corpus)

    log = read_crawl_log(out).to_pandas()
    olog = want.crawl_log.to_pandas()
    assert len(log) == len(olog)
    for host in sorted(set(olog.host)):
        got_urls = log[log.host == host].sort_values("seq").canonical_url.tolist()
        want_urls = olog[olog.host == host].sort_values("seq").canonical_url.tolist()
        assert got_urls == want_urls, f"per-host order diverged for {host}"

    # value parity of a representative table + the seen set
    a = (res.tables["sections"].read_all().to_pandas()
         .drop(columns=["_row_id", "_dat_creat"])
         .sort_values(["wikidata_id", "lang", "display_order"]).reset_index(drop=True))
    b = (want.sections.to_pandas()
         .sort_values(["wikidata_id", "lang", "display_order"]).reset_index(drop=True))
    assert a.equals(b)

    seen_dir = os.path.join(out, "seen_segments")
    hashes = set()
    for f in os.listdir(seen_dir):
        if f.endswith(".parquet"):
            hashes.update(pq.read_table(os.path.join(seen_dir, f))["url_hash"].to_pylist())
    assert hashes == want.seen_hashes


def test_token_bucket_caps_emissions_per_tick():
    st = FrontierShardState(0, rate=5, burst=5)
    tbl = pa.Table.from_pylist([
        dict(family_rank=0, seed_order=i, lang_rank=0, host="en.x", path=f"/wiki/P{i}")
        for i in range(17)
    ])
    st.push_table_rows(tbl)
    sizes = []
    while st.backlog():
        sizes.append(st.pop_wave_table_state(tbl.schema).num_rows)
    assert sizes == [5, 5, 5, 2]  # never exceeds the per-tick budget


def test_hot_host_split_preserves_total_budget(ray_session):
    """A split hot host: sub-queues across shards, each with rate/n; the
    TOTAL emissions per tick must not exceed the host's budget."""
    fr = ShardedFrontier(n_shards=3, rate=12, burst=12,
                         hot_hosts={"hot.example": 3})
    tbl = pa.Table.from_pylist([
        dict(family_rank=0, seed_order=i, lang_rank=0, host="hot.example",
             path=f"/wiki/H{i}", url_hash=i * 7919)
        for i in range(40)
    ])
    fr.push_table(tbl)
    assert fr.backlog() == 40
    total = 0
    emitted_all = []
    while fr.backlog():
        tick = fr.pop_wave_table(tbl.schema)
        n = 0 if tick is None else tick.num_rows
        assert n <= 12  # total per-host budget preserved across splits
        total += n
        if tick is not None:
            emitted_all.extend(tick["path"].to_pylist())
    assert total == 40
    # every URL emitted exactly once
    assert len(set(emitted_all)) == 40


def test_crawl_with_hot_host_split_matches_oracle_set(corpus, ray_session):
    """Splitting the page hosts changes interleaving, never the result set."""
    out = "/tmp/wc_hotsplit"
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(
        corpus_dir=corpus, out_dir=out, entity_wave=64, strict_order=True,
        n_frontier_shards=3,
        hot_hosts={"en.wikipedia.org": 2, "fr.wikipedia.org": 2},
    )
    crawl(cfg)
    want = run_oracle(corpus)
    log = read_crawl_log(out).to_pandas()
    assert set(log.canonical_url) == set(want.crawl_log.to_pandas().canonical_url)
    seen_dir = os.path.join(out, "seen_segments")
    hashes = set()
    for f in os.listdir(seen_dir):
        if f.endswith(".parquet"):
            hashes.update(pq.read_table(os.path.join(seen_dir, f))["url_hash"].to_pylist())
    assert hashes == want.seen_hashes


def test_host_delay_override_unit():
    """Crawl-delay analog: a host with delay 3 yields one URL every 3rd
    tick; other hosts keep the global budget."""
    st = FrontierShardState(0, rate=100, burst=100,
                            host_rates={"slow.x": (1.0 / 3.0, 1.0)})
    rows = [dict(family_rank=0, seed_order=i, lang_rank=0, host="slow.x",
                 path=f"/wiki/S{i}") for i in range(3)]
    rows += [dict(family_rank=0, seed_order=i, lang_rank=0, host="fast.x",
                  path=f"/wiki/F{i}") for i in range(3)]
    tbl = pa.Table.from_pylist(rows)
    st.push_table_rows(tbl)
    per_tick = []
    for _ in range(9):
        emitted = st.pop_wave_table_state(tbl.schema)
        per_tick.append([] if emitted is None else sorted(emitted["host"].to_pylist()))
        if not st.backlog():
            break
    # tick 1: fast host drains fully + slow host's burst token
    assert per_tick[0] == ["fast.x", "fast.x", "fast.x", "slow.x"]
    # slow host then yields exactly one URL every 3rd tick
    flat = [t for tick in per_tick[1:] for t in tick]
    assert flat == ["slow.x", "slow.x"]
    assert per_tick[1:].count(["slow.x"]) == 2


def test_crawl_with_host_delay_matches_budgeted_oracle(corpus, ray_session):
    """End-to-end Crawl-delay parity: engine with a per-host delay override
    must reproduce the discovery oracle's schedule under the same delay."""
    from wikicrawl.oracle import run_discovery_oracle

    out = "/tmp/wc_hostdelay"
    shutil.rmtree(out, ignore_errors=True)
    delays = {"fr.wikipedia.org": 2}
    cfg = CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=64,
                      strict_order=True, discover_links=True,
                      n_frontier_shards=1, host_delays=delays)
    crawl(cfg)
    log = read_crawl_log(out).to_pandas()
    want = run_discovery_oracle(corpus, entity_wave=64,
                                host_delays=delays).crawl_log.to_pandas()
    assert len(log) == len(want)
    assert (log.canonical_url.to_numpy() == want.canonical_url.to_numpy()).all()
    assert (log.seq.to_numpy() == want.seq.to_numpy()).all()
