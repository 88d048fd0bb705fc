"""The state plane lives for the Ray session: crawl() leases the idle
(seen set, frontier) shard actors, resets them to its own arguments and
hands them back emptied (state/placement.py). A leased pair must behave
exactly like a new one, a failed crawl must never hand its pair back, and
no pooled actor may outlive ``ray.shutdown()``.

Run directly (``python tests/test_state_lease.py``) for the session-lifetime
drill that the last test runs in a subprocess; it prints one JSON line."""

import json
import os
import shutil
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from wikicrawl.oracle import run_discovery_oracle, run_oracle  # noqa: E402
from wikicrawl.pipelines.crawl import (  # noqa: E402
    CrawlConfig,
    crawl,
    open_tables,
    read_crawl_log,
)
from wikicrawl.synth import generate  # noqa: E402

CORPUS = "/tmp/wikicrawl_test_corpus_lease"
TS_COLS = {"last_crawled_at", "last_success_at", "dat"}
BOOK_COLS = {"_row_id", "_dat_creat"}
TABLE_KEYS = {
    "pages": ["wikidata_id", "lang"],
    "sections": ["wikidata_id", "lang", "display_order"],
    "images_out": ["wikidata_id", "lang", "display_order"],
    "entity_images": ["family", "entity_id"],
    "movie_format": ["entity_id"],
}


def record_leases(monkeypatch) -> list:
    """Every (seen, frontier) pair crawl() leases from now on, in order."""
    from wikicrawl.pipelines import crawl as crawl_mod

    pairs = []
    real = crawl_mod.lease_state_plane

    def recording(*args, **kwargs):
        pair = real(*args, **kwargs)
        pairs.append(pair)
        return pair

    monkeypatch.setattr(crawl_mod, "lease_state_plane", recording)
    return pairs


def actor_ids(pair) -> list[str]:
    seen, frontier = pair
    return [a._actor_id.hex() for a in seen.shards + frontier.shards]


def norm(tbl, keys, drop=TS_COLS):
    df = tbl.to_pandas() if hasattr(tbl, "to_pandas") else tbl
    df = df.drop(columns=[c for c in df.columns if c in drop])
    return df.sort_values(keys).reset_index(drop=True)


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


def seen_hashes(out: str) -> set:
    seen_dir = os.path.join(out, "seen_segments")
    return {
        int(h)
        for f in os.listdir(seen_dir) if f.endswith(".parquet")
        for h in pq.read_table(os.path.join(seen_dir, f))["url_hash"].to_pylist()
    }


def matches_oracle(out: str, want) -> dict:
    """Golden-parity checks of one strict-order crawl: the three content
    tables, the exact crawl order and the seen set."""
    tables = open_tables(out, 8)
    checks = {
        name: frames_equal(
            norm(tables[name].read_all(), TABLE_KEYS[name], TS_COLS | BOOK_COLS),
            norm(getattr(want, name), TABLE_KEYS[name], TS_COLS | BOOK_COLS))
        for name in ("pages", "sections", "images_out")
    }
    log = read_crawl_log(out).to_pandas()
    wlog = want.crawl_log.to_pandas()
    checks["crawl_order"] = bool(
        len(log) == len(wlog)
        and (log.canonical_url.to_numpy() == wlog.canonical_url.to_numpy()).all()
        and (log.seq.to_numpy() == wlog.seq.to_numpy()).all())
    checks["seen_set"] = seen_hashes(out) == want.seen_hashes
    return checks


@pytest.fixture(scope="module")
def corpus():
    generate(CORPUS, n_entities=150, seed=5)
    return CORPUS


@pytest.fixture(scope="module")
def oracle(corpus):
    return run_oracle(corpus)


def test_frontier_actor_never_imports_tensor_extensions(ray_session):
    """Tables cross into and out of a frontier shard as Arrow IPC buffers,
    so a new actor never loads Ray's tensor-extension deserializer (and
    with it ray.data and pandas: about a second of a cold crawl)."""
    import ray

    from wikicrawl.stages.crawl_stages import RESOLVED_SCHEMA
    from wikicrawl.state.frontier import ShardedFrontier

    fr = ShardedFrontier(1, 1e9, 1e9)
    row = dict(family="f", family_rank=0, entity_id="E1", wikidata_id="Q1",
               seed_order=0, lang="en", lang_rank=0, page_title="P",
               canonical_url="https://en.x/wiki/P", host="en.x",
               path="/wiki/P", url_hash=5, status="resolved", requests=1,
               depth=0)
    tbl = pa.Table.from_pylist([row], schema=RESOLVED_SCHEMA)
    fr.push_table(tbl)
    assert fr.pop_wave_table(RESOLVED_SCHEMA).equals(tbl)
    loaded = ray.get(fr.shards[0].__ray_call__.remote(
        lambda self: "ray.air.util.tensor_extensions" in sys.modules))
    assert not loaded
    ray.kill(fr.shards[0], no_restart=True)


def test_consecutive_crawls_reuse_the_pair_bit_identical(corpus, oracle,
                                                         ray_session,
                                                         monkeypatch):
    pairs = record_leases(monkeypatch)
    outs = ["/tmp/wc_lease_a", "/tmp/wc_lease_b"]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
        crawl(CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=64,
                          strict_order=True))
    assert actor_ids(pairs[1]) == actor_ids(pairs[0])
    for out in outs:
        checks = matches_oracle(out, oracle)
        assert all(checks.values()), (out, checks)
    a, b = (open_tables(out, 8) for out in outs)
    for name, keys in TABLE_KEYS.items():
        assert frames_equal(norm(a[name].read_all(), keys),
                            norm(b[name].read_all(), keys)), name
    assert read_crawl_log(outs[0]).equals(read_crawl_log(outs[1]))
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)


def test_consecutive_crawls_with_different_settings_match_their_oracles(
        corpus, oracle, ray_session, monkeypatch):
    """One leased pair (2 seen shards, 1 frontier shard) carries crawls
    that differ in every setting a reset must replace: each matches its
    own oracle, so nothing of an earlier crawl leaks into a later one."""
    pairs = record_leases(monkeypatch)
    out = "/tmp/wc_lease_settings"
    base = dict(out_dir=out, entity_wave=64, strict_order=True,
                n_seen_shards=2, n_frontier_shards=1)

    def run(corpus_dir, **kw):
        shutil.rmtree(out, ignore_errors=True)
        crawl(CrawlConfig(corpus_dir=corpus_dir, **base, **kw))
        return read_crawl_log(out).to_pandas()

    # tight politeness budget: per-host order and the seen set are exact
    log = run(corpus, host_rate=25, host_burst=25)
    want = oracle.crawl_log.to_pandas()
    for host in sorted(set(want.host)):
        assert (log[log.host == host].sort_values("seq").canonical_url.tolist()
                == want[want.host == host].sort_values("seq")
                .canonical_url.tolist()), host
    assert seen_hashes(out) == oracle.seen_hashes

    # hot-host split: same result set
    log = run(corpus, hot_hosts={"en.wikipedia.org": 2, "fr.wikipedia.org": 2})
    assert set(log.canonical_url) == set(want.canonical_url)
    assert seen_hashes(out) == oracle.seen_hashes

    # tiny seen-set RAM budget: the shards spill runs, parity is exact
    run(corpus, seen_resident_keys=64)
    checks = matches_oracle(out, oracle)
    assert all(checks.values()), checks

    # per-host Crawl-delay with link discovery: the budgeted BFS schedule
    delays = {"fr.wikipedia.org": 2}
    log = run(corpus, discover_links=True, host_delays=delays)
    dwant = run_discovery_oracle(corpus, entity_wave=64,
                                 host_delays=delays).crawl_log.to_pandas()
    assert (log.canonical_url.tolist() == dwant.canonical_url.tolist()
            and log.seq.tolist() == dwant.seq.tolist())

    # other robots rules (a copy of the corpus): the frontier's rules are
    # replaced, not kept from the crawls above
    other = CORPUS + "_robots"
    shutil.rmtree(other, ignore_errors=True)
    shutil.copytree(corpus, other)
    meta_path = os.path.join(other, "meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["robots_disallow"] = {"en.wikipedia.org": ["/wiki/A", "/wiki/S"]}
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    run(other)
    other_oracle = run_oracle(other)
    assert other_oracle.crawl_log.num_rows != oracle.crawl_log.num_rows
    checks = matches_oracle(out, other_oracle)
    assert all(checks.values()), checks
    # ... and back to the corpus's own rules
    run(corpus)
    checks = matches_oracle(out, oracle)
    assert all(checks.values()), checks

    assert len({tuple(actor_ids(p)) for p in pairs}) == 1, "pair not reused"
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(other, ignore_errors=True)


def test_released_pair_is_empty(corpus, ray_session, monkeypatch):
    """A returned pair holds no crawl state: after a finished crawl and
    after a halted one (halt_after_waves leaves a frontier backlog, which
    the release reset wipes as a killed process would), every shard is
    empty and has no spill dir."""
    import ray

    pairs = record_leases(monkeypatch)
    out = "/tmp/wc_lease_empty"
    for kw in ({}, {"host_rate": 5, "host_burst": 5, "strict_order": False,
                    "halt_after_waves": 1}):
        shutil.rmtree(out, ignore_errors=True)
        crawl(CrawlConfig(**{"corpus_dir": corpus, "out_dir": out,
                             "entity_wave": 64, "strict_order": True,
                             "seen_resident_keys": 64, **kw}))
        seen, frontier = pairs[-1]
        assert ray.get([s.size.remote() for s in seen.shards]) == [0] * 2
        assert ray.get([s.backlog.remote() for s in frontier.shards]) == [0] * 2
        spill = ray.get([s.__ray_call__.remote(lambda self: self.seen.spill_dir)
                         for s in seen.shards])
        assert spill == [None] * 2
    shutil.rmtree(out, ignore_errors=True)


def test_failed_crawl_never_returns_its_pair(corpus, ray_session,
                                             monkeypatch):
    """The failure injection of test_failed_crawl_leaves_no_background_
    writers: the failed crawl's actors are killed, and the next crawl
    builds a new pair."""
    import ray

    from wikicrawl.state.seen import ShardedSeenSet

    pairs = record_leases(monkeypatch)
    out = "/tmp/wc_lease_fail"
    shutil.rmtree(out, ignore_errors=True)
    real_insert = ShardedSeenSet.insert_batch
    calls = {"n": 0}

    def failing_insert(self, hashes):
        calls["n"] += 1
        if calls["n"] == 4:
            raise RuntimeError("injected seen-set failure")
        return real_insert(self, hashes)

    monkeypatch.setattr(ShardedSeenSet, "insert_batch", failing_insert)
    with pytest.raises(RuntimeError, match="injected"):
        crawl(CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=32,
                          strict_order=True))
    monkeypatch.setattr(ShardedSeenSet, "insert_batch", real_insert)
    shutil.rmtree(out, ignore_errors=True)
    crawl(CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=32,
                      strict_order=True))
    assert not set(actor_ids(pairs[0])) & set(actor_ids(pairs[1]))
    seen, frontier = pairs[0]
    for s in seen.shards:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(s.size.remote(), timeout=60)
    for s in frontier.shards:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(s.backlog.remote(), timeout=60)
    shutil.rmtree(out, ignore_errors=True)


def test_no_state_actor_outlives_the_session():
    res = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr[-3000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["pooled_pids"], out
    assert out["alive_after_shutdown"] == [], out
    assert out["fresh_pair_after_reinit"], out
    assert out["parity_after_reinit"], out


# ---- the session-lifetime drill (run in its own process) ----------------

def _state_actor_pids() -> dict:
    """pid -> title of this process tree's live state-shard actors (a
    zombie has an empty cmdline and does not count)."""
    found = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                title = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if title.startswith(("ray::SeenShardActor", "ray::FrontierShardActor")):
            found[int(pid)] = title
    return found


def _drill() -> dict:
    import ray

    from wikicrawl.state import placement

    corpus = "/tmp/wikicrawl_test_corpus_lease_drill"
    out = "/tmp/wc_lease_drill"
    generate(corpus, n_entities=60, seed=3)
    want = run_oracle(corpus)

    def session_crawl():
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        shutil.rmtree(out, ignore_errors=True)
        crawl(CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=32,
                          strict_order=True))
        _, seen_shards, frontier_shards = placement._idle
        actors = seen_shards + frontier_shards
        pids = ray.get([a.__ray_call__.remote(lambda self: os.getpid())
                        for a in actors])
        return [a._actor_id.hex() for a in actors], pids

    ids1, pids = session_crawl()
    ray.shutdown()
    deadline = time.time() + 30
    alive = sorted(set(pids) & set(_state_actor_pids()))
    while alive and time.time() < deadline:
        time.sleep(0.5)
        alive = sorted(set(pids) & set(_state_actor_pids()))
    ids2, _ = session_crawl()
    checks = matches_oracle(out, want)
    ray.shutdown()
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)
    return {
        "pooled_pids": pids,
        "alive_after_shutdown": alive,
        "fresh_pair_after_reinit": not set(ids1) & set(ids2),
        "parity_after_reinit": all(checks.values()),
        "checks": checks,
    }


if __name__ == "__main__":
    print(json.dumps(_drill()))
