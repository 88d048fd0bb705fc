"""State-shard death resilience (VERDICT r3 item 7 — the "ugly case").

Runs scripts/shard_death_smoke.py in a SUBPROCESS: a seen-set shard
actor is hard-killed (``ray.kill``, no restart) at the top of wave 3 —
state Ray cannot rebuild from lineage. The crawl fails; ``resume=True``
in the SAME Ray session restores EXACT golden parity from the committed
wave manifests + admission WAL + seen segments, appending to (never
rewriting) the committed crawl log."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_seen_shard_death_resume_golden_parity():
    res = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "shard_death_smoke.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stderr[-3000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["shard_killed"], "shard was not killed"
    assert out["manifests_before_resume"] > 0
    assert out["committed_preserved_append_only"]
    assert out["ok"], out


def test_failed_crawl_leaves_no_background_writers(ray_session, monkeypatch):
    """A state-plane error mid-crawl must end every background wave job
    and manifest commit BEFORE crawl() raises: no ThreadPoolExecutor
    thread the crawl started is left alive, and no manifest lands after
    the error has surfaced (else a resume started right after the
    failure races the dead run's writers)."""
    import shutil
    import threading
    import time

    import pytest

    from wikicrawl.pipelines.crawl import CrawlConfig, crawl
    from wikicrawl.state.seen import ShardedSeenSet
    from wikicrawl.synth import generate

    corpus = "/tmp/wikicrawl_test_corpus_failexit"
    out = "/tmp/wikicrawl_test_crawl_failexit"
    generate(corpus, n_entities=400, seed=11)
    shutil.rmtree(out, ignore_errors=True)

    real_insert = ShardedSeenSet.insert_batch
    calls = {"n": 0}

    def failing_insert(self, hashes):
        calls["n"] += 1
        if calls["n"] == 4:
            raise RuntimeError("injected seen-set failure")
        return real_insert(self, hashes)

    monkeypatch.setattr(ShardedSeenSet, "insert_batch", failing_insert)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="injected"):
        crawl(CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=32,
                          strict_order=True))
    leftover = [t.name for t in threading.enumerate()
                if t not in before and t.is_alive()
                and t.name.startswith("ThreadPoolExecutor")]
    assert not leftover, leftover

    ckpt_dir = os.path.join(out, "checkpoints")

    def n_manifests():
        return len(os.listdir(ckpt_dir)) if os.path.isdir(ckpt_dir) else 0

    n0 = n_manifests()
    time.sleep(2)
    assert n_manifests() == n0
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(corpus, ignore_errors=True)
