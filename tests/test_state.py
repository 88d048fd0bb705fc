"""Unit tests for seen-set filters, frontier shard state, and KeyedTable
merge-insert (the verify_inplace_upsert invariants ported —
migrations/verify_inplace_upsert.py:1-50)."""

import math
import os
import time

import numpy as np
import pyarrow as pa
import pytest

from wikicrawl.state import seen as seen_mod
from wikicrawl.state.frontier import FrontierShardState
from wikicrawl.state.seen import BloomFilter, CuckooFilter, SeenSet
from wikicrawl.state.table import KeyedTable


def test_bloom_no_false_negatives():
    bf = BloomFilter(capacity=5000)
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 2**63, size=3000).astype(np.uint64)
    bf.add_batch(keys)
    assert bf.contains_batch(keys).all()
    other = rng.integers(0, 2**63, size=3000).astype(np.uint64)
    fresh = other[~np.isin(other, keys)]
    fp = bf.contains_batch(fresh).mean()
    assert fp < 0.05


def test_cuckoo_membership_and_fp():
    cf = CuckooFilter(capacity=4000)
    rng = np.random.default_rng(2)
    keys = rng.integers(1, 2**63, size=2000).astype(np.uint64)
    assert cf.insert_batch(keys)
    assert cf.contains_batch(keys).all()
    other = rng.integers(1, 2**63, size=2000).astype(np.uint64)
    fresh = other[~np.isin(other, keys)]
    assert cf.contains_batch(fresh).mean() < 0.02


def test_seen_set_first_wins_and_exactness(tmp_path):
    s = SeenSet()
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2**63, size=500).astype(np.uint64)
    new1 = s.insert_batch(a)
    assert new1.all()
    new2 = s.insert_batch(a)  # exact: every re-insert rejected
    assert not new2.any()
    b = rng.integers(0, 2**63, size=500).astype(np.uint64)
    b_fresh = b[~np.isin(b, a)]
    assert s.insert_batch(b_fresh).all()
    assert len(s) == 500 + len(b_fresh)
    # segment round-trip
    seg = str(tmp_path / "seg.parquet")
    s.flush_segment(seg)
    s2 = SeenSet()
    s2.load_segment(seg)
    assert len(s2) == len(s)
    assert not s2.insert_batch(a[:10]).any()


def test_frontier_priority_and_politeness():
    st = FrontierShardState(0, rate=3, burst=3)
    tbl = pa.Table.from_pylist([
        dict(family_rank=1, seed_order=0, lang_rank=0, host="en.x", path="/wiki/A"),
        dict(family_rank=0, seed_order=1, lang_rank=1, host="en.x", path="/wiki/B"),
        dict(family_rank=0, seed_order=1, lang_rank=0, host="en.x", path="/wiki/C"),
        dict(family_rank=0, seed_order=0, lang_rank=0, host="fr.x", path="/wiki/D"),
        dict(family_rank=2, seed_order=0, lang_rank=0, host="en.x", path="/wiki/E"),
    ])
    assert st.push_table_rows(tbl) == 5
    wave1 = st.pop_wave_table_state(tbl.schema).to_pylist()
    # per-host budget 3: en.x yields its top-3 by priority; fr.x yields its 1
    en = [r["path"] for r in wave1 if r["host"] == "en.x"]
    assert en == ["/wiki/C", "/wiki/B", "/wiki/A"]
    assert [r["path"] for r in wave1 if r["host"] == "fr.x"] == ["/wiki/D"]
    wave2 = st.pop_wave_table_state(tbl.schema).to_pylist()
    assert [r["path"] for r in wave2] == ["/wiki/E"]
    assert st.pop_wave_table_state(tbl.schema) is None


def test_frontier_robots_denied_at_admission():
    st = FrontierShardState(
        0, rate=10, burst=10, robots_rules={"en.x": ("/wiki/Special_blocked",)}
    )
    tbl = pa.Table.from_pylist([
        dict(family_rank=0, seed_order=0, lang_rank=0, host="en.x", path="/wiki/OK"),
        dict(family_rank=0, seed_order=1, lang_rank=0, host="en.x",
             path="/wiki/Special_blocked_Z"),
    ])
    assert st.push_table_rows(tbl) == 1
    assert st.robots_denied == 1
    assert st.pop_wave_table_state(tbl.schema)["path"].to_pylist() == ["/wiki/OK"]


SCHEMA = pa.schema(
    [
        ("qid", pa.string()),
        ("lang", pa.string()),
        ("display_order", pa.int32()),
        ("val", pa.string()),
    ]
)


def make_tbl(rows):
    cols = {f.name: [r.get(f.name) for r in rows] for f in SCHEMA}
    return pa.table(cols, schema=SCHEMA)


def test_keyed_table_upsert_invariants(tmp_path):
    t = KeyedTable(
        str(tmp_path / "tbl"),
        SCHEMA,
        key=["qid", "lang", "display_order"],
        n_partitions=4,
        prune_group=["qid", "lang"],
    )
    r1 = [
        dict(qid="Q1", lang="en", display_order=1, val="a"),
        dict(qid="Q1", lang="en", display_order=2, val="b"),
        dict(qid="Q1", lang="en", display_order=3, val="c"),
        dict(qid="Q2", lang="fr", display_order=1, val="z"),
    ]
    c = t.merge_insert(make_tbl(r1), clock=100)
    assert c == {"inserted": 4, "updated": 0, "deleted": 0}
    before = t.read_all().to_pandas().set_index(["qid", "lang", "display_order"])

    # re-crawl Q1/en with only 2 images, first updated in place
    r2 = [
        dict(qid="Q1", lang="en", display_order=1, val="a2"),
        dict(qid="Q1", lang="en", display_order=2, val="b"),
    ]
    c = t.merge_insert(make_tbl(r2), clock=200)
    assert c["updated"] == 2 and c["inserted"] == 0
    assert c["deleted"] == 1  # tail prune: display_order 3 gone
    after = t.read_all().to_pandas().set_index(["qid", "lang", "display_order"])

    # stable row identity + insert-only creation stamp (verify_inplace_upsert)
    assert after.loc[("Q1", "en", 1), "_row_id"] == before.loc[("Q1", "en", 1), "_row_id"]
    assert after.loc[("Q1", "en", 1), "_dat_creat"] == 100
    assert after.loc[("Q1", "en", 1), "val"] == "a2"
    # untouched group unaffected
    assert after.loc[("Q2", "fr", 1), "val"] == "z"
    # no duplicates on the key
    assert after.index.is_unique
    assert ("Q1", "en", 3) not in after.index

    # empty-group delete branch (page now has zero images)
    assert t.delete_group([("Q2", "fr")]) == 1
    final = t.read_all().to_pandas()
    assert set(final.qid) == {"Q1"}


def test_keyed_table_idempotent_replay(tmp_path):
    t = KeyedTable(str(tmp_path / "tbl"), SCHEMA, key=["qid", "lang", "display_order"],
                   n_partitions=2, prune_group=["qid", "lang"])
    rows = [dict(qid=f"Q{i}", lang="en", display_order=1, val=str(i)) for i in range(20)]
    t.merge_insert(make_tbl(rows), clock=1)
    snap1 = t.read_all().to_pandas().sort_values("qid").reset_index(drop=True)
    t.merge_insert(make_tbl(rows), clock=2)  # replay (resume overlap)
    snap2 = t.read_all().to_pandas().sort_values("qid").reset_index(drop=True)
    assert snap1.equals(snap2)  # byte-identical incl. _row_id/_dat_creat


def test_seen_set_exact_after_cuckoo_overflow(tmp_path):
    """ADVICE r1: a seen URL must never report unseen. Nine keys sharing
    their top 16 and low 40 bits share a fingerprint and a bucket pair at
    every table size, so no cuckoo holds them all (a failed insert drops a
    fingerprint): the run that holds them is built without a cuckoo and
    probes bloom -> searchsorted — in RAM, and after spilled runs are
    compacted (whose 2x rebuild fails too)."""
    low, top = 0x12_3456_789A, 0xABCD << 48
    bad = np.array([top | (j << 40) | low for j in range(1, 10)],
                   dtype=np.uint64)
    near = np.array([top | (j << 40) | low for j in range(10, 40)],
                    dtype=np.uint64)
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(1, 2**63, size=5000).astype(np.uint64))
    keys = np.concatenate([bad, keys[~np.isin(keys, bad)]])
    fresh = rng.integers(1, 2**63, size=5000).astype(np.uint64)
    fresh = np.concatenate([near, fresh[~np.isin(fresh, keys)]])
    for spill in (False, True):
        s = (SeenSet(spill_dir=str(tmp_path / "sp"), max_resident_keys=1)
             if spill else SeenSet())
        for i in range(0, len(keys), 1000):
            assert s.insert_batch(keys[i : i + 1000]).all()
        assert s.contains_batch(keys).all()
        assert not s.insert_batch(keys).any()
        assert not s.contains_batch(fresh).any()
        runs = s._spilled + s._runs
        holder = [r for r in runs if np.isin(bad, r.keys).any()]
        assert len(holder) == 1 and np.isin(bad, holder[0].keys).all()
        assert holder[0].cuckoo is None
        assert all(r.cuckoo is not None for r in runs if r is not holder[0])
        if spill:  # the compacted run, with no cuckoo file
            assert holder[0] is s._spilled[0]
            assert [os.path.splitext(f)[1] for f in holder[0].files] == [
                ".keys", ".bloom"]


def test_seen_set_empty_inputs_create_no_run(tmp_path):
    """Empty batches and empty segments raise nothing and make no run."""
    spill = tmp_path / "sp"
    s = SeenSet(spill_dir=str(spill), max_resident_keys=1)
    empty = np.empty(0, dtype=np.uint64)
    for keys in (empty, np.arange(1, 100, dtype=np.uint64)):
        s.insert_batch(keys)
        assert s.flush_segment(str(tmp_path / "seg.parquet")) == len(keys)
        before = (len(s._runs), len(s._spilled), sorted(os.listdir(spill)))
        assert len(s.insert_batch(empty)) == 0
        assert len(s.contains_batch(empty)) == 0
        seg = str(tmp_path / "empty.parquet")
        assert s.flush_segment(seg) == 0
        assert s.load_segment(seg) == 0
        assert (len(s._runs), len(s._spilled),
                sorted(os.listdir(spill))) == before
        assert len(s) == len(keys)
    assert len(s._runs) + len(s._spilled) == 1


def test_seen_set_compaction_keeps_exactness():
    """Batch after batch merges runs; the first-wins contract must hold
    across the merged runs."""
    s = SeenSet()
    rng = np.random.default_rng(12)
    a = rng.integers(1, 2**63, size=20000).astype(np.uint64)
    a = np.unique(a)
    for i in range(0, len(a), 1000):
        assert s.insert_batch(a[i : i + 1000]).all()
    assert len(s._runs) < 20  # runs merged
    assert not s.insert_batch(a).any()
    assert s.contains_batch(a).all()


def test_seen_set_spill_runs_memory_budget(tmp_path):
    """10^10-URL path: with a spill dir and a tiny resident budget the
    runs overflow to disk with their filters (memmap probes), compaction
    bounds the run count, and first-wins/membership stay EXACT."""
    s = SeenSet(spill_dir=str(tmp_path / "spill"), max_resident_keys=10_000)
    rng = np.random.default_rng(21)
    chunks = [np.unique(rng.integers(1, 2**63, size=20_000).astype(np.uint64))
              for _ in range(6)]
    seen_all = []
    for c in chunks:
        fresh = c[~np.isin(c, np.concatenate(seen_all))] if seen_all else c
        assert s.insert_batch(fresh).all()
        seen_all.append(fresh)
        assert s.resident_keys() <= 10_000 + 20_000  # budget + one batch
    allk = np.concatenate(seen_all)
    assert len(s._spilled) >= 1  # spilling actually happened
    assert len(s._spilled) <= seen_mod.MAX_SPILL_RUNS  # compaction ran
    for run in s._spilled:  # keys, bloom bits and cuckoo table on disk
        assert [os.path.splitext(f)[1] for f in run.files] == [
            ".keys", ".bloom", ".cuckoo"]
        assert all(os.path.exists(f) for f in run.files)
    assert s.contains_batch(allk).all()  # exact across RAM + runs
    assert not s.insert_batch(allk).any()  # first-wins exact
    other = rng.integers(1, 2**63, size=5000).astype(np.uint64)
    other = other[~np.isin(other, allk)]
    assert not s.contains_batch(other).any()


def test_seen_set_log_runs_stay_fast_and_exact():
    """500k keys in 8192-key batches: the runs stay O(log N), each run's
    filters hold their design false-positive rates (no filter is rebuilt
    at 2x, none stops filtering past a RAM ceiling), and membership is
    exact."""
    s = SeenSet()
    rng = np.random.default_rng(31)
    keys = rng.integers(1, 2**63, size=500_000).astype(np.uint64)
    t0 = time.time()
    for i in range(0, len(keys), 8192):
        s.insert_batch(keys[i : i + 8192])
    assert time.time() - t0 < 15
    assert len(s._runs) <= math.ceil(math.log2(500_000 / 8192)) + 1
    fresh = rng.integers(1, 2**63, size=100_000).astype(np.uint64)
    fresh = fresh[~np.isin(fresh, keys)]
    for run in s._runs:
        assert run.bloom.contains_batch(fresh).mean() <= 0.02
        assert run.cuckoo.contains_batch(fresh).mean() <= 0.001
    allk = np.unique(keys)
    assert len(s) == len(allk)
    assert s.contains_batch(allk).all()
    assert not s.insert_batch(allk).any()
    assert not s.contains_batch(fresh).any()


def test_compaction_vectorized_merge_exact(tmp_path, monkeypatch):
    """The vectorized k-way merge must equal a global sort+unique of all
    spilled keys, across MANY rounds (chunk smaller than the runs) and
    with heavy cross-run duplication; the merged run's filters, built
    from the merged chunks, pass every merged key."""
    monkeypatch.setattr(seen_mod, "MAX_SPILL_RUNS", 100)  # no auto-compaction
    s = SeenSet(spill_dir=str(tmp_path / "sp"), max_resident_keys=1)
    rng = np.random.default_rng(3)
    all_keys = []
    for _ in range(5):
        k = rng.integers(1, 5000, size=800).astype(np.uint64)  # dup-heavy
        s.insert_batch(k)
        all_keys.append(k)
    assert len(s._spilled) >= 5
    s._compact_runs(chunk_keys=64)  # force multi-round merging
    assert len(s._spilled) == 1
    run = s._spilled[0]
    got = np.asarray(run.keys)
    want = np.unique(np.concatenate(all_keys))
    assert np.array_equal(got, want)
    assert run.bloom.contains_batch(want).all()
    assert run.cuckoo.contains_batch(want).all()
    assert sorted(os.listdir(tmp_path / "sp")) == sorted(
        os.path.basename(f) for f in run.files)  # merged runs' files gone
    assert s.contains_batch(want).all()


@pytest.mark.parametrize("n_shards", [2, 4])
def test_shard_routing_keeps_run_blooms_at_design_fp(n_shards):
    """A shard's keys must spread over its filters' words: routing on the
    key bits the bloom word and cuckoo bucket index on (``key % n``) packs
    each shard's keys into 1/n of every bloom and lifts the per-run
    false-positive rate several-fold."""
    from wikicrawl.state.seen import ShardedSeenSet

    router = object.__new__(ShardedSeenSet)  # _route needs only n_shards
    router.n_shards = n_shards
    rng = np.random.default_rng(11)

    def shard0_keys(n):
        k = np.unique(rng.integers(0, 2**63, size=4 * n_shards * n,
                                   dtype=np.uint64))
        return rng.permutation(k[router._route(k) == 0])[:n]

    s = SeenSet()
    for _ in range(6):
        s.insert_batch(shard0_keys(8192))
    probe = shard0_keys(20000)
    probe = probe[~s.contains_batch(probe)]
    assert len(probe) > 10000
    for run in s._runs:
        fp = run.bloom.contains_batch(probe).mean()
        assert fp <= 0.02, (n_shards, len(run), fp)


def test_seen_probe_shares_bloom_masks_across_runs():
    """``_member`` computes each key's bloom mask once per slice and filters
    it with the keys: on a set of 7 runs its answers equal the exact answer
    and a per-run probe that computes the masks afresh."""
    rng = np.random.default_rng(11)
    s = SeenSet()
    inserted = []
    for n in (60_000, 20_000, 6_600, 2_200, 730, 240, 80):
        keys = rng.integers(0, 2**64, n, dtype=np.uint64)
        s.insert_batch(keys)
        inserted.append(keys)
    assert len(s._runs) == 7
    held = np.concatenate(inserted)
    probe = np.unique(np.concatenate([
        rng.choice(held, 40_000), rng.integers(0, 2**64, 100_000, dtype=np.uint64)]))
    # more than one slice, so the masks are sliced along with the keys
    assert len(probe) > seen_mod._SLICE
    got = s._member(probe)
    assert np.array_equal(got, np.isin(probe, held))
    fresh_masks = np.zeros(len(probe), dtype=bool)
    for run in s._runs:
        fresh_masks |= run.member(probe, BloomFilter.key_mask(probe))
    assert np.array_equal(got, fresh_masks)
