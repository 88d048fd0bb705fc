"""URL-seen set: bloom pre-filter + cuckoo filter + exact backing store.

north_rule requires (a) a sharded cuckoo-filter URL-seen set with bloom
pre-filter keyed by canonicalized+hashed URLs, and (b) EXACT final seen-set
parity with the reference. Approximate filters alone cannot give (b) — a
cuckoo false positive would silently drop a URL. Design (SURVEY §4.2.3):

- bloom: negative -> URL definitely new (common case at the frontier's edge,
  one cache-friendly probe, no exact lookup);
- cuckoo: holds 16-bit fingerprints, supports deletes/aging, bounds the
  false-positive rate of the "maybe seen" path;
- exact backing: the inserted 64-bit hashes themselves — in RAM as a set,
  spillable to sorted uint64 parquet segments per checkpoint; consulted ONLY
  when bloom+cuckoo both say "maybe".

So the fast path is O(1) probes and the *result* is exact. Shards are
``hash % n_shards`` actors; membership/insert calls are batched per shard
(one ray call per shard per wave, not per URL).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray


class BloomFilter:
    """Register-blocked bloom over uint64 keys: each key maps to ONE 64-bit
    word and sets k=4 bits inside it. One gather/scatter per batch, no sort
    — ~10x faster than a classic k-probe bloom at equal size, at a slightly
    worse (still ~1-2%) false-positive rate, which is fine here because the
    bloom only gates the exact-store probe (it can never cause a wrong
    answer, only a wasted lookup)."""

    K = 4

    def __init__(self, capacity: int, fp_rate: float = 0.01):
        m = max(4096, int(-capacity * np.log(fp_rate) / (np.log(2) ** 2)))
        self.m = int(2 ** np.ceil(np.log2(m)))  # bits; power of two
        self.n_words = self.m // 64
        self.bits = np.zeros(self.n_words, dtype=np.uint64)
        self._wmask = np.uint64(self.n_words - 1)

    def _word_and_mask(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=np.uint64)
        word = (keys & self._wmask).astype(np.int64)
        # k in-word bit positions from independent 6-bit hash slices
        h = (keys * np.uint64(0x9E3779B97F4A7C15))
        mask = np.zeros(len(keys), dtype=np.uint64)
        for i in range(self.K):
            mask |= np.uint64(1) << ((h >> np.uint64(16 + 6 * i)) & np.uint64(63))
        return word, mask

    def add_batch(self, keys: np.ndarray) -> None:
        if not len(keys):
            return
        word, mask = self._word_and_mask(keys)
        np.bitwise_or.at(self.bits, word, mask)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        if not len(keys):
            return np.zeros(0, dtype=bool)
        word, mask = self._word_and_mask(keys)
        return (self.bits[word] & mask) == mask


class CuckooFilter:
    """Standard (2, 4) cuckoo filter with 16-bit fingerprints over uint64 keys.

    Inserts are O(1) via a per-bucket occupancy count (no slot scan); the
    random-walk eviction only runs when both candidate buckets are full,
    which stays rare below ~0.95 load because the owning ``SeenSet`` grows
    the filter (rebuild at 2x) before that point."""

    MAX_KICKS = 500

    def __init__(self, capacity: int):
        n_buckets = max(8, int(2 ** np.ceil(np.log2(capacity / 4 * 1.1 + 1))))
        self.n_buckets = n_buckets
        self.table = np.zeros((n_buckets, 4), dtype=np.uint16)  # 0 = empty
        self.occ = np.zeros(n_buckets, dtype=np.uint8)  # filled slots per bucket
        self.count = 0  # fingerprints stored
        self._mask = np.uint64(n_buckets - 1)
        self._lcg = 0xC0FFEE  # cheap deterministic RNG for eviction walks

    @property
    def capacity_slots(self) -> int:
        return self.n_buckets * 4

    def _fp(self, key: np.uint64) -> np.uint16:
        fp = np.uint16((int(key) >> 48) & 0xFFFF)
        return fp if fp != 0 else np.uint16(1)

    def _i1(self, key: int) -> int:
        return int(np.uint64(key) & self._mask)

    def _i2(self, i1: int, fp: int) -> int:
        # partial-key cuckoo: alt index = i1 xor hash(fp)
        h = (int(fp) * 0x5BD1E995) & 0xFFFFFFFFFFFFFFFF
        return int((i1 ^ h) & int(self._mask))

    def _rand(self) -> int:
        self._lcg = (self._lcg * 6364136223846793005
                     + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        return self._lcg >> 33

    def _kick(self, fp: int, i1: int, i2: int) -> bool:
        """Random-walk eviction; both buckets known full on entry."""
        i = i1 if self._rand() & 1 else i2
        table, occ = self.table, self.occ
        for _ in range(self.MAX_KICKS):
            slot = self._rand() & 3
            fp, table[i, slot] = int(table[i, slot]), fp
            i = self._i2(i, fp)
            o = occ[i]
            if o < 4:
                table[i, o] = fp
                occ[i] = o + 1
                self.count += 1
                return True
        return False  # table overfull; exact backing still catches membership

    def insert(self, key: int) -> bool:
        fp = int(self._fp(np.uint64(key)))
        i1 = self._i1(key)
        i2 = self._i2(i1, fp)
        table, occ = self.table, self.occ
        o = occ[i1]
        if o < 4:
            table[i1, o] = fp
            occ[i1] = o + 1
            self.count += 1
            return True
        o = occ[i2]
        if o < 4:
            table[i2, o] = fp
            occ[i2] = o + 1
            self.count += 1
            return True
        return self._kick(fp, i1, i2)

    def _bulk_place(self, fp: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Vectorized conflict-safe placement of fp[j] into bucket idx[j]
        where slots remain: sort by bucket, rank within bucket, place ranks
        that fit below the 4-slot ceiling in one fancy-indexed write.
        Returns the boolean mask of placed entries."""
        order = np.argsort(idx, kind="stable")
        si = idx[order]
        sf = fp[order]
        uniq, start, counts = np.unique(si, return_index=True,
                                        return_counts=True)
        rank = np.arange(len(si), dtype=np.int64) - np.repeat(start, counts)
        slot = self.occ[si].astype(np.int64) + rank
        fits = slot < 4
        self.table[si[fits], slot[fits]] = sf[fits]
        self.occ[uniq] = np.minimum(
            self.occ[uniq].astype(np.int64) + counts, 4
        ).astype(np.uint8)
        placed = np.zeros(len(fp), dtype=bool)
        placed[order[fits]] = True
        self.count += int(fits.sum())
        return placed

    def insert_batch(self, keys: np.ndarray) -> bool:
        """Bulk insert: fingerprints + both bucket indexes in one numpy
        pass, two vectorized placement rounds (primary bucket, then alt
        bucket for the spillover); only keys whose BOTH buckets are full
        fall to the per-key kick loop (rare below the grow load factor)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if not len(keys):
            return True
        fp = ((keys >> np.uint64(48)) & np.uint64(0xFFFF)).astype(np.uint16)
        fp[fp == 0] = 1
        i1 = (keys & self._mask).astype(np.int64)
        h = fp.astype(np.uint64) * np.uint64(0x5BD1E995)
        i2 = ((i1.astype(np.uint64) ^ h) & self._mask).astype(np.int64)
        rem = ~self._bulk_place(fp, i1)
        if not rem.any():
            return True
        fp2, i1r, i2r = fp[rem], i1[rem], i2[rem]
        rem2 = ~self._bulk_place(fp2, i2r)
        if not rem2.any():
            return True
        ok = True
        for f, a, b in zip(fp2[rem2].tolist(), i1r[rem2].tolist(),
                           i2r[rem2].tolist()):
            if not self._kick(f, a, b):
                ok = False
        return ok

    def contains(self, key: int) -> bool:
        fp = int(self._fp(np.uint64(key)))
        i1 = self._i1(key)
        i2 = self._i2(i1, fp)
        return bool((self.table[i1] == fp).any() or (self.table[i2] == fp).any())

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership probe: fingerprints + both bucket indexes
        computed in one numpy pass (no per-key Python)."""
        keys = np.asarray(keys, dtype=np.uint64)
        fp = ((keys >> np.uint64(48)) & np.uint64(0xFFFF)).astype(np.uint16)
        fp[fp == 0] = 1
        i1 = (keys & self._mask).astype(np.int64)
        h = (fp.astype(np.uint64) * np.uint64(0x5BD1E995))
        i2 = ((i1.astype(np.uint64) ^ h) & self._mask).astype(np.int64)
        hit1 = (self.table[i1] == fp[:, None]).any(axis=1)
        hit2 = (self.table[i2] == fp[:, None]).any(axis=1)
        return hit1 | hit2


class SeenSet:
    """Exact seen-set with bloom/cuckoo fast path and parquet spill segments.

    Membership chain (each stage vectorized, each prunes the next):
    bloom negative -> definitely new; cuckoo negative -> definitely new
    WHILE the cuckoo has never overflowed (``_cuckoo_complete``) — after an
    insert failure the cuckoo becomes a positive-only accelerator and misses
    fall through to the exact store (no false negatives; ADVICE r1 fix);
    exact store = sorted uint64 array (searchsorted probe) + small delta set
    compacted when it grows.

    10^10-URL path: with ``spill_dir`` set, the resident sorted array is
    bounded by ``max_resident_keys`` — overflow spills to sorted uint64
    runs on disk, probed via np.memmap searchsorted (OS page cache; only
    bloom/cuckoo-positive keys ever reach a run probe). Runs are merged by
    sorted-run compaction when their count exceeds ``max_runs``, so probe
    cost stays O(log N) over a handful of runs. Spill runs are run-scoped
    derived state (rebuilt from checkpoint segments on resume)."""

    _DELTA_MAX = 8192
    _GROW_LOAD = 0.84  # rebuild filters at 2x before kicks get expensive

    def __init__(self, capacity: int = 1 << 16, spill_dir: str | None = None,
                 max_resident_keys: int = 1 << 22, max_runs: int = 4,
                 max_filter_capacity: int | None = None):
        self._capacity = capacity
        # RAM ceiling for the approximate filters (per shard): growth stops
        # here; beyond it the cuckoo may overflow and membership falls back
        # to the exact store (still correct, just fewer pruned probes)
        self.max_filter_capacity = max_filter_capacity
        self.bloom = BloomFilter(capacity)
        self.cuckoo = CuckooFilter(capacity)
        self._sorted = np.empty(0, dtype=np.uint64)
        self._delta: set[int] = set()
        self._cuckoo_complete = True
        self._staged: list[np.ndarray] = []  # inserts since last segment flush
        self.spill_dir = spill_dir
        self.max_resident_keys = max_resident_keys
        self.max_runs = max_runs
        self._runs: list[np.memmap] = []
        self._run_seq = 0
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)

    # -- spill runs ------------------------------------------------------

    def _write_run(self, arr: np.ndarray) -> None:
        path = os.path.join(self.spill_dir, f"run-{self._run_seq:06d}.npy")
        self._run_seq += 1
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(arr.astype("<u8").tobytes())
        os.replace(tmp, path)
        self._runs.append(np.memmap(path, dtype="<u8", mode="r"))

    def _spill_if_needed(self) -> None:
        if self.spill_dir is None or len(self._sorted) <= self.max_resident_keys:
            return
        self._write_run(self._sorted)
        self._sorted = np.empty(0, dtype=np.uint64)
        if len(self._runs) > self.max_runs:
            self._compact_runs()

    def _compact_runs(self, chunk_keys: int = 1 << 20) -> None:
        """Sorted-run compaction as a STREAMING k-way merge: runs are read
        in bounded chunks through their memmaps and the merged run is
        written incrementally — peak RAM is O(max_runs x chunk), never the
        total key count (the 10^10/shard case).

        Fully VECTORIZED (no per-key Python): each round takes the next
        window from every live run, emits everything <= the smallest
        window maximum (any key beyond that bound may still appear in a
        later window of another run, so it waits), merged and deduped by
        one ``np.unique``. The bound's run consumes its whole window each
        round, so rounds are O(total/chunk); equal keys always co-occur
        in one round, so cross-run dedupe is exact. Measured ~10M keys/s
        through disk vs ~2.5M keys/s for the old per-key ``heapq.merge``
        loop before it even wrote (COVERAGE.md, "Vectorized spill
        compaction")."""
        path = os.path.join(self.spill_dir, f"run-{self._run_seq:06d}.npy")
        self._run_seq += 1
        tmp = path + ".tmp"

        old = [r.filename for r in self._runs]
        pos = [0] * len(self._runs)
        with open(tmp, "wb") as f:
            while True:
                windows = [
                    (i, np.asarray(r[pos[i] : pos[i] + chunk_keys]))
                    for i, r in enumerate(self._runs)
                    if pos[i] < len(r)
                ]
                if not windows:
                    break
                bound = min(w[-1] for _, w in windows)
                parts = []
                for i, w in windows:
                    take = int(np.searchsorted(w, bound, side="right"))
                    if take:
                        parts.append(w[:take])
                        pos[i] += take
                f.write(np.unique(np.concatenate(parts)).astype("<u8").tobytes())
        os.replace(tmp, path)
        self._runs = [np.memmap(path, dtype="<u8", mode="r")]
        for p in old:
            os.remove(p)

    def resident_keys(self) -> int:
        """Keys held in RAM (budget observability; spill runs excluded)."""
        return len(self._sorted) + len(self._delta)

    def _exact_member(self, keys: np.ndarray) -> np.ndarray:
        out = np.zeros(len(keys), dtype=bool)
        if len(self._sorted):
            idx = np.clip(np.searchsorted(self._sorted, keys), 0,
                          len(self._sorted) - 1)
            out = self._sorted[idx] == keys
        for run in self._runs:
            rem = np.flatnonzero(~out)
            if not len(rem):
                break
            idx = np.clip(np.searchsorted(run, keys[rem]), 0, len(run) - 1)
            out[rem] = np.asarray(run[idx]) == keys[rem]
        if self._delta:
            d = self._delta
            for j in np.flatnonzero(~out):
                if int(keys[j]) in d:
                    out[j] = True
        return out

    def _member(self, keys: np.ndarray) -> np.ndarray:
        """Full chain over already-unique keys."""
        out = np.zeros(len(keys), dtype=bool)
        maybe = self.bloom.contains_batch(keys)
        if not maybe.any():
            return out
        m = np.flatnonzero(maybe)
        if self._cuckoo_complete:
            ck = self.cuckoo.contains_batch(keys[m])
            m = m[ck]
            if len(m) == 0:
                return out
        out[m] = self._exact_member(keys[m])
        return out

    def _compact(self) -> None:
        # amortized: merge the delta set into the sorted array only once it
        # is a meaningful fraction of it (O(n log n) total, not O(n^2/const))
        limit = max(self._DELTA_MAX, len(self._sorted) // 4)
        if self.spill_dir is not None:
            limit = min(limit, self.max_resident_keys)
        if len(self._delta) > limit:
            arr = np.fromiter(self._delta, dtype=np.uint64, count=len(self._delta))
            self._sorted = np.sort(np.concatenate([self._sorted, arr]))
            self._delta = set()
            self._spill_if_needed()

    def _iter_all_keys(self, chunk_keys: int = 1 << 20):
        """Yield every stored key as uint64 chunks (resident + spill runs)."""
        if len(self._sorted):
            yield self._sorted
        if self._delta:
            yield np.fromiter(self._delta, dtype=np.uint64,
                              count=len(self._delta))
        for run in self._runs:
            for i in range(0, len(run), chunk_keys):
                yield np.asarray(run[i : i + chunk_keys])

    def _maybe_grow(self, incoming: int) -> None:
        """Rebuild bloom+cuckoo at >=2x when the cuckoo would cross the
        grow load factor. Amortized O(1) per key across doublings; keys are
        re-derived from the exact backing (resident arrays + spill runs)."""
        if not self._cuckoo_complete:
            return
        needed = self.cuckoo.count + incoming
        if needed <= self._GROW_LOAD * self.cuckoo.capacity_slots:
            return
        cap = self._capacity
        while needed > self._GROW_LOAD * cap:
            cap *= 2
        if self.max_filter_capacity is not None:
            cap = min(cap, self.max_filter_capacity)
            if cap <= self._capacity:
                return  # at the RAM ceiling; let the cuckoo saturate
        self._capacity = cap
        self.bloom = BloomFilter(cap)
        self.cuckoo = CuckooFilter(cap)
        ok = True
        for chunk in self._iter_all_keys():
            ok = self.cuckoo.insert_batch(chunk) and ok
            self.bloom.add_batch(chunk)
        self._cuckoo_complete = ok

    def insert_batch(self, keys: np.ndarray) -> np.ndarray:
        """Insert; returns mask of keys that were NEW (first-wins — only the
        first occurrence of a duplicate within the batch is new)."""
        keys = np.asarray(keys, dtype=np.uint64)
        uniq, first_idx = np.unique(keys, return_index=True)
        member = self._member(uniq)
        new_uniq = uniq[~member]
        new = np.zeros(len(keys), dtype=bool)
        new[first_idx[~member]] = True
        if len(new_uniq):
            self._maybe_grow(len(new_uniq))  # before delta holds new_uniq
            self._delta.update(new_uniq.tolist())
            self._staged.append(new_uniq)
            if self._cuckoo_complete:
                if not self.cuckoo.insert_batch(new_uniq):
                    self._cuckoo_complete = False
            self.bloom.add_batch(new_uniq)
            self._compact()
        return new

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        uniq, inverse = np.unique(keys, return_inverse=True)
        return self._member(uniq)[inverse]

    @property
    def exact(self) -> set[int]:
        """Exact membership as a Python set (tests/verification; small scales)."""
        out = set(int(k) for k in self._sorted) | self._delta
        for run in self._runs:
            out |= set(int(k) for k in np.asarray(run))
        return out

    def __len__(self) -> int:
        return (len(self._sorted) + len(self._delta)
                + sum(len(r) for r in self._runs))

    # -- checkpoint segments --------------------------------------------

    def flush_segment(self, path: str) -> int:
        """Write staged inserts as one sorted uint64 parquet segment."""
        staged = self._staged
        self._staged = []
        if staged:
            arr = np.sort(np.concatenate(staged))
        else:
            arr = np.empty(0, dtype=np.uint64)
        tbl = pa.table({"url_hash": pa.array(arr, type=pa.uint64())})
        tmp = path + ".tmp"
        pq.write_table(tbl, tmp)
        os.replace(tmp, path)
        return len(arr)

    def load_segment(self, path: str) -> int:
        keys = pq.read_table(path)["url_hash"].to_numpy().astype(np.uint64)
        self._maybe_grow(len(keys))
        self._sorted = np.unique(np.concatenate([self._sorted, keys]))
        self._spill_if_needed()
        if self._cuckoo_complete:
            if not self.cuckoo.insert_batch(keys):
                self._cuckoo_complete = False
        self.bloom.add_batch(keys)
        return len(keys)


@ray.remote
class SeenShardActor:
    """One shard of the URL-seen set (keys routed by ``hash % n_shards``)."""

    def __init__(self, shard_id: int, capacity: int = 1 << 16,
                 spill_dir: str | None = None,
                 max_resident_keys: int = 1 << 22):
        self.reset(shard_id, capacity, spill_dir, max_resident_keys)

    def reset(self, shard_id: int, capacity: int = 1 << 16,
              spill_dir: str | None = None,
              max_resident_keys: int = 1 << 22) -> None:
        """The state a new actor built with these arguments starts in (a
        leased shard is reset, never patched: state/placement.py); the old
        set's spill-run memmaps go with it."""
        self.shard_id = shard_id
        self.seen = SeenSet(capacity, spill_dir=spill_dir,
                            max_resident_keys=max_resident_keys)

    def insert_batch(self, keys: np.ndarray) -> np.ndarray:
        return self.seen.insert_batch(keys)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        return self.seen.contains_batch(keys)

    def size(self) -> int:
        return len(self.seen)

    def flush_segment(self, path: str) -> int:
        return self.seen.flush_segment(path)

    def load_segment(self, path: str) -> int:
        return self.seen.load_segment(path)

    def dump(self) -> set[int]:
        """Verification helper (small scales only)."""
        return set(self.seen.exact)


class ShardedSeenSet:
    """Driver-side facade: batches keys per shard, one ray call per shard."""

    def __init__(self, n_shards: int, capacity_per_shard: int = 1 << 16,
                 spill_dir: str | None = None,
                 max_resident_keys: int = 1 << 22,
                 shards: list | None = None):
        """``shards``: ``n_shards`` existing actors to reuse instead of
        starting new ones (state/placement.py leases them). Each is reset
        to the state a new actor built from these arguments starts in; the
        resets are submitted, not awaited — ``self.resets`` holds their refs
        (empty for new actors)."""
        self.n_shards = n_shards
        args = [
            (i, capacity_per_shard,
             os.path.join(spill_dir, f"shard-{i:04d}") if spill_dir else None,
             max_resident_keys)
            for i in range(n_shards)
        ]
        if shards is None:
            from wikicrawl.state.placement import driver_affinity_options

            opts = driver_affinity_options()
            self.shards = [SeenShardActor.options(**opts).remote(*a)
                           for a in args]
            self.resets = []
        else:
            self.shards = list(shards)
            self.resets = [s.reset.remote(*a) for s, a in zip(self.shards, args)]

    def _route(self, keys: np.ndarray) -> np.ndarray:
        return (keys % np.uint64(self.n_shards)).astype(np.int64)

    def insert_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        owner = self._route(keys)
        refs, order = [], []
        for s in range(self.n_shards):
            idx = np.flatnonzero(owner == s)
            if len(idx):
                refs.append(self.shards[s].insert_batch.remote(keys[idx]))
                order.append(idx)
        out = np.zeros(len(keys), dtype=bool)
        for idx, res in zip(order, ray.get(refs)):
            out[idx] = res
        return out

    def size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def flush_segments_async(self, dir_path: str, wave: int) -> list:
        """Submit the per-shard segment flush WITHOUT waiting. Actor tasks
        execute in submission order, so the snapshot each shard writes
        contains exactly the inserts up to this wave even though later
        waves keep inserting while the write happens; the caller passes
        the refs to whatever must wait on durability (the manifest
        commit)."""
        os.makedirs(dir_path, exist_ok=True)
        return [
            s.flush_segment.remote(
                os.path.join(dir_path, f"seen-w{wave:06d}-s{i:04d}.parquet")
            )
            for i, s in enumerate(self.shards)
        ]

    def flush_segments(self, dir_path: str, wave: int) -> None:
        ray.get(self.flush_segments_async(dir_path, wave))

    def load_segments(self, dir_path: str, max_wave: int | None = None) -> int:
        """Load segments, optionally only those from waves <= max_wave (an
        orphan segment from a wave that never committed its manifest must NOT
        mark its URLs as seen, or the resumed wave would skip them)."""
        if not os.path.isdir(dir_path):
            return 0
        total = 0
        refs = []
        for name in sorted(os.listdir(dir_path)):
            if not name.endswith(".parquet"):
                continue
            wave = int(name.split("-w")[1].split("-")[0])
            if max_wave is not None and wave > max_wave:
                continue
            shard = int(name.rsplit("-s", 1)[1].split(".")[0])
            refs.append(self.shards[shard].load_segment.remote(os.path.join(dir_path, name)))
        for n in ray.get(refs):
            total += n
        return total

    def all_hashes(self) -> set[int]:
        """Test/verification helper: union of exact sets (small scales only)."""
        out: set[int] = set()
        for s in ray.get([s.dump.remote() for s in self.shards]):
            out |= s
        return out
