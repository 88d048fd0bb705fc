"""URL-seen set: immutable sorted runs, each with its own bloom and cuckoo
filter.

north_rule requires (a) a sharded cuckoo-filter URL-seen set with bloom
pre-filter keyed by canonicalized+hashed URLs, and (b) EXACT final seen-set
parity with the reference. Approximate filters alone cannot give (b) — a
cuckoo false positive would silently drop a URL. Design (SURVEY §4.2.3):

- the exact store is a list of immutable runs: sorted unique uint64 hashes.
  A key enters exactly one run, when it is first seen, so runs are disjoint;
- each run carries a bloom filter and a cuckoo filter, built once when the
  run is made and sized to it. No filter grows or is rebuilt, so filter RAM
  and false-positive rates stay at their design values at any key count;
- a probe walks the runs newest to oldest. In each run: bloom negative ->
  not here; cuckoo negative -> not here; otherwise ``searchsorted`` decides.

So the fast path is O(1) probes per run and the *result* is exact. A batch's
new keys become a new run, and neighbouring runs merge while the older holds
fewer than twice the newer's keys, so N keys live in O(log N) runs. Beyond a
resident budget runs spill to disk with their filters (memory-mapped).
Shards are actors, each owning the keys whose high mixed bits route to it
(``ShardedSeenSet._route``); membership/insert calls are batched per shard
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

    K = 4  # bits per key: four 6-bit slices of 24 hash bits
    # the in-word mask of each 12-bit half of those 24 bits (two slices):
    # a key's mask is two table lookups, not K shift-and-or passes
    _PAIR = (np.uint64(1) << (np.arange(4096, dtype=np.uint64) & np.uint64(63))
             | np.uint64(1) << (np.arange(4096, dtype=np.uint64) >> np.uint64(6)))

    def __init__(self, capacity: int, fp_rate: float = 0.01):
        m = max(4096, int(-capacity * np.log(fp_rate) / (np.log(2) ** 2)))
        self.m = int(2 ** np.ceil(np.log2(m)))  # bits; power of two
        self.n_words = self.m // 64
        self.bits = np.zeros(self.n_words, dtype=np.uint64)
        self._wmask = np.uint64(self.n_words - 1)

    @classmethod
    def key_mask(cls, keys: np.ndarray) -> np.ndarray:
        """The k in-word bits of each key, from independent 6-bit hash
        slices. Only the word depends on the filter's size, so a probe of
        several filters computes the masks once."""
        h = (keys * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(16)
        half = np.uint64(0xFFF)
        return (cls._PAIR[(h & half).astype(np.intp)]
                | cls._PAIR[((h >> np.uint64(12)) & half).astype(np.intp)])

    def _word(self, keys: np.ndarray) -> np.ndarray:
        return (keys & self._wmask).astype(np.int64)

    def add_batch(self, keys: np.ndarray) -> None:
        if not len(keys):
            return
        keys = np.asarray(keys, dtype=np.uint64)
        np.bitwise_or.at(self.bits, self._word(keys), self.key_mask(keys))

    def contains_batch(self, keys: np.ndarray,
                       mask: np.ndarray | None = None) -> np.ndarray:
        """``mask``: the keys' ``key_mask``, when the caller has it."""
        if not len(keys):
            return np.zeros(0, dtype=bool)
        keys = np.asarray(keys, dtype=np.uint64)
        if mask is None:
            mask = self.key_mask(keys)
        return (self.bits[self._word(keys)] & mask) == mask


class CuckooFilter:
    """Standard (2, 4) cuckoo filter with 16-bit fingerprints over uint64 keys.

    Sized so that ``capacity`` keys fill at most ``MAX_LOAD`` of the slots.
    Inserts are O(1) via a per-bucket occupancy count (no slot scan); the
    random-walk eviction only runs when both candidate buckets are full,
    which stays rare at that load."""

    MAX_KICKS = 500
    MAX_LOAD = 0.84

    def __init__(self, capacity: int):
        need = max(1.0, capacity / (4 * self.MAX_LOAD))
        n_buckets = max(8, int(2 ** np.ceil(np.log2(need))))
        self.n_buckets = n_buckets
        self.table = np.zeros((n_buckets, 4), dtype=np.uint16)  # 0 = empty
        self.occ = np.zeros(n_buckets, dtype=np.uint8)  # filled slots per bucket
        self.count = 0  # fingerprints stored
        self._mask = np.uint64(n_buckets - 1)
        self._lcg = 0xC0FFEE  # cheap deterministic RNG for eviction walks

    def _i2(self, i1: int, fp: int) -> int:
        # partial-key cuckoo: alt index = i1 xor hash(fp)
        h = (int(fp) * 0x5BD1E995) & 0xFFFFFFFFFFFFFFFF
        return int((i1 ^ h) & int(self._mask))

    def _rand(self) -> int:
        self._lcg = (self._lcg * 6364136223846793005
                     + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        return self._lcg >> 33

    def _kick(self, fp: int, i1: int, i2: int) -> bool:
        """Random-walk eviction; both buckets known full on entry. A failed
        walk drops the fingerprint it holds last, which may be another
        key's: the filter then has a false negative."""
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
        return False

    def _bulk_place(self, fp: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Vectorized conflict-safe placement of fp[j] into bucket idx[j]
        where slots remain: sort by bucket, rank within bucket, place ranks
        that fit below the 4-slot ceiling in one fancy-indexed write.
        Returns the boolean mask of placed entries."""
        order = np.argsort(idx)  # any order within a bucket will do
        si = idx[order]
        sf = fp[order]
        start = np.flatnonzero(np.concatenate(([True], si[1:] != si[:-1])))
        counts = np.diff(np.append(start, len(si)))
        uniq = si[start]
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
        fall to the per-key kick loop (rare below ``MAX_LOAD``). False when
        a kick failed: the filter may then miss a stored key and must not
        be used."""
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
        for f, a, b in zip(fp2[rem2].tolist(), i1r[rem2].tolist(),
                           i2r[rem2].tolist()):
            if not self._kick(f, a, b):
                return False
        return True

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


MAX_SPILL_RUNS = 4  # spilled runs past this count are compacted into one
_SLICE = 1 << 16  # keys per numpy pass: a pass's temporaries stay in cache,
# which makes filter builds and probes 2-6x faster on large runs
MERGE_RATIO = 2  # neighbouring resident runs merge while the older holds
# fewer than this many times the newer's keys: N keys live in O(log N) runs


def _cuckoo(chunks: list, scales: tuple = (1, 2)) -> CuckooFilter | None:
    """A cuckoo filter holding every key of ``chunks``, sized to them and
    built again at the next scale when some key cannot be placed. None when
    every scale fails (more keys share one fingerprint and bucket pair than
    its 8 slots hold): a failed insert drops a fingerprint, and a filter
    that lost one would report a seen key unseen."""
    n = sum(len(c) for c in chunks)
    for scale in scales:
        ck = CuckooFilter(scale * n)
        if all(ck.insert_batch(c) for c in chunks):
            return ck
    return None


def _slices(keys: np.ndarray) -> list:
    return [keys[i : i + _SLICE] for i in range(0, len(keys), _SLICE)]


def _merge(runs: list) -> np.ndarray:
    """Keys of disjoint sorted runs as one sorted array (numpy's stable
    sort of uint64 is a timsort, which merges the sorted stretches of the
    concatenation instead of sorting it afresh)."""
    return np.sort(np.concatenate(runs), kind="stable")


def _save(path: str, arr: np.ndarray) -> np.memmap:
    """Write ``arr`` to ``path`` (tmp + rename), mapped back read-only."""
    tmp = path + ".tmp"
    arr.tofile(tmp)
    os.replace(tmp, path)
    return np.memmap(path, dtype=arr.dtype, mode="r", shape=arr.shape)


class _Run:
    """One immutable run: sorted unique keys, the bloom and cuckoo filters
    built for them (``cuckoo`` is None when no cuckoo could hold them), and
    its files once spilled (empty while resident)."""

    def __init__(self, keys: np.ndarray, bloom: BloomFilter,
                 cuckoo: CuckooFilter | None, files: tuple = ()):
        self.keys, self.bloom, self.cuckoo, self.files = (
            keys, bloom, cuckoo, files)

    @classmethod
    def build(cls, keys: np.ndarray) -> "_Run":
        parts = _slices(keys)
        bloom = BloomFilter(len(keys))
        for part in parts:
            bloom.add_batch(part)
        return cls(keys, bloom, _cuckoo(parts))

    def __len__(self) -> int:
        return len(self.keys)

    def member(self, keys: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Exact membership: bloom, then cuckoo, then ``searchsorted``,
        each on the keys the one before let through. ``mask`` is the
        keys' ``BloomFilter.key_mask``."""
        out = np.zeros(len(keys), dtype=bool)
        m = np.flatnonzero(self.bloom.contains_batch(keys, mask))
        if self.cuckoo is not None and len(m):
            m = m[self.cuckoo.contains_batch(keys[m])]
        if len(m):
            k = keys[m]
            idx = np.minimum(np.searchsorted(self.keys, k), len(self.keys) - 1)
            out[m] = self.keys[idx] == k
        return out


class SeenSet:
    """Exact seen-set over immutable sorted runs with per-run filters
    (module docstring).

    Resident runs are kept oldest first with each holding at least
    ``MERGE_RATIO`` times the keys of the next newer one: a new run
    absorbs older runs below that until the rule holds, so N keys live in
    at most ~log2(N/batch)+1 runs and each key is merged O(log N) times.

    10^10-URL path: with ``spill_dir`` set, once the resident runs hold
    more than ``max_resident_keys`` keys they are merged into one run that
    is written to disk with its filters (keys, bloom bits, cuckoo table,
    each tmp + rename) and memory-mapped back, so resident RAM stays
    bounded at any key count (a compaction holds the merged run's filters
    in RAM while it builds them, ~4-7 bytes per key). More than ``MAX_SPILL_RUNS`` spilled runs
    are compacted into one, so probe cost stays O(log N) over a handful of
    runs. Spill runs are run-scoped derived state (rebuilt from checkpoint
    segments on resume)."""

    def __init__(self, spill_dir: str | None = None,
                 max_resident_keys: int = 1 << 22):
        self.spill_dir = spill_dir
        self.max_resident_keys = max_resident_keys
        self._runs: list[_Run] = []  # resident, oldest first
        self._spilled: list[_Run] = []  # on disk, oldest first, all older
        self._staged: list[np.ndarray] = []  # inserts since last segment flush
        self._run_seq = 0
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)

    # -- runs ------------------------------------------------------------

    def _member(self, keys: np.ndarray) -> np.ndarray:
        """Membership of unique keys: newest run first, each run probing
        only the keys no newer run holds. The keys' bloom masks are the
        same in every run, so each slice computes them once."""
        out = np.zeros(len(keys), dtype=bool)
        runs = self._spilled + self._runs
        for lo in range(0, len(keys), _SLICE):
            sub = keys[lo : lo + _SLICE]
            mask = BloomFilter.key_mask(sub)
            rem = np.arange(lo, lo + len(sub))
            for run in reversed(runs):
                if not len(rem):
                    break
                hit = run.member(sub, mask)
                if hit.any():
                    out[rem[hit]] = True
                    miss = ~hit
                    rem, sub, mask = rem[miss], sub[miss], mask[miss]
        return out

    def _push(self, keys: np.ndarray) -> None:
        """Add sorted unique keys that no run holds as the newest run."""
        if not len(keys):
            return
        runs = self._runs
        while runs and len(runs[-1]) < MERGE_RATIO * len(keys):
            keys = _merge([runs.pop().keys, keys])
        runs.append(_Run.build(keys))
        if (self.spill_dir is not None
                and self.resident_keys() > self.max_resident_keys):
            self._spill()

    def _next_base(self) -> str:
        self._run_seq += 1
        return os.path.join(self.spill_dir, f"run-{self._run_seq:06d}")

    def _disk_run(self, base: str, keys: np.memmap, bloom: BloomFilter,
                  cuckoo: CuckooFilter | None) -> _Run:
        """The spilled run whose keys are at ``base.keys``: its filters
        written next to them and mapped back too."""
        files = [base + ".keys", base + ".bloom"]
        bloom.bits = _save(files[1], bloom.bits)
        if cuckoo is not None:
            files.append(base + ".cuckoo")
            cuckoo.table = _save(files[2], cuckoo.table)
            cuckoo.occ = None  # a run's filter takes no more inserts
        return _Run(keys, bloom, cuckoo, tuple(files))

    def _spill(self) -> None:
        runs = self._runs
        run = runs[0] if len(runs) == 1 else _Run.build(
            _merge([r.keys for r in runs]))
        base = self._next_base()
        self._spilled.append(self._disk_run(
            base, _save(base + ".keys", run.keys), run.bloom, run.cuckoo))
        self._runs = []
        if len(self._spilled) > MAX_SPILL_RUNS:
            self._compact_runs()

    def _compact_runs(self, chunk_keys: int = 1 << 20) -> None:
        """Sorted-run compaction as a STREAMING k-way merge: runs are read
        in bounded chunks through their memmaps and the merged run is
        written incrementally — the keys in RAM are O(runs x chunk), never
        the total key count (the 10^10/shard case). The merged run's bloom
        and cuckoo filters are built from the chunks as they are written.

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
        runs = self._spilled
        n = sum(len(r) for r in runs)  # exact: runs are disjoint
        bloom, cuckoo, placed = BloomFilter(n), CuckooFilter(n), True
        base = self._next_base()
        pos = [0] * len(runs)
        with open(base + ".keys.tmp", "wb") as f:
            while True:
                windows = [
                    (i, np.asarray(r.keys[pos[i] : pos[i] + chunk_keys]))
                    for i, r in enumerate(runs)
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
                chunk = np.unique(np.concatenate(parts))
                chunk.tofile(f)
                for part in _slices(chunk):
                    bloom.add_batch(part)
                    placed = placed and cuckoo.insert_batch(part)
        os.replace(base + ".keys.tmp", base + ".keys")
        keys = np.memmap(base + ".keys", dtype=np.uint64, mode="r")
        if not placed:
            cuckoo = _cuckoo(_slices(keys), scales=(2,))
        self._spilled = [self._disk_run(base, keys, bloom, cuckoo)]
        for r in runs:
            for p in r.files:
                os.remove(p)

    def resident_keys(self) -> int:
        """Keys held in RAM (budget observability; spill runs excluded)."""
        return sum(len(r) for r in self._runs)

    def insert_batch(self, keys: np.ndarray) -> np.ndarray:
        """Insert; returns mask of keys that were NEW (first-wins — only the
        first occurrence of a duplicate within the batch is new)."""
        keys = np.asarray(keys, dtype=np.uint64)
        uniq, first_idx = np.unique(keys, return_index=True)
        fresh = ~self._member(uniq)
        new = np.zeros(len(keys), dtype=bool)
        new[first_idx[fresh]] = True
        if fresh.any():
            self._staged.append(uniq[fresh])
            self._push(self._staged[-1])
        return new

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        uniq, inverse = np.unique(keys, return_inverse=True)
        return self._member(uniq)[inverse]

    def __len__(self) -> int:
        return sum(len(r) for r in self._spilled + self._runs)

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
        uniq = np.unique(keys)
        self._push(uniq[~self._member(uniq)])
        return len(keys)


@ray.remote
class SeenShardActor:
    """One shard of the URL-seen set (keys routed by ``ShardedSeenSet._route``)."""

    def __init__(self, shard_id: int, spill_dir: str | None = None,
                 max_resident_keys: int = 1 << 22):
        self.reset(shard_id, spill_dir, max_resident_keys)

    def reset(self, shard_id: int, spill_dir: str | None = None,
              max_resident_keys: int = 1 << 22) -> None:
        """The state a new actor built with these arguments starts in (a
        leased shard is reset, never patched: state/placement.py); the old
        set's spill-run memmaps go with it."""
        self.shard_id = shard_id
        self.seen = SeenSet(spill_dir=spill_dir,
                            max_resident_keys=max_resident_keys)

    def insert_batch(self, keys: np.ndarray) -> np.ndarray:
        return self.seen.insert_batch(keys)

    def size(self) -> int:
        return len(self.seen)

    def flush_segment(self, path: str) -> int:
        return self.seen.flush_segment(path)

    def load_segment(self, path: str) -> int:
        return self.seen.load_segment(path)


class ShardedSeenSet:
    """Driver-side facade: batches keys per shard, one ray call per shard."""

    def __init__(self, n_shards: int, spill_dir: str | None = None,
                 max_resident_keys: int = 1 << 22,
                 shards: list | None = None):
        """``shards``: ``n_shards`` existing actors to reuse instead of
        starting new ones (state/placement.py leases them). Each is reset
        to the state a new actor built from these arguments starts in; the
        resets are submitted, not awaited — ``self.resets`` holds their refs
        (empty for new actors)."""
        self.n_shards = n_shards
        args = [
            (i, os.path.join(spill_dir, f"shard-{i:04d}") if spill_dir else None,
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
        """Shard of each key, from bits 40+ of the key's multiplicative
        mix. Not ``key % n_shards``: the bloom word and the primary cuckoo
        bucket index on the key's low bits, so low-bit routing would confine
        each shard's keys to 1/n_shards of them. Bits 40+ also stay clear of
        the mix bits 16-39 that the bloom's in-word mask reads."""
        mixed = (keys * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
        return (mixed % np.uint64(self.n_shards)).astype(np.int64)

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
