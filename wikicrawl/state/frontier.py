"""URL frontier: hash(host)-partitioned shard actors, each an Arrow run
store with per-host politeness token buckets and a robots.txt cache.

Re-expresses the reference's crawl ordering (family precedence + per-family
``ORDER BY id ASC`` + en-then-fr submission drain, ``wikipedia_crawler.py``)
as a priority key ``(family_rank, seed_order, lang_rank)`` over per-host
sorted runs, and its global 20-rps limiter (``wikipedia_http.py:96-122``) as
PER-HOST token buckets enforced at the shard (partition) level — the
north_rule politeness model. Time is virtual: one "wave" of the crawl loop
is one tick; a host yields at most ``burst`` URLs per tick and accrues
``rate`` tokens per tick up to ``burst``.

Skew handling: a host whose backlog exceeds ``hot_backlog`` can be split into
sub-queues served round-robin within the host's budget (hot-host clause of
the north_rule) — the budget stays per-host so politeness is preserved while
run merges parallelize.
"""

from __future__ import annotations

import heapq

import pyarrow as pa
import ray


class TokenBucket:
    __slots__ = ("rate", "burst", "tokens")

    def __init__(self, rate: float, burst: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst

    def tick(self) -> None:
        self.tokens = min(self.burst, self.tokens + self.rate)

    def take(self, n: int) -> int:
        grant = int(min(self.tokens, n))
        self.tokens -= grant
        return grant


class FrontierShardState:
    """Pure-python shard state (wrapped by the actor; unit-testable directly)."""

    def __init__(self, shard_id: int, rate: float, burst: float, robots_rules=None,
                 host_rates: dict | None = None):
        self.shard_id = shard_id
        self.rate = rate
        self.burst = burst
        # per-host (rate, burst) overrides — the robots Crawl-delay analog
        # (a delay of d ticks maps to rate 1/d, burst 1)
        self.host_rates: dict[str, tuple] = dict(host_rates or {})
        self.buckets: dict[str, TokenBucket] = {}
        self._tables: dict[int, "pa.Table"] = {}
        self._tbl_remaining: dict[int, int] = {}
        self._next_tid = 0
        self._runs: dict[str, list] = {}
        self._run_seq = 0
        self.robots: dict[str, tuple[str, ...]] = dict(robots_rules or {})
        self.robots_denied = 0
        self.enqueued = 0
        self.emitted = 0

    def _bucket(self, host: str, div: int = 1) -> TokenBucket:
        """The bucket of ``host``, built on first use. A hot host's
        sub-queue ``host#k`` is rated by its host; split ``div`` ways, it
        gets ``rate / div`` and ``max(1, burst / div)``."""
        b = self.buckets.get(host)
        if b is None:
            rate, burst = self.host_rates.get(host.split("#", 1)[0],
                                              (self.rate, self.burst))
            if div > 1:
                rate, burst = rate / div, max(1.0, burst / div)
            b = self.buckets[host] = TokenBucket(rate, burst)
        return b

    # Rows never become Python dicts: a pushed table is stored ONCE and a
    # per-host sorted-index RUN (one stable lexsort per push) points into
    # it; a politeness tick k-way-merges run heads with integer-tuple heap
    # ops and emits `table.take(indices)`. Emission order is the priority
    # key, then push order (lexsort is stable; runs merge by push sequence).

    def push_table_rows(self, tbl: "pa.Table") -> int:
        import urllib.parse

        import numpy as np

        hosts_np = tbl["host"].to_numpy(zero_copy_only=False)
        if self.robots:
            rule_hosts = set(self.robots) & set(hosts_np.tolist())
            if rule_hosts:
                mask = np.ones(tbl.num_rows, dtype=bool)
                paths = tbl["path"].to_pylist()
                for i, h in enumerate(hosts_np):
                    if h in rule_hosts:
                        p = urllib.parse.unquote(paths[i])
                        if any(p.startswith(pref) for pref in self.robots[h]):
                            mask[i] = False
                denied = int((~mask).sum())
                if denied:
                    self.robots_denied += denied
                    tbl = tbl.filter(pa.array(mask))
                    hosts_np = tbl["host"].to_numpy(zero_copy_only=False)
        if tbl.num_rows == 0:
            return 0
        if "__bucket_host" in tbl.column_names:
            bh = tbl["__bucket_host"].to_numpy(zero_copy_only=False)
            divs = tbl["__rate_div"].to_numpy(zero_copy_only=False)
            tbl = tbl.drop_columns(["__bucket_host", "__rate_div"])
        else:
            bh, divs = hosts_np, None
        tid = self._next_tid
        self._next_tid += 1
        self._tables[tid] = tbl
        self._tbl_remaining[tid] = tbl.num_rows
        fr = tbl["family_rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        so = tbl["seed_order"].to_numpy(zero_copy_only=False).astype(np.int64)
        lr = tbl["lang_rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        for host in np.unique(bh):
            sel = np.flatnonzero(bh == host)
            order = sel[np.lexsort((lr[sel], so[sel], fr[sel]))]
            host = str(host)
            if divs is not None and "#" in host:
                self._bucket(host, int(divs[sel[0]]))
            self._runs.setdefault(host, []).append(
                [fr, so, lr, order, 0, tid, self._run_seq]
            )
            self._run_seq += 1
        self.enqueued += tbl.num_rows
        return tbl.num_rows

    def pop_wave_indices(self) -> list[tuple[int, "np.ndarray"]]:
        """One politeness tick over the run store -> [(tid, row_indices)]
        (unordered across tables; the facade's final priority sort orders
        the merged wave — the key (family_rank, seed_order, lang_rank) is
        globally unique)."""
        import numpy as np

        taken: dict[int, list] = {}
        for host in sorted(self._runs):
            runs = self._runs[host]
            if not runs:
                continue
            backlog = sum(len(r[3]) - r[4] for r in runs)
            if backlog == 0:
                del self._runs[host]
                continue
            bucket = self._bucket(host)
            bucket.tick()
            grant = bucket.take(backlog)
            if grant <= 0:
                continue
            if grant >= backlog:
                # ample budget (throughput mode): the whole backlog drains
                # this tick — emit every run wholesale, no per-row merge
                # (the facade's final priority sort orders the wave)
                for r in runs:
                    taken.setdefault(r[5], []).extend(
                        r[3][r[4]:].tolist()
                    )
                    r[4] = len(r[3])
                del self._runs[host]
                self.emitted += grant
                continue
            heads = []
            for ri, r in enumerate(runs):
                fr, so, lr, order, cur, tid, rseq = r
                if cur < len(order):
                    j = order[cur]
                    heapq.heappush(
                        heads, (int(fr[j]), int(so[j]), int(lr[j]), rseq, ri)
                    )
            for _ in range(grant):
                _f, _s, _l, _rseq, ri = heapq.heappop(heads)
                r = runs[ri]
                j = int(r[3][r[4]])
                taken.setdefault(r[5], []).append(j)
                r[4] += 1
                if r[4] < len(r[3]):
                    k = r[3][r[4]]
                    heapq.heappush(
                        heads,
                        (int(r[0][k]), int(r[1][k]), int(r[2][k]), r[6], ri),
                    )
            self._runs[host] = [r for r in runs if r[4] < len(r[3])]
            if not self._runs[host]:
                del self._runs[host]
            self.emitted += grant
        out = []
        for tid, idxs in taken.items():
            out.append((tid, np.asarray(idxs, dtype=np.int64)))
        return out

    def pop_wave_table_state(self, schema: "pa.Schema"):
        """One tick -> one Arrow table (vectorized take per source table)."""
        parts = []
        for tid, idxs in self.pop_wave_indices():
            tbl = self._tables[tid]
            parts.append(tbl.select(schema.names).take(pa.array(idxs)))
            self._tbl_remaining[tid] -= len(idxs)
            if self._tbl_remaining[tid] == 0:
                del self._tables[tid]
                del self._tbl_remaining[tid]
        if not parts:
            return None
        return pa.concat_tables(parts).cast(schema)

    def backlog(self) -> int:
        return sum(len(r[3]) - r[4] for rs in self._runs.values() for r in rs)

    def snapshot(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "backlog": self.backlog(),
            "enqueued": self.enqueued,
            "emitted": self.emitted,
            "robots_denied": self.robots_denied,
        }


def _to_ipc(tbl: "pa.Table") -> "pa.Buffer":
    """One Arrow table as one IPC stream buffer. Tables cross the
    driver-actor boundary in this form: Ray's own table serializer imports
    its tensor extensions (ray.data, pandas, ...) in the receiving process,
    a one-off cost of about a second in every new actor."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return sink.getvalue()


def _from_ipc(buf: "pa.Buffer") -> "pa.Table":
    return pa.ipc.open_stream(buf).read_all()


@ray.remote
class FrontierShardActor:
    def __init__(self, shard_id: int, rate: float, burst: float, robots_rules=None,
                 host_rates=None):
        self.reset(shard_id, rate, burst, robots_rules, host_rates)

    def reset(self, shard_id: int, rate: float, burst: float, robots_rules=None,
              host_rates=None) -> None:
        """The state a new actor built with these arguments starts in (a
        leased shard is reset, never patched: state/placement.py)."""
        self.state = FrontierShardState(shard_id, rate, burst, robots_rules,
                                        host_rates)

    def push_table(self, buf) -> int:
        """Arrow-table push (an IPC buffer): stored once, one stable lexsort
        per host run — rows never become Python dicts (parallel across
        shards, never on the driver thread)."""
        return self.state.push_table_rows(_from_ipc(buf))

    def pop_wave_table(self, schema):
        """One politeness tick as an Arrow IPC buffer (vectorized take), or
        None when nothing is due."""
        tbl = self.state.pop_wave_table_state(schema)
        return None if tbl is None else _to_ipc(tbl)

    def backlog(self):
        return self.state.backlog()

    def snapshot(self):
        return self.state.snapshot()


class ShardedFrontier:
    """Driver facade: routes pushes by hash(host), pops waves from all shards.

    With ``n_shards == 1`` and an ample budget the emission order is exactly
    the oracle's global crawl order (deterministic parity configuration);
    with many shards, per-host order is still exact while hosts interleave.
    """

    def __init__(self, n_shards: int, rate: float, burst: float, robots_rules=None,
                 hot_hosts: dict | None = None, host_delays: dict | None = None,
                 shards: list | None = None):
        """``hot_hosts``: {host: n_split} — skew clause of the north_rule.
        ``host_delays``: {host: delay_ticks} — robots Crawl-delay analog;
        the host's bucket becomes rate 1/delay, burst 1 (one URL every
        ``delay`` ticks), overriding the global politeness rate.

        A hot host's URLs are spread over ``n_split`` shards by URL hash and
        each sub-queue receives ``rate / n_split`` of the host's politeness
        budget, so run merges parallelize while the TOTAL per-host rate
        is preserved. Tradeoff (documented): strict per-host priority order
        holds per sub-queue, not across them.

        ``shards``: ``n_shards`` existing actors to reuse instead of
        starting new ones (state/placement.py leases them). Each is reset
        to the state a new actor built from these arguments starts in; the
        resets are submitted, not awaited — ``self.resets`` holds their refs
        (empty for new actors)."""
        self.n_shards = n_shards
        self.hot_hosts = dict(hot_hosts or {})
        self._inflight: list = []  # un-awaited push refs (bounded)
        # Crawl-delay analog: {host: d} -> one fetch per d ticks
        host_rates = {
            h: (1.0 / max(1.0, float(d)), 1.0)
            for h, d in (host_delays or {}).items()
        }
        args = [(i, rate, burst, robots_rules, host_rates)
                for i in range(n_shards)]
        if shards is None:
            from wikicrawl.state.placement import driver_affinity_options

            opts = driver_affinity_options()
            self.shards = [FrontierShardActor.options(**opts).remote(*a)
                           for a in args]
            self.resets = []
        else:
            self.shards = list(shards)
            self.resets = [s.reset.remote(*a) for s, a in zip(self.shards, args)]
        # sub-queue budgets: a split host's bucket rate is divided; shards
        # learn the division lazily via the per-row host key suffixing below

    def _owner(self, host: str, url_hash: int = 0) -> tuple[int, str]:
        import hashlib

        n_split = self.hot_hosts.get(host, 1)
        if n_split > 1:
            sub = url_hash % n_split
            host_key = f"{host}#{sub}"  # distinct bucket per sub-queue
        else:
            host_key = host
        shard = (
            int.from_bytes(
                hashlib.blake2b(host_key.encode(), digest_size=4).digest(), "little"
            )
            % self.n_shards
        )
        return shard, host_key

    def push_table(self, tbl) -> int:
        """Arrow push path: the driver only routes column slices by host —
        storing and sorting them happens inside the shard actors.

        Routing is vectorized over the (few) UNIQUE hosts; hot-host
        sub-queues additionally split by url_hash (vectorized mask)."""
        import numpy as np
        import pyarrow.compute as pc

        if tbl.num_rows == 0:
            return 0
        refs = []
        hosts = tbl["host"]
        for host in pc.unique(hosts).to_pylist():
            host_rows = tbl.filter(pc.equal(hosts, host))
            n_split = self.hot_hosts.get(host, 1)
            if n_split == 1:
                shard, _ = self._owner(host)
                refs.append(
                    self.shards[shard].push_table.remote(_to_ipc(host_rows)))
            else:
                sub = (host_rows["url_hash"].to_numpy(zero_copy_only=False)
                       .astype(np.uint64) % np.uint64(n_split)).astype(np.int64)
                for s in range(n_split):
                    part = host_rows.filter(pa.array(sub == s))
                    if part.num_rows == 0:
                        continue
                    shard, host_key = self._owner(host, int(s))
                    part = part.append_column(
                        "__bucket_host", pa.array([host_key] * part.num_rows)
                    ).append_column(
                        "__rate_div",
                        pa.array([n_split] * part.num_rows, type=pa.int64()),
                    )
                    refs.append(
                        self.shards[shard].push_table.remote(_to_ipc(part)))
        # non-blocking: actor tasks from this caller execute in submission
        # order, so a later pop/backlog on the same shard always observes
        # this push; the driver never waits on admission fan-out
        self._inflight.extend(refs)
        if len(self._inflight) > 64:
            ray.get(self._inflight[: len(self._inflight) - 64])
            del self._inflight[: len(self._inflight) - 64]
        return len(refs)

    def pop_wave_table(self, schema: "pa.Schema"):
        """One tick as ONE Arrow table in global priority order (vectorized
        merge sort of the shard tables; no driver row loop)."""
        import pyarrow.compute as pc

        parts = [
            _from_ipc(p) for p in ray.get(
                [s.pop_wave_table.remote(schema) for s in self.shards]
            )
            if p is not None
        ]
        if not parts:
            return None
        tbl = pa.concat_tables(parts)
        idx = pc.sort_indices(tbl, sort_keys=[("family_rank", "ascending"),
                                              ("seed_order", "ascending"),
                                              ("lang_rank", "ascending")])
        return tbl.take(idx)

    def backlog(self) -> int:
        return sum(ray.get([s.backlog.remote() for s in self.shards]))

    def snapshots(self) -> list[dict]:
        return ray.get([s.snapshot.remote() for s in self.shards])
