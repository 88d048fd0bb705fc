"""The crawl pipeline: seeds -> frontier -> fetch/extract -> Lance-style sinks.

Ray-Data-first (SURVEY §3.4), LSM-shaped writes:

    seeds.parquet ─▶ validity filter ─▶ first-wins precedence dedup
    (ownership aggregate + broadcast semi-join) ─▶ ONE streaming resolver
    job for the whole run (driver consumes ordered resolved blocks while
    Ray resolves ahead — resolve overlaps everything downstream)
    ─▶ per wave (driver does only admission + seq assignment):
        seen-set admission (sharded bloom/cuckoo/exact actors, first-wins;
        every admission journaled to the admission WAL first)
        ─▶ frontier push/pop as ARROW TABLES, one IPC buffer per shard
           call (hash(host) shards: per-host sorted runs, per-host token
           buckets; rows never become Python dicts)
        ─▶ background wave job: crawl-log segment ─▶ fetch tasks (one
           HTML parse: sections+captions+links) ─▶ payload DELTA, one
           part per task and nothing else ─▶ discovered links admitted to
           the frontier at rank 99 (``discover_links``)
        ─▶ checkpoint manifest commits FIFO after the wave's job
    ─▶ finalize, for fresh and resumed runs alike: one stager task per
       fetch slot derives the five output tables from a contiguous share
       of the committed deltas, a bounded batch at a time, and yields
       each batch's (table, partition) blocks into the object store; then
       one merge task per (table, partition) takes that partition's
       blocks as its arguments — a map→reduce exchange with no files.
       Image BYTES attach at this single write (broadcast ref below the
       size limit; above it, co-partitioned straight from images.parquet
       to the output partitions by pipelines/bytes_shuffle.py).

State plane lifetime: the seen-set and frontier shard actors live for the
Ray session. Each crawl leases the idle pair, reset in place to this
crawl's arguments (a new pair only when none matches), and hands it back
emptied after its last call, or kills it if the crawl failed
(state/placement.py).

Code layout: ``crawl()`` leases the state plane and ``_run_crawl`` wires
the parts, each taking its state as arguments, inside one try/finally that
joins every writer and commit:

- ``_restore``: resume from the last manifest;
- ``_broadcast_corpus``: the corpus tables as Ray objects, read by tasks;
- ``_seed_waves``: the owned, resolved seed stream cut into waves;
- ``_WaveController``: the driver — seed admission, frontier emission,
  FIFO manifest commits;
- ``_run_job``, the job runner: one emitted batch in a writer thread —
  crawl-log segment, fused fetch tasks, link admission;
- ``_finalize``: stagers, bytes shuffle, merges.

Counters and spans of every part go to one ``_Ledger``.

Scale notes: per-wave cost is O(wave), staging + merges are O(total) once; the
entity stream never materializes as a driver list; bytes move from their
source to disk exactly once; no all-to-all exchange anywhere in the write
path. Resume = last committed manifest + seen segments + admission-WAL
replay (journal minus crawl log) — lossless after kill -9, no duplicate
fetches. ``strict_order=True`` reproduces the reference's chunk-serial
schedule exactly (parity config; with ``discover_links`` it waits each
wave job so BFS admission stays deterministic); ``strict_order=False``
overlaps waves (throughput config) while per-host priority order is still
enforced by the frontier's sorted runs.
"""

from __future__ import annotations

import copy
import glob
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from wikicrawl import schema as S
from wikicrawl.checkpoint import CheckpointLog
from wikicrawl.families import LANGS
from wikicrawl.pipelines.bytes_shuffle import (
    empty_images_table,
    read_staging_file,
    row_group_ranges,
    shuffle_image_bytes_to_parts,
)
from wikicrawl.stages.crawl_stages import (
    RESOLVED_SCHEMA,
    AttachBytes,
    _attach_from,
    payload_to_entity_images,
    payload_to_image_refs,
    payload_to_movie_format,
    payload_to_pages,
    payload_to_sections,
)
from wikicrawl.state.frontier import ShardedFrontier
from wikicrawl.state.placement import (
    driver_affinity_options,
    lease_state_plane,
    release_state_plane,
)
from wikicrawl.state.seen import ShardedSeenSet
from wikicrawl.state.table import KeyedTable, key_partition


@dataclass
class CrawlConfig:
    corpus_dir: str
    out_dir: str
    n_frontier_shards: int = 2
    n_seen_shards: int = 2
    n_table_partitions: int = 8
    entity_wave: int = 1024  # entities per wave
    host_rate: float = 1e9  # politeness tokens per wave per host
    host_burst: float = 1e9
    fetch_concurrency: int = 4
    fetch_batch: int = 64
    resolve_concurrency: int = 2
    strict_order: bool = True  # parity schedule (reference chunk-serial)
    write_workers: int = 2  # concurrent background wave jobs (fetch+delta)
    discover_links: bool = False  # dynamic frontier: in-body /wiki/ links
    # feed the frontier at rank 99 (BFS tier) after canonicalize + robots +
    # seen-set first-wins admission (north_star link discovery)
    resume: bool = False
    max_waves: int = 10_000_000
    halt_after_waves: int | None = None  # crash simulation for resume tests:
    # stop after N committed waves WITHOUT draining the frontier backlog or
    # finalizing — exactly the state a killed process leaves behind
    families: tuple[str, ...] | None = None  # quick-mode scoping: crawl only
    # these content families (exclusion chains still consider ALL seeds)
    only_qids: frozenset | None = None  # entity-level scoping (incremental
    # recrawl: refresh exactly these entities; keyed upserts keep the rest)
    seen_resident_keys: int = 1 << 22  # per-shard RAM budget for the exact
    # seen store; overflow spills its sorted uint64 runs, with their bloom
    # and cuckoo filters, to disk, probed via memmap
    images_broadcast_limit_bytes: int = 1 << 30  # images table above this
    # is co-partitioned to the output partitions at finalize, read straight
    # from images.parquet (pipelines/bytes_shuffle.py), instead of one
    # ray.put broadcast — the binary corpus can never be one object
    hot_hosts: dict | None = None  # {host: n_split} skew-aware sub-queues
    # (north_rule hot-host clause; per-host budget preserved, split across
    # sub-queues; strict per-host order holds per sub-queue)
    host_delays: dict | None = None  # {host: delay_ticks} robots Crawl-delay
    # analog: the host's token bucket refills at 1/delay per tick with
    # burst 1 (one fetch every `delay` waves), overriding the global rate
    max_link_depth: int | None = None  # BFS depth budget for discovery:
    # seeds are depth 0; links inherit parent depth + 1 and are dropped
    # beyond this depth at admission (None = unbounded)
    durable_payload: bool = True  # must stay True: finalize stages the
    # output tables from the payload deltas, so the ephemeral mode that
    # skipped them is gone and False raises ValueError


@dataclass
class CrawlResult:
    out_dir: str
    tables: dict
    metrics: dict = field(default_factory=dict)


QID_PATTERN = r"^Q[0-9]+$"

# Fan-out tasks use SPREAD, not the default locality-aware packing: the
# corpus broadcast refs live on the head node, so DEFAULT scheduling packs
# every fetch/resolve task next to them and a second node sits idle
# (measured: 4+4-cpu two-node crawl ran at ~one-node-of-4 speed). SPREAD
# round-robins across nodes; the worker-global corpus cache means each
# node fetches the broadcast exactly once. No-op on a single node.
_SPREAD = {"scheduling_strategy": "SPREAD"}


@ray.remote
def _read_row_groups(path: str, groups: list) -> pa.Table:
    """One shard of a corpus broadcast (_broadcast_corpus): read a
    contiguous row-group range; the returned table lands in plasma from
    THIS worker (parallel read + parallel put — the driver never copies the
    corpus). combine_chunks so downstream per-row lookups (and the merge
    tasks' ``take`` on the images' binary column) are O(1) per element."""
    return pq.ParquetFile(path).read_row_groups(groups).combine_chunks()


def _fault_once(marker: str) -> None:
    """Fault-injection hook (tests only): the FIRST task to claim
    ``marker`` under ``$WIKICRAWL_FAULT_ONCE_DIR`` dies as a hard worker
    crash; Ray's default task retry re-executes it, and the retried run
    must be value-identical (asserted by scripts/fault_retry_smoke.py).
    A stale env var pointing at a missing dir degrades to a no-op, so it
    cannot exhaust Ray retries on every attempt (ADVICE r3)."""
    fault_dir = os.environ.get("WIKICRAWL_FAULT_ONCE_DIR")
    if fault_dir:
        try:
            os.close(os.open(os.path.join(fault_dir, marker),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except OSError:  # claimed already, or no such dir
            return
        os._exit(1)


@ray.remote
def _fetch_slice_task(slice_tbl: pa.Table, sitelinks_ref_t, pages_ref_t,
                      delta_part: str, robots, discover: bool):
    """ONE fused task per wave slice: fetch+extract against the
    worker-global corpus cache, link-candidate derivation, the delta part
    write, and the wave counters returned to the driver. That part is the
    task's one file (fixed name, atomic rename, so a retry rewrites it
    identically): the five output tables are derived from the committed
    deltas at finalize (_stage_deltas_task), a few large batches per
    crawl, so a tick pays no per-(table, partition) split.
    The bodies are the same batch functions the map_batches form uses —
    fusing them into a raw task removed the per-wave streaming-executor
    setup (serial from_arrow puts + executor overhead), a measured
    per-wave fixed cost that did not scale (round 3). Counter totals
    replace the round-2 delta read-back."""
    import collections
    import time as _t

    from wikicrawl.stages.crawl_stages import (
        FetchExtract,
        _cached_wiki,
        make_link_candidates_fn,
    )

    _fault_once("died")  # tests only: before any side effect
    _cpu0, _w0 = _t.thread_time(), _t.time()
    wiki = _cached_wiki(sitelinks_ref_t[0], pages_ref_t[0])
    payload = FetchExtract.run(wiki, slice_tbl)
    if discover:
        payload = make_link_candidates_fn(robots)(payload)
    ok = payload.filter(pc.and_(payload["success"], payload["has_content"]))
    cnt = collections.Counter(
        zip(ok["family"].to_pylist(), ok["lang"].to_pylist())
    )
    pq.write_table(payload, delta_part + ".tmp")
    os.replace(delta_part + ".tmp", delta_part)
    return (
        payload.num_rows,
        int(pc.sum(payload["requests"]).as_py() or 0),
        [(f"{f}/{l}", c) for (f, l), c in cnt.items()],
        (_t.thread_time() - _cpu0, _t.time() - _w0),
    )


@ray.remote
def _resolve_slice(slice_tbl: pa.Table, sitelinks_ref_t, robots):
    """One resolver fan-out task (worker-global corpus cache, same as the
    map_batches form). Raw task on purpose: the driver consumes resolved
    slices strictly IN ORDER while Ray executes them in parallel — ordered
    streaming consumption without flipping the GLOBAL preserve_order flag,
    which round 2 set for this one stage and thereby forced head-of-line
    ordered execution on every per-wave fetch job too."""
    from wikicrawl.stages.crawl_stages import make_resolver_fn

    return make_resolver_fn(sitelinks_ref_t[0], robots)(slice_tbl)


def _resolved_stream(slices, sitelinks_ref, robots, window: int = 512):
    """Yield resolved slice tables in submission order with a bounded
    in-flight window (backpressure: at most ``window`` resolved slices live
    in the object store ahead of the consumer)."""
    refs = []
    n = len(slices)
    resolve = _resolve_slice.options(**_SPREAD)
    for i in range(min(window, n)):
        refs.append(resolve.remote(slices[i], (sitelinks_ref,), robots))
    for i in range(n):
        tbl = ray.get(refs[i])
        j = i + window
        if j < n:
            refs.append(resolve.remote(slices[j], (sitelinks_ref,), robots))
        yield tbl


# Seed-row count up to which the ownership aggregate runs driver-side as
# one vectorized Arrow group_by + ``pc.is_in`` (owned_seed_batches); above
# it everything is a distributed aggregate + hash-bucketed semi-join
# (owned_seed_stream). Tests patch it to 0 to force the at-scale path.
OWNER_SMALL_LIMIT = 5_000_000


def _owner_key(qids, ranks):
    """Composite (wikidata_id, family_rank) semi-join key — one vectorized
    Arrow kernel, no per-row Python. Always a combined Array (usable as an
    ``is_in`` value_set)."""
    k = pc.binary_join_element_wise(qids, pc.cast(ranks, pa.string()), "\x1f")
    return k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k


def owned_seed_stream(corpus_dir: str):
    """seeds -> validity filter -> first-wins precedence dedup -> sorted ds.

    The ownership rule IS the exclusion-chain anti-join
    (wikipedia_crawler.py:71-79): keep a seed row iff its family_rank is
    the MIN rank of its qid — instead of 19 chained NOT-IN subqueries, and
    instead of a per-qid map_groups (tiny pandas groups are death by
    overhead). The aggregate stays a distributed groupby (partial
    combiners) and the filter is a hash-bucketed semi-join: the owner side
    never materializes anywhere and both sides shuffle once on
    hash(composite key) — no driver dict.
    """
    from ray.data.aggregate import Min

    from wikicrawl.functions.joins import hash_join

    seeds_path = os.path.join(corpus_dir, "seeds.parquet")
    ds = rd.read_parquet(seeds_path)
    ds = ds.map_batches(
        lambda t: t.filter(pc.match_substring_regex(t["wikidata_id"], QID_PATTERN)),
        batch_format="pyarrow",
    )
    owner = ds.groupby("wikidata_id").aggregate(
        Min("family_rank", alias_name="family_rank_min")
    )

    def add_key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__k", _owner_key(t["wikidata_id"], t["family_rank"])
        )

    def owner_keys_only(t: pa.Table) -> pa.Table:
        return pa.table({"__k": _owner_key(t["wikidata_id"], t["family_rank_min"])})

    seed_cols = [f for f in pq.read_schema(seeds_path).names]
    joined = hash_join(
        ds.map_batches(add_key, batch_format="pyarrow"),
        owner.map_batches(owner_keys_only, batch_format="pyarrow"),
        on="__k",
    )  # right side is unique per qid -> inner join IS the semi-join
    ds = joined.map_batches(
        lambda t: t.select(seed_cols), batch_format="pyarrow"
    )
    return ds.sort(["family_rank", "seed_order"])


def owned_seed_batches(corpus_dir: str, wave_size: int):
    """Yield sorted owned-seed batches.

    Up to ``OWNER_SMALL_LIMIT`` seed rows take a driver-side vectorized
    Arrow path (filter + ownership semi-join via ``pc.is_in`` + sort_by on
    five narrow columns — cheaper than two Ray job launches); larger
    corpora stream through the distributed ``owned_seed_stream`` sort."""
    seeds_path = os.path.join(corpus_dir, "seeds.parquet")
    if pq.ParquetFile(seeds_path).metadata.num_rows <= OWNER_SMALL_LIMIT:
        t = pq.read_table(seeds_path)
        t = t.filter(pc.match_substring_regex(t["wikidata_id"], QID_PATTERN))
        owner = t.group_by("wikidata_id").aggregate([("family_rank", "min")])
        mask = pc.is_in(
            _owner_key(t["wikidata_id"], t["family_rank"]),
            value_set=_owner_key(
                owner["wikidata_id"], owner["family_rank_min"]
            ),
        )
        t = t.filter(mask).sort_by(
            [("family_rank", "ascending"), ("seed_order", "ascending")]
        )
        for i in range(0, t.num_rows, wave_size):
            yield t.slice(i, wave_size)
        return
    stream = owned_seed_stream(corpus_dir)
    yield from stream.iter_batches(batch_size=wave_size, batch_format="pyarrow")


def _split_by_partition(t: pa.Table, key: list[str],
                        nparts: int) -> list[pa.RecordBatch]:
    """Split one derived batch into its ``nparts`` target-partition blocks,
    in partition order, empty ones included. Row order inside a block is
    crawl order; across blocks the merge order comes from the ``_seq``
    column each row carries. Blocks are RecordBatches, not Tables: Ray
    pickles a RecordBatch with Arrow's own zero-copy reducer, and puts one
    in about half the time of a Table, which goes through Ray's Python
    per-column reducer."""
    batches = t.combine_chunks().to_batches()
    rb = batches[0] if batches else pa.RecordBatch.from_pylist([], t.schema)
    parts = key_partition(rb.column(key[0]).to_pylist(), nparts)
    return [rb.filter(pa.array(parts == p)) for p in range(nparts)]


@ray.remote
def _merge_partition_task(name: str, path: str, base_schema: pa.Schema,
                          key: list[str], nparts: int, prune, order_col: str,
                          p: int, clock: int, images_arg,
                          *blocks: pa.RecordBatch) -> tuple[str, dict]:
    """Merge one partition's staged blocks (top-level arguments, so Ray
    hands them over as RecordBatches) into its partition file (single writer per
    partition, SURVEY §7.4). Duplicate keys across blocks resolve by the
    rows' _seq (crawl order) inside merge_partition.

    ``images_arg``: None (not images_out), ``("ref", ObjectRef)`` (nested
    so Ray does NOT auto-deref the broadcast table into every task
    argument) or ``("parts", dir)`` (bytes co-partitioned by
    pipelines/bytes_shuffle.py) — the images binary payload is attached
    HERE, at the final write: the staged blocks carry only the (small)
    refs, so bytes move from their source to disk exactly once."""
    staged = [b for b in blocks if b.num_rows]
    if not staged:
        return name, {"inserted": 0, "updated": 0, "deleted": 0}
    # combine: Arrow `take` on a column with many chunks (one per block)
    # degrades to per-element chunk search — one compaction copy here
    # makes every downstream kernel O(1) per element
    chunk = pa.Table.from_batches(staged).combine_chunks()
    if images_arg is not None:
        if images_arg[0] == "parts":
            # finalize-phase co-partitioned bytes (bytes_shuffle.py): this
            # partition's bytes and nothing else — one read, no cache needed
            import pandas as _pd

            bdir = os.path.join(images_arg[1], f"p={p:05d}")
            bfiles = sorted(
                os.path.join(bdir, f) for f in os.listdir(bdir)
                if f.endswith(".parquet")
            ) if os.path.isdir(bdir) else []
            btbl = (
                pa.concat_tables([read_staging_file(f) for f in bfiles])
                .combine_chunks() if bfiles else empty_images_table()
            )
            bidx = _pd.Index(btbl["image_id"].to_pandas())
            chunk = _attach_from(btbl, bidx, chunk).drop_columns(
                ["bytes_found"])
        else:
            chunk = _cached_attach(images_arg)(chunk).drop_columns(
                ["bytes_found"])
    t = KeyedTable(path, base_schema, key=key, n_partitions=nparts,
                   prune_group=prune, order_col=order_col)
    return name, t.merge_partition(p, chunk, clock)


# worker-process-global AttachBytes cache (same amortization pattern as
# _cached_wiki: the image_id -> row index is built once per worker, the
# bytes table itself is the zero-copy broadcast)
_ATTACH_CACHE: dict = {}


def _cached_attach(images_arg):
    """images_arg: ("ref", ObjectRef) — the broadcast path. (The at-scale
    path arrives as ("parts", dir) and is read directly per partition in
    _merge_partition_task; see pipelines/bytes_shuffle.py.)"""
    key = ("ref", images_arg[1].hex())
    ab = _ATTACH_CACHE.get(key)
    if ab is None:
        _ATTACH_CACHE.clear()
        ab = AttachBytes(images_ref=images_arg[1])
        _ATTACH_CACHE[key] = ab
    return ab


_DERIVE = {
    "pages": payload_to_pages,
    "sections": payload_to_sections,
    # bytes are NOT staged: refs only; _merge_partition_task attaches
    # the binary column at the one final write
    "images_out": payload_to_image_refs,
    "entity_images": payload_to_entity_images,
    "movie_format": payload_to_movie_format,
}


def _stage_payload(payload: pa.Table, specs: dict):
    """Derive the output tables from one payload batch (one payload read
    total) and yield each one's partition blocks, in ``specs`` order.
    ``specs``: table name -> (key columns, n_partitions)."""
    for name, (key, nparts) in specs.items():
        yield from _split_by_partition(_DERIVE[name](payload), key, nparts)


# Payload rows a finalize stager concatenates for one _stage_payload call.
# A batch yields one block per (table, partition), and a stager holds one
# batch at a time, so its memory is bounded at any crawl size while the
# block count stays a few per partition.
STAGE_BATCH_ROWS = 4096


def _payload_batches(parts: list[str]):
    """Concatenate consecutive delta parts, whole parts only, into batches
    of up to ``STAGE_BATCH_ROWS`` rows (one part above it is its own)."""
    batch, rows = [], 0
    for part in parts:
        t = read_staging_file(part)
        if batch and rows + t.num_rows > STAGE_BATCH_ROWS:
            yield pa.concat_tables(batch)
            batch, rows = [], 0
        batch.append(t)
        rows += t.num_rows
    if batch:
        yield pa.concat_tables(batch)


@ray.remote(num_returns="streaming")
def _stage_deltas_task(parts: list[str], specs: dict):
    """Stage a contiguous, crawl-ordered share of the committed payload
    delta parts, a ``_payload_batches`` batch at a time. Each batch yields
    its blocks in fixed (table, partition) order, empty ones included, so
    a ref's position names its block; the last yield is the number of
    batches. Blocks live only as this task's outputs: a retry (or a
    lineage reconstruction) re-derives them identically from the deltas."""
    n_batches = 0
    for payload in _payload_batches(parts):
        for block in _stage_payload(payload, specs):
            yield block
            if n_batches == 0:
                _fault_once("stager_died")  # tests only: after one yield
        n_batches += 1
    yield n_batches


# run-scoped state: deltas, logs, manifests and journals belong to one run
# (the keyed tables persist and are upserted)
_RUN_DIRS = ("payload", "checkpoints", "crawl_log", "seen_segments", "retry",
             "admissions")


def _reset_dirs(paths) -> None:
    """Empty each directory, creating it if absent."""
    for d in paths:
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)


def _merge_staged(tables: dict[str, KeyedTable], blocks: dict, images_arg,
                  clock: int) -> dict:
    """One Ray merge task per (table, partition), handed that partition's
    staged blocks (``blocks[name][p]``, a list of refs in crawl order).
    No all-to-all exchange."""
    refs = []
    for name, tbl in tables.items():
        base_schema = pa.schema(
            [f for f in tbl.schema if not f.name.startswith("_")]
        )
        for p, part_blocks in enumerate(blocks[name]):
            refs.append(_merge_partition_task.remote(
                name, tbl.path, base_schema, tbl.key, tbl.n_partitions,
                tbl.prune_group, tbl.order_col, p, clock,
                images_arg if name == "images_out" else None, *part_blocks,
            ))
    counters: dict[str, dict] = {
        name: {"inserted": 0, "updated": 0, "deleted": 0} for name in tables
    }
    for name, c in ray.get(refs):
        for k in c:
            counters[name][k] += c[k]
    return counters


def open_tables(out_dir: str, n_partitions: int) -> dict[str, KeyedTable]:
    return {
        "pages": KeyedTable(
            os.path.join(out_dir, "pages"), S.PAGES,
            key=["wikidata_id", "lang"], n_partitions=n_partitions,
        ),
        "sections": KeyedTable(
            os.path.join(out_dir, "sections"), S.SECTIONS,
            key=["wikidata_id", "lang", "display_order"],
            n_partitions=n_partitions, prune_group=["wikidata_id", "lang"],
        ),
        "images_out": KeyedTable(
            os.path.join(out_dir, "images_out"), S.IMAGES_OUT,
            key=["wikidata_id", "lang", "display_order"],
            n_partitions=n_partitions, prune_group=["wikidata_id", "lang"],
        ),
        "entity_images": KeyedTable(
            os.path.join(out_dir, "entity_images"), S.ENTITY_IMAGES,
            key=["family", "entity_id"], n_partitions=n_partitions,
        ),
        "movie_format": KeyedTable(
            os.path.join(out_dir, "movie_format"), S.MOVIE_FORMAT,
            key=["entity_id"], n_partitions=n_partitions,
        ),
    }


def crawl(cfg: CrawlConfig) -> CrawlResult:
    """Run one crawl on a state plane leased for it (state/placement.py)."""
    import json

    if not cfg.durable_payload:
        raise ValueError(
            "durable_payload=False: ephemeral mode was removed — finalize "
            "stages the output tables from the payload deltas"
        )
    with open(os.path.join(cfg.corpus_dir, "meta.json")) as f:
        robots = json.load(f)["robots_disallow"]
    # seen-set spill runs are run-scoped derived state: clear them on every
    # start (a crashed run's files must not leak in)
    seen_spill = os.path.join(cfg.out_dir, "seen_spill")
    shutil.rmtree(seen_spill, ignore_errors=True)
    seen, frontier = lease_state_plane(
        cfg.n_seen_shards, cfg.n_frontier_shards,
        {"spill_dir": seen_spill, "max_resident_keys": cfg.seen_resident_keys},
        {"rate": cfg.host_rate, "burst": cfg.host_burst,
         "robots_rules": robots, "hot_hosts": cfg.hot_hosts,
         "host_delays": cfg.host_delays},
    )
    finished = False
    try:
        result = _run_crawl(cfg, robots, seen, frontier)
        finished = True
        return result
    finally:
        # _run_crawl's own exit has joined its writers, commits and
        # stagers, so no call can reach the pair after this; a pair
        # whose crawl failed is killed here, never handed back
        release_state_plane(seen, frontier, finished)


class _Ledger:
    """A crawl's counters and spans, behind one lock.

    Counters accrue per wave and fold into the committed totals strictly in
    wave order, at manifest commit: a wave's manifest reflects exactly the
    waves up to it, never a concurrent later wave's counts (ADVICE r1).
    Spans are (name, start, end) seconds from crawl start for the driver
    laps and every background job — the wall not covered by any in-flight
    fetch job is the true serial fraction, which lap sums cannot show.
    ``timings()`` sums the spans per name."""

    def __init__(self, committed: dict):
        self._lock = threading.Lock()
        self._t_zero = time.time()
        self._deltas: dict[int, dict] = {}
        self.committed = committed
        self.spans: list[tuple[str, float, float]] = []
        self.task_cpu = 0.0
        self.task_wall = 0.0

    def lap(self, name: str, t0: float) -> float:
        """Record the span from ``t0`` to now under ``name``; returns now."""
        t1 = time.time()
        span = (name, round(t0 - self._t_zero, 3), round(t1 - self._t_zero, 3))
        with self._lock:
            self.spans.append(span)
        return t1

    def add(self, wave: int, counters: dict | None = None,
            page_counters: dict | None = None) -> None:
        with self._lock:
            d = self._deltas.setdefault(wave, {"page_counters": {}})
            for k, v in (counters or {}).items():
                d[k] = d.get(k, 0) + v
            for k, v in (page_counters or {}).items():
                d["page_counters"][k] = d["page_counters"].get(k, 0) + v

    def add_task_times(self, cpu: float, wall: float) -> None:
        with self._lock:
            self.task_cpu += cpu
            self.task_wall += wall

    def commit(self, wave: int) -> dict:
        """Fold ``wave``'s counters into the committed totals (the single
        commit worker calls this in wave order); returns a deep copy for
        its manifest."""
        with self._lock:
            for k, v in self._deltas.pop(wave, {"page_counters": {}}).items():
                if k == "page_counters":
                    pcs = self.committed.setdefault("page_counters", {})
                    for pk, pv in v.items():
                        pcs[pk] = pcs.get(pk, 0) + pv
                else:
                    self.committed[k] = self.committed.get(k, 0) + v
            return copy.deepcopy(self.committed)

    def timings(self) -> dict:
        sums: dict[str, float] = {}
        for name, t0, t1 in self.spans:
            sums[name] = sums.get(name, 0.0) + (t1 - t0)
        sums.update(task_cpu=self.task_cpu, task_wall=self.task_wall)
        return {k: round(v, 2) for k, v in sums.items()}


@dataclass
class _Run:
    """What the parts of one running crawl share: its config, state plane,
    corpus broadcasts and ledger. Only ``next_link_order`` changes, under
    ``link_lock``."""

    cfg: CrawlConfig
    robots: dict
    seen: ShardedSeenSet
    frontier: ShardedFrontier
    ledger: _Ledger
    fetch_slots: int
    sitelinks: ray.ObjectRef
    pages: tuple
    link_lock: threading.Lock = field(default_factory=threading.Lock)
    next_link_order: int = 0

    def path(self, sub: str) -> str:
        return os.path.join(self.cfg.out_dir, sub)


def _drop_after(dir_path: str, limit: int) -> None:
    """Delete every entry of ``dir_path`` named ``<kind>-<n>...`` with
    ``n > limit`` (journal files and payload dirs by wave, crawl-log
    segments by first seq)."""
    for name in os.listdir(dir_path):
        try:
            n = int(name.split("-")[1].split(".")[0])
        except (IndexError, ValueError):
            continue
        if n > limit:
            path = os.path.join(dir_path, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                os.remove(path)


def _restore(cfg: CrawlConfig, m: dict, seen: ShardedSeenSet,
             frontier: ShardedFrontier) -> None:
    """Resume from manifest ``m``: reload the seen segments, drop what
    waves that never committed left behind, and replay the admission WAL.

    Every admitted row was journaled under admissions/ by the wave that
    admitted it (seed admissions synchronously on the driver; link
    admissions inside the wave's job, which the FIFO commit gate waits
    for). Frontier backlog on resume = journaled admissions of committed
    waves MINUS the durable crawl log — re-pushed directly (never
    re-admitted). An interrupted wave's emission and payload delta replay
    fresh."""
    out = cfg.out_dir
    log_dir = os.path.join(out, "crawl_log")
    adm_dir = os.path.join(out, "admissions")
    seen.load_segments(os.path.join(out, "seen_segments"), max_wave=m["wave"])
    _drop_after(adm_dir, m["wave"])
    _drop_after(log_dir, m["seq"])
    _drop_after(os.path.join(out, "payload"), m["wave"])
    adm_files = sorted(f for f in os.listdir(adm_dir) if f.endswith(".parquet"))
    if not adm_files:
        return
    # STREAMING anti-join (VERDICT r2 item 5): at 10^10 admissions neither
    # the journal nor the crawl log fits the driver. The log's url_hashes
    # stream into a bounded-RAM exact probe (the SeenSet's own spill-run
    # machinery: sorted runs with per-run filters, spilled to disk and
    # probed via memmap); admission files then stream through it one
    # wave-file at a time. Driver memory is O(resident budget), never
    # O(log + journal).
    from wikicrawl.state.seen import SeenSet

    probe_dir = os.path.join(out, "_resume_probe")
    probe = SeenSet(spill_dir=probe_dir, max_resident_keys=1 << 22)
    for name in sorted(os.listdir(log_dir)):
        if name.endswith(".parquet"):
            h = pq.read_table(os.path.join(log_dir, name), columns=["url_hash"])
            probe.insert_batch(
                h["url_hash"].to_numpy(zero_copy_only=False).astype(np.uint64))
    for name in adm_files:
        adm = pq.read_table(os.path.join(adm_dir, name))
        adm_h = adm["url_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        # seen segments can lag job-side admissions by one flush; the
        # journal is authoritative — make the seen set complete
        seen.insert_batch(adm_h)
        pend = adm.filter(pa.array(~probe.contains_batch(adm_h)))
        if pend.num_rows:
            frontier.push_table(pend)
    shutil.rmtree(probe_dir, ignore_errors=True)


def _broadcast_corpus(cfg: CrawlConfig) -> tuple:
    """Broadcast the corpus tables ONCE; every task gets them zero-copy.
    Returns ``(sitelinks_ref, pages_refs, images_arg)``.

    Sitelinks are needed at once (resolve), so the driver puts them. The
    pages HTML (~1 GiB in memory at 120k entities) is read by one Ray task
    per contiguous row-group range: each shard lands in plasma from its
    OWN worker (parallel read and put, no driver copy) while seed dedup
    and resolve run, and _cached_wiki reassembles the shards with a
    zero-copy concat. The images table (binary payload) is one read task
    below ``images_broadcast_limit_bytes``, as ``("ref", ref)`` (nested so
    Ray does not deref it into every merge task); above the limit
    ``images_arg`` is None and finalize co-partitions the bytes straight
    from images.parquet (pipelines/bytes_shuffle.py, VERDICT r1 item 4).

    The read tasks run on the driver's node, so the broadcasts live there
    as a driver ``ray.put`` would. On a lost worker node, fetch tasks
    blocked on a lost broadcast hold every CPU while its reconstruction
    waits for one (seen deadlocked in scripts/node_death_smoke.py)."""
    read = _read_row_groups.options(**driver_affinity_options())
    pages_path = os.path.join(cfg.corpus_dir, "pages_html.parquet")
    pages = tuple(read.remote(pages_path, r) for r in row_group_ranges(pages_path))
    images_path = os.path.join(cfg.corpus_dir, "images.parquet")
    images_arg = None
    if os.path.getsize(images_path) <= cfg.images_broadcast_limit_bytes:
        groups = list(range(pq.ParquetFile(images_path).metadata.num_row_groups))
        images_arg = ("ref", read.remote(images_path, groups))
    sitelinks = ray.put(
        pq.read_table(os.path.join(cfg.corpus_dir, "sitelinks.parquet")))
    return sitelinks, pages, images_arg


def _count_eq(col, value) -> int:
    return int(pc.sum(pc.cast(pc.equal(col, value), pa.int64())).as_py() or 0)


def _seed_slices(cfg: CrawlConfig, watermark: tuple) -> list[pa.Table]:
    """The owned seeds past the resume watermark, scoped to
    ``cfg.families`` / ``cfg.only_qids``, as resolve-task slices."""
    slice_rows = cfg.entity_wave if cfg.strict_order else min(1024, cfg.entity_wave)
    fam_set = set(cfg.families) if cfg.families is not None else None
    slices = []
    for sl in owned_seed_batches(cfg.corpus_dir, slice_rows):
        if watermark != (-1, -1):
            wm_rank, wm_order = watermark
            sl = sl.filter(
                pc.or_(
                    pc.greater(sl["family_rank"], wm_rank),
                    pc.and_(
                        pc.equal(sl["family_rank"], wm_rank),
                        pc.greater(sl["seed_order"], wm_order),
                    ),
                )
            )
        if fam_set is not None:
            sl = sl.filter(
                pa.array([f in fam_set for f in sl["family"].to_pylist()])
            )
        if cfg.only_qids is not None:
            sl = sl.filter(pc.is_in(
                sl["wikidata_id"],
                value_set=pa.array(sorted(cfg.only_qids), type=pa.string()),
            ))
        if sl.num_rows:
            slices.append(sl)
    return slices


def _seed_waves(cfg: CrawlConfig, slices: list, sitelinks_ref, robots):
    """Resolve the seed slices in one streaming pass and group the ordered
    resolved stream into entity-aligned ``(n_entities, table)`` waves.

    Resolution overlaps admission, fetch and writes of earlier waves: the
    driver consumes resolved slices in seed order while Ray resolves ahead.
    Ordering comes from windowed raw resolve tasks consumed in index order
    (_resolved_stream), not from the DataContext's global preserve_order,
    which would also force ordered execution on every fetch job.

    Throughput mode ramps the first waves (wave/8, doubling up to the
    configured size): the first fetch job launches after ~wave/8 entities
    resolve instead of a full wave — the timeline showed the first-wave
    resolve wait as the largest serial ramp-in term (the cluster is idle
    until the first job's fan-out). Strict mode keeps fixed waves: the
    parity oracle's chunk-serial schedule depends on the wave boundaries."""
    buf, ents = [], 0
    target = cfg.entity_wave if cfg.strict_order else max(cfg.entity_wave // 8, 256)
    for tbl in _resolved_stream(slices, sitelinks_ref, robots):
        if tbl.num_rows == 0:
            continue
        buf.append(tbl)
        ents += _count_eq(tbl["lang_rank"], 0)
        if ents >= target:
            yield ents, pa.concat_tables(buf)
            buf, ents = [], 0
            target = min(target * 2, cfg.entity_wave)
    if buf:
        yield ents, pa.concat_tables(buf)


# ---- job runner: one emitted batch, in a writer thread ---------------------

# the columns (and types) of an emitted batch the fetch tasks read
_FETCH_IN = pa.schema([
    ("family", pa.string()), ("family_rank", pa.int32()),
    ("entity_id", pa.string()), ("wikidata_id", pa.string()),
    ("seed_order", pa.int64()), ("lang", pa.string()),
    ("lang_rank", pa.int32()), ("page_title", pa.string()),
    ("depth", pa.int32()), ("seq", pa.int64()),
])


def _entity_slices(qids: list, batch: int) -> list[tuple[int, int]]:
    """``[start, end)`` cuts of about ``batch`` rows. A slice never splits
    an entity: its pages share one task and so one last_crawled_at stamp,
    which recrawl_stale's entity-scoped refresh relies on to leave fresh
    pages alone."""
    starts = [0]
    for i in range(batch, len(qids), batch):
        while i < len(qids) and qids[i] == qids[i - 1]:
            i += 1
        if starts[-1] < i < len(qids):
            starts.append(i)
    return list(zip(starts, starts[1:] + [len(qids)]))


def _run_job(run: _Run, full: pa.Table, wave: int, seq_start: int) -> None:
    """Write the batch's crawl-log segment, fan it out as FUSED raw fetch
    tasks (fetch+extract, link candidates, delta part write and counter
    aggregation all happen inside the task; this only folds the returned
    counters), then admit the discovered links. The raw tasks replaced a
    per-wave Ray Data micro-job in round 3: its serial from_arrow puts and
    per-execution streaming-executor overhead were a measured FIXED cost
    per wave (~1-2 s) that did not scale with CPUs."""
    cfg, ledger = run.cfg, run.ledger
    t0 = time.time()
    # segment named by its first seq: deterministic, replay-safe
    pq.write_table(
        full.select(S.CRAWL_LOG.names).cast(S.CRAWL_LOG),
        os.path.join(run.path("crawl_log"), f"seg-{seq_start:09d}.parquet"),
    )
    t1 = ledger.lap("job_log_write", t0)
    wave_tbl = full.select(_FETCH_IN.names).cast(_FETCH_IN)
    delta = os.path.join(run.path("payload"), f"wave-{wave:06d}-{seq_start:09d}")
    os.makedirs(delta, exist_ok=True)
    # spread every wave evenly over the fetch slots: a wave smaller than
    # fetch_batch x slots (a strict-order tick, a ramp wave, a short tail)
    # still runs one task per slot; fetch_batch is a ceiling, not a floor
    batch = max(1, min(cfg.fetch_batch, -(-wave_tbl.num_rows // run.fetch_slots)))
    refs = [
        _fetch_slice_task.options(**_SPREAD).remote(
            wave_tbl.slice(i, j - i).combine_chunks(),
            (run.sitelinks,), (run.pages,),
            os.path.join(delta, f"part-{pi:05d}.parquet"),
            run.robots if cfg.discover_links else None,
            cfg.discover_links,
        )
        for pi, (i, j) in enumerate(
            _entity_slices(wave_tbl["wikidata_id"].to_pylist(), batch))
    ]
    t1 = ledger.lap("job_setup", t1)
    results = ray.get(refs)
    ledger.lap("job_exec", t1)
    ledger.add_task_times(sum(r[3][0] for r in results),
                          sum(r[3][1] for r in results))
    pages_cnt: dict[str, int] = {}
    for r in results:
        for k, c in r[2]:
            pages_cnt[k] = pages_cnt.get(k, 0) + c
    ledger.add(wave, {"requests": sum(r[1] for r in results)}, pages_cnt)
    if cfg.discover_links:
        _admit_links(run, delta, wave)
    ledger.lap("fetch_extract_write", t0)


def _link_rows(delta: str, max_depth: int | None) -> tuple[pa.Table | None, int]:
    """A freshly-written delta's link candidates as frontier rows at rank
    99, and the number of robots-blocked ones (None for rows when no
    candidate is left).

    Canonicalization, robots gating, hashing and LNK-id derivation all
    happened INSIDE the fetch tasks (``make_link_candidates_fn``); here
    everything is vectorized Arrow: flatten the per-page candidate lists in
    crawl order, first-occurrence dedup by url hash, drop links beyond the
    depth budget and robots-blocked urls. The BFS discovery order (_seq,
    then document position) is preserved by the _seq sort +
    order-preserving list flatten."""
    cols = ["lang", "links", "link_url", "link_host", "link_path",
            "link_hash", "link_id", "link_ok", "depth", "_seq"]
    t = pa.concat_tables([
        read_staging_file(f, cols)
        for f in sorted(glob.glob(os.path.join(delta, "part-*.parquet")))
    ]).sort_by("_seq")
    link_urls = t["link_url"].combine_chunks()
    titles = pc.list_flatten(t["links"].combine_chunks())
    parents = pc.list_parent_indices(link_urls)
    urls = pc.list_flatten(link_urls)
    if len(urls) == 0:
        return None, 0
    hashes_all = (pc.list_flatten(t["link_hash"].combine_chunks())
                  .to_numpy(zero_copy_only=False).astype(np.uint64))
    ok = (pc.list_flatten(t["link_ok"].combine_chunks())
          .to_numpy(zero_copy_only=False).astype(bool))
    child_depth = pc.add(
        t["depth"].combine_chunks().take(parents), pa.scalar(1, pa.int32())
    )
    # wave-local first-occurrence dedup (the reference's `local` set),
    # vectorized: keep the first row of each url hash in crawl order
    first = ~pd.Series(hashes_all).duplicated().to_numpy()
    if max_depth is not None:
        # depth budget: links beyond the BFS tier never enter the
        # local-dedup/robots accounting (they are simply not candidates)
        first &= child_depth.to_numpy(zero_copy_only=False) <= max_depth
    n_robots = int((first & ~ok).sum())
    keep = first & ok
    if not keep.any():
        return None, n_robots
    keep_arr = pa.array(keep)
    lang_parent = t["lang"].combine_chunks().take(parents)
    lang_rank_parent = pa.array(
        pd.Series(lang_parent.to_pandas())
        .map({l: i for i, l in enumerate(LANGS)})
        .fillna(0).astype(np.int32)
    )
    ids = pc.filter(pc.list_flatten(t["link_id"].combine_chunks()), keep_arr)
    n_kept = len(ids)
    rows = pa.table(
        {
            "family": pa.array(["discovered"] * n_kept, type=pa.string()),
            "family_rank": pa.array(np.full(n_kept, 99, dtype=np.int32),
                                    type=pa.int32()),
            "entity_id": ids,
            "wikidata_id": ids,
            "seed_order": pa.array(np.zeros(n_kept, dtype=np.int64)),
            "lang": pc.filter(lang_parent, keep_arr),
            "lang_rank": pc.filter(lang_rank_parent, keep_arr),
            "page_title": pc.filter(titles, keep_arr),
            "canonical_url": pc.filter(urls, keep_arr),
            "host": pc.filter(pc.list_flatten(t["link_host"].combine_chunks()), keep_arr),
            "path": pc.filter(pc.list_flatten(t["link_path"].combine_chunks()), keep_arr),
            "url_hash": pa.array(hashes_all[keep], type=pa.uint64()),
            "status": pa.array(["resolved"] * n_kept, type=pa.string()),
            "requests": pa.array(np.zeros(n_kept, dtype=np.int64)),
            "depth": pc.cast(pc.filter(child_depth, keep_arr), pa.int32()),
        },
        schema=RESOLVED_SCHEMA,
    )
    return rows, n_robots


def _admit_links(run: _Run, delta: str, wave: int) -> None:
    """Link candidates of a freshly-written delta -> first-wins seen-set
    admission -> journal -> frontier push at rank 99 (north_star link
    discovery)."""
    rows, n_robots = _link_rows(delta, run.cfg.max_link_depth)
    if n_robots:
        run.ledger.add(wave, {"robots_skipped": n_robots})
    if rows is None:
        return
    hashes = rows["url_hash"].to_numpy(zero_copy_only=False)
    with run.link_lock:  # admission + discovery-order assignment are atomic
        new = run.seen.insert_batch(hashes)
        n_new = int(new.sum())
        start = run.next_link_order
        run.next_link_order += n_new
    run.ledger.add(wave, {"url_dups": int((~new).sum()), "discovered": n_new})
    if not n_new:
        return
    admitted = rows.filter(pa.array(new))
    admitted = admitted.set_column(
        admitted.schema.get_field_index("seed_order"), "seed_order",
        pa.array(np.arange(start, start + n_new), type=pa.int64()),
    )
    _journal(run.path("admissions"), admitted, wave,
             f"links-{os.path.basename(delta)}")
    run.frontier.push_table(admitted)


def _journal(adm_dir: str, tbl: pa.Table, wave: int, tag: str) -> None:
    """Admission WAL: every admission is journaled BEFORE its frontier
    push — seed admissions synchronously on the driver, link admissions
    inside the wave's job (whose completion gates the FIFO manifest
    commit). Resume reconstructs the frontier backlog as journal(committed
    waves) - crawl log: no admitted URL can be silently lost (ADVICE r1),
    with no dependence on racing background pushes."""
    path = os.path.join(adm_dir, f"adm-{wave:06d}-{tag}.parquet")
    pq.write_table(tbl, path + ".tmp")
    os.replace(path + ".tmp", path)


# ---- wave controller: the driver ---------------------------------------------

class _WaveController:
    """The driver loop. Per wave, in this order of state-plane calls: seed
    insert -> journal -> push -> pops -> watermark -> seen flush ->
    snapshots -> ``seen.size()`` (the order keeps manifests and seen
    segments reproducible). It owns the cursor (``wave``, ``seq``,
    ``watermark``) and the futures in flight: up to ``write_workers`` jobs
    (independent delta dirs), while manifest commits stay FIFO on a
    single-worker pool, each gated on its own wave's jobs."""

    def __init__(self, run: _Run, ckpt: CheckpointLog, cursor: tuple,
                 writes: ThreadPoolExecutor, commits: ThreadPoolExecutor):
        self.run, self.ckpt = run, ckpt
        self.wave, self.seq, self.watermark = cursor
        self.writes, self.commits = writes, commits
        self.pending: list = []  # every job and commit, in submission order
        self.wave_jobs: dict[int, list] = {}

    def run_waves(self, waves) -> bool:
        """Admit, emit and commit each seed wave. True when halted."""
        cfg, run = self.run.cfg, self.run
        # fault-injection hook (tests only): hard-kill ONE state-plane shard
        # actor at the top of wave N — mid-run, with committed manifests
        # behind it and an in-flight wave ahead. The crawl FAILS; the drill
        # then proves resume=True restores exact parity from manifests +
        # admission WAL + seen segments (scripts/shard_death_smoke.py)
        kill_wave = os.environ.get("WIKICRAWL_KILL_SEEN_SHARD_WAVE")
        t_prev = time.time()
        for n_entities, res_tbl in waves:
            run.ledger.lap("resolve", t_prev)
            if kill_wave is not None and self.wave == int(kill_wave):
                ray.kill(run.seen.shards[0], no_restart=True)
            self.admit_seeds(n_entities, res_tbl)
            # strict mode drains the frontier before the next wave
            while True:
                job = self.emit()
                if job is not None and cfg.strict_order and cfg.discover_links:
                    # deterministic BFS: the job pushes discovered links;
                    # wait for it so the next pop sees them (parity schedule)
                    job.result()
                if not cfg.strict_order or run.frontier.backlog() == 0:
                    break
            last = res_tbl.slice(res_tbl.num_rows - 1, 1)
            self.watermark = (last["family_rank"][0].as_py(),
                              last["seed_order"][0].as_py())
            self.close_wave()
            if cfg.halt_after_waves is not None and self.wave >= cfg.halt_after_waves:
                # simulate a crash: committed manifests + journal exist,
                # frontier backlog and un-finalized deltas are abandoned
                return True
            if self.wave >= cfg.max_waves:
                return False
            t_prev = time.time()
        return False

    def admit_seeds(self, n_entities: int, res_tbl: pa.Table) -> None:
        """Count the wave's resolve outcomes, park its transient failures
        for retry, and admit its resolved urls first-wins. Robots was gated
        in the resolver: a disallowed URL never reaches the seen set
        (oracle semantics); the frontier re-checks at push."""
        run, w = self.run, self.wave
        status = res_tbl["status"]
        n_transient = _count_eq(status, "transient")
        run.ledger.add(w, {
            "entities": n_entities,
            "requests": int(pc.sum(res_tbl["requests"]).as_py() or 0),
            "transient": n_transient,
            "no_sitelink": _count_eq(status, "no_sitelink"),
            "robots_skipped": _count_eq(status, "robots"),
        })
        if n_transient:
            pq.write_table(
                res_tbl.filter(pc.equal(status, "transient"))
                .select(["family", "wikidata_id", "entity_id"]),
                os.path.join(run.path("retry"), f"wave-{w:06d}.parquet"),
            )
        ready = res_tbl.filter(pc.equal(status, "resolved"))
        if not ready.num_rows:
            return
        t0 = time.time()
        new = run.seen.insert_batch(
            ready["url_hash"].to_numpy(zero_copy_only=False).astype(np.uint64))
        run.ledger.add(w, {"url_dups": int((~new).sum())})
        admitted = ready.filter(pa.array(new))
        t0 = run.ledger.lap("drv_seen", t0)
        if admitted.num_rows:
            _journal(run.path("admissions"), admitted, w, "seed")
            t0 = run.ledger.lap("drv_journal", t0)
            run.frontier.push_table(admitted)
            run.ledger.lap("drv_fpush", t0)

    def emit(self):
        """Pop one frontier tick; a non-empty one gets its seqs and runs as
        a background job of the current wave. Returns the job's future, or
        None for an empty tick."""
        run = self.run
        t0 = time.time()
        tbl = run.frontier.pop_wave_table(RESOLVED_SCHEMA)
        run.ledger.lap("drv_fpop", t0)
        if tbl is None or not tbl.num_rows:
            return None
        n, seq_start = tbl.num_rows, self.seq + 1
        full = tbl.append_column(
            "seq", pa.array(np.arange(seq_start, seq_start + n, dtype=np.int64)))
        self.seq += n
        run.ledger.add(self.wave, {"fetched": n})
        job = self.writes.submit(_run_job, run, full, self.wave, seq_start)
        self.pending.append(job)
        self.wave_jobs.setdefault(self.wave, []).append(job)
        return job

    def close_wave(self) -> None:
        """Flush the wave's seen segments and queue its manifest commit,
        gated on the wave's jobs and that flush (an orphan segment without
        its manifest is ignored on resume: load_segments max_wave); then
        open the next wave."""
        run, w = self.run, self.wave
        t0 = time.time()
        flush_refs = run.seen.flush_segments_async(run.path("seen_segments"), w)
        run.ledger.lap("drv_seen_flush", t0)
        manifest = {
            "wave": w,
            "seq": self.seq,  # this wave's emissions are already numbered
            "watermark": list(self.watermark),
            "frontier": run.frontier.snapshots(),
            "seen_size": run.seen.size(),
        }
        self.pending.append(self.commits.submit(
            _commit_wave, self.ckpt, run.ledger, manifest,
            self.wave_jobs.pop(w, []), flush_refs))
        self.wave += 1

    def drain(self) -> None:
        """Emit the remaining frontier backlog (throughput mode's tail), one
        wave per non-empty tick. In-flight jobs may still DISCOVER links,
        so an empty backlog ends the drain only once every pending job has
        finished and it is still empty."""
        frontier = self.run.frontier
        while True:
            if frontier.backlog() == 0:
                self.join()
                if frontier.backlog() == 0:
                    return
            if self.emit() is not None:
                self.close_wave()

    def join(self) -> None:
        """Wait for every job and commit so far (propagates their errors)."""
        for f in list(self.pending):
            f.result()


def _commit_wave(ckpt: CheckpointLog, ledger: _Ledger, manifest: dict,
                 jobs: list, flush_refs: list) -> None:
    for f in jobs:  # manifest only after this wave's writes landed
        f.result()
    ray.get(flush_refs)  # ... and after its seen segments are durable
    manifest["metrics"] = ledger.commit(manifest["wave"])
    ckpt.commit_wave(manifest["wave"], manifest)


# ---- finalizer ---------------------------------------------------------------

def _blocks_by_partition(specs: dict, streams: list[list]) -> dict:
    """Regroup the stagers' block refs by position: ``out[name][p]`` lists
    partition p's blocks of table ``name`` in crawl order (stager, then
    batch)."""
    slots = [(name, p) for name, (_, nparts) in specs.items()
             for p in range(nparts)]
    out = {name: [[] for _ in range(nparts)]
           for name, (_, nparts) in specs.items()}
    for refs in streams:
        for i, ref in enumerate(refs):
            name, p = slots[i % len(slots)]
            out[name][p].append(ref)
    return out


def _finalize(run: _Run, tables: dict, images_arg, clock: int) -> int | None:
    """Fold the payload deltas into the five keyed tables: stage every
    committed delta part (this run's and, on resume, the earlier
    attempt's) with one stager per fetch slot, each over a contiguous
    share in path order, which is crawl order, into (table, partition)
    blocks in the object store; co-partition the image bytes when they
    were not broadcast; merge each partition's blocks. Returns the number
    of staging batches (None: nothing to stage)."""
    ledger = run.ledger
    t0 = time.time()
    deltas = sorted(glob.glob(
        os.path.join(run.path("payload"), "wave-*", "part-*.parquet")))
    if not deltas:
        return None
    specs = {name: (tbl.key, tbl.n_partitions) for name, tbl in tables.items()}
    n = min(run.fetch_slots, len(deltas))
    cuts = [len(deltas) * i // n for i in range(n + 1)]
    stage = _stage_deltas_task.options(**_SPREAD)
    gens = [stage.remote(deltas[a:b], specs) for a, b in zip(cuts, cuts[1:])]
    # read the streams once their stagers ended: asking for a ref before
    # its stager yielded it waits a round trip per ref, which measured
    # about twice the whole stage
    ray.wait([g.completed() for g in gens], num_returns=len(gens))
    streams = [list(g) for g in gens]
    # each stream ends with its batch count, or with its stager's error
    n_batches = sum(ray.get([refs.pop() for refs in streams]))
    blocks = _blocks_by_partition(specs, streams)
    t0 = ledger.lap("finalize_stage", t0)
    if images_arg is None:
        # co-partition the binary corpus to the OUTPUT partitioning once
        # instead of every merge task reading all of it
        # (pipelines/bytes_shuffle.py: design + measurements)
        images_arg = shuffle_image_bytes_to_parts(
            blocks["images_out"],
            os.path.join(run.cfg.corpus_dir, "images.parquet"), run.cfg.out_dir)
        t0 = ledger.lap("finalize_bytes_shuffle", t0)
    _merge_staged(tables, blocks, images_arg, clock)
    ledger.lap("finalize_merges", t0)
    if images_arg[0] == "parts":
        shutil.rmtree(images_arg[1], ignore_errors=True)
    return n_batches


def _run_crawl(cfg: CrawlConfig, robots: dict, seen: ShardedSeenSet,
               frontier: ShardedFrontier) -> CrawlResult:
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt = CheckpointLog(cfg.out_dir)
    m = ckpt.latest() if cfg.resume else None
    if m is None:
        # a fresh run, or a resume that crashed before its first commit:
        # nothing is durable, so stale deltas / log segments from a dead
        # attempt must not leak into this one
        _reset_dirs(os.path.join(cfg.out_dir, sub) for sub in _RUN_DIRS)
    tables = open_tables(cfg.out_dir, cfg.n_table_partitions)
    # fetch tasks of one wave that can run at once: slicing a wave finer
    # than the cluster has CPUs runs the slices one after another and only
    # adds each task's fixed cost; finalize runs one stager per slot too
    fetch_slots = max(1, min(cfg.fetch_concurrency,
                             int(ray.cluster_resources().get("CPU", 1))))
    ledger = _Ledger({
        "requests": 0, "fetched": 0, "no_sitelink": 0, "transient": 0,
        "url_dups": 0, "entities": 0, **(m["metrics"] if m else {}),
    })
    cursor = (0, 0, (-1, -1))  # wave, seq, watermark (family_rank, seed_order)
    if m is not None:
        cursor = (m["wave"] + 1, m["seq"], tuple(m["watermark"]))
        _restore(cfg, m, seen, frontier)
    t0 = time.time()
    sitelinks, pages, images_arg = _broadcast_corpus(cfg)
    t0 = ledger.lap("setup_refs", t0)
    slices = _seed_slices(cfg, cursor[2])
    ledger.lap("seed_dedup", t0)
    run = _Run(cfg, robots, seen, frontier, ledger, fetch_slots, sitelinks, pages)
    writes = ThreadPoolExecutor(max_workers=max(1, cfg.write_workers))
    commits = ThreadPoolExecutor(max_workers=1)
    ctl = _WaveController(run, ckpt, cursor, writes, commits)
    try:
        halted = ctl.run_waves(_seed_waves(cfg, slices, sitelinks, robots))
        if not halted:
            ctl.drain()
        ctl.join()
        metrics = dict(ledger.committed)
        if not halted:
            n_batches = _finalize(run, tables, images_arg, ctl.wave)
            if n_batches is not None:
                metrics["staging_batches"] = n_batches
        metrics["timings"] = ledger.timings()
        metrics["timeline"] = list(ledger.spans)
        return CrawlResult(cfg.out_dir, tables, metrics)
    finally:
        # ONE exit path for a finished run, the simulated crash and any
        # error: no background job or manifest commit may outlive crawl()
        # — a resume started right after a failure must not race the dead
        # run's writers (queued work that never started is cancelled; a
        # commit gated on a cancelled write fails instead of landing).
        # Stagers write nothing: a failed run's blocks die with its refs.
        writes.shutdown(wait=True, cancel_futures=True)
        commits.shutdown(wait=True, cancel_futures=True)


def read_crawl_log(out_dir: str) -> pa.Table:
    log_dir = os.path.join(out_dir, "crawl_log")
    files = sorted(
        os.path.join(log_dir, f) for f in os.listdir(log_dir) if f.endswith(".parquet")
    )
    if not files:
        return S.CRAWL_LOG.empty_table()
    tbl = pa.concat_tables([pq.read_table(f) for f in files])
    return tbl.sort_by("seq")
