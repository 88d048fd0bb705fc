"""Placement and lifetime of the chatty driver-side state plane.

Lifetime: the Ray session, leased per crawl. The seen-set and frontier
shard actors (state/seen.py, state/frontier.py) outlive any one crawl.
``crawl()`` leases a (ShardedSeenSet, ShardedFrontier) pair with
:func:`lease_state_plane` and hands it back with
:func:`release_state_plane` once nothing of the crawl can call it any
more. A new actor takes ~0.8-1 s on one core to answer its first call
(Ray never gives an actor a pooled task worker); four of them per crawl
were most of a small crawl's control plane. The pool holds at most one
idle pair per process, keyed by the Ray session (job id + driver node
id): a pair of an earlier session is dropped without a call, its actors
ended with that session. Leased actors are reset, never patched: each
shard's ``reset`` runs the same initializer as a new actor with the
crawl's arguments, and the facade's driver-side fields are rebuilt by its
own constructor. A released pair is reset to empty (no spill dir, no
robots, no host rates), so an idle actor holds no crawl state; a pair of
a failed crawl is killed, never pooled. Pooled actors are ordinary
driver-owned actors (not detached, no name, no namespace), so
``ray.shutdown()`` ends them like any other.

Placement: the frontier and seen-set shards exchange many small Arrow
tables with the DRIVER every wave (push/pop/insert batches). On a
multi-node cluster Ray's default placement can land them on any node,
turning every one of those exchanges into a cross-node plasma copy + gRPC
hop — measured on a two-raylet cluster: drv_fpush 0.1 s -> 13 s, drv_fpop
1 s -> 11 s for the same 30k-entity crawl (scripts/two_node_bench.py).
SOFT affinity to the driver's node keeps the wave-control plane
node-local while the bulk fetch/extract tasks SPREAD across the cluster.

Trade-off (documented): state shards hold the seen-set filters in RAM;
at 10^10 URLs across few shards this concentrates memory on the head
node. soft=True lets Ray overflow shards elsewhere when the head lacks
resources, and the shard state is spillable (state/seen.py), so the
affinity is a latency preference, not a correctness constraint.
"""

from __future__ import annotations

import logging
import threading
import warnings

import ray

_warned = False

_pool_lock = threading.Lock()
# the idle pair: (session key, seen shard actors, frontier shard actors)
_idle: tuple | None = None


def driver_affinity_options() -> dict:
    """kwargs for ``Actor.options(...)``: soft affinity to this node.

    Falls back to default scheduling ONLY on the two known-benign causes
    (ray not importable / not initialized, scheduling-API drift), and then
    warns ONCE — a silent fallback would reintroduce the measured 100x
    drv_fpush/drv_fpop cross-node regression with no signal (ADVICE r3)."""
    global _warned
    try:
        from ray.util.scheduling_strategies import (
            NodeAffinitySchedulingStrategy,
        )

        node_id = ray.get_runtime_context().get_node_id()
        return {"scheduling_strategy": NodeAffinitySchedulingStrategy(
            node_id=node_id, soft=True)}
    except (ImportError, RuntimeError, AttributeError) as e:
        if not _warned:
            _warned = True
            msg = (f"driver_affinity_options: falling back to default "
                   f"placement ({type(e).__name__}: {e}) — state-plane "
                   f"actors may land off the driver node")
            logging.getLogger(__name__).warning(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
        return {}


def _session_key() -> tuple[str, str]:
    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


def _kill(actors) -> None:
    for a in actors:
        ray.kill(a, no_restart=True)


def lease_state_plane(n_seen: int, n_frontier: int, seen_kwargs: dict,
                      frontier_kwargs: dict):
    """One crawl's (ShardedSeenSet, ShardedFrontier), built from these
    arguments: the idle pair of this session reset in place when its shard
    counts match (one ``ray.get`` covers every reset), else a new pair. A
    reset that fails (say, a dead actor) drops the idle pair for a new
    one."""
    from wikicrawl.state.frontier import ShardedFrontier
    from wikicrawl.state.seen import ShardedSeenSet

    global _idle
    key = _session_key()
    with _pool_lock:
        if _idle is not None and _idle[0] != key:
            _idle = None  # an older session's actors ended with it
        idle = None
        if _idle is not None and (len(_idle[1]), len(_idle[2])) == (
                n_seen, n_frontier):
            idle, _idle = _idle, None
    if idle is not None:
        seen = ShardedSeenSet(n_seen, shards=idle[1], **seen_kwargs)
        frontier = ShardedFrontier(n_frontier, shards=idle[2],
                                   **frontier_kwargs)
        try:
            ray.get(seen.resets + frontier.resets)
            return seen, frontier
        except ray.exceptions.RayError:
            _kill(idle[1] + idle[2])
    seen = ShardedSeenSet(n_seen, **seen_kwargs)
    frontier = ShardedFrontier(n_frontier, **frontier_kwargs)
    # fire-and-forget no-ops: the new actors' start overlaps the crawl's
    # setup instead of wave 1's admission and pop
    for s in seen.shards:
        s.size.remote()
    for s in frontier.shards:
        s.backlog.remote()
    return seen, frontier


def release_state_plane(seen, frontier, healthy: bool) -> None:
    """Hand a leased pair back once no call of its crawl can reach it.

    A healthy pair is reset to empty and becomes the idle pair (the one it
    replaces is killed). The pair of a failed crawl, or one whose reset
    fails, is killed instead: a dead or half-updated shard must never reach
    the next crawl."""
    from wikicrawl.state.frontier import ShardedFrontier
    from wikicrawl.state.seen import ShardedSeenSet

    global _idle
    if healthy:
        try:
            # an empty frontier with a zero budget: an idle shard grants
            # nothing and holds no robots or host rates
            ray.get(ShardedSeenSet(seen.n_shards, shards=seen.shards).resets
                    + ShardedFrontier(frontier.n_shards, 0.0, 0.0,
                                      shards=frontier.shards).resets)
        except ray.exceptions.RayError:
            healthy = False
    if not healthy:
        _kill(seen.shards + frontier.shards)
        return
    key = _session_key()
    with _pool_lock:
        old, _idle = _idle, (key, seen.shards, frontier.shards)
    if old is not None and old[0] == key:
        _kill(old[1] + old[2])
