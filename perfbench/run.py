"""Benchmark of the wikicrawl engine: crawl throughput, crawl-order parity
under a politeness budget, and a query sweep.

    python3 perfbench/run.py --workload crawl_bulk --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6 --trace 0

``all`` runs every workload, each in its own process. Runs from any
working directory; the library is imported from the checkout
that holds this file, and everything the run writes goes under
``.bench_work/`` in that checkout. Each run starts its own Ray session with
one CPU per core this process may use. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes the traced run instead: per-layer metrics,
library-call spans written as Chrome-trace JSON to
``.bench_work/trace-<workload>-s<seed>.json``, and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics: ``setup_s``, the median over three fresh Ray sessions
of session start plus warm-up; ``wall_s``, the median latency of one
operation; ``items_per_s``, URLs fetched (crawls) or queries answered per
second of timed calls; ``peak_rss_mb``, the peak summed resident memory of
this process and the Ray processes it started, sampled during timed calls.

Operations: one crawl pass, or one query (each query of a round, and the
training-data pipeline, is one operation). An operation fails when it
raises, times out or returns output that differs from its oracle; failures
are counted and the run goes on. ``correct`` is false only when some output
differs from its oracle in columns, rows or values.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import threading
import time

from session import (NUM_CPUS, ROOT, WORK, import_psutil, start_ray, stop_ray,
                     stop_stale_ray)

T_START = time.perf_counter()

SETUP_REPEATS = 3  # fresh Ray sessions per run; setup_s is their median
MIN_OPS = 2  # timed operations per run, however long they take
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every operation must end by then (a run may take 180 s)

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
# printed by every traced run, in this order; a layer the workload does not
# run reports 0 and the trace file says why
PER_LAYER = [
    # crawl()'s own laps and counters (they overlap: see crawls.py)
    "crawl.drv_seen_s", "crawl.drv_fpop_s", "crawl.drv_fpush_s",
    "crawl.drv_journal_s", "crawl.job_setup_s", "crawl.job_exec_s",
    "crawl.resolve_s", "crawl.finalize_merges_s", "crawl.task_cpu_s",
    "crawl.requests", "crawl.fetched", "crawl.url_dups", "crawl.discovered",
    "crawl.staging_compacted_files", "crawl.fetch_yield",
    "crawl.image_rows_per_s",
    # layer replay, single-threaded in the benchmark process
    "frontier.push_s", "frontier.pop_s", "frontier.ticks", "frontier.emitted",
    "seen.insert_s", "seen.probe_s", "seen.keys", "seen.new_ratio",
    "crawl_stages.resolve_s", "crawl_stages.fetch_extract_s",
    "crawl_stages.pages_per_s", "crawl_stages.payload_split_s",
    "table.merge_insert_s", "table.merge_update_s", "table.bytes_per_row",
    "table.files_written", "codec.decode_s", "codec.images",
    # maintenance mix on crawl_bulk's output
    "maintenance.recrawl_stale_s", "maintenance.shared_main_images_s",
    "maintenance.phash_dup_images_s", "maintenance.chrome_image_breakdown_s",
    # query workload
    "queries.sweep_s", "queries.p50_s", "queries.max_s", "queries.q04_anti_join_s",
    "queries.q09_window_tumbling_s", "queries.q16_exact_dedup_s",
    "queries.q22_simhash_dups_s", "queries.q42_tfidf_s",
    "queries.q48_json_extract_s", "queries.q53_hll_distinct_s",
    "queries.q58_bm25_search_s", "training_data.entry_s",
    # every workload
    "oracle.run_s", "trace.overhead_s", "run.failed_op_ratio",
]


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"crawl.fetch_yield": "ratio", "seen.new_ratio": "ratio",
            "run.failed_op_ratio": "ratio",
            "table.bytes_per_row": "B/row"}.get(name, "count")


class OpTimeout(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    """Run ``fn`` in a daemon thread; raise OpTimeout if it has not
    returned after ``timeout`` seconds (the thread is abandoned, and the
    run then ends: a hung Ray call is only released by shutting Ray down)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except Exception as e:  # noqa: BLE001 - re-raised in the caller
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise OpTimeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box.get("value")


class RssSampler:
    """Peak of the summed resident set size of this process and all its
    descendants (the Ray processes it started), sampled every 50 ms while
    :attr:`active` is set."""

    def __init__(self):
        import psutil

        self._proc = psutil.Process()
        self._psutil = psutil
        self.peak = 0
        self.active = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> int:
        total = 0
        for p in [self._proc, *self._proc.children(recursive=True)]:
            try:
                total += p.memory_info().rss
            except (self._psutil.NoSuchProcess, self._psutil.AccessDenied):
                pass
        return total

    def _loop(self):
        while not self._stop.wait(0.05):
            if self.active:
                self.peak = max(self.peak, self._sample())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(5)


class Run:
    def __init__(self, workload, args):
        self.wl = workload
        self.seconds = args.seconds
        self.seed = args.seed
        self.t_start = T_START
        self.attempted = 0
        self.failed = 0
        self.incorrect = False
        self.aborted = False
        self.failures: list[dict] = []

    # ---- bookkeeping -------------------------------------------------------

    def record(self, failures: list[dict], n_ops: int) -> None:
        self.attempted += n_ops
        self.failed += len({f["op"] for f in failures})
        self.incorrect |= any(f["kind"] == "mismatch" for f in failures)
        for f in failures:
            if f not in self.failures:
                self.failures.append(f)
                print(f"perfbench: {f['op']} failed ({f['kind']}): {f['msg']}",
                      flush=True)

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t_start)

    def guarded(self, name: str, fn):
        """Call ``fn`` under a timeout. A failure is recorded as one failed
        operation and None returned; the caller records a success. An
        AssertionError means the output differs from its oracle."""
        if self.aborted:
            return None
        try:
            return call_with_timeout(fn, min(OP_TIMEOUT_S, self.time_left()))
        except OpTimeout as e:
            self.aborted = True
            self.record([{"op": name, "kind": "error", "msg": str(e)}], 1)
        except AssertionError as e:
            self.record([{"op": name, "kind": "mismatch", "msg": str(e)}], 1)
        except Exception as e:  # noqa: BLE001 - counted, run goes on
            self.record([{"op": name, "kind": "error",
                          "msg": f"{type(e).__name__}: {e}"}], 1)
        return None

    def checked_op(self, name: str, fn):
        """One untimed operation whose ``fn`` returns (value, mismatches)."""
        out = self.guarded(name, fn)
        if out is None:
            return None
        value, bad = out
        self.record([{"op": name, "kind": "mismatch", "msg": m} for m in bad], 1)
        return value

    # ---- phases ----------------------------------------------------------

    def setup(self) -> float:
        """One fresh Ray session plus the workload's warm-up call."""
        t0 = time.perf_counter()
        start_ray()
        call_with_timeout(self.wl.warm_up, OP_TIMEOUT_S)
        return time.perf_counter() - t0

    def timed_ops(self, budget: float, min_ops: int = MIN_OPS,
                  sampler: RssSampler | None = None) -> list[dict]:
        """Timed operations until ``budget`` seconds of them have run (at
        least ``min_ops``). Each output is checked outside the timed region;
        ``sampler`` records memory only while an operation runs."""
        samples, spent, tries = [], 0.0, 0
        while ((spent < budget or tries < min_ops) and not self.aborted
               and self.time_left() > 0):
            tries += 1
            self.wl.reset()
            if sampler:
                sampler.active = True
            t0 = time.perf_counter()
            res = self.guarded(self.wl.name, self.wl.op)
            wall = time.perf_counter() - t0
            if sampler:
                sampler.active = False
            spent += wall
            if res is None:
                continue
            failures = self.wl.check()
            self.record(failures, res["ops"])
            samples.append({"wall": wall, **res})
        return samples

    def measure(self) -> dict:
        setups = []
        for i in range(SETUP_REPEATS):
            setups.append(self.setup())
            if i < SETUP_REPEATS - 1:
                stop_ray()
        with RssSampler() as sampler:
            samples = self.timed_ops(self.seconds, sampler=sampler)
        if not samples:
            raise RuntimeError("no timed operation completed")
        # a sample is one timed call; it may time several operations
        walls = [w for s in samples for w in s.get("op_walls", [s["wall"]])]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(s["items"] / s["wall"] for s in samples),
            "peak_rss_mb": sampler.peak / 2**20,
        }
        print(f"perfbench: {self.wl.name} seed={self.seed} calls={len(samples)} "
              f"call_walls={[round(s['wall'], 3) for s in samples]} "
              f"ops={len(walls)} "
              f"setups={[round(s, 3) for s in setups]} "
              f"failed_op_ratio={self.failed / max(1, self.attempted):.4f}",
              flush=True)
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def trace(self) -> dict:
        from spans import Tracer

        self.setup()
        tracer = Tracer(f"{self.wl.name}-s{self.seed}-{os.getpid()}")
        unmeasured = {
            "bytes_shuffle": "engages only when the corpus images table exceeds "
                             "images_broadcast_limit_bytes (1 GiB); no workload "
                             "here is that large",
        }
        m: dict = {}
        # untraced operations first: the baseline for tracing overhead
        base = self.timed_ops(self.seconds / 2)
        self.wl.tracer = tracer
        for owner, attr, name in self.wl.trace_targets():
            tracer.wrap(owner, attr, name)
        try:
            traced = next(iter(self.timed_ops(0.0, min_ops=1)), None)
        finally:
            tracer.unwrap_all()
            self.wl.tracer = None
        if base and traced is not None:
            m["trace.overhead_s"] = traced["wall"] - statistics.median(
                s["wall"] for s in base)
        m.update(self.wl.layer_metrics(base, tracer, self.checked_op))
        m["oracle.run_s"] = self.wl.oracle_s
        m["run.failed_op_ratio"] = self.failed / max(1, self.attempted)
        # a layer the workload does not run reports 0, with the reason here
        for k in PER_LAYER:
            if k not in m:
                m[k] = 0.0
                unmeasured[k] = next(
                    (why for prefix, why in self.wl.not_run.items()
                     if k.startswith(prefix)),
                    "not produced by this run: see failures")
        path = os.path.join(WORK, f"trace-{self.wl.name}-s{self.seed}.json")
        tracer.write_chrome_trace(path, {
            "per_layer": m,
            "unmeasured": unmeasured,
            "failures": self.failures,
            # crawl()'s own laps, as returned: they overlap (job_exec runs
            # in background threads alongside the main-thread laps), so they do
            # not add up to the wall
            "crawl_timings": {"overlapping": True,
                              "laps": (traced or {}).get("metrics", {}).get("timings")},
        })
        print(f"perfbench: trace written to {path}; unmeasured: "
              f"{sorted(unmeasured)}", flush=True)
        return {k: {"value": float(m[k]), "unit": layer_unit(k)} for k in PER_LAYER}


WORKLOADS = ("crawl_bulk", "crawl_parity", "query_sweep")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    import subprocess

    codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                             "--workload", w, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for w in WORKLOADS]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, ROOT)
    try:
        import wikicrawl  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the wikicrawl library from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    import_psutil()
    from crawls import CrawlBulk, CrawlParity
    from querysweep import QuerySweep

    workloads = {w.name: w for w in (CrawlBulk, CrawlParity, QuerySweep)}
    os.makedirs(WORK, exist_ok=True)
    stop_stale_ray()
    wl = workloads[args.workload](WORK, args.seed, NUM_CPUS)
    wl.prepare()  # inputs and oracle answers, untimed
    # the oracle answers are many live objects; frozen, the collector no
    # longer walks them, so they do not slow set-up or timed operations
    gc.collect()
    gc.freeze()
    run = Run(wl, args)
    try:
        metrics = run.trace() if args.trace else run.measure()
    finally:
        stop_ray()
    print(json.dumps({"correct": not run.incorrect, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    if run.aborted:
        os._exit(0)  # an abandoned operation thread may still hold Ray state
    return 0


if __name__ == "__main__":
    sys.exit(main())
