"""Two-node vs single-node crawl throughput — the cross-node tax, measured.

Same total CPU budget (8), two topologies:
  A) one node,  num_cpus=8                      (the usual local bench)
  B) head node 4 cpus + second raylet 4 cpus    (ray.cluster_utils.Cluster)

Topology B pays real multi-node costs on one box: cross-node object
transfer for every block that crosses raylets, two plasma stores, GCS
coordination. On physical clusters B also *gains* a second memory bus and
disk — absent here — so the printed ratio is a LOWER bound on real
two-node efficiency. Run on a quiet host (see BENCH/BASELINE.md noise
protocol); prints ONE JSON line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ENTITIES = int(os.environ.get("TWONODE_ENTITIES", "30000"))


def warm_workers(total_cpus: int) -> None:
    """Spawn the worker pool on EVERY node and import the library before
    timing (same policy as bench.py: process spawn + imports are a
    deploy-time cost on a long-lived cluster, not a per-job one)."""
    import ray.data as rd

    def _w(b):
        import wikicrawl.stages.crawl_stages  # noqa: F401

        return b

    rd.range(total_cpus * 4, override_num_blocks=total_cpus * 4).map_batches(
        _w, batch_size=1, num_cpus=1
    ).materialize()


def run_crawl(tag: str) -> dict:
    import ray

    from wikicrawl.pipelines.crawl import CrawlConfig, crawl
    from wikicrawl.synth import SYNTH_VERSION, generate  # noqa: F401

    corpus = f"/tmp/wikicrawl_twonode_bench_corpus_{ENTITIES}"
    if not os.path.exists(os.path.join(corpus, "meta.json")):
        generate(corpus, n_entities=ENTITIES, seed=42, page_scale=4)
    warm_workers(8)

    out = f"/dev/shm/wikicrawl_twonode_bench_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(
        corpus_dir=corpus, out_dir=out, entity_wave=10000, strict_order=False, fetch_concurrency=7,
        write_workers=2, fetch_batch=512, resolve_concurrency=2,
        n_frontier_shards=4, n_seen_shards=4, n_table_partitions=16,
    )
    t0 = time.time()
    res = crawl(cfg)
    wall = time.time() - t0
    fetched = res.metrics["fetched"]
    shutil.rmtree(out, ignore_errors=True)
    out_rec = {"sec": round(wall, 2), "fetched": fetched,
               "urls_per_sec": round(fetched / wall, 1)}
    if os.environ.get("TWONODE_TIMINGS") == "1":
        out_rec["timings"] = res.metrics.get("timings", {})
    return out_rec


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else "driver"
    if mode == "single":
        import ray

        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
        _quiet()
        print(json.dumps(run_crawl("single")))
        ray.shutdown()
        return
    if mode == "two":
        import ray
        from ray.cluster_utils import Cluster

        cluster = Cluster(initialize_head=True,
                          head_node_args={"num_cpus": 4,
                                          "include_dashboard": False})
        cluster.add_node(num_cpus=4)
        ray.init(address=cluster.address, logging_level="ERROR",
                 include_dashboard=False)
        _quiet()
        nodes = [n for n in ray.nodes() if n["Alive"]]
        assert len(nodes) == 2
        print(json.dumps(run_crawl("two")))
        ray.shutdown()
        cluster.shutdown()
        return

    # driver mode: each topology in a fresh process, interleaved repeats
    here = os.path.abspath(__file__)
    repeats = int(os.environ.get("TWONODE_REPEATS", "2"))
    runs: dict[str, list] = {"single": [], "two": []}
    for _ in range(repeats):
        for m in ("single", "two"):
            r = subprocess.run([sys.executable, here, m],
                               capture_output=True, text=True, check=True)
            runs[m].append(json.loads(r.stdout.strip().splitlines()[-1]))
    best = {m: max(rs, key=lambda r: r["urls_per_sec"])
            for m, rs in runs.items()}
    print(json.dumps({
        "metric": "two-node (4+4) vs single-node (8) crawl, same cpu budget",
        "entities": ENTITIES,
        "single_8cpu": best["single"],
        "two_node_4p4": best["two"],
        "two_node_efficiency": round(
            best["two"]["urls_per_sec"] / best["single"]["urls_per_sec"], 3),
        "runs": runs,
    }))


def _quiet() -> None:
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


if __name__ == "__main__":
    main()
