"""Two-node Ray cluster golden-parity smoke.

The sandbox has one machine, but `ray.cluster_utils.Cluster` runs a real
multi-node control plane on it: a head raylet + a second raylet, each with
its own object store, so task placement, actor placement and OBJECT
TRANSFER all cross a node boundary exactly as on a physical cluster
(minus the NIC). This is the strongest multi-node evidence available here
(north_rule: "run ... on a fixed-size multi-node Ray cluster"):

  1. both nodes are alive and tasks demonstrably run on BOTH node ids;
  2. the full crawl pipeline (resolve -> frontier shards -> fetch/extract
     -> finalize's object-store blocks -> merges) completes across the
     two nodes;
  3. output tables, crawl ORDER and the URL-seen set are value-identical
     to the straight-line oracle — the same golden parity the single-node
     suite enforces (tests/test_parity.py), now through cross-node object
     transfer.

Run directly (`python scripts/two_node_smoke.py`) or via
tests/test_two_node.py (subprocess — a Cluster cannot share a process
with the session-scoped single-node fixture).

Prints ONE JSON line with the parity verdict and per-node task spread.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CORPUS = "/tmp/wikicrawl_twonode_corpus"
OUT = "/tmp/wikicrawl_twonode_out"

TS_COLS = {"last_crawled_at", "last_success_at", "dat"}
BOOK_COLS = {"_row_id", "_dat_creat"}


def norm(tbl, sort_keys):
    df = tbl.to_pandas() if hasattr(tbl, "to_pandas") else tbl
    df = df.drop(columns=[c for c in df.columns if c in TS_COLS | BOOK_COLS])
    return df.sort_values(sort_keys).reset_index(drop=True)


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


def main() -> None:
    import ray
    from ray.cluster_utils import Cluster

    from wikicrawl.oracle import run_oracle
    from wikicrawl.pipelines.crawl import CrawlConfig, crawl, read_crawl_log
    from wikicrawl.synth import generate

    generate(CORPUS, n_entities=200, seed=42)

    # Small explicit object stores — avoids /dev/shm reservation
    # contention with concurrent Ray sessions (see node_death_smoke.py).
    store = 1 << 30
    cluster = Cluster(
        initialize_head=True,
        head_node_args={"num_cpus": 2, "include_dashboard": False,
                        "object_store_memory": store},
    )
    cluster.add_node(num_cpus=2, object_store_memory=store)
    ray.init(address=cluster.address, logging_level="ERROR",
             include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    nodes = [n for n in ray.nodes() if n["Alive"]]
    assert len(nodes) == 2, f"expected 2 alive nodes, got {len(nodes)}"

    # prove tasks actually land on both raylets: 4 tasks each HOLD a CPU
    # slot for 2 s, so with 2 cpus/node the scheduler must use both nodes
    @ray.remote(num_cpus=1)
    def _where() -> str:
        import time

        time.sleep(2)
        return ray.get_runtime_context().get_node_id()

    spread = set(ray.get([_where.remote() for _ in range(4)]))
    assert len(spread) == 2, f"tasks ran on {len(spread)} node(s), want 2"

    shutil.rmtree(OUT, ignore_errors=True)
    cfg = CrawlConfig(corpus_dir=CORPUS, out_dir=OUT, entity_wave=64,
                      strict_order=True)
    res = crawl(cfg)

    oracle = run_oracle(CORPUS)
    checks = {
        "pages": frames_equal(
            norm(res.tables["pages"].read_all(), ["wikidata_id", "lang"]),
            norm(oracle.pages, ["wikidata_id", "lang"])),
        "sections": frames_equal(
            norm(res.tables["sections"].read_all(),
                 ["wikidata_id", "lang", "display_order"]),
            norm(oracle.sections, ["wikidata_id", "lang", "display_order"])),
        "images_out": frames_equal(
            norm(res.tables["images_out"].read_all(),
                 ["wikidata_id", "lang", "display_order"]),
            norm(oracle.images_out, ["wikidata_id", "lang", "display_order"])),
    }
    log = read_crawl_log(OUT).to_pandas()
    want_log = oracle.crawl_log.to_pandas()
    checks["crawl_order"] = bool(
        len(log) == len(want_log)
        and (log["canonical_url"].to_numpy()
             == want_log["canonical_url"].to_numpy()).all()
        and (log["seq"].to_numpy() == want_log["seq"].to_numpy()).all()
    )
    import pyarrow.parquet as pq

    seen_dir = os.path.join(OUT, "seen_segments")
    hashes: set = set()
    for f in sorted(os.listdir(seen_dir)):
        if f.endswith(".parquet"):
            hashes.update(
                int(x)
                for x in pq.read_table(os.path.join(seen_dir, f))["url_hash"].to_pylist()
            )
    checks["seen_set"] = hashes == oracle.seen_hashes
    out = {
        "metric": "two-node cluster golden parity",
        "nodes": len(nodes),
        "task_node_spread": len(spread),
        "fetched": res.metrics["fetched"],
        "parity": checks,
        "ok": all(checks.values()),
    }
    ray.shutdown()
    cluster.shutdown()
    print(json.dumps(out))
    assert out["ok"], out


if __name__ == "__main__":
    main()
