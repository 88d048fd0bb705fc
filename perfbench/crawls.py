"""Crawl workloads: a seed-list crawl for throughput and a strict-order
discovery crawl under a tight per-host politeness budget.

Both crawl one corpus made by ``wikicrawl.synth.generate`` from the run's
seed. One timed operation is one complete crawl into an empty output
directory; its output is checked against the library's straight-line
oracles after every pass. The traced run adds a layer-replay phase that
calls each crawl layer's public API single-threaded in this process, on the
run's own corpus and output.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import time

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from session import warm_workers

# corpus size: pages are ~1.8 per entity; page_scale multiplies body text
# (and so per-page parse work). Sized so that generation, the oracle and
# two or more timed passes fit one run on a 4-core machine.
ENTITIES = 600
PAGE_SCALE = 2
PARITY_RATE = 40  # politeness tokens per tick per host (crawl_parity)
PARITY_WAVE = 128

# columns the oracle cannot reproduce: timestamps and bookkeeping
# (the same exclusions as the golden-parity tests)
IGNORED_COLS = {"last_crawled_at", "last_success_at", "dat", "_row_id", "_dat_creat"}
TABLE_KEYS = {
    "pages": ["wikidata_id", "lang"],
    "sections": ["wikidata_id", "lang", "display_order"],
    "images_out": ["wikidata_id", "lang", "display_order"],
}


def corpus_for(cache_dir: str, seed: int, n_entities: int) -> str:
    """Corpus directory for (seed, size, page_scale, SYNTH_VERSION),
    generated on first use. Generation is deterministic in those four
    values, so a cached copy is the same input."""
    from wikicrawl.synth import SYNTH_VERSION, generate

    path = os.path.join(
        cache_dir, f"n{n_entities}-x{PAGE_SCALE}-s{seed}-v{SYNTH_VERSION}")
    if not os.path.exists(os.path.join(path, "meta.json")):
        tmp = path + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(tmp, n_entities=n_entities, seed=seed, page_scale=PAGE_SCALE)
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    return path


def _frames_equal(got: pd.DataFrame, want: pd.DataFrame, label: str) -> list[str]:
    if list(got.columns) != list(want.columns):
        return [f"{label}: columns {list(got.columns)} != {list(want.columns)}"]
    if len(got) != len(want):
        return [f"{label}: {len(got)} rows != {len(want)}"]
    bad = []
    for c in got.columns:
        a, b = got[c], want[c]
        same = ((a.fillna("\x00") == b.fillna("\x00")).all()
                if a.dtype == object else a.equals(b))
        if not same:
            bad.append(f"{label}: column {c} differs")
    return bad


def _norm(tbl: pa.Table, keys: list[str]) -> pd.DataFrame:
    df = tbl.to_pandas()
    df = df.drop(columns=[c for c in df.columns if c in IGNORED_COLS])
    return df.sort_values(keys).reset_index(drop=True)


class CrawlWorkload:
    """Shared logic of both crawl workloads; subclasses fix the config,
    the oracle and the output check."""

    name = ""
    discover = False
    tracer = None  # the traced crawl records spans through trace_targets()
    not_run = {"queries.": "a crawl workload runs no query",
               "training_data.": "a crawl workload runs no query"}

    def __init__(self, work_dir: str, seed: int, num_cpus: int):
        self.work = work_dir
        self.seed = seed
        self.num_cpus = num_cpus
        self.out = os.path.join(work_dir, f"out-{self.name}")
        self.corpus = None
        self.oracle = None
        self.oracle_s = 0.0

    # ---- inputs ----------------------------------------------------------

    def prepare(self) -> None:
        cache = os.path.join(self.work, "corpus")
        self.corpus = corpus_for(cache, self.seed, ENTITIES)
        t0 = time.perf_counter()
        self.oracle = self.run_oracle()
        self.oracle_s = time.perf_counter() - t0

    def crawl_kwargs(self) -> dict:
        """CrawlConfig settings of every crawl of this workload."""
        return dict(
            durable_payload=True,
            fetch_concurrency=max(2, self.num_cpus - 1), write_workers=2,
            resolve_concurrency=max(1, self.num_cpus // 4),
            n_frontier_shards=2, n_seen_shards=2, n_table_partitions=8,
            **self.schedule(),
        )

    # ---- operations --------------------------------------------------------

    def warm_up(self) -> None:
        warm_workers(("wikicrawl.pipelines.crawl", "wikicrawl.state.frontier",
                      "wikicrawl.state.seen"))

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self) -> dict:
        """One complete crawl into an empty output directory (call
        :meth:`reset` first, outside the timed region)."""
        from wikicrawl.pipelines.crawl import CrawlConfig, crawl

        res = crawl(CrawlConfig(corpus_dir=self.corpus, out_dir=self.out,
                                **self.crawl_kwargs()))
        return {"items": res.metrics["fetched"],
                "rows": res.tables["images_out"].read_all().num_rows, "ops": 1,
                "metrics": res.metrics}

    # ---- per-layer numbers ---------------------------------------------------

    def crawl_layer_metrics(self, metrics: dict) -> dict:
        """The laps and counters ``crawl()`` returns. The laps overlap
        (``job_exec`` runs in background threads while the main-thread laps
        run), so they do not add up to the wall."""
        t = metrics.get("timings", {})
        out = {f"crawl.{k}_s": t.get(k, 0.0) for k in (
            "drv_seen", "drv_fpop", "drv_fpush", "drv_journal", "job_setup",
            "job_exec", "resolve", "finalize_merges", "task_cpu")}
        for k in ("requests", "fetched", "url_dups", "discovered",
                  "staging_compacted_files"):
            out[f"crawl.{k}"] = metrics.get(k, 0)
        out["crawl.fetch_yield"] = (metrics.get("fetched", 0)
                                    / max(1, metrics.get("requests", 0)))
        return out

    def layer_metrics(self, base: list[dict], tracer, run_op) -> dict:
        """Per-layer metrics of the traced run: crawl()'s own laps and
        counters (median over the untraced passes ``base``), then the
        layer replay and the maintenance mix, each one operation."""
        laps = [{**self.crawl_layer_metrics(s["metrics"]),
                 "crawl.image_rows_per_s": s["rows"] / s["wall"]} for s in base]
        m = {k: statistics.median(x[k] for x in laps) for k in laps[0]} if laps else {}
        m.update(run_op(f"{self.name}.replay", lambda: (self.replay(tracer), [])) or {})
        m.update(self.maintenance(tracer, run_op))
        return m

    def trace_targets(self):
        """(owner, attribute, span name) of the library calls made in this
        process that the traced crawl records."""
        from wikicrawl import checkpoint
        from wikicrawl.pipelines import crawl as crawl_mod
        from wikicrawl.state import frontier, seen

        return [
            (crawl_mod, "crawl", "pipelines.crawl"),
            (crawl_mod, "owned_seed_batches", "pipelines.owned_seed_batches"),
            (crawl_mod, "_merge_staged", "pipelines.merge_staged"),
            (crawl_mod, "read_crawl_log", "pipelines.read_crawl_log"),
            (seen.ShardedSeenSet, "insert_batch", "seen.insert_batch"),
            (seen.ShardedSeenSet, "flush_segments_async", "seen.flush_segments"),
            (frontier.ShardedFrontier, "push_table", "frontier.push_table"),
            (frontier.ShardedFrontier, "pop_wave_table", "frontier.pop_wave_table"),
            (frontier.ShardedFrontier, "backlog", "frontier.backlog"),
            (checkpoint.CheckpointLog, "commit_wave", "checkpoint.commit_wave"),
        ]

    def replay(self, tracer) -> dict:
        """Drive each crawl layer's public API single-threaded in this
        process, on this run's corpus and last output. Returns per-layer
        metrics; every call is a span of ``tracer``."""
        from wikicrawl import codec
        from wikicrawl.canonical import url_hash64_batch
        from wikicrawl.pipelines.crawl import open_tables, owned_seed_batches
        from wikicrawl.stages import crawl_stages as cs
        from wikicrawl.state.frontier import FrontierShardState
        from wikicrawl.state.seen import SeenSet
        from wikicrawl.vwiki import VirtualWiki

        with open(os.path.join(self.corpus, "meta.json")) as f:
            robots = json.load(f)["robots_disallow"]
        m: dict = {}

        # stages/crawl_stages + extract: resolve and fetch+extract
        wiki = VirtualWiki.load(self.corpus, with_pages=True)
        with tracer.span("replay.owned_seed_batches"):
            slices = list(owned_seed_batches(self.corpus, 256))
        resolved = []
        with tracer.span("crawl_stages.Resolver.run"):
            for sl in slices:
                resolved.append(cs.Resolver.run(wiki, sl))
        m["crawl_stages.resolve_s"] = tracer.total_s("crawl_stages.Resolver.run")
        ok = [r.filter(pc.equal(r["status"], "resolved")) for r in resolved]
        payloads = []
        link_fn = cs.make_link_candidates_fn(robots) if self.discover else None
        with tracer.span("crawl_stages.FetchExtract.run"):
            for r in ok:
                if r.num_rows:
                    payloads.append(cs.FetchExtract.run(wiki, r))
        if link_fn is not None:
            with tracer.span("crawl_stages.link_candidates"):
                payloads = [link_fn(p) for p in payloads]
        fe_s = tracer.total_s("crawl_stages.FetchExtract.run")
        n_pages = sum(p.num_rows for p in payloads)
        m["crawl_stages.fetch_extract_s"] = fe_s
        m["crawl_stages.pages_per_s"] = n_pages / fe_s if fe_s > 0 else 0.0
        derive = {
            "pages": cs.payload_to_pages, "sections": cs.payload_to_sections,
            "images_out": cs.payload_to_image_refs,
            "entity_images": cs.payload_to_entity_images,
            "movie_format": cs.payload_to_movie_format,
        }
        derived: dict[str, list] = {k: [] for k in derive}
        with tracer.span("crawl_stages.payload_split"):
            for p in payloads:
                for k, fn in derive.items():
                    derived[k].append(fn(p))
        m["crawl_stages.payload_split_s"] = tracer.total_s("crawl_stages.payload_split")

        # state/table: the same rows merged twice -> insert path, update path
        attach = cs.AttachBytes(images_path=os.path.join(self.corpus, "images.parquet"))
        batches = {}
        for k, parts in derived.items():
            t = pa.concat_tables([x for x in parts if x.num_rows] or parts[:1])
            if k == "images_out":
                t = attach(t).drop_columns(["bytes_found"])
            batches[k] = t
        scratch = os.path.join(self.work, f"replay-{self.name}")
        shutil.rmtree(scratch, ignore_errors=True)
        tables = open_tables(scratch, 8)
        for phase in ("insert", "update"):
            with tracer.span(f"table.merge_insert.{phase}"):
                for k, t in batches.items():
                    tables[k].merge_insert(t, clock=1)
        m["table.merge_insert_s"] = tracer.total_s("table.merge_insert.insert")
        m["table.merge_update_s"] = tracer.total_s("table.merge_insert.update")
        files = glob.glob(os.path.join(scratch, "*", "part-*.parquet"))
        n_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        m["table.files_written"] = len(files)
        m["table.bytes_per_row"] = (sum(os.path.getsize(f) for f in files)
                                    / max(1, n_rows))

        # canonical + state/seen: the admission stream (seed URLs, then the
        # discovered link candidates in crawl order), wave-sized batches
        urls = [u for r in ok for u in r["canonical_url"].to_pylist()]
        if self.discover:
            for p in payloads:
                urls += pc.list_flatten(p["link_url"]).to_pylist()
        with tracer.span("canonical.url_hash64_batch"):
            keys = url_hash64_batch(urls)
        seen = SeenSet()
        n_new = 0
        with tracer.span("seen.SeenSet.insert_batch"):
            for i in range(0, len(keys), 1024):
                n_new += int(seen.insert_batch(keys[i:i + 1024]).sum())
        with tracer.span("seen.SeenSet.contains_batch"):
            hit = seen.contains_batch(keys)
        m["seen.insert_s"] = tracer.total_s("seen.SeenSet.insert_batch")
        m["seen.probe_s"] = tracer.total_s("seen.SeenSet.contains_batch")
        m["seen.keys"] = len(seen)
        m["seen.new_ratio"] = n_new / max(1, len(keys))
        if not hit.all():
            raise AssertionError("seen set lost an inserted key")

        # state/frontier: the admitted rows under this workload's budget
        rate = self.schedule().get("host_rate", 1e9)
        state = FrontierShardState(0, rate, rate, robots)
        ticks = emitted = 0
        with tracer.span("frontier.push_table_rows"):
            for r in ok:
                if r.num_rows:
                    state.push_table_rows(r)
        with tracer.span("frontier.pop_wave_table_state"):
            while state.backlog():
                t = state.pop_wave_table_state(cs.RESOLVED_SCHEMA)
                ticks += 1
                emitted += t.num_rows if t is not None else 0
        m["frontier.push_s"] = tracer.total_s("frontier.push_table_rows")
        m["frontier.pop_s"] = tracer.total_s("frontier.pop_wave_table_state")
        m["frontier.ticks"] = ticks
        m["frontier.emitted"] = emitted

        # codec: committed image bytes decode to the corpus image exactly
        out_imgs = open_tables(self.out, 8)["images_out"].read_all()
        out_imgs = out_imgs.filter(pc.is_valid(out_imgs["bytes"]))
        src = pq.read_table(os.path.join(self.corpus, "images.parquet"))
        src_idx = pd.Index(src["image_id"].to_pandas())
        n_img, worst = 0, float("inf")
        with tracer.span("codec.decode"):
            for img_id, data, fmt in zip(out_imgs["image_id"].to_pylist(),
                                         out_imgs["bytes"].to_pylist(),
                                         out_imgs["fmt"].to_pylist()):
                j = src_idx.get_loc(img_id)
                ref = codec.decode(src["bytes"][j].as_py(), src["fmt"][j].as_py())
                worst = min(worst, codec.psnr(ref, codec.decode(data, fmt)))
                n_img += 1
        m["codec.decode_s"] = tracer.total_s("codec.decode")
        m["codec.images"] = n_img
        if worst != float("inf"):
            raise AssertionError(f"committed image differs from corpus (psnr {worst})")
        return m

    def maintenance(self, tracer, run_op) -> dict:
        """No maintenance mix by default (see :class:`CrawlBulk`)."""
        return {}


class CrawlBulk(CrawlWorkload):
    """Seed-list crawl, throughput schedule: overlapping waves, ample
    politeness budget, no link discovery, durable payload deltas."""

    name = "crawl_bulk"

    def schedule(self) -> dict:
        return {"strict_order": False, "discover_links": False,
                "entity_wave": 1024, "fetch_batch": 128}

    def run_oracle(self):
        from wikicrawl.oracle import run_oracle

        return run_oracle(self.corpus)

    def check(self) -> list[dict]:
        from wikicrawl.pipelines.crawl import open_tables

        tables = open_tables(self.out, 8)
        bad = []
        for name, keys in TABLE_KEYS.items():
            bad += _frames_equal(_norm(tables[name].read_all(), keys),
                                 _norm(getattr(self.oracle, name), keys), name)
        return [{"op": self.name, "kind": "mismatch", "msg": b} for b in bad]

    def maintenance(self, tracer, run_op) -> dict:
        """Refresh every seed-owned entity into the existing tables (the
        keyed-update path of state/table), then the three maintenance scans
        over the refreshed tables. Each call is one operation of the run,
        made through ``run_op(name, fn)``; ``fn`` returns (value, mismatches).
        ``chrome_image_breakdown`` raises KeyError on a crawled images_out
        with no chrome rows (pipelines/maintenance.py); that failure is
        counted, not skipped."""
        import ray.data as rd

        from wikicrawl.pipelines import maintenance as mt
        from wikicrawl.pipelines.crawl import open_tables

        tables = open_tables(self.out, 8)
        before = tables["pages"].read_all()
        cutoff = int(pc.max(before["last_crawled_at"]).cast(pa.int64()).as_py()) + 1

        def recrawl():
            with tracer.span("maintenance.recrawl_stale"):
                res = mt.recrawl_stale(self.corpus, self.out, cutoff,
                                       **self.crawl_kwargs())
            after = open_tables(self.out, 8)["pages"].read_all()
            a = after.to_pandas().sort_values(["wikidata_id", "lang"])
            b = before.to_pandas().sort_values(["wikidata_id", "lang"])
            bad = []
            if res["stale"] == 0:
                bad.append("recrawl selected no stale entity")
            if (len(a) != len(b)
                    or not (a["_row_id"].to_numpy() == b["_row_id"].to_numpy()).all()):
                bad.append("recrawl changed row count or _row_id")
            elif not (a["last_crawled_at"].to_numpy()
                      > b["last_crawled_at"].to_numpy()).all():
                bad.append("recrawl left last_crawled_at behind")
            return None, bad

        def scan(fn_name, *args):
            def call():
                with tracer.span(f"maintenance.{fn_name}"):
                    getattr(mt, fn_name)(*args)
                return None, []
            return call

        images_ds = rd.read_parquet(os.path.join(self.corpus, "images.parquet"))
        run_op("maintenance.recrawl_stale", recrawl)
        tables = open_tables(self.out, 8)
        run_op("maintenance.shared_main_images",
               scan("shared_main_images", tables["pages"]))
        run_op("maintenance.phash_dup_images", scan("phash_dup_images", images_ds))
        run_op("maintenance.chrome_image_breakdown",
               scan("chrome_image_breakdown", tables["images_out"]))
        return {f"maintenance.{n}_s": tracer.total_s(f"maintenance.{n}") for n in (
            "recrawl_stale", "shared_main_images", "phash_dup_images",
            "chrome_image_breakdown")}


class CrawlParity(CrawlWorkload):
    """The reference's chunk-serial schedule with link discovery under a
    tight per-host budget: many small waves, each waiting for its job."""

    name = "crawl_parity"
    discover = True
    not_run = {**CrawlWorkload.not_run,
               "maintenance.": "the maintenance mix runs on crawl_bulk's output only"}

    def schedule(self) -> dict:
        return {"strict_order": True, "discover_links": True,
                "host_rate": PARITY_RATE, "host_burst": PARITY_RATE,
                "entity_wave": PARITY_WAVE}

    def run_oracle(self):
        from wikicrawl.oracle import run_discovery_oracle

        return run_discovery_oracle(self.corpus, entity_wave=PARITY_WAVE,
                                    host_rate=PARITY_RATE, host_burst=PARITY_RATE)

    def check(self) -> list[dict]:
        from wikicrawl.pipelines.crawl import read_crawl_log

        got = read_crawl_log(self.out).to_pandas()
        want = self.oracle.crawl_log.to_pandas()
        if len(got) != len(want):
            bad = [f"crawl log: {len(got)} rows != oracle {len(want)}"]
        else:
            bad = [f"crawl log: {c} order differs from the oracle"
                   for c in ("canonical_url", "seq")
                   if not (got[c].to_numpy() == want[c].to_numpy()).all()]
        return [{"op": self.name, "kind": "mismatch", "msg": b} for b in bad]
