"""Ray Data stages of the crawl pipeline.

Stateful setup happens ONCE per worker (the reference's module-global
session/limiter pattern, ``wikipedia_http.py:53-122``): the hot stages run
as STATELESS TASKS over a worker-process-global corpus cache fed by one
``ray.put`` broadcast (``make_resolver_fn`` / ``make_fetch_fn``) — same
amortization as an actor pool, none of the per-wave pool-startup cost, full
task elasticity. :class:`Resolver` and :class:`FetchExtract` carry the batch
bodies as static ``run`` methods over a :class:`VirtualWiki`.

- resolver      — sitelink resolution (batched wbgetentities analog),
                  explodes entities to (entity, lang) rows with canonical
                  URLs + 64-bit hashes; transient failures and robots
                  denials become ROW STATUS, never exceptions (SURVEY §7.5).
- fetch+extract — per-(entity, lang) fetch + parse: one HTML parse reused
                  for sections AND captions; chrome/mime filters; lead-image
                  acceptance. Emits nested payload rows (list<struct>).
- AttachBytes   — joins exploded image rows with the images input table
                  (broadcast lookup built once per worker); above the
                  broadcast limit the bytes are co-partitioned straight
                  from images.parquet to the output partitioning at
                  finalize (pipelines/bytes_shuffle.py). Runs inside the
                  final merge write so bytes move from source to disk
                  exactly once.

Explode helpers turn nested payload batches into the five output tables —
fully vectorized (Arrow list_flatten / list_parent_indices / struct_field).
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from wikicrawl.canonical import canonical_page_url, host_of, url_hash64
from wikicrawl.extract import build_payload
from wikicrawl.families import FAMILY_BY_CONTENT, LANGS
from wikicrawl.sections import extract_format_line
from wikicrawl.vwiki import VirtualWiki

# Worker-process-global corpus cache. Stages run as STATELESS TASKS whose
# setup cost is amortized here instead of in actor __init__: Ray reuses
# worker processes across tasks and waves, so each worker builds the
# VirtualWiki index exactly once per run (keyed by the broadcast refs) and
# every wave's tasks hit the cache — no per-wave actor-pool startup, no
# per-wave corpus reload, full task-scheduling elasticity.
_WIKI_CACHE: dict = {}


def _cached_wiki(sitelinks_ref, pages_ref=None) -> VirtualWiki:
    """``pages_ref``: a single ObjectRef OR a tuple/list of SHARD refs
    (the loader fans the corpus read out over Ray tasks; shards are
    contiguous row-group ranges in file order, so the zero-copy
    ``concat_tables`` below reassembles the exact original table as a
    few-chunk view — no worker-side copy)."""
    import ray

    p_refs = (tuple(pages_ref) if isinstance(pages_ref, (tuple, list))
              else (pages_ref,) if pages_ref is not None else ())
    key = (sitelinks_ref.hex(), tuple(r.hex() for r in p_refs) or None)
    wiki = _WIKI_CACHE.get(key)
    if wiki is None:
        from wikicrawl import schema

        sitelinks = ray.get(sitelinks_ref)
        if not p_refs:
            pages = schema.PAGES_HTML.empty_table()
        else:
            shards = ray.get(list(p_refs))
            pages = shards[0] if len(shards) == 1 else pa.concat_tables(shards)
        wiki = VirtualWiki(sitelinks, pages, {})
        # resolver tasks key as (sitelinks, None) and fetch tasks as
        # (sitelinks, pages); a worker alternating both must keep BOTH
        # entries, so evict only entries from a DIFFERENT corpus (prior
        # run) instead of clearing unconditionally (ADVICE r1)
        for k in [k for k in _WIKI_CACHE if k[0] != key[0]]:
            del _WIKI_CACHE[k]
        _WIKI_CACHE[key] = wiki
        # the parse allocates millions of short-lived DOM nodes per task;
        # with default GC thresholds every worker spends measurable CPU
        # re-tracing the long-lived corpus tables. Freeze what exists now
        # (survivors never re-traced) and raise gen0 so collections run
        # per-batch, not per-few-hundred allocations.
        import gc

        gc.collect()
        gc.freeze()
        gc.set_threshold(200_000, 50, 50)
    return wiki


def make_resolver_fn(sitelinks_ref, robots: dict | None = None):
    """Stateless-task resolver bound to the broadcast sitelinks table.

    When ``robots`` rules are given, disallowed URLs are re-statused to
    "robots" INSIDE the stage (distributed), so the driver never walks rows
    for the gate. A robots-denied URL is never 'seen' (oracle semantics)."""

    def resolve_batch(batch: pa.Table) -> pa.Table:
        out = Resolver.run(_cached_wiki(sitelinks_ref), batch)
        if robots:
            import urllib.parse

            status = out["status"].to_pylist()
            hosts = out["host"].to_pylist()
            paths = out["path"].to_pylist()
            changed = False
            for i, st in enumerate(status):
                if st != "resolved":
                    continue
                prefixes = robots.get(hosts[i], ())
                if prefixes:
                    path = urllib.parse.unquote(paths[i])
                    if any(path.startswith(p) for p in prefixes):
                        status[i] = "robots"
                        changed = True
            if changed:
                idx = out.schema.get_field_index("status")
                out = out.set_column(idx, "status", pa.array(status))
        return out

    return resolve_batch


def make_fetch_fn(sitelinks_ref, pages_ref):
    """Stateless-task fetch+extract bound to the broadcast corpus."""

    def fetch_batch(batch: pa.Table) -> pa.Table:
        return FetchExtract.run(_cached_wiki(sitelinks_ref, pages_ref), batch)

    return fetch_batch


def make_link_candidates_fn(robots: dict | None):
    """Admission-candidate stage appended to the fetch pipeline when link
    discovery is on: canonicalize + robots-gate + hash + LNK-id every
    in-body link INSIDE the workers, emitting list columns aligned with
    ``links``. The driver's admission step is then pure vectorized work
    (flatten, first-occurrence dedup, seen-set insert) — no per-link
    Python on the driver path (VERDICT r2 item 4)."""
    import urllib.parse

    robots = robots or {}

    def add_candidates(batch: pa.Table) -> pa.Table:
        links = batch["links"]
        if isinstance(links, pa.ChunkedArray):
            links = links.combine_chunks()
        langs = batch["lang"].to_pylist()
        urls: list[str] = []
        hosts: list[str] = []
        paths: list[str] = []
        hashes: list[int] = []
        ids: list[str] = []
        oks: list[bool] = []
        lengths = np.zeros(batch.num_rows, dtype=np.int64)
        for i, (lang, row_links) in enumerate(zip(langs, links.to_pylist())):
            row_links = row_links or []
            lengths[i] = len(row_links)
            for title in row_links:
                url = canonical_page_url(title, lang)
                host = host_of(url)
                path = urllib.parse.urlparse(url).path
                blocked = any(
                    urllib.parse.unquote(path).startswith(p)
                    for p in robots.get(host, ())
                )
                h = url_hash64(url)
                urls.append(url)
                hosts.append(host)
                paths.append(path)
                hashes.append(h)
                ids.append(f"LNK{h:016x}")
                oks.append(not blocked)
        offsets = pa.array(np.concatenate(([0], np.cumsum(lengths))),
                           type=pa.int32())

        def as_list(vals, typ):
            return pa.ListArray.from_arrays(offsets, pa.array(vals, type=typ))

        return (
            batch.append_column("link_url", as_list(urls, pa.string()))
            .append_column("link_host", as_list(hosts, pa.string()))
            .append_column("link_path", as_list(paths, pa.string()))
            .append_column("link_hash", as_list(hashes, pa.uint64()))
            .append_column("link_id", as_list(ids, pa.string()))
            .append_column("link_ok", as_list(oks, pa.bool_()))
        )

    return add_candidates


RESOLVED_SCHEMA = pa.schema(
    [
        ("family", pa.string()),
        ("family_rank", pa.int32()),
        ("entity_id", pa.string()),
        ("wikidata_id", pa.string()),
        ("seed_order", pa.int64()),
        ("lang", pa.string()),
        ("lang_rank", pa.int32()),
        ("page_title", pa.string()),
        ("canonical_url", pa.string()),
        ("host", pa.string()),
        ("path", pa.string()),
        ("url_hash", pa.uint64()),
        ("status", pa.string()),
        ("requests", pa.int64()),
        # BFS tier: 0 for seed-resolved rows, parent depth + 1 for
        # link-discovered rows (CrawlConfig.max_link_depth budget)
        ("depth", pa.int32()),
    ]
)


class Resolver:
    """Entity rows -> (entity, lang) rows with resolved titles.

    Output status: "resolved" | "no_sitelink" (entity had none for the lang)
    | "transient" (maxlag exhausted -> retry partition).
    """

    @staticmethod
    def run(wiki: VirtualWiki, batch: pa.Table) -> pa.Table:
        """VECTORIZED: one merge against the wide sitelink frame, per-lang
        column slices, and a stable position sort that reproduces the
        per-entity en-then-fr emission order exactly (no ``to_pylist``
        row loop — VERDICT r1 item 9). Per-URL quoting/hashing stay as
        C-backed calls per unique title."""
        import urllib.parse

        from wikicrawl.families import WBGETENTITIES_MAX_RETRIES

        df = batch.select(
            ["family", "family_rank", "entity_id", "wikidata_id", "seed_order"]
        ).to_pandas()
        n = len(df)
        if n == 0:
            return RESOLVED_SCHEMA.empty_table()
        df["__pos"] = np.arange(n, dtype=np.int64)
        wide = wiki.sitelinks_wide
        m = df.merge(wide, left_on="wikidata_id", right_index=True, how="left")
        m = m.sort_values("__pos", kind="mergesort").reset_index(drop=True)
        known = np.zeros(n, dtype=bool)
        for lang in LANGS:
            known |= m[f"title_{lang}"].notna().to_numpy()
        max_fails = m["max_fails"].fillna(0).astype(np.int64).to_numpy()
        transient = known & (max_fails >= WBGETENTITIES_MAX_RETRIES)
        attempts = np.where(transient, WBGETENTITIES_MAX_RETRIES, max_fails + 1)

        frames = []
        # transient entities: one en-row routed to the retry partition
        tsub = m[transient].copy()
        if len(tsub):
            tsub["lang"] = LANGS[0]
            tsub["lang_rank"] = np.int32(0)
            tsub["page_title"] = ""
            tsub["status"] = "transient"
            tsub["requests"] = attempts[transient]
            frames.append(tsub)
        # non-transient entities: one row per lang (resolved / no_sitelink);
        # attempts accounted once per entity on the lang_rank==0 row
        ok = ~transient
        for lang_rank, lang in enumerate(LANGS):
            sub = m[ok].copy()
            titles = sub[f"title_{lang}"]
            sub["lang"] = lang
            sub["lang_rank"] = np.int32(lang_rank)
            sub["page_title"] = titles.fillna("")
            sub["status"] = np.where(titles.notna(), "resolved", "no_sitelink")
            sub["requests"] = attempts[ok] if lang_rank == 0 else 0
            frames.append(sub)
        out = pd.concat(frames, ignore_index=True)
        # exact reference emission order: input position, then lang rank
        out = out.sort_values(["__pos", "lang_rank"], kind="mergesort")

        titles = out["page_title"].tolist()
        langs = out["lang"].tolist()
        urls = [
            canonical_page_url(t, l) if t else ""
            for t, l in zip(titles, langs)
        ]
        hosts = [f"{l}.wikipedia.org" if t else "" for t, l in zip(titles, langs)]
        paths = [
            urllib.parse.urlparse(u).path if u else "" for u in urls
        ]
        hashes = np.array(
            [url_hash64(u) if u else 0 for u in urls], dtype=np.uint64
        )
        return pa.table(
            {
                "family": pa.array(out["family"].tolist()),
                "family_rank": pa.array(out["family_rank"].to_numpy(), type=pa.int32()),
                "entity_id": pa.array(out["entity_id"].tolist()),
                "wikidata_id": pa.array(out["wikidata_id"].tolist()),
                "seed_order": pa.array(out["seed_order"].to_numpy(), type=pa.int64()),
                "lang": pa.array(langs),
                "lang_rank": pa.array(out["lang_rank"].to_numpy(), type=pa.int32()),
                "page_title": pa.array(titles),
                "canonical_url": pa.array(urls),
                "host": pa.array(hosts),
                "path": pa.array(paths),
                "url_hash": pa.array(hashes, type=pa.uint64()),
                "status": pa.array(out["status"].tolist()),
                "requests": pa.array(out["requests"].astype(np.int64).to_numpy(), type=pa.int64()),
                "depth": pa.array(np.zeros(len(out), dtype=np.int32), type=pa.int32()),
            },
            schema=RESOLVED_SCHEMA,
        )


PAYLOAD_SCHEMA = pa.schema(
    [
        ("family", pa.string()),
        ("family_rank", pa.int32()),
        ("entity_id", pa.string()),
        ("wikidata_id", pa.string()),
        ("lang", pa.string()),
        ("page_title", pa.string()),
        ("site_key", pa.string()),
        ("page_url", pa.string()),
        ("main_image_url", pa.string()),
        ("http_status", pa.int32()),
        ("success", pa.bool_()),
        ("has_content", pa.bool_()),
        ("requests", pa.int64()),
        (
            "sections",
            pa.list_(
                pa.struct([("title", pa.string()), ("content", pa.large_string())])
            ),
        ),
        (
            "images",
            pa.list_(
                pa.struct(
                    [
                        ("display_order", pa.int32()),
                        ("image_id", pa.string()),
                        ("image_url", pa.string()),
                        ("image_url_normalized", pa.string()),
                        ("thumbnail_url", pa.string()),
                        ("media_type", pa.string()),
                        ("file_name", pa.string()),
                        ("commons_title", pa.string()),
                        ("caption", pa.string()),
                    ]
                )
            ),
        ),
        # in-body /wiki/ links (document order, display titles) — the
        # dynamic-frontier feed when CrawlConfig.discover_links is on
        ("links", pa.list_(pa.string())),
        # BFS tier of the fetched page (passthrough from the resolved row;
        # discovered links inherit depth + 1)
        ("depth", pa.int32()),
        # global crawl sequence of the (entity, lang) fetch — carried through
        # every derived row so staged merges resolve cross-batch duplicate
        # keys in CRAWL order (fr-overwrites-en semantics), never in the
        # order the staged blocks arrive (ADVICE r1)
        ("_seq", pa.int64()),
    ]
)


def _seq_col(batch: pa.Table) -> pa.ChunkedArray | pa.Array:
    """_seq column of a payload batch (zeros when absent — direct test use)."""
    if "_seq" in batch.column_names:
        return batch["_seq"]
    return pa.array(np.zeros(batch.num_rows, dtype=np.int64))


class FetchExtract:
    """(entity, lang, title) rows -> nested payload rows."""

    @staticmethod
    def run(wiki: VirtualWiki, batch: pa.Table) -> pa.Table:
        # columnar input decode: pull each needed column ONCE per batch
        # (batch.to_pylist() builds a dict per row — measured overhead on
        # the hot fetch path; VERDICT r3 item 5). The per-page payload
        # build itself is inherently per-row Python (parse/soup walk).
        n = batch.num_rows
        names = batch.column_names
        family = batch["family"].to_pylist()
        family_rank = batch["family_rank"].to_pylist()
        entity_id = batch["entity_id"].to_pylist()
        wikidata_id = batch["wikidata_id"].to_pylist()
        lang = batch["lang"].to_pylist()
        page_title = batch["page_title"].to_pylist()
        depth = batch["depth"].to_pylist() if "depth" in names else [0] * n
        seq = batch["seq"].to_pylist() if "seq" in names else [0] * n
        # the virtual wiki looks up every page row of the batch in one
        # vectorized probe; a live wiki fetches per request instead
        load_pages = getattr(wiki, "load_pages", None)
        if load_pages is not None:
            load_pages(lang, page_title)
        out = {f.name: [] for f in PAYLOAD_SCHEMA}
        for i in range(n):
            fam = FAMILY_BY_CONTENT[family[i]]
            p = build_payload(wiki, page_title[i], lang[i], fam.needs_image)
            out["family"].append(family[i])
            out["family_rank"].append(family_rank[i])
            out["entity_id"].append(entity_id[i])
            out["wikidata_id"].append(wikidata_id[i])
            out["lang"].append(lang[i])
            out["page_title"].append(p["page_title"])
            out["site_key"].append(p["site_key"])
            out["page_url"].append(p["page_url"])
            out["main_image_url"].append(p["main_image_url"])
            out["http_status"].append(p["http_status"])
            out["success"].append(p["success"])
            out["has_content"].append(p["has_content"])
            out["requests"].append(p["requests"])
            out["sections"].append(
                [{"title": t, "content": c} for t, c in p["sections"]]
            )
            out["images"].append(p["page_images"])
            out["links"].append(p.get("links", []))
            out["depth"].append(depth[i])
            out["_seq"].append(seq[i])
        return pa.table(out, schema=PAYLOAD_SCHEMA)


class AttachBytes:
    """Image rows + images input table -> rows extended with bytes/w/h/fmt/phash.

    The images table is passed as an object ref (the broadcast a read task
    put in plasma, fetched zero-copy once in ``__init__``) or as a parquet
    path; either way the lookup index is built ONCE per actor, never per
    batch.

    Scale path: when the table exceeds the broadcast threshold, finalize
    co-partitions the bytes straight from images.parquet to the output
    partitioning once (``pipelines/bytes_shuffle.py``) so each merge task
    reads only its own partition's bytes."""

    def __init__(self, images_ref=None, images_path: str | None = None):
        import ray

        if images_ref is not None:
            tbl: pa.Table = ray.get(images_ref)
        else:
            tbl = pq.read_table(images_path)
        # vectorized lookup: pd.Index.get_indexer is C-speed on both build
        # and probe (a Python dict over ~10^6 ids cost seconds per worker)
        self.idx = pd.Index(tbl["image_id"].to_pandas())
        self.tbl = tbl

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _attach_from(self.tbl, self.idx, batch)


def _attach_from(tbl: pa.Table, idx: pd.Index, batch: pa.Table) -> pa.Table:
    take = idx.get_indexer(batch["image_id"].to_pandas())
    present = pa.array(take >= 0)
    take_masked = (
        pa.array([int(t) if t >= 0 else None for t in take], type=pa.int64())
        if (take < 0).any() else pa.array(take.astype(np.int64))
    )
    src = tbl.take(take_masked)
    cols = dict(zip(batch.column_names, batch.columns))
    for name in ("bytes", "w", "h", "fmt", "phash"):
        cols[name] = src[name]
    cols["bytes_found"] = present
    return pa.table(cols)


# ------------------------------------------------------------ explodes


def _now_us() -> int:
    return int(datetime.now(timezone.utc).timestamp() * 1_000_000)


def payload_to_pages(batch: pa.Table) -> pa.Table:
    """Vectorized page-row projection (no Python row loop)."""
    from wikicrawl import schema as S

    now = _now_us()
    n = batch.num_rows
    main = batch["main_image_url"]
    main_or_null = pc.if_else(pc.equal(main, pa.scalar("")), pa.scalar(None, pa.string()), main)
    now_arr = pa.array(np.full(n, now, dtype=np.int64), type=pa.timestamp("us"))
    success_at = pc.if_else(
        batch["success"].combine_chunks() if isinstance(batch["success"], pa.ChunkedArray) else batch["success"],
        now_arr,
        pa.scalar(None, pa.timestamp("us")),
    )
    arrays = [
        batch["wikidata_id"],
        batch["lang"],
        batch["family"],
        batch["site_key"],
        batch["page_title"],
        batch["page_url"],
        main_or_null,
        pa.array(np.ones(n, dtype=bool)),
        pc.cast(batch["http_status"], pa.int32()),
        now_arr,
        success_at,
    ]
    arrays = [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in arrays]
    return pa.Table.from_arrays(arrays, schema=S.PAGES).append_column(
        "_seq", _seq_col(batch)
    )


def _list_positions(list_array: pa.ChunkedArray | pa.ListArray) -> np.ndarray:
    """1-based position of each flattened element within its parent list."""
    lengths = pc.list_value_length(list_array).to_numpy(zero_copy_only=False)
    lengths = np.nan_to_num(lengths, nan=0).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    # arange per list, vectorized: global arange minus each list's start offset
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return (np.arange(total, dtype=np.int64) - starts + 1).astype(np.int32)


def payload_to_sections(batch: pa.Table) -> pa.Table:
    """Vectorized explode: Arrow list_flatten/list_parent_indices — no Python
    row loop (this stage processes every section of every page)."""
    from wikicrawl import schema as S

    batch = batch.filter(pc.and_(batch["success"], batch["has_content"]))
    if batch.num_rows == 0:
        return S.SECTIONS.empty_table().append_column(
            "_seq", pa.array([], pa.int64())
        )
    secs = batch["sections"].combine_chunks()
    flat = pc.list_flatten(secs)
    parents = pc.list_parent_indices(secs)
    title = pc.struct_field(flat, "title")
    content = pc.replace_substring(
        pc.struct_field(flat, "content"), "[edit]", ""
    )
    title = pc.utf8_slice_codeunits(title, 0, 300)
    arrays = [
        pc.take(batch["wikidata_id"], parents),
        pc.take(batch["lang"], parents),
        pa.array(_list_positions(secs), type=pa.int32()),
        pc.take(batch["family"], parents),
        pc.cast(title, pa.string()),
        pc.cast(content, pa.large_string()),
    ]
    return pa.Table.from_arrays(arrays, schema=S.SECTIONS).append_column(
        "_seq", pc.take(_seq_col(batch), parents)
    )


IMAGE_REFS_SCHEMA = pa.schema(
    [
        ("wikidata_id", pa.string()),
        ("lang", pa.string()),
        ("display_order", pa.int32()),
        ("item_type", pa.string()),
        ("image_id", pa.string()),
        ("image_url", pa.string()),
        ("image_url_normalized", pa.string()),
        ("thumbnail_url", pa.string()),
        ("media_type", pa.string()),
        ("file_name", pa.string()),
        ("commons_title", pa.string()),
        ("caption", pa.string()),
        ("is_main_image", pa.bool_()),
    ]
)


def payload_to_image_refs(batch: pa.Table) -> pa.Table:
    """Vectorized explode of nested image items (bytes attached next)."""
    empty = IMAGE_REFS_SCHEMA.empty_table().append_column(
        "_seq", pa.array([], pa.int64())
    )
    if batch.num_rows == 0:
        return empty
    imgs = batch["images"].combine_chunks()
    flat = pc.list_flatten(imgs)
    if len(flat) == 0:
        return empty
    parents = pc.list_parent_indices(imgs)
    image_url = pc.struct_field(flat, "image_url")
    main = pc.take(batch["main_image_url"], parents)
    is_main = pc.and_(
        pc.not_equal(main, pa.scalar("")), pc.equal(image_url, main)
    )
    arrays = [
        pc.take(batch["wikidata_id"], parents),
        pc.take(batch["lang"], parents),
        pc.cast(pc.struct_field(flat, "display_order"), pa.int32()),
        pc.take(batch["family"], parents),
        pc.struct_field(flat, "image_id"),
        image_url,
        pc.struct_field(flat, "image_url_normalized"),
        pc.struct_field(flat, "thumbnail_url"),
        pc.struct_field(flat, "media_type"),
        pc.struct_field(flat, "file_name"),
        pc.struct_field(flat, "commons_title"),
        pc.struct_field(flat, "caption"),
        is_main,
    ]
    return pa.Table.from_arrays(arrays, schema=IMAGE_REFS_SCHEMA).append_column(
        "_seq", pc.take(_seq_col(batch), parents)
    )


def payload_to_entity_images(batch: pa.Table) -> pa.Table:
    """Vectorized writeback-row projection: families needing an image are a
    static is_in set; image_column scatters via a pandas dict-map (no
    Python row loop — VERDICT r2 item 7)."""
    from wikicrawl import schema as S

    needs = [f for f, spec in FAMILY_BY_CONTENT.items() if spec.needs_image]
    mask = pc.and_(
        pc.is_in(batch["family"], value_set=pa.array(needs, type=pa.string())),
        pc.and_(
            pc.is_valid(batch["main_image_url"]),
            pc.not_equal(pc.fill_null(batch["main_image_url"], ""), ""),
        ),
    )
    sub = batch.append_column("__seqx", _seq_col(batch)).filter(mask)
    img_col = sub["family"].to_pandas().map(
        {f: FAMILY_BY_CONTENT[f].image_column for f in needs}
    )
    arrays = [
        sub["family"].combine_chunks(),
        sub["entity_id"].combine_chunks(),
        sub["wikidata_id"].combine_chunks(),
        pa.array(img_col, type=pa.string()),
        sub["main_image_url"].combine_chunks(),
    ]
    return pa.Table.from_arrays(arrays, schema=S.ENTITY_IMAGES).append_column(
        "_seq", pc.cast(sub["__seqx"].combine_chunks(), pa.int64())
    )


def payload_to_movie_format(batch: pa.Table) -> pa.Table:
    """Vectorized Fiche-technique extraction: movie-family rows filter with
    is_in, sections explode via list_flatten/list_parent_indices, and only
    the rare matched sections (one per fr movie page) run the Python
    ``extract_format_line`` parser."""
    from wikicrawl import schema as S

    now = _now_us()
    empty = S.MOVIE_FORMAT.empty_table().append_column(
        "_seq", pa.array([], pa.int64())
    )
    movie_fams = [
        f for f, spec in FAMILY_BY_CONTENT.items() if spec.process_id == 201
    ]
    mask = pc.and_(
        pc.and_(
            pc.is_in(batch["family"],
                     value_set=pa.array(movie_fams, type=pa.string())),
            pc.equal(batch["lang"], "fr"),
        ),
        pc.and_(batch["success"], batch["has_content"]),
    )
    sub = batch.append_column("__seqx", _seq_col(batch)).filter(mask)
    if sub.num_rows == 0:
        return empty
    secs = sub["sections"].combine_chunks()
    flat = pc.list_flatten(secs)
    if len(flat) == 0:
        return empty
    parents = pc.list_parent_indices(secs)
    title = pc.utf8_slice_codeunits(pc.struct_field(flat, "title"), 0, 300)
    m = pc.equal(title, "Fiche technique")
    keep_idx = pc.filter(parents, m)
    if len(keep_idx) == 0:
        return empty
    content = pc.filter(
        pc.replace_substring(pc.struct_field(flat, "content"), "[edit]", ""), m
    )
    fmt = [extract_format_line(c) for c in content.to_pylist()]
    arrays = [
        pc.take(sub["entity_id"], keep_idx).combine_chunks(),
        pa.array(fmt, type=pa.string()),
        pa.array(np.full(len(fmt), now, dtype=np.int64),
                 type=pa.timestamp("us")),
    ]
    return pa.Table.from_arrays(arrays, schema=S.MOVIE_FORMAT).append_column(
        "_seq", pc.cast(pc.take(sub["__seqx"], keep_idx).combine_chunks(),
                        pa.int64())
    )
