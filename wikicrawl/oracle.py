"""Straight-line oracle: the reference crawler's semantics, serially.

A direct single-threaded re-statement of the reference lifecycle
(``wikipedia_crawler.py:773-888`` + ``f_writelangtodb``,
``wikipedia_page_writer.py:193-401``) over the synthetic virtual wiki. The
Ray Data engine must reproduce this oracle's output tables, crawl order and
URL-seen set byte-for-byte (timestamps excluded) — SURVEY §5.1.

Semantics encoded here:
- family precedence: ownership = the LOWEST-rank family whose seed table
  contains the Qid (the SQL exclusion chains are membership-based,
  ``wikipedia_crawler.py:71-79``), regardless of crawl outcome;
- within a family, seed order ASC (``ORDER BY id ASC``); per entity,
  languages en then fr (submission-order drain);
- Qid validity filter ``^Q[0-9]+$``;
- transient sitelink resolution failures route the entity to a retry list —
  never "no sitelinks" (helpers.py:33-36, crawler.py:890-895);
- robots.txt (north_rule addition, absent in the reference): disallowed page
  URLs are never fetched, recorded as skips;
- all writes keyed upserts; tail semantics exact (single pass -> inserts);
- images rows written even when the parse failed (captions empty), sections
  only on success+content; no main-image guessing, never blank an existing
  main image.
"""

from __future__ import annotations

import heapq
import os
import re
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from wikicrawl import schema
from wikicrawl.canonical import canonical_page_url, host_of, url_hash64
from wikicrawl.extract import build_payload
from wikicrawl.families import DISCOVERED, FAMILIES, LANGS
from wikicrawl.sections import extract_format_line
from wikicrawl.vwiki import VirtualWiki

QID_RE = re.compile(r"^Q[0-9]+$")

# output table -> schema, in OracleResult field order
_TABLES = {
    "pages": schema.PAGES,
    "sections": schema.SECTIONS,
    "images_out": schema.IMAGES_OUT,
    "entity_images": schema.ENTITY_IMAGES,
    "movie_format": schema.MOVIE_FORMAT,
    "crawl_log": schema.CRAWL_LOG,
}


@dataclass
class OracleResult:
    pages: pa.Table
    sections: pa.Table
    images_out: pa.Table
    entity_images: pa.Table
    movie_format: pa.Table
    crawl_log: pa.Table
    seen_hashes: set[int]
    retry_entities: list[tuple[str, str]]  # (family, wikidata_id) transient
    robots_skipped: list[str]  # canonical urls
    metrics: dict = field(default_factory=dict)


def _load(corpus_dir: str):
    """The corpus, its source images by id, and the owned seeds in crawl
    order: family precedence, then ``ORDER BY id`` within a family. A seed
    is owned by the LOWEST-rank family whose seed table holds its Qid; rows
    failing the Qid validity filter are dropped."""
    wiki = VirtualWiki.load(corpus_dir)
    seeds = pq.read_table(os.path.join(corpus_dir, "seeds.parquet")).to_pylist()
    images_in = {
        r["image_id"]: r
        for r in pq.read_table(os.path.join(corpus_dir, "images.parquet")).to_pylist()
    }
    owner: dict[str, int] = {}
    for r in seeds:
        q = r["wikidata_id"]
        if q not in owner or r["family_rank"] < owner[q]:
            owner[q] = r["family_rank"]
    by_family: dict[int, list[dict]] = {}
    for r in seeds:
        by_family.setdefault(r["family_rank"], []).append(r)
    for rows in by_family.values():
        rows.sort(key=lambda r: r["seed_order"])
    ordered = [
        (fam, row)
        for fam in FAMILIES
        for row in by_family.get(fam.rank, [])
        if row["wikidata_id"] and QID_RE.match(row["wikidata_id"])
        and owner[row["wikidata_id"]] == fam.rank
    ]
    return wiki, images_in, ordered


def _result(rows: dict[str, list], seen: set[int], retry: list,
            robots_skipped: list[str], metrics: dict) -> OracleResult:
    tables = {}
    for name, sch in _TABLES.items():
        cols = {f.name: [r.get(f.name) for r in rows[name]] for f in sch}
        tables[name] = pa.table(cols, schema=sch) if rows[name] else sch.empty_table()
    return OracleResult(**tables, seen_hashes=seen, retry_entities=retry,
                        robots_skipped=robots_skipped, metrics=metrics)


def run_oracle(corpus_dir: str) -> OracleResult:
    wiki, images_in, ordered = _load(corpus_dir)
    rows: dict[str, list] = {name: [] for name in _TABLES}
    seen: set[int] = set()
    retry, robots_skipped = [], []
    seq = 0
    n_requests = 0
    no_sitelink = 0
    # per-(family, lang) successful-content-page counters (the reference's
    # strwikipediacrawler<content><lang>count server vars,
    # wikipedia_page_writer.py:325-333)
    page_counters: dict[str, int] = {}

    for fam, row in ordered:
        qid = row["wikidata_id"]
        links, attempts = wiki.resolve_sitelinks(qid)
        n_requests += attempts
        if links is None:
            retry.append((fam.content, qid))
            continue
        for lang in LANGS:
            title = links.get(lang)
            if not title:
                no_sitelink += 1
                continue
            url = canonical_page_url(title, lang)
            if not wiki.robots_allowed(url):
                robots_skipped.append(url)
                continue
            h = url_hash64(url)
            if h in seen:
                continue  # first-wins URL-seen (same-URL collision guard)
            seen.add(h)
            seq += 1
            rows["crawl_log"].append(
                {
                    "seq": seq,
                    "canonical_url": url,
                    "url_hash": h,
                    "host": host_of(url),
                    "family": fam.content,
                    "entity_id": row["entity_id"],
                    "wikidata_id": qid,
                    "lang": lang,
                }
            )
            payload = build_payload(wiki, title, lang, fam.needs_image)
            n_requests += payload["requests"]
            if payload["success"] and payload["has_content"]:
                key = f"{fam.content}/{lang}"
                page_counters[key] = page_counters.get(key, 0) + 1
            _persist(payload, fam, row, qid, lang, images_in, rows)

    return _result(rows, seen, retry, robots_skipped, {
        "requests": n_requests,
        "fetched": seq,
        "no_sitelink": no_sitelink,
        "transient": len(retry),
        "robots_skipped": len(robots_skipped),
        "page_counters": page_counters,
    })


class _HostQueues:
    """The reference politeness schedule, one tick at a time. Each host
    holds a heap keyed ``(family_rank, seed_order, lang_rank, push_seq)``
    and a token bucket that starts full (``burst``) with the host's
    ``host_rates`` entry, else the global ``(rate, burst)``. A tick visits
    the hosts with a backlog in sorted order; each refills
    ``tokens = min(burst, tokens + rate)`` and pops
    ``int(min(tokens, backlog))`` entries, which it spends."""

    def __init__(self, rate: float, burst: float, host_rates: dict):
        self.rate, self.burst = rate, burst
        self.host_rates = host_rates
        self.heaps: dict[str, list] = {}
        self.tokens: dict[str, float] = {}
        self.pushed = 0

    def push(self, host: str, key: tuple, item) -> None:
        heapq.heappush(self.heaps.setdefault(host, []),
                       (*key, self.pushed, item))
        self.pushed += 1

    def backlog(self) -> int:
        return sum(len(q) for q in self.heaps.values())

    def tick(self) -> list[tuple]:
        out = []
        for host in sorted(self.heaps):
            q = self.heaps[host]
            if not q:
                continue
            rate, burst = self.host_rates.get(host, (self.rate, self.burst))
            tokens = min(burst, self.tokens.get(host, burst) + rate)
            grant = int(min(tokens, len(q)))
            self.tokens[host] = tokens - grant
            out.extend(heapq.heappop(q) for _ in range(grant))
        return out


def run_discovery_oracle(corpus_dir: str, entity_wave: int,
                         host_rate: float = 1e9,
                         host_burst: float = 1e9,
                         host_delays: dict | None = None,
                         max_link_depth: int | None = None) -> OracleResult:
    """Straight-line mirror of the link-discovery crawl (dynamic frontier).

    The engine's admission schedule is wave-structured: each wave admits
    ``entity_wave`` seed entities (seen-set first-wins) into the frontier,
    then repeatedly: one politeness TICK emits up to the per-host token
    budget in priority order, the emitted pages are fetched, and their
    in-body /wiki/ links are admitted (rank 99, discovery order) — until
    the frontier drains, before the next seed wave. Emission is scheduled
    by :class:`_HostQueues`, this module's own restatement of the per-host
    politeness rule (the engine's sharded frontier owns each host by
    exactly one shard, so one queue per host gives the same budgets). A
    host delay of ``d`` ticks is rate ``1/d``, burst 1. With an ample
    budget this reduces to plain BFS levels; with a tight budget it yields
    the exact budgeted schedule (ordered parity, not just coverage).
    """
    wiki, images_in, ordered = _load(corpus_dir)
    rows: dict[str, list] = {name: [] for name in _TABLES}
    seen: set[int] = set()
    retry, robots_skipped = [], []
    seq = 0
    n_requests = 0
    no_sitelink = 0
    n_discovered = 0
    page_counters: dict[str, int] = {}

    def fetch_one(fam, seed_row, qid, lang, title, url, h):
        nonlocal seq, n_requests
        seq += 1
        rows["crawl_log"].append({
            "seq": seq, "canonical_url": url, "url_hash": h,
            "host": host_of(url), "family": fam.content,
            "entity_id": seed_row["entity_id"], "wikidata_id": qid,
            "lang": lang,
        })
        payload = build_payload(wiki, title, lang, fam.needs_image)
        n_requests += payload["requests"]
        if payload["success"] and payload["has_content"]:
            key = f"{fam.content}/{lang}"
            page_counters[key] = page_counters.get(key, 0) + 1
        _persist(payload, fam, seed_row, qid, lang, images_in, rows)
        return payload

    def admit_level(pending):
        """One BFS level's links (crawl order) -> admitted items. Mirrors
        the engine's per-delta processing exactly: local URL dedup FIRST,
        then the depth budget, then robots gate, then seen-set first-wins."""
        nonlocal n_discovered
        local: set[str] = set()
        out = []
        for title, lang, depth in pending:
            url = canonical_page_url(title, lang)
            if url in local:
                continue
            local.add(url)
            if max_link_depth is not None and depth > max_link_depth:
                continue
            if not wiki.robots_allowed(url):
                robots_skipped.append(url)
                continue
            h = url_hash64(url)
            if h in seen:
                continue
            seen.add(h)
            n_discovered += 1
            out.append((title, lang, url, h, depth))
        return out

    fr = _HostQueues(host_rate, host_burst,
                     {h: (1.0 / max(1.0, float(d)), 1.0)
                      for h, d in (host_delays or {}).items()})

    def push(fam, seed_row, qid, lang, title, url, h, rank, order, depth=0):
        key = (rank, order, LANGS.index(lang) if lang in LANGS else 0)
        fr.push(host_of(url), key,
                (fam, seed_row, qid, lang, title, url, h, depth))

    for i in range(0, len(ordered), entity_wave):
        wave_rows = ordered[i : i + entity_wave]
        for fam, row in wave_rows:
            qid = row["wikidata_id"]
            links, attempts = wiki.resolve_sitelinks(qid)
            n_requests += attempts
            if links is None:
                retry.append((fam.content, qid))
                continue
            for lang in LANGS:
                title = links.get(lang)
                if not title:
                    no_sitelink += 1
                    continue
                url = canonical_page_url(title, lang)
                if not wiki.robots_allowed(url):
                    robots_skipped.append(url)
                    continue
                h = url_hash64(url)
                if h in seen:
                    continue
                seen.add(h)
                push(fam, row, qid, lang, title, url, h,
                     fam.rank, row["seed_order"])
        # drain: one politeness tick per iteration, fetch the tick's rows in
        # priority order, admit their links, repeat until the frontier empties
        while fr.backlog() > 0:
            tick = fr.tick()
            if not tick:
                continue  # tokens exhausted; next tick accrues the rate
            tick.sort(key=lambda e: e[:3])
            pending: list[tuple] = []
            for *_key, (fam, seed_row, qid, lang, title, url, h, depth) in tick:
                payload = fetch_one(fam, seed_row, qid, lang, title, url, h)
                pending.extend(
                    (t, lang, depth + 1) for t in payload.get("links", ())
                )
            admitted = admit_level(pending)
            base = n_discovered - len(admitted)
            for k, (title, lang, url, h, depth) in enumerate(admitted):
                lnk_id = f"LNK{h:016x}"
                push(DISCOVERED, {"entity_id": lnk_id}, lnk_id, lang, title,
                     url, h, DISCOVERED.rank, base + k, depth)

    return _result(rows, seen, retry, robots_skipped, {
        "requests": n_requests,
        "fetched": seq,
        "no_sitelink": no_sitelink,
        "transient": len(retry),
        "robots_skipped": len(robots_skipped),
        "discovered": n_discovered,
        "page_counters": page_counters,
    })


def _persist(payload, fam, seed_row, qid, lang, images_in, rows):
    """Mirror of f_writelangtodb (page_writer.py:193-401), one pass."""
    main = payload["main_image_url"]
    rows["pages"].append(
        {
            "wikidata_id": qid,
            "lang": lang,
            "item_type": fam.content,
            "site_key": payload["site_key"],
            "page_title": payload["page_title"],
            "page_url": payload["page_url"],
            "main_image_url": main if main else None,  # never guessed/blanked
            "page_exists": True,
            "http_status": payload["http_status"],
            "last_crawled_at": None,  # stamped by the engine; parity ignores
            "last_success_at": None,
        }
    )

    if fam.needs_image and main:
        # keyed UPSERT on (family, entity_id): the reference UPDATEs a single
        # shared column, so a later language pass overwrites an earlier one
        # (documented fr-overwrites-en behavior, page_writer.py:312-316)
        row = {
            "family": fam.content,
            "entity_id": seed_row["entity_id"],
            "wikidata_id": qid,
            "image_column": fam.image_column,
            "main_image_url": main,
        }
        entity_image_rows = rows["entity_images"]
        for i, existing in enumerate(entity_image_rows):
            if (existing["family"], existing["entity_id"]) == (fam.content, row["entity_id"]):
                entity_image_rows[i] = row
                break
        else:
            entity_image_rows.append(row)

    for item in payload["page_images"]:
        src = images_in.get(item["image_id"]) or {}
        rows["images_out"].append(
            {
                "wikidata_id": qid,
                "lang": lang,
                "display_order": item["display_order"],
                "item_type": fam.content,
                "image_id": item["image_id"],
                "image_url": item["image_url"],
                "image_url_normalized": item["image_url_normalized"],
                "thumbnail_url": item["thumbnail_url"],
                "media_type": item["media_type"],
                "file_name": item["file_name"],
                "commons_title": item["commons_title"],
                "caption": item["caption"],
                "is_main_image": bool(main) and item["image_url"] == main,
                "bytes": src.get("bytes"),
                "w": src.get("w"),
                "h": src.get("h"),
                "fmt": src.get("fmt"),
                "phash": src.get("phash"),
            }
        )

    if payload["success"] and payload["has_content"]:
        for order, (title, content) in enumerate(payload["sections"], start=1):
            content = content.replace("[edit]", "")
            if len(title) > 300:
                title = title[:300]
            rows["sections"].append(
                {
                    "wikidata_id": qid,
                    "lang": lang,
                    "display_order": order,
                    "item_type": fam.content,
                    "title": title,
                    "content": content,
                }
            )
            if fam.process_id == 201 and lang == "fr" and title == "Fiche technique":
                rows["movie_format"].append(
                    {
                        "entity_id": seed_row["entity_id"],
                        "format_line": extract_format_line(content),
                        "dat": None,
                    }
                )
