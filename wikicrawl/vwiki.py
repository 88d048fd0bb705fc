"""Accessor for the synthetic virtual wiki (the crawl's "network").

Stands in for the four reference endpoints, with DETERMINISTIC retry
semantics (no wall clocks, no sleeps — virtual attempts):

- ``wbgetentities`` (sitelink resolution): per-qid; a row's ``maxlag_fails``
  means attempts 1..k fail with maxlag. The reference retries 5 times with
  backoff and raises ``WikidataTransientError`` when exhausted
  (helpers.py:29-92); here exhaustion marks the ROW transient so it can be
  routed to a retry partition instead of aborting the job (SURVEY §7.5:
  retry semantics are data semantics).
- ``parse`` (rendered HTML): per-page ``parse_maxlag_fails`` with a 3-attempt
  budget (page_writer.py:124-166); HTTP errors and ``missingtitle`` are
  terminal. Failure means no soup: sections empty, captions empty.
- ``summary`` (lead image): returns the page's lead-image URL or "".
- ``media items`` (prop=images + imageinfo): the page's File titles + mimes.

Also carries the virtual robots.txt (per-host disallow prefixes).

The whole corpus is loaded once per actor (``__init__`` of fetch-stage
actors) from parquet, or shared zero-copy via ``ray.put`` of the Arrow
tables.
"""

from __future__ import annotations

import json
import os
import urllib.parse
from dataclasses import dataclass

import pyarrow.parquet as pq

from wikicrawl.families import PARSE_MAX_RETRIES, WBGETENTITIES_MAX_RETRIES


@dataclass
class ParseResult:
    http_status: int
    success: bool
    html: str  # "" when unavailable
    attempts: int  # virtual request count actually spent


class VirtualWiki:
    """Lookups over the synth tables.

    The pages table (large: HTML + file lists) is kept as the SHARED Arrow
    table — typically the zero-copy result of ``ray.get`` on a broadcast
    ``ray.put`` ref — with only a sorted index of (lang, title) hashes
    built per process. Rows materialize lazily, one fetch batch at a time
    (``load_pages``) or one page at a time (``_page``), so ``__init__`` is
    cheap no matter the corpus size and N workers share one copy in the
    object store."""

    def __init__(self, sitelinks_table, pages_table, robots_disallow: dict):
        # O(1) init: every index over the corpus is lazy AND vectorized.
        # The eager per-row dict builds this replaced were a ~2.6s
        # CPU-count-independent warmup on EVERY worker's first task — the
        # single largest serial ramp-in term in the crawl timeline.
        self._sitelinks_table = sitelinks_table
        self._pages_table = pages_table
        self._sitelinks_dict: dict[str, dict[str, tuple[str, int]]] | None = None
        self._page_hash = None  # sorted key hashes + perm (built on demand)
        self._rows: dict = {}  # (lang, title) -> row kept for _page
        self.robots_disallow = {
            host: tuple(prefixes) for host, prefixes in robots_disallow.items()
        }

    @property
    def sitelinks(self) -> dict[str, dict[str, tuple[str, int]]]:
        """Nested per-qid dict for the per-row API (oracle / crawl_one).
        Built lazily — the vectorized pipeline path never pays for it."""
        if self._sitelinks_dict is None:
            d: dict[str, dict[str, tuple[str, int]]] = {}
            t = self._sitelinks_table
            for qid, lang, title, fails in zip(
                t["wikidata_id"].to_pylist(),
                t["lang"].to_pylist(),
                t["page_title"].to_pylist(),
                t["maxlag_fails"].to_pylist(),
            ):
                d.setdefault(qid, {})[lang] = (title, fails)
            self._sitelinks_dict = d
        return self._sitelinks_dict

    @property
    def sitelinks_wide(self):
        """Lazily-built wide frame for the VECTORIZED resolver: one row per
        qid with per-lang titles and the max maxlag-fail count (the batched
        wbgetentities analog as a join table instead of per-row dict gets).
        Built by a vectorized pandas pivot straight from the Arrow table —
        no per-qid Python loop (~100ms at 480k rows vs seconds)."""
        import numpy as np
        import pandas as pd

        w = getattr(self, "_sitelinks_wide", None)
        if w is None:
            from wikicrawl.families import LANGS

            df = self._sitelinks_table.select(
                ["wikidata_id", "lang", "page_title", "maxlag_fails"]
            ).to_pandas()
            if len(df):
                w = df.pivot(index="wikidata_id", columns="lang",
                             values="page_title")
                w.columns = [f"title_{c}" for c in w.columns]
                mf = df.groupby("wikidata_id", sort=False)["maxlag_fails"].max()
                w["max_fails"] = (
                    mf.reindex(w.index).fillna(0).astype(np.int64)
                )
            else:
                w = pd.DataFrame(
                    {"max_fails": pd.Series([], dtype=np.int64)}
                )
            for lang in LANGS:
                if f"title_{lang}" not in w.columns:
                    w[f"title_{lang}"] = None
            self._sitelinks_wide = w
        return w

    def _ensure_page_index(self) -> None:
        """(lang, title) -> row lookup as a sorted-hash probe: one
        vectorized siphash over `lang\\0title` + one argsort, instead of a
        per-row Python dict build. Collisions are resolved by verifying
        the candidate rows (exact, not probabilistic)."""
        if self._page_hash is not None:
            return
        import numpy as np
        import pandas as pd
        import pyarrow.compute as pc

        t = self._pages_table
        if t.num_rows == 0:
            self._page_hash = np.empty(0, dtype=np.uint64)
            self._page_order = np.empty(0, dtype=np.int64)
            return
        keys = pc.binary_join_element_wise(
            t["lang"], t["page_title"], "\x00"
        )
        h = pd.util.hash_array(
            np.asarray(keys.to_numpy(zero_copy_only=False), dtype=object),
            categorize=False,  # categorize=True hashes via the categorical
            # path and does NOT match the per-element hash of the probe
        )
        order = np.argsort(h, kind="stable").astype(np.int64)
        self._page_hash = h[order]
        self._page_order = order

    @staticmethod
    def _key_hashes(langs, titles):
        import numpy as np
        import pandas as pd

        keys = np.array([f"{lang}\x00{title}"
                         for lang, title in zip(langs, titles)], dtype=object)
        return pd.util.hash_array(keys, categorize=False)

    def _page(self, lang: str, title: str) -> dict | None:
        """The pages row of ``(lang, title)`` as a Python dict (HTML
        included), or None. Rows come from ``_rows``: the batch
        ``load_pages`` looked up, else the last row looked up here. One
        page's summary, parse and media-items requests come in a row, so
        they share one copy of the row. The virtual requests they count are
        unchanged."""
        key = (lang, title)
        if key in self._rows:
            return self._rows[key]
        row = self._lookup_page(lang, title)
        self._rows = {key: row}
        return row

    def load_pages(self, langs: list, titles: list) -> None:
        """Look up the pages rows of a whole batch of ``(lang, title)`` keys
        with one vectorized probe and keep them for ``_page`` (replacing
        the rows kept before). The same rows as ``_lookup_page`` per key:
        hash every key, ``searchsorted`` its candidate range, verify each
        candidate's key, take the first that matches."""
        import numpy as np
        import pyarrow.compute as pc

        self._ensure_page_index()
        keys = list(zip(langs, titles))
        h = self._key_hashes(langs, titles)
        lo = np.searchsorted(self._page_hash, h, side="left")
        n_cand = np.searchsorted(self._page_hash, h, side="right") - lo
        # candidate j belongs to key probe[j] and is sorted position pos[j]
        probe = np.repeat(np.arange(len(keys)), n_cand)
        pos = np.arange(len(probe)) - np.repeat(np.cumsum(n_cand) - n_cand,
                                                n_cand) + lo[probe]
        cand = self._page_order[pos]
        t = self._pages_table
        cand_keys = zip(pc.take(t["lang"], cand).to_pylist(),
                        pc.take(t["page_title"], cand).to_pylist())
        row_of: dict = {}
        for p, i, ck in zip(probe.tolist(), cand.tolist(), cand_keys):
            if ck == keys[p]:
                row_of.setdefault(ck, i)
        found = list(row_of)
        rows = t.take(np.array([row_of[k] for k in found], dtype=np.int64))
        self._rows = dict.fromkeys(keys)
        self._rows.update(zip(found, rows.to_pylist()))

    def _lookup_page(self, lang: str, title: str) -> dict | None:
        self._ensure_page_index()
        import numpy as np

        h = self._key_hashes([lang], [title])[0]
        lo = int(np.searchsorted(self._page_hash, h, side="left"))
        hi = int(np.searchsorted(self._page_hash, h, side="right"))
        for j in range(lo, hi):
            i = int(self._page_order[j])
            row = self._pages_table.slice(i, 1).to_pylist()[0]
            if row["lang"] == lang and row["page_title"] == title:
                return row
        return None

    # -- factory ---------------------------------------------------------

    @classmethod
    def load(cls, corpus_dir: str, with_pages: bool = True) -> "VirtualWiki":
        """``with_pages=False`` loads only sitelinks + robots (resolver actors
        don't need page HTML in memory)."""
        sitelinks = pq.read_table(os.path.join(corpus_dir, "sitelinks.parquet"))
        if with_pages:
            pages = pq.read_table(os.path.join(corpus_dir, "pages_html.parquet"))
        else:
            from wikicrawl import schema

            pages = schema.PAGES_HTML.empty_table()
        with open(os.path.join(corpus_dir, "meta.json")) as f:
            meta = json.load(f)
        return cls(sitelinks, pages, meta["robots_disallow"])

    # -- endpoints -------------------------------------------------------

    def resolve_sitelinks(self, qid: str) -> tuple[dict[str, str] | None, int]:
        """-> ({lang: title} or None-if-transient, virtual request attempts).

        ``None`` plays the role of ``WikidataTransientError``: the entity must
        go to the retry partition, never be treated as "no sitelinks"."""
        links = self.sitelinks.get(qid)
        fails = max((f for (_t, f) in (links or {}).values()), default=0)
        if fails >= WBGETENTITIES_MAX_RETRIES:
            return None, WBGETENTITIES_MAX_RETRIES
        attempts = fails + 1
        return {lang: t for lang, (t, _f) in (links or {}).items()}, attempts

    def parse(self, lang: str, title: str) -> ParseResult:
        row = self._page(lang, title)
        if row is None:
            return ParseResult(200, False, "", 1)  # missingtitle
        if row["http_status"] != 200:
            return ParseResult(row["http_status"], False, "", 1)
        if row["api_error"]:  # missingtitle / invalidtitle: terminal, 1 attempt
            return ParseResult(200, False, "", 1)
        fails = row["parse_maxlag_fails"]
        if fails >= PARSE_MAX_RETRIES:
            return ParseResult(200, False, "", PARSE_MAX_RETRIES)
        return ParseResult(200, True, row["html"], fails + 1)

    def summary_main_image(self, lang: str, title: str) -> str:
        row = self._page(lang, title)
        return (row or {}).get("main_image_url") or ""

    def media_items(self, lang: str, title: str) -> list[tuple[str, str]]:
        """-> [(file_name_underscored, mime), ...] in Action-API order."""
        row = self._page(lang, title)
        if row is None:
            return []
        return list(zip(row["file_names"], row["file_mimes"]))

    # -- robots ----------------------------------------------------------

    def robots_allowed(self, url: str) -> bool:
        parsed = urllib.parse.urlparse(url)
        prefixes = self.robots_disallow.get(parsed.netloc, ())
        path = urllib.parse.unquote(parsed.path)
        return not any(path.startswith(p) for p in prefixes)
