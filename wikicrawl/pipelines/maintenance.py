"""Maintenance jobs: the reference's cleanup migrations as Ray Data pipelines.

- :func:`shared_main_images` — the ``clear_shared_main_images`` scan
  (migrations/clear_shared_main_images.py:78-93): group pages by
  main_image_url, count DISTINCT entities, HAVING >= N, ORDER BY count DESC
  — frequency as a decoration detector (filename filters can't catch a
  genuine photo like Apollo_11_Crew.jpg used as a portal banner). With
  ``apply=True`` the offending main-image values are CLEARED from the pages
  table (dry-run by default, like every reference migration).
- :func:`chrome_image_breakdown` — the ``clear_ui_chrome_images`` report
  (migrations/clear_ui_chrome_images.py:97-115): per-filename frequency of
  chrome rows still present in the gallery, top-N. With ``apply=True`` the
  rows are hard-deleted (soft-delete impossible in the reference because
  DELETED is insert-only; here a real delete keeps parity).
- :func:`phash_dup_images` — exact image dedup by perceptual hash over the
  images input table (the ``phash:int64`` hook from input_hint): groupby
  phash, report groups with > 1 distinct image_id.
"""

from __future__ import annotations

import pandas as pd
import pyarrow.compute as pc

from wikicrawl.chrome import is_ui_chrome_url
from wikicrawl.state.table import KeyedTable


def shared_main_images(pages: KeyedTable, min_entities: int = 3, top: int = 50,
                       apply: bool = False) -> pd.DataFrame:
    """Entities sharing one main image; optionally clear those main images.

    Count-distinct via ONE coarse-partition shuffle (hash(url) buckets;
    whole url groups per partition, vectorized drop_duplicates +
    groupby-size — the q05 shape: one shuffle instead of two chained
    aggregates, no per-group pandas lambdas). The apply path pushes the
    clear down into per-partition merge tasks
    (``KeyedTable.transform_partitions``): the driver only ships the
    offending-url set, never reads the table."""
    from wikicrawl.functions.joins import bucket_of

    ds = pages.read_dataset()
    ds = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["main_image_url"])),
        batch_format="pyarrow",
    )
    n_parts = 64

    def add_bucket(t):
        import pyarrow as pa

        return t.append_column(
            "__b", pa.array(bucket_of(t["main_image_url"], n_parts))
        )

    def count_distinct_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["main_image_url", "wikidata_id"]].drop_duplicates()
        return (d.groupby("main_image_url", sort=False).size()
                .rename("n_entities").reset_index())

    counts = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(count_distinct_part, batch_format="pandas")
        .to_pandas()
    )
    out = counts[counts.n_entities >= min_entities].sort_values(
        ["n_entities", "main_image_url"], ascending=[False, True]
    ).head(top).reset_index(drop=True)

    if apply and len(out):
        bad = set(out.main_image_url)

        def clear(df: pd.DataFrame) -> pd.DataFrame:
            mask = df.main_image_url.isin(bad)
            if mask.any():
                df = df.copy()
                df.loc[mask, "main_image_url"] = None
            return df

        pages.transform_partitions(clear)
    return out


def chrome_image_breakdown(images_out: KeyedTable, top: int = 20,
                           apply: bool = False) -> pd.DataFrame:
    """Frequency report of UI-chrome rows still present in the gallery."""
    ds = images_out.read_dataset()

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["wikidata_id", "lang", "display_order", "image_url", "file_name"]].copy()
        df["is_chrome"] = df.image_url.map(is_ui_chrome_url)
        return df[df.is_chrome]

    rows = ds.map_batches(flag, batch_format="pandas").to_pandas()
    if rows.empty:
        # batches with no chrome rows come back without columns
        return pd.DataFrame({"file_name": pd.Series([], dtype=object),
                             "n_rows": pd.Series([], dtype="int64")})
    report = (
        rows.groupby("file_name").size().rename("n_rows").reset_index()
        .sort_values(["n_rows", "file_name"], ascending=[False, True])
        .head(top).reset_index(drop=True)
    )
    if apply:
        # hard delete by exact key (no soft-delete — parity with the
        # migration), pushed down to per-partition tasks: each partition
        # anti-joins its rows against the broadcast key index (vectorized)
        keys = pd.MultiIndex.from_frame(
            rows[["wikidata_id", "lang", "display_order"]].drop_duplicates()
        )

        def drop_chrome(df: pd.DataFrame) -> pd.DataFrame:
            idx = pd.MultiIndex.from_frame(
                df[["wikidata_id", "lang", "display_order"]]
            )
            keep = ~idx.isin(keys)
            return df.loc[keep] if not keep.all() else df

        images_out.transform_partitions(drop_chrome)
    return report


def phash_dup_images(images_ds, n_parts: int = 64) -> pd.DataFrame:
    """Groups of distinct images sharing a perceptual hash (exact phash dedup).

    Coarse-partition reduce (the q03/q07/q16 pattern): ONE shuffle on
    hash(phash) % n_parts, then each partition — holding many whole phash
    groups — builds its multi-member groups with a single vectorized
    sort + groupby-agg. No per-phash Python lambdas (VERDICT r2 item 7)."""
    import pyarrow as pa

    from wikicrawl.functions.joins import bucket_of

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__b", pa.array(bucket_of(t["phash"], n_parts)))

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["phash", "image_id"]].drop_duplicates().sort_values(
            ["phash", "image_id"]
        )
        agg = d.groupby("phash", sort=False)["image_id"].agg(
            n_images="size", image_ids=",".join
        ).reset_index()
        return agg[agg.n_images > 1]

    return (
        images_ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(reduce_part, batch_format="pandas")
        .to_pandas()
        .sort_values(["n_images", "phash"], ascending=[False, True])
        .reset_index(drop=True)
    )


def recrawl_stale(corpus_dir: str, out_dir: str, older_than_us: int,
                  **crawl_kwargs) -> dict:
    """Staleness-driven incremental recrawl (the reference's quick-mode
    freshness semantics at ROW granularity: quick mode re-runs whole
    families ordered by MAX(TIM_UPDATED) — README.md:417-424 — while this
    refreshes exactly the entities whose pages went stale).

    Seed-owned pages with ``last_crawled_at`` older than the cutoff are
    re-fetched through the normal crawl path scoped by
    ``CrawlConfig.only_qids``; every write is a keyed upsert, so fresh rows
    are untouched and the refreshed rows keep their row identity
    (``_row_id``) and creation stamps. Link-discovered pages ("LNK" ids)
    refresh when a recrawled page still links to them (enable
    ``discover_links``); orphaned discovered pages age out by design.
    Returns {"stale": n_selected, "metrics": crawl metrics}.
    """
    from wikicrawl.pipelines.crawl import CrawlConfig, crawl, open_tables

    tables = open_tables(out_dir, crawl_kwargs.get("n_table_partitions", 8))
    pages = tables["pages"].read_dataset()

    def stale_qids(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        cutoff = pa.scalar(older_than_us, type=pa.timestamp("us"))
        mask = pc.less(t["last_crawled_at"], cutoff)
        keep = t.filter(mask)
        return keep.select(["wikidata_id"])

    stale_df = pages.map_batches(stale_qids, batch_format="pyarrow").to_pandas()
    if "wikidata_id" not in stale_df.columns:  # nothing stale: empty frame
        return {"stale": 0, "metrics": {}}
    qids = {q for q in stale_df["wikidata_id"] if not q.startswith("LNK")}
    if not qids:
        return {"stale": 0, "metrics": {}}
    cfg = CrawlConfig(corpus_dir=corpus_dir, out_dir=out_dir,
                      only_qids=frozenset(qids), **crawl_kwargs)
    res = crawl(cfg)
    return {"stale": len(qids), "metrics": res.metrics}


def phash_near_dup_images(images_ds, max_hamming: int = 3,
                          **dedup_kwargs) -> pd.DataFrame:
    """Perceptual-hash NEAR-duplicate image pairs (hamming <= k over the
    ``phash:int64`` column from input_hint) — catches re-encoded / slightly
    altered copies that :func:`phash_dup_images`' exact grouping misses.
    Band-probe exact for k < 4 (functions/dedup.hamming_dup_pairs); extra
    kwargs (e.g. ``broadcast_threshold_bytes``) pass through to the
    size-switched verify planner."""
    from wikicrawl.functions.dedup import hamming_dup_pairs

    return hamming_dup_pairs(
        images_ds, max_hamming=max_hamming,
        id_col="image_id", hash_col="phash", **dedup_kwargs,
    ).to_pandas()


# ------------------------------------------------------------- gallery viewer

def gallery_image_html(image_url: str, caption: str, gallery: list[dict],
                       main_display_url: str) -> str:
    """One image's debug-viewer HTML fragment — parity with the reference's
    ``display_image_with_caption`` (wikipedia_images.py:841-936), returned
    as a string instead of opened in a browser (cluster containers have no
    display; the caller or :func:`page_gallery_html` writes the file).

    Escaping matches the reference exactly: captions HTML-escape ``& < >``;
    URLs replace ``&`` with ``%26``; size text ``WxHpx`` only when both
    dims are ints; the derived thumb-URL lines appear only for ``thumb``
    entries with an int requested width."""
    from wikicrawl.utils import derive_thumb_url_from_original, get_filename_from_url

    safe_caption = (caption or "").replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    safe_image_url = (image_url or "").replace("&", "%26")
    safe_main_url = (main_display_url or "").replace("&", "%26")

    rule_html = (
        "<div style='margin-top: 20px;'>"
        "<div style='font-size: 16px; font-weight: 600; margin-bottom: 10px;'>Thumbnail URL rule</div>"
        "<div style='font-size: 13px; line-height: 1.35; color: #333;'>"
        "For files hosted on upload.wikimedia.org under <code>/wikipedia/commons/&lt;a&gt;/&lt;ab&gt;/&lt;filename&gt;</code>, "
        "a common thumbnail URL form is:<br/>"
        "<code>/wikipedia/commons/thumb/&lt;a&gt;/&lt;ab&gt;/&lt;filename&gt;/&lt;width&gt;px-&lt;filename&gt;</code>"
        "</div>"
        "<div style='font-size: 12px; color: #666; margin-top: 6px;'>"
        "Note: some formats (SVG, TIFF) and some images may involve slightly different "
        "thumbnail filenames. The API output below is authoritative.</div>"
        "</div>"
    )

    thumbs = [
        "<div style='margin-top: 20px;'>",
        "<div style='font-size: 16px; font-weight: 600; margin-bottom: 10px;'>Available sizes</div>",
        "<div style='display: grid; grid-template-columns: repeat(auto-fill, minmax(220px, 1fr)); gap: 14px;'>",
    ]
    for item in gallery:
        url = item.get("url")
        w, h = item.get("width"), item.get("height")
        kind = item.get("kind")
        requested_w = item.get("requested_width")
        if not isinstance(url, str) or not url:
            continue
        safe_url = url.replace("&", "%26")
        size_text = f"{w}x{h}px" if isinstance(w, int) and isinstance(h, int) else ""
        label = "Original" if kind == "original" else "Thumbnail"
        requested_text = f"requested {requested_w}px" if isinstance(requested_w, int) else ""
        derived_html = ""
        if kind == "thumb" and isinstance(requested_w, int):
            derived_url = derive_thumb_url_from_original(image_url, requested_w)
            derived_filename = get_filename_from_url(derived_url)
            if derived_filename and derived_url:
                derived_html = (
                    f"<div style='margin-top: 4px; font-size: 12px; line-height: 1.25; color: #444; word-break: break-all;'>"
                    f"Derived URL: <code>{derived_url}</code></div>"
                    f"<div style='margin-top: 4px; font-size: 12px; line-height: 1.25; color: #444; word-break: break-all;'>"
                    f"Derived URL filename: <code>{derived_filename}</code></div>"
                )
        thumbs.append(
            "<div style='border: 1px solid #e5e5e5; padding: 10px; border-radius: 8px;'>"
            f"<a href='{safe_url}' target='_blank' rel='noreferrer' style='text-decoration: none; color: inherit;'>"
            f"<img src='{safe_url}' style='max-width: 100%; height: auto; display: block; margin: 0 auto 8px auto;'/>"
            f"<div style='font-size: 13px; line-height: 1.2;'>{label} | {requested_text} | {size_text}</div>"
            f"<div style='margin-top: 6px; font-size: 12px; line-height: 1.25; color: #444; word-break: break-all;'>"
            f"API URL filename: <code>{get_filename_from_url(url)}</code></div>"
            f"{derived_html}"
            "</a></div>"
        )
    thumbs.append("</div></div>")

    return (
        f"<a href='{safe_image_url}' target='_blank' rel='noreferrer'>"
        f"<img src='{safe_main_url}' style='max-width: 100%; height: auto; display: block;'/></a>\n"
        f"<div style='margin-top: 12px; font-size: 16px; line-height: 1.4;'>{safe_caption}</div>\n"
        f"{rule_html}\n{''.join(thumbs)}"
    )


def page_gallery_html(images_out: KeyedTable, wikidata_id: str, lang: str,
                      out_path: str | None = None) -> str:
    """Debug viewer for ONE crawled page's gallery (SURVEY §2.10 #55): every
    image row of ``(wikidata_id, lang)`` in display order, each rendered
    with the reference's viewer structure and a gallery-of-widths from
    :func:`wikicrawl.utils.thumbnail_gallery`. The read is key-pruned to the
    page's hash partition — a point lookup, never a table scan. Returns the
    HTML; also writes it when ``out_path`` is given."""
    from wikicrawl.state.table import key_partition
    from wikicrawl.utils import thumbnail_gallery

    p = int(key_partition([wikidata_id], images_out.n_partitions)[0])
    part = images_out._read_part(p)
    df = part[(part["wikidata_id"] == wikidata_id) & (part["lang"] == lang)]
    df = df.sort_values("display_order")
    parts = [
        "<!doctype html>\n<html><head><meta charset='utf-8'>"
        f"<title>{wikidata_id} {lang} gallery</title></head>\n"
        "<body style='font-family: system-ui, -apple-system, Segoe UI, Roboto, Arial; margin: 24px;'>\n"
    ]
    for _, r in df.iterrows():
        w = int(r["w"]) if pd.notna(r["w"]) else None
        h = int(r["h"]) if pd.notna(r["h"]) else None
        gallery = thumbnail_gallery(r["image_url"], w, h)
        parts.append(
            "<div style='margin-bottom: 40px; border-bottom: 2px solid #ddd; padding-bottom: 24px;'>"
            + gallery_image_html(
                r["image_url"], r["caption"], gallery,
                r["thumbnail_url"] or r["image_url"],
            )
            + "</div>"
        )
    parts.append("</body></html>\n")
    html = "\n".join(parts)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(html)
    return html
