"""Maintenance pipelines: shared-main-image scan (+apply), chrome breakdown,
phash dedup — the reference migrations as Ray Data jobs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from wikicrawl import schema as S
from wikicrawl.pipelines.maintenance import (
    chrome_image_breakdown,
    phash_dup_images,
    shared_main_images,
)
from wikicrawl.state.table import KeyedTable


@pytest.fixture()
def pages_table(tmp_path):
    t = KeyedTable(str(tmp_path / "pages"), S.PAGES, key=["wikidata_id", "lang"],
                   n_partitions=4)
    rows = []
    shared = "https://up/x/Shared_banner.jpg"
    for i in range(10):
        rows.append({
            "wikidata_id": f"Q{i}", "lang": "en", "item_type": "movie",
            "site_key": "enwiki", "page_title": f"T{i}", "page_url": f"u{i}",
            "main_image_url": shared if i < 5 else f"https://up/x/Own_{i}.jpg",
            "page_exists": True, "http_status": 200,
            "last_crawled_at": None, "last_success_at": None,
        })
    cols = {f.name: [r[f.name] for r in rows] for f in S.PAGES}
    arrays = [
        pa.array(cols[f.name], type=f.type) for f in S.PAGES
    ]
    t.merge_insert(pa.Table.from_arrays(arrays, schema=S.PAGES))
    return t


def test_shared_main_images_scan_and_apply(pages_table, ray_session):
    report = shared_main_images(pages_table, min_entities=3, apply=False)
    assert len(report) == 1
    assert report.n_entities.iloc[0] == 5
    # dry run did not modify
    assert pages_table.read_all().to_pandas().main_image_url.notna().all()
    shared_main_images(pages_table, min_entities=3, apply=True)
    df = pages_table.read_all().to_pandas()
    assert df.main_image_url.isna().sum() == 5  # cleared, others intact
    assert df.main_image_url.notna().sum() == 5


def _images_table(path, with_chrome: bool = True) -> KeyedTable:
    t = KeyedTable(path, S.IMAGES_OUT,
                   key=["wikidata_id", "lang", "display_order"],
                   n_partitions=4, prune_group=["wikidata_id", "lang"])
    rows = []
    for i in range(6):
        chrome = with_chrome and i % 2 == 0
        fn = "Logo_disambig.svg" if chrome else f"Real_{i}.jpg"
        rows.append({
            "wikidata_id": f"Q{i}", "lang": "en", "display_order": 1,
            "item_type": "movie", "image_id": fn,
            "image_url": f"https://up/x/{fn}", "image_url_normalized": f"https://up/x/{fn}",
            "thumbnail_url": "", "media_type": "image", "file_name": fn,
            "commons_title": f"File:{fn}", "caption": "", "is_main_image": False,
            "bytes": b"", "w": 1, "h": 1, "fmt": "png", "phash": i % 3,
        })
    cols = {f.name: [r[f.name] for r in rows] for f in S.IMAGES_OUT}
    arrays = [pa.array(cols[f.name], type=f.type) for f in S.IMAGES_OUT]
    t.merge_insert(pa.Table.from_arrays(arrays, schema=S.IMAGES_OUT))
    return t


@pytest.fixture()
def images_table(tmp_path):
    return _images_table(str(tmp_path / "img"))


def test_chrome_breakdown_and_apply(images_table, ray_session):
    report = chrome_image_breakdown(images_table, apply=False)
    assert list(report.columns) == ["file_name", "n_rows"]
    assert report.file_name.iloc[0] == "Logo_disambig.svg"
    assert report.n_rows.iloc[0] == 3
    assert len(images_table.read_all()) == 6
    chrome_image_breakdown(images_table, apply=True)
    left = images_table.read_all().to_pandas()
    assert len(left) == 3
    assert not left.file_name.str.contains("disambig").any()


def test_chrome_breakdown_without_chrome_rows(tmp_path, ray_session):
    """No chrome rows left: an empty report with the report's columns and
    dtypes, and apply=True deletes nothing."""
    t = _images_table(str(tmp_path / "img"), with_chrome=False)
    full = chrome_image_breakdown(_images_table(str(tmp_path / "ref")))
    for apply in (False, True):
        report = chrome_image_breakdown(t, apply=apply)
        assert len(report) == 0
        assert report.dtypes.to_dict() == full.dtypes.to_dict()
    assert len(t.read_all()) == 6


def test_phash_dup_images(ray_session):
    import ray.data as rd

    df = pd.DataFrame({
        "image_id": [f"i{k}" for k in range(6)],
        "phash": [10, 10, 10, 20, 30, 30],
    })
    out = phash_dup_images(rd.from_pandas(df))
    assert len(out) == 2
    assert out.n_images.tolist() == [3, 2]
    assert out.image_ids.iloc[0] == "i0,i1,i2"


def test_recrawl_stale_refreshes_only_stale_rows(ray_session, tmp_path):
    """Incremental recrawl: only pages older than the cutoff get a new
    last_crawled_at; fresh rows (values AND row identity) are untouched."""
    import shutil
    import time

    import pyarrow.parquet as pq

    from wikicrawl.pipelines.crawl import CrawlConfig, crawl
    from wikicrawl.pipelines.maintenance import recrawl_stale
    from wikicrawl.synth import generate

    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    generate(corpus, n_entities=60, seed=13)
    crawl(CrawlConfig(corpus_dir=corpus, out_dir=out, entity_wave=32,
                      strict_order=False))
    tables = __import__("wikicrawl.pipelines.crawl",
                        fromlist=["open_tables"]).open_tables(out, 8)
    before = tables["pages"].read_all().to_pandas()
    # cutoff strictly between: mark roughly half the rows stale
    cut = before.last_crawled_at.quantile(0.5)
    cutoff_us = int(cut.value // 1000)
    stale_mask = before.last_crawled_at < cut
    if not stale_mask.any() or stale_mask.all():
        # timestamps can coincide on a fast crawl; force staleness by time
        time.sleep(0.01)
        cutoff_us = int(time.time() * 1e6)
        stale_mask = before.last_crawled_at.notna()
    n = recrawl_stale(corpus, out, cutoff_us, entity_wave=32,
                      strict_order=False)
    assert n["stale"] > 0
    after = tables["pages"].read_all().to_pandas()
    key = ["wikidata_id", "lang"]
    b = before.set_index(key).sort_index()
    a = after.set_index(key).sort_index()
    assert len(a) == len(b)
    stale_keys = set(map(tuple, before.loc[stale_mask, key].to_numpy()))
    for k in a.index:
        if k in stale_keys:
            assert a.loc[k, "last_crawled_at"] >= b.loc[k, "last_crawled_at"]
        else:
            assert a.loc[k, "last_crawled_at"] == b.loc[k, "last_crawled_at"]
        # row identity + content stable under refresh
        assert a.loc[k, "_row_id"] == b.loc[k, "_row_id"]
        assert a.loc[k, "page_title"] == b.loc[k, "page_title"]


def test_phash_near_dup_images(ray_session):
    """Band-probe phash near-dup: plants a 2-bit-flipped copy and a far
    image; result must equal the brute-force popcount over all pairs."""
    import itertools

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from wikicrawl.pipelines.maintenance import phash_near_dup_images

    rng = np.random.default_rng(9)
    hashes = rng.integers(-2**63, 2**63 - 1, size=40).astype(np.int64)
    near = int(hashes[5]) ^ (1 << 3) ^ (1 << 40)  # hamming 2 from #5
    exact = int(hashes[7])  # hamming 0 from #7
    df = pd.DataFrame({
        "image_id": [f"img_{i}.png" for i in range(42)],
        "phash": np.append(hashes, [near, exact]).astype(np.int64),
    })
    got = phash_near_dup_images(rd.from_pandas(df), max_hamming=3)
    found = set(zip(got.id_a, got.id_b))
    assert ("img_40.png", "img_5.png") in found  # ids pair in lexicographic order
    assert ("img_41.png", "img_7.png") in found
    # exhaustive brute force agrees exactly
    want = set()
    by_id = dict(zip(df.image_id, df.phash.astype(np.int64)))
    for a, b in itertools.combinations(sorted(by_id), 2):
        d = bin((int(by_id[a]) ^ int(by_id[b])) & (2**64 - 1)).count("1")
        if d <= 3:
            want.add((a, b))
    assert found == want
    assert (got.hamming <= 3).all()


def test_phash_near_dup_forced_large_side(ray_session):
    """Forced hash-join verify (broadcast_threshold_bytes=0): the large-side
    path must produce the identical pair list with no driver-side
    fingerprint materialization (VERDICT r2 item 2)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from wikicrawl.pipelines.maintenance import phash_near_dup_images

    rng = np.random.default_rng(9)
    hashes = rng.integers(-2**63, 2**63 - 1, size=40).astype(np.int64)
    near = int(hashes[5]) ^ (1 << 3) ^ (1 << 40)
    exact = int(hashes[7])
    df = pd.DataFrame({
        "image_id": [f"img_{i}.png" for i in range(42)],
        "phash": np.append(hashes, [near, exact]).astype(np.int64),
    })
    small = phash_near_dup_images(rd.from_pandas(df), max_hamming=3)
    large = phash_near_dup_images(rd.from_pandas(df), max_hamming=3,
                                  broadcast_threshold_bytes=0)
    pd.testing.assert_frame_equal(
        small.reset_index(drop=True), large.reset_index(drop=True)
    )
    assert len(large) >= 2


def test_page_gallery_html(tmp_path):
    """SURVEY §2.10 #55: the debug gallery viewer. Structure + escaping
    parity with the reference's display_image_with_caption
    (wikipedia_images.py:841-936): caption HTML-escaped, URLs &->%26,
    Original/Thumbnail labels, derived thumb URL lines for thumb entries."""
    from wikicrawl.pipelines.maintenance import page_gallery_html

    t = KeyedTable(str(tmp_path / "img"), S.IMAGES_OUT,
                   key=["wikidata_id", "lang", "display_order"],
                   n_partitions=4, prune_group=["wikidata_id", "lang"])
    rows = [{
        "wikidata_id": "Q7", "lang": "en", "display_order": o,
        "item_type": "movie", "image_id": f"Pic_{o}.jpg",
        "image_url": f"https://upload.wikimedia.org/wikipedia/commons/a/ab/Pic_{o}.jpg",
        "image_url_normalized": f"https://upload.wikimedia.org/wikipedia/commons/a/ab/Pic_{o}.jpg",
        "thumbnail_url": "", "media_type": "image", "file_name": f"Pic_{o}.jpg",
        "commons_title": f"File:Pic_{o}.jpg",
        "caption": "Fish & chips <b>bold</b>" if o == 1 else f"cap {o}",
        "is_main_image": o == 1, "bytes": b"", "w": 800, "h": 600,
        "fmt": "jpeg", "phash": o,
    } for o in (1, 2)]
    # a row of ANOTHER page in the same table must not leak into the view
    rows.append(dict(rows[0], wikidata_id="Q8", caption="other page"))
    cols = {f.name: [r[f.name] for r in rows] for f in S.IMAGES_OUT}
    t.merge_insert(pa.Table.from_arrays(
        [pa.array(cols[f.name], type=f.type) for f in S.IMAGES_OUT],
        schema=S.IMAGES_OUT))

    out = tmp_path / "g.html"
    html = page_gallery_html(t, "Q7", "en", str(out))
    assert out.read_text() == html
    # reference escaping rules
    assert "Fish &amp; chips &lt;b&gt;bold&lt;/b&gt;" in html
    assert "other page" not in html
    # gallery-of-widths structure: derived thumb URLs + labels
    assert "/wikipedia/commons/thumb/a/ab/Pic_1.jpg/50px-Pic_1.jpg" in html
    assert "Original" in html and "Thumbnail" in html
    assert "requested 300px" in html
    assert "Thumbnail URL rule" in html
    # both display_order rows rendered, order preserved
    assert html.index("Pic_1.jpg") < html.index("Pic_2.jpg")
