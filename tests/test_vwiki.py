"""VirtualWiki's batched page lookup returns the rows of the per-page
lookup, and the fetch stage's payloads equal those of the per-page lookup
with the ``HTMLParser`` builder (the path the oracle shares)."""

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from wikicrawl import minidom
from wikicrawl.pipelines.crawl import owned_seed_batches
from wikicrawl.stages.crawl_stages import FetchExtract, Resolver
from wikicrawl.synth import generate
from wikicrawl.vwiki import VirtualWiki


def _corpus(tmp_path, seed: int, n_entities: int = 80) -> str:
    out = str(tmp_path / f"s{seed}")
    generate(out, n_entities=n_entities, seed=seed)
    return out


@pytest.mark.parametrize("collide", [False, True])
def test_load_pages_matches_lookup_page(tmp_path, monkeypatch, collide):
    corpus = _corpus(tmp_path, 1)
    if collide:  # five hash values for the whole corpus: every probe collides
        hash_array = pd.util.hash_array
        monkeypatch.setattr(pd.util, "hash_array",
                            lambda *a, **k: hash_array(*a, **k) % np.uint64(5))
    pages = pq.read_table(f"{corpus}/pages_html.parquet",
                          columns=["lang", "page_title"])
    keys = list(zip(pages["lang"].to_pylist(), pages["page_title"].to_pylist()))
    batch = keys[:40] + [keys[3], keys[3], keys[10]] + [
        ("en", "No such page"), ("xx", keys[0][1]), (keys[1][0], keys[1][1] + " ")]
    wiki = VirtualWiki.load(corpus)
    wiki.load_pages([k[0] for k in batch], [k[1] for k in batch])
    if collide:
        assert len(np.unique(wiki._page_hash)) <= 5
    per_page = VirtualWiki.load(corpus)
    want = {k: per_page._lookup_page(*k) for k in batch}
    assert {k: wiki._page(*k) for k in batch} == want
    assert sum(row is None for row in want.values()) == 3
    assert wiki._rows.keys() == want.keys()  # _page looked up nothing more


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_fetch_extract_payloads_match_per_page_path(tmp_path, monkeypatch, seed):
    corpus = _corpus(tmp_path, seed)

    def payloads(wiki):
        out = []
        for batch in owned_seed_batches(corpus, 64):
            resolved = Resolver.run(wiki, batch)
            resolved = resolved.filter(pc.equal(resolved["status"], "resolved"))
            if resolved.num_rows:
                out.append(FetchExtract.run(wiki, resolved))
        return out

    got = payloads(VirtualWiki.load(corpus))
    monkeypatch.delattr(VirtualWiki, "load_pages")
    monkeypatch.setattr(minidom, "_parse_fast", lambda html: None)
    want = payloads(VirtualWiki.load(corpus))
    assert len(got) == len(want) > 1
    for g, w in zip(got, want):
        assert g.equals(w)
