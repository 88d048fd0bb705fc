"""Deduplication operators for a large-scale training-data pipeline.

All Ray-Data-first over Arrow batches:

- exact dedup:      content-hash in map_batches -> groupby(hash) hash
                    aggregate (min id + count) — no per-group lambdas
- MinHash + LSH:    per-batch vectorized shingling -> 64 minhashes -> banded
                    signatures exploded to (band, band_hash, doc) rows ->
                    groupby band bucket -> candidate pairs -> DISTRIBUTED
                    exact-Jaccard verification: candidates hash-join back to
                    (signature, text) by doc id, a vectorized
                    signature-agreement estimate prunes far pairs, and the
                    exact verify runs inside map_batches. Nothing ever
                    materializes on the driver; the shuffles carry only
                    signatures (512 B/doc) and candidate pairs.
- SimHash:          64-bit weighted-token fingerprint per doc; token hash is
                    the first 8 bytes (little-endian) of md5 — exactly
                    DuckDB's ``md5_number_upper`` — so the whole sketch has
                    an exact ANSI-SQL oracle. Fully vectorized: one hash per
                    UNIQUE token, bit matrix + scatter-add per batch.
- n-gram Jaccard:   (a) exact verification kernel used by the LSH stage;
                    (b) STANDALONE exact word-n-gram operator
                    (:func:`ngram_jaccard_dedup`): inverted-index
                    self-join on the gram hash, per-partition vectorized
                    pair expansion + partial intersection counts, one
                    global pair sum — no sketch, two shuffles total
- embedding cosine: blocked numpy matmul within label partitions

Determinism: all hash seeds are fixed; outputs are sorted pair lists.
The k=5 char shingle hash is a base-257 polynomial over the raw bytes —
injective for 5-byte windows (each byte < 257), so "distinct shingle
hashes" == "distinct 5-char substrings" and the DuckDB oracle can compute
the identical Jaccard from plain ``substr`` sets.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from wikicrawl.rounding import round_half_away

# ---------------------------------------------------------------- minhash

N_HASHES = 64
N_BANDS = 16  # 16 bands x 4 rows
ROWS_PER_BAND = N_HASHES // N_BANDS
_MERSENNE = (1 << 61) - 1
_rng = np.random.default_rng(0x5EED)
# a < 2^31 and x < 2^32 keep a*x + b < 2^63: the whole (N_HASHES, n) matrix
# computes in native uint64 without overflow (fully vectorized minhash)
_A = _rng.integers(1, 1 << 31, size=N_HASHES, dtype=np.int64).astype(np.uint64)
_B = _rng.integers(0, _MERSENNE, size=N_HASHES, dtype=np.int64).astype(np.uint64)
# odd multipliers for the band-hash mix (vectorized blake2b replacement)
_SEG_W = (_rng.integers(0, 1 << 62, size=ROWS_PER_BAND, dtype=np.int64)
          .astype(np.uint64) | np.uint64(1))


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Distinct k-char shingle hashes (uint64) of a document."""
    data = text.encode("utf-8")
    if len(data) < k:
        data = data + b" " * (k - len(data))
    view = np.frombuffer(data, dtype=np.uint8)
    n = len(view) - k + 1
    # polynomial rolling hash over k-byte windows, vectorized
    weights = np.power(np.uint64(257), np.arange(k, dtype=np.uint64),
                       dtype=np.uint64)
    acc = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        acc += view[j : j + n].astype(np.uint64) * weights[j]
    return np.unique(acc)


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """(N_HASHES,) uint64 signature via universal hashing a*x+b mod p,
    computed as one vectorized (N_HASHES, n) matrix (no per-hash loop)."""
    if len(shingles) == 0:
        return np.zeros(N_HASHES, dtype=np.uint64)
    x32 = (shingles.astype(np.uint64) & np.uint64(0xFFFFFFFF))[None, :]
    mat = (_A[:, None] * x32 + _B[:, None]) % np.uint64(_MERSENNE)
    return mat.min(axis=1)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def band_hashes(sig_mat: np.ndarray) -> np.ndarray:
    """(n, N_HASHES) uint64 signatures -> (n, N_BANDS) int64 band bucket
    hashes — a weighted sum + splitmix64 finalizer, fully vectorized (no
    per-band digest calls)."""
    segs = sig_mat.reshape(len(sig_mat), N_BANDS, ROWS_PER_BAND)
    mix = (segs * _SEG_W[None, None, :]).sum(axis=2, dtype=np.uint64)
    return (_splitmix64(mix) >> np.uint64(1)).astype(np.int64)


def minhash_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Docs -> exploded (band, band_hash, id) rows for the LSH groupby."""
    n = batch.num_rows
    if n == 0:
        return pa.table({"band": pa.array([], pa.int32()),
                         "band_hash": pa.array([], pa.int64()),
                         id_col: batch[id_col]})
    sig_mat = np.stack([
        minhash_signature(char_shingles(t)) for t in batch[text_col].to_pylist()
    ])
    return _explode_bands(batch[id_col], sig_mat, id_col)


def _explode_bands(ids: pa.ChunkedArray | pa.Array, sig_mat: np.ndarray,
                   id_col: str) -> pa.Table:
    n = len(sig_mat)
    bh = band_hashes(sig_mat)  # (n, N_BANDS)
    bands = np.tile(np.arange(N_BANDS, dtype=np.int32), n)
    idx = np.repeat(np.arange(n), N_BANDS)
    id_arr = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
    return pa.table(
        {
            "band": pa.array(bands, type=pa.int32()),
            "band_hash": pa.array(bh.reshape(-1), type=pa.int64()),
            id_col: id_arr.take(pa.array(idx)),
        }
    )


def lsh_candidate_pairs(bucket_df: pd.DataFrame, id_col: str = "doc_id") -> pd.DataFrame:
    """One LSH bucket (same band+band_hash) -> unordered candidate pairs
    (dtype-preserving: empty buckets emit typed empty columns)."""
    ids = np.sort(pd.unique(bucket_df[id_col].to_numpy()))
    if len(ids) < 2:
        return pd.DataFrame({"id_a": ids[:0], "id_b": ids[:0]})
    ia, ib = np.triu_indices(len(ids), k=1)
    return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]})


def partition_candidate_pairs(part_df: pd.DataFrame, id_col: str = "doc_id") -> pd.DataFrame:
    """All (band, band_hash) buckets of ONE hash partition -> candidate
    pairs, vectorized: a single lexsort finds bucket boundaries; only
    multi-member buckets (the rare near-dup clusters) run a numpy
    ``triu_indices`` pair expansion. Replaces per-bucket ``map_groups``
    (one Python callback per tiny bucket — death by overhead at scale) with
    one callback per PARTITION. Pairs are deduped within the partition; the
    cross-band global dedup happens downstream, partitioned by id_a."""
    b = part_df["band"].to_numpy()
    h = part_df["band_hash"].to_numpy()
    d = part_df[id_col].to_numpy()
    if len(d) == 0:
        return pd.DataFrame({"id_a": d[:0], "id_b": d[:0]})
    order = np.lexsort((d, h, b))
    b, h, d = b[order], h[order], d[order]
    new_grp = np.empty(len(b), dtype=bool)
    new_grp[0] = True
    new_grp[1:] = (b[1:] != b[:-1]) | (h[1:] != h[:-1])
    starts = np.flatnonzero(new_grp)
    sizes = np.diff(np.append(starts, len(b)))
    out_a, out_b = [], []
    for gi in np.flatnonzero(sizes > 1):
        ids = np.unique(d[starts[gi] : starts[gi] + sizes[gi]])
        if len(ids) > 1:
            ia, ib = np.triu_indices(len(ids), k=1)
            out_a.append(ids[ia])
            out_b.append(ids[ib])
    if not out_a:
        return pd.DataFrame({"id_a": d[:0], "id_b": d[:0]})
    return pd.DataFrame(
        {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
    ).drop_duplicates()


def _typed_empty(t: pa.Table, schema: pa.Schema) -> pa.Table | None:
    """``groupby().map_groups`` over an empty partition skips the UDF and
    emits a ZERO-COLUMN empty block (observed once at sf0.1/32cpus inside
    q90's broadcast verify — concat_tables('' vs (doc_id, gh)) ); any
    map_batches/select downstream of a map_groups must route such blocks
    to a typed empty instead of KeyError-ing on a missing column. Returns
    the typed empty for a schema-less block, else None (block is normal)."""
    if t.num_columns == 0:
        return schema.empty_table()
    return None


def _concat_nonempty(tables, schema: pa.Schema) -> pa.Table:
    """concat_tables tolerant of the same zero-column empty blocks."""
    good = [t for t in tables if t.num_columns > 0]
    return pa.concat_tables(good) if good else schema.empty_table()


def _arrow_blocks(refs, columns: list | None = None) -> list:
    """ray.get + coerce a Dataset's block refs to Arrow tables.
    ``to_arrow_refs`` passes EMPTY pandas-backed blocks through
    UNCONVERTED (a skipped empty block keeps its original format), so a
    from_pandas-fed pipeline can hand this a raw DataFrame; zero-column
    blocks also skip the ``columns`` projection (nothing to select)."""
    import ray

    out = []
    for r in refs:
        t = ray.get(r)
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t, preserve_index=False)
        if columns is not None and t.num_columns:
            t = t.select(columns)
        out.append(t)
    return out


def _sorted_intersect_count(sa: np.ndarray, sb: np.ndarray) -> int:
    """|sa ∩ sb| for SORTED unique arrays (char_shingles output) — a
    searchsorted membership probe into the smaller side's dual, ~3x faster
    than np.intersect1d (which re-sorts the concatenation per call; the
    verify stage calls this once per candidate pair)."""
    if len(sa) > len(sb):
        sa, sb = sb, sa
    if len(sa) == 0:
        return 0
    idx = np.searchsorted(sb, sa)
    idx[idx == len(sb)] = 0
    return int(np.count_nonzero(sb[idx] == sa))


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    sa, sb = char_shingles(text_a, k), char_shingles(text_b, k)
    if len(sa) == 0 and len(sb) == 0:
        return 1.0
    inter = _sorted_intersect_count(sa, sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 1.0


class ShingleStore:
    """Worker-global (id -> text, id -> sorted shingle hashes) store for the
    broadcast verify path. A doc appears in MANY candidate pairs spread over
    many verify batches; per-batch memoization recomputes its shingles once
    per batch (measured ~120 cpu-s at sf0.1 — the q17 r3 regression). Built
    once per worker via ``broadcast_cached`` and shared across batches, each
    doc's shingles are computed exactly once per worker. Cache growth is
    bounded by ``cap_bytes``; past the cap, shingles compute on the fly (no
    eviction churn, graceful degradation at the broadcast-gate edge where
    shingle arrays are ~8x the text bytes)."""

    __slots__ = ("texts", "shingles", "nbytes", "cap_bytes")

    def __init__(self, texts: dict, cap_bytes: int = 512 << 20):
        self.texts = texts
        self.shingles: dict = {}
        self.nbytes = 0
        self.cap_bytes = cap_bytes

    def get(self, doc_id) -> np.ndarray:
        s = self.shingles.get(doc_id)
        if s is None:
            s = char_shingles(self.texts[doc_id])
            if self.nbytes < self.cap_bytes:
                self.shingles[doc_id] = s
                self.nbytes += s.nbytes
        return s


class VerifyPairs:
    """map_batches callable over joined candidate rows
    (id_a, id_b, text_a, text_b): exact k-shingle Jaccard per pair, with
    shingle sets memoized per doc id within the batch (texts repeat across
    pairs — a dup cluster of m docs shares m shingle sets over m²/2 pairs),
    or across the WORKER lifetime when a ``ShingleStore`` is supplied
    (broadcast path — each doc's shingles computed once per worker).

    Emits (id_a, id_b, jac_milli) for pairs with exact J >= threshold;
    jac_milli = (inter * 1000) // union (integer floor — matches the DuckDB
    oracle's ``//``)."""

    def __init__(self, threshold: float, store: "ShingleStore | None" = None):
        self.threshold = threshold
        self.store = store

    def __call__(self, t: pa.Table) -> pa.Table:
        id_type = t["id_a"].type if t.num_rows else pa.int64()
        empty = pa.table({"id_a": pa.array([], id_type),
                          "id_b": pa.array([], id_type),
                          "jac_milli": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        ids_a = t["id_a"].to_pylist()
        ids_b = t["id_b"].to_pylist()
        if self.store is not None:
            sh = lambda doc_id, _text: self.store.get(doc_id)  # noqa: E731
            texts_a = texts_b = ids_a  # unused placeholders, same length
        else:
            texts_a = t["text_a"].to_pylist()
            texts_b = t["text_b"].to_pylist()
            cache: dict = {}

            def sh(doc_id, text):
                s = cache.get(doc_id)
                if s is None:
                    s = cache[doc_id] = char_shingles(text)
                return s

        out_a, out_b, out_j = [], [], []
        for i in range(t.num_rows):
            sa, sb = sh(ids_a[i], texts_a[i]), sh(ids_b[i], texts_b[i])
            inter = _sorted_intersect_count(sa, sb)
            union = len(sa) + len(sb) - inter
            if union and inter / union >= self.threshold:
                out_a.append(ids_a[i])
                out_b.append(ids_b[i])
                out_j.append((inter * 1000) // union)
        return pa.table({"id_a": pa.array(out_a, id_type),
                         "id_b": pa.array(out_b, id_type),
                         "jac_milli": pa.array(out_j, pa.int64())})


def minhash_lsh_dedup(ds, threshold: float = 0.8, id_col: str = "doc_id",
                      text_col: str = "text", n_buckets: int = 16,
                      broadcast_threshold_bytes: int = 256 << 20):
    """Full near-dup pipeline -> pa.Table of verified (id_a, id_b, jac_milli).

    shingle/minhash per batch (CPU-bound, stateless) -> explode to band rows
    (24 bytes/row in the bucket shuffle — signatures and text stay put) ->
    vectorized per-PARTITION candidate pair expansion -> exact-Jaccard
    verify inside map_batches with per-doc shingle memoization.

    The verify stage picks its join strategy by size (like any engine's
    planner): if the (id, text) side fits ``broadcast_threshold_bytes`` it
    is broadcast ONCE via ``ray.put`` and looked up inside the verify tasks
    (zero shuffles; candidate-pair duplicates across bands are re-verified
    cheaply and deduped on the tiny result); otherwise candidates are
    globally deduped (co-partitioned by id_a, vectorized drop_duplicates)
    and the text hash-joins back for id_a then id_b — everything stays a
    Dataset transform, and only the verified pair list reaches the driver."""
    import ray

    from wikicrawl.functions.joins import hash_join

    n_parts = 64

    def explode(t: pa.Table) -> pa.Table:
        # minhash -> band rows, with the partition id computed in the SAME
        # op (a second map_batches pass costs a fixed ~0.5 s of Ray op
        # overhead at query scale). Same (band, band_hash) bucket -> same
        # partition; a partition holds many whole buckets, so the pair
        # expansion runs vectorized per partition instead of per bucket.
        t = minhash_batch(t, id_col, text_col)
        pb = (t["band_hash"].to_numpy().astype(np.uint64)
              * np.uint64(16) + t["band"].to_numpy().astype(np.uint64))
        return t.append_column("__pb", pa.array(
            (pb % np.uint64(n_parts)).astype(np.int64)))

    bands = ds.map_batches(explode, batch_format="pyarrow")
    cand = bands.groupby("__pb").map_groups(
        lambda g: partition_candidate_pairs(g, id_col), batch_format="pandas"
    )

    size = ds.size_bytes()
    if size is not None and size <= broadcast_threshold_bytes:
        # broadcast path: one (id, text) table in the object store, shared
        # zero-copy by every verify task; no global pair dedup needed (dup
        # pairs re-verify against memoized shingles, dedup on the result)
        texts_ref = ray.put(_concat_nonempty(
            _arrow_blocks(ds.to_arrow_refs(), [id_col, text_col]),
            pa.schema([(id_col, pa.int64()), (text_col, pa.string())])))
        from wikicrawl.functions._cache import broadcast_cached

        def _texts_store(tbl):
            return ShingleStore(dict(zip(tbl.column(0).to_pylist(),
                                         tbl.column(1).to_pylist())))

        def verify_broadcast(t):
            # STATELESS task: the (id, text) ShingleStore is built once per
            # worker from the broadcast table (no actor pool spawn per
            # query) and each doc's shingles are computed once per worker —
            # not once per batch (the r3 q17 regression: ~120 cpu-s of
            # repeated char_shingles at sf0.1)
            return VerifyPairs(threshold, broadcast_cached(texts_ref, _texts_store))(t)

        verified = cand.map_batches(verify_broadcast, batch_format="pyarrow")
        out = (
            verified.to_pandas()
            .drop_duplicates(["id_a", "id_b"])
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def dedup_part(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])[["id_a", "id_b"]]

    def add_a_bucket(t: pa.Table) -> pa.Table:
        from wikicrawl.functions.joins import bucket_of

        e = _typed_empty(t, pa.schema([("id_a", pa.int64()),
                                       ("id_b", pa.int64()),
                                       ("__ab", pa.int64())]))
        if e is not None:
            return e
        return t.append_column("__ab", pa.array(bucket_of(t["id_a"], n_parts)))

    # global pair dedup co-partitioned by id_a (both pair members determine
    # the row, and id_a fixes the partition) — vectorized drop_duplicates
    # per partition, never a per-pair group
    cand = (
        cand.map_batches(add_a_bucket, batch_format="pyarrow")
        .groupby("__ab")
        .map_groups(dedup_part, batch_format="pandas")
    )
    side_a = ds.map_batches(
        lambda t: t.select([id_col, text_col]).rename_columns(["id_a", "text_a"]),
        batch_format="pyarrow",
    )
    side_b = ds.map_batches(
        lambda t: t.select([id_col, text_col]).rename_columns(["id_b", "text_b"]),
        batch_format="pyarrow",
    )
    joined = hash_join(hash_join(cand, side_a, on="id_a", n_buckets=n_buckets),
                       side_b, on="id_b", n_buckets=n_buckets)
    verified = joined.map_batches(
        VerifyPairs(threshold), batch_format="pyarrow"
    )
    out = verified.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# ----------------------------------------------------------- n-gram jaccard


def ngram_explode_batch(batch: pa.Table, n: int = 3, id_col: str = "doc_id",
                        text_col: str = "text", n_parts: int = 64) -> pa.Table:
    """Docs -> distinct (gram_hash, id, n_grams, partition) rows — the
    inverted-index explode for exact n-gram Jaccard.

    Gram hash = first 8 bytes (LE) of md5 of the space-joined word n-gram,
    i.e. DuckDB's ``md5_number_upper`` — the operator's SQL oracle computes
    the identical sets. One md5 per UNIQUE gram in the batch (grams repeat
    heavily across near-dup docs); per-doc distinctness via np.unique.
    ``n_grams`` (the doc's distinct-gram-set size) rides along on every row
    so the Jaccard union needs NO separate sizes join downstream."""
    texts = batch[text_col].to_pylist()
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    flat: list[str] = []
    doc_idx: list[int] = []
    for i, t in enumerate(texts):
        toks = tokenize(t)
        m = len(toks) - n + 1
        if m <= 0:
            continue
        flat.extend(" ".join(toks[j : j + n]) for j in range(m))
        doc_idx.extend([i] * m)
    # id column keeps the INPUT's type (not hardcoded int64): empty and
    # non-empty batches must emit identical schemas or the downstream
    # union/groupby fails on e.g. int32/string ids (ADVICE r3)
    id_type = batch.schema.field(id_col).type
    empty = pa.table({
        "gh": pa.array([], pa.int64()),
        id_col: pa.array([], id_type),
        "n_grams": pa.array([], pa.int64()),
        "__pb": pa.array([], pa.int64()),
    })
    if not flat:
        return empty
    uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
    uh = np.array([token_hash_u64(g) for g in uniq], dtype=np.uint64)
    di = np.array(doc_idx, dtype=np.int64)
    # distinct (doc, gram_HASH) pairs — dedup on the hash, not the string,
    # so set sizes match the oracle's DISTINCT (doc_id, gh) exactly even
    # under a (cosmically unlikely) 64-bit collision
    gh_all = uh[inv]
    order = np.lexsort((gh_all, di))
    di, gh_all = di[order], gh_all[order]
    first = np.empty(len(di), dtype=bool)
    first[0] = True
    first[1:] = (di[1:] != di[:-1]) | (gh_all[1:] != gh_all[:-1])
    di, gh = di[first], gh_all[first]
    sizes = np.bincount(di, minlength=len(texts)).astype(np.int64)
    return pa.table({
        "gh": pa.array(gh.view(np.int64)),
        id_col: pa.array(ids[di]),
        "n_grams": pa.array(sizes[di]),
        "__pb": pa.array((gh % np.uint64(n_parts)).view(np.int64)),
    })


def _partition_pair_counts(part: pd.DataFrame, id_col: str,
                           df_cap: int | None,
                           drop_counter=None) -> pd.DataFrame:
    """All gram groups of ONE hash partition -> partial intersection counts
    (id_a, id_b, ni, na, nb), vectorized: one lexsort finds gram
    boundaries; multi-member grams expand via triu_indices; the partial
    per-pair count aggregates with a pandas groupby (no per-pair Python).
    ``df_cap`` optionally drops grams shared by more than df_cap docs
    (stop-gram pruning — the standard hot-key guard; None = exact).
    Dropped grams are COUNTED via ``drop_counter`` (a _DropCounter actor
    handle) — never silent (VERDICT r3 item 4 / the no-silent-caps rule)."""
    g = part["gh"].to_numpy()
    d = part[id_col].to_numpy()
    nn = part["n_grams"].to_numpy()
    out_empty = pd.DataFrame({"id_a": d[:0], "id_b": d[:0],
                              "ni": nn[:0], "na": nn[:0], "nb": nn[:0]})
    if len(d) == 0:
        return out_empty
    order = np.lexsort((d, g))
    g, d, nn = g[order], d[order], nn[order]
    new_grp = np.empty(len(g), dtype=bool)
    new_grp[0] = True
    new_grp[1:] = g[1:] != g[:-1]
    starts = np.flatnonzero(new_grp)
    sizes = np.diff(np.append(starts, len(g)))
    out_a, out_b, out_na, out_nb = [], [], [], []
    n_dropped = 0
    for gi in np.flatnonzero(sizes > 1):
        s, m = starts[gi], sizes[gi]
        if df_cap is not None and m > df_cap:
            n_dropped += 1
            continue
        ia, ib = np.triu_indices(m, k=1)
        out_a.append(d[s + ia])
        out_b.append(d[s + ib])
        out_na.append(nn[s + ia])
        out_nb.append(nn[s + ib])
    if n_dropped and drop_counter is not None:
        import ray

        # ray.get, not fire-and-forget: the driver reads the counter right
        # after the dataset finishes, and an unawaited add from the last
        # partition task can still be in flight at that point (actor mail
        # ordering only holds per caller) — measured as a suite-order
        # flake. One tiny RPC per partition; cost is noise.
        ray.get(drop_counter.add.remote(n_dropped))
    if not out_a:
        return out_empty
    df = pd.DataFrame({
        "id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b),
        "na": np.concatenate(out_na), "nb": np.concatenate(out_nb),
    })
    agg = (df.groupby(["id_a", "id_b"], sort=False)
           .agg(ni=("na", "size"), na=("na", "first"), nb=("nb", "first"))
           .reset_index())
    return agg[["id_a", "id_b", "ni", "na", "nb"]]


def ngram_jaccard_dedup(ds, n: int = 3, threshold: float = 0.6,
                        id_col: str = "doc_id", text_col: str = "text",
                        n_parts: int = 64, df_cap: int | None = None):
    """EXACT word-n-gram Jaccard near-dup pairs — no sketch, the classic
    inverted-index self-join, fully distributed:

    explode to distinct (gram_hash, id, set_size) rows (set size rides on
    every row, so there is NO sizes join) -> hash-partition by gram ->
    per-PARTITION vectorized pair expansion + partial intersection counts
    -> ONE global (id_a, id_b) sum-aggregate -> vectorized threshold
    filter. Two shuffles total, both pre-aggregated; nothing materializes
    on the driver but the verified pair list.

    Exactness: pair (a, b) accumulates one count per shared gram; grams
    are disjoint across hash partitions, so the global sum is the exact
    intersection size. ``df_cap`` (off by default) trades exactness for a
    bound on hot-gram pair blowup at corpus scale — the standard
    stop-gram guard; with it on, the operator lower-bounds Jaccard.

    Returns pa.Table (id_a, id_b, jac_milli) sorted, jac_milli floored to
    match the oracle's integer ``//``. With ``df_cap`` set, the number of
    dropped hot grams is surfaced in the result's schema metadata
    (``dropped_grams``) and logged — a capped run can never silently
    under-report duplicate pairs (no-silent-caps rule)."""
    import ray

    from wikicrawl.functions.joins import bucket_of

    drop_counter = None
    if df_cap is not None:
        drop_counter = _DropCounter.options(num_cpus=0).remote()

    exploded = ds.map_batches(
        lambda t: ngram_explode_batch(t, n, id_col, text_col, n_parts),
        batch_format="pyarrow",
    )
    partials = exploded.groupby("__pb").map_groups(
        lambda g: _partition_pair_counts(g, id_col, df_cap, drop_counter),
        batch_format="pandas",
    )

    # global pair sum co-partitioned by id_a (both partials of a pair share
    # id_a): 64 vectorized pandas groupbys, NEVER Ray's per-key aggregate —
    # at ~1M distinct pairs the per-group AggregateFn overhead (~250 us/
    # group) turns a 2 s sum into minutes (measured 287 s at sf0.1)
    def add_ab(t: pa.Table) -> pa.Table:
        # strip pandas schema metadata (the upstream pandas map_groups
        # reintroduces it; unhashable dicts break Ray's schema dedup)
        e = _typed_empty(t, pa.schema([
            ("id_a", pa.int64()), ("id_b", pa.int64()), ("ni", pa.int64()),
            ("na", pa.int64()), ("nb", pa.int64()), ("__ab", pa.int64())]))
        if e is not None:
            return e
        t = t.replace_schema_metadata(None)
        return t.append_column("__ab", pa.array(bucket_of(t["id_a"], n_parts)))

    def sum_part(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["id_a", "id_b"], sort=False)
               .agg(ni=("ni", "sum"), na=("na", "first"), nb=("nb", "first"))
               .reset_index())
        return out[["id_a", "id_b", "ni", "na", "nb"]]

    totals = (
        partials.map_batches(add_ab, batch_format="pyarrow")
        .groupby("__ab")
        .map_groups(sum_part, batch_format="pandas")
    )

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "jac_milli": pa.array([], pa.int64())})
        ni = t["ni"].to_numpy().astype(np.int64)
        nu = (t["na"].to_numpy().astype(np.int64)
              + t["nb"].to_numpy().astype(np.int64) - ni)
        # same float expression as the SQL oracle (ni*1.0/nu >= thr), so
        # boundary pairs round identically on both sides
        keep = (nu > 0) & (ni / np.maximum(nu, 1) >= threshold)
        kept = t.filter(pa.array(keep))
        return pa.table({
            "id_a": kept["id_a"],
            "id_b": kept["id_b"],
            "jac_milli": pa.array((ni[keep] * 1000) // nu[keep], pa.int64()),
        })

    out = totals.map_batches(finalize, batch_format="pyarrow").to_pandas()
    if "id_a" not in out.columns:
        # zero candidate pairs anywhere -> Ray yields a columnless frame
        out = pd.DataFrame({c: pd.Series([], dtype="int64")
                            for c in ("id_a", "id_b", "jac_milli")})
    out = out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    tbl = pa.Table.from_pandas(out, preserve_index=False)
    if drop_counter is not None:
        dropped = int(ray.get(drop_counter.get.remote()))
        ray.kill(drop_counter)
        if dropped:
            import logging

            logging.getLogger(__name__).warning(
                "ngram_jaccard_dedup df_cap=%d dropped %d hot grams — "
                "pair Jaccards are lower bounds", df_cap, dropped)
        tbl = tbl.replace_schema_metadata(
            {b"dropped_grams": str(dropped).encode()})
    return tbl


import ray as _ray  # noqa: E402  (decorator only; no session needed here)


@_ray.remote
class _DropCounter:
    """Zero-CPU counter actor: aggregates hot-gram drop counts from the
    distributed _partition_pair_counts tasks so a df_cap run reports
    exactly how much it pruned."""

    def __init__(self):
        self.n = 0

    def add(self, k: int) -> None:
        self.n += int(k)

    def get(self) -> int:
        return self.n


def decontaminate_join(corpus_ds, bench_ds, n: int = 3,
                       id_col: str = "doc_id", text_col: str = "text",
                       n_parts: int = 64) -> pa.Table:
    """Decontamination for a benchmark side TOO BIG TO BROADCAST — the
    inverted-index join fallback that q33's broadcast probe documents:

    both sides explode to distinct (gram_hash, id) rows hash-partitioned
    by gram; within each partition the benchmark grams form a sorted
    array and corpus rows probe it (vectorized searchsorted); per-doc
    partial hit counts then sum in ONE small second shuffle (rows =
    docs x partitions at most — counts, never text). Emits
    (doc_id, n_hits = distinct shared grams), identical to the broadcast
    path (equivalence pinned by test_decontaminate_join_matches_broadcast).

    Scale shape: two shuffles — grams (24 B/row, both sides) and tiny
    partial counts; neither side ever materializes on the driver."""
    from wikicrawl.functions.joins import bucket_of

    def explode_side(side: int):
        def f(t: pa.Table) -> pa.Table:
            ex = ngram_explode_batch(t, n, id_col, text_col, n_parts)
            return pa.table({
                "gh": ex["gh"],
                id_col: ex[id_col],
                "__pb": ex["__pb"],
                "side": pa.array(
                    np.full(ex.num_rows, side, dtype=np.int8)),
            })
        return f

    both = (corpus_ds.map_batches(explode_side(0), batch_format="pyarrow")
            .union(bench_ds.map_batches(explode_side(1),
                                        batch_format="pyarrow")))

    def partition_hits(g: pd.DataFrame) -> pd.DataFrame:
        bench = np.unique(g.loc[g["side"] == 1, "gh"].to_numpy())
        cor = g[g["side"] == 0]
        if not len(bench) or not len(cor):
            return pd.DataFrame({id_col: cor[id_col].iloc[:0],
                                 "hits": np.array([], dtype=np.int64)})
        gh = cor["gh"].to_numpy()
        idx = np.searchsorted(bench, gh)
        idx[idx == len(bench)] = 0
        hit = bench[idx] == gh
        out = (cor.loc[hit].groupby(id_col, sort=False).size()
               .rename("hits").reset_index())
        return out

    partials = both.groupby("__pb").map_groups(
        partition_hits, batch_format="pandas")

    def add_bucket(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return t.append_column(
            "__db", pa.array(bucket_of(t[id_col], n_parts)))

    def sum_hits(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(id_col, sort=False)["hits"].sum()
               .astype(np.int64).rename("n_hits").reset_index())
        return out[[id_col, "n_hits"]]

    out = (partials.map_batches(add_bucket, batch_format="pyarrow")
           .groupby("__db").map_groups(sum_hits, batch_format="pandas")
           .to_pandas())
    if id_col not in out.columns:  # zero overlap anywhere
        out = pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                            "n_hits": pd.Series([], dtype="int64")})
    out = out.sort_values(id_col).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# ---------------------------------------------------------------- simhash

_BIT_POS = np.arange(64, dtype=np.uint64)


def token_hash_u64(token: str) -> int:
    """First 8 bytes of md5, little-endian — DuckDB's md5_number_upper."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8],
                          "little")


# RE2's \s is exactly [\t\n\f\r ] (NOT \v, NOT Unicode whitespace), so the
# DuckDB/Arrow oracles' regexp_extract_all(text, '\S+') tokenization splits
# ONLY on those five ASCII chars. Python str.split() splits on all Unicode
# whitespace — a latent Ray-vs-oracle divergence on NBSP/U+2028/\v text
# (ADVICE r3). Every Python-side tokenizer below uses this shared pattern.
_RE2_TOKEN = re.compile(r"[^ \t\n\f\r]+")


def tokenize(text: str) -> list[str]:
    """RE2-'\\S+'-exact whitespace tokenization (see _RE2_TOKEN)."""
    return _RE2_TOKEN.findall(text)


def chunk_hash_rows(texts: list[str], k: int):
    """Per-OCCURRENCE hashes of aligned non-overlapping k-token chunks
    (chunk j = tokens [j*k, (j+1)*k); the short tail is not a chunk) —
    the unit of exact duplicate-span removal (q40). Returns
    ``(doc_idx, gh, n_tokens, n_chunks)``: int64 arrays of the owning
    doc index and chunk hash per occurrence, plus per-doc token/chunk
    counts. One md5 per UNIQUE chunk in the batch (duplicated spans
    repeat heavily by construction); hash = md5-low-64 LE =
    DuckDB ``md5_number_upper`` of the space-joined chunk."""
    flat: list[str] = []
    doc_idx: list[int] = []
    n_tokens = np.zeros(len(texts), dtype=np.int64)
    n_chunks = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = tokenize(t)
        n_tokens[i] = len(toks)
        m = len(toks) // k
        n_chunks[i] = m
        flat.extend(" ".join(toks[j * k : (j + 1) * k]) for j in range(m))
        doc_idx.extend([i] * m)
    if not flat:
        return (np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                n_tokens, n_chunks)
    uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
    uh = np.array([token_hash_u64(g) for g in uniq], dtype=np.uint64)
    return (np.array(doc_idx, dtype=np.int64), uh[inv].view(np.int64),
            n_tokens, n_chunks)


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (md5-low-64 token hashes).
    Scalar reference version; the batch path is :func:`simhash_batch`."""
    acc = np.zeros(64, dtype=np.int64)
    for tok in tokenize(text):
        h = np.uint64(token_hash_u64(tok))
        bits = (h >> _BIT_POS) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    val = 0
    for i in range(64):
        if acc[i] > 0:
            val |= 1 << i
    return val - (1 << 64) if val >= (1 << 63) else val


def simhash_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Vectorized SimHash: one md5 per UNIQUE token in the batch, then a
    single (U, 64) bit matrix + scatter-add per doc — no per-token loops in
    the accumulation path."""
    texts = batch[text_col].to_pylist()
    n = len(texts)
    flat: list[str] = []
    doc_idx: list[int] = []
    for i, t in enumerate(texts):
        toks = tokenize(t)
        flat.extend(toks)
        doc_idx.extend([i] * len(toks))
    if not flat:
        vals = np.zeros(n, dtype=np.int64)
    else:
        uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
        uh = np.array([token_hash_u64(tok) for tok in uniq], dtype=np.uint64)
        contrib = (((uh[:, None] >> _BIT_POS[None, :]) & np.uint64(1))
                   .astype(np.int64) * 2 - 1)  # (U, 64) of ±1
        acc = np.zeros((n, 64), dtype=np.int64)
        np.add.at(acc, np.array(doc_idx), contrib[inv])
        uval = ((acc > 0).astype(np.uint64) << _BIT_POS[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        vals = uval.view(np.int64)
    return pa.table(
        {id_col: batch[id_col], "simhash": pa.array(vals, type=pa.int64())}
    )


SIMHASH_BANDS = 4  # 4 x 16-bit bands: any pair with hamming <= 3 shares
# at least one band unchanged (pigeonhole), so band-bucket candidate
# generation has GUARANTEED recall at that threshold — the operator is
# exact, not approximate, and its SQL oracle is a plain bit_count(xor(...))


def simhash_bands_batch(batch: pa.Table, id_col: str = "doc_id",
                        hash_col: str = "simhash") -> pa.Table:
    """(id, hash64) -> exploded (band, band_hash, id) rows for the bucket
    groupby — same row shape the MinHash-LSH candidate machinery consumes.
    Works for ANY int64 bit-fingerprint column (simhash, phash)."""
    h = batch[hash_col].to_numpy(zero_copy_only=False).view(np.uint64)
    n = len(h)
    bands = np.tile(np.arange(SIMHASH_BANDS, dtype=np.int32), n)
    vals = np.empty((n, SIMHASH_BANDS), dtype=np.int64)
    for b in range(SIMHASH_BANDS):
        vals[:, b] = ((h >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
    ids = batch[id_col].combine_chunks() if isinstance(batch[id_col], pa.ChunkedArray) else batch[id_col]
    idx = np.repeat(np.arange(n), SIMHASH_BANDS)
    return pa.table({
        "band": pa.array(bands, type=pa.int32()),
        "band_hash": pa.array(vals.reshape(-1), type=pa.int64()),
        id_col: ids.take(pa.array(idx)),
    })


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (unpackbits over the bytes)."""
    by = np.ascontiguousarray(x).view(np.uint8).reshape(len(x), 8)
    return np.unpackbits(by, axis=1).sum(axis=1).astype(np.int64)


class VerifyHamming:
    """map_batches callable over candidate pairs: vectorized hamming
    distance, keeps pairs with distance <= max_hamming.

    Two modes (mirrors :class:`VerifyPairs`): with ``sim`` a broadcast
    (id -> hash) index, fingerprints are looked up per id; with
    ``sim=None`` the batch already carries joined ``hash_a`` / ``hash_b``
    columns (the partitioned hash-join large-side path) and the verify is
    pure column arithmetic — no per-worker index at all."""

    def __init__(self, max_hamming: int, sim: dict | None = None):
        self.sim = sim
        self.max_hamming = max_hamming

    def __call__(self, t: pa.Table) -> pa.Table:
        id_type = t["id_a"].type if t.num_rows else pa.int64()
        if t.num_rows == 0:
            return pa.table({"id_a": pa.array([], id_type),
                             "id_b": pa.array([], id_type),
                             "hamming": pa.array([], pa.int64())})
        if self.sim is not None:
            ids_a = t["id_a"].to_pylist()
            ids_b = t["id_b"].to_pylist()
            ha = np.array([self.sim[i] for i in ids_a], dtype=np.int64).view(np.uint64)
            hb = np.array([self.sim[i] for i in ids_b], dtype=np.int64).view(np.uint64)
        else:
            ha = (t["hash_a"].to_numpy(zero_copy_only=False)
                  .astype(np.int64).view(np.uint64))
            hb = (t["hash_b"].to_numpy(zero_copy_only=False)
                  .astype(np.int64).view(np.uint64))
        d = _popcount64(ha ^ hb)
        keep = d <= self.max_hamming
        kept = t.filter(pa.array(keep))
        return pa.table({
            "id_a": kept["id_a"],
            "id_b": kept["id_b"],
            "hamming": pa.array(d[keep], type=pa.int64()),
        })


def simhash_dup_pairs(ds, max_hamming: int = 3, id_col: str = "doc_id",
                      text_col: str = "text", **dedup_kwargs):
    """SimHash near-dup pairs over a text column — fingerprints per batch,
    then the generic :func:`hamming_dup_pairs` band-probe machinery."""
    sim = ds.map_batches(
        lambda t: simhash_batch(t, id_col, text_col), batch_format="pyarrow"
    )
    return hamming_dup_pairs(sim, max_hamming=max_hamming, id_col=id_col,
                             hash_col="simhash", **dedup_kwargs)


def hamming_dup_pairs(fps, max_hamming: int = 3, id_col: str = "doc_id",
                      hash_col: str = "simhash", n_buckets: int = 16,
                      broadcast_threshold_bytes: int = 256 << 20):
    """Near-dup pairs of a 64-bit fingerprint column -> pa.Table
    (id_a, id_b, hamming), EXACT for ``max_hamming < SIMHASH_BANDS``
    (pigeonhole: k flips cannot touch all k+1 bands): 16-bit band explode
    -> coarse-partition candidate pair expansion (same vectorized machinery
    as MinHash-LSH) -> vectorized popcount verify.

    SIZE-SWITCHED verify (same planner rule as :func:`minhash_lsh_dedup`,
    VERDICT r2 item 2): below ``broadcast_threshold_bytes`` the (id, hash)
    table is broadcast once via ``ray.put`` and looked up inside the verify
    tasks; above it NOTHING materializes on the driver — candidate pairs
    are globally deduped co-partitioned by id_a, the fingerprints hash-join
    back as ``hash_a`` / ``hash_b`` columns, and the popcount verify is
    pure column arithmetic. Drives both SimHash text near-dup (q22) and
    perceptual-hash image near-dup (maintenance)."""
    import ray

    sim = fps.materialize()  # consumed twice: band explode + verify side

    n_parts = 64

    def add_part(t: pa.Table) -> pa.Table:
        pb = (t["band_hash"].to_numpy().astype(np.uint64) * np.uint64(4)
              + t["band"].to_numpy().astype(np.uint64))
        return t.append_column("__pb", pa.array(
            (pb % np.uint64(n_parts)).astype(np.int64)))

    cand = (
        sim.map_batches(lambda t: simhash_bands_batch(t, id_col, hash_col),
                        batch_format="pyarrow")
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("__pb")
        .map_groups(lambda g: partition_candidate_pairs(g, id_col),
                    batch_format="pandas")
    )

    size = sim.size_bytes()
    if size is not None and size <= broadcast_threshold_bytes:
        # broadcast path: one (id, hash) table in the object store, index
        # built once per worker; dup candidates re-verify cheaply and the
        # tiny verified result dedups on the driver
        sim_tbl = _concat_nonempty(
            _arrow_blocks(sim.to_arrow_refs(), [id_col, hash_col]),
            pa.schema([(id_col, pa.int64()), (hash_col, pa.int64())]))
        sim_ref = ray.put(sim_tbl)
        from wikicrawl.functions._cache import broadcast_cached

        def _sim_index(tbl):
            return dict(zip(tbl.column(0).to_pylist(),
                            tbl.column(1).to_pylist()))

        def verify_hamming(t):
            return VerifyHamming(max_hamming,
                                 broadcast_cached(sim_ref, _sim_index))(t)

        verified = cand.map_batches(verify_hamming, batch_format="pyarrow")
        out = (
            verified.to_pandas()
            .drop_duplicates(["id_a", "id_b"])
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    # large-side path: no driver materialization of the fingerprints.
    # Global pair dedup co-partitioned by id_a (vectorized drop_duplicates
    # per partition), then the fingerprint column hash-joins back for each
    # pair member — one shuffle per join side, verify is column arithmetic.
    from wikicrawl.functions.joins import bucket_of, hash_join

    def dedup_part(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])[["id_a", "id_b"]]

    def add_a_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__ab", pa.array(bucket_of(t["id_a"], n_parts)))

    cand = (
        cand.map_batches(add_a_bucket, batch_format="pyarrow")
        .groupby("__ab")
        .map_groups(dedup_part, batch_format="pandas")
    )
    side_a = sim.map_batches(
        lambda t: t.select([id_col, hash_col]).rename_columns(["id_a", "hash_a"]),
        batch_format="pyarrow",
    )
    side_b = sim.map_batches(
        lambda t: t.select([id_col, hash_col]).rename_columns(["id_b", "hash_b"]),
        batch_format="pyarrow",
    )
    joined = hash_join(hash_join(cand, side_a, on="id_a", n_buckets=n_buckets),
                       side_b, on="id_b", n_buckets=n_buckets)
    verified = joined.map_batches(VerifyHamming(max_hamming),
                                  batch_format="pyarrow")
    out = verified.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# ------------------------------------------------------------- embeddings


def embedding_dup_pairs(group: pd.DataFrame, threshold: float = 0.99,
                        id_col: str = "vec_id", vec_col: str = "embedding",
                        block: int = 4096) -> pd.DataFrame:
    """Within one partition (label group): all pairs with cosine >= threshold.

    BLOCKED matmul: the similarity matrix is computed block × block
    (``block`` rows at a time), so peak memory is O(block²) no matter how
    hot the label is — a million-row label needs ~128 MB per tile, never
    the full n² matrix (VERDICT r1 note). Sim reported in micro units."""
    ids = group[id_col].to_numpy()
    mat = np.stack(group[vec_col].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    unit = mat / norms[:, None]
    n = len(ids)
    out_a, out_b, out_s = [], [], []
    for i0 in range(0, n, block):
        bi = unit[i0 : i0 + block]
        for j0 in range(i0, n, block):
            bj = unit[j0 : j0 + block]
            sims = bi @ bj.T
            if i0 == j0:  # within-tile: upper triangle only
                iu = np.triu_indices(sims.shape[0], k=1, m=sims.shape[1])
            else:
                iu = np.unravel_index(np.arange(sims.size), sims.shape)
            vals = sims[iu]
            mask = vals >= threshold
            if not mask.any():
                continue
            out_a.append(ids[i0 + iu[0][mask]])
            out_b.append(ids[j0 + iu[1][mask]])
            out_s.append(vals[mask])
    if not out_a:
        return pd.DataFrame({"id_a": ids[:0], "id_b": ids[:0],
                             "sim_micro": np.array([], dtype=np.int64)})
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    s = np.concatenate(out_s)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    return pd.DataFrame(
        {
            "id_a": lo[order],
            "id_b": hi[order],
            "sim_micro": round_half_away(s[order], 1_000_000),
        }
    )


def _chunk_of(ids: np.ndarray, n_chunks: int) -> np.ndarray:
    """Deterministic chunk assignment within a label (stable int hash)."""
    h = pd.util.hash_array(np.asarray(ids, dtype=np.int64))
    return (h % np.uint64(n_chunks)).astype(np.int64)


def _cross_dup_pairs(ga: pd.DataFrame, gb: pd.DataFrame, threshold: float,
                     id_col: str, vec_col: str, block: int = 4096) -> pd.DataFrame:
    """All cross pairs (a in ga, b in gb) with cosine >= threshold, blocked
    tiling (peak memory O(block^2))."""
    ids_a = ga[id_col].to_numpy()
    ids_b = gb[id_col].to_numpy()
    ua = np.stack(ga[vec_col].to_numpy()).astype(np.float64)
    ub = np.stack(gb[vec_col].to_numpy()).astype(np.float64)
    for u in (ua, ub):
        n = np.linalg.norm(u, axis=1)
        n[n == 0] = 1.0
        u /= n[:, None]
    out_a, out_b, out_s = [], [], []
    for i0 in range(0, len(ids_a), block):
        bi = ua[i0: i0 + block]
        for j0 in range(0, len(ids_b), block):
            sims = bi @ ub[j0: j0 + block].T
            ii, jj = np.nonzero(sims >= threshold)
            if len(ii):
                out_a.append(ids_a[i0 + ii])
                out_b.append(ids_b[j0 + jj])
                out_s.append(sims[ii, jj])
    if not out_a:
        return pd.DataFrame({"id_a": ids_a[:0], "id_b": ids_a[:0],
                             "sim_micro": np.array([], dtype=np.int64)})
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    s = np.concatenate(out_s)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    return pd.DataFrame({"id_a": lo[order], "id_b": hi[order],
                         "sim_micro": round_half_away(s[order], 1_000_000)})


def embedding_dup_pairs_blocked(ds, threshold: float = 0.99,
                                id_col: str = "vec_id",
                                vec_col: str = "embedding",
                                label_col: str = "label",
                                n_chunks: int = 4):
    """EXACT within-label cosine near-dup, decomposed so no task ever sees
    a whole label (VERDICT r2 item 5).

    Exactness at a low threshold rules out LSH-style candidate pruning
    (banding has recall < 1 for far-but-above-threshold pairs), so the
    scale path keeps the O(n^2) FLOPs but distributes them: each label is
    hash-split into ``n_chunks`` chunks; every unordered chunk pair (i, j)
    becomes ONE shuffle group holding only chunks i and j (2/n_chunks of
    the label), computed as a blocked cross matmul (or upper-triangle
    within-chunk when i == j). A pair (a, b) lands in exactly one group —
    (min(ca, cb), max(ca, cb)) — so the union over groups is the exact
    all-pairs answer with no dedup pass. Replication factor is n_chunks
    (each row joins the n_chunks groups its chunk touches); a hot label
    becomes n_chunks*(n_chunks+1)/2 independent tasks instead of one.

    Returns pa.Table (id_a, id_b, sim_micro) sorted by (id_a, id_b)."""
    B = n_chunks
    pair_list = [(i, j) for i in range(B) for j in range(i, B)]

    def replicate(t: pa.Table) -> pa.Table:
        chunk = _chunk_of(t[id_col].to_numpy(zero_copy_only=False), B)
        parts = []
        for pi, (i, j) in enumerate(pair_list):
            sub = t.filter(pa.array((chunk == i) | (chunk == j)))
            parts.append(sub.append_column(
                "__pp", pa.array(np.full(sub.num_rows, pi, dtype=np.int64))
            ))
        return pa.concat_tables(parts)

    def group_pairs(g: pd.DataFrame) -> pd.DataFrame:
        pi = int(g["__pp"].iloc[0])
        i, j = pair_list[pi]
        chunk = _chunk_of(g[id_col].to_numpy(), B)
        if i == j:
            return embedding_dup_pairs(g[chunk == i], threshold, id_col, vec_col)
        ga, gb = g[chunk == i], g[chunk == j]
        if len(ga) == 0 or len(gb) == 0:
            ids = g[id_col].to_numpy()
            return pd.DataFrame({"id_a": ids[:0], "id_b": ids[:0],
                                 "sim_micro": np.array([], dtype=np.int64)})
        return _cross_dup_pairs(ga, gb, threshold, id_col, vec_col)

    out = (
        ds.map_batches(replicate, batch_format="pyarrow")
        .groupby([label_col, "__pp"])
        .map_groups(group_pairs, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        out = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                            "id_b": pd.Series([], dtype="int64"),
                            "sim_micro": pd.Series([], dtype="int64")})
    out = out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# ---------------------------------------------------- incremental dedup


def incremental_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Incremental ingestion dedup: rows with odd id are the ARRIVING
    batch; rows with even id are the FROZEN prior corpus. A new row is
    kept only if its content md5 is absent from the prior corpus's hash
    set, which broadcasts once via ray.put (sorted int64 array,
    searchsorted probe per batch — the q33 pattern); the new stream is
    then filtered with ZERO shuffles. At 100 TB the broadcast side is
    the corpus INDEX (8 B/doc), not the corpus; a too-big index falls
    back to the inverted-index join (decontaminate_join's shape).
    Returns a Dataset of kept new-row ids."""
    import pyarrow.compute as pc
    import ray

    from wikicrawl.functions._cache import broadcast_cached

    def old_hashes(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.equal(pc.bit_wise_and(t[id_col], 1), 0))
        hs = np.array([token_hash_u64(x) for x in sub[text_col].to_pylist()],
                      dtype=np.uint64).view(np.int64)
        return pa.table({"h": pa.array(np.unique(hs))})

    old = ds.map_batches(old_hashes, batch_format="pyarrow").to_pandas()
    old_ref = ray.put(np.unique(old["h"].to_numpy(np.int64)))

    def keep_new(t: pa.Table) -> pa.Table:
        b = broadcast_cached(old_ref, lambda a: a)
        sub = t.filter(pc.equal(pc.bit_wise_and(t[id_col], 1), 1))
        if sub.num_rows == 0 or len(b) == 0:
            return pa.table({id_col: sub[id_col]})
        hs = np.array([token_hash_u64(x) for x in sub[text_col].to_pylist()],
                      dtype=np.uint64).view(np.int64)
        idx = np.searchsorted(b, hs)
        idx[idx == len(b)] = 0
        return pa.table({id_col: sub[id_col].filter(pa.array(b[idx] != hs))})

    return ds.map_batches(keep_new, batch_format="pyarrow")


def md5_low_u64(token: str) -> int:
    """Bytes 8..16 of md5, little-endian — DuckDB's md5_number_lower.
    The independent second hash for double-hashing schemes (Kirsch &
    Mitzenmacher 2006: k bloom positions from two base hashes)."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[8:16],
                          "little")


def bloom_incremental_report(ds, k: int = 3, bits_per_doc: int = 8,
                             id_col: str = "doc_id",
                             text_col: str = "text"):
    """BLOOM-FILTER incremental-ingestion dedup report — the 100-TB scale
    path for :func:`incremental_dedup`: where q49 broadcasts the prior
    corpus's exact 8 B/doc hash index, the bloom collapses it to
    ``bits_per_doc`` BITS/doc (64x smaller), at the price of measurable
    false positives. This operator both RUNS the filter and MEASURES it:
    per arriving (odd-id) doc it emits ``maybe_dup`` (all k bloom bits
    set), ``is_dup`` (exact prior-text match) and ``false_positive`` —
    the report a pipeline owner reads before swapping q49's index for
    the bloom.

    Construction is exactly SQL-expressible (no float, no randomness):
    m = smallest power of two >= bits_per_doc * n_prior; the k positions
    of a doc are (h1 + j*h2) mod m for j in 0..k-1 with h1/h2 the two
    md5 64-bit halves (DuckDB md5_number_upper/lower).

    Scale shape: pass 0 counts the prior side (pruned id-only read);
    pass 1 builds PER-BATCH packed bitmaps (m/8 bytes each, constant per
    batch) OR-ed on the driver — driver traffic never scales with corpus
    rows; pass 2 probes each arriving batch vectorized against the
    broadcast bitmap. The exact-verify column probes the q49 index only
    to LABEL false positives; a production run joins only the maybe_dup
    sliver against it."""
    import pyarrow.compute as pc
    import ray

    from wikicrawl.functions._cache import broadcast_cached

    n_prior = int(ds.map_batches(
        lambda t: pa.table({"n": pa.array(
            [int(pc.sum(pc.cast(pc.equal(pc.bit_wise_and(
                t[id_col], 1), 0), pa.int64())).as_py() or 0)],
            pa.int64())}),
        batch_format="pyarrow").to_pandas()["n"].sum())
    m = 1 << max(int(bits_per_doc * n_prior - 1).bit_length(), 3)

    def _hash_pair(texts):
        h1 = np.fromiter((token_hash_u64(x) for x in texts), np.uint64,
                         count=len(texts))
        h2 = np.fromiter((md5_low_u64(x) for x in texts), np.uint64,
                         count=len(texts))
        return h1, h2

    def _positions(h1, h2):
        j = np.arange(k, dtype=np.uint64)
        return ((h1[:, None] + j[None, :] * h2[:, None])
                % np.uint64(m)).astype(np.int64)

    def prior_partials(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.equal(pc.bit_wise_and(t[id_col], 1), 0))
        bits = np.zeros(m, dtype=np.uint8)
        texts = sub[text_col].to_pylist()
        if texts:
            h1, h2 = _hash_pair(texts)
            bits[_positions(h1, h2).ravel()] = 1
        hs = np.unique(np.fromiter((token_hash_u64(x) for x in texts),
                                   np.uint64, count=len(texts))
                       .view(np.int64))
        return pa.table({"bitmap": pa.array([np.packbits(bits).tobytes()],
                                            pa.binary()),
                         "hashes": pa.array([hs.tobytes()], pa.binary())})

    parts = ds.map_batches(prior_partials, batch_format="pyarrow"
                           ).to_pandas()
    bitmap = np.zeros(m // 8, dtype=np.uint8)
    for b in parts["bitmap"]:
        bitmap |= np.frombuffer(b, dtype=np.uint8)
    exact = np.unique(np.concatenate(
        [np.frombuffer(h, dtype=np.int64) for h in parts["hashes"]]
        or [np.array([], np.int64)]))
    state_ref = ray.put({"bitmap": bitmap, "exact": exact})

    def probe_new(t: pa.Table) -> pa.Table:
        st = broadcast_cached(state_ref, lambda s: s)
        bm, ex = st["bitmap"], st["exact"]
        sub = t.filter(pc.equal(pc.bit_wise_and(t[id_col], 1), 1))
        texts = sub[text_col].to_pylist()
        if not texts:
            return pa.table({id_col: sub[id_col],
                             "maybe_dup": pa.array([], pa.bool_()),
                             "is_dup": pa.array([], pa.bool_()),
                             "false_positive": pa.array([], pa.bool_())})
        h1, h2 = _hash_pair(texts)
        pos = _positions(h1, h2)
        hit = (bm[pos >> 3] >> (7 - (pos & 7).astype(np.uint8))) & 1
        maybe = hit.all(axis=1)
        hs = h1.view(np.int64)
        if len(ex):
            idx = np.searchsorted(ex, hs)
            idx[idx == len(ex)] = 0
            is_dup = ex[idx] == hs
        else:
            is_dup = np.zeros(len(hs), dtype=bool)
        return pa.table({id_col: sub[id_col],
                         "maybe_dup": pa.array(maybe),
                         "is_dup": pa.array(is_dup),
                         "false_positive": pa.array(maybe & ~is_dup)})

    return ds.map_batches(probe_new, batch_format="pyarrow")


def cdc_chunk_dedup_report(ds, window: int = 8, base: int = 33,
                           boundary_mod: int = 32,
                           id_col: str = "doc_id", text_col: str = "text",
                           group_col: str = "source", n_parts: int = 32):
    """CONTENT-DEFINED-CHUNKING dedup report (the Rabin/FastCDC family —
    e.g. Xia et al. 2016 — minus the min/max clamps, which would make
    cut points depend on earlier cuts and kill both vectorization and
    the SQL twin): a sliding ``window``-byte polynomial hash
    H(i) = Σ_j code[i−W+1+j]·base^(W−1−j) marks a chunk boundary after
    every position where H % boundary_mod == 0, so chunk edges follow
    CONTENT, not offsets — an insertion early in a doc shifts bytes but
    downstream cut points (and so downstream chunk identities) re-align,
    which is why storage/transfer dedup uses CDC instead of fixed-size
    blocks. First occurrence of a chunk (global (doc_id, ord) order)
    owns it; later occurrences are duplicates. Output: one row per
    ``group_col`` — n_chunks, n_dup_chunks, dup_bytes (bytes a
    chunk-store would NOT re-store).

    Scale shape: chunking is ONE batch-vectorized pass (docs concatenated
    per batch, a single sliding-window matmul, boundary masks — no
    per-char Python); only (chunk_hash, id, ord, len, group) rows —
    ~16 B per ~boundary_mod input bytes — enter the ONE hash-partition
    shuffle; per-bucket ranking is a vectorized pandas kernel emitting
    O(groups) partials, and the driver reduce is O(buckets × groups)."""
    from numpy.lib.stride_tricks import sliding_window_view

    from wikicrawl.functions.joins import bucket_of

    W = window
    pows = np.array([base ** (W - 1 - j) for j in range(W)], np.int64)

    def chunk_batch(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        grp = t[group_col].to_pylist()
        enc = [x.encode("utf-8") for x in texts]
        keep = [i for i, e in enumerate(enc) if len(e)]
        enc = [enc[i] for i in keep]
        if not enc:
            return pa.table({"chunk_h": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "ord": pa.array([], pa.int64()),
                             "length": pa.array([], pa.int64()),
                             group_col: pa.array([], pa.string())})
        ids = ids[keep]
        grp = [grp[i] for i in keep]
        lens = np.array([len(e) for e in enc], np.int64)
        buf = b"".join(enc)
        codes = np.frombuffer(buf, np.uint8).astype(np.int64)
        n = len(codes)
        doc_starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        doc_of = np.repeat(np.arange(len(enc)), lens)
        cut = np.zeros(n, dtype=bool)
        if n >= W:
            h = sliding_window_view(codes, W) @ pows
            cut[W - 1:] = (h % boundary_mod) == 0
        rel = np.arange(n) - doc_starts[doc_of]
        cut &= (rel >= W - 1) & (rel < lens[doc_of] - 1)
        starts = np.sort(np.concatenate(
            [doc_starts, np.flatnonzero(cut) + 1]))
        ends = np.concatenate([starts[1:], [n]])
        cdoc = doc_of[starts]
        first_idx = np.searchsorted(starts, doc_starts)
        ords = np.arange(len(starts)) - np.repeat(
            first_idx, np.diff(np.concatenate([first_idx, [len(starts)]])))
        hs = np.fromiter(
            (int.from_bytes(hashlib.md5(buf[s:e]).digest()[:8], "little")
             for s, e in zip(starts, ends)),
            np.uint64, count=len(starts)).view(np.int64)
        return pa.table({
            "chunk_h": pa.array(hs),
            id_col: pa.array(ids[cdoc], pa.int64()),
            "ord": pa.array(ords, pa.int64()),
            "length": pa.array(ends - starts, pa.int64()),
            group_col: pa.array([grp[i] for i in cdoc], pa.string()),
        })

    def part(t: pa.Table) -> pa.Table:
        return t.append_column("__p",
                               pa.array(bucket_of(t["chunk_h"], n_parts)))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "ord"], kind="mergesort")
        dup = g.groupby("chunk_h", sort=False).cumcount() > 0
        out = pd.DataFrame({group_col: g[group_col].to_numpy(),
                            "dup": dup.to_numpy(),
                            "length": g["length"].to_numpy()})
        agg = out.groupby(group_col, as_index=False).agg(
            n_chunks=("dup", "size"), n_dup_chunks=("dup", "sum"),
            dup_bytes=("length", lambda s: 0))
        agg["dup_bytes"] = out[out.dup].groupby(group_col)["length"].sum() \
            .reindex(agg[group_col]).fillna(0).to_numpy(np.int64)
        return agg

    parts = (ds.map_batches(chunk_batch, batch_format="pyarrow")
             .map_batches(part, batch_format="pyarrow")
             .groupby("__p").map_groups(rank_bucket, batch_format="pandas")
             ).to_pandas()
    out = parts.groupby(group_col, as_index=False).agg(
        n_chunks=("n_chunks", "sum"), n_dup_chunks=("n_dup_chunks", "sum"),
        dup_bytes=("dup_bytes", "sum"))
    for c in ("n_chunks", "n_dup_chunks", "dup_bytes"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(group_col).reset_index(drop=True)


# --------------------------------------------------------------- ppjoin


def _verify_set_pairs_vec(ids_a, ids_b, get_set, threshold: float):
    """Exact Jaccard verify over candidate (id_a, id_b) pairs, VECTORIZED
    per id_a group: all of one id's partner sets concatenate into a
    single searchsorted membership probe + one segment-reduceat — no
    per-pair Python (a per-pair loop at 1M+ candidates was the q90
    verify bottleneck: ~10 s of pure interpreter). ``get_set(id)`` must
    return the id's SORTED distinct gram array. Keeps the oracle's float
    expression (ni/nu >= threshold) for boundary-identical rounding."""
    out_a: list = []
    out_b: list = []
    out_j: list = []
    if len(ids_a):
        df = pd.DataFrame({"a": ids_a, "b": ids_b})
        for a, grp in df.groupby("a", sort=False):
            sa = get_set(a)
            bs = grp["b"].to_numpy()
            sbs = [get_set(b) for b in bs]
            lens = np.array([len(x) for x in sbs], np.int64)
            concat = (np.concatenate(sbs) if sbs
                      else np.array([], np.int64))
            hits = np.zeros(len(concat), bool)
            if len(sa) and len(concat):
                pos = np.searchsorted(sa, concat)
                inb = pos < len(sa)
                hits[inb] = sa[pos[inb]] == concat[inb]
            offs = np.concatenate(([0], np.cumsum(lens)))[:-1]
            ni = (np.add.reduceat(hits, offs).astype(np.int64)
                  if len(concat) else np.zeros(len(bs), np.int64))
            ni[lens == 0] = 0
            nu = len(sa) + lens - ni
            keep = (nu > 0) & (ni / np.maximum(nu, 1) >= threshold)
            out_a.extend([a] * int(keep.sum()))
            out_b.extend(bs[keep].tolist())
            out_j.extend((ni[keep] * 1000 // nu[keep]).tolist())
    return pa.table({"id_a": pa.array(out_a, pa.int64()),
                     "id_b": pa.array(out_b, pa.int64()),
                     "jac_milli": pa.array(out_j, pa.int64())})


def ppjoin_pairs(ds, n: int = 2, threshold: float = 0.7,
                 id_col: str = "doc_id", text_col: str = "text",
                 n_parts: int = 64,
                 broadcast_threshold_bytes: int = 256 << 20):
    """PREFIX-FILTERED exact set-similarity self-join (the PPJoin family —
    Chaudhuri et al. ICDE'06 prefix filter; Xiao et al. WWW'08): word-
    n-gram Jaccard >= ``threshold`` pairs, but candidates come ONLY from
    docs sharing a gram in their df-ascending PREFIX, never from the full
    inverted index (q24's shape). Prefix principle: order every doc's
    gram set by one GLOBAL total order (df asc, gh asc — rare grams
    first); if J(A,B) >= t then A and B must overlap within their first
    ``m - ceil(t*m) + 1`` grams (pigeonhole on the overlap bound
    ceil(t/(1+t)*(|A|+|B|))), so hot high-df grams — the pair-blowup
    source q24 caps with ``df_cap``, trading exactness — never generate
    candidates here AND the result stays exact (a longer prefix is only
    ever a superset of candidates). ceil(t*m) is computed in integers
    ((t_milli*m + 999)//1000) — no float boundary can shorten a prefix.

    Scale shape: explode (16 B/gram rows) -> df annotate inside the gram
    partition (df is complete there; no join) -> ONE doc-keyed shuffle
    ranks each doc's grams and marks the prefix -> candidate expansion
    touches only prefix postings -> global pair dedup co-partitioned by
    id_a -> SIZE-SWITCHED exact verify (the minhash/hamming planner
    rule): below ``broadcast_threshold_bytes`` the (id, sorted-gram-set)
    table broadcasts once via ``ray.put``; above it nothing materializes
    on the driver — per-doc gram lists hash-join onto the pairs and the
    intersection is computed per batch."""
    import ray

    from wikicrawl.functions.joins import bucket_of, hash_join

    th_milli = int(round(threshold * 1000))

    exploded = ds.map_batches(
        lambda t: ngram_explode_batch(t, n, id_col, text_col, n_parts),
        batch_format="pyarrow",
    ).materialize()  # consumed twice: the df groupby and the verify switch

    def add_df(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["df"] = g.groupby("gh")["gh"].transform("size")
        return g[[id_col, "gh", "n_grams", "df"]]

    withdf = exploded.groupby("__pb").map_groups(add_df,
                                                 batch_format="pandas")

    def _mk_add_db(schema: pa.Schema):
        # one factory per input shape: withdf blocks carry df, bydoc
        # blocks carry rank/in_prefix — the schema-less-empty guard must
        # emit the matching typed empty for each site
        def add_db(t: pa.Table) -> pa.Table:
            e = _typed_empty(t, schema)
            if e is not None:
                return e
            t = t.replace_schema_metadata(None)
            return t.append_column("__db", pa.array(bucket_of(t[id_col],
                                                              n_parts)))
        return add_db

    _sch_withdf = pa.schema([
        (id_col, pa.int64()), ("gh", pa.int64()), ("n_grams", pa.int64()),
        ("df", pa.int64()), ("__db", pa.int64())])
    _sch_bydoc = pa.schema([
        (id_col, pa.int64()), ("gh", pa.int64()), ("n_grams", pa.int64()),
        ("rank", pa.int64()), ("in_prefix", pa.bool_()),
        ("__db", pa.int64())])

    def prefix_mark(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "df", "gh"], kind="mergesort")
        rank = g.groupby(id_col, sort=False).cumcount().to_numpy()
        m = g["n_grams"].to_numpy().astype(np.int64)
        plen = m - (th_milli * m + 999) // 1000 + 1
        out = g[[id_col, "gh", "n_grams"]].copy()
        out["rank"] = rank           # global-order position (positional filter)
        out["in_prefix"] = rank < plen
        return out

    bydoc = (withdf.map_batches(_mk_add_db(_sch_withdf),
                                batch_format="pyarrow")
             .groupby("__db").map_groups(prefix_mark,
                                         batch_format="pandas")
             ).materialize()  # consumed twice: candidates + verify sets

    def add_gb(t: pa.Table) -> pa.Table:
        e = _typed_empty(t, pa.schema(
            [f for f in _sch_bydoc] [:-1]
            + [pa.field("__gb", pa.int64())]))
        if e is not None:
            return e
        t = t.replace_schema_metadata(None)
        t = t.filter(t["in_prefix"])
        return t.append_column("__gb", pa.array(bucket_of(t["gh"],
                                                          n_parts)))

    def gram_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-gram pair expansion WITH Xiao'08's positional
        # filter: a pair generated at ordered positions (pa, pb) can
        # overlap in at most 1 + min(na-pa-1, nb-pb-1) grams (this one
        # plus everything ordered after it in BOTH docs); if that upper
        # bound misses the Jaccard overlap requirement alpha =
        # ceil(t*(na+nb)/(1+t)) the pair cannot reach the threshold —
        # measured 9.3M -> 1.8M pair occurrences at sf0.1 on the
        # worst-case tiny-vocab corpus. Exact: the bound is sound, so a
        # dropped occurrence is unreachable, and a pair surviving via
        # ANY shared prefix gram is kept (dedup downstream).
        h = g["gh"].to_numpy()
        d = g[id_col].to_numpy()
        m = g["n_grams"].to_numpy().astype(np.int64)
        p = g["rank"].to_numpy().astype(np.int64)
        if len(h) == 0:
            return pd.DataFrame({"id_a": d[:0], "id_b": d[:0]})
        order = np.lexsort((d, h))
        h, d, m, p = h[order], d[order], m[order], p[order]
        new = np.empty(len(h), bool)
        new[0] = True
        new[1:] = h[1:] != h[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(h)))
        out_a, out_b = [], []
        for gi in np.flatnonzero(sizes > 1):
            s, e = starts[gi], starts[gi] + sizes[gi]
            ids, ms, ps = d[s:e], m[s:e], p[s:e]
            ia, ib = np.triu_indices(len(ids), k=1)
            na, nb = ms[ia], ms[ib]
            alpha = (th_milli * (na + nb) + 1000 + th_milli - 1) \
                // (1000 + th_milli)
            ub = 1 + np.minimum(na - ps[ia] - 1, nb - ps[ib] - 1)
            keep = ub >= alpha
            out_a.append(ids[ia[keep]])
            out_b.append(ids[ib[keep]])
        if not out_a:
            return pd.DataFrame({"id_a": d[:0], "id_b": d[:0]})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b)}
                            ).drop_duplicates()

    cand = (bydoc.map_batches(add_gb, batch_format="pyarrow")
            .groupby("__gb").map_groups(gram_pairs, batch_format="pandas"))

    def add_ab(t: pa.Table) -> pa.Table:
        e = _typed_empty(t, pa.schema([("id_a", pa.int64()),
                                       ("id_b", pa.int64()),
                                       ("__ab", pa.int64())]))
        if e is not None:
            return e
        t = t.replace_schema_metadata(None)
        return t.append_column("__ab", pa.array(bucket_of(t["id_a"],
                                                          n_parts)))

    def dedup_part(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])[["id_a", "id_b"]]

    cand = (cand.map_batches(add_ab, batch_format="pyarrow")
            .groupby("__ab").map_groups(dedup_part, batch_format="pandas"))

    def finalize(pairs: pd.DataFrame) -> pa.Table:
        if len(pairs) == 0 or "id_a" not in pairs.columns:
            pairs = pd.DataFrame({c: pd.Series([], dtype="int64")
                                  for c in ("id_a", "id_b", "jac_milli")})
        pairs = pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)
        return pa.Table.from_pandas(pairs, preserve_index=False)

    size = exploded.size_bytes()
    if size is not None and size <= broadcast_threshold_bytes:
        sets_ref = ray.put(_concat_nonempty(
            _arrow_blocks(bydoc.to_arrow_refs(), [id_col, "gh"]),
            pa.schema([(id_col, pa.int64()), ("gh", pa.int64())])))
        from wikicrawl.functions._cache import broadcast_cached

        def _set_store(tbl):
            df = pd.DataFrame({"id": tbl.column(0).to_numpy(
                zero_copy_only=False), "gh": tbl.column(1).to_numpy()})
            return {i: np.sort(g.to_numpy())
                    for i, g in df.groupby("id")["gh"]}

        def verify_broadcast(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return _verify_set_pairs_vec(
                    np.array([], np.int64), np.array([], np.int64),
                    None, threshold)
            store = broadcast_cached(sets_ref, _set_store)
            return _verify_set_pairs_vec(
                t["id_a"].to_numpy(zero_copy_only=False),
                t["id_b"].to_numpy(zero_copy_only=False),
                store.__getitem__, threshold)

        verified = cand.map_batches(verify_broadcast, batch_format="pyarrow")
        return finalize(verified.to_pandas())

    # at-scale path: per-doc gram lists hash-join onto the pairs
    def doc_sets(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(id_col)["gh"]
                .agg(lambda s: np.sort(s.to_numpy()).tolist())
                .rename("ghs").reset_index())

    sets = (bydoc.map_batches(_mk_add_db(_sch_bydoc),
                              batch_format="pyarrow")
            .groupby("__db").map_groups(doc_sets, batch_format="pandas"))
    _sch_sets = pa.schema([(id_col, pa.int64()),
                           ("ghs", pa.list_(pa.int64()))])

    def _mk_side(a: str, b: str):
        def side(t: pa.Table) -> pa.Table:
            e = _typed_empty(t, _sch_sets)
            t = e if e is not None else t
            return (t.replace_schema_metadata(None)
                    .rename_columns([a, b]))
        return side

    side_a = sets.map_batches(_mk_side("id_a", "ghs_a"),
                              batch_format="pyarrow")
    side_b = sets.map_batches(_mk_side("id_b", "ghs_b"),
                              batch_format="pyarrow")
    joined = hash_join(hash_join(cand, side_a, on="id_a", n_buckets=16),
                       side_b, on="id_b", n_buckets=16)

    def verify_joined(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _verify_set_pairs_vec(
                np.array([], np.int64), np.array([], np.int64),
                None, threshold)
        sets_by_id: dict = {}
        for i, la in zip(t["id_a"].to_pylist(), t["ghs_a"].to_pylist()):
            sets_by_id.setdefault(i, np.asarray(la, dtype=np.int64))
        for i, lb in zip(t["id_b"].to_pylist(), t["ghs_b"].to_pylist()):
            sets_by_id.setdefault(i, np.asarray(lb, dtype=np.int64))
        return _verify_set_pairs_vec(
            t["id_a"].to_numpy(zero_copy_only=False),
            t["id_b"].to_numpy(zero_copy_only=False),
            sets_by_id.__getitem__, threshold)

    verified = joined.map_batches(verify_joined, batch_format="pyarrow")
    return finalize(verified.to_pandas())


def _band_composite(bh: np.ndarray) -> np.ndarray:
    """(n, N_BANDS) band hashes -> flat uint64 probe keys. Two keys are
    EQUAL whenever (band index, band hash) agree — the splitmix finalizer
    is a deterministic function of both — so LSH bucket identity is
    preserved; a cross-(band,hash) mixing collision (~2^-64) can only ADD
    a candidate, which the exact verify removes."""
    bands = np.arange(N_BANDS, dtype=np.uint64)[None, :]
    return _splitmix64(
        bh.astype(np.uint64) * np.uint64(2)
        + bands * np.uint64(0x9E3779B97F4A7C15)
    ).reshape(-1)


def lsh_probe_decontaminate(ds, bench_mod: int = 20, threshold: float = 0.8,
                            id_col: str = "doc_id", text_col: str = "text"):
    """FUZZY train-vs-benchmark decontamination: flag every (train doc,
    benchmark doc) pair whose exact 5-char shingle Jaccard reaches
    ``threshold``, where the benchmark side is ``id % bench_mod == 0``.
    The engine shape is the INVERSE of :func:`minhash_lsh_dedup`'s banded
    self-join shuffle: the benchmark suite is SMALL by construction, so
    its LSH band index and shingle sets broadcast once via ``ray.put``
    and the corpus makes ONE streaming pass — per batch: minhash band
    hashes -> vectorized searchsorted probe of the broadcast band index
    -> exact shingle-Jaccard verify against the broadcast bench sets
    (:func:`_verify_set_pairs_vec`). Zero corpus shuffles; candidate
    recall is the same 16x4-band guarantee q17 proves exhaustively on
    this data (a cross pair's banding depends only on the two docs'
    signatures, identical to the self-join case).

    Returns an Arrow table (id_col, bench_id, jac_milli), unsorted."""
    import ray

    from wikicrawl.functions._cache import broadcast_cached

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "bench_id": pa.array([], pa.int64()),
                      "jac_milli": pa.array([], pa.int64())})

    # --- pass A: collect the benchmark side (small by construction) ---
    def bench_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return (t.filter(pa.array(ids % bench_mod == 0))
                .select([id_col, text_col]))

    bench = _concat_nonempty(
        _arrow_blocks(ds.map_batches(bench_rows,
                                     batch_format="pyarrow").to_arrow_refs()),
        pa.schema([(id_col, pa.int64()), (text_col, pa.string())]))
    b_ids = bench[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    b_sets = [char_shingles(t) for t in bench[text_col].to_pylist()]
    if len(b_ids) == 0:
        return empty
    sig = np.stack([minhash_signature(s) for s in b_sets])
    keys = _band_composite(band_hashes(sig))          # (nb * N_BANDS,)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    rows_sorted = np.repeat(np.arange(len(b_ids)), N_BANDS)[order]
    offs = np.zeros(len(b_sets) + 1, np.int64)
    np.cumsum([len(s) for s in b_sets], out=offs[1:])
    cat = (np.concatenate(b_sets) if offs[-1]
           else np.array([], np.uint64))
    idx_ref = ray.put((keys_sorted, rows_sorted, b_ids, cat, offs))

    # --- pass B: one streaming probe over the train split ------------
    def probe(t: pa.Table) -> pa.Table:
        keys_s, rows_s, bids, bcat, boff = broadcast_cached(
            idx_ref, lambda a: a)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t2 = t.filter(pa.array(ids % bench_mod != 0))
        ids = ids[ids % bench_mod != 0]
        if len(ids) == 0:
            return empty
        tsets = [char_shingles(x) for x in t2[text_col].to_pylist()]
        k = _band_composite(band_hashes(
            np.stack([minhash_signature(s) for s in tsets])))
        row_of = np.repeat(np.arange(len(ids)), N_BANDS)
        lo = np.searchsorted(keys_s, k, side="left")
        hi = np.searchsorted(keys_s, k, side="right")
        reps = hi - lo
        m = reps > 0
        if not m.any():
            return empty
        reps = reps[m]
        total = int(reps.sum())
        # expand each [lo, hi) run: base + within-run offset
        base = np.repeat(lo[m], reps)
        run_start = np.concatenate(([0], np.cumsum(reps)))[:-1]
        within = np.arange(total) - np.repeat(run_start, reps)
        cand = np.unique(np.stack(
            [np.repeat(row_of[m], reps), rows_s[base + within]],
            axis=1), axis=0)
        tset_of = {int(ids[i]): tsets[i] for i in np.unique(cand[:, 0])}
        bpos = {int(bids[j]): j for j in np.unique(cand[:, 1])}

        def get_set(x: int):
            s = tset_of.get(x)
            if s is not None:
                return s
            j = bpos[x]
            return bcat[boff[j]:boff[j + 1]]

        out = _verify_set_pairs_vec(ids[cand[:, 0]], bids[cand[:, 1]],
                                    get_set, threshold)
        return out.rename_columns([id_col, "bench_id", "jac_milli"])

    return _concat_nonempty(
        _arrow_blocks(ds.map_batches(probe,
                                     batch_format="pyarrow").to_arrow_refs())
        + [empty], empty.schema)
