"""KeyedTable: hash-partitioned parquet table with Lance-style merge-insert.

The reference persists through keyed upserts on a single MySQL connection
(``citizenphil.py:160-368``): matched rows update in place (creation fields
preserved), unmatched insert, and per-(entity, lang) tail rows beyond the new
count are pruned (``wikipedia_page_writer.py:286-292, 392-398``). Lance's
``merge_insert`` would express this directly, but Lance is not available in
this sandbox — so this module implements the same contract over partitioned
parquet:

- partition = ``hash64(key[0]) % n_partitions`` (all rows of one entity land
  in one partition: co-partitioned upserts, SURVEY §7.4);
- ``merge_insert(tbl)``: per touched partition, read -> combine by key
  (incoming wins; ``row_id`` and ``dat_creat`` of existing rows preserved —
  the insert-only creation-field rule) -> atomic write (tmp + rename);
- ``tail_prune`` semantics: when ``prune_group`` keys are given, existing
  rows in an incoming (group)-scope whose ``display_order`` exceeds the
  incoming max are deleted — exact-set refresh;
- one writer per partition per wave (the crawl loop routes each wave's
  output through a groupby on the partition id), so commits never race.

Each partition file is rewritten wholesale; at production scale partitions
are sized by the partition count, and a failed run resumes by skipping
already-committed waves (checkpoint manifests), re-applying idempotent
merges for the interrupted wave.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def key_partition(values, n_partitions: int) -> np.ndarray:
    """Stable partition ids for a column of key values.

    Keys repeat heavily (one entity owns many section/image rows), so hash
    only the unique values and scatter via factorization."""
    codes, uniques = pd.factorize(np.asarray(values, dtype=object))
    uh = np.empty(len(uniques), dtype=np.int64)
    for i, v in enumerate(uniques):
        h = hashlib.blake2b(str(v).encode("utf-8"), digest_size=8).digest()
        uh[i] = int.from_bytes(h, "little") % n_partitions
    if len(codes) == 0:
        return codes.astype(np.int64)
    return uh[codes]


class KeyedTable:
    def __init__(
        self,
        path: str,
        schema: pa.Schema,
        key: list[str],
        n_partitions: int = 16,
        prune_group: list[str] | None = None,
        order_col: str = "display_order",
    ):
        self.path = path
        self.key = key
        self.prune_group = prune_group
        self.order_col = order_col
        self.n_partitions = n_partitions
        # bookkeeping columns: stable row identity + insert-only creation stamp
        self.schema = schema.append(pa.field("_row_id", pa.int64())).append(
            pa.field("_dat_creat", pa.int64())
        )
        os.makedirs(path, exist_ok=True)
        meta_path = os.path.join(path, "_meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            self.n_partitions = meta["n_partitions"]
        else:
            tmp = meta_path + ".tmp"
            with open(tmp, "w") as f:
                json.dump({"n_partitions": self.n_partitions}, f)
            os.replace(tmp, meta_path)

    def _part_path(self, p: int) -> str:
        return os.path.join(self.path, f"part-{p:05d}.parquet")

    def _read_part(self, p: int) -> pd.DataFrame:
        fp = self._part_path(p)
        if os.path.exists(fp):
            return pq.read_table(fp).to_pandas()
        return self.schema.empty_table().to_pandas()

    # ------------------------------------------------------------------

    def merge_insert(self, tbl: pa.Table, clock: int = 0) -> dict:
        """Upsert ``tbl`` (deduplicated on key, last occurrence wins, like a
        bulk upsert applying rows in order). Returns counters."""
        if tbl.num_rows == 0:
            return {"inserted": 0, "updated": 0, "deleted": 0}
        incoming = tbl.to_pandas()
        incoming = incoming.drop_duplicates(subset=self.key, keep="last")
        parts = key_partition(incoming[self.key[0]].tolist(), self.n_partitions)
        counters = {"inserted": 0, "updated": 0, "deleted": 0}
        for p in sorted(set(parts.tolist())):
            chunk = incoming.iloc[np.flatnonzero(parts == p)]
            c = self.merge_partition(p, chunk, clock)
            for k in counters:
                counters[k] += c[k]
        return counters

    def merge_partition(self, p: int, chunk, clock: int) -> dict:
        """Merge rows that all belong to partition ``p`` (safe to call from a
        remote task — partition-local state only; row ids are namespaced per
        partition as ``p << 40 | local``).

        ARROW-NATIVE payload path (round 3): all key/precedence/prune logic
        runs on the SMALL columns (keys, _seq, order_col, bookkeeping) in
        pandas, producing row-index selections; the heavy payload columns
        (image bytes, section text) are assembled with zero-copy-ish Arrow
        ``take`` and never become Python objects — the pandas round-trip of
        the binary column was the dominant (and anti-scaling, allocator-
        bound) term of the 120k finalize. Semantics identical: when a _seq
        (crawl order) column is present, duplicate keys resolve in CRAWL
        order, not frame order (fr-overwrites-en)."""
        if isinstance(chunk, pd.DataFrame):
            chunk = pa.Table.from_pandas(chunk, preserve_index=False)

        # --- incoming dedup (keep last in crawl order), key columns only
        n = chunk.num_rows
        keydf = pd.DataFrame({k: chunk[k].to_pandas() for k in self.key})
        if "_seq" in chunk.column_names:
            order = np.argsort(
                chunk["_seq"].to_numpy(zero_copy_only=False), kind="stable"
            )
        else:
            order = np.arange(n)
        sorted_keys = keydf.iloc[order]
        keep_local = ~sorted_keys.duplicated(subset=self.key, keep="last").to_numpy()
        inc_rows = order[keep_local]  # positions into chunk, crawl-sorted
        inc_keys = sorted_keys.iloc[keep_local]
        inc_idx = (
            pd.MultiIndex.from_frame(inc_keys)
            if len(self.key) > 1 else pd.Index(inc_keys[self.key[0]])
        )

        # --- existing side: full Arrow table, logic columns only in pandas
        fp = self._part_path(p)
        existing = pq.read_table(fp) if os.path.exists(fp) else self.schema.empty_table()
        n_ex = existing.num_rows
        if n_ex:
            ex_keys = pd.DataFrame(
                {k: existing[k].to_pandas() for k in self.key}
            )
            ex_idx = (
                pd.MultiIndex.from_frame(ex_keys)
                if len(self.key) > 1 else pd.Index(ex_keys[self.key[0]])
            )
            matched_mask = inc_idx.isin(ex_idx)
        else:
            matched_mask = np.zeros(len(inc_rows), dtype=bool)

        n_upd = int(matched_mask.sum())
        n_ins = len(inc_rows) - n_upd

        # row identity + creation stamp for incoming rows
        ex_row_ids = (existing["_row_id"].to_numpy(zero_copy_only=False)
                      if n_ex else np.array([], dtype=np.int64))
        row_id = np.zeros(len(inc_rows), dtype=np.int64)
        dat_creat = np.full(len(inc_rows), clock, dtype=np.int64)
        if n_upd:
            lookup_id = pd.Series(ex_row_ids, index=ex_idx)
            lookup_dc = pd.Series(
                existing["_dat_creat"].to_numpy(zero_copy_only=False), index=ex_idx
            )
            row_id[matched_mask] = lookup_id.loc[inc_idx[matched_mask]].to_numpy()
            dat_creat[matched_mask] = lookup_dc.loc[inc_idx[matched_mask]].to_numpy()
        if n_ins:
            base = int(ex_row_ids.max()) + 1 if n_ex else (p << 40) + 1
            row_id[~matched_mask] = np.arange(base, base + n_ins)

        # existing rows to keep: not replaced, not pruned
        n_del = 0
        if n_ex:
            keep_ex = ~ex_idx.isin(inc_idx)
            if self.prune_group:
                # exact-set refresh: inside each incoming group scope, drop
                # existing rows whose display_order exceeds the incoming max
                inc_small = inc_keys.copy()
                if self.order_col not in inc_small.columns:
                    inc_small[self.order_col] = (
                        chunk[self.order_col].to_pandas().iloc[inc_rows].to_numpy()
                    )
                gmax = inc_small.groupby(self.prune_group, sort=False)[self.order_col].max()
                ex_g = (
                    pd.MultiIndex.from_frame(ex_keys[self.prune_group])
                    if len(self.prune_group) > 1
                    else pd.Index(ex_keys[self.prune_group[0]])
                )
                in_scope = ex_g.isin(gmax.index) & keep_ex
                if in_scope.any():
                    lim = gmax.reindex(ex_g[in_scope]).to_numpy()
                    ex_order = existing[self.order_col].to_numpy(zero_copy_only=False)
                    over = ex_order[in_scope] > lim
                    drop_pos = np.flatnonzero(in_scope)[over]
                    if len(drop_pos):
                        n_del = len(drop_pos)
                        keep_ex[drop_pos] = False
            ex_part = existing.take(pa.array(np.flatnonzero(keep_ex)))
        else:
            ex_part = existing

        # assemble: payload columns move via Arrow take, never pandas
        inc_part = chunk.take(pa.array(inc_rows))
        if "_seq" in inc_part.column_names:
            inc_part = inc_part.drop_columns(["_seq"])
        for bname, barr in (("_row_id", row_id), ("_dat_creat", dat_creat)):
            if bname in inc_part.column_names:
                inc_part = inc_part.drop_columns([bname])
            inc_part = inc_part.append_column(bname, pa.array(barr))
        names = self.schema.names
        merged = pa.concat_tables(
            [ex_part.select(names), inc_part.select(names).cast(self.schema)]
        )
        tmp = self._part_path(p) + ".tmp"
        pq.write_table(merged, tmp)
        os.replace(tmp, self._part_path(p))
        return {"inserted": n_ins, "updated": n_upd, "deleted": n_del}

    def delete_group(self, group_values: list[tuple]) -> int:
        """Delete every row of the given prune-group tuples (the reference's
        'no images at all -> DELETE all rows for (qid, lang)' branch)."""
        if not group_values:
            return 0
        n_deleted = 0
        parts = key_partition([g[0] for g in group_values], self.n_partitions)
        by_part: dict[int, set] = {}
        for p, g in zip(parts, group_values):
            by_part.setdefault(int(p), set()).add(tuple(g))
        for p, groups in by_part.items():
            existing = self._read_part(p)
            if not len(existing):
                continue
            tup = [tuple(r) for r in existing[self.prune_group].itertuples(index=False)]
            mask = np.array([t in groups for t in tup])
            if mask.any():
                n_deleted += int(mask.sum())
                existing = existing.loc[~mask]
                out = pa.Table.from_pandas(existing, schema=self.schema, preserve_index=False)
                tmp = self._part_path(p) + ".tmp"
                pq.write_table(out, tmp)
                os.replace(tmp, self._part_path(p))
        return n_deleted

    def transform_partitions(self, fn) -> dict:
        """Apply ``fn(df) -> df`` to every partition in PARALLEL Ray tasks
        (one writer per partition, atomic tmp+rename). The maintenance
        'apply' path: clears/deletes push down to partition-local vectorized
        edits — the driver never reads the whole table. Returns
        ``{"rows_before", "rows_after", "parts_changed"}``."""
        import ray

        path, schema, nparts = self.path, self.schema, self.n_partitions

        @ray.remote
        def one(p: int) -> tuple[int, int, bool]:
            fp = os.path.join(path, f"part-{p:05d}.parquet")
            if not os.path.exists(fp):
                return (0, 0, False)
            df = pq.read_table(fp).to_pandas()
            out = fn(df)
            changed = (len(out) != len(df)) or not out.equals(df)
            if changed:
                tbl = pa.Table.from_pandas(out, schema=schema,
                                           preserve_index=False)
                tmp = fp + ".tmp"
                pq.write_table(tbl, tmp)
                os.replace(tmp, fp)
            return (len(df), len(out), changed)

        res = ray.get([one.remote(p) for p in range(nparts)])
        return {
            "rows_before": sum(r[0] for r in res),
            "rows_after": sum(r[1] for r in res),
            "parts_changed": sum(1 for r in res if r[2]),
        }

    # ------------------------------------------------------------------

    def read_all(self) -> pa.Table:
        parts = [
            pq.read_table(self._part_path(p))
            for p in range(self.n_partitions)
            if os.path.exists(self._part_path(p))
        ]
        if not parts:
            return self.schema.empty_table()
        return pa.concat_tables(parts)

    def read_dataset(self):
        """The table as a ray.data.Dataset (for downstream pipelines)."""
        import ray.data as rd

        files = [
            self._part_path(p)
            for p in range(self.n_partitions)
            if os.path.exists(self._part_path(p))
        ]
        if not files:
            import ray

            return rd.from_arrow(self.schema.empty_table())
        return rd.read_parquet(files)
