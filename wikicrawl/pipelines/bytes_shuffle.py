"""Finalize-phase co-partition shuffle of the images binary corpus.

Above ``CrawlConfig.images_broadcast_limit_bytes`` the images table can
never be one ``ray.put`` broadcast, and having EVERY images_out merge task
read the whole corpus costs n_partitions x corpus of aggregate decompress
(measured at 960k entities / 16 partitions: finalize_merges 64 s at 16
cpus vs 42 s at 4 cpus — ANTI-scaling, 16 concurrent full-corpus reads
contending on memory bandwidth for pure duplication). This pass moves the
bytes to the OUTPUT partitioning once, straight from ``images.parquet``,
then each merge task reads only its own partition's bytes:

1. one task per images_out partition over that partition's staged blocks
   (object-store refs from the finalize stagers) — the unique ``image_id``
   values partition p needs;
2. one small broadcast: an (image_id, part) pairs table, ``ray.put`` once
   and zero-copy in every range task. Shared images (one id referenced by
   entities in several partitions) appear once per needing partition;
3. one Ray task per contiguous row-group range of ``images.parquet``
   (:func:`row_group_ranges`, the same split the pages broadcast uses):
   read THAT range once (attach columns only), inner-probe the pairs
   against its ids, write one parts file per touched output partition
   (atomic tmp -> replace);
4. merge task p attaches from ``parts/p=<p>/`` alone.

Aggregate: the corpus is decompressed exactly twice (range pass + merge
read) instead of n_partitions times, the driver never reads the bytes, and
the only all-to-all volume is one compressed copy of them — the standard
"shuffle the big side to the consumer partitioning" move. On a real
cluster the pairs broadcast is the scale limit (~#gallery-rows x ~20 B);
past ~10^9 rows, hash-partition the pairs instead of broadcasting
(documented, not needed at this corpus: 960k entities -> ~4M pairs ~
100 MB).

Reference parity note: the reference attaches bytes row-at-a-time from its
MySQL media store (vaugouin/wikipedia-crawler wikipediacrawler.py's image
insert path); the semantics here are identical (every gallery row carries
its image bytes exactly once in the final table) — only the movement plan
is Ray-native.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

#: the images source table columns the attach reads
IMAGES_SRC_FIELDS = [
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("phash", pa.int64()),
]


def empty_images_table() -> pa.Table:
    return pa.table({n: pa.array([], t) for n, t in IMAGES_SRC_FIELDS})


def row_group_ranges(path: str, max_ranges: int = 8) -> list[list[int]]:
    """Split a parquet file's row groups into at most ``max_ranges``
    contiguous, non-empty ranges in file order (one read task each)."""
    ng = pq.ParquetFile(path).metadata.num_row_groups
    k = min(ng, max_ranges)
    return [list(range(i * ng // k, (i + 1) * ng // k)) for i in range(k)]


def read_staging_file(path: str, columns=None) -> pa.Table:
    """Read one small payload-delta or bytes-part file. Same table (schema
    metadata included) as ``pq.read_table``, at a third of its fixed
    per-file cost: no dataset discovery and no thread pool."""
    return pq.ParquetFile(path).read(columns, use_threads=False)


@ray.remote
def _partition_image_ids(*blocks: pa.RecordBatch) -> pa.Array:
    """Unique image_ids one images_out partition needs, from its staged
    blocks (top-level arguments, so Ray hands them over as batches)."""
    import pyarrow.compute as pc

    ids = pa.chunked_array(
        [b.column("image_id") for b in blocks if b.num_rows], pa.string())
    out = pc.unique(pc.drop_null(ids))
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


@ray.remote
def _split_row_groups(images_path: str, groups: list, pairs_ref_t,
                      parts_dir: str) -> int:
    """Route one row-group range's images to their output-partition parts
    files.

    ``pairs_ref_t``: ``(ObjectRef,)`` of the (image_id, part) pairs table —
    nested so Ray does not auto-deref it into every task's argument list;
    the get is a zero-copy plasma map."""
    pairs: pa.Table = ray.get(pairs_ref_t[0])
    # prune to the attach columns (the source table may carry extras, e.g.
    # caption — never read by _attach_from, so never decompress or ship it)
    f = pq.ParquetFile(images_path)
    have = set(f.schema_arrow.names)
    tbl = f.read_row_groups(
        groups, columns=[n for n, _ in IMAGES_SRC_FIELDS if n in have])
    if tbl.num_rows == 0:
        return 0
    # probe direction: image ids are unique (images table key), pairs are
    # the big side — index the small side, probe the big one, C-speed both
    idx = pd.Index(tbl["image_id"].to_pandas())
    take = idx.get_indexer(pairs["image_id"].to_pandas())
    mask = take >= 0
    if not mask.any():
        return 0
    take = take[mask]
    part_of = pairs["part"].to_numpy(zero_copy_only=False)[mask]
    base = f"rg-{groups[0]:06d}"
    written = 0
    for p in np.unique(part_of):
        sel = part_of == p
        sub = tbl.take(pa.array(take[sel]))
        pdir = os.path.join(parts_dir, f"p={int(p):05d}")
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, f"{base}.parquet.tmp")
        pq.write_table(sub, tmp)
        os.replace(tmp, os.path.join(pdir, f"{base}.parquet"))
        written += sub.num_rows
    return written


def shuffle_image_bytes_to_parts(part_blocks: list[list], images_path: str,
                                 out_dir: str) -> tuple:
    """Run the co-partition pass over ``images_path`` (the corpus
    ``images.parquet``); ``part_blocks[p]`` lists the refs of images_out
    partition p's staged blocks. Returns the merge-side ``images_arg``
    ``("parts", parts_dir)``. Idempotent per run: a stale parts dir
    (crashed previous finalize) is cleared first — the shuffle re-derives
    everything from the blocks + the corpus, so replay is value-safe."""
    import shutil

    parts_dir = os.path.join(out_dir, "images_parts")
    shutil.rmtree(parts_dir, ignore_errors=True)
    os.makedirs(parts_dir, exist_ok=True)
    id_refs = {p: _partition_image_ids.remote(*blocks)
               for p, blocks in enumerate(part_blocks) if blocks}
    id_cols, part_cols = [], []
    for p, ref in id_refs.items():
        ids = ray.get(ref)
        if len(ids) == 0:
            continue
        id_cols.append(ids)
        part_cols.append(np.full(len(ids), p, dtype=np.int32))
    if not id_cols:
        return ("parts", parts_dir)
    pairs = pa.table({
        "image_id": pa.concat_arrays(id_cols),
        "part": pa.array(np.concatenate(part_cols), pa.int32()),
    }).combine_chunks()
    pairs_ref = ray.put(pairs)
    # up to 64 range tasks (the former bucket count): each reads at most
    # ~1/64 of a multi-GiB corpus, and a wide cluster still gets a task
    # per core
    ray.get([
        _split_row_groups.remote(images_path, groups, (pairs_ref,), parts_dir)
        for groups in row_group_ranges(images_path, max_ranges=64)
    ])
    return ("parts", parts_dir)
