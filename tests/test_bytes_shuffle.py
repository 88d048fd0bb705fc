"""Unit coverage for the finalize co-partition bytes shuffle
(wikicrawl/pipelines/bytes_shuffle.py) beyond the end-to-end golden
parity test (tests/test_parity.py::test_images_parity_bucketed_bytes):
routing correctness, shared images fanning out to every needing
partition, ids missing from the corpus, and empty input. The staged
images_out blocks arrive as object-store refs, one list per partition."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from wikicrawl.pipelines.bytes_shuffle import (
    empty_images_table,
    shuffle_image_bytes_to_parts,
)


def _images_table(ids):
    n = len(ids)
    return pa.table({
        "image_id": pa.array(ids, pa.string()),
        "bytes": pa.array([f"payload-{i}".encode() for i in ids], pa.binary()),
        "w": pa.array(np.full(n, 10, np.int32)),
        "h": pa.array(np.full(n, 20, np.int32)),
        "fmt": pa.array(["png"] * n),
        "phash": pa.array(np.arange(n, dtype=np.int64)),
        # extra column the attach never reads — must be pruned, not shipped
        "caption": pa.array([f"cap {i}" for i in ids]),
    })


def _id_block(ids):
    import ray

    return ray.put(pa.record_batch({"image_id": pa.array(ids, pa.string())}))


def test_shuffle_routes_by_output_partition(ray_session, tmp_path):
    """Each parts dir holds exactly the ids its partition's blocks need —
    including a SHARED image needed by two partitions (one copy each) —
    and ids absent from the corpus are simply not routed."""
    images = str(tmp_path / "images.parquet")
    # two row groups -> two range tasks, each routing its own ids
    pq.write_table(_images_table(["a", "b", "c", "shared"]), images,
                   row_group_size=2)

    blocks = [[] for _ in range(4)]
    blocks[0] = [_id_block(["a", "shared"]), _id_block(["ghost"])]  # ghost: not in corpus
    blocks[2] = [_id_block([])]  # an empty block routes nothing
    blocks[3] = [_id_block(["b", "c", "shared"])]

    kind, parts_dir = shuffle_image_bytes_to_parts(
        blocks, images, str(tmp_path / "out"))
    assert kind == "parts"

    def part_rows(p):
        pdir = os.path.join(parts_dir, f"p={p:05d}")
        if not os.path.isdir(pdir):
            return {}
        files = [os.path.join(pdir, f) for f in sorted(os.listdir(pdir))
                 if f.endswith(".parquet")]
        t = pa.concat_tables([pq.read_table(f) for f in files])
        return dict(zip(t["image_id"].to_pylist(),
                        t["bytes"].to_pylist()))

    p0, p3 = part_rows(0), part_rows(3)
    assert set(p0) == {"a", "shared"}          # ghost dropped, not an error
    assert set(p3) == {"b", "c", "shared"}     # shared fans out to both
    assert part_rows(1) == part_rows(2) == {}
    assert p0["shared"] == p3["shared"] == b"payload-shared"
    assert p0["a"] == b"payload-a"
    # the unused caption column is pruned from the shipped parts
    any_part = os.path.join(parts_dir, "p=00000")
    f = os.path.join(any_part, sorted(os.listdir(any_part))[0])
    assert "caption" not in pq.read_schema(f).names


def test_shuffle_empty_staging(ray_session, tmp_path):
    """No staged blocks, or only empty ones -> an empty parts dir."""
    images = str(tmp_path / "images.parquet")
    pq.write_table(_images_table(["x"]), images, row_group_size=2)
    for blocks in ([], [[], []], [[_id_block([])], []]):
        kind, parts_dir = shuffle_image_bytes_to_parts(
            blocks, images, str(tmp_path / "out"))
        assert kind == "parts"
        assert os.path.isdir(parts_dir) and os.listdir(parts_dir) == []


def test_empty_images_table_schema():
    """The merge-side fallback table matches the corpus image columns the
    attach reads (a partition with no routed bytes attaches all-null)."""
    t = empty_images_table()
    assert t.schema.names == ["image_id", "bytes", "w", "h", "fmt", "phash"]
    assert t.num_rows == 0
