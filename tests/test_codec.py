import numpy as np
import pytest

from wikicrawl.codec import (
    decode,
    encode,
    lossy_decode,
    lossy_encode,
    phash64,
    png_decode,
    png_encode,
    psnr,
)


def img(w, h, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_png_roundtrip_lossless():
    px = img(37, 23, 1)
    assert np.array_equal(png_decode(png_encode(px)), px)


def test_png_decode_rejects_garbage():
    with pytest.raises(ValueError):
        png_decode(b"not a png at all")


def test_lossy_roundtrip_psnr_over_40():
    px = img(64, 48, 2)
    out = lossy_decode(lossy_encode(px))
    assert out.shape == px.shape
    assert psnr(px, out) >= 40.0


def test_lossy_deterministic():
    px = img(16, 16, 3)
    assert lossy_encode(px) == lossy_encode(px)


def test_fmt_dispatch():
    px = img(8, 8, 4)
    assert np.array_equal(decode(encode(px, "png"), "png"), px)
    assert psnr(px, decode(encode(px, "jpeg"), "jpeg")) >= 40.0
    with pytest.raises(ValueError):
        encode(px, "gif")


def test_phash_properties():
    a = img(32, 32, 5)
    assert phash64(a) == phash64(a)  # deterministic
    assert isinstance(phash64(a), int)
    assert phash64(a) != phash64(img(32, 32, 6))  # distinct content
    # int64-representable
    assert -(2**63) <= phash64(a) < 2**63
    # robust to mild lossy recompression on structured (non-noise) content
    grad = np.broadcast_to(
        np.linspace(0, 255, 32, dtype=np.uint8)[None, :, None], (32, 32, 3)
    ).copy()
    assert phash64(lossy_decode(lossy_encode(grad))) == phash64(grad)


def test_psnr_identical_is_inf():
    a = img(8, 8, 7)
    assert psnr(a, a) == float("inf")


def test_wcv_container_roundtrip_and_seek_sampling():
    """WCV video container: full decode is pixel-exact; sampling returns
    the ORIGINAL PNG payload bytes of frames 0, N, 2N... (seek by length
    prefix, no inflate of unsampled frames)."""
    import numpy as np

    from wikicrawl import codec

    rng = np.random.RandomState(11)
    frames = [rng.randint(0, 256, (6, 9, 3)).astype(np.uint8)
              for _ in range(7)]
    data = codec.wcv_encode(frames)
    assert codec.wcv_frame_count(data) == 7
    back = codec.wcv_decode(data)
    assert len(back) == 7
    for a, b in zip(frames, back):
        assert (a == b).all()
    payloads, idxs = codec.wcv_sample(data, 3)
    assert idxs == [0, 3, 6]
    for p, i in zip(payloads, idxs):
        assert p == codec.png_encode(frames[i])  # byte-identical payload
        assert (codec.png_decode(p) == frames[i]).all()


def test_wcv_sample_rejects_truncated_and_padded_containers():
    """A cut-short length prefix, a cut-short frame and bytes after the
    last frame are all a malformed container, never a short sample."""
    import numpy as np
    import pytest

    from wikicrawl import codec

    rng = np.random.RandomState(5)
    data = codec.wcv_encode([rng.randint(0, 256, (4, 5, 3)).astype(np.uint8)
                             for _ in range(3)])
    first_len = int.from_bytes(data[8:12], "big")
    cases = {
        "prefix": data[:8 + 4 + first_len + 2],  # 2nd length prefix cut
        "frame": data[:-3],  # last frame cut
        "padded": data + b"\x00\x00",
    }
    for label, bad in cases.items():
        with pytest.raises(ValueError, match="truncated WCV container"):
            codec.wcv_sample(bad, 1)
    assert len(codec.wcv_sample(data, 1)[0]) == 3


def test_sample_video_frames_stage(ray_session):
    """Actor-pool frame-sampling stage: binary in -> list<binary> frames
    + list<int64> indices, through a real Ray Data map_batches with the
    class-based actor signature."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from wikicrawl import codec
    from wikicrawl.stages.image_stages import SampleVideoFrames

    vids = []
    for did in range(5):
        frames = [np.full((4, 4, 3), (did * 16 + f) % 256, dtype=np.uint8)
                  for f in range(6)]
        vids.append(codec.wcv_encode(frames))
    ds = rd.from_arrow(pa.table({
        "video_id": pa.array(range(5), pa.int64()),
        "bytes": pa.array(vids, pa.binary()),
    }))
    out = ds.map_batches(
        SampleVideoFrames, fn_constructor_kwargs={"every_n_frames": 2},
        batch_format="pyarrow", batch_size=2, concurrency=2).to_pandas()
    out = out.sort_values("video_id").reset_index(drop=True)
    assert len(out) == 5
    for _, row in out.iterrows():
        assert list(row["frame_idx"]) == [0, 2, 4]
        for p, fi in zip(row["frames"], row["frame_idx"]):
            px = codec.png_decode(p)
            assert (px == (row["video_id"] * 16 + fi) % 256).all()
