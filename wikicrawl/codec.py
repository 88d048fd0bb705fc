"""Image codecs + perceptual hash (pure numpy + stdlib zlib).

No image libraries (PIL / opencv) exist in this environment, so:

- ``"png"`` is a REAL minimal PNG codec (8-bit RGB, zlib, filters 0-4 on
  decode, filter 0 on encode) — fully lossless and standards-shaped.
- ``"jpeg"`` is a DETERMINISTIC FAKE LOSSY CODEC standing in for JPEG: it
  uniform-quantizes the pixels (step ``q``) and zlib-compresses them inside a
  small container. Quantization step 4 yields PSNR ≈ 48 dB vs the source,
  comfortably above the ≥ 40 dB per-row invariant from BASELINE.json's
  ``input_hint``. The Ray-side plumbing (binary columns, batch sizing, actor
  decode stage) is real; only the bit-level JPEG entropy coding is faked.

``phash64`` is an 8x8 average-hash producing the ``phash:int64`` column of the
input table; ``psnr`` implements the decoded-pixel invariant check.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

# ---------------------------------------------------------------- PNG (real)

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def png_encode(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 -> PNG bytes (colortype 2, bitdepth 8, filter 0)."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type None per scanline
    raw[:, 1:] = pixels.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def png_decode(data: bytes) -> np.ndarray:
    """PNG bytes -> (h, w, 3) uint8. Supports 8-bit RGB, filters 0-4."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, w = 8, None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", body)
            if depth != 8 or ctype != 2 or interlace != 0:
                raise ValueError("unsupported PNG variant")
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            break
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    stride = 1 + w * 3
    raw = raw.reshape(h, stride)
    filters = raw[:, 0]
    out = np.zeros((h, w * 3), dtype=np.uint8)
    bpp = 3
    for y in range(h):
        line = raw[y, 1:].copy()
        f = filters[y]
        prev = out[y - 1] if y > 0 else np.zeros(w * 3, dtype=np.uint8)
        if f == 0:
            out[y] = line
        elif f == 1:
            for x in range(w * 3):
                left = out[y, x - bpp] if x >= bpp else 0
                out[y, x] = (int(line[x]) + int(left)) & 0xFF
        elif f == 2:
            out[y] = (line.astype(np.int16) + prev.astype(np.int16)).astype(np.uint8)
        elif f == 3:
            for x in range(w * 3):
                left = int(out[y, x - bpp]) if x >= bpp else 0
                out[y, x] = (int(line[x]) + ((left + int(prev[x])) >> 1)) & 0xFF
        elif f == 4:
            for x in range(w * 3):
                a = int(out[y, x - bpp]) if x >= bpp else 0
                c = int(prev[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                pred = _paeth(np.uint8(a), np.uint8(b), np.uint8(c))
                out[y, x] = (int(line[x]) + int(pred)) & 0xFF
        else:
            raise ValueError(f"bad filter {f}")
    return out.reshape(h, w, 3)


# ------------------------------------------- fake lossy ("jpeg" stand-in)

_FLSY_MAGIC = b"FLSY"
FAKE_LOSSY_STEP = 4  # quantization step -> PSNR ~= 48 dB


def lossy_encode(pixels: np.ndarray, step: int = FAKE_LOSSY_STEP) -> bytes:
    """(h, w, 3) uint8 -> deterministic fake-JPEG bytes (quantize + deflate)."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    q = np.minimum((pixels.astype(np.uint16) + step // 2) // step * step, 255).astype(
        np.uint8
    )
    header = _FLSY_MAGIC + struct.pack(">IIB", w, h, step)
    return header + zlib.compress(q.tobytes(), 6)


def lossy_decode(data: bytes) -> np.ndarray:
    if data[:4] != _FLSY_MAGIC:
        raise ValueError("not a fake-lossy payload")
    w, h, _step = struct.unpack(">IIB", data[4:13])
    raw = np.frombuffer(zlib.decompress(data[13:]), dtype=np.uint8)
    return raw.reshape(h, w, 3)


def encode(pixels: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return png_encode(pixels)
    if fmt == "jpeg":
        return lossy_encode(pixels)
    raise ValueError(f"unknown fmt {fmt!r}")


def decode(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return png_decode(data)
    if fmt == "jpeg":
        return lossy_decode(data)
    raise ValueError(f"unknown fmt {fmt!r}")


# ----------------------------------------------------------- hash + metric


def phash64(pixels: np.ndarray) -> int:
    """8x8 average-hash -> signed int64 (the input table's ``phash`` column)."""
    gray = pixels.astype(np.float32).mean(axis=2)
    h, w = gray.shape
    ys = (np.arange(9) * h) // 8
    xs = (np.arange(9) * w) // 8
    cells = np.empty((8, 8), dtype=np.float32)
    for i in range(8):
        for j in range(8):
            cells[i, j] = gray[ys[i] : max(ys[i + 1], ys[i] + 1),
                               xs[j] : max(xs[j + 1], xs[j] + 1)].mean()
    bits = (cells > cells.mean()).flatten()
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    return struct.unpack("<q", struct.pack("<Q", val))[0]  # reinterpret as int64


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)


# ------------------------------------------------- video container (real)
# WCV ("wikicrawl video") v1: the deterministic synthetic container that
# closes the video-stage stub (VERDICT r4 next-round #4 — no ffmpeg/video
# codec exists in this container, but the PNG codec above is real, so a
# video is a length-prefixed sequence of REAL PNG frames):
#
#   b"WCV1" | uint32 n_frames | (uint32 len | PNG payload) * n_frames
#
# Length prefixes make frame SAMPLING a seek, not a decode: sampling every
# Nth frame slices N-1 of each N payloads past without inflating them —
# the property a real production container (keyframe index) gives you.

_WCV_SIG = b"WCV1"


def wcv_encode(frames: list[np.ndarray]) -> bytes:
    """List of (h, w, 3) uint8 frames -> WCV container bytes (each frame
    a real PNG payload)."""
    parts = [_WCV_SIG, struct.pack(">I", len(frames))]
    for f in frames:
        p = png_encode(f)
        parts.append(struct.pack(">I", len(p)))
        parts.append(p)
    return b"".join(parts)


def wcv_frame_count(data: bytes) -> int:
    if data[:4] != _WCV_SIG:
        raise ValueError("not a WCV container")
    return struct.unpack(">I", data[4:8])[0]


def wcv_sample(data: bytes, every_n: int) -> tuple[list[bytes], list[int]]:
    """Sample frames 0, every_n, 2*every_n, ... -> (png_payloads, indices).

    Unsampled frames are SKIPPED by their length prefix — never inflated,
    never copied; each returned payload is the frame's original PNG bytes
    (decode with :func:`png_decode`). Raises ``ValueError`` when a length
    prefix or a frame runs past the end of ``data``, or bytes trail the
    last frame."""
    n = wcv_frame_count(data)
    off = 8
    payloads: list[bytes] = []
    idxs: list[int] = []
    for i in range(n):
        if off + 4 > len(data):
            raise ValueError("truncated WCV container")
        ln = struct.unpack(">I", data[off:off + 4])[0]
        off += 4
        if off + ln > len(data):
            raise ValueError("truncated WCV container")
        if i % every_n == 0:
            payloads.append(data[off:off + ln])
            idxs.append(i)
        off += ln
    if off != len(data):
        raise ValueError("truncated WCV container")
    return payloads, idxs


def wcv_decode(data: bytes) -> list[np.ndarray]:
    """Full decode: WCV bytes -> list of (h, w, 3) uint8 frames."""
    payloads, _ = wcv_sample(data, 1)
    return [png_decode(p) for p in payloads]
