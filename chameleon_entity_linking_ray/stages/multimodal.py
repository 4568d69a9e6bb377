"""Multimodal columns: opaque ``binary`` payloads + typed metadata, with
decode / feature-extract / frame-sample / resize task stages.

Round-2: the decode kernels are REAL pure-numpy codecs (no external
libraries needed in this environment):

- **image**: uncompressed 24-bit BMP (BITMAPFILEHEADER + BITMAPINFOHEADER,
  bottom-up rows padded to 4 bytes) — ``encode_bmp`` / ``decode_bmp``
- **audio**: RIFF/WAVE PCM16 mono — ``encode_wav`` / ``decode_wav``
- **video**: a minimal frame container (``GVID`` magic + frame index +
  concatenated BMP frames) — ``encode_gvid`` / ``decode_gvid_frame``

``decode_batch`` dispatches on the payload magic bytes; ``fake=True``
keeps the old deterministic byte-tiling path for schema-only tests.
A payload that fails to parse becomes a ``status`` dead-letter row
(SURVEY.md S9), never a crashed task.

Scale notes: payload batches are kept SMALL (``batch_size`` default 32 —
large binary payloads x running tasks must fit worker heaps); the stages
are stateless tasks, since the numpy codecs have no setup to amortize.
Reference analog: the per-passage encode loop of
/root/reference/BiEncoder/test_retrieval.py:43-49, recast per batch.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
from ray.data import Dataset

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),          # "image" | "audio" | "video"
    ("payload", pa.binary()),       # encoded bytes (BMP / WAV / GVID)
    ("mime", pa.string()),
    ("width", pa.int32()),          # -1 when unknown/not applicable
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])


# ------------------------------------------------------------- BMP codec

def encode_bmp(pixels: np.ndarray) -> bytes:
    """(h, w) grayscale or (h, w, 3) BGR uint8 -> 24-bit uncompressed BMP."""
    if pixels.ndim == 2:
        pixels = np.repeat(pixels[:, :, None], 3, axis=2)
    h, w, _ = pixels.shape
    row_size = (w * 3 + 3) & ~3
    img_size = row_size * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size,
                       2835, 2835, 0, 0)
    rows = np.zeros((h, row_size), dtype=np.uint8)
    rows[:, : w * 3] = pixels[::-1].reshape(h, w * 3)  # bottom-up
    return header + info + rows.tobytes()


def decode_bmp(payload: bytes) -> np.ndarray:
    """24-bit uncompressed BMP -> (h, w) uint8 luminance (mean of BGR)."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    off = struct.unpack_from("<I", payload, 10)[0]
    hdr_size, w, h = struct.unpack_from("<Iii", payload, 14)
    bpp = struct.unpack_from("<H", payload, 28)[0]
    comp = struct.unpack_from("<I", payload, 30)[0]
    if bpp != 24 or comp != 0:
        raise ValueError(f"unsupported BMP (bpp={bpp}, compression={comp})")
    flip = h > 0
    h = abs(h)
    row_size = (w * 3 + 3) & ~3
    data = np.frombuffer(payload, np.uint8, count=row_size * h, offset=off)
    rows = data.reshape(h, row_size)[:, : w * 3].reshape(h, w, 3)
    if flip:
        rows = rows[::-1]
    return rows.mean(axis=2).astype(np.uint8)


# ------------------------------------------------------------- WAV codec

def encode_wav(samples: np.ndarray, rate: int = 8000) -> bytes:
    """int16 mono samples -> RIFF/WAVE PCM16."""
    data = np.asarray(samples, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM16 mono -> (int16 samples, sample_rate); walks RIFF
    chunks, so extra chunks (LIST, fact, ...) are tolerated."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos, rate, samples = 12, None, None
    while pos + 8 <= len(payload):
        cid, size = payload[pos:pos + 4], struct.unpack_from("<I", payload, pos + 4)[0]
        body = payload[pos + 8: pos + 8 + size]
        if cid == b"fmt ":
            fmt_tag, channels, rate = struct.unpack_from("<HHI", body, 0)
            bits = struct.unpack_from("<H", body, 14)[0]
            if fmt_tag != 1 or channels != 1 or bits != 16:
                raise ValueError("unsupported WAV (need PCM16 mono)")
        elif cid == b"data":
            samples = np.frombuffer(body, dtype="<i2")
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if rate is None or samples is None:
        raise ValueError("WAV missing fmt/data chunk")
    return samples, rate


# ------------------------------------------------------ GVID frame container

def encode_gvid(frames: list[bytes]) -> bytes:
    """Concatenated encoded frames with an index: ``GVID`` + u32 count +
    count x u32 frame lengths + payloads. The minimal seekable container a
    frame sampler needs (real codecs replace the frame payloads, not the
    sampling logic)."""
    head = b"GVID" + struct.pack("<I", len(frames))
    head += b"".join(struct.pack("<I", len(f)) for f in frames)
    return head + b"".join(frames)


def gvid_frame_count(payload: bytes) -> int:
    if payload[:4] != b"GVID":
        raise ValueError("not a GVID payload")
    return struct.unpack_from("<I", payload, 4)[0]


def decode_gvid_frame(payload: bytes, idx: int) -> bytes:
    n = gvid_frame_count(payload)
    if not 0 <= idx < n:
        raise IndexError(f"frame {idx} of {n}")
    lengths = np.frombuffer(payload, dtype="<u4", count=n, offset=8)
    start = 8 + 4 * n + int(lengths[:idx].sum())
    return payload[start: start + int(lengths[idx])]


# ------------------------------------------------------------- synth source

def synth_media(n: int, seed: int = 7, kind: str = "image") -> pa.Table:
    """Deterministic REAL media table: seeded-noise BMPs, seeded-sine WAVs,
    or GVID containers of BMP frames."""
    rng = np.random.RandomState(seed)
    payloads, widths, heights, durs, mimes = [], [], [], [], []
    for i in range(n):
        if kind == "image":
            w, h = int(rng.randint(8, 33)), int(rng.randint(8, 33))
            payloads.append(encode_bmp(
                rng.randint(0, 256, (h, w, 3)).astype(np.uint8)))
            widths.append(w)
            heights.append(h)
            durs.append(-1)
            mimes.append("image/bmp")
        elif kind == "audio":
            n_samp = int(rng.randint(200, 2000))
            rate = 8000
            t = np.arange(n_samp)
            freq = float(rng.uniform(100, 1000))
            wave = (np.sin(2 * np.pi * freq * t / rate) * 12000).astype(np.int16)
            payloads.append(encode_wav(wave, rate))
            widths.append(-1)
            heights.append(-1)
            durs.append(int(n_samp * 1000 / rate))
            mimes.append("audio/wav")
        else:  # video
            w, h = int(rng.randint(8, 17)), int(rng.randint(8, 17))
            frames = [encode_bmp(rng.randint(0, 256, (h, w, 3)).astype(np.uint8))
                      for _ in range(int(rng.randint(2, 6)))]
            payloads.append(encode_gvid(frames))
            widths.append(w)
            heights.append(h)
            durs.append(len(frames) * 40)
            mimes.append("video/x-gvid")
    return pa.table({
        "media_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "kind": pa.array([kind] * n, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "mime": pa.array(mimes, pa.string()),
        "width": pa.array(np.asarray(widths, np.int32), pa.int32()),
        "height": pa.array(np.asarray(heights, np.int32), pa.int32()),
        "duration_ms": pa.array(np.asarray(durs, np.int32), pa.int32()),
    })


def formula_pixels(key: int, w: int, h: int) -> np.ndarray:
    """Closed-form grayscale image for key-derived media: pixel at
    row-major position i is ``(key + i) % 256``. The decoded mean is then
    SQL-derivable (``AVG((key + i) % 256)`` over ``generate_series``), so
    an encode->decode round trip is value-verifiable cross-engine."""
    return ((key + np.arange(h * w, dtype=np.int64)) % 256) \
        .astype(np.uint8).reshape(h, w)


def media_from_keys(batch: pa.Table, key_col: str = "p_partkey") -> pa.Table:
    """Key table -> MEDIA_SCHEMA rows with formulaic BMP payloads:
    w = 8 + key % 25, h = 8 + (key // 25) % 25, pixels = formula_pixels."""
    keys = batch.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
    ws = (8 + keys % 25).astype(np.int32)
    hs = (8 + (keys // 25) % 25).astype(np.int32)
    payloads = [encode_bmp(formula_pixels(int(k), int(w), int(h)))
                for k, w, h in zip(keys, ws, hs)]
    n = len(keys)
    return pa.table({
        "media_id": pa.array(keys, pa.int64()),
        "kind": pa.array(["image"] * n, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "mime": pa.array(["image/bmp"] * n, pa.string()),
        "width": pa.array(ws, pa.int32()),
        "height": pa.array(hs, pa.int32()),
        "duration_ms": pa.array(np.full(n, -1, np.int32), pa.int32()),
    })


def _fake_pixels(payload: bytes, w: int, h: int) -> np.ndarray:
    """Deterministic pixel fake: payload bytes tiled to (h, w) uint8."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    reps = int(np.ceil(w * h / max(1, raw.size)))
    return np.tile(raw, reps)[: w * h].reshape(h, w)


# ------------------------------------------------------------- task stages
#
# Each stage is a stateless batch function run as a Ray Data TASK stage:
# none has setup worth amortizing, and a fixed actor pool as wide as the
# cluster would hold every CPU slot while its own upstream read still
# needs one (observed: ``media_decode`` never finished at 4 slots).


def _decode(payload: bytes, w: int, h: int, fake: bool) -> np.ndarray:
    if fake:
        return _fake_pixels(payload, max(1, w), max(1, h))
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[:4] == b"RIFF":
        samples, _ = decode_wav(payload)
        return ((samples.astype(np.int32) >> 8) + 128).astype(np.uint8)
    if payload[:4] == b"GVID":
        return decode_bmp(decode_gvid_frame(payload, 0))
    raise ValueError("unknown media container")


def decode_batch(batch: pa.Table, fake: bool = False,
                 feature_dim: int = 16) -> pa.Table:
    """payload -> decoded feature columns. Dispatch is by magic bytes:
    BMP -> luminance pixels, WAV -> samples mapped to uint8 amplitude,
    GVID -> first frame. Undecodable payloads become dead-letter rows
    (``status`` column) instead of crashing the task."""
    payloads = batch.column("payload").to_pylist()
    ws = batch.column("width").to_numpy(zero_copy_only=False)
    hs = batch.column("height").to_numpy(zero_copy_only=False)
    feats = np.zeros((len(payloads), feature_dim), dtype=np.float32)
    # float64: the decoded mean is compared at 6dp against a DOUBLE SQL
    # oracle — float32 has only ~1e-5 resolution at intensity 128
    means = np.zeros(len(payloads), dtype=np.float64)
    status = []
    for i, p in enumerate(payloads):
        try:
            px = _decode(p, int(ws[i]), int(hs[i]), fake)
            means[i] = float(px.mean())
            hist, _ = np.histogram(px, bins=feature_dim, range=(0, 256))
            feats[i] = hist / max(1, hist.sum())
            status.append("ok")
        except (ValueError, IndexError, struct.error) as exc:
            status.append(f"decode_error: {type(exc).__name__}")
    return pa.table({
        "media_id": batch.column("media_id"),
        "mean_intensity": pa.array(means, pa.float64()),
        "feature": pa.array(list(feats), pa.list_(pa.float32(), feature_dim)),
        "status": pa.array(status, pa.string()),
    })


def sample_frames_batch(batch: pa.Table, n_frames: int = 4) -> pa.Table:
    """Sample ``n_frames`` evenly-spaced REAL frames per GVID payload —
    one output row per (media, frame), each frame a decodable BMP
    payload. Non-GVID payloads dead-letter."""
    ids = batch.column("media_id").to_numpy(zero_copy_only=False)
    payloads = batch.column("payload").to_pylist()
    out_ids, out_frame, out_bytes, status = [], [], [], []
    for mid, p in zip(ids, payloads):
        try:
            total = gvid_frame_count(p)
            picks = np.unique(np.linspace(0, max(0, total - 1),
                                          min(n_frames, total))
                              .astype(np.int64))
            for f in picks:
                out_ids.append(int(mid))
                out_frame.append(int(f))
                out_bytes.append(decode_gvid_frame(p, int(f)))
                status.append("ok")
        except (ValueError, IndexError, struct.error) as exc:
            out_ids.append(int(mid))
            out_frame.append(-1)
            out_bytes.append(b"")
            status.append(f"decode_error: {type(exc).__name__}")
    return pa.table({
        "media_id": pa.array(out_ids, pa.int64()),
        "frame_idx": pa.array(out_frame, pa.int32()),
        "frame_payload": pa.array(out_bytes, pa.binary()),
        "status": pa.array(status, pa.string()),
    })


def decode_media(ds: Dataset, fake: bool = False, feature_dim: int = 16,
                 batch_size: int = 32) -> Dataset:
    """payload -> (media_id, mean_intensity, feature[dim], status). Small
    batch_size on purpose: batch bytes x running tasks bounds heap."""
    return ds.map_batches(decode_batch,
                          fn_kwargs={"fake": fake, "feature_dim": feature_dim},
                          batch_format="pyarrow", batch_size=batch_size)


def sample_frames(ds: Dataset, n_frames: int = 4,
                  batch_size: int = 16) -> Dataset:
    return ds.map_batches(sample_frames_batch,
                          fn_kwargs={"n_frames": n_frames},
                          batch_format="pyarrow", batch_size=batch_size)


def resize_batch(batch: pa.Table, out_w: int = 4, out_h: int = 4) -> pa.Table:
    """Decode + grid-resize to ``out_h x out_w`` by block-mean pooling —
    the engine form of the reference-adjacent image-preprocess step
    (resize before embedding). The grid map is the integer floor map
    ``cell = (row * out_h) // h`` (deterministic, no float resampling), so
    each output cell is the exact AVG of its input pixels — SQL-derivable
    for formulaic media. Emits LONG format (media_id, py, px, v) so values
    are scalar-comparable cross-engine; v is the IEEE division of an exact
    int sum by an exact count."""
    payloads = batch.column("payload").to_pylist()
    ids = batch.column("media_id").to_numpy(zero_copy_only=False)
    ow, oh = out_w, out_h
    out_id, out_py, out_px, out_v, status, st_id = [], [], [], [], [], []
    for mid, p in zip(ids, payloads):
        try:
            px = decode_bmp(p) if p[:2] == b"BM" else \
                decode_bmp(decode_gvid_frame(p, 0))
            h, w = px.shape
            ry = (np.arange(h, dtype=np.int64) * oh) // h
            rx = (np.arange(w, dtype=np.int64) * ow) // w
            cell = (ry[:, None] * ow + rx[None, :]).reshape(-1)
            sums = np.bincount(cell, weights=px.reshape(-1)
                               .astype(np.float64), minlength=ow * oh)
            cnts = np.bincount(cell, minlength=ow * oh)
            out_id.append(np.full(ow * oh, int(mid), np.int64))
            out_py.append(np.arange(ow * oh, dtype=np.int64) // ow)
            out_px.append(np.arange(ow * oh, dtype=np.int64) % ow)
            out_v.append(sums / np.maximum(cnts, 1))
        except (ValueError, IndexError, struct.error) as exc:
            st_id.append(int(mid))
            status.append(f"decode_error: {type(exc).__name__}")
    n_ok = len(out_id)
    tbl = pa.table({
        "media_id": pa.array(np.concatenate(out_id) if n_ok else
                             np.empty(0, np.int64), pa.int64()),
        "py": pa.array(np.concatenate(out_py) if n_ok else
                       np.empty(0, np.int64), pa.int64()),
        "px": pa.array(np.concatenate(out_px) if n_ok else
                       np.empty(0, np.int64), pa.int64()),
        "v": pa.array(np.concatenate(out_v) if n_ok else
                      np.empty(0, np.float64), pa.float64()),
    })
    if status:  # dead-letter rows keep the failure visible downstream
        dead = pa.table({
            "media_id": pa.array(st_id, pa.int64()),
            "py": pa.array([-1] * len(st_id), pa.int64()),
            "px": pa.array([-1] * len(st_id), pa.int64()),
            "v": pa.array([float("nan")] * len(st_id), pa.float64()),
        })
        tbl = pa.concat_tables([tbl, dead])
    return tbl


def resize_media(ds: Dataset, out_w: int = 4, out_h: int = 4,
                 batch_size: int = 32) -> Dataset:
    """payload -> long-format block-mean grid (small batches: payload
    bytes x running tasks bounds worker heap)."""
    return ds.map_batches(resize_batch,
                          fn_kwargs={"out_w": out_w, "out_h": out_h},
                          batch_format="pyarrow", batch_size=batch_size)
