"""AVI/MJPEG video container — real demux + real codec, from scratch.

The first honest VIDEO-with-a-codec tier: RIFF 'AVI ' container
(Microsoft's public AVI 1.0 layout: hdrl/avih/strl/strh/strf headers,
movi data chunks, idx1 index) carrying Motion-JPEG frames, each frame
decoded by the in-repo baseline JPEG decoder (stages/jpeg.parse_jpeg —
real Huffman + integer IDCT, already bit-exact-twinned). H.264 stays an
honest stub (patent-heavy entropy/transform stack); MJPEG is the
classic intraframe codec real capture pipelines still emit, and its
container mechanics (index-seek frame sampling) are exactly what a
CC-scale video curation stage needs.

Scale shape: `AviFrameSampleStage` uses the idx1 index to SEEK to the
sampled frames and decodes only those — an O(samples) decode per file
regardless of file length, the access pattern that makes sampling 10^9
videos tractable. Parallelism is per-file (one video decodes
independently), the same sharding a 100 TB corpus uses.

Twin contract (pipelines/oracles._avi_scalar_rows): an independent
struct-based RIFF walk + the pure-Python _jpeg_scalar_px decode of each
sampled frame — no shared control flow with this module or the numpy
JPEG path.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .jpeg import encode_jpeg_rgb, parse_jpeg


def _chunk(fourcc: bytes, body: bytes) -> bytes:
    pad = b"\x00" if len(body) & 1 else b""
    return fourcc + struct.pack("<I", len(body)) + body + pad


def _list(fourcc: bytes, body: bytes) -> bytes:
    return _chunk(b"LIST", fourcc + body)


def build_avi_mjpeg(frames: list[bytes], width: int, height: int,
                    rate: int, scale: int = 1) -> bytes:
    """Assemble an AVI 1.0 file from JPEG frame payloads at rate/scale
    fps, with a full idx1 index (offsets relative to the 'movi' fourcc,
    the convention every AVI 1.0 writer uses)."""
    uspf = (1_000_000 * scale) // rate
    avih = struct.pack(
        "<10I4x12x", uspf, 0, 0, 0x10,          # AVIF_HASINDEX
        len(frames), 0, 1, 0, width, height)
    strh = struct.pack(
        "<4s4sI2H8I4h", b"vids", b"MJPG", 0, 0, 0, 0,
        scale, rate, 0, len(frames), 0, 0xFFFFFFFF, 0,
        0, 0, width, height)
    strf = struct.pack(
        "<I2i2H4s5I", 40, width, height, 1, 24, b"MJPG",
        width * height * 3, 0, 0, 0, 0)
    hdrl = _list(b"hdrl", _chunk(b"avih", avih)
                 + _list(b"strl", _chunk(b"strh", strh)
                         + _chunk(b"strf", strf)))

    movi_body = bytearray(b"movi")
    index = []
    for f in frames:
        index.append((len(movi_body), len(f)))   # offset of '00dc' fourcc
        movi_body += _chunk(b"00dc", f)
    movi = _chunk(b"LIST", bytes(movi_body))
    idx1 = _chunk(b"idx1", b"".join(
        struct.pack("<4sIII", b"00dc", 0x10, off, ln)
        for off, ln in index))
    riff_body = b"AVI " + hdrl + movi + idx1
    return b"RIFF" + struct.pack("<I", len(riff_body)) + riff_body


def parse_avi_index(payload: bytes):
    """Container-level parse (no frame decode): -> (width, height, rate,
    scale, n_frames, frame_spans) where frame_spans[i] = (abs_offset,
    length) of frame i's JPEG bytes. Uses idx1 when present (seekable
    path), else walks movi sequentially. Validates idx1 against the
    chunk headers it points at."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"AVI ":
        raise ValueError("avi: not a RIFF AVI file")
    size = struct.unpack("<I", payload[4:8])[0]
    if size + 8 > len(payload):
        raise ValueError("avi: truncated RIFF payload")
    pos = 12
    width = height = rate = scale = n_frames = None
    movi_base = None
    idx_entries = None
    spans = []
    while pos + 8 <= size + 8:
        fourcc = payload[pos:pos + 4]
        ln = struct.unpack("<I", payload[pos + 4:pos + 8])[0]
        body_at = pos + 8
        if fourcc == b"LIST":
            kind = payload[body_at:body_at + 4]
            if kind == b"hdrl":
                hpos = body_at + 4
                hend = body_at + ln
                while hpos + 8 <= hend:
                    cc = payload[hpos:hpos + 4]
                    cl = struct.unpack("<I",
                                       payload[hpos + 4:hpos + 8])[0]
                    cb = payload[hpos + 8:hpos + 8 + cl]
                    if cc == b"avih":
                        (_uspf, _, _, _flags, n_frames, _, _streams, _,
                         width, height) = struct.unpack("<10I", cb[:40])
                    elif cc == b"LIST" and cb[:4] == b"strl":
                        spos = hpos + 12
                        send = hpos + 8 + cl
                        while spos + 8 <= send:
                            sc = payload[spos:spos + 4]
                            sl = struct.unpack(
                                "<I", payload[spos + 4:spos + 8])[0]
                            sb = payload[spos + 8:spos + 8 + sl]
                            if sc == b"strh":
                                typ, handler = struct.unpack(
                                    "<4s4s", sb[:8])
                                # skip non-video strls (real capture
                                # AVIs carry an 'auds' PCM stream next
                                # to the video); only a video stream
                                # with a non-MJPEG codec is an error
                                if typ == b"vids":
                                    if handler != b"MJPG":
                                        raise ValueError(
                                            "avi: video stream codec is "
                                            "not MJPG")
                                    scale, rate = struct.unpack(
                                        "<II", sb[20:28])
                            spos += 8 + sl + (sl & 1)
                    hpos += 8 + cl + (cl & 1)
            elif kind == b"movi":
                movi_base = body_at          # offset of the 'movi' tag
                mpos = body_at + 4
                mend = body_at + ln
                while mpos + 8 <= mend:
                    cc = payload[mpos:mpos + 4]
                    cl = struct.unpack("<I",
                                       payload[mpos + 4:mpos + 8])[0]
                    if cc == b"00dc":
                        spans.append((mpos + 8, cl))
                    mpos += 8 + cl + (cl & 1)
        elif fourcc == b"idx1":
            idx_entries = [
                struct.unpack("<4sIII", payload[body_at + i:
                                                body_at + i + 16])
                for i in range(0, ln, 16)]
        pos = body_at + ln + (ln & 1)
    if None in (width, height, rate, scale, n_frames) or movi_base is None:
        raise ValueError("avi: missing required headers")
    if idx_entries is not None:
        # the index is the seek path — verify it against the chunks
        iframes = []
        for cc, _flags, off, cl in idx_entries:
            if cc != b"00dc":
                continue
            at = movi_base + off
            if payload[at:at + 4] != b"00dc" or \
                    struct.unpack("<I", payload[at + 4:at + 8])[0] != cl:
                raise ValueError("avi: idx1 entry does not match chunk")
            iframes.append((at + 8, cl))
        if iframes != spans:
            raise ValueError("avi: idx1 disagrees with movi walk")
    if len(spans) != n_frames:
        raise ValueError("avi: frame count mismatch")
    return width, height, rate, scale, n_frames, spans


class AviFrameSampleStage:
    """Actor-pool MJPEG frame sampler: per video, `samples` evenly-spaced
    frames located via the container index and decoded (real JPEG
    decode); one output row per sampled frame with exact timestamp and
    integer channel sums. Non-sampled frames are never decoded — the
    O(samples) access pattern that survives arbitrarily long videos.

    Output: (doc_id, sample, frame, ts_ms, n_frames, r_sum, g_sum,
    b_sum)."""

    def __init__(self, bytes_col: str = "avi", key_col: str = "doc_id",
                 samples: int = 4):
        self.bytes_col = bytes_col
        self.key_col = key_col
        self.samples = samples

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch[self.key_col], np.int64)
        cols = {k: [] for k in ("doc_id", "sample", "frame", "ts_ms",
                                "n_frames", "r_sum", "g_sum", "b_sum")}
        for key, payload in zip(keys, batch[self.bytes_col].to_pylist()):
            w, h, rate, scale, n, spans = parse_avi_index(payload)
            take = min(self.samples, n)
            for j in range(take):
                fi = (j * n) // take
                off, ln = spans[fi]
                px = parse_jpeg(payload[off:off + ln])
                if px.shape[0] != h or px.shape[1] != w:
                    raise ValueError("avi: frame size != header size")
                s = px.astype(np.int64).sum(axis=(0, 1))
                cols["doc_id"].append(int(key))
                cols["sample"].append(j)
                cols["frame"].append(fi)
                cols["ts_ms"].append(fi * 1000 * scale // rate)
                cols["n_frames"].append(n)
                cols["r_sum"].append(int(s[0]))
                cols["g_sum"].append(int(s[1]))
                cols["b_sum"].append(int(s[2]))
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in cols.items()})


def synth_frame_rgb(doc_id: int, frame: int, w: int, h: int) -> np.ndarray:
    """Deterministic smooth per-frame gradient (same family as
    synth_jpeg_bytes so baseline quantization stays tame), animated by
    the frame index."""
    a, b = doc_id % 5 + 1, doc_id % 7 + 1
    x = np.arange(w, dtype=np.int64)[None, :]
    y = np.arange(h, dtype=np.int64)[:, None]
    r = (64 + a * x + b * y + doc_id + 9 * frame) % 256
    g = (128 + b * x + a * y + 5 * frame) % 256
    bl = (32 + x + 2 * y + doc_id % 11 + 3 * frame) % 256
    return np.stack([r, g, bl], axis=-1).astype(np.uint8)


def synth_avi_bytes(doc_id: int) -> bytes:
    """Deterministic per-doc MJPEG AVI: 3-6 frames, two frame sizes,
    NTSC-style fractional fps on every third doc."""
    w = 24 + 8 * (doc_id % 2)
    h = 16 + 8 * (doc_id % 3 == 0)
    n = 3 + doc_id % 4
    rate, scale = ((30000, 1001) if doc_id % 3 == 0
                   else (10 + doc_id % 15, 1))
    frames = [encode_jpeg_rgb(synth_frame_rgb(doc_id, f, w, h))
              for f in range(n)]
    return build_avi_mjpeg(frames, w, h, rate, scale)
