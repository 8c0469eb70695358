"""MP3 (MPEG audio) frame-walker — container-level metadata, honestly.

Full MPEG-1 Layer III audio decode is a patent-shaped stack this
from-scratch engine does not claim (the synthesis filterbank/IMDCT stay
out of scope, like H.264 on the video side). What a 100 TB curation
pipeline actually needs from MP3 payloads is ffprobe-style METADATA —
duration, bitrate, VBR-ness, sample rate, tag presence — and that is
pure public container structure: the 4-byte frame header (sync,
version, layer, bitrate/samplerate indices, padding) and the frame-size
recurrence that lets a walker hop header-to-header WITHOUT scanning
payload bytes (so entropy payloads can never false-sync). This module
implements that walk for MPEG-1 and MPEG-2 Layers I/II/III, plus ID3v2
(syncsafe size skip) and ID3v1 trailer detection.

The synthesizer emits structurally-valid streams (correct headers,
correct frame lengths, deterministic opaque payload bytes) — honest,
because nothing here claims to interpret the payload; the claim is the
container walk, and that is exercised end-to-end.

Scale shape: one file per row in an actor pool; the walk is O(frames)
header hops over a bytes object, no per-byte scan and no copy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# bitrate tables, kbps; index 0 = "free", 15 = invalid  (public tables)
_BR_V1 = {                                  # MPEG-1
    1: [0, 32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384,
        416, 448],
    2: [0, 32, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320,
        384],
    3: [0, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256,
        320],
}
_BR_V2 = {                                  # MPEG-2 / 2.5
    1: [0, 32, 48, 56, 64, 80, 96, 112, 128, 144, 160, 176, 192, 224,
        256],
    2: [0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144, 160],
    3: [0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144, 160],
}
_RATES = {3: [44100, 48000, 32000],         # version bits 11 = MPEG-1
          2: [22050, 24000, 16000],         # 10 = MPEG-2
          0: [11025, 12000, 8000]}          # 00 = MPEG-2.5
# samples per frame [version][layer]
_SPF = {3: {1: 384, 2: 1152, 3: 1152},
        2: {1: 384, 2: 1152, 3: 576},
        0: {1: 384, 2: 1152, 3: 576}}


def frame_header(version: int, layer: int, br_idx: int, sr_idx: int,
                 padding: int, channel_mode: int = 0) -> bytes:
    """Pack one MPEG audio frame header (version/layer in header-bit
    encoding: version 3 = MPEG-1, 2 = MPEG-2; layer field = 4-layer)."""
    b0 = 0xFF
    b1 = 0xE0 | (version << 3) | ((4 - layer) << 1) | 1   # no CRC
    b2 = (br_idx << 4) | (sr_idx << 2) | (padding << 1)
    b3 = (channel_mode << 6)
    return bytes([b0, b1, b2, b3])


def frame_length(version: int, layer: int, bitrate_kbps: int,
                 sample_rate: int, padding: int) -> int:
    """The spec's frame-size recurrence (slot = 4 bytes for Layer I,
    1 byte otherwise)."""
    if layer == 1:
        return (12 * bitrate_kbps * 1000 // sample_rate + padding) * 4
    spf = _SPF[version][layer]
    return (spf // 8) * bitrate_kbps * 1000 // sample_rate + padding


def _syncsafe(n: int) -> bytes:
    return bytes([(n >> 21) & 0x7F, (n >> 14) & 0x7F,
                  (n >> 7) & 0x7F, n & 0x7F])


def parse_mp3_meta(payload: bytes) -> tuple:
    """Walk the stream -> (version{1,2,25}, layer, sample_rate, channels,
    n_frames, audio_bytes, duration_ms, bitrate_bps, is_vbr, has_id3v2,
    has_id3v1). duration_ms and bitrate_bps are exact integer math:
    duration = n_frames*spf*1000//rate, bitrate = audio_bytes*8*rate //
    (n_frames*spf)."""
    pos = 0
    has_id3v2 = 0
    if payload[:3] == b"ID3":
        if len(payload) < 10:
            raise ValueError("mp3: truncated ID3v2 header")
        if any(b & 0x80 for b in payload[6:10]):
            raise ValueError("mp3: ID3v2 size byte is not syncsafe")
        flags = payload[5]
        sz = ((payload[6] << 21) | (payload[7] << 14)
              | (payload[8] << 7) | payload[9])
        pos = 10 + sz + (10 if flags & 0x10 else 0)   # footer flag
        has_id3v2 = 1
    end = len(payload)
    has_id3v1 = 0
    if end - pos >= 128 and payload[end - 128:end - 125] == b"TAG":
        end -= 128
        has_id3v1 = 1
    version = layer = rate = channels = None
    n_frames = 0
    audio_bytes = 0
    bitrates = set()
    while pos < end:
        if end - pos < 4:
            raise ValueError("mp3: trailing garbage shorter than a header")
        h = payload[pos:pos + 4]
        if h[0] != 0xFF or (h[1] & 0xE0) != 0xE0:
            raise ValueError(f"mp3: lost sync at byte {pos}")
        v_bits = (h[1] >> 3) & 3
        if v_bits == 1:
            raise ValueError("mp3: reserved version")
        l_bits = (h[1] >> 1) & 3
        if l_bits == 0:
            raise ValueError("mp3: reserved layer")
        lyr = 4 - l_bits
        br_idx = h[2] >> 4
        sr_idx = (h[2] >> 2) & 3
        if br_idx in (0, 15) or sr_idx == 3:
            raise ValueError("mp3: free/invalid bitrate or rate index")
        sr = _RATES[v_bits][sr_idx]
        br = (_BR_V1 if v_bits == 3 else _BR_V2)[lyr][br_idx]
        ch = 1 if ((h[3] >> 6) & 3) == 3 else 2
        if version is None:
            version, layer, rate, channels = v_bits, lyr, sr, ch
        elif (v_bits, lyr, sr, ch) != (version, layer, rate, channels):
            raise ValueError("mp3: mid-stream format change")
        ln = frame_length(v_bits, lyr, br, sr, (h[2] >> 1) & 1)
        if pos + ln > end:
            raise ValueError("mp3: frame overruns stream")
        n_frames += 1
        audio_bytes += ln
        bitrates.add(br)
        pos += ln
    if n_frames == 0:
        raise ValueError("mp3: no audio frames")
    spf = _SPF[version][layer]
    duration_ms = n_frames * spf * 1000 // rate
    bitrate_bps = audio_bytes * 8 * rate // (n_frames * spf)
    vnum = {3: 1, 2: 2, 0: 25}[version]
    return (vnum, layer, rate, channels, n_frames, audio_bytes,
            duration_ms, bitrate_bps, int(len(bitrates) > 1),
            has_id3v2, has_id3v1)


_META_COLS = ("version", "layer", "sample_rate", "channels", "n_frames",
              "audio_bytes", "duration_ms", "bitrate_bps", "is_vbr",
              "has_id3v2", "has_id3v1")


class Mp3MetaStage:
    """Actor-pool metadata extraction over an mp3-bytes column — the
    ffprobe stage of an audio curation pipeline (no payload decode
    claimed or performed)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["mp3"].to_pylist()
        rows = [parse_mp3_meta(b) for b in blobs]
        cols = {"doc_id": batch["doc_id"]}
        for i, nm in enumerate(_META_COLS):
            cols[nm] = pa.array([r[i] for r in rows], pa.int64())
        return pa.table(cols)


def synth_mp3_bytes(doc_id: int) -> bytes:
    """Structurally-valid deterministic MPEG audio stream: MPEG-1 or
    MPEG-2, Layer III (plus Layer II every 9th doc), CBR/VBR mix, an
    ID3v2 tag on every 3rd doc and an ID3v1 trailer on every 4th;
    payload bytes are seeded-RNG opaque data (this module never claims
    to interpret them)."""
    rng = np.random.default_rng(0x3B3 ^ (doc_id * 2654435761 & 0xFFFFFFFF))
    v_bits = 3 if doc_id % 5 else 2                 # mostly MPEG-1
    layer = 2 if doc_id % 9 == 4 else 3
    sr_idx = doc_id % 3
    rate = _RATES[v_bits][sr_idx]
    table = (_BR_V1 if v_bits == 3 else _BR_V2)[layer]
    n = 8 + doc_id % 21
    vbr = doc_id % 2 == 1
    parts = []
    if doc_id % 3 == 0:
        tag_body = bytes(rng.integers(0, 128, size=37, dtype=np.uint8))
        parts.append(b"ID3\x04\x00\x00" + _syncsafe(len(tag_body))
                     + tag_body)
    for f in range(n):
        br_idx = (5 + (f * 3) % 9) if vbr else 7
        padding = (doc_id + f) % 2 if layer != 1 else 0
        br = table[br_idx]
        ln = frame_length(v_bits, layer, br, rate, padding)
        hdr = frame_header(v_bits, layer, br_idx, sr_idx, padding,
                           channel_mode=(3 if doc_id % 6 == 2 else 0))
        body = bytes(rng.integers(0, 256, size=ln - 4, dtype=np.uint8))
        parts.append(hdr + body)
    if doc_id % 4 == 1:
        parts.append(b"TAG" + bytes(rng.integers(32, 127, size=125,
                                                 dtype=np.uint8)))
    return b"".join(parts)
