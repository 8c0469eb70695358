"""ESRI shapefile (.shp/.shx) binary decode into columnar numpy arrays.

Semantics reproduce `tmontaigu/shapefile-rs` exactly (the reference for this
engine), but the representation is columnar from the start: one flat f64
coordinate buffer + offset arrays per file, ready for zero-copy conversion to
Arrow list arrays (see `schema.py`).

Reference parity (file:line cites into /root/reference):
- 100-byte header, file code 9994 big-endian:        src/header.rs:42-73
- RecordHeader {record_number, record_size(words)}:  src/record/mod.rs:288-310 (big-endian)
- NO_DATA = -10e38, is_no_data = (v <= NO_DATA):     src/record/mod.rs:29-33
- M clamp max(m, NO_DATA) on multi-shape M arrays:   src/record/io.rs:85-93
  (single PointM / PointZ m is read raw, NOT clamped: src/record/point.rs:172-190,324-344)
- optional-M detection via record size:              src/record/polyline.rs:260-294 etc.
- oversized records tolerated (padding skipped),
  undersized -> error:                               src/record/point.rs:54-71 pattern
- polygon rings classified by shoelace winding:      src/record/mod.rs:133-145,
                                                     src/record/polygon.rs:366-377
- multipatch patch-type array before points:         src/record/multipatch.rs:235-284
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_U2I32 = struct.Struct("<ii")
_UI32 = struct.Struct("<i")
_UBE2I32 = struct.Struct(">ii")

NO_DATA = -10e38  # src/record/mod.rs:29

# ESRI shape type codes (src/lib.rs:162-180)
NULL_SHAPE = 0
POINT = 1
POLYLINE = 3
POLYGON = 5
MULTIPOINT = 8
POINT_Z = 11
POLYLINE_Z = 13
POLYGON_Z = 15
MULTIPOINT_Z = 18
POINT_M = 21
POLYLINE_M = 23
POLYGON_M = 25
MULTIPOINT_M = 28
MULTIPATCH = 31

VALID_SHAPE_TYPES = {
    NULL_SHAPE, POINT, POLYLINE, POLYGON, MULTIPOINT, POINT_Z, POLYLINE_Z,
    POLYGON_Z, MULTIPOINT_Z, POINT_M, POLYLINE_M, POLYGON_M, MULTIPOINT_M,
    MULTIPATCH,
}

SHAPE_TYPE_NAMES = {
    NULL_SHAPE: "NullShape", POINT: "Point", POLYLINE: "Polyline",
    POLYGON: "Polygon", MULTIPOINT: "Multipoint", POINT_Z: "PointZ",
    POLYLINE_Z: "PolylineZ", POLYGON_Z: "PolygonZ", MULTIPOINT_Z: "MultipointZ",
    POINT_M: "PointM", POLYLINE_M: "PolylineM", POLYGON_M: "PolygonM",
    MULTIPOINT_M: "MultipointM", MULTIPATCH: "Multipatch",
}

_POINT_KIND = {POINT, POINT_M, POINT_Z}
_MULTIPOINT_KIND = {MULTIPOINT, MULTIPOINT_M, MULTIPOINT_Z}
_POLY_KIND = {POLYLINE, POLYLINE_M, POLYLINE_Z, POLYGON, POLYGON_M, POLYGON_Z}
_POLYGON_KIND = {POLYGON, POLYGON_M, POLYGON_Z}


def has_z(shape_type: int) -> bool:
    """src/lib.rs:222-231 (note: Multipatch has Z)."""
    return shape_type in (POINT_Z, POLYLINE_Z, POLYGON_Z, MULTIPOINT_Z, MULTIPATCH)


def has_m(shape_type: int) -> bool:
    """src/lib.rs:234-246 (note: Multipatch is NOT in the has_m set)."""
    return shape_type in (
        POINT_Z, POLYLINE_Z, POLYGON_Z, MULTIPOINT_Z,
        POINT_M, POLYLINE_M, POLYGON_M, MULTIPOINT_M,
    )


class ShapefileError(Exception):
    pass


class InvalidFileCode(ShapefileError):
    pass


class InvalidShapeType(ShapefileError):
    pass


class InvalidShapeRecordSize(ShapefileError):
    pass


class MismatchShapeType(ShapefileError):
    pass


@dataclass
class ShpHeader:
    """The 100-byte .shp/.shx header (src/header.rs:14-28)."""

    file_length: int          # in 16-bit words, header included
    shape_type: int
    version: int = 1000
    # bbox order on the wire: xmin ymin xmax ymax zmin zmax mmin mmax
    bbox: np.ndarray = field(
        default_factory=lambda: np.zeros(8, dtype=np.float64))

    @property
    def xmin(self): return float(self.bbox[0])
    @property
    def ymin(self): return float(self.bbox[1])
    @property
    def xmax(self): return float(self.bbox[2])
    @property
    def ymax(self): return float(self.bbox[3])


HEADER_SIZE = 100  # bytes (src/header.rs:7)
FILE_CODE = 9994


def read_header(buf: bytes) -> ShpHeader:
    """Parse the 100-byte header (src/header.rs:42-73)."""
    if len(buf) < HEADER_SIZE:
        raise ShapefileError(f"file too short for header: {len(buf)} bytes")
    file_code = int(np.frombuffer(buf, ">i4", count=1, offset=0)[0])
    if file_code != FILE_CODE:
        raise InvalidFileCode(f"invalid file code {file_code}")
    file_length = int(np.frombuffer(buf, ">i4", count=1, offset=24)[0])
    version = int(np.frombuffer(buf, "<i4", count=1, offset=28)[0])
    shape_type = int(np.frombuffer(buf, "<i4", count=1, offset=32)[0])
    if shape_type not in VALID_SHAPE_TYPES:
        raise InvalidShapeType(f"invalid shape type code {shape_type}")
    bbox = np.frombuffer(buf, "<f8", count=8, offset=36).copy()
    return ShpHeader(file_length=file_length, shape_type=shape_type,
                     version=version, bbox=bbox)


def read_shx(buf: bytes) -> np.ndarray:
    """Parse a whole .shx into an (n, 2) int64 array of (offset_words,
    record_size_words) — src/reader.rs:86-100.

    Record count = (file_length_words*2 - 100) / 8.
    """
    header = read_header(buf)
    n = (header.file_length * 2 - HEADER_SIZE) // 8
    pairs = np.frombuffer(buf, ">i4", count=2 * n, offset=HEADER_SIZE)
    return pairs.reshape(n, 2).astype(np.int64)


@dataclass
class ShapeTable:
    """Columnar decode of one .shp file.

    Layout mirrors the reference's nested `Vec<Vec<P>>` (parts -> points,
    src/record/polyline.rs:46-49) as flat buffers + offsets:

    - ``x/y/z/m``: flat per-point buffers (total_points long). ``z`` is None
      unless the file type has Z; ``m`` is None unless the type can carry M —
      M values that were absent on the wire are the reference's defaults
      (NO_DATA, src/record/point.rs:233-241,382-391) and ``m_present`` records
      per shape whether the wire actually had an M block.
    - ``part_offsets``: int64 (num_parts+1,) prefix offsets into the point
      buffers.
    - ``shape_part_offsets``: int64 (num_shapes+1,) prefix offsets into
      ``part_offsets[:-1]`` (i.e. parts-per-shape nesting).
    - ``part_roles``: int8 per part. Polygons: 0=outer, 1=inner (winding rule,
      src/record/mod.rs:133-145). Multipatch: the patch-type code 0-5
      (src/record/multipatch.rs:29-46). Other types: -1.
    - ``bbox_xy``: (num_shapes, 4) [xmin ymin xmax ymax] as read from the wire
      (for point shapes: the point itself).
    - ``z_range``/``m_range``: (num_shapes, 2) or None; wire values (for point
      shapes: [v, v]); m_range rows are the reference's defaults when the M
      block was absent (0.0 for M-type points-default... see decoder).
    """

    shape_type: int
    geom_id: np.ndarray          # int64, 0-based POSITION in the file
    record_number: np.ndarray    # int32 as on the wire (1-based normally)
    x: np.ndarray
    y: np.ndarray
    z: Optional[np.ndarray]
    m: Optional[np.ndarray]
    m_present: Optional[np.ndarray]   # bool per shape, None when type has no M
    part_offsets: np.ndarray
    shape_part_offsets: np.ndarray
    part_roles: np.ndarray       # int8 per part
    bbox_xy: np.ndarray          # (n, 4)
    z_range: Optional[np.ndarray]
    m_range: Optional[np.ndarray]
    is_null: np.ndarray          # bool per shape (NullShape records)

    @property
    def num_shapes(self) -> int:
        return len(self.geom_id)

    @property
    def num_points(self) -> int:
        return len(self.x)

    def parts_of(self, i: int) -> list[np.ndarray]:
        """Point index ranges of shape i, as (start, end) slices into x/y."""
        p0, p1 = self.shape_part_offsets[i], self.shape_part_offsets[i + 1]
        out = []
        for p in range(p0, p1):
            out.append((int(self.part_offsets[p]), int(self.part_offsets[p + 1])))
        return out

    def points_of(self, i: int) -> np.ndarray:
        """(k, 2) xy array of all points of shape i."""
        p0, p1 = self.shape_part_offsets[i], self.shape_part_offsets[i + 1]
        s, e = int(self.part_offsets[p0]), int(self.part_offsets[p1])
        return np.column_stack([self.x[s:e], self.y[s:e]])


def _f64(buf, offset, count):
    return np.frombuffer(buf, "<f8", count=count, offset=offset)


def _i32(buf, offset, count):
    return np.frombuffer(buf, "<i4", count=count, offset=offset)


def ring_winding_is_inner(x: np.ndarray, y: np.ndarray) -> bool:
    """Shoelace classification (src/record/mod.rs:133-145).

    area = sum((x1-x0)*(y1+y0)) / 2 over consecutive windows;
    area < 0 -> inner ring (CCW), else outer (CW).
    """
    if len(x) < 2:
        return False
    terms = (x[1:] - x[:-1]) * (y[1:] + y[:-1])
    # reference sums left-to-right; small rings are exact either way, use
    # math.fsum-free sequential order via np.add.reduce (left assoc pairing
    # differences only matter at |area| ~ ulp, not observed on fixtures)
    area = float(np.add.reduce(terms)) / 2.0
    return area < 0.0


class _Accum:
    """Per-file accumulator for decoded records."""

    def __init__(self, file_type: int):
        self.file_type = file_type
        self.positions: list[int] = []   # 0-based position in the file
        self.rec_nums: list[int] = []
        self.xs: list[np.ndarray] = []
        self.ys: list[np.ndarray] = []
        self.zs: list[np.ndarray] = []
        self.ms: list[np.ndarray] = []
        self.m_present: list[bool] = []
        self.part_lens: list[np.ndarray] = []   # one array per shape
        self.part_roles: list[np.ndarray] = []
        self.bbox_xy: list[np.ndarray] = []
        self.z_range: list[np.ndarray] = []
        self.m_range: list[np.ndarray] = []
        self.is_null: list[bool] = []

    def add(self, rec_num, x, y, z, m, m_pres, part_lens, roles,
            bbox, zr, mr, null=False, position=None):
        self.positions.append(
            position if position is not None else len(self.rec_nums))
        self.rec_nums.append(rec_num)
        self.xs.append(x)
        self.ys.append(y)
        if z is not None:
            self.zs.append(z)
        if m is not None:
            self.ms.append(m)
        self.m_present.append(m_pres)
        self.part_lens.append(part_lens)
        self.part_roles.append(roles)
        self.bbox_xy.append(bbox)
        self.z_range.append(zr)
        self.m_range.append(mr)
        self.is_null.append(null)

    def finish(self) -> ShapeTable:
        t = self.file_type
        n = len(self.rec_nums)
        x = np.concatenate(self.xs) if self.xs else np.empty(0)
        y = np.concatenate(self.ys) if self.ys else np.empty(0)
        z = np.concatenate(self.zs) if has_z(t) and n else (
            np.empty(0) if has_z(t) else None)
        can_m = has_m(t) or t == MULTIPATCH  # multipatch carries m values on wire
        m = np.concatenate(self.ms) if can_m and n else (
            np.empty(0) if can_m else None)
        part_lens_flat = (np.concatenate(self.part_lens).astype(np.int64)
                          if n else np.empty(0, np.int64))
        part_offsets = np.zeros(len(part_lens_flat) + 1, np.int64)
        np.cumsum(part_lens_flat, out=part_offsets[1:])
        parts_per_shape = np.array([len(p) for p in self.part_lens], np.int64)
        spo = np.zeros(n + 1, np.int64)
        np.cumsum(parts_per_shape, out=spo[1:])
        roles = (np.concatenate(self.part_roles).astype(np.int8)
                 if n else np.empty(0, np.int8))
        rec = np.asarray(self.rec_nums, np.int32)
        return ShapeTable(
            shape_type=t,
            # geom_id is the 0-based POSITION in the file, not the wire
            # record number: the reference treats file order as
            # authoritative and renumbers ordinally on write
            # (src/writer.rs:123-126); real-world files exist with 0-based
            # or garbage record numbers (e.g. tests/data/pointz.shp).
            geom_id=np.asarray(self.positions, np.int64),
            record_number=rec,
            x=x, y=y, z=z, m=m,
            m_present=(np.asarray(self.m_present) if can_m else None),
            part_offsets=part_offsets,
            shape_part_offsets=spo,
            part_roles=roles,
            bbox_xy=(np.vstack(self.bbox_xy) if n else np.empty((0, 4))),
            z_range=(np.vstack(self.z_range) if has_z(t) and n else
                     (np.empty((0, 2)) if has_z(t) else None)),
            m_range=(np.vstack(self.m_range) if can_m and n else
                     (np.empty((0, 2)) if can_m else None)),
            is_null=np.asarray(self.is_null, bool),
        )


_E0 = np.empty(0)
_EI = np.empty(0, np.int64)
_NAN2 = np.full(2, np.nan)


def _decode_point_kind(acc: _Accum, t: int, content: bytes, rec_num: int):
    size = len(content)
    if t == POINT:
        if size < 16:
            raise InvalidShapeRecordSize()
        v = _f64(content, 0, 2)
        x, y = v[0], v[1]
        acc.add(rec_num, v[0:1].copy(), v[1:2].copy(), None, None, False,
                np.array([1]), np.array([-1], np.int8),
                np.array([x, y, x, y]), _NAN2, _NAN2)
    elif t == POINT_M:
        # src/record/point.rs:172-190 — m read raw, no NO_DATA clamp
        if size < 24:
            raise InvalidShapeRecordSize()
        v = _f64(content, 0, 3)
        x, y, mm = v[0], v[1], v[2]
        acc.add(rec_num, v[0:1].copy(), v[1:2].copy(), None, v[2:3].copy(),
                True, np.array([1]), np.array([-1], np.int8),
                np.array([x, y, x, y]), _NAN2, np.array([mm, mm]))
    else:  # POINT_Z: 3-or-4 doubles (src/record/point.rs:324-344)
        if size >= 32:
            v = _f64(content, 0, 4)
            mm, m_pres = v[3], True
        elif size >= 24:
            v3 = _f64(content, 0, 3)
            v = np.array([v3[0], v3[1], v3[2], NO_DATA])
            mm, m_pres = NO_DATA, False
        else:
            raise InvalidShapeRecordSize()
        x, y = v[0], v[1]
        acc.add(rec_num, v[0:1].copy(), v[1:2].copy(), v[2:3].copy(),
                v[3:4].copy(), m_pres, np.array([1]),
                np.array([-1], np.int8), np.array([x, y, x, y]),
                np.array([v[2], v[2]]), np.array([mm, mm]))


def _decode_multipoint_kind(acc: _Accum, t: int, content: bytes, rec_num: int):
    size = len(content)
    bbox = _f64(content, 0, 4).copy()
    n = _UI32.unpack_from(content, 32)[0]
    base = 36 + 16 * n
    off = 36
    if t == MULTIPOINT:
        if size < base:
            raise InvalidShapeRecordSize()
        xy = _f64(content, off, 2 * n).reshape(n, 2)
        acc.add(rec_num, xy[:, 0].copy(), xy[:, 1].copy(), None, None, False,
                np.array([n]), np.array([-1], np.int8), bbox, _NAN2, _NAN2)
        return
    if t == MULTIPOINT_M:
        size_with_m = base + 16 + 8 * n
        m_pres = size >= size_with_m
        if size < (size_with_m if m_pres else base):
            raise InvalidShapeRecordSize()
        xy = _f64(content, off, 2 * n).reshape(n, 2)
        off += 16 * n
        if m_pres:
            mr = _f64(content, off, 2).copy()
            mvals = np.maximum(_f64(content, off + 16, n), NO_DATA)
        else:
            # bbox m-range stays PointM::default().m == NO_DATA
            mr = np.full(2, NO_DATA)
            mvals = np.full(n, NO_DATA)
        acc.add(rec_num, xy[:, 0].copy(), xy[:, 1].copy(), None, mvals, m_pres,
                np.array([n]), np.array([-1], np.int8), bbox, _NAN2, mr)
        return
    # MULTIPOINT_Z (src/record/multipoint.rs:445-481)
    size_without_m = base + 16 + 8 * n
    size_with_m = size_without_m + 16 + 8 * n
    m_pres = size >= size_with_m
    if size < (size_with_m if m_pres else size_without_m):
        raise InvalidShapeRecordSize()
    xy = _f64(content, off, 2 * n).reshape(n, 2)
    off += 16 * n
    zr = _f64(content, off, 2).copy()
    zvals = _f64(content, off + 16, n).copy()
    off += 16 + 8 * n
    if m_pres:
        mr = _f64(content, off, 2).copy()
        mvals = np.maximum(_f64(content, off + 16, n), NO_DATA)
    else:
        mr = np.full(2, NO_DATA)
        mvals = np.full(n, NO_DATA)
    acc.add(rec_num, xy[:, 0].copy(), xy[:, 1].copy(), zvals, mvals, m_pres,
            np.array([n]), np.array([-1], np.int8), bbox, zr, mr)


def _decode_poly_kind(acc: _Accum, t: int, content: bytes, rec_num: int):
    """Polyline/Polygon {,M,Z} and Multipatch.

    MultiPartShapeReader semantics (src/record/io.rs:189-252): bbox, num_parts,
    num_points, parts offsets; per-part point counts from consecutive offsets
    (last part ends at num_points, src/record/io.rs:144-187).
    """
    size = len(content)
    bbox = _f64(content, 0, 4).copy()
    num_parts, num_points = _U2I32.unpack_from(content, 32)
    parts = _i32(content, 40, num_parts).astype(np.int64)
    off = 40 + 4 * num_parts

    base = 40 + 4 * num_parts + 16 * num_points  # Polyline::size_of_record
    is_patch = t == MULTIPATCH
    if is_patch:
        patch_types = _i32(content, off, num_parts).astype(np.int8)
        if np.any((patch_types < 0) | (patch_types > 5)):
            bad = patch_types[(patch_types < 0) | (patch_types > 5)][0]
            raise InvalidShapeType(f"invalid patch type {bad}")
        off += 4 * num_parts
        base += 4 * num_parts  # parts-type array (multipatch.rs:204-220)

    with_z = has_z(t) or is_patch
    with_m_possible = has_m(t) or is_patch

    size_no_m = base + ((16 + 8 * num_points) if with_z else 0)
    size_with_m = size_no_m + 16 + 8 * num_points
    if with_m_possible:
        m_pres = size >= size_with_m
        expected = size_with_m if m_pres else size_no_m
    else:
        m_pres = False
        expected = size_no_m
    if size < expected:
        raise InvalidShapeRecordSize()

    # per-part lengths; mirror PartIndexIter (end of last part = num_points)
    part_lens = np.empty(num_parts, np.int64)
    np.subtract(parts[1:], parts[:-1], out=part_lens[:-1])
    if num_parts:
        part_lens[-1] = num_points - parts[-1]
    if num_parts and int(part_lens.min()) < 0:
        raise ShapefileError("non-monotonic parts array")
    total = int(part_lens.sum())

    xy = _f64(content, off, 2 * total).reshape(total, 2)
    off += 16 * total
    if with_z:
        zr = _f64(content, off, 2).copy()
        zvals = _f64(content, off + 16, total).copy()
        off += 16 + 8 * total
    else:
        zr, zvals = _NAN2, None
    if m_pres:
        mr = _f64(content, off, 2).copy()
        mvals = np.maximum(_f64(content, off + 16, total), NO_DATA)
    elif with_m_possible:
        mr = np.full(2, NO_DATA)
        mvals = np.full(total, NO_DATA)
    else:
        mr, mvals = _NAN2, None

    if is_patch:
        roles = patch_types
    elif t in _POLYGON_KIND:
        # classify every ring by winding in one vectorized pass
        # (src/record/polygon.rs:366-377): shoelace terms over consecutive
        # pairs, per-ring sums via reduceat, minus the spurious
        # ring-boundary-crossing term per non-final ring
        if num_parts == 1 or (num_parts and int(part_lens.min()) < 2):
            # degenerate (<2-point) rings: use the per-ring path, whose
            # empty-window behavior matches the reference (area 0 -> Outer)
            roles = np.empty(num_parts, np.int8)
            pstart = 0
            for i, ln in enumerate(part_lens):
                roles[i] = 1 if ring_winding_is_inner(
                    xy[pstart:pstart + ln, 0],
                    xy[pstart:pstart + ln, 1]) else 0
                pstart += int(ln)
        else:
            d = (xy[1:, 0] - xy[:-1, 0]) * (xy[1:, 1] + xy[:-1, 1])
            starts = np.zeros(num_parts, np.int64)
            np.cumsum(part_lens[:-1], out=starts[1:])
            sums = np.add.reduceat(d, starts)
            ends = starts[1:]          # global index of each next-ring start
            sums[:-1] -= d[ends - 1]   # drop the cross-boundary pair term
            roles = (sums < 0.0).astype(np.int8)
    else:
        roles = np.full(num_parts, -1, np.int8)

    acc.add(rec_num, xy[:, 0].copy(), xy[:, 1].copy(), zvals, mvals, m_pres,
            part_lens, roles, bbox, zr, mr)


def decode_records(buf: bytes, header: ShpHeader,
                   shx: Optional[np.ndarray] = None,
                   start_record: int = 0,
                   end_record: Optional[int] = None,
                   buf_base: int = 0) -> ShapeTable:
    """Decode records [start_record, end_record) of a .shp byte buffer.

    With a .shx table, records are located by its offsets (supports padded /
    non-contiguous layouts, src/reader.rs:134-145); otherwise a sequential
    walk advances by each record's declared size (src/reader.rs:146-152).

    `buf_base`: file byte offset where `buf` begins — lets a split-planned
    ReadTask hand in ONLY its record range (shx offsets stay absolute) so N
    tasks never re-read the whole file N times. Requires shx.
    """
    t = header.shape_type
    acc = _Accum(t)
    end_of_data = min(len(buf) + buf_base, header.file_length * 2) - buf_base

    if shx is not None:
        entries = shx[start_record:end_record]
        positions = (entries[:, 0] * 2 - buf_base).tolist()
    elif buf_base:
        raise ValueError("buf_base requires a .shx offset table")
    else:
        positions = None

    def decode_one(pos: int, position: int) -> int:
        """Returns bytes consumed (header+payload) for the sequential walk."""
        rec_num, rec_size = _UBE2I32.unpack_from(buf, pos)
        payload = buf[pos + 8: pos + 8 + rec_size * 2]
        rtype = _UI32.unpack_from(payload, 0)[0]
        content = payload[4:]
        if rtype == NULL_SHAPE:
            acc.add(rec_num, _E0, _E0,
                    _E0 if (has_z(t) or t == MULTIPATCH) else None,
                    _E0 if (has_m(t) or t == MULTIPATCH) else None,
                    False, _EI, np.empty(0, np.int8),
                    np.full(4, np.nan), _NAN2, _NAN2, null=True)
            acc.positions[-1] = position
        elif rtype != t:
            raise MismatchShapeType(
                f"record {rec_num} has type {rtype}, file type {t}")
        elif t in _POINT_KIND:
            _decode_point_kind(acc, t, content, rec_num)
            acc.positions[-1] = position
        elif t in _MULTIPOINT_KIND:
            _decode_multipoint_kind(acc, t, content, rec_num)
            acc.positions[-1] = position
        else:
            _decode_poly_kind(acc, t, content, rec_num)
            acc.positions[-1] = position
        return 8 + rec_size * 2

    try:
        if positions is not None:
            for i, pos in enumerate(positions):
                decode_one(pos, start_record + i)
        else:
            pos = HEADER_SIZE
            idx = 0
            while pos + 8 <= end_of_data:
                consumed = decode_one(pos, idx) if idx >= start_record else (
                    8 + 2 * _UBE2I32.unpack_from(buf, pos)[1])
                pos += consumed
                idx += 1
                if end_record is not None and idx >= end_record:
                    break
    except (ValueError, struct.error) as e:
        # frombuffer/unpack ran past the end: record declared more bytes
        # than the file holds (truncation; the reference surfaces IoError)
        raise InvalidShapeRecordSize(f"truncated record: {e}") from e
    return acc.finish()


def read_shp_bytes(buf: bytes, shx_buf: Optional[bytes] = None) -> tuple[ShpHeader, ShapeTable]:
    header = read_header(buf)
    shx = read_shx(shx_buf) if shx_buf is not None else None
    return header, decode_records(buf, header, shx=shx)


def read_shp(path: str) -> tuple[ShpHeader, ShapeTable]:
    """Read a .shp (with optional sibling .shx) from disk.

    Mirrors Reader::from_path's sibling sniffing for the index file
    (src/reader.rs:649-692; the .shx is optional, no error if absent).
    """
    with open(path, "rb") as f:
        buf = f.read()
    shx_path = os.path.splitext(path)[0] + ".shx"
    shx_buf = None
    if os.path.exists(shx_path):
        with open(shx_path, "rb") as f:
            shx_buf = f.read()
    return read_shp_bytes(buf, shx_buf)
