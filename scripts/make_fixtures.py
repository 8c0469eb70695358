"""Write the shapefile test fixtures under tests/data from the file specs.

    python scripts/make_fixtures.py [out_dir]      # default: tests/data

Every file is packed field by field with `struct`, following the ESRI
Shapefile Technical Description (July 1998) for .shp/.shx and the dBase III
layout for .dbf. The package's own writers (`geometry/shp_write.py`,
`geometry/dbf.write_dbf`) are never used, so the byte-identity tests compare
the writer's output with bytes built independently of it.

The small fixtures carry the values FIXTURES.md §A transcribes from the
reference's test assertions; FIXTURES.md says, per file, which values are
transcribed and which were chosen here. `ne_10m_lakes_north_america` is a
stand-in for the Natural Earth corpus of that name: 1162 seeded star-shaped
lakes (70% with one hole) from `perfbench/gen.py`'s generator, tiled over
`synth.LAKE_BOXES` so that generated pages land in lakes. Like the real
file, every record header over-states the record's size, the padding bytes
are present, and the .shx entries and the file length count them.

The output is a pure function of this script: a second run writes the same
bytes (tests/test_fixtures.py checks this against the checked-in files).
"""

from __future__ import annotations

import os
import struct
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)                  # run from anywhere, no install

import numpy as np                        # noqa: E402

from perfbench import gen                 # noqa: E402
from shapefile_rs_ray.functions import synth  # noqa: E402

NO_DATA = -10e38           # a measure at or below this is "no data"

POINT, POLYLINE, POLYGON, MULTIPOINT = 1, 3, 5, 8
POINT_Z, POLYLINE_Z, POLYGON_Z, MULTIPOINT_Z = 11, 13, 15, 18
POINT_M, POLYLINE_M, POLYGON_M = 21, 23, 25
MULTIPATCH = 31
TRIANGLE_STRIP, TRIANGLE_FAN = 0, 1

LAKES_SEED = 14
N_LAKES = 1162             # the Natural Earth corpus' polygon count
LAKE_TILES = 13            # 8 boxes x 13^2 tiles, N_LAKES of them kept


# --------------------------------------------------------------------------
# .shp / .shx
# --------------------------------------------------------------------------

class Shape:
    """One record: its content bytes (after the shape type) and the ranges
    that grow the file header's bounding box."""

    def __init__(self, content: bytes, bbox, zr=None, mr=None):
        self.content = content
        self.bbox, self.zr, self.mr = bbox, zr, mr


def _d(*vals) -> bytes:
    return struct.pack(f"<{len(vals)}d", *vals)


def _xy_bbox(pts):
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    return (min(xs), min(ys), max(xs), max(ys))


def _m_range(m):
    """Measures at or below NO_DATA are "no data" and do not count."""
    valid = [v for v in m if v > NO_DATA]
    return (min(valid), max(valid)) if valid else (NO_DATA, NO_DATA)


def point(x, y, z=None, m=None) -> Shape:
    vals = [x, y] + ([z] if z is not None else []) + \
        ([m] if m is not None else [])
    return Shape(_d(*vals), (x, y, x, y),
                 None if z is None else (z, z),
                 None if m is None else _m_range([m]))


def _zm(z, m):
    """The optional Z block (range, values) and M block (range, values)
    that follow the points, and the two ranges."""
    out, zr, mr = b"", None, None
    if z is not None:
        zr = (min(z), max(z))
        out += _d(*zr, *z)
    if m is not None:
        mr = _m_range(m)
        out += _d(*mr, *m)
    return out, zr, mr


def multipoint(pts, z=None, m=None) -> Shape:
    bbox = _xy_bbox(pts)
    zm, zr, mr = _zm(z, m)
    return Shape(_d(*bbox) + struct.pack("<i", len(pts))
                 + _d(*[c for p in pts for c in p]) + zm, bbox, zr, mr)


def multipart(parts, z=None, m=None, patch_types=None) -> Shape:
    """Polyline / Polygon / Multipatch content: bbox, part and point
    counts, part start indices, [patch types], points, [z], [m]. With
    `m=None` the optional M block is left out."""
    pts = [p for part in parts for p in part]
    bbox = _xy_bbox(pts)
    starts, n = [], 0
    for part in parts:
        starts.append(n)
        n += len(part)
    out = _d(*bbox) + struct.pack(f"<ii{len(parts)}i", len(parts), n, *starts)
    if patch_types is not None:
        out += struct.pack(f"<{len(parts)}i", *patch_types)
    zm, zr, mr = _zm(z, m)
    return Shape(out + _d(*[c for p in pts for c in p]) + zm, bbox, zr, mr)


def _header(shape_type: int, file_words: int, bbox8) -> bytes:
    return (struct.pack(">7i", 9994, 0, 0, 0, 0, 0, file_words)
            + struct.pack("<2i", 1000, shape_type) + _d(*bbox8))


def shapefile(shape_type: int, shapes, pads=None, rec_nums=None):
    """(.shp bytes, .shx bytes). `pads[i]` zero bytes follow record i's
    content and are counted in its header's content length; `rec_nums`
    overrides the 1-based record numbers."""
    n = len(shapes)
    pads = pads or [0] * n
    rec_nums = rec_nums or list(range(1, n + 1))
    x0 = min(s.bbox[0] for s in shapes)
    y0 = min(s.bbox[1] for s in shapes)
    x1 = max(s.bbox[2] for s in shapes)
    y1 = max(s.bbox[3] for s in shapes)
    zs = [v for s in shapes if s.zr for v in s.zr]
    ms = [v for s in shapes if s.mr for v in s.mr]
    bbox8 = (x0, y0, x1, y1, min(zs, default=0.0), max(zs, default=0.0),
             min(ms, default=0.0), max(ms, default=0.0))
    records, index, offset = [], [], 50       # offsets in 16-bit words
    for s, pad, num in zip(shapes, pads, rec_nums):
        words = (4 + len(s.content) + pad) // 2
        records.append(struct.pack(">2i", num, words)
                       + struct.pack("<i", shape_type) + s.content
                       + b"\0" * pad)
        index.append(struct.pack(">2i", offset, words))
        offset += 4 + words
    shp = _header(shape_type, offset, bbox8) + b"".join(records)
    shx = _header(shape_type, 50 + 4 * n, bbox8) + b"".join(index)
    return shp, shx


# --------------------------------------------------------------------------
# .dbf (dBase III)
# --------------------------------------------------------------------------

def dbf(fields, rows, encoding: str = "ascii") -> bytes:
    """`fields`: (name, type, length, decimals) with type C or N; `rows`:
    tuples of Python values. C is left-justified and space-padded in
    `encoding`, N right-justified with `decimals` digits."""
    rec_len = 1 + sum(f[2] for f in fields)
    head_len = 32 + 32 * len(fields) + 1
    out = bytearray(struct.pack("<4BIHH20x", 0x03, 124, 1, 1, len(rows),
                                head_len, rec_len))
    for name, ftype, length, dec in fields:
        out += struct.pack("<11sc4xBB14x", name.encode("ascii"),
                           ftype.encode("ascii"), length, dec)
    out += b"\x0d"
    for row in rows:
        out += b" "
        for (_, ftype, length, dec), v in zip(fields, row):
            raw = (str(v).encode(encoding).ljust(length) if ftype == "C"
                   else f"{v:.{dec}f}".encode("ascii").rjust(length))
            if len(raw) != length:
                raise ValueError(f"{v!r} does not fit in {length} bytes")
            out += raw
    out += b"\x1a"
    return bytes(out)


# --------------------------------------------------------------------------
# the corpus
# --------------------------------------------------------------------------

LINE_PARTS = [[(1, 5), (5, 5), (5, 1), (3, 3), (1, 1)], [(3, 2), (2, 6)]]


def _square_ring(side: int):
    """Closed clockwise ring with one vertex per unit step of a side x side
    square's perimeter: 4 * side + 1 points."""
    up = [(0, j) for j in range(side)]
    right = [(i, side) for i in range(side)]
    down = [(side, side - j) for j in range(side)]
    left = [(side - i, 0) for i in range(side)]
    ring = up + right + down + left
    return [(float(x), float(y)) for x, y in ring + ring[:1]]


def small_fixtures() -> dict[str, bytes]:
    files: dict[str, bytes] = {}

    def put(name, shape_type, shapes, **kw):
        files[name + ".shp"], files[name + ".shx"] = shapefile(
            shape_type, shapes, **kw)

    put("point", POINT, [point(122.0, 37.0)])
    put("pointm", POINT_M, [
        point(160477.9000324604, 5403959.561417906, m=0.0),
        point(160467.63787299366, 5403971.985031904, m=0.0)])
    # single-point m is read raw, so NO_DATA is stored exactly; the
    # records are numbered from 0, as some real-world writers do
    put("pointz", POINT_Z, [
        point(1422464.3681007193, 4188962.3364355816, 72.40956470558095,
              NO_DATA),
        point(1422459.0908050265, 4188942.211755641, 72.58286959604922,
              NO_DATA)], rec_nums=[0, 1])
    put("line", POLYLINE, [multipart(LINE_PARTS)])
    # part 0's first no-data m lies below NO_DATA: the reader clamps it
    put("linem", POLYLINE_M, [multipart(
        LINE_PARTS, m=[0.0, -1e40, 3.0, NO_DATA, 0.0, 2.0, 5.0])])
    put("linez", POLYLINE_Z, [multipart(
        LINE_PARTS + [[(1, 1), (3, 3), (5, 5)]],
        z=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        m=[NO_DATA] * 7 + [0.0, 3.0, 2.0])])
    # Inner (closed, CCW), Outer (3 open points, CW), Inner (3 open
    # points, CCW): each open ring has the same winding sign with and
    # without its closing edge; bbox x 15..122, y 2..37
    put("polygon", POLYGON, [multipart([
        [(15, 2), (60, 2), (60, 20), (15, 20), (15, 2)],
        [(100, 20), (110, 37), (122, 20)],
        [(40, 30), (35, 37), (30, 30)]])])
    put("polygon_hole", POLYGON, [multipart([
        [(-120, 60), (120, 60), (120, -60), (-120, -60), (-120, 60)],
        [(-60, 30), (-60, -30), (60, -30), (60, 30), (-60, 30)]])])
    put("polygonm", POLYGON_M, [multipart(
        [[(1, 1), (1, 5), (5, 1), (1, 1)]], m=[0.0] * 4)])
    # one 73-point ring with z and m: file_length 1262 words
    ring = _square_ring(18)
    put("polygonz", POLYGON_Z, [multipart(
        [ring], z=[float(i % 10) for i in range(len(ring))],
        m=[float(i) for i in range(len(ring))])])
    put("multi_polygon", POLYGON, [
        multipart([[(0, 0), (0, 10), (10, 10), (10, 0), (0, 0)],
                   [(4, 4), (6, 4), (6, 6), (4, 6), (4, 4)],
                   [(20, 0), (20, 10), (30, 10), (30, 0), (20, 0)]]),
        multipart([[(40, 0), (40, 10), (50, 10), (50, 0), (40, 0)]])])
    put("multipoint", MULTIPOINT, [multipoint([(122.0, 37.0),
                                               (124.0, 32.0)])])
    put("multipointz", MULTIPOINT_Z, [multipoint(
        [(122.0, 37.0), (124.0, 32.0), (118.0, 30.0), (120.0, 35.0)],
        z=[10.0, 20.0, 30.0, 40.0], m=[-1e38] * 4)])
    # the walls of a 10 x 10 box as a strip (z 0 and 3), its roof as a
    # fan around a z=5 apex; no M block, so every m reads as NO_DATA
    corners = [(0, 0), (0, 10), (10, 10), (10, 0), (0, 0)]
    strip = [c for c in corners for _ in (0, 3)]
    fan = [(5, 5)] + corners
    put("multipatch", MULTIPATCH, [multipart(
        [strip, fan], z=[0.0, 3.0] * 5 + [5.0] + [3.0] * 5,
        patch_types=[TRIANGLE_STRIP, TRIANGLE_FAN])])
    files["multipatch.dbf"] = dbf([("name", "C", 10, 0)], [("box",)])
    put("file_cp936", POINT, [point(122.0, 37.0), point(116.4, 39.9),
                              point(121.5, 31.2)])
    files["file_cp936.dbf"] = dbf(
        [("TEST", "C", 20, 0)], [("测试中文",), ("北京",), ("上海",)],
        encoding="gbk")
    files["file_cp936.cpg"] = b"CP936"
    return files


def lakes_fixture() -> dict[str, bytes]:
    """The Natural Earth stand-in: N_LAKES polygons of 24-63 outer vertices,
    70% with an 8-23-vertex hole, each record followed by 2-8 padding
    bytes that its header counts."""
    rng = gen._rng(LAKES_SEED, gen._LAKES)
    cx, cy, hw, hh = gen._tiles(synth.LAKE_BOXES, LAKE_TILES)
    keep = np.sort(rng.choice(len(cx), N_LAKES, replace=False))
    cx, cy, hw, hh = cx[keep], cy[keep], hw[keep], hh[keep]
    n_hole, scale = gen._holes(rng, N_LAKES, 0.7, 8, 24)
    st = gen.polygon_table(rng, cx, cy, hw * 1.6, hh * 1.6,
                           rng.integers(24, 64, N_LAKES), n_hole, scale)
    po, spo = st.part_offsets, st.shape_part_offsets
    shapes = []
    for i in range(N_LAKES):
        shapes.append(multipart([
            list(zip(st.x[po[p]:po[p + 1]].tolist(),
                     st.y[po[p]:po[p + 1]].tolist()))
            for p in range(spo[i], spo[i + 1])]))
    stem = "ne_10m_lakes_north_america"
    shp, shx = shapefile(POLYGON, shapes,
                         pads=[2 * (1 + i % 4) for i in range(N_LAKES)])
    attrs = dbf([("id", "N", 10, 0), ("name", "C", 16, 0)],
                [(i, f"lake-{i:04d}") for i in range(N_LAKES)])
    return {stem + ".shp": shp, stem + ".shx": shx, stem + ".dbf": attrs}


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    files = {**small_fixtures(), **lakes_fixture()}
    for name, data in sorted(files.items()):
        with open(os.path.join(out_dir, name), "wb") as f:
            f.write(data)
    print(f"wrote {len(files)} files to {out_dir}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1
         else os.path.join(ROOT, "tests", "data"))
