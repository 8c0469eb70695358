"""Golden-value decode tests.

Expected values are transcribed from the reference's own test assertions
(tests/read_tests.rs — the read_test! corpus), NOT recomputed: our decoder
must reproduce them to the f64 bit.
"""

import numpy as np
import pytest

from shapefile_rs_ray.geometry import shp
from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR as D

NO_DATA = shp.NO_DATA


def test_no_data_constant():
    # src/record/mod.rs:29 — NO_DATA = -10e38 (i.e. -1e39)
    assert NO_DATA == -1e39


def test_point():
    # tests/read_tests.rs:186-206
    h, st = shp.read_shp(f"{D}/point.shp")
    assert h.shape_type == shp.POINT
    assert h.file_length == 64
    assert st.num_shapes == 1
    assert st.x[0] == 122.0 and st.y[0] == 37.0
    assert st.geom_id[0] == 0 and st.record_number[0] == 1


def test_pointm():
    # tests/read_tests.rs:208-255
    h, st = shp.read_shp(f"{D}/pointm.shp")
    assert h.shape_type == shp.POINT_M
    assert st.num_shapes == 2
    np.testing.assert_array_equal(
        st.x, [160477.9000324604, 160467.63787299366])
    np.testing.assert_array_equal(
        st.y, [5403959.561417906, 5403971.985031904])
    np.testing.assert_array_equal(st.m, [0.0, 0.0])


def test_pointz():
    # tests/read_tests.rs:257-309
    h, st = shp.read_shp(f"{D}/pointz.shp")
    assert h.shape_type == shp.POINT_Z
    np.testing.assert_array_equal(
        st.x, [1422464.3681007193, 1422459.0908050265])
    np.testing.assert_array_equal(
        st.y, [4188962.3364355816, 4188942.211755641])
    np.testing.assert_array_equal(
        st.z, [72.40956470558095, 72.58286959604922])
    np.testing.assert_array_equal(st.m, [NO_DATA, NO_DATA])


def test_line():
    # tests/testfiles.rs:27-46, tests/read_tests.rs:15-28
    h, st = shp.read_shp(f"{D}/line.shp")
    assert h.shape_type == shp.POLYLINE
    assert h.file_length == 136
    assert st.num_shapes == 1
    assert st.parts_of(0) == [(0, 5), (5, 7)]
    np.testing.assert_array_equal(st.x, [1, 5, 5, 3, 1, 3, 2])
    np.testing.assert_array_equal(st.y, [5, 5, 1, 3, 1, 2, 6])
    np.testing.assert_array_equal(st.bbox_xy[0], [1, 1, 5, 6])


def test_linem():
    # tests/read_tests.rs:30-92: part0 m = [0, NO_DATA, 3, NO_DATA, 0]
    h, st = shp.read_shp(f"{D}/linem.shp")
    assert h.shape_type == shp.POLYLINE_M
    parts = st.parts_of(0)
    s, e = parts[0]
    np.testing.assert_array_equal(st.m[s:e], [0.0, NO_DATA, 3.0, NO_DATA, 0.0])
    assert st.m_present[0]


def test_linez():
    # tests/read_tests.rs:94-184: 3 parts; part2 m=[0,3,2], parts 0-1 NO_DATA
    h, st = shp.read_shp(f"{D}/linez.shp")
    assert h.shape_type == shp.POLYLINE_Z
    parts = st.parts_of(0)
    assert len(parts) == 3
    s2, e2 = parts[2]
    np.testing.assert_array_equal(st.m[s2:e2], [0.0, 3.0, 2.0])
    s0, e0 = parts[0]
    assert np.all(st.m[s0:e0] == NO_DATA)


def test_polygon_ring_roles():
    # tests/read_tests.rs:311-347: rings classified Inner(5), Outer(3+close),
    # Inner(3+close) purely by winding on read
    h, st = shp.read_shp(f"{D}/polygon.shp")
    assert h.shape_type == shp.POLYGON
    np.testing.assert_array_equal(st.part_roles, [1, 0, 1])
    lens = [e - s for s, e in st.parts_of(0)]
    assert lens == [5, 3, 3]


def test_polygon_hole():
    # tests/write_tests.rs:57-117 golden: outer CW (+-120,+-60), inner CCW
    h, st = shp.read_shp(f"{D}/polygon_hole.shp")
    np.testing.assert_array_equal(st.part_roles, [0, 1])
    (s0, e0), (s1, e1) = st.parts_of(0)
    assert e0 - s0 == 5 and e1 - s1 == 5
    assert set(zip(np.abs(st.x[s0:e0]), np.abs(st.y[s0:e0]))) == {(120.0, 60.0)}
    assert set(zip(np.abs(st.x[s1:e1]), np.abs(st.y[s1:e1]))) == {(60.0, 30.0)}


def test_multipoint():
    # tests/read_tests.rs:417-434
    h, st = shp.read_shp(f"{D}/multipoint.shp")
    np.testing.assert_array_equal(st.x, [122.0, 124.0])
    np.testing.assert_array_equal(st.y, [37.0, 32.0])


def test_multipointz():
    # tests/read_tests.rs:436-494: m = -1e38 which is VALID (> NO_DATA = -1e39)
    h, st = shp.read_shp(f"{D}/multipointz.shp")
    assert st.num_points == 4
    np.testing.assert_array_equal(st.m, [-1e38] * 4)
    assert np.all(st.m > NO_DATA)  # not clamped away


def test_multipatch():
    # tests/read_tests.rs:496-615: TriangleStrip(10) + TriangleFan(6)
    h, st = shp.read_shp(f"{D}/multipatch.shp")
    assert h.shape_type == shp.MULTIPATCH
    np.testing.assert_array_equal(st.part_roles, [0, 1])  # strip=0, fan=1
    lens = [e - s for s, e in st.parts_of(0)]
    assert lens == [10, 6]
    assert set(np.unique(st.z)) == {0.0, 3.0, 5.0}
    assert np.all(st.m == NO_DATA)


def test_lakes_oversized_records():
    # tests/read_tests.rs:821-830: 1162 polygons, record headers over-state
    # sizes (padding must be skipped, not treated as error)
    h, st = shp.read_shp(f"{D}/ne_10m_lakes_north_america.shp")
    assert st.num_shapes == 1162


def test_shx_parsing():
    with open(f"{D}/point.shx", "rb") as f:
        idx = shp.read_shx(f.read())
    assert idx.shape == (1, 2)
    assert idx[0, 0] == 50  # first record right after the 100-byte header


def test_wrong_file_code():
    # src/header.rs:104-113
    import struct
    buf = struct.pack(">i", 42) + b"\x00" * 96
    with pytest.raises(shp.InvalidFileCode):
        shp.read_header(buf)


def test_undersized_record_rejected():
    # Error::InvalidShapeRecordSize pattern (src/record/point.rs:56-67)
    with open(f"{D}/point.shp", "rb") as f:
        buf = bytearray(f.read())
    # shrink declared record size below the 2-double payload
    import struct
    buf[104:108] = struct.pack(">i", 5)  # 10 bytes < 4 + 16
    with pytest.raises(shp.InvalidShapeRecordSize):
        shp.read_shp_bytes(bytes(buf))


def test_cp936_dbf_encoding():
    # tests/read_tests.rs:832-845: .cpg-declared GBK
    from shapefile_rs_ray.geometry import dbf
    t = dbf.read_dbf(f"{D}/file_cp936.dbf")
    assert t["TEST"][0].as_py() == "测试中文"


def test_truncated_file_raises_cleanly():
    with open(f"{D}/polygon.shp", "rb") as f:
        buf = f.read()
    with pytest.raises(shp.ShapefileError):
        shp.read_shp_bytes(buf[:-20])
