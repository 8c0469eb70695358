"""Round-trip and byte-identical write tests (model: tests/write_tests.rs and
the read_write_read_test! macro, tests/read_tests.rs:627-653)."""

import glob
import os

import numpy as np
import pytest

from shapefile_rs_ray.geometry import shp
from shapefile_rs_ray.geometry.shp_write import write_shp
from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR as D

BYTE_GOLDENS = ["point", "line", "polygon_hole"]
SHP_FILES = sorted(glob.glob(f"{D}/*.shp"))


@pytest.mark.parametrize("name", BYTE_GOLDENS)
def test_byte_identical_write(name):
    """The same fixtures the reference byte-compares in
    tests/write_tests.rs:18-117."""
    h, st = shp.read_shp(f"{D}/{name}.shp")
    shp_b, shx_b = write_shp(st)
    with open(f"{D}/{name}.shp", "rb") as f:
        assert shp_b == f.read()
    with open(f"{D}/{name}.shx", "rb") as f:
        assert shx_b == f.read()


@pytest.mark.parametrize(
    "path", SHP_FILES, ids=[os.path.basename(p) for p in SHP_FILES])
def test_read_write_read(path):
    """write(read(f)) re-decodes to identical values, and the re-written
    file_length matches the byte count (read_write_read_test! semantics)."""
    h, st = shp.read_shp(path)
    b, bx = write_shp(st)
    h2, st2 = shp.read_shp_bytes(b, bx)
    assert h2.file_length * 2 == len(b)
    assert st2.num_shapes == st.num_shapes
    np.testing.assert_array_equal(st.x, st2.x)
    np.testing.assert_array_equal(st.y, st2.y)
    if st.z is not None:
        np.testing.assert_array_equal(st.z, st2.z)
    if st.m is not None:
        np.testing.assert_array_equal(st.m, st2.m)
    np.testing.assert_array_equal(st.part_offsets, st2.part_offsets)
    np.testing.assert_array_equal(st.part_roles, st2.part_roles)
    np.testing.assert_array_equal(st.bbox_xy, st2.bbox_xy)


def test_wrong_winding_reordered_on_construction():
    """tests/write_tests.rs:89-117: constructing a polygon whose declared
    Outer ring is wound CCW (and Inner wound CW) must reverse both, producing
    the same bytes as the correctly-wound golden."""
    from shapefile_rs_ray.geometry.rings import normalize_ring, bbox_from_rings

    # the exact wrong-order inputs of tests/write_tests.rs:91-107
    outer_ccw = np.array(
        [[-120.0, 60.0], [-120.0, -60.0], [120.0, -60.0], [120.0, 60.0],
         [-120.0, 60.0]])
    inner_cw = np.array(
        [[-60.0, 30.0], [60.0, 30.0], [60.0, -30.0], [-60.0, -30.0],
         [-60.0, 30.0]])
    outer = normalize_ring(outer_ccw, declared_inner=False)
    inner = normalize_ring(inner_cw, declared_inner=True)

    # assemble a 1-shape polygon ShapeTable
    rings = [outer, inner]
    xs = np.concatenate([r[:, 0] for r in rings])
    ys = np.concatenate([r[:, 1] for r in rings])
    part_offsets = np.array([0, len(outer), len(outer) + len(inner)], np.int64)
    st = shp.ShapeTable(
        shape_type=shp.POLYGON,
        geom_id=np.array([0], np.int64),
        record_number=np.array([1], np.int32),
        x=xs, y=ys, z=None, m=None, m_present=None,
        part_offsets=part_offsets,
        shape_part_offsets=np.array([0, 2], np.int64),
        part_roles=np.array([0, 1], np.int8),
        bbox_xy=bbox_from_rings(rings)[None, :],
        z_range=None, m_range=None,
        is_null=np.array([False]),
    )
    b, bx = write_shp(st)
    with open(f"{D}/polygon_hole.shp", "rb") as f:
        assert b == f.read()
    with open(f"{D}/polygon_hole.shx", "rb") as f:
        assert bx == f.read()


def test_ring_closing():
    from shapefile_rs_ray.geometry.rings import close_ring

    open_ring = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    closed = close_ring(open_ring)
    assert len(closed) == 4
    np.testing.assert_array_equal(closed[0], closed[-1])
    assert close_ring(closed) is closed  # already closed: untouched
