"""Multipatch -> polygon grouping (reference TryFrom<Multipatch> for
MultiPolygon, src/record/multipatch.rs:358-402) and its PIP-join use."""

import numpy as np
import pytest

from shapefile_rs_ray.geometry import shp
from shapefile_rs_ray.geometry.rings import (FIRST_RING, INNER_RING,
                                             OUTER_RING, RING,
                                             TRIANGLE_STRIP,
                                             OrphanedInnerRing,
                                             UnsupportedConversion,
                                             group_multipatch_rings)
from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR as D


def _mp_table(shapes):
    """shapes: list of list[(role, (k,2) ring points)] -> Multipatch table."""
    xs, ys, roles, part_lens, parts_per, bboxes = [], [], [], [], [], []
    for parts in shapes:
        n = 0
        for role, pts in parts:
            pts = np.asarray(pts, np.float64)
            xs.append(pts[:, 0])
            ys.append(pts[:, 1])
            roles.append(role)
            part_lens.append(len(pts))
            n += len(pts)
        parts_per.append(len(parts))
        allx = np.concatenate(xs[-len(parts):])
        ally = np.concatenate(ys[-len(parts):])
        bboxes.append([allx.min(), ally.min(), allx.max(), ally.max()])
    nsh = len(shapes)
    po = np.zeros(len(part_lens) + 1, np.int64)
    np.cumsum(part_lens, out=po[1:])
    spo = np.zeros(nsh + 1, np.int64)
    np.cumsum(parts_per, out=spo[1:])
    tot = int(po[-1])
    return shp.ShapeTable(
        shape_type=shp.MULTIPATCH,
        geom_id=np.arange(nsh, dtype=np.int64),
        record_number=np.arange(1, nsh + 1, dtype=np.int32),
        x=np.concatenate(xs), y=np.concatenate(ys),
        z=np.zeros(tot), m=np.full(tot, shp.NO_DATA),
        m_present=np.zeros(nsh, bool),
        part_offsets=po, shape_part_offsets=spo,
        part_roles=np.asarray(roles, np.int8),
        bbox_xy=np.asarray(bboxes, np.float64),
        z_range=np.zeros((nsh, 2)), m_range=np.zeros((nsh, 2)),
        is_null=np.zeros(nsh, bool),
    )


SQ = [(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)]          # outer 10x10
HOLE = [(4, 4), (4, 6), (6, 6), (6, 4), (4, 4)]            # hole 2x2
SQ2 = [(20, 0), (30, 0), (30, 10), (20, 10), (20, 0)]      # second outer


def test_outer_inner_grouping():
    t = _mp_table([[(OUTER_RING, SQ), (INNER_RING, HOLE), (OUTER_RING, SQ2)]])
    polys = group_multipatch_rings(t)
    assert len(polys) == 2
    assert polys[0].poly_idx == 0 and len(polys[0].holes) == 1
    assert polys[1].poly_idx == 1 and len(polys[1].holes) == 0


def test_first_ring_then_rings():
    """FirstRing starts the polygon, following Rings are its holes."""
    t = _mp_table([[(FIRST_RING, SQ), (RING, HOLE)]])
    polys = group_multipatch_rings(t)
    assert len(polys) == 1
    assert len(polys[0].holes) == 1


def test_orphaned_ring_raises_strict_and_skips_lenient():
    t = _mp_table([[(RING, HOLE)]])
    with pytest.raises(OrphanedInnerRing):
        group_multipatch_rings(t, strict=True)
    assert group_multipatch_rings(t, strict=False) == []


def test_strip_fan_unconvertible():
    """The reference fixture multipatch.shp holds one TriangleStrip +
    TriangleFan shape (tests/read_tests.rs:496-615) -> UnsupportedConversion
    strict, skipped lenient."""
    _, t = shp.read_shp(f"{D}/multipatch.shp")
    assert t.shape_type == shp.MULTIPATCH
    assert int(t.part_roles[0]) == TRIANGLE_STRIP
    with pytest.raises(UnsupportedConversion):
        group_multipatch_rings(t, strict=True)
    assert group_multipatch_rings(t, strict=False) == []
    # lenient mixed corpus: the unconvertible shape drops, others survive
    mixed = _mp_table([[(TRIANGLE_STRIP, SQ)], [(OUTER_RING, SQ2)]])
    polys = group_multipatch_rings(mixed, strict=False)
    assert len(polys) == 1 and polys[0].geom_id == 1


def test_open_rings_are_closed():
    t = _mp_table([[(OUTER_RING, SQ[:-1])]])   # open on the wire
    (p,) = group_multipatch_rings(t)
    assert np.array_equal(p.outer[0], p.outer[-1])


def test_pip_over_multipatch_polygons():
    """Grouped multipatch polygons drive the same even-odd PIP index as
    polygon files — holes excluded, second outer included."""
    from shapefile_rs_ray.geometry.pip import PIPIndex
    t = _mp_table([[(OUTER_RING, SQ), (INNER_RING, HOLE), (OUTER_RING, SQ2)]])
    idx = PIPIndex(group_multipatch_rings(t))
    lon = np.array([5.0, 5.0, 25.0, 15.0])   # in, in-hole, in-2nd, outside
    lat = np.array([2.0, 5.0, 5.0, 5.0])
    pt, poly = idx.query(lon, lat)
    got = set(zip(pt.tolist(), poly.tolist()))
    assert got == {(0, 0), (2, 1)}


def test_load_polygons_dispatches_multipatch(tmp_path):
    """load_polygons routes MULTIPATCH files through the patch grouping:
    the strips/fans fixture yields no polygons (lenient default) instead of
    silently misgrouping patch codes as polygon roles."""
    from shapefile_rs_ray.stages.pip_join import load_polygons
    assert load_polygons(f"{D}/multipatch.shp") == []
    with pytest.raises(UnsupportedConversion):
        load_polygons(f"{D}/multipatch.shp", strict=True)
