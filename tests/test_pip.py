"""Point-in-polygon and ring grouping tests against brute-force
oracles (semantic spec: examples/geotype-example/src/main.rs:16-38)."""

import numpy as np
import pytest

from shapefile_rs_ray.geometry import shp
from shapefile_rs_ray.geometry.pip import PIPIndex, brute_force_pip
from shapefile_rs_ray.geometry.rings import OrphanedInnerRing, group_rings
from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR as D


def test_group_rings_polygon_hole():
    h, st = shp.read_shp(f"{D}/polygon_hole.shp")
    polys = group_rings(st)
    assert len(polys) == 1
    assert len(polys[0].holes) == 1


def test_group_rings_orphaned_inner_strict():
    # polygon.shp starts with an Inner ring -> reference raises
    # OrphanedInnerRing on conversion (src/record/polygon.rs:606-641)
    h, st = shp.read_shp(f"{D}/polygon.shp")
    with pytest.raises(OrphanedInnerRing):
        group_rings(st, strict=True)
    polys = group_rings(st)  # lenient: orphan dropped
    assert all(p.poly_idx >= 0 for p in polys)


def test_group_rings_multi_outer():
    h, st = shp.read_shp(f"{D}/multi_polygon.shp")
    polys = group_rings(st)
    assert len(polys) >= 1
    assert len({(p.geom_id, p.poly_idx) for p in polys}) == len(polys)


def test_pip_hole_semantics():
    h, st = shp.read_shp(f"{D}/polygon_hole.shp")
    idx = PIPIndex(group_rings(st))
    px = np.array([0.0, 100.0, 150.0, -100.0, 0.0])
    py = np.array([0.0, 50.0, 0.0, -50.0, 45.0])
    pt, poly = idx.query(px, py)
    # inside hole (0,0) and outside (150,0) excluded; ring area hits included
    assert set(pt.tolist()) == {1, 3, 4}


def test_pip_matches_brute_force_on_lakes():
    h, st = shp.read_shp(f"{D}/ne_10m_lakes_north_america.shp")
    polys = group_rings(st)
    idx = PIPIndex(polys)
    rng = np.random.default_rng(7)
    # sample points inside random polygon bboxes so hits are dense
    boxes = np.vstack([p.bbox for p in polys])
    pick = rng.integers(0, len(polys), 400)
    u, v = rng.uniform(size=400), rng.uniform(size=400)
    px = boxes[pick, 0] + u * (boxes[pick, 2] - boxes[pick, 0])
    py = boxes[pick, 1] + v * (boxes[pick, 3] - boxes[pick, 1])
    pt, poly = idx.query(px, py)
    got = set(zip(pt.tolist(), poly.tolist()))
    exp = set(brute_force_pip(px, py, polys))
    assert got == exp
    assert len(exp) > 50  # non-trivial


def test_contains_pairs_equals_one_polygon_index():
    """One index over the whole set answers "is point i in polygon p_i"
    exactly as a one-polygon PIPIndex per polygon does: random points in
    each bbox, the bbox corners, every polygon vertex, and the corners
    of the index's own grid cells that touch the bbox."""
    from shapefile_rs_ray.functions.cells import (cover_bboxes,
                                                  grid_cell_bounds)
    h, st = shp.read_shp(f"{D}/ne_10m_lakes_north_america.shp")
    polys = group_rings(st)
    idx = PIPIndex(polys)
    rng = np.random.default_rng(5)
    px, py, pp = [], [], []
    for i, p in enumerate(polys):
        x0, y0, x1, y1 = p.bbox
        _, cells = cover_bboxes(np.array([p.bbox]), idx.grid_zoom)
        cb = grid_cell_bounds(cells, idx.grid_zoom)
        xs = np.concatenate([rng.uniform(x0, x1, 8), [x0, x1, x0, x1],
                             p.outer[:, 0], cb[:, 0], cb[:, 2]])
        ys = np.concatenate([rng.uniform(y0, y1, 8), [y0, y0, y1, y1],
                             p.outer[:, 1], cb[:, 1], cb[:, 3]])
        px.append(xs)
        py.append(ys)
        pp.append(np.full(len(xs), i))
    px, py, pp = map(np.concatenate, (px, py, pp))
    got = idx.contains_pairs(px, py, pp)
    exp = np.zeros(len(px), bool)
    for i, p in enumerate(polys):
        m = np.nonzero(pp == i)[0]
        inside, _ = PIPIndex([p]).query(px[m], py[m])
        exp[m[inside]] = True
    assert np.array_equal(got, exp)
    assert 1000 < exp.sum() < len(exp)
