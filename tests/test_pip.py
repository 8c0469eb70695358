"""Point-in-polygon and ring grouping tests against brute-force
oracles (semantic spec: examples/geotype-example/src/main.rs:16-38)."""

import numpy as np
import pytest

from shapefile_rs_ray.functions.cells import cover_bboxes, grid_cell_bounds
from shapefile_rs_ray.geometry import pip, shp
from shapefile_rs_ray.geometry.pip import PIPIndex, brute_force_pip
from shapefile_rs_ray.geometry.rings import (OrphanedInnerRing,
                                             SimplePolygon, group_rings)
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


def _lakes():
    return group_rings(shp.read_shp(f"{D}/ne_10m_lakes_north_america.shp")[1])


def _bbox_points(polys, n, seed):
    """`n` seeded random points, each in a random polygon's bbox."""
    rng = np.random.default_rng(seed)
    boxes = np.vstack([p.bbox for p in polys])
    pick = rng.integers(0, len(polys), n)
    u, v = rng.uniform(size=n), rng.uniform(size=n)
    return (boxes[pick, 0] + u * (boxes[pick, 2] - boxes[pick, 0]),
            boxes[pick, 1] + v * (boxes[pick, 3] - boxes[pick, 1]))


def _probe_points(idx, polys, seed):
    """(px, py, pp) per polygon pp: random points in its bbox, every
    vertex, the label raster's cell corners and cell-edge midpoints, and
    the corners of the candidate grid cells over its bbox."""
    rng = np.random.default_rng(seed)
    px, py, pp = [], [], []
    for i, p in enumerate(polys):
        x0, y0, x1, y1 = p.bbox
        g = int(idx.lab_g[i])
        kx = x0 + np.arange(g + 1) * ((x1 - x0) / g)
        ky = y0 + np.arange(g + 1) * ((y1 - y0) / g)
        mx = x0 + (np.arange(g) + 0.5) * ((x1 - x0) / g)
        my = y0 + (np.arange(g) + 0.5) * ((y1 - y0) / g)
        _, cells = cover_bboxes(np.array([p.bbox]), idx.grid_zoom)
        cb = grid_cell_bounds(cells, idx.grid_zoom)
        verts = np.vstack([p.outer, *p.holes])
        sets = [(rng.uniform(x0, x1, 16), rng.uniform(y0, y1, 16)),
                (verts[:, 0], verts[:, 1])]
        for ax, ay in ((kx, ky), (mx, ky), (kx, my),
                       (np.unique(cb[:, [0, 2]]), np.unique(cb[:, [1, 3]]))):
            gx, gy = np.meshgrid(ax, ay)
            sets.append((gx.ravel(), gy.ravel()))
        xs = np.concatenate([a for a, _ in sets])
        px.append(xs)
        py.append(np.concatenate([b for _, b in sets]))
        pp.append(np.full(len(xs), i))
    return tuple(map(np.concatenate, (px, py, pp)))


def test_label_raster_is_exact_on_lakes():
    """`query` and `contains_pairs` equal the brute force on points where
    a wrong raster label would show: random points in each bbox, every
    vertex, the label raster's own cell corners and cell-edge midpoints,
    and the candidate grid's cell corners."""
    polys = _lakes()
    idx = PIPIndex(polys)
    px, py, pp = _probe_points(idx, polys, 11)

    got = idx.contains_pairs(px, py, pp)
    exp = np.zeros(len(px), bool)
    bounds = np.searchsorted(pp, np.arange(len(polys) + 1))
    for i, p in enumerate(polys):
        m = np.arange(bounds[i], bounds[i + 1])
        exp[m[[k for k, _ in brute_force_pip(px[m], py[m], [p])]]] = True
    assert np.array_equal(got, exp)
    assert 0.1 * len(px) < exp.sum() < 0.9 * len(px)

    # every polygon whose bbox holds a point is brute-forced for it
    pt, poly = idx.query(px, py)
    by_x = np.argsort(px, kind="stable")
    want = set()
    for j, p in enumerate(polys):
        x0, y0, x1, y1 = p.bbox
        m = by_x[np.searchsorted(px[by_x], x0, "left"):
                 np.searchsorted(px[by_x], x1, "right")]
        m = m[(py[m] >= y0) & (py[m] <= y1)]
        want.update((int(m[k]), j) for k, _ in
                    brute_force_pip(px[m], py[m], [p]))
    assert set(zip(pt.tolist(), poly.tolist())) == want
    assert len(want) == len(pt)
    # by point, then polygon: the order the join emits its rows in
    assert np.all(np.diff(pt * len(polys) + poly) > 0)


def test_open_ring_polygon_is_all_boundary():
    """An open ring breaks the parity argument behind the labels, so its
    polygon gets no labelled cell and every pair goes to the refine."""
    t = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    ring = np.column_stack([np.cos(t), np.sin(t)])     # not closed
    closed = np.vstack([ring, ring[:1]])
    polys = [SimplePolygon(0, 0, ring, []),
             SimplePolygon(1, 0, closed + 3.0, [])]
    idx = PIPIndex(polys)
    first = idx.labels[idx.lab_base[0]:idx.lab_base[1]]
    second = idx.labels[idx.lab_base[1]:idx.lab_base[2]]
    assert np.all(first == pip.BOUNDARY)
    assert np.any(second == pip.INSIDE) and np.any(second == pip.OUTSIDE)
    px, py = _bbox_points(polys, 2000, 3)
    pt, poly = idx.query(px, py)
    assert (set(zip(pt.tolist(), poly.tolist()))
            == set(brute_force_pip(px, py, polys)))


def test_label_raster_settles_most_pairs(monkeypatch):
    """The raster must settle pairs, not only stay exact (an all-BOUNDARY
    raster is exact too): at least half of the pairs that pass the bbox
    check skip `_refine` on seeded points over the lakes. And the build
    runs its centre tests in bounded calls: none explodes more than
    `_LABEL_CHUNK` edge tests (one cell alone excepted)."""
    polys = _lakes()
    calls = []
    refine = PIPIndex._refine

    def spy(self, px, py, cand_pt, cand_poly, *args):
        _, n_edges = self._strips(py, cand_pt, cand_poly)
        calls.append((len(cand_pt), int(n_edges.sum())))
        return refine(self, px, py, cand_pt, cand_poly, *args)

    monkeypatch.setattr(PIPIndex, "_refine", spy)
    idx = PIPIndex(polys)
    assert len(calls) > 1
    assert all(tests <= pip._LABEL_CHUNK or pairs == 1
               for pairs, tests in calls)

    calls.clear()
    px, py = _bbox_points(polys, 20_000, 7)
    cand_pt, cand_poly = idx._candidates(px, py)
    inside = idx.contains_pairs(px[cand_pt], py[cand_pt], cand_poly)
    bb = idx.boxes[cand_poly]
    x, y = px[cand_pt], py[cand_pt]
    n_bbox = int(((x >= bb[:, 0]) & (x <= bb[:, 2])
                  & (y >= bb[:, 1]) & (y <= bb[:, 3])).sum())
    refined = sum(pairs for pairs, _ in calls)
    assert inside.sum() > 0
    assert refined <= 0.5 * n_bbox, (refined, n_bbox)
