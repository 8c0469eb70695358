"""Point-in-polygon: vectorized even-odd ray casting with spatial prefilter.

Semantic spec is the reference's example join (geo::Contains over grouped
rings, examples/geotype-example/src/main.rs:16-38 with the Outer/Inner
grouping of src/record/polygon.rs:606-641): a point is inside a polygon iff
the even-odd crossing count over ALL rings of the polygon is odd.

The crossing test for edge (x1,y1)-(x2,y2) and point (px,py) is EXACTLY

    ((y1 > py) != (y2 > py)) and (px < (x2 - x1) * (py - y1) / (y2 - y1) + x1)

evaluated in f64 — the same expression (same operation order) is used in the
DuckDB oracle SQL so engine and oracle agree bit-for-bit. Points exactly on a
boundary edge follow this formula's convention (not geo::Contains's strict
interior test); synthesized inputs are in general position.

Index layout (built once per process in __init__, immutable):
- a uniform-grid candidate table (cell -> covering polygons): cell
  assignment + searchsorted + repeat, then a bbox check;
- per-polygon y-strip edge buckets: each polygon's edges are bucketed into
  horizontal strips (striding ~16 edges per strip), and the refine explodes
  only the edges of the point's strip. An edge is replicated into every
  strip its y-range overlaps, so the strip holds every edge that can
  satisfy the crossing predicate for points in it — crossing counts are
  unchanged, but a 2000-edge lake costs ~16 edge tests per point instead
  of 2000.

Two queries share the refine: `query` finds every (point, polygon) pair
from the grid, and `contains_pairs` tests given pairs ("is point i in
polygon p_i") behind the bbox check alone. A polygon's strips depend only
on that polygon, so one index over a whole set answers each pair exactly
as a one-polygon index would.
"""

from __future__ import annotations

import numpy as np

from .rings import SimplePolygon, edge_table

_GRID_ZOOM = 11           # candidate grid resolution (~0.18 deg cells)
_EDGES_PER_STRIP = 8


class PIPIndex:
    def __init__(self, polys: list[SimplePolygon],
                 grid_zoom: int = _GRID_ZOOM):
        self.geom_ids = np.array([p.geom_id for p in polys], np.int64)
        self.poly_idx = np.array([p.poly_idx for p in polys], np.int64)
        boxes = (np.vstack([p.bbox for p in polys])
                 if polys else np.empty((0, 4)))
        self.boxes = boxes
        self.grid_zoom = grid_zoom
        self._build_grid(boxes)
        self._build_strips(polys)

    # ---- candidate generation -------------------------------------------

    def _build_grid(self, boxes: np.ndarray):
        from ..functions.cells import cover_bboxes
        if len(boxes) == 0:
            self.grid_cells = np.empty(0, np.int64)
            self.grid_off = np.zeros(1, np.int64)
            self.grid_polys = np.empty(0, np.int64)
            return
        pidx, cc = cover_bboxes(boxes, self.grid_zoom)
        order = np.argsort(cc, kind="stable")
        cc, pidx = cc[order], pidx[order]
        self.grid_cells, starts = np.unique(cc, return_index=True)
        self.grid_off = np.append(starts, len(cc)).astype(np.int64)
        self.grid_polys = pidx

    def _candidates(self, px: np.ndarray, py: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(point_idx, poly_idx) candidate pairs via grid + bbox check."""
        from ..functions.cells import grid_cell
        cells = grid_cell(px, py, self.grid_zoom)
        pos = np.searchsorted(self.grid_cells, cells)
        pos = np.clip(pos, 0, len(self.grid_cells) - 1)
        valid = self.grid_cells[pos] == cells
        pts = np.nonzero(valid)[0]
        pos = pos[valid]
        counts = self.grid_off[pos + 1] - self.grid_off[pos]
        pair_pt = np.repeat(pts, counts)
        starts = np.repeat(self.grid_off[pos], counts)
        local = np.arange(len(starts)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        pair_poly = self.grid_polys[starts + local]
        keep = self._in_bbox(px[pair_pt], py[pair_pt], pair_poly)
        return pair_pt[keep], pair_poly[keep]

    def _in_bbox(self, x: np.ndarray, y: np.ndarray,
                 poly: np.ndarray) -> np.ndarray:
        bb = self.boxes[poly]
        return ((x >= bb[:, 0]) & (x <= bb[:, 2]) &
                (y >= bb[:, 1]) & (y <= bb[:, 3]))

    # ---- refine structure ------------------------------------------------

    def _build_strips(self, polys: list[SimplePolygon]):
        et = edge_table(polys)
        ep = et["poly_id"]
        order = np.argsort(ep, kind="stable")
        ex1, ey1 = et["x1"][order], et["y1"][order]
        ex2, ey2 = et["x2"][order], et["y2"][order]
        ep = ep[order]
        n_polys = len(polys)
        edge_off = np.searchsorted(ep, np.arange(n_polys + 1))

        # per-poly strip counts and y geometry
        n_edges = edge_off[1:] - edge_off[:-1]
        k = np.maximum(1, n_edges // _EDGES_PER_STRIP).astype(np.int64)
        ymin = np.array([p.bbox[1] for p in polys]) if polys else np.empty(0)
        ymax = np.array([p.bbox[3] for p in polys]) if polys else np.empty(0)
        span = np.maximum(ymax - ymin, 1e-300)
        self.strip_k = k
        self.strip_ymin = ymin
        self.strip_inv_h = k / span          # strips per unit y
        self.strip_base = np.append(0, np.cumsum(k)).astype(np.int64)
        n_strips = int(self.strip_base[-1])

        # replicate each edge into every strip its y-range overlaps
        if len(ep) == 0:
            self.sx1 = self.sy1 = self.sx2 = self.sy2 = np.empty(0)
            self.strip_off = np.zeros(n_strips + 1, np.int64)
            return
        e_ymin = np.minimum(ey1, ey2)
        e_ymax = np.maximum(ey1, ey2)
        kp = k[ep]
        inv = self.strip_inv_h[ep]
        lo = np.clip(((e_ymin - ymin[ep]) * inv).astype(np.int64), 0, kp - 1)
        hi = np.clip(((e_ymax - ymin[ep]) * inv).astype(np.int64), 0, kp - 1)
        counts = hi - lo + 1
        rep_edge = np.repeat(np.arange(len(ep)), counts)
        local = np.arange(len(rep_edge)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        strip_id = self.strip_base[ep[rep_edge]] + lo[rep_edge] + local
        order2 = np.argsort(strip_id, kind="stable")
        rep_edge = rep_edge[order2]
        strip_id = strip_id[order2]
        self.sx1 = np.ascontiguousarray(ex1[rep_edge])
        self.sy1 = np.ascontiguousarray(ey1[rep_edge])
        self.sx2 = np.ascontiguousarray(ex2[rep_edge])
        self.sy2 = np.ascontiguousarray(ey2[rep_edge])
        self.strip_off = np.searchsorted(
            strip_id, np.arange(n_strips + 1)).astype(np.int64)

    # ---- queries ---------------------------------------------------------

    def query(self, px: np.ndarray, py: np.ndarray,
              pair_chunk: int = 8_000_000) -> tuple[np.ndarray, np.ndarray]:
        """Return (point_idx, poly_idx) pairs with the point inside
        (even-odd) the simple polygon: grid candidates, then `_refine`."""
        px = np.ascontiguousarray(px, np.float64)
        py = np.ascontiguousarray(py, np.float64)
        cand_pt, cand_poly = self._candidates(px, py)
        inside = self._refine(px, py, cand_pt, cand_poly, pair_chunk)
        return cand_pt[inside], cand_poly[inside]

    def contains_pairs(self, px: np.ndarray, py: np.ndarray,
                       poly: np.ndarray) -> np.ndarray:
        """Is point i inside polygon poly[i] (an index into this index's
        polygons)? A bool per point: the bbox check, then `_refine`."""
        px = np.ascontiguousarray(px, np.float64)
        py = np.ascontiguousarray(py, np.float64)
        poly = np.asarray(poly, np.int64)
        cand = np.nonzero(self._in_bbox(px, py, poly))[0]
        out = np.zeros(len(px), bool)
        out[cand] = self._refine(px, py, cand, poly[cand])
        return out

    def _refine(self, px: np.ndarray, py: np.ndarray, cand_pt: np.ndarray,
                cand_poly: np.ndarray, pair_chunk: int = 8_000_000
                ) -> np.ndarray:
        """Exact even-odd test of candidate pairs (point cand_pt[j] in
        polygon cand_poly[j]) -> bool per pair. Fully vectorized: y-strip
        edge explode (np.repeat) -> crossing predicate on flat arrays ->
        per-pair parity via np.add.reduceat, in chunks of ~`pair_chunk`
        edge tests."""
        inside = np.zeros(len(cand_pt), bool)
        if len(cand_pt) == 0:
            return inside
        # strip of each candidate pair
        strip = ((py[cand_pt] - self.strip_ymin[cand_poly])
                 * self.strip_inv_h[cand_poly]).astype(np.int64)
        strip = np.clip(strip, 0, self.strip_k[cand_poly] - 1)
        sid = self.strip_base[cand_poly] + strip
        n_edges = self.strip_off[sid + 1] - self.strip_off[sid]
        pairs = np.nonzero(n_edges > 0)[0]
        if len(pairs) == 0:
            return inside
        cand_pt, sid, n_edges = cand_pt[pairs], sid[pairs], n_edges[pairs]
        csum = np.cumsum(n_edges)
        start = 0
        base = 0
        while start < len(cand_pt):
            end = int(np.searchsorted(csum, base + pair_chunk, "right"))
            end = max(end, start + 1)
            blk_pt = cand_pt[start:end]
            blk_sid = sid[start:end]
            blk_ne = n_edges[start:end]
            total = int(blk_ne.sum())
            pair_idx_rep = np.repeat(
                np.cumsum(blk_ne) - blk_ne, blk_ne)
            local = np.arange(total) - pair_idx_rep
            eidx = np.repeat(self.strip_off[blk_sid], blk_ne) + local
            bx = np.repeat(px[blk_pt], blk_ne)
            by = np.repeat(py[blk_pt], blk_ne)
            y1 = self.sy1[eidx]
            y2 = self.sy2[eidx]
            cond = (y1 > by) != (y2 > by)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = ((self.sx2[eidx] - self.sx1[eidx]) * (by - y1)
                        / (y2 - y1) + self.sx1[eidx])
            crossing = cond & (bx < xint)
            bounds = np.append(0, np.cumsum(blk_ne)[:-1])
            crossings = np.add.reduceat(crossing, bounds)
            inside[pairs[start:end]] = (crossings & 1).astype(bool)
            base = int(csum[end - 1])
            start = end
        return inside


def brute_force_pip(px: np.ndarray, py: np.ndarray,
                    polys: list[SimplePolygon]) -> list[tuple[int, int]]:
    """O(points x polys) oracle (the reference example's nested loop,
    examples/geotype-example/src/main.rs:16-38) for tests."""
    out = []
    for j, sp in enumerate(polys):
        rings = [sp.outer, *sp.holes]
        for i in range(len(px)):
            crossings = 0
            for ring in rings:
                for (ax, ay), (bx2, by2) in zip(ring[:-1], ring[1:]):
                    if (ay > py[i]) != (by2 > py[i]):
                        xint = (bx2 - ax) * (py[i] - ay) / (by2 - ay) + ax
                        if px[i] < xint:
                            crossings += 1
            if crossings % 2 == 1:
                out.append((i, j))
    return out
