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
  assignment + searchsorted + repeat. Its zoom follows the corpus: the
  smallest zoom at which the median polygon bbox spans >= 2 cells on its
  shorter side, clamped to [11, 15] (13 on the benchmark's ~1k lakes, 14
  on tests/data's): on the benchmark's lakes a page meets 2.4 grid
  candidates, against 6.7 at zoom 11;
- a label raster per polygon (after *Raster Intervals*, SIGMOD 2023): a
  G x G grid over its bbox, G = ceil(sqrt(edges)) clamped to [16, 64]
  (below 16, a small polygon's raster is mostly boundary). A cell is
  BOUNDARY if any edge bbox, widened by a float-safety margin, touches
  it; every other cell holds the parity of its centre, computed by
  `_refine` with the exact formula. The parity is the same at every
  point of such a cell: each edge lies wholly above, below, left or
  right of it, so only the right-hand edges can be crossed, and along a
  closed ring they form chains whose ends are vertices wholly above or
  below the cell, which fix the chain's crossing parity. So a pair in a
  labelled cell is settled by one lookup. A polygon with an open ring
  gets an all-BOUNDARY raster. On the lakes corpora 57-67% of the pairs
  that pass the bbox check are settled so;
- per-polygon y-strip edge buckets for the pairs that land on a
  BOUNDARY cell: each polygon's edges are bucketed into horizontal
  strips (~`_EDGES_PER_STRIP` edges per strip), and the refine explodes
  only the edges of the point's strip. An edge is replicated into every
  strip its y-range overlaps, so the strip holds every edge that can
  satisfy the crossing predicate for points in it — crossing counts are
  unchanged, but a 2000-edge lake costs ~11 edge tests per pair instead
  of 2000.

The raster costs about one centre test per cell at build: ~0.2 s
against ~0.1 s for the grid and strips alone, for ~1k lakes of ~250
edges on one core, paid once per process. The build labels runs of whole polygons of
~`_LABEL_CELLS` cells, with `_LABEL_CHUNK` edge tests per `_refine`
call, so its peak memory stays near that of the strips.

`query` finds every (point, polygon) pair from the grid, and
`contains_pairs` tests given pairs ("is point i in polygon p_i"); both
settle their pairs in `_resolve` (bbox check -> label lookup -> `_refine`
on BOUNDARY pairs). A polygon's raster and strips depend only on that
polygon, so one index over a whole set answers each pair exactly as a
one-polygon index would.
"""

from __future__ import annotations

import math

import numpy as np

from .rings import SimplePolygon, edge_table

_GRID_ZOOMS = (11, 15)    # candidate grid zoom range (~0.18 .. ~0.01 deg)
_EDGES_PER_STRIP = 8
_RASTER_SIDE = (16, 64)   # label raster side range
_MARGIN = 1e-6            # boundary widening, in label cells
_LABEL_CELLS = 1 << 12    # raster cells labelled per build step
_LABEL_CHUNK = 1 << 16    # edge tests per `_refine` call while labelling
OUTSIDE, INSIDE, BOUNDARY = 0, 1, 2


def _grid_zoom(boxes: np.ndarray) -> int:
    """Smallest zoom at which the median bbox spans >= 2 grid cells on its
    shorter side, clamped to `_GRID_ZOOMS`."""
    lo, hi = _GRID_ZOOMS
    if len(boxes) == 0:
        return lo
    side = np.median(np.minimum((boxes[:, 2] - boxes[:, 0]) / 360.0,
                                (boxes[:, 3] - boxes[:, 1]) / 180.0))
    if side <= 0:
        return hi
    return int(min(max(math.ceil(math.log2(2.0 / side)), lo), hi))


def _blocks(counts: np.ndarray, limit: int):
    """(start, end) runs of `counts`, each summing to <= `limit` (or one
    item alone)."""
    csum = np.cumsum(counts)
    start = base = 0
    while start < len(counts):
        end = max(int(np.searchsorted(csum, base + limit, "right")),
                  start + 1)
        yield start, end
        base = int(csum[end - 1])
        start = end


class PIPIndex:
    def __init__(self, polys: list[SimplePolygon]):
        self.geom_ids = np.array([p.geom_id for p in polys], np.int64)
        self.poly_idx = np.array([p.poly_idx for p in polys], np.int64)
        boxes = (np.vstack([p.bbox for p in polys])
                 if polys else np.empty((0, 4)))
        self.boxes = boxes
        self.grid_zoom = _grid_zoom(boxes)
        self._build_grid(boxes)
        et = edge_table(polys)
        order = np.argsort(et["poly_id"], kind="stable")
        edges = {k: v[order] for k, v in et.items()}
        self._build_strips(edges, len(polys))
        self._build_labels(polys, edges)

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
        """(point_idx, poly_idx) pairs of the grid cell each point is in,
        by point, then polygon; not yet bbox-checked."""
        from ..functions.cells import grid_cell
        if len(self.grid_cells) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
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
        return pair_pt, self.grid_polys[starts + local]

    # ---- refine structure ------------------------------------------------

    def _build_strips(self, edges: dict[str, np.ndarray], n_polys: int):
        ep = edges["poly_id"]
        ex1, ey1, ex2, ey2 = (edges[k] for k in ("x1", "y1", "x2", "y2"))
        edge_off = np.searchsorted(ep, np.arange(n_polys + 1))

        # per-poly strip counts and y geometry
        n_edges = edge_off[1:] - edge_off[:-1]
        k = np.maximum(1, n_edges // _EDGES_PER_STRIP).astype(np.int64)
        ymin, ymax = self.boxes[:, 1], self.boxes[:, 3]
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

    # ---- label raster ----------------------------------------------------

    def _build_labels(self, polys: list[SimplePolygon],
                      edges: dict[str, np.ndarray]):
        """Per-polygon G x G label raster over the bbox (module docstring),
        built over runs of whole polygons of ~`_LABEL_CELLS` cells so the
        build's temporaries stay bounded."""
        n_polys = len(polys)
        n_edges = np.bincount(edges["poly_id"], minlength=n_polys)
        g = np.clip(np.ceil(np.sqrt(n_edges)), *_RASTER_SIDE).astype(np.int64)
        x0, y0 = self.boxes[:, 0], self.boxes[:, 1]
        wx = (self.boxes[:, 2] - x0) / g
        wy = (self.boxes[:, 3] - y0) / g
        with np.errstate(divide="ignore"):
            self.lab_inv_x = np.where(wx > 0, 1.0 / wx, 0.0)
            self.lab_inv_y = np.where(wy > 0, 1.0 / wy, 0.0)
        self.lab_g = g
        self.lab_base = np.append(0, np.cumsum(g * g)).astype(np.int64)
        self.labels = np.zeros(int(self.lab_base[-1]), np.int8)
        edge_off = np.append(0, np.cumsum(n_edges))
        for a, b in _blocks(g * g, _LABEL_CELLS):
            e = slice(edge_off[a], edge_off[b])
            self._mark_boundary({k: v[e] for k, v in edges.items()}, wx, wy)
            for i in range(a, b):
                p = polys[i]
                if any(len(r) and not np.array_equal(r[0], r[-1])
                       for r in (p.outer, *p.holes)):
                    self.labels[self.lab_base[i]:self.lab_base[i + 1]] = \
                        BOUNDARY
            self._label_centres(a, b, wx, wy)

    def _mark_boundary(self, edges: dict[str, np.ndarray], wx: np.ndarray,
                       wy: np.ndarray):
        """BOUNDARY for every cell an edge bbox touches, widened by
        `_MARGIN` of a cell plus 64 ulps of its coordinates (which covers
        the rounding of the crossing formula and of the cell lookup)."""
        ep = edges["poly_id"]
        xs = (edges["x1"], edges["x2"])
        ys = (edges["y1"], edges["y2"])
        ulp = 64 * np.spacing(np.maximum.reduce(
            [np.abs(c) for c in (*xs, *ys)]
            + [np.abs(self.boxes[ep]).max(axis=1)]))
        gp = self.lab_g[ep]

        def cells(lo, hi, o, w, inv):
            pad = _MARGIN * w + ulp
            a = np.floor((lo - pad - o) * inv)
            b = np.floor((hi + pad - o) * inv)
            return (np.clip(a, 0, gp - 1).astype(np.int64),
                    np.clip(b, 0, gp - 1).astype(np.int64))

        cx0, cx1 = cells(np.minimum(*xs), np.maximum(*xs),
                         self.boxes[ep, 0], wx[ep], self.lab_inv_x[ep])
        cy0, cy1 = cells(np.minimum(*ys), np.maximum(*ys),
                         self.boxes[ep, 1], wy[ep], self.lab_inv_y[ep])
        nx = cx1 - cx0 + 1
        counts = nx * (cy1 - cy0 + 1)
        rep = np.repeat(np.arange(len(ep)), counts)
        local = np.arange(len(rep)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
        nxr = nx[rep]
        self.labels[self.lab_base[ep[rep]]
                    + (cy0[rep] + local // nxr) * gp[rep]
                    + cx0[rep] + local % nxr] = BOUNDARY

    def _label_centres(self, a: int, b: int, wx: np.ndarray,
                       wy: np.ndarray):
        """Label every non-BOUNDARY cell of polygons [a, b) with the
        parity of its centre, `_LABEL_CHUNK` edge tests per `_refine`
        call."""
        lo = int(self.lab_base[a])
        free = lo + np.nonzero(
            self.labels[lo:self.lab_base[b]] != BOUNDARY)[0]
        poly = np.searchsorted(self.lab_base, free, "right") - 1
        g = self.lab_g[poly]
        local = free - self.lab_base[poly]
        cx = self.boxes[poly, 0] + (local % g + 0.5) * wx[poly]
        cy = self.boxes[poly, 1] + (local // g + 0.5) * wy[poly]
        _, ne = self._strips(cy, np.arange(len(free)), poly)
        for s, e in _blocks(ne, _LABEL_CHUNK):
            self.labels[free[s:e]] = self._refine(
                cx[s:e], cy[s:e], np.arange(e - s), poly[s:e])

    # ---- queries ---------------------------------------------------------

    def query(self, px: np.ndarray, py: np.ndarray,
              pair_chunk: int = 8_000_000) -> tuple[np.ndarray, np.ndarray]:
        """Return (point_idx, poly_idx) pairs with the point inside
        (even-odd) the simple polygon: grid candidates, then `_resolve`."""
        px = np.ascontiguousarray(px, np.float64)
        py = np.ascontiguousarray(py, np.float64)
        cand_pt, cand_poly = self._candidates(px, py)
        inside = self._resolve(px, py, cand_pt, cand_poly, pair_chunk)
        return cand_pt[inside], cand_poly[inside]

    def contains_pairs(self, px: np.ndarray, py: np.ndarray,
                       poly: np.ndarray) -> np.ndarray:
        """Is point i inside polygon poly[i] (an index into this index's
        polygons)? A bool per point, from `_resolve`."""
        px = np.ascontiguousarray(px, np.float64)
        py = np.ascontiguousarray(py, np.float64)
        poly = np.asarray(poly, np.int64)
        return self._resolve(px, py, np.arange(len(px)), poly)

    def _resolve(self, px: np.ndarray, py: np.ndarray, cand_pt: np.ndarray,
                 cand_poly: np.ndarray, pair_chunk: int = 8_000_000
                 ) -> np.ndarray:
        """Exact even-odd test of pairs (point cand_pt[j] in polygon
        cand_poly[j]) -> bool per pair: the bbox check, the label of the
        point's raster cell, and `_refine` for BOUNDARY cells only."""
        inside = np.zeros(len(cand_pt), bool)
        x, y = px[cand_pt], py[cand_pt]
        bb = self.boxes[cand_poly]
        hit = np.nonzero((x >= bb[:, 0]) & (x <= bb[:, 2]) &
                         (y >= bb[:, 1]) & (y <= bb[:, 3]))[0]
        p, bb = cand_poly[hit], bb[hit]
        g = self.lab_g[p]
        # x >= x0 here, so the cast floors; a point on the far bbox side
        # lands in the last cell
        ix = np.minimum(((x[hit] - bb[:, 0]) * self.lab_inv_x[p])
                        .astype(np.int64), g - 1)
        iy = np.minimum(((y[hit] - bb[:, 1]) * self.lab_inv_y[p])
                        .astype(np.int64), g - 1)
        lab = self.labels[self.lab_base[p] + iy * g + ix]
        inside[hit] = lab == INSIDE
        edge = hit[lab == BOUNDARY]
        inside[edge] = self._refine(px, py, cand_pt[edge], cand_poly[edge],
                                    pair_chunk)
        return inside

    def _strips(self, py: np.ndarray, cand_pt: np.ndarray,
                cand_poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(strip id, edges in the strip) of each candidate pair."""
        strip = ((py[cand_pt] - self.strip_ymin[cand_poly])
                 * self.strip_inv_h[cand_poly]).astype(np.int64)
        strip = np.clip(strip, 0, self.strip_k[cand_poly] - 1)
        sid = self.strip_base[cand_poly] + strip
        return sid, self.strip_off[sid + 1] - self.strip_off[sid]

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
        sid, n_edges = self._strips(py, cand_pt, cand_poly)
        pairs = np.nonzero(n_edges > 0)[0]
        cand_pt, sid, n_edges = cand_pt[pairs], sid[pairs], n_edges[pairs]
        for start, end in _blocks(n_edges, pair_chunk):
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
        return inside


def brute_force_pip(px: np.ndarray, py: np.ndarray,
                    polys: list[SimplePolygon]) -> list[tuple[int, int]]:
    """O(points x polys) oracle (the reference example's nested loop,
    examples/geotype-example/src/main.rs:16-38) for tests: (point, poly)
    pairs by polygon, then point. Polygons and rings loop in Python; each
    ring's (edges x points) crossing test runs in numpy, with the
    module's formula in the same operation order."""
    px = np.asarray(px, np.float64)
    py = np.asarray(py, np.float64)
    out = []
    for j, sp in enumerate(polys):
        crossings = np.zeros(len(px), np.int64)
        for ring in [sp.outer, *sp.holes]:
            ax, ay = ring[:-1, 0, None], ring[:-1, 1, None]
            bx, by = ring[1:, 0, None], ring[1:, 1, None]
            cond = (ay > py) != (by > py)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = (bx - ax) * (py - ay) / (by - ay) + ax
            crossings += (cond & (px < xint)).sum(axis=0)
        out.extend((int(i), j) for i in np.nonzero(crossings % 2 == 1)[0])
    return out
