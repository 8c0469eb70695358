"""Raster<->vector operators (the north rule names "raster<->vector"
alongside PIP/kNN/tiling; the reference itself has no raster story, so
the semantics here are the standard GIS pair: rasterize = burn polygon
zones onto a fixed lat/lng pixel grid, vectorize = extract connected
same-zone pixel regions back out as vector features).

Scale shape:
- The empty raster is NEVER materialized: candidates are generated per
  polygon from its bbox (O(occupied bbox pixels), streamed), the
  even-odd center test is the shared `h3ops.center_in_polygon` task map,
  and zone resolution is the engine's coarse prime-modulus partition +
  vectorized local min — never a per-distinct-pixel groupby.
- vectorize is distributed connected-component labeling: the raster is
  partitioned into full row-band tiles, each tile is labeled locally
  (vectorized adjacency discovery + union-find), tiles expose only
  their first/last rows (O(perimeter) driver state, not O(pixels)),
  the tiny cross-tile boundary graph is merged on the driver, and the
  root map is broadcast for a one-pass relabel + per-region reduce.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .combine import by_partition, combine_by_key


def grid_params(boxes: np.ndarray, w: int, h: int
                ) -> tuple[float, float, float, float]:
    """(x0, y0, dx, dy) of the w x h grid spanning the union of bboxes.
    Pure min/max + one division — bit-identical to the oracle's SQL
    (no summation, so no merge-order sensitivity)."""
    x0 = float(boxes[:, 0].min())
    y0 = float(boxes[:, 1].min())
    dx = (float(boxes[:, 2].max()) - x0) / w
    dy = (float(boxes[:, 3].max()) - y0) / h
    return x0, y0, dx, dy


def pixel_candidates(polys, sel: np.ndarray, w: int, h: int) -> pa.Table:
    """Candidate (poly_id, cell=pix, clat, clng) rows: every grid pixel
    whose CENTER lies inside a selected polygon's bbox. Center formula
    x0 + (ix + 0.5) * dx and the >=/<= bbox comparisons mirror the SQL
    oracle operation-for-operation."""
    boxes = np.vstack([polys[int(i)].bbox for i in sel])
    x0, y0, dx, dy = grid_params(boxes, w, h)
    cx = x0 + (np.arange(w, dtype=np.float64) + 0.5) * dx
    cy = y0 + (np.arange(h, dtype=np.float64) + 0.5) * dy
    pid_out, pix_out, lat_out, lng_out = [], [], [], []
    for i in sel:
        b = polys[int(i)].bbox
        ix = np.nonzero((cx >= b[0]) & (cx <= b[2]))[0].astype(np.int64)
        iy = np.nonzero((cy >= b[1]) & (cy <= b[3]))[0].astype(np.int64)
        if len(ix) == 0 or len(iy) == 0:
            continue
        gx, gy = np.meshgrid(ix, iy)
        pid_out.append(np.full(gx.size, int(i), np.int64))
        pix_out.append((gy * w + gx).ravel())
        lat_out.append(cy[gy].ravel())
        lng_out.append(cx[gx].ravel())

    def cat(parts, dt):
        return np.concatenate(parts) if parts else np.empty(0, dt)

    return pa.table({
        "poly_id": pa.array(cat(pid_out, np.int64), pa.int64()),
        "cell": pa.array(cat(pix_out, np.int64), pa.int64()),
        "clat": pa.array(cat(lat_out, np.float64), pa.float64()),
        "clng": pa.array(cat(lng_out, np.float64), pa.float64()),
    })


def min_zone_by_pix(ds, *, w: int):
    """(poly_id, cell, geom_id, ...) matches -> (pix, zone, ix, iy) with
    zone = min geom_id per pixel (a pixel center can sit inside two
    overlapping polygons; the raster keeps one deterministic zone)."""

    def pix_zone(batch: pa.Table) -> pa.Table:
        return pa.table({"pix": batch["cell"], "zone": batch["geom_id"]})

    def with_xy(batch: pa.Table) -> pa.Table:
        pix = np.asarray(batch["pix"], np.int64)
        return pa.table({"pix": batch["pix"], "zone": batch["zone"],
                         "ix": pa.array(pix % w, pa.int64()),
                         "iy": pa.array(pix // w, pa.int64())})

    return (combine_by_key(ds.map_batches(pix_zone, batch_format="pyarrow"),
                           "pix", {"zone": ("zone", "min")})
            .map_batches(with_xy, batch_format="pyarrow"))


def _union_find_roots(edges_a: np.ndarray,
                      edges_b: np.ndarray) -> dict[int, int]:
    """Union-find over int64 labels keeping the SMALLEST label as root
    (so the merged root is the global min pixel id of the component).
    Labels are arbitrary int64s; edges are parallel arrays."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:          # path compression
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(edges_a.tolist(), edges_b.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


def _label_tile(part: pa.Table, w: int) -> pa.Table:
    """Local 4-connectivity connected components within one row-band
    tile. Adjacency is discovered vectorized on the sorted pixel array
    (right neighbor pix+1 in the same row, down neighbor pix+w), then a
    union-find assigns each pixel the min pixel id of its local
    component as the label."""
    pix = np.asarray(part["pix"], np.int64)
    order = np.argsort(pix, kind="stable")
    pix = pix[order]
    zone = np.asarray(part["zone"], np.int64)[order]
    ix = np.asarray(part["ix"], np.int64)[order]
    iy = np.asarray(part["iy"], np.int64)[order]

    def neighbor_edges(step: int, same_row: bool):
        j = np.searchsorted(pix, pix + step)
        ok = (j < len(pix))
        jj = np.where(ok, j, 0)
        ok &= (pix[jj] == pix + step) & (zone[jj] == zone)
        if same_row:
            ok &= (iy[jj] == iy)
        return np.nonzero(ok)[0], jj[np.nonzero(ok)[0]]

    ra, rb = neighbor_edges(1, True)
    da, db = neighbor_edges(w, False)
    ea = np.concatenate([pix[ra], pix[da]])
    eb = np.concatenate([pix[rb], pix[db]])
    roots = _union_find_roots(ea, eb)
    lbl = pix.copy()
    if roots:
        keys = np.fromiter(roots.keys(), np.int64, len(roots))
        vals = np.fromiter(roots.values(), np.int64, len(roots))
        korder = np.argsort(keys)
        keys, vals = keys[korder], vals[korder]
        pos = np.searchsorted(keys, lbl)
        pos_c = np.clip(pos, 0, len(keys) - 1)
        hit = keys[pos_c] == lbl
        lbl[hit] = vals[pos_c[hit]]
    return pa.table({
        "pix": pa.array(pix, pa.int64()),
        "ix": pa.array(ix, pa.int64()),
        "iy": pa.array(iy, pa.int64()),
        "zone": pa.array(zone, pa.int64()),
        "lbl": pa.array(lbl, pa.int64()),
    })


def vectorize_regions(raster_ds, *, w: int, tile_rows: int = 256,
                      parts: int = 251):
    """Zone raster (pix, ix, iy, zone) -> vector regions
    (region_id, zone, n_pixels, ix_min, iy_min, ix_max, iy_max) where
    region_id is the min pixel id of the 4-connected same-zone
    component (matching the single-node BFS golden's convention).

    Tiles are full row bands (iy // tile_rows), so the only adjacency a
    tile cannot see locally is vertical across its first row; the
    driver merges that O(perimeter) boundary graph and broadcasts the
    root map for a one-pass distributed relabel + per-region reduce."""
    import ray

    labeled = by_partition(
        raster_ds, lambda b: np.asarray(b["iy"], np.int64) // tile_rows,
        lambda t: _label_tile(t, w)
    ).materialize()     # consumed twice: boundary + relabel

    def boundary_rows(batch: pa.Table) -> pa.Table:
        iy = np.asarray(batch["iy"], np.int64)
        rel = iy % tile_rows
        keep = (rel == 0) | (rel == tile_rows - 1)
        return batch.filter(pa.array(keep)).select(["pix", "zone", "lbl"])

    btables = [b for b in labeled.map_batches(
        boundary_rows, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    if btables:
        edge_tbl = pa.concat_tables(btables)
        bpix = np.asarray(edge_tbl["pix"], np.int64)
        bzone = np.asarray(edge_tbl["zone"], np.int64)
        blbl = np.asarray(edge_tbl["lbl"], np.int64)
    else:
        bpix = bzone = blbl = np.empty(0, np.int64)
    border = np.argsort(bpix, kind="stable")
    bpix, bzone, blbl = bpix[border], bzone[border], blbl[border]
    # top-row pixel p joins bottom-row pixel p-w of the tile above
    top = (bpix // w) % tile_rows == 0
    j = np.searchsorted(bpix, bpix[top] - w)
    ok = j < len(bpix)
    jj = np.where(ok, j, 0)
    ok &= (bpix[jj] == bpix[top] - w) & (bzone[jj] == bzone[top])
    roots = _union_find_roots(blbl[top][ok], blbl[jj[ok]])
    keys = np.fromiter(roots.keys(), np.int64, len(roots))
    vals = np.fromiter(roots.values(), np.int64, len(roots))
    korder = np.argsort(keys)
    root_ref = ray.put((keys[korder], vals[korder]))

    def relabel(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(root_ref)
        lbl = np.asarray(batch["lbl"], np.int64).copy()
        if len(keys):
            pos = np.clip(np.searchsorted(keys, lbl), 0, len(keys) - 1)
            hit = keys[pos] == lbl
            lbl[hit] = vals[pos[hit]]
        return pa.table({"region_id": pa.array(lbl, pa.int64()),
                         "zone": batch["zone"], "ix": batch["ix"],
                         "iy": batch["iy"]})

    # zone is constant per region, so its min is the region's zone
    return combine_by_key(
        labeled.map_batches(relabel, batch_format="pyarrow"), "region_id",
        {"zone": ("zone", "min"), "n_pixels": ("ix", "count"),
         "ix_min": ("ix", "min"), "iy_min": ("iy", "min"),
         "ix_max": ("ix", "max"), "iy_max": ("iy", "max")}, parts=parts)


def focal_sum(raster_ds, *, w: int, tile_rows: int = 256):
    """Distributed 3x3 FOCAL aggregate over the sparse zone raster:
    for every present pixel, the count of present pixels and the sum of
    their zone values in its 3x3 window (center included) — the halo-
    exchange pattern every neighborhood raster op (smoothing, slope,
    density) reduces to.

    Shape: one shuffle into row-band tiles (iy // tile_rows); each input
    row lands in its own band, and rows on a band's first/last raster
    row ALSO copy to the adjacent band as non-owned halo rows (<= 2/tile_rows
    duplication — O(perimeter), not O(pixels)). Each band then answers
    its OWNED pixels with 9 vectorized searchsorted probes into the
    band-local sorted pixel array; absent neighbors contribute nothing.
    No driver state, no global sort; bands scale with raster height.
    Output: (pix, n_nb, sum_nb) — exact integers, bit-exact vs the SQL
    9-offset self-join restatement."""

    def halo(batch: pa.Table) -> pa.Table:
        iy = np.asarray(batch["iy"], np.int64)
        band = iy // tile_rows
        row_in = iy % tile_rows
        pieces = [(band, np.ones(len(iy), bool))]
        up = row_in == 0
        pieces.append((band - 1, up))
        down = row_in == tile_rows - 1
        pieces.append((band + 1, down))
        outs = []
        for b, sel in pieces:
            owned = outs == []          # first piece is the owned copy
            idx = np.nonzero(sel)[0] if not owned else np.arange(len(iy))
            bsel = b if owned else b[idx]
            keep = bsel >= 0
            idx, bsel = idx[keep], bsel[keep]
            t = batch.take(pa.array(idx))
            t = t.append_column("__band", pa.array(bsel, pa.int64()))
            t = t.append_column("__owned", pa.array(
                np.full(len(idx), owned), pa.bool_()))
            outs.append(t)
        return pa.concat_tables(outs)

    def local(part: pa.Table) -> pa.Table:
        pix = np.asarray(part["pix"], np.int64)
        ix = np.asarray(part["ix"], np.int64)
        zone = np.asarray(part["zone"], np.int64)
        owned = np.asarray(part["__owned"], bool)
        order = np.argsort(pix, kind="stable")
        keys, zs = pix[order], zone[order]
        opix, oix = pix[owned], ix[owned]
        n_nb = np.zeros(len(opix), np.int64)
        s_nb = np.zeros(len(opix), np.int64)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nb = opix + dy * w + dx
                ok = np.ones(len(opix), bool)
                if dx == -1:
                    ok = oix > 0            # no wrap across row starts
                elif dx == 1:
                    ok = oix < w - 1
                loc = np.searchsorted(keys, nb)
                loc_c = np.minimum(loc, len(keys) - 1)
                hit = ok & (loc < len(keys)) & (keys[loc_c] == nb)
                n_nb += hit
                s_nb[hit] += zs[loc_c[hit]]
        return pa.table({
            "pix": pa.array(opix, pa.int64()),
            "n_nb": pa.array(n_nb, pa.int64()),
            "sum_nb": pa.array(s_nb, pa.int64()),
        })

    return by_partition(raster_ds.map_batches(halo, batch_format="pyarrow"),
                        lambda b: np.asarray(b["__band"], np.int64), local)
