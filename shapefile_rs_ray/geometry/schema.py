"""ShapeTable <-> Arrow conversion (the engine's columnar geometry model,
SURVEY.md §1.5).

One row per shapefile record:

    geom_id:    int64                      (0-based file position; the wire
                                            record number is ordinal on write,
                                            src/writer.rs:123-126)
    shape_type: int32                      (ESRI code, src/lib.rs:162-180)
    xy:         list<list<fixed_size_list<double, 2>>>   parts -> points
    z:          list<list<double>>         (null column when type has no Z)
    m:          list<list<double>>         (NO_DATA sentinel preserved)
    m_present:  bool                       (wire had an M block)
    part_roles: list<int8>                 (polygon 0=outer/1=inner; multipatch
                                            patch code 0-5; else -1)
    bbox:       struct<xmin,ymin,xmax,ymax,zmin,zmax,mmin,mmax: double>

The parts->points nesting mirrors the reference's Vec<Vec<P>>
(src/record/polyline.rs:46-49) as Arrow offsets over one flat f64 buffer —
zero-copy to numpy on the compute side.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .shp import ShapeTable, has_m, has_z, MULTIPATCH

BBOX_FIELDS = ["xmin", "ymin", "xmax", "ymax", "zmin", "zmax", "mmin", "mmax"]


def shape_table_to_arrow(st: ShapeTable,
                         attrs: pa.Table | None = None) -> pa.Table:
    n = st.num_shapes
    xy_flat = np.empty(2 * st.num_points)
    xy_flat[0::2] = st.x
    xy_flat[1::2] = st.y
    pts = pa.FixedSizeListArray.from_arrays(pa.array(xy_flat, pa.float64()), 2)
    inner_off = pa.array(st.part_offsets, pa.int32())
    shape_off = pa.array(st.shape_part_offsets, pa.int32())
    xy = pa.ListArray.from_arrays(
        shape_off, pa.ListArray.from_arrays(inner_off, pts))

    def nested_f64(flat):
        return pa.ListArray.from_arrays(
            shape_off, pa.ListArray.from_arrays(
                inner_off, pa.array(flat, pa.float64())))

    zcol = (nested_f64(st.z) if st.z is not None
            else pa.nulls(n, pa.list_(pa.list_(pa.float64()))))
    mcol = (nested_f64(st.m) if st.m is not None
            else pa.nulls(n, pa.list_(pa.list_(pa.float64()))))
    m_present = (pa.array(st.m_present, pa.bool_()) if st.m_present is not None
                 else pa.array([False] * n, pa.bool_()))
    roles = pa.ListArray.from_arrays(shape_off, pa.array(st.part_roles,
                                                         pa.int8()))
    nan = np.full(n, np.nan)
    z_range = st.z_range if st.z_range is not None else np.column_stack([nan, nan])
    m_range = st.m_range if st.m_range is not None else np.column_stack([nan, nan])
    bbox = pa.StructArray.from_arrays(
        [pa.array(st.bbox_xy[:, 0]), pa.array(st.bbox_xy[:, 1]),
         pa.array(st.bbox_xy[:, 2]), pa.array(st.bbox_xy[:, 3]),
         pa.array(z_range[:, 0]), pa.array(z_range[:, 1]),
         pa.array(m_range[:, 0]), pa.array(m_range[:, 1])],
        BBOX_FIELDS)
    cols = {
        "geom_id": pa.array(st.geom_id, pa.int64()),
        "shape_type": pa.array(np.full(n, st.shape_type, np.int32)),
        "xy": xy, "z": zcol, "m": mcol, "m_present": m_present,
        "part_roles": roles, "bbox": bbox,
        "is_null": pa.array(st.is_null, pa.bool_()),
    }
    if attrs is not None:
        assert attrs.num_rows == n, "attrs must zip 1:1 with shapes"
        cols["attrs"] = pa.StructArray.from_arrays(
            [attrs.column(i).combine_chunks() for i in range(attrs.num_columns)],
            attrs.column_names)
    return pa.table(cols)


def arrow_to_shape_table(t: pa.Table) -> ShapeTable:
    """Inverse of shape_table_to_arrow (attrs column ignored)."""
    n = t.num_rows
    shape_type = int(t["shape_type"][0].as_py()) if n else 0
    # rebuild offsets from list lengths (robust to sliced/chunked input)
    outer = t["xy"].combine_chunks()
    parts_per_shape = np.asarray(
        pa.compute.list_value_length(outer), np.int64)
    shape_off = np.zeros(n + 1, np.int64)
    np.cumsum(parts_per_shape, out=shape_off[1:])
    inner = outer.flatten()
    pts_per_part = np.asarray(pa.compute.list_value_length(inner), np.int64)
    part_off = np.zeros(len(pts_per_part) + 1, np.int64)
    np.cumsum(pts_per_part, out=part_off[1:])
    pts = inner.flatten()          # fixed_size_list
    flat = np.asarray(pts.flatten())
    x = flat[0::2].copy()
    y = flat[1::2].copy()

    def flat_nested(col):
        c = t[col].combine_chunks()
        if c.null_count == len(c):
            return None
        return np.asarray(c.flatten().flatten(), np.float64)

    z = flat_nested("z") if has_z(shape_type) or shape_type == MULTIPATCH else None
    m = (flat_nested("m")
         if has_m(shape_type) or shape_type == MULTIPATCH else None)
    roles_col = t["part_roles"].combine_chunks()
    roles = np.asarray(roles_col.flatten(), np.int8)
    bbox = t["bbox"].combine_chunks()
    bcols = {f: np.asarray(bbox.field(f), np.float64) for f in BBOX_FIELDS}
    m_present = np.asarray(t["m_present"].combine_chunks(), bool)
    can_m = has_m(shape_type) or shape_type == MULTIPATCH
    return ShapeTable(
        shape_type=shape_type,
        geom_id=np.asarray(t["geom_id"], np.int64),
        record_number=(np.asarray(t["geom_id"], np.int64) + 1).astype(np.int32),
        x=x, y=y, z=z, m=m,
        m_present=m_present if can_m else None,
        part_offsets=part_off.astype(np.int64),
        shape_part_offsets=shape_off.astype(np.int64),
        part_roles=roles,
        bbox_xy=np.column_stack([bcols["xmin"], bcols["ymin"],
                                 bcols["xmax"], bcols["ymax"]]),
        z_range=(np.column_stack([bcols["zmin"], bcols["zmax"]])
                 if (has_z(shape_type) or shape_type == MULTIPATCH) else None),
        m_range=(np.column_stack([bcols["mmin"], bcols["mmax"]])
                 if can_m else None),
        is_null=(np.asarray(t["is_null"].combine_chunks(), bool)
                 if "is_null" in t.column_names else np.zeros(n, bool)),
    )


def explode_xy(t: pa.Table) -> dict:
    """Flatten the nested `xy` geometry column into vertex-level numpy
    arrays plus every index array the vertex-walking stages share
    (measures, simplification, vertex goldens) — ONE implementation of
    the geometry->part->vertex expansion so null-shape / empty-part
    handling can't skew between consumers.

    Returns dict with: x, y (flat f64); n_parts (per geometry, nulls->0);
    lens_pts (per part); part_off (geometry->part offsets, len n+1);
    part_idx (per part, dense within geometry); pt_cum (part->point
    offsets, len parts+1); part_geom / pt_geom / pt_part / vtx_idx
    (owner ids per part / per vertex); g_start / g_end (per-geometry
    vertex ranges)."""
    import pyarrow.compute as pc
    xy = t["xy"].combine_chunks()
    n_parts = np.asarray(pc.fill_null(pc.list_value_length(xy), 0), np.int64)
    parts = pc.list_flatten(xy)
    lens_pts = np.asarray(pc.list_value_length(parts), np.int64)
    flat = np.asarray(pc.list_flatten(pc.list_flatten(parts)), np.float64)
    geom_ids = np.asarray(t["geom_id"], np.int64)
    part_off = np.zeros(len(n_parts) + 1, np.int64)
    np.cumsum(n_parts, out=part_off[1:])
    part_idx = (np.arange(len(lens_pts), dtype=np.int64)
                - np.repeat(part_off[:-1], n_parts))
    pt_cum = np.zeros(len(lens_pts) + 1, np.int64)
    np.cumsum(lens_pts, out=pt_cum[1:])
    part_geom = np.repeat(geom_ids, n_parts)
    pt_geom = np.repeat(part_geom, lens_pts)
    pt_part = np.repeat(part_idx, lens_pts)
    vtx_idx = (np.arange(len(pt_geom), dtype=np.int64)
               - np.repeat(pt_cum[:-1], lens_pts))
    return {
        "x": flat[0::2], "y": flat[1::2],
        "n_parts": n_parts, "lens_pts": lens_pts,
        "part_off": part_off, "part_idx": part_idx, "pt_cum": pt_cum,
        "part_geom": part_geom, "pt_geom": pt_geom, "pt_part": pt_part,
        "vtx_idx": vtx_idx,
        "g_start": pt_cum[part_off[:-1]], "g_end": pt_cum[part_off[1:]],
    }
