"""Derive the H3 faceNeighbors table (per-face edge: neighbor face,
ccw 60-degree rotations, res-0 translate) from cross-face encode
consistency — no h3 library, no transcription.

The published algorithm structure (faceijk.c `_adjustOverageClassII`)
maps an out-of-face Class II lattice coordinate on face F to the
in-face coordinate on the neighboring face G across one of F's three
edges (IJ: k == 0, KI: k > 0 and j == 0, JK: k > 0 and j > 0):

    ijk_G = normalize( rot60ccw^r (ijk_F)  +  unitScale * translate )

with unitScale = 7^(res/2) for Class II res. Everything on the right
except (r, translate) is known; the pair is solved here per (F, edge)
from eps-straddling sample points — a point just across F's edge has
an exact landing-face encode (G, ijk_G) AND a forced-F projection
whose rounding still lands on the correct extended lattice point
(gnomonic distortion one or two units past the edge is far below half
a unit at res 2) — then VALIDATED on thousands of independent points
at a finer resolution (res 4, unitScale 49).

Run: python scripts/derive_h3_face_neighbors.py
Prints the solved table as python source and asserts it matches the
baked _FACE_NEIGHBORS in shapefile_rs_ray/functions/h3.py.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))          # run from anywhere, no install

from shapefile_rs_ray.functions.h3 import (  # noqa: E402
    AZ0, FACE_CENTER_GEO, M_AP7_ROT_RADS, RES0_U_GNOMONIC, _FACE_XYZ,
    _SCALE, _TWO_PI, _geo_az_vec, _hex2d_to_ijk_vec)


def forced_face_ijk(lat, lng, face, res):
    """_geo_to_face_ijk_vec with the face FORCED (extended lattice):
    projects every point in `face`'s gnomonic frame even when another
    face is nearer. Also returns the angular distance to the face
    center (gnomonic tan() aliases points past 90 degrees — callers
    must restrict to the local cap)."""
    n = lat.shape[0]
    coslat = np.cos(lat)
    v = np.stack([coslat * np.cos(lng), coslat * np.sin(lng),
                  np.sin(lat)], axis=1)
    fdot = np.clip(v @ _FACE_XYZ[face], -1.0, 1.0)
    r = np.arccos(fdot)
    ang = r
    flat1 = np.full(n, FACE_CENTER_GEO[face, 0])
    flng1 = np.full(n, FACE_CENTER_GEO[face, 1])
    theta = (AZ0[face] - (_geo_az_vec(flat1, flng1, lat, lng) % _TWO_PI)) \
        % _TWO_PI
    if res % 2 == 1:
        theta = (theta - M_AP7_ROT_RADS) % _TWO_PI
    gr = np.tan(r) / RES0_U_GNOMONIC * _SCALE[res]
    small = r < 1e-16
    x = np.where(small, 0.0, gr * np.cos(theta))
    y = np.where(small, 0.0, gr * np.sin(theta))
    i, j, k = _hex2d_to_ijk_vec(x, y)
    # fractional distance (hex2d units) from the rounded lattice center:
    # knife-edge points flip rounding between frames under the small
    # cross-frame gnomonic distortion and must be filtered from exact
    # integer comparisons
    xc = (i - k) - 0.5 * (j - k)
    yc = (j - k) * np.sqrt(3.0) / 2.0
    frac = np.hypot(x - xc, y - yc)
    return i, j, k, ang, frac


def landing_face_ijk(lat, lng, res):
    from shapefile_rs_ray.functions.h3 import _geo_to_face_ijk_vec
    return _geo_to_face_ijk_vec(lat, lng, res)


def rot_ab_ccw(a, b, times):
    for _ in range(times % 6):
        a, b = a - b, a
    return a, b


def classify_edge(i, j, k):
    """libh3 direction pick: k>0 ? (j>0 ? JK : KI) : IJ."""
    if k > 0:
        return "JK" if j > 0 else "KI"
    return "IJ"


def norm_ijk(i, j, k):
    m = min(i, j, k)
    return i - m, j - m, k - m


def sample_points(n=250_000, seed=11):
    rng = np.random.default_rng(seed)
    lat = np.arcsin(rng.uniform(-1, 1, n))
    lng = rng.uniform(-np.pi, np.pi, n)
    return lat, lng


def solve(res=2):
    unit = int(round(7 ** (res // 2)))
    max_dim = 2 * unit
    lat, lng = sample_points()
    gface, gi, gj, gk = landing_face_ijk(lat, lng, res)
    solved: dict[tuple[int, str], tuple[int, int, tuple]] = {}
    votes: dict[tuple[int, str], dict] = {}
    for face in range(20):
        # points on ANOTHER face but within a couple of units of F's
        # edge in F's extended frame; the cap filter drops far points
        # whose gnomonic projection aliases into the near band
        fi, fj, fk, ang, frac = forced_face_ijk(lat, lng, face, res)
        s = fi + fj + fk
        near = (gface != face) & (s == max_dim + 1) & (ang < 0.9) \
            & (frac < 0.25)
        for idx in np.nonzero(near)[0]:
            ii, jj, kk = int(fi[idx]), int(fj[idx]), int(fk[idx])
            edge = classify_edge(ii, jj, kk)
            aF, bF = ii - kk, jj - kk
            aG = int(gi[idx]) - int(gk[idx])
            bG = int(gj[idx]) - int(gk[idx])
            for r in range(6):
                ar, br = rot_ab_ccw(aF, bF, r)
                ta2, tb2 = aG - ar, bG - br
                if ta2 % unit or tb2 % unit:
                    continue
                ta, tb = ta2 // unit, tb2 // unit
                if abs(ta) > 2 or abs(tb) > 2:
                    continue
                key = (face, edge)
                votes.setdefault(key, {}).setdefault(
                    (int(gface[idx]), r, ta, tb), 0)
                votes[key][(int(gface[idx]), r, ta, tb)] += 1
    for key, cand in votes.items():
        # the true edge transform explains the (large) majority of the
        # one-unit-over samples; corner/vertex samples (which need a
        # second adjustment — the pentagon secondary-overage loop) vote
        # for scattered candidates
        best = max(cand.items(), key=lambda kv: kv[1])
        total = sum(cand.values())
        if best[1] < 8 or best[1] < 0.7 * total:
            raise AssertionError(f"ambiguous solve at {key}: {cand}")
        nf, r, ta, tb = best[0]
        ti, tj, tk = norm_ijk(ta, tb, 0)
        solved[key] = (nf, r, (ti, tj, tk))
    missing = [(f, e) for f in range(20) for e in ("IJ", "KI", "JK")
               if (f, e) not in solved]
    if missing:
        raise AssertionError(f"unsolved edges: {missing}")
    return solved


def adjust_iter(solved, face, i, j, k, unit, max_dim, max_steps=4):
    """Apply the solved edge transform like libh3's adjust loop: while
    out of face, classify the edge, hop to the neighbor frame."""
    steps = 0
    while i + j + k > max_dim:
        if steps >= max_steps:
            raise AssertionError("adjustment did not converge")
        edge = classify_edge(i, j, k)
        nf, r, (ti, tj, tk) = solved[(face, edge)]
        a, b = rot_ab_ccw(i - k, j - k, r)
        a += unit * (ti - tk)
        b += unit * (tj - tk)
        i, j, k = norm_ijk(a, b, 0)
        face = nf
        steps += 1
    return face, (i, j, k)


def validate(solved, res=4, n=2_000_000, seed=23):
    """Independent check at a finer Class II res: every straddling
    point's iteratively-adjusted F-frame coordinate must equal its
    landing-face encode exactly (corner points legitimately need two
    hops — the secondary-overage loop of the real algorithm)."""
    unit = int(round(7 ** (res // 2)))
    max_dim = 2 * unit
    rng = np.random.default_rng(seed)
    lat = np.arcsin(rng.uniform(-1, 1, n))
    lng = rng.uniform(-np.pi, np.pi, n)
    gface, gi, gj, gk = landing_face_ijk(lat, lng, res)
    # landing-frame fractional offsets for the knife-edge filter
    gfrac = np.full(lat.shape[0], 1.0)
    for face in range(20):
        _, _, _, _, fr = forced_face_ijk(lat, lng, face, res)
        gfrac = np.where(gface == face, fr, gfrac)
    checked = miss = 0
    for face in range(20):
        fi, fj, fk, ang, frac = forced_face_ijk(lat, lng, face, res)
        s = fi + fj + fk
        near = (gface != face) & (s == max_dim + 1) & (ang < 0.9) \
            & (frac < 0.25) & (gfrac < 0.25)
        for idx in np.nonzero(near)[0]:
            nf, got = adjust_iter(solved, face, int(fi[idx]), int(fj[idx]),
                                  int(fk[idx]), unit, max_dim)
            want = norm_ijk(int(gi[idx]) - int(gk[idx]),
                            int(gj[idx]) - int(gk[idx]), 0)
            checked += 1
            if nf != int(gface[idx]) or got != want:
                # forced-frame PROJECTION rounding can be one lattice
                # unit off for points whose G-frame position sits on a
                # rounding knife edge — the table itself is applied to
                # EXACT lattice coords in the algorithm (the end-to-end
                # proof is the cell_to_latlng re-encode round-trip)
                miss += 1
    if checked < 5000:
        raise AssertionError(f"too few validation samples: {checked}")
    if miss > 0.005 * checked:
        raise AssertionError(
            f"validation: {miss}/{checked} mismatches — table wrong")
    return checked


def main():
    solved = solve(res=2)
    n = validate(solved, res=4)
    print(f"validated on {n} straddling points at res 4")
    print("_FACE_NEIGHBORS = {")
    for face in range(20):
        for edge in ("IJ", "KI", "JK"):
            nf, r, t = solved[(face, edge)]
            print(f"    ({face}, {edge!r}): ({nf}, {r}, {t}),")
    print("}")
    try:
        from shapefile_rs_ray.functions.h3 import _FACE_NEIGHBORS
        baked = {k: v for k, v in _FACE_NEIGHBORS.items()}
        assert baked == solved, "baked table != derived table"
        print("baked _FACE_NEIGHBORS matches the derivation")
    except ImportError:
        print("(no baked table yet — paste the above into h3.py)")


if __name__ == "__main__":
    main()
