"""Derive (and verify) the H3 lookup tables baked into functions/h3.py.

Run: python scripts/derive_h3_tables.py       (~40 s, pure numpy, offline)

Stages (all from public knowledge — the H3 algorithm description and the
two face-constant arrays from H3's faceijk.c; no library, no network):

1. Geometric validation of the face constants: the 20 centers form an
   exact regular icosahedron (dot spectrum {±1, ±√5/3, ±1/3}); the 12
   vertices are derived purely from the centers (symmetric 5-ring sums);
   each az0 points at a vertex to ~7e-14; RES0_U_GNOMONIC equals the
   derived tan(center→vertex)/2 to ~3e-15.
2. Base-cell enumeration: the 122 res-0 cells are the in-triangle lattice
   points of the 20 faces (20 centers + 60 interior + 30 edge midpoints +
   12 vertices).  Numbering hypothesis — descending latitude — is
   CONFIRMED by the 12 pentagons landing exactly at the published H3
   pentagon base-cell numbers {4,14,24,38,49,58,63,72,83,97,107,117}
   with a 1.2e-4 rad minimum latitude gap (no ties).
3. Home-face assignment: min face index among in-triangle appearances;
   pentagons restricted to faces seeing the vertex on the +i axis (the
   (2,0,0) coord), matching H3 baseCellData's home entries.
4. Constraint solve of (face, ijk0) -> (ccwRot60, cwOffset): anchored
   ONLY at home entries (rot=0).  Constraints are eps-straddling point
   pairs across every icosa edge at ODD (Class III) resolutions — at
   even (Class II) res the edges coincide with cell boundaries, so
   straddling pairs are legitimately different cells and carry no
   information; at odd res the grid is rotated by ±asin(sqrt(3/28)) and
   a straddling pair IS one physical cell.  Pentagon rotations act mod 5
   (rotate_pent60ccw^5 == identity).  cwOffset flags are decided from
   constraints whose digit strings lead with the K-axis digit 1.
5. Audit: zero inconsistencies over all ~26k constraints; a 31k-point
   reachability scan proves every table entry a geo encode can reach is
   solved (unreached entries stay -1 and raise in production); the
   public test vectors match byte-for-byte.

Finally asserts the derived tables equal shapefile_rs_ray.functions.h3's
baked BC_TABLE / ROT_TABLE / CW_TABLE.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))          # run from anywhere, no install

from shapefile_rs_ray.functions.h3 import (  # noqa: E402
    AZ0, BC_TABLE, CW_TABLE, FACE_CENTER_GEO, M_AP7_ROT_RADS, M_SIN60,
    RES0_U_GNOMONIC, ROT_TABLE, _SCALE, encode_scalar,
)

P = np.stack([
    np.cos(FACE_CENTER_GEO[:, 0]) * np.cos(FACE_CENTER_GEO[:, 1]),
    np.cos(FACE_CENTER_GEO[:, 0]) * np.sin(FACE_CENTER_GEO[:, 1]),
    np.sin(FACE_CENTER_GEO[:, 0]),
], axis=1)

# ---------------------------------------------------------------- stage 1
D = P @ P.T
assert np.allclose(np.linalg.norm(P, axis=1), 1, atol=1e-12)
spectrum = np.unique(np.round(D, 9))
expect = np.round(np.array([-1, -np.sqrt(5) / 3, -1 / 3, 1 / 3,
                            np.sqrt(5) / 3, 1]), 9)
assert np.allclose(np.sort(spectrum), expect), spectrum
adj = np.abs(D - np.sqrt(5) / 3) < 1e-9
assert (adj.sum(axis=1) == 3).all()

# derive the 12 icosa vertices from the centers alone
cand = []
for a in range(20):
    for b in range(a + 1, 20):
        if not adj[a, b]:
            continue
        u = P[a] + P[b]
        u /= np.linalg.norm(u)
        nrm = np.cross(P[a], P[b])
        nrm /= np.linalg.norm(nrm)
        for s in (1.0, -1.0):
            v = u + s * 0.6 * nrm
            v /= np.linalg.norm(v)
            for _ in range(8):
                ring = np.argsort(-(P @ v))[:5]
                v = P[ring].sum(axis=0)
                v /= np.linalg.norm(v)
            cand.append(v)
VERTS = []
for v in cand:
    if not any(np.dot(v, u) > 1 - 1e-9 for u in VERTS):
        VERTS.append(v)
VERTS = np.array(VERTS)
assert len(VERTS) == 12


def _geo_az(lat1, lng1, lat2, lng2):
    return np.arctan2(
        np.cos(lat2) * np.sin(lng2 - lng1),
        np.cos(lat1) * np.sin(lat2)
        - np.sin(lat1) * np.cos(lat2) * np.cos(lng2 - lng1))


def _geo_of(v):
    return (float(np.arcsin(np.clip(v[2], -1, 1))),
            float(np.arctan2(v[1], v[0])))


maxerr = 0.0
for f in range(20):
    idx = np.argsort(-(VERTS @ P[f]))[:3]
    best = min(
        abs((_geo_az(*FACE_CENTER_GEO[f], *_geo_of(VERTS[vi]))
             % (2 * np.pi) - AZ0[f] + np.pi) % (2 * np.pi) - np.pi)
        for vi in idx)
    maxerr = max(maxerr, best)
assert maxerr < 1e-11, maxerr
theta_cv = np.arccos(np.max(VERTS @ P[0]))
assert abs(np.tan(theta_cv) / 2.0 - RES0_U_GNOMONIC) < 1e-13
assert abs(np.arctan2(np.sqrt(3.0), 5.0) - M_AP7_ROT_RADS) < 1e-15
print(f"stage 1 OK: face constants geometrically exact (az err {maxerr:.1e})")

# ---------------------------------------------------------------- stage 2
SQRT7 = np.sqrt(7.0)
TWO_PI = 2 * np.pi


def az_dist_point(lat1, lng1, az, r):
    lat2 = np.arcsin(np.sin(lat1) * np.cos(r)
                     + np.cos(lat1) * np.sin(r) * np.cos(az))
    lng2 = lng1 + np.arctan2(
        np.sin(az) * np.sin(r) * np.cos(lat1),
        np.cos(r) - np.sin(lat1) * np.sin(lat2))
    return lat2, lng2


def ijk_to_hex2d(i, j, k):
    i2, j2 = i - k, j - k
    return i2 - 0.5 * j2, j2 * M_SIN60


def face_ijk_to_geo(face, i, j, k):
    x, y = ijk_to_hex2d(i, j, k)
    gr = np.hypot(x, y)
    if gr < 1e-16:
        return tuple(FACE_CENTER_GEO[face])
    theta = np.arctan2(y, x)
    r = np.arctan(gr * RES0_U_GNOMONIC)
    az = (AZ0[face] - theta) % TWO_PI
    return az_dist_point(FACE_CENTER_GEO[face][0], FACE_CENTER_GEO[face][1],
                         az, r)


IN_FACE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
           (1, 1, 0), (1, 0, 1), (0, 1, 1),
           (2, 0, 0), (0, 2, 0), (0, 0, 2)]
centers = {}
for f in range(20):
    for ci, cj, ck in IN_FACE:
        lat, lng = face_ijk_to_geo(f, ci, cj, ck)
        v = np.array([np.cos(lat) * np.cos(lng),
                      np.cos(lat) * np.sin(lng), np.sin(lat)])
        key = tuple(np.round(v, 7))
        centers.setdefault(key, (lat, lng, []))[2].append((f, (ci, cj, ck)))
assert len(centers) == 122
cells = list(centers.values())
pent_flags = [bool((VERTS @ np.array([
    np.cos(c[0]) * np.cos(c[1]), np.cos(c[0]) * np.sin(c[1]),
    np.sin(c[0])]) > 1 - 1e-9).any()) for c in cells]
assert sum(pent_flags) == 12
order = sorted(range(122), key=lambda c: (-cells[c][0], cells[c][1]))
pent_idx = [rank for rank, c in enumerate(order) if pent_flags[c]]
assert pent_idx == [4, 14, 24, 38, 49, 58, 63, 72, 83, 97, 107, 117], pent_idx
print("stage 2 OK: 122 base cells; pentagon ranks match the published list")

CENTER_3D = np.array([[np.cos(cells[c][0]) * np.cos(cells[c][1]),
                       np.cos(cells[c][0]) * np.sin(cells[c][1]),
                       np.sin(cells[c][0])] for c in order])
IS_PENT = np.array([pent_flags[c] for c in order])
PENTAGONS = set(np.nonzero(IS_PENT)[0].tolist())

# ---------------------------------------------------------------- stage 3
homes = {}
for rank, c in enumerate(order):
    apps = cells[c][2]
    if pent_flags[c]:
        capps = [(f, ijk) for f, ijk in apps if ijk == (2, 0, 0)]
    else:
        capps = apps
    homes[rank] = min(capps, key=lambda t: t[0])

# bc per (face, ijk) entry: nearest derived center (max angular error
# asserted well inside half a cell)
BC_OF = {}
for f in range(20):
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if min(i, j, k) != 0:
                    continue
                lat, lng = face_ijk_to_geo(f, i, j, k)
                v = np.array([np.cos(lat) * np.cos(lng),
                              np.cos(lat) * np.sin(lng), np.sin(lat)])
                bc = int(np.argmax(CENTER_3D @ v))
                assert float(CENTER_3D[bc] @ v) > np.cos(np.radians(8.0))
                BC_OF[(f, i, j, k)] = bc
print("stage 3 OK: homes + bc assignment")

# ---------------------------------------------------------------- stage 4
UNIT_DIGIT = {(0, 0, 0): 0, (0, 0, 1): 1, (0, 1, 0): 2, (0, 1, 1): 3,
              (1, 0, 0): 4, (1, 0, 1): 5, (1, 1, 0): 6}
ROT_CCW = {0: 0, 1: 5, 2: 3, 3: 1, 4: 6, 5: 4, 6: 2}
ROT_CW = {v: k for k, v in ROT_CCW.items()}


def norm_ijk(i, j, k):
    if i < 0:
        j -= i; k -= i; i = 0
    if j < 0:
        i -= j; k -= j; j = 0
    if k < 0:
        i -= k; j -= k; k = 0
    return i, j, k


def hex2d_to_ijk(x, y):
    k = 0
    a1, a2 = abs(x), abs(y)
    x2 = a2 / M_SIN60
    x1 = a1 + x2 / 2.0
    m1, m2 = int(x1), int(x2)
    r1, r2 = x1 - m1, x2 - m2
    if r1 < 0.5:
        if r1 < 1.0 / 3.0:
            i = m1
            j = m2 if r2 < (1.0 + r1) / 2.0 else m2 + 1
        else:
            j = m2 if r2 < (1.0 - r1) else m2 + 1
            i = m1 + 1 if (1.0 - r1) <= r2 < (2.0 * r1) else m1
    else:
        if r1 < 2.0 / 3.0:
            j = m2 if r2 < (1.0 - r1) else m2 + 1
            i = m1 if (2.0 * r1 - 1.0) < r2 < (1.0 - r1) else m1 + 1
        else:
            i = m1 + 1
            j = m2 if r2 < (r1 / 2.0) else m2 + 1
    if x < 0.0:
        if j % 2 == 0:
            i = i - 2 * (i - j // 2)
        else:
            i = i - (2 * (i - (j + 1) // 2) + 1)
    if y < 0.0:
        i = i - (2 * j + 1) // 2
        j = -j
    return norm_ijk(i, j, k)


def raw_encode(lat, lng, res):
    v = np.array([np.cos(lat) * np.cos(lng), np.cos(lat) * np.sin(lng),
                  np.sin(lat)])
    face = int(np.argmax(P @ v))
    r = np.arccos(min(float(P[face] @ v), 1.0))
    if r < 1e-16:
        x = y = 0.0
    else:
        theta = (AZ0[face] - (_geo_az(FACE_CENTER_GEO[face][0],
                                      FACE_CENTER_GEO[face][1], lat, lng)
                              % TWO_PI)) % TWO_PI
        if res % 2 == 1:
            theta = (theta - M_AP7_ROT_RADS) % TWO_PI
        gr = np.tan(r) / RES0_U_GNOMONIC * _SCALE[res]
        x, y = gr * np.cos(theta), gr * np.sin(theta)
    ijk = hex2d_to_ijk(x, y)
    digits = []
    for level in range(res, 0, -1):
        last = ijk
        i2, j2 = ijk[0] - ijk[2], ijk[1] - ijk[2]
        if level % 2 == 1:
            up = norm_ijk(int(np.round((3 * i2 - j2) / 7.0)),
                          int(np.round((i2 + 2 * j2) / 7.0)), 0)
            c = norm_ijk(3 * up[0] + up[1], 3 * up[1] + up[2],
                         up[0] + 3 * up[2])
        else:
            up = norm_ijk(int(np.round((2 * i2 + j2) / 7.0)),
                          int(np.round((3 * j2 - i2) / 7.0)), 0)
            c = norm_ijk(3 * up[0] + up[2], up[0] + 3 * up[1],
                         up[1] + 3 * up[2])
        ijk = up
        digits.append(UNIT_DIGIT[norm_ijk(last[0] - c[0], last[1] - c[1],
                                          last[2] - c[2])])
    digits.reverse()
    return face, ijk, digits


def leading_nonzero(dig):
    for d in dig:
        if d:
            return d
    return 0


def rotate_pent60ccw(dig):
    dig = list(dig)
    found = False
    for r in range(len(dig)):
        dig[r] = ROT_CCW[dig[r]]
        if not found and dig[r] != 0:
            found = True
            if leading_nonzero(dig) == 1:
                dig = rotate_pent60ccw(dig)
    return dig


def apply_finish(bc, digits, rot, cw):
    dig = list(digits)
    if bc in PENTAGONS:
        if leading_nonzero(dig) == 1:
            dig = [ROT_CW[d] if cw else ROT_CCW[d] for d in dig]
        for _ in range(rot):
            dig = rotate_pent60ccw(dig)
    else:
        for _ in range(rot):
            dig = [ROT_CCW[d] for d in dig]
    return bc, tuple(dig)


SOLVED = {(fh, *ijkh): 0 for fh, ijkh in homes.values()}
CW = {}
ODD_RES = (5, 7, 9)

print("stage 4: generating cross-face constraints...")
exp_nn = np.sqrt(5) / 3
near = np.logspace(-6.2, -1.0, 64)
ts = np.concatenate([np.linspace(0.012, 0.988, 160), near, 1.0 - near])
CONS = []
for a in range(20):
    for b in range(a + 1, 20):
        if abs(float(P[a] @ P[b]) - exp_nn) > 1e-9:
            continue
        da = VERTS @ P[a]
        db = VERTS @ P[b]
        shared = np.nonzero((da > 0.75) & (db > 0.75))[0]
        v1, v2 = VERTS[shared[0]], VERTS[shared[1]]
        nperp = np.cross(v1, v2)
        nperp /= np.linalg.norm(nperp)
        for t in ts:
            m = v1 * (1 - t) + v2 * t
            m /= np.linalg.norm(m)
            p1 = m + 2e-9 * nperp
            p2 = m - 2e-9 * nperp
            g1 = _geo_of(p1 / np.linalg.norm(p1))
            g2 = _geo_of(p2 / np.linalg.norm(p2))
            for res in ODD_RES:
                f1, ijk1, d1 = raw_encode(*g1, res)
                f2, ijk2, d2 = raw_encode(*g2, res)
                k1, k2 = (f1, *ijk1), (f2, *ijk2)
                if k1 == k2 or BC_OF[k1] != BC_OF[k2]:
                    continue
                CONS.append(((k1, tuple(d1)), (k2, tuple(d2))))
print(f"  constraints: {len(CONS)}")


def usable(k, d):
    if k not in SOLVED:
        return False
    return not (BC_OF[k] in PENTAGONS and leading_nonzero(list(d)) == 1
                and k not in CW)


for cycle in range(8):
    votes = defaultdict(Counter)
    votes_cw = defaultdict(Counter)
    inconsistent = 0
    for (k1, d1), (k2, d2) in CONS:
        bc = BC_OF[k1]
        u1, u2 = usable(k1, d1), usable(k2, d2)
        if u1 and u2:
            if (apply_finish(bc, d1, SOLVED[k1], CW.get(k1, False))
                    != apply_finish(bc, d2, SOLVED[k2], CW.get(k2, False))):
                inconsistent += 1
            continue
        if u1 == u2:
            continue
        if u1:
            target = apply_finish(bc, d1, SOLVED[k1], CW.get(k1, False))
            kk, dd = k2, d2
        else:
            target = apply_finish(bc, d2, SOLVED[k2], CW.get(k2, False))
            kk, dd = k1, d1
        lead1 = bc in PENTAGONS and leading_nonzero(list(dd)) == 1
        if kk in SOLVED:
            rots = (SOLVED[kk],)
        elif bc in PENTAGONS:
            rots = range(5)      # rotate_pent60ccw^5 == identity
        else:
            rots = range(6)
        ok = [(r, c) for r in rots
              for c in ((False, True) if lead1 else (False,))
              if apply_finish(bc, dd, r, c) == target]
        rset = {r for r, _ in ok}
        cset = {c for _, c in ok}
        if kk not in SOLVED and len(rset) == 1:
            votes[kk][rset.pop()] += 1
        if lead1 and kk not in CW and len(cset) == 1:
            votes_cw[kk][cset.pop()] += 1
    newly = newcw = 0
    for kk, ctr in votes.items():
        (best, cnt), *_ = ctr.most_common(1)
        total = sum(ctr.values())
        if kk not in SOLVED and (cnt >= 2 and cnt / total >= 0.7
                                 or cnt == 1 and total == 1):
            SOLVED[kk] = best
            newly += 1
    for kk, ctr in votes_cw.items():
        (best, cnt), *_ = ctr.most_common(1)
        if kk not in CW and cnt / sum(ctr.values()) >= 0.7:
            CW[kk] = best
            newcw += 1
    print(f"  cycle {cycle}: solved {len(SOLVED)}/{len(BC_OF)} (+{newly}), "
          f"cw +{newcw}, inconsistent {inconsistent}")
    if newly == 0 and newcw == 0:
        assert inconsistent == 0, "constraint system inconsistent"
        break

# ---------------------------------------------------------------- stage 5
print("stage 5: reachability audit + baked-table comparison...")
rng = np.random.default_rng(7)
pts = rng.normal(size=(20000, 3))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
extra = []
for v in VERTS:
    t1 = np.cross(v, [0.0, 0.0, 1.0])
    if np.linalg.norm(t1) < 1e-6:
        t1 = np.cross(v, [1.0, 0.0, 0.0])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(v, t1)
    for rad in np.logspace(-6, -0.7, 40):
        for ang in np.linspace(0, TWO_PI, 24, endpoint=False):
            p = v + rad * (np.cos(ang) * t1 + np.sin(ang) * t2)
            extra.append(p / np.linalg.norm(p))
pts = np.vstack([pts, np.array(extra)])
unsolved_used = set()
cw_undecided = set()
for p in pts:
    lat, lng = _geo_of(p)
    for res in (0, 4, 5, 6, 7, 8, 9):
        f, ijk0, d = raw_encode(lat, lng, res)
        key = (f, *ijk0)
        if key not in SOLVED:
            unsolved_used.add(key)
        elif (BC_OF[key] in PENTAGONS and leading_nonzero(d) == 1
              and key not in CW):
            cw_undecided.add(key)
assert not unsolved_used, unsolved_used
assert not cw_undecided, cw_undecided

nbad = 0
for (f, i, j, k), bc in BC_OF.items():
    if (f, i, j, k) in SOLVED:
        if (int(BC_TABLE[f, i, j, k]) != bc
                or int(ROT_TABLE[f, i, j, k]) != SOLVED[(f, i, j, k)]
                or int(CW_TABLE[f, i, j, k]) != int(CW.get((f, i, j, k),
                                                           False))):
            print("  baked-table mismatch at", (f, i, j, k))
            nbad += 1
    else:
        if int(BC_TABLE[f, i, j, k]) != -1:
            print("  baked table has a value for unsolved entry",
                  (f, i, j, k))
            nbad += 1
assert nbad == 0
print("  derived tables == baked tables")

VECTORS = [
    (37.3615593, -122.0553238, 5, "85283473fffffff"),
    (37.3615593, -122.0553238, 7, "87283472bffffff"),
    (37.7752702151959257, -122.418307270836983, 9, "8928308280fffff"),
    (0.0, 0.0, 0, "8075fffffffffff"),
]
for lat, lng, res, exp in VECTORS:
    got = encode_scalar(lat, lng, res)
    assert format(got, "x") == exp, (res, format(got, "x"), exp)
print("  public test vectors byte-exact")
print("ALL OK")
