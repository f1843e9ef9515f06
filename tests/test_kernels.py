import warnings

import numpy as np
import pytest

from maskmypy_ray.analysis.k_anonymity import circle_polygon_area_exact
from maskmypy_ray.geokernels import cells as cells_mod
from maskmypy_ray.geokernels.cells import (
    cell_of_xy,
    cell_xy_components,
    cover_circle_xy,
    halo_of_xy,
    halo_pair_d2,
    neighbors_xy,
)
from maskmypy_ray.geokernels.geometry import (
    latlon_to_xy,
    nearest_point_on_segments,
    planar_distance,
    xy_to_latlon,
)
from maskmypy_ray.geokernels.pip import PolygonSet


def test_halo_of_xy_is_the_ring_with_one_home_row():
    rng = np.random.default_rng(3)
    x = np.r_[rng.uniform(-3000, 3000, 50), 0.0, 500.0, -500.0]
    y = np.r_[rng.uniform(-3000, 3000, 50), 500.0, -1000.0, 0.0]
    rep, cell, home = halo_of_xy(x, y, 500.0)
    own = cell_of_xy(x, y, 500.0)
    assert np.array_equal(rep, np.repeat(np.arange(len(x)), 9))
    assert np.array_equal(cell, neighbors_xy(own, 1).ravel())
    assert np.array_equal(np.bincount(rep[home], minlength=len(x)),
                          np.ones(len(x)))
    assert np.array_equal(cell[home], own)


def _pair_rows(cell, core, x, y, key=None, cand=None):
    """{(core row, candidate row): d2} from the chunked pair loop."""
    out = {}
    for ci, gi, d2 in halo_pair_d2(cell, core, x, y, key, cand):
        assert d2.shape == (len(ci), len(gi))
        for i, c in enumerate(ci):
            for j, g in enumerate(gi):
                assert (c, g) not in out
                out[(int(c), int(g))] = d2[i, j]
    return out


@pytest.mark.parametrize("max_pairs", [1, 5, 4_000_000])
def test_halo_pair_d2_chunking_matches_unchunked(monkeypatch, max_pairs):
    """Each core row meets each (candidate) row of its cell segment once,
    with the unchunked (a - b) ** 2 distances, at any chunk bound."""
    rng = np.random.default_rng(5)
    cell = np.sort(rng.integers(0, 6, 60))
    core = rng.random(60) < 0.5
    cand = rng.random(60) < 0.7
    key = rng.integers(0, 40, 60)
    x, y = rng.uniform(-9, 9, 60), rng.uniform(-9, 9, 60)
    full = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    monkeypatch.setattr(cells_mod, "MAX_PAIRS", max_pairs)
    for kw in ({}, {"key": key}, {"key": key, "cand": cand}):
        got = _pair_rows(cell, core, x, y, **kw)
        want = {}
        for c in np.flatnonzero(core):
            for g in np.flatnonzero(cell == cell[c]):
                if "cand" in kw and not cand[g]:
                    continue
                same = "key" in kw and key[c] == key[g]
                want[(int(c), int(g))] = np.inf if same else full[c, g]
        assert got == want


def test_projection_roundtrip():
    lat = np.array([49.21, 49.24, 49.269999])
    lon = np.array([-123.19, -123.13, -123.070001])
    x, y = latlon_to_xy(lat, lon)
    lat2, lon2 = xy_to_latlon(x, y)
    assert np.allclose(lat, lat2) and np.allclose(lon, lon2)
    # ~1 degree lat ~ 111 km
    x0, y0 = latlon_to_xy(np.array([49.24]), np.array([-123.13]))
    assert x0[0] == 0.0 and y0[0] == 0.0


def test_planar_distance():
    assert planar_distance(0, 0, 3, 4) == 5.0


def test_pip_rectangle_and_concave():
    # unit square
    ps = PolygonSet([(np.array([0, 1, 1, 0.]), np.array([0, 0, 1, 1.]))])
    x = np.array([0.5, 1.5, -0.1, 0.0, 0.999])
    y = np.array([0.5, 0.5, 0.5, 0.5, 0.999])
    got = ps.contains(0, x, y)
    assert list(got) == [True, False, False, True, True]
    # concave L-shape: [0,2]x[0,2] minus [1,2]x[1,2]
    L = PolygonSet([(np.array([0, 2, 2, 1, 1, 0.]), np.array([0, 0, 1, 1, 2, 2.]))])
    x = np.array([0.5, 1.5, 1.5, 0.5])
    y = np.array([0.5, 0.5, 1.5, 1.5])
    assert list(L.contains(0, x, y)) == [True, True, False, True]


def test_pip_locate_nonoverlapping():
    ps = PolygonSet([
        (np.array([0, 1, 1, 0.]), np.array([0, 0, 1, 1.])),
        (np.array([1, 2, 2, 1.]), np.array([0, 0, 1, 1.])),
    ], poly_ids=[10, 20])
    x = np.array([0.5, 1.5, 5.0])
    y = np.array([0.5, 0.5, 0.5])
    assert list(ps.locate(x, y)) == [10, 20, -1]


def test_polygon_area():
    ps = PolygonSet([(np.array([0, 2, 2, 0.]), np.array([0, 0, 3, 3.]))])
    assert ps.area(0) == 6.0


def test_circle_polygon_area_exact_cases():
    big = (np.array([-10, 10, 10, -10.]), np.array([-10, -10, 10, 10.]))
    assert np.isclose(circle_polygon_area_exact(0, 0, 1, *big), np.pi)
    unit = (np.array([0, 1, 1, 0.]), np.array([0, 0, 1, 1.]))
    assert np.isclose(circle_polygon_area_exact(0, 0, 1, *unit), np.pi / 4)
    # circle entirely outside
    assert circle_polygon_area_exact(5, 5, 0.5, *unit) == 0.0
    # polygon entirely inside circle
    assert np.isclose(circle_polygon_area_exact(0.5, 0.5, 10, *unit), 1.0)


def test_edge_contrib_matches_scalar_kernel():
    """The vectorized edge-array kernel equals the scalar reference
    implementation on randomized circle/polygon configurations covering
    every branch (in-in, sector, entry, exit, chord-through)."""
    from maskmypy_ray.analysis.k_anonymity import _edge_contrib

    rng = np.random.default_rng(11)
    for _ in range(200):
        nv = int(rng.integers(3, 9))
        ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
        rad = rng.uniform(0.5, 3.0, nv)
        rx = rad * np.cos(ang)
        ry = rad * np.sin(ang)
        cx, cy = rng.uniform(-2, 2, 2)
        r = float(rng.uniform(0.1, 3.0))
        expect = circle_polygon_area_exact(cx, cy, r, rx, ry)
        px, py = rx - cx, ry - cy
        qx, qy = np.roll(rx, -1) - cx, np.roll(ry, -1) - cy
        got = abs(_edge_contrib(px, py, qx, qy, np.full(nv, r)).sum())
        assert np.isclose(got, expect, rtol=1e-9, atol=1e-12), (got, expect)


def test_cells_roundtrip_and_cover():
    x = np.array([0.0, 499.9, 500.0, -0.1])
    y = np.array([0.0, 0.0, 0.0, 0.0])
    c = cell_of_xy(x, y, 500.0)
    gx, gy = cell_xy_components(c)
    assert list(gx) == [0, 0, 1, -1]
    nb = neighbors_xy(c[:1], ring=1)
    assert nb.shape == (1, 9)
    assert c[0] in nb[0]
    ann = neighbors_xy(c[:1], ring=2, inner=1)  # ring-2 block minus 3x3
    assert sorted(ann[0]) == sorted(set(neighbors_xy(c[:1], ring=2)[0])
                                    - set(nb[0]))
    # circle cover contains the point's own cell and all overlapping ones
    row, cells = cover_circle_xy(np.array([250.0]), np.array([250.0]),
                                 np.array([300.0]), 500.0)
    assert set(row) == {0}
    assert c[0] in set(cells)
    assert len(cells) == 9  # bbox [-50,550]^2 covers 3x3 cells
    row2, cells2 = cover_circle_xy(np.array([250.0]), np.array([250.0]),
                                   np.array([100.0]), 500.0)
    assert len(cells2) == 1  # bbox [150,350]^2 stays in one cell


def test_nearest_point_on_segments():
    qx, qy, d2 = nearest_point_on_segments(
        0.0, 1.0, np.array([-1.0]), np.array([0.0]), np.array([1.0]), np.array([0.0]))
    assert qx[0] == 0.0 and qy[0] == 0.0 and d2[0] == 1.0


def test_segmented_pair_indices_matches_bruteforce():
    from itertools import combinations

    from maskmypy_ray.util import segmented_pair_indices

    rng = np.random.default_rng(7)
    for trial in range(20):
        n_runs = int(rng.integers(1, 12))
        lens = rng.integers(1, 9, size=n_runs)
        new = np.zeros(int(lens.sum()), dtype=bool)
        new[np.concatenate([[0], np.cumsum(lens)[:-1]])] = True
        ia, ib = segmented_pair_indices(new)
        want = []
        start = 0
        for ln in lens:
            want.extend(combinations(range(start, start + int(ln)), 2))
            start += int(ln)
        got = sorted(zip(ia.tolist(), ib.tolist()))
        assert got == sorted(want)
        assert (ia < ib).all() if len(ia) else True
    # empty input
    ia, ib = segmented_pair_indices(np.zeros(0, dtype=bool))
    assert len(ia) == 0 and len(ib) == 0


def test_sorted_member_mask_matches_isin():
    from maskmypy_ray.util import sorted_member_mask

    rng = np.random.default_rng(11)
    for trial in range(10):
        members = np.unique(rng.integers(0, 50, size=rng.integers(0, 20)))
        probe = rng.integers(-5, 60, size=rng.integers(0, 40)).astype(np.int64)
        got = sorted_member_mask(members.astype(np.int64), probe)
        want = np.isin(probe, members)
        assert (got == want).all()


def test_pair_ids_ref_distinct_sorted(ray_session):
    import ray
    import ray.data as rd

    from maskmypy_ray.util import pair_ids_ref

    pairs = rd.from_items([
        {"doc_a": 3, "doc_b": 7}, {"doc_a": 7, "doc_b": 9},
        {"doc_a": 3, "doc_b": 9}, {"doc_a": 1, "doc_b": 3},
    ]).materialize()
    ids = ray.get(pair_ids_ref(pairs, "doc_a", "doc_b"))
    assert ids.tolist() == [1, 3, 7, 9]
    # empty pair set -> empty member array
    empty = rd.from_items([{"doc_a": 1, "doc_b": 2}]) \
        .filter(lambda r: False).materialize()
    assert len(ray.get(pair_ids_ref(empty, "doc_a", "doc_b"))) == 0


def _knn_index_xy(ax, ay, aid, icell):
    """The ``_compile_knn_index`` tuple, built without Ray."""
    cells = cell_of_xy(ax, ay, icell)
    o = np.argsort(cells, kind="stable")
    return cells[o], ax[o], ay[o], aid[o].astype(np.int64), icell


def _brute_knn_xy(ax, ay, aid, mx, my, keys, k):
    """Per point, a lexsort of every address by (dist2, addr_id)."""
    rows = []
    for key, x, y in zip(keys, mx, my):
        dx, dy = x - ax, y - ay
        d2 = dx * dx + dy * dy
        for r, i in enumerate(np.lexsort((aid, d2))[:k]):
            rows.append((key, r + 1, aid[i], d2[i]))
    if not rows:
        return (np.empty(0, np.int64),) * 3 + (np.empty(0),)
    key, rank, ids, d2 = zip(*rows)
    return (np.array(key, np.int64), np.array(rank, np.int64),
            np.array(ids, np.int64), np.array(d2))


def _knn_fixture():
    """Addresses over a 5 km square with shuffled ids, 300 of them
    duplicated and 50 of those twice (exact dist2 ties broken by
    addr_id), and a hot 100 m cell holding 250; points spread over it,
    on duplicated addresses, inside the hot cell, 20 km and 200 km out,
    and one at NaN."""
    rng = np.random.default_rng(11)
    ax = rng.uniform(0.0, 5000.0, 2000)
    ay = rng.uniform(0.0, 5000.0, 2000)
    dup = rng.choice(2000, 300, replace=False)
    ax, ay = np.r_[ax, ax[dup], ax[dup[:50]]], np.r_[ay, ay[dup], ay[dup[:50]]]
    ax = np.r_[ax, rng.uniform(2000.0, 2099.0, 250)]
    ay = np.r_[ay, rng.uniform(3000.0, 3099.0, 250)]
    aid = rng.permutation(len(ax)).astype(np.int64) * 3 + 7
    mx = np.r_[rng.uniform(-200.0, 5200.0, 300), ax[dup[:80]],
               rng.uniform(2000.0, 2099.0, 40),
               5000.0 + 20_000.0, 2500.0, -200_000.0, np.nan]
    my = np.r_[rng.uniform(-200.0, 5200.0, 300), ay[dup[:80]],
               rng.uniform(3000.0, 3099.0, 40),
               2500.0, -20_000.0, 2500.0, np.nan]
    keys = rng.permutation(len(mx)).astype(np.int64) + 1000
    return ax, ay, aid, mx, my, keys


@pytest.mark.parametrize("k", [1, 3, 8])
def test_knn_batch_matches_brute_force(monkeypatch, k):
    """``_knn_batch`` on a 100 m index equals a numpy brute force on ids,
    ranks and exact dist2, with ties, a hot cell, far points that finish
    in ``_knn_all``, a NaN point (k rows: the smallest addr_ids, NaN
    dist2), fewer addresses than k, and an empty batch."""
    from maskmypy_ray.analysis import knn

    ranked_all = []
    knn_all = knn._knn_all

    def spy(idx, mx, my, keys, k, unres, out, filled):
        ranked_all.extend(keys[unres])
        return knn_all(idx, mx, my, keys, k, unres, out, filled)

    monkeypatch.setattr(knn, "_knn_all", spy)
    ax, ay, aid, mx, my, keys = _knn_fixture()

    def check(ax, ay, aid, mx, my, keys):
        got = knn._knn_batch(_knn_index_xy(ax, ay, aid, 100.0),
                             mx, my, keys, k)
        want = _brute_knn_xy(ax, ay, aid, mx, my, keys, k)
        o, p = np.lexsort((got[1], got[0])), np.lexsort((want[1], want[0]))
        for g, w in zip((a[o] for a in got), (a[p] for a in want)):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    # a NaN point is ranked without a cell: no RuntimeWarning anywhere
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        check(ax, ay, aid, mx, my, keys)
        assert set(keys[-4:]) <= set(ranked_all)
        nan_rows = _brute_knn_xy(ax, ay, aid, mx[-1:], my[-1:], keys[-1:], k)
        assert np.array_equal(nan_rows[2], np.sort(aid)[:k])
        assert np.isnan(nan_rows[3]).all()
        check(ax[:2], ay[:2], aid[:2], mx[:20], my[:20], keys[:20])
        check(ax, ay, aid, mx[:0], my[:0], keys[:0])
