"""Raster<->vector operators (stages/raster.py): brute-force histogram
equality, zonal conservation, and the crossing-number-vs-floor PIP
agreement on every cell center."""

from __future__ import annotations

import numpy as np

from maskmypy_ray.constants import (
    GRID_NX,
    GRID_NY,
    X_MAX,
    X_MIN,
    Y_MAX,
    Y_MIN,
)
from maskmypy_ray.stages.raster import RASTER_H, RASTER_W


def test_rasterize_matches_numpy_histogram(ray_session, sf_dir):
    from maskmypy_ray.pipelines import masked_ds, q_rasterize_points

    pts = masked_ds(sf_dir, "uniform").select_columns(["mx", "my"]) \
        .to_pandas()
    rw = (X_MAX - X_MIN) / RASTER_W
    rh = (Y_MAX - Y_MIN) / RASTER_H
    col = np.clip(np.floor((pts["mx"].to_numpy() - X_MIN) / rw)
                  .astype(np.int64), 0, RASTER_W - 1)
    row = np.clip(np.floor((pts["my"].to_numpy() - Y_MIN) / rh)
                  .astype(np.int64), 0, RASTER_H - 1)
    exp = np.bincount(row * RASTER_W + col, minlength=RASTER_W * RASTER_H)

    got = q_rasterize_points(sf_dir).to_pandas()
    g = np.zeros(RASTER_W * RASTER_H, dtype=np.int64)
    g[got["cell_row"].to_numpy() * RASTER_W + got["cell_col"].to_numpy()] \
        = got["n"].to_numpy()
    assert np.array_equal(g, exp)
    assert got["n"].sum() == len(pts)  # every point lands in a cell
    assert (got["n"] > 0).all()  # empty cells are not emitted


def test_zonal_conserves_and_pip_agrees(ray_session, sf_dir):
    from maskmypy_ray.pipelines import q_rasterize_points, q_zonal_stats
    from maskmypy_ray.sources.boundary import boundary_polygon_set

    raster = q_rasterize_points(sf_dir).to_pandas()
    zonal = q_zonal_stats(sf_dir).to_pandas()
    assert zonal["n_points"].sum() == raster["n"].sum()
    assert zonal["n_cells"].sum() == len(raster)
    assert (zonal["poly_id"] >= 0).all()  # grid tiles the bbox

    # crossing-number PIP == closed-form floor lookup on EVERY center
    ps = boundary_polygon_set(42)
    rw = (X_MAX - X_MIN) / RASTER_W
    rh = (Y_MAX - Y_MIN) / RASTER_H
    col = np.arange(RASTER_W * RASTER_H) % RASTER_W
    row = np.arange(RASTER_W * RASTER_H) // RASTER_W
    cx = X_MIN + (col + 0.5) * rw
    cy = Y_MIN + (row + 0.5) * rh
    pid = ps.locate(cx, cy)
    pw = (X_MAX - X_MIN) / GRID_NX
    ph = (Y_MAX - Y_MIN) / GRID_NY
    exp = (np.floor((cy - Y_MIN) / ph).astype(np.int64) * GRID_NX
           + np.floor((cx - X_MIN) / pw).astype(np.int64))
    assert np.array_equal(pid, exp)


def _brute_knn(pts, ad, k):
    import pandas as pd

    from maskmypy_ray.geokernels.geometry import latlon_to_xy

    ax, ay = latlon_to_xy(ad["lat"].to_numpy(), ad["lon"].to_numpy())
    aid = ad["addr_id"].to_numpy()
    rows = []
    for did, mx, my in zip(pts["doc_id"], pts["mx"], pts["my"]):
        dx, dy = mx - ax, my - ay
        d2 = dx * dx + dy * dy
        for r, i in enumerate(np.lexsort((aid, d2))[:k]):
            rows.append((did, r + 1, aid[i], d2[i]))
    return pd.DataFrame(rows, columns=["doc_id", "rank", "addr_id",
                                       "dist2"]) \
        .sort_values(["doc_id", "rank"]).reset_index(drop=True)


def test_knn_join_matches_brute_force(ray_session, sf_dir):
    """knn_join (ring-expansion broadcast kernel) equals the O(P*A)
    brute force on ids AND exact float distances."""
    import pandas as pd

    from maskmypy_ray.analysis.knn import knn_join
    from maskmypy_ray.pipelines import SEED, masked_ds
    from maskmypy_ray.sources.webpages import read_addresses

    got = knn_join(masked_ds(sf_dir, "uniform"),
                   read_addresses(sf_dir, seed=SEED), k=3).to_pandas() \
        .sort_values(["doc_id", "rank"]).reset_index(drop=True)
    pts = masked_ds(sf_dir, "uniform") \
        .select_columns(["doc_id", "mx", "my"]).to_pandas()
    exp = _brute_knn(pts, read_addresses(sf_dir, seed=SEED).to_pandas(), 3)
    pd.testing.assert_frame_equal(got, exp)


def test_knn_join_far_points(ray_session, sf_dir):
    """Points 20 km and 200 km outside the address cloud, next to
    ordinary points, resolve after ring doublings (a 100 m index takes
    ordinary points through rings 2-8): each doubling gathers just its
    annulus and merges it with the carried top-k, and a point whose next
    ring block holds as many cells as there are addresses is ranked
    against all of them. The result equals brute force on ids and exact
    dist2 at both index sizes, the 200 km points included."""
    import pandas as pd
    import ray.data

    from maskmypy_ray.analysis.knn import knn_join
    from maskmypy_ray.geokernels.geometry import latlon_to_xy
    from maskmypy_ray.pipelines import SEED, masked_ds
    from maskmypy_ray.sources.webpages import read_addresses

    ad = read_addresses(sf_dir, seed=SEED).to_pandas()
    ax, ay = latlon_to_xy(ad["lat"].to_numpy(), ad["lon"].to_numpy())
    near = masked_ds(sf_dir, "uniform") \
        .select_columns(["doc_id", "mx", "my"]).to_pandas().head(40)
    far = pd.DataFrame({
        "doc_id": near["doc_id"].max() + 1 + np.arange(4),
        "mx": [ax.max() + 20_000.0, ax.mean(), ax.min() - 200_000.0,
               ax.max() + 150_000.0],
        "my": [ay.mean(), ay.min() - 20_000.0, ay.mean(),
               ay.max() + 150_000.0],
    })
    pts = pd.concat([near, far], ignore_index=True)
    for cell_m in (500.0, 100.0):
        got = knn_join(ray.data.from_pandas(pts),
                       read_addresses(sf_dir, seed=SEED), k=3,
                       cell_m=cell_m).to_pandas() \
            .sort_values(["doc_id", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, _brute_knn(pts, ad, 3))
