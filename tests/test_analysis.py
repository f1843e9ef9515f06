"""Analysis golden tests — ports of /root/reference/tests/test_analysis.py.

Golden k expectations are EXACT-CIRCLE values. The reference's values
(3,5,6,2,8) bake in shapely's 32-gon buffer float artifacts (its east
vertex lands exactly on (r,0) while ``sin(pi)=1.2e-16`` pushes the west
vertex off-axis, excluding the due-west boundary address). This engine's
documented semantic is the exact circle ``dist <= r``, which includes both
boundary addresses: expectations below adjust accordingly.
"""

import numpy as np
import pyarrow as pa
import pytest


def _points_with_mask(x, y, mx, my):
    n = len(x)
    return pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "x": pa.array(np.asarray(x, dtype=np.float64)),
        "y": pa.array(np.asarray(y, dtype=np.float64)),
        "mx": pa.array(np.asarray(mx, dtype=np.float64)),
        "my": pa.array(np.asarray(my, dtype=np.float64)),
    })


def test_displacement_translate_50(ray_session, points_table):
    """Translate by (+50, 0): all displacement stats exactly 50
    (reference test_analysis.py:28-35)."""
    import ray.data

    from maskmypy_ray.analysis.displacement import displacement, summarize_displacement

    x = points_table.column("x").to_numpy()
    y = points_table.column("y").to_numpy()
    t = _points_with_mask(x, y, x + 50.0, y)
    ds = ray.data.from_arrow(t)
    s = summarize_displacement(displacement(ds))
    assert s == {"displacement_min": 50.0, "displacement_max": 50.0,
                 "displacement_med": 50.0, "displacement_mean": 50.0}


def test_central_drift_translate_50(ray_session, points_table):
    """central_drift == 50 after (+50, 0) translate (test_analysis.py:129-133)."""
    import ray.data

    from maskmypy_ray.analysis.aggregates import central_drift

    x = points_table.column("x").to_numpy()
    y = points_table.column("y").to_numpy()
    ds = ray.data.from_arrow(_points_with_mask(x, y, x + 50.0, y))
    assert central_drift(ds) == 50.0


def test_nnd_delta_translate_50(ray_session, points_table):
    """Translate preserves the pattern: all nnd deltas 0
    (test_analysis.py:163-169)."""
    import ray.data

    from maskmypy_ray.analysis.nnd import nnd_delta

    x = points_table.column("x").to_numpy()
    y = points_table.column("y").to_numpy()
    ds = ray.data.from_arrow(_points_with_mask(x, y, x + 50.0, y))
    d = nnd_delta(ds)
    assert d == {"nnd_min_delta": 0.0, "nnd_max_delta": 0.0, "nnd_mean_delta": 0.0}


def test_nnd_per_point_matches_brute_force(ray_session):
    """Exact nearest-neighbor distances against a numpy brute force: an
    isolated point more than cell_m from all others (the fallback pass),
    two coincident points with different keys (nnd 0), points exactly
    on cell edges and negative coordinates."""
    import ray.data

    from maskmypy_ray.analysis.nnd import nnd_per_point

    rng = np.random.default_rng(2)
    x = np.r_[rng.uniform(-2500, 2500, 40), 9000.0, 120.5, 120.5,
              0.0, 1000.0, -1000.0, 2000.0]
    y = np.r_[rng.uniform(-2500, 2500, 40), -9000.0, -75.0, -75.0,
              1000.0, 1000.0, -1000.0, -2000.0]
    keys = np.arange(len(x), dtype=np.int64) * 3 + 1
    ds = ray.data.from_arrow(pa.table({"doc_id": keys, "x": x, "y": y}))
    got = nnd_per_point(ds, cell_m=1000.0).to_pandas().sort_values("key")
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    assert got["key"].tolist() == keys.tolist()
    assert np.array_equal(got["nnd"].to_numpy(), np.sqrt(d2.min(axis=1)))
    assert got["nnd"].iloc[40] > 1000.0  # resolved by the fallback pass
    assert got["nnd"].iloc[41] == got["nnd"].iloc[42] == 0.0


def test_calculate_k_golden_line(ray_session):
    """Address line golden cases (test_analysis.py:38-82), exact-circle
    expectations (west boundary address included; see module docstring)."""
    import ray.data

    from maskmypy_ray.analysis.displacement import displacement
    from maskmypy_ray.analysis.k_anonymity import calculate_k

    addr = pa.table({
        "addr_id": pa.array(np.arange(7), type=pa.int64()),
        "ax": pa.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]),
        "ay": pa.array([0.0] * 7),
    })
    cases = [
        # (sensitive, masked, expected exact-circle k)
        ((0.0, 0.0), (1.0, 0.0), 4),   # addrs 0,1,2 in radius-1 circle; ref: 3
        ((0.0, 0.0), (2.0, 0.0), 6),   # addrs 0..4; ref: 5
        ((0.0, 0.0), (3.0, 0.0), 7),   # addrs 0..5; ref: 6
        ((0.0, 0.0), (-1.0, 0.0), 2),  # addr 0 only; ref: 2
        ((-7.0, 0.0), (0.0, 0.0), 8),  # addrs 0..5,7; ref: 8
    ]
    for (sx, sy), (mx, my), expected in cases:
        pts = ray.data.from_arrow(_points_with_mask([sx], [sy], [mx], [my]))
        k = calculate_k(displacement(pts), ray.data.from_arrow(addr),
                        cell_m=8.0).to_pandas()
        assert k["k_anonymity"].iloc[0] == expected, ((sx, mx), expected)


def test_estimate_k_golden_quadrants():
    """Polygon population golden cases (test_analysis.py:84-126),
    exact-circle area (expected via pi*r^2 closed forms)."""
    from maskmypy_ray.analysis.k_anonymity import ArealKEstimator
    from maskmypy_ray.geokernels.pip import PolygonSet

    polys = PolygonSet(
        [
            (np.array([0, 0, 1, 1.]), np.array([0, 1, 1, 0.])),      # pop 1
            (np.array([0, 1, 1, -1.]), np.array([0, 0, -1, 0.])),    # pop 10
            (np.array([0, 0, -1, -1.]), np.array([0, -1, -1, 0.])),  # pop 100
            (np.array([0, -1, -1, 0.]), np.array([0, 0, 1, 1.])),    # pop 1000
        ],
        pops=[1, 10, 100, 1000],
    )
    est = ArealKEstimator(polys)

    def k_of(sx, sy, mx, my):
        d = float(np.hypot(mx - sx, my - sy))
        batch = pa.table({
            "doc_id": pa.array([0], type=pa.int64()),
            "mx": pa.array([mx], type=pa.float64()),
            "my": pa.array([my], type=pa.float64()),
            "_distance": pa.array([d], type=pa.float64()),
        })
        return est(batch).column("k_anonymity")[0].as_py()

    # circle radius 3 at origin covers everything: k = sum(pops)
    assert k_of(3.0, 0.0, 0.0, 0.0) == 1111
    # radius-1 circle at (-1,1): quarter overlaps only the pop-1000 square
    assert k_of(0.0, 1.0, -1.0, 1.0) == int(np.floor(1000 * np.pi / 4))
    # Radius-1 circle at origin. The reference test assumes all four
    # polygons get pi/4 coverage, but its poly10 is NOT a quadrant square
    # (vertices (0,0),(1,0),(1,-1),(-1,0)); the exact overlap is
    # A10 = int_{-1}^{0.6} (x+1)/2 dx + int_{0.6}^{1} sqrt(1-x^2) dx
    #     = 0.64 + (pi/2 - 0.48 - asin(0.6))/2.
    a10 = 0.64 + (np.pi / 2 - 0.48 - np.arcsin(0.6)) / 2
    expected = int(np.floor((1 + 100 + 1000) * np.pi / 4 + 10 * a10))
    assert k_of(1.0, 0.0, 0.0, 0.0) == expected == 873


def test_k_satisfaction_brackets(ray_session, sf_dir):
    """k_satisfaction brackets over the fixture (test_analysis.py:10-18,
    thresholds adapted to the synthetic address density)."""
    from maskmypy_ray.pipelines import k_ds

    k = k_ds(sf_dir).materialize()
    from maskmypy_ray.analysis.aggregates import k_satisfaction, summarize_k

    s1 = k_satisfaction(k, 1)
    s999 = k_satisfaction(k, 999)
    assert s1 == 1.0  # k >= 1 by construction
    assert s999 < 0.1
    summ = summarize_k(k)
    assert summ["k_min"] < summ["k_mean"] < summ["k_max"]


def test_ripley_translate_invariant(points_table):
    """Identical pattern (translate) -> rmse 0 (test_analysis.py:187-197)."""
    from maskmypy_ray.analysis.ripley import ripley_rmse, ripleys_k

    x = points_table.column("x").to_numpy()[:100]
    y = points_table.column("y").to_numpy()[:100]
    a = ripleys_k((x, y), simulations=5)
    b = ripleys_k((x + 50.0, y), simulations=5)
    assert ripley_rmse(a, b) == 0.0


def test_ripley_monotonic_with_mask_size(points_table):
    """Bigger donut -> bigger rmse (test_analysis.py:149-160)."""
    from maskmypy_ray.analysis.ripley import ripley_rmse, ripleys_k
    from maskmypy_ray.stages.donut import donut_mask_batch

    sub = points_table.slice(0, 150)
    x = sub.column("x").to_numpy()
    y = sub.column("y").to_numpy()
    base = ripleys_k((x, y), simulations=0)
    m1 = donut_mask_batch(sub, 1.0, 5.0, 1)
    m2 = donut_mask_batch(sub, 1000.0, 5000.0, 1)
    r1 = ripley_rmse(base, ripleys_k((m1.column("mx").to_numpy(),
                                      m1.column("my").to_numpy()), simulations=0))
    r2 = ripley_rmse(base, ripleys_k((m2.column("mx").to_numpy(),
                                      m2.column("my").to_numpy()), simulations=0))
    assert r1 < r2


def test_ripley_distributed_matches_inmemory(ray_session, sf_dir):
    """Distributed cell+halo band counts equal the in-memory kernel."""
    import numpy as np

    from maskmypy_ray.analysis.ripley import _k_stat, ripleys_k
    from maskmypy_ray.pipelines import points_ds

    ds = points_ds(sf_dir).materialize()
    df = ds.select_columns(["x", "y"]).to_pandas()
    x, y = df["x"].to_numpy(), df["y"].to_numpy()
    max_dist = 0.25 * min(x.max() - x.min(), y.max() - y.min())
    support = np.linspace(max_dist / 5, max_dist, 5)
    mem = _k_stat(x, y, support)
    dist = ripleys_k(ds, max_dist=max_dist, steps=5, simulations=0).statistic
    assert np.allclose(mem, dist, rtol=1e-12)


def test_ripley_ktest_distributed_observed_stat(ray_session, sf_dir):
    """ripleys_k on a Dataset (one-shuffle observed+sims path) reproduces
    the in-memory observed statistic; simulation envelope has the right
    shape and gives sane p-values."""
    import numpy as np

    from maskmypy_ray.analysis.ripley import _k_stat, ripleys_k
    from maskmypy_ray.pipelines import points_ds

    ds = points_ds(sf_dir).materialize()
    r = ripleys_k(ds, steps=5, simulations=3, seed=7)
    df = ds.select_columns(["x", "y"]).to_pandas()
    mem = _k_stat(df["x"].to_numpy(), df["y"].to_numpy(), r.support)
    assert np.allclose(r.statistic, mem, rtol=1e-12)
    assert r.simulations.shape == (3, 5)
    assert np.all((r.pvalue > 0) & (r.pvalue <= 1))


def test_ripley_entrypoint_equality(ray_session, sf_dir):
    """VERDICT r03 #6: the Dataset and array entry points are ONE
    estimator — with the same CSR keys (doc_id) the array path yields
    the identical observed stat, simulation envelope and p-values as the
    distributed one-shuffle path."""
    import numpy as np

    from maskmypy_ray.analysis.ripley import ripleys_k
    from maskmypy_ray.pipelines import points_ds

    ds = points_ds(sf_dir).materialize()
    df = ds.select_columns(["doc_id", "x", "y"]).to_pandas()
    dist = ripleys_k(ds, steps=5, simulations=4, seed=11)
    mem = ripleys_k((df["x"].to_numpy(), df["y"].to_numpy()),
                    steps=5, simulations=4, seed=11,
                    keys=df["doc_id"].to_numpy())
    assert np.allclose(dist.support, mem.support, rtol=1e-12)
    assert np.allclose(dist.statistic, mem.statistic, rtol=1e-12)
    assert np.allclose(dist.simulations, mem.simulations, rtol=1e-12)
    assert np.array_equal(dist.pvalue, mem.pvalue)
