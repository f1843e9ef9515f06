"""Skew handling: hot-cell salting of the k-anonymity shuffle join.

The address fixture clusters ~30% of points in a small downtown box
(sources/webpages.py), creating hot cells. Salting splits each cell's
POINTS into ``salt`` subgroups and replicates the (halo'd) addresses per
subgroup — more, smaller groups through the shuffle. Results must be
identical at any salt (and to the zero-shuffle broadcast plan).
"""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def masked(ray_session, sf_dir):
    from maskmypy_ray.pipelines import flagship

    return flagship(sf_dir).materialize()


def _k(masked, sf_dir, **kwargs):
    from maskmypy_ray.analysis.k_anonymity import calculate_k
    from maskmypy_ray.sources.webpages import read_addresses

    return calculate_k(masked, read_addresses(sf_dir), **kwargs) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def test_salted_shuffle_matches_unsalted(masked, sf_dir):
    base = _k(masked, sf_dir, mode="shuffle", salt=1)
    salted = _k(masked, sf_dir, mode="shuffle", salt=4)
    assert base.equals(salted)


def test_salted_matches_broadcast(masked, sf_dir):
    bc = _k(masked, sf_dir, mode="broadcast")
    salted = _k(masked, sf_dir, mode="shuffle", salt=3)
    assert bc.equals(salted)


def test_hot_cells_exist(sf_dir, points_table):
    """The fixture really is skewed: max cell load >> median cell load."""
    from maskmypy_ray.geokernels.cells import cell_of_xy
    from maskmypy_ray.geokernels.geometry import latlon_to_xy
    from maskmypy_ray.sources.webpages import addresses_table

    addr = addresses_table(sf_dir)
    ax, ay = latlon_to_xy(addr.column("lat").to_numpy(), addr.column("lon").to_numpy())
    cells = cell_of_xy(ax, ay, 500.0)
    _, counts = np.unique(cells, return_counts=True)
    assert counts.max() > 5 * np.median(counts)


def _union_block(cells, is_addr, keys, xs, ys, ds):
    import pyarrow as pa

    return pa.table({
        "cell": pa.array(cells, type=pa.int64()),
        "is_addr": pa.array(is_addr, type=pa.int8()),
        "key": pa.array(keys, type=pa.int64()),
        "px": pa.array(xs, type=pa.float64()),
        "py": pa.array(ys, type=pa.float64()),
        "d": pa.array(ds, type=pa.float64()),
    })


def _brute_k(block):
    """k per point row from an O(P*A) scan of same-cell address rows."""
    t = block.to_pandas()
    pts, adr = t[t["is_addr"] == 0], t[t["is_addr"] == 1]
    k = []
    for c, x, y, d in zip(pts["cell"], pts["px"], pts["py"], pts["d"]):
        a = adr[adr["cell"] == c]
        dx, dy = a["px"].to_numpy() - x, a["py"].to_numpy() - y
        k.append(int((dx * dx + dy * dy <= d * d).sum()) + 1)
    return pts["key"].to_numpy(), np.array(k, dtype=np.int64)


def test_cell_block_kernel_matches_brute_force():
    """The shuffle plan's block kernel on a hand-built union block: one
    hot cell whose P x A exceeds MAX_PAIRS (the chunk loop runs twice,
    the second time on a partial chunk), a d=0 point on an address
    (inclusive boundary, k=2), interleaved and unsorted rows, salt=3
    cell keys (cell * 3 + key % 3, addresses in every salt lane)."""
    from maskmypy_ray.analysis.k_anonymity import MAX_PAIRS, _count_cell_block

    rng = np.random.default_rng(5)
    salt = 3
    n_ha = 2000                       # hot cell: addresses per salt lane
    n_hp = MAX_PAIRS // n_ha + 100    # points in ONE lane: > MAX_PAIRS pairs
    hot_keys = np.arange(n_hp) * salt + 1            # all in lane 1
    cells = [7 * salt + np.repeat(np.arange(salt), n_ha),
             7 * salt + hot_keys % salt]
    is_addr = [np.ones(n_ha * salt), np.zeros(n_hp)]
    keys = [np.full(n_ha * salt, -1), hot_keys]
    xs = [rng.uniform(0, 500, n_ha * salt), rng.uniform(0, 500, n_hp)]
    ys = [rng.uniform(0, 500, n_ha * salt), rng.uniform(0, 500, n_hp)]
    ds = [np.zeros(n_ha * salt), rng.uniform(0, 80, n_hp)]
    # a cold cell: point exactly on an address with d = 0, one more
    # address just outside, and a point whose cell has no address
    cells.append(np.array([9 * salt + 2, 9 * salt + 2, 9 * salt + 2, 11 * salt]))
    is_addr.append(np.array([1, 1, 0, 0]))
    keys.append(np.array([-1, -1, 5, 9]))
    xs.append(np.array([100.0, 100.0, 100.0, 3.0]))
    ys.append(np.array([200.0, 200.5, 200.0, 4.0]))
    ds.append(np.array([0.0, 0.0, 0.0, 50.0]))
    perm = rng.permutation(sum(len(c) for c in cells))
    block = _union_block(*(np.concatenate(v)[perm]
                           for v in (cells, is_addr, keys, xs, ys, ds)))
    assert n_hp * n_ha > MAX_PAIRS

    got = _count_cell_block(block, "pid")
    assert got.column_names == ["pid", "k_anonymity"]
    assert [str(t) for t in got.schema.types] == ["int64", "int64"]
    want_key, want_k = _brute_k(block)
    order = np.argsort(want_key)
    gk = got.to_pandas().sort_values("pid")
    assert np.array_equal(gk["pid"].to_numpy(), want_key[order])
    assert np.array_equal(gk["k_anonymity"].to_numpy(), want_k[order])
    kk = dict(zip(gk["pid"], gk["k_anonymity"]))
    assert kk[5] == 2 and kk[9] == 1
    assert (gk["k_anonymity"] > 1).any()


def test_cell_block_kernel_address_only_and_empty():
    from maskmypy_ray.analysis.k_anonymity import _count_cell_block

    adr = _union_block([3, 3], [1, 1], [-1, -1], [0.0, 1.0], [0.0, 1.0],
                       [0.0, 0.0])
    for block in (adr, adr.slice(0, 0)):
        got = _count_cell_block(block, "pid")
        assert got.num_rows == 0
        assert got.column_names == ["pid", "k_anonymity"]
        assert [str(t) for t in got.schema.types] == ["int64", "int64"]


def test_shuffle_plan_output_schema(masked, sf_dir):
    from maskmypy_ray.analysis.k_anonymity import calculate_k
    from maskmypy_ray.sources.webpages import read_addresses

    pts = masked.select_columns(["doc_id", "mx", "my", "_distance"]) \
        .rename_columns({"doc_id": "pid"})
    df = calculate_k(pts, read_addresses(sf_dir), key_col="pid",
                     mode="shuffle").to_pandas()
    assert list(df.columns) == ["pid", "k_anonymity"]
    assert [str(t) for t in df.dtypes] == ["int64", "int64"]
    assert len(df) == masked.count()


def test_segment_map_keeps_each_key_in_one_kernel_call(ray_session,
                                                       monkeypatch):
    """More sorted blocks than keys, one hot key: every key's rows reach
    exactly one kernel call, whole, and every output block that has rows
    carries the declared schema. (4 KiB per partition keeps the 74 kB
    input at its 8 blocks.)"""
    import os

    import pyarrow as pa
    import ray
    import ray.data

    from maskmypy_ray import util
    from maskmypy_ray.util import segment_bounds, segment_map

    monkeypatch.setattr(util, "PARTITION_BYTES", 4096)

    rng = np.random.default_rng(11)
    keys = rng.permutation(np.r_[np.full(3000, 7), np.repeat([2, 9, 30], 400)])
    t = pa.table({"k": keys.astype(np.int64), "v": np.arange(len(keys))})
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64()),
                        ("call", pa.int64())])

    def kernel(b):
        k = b.column("k").to_numpy()
        s, e = segment_bounds(k)
        call = int.from_bytes(os.urandom(7), "little")
        return pa.table({"k": k[s], "n": e - s,
                         "call": np.full(len(s), call)})

    blocks = ray.get(segment_map(ray.data.from_arrow(t).repartition(8), "k",
                                 kernel, schema).to_arrow_refs())
    assert len(blocks) > 4
    full = [b for b in blocks if b.num_rows]
    assert all(b.schema == schema for b in full)
    out = pa.concat_tables(full).to_pandas()
    assert sorted(out["k"]) == [2, 7, 9, 30]  # one segment row per key
    assert dict(zip(out["k"], out["n"])) == {7: 3000, 2: 400, 9: 400, 30: 400}


def test_segment_map_empty_block_is_typed():
    """The block function segment_map hands to map_batches runs the
    kernel on a whole pyarrow block and turns an empty block into the
    declared schema's empty table."""
    import pyarrow as pa

    from maskmypy_ray.util import segment_map

    class Fake:
        def materialize(self):
            return self

        def num_blocks(self):
            return 1

        def size_bytes(self):
            return 0

        def sort(self, key):
            self.key = key
            return self

        def map_batches(self, fn, **kwargs):
            self.fn, self.kwargs = fn, kwargs
            return self

    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    fake = segment_map(Fake(), "k", lambda b: pa.table(
        {"k": b.column("k"), "n": b.column("k")}), schema)
    assert fake.key == "k"
    assert fake.kwargs == {"batch_format": "pyarrow", "batch_size": None}
    empty = fake.fn(pa.table({"k": pa.array([], type=pa.int64())}))
    assert empty.schema == schema and empty.num_rows == 0
    assert fake.fn(pa.table({"k": [3]})).to_pydict() == {"k": [3], "n": [3]}


def test_segment_map_fan_out_rule(ray_session, monkeypatch):
    """The sort fan-out is ``max(1, min(blocks, ceil(bytes /
    PARTITION_BYTES)))``: a 104-block, 458-row union sorts into ONE
    partition at the default value, and into exactly that many at 512
    bytes. A lazy input is materialised once; a materialised one is not
    run again."""
    import math

    import pyarrow as pa
    import ray.data

    from maskmypy_ray import util
    from maskmypy_ray.util import segment_bounds, segment_map

    rng = np.random.default_rng(3)
    t = pa.table({"k": rng.integers(0, 40, 458), "v": np.arange(458)})
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def kernel(b):
        k = b.column("k").to_numpy()
        s, e = segment_bounds(k)
        return pa.table({"k": k[s], "n": e - s})

    calls = []
    materialize = ray.data.Dataset.materialize

    def spy(self):
        calls.append(self)
        return materialize(self)

    monkeypatch.setattr(ray.data.Dataset, "materialize", spy)
    lazy = ray.data.from_arrow(t.slice(0, 229)).repartition(52).union(
        ray.data.from_arrow(t.slice(229)).repartition(52))
    out = segment_map(lazy, "k", kernel, schema)
    assert calls == [lazy]  # the lazy input ran once, to read its sizes
    union = materialize(lazy)
    assert union.num_blocks() == 104 and union.count() == 458

    for value in (None, 512):
        monkeypatch.setattr(util, "PARTITION_BYTES", value)
        calls.clear()
        out = segment_map(union, "k", kernel, schema)
        assert calls == []  # a materialised input does not run again
        want = 1 if value is None else \
            min(104, math.ceil(union.size_bytes() / value))
        out = materialize(out)
        assert out.num_blocks() == want
        got = out.to_pandas().groupby("k")["n"].sum()
        assert got.to_dict() == t.to_pandas()["k"].value_counts().to_dict()
    assert want > 1


def _cogroup_sides(ray):
    """Three sides over the keys of the segment_map test (one hot key,
    7) with different column names, key columns and types."""
    import pyarrow as pa

    rng = np.random.default_rng(12)
    keys = rng.permutation(np.r_[np.full(3000, 7), np.repeat([2, 9, 30], 400)])
    a = pa.table({"k": keys.astype(np.int64),
                  "x": rng.normal(size=len(keys))})
    b = pa.table({"id": np.repeat([7, 9, 41], 5).astype(np.int32),
                  "name": [f"n{i}" for i in range(15)]})
    c = pa.table({"flag": np.ones(6, dtype=np.int8),
                  "kk": np.array([30, 30, 7, 2, 41, 41], dtype=np.int64)})
    schemas = [pa.schema([("k", pa.int64()), ("x", pa.float64())]),
               pa.schema([("id", pa.int64()), ("name", pa.string())]),
               pa.schema([("kk", pa.int64()), ("flag", pa.int8())])]
    sides = [(ray.data.from_arrow(a).repartition(8), "k", schemas[0]),
             (ray.data.from_arrow(b).repartition(3), "id", schemas[1]),
             (ray.data.from_arrow(c), "kk", schemas[2])]
    return sides, schemas


def test_cogroup_map_three_sides_one_call_per_key(ray_session,
                                                  monkeypatch):
    """More blocks than keys, one hot key: every key's rows from every
    side reach exactly one kernel call, and each side's table carries
    its declared schema (the int32 key side arrives as int64, columns
    in declared order). (4 KiB per partition keeps the union at its 12
    blocks.)"""
    import os

    import pyarrow as pa
    import ray

    from maskmypy_ray import util
    from maskmypy_ray.util import cogroup_map

    monkeypatch.setattr(util, "PARTITION_BYTES", 4096)

    sides, schemas = _cogroup_sides(ray_session)
    out_schema = pa.schema([("k", pa.int64()), ("call", pa.int64()),
                            ("na", pa.int64()), ("nb", pa.int64()),
                            ("nc", pa.int64()), ("typed", pa.int64())])

    def kernel(ta, tb, tc):
        typed = [t.schema for t in (ta, tb, tc)] == schemas
        cols = [t.column(0).to_numpy() for t in (ta, tb, tc)]
        k = np.unique(np.concatenate(cols))
        n = [np.searchsorted(np.sort(c), k, side="right")
             - np.searchsorted(np.sort(c), k) for c in cols]
        call = int.from_bytes(os.urandom(7), "little")
        return pa.table({"k": k, "call": np.full(len(k), call),
                         "na": n[0], "nb": n[1], "nc": n[2],
                         "typed": np.full(len(k), int(typed))})

    blocks = ray.get(cogroup_map(sides, kernel, out_schema).to_arrow_refs())
    assert len(blocks) > 5
    full = [b for b in blocks if b.num_rows]
    assert all(b.schema == out_schema for b in full)
    out = pa.concat_tables(full).to_pandas()
    assert sorted(out["k"]) == [2, 7, 9, 30, 41]  # one call per key
    assert (out["typed"] == 1).all()
    got = {k: (a, b, c) for k, a, b, c in
           zip(out["k"], out["na"], out["nb"], out["nc"])}
    assert got == {7: (3000, 5, 1), 2: (400, 0, 1), 9: (400, 5, 0),
                   30: (400, 0, 2), 41: (0, 5, 2)}


def test_cogroup_map_empty_side_is_typed(ray_session):
    """A side with no rows at all reaches the kernel as a typed
    zero-row table, and the left join's column from it comes back
    typed (all null)."""
    import pyarrow as pa

    from maskmypy_ray.util import cogroup_map

    sides, schemas = _cogroup_sides(ray_session)
    empty = sides[1][0].filter(expr="id < 0")
    out_schema = pa.schema([("k", pa.int64()), ("name", pa.string()),
                            ("nb", pa.int64())])

    def kernel(ta, tb):
        assert tb.schema == schemas[1] and tb.num_rows == 0
        j = ta.group_by("k").aggregate([]).join(tb, "k", "id")
        return j.append_column("nb", pa.array(np.zeros(len(j), np.int64)))

    out = cogroup_map([sides[0], (empty, "id", schemas[1])], kernel,
                      out_schema).materialize()
    assert out.schema().names == out_schema.names
    assert list(out.schema().types) == list(out_schema.types)
    df = out.to_pandas().sort_values("k")
    assert df["k"].tolist() == [2, 7, 9, 30]
    assert df["name"].isna().all()


def test_cogroup_map_left_attach_keeps_int64_exact(ray_session):
    """int64 ids >= 2^62 through a left attach with unmatched rows: the
    ids and labels come back exact (a pandas left merge would promote
    them to float64 and round them)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from maskmypy_ray.util import cogroup_map

    base = (1 << 62) + 1
    ids = base + np.arange(0, 600, 3, dtype=np.int64) * 7
    lab_ids = ids[::2]
    labels = lab_ids + (1 << 61) + 3
    rows = ray.data.from_arrow(pa.table({"doc_id": ids})).repartition(5)
    lab = ray.data.from_arrow(pa.table({"node": lab_ids,
                                        "cluster_id": labels})) \
        .repartition(3)
    schema = pa.schema([("doc_id", pa.int64()), ("cluster", pa.int64())])

    def attach(r, lb):
        j = r.join(lb, "doc_id", "node")
        return pa.table({"doc_id": j.column("doc_id"), "cluster": pc.fill_null(
            j.column("cluster_id"), -1)})

    out = cogroup_map(
        [(rows, "doc_id", pa.schema([("doc_id", pa.int64())])),
         (lab, "node", pa.schema([("node", pa.int64()),
                                  ("cluster_id", pa.int64())]))],
        attach, schema).to_pandas().sort_values("doc_id")
    want = dict(zip(lab_ids.tolist(), labels.tolist()))
    assert out["doc_id"].tolist() == ids.tolist()
    assert out["cluster"].tolist() == [want.get(i, -1) for i in ids.tolist()]
    assert str(out["cluster"].dtype) == "int64"
