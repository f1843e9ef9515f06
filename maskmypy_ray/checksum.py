"""Order-insensitive content checksum (T2).

Reference `/root/reference/maskmypy/tools.py:46-63`:
``sha256(hash_pandas_object(gdf))[:8]`` — an order-SENSITIVE hash of an
in-memory frame. A distributed Dataset has no canonical row order, so this
engine hashes per row (``pandas.util.hash_pandas_object``, deterministic
across processes with its fixed default hash key) and combines rows with
an order-insensitive reduction (sum + xor of the 64-bit row hashes),
then sha256's the combined digest. Same role: equality id for layers,
candidates, and replay validation (`atlas.py:229-233`).
"""

from __future__ import annotations

from hashlib import sha256

import numpy as np
import pandas as pd


def _combine(row_hashes: np.ndarray) -> tuple[int, int, int]:
    h = row_hashes.astype(np.uint64)
    s = int(np.sum(h, dtype=np.uint64))
    x = int(np.bitwise_xor.reduce(h)) if len(h) else 0
    return s, x, len(h)


def checksum_batch(df: pd.DataFrame, columns=None) -> tuple[int, int, int]:
    if columns is not None:
        df = df[list(columns)]
    return _combine(pd.util.hash_pandas_object(df, index=False).to_numpy())


def checksum_digest(total_s: int, total_x: int, total_n: int) -> str:
    """8-hex-char digest of combined (sum mod 2**64, xor, rows) partials."""
    return sha256(f"{total_s}:{total_x}:{total_n}".encode()).hexdigest()[:8]


def checksum(ds_or_df, columns=None) -> str:
    """8-hex-char content checksum of a Ray Dataset / pandas DataFrame /
    pyarrow Table; invariant to row order and partitioning."""
    import pyarrow as pa

    parts: list[tuple[int, int, int]] = []
    try:
        import ray.data

        is_ds = isinstance(ds_or_df, ray.data.Dataset)
    except Exception:
        is_ds = False
    if is_ds:
        sel = ds_or_df if columns is None else ds_or_df.select_columns(list(columns))
        for batch in sel.iter_batches(batch_size=65536, batch_format="pandas"):
            parts.append(checksum_batch(batch))
    else:
        df = ds_or_df.to_pandas() if isinstance(ds_or_df, pa.Table) else ds_or_df
        parts.append(checksum_batch(df, columns))
    total_s = sum(p[0] for p in parts) % (1 << 64)
    total_x = 0
    total_n = 0
    for p in parts:
        total_x ^= p[1]
        total_n += p[2]
    return checksum_digest(total_s, total_x, total_n)
