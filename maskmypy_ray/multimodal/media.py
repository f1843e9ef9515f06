"""Multimodal binary-column stages.

Media (image/audio/video) rides as an opaque ``binary`` column with typed
metadata; decode / feature-extract / resize / frame-sample run as
actor-pool ``map_batches`` stages with SMALL batches (large payloads).
The image/audio codecs are not installed in this container, so the decode
kernels are STUBS: they raise ``NotImplementedError`` unless
``fake=True``, in which case a deterministic hash-derived fake is
produced — the Ray-side plumbing (schema, batch sizing, actor signature,
output layout) is real and tested. The webpages ``html`` binary column
doubles as the media payload in fixtures.
"""

from __future__ import annotations

from hashlib import md5

import numpy as np
import pyarrow as pa


def media_metadata_batch(batch: pa.Table, media_col: str = "html") -> pa.Table:
    """(url, media_bytes, media_md5) — real ops on the binary payload."""
    blobs = batch.column(media_col).to_pylist()
    return pa.table({
        "url": batch.column("url"),
        "media_bytes": pa.array([len(b) for b in blobs], type=pa.int64()),
        "media_md5": pa.array([md5(b).hexdigest() for b in blobs], type=pa.string()),
    })


def media_metadata(ds, media_col: str = "html"):
    return ds.map_batches(lambda b: media_metadata_batch(b, media_col),
                          batch_format="pyarrow")


class MediaDecoder:
    """Actor-pool decode stage (STUB).

    Real deployments load the codec once per actor in ``__init__``; here
    the codec is absent, so ``fake=True`` derives a deterministic
    ``height x width x 3`` uint8 "image" from the payload's md5 — enough
    to exercise schema, memory sizing, and downstream stages.
    """

    def __init__(self, fake: bool = False, height: int = 8, width: int = 8):
        self.fake = fake
        self.h, self.w = height, width

    def _decode_one(self, blob: bytes) -> np.ndarray:
        if not self.fake:
            raise NotImplementedError(
                "image/audio codecs are not installed in this environment; "
                "pass fake=True for the deterministic stub decode")
        seed_bytes = md5(blob).digest()
        n = self.h * self.w * 3
        reps = (n + 15) // 16
        raw = (seed_bytes * reps)[:n]
        return np.frombuffer(raw, dtype=np.uint8).reshape(self.h, self.w, 3)

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column("html").to_pylist()
        imgs = [self._decode_one(b) for b in blobs]
        flat = [i.ravel().tolist() for i in imgs]
        return pa.table({
            "url": batch.column("url"),
            "height": pa.array([self.h] * len(blobs), type=pa.int32()),
            "width": pa.array([self.w] * len(blobs), type=pa.int32()),
            "pixels": pa.array(flat, type=pa.list_(pa.uint8())),
        })


def decode_media(ds, fake: bool = False, height: int = 8, width: int = 8,
                 batch_size: int = 256, concurrency=None):
    """Decode stage: small batch_size — payloads are large binaries."""
    if concurrency is None:
        from ..util import auto_concurrency

        concurrency = auto_concurrency()
    return ds.map_batches(
        MediaDecoder,
        fn_constructor_kwargs=dict(fake=fake, height=height, width=width),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def resize_batch(batch: pa.Table, out_h: int, out_w: int) -> pa.Table:
    """Nearest-neighbor resize over decoded pixel buffers (vectorized;
    real kernel — operates on whatever decode produced)."""
    hs = batch.column("height").to_numpy(zero_copy_only=False)
    ws = batch.column("width").to_numpy(zero_copy_only=False)
    pix = batch.column("pixels").to_pylist()
    out = []
    for h, w, p in zip(hs, ws, pix):
        img = np.asarray(p, dtype=np.uint8).reshape(h, w, 3)
        yi = (np.arange(out_h) * h // out_h)
        xi = (np.arange(out_w) * w // out_w)
        out.append(img[yi][:, xi].ravel().tolist())
    return pa.table({
        "url": batch.column("url"),
        "height": pa.array([out_h] * len(out), type=pa.int32()),
        "width": pa.array([out_w] * len(out), type=pa.int32()),
        "pixels": pa.array(out, type=pa.list_(pa.uint8())),
    })


def resize_media(ds, out_h: int = 4, out_w: int = 4, batch_size: int = 256):
    return ds.map_batches(lambda b: resize_batch(b, out_h, out_w),
                          batch_format="pyarrow", batch_size=batch_size)


def frame_sample_batch(batch: pa.Table, every: int = 2) -> pa.Table:
    """Frame sampling stub for video-like payloads: treat each pixel ROW as
    a frame and keep every ``every``-th — demonstrates the flat_map-style
    expansion layout (one output row per kept frame)."""
    hs = batch.column("height").to_numpy(zero_copy_only=False)
    ws = batch.column("width").to_numpy(zero_copy_only=False)
    pix = batch.column("pixels").to_pylist()
    urls = batch.column("url").to_pylist()
    out_url, out_idx, out_frame = [], [], []
    for u, h, w, p in zip(urls, hs, ws, pix):
        img = np.asarray(p, dtype=np.uint8).reshape(h, w, 3)
        for fi in range(0, h, every):
            out_url.append(u)
            out_idx.append(fi)
            out_frame.append(img[fi].ravel().tolist())
    return pa.table({
        "url": pa.array(out_url, type=pa.string()),
        "frame_idx": pa.array(out_idx, type=pa.int32()),
        "frame": pa.array(out_frame, type=pa.list_(pa.uint8())),
    })


def frame_sample(ds, every: int = 2, batch_size: int = 256):
    return ds.map_batches(lambda b: frame_sample_batch(b, every),
                          batch_format="pyarrow", batch_size=batch_size)


def media_phash_batch(batch: pa.Table, media_col: str = "html") -> pa.Table:
    """Blockhash-style perceptual hash over the decoded 8x8 image: one
    bit per pixel, set iff the pixel's integer luma (299R + 587G +
    114B) strictly exceeds the image mean (luma*64 > total — no
    division, all-integer, so the SQL twin is bit-exact). Returned as
    a 64-char '0'/'1' string (MSB-free encoding sidesteps int64 sign
    wraparound). Uses the same deterministic md5-derived fake decode
    as :class:`MediaDecoder` (the real codec is absent here); with a
    real codec only ``_decode`` changes — the hash kernel is real."""
    blobs = batch.column(media_col).to_pylist()
    if not blobs:
        return pa.table({"url": batch.column("url"),
                         "phash": pa.array([], type=pa.string())})
    dig = np.frombuffer(b"".join(md5(b).digest() for b in blobs),
                        dtype=np.uint8).reshape(-1, 16)
    raw = np.tile(dig, (1, 12))[:, :192]  # 8*8*3 fake-decode bytes
    rgb = raw.reshape(-1, 64, 3).astype(np.int64)
    luma = rgb[:, :, 0] * 299 + rgb[:, :, 1] * 587 + rgb[:, :, 2] * 114
    bits = luma * 64 > luma.sum(axis=1, keepdims=True)
    buf = (bits.astype(np.uint8) + 48).tobytes()
    return pa.table({
        "url": batch.column("url"),
        "phash": pa.array([buf[i * 64:(i + 1) * 64].decode()
                           for i in range(len(blobs))], type=pa.string()),
    })


def media_phash(ds, media_col: str = "html"):
    """Per-payload perceptual hash — the image-modality analogue of
    text SimHash: near-duplicate images differ in few bits, so the
    downstream dedup is the SAME banded-LSH machinery the text paths
    use (hamming bands over the bit string). Stateless vectorized
    map_batches; small batches upstream keep the binary payloads
    within worker heaps."""
    return ds.map_batches(lambda b: media_phash_batch(b, media_col),
                          batch_format="pyarrow")


PHASH_BANDS = 4          # 4 x 16-bit bands: >= 1 band survives <= 3 flips
PHASH_MAX_HAMMING = 4    # verify bound for a candidate pair
PHASH_PERTURB_MOD = 10   # digest byte 15 % MOD == 0 -> emit a near-dup copy


def phash_with_perturbed_batch(batch: pa.Table,
                               media_col: str = "html") -> pa.Table:
    """(url, phash) rows plus a deterministic near-duplicate copy for
    ~1/PHASH_PERTURB_MOD of payloads: urls whose md5 digest byte 15 is
    ≡ 0 (mod 10) get a second row tagged ``url#p`` with 3 bit flips at
    positions digest[0..2] % 64 (XOR-applied, so colliding positions
    cancel — hamming is 1 or 3, always ≤ 3, and by pigeonhole at least
    one 16-bit band survives intact). The rule is a pure function of
    the payload, so the SQL twin reproduces the seeded pairs exactly —
    the fixture's random phashes would otherwise contain no near pairs
    to find (same seeding idea as sim.ann.with_perturbed_copies)."""
    base = media_phash_batch(batch, media_col)
    blobs = batch.column(media_col).to_pylist()
    if not blobs:
        return base
    dig = np.frombuffer(b"".join(md5(b).digest() for b in blobs),
                        dtype=np.uint8).reshape(-1, 16)
    flagged = np.flatnonzero(dig[:, 15] % PHASH_PERTURB_MOD == 0)
    urls = base.column("url").to_pylist()
    hashes = base.column("phash").to_pylist()
    p_urls, p_hashes = [], []
    for i in flagged:
        bits = bytearray(hashes[i], "ascii")
        for j in range(3):
            pos = int(dig[i, j]) % 64
            bits[pos] ^= 1  # '0' (0x30) <-> '1' (0x31)
        p_urls.append(urls[i] + "#p")
        p_hashes.append(bits.decode("ascii"))
    return pa.table({
        "url": pa.array(urls + p_urls, type=pa.string()),
        "phash": pa.array(hashes + p_hashes, type=pa.string()),
    })


def media_phash_pairs(ds, media_col: str = "html"):
    """Image near-duplicate pairs via banded-hamming LSH over the
    perceptual hash: (url_a, url_b, hamming) with url_a < url_b and
    hamming ≤ PHASH_MAX_HAMMING.

    Each hash row packs its 64 '0'/'1' characters into one uint64 and
    fans out to PHASH_BANDS ``(band, val, url, phash)`` rows, ``val``
    being the band's 16 bits; :func:`maskmypy_ray.lsh.lsh_pairs` pairs
    the urls that share a (band, val) bucket in one ``segment_map`` on
    ``val``, Hamming-filters each pair on the packed hashes (one
    vectorized popcount, no loop per bucket or row) and dedups the pairs
    that collided in several bands."""
    from ..lsh import lsh_pairs

    def to_bands(b: pa.Table) -> pa.Table:
        n = b.num_rows
        bits = np.frombuffer("".join(b.column("phash").to_pylist())
                             .encode("ascii"), dtype=np.uint8) \
            .reshape(n, 64) - 48
        h = np.packbits(bits, axis=1).view(">u8").ravel().astype(np.uint64)
        shift = np.uint64(16) * (PHASH_BANDS - 1
                                 - np.arange(PHASH_BANDS, dtype=np.uint64))
        val = (h[None, :] >> shift[:, None]) & np.uint64(0xFFFF)
        return pa.table({
            "band": pa.array(np.repeat(np.arange(PHASH_BANDS), n)),
            "val": pa.array(val.ravel().astype(np.int64)),
            "url": pa.concat_arrays([b.column("url").combine_chunks()]
                                    * PHASH_BANDS),
            "phash": pa.array(np.tile(h, PHASH_BANDS), type=pa.uint64()),
        })

    hashes = ds.map_batches(
        lambda b: phash_with_perturbed_batch(b, media_col),
        batch_format="pyarrow")
    return lsh_pairs(hashes.map_batches(to_bands, batch_format="pyarrow"),
                     "val", "url", ("url_a", "url_b"), band="band",
                     id_type=pa.string(), hash_col="phash",
                     max_hamming=PHASH_MAX_HAMMING)
