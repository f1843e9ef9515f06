"""Hypothesis property tests for the shared numpy kernels: these are
the building blocks every dedup/LSH/decontamination path leans on, so
they get randomized invariants on top of the fixed-case unit tests
(no Ray needed — pure kernels)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=0,
                max_size=20))
def test_segmented_pair_indices_matches_bruteforce(run_lens):
    """(ia, ib) is exactly the set of within-run (earlier, later) row
    pairs, for any run structure."""
    from maskmypy_ray.util import segmented_pair_indices

    new = np.zeros(sum(run_lens), dtype=bool)
    pos = 0
    for ln in run_lens:
        new[pos] = True
        pos += ln
    ia, ib = segmented_pair_indices(new)
    got = set(zip(ia.tolist(), ib.tolist()))
    expect = set()
    pos = 0
    for ln in run_lens:
        for i in range(pos, pos + ln):
            for j in range(i + 1, pos + ln):
                expect.add((i, j))
        pos += ln
    assert got == expect
    assert (ia < ib).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=0, max_size=50))
def test_popcount64_matches_python(vals):
    from maskmypy_ray.lsh import popcount64

    x = np.array(vals, dtype=np.uint64)
    got = popcount64(x)
    expect = np.array([bin(v).count("1") for v in vals], dtype=np.int64)
    assert (got == expect).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=0,
                max_size=40),
       st.lists(st.integers(min_value=0, max_value=1000), min_size=0,
                max_size=40))
def test_sorted_member_mask_matches_isin(members, probes):
    from maskmypy_ray.util import sorted_member_mask

    m = np.unique(np.array(sorted(members), dtype=np.int64))
    p = np.array(probes, dtype=np.int64)
    got = sorted_member_mask(m, p)
    expect = np.isin(p, m)
    assert (got == expect).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="abc xyz0", min_size=0,
                                 max_size=30), min_size=0, max_size=6),
                min_size=1, max_size=4),
       st.integers(min_value=1, max_value=4))
def test_gram_hashes_batch_matches_per_doc(doc_batches, n):
    """Batch-vectorized gram hashing equals hashing each doc alone —
    the invariant that makes hashes partition/batch independent."""
    from maskmypy_ray.text.grams import gram_hashes_batch, token_codes_batch

    texts = [" ".join(toks) for toks in doc_batches]
    codes, bounds = token_codes_batch(texts)
    g, gb = gram_hashes_batch(codes, bounds, n, "single")
    for i, t in enumerate(texts):
        c1, b1 = token_codes_batch([t])
        g1, gb1 = gram_hashes_batch(c1, b1, n, "single")
        assert g[gb[i]:gb[i + 1]].tolist() == g1.tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                min_size=0, max_size=60))
def test_bloom_never_misses_inserted_grams(grams):
    """Every inserted gram tests positive (no false negatives, by
    construction) through the packed-bitset build+probe pair."""
    from maskmypy_ray.text.corpus import (_bloom_positions, _bloom_test,
                                          BLOOM_M_BITS)

    g = np.unique(np.array(grams, dtype=np.int64))
    view = np.zeros(BLOOM_M_BITS, dtype=bool)
    if len(g):
        view[np.unique(_bloom_positions(g, BLOOM_M_BITS))] = True
    bits = np.packbits(view)
    if len(g):
        assert _bloom_test(bits, _bloom_positions(g, BLOOM_M_BITS)) \
            .all(axis=0).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                min_size=1, max_size=200))
def test_mix32_inplace_matches_expression(vals):
    from maskmypy_ray.rng import mix32, mix32_inplace

    x = np.array(vals, dtype=np.int64)
    expect = mix32(x.copy())
    got = mix32_inplace(x.copy(), np.empty_like(x))
    assert (got == expect).all()
