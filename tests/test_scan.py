"""The shared suffix scan against products taken one matrix at a time."""

import numpy as np
from hypothesis import given, settings, strategies as st

from semiq.scan import products, suffix_products


def sequential_suffixes(m):
    """m is (n, d, d); returns out[i] = m[i] @ m[i + 1] @ ... @ m[n - 1]."""
    out = np.empty_like(m)
    out[-1] = m[-1]
    for i in range(m.shape[0] - 2, -1, -1):
        out[i] = m[i] @ out[i + 1]
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.integers(1, 70), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-6, 0.3, 1.0]))
def test_suffix_scan_matches_sequential_products(dim, n, seed, size):
    # unitary steps exp(-i H) from random Hermitian H of the given size,
    # near the identity and far from it
    rng = np.random.default_rng(seed)
    g = size * (rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim)))
    vals, vecs = np.linalg.eigh(0.5 * (g + g.conj().swapaxes(1, 2)))
    steps = (vecs * np.exp(-1j * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    want = sequential_suffixes(steps)

    offset = np.ascontiguousarray((steps - np.eye(dim)).transpose(1, 2, 0))
    suffix_products(offset)
    assert np.max(np.abs(offset.transpose(2, 0, 1) + np.eye(dim) - want)) < 1e-13


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 2), (3, 3), (2, 2, 1), (2, 2, 3), (3, 3, 2)]),
       st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_reduction_is_the_scans_first_element_bit_for_bit(lead, n, seed):
    # 3-D stacks (d, d, n) and 4-D batches (d, d, rows, n) of real matrices,
    # odd and even lengths, against the sequential product: the pairwise
    # order rounds differently, so within 1e-13 of the product's size
    p = np.random.default_rng(seed).normal(size=(*lead, n))
    got = products(p.copy())
    # (n, [rows,] d, d), the layout sequential_suffixes multiplies in
    want = sequential_suffixes(np.moveaxis(p, (-1, 0, 1), (0, -2, -1)))[0]
    assert got.shape == p.shape[:-1]
    err = np.abs(np.moveaxis(got, (0, 1), (-2, -1)) - want)
    assert np.max(err) <= 1e-13 * np.max(np.abs(want))
