"""QUADPACK's qk21 table: the raw halves and the symmetric arrays on [-1, 1]."""

import numpy as np
import pytest

from semiq import quadrature


def test_qk21_table_holds_the_gauss_legendre_rule():
    # qk21's wg and its xgk at odd positions are the 10-point Gauss rule,
    # which the clock's partial panels use; the Kronrod weights sum to 2
    x, w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(quadrature.XGK[1::2], x[:4:-1], rtol=1e-15)
    np.testing.assert_allclose(quadrature.WG, w[:4:-1], rtol=1e-14)
    assert 2.0 * sum(quadrature.WGK[:10]) + quadrature.WGK[10] == pytest.approx(
        2.0, rel=1e-15)


def test_symmetric_arrays_lay_out_the_halves():
    # increasing nodes, mirror-symmetric weights, and the Gauss nodes at the
    # odd Kronrod positions, which the clock's error estimate relies on
    x, w = np.polynomial.legendre.leggauss(10)
    assert np.all(np.diff(quadrature.KRONROD_X) > 0.0)
    np.testing.assert_array_equal(quadrature.KRONROD_X, -quadrature.KRONROD_X[::-1])
    np.testing.assert_array_equal(quadrature.KRONROD_W, quadrature.KRONROD_W[::-1])
    np.testing.assert_array_equal(quadrature.GAUSS_X, quadrature.KRONROD_X[1::2])
    np.testing.assert_allclose(quadrature.GAUSS_X, x, rtol=1e-15)
    np.testing.assert_allclose(quadrature.GAUSS_W, w, rtol=1e-14)


@pytest.mark.parametrize("degree", range(32))
def test_kronrod_and_gauss_degrees_of_exactness(degree):
    # the 21-point Kronrod rule integrates x^31 exactly, the 10-point Gauss
    # rule x^19: their difference, the clock's error estimate, vanishes up
    # to degree 19
    exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
    kron = quadrature.KRONROD_W @ quadrature.KRONROD_X**degree
    gauss = quadrature.GAUSS_W @ quadrature.GAUSS_X**degree
    assert kron == pytest.approx(exact, abs=1e-15)
    if degree < 20:
        assert gauss == pytest.approx(exact, abs=1e-15)
    elif degree % 2 == 0:
        assert abs(gauss - exact) > 1e-12
