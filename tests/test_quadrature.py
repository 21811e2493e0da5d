import numpy as np
import pytest

from hqinflab.quadrature import TOL, integrate


class TestIntegrate:
    def test_piecewise_polynomials_with_per_row_cuts(self):
        # f_r(s) = s^7 - 2 s^3 below c_r and (s - c_r)^5 + 1 above it: a jump
        # and a different polynomial on each side of a cut that differs per
        # row; an 8-point rule integrates degree <= 15 exactly on every panel
        c = np.array([0.3, 1.1, 1.7, 2.5])
        a = np.array([0.0, 0.5, 1.7, 3.0])
        b = np.array([2.0, 1.5, 2.5, 3.0])
        cuts = np.stack([c, c + 9.0], axis=1)          # the second cut lies outside

        def f(s):
            below = s < c[:, None]
            return np.where(below, s**7 - 2.0 * s**3, (s - c[:, None])**5 + 1.0)

        def antiderivative(x):
            lo = np.minimum(x, c)
            hi = np.maximum(x, c)
            return lo**8 / 8.0 - lo**4 / 2.0 + (hi - c)**6 / 6.0 + (hi - c)

        got = integrate(f, a, b, breakpoints=cuts)
        np.testing.assert_allclose(got, antiderivative(b) - antiderivative(a),
                                   rtol=1e-14, atol=1e-14)
        assert got[-1] == 0.0

    def test_scalar_rows_return_float(self):
        got = integrate(lambda s: np.cos(s), 0.0, np.pi / 2)
        assert type(got) is float
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_rows_broadcast(self):
        b = np.linspace(0.0, 2.0, 6)[:, None] + np.zeros(3)
        got = integrate(lambda s: 3.0 * s**2, 0.0, b)
        assert got.shape == (6, 3)
        np.testing.assert_allclose(got, b**3, rtol=1e-14)

    def test_meets_tolerance_on_smooth_rows(self):
        k = np.array([1.0, 5.0, 20.0])
        got = integrate(lambda s: np.exp(-k[:, None] * s) * k[:, None], 0.0, np.full(3, 3.0))
        assert np.max(np.abs(got + np.expm1(-3.0 * k))) <= TOL

    def test_raises_on_unlisted_jump(self):
        with pytest.raises(ValueError, match=r"row \(1,\)"):
            integrate(lambda s: (s > np.array([[0.5], [np.pi / 4]])).astype(float),
                      0.0, 1.0, breakpoints=[[0.5], [0.5]])

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            integrate(np.sin, np.array([0.0, 1.0]), 0.5)
