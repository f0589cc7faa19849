"""Parseval identities on random polynomials, as hypothesis properties.

For P = sum_k a_k z^k the monomials are orthogonal on the unit circle and
on the unit disc, so ||P||_H2^2 = sum_k |a_k|^2 (the normalized circle
mean) and ||P||_A2^2 = sum_k pi |a_k|^2 / (k + 1); neither identity shares
any quadrature with the estimators.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings                  # noqa: E402
from hypothesis import strategies as st                          # noqa: E402

from hardylab.norms import bergman_norm_disc, hardy_norm_disc    # noqa: E402
from hardylab.series import PowerSeries                          # noqa: E402

TOL = 1e-8

_part = st.floats(-2.0, 2.0, allow_subnormal=False)
# Degree <= 12, zero coefficients included; the norm must not vanish.
polynomials = st.lists(st.builds(complex, _part, _part),
                       min_size=1, max_size=13)


def _weighted(coeffs, weights) -> float:
    return float(np.sum(np.abs(np.asarray(coeffs)) ** 2 * weights))


@settings(max_examples=40, deadline=None)
@given(polynomials)
def test_hardy_h2_norm_is_the_coefficient_norm(coeffs):
    exact = _weighted(coeffs, 1.0)
    assume(exact > 1e-6)
    est = hardy_norm_disc(PowerSeries.from_coefficients(coeffs), 2.0, TOL)
    assert est.converged
    assert est.value ** 2 == pytest.approx(exact, rel=TOL)


@settings(max_examples=40, deadline=None)
@given(polynomials)
def test_bergman_a2_norm_is_the_weighted_coefficient_norm(coeffs):
    exact = _weighted(coeffs, np.pi / np.arange(1, len(coeffs) + 1))
    assume(exact > 1e-6)
    est = bergman_norm_disc(PowerSeries.from_coefficients(coeffs), 2.0, TOL)
    assert est.converged
    assert est.value ** 2 == pytest.approx(exact, rel=TOL)
