import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.hermite import hermgauss

from hprop import (
    check_support_condition,
    eval_hermite_functions,
    gauss_hermite_rule,
)


def test_ground_state_value_at_origin():
    # phi_0(0) = pi**(-1/4), the only closed form worth pinning
    val = eval_hermite_functions(0.0, 0)[0]
    assert val == pytest.approx(math.pi ** -0.25, rel=1e-15)


def test_function_values_against_explicit_low_orders():
    x = np.linspace(-3.0, 3.0, 11)
    table = eval_hermite_functions(x, 2)
    g = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    assert np.allclose(table[0], g, rtol=1e-14, atol=0)
    assert np.allclose(table[1], math.sqrt(2.0) * x * g, rtol=1e-13, atol=1e-16)
    assert np.allclose(table[2], (2 * x * x - 1) / math.sqrt(2.0) * g,
                       rtol=1e-12, atol=1e-15)


def test_functions_stay_bounded_at_high_order():
    # the normalized functions never exceed phi_0(0); raw polynomials would
    # have overflowed around order 100
    x = np.linspace(-25.0, 25.0, 201)
    table = eval_hermite_functions(x, 300)
    assert np.all(np.isfinite(table))
    assert np.max(np.abs(table)) <= math.pi ** -0.25 + 1e-12


def test_eval_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eval_hermite_functions(0.0, -1)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12, 31, 64, 200, 300])
def test_nodes_and_weights_match_reference_rule(order):
    rule = gauss_hermite_rule(order)
    ref_nodes, ref_weights = hermgauss(order + 1)
    assert np.max(np.abs(rule.nodes - ref_nodes)) < 1e-12 * (1 + order)
    scale = np.max(ref_weights)
    assert np.max(np.abs(rule.weights - ref_weights)) < 1e-13 * scale


@pytest.mark.parametrize("order", [3, 17, 40])
def test_rule_structure(order):
    rule = gauss_hermite_rule(order)
    assert rule.nodes.shape == (order + 1,)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-14
    assert np.all(rule.weights > 0)
    assert np.all(rule.modified_weights > 0)
    # omega = w * exp(xi**2), checked without forming the overflow-prone
    # exponential at large nodes
    mid = np.abs(rule.nodes) < 10
    assert np.allclose(rule.modified_weights[mid],
                       rule.weights[mid] * np.exp(rule.nodes[mid] ** 2),
                       rtol=1e-12)


def test_even_moments_match_gamma_values():
    # integral of x**p exp(-x**2) is Gamma((p+1)/2) for even p
    for order in (0, 5, 13, 40):
        rule = gauss_hermite_rule(order)
        for p in range(0, 2 * order + 2, 2):
            exact = math.exp(math.lgamma((p + 1) / 2.0))
            got = float(np.sum(rule.weights * rule.nodes ** p))
            assert abs(got - exact) <= 1e-12 * exact


def test_odd_moments_vanish():
    rule = gauss_hermite_rule(21)
    for p in range(1, 44, 2):
        got = float(np.sum(rule.weights * rule.nodes ** p))
        scale = math.exp(math.lgamma((p + 2) / 2.0))
        assert abs(got) <= 1e-13 * scale


def test_nodes_interlace_between_consecutive_orders():
    lo = gauss_hermite_rule(12).nodes
    hi = gauss_hermite_rule(13).nodes
    for k in range(lo.shape[0]):
        assert hi[k] < lo[k] < hi[k + 1]


def test_discrete_orthonormality_within_exactness_window():
    order = 24
    rule = gauss_hermite_rule(order)
    phi = eval_hermite_functions(rule.nodes, order)
    gram = (phi * rule.modified_weights) @ phi.T
    assert np.max(np.abs(gram - np.eye(order + 1))) < 1e-12


def test_large_rule_still_converges():
    rule = gauss_hermite_rule(200)
    assert np.all(np.isfinite(rule.nodes))
    assert np.all(rule.weights >= 0)
    # known growth of the largest node
    assert abs(rule.nodes[-1]) < math.sqrt(2 * 201 + 1)


def test_rule_beyond_double_range_is_refused():
    gauss_hermite_rule(764)
    with pytest.raises(ValueError, match="double-precision range"):
        gauss_hermite_rule(765)


@given(st.integers(0, 40))
def test_support_check_boundary(max_order):
    required = math.sqrt(2.0 * (max_order + 1)) + 1.0
    assert check_support_condition(required + 1e-9, max_order) is None
    bad = check_support_condition(required - 1e-2, max_order)
    assert bad.startswith("support condition violated")
    assert "(deficit 0.01)" in bad
