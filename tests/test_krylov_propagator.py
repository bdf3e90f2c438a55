import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from hprop import (
    MagnusScheme,
    expm_tridiag_column,
    lanczos,
    lanczos_exp_apply,
    magnus_step,
    propagate_magnus,
)


def random_hermitian(gen, n, complex_entries=True):
    a = gen.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * gen.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


# -- tridiagonal exponential ----------------------------------------------------


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 24),
       st.none() | st.integers(0, 22))
@example(5, 9, None)
@example(5, 4, 1)
def test_expm_tridiag_column_matches_dense_exponential(seed, m, cut):
    # cut, when inside the matrix, zeroes one coupling exactly so that T
    # splits into two decoupled blocks
    gen = np.random.default_rng(seed)
    alpha = gen.standard_normal(m)
    beta = gen.standard_normal(m - 1)
    if cut is not None and cut < m - 1:
        beta[cut] = 0.0
    tau = 0.37
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    ref = scipy.linalg.expm(-1j * tau * t)[:, 0]
    col = expm_tridiag_column(alpha, beta, tau)
    assert np.max(np.abs(col - ref)) < 1e-12


# -- Lanczos process --------------------------------------------------------------


def test_lanczos_reproduces_matrix_on_full_space(rng):
    n = 12
    a = random_hermitian(np.random.default_rng(3), n)
    v0 = np.random.default_rng(4).standard_normal(n) + 0j
    fac = lanczos(lambda w: a @ w, v0, n, reorthogonalize=True)
    t = np.diag(fac.alpha) + np.diag(fac.beta, 1) + np.diag(fac.beta, -1)
    recon = fac.basis @ t @ fac.basis.conj().T
    assert np.max(np.abs(recon - a)) < 1e-9
    assert fac.orthogonality_defect() < 1e-12
    assert fac.hermiticity_defect < 1e-12


def test_lanczos_breakdown_on_invariant_subspace():
    # an eigenvector start hits an invariant subspace immediately
    a = np.diag([1.0, 2.0, 3.0])
    v0 = np.array([1.0, 0.0, 0.0])
    fac = lanczos(lambda w: a @ w, v0, 3)
    assert fac.breakdown_at == 1
    assert fac.alpha.size == 1
    assert fac.alpha[0] == pytest.approx(1.0)


def test_lanczos_breakdown_tolerance_scales_with_the_operator():
    # a start on the eigenvectors of -1e4 and 1e4 spans an invariant
    # subspace: alpha stays ~0, beta_1 = 1e4, and the rounding-level beta_2
    # (~3e-12) lies above an absolute 1e-14 but below 1e-14 * max(|alpha|,
    # beta) so far
    gen = np.random.default_rng(7)
    q, _ = np.linalg.qr(gen.standard_normal((20, 20)))
    lam = 1e4 * np.linspace(-1.0, 1.0, 20)
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    fac = lanczos(lambda w: a @ w, q[:, 0] + q[:, 19], 6)
    assert fac.breakdown_at == 2
    assert fac.alpha.size == 2
    # the two Ritz values are the subspace's eigenvalues
    t = np.diag(fac.alpha) + np.diag(fac.beta, 1) + np.diag(fac.beta, -1)
    assert np.max(np.abs(np.linalg.eigvalsh(t) - lam[[0, 19]])) < 1e-8


def test_lanczos_rejects_zero_start():
    with pytest.raises(ValueError, match="nonzero"):
        lanczos(lambda w: w, np.zeros(4), 2)
    with pytest.raises(ValueError, match="at least 1"):
        lanczos(lambda w: w, np.ones(4), 0)


@given(st.integers(0, 2 ** 31 - 1))
def test_krylov_exponential_preserves_norm(seed):
    gen = np.random.default_rng(seed)
    n = 16
    a = random_hermitian(gen, n)
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    out, _ = lanczos_exp_apply(lambda w: a @ w, v, 0.8, 6)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-10)


def test_full_krylov_space_equals_dense_exponential(rng):
    for seed in range(6):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(4, 20))
        a = random_hermitian(gen, n)
        v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        tau = float(gen.uniform(0.05, 1.2))
        got, _ = lanczos_exp_apply(lambda w: a @ w, v, tau, n,
                                   reorthogonalize=True)
        ref = scipy.linalg.expm(-1j * tau * a) @ v
        assert np.max(np.abs(got - ref)) < 1e-10 * np.linalg.norm(v)


def test_krylov_error_decreases_with_subspace_dimension():
    gen = np.random.default_rng(11)
    n = 40
    a = random_hermitian(gen, n, complex_entries=False)
    v = gen.standard_normal(n) + 0j
    ref = scipy.linalg.expm(-1j * 0.5 * a) @ v
    errs = []
    for m in (2, 5, 10, 20):
        got, _ = lanczos_exp_apply(lambda w: a @ w, v, 0.5, m,
                                   reorthogonalize=True)
        errs.append(np.linalg.norm(got - ref))
    assert errs[0] > errs[1] > errs[2] > errs[3]


# -- Magnus stepping --------------------------------------------------------------


def test_scheme_lookup():
    with pytest.raises(ValueError, match="unknown scheme"):
        MagnusScheme.from_name("rk4")


def test_time_independent_step_is_plain_exponential(rng):
    # both schemes collapse to exp(-i h A) when A does not move
    gen = np.random.default_rng(21)
    n = 10
    a = random_hermitian(gen, n)
    y = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    h = 0.3
    ref = scipy.linalg.expm(-1j * h * a) @ y
    for name in ("midpoint", "gl2"):
        out, _ = magnus_step(MagnusScheme.from_name(name),
                             lambda t: (lambda w: a @ w), y, 0.0, h, n,
                             reorthogonalize=True)
        assert np.max(np.abs(out - ref)) < 1e-10


def test_oscillator_phases_are_exact():
    # diagonal generator: every coefficient just turns with its level phase
    levels = np.arange(8) + 0.5
    ham = lambda t: (lambda w: levels * w)
    y0 = np.exp(1j * np.linspace(0, 2, 8))
    out = propagate_magnus(MagnusScheme.from_name("midpoint"), ham,
                           y0, 0.0, 1.0, 7, 8)
    ref = np.exp(-1j * levels) * y0
    assert np.max(np.abs(out - ref)) < 1e-12


def _driven_system():
    # small two-level drive with non-commuting pieces, solvable to machine
    # precision by brute-force sub-stepping
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])

    def ham_mat(t):
        return sz + 0.75 * np.sin(2.1 * t) * sx

    def ham(t):
        m = ham_mat(t)
        return lambda w: m @ w

    y0 = np.array([1.0, 0.0], dtype=complex)
    fine = y0
    nsub = 40_000
    h = 1.0 / nsub
    for k in range(nsub):
        fine = scipy.linalg.expm(-1j * h * ham_mat((k + 0.5) * h)) @ fine
    return ham, y0, fine


def test_scheme_convergence_orders():
    ham, y0, ref = _driven_system()
    errs = {}
    for name in ("midpoint", "gl2"):
        scheme = MagnusScheme.from_name(name)
        errs[name] = [
            np.max(np.abs(propagate_magnus(scheme, ham, y0, 0.0, 1.0, n, 2)
                          - ref))
            for n in (8, 16, 32)
        ]
    mid = errs["midpoint"]
    assert 3.3 < mid[0] / mid[1] < 4.7
    assert 3.3 < mid[1] / mid[2] < 4.7
    gl2 = errs["gl2"]
    assert 11.0 < gl2[0] / gl2[1] < 21.0
    assert 11.0 < gl2[1] / gl2[2] < 21.0
    assert gl2[0] < mid[0]


def test_propagation_callback_sees_every_step():
    seen = []
    ham = lambda t: (lambda w: w)
    propagate_magnus(MagnusScheme.from_name("midpoint"), ham,
                     np.ones(3, dtype=complex), 0.0, 1.0, 5, 3,
                     callback=lambda k, t, y: seen.append((k, round(t, 12))))
    assert seen == [(1, 0.2), (2, 0.4), (3, 0.6), (4, 0.8), (5, 1.0)]


def test_propagate_rejects_zero_steps():
    ham = lambda t: (lambda w: w)
    with pytest.raises(ValueError, match="at least 1"):
        propagate_magnus(MagnusScheme.from_name("midpoint"), ham,
                         np.ones(2, dtype=complex), 0.0, 1.0, 0, 2)
