import numpy as np
import pytest

from hprop import (
    FastHamiltonian,
    MagnusScheme,
    OracleHamiltonian,
    assemble_exact_galerkin,
    assemble_oscillator_diagonal,
    build_full,
    build_hyperbolic,
    build_reference,
    custom_potential,
    henon_heiles_perturbed,
    interpolate,
    lanczos_perturbation_error,
    make_decay_vector,
    propagate_and_compare,
    propagate_magnus,
    quadrature_error,
    reduction_error,
    reduction_local_mask,
    torsional,
    torsional_minus_harmonic,
)
from hprop import error_lab, galerkin_oracle


def test_decay_vector_values_and_normalization():
    iset = build_full(1, 2)
    unit = make_decay_vector(iset, 1)
    assert np.allclose(unit.data * 1.5, [1.0, 1.0, 0.5])
    assert np.linalg.norm(unit.data) == pytest.approx(1.0, rel=1e-15)
    assert np.argmax(unit.data) == 0
    with pytest.raises(ValueError, match="positive integer"):
        make_decay_vector(iset, 0)


def test_decay_vector_is_separable_product():
    iset = build_hyperbolic(2, 8)
    v = make_decay_vector(iset, 3)
    for i, (k1, k2) in enumerate(iset.indices.tolist()):
        want = max(k1, 1) ** -3.0 * max(k2, 1) ** -3.0
        # the origin's raw component is 1
        assert v.data[i] / v.data[0] == pytest.approx(want, rel=1e-14)


def test_quadrature_error_zero_inside_exactness_window():
    # a rule of order K integrates phi_j phi_k x exactly for j, k <= K, so
    # degree-1 surrogates make the quadrature and exact assemblies coincide
    iset = build_hyperbolic(2, 12)
    spec = custom_potential(
        lambda p, t: 0.3 * p[:, 0] - 0.2 * p[:, 1], 2, 16.0)
    approx = interpolate(spec, 1)
    v = make_decay_vector(iset, 3)
    rep = quadrature_error(iset, approx, v)
    assert np.max(rep) < 1e-13


def test_dense_cap_refuses_before_any_matrix_or_rule(monkeypatch):
    built = []

    def spy(order):
        built.append(order)
        raise AssertionError("no rule may be built past the cap")

    monkeypatch.setattr(galerkin_oracle, "DENSE_CAP", 50)
    monkeypatch.setattr(error_lab, "gauss_hermite_rule", spy)
    monkeypatch.setattr(galerkin_oracle, "gauss_hermite_rule", spy)
    iset = build_hyperbolic(2, 20)          # 70 rows > 50
    approx = interpolate(torsional(2), 4)
    calls = [lambda: assemble_oscillator_diagonal(iset),
             lambda: assemble_exact_galerkin(iset, approx),
             lambda: quadrature_error(iset, approx,
                                      make_decay_vector(iset, 3)),
             lambda: OracleHamiltonian(iset, torsional(2), 4).matrix_at(0.0)]
    for call in calls:
        with pytest.raises(ValueError, match="exceeds the cap"):
            call()
    assert built == []


def test_quadrature_error_positive_outside_window():
    iset = build_hyperbolic(2, 10)
    approx = interpolate(torsional(2), 8)
    v = make_decay_vector(iset, 3)
    rep = quadrature_error(iset, approx, v)
    assert np.max(rep) > 1e-9
    assert rep.shape == (iset.size,)
    assert np.all(rep >= 0.0)


def test_reduction_error_vanishes_on_full_cubes():
    full = build_full(2, 8)
    approx = interpolate(torsional(2), 4)
    v = make_decay_vector(full, 3)
    rep = reduction_error(full, approx, v)
    assert np.max(rep) == 0.0


def test_reduction_error_confined_to_pruning_boundary():
    iset = build_hyperbolic(2, 20)
    approx = interpolate(torsional(2), 8)
    v = make_decay_vector(iset, 5)
    rep = reduction_error(iset, approx, v)
    mask = reduction_local_mask(iset, approx)
    assert mask.any() and not mask.all()
    assert np.max(rep[mask]) < 1e-13
    assert np.max(rep[~mask]) > 1e-13


def test_local_mask_identifies_interior():
    iset = build_hyperbolic(2, 10)
    approx = interpolate(torsional(2), 4)
    mask = reduction_local_mask(iset, approx)
    # the origin sees all its recurrence paths inside any downward closed set
    assert mask[iset.locate((0, 0))]
    degs = approx.degrees.tolist()
    for i, j in enumerate(iset.indices.tolist()):
        inside = all(tuple(a + b for a, b in zip(j, r)) in iset
                     for r in degs)
        assert mask[i] == inside


# -- Hamiltonian factories ----------------------------------------------------


def test_fast_and_oracle_hamiltonians_agree_on_full_cubes(rng):
    full = build_full(2, 10)
    spec = torsional_minus_harmonic(2)
    fast = FastHamiltonian(full, spec, 4)
    oracle = OracleHamiltonian(full, spec, 4)
    v = rng.standard_normal(full.size).astype(complex)
    for t in (0.0, 0.6):
        a = fast.matvec_at(t)(v)
        b = oracle.matvec_at(t)(v)
        assert np.max(np.abs(a - b)) < 1e-12


def test_confinement_split_keeps_oracle_exact(rng):
    # declared harmonic parts go through closed-form ladder entries on both
    # paths; the surrogate itself only ever sees the bounded smooth part
    iset = build_hyperbolic(2, 12)
    spec = torsional_minus_harmonic(2)
    fast = FastHamiltonian(iset, spec, 6)
    approx = fast.approx_at(0.0)
    assert np.max(np.abs(approx.coeffs)) < 3.0
    raw = interpolate(custom_potential(lambda p, t: spec(p, t), 2, 16.0), 6)
    assert np.max(np.abs(raw.coeffs)) > 30.0


def test_oracle_matrix_is_hermitian_and_time_dependent():
    iset = build_hyperbolic(2, 10)
    spec = custom_potential(
        lambda p, t: np.cos(p[:, 0] / 16.0) * (1.0 + t), 2, 16.0)
    oracle = OracleHamiltonian(iset, spec, 4)
    m0 = oracle.matrix_at(0.0)
    m1 = oracle.matrix_at(1.0)
    assert np.max(np.abs(m0 - m0.T)) < 1e-13
    assert np.max(np.abs(m1 - m0)) > 1e-3


@pytest.mark.parametrize("cls", [FastHamiltonian, OracleHamiltonian])
@pytest.mark.parametrize("set_dim, spec_dim", [(2, 3), (3, 2)])
def test_hamiltonians_refuse_a_potential_of_another_dimension(cls, set_dim,
                                                              spec_dim):
    # a wider spec would silently drop its extra axes, a narrower one
    # would index past its own
    iset = build_hyperbolic(set_dim, 12)
    with pytest.raises(ValueError, match="potential dimension"):
        cls(iset, henon_heiles_perturbed(spec_dim), 3)


def test_oracle_caches_are_not_constructor_arguments():
    iset = build_hyperbolic(2, 6)
    spec = henon_heiles_perturbed(2)
    with pytest.raises(TypeError):
        OracleHamiltonian(iset, spec, 3, {})
    with pytest.raises(TypeError):
        OracleHamiltonian(iset, spec, 3, _static=np.eye(iset.size))


# -- single-step and propagated error measurements ------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_perturbation_error_scales_linearly_in_step():
    iset = build_hyperbolic(2, 10)
    spec = torsional_minus_harmonic(2)
    errs = [lanczos_perturbation_error(iset, spec, 8, 3, h, 5)
            for h in (0.1, 0.05, 0.025)]
    assert 1.8 < errs[0] / errs[1] < 2.2
    assert 1.8 < errs[1] / errs[2] < 2.2


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_propagation_rows_structure_and_scheme_decay():
    iset = build_hyperbolic(2, 10)
    spec = torsional_minus_harmonic(2)
    rows = propagate_and_compare(iset, spec, 8, 3,
                                 MagnusScheme.from_name("midpoint"),
                                 [4, 8], 5)
    (scheme_4, perturbation_4), (scheme_8, perturbation_8) = rows
    assert scheme_8 < scheme_4
    assert perturbation_4 > 0.0 and perturbation_8 > 0.0
    assert perturbation_4 < scheme_4


def test_propagation_study_assembles_each_term_once(monkeypatch):
    # the reference reuses the study's own oracle, so no term matrix is
    # assembled twice
    built, assembled = [], []

    class Spy(OracleHamiltonian):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def count(*args):
        assembled.append(args)
        return assemble(*args)

    assemble = error_lab.assemble_quad_galerkin
    monkeypatch.setattr(error_lab, "OracleHamiltonian", Spy)
    monkeypatch.setattr(error_lab, "assemble_quad_galerkin", count)
    propagate_and_compare(build_hyperbolic(2, 6), henon_heiles_perturbed(2),
                          3, 3, MagnusScheme.from_name("midpoint"), [4], 5)
    assert len(built) == 1
    assert len(assembled) == len(built[0]._terms) > 0


def test_reference_agrees_with_a_fixed_step_run_four_times_finer(monkeypatch):
    # time dependence strong enough that doubling climbs several levels
    iset = build_hyperbolic(2, 6)
    ham = OracleHamiltonian(iset, henon_heiles_perturbed(2), 3)
    y0 = make_decay_vector(iset, 3).data.astype(np.complex128)
    levels = []

    def spy(scheme, ham_at, y, t0, t1, nsteps, krylov_steps):
        levels.append(nsteps)
        return propagate_magnus(scheme, ham_at, y, t0, t1, nsteps,
                                krylov_steps)

    monkeypatch.setattr(error_lab, "propagate_magnus", spy)
    reference = build_reference(ham, y0)
    assert levels[0] == error_lab.REFERENCE_MIN_STEPS
    assert len(levels) > 2
    assert all(b == 2 * a for a, b in zip(levels, levels[1:]))
    fine = propagate_magnus(MagnusScheme.from_name("gl2"), ham.matvec_at, y0,
                            0.0, 1.0, 4 * levels[-1],
                            error_lab.REFERENCE_KRYLOV)
    tol = error_lab.REFERENCE_TOL * np.max(np.abs(y0))
    assert np.max(np.abs(reference - fine)) <= 10 * tol
