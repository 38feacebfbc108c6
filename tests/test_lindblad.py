import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsim.coupling import RateModel
from dfsim.errors import (
    ConvergenceError,
    DivergenceError,
    StepSizeError,
    UnphysicalRatesError,
)
from dfsim.fock import (
    DensityMatrix,
    ModeVector,
    TruncationSpec,
    creation_operator,
    dfs_state_builder,
    fock_state,
    ladder_operator,
    mode_population,
    one_photon_state,
    trace_distance,
    vacuum_state,
)
from dfsim.kernel import MemoryKernelSolution
from dfsim.lindblad import (
    EXACT_MAX_DIM,
    LindbladGenerator,
    _expm,
    build_bm_generator,
    build_realistic_generator,
    build_time_dependent_generator,
    propagate,
    steady_state,
)
from dfsim.propagator import apply_superoperator, markov_coefficients
from dfsim.realistic import fit_decay_rate
from _support import random_density_matrix, random_hermitian_unit_trace

SPEC2 = TruncationSpec(2, 2)


def test_single_mode_damped_oscillator():
    spec = TruncationSpec(1, 2)
    gen = build_bm_generator(RateModel((0.8,)), spec, omega=1.3)
    rho = fock_state(spec, (1,)).matrix
    deriv = gen.apply(rho)
    n_op = creation_operator(spec, 0) @ ladder_operator(spec, 0)
    assert np.trace(n_op @ deriv).real == pytest.approx(-2 * 0.8, abs=1e-12)
    assert abs(np.trace(deriv)) < 1e-14


def test_bm_generator_requires_omega_for_rate_model():
    with pytest.raises(ValueError):
        build_bm_generator(RateModel((1.0, 1.0)), SPEC2)


def test_protected_state_has_no_dissipation():
    gen = build_bm_generator(RateModel((1.0, 1.0)), SPEC2, omega=1.0)
    rho = dfs_state_builder(np.diag([0.0, 1.0]), np.pi / 4, SPEC2)
    deriv = gen.apply(rho.matrix)
    ham = gen.hamiltonian
    unitary_part = -1j * (ham @ rho.matrix - rho.matrix @ ham)
    assert np.max(np.abs(deriv - unitary_part)) < 1e-14


def test_collective_photon_decay_rate():
    # one photon in the damped collective mode: d<n>/dt = -2(k1+k2)<n>
    gen = build_bm_generator(RateModel((1.0, 1.0)), SPEC2, omega=1.0)
    mode = ModeVector.from_angles(np.pi / 4, 0.0)
    rho = one_photon_state(mode, SPEC2)
    low = (ladder_operator(SPEC2, 0) + ladder_operator(SPEC2, 1)) / np.sqrt(2)
    n_op = low.conj().T @ low
    rate = np.trace(n_op @ gen.apply(rho.matrix)).real
    assert rate == pytest.approx(-4.0, abs=1e-12)


def test_realistic_cross_terms_vanish():
    gen = build_realistic_generator(RateModel((0.5, 0.9)), 1.0, 1.4, SPEC2)
    gen0 = LindbladGenerator(
        SPEC2,
        gen.hamiltonian,
        (ladder_operator(SPEC2, 0), ladder_operator(SPEC2, 1)),
        np.diag([0.5, 0.9]).astype(complex),
    )
    rng = np.random.default_rng(0)
    rho = random_hermitian_unit_trace(rng, SPEC2.dim)
    assert np.max(np.abs(gen.apply(rho) - gen0.apply(rho))) < 1e-14


def test_realistic_equals_bm_at_separability():
    k1, k2 = 0.7, 1.9
    k3 = np.sqrt(k1 * k2)
    real = build_realistic_generator(RateModel((k1, k2), cross_rate=k3), 1.1, 1.1, SPEC2)
    bm = build_bm_generator(RateModel((k1, k2)), SPEC2, omega=1.1)
    assert np.max(np.abs(real.to_matrix() - bm.to_matrix())) < 1e-12


def test_realistic_rejects_unphysical_cross_rate():
    with pytest.raises(UnphysicalRatesError):
        build_realistic_generator(RateModel((1.0, 1.0), cross_rate=1.01), 1.0, 1.0, SPEC2)
    gen = build_realistic_generator(
        RateModel((1.0, 1.0), cross_rate=1.01), 1.0, 1.0, SPEC2, allow_unphysical=True
    )
    assert gen is not None


def test_generator_trace_duality():
    rng = np.random.default_rng(7)
    kernel = MemoryKernelSolution(
        times=np.linspace(0, 1, 11),
        amplitude=np.exp(-np.linspace(0, 1, 11) * (0.5 + 1j)),
        omega=1.0,
        damping=np.full(11, 0.5),
        frequency_shift=np.full(11, 0.1),
        injection_rate=np.full(11, 0.2),
    )
    generators = [
        build_bm_generator(RateModel((1.0, 0.5), thermal_occupation=0.3), SPEC2, omega=1.0),
        build_realistic_generator(RateModel((1.0, 0.5), cross_rate=0.6), 1.0, 1.2, SPEC2),
        build_time_dependent_generator(kernel, SPEC2, collective_direction=[1.0, 1.0]),
    ]
    for gen in generators:
        for _ in range(334):
            rho = random_hermitian_unit_trace(rng, SPEC2.dim)
            t = rng.uniform(0.0, 1.0)
            assert abs(np.trace(gen.apply(rho, t))) < 1e-12


def test_time_dependent_constant_reduces_to_bm():
    k, nbar, omega = 0.9, 0.4, 1.2
    times = np.linspace(0, 2, 21)
    kernel = MemoryKernelSolution(
        times=times,
        amplitude=np.exp((-1j * omega - k) * times),
        omega=omega,
        damping=np.full_like(times, k),
        frequency_shift=np.zeros_like(times),
        injection_rate=np.full_like(times, k * nbar),
    )
    spec = TruncationSpec(1, 3)
    td = build_time_dependent_generator(kernel, spec)
    bm = build_bm_generator(
        RateModel((k,), thermal_occupation=nbar), spec, omega=omega
    )
    rng = np.random.default_rng(1)
    rho = random_hermitian_unit_trace(rng, spec.dim)
    assert np.max(np.abs(td.apply(rho, 0.7) - bm.apply(rho))) < 1e-12


def test_time_dependent_shift_moves_phase():
    # constant shift s adds to the oscillation frequency of the damped mode
    omega, s = 1.0, 0.6
    times = np.linspace(0, 2.0, 41)
    kernel = MemoryKernelSolution(
        times=times,
        amplitude=np.exp(-1j * omega * times),
        omega=omega,
        damping=np.zeros_like(times),
        frequency_shift=np.full_like(times, s),
        injection_rate=None,
    )
    spec = TruncationSpec(1, 2)
    gen = build_time_dependent_generator(kernel, spec)
    low = ladder_operator(spec, 0)
    psi = np.zeros(spec.dim, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    rho0 = DensityMatrix(spec, np.outer(psi, psi.conj()))
    res = propagate(gen, rho0, times, max_step=1e-3)
    amp = np.array([np.trace(low @ st.matrix) for st in res.states])
    expected = 0.5 * np.exp(-1j * (omega + s) * times)
    assert np.max(np.abs(amp - expected)) < 1e-8


def test_time_dependent_outside_span():
    times = np.linspace(0, 1, 11)
    kernel = MemoryKernelSolution(
        times=times,
        amplitude=np.exp(-times),
        omega=0.0,
        damping=np.ones_like(times),
        frequency_shift=np.zeros_like(times),
    )
    gen = build_time_dependent_generator(kernel, TruncationSpec(1, 1))
    with pytest.raises(ValueError):
        gen.coefficients(2.0)


def test_propagate_zero_generator():
    spec = TruncationSpec(1, 1)
    gen = LindbladGenerator(spec, np.zeros((2, 2)), (), np.zeros((0, 0)))
    rho0 = fock_state(spec, (1,))
    res = propagate(gen, rho0, np.linspace(0, 5, 6), max_step=0.5)
    for state in res.states:
        assert np.array_equal(state.matrix, rho0.matrix)


def test_propagate_single_mode_decay_value():
    spec = TruncationSpec(1, 1)
    gen = build_bm_generator(RateModel((1.0,)), spec, omega=0.0)
    rho0 = fock_state(spec, (1,))
    times = np.linspace(0.0, 0.5, 11)
    res = propagate(gen, rho0, times, max_step=1e-3)
    population = res.final.matrix[1, 1].real
    assert population == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_propagate_optional_renormalization():
    spec = TruncationSpec(1, 2)
    gen = build_bm_generator(RateModel((1.0,)), spec, omega=1.0)
    rho0 = fock_state(spec, (2,))
    res = propagate(
        gen, rho0, np.linspace(0, 1.0, 11), max_step=5e-3, renormalize=True
    )
    assert np.max(res.trace_errors) < 1e-14


def test_steady_state_nonconvergence_raises():
    # a bare rotation never damps the coherence, so the residual cannot drop
    spec = TruncationSpec(1, 1)
    gen = LindbladGenerator(
        spec, np.diag([0.0, 1.0]).astype(complex), (), np.zeros((0, 0))
    )
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    rho0 = DensityMatrix(spec, np.outer(psi, psi))
    with pytest.raises(ConvergenceError):
        steady_state(gen, rho0, tol=1e-10, t_max=5.0)


def test_propagate_step_guard():
    spec = TruncationSpec(1, 1)
    gen = build_bm_generator(RateModel((1.0,)), spec, omega=5.0)
    rho0 = fock_state(spec, (1,))
    with pytest.raises(StepSizeError):
        propagate(gen, rho0, np.linspace(0, 1, 5), max_step=1.0)


def test_propagate_divergence_detected():
    # a negative-rate channel grows without bound and must abort cleanly
    spec = TruncationSpec(1, 1)
    low = ladder_operator(spec, 0)
    gen = LindbladGenerator(
        spec,
        np.zeros((spec.dim, spec.dim)),
        (low,),
        np.array([[-5.0]], dtype=complex),
    )
    rho0 = fock_state(spec, (1,))
    with pytest.raises(DivergenceError) as info:
        propagate(gen, rho0, np.linspace(0, 100.0, 11), max_step=4e-3)
    assert info.value.time is not None


def test_rk4_step_halving_order():
    spec = TruncationSpec(1, 1)
    k = 1.0
    gen = build_bm_generator(RateModel((k,)), spec, omega=1.0)
    rho0 = fock_state(spec, (1,))
    t_end = 0.5
    exact = np.diag([1.0 - np.exp(-2 * k * t_end), np.exp(-2 * k * t_end)])

    def max_err(h):
        res = propagate(gen, rho0, np.array([0.0, t_end]), max_step=h)
        return np.max(np.abs(res.final.matrix - exact))

    ratio = max_err(0.0125) / max_err(0.00625)
    assert ratio >= 8.0 * 0.8  # fourth-order scheme: expect ~16


def test_richardson_reduces_error():
    spec = TruncationSpec(1, 1)
    gen = build_bm_generator(RateModel((1.0,)), spec, omega=0.0)
    rho0 = fock_state(spec, (1,))
    t_end = 0.5
    exact = np.diag([1.0 - np.exp(-2 * t_end), np.exp(-2 * t_end)])
    plain = propagate(gen, rho0, np.array([0.0, t_end]), max_step=0.02)
    extra = propagate(gen, rho0, np.array([0.0, t_end]), max_step=0.02, richardson=True)
    err_plain = np.max(np.abs(plain.final.matrix - exact))
    err_extra = np.max(np.abs(extra.final.matrix - exact))
    assert err_extra < err_plain / 10


def test_propagation_diagnostics_within_bounds():
    gen = build_bm_generator(
        RateModel((0.8, 1.2), thermal_occupation=0.4), TruncationSpec(2, 3), omega=1.0
    )
    rho0 = one_photon_state(ModeVector.from_angles(0.4, 0.2), TruncationSpec(2, 3))
    res = propagate(gen, rho0, np.linspace(0, 1.0, 21), max_step=1e-3)
    assert np.max(res.trace_errors) < 1e-8
    assert np.min(res.min_eigenvalues) > -1e-8
    for state in res.states:
        assert state.hermiticity_defect() < 1e-10


def test_superradiance_collective_rate_exceeds_individuals():
    rates = (0.3, 0.7)
    spec = TruncationSpec(2, 1)
    gen = build_bm_generator(RateModel(rates), spec, omega=1.0)
    mode = ModeVector.from_amplitudes(np.sqrt(np.array(rates)))
    rho0 = one_photon_state(mode, spec)
    total = sum(rates)
    times = np.linspace(0.0, 1.0 / total, 41)
    res = propagate(gen, rho0, times, max_step=1e-3)
    series = np.array([mode_population(s, mode) for s in res.states])
    fit = fit_decay_rate(times, series, (0.0, times[-1]))
    collective = 0.5 * fit.rate
    assert collective == pytest.approx(total, rel=0.02)
    assert collective > max(rates)


def test_steady_state_vacuum_fixed_point():
    spec = TruncationSpec(1, 2)
    gen = build_bm_generator(RateModel((1.0,)), spec, omega=1.0)
    out = steady_state(gen, vacuum_state(spec))
    assert trace_distance(out, vacuum_state(spec)) < 1e-10


def test_steady_state_realistic_leaks_to_vacuum():
    spec = TruncationSpec(2, 1)
    k1 = k2 = 1.0
    gen = build_realistic_generator(
        RateModel((k1, k2), cross_rate=0.5), 1.0, 1.0, spec
    )
    rho0 = one_photon_state(ModeVector.from_angles(1.1, 0.3), spec)
    out = steady_state(gen, rho0, tol=1e-10, t_max=200.0)
    assert trace_distance(out, vacuum_state(spec)) < 1e-6


def test_steady_state_rejects_time_dependent():
    times = np.linspace(0, 1, 11)
    kernel = MemoryKernelSolution(
        times=times,
        amplitude=np.exp(-times),
        omega=0.0,
        damping=np.ones_like(times),
        frequency_shift=np.zeros_like(times),
    )
    gen = build_time_dependent_generator(kernel, TruncationSpec(1, 1))
    with pytest.raises(ValueError):
        steady_state(gen, vacuum_state(TruncationSpec(1, 1)))


def test_propagation_csv_format():
    spec = TruncationSpec(1, 1)
    gen = build_bm_generator(RateModel((1.0,)), spec, omega=0.0)
    res = propagate(gen, fock_state(spec, (1,)), np.linspace(0, 0.2, 3), max_step=1e-2)
    text = res.to_csv_text({"population": np.array([1.0, 2.0 / 3.0, 0.5])})
    lines = text.split("\n")
    assert lines[0] == "time,trace_error,min_eig,population"
    assert "0.66666666666666663" in lines[2]  # 17 significant digits
    assert text.endswith("\n") and "\r" not in text


# -- exact engine --------------------------------------------------------------


def test_expm_zero_and_diagonal():
    assert np.max(np.abs(_expm(np.zeros((4, 4), dtype=complex)) - np.eye(4))) < 1e-15
    # |-40 - 7i| is above the unscaled range, so this also takes squarings
    entries = np.array([-3.0, 0.5 + 2.0j, 1e-3, -40.0 - 7.0j])
    out = _expm(np.diag(entries))
    assert np.allclose(out, np.diag(np.exp(entries)), rtol=1e-13, atol=1e-15)


def test_expm_nilpotent_jordan_block():
    block = np.diag([1.0, 1.0], 1).astype(complex)
    expected = np.eye(3) + block + block @ block / 2.0
    assert np.max(np.abs(_expm(block) - expected)) < 1e-15


def test_expm_large_skew_hermitian_stays_unitary():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    herm = 0.5 * (a + a.conj().T)
    herm *= 1e3 / np.linalg.norm(herm, 2)
    unitary = _expm(1j * herm)
    assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(8))) < 1e-12


def test_exact_engine_matches_rk4_thermal():
    spec = TruncationSpec(2, 3)
    gen = build_bm_generator(
        RateModel((0.8, 1.2), thermal_occupation=0.3), spec, omega=1.0
    )
    rho0 = one_photon_state(ModeVector.from_angles(0.4, 0.2), spec)
    # equal intervals share one propagator; the last two need their own
    times = np.concatenate([np.linspace(0.0, 0.1, 6), [0.13, 0.2]])
    exact = propagate(gen, rho0, times)
    rk4 = propagate(gen, rho0, times, max_step=1e-4)
    assert (exact.engine, rk4.engine) == ("exact", "rk4")
    for a, b in zip(exact.states, rk4.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9


def test_exact_engine_matches_closed_form_map():
    # zero temperature and one photon: the truncated space holds the
    # closed-form map exactly (at finite temperature the map itself spills
    # past max_excitation 3)
    k1, k2, omega = 1.0, 0.5, 1.0
    spec = TruncationSpec(2, 3)
    gen = build_bm_generator(RateModel((k1, k2)), spec, omega=omega)
    rho0 = one_photon_state(ModeVector.from_angles(0.6, 0.3), spec)
    times = np.linspace(0.0, 10.0, 26)
    res = propagate(gen, rho0, times)
    assert res.engine == "exact"
    for t, state in zip(times, res.states):
        analytic = apply_superoperator(markov_coefficients(k1, k2, 0.0, omega, t), rho0)
        assert np.max(np.abs(analytic.matrix - state.matrix)) < 1e-10


def test_exact_engine_divergence_detected():
    # the same negative-rate channel as the RK4 case above, on the exact path
    spec = TruncationSpec(1, 1)
    gen = LindbladGenerator(
        spec,
        np.zeros((spec.dim, spec.dim)),
        (ladder_operator(spec, 0),),
        np.array([[-5.0]], dtype=complex),
    )
    with pytest.raises(DivergenceError) as info:
        propagate(gen, fock_state(spec, (1,)), np.linspace(0, 100.0, 11))
    assert info.value.time is not None
    assert np.all(np.isnan(_expm(np.array([[np.inf]], dtype=complex))))


def test_engine_selection():
    spec = TruncationSpec(1, 2)
    gen = build_bm_generator(RateModel((1.0,)), spec, omega=1.0)
    rho0 = fock_state(spec, (1,))
    times = np.linspace(0.0, 0.2, 3)
    assert propagate(gen, rho0, times).engine == "exact"
    assert propagate(gen, rho0, times, max_step=1e-3).engine == "rk4"
    assert propagate(gen, rho0, times, richardson=True).engine == "rk4"
    assert propagate(gen, rho0, times, renormalize=True).engine == "rk4"

    kernel = MemoryKernelSolution(
        times=np.linspace(0, 1, 11),
        amplitude=np.exp(-np.linspace(0, 1, 11)),
        omega=1.0,
        damping=np.ones(11),
        frequency_shift=np.zeros(11),
    )
    td = build_time_dependent_generator(kernel, spec)
    assert propagate(td, rho0, times).engine == "rk4"

    for levels, engine in ((EXACT_MAX_DIM, "exact"), (EXACT_MAX_DIM + 1, "rk4")):
        wide = TruncationSpec(1, levels - 1)
        gen = build_bm_generator(RateModel((1.0,)), wide, omega=1.0)
        res = propagate(gen, fock_state(wide, (1,)), np.linspace(0.0, 0.01, 2))
        assert res.engine == engine


@settings(max_examples=40, deadline=None)
@given(
    k1=st.floats(0.05, 2.0),
    k2=st.floats(0.05, 2.0),
    cross=st.floats(0.0, 0.999),
    cross_phase=st.floats(0.0, 2.0 * np.pi),
    split=st.floats(-1.0, 1.0),
    t_max=st.floats(0.1, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_engine_states_stay_physical(k1, k2, cross, cross_phase, split, t_max, seed):
    k3 = cross * np.sqrt(k1 * k2) * np.exp(1j * cross_phase)
    spec = TruncationSpec(2, 2)
    gen = build_realistic_generator(
        RateModel((k1, k2), cross_rate=k3), 1.0 - split, 1.0 + split, spec
    )
    rho0 = random_density_matrix(np.random.default_rng(seed), spec)
    res = propagate(gen, rho0, np.linspace(0.0, t_max, 6))
    assert res.engine == "exact"
    for state in res.states:
        assert state.hermiticity_defect() < 1e-12
        assert state.trace_error() < 1e-12
    assert np.min(res.min_eigenvalues) >= -1e-10
