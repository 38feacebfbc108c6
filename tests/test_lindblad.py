import math

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
    number_operator,
    one_photon_state,
    trace_distance,
    vacuum_state,
)
from dfsim import lindblad
from dfsim.kernel import MemoryKernelSolution
from dfsim.lindblad import (
    STEP_GUARD,
    LindbladGenerator,
    _ACTION_STEP_NORM,
    _expm,
    _expm_action,
    _sectors,
    _taylor_degree,
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


@pytest.mark.parametrize("max_step", [0.0, -1.0])
def test_propagate_rejects_nonpositive_max_step(max_step):
    spec = TruncationSpec(1, 1)
    gen = build_bm_generator(RateModel((1.0,)), spec, omega=5.0)
    with pytest.raises(ValueError, match="max_step"):
        propagate(gen, fock_state(spec, (1,)), np.linspace(0, 1, 5), max_step=max_step)


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


def _hamiltonian_at(gen, t):
    shift, gamma = gen.coefficients(t)
    ham = gen.hamiltonian
    if shift != 0.0 and gen.shift_operator is not None:
        ham = ham + shift * gen.shift_operator
    return ham, gamma


def _kron_superoperator(gen, t=0.0):
    """The superoperator written with np.kron over the whole space, with the
    sink folded into K = -iH - S and J = iH - S, as the bitwise reference for
    ``to_matrix``."""
    ham, gamma = _hamiltonian_at(gen, t)
    eye = np.eye(gen.spec.dim)
    pairs = [
        (li, lj, gamma[i, j])
        for i, li in enumerate(gen.jump_operators)
        for j, lj in enumerate(gen.jump_operators)
        if gamma[i, j] != 0
    ]
    sink = np.zeros_like(ham)
    for li, lj, g in pairs:
        sink = sink + g * (lj.conj().T @ li)
    lio = np.kron(-1j * ham - sink, eye) + np.kron(eye, (1j * ham - sink).T)
    for li, lj, g in pairs:
        lio = lio + 2.0 * g * np.kron(li, lj.conj())
    return lio


def _textbook_superoperator(gen, t=0.0):
    """The unfolded sum, one np.kron per term of the master equation."""
    ham, gamma = _hamiltonian_at(gen, t)
    eye = np.eye(gen.spec.dim)
    lio = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for i, li in enumerate(gen.jump_operators):
        for j, lj in enumerate(gen.jump_operators):
            g = gamma[i, j]
            if g == 0:
                continue
            pij = lj.conj().T @ li
            lio = lio + 2.0 * g * np.kron(li, lj.conj())
            lio = lio - g * (np.kron(pij, eye) + np.kron(eye, pij.T))
    return lio


def _quadrature_damping(spec):
    # the jump a + a^dag changes the excitation number by -1 and +1 at once
    low = ladder_operator(spec, 0)
    return LindbladGenerator(
        spec, number_operator(spec, 0), (low + low.conj().T,), np.array([[0.5]])
    )


def _generators():
    spec = TruncationSpec(2, 2)
    times = np.linspace(0.0, 1.0, 11)
    kernel = MemoryKernelSolution(
        times=times,
        amplitude=np.exp(-times),
        omega=1.1,
        damping=0.5 + 0.3 * times,
        frequency_shift=0.2 * np.sin(times),
        injection_rate=0.05 * times,
    )
    return {
        "markovian_thermal": (
            build_bm_generator(
                RateModel((0.8, 1.2), thermal_occupation=0.3), spec, omega=1.0
            ),
            0.0,
        ),
        "realistic": (
            build_realistic_generator(
                RateModel((1.0, 0.6), cross_rate=0.5 + 0.3j), 0.9, 1.2, spec
            ),
            0.0,
        ),
        "time_dependent": (
            build_time_dependent_generator(
                kernel, spec, collective_direction=[1.0, 0.5j]
            ),
            0.37,
        ),
    }


@pytest.mark.parametrize("name", ["markovian_thermal", "realistic", "time_dependent"])
def test_to_matrix_block_is_slice_of_full(name):
    gen, t = _generators()[name]
    full = gen.to_matrix(t)
    assert np.array_equal(full, _kron_superoperator(gen, t))
    textbook = _textbook_superoperator(gen, t)
    assert np.max(np.abs(full - textbook)) <= 1e-14 * np.max(np.abs(textbook))
    rho = random_density_matrix(np.random.default_rng(4), gen.spec)
    blocks = [] if gen.is_time_dependent else _sectors(gen, rho.matrix)
    scattered = np.random.default_rng(5).permutation(full.shape[0])[:23]
    for indices in blocks + [scattered]:
        assert np.array_equal(gen.to_matrix(t, indices=indices), full[np.ix_(indices, indices)])
    # the blocks cover the space and the superoperator never leaves them
    if blocks:
        assert sorted(np.concatenate(blocks).tolist()) == list(range(full.shape[0]))
        label = np.empty(full.shape[0], dtype=int)
        for n, indices in enumerate(blocks):
            label[indices] = n
        rows, cols = np.nonzero(full)
        assert np.array_equal(label[rows], label[cols])


def test_sectors_of_non_conserving_generators():
    spec = TruncationSpec(1, 3)
    rho = fock_state(spec, (1,)).matrix
    (whole,) = _sectors(_quadrature_damping(spec), rho)
    assert np.array_equal(whole, np.arange(spec.dim**2))
    # a and a^dag are each graded, but a coefficient pairing them mixes k
    low = ladder_operator(spec, 0)
    paired = LindbladGenerator(
        spec,
        number_operator(spec, 0),
        (low, low.conj().T),
        np.array([[1.0, 0.2], [0.2, 0.5]]),
    )
    (whole,) = _sectors(paired, rho)
    assert np.array_equal(whole, np.arange(spec.dim**2))
    diagonal = build_bm_generator(
        RateModel((1.0,), thermal_occupation=0.5), spec, omega=1.0
    )
    (block,) = _sectors(diagonal, rho)
    assert np.array_equal(block, [0, 5, 10, 15])


def test_exact_engine_matches_rk4_on_three_sectors():
    spec = TruncationSpec(2, 3)
    gen = build_bm_generator(
        RateModel((0.8, 1.2), thermal_occupation=0.3), spec, omega=1.0
    )
    psi = np.zeros(spec.dim, dtype=complex)
    psi[spec.index_of((0, 0))] = 0.6
    psi[spec.index_of((1, 0))] = 0.48j
    psi[spec.index_of((0, 1))] = 0.64
    rho0 = DensityMatrix.from_state_vector(spec, psi)
    times = np.linspace(0.0, 0.3, 7)
    exact = propagate(gen, rho0, times)
    rk4 = propagate(gen, rho0, times, max_step=1e-4)
    # k = 0 pairs equal total numbers, k = +-1 neighbouring ones
    assert exact.sector_sizes == (44, 40, 40)
    for a, b in zip(exact.states, rk4.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9


def test_exact_engine_matches_rk4_at_d49():
    spec = TruncationSpec(2, 6)
    gen = build_bm_generator(
        RateModel((1.1, 0.7), thermal_occupation=0.08), spec, omega=1.5
    )
    rho0 = one_photon_state(ModeVector.from_angles(0.7, 1.9), spec)
    times = np.linspace(0.0, 0.02, 3)
    exact = propagate(gen, rho0, times)
    rk4 = propagate(gen, rho0, times, max_step=0.5 * STEP_GUARD / gen.norm_estimate())
    assert (exact.engine, exact.sector_sizes) == ("exact", (231,))
    for a, b in zip(exact.states, rk4.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9


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



# -- Taylor action ---------------------------------------------------------------


def _non_normal(rng, n, norm):
    # upper Hessenberg, complex: far from normal
    a = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)
    return a * (norm / np.linalg.norm(a, 1))


@pytest.mark.parametrize("norm", [1e-3, 0.5, 2.0, 7.0, 30.0])
def test_expm_action_matches_expm(norm):
    rng = np.random.default_rng(int(1e3 * norm))
    v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    for a in (
        _non_normal(rng, 20, norm),
        # strongly damped: exp(a) v is small while the series terms are not,
        # the case the step cap of the action exists for
        _non_normal(rng, 20, 0.2 * norm) - 0.8 * norm * np.eye(20),
    ):
        expected = _expm(a) @ v
        out = _expm_action(a, v)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)
        # the time argument scales the matrix, with or without a known norm
        half = _expm_action(a, v, 0.5, np.linalg.norm(a, 1))
        assert np.allclose(half, _expm(a, 0.5) @ v, rtol=1e-13, atol=0.0)


def test_expm_action_of_zero_leaves_vector_unchanged():
    v = np.array([1.0 + 2.0j, -3.0, 0.5j, 1e-300])
    assert np.array_equal(_expm_action(np.zeros((4, 4), dtype=complex), v, 7.0), v)


def test_non_finite_norms_never_reach_the_degree_loop():
    with pytest.raises(ValueError):
        _taylor_degree(math.inf)
    a = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    assert np.all(np.isnan(_expm_action(a, np.ones(2, dtype=complex))))
    assert np.all(np.isnan(_expm(np.ones((2, 2)), math.inf)))


def _one_photon_d49():
    spec = TruncationSpec(2, 6)
    gen = build_bm_generator(
        RateModel((1.1, 0.7), thermal_occupation=0.08), spec, omega=1.5
    )
    return gen, one_photon_state(ModeVector.from_angles(0.7, 1.9), spec)


def _count_expm(monkeypatch):
    calls = []

    def counted(a, t=1.0):
        calls.append(a.shape[0])
        return _expm(a, t)

    monkeypatch.setattr(lindblad, "_expm", counted)
    return calls


def test_exact_path_choice(monkeypatch):
    calls = _count_expm(monkeypatch)
    gen, rho0 = _one_photon_d49()
    res = propagate(gen, rho0, np.linspace(0.0, 0.2, 11))
    assert (res.engine, res.sector_sizes, calls) == ("exact", (231,), [])
    # small blocks sampled often: one exponential per block, then matvecs
    spec = TruncationSpec(2, 1)
    gen = build_realistic_generator(
        RateModel((1.0, 1.2), cross_rate=0.9), 1.0, 1.0, spec
    )
    rho0 = random_density_matrix(np.random.default_rng(6), spec)
    res = propagate(gen, rho0, np.linspace(0.0, 1.0, 101))
    assert res.engine == "exact"
    assert sorted(calls, reverse=True) == list(res.sector_sizes)


def test_action_path_matches_rk4_at_d49(monkeypatch):
    calls = _count_expm(monkeypatch)
    gen, rho0 = _one_photon_d49()
    # the last interval is long enough to take two steps
    times = np.array([0.0, 0.004, 0.01, 0.013, 0.02, 0.08])
    exact = propagate(gen, rho0, times)
    rk4 = propagate(gen, rho0, times, max_step=0.5 * STEP_GUARD / gen.norm_estimate())
    assert (exact.engine, exact.sector_sizes, calls) == ("exact", (231,), [])
    (block,) = _sectors(gen, rho0.matrix)
    assert np.linalg.norm(gen.to_matrix(indices=block), 1) * 0.06 > _ACTION_STEP_NORM
    for a, b in zip(exact.states, rk4.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9


def test_action_path_divergence_at_first_sample():
    gen, rho0 = _one_photon_d49()
    ham = np.array(gen.hamiltonian)
    ham[1, 1] = np.inf
    broken = LindbladGenerator(gen.spec, ham, gen.jump_operators, gen.kossakowski)
    times = np.linspace(0.0, 0.2, 11)
    with pytest.raises(DivergenceError) as info:
        propagate(broken, rho0, times)
    assert info.value.time == times[1]


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

    # the budget counts the entries of the occupied blocks: a Fock state at
    # d = 25 occupies one 25-entry block of the 625-entry space
    wide = TruncationSpec(1, 24)
    gen = build_bm_generator(RateModel((1.0,)), wide, omega=1.0)
    res = propagate(gen, fock_state(wide, (1,)), np.linspace(0.0, 0.01, 2))
    assert (res.engine, res.sector_sizes) == ("exact", (25,))
    # a non-conserving generator is one whole-space block: (d^2)^2 entries
    # fit the budget at d = 24 and exceed it at d = 25
    for levels, engine in ((24, "exact"), (25, "rk4")):
        res = propagate(
            _quadrature_damping(TruncationSpec(1, levels - 1)),
            fock_state(TruncationSpec(1, levels - 1), (1,)),
            np.linspace(0.0, 1e-3, 2),
        )
        assert res.engine == engine
        assert res.sector_sizes == ((levels**2,) if engine == "exact" else ())


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


# -- RK4 on the k-blocks -----------------------------------------------------------


def _dense_rk4(monkeypatch, *args, **kwargs):
    # with no budget every generator falls back to dense apply
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "EXACT_MAX_ENTRIES", 0)
        return propagate(*args, **kwargs)


@pytest.mark.parametrize(
    "name, options",
    [
        ("markovian_thermal", {}),
        ("realistic", {}),
        ("time_dependent", {}),
        ("realistic", {"richardson": True}),
        ("realistic", {"renormalize": True}),
    ],
)
def test_block_rk4_matches_dense_rk4(monkeypatch, name, options):
    gen, _ = _generators()[name]
    rho0 = random_density_matrix(np.random.default_rng(8), gen.spec)
    times = np.array([0.0, 0.1, 0.25, 0.3, 0.7, 1.0])
    step = 0.5 * STEP_GUARD / gen.norm_estimate()
    blocks = propagate(gen, rho0, times, max_step=step, **options)
    dense = _dense_rk4(monkeypatch, gen, rho0, times, max_step=step, **options)
    assert (blocks.engine, dense.engine, dense.sector_sizes) == ("rk4", "rk4", ())
    # a random state occupies every k of the 81-entry space
    assert sum(blocks.sector_sizes) == gen.spec.dim**2
    for a, b in zip(blocks.states, dense.states):
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-13


def _memory_kernel_generator(spec):
    times = np.linspace(0.0, 1.0, 21)
    kernel = MemoryKernelSolution(
        times=times,
        amplitude=np.exp(-times),
        omega=1.0,
        damping=0.4 + 0.2 * times,
        frequency_shift=0.1 * np.cos(times),
        injection_rate=0.03 + 0.02 * times,
    )
    return build_time_dependent_generator(kernel, spec, collective_direction=[1.0, 1.0])


def test_time_dependent_sectors_from_the_coefficient_pattern():
    spec = TruncationSpec(2, 2)
    gen = _memory_kernel_generator(spec)
    rho0 = one_photon_state(ModeVector.from_angles(0.5, 0.2), spec)
    # with every pair possible the lowering and raising jumps mix k ...
    (whole,) = _sectors(gen, rho0.matrix)
    assert whole.size == spec.dim**2
    # ... but the coefficients never pair them: one k = 0 block, 1 + 4 + 9 + 4 + 1
    _, gammas = gen.coefficients(np.linspace(0.0, 1.0, 7))
    (block,) = _sectors(gen, rho0.matrix, np.any(gammas != 0, axis=0))
    assert block.size == 19
    res = propagate(gen, rho0, np.linspace(0.0, 1.0, 6))
    assert (res.engine, res.sector_sizes) == ("rk4", (19,))
    quadrature = _quadrature_damping(TruncationSpec(1, 3))
    rho = fock_state(TruncationSpec(1, 3), (1,)).matrix
    (whole,) = _sectors(quadrature, rho, quadrature.kossakowski != 0)
    assert whole.size == 16


def test_schedule_on_an_array_equals_scalar_calls():
    gen = _memory_kernel_generator(TruncationSpec(2, 1))
    times = np.array([0.0, 0.013, 0.5, 0.77, 1.0])
    shifts, gammas = gen.coefficients(times)
    assert shifts.shape == (5,) and gammas.shape == (5, 2, 2)
    for t, shift, gamma in zip(times, shifts, gammas):
        scalar_shift, scalar_gamma = gen.coefficients(t)
        assert isinstance(scalar_shift, float)
        assert shift == scalar_shift
        assert np.array_equal(gamma, scalar_gamma)
    with pytest.raises(ValueError, match="outside"):
        gen.coefficients(np.array([0.5, 1.2]))
    with pytest.raises(ValueError, match="outside"):
        gen.coefficients(np.array([-0.1, 0.5]))
