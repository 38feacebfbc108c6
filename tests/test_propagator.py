import numpy as np
import pytest

from dfsim.coupling import RateModel
from dfsim.errors import TruncationOverflowError
from dfsim.fock import (
    ModeVector,
    TruncationSpec,
    dfs_state_builder,
    fidelity,
    mode_population,
    one_photon_state,
    trace_distance,
    vacuum_state,
)
from dfsim.lindblad import build_bm_generator, propagate
from dfsim.propagator import (
    _mixing_eigh,
    _rotation_unitary,
    apply_superoperator,
    asymptotic_state,
    coefficients_from_eta,
    markov_coefficients,
)
from _support import random_density_matrix

SPEC = TruncationSpec(2, 3)


def test_markov_coefficients_at_zero_time():
    c = markov_coefficients(1.0, 0.5, 0.7, 1.2, 0.0)
    assert c.thermal_weight == 1.0
    assert c.damping_exponent == 0.0
    assert c.emission_weight == 0.0


def test_markov_coefficients_zero_temperature():
    k1, k2, omega, t = 0.4, 1.1, 0.9, 0.6
    c = markov_coefficients(k1, k2, 0.0, omega, t)
    assert c.thermal_weight == 1.0
    assert c.damping_exponent == pytest.approx(complex(-(k1 + k2) * t, -omega * t))
    assert c.emission_weight == pytest.approx(1.0 - np.exp(-2 * (k1 + k2) * t))


def test_markov_coefficients_long_time_limits():
    c = markov_coefficients(1.0, 1.0, 1.0, 0.0, 50.0)
    assert c.thermal_weight == pytest.approx(0.5, abs=1e-12)
    assert c.emission_weight == pytest.approx(1.0, abs=1e-12)


def test_coefficients_from_eta_matches_markov():
    k1, k2, nbar, omega = 0.6, 0.9, 0.8, 1.3
    k = k1 + k2
    times = np.linspace(0.0, 1.2, 151)
    eta = np.exp((-1j * omega - k) * times)
    gained = nbar * (1.0 - np.exp(-2 * k * times))
    coeffs = coefficients_from_eta(
        eta, gained, times, mixing_angle=0.3, frequency=omega
    )
    for i, t in enumerate(times):
        ref = markov_coefficients(k1, k2, nbar, omega, t)
        got = coeffs[i]
        assert got.thermal_weight == pytest.approx(ref.thermal_weight, abs=1e-10)
        assert got.damping_exponent == pytest.approx(ref.damping_exponent, abs=1e-10)
        assert got.emission_weight == pytest.approx(ref.emission_weight, abs=1e-10)


def test_coefficients_from_eta_zero_gain():
    times = np.linspace(0.0, 1.0, 11)
    eta = np.exp(-0.5 * times)
    coeffs = coefficients_from_eta(eta, np.zeros_like(times), times)
    assert coeffs[0].thermal_weight == 1.0
    assert coeffs[0].damping_exponent == 0.0
    assert coeffs[0].emission_weight == 0.0
    for i, c in enumerate(coeffs):
        assert c.thermal_weight == 1.0
        assert c.emission_weight == pytest.approx(1.0 - abs(eta[i]) ** 2, abs=1e-12)


def test_coefficients_from_eta_phase_unwinding():
    omega = 5.0
    times = np.linspace(0.0, 4.0, 401)
    eta = np.exp(-1j * omega * times)
    coeffs = coefficients_from_eta(eta, np.zeros_like(times), times)
    phases = np.array([c.damping_exponent.imag for c in coeffs])
    assert np.max(np.abs(phases + omega * times)) < 1e-9  # no 2 pi jumps


def test_coefficients_from_eta_rejects_vanishing_amplitude():
    times = np.linspace(0.0, 2.0, 21)
    eta = (1.0 - times) * np.exp(-1j * times)  # exact zero at t = 1
    with pytest.raises(ValueError):
        coefficients_from_eta(eta, np.zeros_like(times), times)


def test_apply_superoperator_identity_at_zero_time():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(rng, SPEC)
    c = markov_coefficients(1.0, 2.0, 0.5, 1.0, 0.0)
    out = apply_superoperator(c, rho)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_rotation_cache_holds_one_entry_per_truncation():
    # the angle changes with every set of rates; caching per angle grew
    # without bound over a long run of configs
    _mixing_eigh.cache_clear()
    rho = one_photon_state(ModeVector.from_angles(0.4, 0.2), SPEC)
    for k2 in (0.3, 0.7, 1.1, 2.5):
        apply_superoperator(markov_coefficients(1.0, k2, 0.0, 1.0, 0.5), rho)
        unitary = _rotation_unitary(np.arctan(np.sqrt(k2)), SPEC)
        assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(SPEC.dim))) < 1e-13
    assert _mixing_eigh.cache_info().currsize == 1


def test_protected_family_evolves_unitarily():
    k1, k2, omega = 1.0, 0.7, 1.4
    theta = np.arctan(np.sqrt(k2 / k1))
    # pure superposition of 0, 1 and 2 excitations of the protected mode
    amps = np.array([0.6, 0.5 + 0.3j, 0.4 - 0.25j])
    amps = amps / np.linalg.norm(amps)
    table = np.outer(amps, amps.conj())
    rho0 = dfs_state_builder(table, theta, SPEC)
    for t in (0.3, 1.7):
        c = markov_coefficients(k1, k2, 0.0, omega, t)
        out = apply_superoperator(c, rho0)
        phases = np.exp(-1j * omega * t * np.arange(3))
        rotated = dfs_state_builder(
            np.outer(amps * phases, (amps * phases).conj()), theta, SPEC
        )
        assert fidelity(out, rotated) == pytest.approx(1.0, abs=1e-10)


def test_collective_photon_decay_value():
    # one photon in the damped collective mode: population e^{-2(k1+k2)t}
    k1 = k2 = 1.0
    theta = np.pi / 4
    mode = ModeVector.from_angles(theta, 0.0)
    rho0 = one_photon_state(mode, SPEC)
    c = markov_coefficients(k1, k2, 0.0, 0.0, 0.25)
    out = apply_superoperator(c, rho0)
    assert mode_population(out, mode) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_superoperator_trace_and_hermiticity():
    rng = np.random.default_rng(3)
    for _ in range(8):
        rho = random_density_matrix(rng, SPEC)
        c = markov_coefficients(
            rng.uniform(0.2, 1.5),
            rng.uniform(0.2, 1.5),
            0.0,
            rng.uniform(0.0, 2.0),
            rng.uniform(0.0, 2.0),
        )
        out = apply_superoperator(c, rho)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-9
        assert out.hermiticity_defect() < 1e-10


def test_superoperator_semigroup_property():
    rng = np.random.default_rng(4)
    k1, k2, omega = 0.8, 1.3, 0.9
    for _ in range(5):
        rho = one_photon_state(
            ModeVector.from_angles(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)),
            SPEC,
        )
        t1, t2 = rng.uniform(0.05, 0.8, 2)
        chained = apply_superoperator(
            markov_coefficients(k1, k2, 0.0, omega, t2),
            apply_superoperator(markov_coefficients(k1, k2, 0.0, omega, t1), rho),
        )
        direct = apply_superoperator(
            markov_coefficients(k1, k2, 0.0, omega, t1 + t2), rho
        )
        assert np.max(np.abs(chained.matrix - direct.matrix)) < 1e-9


def test_superoperator_oracle_thermal():
    spec = TruncationSpec(2, 7)
    k1, k2, nbar, omega = 0.7, 1.3, 0.5, 1.1
    t = 0.05
    rho0 = one_photon_state(ModeVector.from_angles(0.6, 0.9), spec)
    gen = build_bm_generator(
        RateModel((k1, k2), thermal_occupation=nbar), spec, omega=omega
    )
    res = propagate(gen, rho0, np.linspace(0, t, 6), max_step=2e-4)
    out = apply_superoperator(markov_coefficients(k1, k2, nbar, omega, t), rho0)
    assert np.max(np.abs(out.matrix - res.final.matrix)) < 1e-6


def test_superoperator_truncation_overflow_detected():
    rho0 = vacuum_state(TruncationSpec(2, 2))
    c = markov_coefficients(1.0, 1.0, 3.0, 0.0, 2.0)  # hot bath, tiny space
    with pytest.raises(TruncationOverflowError):
        apply_superoperator(c, rho0)


def test_asymptotic_limit_cases():
    # full protection when the initial mode is the surviving one
    # (tan(alpha) = -sqrt(k1/k2)); full leakage from the damped collective
    # mode (tan(alpha) = +sqrt(k2/k1), the mixing angle itself)
    k1, k2 = 0.8, 1.7
    protected = asymptotic_state(k1, k2, np.arctan(-np.sqrt(k1 / k2)), 0.0)
    assert protected.weight == pytest.approx(1.0, abs=1e-12)
    leaking = asymptotic_state(k1, k2, np.arctan(np.sqrt(k2 / k1)), 0.0)
    assert leaking.weight == pytest.approx(0.0, abs=1e-12)


def test_asymptotic_symmetric_values():
    result = asymptotic_state(1.0, 1.0, 0.0, 0.0)
    assert result.weight == pytest.approx(0.5, abs=1e-14)
    assert result.fidelity_infinity == pytest.approx(0.25, abs=1e-14)


def test_asymptotic_fidelity_vanishes_for_balanced_mode():
    result = asymptotic_state(1.0, 1.0, np.pi / 4, 0.0)
    assert result.fidelity_infinity == pytest.approx(0.0, abs=1e-14)
    rho0 = one_photon_state(ModeVector.from_angles(np.pi / 4, 0.0), SPEC)
    rho_inf = result.density_matrix(SPEC)
    assert fidelity(rho0, rho_inf) == pytest.approx(0.0, abs=1e-12)


def test_asymptotic_matches_overlap_fidelity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        k1, k2 = rng.uniform(0.2, 2.0, 2)
        alpha = rng.uniform(0.0, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        result = asymptotic_state(k1, k2, alpha, phi)
        rho0 = one_photon_state(ModeVector.from_angles(alpha, phi), SPEC)
        rho_inf = result.density_matrix(SPEC)
        assert result.fidelity_infinity == pytest.approx(
            fidelity(rho0, rho_inf), abs=1e-12
        )
        assert mode_population(rho_inf, result.mode) == pytest.approx(
            result.weight, abs=1e-12
        )


def test_long_time_superoperator_matches_asymptotic_state():
    k1, k2, alpha, phi = 1.1, 0.6, 0.9, -0.4
    rho0 = one_photon_state(ModeVector.from_angles(alpha, phi), SPEC)
    limit = asymptotic_state(k1, k2, alpha, phi)
    out = apply_superoperator(markov_coefficients(k1, k2, 0.0, 0.0, 40.0), rho0)
    assert trace_distance(out, limit.density_matrix(SPEC)) < 1e-8

