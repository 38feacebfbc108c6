import numpy as np
import pytest

from dfsim.coupling import RateModel, predicted_rates, theta_from_rates, wd_sd_modes
from dfsim.errors import ExceptionalPointError
from dfsim.fock import ModeVector, TruncationSpec, one_photon_state
from dfsim.lindblad import build_realistic_generator, propagate
from dfsim.realistic import (
    approximate_mode_split,
    decoherence_mode_angles,
    eigen_rates,
    fit_decay_rate,
    one_photon_evolution,
    transfer_coefficients,
    transfer_matrix_entries,
)

SPEC = TruncationSpec(2, 1)


def test_transfer_coefficients_start_at_identity():
    tc = transfer_coefficients(0.3, 0.7, 0.2, 0.9, 1.1, np.array([0.0, 0.4]))
    assert tc.mixing[0] == pytest.approx(0.0, abs=1e-14)
    assert tc.amp_factor_a[0] == pytest.approx(1.0, abs=1e-13)
    assert tc.amp_factor_b[0] == pytest.approx(1.0, abs=1e-13)


def test_splitting_at_separability_and_degeneracy():
    k1, k2 = 0.5, 2.0
    tc = transfer_coefficients(k1, k2, np.sqrt(k1 * k2), 1.0, 1.0, np.array([0.0]))
    assert tc.splitting == pytest.approx(k1 + k2, abs=1e-12)


def test_decoupled_modes_at_zero_cross_rate():
    k1, w1 = 0.3, 0.9
    times = np.linspace(0.0, 2.0, 9)
    tc = transfer_coefficients(k1, 0.7, 0.0, w1, 1.1, times)
    assert np.max(np.abs(tc.mixing)) == 0.0
    assert np.max(np.abs(tc.amp_factor_a - np.exp(-(k1 + 1j * w1) * times))) < 1e-12
    t11, t22, off = transfer_matrix_entries(k1, 0.7, 0.0, w1, 1.1, times)
    assert np.max(np.abs(off)) == 0.0
    assert np.max(np.abs(t11 - np.exp(-(k1 + 1j * w1) * times))) < 1e-12
    assert np.max(np.abs(t22 - np.exp(-(0.7 + 1.1j) * times))) < 1e-12


def test_exceptional_point_rejected():
    # imbalance^2 + 4 k3^2 = 0 at k3 = i(k2-k1)/2 with equal frequencies
    with pytest.raises(ExceptionalPointError):
        transfer_coefficients(0.5, 1.5, 0.5j, 1.0, 1.0, np.array([0.0, 1.0]))


def test_transfer_determinant_identity():
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 5.0, 101)
    for _ in range(5):
        k1, k2 = rng.uniform(0.2, 2.0, 2)
        k3 = rng.uniform(0.0, np.sqrt(k1 * k2))
        w1, w2 = rng.uniform(0.0, 2.0, 2)
        t11, t22, off = transfer_matrix_entries(k1, k2, k3, w1, w2, times)
        mean_decay = 0.5 * (k1 + k2) + 0.5j * (w1 + w2)
        det = t11 * t22 - off**2
        assert np.max(np.abs(det - np.exp(-2.0 * mean_decay * times))) < 1e-10


def test_one_photon_initial_values():
    sol = one_photon_evolution(0.8, 1.2, 0.9, 1.0, 1.3, 0.7, -0.4, np.array([0.0, 1.0]))
    assert sol.transfer_11[0] == pytest.approx(1.0, abs=1e-13)
    assert sol.transfer_22[0] == pytest.approx(1.0, abs=1e-13)
    assert sol.transfer_off[0] == pytest.approx(0.0, abs=1e-14)
    assert sol.survival[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.modes[0], [np.cos(0.7), np.exp(-0.4j) * np.sin(0.7)])


def test_strict_protection_when_conditions_hold():
    k1, k2 = 1.0, 4.0
    angles = decoherence_mode_angles(k1, k2, 0.0, 0.5 * (k1 + k2))
    times = np.linspace(0.0, 10.0 / (k1 + k2), 101)
    sol = one_photon_evolution(
        k1, k2, np.sqrt(k1 * k2), 1.0, 1.0, angles.weak_alpha, angles.weak_phi, times
    )
    assert np.max(np.abs(sol.survival - 1.0)) < 1e-10


def test_one_photon_matches_numeric_oracle():
    k1, k2, k3 = 1.0, 1.0, 0.99
    times = np.linspace(0.0, 3.0, 61)
    angles = decoherence_mode_angles(k1, k2, 0.0, 1.0)
    sol = one_photon_evolution(k1, k2, k3, 0.0, 0.0, angles.weak_alpha, angles.weak_phi, times)
    gen = build_realistic_generator(RateModel((k1, k2), cross_rate=k3), 0.0, 0.0, SPEC)
    rho0 = one_photon_state(
        ModeVector.from_angles(angles.weak_alpha, angles.weak_phi), SPEC
    )
    res = propagate(gen, rho0, times, max_step=5e-4)
    for i in range(len(times)):
        assert np.max(np.abs(sol.state(i, SPEC).matrix - res.states[i].matrix)) < 1e-8
    # long-time survival decays at twice the weak amplitude rate
    fit = fit_decay_rate(times, sol.survival, (1.0, 3.0))
    assert fit.rate == pytest.approx(2 * 0.01, rel=1e-3)


def test_survival_monotone_for_degenerate_real_rates():
    times = np.linspace(0.0, 4.0, 201)
    sol = one_photon_evolution(0.7, 1.1, 0.6, 1.0, 1.0, 1.1, 0.8, times)
    assert np.all(np.diff(sol.survival) <= 1e-12)


def test_eigen_rates_near_protected_regime():
    rates = eigen_rates(1.0, 1.0, 0.99, 1.0, 1.0)
    assert rates.slow == pytest.approx(0.01, abs=1e-12)
    assert rates.fast == pytest.approx(1.99, abs=1e-12)


def test_eigen_rates_decoupled_and_protected():
    decoupled = eigen_rates(0.4, 0.9, 0.0, 1.0, 1.0)
    assert (decoupled.slow, decoupled.fast) == (pytest.approx(0.4), pytest.approx(0.9))
    protected = eigen_rates(0.5, 2.0, 1.0, 1.0, 1.0)
    assert protected.slow == pytest.approx(0.0, abs=1e-12)
    assert protected.fast == pytest.approx(2.5, abs=1e-12)


def test_eigen_rates_trace_identity():
    rng = np.random.default_rng(12)
    for _ in range(10):
        k1, k2 = rng.uniform(0.2, 2.0, 2)
        k3 = rng.uniform(0.0, np.sqrt(k1 * k2))
        w1, w2 = rng.uniform(0.0, 2.0, 2)
        rates = eigen_rates(k1, k2, k3, w1, w2)
        assert rates.slow + rates.fast == pytest.approx(k1 + k2, abs=1e-12)


def test_slow_rate_first_order_regression():
    # |slow - weak_rate| stays below C (gap^2 + split^2) / (k1 + k2), C pinned
    C = 4.0
    for k1, k2 in [(1.0, 1.0), (0.6, 1.8)]:
        for gap in (0.001, 0.01, 0.1):
            for split in (0.0, 0.02):
                k3 = np.sqrt(k1 * k2) - gap
                rates = eigen_rates(k1, k2, k3, 1.0 - split, 1.0 + split)
                target = predicted_rates(k1, k2, gap).weak
                bound = C * (gap**2 + split**2) / (k1 + k2)
                assert abs(rates.slow - target) <= bound


def test_mode_split_suppressed_components():
    k1, k2 = 1.0, 4.0
    angles = decoherence_mode_angles(k1, k2, 0.001, 2.5)
    split = approximate_mode_split(k1, k2, 0.0, 0.001, angles.weak_alpha, angles.weak_phi)
    strong_weight = sum(abs(z) ** 2 for z in split.strong_amplitudes)
    assert strong_weight < (0.001 / 2.5) ** 2 * 10  # suppressed to O(split/k)^2
    split_sd = approximate_mode_split(
        k1, k2, 0.0, 0.0, theta_from_rates(k1, k2), 0.0
    )
    assert abs(split_sd.weak_amplitudes[0]) < 1e-14
    assert abs(split_sd.weak_amplitudes[1]) < 1e-14


def test_mode_split_symmetric_rates():
    alpha, phi = 0.8, 0.5
    split = approximate_mode_split(1.0, 1.0, 0.0, 0.0, alpha, phi)
    expected = 0.5 * (np.cos(alpha) + np.sin(alpha) * np.exp(1j * phi))
    assert split.strong_amplitudes[0] == pytest.approx(expected, abs=1e-14)


def test_mode_split_components_sum_to_initial():
    rng = np.random.default_rng(2)
    for _ in range(5):
        k1, k2 = rng.uniform(0.3, 2.0, 2)
        alpha, phi = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
        split = approximate_mode_split(k1, k2, 0.01, 0.005, alpha, phi)
        total_1 = split.strong_amplitudes[0] + split.weak_amplitudes[0]
        total_2 = split.strong_amplitudes[1] + split.weak_amplitudes[1]
        assert total_1 == pytest.approx(np.cos(alpha), abs=1e-12)
        assert total_2 == pytest.approx(np.exp(1j * phi) * np.sin(alpha), abs=1e-12)


def test_mode_split_rates_and_validity():
    split = approximate_mode_split(1.0, 4.0, 0.05, 0.0, 0.3, 0.0)
    assert split.weak_rate == pytest.approx(0.04, abs=1e-15)
    assert split.strong_rate == pytest.approx(5.0)
    assert split.validity_ratio == pytest.approx(0.05 / 2.0)
    payload = split.to_json_dict()
    assert set(payload) == {
        "strong_amplitudes",
        "weak_amplitudes",
        "strong_rate",
        "weak_rate",
        "validity_ratio",
    }


def test_decoherence_angles_match_mode_pair():
    k1, k2, split_w, k_mean = 1.0, 4.0, 0.05, 2.5
    angles = decoherence_mode_angles(k1, k2, split_w, k_mean)
    weak_expected, strong_expected = wd_sd_modes(k1, k2, split_w, k_mean)
    weak_mode = ModeVector.from_angles(angles.weak_alpha, angles.weak_phi)
    strong_mode = ModeVector.from_angles(angles.strong_alpha, angles.strong_phi)
    for got, want in ((weak_mode, weak_expected), (strong_mode, strong_expected)):
        phase = np.vdot(got.coefficients, want.coefficients)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(want.coefficients - phase * got.coefficients)) < 1e-12
    assert angles.weak_phi == pytest.approx(-0.02)
    assert angles.strong_phi == pytest.approx(0.02)


def test_decoherence_angles_symmetric_case():
    angles = decoherence_mode_angles(1.0, 1.0, 0.0, 1.0)
    assert angles.weak_alpha == pytest.approx(-np.pi / 4)
    assert angles.weak_phi == 0.0


def test_fit_decay_rate_exact_exponential():
    times = np.linspace(0.0, 2.0, 100)
    fit = fit_decay_rate(times, np.exp(-3.0 * times), (0.0, 2.0))
    assert fit.rate == pytest.approx(3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    scaled = fit_decay_rate(times, 0.5 * np.exp(-3.0 * times), (0.0, 2.0))
    assert scaled.rate == pytest.approx(3.0, abs=1e-12)


def test_one_photon_csv_export(tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    sol = one_photon_evolution(0.8, 1.2, 0.9, 1.0, 1.3, 0.7, -0.4, times)
    text = sol.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:3] == ["time", "re_transfer_11", "im_transfer_11"]
    assert len(lines) == times.size + 1
    path = tmp_path / "one_photon.csv"
    sol.write_csv(str(path))
    assert path.read_text() == text


def test_fit_decay_rate_errors():
    times = np.linspace(0.0, 1.0, 50)
    values = np.exp(-times)
    with pytest.raises(ValueError):
        fit_decay_rate(times, values, (2.0, 3.0))  # window outside series
    with pytest.raises(ValueError):
        fit_decay_rate(times, values, (0.0, 0.1))  # too few points
    with pytest.raises(ValueError):
        fit_decay_rate(times, values - 0.9, (0.0, 1.0))  # non-positive values
    with pytest.raises(ValueError):
        fit_decay_rate(times, values, (1.0, 0.5))  # inverted window
