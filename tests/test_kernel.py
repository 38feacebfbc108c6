import math

import numpy as np
import pytest

from dfsim.kernel import (
    MemoryKernelSolution,
    SpectralDensity,
    _gauss_legendre,
    extract_rates,
    quanta_gain,
    solve_amplitude,
    solve_kernel,
    thermal_injection_rate,
)


def test_empty_bath_free_evolution():
    sd = SpectralDensity(np.array([]), np.array([]))
    times = np.linspace(0.0, 3.0, 1501)
    sol = solve_amplitude(sd, 1.3, times)
    assert np.max(np.abs(sol.amplitude - np.exp(-1.3j * times))) < 1e-11
    assert sol.amplitude[0] == 1.0


def test_resonant_mode_ansatz_satisfies_equation():
    # residual of eta = exp(-i w t) cos(g t) in the integrodifferential
    # equation, evaluated with fine quadrature, vanishes
    g, w = 0.9, 1.1
    times = np.linspace(0.0, 3.0, 6001)
    h = times[1] - times[0]
    eta = np.exp(-1j * w * times) * np.cos(g * times)
    eta_dot = np.gradient(eta, h)
    kernel_weight = g * g
    residuals = []
    for idx in range(200, 6001, 600):
        t = times[idx]
        tau = times[: idx + 1]
        integrand = kernel_weight * np.exp(-1j * w * (t - tau)) * eta[: idx + 1]
        integral = np.trapezoid(integrand, dx=h)
        residuals.append(abs(eta_dot[idx] + 1j * w * eta[idx] + integral))
    assert max(residuals) < 1e-6  # limited by finite differences of the ansatz


def test_resonant_mode_solution():
    g, w = 0.9, 1.1
    times = np.linspace(0.0, 3.0, 3001)
    sol = solve_amplitude(SpectralDensity.from_modes([(w, g)]), w, times)
    exact = np.exp(-1j * w * times) * np.cos(g * times)
    assert np.max(np.abs(sol.amplitude - exact)) < 1e-10


def test_exact_amplitude_on_coarse_grid_ignores_substeps():
    # the pole expansion is exact at any grid spacing: 1501 points reach the
    # closed form to rounding, and substeps change nothing
    g, w = 0.9, 1.1
    times = np.linspace(0.0, 3.0, 1501)
    exact = np.exp(-1j * w * times) * np.cos(g * times)
    sd = SpectralDensity.from_modes([(w, g)])
    coarse = solve_amplitude(sd, w, times)
    fine = solve_amplitude(sd, w, times, substeps=2)
    assert np.max(np.abs(coarse.amplitude - exact)) <= 1e-13
    assert np.array_equal(fine.amplitude, coarse.amplitude)


def _rk4_arrowhead(sd, omega, times, kernel_sign, substeps=20):
    # fine-step RK4 of y' = A y with y = (eta, z_k), z_k the per-mode prefix
    # integrals, in the original (untransformed) variables
    sign = -1.0 if kernel_sign == "conjugate" else 1.0
    size = 1 + sd.num_modes
    a = np.zeros((size, size), dtype=complex)
    a[0, 0] = -1j * omega
    a[0, 1:] = -sd.mode_weights
    a[1:, 0] = 1.0
    a[np.arange(1, size), np.arange(1, size)] = sign * 1j * sd.mode_frequencies
    ha = (times[1] - times[0]) / substeps * a
    step = np.eye(size) + ha @ (np.eye(size) + ha @ (np.eye(size) / 2 + ha @ (
        np.eye(size) / 6 + ha / 24)))
    grid_step = np.linalg.matrix_power(step, substeps)
    y = np.zeros(size, dtype=complex)
    y[0] = 1.0
    eta = np.empty(times.size, dtype=complex)
    for n in range(times.size):
        eta[n] = y[0]
        y = grid_step @ y
    return eta


@pytest.mark.parametrize("kernel_sign", ["conjugate", "as_printed"])
def test_amplitude_matches_fine_rk4_for_both_signs(kernel_sign):
    sd = SpectralDensity.from_modes([(0.8, 0.5), (1.2, 0.4), (1.7, 0.3)])
    times = np.linspace(0.0, 2.0, 401)
    sol = solve_amplitude(sd, 1.0, times, kernel_sign=kernel_sign)
    reference = _rk4_arrowhead(sd, 1.0, times, kernel_sign)
    assert np.max(np.abs(sol.amplitude - reference)) <= 1e-10


def test_ohmic_amplitude_starts_at_exactly_one():
    sd = SpectralDensity.ohmic(0.03, 5.0, order=400)
    sol = solve_amplitude(sd, 1.0, np.linspace(0.0, 1.0, 2001))
    assert sol.amplitude[0] == 1.0


def test_kernel_sign_conventions_differ():
    sd = SpectralDensity.from_modes([(1.5, 0.7)])
    times = np.linspace(0.0, 2.0, 1001)
    conj = solve_amplitude(sd, 1.0, times, kernel_sign="conjugate")
    printed = solve_amplitude(sd, 1.0, times, kernel_sign="as_printed")
    assert np.max(np.abs(conj.amplitude - printed.amplitude)) > 1e-3
    with pytest.raises(ValueError):
        solve_amplitude(sd, 1.0, times, kernel_sign="bogus")


def test_physical_kernels_keep_amplitude_bounded():
    times = np.linspace(0.0, 4.0, 4001)
    baths = [
        SpectralDensity.from_modes([(0.8, 0.5), (1.2, 0.4), (1.7, 0.3)]),
        SpectralDensity.ohmic(2e-3, 20.0, order=200),
    ]
    for sd in baths:
        sol = solve_amplitude(sd, 1.0, times)
        assert np.max(np.abs(sol.amplitude)) <= 1.0 + 1e-8


def test_grid_validation():
    sd = SpectralDensity(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        solve_amplitude(sd, 1.0, np.array([0.0, 0.1, 0.3]))  # non-uniform
    with pytest.raises(ValueError):
        solve_amplitude(sd, 1.0, np.array([0.5, 0.6, 0.7]))  # does not start at 0
    with pytest.raises(ValueError):
        solve_amplitude(sd, 1.0, np.linspace(0, 1, 11), substeps=0)


def test_extract_rates_markov_form():
    times = np.linspace(0.0, 2.0, 2001)
    k, omega = 0.35, 1.0
    sol = MemoryKernelSolution(
        times=times, amplitude=np.exp((-1j * omega - k) * times), omega=omega
    )
    damping, shift = extract_rates(sol)
    assert np.max(np.abs(damping - k)) < 1e-10
    assert np.max(np.abs(shift)) < 1e-10


def test_extract_rates_resonant_tangent():
    g, omega = 0.8, 1.2
    times = np.linspace(0.0, 1.2, 4801)  # g t stays below pi/2
    sol = MemoryKernelSolution(
        times=times,
        amplitude=np.exp(-1j * omega * times) * np.cos(g * times),
        omega=omega,
    )
    damping, shift = extract_rates(sol)
    expected = g * np.tan(g * times)
    interior = slice(2, -2)
    assert np.max(np.abs(damping[interior] - expected[interior])) < 2e-4
    assert np.max(np.abs(shift[interior])) < 1e-8


def test_extract_rates_frequency_shift():
    times = np.linspace(0.0, 2.0, 2001)
    omega, s, k = 1.0, 0.45, 0.2
    sol = MemoryKernelSolution(
        times=times,
        amplitude=np.exp((-1j * (omega + s) - k) * times),
        omega=omega,
    )
    _, shift = extract_rates(sol)
    assert np.max(np.abs(shift - s)) < 1e-10


def test_extract_rates_rejects_vanishing_amplitude():
    times = np.linspace(0.0, 3.0, 301)
    sol = MemoryKernelSolution(
        times=times, amplitude=(1.0 - times) * np.exp(-1j * times), omega=1.0
    )
    with pytest.raises(ValueError):
        extract_rates(sol)


def test_rate_reconstruction_round_trip():
    sd = SpectralDensity.from_modes([(0.8, 0.35), (1.3, 0.3)])
    times = np.linspace(0.0, 2.5, 10001)
    sol = solve_amplitude(sd, 1.0, times)
    damping, shift = extract_rates(sol)
    h = sol.step
    log_mag = -np.concatenate([[0.0], np.cumsum(0.5 * (damping[1:] + damping[:-1]) * h)])
    phase = -(sol.omega * times) - np.concatenate(
        [[0.0], np.cumsum(0.5 * (shift[1:] + shift[:-1]) * h)]
    )
    rebuilt = np.exp(log_mag + 1j * phase)
    assert np.max(np.abs(rebuilt - sol.amplitude)) < 1e-6


def test_injection_rate_zero_temperature():
    sd = SpectralDensity.from_modes([(1.0, 0.4)])
    times = np.linspace(0.0, 1.0, 101)
    sol = solve_amplitude(sd, 1.0, times)
    eps = thermal_injection_rate(sd, math.inf, sol)
    assert np.all(eps == 0.0)
    with pytest.raises(ValueError):
        thermal_injection_rate(sd, 0.0, sol)


def test_injection_rate_single_mode_closed_form():
    # flat |eta| = 1 input: eps = |c|^2 n sin((w_k - w) t) / (w_k - w)
    omega, omega_k, coupling, beta = 1.0, 1.6, 0.5, 1.2
    sd = SpectralDensity.from_modes([(omega_k, coupling)])
    times = np.linspace(0.0, 4.0, 20001)
    sol = MemoryKernelSolution(
        times=times, amplitude=np.exp(-1j * omega * times), omega=omega
    )
    eps = thermal_injection_rate(sd, beta, sol)
    occupation = 1.0 / math.expm1(beta * omega_k)
    detuning = omega_k - omega
    expected = coupling**2 * occupation * np.sin(detuning * times) / detuning
    assert abs(eps[0]) < 1e-6
    assert np.max(np.abs(eps[1:-1] - expected[1:-1])) < 1e-6


def _chunked_injection_rate(sd, beta, solution):
    # reference: one exp(i w_k t) per mode and sample, 64 modes per pass, and
    # the response as |conj(rot) * prefix|^2
    times, h, eta = solution.times, solution.step, solution.amplitude
    occupations = 1.0 / np.expm1(beta * sd.mode_frequencies)
    mags2 = np.abs(eta) ** 2
    total = np.zeros(times.size)
    for start in range(0, sd.num_modes, 64):
        freqs = sd.mode_frequencies[start : start + 64]
        weights = sd.mode_weights[start : start + 64] * occupations[start : start + 64]
        rot = np.exp(1j * np.outer(freqs, times))
        integ = rot * eta[None, :]
        prefix = np.zeros_like(integ)
        prefix[:, 1:] = np.cumsum(0.5 * (integ[:, 1:] + integ[:, :-1]), axis=1) * h
        total += weights @ (np.abs(np.conj(rot) * prefix) ** 2)
    return 0.5 * mags2 * np.gradient(total / mags2, h, edge_order=2)


@pytest.mark.parametrize(
    "sd",
    [
        SpectralDensity.from_modes([(0.8, 0.5), (1.2, 0.4), (1.7, 0.3)]),
        SpectralDensity.ohmic(0.03, 5.0, order=200),
    ],
    ids=["three_modes", "ohmic"],
)
def test_injection_rate_matches_chunked_formula(sd):
    # the two differ only by rounding in the phases and sums, which the final
    # derivative amplifies by 1/h; at h = 2e-3 that stays near 2e-13
    times = np.linspace(0.0, 2.0, 1001)
    sol = solve_amplitude(sd, 1.0, times)
    eps = thermal_injection_rate(sd, 1.5, sol)
    reference = _chunked_injection_rate(sd, 1.5, sol)
    assert np.max(np.abs(eps - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_injection_rate_unchanged_by_uncoupled_modes():
    coupled = SpectralDensity.from_weights([1.3], [0.16])
    padded = SpectralDensity.from_weights([0.7, 1.3, 2.1], [0.0, 0.16, 0.0])
    times = np.linspace(0.0, 1.0, 201)
    sol = solve_amplitude(coupled, 1.0, times)
    assert np.array_equal(
        thermal_injection_rate(padded, 2.0, sol), thermal_injection_rate(coupled, 2.0, sol)
    )


def test_quanta_gain_trivial_cases():
    times = np.linspace(0.0, 2.0, 201)
    eta = np.exp(-0.3 * times) * np.exp(-1j * times)
    assert np.all(quanta_gain(times, np.zeros_like(times), eta) == 0.0)
    # constant injection with flat amplitude accumulates at twice the rate
    eps = np.full_like(times, 0.25)
    gained = quanta_gain(times, eps, np.ones_like(times, dtype=complex))
    assert np.max(np.abs(gained - 2 * 0.25 * times)) < 1e-12


def test_quanta_gain_markov_consistency():
    nbar, k = 0.7, 1.2
    times = np.linspace(0.0, 1.5, 20001)
    eta = np.exp((-1j * 0.8 - k) * times)
    eps = np.full_like(times, k * nbar)
    gained = quanta_gain(times, eps, eta)
    target = nbar * (1.0 - np.exp(-2 * k * times))
    assert np.max(np.abs(gained - target)) < 2e-9


def test_solve_kernel_full_pipeline():
    sd = SpectralDensity.from_modes([(1.0, 0.3), (1.4, 0.2)])
    times = np.linspace(0.0, 1.5, 3001)
    sol = solve_kernel(sd, 1.0, times, beta=2.0)
    assert sol.damping is not None and sol.quanta_gain is not None
    assert sol.quanta_gain[0] == 0.0
    assert np.all(sol.injection_rate[2:-2] > -1e-10)
    assert sol.low_confidence
    text = sol.to_csv_text()
    assert text.splitlines()[0].count(",") == 6


def test_ohmic_amplitude_follows_golden_rule_decay():
    # broad bath, weak coupling: |eta| tracks exp(-k t) with the golden-rule
    # rate to 5% once the short memory transient has passed
    w0, cutoff, amp = 1.0, 50.0, 3e-4
    golden = math.pi * amp * w0 * math.exp(-w0 / cutoff)
    sd = SpectralDensity.ohmic(amp, cutoff, order=1200, span=8.0)
    grid = np.linspace(0.0, 8.0, 16001)
    sol = solve_amplitude(sd, w0, grid)
    window = grid >= 2.0
    ratio = np.abs(sol.amplitude[window]) / np.exp(-golden * grid[window])
    assert np.max(np.abs(ratio - 1.0)) < 0.05


def test_ohmic_spectral_density():
    sd = SpectralDensity.ohmic(0.01, 5.0, order=300)
    assert sd.num_modes == 300
    assert np.all(sd.mode_weights >= 0)
    # total weight approximates the integral of J = A w exp(-w/wc): A wc^2
    # (the [0, 10 wc] window truncates ~0.05% of the tail)
    assert np.sum(sd.mode_weights) == pytest.approx(0.01 * 25.0, rel=1e-3)
    with pytest.raises(ValueError):
        SpectralDensity.ohmic(-1.0, 5.0)


def test_spectral_density_from_dict():
    sd = SpectralDensity.from_dict(
        {"type": "discrete", "modes": [{"omega": 1.0, "coupling": [0.0, 0.5]}]}
    )
    assert sd.mode_weights[0] == pytest.approx(0.25)
    sd2 = SpectralDensity.from_dict({"type": "ohmic", "amplitude": 0.1, "cutoff": 2.0, "order": 50})
    assert sd2.num_modes == 50
    with pytest.raises(ValueError):
        SpectralDensity.from_dict({"type": "lorentzian"})


def test_ohmic_nodes_cached_and_bounded():
    first = SpectralDensity.ohmic(0.01, 5.0, order=300)
    second = SpectralDensity.ohmic(0.02, 5.0, order=300)
    assert np.array_equal(first.mode_frequencies, second.mode_frequencies)
    nodes, weights = _gauss_legendre(300)
    assert not nodes.flags.writeable and not weights.flags.writeable
    for order in range(20, 40):
        SpectralDensity.ohmic(0.01, 5.0, order=order)
    info = _gauss_legendre.cache_info()
    assert info.currsize <= info.maxsize == 8


def test_spectral_density_validation():
    with pytest.raises(ValueError):
        SpectralDensity(np.array([1.0]), np.array([-0.1]))
    with pytest.raises(ValueError):
        SpectralDensity(np.array([1.0, 2.0]), np.array([0.1]))
