"""Non-Markovian memory machinery: the damped amplitude eta(t), its implied
time-dependent rates, and the thermal injection history.

The amplitude obeys a Volterra integrodifferential equation whose kernel is a
finite sum of bath-mode exponentials.  Each bath mode therefore contributes
one auxiliary prefix integral, turning the equation into a linear ODE system
that a fixed-step RK4 integrates at genuine fourth order with O(n * modes)
cost; continuous spectral densities enter through Gauss-Legendre nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DivergenceError
from .tableio import format_value, write_text

KERNEL_SIGNS = ("conjugate", "as_printed")
SPECTRAL_DENSITY_TYPES = ("discrete", "ohmic")


@dataclass(frozen=True)
class SpectralDensity:
    """Bath description as mode frequencies and coupling weights |c_k|^2."""

    mode_frequencies: np.ndarray
    mode_weights: np.ndarray

    def __post_init__(self):
        freqs = np.array(self.mode_frequencies, dtype=float).ravel()
        weights = np.array(self.mode_weights, dtype=float).ravel()
        if freqs.shape != weights.shape:
            raise ValueError("frequencies and weights must have the same length")
        if np.any(weights < 0):
            raise ValueError("mode weights must be non-negative")
        freqs.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "mode_frequencies", freqs)
        object.__setattr__(self, "mode_weights", weights)

    @property
    def num_modes(self) -> int:
        return self.mode_frequencies.size

    @classmethod
    def from_modes(cls, modes) -> "SpectralDensity":
        """Build from (frequency, complex coupling) pairs."""
        freqs = []
        weights = []
        for omega_k, coupling in modes:
            freqs.append(float(omega_k))
            weights.append(abs(complex(coupling)) ** 2)
        return cls(np.array(freqs), np.array(weights))

    @classmethod
    def from_weights(cls, frequencies, weights) -> "SpectralDensity":
        return cls(np.asarray(frequencies, float), np.asarray(weights, float))

    @classmethod
    def ohmic(
        cls,
        amplitude: float,
        cutoff: float,
        order: int = 400,
        span: float = 10.0,
    ) -> "SpectralDensity":
        """Gauss-Legendre discretization of J(w) = amplitude * w * exp(-w/cutoff)
        on [0, span * cutoff]."""
        if amplitude < 0 or cutoff <= 0:
            raise ValueError("amplitude must be >= 0 and cutoff > 0")
        if order < 2:
            raise ValueError("quadrature order must be at least 2")
        nodes, gl_weights = np.polynomial.legendre.leggauss(order)
        half = 0.5 * span * cutoff
        freqs = half * (nodes + 1.0)
        density = amplitude * freqs * np.exp(-freqs / cutoff)
        return cls(freqs, density * gl_weights * half)

    @classmethod
    def from_dict(cls, data: dict) -> "SpectralDensity":
        kind = data.get("type")
        if kind == "discrete":
            modes = []
            for entry in data["modes"]:
                omega_k = float(entry["omega"])
                coupling = entry["coupling"]
                if isinstance(coupling, (list, tuple)):
                    coupling = complex(float(coupling[0]), float(coupling[1]))
                else:
                    coupling = complex(float(coupling), 0.0)
                modes.append((omega_k, coupling))
            return cls.from_modes(modes)
        if kind == "ohmic":
            return cls.ohmic(
                amplitude=float(data["amplitude"]),
                cutoff=float(data["cutoff"]),
                order=int(data.get("order", 400)),
                span=float(data.get("span", 10.0)),
            )
        raise ValueError(f"unknown spectral density type {kind!r}")


@dataclass(frozen=True)
class MemoryKernelSolution:
    """Amplitude trajectory with optionally attached derived coefficients.

    ``injection_rate`` endpoints come from one-sided differences and are the
    least trustworthy samples; they are listed in ``low_confidence``.
    """

    times: np.ndarray
    amplitude: np.ndarray
    omega: float
    kernel_sign: str = "conjugate"
    damping: Optional[np.ndarray] = None
    frequency_shift: Optional[np.ndarray] = None
    injection_rate: Optional[np.ndarray] = None
    quanta_gain: Optional[np.ndarray] = None
    low_confidence: tuple = ()

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        amp = np.asarray(self.amplitude, dtype=complex)
        if times.shape != amp.shape:
            raise ValueError("times and amplitude must share a grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitude", amp)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def to_csv_text(self) -> str:
        header = [
            "time",
            "re_amplitude",
            "im_amplitude",
            "damping",
            "frequency_shift",
            "injection_rate",
            "quanta_gain",
        ]
        n = self.times.size
        nan = np.full(n, np.nan)
        cols = [
            self.times,
            self.amplitude.real,
            self.amplitude.imag,
            self.damping if self.damping is not None else nan,
            self.frequency_shift if self.frequency_shift is not None else nan,
            self.injection_rate if self.injection_rate is not None else nan,
            self.quanta_gain if self.quanta_gain is not None else nan,
        ]
        lines = [",".join(header)]
        for i in range(n):
            lines.append(",".join(format_value(c[i]) for c in cols))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        write_text(path, self.to_csv_text())


def _check_uniform(times: np.ndarray) -> float:
    diffs = np.diff(times)
    if times.size < 3 or np.any(diffs <= 0):
        raise ValueError("need a strictly increasing grid with at least 3 nodes")
    h = diffs[0]
    if np.max(np.abs(diffs - h)) > 1e-9 * max(h, 1.0):
        raise ValueError("grid must be uniform")
    return float(h)


def solve_amplitude(
    sd: SpectralDensity,
    omega: float,
    times,
    *,
    kernel_sign: str = "conjugate",
    substeps: int = 1,
) -> MemoryKernelSolution:
    """Integrate the memory amplitude from eta(0) = 1 on a uniform grid.

    ``kernel_sign`` picks the phase convention of the kernel exponentials:
    "conjugate" (default, exp(-i w_k s), damped solutions for physical baths)
    or "as_printed" (exp(+i w_k s)).  Raises ``DivergenceError`` if |eta|
    exceeds 10.
    """
    if kernel_sign not in KERNEL_SIGNS:
        raise ValueError(f"kernel_sign must be one of {KERNEL_SIGNS}")
    times = np.asarray(times, dtype=float)
    h_grid = _check_uniform(times)
    if abs(times[0]) > 1e-12:
        raise ValueError("grid must start at t = 0")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    sign = -1.0 if kernel_sign == "conjugate" else 1.0
    freqs = sd.mode_frequencies
    weights = sd.mode_weights
    phase = sign * 1j * freqs

    def rhs(y):
        eta = y[0]
        z = y[1:]
        d_eta = -1j * omega * eta - (weights @ z if z.size else 0.0)
        dz = phase * z + eta
        out = np.empty_like(y)
        out[0] = d_eta
        out[1:] = dz
        return out

    y = np.zeros(1 + sd.num_modes, dtype=complex)
    y[0] = 1.0
    h = h_grid / substeps
    eta = np.empty(times.size, dtype=complex)
    eta[0] = 1.0
    for n in range(times.size - 1):
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        eta[n + 1] = y[0]
        if not np.isfinite(y[0]) or abs(y[0]) > 10.0:
            raise DivergenceError(
                f"amplitude left the physical region at t = {times[n + 1]}",
                time=float(times[n + 1]),
            )
    return MemoryKernelSolution(
        times=times, amplitude=eta, omega=float(omega), kernel_sign=kernel_sign
    )


def extract_rates(solution: MemoryKernelSolution) -> tuple[np.ndarray, np.ndarray]:
    """Damping rate and frequency shift from the amplitude's log-derivative.

    Central differences inside the grid, second-order one-sided at the ends.
    Undefined where the amplitude vanishes (raises there).
    """
    mags = np.abs(solution.amplitude)
    if np.any(mags < 1e-12):
        bad = int(np.argmax(mags < 1e-12))
        raise ValueError(
            f"amplitude magnitude below 1e-12 at t = {solution.times[bad]}; "
            "rates are undefined"
        )
    h = solution.step
    damping = -np.gradient(np.log(mags), h, edge_order=2)
    phases = np.unwrap(np.angle(solution.amplitude))
    shift = -np.gradient(phases, h, edge_order=2) - solution.omega
    return damping, shift


def with_rates(solution: MemoryKernelSolution) -> MemoryKernelSolution:
    damping, shift = extract_rates(solution)
    return replace(solution, damping=damping, frequency_shift=shift)


def _cumtrapz(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros(values.shape[-1], dtype=values.dtype)
    out[1:] = np.cumsum(0.5 * (values[..., 1:] + values[..., :-1]), axis=-1) * h
    return out


def thermal_injection_rate(
    sd: SpectralDensity, beta: float, solution: MemoryKernelSolution
) -> np.ndarray:
    """Injection rate from a bath in thermal equilibrium at 1/beta.

    Evaluates, per bath mode, the accumulated response integral of the
    amplitude, combines it with the thermal occupations, and differentiates
    the rescaled sum; identically zero at zero temperature, and zero at t = 0
    where the response integrals vanish quadratically.
    """
    if beta <= 0:
        raise ValueError("beta must be positive (use math.inf for T = 0)")
    times = solution.times
    if math.isinf(beta):
        return np.zeros(times.size)
    if np.any(sd.mode_frequencies <= 0):
        raise ValueError("thermal occupation diverges for non-positive bath modes")
    occupations = 1.0 / np.expm1(beta * sd.mode_frequencies)
    h = solution.step
    mags2 = np.abs(solution.amplitude) ** 2
    if np.any(mags2 < 1e-24):
        raise ValueError("amplitude vanishes on the grid; injection rate undefined")
    total = np.zeros(times.size)
    chunk = 64
    eta = solution.amplitude
    for start in range(0, sd.num_modes, chunk):
        freqs = sd.mode_frequencies[start : start + chunk]
        weights = sd.mode_weights[start : start + chunk] * occupations[
            start : start + chunk
        ]
        if not np.any(weights):
            continue
        rot = np.exp(1j * np.outer(freqs, times))
        integ = rot * eta[None, :]
        prefix = np.zeros_like(integ)
        prefix[:, 1:] = np.cumsum(0.5 * (integ[:, 1:] + integ[:, :-1]), axis=1) * h
        response = np.abs(np.conj(rot) * prefix) ** 2
        total += weights @ response
    scaled = total / mags2
    return 0.5 * mags2 * np.gradient(scaled, h, edge_order=2)


def quanta_gain(
    times, injection_rate, amplitude
) -> np.ndarray:
    """Accumulated thermal quanta in the damped collective mode.

    N(t) = |eta(t)|^2 * integral of 2 eps(tau) / |eta(tau)|^2; this is the
    history whose value 1/(1+N) normalizes the evolution map, and it
    reproduces nbar (1 - exp(-2kt)) from constant memoryless inputs.
    """
    times = np.asarray(times, dtype=float)
    eps = np.asarray(injection_rate, dtype=float)
    eta = np.asarray(amplitude, dtype=complex)
    if not (times.shape == eps.shape == eta.shape):
        raise ValueError("grid mismatch between times, injection rate and amplitude")
    h = _check_uniform(times)
    mags2 = np.abs(eta) ** 2
    integrand = 2.0 * eps / mags2
    return mags2 * _cumtrapz(integrand, h)


def solve_kernel(
    sd: SpectralDensity,
    omega: float,
    times,
    *,
    beta: float = math.inf,
    kernel_sign: str = "conjugate",
    substeps: int = 1,
) -> MemoryKernelSolution:
    """Full pipeline: amplitude, rates, injection rate and quanta gain."""
    sol = solve_amplitude(
        sd, omega, times, kernel_sign=kernel_sign, substeps=substeps
    )
    damping, shift = extract_rates(sol)
    injection = thermal_injection_rate(sd, beta, sol)
    gained = quanta_gain(sol.times, injection, sol.amplitude)
    notes = ()
    if not math.isinf(beta):
        notes = ("injection_rate endpoints use one-sided differences",)
    return replace(
        sol,
        damping=damping,
        frequency_shift=shift,
        injection_rate=injection,
        quanta_gain=gained,
        low_confidence=notes,
    )
