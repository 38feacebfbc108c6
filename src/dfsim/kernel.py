"""Non-Markovian memory machinery: the damped amplitude eta(t), its implied
time-dependent rates, and the thermal injection history.

The amplitude obeys a Volterra integrodifferential equation whose kernel is a
finite sum of bath-mode exponentials.  Each bath mode contributes one
auxiliary prefix integral, turning the equation into a constant linear ODE
system whose matrix is similar to -i H for a real symmetric arrowhead H; one
``eigh`` of H gives eta exactly as a sum over its poles (Wigner-Weisskopf /
Fano).  Continuous spectral densities enter through Gauss-Legendre nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DivergenceError
from .tableio import render_columns, write_text

KERNEL_SIGNS = ("conjugate", "as_printed")
SPECTRAL_DENSITY_TYPES = ("discrete", "ohmic")
_CSV_HEADER = ("time", "re_amplitude", "im_amplitude", "damping", "frequency_shift",
               "injection_rate", "quanta_gain")


@lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def spectral_density_errors(data) -> list[str]:
    """Problems that keep ``SpectralDensity.from_dict`` from reading ``data``,
    each naming its key; empty means it reads.

    Ohmic: a number amplitude >= 0, a number cutoff > 0, an optional integer
    order >= 2 and an optional number span > 0.  Discrete: a non-empty list
    of modes, each an object with a number omega and a coupling that is a
    number or an [re, im] pair of numbers.
    """
    if not (isinstance(data, dict) and data.get("type") in SPECTRAL_DENSITY_TYPES):
        return [f"type must be one of {SPECTRAL_DENSITY_TYPES}"]
    errors = []
    if data["type"] == "ohmic":
        if not (_is_number(data.get("amplitude")) and data["amplitude"] >= 0):
            errors.append("amplitude must be a number >= 0")
        if not (_is_number(data.get("cutoff")) and data["cutoff"] > 0):
            errors.append("cutoff must be a number > 0")
        order = data.get("order", 2)
        if not (isinstance(order, int) and not isinstance(order, bool) and order >= 2):
            errors.append("order must be an integer >= 2")
        span = data.get("span", 1.0)
        if not (_is_number(span) and span > 0):
            errors.append("span must be a number > 0")
        return errors
    modes = data.get("modes")
    if not (isinstance(modes, list) and modes and all(isinstance(m, dict) for m in modes)):
        return ["modes must be a non-empty list of objects"]
    for n, mode in enumerate(modes):
        if not _is_number(mode.get("omega")):
            errors.append(f"modes[{n}].omega must be a number")
        coupling = mode.get("coupling")
        pair = (
            isinstance(coupling, list)
            and len(coupling) == 2
            and all(_is_number(c) for c in coupling)
        )
        if not (_is_number(coupling) or pair):
            errors.append(f"modes[{n}].coupling must be a number or a list of two numbers")
    return errors


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
        nodes, gl_weights = _gauss_legendre(order)
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
        nan = np.full(self.times.size, np.nan)
        derived = (self.damping, self.frequency_shift, self.injection_rate, self.quanta_gain)
        columns = [self.times, self.amplitude.real, self.amplitude.imag]
        columns += [nan if col is None else col for col in derived]
        return render_columns(_CSV_HEADER, columns)

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


def _phase_blocks(rates: np.ndarray, h: float, n: int):
    """exp(-i rates t_m) on t_m = m h, m < n, as two factors.

    With B = ceil(sqrt(n)), ``outer[a] * inner[b]`` is the row for m = a B + b,
    so (A + B) * len(rates) exponentials stand in for n * len(rates).
    """
    block = math.isqrt(n - 1) + 1
    inner = np.exp(-1j * h * np.outer(np.arange(block), rates))
    outer = np.exp(-1j * (block * h) * np.outer(np.arange(-(-n // block)), rates))
    return outer, inner


def solve_amplitude(
    sd: SpectralDensity,
    omega: float,
    times,
    *,
    kernel_sign: str = "conjugate",
    substeps: int = 1,
) -> MemoryKernelSolution:
    """Exact memory amplitude from eta(0) = 1 on a uniform grid.

    ``kernel_sign`` picks the phase convention of the kernel exponentials:
    "conjugate" (default, exp(-i w_k s), damped solutions for physical baths)
    or "as_printed" (exp(+i w_k s)).  D = diag(1, sqrt(g_k)) and a diagonal
    phase map the ODE matrix to -i H, H the real symmetric arrowhead with
    omega, -sign * w_k on its diagonal and sqrt(g_k) in its first row and
    column, so eta(t) = sum_j V[0, j]^2 exp(-i lambda_j t).  ``substeps``
    (>= 1) is accepted and ignored.  Raises ``DivergenceError`` if eta is
    non-finite or |eta| exceeds 10.
    """
    if kernel_sign not in KERNEL_SIGNS:
        raise ValueError(f"kernel_sign must be one of {KERNEL_SIGNS}")
    times = np.asarray(times, dtype=float)
    h = _check_uniform(times)
    if abs(times[0]) > 1e-12:
        raise ValueError("grid must start at t = 0")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    sign = -1.0 if kernel_sign == "conjugate" else 1.0
    arrow = np.diag(np.concatenate(([omega], -sign * sd.mode_frequencies)))
    arrow[0, 1:] = arrow[1:, 0] = np.sqrt(sd.mode_weights)
    if np.isfinite(arrow).all():
        lam, vecs = np.linalg.eigh(arrow)
        outer, inner = _phase_blocks(lam, h, times.size)
        eta = ((outer * vecs[0] ** 2) @ inner.T).ravel()[: times.size]
    else:  # LAPACK may reject the matrix; the guard below names the first step
        eta = np.full(times.size, np.nan, dtype=complex)
    eta[0] = 1.0
    bad = ~np.isfinite(eta) | (np.abs(eta) > 10.0)
    if bad.any():
        t_bad = float(times[np.argmax(bad)])
        raise DivergenceError(
            f"amplitude left the physical region at t = {t_bad}", time=t_bad
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
    n = times.size
    weights = sd.mode_weights * occupations
    live = weights != 0
    weights = weights[live]
    outer, inner = _phase_blocks(-sd.mode_frequencies[live], h, n)
    eta = solution.amplitude[:, None]
    total = np.zeros(n)
    # 16 modes per pass, worked in place in one (n, 16) array
    for start in range(0, weights.size, 16):
        part = slice(start, start + 16)
        rot = outer[:, None, part] * inner[None, :, part]
        prefix = rot.reshape(-1, rot.shape[-1])[:n]  # exp(i w_k t_n) for each mode
        prefix *= eta
        prefix[1:] += prefix[:-1]  # trapezoid: cumsum(0.5 * (f[1:] + f[:-1])) * h
        prefix[0] = 0.0
        prefix[1:] *= 0.5
        np.cumsum(prefix[1:], axis=0, out=prefix[1:])
        prefix[1:] *= h
        squares = prefix.view(float)  # |prefix|^2 as re^2 + im^2
        np.square(squares, out=squares)
        total += squares @ np.repeat(weights[part], 2)
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
