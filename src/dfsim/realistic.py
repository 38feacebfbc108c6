"""Closed-form one-photon dynamics of two detuned oscillators sharing one
environment, and the small-deviation splitting into weak and strong
decoherence components.

The one-photon amplitudes evolve through a 2x2 transfer matrix
[[T11, Q], [Q, T22]] that is the exponential of a complex-symmetric
generator; its determinant is exp(-2 R t) with R half the generator trace.
All exponentials are combined so only decaying factors are evaluated, which
keeps the formulas finite for arbitrarily long times in the physical region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalPointError
from .fock import DensityMatrix, ModeVector, TruncationSpec, one_photon_vector
from .tableio import render_columns, write_text


def _structure_constants(k1, k2, k3, omega1, omega2):
    mean_decay = 0.5 * (k2 + k1) + 0.5j * (omega2 + omega1)
    imbalance = (k2 - k1) + 1j * (omega2 - omega1)
    splitting = np.sqrt(np.complex128(imbalance**2 + 4.0 * k3**2))
    scale = abs(imbalance) + 2.0 * abs(k3) + 1e-300
    if abs(splitting) <= 1e-12 * scale:
        raise ExceptionalPointError(
            "the amplitude generator is degenerate (splitting = 0); "
            "use the numeric engine"
        )
    return mean_decay, imbalance, splitting


@dataclass(frozen=True)
class TransferCoefficients:
    """Scalar trajectories of the factorized two-mode evolution map."""

    mean_decay: complex
    imbalance: complex
    splitting: complex
    branch_plus: complex
    branch_minus: complex
    times: np.ndarray
    mixing: np.ndarray
    amp_factor_a: np.ndarray
    amp_factor_b: np.ndarray


def transfer_coefficients(
    k1: float,
    k2: float,
    k3: complex,
    omega1: float,
    omega2: float,
    times,
) -> TransferCoefficients:
    """Evaluate the scalar coefficient trajectories of the evolution map.

    The square-root branch has non-negative real part (ties resolved to
    non-negative imaginary part), which makes the mixing amplitude vanish at
    t = 0 and the amplitude factors start at 1.
    """
    times = np.asarray(times, dtype=float)
    mean_decay, imbalance, splitting = _structure_constants(
        k1, k2, k3, omega1, omega2
    )
    branch_plus = imbalance + splitting
    branch_minus = imbalance - splitting
    decay_fast = np.exp(-(mean_decay + 0.5 * splitting) * times)
    decay_slow = np.exp(-(mean_decay - 0.5 * splitting) * times)
    shrink = np.exp(-splitting * times)
    mixing = 2.0 * k3 * (shrink - 1.0) / (branch_plus - branch_minus * shrink)
    amp_a = (branch_plus * decay_slow - branch_minus * decay_fast) / (
        2.0 * splitting
    )
    amp_b = np.exp(-2.0 * mean_decay * times) / amp_a
    return TransferCoefficients(
        mean_decay=complex(mean_decay),
        imbalance=complex(imbalance),
        splitting=complex(splitting),
        branch_plus=complex(branch_plus),
        branch_minus=complex(branch_minus),
        times=times,
        mixing=mixing,
        amp_factor_a=amp_a,
        amp_factor_b=amp_b,
    )


def transfer_matrix_entries(k1, k2, k3, omega1, omega2, times):
    """Entries (T11, T22, Q) of the one-photon amplitude transfer matrix."""
    times = np.asarray(times, dtype=float)
    mean_decay, imbalance, splitting = _structure_constants(
        k1, k2, k3, omega1, omega2
    )
    ratio = imbalance / splitting
    decay_fast = np.exp(-(mean_decay + 0.5 * splitting) * times)
    decay_slow = np.exp(-(mean_decay - 0.5 * splitting) * times)
    t11 = 0.5 * ((1.0 - ratio) * decay_fast + (1.0 + ratio) * decay_slow)
    t22 = 0.5 * ((1.0 + ratio) * decay_fast + (1.0 - ratio) * decay_slow)
    off = (k3 / splitting) * (decay_fast - decay_slow)
    return t11, t22, off


@dataclass(frozen=True)
class OnePhotonSolution:
    """One-photon trajectory: transfer entries, survival weight, mode direction."""

    times: np.ndarray
    transfer_11: np.ndarray
    transfer_22: np.ndarray
    transfer_off: np.ndarray
    survival: np.ndarray
    modes: np.ndarray  # (n, 2) complex; unit rows where survival is resolvable

    def state(self, index: int, spec: TruncationSpec) -> DensityMatrix:
        """Density matrix survival * |mode><mode| + (1 - survival) * vacuum."""
        weight = float(self.survival[index])
        vac = np.zeros(spec.dim, dtype=complex)
        vac[spec.index_of((0,) * spec.num_modes)] = 1.0
        mat = (1.0 - weight) * np.outer(vac, vac.conj())
        if weight > 0:
            psi = one_photon_vector(
                spec, ModeVector(self.modes[index])
            )
            mat = mat + weight * np.outer(psi, psi.conj())
        return DensityMatrix.unchecked(spec, mat)

    def to_csv_text(self) -> str:
        header = [
            "time",
            "re_transfer_11",
            "im_transfer_11",
            "re_transfer_22",
            "im_transfer_22",
            "re_transfer_off",
            "im_transfer_off",
            "survival",
            "re_mode_1",
            "im_mode_1",
            "re_mode_2",
            "im_mode_2",
        ]
        columns = [
            self.times,
            self.transfer_11.real,
            self.transfer_11.imag,
            self.transfer_22.real,
            self.transfer_22.imag,
            self.transfer_off.real,
            self.transfer_off.imag,
            self.survival,
            self.modes[:, 0].real,
            self.modes[:, 0].imag,
            self.modes[:, 1].real,
            self.modes[:, 1].imag,
        ]
        return render_columns(header, columns)

    def write_csv(self, path):
        write_text(path, self.to_csv_text())


def one_photon_evolution(
    k1: float,
    k2: float,
    k3: complex,
    omega1: float,
    omega2: float,
    alpha: float,
    phi: float,
    times,
) -> OnePhotonSolution:
    """Evolve the one-photon mode (alpha, phi) under the shared-environment
    generator at zero temperature.

    The state stays of the form survival(t) |mode(t)><mode(t)| plus vacuum;
    survival starts at 1 and the transfer determinant obeys
    T11 T22 - Q^2 = exp(-2 R t).
    """
    times = np.asarray(times, dtype=float)
    t11, t22, off = transfer_matrix_entries(k1, k2, k3, omega1, omega2, times)
    z1_0 = np.cos(alpha)
    z2_0 = np.exp(1j * phi) * np.sin(alpha)
    z1 = t11 * z1_0 + off * z2_0
    z2 = off * z1_0 + t22 * z2_0
    survival = np.abs(z1) ** 2 + np.abs(z2) ** 2
    modes = np.zeros((times.size, 2), dtype=complex)
    alive = survival > 1e-300
    norms = np.sqrt(survival, where=alive, out=np.ones_like(survival))
    modes[alive, 0] = z1[alive] / norms[alive]
    modes[alive, 1] = z2[alive] / norms[alive]
    return OnePhotonSolution(
        times=times,
        transfer_11=t11,
        transfer_22=t22,
        transfer_off=off,
        survival=survival,
        modes=modes,
    )


@dataclass(frozen=True)
class EigenRates:
    """Exact amplitude decay constants (populations decay at twice these)."""

    slow: float
    fast: float


def eigen_rates(k1, k2, k3, omega1, omega2) -> EigenRates:
    """Exact slow/fast amplitude rates Re(R) -/+ Re(r)/2 of the transfer matrix.

    Their sum is k1 + k2 identically; in the near-protected regime the slow
    rate approaches the predicted weak-decoherence constant and the fast one
    the strong-decoherence constant.
    """
    mean_decay, _, splitting = _structure_constants(k1, k2, k3, omega1, omega2)
    slow = mean_decay.real - 0.5 * splitting.real
    fast = mean_decay.real + 0.5 * splitting.real
    return EigenRates(slow=float(slow), fast=float(fast))


@dataclass(frozen=True)
class ModeSplit:
    """Time-independent split of a one-photon input into the fast (strong
    decoherence) and slow (weak decoherence) amplitude components.

    Valid for small rate gap and frequency split; ``validity_ratio`` reports
    how far the inputs sit from that regime.
    """

    strong_amplitudes: tuple  # fast component on (|1,0>, |0,1>)
    weak_amplitudes: tuple    # slow component on (|1,0>, |0,1>)
    strong_rate: float
    weak_rate: float
    validity_ratio: float

    def to_json_dict(self) -> dict:
        def pair(z):
            return [z.real, z.imag]

        return {
            "strong_amplitudes": [pair(z) for z in self.strong_amplitudes],
            "weak_amplitudes": [pair(z) for z in self.weak_amplitudes],
            "strong_rate": self.strong_rate,
            "weak_rate": self.weak_rate,
            "validity_ratio": self.validity_ratio,
        }


def approximate_mode_split(
    k1: float,
    k2: float,
    rate_gap: float,
    frequency_split: float,
    alpha: float,
    phi: float,
) -> ModeSplit:
    """First-order strong/weak amplitude split of the mode (alpha, phi)."""
    if k1 <= 0 or k2 <= 0:
        raise ValueError("rates must be positive")
    total = k1 + k2
    root = math.sqrt(k1 * k2)
    cos_a = np.cos(alpha)
    sin_phase = np.exp(1j * phi) * np.sin(alpha)
    strong_1 = ((k1 - 1j * frequency_split) * cos_a + root * sin_phase) / total
    weak_1 = ((k2 + 1j * frequency_split) * cos_a - root * sin_phase) / total
    strong_2 = ((k2 + 1j * frequency_split) * sin_phase + root * cos_a) / total
    weak_2 = ((k1 - 1j * frequency_split) * sin_phase - root * cos_a) / total
    mean = 0.5 * total
    validity = max(rate_gap / root, abs(frequency_split) / mean)
    return ModeSplit(
        strong_amplitudes=(complex(strong_1), complex(strong_2)),
        weak_amplitudes=(complex(weak_1), complex(weak_2)),
        strong_rate=total,
        weak_rate=2.0 * rate_gap * root / total,
        validity_ratio=float(validity),
    )


@dataclass(frozen=True)
class DecoherenceAngles:
    strong_alpha: float
    strong_phi: float
    weak_alpha: float
    weak_phi: float


def decoherence_mode_angles(
    k1: float, k2: float, frequency_split: float, mean_rate: float
) -> DecoherenceAngles:
    """Initial-condition angles whose one-photon states are the strong and
    weak decoherence modes (up to a global phase)."""
    if mean_rate <= 0:
        raise ValueError("mean rate must be positive")
    return DecoherenceAngles(
        strong_alpha=float(np.arctan(np.sqrt(k2 / k1))),
        strong_phi=frequency_split / mean_rate,
        weak_alpha=float(np.arctan(-np.sqrt(k1 / k2))),
        weak_phi=-frequency_split / mean_rate,
    )


@dataclass(frozen=True)
class FitResult:
    rate: float
    r_squared: float
    points: int


def fit_decay_rate(times, values, window) -> FitResult:
    """Least-squares exponential rate: -slope of log(values) on the window.

    Requires at least 10 strictly positive samples inside the window; a
    constant offset multiplying the exponential does not affect the rate.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    if lo >= hi:
        raise ValueError("window must satisfy lo < hi")
    if lo > times[-1] or hi < times[0]:
        raise ValueError("window lies outside the series")
    mask = (times >= lo) & (times <= hi)
    if int(mask.sum()) < 10:
        raise ValueError(f"need at least 10 samples in the window, got {mask.sum()}")
    sel = values[mask]
    if np.any(sel <= 0):
        raise ValueError("values must be strictly positive on the window")
    logs = np.log(sel)
    t_sel = times[mask]
    slope, intercept = np.polyfit(t_sel, logs, 1)
    predicted = slope * t_sel + intercept
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    return FitResult(rate=float(-slope), r_squared=float(r2), points=int(mask.sum()))
