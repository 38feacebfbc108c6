"""Closed-form evolution of two degenerate modes damped through one collective
channel, plus the asymptotic state reached from one-photon inputs.

The evolution factorizes, reading right to left, into: rotation into the
collective basis, a double-sided lowering series, diagonal damping factors,
a double-sided raising series, a scalar weight, the free rotation of the
decoupled mode, and the rotation back.  Every operator exponential is a
finite series or a diagonal factor on the truncated space; no general matrix
exponentials are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coupling import theta_from_rates
from .errors import TruncationOverflowError
from .fock import (
    DensityMatrix,
    ModeVector,
    TruncationSpec,
    _mode_occupation,
    creation_operator,
    ladder_operator,
    one_photon_vector,
)


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Scalar data fixing the evolution map at one instant.

    ``thermal_weight`` (in (0, 1]) and ``emission_weight`` (in [0, 1)) carry
    the incoherent part; ``damping_exponent`` is the complex per-quantum
    log-amplitude applied symmetrically from both sides.  At t = 0 the triple
    is (1, 0, 0); at zero temperature the weight stays 1.
    """

    thermal_weight: float
    damping_exponent: complex
    emission_weight: float
    mixing_angle: float
    frequency: float
    time: float


def markov_coefficients(
    k1: float, k2: float, nbar: float, omega: float, t: float
) -> PropagatorCoefficients:
    """Coefficients in the constant-rate (memoryless) limit.

    Derived from the damped amplitude exp((-i omega - k1 - k2) t) and the
    injected quanta nbar (1 - exp(-2 (k1 + k2) t)); the normalization of the
    damping exponent is fixed by trace preservation of the full factor
    combination (see ``apply_superoperator``).
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    k = k1 + k2
    decay = np.exp(-2.0 * k * t)
    gained = nbar * (1.0 - decay)
    weight = 1.0 / (1.0 + gained)
    exponent = complex(-k * t - np.log1p(gained), -omega * t)
    emission = (nbar + 1.0) * (1.0 - decay) / (1.0 + gained)
    return PropagatorCoefficients(
        thermal_weight=weight,
        damping_exponent=exponent,
        emission_weight=emission,
        mixing_angle=theta_from_rates(k1, k2),
        frequency=omega,
        time=t,
    )


def coefficients_from_eta(
    amplitude,
    quanta_gain,
    times,
    *,
    mixing_angle: float = 0.0,
    frequency: float = 0.0,
) -> list[PropagatorCoefficients]:
    """Coefficients along a trajectory of the memory amplitude eta(t) and the
    injected-quanta history N(t).

    The weight is 1/(1+N), the damping exponent is log(eta/(1+N)) with the
    imaginary part unwound continuously from 0, and the emission weight is
    1 - |eta|^2/(1+N); with the memoryless eta and N these reduce exactly to
    ``markov_coefficients``.
    """
    eta = np.asarray(amplitude, dtype=complex)
    gained = np.asarray(quanta_gain, dtype=float)
    times = np.asarray(times, dtype=float)
    if eta.shape != gained.shape or eta.shape != times.shape:
        raise ValueError("amplitude, quanta gain and times must share a grid")
    mags = np.abs(eta)
    if np.any(mags < 1e-14):
        bad = int(np.argmax(mags < 1e-14))
        raise ValueError(
            f"amplitude vanishes at t = {times[bad]}; the log-amplitude "
            "is singular there"
        )
    phases = np.unwrap(np.angle(eta))
    phases = phases - phases[0]
    out = []
    for i in range(times.size):
        weight = 1.0 / (1.0 + gained[i])
        exponent = complex(np.log(mags[i]) - np.log1p(gained[i]), phases[i])
        emission = 1.0 - mags[i] ** 2 / (1.0 + gained[i])
        out.append(
            PropagatorCoefficients(
                thermal_weight=weight,
                damping_exponent=exponent,
                emission_weight=emission,
                mixing_angle=mixing_angle,
                frequency=frequency,
                time=float(times[i]),
            )
        )
    return out


@lru_cache(maxsize=None)
def _mixing_eigh(spec: TruncationSpec) -> tuple:
    """Spectral decomposition of the Hermitian mixing generator
    i (a2^dag a1 - a1^dag a2), one per truncation."""
    a1 = ladder_operator(spec, 0)
    a2 = ladder_operator(spec, 1)
    vals, vecs = np.linalg.eigh(1j * (a2.conj().T @ a1 - a1.conj().T @ a2))
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def _rotation_unitary(theta: float, spec: TruncationSpec) -> np.ndarray:
    """Fock-space unitary sending each original mode to its collective image.

    Built from the spectral decomposition of the Hermitian mixing generator,
    so it is unitary to machine precision on the whole truncated space.  Only
    the decomposition is cached: the angle takes a new value with every set
    of rates.
    """
    vals, vecs = _mixing_eigh(spec)
    return (vecs * np.exp(-1j * theta * vals)) @ vecs.conj().T


def _lowering_series(op_low, op_raise, rho, coefficient, jmax):
    out = rho.copy()
    term = rho
    fact = 1.0
    for j in range(1, jmax + 1):
        term = op_low @ term @ op_raise
        fact *= j
        out += (coefficient**j / fact) * term
        if not np.any(term):
            break
    return out


def apply_superoperator(
    coeffs: PropagatorCoefficients, rho: DensityMatrix
) -> DensityMatrix:
    """Apply the factorized evolution map to a two-mode state.

    Finite-temperature inputs need occupation headroom: if the intermediate
    state puts more than 1e-8 population on the top level of the damped
    collective mode, the raising series would spill past the truncation and
    ``TruncationOverflowError`` is raised.
    """
    spec = rho.spec
    if spec.num_modes != 2:
        raise ValueError("the factorized map is defined for two modes")
    theta = coeffs.mixing_angle
    rot = _rotation_unitary(theta, spec)
    sigma = rot.conj().T @ rho.matrix @ rot

    a1 = ladder_operator(spec, 0)
    a1_dag = creation_operator(spec, 0)
    n1 = _mode_occupation(spec, 0)
    n2 = _mode_occupation(spec, 1)
    top = spec.max_excitation

    if coeffs.emission_weight != 0.0:
        sigma = _lowering_series(a1, a1_dag, sigma, coeffs.emission_weight, top)
    damp = np.exp(coeffs.damping_exponent * n1)
    sigma = (damp[:, None] * sigma) * damp.conj()[None, :]
    v = coeffs.thermal_weight
    if v < 1.0:
        top_population = float(np.real(np.sum(np.diag(sigma)[n1 == top])))
        if top_population > 1e-8:
            raise TruncationOverflowError(
                f"population {top_population:.3e} at the top collective level; "
                "raise max_excitation"
            )
        sigma = _lowering_series(a1_dag, a1, sigma, 1.0 - v, top)
        sigma = v * sigma
    phase = np.exp(-1j * coeffs.frequency * coeffs.time * n2)
    sigma = (phase[:, None] * sigma) * phase.conj()[None, :]

    result = rot @ sigma @ rot.conj().T
    result = 0.5 * (result + result.conj().T)
    trace = float(np.real(np.trace(result)))
    if abs(trace - 1.0) > 1e-6:
        raise TruncationOverflowError(
            f"trace drifted to {trace}; truncated space too small for these "
            "coefficients"
        )
    return DensityMatrix.unchecked(spec, result)


@dataclass(frozen=True)
class AsymptoticResult:
    """Long-time limit of a one-photon input: surviving mode, weight, overlap."""

    mode: ModeVector
    weight: float
    fidelity_infinity: float

    def density_matrix(self, spec: TruncationSpec) -> DensityMatrix:
        psi = one_photon_vector(spec, self.mode)
        vac = np.zeros(spec.dim, dtype=complex)
        vac[spec.index_of((0,) * spec.num_modes)] = 1.0
        mat = self.weight * np.outer(psi, psi.conj()) + (
            1.0 - self.weight
        ) * np.outer(vac, vac.conj())
        return DensityMatrix(spec, mat)


def asymptotic_state(k1: float, k2: float, alpha: float, phi: float) -> AsymptoticResult:
    """Stationary state reached from the one-photon mode (alpha, phi).

    The surviving one-photon component lies along the protected mode
    (sqrt(k2), -sqrt(k1)) / sqrt(k1 + k2); its weight is the squared overlap
    with the initial mode, and the asymptotic overlap fidelity is the square
    of that weight.
    """
    if k1 + k2 <= 0:
        raise ValueError("k1 + k2 must be positive")
    denom = np.sqrt(k1 + k2)
    mode = ModeVector(np.array([np.sqrt(k2), -np.sqrt(k1)]) / denom)
    overlap = (
        np.sqrt(k2) * np.cos(alpha) - np.sqrt(k1) * np.exp(1j * phi) * np.sin(alpha)
    ) / denom
    weight = float(abs(overlap) ** 2)
    return AsymptoticResult(mode=mode, weight=weight, fidelity_infinity=weight**2)
