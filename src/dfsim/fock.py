"""Truncated multimode Fock space: basis, ladder operators, states and metrics.

Basis ordering is lexicographic in the occupation vectors with the first
mode varying slowest; this ordering is fixed and used by every serialized
artifact in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode occupation cutoff defining a finite Fock space."""

    num_modes: int
    max_excitation: int = 3

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("num_modes must be >= 1")
        if self.max_excitation < 1:
            raise ValueError("max_excitation must be >= 1")

    @property
    def levels(self) -> int:
        return self.max_excitation + 1

    @property
    def dim(self) -> int:
        return self.levels**self.num_modes

    def occupations(self) -> np.ndarray:
        """Table of all occupation vectors, one row per basis index."""
        return _occupation_table(self)

    def index_of(self, occupations) -> int:
        occ = tuple(int(n) for n in occupations)
        if len(occ) != self.num_modes:
            raise ValueError(f"expected {self.num_modes} occupations, got {len(occ)}")
        if any(n < 0 or n > self.max_excitation for n in occ):
            raise ValueError(f"occupations {occ} outside [0, {self.max_excitation}]")
        idx = 0
        for n in occ:
            idx = idx * self.levels + n
        return idx


@lru_cache(maxsize=None)
def _occupation_table(spec: TruncationSpec) -> np.ndarray:
    table = np.array(
        list(np.ndindex(*([spec.levels] * spec.num_modes))), dtype=np.int64
    )
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _mode_occupation(spec: TruncationSpec, mode: int) -> np.ndarray:
    col = _occupation_table(spec)[:, mode].copy()
    col.setflags(write=False)
    return col


@lru_cache(maxsize=None)
def ladder_operator(spec: TruncationSpec, mode: int) -> np.ndarray:
    """Annihilation operator of ``mode`` on the full tensor space.

    The conjugate transpose is the creation operator; the pair satisfies
    [a, a_dag] = 1 on every state below the top occupation level.
    """
    if not 0 <= mode < spec.num_modes:
        raise ValueError(f"mode {mode} out of range [0, {spec.num_modes - 1}]")
    single = np.zeros((spec.levels, spec.levels), dtype=complex)
    for n in range(1, spec.levels):
        single[n - 1, n] = np.sqrt(n)
    op = np.eye(1, dtype=complex)
    for m in range(spec.num_modes):
        op = np.kron(op, single if m == mode else np.eye(spec.levels))
    op.setflags(write=False)
    return op


def creation_operator(spec: TruncationSpec, mode: int) -> np.ndarray:
    return ladder_operator(spec, mode).conj().T


@lru_cache(maxsize=None)
def number_operator(spec: TruncationSpec, mode: int) -> np.ndarray:
    op = np.diag(_mode_occupation(spec, mode).astype(complex))
    op.setflags(write=False)
    return op


@dataclass(frozen=True)
class FockBasisState:
    """A single occupation-number basis ket."""

    occupations: tuple[int, ...]

    def __post_init__(self):
        occ = tuple(int(n) for n in self.occupations)
        if any(n < 0 for n in occ):
            raise ValueError("occupations must be non-negative")
        object.__setattr__(self, "occupations", occ)

    def index(self, spec: TruncationSpec) -> int:
        return spec.index_of(self.occupations)

    def vector(self, spec: TruncationSpec) -> np.ndarray:
        vec = np.zeros(spec.dim, dtype=complex)
        vec[self.index(spec)] = 1.0
        return vec


def basis_vector(spec: TruncationSpec, occupations) -> np.ndarray:
    return FockBasisState(tuple(occupations)).vector(spec)


@dataclass(frozen=True)
class ModeVector:
    """Normalized amplitudes of a single-excitation mode on the original modes."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex).ravel()
        norm = np.linalg.norm(coeffs)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"mode vector norm {norm} differs from 1 by more than 1e-12")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "ModeVector":
        amps = np.array(amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(amps)
        if norm < 1e-15:
            raise ValueError("cannot normalize a zero-norm mode vector")
        return cls(amps / norm)

    @classmethod
    def from_angles(cls, alpha: float, phi: float) -> "ModeVector":
        """Two-mode vector (cos(alpha), exp(i phi) sin(alpha))."""
        return cls(np.array([np.cos(alpha), np.exp(1j * phi) * np.sin(alpha)]))

    @property
    def num_modes(self) -> int:
        return self.coefficients.size


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a truncated space.

    Instances are immutable.  The default constructor validates Hermiticity
    (1e-12), trace (1e-10) and positivity (eigenvalues above -1e-10);
    ``DensityMatrix.unchecked`` skips validation and is meant for integrator
    output, whose residual violations are tracked as diagnostics instead.
    """

    __slots__ = ("spec", "matrix")

    def __init__(self, spec: TruncationSpec, matrix, *, _validate: bool = True):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (spec.dim, spec.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {spec.dim}")
        mat.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "matrix", mat)
        if _validate:
            herm = np.max(np.abs(mat - mat.conj().T))
            if herm > HERMITICITY_TOL:
                raise ValueError(f"matrix is not Hermitian (defect {herm:.3e})")
            tr = np.trace(mat)
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"trace {tr} differs from 1 beyond {TRACE_TOL}")
            min_eig = float(np.linalg.eigvalsh(mat)[0])
            if min_eig < -POSITIVITY_TOL:
                raise ValueError(f"matrix has negative eigenvalue {min_eig:.3e}")

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def unchecked(cls, spec: TruncationSpec, matrix) -> "DensityMatrix":
        return cls(spec, matrix, _validate=False)

    @classmethod
    def from_state_vector(cls, spec: TruncationSpec, psi) -> "DensityMatrix":
        vec = np.asarray(psi, dtype=complex).ravel()
        norm = np.linalg.norm(vec)
        if norm < 1e-15:
            raise ValueError("cannot build a state from a zero vector")
        vec = vec / norm
        return cls(spec, np.outer(vec, vec.conj()))

    @property
    def dim(self) -> int:
        return self.spec.dim

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def trace_error(self) -> float:
        return float(abs(np.trace(self.matrix) - 1.0))

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, spec={self.spec})"


# -- state constructors ----------------------------------------------------


def vacuum_state(spec: TruncationSpec) -> DensityMatrix:
    return fock_state(spec, (0,) * spec.num_modes)


def fock_state(spec: TruncationSpec, occupations) -> DensityMatrix:
    return DensityMatrix.from_state_vector(spec, basis_vector(spec, occupations))


def one_photon_vector(spec: TruncationSpec, mode: ModeVector) -> np.ndarray:
    """Ket with a single excitation in the given mode superposition."""
    if mode.num_modes != spec.num_modes:
        raise ValueError("mode vector length does not match the number of modes")
    vac = np.zeros(spec.dim, dtype=complex)
    vac[spec.index_of((0,) * spec.num_modes)] = 1.0
    psi = np.zeros(spec.dim, dtype=complex)
    for m, amp in enumerate(mode.coefficients):
        if amp != 0:
            psi += amp * (creation_operator(spec, m) @ vac)
    return psi


def one_photon_state(mode: ModeVector, spec: TruncationSpec) -> DensityMatrix:
    return DensityMatrix.from_state_vector(spec, one_photon_vector(spec, mode))


def dfs_state_builder(coeffs, theta: float, spec: TruncationSpec) -> DensityMatrix:
    """Assemble a state of the protected collective mode in the original basis.

    ``coeffs[n, m]`` are density-matrix entries in the number basis of the
    decoupled collective mode with creation operator
    ``-sin(theta) a1_dag + cos(theta) a2_dag``; the result is that operator
    expanded on the two original modes.

    Requires a two-mode space and ``coeffs`` Hermitian, PSD, unit trace with
    maximal index within the truncation.
    """
    if spec.num_modes != 2:
        raise ValueError("protected-mode states are defined on two modes")
    table = np.array(coeffs, dtype=complex)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError("coeffs must be a square matrix")
    levels = table.shape[0]
    if levels - 1 > spec.max_excitation:
        raise ValueError(
            f"coeffs address occupation {levels - 1} but truncation allows "
            f"{spec.max_excitation}"
        )
    if np.max(np.abs(table - table.conj().T)) > 1e-10:
        raise ValueError("coeffs must be Hermitian")
    if abs(np.trace(table) - 1.0) > 1e-8:
        raise ValueError("coeffs must have unit trace")
    if np.linalg.eigvalsh(table)[0] < -1e-10:
        raise ValueError("coeffs must be positive semidefinite")

    protected_dag = -np.sin(theta) * creation_operator(spec, 0) + np.cos(
        theta
    ) * creation_operator(spec, 1)
    vac = np.zeros(spec.dim, dtype=complex)
    vac[spec.index_of((0, 0))] = 1.0
    kets = []
    ket = vac
    for n in range(levels):
        kets.append(ket / np.sqrt(factorial(n)))
        ket = protected_dag @ ket
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    for n in range(levels):
        for m in range(levels):
            if table[n, m] != 0:
                rho += table[n, m] * np.outer(kets[n], kets[m].conj())
    return DensityMatrix(spec, rho)


# -- metrics ---------------------------------------------------------------


def _check_same_dim(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Overlap fidelity Tr(rho sigma); equals 1 iff both are the same pure state."""
    _check_same_dim(rho, sigma)
    return float(np.real(np.trace(rho.matrix @ sigma.matrix)))


def purity(rho: DensityMatrix) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    _check_same_dim(rho, sigma)
    diff = rho.matrix - sigma.matrix
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def mode_population(rho: DensityMatrix, mode: ModeVector) -> float:
    """Expectation of the one-excitation projector of the given mode."""
    psi = one_photon_vector(rho.spec, mode)
    return float(np.real(psi.conj() @ rho.matrix @ psi))
