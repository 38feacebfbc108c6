"""Master-equation generators and a density-matrix propagator with two engines.

The generator acts as

    d(rho)/dt = -i [H + s(t) S, rho]
                + sum_ij gamma_ij(t) (2 L_i rho L_j^dag
                                      - L_j^dag L_i rho - rho L_j^dag L_i)

with a Hermitian coefficient block ``gamma``.  In this convention a single
damped mode with rate k loses population at 2k.  Everything is dense: the
spaces this package targets stay below a few hundred dimensions.

``propagate`` picks its engine from the generator.  A constant generator on
at most ``EXACT_MAX_DIM`` states is advanced exactly: one ``exp(L dt)`` of
the d^2 x d^2 superoperator per distinct sample interval, one matrix-vector
product per sample.  Above that size the superoperator (d^4 entries) costs
more than it saves, so the engine is fixed-step RK4, as it is for
time-dependent generators and whenever the caller sets ``max_step``,
``richardson`` or ``renormalize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coupling import CouplingModel, RateModel, cauchy_schwarz_check
from .errors import (
    ConvergenceError,
    DivergenceError,
    StepSizeError,
    UnphysicalRatesError,
)
from .fock import (
    DensityMatrix,
    TruncationSpec,
    ladder_operator,
    number_operator,
)
from .tableio import format_value, write_text

STEP_GUARD = 0.1

# Largest Hilbert-space dimension for the exact engine: its superoperator
# holds d^4 complex entries, 5.3 MB at d = 24 against 92 MB at d = 49.
EXACT_MAX_DIM = 24

# Intervals whose lengths agree to this relative tolerance share one
# propagator, so a linspace grid needs a single exponential.
_SPAN_RTOL = 1e-12

# Numerator coefficients of the [13/13] Pade approximant to exp and the
# largest 1-norm it handles unscaled (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179 (2005), Table 2.3 and Algorithm 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class LindbladGenerator:
    spec: TruncationSpec
    hamiltonian: np.ndarray
    jump_operators: tuple
    kossakowski: np.ndarray
    shift_operator: Optional[np.ndarray] = None
    coefficient_schedule: Optional[Callable[[float], tuple]] = None
    time_span: Optional[tuple] = None
    _jump_daggers: tuple = field(init=False, repr=False, default=())
    _pair_products: tuple = field(init=False, repr=False, default=())

    def __post_init__(self):
        ham = np.array(self.hamiltonian, dtype=complex)
        if ham.shape != (self.spec.dim, self.spec.dim):
            raise ValueError("Hamiltonian shape does not match the truncation")
        ham.setflags(write=False)
        object.__setattr__(self, "hamiltonian", ham)
        jumps = tuple(np.array(op, dtype=complex) for op in self.jump_operators)
        for op in jumps:
            op.setflags(write=False)
        object.__setattr__(self, "jump_operators", jumps)
        gamma = np.array(self.kossakowski, dtype=complex)
        if gamma.shape != (len(jumps), len(jumps)):
            raise ValueError("coefficient block must be square over the jump list")
        gamma.setflags(write=False)
        object.__setattr__(self, "kossakowski", gamma)
        daggers = tuple(op.conj().T for op in jumps)
        products = tuple(
            tuple(daggers[j] @ jumps[i] for j in range(len(jumps)))
            for i in range(len(jumps))
        )
        object.__setattr__(self, "_jump_daggers", daggers)
        object.__setattr__(self, "_pair_products", products)

    @property
    def is_time_dependent(self) -> bool:
        return self.coefficient_schedule is not None

    def coefficients(self, t: float = 0.0) -> tuple[float, np.ndarray]:
        if self.coefficient_schedule is None:
            return 0.0, self.kossakowski
        if self.time_span is not None and not (
            self.time_span[0] - 1e-12 <= t <= self.time_span[1] + 1e-12
        ):
            raise ValueError(
                f"time {t} outside the generator's span {self.time_span}"
            )
        return self.coefficient_schedule(t)

    def apply(self, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Right-hand side d(rho)/dt for a raw density matrix."""
        shift, gamma = self.coefficients(t)
        ham = self.hamiltonian
        if shift != 0.0 and self.shift_operator is not None:
            ham = ham + shift * self.shift_operator
        out = -1j * (ham @ rho - rho @ ham)
        m = len(self.jump_operators)
        sink = None
        for i in range(m):
            for j in range(m):
                g = gamma[i, j]
                if g == 0:
                    continue
                out = out + (2.0 * g) * (
                    self.jump_operators[i] @ rho @ self._jump_daggers[j]
                )
                piece = g * self._pair_products[i][j]
                sink = piece if sink is None else sink + piece
        if sink is not None:
            out = out - (sink @ rho + rho @ sink)
        return out

    def to_matrix(self, t: float = 0.0) -> np.ndarray:
        """Dense superoperator on row-major vectorized density matrices."""
        shift, gamma = self.coefficients(t)
        dim = self.spec.dim
        eye = np.eye(dim)
        ham = self.hamiltonian
        if shift != 0.0 and self.shift_operator is not None:
            ham = ham + shift * self.shift_operator
        lio = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
        m = len(self.jump_operators)
        for i in range(m):
            for j in range(m):
                g = gamma[i, j]
                if g == 0:
                    continue
                li = self.jump_operators[i]
                ldj = self._jump_daggers[j]
                pij = self._pair_products[i][j]
                lio = lio + 2.0 * g * np.kron(li, ldj.T)
                lio = lio - g * (np.kron(pij, eye) + np.kron(eye, pij.T))
        return lio

    def norm_estimate(self) -> float:
        """Upper estimate of the superoperator spectral norm, for step control."""

        def spectral(op):
            return float(np.linalg.norm(op, 2))

        if self.coefficient_schedule is None:
            samples = [(0.0, self.kossakowski)]
        else:
            t0, t1 = self.time_span if self.time_span else (0.0, 1.0)
            samples = [self.coefficients(t) for t in np.linspace(t0, t1, 33)]
        jump_norms = [spectral(op) for op in self.jump_operators]
        shift_norm = spectral(self.shift_operator) if self.shift_operator is not None else 0.0
        worst = 0.0
        for shift, gamma in samples:
            total = 2.0 * (spectral(self.hamiltonian) + abs(shift) * shift_norm)
            m = len(self.jump_operators)
            for i in range(m):
                for j in range(m):
                    total += 4.0 * abs(gamma[i, j]) * jump_norms[i] * jump_norms[j]
            worst = max(worst, total)
        return worst


# -- generator builders ------------------------------------------------------


def _collective_lowering(spec: TruncationSpec, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=complex).ravel()
    w = w / np.linalg.norm(w)
    op = np.zeros((spec.dim, spec.dim), dtype=complex)
    for m, amp in enumerate(w):
        if amp != 0:
            op += amp * ladder_operator(spec, m)
    return op


def _free_hamiltonian(spec: TruncationSpec, frequencies) -> np.ndarray:
    ham = np.zeros((spec.dim, spec.dim), dtype=complex)
    for m, omega in enumerate(frequencies):
        if omega != 0:
            ham += omega * number_operator(spec, m)
    return ham


def build_bm_generator(
    model,
    spec: TruncationSpec,
    *,
    omega: Optional[float] = None,
    nbar: Optional[float] = None,
    collective_rate: Optional[float] = None,
) -> LindbladGenerator:
    """Born-Markov generator: free rotation plus damping of one collective mode.

    With a ``RateModel`` the collective direction is sqrt(k_i), the total rate
    is sum(k_i) and ``omega`` (the common frequency) must be supplied.  With a
    ``CouplingModel`` the direction, frequency and thermal occupation come
    from the model, but the Markov collective rate is not derivable from the
    couplings alone and must be passed as ``collective_rate``.
    """
    if isinstance(model, RateModel):
        if model.num_oscillators != spec.num_modes:
            raise ValueError("rate count must match the number of modes")
        if omega is None:
            raise ValueError("omega is required with a RateModel")
        weights = np.sqrt(np.asarray(model.rates, dtype=float))
        if np.all(weights == 0):
            raise ValueError("at least one rate must be positive")
        total = model.total_rate
        nbar = model.thermal_occupation if nbar is None else float(nbar)
    elif isinstance(model, CouplingModel):
        if len(model.frequencies) != spec.num_modes:
            raise ValueError("oscillator count must match the number of modes")
        weights = model.collective_weights()
        omega = model.degenerate_frequency() if omega is None else float(omega)
        if collective_rate is None:
            raise ValueError(
                "a CouplingModel does not fix the Markov rate; pass collective_rate"
            )
        total = float(collective_rate)
        nbar = model.thermal_occupation(omega) if nbar is None else float(nbar)
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    if nbar < 0:
        raise ValueError("thermal occupation must be non-negative")
    lowering = _collective_lowering(spec, weights)
    ham = _free_hamiltonian(spec, [omega] * spec.num_modes)
    if nbar > 0:
        jumps = (lowering, lowering.conj().T)
        gamma = np.diag([total * (nbar + 1.0), total * nbar]).astype(complex)
    else:
        jumps = (lowering,)
        gamma = np.array([[total]], dtype=complex)
    return LindbladGenerator(spec, ham, jumps, gamma)


def build_realistic_generator(
    rates: RateModel,
    omega1: float,
    omega2: float,
    spec: TruncationSpec,
    *,
    allow_unphysical: bool = False,
) -> LindbladGenerator:
    """Zero-temperature generator for two oscillators in one environment.

    Local damping at k1, k2 plus environment-mediated cross terms with the
    complex cross rate; rejects |k3|^2 > k1 k2 (complete positivity) unless
    ``allow_unphysical`` is set for exploratory runs.
    """
    if spec.num_modes != 2:
        raise ValueError("the realistic generator is defined for two modes")
    if rates.num_oscillators != 2:
        raise ValueError("need exactly two oscillator rates")
    if rates.thermal_occupation != 0:
        raise ValueError("the realistic generator is the zero-temperature form")
    check = cauchy_schwarz_check(rates)
    if not check.physical and not allow_unphysical:
        raise UnphysicalRatesError(
            f"|k3|^2 exceeds k1 k2 by {-check.slack:.3e}; "
            "set allow_unphysical to explore anyway"
        )
    ham = _free_hamiltonian(spec, [omega1, omega2])
    jumps = (ladder_operator(spec, 0), ladder_operator(spec, 1))
    k3 = rates.cross_rate
    gamma = np.array([[rates.k1, k3], [np.conj(k3), rates.k2]], dtype=complex)
    return LindbladGenerator(spec, ham, jumps, gamma)


def build_time_dependent_generator(
    kernel_solution,
    spec: TruncationSpec,
    *,
    collective_direction=None,
) -> LindbladGenerator:
    """Generator whose damping, frequency shift and injection rate follow a
    memory-kernel solution, linearly interpolated on its grid.

    Reduces to the Born-Markov generator when the coefficient trajectories
    are the constants (k, 0, k nbar).
    """
    sol = kernel_solution
    if sol.damping is None or sol.frequency_shift is None:
        raise ValueError("kernel solution must carry extracted rates")
    if collective_direction is None:
        if spec.num_modes != 1:
            raise ValueError(
                "collective_direction is required for more than one mode"
            )
        collective_direction = [1.0]
    lowering = _collective_lowering(spec, collective_direction)
    raising = lowering.conj().T
    ham = _free_hamiltonian(spec, [sol.omega] * spec.num_modes)
    shift_op = raising @ lowering
    times = np.asarray(sol.times, dtype=float)
    damping = np.asarray(sol.damping, dtype=float)
    shift = np.asarray(sol.frequency_shift, dtype=float)
    if sol.injection_rate is None:
        injection = np.zeros_like(damping)
    else:
        injection = np.asarray(sol.injection_rate, dtype=float)

    def schedule(t: float):
        lam = float(np.interp(t, times, damping))
        eps = float(np.interp(t, times, injection))
        det = float(np.interp(t, times, shift))
        gamma = np.array([[lam + eps, 0.0], [0.0, eps]], dtype=complex)
        return det, gamma

    return LindbladGenerator(
        spec,
        ham,
        (lowering, raising),
        np.zeros((2, 2), dtype=complex),
        shift_operator=shift_op,
        coefficient_schedule=schedule,
        time_span=(float(times[0]), float(times[-1])),
    )


# -- propagation -------------------------------------------------------------


@dataclass(frozen=True)
class PropagationResult:
    """Trajectory samples plus per-sample conservation diagnostics.

    ``engine`` names the integrator that produced them: ``"exact"`` or
    ``"rk4"``.
    """

    times: np.ndarray
    states: tuple
    trace_errors: np.ndarray
    min_eigenvalues: np.ndarray
    engine: str

    @property
    def final(self) -> DensityMatrix:
        return self.states[-1]

    def to_csv_text(self, observables: Optional[dict] = None) -> str:
        header = ["time", "trace_error", "min_eig"]
        columns = [self.times, self.trace_errors, self.min_eigenvalues]
        if observables:
            for name, values in observables.items():
                header.append(name)
                columns.append(np.asarray(values))
        lines = [",".join(header)]
        for i in range(len(self.times)):
            lines.append(",".join(format_value(col[i]) for col in columns))
        return "\n".join(lines) + "\n"

    def write_csv(self, path, observables: Optional[dict] = None):
        write_text(path, self.to_csv_text(observables))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the [13/13] Pade approximant.

    The 1-norm is scaled below ``_THETA13``, where the approximant is exact
    to double precision, then the result is squared back (Higham 2005,
    Algorithm 2.3, without its lower-degree shortcuts).  A non-finite input
    gives a NaN matrix.
    """
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=complex)
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0**squarings
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    return out


def _exact_samples(generator, rho, times):
    """Yield the state at each later sample time: one exponential per
    distinct interval length, one matrix-vector product per sample on the
    row-major vectorized state."""
    lio = generator.to_matrix()
    known = []  # (interval length, propagator)
    vec = rho.reshape(-1)
    for span in np.diff(times):
        for length, prop in known:
            if abs(span - length) <= _SPAN_RTOL * length:
                break
        else:
            prop = _expm(lio * span)
            known.append((span, prop))
        vec = prop @ vec
        yield vec.reshape(rho.shape)


def _rk4_step(generator, rho, t, h):
    k1 = generator.apply(rho, t)
    k2 = generator.apply(rho + 0.5 * h * k1, t + 0.5 * h)
    k3 = generator.apply(rho + 0.5 * h * k2, t + 0.5 * h)
    k4 = generator.apply(rho + h * k3, t + h)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_samples(generator, rho, times, target, richardson, renormalize):
    """Yield the state at each later sample time, integrating each interval
    in equal substeps no longer than ``target``."""
    for n in range(times.size - 1):
        t0, t1 = times[n], times[n + 1]
        span = t1 - t0
        substeps = max(1, int(math.ceil(span / target - 1e-12)))
        h = span / substeps
        t = t0
        for _ in range(substeps):
            if richardson:
                full = _rk4_step(generator, rho, t, h)
                half = _rk4_step(generator, rho, t, 0.5 * h)
                half = _rk4_step(generator, half, t + 0.5 * h, 0.5 * h)
                rho = (16.0 * half - full) / 15.0
            else:
                rho = _rk4_step(generator, rho, t, h)
            if renormalize:
                rho = rho / np.trace(rho).real
            t += h
        yield rho


def propagate(
    generator: LindbladGenerator,
    rho0: DensityMatrix,
    times,
    *,
    max_step: Optional[float] = None,
    richardson: bool = False,
    renormalize: bool = False,
) -> PropagationResult:
    """Evolve ``rho0`` and sample it on ``times``.

    Engine selection (reported as ``PropagationResult.engine``):

    * ``"exact"`` when no option is set, the generator is constant and
      ``spec.dim <= EXACT_MAX_DIM``: ``exp(L dt)`` of the vectorized
      superoperator, built once per distinct interval length (lengths equal
      to 1e-12 relative share one), and one matrix-vector product per
      sample.
    * ``"rk4"`` otherwise: fixed-step classical RK4.  The internal step
      honors the stability guard h * ||L|| < 0.1 based on a spectral-norm
      estimate; an explicit ``max_step`` that violates the guard raises
      ``StepSizeError``.  ``richardson`` combines each step with two half
      steps for one extra order.  Per-step trace renormalization
      (``renormalize``) is off by default so trace drift stays visible as a
      diagnostic.

    Both engines raise ``DivergenceError`` at the first non-finite sample and
    report the trace error and the smallest eigenvalue of the Hermitian part
    of every sample.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing grid")
    if rho0.spec != generator.spec:
        raise ValueError("initial state and generator live on different spaces")
    rho = np.array(rho0.matrix, dtype=complex)
    exact = (
        max_step is None
        and not richardson
        and not renormalize
        and not generator.is_time_dependent
        and generator.spec.dim <= EXACT_MAX_DIM
    )
    if exact:
        stepper = _exact_samples(generator, rho, times)
    else:
        norm = generator.norm_estimate()
        if max_step is not None:
            if max_step * norm >= STEP_GUARD:
                raise StepSizeError(
                    f"step {max_step} violates h*||L|| < {STEP_GUARD} "
                    f"(norm estimate {norm:.3e})"
                )
            target = max_step
        else:
            target = 0.8 * STEP_GUARD / norm if norm > 0 else math.inf
        stepper = _rk4_samples(generator, rho, times, target, richardson, renormalize)

    stack = np.empty((times.size,) + rho.shape, dtype=complex)
    stack[0] = rho
    with np.errstate(over="ignore", invalid="ignore"):
        for n, state in enumerate(stepper, start=1):
            if not np.all(np.isfinite(state)):
                t1 = times[n]
                raise DivergenceError(f"non-finite state at t = {t1}", time=t1)
            stack[n] = state
    states = tuple(DensityMatrix.unchecked(rho0.spec, m) for m in stack)
    trace_errors = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    # the states hold copies, so the stack becomes the Hermitian parts in place
    stack += stack.conj().transpose(0, 2, 1)
    stack *= 0.5
    return PropagationResult(
        times=times,
        states=states,
        trace_errors=trace_errors,
        min_eigenvalues=np.linalg.eigvalsh(stack)[:, 0],
        engine="exact" if exact else "rk4",
    )


def steady_state(
    generator: LindbladGenerator,
    rho0: DensityMatrix,
    *,
    tol: float = 1e-10,
    t_max: float = 1e4,
    block_steps: int = 256,
) -> DensityMatrix:
    """Propagate a time-independent generator until ||d(rho)/dt||_1 < tol.

    The fixed point can depend on the initial state when a decoupled sector
    exists; that is a property of the dynamics, not an error.  Raises
    ``ConvergenceError`` if the residual has not dropped below ``tol`` by
    ``t_max``.
    """
    if generator.is_time_dependent:
        raise ValueError("steady_state requires a time-independent generator")
    norm = generator.norm_estimate()
    h = 0.8 * STEP_GUARD / norm if norm > 0 else 1.0
    rho = np.array(rho0.matrix, dtype=complex)
    t = 0.0
    while t <= t_max:
        deriv = generator.apply(rho, t)
        deriv = 0.5 * (deriv + deriv.conj().T)
        residual = float(np.sum(np.abs(np.linalg.eigvalsh(deriv))))
        if residual < tol:
            return DensityMatrix.unchecked(rho0.spec, rho)
        for _ in range(block_steps):
            rho = _rk4_step(generator, rho, t, h)
            t += h
        if not np.all(np.isfinite(rho)):
            raise DivergenceError(f"non-finite state at t = {t}", time=t)
    raise ConvergenceError(
        f"residual {residual:.3e} still above {tol} at t = {t_max}"
    )
