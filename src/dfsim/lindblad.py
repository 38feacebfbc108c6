"""Master-equation generators and a density-matrix propagator with two engines.

The generator acts as

    d(rho)/dt = -i [H + s(t) S, rho]
                + sum_ij gamma_ij(t) (2 L_i rho L_j^dag
                                      - L_j^dag L_i rho - rho L_j^dag L_i)

with a Hermitian coefficient block ``gamma``.  In this convention a single
damped mode with rate k loses population at 2k.  Everything is dense: the
spaces this package targets stay below a few hundred dimensions.

Both engines of ``propagate`` step on the same blocks.  Every generator
built here conserves k = N_ket - N_bra, the difference of total excitation
numbers on the two sides of rho (Buca & Prosen, New J. Phys. 14, 073007
(2012)), so its superoperator is block diagonal over k and only the blocks
on which rho(0) has support are needed; a generator that does not conserve
k is one block, the whole d^2-entry space.  A constant generator with no
option set is advanced exactly, each block by the path that costs fewer
matrix-vector products: ``exp(L_k dt)`` once per distinct sample interval
(Taylor scaling and squaring) and one product per sample, or the Taylor
series applied to the block's vector (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)).  Time-dependent generators, and every run with
``max_step``, ``richardson`` or ``renormalize``, take fixed-step RK4 by
block matrix-vector products.  Dense ``apply`` is left only for generators
whose blocks exceed ``EXACT_MAX_ENTRIES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coupling import RateModel, cauchy_schwarz_check
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
from .tableio import render_columns, write_text

STEP_GUARD = 0.1

# Budget of the exact engine: the blocks may hold at most this many complex
# entries in all (5.3 MB), the size of a whole d = 24 superoperator.  A
# one-photon input at d = 49 occupies one 231-entry block (53361 entries)
# where the whole superoperator would need 92 MB.
EXACT_MAX_ENTRIES = 24**4

# Intervals whose lengths agree to this relative tolerance share one
# propagator, so a linspace grid needs a single exponential.
_SPAN_RTOL = 1e-12

# Largest 1-norm of t a over one step of ``_expm_action``: rounding in the
# series grows like e^(2x) at x = ||t a||_1, so at most e^5 ~ 150 ulps.
_ACTION_STEP_NORM = 2.5


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
        object.__setattr__(self, "_jump_daggers", tuple(op.conj().T for op in jumps))

    @property
    def is_time_dependent(self) -> bool:
        return self.coefficient_schedule is not None

    def coefficients(self, t=0.0) -> tuple:
        """(shift, gamma) at time ``t``: a float and an m x m block, or for a
        1-D array of times an (n,) array and an (n, m, m) stack."""
        if self.coefficient_schedule is None:
            return 0.0, self.kossakowski
        lo, hi = self.time_span or (-math.inf, math.inf)
        times = np.asarray(t, dtype=float)
        outside = times[~((lo - 1e-12 <= times) & (times <= hi + 1e-12))]
        if outside.size:
            raise ValueError(f"time {outside[0]} outside the span {self.time_span}")
        return self.coefficient_schedule(t)

    def _at(self, t) -> tuple:
        """H + s(t) S and gamma(t)."""
        shift, gamma = self.coefficients(t)
        if shift != 0.0 and self.shift_operator is not None:
            return self.hamiltonian + shift * self.shift_operator, gamma
        return self.hamiltonian, gamma

    def _sink(self, gamma) -> tuple:
        """The nonzero (i, j, g_ij) and S = sum_ij g_ij L_j^dag L_i."""
        pairs = [(i, j, gamma[i, j]) for i, j in zip(*np.nonzero(gamma))]
        sink = np.zeros((self.spec.dim, self.spec.dim), dtype=complex)
        for i, j, g in pairs:
            sink += g * (self._jump_daggers[j] @ self.jump_operators[i])
        return pairs, sink

    def apply(self, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Right-hand side d(rho)/dt for a raw density matrix: K rho + rho J
        + sum_ij 2 g_ij L_i rho L_j^dag with K = -i H - S and J = i H - S."""
        ham, gamma = self._at(t)
        pairs, sink = self._sink(gamma)
        out = (-1j * ham - sink) @ rho + rho @ (1j * ham - sink)
        for i, j, g in pairs:
            out += (2.0 * g) * (self.jump_operators[i] @ rho @ self._jump_daggers[j])
        return out

    def to_matrix(self, t: float = 0.0, indices=None) -> np.ndarray:
        """Dense superoperator on row-major vectorized density matrices,

            kron(K, I) + kron(I, J^T) + sum_ij 2 g_ij kron(L_i, conj(L_j)),

        with the sink S = sum_ij g_ij L_j^dag L_i folded into K = -i H - S
        (acting from the left) and J = i H - S (acting from the right).

        With ``indices`` (positions in ``rho.reshape(-1)``) only the block on
        those entries is built, without forming the d^4 matrix: entry
        (s, s') of kron(A, B) is A[r, r'] B[c, c'] with (r, c) = divmod(s, d).
        """
        return self._assemble(*self._at(t), indices)

    def _assemble(self, ham, gamma, indices=None) -> np.ndarray:
        """``to_matrix`` with Hamiltonian ``ham`` and coefficients ``gamma``."""
        dim = self.spec.dim
        if indices is None:
            indices = np.arange(dim * dim)
        rows, cols = np.divmod(np.asarray(indices), dim)
        row_block, col_block = np.ix_(rows, rows), np.ix_(cols, cols)

        def kron(a, b):
            return a[row_block] * b[col_block]

        eye = np.eye(dim)
        pairs, sink = self._sink(gamma)
        lio = kron(-1j * ham - sink, eye)
        lio += kron(eye, (1j * ham - sink).T)
        for i, j, g in pairs:
            lio += (2.0 * g) * kron(self.jump_operators[i], self._jump_daggers[j].T)
        return lio

    def norm_estimate(self) -> float:
        """Upper estimate of the superoperator spectral norm, for step control."""

        def spectral(op):
            return float(np.linalg.norm(op, 2))

        if self.coefficient_schedule is None:
            samples = [(0.0, self.kossakowski)]
        else:
            t0, t1 = self.time_span if self.time_span else (0.0, 1.0)
            samples = zip(*self.coefficients(np.linspace(t0, t1, 33)))
        jump_norms = [spectral(op) for op in self.jump_operators]
        shift_norm = spectral(self.shift_operator) if self.shift_operator is not None else 0.0
        ham_norm = spectral(self.hamiltonian)
        worst = 0.0
        for shift, gamma in samples:
            total = 2.0 * (ham_norm + abs(shift) * shift_norm)
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
    model: RateModel,
    spec: TruncationSpec,
    *,
    omega: Optional[float] = None,
    nbar: Optional[float] = None,
) -> LindbladGenerator:
    """Born-Markov generator: free rotation at the common frequency ``omega``
    (required) plus damping of the collective mode sqrt(k_i) at the total
    rate sum(k_i)."""
    if not isinstance(model, RateModel):
        raise TypeError(f"unsupported model type {type(model)!r}")
    if model.num_oscillators != spec.num_modes:
        raise ValueError("rate count must match the number of modes")
    if omega is None:
        raise ValueError("omega is required with a RateModel")
    weights = np.sqrt(np.asarray(model.rates, dtype=float))
    if np.all(weights == 0):
        raise ValueError("at least one rate must be positive")
    total = model.total_rate
    nbar = model.thermal_occupation if nbar is None else float(nbar)
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
            raise ValueError("collective_direction is required for more than one mode")
        collective_direction = [1.0]
    lowering = _collective_lowering(spec, collective_direction)
    raising = lowering.conj().T
    ham = _free_hamiltonian(spec, [sol.omega] * spec.num_modes)
    shift_op = raising @ lowering
    times = np.asarray(sol.times, dtype=float)
    damping = np.asarray(sol.damping, dtype=float)
    shift = np.asarray(sol.frequency_shift, dtype=float)
    injection = np.zeros_like(damping)
    if sol.injection_rate is not None:
        injection = np.asarray(sol.injection_rate, dtype=float)

    def schedule(t):
        # a float gives (shift, gamma); an array of n times (shift[n], gamma[n])
        lam = np.interp(t, times, damping)
        eps = np.interp(t, times, injection)
        gamma = np.zeros(np.shape(t) + (2, 2), dtype=complex)
        gamma[..., 0, 0] = lam + eps
        gamma[..., 1, 1] = eps
        det = np.interp(t, times, shift)
        return (float(det), gamma) if np.ndim(t) == 0 else (det, gamma)

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
    ``"rk4"``.  ``sector_sizes`` gives the sizes of the blocks it advanced,
    largest first; it is empty when RK4 fell back to dense ``apply``.
    """

    times: np.ndarray
    states: tuple
    trace_errors: np.ndarray
    min_eigenvalues: np.ndarray
    engine: str
    sector_sizes: tuple = ()

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
        return render_columns(header, columns)

    def write_csv(self, path, observables: Optional[dict] = None):
        write_text(path, self.to_csv_text(observables))


def _taylor_degree(x: float) -> int:
    """Smallest degree m with x^(m+1)/(m+1)! e^(2x) <= 2^-53.

    The Taylor polynomial of degree m then gives exp(a) for ||a||_1 <= x to
    double precision relative to ||exp(a)|| >= e^-x.  x must be finite: the
    loop would not end for x = inf.
    """
    if not math.isfinite(x):
        raise ValueError(f"Taylor degree of a non-finite norm {x}")
    tol = 2.0**-53 * math.exp(-2.0 * x)
    degree, remainder = 0, x  # remainder = x^(m+1) / (m+1)! at degree m
    while remainder > tol:
        degree += 1
        remainder *= x / (degree + 1)
    return degree


def _expm_plan(x: float) -> tuple:
    """(squarings, degree) of ``_expm`` for a matrix of 1-norm x: halve
    until the norm is at most 1, then the Taylor degree there."""
    squarings = max(0, math.ceil(math.log2(x))) if x > 0 else 0
    return squarings, _taylor_degree(x / 2.0**squarings)


def _action_plan(x: float) -> tuple:
    """(steps, degree) of ``_expm_action`` for a matrix of 1-norm x.

    The series terms of one step can reach e^(x/s) ||v|| while its result
    may be as small as e^(-x/s) ||v||, so rounding grows like e^(2x/s);
    steps are capped at x/s <= ``_ACTION_STEP_NORM``.  Below the cap s * m
    falls as x/s grows, so the fewest such steps (nearly) minimise it.
    """
    steps = max(1, math.ceil(x / _ACTION_STEP_NORM))
    return steps, _taylor_degree(x / steps)


def _expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t a) by scaling and squaring with a Taylor series (Moler & Van
    Loan, SIAM Rev. 45, 3 (2003)).

    t a is halved s times until its 1-norm x is at most 1, the series is cut
    at ``_taylor_degree(x)`` and summed by Horner's rule, and the result is
    squared s times.  Besides the input it holds three arrays of its size.
    A non-finite norm gives a NaN matrix.
    """
    norm = float(np.linalg.norm(a, 1)) * t
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=complex)
    squarings, degree = _expm_plan(norm)
    scaled = a * (t / 2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    work = np.empty_like(out)
    for j in range(degree, 0, -1):
        np.matmul(scaled, out, out=work)
        work /= j
        work.flat[:: a.shape[0] + 1] += 1.0
        out, work = work, out
    for _ in range(squarings):
        np.matmul(out, out, out=work)
        out, work = work, out
    return out


def _expm_action(a: np.ndarray, v: np.ndarray, t: float = 1.0, norm=None) -> np.ndarray:
    """exp(t a) @ v without forming exp(t a) (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)): s steps of the Taylor series to degree m
    (``_action_plan``), s m matrix-vector products.  ``norm`` is ||a||_1 if
    the caller has it.  A non-finite ||t a||_1 gives a NaN vector.
    """
    if norm is None:
        norm = float(np.linalg.norm(a, 1))
    x = norm * t
    if not math.isfinite(x):
        return np.full(v.shape, np.nan, dtype=complex)
    steps, degree = _action_plan(x)
    h = t / steps
    for _ in range(steps):
        term, v = v, v.copy()
        for j in range(1, degree + 1):
            term = a @ term
            term *= h / j
            v += term
    return v


def _charge(op: np.ndarray, number: np.ndarray) -> Optional[int]:
    """The fixed change of total excitation number that ``op`` makes, or
    None when its entries make more than one."""
    rows, cols = np.nonzero(op)
    steps = np.unique(number[rows] - number[cols])
    if steps.size > 1:
        return None
    return int(steps[0]) if steps.size else 0


def _sectors(generator: LindbladGenerator, rho: np.ndarray, pattern=None) -> list:
    """Index groups of ``rho.reshape(-1)`` that the generator never mixes.

    k = N_ket - N_bra is conserved when the Hamiltonian and the shift
    operator keep the total excitation number, every jump changes it by a
    fixed q_i, and every coefficient in ``pattern`` (the (i, j) that are
    ever nonzero) pairs jumps with q_i = q_j.  The default pattern is the
    nonzero Kossakowski entries of a constant generator and every pair of a
    time-dependent one.  Then each k with support in ``rho`` is one group;
    otherwise the whole space is.
    """
    if pattern is None:
        pattern = generator.kossakowski != 0
        if generator.is_time_dependent:
            pattern = np.ones_like(pattern)
    number = generator.spec.occupations().sum(axis=1)
    charges = [_charge(op, number) for op in generator.jump_operators]
    conserves = (
        _charge(generator.hamiltonian, number) == 0
        and (
            generator.shift_operator is None
            or _charge(generator.shift_operator, number) == 0
        )
        and None not in charges
        and all(charges[i] == charges[j] for i, j in zip(*np.nonzero(pattern)))
    )
    if not conserves:
        return [np.arange(rho.size)]
    k = (number[:, None] - number[None, :]).reshape(-1)
    occupied = np.unique(k[rho.reshape(-1) != 0])
    return [np.flatnonzero(k == value) for value in occupied]


def _uses_action(norm: float, size: int, lengths, counts) -> bool:
    """Whether a block of 1-norm ``norm`` and ``size`` entries is cheaper to
    advance by ``_expm_action`` than by one ``_expm`` per distinct interval
    length, counted in matrix-vector products: s m per interval against
    (degree + squarings) n per length.  Blocks with a non-finite norm take
    ``_expm``, which turns them into NaN without a degree loop."""
    spans = [norm * length for length in lengths]
    if not all(math.isfinite(x) for x in spans):
        return False
    action = sum(c * math.prod(_action_plan(x)) for c, x in zip(counts, spans))
    powers = sum(sum(_expm_plan(x)) for x in spans) * size
    return action < powers


def _exact_samples(blocks, rho, times):
    """Yield the state at each later sample time, advancing each block of
    a constant generator's ``_Blocks`` by the path ``_uses_action`` picks."""
    spans = np.diff(times)
    lengths, which = [], []  # distinct lengths; each interval's index into them
    for span in spans:
        for k, length in enumerate(lengths):
            if abs(span - length) <= _SPAN_RTOL * length:
                break
        else:
            k = len(lengths)
            lengths.append(span)
        which.append(k)
    counts = np.bincount(which)
    parts = np.split(blocks.pack(rho), blocks.bounds)
    norms = [float(np.linalg.norm(block, 1)) for block in blocks.stacks]
    action = [_uses_action(x, len(b), lengths, counts) for x, b in zip(norms, blocks.stacks)]
    known = [{} for _ in parts]  # per block: length index -> propagator
    for span, k in zip(spans, which):
        for n, block in enumerate(blocks.stacks):
            if action[n]:
                parts[n] = _expm_action(block, parts[n], span, norms[n])
            else:
                if k not in known[n]:
                    known[n][k] = _expm(block, lengths[k])
                parts[n] = known[n][k] @ parts[n]
        yield blocks.unpack(np.concatenate(parts))


class _Dense:
    """Dense ``apply`` on the d x d state, for blocks over the budget."""

    sizes = ()
    pack = unpack = staticmethod(lambda rho: rho)

    def __init__(self, generator):
        self.rhs = generator.apply


class _Blocks:
    """The generator on the k-blocks of one state; the state is their entries of
    ``rho.reshape(-1)``, concatenated.  Each block stacks its components into a
    c x n x n array, so a stage of L(t) = sum_c w_c(t) L_c is one batched product."""

    def __init__(self, generator, sectors, parts):
        self.dim = generator.spec.dim
        self.index = np.concatenate(sectors)
        self.bounds = np.cumsum([s.size for s in sectors])[:-1]
        self.weighted = weighted = len(parts) > 1
        blocks = [[generator._assemble(*p, s) for p in parts] for s in sectors]
        self.stacks = [np.array(b) if weighted else b[0] for b in blocks]  # one copy at most
        self.sizes = tuple(sorted((s.size for s in sectors), reverse=True))
        if len(sectors) == 1:  # the common case, with the least overhead per stage
            (stack,) = self.stacks  # the closure must not hold self: no reference cycle
            self.rhs = lambda v, w: w @ (stack @ v) if weighted else stack @ v

    def rhs(self, v, weights):
        out = [stack @ part for stack, part in zip(self.stacks, np.split(v, self.bounds))]
        return np.concatenate([weights @ p for p in out] if self.weighted else out)

    def pack(self, rho):
        return rho.reshape(-1)[self.index]

    def unpack(self, v):
        full = np.zeros(self.dim**2, dtype=complex)
        full[self.index] = v
        return full.reshape(self.dim, self.dim)


def _system(generator, rho, steps):
    """``_Blocks`` for ``rho`` (``_Dense`` over the budget), and ``steps`` with
    the system's stage arguments.  L(t) = sum_c w_c(t) L_c over the fixed part
    (H, and the Kossakowski block of a constant generator), the shift commutator
    and one dissipator per (i, j) nonzero at some stage time, weighted by one
    schedule call over all stage times, whose pattern decides the k-blocks.
    A constant generator, like dense ``apply``, takes the stage times."""
    parts, pattern = [(generator.hamiltonian, generator.kossakowski)], None
    if generator.is_time_dependent:
        steps = list(steps)
        times = np.array([stage for _, _, stage in steps], dtype=float)
        shifts, gammas = generator.coefficients(times.reshape(-1))
        pattern = np.any(gammas != 0, axis=0)
        zero = np.zeros_like(generator.kossakowski)
        units = np.eye(zero.size).reshape(zero.shape * 2)  # units[i, j] is 1 at (i, j)
        parts = [(generator.hamiltonian, zero)]
        parts += [(0 * generator.hamiltonian, unit) for unit in units[pattern]]
        columns = [np.ones_like(shifts), *gammas[:, pattern].T]
        if generator.shift_operator is not None and np.any(shifts != 0):
            parts.append((generator.shift_operator, zero))
            columns.append(shifts)
    sectors = _sectors(generator, rho, pattern)
    if len(parts) * sum(s.size**2 for s in sectors) > EXACT_MAX_ENTRIES:
        return _Dense(generator), steps
    if generator.is_time_dependent:
        weights = np.stack(columns, axis=-1).reshape(times.shape + (len(parts),))
        steps = ((h, last, w) for (h, last, _), w in zip(steps, weights))
    return _Blocks(generator, sectors, parts), steps


def _rk4_steps(times, target, richardson):
    """Yield (h, last, stage times) per RK4 substep: each sample interval in
    equal substeps h <= ``target``, ``last`` on its final one, and (t,
    t + h/2, t + h) for one step of h or, with ``richardson``, for one of h
    and two of h/2."""
    for t, t1 in zip(times[:-1], times[1:]):
        span = t1 - t
        substeps = max(1, int(math.ceil(span / target - 1e-12)))
        h = span / substeps
        for n in range(substeps):
            steps = ((t, h), (t, 0.5 * h), (t + 0.5 * h, 0.5 * h)) if richardson else ((t, h),)
            yield h, n == substeps - 1, tuple((s, s + 0.5 * dt, s + dt) for s, dt in steps)
            t += h


def _rk4_step(rhs, v, h, args):
    a, b, c = args
    k1 = rhs(v, a)
    k2 = rhs(v + 0.5 * h * k1, b)
    k3 = rhs(v + 0.5 * h * k2, b)
    k4 = rhs(v + h * k3, c)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_samples(system, v, steps, richardson, renormalize):
    """Yield the d x d state at each later sample time (``v``, ``steps`` from ``_system``)."""
    for h, last, args in steps:
        if richardson:
            full = _rk4_step(system.rhs, v, h, args[0])
            half = _rk4_step(system.rhs, v, 0.5 * h, args[1])
            half = _rk4_step(system.rhs, half, 0.5 * h, args[2])
            v = (16.0 * half - full) / 15.0
        else:
            v = _rk4_step(system.rhs, v, h, args[0])
        if renormalize:
            v = v / np.trace(system.unpack(v)).real
        if last:
            yield system.unpack(v)


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

    * ``"exact"`` when no option is set, the generator is constant and its
      blocks (the sectors of k = N_ket - N_bra on which ``rho0`` has
      support, or the whole space when k is not conserved) hold at most
      ``EXACT_MAX_ENTRIES`` entries in all.  Each block L_k of n entries is
      built once and takes the Taylor action (s steps of degree m per
      interval, ||L_k dt||_1 / s <= 2.5) when the intervals' s m add up to
      less than (degree + squarings) n over the distinct interval lengths;
      otherwise ``exp(L_k dt)`` once per distinct length (1e-12 relative)
      and one matrix-vector product per sample.
    * ``"rk4"`` otherwise: fixed-step classical RK4 on the same blocks, the
      components of L(t) built once per call and weighted per stage by one
      schedule evaluation over all stage times, whose nonzero pattern
      decides the blocks; dense ``apply`` when they exceed the budget.  The
      step honors h * ||L|| < 0.1 with ``norm_estimate``; an explicit
      ``max_step`` that violates it raises ``StepSizeError``.  ``richardson``
      adds two half steps per step; ``renormalize`` rescales the trace after
      each step (off by default so trace drift stays visible).

    Both engines raise ``DivergenceError`` at the first non-finite sample and
    report the trace error and the smallest eigenvalue of the Hermitian part
    of every full d x d sample.  ``PropagationResult.sector_sizes`` lists the
    sizes of the advanced blocks, largest first (empty for dense ``apply``).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing grid")
    if rho0.spec != generator.spec:
        raise ValueError("initial state and generator live on different spaces")
    if max_step is not None and not max_step > 0:
        raise ValueError(f"max_step must be positive, got {max_step}")
    rho = np.array(rho0.matrix, dtype=complex)
    stack = np.empty((times.size,) + rho.shape, dtype=complex)
    stack[0] = rho
    with np.errstate(over="ignore", invalid="ignore"):
        options = max_step is not None or richardson or renormalize
        constant = not (options or generator.is_time_dependent)
        system = _system(generator, rho, ())[0] if constant else None
        exact = isinstance(system, _Blocks)
        if exact:
            stepper = _exact_samples(system, rho, times)
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
            system, steps = _system(generator, rho, _rk4_steps(times, target, richardson))
            stepper = _rk4_samples(system, system.pack(rho), steps, richardson, renormalize)
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
        sector_sizes=system.sizes,
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
    system, _ = _system(generator, rho, ())
    v = system.pack(rho)
    t = 0.0
    while t <= t_max:
        deriv = system.unpack(system.rhs(v, t))
        deriv = 0.5 * (deriv + deriv.conj().T)
        residual = float(np.sum(np.abs(np.linalg.eigvalsh(deriv))))
        if residual < tol:
            return DensityMatrix.unchecked(rho0.spec, system.unpack(v))
        for _ in range(block_steps):
            v = _rk4_step(system.rhs, v, h, (t, t + 0.5 * h, t + h))
            t += h
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"non-finite state at t = {t}", time=t)
    raise ConvergenceError(
        f"residual {residual:.3e} still above {tol} at t = {t_max}"
    )
