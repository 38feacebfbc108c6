"""Seeded workloads: the configs each seed generates, the public entry point
each config drives, and the correctness gates that decide whether an
operation failed.

Every config of a workload has the same problem size (Hilbert-space
dimension, samples, kernel grid, sweep points); a seed draws only the
physical parameters, inside the ranges written below.  Operations are kept
short (a few tenths of a second) so that one run holds many of them: on a
shared machine the interference comes in bursts, and a run of many short
operations always has some that ran undisturbed.

Configs come in decks of ``DECK_SIZE``.  Within a deck each stratified
parameter takes each quarter of its range exactly once, in the fixed Latin
design ``_DESIGN``; the seed draws the position inside each quarter.  Decks
come in pairs whose second deck mirrors the first inside every quarter.
Parameters such as the rates set the RK4 substep count, so the per-config
cost spreads several-fold over a range; the strata keep the cost mix of a
run the same from seed to seed, so ``run_s`` tracks the code rather than
the draw.  Parameters that do not change the amount of work (the one-photon
angles, the sweep jitter) are drawn freely.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import shutil

import numpy as np

DECK_SIZE = 4

# Row p gives the stratum of stratified parameter p for configs 0..3 of a
# deck.  The rows form a Latin square, so no two parameters move in lockstep.
_DESIGN = ((0, 1, 2, 3), (2, 0, 3, 1), (1, 3, 0, 2), (3, 2, 1, 0))

_ANGLES = {"alpha": (0.0, math.pi), "phi": (0.0, 2.0 * math.pi)}

SWEEP_POINTS = 6
SWEEP_DELTA_K = (1e-3, 0.1)

# Gate tolerances (acceptance criteria 02 and 04; kernel oracle agreement
# and conservation bounds for the memory-kernel run).
MARKOV_DEVIATION_MAX = 1e-6
SWEEP_DEVIATION_MAX = 1e-7
KERNEL_ETA_MAX = 1e-9
KERNEL_TRACE_ERROR_MAX = 1e-8
KERNEL_MIN_EIGENVALUE = -1e-8
KERNEL_CHECK_STRIDE = 100


class Workload:
    """One benchmark workload: seeded configs, the operation, its gate."""

    name = ""
    tag = 0
    entry = "run_scenario"
    stratified = {}

    def config(self, values: dict, rng, seed: int) -> dict:
        raise NotImplementedError

    def gate(self, dfsim, cfg, result, out_dir) -> tuple[float, list]:
        """Return (oracle deviation, problems); no problems means a pass."""
        raise NotImplementedError

    def corrupt(self, result, out_dir, scratch_dir):
        """A deliberately wrong copy of a passing output, for the self-check."""
        raise NotImplementedError

    def mode_steps(self, cfg) -> int:
        return 0

    # -- config generation -------------------------------------------------

    def _rng(self, seed: int, stream: int):
        return np.random.default_rng((seed, self.tag, stream))

    def _deck(self, rng, positions, seed):
        names = list(self.stratified)
        deck = []
        for j in range(DECK_SIZE):
            values = {}
            for p, name in enumerate(names):
                lo, hi = self.stratified[name]
                u = (_DESIGN[p][j] + positions[j, p]) / DECK_SIZE
                values[name] = lo + (hi - lo) * float(u)
            deck.append(self.config(values, rng, seed))
        return deck

    def decks(self, seed: int, stream: int):
        """Endless decks of distinct configs; odd decks mirror the one before."""
        rng = self._rng(seed, stream)
        while True:
            positions = rng.random((DECK_SIZE, len(self.stratified)))
            yield self._deck(rng, positions, seed)
            yield self._deck(rng, 1.0 - positions, seed)

    def warmup_config(self, cfg) -> dict:
        """A cut-down copy of ``cfg`` that runs every code path of the workload
        in a fraction of the time, to fill lazy imports and caches."""
        small = copy.deepcopy(cfg)
        small["time"] = {"t_max": cfg["time"]["t_max"] / 10, "steps": 11}
        return small

    def spare_configs(self, seed: int, count: int) -> list:
        """Configs for warm-up and set-up samples, apart from the timed decks."""
        stream = self.decks(seed, stream=1)
        out = []
        while len(out) < count:
            out.extend(next(stream))
        return out[:count]

    # -- operation ---------------------------------------------------------

    @staticmethod
    def csv_digests(out_dir) -> dict:
        """sha256 of every CSV an operation wrote; equal inputs give equal bytes."""
        digests = {}
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    def run(self, dfsim, cfg, out_dir):
        # Looked up at call time so the traced run goes through its wrappers.
        entry = getattr(dfsim, self.entry)
        if self.entry == "run_sweep":
            return entry(cfg, out_dir, jobs=1)
        return entry(cfg, out_dir)


def _angles(rng) -> dict:
    return {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in _ANGLES.items()}


def _report_problems(dfsim, report) -> list:
    return [f"validate_report: {p}" for p in dfsim.validate_report(report)]


def _csv_rows(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def _timeseries_problems(cfg, out_dir) -> list:
    rows = _csv_rows(os.path.join(out_dir, "timeseries.csv"))
    steps = cfg["time"]["steps"]
    return [] if rows == steps else [f"timeseries.csv has {rows} rows, expected {steps}"]


class MarkovDense(Workload):
    """Constant generator at d = 49, where dense matmuls dominate.  The
    samples keep the spacing 0.02 over a horizon of 0.2."""

    name = "markov_dense"
    tag = 1
    stratified = {
        "k1": (0.3, 1.5),
        "k2": (0.3, 1.5),
        "nbar": (0.02, 0.1),
        "omega": (0.0, 2.0),
    }
    steps = 11
    t_max = 0.2

    def config(self, values, rng, seed):
        return {
            "model": "markovian_n",
            "params": {
                "rates": [values["k1"], values["k2"]],
                "omega": values["omega"],
                "nbar": values["nbar"],
                "max_excitation": 6,
            },
            "initial_state": _angles(rng),
            "time": {"t_max": self.t_max, "steps": self.steps},
            "outputs": [
                "survival",
                "collective_population",
                "weak_population",
                "fidelity_to_unitary",
                "purity",
            ],
            "seed": seed,
        }

    def gate(self, dfsim, cfg, report, out_dir):
        problems = _report_problems(dfsim, report)
        dev = report.get("analytic_numeric_max_deviation")
        if dev is None or not dev <= MARKOV_DEVIATION_MAX:
            problems.append(f"analytic deviation {dev} above {MARKOV_DEVIATION_MAX}")
        problems.extend(_timeseries_problems(cfg, out_dir))
        return (float("nan") if dev is None else float(dev)), problems

    def corrupt(self, report, out_dir, scratch_dir):
        bad = copy.deepcopy(report)
        bad["analytic_numeric_max_deviation"] = 10.0 * MARKOV_DEVIATION_MAX
        return bad, out_dir


class MemoryKernel(Workload):
    """Ohmic thermal bath at d = 9: the memory kernel does most of the work.
    The grid spacing is 5e-4 and the samples sit on every 100th grid point."""

    name = "memory_kernel"
    tag = 2
    stratified = {"amplitude": (0.01, 0.05), "beta": (2.0, 4.0)}
    kernel_points = 2001
    steps = 21
    t_max = 1.0
    omega = 1.0

    def warmup_config(self, cfg):
        small = super().warmup_config(cfg)
        small["params"]["kernel_points"] = (self.kernel_points - 1) // 10 + 1
        return small

    def config(self, values, rng, seed):
        return {
            "model": "nonmarkovian_two",
            "params": {
                "spectral_density": {
                    "type": "ohmic",
                    "amplitude": values["amplitude"],
                    "cutoff": 5.0,
                    "order": 400,
                },
                "omega": self.omega,
                "beta": values["beta"],
                "kernel_points": self.kernel_points,
                "max_excitation": 2,
            },
            "initial_state": _angles(rng),
            "time": {"t_max": self.t_max, "steps": self.steps},
            "outputs": ["survival", "collective_population", "purity"],
            "seed": seed,
        }

    def mode_steps(self, cfg) -> int:
        params = cfg["params"]
        order = params["spectral_density"]["order"]
        return order * (params["kernel_points"] - 1) * params.get("kernel_substeps", 1)

    @staticmethod
    def reference_eta(dfsim, cfg, times) -> np.ndarray:
        """eta(t) = e0^T exp(A t) e0 for the arrowhead matrix A of the Volterra
        ODE (collective amplitude plus one prefix integral per bath mode),
        evaluated by eigendecomposition instead of time stepping.

        A has -i omega, then -i w_k on its diagonal ("conjugate" kernel sign:
        bath phases rotate as exp(-i w_k s)), -g_k along its first row and 1
        down its first column.  With D = diag(1, sqrt(g_k)), D A D^-1 = -i H
        for the Hermitian arrowhead H (omega, w_k on the diagonal, i sqrt(g_k)
        down the first column), and D e0 = e0, so
        eta(t) = sum_j |v_0j|^2 exp(-i lambda_j t) over the eigenpairs of H.
        """
        params = cfg["params"]
        sd = dfsim.SpectralDensity.from_dict(params["spectral_density"])
        if np.any(sd.mode_weights < 0):
            raise ValueError("negative mode weight: the Hermitian form does not apply")
        size = 1 + sd.num_modes
        h = np.zeros((size, size), dtype=complex)
        h[0, 0] = float(params.get("omega", 1.0))
        h[np.arange(1, size), np.arange(1, size)] = sd.mode_frequencies
        h[1:, 0] = 1j * np.sqrt(sd.mode_weights)
        h[0, 1:] = np.conj(h[1:, 0])
        lam, vecs = np.linalg.eigh(h)
        return np.exp(-1j * np.outer(times, lam)) @ (np.abs(vecs[0, :]) ** 2)

    def gate(self, dfsim, cfg, report, out_dir):
        problems = _report_problems(dfsim, report)
        diag = report.get("diagnostics", {})
        if not diag.get("max_trace_error", math.inf) <= KERNEL_TRACE_ERROR_MAX:
            problems.append(f"max_trace_error {diag.get('max_trace_error')}")
        if not diag.get("min_eigenvalue", -math.inf) >= KERNEL_MIN_EIGENVALUE:
            problems.append(f"min_eigenvalue {diag.get('min_eigenvalue')}")
        problems.extend(_timeseries_problems(cfg, out_dir))
        table = np.loadtxt(
            os.path.join(out_dir, "kernel.csv"), delimiter=",", skiprows=1, usecols=(0, 1, 2)
        )
        if table.shape[0] != cfg["params"]["kernel_points"]:
            problems.append(f"kernel.csv has {table.shape[0]} rows")
            return float("nan"), problems
        sub = table[::KERNEL_CHECK_STRIDE]
        eta = sub[:, 1] + 1j * sub[:, 2]
        dev = float(np.max(np.abs(eta - self.reference_eta(dfsim, cfg, sub[:, 0]))))
        if not dev <= KERNEL_ETA_MAX:
            problems.append(f"kernel amplitude off the eigen-reference by {dev}")
        return dev, problems

    def corrupt(self, report, out_dir, scratch_dir):
        bad_dir = os.path.join(scratch_dir, "corrupt")
        shutil.copytree(out_dir, bad_dir)
        path = os.path.join(bad_dir, "kernel.csv")
        with open(path) as fh:
            lines = fh.read().split("\n")
        fields = lines[1 + KERNEL_CHECK_STRIDE].split(",")
        fields[1] = repr(float(fields[1]) + 1e-6)
        lines[1 + KERNEL_CHECK_STRIDE] = ",".join(fields)
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
        return report, bad_dir


class RateSweep(Workload):
    """6-point delta_k sweep at d = 4: many small runs, per-call overhead."""

    name = "rate_sweep"
    tag = 3
    entry = "run_sweep"
    stratified = {"k1": (0.5, 1.5), "k2": (0.5, 1.5), "delta_omega": (0.0, 0.02)}

    def config(self, values, rng, seed):
        lo, hi = (math.log10(v) for v in SWEEP_DELTA_K)
        cells = (np.arange(SWEEP_POINTS) + rng.random(SWEEP_POINTS)) / SWEEP_POINTS
        deltas = [float(10.0 ** (lo + (hi - lo) * c)) for c in cells]
        return {
            "model": "realistic_two",
            "params": {
                "k1": values["k1"],
                "k2": values["k2"],
                "delta_k": deltas[0],
                "delta_omega": values["delta_omega"],
                "omega": 0.0,
            },
            "initial_state": _angles(rng),
            "time": {"t_max": 1.0, "steps": 101},
            "outputs": ["survival", "weak_population", "strong_population"],
            "sweep": {"parameter": "params.delta_k", "values": deltas},
            "seed": seed,
        }

    def warmup_config(self, cfg):
        small = super().warmup_config(cfg)
        small["sweep"]["values"] = small["sweep"]["values"][:2]
        return small

    def gate(self, dfsim, cfg, result, out_dir):
        problems = []
        points = result.get("points", [])
        expected = len(cfg["sweep"]["values"])
        if result.get("count") != expected or len(points) != expected:
            problems.append(f"sweep returned {len(points)} points")
        devs = []
        for index, report in enumerate(points):
            problems.extend(f"point {index}: {p}" for p in dfsim.validate_report(report))
            dev = report.get("analytic_numeric_max_deviation")
            devs.append(math.inf if dev is None else float(dev))
            if not devs[-1] <= SWEEP_DEVIATION_MAX:
                problems.append(f"point {index}: deviation {dev} above {SWEEP_DEVIATION_MAX}")
        rows = _csv_rows(os.path.join(out_dir, "sweep_summary.csv"))
        if rows != expected:
            problems.append(f"sweep_summary.csv has {rows} rows")
        return (max(devs) if devs else float("nan")), problems

    def corrupt(self, result, out_dir, scratch_dir):
        bad = copy.deepcopy(result)
        bad["points"][-1]["analytic_numeric_max_deviation"] = 10.0 * SWEEP_DEVIATION_MAX
        return bad, out_dir


WORKLOADS = {w.name: w for w in (MarkovDense(), MemoryKernel(), RateSweep())}

