"""Outside-in tracing of dfsim: wraps public functions from the benchmark's
side, records one span per call, and turns the spans into per-layer numbers.

Only the traced process installs wrappers.  A function is wrapped at every
``dfsim`` module attribute that holds it (``dfsim.scenario.propagate`` and
``dfsim.lindblad.propagate`` alike), and a method once on its class, so each
call is seen whichever name it is reached through.  Targets that a later
version of the package no longer has are skipped; their metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np

# (defining module, attribute or Class.method, span name).  The layer of a
# span is the part of its name before the first dot.
TARGETS = (
    ("scenario", "run_scenario", "scenario.run_scenario"),
    ("scenario", "run_sweep", "scenario.run_sweep"),
    ("scenario", "validate_config", "scenario.validate"),
    ("scenario", "validate_report", "scenario.validate"),
    ("lindblad", "build_bm_generator", "lindblad.build"),
    ("lindblad", "build_realistic_generator", "lindblad.build"),
    ("lindblad", "build_time_dependent_generator", "lindblad.build"),
    ("lindblad", "propagate", "lindblad.propagate"),
    ("lindblad", "LindbladGenerator.apply", "lindblad.apply"),
    ("lindblad", "LindbladGenerator.norm_estimate", "lindblad.norm_estimate"),
    ("lindblad", "PropagationResult.write_csv", "tableio.write_csv"),
    ("lindblad", "PropagationResult.to_csv_text", "tableio.render"),
    ("propagator", "markov_coefficients", "propagator.markov_coefficients"),
    ("propagator", "apply_superoperator", "propagator.apply_superoperator"),
    ("propagator", "asymptotic_state", "propagator.asymptotic_state"),
    ("kernel", "solve_kernel", "kernel.solve_kernel"),
    ("kernel", "solve_amplitude", "kernel.solve_amplitude"),
    ("kernel", "extract_rates", "kernel.extract_rates"),
    ("kernel", "thermal_injection_rate", "kernel.thermal_injection_rate"),
    ("kernel", "quanta_gain", "kernel.quanta_gain"),
    ("kernel", "MemoryKernelSolution.write_csv", "tableio.write_csv"),
    ("kernel", "MemoryKernelSolution.to_csv_text", "tableio.render"),
    ("realistic", "one_photon_evolution", "realistic.one_photon_evolution"),
    ("realistic", "eigen_rates", "realistic.eigen_rates"),
    ("realistic", "fit_decay_rate", "realistic.fit_decay_rate"),
    ("realistic", "approximate_mode_split", "realistic.approximate_mode_split"),
    ("realistic", "OnePhotonSolution.state", "realistic.solution_state"),
    ("fock", "mode_population", "fock.mode_population"),
    ("fock", "one_photon_vector", "fock.one_photon_vector"),
    ("fock", "purity", "fock.purity_fidelity"),
    ("fock", "fidelity", "fock.purity_fidelity"),
    ("tableio", "render_csv", "tableio.render"),
    ("tableio", "write_text", "tableio.write_text"),
)

LAYERS = ("scenario", "lindblad", "propagator", "kernel", "realistic", "fock", "tableio")

_BUILDERS = "lindblad.build"
_WRITE = "tableio.write_text"


class Tracer:
    """Spans kept in flat arrays: name index, parent span, operation, start, end.

    Calls are recorded only while ``op_id`` names an operation.
    """

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self.op_id = -1
        self.generators = []
        self.bytes_written = 0
        self.installed = []

    def _wrap(self, fn, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_index[name]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:  # outside an operation: gates, norm checks
                return fn(*args, **kwargs)
            index = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op_id)
            tracer.ends.append(0.0)
            tracer._stack.append(index)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                tracer._stack.pop()
            if name == _BUILDERS:
                tracer.generators.append(result)
            elif name == _WRITE:
                tracer.bytes_written += len(args[1].encode())
            return result

        return wrapper

    def install(self):
        """Wrap every target at each place it is reachable from."""
        modules = [
            m for key, m in sys.modules.items() if key == "dfsim" or key.startswith("dfsim.")
        ]
        wrappers = {}
        for module_name, attr, name in TARGETS:
            owner = sys.modules.get(f"dfsim.{module_name}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                if cls is not None and method in vars(cls):
                    setattr(cls, method, self._wrap(vars(cls)[method], name))
                    self.installed.append(f"dfsim.{module_name}.{attr}")
                continue
            fn = getattr(owner, attr, None)
            if fn is not None and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self.installed.append(f"{module.__name__}.{key}")

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: calls, duration and self time (duration minus the
        time its direct child spans cover)."""
        starts = np.frombuffer(self.starts, dtype=float)
        ends = np.frombuffer(self.ends, dtype=float)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        durations = ends - starts
        child = np.zeros_like(durations)
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        own = durations - child
        out = {}
        for index, name in enumerate(self.names):
            mask = ids == index
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(durations[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        roots = durations[~nested]
        out["_roots"] = {"calls": int(roots.size), "s": float(roots.sum()), "self_s": 0.0}
        return out

    def write(self, path):
        spans = [
            [self.names[n], p, o, round(s, 9), round(e, 9)]
            for n, p, o, s, e in zip(self.name_ids, self.parents, self.ops, self.starts, self.ends)
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end"], "spans": spans}, fh)


def spectral_norm(matrix, iterations: int = 30) -> float:
    """Largest singular value by Lanczos on M^H M with full reorthogonalization.

    Exact once the Krylov space is the whole space; at d = 49 (n = 2401)
    20 steps already agree with a full SVD to 1e-10.
    """
    n = matrix.shape[1]
    k = min(n, iterations)
    rng = np.random.default_rng(0)
    basis = np.zeros((k + 1, n), dtype=complex)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis[0] = v / np.linalg.norm(v)
    alpha = np.zeros(k)
    beta = np.zeros(k)
    steps = k
    for j in range(k):
        w = matrix.conj().T @ (matrix @ basis[j])
        alpha[j] = np.vdot(basis[j], w).real
        w = w - basis[: j + 1].T @ (basis[: j + 1].conj() @ w)
        w = w - basis[: j + 1].T @ (basis[: j + 1].conj() @ w)
        beta[j] = np.linalg.norm(w)
        if beta[j] < 1e-12 * max(abs(alpha[j]), 1.0):
            steps = j + 1
            break
        basis[j + 1] = w / beta[j]
    tri = np.diag(alpha[:steps]) + np.diag(beta[: steps - 1], 1) + np.diag(beta[: steps - 1], -1)
    return float(np.sqrt(max(np.linalg.eigvalsh(tri)[-1], 0.0)))


def norm_ratio(generator) -> float:
    """norm_estimate() over the true spectral norm of to_matrix(); for a
    time-dependent generator the true norm is the largest over the same 33
    sample times the estimate takes its maximum over."""
    if generator.coefficient_schedule is None:
        true = spectral_norm(generator.to_matrix())
    else:
        t0, t1 = generator.time_span if generator.time_span else (0.0, 1.0)
        true = max(spectral_norm(generator.to_matrix(t)) for t in np.linspace(t0, t1, 33))
    return generator.norm_estimate() / true
