"""Config-driven scenario execution: builds a model, runs the numeric and
(where available) analytic paths, fits decay rates, and emits CSV time series
plus a JSON report.

Three models are supported:

* ``markovian_n``   - N degenerate oscillators, one damped collective mode;
* ``realistic_two`` - two detuned oscillators in one environment (zero T);
* ``nonmarkovian_two`` - two degenerate oscillators driven by a memory
  kernel solved from a spectral density.

Fitted rates are reported in the amplitude convention (half the fitted
population log-slope) so they compare directly with the predicted weak and
strong decoherence constants.
"""

from __future__ import annotations

import copy
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from . import realistic
from .coupling import (
    CouplingModel,
    DeviationParams,
    RateModel,
    predicted_rates,
    theta_from_rates,
    wd_sd_modes,
)
from .errors import ConfigError, ExceptionalPointError
from .fock import (
    DensityMatrix,
    ModeVector,
    TruncationSpec,
    dfs_state_builder,
    fidelity,
    fock_state,
    mode_population,
    one_photon_state,
    one_photon_vector,
    purity,
)
from .kernel import SPECTRAL_DENSITY_TYPES, SpectralDensity, solve_kernel
from .lindblad import (
    build_bm_generator,
    build_realistic_generator,
    build_time_dependent_generator,
    propagate,
)
from .propagator import (
    apply_superoperator,
    asymptotic_state,
    markov_coefficients,
)
from .tableio import render_csv, write_text

MODELS = ("markovian_n", "realistic_two", "nonmarkovian_two")

DEFAULT_MAX_EXCITATION = {"markovian_n": 3, "realistic_two": 1, "nonmarkovian_two": 2}

OBSERVABLE_NAMES = (
    "survival",
    "vacuum_population",
    "purity",
    "collective_population",
    "weak_population",
    "strong_population",
    "fidelity_to_initial",
    "fidelity_to_unitary",
    "mode1_population",
    "mode2_population",
)

_SUMMARY_SCALARS = (
    "weight_predicted",
    "weight_measured",
    "fitted_weak_rate",
    "predicted_weak_rate",
    "weak_rate_ratio",
    "fitted_strong_rate",
    "predicted_strong_rate",
    "fitted_collective_rate",
    "predicted_collective_rate",
)


# -- validation ---------------------------------------------------------------


def validate_config(cfg) -> list[str]:
    """Return a list of problems; empty means the config is runnable."""
    errors = []
    if not isinstance(cfg, dict):
        return ["config must be a JSON object"]
    model = cfg.get("model")
    if model not in MODELS:
        errors.append(f"model must be one of {MODELS}, got {model!r}")
    params = cfg.get("params")
    if not isinstance(params, dict):
        errors.append("params must be an object")
        params = {}
    init = cfg.get("initial_state")
    if not isinstance(init, dict):
        errors.append("initial_state must be an object")
    else:
        forms = [k for k in ("alpha", "occupations", "dfs_coeffs") if k in init]
        if len(forms) != 1:
            errors.append(
                "initial_state must use exactly one of alpha/phi, occupations, "
                f"dfs_coeffs (found {forms})"
            )
    tblock = cfg.get("time")
    if not isinstance(tblock, dict):
        errors.append("time must be an object with t_max and steps")
    else:
        if not (isinstance(tblock.get("t_max"), (int, float)) and tblock["t_max"] > 0):
            errors.append("time.t_max must be a positive number")
        steps = tblock.get("steps")
        if not (isinstance(steps, int) and steps >= 2):
            errors.append("time.steps must be an integer >= 2")
    outputs = cfg.get("outputs", [])
    if not isinstance(outputs, list):
        errors.append("outputs must be a list of observable names")
    else:
        for name in outputs:
            if name not in OBSERVABLE_NAMES:
                errors.append(f"unknown observable {name!r}")
    sweep = cfg.get("sweep")
    if sweep is not None:
        axes = sweep if isinstance(sweep, list) else [sweep]
        for axis in axes:
            if not isinstance(axis, dict) or "parameter" not in axis or "values" not in axis:
                errors.append("each sweep axis needs 'parameter' and 'values'")
            elif not isinstance(axis["values"], list) or not axis["values"]:
                errors.append("sweep values must be a non-empty list")
            elif not _path_exists(cfg, axis["parameter"]):
                errors.append(
                    f"sweep parameter {axis['parameter']!r} names no key of the config"
                )
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        errors.append("seed must be an integer")
    if model == "markovian_n" and isinstance(params, dict):
        rates = params.get("rates")
        if not (isinstance(rates, list) and rates and all(
            isinstance(k, (int, float)) and k >= 0 for k in rates
        )):
            errors.append("markovian_n params.rates must be a list of rates >= 0")
        if not isinstance(params.get("omega", 1.0), (int, float)):
            errors.append("params.omega must be a number")
    if model == "realistic_two" and isinstance(params, dict):
        for key in ("k1", "k2"):
            if not (isinstance(params.get(key), (int, float)) and params[key] > 0):
                errors.append(f"realistic_two params.{key} must be positive")
        if "k3" not in params and "delta_k" not in params:
            errors.append("realistic_two needs params.k3 or params.delta_k")
    if model == "nonmarkovian_two" and isinstance(params, dict):
        if "spectral_density" not in params and "coupling" not in params:
            errors.append("nonmarkovian_two needs params.spectral_density or params.coupling")
        density = params.get("spectral_density")
        if density is not None and not (
            isinstance(density, dict) and density.get("type") in SPECTRAL_DENSITY_TYPES
        ):
            errors.append(
                f"params.spectral_density.type must be one of {SPECTRAL_DENSITY_TYPES}"
            )
    if model in MODELS and isinstance(params, dict):
        max_exc = params.get("max_excitation", DEFAULT_MAX_EXCITATION[model])
        if not (_is_int(max_exc) and max_exc >= 1):
            errors.append("params.max_excitation must be an integer >= 1")
        elif isinstance(init, dict) and "occupations" in init:
            errors.extend(
                _occupation_errors(init["occupations"], _num_modes(model, params), max_exc)
            )
    return errors


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _num_modes(model, params) -> Optional[int]:
    if model != "markovian_n":
        return 2
    rates = params.get("rates")
    return len(rates) if isinstance(rates, list) else None


def _occupation_errors(occ, modes, max_exc) -> list[str]:
    if not (isinstance(occ, list) and all(_is_int(n) for n in occ)):
        return ["initial_state.occupations must be a list of integers"]
    if modes is not None and len(occ) != modes:
        return [f"initial_state.occupations needs {modes} entries, got {len(occ)}"]
    if any(n < 0 or n > max_exc for n in occ):
        return [f"initial_state.occupations {occ} outside [0, {max_exc}]"]
    return []


def _path_exists(cfg: dict, dotted) -> bool:
    if not isinstance(dotted, str):
        return False
    node = cfg
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"invalid JSON: {exc}"]) from exc
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_report(report) -> list[str]:
    errors = []
    if not isinstance(report, dict):
        return ["report must be an object"]
    if report.get("model") not in MODELS:
        errors.append("report.model missing or unknown")
    diag = report.get("diagnostics")
    if not isinstance(diag, dict):
        errors.append("report.diagnostics missing")
    else:
        for key in ("max_trace_error", "min_eigenvalue"):
            value = diag.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                errors.append(f"diagnostics.{key} must be finite")
    dev = report.get("analytic_numeric_max_deviation")
    if dev is not None and (not isinstance(dev, (int, float)) or not math.isfinite(dev)):
        errors.append("analytic_numeric_max_deviation must be finite or null")
    artifacts = report.get("artifacts") or {}
    for name, path in artifacts.items():
        if path is not None and not os.path.exists(path):
            errors.append(f"artifact {name} missing on disk: {path}")
    if not isinstance(report.get("wall_time_seconds"), (int, float)):
        errors.append("wall_time_seconds missing")
    return errors


# -- model construction -------------------------------------------------------


class _Run:
    """Everything one scenario execution produces, before serialization."""

    def __init__(self):
        self.times = None
        self.result = None
        self.observables = {}
        self.analytic_states = None
        self.analytic_deviation = None
        self.fitted = {}
        self.predicted = {}
        self.eigen = None
        self.mode_split = None
        self.asymptotic = None
        self.analytic_skipped_reason = None
        self.kernel_solution = None
        self.extras = {}


def _initial_state(cfg, spec, theta) -> tuple[DensityMatrix, Optional[tuple]]:
    """Build the initial state; returns (state, (alpha, phi) or None)."""
    init = cfg["initial_state"]
    if "alpha" in init:
        alpha = float(init["alpha"])
        phi = float(init.get("phi", 0.0))
        if spec.num_modes != 2:
            raise ConfigError(["alpha/phi initial states need exactly two modes"])
        return one_photon_state(ModeVector.from_angles(alpha, phi), spec), (alpha, phi)
    if "occupations" in init:
        occ = tuple(init["occupations"])
        state = fock_state(spec, occ)
        angles = None
        if spec.num_modes == 2 and sum(occ) == 1:
            angles = (0.0, 0.0) if occ == (1, 0) else (0.5 * math.pi, 0.0)
        return state, angles
    table = [
        [_as_complex(entry) for entry in row] for row in init["dfs_coeffs"]
    ]
    if theta is None:
        raise ConfigError(["dfs_coeffs initial states need a two-mode rate model"])
    return dfs_state_builder(np.array(table), theta, spec), None


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(float(value[0]), float(value[1]))
    return complex(float(value), 0.0)


def _observable_columns(names, states, ctx) -> dict:
    columns = {}
    spec = ctx["spec"]
    stack = np.array([s.matrix for s in states])
    populations = np.einsum("nii->ni", stack).real
    one_photon = spec.occupations().sum(axis=1) == 1
    vac_idx = spec.index_of((0,) * spec.num_modes)

    def mode_column(mode):
        psi = one_photon_vector(spec, mode)
        return np.einsum("i,nij,j->n", psi.conj(), stack, psi).real

    for name in names:
        if name == "survival":
            columns[name] = populations[:, one_photon].sum(axis=1)
        elif name == "vacuum_population":
            columns[name] = populations[:, vac_idx]
        elif name == "purity":
            columns[name] = np.array([purity(s) for s in states])
        elif name == "fidelity_to_initial":
            rho0 = ctx["rho0"]
            columns[name] = np.array([fidelity(rho0, s) for s in states])
        elif name == "fidelity_to_unitary":
            columns[name] = _fidelity_to_unitary(states, ctx)
        elif name == "collective_population":
            mode = ctx.get("collective_mode")
            if mode is None:
                raise ConfigError(["collective_population has no mode direction here"])
            columns[name] = mode_column(mode)
        elif name in ("weak_population", "strong_population"):
            key = "weak_mode" if name == "weak_population" else "strong_mode"
            mode = ctx.get(key)
            if mode is None:
                raise ConfigError([f"{name} requires a two-mode rate model"])
            columns[name] = mode_column(mode)
        elif name in ("mode1_population", "mode2_population"):
            idx = 0 if name == "mode1_population" else 1
            if spec.num_modes <= idx:
                raise ConfigError([f"{name} needs at least {idx + 1} modes"])
            amps = np.zeros(spec.num_modes)
            amps[idx] = 1.0
            columns[name] = mode_column(ModeVector(amps.astype(complex)))
        else:
            raise ConfigError([f"unknown observable {name!r}"])
    return columns


def _fidelity_to_unitary(states, ctx) -> np.ndarray:
    ham = ctx["hamiltonian"]
    if np.max(np.abs(ham - np.diag(np.diag(ham)))) > 1e-12:
        raise ConfigError(["fidelity_to_unitary needs a diagonal free Hamiltonian"])
    levels = np.real(np.diag(ham))
    rho0 = ctx["rho0"].matrix
    times = ctx["times"]
    out = np.empty(len(states))
    for i, state in enumerate(states):
        phases = np.exp(-1j * levels * times[i])
        image = (phases[:, None] * rho0) * phases.conj()[None, :]
        out[i] = float(np.real(np.trace(state.matrix @ image)))
    return out


def _fit_or_none(times, values, window) -> Optional[dict]:
    try:
        fit = realistic.fit_decay_rate(times, values, window)
    except ValueError:
        return None
    return {
        "rate": 0.5 * fit.rate,
        "population_rate": fit.rate,
        "r_squared": fit.r_squared,
        "points": fit.points,
        "window": [float(window[0]), float(window[1])],
    }


# -- per-model execution ------------------------------------------------------


def _execute_markovian(cfg) -> _Run:
    params = cfg["params"]
    rates = tuple(float(k) for k in params["rates"])
    omega = float(params.get("omega", 1.0))
    nbar = float(params.get("nbar", 0.0))
    max_exc = params.get("max_excitation", DEFAULT_MAX_EXCITATION["markovian_n"])
    spec = TruncationSpec(len(rates), max_exc)
    model = RateModel(rates, thermal_occupation=nbar)
    gen = build_bm_generator(model, spec, omega=omega)

    theta = None
    weak = strong = None
    if len(rates) == 2 and rates[0] > 0:
        theta = theta_from_rates(rates[0], rates[1])
        if rates[1] > 0:
            weak, strong = wd_sd_modes(rates[0], rates[1], 0.0)
    collective = ModeVector.from_amplitudes(np.sqrt(np.asarray(rates)))

    rho0, angles = _initial_state(cfg, spec, theta)
    tblock = cfg["time"]
    times = np.linspace(0.0, float(tblock["t_max"]), int(tblock["steps"]))
    run = _Run()
    run.times = times
    run.result = propagate(
        gen, rho0, times, max_step=_step_override(cfg, gen)
    )

    ctx = {
        "spec": spec,
        "rho0": rho0,
        "times": times,
        "hamiltonian": gen.hamiltonian,
        "collective_mode": collective,
        "weak_mode": weak,
        "strong_mode": strong,
    }
    names = cfg.get("outputs") or _default_outputs(cfg["model"], spec)
    run.observables = _observable_columns(names, run.result.states, ctx)

    total = model.total_rate
    run.predicted["collective"] = total
    window = cfg.get("fit", {}).get(
        "window", [2.0 / total, min(6.0 / total, times[-1])]
    ) if total > 0 else None
    if window and "collective_population" in run.observables:
        fit = _fit_or_none(times, run.observables["collective_population"], window)
        if fit:
            run.fitted["collective"] = fit

    if spec.num_modes == 2 and rates[0] > 0:
        coeff_list = [
            markov_coefficients(rates[0], rates[1], nbar, omega, t) for t in times
        ]
        analytic = [apply_superoperator(c, rho0) for c in coeff_list]
        run.analytic_states = analytic
        run.analytic_deviation = max(
            float(np.max(np.abs(a.matrix - b.matrix)))
            for a, b in zip(analytic, run.result.states)
        )
        if angles is not None and nbar == 0.0:
            limit = asymptotic_state(rates[0], rates[1], angles[0], angles[1])
            measured = mode_population(analytic[-1], limit.mode)
            run.asymptotic = {
                "weight_predicted": limit.weight,
                "fidelity_infinity_predicted": limit.fidelity_infinity,
                "weight_measured": measured,
                "fidelity_measured": fidelity(rho0, analytic[-1]),
            }
    return run


def _execute_realistic(cfg) -> _Run:
    params = cfg["params"]
    k1 = float(params["k1"])
    k2 = float(params["k2"])
    if "k3" in params:
        k3 = _as_complex(params["k3"])
    else:
        k3 = math.sqrt(k1 * k2) - float(params["delta_k"])
    if "omega1" in params or "omega2" in params:
        omega1 = float(params["omega1"])
        omega2 = float(params["omega2"])
    else:
        omega = float(params.get("omega", 1.0))
        split = float(params.get("delta_omega", 0.0))
        omega1, omega2 = omega - split, omega + split
    max_exc = params.get("max_excitation", DEFAULT_MAX_EXCITATION["realistic_two"])
    spec = TruncationSpec(2, max_exc)
    model = RateModel((k1, k2), cross_rate=k3)
    gen = build_realistic_generator(
        model, omega1, omega2, spec,
        allow_unphysical=bool(params.get("allow_unphysical", False)),
    )

    deviation = DeviationParams.from_model(model, omega1, omega2)
    weak, strong = wd_sd_modes(k1, k2, deviation.frequency_split)
    theta = theta_from_rates(k1, k2)
    rho0, angles = _initial_state(cfg, spec, theta)
    tblock = cfg["time"]
    times = np.linspace(0.0, float(tblock["t_max"]), int(tblock["steps"]))

    run = _Run()
    run.times = times
    run.result = propagate(gen, rho0, times, max_step=_step_override(cfg, gen))

    ctx = {
        "spec": spec,
        "rho0": rho0,
        "times": times,
        "hamiltonian": gen.hamiltonian,
        "collective_mode": strong,
        "weak_mode": weak,
        "strong_mode": strong,
    }
    names = cfg.get("outputs") or _default_outputs(cfg["model"], spec)
    run.observables = _observable_columns(names, run.result.states, ctx)

    pred = predicted_rates(k1, k2, deviation.rate_gap)
    run.predicted = {"weak": pred.weak, "strong": pred.strong}

    fit_cfg = cfg.get("fit", {})
    weak_window = fit_cfg.get(
        "window", [2.0 / pred.strong, min(6.0 / pred.strong, times[-1])]
    )
    strong_window = fit_cfg.get(
        "strong_window", [0.0, min(1.0 / pred.strong, times[-1])]
    )
    if "weak_population" in run.observables:
        fit = _fit_or_none(times, run.observables["weak_population"], weak_window)
        if fit:
            run.fitted["weak"] = fit
    if "strong_population" in run.observables:
        fit = _fit_or_none(times, run.observables["strong_population"], strong_window)
        if fit:
            run.fitted["strong"] = fit
    if "survival" in run.observables:
        fit = _fit_or_none(times, run.observables["survival"], weak_window)
        if fit:
            run.fitted["survival"] = fit

    # The closed forms divide by the eigenvalue splitting of the amplitude
    # generator; at an exceptional point they are skipped, not the run.
    try:
        rates_exact = realistic.eigen_rates(k1, k2, k3, omega1, omega2)
        if angles is not None:
            alpha, phi = angles
            sol = realistic.one_photon_evolution(
                k1, k2, k3, omega1, omega2, alpha, phi, times
            )
            mode_split = realistic.approximate_mode_split(
                k1, k2, deviation.rate_gap, deviation.frequency_split, alpha, phi
            )
    except ExceptionalPointError as exc:
        run.analytic_skipped_reason = str(exc)
        return run
    run.eigen = {"slow": rates_exact.slow, "fast": rates_exact.fast}
    if angles is not None:
        run.analytic_deviation = max(
            float(np.max(np.abs(sol.state(i, spec).matrix - run.result.states[i].matrix)))
            for i in range(len(times))
        )
        run.mode_split = mode_split.to_json_dict()
    return run


def _execute_nonmarkovian(cfg) -> _Run:
    params = cfg["params"]
    omega = float(params.get("omega", 1.0))
    beta = params.get("beta")
    beta = math.inf if beta is None else float(beta)
    direction = params.get("coupling_direction")
    if "coupling" in params:
        coupling = CouplingModel.from_dict(params["coupling"])
        sd = SpectralDensity.from_weights(
            coupling.bath_frequencies,
            np.abs(coupling.bath_mode_couplings()) ** 2,
        )
        omega = coupling.degenerate_frequency()
        if coupling.inverse_temperature != math.inf:
            beta = coupling.inverse_temperature
        if direction is None:
            direction = list(coupling.collective_weights())
    else:
        sd = SpectralDensity.from_dict(params["spectral_density"])
    if direction is None:
        direction = [1.0, 1.0]
    direction = np.asarray(direction, dtype=complex)

    tblock = cfg["time"]
    t_max = float(tblock["t_max"])
    steps = int(tblock["steps"])
    kernel_points = int(params.get("kernel_points", 10001))
    kernel_grid = np.linspace(0.0, t_max, kernel_points)
    solution = solve_kernel(
        sd,
        omega,
        kernel_grid,
        beta=beta,
        kernel_sign=params.get("kernel_sign", "conjugate"),
        substeps=int(params.get("kernel_substeps", 1)),
    )

    max_exc = params.get("max_excitation", DEFAULT_MAX_EXCITATION["nonmarkovian_two"])
    spec = TruncationSpec(2, max_exc)
    gen = build_time_dependent_generator(
        solution, spec, collective_direction=direction
    )
    collective = ModeVector.from_amplitudes(direction)
    theta = float(np.arctan2(abs(direction[1]), abs(direction[0])))
    rho0, _ = _initial_state(cfg, spec, theta)

    times = np.linspace(0.0, t_max, steps)
    run = _Run()
    run.times = times
    run.kernel_solution = solution
    run.result = propagate(gen, rho0, times, max_step=_step_override(cfg, gen))
    ctx = {
        "spec": spec,
        "rho0": rho0,
        "times": times,
        "hamiltonian": gen.hamiltonian,
        "collective_mode": collective,
    }
    names = cfg.get("outputs") or _default_outputs(cfg["model"], spec)
    run.observables = _observable_columns(names, run.result.states, ctx)
    run.extras["kernel_final_damping"] = float(solution.damping[-1])
    return run


def _default_outputs(model, spec) -> list[str]:
    if model == "markovian_n":
        names = ["survival", "collective_population", "fidelity_to_unitary"]
        if spec.num_modes == 2:
            names.append("weak_population")
        return names
    if model == "realistic_two":
        return ["survival", "weak_population", "strong_population", "vacuum_population"]
    return ["survival", "collective_population"]


def _step_override(cfg, gen) -> Optional[float]:
    value = cfg.get("time", {}).get("max_step")
    return float(value) if value is not None else None


_EXECUTORS = {
    "markovian_n": _execute_markovian,
    "realistic_two": _execute_realistic,
    "nonmarkovian_two": _execute_nonmarkovian,
}


# -- public entry points ------------------------------------------------------


def run_scenario(cfg, out_dir: Optional[str] = None) -> dict:
    """Execute one scenario; write artifacts when ``out_dir`` is given.

    Outputs are deterministic for a fixed config: identical CSV bytes across
    runs on one platform.
    """
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    start = time.perf_counter()
    run = _EXECUTORS[cfg["model"]](cfg)
    report = _assemble_report(cfg, run, time.perf_counter() - start)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        series_path = os.path.join(out_dir, "timeseries.csv")
        run.result.write_csv(series_path, run.observables)
        report["artifacts"]["timeseries_csv"] = series_path
        if run.kernel_solution is not None:
            kernel_path = os.path.join(out_dir, "kernel.csv")
            run.kernel_solution.write_csv(kernel_path)
            report["artifacts"]["kernel_csv"] = kernel_path
        problems = validate_report(report)
        if problems:
            raise ConfigError([f"report failed validation: {p}" for p in problems])
        report_path = os.path.join(out_dir, "report.json")
        report["artifacts"]["report_json"] = report_path
        write_text(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        problems = validate_report(report)
        if problems:
            raise ConfigError([f"report failed validation: {p}" for p in problems])
    return report


def _assemble_report(cfg, run: _Run, elapsed: float) -> dict:
    diag = {
        "engine": run.result.engine,
        "max_trace_error": float(np.max(run.result.trace_errors)),
        "min_eigenvalue": float(np.min(run.result.min_eigenvalues)),
    }
    if "fidelity_to_unitary" in run.observables:
        diag["fidelity_to_unitary_min"] = float(
            np.min(run.observables["fidelity_to_unitary"])
        )
    report = {
        "scenario": copy.deepcopy(cfg),
        "model": cfg["model"],
        "fitted_rates": run.fitted,
        "predicted_rates": run.predicted,
        "analytic_numeric_max_deviation": run.analytic_deviation,
        "asymptotic": run.asymptotic,
        "diagnostics": diag,
        "wall_time_seconds": float(elapsed),
        "artifacts": {},
    }
    if run.eigen is not None:
        report["eigen_rates"] = run.eigen
    if run.mode_split is not None:
        report["mode_split"] = run.mode_split
    if run.analytic_skipped_reason is not None:
        report["analytic_skipped_reason"] = run.analytic_skipped_reason
        report["eigen_rates"] = None
        report["mode_split"] = None
    if run.extras:
        report["extras"] = run.extras
    return report


def _set_path(cfg: dict, dotted: str, value):
    """Replace the value at an existing dotted path (``validate_config``
    rejects sweeps over paths the config does not have)."""
    *parents, last = dotted.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value


def run_sweep(
    cfg,
    out_dir: Optional[str] = None,
    *,
    jobs: int = 1,
    cap: int = 10000,
) -> dict:
    """Run the config once per sweep grid point; summary rows keep grid order
    regardless of execution order.  An absent or empty sweep degenerates to a
    single ``run_scenario`` call.
    """
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    sweep = cfg.get("sweep")
    axes = sweep if isinstance(sweep, list) else ([sweep] if sweep else [])
    if not axes:
        report = run_scenario(cfg, out_dir)
        return {"points": [report], "count": 1, "parameters": []}

    names = [axis["parameter"] for axis in axes]
    grids = [axis["values"] for axis in axes]
    total = 1
    for values in grids:
        total *= len(values)
    if total > cap:
        raise ConfigError([f"sweep grid has {total} points, cap is {cap}"])

    combos = [()]
    for values in grids:
        combos = [prev + (v,) for prev in combos for v in values]

    base = copy.deepcopy(cfg)
    base.pop("sweep", None)

    def run_point(combo):
        point_cfg = copy.deepcopy(base)
        for name, value in zip(names, combo):
            _set_path(point_cfg, name, value)
        return run_scenario(point_cfg, out_dir=None)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run_point, combos))
    else:
        reports = [run_point(combo) for combo in combos]

    rows = []
    for index, (combo, report) in enumerate(zip(combos, reports)):
        row = [index, *combo]
        row.extend(_summary_scalars(report))
        rows.append(row)
    header = ["index", *names, *_SUMMARY_SCALARS]

    out = {
        "points": reports,
        "count": total,
        "parameters": names,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        summary_path = os.path.join(out_dir, "sweep_summary.csv")
        write_text(summary_path, render_csv(header, rows))
        reports_path = os.path.join(out_dir, "sweep_reports.json")
        write_text(
            reports_path, json.dumps(reports, indent=2, sort_keys=True) + "\n"
        )
        out["summary_csv"] = summary_path
        out["reports_json"] = reports_path
    return out


def _summary_scalars(report) -> list:
    nan = float("nan")
    asym = report.get("asymptotic") or {}
    fitted = report.get("fitted_rates") or {}
    predicted = report.get("predicted_rates") or {}

    def fit_rate(kind):
        entry = fitted.get(kind)
        return entry["rate"] if entry else nan

    fitted_weak = fit_rate("weak")
    predicted_weak = predicted.get("weak", nan)
    ratio = (
        fitted_weak / predicted_weak
        if math.isfinite(fitted_weak)
        and isinstance(predicted_weak, float)
        and predicted_weak > 0
        else nan
    )
    return [
        asym.get("weight_predicted", nan),
        asym.get("weight_measured", nan),
        fitted_weak,
        predicted_weak,
        ratio,
        fit_rate("strong"),
        predicted.get("strong", nan),
        fit_rate("collective"),
        predicted.get("collective", nan),
    ]
