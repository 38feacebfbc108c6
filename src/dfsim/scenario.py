"""Config-driven scenario execution: builds a model, runs the numeric and
(where available) analytic paths, fits decay rates, and emits CSV time series
plus a JSON report.

Three models are supported:

* ``markovian_n``   - N degenerate oscillators, one damped collective mode;
* ``realistic_two`` - two detuned oscillators in one environment (zero T);
* ``nonmarkovian_two`` - two degenerate oscillators driven by a memory
  kernel solved from a spectral density.

Every model runs through one pipeline (``run_scenario``); what differs
between them is one ``_MODELS`` entry.  Fitted rates are reported in the
amplitude convention (half the fitted population log-slope) so they compare
directly with the predicted weak and strong decoherence constants.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import realistic
from .coupling import (
    CouplingModel,
    DeviationParams,
    RateModel,
    _parse_complex,
    predicted_rates,
    theta_from_rates,
    wd_sd_modes,
)
from .errors import ConfigError, ExceptionalPointError, UnphysicalRatesError
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
from .kernel import (
    KERNEL_SIGNS, SpectralDensity, _is_number, solve_kernel, spectral_density_errors,
)
from .lindblad import (
    build_bm_generator,
    build_realistic_generator,
    build_time_dependent_generator,
    propagate,
)
from .propagator import apply_superoperator, asymptotic_state, markov_coefficients
from .tableio import render_csv, write_text

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_at_least(low):
    return lambda value: _is_int(value) and value >= low


def _pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


def _square_table(value) -> bool:
    return isinstance(value, list) and bool(value) and all(
        isinstance(row, list) and len(row) == len(value) and all(map(_COMPLEX[0], row))
        for row in value
    )


def _rates(value) -> bool:
    return (
        isinstance(value, list)
        and all(_is_number(k) and k >= 0 for k in value)
        and any(k > 0 for k in value)
    )


def _direction(value) -> bool:
    # the mode vector is normalized by the root of the summed squares
    return _pair(value) and 0 < value[0] * value[0] + value[1] * value[1] < math.inf


def _coupling(value) -> bool:
    try:
        _read_coupling(value)
    except (KeyError, TypeError, ValueError):
        return False
    return True


_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_COMPLEX = (lambda v: _is_number(v) or _pair(v), "a number or an [re, im] pair")
_MAX_EXCITATION = (_int_at_least(1), "an integer >= 1")
_WINDOW = (lambda v: _pair(v) and v[0] < v[1], "a [start, end] pair with start < end")

_TIME_RULES = {
    "t_max": _POSITIVE,
    "steps": (_int_at_least(2), "an integer >= 2"),
    "max_step": _POSITIVE,
}
_INITIAL_STATE_RULES = {
    "alpha": _NUMBER,
    "phi": _NUMBER,
    "dfs_coeffs": (_square_table, "a square matrix of numbers or [re, im] pairs"),
}
_FIT_RULES = {"window": _WINDOW, "strong_window": _WINDOW}
_REQUIRED = {"time.t_max", "time.steps", "params.rates", "params.k1", "params.k2"}


def _check_block(errors, name, block, rules) -> bool:
    """Check each key of ``block`` against its (predicate, description) rule;
    False when the block is not an object."""
    if not isinstance(block, dict):
        errors.append(f"{name} must be an object")
        return False
    for key, (ok, rule) in rules.items():
        present = key in block
        if (present and not ok(block[key])) or (not present and f"{name}.{key}" in _REQUIRED):
            errors.append(f"{name}.{key} must be {rule}")
    return True


def validate_config(cfg) -> list[str]:
    """Return a list of problems; empty means the config is runnable."""
    if not isinstance(cfg, dict):
        return ["config must be a JSON object"]
    errors = []
    model = cfg.get("model")
    entry = _MODELS.get(model) if isinstance(model, str) else None
    if entry is None:
        errors.append(f"model must be one of {tuple(_MODELS)}, got {model!r}")
    params = cfg.get("params")
    if not _check_block(errors, "params", params, entry.params if entry else {}):
        params = {}
    init = cfg.get("initial_state")
    if not _check_block(errors, "initial_state", init, _INITIAL_STATE_RULES):
        init = {}
    else:
        forms = [k for k in ("alpha", "occupations", "dfs_coeffs") if k in init]
        if len(forms) != 1:
            errors.append(
                "initial_state must use exactly one of alpha/phi, occupations, "
                f"dfs_coeffs (found {forms})"
            )
    _check_block(errors, "time", cfg.get("time"), _TIME_RULES)
    _check_block(errors, "fit", cfg.get("fit", {}), _FIT_RULES)
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
    if model == "realistic_two":
        if ("k3" in params) == ("delta_k" in params):
            errors.append("realistic_two needs exactly one of params.k3 and params.delta_k")
        if ("omega1" in params) != ("omega2" in params):
            errors.append("realistic_two needs params.omega1 and params.omega2 together")
    if model == "nonmarkovian_two":
        if "spectral_density" not in params and "coupling" not in params:
            errors.append("nonmarkovian_two needs params.spectral_density or params.coupling")
        if "spectral_density" in params:
            errors.extend(
                f"params.spectral_density.{problem}"
                for problem in spectral_density_errors(params["spectral_density"])
            )
        errors.extend(_bath_mode_errors(params))
    if entry is not None:
        max_exc = params.get("max_excitation", entry.max_excitation)
        if _is_int(max_exc) and max_exc >= 1 and "occupations" in init:
            errors.extend(
                _occupation_errors(init["occupations"], _num_modes(model, params), max_exc)
            )
    return errors


def _bath_mode_errors(params) -> list[str]:
    """A finite temperature needs every bath mode above zero frequency: its
    thermal occupation is 1 / (e^(beta w) - 1).  Ohmic nodes always are."""
    try:
        if "coupling" in params:
            where = "coupling.bath_frequencies[{}]"
            omegas = params["coupling"]["bath_frequencies"]
            finite = _read_coupling(params["coupling"])[2] < math.inf
        else:
            where, finite = "spectral_density.modes[{}].omega", False
            omegas = [mode["omega"] for mode in params["spectral_density"]["modes"]]
        return [
            f"params.{where.format(k)} must be > 0 at a finite temperature, got {w}"
            for k, w in enumerate(omegas)
            if (finite or params.get("beta") is not None) and not float(w) > 0
        ]
    except (AttributeError, KeyError, TypeError, ValueError):
        return []  # an Ohmic density, or a bath the rules above report


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
    if report.get("model") not in tuple(_MODELS):
        errors.append("report.model missing or unknown")
    diag = report.get("diagnostics")
    if not isinstance(diag, dict):
        errors.append("report.diagnostics missing")
    else:
        for key in ("max_trace_error", "min_eigenvalue"):
            value = diag.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                errors.append(f"diagnostics.{key} must be finite")
        sizes = diag.get("sector_sizes", [])
        if not (isinstance(sizes, list) and all(_is_int(n) and n > 0 for n in sizes)):
            errors.append("diagnostics.sector_sizes must be a list of positive integers")
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


# -- the models ---------------------------------------------------------------


class _Setup(NamedTuple):
    """What a model's builder hands the pipeline."""

    spec: TruncationSpec
    generator: object
    theta: Optional[float]  # angle of the protected mode for dfs_coeffs states
    modes: dict  # "collective", "weak", "strong" -> ModeVector or None
    values: dict  # the model's numbers, read by its predictions and check
    kernel: object = None  # MemoryKernelSolution, written to kernel.csv


class _Model(NamedTuple):
    """Everything model-specific in a scenario run."""

    build: Callable  # (params, max_excitation, t_max) -> _Setup
    params: dict  # params key -> (predicate, description)
    predicted: Callable  # _Setup.values -> {rate name: rate}
    # (report key, observable, fit key, rate name, start, end) per fit; the
    # default window is [start, end] / predicted[rate name], cut at t_max
    fits: list
    check: Optional[Callable]  # (setup, rho0, angles, times, stack) -> report fields
    max_excitation: int
    outputs: Callable  # TruncationSpec -> default observable names


def _build_markovian(params, max_exc, t_max) -> _Setup:
    rates = tuple(float(k) for k in params["rates"])
    omega = float(params.get("omega", 1.0))
    nbar = float(params.get("nbar", 0.0))
    spec = TruncationSpec(len(rates), max_exc)
    model = RateModel(rates, thermal_occupation=nbar)
    theta = weak = strong = None
    if len(rates) == 2 and rates[0] > 0:
        theta = theta_from_rates(rates[0], rates[1])
        if rates[1] > 0:
            weak, strong = wd_sd_modes(rates[0], rates[1], 0.0)
    collective = ModeVector.from_amplitudes(np.sqrt(np.asarray(rates)))
    modes = {"collective": collective, "weak": weak, "strong": strong}
    values = {"rates": rates, "omega": omega, "nbar": nbar, "total": model.total_rate}
    return _Setup(spec, build_bm_generator(model, spec, omega=omega), theta, modes, values)


def _markovian_check(setup, rho0, angles, times, stack) -> dict:
    rates, nbar = setup.values["rates"], setup.values["nbar"]
    if setup.spec.num_modes != 2 or rates[0] <= 0:
        return {}
    k1, k2 = rates
    coefficients = (markov_coefficients(k1, k2, nbar, setup.values["omega"], t) for t in times)
    analytic = [apply_superoperator(c, rho0) for c in coefficients]
    deviation = max(float(np.max(np.abs(a.matrix - s))) for a, s in zip(analytic, stack))
    out = {"analytic_numeric_max_deviation": deviation}
    if angles is not None and nbar == 0.0:
        limit = asymptotic_state(k1, k2, angles[0], angles[1])
        out["asymptotic"] = {
            "weight_predicted": limit.weight,
            "fidelity_infinity_predicted": limit.fidelity_infinity,
            "weight_measured": mode_population(analytic[-1], limit.mode),
            "fidelity_measured": fidelity(rho0, analytic[-1]),
        }
    return out


def _build_realistic(params, max_exc, t_max) -> _Setup:
    k1 = float(params["k1"])
    k2 = float(params["k2"])
    if "k3" in params:
        k3 = _parse_complex(params["k3"])
    else:
        k3 = math.sqrt(k1 * k2) - float(params["delta_k"])
    if "omega1" in params:
        omega1 = float(params["omega1"])
        omega2 = float(params["omega2"])
    else:
        omega = float(params.get("omega", 1.0))
        split = float(params.get("delta_omega", 0.0))
        omega1, omega2 = omega - split, omega + split
    spec = TruncationSpec(2, max_exc)
    model = RateModel((k1, k2), cross_rate=k3)
    unphysical = params.get("allow_unphysical", False)
    gen = build_realistic_generator(model, omega1, omega2, spec, allow_unphysical=unphysical)
    gap = math.sqrt(k1 * k2) - abs(k3)
    if gap < -1e-12:
        raise UnphysicalRatesError(
            f"rate gap sqrt(k1 k2) - |k3| = {gap:.3e}: allow_unphysical admits the "
            "generator, but the weak/strong mode split needs a non-negative rate gap"
        )
    deviation = DeviationParams.from_model(model, omega1, omega2)
    weak, strong = wd_sd_modes(k1, k2, deviation.frequency_split)
    modes = {"collective": strong, "weak": weak, "strong": strong}
    values = {"rates": (k1, k2, k3, omega1, omega2), "deviation": deviation}
    return _Setup(spec, gen, theta_from_rates(k1, k2), modes, values)


def _realistic_check(setup, rho0, angles, times, stack) -> dict:
    rates = setup.values["rates"]
    deviation = setup.values["deviation"]
    # The closed forms divide by the eigenvalue splitting of the amplitude
    # generator; at an exceptional point they are skipped, not the run.
    try:
        exact = realistic.eigen_rates(*rates)
        if angles is not None:
            sol = realistic.one_photon_evolution(*rates, *angles, times)
            split = realistic.approximate_mode_split(
                rates[0], rates[1], deviation.rate_gap, deviation.frequency_split, *angles
            )
    except ExceptionalPointError as exc:
        return {"analytic_skipped_reason": str(exc), "eigen_rates": None, "mode_split": None}
    out = {"eigen_rates": {"slow": exact.slow, "fast": exact.fast}}
    if angles is not None:
        # the closed form is survival |mode><mode| + (1 - survival) |vac><vac|
        spec = setup.spec
        vac = spec.index_of((0, 0))
        one = np.array([spec.index_of((1, 0)), spec.index_of((0, 1))])
        expected = np.zeros_like(stack)
        expected[:, vac, vac] = 1.0 - sol.survival
        expected[:, one[:, None], one] = sol.survival[:, None, None] * (
            sol.modes[:, :, None] * sol.modes[:, None, :].conj()
        )
        out["analytic_numeric_max_deviation"] = float(np.max(np.abs(expected - stack)))
        out["mode_split"] = split.to_json_dict()
    return out


def _read_coupling(data) -> tuple:
    """(spectral density, frequency, inverse temperature, collective weights)
    of a two-oscillator coupling JSON; raises on anything the model cannot use."""
    coupling = CouplingModel.from_dict(data)
    direction = list(coupling.collective_weights())
    if len(direction) != 2 or not any(direction) or coupling.inverse_temperature == 0:
        raise ValueError("needs two weighted oscillators and a positive inverse temperature")
    weights = np.abs(coupling.bath_mode_couplings()) ** 2
    sd = SpectralDensity.from_weights(coupling.bath_frequencies, weights)
    return sd, coupling.degenerate_frequency(), coupling.inverse_temperature, direction


def _build_nonmarkovian(params, max_exc, t_max) -> _Setup:
    omega = float(params.get("omega", 1.0))
    beta = params.get("beta")
    beta = math.inf if beta is None else float(beta)
    direction = params.get("coupling_direction")
    if "coupling" in params:
        sd, omega, coupling_beta, weights = _read_coupling(params["coupling"])
        if coupling_beta != math.inf:
            beta = coupling_beta
        if direction is None:
            direction = weights
    else:
        sd = SpectralDensity.from_dict(params["spectral_density"])
    direction = np.asarray([1.0, 1.0] if direction is None else direction, dtype=complex)
    grid = np.linspace(0.0, t_max, params.get("kernel_points", 10001))
    solution = solve_kernel(
        sd, omega, grid, beta=beta, kernel_sign=params.get("kernel_sign", "conjugate"),
        substeps=params.get("kernel_substeps", 1),
    )
    spec = TruncationSpec(2, max_exc)
    gen = build_time_dependent_generator(solution, spec, collective_direction=direction)
    theta = float(np.arctan2(abs(direction[1]), abs(direction[0])))
    modes = {"collective": ModeVector.from_amplitudes(direction)}
    return _Setup(spec, gen, theta, modes, {}, solution)


_MODELS = {
    "markovian_n": _Model(
        build=_build_markovian,
        params={
            "rates": (_rates, "a list of numbers >= 0, not all zero"),
            "omega": _NUMBER,
            "nbar": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
            "max_excitation": _MAX_EXCITATION,
        },
        predicted=lambda values: {"collective": values["total"]},
        fits=[("collective", "collective_population", "window", "collective", 2.0, 6.0)],
        check=_markovian_check,
        max_excitation=3,
        outputs=lambda spec: ["survival", "collective_population", "fidelity_to_unitary"]
        + (["weak_population"] if spec.num_modes == 2 else []),
    ),
    "realistic_two": _Model(
        build=_build_realistic,
        params={
            "k1": _POSITIVE,
            "k2": _POSITIVE,
            "k3": _COMPLEX,
            "delta_k": _NUMBER,
            "omega": _NUMBER,
            "delta_omega": _NUMBER,
            "omega1": _NUMBER,
            "omega2": _NUMBER,
            "allow_unphysical": (lambda v: isinstance(v, bool), "true or false"),
            "max_excitation": _MAX_EXCITATION,
        },
        predicted=lambda v: asdict(
            predicted_rates(*v["rates"][:2], v["deviation"].rate_gap)
        ),
        fits=[
            ("weak", "weak_population", "window", "strong", 2.0, 6.0),
            ("strong", "strong_population", "strong_window", "strong", 0.0, 1.0),
            ("survival", "survival", "window", "strong", 2.0, 6.0),
        ],
        check=_realistic_check,
        max_excitation=1,
        outputs=lambda spec: ["survival", "weak_population", "strong_population",
                              "vacuum_population"],
    ),
    "nonmarkovian_two": _Model(
        build=_build_nonmarkovian,
        params={
            "omega": _NUMBER,
            "beta": (lambda v: v is None or _POSITIVE[0](v), "a positive number or null"),
            "coupling_direction": (_direction, "a list of two numbers, not both zero"),
            "coupling": (_coupling, "a factorized coupling of two degenerate oscillators"),
            "kernel_points": (_int_at_least(3), "an integer >= 3"),
            "kernel_sign": (lambda v: v in KERNEL_SIGNS, f"one of {KERNEL_SIGNS}"),
            "kernel_substeps": (_int_at_least(1), "an integer >= 1"),
            "max_excitation": _MAX_EXCITATION,
        },
        predicted=lambda values: {},
        fits=[],
        check=None,
        max_excitation=2,
        outputs=lambda spec: ["survival", "collective_population"],
    ),
}


# -- the pipeline -------------------------------------------------------------


def _initial_state(init, spec, theta) -> tuple[DensityMatrix, Optional[tuple]]:
    """Build the initial state; returns (state, (alpha, phi) or None)."""
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
    if theta is None:
        raise ConfigError(["dfs_coeffs initial states need a two-mode rate model"])
    table = [[_parse_complex(entry) for entry in row] for row in init["dfs_coeffs"]]
    try:
        return dfs_state_builder(np.array(table), theta, spec), None
    except ValueError as exc:
        raise ConfigError([f"initial_state.dfs_coeffs: {exc}"]) from exc


def _observable_columns(names, setup, rho0, times, states, stack) -> dict:
    columns = {}
    spec = setup.spec
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
            columns[name] = np.array([fidelity(rho0, s) for s in states])
        elif name == "fidelity_to_unitary":
            ham = setup.generator.hamiltonian
            columns[name] = _fidelity_to_unitary(ham, rho0, times, stack)
        elif name == "collective_population":
            columns[name] = mode_column(setup.modes["collective"])
        elif name in ("weak_population", "strong_population"):
            mode = setup.modes.get(name.split("_")[0])
            if mode is None:
                raise ConfigError([f"{name} requires a two-mode rate model"])
            columns[name] = mode_column(mode)
        elif name in ("mode1_population", "mode2_population"):
            idx = 0 if name == "mode1_population" else 1
            if spec.num_modes <= idx:
                raise ConfigError([f"{name} needs at least {idx + 1} modes"])
            columns[name] = mode_column(ModeVector(np.eye(spec.num_modes)[idx]))
        else:
            raise ConfigError([f"unknown observable {name!r}"])
    return columns


def _fidelity_to_unitary(ham, rho0, times, stack) -> np.ndarray:
    if np.max(np.abs(ham - np.diag(np.diag(ham)))) > 1e-12:
        raise ConfigError(["fidelity_to_unitary needs a diagonal free Hamiltonian"])
    levels = np.real(np.diag(ham))
    out = np.empty(len(stack))
    for i, state in enumerate(stack):
        phases = np.exp(-1j * levels * times[i])
        image = (phases[:, None] * rho0.matrix) * phases.conj()[None, :]
        out[i] = float(np.real(np.trace(state @ image)))
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


def run_scenario(cfg, out_dir: Optional[str] = None) -> dict:
    """Execute one scenario; write artifacts when ``out_dir`` is given.

    Outputs are deterministic for a fixed config: identical CSV bytes across
    runs on one platform.
    """
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    start = time.perf_counter()
    model = _MODELS[cfg["model"]]
    params, tblock = cfg["params"], cfg["time"]
    t_max = float(tblock["t_max"])
    setup = model.build(params, params.get("max_excitation", model.max_excitation), t_max)
    rho0, angles = _initial_state(cfg["initial_state"], setup.spec, setup.theta)
    times = np.linspace(0.0, t_max, tblock["steps"])
    result = propagate(setup.generator, rho0, times, max_step=tblock.get("max_step"))
    stack = np.array([s.matrix for s in result.states])
    names = cfg.get("outputs") or model.outputs(setup.spec)
    observables = _observable_columns(names, setup, rho0, times, result.states, stack)

    predicted = model.predicted(setup.values)
    fitted = {}
    for key, name, option, rate_name, lo, hi in model.fits:
        rate = predicted[rate_name]
        window = cfg.get("fit", {}).get(option, [lo / rate, min(hi / rate, times[-1])])
        fit = _fit_or_none(times, observables[name], window) if name in observables else None
        if fit:
            fitted[key] = fit

    diag = {
        "engine": result.engine,
        "sector_sizes": list(result.sector_sizes),
        "max_trace_error": float(np.max(result.trace_errors)),
        "min_eigenvalue": float(np.min(result.min_eigenvalues)),
    }
    if "fidelity_to_unitary" in observables:
        diag["fidelity_to_unitary_min"] = float(np.min(observables["fidelity_to_unitary"]))
    report = {
        "scenario": copy.deepcopy(cfg),
        "model": cfg["model"],
        "fitted_rates": fitted,
        "predicted_rates": predicted,
        "analytic_numeric_max_deviation": None,
        "asymptotic": None,
        "diagnostics": diag,
        "artifacts": {},
    }
    if model.check is not None:
        report.update(model.check(setup, rho0, angles, times, stack))
    if setup.kernel is not None:
        report["extras"] = {"kernel_final_damping": float(setup.kernel.damping[-1])}
    report["wall_time_seconds"] = float(time.perf_counter() - start)

    artifacts = report["artifacts"]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        artifacts["timeseries_csv"] = os.path.join(out_dir, "timeseries.csv")
        result.write_csv(artifacts["timeseries_csv"], observables)
        if setup.kernel is not None:
            artifacts["kernel_csv"] = os.path.join(out_dir, "kernel.csv")
            setup.kernel.write_csv(artifacts["kernel_csv"])
    problems = validate_report(report)
    if problems:
        raise ConfigError([f"report failed validation: {p}" for p in problems])
    if out_dir is not None:
        artifacts["report_json"] = os.path.join(out_dir, "report.json")
        write_text(
            artifacts["report_json"], json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
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
    total = math.prod(len(values) for values in grids)
    if total > cap:
        raise ConfigError([f"sweep grid has {total} points, cap is {cap}"])
    combos = list(itertools.product(*grids))

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

    rows = [
        [index, *combo, *_summary_scalars(report)]
        for index, (combo, report) in enumerate(zip(combos, reports))
    ]
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
