import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsim.cli import main as cli_main
from dfsim.errors import ConfigError
from dfsim.scenario import (
    run_scenario,
    run_sweep,
    validate_config,
    validate_report,
)


def base_markovian(**overrides):
    cfg = {
        "model": "markovian_n",
        "params": {"rates": [1.0, 0.5], "omega": 1.0, "nbar": 0.0, "max_excitation": 3},
        "initial_state": {"alpha": 0.6, "phi": 0.3},
        "time": {"t_max": 2.0, "steps": 41},
        "outputs": [
            "survival",
            "collective_population",
            "weak_population",
            "fidelity_to_unitary",
        ],
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def test_validate_config_accepts_good_config():
    assert validate_config(base_markovian()) == []


def test_validate_config_catches_problems():
    assert validate_config({"model": "bogus"})
    cfg = base_markovian()
    cfg["initial_state"] = {"alpha": 0.1, "occupations": [1, 0]}
    assert any("exactly one" in e for e in validate_config(cfg))
    cfg = base_markovian()
    cfg["time"] = {"t_max": -1.0, "steps": 1}
    errors = validate_config(cfg)
    assert any("t_max" in e for e in errors) and any("steps" in e for e in errors)
    cfg = base_markovian()
    cfg["outputs"] = ["nonsense"]
    assert any("unknown observable" in e for e in validate_config(cfg))
    cfg = base_markovian()
    cfg["params"] = {"rates": []}
    assert validate_config(cfg)


def test_run_scenario_writes_artifacts_and_validates(tmp_path):
    out = tmp_path / "run"
    report = run_scenario(base_markovian(), str(out))
    assert validate_report(report) == []
    assert os.path.exists(report["artifacts"]["timeseries_csv"])
    assert os.path.exists(report["artifacts"]["report_json"])
    with open(report["artifacts"]["report_json"]) as fh:
        on_disk = json.load(fh)
    assert on_disk["model"] == "markovian_n"
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_run_scenario_deterministic_csv(tmp_path):
    cfg = base_markovian()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_scenario(cfg, str(out_a))
    run_scenario(cfg, str(out_b))
    bytes_a = (out_a / "timeseries.csv").read_bytes()
    bytes_b = (out_b / "timeseries.csv").read_bytes()
    assert bytes_a == bytes_b
    assert b"\r" not in bytes_a


def test_markovian_dfs_scenario_protected(tmp_path):
    cfg = base_markovian(
        initial_state={"dfs_coeffs": [[0.0, 0.0], [0.0, 1.0]]},
    )
    report = run_scenario(cfg, str(tmp_path))
    assert report["diagnostics"]["fidelity_to_unitary_min"] >= 1.0 - 1e-8
    assert report["analytic_numeric_max_deviation"] < 1e-6


def test_markovian_asymptotic_block():
    report = run_scenario(base_markovian(time={"t_max": 25.0, "steps": 26}))
    asym = report["asymptotic"]
    assert asym is not None
    assert asym["weight_measured"] == pytest.approx(asym["weight_predicted"], abs=1e-9)
    assert asym["fidelity_measured"] == pytest.approx(
        asym["fidelity_infinity_predicted"], abs=1e-9
    )


def test_realistic_scenario_rates():
    cfg = {
        "model": "realistic_two",
        "params": {"k1": 1.0, "k2": 1.0, "delta_k": 0.01, "delta_omega": 0.0, "omega": 0.0},
        "initial_state": {"alpha": -math.pi / 4, "phi": 0.0},
        "time": {"t_max": 3.0, "steps": 301},
        "seed": 0,
    }
    report = run_scenario(cfg)
    fitted = report["fitted_rates"]["weak"]
    assert fitted["rate"] == pytest.approx(report["predicted_rates"]["weak"], rel=0.02)
    assert fitted["r_squared"] > 0.999
    assert report["eigen_rates"]["slow"] == pytest.approx(0.01, abs=1e-12)
    assert report["analytic_numeric_max_deviation"] < 1e-7
    assert report["mode_split"]["weak_rate"] == pytest.approx(0.01, abs=1e-12)


def test_realistic_unphysical_cross_rate_exit_code(tmp_path):
    cfg = {
        "model": "realistic_two",
        "params": {"k1": 1.0, "k2": 1.0, "k3": 1.2},
        "initial_state": {"alpha": 0.3, "phi": 0.0},
        "time": {"t_max": 1.0, "steps": 11},
        "seed": 0,
    }
    path = tmp_path / "bad_physics.json"
    path.write_text(json.dumps(cfg))
    code = cli_main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 3


def test_realistic_allow_unphysical_still_exits_3(tmp_path, capsys):
    # the generator is admitted, but the weak/strong split needs a rate gap >= 0
    cfg = {
        "model": "realistic_two",
        "params": {"k1": 1.0, "k2": 1.0, "k3": 1.2, "allow_unphysical": True},
        "initial_state": {"alpha": 0.3, "phi": 0.0},
        "time": {"t_max": 1.0, "steps": 11},
    }
    path = tmp_path / "unphysical.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["validate", str(path)]) == 0
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "non-negative rate gap" in capsys.readouterr().err


def test_nonmarkovian_scenario_resonant_envelope(tmp_path):
    g = 0.8
    cfg = {
        "model": "nonmarkovian_two",
        "params": {
            "spectral_density": {
                "type": "discrete",
                "modes": [{"omega": 1.0, "coupling": g}],
            },
            "omega": 1.0,
            "kernel_points": 3001,
            "max_excitation": 1,
            "coupling_direction": [1.0, 0.0],
        },
        "initial_state": {"occupations": [1, 0]},
        "time": {"t_max": 1.5, "steps": 31},
        "outputs": ["collective_population", "survival"],
        "seed": 0,
    }
    report = run_scenario(cfg, str(tmp_path))
    kernel_csv = report["artifacts"]["kernel_csv"]
    data = np.genfromtxt(kernel_csv, delimiter=",", names=True)
    envelope = data["re_amplitude"] ** 2 + data["im_amplitude"] ** 2
    expected = np.cos(g * data["time"]) ** 2
    assert np.max(np.abs(envelope - expected)) < 1e-8
    series = np.genfromtxt(report["artifacts"]["timeseries_csv"], delimiter=",", names=True)
    expected_pop = np.cos(g * series["time"]) ** 2
    assert np.max(np.abs(series["collective_population"] - expected_pop)) < 1e-6


def test_nonmarkovian_coupling_model_path():
    cfg = {
        "model": "nonmarkovian_two",
        "params": {
            "coupling": {
                "frequencies": [1.0, 1.0],
                "bath_frequencies": [1.0],
                "system_weights": [0.6, 0.8],
                "bath_weights": [0.8],
                "inverse_temperature": None,
            },
            "kernel_points": 2001,
            "max_excitation": 1,
        },
        "initial_state": {"occupations": [0, 1]},
        "time": {"t_max": 1.0, "steps": 21},
        "seed": 0,
    }
    report = run_scenario(cfg)
    assert validate_report(report) == []
    assert report["diagnostics"]["max_trace_error"] < 1e-8


def test_sweep_empty_equals_single_run():
    cfg = base_markovian()
    single = run_scenario(cfg)
    swept = run_sweep(cfg)
    assert swept["count"] == 1
    assert swept["points"][0]["predicted_rates"] == single["predicted_rates"]


def test_sweep_grid_order_and_summary(tmp_path):
    cfg = base_markovian(time={"t_max": 20.0, "steps": 21})
    alphas = [0.0, 0.5, 1.0, 1.5]
    cfg["sweep"] = {"parameter": "initial_state.alpha", "values": alphas}
    result = run_sweep(cfg, str(tmp_path), jobs=2)
    assert result["count"] == len(alphas)
    data = np.genfromtxt(result["summary_csv"], delimiter=",", names=True)
    assert np.allclose(data["initial_statealpha"], alphas)  # grid order kept
    k1, k2, phi = 1.0, 0.5, 0.3
    expected = [
        abs(np.sqrt(k2) * np.cos(a) - np.sqrt(k1) * np.exp(1j * phi) * np.sin(a)) ** 2
        / (k1 + k2)
        for a in alphas
    ]
    assert np.allclose(data["weight_measured"], expected, atol=1e-9)
    assert os.path.exists(result["reports_json"])


def test_sweep_cap():
    cfg = base_markovian()
    cfg["sweep"] = {"parameter": "initial_state.alpha", "values": list(np.linspace(0, 1, 30))}
    with pytest.raises(ConfigError):
        run_sweep(cfg, cap=10)


def test_cli_validate_and_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(base_markovian()))
    assert cli_main(["validate", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "unknown"}))
    assert cli_main(["validate", str(bad)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(["validate", str(broken)]) == 2
    assert cli_main(["run", str(broken), "--out", str(tmp_path / "o")]) == 2


def test_cli_run_and_sweep(tmp_path, capsys):
    cfg = base_markovian()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "markovian_n"

    cfg["sweep"] = {"parameter": "initial_state.alpha", "values": [0.2, 0.9]}
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", str(path), "--out", str(out), "--jobs", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["count"] == 2
    assert os.path.exists(summary["summary_csv"])


def test_cli_numeric_failure_exit_code(tmp_path):
    cfg = base_markovian()
    cfg["time"] = {"t_max": 2.0, "steps": 11, "max_step": 1.0}  # guard violation
    path = tmp_path / "too_coarse.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
    cfg = _realistic_base()
    cfg["params"]["delta_k"] = 1e308  # |k3|^2 overflows in the physicality check
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 4


def test_cli_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DFSIM_OUT", str(tmp_path / "env_out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_markovian()))
    assert cli_main(["run", str(path)]) == 0
    capsys.readouterr()
    assert os.path.exists(tmp_path / "env_out" / "timeseries.csv")


def test_report_headers_and_precision(tmp_path):
    report = run_scenario(base_markovian(), str(tmp_path))
    with open(report["artifacts"]["timeseries_csv"]) as fh:
        header = fh.readline().strip().split(",")
    assert header[:3] == ["time", "trace_error", "min_eig"]
    assert "survival" in header


def test_report_names_the_engine():
    diag = run_scenario(base_markovian())["diagnostics"]
    # one photon at d = 16: the k = 0 block holds the pairs of equal total
    # number, 1 + 4 + 9 + 16 + 9 + 4 + 1 entries
    assert (diag["engine"], diag["sector_sizes"]) == ("exact", [44])
    cfg = base_markovian(time={"t_max": 0.5, "steps": 6, "max_step": 1e-3})
    report = run_scenario(cfg)
    diag = report["diagnostics"]
    assert (diag["engine"], diag["sector_sizes"]) == ("rk4", [44])
    bad = dict(report, diagnostics=dict(diag, sector_sizes=[0]))
    assert any("sector_sizes" in e for e in validate_report(bad))


def test_sweep_summary_same_bytes_for_any_jobs(tmp_path):
    cfg = base_markovian(time={"t_max": 4.0, "steps": 9})
    cfg["sweep"] = {"parameter": "initial_state.alpha", "values": [0.0, 0.4, 0.8, 1.2]}
    run_sweep(cfg, str(tmp_path / "one"), jobs=1)
    run_sweep(cfg, str(tmp_path / "two"), jobs=2)
    summary = "sweep_summary.csv"
    assert (tmp_path / "one" / summary).read_bytes() == (tmp_path / "two" / summary).read_bytes()


def _occupations_out_of_range():
    return base_markovian(
        params={"rates": [1.0, 0.5], "omega": 1.0, "max_excitation": 2},
        initial_state={"occupations": [5, 0]},
    )


def _unknown_spectral_density():
    return {
        "model": "nonmarkovian_two",
        "params": {
            "spectral_density": {"type": "lorentzian", "amplitude": 0.1},
            "kernel_points": 101,
        },
        "initial_state": {"occupations": [1, 0]},
        "time": {"t_max": 1.0, "steps": 11},
    }


def _fractional_max_excitation():
    return base_markovian(
        params={"rates": [1.0, 0.5], "omega": 1.0, "max_excitation": 2.5}
    )


def _k3_and_delta_k():
    # a delta_k sweep would repeat one run if k3 silently took precedence
    cfg = {
        "model": "realistic_two",
        "params": {"k1": 1.0, "k2": 1.0, "k3": 0.9, "delta_k": 0.01},
        "initial_state": {"alpha": 0.3, "phi": 0.0},
        "time": {"t_max": 1.0, "steps": 11},
    }
    cfg["sweep"] = {"parameter": "params.delta_k", "values": [0.001, 0.1]}
    return cfg


def _kernel_param(key, value):
    # a runnable one-mode memory-kernel config with one kernel setting broken
    def build():
        params = {
            "spectral_density": {"type": "discrete", "modes": [{"omega": 1.0, "coupling": 0.3}]},
            "kernel_points": 101,
        }
        params[key] = value
        return {
            "model": "nonmarkovian_two",
            "params": params,
            "initial_state": {"occupations": [1, 0]},
            "time": {"t_max": 1.0, "steps": 11},
        }

    return build


def _spectral_density(**changes):
    # a runnable Ohmic (or, with modes, discrete) config with one entry broken
    def build():
        if "modes" in changes:
            density = {"type": "discrete"}
        else:
            density = {"type": "ohmic", "amplitude": 0.02, "cutoff": 5.0, "order": 40}
        for key, value in changes.items():
            if value is None:
                del density[key]
            else:
                density[key] = value
        return {
            "model": "nonmarkovian_two",
            "params": {"spectral_density": density, "kernel_points": 101},
            "initial_state": {"occupations": [1, 0]},
            "time": {"t_max": 1.0, "steps": 11},
        }

    return build


def _realistic_base():
    return {
        "model": "realistic_two",
        "params": {"k1": 1.0, "k2": 1.0, "delta_k": 0.01},
        "initial_state": {"alpha": 0.3, "phi": 0.0},
        "time": {"t_max": 1.0, "steps": 11},
    }


def _changed(build, dotted, value):
    # build() with the entry at a dotted path set to value
    def changed():
        cfg = build()
        *parents, last = dotted.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = value
        return cfg

    return changed


def _thermal_bath_mode_below_zero():
    cfg = _kernel_param("beta", 2.0)()
    cfg["params"]["spectral_density"]["modes"][0]["omega"] = -1.0
    return cfg


def _thermal_coupling_mode_at_zero():
    return {
        "model": "nonmarkovian_two",
        "params": {
            "coupling": {
                "frequencies": [1.0, 1.0],
                "bath_frequencies": [1.0, 0.0],
                "system_weights": [0.6, 0.8],
                "bath_weights": [0.8, 0.3],
                "inverse_temperature": 2.0,
            },
            "kernel_points": 101,
            "max_excitation": 1,
        },
        "initial_state": {"occupations": [0, 1]},
        "time": {"t_max": 1.0, "steps": 11},
    }


def _sweep_over_missing_key():
    cfg = base_markovian()
    cfg["sweep"] = {"parameter": "params.delta_kk", "values": [0.1, 0.2]}
    return cfg


@pytest.mark.parametrize(
    "build, message",
    [
        (_occupations_out_of_range, "occupations"),
        (_unknown_spectral_density, "spectral_density.type"),
        (_fractional_max_excitation, "max_excitation"),
        (_sweep_over_missing_key, "params.delta_kk"),
        (_k3_and_delta_k, "exactly one of params.k3 and params.delta_k"),
        (_kernel_param("kernel_points", 2), "params.kernel_points"),
        (_kernel_param("kernel_points", 2.5), "params.kernel_points"),
        (_kernel_param("kernel_sign", "bogus"), "params.kernel_sign"),
        (_kernel_param("kernel_substeps", 0), "params.kernel_substeps"),
        (_kernel_param("kernel_substeps", "x"), "params.kernel_substeps"),
        (_spectral_density(order=1), "params.spectral_density.order"),
        (_spectral_density(order="40"), "params.spectral_density.order"),
        (_spectral_density(amplitude=-0.1), "params.spectral_density.amplitude"),
        (_spectral_density(cutoff=0), "params.spectral_density.cutoff"),
        (_spectral_density(cutoff=None), "params.spectral_density.cutoff"),
        (_spectral_density(span=0.0), "params.spectral_density.span"),
        (_spectral_density(modes=[{"omega": 1.0}]), "modes[0].coupling"),
        (_spectral_density(modes=[{"coupling": [0.3]}]), "modes[0].omega"),
        (_spectral_density(modes=5), "params.spectral_density.modes"),
        (_spectral_density(modes=[]), "params.spectral_density.modes"),
        (_changed(base_markovian, "time.max_step", "x"), "time.max_step"),
        (_changed(base_markovian, "time.max_step", 0), "time.max_step"),
        (_changed(base_markovian, "time.max_step", -1.0), "time.max_step"),
        (_changed(base_markovian, "time.t_max", True), "time.t_max"),
        (_changed(base_markovian, "fit", 5), "fit must be an object"),
        (_changed(base_markovian, "fit", {"window": [3, 1]}), "fit.window"),
        (_changed(base_markovian, "params.nbar", -0.5), "params.nbar"),
        (_changed(base_markovian, "params.nbar", "x"), "params.nbar"),
        (_changed(base_markovian, "params.rates", [0, 0]), "params.rates"),
        (_changed(base_markovian, "initial_state.alpha", "x"), "initial_state.alpha"),
        (_changed(base_markovian, "initial_state.phi", "x"), "initial_state.phi"),
        (
            _changed(base_markovian, "initial_state", {"dfs_coeffs": "x"}),
            "initial_state.dfs_coeffs",
        ),
        (_changed(_realistic_base, "params.omega1", 1.0), "params.omega1 and params.omega2"),
        (_changed(_realistic_base, "params.delta_k", "x"), "params.delta_k"),
        (_changed(_realistic_base, "params.allow_unphysical", "yes"), "allow_unphysical"),
        (_kernel_param("beta", 0), "params.beta"),
        (_kernel_param("beta", -1), "params.beta"),
        (_kernel_param("beta", "x"), "params.beta"),
        (_kernel_param("coupling_direction", [0, 0]), "params.coupling_direction"),
        (_kernel_param("coupling_direction", "x"), "params.coupling_direction"),
        (_thermal_bath_mode_below_zero, "params.spectral_density.modes[0].omega"),
        (_thermal_coupling_mode_at_zero, "params.coupling.bath_frequencies[1]"),
    ],
    ids=[
        "occupations",
        "spectral_density",
        "max_excitation",
        "sweep_path",
        "k3_and_delta_k",
        "kernel_points_2",
        "kernel_points_fractional",
        "kernel_sign",
        "kernel_substeps_0",
        "kernel_substeps_string",
        "ohmic_order_1",
        "ohmic_order_string",
        "ohmic_negative_amplitude",
        "ohmic_cutoff_0",
        "ohmic_missing_cutoff",
        "ohmic_span_0",
        "discrete_missing_coupling",
        "discrete_missing_omega",
        "discrete_modes_not_a_list",
        "discrete_no_modes",
        "max_step_string",
        "max_step_0",
        "max_step_negative",
        "t_max_true",
        "fit_not_an_object",
        "fit_window_reversed",
        "nbar_negative",
        "nbar_string",
        "rates_all_zero",
        "alpha_string",
        "phi_string",
        "dfs_coeffs_string",
        "omega1_without_omega2",
        "delta_k_string",
        "allow_unphysical_string",
        "beta_0",
        "beta_negative",
        "beta_string",
        "coupling_direction_zero",
        "coupling_direction_string",
        "thermal_bath_mode_below_zero",
        "thermal_coupling_mode_at_zero",
    ],
)
def test_config_defects_exit_2(tmp_path, capsys, build, message):
    cfg = build()
    assert any(message in err for err in validate_config(cfg))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    assert cli_main(["validate", str(path)]) == 2
    assert cli_main(["run", str(path), "--out", out]) == 2
    assert cli_main(["sweep", str(path), "--out", out]) == 2
    assert message in capsys.readouterr().err


def test_realistic_exceptional_point_runs(tmp_path, capsys):
    # k1 = 1, k2 = 3, k3 = i: the amplitude generator is defective, so the
    # closed forms are skipped while the numeric run goes ahead
    cfg = {
        "model": "realistic_two",
        "params": {"k1": 1.0, "k2": 3.0, "k3": [0.0, 1.0]},
        "initial_state": {"alpha": 0.3, "phi": 0.0},
        "time": {"t_max": 1.0, "steps": 11},
        "seed": 0,
    }
    path = tmp_path / "exceptional.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["analytic_skipped_reason"]
    assert report["eigen_rates"] is None
    assert report["mode_split"] is None
    assert report["analytic_numeric_max_deviation"] is None
    assert report["diagnostics"]["max_trace_error"] < 1e-12


_FUZZ_CONFIGS = (
    {
        "model": "markovian_n",
        "params": {"rates": [1.0, 0.5], "omega": 1.0, "nbar": 0.0, "max_excitation": 2},
        "initial_state": {"dfs_coeffs": [[0.5, 0.0], [0.0, 0.5]]},
        "time": {"t_max": 1.0, "steps": 21},
        "fit": {"window": [0.1, 1.0]},
        "outputs": ["survival", "collective_population", "weak_population"],
        "seed": 0,
    },
    {
        "model": "realistic_two",
        "params": {
            "k1": 1.0,
            "k2": 0.8,
            "delta_k": 0.01,
            "omega": 1.0,
            "delta_omega": 0.01,
            "allow_unphysical": False,
            "max_excitation": 1,
        },
        "initial_state": {"alpha": 0.4, "phi": 0.2},
        "time": {"t_max": 1.0, "steps": 21, "max_step": 0.005},
        "fit": {"window": [0.1, 1.0], "strong_window": [0.0, 0.9]},
        "seed": 0,
    },
    {
        "model": "nonmarkovian_two",
        "params": {
            "spectral_density": {"type": "ohmic", "amplitude": 0.02, "cutoff": 5.0, "order": 8},
            "omega": 1.0,
            "beta": 2.0,
            "kernel_points": 101,
            "kernel_sign": "conjugate",
            "kernel_substeps": 1,
            "coupling_direction": [1.0, 1.0],
            "max_excitation": 1,
        },
        "initial_state": {"occupations": [1, 0]},
        "time": {"t_max": 1.0, "steps": 11},
        "seed": 0,
    },
)
_FUZZ_VALUES = ("x", True, -1.0, 0, 2.5, 1e308, [], [0, 0], {})


def _entry_paths(node, prefix=()):
    # every key and list index inside a config, parents before children
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _entry_paths(value, prefix + (key,))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_with_documented_code(tmp_path_factory, data):
    # one entry of a runnable config deleted or replaced: the run either
    # succeeds or fails with a documented exit code, never a traceback
    cfg = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_CONFIGS)))
    *parents, last = data.draw(st.sampled_from(list(_entry_paths(cfg))))
    node = cfg
    for key in parents:
        node = node[key]
    action = data.draw(st.sampled_from(("delete",) + _FUZZ_VALUES))
    if action == "delete":
        del node[last]
    else:
        node[last] = copy.deepcopy(action)
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp / "out")]) in (0, 2, 3, 4)
