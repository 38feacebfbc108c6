"""dfsim benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload markov_dense --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics (set-up time,
operation time, peak memory); ``--trace 1`` makes the separate traced run
that reports per-layer numbers.  The last line of standard output is the
result object.  Configs, per-operation records and spans go to
``.perfbench_runs/<workload>-seed<n>-trace<t>/`` in the checkout, so any
operation can be replayed with ``dfsim run <config>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

# Matrices stay at d <= 49, too small for BLAS threads to pay: on a 2-core
# machine two threads made markov_dense ~30% slower and noisier than one.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
TRACED_DECKS = 2

# About the probe's time on the 2-vCPU Xeon VM the baseline was taken on
# (Python 3.11, numpy 2.4, OpenBLAS, one thread); ``run_s`` is expressed in
# seconds of a machine that runs the probe at this speed.
PROBE_REFERENCE_S = 0.012
# The same for the median of the start-up probe, a fresh `python -c "import
# numpy"`; ``setup_s`` is expressed in seconds of that machine.
START_PROBE_REFERENCE_S = 0.18


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _steal_seconds():
    """Hypervisor steal time of the whole machine so far (None off Linux):
    a slow run with high steal was slowed from outside."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _provenance(np, args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Probe:
    """A fixed slice of CPU work that does not touch dfsim, timed right
    before every timed operation.

    Other tenants of a shared machine slow the benchmark by tens of percent,
    in stretches from seconds to many minutes.  The probe is 60 Euler steps
    of a Lindblad equation at d = 49 in plain numpy, so it slows with the
    machine much as the operation after it does, and the ratio of the two
    follows the program rather than the machine.
    """

    STEPS = 60
    DIM = 49

    def __init__(self, np):
        rng = np.random.default_rng(0)
        jump = (rng.random((self.DIM, self.DIM)) + 1j * rng.random((self.DIM, self.DIM))) / self.DIM
        self.ham = (jump + jump.conj().T) / 2
        self.jump = jump
        self.jump_dagger = jump.conj().T.copy()
        self.decay = self.jump_dagger @ jump
        self.rho = np.eye(self.DIM, dtype=complex) / self.DIM
        for _ in range(3):
            self._work()

    def _work(self):
        rho = self.rho
        for _ in range(self.STEPS):
            rho = rho + 0.01 * (
                -1j * (self.ham @ rho - rho @ self.ham)
                + self.jump @ rho @ self.jump_dagger
                - 0.5 * (self.decay @ rho + rho @ self.decay)
            )
        return rho

    def sample(self) -> float:
        """Run the probe once; returns its wall time."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


class Session:
    """Runs, gates and times operations; counts what was attempted and failed."""

    def __init__(self, dfsim, workload, run_dir):
        self.dfsim = dfsim
        self.workload = workload
        self.run_dir = run_dir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.records = []
        os.makedirs(os.path.join(run_dir, "configs"))

    def _start(self, cfg, phase):
        path = os.path.join(self.run_dir, "configs", f"{len(self.records):03d}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
            fh.write("\n")
        record = {"phase": phase, "config": os.path.relpath(path, ROOT)}
        self.records.append(record)
        self.attempted += 1
        return path, record

    def _fail(self, record, problems):
        if "problems" not in record:
            self.failed += 1
        record["problems"] = record.get("problems", []) + problems

    def start_probe(self) -> float:
        """Wall time of a fresh interpreter that imports numpy and not dfsim:
        process start slows with the machine as `dfsim validate` does."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy"],
            cwd=ROOT, env=_child_env(), capture_output=True, timeout=60, check=True,
        )
        return time.perf_counter() - start

    def validate_cli(self, cfg) -> float:
        """One fresh `python -m dfsim validate` process; returns its wall time."""
        path, record = self._start(cfg, "setup")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "dfsim", "validate", path],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        record["seconds"] = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != "config OK":
            self._fail(record, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        return record["seconds"]

    def validate_in_process(self, cfg) -> float:
        """`dfsim validate` through cli.main in this process: parse and check only."""
        path, record = self._start(cfg, "cli")
        start = time.perf_counter()
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            code = self.dfsim.cli.main(["validate", path])
        record["seconds"] = time.perf_counter() - start
        if code != 0:
            self._fail(record, [f"cli.main returned {code}"])
        return record["seconds"]

    def operation(self, cfg, phase, keep=False):
        """Run one config; time only the entry-point call, gate afterwards."""
        path, record = self._start(cfg, phase)
        out_dir = os.path.join(self.run_dir, "ops", os.path.basename(path)[:-5])
        result = None
        if self.tracer is not None:
            self.tracer.op_id = len(self.records)
        start = time.perf_counter()
        try:
            try:
                result = self.workload.run(self.dfsim, cfg, out_dir)
            finally:
                record["seconds"] = time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.op_id = -1
            deviation, problems = self.workload.gate(self.dfsim, cfg, result, out_dir)
            if math.isfinite(deviation):
                record["deviation"] = deviation
        except Exception:  # an operation that raises is a counted failure
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self._fail(record, problems)
        if os.path.isdir(out_dir):
            record["csv_sha256"] = self.workload.csv_digests(out_dir)
            if not keep:
                shutil.rmtree(out_dir)
        return record, result, out_dir

    def decks(self, stream, seconds, phase, probe=None, after_deck=None) -> list:
        """Whole decks until the timed operations add up to ``seconds``.  The
        probe, if given, is sampled before each operation and its time kept
        in the operation's record; ``after_deck`` is called after each deck."""
        records = []
        while not records or sum(r["seconds"] for r in records) < seconds:
            for cfg in next(stream):
                probe_s = None if probe is None else probe.sample()
                records.append(self.operation(cfg, phase)[0])
                if probe_s is not None:
                    records[-1]["probe_s"] = probe_s
            if after_deck is not None:
                after_deck()
        return records

    def repeat_and_selfcheck(self, first) -> dict:
        """Re-run the warm-up config from its saved JSON: its CSV bytes must
        match.  Then show that a corrupted copy of that output fails the gate
        and the byte check."""
        with open(os.path.join(ROOT, first["config"])) as fh:
            cfg = json.load(fh)
        record, result, out_dir = self.operation(cfg, "repeat", keep=True)
        if record.get("csv_sha256") != first.get("csv_sha256"):
            self._fail(record, [f"CSV bytes differ from {first['config']}"])
        check = {"gate_rejects_corruption": False, "bytes_check_rejects_corruption": False}
        if "problems" not in record:
            scratch = os.path.join(self.run_dir, "selfcheck")
            os.makedirs(scratch)
            bad_result, bad_dir = self.workload.corrupt(result, out_dir, scratch)
            _, problems = self.workload.gate(self.dfsim, cfg, bad_result, bad_dir)
            check["gate_rejects_corruption"] = bool(problems)
            flipped = os.path.join(scratch, "flipped")
            shutil.copytree(out_dir, flipped)
            with open(os.path.join(flipped, sorted(record["csv_sha256"])[0]), "r+b") as fh:
                fh.seek(-2, os.SEEK_END)
                byte = fh.read(1)[0]
                fh.seek(-2, os.SEEK_END)
                fh.write(bytes([byte ^ 1]))
            digests = self.workload.csv_digests(flipped)
            check["bytes_check_rejects_corruption"] = digests != record["csv_sha256"]
            shutil.rmtree(scratch)
        shutil.rmtree(out_dir, ignore_errors=True)
        return check


def reference_seconds(records) -> float:
    """Operation time on a machine that runs the probe in PROBE_REFERENCE_S.

    Each operation's time is divided by that of the probe run just before
    it, which ran in the same state of the machine.  Records come in whole
    decks, and the configs at one deck position share their parameter
    strata, so they cost about the same: the median ratio of each position
    is that position's cost, and the mean over the positions weighs cheap
    and dear configs alike.
    """
    from workloads import DECK_SIZE

    medians = [
        statistics.median(r["seconds"] / r["probe_s"] for r in records[position::DECK_SIZE])
        for position in range(DECK_SIZE)
    ]
    return PROBE_REFERENCE_S * statistics.fmean(medians)


def _import_times() -> tuple[float, float]:
    """Cumulative import time of numpy, and of dfsim without numpy, from a
    fresh interpreter's -X importtime table."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import dfsim"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) * 1e-6
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative.get("dfsim", 0.0) - numpy_s


def traced_run(session, workload, configs, untraced, spare) -> tuple[dict, dict]:
    """Per-layer metrics: one deck run with every wrapper on.

    Times are per operation (totals over the deck divided by its size), so
    the seven layer self-times add up to ``trace.run_s``; counts repeat
    exactly for a given seed.
    """
    from tracing import LAYERS, Tracer, norm_ratio

    cli_times = [session.validate_in_process(cfg) for cfg in spare]
    import_times = [_import_times() for _ in range(IMPORT_SAMPLES)]
    session.tracer = tracer = Tracer()
    tracer.install()
    traced = [session.operation(cfg, "traced")[0] for cfg in configs]
    spans = tracer.summary()
    tracer.write(os.path.join(session.run_dir, "spans.json.gz"))
    ratios = [norm_ratio(g) for g in tracer.generators]

    ops = len(configs)

    def per_op(name, key="s"):
        return spans.get(name, {}).get(key, 0) / ops

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in spans.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"] / ops
    run_s = per_op("_roots")
    apply_calls = per_op("lindblad.apply", "calls")

    def seconds(name):
        return per_op(name), "s"

    def count(name):
        return per_op(name, "calls"), "count"

    metrics = {
        "trace.run_s": (run_s, "s"),
        "trace.overhead_s": (
            statistics.fmean(r["seconds"] for r in traced)
            - statistics.fmean(r["seconds"] for r in untraced[:ops]),
            "s",
        ),
        **{f"{layer}.self_s": (value, "s") for layer, value in layer_self.items()},
        "scenario.validate.s": seconds("scenario.validate"),
        "lindblad.apply.s": seconds("lindblad.apply"),
        "lindblad.apply.calls": count("lindblad.apply"),
        "lindblad.apply.us_per_call": (
            per_op("lindblad.apply") / apply_calls * 1e6 if apply_calls else 0.0, "us"
        ),
        "lindblad.propagate.self_s": (per_op("lindblad.propagate", "self_s"), "s"),
        "lindblad.norm_estimate.s": seconds("lindblad.norm_estimate"),
        "lindblad.norm_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "lindblad.build.s": seconds("lindblad.build"),
        "propagator.markov_coefficients.s": seconds("propagator.markov_coefficients"),
        "propagator.apply_superoperator.s": seconds("propagator.apply_superoperator"),
        "propagator.apply_superoperator.calls": count("propagator.apply_superoperator"),
        "kernel.solve_amplitude.s": seconds("kernel.solve_amplitude"),
        "kernel.thermal_injection_rate.s": seconds("kernel.thermal_injection_rate"),
        "kernel.extract_rates.s": seconds("kernel.extract_rates"),
        "kernel.mode_steps": (statistics.fmean(map(workload.mode_steps, configs)), "count"),
        "realistic.one_photon_evolution.s": seconds("realistic.one_photon_evolution"),
        "realistic.solution_state.s": seconds("realistic.solution_state"),
        "realistic.solution_state.calls": count("realistic.solution_state"),
        "realistic.fit_decay_rate.s": seconds("realistic.fit_decay_rate"),
        "realistic.fit_decay_rate.calls": count("realistic.fit_decay_rate"),
        "realistic.eigen_rates.s": seconds("realistic.eigen_rates"),
        "fock.mode_population.s": seconds("fock.mode_population"),
        "fock.mode_population.calls": count("fock.mode_population"),
        "fock.one_photon_vector.calls": count("fock.one_photon_vector"),
        "fock.purity_fidelity.s": seconds("fock.purity_fidelity"),
        "tableio.render.s": seconds("tableio.render"),
        "tableio.write_text.s": seconds("tableio.write_text"),
        "tableio.bytes_written": (tracer.bytes_written / ops, "bytes"),
        "oracle.max_deviation": (max(r.get("deviation", 0.0) for r in traced), "1"),
        "cli.validate.s": (statistics.median(cli_times), "s"),
        "setup.import_numpy_s": (statistics.median(t[0] for t in import_times), "s"),
        "setup.import_dfsim_s": (statistics.median(t[1] for t in import_times), "s"),
    }
    detail = {
        "spans": spans,
        "layer_sum_minus_run_s": sum(layer_self.values()) - run_s,
        "norm_ratios": ratios,
        "wrapped": tracer.installed,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "dfsim", "__init__.py")):
        print(f"error: no dfsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import dfsim
    import dfsim.cli
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(RUNS, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    session = Session(dfsim, workload, run_dir)
    started = time.perf_counter()
    steal_start = _steal_seconds()

    spare = workload.spare_configs(args.seed, 1 + SETUP_SAMPLES)
    warmup = session.operation(workload.warmup_config(spare[0]), "warmup")[0]
    # Set-up samples go one after each deck, so that slow stretches of the
    # machine weigh on them no more than on the operations.
    setup_configs = iter(spare[1:])
    setup_times = []
    start_probe_times = []

    def setup_sample():
        cfg = next(setup_configs, None)
        if cfg is not None:
            start_probe_times.append(session.start_probe())
            setup_times.append(session.validate_cli(cfg))

    if args.trace:
        # The traced decks are fixed per seed, so their counts repeat exactly.
        # The decks after them, run first without wrappers, are the overhead
        # baseline.
        stream = workload.decks(args.seed, stream=2)
        traced_configs = [cfg for _ in range(TRACED_DECKS) for cfg in next(stream)]
        untraced = session.decks(stream, args.seconds / 2, "timed", after_deck=setup_sample)
    else:
        probe = Probe(np)
        untraced = session.decks(
            workload.decks(args.seed, stream=0), args.seconds, "timed", probe, setup_sample
        )
    while len(setup_times) < SETUP_SAMPLES:
        setup_sample()
    selfcheck = session.repeat_and_selfcheck(warmup)

    result = {"provenance": _provenance(np, args)}
    if args.trace:
        metrics, result["trace"] = traced_run(
            session, workload, traced_configs, untraced, spare[1:]
        )
    else:
        metrics = {
            "run_s": (reference_seconds(untraced), "s"),
            "setup_s": (
                statistics.median(setup_times)
                * START_PROBE_REFERENCE_S / statistics.median(start_probe_times),
                "s",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    line = {
        "correct": session.failed == 0 and all(selfcheck.values()),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    result.update(
        line,
        error_rate=session.failed / session.attempted,
        timed_operations=len(untraced),
        setup_median_wall_s=statistics.median(setup_times),
        start_probe_s=start_probe_times,
        median_operation_s=statistics.median(r["seconds"] for r in untraced),
        selfcheck=selfcheck,
        wall_seconds=time.perf_counter() - started,
        steal_seconds=None if steal_start is None else _steal_seconds() - steal_start,
        loadavg=os.getloadavg(),
        operations=session.records,
    )
    shutil.rmtree(os.path.join(run_dir, "ops"), ignore_errors=True)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
