"""Benchmark of `qbattery run` on two preset-derived workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

A workload is one or more scenario configs, written by the benchmark.  A
pass runs `qbattery run <config> --out <dir>` for each of them through
qbattery.cli.main in a fresh interpreter (perfbench/child.py) with
PYTHONPATH=src, one worker and BLAS pinned to one thread.  An untraced
round is a set-up pass (the same configs at a one-sample horizon) followed
by a full pass; rounds repeat while one more fits in the measuring time,
whole rounds only.  An untraced pass records the time at which each sample
reaches the runner (child.py --stamps); those times give samples_per_s.  A
traced round is one full pass with spans around the calls into each layer
(see child.py).

After measuring, every CSV of every pass is checked against computations
made apart from the program (checks.py).  One operation is one (channel,
topology, N) run; a run with any failed check counts as failed.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PASS_TIMEOUT_S = 150.0
DT_SAMPLE = 0.01
CHUNK_S = 0.5
MIN_CHUNKS = 3

# Physical parameters of the presets the scenarios start from, written
# into every config so that a workload does not move with a preset.
_COMMON = dict(
    initial_state="product_minus",
    j_prime=0.0,
    gamma=0.2,
    gamma_offdiag_modulus=0.01,
    gamma_offdiag_phase=math.pi / 3.0,
)
FIG2 = dict(_COMMON, h=1.0, j_z=1.0, j_xx=0.0, d_dm=0.0)
FIG5 = dict(_COMMON, h=1.0, j_z=0.0, j_xx=1.2, d_dm=0.2)
FIG7 = dict(_COMMON, h=1.3, j_z=1.0, j_xx=1.2, d_dm=0.2)


@dataclass(frozen=True)
class Scenario:
    """One config file: a preset plus overrides."""

    name: str
    preset: str
    channels: tuple[str, ...]
    topologies: tuple[str, ...]
    sizes: tuple[int, ...]
    params: dict
    t_max: float

    def runs(self) -> list[tuple[str, str, int]]:
        return [
            (c, t, n) for c in self.channels for t in self.topologies for n in self.sizes
        ]

    def config_text(self, t_max: float) -> str:
        keys = {
            "preset": self.preset,
            "name": self.name,
            "channel": ", ".join(self.channels),
            "topology": ", ".join(self.topologies),
            "n_sites": ", ".join(str(n) for n in self.sizes),
            **{k: repr(v) if isinstance(v, float) else v for k, v in self.params.items()},
            "dt_sample": repr(DT_SAMPLE),
            "t_max": repr(t_max),
        }
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def check_params(self) -> dict:
        p = dict(self.params)
        p["gamma_offdiag"] = p["gamma_offdiag_modulus"] * complex(
            math.cos(p["gamma_offdiag_phase"]), math.sin(p["gamma_offdiag_phase"])
        )
        return p


LONGRANGE_N6 = Scenario(
    "longrange_n6",
    "fig7_longrange_comparison",
    ("dephasing", "amplitude_damping"),
    ("nearest_neighbor", "all_to_all"),
    (6,),
    FIG7,
    t_max=11.0,
)
DEPHASING_SWEEP = Scenario(
    "dephasing_sweep",
    "fig2_dephasing_product",
    ("dephasing",),
    ("nearest_neighbor", "all_to_all", "local"),
    (2, 3, 4, 5, 6, 7, 8),
    FIG2,
    t_max=2.0,
)
DAMPING_SWEEP = Scenario(
    "damping_sweep",
    "fig5_ad_product",
    ("amplitude_damping",),
    ("nearest_neighbor", "local"),
    (2, 3, 4, 5),
    FIG5,
    t_max=40.0,
)
DAMPING_N7 = Scenario(
    "damping_n7",
    "fig7_longrange_comparison",
    ("amplitude_damping",),
    ("nearest_neighbor", "all_to_all"),
    (7,),
    FIG7,
    t_max=0.6,
)

WORKLOADS: dict[str, tuple[Scenario, ...]] = {
    # The headline figure, whose damping runs live in the dense block map and
    # spend most of their set-up building it, then the N = 7 damping runs
    # whose block map would exceed SAMPLE_MAP_MAX_BYTES: the only traffic on
    # the sparse RK4 substep loop.  Large states, propagation-bound.
    "longrange_n6_n7": (LONGRANGE_N6, DAMPING_N7),
    # Small states: the dephasing sweep, where a sample is one Hadamard
    # product and check and observables dominate, then the fig5 damping
    # sweep with many small blocks at ~0.2 ms a sample (per-sample Python
    # overhead).  The import is most of the set-up.
    "sweeps_n2_n8": (DEPHASING_SWEEP, DAMPING_SWEEP),
}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One pass over every scenario of a workload; keys of `payloads` are
    (scenario, channel, topology, N)."""

    kind: str  # "setup", "full" or "traced"
    out_dir: Path
    wall_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    manifests: dict = field(default_factory=dict)  # scenario name -> manifest
    payloads: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    sampling: list = field(default_factory=list)  # (samples, seconds, whole) per run

    def rows(self) -> int:
        return sum(e["n_samples"] for m in self.manifests.values() for e in m["runs"])

    def samples_per_s(self) -> float:
        return sum(r[0] for r in self.sampling) / sum(r[1] for r in self.sampling)


def sampling_phase(stamps: list[float]) -> tuple[int, float, float]:
    """(samples, seconds, whole seconds) of one run's sampling phase, from the times at
    which its samples reached the runner (child.py --stamps).

    Interval k runs from sample k to sample k + 1: it holds the observables
    and the CSV line of sample k and the propagation and check of the next.
    The interval of the t = 0 sample also holds the generator and map build
    and is left out.  The intervals are cut into consecutive chunks of at
    least CHUNK_S; with MIN_CHUNKS or more the run's rate is the median of
    the chunk rates, so that a few seconds of the host's other load, which
    halve the rate while they last, do not move it.  Shorter runs count
    their whole time.  The whole time is kept for the log."""
    intervals = np.diff(stamps[1:])
    rates, count, elapsed = [], 0, 0.0
    for dt in intervals:
        count, elapsed = count + 1, elapsed + dt
        if elapsed >= CHUNK_S:
            rates.append(count / elapsed)
            count, elapsed = 0, 0.0
    n, whole = len(intervals), float(intervals.sum())
    if len(rates) < MIN_CHUNKS:
        return n, whole, whole
    return n, n / statistics.median(rates), whole


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_scenario_process(p: Pass, scenario: Scenario, config: Path) -> None:
    """One `qbattery run` in a fresh interpreter; adds to p's wall time."""
    out_dir = p.out_dir / scenario.name
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py")]
    trace_path = out_dir / "spans.json"
    stamps_path = out_dir / "stamps.json"
    if p.kind == "traced":
        cmd += ["--trace", str(trace_path)]
    else:
        cmd += ["--stamps", str(stamps_path)]
    cmd += ["run", str(config), "--out", str(out_dir)]
    with open(out_dir / "stdout.log", "wb") as out, open(out_dir / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        p.wall_s += time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    p.rss_mb = max(p.rss_mb, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = (out_dir / "stderr.log").read_text(errors="replace")[-2000:]
        p.error = f"{scenario.name} exited {proc.returncode}: {tail}"
        return
    try:
        manifest = json.loads((out_dir / f"{scenario.name}_manifest.json").read_text())
        for entry in manifest["runs"]:
            key = (scenario.name, entry["channel"], entry["topology"], entry["n_sites"])
            p.payloads[key] = (out_dir / entry["file"]).read_bytes()
        if p.kind == "traced":
            p.traces.append(json.loads(trace_path.read_text()))
        else:
            stamps = json.loads(stamps_path.read_text())
            rows = [e["n_samples"] for e in manifest["runs"]]
            if [len(s) - 1 for s in stamps] != rows:
                raise ValueError(f"sample stamps {[len(s) for s in stamps]} for rows {rows}")
            p.sampling += [sampling_phase(s) for s in stamps]
    except (OSError, ValueError, KeyError) as exc:
        p.error = f"{scenario.name} left no readable output: {exc}"
        return
    p.manifests[scenario.name] = manifest


def run_pass(name: str, kind: str, index: int, configs: list) -> Pass:
    p = Pass(kind, OUT / name / f"{kind}-{index}")
    for scenario, config in configs:
        run_scenario_process(p, scenario, config)
        if p.error:
            print(f"{name}: {kind} pass {index}: {p.error}", file=sys.stderr)
            break
    return p


def measure(name: str, seconds: float, trace: bool) -> list[list[Pass]]:
    """Whole rounds within `seconds`: a new round starts only while one more
    round of the last round's length still fits.  The first always runs."""
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    full, setup = [], []
    for s in WORKLOADS[name]:
        full.append((s, work / f"{s.name}.full.cfg"))
        full[-1][1].write_text(s.config_text(s.t_max))
        setup.append((s, work / f"{s.name}.setup.cfg"))
        setup[-1][1].write_text(s.config_text(DT_SAMPLE))
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        i = len(rounds) + 1
        if trace:
            rounds.append([run_pass(name, "traced", i, full)])
        else:
            rounds.append([run_pass(name, "setup", i, setup), run_pass(name, "full", i, full)])
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks every run of every pass; content checks run once per run and
    distinct CSV payload, since passes must emit identical bytes."""

    def __init__(self, scenarios: tuple[Scenario, ...], seed: int) -> None:
        self.scenarios = scenarios
        self.seed = seed
        self.cache: dict[tuple, list[str]] = {}  # (scenario, run, payload) -> errors
        self.parsed: dict[bytes, dict] = {}

    def parse(self, payload: bytes) -> dict:
        if payload not in self.parsed:
            self.parsed[payload] = checks.parse_csv(payload)
        return self.parsed[payload]

    @staticmethod
    def config_errors(s: Scenario, manifest: dict, t_max: float) -> list[str]:
        cfg = manifest["config"]
        expected = dict(
            s.params,
            channels=list(s.channels),
            topologies=list(s.topologies),
            n_sites_list=list(s.sizes),
            t_max=t_max,
            dt_sample=DT_SAMPLE,
        )
        return [
            f"manifest echoes {key} = {cfg.get(key)!r}, config says {value!r}"
            for key, value in expected.items()
            if cfg.get(key) != value
        ]

    def run_errors(self, s: Scenario, run: tuple, payload: bytes) -> list[str]:
        if (s.name, run, payload) in self.cache:
            return self.cache[(s.name, run, payload)]
        channel, topology, n = run
        p = s.check_params()
        errors = []
        try:
            data = self.parse(payload)
        except ValueError as exc:
            errors.append(f"unreadable CSV: {exc}")
        else:
            errors += checks.check_rows(data, n, p["h"], DT_SAMPLE)
            if channel == "dephasing":
                errors += checks.check_dephasing_energy(data, topology, n, p)
                if topology == "local":
                    errors += checks.check_local_dephasing(data)
            elif topology == "local":
                errors += checks.check_local_damping(data, n, p)
            else:
                rng = np.random.default_rng([self.seed, s.runs().index(run)])
                picks = checks.pick_samples(rng, len(data["t"]))
                errors += checks.check_reference_propagation(
                    data, channel, topology, n, p, picks
                )
        self.cache[(s.name, run, payload)] = errors
        return errors

    def scenario_errors(self, s: Scenario, payloads: dict) -> dict[tuple, list[str]]:
        """Checks across the runs of one full-horizon scenario."""
        errors: dict[tuple, list[str]] = {}
        try:
            data = {
                k[1:]: self.parse(v) for k, v in payloads.items() if k[0] == s.name
            }
        except ValueError:
            return errors  # run_errors reports the unreadable CSV
        rings = {
            n: d
            for (c, t, n), d in data.items()
            if c == "dephasing" and t == "nearest_neighbor" and n >= 3
        }
        if len(rings) > 1:
            for n, errs in checks.check_ratio_collapse(rings, s.t_max).items():
                errors.setdefault(("dephasing", "nearest_neighbor", n), []).extend(errs)
        if s is LONGRANGE_N6:
            for c in s.channels:
                ring, a2a = (c, "nearest_neighbor", 6), (c, "all_to_all", 6)
                if ring in data and a2a in data:
                    errors.setdefault(a2a, []).extend(
                        checks.check_peak_order(data[ring], data[a2a])
                    )
        return errors

    def check(self, rounds: list[list[Pass]]) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over every run of every pass."""
        attempted = failed = 0
        messages: list[str] = []
        first: dict[str, dict] = {}  # kind -> payloads of its first pass
        full_ref = next(
            (p.payloads for r in rounds for p in r if p.kind != "setup" and not p.error), {}
        )
        for p in (p for r in rounds for p in r):
            if not p.error:
                first.setdefault(p.kind, p.payloads)
            for s in self.scenarios:
                manifest = p.manifests.get(s.name)
                runs = s.runs()
                attempted += len(runs)
                if manifest is None:
                    failed += len(runs)
                    messages.append(f"{p.out_dir.name} {s.name}: {p.error or 'not run'}")
                    continue
                t_max = DT_SAMPLE if p.kind == "setup" else s.t_max
                echo_errors = self.config_errors(s, manifest, t_max)
                cross = {} if p.kind == "setup" else self.scenario_errors(s, p.payloads)
                entries = {(e["channel"], e["topology"], e["n_sites"]): e for e in manifest["runs"]}
                for run in runs:
                    key = (s.name, *run)
                    errs = list(echo_errors)
                    entry, payload = entries.get(run), p.payloads.get(key)
                    if entry is None or payload is None:
                        errs.append("no manifest entry or CSV")
                    else:
                        if checks.sha256(payload) != entry["sha256"]:
                            errs.append("manifest sha256 does not match the CSV bytes")
                        if payload.count(b"\n") - 1 != entry["n_samples"]:
                            errs.append("row count differs from the manifest's n_samples")
                        if payload != first.get(p.kind, {}).get(key):
                            errs.append(f"CSV bytes differ from the first {p.kind} pass")
                        if p.kind == "setup" and not full_ref.get(key, b"").startswith(payload):
                            errs.append("set-up rows are not the first rows of the full pass")
                        errs += self.run_errors(s, run, payload)
                        errs += cross.get(run, [])
                    if errs:
                        failed += 1
                        messages += [f"{p.out_dir.name} {key}: {e}" for e in errs]
        return attempted, failed, messages


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "samples_per_s": "samples/s", "peak_rss_mb": "MB"}


def end_to_end(rounds: list[list[Pass]]) -> dict[str, float]:
    good = [(s, f) for s, f in rounds if not s.error and not f.error]
    if not good:
        return {}
    wall = statistics.median(f.wall_s for _, f in good)
    setup = statistics.median(s.wall_s for s, _ in good)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "samples_per_s": statistics.median(f.samples_per_s() for _, f in good),
        "peak_rss_mb": statistics.median(f.rss_mb for _, f in good),
    }


LAYER_UNITS = {
    "import.time_s": "s",
    "dissipation.precheck_s": "s",
    "models.setup_s": "s",
    "evolution.generator_build_s": "s",
    "evolution.map_build_s": "s",
    "evolution.propagate_s": "s",
    "evolution.check_s": "s",
    "observables.ergotropy_s": "s",
    "observables.coherence_s": "s",
    "observables.eigvalsh_per_sample": "count",
    "scenarios.self_s": "s",
    "scenarios.steady_probe_s": "s",
    "scenarios.tail_buffer_mb": "MB",
    "evolution.map_bytes": "B",
    "evolution.map_blocks": "count",
    "evolution.largest_block": "count",
    "evolution.generator_nnz": "count",
    "evolution.loop_matvecs_per_sample": "count",
    "evolution.runs_sample_map": "count",
    "evolution.runs_substep_loop": "count",
    "evolution.samples": "count",
    "traced.wall_s": "s",
}

_SELF_TIME_METRICS = {
    "dissipation.precheck_s": "dissipation.precheck",
    "models.setup_s": "models.setup",
    "evolution.generator_build_s": "evolution.generator_build",
    "evolution.map_build_s": "evolution.map_build",
    "evolution.propagate_s": "evolution.stream",
    "evolution.check_s": "evolution.check",
    "observables.ergotropy_s": "observables.ergotropy",
    "observables.coherence_s": "observables.coherence",
    "scenarios.self_s": "scenarios.run",
    "scenarios.steady_probe_s": "scenarios.steady_probe",
}

_STAT_METRICS = {
    "evolution.map_bytes": "map_bytes",
    "evolution.map_blocks": "map_blocks",
    "evolution.largest_block": "largest_block",
    "evolution.generator_nnz": "generator_nnz",
}


def layers_of(p: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass: times and counts summed over its
    processes, sizes the largest over its runs."""
    traces = p.traces
    runs = [e for m in p.manifests.values() for e in m["runs"]]
    loop_runs = [e for e in runs if e["propagation"] == "rk4_substep_loop"]
    samples = p.rows()

    def stat(key: str) -> float:
        return max(t["stats"].get(key, 0) for t in traces)

    out = {
        k: sum(t["self"].get(span, 0.0) for t in traces)
        for k, span in _SELF_TIME_METRICS.items()
    }
    out.update({k: stat(key) for k, key in _STAT_METRICS.items()})
    out.update(
        {
            "import.time_s": sum(t["import_s"] for t in traces),
            "observables.eigvalsh_per_sample": sum(
                t["counts"].get("eigvalsh_per_sample_calls", 0) for t in traces
            ) / samples,
            "scenarios.tail_buffer_mb": stat("tail_buffer_bytes") / 2**20,
            "evolution.loop_matvecs_per_sample": max(
                (4 * e["rk4_substeps_per_sample"] for e in loop_runs), default=0
            ),
            "evolution.runs_sample_map": sum(
                e["propagation"] == "rk4_sample_map" for e in runs
            ),
            "evolution.runs_substep_loop": len(loop_runs),
            "evolution.samples": samples,
            "traced.wall_s": p.wall_s,
        }
    )
    return {k: out[k] for k in LAYER_UNITS}


def per_layer(rounds: list[list[Pass]]) -> dict[str, float]:
    per_pass = [layers_of(p) for r in rounds for p in r if not p.error]
    if not per_pass:
        return {}
    return {k: statistics.median(d[k] for d in per_pass) for k in LAYER_UNITS}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = measure(name, seconds, trace)
    attempted, failed, messages = Checker(WORKLOADS[name], seed).check(rounds)
    for line in messages[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if trace:
        values, units = per_layer(rounds), LAYER_UNITS
    else:
        values, units = end_to_end(rounds), E2E_UNITS
    print(f"{name}: {len(rounds)} rounds, {attempted} runs attempted, {failed} failed")
    for p in (p for r in rounds for p in r):
        line = f"  pass {p.out_dir.name:9s} wall {p.wall_s:8.3f} s  peak RSS {p.rss_mb:7.1f} MB"
        if p.sampling:
            line += "  sampling {:7.3f} s (median rate), {:7.3f} s (whole)".format(
                sum(r[1] for r in p.sampling), sum(r[2] for r in p.sampling)
            )
        print(line)
    for metric, value in values.items():
        print(f"  {metric:36s} {value:14.6g} {units[metric]}")
    return {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qbattery" / "cli.py").is_file():
        print(f"no qbattery sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
