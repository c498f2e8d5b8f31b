"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs small scenarios of the program, then shows that

* every check accepts the program's own output;
* every check that compares W or ergotropy rejects a CSV in which one of
  them is moved by 1e-6 at one sample (the R(t) collapse check, which
  compares ratio_R, rejects a curve moved past its tolerance, and the peak
  order check rejects swapped curves);
* the byte check rejects a run whose bytes differ between passes;
* the benchmark's own GKSL generator agrees with qbattery.liouvillian_rhs
  on random states at N = 2, 3 for both channels and every topology.

Exit code 0 when every case holds.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace

import numpy as np

import checks
import run

MOVE = 1e-6
results: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    results.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


def moved(payload: bytes, row: int, column: str, delta: float) -> bytes:
    """payload with one field of data row `row` (0 = t = 0) shifted by delta."""
    lines = payload.decode().split("\n")
    fields = lines[row + 1].split(",")
    i = checks.CSV_COLUMNS.index(column)
    fields[i] = f"{float(fields[i]) + delta:.11e}"
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines).encode()


def run_small(scenario: run.Scenario) -> dict:
    """Emitted CSV bytes per (channel, topology, N) of one in-process run."""
    from qbattery.scenarios import config_from_mapping, parse_config_text, run_scenario

    out_dir = run.OUT / "selftest" / scenario.name
    shutil.rmtree(out_dir, ignore_errors=True)
    text = scenario.config_text(scenario.t_max)
    result = run_scenario(config_from_mapping(parse_config_text(text)), str(out_dir))
    return {
        (e["channel"], e["topology"], e["n_sites"]): (out_dir / e["file"]).read_bytes()
        for e in result.manifest["runs"]
    }


def test_run_checks(rng: np.random.Generator) -> None:
    dephasing = run.Scenario(
        "selftest_dephasing", "fig2_dephasing_product", ("dephasing",),
        ("nearest_neighbor", "all_to_all", "local"), (2, 3, 4), run.FIG2, 1.0,
    )
    damping = run.Scenario(
        "selftest_damping", "fig5_ad_product", ("amplitude_damping",),
        ("nearest_neighbor", "all_to_all", "local"), (2, 3), run.FIG5, 1.0,
    )
    for w in (dephasing, damping):
        p = w.check_params()
        for key, payload in run_small(w).items():
            channel, topology, n = key
            label = f"{channel} {topology} N={n}"
            data = checks.parse_csv(payload)
            rows = len(data["t"])
            row_check = lambda d: checks.check_rows(d, n, p["h"], run.DT_SAMPLE)  # noqa: E731
            cases = [("rows", row_check, "W")]
            ratio_rows = np.nonzero(np.isfinite(data["ratio_R"]))[0]
            if channel == "dephasing":
                cases.append(
                    ("dephasing closed form",
                     lambda d: checks.check_dephasing_energy(d, topology, n, p), "W")
                )
                if topology == "local":
                    cases.append(("local dephasing", checks.check_local_dephasing, "ergotropy"))
                else:
                    cases.append(("rows", row_check, "ergotropy"))
            elif topology == "local":
                for column in ("W", "ergotropy"):
                    cases.append(
                        ("local damping closed form",
                         lambda d: checks.check_local_damping(d, n, p), column)
                    )
                cases.append(("rows", row_check, "ergotropy"))
            else:
                picks = checks.pick_samples(rng, rows)
                for column in ("W", "ergotropy"):
                    cases.append(
                        ("reference propagation",
                         lambda d: checks.check_reference_propagation(
                             d, channel, topology, n, p, picks), column)
                    )
                cases.append(("rows", row_check, "ergotropy"))
            for name, check, column in cases:
                expect(f"{name} accepts {label}", check(data) == [])
                if name == "reference propagation":
                    row = int(rng.choice(picks))
                elif column == "ergotropy" and name == "rows":
                    row = int(rng.choice(ratio_rows))
                else:
                    row = int(rng.integers(1, rows))
                bad = checks.parse_csv(moved(payload, row, column, MOVE))
                expect(f"{name} rejects {label} with {column} moved at row {row}", check(bad) != [])


def test_cross_run_checks() -> None:
    sweep = run.Scenario(
        "selftest_ratio", "fig2_dephasing_product", ("dephasing",),
        ("nearest_neighbor",), (3, 4, 5), run.FIG2, 2.0,
    )
    curves = {k[2]: checks.parse_csv(v) for k, v in run_small(sweep).items()}
    ok = checks.check_ratio_collapse(curves, sweep.t_max)
    expect("ratio collapse accepts ring N = 3, 4, 5", not any(ok.values()))
    t = curves[5]["t"]
    row = int(np.nonzero(t >= 1.0)[0][0])
    curves[5]["ratio_R"] = curves[5]["ratio_R"].copy()
    curves[5]["ratio_R"][row] += 2 * checks.RATIO_COLLAPSE_TOL
    bad = checks.check_ratio_collapse(curves, sweep.t_max)
    expect("ratio collapse rejects R(t) of N = 5 moved at one sample", bool(bad[5]))

    pair = replace(run.LONGRANGE_N6, name="selftest_peaks", channels=("dephasing",), t_max=2.5)
    emitted = run_small(pair)
    ring = checks.parse_csv(emitted[("dephasing", "nearest_neighbor", 6)])
    a2a = checks.parse_csv(emitted[("dephasing", "all_to_all", 6)])
    expect("peak order accepts fig7 dephasing", checks.check_peak_order(ring, a2a) == [])
    expect("peak order rejects swapped curves", checks.check_peak_order(a2a, ring) != [])


def test_byte_check() -> None:
    w = run.Scenario(
        "selftest_bytes", "fig2_dephasing_product", ("dephasing",), ("local",), (2,),
        run.FIG2, 0.5,
    )
    payload = run_small(w)[("dephasing", "local", 2)]
    other = moved(payload, 10, "coherence_per_site", 1e-3)

    def make_pass(index: int, body: bytes) -> run.Pass:
        entry = {
            "channel": "dephasing", "topology": "local", "n_sites": 2,
            "n_samples": body.count(b"\n") - 1, "sha256": checks.sha256(body),
        }
        config = dict(w.params, channels=["dephasing"], topologies=["local"],
                      n_sites_list=[2], t_max=w.t_max, dt_sample=run.DT_SAMPLE)
        p = run.Pass("full", run.OUT / "selftest" / f"full-{index}")
        p.manifests = {w.name: {"config": config, "runs": [entry]}}
        p.payloads = {(w.name, "dephasing", "local", 2): body}
        return p

    checker = run.Checker((w,), seed=0)
    _, failed, _ = checker.check([[make_pass(1, payload)], [make_pass(2, payload)]])
    expect("byte check accepts identical passes", failed == 0)
    _, failed, messages = checker.check([[make_pass(1, payload)], [make_pass(2, other)]])
    expect(
        "byte check rejects a run whose bytes differ between passes",
        failed == 1 and any("bytes differ" in m for m in messages),
    )


def test_generator(rng: np.random.Generator) -> None:
    from qbattery.dissipation import NoiseSpec, build_gamma
    from qbattery.evolution import liouvillian_rhs
    from qbattery.models import EffectiveCoupling, effective_hamiltonian

    p = run.LONGRANGE_N6.check_params()
    for channel in ("dephasing", "amplitude_damping"):
        for topology in ("nearest_neighbor", "all_to_all", "local"):
            for n in (2, 3):
                coupling = None
                if topology != "local":
                    kind = "ising_z" if channel == "dephasing" else "xx_dm"
                    strengths = (
                        {"j_z": p["j_z"]} if kind == "ising_z"
                        else {"j_xx": p["j_xx"], "d_dm": p["d_dm"]}
                    )
                    coupling = EffectiveCoupling(kind, interaction_range=topology, **strengths)
                spec = NoiseSpec(
                    channel, topology, p["gamma"],
                    0j if topology == "local" else p["gamma_offdiag"], coupling,
                )
                dim = 2**n
                h_eff = (
                    np.zeros((dim, dim), dtype=complex) if coupling is None
                    else effective_hamiltonian(coupling, n, periodic=True)
                )
                gamma = build_gamma(spec, n)
                lmat = checks.gksl_generator(channel, topology, n, p)
                worst = 0.0
                for _ in range(3):
                    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                    rho = a @ a.conj().T
                    rho /= np.trace(rho)
                    ours = (lmat @ rho.reshape(-1)).reshape(dim, dim)
                    theirs = liouvillian_rhs(h_eff, gamma, channel, rho)
                    worst = max(worst, float(np.max(np.abs(ours - theirs))))
                expect(
                    f"generator matches liouvillian_rhs: {channel} {topology} N={n} "
                    f"(max diff {worst:.1e})",
                    worst < 1e-12,
                )


def main() -> int:
    if not (run.SRC / "qbattery" / "cli.py").is_file():
        print(f"no qbattery sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    rng = np.random.default_rng(2024)
    test_run_checks(rng)
    test_cross_run_checks()
    test_byte_check()
    test_generator(rng)
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} self-test cases hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
