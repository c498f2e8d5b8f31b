"""Smoke tests: the example scripts run end to end at small sizes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(script, args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("peak_scaling_table.py", ["--n-max", "3", "--t-max", "0.5"]),
        ("two_cell_closed_form_check.py", ["--t-max", "0.5"]),
    ],
)
def test_script_exits_0(script, args):
    proc = _run_script(script, args)
    assert proc.returncode == 0, proc.stderr


def test_reproduce_figures_runs_one_preset(tmp_path):
    # run from tmp_path so that not even the default output root lands in
    # the repository
    out = tmp_path / "out"
    proc = _run_script(
        "reproduce_figures.py",
        ["--only", "fig2_dephasing_product", "--out", str(out)],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    run_dir = out / "fig2_dephasing_product"
    assert len(list(run_dir.glob("*.csv"))) == 5
    assert (run_dir / "fig2_dephasing_product_manifest.json").exists()
    assert "fig2_dephasing_product: 5 runs" in proc.stdout

    proc = _run_script(
        "reproduce_figures.py",
        ["--only", "nope", "--out", str(out)],
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "unknown preset 'nope'" in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_count_code_lines_totals_its_modules():
    proc = _run_script("count_code_lines.py", [])
    assert proc.returncode == 0, proc.stderr
    counts = {}
    for line in proc.stdout.splitlines():
        name, count = line.split()
        counts[name] = int(count.replace(",", ""))
    total = counts.pop("total")
    assert "scenarios.py" in counts
    assert total == sum(counts.values()) > 0


@pytest.mark.parametrize(
    "script, args, flag",
    [
        ("peak_scaling_table.py", ["--t-max", "0"], "--t-max"),
        ("peak_scaling_table.py", ["--n-max", "1"], "--n-max"),
        ("two_cell_closed_form_check.py", ["--t-max", "0"], "--t-max"),
        ("two_cell_closed_form_check.py", ["--gamma", "-1"], "--gamma"),
        ("two_cell_closed_form_check.py", ["--field", "nan"], "--field"),
        ("two_cell_closed_form_check.py", ["--j-z", "inf"], "--j-z"),
        ("two_cell_closed_form_check.py", ["--offdiag-phase", "nan"], "--offdiag-phase"),
        ("two_cell_closed_form_check.py", ["--offdiag-modulus", "-1"], "--offdiag-modulus"),
        ("two_cell_closed_form_check.py", ["--offdiag-modulus", "nan"], "--offdiag-modulus"),
        ("peak_scaling_table.py", ["--field", "-inf"], "--field"),
        ("peak_scaling_table.py", ["--j-z", "nan"], "--j-z"),
        ("peak_scaling_table.py", ["--offdiag-phase", "inf"], "--offdiag-phase"),
        ("peak_scaling_table.py", ["--offdiag-modulus", "-0.5"], "--offdiag-modulus"),
        ("reproduce_figures.py", ["--workers", "0"], "--workers"),
    ],
)
def test_script_refuses_a_bad_argument(script, args, flag):
    # refused by the argument parser, before anything is integrated or
    # printed
    proc = _run_script(script, args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    (error,) = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert f"argument {flag}:" in error


@pytest.mark.parametrize(
    "script, args, n",
    [
        ("two_cell_closed_form_check.py", ["--offdiag-modulus", "1"], None),
        ("peak_scaling_table.py", ["--offdiag-modulus", "1"], 2),
        # the two-cell ring's doubled bond admits 0.15, three cells do not
        ("peak_scaling_table.py", ["--offdiag-modulus", "0.15", "--n-max", "4"], 3),
    ],
)
def test_script_refuses_a_rate_matrix_that_is_not_cptp(script, args, n):
    # refused with the violated bound before anything is integrated or
    # printed, not with a CptpViolationError traceback
    proc = _run_script(script, args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    (error,) = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert "sufficient bound: gamma >= 2|gamma_offdiag|" in error
    assert error.endswith("violated")
    if n is not None:
        assert f"at N = {n}:" in error


@pytest.mark.parametrize("package_dir", ["/nonexistent", "src"])
def test_count_code_lines_refuses_a_directory_without_modules(package_dir):
    # `src` holds the package directory, not its modules
    proc = _run_script("count_code_lines.py", [package_dir], cwd=ROOT)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"no *.py files in {package_dir}" in proc.stderr.splitlines()[-1]


def _write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_csv_moves_reports_each_column(tmp_path):
    header = "t,W,ratio_R\n"
    old = {
        "same.csv": header + "0.00000000000e+00,1.00000000000e+00,\n",
        "run/moved.csv": header
        + "0.00000000000e+00,-2.50000000000e+00,\n"
        + "1.00000000000e-02,-2.49000000000e+00,4.00000000000e-01\n"
        + "2.00000000000e-02,-2.48000000000e+00,5.00000000000e-01\n",
    }
    new = dict(old)
    # W: one row 3 in its last digit (1e-11 for the column's largest
    # entry, -2.5), another 1; ratio_R: one row 2 in its last digit (1e-12)
    new["run/moved.csv"] = (
        header
        + "0.00000000000e+00,-2.50000000003e+00,\n"
        + "1.00000000000e-02,-2.49000000001e+00,4.00000000000e-01\n"
        + "2.00000000000e-02,-2.48000000000e+00,5.00000000002e-01\n"
    )
    _write_tree(tmp_path / "old", old)
    _write_tree(tmp_path / "new", new)
    proc = _run_script("csv_moves.py", [str(tmp_path / "old"), str(tmp_path / "new")])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    moved = os.path.join("run", "moved.csv")
    assert lines[0] == f"{moved}: W: 2/3 rows moved, max |d| 3e-11 (3 last digits)"
    assert lines[1] == f"{moved}: ratio_R: 1/3 rows moved, max |d| 2e-12 (2 last digits)"
    assert lines[2] == "same.csv: identical"
    assert lines[3:] == [
        "all files: W: 2 rows moved, max |d| 3e-11 (3 last digits)",
        "all files: ratio_R: 1 rows moved, max |d| 2e-12 (2 last digits)",
    ]


def test_csv_moves_reports_what_it_cannot_compare(tmp_path):
    header = "t,W\n"
    _write_tree(tmp_path / "old", {
        "a.csv": header + "0.0,1.0\n",
        "b.csv": header + "0.0,1.0\n",
        "gone.csv": header + "0.0,1.0\n",
    })
    _write_tree(tmp_path / "new", {
        "a.csv": header + "0.0,\n",
        "b.csv": header + "0.0,1.0\n1.0,1.0\n",
        "extra.csv": header + "0.0,1.0\n",
    })
    proc = _run_script("csv_moves.py", [str(tmp_path / "old"), str(tmp_path / "new")])
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "a.csv: W: 1/1 rows moved, max |d| inf (inf last digits)",
        "b.csv: header or row count differs",
        "extra.csv: only in the new tree",
        "gone.csv: only in the old tree",
        "all files: W: 1 rows moved, max |d| inf (inf last digits)",
    ]
    empty = tmp_path / "empty"
    empty.mkdir()
    proc = _run_script("csv_moves.py", [str(tmp_path / "old"), str(empty)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"no CSV files under {empty}" in proc.stderr.splitlines()[-1]


def test_csv_moves_compares_manifests_apart_from_timings(tmp_path):
    def manifest(start, wall, t_max, runs, **extra):
        return json.dumps({
            "scenario": "s", "created_utc": start, "total_wall_time_s": wall,
            "config": {"t_max": t_max, "n_sites_list": [2, 3]},
            "runs": runs, **extra,
        })

    def run(file, wall, build, min_eig, margins=0.0):
        return {
            "file": file, "wall_time_s": wall, "timing_s": {"build": build},
            "min_eigenvalue": min_eig, "margins": {"trace": margins},
        }

    csv = {"a.csv": "t,W\n0.0,1.0\n"}
    old_runs = [run("a.csv", 1.0, 0.1, -7.8e-17), run("b.csv", 2.0, 0.2, math.nan)]
    _write_tree(tmp_path / "old", {
        **csv,
        "s/s_manifest.json": manifest("2026-01-01", 3.0, 1.0, old_runs),
        "same/same_manifest.json": manifest("2026-01-01", 3.0, 1.0, old_runs),
        "short_manifest.json": manifest("2026-01-01", 3.0, 1.0, old_runs),
        "gone_manifest.json": manifest("2026-01-01", 3.0, 1.0, []),
    })
    # the start time, the total and per-run walls and every timing_s
    # differ everywhere, and NaN stays NaN
    new_runs = [run("a.csv", 1.5, 0.3, -8.2e-17), run("b.csv", 2.5, 0.1, math.nan, 1e-16)]
    same_runs = [run("a.csv", 1.5, 0.3, -7.8e-17), run("b.csv", 2.5, 0.1, math.nan)]
    _write_tree(tmp_path / "new", {
        **csv,
        "s/s_manifest.json": manifest("2026-02-02", 4.0, 2.0, new_runs, workers=2),
        "same/same_manifest.json": manifest("2026-02-02", 4.0, 1.0, same_runs),
        "short_manifest.json": manifest("2026-01-01", 3.0, 1.0, old_runs[:1]),
    })
    proc = _run_script("csv_moves.py", [str(tmp_path / "old"), str(tmp_path / "new")])
    assert proc.returncode == 1
    s = os.path.join("s", "s_manifest.json")
    same = os.path.join("same", "same_manifest.json")
    assert proc.stdout.splitlines() == [
        "a.csv: identical",
        "gone_manifest.json: only in the old tree",
        f"{s}: config.t_max: 1.0 -> 2.0",
        f"{s}: workers: absent -> 2",
        f"{s}: runs[0] a.csv: min_eigenvalue: -7.8e-17 -> -8.2e-17",
        f"{s}: runs[1] b.csv: margins.trace: 0.0 -> 1e-16",
        f"{same}: equal apart from timings",
        "short_manifest.json: run count differs",
    ]
