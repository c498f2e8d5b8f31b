"""Smoke tests: the example scripts run end to end at small sizes."""

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


@pytest.mark.parametrize("package_dir", ["/nonexistent", "src"])
def test_count_code_lines_refuses_a_directory_without_modules(package_dir):
    # `src` holds the package directory, not its modules
    proc = _run_script("count_code_lines.py", [package_dir], cwd=ROOT)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"no *.py files in {package_dir}" in proc.stderr.splitlines()[-1]
