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
        ("two_cell_closed_form_check.py", ["--field", "nan"], "--field"),
        ("two_cell_closed_form_check.py", ["--j-z", "inf"], "--j-z"),
        ("two_cell_closed_form_check.py", ["--offdiag-phase", "nan"], "--offdiag-phase"),
        ("two_cell_closed_form_check.py", ["--offdiag-modulus", "-1"], "--offdiag-modulus"),
        ("two_cell_closed_form_check.py", ["--offdiag-modulus", "nan"], "--offdiag-modulus"),
        ("peak_scaling_table.py", ["--field", "-inf"], "--field"),
        ("peak_scaling_table.py", ["--j-z", "nan"], "--j-z"),
        ("peak_scaling_table.py", ["--offdiag-phase", "inf"], "--offdiag-phase"),
        ("peak_scaling_table.py", ["--offdiag-modulus", "-0.5"], "--offdiag-modulus"),
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
