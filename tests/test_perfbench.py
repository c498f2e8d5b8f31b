"""The benchmark's independent output checks accept the program's output,
and its traced pass still reads the per-sample maps.

perfbench/selftest.py runs small scenarios of the program and holds their
CSVs against numbers computed apart from it, so a change that the
benchmark would reject fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert proc.returncode == 0, "\n".join(failed) or proc.stderr[-2000:]


def test_traced_pass_keeps_the_map_statistics(tmp_path):
    # fig7 damping at N = 7: the ring run takes the shift-reduced map and
    # all-to-all the substep loop.  The traced pass reads the map's size
    # from the step that sample_map returns, so a change to how the step
    # is built must keep these statistics.
    config = tmp_path / "damping_n7.cfg"
    config.write_text(
        "preset = fig7_longrange_comparison\n"
        "name = damping_n7\n"
        "channel = amplitude_damping\n"
        "topology = nearest_neighbor, all_to_all\n"
        "n_sites = 7\n"
        "t_max = 0.03\n"
    )
    spans, out_dir = tmp_path / "spans.json", tmp_path / "out"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "--trace", str(spans),
         "run", str(config), "--out", str(out_dir)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    manifest = json.loads((out_dir / "damping_n7_manifest.json").read_text())
    paths = {e["topology"]: e["propagation"] for e in manifest["runs"]}
    assert paths == {
        "nearest_neighbor": "rk4_sample_map",
        "all_to_all": "rk4_substep_loop",
    }
    stats = json.loads(spans.read_text())["stats"]
    assert stats["map_bytes"] == 5_615_360
    assert stats["map_blocks"] == 5
    assert stats["largest_block"] == 143


def test_untraced_pass_stamps_every_sample(tmp_path):
    # The untraced pass times each sample as evolve_stream yields it, and
    # perfbench/run.py refuses a pass unless every run's stamps, less the
    # one at the stream's end, number its manifest's n_samples.
    config = tmp_path / "fig7_short.cfg"
    config.write_text(
        "preset = fig7_longrange_comparison\n"
        "name = fig7_short\n"
        "topology = all_to_all\n"
        "n_sites = 3\n"
        "t_max = 0.2\n"
    )
    stamps_path, out_dir = tmp_path / "stamps.json", tmp_path / "out"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "--stamps", str(stamps_path),
         "run", str(config), "--out", str(out_dir)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    manifest = json.loads((out_dir / "fig7_short_manifest.json").read_text())
    stamps = json.loads(stamps_path.read_text())
    rows = [entry["n_samples"] for entry in manifest["runs"]]
    assert len(rows) == 2
    assert [len(s) - 1 for s in stamps] == rows
