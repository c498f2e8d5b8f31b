"""Tests for the scenario layer: presets, configs, CSV/manifest contracts,
comparison utilities, the command-line interface, and the package's
public names."""

import ast
import dataclasses
import hashlib
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qbattery
from qbattery import (
    ConfigError,
    GridMismatchError,
    PRESETS,
    ScenarioConfig,
    compare_runs,
    config_from_mapping,
    get_preset,
    list_presets,
    load_config,
    parse_config_text,
    read_run_csv,
    run_scenario,
    validate_config,
)
from qbattery.evolution import (
    HERMITICITY_TOL,
    MIN_EIGENVALUE_TOL,
    TRACE_TOL,
)
from qbattery.scenarios import (
    CONFIG_KEYS,
    CSV_COLUMNS,
    INITIAL_STATES,
    SCHEMA,
    applied_offdiag_modulus,
    first_peak,
    precheck_cptp,
    run_filename,
    run_list,
)
from qbattery import cli, evolution, scenarios

PRESET_NAMES = (
    "fig2_dephasing_product",
    "fig3_dephasing_entangled",
    "fig4_dephasing_ratio",
    "fig5_ad_product",
    "fig6_ad_entangled",
    "fig6b_ad_ratio",
    "fig7_longrange_comparison",
)

FLOAT_RE = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


@pytest.fixture(scope="module")
def tiny_result(tmp_path_factory):
    """One fast real run (N = 2 dephasing ring, t_max = 0.2) shared by the
    format/manifest/determinism tests."""
    cfg = dataclasses.replace(
        get_preset("fig2_dephasing_product"), n_sites_list=(2,), t_max=0.2
    )
    out = tmp_path_factory.mktemp("tiny")
    return cfg, run_scenario(cfg, str(out))


class TestPresets:
    def test_exact_preset_catalog(self):
        assert tuple(PRESETS) == PRESET_NAMES
        listed = list_presets()
        assert [name for name, _ in listed] == list(PRESET_NAMES)

    def test_every_preset_validates(self):
        for name in PRESET_NAMES:
            assert validate_config(get_preset(name)) == []

    def test_descriptions_cite_their_parameters(self):
        for name, description in list_presets():
            cfg = get_preset(name)
            assert description, f"{name} has an empty description"
            assert "gamma=0.2" in description
            assert f"h={cfg.h:g}" in description

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            get_preset("fig1_nonexistent")

    def test_run_counts(self):
        assert len(run_list(get_preset("fig2_dephasing_product"))) == 5
        assert len(run_list(get_preset("fig4_dephasing_ratio"))) == 10
        assert len(run_list(get_preset("fig7_longrange_comparison"))) == 4

    def test_run_list_order_is_declaration_order(self):
        runs = run_list(get_preset("fig7_longrange_comparison"))
        assert runs == [
            ("dephasing", "nearest_neighbor", 6),
            ("dephasing", "all_to_all", 6),
            ("amplitude_damping", "nearest_neighbor", 6),
            ("amplitude_damping", "all_to_all", 6),
        ]


class TestConfigParsing:
    def test_key_value_text(self):
        mapping = parse_config_text(
            "# comment\n\nname = demo\n t_max = 2.5 \n"
        )
        assert mapping == {"name": "demo", "t_max": "2.5"}

    def test_malformed_lines_collected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("name = a\nno equals sign\nname = b\n = empty\n")
        messages = "\n".join(err.value.errors)
        assert "line 2" in messages
        assert "duplicate key 'name'" in messages
        assert "line 4" in messages

    def test_preset_base_with_overrides(self):
        cfg = config_from_mapping(
            {"preset": "fig2_dephasing_product", "n_sites": "2, 3", "t_max": "5"}
        )
        assert cfg.n_sites_list == (2, 3)
        assert cfg.t_max == 5.0
        # untouched fields come from the preset:
        assert cfg.gamma == 0.2
        assert cfg.j_z == 1.0

    def test_full_config_without_preset(self):
        cfg = config_from_mapping(
            {
                "name": "demo",
                "channel": "dephasing",
                "topology": "local",
                "n_sites": "1",
                "initial_state": "product_minus",
                "h": "1.0",
                "gamma": "0.2",
                "t_max": "1.0",
            }
        )
        assert cfg.name == "demo"
        assert cfg.channels == ("dephasing",)

    def test_missing_required_keys_all_listed(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"name": "x"})
        text = "\n".join(err.value.errors)
        for key in ("channel", "topology", "n_sites", "h", "gamma", "t_max"):
            assert f"{key}: required" in text

    def test_every_error_reported_in_one_pass(self):
        # Unknown key, unparsable value, and schema violation must all
        # appear in a single ConfigError.
        with pytest.raises(ConfigError) as err:
            config_from_mapping(
                {
                    "preset": "fig2_dephasing_product",
                    "typo_key": "1",
                    "gamma": "-1",
                    "initial_state": "bogus",
                }
            )
        text = "\n".join(err.value.errors)
        assert "typo_key: unknown key" in text
        assert "gamma:" in text and ">= 0" in text
        assert "initial_state:" in text and "bogus" in text

    def test_unparsable_value_message_names_key(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping(
                {"preset": "fig2_dephasing_product", "t_max": "twenty"}
            )
        assert any("t_max: could not parse" in e for e in err.value.errors)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "preset = fig5_ad_product\n"
            "topology = local\n"
            "n_sites = 2\n"
            "t_max = 0.5\n"
        )
        cfg = load_config(str(path))
        assert cfg.topologies == ("local",)
        assert cfg.channels == ("amplitude_damping",)

    def test_dt_internal_none_spelling(self):
        cfg = config_from_mapping(
            {"preset": "fig2_dephasing_product", "dt_internal": "none"}
        )
        assert cfg.dt_internal is None

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_round_trips_through_config_text(self, name):
        # every field written under its schema key, without a preset base,
        # so each key's parser is reached
        preset = get_preset(name)
        lines = []
        for field in dataclasses.fields(ScenarioConfig):
            value = getattr(preset, field.name)
            if value is None:
                text = "none"
            elif isinstance(value, tuple):
                text = ", ".join(str(v) for v in value)
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = value
            lines.append(f"{SCHEMA[field.name].key} = {text}")
        assert len(lines) == len(CONFIG_KEYS) == 17
        mapping = parse_config_text("\n".join(lines) + "\n")
        assert sorted(mapping) == sorted(CONFIG_KEYS)
        assert config_from_mapping(mapping) == preset

    def test_schema_has_one_entry_per_field_in_field_order(self):
        names = [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert list(SCHEMA) == names

    def test_readme_keys_match_the_schema(self):
        # the README's `Keys:` paragraph names every config key once and
        # exactly the initial states the schema accepts
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8"
        )
        match = re.search(r"^Keys: (.*?)\n\n", readme, re.M | re.S)
        assert match is not None
        paragraph = match.group(1)
        keys = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", paragraph))
        assert sorted(keys) == sorted(CONFIG_KEYS)
        states = re.search(r"`initial_state`\s*\(([^)]*)\)", paragraph)
        assert states is not None
        assert tuple(re.findall(r"`(\w+)`", states.group(1))) == INITIAL_STATES


class TestValidateConfig:
    def test_clean_config_has_no_errors(self):
        assert validate_config(get_preset("fig6_ad_entangled")) == []

    def test_each_violation_names_its_key(self):
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"),
            name="bad name with spaces",
            t_max=-1.0,
            gamma=-0.5,
            n_sites_list=(0, 2, 2),
        )
        errors = validate_config(cfg)
        keys = {e.split(":")[0] for e in errors}
        assert {"name", "t_max", "gamma", "n_sites"} <= keys

    NUMERIC_FIELDS = (
        "h", "gamma", "t_max", "j_prime", "gamma_offdiag_modulus",
        "gamma_offdiag_phase", "j_z", "j_xx", "d_dm", "dt_sample",
        "dt_internal",
    )

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_boolean_numbers_are_refused(self, field, flag):
        # a bool is an int to Python; each numeric field refuses it with
        # exactly one error under its own key
        cfg = dataclasses.replace(get_preset("fig5_ad_product"), **{field: flag})
        errors = validate_config(cfg)
        assert len(errors) == 1
        assert errors[0].startswith(f"{field}: ")
        assert repr(flag) in errors[0]

    def test_numeric_fields_are_every_real_field(self):
        hints = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}
        assert sorted(self.NUMERIC_FIELDS) == sorted(
            name for name, hint in hints.items() if "float" in str(hint)
        )

    def test_booleans_together_each_named_once(self):
        cfg = dataclasses.replace(
            get_preset("fig5_ad_product"),
            h=True, gamma=True, t_max=True, gamma_offdiag_phase=False,
        )
        keys = [e.split(":")[0] for e in validate_config(cfg)]
        assert sorted(keys) == ["gamma", "gamma_offdiag_phase", "h", "t_max"]

    def test_correlated_topology_rejects_single_cell(self):
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"), n_sites_list=(1, 2)
        )
        assert any("at least 2 cells" in e for e in validate_config(cfg))

    def test_site_cap(self):
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"), n_sites_list=(11,)
        )
        assert any("[1, 10]" in e for e in validate_config(cfg))

    def test_cell_counts_must_be_integers(self, tmp_path):
        # a float or a bool is refused, not truncated to 2 and 1
        cfg = dataclasses.replace(
            get_preset("fig5_ad_product"), n_sites_list=(2.7, True)
        )
        assert cfg.n_sites_list == (2.7, True)
        assert validate_config(cfg) == [
            "n_sites: each N must be an integer, got 2.7",
            "n_sites: each N must be an integer, got True",
        ]
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="got 2.7"):
            run_scenario(cfg, str(out))
        assert not out.exists()

    def test_config_file_cell_count_must_be_an_integer(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("preset = fig5_ad_product\nn_sites = 2, 2.7\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert [e.split(":")[0] for e in err.value.errors] == ["n_sites"]
        assert "2.7" in err.value.errors[0]

    def test_numpy_cell_counts_are_plain_ints(self, tmp_path):
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"),
            n_sites_list=(np.int64(2),),
            t_max=0.02,
        )
        assert validate_config(cfg) == []
        assert type(cfg.n_sites_list[0]) is int
        result = run_scenario(cfg, str(tmp_path / "out"))
        with open(result.manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert [e["n_sites"] for e in manifest["runs"]] == [2]


class TestRunArtifacts:
    def test_csv_filename_layout(self):
        assert (
            run_filename("demo", "dephasing", "nearest_neighbor", 4)
            == "demo_dephasing_nearest_neighbor_N4.csv"
        )

    def test_csv_header_and_number_format(self, tiny_result):
        _, result = tiny_result
        assert len(result.csv_paths) == 1
        raw = open(result.csv_paths[0], "rb").read()
        assert b"\r" not in raw  # LF only
        lines = raw.decode("utf-8").strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(CSV_COLUMNS)
            for field in fields[1:]:
                assert field == "" or FLOAT_RE.match(field), field

    def test_row_invariants(self, tiny_result):
        cfg, result = tiny_result
        data = read_run_csv(result.csv_paths[0])
        assert data["t"][0] == 0.0
        np.testing.assert_allclose(np.diff(data["t"]), cfg.dt_sample, atol=1e-9)
        # ergotropy is nonnegative up to round-off:
        assert np.all(data["ergotropy"] >= -1e-10)
        # stored energy is exactly W - W(0):
        np.testing.assert_allclose(
            data["stored_E"], data["W"] - data["W"][0], atol=1e-12
        )
        # ratio is empty (NaN) exactly where |stored| is below the floor:
        empty = np.isnan(data["ratio_R"])
        below = np.abs(data["stored_E"]) <= 1e-9
        np.testing.assert_array_equal(empty, below)
        assert empty[0]  # t = 0 row always has an empty ratio

    def test_manifest_contents(self, tiny_result):
        cfg, result = tiny_result
        manifest = json.load(open(result.manifest_path))
        assert manifest["scenario"] == cfg.name
        assert manifest["config"]["gamma"] == cfg.gamma
        assert manifest["config"]["gamma_offdiag"]["imag"] == pytest.approx(
            abs(cfg.gamma_offdiag) * np.sin(cfg.gamma_offdiag_phase)
        )
        (entry,) = manifest["runs"]
        assert entry["channel"] == "dephasing"
        assert entry["topology"] == "nearest_neighbor"
        assert entry["n_sites"] == 2
        # row count includes the t = 0 sample:
        assert entry["n_samples"] == int(round(cfg.t_max / cfg.dt_sample)) + 1
        assert entry["rk4_substeps_per_sample"] >= 1
        assert entry["propagation"] == "rk4_sample_map"
        assert entry["applied_gamma_offdiag_modulus"] == pytest.approx(0.01)
        sha = hashlib.sha256(open(result.csv_paths[0], "rb").read()).hexdigest()
        assert entry["sha256"] == sha
        margins = entry["invariant_margins"]
        assert set(margins) == {
            "max_trace_drift",
            "max_herm_drift",
            "min_eigenvalue",
        }
        assert 0.0 <= margins["max_trace_drift"] < TRACE_TOL
        assert 0.0 <= margins["max_herm_drift"] < HERMITICITY_TOL
        assert MIN_EIGENVALUE_TOL <= margins["min_eigenvalue"] <= 1.0
        # the window holds t = 0.18, 0.19 and 0.2, still moving
        assert entry["steady_window"] == 0.1 * cfg.t_max
        lower, upper = entry["steady_deviation"]
        assert 1e-3 < lower <= upper
        assert entry["converged"] is False

    @pytest.mark.parametrize(
        "preset", ["fig2_dephasing_product", "fig5_ad_product"]
    )
    def test_one_eigendecomposition_per_row(self, preset, tmp_path, monkeypatch):
        # The check's spectrum feeds the ergotropy: with one state a chunk,
        # one eigvalsh call per CSV row.  Two horizons cancel the fixed
        # set-up calls (rate-matrix admission, battery spectrum), which are
        # counted as well.
        monkeypatch.setattr(evolution, "CHECK_CHUNK_BYTES", 0)
        counts = self._eigvalsh_calls_per_horizon(preset, tmp_path, monkeypatch)
        (rows_a, calls_a), (rows_b, calls_b) = sorted(counts.items())
        assert rows_b - rows_a == 20
        assert calls_b - calls_a == rows_b - rows_a
        assert calls_a - rows_a == 3

    @pytest.mark.parametrize(
        "preset", ["fig2_dephasing_product", "fig5_ad_product"]
    )
    def test_one_eigendecomposition_per_chunk(self, preset, tmp_path, monkeypatch):
        # At N = 2 both horizons fit in one chunk: the three set-up calls,
        # the t = 0 sample and one stacked call for every later sample.
        counts = self._eigvalsh_calls_per_horizon(preset, tmp_path, monkeypatch)
        assert sorted(counts.values()) == [3 + 2, 3 + 2]

    @staticmethod
    def _eigvalsh_calls_per_horizon(preset, tmp_path, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        counts = {}
        for t_max in (0.1, 0.3):
            cfg = dataclasses.replace(
                get_preset(preset),
                topologies=("nearest_neighbor",),
                n_sites_list=(2,),
                t_max=t_max,
            )
            calls.clear()
            result = run_scenario(cfg, str(tmp_path / str(t_max)))
            (entry,) = result.manifest["runs"]
            counts[entry["n_samples"]] = len(calls)
        return counts

    @pytest.mark.parametrize(
        "preset, resolved",
        [("fig2_dephasing_product", "all"), ("fig5_ad_product", 1)],
    )
    def test_manifest_counts_parity_resolved_samples(
        self, preset, resolved, tmp_path
    ):
        # Dephasing from |->^N stays exactly flip-invariant, so every
        # sample is checked by parity blocks; amplitude damping breaks the
        # symmetry after t = 0.
        cfg = dataclasses.replace(
            get_preset(preset),
            topologies=("nearest_neighbor",),
            n_sites_list=(3,),
            t_max=0.3,
        )
        (entry,) = run_scenario(cfg, str(tmp_path)).manifest["runs"]
        expected = entry["n_samples"] if resolved == "all" else resolved
        assert entry["parity_resolved_samples"] == expected

    def test_ground_state_dephasing_is_parity_resolved(self, tmp_path):
        # the interacting ground state is exactly flip-invariant, and so is
        # every dephasing sample from it
        cfg = dataclasses.replace(
            get_preset("fig3_dephasing_entangled"),
            topologies=("nearest_neighbor",),
            n_sites_list=(3,),
            t_max=0.3,
        )
        (entry,) = run_scenario(cfg, str(tmp_path)).manifest["runs"]
        assert entry["parity_resolved_samples"] == entry["n_samples"]

    def test_manifest_counts_translation_resolved_samples(self, tmp_path):
        # From N = 7 on, ring and local dephasing samples from |->^N are
        # checked on their momentum blocks; all-to-all rates break the
        # shift symmetry after t = 0, and amplitude damping runs below the
        # cut-off size never take the path.
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"),
            topologies=("nearest_neighbor", "local", "all_to_all"),
            n_sites_list=(7,),
            t_max=0.2,
        )
        entries = run_scenario(cfg, str(tmp_path / "deph")).manifest["runs"]
        counts = {
            e["topology"]: (e["translation_resolved_samples"], e["n_samples"])
            for e in entries
        }
        assert counts == {
            "nearest_neighbor": (21, 21),
            "local": (21, 21),
            "all_to_all": (1, 21),
        }
        cfg = dataclasses.replace(
            get_preset("fig5_ad_product"),
            topologies=("nearest_neighbor",),
            n_sites_list=(3,),
            t_max=0.3,
        )
        (entry,) = run_scenario(cfg, str(tmp_path / "ad")).manifest["runs"]
        assert entry["translation_resolved_samples"] == 0

    def test_ring_dephasing_at_another_phase_is_translation_resolved(
        self, tmp_path
    ):
        # the dephasing generator is exactly shift-invariant for a ring at
        # any cross-rate phase, so every sample takes the momentum blocks
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"),
            topologies=("nearest_neighbor",),
            n_sites_list=(7,),
            gamma_offdiag_phase=0.7,
            t_max=0.5,
        )
        (entry,) = run_scenario(cfg, str(tmp_path)).manifest["runs"]
        assert entry["n_samples"] == 51
        assert entry["translation_resolved_samples"] == 51

    def test_manifest_records_the_shift_reduction(self, tmp_path):
        # ring and local damping from |->^N propagate one value per orbit
        # of the superoperator shift; all-to-all and dephasing runs
        # propagate vec(rho).  At N = 7 every ring damping sample is
        # exactly T-invariant and takes the momentum blocks.
        cfg = dataclasses.replace(
            get_preset("fig7_longrange_comparison"),
            channels=("amplitude_damping", "dephasing"),
            topologies=("nearest_neighbor", "all_to_all"),
            n_sites_list=(3,),
            t_max=0.1,
        )
        entries = run_scenario(cfg, str(tmp_path / "n3")).manifest["runs"]
        recorded = {
            (e["channel"], e["topology"]): (
                e["shift_reduced"], e["propagated_values"]
            )
            for e in entries
        }
        assert recorded == {
            ("amplitude_damping", "nearest_neighbor"): (True, 24),
            ("amplitude_damping", "all_to_all"): (False, 64),
            ("dephasing", "nearest_neighbor"): (False, 64),
            ("dephasing", "all_to_all"): (False, 64),
        }
        cfg = dataclasses.replace(
            get_preset("fig5_ad_product"),
            topologies=("nearest_neighbor",),
            n_sites_list=(7,),
            t_max=0.05,
        )
        (entry,) = run_scenario(cfg, str(tmp_path / "n7")).manifest["runs"]
        assert (entry["shift_reduced"], entry["propagated_values"]) == (True, 2344)
        assert entry["propagation"] == "rk4_sample_map"
        assert entry["translation_resolved_samples"] == entry["n_samples"] == 6

    def test_manifest_records_the_step_bytes(self, tmp_path):
        # fig7 at N = 3: a dephasing run's step is one factor of dim^2
        # complex entries, a damping run's its kept blocks (one of each
        # conjugate pair), fewer entries than the propagated vector squared
        cfg = dataclasses.replace(
            get_preset("fig7_longrange_comparison"),
            channels=("amplitude_damping", "dephasing"),
            topologies=("nearest_neighbor", "all_to_all"),
            n_sites_list=(3,),
            t_max=0.1,
        )
        entries = run_scenario(cfg, str(tmp_path)).manifest["runs"]
        assert len(entries) == 4
        for e in entries:
            assert e["propagation"] == "rk4_sample_map"
            if e["channel"] == "dephasing":
                assert e["step_bytes"] == 16 * 64
            else:
                assert 0 < e["step_bytes"] < 16 * e["propagated_values"] ** 2

    @pytest.mark.parametrize(
        "preset", ["fig2_dephasing_product", "fig5_ad_product"]
    )
    def test_manifest_records_build_and_sampling_time(self, preset, tmp_path):
        cfg = dataclasses.replace(
            get_preset(preset),
            topologies=("nearest_neighbor",),
            n_sites_list=(3,),
            t_max=0.3,
        )
        (entry,) = run_scenario(cfg, str(tmp_path)).manifest["runs"]
        timing = entry["timing_s"]
        assert set(timing) == {
            "build", "propagate", "check", "sampling", "observables", "io"
        }
        assert all(seconds >= 0.0 for seconds in timing.values())
        assert timing["sampling"] > 0.0
        assert timing["build"] + timing["sampling"] <= entry["wall_time_s"] + 1e-3
        # each is rounded to 1e-6 s
        assert timing["propagate"] + timing["check"] <= timing["sampling"] + 2e-6
        if cfg.channels == ("amplitude_damping",):
            # the sparse generator and its block map are built
            assert timing["build"] > 0.0

    def test_reruns_are_byte_identical(self, tiny_result, tmp_path):
        cfg, result = tiny_result
        rerun = run_scenario(cfg, str(tmp_path))
        assert (
            open(result.csv_paths[0], "rb").read()
            == open(rerun.csv_paths[0], "rb").read()
        )
        assert (
            result.manifest["runs"][0]["sha256"]
            == rerun.manifest["runs"][0]["sha256"]
        )

    def test_worker_pool_output_identical(self, tmp_path):
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"),
            n_sites_list=(2, 3),
            t_max=0.1,
        )
        serial = run_scenario(cfg, str(tmp_path / "serial"), workers=1)
        pooled = run_scenario(cfg, str(tmp_path / "pooled"), workers=2)
        assert [os.path.basename(p) for p in serial.csv_paths] == [
            os.path.basename(p) for p in pooled.csv_paths
        ]
        for a, b in zip(serial.csv_paths, pooled.csv_paths):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_worker_pool_is_no_larger_than_the_run_count(
        self, tmp_path, monkeypatch
    ):
        # a fork-started pool starts every worker it is given at the first
        # submit; an in-process stand-in records the size it was given, so
        # this test starts no process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(
            scenarios.concurrent.futures, "ProcessPoolExecutor", InProcessPool
        )
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"),
            n_sites_list=(2, 3),
            t_max=0.1,
        )
        assert len(run_list(cfg)) == 2
        serial = run_scenario(cfg, str(tmp_path / "serial"), workers=1)
        pooled = run_scenario(cfg, str(tmp_path / "pooled"), workers=3)
        assert sizes == [2]
        assert pooled.manifest["workers"] == 3
        for a, b in zip(serial.csv_paths, pooled.csv_paths, strict=True):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_ground_state_is_diagonalised_once_per_size(
        self, tmp_path, monkeypatch
    ):
        # precheck_ground_state diagonalises each N once and hands the
        # state to every run of that N, in worker processes too
        cfg = dataclasses.replace(
            get_preset("fig6_ad_entangled"), n_sites_list=(2, 3), t_max=0.1
        )
        assert cfg.initial_state == "ground_interacting"
        assert len(cfg.topologies) == 2
        real, parent, calls = scenarios.ground_state, os.getpid(), []

        def counted(h_matrix):
            assert os.getpid() == parent, "a worker diagonalised"
            calls.append(h_matrix.shape[0])
            return real(h_matrix)

        monkeypatch.setattr(scenarios, "ground_state", counted)
        serial = run_scenario(cfg, str(tmp_path / "serial"), workers=1)
        assert sorted(calls) == [4, 8]
        pooled = run_scenario(cfg, str(tmp_path / "pooled"), workers=2)
        assert sorted(calls) == [4, 4, 8, 8]
        assert len(serial.csv_paths) == len(pooled.csv_paths) == 4
        for a, b in zip(serial.csv_paths, pooled.csv_paths):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_local_damping_saturates_with_size(self, tmp_path):
        # Local amplitude damping drives every cell into its dark state;
        # the stored ergotropy flattens out at an N-dependent value
        # (N h / 2 in the long-time limit).
        cfg = dataclasses.replace(
            get_preset("fig5_ad_product"),
            topologies=("local",),
            n_sites_list=(2, 3),
        )
        result = run_scenario(cfg, str(tmp_path))
        finals = {}
        for path, entry in zip(result.csv_paths, result.manifest["runs"]):
            data = read_run_csv(path)
            tail = data["ergotropy"][data["t"] >= 36.0]
            n = entry["n_sites"]
            assert tail.max() - tail.min() < 0.02  # flattening tail
            finals[n] = data["ergotropy"][-1]
            assert finals[n] == pytest.approx(n * cfg.h / 2.0, rel=0.05)
        assert finals[3] > finals[2]


class TestAutoCptp:
    def _fig7_all_to_all(self, modulus: float) -> ScenarioConfig:
        return dataclasses.replace(
            get_preset("fig7_longrange_comparison"),
            topologies=("all_to_all",),
            gamma_offdiag_modulus=modulus,
            t_max=0.2,
        )

    def test_valid_rate_is_never_scaled(self):
        # |g12| = 0.06 at phase pi/3 violates the sufficient bound but is
        # genuinely PSD at N = 6, so auto-scaling must leave it alone.
        cfg = self._fig7_all_to_all(0.06)
        assert applied_offdiag_modulus(cfg, "all_to_all", 6, auto_cptp=True) == (
            pytest.approx(0.06)
        )

    def test_invalid_rate_scaled_to_diagonal_dominance(self):
        cfg = self._fig7_all_to_all(0.3)
        applied = applied_offdiag_modulus(cfg, "all_to_all", 6, auto_cptp=True)
        assert applied == pytest.approx(cfg.gamma / 5.0)  # 0.04

    def test_without_flag_precheck_fails(self):
        from qbattery import CptpViolationError

        cfg = self._fig7_all_to_all(0.3)
        with pytest.raises(CptpViolationError):
            precheck_cptp(cfg, auto_cptp=False)

    def test_scaled_run_records_applied_value(self, tmp_path):
        cfg = self._fig7_all_to_all(0.3)
        result = run_scenario(cfg, str(tmp_path), auto_cptp=True)
        for entry in result.manifest["runs"]:
            assert entry["applied_gamma_offdiag_modulus"] == pytest.approx(0.04)

    def test_nearest_neighbor_is_never_rescued(self):
        # Auto-scaling is a long-range remedy only; an invalid ring rate
        # still hard-fails.
        from qbattery import CptpViolationError

        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"),
            gamma_offdiag_modulus=0.3,
            n_sites_list=(3,),
            t_max=0.1,
        )
        with pytest.raises(CptpViolationError):
            precheck_cptp(cfg, auto_cptp=True)

    def test_local_topology_reports_zero_modulus(self):
        cfg = dataclasses.replace(
            get_preset("fig5_ad_product"), topologies=("local",)
        )
        assert applied_offdiag_modulus(cfg, "local", 3, auto_cptp=False) == 0.0


class TestCompareRuns:
    @staticmethod
    def _write_csv(path, t, values, column="ergotropy"):
        idx = CSV_COLUMNS.index(column)
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for ti, vi in zip(t, values):
                row = [f"{ti:.11e}"] + ["1.00000000000e+00"] * 5
                if vi is None:
                    row[idx] = ""
                else:
                    row[idx] = f"{vi:.11e}"
                fh.write(",".join(row) + "\n")
        return str(path)

    def test_identical_files_have_zero_diff(self, tiny_result):
        _, result = tiny_result
        path = result.csv_paths[0]
        report = compare_runs(path, path, column="ergotropy", mode="max_abs_diff")
        assert report.max_abs_diff == 0.0
        assert report.n_compared > 0

    def test_max_abs_diff_crafted(self, tmp_path):
        t = np.arange(5) * 0.1
        a = self._write_csv(tmp_path / "a.csv", t, [0.0, 1.0, 2.0, 1.0, 0.0])
        b = self._write_csv(tmp_path / "b.csv", t, [0.0, 1.5, 1.0, 1.0, 0.2])
        report = compare_runs(a, b, column="ergotropy", mode="max_abs_diff")
        assert report.max_abs_diff == pytest.approx(1.0)

    def test_window_restricts_samples(self, tmp_path):
        t = np.arange(5) * 0.1
        a = self._write_csv(tmp_path / "a.csv", t, [9.0, 1.0, 2.0, 1.0, 9.0])
        b = self._write_csv(tmp_path / "b.csv", t, [0.0, 1.1, 2.1, 1.1, 0.0])
        report = compare_runs(
            a, b, column="ergotropy", mode="max_abs_diff", window=(0.1, 0.3)
        )
        assert report.n_compared == 3
        assert report.max_abs_diff == pytest.approx(0.1)

    def test_transient_dominance_and_first_peaks(self, tmp_path):
        t = np.arange(6) * 0.1
        a = self._write_csv(tmp_path / "a.csv", t, [0, 3.0, 5.0, 2.0, 1.0, 0.5])
        b = self._write_csv(tmp_path / "b.csv", t, [0, 2.0, 3.0, 2.5, 1.5, 1.0])
        report = compare_runs(
            a, b, column="ergotropy", mode="transient_dominance"
        )
        assert report.dominance_fraction == pytest.approx(2.0 / 6.0)
        assert report.first_peak_a == (pytest.approx(0.2), pytest.approx(5.0))
        assert report.first_peak_b == (pytest.approx(0.2), pytest.approx(3.0))

    def test_empty_fields_are_excluded(self, tmp_path):
        t = np.arange(4) * 0.1
        a = self._write_csv(
            tmp_path / "a.csv", t, [None, 1.0, 2.0, 3.0], column="ratio_R"
        )
        b = self._write_csv(
            tmp_path / "b.csv", t, [None, 1.0, 2.5, 3.0], column="ratio_R"
        )
        report = compare_runs(a, b, column="ratio_R", mode="max_abs_diff")
        assert report.n_compared == 3
        assert report.max_abs_diff == pytest.approx(0.5)

    def test_grid_mismatch_raises(self, tmp_path):
        a = self._write_csv(tmp_path / "a.csv", np.arange(4) * 0.1, [0, 1, 2, 3])
        b = self._write_csv(tmp_path / "b.csv", np.arange(5) * 0.1, [0, 1, 2, 3, 4])
        with pytest.raises(GridMismatchError, match="grids differ"):
            compare_runs(a, b, column="ergotropy", mode="max_abs_diff")

    def test_unknown_column_and_mode(self, tmp_path):
        a = self._write_csv(tmp_path / "a.csv", [0.0], [1.0])
        with pytest.raises(ValueError, match="unknown column"):
            compare_runs(a, a, column="t", mode="max_abs_diff")
        with pytest.raises(ValueError, match="unknown mode"):
            compare_runs(a, a, column="W", mode="average")

    def test_read_run_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,W\n0,1\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_run_csv(str(path))


class TestFirstPeak:
    def test_interior_peak(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([0.0, 2.0, 1.0, 3.0])
        assert first_peak(t, v) == (1.0, 2.0)

    def test_monotone_falls_back_to_max(self):
        t = np.array([0.0, 1.0, 2.0])
        v = np.array([0.0, 1.0, 2.0])
        assert first_peak(t, v) == (2.0, 2.0)

    def test_nan_skipped(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([np.nan, 1.0, 5.0, 1.0])
        assert first_peak(t, v) == (2.0, 5.0)


class TestCli:
    def test_list_presets(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESET_NAMES:
            assert name in out

    def test_run_config_file(self, tmp_path, capsys):
        path = tmp_path / "demo.cfg"
        path.write_text(
            "preset = fig2_dephasing_product\nn_sites = 2\nt_max = 0.1\n"
        )
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "manifest:" in out
        assert "parity-resolved=11, translation-resolved=0 of 11 samples" in out
        assert (out_dir / "fig2_dephasing_product_manifest.json").exists()

    def test_run_preset_name_with_overrides(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "run",
                "fig2_dephasing_product",
                "--out",
                str(out_dir),
                "--tmax",
                "0.05",
            ]
        )
        assert code == 0
        assert len(list(out_dir.glob("*.csv"))) == 5

    def test_run_unknown_target_exits_2(self, capsys):
        assert cli.main(["run", "no_such_preset"]) == 2
        assert "neither a preset" in capsys.readouterr().err

    def test_run_invalid_config_exits_2_listing_keys(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "preset = fig2_dephasing_product\n"
            "typo_key = 1\n"
            "gamma = -1\n"
            "initial_state = bogus\n"
            "integrator = fixed_step_rk4\n"
        )
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "typo_key" in err and "gamma" in err and "initial_state" in err
        # the RK4 integrator is the only one, so the key is gone
        assert "integrator: unknown key" in err

    def test_run_cptp_violation_exits_3_naming_bound(self, tmp_path, capsys):
        path = tmp_path / "hot.cfg"
        path.write_text(
            "preset = fig2_dephasing_product\n"
            "gamma = 0.01\n"
            "gamma_offdiag_modulus = 0.02\n"
            "n_sites = 2\nt_max = 0.1\n"
        )
        assert cli.main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert "complete-positivity violation" in err
        assert "gamma >= 2|gamma_offdiag|" in err

    def test_auto_cptp_flag_rescues_long_range(self, tmp_path, capsys):
        path = tmp_path / "lr.cfg"
        path.write_text(
            "preset = fig7_longrange_comparison\n"
            "topology = all_to_all\n"
            "gamma_offdiag_modulus = 0.3\n"
            "t_max = 0.1\n"
        )
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 3
        assert (
            cli.main(
                ["run", str(path), "--out", str(out_dir), "--auto-cptp"]
            )
            == 0
        )
        manifest = json.load(
            open(out_dir / "fig7_longrange_comparison_manifest.json")
        )
        for entry in manifest["runs"]:
            assert entry["applied_gamma_offdiag_modulus"] == pytest.approx(0.04)

    def test_runaway_integration_exits_4(self, tmp_path, capsys):
        # A deliberately unstable step (one RK4 step per sample against a
        # stiff rate) blows past the state invariants at the first sample.
        path = tmp_path / "blowup.cfg"
        path.write_text(
            "name = blowup\n"
            "channel = dephasing\n"
            "topology = local\n"
            "n_sites = 1\n"
            "initial_state = product_minus\n"
            "h = 1\n"
            "gamma = 50\n"
            "t_max = 1\n"
            "dt_sample = 1\n"
            "dt_internal = 1\n"
        )
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "state-invariant violation" in capsys.readouterr().err

    def test_validate_command(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text("preset = fig5_ad_product\n")
        assert cli.main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "8 runs" in out

    def test_sample_bound_refused_by_validate_and_run(self, tmp_path, capsys):
        # 2,000,000 samples: both subcommands report it under t_max and
        # exit 2 before any output directory is made
        path = tmp_path / "long.cfg"
        path.write_text(
            "preset = fig2_dephasing_product\nn_sites = 2\n"
            "t_max = 20000\ndt_sample = 0.01\n"
        )
        out_dir = tmp_path / "out"
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        assert cli.main(
            ["run", "fig2_dephasing_product", "--tmax", "20000",
             "--out", str(out_dir)]
        ) == 2
        err = capsys.readouterr().err
        assert err.count(
            f"t_max: t_max / dt_sample exceeds {evolution.MAX_SAMPLES} samples"
        ) == 3
        assert not out_dir.exists()

    def test_cptp_refusal_by_validate_and_run_makes_no_directory(
        self, tmp_path, capsys
    ):
        path = tmp_path / "hot.cfg"
        path.write_text(
            "preset = fig2_dephasing_product\ngamma = 0.01\n"
            "n_sites = 3\nt_max = 0.05\n"
        )
        out_dir = tmp_path / "out"
        assert cli.main(["validate", str(path)]) == 3
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.count("complete-positivity violation") == 2
        assert not out_dir.exists()

    def test_degenerate_ground_level_refused_by_validate_and_run(
        self, tmp_path, capsys
    ):
        # h = 0 leaves only the zz term, whose ground level is degenerate
        path = tmp_path / "flat.cfg"
        path.write_text(
            "preset = fig3_dephasing_entangled\nh = 0\n"
            "n_sites = 3, 2\nt_max = 0.05\n"
        )
        out_dir = tmp_path / "out"
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert "passes validation" not in captured.out
        assert captured.err.count("ground level is degenerate") == 2
        assert not out_dir.exists()

    def test_validate_missing_file_exits_2(self, capsys):
        assert cli.main(["validate", "/nonexistent/path.cfg"]) == 2

    def test_compare_command(self, tiny_result, capsys):
        _, result = tiny_result
        path = result.csv_paths[0]
        code = cli.main(
            [
                "compare",
                path,
                path,
                "--column",
                "ergotropy",
                "--mode",
                "transient_dominance",
                "--window",
                "0",
                "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dominance_fraction=0.000000" in out
        assert "first_peak_a=" in out

    def test_compare_grid_mismatch_exits_2(self, tmp_path, capsys):
        a = TestCompareRuns._write_csv(
            tmp_path / "a.csv", np.arange(3) * 0.1, [0, 1, 2]
        )
        b = TestCompareRuns._write_csv(
            tmp_path / "b.csv", np.arange(4) * 0.1, [0, 1, 2, 3]
        )
        assert cli.main(["compare", a, b, "--column", "W", "--mode", "max_abs_diff"]) == 2


class TestChunkedSampling:
    @pytest.mark.parametrize(
        "preset, t_max",
        [("fig2_dephasing_product", 0.6), ("fig5_ad_product", 1.0)],
    )
    def test_chunk_size_does_not_change_the_bytes(
        self, preset, t_max, tmp_path, monkeypatch
    ):
        # fig2 on all three topologies at N = 2..6 and fig5 at N = 2..5; at
        # N = 5 and 6 the default chunk (16 and 4 states) splits the run.
        topologies = (
            ("nearest_neighbor", "all_to_all", "local")
            if preset == "fig2_dephasing_product"
            else None
        )
        cfg = dataclasses.replace(get_preset(preset), t_max=t_max)
        if topologies is not None:
            cfg = dataclasses.replace(cfg, topologies=topologies)
        chunked = run_scenario(cfg, str(tmp_path / "chunked"))
        monkeypatch.setattr(evolution, "CHECK_CHUNK_BYTES", 0)
        single = run_scenario(cfg, str(tmp_path / "single"))
        assert len(chunked.csv_paths) == len(run_list(cfg))
        for a, b in zip(chunked.csv_paths, single.csv_paths):
            assert open(a, "rb").read() == open(b, "rb").read()
        for a, b in zip(chunked.manifest["runs"], single.manifest["runs"]):
            for key in (
                "converged", "propagation", "n_samples", "invariant_margins",
                "parity_resolved_samples", "translation_resolved_samples",
            ):
                assert a[key] == b[key]


class TestSteadyState:
    def test_one_sample_window_is_not_converged(self, tmp_path):
        # t_max = 0.01: the window (0.001) holds the final sample alone
        cfg = dataclasses.replace(
            get_preset("fig5_ad_product"), n_sites_list=(2,), t_max=0.01
        )
        for entry in run_scenario(cfg, str(tmp_path)).manifest["runs"]:
            assert entry["converged"] is False
            assert entry["steady_deviation"] == [0.0, 0.0]

    def test_peak_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # ring dephasing at N = 6: windows of 21 and 81 states of 64 KiB, so
        # a buffer of the window's states would add 3.8 MiB at t_max = 8;
        # the running bounds hold three states at either horizon
        def peak(t_max):
            cfg = dataclasses.replace(
                get_preset("fig2_dephasing_product"),
                n_sites_list=(6,),
                t_max=t_max,
            )
            tracemalloc.start()
            try:
                run_scenario(cfg, str(tmp_path / str(t_max)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.1)  # fill the module caches (shift orbits) first
        state = 16 * 64 * 64
        assert peak(8.0) - peak(2.0) < 3 * state


class TestLogging:
    def test_run_logs_progress_and_prints_nothing(self, tmp_path, capsys, caplog):
        cfg = dataclasses.replace(
            get_preset("fig2_dephasing_product"),
            topologies=("nearest_neighbor", "local"),
            n_sites_list=(2,),
            t_max=0.1,
        )
        with caplog.at_level("INFO", logger="qbattery"):
            run_scenario(cfg, str(tmp_path))
        assert capsys.readouterr().out == ""
        records = [r for r in caplog.records if r.name == "qbattery"]
        assert [r.levelname for r in records] == ["INFO"] * 4
        messages = [r.getMessage() for r in records]
        assert messages[0] == "run dephasing nearest_neighbor N=2: 11 samples"
        assert re.fullmatch(
            r"run dephasing nearest_neighbor N=2: 11 samples in \d+\.\d{3} s",
            messages[1],
        )
        assert messages[2] == "run dephasing local N=2: 11 samples"
        assert messages[3].startswith("run dephasing local N=2: 11 samples in ")

    def test_library_configures_no_handler(self):
        import logging

        assert logging.getLogger("qbattery").handlers == []


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        missing = [n for n in qbattery.__all__ if not hasattr(qbattery, n)]
        assert missing == []
        assert len(set(qbattery.__all__)) == len(qbattery.__all__)

    def test_test_references_are_not_exported(self):
        # the literal generator, the dense jump operators and the
        # brute-force oracle live with the tests (tests/reference_impls.py)
        for name in (
            "dissipator_apply",
            "jump_operators",
            "liouvillian_rhs",
            "ergotropy_bruteforce_oracle",
        ):
            assert name not in qbattery.__all__
            assert not hasattr(qbattery, name)

    def test_no_unused_imports(self):
        # no linter is installed, so this is pyflakes' F401 by hand: every
        # name a package module imports is referenced in it or listed in
        # its __all__, unless the alias's own line says `# noqa: F401`
        unused = []
        for path in sorted(Path(qbattery.__file__).parent.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            tree = ast.parse(source)
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                ):
                    used |= set(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name in used or "# noqa: F401" in lines[alias.lineno - 1]:
                        continue
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
        assert unused == []
