"""Config-driven experiment runner: presets, sweeps, CSV + manifest emission.

A scenario declares a battery experiment as data: channel(s), reservoir
topology(ies), a sweep over cell counts N, the initial state, and the
physical rates and couplings.  Running a scenario integrates the master
equation for every (channel, topology, N) combination and emits one CSV
time series per run plus a JSON manifest describing exactly what was run.

Seven built-in presets cover the standard figure experiments (correlated
vs local dephasing and amplitude damping from product and interacting
ground states, plus the nearest-neighbor vs all-to-all comparison).  They
are two base experiments, correlated dephasing and correlated amplitude
damping from |->^N on one shared reservoir stated once, and five presets
that each replace only the fields in which they differ from a base.  User
config files are flat `key = value` text that either starts from a preset
and overrides individual keys or specifies a scenario from scratch.

The config schema is stated once, in SCHEMA: one entry per ScenarioConfig
field giving its config-file key, the parser of the key's text and the
rule its value must pass.  The key map CONFIG_KEYS is derived from it, a
field without a default is a required key when no preset is given, and
the time-grid fields (t_max, dt_sample, dt_internal) are checked by
qbattery.evolution.time_grid_errors, the rules EvolutionConfig raises
from.  validate_config reports every broken rule, one message each.

Artifact choices, documented here rather than hidden in code: sampling is
dt_sample = 0.01 throughout; dephasing presets stop at t_max = 20 and
amplitude-damping presets at t_max = 40 (saturation is slow), except that
the interacting-ground amplitude-damping preset runs to t_max = 100 and
the range-comparison preset to t_max = 60 so the correlated and local
(respectively all-to-all and nearest-neighbor) curves lie close on a
plot at the end of the window.  That is not the manifest's `converged`,
an entrywise 1e-6 test over the last 10 % of t_max, which at these
horizons only the two fig7 dephasing runs pass.

CSV format: header `t,W,ergotropy,stored_E,ratio_R,coherence_per_site`,
12 significant digits, UTF-8, LF line endings.  The ratio_R field is empty
(not zero) exactly where |stored_E| <= 1e-9, e.g. at t = 0.  Re-running a
scenario reproduces its CSVs byte-identically; the manifest records a
sha256 content hash per file to make that checkable.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import math
import os
import re
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from datetime import datetime, timezone
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .dissipation import (
    CHANNELS,
    TOPOLOGIES,
    NoiseSpec,
    build_gamma,
    require_cptp,
    validate_cptp,
)
from .evolution import (
    EvolutionConfig,
    evolve_stream,
    finite_real,
    resolve_time_grid,
    time_grid_errors,
    # evolve_stream decides convergence itself; the name stays importable
    # here because perfbench/child.py wraps it by this path
    steady_state_probe,  # noqa: F401
)
from .models import (
    BatteryModel,
    EffectiveCoupling,
    battery_hamiltonian,
    # evolve_stream derives H_eff from the NoiseSpec; the name stays
    # importable here because perfbench/child.py wraps it by this path
    effective_hamiltonian,  # noqa: F401
    field_product_eigenbasis,
    ground_state,
    product_minus_state,
)
from .observables import (
    bit_flip_terms,
    coherence_l1_energy_basis,
    energy_eigenbasis,
    ergotropy,
    extraction_ratio,
    symmetric_basis,
)

CSV_COLUMNS = ("t", "W", "ergotropy", "stored_E", "ratio_R", "coherence_per_site")
COMPARE_MODES = ("max_abs_diff", "transient_dominance")
INITIAL_STATES = ("product_minus", "ground_interacting")
MAX_SITES = 10

_LOG = logging.getLogger("qbattery")

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")


class ConfigError(ValueError):
    """Scenario configuration failed schema validation.

    Attributes:
        errors: one message per offending key or field.
    """

    def __init__(self, errors: list[str], source: str = "config") -> None:
        self.errors = list(errors)
        super().__init__(
            f"invalid {source}: " + "; ".join(self.errors)
        )


class GridMismatchError(ValueError):
    """Two run CSVs do not share a time grid and cannot be compared."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete declaration of one scenario.

    The three sweep fields (channels, topologies, n_sites_list) multiply
    out: one run — and one CSV — per combination, in declaration order.
    In flat config files they are comma-separated lists; SCHEMA gives
    every field's config-file key.

    Attributes:
        name: scenario name, used as the CSV/manifest filename stem.
        channels: subset of {dephasing, amplitude_damping}.
        topologies: subset of {local, nearest_neighbor, all_to_all}.
        n_sites_list: cell counts N to sweep, integers (a numpy integer is
            stored as int; validate_config refuses anything else).
        initial_state: "product_minus" (|-> on every cell) or
            "ground_interacting" (unique ground state of the battery
            Hamiltonian, which requires a nondegenerate ground level).
        h: battery field strength.
        j_prime: battery zz coupling strength.
        gamma: local dissipation rate.
        gamma_offdiag_modulus / gamma_offdiag_phase: cross-site rate
            written as modulus * exp(i * phase), phase in radians.
        j_z: induced Ising coupling used by dephasing runs.
        j_xx, d_dm: symmetric and antisymmetric parts of the complex
            hopping j_xx + i * d_dm used by amplitude-damping runs.
        t_max, dt_sample: sampling grid of the emitted time series.
        dt_internal: RK4 substep; None selects the evolver default.
        description: one-line human summary (shown by list_presets).
    """

    name: str
    channels: tuple[str, ...]
    topologies: tuple[str, ...]
    n_sites_list: tuple[int, ...]
    initial_state: str
    h: float
    gamma: float
    t_max: float
    j_prime: float = 0.0
    gamma_offdiag_modulus: float = 0.0
    gamma_offdiag_phase: float = 0.0
    j_z: float = 0.0
    j_xx: float = 0.0
    d_dm: float = 0.0
    dt_sample: float = 0.01
    dt_internal: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        # lists and arrays become tuples; a single value (a str would split
        # into its characters, a 0-d array has no axis to iterate) is kept
        # as given for the sweep rule to refuse
        for name in ("channels", "topologies", "n_sites_list"):
            values = getattr(self, name)
            single = isinstance(values, str) or getattr(values, "ndim", 1) == 0
            if isinstance(values, Iterable) and not single:
                items = (int(v) if isinstance(v, np.integer) else v for v in values)
                object.__setattr__(self, name, tuple(items))

    @property
    def gamma_offdiag(self) -> complex:
        """Cross-site rate as a complex number, before any --auto-cptp
        scaling: the rate of every correlated run that is not scaled."""
        return _cross_rate(self.gamma_offdiag_modulus, self.gamma_offdiag_phase)


def _cross_rate(modulus: float, phase: float) -> complex:
    """The cross-site rate modulus * e^{i phase} of a NoiseSpec."""
    return modulus * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class CompareReport:
    """Outcome of compare_runs.

    max_abs_diff is set in max_abs_diff mode; dominance_fraction and the
    two first peaks (as (t, value) pairs) are set in transient_dominance
    mode.  n_compared counts the samples actually compared after window
    and empty-field filtering.
    """

    mode: str
    column: str
    n_compared: int
    window: tuple[float, float] | None = None
    max_abs_diff: float | None = None
    dominance_fraction: float | None = None
    first_peak_a: tuple[float, float] | None = None
    first_peak_b: tuple[float, float] | None = None


@dataclass(frozen=True)
class ScenarioResult:
    """Paths emitted by run_scenario plus the parsed manifest."""

    manifest_path: str
    csv_paths: tuple[str, ...]
    manifest: dict


# ---------------------------------------------------------------------------
# The config schema
# ---------------------------------------------------------------------------

def _str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _str_tuple(raw))


def _float_or_none(raw: str) -> float | None:
    return None if raw.strip().lower() in ("none", "default", "") else float(raw)


def _name_rule(value: object) -> Iterator[str]:
    if not isinstance(value, str) or not _NAME_PATTERN.match(value):
        yield f"must match {_NAME_PATTERN.pattern}, got {value!r}"


def _one_of(noun: str, choices: tuple[str, ...]) -> Callable[[object], Iterator[str]]:
    def rule(value: object) -> Iterator[str]:
        if value not in choices:
            yield f"unknown {noun} {value!r} (choices: {choices})"

    return rule


def _sweep(
    noun: str, plural: str, item: Callable[[object], Iterator[str]]
) -> Callable[[tuple], Iterator[str]]:
    """Rule of a sweep: a list of at least one value, each passing item,
    and no value that passes it given twice."""

    def rule(values: tuple) -> Iterator[str]:
        if not isinstance(values, tuple):
            # ScenarioConfig made a tuple of any list or array given
            yield f"must be a list of {plural}, got {values!r}"
            return
        if not values:
            yield f"at least one {noun} required"
        for value in values:
            yield from item(value)
        valid = [value for value in values if not any(item(value))]
        if len(set(valid)) != len(valid):
            yield f"duplicate {plural}"

    return rule


def _count_rule(n: object) -> Iterator[str]:
    if type(n) is not int:  # a bool is not a cell count
        yield f"each N must be an integer, got {n!r}"
    elif not (1 <= n <= MAX_SITES):
        yield f"each N must be in [1, {MAX_SITES}], got {n}"


def _real_rule(value: object) -> Iterator[str]:
    if not finite_real(value):
        yield f"must be a finite real number, got {value!r}"


def _rate_rule(value: object) -> Iterator[str]:
    if not (finite_real(value) and value >= 0):
        yield f"must be a finite number >= 0, got {value!r}"


class FieldSpec(NamedTuple):
    """How one ScenarioConfig field is written and checked.

    key is its config-file key, parse turns the key's raw text into the
    field value, and rule yields every reason a value is refused (None:
    any value).  The time-grid fields have no rule of their own; the one
    set of grid rules, evolution.time_grid_errors, checks them together.
    """

    key: str
    parse: Callable[[str], object]
    rule: Callable[[object], Iterator[str]] | None


# One entry per ScenarioConfig field, in field order.
SCHEMA: dict[str, FieldSpec] = {
    "name": FieldSpec("name", str, _name_rule),
    "channels": FieldSpec(
        "channel",
        _str_tuple,
        _sweep("channel", "channels", _one_of("channel", CHANNELS)),
    ),
    "topologies": FieldSpec(
        "topology",
        _str_tuple,
        _sweep("topology", "topologies", _one_of("topology", TOPOLOGIES)),
    ),
    "n_sites_list": FieldSpec(
        "n_sites", _int_tuple, _sweep("cell count", "cell counts", _count_rule)
    ),
    "initial_state": FieldSpec("initial_state", str, _one_of("state", INITIAL_STATES)),
    "h": FieldSpec("h", float, _real_rule),
    "gamma": FieldSpec("gamma", float, _rate_rule),
    "t_max": FieldSpec("t_max", float, None),
    "j_prime": FieldSpec("j_prime", float, _real_rule),
    "gamma_offdiag_modulus": FieldSpec("gamma_offdiag_modulus", float, _rate_rule),
    "gamma_offdiag_phase": FieldSpec("gamma_offdiag_phase", float, _real_rule),
    "j_z": FieldSpec("j_z", float, _real_rule),
    "j_xx": FieldSpec("j_xx", float, _real_rule),
    "d_dm": FieldSpec("d_dm", float, _real_rule),
    "dt_sample": FieldSpec("dt_sample", float, None),
    "dt_internal": FieldSpec("dt_internal", _float_or_none, None),
    "description": FieldSpec("description", str, None),
}

# config-file key -> (ScenarioConfig field, parser)
CONFIG_KEYS = {spec.key: (name, spec.parse) for name, spec in SCHEMA.items()}


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """All schema violations in cfg, one message per offending field."""
    errors = [
        f"{spec.key}: {why}"
        for name, spec in SCHEMA.items()
        if spec.rule is not None
        for why in spec.rule(getattr(cfg, name))
    ]
    # the one cross-field rule, on sweeps the sweep rule accepts as lists
    if isinstance(cfg.topologies, tuple) and isinstance(cfg.n_sites_list, tuple):
        correlated = [t for t in cfg.topologies if t != "local"]
        if correlated and any(type(n) is int and n < 2 for n in cfg.n_sites_list):
            errors.append(f"n_sites: topologies {correlated} need at least 2 cells")
    # the rules EvolutionConfig enforces, reported before any run starts
    grid = time_grid_errors(cfg.t_max, cfg.dt_sample, cfg.dt_internal)
    errors.extend(f"{SCHEMA[name].key}: {why}" for name, why in grid)
    return errors


def require_valid_config(cfg: ScenarioConfig, source: str = "config") -> None:
    """Raise ConfigError listing every schema violation in cfg."""
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors, source)


# The two base experiments, correlated dephasing and correlated amplitude
# damping from |->^N, share one reservoir; every other preset is a base with
# the fields it changes.
_RESERVOIR = dict(
    gamma=0.2, gamma_offdiag_modulus=0.01, gamma_offdiag_phase=math.pi / 3
)

_DEPHASING = ScenarioConfig(
    name="fig2_dephasing_product",
    channels=("dephasing",),
    topologies=("nearest_neighbor",),
    n_sites_list=(2, 3, 4, 5, 6),
    initial_state="product_minus",
    h=1.0,
    j_z=1.0,
    t_max=20.0,
    description=(
        "Ergotropy from the product |-> start under correlated "
        "nearest-neighbor dephasing: N=2..6, gamma=0.2, "
        "|gamma_offdiag|=0.01 at phase pi/3, j_z=1, h=1."
    ),
    **_RESERVOIR,
)
_DEPHASING_RATIO = replace(
    _DEPHASING,
    name="fig4_dephasing_ratio",
    topologies=("nearest_neighbor", "local"),
    description=(
        "Extractable fraction ergotropy/stored under dephasing from "
        "the product start: N=2..6, gamma=0.2, |gamma_offdiag|=0.01 "
        "at phase pi/3, j_z=1, h=1."
    ),
)
_DAMPING = ScenarioConfig(
    name="fig5_ad_product",
    channels=("amplitude_damping",),
    topologies=("nearest_neighbor", "local"),
    n_sites_list=(2, 3, 4, 5),
    initial_state="product_minus",
    h=1.0,
    j_xx=1.2,
    d_dm=0.2,
    t_max=40.0,
    description=(
        "Correlated vs local amplitude damping from the product "
        "start: N=2..5, gamma=0.2, |gamma_offdiag|=0.01 at phase "
        "pi/3, hopping 1.2 + 0.2i, h=1."
    ),
    **_RESERVOIR,
)

PRESETS: dict[str, ScenarioConfig] = {
    p.name: p
    for p in (
        _DEPHASING,
        replace(
            _DEPHASING_RATIO,
            name="fig3_dephasing_entangled",
            initial_state="ground_interacting",
            h=1.3,
            j_prime=1.0,
            description=(
                "Correlated vs local dephasing from the interacting ground "
                "state: N=2..6, h=1.3, j_prime=1, gamma=0.2, "
                "|gamma_offdiag|=0.01 at phase pi/3, j_z=1."
            ),
        ),
        _DEPHASING_RATIO,
        _DAMPING,
        replace(
            _DAMPING,
            name="fig6_ad_entangled",
            initial_state="ground_interacting",
            h=1.3,
            j_prime=1.0,
            t_max=100.0,
            description=(
                "Correlated vs local amplitude damping from the interacting "
                "ground state: N=2..5, h=1.3, j_prime=1, gamma=0.2, "
                "|gamma_offdiag|=0.01 at phase pi/3, hopping 1.2 + 0.2i; "
                "t_max=100 so the slowly saturating curves merge."
            ),
        ),
        replace(
            _DAMPING,
            name="fig6b_ad_ratio",
            description=(
                "Extractable fraction ergotropy/stored under amplitude "
                "damping from the product start: N=2..5, gamma=0.2, "
                "|gamma_offdiag|=0.01 at phase pi/3, hopping 1.2 + 0.2i, "
                "h=1."
            ),
        ),
        replace(
            _DAMPING,
            name="fig7_longrange_comparison",
            channels=("dephasing", "amplitude_damping"),
            topologies=("nearest_neighbor", "all_to_all"),
            n_sites_list=(6,),
            h=1.3,
            j_z=1.0,
            t_max=60.0,
            description=(
                "Nearest-neighbor vs all-to-all reservoirs at N=6 from the "
                "product start: both channels, gamma=0.2, "
                "|gamma_offdiag|=0.01 at phase pi/3, j_z=1, hopping "
                "1.2 + 0.2i, h=1.3; t_max=60 so both channels reach their "
                "common late-time value."
            ),
        ),
    )
}


def list_presets() -> list[tuple[str, str]]:
    """(name, description) for every built-in preset, in declaration order."""
    return [(p.name, p.description) for p in PRESETS.values()]


def get_preset(name: str) -> ScenarioConfig:
    """Look up a built-in preset; raises ConfigError for unknown names."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(PRESETS)
        raise ConfigError(
            [f"preset: unknown preset {name!r} (choices: {known})"],
            source="preset lookup",
        ) from None


# ---------------------------------------------------------------------------
# Flat key-value config files
# ---------------------------------------------------------------------------

def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Parse flat `key = value` text into a raw string mapping.

    Blank lines and lines starting with '#' are skipped.  Keys may appear
    at most once.  Raises ConfigError listing every malformed line.
    """
    mapping: dict[str, str] = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in mapping:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        mapping[key] = value
    if errors:
        raise ConfigError(errors, source)
    return mapping


def config_from_mapping(
    mapping: dict[str, str], source: str = "config"
) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a raw string mapping.

    A `preset` key selects a built-in scenario as the base; every other
    key overrides one field.  Without `preset`, the key of every
    ScenarioConfig field without a default is required.
    Unknown keys, unparsable values, and schema violations are all
    collected into a single ConfigError.
    """
    errors: list[str] = []
    mapping = dict(mapping)
    values: dict[str, object] = {}
    if "preset" in mapping:
        try:
            values = asdict(get_preset(mapping.pop("preset")))
        except ConfigError as exc:
            errors.extend(exc.errors)
    else:
        for field in fields(ScenarioConfig):
            key = SCHEMA[field.name].key
            if field.default is MISSING and key not in mapping:
                errors.append(f"{key}: required when no preset is given")

    for key, raw in mapping.items():
        if key not in CONFIG_KEYS:
            known = ", ".join(CONFIG_KEYS)
            errors.append(f"{key}: unknown key (choices: preset, {known})")
            continue
        field_name, parser = CONFIG_KEYS[key]
        try:
            values[field_name] = parser(raw)
        except (ValueError, TypeError) as exc:
            errors.append(f"{key}: could not parse {raw!r} ({exc})")
    # Validate whatever did parse so one report lists every offending key,
    # not just the first failing stage.  The construction fails only for a
    # required field that is missing or did not parse, reported above.
    try:
        cfg = ScenarioConfig(**values)  # type: ignore[arg-type]
    except TypeError:
        raise ConfigError(errors, source) from None
    errors.extend(validate_config(cfg))
    if errors:
        raise ConfigError(errors, source)
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Read, parse, and validate a flat key-value config file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return config_from_mapping(parse_config_text(text, source=path), source=path)


# ---------------------------------------------------------------------------
# Running scenarios
# ---------------------------------------------------------------------------

def _noise_spec(
    cfg: ScenarioConfig, channel: str, topology: str, modulus: float
) -> NoiseSpec:
    """The reservoir of one run, with cross-site rate modulus (0 for a
    local run) at cfg's phase.  A correlated run's coupling acts on its
    topology's bonds: interaction_range is the topology itself."""
    coupling = None
    if topology != "local" and channel == "dephasing":
        coupling = EffectiveCoupling("ising_z", j_z=cfg.j_z, interaction_range=topology)
    elif topology != "local":
        coupling = EffectiveCoupling(
            "xx_dm", j_xx=cfg.j_xx, d_dm=cfg.d_dm, interaction_range=topology
        )
    return NoiseSpec(
        channel=channel,
        topology=topology,
        gamma=cfg.gamma,
        gamma_offdiag=_cross_rate(modulus, cfg.gamma_offdiag_phase),
        coupling=coupling,
    )


def run_list(cfg: ScenarioConfig) -> list[tuple[str, str, int]]:
    """(channel, topology, n_sites) combinations in execution order."""
    return [
        (channel, topology, n)
        for channel in cfg.channels
        for topology in cfg.topologies
        for n in cfg.n_sites_list
    ]


def precheck_cptp(cfg: ScenarioConfig, auto_cptp: bool) -> dict[tuple[str, int], float]:
    """Validate every run's rate matrix before any integration starts.

    Builds each (topology, n_sites) rate matrix once; the channel does not
    enter it.  The authoritative validity test is positive
    semidefiniteness.  When that test fails for an all-to-all matrix and
    auto_cptp is set, the modulus is scaled down to the analytic
    sufficient bound gamma / (N - 1) (which guarantees positivity by
    diagonal dominance, and lies below any modulus that fails) and the
    matrix is built again.  Matrices that are already positive
    semidefinite are never altered, and other topologies never
    auto-scale.

    Returns the applied cross-site modulus per (topology, n_sites), 0 for
    local; raises CptpViolationError naming the violated bound if any
    configuration is (and, under auto_cptp, remains) an invalid generator.
    """
    applied: dict[tuple[str, int], float] = {}
    for topology in cfg.topologies:
        for n in cfg.n_sites_list:
            modulus = 0.0 if topology == "local" else cfg.gamma_offdiag_modulus
            gamma = build_gamma(_noise_spec(cfg, cfg.channels[0], topology, modulus), n)
            if auto_cptp and topology == "all_to_all" and not validate_cptp(gamma).valid:
                modulus = cfg.gamma / (n - 1)
                gamma = build_gamma(
                    _noise_spec(cfg, cfg.channels[0], topology, modulus), n
                )
            require_cptp(gamma)
            applied[(topology, n)] = modulus
    return applied


def precheck_ground_state(cfg: ScenarioConfig) -> dict[int, np.ndarray]:
    """Refuse a ground_interacting start whose ground level is degenerate
    at any N of the sweep before anything is written: ground_state's own
    test, on each run's battery Hamiltonian, raises
    DegenerateGroundStateError.

    Returns the ground state of each N, which run_scenario hands to every
    (channel, topology) run of that N, so each is diagonalised once.
    Product starts build nothing and return an empty dict."""
    if cfg.initial_state != "ground_interacting":
        return {}
    states = {}
    for n in cfg.n_sites_list:
        model = BatteryModel(n_sites=n, h=cfg.h, j_coupling=cfg.j_prime)
        states[n] = ground_state(battery_hamiltonian(model))
    return states


def run_filename(name: str, channel: str, topology: str, n_sites: int) -> str:
    """CSV filename for one run of a scenario."""
    return f"{name}_{channel}_{topology}_N{n_sites}.csv"


def _format_rows(*columns: list) -> str:
    """CSV rows, one per entry of the columns, joined by newlines: every
    value as %.11e (12 significant digits), None as an empty field.  One
    format string for all the rows."""
    full = ",".join(["%.11e"] * len(columns))
    template, values = [], []
    for row in zip(*columns):
        if None in row:
            template.append(",".join("" if v is None else "%.11e" for v in row))
            values.extend(v for v in row if v is not None)
        else:
            template.append(full)
            values.extend(row)
    return "\n".join(template) % tuple(values)


def _execute_run(payload: tuple) -> dict:
    """Integrate one (channel, topology, N) run and write its CSV.

    Module-level so scenario sweeps can run in worker processes; the
    payload is (cfg, channel, topology, n_sites, applied_modulus, rho0,
    out_dir), where rho0 is the ground state from precheck_ground_state
    for a ground_interacting start and None for a product start.
    Returns the manifest entry for the run.
    """
    cfg, channel, topology, n_sites, modulus, rho0, out_dir = payload
    start = time.perf_counter()

    model = BatteryModel(n_sites=n_sites, h=cfg.h, j_coupling=cfg.j_prime)
    h_b = battery_hamiltonian(model)
    h_energies = np.linalg.eigvalsh(h_b)
    if cfg.j_prime == 0.0:
        _, basis = field_product_eigenbasis(n_sites, cfg.h)
    else:
        _, basis = energy_eigenbasis(h_b)
    basis = symmetric_basis(basis)
    flip_terms = bit_flip_terms(h_b)
    if rho0 is None:
        rho0 = product_minus_state(n_sites)

    spec = _noise_spec(cfg, channel, topology, modulus)
    evo = EvolutionConfig(
        t_max=cfg.t_max, dt_sample=cfg.dt_sample, dt_internal=cfg.dt_internal
    )
    n_samples, n_sub = resolve_time_grid(evo, spec)

    lines = [",".join(CSV_COLUMNS)]
    w0: float | None = None
    evolution_info: dict = {}
    parity_resolved = translation_resolved = 0
    timing = {"observables": 0.0, "io": 0.0}
    measured = None
    _LOG.info(
        "run %s %s N=%d: %d samples", channel, topology, n_sites, n_samples + 1
    )
    for _ in evolve_stream(rho0, spec, evo, info=evolution_info):
        chunk = evolution_info["chunk"]
        if chunk is not measured:
            # the chunk's first sample: measure and format all of its rows
            measured = chunk
            mark = time.perf_counter()
            checks = chunk.checks
            report = ergotropy(
                chunk.states,
                h_b,
                h_energies,
                [c.populations for c in checks],
                flip_terms,
            )
            if w0 is None:
                w0 = float(report.w[0])
            stored = (report.w - w0).tolist()
            ratios = [
                extraction_ratio(e, s)
                for e, s in zip(report.ergotropy.tolist(), stored)
            ]
            coherence = coherence_l1_energy_basis(
                chunk.states,
                h_b,
                basis=basis,
                groups=[c.group for c in checks],
            ) / n_sites
            parity_resolved += sum("P" in c.group for c in checks)
            translation_resolved += sum("T" in c.group for c in checks)
            io = time.perf_counter()
            timing["observables"] += io - mark
            lines.append(
                _format_rows(
                    chunk.times,
                    report.w.tolist(),
                    report.ergotropy.tolist(),
                    stored,
                    ratios,
                    coherence.tolist(),
                )
            )
            timing["io"] += time.perf_counter() - io
    steady = evolution_info["steady"]

    mark = time.perf_counter()
    payload_bytes = ("\n".join(lines) + "\n").encode("utf-8")
    filename = run_filename(cfg.name, channel, topology, n_sites)
    with open(os.path.join(out_dir, filename), "wb") as fh:
        fh.write(payload_bytes)
    timing["io"] += time.perf_counter() - mark
    wall = time.perf_counter() - start
    _LOG.info(
        "run %s %s N=%d: %d samples in %.3f s",
        channel, topology, n_sites, n_samples + 1, wall,
    )
    return {
        "file": filename,
        "channel": channel,
        "topology": topology,
        "n_sites": n_sites,
        "n_samples": n_samples + 1,
        "rk4_substeps_per_sample": n_sub,
        "propagation": evolution_info["propagation"],
        "shift_reduced": evolution_info["shift_reduced"],
        "propagated_values": evolution_info["propagated_values"],
        "step_bytes": evolution_info["step_bytes"],
        "dt_internal_effective": cfg.dt_sample / n_sub,
        "applied_gamma_offdiag_modulus": modulus,
        "steady_window": steady.window,
        "steady_deviation": list(steady.deviation),
        "converged": steady.converged,
        "invariant_margins": evolution_info["invariant_margins"],
        "parity_resolved_samples": parity_resolved,
        "translation_resolved_samples": translation_resolved,
        "timing_s": {
            phase: round(seconds, 6)
            for phase, seconds in {**evolution_info["timing_s"], **timing}.items()
        },
        "wall_time_s": round(wall, 3),
        "sha256": hashlib.sha256(payload_bytes).hexdigest(),
    }


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str,
    auto_cptp: bool = False,
    workers: int = 1,
) -> ScenarioResult:
    """Run every (channel, topology, N) combination and emit CSVs + manifest.

    The rate matrices of all runs, and a ground-state start's ground
    level, are validated before out_dir is created or any integration
    starts; each N's ground state is diagonalised once, there, and handed
    to that N's runs.  Runs are fully independent; workers > 1 executes
    the sweep in that many worker processes (output files and manifest
    order are identical either way).  The manifest `<name>_manifest.json` records the
    full config echo, library version, per-run integrator step and
    propagation path (precomputed per-sample map or explicit substep loop,
    see qbattery.evolution) and the bytes its per-sample step applies
    (`step_bytes`), applied cross-site rate (after any --auto-cptp
    scaling), convergence flag and its evidence (below), worst invariant
    margins over the sampled states (largest |trace - 1| and hermiticity
    drift, smallest minimum eigenvalue), the numbers of sampled states
    whose symmetry group in the check holds the spin flip P
    (`parity_resolved_samples`) and the cyclic site shift T
    (`translation_resolved_samples`; a state with both counts in both, see
    qbattery.evolution.check_state), the seconds of the run's
    layers (`timing_s`: `build`, the generator and its map; `propagate`
    and `check`, summed over the sampled chunks, see
    qbattery.evolution.evolve_stream; `observables`, the ergotropy,
    coherence and ratio; `io`, the CSV formatting and writing; and
    `sampling`, everything from the first sample after t = 0 to the end
    of the stream), wall time, and a sha256 hash of each CSV.

    `converged` says whether the run settled: every sample in the trailing
    window, the last 10 % of t_max (`steady_window`,
    qbattery.evolution.STEADY_WINDOW_FRACTION), lies within 1e-6 of the
    final state entrywise, and the window holds at least two samples (a
    run with t_max under about 10 dt_sample does not).  evolve_stream
    decides it from running per-entry bounds without holding the window's
    states (info["steady"]), bitwise as steady_state_probe decides on
    them.  `steady_deviation` records [lower, upper] bounds on the largest
    deviation, equal when the window was propagated a second time to take
    it exactly.

    Each run's observables are measured a chunk of samples at a time, on
    the stack that evolve_stream checked (info["chunk"]), with the same
    bytes as one sample at a time.  The start and end of each run are
    logged at INFO level to the "qbattery" logger (channel, topology, N,
    samples, seconds); the library adds no handler and prints nothing.

    Args:
        cfg: validated scenario declaration.
        out_dir: directory for CSVs and the manifest (created if missing).
        auto_cptp: scale all-to-all cross-site rates down to the
            complete-positivity bound instead of hard-failing.
        workers: process count for the sweep, an int >= 1, at most one
            per run; 1 runs in-process.  The manifest records the count
            requested.

    Returns:
        ScenarioResult with the manifest path, CSV paths, and manifest dict.

    Raises:
        ConfigError: cfg breaks the schema, or workers is not an int >= 1
            (a bool is refused), before out_dir is created.
    """
    if type(workers) is not int or workers < 1:  # a bool is not a count
        raise ConfigError([f"workers: must be an integer >= 1, got {workers!r}"])
    require_valid_config(cfg)
    applied = precheck_cptp(cfg, auto_cptp)
    ground = precheck_ground_state(cfg)
    os.makedirs(out_dir, exist_ok=True)
    runs = run_list(cfg)
    payloads = [
        (
            cfg, channel, topology, n, applied[(topology, n)], ground.get(n),
            out_dir,
        )
        for channel, topology, n in runs
    ]
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.perf_counter()
    if workers > 1:
        # a fork-started pool starts all its workers at the first submit,
        # so it is given no more than there are runs
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(payloads))
        ) as pool:
            entries = list(pool.map(_execute_run, payloads))
    else:
        entries = [_execute_run(p) for p in payloads]
    total_wall = round(time.perf_counter() - t0, 3)

    config_echo = asdict(cfg)
    rate = cfg.gamma_offdiag
    config_echo["gamma_offdiag"] = {"real": rate.real, "imag": rate.imag}
    manifest = {
        "scenario": cfg.name,
        "package_version": __version__,
        "created_utc": started,
        "auto_cptp": auto_cptp,
        "workers": workers,
        "config": config_echo,
        "runs": entries,
        "total_wall_time_s": total_wall,
    }
    manifest_path = os.path.join(out_dir, f"{cfg.name}_manifest.json")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_paths = tuple(os.path.join(out_dir, e["file"]) for e in entries)
    return ScenarioResult(
        manifest_path=manifest_path, csv_paths=csv_paths, manifest=manifest
    )


# ---------------------------------------------------------------------------
# Reading and comparing emitted runs
# ---------------------------------------------------------------------------

def read_run_csv(path: str) -> dict[str, np.ndarray]:
    """Load one emitted CSV into column arrays (empty fields become NaN)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != CSV_COLUMNS:
            raise ValueError(
                f"{path}: unexpected header {header!r}; "
                f"expected {','.join(CSV_COLUMNS)}"
            )
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if any(len(r) != len(CSV_COLUMNS) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    data = np.array(
        [[float(field) if field else math.nan for field in row] for row in rows]
    )
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def first_peak(t: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(t, value) of the first interior strict local maximum.

    Falls back to the global maximum when the series has no interior peak
    (e.g. monotone growth within the window).  NaN samples are skipped.
    """
    mask = np.isfinite(values)
    t = np.asarray(t)[mask]
    values = np.asarray(values)[mask]
    if len(values) == 0:
        raise ValueError("first_peak needs at least one finite sample")
    for i in range(1, len(values) - 1):
        if values[i - 1] < values[i] > values[i + 1]:
            return float(t[i]), float(values[i])
    i = int(np.argmax(values))
    return float(t[i]), float(values[i])


def compare_runs(
    csv_a: str,
    csv_b: str,
    column: str,
    mode: str,
    window: tuple[float, float] | None = None,
) -> CompareReport:
    """Compare one column of two emitted runs on their shared time grid.

    Modes:
        max_abs_diff: sup |a - b| over the compared samples.
        transient_dominance: fraction of compared samples where a > b,
            plus the first-peak (t, value) of each series.

    Samples where either file has an empty field (NaN) are excluded.  The
    two files must share their time grid exactly; `window = (t0, t1)`
    restricts the comparison to that closed time interval.

    Raises:
        GridMismatchError: the grids differ in length or sample times.
        ValueError: unknown column/mode, or nothing left to compare.
    """
    if column not in CSV_COLUMNS or column == "t":
        comparable = ", ".join(c for c in CSV_COLUMNS if c != "t")
        raise ValueError(f"unknown column {column!r} (choices: {comparable})")
    if mode not in COMPARE_MODES:
        raise ValueError(f"unknown mode {mode!r} (choices: {', '.join(COMPARE_MODES)})")
    data_a = read_run_csv(csv_a)
    data_b = read_run_csv(csv_b)
    t_a, t_b = data_a["t"], data_b["t"]
    if len(t_a) != len(t_b) or np.max(np.abs(t_a - t_b)) > 1e-9:
        raise GridMismatchError(
            f"time grids differ: {csv_a} has {len(t_a)} samples, "
            f"{csv_b} has {len(t_b)}"
        )
    mask = np.ones(len(t_a), dtype=bool)
    if window is not None:
        t0, t1 = window
        if t1 < t0:
            raise ValueError(f"window must satisfy t0 <= t1, got {window}")
        mask &= (t_a >= t0 - 1e-12) & (t_a <= t1 + 1e-12)
        if not mask.any():
            raise ValueError(f"window {window} selects no samples")
    a = data_a[column][mask]
    b = data_b[column][mask]
    t = t_a[mask]
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.any():
        raise ValueError(f"column {column!r}: no jointly defined samples")
    if mode == "max_abs_diff":
        return CompareReport(
            mode=mode,
            column=column,
            n_compared=int(finite.sum()),
            window=window,
            max_abs_diff=float(np.max(np.abs(a[finite] - b[finite]))),
        )
    return CompareReport(
        mode=mode,
        column=column,
        n_compared=int(finite.sum()),
        window=window,
        dominance_fraction=float(np.mean(a[finite] > b[finite])),
        first_peak_a=first_peak(t, a),
        first_peak_b=first_peak(t, b),
    )
