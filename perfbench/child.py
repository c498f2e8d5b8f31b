"""One benchmark pass: `qbattery run ...` through qbattery.cli.main in this
fresh interpreter.

    python3 child.py [--trace SPANS.json | --stamps STAMPS.json] run CONFIG --out DIR

With --stamps the iterator of `evolve_stream` is wrapped, and nothing
else: the time each sample reaches the runner is recorded (one
perf_counter() call a sample), and the timestamps of every run, plus one
at the iterator's end, are written to STAMPS.json when main() returns.
With --trace the public
functions on the run path are wrapped before main() runs, and the summed
self times, counts and map statistics are written to SPANS.json when main()
returns.  A layer's self time is its span time minus the time of the
spans it encloses.  Spans are named after the layer they charge:

    dissipation.precheck  config load and validation, precheck_cptp, and the
                          rate matrix and CPTP admission inside evolve_stream
    models.setup          Hamiltonians, initial state, eigenbasis
    evolution.generator_build / evolution.map_build
                          make_rhs / sample_map on the object it returns
    evolution.stream      evolve_stream; its self time is the per-sample step
    evolution.check       check_state
    observables.ergotropy / observables.coherence
    scenarios.steady_probe
    scenarios.run         run_scenario; its self time is the runner's own work

Runs with BLAS threads set by the parent (OPENBLAS_NUM_THREADS before numpy
loads).
"""

from __future__ import annotations

import json
import sys
import time

PER_SAMPLE_SPANS = ("evolution.check", "observables.ergotropy", "observables.coherence")


class Tracer:
    """Nested span timing kept in memory, written out once at the end."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child_seconds]
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.stats: dict[str, float] = {}

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def stat_max(self, name: str, value: float) -> None:
        self.stats[name] = max(self.stats.get(name, 0), value)

    def enter(self, name: str) -> float:
        self.stack.append([name, 0.0])
        return time.perf_counter()

    def leave(self, start: float) -> None:
        elapsed = time.perf_counter() - start
        name, children = self.stack.pop()
        self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - children
        if self.stack:
            self.stack[-1][1] += elapsed

    def hide(self, start: float) -> None:
        """Charge perf_counter() - start to no span (tracer bookkeeping)."""
        if self.stack:
            self.stack[-1][1] += time.perf_counter() - start

    def inside(self, names: tuple[str, ...]) -> bool:
        return any(frame[0] in names for frame in self.stack)

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            start = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(start)
            if after is not None:
                mark = time.perf_counter()
                after(args, result)
                self.hide(mark)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                start = self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.leave(start)
                yield item

        return traced


def _map_shape(step) -> tuple[int, int, int]:
    """(bytes, dense blocks, largest block) of the complex arrays a
    per-sample map closes over.  A 3-D stack holds shape[0] dense blocks of
    shape[1] rows; a 1-D or 2-D array is an elementwise map, whose bytes
    count but which holds no dense block."""
    import numpy as np

    seen: set[int] = set()
    todo = [cell.cell_contents for cell in (getattr(step, "__closure__", None) or ())]
    nbytes = blocks = largest = 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if np.iscomplexobj(obj):
                nbytes += obj.nbytes
                if obj.ndim == 3:
                    blocks += obj.shape[0]
                    largest = max(largest, obj.shape[1])
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return nbytes, blocks, largest


def install(tracer: Tracer) -> None:
    import numpy as np
    import scipy.sparse

    import qbattery.cli as cli
    import qbattery.evolution as evolution
    import qbattery.scenarios as scenarios

    def patch(module, attr: str, name: str, after=None) -> None:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, after))

    for module, attr in (
        (cli, "load_config"),
        (cli, "require_valid_config"),
        (scenarios, "require_valid_config"),
        (scenarios, "precheck_cptp"),
        (evolution, "build_gamma"),
        (evolution, "require_cptp"),
    ):
        patch(module, attr, "dissipation.precheck")
    for attr in (
        "battery_hamiltonian",
        "effective_hamiltonian",
        "field_product_eigenbasis",
        "energy_eigenbasis",
        "product_minus_state",
        "ground_state",
    ):
        patch(scenarios, attr, "models.setup")
    patch(cli, "run_scenario", "scenarios.run")
    patch(scenarios, "ergotropy", "observables.ergotropy")
    patch(scenarios, "coherence_l1_energy_basis", "observables.coherence")
    patch(evolution, "check_state", "evolution.check")

    def after_probe(args, _result) -> None:
        series = args[0]
        if series:
            tracer.stat_max("tail_buffer_bytes", len(series) * series[-1][1].nbytes)

    patch(scenarios, "steady_state_probe", "scenarios.steady_probe", after_probe)
    scenarios.evolve_stream = tracer.wrap_generator(
        scenarios.evolve_stream, "evolution.stream"
    )

    def after_map(_args, step) -> None:
        if step is None:
            return
        nbytes, blocks, largest = _map_shape(step)
        tracer.stat_max("map_bytes", nbytes)
        tracer.stat_max("map_blocks", blocks)
        tracer.stat_max("largest_block", largest)

    def after_rhs(_args, rhs) -> None:
        for value in vars(rhs).values():
            if scipy.sparse.issparse(value):
                tracer.stat_max("generator_nnz", value.nnz)
        rhs.sample_map = tracer.wrap(rhs.sample_map, "evolution.map_build", after_map)

    patch(evolution, "make_rhs", "evolution.generator_build", after_rhs)

    eigvalsh = np.linalg.eigvalsh

    def counted_eigvalsh(*args, **kwargs):
        if tracer.inside(PER_SAMPLE_SPANS):
            tracer.count("eigvalsh_per_sample_calls")
        return eigvalsh(*args, **kwargs)

    np.linalg.eigvalsh = counted_eigvalsh


def install_stamps(runs: list[list[float]]) -> None:
    import qbattery.scenarios as scenarios

    stream = scenarios.evolve_stream

    def stamped(*args, **kwargs):
        stamps: list[float] = []
        runs.append(stamps)
        for item in stream(*args, **kwargs):
            stamps.append(time.perf_counter())
            yield item
        stamps.append(time.perf_counter())

    scenarios.evolve_stream = stamped


def main(argv: list[str]) -> int:
    trace_path = stamps_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    elif argv[:1] == ["--stamps"]:
        stamps_path, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import qbattery.cli

    import_s = time.perf_counter() - start
    if stamps_path is not None:
        runs: list[list[float]] = []
        install_stamps(runs)
        try:
            return qbattery.cli.main(argv)
        finally:
            with open(stamps_path, "w", encoding="utf-8") as fh:
                json.dump(runs, fh)
    if trace_path is None:
        return qbattery.cli.main(argv)
    tracer = Tracer()
    install(tracer)
    try:
        return qbattery.cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "self": tracer.self_time,
                    "counts": tracer.counts,
                    "stats": tracer.stats,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
