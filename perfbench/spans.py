"""Spans around the package's public functions, recorded from outside.

The benchmark never edits the package.  To trace a pass it rebinds each
public function listed in TARGETS to a timing wrapper in every
``votingpower`` module namespace that holds it (``report`` imports
``scenario_game`` by name, ``cli`` reaches ``engine.compute_all`` through
the module, and so on), runs the pass, and restores the originals.

Spans are kept in memory as (name, start, end, parent) records; self
times and per-layer figures are derived after the pass.  Span names are
``<layer>.<what>``; the benchmark's own spans use the layer ``bench`` and
their self time is the unattributed remainder of a pass.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, public function, span name).  Several functions may share one
# span name; a function missing from the package is skipped.
TARGETS = (
    ("cli", "run", "cli.run"),
    ("dataio", "load_population_table", "dataio.parse"),
    ("dataio", "load_scenario_config", "dataio.parse"),
    ("fixtures", "fixture", "fixtures.fixture"),
    ("scenarios", "builtin_scenario", "scenarios.load"),
    ("scenarios", "make_scenario", "scenarios.load"),
    ("scenarios", "with_bloc", "scenarios.build"),
    ("scenarios", "scenario_game", "scenarios.build"),
    ("game", "merge_blocs", "game.build"),
    ("game", "build_qmv", "game.build"),
    ("scenarios", "compare", "scenarios.compare"),
    ("scenarios", "detect_paradox", "scenarios.compare"),
    ("engine", "compute_all", "engine.compute"),
    ("engine", "banzhaf", "engine.compute"),
    ("engine", "shapley_shubik", "engine.compute"),
    ("oracle", "oracle_all", "oracle.verify"),
    ("oracle", "oracle_banzhaf", "oracle.verify"),
    ("oracle", "oracle_shapley", "oracle.verify"),
    ("report", "render", "report.render"),
    ("report", "emit_artifact", "report.emit"),
)


def game_shape(game) -> tuple[int, int, int]:
    """(n, L, W): players, excess-seat levels, population-grid width - 1."""
    roster = game.roster
    return game.n, roster.total_seats - game.n + 1, roster.total_pop


def grid_cells(game) -> int:
    n, levels, width = game_shape(game)
    return n * levels * (width + 1)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and boundary counts of one traced pass."""

    spans: list[Span] = field(default_factory=list)
    games: list = field(default_factory=list)  # game of every engine call
    oracle_sizes: list[int] = field(default_factory=list)
    bytes_out: int = 0
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _record(self, name: str, args, kwargs, result) -> None:
        if name == "engine.compute":
            self.games.append(args[0] if args else kwargs["game"])
        elif name == "oracle.verify":
            self.oracle_sizes.append((args[0] if args else kwargs["game"]).n)
        elif name in ("report.render", "report.emit") and isinstance(result, str):
            self.bytes_out += len(result.encode("utf-8"))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self._record(name, args, kwargs, result)
            return result

        return traced

    # -- derived figures -------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def outermost(self, name: str) -> list[Span]:
        """Spans of this name with no ancestor of the same name."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != name:
                p = self.spans[p].parent
            if p < 0:
                out.append(s)
        return out

    def inclusive(self, name: str) -> float:
        return sum(s.duration for s in self.outermost(name))

    def self_time(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name == name)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer; the ``bench`` layer is unattributed time."""
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out


@contextmanager
def installed(tracer: Tracer, package: str = "votingpower"):
    """Rebind every TARGETS function to a tracing wrapper while active."""
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    patched = []
    try:
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        patched.append((m, key, original))
        yield tracer
    finally:
        for m, key, original in reversed(patched):
            setattr(m, key, original)
