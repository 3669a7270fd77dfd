"""The three benchmark workloads: inputs, operations and output checks.

Each workload is a closed loop with one client.  A pass runs the
workload's operations once, always in the same order: an operation's
time depends on what ran before it (allocator state), so an order drawn
from the seed would add spread that is not the program's.  The seed
drives only the generated inputs.  ``execute`` performs one operation
through the package's public API or its CLI, and ``check`` decides
afterwards, outside the timed region, whether the output is correct (an
operation that raised has already failed).  Fixed-input outputs are
compared with the SHA-256 digests in ``expected.json``; seeded outputs
are checked with exact identities (indices sum to 1, the dual game has
identical indices, and the enumeration oracle where n <= 22).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from spans import game_shape

CLI_BOOT = "from votingpower.cli import main; main()"
ORACLE_MAX_N = 22

# (label, argv) of the fixed-input CLI calls; labels key expected.json.
CLI_CALLS = (
    ("presets", ["presets"]),
    ("compute-eu27", ["compute", "--scenario", "eu27"]),
    ("compute-eu33-csv", ["compute", "--scenario", "eu33", "--format", "csv"]),
    ("compute-eu36-json", ["compute", "--scenario", "eu36", "--format", "json"]),
    ("compute-eu27-blocking", ["compute", "--scenario", "eu27", "--blocking-minority", "on"]),
    ("verify-eec1958", ["compute", "--scenario", "eec1958", "--verify"]),
    ("verify-eu27-nordic", ["compute", "--scenario", "eu27", "--bloc", "nordic", "--verify"]),
    ("compute-eu27-v4-ss", ["compute", "--scenario", "eu27", "--bloc", "v4", "--index", "ss"]),
    ("compare-eu27-eu33", ["compare", "--base", "eu27", "--target", "eu33", "--paradox"]),
    (
        "compare-eu27-eu36-json",
        ["compare", "--base", "eu27", "--target", "eu36", "--paradox", "--format", "json"],
    ),
    ("emit-table1", ["emit", "table1"]),
    ("emit-fig7-csv", ["emit", "fig7", "--format", "csv"]),
)
TINY_CLI = ("presets", "verify-eec1958", "emit-table1")
TINY_ARTIFACTS = ("table1", "fig7")
VERIFIED_NOTE = "verified against enumeration oracle"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fail(message: str) -> bool:
    print(f"check failed: {message}", file=sys.stderr)
    return False


def heavy_tailed_weights(rng: random.Random, n: int, total: int) -> list[int]:
    """n positive Pareto(1.2)-distributed integers summing exactly to total."""
    raw = [rng.paretovariate(1.2) for _ in range(n)]
    scale = total / sum(raw)
    exact = [x * scale for x in raw]
    weights = [max(1, int(x)) for x in exact]
    by_remainder = sorted(range(n), key=lambda i: int(exact[i]) - exact[i])
    k = 0
    while sum(weights) != total:
        i = by_remainder[k % n]
        step = 1 if sum(weights) < total else -1
        if weights[i] + step >= 1:
            weights[i] += step
        k += 1
    return weights


def cli_replay(vp, argv):
    """Run a CLI argv in-process through ``votingpower.cli.run``."""
    out, err = io.StringIO(), io.StringIO()
    code = vp.cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- exact checks on a computed game ------------------------------------------


def dual_game(vp, game):
    """The dual game: AND and OR swapped, each quota q mapped to T - q + 1."""
    g = vp.game
    totals = {g.WeightKind.SEATS: game.roster.total_seats, g.WeightKind.POPULATION: game.roster.total_pop}

    def dual(expr):
        if isinstance(expr, g.WeightedRule):
            return g.WeightedRule(expr.kind, totals[expr.kind] - expr.quota + 1)
        children = tuple(dual(c) for c in expr.children)
        return g.Or(children) if isinstance(expr, g.And) else g.And(children)

    return g.VotingGame(game.roster, dual(game.expr))


def check_game(vp, game, result) -> bool:
    """Both families sum to exactly 1, the dual agrees, and so does the
    oracle when the game is small enough to enumerate."""
    n, levels, width = game_shape(game)
    where = f"game n={n} L={levels} W={width}"
    for family in ("banzhaf_index", "shapley_shubik"):
        if sum(getattr(e, family) for e in result.entries) != 1:
            return fail(f"{where}: {family} does not sum to 1")
    if vp.engine.compute_all(dual_game(vp, game)).entries != result.entries:
        return fail(f"{where}: dual game gives different indices")
    if n <= ORACLE_MAX_N and vp.oracle.oracle_all(game).entries != result.entries:
        return fail(f"{where}: enumeration oracle disagrees")
    return True


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple = ()
    payload: object = None


class Workload:
    """One pass = ``ops`` in order; subclasses define execute/check."""

    name = ""
    in_process = True

    def __init__(self, vp, root: Path, seed: int, tiny: bool, expected: dict, workdir: Path):
        self.vp = vp
        self.root = root
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.expected = expected
        self.workdir = workdir
        self.games: list[dict] = []  # n, L, W of every game the seed generated
        self.ops: list[Op] = []

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> bool:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        return resource.getrusage(who).ru_maxrss * 1024 / 1e6

    def record_game(self, label: str, game) -> None:
        n, levels, width = game_shape(game)
        self.games.append({"op": label, "n": n, "L": levels, "W": width})


class CliSession(Workload):
    """Fresh CLI processes, one at a time, as a researcher runs the tool."""

    name = "cli-session"
    in_process = False

    def __init__(self, *args):
        super().__init__(*args)
        calls = [c for c in CLI_CALLS if not self.tiny or c[0] in TINY_CLI]
        self.ops = [Op(label, tuple(argv)) for label, argv in calls]
        self.ops.append(self._custom_op())
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}

    def _custom_op(self) -> Op:
        """Seeded population CSV + scenario file with one declared bloc."""
        n, total = (8, 500) if self.tiny else (20, 20_000)
        pops = heavy_tailed_weights(self.rng, n, total)
        ids = [f"C{i:02d}" for i in range(1, n + 1)]
        bloc = sorted(self.rng.sample(ids, 2 if self.tiny else 3))
        population = self.workdir / "custom.csv"
        scenario = self.workdir / "custom.txt"
        population.write_text(
            "# unit: synthetic units\nid,name,pop\n"
            + "".join(f"{i},Custom {i[1:]},{p}\n" for i, p in zip(ids, pops)),
            encoding="utf-8",
        )
        scenario.write_text(
            f"name = custom\nmembers = {' '.join(ids)}\n"
            f"bloc.pact = {' '.join(bloc)}\ninclude_blocking = true\n",
            encoding="utf-8",
        )
        argv = (
            "compute", "--scenario", str(scenario.relative_to(self.root)),
            "--population", str(population.relative_to(self.root)), "--format", "json",
        )
        self.reference = self._reference(population, scenario)
        return Op("custom", argv)

    def _reference(self, population: Path, scenario: Path):
        """In-process result for the custom pair, checked exactly; None if
        the checks fail."""
        vp = self.vp
        table = vp.dataio.load_population_table(population.read_text(encoding="utf-8"))
        config = vp.dataio.load_scenario_config(scenario.read_text(encoding="utf-8"))
        game = vp.scenarios.scenario_game(vp.scenarios.make_scenario(table, config))
        self.record_game("custom", game)
        result = vp.engine.compute_all(game)
        return result if check_game(vp, game, result) else None

    def execute(self, op: Op):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *op.argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        return proc.returncode, proc.stdout, proc.stderr

    def replay(self, op: Op):
        return cli_replay(self.vp, op.argv)

    def check(self, op: Op, output) -> bool:
        code, out, err = output
        if code != 0:
            return fail(f"{op.label}: exit code {code}: {err.strip()}")
        if op.label == "custom":
            return self._check_custom(out)
        want = self.expected.get("cli", {}).get(op.label)
        if want is None or sha256(out) != want["stdout_sha256"]:
            return fail(f"{op.label}: stdout differs from the recorded digest")
        if "--verify" in op.argv and VERIFIED_NOTE not in err:
            return fail(f"{op.label}: no oracle verification reported")
        return True

    def _check_custom(self, out: str) -> bool:
        if self.reference is None:
            return fail("custom: reference game failed its exact checks")
        doc = json.loads(out)
        got = {
            v["id"]: (Fraction(v["banzhaf_index"]), Fraction(v["shapley_shubik"]))
            for v in doc["voters"]
        }
        want = {e.id: (e.banzhaf_index, e.shapley_shubik) for e in self.reference.entries}
        if got != want:
            return fail("custom: CLI indices differ from the checked in-process result")
        return True


class EmitDatasets(Workload):
    """Every named dataset, emitted in one warm process."""

    name = "emit-datasets"

    def __init__(self, *args):
        super().__init__(*args)
        names = TINY_ARTIFACTS if self.tiny else self.vp.report.ARTIFACT_NAMES
        self.ops = [Op(name) for name in names]

    def execute(self, op: Op):
        return self.vp.report.emit_artifact(op.label)

    def check(self, op: Op, output) -> bool:
        want = self.expected.get("emit", {}).get(op.label)
        if want is None or sha256(output) != want["sha256"]:
            return fail(f"{op.label}: artifact differs from the recorded digest")
        return True


class FineGrid(Workload):
    """One seeded 36-voter roster on a 10^5-cell population grid,
    blocking minority off and on."""

    name = "fine-grid"

    def __init__(self, *args):
        super().__init__(*args)
        vp = self.vp
        n, total = (12, 2_000) if self.tiny else (36, 100_000)
        pops = heavy_tailed_weights(self.rng, n, total)
        rows = tuple(vp.Voter(f"R{i:02d}", f"Region {i:02d}", p) for i, p in enumerate(pops, 1))
        table = vp.PopulationTable(rows=rows, unit="synthetic units")
        self.ops = []
        for blocking in (False, True):
            config = vp.ScenarioConfig(name="fine", members=table.ids(), include_blocking=blocking)
            scenario = vp.scenarios.make_scenario(table, config)
            label = f"blocking-{'on' if blocking else 'off'}"
            self.record_game(label, vp.scenarios.scenario_game(scenario))
            self.ops.append(Op(label, payload=scenario))
        self.seen: dict[str, str] = {}  # label -> digest of the checked output

    def execute(self, op: Op):
        vp = self.vp
        result = vp.engine.compute_all(vp.scenarios.scenario_game(op.payload))
        return result, vp.report.render(result, format="json")

    def check(self, op: Op, output) -> bool:
        result, text = output
        digest = sha256(text)
        if op.label not in self.seen:
            if not check_game(self.vp, result.game, result):
                return False
            self.seen[op.label] = digest
        if digest != self.seen[op.label]:
            return fail(f"{op.label}: output changed between passes")
        return True


WORKLOADS = {w.name: w for w in (CliSession, EmitDatasets, FineGrid)}
