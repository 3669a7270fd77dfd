"""votingpower benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-session|emit-datasets|fine-grid \
        --seed N --seconds S --trace 0|1 [--tiny] [--expected PATH]

An untraced run (``--trace 0``) repeats full passes of the workload until
``--seconds`` of pass time are spent, times set-up in fresh interpreters
between the passes, and reports the end-to-end metrics.  A traced run
(``--trace 1``) alternates untraced and traced passes, and reports the
per-layer metrics, derived from spans recorded around the package's
public functions, plus the tracing overhead.  Every operation's output is
checked outside the timed region; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory and the CLI
is started as ``python -c "from votingpower.cli import main; main()"``
with ``PYTHONPATH=src``.  Caches are not dropped and no CPU is pinned;
everything runs in one worker process, with at most one CLI subprocess
at a time and no thread pools.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, game_shape, grid_cells, installed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.calls": "count",
    "cli.startup_s": "s",
    "dataio.parse_s": "s",
    "scenarios.load_s": "s",
    "scenarios.build_s": "s",
    "scenarios.compare_s": "s",
    "engine.calls": "count",
    "engine.distinct_games": "count",
    "engine.useful_ratio": "ratio",
    "engine.compute_s": "s",
    "engine.compute_max_s": "s",
    "engine.grid_cells": "count",
    "engine.ns_per_cell": "ns",
    "engine.peak_alloc_mb": "MB",
    "oracle.calls": "count",
    "oracle.verify_s": "s",
    "oracle.coalitions": "count",
    "report.render_s": "s",
    "report.emit_self_s": "s",
    "report.bytes_out": "bytes",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}
SETUP_PROBE = (
    "import votingpower as vp\n"
    "for name in vp.FIXTURE_NAMES:\n"
    "    vp.builtin_scenario(name)\n"
)
SETUP_REPEATS = 9
PEAK_ALLOC_GAMES = 3  # largest distinct games re-run under tracemalloc


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--expected", type=Path, default=HERE / "expected.json")
    return p.parse_args(argv)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "votingpower" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'votingpower'}; run from a full checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import votingpower
    import votingpower.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(votingpower.__file__).resolve().parent != (SRC / "votingpower").resolve():
        die(f"imported votingpower from {votingpower.__file__}, not from {SRC}")
    return votingpower


# -- environment ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "votingpower").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(vp, args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "votingpower": vp.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "isolation": "caches not dropped, no CPU pinning; one worker process, "
        "at most one subprocess at a time, no thread pools",
    }


# -- measurement ---------------------------------------------------------------


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the package and loading
    every bundled fixture."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


@dataclass
class Pass:
    pass_s: float
    durations: list[float]  # per operation, in ``work.ops`` order
    outputs: list


def run_pass(ops, execute, tracer=None) -> Pass:
    """One closed-loop pass; exceptions become outputs that fail their check."""
    root = tracer.begin("bench.pass") if tracer else None
    durations, outputs = [], []
    t_pass = time.perf_counter()
    for op in ops:
        index = tracer.begin("bench.op") if tracer else None
        t0 = time.perf_counter()
        try:
            out = execute(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            out = exc
        durations.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(index)
        outputs.append(out)
    pass_s = time.perf_counter() - t_pass
    if tracer:
        tracer.end(root)
    return Pass(pass_s, durations, outputs)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, work, p: Pass) -> None:
        for op, out in zip(work.ops, p.outputs):
            self.attempted += 1
            self.failed += isinstance(out, Exception) or not work.check(op, out)


def repeat_cycles(seconds: float, cycle) -> None:
    """Run ``cycle()``, which returns the seconds it measured, until
    ``seconds`` of measured time have been spent (at least once)."""
    spent = 0.0
    while spent < seconds:
        spent += cycle()


def end_to_end(work, args, tally: Tally) -> tuple[dict, dict]:
    """Set-up probes spread between the passes, so that they sample the
    same stretch of time as the passes; each operation's time is its
    median over the passes, which rejects a pass hit by a transient stall."""
    setup = [time_setup()]
    passes: list[Pass] = []

    def cycle():
        p = run_pass(work.ops, work.execute)
        tally.add(work, p)
        passes.append(p)
        setup.append(time_setup())
        return p.pass_s

    repeat_cycles(args.seconds, cycle)
    while len(setup) < (2 if args.tiny else SETUP_REPEATS):
        setup.append(time_setup())
    per_op = [statistics.median(times) for times in zip(*(p.durations for p in passes))]
    return {
        "setup_s": statistics.median(setup),
        "pass_s": sum(per_op),
        "op_p50_s": statistics.median(d for p in passes for d in p.durations),
        "op_max_s": max(per_op),
        "peak_rss_mb": work.peak_rss_mb(),
    }, {
        "passes": len(passes),
        "pass_wall_s": [p.pass_s for p in passes],
        "op_median_s": dict(zip((op.label for op in work.ops), per_op)),
        "setup_probe_s": setup,
    }


def layer_metrics(tracer, pass_s: float) -> dict:
    """Per-layer figures of one traced pass."""
    games = tracer.games
    cells = sum(grid_cells(g) for g in games)
    compute_s = tracer.self_time("engine.compute")
    engine_spans = [s for s in tracer.spans if s.name == "engine.compute"]
    layers = tracer.layer_self_times()
    return {
        "cli.calls": len(tracer.outermost("cli.run")),
        "dataio.parse_s": tracer.inclusive("dataio.parse"),
        "scenarios.load_s": tracer.inclusive("scenarios.load"),
        "scenarios.build_s": tracer.inclusive("scenarios.build"),
        "scenarios.compare_s": tracer.inclusive("scenarios.compare"),
        "engine.calls": len(games),
        "engine.distinct_games": len(set(games)),
        "engine.useful_ratio": len(set(games)) / len(games) if games else 0.0,
        "engine.compute_s": compute_s,
        "engine.compute_max_s": max((s.duration for s in engine_spans), default=0.0),
        "engine.grid_cells": cells,
        "engine.ns_per_cell": compute_s * 1e9 / cells if cells else 0.0,
        "oracle.calls": len(tracer.oracle_sizes),
        "oracle.verify_s": tracer.inclusive("oracle.verify"),
        "oracle.coalitions": sum(1 << n for n in tracer.oracle_sizes),
        "report.render_s": tracer.inclusive("report.render"),
        "report.emit_self_s": tracer.self_time("report.emit"),
        "report.bytes_out": tracer.bytes_out,
        "trace.unattributed_frac": layers.get("bench", 0.0) / pass_s,
    }, layers


def peak_alloc_mb(vp, games) -> float:
    """Largest tracemalloc peak of compute_all over the biggest distinct games."""
    biggest = sorted(games, key=grid_cells, reverse=True)[:PEAK_ALLOC_GAMES]
    peak = 0
    for game in biggest:
        tracemalloc.start()
        try:
            vp.engine.compute_all(game)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6


def per_layer(vp, work, args, tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer medians over the
    traced ones.  cli-session replays each argv in-process through
    ``votingpower.cli.run``, untraced and traced, after its subprocess pass."""
    cli = not work.in_process
    inprocess = work.replay if cli else work.execute
    untraced, traced, startup, rows = [], [], [], []
    games = set()
    layer_totals: dict[str, float] = {}

    def cycle():
        spent = 0.0
        if cli:
            sub = run_pass(work.ops, work.execute)
            tally.add(work, sub)
            spent += sub.pass_s
        plain = run_pass(work.ops, inprocess)
        tally.add(work, plain)
        tracer = Tracer()
        with installed(tracer):
            p = run_pass(work.ops, inprocess, tracer)
        tally.add(work, p)
        untraced.append(plain.pass_s)
        traced.append(p.pass_s)
        if cli:
            startup.append(sum(w - r for w, r in zip(sub.durations, plain.durations)))
        row, layers = layer_metrics(tracer, p.pass_s)
        rows.append(row)
        for k, v in layers.items():
            layer_totals[k] = layer_totals.get(k, 0.0) + v
        games.update(tracer.games)
        return spent + plain.pass_s + p.pass_s

    repeat_cycles(args.seconds, cycle)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    metrics["engine.peak_alloc_mb"] = peak_alloc_mb(vp, games)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    detail = {
        "cycles": len(rows),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "layer_self_s_per_pass": {k: v / len(rows) for k, v in sorted(layer_totals.items())},
        "distinct_games": sorted(
            ({"n": n, "L": l, "W": w} for n, l, w in {game_shape(g) for g in games}),
            key=lambda d: (d["n"], d["L"], d["W"]),
        ),
    }
    return {k: metrics[k] for k in PER_LAYER}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    vp = import_package()
    os.chdir(ROOT)  # CLI argv paths are relative to the repository root
    if args.seconds <= 0:
        die("--seconds must be positive")
    try:
        expected = json.loads(args.expected.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        die(f"cannot read expected digests {args.expected}: {exc}")

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = WORKLOADS[args.workload](vp, ROOT, args.seed, args.tiny, expected, workdir)
        tally = Tally()
        if args.trace:
            metrics, detail = per_layer(vp, work, args, tally)
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(work, args, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    report = {
        "environment": environment(vp, args),
        "sizes": {"ops_per_pass": len(work.ops), "ops": [op.label for op in work.ops], "games": work.games},
        "failed_frac": tally.failed / tally.attempted,
        "run": detail,
    }
    print(json.dumps(report, indent=2))
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':28s} {report['failed_frac']:>16.6g} frac")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
