"""Record the expected outputs of the benchmark's fixed-input operations.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: the SHA-256 of the stdout of every
fixed CLI call and of every emitted artifact (text format), with the
(n, L, W) of each game behind them.  Before writing, every distinct game
is checked exactly: indices sum to 1 in both families, the dual game
gives identical indices, and for n <= 22 the enumeration oracle agrees.
Nothing is written if any check fails.

The digests define "unchanged output".  A change that claims to keep
the output byte-identical must pass against the existing file and must
not re-record it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, ROOT, SRC, import_package, source_digest
from spans import Tracer, game_shape, installed
from workloads import CLI_BOOT, CLI_CALLS, ORACLE_MAX_N, check_game, cli_replay, sha256


def main() -> int:
    vp = import_package()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    doc = {"source_sha256": None, "cli": {}, "emit": {}, "game_checks": []}
    games = []
    ok = True

    for label, argv in CLI_CALLS:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *argv], cwd=ROOT, env=env, capture_output=True, text=True
        )
        tracer = Tracer()
        with installed(tracer):
            code, out, _ = cli_replay(vp, argv)
        if proc.returncode != 0 or code != 0 or out != proc.stdout:
            print(f"{label}: exit {proc.returncode}/{code} or in-process output differs", file=sys.stderr)
            ok = False
        doc["cli"][label] = {
            "argv": argv,
            "stdout_sha256": sha256(proc.stdout),
            "games": [list(game_shape(g)) for g in tracer.games],
        }
        games += tracer.games

    for name in vp.report.ARTIFACT_NAMES:
        tracer = Tracer()
        with installed(tracer):
            text = vp.report.emit_artifact(name)
        doc["emit"][name] = {
            "sha256": sha256(text),
            "games": [list(game_shape(g)) for g in tracer.games],
        }
        games += tracer.games

    for game in dict.fromkeys(games):  # distinct, in first-seen order
        n, levels, width = game_shape(game)
        passed = check_game(vp, game, vp.engine.compute_all(game))
        ok &= passed
        doc["game_checks"].append(
            {
                "n": n,
                "L": levels,
                "W": width,
                "checks": "sums+dual+oracle" if n <= ORACLE_MAX_N else "sums+dual",
                "passed": passed,
            }
        )

    if not ok:
        print("not written: a check failed", file=sys.stderr)
        return 1
    doc["source_sha256"] = source_digest()
    path = HERE / "expected.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}: {len(doc['cli'])} CLI calls, "
          f"{len(doc['emit'])} artifacts, {len(doc['game_checks'])} distinct games checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
