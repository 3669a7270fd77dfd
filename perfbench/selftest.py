"""Self-test of the benchmark, on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, ends its stdout with the result
  line and reports exactly the metrics BENCHMARK.json names, each with
  its unit, and no failures;
- a corrupted expected digest makes the run report failed operations
  (failed_frac > 0), so the correctness gate fires;
- in a directory holding only BENCHMARK.json and the benchmark's own
  files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work" / "selftest"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(workload: str, trace: int, *extra: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    expect(proc.returncode == 0, f"{what}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                what = f"{workload} --trace {trace}"
                result = result_of(bench(workload, trace), what)
                expect(result["correct"] and result["failed"] == 0, f"{what}: failures reported")
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == want, f"{what}: metrics {got} != {want}")
                expect(
                    all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                    f"{what}: non-numeric metric value",
                )
                print(f"ok  {what}: {result['attempted']} operations, {len(got)} metrics")

        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        expected["emit"]["table1"]["sha256"] = "0" * 64
        expected["cli"]["emit-table1"]["stdout_sha256"] = "0" * 64
        corrupt = WORK / "corrupt-expected.json"
        corrupt.write_text(json.dumps(expected), encoding="utf-8")
        for workload in ("emit-datasets", "cli-session"):
            what = f"{workload} with a corrupted digest"
            result = result_of(bench(workload, 0, "--expected", str(corrupt)), what)
            expect(not result["correct"] and result["failed"] / result["attempted"] > 0, f"{what}: gate did not fire")
            print(f"ok  {what}: failed_frac = {result['failed']}/{result['attempted']}")

        bare = WORK / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("emit-datasets", 0, root=bare)
        printed = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not printed, "bare directory: expected a non-zero exit and no result")
        print(f"ok  bare directory: exit code {proc.returncode}, no result")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
