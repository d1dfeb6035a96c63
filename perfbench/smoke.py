"""Smoke test of the benchmark itself (takes a few minutes):

    python3 perfbench/smoke.py

Checks that
  * every metric BENCHMARK.json names is printed, with its unit, for every
    workload with --trace 0 and --trace 1, and the result line has exactly
    the keys correct, attempted, failed and metrics;
  * the cli workload counts its known cache-key failure and nothing else;
  * counters of a traced run repeat exactly in a second run with the same seed;
  * a deliberately wrong golden value shows up in fail_frac and makes the
    run incorrect;
  * every rebound attribute and WALDLINES_CACHE are restored when an op raises;
  * the benchmark exits non-zero without a result where the program's
    source is missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from waldlines import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_printed() -> None:
    for wl in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(bench(wl["name"], trace))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True, (wl["name"], trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
            if wl["name"] == "cli":
                # One known failure per session: the cache-key precision op.
                assert res["failed"] >= 1 and res["attempted"] == 14 * res["failed"], res
            else:
                assert res["failed"] == 0, res
            print(f"ok  {wl['name']} --trace {trace}: {len(want)} metrics with units")


def check_counters_repeat() -> None:
    first = result(bench("cli", 1, seed=7))
    again = bench("cli", 1, seed=7)
    assert "counters repeat an earlier run" in again.stdout, again.stdout[-2000:]
    second = result(again)
    for name in layers.COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    print("ok  traced counters repeat exactly for the same seed")


def check_wrong_golden() -> None:
    wl = workloads.Search(seed=1, golden={6: Fraction(3512, 1000)})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        attempted, failed, correct = run.summarise_failures([run.run_pass(wl)])
    assert (attempted, failed, correct) == (1, 1, False), (attempted, failed, correct)
    assert "fail_frac    1.0000  (1 failed / 1 attempted)" in out.getvalue(), out.getvalue()
    print("ok  a wrong golden value shows up in fail_frac")


def check_restored() -> None:
    saved = [(o, a, o.__dict__[a]) for o, a, _, _ in layers.TARGETS]
    saved += [(cli, "build_parser", cli.build_parser), (cli, "main", cli.main)]
    os.environ["WALDLINES_CACHE"] = "sentinel"
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        wl = workloads.Cli(1, workdir)
        with contextlib.suppress(RuntimeError), layers.traced() as tracer, wl.session() as ops:
            ops[8].call()  # trace-t, through the wrappers
            assert os.environ["WALDLINES_CACHE"] != "sentinel"
            raise RuntimeError("op raised")
        assert any(s[0] == "plane.quadric_threshold" for s in tracer.spans)
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is original, f"{attr} not restored"
        assert os.environ["WALDLINES_CACHE"] == "sentinel"
    finally:
        del os.environ["WALDLINES_CACHE"]
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok  rebound attributes and WALDLINES_CACHE restored after a raise")


def check_fails_without_source() -> None:
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("search", 0, cwd=bare)
        assert proc.returncode != 0, proc.returncode
        assert "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  exits non-zero without a result when the source is missing")


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    check_wrong_golden()
    check_restored()
    check_fails_without_source()
    check_counters_repeat()
    check_metrics_printed()
    print("smoke: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
