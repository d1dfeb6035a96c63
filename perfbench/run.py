"""waldlines benchmark: one single-threaded process, closed loop, one caller.

    python3 perfbench/run.py --workload search|certify|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  A run
repeats the workload's op list (one "pass") while the next pass still fits
into --seconds, and at least the workload's minimum pass count, and checks
every output.

--trace 0 reports the end-to-end metrics, measured untraced.  Times are
given at the reference speed of hostspeed.py: each measured time is scaled
by the speed of the host measured right before and after it.  The measured
times are printed beside them.
  setup_s      median over fresh processes of the time from process start to
               the first timed op (import, inputs from the seed, one warm-up
               op, and for cli the temporary cache directory)
  wall_s       median over passes of the summed op latencies of one pass
  op_p50_ms    median op latency
  op_tail_ms   op latency at the highest percentile that leaves at least 10
               samples beyond it in the fewest samples a run can collect
  peak_rss_mb  ru_maxrss of this process
--trace 1 makes one untraced pass, then traced passes (at least two, and
while the next one still fits into --seconds since the untraced one began),
and reports the per-layer metrics of layers.py (counters of one pass, median
times per pass, as measured) and the tracing overhead (traced minus untraced
wall_s, both at reference speed).  Spans are written to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print each metric with its unit and sample
count, fail_frac with both counts, and the reason for every failed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
TRACED_MIN_PASSES = 2
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
# Counters of single search ops re-measured from outside against the
# baselines recorded in ROADMAP.md at the commit that introduced this
# benchmark: s -> (probes, plane calls).  A search change is expected to
# move them; the run prints whether they still match and does not fail.
SEARCH_BASELINES = {7: (373, 4318), 10: (315, 9252)}


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up processes it starts, on one CPU, so
    that the hostspeed kernel runs on the CPU that runs the timed work.  Where
    the platform does not allow it, the process is left as it is."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def import_program() -> None:
    """Put ./src first on the path and make sure waldlines comes from it."""
    package = SRC / "waldlines"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import waldlines

    if Path(waldlines.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: waldlines imported from {waldlines.__file__}, not {package}")


@dataclass
class PassResult:
    latencies: list[float]  # at reference speed
    measured: list[float]  # as measured
    kernel: list[float]  # hostspeed kernel times around the ops
    failures: list  # (op label, known defect or None, reason)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def measured_wall(self) -> float:
        return sum(self.measured)


def run_pass(wl, tracer=None, index: int = 0) -> PassResult:
    """Run one pass; each output is checked, untimed, right after its op and
    then dropped, so no op pays for the garbage of the ones before it."""
    from workloads import OpError, op_failure

    res = PassResult([], [], [], [])
    with wl.session() as ops:
        for i, op in enumerate(ops):
            before = hostspeed.kernel_time()
            if tracer is not None:
                tracer.op = f"{index}:{i}"
            t = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:
                out = OpError(exc)
            elapsed = time.perf_counter() - t
            if tracer is not None:
                tracer.op = None
            after = hostspeed.kernel_time()
            res.measured.append(elapsed)
            res.latencies.append(hostspeed.scale(elapsed, before, after))
            res.kernel += (before, after)
            if reason := op_failure(op, out):
                res.failures.append((op.label, op.known_defect, reason))
            del out
    return res


def run_passes(wl, seconds: float, min_passes: int, tracer=None, first: int = 0) -> list[PassResult]:
    """At least `min_passes` passes, and more while the next one, taken to
    last as long as the one before, still ends within `seconds`."""
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(passes) < min_passes or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        passes.append(run_pass(wl, tracer, first + len(passes)))
        last = time.perf_counter() - start
    return passes


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least 10 of `samples` beyond it."""
    if samples <= 10:
        raise ValueError("the tail percentile needs more than 10 samples")
    return 100 * (samples - 10) // samples


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Start-to-ready times of fresh processes that set the workload up and
    exit, at reference speed and as measured; each process is waited for
    before the next starts."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    scaled, measured = [], []
    for _ in range(SETUP_SAMPLES):
        before = hostspeed.kernel_time()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process exited {code} after {line!r}")
        measured.append(elapsed)
        scaled.append(hostspeed.scale(elapsed, before, hostspeed.kernel_time()))
    return scaled, measured


def summarise_failures(passes: list[PassResult]) -> tuple[int, int, bool]:
    """Print fail_frac with its counts and every failure; return attempted,
    failed and whether every failure is a known defect."""
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"  fail_frac    {len(failures) / attempted:.4f}  ({len(failures)} failed / {attempted} attempted)")
    for (label, defect, reason), n in Counter(failures).items():
        kind = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"  FAILED x{n} {label}: {reason} ({kind})")
    return attempted, len(failures), all(defect for _, defect, _ in failures)


def end_to_end(args, wl) -> tuple[dict, int, int, bool]:
    setup, setup_measured = measure_setup(args.workload, args.seed)
    passes = run_passes(wl, args.seconds, wl.min_passes)
    q = tail_percentile(len(passes[0].latencies) * wl.min_passes)

    def timings(setup: list[float], walls: list[float], latencies: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": percentile(latencies, q) * 1e3,
        }

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {**timings(setup, [p.wall for p in passes], [x for p in passes for x in p.latencies]),
              "peak_rss_mb": rss}
    measured = timings(setup_measured, [p.measured_wall for p in passes],
                       [x for p in passes for x in p.measured])
    n = sum(len(p.latencies) for p in passes)
    counts = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(passes)} passes of {len(passes[0].latencies)} ops",
        "op_p50_ms": f"{n} ops",
        "op_tail_ms": f"p{q} of {n} ops",
        "peak_rss_mb": "1 process",
    }
    for name, unit in END_TO_END_UNITS.items():
        as_measured = f"; {measured[name]:.6g} {unit} as measured" if name in measured else ""
        print(f"  {name:<12} {values[name]:.6g} {unit}  ({counts[name]}{as_measured})")
    kernel = statistics.median(k for p in passes for k in p.kernel)
    print(f"  host speed: hostspeed kernel median {kernel * 1e3:.4g} ms"
          f" (reference {hostspeed.REFERENCE_S * 1e3:g} ms), {2 * n} kernel runs")
    attempted, failed, ok = summarise_failures(passes)
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return metrics, attempted, failed, ok


def source_digest() -> str:
    """Digest of the program's and the benchmark's own source."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "waldlines").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counters_repeat(args, counters: dict) -> bool:
    """Counters of the same source and seed must repeat exactly, run to run."""
    path = OUT / f"counters-{args.workload}-seed{args.seed}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counters:
            diff = sorted(k for k in counters if before.get(k) != counters[k])
            print(f"  COUNTERS DIFFER from an earlier run with this seed and source: {diff}")
            return False
        print("  counters repeat an earlier run with this seed and source exactly")
        return True
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))
    return True


def per_layer(args, wl) -> tuple[dict, int, int, bool]:
    import layers

    start = time.perf_counter()
    untraced = run_pass(wl)
    remaining = args.seconds - (time.perf_counter() - start)
    with layers.traced() as tracer:
        passes = run_passes(wl, remaining, TRACED_MIN_PASSES, tracer, first=1)
    ops_of = [{f"{i}:{j}" for j in range(len(p.latencies))} for i, p in enumerate(passes, start=1)]
    per_pass = [layers.layer_metrics(tracer.spans, ops) for ops in ops_of]
    counters, _, bases = per_pass[0]
    ok = True
    if any(c != counters for c, _, _ in per_pass[1:]):
        print("  COUNTERS DIFFER between traced passes of this run")
        ok = False
    ok = check_counters_repeat(args, counters) and ok
    times = layers.median_times([t for _, t, _ in per_pass])
    overhead = statistics.median(p.wall for p in passes) - untraced.wall
    if args.workload == "search":
        labels = [op.label for op in wl.ops]
        for s, (probes, calls) in SEARCH_BASELINES.items():
            c, _, _ = layers.layer_metrics(tracer.spans, {f"1:{labels.index(f'best_bound s={s}')}"})
            got = (c["space.best_bound.probes"], c["plane.quadric_threshold.calls"])
            verdict = "match" if got == (probes, calls) else "differ"
            print(f"  s={s}: {got[0]} probes, {got[1]} plane calls"
                  f" (seed-commit baseline {probes}, {calls}: {verdict})")
    units = {**layers.COUNTERS, **layers.TIMES, "trace_overhead_s": "s"}
    values = {**counters, **times, "trace_overhead_s": overhead}
    for name, unit in units.items():
        extra = f"  (= {bases[name]})" if name in bases else ""
        print(f"  {name:<44} {values[name]:.6g} {unit}{extra}")
    print(f"  ({len(passes)} traced passes; counters are per pass, times are medians per pass)")
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_file)
    print(f"  {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    attempted, failed, fail_ok = summarise_failures([untraced, *passes])
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return metrics, attempted, failed, ok and fail_ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("search", "certify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    import_program()
    import workloads

    wl = workloads.make(args.workload, args.seed, OUT / f"sessions-{args.workload}")
    try:
        wl.warm_up()
        if args.setup_only:
            with wl.session():
                print("ready", flush=True)
            return 0
        print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, correct = run(args, wl)
    finally:
        wl.close()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
