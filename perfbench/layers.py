"""Spans around the public functions of each waldlines layer, from outside.

`Tracer.install` rebinds module (and class) attributes of the program to
wrappers that record one span per call: (name, start, end, parent, op id)
plus a small summary of the returned value.  `Tracer.restore` puts every
original back; `traced(...)` does both around a block, so the program is
left untouched even when an op raises.  Spans stay in memory and are
written out once, when the run ends.

Nothing here changes what a wrapped function computes: wrappers pass
arguments and results through unchanged and only read the results.
"""

from __future__ import annotations

import gzip
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from waldlines import bounds, cache, cli, cubic, plane, report, space


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values if v is not None), default=0)


def _degeneration_info(res: space.DegenerationResult) -> tuple:
    n_sub = sum(1 for st in res.steps if st.move is space.LMove.SUBTRACT)
    n_spec = sum(1 for st in res.steps if st.move is space.LMove.SPECIALIZE)
    bits = max(
        _den_bits(st.system.delta for st in res.steps),
        _den_bits(st.t0 for st in res.steps),
    )
    return (res.answer, n_sub, n_spec, bits)


def _threshold_info(res: plane.ThresholdResult) -> tuple:
    n_crem = sum(1 for st in res.steps if st.move is plane.Move.CREMONA)
    n_merge = sum(1 for st in res.steps if st.move is plane.Move.MERGE)
    return (n_crem, n_merge, res.t0.denominator.bit_length())


_BEST = "space.best_bound"
_CERT = "space.certify_lower_bound"
_QT = "plane.quadric_threshold"
_ROOT = "cubic.largest_root"

# (owner, attribute, span name, summary of the result or None).  A function
# imported by name into several modules is rebound in each module that calls
# it, so calls through every binding are seen.  cache.py's own binding of
# report_to_json_dict is left alone: there it serialises, it does not render.
TARGETS: list[tuple[Any, str, str, Callable | None]] = [
    (space, "best_bound", _BEST, None),
    (report, "best_bound", _BEST, None),
    (space, "certify_lower_bound", _CERT, _degeneration_info),
    (bounds, "certify_lower_bound", _CERT, _degeneration_info),
    (space, "quadric_threshold", _QT, _threshold_info),
    (plane, "quadric_threshold", _QT, _threshold_info),
    (cubic, "largest_root", _ROOT, None),
    (space, "largest_root", _ROOT, None),
    (report, "largest_root", _ROOT, None),
    (bounds, "largest_root", _ROOT, None),
    (bounds, "chudnovsky_verify", "bounds.chudnovsky_verify", None),
    (report, "build_report", "report.build_report", None),
    (report, "report_to_json_dict", "report.render", None),
    (report, "reports_to_csv", "report.render", None),
    (report, "reports_to_markdown", "report.render", None),
    (cache.ResultCache, "get", "cache.get", lambda r: r is not None),
    (cache.ResultCache, "put", "cache.put", None),
    (cli, "parse_t_input", "cli.parse", None),
    (cli, "parse_l_input", "cli.parse", None),
    (cli, "_parse_rational_arg", "cli.parse", None),
    (cli, "_parse_range", "cli.parse", None),
]


class Tracer:
    """Span recorder.  `op` is set by the caller around each timed op; spans
    recorded while it is None (checks, warm-up) are kept but belong to no op."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, op id, result summary]
        self.spans: list[list] = []
        self.op: Any = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str | Callable, info: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [
                name(args) if callable(name) else name,
                perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None,
            ]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span[5] = info(result)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _rebind(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, name, info in TARGETS:
            self._rebind(owner, attr, self.wrap(owner.__dict__[attr], name, info))
        # The parser is built afresh on every cli.main call, so its
        # parse_args is wrapped on the instance and needs no restoring.
        build = cli.build_parser

        def build_parser():
            parser = build()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse")
            return parser

        self._rebind(cli, "build_parser", self.wrap(build_parser, "cli.parse"))
        self._rebind(cli, "main", self.wrap(cli.main, _main_span_name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _main_span_name(args: tuple) -> str:
    argv = args[0] if args else None
    return f"cli.main.{argv[0]}" if argv else "cli.main"


@contextmanager
def traced() -> Iterator[Tracer]:
    """Install a tracer for the duration of the block; every rebound
    attribute is restored on the way out, also when the block raises."""
    tracer = Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.restore()


# Per-layer metrics: name -> unit.  Counters are deterministic for a given
# seed; times are medians over the traced passes of a run.
CLI_SUBCOMMANDS = ("bound", "table", "trace-t", "trace-l", "verify")
COUNTERS = {
    "space.best_bound.calls": "count",
    "space.best_bound.probes": "count",
    "space.best_bound.useful_ratio": "ratio",
    "space.certify_lower_bound.calls": "count",
    "space.certify_lower_bound.steps_subtract": "count",
    "space.certify_lower_bound.steps_specialize": "count",
    "space.certify_lower_bound.answers_yes": "count",
    "plane.quadric_threshold.calls": "count",
    "plane.quadric_threshold.calls_per_certify": "ratio",
    "plane.quadric_threshold.steps_cremona": "count",
    "plane.quadric_threshold.steps_merge": "count",
    "linform.max_den_bits": "bits",
    "cubic.largest_root.calls": "count",
    "report.build_report.calls": "count",
    "cache.get.calls": "count",
    "cache.get.hits": "count",
    "cache.get.misses": "count",
    "cache.put.calls": "count",
    "cache.hit_ratio": "ratio",
}
TIMES = {
    "space.best_bound.busy_s": "s",
    "space.certify_lower_bound.busy_s": "s",
    "space.certify_lower_bound.self_s": "s",
    "plane.quadric_threshold.busy_s": "s",
    "cubic.largest_root.busy_s": "s",
    "bounds.chudnovsky_verify.busy_s": "s",
    "report.build_report.self_s": "s",
    "report.render.busy_s": "s",
    "cache.get.busy_s": "s",
    "cache.put.busy_s": "s",
    **{f"cli.main.{sub}.busy_s": "s" for sub in CLI_SUBCOMMANDS},
    "cli.parse.busy_s": "s",
}


def _ratio(num: int, den: int) -> tuple[float, str]:
    return (num / den if den else 0.0), f"{num}/{den}"


def layer_metrics(spans: list[list], ops: set) -> tuple[dict, dict, dict]:
    """Counters, times and ratio bases of the spans recorded inside `ops`.

    busy: time covered by spans of a name, nested same-name spans counted
    once.  self: span time minus the time of its direct child spans.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    busy: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_name: dict[str, list[int]] = {}
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        if op not in ops:
            continue
        calls[name] = calls.get(name, 0) + 1
        by_name.setdefault(name, []).append(i)
        self_t[name] = self_t.get(name, 0.0) + (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + (end - start)

    def idx(name: str) -> list[int]:
        return by_name.get(name, [])

    cert = [spans[i] for i in idx("space.certify_lower_bound")]
    probes = [s for s in cert if s[3] >= 0 and spans[s[3]][0] == "space.best_bound"]
    qts = [spans[i] for i in idx("plane.quadric_threshold")]
    qt_in_cert = sum(1 for s in qts if s[3] >= 0 and spans[s[3]][0] == "space.certify_lower_bound")
    gets = [spans[i][5] for i in idx("cache.get")]
    hits = sum(1 for hit in gets if hit)
    done_cert = [s[5] for s in cert if s[5] is not None]
    done_qt = [s[5] for s in qts if s[5] is not None]

    bases: dict[str, str] = {}
    counters: dict[str, float] = {}
    useful = sum(1 for s in probes if s[5] is not None and s[5][0])
    counters["space.best_bound.calls"] = calls.get("space.best_bound", 0)
    counters["space.best_bound.probes"] = len(probes)
    counters["space.best_bound.useful_ratio"], bases["space.best_bound.useful_ratio"] = _ratio(useful, len(probes))
    counters["space.certify_lower_bound.calls"] = len(cert)
    counters["space.certify_lower_bound.steps_subtract"] = sum(r[1] for r in done_cert)
    counters["space.certify_lower_bound.steps_specialize"] = sum(r[2] for r in done_cert)
    counters["space.certify_lower_bound.answers_yes"] = sum(1 for r in done_cert if r[0])
    counters["plane.quadric_threshold.calls"] = len(qts)
    counters["plane.quadric_threshold.calls_per_certify"], bases["plane.quadric_threshold.calls_per_certify"] = _ratio(qt_in_cert, len(cert))
    counters["plane.quadric_threshold.steps_cremona"] = sum(r[0] for r in done_qt)
    counters["plane.quadric_threshold.steps_merge"] = sum(r[1] for r in done_qt)
    counters["linform.max_den_bits"] = max(
        [r[3] for r in done_cert] + [r[2] for r in done_qt], default=0
    )
    counters["cubic.largest_root.calls"] = calls.get("cubic.largest_root", 0)
    counters["report.build_report.calls"] = calls.get("report.build_report", 0)
    counters["cache.get.calls"] = len(gets)
    counters["cache.get.hits"] = hits
    counters["cache.get.misses"] = len(gets) - hits
    counters["cache.put.calls"] = calls.get("cache.put", 0)
    counters["cache.hit_ratio"], bases["cache.hit_ratio"] = _ratio(hits, len(gets))

    times: dict[str, float] = {}
    for metric in TIMES:
        layer, _, kind = metric.rpartition(".")
        times[metric] = (self_t if kind == "self_s" else busy).get(layer, 0.0)
    return counters, times, bases


def median_times(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(t[k] for t in per_pass) for k in per_pass[0]}
