"""Command line interface.  Its usage (subcommands, flags, literal grammar
and exit statuses) is the README's CLI section.

One parser serves every `main` call of a process: it is built on the first
call (not at import) and reused, while `build_parser` still returns a fresh
one.  The benchmark's tracer (perfbench/layers.py) relies on that: it wraps
`build_parser` so that the parser built after it is installed is traced.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, bounds, plane, report, space
from .cache import ResultCache, default_cache_path
from .cubic import half_at_most_e_s
from .linform import as_rational
from .reference import TABLE_S


class InputError(ValueError):
    """Malformed or out-of-range command-line input (exit status 2)."""


def _parse_rational_arg(text: str, *, what: str) -> Fraction:
    """A positive rational in the grammar of :func:`as_rational`."""
    try:
        x = as_rational(text)
    except ValueError as exc:
        raise InputError(f"invalid {what}: {exc}") from None
    if x <= 0:
        raise InputError(f"{what} must be positive, got {text!r}")
    return x


def _rational_at(source: str, chunk: str, offset: int, what: str) -> Fraction:
    try:
        return _parse_rational_arg(chunk, what=what)
    except InputError:
        raise InputError(
            f"invalid {what} {chunk.strip()!r} at position {offset} in {source!r}"
        ) from None


def _count_at(source: str, chunk: str, offset: int, what: str, least: int) -> int:
    """An integer of ASCII digits, no sign or underscore, at least `least`,
    read from `chunk`, which starts at `offset` in `source`."""
    text = chunk.strip()
    try:
        if text.isascii() and text.isdigit() and (value := int(text)) >= least:
            return value
    except ValueError:  # more digits than int() will convert
        pass
    want = "a positive integer" if least == 1 else f"an integer >= {least}"
    raise InputError(f"invalid {what} {text!r} at position {offset} in {source!r}, expected {want}")


def _fields(sep: str, text: str, offset: int = 0) -> list[tuple[str, int]]:
    """`text` split at `sep`, each field with its position in the literal
    being read, where `text` itself starts at `offset`."""
    fields = []
    for chunk in text.split(sep):
        fields.append((chunk, offset))
        offset += len(chunk) + len(sep)
    return fields


def parse_t_input(text: str) -> plane.SpaceSystem:
    """Parse "delta;q1,...,qs;p", the space system (delta; q1..qs | 1^p), e.g.
    "7;1,1,1,1,1;15" (the q-list may be empty: "4;;8")."""
    fields = _fields(";", text)
    if len(fields) != 3:
        raise InputError(f"expected 'delta;q1,...;p' with two semicolons, got {text!r}")
    qs = _fields(",", *fields[1]) if fields[1][0].strip() else []
    return plane.SpaceSystem(
        _rational_at(text, *fields[0], "degree"),
        tuple(_rational_at(text, *q, "multiplicity") for q in qs),
        _count_at(text, *fields[2], "line count", 0),
    )


def parse_l_input(text: str) -> tuple[Fraction, int]:
    """Parse "delta;s", e.g. "4;8"."""
    fields = _fields(";", text)
    if len(fields) != 2:
        raise InputError(f"expected 'delta;s' with one semicolon, got {text!r}")
    return _rational_at(text, *fields[0], "degree"), _count_at(text, *fields[1], "line count", 1)


def _tau(args: argparse.Namespace) -> Fraction:
    return _parse_rational_arg(args.tau, what="tau")


def _emit_reports(s_list: list[int], args: argparse.Namespace) -> int:
    """Print the reports of `s_list` in args.fmt, each with its search bound:
    None under --no-l, else a cache hit or a search written back."""
    tau = _tau(args)
    grid = _parse_rational_arg(args.grid, what="grid")
    precision = _parse_rational_arg(args.precision, what="precision")
    cache = None if args.no_l else ResultCache(Path(args.cache) if args.cache else default_cache_path())
    writable = True
    reports = []
    for s in s_list:
        l_bound = None if cache is None else cache.get(s, tau, grid)
        if cache is not None and l_bound is None:  # a cached 0 is a hit too
            l_bound = space.best_bound(s, tau, grid)
            if writable:
                try:
                    cache.put(s, tau, grid, l_bound)
                except OSError as exc:  # the reports are still printed
                    print(f"warning: result cache not written: {exc}", file=sys.stderr)
                    writable = False
        reports.append(report.build_report(s, precision, l_bound))
    if args.fmt == "json":
        print(json.dumps([report.report_to_json_dict(r) for r in reports], indent=1))
    elif args.fmt == "csv":
        sys.stdout.write(report.reports_to_csv(reports))
    else:
        sys.stdout.write(report.reports_to_markdown(reports))
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    return _emit_reports([_count_at(args.s, args.s, 0, "s", 1)], args)


def cmd_table(args: argparse.Namespace) -> int:
    s_list = [_count_at(args.s_list, *field, "s", 1) for field in _fields(",", args.s_list)]
    return _emit_reports(s_list, args)


def cmd_trace_t(args: argparse.Namespace) -> int:
    tau = _tau(args)
    inp = parse_t_input(args.input)
    t0 = plane.quadric_threshold(inp, tau).t0
    res = plane.reference_reduction(inp, tau)
    if t0 != res.t0:
        print(
            f"error: the plane kernel's threshold {t0} differs from the"
            f" reference reduction's {res.t0}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        payload = {
            "input": {
                "delta": str(inp.delta),
                "qs": [str(q) for q in inp.specialized],
                "p": inp.p,
            },
            "tau": str(tau),
            "steps": [plane.step_to_json(st) for st in res.steps],
            "t0": str(t0),
        }
        print(json.dumps(payload, indent=1))
        return 0
    for st in res.steps:
        line = plane.format_system(st.system)
        if st.k is not None:
            line += f"  k={st.k}"
        print(line)
    print(f"t0 = {t0}")
    return 0


def cmd_trace_l(args: argparse.Namespace) -> int:
    tau = _tau(args)
    delta, s = parse_l_input(args.input)
    res = space.certify_lower_bound(delta, s, tau)
    steps = space.rendered_steps(res)  # from the walk's integers, not res.steps
    if args.json:
        payload = {
            "delta": str(delta),
            "s": s,
            "tau": str(tau),
            "steps": [st.to_json() for st in steps],
            "answer": "yes" if res.answer else "no",
        }
        print(json.dumps(payload, indent=1))
        return 0
    lines = [f"start: {next(steps).text()}"]
    for i, st in enumerate(steps, start=1):
        line = f"{i:3d}. {st.text()}"
        if st.t0 is not None:
            line += f"  t0={st.t0}"
        lines.append(line)
    lines.append("yes" if res.answer else "no")
    print("\n".join(lines))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    ends = _fields("..", text)
    if len(ends) != 2:
        raise InputError(f"invalid range {text!r}, expected 'a..b'")
    lo = _count_at(text, *ends[0], "range start", 1)
    hi = _count_at(text, *ends[1], "range end", 1)
    if hi < lo:
        raise InputError(f"invalid range {text!r}")
    return lo, hi


def _max_s(args: argparse.Namespace) -> int:
    return _count_at(args.max_s, args.max_s, 0, "--max-s", 1)


def cmd_verify_chudnovsky(args: argparse.Namespace) -> int:
    max_s = _max_s(args)
    violations = bounds.chudnovsky_verify(max_s)
    for v in violations:
        print(f"FAIL {v}")
    print(
        f"chudnovsky: {'pass' if not violations else 'FAIL'}"
        f" (s <= {max_s}, {len(violations)} violations)"
    )
    return 0 if not violations else 1


def cmd_verify_thm4(args: argparse.Namespace) -> int:
    tau = _tau(args)
    lo, hi = _parse_range(args.range)
    marks = {}
    for s in range(lo, hi + 1):
        status = bounds.strong_sqrt_check(s, tau)
        marks[s] = "ok" if status.holds else ("exception" if status.method == "known-exception" else "FAIL")
        print(f"s={s}: floor(sqrt(2.5s))={math.isqrt(5 * s // 2)} {marks[s]} [{status.method}]")
    exceptions = [s for s, mark in marks.items() if mark == "exception"]
    ok = "FAIL" not in marks.values()
    print(f"thm4: {'pass' if ok else 'FAIL'} (range {lo}..{hi}, exceptions: {exceptions or 'none'})")
    return 0 if ok else 1


def cmd_verify_invariants(args: argparse.Namespace) -> int:
    max_s = _max_s(args)
    ss = range(1, max_s + 1)
    sq = [bounds.square_specialization_bound(s) for s in ss]
    rt = [bounds.sqrt_lower_bound(s) for s in ss]
    dg = [bounds.plane_degeneration_bound(s) for s in ss]
    am = [bounds.alpha_max(s) for s in ss]
    verdicts = {
        "square bound dominates sqrt bound": all(a >= b for a, b in zip(sq, rt)),
        "alpha_max is non-decreasing": all(a <= b for a, b in zip(am, am[1:])),
        "alpha_max window is tight": all(
            (a + 2) * (a + 1) <= 6 * s < (a + 3) * (a + 2) for s, a in zip(ss, am)
        ),
        # The greatest lower bound is taken doubled, so that chudnovsky_bound(s)
        # = (a + 1)/2 is an integer too.  half_at_most_e_s decides w/2 <= e_s
        # exactly, and its docstring proves that it holds for every s >= 20.
        "every lower bound is at most e_s": all(
            half_at_most_e_s(max(2 * q, 2 * r, 2 * d, a + 1), s)
            for s, q, r, d, a in zip(ss, sq, rt, dg, am)
        ),
        "small-s bounds respect known exact values": all(
            max(q, r, d) <= bounds.small_waldschmidt(s) for s, q, r, d in zip(ss[:5], sq, rt, dg)
        ),
    }
    for name, ok in verdicts.items():
        print(f"{'pass' if ok else 'FAIL'}  {name}")
    ok = all(verdicts.values())
    print(f"invariants: {'pass' if ok else 'FAIL'} (s <= {max_s})")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads an argument starting with "-" and a digit
    or "." (`-5..10`, `-1/2`) as a value, so that `--range -5..10` reaches
    the range's own check as `--range=-5..10` does.  argparse decides this
    with the pattern `_negative_number_matcher`, which by default accepts
    only plain negative numbers and so takes `-5..10` for an unknown option.
    No option here starts with "-" and a digit, and subparsers are built with
    this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="waldlines",
        description="Certified lower bounds for Waldschmidt constants of very general lines in P^3.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    tau = argparse.ArgumentParser(add_help=False)
    tau.add_argument("--tau", default="1/1000", help="ordering parameter (default 1/1000)")
    reports = argparse.ArgumentParser(add_help=False, parents=[tau])
    reports.add_argument("--precision", default="1/1000000", help="root enclosure width")
    reports.add_argument("--grid", default="1/1000", help="search step (default 1/1000)")
    reports.add_argument("--cache", default=None, help="cache file path")
    reports.add_argument("--format", dest="fmt", choices=("csv", "json", "md"), default="md")
    reports.add_argument("--no-l", action="store_true", help="skip the search bound")
    traces = argparse.ArgumentParser(add_help=False, parents=[tau])
    traces.add_argument("--json", action="store_true")

    p = sub.add_parser("bound", parents=[reports], help="all bounds for one s")
    p.add_argument("s")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table", parents=[reports], help="bound table for a comma-separated s list")
    p.add_argument("s_list", metavar="s1,s2,...", nargs="?", default=",".join(map(str, TABLE_S)))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("trace-t", parents=[traces], help='plane-reduction trace, input "delta;q1,..;p"')
    p.add_argument("input")
    p.set_defaults(func=cmd_trace_t)

    p = sub.add_parser("trace-l", parents=[traces], help='degeneration trace, input "delta;s"')
    p.add_argument("input")
    p.set_defaults(func=cmd_trace_l)

    verify = sub.add_parser("verify", help="exact verification sweeps")
    targets = verify.add_subparsers(dest="target", required=True)
    max_s = argparse.ArgumentParser(add_help=False)
    max_s.add_argument("--max-s", default="1000", help="largest s (default 1000)")

    p = targets.add_parser("chudnovsky", parents=[max_s], help="the Chudnovsky-type chain for s <= --max-s")
    p.set_defaults(func=cmd_verify_chudnovsky)

    p = targets.add_parser("thm4", parents=[tau], help="the bound floor(sqrt(2.5 s)) for each s in --range")
    p.add_argument("--range", default="11..60", help="s range a..b (default 11..60)")
    p.set_defaults(func=cmd_verify_thm4)

    p = targets.add_parser("invariants", parents=[max_s], help="the bounds' invariants for s <= --max-s")
    p.set_defaults(func=cmd_verify_invariants)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _stdout_fd() -> int | None:
    try:
        return sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone (e.g. `| head`): send what stdout still holds
        # to devnull so the flush at exit cannot fail again, and exit 1; a
        # stream with no file descriptor is the caller's, and sees the error
        fd = _stdout_fd()
        if fd is None:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except plane.IterationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
