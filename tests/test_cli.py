import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import waldlines
from waldlines import bounds, cli, plane, report, space
from waldlines.cache import ResultCache, cache_key
from waldlines.cli import main, parse_l_input, parse_t_input
from waldlines.cli import InputError
from waldlines.cubic import half_at_most_e_s, largest_root
from helpers import parse_linform
from waldlines.linform import as_rational
from waldlines.plane import SpaceSystem


TAU = F(1, 1000)  # the default --tau, and the default --grid


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_search(*args):
    raise AssertionError("best_bound called on a cache hit")


class TestInputParsing:
    def test_t_input(self):
        assert parse_t_input("7;1,1,1,1,1;15") == SpaceSystem(F(7), (F(1),) * 5, 15)
        assert parse_t_input("4;;8") == SpaceSystem(F(4), (), 8)
        assert parse_t_input("10096/5045;3/5045,1;4") == SpaceSystem(
            F(10096, 5045), (F(3, 5045), F(1)), 4
        )

    def test_l_input(self):
        assert parse_l_input("4;8") == (F(4), 8)
        assert parse_l_input("24/5;10") == (F(24, 5), 10)

    @pytest.mark.parametrize(
        "bad", ["7;;x", "7;1,y;3", ";;", "7;1", "7;1;2;3", "a;1;2", "4;0;1"]
    )
    def test_bad_t_inputs(self, bad):
        with pytest.raises(InputError):
            parse_t_input(bad)

    @pytest.mark.parametrize("bad", ["4", "4;0", "4;-2", "x;8", "4;8;9"])
    def test_bad_l_inputs(self, bad):
        with pytest.raises(InputError):
            parse_l_input(bad)

    def test_error_reports_position(self):
        with pytest.raises(InputError, match="position"):
            parse_t_input("7;1,x,1;15")


# Every reader of rational literals shares one grammar, "p", "p/q" or "p.d":
# literal -> its value, or None when the grammar rejects it.
LITERALS = {
    "3": F(3),
    "-3/4": F(-3, 4),
    "0.001": F(1, 1000),
    "7.069": F(7069, 1000),
    "1/0": None,
    "1.5/2": None,
    ".5": None,
    "1e3": None,
    " 2 ": F(2),
}


def _tau_via_cli(capsys, literal: str) -> F:
    code, out, err = run(capsys, "trace-t", "7;1,1,1,1,1;15", "--json", f"--tau={literal}")
    if code != 0:
        assert code == 2 and err.startswith("error:"), (code, err)
        raise InputError(err)
    return F(json.loads(out)["tau"])


class TestRationalGrammar:
    @pytest.mark.parametrize("literal", sorted(LITERALS))
    def test_one_grammar(self, capsys, literal):
        def check(read, want):
            if want is None:
                with pytest.raises(ValueError):  # InputError is a ValueError
                    read(literal)
            else:
                assert read(literal) == want

        want = LITERALS[literal]
        check(as_rational, want)
        check(lambda x: parse_linform(x).a, want)
        check(lambda x: parse_linform(x + "t").b, want)
        # The CLI reads only positive rationals, so it also rejects -3/4.
        cli_want = want if want is not None and want > 0 else None
        check(lambda x: _tau_via_cli(capsys, x), cli_want)
        check(lambda x: parse_t_input(f"{x};1;2").delta, cli_want)


# Every reader of integer literals shares one grammar too: ASCII digits, with
# no sign or underscore.  literal -> its value, or None when the grammar
# rejects it; a reader that wants a positive integer also rejects 0.
COUNTS = {
    "10": 10,
    "010": 10,
    " 7 ": 7,
    "0": 0,
    "1_0": None,
    "+5": None,
    "-5": None,
    "5.0": None,
    "1e3": None,
    "\u0665": None,  # ARABIC-INDIC DIGIT FIVE, which int() reads as 5
    "": None,
    "9" * 5000: None,  # more digits than int() converts
}


def _count_via_cli(capsys, argv: list[str], shown: str) -> int:
    code, out, err = run(capsys, *argv)
    if code != 0:
        assert code == 2 and out == "" and err.startswith("error:"), (code, err)
        assert "position" in err
        raise InputError(err)
    return int(re.search(shown, out).group(1))


class TestCountGrammar:
    @pytest.mark.parametrize(
        "literal", sorted(COUNTS), ids=lambda x: x if len(x) < 9 else f"{x[0]}*{len(x)}"
    )
    def test_one_grammar(self, capsys, tmp_path, literal):
        cache = ["--no-l", "--format", "csv", "--cache", str(tmp_path / "c.json")]
        readers = {  # reader -> (least value it takes, read)
            "trace-t p": (0, lambda x: parse_t_input(f"4;;{x}").p),
            "trace-l s": (1, lambda x: parse_l_input(f"4;{x}")[1]),
            "bound s": (1, lambda x: _count_via_cli(capsys, ["bound", x, *cache], r"\n(\d+),")),
            "table s": (1, lambda x: _count_via_cli(
                capsys, ["table", f"3,{x}", *cache], r"\n3,.*\n(\d+),")),
            "--max-s": (1, lambda x: _count_via_cli(
                capsys, ["verify", "chudnovsky", f"--max-s={x}"], r"s <= (\d+)")),
            "--range start": (1, lambda x: _count_via_cli(
                capsys, ["verify", "thm4", f"--range={x}..10"], r"range (\d+)\.\.")),
            "--range end": (1, lambda x: _count_via_cli(
                capsys, ["verify", "thm4", f"--range=4..{x}"], r"\.\.(\d+),")),
        }
        want = COUNTS[literal]
        for name, (least, read) in readers.items():
            if want is None or want < least:
                with pytest.raises(InputError):
                    read(literal)
            else:
                assert read(literal) == want, name

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["table", "5, x"], "'x' at position 2 in '5, x'"),
            (["table", "5,,6"], "'' at position 2 in '5,,6'"),
            (["bound", "1_0"], "'1_0' at position 0 in '1_0'"),
            (["trace-t", "4;1,1;+8"], "'+8' at position 6 in '4;1,1;+8'"),
            (["trace-l", "4;0"], "'0' at position 2 in '4;0'"),
            (["verify", "thm4", "--range", "3.. x"], "'x' at position 3 in '3.. x'"),
            (["verify", "invariants", "--max-s", "1_000"], "'1_000' at position 0 in '1_000'"),
        ],
    )
    def test_error_names_the_position(self, capsys, argv, where):
        code, out, err = run(capsys, *argv)  # rejected before any cache is read
        assert (code, out) == (2, "")
        assert where in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "thm4", "--range", "-5..10"], "invalid range start '-5' at position 0 in '-5..10'"),
        (["bound", "3", "--tau", "-1/2"], "tau must be positive, got '-1/2'"),
        (["trace-l", "4;8", "--tau", "-.5"], "invalid tau: not a rational literal: '-.5'"),
    ],
)
def test_dash_value_as_a_separate_argument(capsys, argv, message):
    # a flag value starting with "-" reaches its own check whether it is
    # attached with "=" or given as the next argument
    attached = run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    separate = run(capsys, *argv)
    assert separate == attached
    assert separate[:2] == (2, "") and separate[2].startswith(f"error: {message}")


class TestTraceT:
    def test_golden_trace_text(self, capsys):
        code, out, _ = run(capsys, "trace-t", "7;1,1,1,1,1;15")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 20
        assert lines[0] == "L2(9+t; 7-2t, 2+3t, 1^30)  k=-1"
        assert lines[18] == "L2(-8+141t; 3t)"
        assert lines[19] == "t0 = 8/141"

    def test_json_trace(self, capsys):
        code, out, _ = run(capsys, "trace-t", "7;1,1,1,1,1;15", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["t0"] == "8/141"
        assert len(payload["steps"]) == 19
        assert payload["steps"][0]["mults"] == [["7-2t", 1], ["2+3t", 1], ["1", 30]]
        assert payload["steps"][0]["move"] == "cremona"

    def test_kernel_threshold_must_match_the_reference(self, capsys, monkeypatch):
        # the steps come from the reference reduction, the printed t0 from
        # the kernel; a kernel that disagrees is an error, not a trace
        wrong = plane.ThresholdResult(F(1, 2), 0, 0)
        monkeypatch.setattr(plane, "quadric_threshold", lambda inp, tau: wrong)
        code, out, err = run(capsys, "trace-t", "7;1,1,1,1,1;15")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "1/2" in err and "8/141" in err

    def test_reference_threshold_must_match_the_kernel(self, capsys, monkeypatch):
        # the same guard seen from the other side: a reference reduction
        # whose t0 is off prints no step of its trace
        reference = plane.reference_reduction

        def shifted(inp, tau):
            return reference(inp, tau)._replace(t0=F(8, 141) + 1)

        monkeypatch.setattr(plane, "reference_reduction", shifted)
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "trace-t", "7;1,1,1,1,1;15", *extra)
            assert (code, out) == (1, "")
            assert err == ("error: the plane kernel's threshold 8/141 differs from"
                           " the reference reduction's 149/141\n")

    def test_malformed_input_no_partial_output(self, capsys):
        code, out, err = run(capsys, "trace-t", "7;;x")
        assert code == 2
        assert out == ""
        assert "position" in err


class TestTraceL:
    def test_golden_trace_text(self, capsys):
        code, out, _ = run(capsys, "trace-l", "4;8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "start: (4; | 1^8)"
        assert len(lines) == 16  # start + 14 steps + answer
        assert lines[-2].endswith("(6/5045; | 1^4)")
        assert lines[-1] == "yes"

    def test_json_trace(self, capsys):
        code, out, _ = run(capsys, "trace-l", "4;8", "--json")
        payload = json.loads(out)
        assert payload["answer"] == "yes"
        assert len(payload["steps"]) == 15
        assert payload["steps"][-1]["delta"] == "6/5045"

    def test_no_answer(self, capsys):
        code, out, _ = run(capsys, "trace-l", "10;2")
        assert code == 0
        assert out.strip().splitlines()[-1] == "no"

    @pytest.mark.parametrize(
        "argv",
        [["7.069;20"], ["7.069;20", "--json"], ["10;2", "--tau", "1/100"], ["10;2", "--json"]],
    )
    def test_never_reads_the_steps(self, capsys, monkeypatch, argv):
        # trace-l prints from the walk's integers: with .steps raising, it
        # prints the same bytes
        want = run(capsys, "trace-l", *argv)

        def no_steps(self):
            raise AssertionError("trace-l read DegenerationResult.steps")

        monkeypatch.setattr(space.DegenerationResult, "steps", property(no_steps))
        assert run(capsys, "trace-l", *argv) == want


class TestBoundAndTable:
    def test_bound_json(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "bound", "10", "--no-l", "--format", "json",
            "--cache", str(tmp_path / "c.json"),
        )
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["thm_approach2alg"] == 4
        assert payload["e_s"]["decimal"].startswith("5.1072")

    def test_table_csv(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "1,10", "--no-l", "--format", "csv",
            "--cache", str(tmp_path / "c.json"),
        )
        lines = out.strip().splitlines()
        assert lines[0].startswith("s,thm_chud,")
        assert lines[1].split(",")[:2] == ["1", "1"]
        assert lines[2].split(",")[:3] == ["10", "3.5", "4"]

    def test_table_flags_exceptions(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "4,7,10", "--no-l",
            "--cache", str(tmp_path / "c.json"),
        )
        assert code == 0
        assert out.count("strong-bound-exception") == 3

    def test_cache_hit_is_identical(self, capsys, tmp_path, monkeypatch):
        # the cache holds the search bound alone; a hit is printed as the
        # cold run was, and runs no search
        path = tmp_path / "c.json"
        argv = ["bound", "5", "--format", "json", "--cache", str(path)]
        _, first, _ = run(capsys, *argv)
        assert json.loads(path.read_text())["entries"] == {cache_key(5, TAU, TAU): "3111/1000"}
        monkeypatch.setattr(report, "best_bound", no_search)
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert json.loads(first)[0]["algorithm_L"] == "3111/1000"

    def test_cached_zero_is_a_hit(self, capsys, tmp_path, monkeypatch):
        # best_bound(1) is 0: no grid point above 1 is certified
        argv = ["bound", "1", "--format", "json", "--cache", str(tmp_path / "c.json")]
        _, first, _ = run(capsys, *argv)
        monkeypatch.setattr(report, "best_bound", no_search)
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert json.loads(first)[0]["algorithm_L"] == "0"

    def test_no_l_hit_prints_no_search_bound(self, capsys, tmp_path):
        # a cached search bound must not show in a --no-l run
        argv = ["bound", "7", "--no-l", "--format", "csv", "--cache"]
        _, cold, _ = run(capsys, *argv, str(tmp_path / "cold.json"))
        warm = str(tmp_path / "warm.json")
        run(capsys, "bound", "7", "--cache", warm)
        _, hit, _ = run(capsys, *argv, warm)
        assert hit == cold

    def test_cache_env_override(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "env-cache.json"
        monkeypatch.setenv("WALDLINES_CACHE", str(target))
        code, _, _ = run(capsys, "bound", "2", "--grid", "1/20")
        assert code == 0
        assert json.loads(target.read_text())["entries"] == {cache_key(2, TAU, F(1, 20)): "13/10"}

    @pytest.mark.parametrize("via_env", [False, True])
    def test_no_l_never_opens_the_cache(self, capsys, tmp_path, monkeypatch, via_env):
        missing, garbage = tmp_path / "missing.json", tmp_path / "garbage.json"
        garbage.write_bytes(b"{not a cache")
        for path in (missing, garbage):
            if via_env:
                monkeypatch.setenv("WALDLINES_CACHE", str(path))
            flags = [] if via_env else ["--cache", str(path)]
            code, out, err = run(capsys, "table", "5,10", "--no-l", "--format", "csv", *flags)
            assert (code, err) == (0, "") and out.startswith("s,")
        assert sorted(tmp_path.iterdir()) == [garbage]
        assert garbage.read_bytes() == b"{not a cache"

    def test_failed_cache_write_keeps_the_reports(self, capsys, tmp_path, monkeypatch):
        # a cache path under a regular file cannot be written: the run warns
        # once, makes no second write, and prints what a writable cache gives
        blocker = tmp_path / "F"
        blocker.write_text("a regular file")
        argv = ["table", "2,3", "--grid", "1/20", "--format", "csv", "--cache"]
        _, want, _ = run(capsys, *argv, str(tmp_path / "ok.json"))
        puts = []
        put = ResultCache.put
        monkeypatch.setattr(ResultCache, "put", lambda *a: puts.append(1) or put(*a))
        code, out, err = run(capsys, *argv, str(blocker / "c.json"))
        assert (code, out, len(puts)) == (0, want, 1)
        assert err.startswith("warning: result cache not written: ") and err.count("\n") == 1
        code, _, err = run(capsys, *argv, str(blocker / "c.json"), "--no-l")
        assert (code, err) == (0, "")
        assert blocker.read_text() == "a regular file"

    def test_bound_with_search(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "bound", "3", "--grid", "1/20", "--format", "json",
            "--cache", str(tmp_path / "c.json"),
        )
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["algorithm_L"] is not None
        assert F(payload["algorithm_L"]) <= F(2)

    def test_rejects_bad_s(self, capsys, tmp_path):
        code, _, err = run(capsys, "bound", "0", "--no-l", "--cache", str(tmp_path / "c.json"))
        assert code == 2
        assert "positive" in err

    def test_cache_key_omits_precision(self, capsys, tmp_path, monkeypatch):
        # a bound searched at a coarse e_s precision is served at the default
        # one, with the default-width bracket computed afresh
        argv = ["bound", "5", "--format", "json", "--cache", str(tmp_path / "c.json")]
        _, coarse, _ = run(capsys, *argv, "--precision", "1/10")
        monkeypatch.setattr(report, "best_bound", no_search)
        _, fine, _ = run(capsys, *argv)
        for out, width in ((coarse, F(1, 10)), (fine, F(1, 10**6))):
            (entry,) = json.loads(out)
            assert entry["algorithm_L"] == "3111/1000"
            assert F(entry["e_s"]["hi"]) - F(entry["e_s"]["lo"]) <= width
        assert json.loads(coarse)[0]["e_s"] != json.loads(fine)[0]["e_s"]


# e_s brackets of `table 10,20,...,500 --no-l --format json`, as printed
# before the bisection moved from Fractions to integers on the dyadic grid:
# s -> (decimal, lo, hi).  Pinned at the CLI surface, so a bracket that moves
# in both cubic.largest_root and its test oracle still fails here.
E_S_GOLDEN = {
    10: ("5.107250", "5355339/1048576", "1338835/262144"),
    20: ("7.388233", "7747123/1048576", "1936781/262144"),
    50: ("11.899421", "12477447/1048576", "1559681/131072"),
    100: ("16.977025", "4450425/262144", "17801701/1048576"),
    200: ("24.154501", "12663915/524288", "25327831/1048576"),
    300: ("29.660941", "15550875/524288", "31101751/1048576"),
    400: ("34.302744", "17984517/524288", "35969035/1048576"),
    500: ("38.392095", "40257029/1048576", "20128515/524288"),
}


def test_table_e_s_golden(capsys, tmp_path):
    s_list = ",".join(map(str, E_S_GOLDEN))
    code, out, _ = run(
        capsys, "table", s_list, "--no-l", "--format", "json",
        "--cache", str(tmp_path / "c.json"),
    )
    assert code == 0
    shown = {
        r["s"]: (r["e_s"]["decimal"], r["e_s"]["lo"], r["e_s"]["hi"])
        for r in json.loads(out)
    }
    assert shown == E_S_GOLDEN


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "3", "--no-l", "--tau", "0"],
            ["bound", "3", "--no-l", "--grid=-1/2"],
            ["table", "3", "--no-l", "--precision", "0"],
            ["trace-l", "4;8", "--tau", "0"],
            ["trace-l", "0;8"],
            ["verify", "chudnovsky", "--max-s", "0"],
            ["verify", "invariants", "--max-s", "0"],
        ],
    )
    def test_out_of_range_values_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("WALDLINES_CACHE", str(tmp_path / "c.json"))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace-t", "7;1,1,1,1,1;15", "--grid", "1/7"],
            ["trace-l", "4;8", "--format", "csv"],
            ["verify", "thm4", "--cache", "x.json"],
            # the invariants' verdict is exact: no verify target reads a width
            ["verify", "invariants", "--precision", "1/10"],
            # each verify target reads only its own flags
            ["verify", "chudnovsky", "--tau", "0"],
            ["verify", "thm4", "--range", "11..12", "--max-s", "0"],
            ["verify", "invariants", "--range", "1..5"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestSharedParser:
    """main parses with one parser per process, built on its first call."""

    def test_built_once(self, capsys, monkeypatch):
        build, built = cli.build_parser, []

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        for argv in (["trace-l", "4;8"], ["trace-t", "4;;8"], ["verify", "chudnovsky", "--max-s", "20"]):
            assert run(capsys, *argv)[0] == 0
        assert len(built) == 1
        assert cli.build_parser() is not cli.build_parser()  # still a fresh one each

    def test_no_state_between_calls(self, capsys, tmp_path):
        cache = str(tmp_path / "c.json")
        _, out, _ = run(capsys, "bound", "5", "--no-l", "--cache", cache)
        assert "| algorithm_L | - |" in out
        _, out, _ = run(capsys, "bound", "5", "--cache", cache)
        assert "| algorithm_L | 3.111000 |" in out
        with pytest.raises(SystemExit) as exc:
            main(["bound", "5", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        code, out, err = run(capsys, "trace-l", "4;8")
        assert (code, err) == (0, "") and out.endswith("yes\n")

    def test_import_builds_no_parser(self):
        # a fresh interpreter, since this one has imported (and run) the CLI
        script = (
            "import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
            "import waldlines.cli as cli\n"
            "print(len(made), cli._parser.cache_info().currsize)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=_fresh_env(), capture_output=True, text=True, check=True
        ).stdout
        assert out == "0 0\n"


def _fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(waldlines.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


MODULES = sorted(p.stem for p in Path(waldlines.__file__).parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # the package imports only what its four exports need, so no module may
    # rely on another having been imported first
    subprocess.run([sys.executable, "-c", f"import waldlines.{module}"], env=_fresh_env(), check=True)


def test_cli_module_runs():
    out = subprocess.run(
        [sys.executable, "-m", "waldlines.cli", "--version"],
        env=_fresh_env(), capture_output=True, text=True, check=True,
    ).stdout
    assert out == f"waldlines {waldlines.__version__}\n"


def test_closed_pipe_ends_quietly():
    # a reader that stops after one line (`| head -1`) closes the pipe while
    # trace-l still has about 1 MB to write, far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "waldlines.cli", "trace-l", "11.569;50"],
        env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "start: (11569/1000; | 1^50)\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == ""  # no traceback, and nothing left to fail at exit


# sha256 of "exit <code>\n<stdout>\0<stderr>" for each command, recorded
# before trace-l and the verify sweeps stopped building Fractions: a change to
# any of these outputs, byte for byte, has to update this table on purpose.
OUTPUT_DIGESTS = {
    "trace-l 4;8": "688ebb1ee8412ee5ed01bf8bc259b9f618532465fd0ed52867ceaf7f9fc0a476",
    "trace-l 4;8 --json": "d6d3d36245e049bcd7e7f0752ca179a9475e0631e13e755a6db9df88cd0f252f",
    "trace-l 7.069;20": "ab82d534f02d2a2f443b737526e1eae20be4318bfd3797ce234baf1bccb0473c",
    "trace-l 7.069;20 --json": "45c847a1c67b850dcfeeafe11f009c62444f8539bbc3cbddcc136db67ce2ad60",
    "trace-l 11.569;50": "156efd3dc002b51a5c15d6470a94dbc981ab59b134aad3e91beea94436eee78c",
    "trace-l 11.569;50 --json": "ec9ac7f951e5ccabc9dc93b1dce32ca632f7e171bd0d1b2b743cb67260128162",
    "verify chudnovsky --max-s 1000": "6cf2a0e3025574024d2f027869bb118c2ddb2adf2572c375ea3a415979d13f0f",
    "verify invariants --max-s 200": "b8b6ec0dc63e45c57fdd9db59aba87a2866b3c4393f48c5265b99d924aed38f9",
    # recorded before the e_s brackets came from Newton steps and the
    # square-specialization and plane-degeneration bounds from closed forms
    "verify invariants --max-s 5000": "c2fdb32f83e752a0b07b9061a661ee7ebb6dfb35f1a127d2e33219da8bbf7573",
    # recorded before each verify target got its own handler; with the
    # " [method]" suffixes, it pins which method decides each s
    "verify thm4 --range 1..60": "1ea93b0d13e65322ae44e33a758b9b6aa24622ea68dddd35c6838a3f6a21d438",
    "table 10,50,100,200,500 --no-l --precision 1/10000000000000000000000000000000000000000 --format json":
        "0b3e3bfbc9d6e1e35a279d3746cddbc02452faf14d076660185882c48e506bc6",
    # recorded before the reference reduction evaluated each form at tau
    # once per normalize and summed k's coefficients directly
    "trace-t 7;1,1,1,1,1;15": "80960dd11e247e950c638e3537aca8afeadbc631432f8a24e33394a35a805bda",
    "trace-t 7;1,1,1,1,1;15 --json": "d20cd67c108158058af31109a2f1a0265e13d9a27800e9945230b23b56dd1a31",
    "trace-t 7;1,1,1,1,1;15 --tau 1/7": "34994c6e5cb694dd9ef7acb2335561d3bb03ed04d4abec92ca021c86d9a8b076",
    "trace-t 7;1,1,1,1,1;15 --tau 1/7 --json": "9174a002316811a42e6fcecfd452cd6b5b51d2b7ed2734542dc82fc21a445cd5",
    "trace-t 29/4;1/3,2/5,1,1,1/2,3;20": "b63fd6da70ebfb1ec7204bed7711a6dd766662c9caea87b6a416b3fdcad88028",
    "trace-t 29/4;1/3,2/5,1,1,1/2,3;20 --json": "ad60d70f4a09e5fcaf7fdf1aa1d4277c7eb876d6cbeba9c5252f796480a6fc0d",
}


@pytest.mark.parametrize("command", OUTPUT_DIGESTS)
def test_output_digest(capsys, command):
    code, out, err = run(capsys, *command.split(" "))
    digest = hashlib.sha256(f"exit {code}\n{out}\0{err}".encode()).hexdigest()
    assert digest == OUTPUT_DIGESTS[command]


class TestVerify:
    def test_chudnovsky_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "chudnovsky", "--max-s", "200")
        assert code == 0
        assert "pass" in out

    def test_invariants_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "invariants", "--max-s", "60")
        assert code == 0
        assert out.count("pass") >= 5

    @pytest.mark.parametrize("end, mark, code", [("lo", "pass", 0), ("hi", "FAIL", 1)])
    def test_invariants_bound_at_e_s(self, capsys, monkeypatch, end, mark, code):
        # a lower bound may reach e_s and no further: at s = 20 a bound just
        # below e_s passes and one just above it fails, 10^-40 apart
        s = 20
        bracket = largest_root(s, F(1, 10**40))
        v = getattr(bracket, end)
        assert half_at_most_e_s(2 * v, s) is (code == 0)
        closed_form = bounds.plane_degeneration_bound
        monkeypatch.setattr(bounds, "plane_degeneration_bound", lambda n: v if n == s else closed_form(n))
        got = run(capsys, "verify", "invariants", "--max-s", str(s))
        assert got[0] == code
        assert f"{mark}  every lower bound is at most e_s" in got[1].splitlines()
        assert got[1].count("FAIL") == 2 * code  # the check's line and the summary

    def test_thm4_small_range(self, capsys):
        code, out, _ = run(capsys, "verify", "thm4", "--range", "11..14")
        assert code == 0
        assert "exceptions: none" in out

    def test_thm4_exception_reported(self, capsys):
        code, out, _ = run(capsys, "verify", "thm4", "--range", "4..4")
        assert code == 0  # known exceptions are not violations
        assert "exception" in out
        # s = 1, 2, 3, 5 hold by their exact constants
        code, out, _ = run(capsys, "verify", "thm4", "--range", "1..10")
        assert code == 0
        assert "exceptions: [4, 7, 10]" in out
        assert out.count("ok [exact-value]") == 4

    def test_thm4_verdicts_and_methods(self, capsys):
        # with the " [method]" suffixes stripped, the output is what the loop
        # alone gave on every s >= 6 (digest recorded then); the methods show
        # which s the closed form decides
        code, out, err = run(capsys, "verify", "thm4", "--range", "1..60")
        suffix = re.compile(r" \[([a-zA-Z-]+)\]$", re.M)
        stripped = suffix.sub("", out)
        digest = hashlib.sha256(f"exit {code}\n{stripped}\0{err}".encode()).hexdigest()
        assert digest == "4eaade83d9aaed128f2edb12972755f8d454d30e4e52445857cb0da3e5d4f8ff"
        methods = Counter(suffix.findall(out))
        assert methods == {"exact-value": 4, "known-exception": 3, "algorithm-L": 15, "closed-form": 38}

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "thm4", "--range", "9..2")
        assert code == 2
        assert "range" in err
