"""The README's "Library quick start" block runs and gives the values its
comments state, every command of its CLI block runs, its flag table lists
the CLI's options, and the outputs and counts it quotes are what the code
gives, so a change to the API, the CLI or a result cannot leave it stale."""

import argparse
import json
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

import waldlines
from waldlines import cli, space
from waldlines.space import best_bound, certify_lower_bound

README = Path(__file__).resolve().parent.parent / "README.md"


def section(heading: str) -> str:
    """The README's text from ``heading`` to the next heading of any level."""
    return re.split(r"\n#+ ", README.read_text().split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def cli_commands() -> list[list[str]]:
    """The argv of each `waldlines ...` line in the CLI section's first
    code block, its comment dropped."""
    block = re.search(r"```\n(.*?)```", section("## CLI"), re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("waldlines ")]


def quick_start_block() -> str:
    return re.search(r"```python\n(.*?)```", section("## Library quick start"), re.S).group(1)


def test_library_quick_start():
    code = quick_start_block()
    env: dict = {}
    exec(code, env)
    assert env["res"].answer and len(env["res"].certificate[2]) == 15
    assert env["t0"] == F(8, 141)
    assert env["b"] == F(3833, 1000)
    for comment in ("# -> answer True, 15-step trace", "# 8/141", "# 3833/1000,"):
        assert comment in code


def test_package_exports_the_quick_start():
    # the package exports what the quick start imports, and nothing else
    names = re.search(r"^from waldlines import (.+)$", quick_start_block(), re.M).group(1)
    imported = {name.strip() for name in names.split(",")}
    assert sorted(imported | {"__version__"}) == sorted(waldlines.__all__)
    for name in waldlines.__all__:
        assert getattr(waldlines, name) is not None


def leaf_options(parser: argparse.ArgumentParser, name: str = "") -> dict[str, set[str]]:
    """The long options of each leaf subcommand under `parser`, --help aside,
    keyed by its name path, e.g. "verify thm4"."""
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        opts = {opt for action in parser._actions for opt in action.option_strings if opt.startswith("--")}
        return {name: opts - {"--help"}}
    found = {}
    for action in subcommands:
        for child_name, child in action.choices.items():
            found |= leaf_options(child, f"{name} {child_name}".lstrip())
    return found


def test_flag_table_lists_each_subcommands_options():
    # the "| subcommand | flags |" table names every leaf subcommand once,
    # with exactly the long options its parser accepts, --help aside
    table = README.read_text().split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines():
        _, names, flags, _ = row.split("|")
        for name in re.findall(r"`([a-z0-9 -]+)`", names):
            listed[name] = set(re.findall(r"`(--[a-z-]+)`", flags))
    assert listed == leaf_options(cli.build_parser())


def test_cli_block_is_read():
    # the block holds the commands the tests below run, one argv each
    commands = cli_commands()
    assert len(commands) >= 8 and all(commands)
    assert ["trace-t", "7;1,1,1,1,1;15"] in commands


@pytest.mark.parametrize("argv", cli_commands(), ids=shlex.join)
def test_cli_block_command_runs(argv, tmp_path, monkeypatch, capsys):
    # each command exits 0 and prints something; the result cache goes to
    # tmp_path, and so would the default cache under $HOME
    monkeypatch.setenv("WALDLINES_CACHE", str(tmp_path / "cache.json"))
    monkeypatch.setenv("HOME", str(tmp_path))
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.strip() and not err
    searched = argv[0] in ("bound", "table") and "--no-l" not in argv
    assert [p.name for p in tmp_path.iterdir()] == (["cache.json"] if searched else [])


def test_json_schema_example(tmp_path, capsys):
    # the schema example is the output of the command it names, with the
    # e_s enclosure elided
    text = section("### Report schema (JSON)")
    command = re.search(r"`waldlines (.+?)`", text).group(1).split()
    assert command == ["bound", "10", "--format", "json"]
    example = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    assert cli.main([*command, "--cache", str(tmp_path / "c.json")]) == 0
    got = json.loads(capsys.readouterr().out)
    for report in example:
        assert (report["e_s"].pop("lo"), report["e_s"].pop("hi")) == ("...", "...")
    for report in got:
        del report["e_s"]["lo"], report["e_s"]["hi"]
    assert got == example


def test_trace_notation_example(capsys):
    # "f^n" is n points of multiplicity f: the README quotes the first line
    # of a trace-t whose system has two points of multiplicity 4-2t
    text = section("### Trace formats")
    system, line = re.search(r'`trace-t "([^"]*)"` prints `([^`]*)` on its first line', text).groups()
    assert (system, line) == ("4;;0", "L2(8-4t; 4-2t^2)")
    assert cli.main(["trace-t", system]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line


def test_search_probe_count(monkeypatch):
    # "12 at s = 10": one certify_lower_bound run per probed degree
    stated = re.search(r"(\d+) at `s = 10` and `grid = 1/1000`", section("## What it computes"))
    probes = []

    def counted(delta, s, tau):
        probes.append(delta)
        return certify_lower_bound(delta, s, tau)

    monkeypatch.setattr(space, "certify_lower_bound", counted)
    best_bound(10, F(1, 1000), F(1, 1000))
    assert len(probes) == int(stated.group(1)) == 12


def test_published_row_mismatches():
    # the "Known reference mismatches" claims on the published algorithm_L row
    text = " ".join(section("## Known reference mismatches (reported, not patched)").split())
    taus = (F(1, 1000), F(1, 10000), F(1, 100000))
    for value, s in (("3.837", 7), ("4.807", 10), ("7.072", 20)):
        assert f"{value} (s={s})" in text
        assert not any(certify_lower_bound(F(value), s, tau).answer for tau in taus), value
    assert "11.570 (s=50) is not certified at `tau = 1/1000` but is at `tau = 1/10000`" in text
    assert [certify_lower_bound(F("11.570"), 50, tau).answer for tau in taus[:2]] == [False, True]
    assert "returns 4.794 at `tau = 1/1000`, `1/2000`, `1/5000` and `1/10000`" in text
    for tau in (F(1, 1000), F(1, 2000), F(1, 5000), F(1, 10000)):
        assert best_bound(10, tau, F(1, 1000)) == F("4.794"), tau
