"""The README's "Library quick start" block runs and gives the values its
comments state, and its flag table lists the CLI's options, so a rename in
the API or the CLI cannot leave it stale."""

import argparse
import re
from fractions import Fraction as F
from pathlib import Path

import waldlines
from waldlines import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start():
    code = quick_start_block()
    env: dict = {}
    exec(code, env)
    assert env["res"].answer and len(env["res"].steps) == 15
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
