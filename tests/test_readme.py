"""The README's "Library quick start" block runs and gives the values its
comments state, so a rename in the API it calls cannot leave it stale."""

import re
from fractions import Fraction as F
from pathlib import Path

import waldlines

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
