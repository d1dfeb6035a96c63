"""Persistent cache of the search bound: one JSON file mapping (s, tau, grid,
source fingerprint) to the value of `best_bound` as a "p/q" string.

Hits are returned only on exact key matches, and only for a value that
`best_bound` can return.  The fingerprint is a digest of the package's own
source files, so a value is reused only by the code that produced it, and
each write drops the entries of every other fingerprint.
Writes go through an atomic replace; concurrent writers are not coordinated
beyond that (the CLI is the single writer in practice).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from .linform import as_rational


@functools.cache
def source_fingerprint() -> str:
    """sha256 of the package's *.py files, read once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cache_key(s: int, tau: Fraction, grid: Fraction) -> str:
    return f"s={s};tau={tau};grid={grid};src={source_fingerprint()}"


class ResultCache:
    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self._entries: dict[str, str] = {}
        try:  # a missing or unreadable cache, or one not an object of strings, is empty
            entries = json.loads(self.path.read_text()).get("entries", {})
            if all(isinstance(v, str) for v in entries.values()):
                self._entries = entries
        except (OSError, ValueError, AttributeError):
            pass

    def get(self, s: int, tau: Fraction, grid: Fraction) -> Fraction | None:
        """The stored value, or None: a miss is also an entry that is not a
        rational literal, or not 0 or a grid multiple above 1 as `best_bound` returns."""
        raw = self._entries.get(cache_key(s, tau, grid))
        if raw is None:
            return None
        try:
            value = as_rational(raw)
        except ValueError:
            return None
        return value if value == 0 or (value > 1 and (value / grid).denominator == 1) else None

    def put(self, s: int, tau: Fraction, grid: Fraction, value: Fraction) -> None:
        """Store `value` as "p/q", dropping every entry written by other
        source code."""
        current = f";src={source_fingerprint()}"
        self._entries = {k: v for k, v in self._entries.items() if k.endswith(current)}
        self._entries[cache_key(s, tau, grid)] = str(value)
        self._save()

    def _save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"entries": self._entries}, sort_keys=True, indent=1)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=".cache-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def default_cache_path() -> Path:
    env = os.environ.get("WALDLINES_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "waldlines" / "results.json"
