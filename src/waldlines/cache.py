"""Persistent result cache: a single JSON file keyed by (s, tau, grid,
precision, source fingerprint).

Hits are returned only on exact key matches.  The fingerprint is a digest of
the package's own source files, so a report is reused only by the code that
produced it, and each write drops the entries of every other fingerprint.
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

from .report import BoundReport, report_from_json_dict, report_to_json_dict


@functools.cache
def source_fingerprint() -> str:
    """sha256 of the package's *.py files, read once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cache_key(s: int, tau: Fraction, grid: Fraction, precision: Fraction) -> str:
    return f"s={s};tau={tau};grid={grid};precision={precision};src={source_fingerprint()}"


class ResultCache:
    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        try:  # a missing or unreadable cache, or one not an object of objects, is empty
            entries = json.loads(self.path.read_text()).get("entries", {})
            if all(isinstance(v, dict) for v in entries.values()):
                self._entries = entries
        except (OSError, ValueError, AttributeError):
            pass

    def get(
        self, s: int, tau: Fraction, grid: Fraction, precision: Fraction
    ) -> BoundReport | None:
        raw = self._entries.get(cache_key(s, tau, grid, precision))
        try:  # an entry that is not a readable report is a miss
            return None if raw is None else report_from_json_dict(raw)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return None

    def put(self, report: BoundReport, tau: Fraction, grid: Fraction) -> None:
        """Store under the report's own s and e_s precision, dropping every
        entry written by other source code."""
        current = f";src={source_fingerprint()}"
        self._entries = {k: v for k, v in self._entries.items() if k.endswith(current)}
        key = cache_key(report.s, tau, grid, report.e_precision)
        self._entries[key] = report_to_json_dict(report)
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
