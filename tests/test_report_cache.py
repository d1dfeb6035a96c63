import json
from fractions import Fraction as F

from waldlines import cache, cli
from waldlines.cache import ResultCache, cache_key, source_fingerprint
from waldlines.report import (
    build_report,
    decimal_places,
    decimal_str,
    report_to_json_dict,
    reports_to_csv,
    reports_to_markdown,
)

TAU = F(1, 1000)
GRID = F(1, 1000)
EPS = F(1, 10**6)


def quick_report(s: int):
    return build_report(s, EPS, None)


class TestDecimals:
    def test_places_from_precision(self):
        assert decimal_places(F(1, 10**6)) == 6
        assert decimal_places(F(1, 1000)) == 3
        assert decimal_places(F(1)) == 0

    def test_round_half_even(self):
        assert decimal_str(F(25, 1000), 2) == "0.02"
        assert decimal_str(F(35, 1000), 2) == "0.04"
        assert decimal_str(F(-25, 1000), 2) == "-0.02"
        assert decimal_str(F(7, 2), 1) == "3.5"


class TestReport:
    def test_s10_values(self):
        r = quick_report(10)
        assert (r.sqrt_bound, r.square_bound, r.degeneration_bound) == (4, 4, 4)
        assert r.chud == F(7, 2)
        assert abs(r.e_root.midpoint - F("5.107249")) < F(1, 10**4)
        assert r.l_bound is None

    def test_s1_trivial(self):
        r = quick_report(1)
        assert (r.sqrt_bound, r.square_bound, r.degeneration_bound) == (1, 1, 1)
        assert r.chud == 1
        assert r.e_root.lo == r.e_root.hi == 1

    def test_s20_discrepancy_flag(self):
        r = quick_report(20)
        assert r.chud == 5
        assert any("chudnovsky-reference-mismatch" in f for f in r.flags)

    def test_exception_flags(self):
        for s in (4, 7, 10):
            assert any("strong-bound-exception" in f for f in quick_report(s).flags)
        assert not any(
            "strong-bound-exception" in f for f in quick_report(11).flags
        )

    def test_renderings_agree_numerically(self):
        reports = [quick_report(s) for s in (1, 10, 20)]
        csv_lines = reports_to_csv(reports).strip().splitlines()
        header = csv_lines[0].split(",")
        md = reports_to_markdown(reports)
        for line, r in zip(csv_lines[1:], reports):
            row = dict(zip(header, line.split(",")))
            d = report_to_json_dict(r)
            assert int(row["s"]) == d["s"]
            assert F(row["thm_chud"]) == F(d["thm_chud"])
            assert int(row["thm_approach1"]) == d["thm_approach1"]
            assert int(row["thm_approach1alg"]) == d["thm_approach1alg"]
            assert int(row["thm_approach2alg"]) == d["thm_approach2alg"]
            assert row["e_s"] == d["e_s"]["decimal"]
            assert f"| {row['e_s']} " in md or f" {row['e_s']} |" in md

    def test_csv_header(self):
        csv = reports_to_csv([quick_report(10)])
        assert csv.splitlines()[0] == (
            "s,thm_chud,thm_approach1,thm_approach1alg,thm_approach2alg,algorithm_L,e_s"
        )


class TestCache:
    """The cache maps (s, tau, grid, source fingerprint) to the search bound
    alone, stored as its "p/q" string."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        ResultCache(path).put(10, TAU, GRID, F(4794, 1000))
        assert ResultCache(path).get(10, TAU, GRID) == F(4794, 1000)
        assert json.loads(path.read_text())["entries"] == {cache_key(10, TAU, GRID): "2397/500"}
        # best_bound's 0 (no certified grid point above 1) is a value too
        ResultCache(path).put(1, TAU, GRID, F(0))
        assert ResultCache(path).get(1, TAU, GRID) == 0

    def test_exact_key_match_only(self, tmp_path):
        path = tmp_path / "cache.json"
        ResultCache(path).put(10, TAU, GRID, F(3))
        cache = ResultCache(path)
        assert cache.get(10, TAU, GRID) == 3
        assert cache.get(10, F(1, 500), GRID) is None
        assert cache.get(10, TAU, F(1, 500)) is None
        assert cache.get(11, TAU, GRID) is None

    def test_key_carries_version(self, tmp_path, monkeypatch):
        fingerprint = source_fingerprint()
        assert len(fingerprint) == 16 and set(fingerprint) <= set("0123456789abcdef")
        assert cache_key(10, TAU, GRID) == f"s=10;tau=1/1000;grid=1/1000;src={fingerprint}"
        # a value cached by other source code is never served
        path = tmp_path / "cache.json"
        ResultCache(path).put(10, TAU, GRID, F(3))
        monkeypatch.setattr(cache, "source_fingerprint", lambda: "0" * 16)
        assert ResultCache(path).get(10, TAU, GRID) is None

    def test_put_drops_other_sources(self, tmp_path):
        path = tmp_path / "cache.json"
        current = cache_key(11, TAU, GRID)
        path.write_text(json.dumps({"entries": {
            "s=10;tau=1/1000;grid=1/1000;v=0.1.0": "3",
            f"s=10;tau=1/1000;grid=1/1000;precision=1/1000000;src={'0' * 16}": "3",
            current: "5",
        }}))
        ResultCache(path).put(10, TAU, GRID, F(7, 2))
        entries = json.loads(path.read_text())["entries"]
        assert entries == {current: "5", cache_key(10, TAU, GRID): "7/2"}

    def test_unreadable_cache_is_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        key = cache_key(10, TAU, GRID)
        # not JSON, JSON that is not an object of strings, a report object of
        # the former format, and one non-string entry beside a good one
        for payload in (
            "{not json", "[]", "null", '"x"', '{"entries": 5}', '{"entries": "3"}',
            json.dumps({"entries": {key: {"algorithm_L": "3"}}}),
            json.dumps({"entries": {key: "3", "other": 3}}),
        ):
            path.write_text(payload)
            assert ResultCache(path).get(10, TAU, GRID) is None, payload

    def test_unreadable_entry_is_a_miss(self, tmp_path, capsys):
        # a string under the current key that is not a rational literal, or
        # is one that best_bound never returns (negative, in (0, 1], or off
        # the grid), is searched again and overwritten, not served or raised on
        path = tmp_path / "cache.json"
        key = cache_key(5, TAU, GRID)
        for bad in ("", "x", "1/0", "3,1", "nan", "3/", "-5", "1/2", "1", "3001/1000000"):
            path.write_text(json.dumps({"entries": {key: bad}}))
            assert ResultCache(path).get(5, TAU, GRID) is None, bad
        assert cli.main(["bound", "5", "--format", "csv", "--cache", str(path)]) == 0
        assert ",3.111000," in capsys.readouterr().out
        assert json.loads(path.read_text())["entries"] == {key: "3111/1000"}
