from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_linform, reference_format_linform
from waldlines.linform import LinForm, as_rational, format_linform
from waldlines.space import best_bound


def lf(text: str) -> LinForm:
    return parse_linform(text)


class TestEval:
    def test_paper_grammar_examples(self):
        assert lf("-8+141t")(F(1, 1000)) == F(-7859, 1000)
        assert lf("7-2t")(0) == 7
        assert lf("-1+3t")(F(1, 3)) == 0

    def test_accepts_int_and_string_points(self):
        assert lf("3t")(2) == 6
        assert lf("1+t")("1/2") == F(3, 2)


class TestFormatParse:
    @pytest.mark.parametrize(
        "text",
        ["6-2t", "3t", "-8+141t", "7", "-1", "3/5045", "t", "-t", "1+t", "2-t", "0"],
    )
    def test_round_trip(self, text):
        assert format_linform(parse_linform(text)) == text

    def test_fraction_coefficients(self):
        f = LinForm(F(3, 2), F(-5, 7))
        assert format_linform(f) == "3/2-5/7t"
        assert parse_linform("3/2-5/7t") == f

    @pytest.mark.parametrize("bad", ["", "x", "1+2", "t+1", "3tt", "1/", "--t"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_linform(bad)

    @pytest.mark.parametrize(
        "a, b",
        [
            (0, 0), (0, 1), (0, -1), (0, 3), (0, -3), (0, F(5, 7)), (0, F(-5, 7)),
            (7, 0), (-7, 0), (F(3, 5045), 0), (F(-3, 2), 0),
            (6, 1), (6, -1), (F(-1, 2), 1), (F(-1, 2), -1),
            (-8, 141), (F(3, 2), F(-5, 7)), (F(-3, 2), F(1, 7)), (1, F(-1, 3)),
        ],
    )
    def test_matches_the_fraction_renderer(self, a, b):
        # a = 0, b = 0, b = +-1 and fractional b, each with either sign
        f = LinForm(a, b)
        assert format_linform(f) == reference_format_linform(f) == str(f)

    def test_as_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    @pytest.mark.parametrize("flag", [True, False])
    def test_as_rational_rejects_bools(self, flag):
        # a bool is an int, but not a number any caller means: read as 1,
        # tau=True ran best_bound(5) at tau = 1 and returned 1333/500
        with pytest.raises(TypeError, match="^cannot interpret bool as a rational$"):
            as_rational(flag)
        with pytest.raises(TypeError):
            LinForm(flag)
        with pytest.raises(TypeError):
            LinForm(F(1), F(2))(flag)
        with pytest.raises(TypeError):
            best_bound(5, flag, F(1, 1000))


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
linforms = st.builds(LinForm, fractions, fractions)
points = st.fractions(min_value=-10, max_value=10, max_denominator=1000)


class TestAlgebra:
    @settings(max_examples=300)
    @given(linforms, linforms, points)
    def test_eval_is_additive(self, f, g, x):
        assert (f + g)(x) == f(x) + g(x)
        assert (f - g)(x) == f(x) - g(x)

    @settings(max_examples=300)
    @given(linforms, linforms)
    def test_round_trip_any(self, f, g):
        assert parse_linform(format_linform(f)) == f
        assert parse_linform(format_linform(f - g)) == f - g

    @settings(max_examples=300)
    @given(linforms, linforms)
    def test_same_text_as_the_fraction_renderer(self, f, g):
        assert format_linform(f) == reference_format_linform(f)
        assert format_linform(f - g) == reference_format_linform(f - g)


class TestKeptValue:
    def test_exact_at_every_tau(self):
        # the value is kept per tau object: a new tau, and an equal but
        # distinct tau object, are each evaluated afresh and exactly
        f = LinForm(F(7, 3), F(-2, 5))
        first = F(1, 1000)
        assert f(first) == F(7, 3) - F(2, 5000)
        assert f(first) == F(7, 3) - F(2, 5000)
        assert f(F(1, 7)) == F(7, 3) - F(2, 35)
        assert f(F(1, 1000)) == F(7, 3) - F(2, 5000)
        assert f(first) == F(7, 3) - F(2, 5000)
        assert f(2) == F(7, 3) - F(4, 5)
        assert f("1/2") == F(7, 3) - F(1, 5)
        # a fresh form has no kept value to return, not even for None
        with pytest.raises(TypeError):
            LinForm(F(7, 3), F(-2, 5))(None)

    def test_the_kept_value_is_not_the_form(self):
        fresh, used = LinForm(F(1, 2), F(3)), LinForm(F(1, 2), F(3))
        assert used(F(1, 1000)) == F(503, 1000)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "LinForm(a=Fraction(1, 2), b=Fraction(3, 1))"
        assert {used: 1}[fresh] == 1
