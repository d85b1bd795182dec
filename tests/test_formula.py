"""Formula DSL parsing and binding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agendascope.errors import FormulaSyntaxError, NonNumericSpline, UnknownCovariate
from agendascope.formula import (CATEGORICAL, LINEAR, SPLINE, Term,
                                 bind_formula, parse_formula)
from oracles import parse_formula_reference

# formula pieces, whitespace of several kinds, non-ASCII letters and a
# non-ASCII digit, so that names may be digit-led or broken mid-way
_PIECES = st.lists(st.sampled_from([
    "s", "(", ")", ",", "=", "+", "df", " ", "\t", "\n", "\u00a0", "Ω", "é",
    "\u0663", "0", "3", "4", "10", "9x", "2df", "x", "_a1", "year", "region",
    "gdp_pc", "s(", ",df=", "*", "-"]), max_size=14).map("".join)
# whole terms, well-formed or not, over few names, so that terms repeat
# and errors follow complete terms
_TERMS = st.lists(st.tuples(st.sampled_from([
    "x", "year", "region", "s", "_a1", "s(x)", "s(year,df=4)", "s( x , df = 10 )",
    "s(x,df=3)", "s(x, 4)", "s(x,dg=5)", "s(x", "s(year,df=\u0663\u0663)", "9x",
    "Ω", "é x", "", "s(x,df=)", "s(x df=5)", "s\t(é)"]),
    st.sampled_from([" + ", "+", "\t+\n", " ", "", "-", " +"])),
    max_size=5).map(lambda pairs: "".join(term + sep for term, sep in pairs))


class TestParse:
    def test_plain_terms(self):
        formula = parse_formula("region + conflict")
        assert formula.terms == (Term(CATEGORICAL, "region"),
                                 Term(LINEAR, "conflict"))

    def test_spline_default_df(self):
        formula = parse_formula("s(gdp_pc)")
        assert formula.terms == (Term(SPLINE, "gdp_pc", df=10),)

    def test_spline_explicit_df(self):
        formula = parse_formula("s(year, df=6)")
        assert formula.terms == (Term(SPLINE, "year", df=6),)

    def test_spline_df_too_small(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("s(gdp_pc,df=3)")
        assert "at least 4" in str(err.value)
        assert err.value.offset == len("s(gdp_pc,df=")

    def test_full_paper_style_formula(self):
        text = "s(gdp_pc,df=10) + s(year,df=10) + region + conflict + polity"
        formula = parse_formula(text)
        kinds = [t.kind for t in formula.terms]
        assert kinds == [SPLINE, SPLINE, CATEGORICAL, LINEAR, LINEAR]

    def test_whitespace_insignificant(self):
        a = parse_formula("s( gdp_pc , df = 5 )+region")
        b = parse_formula("s(gdp_pc,df=5) + region")
        assert a.terms == b.terms

    def test_empty_formula(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   ")

    def test_missing_plus(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("region conflict")
        assert err.value.offset == len("region ")

    def test_unclosed_spline(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("s(gdp_pc")

    def test_duplicate_terms_rejected(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("polity + region + polity")
        assert err.value.offset == len("polity + region + ")

    def test_byte_offsets_in_unicode_text(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("polity + Ω")
        assert err.value.offset == len("polity + ".encode("utf-8"))

    def test_name_s_not_confused_with_spline(self):
        formula = parse_formula("s + polity")
        assert formula.terms[0] == Term(LINEAR, "s")

    def test_syntax_error_found_before_duplicate_term(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("polity + polity + s(x")
        assert err.value.offset == len("polity + polity + s(x")
        assert "expected ')'" in str(err.value)

    def test_non_name_where_df_belongs(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("s(year, 4)")
        assert "expected a covariate name" in str(err.value)
        assert err.value.offset == len("s(year, ")


def _outcome(parse, text):
    """The terms ``parse`` finds in ``text``, or its error's type, message
    and byte offset."""
    try:
        return parse(text)
    except (FormulaSyntaxError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_PIECES, _TERMS))
def test_parser_matches_scanner_reference(text):
    """The token parser gives the terms of the character-scanner reference,
    or the same error type, message and byte offset."""
    assert (_outcome(lambda t: parse_formula(t).terms, text)
            == _outcome(parse_formula_reference, text))


class TestBind:
    TABLE = {"region": ["EAS", "SSA", None], "conflict": [0, 1, 0],
             "polity": [3, -5, 10], "gdp_pc": [100.0, 200.0, 300.0],
             "label": ["a", "b", "b"]}

    def test_unknown_covariate(self):
        with pytest.raises(UnknownCovariate):
            bind_formula(parse_formula("nonexistent"), self.TABLE)

    def test_string_column_upgrades_to_categorical(self):
        bound = bind_formula(parse_formula("label + conflict"), self.TABLE)
        assert bound.terms[0].kind == CATEGORICAL
        assert bound.terms[1].kind == LINEAR

    def test_spline_on_string_column_rejected(self):
        with pytest.raises(ValueError) as err:
            bind_formula(parse_formula("s(label,df=4)"), self.TABLE)
        assert isinstance(err.value, NonNumericSpline) and err.value.name == "label"

    def test_region_stays_categorical(self):
        bound = bind_formula(parse_formula("region"), self.TABLE)
        assert bound.terms[0].kind == CATEGORICAL
