import cmath
import json
import math
import os
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, strategies as st

from stcg import model as smodel
from stcg.contraction import (
    FrequencyTuple,
    _ShiftSeries,
    contraction_coefficient,
)
from stcg.symbols import (
    TAU,
    FreqExpr,
    GaussianFilter,
    parse_scalar,
    scalar_eval,
)

REPO = Path(__file__).resolve().parents[1]
#: Every stored effective model: the test goldens and the benchmark's data.
STORED_EXPORTS = sorted(
    [*(REPO / "tests" / "data").glob("*_order*.json"),
     *(REPO / "perfbench" / "data").glob("*.json")]
)

names = st.sampled_from(["wa", "wb", "wc", "wp"])
fractions = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
freq_exprs = st.dictionaries(names, fractions, max_size=3).map(FreqExpr)


class TestFreqExpr:
    def test_parse_examples(self):
        assert FreqExpr.parse("wc + wa") == FreqExpr.symbol(
            "wc"
        ) + FreqExpr.symbol("wa")
        assert FreqExpr.parse("-2*wp") == -2 * FreqExpr.symbol("wp")
        assert FreqExpr.parse("5/6*wd") == FreqExpr(
            {"wd": Fraction(5, 6)}
        )
        assert FreqExpr.parse("0").is_zero
        with pytest.raises(ValueError):
            FreqExpr.parse("wa + + wb")

    @pytest.mark.parametrize("text", ["1/0*w", "wa - 3/0*wb"])
    def test_parse_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            FreqExpr.parse(text)

    @given(freq_exprs)
    def test_str_round_trip(self, f):
        assert FreqExpr.parse(str(f)) == f

    @given(freq_exprs, freq_exprs)
    def test_additive_group(self, a, b):
        assert (a + b) - b == a
        assert a + (-a) == FreqExpr.zero()
        assert (a - b) == -(b - a)

    @given(freq_exprs)
    def test_evaluate_matches_sympy(self, f):
        point = {name: 0.5 + idx for idx, name in enumerate(sorted(f.symbols))}
        direct = f.evaluate(point)
        via_sympy = float(
            f.to_sympy().subs(
                {sp.Symbol(k, real=True): v for k, v in point.items()}
            )
        )
        assert direct == pytest.approx(via_sympy, abs=1e-12)

    def test_evaluate_requires_all_symbols(self):
        with pytest.raises(KeyError):
            FreqExpr.parse("wa + wb").evaluate({"wa": 1.0})


class TestGaussianFilter:
    def test_unit_at_zero(self):
        assert GaussianFilter()(FreqExpr.zero()) == 1

    def test_profile(self):
        f = GaussianFilter()
        w = FreqExpr.symbol("w")
        ws = sp.Symbol("w", real=True)
        assert sp.simplify(f(w) - sp.exp(-(ws**2) * TAU**2 / 2)) == 0

    def test_numeric_tau(self):
        f = GaussianFilter(0.5)
        val = float(f(FreqExpr.symbol("w")).subs(sp.Symbol("w", real=True), 2))
        assert val == pytest.approx(math.exp(-(2**2) * 0.25 / 2))

    def test_zero_tau_is_transparent(self):
        f = GaussianFilter(0)
        assert sp.simplify(f(FreqExpr.symbol("w")) - 1) == 0

    def test_rational_tau_kept(self):
        tau = sp.Rational(13, 50) / 10**9
        assert GaussianFilter(tau).tau is tau

    def test_float_tau_made_rational(self):
        tau = GaussianFilter(0.26e-9).tau
        assert isinstance(tau, sp.Rational)
        assert tau == sp.Rational(13, 50_000_000_000)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            GaussianFilter(-1.0)

    @pytest.mark.parametrize(
        "tau",
        [math.inf, -math.inf, math.nan, sp.oo, sp.nan],
        ids=["inf", "-inf", "nan", "sympy-oo", "sympy-nan"],
    )
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            GaussianFilter(tau)

    @pytest.mark.parametrize(
        "tau", [TAU, 0.26e-9, 0], ids=["symbolic", "numeric", "zero"]
    )
    def test_taylor_coefficients(self, tau):
        # the profile, expanded by the series kernel, gives the Taylor
        # coefficients g^(k)(w)/k! with no Float left in them
        f = GaussianFilter(tau)
        ws, eps = sp.Symbol("w", real=True), sp.Symbol("eps")
        profile = f(ws + eps)
        ref = sp.expand(profile.series(eps, 0, 5).removeO())
        coeffs = _ShiftSeries(eps).laurent(profile, 5)
        assert len(coeffs) == 5
        assert not any(c.has(sp.Float) for c in coeffs)
        for k, c in enumerate(coeffs):
            assert sp.simplify(c - ref.coeff(eps, k)) == 0


class TestScalarEval:
    def test_basic(self):
        g = sp.Symbol("g", real=True)
        value = scalar_eval(sp.I * g * TAU**2, {"g": 2.0, "tau": 3.0})
        assert value == pytest.approx(18j)

    def test_names_missing_symbols(self):
        g = sp.Symbol("g", real=True)
        with pytest.raises(KeyError, match="no value provided for symbol"):
            scalar_eval(g * TAU, {"g": 1.0})

    def test_float_is_its_decimal(self):
        # exp(-E) with E near 300 magnifies the 6e-17 between the float
        # 1.25e-10 and 1/8000000000 to 4e-14
        g = sp.Symbol("g", real=True)
        expr = sp.exp(-(g**2) * TAU**2 * 8)
        exact = expr.subs(TAU, sp.Rational(1, 8000000000))
        point = {"g": 2 * math.pi * 8e9, "tau": 1.25e-10}
        assert scalar_eval(expr, point) == scalar_eval(exact, point)

    def test_vanishing_denominator_is_nan(self):
        g = sp.Symbol("g", real=True)
        assert cmath.isnan(scalar_eval(1 / (g - TAU), {"g": 0.5, "tau": 0.5}))

    @pytest.mark.parametrize("weight", [(4, 0), (3, 1), (2, 2), (1, 3)])
    def test_weight_four_coefficients_to_full_precision(self, weight):
        # their diagrams cancel to a small sum: evaluated term by term in
        # floats, they lose up to 2.4e-10 relative
        left, right = weight
        ws = [FreqExpr.symbol(f"q{i}") for i in range(left + right)]
        freqs = FrequencyTuple(tuple(ws[:left]), tuple(ws[left:]))
        expr = contraction_coefficient(freqs, GaussianFilter()).to_sympy()
        rng = random.Random(sum(weight) * 10 + left)
        for _ in range(5):
            # six-decimal values: a float stands for its decimal
            point = {
                f"q{i}": round(rng.choice([-1, 1]) * rng.uniform(0.3, 2.0), 6)
                for i in range(left + right)
            }
            point["tau"] = round(rng.uniform(0.2, 1.0), 6)
            subs = {
                s: sp.Rational(str(point[s.name])) for s in expr.free_symbols
            }
            want = complex(expr.evalf(50, subs=subs))
            got = scalar_eval(expr, point)
            assert abs(got - want) <= 1e-13 * abs(want), point


def _stored_texts(path):
    """The coefficient texts of a stored export, and the symbols that
    :func:`stcg.model.load_effective` declares for them."""
    doc = json.loads(path.read_text())
    texts = [t["coeff"] for t in doc["hamiltonian"]]
    texts += [t["rate"] for t in doc["dissipators"]]
    names = set().union(*map(smodel._symbol_names, texts))
    return texts, smodel._coupling_locals(names)


class TestParseScalar:
    @pytest.mark.parametrize(
        "path", STORED_EXPORTS, ids=lambda p: f"{p.parent.name}/{p.stem}"
    )
    def test_reads_every_stored_export_as_sympify(self, path):
        texts, symbols = _stored_texts(path)
        assert texts
        for text in texts:
            want = sp.sympify(text, locals=symbols)
            assert sp.srepr(parse_scalar(text, symbols)) == sp.srepr(want)

    @pytest.mark.parametrize(
        "text",
        ["g/2", "-g^2*tau", "2.50e-3*g + 1", "+g - -3", "I*pi*E**2",
         "sqrt(2)*conjugate(g)", "exp(-tau**2*w**2/2)/(4*w)", "foo(g*t)",
         "Abs(w) + Min(1, w)", "x_1 * 0.1", "1/3",
         # chains whose numbers and sums combine step by step
         "2*(x+y)*z", "(x+y)*2*z", "3.0/7*x", "x/x*(y+z)*2", "1.5/3/x",
         "a - b + c - (d - e)", "2*3/4*x*y/(x + y)", "-x*2", "x - 2.5 - 0.1",
         "x*0.1 + y + x*0.2 + x*0.3", "0.1 + 0.2 + x + 0.3"],
    )
    def test_reads_as_sympify(self, text):
        symbols = smodel._coupling_locals({"g", "w"})
        want = sp.sympify(text, locals=symbols)
        assert sp.srepr(parse_scalar(text, symbols)) == sp.srepr(want)

    @pytest.mark.parametrize(
        "text",
        [
            "__import__('os').getpid()",
            "g.conjugate()",
            "(g, w)[0]",
            "exp(g, evaluate=False)",
            "(lambda: g)()",
            "'g'",
            "Symbol(g)",
            "S(1)",
            "g if w else 1",
            "g < w",
            "g % 2",
            "True*g",
            "1j*g",
            "g*",
        ],
    )
    def test_rejects_what_is_not_a_scalar(self, text):
        with pytest.raises(ValueError, match="cannot (read|parse)"):
            parse_scalar(text, {})

    def test_long_sum_reads(self):
        # a chain is one recursion level, not one per term; the reference
        # is built directly, since sympify takes minutes on this text
        # (each binary step re-sorts the sum)
        text = " + ".join(f"{k}*x**{k}" for k in range(1, 1501))
        x = sp.Symbol("x")
        want = sp.Add(*(k * x**k for k in range(1, 1501)))
        assert sp.srepr(parse_scalar(text, {})) == sp.srepr(want)
        product = "*".join(f"y{k}" for k in range(1500))
        want = sp.Mul(*(sp.Symbol(f"y{k}") for k in range(1500)))
        assert parse_scalar(product, {}) == want

    def test_text_too_deep_for_the_parser_is_a_value_error(self):
        text = " + ".join(f"{k}*x**{k}" for k in range(1, 5001))
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_scalar(text, {})
        with pytest.raises(ValueError, match="nested too deeply"):
            smodel.load_effective(_document_with(text, smodel.load_effective))

    def test_runs_no_python(self):
        text = "__import__('os').getpid()"
        assert sp.sympify(text) == os.getpid()
        for load in (smodel.load_effective, smodel.load_model):
            with pytest.raises(ValueError, match="cannot read"):
                load(_document_with(text, load))


def _document_with(text, load):
    """A one-mode document for ``load`` with ``text`` as a coefficient."""
    modes = [{"name": "a", "kind": "bosonic", "truncation": 2}]
    if load is smodel.load_model:
        term = {"coupling": text, "frequency": "0", "operator": "a'*a"}
        return {"modes": modes, "terms": [term]}
    term = {"coeff": text, "frequency": "0", "operator": "a'*a"}
    return {"order": 1, "modes": modes, "hamiltonian": [term],
            "dissipators": []}
