import math
import random
from unittest import mock

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from stcg import contraction
from stcg.contraction import (
    FrequencyTuple,
    UnresolvedSingularityError,
    _diagram_expr,
    _ShiftSeries,
    _vanishes,
    bubble_factor_oracle,
    contraction_coefficient,
    diagram_contribution,
    numeric_limit_probe,
    regularize_singular,
    symmetry_check,
)
from stcg.diagrams import Bubble, Diagram, enumerate_diagrams
from stcg.symbols import TAU, FreqExpr, GaussianFilter, scalar_eval

W = FreqExpr.symbol("w")
V = FreqExpr.symbol("v")
#: A ramp's frequency shift (see stcg.model.encode_linear_ramp).
D = FreqExpr.symbol("delta")
WS = sp.Symbol("w", real=True)
VS = sp.Symbol("v", real=True)
GAUSS = GaussianFilter()


def f(expr):
    return sp.exp(-(expr**2) * TAU**2 / 2)


class TestClosedForms:
    def test_first_order(self):
        c = contraction_coefficient(FrequencyTuple((W,)), GAUSS)
        assert sp.simplify(c - f(WS)) == 0

    def test_second_order_left(self):
        c = contraction_coefficient(FrequencyTuple((W, V)), GAUSS)
        ref = (f(WS + VS) - f(WS) * f(VS)) / WS
        assert sp.simplify(c - ref) == 0

    def test_mixed_order(self):
        c = contraction_coefficient(FrequencyTuple((W,), (V,)), GAUSS)
        ref = -(f(WS + VS) - f(WS) * f(VS)) / VS
        assert sp.simplify(c - ref) == 0

    def test_each_call_sums_the_diagrams(self):
        # A pure function: the second call on one tuple computes again, and
        # the filter it was given holds nothing but tau.
        freqs = FrequencyTuple((W, V))
        filt = GaussianFilter(0.26e-9)
        with mock.patch.object(
            contraction, "diagram_contribution",
            side_effect=diagram_contribution,
        ) as spy:
            first = contraction_coefficient(freqs, filt)
            once = spy.call_count
            second = contraction_coefficient(freqs, filt)
        assert once == len(enumerate_diagrams(2, 0))
        assert spy.call_count == 2 * once
        assert first == second
        assert vars(filt) == {"tau": sp.Rational(13, 50000000000)}


class TestSingularTuples:
    def test_leading_zero_left(self):
        c = contraction_coefficient(
            FrequencyTuple((FreqExpr.zero(), W)), GAUSS
        )
        ref = -WS * TAU**2 * f(WS)
        assert sp.simplify(c - ref) == 0

    def test_zero_right(self):
        c = contraction_coefficient(
            FrequencyTuple((W,), (FreqExpr.zero(),)), GAUSS
        )
        # limit of -(f(w+v) - f(w)f(v))/v as v -> 0
        assert sp.simplify(c - WS * TAU**2 * f(WS)) == 0

    def test_opposite_pair(self):
        c = contraction_coefficient(FrequencyTuple((W,), (-W,)), GAUSS)
        ref = (1 - sp.exp(-(WS**2) * TAU**2)) / WS
        assert sp.simplify(c - ref) == 0

    def test_all_zero(self):
        c = contraction_coefficient(
            FrequencyTuple((FreqExpr.zero(), FreqExpr.zero())), GAUSS
        )
        assert sp.simplify(c) == 0

    def test_diagram_contribution_names_singular_partial_sum(self):
        diagram = Diagram((Bubble(3, 0),))
        freqs = FrequencyTuple((W, -W, V))
        with pytest.raises(ZeroDivisionError, match=r"sum\(s\) \(2,\)"):
            diagram_contribution(diagram, freqs, GAUSS)

    def test_numeric_limit_probe_agrees(self):
        freqs = FrequencyTuple((FreqExpr.zero(), W))
        exact = scalar_eval(
            contraction_coefficient(freqs, GAUSS), {"w": 1.3, "tau": 0.7}
        )
        probes = numeric_limit_probe(freqs, GAUSS, {"w": 1.3, "tau": 0.7})
        assert abs(probes[-1] - exact) < 1e-4
        assert abs(probes[-1] - exact) < abs(probes[0] - exact)


EPS = sp.Symbol("eps", positive=True)
Z = FreqExpr.zero()

# Singular tuples per weight: vanishing entries, opposite pairs and sums.
SINGULAR_TUPLES = {
    (1, 0): [((Z,), ())],
    (2, 0): [((Z, W), ()), ((W, -W), ()), ((Z, Z), ())],
    (1, 1): [((Z,), (W,)), ((W,), (-W,)), ((W,), (Z,))],
    (3, 0): [((W, -W, V), ()), ((Z, Z, W), ()), ((W, Z, -W), ())],
    (2, 1): [((W, -W), (V,)), ((Z, W), (-W,)), ((W, V), (-W - V,))],
    (1, 2): [((W,), (-W, V)), ((Z,), (W, -W)), ((W,), (V, -W - V))],
}


def _series_reference(diagram, freqs, filter_spec):
    """The diagram with entry i of ``mu + nu`` shifted by ``2**i * EPS``,
    expanded by sympy's generic ``series`` through ``EPS**0``."""
    shifted = [
        w.to_sympy() + 2**i * EPS for i, w in enumerate(freqs.mu + freqs.nu)
    ]
    left = len(freqs.mu)
    expr = _diagram_expr(diagram, shifted[:left], shifted[left:], filter_spec)
    series = sp.expand(expr.series(EPS, 0, 1).removeO())
    # Pull the regulator out of unexpanded Add denominators so that
    # coeff() sees every power of it.
    return series.replace(
        lambda e: (
            e.is_Pow
            and e.exp.is_Integer
            and e.exp < 0
            and e.base.is_Add
            and e.base.has(EPS)
        ),
        lambda e: sp.expand_power_base(
            sp.factor_terms(e.base) ** e.exp, force=True
        ),
    )


def _singular_diagrams(freqs):
    for diagram in enumerate_diagrams(*freqs.weight):
        try:
            diagram_contribution(diagram, freqs, GAUSS)
        except ZeroDivisionError:
            yield diagram


def _shifted_diagrams(freqs, filter_spec):
    """``(diagram, expression)`` per singular diagram, entry i of
    ``mu + nu`` shifted by ``2**i`` times the regulator of
    :func:`regularize_singular`."""
    shifted = [
        w.to_sympy() + 2**i * contraction._EPS
        for i, w in enumerate(freqs.mu + freqs.nu)
    ]
    left = len(freqs.mu)
    return [
        (d, _diagram_expr(d, shifted[:left], shifted[left:], filter_spec))
        for d in _singular_diagrams(freqs)
    ]


def _laurent(expr):
    """``{power: coefficient}`` of ``expr`` through ``eps**0``, from a
    fresh kernel."""
    kernel = _ShiftSeries(contraction._EPS)
    low = kernel.low(expr)
    return {low + k: c for k, c in enumerate(kernel.laurent(expr, 1))}


class TestNumericTau:
    @pytest.mark.parametrize(
        "weight", sorted(SINGULAR_TUPLES), ids=lambda w: f"{w[0]}-{w[1]}"
    )
    def test_singular_coefficient_is_the_symbolic_one(self, weight):
        # At a numeric tau every singular coefficient holds no Float and is
        # the symbolic-tau coefficient with the rational tau put in.
        tau = sp.Rational(13, 50_000_000_000)
        filt = GaussianFilter(0.26e-9)
        for mu, nu in SINGULAR_TUPLES[weight]:
            freqs = FrequencyTuple(mu, nu)
            got = contraction_coefficient(freqs, filt)
            assert not got.has(sp.Float), freqs
            want = contraction_coefficient(freqs, GAUSS).subs(TAU, tau)
            assert sp.expand(got - want) == 0, freqs


class TestLaurentKernel:
    @pytest.mark.parametrize("tau", [TAU, 0.26e-9], ids=["symbolic", "numeric"])
    @pytest.mark.parametrize(
        "weight", sorted(SINGULAR_TUPLES), ids=lambda w: f"{w[0]}-{w[1]}"
    )
    def test_matches_sympy_series(self, weight, tau):
        filt = GaussianFilter(tau)
        checked = 0
        for mu, nu in SINGULAR_TUPLES[weight]:
            freqs = FrequencyTuple(mu, nu)
            for diagram, expr in _shifted_diagrams(freqs, filt):
                terms = _laurent(expr)
                assert not any(c.has(sp.Float) for c in terms.values())
                assert max(terms) == 0 and min(terms) >= -sum(weight)
                reference = _series_reference(diagram, freqs, filt)
                for power in range(min(terms) - 1, 1):
                    diff = terms.get(power, 0) - reference.coeff(EPS, power)
                    assert sp.simplify(diff) == 0, (diagram, freqs, power)
                checked += 1
        assert checked >= len(SINGULAR_TUPLES[weight])

    @pytest.mark.parametrize(
        "weight", sorted(SINGULAR_TUPLES), ids=lambda w: f"{w[0]}-{w[1]}"
    )
    def test_one_kernel_sums_diagram_finite_parts(self, weight):
        # One kernel over the unevaluated sum of a coefficient's singular
        # diagrams gives exactly the sum of their separate eps**0 parts.
        for mu, nu in SINGULAR_TUPLES[weight]:
            freqs = FrequencyTuple(mu, nu)
            pairs = _shifted_diagrams(freqs, GAUSS)
            parts = sp.Add(*(_laurent(expr)[0] for _, expr in pairs))
            got = regularize_singular([d for d, _ in pairs], freqs, GAUSS)
            assert got == parts, freqs

    def test_single_diagram_pole_cancels_in_sum(self, monkeypatch):
        freqs = FrequencyTuple((Z, Z))
        residues = [
            sp.expand(_laurent(expr).get(-1, 0))
            for _, expr in _shifted_diagrams(freqs, GAUSS)
        ]
        assert any(r != 0 for r in residues)
        assert sp.expand(sum(residues)) == 0
        assert contraction_coefficient(freqs, GAUSS) == 0

        # Without the partner diagram the pole survives and is reported,
        # with the weight and the frequency tuple.
        lone = next(_singular_diagrams(freqs))
        monkeypatch.setattr(
            contraction, "enumerate_diagrams", lambda left, right: (lone,)
        )
        with pytest.raises(
            UnresolvedSingularityError,
            match=r"poles survive: .* \(shift\^-1\) for C\(2, 0\) "
            r"at mu=\(0, 0\), nu=\(\)$",
        ):
            contraction_coefficient(freqs, GAUSS)


class TestSymmetries:
    @settings(max_examples=25, deadline=None)
    @given(
        weight=st.sampled_from([(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]),
        seed=st.integers(0, 10**6),
    )
    def test_parity_and_mirror(self, weight, seed):
        left, right = weight
        rng = random.Random(seed)
        names = [f"x{i}" for i in range(left + right)]
        mu = tuple(FreqExpr.symbol(n) for n in names[:left])
        nu = tuple(FreqExpr.symbol(n) for n in names[left:])
        point = {n: rng.uniform(0.3, 2.5) for n in names}
        point["tau"] = rng.uniform(0.2, 1.5)
        res = symmetry_check(FrequencyTuple(mu, nu), GAUSS, point)
        assert res["parity"] < 1e-10
        assert res["mirror"] < 1e-10

    # The assembly memo reuses a coefficient across its orbit, singular and
    # ramp-shifted tuples included: the identities hold there exactly.
    @pytest.mark.parametrize(
        "freqs",
        [
            FrequencyTuple((W, -W)),
            FrequencyTuple((W,), (-W,)),
            FrequencyTuple((W, -W, W)),
            FrequencyTuple((W, -W), (W,)),
            FrequencyTuple((W,), (-W, W)),
            FrequencyTuple((W + D, -W + D)),
            FrequencyTuple((W + D,), (-W - D,)),
            FrequencyTuple((W - D, -W + D, V)),
        ],
        ids=["w,-w", "(w),(-w)", "w,-w,w", "(w,-w),(w)", "(w),(-w,w)",
             "w+d,-w+d", "(w+d),(-w-d)", "w-d,-w+d,v"],
    )
    def test_exact_at_singular_and_shifted_tuples(self, freqs):
        c = contraction_coefficient(freqs, GAUSS)
        parity = (-1) ** (sum(freqs.weight) - 1)
        flipped = contraction_coefficient(freqs.negated(), GAUSS)
        mirrored = contraction_coefficient(freqs.mirrored(), GAUSS)
        assert _vanishes(flipped - parity * c)
        assert _vanishes(mirrored - c)


class TestOracle:
    def test_matches_closed_form_20(self):
        mu = (0.9, 1.7)
        amp, residual = bubble_factor_oracle(mu, (), 0.6)
        exact = scalar_eval(
            contraction_coefficient(
                FrequencyTuple((W, V)), GAUSS
            ),
            {"w": mu[0], "v": mu[1], "tau": 0.6},
        )
        assert residual < 1e-9
        assert abs(amp - exact) < 1e-9 * max(1.0, abs(exact))

    def test_matches_closed_form_11(self):
        amp, residual = bubble_factor_oracle((1.1,), (0.4,), 0.5)
        exact = scalar_eval(
            contraction_coefficient(FrequencyTuple((W,), (V,)), GAUSS),
            {"w": 1.1, "v": 0.4, "tau": 0.5},
        )
        assert residual < 1e-9
        assert abs(amp - exact) < 1e-9 * max(1.0, abs(exact))


class TestFrequencyTuple:
    def test_negated(self):
        t = FrequencyTuple((W,), (V,))
        assert t.negated() == FrequencyTuple((-W,), (-V,))

    def test_mirrored_moves_special_mode(self):
        t = FrequencyTuple((W, V), ())
        m = t.mirrored()
        assert m.weight == (1, 1)
        assert m.mu == (-V,) or m.nu[-1] == -V

    @pytest.mark.parametrize(
        "weight",
        [(l, k - l) for k in range(1, 5) for l in range(1, k + 1)],
        ids=str,
    )
    def test_mirror_is_an_involution_that_commutes_with_negation(self, weight):
        left, right = weight
        ws = [FreqExpr.symbol(f"x{i}") for i in range(left + right)]
        t = FrequencyTuple(tuple(ws[:left]), tuple(ws[left:]))
        assert t.mirrored().weight == (right + 1, left - 1)
        assert t.mirrored().mirrored() == t
        assert t.mirrored().negated() == t.negated().mirrored()
