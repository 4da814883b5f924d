import itertools
import json
import math
import re
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy as sp

from stcg import model as smodel
from stcg.contraction import (
    FrequencyTuple,
    UnresolvedSingularityError,
    _vanishes,
    canonical_sympy,
    contraction_coefficient,
)
from stcg.model import (
    assemble,
    effective_dissipators,
    effective_hamiltonian,
    encode_linear_ramp,
    export_model,
    ir_limit,
    load_effective,
    load_model,
    parse_quantity,
    prune_terms,
    HamiltonianTermSpec,
)
from stcg.operators import ModeSpec, OperatorSum, parse_operator
from stcg.presets import get_preset
from stcg.symbols import TAU, TIME, FreqExpr, GaussianFilter, scalar_eval

REPO = Path(__file__).resolve().parents[1]
BENCH_DATA = REPO / "perfbench" / "data"
TEST_DATA = REPO / "tests" / "data"

RABI_DOC = {
    "name": "rabi",
    "modes": [
        {"name": "a", "kind": "bosonic", "truncation": 6},
        {"name": "q", "kind": "two_level"},
    ],
    "symbols": {"wc": None, "wa": None, "g": None},
    "terms": [
        {"coupling": "g/2", "frequency": "wc + wa", "operator": "a*sm"},
        {"coupling": "g/2", "frequency": "-wc - wa", "operator": "a'*sp"},
        {"coupling": "g/2", "frequency": "wc - wa", "operator": "a*sp"},
        {"coupling": "g/2", "frequency": "-wc + wa", "operator": "a'*sm"},
    ],
}


def _expr(form, model):
    """The sympy expression of a canonical coefficient form
    (:meth:`stcg.contraction.ExactCoefficient.canonical`)."""
    expression = canonical_sympy(model.filter_spec.tau)
    return sp.Add(*(
        sp.Rational(value.numerator, value.denominator) * expression(key)
        for key, value in form.items()
    ))


def _orbit(freqs):
    """The tuples that share one coefficient up to sign with ``freqs``."""
    mirror = freqs.mirrored()
    return frozenset((freqs, freqs.negated(), mirror, mirror.negated()))


def _memo_of(derive, model, order):
    """The tuples ``derive`` computes, and ``{tuple: coefficient}`` for
    every tuple its memo answers."""
    answered = {}
    memo_for = smodel._coefficients

    def recording(spec):
        coefficient = memo_for(spec)

        def answer(freqs):
            answered[freqs] = coefficient(freqs)
            return answered[freqs]

        return answer

    with mock.patch.object(
        smodel, "_coefficients", side_effect=recording
    ), mock.patch.object(
        smodel, "contraction_coefficient",
        side_effect=smodel.contraction_coefficient,
    ) as spy:
        derive(model, order)
    return [call.args[0] for call in spy.call_args_list], answered


class TestQuantities:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2GHz", 2e9),
            ("2pi*2GHz", 2 * math.pi * 2e9),
            ("-2pi*67MHz", -2 * math.pi * 67e6),
            ("0.2ns", 0.2e-9),
            ("5", 5.0),
            ("1e3", 1e3),
            (3.5, 3.5),
        ],
    )
    def test_values(self, text, value):
        assert parse_quantity(text) == pytest.approx(value, rel=1e-12)

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError):
            parse_quantity("3parsec")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_quantity("fast")

    @pytest.mark.parametrize(
        "text",
        ["1e400ns", "-2pi*1e308GHz", math.inf, math.nan,
         pytest.param(10**400, id="huge-int")],
    )
    def test_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="must be finite"):
            parse_quantity(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool(self, value):
        with pytest.raises(ValueError, match=f"cannot parse quantity {value}"):
            parse_quantity(value)

    @pytest.mark.parametrize(
        "edit",
        [{"symbols": {"wc": None, "wa": None, "g": True}},
         {"filter": {"kind": "gaussian", "tau": True}}],
        ids=["symbol", "tau"],
    )
    def test_model_rejects_bool_quantity(self, edit):
        with pytest.raises(ValueError, match="cannot parse quantity True"):
            load_model(dict(RABI_DOC, **edit))


class TestLoadModel:
    def test_round_trip_terms(self):
        m = load_model(RABI_DOC)
        assert len(m.terms) == 4
        m.check_hermitian()

    def test_json_text_and_dict_agree(self):
        a = load_model(RABI_DOC)
        b = load_model(json.dumps(RABI_DOC))
        assert len(a.terms) == len(b.terms)

    def test_undeclared_frequency_symbol(self):
        doc = dict(RABI_DOC, terms=[
            {"coupling": "g", "frequency": "w_typo", "operator": "a"},
        ])
        with pytest.raises(ValueError, match="w_typo"):
            load_model(doc)

    @pytest.mark.parametrize(
        "terms",
        [
            RABI_DOC["terms"][:1],
            # the partner's coupling is not the conjugate
            [RABI_DOC["terms"][0], dict(RABI_DOC["terms"][1], coupling="g")],
            # a Hermitian operator off zero frequency
            [{"coupling": "g", "frequency": "wc", "operator": "a'*a"}],
        ],
        ids=["unpaired", "coupling", "frequency"],
    )
    def test_non_hermitian_rejected(self, terms):
        doc = dict(RABI_DOC, terms=terms)
        with pytest.raises(
            ValueError,
            match="^model 'rabi' not Hermitian: no conjugate partner for "
            "term at frequency",
        ):
            load_model(doc).check_hermitian()

    def test_numeric_assignment_rejects_undeclared_override(self):
        model = load_model(RABI_DOC)
        point = model.numeric_assignment({"wc": 20.0, "wa": 21.0, "g": 0.5,
                                          "tau": 0.4})
        assert point["tau"] == 0.4
        with pytest.raises(ValueError, match=r"no symbol\(s\) \['gg'\]"):
            model.numeric_assignment({"wc": 20.0, "g": 0.5, "gg": 0.5})

    def test_numeric_assignment_rejects_tau_of_numeric_filter(self):
        doc = dict(RABI_DOC, filter={"kind": "gaussian", "tau": "0.2ns"})
        model = load_model(doc)
        point = model.numeric_assignment({"wc": 20.0, "wa": 21.0, "g": 0.5})
        assert point["tau"] == parse_quantity("0.2ns")
        with pytest.raises(ValueError, match="tau is already numeric"):
            model.numeric_assignment({"tau": 0.5e-9})



class TestRamps:
    def test_symmetric_encoding_is_hermitian(self):
        modes = (ModeSpec("a", "bosonic", 4),)
        g = sp.Symbol("beta0", real=True)
        term = HamiltonianTermSpec(
            g, FreqExpr.parse("2*wp"), parse_operator("a^2", modes)
        )
        up, down = encode_linear_ramp(term, sp.Symbol("T", positive=True))
        # the pair (coeff, freq, op) plus the encoding of the conjugate
        # term must itself be closed under conjugation
        partner_term = term.conjugate()
        pu, pd = encode_linear_ramp(partner_term, sp.Symbol("T", positive=True))
        assert up.conjugate().freq == pd.freq
        assert sp.simplify(up.conjugate().coeff - pd.coeff) == 0

    def test_ramped_flag_overrides_symbol_match(self):
        doc = {
            "name": "r",
            "modes": [{"name": "a", "kind": "bosonic", "truncation": 4}],
            "symbols": {"d0": None, "w": None},
            "ramps": [{"symbol": "d0", "duration": "T"}],
            "terms": [
                {"coupling": "d0", "frequency": "0", "operator": "a'*a",
                 "ramped": False},
                {"coupling": "-d0", "frequency": "0", "operator": "a'*a"},
            ],
        }
        m = load_model(doc)
        # static entry survives as-is; ramped entry splits into two
        assert len(m.terms) == 3
        m.check_hermitian()

    def test_ramped_flag_without_matching_ramp(self):
        doc = {
            "name": "r",
            "modes": [{"name": "a", "kind": "bosonic", "truncation": 4}],
            "symbols": {"d0": None, "w": None},
            "ramps": [{"symbol": "other", "duration": "T"}],
            "terms": [
                {"coupling": "d0", "frequency": "0", "operator": "a'*a",
                 "ramped": True},
            ],
        }
        with pytest.raises(ValueError, match="ramped"):
            load_model(doc)

    def test_ramp_entry_that_matches_no_term_names_no_regulator(self):
        doc = {
            "name": "r",
            "modes": [{"name": "a", "kind": "bosonic", "truncation": 4}],
            "symbols": {"d0": None},
            "ramps": [{"symbol": "other", "duration": "T"}],
            "terms": [
                {"coupling": "d0", "frequency": "0", "operator": "a'*a"},
            ],
        }
        m = load_model(doc)
        assert m.regulator is None and len(m.terms) == 1
        assert "T" not in m.params

    def test_ramp_limit_recovers_linear_coefficient(self):
        # a single ramped static term: effective order-1 coefficient must be
        # the linear ramp g*t/T
        doc = {
            "name": "r",
            "modes": [{"name": "a", "kind": "bosonic", "truncation": 4}],
            "symbols": {"g0": None},
            "ramps": [{"symbol": "g0", "duration": "T"}],
            "terms": [
                {"coupling": "g0", "frequency": "0", "operator": "a'*a"},
            ],
        }
        m = load_model(doc)
        (term,) = effective_hamiltonian(m, 1)
        g0, t = sp.symbols("g0 t", real=True)
        T = sp.Symbol("T", positive=True)
        assert sp.simplify(term.coeff - g0 * t / T) == 0

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize(
        "names", [("delta",), ("delta", "delta_")], ids=["delta", "delta_"]
    )
    def test_symbols_named_like_the_shift(self, names, order):
        # The loader names the shift past every model symbol, so declaring
        # its default name changes nothing but the names.
        rename = dict(zip(names, ("kappa", "nu")))
        doc = dict(
            RAMPED_PUMP_DOC,
            symbols={**RAMPED_PUMP_DOC["symbols"], **dict.fromkeys(names)},
            terms=RAMPED_PUMP_DOC["terms"] + [
                {"coupling": "delta", "frequency": "wp", "operator": "a"},
                {"coupling": "delta", "frequency": "-wp", "operator": "a'"},
            ],
        )
        if len(names) == 2:
            for term in doc["terms"][2:]:
                term["frequency"] = term["frequency"].replace("wp", "delta_")
        model = load_model(doc)
        assert model.regulator == names[-1] + "_"
        _assert_equal_renamed(doc, order, rename)

    def test_regulator_field_is_ignored(self):
        model = load_model(dict(RAMPED_PUMP_DOC, regulator="wp"))
        assert model.regulator == "delta"

    def test_coupling_naming_the_shift_is_undeclared(self):
        terms = [
            dict(t, coupling="beta0*delta") for t in RAMPED_PUMP_DOC["terms"]
        ]
        with pytest.raises(
            ValueError, match=re.escape("uses undeclared symbol(s) ['delta']")
        ):
            load_model(dict(RAMPED_PUMP_DOC, terms=terms))


RAMPED_PUMP_DOC = {
    "name": "ramped-pump",
    "modes": [{"name": "a", "kind": "bosonic", "truncation": 3}],
    "symbols": {"wp": None, "beta0": None},
    "ramps": [{"symbol": "beta0", "duration": "T"}],
    "terms": [
        {"coupling": "beta0", "frequency": "2*wp", "operator": "a^2"},
        {"coupling": "beta0", "frequency": "-2*wp", "operator": "a'^2"},
    ],
}

RAMPED_DRIVE_DOC = {
    "name": "ramped-drive",
    "modes": [{"name": "a", "kind": "bosonic", "truncation": 2}],
    "symbols": {"w": None, "g": None},
    "ramps": [{"symbol": "g", "duration": "T"}],
    "terms": [
        {"coupling": "g", "frequency": "w", "operator": "a"},
        {"coupling": "g", "frequency": "-w", "operator": "a'"},
    ],
}

CAVITY_QUBIT_DOC = {
    "name": "cavity-qubit",
    "modes": [
        {"name": "a", "kind": "bosonic", "truncation": 4},
        {"name": "q", "kind": "two_level"},
    ],
    "symbols": {"wa": None, "wc": None, "g": None},
    "terms": [
        {"coupling": "g/2", "frequency": "wc+wa", "operator": "a*sm"},
        {"coupling": "g/2", "frequency": "wc-wa", "operator": "a*sp"},
        {"coupling": "g/2", "frequency": "wa-wc", "operator": "a'*sm"},
        {"coupling": "g/2", "frequency": "-wc-wa", "operator": "a'*sp"},
    ],
}

DRIVE_DOC = {
    "name": "drive",
    "modes": [{"name": "a", "kind": "bosonic", "truncation": 3}],
    "symbols": {"w1": None, "c0": None, "c1": None},
    "terms": [
        {"coupling": "c0/2", "frequency": "w1", "operator": "a"},
        {"coupling": "c0/2", "frequency": "-w1", "operator": "a'"},
        {"coupling": "c1/2", "frequency": "2*w1", "operator": "a^2"},
        {"coupling": "c1/2", "frequency": "-2*w1", "operator": "a'^2"},
    ],
}

DELTA = sp.Symbol("delta", real=True)


def _product_of(combo):
    op = combo[0].op
    for term in combo[1:]:
        op = op.matmul(term.op)
    return op


def _reference_groups(doc, order, tau=None, parts=(assemble,)):
    """Every ``{(key, frequency): pieces}`` group of the terms that
    ``parts`` derive from ``doc`` through ``order``, with the model.

    The groups are built here in sympy, as the merge summed them before it
    took exact slot sums: each term tuple's piece is its symmetrized
    coefficient (``contraction_coefficient(...).to_sympy()``) times the
    couplings and the operator factor, and the pieces of a slot are summed
    into one ``(coefficient, shift multiple)`` pair of its regulator-free
    frequency's group.
    """
    doc = dict(doc)
    if tau is not None:
        doc["filter"] = {"kind": "gaussian", "tau": tau}
    model = load_model(doc)
    memo = {}

    def c(*tuples):
        freqs = FrequencyTuple(*tuples)
        if freqs not in memo:
            memo[freqs] = contraction_coefficient(
                freqs, model.filter_spec
            ).to_sympy()
        return memo[freqs]

    slots = defaultdict(list)
    hamiltonian = {assemble, effective_hamiltonian} & set(parts)
    for k in range(1, order + 1) if hamiltonian else ():
        for combo in itertools.product(model.terms, repeat=k):
            mu = tuple(term.freq for term in combo)
            neg = tuple(-w for w in mu[::-1])
            q = (c(mu) + c(neg)) / 2 * sp.Mul(*(t.coeff for t in combo))
            total = sum(mu, FreqExpr.zero())
            for key, mono in _product_of(combo[::-1]).terms.items():
                slots[key, total].append(q * mono)
    dissipators = {assemble, effective_dissipators} & set(parts)
    for k in range(2, order + 1) if dissipators else ():
        for l in range(1, k):
            for lcombo in itertools.product(model.terms, repeat=l):
                for rcombo in itertools.product(model.terms, repeat=k - l):
                    mu = tuple(term.freq for term in lcombo)
                    nu = tuple(term.freq for term in rcombo)
                    back = (tuple(-w for w in nu), tuple(-w for w in mu))
                    coupling = sp.Mul(*(t.coeff for t in lcombo + rcombo))
                    rate = -sp.I * (c(mu, nu) - c(*back)) * coupling
                    total = sum(mu + nu, FreqExpr.zero())
                    left = _product_of(lcombo[::-1]).terms.items()
                    right = _product_of(rcombo).terms.items()
                    for (lkey, lmono), (jkey, jmono) in itertools.product(
                        left, right
                    ):
                        slots[(lkey, jkey), total].append(rate * lmono * jmono)
    groups = {}
    for (key, freq), pieces in slots.items():
        base, mult = smodel._split_regulator(freq, model.regulator)
        groups.setdefault((key, base), []).append((sp.Add(*pieces), mult))
    return groups, model


def _derived(model, order, parts):
    """``{(key, frequency): coefficient}`` of the terms ``parts`` derive,
    a dissipator's key the pair of its L and J monomials."""
    out = {}
    for part in parts:
        derived = part(model, order)
        if isinstance(derived, smodel.EffectiveModel):
            derived = derived.hamiltonian + derived.dissipators
        for term in derived:
            if isinstance(term, HamiltonianTermSpec):
                ((key, _),) = term.op.terms.items()
                out[key, term.freq] = term.coeff
            else:
                ((lkey, _),) = term.left.terms.items()
                ((jkey, _),) = term.right.terms.items()
                out[(lkey, jkey), term.freq] = term.rate
    return out


def _key(text, modes):
    ((key, _),) = parse_operator(text, modes).terms.items()
    return key


def _shift_series(pieces):
    """The merged group expanded by sympy's generic ``series`` in the shift
    through ``shift**0``.

    Exp factors are pulled out of shift-dependent denominators and each term
    is brought over one denominator first, so that ``series`` sees terms
    that vanish identically as 0 instead of searching them for a leading
    term.
    """
    combined = sp.Add(
        *(
            coeff * sp.exp(-sp.I * sp.Rational(m.numerator, m.denominator)
                           * DELTA * TIME)
            for coeff, m in pieces
        )
    )
    combined = combined.replace(
        lambda e: (
            e.is_Pow
            and e.exp.is_Integer
            and e.exp < 0
            and e.base.is_Add
            and e.base.has(DELTA)
        ),
        lambda e: sp.factor_terms(e.base) ** e.exp,
    )
    combined = sp.Add(*(sp.together(t) for t in sp.Add.make_args(combined)))
    return sp.expand(combined.series(DELTA, 0, 1).removeO())


def _has_shift_denominator(pieces):
    return any(
        p.exp.is_negative and p.base.is_Add and p.base.has(DELTA)
        for coeff, _ in pieces
        for p in coeff.atoms(sp.Pow)
    )


class TestRampLimitKernel:
    @pytest.fixture(scope="class", params=[None, "0.26ns"],
                    ids=["symbolic", "numeric"])
    def drive_groups(self, request):
        groups, model = _reference_groups(RAMPED_DRIVE_DOC, 2, request.param)
        return groups, model.modes

    def _selected(self, modes):
        a, ad = _key("a", modes), _key("a'", modes)
        return {
            "order1": (a, FreqExpr.parse("w")),
            "order2-hamiltonian": (_key("a^2", modes), FreqExpr.parse("2*w")),
            "order2-dissipator": ((a, ad), FreqExpr.zero()),
        }

    @pytest.mark.parametrize(
        "label", ["order1", "order2-hamiltonian", "order2-dissipator"]
    )
    def test_matches_sympy_series(self, drive_groups, label):
        groups, modes = drive_groups
        key = self._selected(modes)[label]
        pieces = groups[key]
        if label != "order1":
            assert _has_shift_denominator(pieces)
        got = smodel._ramp_limit({key: pieces}, "delta").get(key, 0)
        reference = _shift_series(pieces)
        assert sp.simplify(reference.coeff(DELTA, 0) - got) == 0
        for power in range(1, 5):
            assert sp.simplify(reference.coeff(DELTA, -power)) == 0
        # The order-2 Hamiltonian group's poles and finite part both cancel.
        assert (got == 0) == (label == "order2-hamiltonian")

    def test_pole_raises_with_key(self, drive_groups):
        groups, modes = drive_groups
        key = self._selected(modes)["order1"]
        # Without its partner piece the 1/shift of the ramp survives.
        lone = groups[key][:1]
        with pytest.raises(
            UnresolvedSingularityError,
            match=rf"diverges \(shift\^-1\) for term {re.escape(str(key))}",
        ):
            smodel._ramp_limit({key: lone}, "delta")

    def test_higher_pole_order_named(self):
        key = ("k", FreqExpr.zero())
        pieces = [(1 / DELTA**2 + 1 / DELTA, Fraction(0))]
        with pytest.raises(UnresolvedSingularityError, match=r"shift\^-1"):
            smodel._ramp_limit({key: pieces}, "delta")
        pieces = [(1 / DELTA**2, Fraction(0))]
        with pytest.raises(UnresolvedSingularityError, match=r"shift\^-2"):
            smodel._ramp_limit({key: pieces}, "delta")

    def test_cancelling_poles_keep_finite_part(self):
        # (exp(x*d) - 1 - x*d)/d**2 -> x**2/2; 1/(w + d) - 1/w -> -d/w**2.
        x, w = sp.symbols("x w", real=True)
        key = ("k", FreqExpr.zero())
        pieces = [
            ((sp.exp(x * DELTA) - 1 - x * DELTA) / DELTA**2, Fraction(0)),
            ((1 / (w + DELTA) - 1 / w) / DELTA, Fraction(0)),
        ]
        got = smodel._ramp_limit({key: pieces}, "delta")[key]
        assert sp.simplify(got - (x**2 / 2 - 1 / w**2)) == 0

    def test_vanishing_sum_inverts_to_pole(self):
        # 1/(d*w + d**2) = 1/(d*w) - 1/w**2 + O(d): a sum vanishing at zero
        # shift inverts to a pole, cancelled here by -1/(d*w).
        w = sp.Symbol("w", real=True)
        key = ("k", FreqExpr.zero())
        pieces = [(1 / (DELTA * w + DELTA**2) - 1 / (DELTA * w), Fraction(0))]
        got = smodel._ramp_limit({key: pieces}, "delta")[key]
        assert sp.simplify(got + 1 / w**2) == 0

    def test_unsupported_factor_named(self):
        key = ("k", FreqExpr.zero())
        pieces = [(sp.sqrt(DELTA), Fraction(0))]
        with pytest.raises(
            UnresolvedSingularityError,
            match=r"^no regulated limit: cannot expand sqrt\(delta\) in delta "
            rf"for term {re.escape(str(key))}$",
        ):
            smodel._ramp_limit({key: pieces}, "delta")


def _renamed(doc, rename):
    """``doc`` as json text with every name in ``rename`` replaced."""
    text = json.dumps(doc)
    for old, new in rename.items():
        text = re.sub(rf"\b{old}\b", new, text)
    return text


def _assert_equal_renamed(doc, order, rename):
    """``doc`` assembled through ``order`` equals, term by term, the same
    model with the names in ``rename`` replaced."""
    exports = [
        export_model(assemble(load_model(d), order))
        for d in (doc, json.loads(_renamed(doc, rename)))
    ]
    exports[0] = json.loads(_renamed(exports[0], rename))
    names = set(load_model(doc).params) - set(rename) | set(rename.values())
    locs = {n: sp.Symbol(n, real=True) for n in names}
    locs.update(t=TIME, tau=TAU, T=sp.Symbol("T", positive=True))
    tables = [
        {
            (entry.get("operator"), entry.get("L"), entry.get("J"),
             entry["frequency"]): sp.sympify(
                entry.get("coeff", entry.get("rate")), locals=locs
            )
            for entry in export["hamiltonian"] + export["dissipators"]
        }
        for export in exports
    ]
    assert tables[0].keys() == tables[1].keys()
    assert tables[0]
    for key, value in tables[0].items():
        assert sp.simplify(value - tables[1][key]) == 0, key


class TestMergeWithoutRamp:
    def test_symbol_named_like_the_shift(self):
        # Without a ramp the merge takes no limit: a model symbol named
        # delta is not expanded as the shift.
        doc = json.loads(_renamed(DRIVE_DOC, {"c0": "delta"}))
        _assert_equal_renamed(doc, 2, {"delta": "c0"})

    # cavity-qubit has sums of frequencies in denominators, so its merge
    # also takes the per-term expand path; drive's are all monomials.
    @pytest.mark.parametrize(
        "doc,order,parts,sum_denominators",
        [
            (CAVITY_QUBIT_DOC, 2, (assemble,), True),
            (DRIVE_DOC, 3, (effective_hamiltonian,), False),
        ],
        ids=["cavity-qubit-o2", "drive-o3"],
    )
    @pytest.mark.parametrize("tau", [None, "0.26ns"], ids=["symbolic", "numeric"])
    def test_distributed_sum_equals_expand(
        self, doc, order, parts, sum_denominators, tau
    ):
        groups, model = _reference_groups(doc, order, tau, parts)
        assert groups
        derived = _derived(model, order, parts)
        found = False
        for key, pieces in groups.items():
            got = derived.pop(key, 0)
            assert str(got) == str(sp.expand(sp.Add(*(c for c, _ in pieces))))
            found |= any(
                p.exp.is_negative and p.base.is_Add
                for coeff, _ in pieces
                for p in coeff.atoms(sp.Pow)
            )
        assert not derived
        assert found == sum_denominators


class TestMemoPrinter:
    @pytest.mark.parametrize(
        "path",
        sorted([*TEST_DATA.glob("*_order*.json"), *BENCH_DATA.glob("*.json")]),
        ids=lambda p: f"{p.parent.name}/{p.stem}",
    )
    def test_prints_every_stored_export_as_str(self, path):
        eff = load_effective(path.read_text())
        printer = smodel._MemoPrinter()
        values = [t.coeff for t in eff.hamiltonian]
        values += [t.rate for t in eff.dissipators]
        for value in values + values[::-1]:
            assert printer.doprint(value) == str(value)

    def test_floats_that_differ_in_precision_keep_their_text(self):
        # they hash alike but compare unequal, so each has its own entry
        x, y = sp.symbols("x y", real=True)
        half = sp.Float("0.5")
        long_half = sp.Float("0.50000000000000000000")
        assert hash(half) == hash(long_half) and half != long_half
        exprs = [half, long_half, half * x, long_half * x,
                 half * x + long_half * y, sp.exp(long_half * x) * y,
                 sp.exp(half * x) * y, long_half, half]
        printer = smodel._MemoPrinter()
        for expr in exprs:
            assert printer.doprint(expr) == str(expr)
        assert str(long_half) != str(half)


class TestAssembly:
    def test_order1_echoes_filtered_terms(self):
        m = load_model(RABI_DOC)
        h1 = effective_hamiltonian(m, 1)
        assert len(h1) == 4
        for term in h1:
            omega = term.freq.to_sympy()
            expected = sp.exp(-(omega**2) * TAU**2 / 2)
            ratio = sp.simplify(term.coeff / expected)
            assert ratio == sp.Symbol("g", real=True) / 2

    def test_hamiltonian_closed_under_conjugation(self):
        m = load_model(RABI_DOC)
        h2 = effective_hamiltonian(m, 2)
        table = {}
        for term in h2:
            ((key, mono),) = term.op.terms.items()
            table[(key, term.freq)] = sp.expand(term.coeff * mono)
        for term in h2:
            partner = term.conjugate()
            ((key, mono),) = partner.op.terms.items()
            ref = table.get((key, partner.freq))
            assert ref is not None
            assert sp.simplify(ref - sp.expand(partner.coeff * mono)) == 0

    def test_dissipators_closed_under_conjugation_plain(self):
        m = load_model(RABI_DOC)
        d2 = effective_dissipators(m, 2)
        assert d2
        table = {}
        for term in d2:
            ((lk, lc),) = term.left.terms.items()
            ((jk, jc),) = term.right.terms.items()
            table[(lk, jk, term.freq)] = sp.expand(term.rate * lc * jc)
        for term in d2:
            partner = term.conjugate()
            ((lk, lc),) = partner.left.terms.items()
            ((jk, jc),) = partner.right.terms.items()
            ref = table.get((lk, jk, partner.freq))
            assert ref is not None
            assert sp.simplify(ref - sp.expand(partner.rate * lc * jc)) == 0

    def test_dissipators_start_at_second_order(self):
        m = load_model(RABI_DOC)
        assert effective_dissipators(m, 1) == ()

    @pytest.mark.parametrize("order", [0, -2, [0], [], [1, 3], True])
    def test_rejects_order_below_one(self, order):
        m = load_model(RABI_DOC)
        for derive in (assemble, effective_hamiltonian, effective_dissipators):
            with pytest.raises(ValueError, match="order must be at least 1"):
                derive(m, order)

    def test_assemble_provenance(self):
        m = load_model(RABI_DOC)
        eff = assemble(m, 2)
        assert eff.order == 2

    # Each order-2 call asks for a forward and a backward coefficient per
    # term tuple: 2 * (4 + 16) of them for H, 2 * 16 for the dissipators.
    @pytest.mark.parametrize(
        "derive,uses",
        [(effective_hamiltonian, 40), (effective_dissipators, 32)],
        ids=["hamiltonian", "dissipators"],
    )
    def test_each_call_computes_each_tuple_once(self, derive, uses):
        m = load_model(RABI_DOC)
        with mock.patch.object(
            smodel, "contraction_coefficient",
            side_effect=smodel.contraction_coefficient,
        ) as spy:
            derive(m, 2)
            first = [call.args[0] for call in spy.call_args_list]
            derive(m, 2)
        assert len(set(first)) == len(first) < uses
        # the memo dies with the call: the second one computes again
        again = [call.args[0] for call in spy.call_args_list[len(first):]]
        assert again == first

    @pytest.mark.parametrize(
        "doc", [RABI_DOC, get_preset("duffing")], ids=["rabi", "duffing"]
    )
    @pytest.mark.parametrize(
        "derive", [effective_hamiltonian, effective_dissipators],
        ids=["hamiltonian", "dissipators"],
    )
    def test_each_call_computes_each_orbit_once(self, derive, doc):
        model = load_model(doc)
        computed, memo = _memo_of(derive, model, 2)
        orbits = {_orbit(freqs) for freqs in computed}
        assert len(orbits) == len(computed) < len(memo)
        for freqs, value in memo.items():
            fresh = contraction_coefficient(freqs, model.filter_spec)
            assert _vanishes(_expr(value, model) - fresh.to_sympy()), freqs

    def test_reused_coefficients_are_the_fresh_ones(self):
        # the benchmark's detuned cavity-qubit model, whose two frequency
        # symbols give denominators that cancel: a reused coefficient's
        # canonical form, and so its expression, is the fresh one's
        tau = {"kind": "gaussian", "tau": "0.18ns"}
        model = load_model(dict(CAVITY_QUBIT_DOC, filter=tau))
        for derive in (effective_hamiltonian, effective_dissipators, assemble):
            computed, memo = _memo_of(derive, model, 2)
            assert len(computed) < len(memo)
            for freqs, value in memo.items():
                fresh = contraction_coefficient(freqs, model.filter_spec)
                assert value == fresh.canonical(), freqs
                assert str(_expr(value, model)) == str(
                    _expr(fresh.canonical(), model)
                ), freqs

    @pytest.mark.parametrize(
        "doc", [RABI_DOC, get_preset("duffing")], ids=["rabi", "duffing"]
    )
    def test_assemble_computes_each_orbit_once_over_both_passes(self, doc):
        # an H tuple of weight (l, 0) mirrors to a (1, l - 1) dissipator
        # tuple: one memo for both passes computes it once
        model = load_model(doc)
        computed, _ = _memo_of(assemble, model, 2)
        orbits = {_orbit(freqs) for freqs in computed}
        assert len(orbits) == len(computed)
        apart = sum(
            len(_memo_of(derive, model, 2)[0])
            for derive in (effective_hamiltonian, effective_dissipators)
        )
        assert len(computed) < apart


class TestUnitaryLimit:
    def test_order2_contains_the_james_jerke_hamiltonian(self):
        # The g**2 part of the order-2 Hamiltonian, its filtered content
        # dropped by ir_limit, is James & Jerke's effective Hamiltonian
        # (Can. J. Phys. 85, 625 (2007)) for H = sum_n h_n exp(-i w_n t):
        # sum over conjugate pairs of [h_n', h_n] / w_n.  The sum below
        # runs over every term with w_n != 0, and so counts each pair twice.
        doc = get_preset("rabi")
        del doc["filter"]
        model = load_model(doc)
        g = sp.Symbol("g", real=True)
        got = OperatorSum.zero(model.modes)
        for term in effective_hamiltonian(model, 2):
            coeff = ir_limit(sp.expand(term.coeff).coeff(g, 2))
            if term.freq.is_zero:
                got = got + g**2 * coeff * term.op
            else:
                assert coeff == 0, term
        want = OperatorSum.zero(model.modes)
        for term in model.terms:
            if not term.freq.is_zero:
                h = term.coeff * term.op
                comm = h.adjoint().matmul(h) - h.matmul(h.adjoint())
                want = want + comm * (1 / (2 * term.freq.to_sympy()))
        assert got == want
        assert len(got.terms) == 3


class TestIrLimit:
    def test_drops_filtered_exponentials(self):
        w = sp.Symbol("w", real=True)
        expr = 3 * TAU**2 * w + w * sp.exp(-(w**2) * TAU**2)
        assert ir_limit(expr) == 3 * TAU**2 * w

    def test_keeps_plain_exp(self):
        x = sp.Symbol("x", real=True)
        assert ir_limit(sp.exp(x)) == sp.exp(x)


class TestPruneExport:
    def _eff(self):
        return assemble(load_model(RABI_DOC), 2)

    def test_prune_census(self):
        eff = self._eff()
        point = {"wa": 20.0, "wc": 21.0, "g": 0.5, "tau": 0.4}
        pruned = prune_terms(eff, 1e-6, point)
        assert len(pruned.hamiltonian) < len(eff.hamiltonian)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1e-6])
    def test_prune_rejects_bad_threshold(self, threshold):
        eff = assemble(load_model(RABI_DOC), 1)
        point = {"wa": 20.0, "wc": 21.0, "g": 0.5, "tau": 0.4}
        with pytest.raises(ValueError, match="threshold must be finite"):
            prune_terms(eff, threshold, point)

    @pytest.mark.parametrize(
        "window",
        [(0.0, 0.0), (0.0, -5e-9), (0.0, math.inf), (math.nan, 1e-9),
         (-math.inf, 0.0)],
        ids=["empty", "reversed", "infinite-end", "nan-start",
             "infinite-start"],
    )
    def test_prune_rejects_bad_window(self, window):
        eff = assemble(load_model(RABI_DOC), 1)
        point = {"wa": 20.0, "wc": 21.0, "g": 0.5, "tau": 0.4}
        with pytest.raises(ValueError, match="pruning window must be finite"):
            prune_terms(eff, 1.0, point, window)

    def test_prune_names_a_coefficient_that_is_not_finite(self):
        eff = assemble(load_model(RABI_DOC), 1)
        point = {"wa": 20.0, "wc": 21.0, "g": math.nan, "tau": 0.4}
        with pytest.raises(
            ValueError, match=r"coefficient of .* at frequency .* is nan at t"
        ):
            prune_terms(eff, 1.0, point)

    @pytest.mark.parametrize(
        "path,exact",
        [
            (BENCH_DATA / "rabi_order1.json", True),
            (TEST_DATA / "parametron_order1.json", True),
            # 8 of its 67 coefficients mix Float and Rational exponentials
            # and reprint in another term order
            (BENCH_DATA / "rabi_order3.json", False),
            (TEST_DATA / "rabi_order1.json", True),
            (TEST_DATA / "rabi_order3.json", True),
            (TEST_DATA / "duffing_order2.json", True),
            (TEST_DATA / "ramped_squeeze_order1.json", True),
            (TEST_DATA / "parametron_order2.json", True),
            (TEST_DATA / "cavity_qubit_order2.json", True),
        ],
        ids=["rabi_order1", "parametron_order1", "rabi_order3",
             "exact_rabi_order1", "exact_rabi_order3", "exact_duffing_order2",
             "exact_ramped_squeeze_order1", "exact_parametron_order2",
             "exact_cavity_qubit_order2"],
    )
    def test_json_round_trip(self, path, exact):
        text = path.read_text()
        back = export_model(load_effective(text), "json")
        if exact:
            assert json.dumps(back, indent=2, sort_keys=True) + "\n" == text
            return
        stored = json.loads(text)
        for key, value in (("hamiltonian", "coeff"), ("dissipators", "rate")):
            assert len(back[key]) == len(stored[key])
            for got, want in zip(back[key], stored[key]):
                assert sp.sympify(got.pop(value)) == sp.sympify(want.pop(value))
        assert back == stored

    def test_load_effective_names_zero_denominator(self):
        doc = json.loads((TEST_DATA / "rabi_order1.json").read_text())
        doc["hamiltonian"][0]["frequency"] = "-2/0*w"
        with pytest.raises(ValueError, match=r"'-2/0\*w'"):
            load_effective(doc)

    @pytest.mark.parametrize(
        "coeff",
        ["g*log(2)", "Abs(wa)", "g*sin(1)", "g*cos(wa*tau)", "Min(1, wa)"],
    )
    def test_load_effective_keeps_functions(self, coeff):
        doc = export_model(assemble(load_model(RABI_DOC), 1), "json")
        doc["hamiltonian"][0]["coeff"] = coeff
        back = load_effective(doc)
        names = {n: sp.Symbol(n, real=True) for n in ("g", "wa")}
        expected = sp.sympify(coeff, locals={**names, "tau": TAU})
        assert back.hamiltonian[0].coeff == expected

    def test_text_rendering(self):
        text = export_model(self._eff(), "text")
        assert "[hamiltonian]" in text and "[dissipators]" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_model(self._eff(), "yaml")


#: Times, in seconds, at which two generators are compared.
_COMPARE_TIMES = (0.0, 1.3e-9, 7.7e-9)


def _derive(doc, order):
    return export_model(assemble(load_model(doc), order))


def _generator(doc) -> dict:
    """``{term key: coefficient}`` of an effective model document."""
    eff = load_effective(doc)
    out = {("H", t.freq, t.op): t.coeff for t in eff.hamiltonian}
    out.update(
        {("D", t.freq, t.left, t.right): t.rate for t in eff.dissipators}
    )
    return out


class TestExactExports:
    @pytest.mark.parametrize(
        "preset,order",
        [("rabi", 1), ("duffing", 1), ("parametron", 1), ("rabi", 2),
         ("duffing", 2)],
    )
    def test_fresh_export_is_float_free_and_round_trips(self, preset, order):
        doc = _derive(get_preset(preset), order)
        assert not any(v.has(sp.Float) for v in _generator(doc).values())
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        back = export_model(load_effective(text))
        assert json.dumps(back, indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize("order", [1, 3])
    def test_benchmark_export_is_the_fresh_generator(self, order):
        # The benchmark's stored rabi models keep an older, Float text of
        # the same generator: same terms, equal values at the preset point.
        doc = json.loads((BENCH_DATA / f"rabi_order{order}.json").read_text())
        stored = _generator(doc)
        fresh = _generator(_derive(get_preset("rabi"), order))
        assert stored.keys() == fresh.keys()
        for key, value in stored.items():
            for t in _COMPARE_TIMES:
                point = dict(doc["params"], t=t)
                want = scalar_eval(value, point)
                got = scalar_eval(fresh[key], point)
                assert abs(got - want) <= 1e-14 * abs(want), (key, t)

    @pytest.mark.slow
    def test_parametron_order2_numeric_tau_is_the_symbolic_one(self):
        # Float and Rational forms of one exponential used to leave 9
        # residue terms of rounding error (at most 1e-43 here) that the
        # symbolic-tau derivation does not have.
        doc = get_preset("parametron")
        numeric = _derive(doc, 2)
        symbolic = dict(doc, filter={"kind": "gaussian"})
        symbolic = _generator(_derive(symbolic, 2))
        got = _generator(numeric)
        assert got.keys() == symbolic.keys()
        for key, value in got.items():
            for t in _COMPARE_TIMES:
                point = dict(numeric["params"], t=t)
                want = scalar_eval(symbolic[key], point)
                got = scalar_eval(value, point)
                assert abs(got - want) <= 1e-14 * abs(want), (key, t)
