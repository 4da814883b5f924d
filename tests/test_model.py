import json
import math

import numpy as np
import pytest
import sympy as sp

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
from stcg.symbols import TAU, FreqExpr, GaussianFilter

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

    def test_non_hermitian_rejected(self):
        doc = dict(RABI_DOC, terms=RABI_DOC["terms"][:1])
        with pytest.raises(ValueError):
            load_model(doc).check_hermitian()

    def test_auto_conjugates(self):
        doc = dict(RABI_DOC, terms=RABI_DOC["terms"][::2])
        m = load_model(doc, auto_conjugates=True)
        assert len(m.terms) == 4
        m.check_hermitian()


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

    def test_assemble_provenance(self):
        m = load_model(RABI_DOC)
        eff = assemble(m, 2)
        assert eff.order == 2
        assert eff.provenance["model"] == "rabi"


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
        dropped = pruned.provenance["pruned"]
        total = (
            dropped["hamiltonian_dropped"] + dropped["dissipators_dropped"]
        )
        assert total == (
            len(eff.hamiltonian) - len(pruned.hamiltonian)
            + len(eff.dissipators) - len(pruned.dissipators)
        )

    @pytest.mark.parametrize("samples", [0, 1])
    def test_prune_window_rejects_too_few_samples(self, samples):
        eff = assemble(load_model(RABI_DOC), 1)
        point = {"wa": 20.0, "wc": 21.0, "g": 0.5, "tau": 0.4}
        with pytest.raises(ValueError, match="at least 2 samples"):
            prune_terms(eff, 1e-6, point, time_window=(0.0, 1.0),
                        samples=samples)

    def test_json_round_trip(self):
        eff = self._eff()
        doc = export_model(eff, "json")
        back = load_effective(json.dumps(doc), eff.filter_spec)
        assert back == eff

    def test_text_rendering(self):
        text = export_model(self._eff(), "text")
        assert "[hamiltonian]" in text and "[dissipators]" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_model(self._eff(), "yaml")
