import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from stcg.operators import (
    ModeSpec,
    OperatorSum,
    monomial_label,
    parse_operator,
)
from stcg.symbols import scalar_eval

BOSON = (ModeSpec("a", "bosonic", 8),)
MIXED = (ModeSpec("a", "bosonic", 6), ModeSpec("q", "two_level"))


def interior(matrix, margin):
    return matrix[: matrix.shape[0] - margin, : matrix.shape[1] - margin]


small_keys = st.tuples(st.integers(0, 2), st.integers(0, 2))


class TestAlgebra:
    @settings(max_examples=40)
    @given(k1=small_keys, k2=small_keys)
    def test_product_matches_matrices(self, k1, k2):
        x = OperatorSum.monomial(BOSON, (k1,))
        y = OperatorSum.monomial(BOSON, (k2,))
        product = x.matmul(y)
        direct = x.matrix() @ y.matrix()
        # the top rows of a truncated matrix product are corrupted by the
        # missing levels; compare away from that edge
        margin = k1[0] + k1[1] + k2[0] + k2[1]
        assert np.allclose(
            interior(product.matrix(), margin), interior(direct, margin),
            atol=1e-10,
        )

    def test_commutator(self):
        a = OperatorSum.monomial(BOSON, ((0, 1),))
        ad = OperatorSum.monomial(BOSON, ((1, 0),))
        comm = a.matmul(ad) - ad.matmul(a)
        assert comm == OperatorSum.identity(BOSON)

    def test_adjoint_matches_dagger(self):
        op = OperatorSum(BOSON, {((2, 1),): 1 + 2j, ((0, 1),): -3})
        assert np.allclose(op.adjoint().matrix(), op.matrix().conj().T)

    def test_two_level_products(self):
        modes = (ModeSpec("q", "two_level"),)
        sp_ = parse_operator("sp", modes)
        sm = parse_operator("sm", modes)
        assert sp_.matmul(sm) == parse_operator("t(e,e)", modes)
        assert sm.matmul(sp_) == parse_operator("t(g,g)", modes)
        assert sp_.matmul(sp_).is_zero

    def test_sz(self):
        modes = (ModeSpec("q", "two_level"),)
        sz = parse_operator("sz", modes)
        assert np.allclose(sz.matrix(), np.diag([-1.0, 1.0]))

    def test_degree_cap(self):
        # no ladder-degree cap: a'^7 a'^7 is kept symbolically as a'^14,
        # truncation applies only when a matrix is built
        big = OperatorSum.monomial(BOSON, ((7, 0),))
        product = big.matmul(big)
        assert product == OperatorSum.monomial(BOSON, ((14, 0),))
        assert not product.matrix().any()

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            OperatorSum.identity(BOSON).matmul(OperatorSum.identity(MIXED))


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["a", "a'", "a^2", "a'^3*a", "a*sm", "a'*t(g,e)", "sz", "1", ""],
    )
    def test_parse_accepts(self, text):
        parse_operator(text, MIXED)

    def test_identity_forms(self):
        assert parse_operator("", MIXED) == OperatorSum.identity(MIXED)
        assert parse_operator("1", MIXED) == OperatorSum.identity(MIXED)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            parse_operator("b", MIXED)

    def test_two_level_shorthand_needs_single_mode(self):
        modes = (ModeSpec("p", "two_level"), ModeSpec("q", "two_level"))
        with pytest.raises(ValueError):
            parse_operator("sm", modes)

    def test_label_round_trip(self):
        # implicit two-level identities expand into projector monomials, so
        # round-trip label-by-label
        for text in ("a'^2*a", "a*t(g,e)", "a'*t(e,e)", "t(g,g)"):
            op = parse_operator(text, MIXED)
            rebuilt = OperatorSum.zero(MIXED)
            for key, coeff in op.terms.items():
                label = monomial_label(MIXED, key)
                rebuilt = rebuilt + coeff * parse_operator(label, MIXED)
            assert rebuilt == op

    def test_parse_matches_matrix_semantics(self):
        # a'*a on the mixed space: number operator tensor identity
        op = parse_operator("a'*a", MIXED)
        n = np.diag(np.arange(6, dtype=float))
        assert np.allclose(op.matrix(), np.kron(n, np.eye(2)))


def kron_matrix(op, assignment):
    """Reference matrix: a dense Kronecker product of factor matrices per
    monomial, each scaled by its evaluated coefficient."""
    dims = [mode.dim for mode in op.modes]
    out = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for key, coeff in op.terms.items():
        block = np.eye(1, dtype=complex)
        for mode, (m, n) in zip(op.modes, key):
            factor = np.zeros((mode.dim, mode.dim), dtype=complex)
            if mode.kind == "two_level":
                factor[m, n] = 1.0
            else:
                for c in range(n, mode.dim):
                    r = c - n + m
                    if r >= mode.dim:
                        continue
                    amp = 1.0
                    for k in range(n):
                        amp *= math.sqrt(c - k)
                    for k in range(m):
                        amp *= math.sqrt(r - k)
                    factor[r, c] = amp
            block = np.kron(block, factor)
        out += scalar_eval(coeff, assignment) * block
    return out


class TestMatrix:
    MODES = (
        ModeSpec("a", "bosonic", 5),
        ModeSpec("b", "bosonic", 3),
        ModeSpec("q", "two_level"),
    )

    @pytest.mark.parametrize(
        "text", ["a'^2*b*sp", "a^3*b'^2*t(e,e)", "a'*a*sz", "b^4", "1"]
    )
    def test_equals_kron_reference(self, text):
        # two bosonic modes and a two-level mode, a symbolic coefficient
        # beside plain numbers; b^4 is empty at truncation 3
        g = sp.Symbol("g")
        op = parse_operator(text, self.MODES)
        op = (sp.sqrt(2) * g + sp.I / 3) * op + parse_operator(
            "a'*b", self.MODES
        )
        assignment = {"g": 0.7}
        assert np.array_equal(op.matrix(assignment), kron_matrix(op, assignment))


class TestModeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSpec("a", "fermionic", 4)
        with pytest.raises(ValueError):
            ModeSpec("a", "bosonic", 1)

    def test_two_level_dim(self):
        assert ModeSpec("q", "two_level").dim == 2
