import cmath
import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from stcg.model import (
    DissipatorTermSpec,
    EffectiveModel,
    HamiltonianTermSpec,
    assemble,
    load_effective,
    load_model,
)
from stcg.operators import ModeSpec, parse_operator
from stcg.presets import duffing, get_preset
import stcg.simulate as simulate
from stcg.simulate import (
    GATHER_RATIO,
    NumericalGuardError,
    ObservableSpec,
    Trajectory,
    build_initial,
    coarse_grain_trajectory,
    compare_series,
    expectation_series,
    _generator,
    _jump_table,
    _realize,
    _slot_product,
    integrate,
    rate_decomposition,
)
from stcg.symbols import TIME, FreqExpr

JC_MODES = (ModeSpec("a", "bosonic", 6), ModeSpec("q", "two_level"))
BENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


def jc_model(g="g"):
    return load_model(
        {
            "name": "jc",
            "modes": [
                {"name": "a", "kind": "bosonic", "truncation": 6},
                {"name": "q", "kind": "two_level"},
            ],
            "symbols": {"g": None},
            "terms": [
                {"coupling": "g/2", "frequency": "0", "operator": "a*sp"},
                {"coupling": "g/2", "frequency": "0", "operator": "a'*sm"},
            ],
        }
    )


def effective_from(model, order=1):
    terms = tuple(
        HamiltonianTermSpec(
            sp.sympify(c), FreqExpr.parse(f), parse_operator(op, model.modes)
        )
        for c, f, op in (("g/2", "0", "a*sp"), ("g/2", "0", "a'*sm"))
    )
    return EffectiveModel(
        order=order,
        modes=model.modes,
        hamiltonian=terms,
        dissipators=(),
    )


def operator_sum(modes, *texts):
    result = parse_operator(texts[0], modes)
    for text in texts[1:]:
        result = result + parse_operator(text, modes)
    return result


def lindblad_model(modes, hamiltonian, dissipators):
    """Effective model from ``(coeff, freq, op)`` and
    ``(rate, freq, L, J)`` tuples; coefficients are sympy expressions."""
    return EffectiveModel(
        order=2,
        modes=tuple(modes),
        hamiltonian=tuple(
            HamiltonianTermSpec(sp.sympify(c), FreqExpr.parse(f), op)
            for c, f, op in hamiltonian
        ),
        dissipators=tuple(
            DissipatorTermSpec(sp.sympify(r), FreqExpr.parse(f), left, right)
            for r, f, left, right in dissipators
        ),
    )


def generator_case(name):
    """Models on each side of the gather/dense rule, with operator sums
    of two or more non-zeros per row, complex rates and a coefficient
    linear in ``t``; every term has its conjugate partner."""
    g = sp.Symbol("g")
    if name == "narrow":
        modes = (ModeSpec("a", "bosonic", 50), ModeSpec("q", "two_level"))
        x = operator_sum(modes, "a", "a'")
        hamiltonian = [
            (g * TIME, "0", x),
            (1.1, "0", parse_operator("sz", modes)),
        ]
        dissipators = [
            (0.4 + 0.3j, "w", parse_operator("a", modes), x),
            (0.4 - 0.3j, "-w", x, parse_operator("a'", modes)),
            (0.2, "0", parse_operator("sm", modes), parse_operator("sp", modes)),
        ]
    else:
        modes = (ModeSpec("a", "bosonic", 4), ModeSpec("q", "two_level"))
        x = operator_sum(modes, "a", "a'")
        hamiltonian = [
            (g * TIME, "0", x.matmul(x).matmul(x)),
            (1.1, "0", parse_operator("sz", modes)),
        ]
        dissipators = [
            (0.4 - 0.7j, "w", x, parse_operator("a'^2*sp", modes)),
            (0.4 + 0.7j, "-w", parse_operator("a^2*sm", modes), x),
            (0.25, "-w", operator_sum(modes, "a", "sm"),
             operator_sum(modes, "a'", "sp")),
            (0.25, "w", operator_sum(modes, "a", "sm"),
             operator_sum(modes, "a'", "sp")),
        ]
    return (
        lindblad_model(modes, hamiltonian, dissipators),
        {"g": 1.3, "w": 2.9},
    )


def rabi_order3(truncation):
    """The stored order-3 ``rabi`` model at ``truncation`` and the preset's
    numeric assignment."""
    doc = json.loads((BENCH_DATA / "rabi_order3.json").read_text())
    doc["modes"][0]["truncation"] = truncation
    return (
        load_effective(doc),
        load_model(get_preset("rabi")).numeric_assignment(),
    )


def closed_model(extra_hamiltonian=()):
    """Terms closed under conjugation: H pairs at +/-w, operator-sum jumps
    ``(L, J)`` and ``(J^dagger, L^dagger)`` with conjugate rates, and
    self-conjugate H and jump terms."""
    modes = JC_MODES
    op = lambda text: parse_operator(text, modes)  # noqa: E731
    g = sp.Symbol("g")
    hamiltonian = [
        (0.3 + 0.4j, "w", op("a'*sm")),
        (0.3 - 0.4j, "-w", op("a*sp")),
        (g, "0", op("a'*a")),
        (1.1, "0", op("sz")),
        *extra_hamiltonian,
    ]
    dissipators = [
        (0.2 + 0.1j * g, "w", operator_sum(modes, "a", "sm"),
         operator_sum(modes, "a'^2", "sp")),
        (0.2 - 0.1j * g, "-w", operator_sum(modes, "a^2", "sm"),
         operator_sum(modes, "a'", "sp")),
        (0.5, "0", op("a"), op("a'")),
    ]
    return lindblad_model(modes, hamiltonian, dissipators), {"g": 1.3, "w": 2.9}


def coefficient_at(expr, freq, assignment, t):
    values = {
        s: t if s == TIME else assignment[s.name] for s in expr.free_symbols
    }
    omega = freq.evaluate(assignment)
    return complex(expr.subs(values)) * cmath.exp(-1j * omega * t)


def dense_rk4(eff, assignment, rho0, n_samples, stride, dt):
    """Fixed-step RK4 of :func:`dense_rhs` from t = 0, ``stride`` steps of
    ``dt`` per sample: the reference for :func:`integrate`.

    A 1-d ``rho0`` is a state vector psi, integrated as ``psi' = -i H(t)
    psi`` with the dense H of :func:`dense_hamiltonian`; the samples are
    then ``psi psi^dagger``, as on the vector path."""
    if rho0.ndim == 1:
        def f(t, psi):
            return -1j * dense_hamiltonian(eff, assignment, t) @ psi

        def sample(psi):
            return np.outer(psi, psi.conj())
    else:
        def f(t, rho):
            return dense_rhs(eff, assignment, t, rho)

        def sample(rho):
            return rho
    y = rho0.astype(complex)
    expected = [sample(y)]
    for step in range(stride * (n_samples - 1)):
        t = step * dt
        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt / 2 * k1)
        k3 = f(t + dt / 2, y + dt / 2 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % stride == 0:
            expected.append(sample(y))
    return np.array(expected)


def dense_hamiltonian(eff, assignment, t):
    """H(t) as one dense matrix, summed term by term."""
    return sum(
        coefficient_at(term.coeff, term.freq, assignment, t)
        * term.op.matrix(assignment)
        for term in eff.hamiltonian
    )


def dense_rhs(eff, assignment, t, rho, hamiltonian=True):
    """``-i[H(t), rho] + sum_j r_j(t) (L rho J - {JL, rho}/2)`` with dense
    matrices, straight from the master equation."""
    out = np.zeros_like(rho)
    if hamiltonian:
        h = dense_hamiltonian(eff, assignment, t)
        out += -1j * (h @ rho - rho @ h)
    for term in eff.dissipators:
        rate = coefficient_at(term.rate, term.freq, assignment, t)
        left = term.left.matrix(assignment)
        right = term.right.matrix(assignment)
        jl = right @ left
        out += rate * (left @ rho @ right - 0.5 * (jl @ rho + rho @ jl))
    return out


def slots_per_line(eff, assignment):
    """Largest non-zero count per row and per column over all H and JL."""
    ham, dis, _, dim = _realize(eff, assignment)
    pattern = np.zeros((dim, dim), dtype=bool)
    for mat, _ in ham:
        pattern |= mat != 0
    for _, _, jl, _ in dis:
        pattern |= jl != 0
    return pattern.sum(axis=1).max(), pattern.sum(axis=0).max(), dim


def coo(mat):
    """``mat`` as the COO triplets ``_jump_table`` takes."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_density(dim, seed):
    """A random full-rank density matrix, exactly Hermitian."""
    x = random_matrix(dim, seed)
    rho = x @ x.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def upper_half(mat):
    """The upper triangle of ``mat`` with its diagonal halved: what the
    jump table adds for the product ``mat``."""
    out = np.triu(mat)
    out[np.diag_indices(len(mat))] *= 0.5
    return out


class TestInitialStates:
    def test_fock(self):
        rho = build_initial(JC_MODES, "fock(2)*g")
        assert rho.shape == (12, 12)
        assert np.trace(rho) == pytest.approx(1.0)
        n = parse_operator("a'*a", JC_MODES).matrix()
        assert np.trace(n @ rho).real == pytest.approx(2.0)

    def test_coherent_population(self):
        rho = build_initial(
            (ModeSpec("a", "bosonic", 40),), "coherent(1.5)"
        )
        n = parse_operator("a'*a", (ModeSpec("a", "bosonic", 40),)).matrix()
        assert np.trace(n @ rho).real == pytest.approx(1.5**2, rel=1e-6)

    def test_complex_alpha(self):
        rho = build_initial((ModeSpec("a", "bosonic", 30),), "coherent(0.5i)")
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_factor_count_mismatch(self):
        with pytest.raises(ValueError):
            build_initial(JC_MODES, "fock(0)")

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            build_initial(JC_MODES, "e*fock(0)")

    @pytest.mark.parametrize("n", [-1, -6, 6])
    def test_fock_outside_truncation(self, n):
        with pytest.raises(ValueError, match="outside truncation"):
            build_initial(JC_MODES, f"fock({n})*g")

    @pytest.mark.parametrize("alpha", ["nan", "1e400", "1+nanj"])
    def test_rejects_non_finite_amplitude(self, alpha):
        with pytest.raises(ValueError, match="must be finite"):
            build_initial(JC_MODES, f"coherent({alpha})*e")

    @pytest.mark.parametrize("alpha", ["100", "1e200"])
    def test_rejects_amplitude_that_underflows(self, alpha):
        # every Fock amplitude underflows at truncation 6; |1e200|^2 is
        # beyond the float range
        with pytest.raises(ValueError, match="no representable amplitude"):
            build_initial(JC_MODES, f"coherent({alpha})*e")


class TestIntegrate:
    def test_zero_generator_is_constant(self):
        model = load_model(
            {
                "name": "empty",
                "modes": [{"name": "a", "kind": "bosonic", "truncation": 4}],
                "symbols": {"w": None},
                "terms": [],
            }
        )
        rho0 = build_initial(model.modes, "fock(1)")
        traj = integrate(model, rho0, (0.0, 1.0), {"w": 1.0}, dt=0.01)
        assert np.allclose(traj.states, rho0, atol=1e-12)

    def test_resonant_revival_period(self):
        model = jc_model()
        g = 2.0
        rho0 = build_initial(model.modes, "fock(0)*e")
        period = 2 * math.pi / g
        traj = integrate(
            model, rho0, (0.0, period), {"g": g}, dt=period / 4000,
            n_samples=201,
        )
        pe = expectation_series(
            traj, ObservableSpec.parse("t(e,e)", model.modes)
        ).real
        assert pe[0] == pytest.approx(1.0)
        assert pe[len(pe) // 2] == pytest.approx(0.0, abs=1e-6)
        assert pe[-1] == pytest.approx(1.0, abs=1e-6)

    def test_trace_and_hermiticity_drift(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "coherent(1)*e")
        traj = integrate(model, rho0, (0.0, 5.0), {"g": 1.3}, dt=0.002)
        traces = np.einsum("tii->t", traj.states)
        assert np.max(np.abs(traces - 1.0)) < 1e-8
        herm = np.max(
            np.abs(traj.states - np.conj(np.swapaxes(traj.states, 1, 2)))
        )
        assert herm < 1e-8

    def test_purity_preserved(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "fock(1)*g")
        traj = integrate(model, rho0, (0.0, 3.0), {"g": 1.0}, dt=0.002)
        purity = np.einsum("tij,tji->t", traj.states, traj.states).real
        assert np.max(np.abs(purity - 1.0)) < 1e-7

    def test_fourth_order_convergence(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "fock(1)*e")
        span = (0.0, 2.0)
        point = {"g": 1.7}
        fine = integrate(model, rho0, span, point, dt=0.0005, n_samples=11)
        coarse = integrate(model, rho0, span, point, dt=0.04, n_samples=11)
        half = integrate(model, rho0, span, point, dt=0.02, n_samples=11)
        err_c = np.max(np.abs(coarse.states[-1] - fine.states[-1]))
        err_h = np.max(np.abs(half.states[-1] - fine.states[-1]))
        order = math.log2(err_c / err_h)
        assert order > 3.5

    def test_guard_trips_on_unstable_step(self):
        # dt far beyond the RK4 stability limit for this coupling
        model = jc_model()
        rho0 = build_initial(model.modes, "fock(1)*e")
        with np.errstate(all="ignore"), pytest.raises(NumericalGuardError):
            integrate(
                model, rho0, (0.0, 100.0), {"g": 300.0}, dt=0.1,
                n_samples=11,
            )

    def test_rejects_dimension_mismatch(self):
        model = jc_model()
        with pytest.raises(ValueError):
            integrate(model, np.eye(3) / 3, (0.0, 1.0), {"g": 1.0})

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_rejects_too_few_samples(self, n_samples):
        model = jc_model()
        rho0 = build_initial(model.modes, "fock(0)*e")
        with pytest.raises(ValueError, match="at least 2 samples"):
            integrate(model, rho0, (0.0, 1.0), {"g": 1.0}, n_samples=n_samples)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_step(self, dt):
        model = jc_model()
        rho0 = build_initial(model.modes, "fock(0)*e")
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            integrate(model, rho0, (0.0, 1.0), {"g": 1.0}, dt=dt)

    @pytest.mark.parametrize(
        "t_span", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)]
    )
    def test_rejects_non_finite_window(self, t_span):
        model = jc_model()
        rho0 = build_initial(model.modes, "fock(0)*e")
        with pytest.raises(ValueError, match="window must be finite"):
            integrate(model, rho0, t_span, {"g": 1.0}, n_samples=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_initial_state(self, bad):
        model = jc_model()
        rho0 = build_initial(model.modes, "fock(0)*e")
        rho0[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            integrate(model, rho0, (0.0, 1.0), {"g": 1.0}, n_samples=3)

    def test_rk4_matches_dense_reference(self):
        modes = JC_MODES
        g = sp.Symbol("g")
        eff = lindblad_model(
            modes,
            [
                (g / 2, "0", parse_operator("a*sp", modes)),
                (g / 2, "0", parse_operator("a'*sm", modes)),
                (0.1 * g * TIME, "0", operator_sum(modes, "a", "a'")),
            ],
            [
                (0.3, "0", parse_operator("a", modes),
                 parse_operator("a'", modes)),
                (0.05 + 0.02j, "w", parse_operator("sm", modes),
                 operator_sum(modes, "a'", "sp")),
                (0.05 - 0.02j, "-w", operator_sum(modes, "a", "sm"),
                 parse_operator("sp", modes)),
            ],
        )
        assignment = {"g": 1.7, "w": 2.0}
        rho0 = build_initial(modes, "coherent(0.8)*e")
        traj = integrate(eff, rho0, (0.0, 0.6), assignment, dt=0.02,
                         n_samples=7)
        assert traj.meta["rhs"] == "hermitian"
        expected = dense_rk4(eff, assignment, rho0, len(traj.times),
                             traj.meta["stride"], traj.meta["dt"])
        assert np.max(np.abs(traj.states - expected)) < 1e-12


class TestGenerator:
    @pytest.mark.parametrize("case", ["narrow", "wide"])
    def test_matches_dense_formula(self, case):
        eff, assignment = generator_case(case)
        rows, cols, dim = slots_per_line(eff, assignment)
        narrow = max(rows, cols) * GATHER_RATIO <= dim
        assert narrow == (case == "narrow")
        assert min(rows, cols) >= 2
        ham, dis, _, dim = _realize(eff, assignment)
        rhs = _generator(ham, dis, dim)
        rho = random_density(dim, 5)
        out = np.empty_like(rho)
        for t in (0.0, 0.37, 1.9):
            ref = dense_rhs(eff, assignment, t, rho)
            err = np.max(np.abs(rhs(t, rho, out) - ref))
            assert err <= 1e-12 * np.max(np.abs(ref))

    def test_empty_tables_give_zero(self):
        rhs = _generator([], [], 5)
        out = rhs(0.3, random_matrix(5, 1), np.ones((5, 5), dtype=complex))
        assert not out.any()

    @pytest.mark.parametrize("dim, k", [(80, 3), (12, 3)])
    def test_slot_products_mask_padding(self, dim, k):
        # row 0 holds a single non-zero in column 0, where the padding
        # slots point too; row 1 and column 1 are empty
        rng = np.random.default_rng(dim)
        mats = []
        for _ in range(2):
            mat = np.zeros((dim, dim), dtype=complex)
            mat[0, 0] = rng.normal() + 1j
            for i in range(2, dim):
                cols = rng.choice(np.delete(np.arange(dim), 1), size=k,
                                  replace=False)
                mat[i, cols] = rng.normal(size=k) + 1j * rng.normal(size=k)
            mats.append(mat)
        mats[1][:, 2:] *= rng.integers(0, 2, size=dim - 2)  # thin it out
        pattern = (mats[0] != 0) | (mats[1] != 0)
        c = np.array([0.7 - 0.2j, -1.3 + 0.5j])
        total = c[0] * mats[0] + c[1] * mats[1]
        x = random_matrix(dim, 2)
        left = np.empty_like(x)
        _slot_product(mats, pattern)(c, x, left)
        assert np.allclose(left, total @ x, rtol=0, atol=1e-12)
        assert not left[1].any()

    def test_jump_table_mixed_with_general_terms(self):
        # monomial jumps (a^3 empties the top three rows of its product)
        # beside operator-sum ones, with complex and time-dependent rates,
        # each with its conjugate partner
        g = sp.Symbol("g")
        modes = (ModeSpec("a", "bosonic", 7), ModeSpec("q", "two_level"))
        op = lambda text: parse_operator(text, modes)  # noqa: E731
        x = operator_sum(modes, "a", "a'")
        eff = lindblad_model(
            modes,
            [
                (g, "0", x),
                (0.6 * TIME, "w", op("a'*a*sz")),
                (0.6 * TIME, "-w", op("a'*a*sz")),
            ],
            [
                ((0.4 + 0.3j) * (1 + g * TIME), "w", op("a^3"), op("a'^2")),
                ((0.4 - 0.3j) * (1 + g * TIME), "-w", op("a^2"), op("a'^3")),
                (0.2 - 0.1j, "-w", op("a'*sm"), op("a*sp")),
                (0.2 + 0.1j, "w", op("a'*sm"), op("a*sp")),
                (0.7 * TIME, "0", op("sz"), op("a'*a")),
                (0.7 * TIME, "0", op("a'*a"), op("sz")),
                (0.3, "w", x, op("a^2*sp")),
                (0.3, "-w", op("a'^2*sm"), x),
                (0.25j, "0", op("a"), operator_sum(modes, "a'", "sp")),
                (-0.25j, "0", operator_sum(modes, "a", "sm"), op("a'")),
            ],
        )
        assignment = {"g": 1.3, "w": 2.9}
        ham, dis, _, dim = _realize(eff, assignment)
        rhs = _generator(ham, dis, dim)
        rho = random_density(dim, 7)
        out = np.empty_like(rho)
        for t in (0.0, 0.37, 1.9):
            ref = dense_rhs(eff, assignment, t, rho)
            err = np.max(np.abs(rhs(t, rho, out) - ref))
            assert err <= 1e-12 * np.max(np.abs(ref))
        # the monomial part alone: a^3 leaves the top three rows empty
        table = _jump_table(
            [(left, right, k) for k, (left, right, _, _) in enumerate(dis[:1])],
            dim,
        )
        out = np.zeros_like(rho)
        table(np.array([1.0 + 0j]), rho, out)
        a3 = op("a^3").matrix()
        assert np.allclose(out, upper_half(a3 @ rho @ op("a'^2").matrix()),
                           rtol=0, atol=1e-12)
        empty = ~(a3 != 0).any(axis=1)
        assert empty.sum() == 6 and not out[empty].any()

    def test_jump_table_padding_adds_nothing(self):
        # entry (i, m) with i >= 2 (a'a and a'a'aa non-zero) gets a record
        # from all three terms and so fills all K = 3 slots; rows 0 and 1
        # get fewer, padded with weight 0 at input 0, where rho is non-zero
        modes = (ModeSpec("a", "bosonic", 5), ModeSpec("q", "two_level"))
        texts = ("a'*a", "a'^2*a^2", "1")
        mats = [parse_operator(text, modes).matrix() for text in texts]
        one = parse_operator("1", modes).matrix()
        counts = sum((mat != 0).astype(int) for mat in mats).diagonal()
        assert counts.max() == len(texts) and counts.min() < len(texts)
        jumps = [(coo(mat), coo(one), k) for k, mat in enumerate(mats)]
        dim = len(one)
        rho = random_matrix(dim, 8)
        assert rho[0, 0] != 0
        c = np.array([0.3 - 1.2j, 2.0 + 0.5j, -0.7 + 0.1j])
        out = np.full_like(rho, 1.0)
        _jump_table(jumps, dim)(c, rho, out)
        total = sum(ck * (mat @ rho) for ck, mat in zip(c, mats))
        ref = 1.0 + upper_half(total)
        assert np.allclose(out, ref, rtol=0, atol=1e-12)

    def test_jump_table_without_records_is_noop(self):
        zero = coo(np.zeros((4, 4)))
        out = np.ones((4, 4), dtype=complex)
        _jump_table([(zero, coo(np.eye(4)), 0)], 4)(
            np.ones(1, dtype=complex), random_matrix(4, 1), out
        )
        assert np.all(out == 1)


class TestHermitianHalf:
    """The Hermitian-half right-hand side ``X + X^dagger``."""

    @pytest.mark.parametrize("case", ["rabi-order3", "closed"])
    def test_matches_dense_formula(self, case):
        eff, assignment = rabi_order3(6) if case == "rabi-order3" else (
            closed_model()
        )
        ham, dis, _, dim = _realize(eff, assignment)
        rhs = _generator(ham, dis, dim)
        assert rhs.branch == "hermitian"
        rho = random_density(dim, 9)
        out = np.empty_like(rho)
        for t in (0.0, 0.37e-9, 1.9):
            ref = dense_rhs(eff, assignment, t, rho)
            got = rhs(t, rho, out)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(got, got.conj().T)

    def test_upper_table_keeps_outputs_on_and_above_the_diagonal(self):
        eff, assignment = closed_model()
        ham, dis, _, dim = _realize(eff, assignment)
        half = _generator(ham, dis, dim)
        products = [
            (np.less_equal.outer(i, m), np.multiply.outer(lval, jval) != 0)
            for (i, _, lval), (_, m, jval), _, _ in dis
        ]
        upper = sum(np.count_nonzero(keep & nonzero)
                    for keep, nonzero in products)
        full = sum(np.count_nonzero(nonzero) for _, nonzero in products)
        assert half.jump_records == upper < full

    def test_unpaired_term_is_rejected(self):
        eff, assignment = closed_model()
        for unpaired in (
            dataclasses.replace(eff, dissipators=eff.dissipators[1:]),
            dataclasses.replace(eff, hamiltonian=eff.hamiltonian[1:]),
        ):
            with pytest.raises(ValueError, match="preserve Hermiticity"):
                _realize(unpaired, assignment)

    def test_self_adjoint_term_off_zero_frequency_is_rejected(self):
        # sz is its own adjoint, but 1.1 * exp(-i w t) * sz is not Hermitian
        sz = parse_operator("sz", JC_MODES)
        eff, assignment = closed_model([(1.1, "w", sz)])
        with pytest.raises(ValueError, match="frequency w with operator"):
            _realize(eff, assignment)
        eff, assignment = closed_model([(1.1, "w", sz), (1.1, "-w", sz)])
        ham, dis, _, dim = _realize(eff, assignment)
        assert _generator(ham, dis, dim).branch == "hermitian"

    @pytest.mark.parametrize(
        "mismatch, paired", [(1e-9, False), (1e-14, True)]
    )
    def test_conjugate_value_mismatch(self, mismatch, paired):
        # the partner's value must agree to PAIR_RTOL relative
        eff, assignment = closed_model()
        first = eff.hamiltonian[0]
        eff = dataclasses.replace(eff, hamiltonian=(
            dataclasses.replace(first, coeff=first.coeff * (1 + mismatch)),
            *eff.hamiltonian[1:],
        ))
        if paired:
            _realize(eff, assignment)
        else:
            with pytest.raises(ValueError, match="preserve Hermiticity"):
                _realize(eff, assignment)

    def test_time_dependent_coefficients_pair_symbolically(self):
        op = lambda text: parse_operator(text, JC_MODES)  # noqa: E731
        eff, assignment = closed_model([
            (0.1 * TIME, "0", op("sz")),
            ((0.2 + 0.1j) * TIME**2, "w", op("a'*sm")),
            ((0.2 - 0.1j) * TIME**2, "-w", op("a*sp")),
        ])
        rho0 = build_initial(JC_MODES, "coherent(0.8)*e")
        traj = integrate(eff, rho0, (0.0, 0.2), assignment, dt=0.01,
                         n_samples=3)
        assert traj.meta["rhs"] == "hermitian"
        expected = dense_rk4(eff, assignment, rho0, 3, traj.meta["stride"],
                             traj.meta["dt"])
        assert np.max(np.abs(traj.states - expected)) < 1e-12
        # a timed term that is not real, and a timed term whose partner
        # is time-free
        for extra in (
            [(0.1j * TIME, "0", op("sz"))],
            [((0.2 + 0.1j) * TIME, "w", op("a'*sm")),
             (0.2 - 0.1j, "-w", op("a*sp"))],
        ):
            eff, assignment = closed_model(extra)
            with pytest.raises(ValueError, match="preserve Hermiticity"):
                _realize(eff, assignment)

    def test_non_hermitian_state_is_rejected(self):
        eff, assignment = closed_model()
        rho0 = build_initial(JC_MODES, "coherent(0.8)*e")
        rho0[0, 1] += 1e-9j
        with pytest.raises(ValueError, match="not exactly Hermitian"):
            integrate(eff, rho0, (0.0, 0.2), assignment, dt=0.01, n_samples=3)

    def test_states_exactly_hermitian(self):
        eff, assignment = closed_model()
        rho0 = build_initial(JC_MODES, "coherent(0.8)*e")
        traj = integrate(eff, rho0, (0.0, 0.6), assignment, dt=0.01,
                         n_samples=7)
        assert traj.meta["rhs"] == "hermitian"
        assert traj.meta["jump_records"] > 0
        for state in traj.states:
            assert np.array_equal(state, state.conj().T)

    def test_order3_trajectory_matches_dense_reference(self):
        eff, assignment = rabi_order3(6)
        rho0 = build_initial(eff.modes, "coherent(1.2)*e")
        traj = integrate(eff, rho0, (0.0, 0.04e-9), assignment, n_samples=3)
        assert traj.meta["rhs"] == "hermitian"
        expected = dense_rk4(eff, assignment, rho0, 3, traj.meta["stride"],
                             traj.meta["dt"])
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(traj.states - expected)) <= 1e-12 * scale


def rabi_exact(truncation):
    """The exact ``rabi`` preset at ``truncation`` and its assignment."""
    doc = get_preset("rabi")
    doc["modes"][0]["truncation"] = truncation
    model = load_model(doc)
    return model, model.numeric_assignment()


def as_effective(model):
    """The Hamiltonian of ``model`` as an effective model, for
    :func:`dense_rhs`."""
    return EffectiveModel(order=1, modes=model.modes,
                          hamiltonian=model.terms, dissipators=())


def mixed_state(modes, weights, specs):
    """``sum_k w_k |psi_k><psi_k|``, made exactly Hermitian."""
    rho = sum(w * build_initial(modes, s) for w, s in zip(weights, specs))
    return (rho + rho.conj().T) / 2


class TestVectorPath:
    """Unitary runs integrate ``Psi' = -i H(t) Psi`` for ``rho0 = Psi
    Psi^dagger``."""

    def test_agrees_with_density_path_and_is_closer_to_fine_step(self):
        # a few photons: at |alpha| <~ 2 the two paths' errors are alike
        model, assignment = rabi_exact(30)
        rho0 = build_initial(model.modes, "coherent(3.0)*e")
        span = (0.0, 0.5e-9)
        vector = integrate(model, rho0, span, assignment, n_samples=11)
        dt, stride = vector.meta["dt"], vector.meta["stride"]
        # no interval repeated: the density path's step
        assert vector.meta["steps"] == stride * 10
        rho = dense_rk4(as_effective(model), assignment, rho0, 11, stride, dt)
        fine = integrate(model, rho0, span, assignment, dt=dt / 16,
                         n_samples=11)
        assert (vector.meta["rhs"], vector.meta["rank"]) == ("vector", 1)
        err_rho = np.max(np.abs(rho - fine.states))
        err_vector = np.max(np.abs(vector.states - fine.states))
        assert 0 < err_vector < err_rho
        assert np.max(np.abs(vector.states - rho)) <= 2 * err_rho

    def test_time_dependent_hamiltonian_converges_to_density_path(self):
        op = lambda text: parse_operator(text, JC_MODES)  # noqa: E731
        timed = lindblad_model(
            JC_MODES,
            [(0.8 * TIME, "0", op("sz")),
             (1.1, "0", op("a'*a")),
             ((0.6 + 0.2j) * TIME, "w", op("a'*sm")),
             ((0.6 - 0.2j) * TIME, "-w", op("a*sp"))],
            [],
        )
        assignment = {"w": 2.9}
        rho0 = build_initial(JC_MODES, "coherent(0.8)*e")
        gaps = []
        for dt in (0.01, 0.0025):
            vector = integrate(timed, rho0, (0.0, 0.5), assignment, dt=dt,
                               n_samples=2)
            assert (vector.meta["rhs"], vector.meta["rank"]) == ("vector", 1)
            assert vector.meta["dt"] == dt
            rho = dense_rk4(timed, assignment, rho0, 2, vector.meta["stride"],
                            dt)
            gaps.append(np.max(np.abs(vector.states - rho)))
        # two fourth-order methods: the gap falls about 4^4 = 256-fold
        assert gaps[1] < 1e-10 and gaps[0] > 100 * gaps[1]

    def test_mixed_state_has_rank_two(self):
        model = jc_model()
        specs = ("fock(0)*e", "coherent(0.8)*g")
        rho0 = mixed_state(model.modes, (0.7, 0.3), specs)
        traj = integrate(model, rho0, (0.0, 2.0), {"g": 1.3}, dt=0.01,
                         n_samples=5)
        assert (traj.meta["rhs"], traj.meta["rank"]) == ("vector", 2)
        parts = [
            integrate(model, build_initial(model.modes, s), (0.0, 2.0),
                      {"g": 1.3}, dt=0.01, n_samples=5).states
            for s in specs
        ]
        assert np.max(np.abs(traj.states - 0.7 * parts[0] - 0.3 * parts[1])
                      ) < 1e-12

    def test_other_inputs_keep_density_paths(self):
        model = jc_model()
        indefinite = mixed_state(model.modes, (1.2, -0.2),
                                 ("fock(0)*e", "fock(1)*g"))
        traj = integrate(model, indefinite, (0.0, 0.2), {"g": 1.3},
                         dt=0.01, n_samples=3)
        assert traj.meta["rhs"] == "hermitian" and "rank" not in traj.meta
        rho0 = build_initial(JC_MODES, "coherent(0.8)*e")
        eff, assignment = closed_model()
        traj = integrate(eff, rho0, (0.0, 0.2), assignment, dt=0.01,
                         n_samples=3)
        assert traj.meta["rhs"] == "hermitian" and "rank" not in traj.meta

    def test_coarse_step_is_refined_within_trace_tolerance(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "coherent(1)*e")
        n_samples, dt = 11, 0.2
        traj = integrate(model, rho0, (0.0, 200.0), {"g": 1.7}, dt=dt,
                         n_samples=n_samples)
        stride0 = math.ceil(20.0 / dt)
        assert traj.meta["rhs"] == "vector"
        assert traj.meta["stride"] > stride0
        assert traj.meta["steps"] > stride0 * (n_samples - 1)
        assert traj.meta["dt"] == 20.0 / traj.meta["stride"]
        traces = np.einsum("tii->t", traj.states).real
        assert np.max(np.abs(traces - 1.0)) <= simulate.TRACE_TOL

    @staticmethod
    def refined(scale, budget, norm0):
        """``_norm_refined`` over an interval that loses ``scale /
        count^2`` of a unit norm at ``count`` steps."""
        psi = np.full((4, 1), 0.5, dtype=complex)
        start = psi.copy()

        def advance(t0, dt, first, count):
            np.multiply(start, math.sqrt(1 - scale / count**2), out=psi)

        result = simulate._norm_refined(
            advance, psi, 0.0, 1.0, 1, 1, budget, norm0
        )
        return result, np.vdot(psi, psi).real

    def test_refinement_doubles_until_loss_fits_budget(self):
        # the run's drift is far outside TRACE_TOL / 2 at every stride
        (stride, taken, norm), final = self.refined(0.1, 1e-3, 1.0)
        assert (stride, taken) == (16, 1 + 2 + 4 + 8 + 16)
        assert norm == final and 1 - norm <= 1e-3

    @pytest.mark.parametrize(
        "norm0, stride",
        # the run's drift fits TRACE_TOL / 2 at once; with 4.5e-7 spent
        # by earlier intervals, after one doubling
        [(1.0, 1), (1.0 + 4.5e-7, 2)],
        ids=["unspent", "spent"],
    )
    def test_refinement_stops_when_run_drift_fits(self, norm0, stride):
        (got, taken, norm), final = self.refined(1e-7, 1e-9, norm0)
        assert (got, taken) == (stride, 2 * stride - 1)
        assert norm == final
        assert 1 - norm > 1e-9 and abs(norm - norm0) <= simulate.TRACE_TOL / 2

    def test_loss_that_does_not_shrink_raises(self):
        psi = np.full((4, 1), 0.5, dtype=complex)

        def advance(t0, dt, first, count):
            np.multiply(psi, 0.9, out=psi)

        with pytest.raises(NumericalGuardError, match="does not shrink"):
            simulate._norm_refined(advance, psi, 0.0, 1.0, 1, 1, 1e-3, 1.0)

    def test_states_exactly_hermitian(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "coherent(1)*e")
        traj = integrate(model, rho0, (0.0, 1.0), {"g": 1.3}, dt=0.01,
                         n_samples=6)
        assert traj.meta["rhs"] == "vector"
        for state in traj.states:
            assert np.array_equal(state, state.conj().T)

    def test_meta_counts_steps_on_every_path(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "coherent(1)*e")
        vector = integrate(model, rho0, (0.0, 1.0), {"g": 1.3}, dt=0.01,
                           n_samples=6)
        eff, assignment = closed_model()
        half = integrate(eff, rho0, (0.0, 1.0), assignment, dt=0.01,
                         n_samples=6)
        for traj in (vector, half):
            assert traj.meta["stride"] == 20
            assert traj.meta["steps"] == 20 * 5
        assert [t.meta["rhs"] for t in (vector, half)] == [
            "vector", "hermitian"
        ]
        assert vector.meta["rank"] == 1


def random_factors(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestFactoredTrajectory:
    """Trajectories held as factors F, sample n being ``F_n F_n^dagger``
    made exactly Hermitian: what the vector path stores."""

    def test_states_are_hermitian_outer_of_factors(self):
        factors = random_factors((4, 5, 2), 11)
        traj = Trajectory(np.arange(4) * 0.1, factors=factors)
        states = traj.states
        assert states.shape == (4, 5, 5) and traj.dim == 5
        for n, factor in enumerate(factors):
            expected = np.empty((5, 5), dtype=complex)
            simulate._hermitian_outer(factor, expected)
            assert np.array_equal(states[n], expected)
            assert np.array_equal(traj.state(n), expected)
        # built afresh on each access, never kept
        assert not np.shares_memory(traj.states, states)

    def test_vector_run_is_stored_as_its_state_vectors(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "coherent(1)*e")
        traj = integrate(model, rho0, (0.0, 1.0), {"g": 1.3}, dt=0.01,
                         n_samples=6)
        assert traj.factors.shape == (6, len(rho0), traj.meta["rank"])
        assert np.max(np.abs(traj.states[0] - rho0)) <= 1e-15
        psi0 = simulate._split(rho0)
        assert np.array_equal(traj.factors[0], psi0)

    @pytest.mark.parametrize("given", ["neither", "both"])
    def test_holds_states_or_factors(self, given):
        states = np.ones((2, 1, 1), dtype=complex)
        kwargs = {"factors": states} if given == "both" else {}
        with pytest.raises(ValueError, match="either states or factors"):
            Trajectory([0.0, 1.0], states if kwargs else None, **kwargs)

    def test_checks_grid_of_factors(self):
        with pytest.raises(ValueError, match="does not match grid"):
            Trajectory([0.0, 1.0], factors=np.ones((3, 2, 1)))

    def test_expectation_on_factors_equals_dense_product(self):
        obs = ObservableSpec(operator_sum(JC_MODES, "a'*a", "a*sp", "sz"), "o")
        factors = random_factors((7, 12, 3), 12)
        traj = Trajectory(np.arange(7) * 0.1, factors=factors)
        dense = Trajectory(traj.times, traj.states)
        series = expectation_series(traj, obs)
        ref = expectation_series(dense, obs)
        assert np.max(np.abs(series - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rate_decomposition_on_vector_run_equals_dense_copy(self):
        # a drive at +/-w: dH/dt does not commute with H
        eff = lindblad_model(
            JC_MODES,
            [
                (0.6 + 0.2j, "w", operator_sum(JC_MODES, "a'", "sp")),
                (0.6 - 0.2j, "-w", operator_sum(JC_MODES, "a", "sm")),
                (1.1, "0", parse_operator("sz", JC_MODES)),
            ],
            [],
        )
        assignment = {"w": 2.9}
        rho0 = build_initial(JC_MODES, "coherent(0.8)*e")
        traj = integrate(eff, rho0, (0.0, 0.5), assignment, dt=0.01,
                         n_samples=6)
        assert traj.factors is not None
        dense = Trajectory(traj.times, traj.states, traj.meta)
        inert, dynam, ok = rate_decomposition(eff, traj, assignment)
        assert ok.all() and np.min(np.abs(inert)) > 0
        for got, ref in zip(
            (inert, dynam, ok), rate_decomposition(eff, dense, assignment)
        ):
            assert np.array_equal(got, ref)

    def test_vector_run_stores_no_dense_states(self):
        # d = 200, rank 1: the factors take N * d * 16 bytes where dense
        # states took N * d^2 * 16 (62 MiB here)
        model, assignment = rabi_exact(100)
        rho0 = build_initial(model.modes, "coherent(2)*e")
        n_samples = 101
        tracemalloc.start()
        try:
            traj = integrate(model, rho0, (0.0, 0.1e-9), assignment,
                             n_samples=n_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_samples * 200**2 * 16 / 4
        assert traj.factors.shape == (n_samples, 200, 1)


class TestDerivedModels:
    """Derived models whose conjugate operators' matrices are not each
    other's adjoints to the last bit, and a ramped model with
    time-dependent coefficients, all take the paired right-hand sides."""

    @pytest.mark.parametrize("order, path", [(1, "vector"), (2, "hermitian")])
    def test_duffing_matches_dense_rk4(self, order, path):
        model = load_model(duffing(20))
        assignment = model.numeric_assignment()
        eff = assemble(model, order)
        # column 0 of |psi><psi| is psi times the real <0|psi>
        psi0 = build_initial(model.modes, "coherent(1.5)")[:, 0]
        psi0 = psi0 / np.linalg.norm(psi0)
        rho0 = np.outer(psi0, psi0.conj())
        traj = integrate(eff, rho0, (0.0, 0.01e-9), assignment, n_samples=2)
        assert traj.meta["rhs"] == path
        stride, dt = traj.meta["stride"], traj.meta["dt"]
        assert traj.meta["steps"] == stride
        start = psi0 if path == "vector" else rho0
        expected = dense_rk4(eff, assignment, start, 2, stride, dt)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(traj.states - expected)) <= 1e-12 * scale

    def test_stored_ramped_model_takes_vector_path(self):
        eff = load_effective(
            (TEST_DATA / "parametron_order1.json").read_text()
        )
        assert any(TIME in t.coeff.free_symbols for t in eff.hamiltonian)
        rho0 = build_initial(eff.modes, "coherent(1)")
        span = (0.0, 0.5e-9)
        traj = integrate(eff, rho0, span, eff.params, n_samples=11)
        assert (traj.meta["rhs"], traj.meta["rank"]) == ("vector", 1)
        fine = integrate(eff, rho0, span, eff.params,
                         dt=traj.meta["dt"] / 16, n_samples=11)
        assert np.max(np.abs(traj.states - fine.states)) < 1e-9


class TestOperatorProducts:
    """One jump term ``L x 1`` or ``1 x J`` through the jump table, which
    adds the upper triangle of the product, diagonal halved."""

    @staticmethod
    def products(mat, x):
        one = coo(np.eye(len(mat)))
        out = []
        for jump in ((coo(mat), one, 0), (one, coo(mat), 0)):
            prod = np.zeros_like(x)
            _jump_table([jump], len(mat))(np.ones(1, dtype=complex), x, prod)
            out.append(prod)
        return out

    @pytest.mark.parametrize("text", ["a'^2*a*sp", "a^3*sm", "a'*a*t(e,e)"])
    def test_monomial_gather_equals_dense_product(self, text):
        # a monomial gives each entry from one non-zero product, as the
        # dense product does, so the two agree to the last bit
        mat = parse_operator(text, JC_MODES).matrix()
        rng = np.random.default_rng(3)
        x = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
        left, right = self.products(mat, x)
        assert np.array_equal(left, upper_half(mat @ x))
        assert np.array_equal(right, upper_half(x @ mat))

    def test_operator_sum_matches_dense_product(self):
        mat = (
            parse_operator("a", JC_MODES).matrix()
            + parse_operator("a'*sp", JC_MODES).matrix()
        )
        rng = np.random.default_rng(4)
        x = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
        left, right = self.products(mat, x)
        assert np.allclose(left, upper_half(mat @ x), rtol=0, atol=1e-12)
        assert np.allclose(right, upper_half(x @ mat), rtol=0, atol=1e-12)


class TestCoarseGrain:
    def test_constant_unchanged(self):
        times = np.linspace(-3, 3, 601)
        states = np.ones((601, 1, 1), dtype=complex) * 0.5
        out = coarse_grain_trajectory(Trajectory(times, states, {}), 0.2)
        assert np.allclose(out.states, 0.5)

    def test_phasor_maps_to_filtered_phasor(self):
        tau, w = 0.5, 2.0
        dt = 0.005
        times = np.arange(-4.0, 4.0 + dt / 2, dt)
        states = np.exp(-1j * w * times)[:, None, None]
        out = coarse_grain_trajectory(Trajectory(times, states, {}), tau)
        ref = math.exp(-(w**2) * tau**2 / 2) * np.exp(-1j * w * out.times)
        assert np.max(np.abs(out.states[:, 0, 0] - ref)) < 2e-6

    @pytest.mark.parametrize("tau", [0.0, -1e-12, math.nan, math.inf])
    def test_rejects_bad_width(self, tau):
        times = np.linspace(0, 1, 11)
        states = np.ones((11, 1, 1), dtype=complex)
        with pytest.raises(ValueError, match="finite and > 0"):
            coarse_grain_trajectory(Trajectory(times, states, {}), tau)

    @pytest.mark.parametrize(
        "case", ["matrix", "series", "view", "factors", "wide factors"]
    )
    def test_matches_plain_weighted_sum(self, case):
        rng = np.random.default_rng(6)
        times = np.arange(70) * 0.1
        if case.endswith("factors"):
            # 61 taps: K * r = 61 < d = 64 stays factored, 61 * 2 >= 6 not
            dim, rank = (64, 1) if case == "factors" else (6, 2)
            factors = rng.normal(size=(70, dim, rank)) + 1j * rng.normal(
                size=(70, dim, rank)
            )
            traj = Trajectory(times, factors=factors)
            states = traj.states
        else:
            dim = {"matrix": 3, "series": 1, "view": 6}[case]
            states = rng.normal(size=(70, dim, dim)) + 1j * rng.normal(
                size=(70, dim, dim)
            )
            if case == "view":
                states = states[:, ::2, 1::2].transpose(0, 2, 1)
                assert not states.flags.c_contiguous
            traj = Trajectory(times, states, {})
        tau = 0.6
        kernel = simulate._gaussian_kernel(traj.dt, tau)
        n_out = len(states) - len(kernel) + 1
        plain = np.zeros((n_out,) + states.shape[1:], dtype=complex)
        for offset, weight in enumerate(kernel):
            plain += weight * states[offset : offset + n_out]
        out = coarse_grain_trajectory(traj, tau)
        assert (out.factors is not None) == (case == "factors")
        assert out.states.shape == plain.shape
        assert np.max(np.abs(out.states - plain)) <= 1e-14 * np.max(
            np.abs(plain)
        )

    def test_rejects_non_uniform_grid(self):
        times = np.concatenate(
            (np.arange(50) * 0.02, 0.98 + np.arange(1, 51) * 0.18)
        )
        states = np.ones((100, 1, 1), dtype=complex)
        with pytest.raises(ValueError, match="not uniform"):
            coarse_grain_trajectory(Trajectory(times, states, {}), 0.05)

    def test_rejects_single_sample(self):
        traj = Trajectory([0.0], np.ones((1, 2, 2), dtype=complex), {})
        with pytest.raises(ValueError, match="at least 2 samples"):
            coarse_grain_trajectory(traj, 0.1)

    def test_margin_error(self):
        times = np.linspace(0, 0.1, 11)
        states = np.ones((11, 1, 1), dtype=complex)
        with pytest.raises(ValueError, match="margin|support|pad"):
            coarse_grain_trajectory(Trajectory(times, states, {}), 5.0)

    def test_commutes_with_expectation(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "coherent(1)*g")
        traj = integrate(model, rho0, (0.0, 4.0), {"g": 2.0}, dt=0.002)
        tau = 0.1
        obs = ObservableSpec.parse("a'*a", model.modes)
        averaged = coarse_grain_trajectory(traj, tau)
        series_then_avg = coarse_grain_trajectory(
            Trajectory(
                traj.times,
                expectation_series(traj, obs)[:, None, None],
                {},
            ),
            tau,
        ).states[:, 0, 0]
        avg_then_series = expectation_series(averaged, obs)
        assert np.max(np.abs(series_then_avg - avg_then_series)) < 1e-10


class TestSeriesTools:
    def test_identity_trace(self):
        model = jc_model()
        rho0 = build_initial(model.modes, "fock(2)*g")
        traj = integrate(model, rho0, (0.0, 1.0), {"g": 1.0}, dt=0.01)
        ones = expectation_series(traj, ObservableSpec.parse("1", model.modes))
        assert np.allclose(ones.real, 1.0, atol=1e-9)

    def test_expectation_matches_trace_per_sample(self):
        obs = ObservableSpec(operator_sum(JC_MODES, "a'*a", "a*sp", "sz"), "o")
        matrix = obs.op.matrix()
        states = np.array([random_matrix(12, seed) for seed in range(7)])
        traj = Trajectory(np.arange(7) * 0.1, states, {})
        series = expectation_series(traj, obs)
        for value, rho in zip(series, states):
            ref = np.trace(matrix @ rho)
            assert abs(value - ref) <= 1e-14 * np.max(np.abs(matrix @ rho))

    def test_compare_identical(self):
        a = np.sin(np.linspace(0, 5, 100))
        metrics = compare_series(a, a)
        assert metrics == {"rms": 0.0, "max_abs": 0.0, "normalized_rms": 0.0}

    def test_compare_offset(self):
        a = np.sin(np.linspace(0, 5, 100))
        metrics = compare_series(a, a + 0.25)
        assert metrics["rms"] == pytest.approx(0.25)
        assert metrics["max_abs"] == pytest.approx(0.25)

    def test_compare_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare_series(np.zeros(3), np.zeros(4))


class TestRateDecomposition:
    def test_dynamical_rate_vanishes_without_dissipators(self):
        model = jc_model()
        eff = effective_from(model)
        rho0 = build_initial(model.modes, "fock(1)*g")
        traj = integrate(eff, rho0, (0.0, 2.0), {"g": 1.0}, dt=0.005)
        inert, dynam, ok = rate_decomposition(eff, traj, {"g": 1.0})
        assert ok.any()
        assert np.allclose(dynam[ok], 0.0, atol=1e-12)

    def test_eigenstate_commutator_blind(self):
        # the decomposition only sees dH/dt and the dissipators: for a
        # static Hamiltonian starting in an eigenstate both rates vanish
        model = jc_model()
        eff = effective_from(model)
        assignment = {"g": 1.0}
        h = sum(
            complex(term.coeff.subs({s: 1.0 for s in term.coeff.free_symbols}))
            * term.op.matrix()
            for term in eff.hamiltonian
        )
        vals, vecs = np.linalg.eigh(h)
        ground = vecs[:, 0]
        rho0 = np.outer(ground, ground.conj())
        traj = integrate(eff, rho0, (0.0, 1.0), assignment, dt=0.005)
        inert, dynam, ok = rate_decomposition(eff, traj, assignment)
        assert np.max(np.abs(inert[ok])) < 1e-9
        assert np.max(np.abs(dynam[ok])) < 1e-12

    def test_inertial_rate_matches_level_loop(self):
        # a drive at +/-w on both modes: dH/dt does not commute with H
        eff = lindblad_model(
            JC_MODES,
            [
                (0.6 + 0.2j, "w", operator_sum(JC_MODES, "a'", "sp")),
                (0.6 - 0.2j, "-w", operator_sum(JC_MODES, "a", "sm")),
                (1.1, "0", parse_operator("sz", JC_MODES)),
                (0.9, "0", parse_operator("a'*a", JC_MODES)),
            ],
            [],
        )
        assignment = {"w": 2.9}
        ham, _, _, dim = _realize(eff, assignment)
        times = np.linspace(0.5, 0.9, 5)
        states = np.array([random_density(dim, i) for i in range(5)])
        traj = Trajectory(times, states, {})
        inert, _, ok = rate_decomposition(eff, traj, assignment)
        assert ok.all()
        dt = traj.dt
        ref = np.zeros(len(times))
        for i, (t, rho) in enumerate(zip(times, states)):
            vals, vecs = np.linalg.eigh(simulate._hamiltonian_at(ham, dim, t))
            ground = vecs[:, 0]
            hdot = (
                simulate._hamiltonian_at(ham, dim, t + dt / 2)
                - simulate._hamiltonian_at(ham, dim, t - dt / 2)
            ) / dt
            for level in range(1, len(vals)):
                vn = vecs[:, level]
                num = vn.conj() @ hdot @ ground
                ref[i] += (
                    num / (vals[0] - vals[level]) * (ground.conj() @ rho @ vn)
                ).real * 2
        assert np.min(np.abs(ref)) > 1e-3
        assert np.max(np.abs(inert - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["narrow", "wide"])
    def test_dynamical_rate_matches_dense_formula(self, case):
        eff, assignment = generator_case(case)
        ham, _, _, dim = _realize(eff, assignment)
        times = np.linspace(0.5, 0.9, 5)
        states = np.array([random_density(dim, i) for i in range(5)])
        traj = Trajectory(times, states, {})
        _, dynam, ok = rate_decomposition(eff, traj, assignment)
        assert ok.all()
        for t, rho, value in zip(times, states, dynam):
            h = sum(
                coefficient_at(term.coeff, term.freq, assignment, t)
                * term.op.matrix(assignment)
                for term in eff.hamiltonian
            )
            ground = np.linalg.eigh(h)[1][:, 0]
            drho = dense_rhs(eff, assignment, t, rho, hamiltonian=False)
            ref = (ground.conj() @ drho @ ground).real
            assert value == pytest.approx(ref, rel=1e-12, abs=1e-14)
