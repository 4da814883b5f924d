"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package and prints a single
PASS/FAIL line with the measured figure of merit.  Opt-in extras carry the
``slow`` / ``stretch`` markers and are excluded by default.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from stcg.contraction import (
    FrequencyTuple,
    bubble_factor_oracle,
    contraction_coefficient,
    symmetry_check,
)
from stcg.diagrams import count_diagrams, enumerate_diagrams
from stcg.model import (
    EffectiveModel,
    assemble,
    effective_dissipators,
    effective_hamiltonian,
    ir_limit,
    load_model,
    prune_terms,
)
from stcg.operators import parse_operator
from stcg.presets import get_preset
from stcg.simulate import (
    ObservableSpec,
    Trajectory,
    build_initial,
    coarse_grain_trajectory,
    compare_series,
    expectation_series,
    integrate,
    rate_decomposition,
)
from stcg.symbols import (
    TAU,
    TIME,
    FreqExpr,
    GaussianFilter,
    freq_symbol,
    scalar_eval,
)

NS = 1e-9


def _verdict(tag: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. closed-form weight-1 and weight-2 coefficients
# ---------------------------------------------------------------------------


def test_01_closed_form_coefficients():
    start = time.perf_counter()
    filt = GaussianFilter()
    w1, w2 = FreqExpr.symbol("w1"), FreqExpr.symbol("w2")
    c10 = contraction_coefficient(FrequencyTuple((w1,), ()), filt)
    # argument order (w2, w1) puts w2 in the denominator slot
    c20 = contraction_coefficient(FrequencyTuple((w2, w1), ()), filt)
    c11 = contraction_coefficient(FrequencyTuple((w1,), (w2,)), filt)

    s1, s2 = freq_symbol("w1"), freq_symbol("w2")

    def f(x):
        return sp.exp(-(x**2) * TAU**2 / 2)

    ref20 = (f(s1 + s2) - f(s1) * f(s2)) / s2
    fn = sp.lambdify(
        (s1, s2, TAU), [c10, c20, c11, f(s1), ref20], modules="numpy"
    )
    rng = random.Random(101)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.2, 3.0)
        b = rng.uniform(0.2, 3.0)
        tv = rng.uniform(0.1, 1.5)
        v10, v20, v11, r10, r20 = fn(a, b, tv)
        worst = max(
            worst,
            abs(v10 - r10) / abs(r10),
            abs(v20 - r20) / abs(r20),
            abs(v11 + r20) / abs(r20),
        )
    elapsed = time.perf_counter() - start
    _verdict(
        "1 closed-form coefficients",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. diagram census through weight 2
# ---------------------------------------------------------------------------


def test_02_diagram_census():
    total = count_diagrams(1, 0) + count_diagrams(2, 0) + count_diagrams(1, 1)
    listed = (
        len(enumerate_diagrams(1, 0))
        + len(enumerate_diagrams(2, 0))
        + len(enumerate_diagrams(1, 1))
    )
    _verdict(
        "2 diagram census",
        total == 5 and listed == 5,
        f"count {total}, enumerated {listed}",
    )


# ---------------------------------------------------------------------------
# 3. two-level + cavity model, complete second-order coefficient table
# ---------------------------------------------------------------------------

_DETUNED_DOC = {
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


def _detuned_references():
    """Hand-coded second-order coefficient table for the detuned model."""
    wa, wc, g = freq_symbol("wa"), freq_symbol("wc"), sp.Symbol("g", real=True)
    E = sp.exp
    t2 = TAU**2

    def f(x):
        return E(-(x**2) * t2 / 2)

    bracket = (1 - E(-((wa - wc) ** 2) * t2)) / (wa - wc) + (
        1 - E(-((wa + wc) ** 2) * t2)
    ) / (wa + wc)
    cr = (
        g**2
        / 4
        * (E(-2 * wc**2 * t2) - E(-(wa**2 + wc**2) * t2))
        * wa
        / (wa**2 - wc**2)
    )
    ham = {
        "wc+wa": [("a*sm", g / 2 * f(wa + wc))],
        "-wc-wa": [("a'*sp", g / 2 * f(wa + wc))],
        "wc-wa": [("a*sp", g / 2 * f(wa - wc))],
        "wa-wc": [("a'*sm", g / 2 * f(wa - wc))],
        "0": [("sz", g**2 / 8 * bracket), ("a'*a*sz", g**2 / 4 * bracket)],
        "2*wc": [("a^2*sz", cr)],
        "-2*wc": [("a'^2*sz", cr)],
    }
    r1 = (
        -sp.I
        * g**2
        / 2
        * (E(-((wa - wc) ** 2) * t2) - E(-2 * (wa - wc) ** 2 * t2))
        / (wa - wc)
    )
    r2 = (
        -sp.I
        * g**2
        / 2
        * (E(-2 * wc**2 * t2) - E(-(wa**2 + wc**2) * t2))
        * wc
        / (wa**2 - wc**2)
    )
    r3 = (
        -sp.I
        * g**2
        / 2
        * (E(-2 * wa**2 * t2) - E(-(wa**2 + wc**2) * t2))
        * wa
        / (wc**2 - wa**2)
    )
    r4 = (
        -sp.I
        * g**2
        / 2
        * (E(-((wa + wc) ** 2) * t2) - E(-2 * (wa + wc) ** 2 * t2))
        / (wa + wc)
    )
    conj = sp.conjugate
    dis = [
        ("a'*sm", "a'*sm", "2*wa-2*wc", r1),
        ("a*sm", "a*sp", "2*wc", r2),
        ("a*sp", "a*sm", "2*wc", r2),
        ("a*sm", "a'*sm", "2*wa", r3),
        ("a'*sm", "a*sm", "2*wa", r3),
        ("a*sm", "a*sm", "2*wa+2*wc", r4),
        ("a*sp", "a*sp", "2*wc-2*wa", conj(r1)),
        ("a'*sm", "a'*sp", "-2*wc", conj(r2)),
        ("a'*sp", "a'*sm", "-2*wc", conj(r2)),
        ("a*sp", "a'*sp", "-2*wa", conj(r3)),
        ("a'*sp", "a*sp", "-2*wa", conj(r3)),
        ("a'*sp", "a'*sp", "-2*wa-2*wc", conj(r4)),
    ]
    return ham, dis


def _random_detuned_points(n, seed):
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        wa = rng.uniform(0.6, 2.8)
        wc = rng.uniform(0.5, 2.5)
        if abs(wa - wc) < 0.15:
            continue
        points.append(
            (wa, wc, rng.uniform(0.1, 1.0), rng.uniform(0.2, 1.2))
        )
    return points


def test_03_second_order_coefficient_table():
    start = time.perf_counter()
    model = load_model(_DETUNED_DOC)
    eff = assemble(model, 2)
    ref_ham, ref_dis = _detuned_references()
    syms = (
        freq_symbol("wa"),
        freq_symbol("wc"),
        sp.Symbol("g", real=True),
        TAU,
    )
    points = _random_detuned_points(50, 7)
    worst = 0.0

    # Hamiltonian: compare assembled matrices per oscillation frequency
    groups: dict = {}
    for term in eff.hamiltonian:
        fn = sp.lambdify(syms, term.coeff, modules="numpy")
        groups.setdefault(term.freq, []).append((fn, term.op.matrix()))
    ref_groups = {}
    for freq_text, entries in ref_ham.items():
        ref_groups[FreqExpr.parse(freq_text)] = [
            (sp.lambdify(syms, coeff, modules="numpy"),
             parse_operator(op, model.modes).matrix())
            for op, coeff in entries
        ]
    assert set(groups) == set(ref_groups), (
        sorted(map(str, groups)), sorted(map(str, ref_groups)))
    zero = FreqExpr.zero()
    for freq, entries in groups.items():
        for point in points:
            got = sum(fn(*point) * mat for fn, mat in entries)
            want = sum(fn(*point) * mat for fn, mat in ref_groups[freq])
            if freq == zero:
                # a global (identity) energy offset is unobservable; the
                # reference convention drops it while the engine keeps it
                dim = got.shape[0]
                got = got - np.trace(got) / dim * np.eye(dim)
                want = want - np.trace(want) / dim * np.eye(dim)
            scale = max(np.max(np.abs(want)), 1e-30)
            worst = max(worst, np.max(np.abs(got - want)) / scale)

    # Dissipators: one-to-one match of (left, right, frequency) and rates
    live = [
        term
        for term in eff.dissipators
        if abs(complex(sp.lambdify(syms, term.rate)(*points[0]))) > 1e-14
    ]
    matched = 0
    for left_text, right_text, freq_text, rate in ref_dis:
        left = parse_operator(left_text, model.modes)
        right = parse_operator(right_text, model.modes)
        freq = FreqExpr.parse(freq_text)
        hits = [
            term
            for term in live
            if term.freq == freq and term.left == left and term.right == right
        ]
        assert len(hits) == 1, (left_text, right_text, freq_text, len(hits))
        matched += 1
        got_fn = sp.lambdify(syms, hits[0].rate, modules="numpy")
        want_fn = sp.lambdify(syms, rate, modules="numpy")
        for point in points:
            got, want = complex(got_fn(*point)), complex(want_fn(*point))
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    elapsed = time.perf_counter() - start
    _verdict(
        "3 second-order coefficient table",
        matched == len(live) == 12 and worst <= 1e-9 and elapsed < 10.0,
        f"{matched} dissipators, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. raw time-average oracle vs closed form, weight <= 3
# ---------------------------------------------------------------------------


def _draw_tuple(rng, left, right):
    """Random frequencies with every contiguous partial sum away from zero."""
    while True:
        values = [
            rng.choice([-1, 1]) * rng.uniform(0.3, 2.0)
            for _ in range(left + right)
        ]
        mu, nu = values[:left], values[left:]
        ok = True
        for seq in (mu, nu):
            for i in range(len(seq)):
                for j in range(i, len(seq)):
                    if abs(sum(seq[i : j + 1])) < 0.08:
                        ok = False
        if abs(sum(values)) < 0.08:
            ok = False
        if ok:
            return mu, nu


def test_04_oracle_equivalence():
    start = time.perf_counter()
    filt = GaussianFilter()
    rng = random.Random(23)
    names = ["u1", "u2", "u3"]
    syms = [freq_symbol(n) for n in names]
    fes = [FreqExpr.symbol(n) for n in names]
    checked = 0
    worst_amp = 0.0
    worst_res = 0.0
    for left, right in [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (1, 2)]:
        freqs = FrequencyTuple(
            tuple(fes[:left]), tuple(fes[left : left + right])
        )
        closed = sp.lambdify(
            (*syms[: left + right], TAU),
            contraction_coefficient(freqs, filt),
            modules="numpy",
        )
        for _ in range(10):
            mu, nu = _draw_tuple(rng, left, right)
            tau = rng.uniform(0.3, 1.0)
            amp, residual = bubble_factor_oracle(mu, nu, tau)
            want = complex(closed(*mu, *nu, tau))
            worst_amp = max(
                worst_amp, abs(amp - want) / max(abs(want), 1e-30)
            )
            worst_res = max(worst_res, residual)
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "4 oracle equivalence",
        checked >= 50
        and worst_amp <= 1e-9
        and worst_res <= 1e-9
        and elapsed < 60.0,
        f"{checked} tuples, amp err {worst_amp:.2e}, "
        f"residual {worst_res:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. structural properties: trace, Hermiticity, coefficient symmetries
# ---------------------------------------------------------------------------

_POOL = ["w1", "-w1", "2*w1", "-2*w1"]
_NEG = {"w1": "-w1", "-w1": "w1", "2*w1": "-2*w1", "-2*w1": "2*w1"}
_OPS = ["a", "a^2", "a'*a"]
_ADJ = {"a": "a'", "a^2": "a'^2", "a'*a": "a'*a"}


def _random_model_doc(rng, index):
    terms = []
    symbols = {"w1": None}
    for j in range(rng.randint(1, 2)):
        cname = f"c{j}"
        symbols[cname] = None
        freq = rng.choice(_POOL)
        op = rng.choice(_OPS)
        terms.append(
            {"coupling": f"{cname}/2", "frequency": freq, "operator": op}
        )
        terms.append(
            {
                "coupling": f"{cname}/2",
                "frequency": _NEG[freq],
                "operator": _ADJ[op],
            }
        )
    return {
        "name": f"random-{index}",
        "modes": [{"name": "a", "kind": "bosonic", "truncation": 3}],
        "symbols": symbols,
        "terms": terms,
    }


def _apply_generator(eff, assignment, rho, t):
    dim = rho.shape[0]
    h = np.zeros((dim, dim), dtype=complex)
    for term in eff.hamiltonian:
        c = scalar_eval(term.coeff, assignment)
        phase = np.exp(-1j * term.freq.evaluate(assignment) * t)
        h += c * phase * term.op.matrix()
    drho = -1j * (h @ rho - rho @ h)
    for term in eff.dissipators:
        c = scalar_eval(term.rate, assignment)
        c *= np.exp(-1j * term.freq.evaluate(assignment) * t)
        lmat = term.left.matrix()
        jmat = term.right.matrix()
        jl = jmat @ lmat
        drho += c * (lmat @ rho @ jmat - 0.5 * (jl @ rho + rho @ jl))
    return drho


def test_05_structural_properties():
    start = time.perf_counter()
    filt = GaussianFilter()
    rng = random.Random(5)

    # coefficient symmetries, all weights up to 4, 100 numeric points total
    names = ["q1", "q2", "q3", "q4"]
    fes = [FreqExpr.symbol(n) for n in names]
    worst_sym = 0.0
    weights = [
        (left, right)
        for total in range(1, 5)
        for left in range(1, total + 1)
        for right in [total - left]
    ]
    for left, right in weights:
        freqs = FrequencyTuple(
            tuple(fes[:left]), tuple(fes[left : left + right])
        )
        for _ in range(10):
            point = {
                n: rng.choice([-1, 1]) * rng.uniform(0.3, 2.0) for n in names
            }
            point["tau"] = rng.uniform(0.2, 1.0)
            residuals = symmetry_check(freqs, filt, point)
            worst_sym = max(worst_sym, *residuals.values())

    # random driven single-mode models, orders 1..3
    worst_trace = 0.0
    worst_herm = 0.0
    for index in range(20):
        model = load_model(_random_model_doc(rng, index))
        eff = assemble(model, [1, 2, 3][index % 3])
        assignment = {
            name: rng.uniform(0.5, 1.5) for name in model.params
        }
        assignment["tau"] = 0.35
        raw = np.array(
            [
                [
                    complex(rng.gauss(0, 1), rng.gauss(0, 1))
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
        )
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        t = rng.uniform(0.0, 3.0)
        drho = _apply_generator(eff, assignment, rho, t)
        worst_trace = max(worst_trace, abs(np.trace(drho)))
        worst_herm = max(worst_herm, np.max(np.abs(drho - drho.conj().T)))
    elapsed = time.perf_counter() - start
    _verdict(
        "5 structural properties",
        worst_trace <= 1e-10
        and worst_herm <= 1e-10
        and worst_sym <= 1e-10
        and elapsed < 120.0,
        f"trace {worst_trace:.2e}, herm {worst_herm:.2e}, "
        f"symmetry {worst_sym:.2e}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. resonant cavity-qubit dynamics: order 3 beats order 1
# ---------------------------------------------------------------------------


def _purity(traj):
    """tr rho^2 of every stored state (each rho is Hermitian)."""
    flat = traj.states.reshape(len(traj.states), -1)
    return np.einsum("ij,ij->i", flat.conj(), flat).real


def _rabi_error_comparison(
    truncation, alpha, window_ns, sample_ns, dt_tcg=None,
    hamiltonian_only=False,
):
    """Normalized RMS error of t(e,e) against the coarse-grained exact run
    for the order-1 and order-3 generators, and, with ``hamiltonian_only``,
    for the order-3 generator without its dissipators.  Each entry is
    ``(error, RMS of tr rho^2 against the exact run's, final tr rho^2)``;
    the exact run's final tr rho^2 is under ``"exact"``."""
    doc = get_preset("rabi")
    doc["modes"][0]["truncation"] = truncation
    model = load_model(doc)
    assignment = model.numeric_assignment()
    tau = float(model.filter_spec.tau)
    eff1 = assemble(model, 1)
    eff3 = assemble(model, 3)
    if truncation > 50:
        eff3 = prune_terms(
            eff3, 1e3, dict(assignment, tau=tau), (0.0, window_ns * NS)
        )

    rho0 = build_initial(model.modes, f"coherent({alpha})*e")
    obs = ObservableSpec.parse("t(e,e)", model.modes)
    ds = sample_ns * NS
    n_inner = round(window_ns * NS / ds) + 1
    margin = int(math.ceil(5 * tau / ds))
    exact = integrate(
        model,
        rho0,
        (-margin * ds, window_ns * NS + margin * ds),
        assignment,
        n_samples=n_inner + 2 * margin,
    )
    smoothed = coarse_grain_trajectory(exact, tau)
    assert np.allclose(
        smoothed.times, np.linspace(0.0, window_ns * NS, n_inner), atol=1e-15
    )
    ref = expectation_series(smoothed, obs).real
    ref_purity = _purity(smoothed)
    runs = {"order1": eff1, "order3": eff3}
    if hamiltonian_only:
        runs["hamiltonian"] = replace(eff3, dissipators=())
    results = {"exact": ref_purity[-1]}
    # like with like: the effective runs start from the coarse-grained
    # exact state at t = 0, the state their dynamics describes
    for label, eff in runs.items():
        traj = integrate(
            eff,
            smoothed.states[0],
            (0.0, window_ns * NS),
            assignment,
            dt=dt_tcg,
            n_samples=n_inner,
        )
        pe = expectation_series(traj, obs).real
        purity = _purity(traj)
        results[label] = (
            compare_series(ref, pe)["normalized_rms"],
            float(np.sqrt(np.mean((purity - ref_purity) ** 2))),
            purity[-1],
        )
    return results


def test_06_dynamics_order3_beats_order1():
    start = time.perf_counter()
    runs = _rabi_error_comparison(30, 2.0, 15.0, 0.03, hamiltonian_only=True)
    elapsed = time.perf_counter() - start
    err1, err3 = runs["order1"][0], runs["order3"][0]
    _verdict(
        "6 dynamics accuracy ordering",
        err3 < 0.01 and 10 * err3 < err1 and elapsed < 300.0,
        f"order-3 err {err3:.3e} < 0.01 and < order-1 err {err1:.3e} / 10, "
        f"{elapsed:.0f}s",
    )
    # The headline claim: the pseudo-dissipators matter.  Without them the
    # order-3 run tracks neither t(e,e) nor the purity of the coarse-grained
    # exact state as well.
    errh, purity_h, final_h = runs["hamiltonian"]
    _, purity_3, final_3 = runs["order3"]
    _verdict(
        "6 dissipators matter",
        2 * err3 < errh and 2 * purity_3 < purity_h,
        f"t(e,e) err {err3:.3e} vs {errh:.3e} without dissipators; "
        f"purity rms {purity_3:.2e} vs {purity_h:.2e}; final tr rho^2 "
        f"{final_3:.4f} and {final_h:.4f}, exact {runs['exact']:.4f}",
    )


@pytest.mark.slow
def test_06b_dynamics_full_scale():
    start = time.perf_counter()
    runs = _rabi_error_comparison(100, 4.5, 35.0, 0.07, dt_tcg=0.035 * NS)
    err1, err3 = runs["order1"][0], runs["order3"][0]
    elapsed = time.perf_counter() - start
    _verdict(
        "6b dynamics accuracy ordering (full scale)",
        2 * err3 < err1 and elapsed < 1800.0,
        f"order-3 err {err3:.3e} < order-1 err {err1:.3e} / 2, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. driven Kerr oscillator, exact third-order static coefficients
# ---------------------------------------------------------------------------


def test_07_kerr_third_order_exact():
    start = time.perf_counter()
    model = load_model(get_preset("duffing"))
    model.filter_spec = GaussianFilter()  # symbolic width for the deep limit
    ham = effective_hamiltonian(model, 3)
    w = freq_symbol("w")
    g4 = sp.Symbol("g4", real=True)
    targets = {
        "a'^4*a^4": 60 / w**2,
        "a'^3*a^3": 480 / w**2,
    }
    results = {}
    for text, want in targets.items():
        op = parse_operator(text, model.modes)
        terms = [
            term
            for term in ham
            if term.freq == FreqExpr.zero() and term.op == op
        ]
        assert len(terms) == 1, text
        got = ir_limit(terms[0].coeff).coeff(g4, 3)
        results[text] = sp.simplify(got - want) == 0
    elapsed = time.perf_counter() - start
    _verdict(
        "7 Kerr third-order exact coefficients",
        all(results.values()) and elapsed < 300.0,
        f"{results}, {elapsed:.0f}s",
    )


@pytest.mark.stretch
def test_07b_kerr_fourth_order_exact():
    start = time.perf_counter()
    model = load_model(get_preset("duffing"))
    model.filter_spec = GaussianFilter()
    ham = effective_hamiltonian(model, 4)
    w = freq_symbol("w")
    g4 = sp.Symbol("g4", real=True)
    op = parse_operator("a'^5*a^5", model.modes)
    terms = [
        term for term in ham if term.freq == FreqExpr.zero() and term.op == op
    ]
    assert len(terms) == 1
    got = ir_limit(terms[0].coeff).coeff(g4, 4)
    ok = sp.simplify(got - sp.Rational(-42756, 125) / w**3) == 0
    elapsed = time.perf_counter() - start
    _verdict(
        "7b Kerr fourth-order exact coefficient",
        ok and elapsed < 3600.0,
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. ramped pump: rate split properties, exact ramp rate (stretch)
# ---------------------------------------------------------------------------


def test_08_rate_split_properties():
    start = time.perf_counter()
    model = load_model(get_preset("rabi"))
    eff = assemble(model, 1)
    assert not eff.dissipators
    assignment = model.numeric_assignment()
    rho0 = build_initial(model.modes, "fock(1)*g")
    traj = integrate(
        eff, rho0, (0.0, 2.0 * NS), assignment, n_samples=51
    )
    inert, dynam, ok = rate_decomposition(eff, traj, assignment)
    no_dissipator_rate = np.max(np.abs(dynam[ok])) if ok.any() else 0.0

    # static generator + eigenstate start: both split components vanish
    static = EffectiveModel(
        order=1,
        modes=eff.modes,
        hamiltonian=tuple(
            term for term in eff.hamiltonian if term.freq == FreqExpr.zero()
        ),
        dissipators=(),
    )
    h = sum(
        complex(scalar_eval(term.coeff, assignment)) * term.op.matrix()
        for term in static.hamiltonian
    )
    vals, vecs = np.linalg.eigh(h)
    ground = vecs[:, 0]
    rho_g = np.outer(ground, ground.conj())
    traj_g = integrate(
        static, rho_g, (0.0, 1.0 * NS), assignment, n_samples=21
    )
    inert_g, dynam_g, ok_g = rate_decomposition(static, traj_g, assignment)
    commutator_rate = (
        np.max(np.abs(inert_g[ok_g])) if ok_g.any() else 0.0
    )
    elapsed = time.perf_counter() - start
    _verdict(
        "8 rate-split properties",
        ok.any()
        and no_dissipator_rate == 0.0
        and commutator_rate == 0.0
        and elapsed < 120.0,
        f"dissipator-free rate {no_dissipator_rate:.1e}, "
        f"eigenstate rate {commutator_rate:.1e}, {elapsed:.0f}s",
    )


@pytest.mark.stretch
def test_08b_ramped_pump_rate_exact():
    start = time.perf_counter()
    model = load_model(get_preset("parametron"))
    model.filter_spec = GaussianFilter()  # symbolic width
    dis = effective_dissipators(model, 2)
    left = parse_operator("a'^2", model.modes)
    right = parse_operator("a^2", model.modes)
    hits = [
        term
        for term in dis
        if term.freq == FreqExpr.zero()
        and term.left == left
        and term.right == right
    ]
    assert len(hits) == 1
    beta0 = sp.Symbol("beta0", real=True)
    T = sp.Symbol("T", positive=True)
    wp = freq_symbol("wp")
    target = beta0**2 * TIME * (4 * TAU**2 * wp**2 + 1) / (2 * T**2 * wp**2)
    got = ir_limit(hits[0].rate)
    ok = sp.simplify(got - target) == 0
    elapsed = time.perf_counter() - start
    _verdict(
        "8b ramped pump rate exact",
        ok and elapsed < 900.0,
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. time averaging acts as the frequency filter
# ---------------------------------------------------------------------------


def test_09_averaging_filters_phasors():
    start = time.perf_counter()
    rng = random.Random(9)
    tau = 1.0
    dt = 0.01
    times = np.arange(-5.0, 10.0 + dt / 2, dt)
    worst = 0.0
    for _ in range(10):
        w = rng.uniform(0.1, 5.0)
        traj = Trajectory(
            times, np.exp(-1j * w * times)[:, None, None], {}
        )
        out = coarse_grain_trajectory(traj, tau)
        ref = math.exp(-(w**2) * tau**2 / 2) * np.exp(-1j * w * out.times)
        worst = max(worst, float(np.max(np.abs(out.states[:, 0, 0] - ref))))
    elapsed = time.perf_counter() - start
    _verdict(
        "9 averaging equals frequency filter",
        worst <= 1e-6 and elapsed < 1.0,
        f"worst dev {worst:.2e}, {elapsed:.2f}s",
    )
