"""Closed-form contraction coefficients for coarse-grained perturbation theory.

Each coefficient ``C[l,r](mu, nu)`` weighs a product of ``l`` operators
acting from the left and ``r`` from the right of the state.  It is a sum
over the bubble diagrams of :mod:`stcg.diagrams`; each diagram contributes a
signed product of filter values divided by "vector factorials" (products of
partial frequency sums).  Vanishing partial sums are handled exactly by a
regulator expansion, valid for filters with a closed-form profile.

The module also carries a slow, independent numerical oracle
(:func:`bubble_factor_oracle`) that rebuilds the same coefficients from
nested time-average factors without using the closed form, plus the symmetry
relations the coefficients must satisfy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import sympy as sp

from .diagrams import Diagram, enumerate_diagrams, slice_frequencies
from .symbols import FilterSpec, FreqExpr, scalar_eval

__all__ = [
    "FrequencyTuple",
    "UnresolvedSingularityError",
    "vector_factorial",
    "diagram_contribution",
    "regularize_singular",
    "contraction_coefficient",
    "symmetry_check",
    "gaussian_shift_coefficient",
    "bubble_factor_oracle",
    "numeric_limit_probe",
]

#: Regulator used when partial frequency sums vanish exactly.
EPS = sp.Symbol("_regulator", positive=True)


class UnresolvedSingularityError(ArithmeticError):
    """A negative regulator power survived the full diagram sum."""


@dataclass(frozen=True)
class FrequencyTuple:
    """Ordered left/right frequency tuples labelling one coefficient."""

    mu: tuple[FreqExpr, ...]
    nu: tuple[FreqExpr, ...] = ()

    def __post_init__(self):
        if len(self.mu) < 1:
            raise ValueError("need at least one left frequency")

    @property
    def weight(self) -> tuple[int, int]:
        return (len(self.mu), len(self.nu))

    def negated(self) -> "FrequencyTuple":
        return FrequencyTuple(
            tuple(-w for w in self.mu), tuple(-w for w in self.nu)
        )

    def mirrored(self) -> "FrequencyTuple":
        """Move the outermost left frequency to the end of the right tuple
        and negate everything; weight ``(l, r)`` becomes ``(r + 1, l - 1)``."""
        new_mu = tuple(-w for w in self.nu) + (-self.mu[-1],)
        new_nu = tuple(-w for w in self.mu[:-1])
        return FrequencyTuple(new_mu, new_nu)


def _partial_sums(block: Sequence[FreqExpr]) -> list[FreqExpr]:
    sums = []
    acc = FreqExpr.zero()
    for w in block:
        acc = acc + w
        sums.append(acc)
    return sums


def vector_factorial(block: Sequence[FreqExpr]):
    """Product of the partial sums of ``block``; empty product is 1.

    Returns ``(expr, singular_indices)`` where ``singular_indices`` lists the
    1-based positions whose partial sum vanishes identically.  When any
    position is singular the returned expression is ``None``.
    """
    sums = _partial_sums(block)
    singular = [i + 1 for i, s in enumerate(sums) if s.is_zero]
    if singular:
        return None, tuple(singular)
    expr = sp.Mul(*(s.to_sympy() for s in sums))
    return expr, ()


def _shifted_tuple(
    freqs: Sequence[FreqExpr], start: int
) -> list[sp.Expr]:
    """Sympy images of ``freqs`` with a distinct regulator added to each entry.

    Powers of two make every partial sum carry a non-zero regulator
    coefficient, so all denominators become invertible before the limit.
    """
    return [
        w.to_sympy() + sp.Integer(2 ** (start + i)) * EPS
        for i, w in enumerate(freqs)
    ]


def _vfac_sympy(block: Sequence[sp.Expr]) -> sp.Expr:
    prod = sp.Integer(1)
    acc = sp.Integer(0)
    for w in block:
        acc = acc + w
        prod = prod * acc
    return prod


def _diagram_expr(
    diagram: Diagram,
    mu: Sequence[sp.Expr],
    nu: Sequence[sp.Expr],
    filter_spec: FilterSpec,
) -> sp.Expr:
    """Signed diagram term with frequencies already mapped to sympy."""
    sign = sp.Integer(-1) ** (len(nu) + diagram.size - 1)
    li = ri = 0
    factors = []
    prefactor = None
    for bubble in diagram:
        mblock = mu[li : li + bubble.left]
        nblock = nu[ri : ri + bubble.right]
        li += bubble.left
        ri += bubble.right
        total = sp.Add(*mblock, *nblock)
        factors.append(filter_spec(total) / (_vfac_sympy(mblock) * _vfac_sympy(nblock)))
        prefactor = sp.Add(*mblock)
    return sign * prefactor * sp.Mul(*factors)


def diagram_contribution(
    diagram: Diagram,
    freqs: FrequencyTuple,
    filter_spec: FilterSpec,
) -> sp.Expr:
    """Contribution of one diagram at a non-singular frequency tuple.

    Raises :class:`ZeroDivisionError` if any partial sum vanishes; singular
    tuples must go through :func:`regularize_singular` instead.
    """
    slicing = slice_frequencies(diagram, freqs.mu, freqs.nu)
    for blocks in (slicing.left_blocks, slicing.right_blocks):
        for block in blocks:
            _, singular = vector_factorial(block)
            if singular:
                raise ZeroDivisionError(
                    f"diagram {diagram} singular at partial sum(s) {singular}; "
                    "use regularize_singular"
                )
    return _diagram_expr(
        diagram,
        [w.to_sympy() for w in freqs.mu],
        [w.to_sympy() for w in freqs.nu],
        filter_spec,
    )


def regularize_singular(
    diagram: Diagram,
    freqs: FrequencyTuple,
    filter_spec: FilterSpec,
) -> sp.Expr:
    """Regulated contribution of a singular diagram.

    The result is a Laurent polynomial in the regulator symbol through order
    zero.  A single diagram may keep negative regulator powers; those cancel
    only in the sum over all diagrams of the coefficient, which
    :func:`contraction_coefficient` verifies before dropping the regulator.
    """
    if not filter_spec.symbolic:
        raise UnresolvedSingularityError(
            "evaluate-only filters cannot regulate singular frequency tuples"
        )
    mu = _shifted_tuple(freqs.mu, 0)
    nu = _shifted_tuple(freqs.nu, len(freqs.mu))
    expr = _diagram_expr(diagram, mu, nu, filter_spec)
    # Tiny float constants (numeric tau) derail sympy's series zero
    # detection; expand over exact rationals instead.  The result stays
    # rational, which also keeps the pole-cancellation check exact.
    if expr.has(sp.Float):
        expr = sp.nsimplify(expr, rational=True)
    series = sp.expand(expr.series(EPS, 0, 1).removeO())
    # The expansion may leave the regulator buried in unfactored Add
    # denominators; pull it out so Laurent coefficients are extractable.
    # (No further expand() after this: it would re-absorb the regulator.)
    series = series.replace(
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
    return series


_COEFF_CACHE: dict = {}


def contraction_coefficient(
    freqs: FrequencyTuple, filter_spec: FilterSpec
) -> sp.Expr:
    """Closed-form coefficient ``C[l,r](mu, nu)`` as a sympy expression.

    Results are memoized on the frequency tuple and filter.  Singular
    diagrams are summed as regulator series; surviving negative powers raise
    :class:`UnresolvedSingularityError`, otherwise the finite part is exact.
    """
    key = (freqs, filter_spec.cache_key())
    hit = _COEFF_CACHE.get(key)
    if hit is None:
        hit = _compute_coefficient(freqs, filter_spec)
        _COEFF_CACHE[key] = hit
    return hit


def _compute_coefficient(
    freqs: FrequencyTuple, filter_spec: FilterSpec
) -> sp.Expr:
    left, right = freqs.weight
    regular_total = sp.Integer(0)
    series_total = sp.Integer(0)
    singular = False
    for diagram in enumerate_diagrams(left, right):
        try:
            regular_total += diagram_contribution(diagram, freqs, filter_spec)
        except ZeroDivisionError:
            singular = True
            series_total += regularize_singular(diagram, freqs, filter_spec)
    if singular:
        poles = _pole_part(series_total)
        if poles:
            raise UnresolvedSingularityError(
                f"regulator poles survive in C{freqs.weight}: {poles}"
            )
        regular_total += series_total.coeff(EPS, 0)
    return sp.expand(regular_total)


def _pole_part(series: sp.Expr) -> list[tuple[int, sp.Expr]]:
    """Non-cancelling negative regulator powers of an expanded series."""
    poles = []
    for order in range(1, 64):
        coeff = series.coeff(EPS, -order)
        if coeff == 0:
            continue
        coeff = sp.simplify(coeff)
        if coeff != 0:
            poles.append((-order, coeff))
    return poles


def symmetry_check(
    freqs: FrequencyTuple,
    filter_spec: FilterSpec,
    assignment: Mapping[str, float],
) -> dict[str, float]:
    """Residuals of the parity and mirror identities at a numeric point.

    Parity: negating every frequency multiplies the coefficient by
    ``(-1)**(l + r - 1)``.  Mirror: moving the outermost left operator to the
    right side maps ``C[l,r]`` onto ``C[r+1,l-1]`` of the negated, reshuffled
    tuple.  Both residuals are relative to the coefficient magnitude.
    """
    left, right = freqs.weight
    base = scalar_eval(
        contraction_coefficient(freqs, filter_spec), assignment, filter_spec
    )
    scale = max(abs(base), 1e-30)
    parity_sign = (-1) ** (left + right - 1)
    flipped = scalar_eval(
        contraction_coefficient(freqs.negated(), filter_spec),
        assignment,
        filter_spec,
    )
    mirrored = scalar_eval(
        contraction_coefficient(freqs.mirrored(), filter_spec),
        assignment,
        filter_spec,
    )
    return {
        "parity": abs(flipped - parity_sign * base) / scale,
        "mirror": abs(mirrored - base) / scale,
    }


def gaussian_shift_coefficient(n: int, k: int) -> sp.Rational:
    """Expansion coefficients of a shifted Gaussian profile.

    Writing ``f(x + d)/f(x)`` as ``sum_n d**n/n! * sum_k c(n, k) *
    tau**(2*(n-k)) * x**(n-2*k)``, this returns ``c(n, k)``:
    ``(-1)**(n-k) * n! / (2**k * (n-2*k)! * k!)``, zero outside
    ``0 <= 2*k <= n``.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if k < 0 or n < 2 * k:
        return sp.Integer(0)
    return (
        sp.Integer(-1) ** (n - k)
        * sp.factorial(n)
        / (sp.Integer(2) ** k * sp.factorial(n - 2 * k) * sp.factorial(k))
    )


# ---------------------------------------------------------------------------
# Independent numerical oracle
# ---------------------------------------------------------------------------


def _vfac_num(block: Sequence[float]) -> float:
    prod = 1.0
    acc = 0.0
    for w in block:
        acc += w
        prod *= acc
    return prod


def _check_regular(values: Sequence[float], label: str):
    acc = 0.0
    scale = max((abs(v) for v in values), default=1.0) or 1.0
    for w in values:
        acc += w
        if abs(acc) < 1e-12 * scale:
            raise ZeroDivisionError(
                f"oracle needs non-singular tuples; {label} partial sum ~ 0"
            )


def _bubble_sum(
    m: Sequence[float],
    n: Sequence[float],
    f: Callable[[float], float],
    t: float,
    special: float | None,
) -> complex:
    """One bubble's time-average factor: the full alternating sum over how
    many of its operators have already been pulled out of the average."""
    p, q = len(m), len(n)
    total = 0.0 + 0.0j
    for jl in range(p + 1):
        for jr in range(q + 1):
            freq = sum(m[p - jl :]) + sum(n[q - jr :])
            if special is not None:
                freq += special
            denom = (
                _vfac_num(m[p - jl :])
                * _vfac_num(m[: p - jl][::-1])
                * _vfac_num(n[q - jr :])
                * _vfac_num(n[: q - jr][::-1])
            )
            sign = -1.0 if (p + jl + jr) % 2 else 1.0
            total += sign * f(freq) * cmath.exp(-1j * freq * t) / denom
    return total


def bubble_factor_oracle(
    mu: Sequence[float],
    nu: Sequence[float],
    tau: float,
    times: Sequence[float] | None = None,
    profile: Callable[[float], float] | None = None,
) -> tuple[complex, float]:
    """Rebuild a contraction coefficient from raw time-average factors.

    Sums, per diagram, the product of every bubble's full alternating factor
    at sample times -- no mass-cancellation shortcut, no closed form.  The
    diagram sum must collapse onto a single phasor ``exp(-i*W*t)`` with
    ``W = sum(mu) + sum(nu)``; the returned residual measures how far the
    samples deviate from that, and the returned amplitude is the coefficient.

    Only defined away from singular tuples.
    """
    mu = [float(w) for w in mu]
    nu = [float(w) for w in nu]
    left, right = len(mu), len(nu)
    if left < 1:
        raise ValueError("need at least one left frequency")
    if profile is None:
        profile = lambda w: math.exp(-(w**2) * tau**2 / 2)  # noqa: E731
    if times is None:
        scale = max(abs(w) for w in mu + nu) or 1.0
        times = [0.0, 0.37 / scale, 1.113 / scale, 2.71 / scale, 5.5 / scale]

    omega = sum(mu) + sum(nu)
    samples = []
    for t in times:
        value = 0.0 + 0.0j
        for diagram in enumerate_diagrams(left, right):
            li = ri = 0
            blocks = []
            for bubble in diagram:
                mblock = mu[li : li + bubble.left]
                nblock = nu[ri : ri + bubble.right]
                li += bubble.left
                ri += bubble.right
                blocks.append((mblock, nblock))
            term = 1.0 + 0.0j
            for mblock, nblock in blocks[:-1]:
                _check_regular(mblock, "left")
                _check_regular(nblock, "right")
                term *= -_bubble_sum(mblock, nblock, profile, t, None)
            mlast, nlast = blocks[-1]
            _check_regular(mlast, "left")
            _check_regular(nlast, "right")
            term *= _bubble_sum(mlast[:-1], nlast, profile, t, mlast[-1])
            value += term
        samples.append(value * cmath.exp(1j * omega * t))

    amplitude = sum(samples) / len(samples)
    scale = max(abs(amplitude), 1e-300)
    residual = max(abs(z - amplitude) for z in samples) / scale
    return amplitude, residual


def numeric_limit_probe(
    freqs: FrequencyTuple,
    filter_spec: FilterSpec,
    assignment: Mapping[str, float],
    offsets: Sequence[float] = (1e-3, 1e-4, 1e-5, 1e-6),
    probe_symbol: str = "_probe",
) -> list[complex]:
    """Values of the coefficient along a shrinking offset off a singular point.

    Each singular direction is displaced by ``offset`` times a distinct
    power of two (mirroring the exact regulator), and the non-singular
    closed form is evaluated numerically.  Used as a cross-check that the
    exact regulated limit is approached continuously.
    """
    probe = FreqExpr.symbol(probe_symbol)
    mu = tuple(w + (2**i) * probe for i, w in enumerate(freqs.mu))
    nu = tuple(
        w + (2 ** (len(freqs.mu) + i)) * probe for i, w in enumerate(freqs.nu)
    )
    shifted = FrequencyTuple(mu, nu)
    scale = max(
        [abs(w.evaluate(assignment)) for w in freqs.mu + freqs.nu] + [1.0]
    )
    expr = contraction_coefficient(shifted, filter_spec)
    values = []
    for offset in offsets:
        point = dict(assignment)
        point[probe_symbol] = offset * scale
        values.append(scalar_eval(expr, point, filter_spec))
    return values
