"""Closed-form contraction coefficients for coarse-grained perturbation theory.

Each coefficient ``C[l,r](mu, nu)`` weighs a product of ``l`` operators
acting from the left and ``r`` from the right of the state.  It is a sum
over the bubble diagrams of :mod:`stcg.diagrams`; each diagram contributes a
signed product of filter values divided by "vector factorials" (products of
partial frequency sums).  Where partial sums vanish, every frequency is
shifted by a distinct integer multiple of a regulator ``eps``, and the
singular diagrams of a coefficient are summed and expanded by one
:class:`_ShiftSeries`.  Its ``finite_part``, which also takes the ramp limit
of :mod:`stcg.model`, keeps the ``eps**0`` coefficient once the poles cancel.

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
from .symbols import FreqExpr, GaussianFilter, scalar_eval

__all__ = [
    "FrequencyTuple",
    "UnresolvedSingularityError",
    "diagram_contribution",
    "regularize_singular",
    "contraction_coefficient",
    "symmetry_check",
    "bubble_factor_oracle",
    "numeric_limit_probe",
]

class UnresolvedSingularityError(ArithmeticError):
    """A regulated limit does not exist (:meth:`_ShiftSeries.finite_part`)."""


#: Regulator of singular diagrams.  A plain symbol carries no assumptions,
#: so it never equals a model symbol (those are real).
_EPS = sp.Symbol("eps")


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
    filter_spec: Callable[[sp.Expr], sp.Expr],
) -> sp.Expr:
    """Signed diagram term with frequencies already mapped to sympy;
    ``filter_spec`` gives the filter value at a frequency."""
    sign = sp.Integer(-1) ** (len(nu) + diagram.size - 1)
    blocks = slice_frequencies(diagram, mu, nu)
    factors = [
        filter_spec(sp.Add(*mblock, *nblock))
        / (_vfac_sympy(mblock) * _vfac_sympy(nblock))
        for mblock, nblock in blocks
    ]
    return sign * sp.Add(*blocks[-1][0]) * sp.Mul(*factors)


def diagram_contribution(
    diagram: Diagram,
    freqs: FrequencyTuple,
    filter_spec: GaussianFilter,
) -> sp.Expr:
    """Contribution of one diagram at a non-singular frequency tuple.

    Raises :class:`ZeroDivisionError` if any partial sum vanishes; singular
    tuples must go through :func:`regularize_singular` instead.
    """
    for pair in slice_frequencies(diagram, freqs.mu, freqs.nu):
        for block in pair:
            sums = _partial_sums(block)
            singular = tuple(i + 1 for i, s in enumerate(sums) if s.is_zero)
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
    diagrams: Sequence[Diagram],
    freqs: FrequencyTuple,
    filter_spec: GaussianFilter,
) -> sp.Expr:
    """Finite part of the singular ``diagrams`` of one coefficient.

    Entry ``i`` of ``mu + nu`` is shifted by ``2**i * eps``, so every partial
    sum becomes ``a + b*eps`` with an integer ``b != 0``.  The diagrams are
    summed and expanded by one :class:`_ShiftSeries`: a pole of one diagram
    may cancel only in the sum, and :meth:`_ShiftSeries.finite_part`
    raises, naming the weight and the tuple, if one survives.
    """
    shifted = [
        w.to_sympy() + 2**i * _EPS for i, w in enumerate(freqs.mu + freqs.nu)
    ]
    mu, nu = shifted[: len(freqs.mu)], shifted[len(freqs.mu) :]
    exprs = [_diagram_expr(d, mu, nu, filter_spec) for d in diagrams]
    total = sp.Add(*exprs, evaluate=False)
    labels = (", ".join(map(str, ws)) for ws in (freqs.mu, freqs.nu))
    where = "C{} at mu=({}), nu=({})".format(freqs.weight, *labels)
    return _ShiftSeries(_EPS).finite_part(total, where)


def _truncated_product(x: list, y: list, n: int) -> list:
    """First ``n`` coefficients of the product of two power series; ``x``
    has ``n`` coefficients, ``y`` at most ``n``."""
    return [
        sp.Add(*(x[i] * y[k - i] for i in range(max(0, k + 1 - len(y)), k + 1)))
        for k in range(n)
    ]


class _NotExpandable(ValueError):
    """A factor has no Laurent series the kernel can build."""


#: How many orders past its lower bound the leading term of an inverted sum
#: is searched for before the sum is taken to vanish.
_MAX_LEADING_SEARCH = 8


class _ShiftSeries:
    """Exact truncated Laurent series in one regulator symbol, the shift:
    the one kernel for every regulated limit (singular diagrams, see
    :func:`regularize_singular`, and the ramp limit of
    :func:`stcg.model._ramp_limit`).

    ``laurent(expr, prec)`` returns the coefficients of ``shift**low(expr)``
    through ``shift**(prec - 1)``, built factor by factor:

    - a factor free of the shift is a constant, ``shift**k`` a pure power;
    - ``exp(a0 + r(shift))`` is ``exp(a0)`` times the exponential series of
      the remainder ``r``, which must vanish at zero shift;
    - ``sum**k`` is a truncated power for ``k > 0``; for ``k < 0`` the sum's
      leading coefficient is found by exact zero tests and the series
      inverted, so a sum that vanishes at zero shift gives a pole of that
      order;
    - sums and products combine with :func:`_truncated_product`.

    ``low(expr)`` is a lower bound of the valuation (exact for an inverted
    sum) and records which expressions are free of the shift.  Results are
    memoised for the lifetime of one instance.
    """

    def __init__(self, shift: sp.Symbol):
        self.shift = shift
        self._low: dict = {}
        self._free: set = set()
        self._laurent: dict = {}

    def finite_part(self, expr: sp.Expr, where: str) -> sp.Expr:
        """The ``shift**0`` coefficient of ``expr``, its limit at zero shift;
        :class:`UnresolvedSingularityError` names ``where`` if a factor has no
        series or a negative power does not vanish (the highest is named)."""
        try:
            low = self.low(expr)
            coeffs = self.laurent(expr, 1)
        except _NotExpandable as exc:
            raise UnresolvedSingularityError(
                f"no regulated limit: {exc} for {where}"
            ) from None
        for power in range(-1, low - 1, -1):
            if not _vanishes(coeffs[power - low]):
                raise UnresolvedSingularityError(
                    f"regulator poles survive: the limit diverges "
                    f"(shift^{power}) for {where}"
                )
        return coeffs[-low] if low <= 0 else sp.Integer(0)

    def low(self, expr: sp.Expr) -> int:
        hit = self._low.get(expr)
        if hit is None:
            hit = self._low[expr] = self._compute_low(expr)
        return hit

    def _compute_low(self, expr: sp.Expr) -> int:
        if not expr.has(self.shift):
            self._free.add(expr)
            return 0
        if expr == self.shift:
            return 1
        if expr.is_Add:
            return min(self.low(arg) for arg in expr.args)
        if expr.is_Mul:
            return sum(self.low(arg) for arg in expr.args)
        if expr.is_Pow and expr.exp.is_Integer:
            if expr.exp > 0 or expr.base == self.shift:
                return int(expr.exp) * self.low(expr.base)
            return int(expr.exp) * self._leading_power(expr.base)
        if expr.func is sp.exp:
            if self.low(expr.args[0]) < 0:
                raise _NotExpandable(f"essential singularity in {expr}")
            return 0
        raise _NotExpandable(f"cannot expand {expr} in {self.shift}")

    def _leading_power(self, expr: sp.Expr) -> int:
        """Power of the first coefficient of ``expr`` that is not zero."""
        low = self.low(expr)
        for power in range(low, low + _MAX_LEADING_SEARCH):
            if not _vanishes(self.laurent(expr, power + 1)[-1]):
                return power
        raise _NotExpandable(f"no leading term found for {expr}")

    def laurent(self, expr: sp.Expr, prec: int) -> list:
        key = (expr, prec)
        hit = self._laurent.get(key)
        if hit is None:
            n = prec - self.low(expr)
            hit = self._laurent[key] = self._compute(expr, n) if n > 0 else []
        return hit

    def _compute(self, expr: sp.Expr, n: int) -> list:
        zeros = [sp.Integer(0)] * (n - 1)
        if expr in self._free:
            return [expr] + zeros
        if expr == self.shift or (expr.is_Pow and expr.base == self.shift):
            return [sp.Integer(1)] + zeros
        if expr.is_Add:
            low = self.low(expr)
            columns = [[] for _ in range(n)]
            for arg in expr.args:
                offset = self.low(arg) - low
                for i, c in enumerate(self.laurent(arg, low + n)):
                    columns[offset + i].append(c)
            return [sp.Add(*col) for col in columns]
        if expr.is_Mul:
            const, varying = [], []
            for arg in expr.args:
                (const if arg in self._free else varying).append(arg)
            out = [sp.Mul(*const)] + zeros
            for factor in varying:
                out = _truncated_product(
                    out, self.laurent(factor, self.low(factor) + n), n
                )
            return out
        if expr.is_Pow:
            base, k = expr.base, int(expr.exp)
            if k > 0:
                factor = self.laurent(base, self.low(base) + n)
            else:
                v = self.low(expr) // k  # exact for an inverted sum
                lead = self.laurent(base, v + n)[v - self.low(base) :]
                factor = _inverse_series(lead)
            out = factor
            for _ in range(abs(k) - 1):
                out = _truncated_product(out, factor, n)
            return out
        # exp(a0 + r(shift)): exp(a0) times the exponential series of r.
        arg = self.laurent(expr.args[0], n)
        arg = [sp.Integer(0)] * self.low(expr.args[0]) + arg
        out = [sp.Integer(1)]
        for m in range(1, n):
            out.append(
                sp.Add(*(j * arg[j] * out[m - j] for j in range(1, m + 1))) / m
            )
        scale = sp.exp(arg[0])
        return [scale * c for c in out]


def _inverse_series(c: list) -> list:
    """Coefficients of ``1 / sum(c[i] * x**i)``, with ``c[0] != 0``."""
    inv = 1 / c[0]
    out = [inv]
    for m in range(1, len(c)):
        tail = sp.Add(*(c[i] * out[m - i] for i in range(1, m + 1)))
        out.append(-inv * tail)
    return out


def contraction_coefficient(
    freqs: FrequencyTuple, filter_spec: GaussianFilter
) -> sp.Expr:
    """Closed-form coefficient ``C[l,r](mu, nu)`` as a sympy expression.

    A pure function: every call sums the diagrams again, and callers that
    meet a tuple more than once keep their own memo.  Singular diagrams go
    through :func:`regularize_singular`, which raises
    :class:`UnresolvedSingularityError` if their limit does not exist.
    """
    total = sp.Integer(0)
    singular = []
    for diagram in enumerate_diagrams(*freqs.weight):
        try:
            total += diagram_contribution(diagram, freqs, filter_spec)
        except ZeroDivisionError:
            singular.append(diagram)
    if singular:
        total += regularize_singular(singular, freqs, filter_spec)
    return sp.expand(total)


def _vanishes(expr: sp.Expr) -> bool:
    """Exact zero test: ``expand``, with ``simplify`` as the fallback.

    ``simplify`` is skipped where ``expand`` already decides: it is
    canonical on polynomials, and a product of plain factors other than 0
    cannot vanish.
    """
    if expr == 0:
        return True
    if _is_plain_product(expr):
        return False
    expr = sp.expand(expr)
    if expr == 0:
        return True
    if expr.is_polynomial() or _is_plain_product(expr):
        return False
    return sp.simplify(expr) == 0


def _is_plain_product(expr: sp.Expr) -> bool:
    return all(_is_plain(f) for f in sp.Mul.make_args(expr))


def _is_plain(factor: sp.Expr) -> bool:
    """True for an atom, an atom to an atomic power, or ``exp`` of a
    product of such factors: ``expand`` leaves it as it is, and unless it
    is the number 0 it does not vanish."""
    if factor.is_Atom:
        return True
    if factor.is_Pow:
        return factor.base.is_Atom and factor.exp.is_Atom
    if factor.func is sp.exp:
        return all(
            f.is_Atom or (f.is_Pow and f.base.is_Atom and f.exp.is_Atom)
            for f in sp.Mul.make_args(factor.args[0])
        )
    return False


def symmetry_check(
    freqs: FrequencyTuple,
    filter_spec: GaussianFilter,
    assignment: Mapping[str, float],
) -> dict[str, float]:
    """Residuals of the parity and mirror identities at a numeric point.

    Parity: negating every frequency multiplies the coefficient by
    ``(-1)**(l + r - 1)``.  Mirror: moving the outermost left operator to the
    right side maps ``C[l,r]`` onto ``C[r+1,l-1]`` of the negated, reshuffled
    tuple.  Both residuals are relative to the coefficient magnitude.  Each
    of the three coefficients is computed fresh, so the check is independent
    of any coefficient computed before it.
    """
    left, right = freqs.weight
    base = scalar_eval(contraction_coefficient(freqs, filter_spec), assignment)
    scale = max(abs(base), 1e-30)
    parity_sign = (-1) ** (left + right - 1)
    flipped = scalar_eval(
        contraction_coefficient(freqs.negated(), filter_spec), assignment
    )
    mirrored = scalar_eval(
        contraction_coefficient(freqs.mirrored(), filter_spec), assignment
    )
    return {
        "parity": abs(flipped - parity_sign * base) / scale,
        "mirror": abs(mirrored - base) / scale,
    }


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


#: Sample times of :func:`bubble_factor_oracle`, in units of the inverse
#: largest frequency magnitude.
_ORACLE_TIMES = (0.0, 0.37, 1.113, 2.71, 5.5)


def bubble_factor_oracle(
    mu: Sequence[float], nu: Sequence[float], tau: float
) -> tuple[complex, float]:
    """Rebuild a contraction coefficient from raw time-average factors.

    Sums, per diagram, the product of every bubble's full alternating factor
    of the Gaussian filter ``exp(-w**2 * tau**2 / 2)`` at the sample times
    :data:`_ORACLE_TIMES` (over the largest ``|w|``) -- no
    mass-cancellation shortcut, no closed form.  The diagram sum must
    collapse onto a single phasor ``exp(-i*W*t)`` with
    ``W = sum(mu) + sum(nu)``; the returned residual measures how far the
    samples deviate from that, and the returned amplitude is the coefficient.

    Only defined away from singular tuples.
    """
    mu = [float(w) for w in mu]
    nu = [float(w) for w in nu]
    left, right = len(mu), len(nu)
    if left < 1:
        raise ValueError("need at least one left frequency")
    profile = lambda w: math.exp(-(w**2) * tau**2 / 2)  # noqa: E731
    scale = max(abs(w) for w in mu + nu) or 1.0
    times = [t / scale for t in _ORACLE_TIMES]

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


#: Offsets of :func:`numeric_limit_probe`, relative to the largest
#: frequency magnitude (at least 1), and the frequency symbol carrying them.
_PROBE_OFFSETS = (1e-3, 1e-4, 1e-5, 1e-6)
_PROBE_SYMBOL = "_probe"


def numeric_limit_probe(
    freqs: FrequencyTuple,
    filter_spec: GaussianFilter,
    assignment: Mapping[str, float],
) -> list[complex]:
    """Values of the coefficient along a shrinking offset off a singular point.

    Entry ``i`` of ``mu + nu`` is displaced by ``2**i`` times each offset of
    :data:`_PROBE_OFFSETS` (scaled by the largest frequency magnitude,
    at least 1), mirroring the exact regulator, and the non-singular
    closed form is evaluated numerically: one value per offset.  Used as a
    cross-check that the exact regulated limit is approached continuously;
    the shifted coefficient is computed fresh, independent of any other.
    """
    probe = FreqExpr.symbol(_PROBE_SYMBOL)
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
    for offset in _PROBE_OFFSETS:
        point = dict(assignment)
        point[_PROBE_SYMBOL] = offset * scale
        values.append(scalar_eval(expr, point))
    return values
