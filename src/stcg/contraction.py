"""Closed-form contraction coefficients for coarse-grained perturbation theory.

Each coefficient ``C[l,r](mu, nu)`` weighs a product of ``l`` operators
acting from the left and ``r`` from the right of the state.  It is a sum
over the bubble diagrams of :mod:`stcg.diagrams`; each diagram contributes a
signed product of filter values divided by "vector factorials" (products of
partial frequency sums).  The sum is exact data (:class:`ExactCoefficient`):
per filter exponent, a polynomial over the tuple's linear forms.  Its
frame-free :meth:`ExactCoefficient.canonical` form is what assembly adds into
its exact slot sums; :meth:`ExactCoefficient.to_sympy` is the one conversion
for a caller that needs an expression.  Where partial sums vanish, every
frequency is shifted by a distinct integer multiple of a regulator ``eps``;
the singular diagrams of a coefficient are expanded in ``eps`` in the same
exact form, and the ``eps**0`` coefficient is kept once the poles cancel.
:class:`_ShiftSeries` takes the ramp limit of :mod:`stcg.model` on sympy
expressions.

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
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from .diagrams import Diagram, enumerate_diagrams
from .symbols import FreqExpr, GaussianFilter, freq_symbol, scalar_eval

__all__ = [
    "ExactCoefficient",
    "FrequencyTuple",
    "canonical_sympy",
    "UnresolvedSingularityError",
    "diagram_contribution",
    "regularize_singular",
    "contraction_coefficient",
    "symmetry_check",
    "bubble_factor_oracle",
    "numeric_limit_probe",
]

class UnresolvedSingularityError(ArithmeticError):
    """A regulated limit does not exist (:func:`regularize_singular`,
    :meth:`_ShiftSeries.finite_part`)."""


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


def _shift(i: int, j: int) -> int:
    """Regulator multiple of the slice ``(i, j)`` of ``mu + nu``, whose
    entry ``k`` is shifted by ``2**k * eps``."""
    return 2**j - 2**i


class _Frame:
    """Exact arithmetic of one frequency tuple's coefficient.

    Every partial sum of a diagram is the sum of a slice ``(i, j)`` of
    ``mu + nu`` on one side.  A slice sum ``s = c*f`` other than zero is
    held through its normalized linear form ``f`` (first coefficient 1):
    ``1/s = y_f / c`` in a polynomial ring over QQ whose generators are the
    tuple's frequency symbols, ``tau`` unless it is a rational number, and
    one inverse ``y_f`` per distinct form.  Diagrams are summed and
    multiplied in the ring; :meth:`reduced` puts an element over its forms.
    """

    def __init__(self, freqs: FrequencyTuple, filter_spec: GaussianFilter):
        entries = freqs.mu + freqs.nu
        self.left = len(freqs.mu)
        self.tau = filter_spec.tau
        sums = {}
        for lo, hi in ((0, self.left), (self.left, len(entries))):
            for i in range(lo, hi):
                acc = FreqExpr.zero()
                for j in range(i + 1, hi + 1):
                    acc = acc + entries[j - 1]
                    sums[i, j] = acc
        forms: dict = {}  # normalized form -> index of its inverse
        lead = {}  # slice -> (normalized form, leading coefficient)
        for ij, s in sums.items():
            if not s.is_zero:
                c = next(iter(s.coeffs.values()))
                lead[ij] = (s * (1 / c), c)
                forms.setdefault(lead[ij][0], len(forms))
        names = sorted(set().union(*(w.symbols for w in entries)))
        gens = [freq_symbol(n) for n in names]
        rational_tau = isinstance(self.tau, sp.Rational)
        if not rational_tau:
            gens.append(self.tau)
        self.nx = len(gens)
        self.xsyms = tuple(gens)
        gens += [sp.Symbol(f"y[{k}]") for k in range(len(forms))]
        self.ring = ring = PolyRing(gens, QQ, lex)
        self.tau2 = (
            ring.ground_new(QQ.from_sympy(self.tau**2)) if rational_tau
            else ring.gens[len(names)] ** 2
        )
        x = dict(zip(names, ring.gens))

        def linear(s: FreqExpr):
            return sum((x[n] * QQ(c) for n, c in s.coeffs.items()), ring.zero)

        self.sums = {ij: linear(s) for ij, s in sums.items()}
        self.forms = [None] * len(forms)
        for f, k in forms.items():
            self.forms[k] = (linear(f), f.to_sympy())
        y = ring.gens[self.nx:]
        self.inverse = {
            ij: y[forms[f]] / QQ(c) for ij, (f, c) in lead.items()
        }

    def monomial(self, exponents) -> tuple:
        """A ring monomial free of inverses as ``(symbol, power)`` pairs."""
        return tuple((x, e) for x, e in zip(self.xsyms, exponents) if e)

    def total(self, i: int, j: int):
        """Sum of the slice ``(i, j)`` (0 for an empty one)."""
        return self.sums[i, j] if j > i else self.ring.zero

    def layout(self, diagram: Diagram):
        """``(sign, bubbles, divisors)`` of a diagram: its bubbles as
        ``(left slice, right slice)`` pairs and the slices of the partial
        sums it divides by.  The total of the last left block is both a
        partial sum and the diagram's numerator, so it is not a divisor."""
        bubbles, divisors = [], []
        li, ri = 0, self.left
        for bubble in diagram:
            pair = ((li, li + bubble.left), (ri, ri + bubble.right))
            bubbles.append(pair)
            for i, j in pair:
                divisors.extend((i, k) for k in range(i + 1, j + 1))
            li, ri = pair[0][1], pair[1][1]
        divisors.remove(bubbles[-1][0])
        sign = (-1) ** (ri - self.left + len(bubbles) - 1)
        return sign, bubbles, divisors

    def key(self, bubbles):
        """Filter exponent of a diagram, the sum of its squared bubble
        totals: its filters multiply to ``exp(-tau**2 * key / 2)`` (so the
        key is 0 at zero tau, where every filter is 1)."""
        if self.tau == 0:
            return self.ring.zero
        return sum(
            ((self.total(*m) + self.total(*n)) ** 2 for m, n in bubbles),
            self.ring.zero,
        )

    def reduced(self, poly):
        """``(P, powers)`` with ``poly == P / prod(f_k**powers[k])``.

        The largest power of each inverse ``y_k`` in ``poly`` is its
        common denominator, and each form that divides ``P`` exactly is
        cancelled, so the pair is canonical: no gcd is needed, since the
        forms are distinct and irreducible.  ``P`` is zero exactly when
        ``poly`` is.
        """
        ring, nx = self.ring, self.nx
        tail = (0,) * (ring.ngens - nx)
        groups: dict = {}  # inverse exponents -> the x part of poly
        for monom, coeff in poly.items():
            groups.setdefault(monom[nx:], {})[monom[:nx] + tail] = coeff
        powers = [max(col) for col in zip(*groups)] if groups else []
        num = ring.zero
        for ys, part in groups.items():
            part = ring.from_dict(part)
            for (form, _), top, e in zip(self.forms, powers, ys):
                if top > e:
                    part = part * form ** (top - e)
            num = num + part
        for k, (form, _) in enumerate(self.forms):
            while num and powers[k]:
                quotient, rest = num.div(form)
                if rest:
                    break
                num, powers[k] = quotient, powers[k] - 1
        return num, powers


class ExactCoefficient:
    """A coefficient, or a part of one, as exact data: a map from filter
    exponent ``key`` to an element of the tuple's :class:`_Frame` ring,
    standing for ``sum(exp(-tau**2 * key / 2) * value)``.  Distinct keys
    are independent functions of the frequencies.  Parts of one
    coefficient add with ``+``; :meth:`canonical` is the frame-free form,
    :meth:`to_sympy` the one conversion to an expression."""

    __slots__ = ("frame", "terms")

    def __init__(self, frame: _Frame, terms: dict):
        self.frame = frame
        self.terms = terms

    def __add__(self, other: "ExactCoefficient") -> "ExactCoefficient":
        terms = dict(self.terms)
        for key, value in other.terms.items():
            terms[key] = terms[key] + value if key in terms else value
        return ExactCoefficient(self.frame, terms)

    def canonical(self) -> dict:
        """``{(exponent, denominator, monomial): rational}``, the coefficient
        without its frame: the sum of ``rational * monomial / denominator *
        exp(-tau**2 * exponent / 2)`` over the entries.

        ``exponent`` is the filter exponent, a frozenset of ``(monomial,
        rational)`` pairs; ``denominator`` a frozenset of ``(form, power)``
        pairs, each form a sympy linear form with first coefficient 1; a
        monomial is a tuple of ``(symbol, power)`` pairs over the frequency
        symbols and ``tau``, in sorted-name order with ``tau`` last.  The
        numerator over the denominator is :meth:`_Frame.reduced`, so the form
        is canonical: the coefficients of two tuples are equal exactly when
        their forms are, and the negated coefficient has the negated
        rationals.
        """
        frame = self.frame
        out = {}
        for key, value in self.terms.items():
            num, powers = frame.reduced(value)
            if not num:
                continue
            exponent = frozenset(
                (frame.monomial(m), c) for m, c in key.items()
            )
            den = frozenset(
                (form, k) for (_, form), k in zip(frame.forms, powers) if k
            )
            for m, c in num.items():
                out[exponent, den, frame.monomial(m)] = c
        return out

    def to_sympy(self) -> sp.Expr:
        """``sum(exp(-tau**2 * key / 2) * expand(P / prod(f**k)))`` over
        the keys, with ``P / prod(f**k)`` canonical (:meth:`_Frame.reduced`)
        and the exponential split over the monomials of the key."""
        frame = self.frame
        out = []
        for key, value in self.terms.items():
            num, powers = frame.reduced(value)
            if not num:
                continue
            den = sp.Mul(*(
                form ** k for (_, form), k in zip(frame.forms, powers) if k
            ))
            arg = -(frame.tau**2) * key.as_expr() / 2
            out.append(
                sp.expand(sp.exp(arg)) * sp.expand(num.as_expr() / den)
            )
        return sp.Add(*out)


def canonical_sympy(tau: sp.Expr) -> Callable:
    """A function from a key ``(exponent, denominator, monomial)`` of
    :meth:`ExactCoefficient.canonical` at the filter scale ``tau`` to its
    expression ``monomial / denominator * exp(-tau**2 * exponent / 2)``.
    The ``exp`` factor is one ``exp`` per monomial of the exponent, which is
    what ``expand`` makes of it (:meth:`ExactCoefficient.to_sympy`), built
    without ``expand``.  Each key's expression, and each ``exp`` and
    denominator factor, is built once per returned function."""
    exps: dict = {}
    dens: dict = {}
    keys: dict = {}

    def monomial(pairs):
        return sp.Mul(*(x**e for x, e in pairs))

    def expression(key):
        hit = keys.get(key)
        if hit is None:
            exponent, den, mono = key
            factor = exps.get(exponent)
            if factor is None:
                factor = exps[exponent] = sp.Mul(*(
                    sp.exp(
                        sp.Rational(-c.numerator, 2 * c.denominator)
                        * tau**2 * monomial(m)
                    )
                    for m, c in exponent
                ))
            inverse = dens.get(den)
            if inverse is None:
                inverse = dens[den] = sp.Mul(*(f**-k for f, k in den))
            hit = keys[key] = sp.Mul(monomial(mono), factor, inverse)
        return hit

    return expression


def diagram_contribution(
    diagram: Diagram,
    freqs: FrequencyTuple,
    filter_spec: GaussianFilter,
    frame: _Frame | None = None,
) -> ExactCoefficient:
    """Contribution of one diagram at a non-singular frequency tuple: its
    sign times its bubbles' filter values over its partial sums.

    Raises :class:`ZeroDivisionError` if any partial sum vanishes; singular
    tuples must go through :func:`regularize_singular` instead.  ``frame``
    is the tuple's :class:`_Frame`, made here if not given.
    """
    frame = frame or _Frame(freqs, filter_spec)
    sign, bubbles, divisors = frame.layout(diagram)
    for i, j in (block for pair in bubbles for block in pair):
        singular = tuple(
            k - i for k in range(i + 1, j + 1) if (i, k) not in frame.inverse
        )
        if singular:
            raise ZeroDivisionError(
                f"diagram {diagram} singular at partial sum(s) {singular}; "
                "use regularize_singular"
            )
    value = frame.ring.ground_new(sign)
    for ij in divisors:
        value = value * frame.inverse[ij]
    return ExactCoefficient(frame, {frame.key(bubbles): value})


def _shifted_series(frame: _Frame, diagram: Diagram):
    """``(low, key, coeffs)``: the diagram with entry ``k`` of ``mu + nu``
    shifted by ``2**k * eps`` is ``exp(-tau**2 * key / 2)`` times
    ``sum(coeffs[n] * eps**(low + n))`` through ``eps**0``.

    A partial sum ``b*eps`` gives the pole ``1/(b*eps)``, one ``a + b*eps``
    the geometric series of ``1/a``; the filters of the bubbles (totals
    ``A + B*eps``) give the exponential series of
    ``-tau**2 * sum(2*A*B*eps + B**2*eps**2) / 2``.
    """
    sign, bubbles, divisors = frame.layout(diagram)
    ring = frame.ring
    low, const, geometric = 0, QQ(sign), []
    for ij in divisors:
        inverse = frame.inverse.get(ij)
        if inverse is None:
            low, const = low - 1, const / _shift(*ij)
        else:
            geometric.append((inverse, -_shift(*ij) * inverse))
    n = 1 - low
    shifts = [_shift(*m) + _shift(*r) for m, r in bubbles]
    cross = sum(
        (b * (frame.total(*m) + frame.total(*r))
         for b, (m, r) in zip(shifts, bubbles)),
        ring.zero,
    )
    u1 = -frame.tau2 * cross
    u2 = -frame.tau2 * QQ(sum(b * b for b in shifts), 2)
    out = [ring.ground_new(const)]
    for m in range(1, n):
        term = u1 * out[m - 1]
        if m > 1:
            term = term + 2 * u2 * out[m - 2]
        out.append(term * QQ(1, m))
    for first, ratio in geometric:
        series = [first]
        while len(series) < n:
            series.append(series[-1] * ratio)
        out = [
            sum((out[i] * series[k - i] for i in range(k + 1)), ring.zero)
            for k in range(n)
        ]
    return low, frame.key(bubbles), out


def regularize_singular(
    diagrams: Sequence[Diagram],
    freqs: FrequencyTuple,
    filter_spec: GaussianFilter,
    frame: _Frame | None = None,
) -> ExactCoefficient:
    """Finite part of the singular ``diagrams`` of one coefficient.

    Entry ``i`` of ``mu + nu`` is shifted by ``2**i * eps``, so every
    partial sum becomes ``a + b*eps`` with an integer ``b != 0``, and each
    diagram is expanded in ``eps`` exactly (:func:`_shifted_series`).  A
    pole of one diagram may cancel only in the sum: each negative power of
    the summed series must vanish at every filter exponent, or
    :class:`UnresolvedSingularityError` names the weight, the tuple and the
    highest power that survives.  ``frame`` is as in
    :func:`diagram_contribution`.
    """
    frame = frame or _Frame(freqs, filter_spec)
    powers: dict = {}  # power of eps -> {key: ring element}
    for diagram in diagrams:
        low, key, coeffs = _shifted_series(frame, diagram)
        for n, value in enumerate(coeffs):
            terms = powers.setdefault(low + n, {})
            terms[key] = terms[key] + value if key in terms else value
    for power in sorted((p for p in powers if p < 0), reverse=True):
        if any(frame.reduced(v)[0] for v in powers[power].values()):
            labels = (", ".join(map(str, ws)) for ws in (freqs.mu, freqs.nu))
            where = "C{} at mu=({}), nu=({})".format(freqs.weight, *labels)
            raise UnresolvedSingularityError(
                f"regulator poles survive: the limit diverges "
                f"(shift^{power}) for {where}"
            )
    return ExactCoefficient(frame, powers.get(0, {}))


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
    """Exact truncated Laurent series of a sympy expression in one
    regulator symbol, the shift: the ramp limit of
    :func:`stcg.model._ramp_limit`, taken on merged coefficients that hold
    couplings, ``t`` and ``I``.  Singular diagrams have their own exact
    series (:func:`_shifted_series`).

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
) -> ExactCoefficient:
    """Closed-form coefficient ``C[l,r](mu, nu)`` as exact data.

    A pure function: every call sums the diagrams again, and callers that
    meet a tuple more than once keep their own memo.  The diagrams are
    summed as :class:`ExactCoefficient` data in one :class:`_Frame`;
    assembly reads its :meth:`~ExactCoefficient.canonical` form, and a
    caller that needs an expression calls
    :meth:`~ExactCoefficient.to_sympy`.  Singular diagrams go through
    :func:`regularize_singular`, which raises
    :class:`UnresolvedSingularityError` if their limit does not exist.
    """
    frame = _Frame(freqs, filter_spec)
    total = ExactCoefficient(frame, {})
    singular = []
    for diagram in enumerate_diagrams(*freqs.weight):
        try:
            part = diagram_contribution(diagram, freqs, filter_spec, frame)
        except ZeroDivisionError:
            singular.append(diagram)
        else:
            total = total + part
    if singular:
        total = total + regularize_singular(
            singular, freqs, filter_spec, frame
        )
    return total


def _vanishes(expr: sp.Expr) -> bool:
    """Exact zero test of a sum of ``exp`` factors times rational functions.

    ``expand`` alone decides polynomials and products of plain factors,
    which other than 0 cannot vanish.  Otherwise the expanded terms are
    grouped by their product of ``exp`` factors whose argument is not a
    number.  ``expand`` splits each argument into monomials, so distinct
    products are exponentials of arguments that differ by more than a
    constant, which are independent over the rational functions: when
    every group's cofactor is a rational function, the sum vanishes
    exactly when each cofactor ``cancel``s to 0.  A cofactor that is not
    (``expand`` moved ``exp`` factors into a denominator that is a sum)
    leaves the decision to the whole sum, with its ``exp`` factors as
    powers of independent generators (:func:`_exp_as_powers`) and
    ``cancel``; ``simplify`` is kept for a sum that is still not a
    rational function (a root, a logarithm, another function).
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
    groups: dict = {}
    for term in sp.Add.make_args(expr):
        exps = sp.Mul(*(
            f for f in sp.Mul.make_args(term)
            if f.func is sp.exp and not f.args[0].is_number
        ))
        groups.setdefault(exps, []).append(term / exps)
    cofactors = [sp.Add(*parts) for parts in groups.values()]
    if all(c.is_rational_function() for c in cofactors):
        return all(sp.cancel(c) == 0 for c in cofactors)
    rational = _exp_as_powers(expr)
    if rational is not None and rational.is_rational_function():
        return sp.cancel(rational) == 0
    return sp.simplify(expr) == 0


def _exp_as_powers(expr: sp.Expr) -> sp.Expr | None:
    """``expr`` with each ``exp(c*m)``, for a rational ``c`` and a monomial
    ``m`` (symbols to integer powers, and ``I``), written as an integer
    power of one new symbol per ``m`` standing for ``exp(m/L)``, ``L`` the
    common denominator of that monomial's ``c``; None if an ``exp`` is not
    of this form.  Exponentials of distinct monomials are algebraically
    independent over the rational functions, so ``expr`` vanishes exactly
    when the result does."""
    directions: dict = {}
    for e in expr.atoms(sp.exp):
        c, m = e.args[0].as_coeff_Mul()
        if not (c.is_Rational and _is_monomial(m)):
            return None
        directions.setdefault(m, []).append((e, c))
    powers = {}
    for pairs in directions.values():
        common = math.lcm(*(int(c.q) for _, c in pairs))
        generator = sp.Dummy()
        for e, c in pairs:
            powers[e] = generator ** int(c * common)
    return expr.xreplace(powers)


def _is_monomial(expr: sp.Expr) -> bool:
    """True for a product of symbols to integer powers and ``I``, other
    than a number."""
    return not expr.is_number and all(
        f.is_Symbol or f is sp.I
        or (f.is_Pow and f.base.is_Symbol and f.exp.is_Integer)
        for f in sp.Mul.make_args(expr)
    )


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
    base = scalar_eval(
        contraction_coefficient(freqs, filter_spec).to_sympy(), assignment
    )
    scale = max(abs(base), 1e-30)
    parity_sign = (-1) ** (left + right - 1)
    flipped = scalar_eval(
        contraction_coefficient(freqs.negated(), filter_spec).to_sympy(),
        assignment,
    )
    mirrored = scalar_eval(
        contraction_coefficient(freqs.mirrored(), filter_spec).to_sympy(),
        assignment,
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
    expr = contraction_coefficient(shifted, filter_spec).to_sympy()
    values = []
    for offset in _PROBE_OFFSETS:
        point = dict(assignment)
        point[_PROBE_SYMBOL] = offset * scale
        values.append(scalar_eval(expr, point))
    return values
