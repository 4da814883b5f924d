"""Exact frequency bookkeeping, scalar evaluation, and the Gaussian filter.

Frequencies are linear combinations of named symbols with rational
coefficients, so "is this combination exactly zero?" is always decidable.
That question gates every division performed by the contraction machinery,
which is why floats are not allowed in :class:`FreqExpr`.  Coefficient texts
are read by :func:`parse_scalar`, an n-ary reader of Python's syntax tree
that never runs the text.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from fractions import Fraction
from typing import Mapping

import sympy as sp
from sympy.core.evalf import PrecisionExhausted

__all__ = [
    "TAU",
    "TIME",
    "FreqExpr",
    "GaussianFilter",
    "freq_symbol",
    "parse_scalar",
    "scalar_eval",
]

#: Coarse-graining time scale (positive by construction).
TAU = sp.Symbol("tau", positive=True)

#: Laboratory time.
TIME = sp.Symbol("t", real=True)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")

_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)\s*
    (?:(?P<num>\d+)\s*(?:/\s*(?P<den>0*[1-9]\d*))?\s*\*\s*)?  # n/d* with d > 0
    (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)


def freq_symbol(name: str) -> sp.Symbol:
    """Real sympy symbol used for the frequency ``name``."""
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid frequency symbol name: {name!r}")
    return sp.Symbol(name, real=True)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, sp.Rational):
        return Fraction(int(value.p), int(value.q))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"frequency coefficients must be exact rationals, got {value!r} "
        f"of type {type(value).__name__}"
    )


class FreqExpr:
    """Exact rational linear combination of named frequency symbols.

    Immutable and hashable.  There is deliberately no constant term: a
    frequency is always a combination of declared symbols, and the zero
    combination prints as ``"0"``.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[str, Fraction] | None = None):
        clean: dict[str, Fraction] = {}
        if coeffs:
            for name, c in coeffs.items():
                frac = _as_fraction(c)
                if not _NAME_RE.match(name):
                    raise ValueError(f"invalid frequency symbol name: {name!r}")
                if frac != 0:
                    clean[name] = frac
        self._coeffs = dict(sorted(clean.items()))
        self._hash = hash(tuple(self._coeffs.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def symbol(cls, name: str) -> "FreqExpr":
        return cls({name: Fraction(1)})

    @classmethod
    def zero(cls) -> "FreqExpr":
        return cls()

    @classmethod
    def parse(cls, text: str) -> "FreqExpr":
        """Parse strings like ``"wc + wa"``, ``"-2*wp"`` or ``"5/6*wd"``."""
        if not isinstance(text, str):
            raise ValueError(
                f"frequency must be a string such as 'wc - wa', got {text!r}"
            )
        stripped = text.strip()
        if stripped in ("0", ""):
            return cls.zero()
        coeffs: dict[str, Fraction] = {}
        pos = 0
        first = True
        while pos < len(stripped):
            match = _TERM_RE.match(stripped, pos)
            if not match or (not first and match.group("sign") == ""):
                raise ValueError(f"cannot parse frequency expression {text!r}")
            sign = -1 if match.group("sign") == "-" else 1
            num = match.group("num")
            den = match.group("den")
            coeff = Fraction(int(num), int(den or 1)) if num else Fraction(1)
            name = match.group("name")
            coeffs[name] = coeffs.get(name, Fraction(0)) + sign * coeff
            pos = match.end()
            while pos < len(stripped) and stripped[pos].isspace():
                pos += 1
            first = False
        return cls(coeffs)

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[str, Fraction]:
        return dict(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self._coeffs)

    def to_sympy(self) -> sp.Expr:
        return sp.Add(
            *(
                sp.Rational(c.numerator, c.denominator) * freq_symbol(name)
                for name, c in self._coeffs.items()
            )
        )

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Numeric value given a value for every symbol that appears."""
        total = 0.0
        for name, coeff in self._coeffs.items():
            if name not in assignment:
                raise KeyError(f"no value provided for frequency symbol {name!r}")
            total += float(coeff) * float(assignment[name])
        return total

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "FreqExpr", sign: int) -> "FreqExpr":
        coeffs = dict(self._coeffs)
        for name, c in other._coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + sign * c
        return FreqExpr(coeffs)

    def __add__(self, other):
        if not isinstance(other, FreqExpr):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, FreqExpr):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "FreqExpr":
        return FreqExpr({n: -c for n, c in self._coeffs.items()})

    def __mul__(self, factor):
        if isinstance(factor, float):
            raise TypeError("frequency coefficients must stay exact; no floats")
        frac = _as_fraction(factor)
        return FreqExpr({n: c * frac for n, c in self._coeffs.items()})

    __rmul__ = __mul__

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FreqExpr) and self._coeffs == other._coeffs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FreqExpr({self})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for name, c in self._coeffs.items():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if mag == 1:
                body = name
            elif mag.denominator == 1:
                body = f"{mag.numerator}*{name}"
            else:
                body = f"{mag.numerator}/{mag.denominator}*{name}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


class GaussianFilter:
    """Gaussian coarse-graining window: ``f(w) = exp(-w**2 * tau**2 / 2)``.

    ``tau`` may be the symbol :data:`TAU` (default) or an explicit number.
    A numeric ``tau`` is held exactly: a float becomes the rational of its
    15-digit decimal (``2e-10`` gives ``1/5000000000``), so that the
    filter values of one coefficient, and the series expanded from them,
    cancel exactly.
    """

    def __init__(self, tau=TAU):
        tau = sp.sympify(tau)
        if tau.is_number and not tau.is_finite:
            raise ValueError(f"filter time scale must be finite, got {tau}")
        if tau.is_number and tau.is_negative:
            raise ValueError("filter time scale must be non-negative")
        if tau.has(sp.Float):
            tau = sp.nsimplify(tau, rational=True)
        self.tau = tau

    def __call__(self, freq) -> sp.Expr:
        if isinstance(freq, FreqExpr):
            freq = freq.to_sympy()
        return sp.exp(-(sp.sympify(freq) ** 2) * self.tau**2 / 2)

    def __repr__(self):
        return f"GaussianFilter(tau={self.tau})"


def scalar_eval(expr, assignment: Mapping | None = None) -> complex:
    """Evaluate a scalar expression to a complex number.

    ``assignment`` maps symbol names (or sympy symbols) to numbers and must
    cover every free symbol of ``expr``.  A finite float value (or each
    part of a complex one) stands for the rational of its 15-digit decimal,
    as a numeric tau does in :class:`GaussianFilter`: a generator derived
    at a symbolic tau, evaluated at ``tau=1.25e-10``, is the one derived at
    that tau.  The exact values are put in with one ``xreplace``, and one
    ``evalf`` pass raises the working precision until the result holds 15
    correct digits.  Where no precision can (a sum that cancels to zero at
    this point), the exact expression is evaluated as it stands: the result
    is then 0, or ``nan`` for a vanishing denominator.
    """
    expr = sp.sympify(expr)
    values = {
        key if isinstance(key, str) else key.name: value
        for key, value in (assignment or {}).items()
    }
    missing = sorted(s.name for s in expr.free_symbols if s.name not in values)
    if missing:
        names = ", ".join(missing)
        raise KeyError(f"no value provided for symbol(s): {names}")
    exact = expr.xreplace(
        {s: _exact(values[s.name]) for s in expr.free_symbols}
    )
    try:
        return complex(exact.evalf(strict=True))
    except (PrecisionExhausted, ZeroDivisionError):
        return complex(sp.N(exact))


def _exact(value) -> sp.Expr:
    """``value`` for :func:`scalar_eval`, a finite float as the rational of
    its 15-digit decimal."""
    if isinstance(value, complex):
        return _exact(value.real) + sp.I * _exact(value.imag)
    if isinstance(value, float) and math.isfinite(value):
        return sp.Rational(f"{value:.15g}")
    return sp.sympify(value)


#: Constants a scalar text may name (after the names it declares).
_CONSTANTS = {"I": sp.I, "E": sp.E, "pi": sp.pi}
_SUM = {ast.Add: operator.add, ast.Sub: operator.sub}
_PRODUCT = {ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _chain(node, ops):
    """The operands of a left-nested chain of ``ops`` (``a - b + c`` is
    ``((a - b) + c)``), read off its left spine in a loop: the first
    operand, then ``(op, operand)`` pairs in text order."""
    tail = []
    while type(node) is ast.BinOp and type(node.op) in ops:
        tail.append((ops[type(node.op)], node.right))
        node = node.left
    return node, tail[::-1]


def _sum(first, tail):
    """``first`` plus or minus each operand of ``tail``, as one ``Add``."""
    return sp.Add(
        first,
        *(x if op is operator.add else -x for op, x in tail),
    )


def _product(first, tail):
    """``first`` times or over each operand of ``tail``.

    While the running product is a number or a sum, each step is the
    binary operation, as Python evaluates the text: a number divides a
    Float exactly, and a number times a sum distributes.  The rest is one
    ``Mul``, which is what the binary steps give from there on."""
    acc, tail = first, list(tail)
    while tail and (acc.is_Number or acc.is_Add):
        op, x = tail.pop(0)
        acc = op(acc, x)
    if not tail:
        return acc
    return sp.Mul(
        acc,
        *(x if op is operator.mul else sp.Pow(x, -1) for op, x in tail),
    )


def parse_scalar(text: str, symbols: Mapping[str, sp.Expr]) -> sp.Expr:
    """Read a coefficient such as ``"g**2*exp(-tau**2*w**2/2)/(4*w)"``.

    The text is parsed, never run as Python.  It may hold int and float
    literals (a float is the ``sp.Float`` of its text), names, unary
    ``+``/``-``, ``+ - * / **`` (``^`` reads as ``**``) and calls.  A name
    is the entry of ``symbols``, else ``I``, ``E`` or ``pi``, else a plain
    ``Symbol``.  A call names a sympy function or ``sqrt``; a name that
    sympy does not define is an undefined ``Function``.  Anything else
    (attributes, subscripts, keywords, strings, lambdas, a call of a sympy
    name that is not a function), and a text nested too deeply for
    Python's parser, raises ``ValueError``.  What it accepts reads as
    ``sympify(text, locals=symbols)`` would read it.

    A chain of ``+`` and ``-`` is read into one ``Add`` and a chain of
    ``*`` and ``/`` into one ``Mul`` (:func:`_sum`, :func:`_product`),
    walking the chain's left spine in a loop: a sum of many terms is one
    level deep, not one level per term.
    """
    source = text.replace("^", "**").strip()
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(
            f"cannot parse {text!r:.60}: nested too deeply"
        ) from None

    def read(node):
        kind = type(node)
        if kind is ast.Constant and type(node.value) is int:
            return sp.Integer(node.value)
        if kind is ast.Constant and type(node.value) is float:
            return sp.Float(ast.get_source_segment(source, node))
        if kind is ast.Name:
            if node.id in symbols:
                return symbols[node.id]
            if node.id in _CONSTANTS:
                return _CONSTANTS[node.id]
            return sp.Symbol(node.id)
        if kind is ast.BinOp and type(node.op) is ast.Pow:
            return read(node.left) ** read(node.right)
        for ops, combine in ((_SUM, _sum), (_PRODUCT, _product)):
            if kind is ast.BinOp and type(node.op) in ops:
                first, tail = _chain(node, ops)
                return combine(read(first), [(op, read(x)) for op, x in tail])
        if kind is ast.UnaryOp and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](read(node.operand))
        if (
            kind is ast.Call and type(node.func) is ast.Name
            and not node.keywords
        ):
            return _function(node.func.id, text)(*map(read, node.args))
        raise ValueError(
            f"cannot read {text!r}: {kind.__name__} is not allowed in a "
            "coefficient"
        )

    try:
        return read(tree.body)
    except TypeError as exc:
        raise ValueError(f"cannot read {text!r}: {exc}") from None
    except RecursionError:
        raise ValueError(
            f"cannot read {text!r:.60}: nested too deeply"
        ) from None


def _function(name: str, text: str):
    """The function that a call in :func:`parse_scalar` names."""
    value = getattr(sp, name, None)
    if value is sp.sqrt or isinstance(value, sp.FunctionClass):
        return value
    if value is not None:
        raise ValueError(f"cannot read {text!r}: {name} is not a function")
    return sp.Function(name)
