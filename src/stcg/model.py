"""Input models and assembly of effective coarse-grained generators.

A :class:`ModelSpec` lists interaction-picture Hamiltonian terms
``g * h * exp(-i*w*t)`` over declared modes and symbols.  Assembly contracts
products of these terms into an :class:`EffectiveModel`: a corrected
Hamiltonian plus pseudo-dissipators, with coefficients built from the
closed-form contraction coefficients.  Linearly ramped amplitudes are
encoded as pairs of frequency-shifted static terms; after assembly the
shift regulator goes to zero through an exact truncated Laurent series in
the shift, and the constant term is kept.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import sympy as sp

from .contraction import (
    FrequencyTuple,
    _is_plain_product,
    _ShiftSeries,
    _vanishes,
    contraction_coefficient,
)
from .operators import (
    ModeSpec,
    OperatorSum,
    monomial_label,
    parse_operator,
)
from .symbols import TAU, TIME, FreqExpr, GaussianFilter, scalar_eval

__all__ = [
    "HamiltonianTermSpec",
    "DissipatorTermSpec",
    "ModelSpec",
    "EffectiveModel",
    "load_model",
    "parse_quantity",
    "effective_hamiltonian",
    "effective_dissipators",
    "assemble",
    "encode_linear_ramp",
    "prune_terms",
    "ir_limit",
    "export_model",
    "load_effective",
]

#: Base name of the frequency-shift regulator of ramps (see load_model).
RAMP_REGULATOR = "delta"

#: Sample times over a pruning window at which each coefficient's
#: magnitude is taken (ends included).
PRUNE_SAMPLES = 9

#: A name in an exported coefficient that is not a function call.
_SYMBOL_RE = re.compile(r"\b[A-Za-z_][A-Za-z_0-9]*\b(?!\s*\()")


@dataclass(frozen=True)
class HamiltonianTermSpec:
    """One Hamiltonian term ``coeff * op * exp(-i*freq*t)``."""

    coeff: sp.Expr
    freq: FreqExpr
    op: OperatorSum

    def conjugate(self) -> "HamiltonianTermSpec":
        return HamiltonianTermSpec(
            sp.conjugate(self.coeff), -self.freq, self.op.adjoint()
        )


@dataclass(frozen=True)
class DissipatorTermSpec:
    """Pseudo-dissipator ``rate * exp(-i*freq*t) * (L rho J - {JL, rho}/2)``."""

    rate: sp.Expr
    freq: FreqExpr
    left: OperatorSum
    right: OperatorSum

    def conjugate(self) -> "DissipatorTermSpec":
        return DissipatorTermSpec(
            sp.conjugate(self.rate),
            -self.freq,
            self.right.adjoint(),
            self.left.adjoint(),
        )


def unpaired_term(terms: Sequence, values: Sequence, conjugates):
    """The first of ``terms`` without a conjugate partner, or None.

    A term's partner has the frequency and operators of its
    ``conjugate()`` and a value ``v'`` with ``conjugates(v, v')`` for the
    term's own value v; ``values`` holds one value per term, symbolic or
    numeric.  A term may be its own partner.  Terms are grouped by kind,
    frequency and operators, compared exactly, so ``conjugates`` only
    sees candidates with the partner's frequency and operators.
    """
    waiting = defaultdict(list)  # key -> (term, value) still unpaired
    for term, value in zip(terms, values):
        own, partner = _pair_keys(term)
        if own == partner and conjugates(value, value):
            continue
        pending = waiting[partner]
        for n, (_, other) in enumerate(pending):
            if conjugates(value, other):
                del pending[n]
                break
        else:
            waiting[own].append((term, value))
    return next((t for pending in waiting.values() for t, _ in pending), None)


def _pair_keys(term):
    """Kind, frequency and operators of ``term`` and of its conjugate."""
    if isinstance(term, HamiltonianTermSpec):
        return ("H", term.freq, term.op), ("H", -term.freq, term.op.adjoint())
    return (
        ("D", term.freq, term.left, term.right),
        ("D", -term.freq, term.right.adjoint(), term.left.adjoint()),
    )


@dataclass
class ModelSpec:
    """Interaction-picture model: modes, symbols, terms, and the filter."""

    name: str
    modes: tuple[ModeSpec, ...]
    terms: tuple[HamiltonianTermSpec, ...]
    filter_spec: GaussianFilter
    params: dict[str, float | None] = field(default_factory=dict)
    regulator: str | None = None

    def __post_init__(self):
        self.modes = tuple(self.modes)
        self.terms = tuple(self.terms)
        declared = set(self.params) | {TAU.name, TIME.name, self.regulator}
        for term in self.terms:
            used = {s.name for s in term.coeff.free_symbols} | set(
                term.freq.symbols
            )
            unknown = used - declared
            if unknown:
                raise ValueError(
                    f"model {self.name!r} uses undeclared symbol(s) "
                    f"{sorted(unknown)}"
                )

    def check_hermitian(self):
        """Every term must have its conjugate partner in the list."""
        term = unpaired_term(
            self.terms,
            [t.coeff for t in self.terms],
            lambda a, b: _vanishes(a - sp.conjugate(b)),
        )
        if term is not None:
            raise ValueError(
                f"model {self.name!r} not Hermitian: no conjugate partner "
                f"for term at frequency {term.freq}"
            )

    def numeric_assignment(
        self, overrides: Mapping[str, float] | None = None
    ) -> dict[str, float]:
        """Numeric values of the declared symbols, with ``overrides``
        applied; an override must name a declared symbol or ``tau``, and
        ``tau`` only while the filter leaves it symbolic."""
        overrides = overrides or {}
        unknown = set(overrides) - set(self.params) - {TAU.name}
        if unknown:
            raise ValueError(
                f"model {self.name!r} declares no symbol(s) {sorted(unknown)}"
            )
        if TAU.name in overrides and self.filter_spec.tau.is_number:
            raise ValueError(f"tau is already numeric in model {self.name!r}")
        out = {k: v for k, v in self.params.items() if v is not None}
        out.update(overrides)
        missing = [
            k for k in self.params if k not in out or out[k] is None
        ]
        if missing:
            raise ValueError(f"no numeric value for symbol(s) {missing}")
        return out


@dataclass
class EffectiveModel:
    """Coarse-grained generator through ``order`` and the numeric symbol
    values ``params`` it was derived at: exactly the json document of
    :func:`export_model` and :func:`load_effective`."""

    order: int
    modes: tuple[ModeSpec, ...]
    hamiltonian: tuple[HamiltonianTermSpec, ...]
    dissipators: tuple[DissipatorTermSpec, ...]
    params: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

_QUANTITY_RE = re.compile(
    r"^\s*(?P<sign>[-+]\s*)?(?P<twopi>2\s*pi\s*\*\s*)?"
    r"(?P<num>[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?\d+)?)"
    r"\s*(?P<unit>[A-Za-z]*)\s*$"
)

_UNIT_SCALE = {
    "": 1.0,
    "Hz": 1.0,
    "kHz": 1e3,
    "MHz": 1e6,
    "GHz": 1e9,
    "THz": 1e12,
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "ns": 1e-9,
    "ps": 1e-12,
}


def parse_quantity(text) -> float:
    """Parse ``"2pi*2GHz"``-style quantities to plain numbers.

    Frequencies are angular (rad/s): a Hz-family unit gives cycles/s, and
    the explicit ``2pi*`` prefix multiplies by 2*pi -- never implicitly.
    Times use second-family units.  Bare numbers pass through.  A value
    that is not finite (``"1e400ns"``, or an integer too large for a float)
    and a ``bool`` (parsed as text) are rejected.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        value = text
    else:
        match = _QUANTITY_RE.match(str(text))
        if not match:
            raise ValueError(f"cannot parse quantity {text!r}")
        unit = match.group("unit")
        if unit not in _UNIT_SCALE:
            raise ValueError(f"unknown unit {unit!r} in {text!r}")
        value = float(match.group("num")) * _UNIT_SCALE[unit]
        if match.group("twopi"):
            value *= 2.0 * 3.141592653589793
        if (match.group("sign") or "").strip() == "-":
            value = -value
    # An int is compared exactly: one too large for a float is rejected.
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"quantity {text!r} must be finite, got {value}")
    return float(value)


def _coupling_locals(names: Iterable[str]) -> dict:
    out = {n: sp.Symbol(n, real=True) for n in names}
    out["t"] = TIME
    out["tau"] = TAU
    return out


def _json_object(document) -> Mapping:
    """``document``, parsed if it is json text; it must be an object."""
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, Mapping):
        raise ValueError(
            f"a model document must be a json object, got {document!r:.60}"
        )
    return document


def _object_list(key: str, value) -> list:
    """``value``, the ``key`` field of a document: a list of objects."""
    if not isinstance(value, list) or not all(
        isinstance(entry, Mapping) for entry in value
    ):
        raise ValueError(
            f'"{key}" must be a list of objects, got {value!r:.60}'
        )
    return value


def _field(entry: Mapping, key: str, what: str):
    """``entry[key]``; a missing key raises ``ValueError`` naming ``what``,
    the kind of entry, and the field."""
    if key not in entry:
        raise ValueError(f'{what} has no "{key}" field')
    return entry[key]


def _text_field(entry: Mapping, key: str, what: str) -> str:
    """``entry[key]``, which must be a string."""
    value = _field(entry, key, what)
    if not isinstance(value, str):
        raise ValueError(
            f'{what} field "{key}" must be a string, got {value!r}'
        )
    return value


def _modes(entries: list, what: str) -> tuple[ModeSpec, ...]:
    what = f"{what} mode"
    return tuple(
        ModeSpec(
            _field(m, "name", what), _field(m, "kind", what),
            m.get("truncation"),
        )
        for m in entries
    )


def load_model(document) -> ModelSpec:
    """Build a :class:`ModelSpec` from a model document (dict, json text,
    or path to a json file).

    The term list must be Hermitian as written: a term without its
    conjugate partner is rejected, as is a document that is not an object,
    ``modes``, ``terms`` or ``ramps`` that is not a list of objects, a
    missing field of a mode, term or ramp, a field of the wrong type, and
    ``symbols`` that declare the reserved names ``t`` or ``tau``.

    The shift that splits ramped terms (:func:`encode_linear_ramp`) is
    :data:`RAMP_REGULATOR` with ``_`` appended until no symbol, ramp
    duration, coupling, ``t`` or ``tau`` uses the name.  It is named only
    when a ramp entry matched a term: a model whose ramps match none has
    no regulator and integrates exactly.
    """
    if isinstance(document, str) and not document.lstrip().startswith("{"):
        with open(document) as fh:
            document = fh.read()
    document = _json_object(document)
    modes = _modes(_object_list("modes", document.get("modes", [])), "model")
    symbols = document.get("symbols", {})
    if not isinstance(symbols, Mapping):
        raise ValueError(
            f'"symbols" must be an object such as {{"w": "2pi*1GHz"}}, got '
            f"{symbols!r}"
        )
    params: dict[str, float | None] = {
        name: None if value is None else parse_quantity(value)
        for name, value in symbols.items()
    }
    reserved = sorted({TIME.name, TAU.name} & set(params))
    if reserved:
        raise ValueError(f'"symbols" declares reserved name(s) {reserved}')

    filt = document.get("filter", {"kind": "gaussian"})
    if not isinstance(filt, Mapping):
        raise ValueError(
            f'"filter" must be an object such as {{"kind": "gaussian", '
            f'"tau": "0.2ns"}}, got {filt!r}'
        )
    if filt.get("kind", "gaussian") != "gaussian":
        raise ValueError(f"unsupported filter kind {filt.get('kind')!r}")
    tau = filt.get("tau")
    filter_spec = GaussianFilter(TAU if tau is None else parse_quantity(tau))
    if tau is not None:
        params.setdefault(TAU.name, parse_quantity(tau))

    locs = _coupling_locals(params)
    ramps = [
        (
            _text_field(ramp, "symbol", "model ramp"),
            _text_field(ramp, "duration", "model ramp"),
        )
        for ramp in _object_list("ramps", document.get("ramps", []))
    ]
    parsed = []  # (term, its ramp duration or None)
    for entry in _object_list("terms", document.get("terms", [])):
        coupling = _field(entry, "coupling", "model term")
        if isinstance(coupling, bool) or not isinstance(
            coupling, (str, int, float)
        ):
            raise ValueError(
                f"coupling must be a string or a number, got {coupling!r}"
            )
        coeff = sp.sympify(coupling, locals=locs)
        freq = FreqExpr.parse(_field(entry, "frequency", "model term"))
        unknown = set(freq.symbols) - set(params)
        if unknown:
            raise ValueError(f"undeclared frequency symbol(s) {sorted(unknown)}")
        op = parse_operator(_field(entry, "operator", "model term"), modes)
        term = HamiltonianTermSpec(coeff, freq, op)
        # A term is ramped (coupling means coeff * t/duration) when a ramp
        # entry's symbol appears in its coupling; an explicit "ramped" field
        # on the term overrides the symbol match.
        matched = None
        if entry.get("ramped") is not False:
            for symbol, duration in ramps:
                if sp.Symbol(symbol, real=True) in coeff.free_symbols:
                    matched = duration
                    break
            if entry.get("ramped") and matched is None:
                raise ValueError(
                    f"term at frequency {freq} marked ramped but no ramp "
                    "entry names a symbol from its coupling"
                )
        parsed.append((term, matched))

    regulator = None
    if any(duration is not None for _, duration in parsed):
        taken = {TIME.name, TAU.name, *params, *(d for _, d in ramps)}
        taken |= {s.name for t, _ in parsed for s in t.coeff.free_symbols}
        regulator = RAMP_REGULATOR
        while regulator in taken:
            regulator += "_"
    terms = []
    for term, duration in parsed:
        if duration is None:
            terms.append(term)
        else:
            params.setdefault(duration, None)
            terms.extend(
                encode_linear_ramp(
                    term, sp.Symbol(duration, positive=True), regulator
                )
            )

    model = ModelSpec(
        name=document.get("name", "model"),
        modes=modes,
        terms=tuple(terms),
        filter_spec=filter_spec,
        params=params,
        regulator=regulator,
    )
    model.check_hermitian()
    return model


# ---------------------------------------------------------------------------
# Ramps
# ---------------------------------------------------------------------------


def encode_linear_ramp(
    term: HamiltonianTermSpec,
    duration: sp.Symbol,
    regulator: str = RAMP_REGULATOR,
) -> tuple[HamiltonianTermSpec, HamiltonianTermSpec]:
    """Encode ``coeff * (t/T)`` as two static terms split by a regulator.

    ``g*(t/T)*exp(-i*w*t)`` is the limit of ``(i*g/(2*d*T)) *
    [exp(-i*(w+d)*t) - exp(-i*(w-d)*t)]`` as the shift ``d`` goes to zero;
    the limit is taken after assembly (the constant term of the merged
    coefficient's truncated Laurent series in ``d``).  The symmetric split
    keeps the encoded term list exactly Hermitian at finite shift, not just
    in the limit.
    """
    shift = sp.Symbol(regulator, real=True)
    if shift in term.coeff.free_symbols:
        raise ValueError(f"regulator {regulator!r} already used in coupling")
    base = sp.I * term.coeff / (2 * shift * duration)
    reg = FreqExpr.symbol(regulator)
    return (
        HamiltonianTermSpec(base, term.freq + reg, term.op),
        HamiltonianTermSpec(-base, term.freq - reg, term.op),
    )


def _ramp_limit(groups: Mapping, regulator: str | None):
    """Take the regulator -> 0 limit groupwise.

    ``groups`` maps a merge key to a list of ``(coeff, shift_multiple)``
    pairs.  The limit of the combined coefficient, residual phase
    ``exp(-i*m*shift*t)`` included, is its finite part in the shift
    (:meth:`stcg.contraction._ShiftSeries.finite_part`, which names the term
    if the limit does not exist), multiplied out by :func:`_expanded_terms`.
    Without a regulator the shift is a ``Dummy`` that no coefficient
    contains, so each group is its own constant term.  Zero results are
    dropped.
    """
    shift = sp.Symbol(regulator, real=True) if regulator else sp.Dummy()
    kernel = _ShiftSeries(shift)
    out = {}
    for key, pieces in groups.items():
        # Unevaluated: the pieces are summed once, after multiplying out.
        combined = sp.Add(
            *(
                coeff * sp.exp(-sp.I * sp.Rational(m) * shift * TIME)
                for coeff, m in pieces
            ),
            evaluate=False,
        )
        limit = kernel.finite_part(combined, f"term {key}")
        value = sp.Add(*_expanded_terms(limit))
        if value != 0:
            out[key] = value
    return out


def _expanded_terms(expr: sp.Expr) -> list:
    """The terms of ``sp.expand(expr)``, for an ``expr`` whose factors are
    already expanded apart from products with sums.

    Products are multiplied out term by term.  Only a term with a factor
    that ``expand`` would still rewrite (not plain, see
    :func:`stcg.contraction._is_plain`: a power of a sum, such as a
    non-atomic denominator, or another compound factor) goes through
    ``sp.expand``, alone: ``expand`` moves numeric factors into such
    denominators, and the exported forms keep that.
    """
    out = []
    for term in _distributed(expr):
        if _is_plain_product(term):
            out.append(term)
        else:
            out.extend(sp.Add.make_args(sp.expand(term)))
    return out


def _distributed(expr: sp.Expr) -> list:
    if expr.is_Add:
        return [t for arg in expr.args for t in _distributed(arg)]
    if expr.is_Mul:
        terms = [sp.Integer(1)]
        for factor in expr.args:
            parts = _distributed(factor) if factor.is_Add else (factor,)
            terms = [t * p for t in terms for p in parts]
        return terms
    return [expr]


def _split_regulator(freq: FreqExpr, regulator: str | None):
    """Return (base frequency, regulator multiple)."""
    if regulator is None or regulator not in freq.symbols:
        return freq, Fraction(0)
    coeffs = dict(freq.coeffs)
    mult = coeffs.pop(regulator)
    return FreqExpr(coeffs), mult


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _orders(order, minimum: int) -> range:
    """The orders ``minimum..order``; ``order`` must be an ``int`` (not a
    ``bool``) of at least 1."""
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValueError(f"derivation order must be at least 1, got {order!r}")
    return range(minimum, order + 1)


def _product(terms: Sequence[HamiltonianTermSpec]) -> OperatorSum:
    """Operator product ``terms[0].op @ terms[1].op @ ...``, left to right."""
    op = terms[0].op
    for term in terms[1:]:
        op = op.matmul(term.op)
    return op


def _merge(model: ModelSpec, slots: Mapping) -> list:
    """Resolve merged ``(key, frequency)`` slots into sorted terms.

    Each slot's list of pieces is summed once, and slots are grouped by
    regulator-free frequency; each group is summed through :func:`_ramp_limit`,
    the shift's limit taken.  Returns ``(key, frequency, coefficient)``
    triples with non-zero coefficients, sorted by frequency text, then key.
    """
    grouped: dict = {}
    for (key, freq), pieces in slots.items():
        base, mult = _split_regulator(freq, model.regulator)
        grouped.setdefault((key, base), []).append((sp.Add(*pieces), mult))
    final = _ramp_limit(grouped, model.regulator)
    return [
        (key, base, final[(key, base)])
        for key, base in sorted(final, key=lambda kb: (str(kb[1]), kb[0]))
    ]


def _coefficients(model: ModelSpec):
    """:func:`contraction_coefficient` at the model's filter, each tuple
    computed once for the life of the returned function: one assembly."""
    memo: dict = {}

    def coefficient(freqs: FrequencyTuple) -> sp.Expr:
        if freqs not in memo:
            memo[freqs] = contraction_coefficient(freqs, model.filter_spec)
        return memo[freqs]

    return coefficient


def effective_hamiltonian(
    model: ModelSpec, order
) -> tuple[HamiltonianTermSpec, ...]:
    """Corrected Hamiltonian terms through the given order.

    For every tuple of input terms the coefficient is the symmetrized
    contraction coefficient times the product of couplings; the operator is
    the product of the tuple's operators (outermost last), the frequency the
    tuple sum.  Terms merge on (canonical monomial, frequency).
    """
    slots = defaultdict(list)
    coefficient = _coefficients(model)
    for k in _orders(order, 1):
        for combo in itertools.product(model.terms, repeat=k):
            mu = tuple(term.freq for term in combo)
            c_fwd = coefficient(FrequencyTuple(mu))
            c_bwd = coefficient(FrequencyTuple(mu[::-1]).negated())
            q = (c_fwd + c_bwd) / 2 * sp.Mul(*(term.coeff for term in combo))
            if q == 0:
                continue
            op = _product(combo[::-1])
            total = sum(mu, FreqExpr.zero())
            for key, mono in op.terms.items():
                slots[key, total].append(q * mono)
    return tuple(
        HamiltonianTermSpec(
            coeff, base, OperatorSum.monomial(model.modes, key)
        )
        for key, base, coeff in _merge(model, slots)
    )


def effective_dissipators(
    model: ModelSpec, order
) -> tuple[DissipatorTermSpec, ...]:
    """Pseudo-dissipator terms through the given order (empty below 2).

    The rate combines the direct contraction coefficient of ``(mu, nu)``
    with the mirrored one of the negated tuples ``(-nu, -mu)``, which closes
    the term set under conjugation exactly (see tests).  Terms merge on
    (L monomial, J monomial, frequency).
    """
    slots = defaultdict(list)
    coefficient = _coefficients(model)
    for k in _orders(order, 2):
        for l in range(1, k):
            r = k - l
            for lcombo in itertools.product(model.terms, repeat=l):
                mu = tuple(term.freq for term in lcombo)
                for rcombo in itertools.product(model.terms, repeat=r):
                    nu = tuple(term.freq for term in rcombo)
                    c_fwd = coefficient(FrequencyTuple(mu, nu))
                    c_bwd = coefficient(FrequencyTuple(nu, mu).negated())
                    coupling = sp.Mul(*(t.coeff for t in lcombo + rcombo))
                    rate = -sp.I * (c_fwd - c_bwd) * coupling
                    if rate == 0:
                        continue
                    left = _product(lcombo[::-1])
                    right = _product(rcombo)
                    total = sum(mu + nu, FreqExpr.zero())
                    for lkey, lmono in left.terms.items():
                        for jkey, jmono in right.terms.items():
                            slots[(lkey, jkey), total].append(
                                rate * lmono * jmono
                            )
    return tuple(
        DissipatorTermSpec(
            rate,
            base,
            OperatorSum.monomial(model.modes, lkey),
            OperatorSum.monomial(model.modes, jkey),
        )
        for (lkey, jkey), base, rate in _merge(model, slots)
    )


def assemble(model: ModelSpec, order: int) -> EffectiveModel:
    """Full effective model: Hamiltonian and dissipators through ``order``,
    with the model's numeric symbol values as ``params``."""
    return EffectiveModel(
        order=order,
        modes=model.modes,
        hamiltonian=effective_hamiltonian(model, order),
        dissipators=effective_dissipators(model, order),
        params={k: v for k, v in model.params.items() if v is not None},
    )


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def ir_limit(expr: sp.Expr) -> sp.Expr:
    """Drop exponentially filtered content: any ``exp`` carrying ``tau``
    (a non-zero filtered frequency) goes to zero, bare ``tau`` powers stay.

    Models the regime where every retained frequency mismatch is far above
    the filter cutoff."""
    expr = sp.expand(expr)
    return sp.expand(
        expr.replace(
            lambda e: e.func is sp.exp and e.has(TAU),
            lambda e: sp.Integer(0),
        )
    )


def _peak_magnitude(coeff, assignment, times, what: str) -> float:
    """Largest ``|coeff|`` at the ``times``; a value that is not finite
    raises ``ValueError`` naming ``what``, the term."""
    peak = 0.0
    for t in times:
        point = dict(assignment)
        point[TIME.name] = t
        value = abs(scalar_eval(coeff, point))
        if not math.isfinite(value):
            raise ValueError(f"{what} is {value} at t = {t}")
        peak = max(peak, value)
    return peak


def prune_terms(
    eff: EffectiveModel,
    threshold: float,
    assignment: Mapping[str, float],
    time_window: tuple[float, float] | None = None,
) -> EffectiveModel:
    """Drop terms whose peak numeric magnitude is below ``threshold``.

    Coefficients are evaluated at t = 0, or, with a ``time_window``, at
    :data:`PRUNE_SAMPLES` evenly spaced times spanning it, ends included,
    and the largest magnitude is kept.  Order, modes and ``params`` are
    kept as they are.  A window that is not finite or does not end after it
    starts, and a coefficient that is not finite at a sample time, raise
    ``ValueError``.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    if time_window is None:
        times = [0.0]
    else:
        t0, t1 = time_window
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValueError(
                f"pruning window must be finite and end after it starts, "
                f"got {time_window}"
            )
        times = [
            t0 + (t1 - t0) * i / (PRUNE_SAMPLES - 1)
            for i in range(PRUNE_SAMPLES)
        ]
    ham = [
        term
        for term in eff.hamiltonian
        if _peak_magnitude(
            term.coeff, assignment, times,
            f"coefficient of {term.op} at frequency {term.freq}",
        ) >= threshold
    ]
    dis = [
        term
        for term in eff.dissipators
        if _peak_magnitude(
            term.rate, assignment, times,
            f"rate of L = {term.left}, J = {term.right} at frequency "
            f"{term.freq}",
        ) >= threshold
    ]
    return replace(eff, hamiltonian=tuple(ham), dissipators=tuple(dis))


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def _mono_label(modes, op: OperatorSum) -> str:
    ((key, coeff),) = op.terms.items()
    if coeff != 1:
        raise ValueError("export expects unit-coefficient monomials")
    return monomial_label(modes, key)


def export_model(eff: EffectiveModel, fmt: str = "json"):
    """Serialize an effective model ("json" dict or "text" listing).

    The json document holds every field of ``eff``; ``"params"`` is left
    out when empty.  The text listing shows the terms only.
    """
    if fmt == "json":
        document = {
            "order": eff.order,
            "modes": [
                {"name": m.name, "kind": m.kind, "truncation": m.truncation}
                for m in eff.modes
            ],
            "hamiltonian": [
                {
                    "coeff": str(term.coeff),
                    "frequency": str(term.freq),
                    "operator": _mono_label(eff.modes, term.op),
                }
                for term in eff.hamiltonian
            ],
            "dissipators": [
                {
                    "rate": str(term.rate),
                    "L": _mono_label(eff.modes, term.left),
                    "J": _mono_label(eff.modes, term.right),
                    "frequency": str(term.freq),
                }
                for term in eff.dissipators
            ],
        }
        if eff.params:
            document["params"] = dict(eff.params)
        return document
    if fmt == "text":
        lines = [f"# effective model, order {eff.order}", "[hamiltonian]"]
        for term in eff.hamiltonian:
            lines.append(
                f"  {_mono_label(eff.modes, term.op):<16} "
                f"freq {str(term.freq):<18} coeff {term.coeff}"
            )
        lines.append("[dissipators]")
        for term in eff.dissipators:
            lines.append(
                f"  L {_mono_label(eff.modes, term.left):<12} "
                f"J {_mono_label(eff.modes, term.right):<12} "
                f"freq {str(term.freq):<18} rate {term.rate}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def load_effective(document) -> EffectiveModel:
    """Inverse of :func:`export_model` for the json format (a dict or json
    text).

    A document that is not an object, a missing field, ``modes``,
    ``hamiltonian`` or ``dissipators`` that is not a list of objects, a
    ``coeff``, ``rate``, ``L`` or ``J`` that is not a string, an ``order``
    that is not an integer of at least 1, or ``params`` that do not map
    names to finite numbers raises ``ValueError`` naming the field.
    """
    document = _json_object(document)
    order = document.get("order")
    if (
        isinstance(order, bool)
        or not isinstance(order, numbers.Integral)
        or order < 1
    ):
        raise ValueError(
            f'effective model "order" must be an integer >= 1, got {order!r}'
        )
    params = document.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(
            f'effective model "params" must be an object such as '
            f'{{"g": 0.3}}, got {params!r:.60}'
        )
    for name, value in params.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max
        ):
            raise ValueError(
                f'effective model param "{name}" must be a finite number, '
                f"got {value!r}"
            )
    what = "effective model"
    modes = _modes(
        _object_list("modes", _field(document, "modes", what)), what
    )
    hamiltonian = _object_list(
        "hamiltonian", _field(document, "hamiltonian", what)
    )
    dissipators = _object_list(
        "dissipators", _field(document, "dissipators", what)
    )
    what = "effective model term"
    values = [_text_field(entry, "coeff", what) for entry in hamiltonian]
    values += [_text_field(entry, "rate", what) for entry in dissipators]
    locs = _coupling_locals(set().union(*map(_symbol_names, values)))
    ham = tuple(
        HamiltonianTermSpec(
            sp.sympify(entry["coeff"], locals=locs),
            FreqExpr.parse(_field(entry, "frequency", what)),
            parse_operator(_field(entry, "operator", what), modes),
        )
        for entry in hamiltonian
    )
    dis = tuple(
        DissipatorTermSpec(
            sp.sympify(entry["rate"], locals=locs),
            FreqExpr.parse(_field(entry, "frequency", what)),
            parse_operator(_text_field(entry, "L", what), modes),
            parse_operator(_text_field(entry, "J", what), modes),
        )
        for entry in dissipators
    )
    return EffectiveModel(
        order=order,
        modes=modes,
        hamiltonian=ham,
        dissipators=dis,
        params=dict(params),
    )


def _symbol_names(expr_text: str) -> set[str]:
    """Names of the symbols in ``expr_text``: every name that is not a
    function (followed by ``(``) or one of the constants ``I``, ``E``,
    ``pi``."""
    return set(_SYMBOL_RE.findall(expr_text)) - {"I", "E", "pi"}
