"""Independent sympy reference for the diagram sums of stcg.contraction.

Each diagram is built with sympy's own arithmetic: its sign, times the sum
of its last left block, times each bubble's filter value over the
"vector factorials" (products of partial sums) of its blocks.  Singular
diagrams are shifted entry by entry by multiples of :data:`EPS`, as the
library's exact kernel shifts them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import sympy as sp

from stcg.diagrams import Diagram, slice_frequencies

#: Regulator of singular diagrams.  A plain symbol carries no assumptions,
#: so it never equals a model symbol (those are real).
EPS = sp.Symbol("eps")


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


def shifted_diagram(diagram, freqs, filter_spec, eps=EPS) -> sp.Expr:
    """The diagram with entry ``i`` of ``mu + nu`` shifted by
    ``2**i * eps``."""
    shifted = [
        w.to_sympy() + 2**i * eps for i, w in enumerate(freqs.mu + freqs.nu)
    ]
    left = len(freqs.mu)
    return _diagram_expr(diagram, shifted[:left], shifted[left:], filter_spec)


def reference_coefficient(freqs, filter_spec) -> sp.Expr:
    """``C[l,r](mu, nu)`` built in sympy: the regular diagrams as they are,
    plus the ``eps**0`` coefficient of the unevaluated sum of the shifted
    singular ones, taken by the series kernel that the ramp limit uses."""
    from stcg.contraction import _ShiftSeries
    from stcg.diagrams import enumerate_diagrams

    mu = [w.to_sympy() for w in freqs.mu]
    nu = [w.to_sympy() for w in freqs.nu]
    terms, singular = [], []
    for diagram in enumerate_diagrams(*freqs.weight):
        blocks = slice_frequencies(diagram, freqs.mu, freqs.nu)
        if any(_vanishing_partial_sum(b) for pair in blocks for b in pair):
            singular.append(shifted_diagram(diagram, freqs, filter_spec))
        else:
            terms.append(_diagram_expr(diagram, mu, nu, filter_spec))
    if singular:
        total = sp.Add(*singular, evaluate=False)
        terms.append(_ShiftSeries(EPS).finite_part(total, str(freqs)))
    return sp.Add(*terms)


def _vanishing_partial_sum(block) -> bool:
    acc = None
    for w in block:
        acc = w if acc is None else acc + w
        if acc.is_zero:
            return True
    return False


def exactly_zero(expr: sp.Expr) -> bool:
    """Exact zero test of a sum of exponentials times rational functions:
    after ``expand``, the terms are grouped by their product of ``exp``
    factors, and each group's rational function must ``cancel`` to 0."""
    groups: dict = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        exps = sp.Mul(*(f for f in sp.Mul.make_args(term) if f.func is sp.exp))
        groups.setdefault(exps, []).append(term / exps)
    return all(sp.cancel(sp.Add(*parts)) == 0 for parts in groups.values())
