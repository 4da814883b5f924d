"""Symbolic operator algebra for bosonic modes and two-level systems.

Operators are sums of canonical monomials.  Per bosonic mode a monomial is a
normal-ordered ladder pair ``adag**m * a**n``; per two-level mode it is a
transition ``|i><j|`` (the identity is expanded into projectors so that the
canonical form is unique).  Multiplication is exact -- commutators are
resolved symbolically and truncation happens only when a matrix is built.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import sympy as sp

from .symbols import scalar_eval

__all__ = [
    "ModeSpec",
    "OperatorSum",
    "parse_operator",
    "monomial_label",
]

_G, _E = 0, 1
_LEVEL = {_G: "g", _E: "e"}


@dataclass(frozen=True)
class ModeSpec:
    """One subsystem: a truncated bosonic mode or a two-level system."""

    name: str
    kind: str
    truncation: int | None = None

    def __post_init__(self):
        if self.kind not in ("bosonic", "two_level"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.truncation is not None and (
            isinstance(self.truncation, bool)
            or not isinstance(self.truncation, numbers.Integral)
        ):
            raise ValueError(
                f"mode {self.name!r}: truncation must be an integer, got "
                f"{self.truncation!r}"
            )
        if self.kind == "bosonic":
            if self.truncation is not None and self.truncation < 2:
                raise ValueError("bosonic truncation must be at least 2")
        elif self.truncation not in (None, 2):
            raise ValueError("two-level modes have dimension 2")

    @property
    def dim(self) -> int:
        if self.kind == "two_level":
            return 2
        if self.truncation is None:
            raise ValueError(
                f"mode {self.name!r} has no truncation; set one before "
                "building matrices"
            )
        return self.truncation


# A monomial key is a tuple with one entry per mode, in declaration order:
#   bosonic mode   -> (m, n)  meaning adag**m a**n
#   two-level mode -> (i, j)  meaning |i><j| with 0 = ground, 1 = excited
MonomialKey = tuple[tuple[int, int], ...]


def _mul_bosonic(f1, f2):
    """Normal-ordered product of two bosonic factors.

    ``a**n1 * adag**m2`` re-orders into a sum over contraction count ``k``
    with weight ``k! * C(n1, k) * C(m2, k)``.
    """
    m1, n1 = f1
    m2, n2 = f2
    out = []
    for k in range(min(n1, m2) + 1):
        weight = (
            math.factorial(k) * math.comb(n1, k) * math.comb(m2, k)
        )
        out.append((sp.Integer(weight), (m1 + m2 - k, n1 + n2 - k)))
    return out


def _mul_two_level(f1, f2):
    i1, j1 = f1
    i2, j2 = f2
    if j1 != i2:
        return []
    return [(sp.Integer(1), (i1, j2))]


class OperatorSum:
    """Linear combination of canonical monomials over a fixed mode list."""

    __slots__ = ("modes", "terms")

    def __init__(
        self,
        modes: Sequence[ModeSpec],
        terms: Mapping[MonomialKey, sp.Expr] | None = None,
    ):
        self.modes = tuple(modes)
        if len({m.name for m in self.modes}) != len(self.modes):
            raise ValueError("duplicate mode names")
        clean: dict[MonomialKey, sp.Expr] = {}
        for key, coeff in (terms or {}).items():
            coeff = sp.sympify(coeff)
            if coeff == 0:
                continue
            if len(key) != len(self.modes):
                raise ValueError("monomial key does not match mode list")
            clean[key] = clean.get(key, sp.Integer(0)) + coeff
        self.terms = {k: c for k, c in clean.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modes: Sequence[ModeSpec]) -> "OperatorSum":
        return cls(modes, {})

    @classmethod
    def identity(cls, modes: Sequence[ModeSpec]) -> "OperatorSum":
        keys = [()]
        for mode in modes:
            if mode.kind == "bosonic":
                keys = [k + ((0, 0),) for k in keys]
            else:
                keys = [k + ((s, s),) for k in keys for s in (_G, _E)]
        return cls(modes, {tuple(k): sp.Integer(1) for k in keys})

    @classmethod
    def monomial(
        cls, modes: Sequence[ModeSpec], key: MonomialKey, coeff=1
    ) -> "OperatorSum":
        return cls(modes, {tuple(key): sp.sympify(coeff)})

    # -- algebra -----------------------------------------------------------

    def _require_same_modes(self, other: "OperatorSum"):
        if self.modes != other.modes:
            raise ValueError("operators live on different mode lists")

    def __add__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        self._require_same_modes(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, sp.Integer(0)) + coeff
        return OperatorSum(self.modes, merged)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        if isinstance(scalar, OperatorSum):
            return NotImplemented
        scalar = sp.sympify(scalar)
        return OperatorSum(
            self.modes, {k: scalar * c for k, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, OperatorSum):
            return self.__rmul__(other)
        return self.matmul(other)

    def matmul(self, other: "OperatorSum") -> "OperatorSum":
        """Operator product, canonicalized."""
        self._require_same_modes(other)
        out: dict[MonomialKey, sp.Expr] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                partial = [(sp.Integer(1), ())]
                for mode, f1, f2 in zip(self.modes, k1, k2):
                    if mode.kind == "bosonic":
                        branch = _mul_bosonic(f1, f2)
                    else:
                        branch = _mul_two_level(f1, f2)
                    partial = [
                        (w * bw, key + (bk,))
                        for w, key in partial
                        for bw, bk in branch
                    ]
                    if not partial:
                        break
                for weight, key in partial:
                    out[key] = out.get(key, sp.Integer(0)) + c1 * c2 * weight
        return OperatorSum(self.modes, out)

    def adjoint(self) -> "OperatorSum":
        out: dict[MonomialKey, sp.Expr] = {}
        for key, coeff in self.terms.items():
            new_key = tuple((n, m) for m, n in key)
            out[new_key] = out.get(new_key, sp.Integer(0)) + sp.conjugate(coeff)
        return OperatorSum(self.modes, out)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        if self.modes != other.modes:
            return False
        diff = self - other
        return all(sp.expand(c) == 0 for c in diff.terms.values())

    def __hash__(self):
        return hash((self.modes, frozenset(self.terms)))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({coeff})*{_label(self.modes, key)}"
            for key, coeff in sorted(self.terms.items())
        )

    __repr__ = __str__

    # -- matrices ----------------------------------------------------------

    def matrix(self, assignment: Mapping | None = None) -> np.ndarray:
        """Dense matrix on the tensor product of truncated mode spaces.

        Mode order follows declaration; bosonic levels ascend, two-level
        basis is (ground, excited).  ``assignment`` resolves any symbols in
        the coefficients.  Each monomial's non-zeros are placed by index
        arithmetic in Kronecker order, with the amplitudes multiplied in
        the order a Kronecker product of the factor matrices would use.
        """
        dims = [mode.dim for mode in self.modes]
        total = int(np.prod(dims)) if dims else 1
        out = np.zeros((total, total), dtype=complex)
        for key, coeff in self.terms.items():
            if coeff.free_symbols:
                value = scalar_eval(coeff, assignment or {})
            else:
                value = complex(coeff)
            rows = cols = np.zeros(1, dtype=np.intp)
            amps = np.ones(1, dtype=complex)
            for mode, factor in zip(self.modes, key):
                r, c, a = _factor_entries(mode, factor)
                rows = np.add.outer(rows * mode.dim, r).ravel()
                cols = np.add.outer(cols * mode.dim, c).ravel()
                amps = np.multiply.outer(amps, a).ravel()
            out[rows, cols] += value * amps
        return out


def _factor_entries(mode: ModeSpec, factor: tuple[int, int]):
    """Non-zeros of one mode's factor matrix as ``(rows, cols, amps)``."""
    if mode.kind == "two_level":
        i, j = factor
        return np.array([i]), np.array([j]), np.ones(1, dtype=complex)
    dim = mode.dim
    m, n = factor
    # <r| adag**m a**n |c> = sqrt(c!/(c-n)!) * sqrt(r!/(r-m)!) delta_{r-m, c-n}
    cols = np.arange(n, min(dim, dim - m + n))
    rows = cols - n + m
    amps = np.ones(len(cols))
    for k in range(n):
        amps *= np.sqrt(cols - k)
    for k in range(m):
        amps *= np.sqrt(rows - k)
    return rows, cols, amps.astype(complex)


def monomial_label(modes: Sequence[ModeSpec], key: MonomialKey) -> str:
    """Round-trippable label for one canonical monomial, e.g. ``"a'^2*sm"``.

    Two-level factors use ``t(i,j)`` addressing; with several two-level
    modes the label would be ambiguous, so that case is rejected.
    """
    if sum(1 for m in modes if m.kind == "two_level") > 1:
        raise ValueError(
            "monomial labels are ambiguous with several two-level modes"
        )
    return _label(modes, key)


def _label(modes: Sequence[ModeSpec], key: MonomialKey) -> str:
    """Factor names of one monomial joined by ``*``; ``"1"`` if none."""
    names = []
    for mode, (i, j) in zip(modes, key):
        if mode.kind == "two_level":
            names.append(f"t({_LEVEL[i]},{_LEVEL[j]})")
            continue
        if i:
            names.append(f"{mode.name}'" + (f"^{i}" if i > 1 else ""))
        if j:
            names.append(mode.name + (f"^{j}" if j > 1 else ""))
    return "*".join(names) or "1"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(
    r"""^(?:
        (?P<name>[A-Za-z_][A-Za-z_0-9]*)(?P<dag>')?(?:\^(?P<pow>\d+))?
        |
        t\(\s*(?P<ti>[ge])\s*,\s*(?P<tj>[ge])\s*\)
    )$""",
    re.VERBOSE,
)

_STATE = {name: level for level, name in _LEVEL.items()}


def _single_two_level(modes: Sequence[ModeSpec]) -> int:
    idx = [i for i, m in enumerate(modes) if m.kind == "two_level"]
    if len(idx) != 1:
        raise ValueError(
            "two-level shorthand needs exactly one two-level mode; "
            "got " + str(len(idx))
        )
    return idx[0]


def parse_operator(text: str, modes: Sequence[ModeSpec]) -> OperatorSum:
    """Parse operator labels like ``"a'^2*a"``, ``"a'*sm"`` or ``"t(g,e)"``.

    Factors are joined with ``*`` and multiplied left to right.  A bare mode
    name is its annihilator, ``'`` marks the adjoint and ``^n`` a power.
    ``sz``, ``sp``, ``sm`` and ``t(i,j)`` address the (unique) two-level
    mode.  The empty string or ``"1"`` is the identity.
    """
    if not isinstance(text, str):
        raise ValueError(
            f"operator must be a string such as \"a'*sm\", got {text!r}"
        )
    modes = tuple(modes)
    by_name = {m.name: i for i, m in enumerate(modes)}
    result = OperatorSum.identity(modes)
    stripped = text.strip()
    if stripped in ("", "1"):
        return result
    for raw in stripped.split("*"):
        token = raw.strip()
        match = _FACTOR_RE.match(token)
        if not match:
            raise ValueError(f"cannot parse operator factor {token!r}")
        if match.group("ti"):
            idx = _single_two_level(modes)
            key = _blank_key(modes)
            key[idx] = (_STATE[match.group("ti")], _STATE[match.group("tj")])
            factor = _expand_identity(modes, key, idx)
        else:
            name = match.group("name")
            power = int(match.group("pow") or 1)
            dag = bool(match.group("dag"))
            if name == "sz":
                idx = _single_two_level(modes)
                key_e = _blank_key(modes)
                key_e[idx] = (_E, _E)
                key_g = _blank_key(modes)
                key_g[idx] = (_G, _G)
                factor = _expand_identity(
                    modes, key_e, idx
                ) - _expand_identity(modes, key_g, idx)
            elif name in ("sp", "sm"):
                idx = _single_two_level(modes)
                key = _blank_key(modes)
                key[idx] = (_E, _G) if name == "sp" else (_G, _E)
                factor = _expand_identity(modes, key, idx)
            elif name in by_name:
                idx = by_name[name]
                if modes[idx].kind != "bosonic":
                    raise ValueError(
                        f"mode {name!r} is two-level; use sz/sp/sm/t(i,j)"
                    )
                key = _blank_key(modes)
                key[idx] = (power, 0) if dag else (0, power)
                factor = _expand_identity(modes, key, idx)
            else:
                raise ValueError(f"unknown mode or shorthand {name!r}")
            if name in ("sz", "sp", "sm") and (dag or power != 1):
                raise ValueError(f"no powers or daggers on {name!r}")
        result = result.matmul(factor)
    return result


def _blank_key(modes: Sequence[ModeSpec]) -> list[tuple[int, int]]:
    return [(0, 0) for _ in modes]


def _expand_identity(
    modes: Sequence[ModeSpec], key: list[tuple[int, int]], fixed: int
) -> OperatorSum:
    """Monomial with identity on every mode except ``fixed``."""
    keys = [()]
    for i, mode in enumerate(modes):
        if i == fixed or mode.kind == "bosonic":
            keys = [k + (tuple(key[i]),) for k in keys]
        else:
            keys = [k + ((s, s),) for k in keys for s in (_G, _E)]
    return OperatorSum(modes, {tuple(k): sp.Integer(1) for k in keys})
