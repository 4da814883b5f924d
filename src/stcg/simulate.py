"""Numerical integration of coarse-grained and exact dynamics.

The coarse-grained branch integrates
``drho/dt = -i[H(t), rho] + sum_j rate_j(t) * exp(-i*W_j*t) *
(L rho J - {JL, rho}/2)``; the exact branch integrates the von Neumann
equation of the input model.  Fixed-step RK4 keeps trajectories
reproducible; trajectories can then be Gaussian-averaged in time and
reduced to observable series.

Both branches map a Hermitian rho to a Hermitian rho': every H term and
dissipator has a partner at the opposite frequency with the adjoint
operators and the conjugate value.  That is decided once, on the terms
of the model, when they are realized: time-free values must agree to
``PAIR_RTOL`` relative, time-dependent ones exactly as sympy
expressions.  An unpaired term raises ``ValueError``, and so does a rho0
that is not exactly Hermitian.

The density-matrix right-hand side is ``X + X^dagger`` with ``X = A(t)
rho + U``, ``A = -iH - sum_j r_j JL_j / 2`` and U the jump sum ``sum_j
r_j(t) L_j rho J_j`` on its upper triangle, diagonal halved; every stage
and sample is exactly Hermitian.  A is stored on the union non-zero
pattern of all H and JL matrices, K slots per row, and rebuilt at each
new time by one small product over the term coefficients.  A narrow
pattern (``K * GATHER_RATIO <= d``) is applied by K row gathers, a wide
one by one dense matrix product.  The jump terms form one flat table
built from the non-zeros of every L and J, K' weighted entries of rho per
output entry, applied together by one gather of rho, one of the
coefficients and one sum over the slots.  The time-free coefficients are
evaluated together by one vectorised exp, and a call at the time of the
previous one (the two RK4 midpoint stages, a step's last stage and the
next step's first) reuses the coefficient-weighted values.

A run without dissipators takes the vector path instead when rho0 is
positive semidefinite: rho0 is split as ``Psi Psi^dagger`` by a pivoted
Cholesky (rank r) and RK4 integrates ``Psi' = -i H(t) Psi`` on the d x r
block, applying A by the same slot product.  Each sample stores the
block Psi itself, a factor of its state: the trajectory holds N x d x r
numbers, not N x d x d, and ``Trajectory.states`` builds ``Psi
Psi^dagger``, made exactly Hermitian, when it is read.  Unlike rho-RK4,
whose generator is trace-free, RK4 on vectors loses norm (about
theta^6/72 a step), so the vector path runs one sample interval at a
time and repeats an interval at twice the steps, keeping the finer
stride, while ``sum |psi|^2`` is more than ``TRACE_TOL / 2`` from its
start and changed over the interval, by a loss or a gain, by more than
``TRACE_TOL / 2 / (n_samples - 1)``.  ``Trajectory.meta["rhs"]`` records
the path taken (``vector`` or ``hermitian``) and ``meta["steps"]`` the
RK4 steps, repeated intervals included.  Both paths share one RK4 loop
with stage times ``t0 + n*dt``, work in preallocated arrays and write
samples into a preallocated trajectory.

The default step resolves only the frequencies of terms that can move
the state: an oscillating term whose micro-motion amplitude is at most
``MICROMOTION_TOL`` (the ±4w terms of the order-3 rabi model, which the
filter has suppressed) is evaluated at every stage, but its period does
not set the step.  ``meta["omega"]`` records the frequency that set it
and ``meta["unresolved"]`` the terms below the tolerance.  Each distinct
operator's matrix is built once per run.

Coarse-graining keeps a factored trajectory factored while that is the
smaller form: a Gaussian average of K rank-r samples is the product of
one d x K*r block with its adjoint, stored as that block when ``K * r <
d``.  Observables are read from the factors directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
import sympy as sp

from .model import (
    EffectiveModel,
    HamiltonianTermSpec,
    ModelSpec,
    unpaired_term,
)
from .operators import ModeSpec, OperatorSum, parse_operator
from .symbols import TIME, FreqExpr

__all__ = [
    "Trajectory",
    "ObservableSpec",
    "NumericalGuardError",
    "build_initial",
    "integrate",
    "coarse_grain_trajectory",
    "expectation_series",
    "compare_series",
    "rate_decomposition",
]

#: Fixed-step rule: at least this many steps per period of the fastest
#: frequency that sets the step (see :data:`MICROMOTION_TOL`).
STEPS_PER_PERIOD = 40

#: Step rule: an oscillating term sets the default step only if its
#: micro-motion amplitude is above this, ``|c| ||M|| / |omega|`` for an H
#: term and ``|r| ||L|| ||J|| / |omega|`` for a dissipator, each norm
#: bounded by ``sqrt(max column sum * max row sum)`` of the entries'
#: moduli.  A time-dependent coefficient always counts.  A term below it
#: is still evaluated at every RK4 stage; only its period goes unresolved.
MICROMOTION_TOL = 1e-9

#: Gaussian kernel support in units of the averaging width.
KERNEL_SUPPORT = 5.0

#: Samples :func:`integrate` stores when the caller does not say.
DEFAULT_SAMPLES = 401

#: Largest drift of ``|tr rho|`` a sample of :func:`integrate` may show.
TRACE_TOL = 1e-6

#: Relative ground-level gap below which :func:`rate_decomposition` masks
#: a sample.
GAP_TOL = 1e-9

#: Narrow/wide rule of the generator: an operator pattern with at most K
#: non-zeros per row (column) is applied by K gathers when
#: ``K * GATHER_RATIO <= d``, else by one dense product.  A gather costs
#: about a tenth of a d=200 matmul but about half of a d=60 one.
GATHER_RATIO = 20


class NumericalGuardError(RuntimeError):
    """Integration tripped a sanity guard (trace drift, overflow, ...)."""


class Trajectory:
    """Density matrices on a time grid, held as dense ``states`` (N, d, d)
    or as ``factors`` F (N, d, r), sample n being ``F_n F_n^dagger`` made
    exactly Hermitian.

    ``states`` is the one reader of either form.  On a factored trajectory
    it builds a fresh (N, d, d) array on each access and keeps none, so
    the d x d frames live only as long as their reader; :meth:`state`
    builds one frame.  Stored arrays are C-contiguous, so the (N, d^2)
    reshape of dense ``states`` is a view.
    """

    def __init__(self, times, states=None, meta=None, *, factors=None):
        if (states is None) == (factors is None):
            raise ValueError("a trajectory holds either states or factors")
        self.times = np.asarray(times, dtype=float)
        self.meta = {} if meta is None else meta
        self._states, self.factors = (
            None if held is None else np.ascontiguousarray(held, dtype=complex)
            for held in (states, factors)
        )
        if len(self.times) != len(self._held):
            raise ValueError("snapshot count does not match grid")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("time grid must be strictly increasing")

    @property
    def _held(self) -> np.ndarray:
        return self._states if self.factors is None else self.factors

    @property
    def dim(self) -> int:
        """Dimension d of the density matrices."""
        return self._held.shape[1]

    @property
    def states(self) -> np.ndarray:
        """All samples as one (N, d, d) array; built afresh on each access
        of a factored trajectory."""
        if self.factors is None:
            return self._states
        out = np.empty((len(self.factors), self.dim, self.dim), dtype=complex)
        for factor, frame in zip(self.factors, out):
            _hermitian_outer(factor, frame)
        return out

    def state(self, i: int) -> np.ndarray:
        """Sample i as a d x d array, built from its factor if factored."""
        if self.factors is None:
            return self._states[i]
        out = np.empty((self.dim, self.dim), dtype=complex)
        _hermitian_outer(self.factors[i], out)
        return out

    @property
    def dt(self) -> float:
        """Step of the grid; all steps must agree to 1e-9 relative."""
        if len(self.times) < 2:
            raise ValueError(
                f"need at least 2 samples for a step, got {len(self.times)}"
            )
        steps = np.diff(self.times)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError(
                f"time grid is not uniform: steps {steps.min():.6g} to "
                f"{steps.max():.6g}"
            )
        return float(steps[0])


@dataclass(frozen=True)
class ObservableSpec:
    op: OperatorSum
    label: str

    @classmethod
    def parse(cls, text: str, modes: Sequence[ModeSpec], label=None):
        return cls(parse_operator(text, modes), label or text)


def build_initial(
    modes: Sequence[ModeSpec], spec: str
) -> np.ndarray:
    """Pure product state density matrix from a mini-grammar.

    One factor per mode in declaration order, ``*``-joined:
    ``fock(n)``, ``coherent(alpha)`` for bosonic modes, ``g`` or ``e`` for
    two-level modes.  Example: ``"coherent(2)*e"``.
    """
    factors = [f.strip() for f in spec.split("*")]
    if len(factors) != len(modes):
        raise ValueError(
            f"initial state needs {len(modes)} factors, got {len(factors)}"
        )
    vec = np.ones(1, dtype=complex)
    for mode, factor in zip(modes, factors):
        if mode.kind == "two_level":
            if factor not in ("g", "e"):
                raise ValueError(
                    f"two-level factor must be g or e, got {factor!r}"
                )
            part = np.array([1.0, 0.0] if factor == "g" else [0.0, 1.0],
                            dtype=complex)
        else:
            dim = mode.dim
            if factor.startswith("fock(") and factor.endswith(")"):
                n = int(factor[5:-1])
                if not 0 <= n < dim:
                    raise ValueError(
                        f"fock({n}) outside truncation {dim} of {mode.name!r}"
                    )
                part = np.zeros(dim, dtype=complex)
                part[n] = 1.0
            elif factor.startswith("coherent(") and factor.endswith(")"):
                alpha = complex(factor[9:-1].replace("i", "j"))
                if not cmath.isfinite(alpha):
                    raise ValueError(
                        f"coherent amplitude must be finite, got {factor!r}"
                    )
                try:
                    half_mean = abs(alpha) ** 2 / 2
                except OverflowError:
                    half_mean = math.inf  # every amplitude below underflows
                ns = np.arange(dim)
                log_fact = np.cumsum(
                    np.concatenate(([0.0], np.log(np.arange(1, dim))))
                )
                part = np.exp(
                    -half_mean
                    + ns * np.log(complex(alpha) if alpha != 0 else 1.0)
                    - log_fact / 2
                )
                if alpha == 0:
                    part = np.zeros(dim, dtype=complex)
                    part[0] = 1.0
                part = part.astype(complex)
            else:
                raise ValueError(f"cannot parse state factor {factor!r}")
        vec = np.kron(vec, part)
    norm = np.linalg.norm(vec)
    if not (math.isfinite(norm) and norm > 0):
        raise ValueError(
            f"initial state {spec!r} has no representable amplitude in the "
            "truncated space"
        )
    vec = vec / norm
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# Generator realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Coefficient:
    """``value * exp(-i*omega*t)``; a time-dependent coefficient keeps its
    prefactor, the model symbols substituted, as the sympy ``body`` and
    evaluates it as ``at(t)`` in place of ``value``."""

    value: complex
    omega: float
    body: sp.Expr | None = None
    at: Callable[[float], complex] | None = None

    def __call__(self, t: float) -> complex:
        value = complex(self.at(t)) if self.at else self.value
        return value * cmath.exp(-1j * self.omega * t)


def _coefficient(coeff: sp.Expr, freq: FreqExpr, assignment):
    """``coeff * exp(-i*freq*t)`` with the model symbols substituted."""
    omega = freq.evaluate(assignment)
    values = {
        s: assignment[s.name]
        for s in coeff.free_symbols
        if s.name in assignment
    }
    body = coeff.subs(values)
    leftover = {s.name for s in body.free_symbols} - {TIME.name}
    if leftover:
        raise KeyError(f"no value for symbol(s) {sorted(leftover)}")
    timed = TIME in body.free_symbols
    try:
        value = complex(body.subs(TIME, 0) if timed else body)
    except TypeError:
        raise ValueError(
            f"coefficient {coeff} of the term at frequency {freq} does not "
            "evaluate to a number"
        ) from None
    if timed:
        return _Coefficient(
            0j, omega, body, sp.lambdify(TIME, body, modules="numpy")
        )
    return _Coefficient(value, omega)


def _realize(generator, assignment):
    """Term tables, the step frequency (see :func:`_step_frequency`) and the
    dimension.

    Hamiltonian terms are ``(H, coeff)``; dissipators are ``(L, J, JL,
    rate)`` with L and J as COO triplets (see :func:`_coo`) and JL dense.
    Each distinct operator's matrix and triplet are built once per call.
    Coefficients and rates are :class:`_Coefficient`.  Every term needs
    its conjugate partner (:func:`stcg.model.unpaired_term`, values
    compared by :func:`_conjugates`), so that the generator maps a
    Hermitian rho to a Hermitian rho'; an unpaired term raises
    ``ValueError``.  Pairing compares the operators as operator sums, not
    their matrices: those of ``a'^3*a`` and ``a'*a^3`` are not each
    other's adjoints to the last bit.
    """
    if isinstance(generator, EffectiveModel):
        terms = generator.hamiltonian
        dterms = generator.dissipators
        modes = generator.modes
    elif isinstance(generator, ModelSpec):
        if generator.regulator is not None:
            raise ValueError(
                "exact branch cannot integrate a ramp-regulated model; "
                "supply the physical time-dependent couplings instead"
            )
        terms = generator.terms
        dterms = ()
        modes = generator.modes
    else:
        raise TypeError(f"cannot integrate {type(generator).__name__}")
    coeffs = [_coefficient(t.coeff, t.freq, assignment) for t in terms]
    rates = [_coefficient(t.rate, t.freq, assignment) for t in dterms]
    term = unpaired_term(terms + dterms, coeffs + rates, _conjugates)
    if term is not None:
        ops = (
            [term.op] if isinstance(term, HamiltonianTermSpec)
            else [term.left, term.right]
        )
        raise ValueError(
            "generator does not preserve Hermiticity: no conjugate partner "
            f"for the term at frequency {term.freq} with operator(s) "
            f"{', '.join(map(str, ops))}"
        )
    matrices = {}

    def matrix(op):
        built = matrices.get(op)
        if built is None:
            mat = op.matrix(assignment)
            rows, cols, values = triplet = _coo(mat)
            # the largest row and column sums of |M| bound its norm
            moduli = np.abs(values)
            bound = math.sqrt(
                np.bincount(rows, moduli).max(initial=0.0)
                * np.bincount(cols, moduli).max(initial=0.0)
            )
            built = matrices[op] = mat, triplet, bound
        return built

    ham, sizes = [], []
    for term, coeff in zip(terms, coeffs):
        mat, _, bound = matrix(term.op)
        ham.append((mat, coeff))
        sizes.append(bound)
    dis = []
    for term, rate in zip(dterms, rates):
        lmat, lcoo, lbound = matrix(term.left)
        jmat, jcoo, jbound = matrix(term.right)
        dis.append((lcoo, jcoo, jmat @ lmat, rate))
        sizes.append(lbound * jbound)
    step = _step_frequency(coeffs + rates, sizes)
    dim = int(np.prod([m.dim for m in modes]))
    return ham, dis, step, dim


def _step_frequency(coeffs: Sequence[_Coefficient], sizes: Sequence[float]):
    """``(omega, unresolved)``: the frequency the default step resolves and
    the number of oscillating terms whose micro-motion amplitude ``|c| *
    size / |omega|`` is at most :data:`MICROMOTION_TOL`, ``size`` bounding
    the norm of the term's operator(s).

    ``omega`` is the fastest frequency of a term above the tolerance or
    with a time-dependent coefficient; when no term counts, the fastest of
    all, and None when no term oscillates.
    """
    counted, small = [], []
    for coeff, size in zip(coeffs, sizes):
        omega = abs(coeff.omega)
        if not omega:
            continue
        if coeff.body is None and abs(coeff.value) * size / omega <= (
            MICROMOTION_TOL
        ):
            small.append(omega)
        else:
            # a time-dependent or non-finite coefficient counts
            counted.append(omega)
    return max(counted or small, default=None), len(small)


#: Relative mismatch allowed between a time-free term value and the
#: conjugate of its partner's in :func:`_conjugates`.
PAIR_RTOL = 1e-12


def _conjugates(a: _Coefficient, b: _Coefficient) -> bool:
    """Whether ``a`` is the conjugate of ``b``: time-free values to
    :data:`PAIR_RTOL` relative, time-dependent bodies exactly."""
    if a.body is None and b.body is None:
        return abs(a.value - b.value.conjugate()) <= PAIR_RTOL * max(
            abs(a.value), abs(b.value)
        )
    if a.body is None or b.body is None:
        return False
    return sp.expand(sp.conjugate(a.body) - b.body) == 0


def _generator(ham, dis, dim: int, vectors: int = 0):
    """``rhs(t, rho, out)``: ``out = A(t) rho + rho A(t)^dagger + sum_j
    r_j(t) L_j rho J_j`` for a Hermitian rho, with ``A = -iH - sum_j r_j
    JL_j / 2``.

    The terms are paired under conjugation (see :func:`_realize`), so the
    jump sum S is Hermitian for a Hermitian rho.  The call forms ``X = A
    rho + U``, with U the jump sum on its upper triangle (diagonal
    halved), and returns ``out = X + X^dagger``, exactly Hermitian.  A
    shares the union non-zero pattern of all H and ``JL`` matrices, whose
    per-term values are laid out once here; each call combines them with
    one small product over the term coefficients (see
    :func:`_slot_product`).  All jump terms are applied together by one
    flat gather (see :func:`_jump_table`).  The time-free coefficients are
    evaluated together by one vectorised exp (see :func:`_evaluator`); a
    call at the previous call's t reuses all coefficient-weighted values.

    ``vectors = r > 0``, for ``dis`` empty, takes the vector branch
    instead: the operand is a d x r block of state vectors and ``out =
    A(t) psi = -i H(t) psi``.  ``rhs.branch`` names the branch taken
    (``hermitian`` or ``vector``) and ``rhs.jump_records`` counts the jump
    table's records.

    Work arrays are allocated once, so a call allocates no array the size
    of its operand and a generator is not reentrant.
    """
    mats = [mat for mat, _ in ham] + [jl for _, _, jl, _ in dis]
    coefficients = _evaluator([c for _, c in ham] + [c for *_, c in dis])
    pattern = np.zeros((dim, dim), dtype=bool)
    for mat in mats:
        pattern |= mat != 0
    # the -i and -1/2 of A go into the term values once, so a call passes
    # the bare coefficients
    left = _slot_product(
        [-1j * mat for mat, _ in ham] + [-0.5 * jl for _, _, jl, _ in dis],
        pattern,
        shape=(dim, vectors or dim),
    )
    if vectors:

        def rhs(t, psi, out):
            left(coefficients(t), psi, out)
            return out

        rhs.branch = "vector"
        rhs.jump_records = 0
        return rhs
    table = _jump_table(
        [(lop, jop, len(ham) + k) for k, (lop, jop, _, _) in enumerate(dis)],
        dim,
    )
    upper = np.empty((dim, dim), dtype=complex)

    def rhs(t, rho, out):
        coeffs = coefficients(t)
        left(coeffs, rho, upper)
        table(coeffs, rho, upper)
        np.conjugate(upper.T, out=out)
        out += upper
        return out

    rhs.branch = "hermitian"
    rhs.jump_records = table.records
    return rhs


def _evaluator(coeffs: Sequence[_Coefficient]):

    """``at(t)``: every coefficient at time t, written into one vector that
    each call reuses.  The time-free ones take one vectorised exp; only
    time-dependent ones call their ``body``.  A call at the previous
    call's t returns None, for the caller to reuse what it made of the
    previous values: an RK4 step's two midpoint stages share t, as do its
    last stage and the next step's first."""
    values = np.array([c.value for c in coeffs], dtype=complex)
    omegas = np.array([c.omega for c in coeffs], dtype=float)
    timed = [(k, c) for k, c in enumerate(coeffs) if c.body is not None]
    phase = np.empty(len(coeffs), dtype=complex)
    out = np.empty(len(coeffs), dtype=complex)
    last_t = math.nan

    def at(t):
        nonlocal last_t
        if t == last_t:
            return None
        last_t = t
        np.multiply(omegas, -1j * t, out=phase)
        np.exp(phase, out=phase)
        np.multiply(values, phase, out=out)
        for k, coeff in timed:
            out[k] = coeff(t)
        return out

    return at


def _slot_positions(lines: np.ndarray, n_lines: int):
    """Slot of each entry within its line, for sorted ``lines``, and the
    slot count K (the largest line count)."""
    counts = np.bincount(lines, minlength=n_lines)
    k = int(counts.max(initial=0))
    pos = np.arange(len(lines)) - np.repeat(np.cumsum(counts) - counts, counts)
    return pos, k


def _slots(pattern: np.ndarray):
    """Row ``i``'s non-zero columns as slots ``index[s, i]``, s < K.

    K is the largest row count; shorter rows are padded with column 0,
    marked False in ``valid``.
    """
    rows, cols = np.nonzero(pattern)
    pos, k = _slot_positions(rows, len(pattern))
    index = np.zeros((k, len(pattern)), dtype=np.intp)
    valid = np.zeros((k, len(pattern)), dtype=bool)
    index[pos, rows] = cols
    valid[pos, rows] = True
    return index, valid


def _slot_product(mats, pattern: np.ndarray, shape=None):
    """``apply(c, x, out)``: ``out = M(c) @ x`` for ``M(c) = sum_m c[m] *
    mats[m]``, all non-zeros inside ``pattern``.  ``c=None`` reuses the
    previous call's ``M(c)``.  ``shape`` is the shape of x and out, d x d
    by default.

    With K slots per row the product is K row gathers of x when ``K *
    GATHER_RATIO <= d``; otherwise the slot values are scattered into one
    dense matrix for a single BLAS product.
    """
    index, valid = _slots(pattern)
    k, dim = index.shape
    if k == 0:

        def empty(c, x, out):
            out.fill(0)

        return empty
    rows = np.broadcast_to(np.arange(dim), index.shape)
    # padding slots hold 0 in every term, so they add nothing
    values = np.stack([np.where(valid, mat[rows, index], 0) for mat in mats])
    values = values.reshape(len(mats), -1)
    if k * GATHER_RATIO <= dim:
        vals = np.empty((k, dim, 1), dtype=complex)
        buf = np.empty(shape or (dim, dim), dtype=complex)

        def gather(c, x, out):
            if c is not None:
                np.matmul(c, values, out=vals.reshape(-1))
            for s in range(k):
                # take with an out array is unbuffered only in clip mode
                dest = buf if s else out
                np.take(x, index[s], axis=0, out=dest, mode="clip")
                dest *= vals[s]
                if s:
                    out += buf

        return gather
    real = np.flatnonzero(valid)
    flat = (rows * dim + index).ravel()[real]
    values = values[:, real]
    mat = np.zeros((dim, dim), dtype=complex)

    def dense(c, x, out):
        if c is not None:
            mat.reshape(-1)[flat] = c @ values
        np.matmul(mat, x, out=out)

    return dense


def _coo(mat: np.ndarray):
    """Non-zeros of ``mat`` as ``(rows, cols, values)``, row-major."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def _jump_table(jumps, dim: int):
    """``apply(c, x, out)``: ``out += U`` for the upper triangle U of ``S
    = sum c[k] L x J`` over the ``(L, J, k)`` of ``jumps``, diagonal
    halved, so that ``S = U + U^dagger`` when S is Hermitian.  L and J are
    given as COO triplets (:func:`_coo`).

    Entry ``(i, m)`` of ``L x J`` sums ``L[i, a] J[b, m] x[a, b]``, so each
    pair of non-zeros ``L[i, a]``, ``J[b, m]`` with ``i <= m`` is a flat
    record (output ``i*d + m``, input ``a*d + b``, term k, weight ``L[i,
    a] J[b, m]``, halved for ``i = m``); zero weights are dropped.  The
    records are laid out as K slots per output entry that has any, padded
    with input 0 and weight 0, so a call is one gather of x, one of c, two
    products, one sum over the slots and one scatter-add into the
    C-contiguous ``out``, all in preallocated arrays; ``c=None`` reuses
    the previous call's ``c``.  ``apply.records`` counts the records.
    """
    outs, ins, terms, weights = [], [], [], []
    for (i, a, lval), (b, m, jval), k in jumps:
        weight = np.multiply.outer(lval, jval)
        weight = np.where(np.less_equal.outer(i, m), weight, 0)
        weight[np.equal.outer(i, m)] *= 0.5
        weight = weight.ravel()
        keep = np.flatnonzero(weight)
        outs.append(np.add.outer(i * dim, m).ravel()[keep])
        ins.append(np.add.outer(a * dim, b).ravel()[keep])
        terms.append(np.full(len(keep), k))
        weights.append(weight[keep])
    n_records = sum(map(len, outs))
    if not n_records:

        def noop(c, x, out):
            pass

        noop.records = 0
        return noop
    order = np.argsort(np.concatenate(outs), kind="stable")
    outs, ins, terms, weights = (
        np.concatenate(part)[order] for part in (outs, ins, terms, weights)
    )
    targets, slot_of = np.unique(outs, return_inverse=True)
    pos, k = _slot_positions(slot_of, len(targets))
    # intp: np.take converts any other index type to it on every call
    index = np.zeros((k, len(targets)), dtype=np.intp)
    term = np.zeros((k, len(targets)), dtype=np.intp)
    weight = np.zeros((k, len(targets)), dtype=complex)
    index[pos, slot_of] = ins
    term[pos, slot_of] = terms
    weight[pos, slot_of] = weights
    gathered = np.empty((k, len(targets)), dtype=complex)
    scaled = np.empty((k, len(targets)), dtype=complex)
    total = np.empty(len(targets), dtype=complex)

    def apply(c, x, out):
        if c is not None:
            np.take(c, term, out=scaled, mode="clip")
            np.multiply(scaled, weight, out=scaled)
        np.take(x.reshape(-1), index, out=gathered, mode="clip")
        np.multiply(gathered, scaled, out=gathered)
        np.sum(gathered, axis=0, out=total)
        if not out.flags.c_contiguous:
            # reshape would copy, and the sum would be lost
            raise ValueError("jump table output must be C-contiguous")
        out.reshape(-1)[targets] += total

    apply.records = n_records
    return apply


def _hamiltonian_at(ham, dim: int, t: float) -> np.ndarray:
    """H(t) from a realized Hamiltonian term table."""
    h = np.zeros((dim, dim), dtype=complex)
    for mat, fn in ham:
        h += fn(t) * mat
    return h


def integrate(
    generator,
    rho0: np.ndarray,
    t_span: tuple[float, float],
    assignment: Mapping[str, float],
    dt: float | None = None,
    n_samples: int = DEFAULT_SAMPLES,
) -> Trajectory:
    """Fixed-step RK4 evolution of a density matrix.

    ``generator`` is an :class:`EffectiveModel` (coarse-grained master
    equation) or a :class:`ModelSpec` (exact von Neumann).  Without an
    explicit ``dt`` the step resolves, with at least {STEPS_PER_PERIOD}
    steps per period, the fastest frequency of a term that can move the
    state: one whose micro-motion amplitude is above {MICROMOTION_TOL:g} or
    whose coefficient depends on time (:data:`MICROMOTION_TOL`).  If no
    oscillating term counts, the fastest of all sets the step, and with no
    oscillating term it is ``(t1 - t0) / 1000``.  A stored sample whose
    state is not finite, or whose ``|tr rho|`` drifted by more than
    {TRACE_TOL:g}, raises :class:`NumericalGuardError`.

    ``rho0`` must be exactly Hermitian, else ``ValueError``; so must the
    generator be (see :func:`_realize`).  A run without dissipators from a
    positive semidefinite rho0 takes the vector path: rho0 is split as
    ``Psi Psi^dagger`` (pivoted Cholesky, rank r) and RK4 integrates ``Psi'
    = -i H(t) Psi`` on the d x r block.  The trajectory stores each
    sample's block as its factor (``Trajectory.factors``); ``states``
    builds ``Psi Psi^dagger``, made exactly Hermitian, on access, and the
    guards above read ``sum |psi|^2``.  RK4 on vectors loses norm (about
    theta^6/72 a step), so the vector path runs one sample interval at a
    time: an interval that leaves ``sum |psi|^2`` more than ``TRACE_TOL /
    2`` from its start and changed it by more than ``TRACE_TOL / 2 /
    (n_samples - 1)`` itself, by a loss or a gain, is run again at twice
    the steps, and the finer stride is kept; a change that does not shrink
    as the step halves raises :class:`NumericalGuardError`.  A norm that is
    not finite is left to the guard above.  Any other run takes the
    Hermitian-half right-hand side of :func:`_generator` and stores dense
    states.

    ``Trajectory.meta`` holds ``rhs`` (``"vector"`` or ``"hermitian"``),
    ``steps`` (RK4 steps taken, repeated intervals included), the final
    ``dt`` and ``stride`` (steps per sample interval), ``omega`` (the
    frequency that set the step, None when ``dt`` was given or no term
    oscillates), ``unresolved`` (the number of oscillating terms at or
    below the micro-motion tolerance), ``jump_records``, ``kind`` and, on
    the vector path, ``rank`` (r).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"integration window must be finite, got {t_span}")
    if t1 <= t0:
        raise ValueError("empty integration window")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"step must be finite and > 0, got {dt}")
    rho0 = np.asarray(rho0)
    if not np.all(np.isfinite(rho0)):
        raise ValueError("initial state has non-finite entries")
    ham, dis, (omega, unresolved), dim = _realize(generator, assignment)
    if rho0.shape != (dim, dim):
        raise ValueError(
            f"initial state is {rho0.shape}, model dimension is {dim}"
        )
    if not np.array_equal(rho0, rho0.conj().T):
        raise ValueError("initial state is not exactly Hermitian")
    psi = None if dis else _split(rho0)
    if psi is None:
        rhs = _generator(ham, dis, dim)
        state = np.array(rho0, dtype=complex)
    else:
        rhs = _generator(ham, dis, dim, vectors=psi.shape[1])
        state = psi
    del ham, dis  # the dense term matrices, d x d each, are done with
    # a vector run stores its d x r blocks Psi, a density run its rho
    frames = np.empty((n_samples,) + state.shape, dtype=complex)
    frames[0] = state
    if dt is not None:
        omega = None
    elif omega:
        dt = 2 * math.pi / omega / STEPS_PER_PERIOD
    else:
        dt = (t1 - t0) / 1000
    sample_dt = (t1 - t0) / (n_samples - 1)
    stride = max(1, math.ceil(sample_dt / dt))
    budget = TRACE_TOL / 2 / (n_samples - 1)

    advance = _rk4(rhs, state)
    trace0 = abs(np.trace(rho0))
    norm0 = None if psi is None else np.vdot(psi, psi).real
    times = np.empty(n_samples)
    times[0] = t0
    steps = 0
    for sample in range(1, n_samples):
        if psi is None:
            advance(t0, sample_dt / stride, (sample - 1) * stride, stride)
            steps += stride
            finite = np.all(np.isfinite(state))
            trace = abs(np.trace(state))
        else:
            # tr(Psi Psi^dagger) = sum |psi|^2, finite only if Psi is
            stride, taken, trace = _norm_refined(
                advance, state, t0, sample_dt, sample, stride, budget, norm0
            )
            steps += taken
            finite = math.isfinite(trace)
        frames[sample] = state
        dt = sample_dt / stride
        t = t0 + sample * stride * dt
        if not finite:
            raise NumericalGuardError(f"non-finite state at t={t}")
        drift = abs(trace - trace0)
        if drift > TRACE_TOL:
            raise NumericalGuardError(
                f"trace drift {drift:.2e} exceeds {TRACE_TOL} at t={t}"
            )
        times[sample] = t
    meta = {
        "dt": dt,
        "stride": stride,
        "steps": steps,
        "omega": omega,
        "unresolved": unresolved,
        "rhs": rhs.branch,
        "jump_records": rhs.jump_records,
        "kind": "tcg" if isinstance(generator, EffectiveModel) else "exact",
    }
    if psi is None:
        return Trajectory(times, frames, meta)
    meta["rank"] = psi.shape[1]
    return Trajectory(times, meta=meta, factors=frames)


def _rk4(rhs, y: np.ndarray):
    """``advance(t0, dt, first, count)``: RK4 steps ``first`` to ``first +
    count - 1`` of ``y' = rhs(t, y)``, in place on y, step n running from
    ``t0 + n*dt`` to ``t0 + (n+1)*dt``."""
    # preallocated stages: at d ~ 200 fresh d x d temporaries per step cost
    # more than the arithmetic, as the allocator hands their pages back
    arrays = [y] + [np.empty_like(y) for _ in range(5)]

    def advance(t0, dt, first, count):
        y, k1, k2, k3, k4, stage = arrays
        for step in range(first, first + count):
            t = t0 + step * dt
            t_next = t0 + (step + 1) * dt
            rhs(t, y, k1)
            rhs(t + dt / 2, _axpy(dt / 2, k1, y, stage), k2)
            rhs(t + dt / 2, _axpy(dt / 2, k2, y, stage), k3)
            rhs(t_next, _axpy(dt, k3, y, stage), k4)
            # y += dt/6 * (((k1 + 2 k2) + 2 k3) + k4)
            k2 *= 2
            k2 += k1
            k3 *= 2
            k2 += k3
            k2 += k4
            k2 *= dt / 6
            y += k2

    return advance


def _norm_refined(
    advance, psi, t0, sample_dt, sample, stride, budget, norm0
):
    """Advance the state vectors ``psi`` over sample interval ``sample``
    at ``stride`` steps, doubling the steps until ``sum |psi|^2`` is
    within ``TRACE_TOL / 2`` of the run's initial ``norm0`` or changed over
    the interval, by a loss or a gain, by at most ``budget``; returns the
    final stride, the steps taken and the final ``sum |psi|^2``.

    With ``budget = TRACE_TOL / 2 / (n_samples - 1)`` the intervals after
    the last one accepted by the first bound change the norm by at most
    ``TRACE_TOL / 2`` together, so the run's drift stays within
    ``TRACE_TOL``.

    A norm that is not finite is returned as it is, for the caller's
    guard; a change that does not shrink as the step halves raises
    :class:`NumericalGuardError`.
    """
    start = psi.copy()
    norm = np.vdot(start, start).real
    taken = 0
    last_change = math.inf
    while True:
        advance(t0, sample_dt / stride, (sample - 1) * stride, stride)
        taken += stride
        now = np.vdot(psi, psi).real
        change = abs(norm - now)
        if not budget < change < math.inf or abs(now - norm0) <= TRACE_TOL / 2:
            return stride, taken, now
        if not change < last_change:
            raise NumericalGuardError(
                f"norm change {change:.2e} over the sample interval ending "
                f"at t={t0 + sample * sample_dt} does not shrink as the "
                "step halves"
            )
        last_change = change
        psi[...] = start
        stride *= 2


def _split(rho: np.ndarray) -> np.ndarray | None:
    """A d x r block ``Psi`` with ``rho = Psi Psi^dagger``, or None unless
    the Hermitian ``rho`` is positive semidefinite.

    Pivoted Cholesky: each column takes the largest diagonal entry of the
    remainder as pivot, until a pivot is at most ``d * eps * tr rho``;
    rho is then positive semidefinite only if no entry of the remainder
    is larger.  One rank-1 update per column, and no LAPACK workspace.
    """
    dim = len(rho)
    rest = np.array(rho, dtype=complex)
    tol = dim * np.finfo(float).eps * np.trace(rest).real
    if not tol > 0:
        return None
    columns = []
    while len(columns) < dim:
        diag = rest.diagonal().real
        pivot = int(np.argmax(diag))
        if not diag[pivot] > tol:
            break
        column = rest[:, pivot] / math.sqrt(diag[pivot])
        rest -= np.outer(column, column.conj())
        columns.append(column)
    if np.max(np.abs(rest)) > tol:
        return None
    return np.ascontiguousarray(np.transpose(columns))


def _hermitian_outer(psi: np.ndarray, out: np.ndarray):
    """``out = (X + X^dagger) / 2`` for ``X = psi psi^dagger``: exactly
    Hermitian."""
    np.matmul(psi, psi.conj().T, out=out)
    out += out.conj().T
    out *= 0.5


def _axpy(a: float, x: np.ndarray, y: np.ndarray, out: np.ndarray):
    """``out = y + a * x`` without a temporary."""
    np.multiply(x, a, out=out)
    out += y
    return out


integrate.__doc__ = integrate.__doc__.format(
    STEPS_PER_PERIOD=STEPS_PER_PERIOD,
    MICROMOTION_TOL=MICROMOTION_TOL,
    TRACE_TOL=TRACE_TOL,
)


# ---------------------------------------------------------------------------
# Coarse graining and observables
# ---------------------------------------------------------------------------


def _gaussian_kernel(dt: float, tau: float) -> np.ndarray:
    half = int(math.ceil(KERNEL_SUPPORT * tau / dt))
    offsets = np.arange(-half, half + 1) * dt
    kernel = np.exp(-(offsets**2) / (2 * tau**2))
    return kernel / kernel.sum()


def coarse_grain_trajectory(traj: Trajectory, tau: float) -> Trajectory:
    """Gaussian moving average of width ``tau`` along the trajectory.

    The kernel is truncated at +/-{KERNEL_SUPPORT} tau and renormalized;
    output keeps only interior points with full kernel support, so the
    input must extend at least that margin beyond the window of interest.
    The grid must be uniform.  On dense states, output frame i is one
    product of the K kernel taps w_k with input frames i to i + K - 1 as
    rows of d^2 entries.  On factors F (r columns each), it is ``Phi_i
    Phi_i^dagger`` for the d x K*r block ``Phi_i = [sqrt(w_k)
    F_{{i+k}}]_k``, exact because every tap is positive: the output is
    factored by these blocks when ``K * r < d``, and dense otherwise.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"averaging width must be finite and > 0, got {tau}")
    kernel = _gaussian_kernel(traj.dt, tau)
    half = (len(kernel) - 1) // 2
    if len(traj.times) < len(kernel):
        need = (len(kernel) - len(traj.times)) * traj.dt
        raise ValueError(
            f"trajectory too short for averaging width: pad by >= {need:.3g}"
        )
    n_out = len(traj.times) - len(kernel) + 1
    times = traj.times[half:-half]
    meta = dict(traj.meta)
    meta["coarse_grained_tau"] = tau
    dim = traj.dim
    if traj.factors is None:
        frames = traj.states.reshape(len(traj.times), -1)
        averaged = np.empty((n_out, dim, dim), dtype=complex)
        for i, out in enumerate(averaged.reshape(n_out, -1)):
            np.matmul(kernel, frames[i : i + len(kernel)], out=out)
        return Trajectory(times, averaged, meta)
    # the taps are positive: frame i is Phi_i Phi_i^dagger, Phi_i the K
    # input factors side by side, each scaled by the root of its tap
    roots = np.sqrt(kernel)[:, None, None]
    blocks = (
        roots * traj.factors[i : i + len(kernel)] for i in range(n_out)
    )
    width = len(kernel) * traj.factors.shape[2]
    if width < dim:
        factors = np.empty((n_out, dim, width), dtype=complex)
        for block, out in zip(blocks, factors):
            np.concatenate(block, axis=1, out=out)
        return Trajectory(times, meta=meta, factors=factors)
    averaged = np.empty((n_out, dim, dim), dtype=complex)
    for block, out in zip(blocks, averaged):
        _hermitian_outer(np.concatenate(block, axis=1), out)
    return Trajectory(times, averaged, meta)


coarse_grain_trajectory.__doc__ = coarse_grain_trajectory.__doc__.format(
    KERNEL_SUPPORT=KERNEL_SUPPORT
)


def expectation_series(
    traj: Trajectory,
    obs: ObservableSpec,
    assignment: Mapping[str, float] | None = None,
) -> np.ndarray:
    """``tr(O rho_t)`` per sample, O the matrix of ``obs`` at ``assignment``:
    one product of the (N, d^2) frames with the flattened transpose of O,
    or on a factored trajectory the sum of ``conj(F) * (O F)`` per frame,
    no d x d state built."""
    matrix = obs.op.matrix(assignment)
    if matrix.shape != (traj.dim, traj.dim):
        raise ValueError("observable dimension does not match trajectory")
    if traj.factors is None:
        frames = traj.states.reshape(len(traj.times), matrix.size)
        return frames @ matrix.T.ravel()
    # tr(O F F^dagger) sums the entries of conj(F) * (O F)
    return np.einsum("nij,nij->n", traj.factors.conj(), matrix @ traj.factors)


def compare_series(a: np.ndarray, b: np.ndarray) -> dict[str, float]:
    """Error metrics of series ``b`` against reference ``a`` (same grid)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("series shapes differ")
    diff = np.abs(b - a)
    rms = float(np.sqrt(np.mean(diff**2)))
    span = float(np.max(np.real(a)) - np.min(np.real(a)))
    return {
        "rms": rms,
        "max_abs": float(np.max(diff)),
        "normalized_rms": rms / span if span > 0 else rms,
    }


# ---------------------------------------------------------------------------
# Rate decomposition
# ---------------------------------------------------------------------------


def rate_decomposition(
    eff: EffectiveModel,
    traj: Trajectory,
    assignment: Mapping[str, float],
):
    """Split d<p0>/dt into inertial and generator-driven parts.

    At each interior sample the instantaneous Hamiltonian is diagonalized;
    the inertial rate follows the ground state's first-order response to
    dH/dt (centered difference), the dynamical rate is the ground-state
    expectation of the dissipator action, applied by the Hermitian-half
    right-hand side of :func:`integrate`, so each state is taken as
    Hermitian.  Samples with a (near-)degenerate ground level
    (:data:`GAP_TOL`) are masked in the returned flags.
    """
    ham, dis, _, dim = _realize(eff, assignment)
    dissipate = _generator((), dis, dim)
    n = len(traj.times)
    inert = np.zeros(n)
    dynam = np.zeros(n)
    ok = np.zeros(n, dtype=bool)
    dt = traj.dt
    for i, t in enumerate(traj.times):
        h = _hamiltonian_at(ham, dim, t)
        vals, vecs = np.linalg.eigh(h)
        if len(vals) > 1 and vals[1] - vals[0] < GAP_TOL * max(
            1.0, abs(vals[-1])
        ):
            continue
        ok[i] = True
        ground = vecs[:, 0]
        rho = traj.state(i)
        hdot = (
            _hamiltonian_at(ham, dim, t + dt / 2)
            - _hamiltonian_at(ham, dim, t - dt / 2)
        ) / dt
        # sum over n >= 1 of 2 Re <n|Hdot|0> <0|rho|n> / (E_0 - E_n)
        excited = vecs[:, 1:]
        num = excited.conj().T @ (hdot @ ground)
        overlap = (ground.conj() @ rho) @ excited
        inert[i] = 2 * np.sum((num / (vals[0] - vals[1:]) * overlap).real)
        drho = dissipate(t, rho, np.empty_like(rho))
        dynam[i] = (ground.conj() @ drho @ ground).real
    return inert, dynam, ok
