"""Enumeration of ordered bubble diagrams for perturbative contractions.

A diagram is an ordered sequence of "bubbles"; each bubble absorbs a number
of operators acting from the left and from the right of the state.  The
final bubble always contains the distinguished generator insertion, so its
left count is at least one.  Diagrams index the terms of the closed-form
contraction coefficients in :mod:`stcg.contraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "Bubble",
    "Diagram",
    "enumerate_diagrams",
    "count_diagrams",
    "slice_frequencies",
]

@dataclass(frozen=True)
class Bubble:
    """One averaging block: how many left and right operators it absorbs."""

    left: int
    right: int

    def __post_init__(self):
        if self.left < 0 or self.right < 0:
            raise ValueError("bubble multiplicities must be non-negative")
        if self.left + self.right == 0:
            raise ValueError("empty bubble")


@dataclass(frozen=True)
class Diagram:
    """Ordered bubbles, first-applied first.  Last bubble has ``left >= 1``."""

    bubbles: tuple[Bubble, ...]

    def __post_init__(self):
        if not self.bubbles:
            raise ValueError("diagram needs at least one bubble")
        if self.bubbles[-1].left < 1:
            raise ValueError(
                "final bubble must absorb at least one left operator"
            )

    @property
    def left_total(self) -> int:
        return sum(b.left for b in self.bubbles)

    @property
    def right_total(self) -> int:
        return sum(b.right for b in self.bubbles)

    @property
    def size(self) -> int:
        return len(self.bubbles)

    def __iter__(self):
        return iter(self.bubbles)

    def __str__(self):
        body = ", ".join(f"({b.left},{b.right})" for b in self.bubbles)
        return f"[{body}]"


def _generate(left: int, right: int) -> Iterator[tuple[Bubble, ...]]:
    """Depth-first generation; left-operator moves explored before right."""
    if left + right == 0:
        return
    if left >= 1:
        yield (Bubble(left, right),)
    # Split off a leading bubble (a, b) and recurse on what remains; the
    # recursion owns the final-bubble constraint.
    for a in range(left, -1, -1):
        for b in range(right, -1, -1):
            if a + b == 0 or (a == left and b == right):
                continue
            head = Bubble(a, b)
            for tail in _generate(left - a, right - b):
                yield (head,) + tail


def enumerate_diagrams(left: int, right: int) -> tuple[Diagram, ...]:
    """All diagrams of weight ``(left, right)`` in deterministic order."""
    if left < 1:
        raise ValueError("need at least one left operator (the generator)")
    if right < 0:
        raise ValueError("right multiplicity must be non-negative")
    return tuple(Diagram(bubbles) for bubbles in _generate(left, right))


def count_diagrams(left: int, right: int) -> int:
    return sum(1 for _ in _generate(left, right))


def slice_frequencies(
    diagram: Diagram, mu: Sequence, nu: Sequence = ()
) -> tuple[tuple[tuple, tuple], ...]:
    """Distribute frequency tuples over bubbles, contiguously from index 1:
    one ``(left block, right block)`` pair per bubble, in order.  The
    entries may be :class:`~stcg.symbols.FreqExpr` or sympy expressions."""
    if len(mu) != diagram.left_total or len(nu) != diagram.right_total:
        raise ValueError(
            f"tuple lengths ({len(mu)}, {len(nu)}) do not match diagram "
            f"weight ({diagram.left_total}, {diagram.right_total})"
        )
    blocks = []
    li = ri = 0
    for bubble in diagram:
        blocks.append(
            (tuple(mu[li : li + bubble.left]),
             tuple(nu[ri : ri + bubble.right]))
        )
        li += bubble.left
        ri += bubble.right
    return tuple(blocks)
