import pytest
from hypothesis import given, settings, strategies as st

from stcg.diagrams import (
    Bubble,
    Diagram,
    count_diagrams,
    enumerate_diagrams,
    slice_frequencies,
)
from stcg.symbols import FreqExpr


class TestStructure:
    def test_bubble_validation(self):
        with pytest.raises(ValueError):
            Bubble(0, 0)
        with pytest.raises(ValueError):
            Bubble(-1, 2)

    def test_final_bubble_needs_left(self):
        with pytest.raises(ValueError):
            Diagram((Bubble(1, 0), Bubble(0, 1)))
        Diagram((Bubble(0, 1), Bubble(1, 0)))  # fine

    def test_known_counts(self):
        assert count_diagrams(1, 0) == 1
        assert count_diagrams(2, 0) == 2
        assert count_diagrams(1, 1) == 2
        assert count_diagrams(2, 1) == 6

    def test_enumeration_matches_count(self):
        for left in range(1, 4):
            for right in range(0, 3):
                diagrams = list(enumerate_diagrams(left, right))
                assert len(diagrams) == count_diagrams(left, right)
                assert len(set(map(str, diagrams))) == len(diagrams)

    def test_tuple_at_every_weight(self):
        diagrams = enumerate_diagrams(4, 3)
        assert isinstance(diagrams, tuple)
        assert len(diagrams) == count_diagrams(4, 3)

    def test_deterministic_order(self):
        first = [str(d) for d in enumerate_diagrams(2, 1)]
        second = [str(d) for d in enumerate_diagrams(2, 1)]
        assert first == second

    def test_rejects_zero_left(self):
        with pytest.raises(ValueError):
            enumerate_diagrams(0, 2)


@settings(max_examples=40)
@given(left=st.integers(1, 4), right=st.integers(0, 3))
def test_diagram_invariants(left, right):
    for diagram in enumerate_diagrams(left, right):
        assert diagram.left_total == left
        assert diagram.right_total == right
        assert diagram.bubbles[-1].left >= 1
        for bubble in diagram:
            assert bubble.left + bubble.right >= 1


class TestSlicing:
    def test_contiguous_blocks(self):
        mu = tuple(FreqExpr.symbol(n) for n in ("m1", "m2", "m3"))
        nu = (FreqExpr.symbol("n1"),)
        diagram = Diagram((Bubble(1, 1), Bubble(2, 0)))
        sliced = slice_frequencies(diagram, mu, nu)
        assert sliced == (((mu[0],), (nu[0],)), ((mu[1], mu[2]), ()))

    def test_length_mismatch(self):
        diagram = Diagram((Bubble(2, 0),))
        with pytest.raises(ValueError):
            slice_frequencies(diagram, (FreqExpr.symbol("m1"),))
