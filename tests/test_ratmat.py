from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from logres.ratmat import to_text
from oracles import reference_to_text

CELLS = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4),
    st.fractions(max_value=0, max_denominator=10**4),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(CELLS, max_size=12), max_size=6))
@example([])  # the empty matrix
@example([[]])  # one empty row
@example([[], [], []])
@example([[0, Fraction(0), 0], [0, 0, 0]])  # all-zero rows
@example([[Fraction(-3, 2), 0, 0, -7, 0], [0, 0, Fraction(0), 0, Fraction(5, 3)]])
@example([[5], [0], [Fraction(-1, 9)]])
def test_to_text_matches_the_per_cell_writer(matrix):
    assert to_text(matrix) == reference_to_text(matrix)
