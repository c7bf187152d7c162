import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyhedge.errors import InsufficientNodesError
from levyhedge.pricing import derivative_ladder
from levyhedge.stencil import apply_stencil, build_lookup_table, stencil_coefficient

from conftest import vandermonde_stencil


def test_two_point_first_derivative():
    assert stencil_coefficient(1, 1, 1) == Fraction(1, 2)


def test_classic_second_derivative():
    row = [stencil_coefficient(2, 1, k) for k in (-1, 0, 1)]
    assert row == [1, -2, 1]


def test_fourth_order_first_derivative():
    row = [stencil_coefficient(1, 2, k) for k in (-2, -1, 0, 1, 2)]
    assert row == [Fraction(1, 12), Fraction(-2, 3), 0, Fraction(2, 3), Fraction(-1, 12)]


@pytest.mark.parametrize(
    "p,n", [(1, 2), (2, 2), (3, 2), (4, 3), (5, 3), (7, 4), (6, 6), (2, 1), (6, 3), (8, 4),
            (4, 2), (10, 5), (16, 8)]
)
def test_matches_vandermonde_oracle(p, n):
    oracle = vandermonde_stencil(p, n)
    for k in range(-n, n + 1):
        assert stencil_coefficient(p, n, k) == oracle[k], (p, n, k)


def test_insufficient_nodes():
    with pytest.raises(InsufficientNodesError):
        stencil_coefficient(5, 2, 1)
    # p = 2N is the degenerate edge that still yields classic coefficients
    assert stencil_coefficient(4, 2, 1) == vandermonde_stencil(4, 2)[1]


@pytest.mark.parametrize("p,k", [(0, 1), (0, 0), (-1, 1)])
def test_order_below_one_is_rejected(p, k):
    with pytest.raises(InsufficientNodesError):
        stencil_coefficient(p, 2, k)


def test_table_agrees_with_single_coefficients(table_n4):
    for p in range(1, table_n4.p_max + 1):
        for k in range(-4, 5):
            assert table_n4.entries[(p, k)] == stencil_coefficient(p, 4, k)


def test_table_parity_invariants(table_n6):
    n = table_n6.half_width
    for p in range(1, table_n6.p_max + 1):
        row = table_n6.row_exact(p)
        d = dict(zip(range(-n, n + 1), row))
        assert sum(row) == 0
        if p % 2 == 1:
            assert d[0] == 0
            for k in range(1, n + 1):
                assert d[-k] == -d[k]
        else:
            assert d[0] == -2 * sum(d[k] for k in range(1, n + 1))
            for k in range(1, n + 1):
                assert d[-k] == d[k]


def test_build_idempotent():
    a = build_lookup_table(5, 3)
    b = build_lookup_table(5, 3)
    assert a.entries == b.entries


def _moment_violations(table, orders):
    """Orders p whose row breaks sum_k d_k k^j = p! delta_{jp}, j = 0..2N.

    The sums run in integers over (2N)!, which must clear every denominator.
    """
    n = table.half_width
    scale = math.factorial(2 * n)
    offsets = range(-n, n + 1)
    bad = []
    for p in orders:
        scaled = [d * scale for d in table.row_exact(p)]
        assert all(v.denominator == 1 for v in scaled), p
        terms = [v.numerator for v in scaled]  # d_k k^j (2N)!, from j = 0
        for j in range(2 * n + 1):
            if sum(terms) != (math.factorial(p) * scale if j == p else 0):
                bad.append(p)
                break
            terms = [t * k for t, k in zip(terms, offsets)]
    return bad


@pytest.mark.parametrize("n", [12, 20])
def test_every_row_meets_moment_conditions(n):
    table = build_lookup_table(n)
    assert _moment_violations(table, range(1, table.p_max + 1)) == []


def test_wide_table_meets_moment_conditions():
    table = build_lookup_table(40)
    assert _moment_violations(table, range(1, 80)) == []


def _rows_digest(table):
    """sha256 of the integer rows, one line of space-separated numerators per order."""
    den = table.denominator
    rows = ([int(d * den) for d in table.row_exact(p)] for p in range(1, table.p_max + 1))
    text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# p_max = 2n - 1.  These rows, each entry over (2n)!, wrote the text table files
# pinned before the file format went (sha256 1eb7f07d... at n = 20, 59734121...
# at n = 40).
_ROW_DIGESTS = {
    20: "2995720826f1bb553df27e697ce8993cd089d7686adebd155fcbe8da2047cd66",
    40: "77866750d74175597188a4606a5d2e1553eac42e391092d23cd113b0b82f4785",
}


@pytest.mark.parametrize("n", sorted(_ROW_DIGESTS))
def test_integer_rows_are_pinned(n):
    table = build_lookup_table(n)
    assert table.denominator == math.factorial(2 * n)
    assert _rows_digest(table) == _ROW_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 7, 20, 40])
def test_float_rows_round_each_entry_once(n):
    table = build_lookup_table(n)
    for p in range(1, table.p_max + 1):
        expected = [float(d) for d in table.row_exact(p)]
        assert table.row(p).tolist() == expected, (n, p)


@pytest.mark.parametrize("n,p_max", [(n, 2 * n - 1) for n in range(1, 41)]
                         + [(1, 1), (7, 6), (20, 1), (20, 2), (20, 20), (40, 39)])
def test_float_rows_are_each_fraction_bit_for_bit(n, p_max):
    # by bytes, so that the sign of a zero counts
    table = build_lookup_table(n, p_max)
    for p in range(1, p_max + 1):
        want = np.array([float(d) for d in table.row_exact(p)])
        assert table.row(p).tobytes() == want.tobytes(), (n, p)


def test_entries_is_the_exact_view():
    table = build_lookup_table(20)
    assert len(table.entries) == table.p_max * 41
    rows = {p: table.row_exact(p) for p in range(1, table.p_max + 1)}
    for (p, k), d in table.entries.items():
        assert d == rows[p][k + 20], (p, k)


def test_float_rows_leave_entries_unmade():
    table = build_lookup_table(20)
    for p in range(1, table.p_max + 1):
        table.row(p)
    assert "entries" not in table.__dict__


def test_ladders_leave_full_integer_rows_unmade():
    table = build_lookup_table(20)
    ladder = derivative_ladder(np.exp(0.01 * np.arange(-20, 21)), table, table.p_max, 0.01)
    assert len(ladder.d2) == table.p_max
    assert "entries" not in table.__dict__


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_single_coefficient_mirrors_up_to_p_2n(n):
    # p = 2N is beyond any table; the oracle test above checks its values
    for p in (2 * n - 1, 2 * n):
        for k in range(1, n + 1):
            assert stencil_coefficient(p, n, -k) == (-1) ** p * stencil_coefficient(p, n, k)


@given(
    p=st.integers(min_value=1, max_value=7),
    j=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_polynomial_exactness_property(table_n4, p, j):
    """Monomials t^j reproduce p! delta_{jp} exactly in rational arithmetic."""
    n = table_n4.half_width
    period = Fraction(1, 10)
    samples = [(Fraction(k) * period) ** j for k in range(-n, n + 1)]
    got = apply_stencil(samples, p, period, table_n4)
    expected = Fraction(math.factorial(p)) if j == p else Fraction(0)
    assert got == expected


def test_apply_stencil_quadratic(table_n4):
    samples = [(0.1 * k) ** 2 for k in range(-4, 5)]
    assert apply_stencil(samples, 2, 0.1, table_n4) == pytest.approx(2.0, abs=1e-10)


def test_apply_stencil_exponential():
    table = build_lookup_table(4)
    period = 0.01
    samples = [math.exp(k * period) for k in range(-4, 5)]
    got = apply_stencil(samples, 3, period, table)
    assert got == pytest.approx(1.0, abs=1e-6)


def test_apply_stencil_constant_is_zero(table_n4):
    samples = [3.7] * 9
    for p in range(1, 8):
        assert apply_stencil(samples, p, 0.5, table_n4) == pytest.approx(0.0, abs=1e-9)


def test_apply_stencil_object_array_stays_exact(table_n4):
    period = Fraction(1, 10)
    samples = [(Fraction(k) * period) ** 3 for k in range(-4, 5)]
    got = apply_stencil(np.array(samples, dtype=object), 3, period, table_n4)
    assert type(got) is Fraction
    assert got == apply_stencil(samples, 3, period, table_n4) == 6


def test_apply_stencil_float_array_matches_list(table_n4):
    samples = [math.exp(0.03 * k) for k in range(-4, 5)]
    for p in range(1, 8):
        got = apply_stencil(np.array(samples), p, 0.03, table_n4)
        assert type(got) is float
        assert got == apply_stencil(samples, p, 0.03, table_n4)


def test_apply_stencil_length_mismatch(table_n4):
    with pytest.raises(ValueError):
        apply_stencil([1.0] * 7, 2, 0.1, table_n4)
