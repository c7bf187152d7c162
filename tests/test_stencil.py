import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyhedge.errors import InsufficientNodesError, TableFormatError
from levyhedge.stencil import (
    apply_stencil,
    build_lookup_table,
    load_table,
    save_table,
    stencil_coefficient,
)

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
    "p,n", [(1, 2), (2, 2), (3, 2), (4, 3), (5, 3), (7, 4), (6, 6), (2, 1), (6, 3), (8, 4)]
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
            assert table_n4.coefficient(p, k) == stencil_coefficient(p, 4, k)


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


# sha256 of save_table(build_lookup_table(n)), p_max = 2n - 1
_TABLE_DIGESTS = {
    20: "1eb7f07dee9db0d2cfaf5b1aaebe03af008e18fc6630552ad81012ff7ce061be",
    40: "597341219807e6a206d7c942ad4de2adc2c677dc9a96cc00c99a38a0c35431a8",
}


@pytest.mark.parametrize("n", sorted(_TABLE_DIGESTS))
def test_saved_table_is_pinned(tmp_path, n):
    path = tmp_path / "table.txt"
    save_table(build_lookup_table(n), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _TABLE_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 7, 20, 40])
def test_float_rows_round_each_entry_once(tmp_path, n):
    built = build_lookup_table(n)
    path = tmp_path / "table.txt"
    save_table(built, path)
    loaded = load_table(path)
    for table in (built, loaded):
        for p in range(1, table.p_max + 1):
            expected = [float(d) for d in table.row_exact(p)]
            assert table.row(p).tolist() == expected, (n, p)


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


def test_save_load_round_trip(tmp_path, table_n4):
    path = tmp_path / "table.txt"
    save_table(table_n4, path)
    loaded = load_table(path)
    assert loaded.half_width == table_n4.half_width
    assert loaded.p_max == table_n4.p_max
    assert loaded.entries == table_n4.entries


def test_load_rejects_out_of_range_offset(tmp_path, table_n4):
    path = tmp_path / "table.txt"
    save_table(table_n4, path)
    lines = path.read_text().splitlines()
    lines[1] = "1 5 1/2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableFormatError) as exc:
        load_table(path)
    assert exc.value.line == 2


def test_load_rejects_version_mismatch(tmp_path, table_n4):
    path = tmp_path / "table.txt"
    save_table(table_n4, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("V=1", "V=99")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableFormatError) as exc:
        load_table(path)
    assert "version" in str(exc.value)


def test_load_rejects_garbage_row(tmp_path, table_n4):
    path = tmp_path / "table.txt"
    save_table(table_n4, path)
    lines = path.read_text().splitlines()
    lines[3] = "1 0 not-a-fraction"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableFormatError) as exc:
        load_table(path)
    assert exc.value.line == 4


def test_load_rejects_repeated_row(tmp_path):
    # N=1, PMAX=1: the entry count still matches, so a repeat that replaced
    # the earlier row would load d_1 as 1/3 instead of 1/2
    path = tmp_path / "table.txt"
    path.write_text("N=1 PMAX=1 V=1\n1 -1 -1/2\n1 0 0/1\n1 1 1/2\n1 1 1/3\n")
    with pytest.raises(TableFormatError, match="twice") as exc:
        load_table(path)
    assert exc.value.line == 5


@pytest.mark.parametrize("field", ["N=x", "PMAX=1.5", "V=one"])
def test_load_rejects_non_integer_header(tmp_path, table_n4, field):
    path = tmp_path / "table.txt"
    save_table(table_n4, path)
    lines = path.read_text().splitlines()
    key = field.split("=")[0]
    lines[0] = " ".join(field if item.startswith(key + "=") else item
                        for item in lines[0].split())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableFormatError, match="integer") as exc:
        load_table(path)
    assert exc.value.line == 1
