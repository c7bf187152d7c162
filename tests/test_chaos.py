import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyhedge.chaos import (
    MAX_ORDER,
    constant_term,
    constant_terms,
    enumerate_compositions,
    phi_from_constants,
    pi_coefficient,
)
from levyhedge.errors import UnsupportedOrderError
from levyhedge.models import CompoundPoisson, FixedJumps, LevyModel, NormalJumps


def partition_count_oracle(k):
    """Dynamic-programming partition counter."""
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


def enumerate_partitions(k):
    """All integer partitions of k as non-increasing tuples (the set L_k)."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(k, k))


def partition_poly_oracle(k, moments):
    """C^(k) as a polynomial in the period length, {power of t: coefficient},
    summed over the partitions of k: a partition with parts i_q and
    multiplicities p_r adds k! / (prod i_q! prod p_r!) prod m'_{i_q} to the
    coefficient of t^(number of parts)."""
    poly = {}
    for part in enumerate_partitions(k):
        coeff = math.factorial(k)
        for q in set(part):
            coeff //= math.factorial(q) ** part.count(q) * math.factorial(part.count(q))
        prod = 1
        for q in part:
            prod = prod * moments.prime(q)
        poly[len(part)] = poly.get(len(part), 0) + coeff * prod
    return poly


def partition_sum_oracle(k, moments, t):
    """C^(k) by the partition sum, independent of the recursion in ``chaos``."""
    return sum(c * t**p for p, c in partition_poly_oracle(k, moments).items())


def raw_moments_from_cumulants(kappas, k_max):
    """Bell-recurrence oracle: mu_n = sum_j C(n-1,j) kappa_{j+1} mu_{n-1-j}.

    Works over Fractions for exact comparison.
    """
    mu = [Fraction(1) if isinstance(kappas[0], Fraction) else 1.0]
    for n in range(1, k_max + 1):
        total = mu[0] * 0
        for j in range(0, n):
            total += math.comb(n - 1, j) * kappas[j] * mu[n - 1 - j]
        mu.append(total)
    return mu[1:]


def multinomial(parts):
    """(i_1, ..., i_l)! = (sum i_j)! / prod i_j!, the factorial reference."""
    return math.factorial(sum(parts)) // math.prod(math.factorial(p) for p in parts)


def exact_moments(m_values, sigma2=Fraction(0)):
    """MomentVector-compatible object over Fractions."""

    class _M:
        def __init__(self):
            self.m = m_values

        def prime(self, i):
            return m_values[i - 1] + sigma2 if i == 2 else m_values[i - 1]

        def __getitem__(self, i):
            return m_values[i - 1]

    return _M()


class TestEnumeration:
    def test_partitions_of_three(self):
        assert set(enumerate_partitions(3)) == {(3,), (2, 1), (1, 1, 1)}

    @pytest.mark.parametrize("k", range(1, 11))
    def test_partition_counts(self, k):
        assert len(enumerate_partitions(k)) == partition_count_oracle(k)

    def test_partition_count_six(self):
        assert len(enumerate_partitions(6)) == 11

    def test_compositions_of_two(self):
        assert set(enumerate_compositions(2)) == {(1,), (2,), (1, 1)}

    @pytest.mark.parametrize("k", range(1, 9))
    def test_composition_count(self, k):
        # compositions with sum <= k: sum_m 2^(m-1) = 2^k - 1
        assert len(enumerate_compositions(k)) == 2**k - 1

    def test_order_range(self):
        with pytest.raises(UnsupportedOrderError):
            enumerate_compositions(13)
        with pytest.raises(UnsupportedOrderError):
            enumerate_compositions(0)

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_partitions_are_sorted_and_sum(self, k):
        for part in enumerate_partitions(k):
            assert sum(part) == k
            assert all(a >= b for a, b in zip(part, part[1:]))


class TestConstantTerm:
    # rational moments: m_i = 2 * 10^-i (compound Poisson, fixed jump 1/10)
    M = tuple(Fraction(2, 10**i) for i in range(1, 21))

    def test_order_one(self):
        mom = exact_moments(self.M)
        t = Fraction(1, 4)
        assert constant_term(1, mom, t) == self.M[0] * t

    def test_order_two_is_second_raw_moment(self):
        sigma2 = Fraction(1, 25)
        mom = exact_moments(self.M, sigma2)
        t = Fraction(1, 12)
        expected = (self.M[1] + sigma2) * t + self.M[0] ** 2 * t**2
        assert constant_term(2, mom, t) == expected

    @pytest.mark.parametrize("k", range(1, 21))
    def test_matches_cumulant_oracle_exactly(self, k):
        sigma2 = Fraction(9, 400)
        mom = exact_moments(self.M, sigma2)
        t = Fraction(1, 52)
        kappas = [self.M[0] * t, (self.M[1] + sigma2) * t] + [
            self.M[q - 1] * t for q in range(3, k + 1)
        ]
        oracle = raw_moments_from_cumulants(kappas, k)
        assert constant_term(k, mom, t) == oracle[k - 1], k

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_partition_sum_exactly(self, k):
        mom = exact_moments(self.M, Fraction(9, 400))
        t = Fraction(3, 17)
        assert constant_term(k, mom, t) == partition_sum_oracle(k, mom, t), k

    def test_one_pass_gives_every_order(self):
        mom = exact_moments(self.M, Fraction(1, 25))
        t = Fraction(1, 7)
        consts = constant_terms(16, mom, t)
        assert len(consts) == 17 and consts[0] == 1
        assert consts == [constant_term(k, mom, t) for k in range(17)]
        assert all(isinstance(c, Fraction) for c in consts[1:])

    def test_no_order_cap(self):
        # only the tuple set is capped; the constants need just the moments
        mom = exact_moments(self.M)
        assert constant_term(MAX_ORDER + 8, mom, Fraction(1, 3)) != 0
        with pytest.raises(UnsupportedOrderError):
            constant_term(-1, mom, Fraction(1, 3))

    def test_mc_agreement_compound_poisson(self):
        model = LevyModel(
            brownian_sigma=0.1,
            jump_spec=CompoundPoisson(2.0, NormalJumps(0.05, 0.1)),
        )
        from levyhedge.models import moment_vector

        mom = moment_vector(model, 8)
        dt = 0.05
        rng = np.random.default_rng(42)
        n = 1_000_000
        z = rng.standard_normal(n) * 0.1 * math.sqrt(dt)
        counts = rng.poisson(2.0 * dt, n)
        sizes = model.jump_spec.law.sample(rng, int(counts.sum()))
        jsum = np.zeros(n)
        np.add.at(jsum, np.repeat(np.arange(n), counts), sizes)
        draws = z + jsum
        for k in range(1, 7):
            powers = draws**k
            se = powers.std(ddof=1) / math.sqrt(n)
            assert abs(powers.mean() - constant_term(k, mom, dt)) < 4 * se, k


class TestPiCoefficient:
    M = tuple(Fraction(3, 7**i) for i in range(1, 10))

    def test_full_tuple_gives_one(self):
        mom = exact_moments(self.M)
        for k in (1, 2, 3, 5):
            assert pi_coefficient((k,), k, mom, Fraction(1, 3)) == 1

    def test_hand_expansion_order_two(self):
        mom = exact_moments(self.M)
        t = Fraction(2, 5)
        assert pi_coefficient((1,), 2, mom, t) == 2 * self.M[0] * t

    def test_rejects_oversized_tuple(self):
        mom = exact_moments(self.M)
        with pytest.raises(UnsupportedOrderError):
            pi_coefficient((2, 1), 2, mom, Fraction(1))

    def test_multinomial(self):
        assert multinomial((1, 1)) == 2
        assert multinomial((2, 1, 0)) == 3
        assert multinomial((3, 2)) == 10
        # pi_coefficient's factor is the factorial reference, tuple by tuple
        mom = exact_moments(self.M)
        t = Fraction(2, 9)
        for k in range(1, 8):
            for theta in enumerate_compositions(k):
                n = k - sum(theta)
                want = multinomial(theta + (n,)) * constant_term(n, mom, t)
                assert pi_coefficient(theta, k, mom, t) == want, theta


class TestPhiExtract:
    def test_order_sixteen_hand_formula(self):
        m = tuple(Fraction(1, 3**i) for i in range(1, 17))
        mom = exact_moments(m, Fraction(1, 50))
        t = Fraction(1, 20)
        s = Fraction(3, 2)
        phi = phi_from_constants(16, constant_terms(16, mom, t), s)
        assert sorted(phi) == list(range(1, 17))
        for j in range(1, 17):
            want = s**16 * multinomial((j, 16 - j)) * constant_term(16 - j, mom, t)
            assert phi[j] == want, j
        assert phi[16] == s**16
        assert phi[15] == s**16 * 16 * m[0] * t

    def test_linear_case(self):
        mom = exact_moments(tuple(Fraction(1, 2**i) for i in range(1, 6)))
        phi = phi_from_constants(1, constant_terms(1, mom, Fraction(1, 10)), Fraction(50))
        assert phi == {1: Fraction(50)}

    def test_second_order_terms(self):
        m = tuple(Fraction(1, 3**i) for i in range(1, 8))
        mom = exact_moments(m)
        t = Fraction(1, 20)
        s = Fraction(10)
        phi = phi_from_constants(2, constant_terms(2, mom, t), s)
        assert phi[2] == s**2
        assert phi[1] == s**2 * 2 * m[0] * t

    def test_zero_mean_stochastic_part(self):
        # E[sum_j phi_j dY^(j)] = 0 by construction; MC check on one period
        model = LevyModel(jump_spec=CompoundPoisson(3.0, FixedJumps(0.08)))
        from levyhedge.models import moment_vector

        mom = moment_vector(model, 6)
        dt = 0.02
        phi = phi_from_constants(3, constant_terms(3, mom, dt))
        rng = np.random.default_rng(5)
        n = 400_000
        counts = rng.poisson(3.0 * dt, n)
        vals = np.zeros(n)
        for j, coeff in phi.items():
            # dY_j = counts * 0.08^j - m_j dt for fixed jumps
            vals += coeff * (counts * 0.08**j - mom[j] * dt)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean()) < 4 * se


class TestConstantTermPoly:
    """The partition oracle grouped by powers of t: C^(k) is a polynomial
    of degree <= k in the period length, linear at k = 1."""

    def test_degree_and_linearity(self):
        m = tuple(Fraction(2, 10**i) for i in range(1, 10))
        mom = exact_moments(m, Fraction(1, 25))
        assert partition_poly_oracle(1, mom) == {1: m[0]}
        for k in range(2, 9):
            poly = partition_poly_oracle(k, mom)
            assert max(poly) <= k
            for t in (Fraction(3, 17), Fraction(5, 2)):
                assert sum(c * t**p for p, c in poly.items()) == constant_term(k, mom, t)
