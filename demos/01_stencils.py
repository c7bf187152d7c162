# %%
# Arbitrary-order central-difference stencils and the precomputed table.
#
# A p-th derivative is estimated from 2N+1 equally spaced samples.  The
# coefficients are exact rationals over one denominator (2N)!: their
# numerators are integers built from the elementary symmetric sums of the
# squared offsets {y^2}, one polynomial product plus a deflation per offset,
# so even wide tables build in milliseconds.

from fractions import Fraction
import math
import time

from levyhedge import apply_stencil, build_lookup_table
from levyhedge.stencil import stencil_coefficient

# %%
# The classics drop out of the general formula:
print("3-point second derivative:", [stencil_coefficient(2, 1, k) for k in (-1, 0, 1)])
print("5-point first derivative: ", [stencil_coefficient(1, 2, k) for k in range(-2, 3)])

# %%
# A table holds half rows over (2N)!, offsets 0..N, since d_{-k} = (-1)^p d_k;
# its exact entries match the single-coefficient formula.
table = build_lookup_table(6)
assert all(table.entries[(p, k)] == stencil_coefficient(p, 6, k)
           for p in range(1, table.p_max + 1) for k in range(-6, 7))
print(f"table: N={table.half_width}, orders 1..{table.p_max}, "
      f"denominator (2N)! = {table.denominator}")

start = time.perf_counter()
wide = build_lookup_table(40)
print(f"table: N={wide.half_width}, orders 1..{wide.p_max}, "
      f"built in {time.perf_counter() - start:.3f} s")

# %%
# Differentiate exp(t) at 0: every derivative is 1.
period = 0.05
samples = [math.exp(k * period) for k in range(-6, 7)]
for p in (1, 2, 3, 5, 8):
    est = apply_stencil(samples, p, period, table)
    print(f"d^{p} exp(0) ~ {est:.10f}   (error {abs(est - 1):.2e})")

# %%
# Polynomial exactness in rational arithmetic: monomials t^j map to
# p! * delta_{jp}, with zero float fuzz.
period_q = Fraction(1, 20)
for p in (2, 4):
    row = [apply_stencil([(Fraction(k) * period_q) ** j for k in range(-6, 7)],
                         p, period_q, table) for j in range(0, 7)]
    print(f"p={p}:", row)
