#!/usr/bin/env python3
"""Point-null and peri-null Bayes factors for a two-sample study.

A two-sample study reported its group summaries: 47 participants at
M = 25.1, SD = 7.3 versus 43 participants at M = 28.0, SD = 6.2, with a
published test statistic of t(88) = 2.00. This script walks through the
Bayes factors that comparison supports:

  * the default point-null test (Cauchy prior on the effect size), and
  * the same test against a peri-null hypothesis, where the point null is
    replaced by a Normal(0, kappa0^2) distribution tightly concentrated
    around zero.

The punchline of the decomposition is that the peri-null Bayes factor is
the point-null Bayes factor times a correction factor -- the Bayes factor
between the point null and the peri-null -- and at this sample size the
correction barely matters.
"""

import dataclasses
import math

import perinull as pn

KAPPA1 = 1.0 / math.sqrt(2.0)  # default Cauchy scale for the alternative

# Ingesting the raw summaries recomputes the pooled t statistic (-2.02 here;
# the published 2.00 was rounded). We keep the design it implies but run the
# showcase at the published statistic, which is what the reported Bayes
# factors correspond to.
ingested = pn.ingest_two_sample(25.1, 7.3, 47, 28.0, 6.2, 43)
print(f"ingested from summaries: t = {ingested.t:+.4f}, nu = {ingested.nu:.0f}, "
      f"n_eff = {ingested.n_eff:.3f}")

stats = dataclasses.replace(ingested, t=2.00)

print(f"\nBayes factors at the published t = {stats.t} "
      f"(alternative scale kappa1 = 1/sqrt(2)):\n")
header = f"{'t':>5} {'kappa0':>7} {'BF10':>10} {'BF00~':>8} {'BF1~0':>10} {'P(H1|y)':>9}"
print(header)
print("-" * len(header))
for t in (2.00, 4.00):
    at_t = dataclasses.replace(stats, t=t)
    point = pn.point_null_bf10(at_t, KAPPA1)
    for kappa0 in (0.01, 0.05):
        peri = pn.peri_null_bf(at_t, kappa0, KAPPA1)
        correction = math.exp(peri.correction_log_bf)
        print(f"{t:5.2f} {kappa0:7.2f} {point.bf:10.3f} {correction:8.3f} "
              f"{peri.bf:10.3f} {peri.posterior_prob_numerator:9.4f}")

print("""
Reading the table: with kappa0 = 0.01 the peri-null is practically the point
null (correction ~ 1). Even at kappa0 = 0.05 and t = 4 -- where the raw BF
drops from about 174 to about 124 -- the posterior probability of the
alternative barely moves (0.994 vs 0.992). At moderate n, the point null is a
fine stand-in for a peri-null. The asymptotic story is different: see
asymptotic_theory_tour.py and inconsistency_curves.py.
""")

# The decomposition is exact up to rounding: the point-null and peri-null
# marginals are closed-form scaled t densities, and the Cauchy marginal (a
# trapezoid rule over log g) is shared by both factors. Every marginal,
# the interval null's slices included, is closed form or a fixed trapezoid
# rule.
peri = pn.peri_null_bf(stats, 0.05, KAPPA1)
residual = peri.log_bf - (peri.point_null_log_bf + peri.correction_log_bf)
print(f"decomposition residual (log scale): {residual:.2e} "
      f"(error bound {peri.quad_error_bound:.2e})")
