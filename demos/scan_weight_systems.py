"""Scan a whole box of weight systems and certify the survivors.

The scan never builds the box.  Fletcher's condition (i) for x3 allows
only a few values of a3 for each triple a0 <= a1 <= a2, so it visits
about 441 thousand of the box's 11 million systems.  The prefilter then
runs in two stages: condition (i) for x0, x1, x2, vectorized over all of
those, and then, on each of the 938 left, triple coprimality and
conditions (ii)/(iv), each a closed-form test of whether a degree is
m*a + p*b.  The exact certifier sees only a handful, so the box takes
well under a second on one core.  "examined" still counts every system
of the box.
"""

import time

from lctkit import ScanConfig, scan

config = ScanConfig(max_a3=128, fano_index=1, min_a0=3, require_refined=True)
start = time.time()
report = scan(config)
elapsed = time.time() - start

print(f"scanned the box of {report.examined:,} weight systems in {elapsed:.2f}s")
print(f"prefilter kept {report.prefilter_survivors}, "
      f"{len(report.entries)} pass all orbifold conditions")
print(f"largest smallest-weight among hits: a0 = {report.max_a0}")
print()

print(report.to_csv())

for cert in report.certified + report.certified_refined:
    w = cert.weights
    print(f"certified: X_{w.d} in P{w.a}  rho={float(cert.rho):.6f} -> {cert.verdict}")
