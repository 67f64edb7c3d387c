# Monte-Carlo check that sublevel volumes scale like r^(2c):
# sample the polydisk, count |f| < r, regress log volume on log r.

import math

from lctkit import (
    estimate_sublevel_volume,
    fit_exponent,
    lct_monomial,
    parse_spec,
    potential_from_spec,
)

# keep the radius window shallow enough that every cell has real counts
# at 200k samples; the full-depth default window wants ~10^6 samples
WINDOW = dict(samples=200_000, r_min=0.02, r_max=0.3, grid_size=10)

# z1^2 z2 has the exact volume pi^2 (2r - r^2) ~ 2 pi^2 r: c = 1/2, no log factor
for text in ("mono:1", "diag:2,3", "mono:2,1"):
    spec = parse_spec(text)
    fit = fit_exponent(potential_from_spec(spec), **WINDOW)
    print(f"{text:10s} exact c = {str(lct_monomial(spec)):5s} "
          f"fitted c = {fit.fitted_c:.4f} (r^2 = {fit.r_squared:.5f})")

# z1 z2 has volume pi^2 r^2 (1 + 2 log(1/r)): the plain fit absorbs the
# log factor into a low exponent, the corrected fit pulls it back out
spec = parse_spec("mono:1,1")
plain = fit_exponent(potential_from_spec(spec), **WINDOW)
corrected = fit_exponent(potential_from_spec(spec), with_log_correction=True, **WINDOW)
print(f"mono:1,1   exact c = 1     plain fit {plain.fitted_c:.4f}, "
      f"with log regressor {corrected.fitted_c:.4f}")

# the bidisk potential log|z1 z2| has a closed-form sublevel volume,
# pi^2 r^2 (1 + 2 log(1/r)); the estimator should land within 3 sigma
bidisk = potential_from_spec(parse_spec("mono:1,1"))
r = 0.1
estimate, stderr = estimate_sublevel_volume(bidisk, r)
exact_volume = math.pi**2 * r**2 * (1 + 2 * math.log(1 / r))
print(f"bidisk volume at r={r}: estimate {estimate:.5f} +- {stderr:.5f}, "
      f"closed form {exact_volume:.5f}")
print("within 3 standard errors:", abs(estimate - exact_volume) <= 3 * stderr)

# the same seed always gives the same numbers; workers never change them
again, _ = estimate_sublevel_volume(bidisk, r)
print("deterministic:", again == estimate)
