"""Estimate Hurst exponents on simulated fractional Brownian motion.

Runs a small version of the estimator benchmark (the CLI command
`wavescale simulate` writes the same table as CSV) and prints one row per
(H, method) cell.  Increase reps for tighter aggregates.
"""

from wavescale import (
    FbmSpec,
    fbm_from_fgn,
    fgn_sample,
    make_filter,
    run_estimator_benchmark,
    scaling_descriptor,
    wpd_full,
)

# one path, all three estimators
spec = FbmSpec(hurst=0.7, length=1024, seed=11)
path = fbm_from_fgn(fgn_sample(spec))
haar_tree = wpd_full(path, make_filter("haar"), 10)
sym_tree = wpd_full(path, make_filter("symmlet4"), 9)
print(f"single path, true H = {spec.hurst}:")
for method, tree in (("dwt", haar_tree), ("wang", haar_tree),
                     ("jones", sym_tree)):
    d = scaling_descriptor(method, tree)
    print(f"  {method:5s} slope {d.slope:+.3f}  H-hat {d.hurst:.3f}  "
          f"r2 {d.fit.r_squared:.3f}")

# aggregate behavior across replicates
print("\nbenchmark, 200 replicates of length 1024:")
report = run_estimator_benchmark(
    h_grid=[0.2, 0.5, 0.8], n_reps=200, length=1024, master_seed=42)
print(f"{'H':>4} {'method':>7} {'mean':>8} {'std':>7}")
for e in report.entries:
    print(f"{e.hurst:4.1f} {e.method:>7} {e.mean:8.4f} {e.std:7.4f}")
print("\nnote: the dwt column sits a few hundredths low at every H; the "
      "regression over all ten levels includes one- and two-coefficient "
      "nodes whose log energies are biased low (see the acceptance suite "
      "for the full table against the bundled reference values)")
