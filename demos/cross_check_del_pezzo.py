"""Run every built-in self-check on the degree-6 del Pezzo surface.

The same cohomology vector is computed twice, by the engine (the lcm
lattice of the Stanley-Reisner generators, Hochster factors split over
variable-disjoint generator components, neg-group counts) and by the
independent fan-restriction route, and the two are compared on a grid of
divisor classes.  The multiplicity factors are then checked degree by
degree against restriction homology of the fan complex, and Serre
duality is verified for a few sample classes.
"""

from toric_cohomology import (
    canonical_class,
    cohomology,
    cohomology_via_fan,
    hochster_check,
    load_bundled,
    serre_check,
)

model = load_bundled("dP3")
print("canonical class:", canonical_class(model))

grid = [
    (a, b, c, d)
    for a in range(-1, 2) for b in range(-1, 2)
    for c in range(-1, 2) for d in range(-1, 2)
]
mismatches = 0
for alpha in grid:
    scan = cohomology(model, alpha).dims
    fan = cohomology_via_fan(model, alpha)
    if scan != fan:
        mismatches += 1
        print("MISMATCH at", alpha, scan, fan)
print(f"route comparison: {len(grid)} classes, {mismatches} mismatches")

report = hochster_check(model)
print(f"factor-map check: {report.checked} degrees compared, "
      f"{report.vanishing_checked} vanishing checks, ok={report.ok}")

for alpha in [(0, 0, 0, 0), (1, 1, 0, -1), (-2, 1, 0, 2)]:
    ok, rep = serre_check(model, alpha)
    print(f"Serre duality at {alpha}: h={rep['h_alpha']} "
          f"dual class {rep['serre_dual']} h={rep['h_dual']} ok={ok}")
