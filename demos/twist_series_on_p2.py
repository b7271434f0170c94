"""Walk through the basic workflow on the projective plane.

Loads the bundled model, prints its combinatorial data, then sweeps the
twists O(m) for m in [-6, 6] and shows where each dimension comes from:
the scanned squarefree degrees, their multiplicity factors, and the
monomial counts that weight them.
"""

from toric_cohomology import cohomology, engine_for, load_bundled
from toric_cohomology._bits import bitstring, to_1based

model = load_bundled("P2")

print("model:", ", ".join(model.coordinate_names))
print("dimension:", model.dim)
print("charges:", model.charges)
print("Stanley-Reisner generators:",
      [set(to_1based(g)) for g in model.sr_generators])
print()

engine = engine_for(model)
print("scanned degrees and multiplicity factors:")
for deg, factors in engine.table.items():
    print(f"  {bitstring(deg, model.n)} -> {factors}")
print()

print(" m | h0 h1 h2")
print("---+---------")
for m in range(-6, 7):
    h = cohomology(model, (m,)).dims
    print(f"{m:>2} | {h[0]:>2} {h[1]:>2} {h[2]:>2}")
print()

# the breakdown of a single class, with the actual monomial witnesses
result = cohomology(model, (-4,))
print("breakdown of O(-4):")
for entry in result.breakdown:
    print(f"  degree {bitstring(entry.degree, model.n)}"
          f" count={entry.count.value} contributes {entry.contrib}")
