"""
Mapping strategy regions across parameter space
===============================================

A two-axis sweep over (alpha, delta) shows the beefing region shrinking as
sponsor pressure rises. The sweep is written out as CSV plus a standalone
SVG heatmap (one rectangle per cell, green = collaboration, red = beefing).
"""

from pathlib import Path

from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    Exact,
    Strategy,
    SweepAxis,
    SweepSpec,
    region_boundary,
    run_sweep,
    write_sweep,
)

spec = SweepSpec(
    axis1=SweepAxis("alpha", 0.0, 4.0, 17),
    axis2=SweepAxis("delta", 0.0, 5.0, 21),
    weights=AlgorithmWeights(1.0, 1.0, 1.0),
    creator=CreatorParams(1.0),
    table=DEFAULT_TABLE,
    rule=Exact(),
)
cells = run_sweep(spec)
beef_cells = sum(1 for c in cells if c.chosen is Strategy.BEEFING)
print(f"{len(cells)} cells evaluated; {beef_cells} choose beefing")

out_dir = Path(__file__).resolve().parent / "out"
out_dir.mkdir(exist_ok=True)
# one walk of the lattice writes both files (emit_csv and emit_region_svg would walk it once each)
with open(out_dir / "alpha_delta_regions.csv", "wb") as csv, open(out_dir / "alpha_delta_regions.svg", "wb") as svg:
    write_sweep(cells, csv=lambda: csv, svg=lambda: svg)
print(f"wrote {out_dir / 'alpha_delta_regions.csv'}")
print(f"wrote {out_dir / 'alpha_delta_regions.svg'}")

# A one-axis delta sweep has an analytic region edge.
line = SweepSpec(
    axis1=SweepAxis("delta", 0.0, 10.0, 11),
    axis2=None,
    weights=AlgorithmWeights(2.5, 0.5, 2.0),
    creator=CreatorParams(1.0),
    table=DEFAULT_TABLE,
    rule=Exact(),
)
print(f"\ndelta sweep boundary for clicks/shares-heavy weights: {region_boundary(line):.4f}")
print("chosen along the sweep:", " ".join(c.chosen.value[0] for c in run_sweep(line)))
