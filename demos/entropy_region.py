"""Map the entropy-decreasing region D(T) of the Maxwell-demon matrix and
peel its bi-stochastic dilation into permutation matrices.

Run:  python3 demos/entropy_region.py
Writes region_scan.csv next to this script for external plotting.
"""

import os

import bistoch as bs
from bistoch import EXACT, ProbVec

T = bs.maxwell_demon(mode=EXACT)

# D(T) is the set of distributions whose entropy does not grow under T.  It
# is convex, contains the barycenter, and has the fixed-point face on its
# boundary (where the entropy is exactly preserved).
uniform = ProbVec.uniform(4, mode=EXACT)
print(f"uniform in D(T):        {bs.in_decreasing_region(T, uniform)}")
print(f"fixed point in D(T):    {bs.in_decreasing_region(T, ProbVec([0.5, 0, 0, 0.5]))}")
print(f"vertex (0,1,0,0) in D:  {bs.in_decreasing_region(T, ProbVec.point_mass(4, 1))}")

directions = [ProbVec.point_mass(4, k, mode=EXACT) for k in range(4)]
points = bs.region_boundary_scan(T, uniform, directions)
print("\nboundary along rays from the barycenter to each vertex:")
for k, bp in enumerate(points):
    tag = "segment fully inside" if bp.full_segment_inside else f"exits at t = {bp.t:.6f}"
    print(f"  vertex {k}: {tag}, H(p) = {bp.h_p:.6f}, H(Tp) = {bp.h_tp:.6f}")

# dump the scan's grid samples for plotting
out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "region_scan.csv")
lines = ["t,p0,p1,p2,p3,H(p),H(Tp)"]
lines += [",".join(f"{v:.12g}" for v in row) for bp in points for row in bp.samples]
with open(out, "w") as fh:
    fh.write("\n".join(lines) + "\n")
print(f"\nwrote {len(lines) - 1} samples to {out}")

# --- Birkhoff decomposition of the dilation --------------------------------
R = bs.maxwell_demon_dilation(mode=EXACT)
dec = bs.birkhoff_decompose(R)
print(f"\nthe 16x16 dilation splits into {len(dec.terms)} permutation matrices")
print(f"weights sum to {dec.weight_sum()} and reconstruction is exact: {dec.reconstruct(mode=EXACT) == R}")
largest = max(dec.terms)
print(f"largest weight: {largest[0]}")
