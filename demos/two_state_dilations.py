"""Three ways to dilate a two-state stochastic matrix to a bi-stochastic one,
plus the Sinkhorn alternative that rescales instead of enlarging.  Each
dilation is a coarse graining T = X S Y: the result carries its partition
and right inverse.  Every fact printed is also asserted, so a wrong result
stops the demo.

Run:  python3 demos/two_state_dilations.py
"""

from fractions import Fraction

import numpy as np

import bistoch as bs
from bistoch import EXACT, FLOAT, ProbVec
from bistoch.core import RESIDUAL_TOL

a, b = Fraction(1, 3), Fraction(2, 3)
T = bs.two_state(a, b)
print(f"T = {T.to_float().a.tolist()}  (a={a}, b={b})")

# --- 1. uniform dilation through a coarse graining -------------------------
# Any T with a strictly positive rational fixed point is the coarse graining
# of a bi-stochastic matrix on d = lcm(denominators) states.
p = ProbVec([a, b], mode=EXACT)
dil = bs.uniform_dilation(T, p)
print(f"\nuniform dilation: d = {dil.partition.d}, class sizes = {dil.partition.class_sizes}")
print("S =")
print(dil.matrix.to_float().a)
bi = bs.validate(dil.matrix).bi
back = bs.coarse_grain(dil.matrix, dil.partition, dil.right_inverse)
print(f"S bi-stochastic exactly: {bi}")
print(f"coarse graining S returns T exactly: {back == T}")
assert dil.partition.class_sizes == (1, 2) and bi and back == T and all(dil.checks.values())

# --- 2. noisy environmental dilation ---------------------------------------
E = bs.noisy_dilation(T)
print(f"\nnoisy dilation: {E.matrix.rows}x{E.matrix.cols} on system x environment")
print(E.matrix.to_float().a)
print(f"environment: {E.partition.n} classes of {E.partition.class_sizes[0]} composite states")
holds, extracted = bs.verify_env_dilation(T, E), bs.extract_dilated(E.matrix, 0)
print(f"marginal identity holds: {holds}")
print(f"extract_dilated recovers T: {extracted == T}")
assert bs.validate(E.matrix).bi and holds and extracted == T
assert bs.coarse_grain(E.matrix, E.partition, E.right_inverse) == T

# --- 3. unistochastic dilation through Kraus operators ---------------------
Tf = T.to_float()
K = bs.kraus_from_stochastic(Tf)
print(f"\nKraus operators ({len(K.operators)} of them), completeness defect {K.completeness_defect():.2e}")
assert len(K.operators) == 2 and K.completeness_defect() <= RESIDUAL_TOL
udil = bs.unistochastic_dilation(Tf)
print(f"orthogonality defect of the completed 4x4 matrix: {udil.orthogonality_defect():.2e}")
print("R = U*U entrywise:")
print(udil.matrix.a.round(6))
recovered = bs.extract_dilated(udil.matrix, 0, tol=1e-12).allclose(Tf, tol=1e-12)
print(f"extract_dilated recovers T to 1e-12: {recovered}")
assert udil.orthogonality_defect() <= RESIDUAL_TOL and np.array_equal(udil.matrix.a, udil.unitary**2)
assert recovered and bs.verify_env_dilation(Tf, udil)

# --- Sinkhorn: make T itself bi-stochastic by diagonal scaling --------------
# Instead of enlarging the state space, rescale: diag(d1) T diag(d2) is
# bi-stochastic and symmetric for every strictly positive 2x2 T.
af, bf = float(a), float(b)
d1, d2, pstar = bs.sinkhorn_2x2(af, bf)
print(f"\nclosed-form Sinkhorn: d1 = {d1.round(6)}, d2 = {d2.round(6)}, p = {pstar:.6f}")
res = bs.sinkhorn_knopp(bs.two_state(af, bf, mode=FLOAT))
print(f"iterative Sinkhorn converged in {res.iterations} sweeps, defect {res.final_defect:.2e}")
print("balanced matrix:")
print(res.matrix.a.round(6))
gap = np.max(np.abs(res.matrix.a - [[1 - pstar, pstar], [pstar, 1 - pstar]]))
print(f"agreement with the closed form: {gap:.2e}")
print("note a + b = 1 here, so the balanced matrix is the flat 1/2 matrix")
assert res.final_defect <= RESIDUAL_TOL and gap <= RESIDUAL_TOL
assert np.max(np.abs(res.matrix.a - 0.5)) <= RESIDUAL_TOL
