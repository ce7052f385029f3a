"""Evaluation of the change-of-winding crossed homomorphism on lattice automorphisms.

The value on an automorphism A is assembled from its two blocks:

* the point-transvection part contributes the pairing functional against the
  image of the mod-2 signature vector (kappa_2, ..., kappa_n), and
* the symplectic part is factored into transvections, each contributing
  k <., v> times the winding parity of v, accumulated with the cocycle rule.

The result is independent of the chosen factorization; the dedicated
verification suites exercise this rather than assuming it.
"""

from __future__ import annotations

from . import mod2
from .errors import NotSymplectic, SpecMismatch
from .framing import Framing, QForm
from .lattice import CohomClass, SurfaceSpec
from .paut import Mat, PAutElem, factor_sp, mat_vec


def v_kappa_star(m: Mat, spec: SurfaceSpec) -> CohomClass:
    """Pairing functional against the pushed signature vector, x -> <M v, x>.

    v is the reduced mod-2 signature vector (kappa_2, ..., kappa_n); the
    result is identically zero when every kappa entry is even or when n = 1.
    """
    if spec.n == 1:
        return CohomClass.zero(spec.g)
    if len(m) != spec.abs_rank or any(len(row) != spec.zero_rank for row in m):
        raise SpecMismatch(f"M must be {spec.abs_rank}x{spec.zero_rank}")
    vbar = tuple(k & 1 for k in spec.kappa[1:])
    w = mat_vec(m, vbar)
    return CohomClass.from_packed(spec.g, mod2.dual(mod2.pack(w), spec.abs_rank))


def q_hat(q: QForm, sbar: Mat) -> CohomClass:
    """Change of a quadratic form under a mod-2 symplectic matrix, x -> q(Sx) - q(x)."""
    k = 2 * q.g
    if len(sbar) != k or any(len(row) != k for row in sbar):
        raise SpecMismatch(f"matrix must be {k}x{k}")
    cols = mod2.columns(sbar)
    if not mod2.is_symplectic(cols, k):
        raise NotSymplectic("q_hat needs a mod-2 symplectic matrix")
    return CohomClass.from_packed(q.g, mod2.qhat(q.packed, cols, k))


def theta(a: PAutElem, f: Framing) -> CohomClass:
    """Value of the crossed homomorphism on an automorphism, for this framing.

    Split A = R * S~; the R block evaluates through v_kappa_star, the S~ block
    through a transvection factorization with letter values k <., v> P(v),
    combined as value(A) = pullback(S~) value(R) + value(S~).
    """
    spec = f.spec
    if not a.matches(spec):
        raise SpecMismatch(
            f"automorphism is for g={a.g}, n={a.n}; framing for g={spec.g}, n={spec.n}"
        )
    w = spec.abs_rank
    qphi = f.qphi
    th_sym = 0
    for coords, k in factor_sp(a.S):
        if k & 1 == 0:
            continue  # even powers contribute nothing and pull back trivially
        v = mod2.pack(coords)
        th_sym = mod2.pull_transvection(th_sym, v, w)
        if not mod2.quad(qphi, v, w):  # winding parity P(v) = q_phi(v) + 1 is odd
            th_sym ^= mod2.dual(v, w)
    th_rel = v_kappa_star(a.M, spec).packed
    return CohomClass.from_packed(spec.g, mod2.pullback(mod2.columns(a.S), th_rel) ^ th_sym)
