"""Evaluation of the change-of-winding crossed homomorphism on lattice automorphisms.

Write an automorphism as A = (S, M): S the symplectic block, M the
point-transvection block.  Let q_phi be the quadratic refinement of the mod-2
intersection form with basis values phi(b) + 1; the winding parity of a
simple closed curve in class v is q_phi(v) + 1.  Then, in both parity regimes,

    theta(A) = S^T v_kappa*(M) + q_hat(q_phi, S)      (mod 2),

where v_kappa*(M) is the functional x -> <M (kappa_2, ..., kappa_n), x> and
q_hat(q, S) is the defect x -> q(S x) - q(x) of q under S (D. Johnson, "Spin
structures and quadratic forms on surfaces", J. London Math. Soc. 1980).  The
defect term is the accumulated letter value k <., v> P(v) of any transvection
factorization of S, since q_phi(T_v x) - q_phi(x) = <x, v> (q_phi(v) + 1).

The value is a few packed mod-2 operations whatever the size of S's entries.
The letter-by-letter evaluation over `factor_sp` is kept in
`framedhom.verify.theta_by_factorization` as the independent oracle.
"""

from __future__ import annotations

from . import mod2
from .errors import NotSymplectic, SpecMismatch
from .framing import Framing, QForm
from .lattice import CohomClass, SurfaceSpec
from .paut import Mat, PAutElem, mat_vec


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
    """Change x -> q(Sx) - q(x) of a quadratic form under S mod 2 (S integer or 0/1)."""
    k = 2 * q.g
    if len(sbar) != k or any(len(row) != k for row in sbar):
        raise SpecMismatch(f"matrix must be {k}x{k}")
    cols = mod2.columns(sbar)
    if not mod2.is_symplectic(cols, k):
        raise NotSymplectic("q_hat needs a mod-2 symplectic matrix")
    return CohomClass.from_packed(q.g, mod2.qhat(q.packed, cols, k))


def theta(a: PAutElem, f: Framing) -> CohomClass:
    """Value of the crossed homomorphism on an automorphism, for this framing.

    Closed form theta(A) = S^T v_kappa*(M) + q_hat(q_phi, S) mod 2, the
    quadratic-form defect of Johnson (J. London Math. Soc. 1980); see the
    module docstring.  S was checked symplectic where A was built, so it is
    not checked again here.  `framedhom.verify.theta_by_factorization`
    computes the same value letter by letter over `factor_sp`, as the oracle.
    """
    spec = f.spec
    if not a.matches(spec):
        raise SpecMismatch(
            f"automorphism is for g={a.g}, n={a.n}; framing for g={spec.g}, n={spec.n}"
        )
    cols = mod2.columns(a.S)
    th_rel = mod2.pullback(cols, v_kappa_star(a.M, spec).packed)
    return CohomClass.from_packed(spec.g, th_rel ^ mod2.qhat(f.qphi, cols, spec.abs_rank))
