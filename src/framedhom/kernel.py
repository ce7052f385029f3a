"""The change-of-winding crossed homomorphism, its kernel, lifts, and structure reports.

Write an automorphism as A = (S, M): S the symplectic block, M the
point-transvection block.  Let q_phi be the quadratic refinement of the mod-2
intersection form with basis values phi(b) + 1; the winding parity of a
simple closed curve in class v is q_phi(v) + 1.  Then, in both parity regimes,

    theta(A) = S^T v_kappa*(M) + q_hat(q_phi, S)      (mod 2),

where v_kappa*(M) is the functional x -> <M (kappa_2, ..., kappa_n), x> and
q_hat(q, S) is the defect x -> q(S x) - q(x) of q under S (D. Johnson, "Spin
structures and quadratic forms on surfaces", J. London Math. Soc. 1980).
Adding a functional f to a quadratic form shifts its defect by S^T f + f,
since (q + f)(S x) - (q + f)(x) = q(S x) - q(x) + f(S x) + f(x) mod 2, so
with v = v_kappa*(M)

    theta(A) = q_hat(q_phi + v, S) + v      (mod 2),

one pass over S's columns.  The value is a few packed mod-2 operations
whatever the size of S's entries; the letter-by-letter evaluation over
`factor_sp` is kept in `framedhom.verify.theta_by_factorization` as the
independent oracle.

The kernel is the homological image of the framing's stabilizer in the
mapping class group, and equals the homological monodromy group of the
corresponding stratum of abelian differentials.
"""

from __future__ import annotations

from . import mod2
from .errors import NoLiftExists, NotPrimitive, NotSymplectic, SpecMismatch
from .framing import Framing, QForm, spin_form, winding_parity
from .lattice import AbsVec, CohomClass, SurfaceSpec
from .paut import Mat, PAutElem, transvection, zero_mat
from .value import Value, _set


def v_kappa_star(m: Mat, spec: SurfaceSpec) -> CohomClass:
    """Pairing functional against the pushed signature vector, x -> <M v, x>.

    v is the reduced mod-2 signature vector (kappa_2, ..., kappa_n); the
    result is identically zero when every kappa entry is even or when n = 1.
    """
    rank, cols = spec.abs_rank, spec.zero_rank
    if len(m) != rank or any(len(row) != cols for row in m):
        raise SpecMismatch(f"M must be {rank}x{cols}")
    if cols == 0:  # n = 1
        return CohomClass.zero(spec.g)
    # M vbar mod 2, packed: the sum of M's odd-kappa columns
    w = 0
    for j, k in enumerate(spec.kappa[1:]):
        if k & 1:
            for i, row in enumerate(m):
                if row[j] & 1:
                    w ^= 1 << i
    return CohomClass.from_packed(spec.g, mod2.dual(w, rank))


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

    Closed form theta(A) = S^T v + q_hat(q_phi, S) mod 2, v = v_kappa*(M),
    evaluated as the defect of the shifted form: q_hat(q_phi + v, S) + v,
    because (q + v)(S x) - (q + v)(x) = q_hat(q, S)(x) + v(S x) + v(x); see
    the module docstring.  S was checked symplectic where A was built, so it
    is not checked again here.
    """
    spec = f.spec
    if not a.matches(spec):
        raise SpecMismatch(
            f"automorphism is for g={a.g}, n={a.n}; framing for g={spec.g}, n={spec.n}"
        )
    v = v_kappa_star(a.M, spec).packed
    shifted = mod2.qhat(f.qphi ^ v, mod2.columns(a.S), spec.abs_rank)
    return CohomClass.from_packed(spec.g, shifted ^ v)


def kernel_test(a: PAutElem, f: Framing) -> bool:
    """True iff the automorphism lies in the kernel for this framing."""
    return theta(a, f).is_zero()


def lift_transvection(v: AbsVec, f: Framing) -> PAutElem:
    """Kernel element whose symplectic part is the transvection about v.

    Even winding parity: the plain transvection already lies in the kernel.
    Odd parity with some odd kappa entry: repair with a point transvection
    sending the lowest odd-signature point class to v.  Odd parity with all
    kappa even: no lift exists (the kernel's symplectic image is the spin
    stabilizer, which excludes this transvection).
    """
    spec = f.spec
    if v.spec != spec:
        raise SpecMismatch("class and framing live over different surfaces")
    if not v.is_primitive():
        raise NotPrimitive("transvections lift along primitive classes only")
    if winding_parity(f, v) == 0:
        m = zero_mat(spec.abs_rank, spec.zero_rank)
    else:
        odd = next((i for i in range(2, spec.n + 1) if spec.kappa[i - 1] % 2), None)
        if odd is None:
            raise NoLiftExists(
                "winding parity 1 with all kappa even: transvection is outside "
                "the spin stabilizer"
            )
        m = tuple(
            tuple(v.coords[i] if j == odd - 2 else 0 for j in range(spec.zero_rank))
            for i in range(spec.abs_rank)
        )
    out = PAutElem._trusted(spec.g, spec.n, transvection(v, 1), m)
    if not kernel_test(out, f):
        raise AssertionError("constructed lift fails the kernel test")
    return out


# The largest genus and number of marked points that the exhaustive mod-2
# engine (bruteforce) serves: structure_report carries mod2_kernel_order
# exactly where bruteforce.kernel_order_mod2 can count it.  The genus is
# also where enumerate_sp2's 2^(2g)-bit masks still fit one uint64.
MOD2_MAX_G = 3
MOD2_MAX_N = 3


def mod2_countable(spec: SurfaceSpec) -> bool:
    """Whether the exhaustive mod-2 kernel count serves spec: g <= MOD2_MAX_G, n <= MOD2_MAX_N."""
    return spec.g <= MOD2_MAX_G and spec.n <= MOD2_MAX_N


class StructureReport(Value):
    """Shape of the kernel in the two parity regimes.

    Even regime (all kappa even): the kernel is the spin stabilizer extended
    by every point transvection; carries the spin form and its Arf invariant.
    Odd regime: the kernel surjects onto the full symplectic group and is cut
    out on the point-transvection side by the reduced signature vector.
    """

    __slots__ = _fields = ("regime", "q", "arf", "v_bar", "mod2_kernel_order")
    regime: str  # "even" or "odd"
    q: QForm | None
    arf: int | None
    v_bar: tuple[int, ...] | None
    mod2_kernel_order: int | None

    def __init__(
        self,
        regime: str,
        q: QForm | None = None,
        arf: int | None = None,
        v_bar: tuple[int, ...] | None = None,
        mod2_kernel_order: int | None = None,
    ) -> None:
        _set(self, "regime", regime)
        _set(self, "q", q)
        _set(self, "arf", arf)
        _set(self, "v_bar", v_bar)
        _set(self, "mod2_kernel_order", mod2_kernel_order)


def structure_report(f: Framing) -> StructureReport:
    """Regime, invariants, and (for g <= MOD2_MAX_G, n <= MOD2_MAX_N) the exact mod-2 kernel order.

    The order is the regime formula, with w = 2g.  Even regime: the spin
    stabilizer, |Sp(2g, 2)| over the 2^(g-1) (2^g + (-1)^Arf) forms of the
    spin form's Arf value (Sp(2g, 2) is transitive on them), times all
    2^(w(n-1)) mod-2 M blocks.  Odd regime: every S, each with the
    2^(w(n-2)) M blocks that solve S^T <M vbar, .> = theta(S).
    bruteforce.kernel_order_mod2(f, "enumerate") solves it for M vbar per S.
    """
    spec = f.spec
    g, n, w = spec.g, spec.n, spec.abs_rank
    counted = mod2_countable(spec)
    if all(k % 2 == 0 for k in spec.kappa):
        q = spin_form(f)
        arf = mod2.arf(q.packed, w)
        forms = (1 << (g - 1)) * ((1 << g) + (-1) ** arf)
        order = (mod2.sp2_order(g) // forms) << (w * (n - 1)) if counted else None
        return StructureReport("even", q=q, arf=arf, mod2_kernel_order=order)
    order = mod2.sp2_order(g) << (w * (n - 2)) if counted else None
    return StructureReport("odd", v_bar=tuple(k & 1 for k in spec.kappa[1:]), mod2_kernel_order=order)
