"""Membership in the kernel of the crossed homomorphism, lifts, and structure reports.

The kernel is the homological image of the framing's stabilizer in the
mapping class group, and equals the homological monodromy group of the
corresponding stratum of abelian differentials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoLiftExists, NotPrimitive, SpecMismatch
from .framing import Framing, QForm, arf_of_form, spin_form, winding_parity
from .lattice import AbsVec
from .mod2 import sp2_order
from .paut import PAutElem, transvection, zero_mat
from .theta import theta


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


@dataclass(frozen=True)
class StructureReport:
    """Shape of the kernel in the two parity regimes.

    Even regime (all kappa even): the kernel is the spin stabilizer extended
    by every point transvection; carries the spin form and its Arf invariant.
    Odd regime: the kernel surjects onto the full symplectic group and is cut
    out on the point-transvection side by the reduced signature vector.
    """

    regime: str  # "even" or "odd"
    q: QForm | None = None
    arf: int | None = None
    v_bar: tuple[int, ...] | None = None
    mod2_kernel_order: int | None = None


def structure_report(f: Framing) -> StructureReport:
    """Regime, invariants, and (for g <= 3, n <= 3) the exact mod-2 kernel order.

    The order is the regime formula, with w = 2g.  Even regime: the spin
    stabilizer, |Sp(2g, 2)| over the 2^(g-1) (2^g + (-1)^Arf) forms of the
    spin form's Arf value (Sp(2g, 2) is transitive on them), times all
    2^(w(n-1)) mod-2 M blocks.  Odd regime: every S, each with the
    2^(w(n-2)) M blocks that solve S^T <M vbar, .> = theta(S).
    bruteforce.kernel_order_mod2(f, "enumerate") counts the pairs one by one.
    """
    spec = f.spec
    g, n, w = spec.g, spec.n, spec.abs_rank
    counted = g <= 3 and n <= 3
    if all(k % 2 == 0 for k in spec.kappa):
        q = spin_form(f)
        arf = arf_of_form(q)
        forms = (1 << (g - 1)) * ((1 << g) + (-1) ** arf)
        order = (sp2_order(g) // forms) << (w * (n - 1)) if counted else None
        return StructureReport("even", q=q, arf=arf, mod2_kernel_order=order)
    order = sp2_order(g) << (w * (n - 2)) if counted else None
    return StructureReport("odd", v_bar=tuple(k & 1 for k in spec.kappa[1:]), mod2_kernel_order=order)
