"""Library guards no other test reaches: each call with the error it raises
(and a fragment of its message) or the result it returns."""

import re

import numpy as np
import pytest

from framedhom import bruteforce as bf
from framedhom import mod2
from framedhom.errors import (
    DimensionMismatch,
    InvalidSurface,
    MissingArcData,
    MoveError,
    SpecMismatch,
    TooLarge,
)
from framedhom.framing import Framing, QForm, winding_parity
from framedhom.kernel import lift_transvection, q_hat
from framedhom.lattice import (
    CohomClass,
    SurfaceSpec,
    arc_class,
    as_punct,
    as_rel,
    rel_punct_pairing,
    sympl,
    x_curve,
)
from framedhom.moves import ConnectSum, match_framings
from framedhom.paut import PAutElem, factor_sp, identity_mat, is_symplectic, mat_mul, pullback_h1
from framedhom.verify import theta_by_factorization
from framedhom.words import Word, act_framing, act_rel, delta_word, track_curve

S2, S11, S3 = SurfaceSpec(2, (2,)), SurfaceSpec(2, (1, 1)), SurfaceSpec(3, (4,))
F2, F11 = Framing.zeros(S2), Framing.zeros(S11)
W2 = Word(S2, ())  # the empty word, on another surface than S11's inputs
NO_ARCS = Framing(S11, (0, 0), (0, 0))

# name: (call, error class or result, message fragment or None)
REFUSALS = {
    "act_rel-surface": (lambda: act_rel(W2, arc_class(S11, 2)), SpecMismatch, "word and class"),
    "track_curve-surface": (lambda: track_curve(W2, arc_class(S11, 2), 0), SpecMismatch, "word and curve"),
    "act_framing-surface": (lambda: act_framing(W2, F11), SpecMismatch, "word and framing"),
    "delta_word-surface": (lambda: delta_word(W2, F11), SpecMismatch, "word and framing"),
    "Word-add-surface": (lambda: W2 + Word(S11, ()), SpecMismatch, "concatenating words over different"),
    "delta_winding-range": (lambda: S2.delta_winding(2), InvalidSurface, "marked point index 2 out of range 1..1"),
    "add-across-lattices": (
        lambda: x_curve(S2, 1) + as_rel(x_curve(S2, 1)), SpecMismatch, "cannot add RelVec to AbsVec",
    ),
    "arc_class-range": (lambda: arc_class(S2, 2), DimensionMismatch, "arc index 2 out of range 2..1"),
    "sympl-lengths": (lambda: sympl((1, 0), (1, 0, 0, 0)), DimensionMismatch, "different lengths"),
    "rel_punct_pairing-surface": (
        lambda: rel_punct_pairing(arc_class(S11, 2), as_punct(x_curve(S2, 1))), SpecMismatch, "different surfaces",
    ),
    "CohomClass-add-genus": (
        lambda: CohomClass.from_packed(2, 0) + CohomClass.from_packed(3, 0), DimensionMismatch, "different genus",
    ),
    "Framing-windings": (lambda: Framing(S2, (0,), (0, 0)), DimensionMismatch, "need 2 x- and y-windings"),
    "QForm-lengths": (lambda: QForm((0, 1), (0,)), DimensionMismatch, "qx and qy must have length g"),
    "winding_parity-surface": (lambda: winding_parity(F2, x_curve(S3, 1)), SpecMismatch, "different surfaces"),
    "q_hat-shape": (lambda: q_hat(QForm((0, 0), (0, 0)), identity_mat(2)), SpecMismatch, "matrix must be 4x4"),
    "lift_transvection-surface": (lambda: lift_transvection(x_curve(S3, 1), F2), SpecMismatch, "different surfaces"),
    "mat_mul-shape": (lambda: mat_mul(((1, 0),), ((1,),)), DimensionMismatch, "shape mismatch"),
    "is_symplectic-shape": (lambda: is_symplectic(identity_mat(2), 2), False, None),
    "pullback_h1-shape": (
        lambda: pullback_h1(identity_mat(2), CohomClass.from_packed(2, 0)), DimensionMismatch, "wrong size",
    ),
    "factor_sp-shape": (lambda: factor_sp(identity_mat(3)), DimensionMismatch, "needs a 2g x 2g matrix"),
    "ConnectSum-sign": (lambda: ConnectSum("x", 1, 2, 2), MoveError, "sign must be +1 or -1"),
    "match_framings-no-arcs": (lambda: match_framings(NO_ARCS, NO_ARCS), MissingArcData, "arc windings"),
    "theta_table-genus": (
        lambda: bf.theta_table(bf.enumerate_sp2(2), Framing.zeros(S3)), SpecMismatch, "framing genus",
    ),
    "verify_qhat_crossed-g3": (lambda: bf.verify_qhat_crossed(3), TooLarge, "sized for g = 2"),
    # keys holding the identity alone: no generator T_x is among them
    "holds_on_edges-tx-outside-keys": (
        lambda: bf._holds_on_edges(
            np.array([bf._identity_key(4)], dtype=np.uint64), np.zeros(1, dtype=np.uint8), bf.humphries(2), 4
        ),
        False,
        None,
    ),
    "mod2.is_symplectic-columns": (lambda: mod2.is_symplectic([1, 2, 4], 4), False, None),
    "theta_by_factorization-surface": (
        lambda: theta_by_factorization(PAutElem.identity(2, 1), F11), SpecMismatch, "automorphism is for g=2, n=1",
    ),
}


@pytest.mark.parametrize("call, expected, fragment", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, expected, fragment):
    if fragment is None:
        assert call() is expected
    else:
        with pytest.raises(expected, match=re.escape(fragment)):
            call()
