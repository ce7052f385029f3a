"""Reference formulas that the tests check the library against, each fact stated once.

Plain integers and the standard library: nothing here imports the package
under test or numpy (tests/test_namespace.py holds that), and library objects
are read only through their stored fields.  The pairing, the quadratic
refinement, the mod-2 dual, matrix products, transvection matrices and a
framing's basis form are the benchmark's own, loaded read-only from
bench/checks.py as `checks`, whose other references (the product of a factor
list, the transported windings) the tests use too.  Vectors are coordinate
tuples on x_1, y_1, ..., x_g, y_g, then the arcs; a mod-2 matrix is keyed as
the exhaustive engine keys it, bit i of column j at bit j w + i of one int.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

_source = importlib.util.spec_from_file_location("checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py")
checks = importlib.util.module_from_spec(_source)
_source.loader.exec_module(checks)
dual, mat_mul, pairing, quad = checks.dual, checks.mat_mul, checks.pairing, checks.quad


def units(rank: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for i in range(rank)) for j in range(rank)]


def bits(v: int, w: int) -> tuple[int, ...]:
    return tuple((v >> j) & 1 for j in range(w))


def packed(coords) -> int:
    """Coordinates mod 2, coordinate j in bit j."""
    return sum((c & 1) << j for j, c in enumerate(coords))


# ---------------------------------------------------------------------------
# the lattice


def gram(m: int) -> tuple:
    """Gram matrix J of the symplectic form: entry (i, j) is <b_i, b_j>."""
    basis = units(m)
    return tuple(tuple(pairing(a, b) for b in basis) for a in basis)


def is_symplectic(s, modulus: int = 0) -> bool:
    """S^T J S = J, over the integers or modulo a nonzero modulus."""

    def reduced(m):
        return [[x % modulus if modulus else x for x in row] for row in m]

    j = gram(len(s))
    return reduced(mat_mul(mat_mul(tuple(zip(*s)), j), s)) == reduced(j)


def det(rows) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        m[k], m[p] = m[p], m[k]
        out *= m[k][k] if p == k else -m[k][k]
        for i in range(k + 1, len(m)):
            m[i] = [a - m[i][k] / m[k][k] * b for a, b in zip(m[i], m[k])]
    return int(out)


# ---------------------------------------------------------------------------
# a framing's windings mod 2


def winding_parity(f, coords) -> int:
    """Johnson's rule: a simple closed curve in the class sum_h (a_h x_h + b_h y_h)
    + sum_j m_j d_j has winding q(a, b) + sum_j m_j kappa_j + 1 mod 2, where q
    is the quadratic refinement with basis values winding + 1 mod 2."""
    k = 2 * f.spec.g
    loops = sum(m * kappa for m, kappa in zip(coords[k:], f.spec.kappa[1:]))
    return (quad(checks.winding_form(f), coords[:k]) + loops + 1) % 2


@lru_cache(maxsize=None)
def theta(vs: tuple, f) -> tuple[int, ...]:
    """theta of T_{v_1} ... T_{v_r} (each to an odd power), as bits.

    The crossed rule theta(S T_v) = T_v^* theta(S) + P(v) <., v> from
    theta(I) = 0; T_v^* adds theta(v) <., v>, and P(v) is the winding parity
    of v.  Cached, so the words of a closure share their prefixes.
    """
    if not vs:
        return (0,) * (2 * f.spec.g)
    th, v = theta(vs[:-1], f), vs[-1]
    c = sum(t * x for t, x in zip(th, v)) + winding_parity(f, v)
    return tuple((t + c * d) & 1 for t, d in zip(th, dual(v)))


# ---------------------------------------------------------------------------
# word letters


@lru_cache(maxsize=None)
def letter_map(letter) -> tuple:
    """(u, phi, a, omega) of a word letter, each of u, phi and omega a full coordinate tuple.

    The letter maps a relative class x to x + phi(x) u and changes a doubled
    winding by a phi(x) + omega(x).  A twist about c with power k and
    winding w has u = c-bar, phi = k <., c> (the intersection form on the
    symplectic block, <a_i, d_j> = delta_ij on arcs against loops), a = 2w
    and omega = 0.  A push of p_i around u has phi(x) = the coefficient of
    p_i in the boundary of x (minus the sum of the arc coefficients for
    i = 1), a = 0 and omega = 2 kappa_i <u, .>.
    """
    twist = hasattr(letter, "curve")
    spec = (letter.curve if twist else letter.loop).spec
    k = 2 * spec.g
    basis = units(k + len(spec.kappa) - 1)
    if twist:
        c = letter.curve.coords
        phi = tuple(
            letter.power * (pairing(e[:k], c[:k]) + sum(a * d for a, d in zip(e[k:], c[k:]))) for e in basis
        )
        return c[:k], phi, 2 * letter.winding, (0,) * k
    u, i = letter.loop.coords, letter.point
    phi = tuple(e[k + i - 2] if i >= 2 else -sum(e[k:]) for e in basis)
    return u, phi, 0, tuple(2 * spec.kappa[i - 1] * pairing(u, e[:k]) for e in basis[:k])


def transport(word, x, w2: int, inverse: bool = False) -> tuple[tuple[int, ...], int]:
    """Relative coordinates x and a doubled winding w2 carried through the word, letter by letter.

    Forward: the rightmost letter first.  Inverse, the action of w^{-1}: the
    inverse letters in word order, each with phi and omega negated.
    """
    sign = -1 if inverse else 1
    x = list(x)
    for letter in word.letters if inverse else word.letters[::-1]:
        u, phi, a, omega = letter_map(letter)
        c = sign * sum(p * v for p, v in zip(phi, x))
        w2 += a * c + sign * sum(o * v for o, v in zip(omega, x))
        for i, v in enumerate(u):
            x[i] += c * v
    return tuple(x), w2


def word_matrix(word) -> tuple:
    """The word's matrix [[S, M], [0, I]] on relative coordinates: column j carries e_j."""
    spec = word.spec
    return tuple(zip(*(transport(word, e, 0)[0] for e in units(2 * spec.g + len(spec.kappa) - 1))))


def rewound(word, v):
    """The word with each twist's winding, declared under f, declared under v . f instead.

    A twist letter's winding is that of its curve under the framing it acts
    on; under v . f a curve c has winding f(v^{-1} c).
    """
    n = len(word.spec.kappa)
    letters = []
    for letter in word.letters:
        if hasattr(letter, "curve"):
            c = letter.curve.coords[: 2 * word.spec.g] + (0,) * (n - 1)
            w2 = transport(v, c, 2 * letter.winding, inverse=True)[1]
            letter = type(letter)(letter.curve, letter.power, w2 // 2)
        letters.append(letter)
    return type(word)(word.spec, tuple(letters))


# ---------------------------------------------------------------------------
# the mod-2 group, keyed


def key(mat) -> int:
    """Key of a matrix read mod 2."""
    w = len(mat)
    return sum((mat[i][j] & 1) << (j * w + i) for i in range(w) for j in range(w))


def matrix(k: int, w: int) -> tuple:
    """The 0/1 matrix of a key."""
    return tuple(tuple((k >> (j * w + i)) & 1 for j in range(w)) for i in range(w))


def transvection_key(v: int, w: int) -> int:
    """Key of T_v for the packed class v."""
    return key(checks.transvection_matrix(bits(v, w)))


def _reach(start, step) -> dict:
    """Every node reachable from start, with a shortest path of labels; step(node) lists (label, next node)."""
    paths, level = {start: ()}, [start]
    while level:
        new = []
        for node in level:
            for label, nxt in step(node):
                if nxt not in paths:
                    paths[nxt] = paths[node] + (label,)
                    new.append(nxt)
        level = new
    return paths


@lru_cache
def closure(gens: tuple[int, ...], w: int) -> MappingProxyType:
    """Every key that products of the T_v, v in gens (packed), reach from I, with a shortest word of v's bits."""
    moves = [(bits(v, w), checks.transvection_matrix(bits(v, w))) for v in gens]
    return MappingProxyType(_reach(key(units(w)), lambda k: [(v, key(mat_mul(matrix(k, w), t))) for v, t in moves]))


def form_orbit(q: int, w: int) -> set[int]:
    """Orbit of the form with packed basis values q under every T_v: q + <v, .> where q(v) = 0."""
    moves = [(bits(v, w), packed(dual(bits(v, w)))) for v in range(1, 1 << w)]
    forms = [bits(b, w) for b in range(1 << w)]
    return set(_reach(q, lambda b: [(v, b ^ d) for v, d in moves if quad(forms[b], v) == 0]))
