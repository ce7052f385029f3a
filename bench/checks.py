"""Reference values the benchmark checks outputs against.

Everything here is computed without the library code under measurement:
plain integer and bit arithmetic on the fixed basis x_1, y_1, ..., x_g, y_g
(then arcs), with <x_i, y_i> = 1.  Library objects are read only through
their stored fields (matrices, windings, kappa).
"""

from __future__ import annotations


def pairing(u, v) -> int:
    """<u, v> on interleaved symplectic coordinates."""
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, len(u), 2))


def transvection_matrix(v) -> tuple:
    """Matrix of x -> x + <x, v> v."""
    m = len(v)
    jv = [v[i + 1] if i % 2 == 0 else -v[i - 1] for i in range(m)]
    return tuple(tuple((i == j) + v[i] * jv[j] for j in range(m)) for i in range(m))


def factor_product(factors, m: int) -> tuple:
    """T_{v_1}^{k_1} ... T_{v_r}^{k_r} by rank-one updates X <- X + k (X v) (Jv)^T."""
    x = [[int(i == j) for j in range(m)] for i in range(m)]
    for v, k in factors:
        jv = [v[i + 1] if i % 2 == 0 else -v[i - 1] for i in range(m)]
        xv = [sum(row[j] * v[j] for j in range(m)) for row in x]
        for i in range(m):
            c = k * xv[i]
            if c:
                row = x[i]
                for j in range(m):
                    row[j] += c * jv[j]
    return tuple(tuple(row) for row in x)


def mat_mul(a, b) -> tuple:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def block_product(a, b) -> tuple:
    """(S, M) blocks of the product of two pure automorphisms: (S_a S_b, S_a M_b + M_a)."""
    s = mat_mul(a.S, b.S)
    if a.n == 1:
        return s, a.M
    sm = mat_mul(a.S, b.M)
    return s, tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(sm, a.M))


def block_column(a, j: int) -> tuple:
    """Image of the j-th relative basis vector under the block matrix [[S, M], [0, I]]."""
    k = 2 * a.g
    if j < k:
        top = tuple(row[j] for row in a.S)
    else:
        top = tuple(row[j - k] for row in a.M)
    return top + tuple(int(i == j - k) for i in range(a.n - 1))


def transported_windings(word, f) -> tuple:
    """Windings (wind_x, wind_y, arc2) of the framing transported by the word.

    The new winding of a basis element b is phi(w^{-1} b): push b, with its
    doubled winding, through the inverse letters in word order.  A twist
    about c with declared winding d changes the winding by k <x, c> d; a push
    of point i around u changes it by kappa_i <u, x>.
    """
    g, kappa = f.spec.g, f.spec.kappa
    m = 2 * g
    rank = m + f.spec.n - 1
    starts = [(2 * i, 2 * w) for i, w in enumerate(f.wind_x)]
    starts += [(2 * i + 1, 2 * w) for i, w in enumerate(f.wind_y)]
    starts += [(m + j, a2) for j, a2 in enumerate(f.arc2 or ())]
    out = []
    for j, w2 in starts:
        x = [int(i == j) for i in range(rank)]
        for letter in word.letters:
            if hasattr(letter, "curve"):
                c = letter.curve.coords
                k = -letter.power
                p = pairing(x[:m], c[:m]) + sum(a * b for a, b in zip(x[m:], c[m:]))
                w2 += 2 * k * p * letter.winding
                shift, u = k * p, c[:m]
            else:
                u = [-v for v in letter.loop.coords]
                w2 += 2 * kappa[letter.point - 1] * pairing(u, x[:m])
                shift = x[m + letter.point - 2] if letter.point >= 2 else -sum(x[m:])
            for i in range(m):
                x[i] += shift * u[i]
        out.append(w2)
    wind_x = tuple(w // 2 for w in out[:g])
    wind_y = tuple(w // 2 for w in out[g : 2 * g])
    arc2 = tuple(out[2 * g :]) if f.arc2 is not None else None
    return wind_x, wind_y, arc2


# ---------------------------------------------------------------------------
# mod-2 values, as bit tuples in basis order


def quad(qbits, coords) -> int:
    """Quadratic refinement with basis values qbits, evaluated on a class."""
    total = sum((c & 1) & q for c, q in zip(coords, qbits))
    total += sum(coords[i] & coords[i + 1] & 1 for i in range(0, len(coords), 2))
    return total & 1


def dual(w) -> tuple:
    """Bits of the functional <w, .> mod 2: the (x, y) bits of each handle swap."""
    return tuple(w[i + 1] & 1 if i % 2 == 0 else w[i - 1] & 1 for i in range(len(w)))


def q_defect(qbits, s) -> tuple:
    """Bits of x -> q(S x) - q(x) on the basis."""
    m = len(s)
    return tuple(
        quad(qbits, [row[j] for row in s]) ^ (qbits[j] & 1) for j in range(m)
    )


def signature_functional(m_block, kappa) -> tuple:
    """Bits of x -> <M vbar, x> with vbar = (kappa_2, ..., kappa_n) mod 2."""
    vbar = [k & 1 for k in kappa[1:]]
    w = [sum(x * y for x, y in zip(row, vbar)) for row in m_block]
    return dual(w) if w else ()


def winding_form(f) -> list[int]:
    """Basis values phi(b) + 1 mod 2 of the framing's quadratic refinement."""
    out = []
    for wx, wy in zip(f.wind_x, f.wind_y):
        out += [(wx + 1) & 1, (wy + 1) & 1]
    return out


def theta_bits(a, f) -> tuple:
    """Closed form of the crossed homomorphism: S^T v_kappa*(M) + q_phi defect of S."""
    m = 2 * a.g
    rel = signature_functional(a.M, f.spec.kappa) if a.n > 1 else (0,) * m
    sym = q_defect(winding_form(f), a.S)
    return tuple(
        (sum(a.S[i][j] * rel[i] for i in range(m)) + sym[j]) & 1 for j in range(m)
    )


def pullback(s, bits) -> tuple:
    m = len(s)
    return tuple(sum(s[i][j] * bits[i] for i in range(m)) & 1 for j in range(m))


def add(u, v) -> tuple:
    return tuple((x ^ y) & 1 for x, y in zip(u, v))


def arf(f) -> int:
    """Arf invariant from the windings (arc terms need arc data)."""
    total = sum((wx + 1) * (wy + 1) for wx, wy in zip(f.wind_x, f.wind_y))
    for j, a2 in enumerate(f.arc2 or ()):
        total += ((a2 + 1) // 2) * (-f.spec.kappa[j + 1])
    return total & 1


# ---------------------------------------------------------------------------
# group and kernel counts over Z/2


def sp2_order(g: int) -> int:
    out = 1 << (g * g)
    for i in range(1, g + 1):
        out *= 4**i - 1
    return out


def form_counts(g: int) -> tuple[int, int]:
    """Numbers of quadratic refinements with Arf 0 and Arf 1."""
    return 2 ** (g - 1) * (2**g + 1), 2 ** (g - 1) * (2**g - 1)


def kernel_order(f) -> int:
    """Mod-2 kernel order: spin stabilizer times free M blocks, or the odd-regime count."""
    g, n, kappa = f.spec.g, f.spec.n, f.spec.kappa
    w = 2 * g
    if all(k % 2 == 0 for k in kappa):
        q = winding_form(f)
        a = sum(q[i] & q[i + 1] for i in range(0, w, 2)) & 1
        return sp2_order(g) // form_counts(g)[a] * (1 << (w * (n - 1)))
    return sp2_order(g) * (1 << (w * (n - 2)))
