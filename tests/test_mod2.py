import random

from framedhom import mod2

import reference


def test_columns_match_pack_per_column():
    # negative, odd entries beyond 2^64 and zeros reduce like their parities
    rng = random.Random(3)
    big = (1 << 64) + 1
    for rows, cols in [(4, 4), (6, 6), (6, 2), (10, 10), (3, 0)]:
        for _ in range(20):
            mat = [[rng.choice([0, 0, -1, 1, -2, 2, big, -big, 2 * big, rng.randint(-big, big)])
                    for _ in range(cols)] for _ in range(rows)]
            assert mod2.columns(mat) == [mod2.pack(col) for col in zip(*mat)]
    assert mod2.columns([]) == []


def test_pack_and_unpack_roundtrip():
    rng = random.Random(4)
    for w in (1, 4, 6, 70):
        for _ in range(20):
            coords = tuple(rng.randint(-5, 5) for _ in range(w))
            assert mod2.unpack(mod2.pack(coords), w) == tuple(c & 1 for c in coords)


def test_is_symplectic_matches_the_product_form():
    # the reference S^T J S = J mod 2 against the pair-once check; the samples
    # are mod-2 products of transvections, some with one bit flipped
    rng = random.Random(5)
    for w in (4, 6, 8):
        for trial in range(40):
            s = reference.units(w)
            for _ in range(6):
                t = reference.checks.transvection_matrix(reference.bits(rng.randrange(1, 1 << w), w))
                s = [[x & 1 for x in row] for row in reference.mat_mul(t, s)]
            if trial % 2:
                j, i = rng.randrange(w), rng.randrange(w)
                s[i][j] ^= 1
            cols = [reference.packed(col) for col in zip(*s)]
            assert mod2.is_symplectic(cols, w) == reference.is_symplectic(s, modulus=2)
