import random

from framedhom import mod2


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
    # S^T J S = J over Z/2, entry by entry, against the pair-once check; the
    # samples are mod-2 products of transvections, some with one bit flipped
    rng = random.Random(5)
    for w in (4, 6, 8):
        gram = [[int(i ^ 1 == k) for k in range(w)] for i in range(w)]
        for trial in range(40):
            cols = [1 << j for j in range(w)]
            for _ in range(6):
                # T_v e_i = e_i + <e_i, v> v, and <e_i, v> is bit i of dual(v)
                v = rng.randrange(1, 1 << w)
                dv = mod2.dual(v, w)
                t = [1 << i ^ (v if dv >> i & 1 else 0) for i in range(w)]
                cols = [mod2.apply(t, c) for c in cols]
            if trial % 2:
                cols[rng.randrange(w)] ^= 1 << rng.randrange(w)
            s = [[(cols[j] >> i) & 1 for j in range(w)] for i in range(w)]
            stjs = [[sum(s[p][a] * gram[p][q] * s[q][b] for p in range(w) for q in range(w)) & 1
                     for b in range(w)] for a in range(w)]
            assert mod2.is_symplectic(cols, w) == (stjs == gram)
