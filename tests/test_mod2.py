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
