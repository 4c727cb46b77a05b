from math import gcd, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from speclab import fp, kernels
from speclab.intutil import is_probable_prime, nth_root, primes_up_to, squarefree_part
from speclab.kernels import _purepy


def brute_points(coeffs, M, n, d, H):
    out = []
    for v in range(0, H + 1):
        for u in range(-H, H + 1):
            if v == 0:
                continue
            if gcd(u, v) != 1:
                continue
            val = d * sum(c * u**j * v ** (M - j) for j, c in enumerate(coeffs))
            if val == 0:
                continue
            y = nth_root(val, n)
            if y:
                out.append((y, u, v))
    return sorted(out)


CASES = [
    ([-2, 0, 0, 1, 0], 4, 2, 1, 40),  # y^2 = t^3 - 2, weighted quartic model
    ([-17, 0, 0, 0, 1], 4, 2, 2, 25),  # Lind
    ([1, 0, 1, 1], 3, 3, 1, 20),
    ([5, 1, 0, 0, 2, 0, 0, 0, 1], 8, 4, 3, 12),
    ([1, 0, 2**17 - 1], 2, 17, 1, 8),  # F(1, 1) = 2^17: y = 2; no candidate prime sieves n = 17
    ([2**70, 0, 1], 2, 2, 1, 12),  # values above 2^62, checked in Python ints: y = 2^35 at (0, 1)
]


@pytest.mark.parametrize("coeffs,M,n,d,H", CASES)
def test_backends_match_bruteforce(coeffs, M, n, d, H):
    """The one sieve (there is no second backend) against brute force; the
    name is kept from when two backends were compared."""
    got = kernels.search_pairs(coeffs, n, d, H)
    assert sorted(got) == brute_points(coeffs, M, n, d, H)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=7),
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=-10, max_value=10).filter(lambda d: d != 0),
)
@settings(max_examples=40, deadline=None)
def test_backends_agree_randomized(coeffs, n, d):
    """The one sieve (there is no second backend) against brute force on
    random forms; the name is kept from when two backends were compared."""
    M = len(coeffs) - 1
    got = kernels.search_pairs(coeffs, n, d, 15)
    assert sorted(got) == brute_points(coeffs, M, n, d, 15)


def test_points_verified_exactly():
    coeffs = [-2, 0, 0, 1, 0]
    for y, u, v in kernels.search_pairs(coeffs, 2, 1, 60):
        assert y**2 == sum(c * u**j * v ** (4 - j) for j, c in enumerate(coeffs))
        assert gcd(u, v) == 1 and v >= 1 and y > 0


def test_max_points_cap():
    for coeffs, M, n, d, H in [([-2, 0, 0, 1, 0], 4, 2, 1, 200), ([1, 0, 1], 2, 2, 1, 60)] + CASES:
        full = kernels.search_pairs(coeffs, n, d, H)
        for k in range(4):
            assert kernels.search_pairs(coeffs, n, d, H, max_points=k) == full[:k]


def by_v(points):
    return sorted(points, key=lambda p: (p[2], p[1], p[0]))


@given(
    st.one_of(
        # s^2 u^2 + b uv + c v^2 has the rational point (1 : 0) at v = 0, so
        # points of small height in many rows
        st.tuples(
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=1, max_value=4).map(lambda s: s * s),
        ).map(list),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=5),
    ),
    st.sampled_from([2, 3]),
    st.integers(min_value=-6, max_value=6).filter(lambda d: d != 0),
    st.sampled_from([8, 64, 200]),
)
@settings(max_examples=40, deadline=None)
def test_max_points_across_sieve_blocks(coeffs, n, d, block_bytes):
    # at H = 30 a sieve block holds 1, 8 or 25 v rows, so points fall in
    # several blocks and the cap must cut their concatenation in (v, u) order
    M, H = len(coeffs) - 1, 30
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_purepy, "_BLOCK_BYTES", block_bytes)
        full = kernels.search_pairs(coeffs, n, d, H)
        assert full == by_v(brute_points(coeffs, M, n, d, H))
        for k in range(4):
            assert kernels.search_pairs(coeffs, n, d, H, max_points=k) == full[:k]


def test_backend_names():
    names = kernels.available_backends()
    assert "purepy" in names


def test_every_exponent_gets_sieve_primes():
    # at H = 10^4 a fallback prime may be up to 14142, so every n <= 40 has some
    for n in range(2, 41):
        for d in (1, -2, 3 * 103 * 137 * 239 * 307):
            primes = kernels._select_primes(n, d, 10**4)
            assert primes
            assert all(kernels._sieve_fraction(p, n, d) < 0.99 for p in primes)
            old = old_select_primes(n, d)
            if old:
                assert primes == old
            else:  # the smallest primes p = 1 (mod n) that do not divide d
                assert all(p % n == 1 and d % p for p in primes)


@pytest.mark.parametrize("n", [17, 31, 101, 1009])
@pytest.mark.parametrize("H", [1, 10, 60, 200, 1000])
def test_fallback_primes_cost_no_more_than_the_box(n, H):
    # the first primes p = 1 (mod n), at most _FALLBACK_PRIMES, while p^2 <= (2H + 1) H
    want = [p for p in range(n + 1, 2 * n * 10**3, n) if p * p <= (2 * H + 1) * H and is_probable_prime(p)]
    assert kernels._select_primes(n, 1, H) == want[: kernels._FALLBACK_PRIMES]


def test_stage_candidates_are_the_primes_from_67_to_1021():
    want = [p for p in range(67, 1024, 2) if is_probable_prime(p)]
    assert kernels._STAGE_CANDIDATES == want and len(want) == 154


def test_search_rejects_exponent_one():
    with pytest.raises(ValueError):
        kernels.search_pairs([1, 1], 1, 1, 5)


def test_form_values_of_no_pairs_with_big_coefficients():
    # no pair to bound: the coefficients alone decide the dtype, so a
    # coefficient past 2^63 gives an empty object array, not an OverflowError
    none = np.empty(0, dtype=np.int64)
    assert kernels.form_values([1, 0, 2**64], none, none).size == 0
    # no coprime survivor at all, with a leading coefficient 2^64
    assert kernels.search_pairs([1, 0, 2**64], 4, 67 * 71, 150) == []


CANDIDATES = prod(kernels._CANDIDATE_PRIMES)


@pytest.mark.parametrize(
    "coeffs,n,d,c,H",
    [
        # y^2 = 3c (u^4 + v^4): no candidate prime sieves. 3c = 1 (mod 8), so
        # the 2-adic row passes the pairs with u^4 + v^4 odd (c alone is 3 mod 8)
        ([1, 0, 0, 0, 1], 2, 3, CANDIDATES, 300),
        ([1, 0, 0, 0, 1], 2, -11 * 13, 3 * 5 * 7, 600),  # no coprime survivor below H = 600
        ([2, 0, 0, 1], 3, 1, 7 * 13 * 19 * 31 * 37 * 43 * 61, 300),  # every candidate = 1 (mod 3)
        # y = 3 * 67 * 71 * u at every coprime pair; 67 and 71 are stage candidates
        ([0, 0, 3 * 67 * 71], 2, 1, 3 * 67 * 71, 60),
    ],
    ids=["every-candidate", "d-and-content", "cubic", "stage-candidates"],
)
def test_content_passes_every_pair(coeffs, n, d, c, H, monkeypatch):
    # y^n = d * (c F) is y^n = (d c) * F: the same points, and the primes that
    # divide c sieve neither search, so the contentful one has no more survivors
    small_chunks(monkeypatch)  # every chunk is staged
    counts, staged = [], []
    sieve, build = _purepy.survivors, kernels._residue_stage

    def sieve_spy(rows, H):
        out = sieve(rows, H)
        counts.append(len(out))
        return out

    def stage_spy(cs, n, d, primes):
        staged.append(primes)
        return build(cs, n, d, primes)

    monkeypatch.setattr(_purepy, "survivors", sieve_spy)
    monkeypatch.setattr(kernels, "_residue_stage", stage_spy)
    contentful = kernels.search_pairs([c * a for a in coeffs], n, d, H)
    assert contentful == kernels.search_pairs(coeffs, n, d * c, H)
    assert counts[0] <= counts[1]
    assert staged and all(c % p for primes in staged for p in primes)
    if H <= 60:
        assert contentful == by_v(brute_points(coeffs, len(coeffs) - 1, n, d * c, H))


@pytest.mark.parametrize("n", [101, 1009])
@pytest.mark.parametrize("coeffs", [[1, 0, 1], "u^n"])
def test_large_exponent_matches_bruteforce(n, coeffs):
    # no prime p = 1 (mod n) has p^2 <= 21 * 10: no sieve prime, so no p x p
    # sieve table, and the box goes to the stage (607 and 809 for n = 101,
    # none for n = 1009) and the exact check. y^n = u^n has a point at every
    # coprime pair with u != 0. The cache holds the 2-adic row alone.
    coeffs = [0] * n + [1] if coeffs == "u^n" else coeffs
    M, H, cache = len(coeffs) - 1, 10, {}
    full = kernels.search_pairs(coeffs, n, 1, H, cache=cache)
    assert full == by_v(brute_points(coeffs, M, n, 1, H))
    assert cache and all(two_adic(k) for k in cache)


def two_adic(key):
    """Whether a cache key is the 2-adic row's: F mod 64 under 64, the rows
    under (64, allowed residues of d mod 64, H)."""
    return key == 64 or isinstance(key, tuple) and key[0] == 64


# -- the tables as they were built before the per-curve cache, kept as oracle


def old_allowed_residues(p, n, d):
    powers = {pow(x, n, p) for x in range(1, p)}
    ok = np.zeros(p, dtype=bool)
    ok[0] = True
    for r in range(1, p):
        if (d * r) % p in powers or (d * r) % p == 0:
            ok[r] = True
    return ok


def old_select_primes(n, d):
    scored = []
    for p in kernels._CANDIDATE_PRIMES:
        frac = old_allowed_residues(p, n, d).sum() / p
        if frac < 0.99:
            scored.append((frac, p))
    scored.sort()
    return [p for _, p in scored[: kernels._MAX_SIEVE_PRIMES]]


def old_residue_tables(coeffs, M, n, d, primes):
    tables = {}
    for p in primes:
        allowed = old_allowed_residues(p, n, d)
        u = np.arange(p, dtype=np.int64)
        v = np.arange(p, dtype=np.int64)
        val = np.zeros((p, p), dtype=np.int64)  # [v, u]
        for j in range(M + 1):
            c = coeffs[j] % p
            if c:
                term = (
                    np.power(u[None, :], j, dtype=object)
                    * np.power(v[:, None], M - j, dtype=object)
                ) * c
                val = (val + np.array(term % p, dtype=np.int64)) % p
        tables[p] = allowed[val]
    return tables


def class_representatives(p, n):
    """0, p, and the least and largest residue of each class of F_p^*/(F_p^*)^n."""
    first, last = {}, {}
    for r in range(1, p):
        key = fp.power_class(r, p, n)
        first.setdefault(key, r)
        last[key] = r
    return [0, p] + sorted(set(first.values()) | set(last.values()))


def assert_rows_pack(rows, tables, H):
    """rows[p] is the oracle's table tables[p] packed at height H."""
    assert rows.keys() == tables.keys()
    for p, table in tables.items():
        assert rows[p].dtype == np.uint64
        np.testing.assert_array_equal(rows[p], _purepy._packed_rows(table, H))


@given(
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=2, max_size=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=-(2**66), max_value=2**66),
    st.sampled_from([1, 30, 200]),
)
@example([3, -5], 2, 1, 30)  # M = 1: v^M is no square, so the values are scaled
@example([7, 0, -1, 4 * CANDIDATES], 3, -1, 30)  # every p divides lc(F): F(1, 0) = 0
@example([CANDIDATES, -2 * CANDIDATES, 0, 5 * CANDIDATES], 4, 0, 200)  # every p divides the content
@settings(max_examples=8, deadline=None)
def test_residue_tables_match_oracle(coeffs, n, shift, H):
    M = len(coeffs) - 1
    cache = {}
    for p in kernels._CANDIDATE_PRIMES + [103]:
        for r in class_representatives(p, n):
            d = r + p * shift
            rows = kernels._residue_tables(coeffs, n, d, [p], H, cache)
            assert_rows_pack(rows, old_residue_tables(coeffs, M, n, d, [p]), H)
            assert kernels._sieve_fraction(p, n, d) == old_allowed_residues(p, n, d).sum() / p


def test_residue_tables_match_oracle_on_fallback_primes():
    # n = 17 has no candidate prime: the tables are 239 x 239 to 443 x 443,
    # and at H = 400 every one of them costs less than the box
    n, H = 17, 400
    primes = kernels._select_primes(n, 103 * 137, H)
    assert primes == [239, 307, 409, 443]
    for coeffs in (
        [3, -(2**70), 0, 5, 7],  # M = 4: 17 does not divide M, so the values are scaled by v^M
        [1, 2, *[0] * 15, 239 * 443],  # M = 17: v^M is a 17th power; 239 and 443 divide lc(F)
    ):
        M, cache = len(coeffs) - 1, {}
        for d in (103 * 137, -5 * 239):  # the second is 0 mod 239: that table passes everything
            rows = kernels._residue_tables(coeffs, n, d, primes, H, cache)
            assert_rows_pack(rows, old_residue_tables(coeffs, M, n, d, primes), H)


@given(
    st.integers(min_value=20, max_value=40).flatmap(
        lambda M: st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=M + 1, max_size=M + 1)
    ),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=-(2**66), max_value=2**66).filter(lambda d: d != 0),
)
@settings(max_examples=3, deadline=None)
def test_residue_tables_match_oracle_high_degree(coeffs, n, d):
    # model degree up to 40: one Horner pass over the value rows of all 17 primes
    M = len(coeffs) - 1
    rows = kernels._residue_tables(coeffs, n, d, kernels._CANDIDATE_PRIMES, 100, {})
    assert_rows_pack(rows, old_residue_tables(coeffs, M, n, d, kernels._CANDIDATE_PRIMES), 100)


def test_masks_shared_across_curves(monkeypatch):
    # two different curves, d = 1 and d = 4 in the same class at every odd p:
    # the second curve's tables index the very mask arrays of the first
    seen = []
    allowed = kernels._allowed_residues

    def spy(p, n, d):
        seen.append(allowed(p, n, d))
        return seen[-1]

    monkeypatch.setattr(kernels, "_allowed_residues", spy)
    n = 2
    primes = kernels._select_primes(n, 1, 30)
    kernels._residue_tables([5, 1, 0, 0, 2, 0, 0, 0, 1], n, 1, primes, 30, {})
    kernels._residue_tables([-2, 0, 0, 1, 0], n, 4, primes, 30, {})
    assert len(seen) == 2 * len(primes)
    for first, second in zip(seen[: len(primes)], seen[len(primes) :]):
        assert first is second


def test_shared_masks_are_read_only():
    mask = kernels._allowed_residues(7, 3, 2)
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


def test_module_masks_bounded_by_their_keys(monkeypatch):
    # every chunk with a coprime pair is staged, so most searches build the
    # stage; the masks are exactly the sieve primes' and the stage primes'.
    # At H = 10 no prime = 1 (mod 17) is a sieve prime: n = 17 is all stage.
    monkeypatch.setattr(kernels, "_masks", {})
    monkeypatch.setattr(kernels, "_index", {})
    monkeypatch.setattr(kernels, "_STAGE_MIN", 0)
    staged = []
    build = kernels._residue_stage

    def spy(cs, n, d, primes):
        staged.append((n, d, primes))
        return build(cs, n, d, primes)

    monkeypatch.setattr(kernels, "_residue_stage", spy)
    curves = [[a, 1, 0, b, 0, 0, 1] for a in range(-3, 4) for b in (0, 2)]
    curves += [[-2, 0, 0, 1, 0], [1, 0, 2**17 - 1]]
    mask_keys = set()
    for coeffs in curves:
        for n in (2, 3, 17):
            cache = {}
            for d in range(-12, 13):
                if d:
                    kernels.search_pairs(coeffs, n, d, 10, cache=cache)
                    for p in kernels._select_primes(n, d, 10):
                        mask_keys.add((p, n, fp.power_class(d, p, n)))
    sieve_keys = set(mask_keys)
    for n, d, primes in staged:
        for p in primes:
            mask_keys.add((p, n, fp.power_class(d, p, n)))
    assert {n for n, _, _ in staged} == {2, 3, 17}
    assert {p for p, _, _ in mask_keys - sieve_keys} == {
        67, 71, 73, 79, 83, 89, 97, 101, 103, 109, 127, 137, 139, 239, 307, 409, 443, 613, 647
    }
    assert set(kernels._masks) == mask_keys
    # the shared value-row index is the candidate sieve primes' alone; a
    # fallback prime (103, 137, 239 and 307 for n = 17 at H = 300) keeps its
    # own in the curve's cache
    index_keys = {p for p, _, _ in sieve_keys}
    assert index_keys <= set(kernels._CANDIDATE_PRIMES)
    assert set(kernels._index) == index_keys
    primes, cache = kernels._select_primes(17, 1, 300), {}
    assert primes == [103, 137, 239, 307]
    kernels.search_pairs([1, 0, 2**17 - 1], 17, 1, 300, cache=cache)
    assert set(kernels._index) == index_keys
    assert {k[1] for k in cache if isinstance(k, tuple) and k[0] == "index"} == set(primes)


def test_tables_shared_within_a_class():
    # at H = 30 every row table is kept: a twist in a class reads its rows
    coeffs, n, H = [5, 1, 0, 0, 2, 0, 0, 0, 1], 2, 30
    primes = kernels._select_primes(n, 1, H)
    cache = {}
    one = kernels._residue_tables(coeffs, n, 1, primes, H, cache)
    four = kernels._residue_tables(coeffs, n, 4, primes, H, cache)
    minus = kernels._residue_tables(coeffs, n, -1, primes, H, cache)
    for p in primes:
        assert four[p] is one[p]  # 4 is a square mod every odd p
        if p % 4 == 1:
            assert minus[p] is one[p]
        else:  # -1 is a nonsquare mod p
            assert minus[p] is not one[p]
            assert not np.array_equal(minus[p], one[p])


@pytest.mark.parametrize(
    "coeffs,M,n",
    [([5, 1, 0, 0, 2, 0, 0, 0, 1], 8, 2), ([-2, 0, 0, 1, 0], 4, 2), ([1, 0, 1, 1], 3, 3)],
)
def test_kept_rows_give_the_uncached_search(coeffs, M, n):
    # one cache for every twist and both heights, searched twice so that the
    # second pass reads kept rows; d runs over every class at each sieve prime
    cache = {}
    classes = {}  # (p, class of d) -> the first such d
    for _ in range(2):
        for H in (30, 200):
            for d in range(-40, 41):
                if d:
                    assert kernels.search_pairs(coeffs, n, d, H, cache=cache) == \
                        kernels.search_pairs(coeffs, n, d, H)
                    for p in kernels._select_primes(n, d, H):
                        classes.setdefault((p, fp.power_class(d, p, n)), d)
    for p in {p for p, _ in classes}:
        assert sum(q == p for q, _ in classes) == gcd(n, p - 1)
    assert {k for k in cache if isinstance(k, int) and not two_adic(k)} == {p for p, _ in classes}
    assert {k[2] for k in cache if isinstance(k, tuple) and two_adic(k)} == {30, 200}
    kept = {k: rows for k, rows in cache.items() if isinstance(k, tuple) and not two_adic(k)}
    # every table fits at these heights, and is kept at each one
    assert kept.keys() == {(p, c, H) for p, c in classes for H in (30, 200)}
    for (p, c, H), rows in kept.items():
        table = old_residue_tables(coeffs, M, n, classes[p, c], [p])[p]
        np.testing.assert_array_equal(rows, _purepy._packed_rows(table, H))
        assert rows.shape == (p, (2 * H + 64) // 64)
        assert rows.nbytes <= kernels._KEPT_ROWS_BYTES
        assert not rows.flags.writeable


def test_no_rows_kept_above_the_cap():
    # d = 385 = 5 * 7 * 11 leaves p = 3, the smallest table, among the sieve
    # primes; its rows fit up to the largest H with 3 * 8 * nwords <= cap
    coeffs, n, d = [-2, 0, 0, 1, 0], 2, 385
    H = 32 * (kernels._KEPT_ROWS_BYTES // 24) - 1
    assert 3 in kernels._select_primes(n, d, H)
    cache = {}
    kernels.search_pairs(coeffs, n, d, H, cache=cache)
    kept = {k: rows for k, rows in cache.items() if isinstance(k, tuple) and not two_adic(k)}
    assert (3, fp.power_class(d, 3, n), H) in kept
    assert all(rows.nbytes <= kernels._KEPT_ROWS_BYTES for rows in kept.values())
    before = dict(cache)
    assert kernels.search_pairs(coeffs, n, d, H + 1, cache=cache) == \
        kernels.search_pairs(coeffs, n, d, H + 1)
    # from H + 1 on no table fits, whatever the prime; only the 2-adic row,
    # one word per v mod 64, is kept at every height
    assert cache.keys() - before.keys() == {(64, k[1], H + 1) for k in before if two_adic(k) and k != 64}


# -- the 2-adic row, against d * F(u, v) mod 64 at each pair of the box


@pytest.mark.parametrize(
    "coeffs",
    [[-2, 0, 0, 1, 0], [5, 1, 0, 0, 2, 0, 0, 0, 1], [6, -3, 4, 2**70 + 1], [2, 4, 0, 6, 0, 2]],
    ids=["t^3-2", "octic", "big-cubic", "even-content"],
)
def test_two_adic_row_matches_its_definition(coeffs):
    # one cache per (curve, n) for every d and H, so a table kept for one d
    # is read back for every d with the same allowed residues mod 64
    M = len(coeffs) - 1
    heights = [1, 2, 31, 63, 64, 65, 127, 200]
    u = np.arange(-200, 201)
    v = np.arange(1, 65)
    # F(u, v) mod 64 exactly, at every u of the widest box and v = 1 .. 64
    vals = np.array(
        [[sum(c * x**j * y ** (M - j) for j, c in enumerate(coeffs)) % 64 for x in u.tolist()] for y in v.tolist()]
    )
    coprime_2 = (u % 2 == 1) | (v[:, None] % 2 == 1)
    for n in (2, 3, 4, 5, 6, 17):
        powers = np.zeros(64, dtype=bool)
        powers[[pow(y, n, 64) for y in range(64)]] = True
        cache = {}
        for d in [*range(-64, 0), *range(1, 65)]:
            for H in heights:
                words = kernels._two_adic_row(coeffs, n, d, H, cache)
                assert words.shape == (64, 1) and words.dtype == np.uint64
                box = slice(200 - H, 201 + H)
                want = powers[d * vals[:, box] % 64] & coprime_2[:, box]
                # bit (u + H) % 64 of word v % 64: u = -H + b in every word
                got = words[v % 64] >> ((u[box] + H) % 64).astype(np.uint64) & np.uint64(1)
                np.testing.assert_array_equal(got.astype(bool), want, err_msg=f"n={n} d={d} H={H}")


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=7),
    st.sampled_from([2, 3, 4, 5, 6]),
    st.sampled_from([64, 100, 130]).flatmap(
        lambda H: st.tuples(st.integers(min_value=-H, max_value=H), st.integers(min_value=1, max_value=H), st.just(H))
    ),
)
@settings(max_examples=40, deadline=None)
def test_planted_point_is_found(coeffs, n, point):
    # y^n = d F(u, v) with a point at (u0, v0): d = the squarefree part of
    # F(u0, v0) for n = 2, else F(u0, v0)^(n - 1)
    u0, v0, H = point
    g = gcd(u0, v0)
    u0, v0, M = u0 // g, v0 // g, len(coeffs) - 1
    value = sum(c * u0**j * v0 ** (M - j) for j, c in enumerate(coeffs))
    assume(value != 0)
    d = squarefree_part(value) if n == 2 else value ** (n - 1)
    found = kernels.search_pairs(coeffs, n, d, H)
    assert (u0, v0) in [(u, v) for _, u, v in found]


# -- the sieve as it was before bit packing (one v row at a time), kept as oracle


def old_survivors(tables, H):
    primes = sorted(tables, key=lambda p: tables[p].sum() / tables[p].size)
    u_arr = np.arange(-H, H + 1, dtype=np.int64)
    umod = {p: (u_arr % p).astype(np.intp) for p in primes}
    out_u = []
    out_v = []
    for v in range(1, H + 1):
        idx = np.arange(u_arr.size)
        for p in primes:
            if not idx.size:
                break
            idx = idx[tables[p][v % p][umod[p][idx]]]
        if idx.size:
            out_u.append(u_arr[idx])
            out_v.append(np.full(idx.size, v, dtype=np.int64))
    if not out_u:
        return np.empty((0, 2), dtype=np.int64)
    return np.stack([np.concatenate(out_u), np.concatenate(out_v)], axis=1)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=7),
    st.sampled_from([2, 3, 4, 17]),
    st.integers(min_value=-30, max_value=30).filter(lambda d: d != 0),
    st.sampled_from([1, 2, 63, 64, 65, 127, 128, 200]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=13)),
)
@settings(max_examples=60, deadline=None)
def test_packed_sieve_matches_old(coeffs, n, d, H, divisor):
    # n = 17: the primes 103, 137, ... = 1 (mod 17) with p^2 <= (2H + 1) H,
    # none up to H = 65, so the whole box survives
    M = len(coeffs) - 1
    primes = kernels._select_primes(n, d, H)
    if divisor is not None and primes:  # some sieve prime divides d: its table passes every u
        d *= primes[divisor % len(primes)]
    got = _purepy.survivors(kernels._residue_tables(coeffs, n, d, primes, H, {}), H)
    assert got.dtype == np.int64 and got.shape[1] == 2
    np.testing.assert_array_equal(got, old_survivors(old_residue_tables(coeffs, M, n, d, primes), H))


@pytest.mark.parametrize("coeffs,M,n,d,H", CASES)
def test_packed_sieve_matches_old_past_one_period(coeffs, M, n, d, H):
    # At H = 1000 a row has 32 words, more than many of its primes: the words
    # repeat with period p in w, which H <= 200 reaches only for p <= 5.
    primes = kernels._select_primes(n, d, 1000)
    rows = kernels._residue_tables(coeffs, n, d, primes, 1000, {})
    tables = old_residue_tables(coeffs, M, n, d, primes)
    np.testing.assert_array_equal(_purepy.survivors(rows, 1000), old_survivors(tables, 1000))


# -- the packed sieve as it was before it skipped the v rows that the 2-adic
# table empties (every v from 1 to H in blocks), kept as oracle


def all_rows_survivors(rows, H):
    if H < 1:
        return np.empty((0, 2), dtype=np.int64)
    nwords = (2 * H + 64) // 64
    tail = np.uint64((1 << (2 * H + 1 - 64 * (nwords - 1))) - 1)
    step = max(1, _purepy._BLOCK_BYTES // (8 * nwords))
    out = []
    for v0 in range(1, H + 1, step):
        v = np.arange(v0, min(v0 + step, H + 1), dtype=np.int64)
        acc = np.full((v.size, nwords), ~np.uint64(0), dtype="<u8")
        acc[:, -1] = tail
        for p, packed in rows.items():
            acc &= packed[v % p]
        vi, wi = np.nonzero(acc)
        if not vi.size:
            continue
        bits = np.unpackbits(acc[vi, wi].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        k, b = np.nonzero(bits)
        out.append(np.stack([64 * wi[k] + b - H, v[vi[k]]], axis=1))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out)


def sieve_rows(coeffs, n, d, H):
    """The rows search_pairs hands the sieve: the primes' and the 2-adic row's."""
    cache = {}
    primes = kernels._select_primes(n, d * gcd(*coeffs), H)
    rows = kernels._residue_tables(coeffs, n, d, primes, H, cache)
    rows[64] = kernels._two_adic_row(coeffs, n, d, H, cache)
    return rows


@pytest.mark.parametrize("d_mod_8", range(8))
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=7),
    st.sampled_from([2, 3, 4, 17]),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([1, 2, 63, 64, 65, 127, 128, 200, 1000]),
    st.sampled_from([8, 64, 1 << 18]),
)
@settings(max_examples=15, deadline=None)
def test_live_row_sieve_matches_all_rows(d_mod_8, coeffs, n, shift, H, block_bytes):
    # d runs over every class mod 8, so that boxes with no dead v row, half
    # of them dead and all of them dead each occur; with blocks of 1 to 32
    # rows at H = 1000 a block of live v spans gaps in v
    d = d_mod_8 + 8 * shift
    assume(d != 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_purepy, "_BLOCK_BYTES", block_bytes)
        rows = sieve_rows(coeffs, n, d, H)
        got = _purepy.survivors(rows, H)
        want = all_rows_survivors(rows, H)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_live_rows_edge_cases():
    # y^2 = d (t^4 + 1), the README's curve: every v row is live for d = 1,
    # the odd v for d = 2, and none for d = 3, since 3 (u^4 + v^4) is no
    # square mod 64 where u or v is odd
    coeffs, H = [1, 0, 0, 0, 1], 2000
    v = np.arange(1, H + 1)
    live = {d: np.count_nonzero(sieve_rows(coeffs, 2, d, H)[64][v % 64, 0]) for d in (1, 2, 3)}
    assert live == {1: H, 2: H // 2, 3: 0}
    got = _purepy.survivors(sieve_rows(coeffs, 2, 3, H), H)
    assert got.dtype == np.int64 and got.shape == (0, 2)
    assert kernels.search_pairs(coeffs, 2, 3, H) == []
    # with no 2-adic table every v is live
    box = np.array([(u, v) for v in range(1, 4) for u in range(-3, 4)], dtype=np.int64)
    np.testing.assert_array_equal(_purepy.survivors({}, 3), box)
    # H = 1: the one row v = 1, live where word 1 of the 2-adic table is nonzero
    one = np.array([[-1, 1], [0, 1], [1, 1]], dtype=np.int64)
    np.testing.assert_array_equal(_purepy.survivors({}, 1), one)
    words = np.zeros((64, 1), dtype="<u8")
    assert _purepy.survivors({64: words}, 1).shape == (0, 2)
    words[1] = 0b101  # u = -1 and u = 1
    np.testing.assert_array_equal(_purepy.survivors({64: words}, 1), one[[0, 2]])
    # n = 17 at H = 1000: the fallback primes 103 ... 307 exceed 64, so the
    # first word of a prime's row may be 0 where later words are not; only
    # the 2-adic table's one word decides that a row is dead
    rows = sieve_rows(coeffs, 17, 1, 1000)
    v = np.arange(1, 1001)
    first_word_zero = np.any([rows[p][v % p, 0] == 0 for p in rows if p != 64], axis=0)
    got = _purepy.survivors(rows, 1000)
    assert np.isin(got[:, 1], v[first_word_zero]).any()
    np.testing.assert_array_equal(got, all_rows_survivors(rows, 1000))


# -- the denominator mask: a row v with an odd prime p | v, p not dividing
# c = d * c_M, at which c is no gcd(n, M)-th power residue holds no point


def dead_rows_oracle(coeffs, n, d, H):
    """The v <= H that the mask clears, from its definition over the residues
    rather than by the gcd(n, M) argument: some odd prime p <= 1021 divides
    v, p does not divide c = d * c_M, and no unit u mod p makes c * u^M an
    n-th power residue mod p."""
    M, c = len(coeffs) - 1, d * coeffs[-1]
    dead = set()
    for p in primes_up_to(min(H, 1021))[1:]:
        powers = {pow(y, n, p) for y in range(1, p)}
        if c % p and not any(c * pow(u, M, p) % p in powers for u in range(1, p)):
            dead.update(range(p, H + 1, p))
    return dead


def assert_rows_hold_no_point(coeffs, n, d, H, rows):
    """At every coprime (u, v) with |u| <= H and v in rows, d * F(u, v) is
    nonzero and no n-th power (as the argument shows, it is a unit mod p)."""
    M = len(coeffs) - 1
    for v in rows:
        for u in range(-H, H + 1):
            if gcd(u, v) == 1:
                val = d * sum(c * u**j * v ** (M - j) for j, c in enumerate(coeffs))
                assert val and nth_root(val, n) is None, (u, v)


MASK_CASES = [
    # (coeffs, n, d, H, some row is cleared)
    ([1, 0, 0, 0, 1], 2, 2, 40, True),  # 2 is no square mod p = +-3 (mod 8)
    ([3, 1, 0, -2, 5], 2, -7, 40, True),
    ([2, 0, 1, 0, 0, 0, 5], 3, 2, 40, True),  # 10 is no cube mod 7, 13, ...
    ([1, 0, 0, 0, 3], 4, 5, 40, True),  # 3 and 5 divide c = 15
    ([1, 2, 0, 0, 0, 0, 7], 6, -3, 40, True),
    ([5, 0, 0, 0, 0, 0, 2], 4, 3, 40, True),  # n does not divide M: squares mod p
    ([1, 0, 0, 0, 2], 3, 5, 40, False),  # gcd(n, M) = 1: c u^M meets every class
    ([1, 0, 0, 1, 0], 2, 3, 40, False),  # c_M = 0: no mask
    ([1, 0, 0, 0, 15], 2, 1, 40, True),  # 3 and 5 divide c_M
    ([1, 0, 0, 0, 2], 2, 3 * 5 * 7, 40, True),  # 3, 5 and 7 divide d
    ([7, 0, 14, 0, 21], 2, 2, 40, True),  # 7 divides the content of F
    ([1, 0, 1, 0, -2], 2, -1, 40, True),  # c = 2 with d = -1
    ([1, *[0] * 16, 3], 17, 1, 40, False),  # gcd(17, p - 1) = 1 for every p <= 40
    ([1, *[0] * 16, 3], 17, 1, 206, True),  # 3 is no 17th power mod 103
]


@pytest.mark.parametrize("coeffs,n,d,H,clears", MASK_CASES)
def test_dead_rows_hold_no_point(coeffs, n, d, H, clears):
    dead = kernels._dead_rows(coeffs, n, d, H)
    assert set(dead.tolist()) == dead_rows_oracle(coeffs, n, d, H)
    assert bool(dead.size) == clears
    assert_rows_hold_no_point(coeffs, n, d, H, set(dead.tolist()))
    if H <= 40:
        M = len(coeffs) - 1
        assert kernels.search_pairs(coeffs, n, d, H) == by_v(brute_points(coeffs, M, n, d, H))


@given(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=7).filter(lambda cs: cs[-1]),
    st.sampled_from([2, 3, 4, 6, 17]),
    st.integers(min_value=-(2**70), max_value=2**70).filter(lambda d: d != 0),
    st.sampled_from([3, 40, 300, 2000]),
)
@settings(max_examples=30, deadline=None)
def test_dead_rows_match_their_definition(coeffs, n, d, H):
    # any c, far past int64 too; the rows of a prime above H are past the box
    assert set(kernels._dead_rows(coeffs, n, d, H).tolist()) == dead_rows_oracle(coeffs, n, d, H)


def test_row_primes_are_the_odd_primes_to_1021():
    # 2 is left to the 2-adic row: every unit mod 2 is an n-th power, so it
    # would clear no row
    assert kernels._ROW_PRIMES.tolist() == [p for p in range(3, 1022, 2) if is_probable_prime(p)]


@pytest.mark.parametrize("g", [2, 3, 4, 6, 17])
def test_nonresidue_flags_are_the_units_outside_the_gth_powers(g):
    flags = kernels._nonresidue_flags(g)
    assert not flags.flags.writeable and kernels._nonresidue_flags(g) is flags
    for p, at in zip(kernels._ROW_PRIMES.tolist(), kernels._ROW_OFFSETS.tolist()):
        want = set(range(1, p)) - {pow(x, g, p) for x in range(1, p)}
        assert set(np.flatnonzero(flags[at : at + p]).tolist()) == want


PLANTED_FORMS = [
    [1, 0, 0, 0, 1],
    [3, -1, 0, 2, 5],
    [2, 0, 1, 0, 0, 0, 15],  # 3 and 5 divide c_M: those primes give no verdict
    [-4, 1, 0, 3],
    [7, 0, 14, 0, 21, 0, 0, 0, 35],
]


@pytest.mark.parametrize("coeffs", PLANTED_FORMS)
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_planted_point_in_a_row_with_an_odd_prime(coeffs, n):
    # y^n = d F(u, v) with a point at (u0, v0), p | v0 for an odd p, d = the
    # squarefree part of F(u0, v0) for n = 2, else F(u0, v0)^(n - 1). Where p
    # does not divide c = d c_M, c is then a gcd(n, M)-th power residue mod
    # p, and the row stays; the other rows that the mask clears hold no point.
    # With gcd(n, M) = 1 there is no mask.
    M, H = len(coeffs) - 1, 40
    cleared = 0
    for u0, v0 in [(1, 3), (2, 15), (-5, 21), (7, 13), (4, 33), (-1, 35), (9, 25)]:
        value = sum(c * u0**j * v0 ** (M - j) for j, c in enumerate(coeffs))
        if not value:
            continue
        d = squarefree_part(value) if n == 2 else value ** (n - 1)
        found = kernels.search_pairs(coeffs, n, d, H)
        assert (u0, v0) in [(u, v) for _, u, v in found]
        dead = set(kernels._dead_rows(coeffs, n, d, H).tolist())
        assert v0 not in dead
        cleared += len(dead)
        assert_rows_hold_no_point(coeffs, n, d, H, sorted(dead)[:3])
    assert bool(cleared) == (gcd(n, M) > 1)


def masked_rows(coeffs, n, d, H):
    """sieve_rows with the denominator mask's rows cleared, as search_pairs
    hands them to the sieve: one word per v = 0 .. H."""
    rows = sieve_rows(coeffs, n, d, H)
    words = np.resize(rows[64], (H + 1, 1))
    words[kernels._dead_rows(coeffs, n, d, H)] = 0
    rows[64] = words
    return rows


@pytest.mark.parametrize("block_bytes", [8, 1 << 18])
@pytest.mark.parametrize("coeffs,n,d,H,clears", [c for c in MASK_CASES if c[4]])
def test_sieve_skips_the_cleared_rows(coeffs, n, d, H, clears, block_bytes):
    # the survivors of the masked rows are the unmasked sieve's, less the
    # pairs in cleared rows
    dead = kernels._dead_rows(coeffs, n, d, H)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_purepy, "_BLOCK_BYTES", block_bytes)
        got = _purepy.survivors(masked_rows(coeffs, n, d, H), H)
        want = _purepy.survivors(sieve_rows(coeffs, n, d, H), H)
    np.testing.assert_array_equal(got, want[~np.isin(want[:, 1], dead)])


# -- the exact check as it was before the residue stage (every coprime
# survivor evaluated at once, then n-th roots in (v, u) order), kept as oracle


def old_search_pairs(coeffs, M, n, d, H, max_points=None):
    out = []
    if H < 1 or (max_points is not None and max_points < 1):
        return out
    primes = kernels._select_primes(n, d, H)
    pairs = _purepy.survivors(kernels._residue_tables(coeffs, n, d, primes, H, {}), H)
    pairs = pairs[np.gcd(pairs[:, 0], pairs[:, 1]) == 1]
    vals = kernels.form_values(coeffs[: M + 1], pairs[:, 0], pairs[:, 1])
    for (u, v), val in zip(pairs.tolist(), vals.tolist()):
        y = nth_root(d * val, n) if val else None
        if y:
            out.append((y, u, v))
            if len(out) == max_points:
                break
    return out


@pytest.fixture
def stage_passes(monkeypatch):
    """(pairs in, pairs kept) of every pass of the residue stage."""
    passes = []
    build = kernels._residue_stage

    def spy(*args):
        keep = build(*args)

        def counted(u, v):
            mask = keep(u, v)
            passes.append((len(u), int(mask.sum())))
            return mask

        return counted

    monkeypatch.setattr(kernels, "_residue_stage", spy)
    return passes


def small_chunks(monkeypatch):
    # chunks of 150, then 100 survivors, every one staged: chunk edges fall
    # inside v rows and between them
    monkeypatch.setattr(kernels, "_FIRST_CHUNK", 150)
    monkeypatch.setattr(kernels, "_CHUNK", 100)
    monkeypatch.setattr(kernels, "_STAGE_MIN", 0)


S4 = (5 * 13 * 17 * 29 * 37 * 41 * 53 * 61) ** 4
P17 = 103 * 137 * 239 * 307 * 409
# Heights at which chunks of the default size hold hundreds of survivors and
# the stage runs. A prime that divides the content of F passes every pair, so
# it is no sieve prime, and the stage has more to remove.
STAGE_CASES = [
    ([-2, 0, 0, 1, 0], 4, 2, 1, 1200),  # y^2 = t^3 - 2: 2 points among 1303 survivors
    # y^2 = 2(2u^4 + u^2 v^2 - v^4) at (+-1, 1), (+-3, 4), ...; 2 is no square
    # mod 67. 2 * 2 is a square, so the denominator mask clears no row
    ([-1, 0, 1, 0, 2], 4, 2, 2, 1600),
    ([9, 0, 0, 0, 1], 4, 2, 1, 1600),  # y^2 = u^4 + 9 v^4 at (0, 1), (+-2, 1), ...: F(u, v) != F(v, u)
    ([67**2 - 1, 0, 0, 0, 1], 4, 2, 1, 800),  # (+-1, 1) gives y = 67, which is 0 mod 67
    ([-5, 3, 0, 1], 3, 3, 67 * 71, 500),  # d divisible by two stage primes
    # y^3 = 2 (u^3 + u v^2 + 2 v^3) at (1, 1), (3, 1), (-22, 23), ... (2-adically,
    # 2 (u^3 + u^2 v + v^3) is no cube: its valuation is 1)
    ([2, 1, 0, 1], 3, 3, 2, 400),
    # s^4 (u^2 + 2 v^2), s the product of the candidate primes 1 (mod 4):
    # points at (+-7, 4), (+-287, 24), ..., values above 2^62
    ([2 * S4, 0, S4], 2, 4, 1, 300),
    # 0 mod every prime = 1 (mod 17) up to 409: at H = 300 no prime is left to
    # sieve (443^2 > 601 * 300), so the stage gets the whole box
    ([P17, 0, P17 * (2**17 - 1)], 2, 17, 1, 300),
    # values above 2^62: object path, y = 2^35 at (0, 1). u^4 + 2^70 v^4 leaves
    # too few coprime pairs past the 2-adic row for a chunk to be staged
    ([2**70, 0, 1, 0, 1], 4, 2, 1, 800),
]


@pytest.mark.parametrize("coeffs,M,n,d,H", STAGE_CASES)
@pytest.mark.parametrize("chunks", ["default", "small"])
def test_stage_gives_the_old_search(coeffs, M, n, d, H, chunks, stage_passes, monkeypatch):
    if chunks == "small":
        small_chunks(monkeypatch)
    full = old_search_pairs(coeffs, M, n, d, H)
    assert kernels.search_pairs(coeffs, n, d, H) == full
    # the stage ran, on chunks above its threshold, and removed pairs
    assert stage_passes and all(k > kernels._STAGE_MIN for k, _ in stage_passes)
    assert sum(k - kept for k, kept in stage_passes) > 0
    for k in (0, 1, 3):
        assert kernels.search_pairs(coeffs, n, d, H, max_points=k) == full[:k]


@given(
    st.one_of(
        # s^2 u^2 + b uv + c v^2: points in many rows, so chunks of points
        st.tuples(
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=1, max_value=4).map(lambda s: s * s),
        ).map(list),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=7),
    ),
    st.sampled_from([2, 3, 4, 17]),
    st.integers(min_value=-6, max_value=6).filter(lambda d: d != 0),
    st.sampled_from([1, 67 * 71]),
    st.sampled_from([1, 2**64]),
    st.sampled_from([150, 300]),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_stage_gives_the_old_search_randomized(coeffs, n, d, stage_divisor, big, H, small):
    # big multiplies the leading coefficient past 2^62 (object path)
    coeffs = coeffs[:-1] + [coeffs[-1] * big]
    M, d = len(coeffs) - 1, d * stage_divisor
    with pytest.MonkeyPatch.context() as mp:
        if small:
            small_chunks(mp)
        full = kernels.search_pairs(coeffs, n, d, H)
        assert full == old_search_pairs(coeffs, M, n, d, H)
        for k in (0, 1, 3):
            assert kernels.search_pairs(coeffs, n, d, H, max_points=k) == full[:k]


def test_stage_without_primes_is_a_no_op(stage_passes):
    # below 1024 the only primes 1 (mod 59) are 709 and 827. At H = 12 neither
    # is a sieve prime, and both divide d, so the stage has none:
    # y^59 = (709 * 827 u)^59 has a point at every coprime pair with u != 0
    coeffs, M, n, d, H = [0] * 59 + [1], 59, 59, (709 * 827) ** 59, 12
    assert kernels._select_primes(n, d, H) == kernels._stage_primes(n, d, []) == []
    full = kernels.search_pairs(coeffs, n, d, H)
    assert full == old_search_pairs(coeffs, M, n, d, H) == by_v(brute_points(coeffs, M, n, d, H))
    assert stage_passes == [(k, k) for k, _ in stage_passes] and len(stage_passes) == 1
    assert kernels.search_pairs(coeffs, n, d, H, max_points=3) == full[:3]


def test_stage_stops_where_pairs_are_points(stage_passes, monkeypatch):
    # y^2 = u^2: every coprime pair with u != 0 is a point. The first pass
    # keeps all of them, and no later chunk is staged.
    small_chunks(monkeypatch)
    full = kernels.search_pairs([0, 0, 1], 2, 1, 60)
    assert full == old_search_pairs([0, 0, 1], 2, 2, 1, 60)
    assert len(stage_passes) == 1 and stage_passes[0][0] == stage_passes[0][1]
