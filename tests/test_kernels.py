from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import fp, kernels
from speclab.intutil import nth_root
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
    got = kernels.search_pairs(coeffs, M, n, d, H)
    assert sorted(got) == brute_points(coeffs, M, n, d, H)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=7),
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=-10, max_value=10).filter(lambda d: d != 0),
)
@settings(max_examples=40, deadline=None)
def test_backends_agree_randomized(coeffs, n, d):
    M = len(coeffs) - 1
    got = kernels.search_pairs(coeffs, M, n, d, 15)
    assert sorted(got) == brute_points(coeffs, M, n, d, 15)


def test_points_verified_exactly():
    coeffs = [-2, 0, 0, 1, 0]
    for y, u, v in kernels.search_pairs(coeffs, 4, 2, 1, 60):
        assert y**2 == sum(c * u**j * v ** (4 - j) for j, c in enumerate(coeffs))
        assert gcd(u, v) == 1 and v >= 1 and y > 0


def test_max_points_cap():
    for coeffs, M, n, d, H in [([-2, 0, 0, 1, 0], 4, 2, 1, 200), ([1, 0, 1], 2, 2, 1, 60)] + CASES:
        full = kernels.search_pairs(coeffs, M, n, d, H)
        for k in range(4):
            assert kernels.search_pairs(coeffs, M, n, d, H, max_points=k) == full[:k]


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
        full = kernels.search_pairs(coeffs, M, n, d, H)
        assert full == by_v(brute_points(coeffs, M, n, d, H))
        for k in range(4):
            assert kernels.search_pairs(coeffs, M, n, d, H, max_points=k) == full[:k]


def test_backend_names():
    names = kernels.available_backends()
    assert "purepy" in names


def test_every_exponent_gets_sieve_primes():
    for n in range(2, 41):
        for d in (1, -2, 3 * 103 * 137 * 239 * 307):
            primes = kernels._select_primes(n, d)
            assert primes
            assert all(kernels._sieve_fraction(p, n, d) < 0.99 for p in primes)
            old = old_select_primes(n, d)
            if old:
                assert primes == old
            else:  # the smallest primes p = 1 (mod n) that do not divide d
                assert all(p % n == 1 and d % p for p in primes)


def test_search_rejects_exponent_one():
    with pytest.raises(ValueError):
        kernels.search_pairs([1, 1], 1, 1, 1, 5)


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


@given(
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=2, max_size=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=-(2**66), max_value=2**66),
)
@settings(max_examples=8, deadline=None)
def test_residue_tables_match_oracle(coeffs, n, shift):
    M = len(coeffs) - 1
    cache = {}
    for p in kernels._CANDIDATE_PRIMES + [103]:
        for r in class_representatives(p, n):
            d = r + p * shift
            got = kernels._residue_tables(coeffs, M, n, d, [p], cache)[p]
            want = old_residue_tables(coeffs, M, n, d, [p])[p]
            assert got.shape == want.shape and got.dtype == bool
            np.testing.assert_array_equal(got, want)
            assert kernels._sieve_fraction(p, n, d) == old_allowed_residues(p, n, d).sum() / p


def test_residue_tables_match_oracle_on_fallback_primes():
    # n = 17 has no candidate prime: the tables are 239 x 239 to 443 x 443
    coeffs, M, n = [3, -(2**70), 0, 5, 7], 4, 17
    primes = kernels._select_primes(n, 103 * 137)
    assert primes == [239, 307, 409, 443]
    cache = {}
    for d in (103 * 137, -5 * 239):  # the second is 0 mod 239: that table passes everything
        got = kernels._residue_tables(coeffs, M, n, d, primes, cache)
        want = old_residue_tables(coeffs, M, n, d, primes)
        for p in primes:
            assert got[p].dtype == bool
            np.testing.assert_array_equal(got[p], want[p])


@given(
    st.integers(min_value=20, max_value=40).flatmap(
        lambda M: st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=M + 1, max_size=M + 1)
    ),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=-(2**66), max_value=2**66).filter(lambda d: d != 0),
)
@settings(max_examples=3, deadline=None)
def test_residue_tables_match_oracle_high_degree(coeffs, n, d):
    # model degree up to 40: the value table's product sums M + 1 terms below p^2
    M = len(coeffs) - 1
    got = kernels._residue_tables(coeffs, M, n, d, kernels._CANDIDATE_PRIMES)
    want = old_residue_tables(coeffs, M, n, d, kernels._CANDIDATE_PRIMES)
    for p in kernels._CANDIDATE_PRIMES:
        np.testing.assert_array_equal(got[p], want[p])


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
    primes = kernels._select_primes(n, 1)
    kernels._residue_tables([5, 1, 0, 0, 2, 0, 0, 0, 1], 8, n, 1, primes, {})
    kernels._residue_tables([-2, 0, 0, 1, 0], 4, n, 4, primes, {})
    assert len(seen) == 2 * len(primes)
    for first, second in zip(seen[: len(primes)], seen[len(primes) :]):
        assert first is second


def test_shared_masks_are_read_only():
    mask = kernels._allowed_residues(7, 3, 2)
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


def test_module_masks_bounded_by_their_keys(monkeypatch):
    monkeypatch.setattr(kernels, "_masks", {})
    curves = [([a, 1, 0, b, 0, 0, 1], 6) for a in range(-3, 4) for b in (0, 2)]
    curves += [([-2, 0, 0, 1, 0], 4), ([1, 0, 2**17 - 1], 2)]
    mask_keys = set()
    for coeffs, M in curves:
        for n in (2, 3, 17):
            cache = {}
            for d in range(-12, 13):
                if d:
                    kernels.search_pairs(coeffs, M, n, d, 10, cache=cache)
                    for p in kernels._select_primes(n, d):
                        mask_keys.add((p, n, fp.power_class(d, p, n)))
    assert set(kernels._masks) == mask_keys


def test_tables_shared_within_a_class():
    coeffs, M, n = [5, 1, 0, 0, 2, 0, 0, 0, 1], 8, 2
    primes = kernels._select_primes(n, 1)
    cache = {}
    one = kernels._residue_tables(coeffs, M, n, 1, primes, cache)
    four = kernels._residue_tables(coeffs, M, n, 4, primes, cache)
    minus = kernels._residue_tables(coeffs, M, n, -1, primes, cache)
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
    classes = set()
    for _ in range(2):
        for H in (30, 200):
            for d in range(-40, 41):
                if d:
                    assert kernels.search_pairs(coeffs, M, n, d, H, cache=cache) == \
                        kernels.search_pairs(coeffs, M, n, d, H)
                    classes |= {(p, fp.power_class(d, p, n)) for p in kernels._select_primes(n, d)}
    for p in {p for p, _ in classes}:
        assert sum(q == p for q, _ in classes) == gcd(n, p - 1)
    kept = cache[kernels._ROWS]
    assert {(p, c) for p, c, _ in kept} == classes  # every table fits at these heights
    for (p, c, H), rows in kept.items():
        assert rows.shape == (p, (2 * H + 64) // 64)
        assert rows.nbytes <= kernels._KEPT_ROWS_BYTES
        assert not rows.flags.writeable


def test_no_rows_kept_above_the_cap():
    # d = 385 = 5 * 7 * 11 leaves p = 3, the smallest table, among the sieve
    # primes; its rows fit up to the largest H with 3 * 8 * nwords <= cap
    coeffs, M, n, d = [-2, 0, 0, 1, 0], 4, 2, 385
    assert 3 in kernels._select_primes(n, d)
    H = 32 * (kernels._KEPT_ROWS_BYTES // 24) - 1
    cache = {}
    kernels.search_pairs(coeffs, M, n, d, H, cache=cache)
    kept = cache[kernels._ROWS]
    assert (3, fp.power_class(d, 3, n), H) in kept
    assert all(rows.nbytes <= kernels._KEPT_ROWS_BYTES for rows in kept.values())
    before = dict(kept)
    assert kernels.search_pairs(coeffs, M, n, d, H + 1, cache=cache) == \
        kernels.search_pairs(coeffs, M, n, d, H + 1)
    assert kept.keys() == before.keys()  # from H + 1 on no table fits, whatever the prime


# -- the sieve as it was before bit packing (one v row at a time), kept as oracle


def old_survivors(tables, H):
    primes = sorted(tables, key=lambda p: tables[p].sum() / tables[p].size)
    u_arr = np.arange(-H, H + 1, dtype=np.int64)
    umod = {p: (u_arr % p).astype(np.intp) for p in primes}
    out_u = []
    out_v = []
    for v in range(1, H + 1):
        p0 = primes[0]
        idx = np.nonzero(tables[p0][v % p0][umod[p0]])[0]
        for p in primes[1:]:
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
    M = len(coeffs) - 1
    primes = kernels._select_primes(n, d)  # n = 17: primes 103, 137, ... = 1 (mod 17)
    if divisor is not None:  # some sieve prime divides d: its table passes every u
        d *= primes[divisor % len(primes)]
    tables = kernels._residue_tables(coeffs, M, n, d, primes)
    got = _purepy.survivors(tables, H)
    assert got.dtype == np.int64 and got.shape[1] == 2
    np.testing.assert_array_equal(got, old_survivors(tables, H))


@pytest.mark.parametrize("coeffs,M,n,d,H", CASES)
def test_packed_sieve_matches_old_past_one_period(coeffs, M, n, d, H):
    # At H = 1000 a row has 32 words, more than many of its primes: the words
    # repeat with period p in w, which H <= 200 reaches only for p <= 5.
    tables = kernels._residue_tables(coeffs, M, n, d, kernels._select_primes(n, d))
    np.testing.assert_array_equal(_purepy.survivors(tables, 1000), old_survivors(tables, 1000))
