"""The random stream spec, checked against a scalar reference implementation."""

import numpy as np
import pytest

from decop.rng import LANES, Rng, fnv1a64, splitmix64_mix, splitmix64_sequence

M64 = (1 << 64) - 1


def scalar_splitmix64(seed, count):
    out = []
    state = seed & M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def scalar_xorshift128plus_step(s0, s1):
    result = (s0 + s1) & M64
    t = s0 ^ ((s0 << 23) & M64)
    s0_new = s1
    s1_new = t ^ s1 ^ (t >> 18) ^ (s1 >> 5)
    return result, s0_new, s1_new


def scalar_stream(seed, count):
    """Reference: full lane seeding and round-major emission, in plain ints."""
    seeds = scalar_splitmix64(seed, 2 * LANES)
    lanes = [(seeds[2 * i], seeds[2 * i + 1]) for i in range(LANES)]
    out = []
    while len(out) < count:
        next_lanes = []
        for s0, s1 in lanes:
            r, s0, s1 = scalar_xorshift128plus_step(s0, s1)
            out.append(r)
            next_lanes.append((s0, s1))
        lanes = next_lanes
    return out[:count]


def test_splitmix_matches_scalar_reference():
    got = splitmix64_sequence(12345, 8)
    assert [int(v) for v in got] == scalar_splitmix64(12345, 8)


def test_words_match_scalar_reference_across_rounds():
    rng = Rng(99)
    got = [int(v) for v in rng.words(2 * LANES + 7)]
    assert got == scalar_stream(99, 2 * LANES + 7)


def test_each_call_consumes_whole_rounds():
    # words(3) consumes one full round and discards the surplus, so the
    # next call starts at round 2 regardless of the 3 vs LANES split
    a, b = Rng(5), Rng(5)
    first_a = list(a.words(3))
    first_b = list(b.words(LANES))
    assert first_a == first_b[:3]
    assert list(a.words(4)) == list(b.words(4))


def test_empty_draws_return_empty_arrays_and_leave_the_stream_in_place():
    # zero words take zero rounds, so the next draw is a fresh stream's first
    rng = Rng(5)
    words = rng.words(0)
    assert words.shape == (0,) and words.dtype == np.uint64
    assert rng.uniform(0).shape == (0,)
    assert rng.normal((0, 3)).shape == (0, 3)
    assert rng.bernoulli(0.5, 0).shape == (0,)
    assert np.array_equal(rng.words(8), Rng(5).words(8))


def test_same_seed_same_everything():
    a, b = Rng(7), Rng(7)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(a.normal(101), b.normal(101))
    assert np.array_equal(a.permutation(50), b.permutation(50))


def test_child_streams_are_independent():
    root = Rng(7)
    assert not np.array_equal(root.child("mask").uniform(64), root.child("dropout").uniform(64))
    # tag derivation is stateless: children do not disturb the parent
    again = Rng(7)
    assert np.array_equal(root.child("mask").uniform(8), again.child("mask").uniform(8))


def test_fnv1a64_known_values():
    # frozen from the FNV-1a reference parameters
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_uniform_range_and_bounds():
    u = Rng(3).uniform(10_000)
    assert (u >= 0).all() and (u < 1).all()
    assert abs(u.mean() - 0.5) < 0.02


def test_normal_moments():
    z = Rng(4).normal(20_000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_permutation_is_permutation():
    p = Rng(11).permutation(257)
    assert sorted(p.tolist()) == list(range(257))


def test_bernoulli_rate():
    m = Rng(13).bernoulli(0.25, 40_000)
    assert abs(m.mean() - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 40_000) * 1.5


def test_splitmix_mix_is_bijective_sample():
    seen = {splitmix64_mix(i) for i in range(1000)}
    assert len(seen) == 1000


def _reference_lanes(seed):
    seeds = np.array(scalar_splitmix64(seed, 2 * LANES), dtype=np.uint64)
    return seeds[0::2].copy(), seeds[1::2].copy()


def _reference_round(s0, s1):
    """One xorshift128+ round of every lane, as the module docstring states it."""
    result = s0 + s1
    t = s0 ^ (s0 << np.uint64(23))
    return result, s1, t ^ s1 ^ (t >> np.uint64(18)) ^ (s1 >> np.uint64(5))


def _reference_words(lanes, n):
    rounds = []
    s0, s1 = lanes
    while len(rounds) * LANES < n:
        result, s0, s1 = _reference_round(s0, s1)
        rounds.append(result)
    return np.concatenate(rounds)[:n], (s0, s1)


def test_in_place_stream_matches_round_at_a_time_reference():
    rng = Rng(2718)
    lanes = _reference_lanes(2718)
    for n in (1, LANES - 1, LANES + 1, 3 * LANES + 5):
        want, lanes = _reference_words(lanes, n)
        assert np.array_equal(rng.words(n), want), n
    for p in (0.0, 0.1, 1.0):
        shape = (3, LANES // 2 + 7)
        w, lanes = _reference_words(lanes, shape[0] * shape[1])
        want = ((w >> np.uint64(11)).astype(np.float64) * 2.0**-53 < p).reshape(shape)
        assert np.array_equal(rng.bernoulli(p, shape), want), p
    assert np.array_equal(rng._s0, lanes[0])
    assert np.array_equal(rng._s1, lanes[1])


@pytest.mark.parametrize("n", [0, 1, LANES - 1, LANES, 3 * LANES, 2 * LANES + 5])
def test_bernoulli_matches_whole_words_then_threshold(n):
    # the round-at-a-time comparison gives the same mask and leaves the
    # stream where drawing the words would
    p = 0.3
    drawn, reference = Rng(99), Rng(99)
    drawn.words(7)
    reference.words(7)
    mask = drawn.bernoulli(p, (n,))
    words = reference.words(n)
    want = (words >> np.uint64(11)) < np.uint64(int(np.ceil(p * 2.0**53)))
    assert mask.dtype == bool and mask.shape == (n,)
    assert np.array_equal(mask, want)
    assert np.array_equal(drawn._s0, reference._s0)
    assert np.array_equal(drawn._s1, reference._s1)
    assert np.array_equal(drawn.words(LANES + 3), reference.words(LANES + 3))
