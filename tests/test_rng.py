"""The numpy port of cephes ``ndtri`` against ``scipy.special.ndtri``, bit
for bit, and the batched draws built on it."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from gridlab import montecarlo, rng, validate_params
from gridlab.montecarlo import GROWTH_SLICE, GROWTH_X0, _growth_block, _slope_fit
from gridlab.rng import (_log, _ndtri, gaussian, gaussians, standard_normal,
                         stream)


def bits(a) -> list[int]:
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def uniforms(k: np.ndarray) -> np.ndarray:
    """The uniform map of ``standard_normal``, written out."""
    return np.minimum((k.astype(np.float64) + 0.5) / 2.0 ** 53, 1.0 - 2.0 ** -53)


def neighbours(x: float, n: int) -> list[float]:
    """x and the n doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return sorted(set(below + above))


E2 = rng._EXPM2
E32 = math.exp(-32.0)

# Each branch point of ndtri with the doubles around it: y = e^-2 splits
# the central branch from the tail, on both sides of 1/2, and y = e^-32,
# where x = sqrt(-2 log y) reaches 8, splits the tail's P1/Q1 from P2/Q2.
# Then the smallest uniform and the top clamp.
EDGES = (neighbours(E2, 1) + neighbours(1.0 - E2, 1) + neighbours(E32, 40)
         + neighbours(1.0 - E32, 4) + [2.0 ** -54, 1.0 - 2.0 ** -53])


def test_uniform_map_outputs_match_scipy():
    # About 2e6 draws in blocks of the sizes the chain kernel, the growth
    # probe and a drift estimate ask for.
    for seed in (0, 1):
        for size in (500, 4096, 10 ** 6):
            k = stream(seed, size).integers(0, 1 << 53, size=size)
            got = gaussian(stream(seed, size), size, 1.0)
            assert bits(got) == bits(ndtri(uniforms(k)))


def test_branch_edges_match_scipy():
    u = np.array(EDGES)
    x = np.array([math.sqrt(-2.0 * math.log(min(v, 1.0 - v))) for v in EDGES])
    # Both sides of each switch are present.
    assert (u > E2).any() and (u <= E2).any()
    assert (u > 1.0 - E2).any() and ((u <= 1.0 - E2) & (u > 0.5)).any()
    assert (x < 8.0).any() and (x >= 8.0).any()
    assert bits(_ndtri(u)) == bits(ndtri(u))


def test_raw_words_are_generator_integers(monkeypatch):
    # gaussians takes each draw's top 53 bits from one raw Philox word,
    # which is what Generator.integers(0, 2**53) returns, call after call.
    seen = []

    def recording(k):
        seen.append(k.copy())
        return standard_normal(k)

    monkeypatch.setattr(rng, "standard_normal", recording)
    for seed in range(20):
        drawn, reference = stream(seed, 3), stream(seed, 3)
        for size in (0, 1, 3, 500, 4096, 8193) * 3:
            gaussian(drawn, size, 1.0)
            want = reference.integers(0, 2 ** 53, size=size)
            assert seen.pop()[:, 0].tolist() == want.tolist()


def test_smallest_and_clamped_integers():
    k = np.array([0, 1, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1], dtype=np.int64)
    assert uniforms(k)[0] == 2.0 ** -54 and uniforms(k)[-1] == 1.0 - 2.0 ** -53
    assert bits(standard_normal(k)) == bits(ndtri(uniforms(k)))


def test_every_log_by_math_log(monkeypatch):
    # Without the long double route every log is math.log's, and the
    # results do not change.
    monkeypatch.setattr(rng, "_X87", False)
    k = stream(5).integers(0, 1 << 53, size=50_000)
    assert bits(standard_normal(k)) == bits(ndtri(uniforms(k)))
    assert bits(_ndtri(np.array(EDGES))) == bits(ndtri(np.array(EDGES)))


# The ranges the two logs of the tail see: log y for y in [2^-54, e^-2]
# and log x for x = sqrt(-2 log y) in [2, 8.66].
@pytest.mark.parametrize("lo, hi", [(5e-17, 0.14), (1.9, 8.7)])
@given(data=st.data())
def test_log_is_math_log(lo, hi, data):
    xs = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=300))
    assert bits(_log(np.array(xs))) == bits([math.log(x) for x in xs])


def test_memory_is_bounded_by_a_block():
    # The output and the integers, 8 bytes a draw each, plus one block of
    # the port's temporaries: a port over the whole array holds about 60
    # bytes per draw.
    n = 10 ** 6
    tracemalloc.start()
    try:
        gaussian(stream(0), n, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n + 100 * rng._NDTRI_BLOCK


def traced_peak(f, *args) -> int:
    """The tracemalloc peak, in bytes, of the call f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_draws_hold_one_small_block_of_port_temporaries():
    # The output and the integers, 16 bytes a draw, plus one block of the
    # port's temporaries at about 55 bytes an element: within 64 * 4096
    # bytes, which a block of 8192 elements exceeds.  First a growth slice
    # of 64 steps by 256 columns, then one long column.
    rngs = [stream(0, c) for c in range(256)]
    assert traced_peak(gaussians, rngs, 64, [1.0] * 256) \
        <= 16 * 64 * 256 + 64 * 4096
    n = 10 ** 6
    assert traced_peak(gaussian, stream(0), n, 1.0) <= 16 * n + 64 * 4096


def test_growth_block_draws_each_columns_gaussian(monkeypatch):
    # Sigmas mixed, zero included: each noise column is its stream's
    # integers from [0, 2^53) through standard_normal, times its sigma,
    # and +0.0 where sigma is 0.
    t_hi = 300
    columns = [(validate_params(0.5, 0.1, 1.0, 1.0, 3.0, s), seed, k)
               for s, seed, k in [(1.0, 7, 0), (0.0, 7, 1), (2.5, 9, 0),
                                  (0.0, 3, 4), (0.3, 9, 1)]]
    seen = []

    def recording(rngs, size, sigmas):
        seen.append(real(rngs, size, sigmas))
        return seen[-1]

    real = montecarlo.gaussians
    monkeypatch.setattr(montecarlo, "gaussians", recording)
    _growth_block(columns, GROWTH_X0, 100, t_hi)
    # One noise block per time slice, t_hi = 300 not a multiple of the slice.
    assert [len(n) for n in seen] == [min(GROWTH_SLICE, t_hi - lo)
                                      for lo in range(0, t_hi, GROWTH_SLICE)]
    noise = np.concatenate(seen)
    for c, (p, seed, k) in enumerate(columns):
        draws = standard_normal(stream(seed, k).integers(0, 1 << 53, size=t_hi))
        want = draws * p.sigma if p.sigma else np.zeros(t_hi)
        assert bits(noise[:, c]) == bits(want)
    assert bits(noise[:, [1, 3]]) == bits(np.zeros((t_hi, 2)))


class TestSlopeFit:
    def test_real_block_matches_polyfit(self, monkeypatch):
        # One block of the sweep's growth probe, every window's slope
        # against np.polyfit's, hex for hex.
        p = validate_params(0.5, 0.1, 1.0, 1.0, 3.0, 1.0)
        columns = [(p, 11, k) for k in range(64)]
        got = _growth_block(columns, GROWTH_X0, 200, 500)

        def polyfit(ts):
            return lambda y: float(np.polyfit(ts, y, 1)[0])

        monkeypatch.setattr(montecarlo, "_slope_fit", polyfit)
        want = _growth_block(columns, GROWTH_X0, 200, 500)
        assert sum(isinstance(f, float) for f in got) > 32
        assert [f.hex() if isinstance(f, float) else f for f in got] \
            == [f.hex() if isinstance(f, float) else f for f in want]

    def test_rank_deficient_fit_warns_like_polyfit(self):
        ts, y = np.array([3, 3, 3]), np.array([1.0, 2.0, 4.0])
        with pytest.warns(np.exceptions.RankWarning):
            want = np.polyfit(ts, y, 1)[0]
        with pytest.warns(np.exceptions.RankWarning):
            assert _slope_fit(ts)(y).hex() == float(want).hex()
