"""The sweep's argument checks, worker pool, lockstep growth probe and
per-point seed accounting."""

import tracemalloc

import pytest

import gridlab.montecarlo
from gridlab import growth_slope, sweep, validate_params
from gridlab.dynamics import COLUMN_BLOCK
from gridlab.montecarlo import GROWTH_X0, _growth_probe
from gridlab.rng import point_seed

GRID = [{"mu": -0.6}, {"mu": -0.1}, {"mu": 0.1}, {"mu": 0.9}]


@pytest.mark.parametrize("steps, burn_in, n_seeds", [
    (100, 200, 2), (100, 100, 2), (100, -1, 2), (100, 10, 0)],
    ids=["burn-in-over-steps", "burn-in-equals-steps", "negative-burn-in",
         "zero-seeds"])
def test_bad_horizon_or_seed_count_raises(p0, steps, burn_in, n_seeds):
    # Per-point errors become rows; these must raise before any point runs.
    with pytest.raises(ValueError, match="steps > burn_in >= 0|n_seeds"):
        sweep(p0, GRID, steps=steps, burn_in=burn_in, n_seeds=n_seeds)


def test_workers_do_not_change_rows(p0, monkeypatch):
    # repr, because the mu <= -lambda row holds a NaN KS distance.  Nor
    # does the lockstep block size: with three seeds a point, blocks of 7
    # columns cut points apart.
    kwargs = dict(steps=2_000, burn_in=200, n_seeds=3, seed=7)
    want = repr(sweep(p0, GRID, **kwargs))
    assert "nan" in want
    for block in (1, 7, COLUMN_BLOCK):
        monkeypatch.setattr(gridlab.montecarlo, "COLUMN_BLOCK", block)
        for workers in (1, 2):
            assert repr(sweep(p0, GRID, workers=workers, **kwargs)) == want


def growth_peak_bytes(points, n_seeds):
    tracemalloc.start()
    try:
        _growth_probe(points, GROWTH_X0, 200, 500, n_seeds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_growth_memory_stays_one_block(p0):
    # One block of 256 columns over 500 steps holds its noise, both state
    # arrays and the fit windows: about 3.8 MB.  Four times the columns,
    # as more seeds or as more points, add only their slopes (about 40
    # bytes a column), not another block.
    bound = 4_500_000
    one = growth_peak_bytes([(p0, 1)], COLUMN_BLOCK)
    more_seeds = growth_peak_bytes([(p0, 1)], 4 * COLUMN_BLOCK)
    more_points = growth_peak_bytes([(p0, s) for s in range(4)], COLUMN_BLOCK)
    assert one < bound and more_seeds < bound and more_points < bound
    assert max(more_seeds, more_points) < one + 100_000


class FakePool:
    """An in-process stand-in for ProcessPoolExecutor."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_pool_is_capped_at_grid_size(p0, monkeypatch):
    monkeypatch.setattr(gridlab.montecarlo, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    kwargs = dict(steps=500, burn_in=50, n_seeds=1, seed=1)
    rows = sweep(p0, [{"mu": 0.1}, {"mu": 0.2}], workers=64, **kwargs)
    assert FakePool.sizes == [2]
    assert [r.index for r in rows] == [0, 1]
    # One point, or one worker, runs in this process.
    sweep(p0, [{"mu": 0.1}], workers=64, **kwargs)
    sweep(p0, [{"mu": 0.1}, {"mu": 0.2}], workers=1, **kwargs)
    sweep(p0, [{"mu": 0.1}, {"mu": 0.2}], workers=0, **kwargs)
    assert FakePool.sizes == [2]


def test_seeds_used_leaves_out_excluded_growth_seeds():
    # gamma = 0.1: outside D1 the backlog shrinks tenfold per step, so on
    # some growth seeds it underflows to 0 inside the fit window [200, 500].
    p = validate_params(0.5, 0.4, 1.0, 1.0, 3.0, 1.0)
    growth = growth_slope(p, GROWTH_X0, 200, 500, 4, point_seed(0, 0) + 1)
    assert growth.excluded > 0
    [row] = sweep(p, [{}], steps=2_000, burn_in=200, n_seeds=4, seed=0)
    assert row.result.seeds_used == 4 - growth.excluded
