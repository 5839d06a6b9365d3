"""The sweep's argument checks, worker pool and per-point seed accounting."""

import pytest

import gridlab.montecarlo
from gridlab import growth_slope, sweep, validate_params
from gridlab.montecarlo import GROWTH_X0
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


def test_workers_do_not_change_rows(p0):
    # repr, because the mu <= -lambda row holds a NaN KS distance.
    rows = [repr(sweep(p0, GRID, steps=2_000, burn_in=200, n_seeds=3, seed=7,
                       workers=w)) for w in (1, 2)]
    assert "nan" in rows[0]
    assert rows[0] == rows[1]


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
