"""The sweep's argument checks, forked worker processes, lockstep growth
probe and per-point seed accounting, and the contract of ``forked``."""

import io
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

import gridlab.montecarlo
from conftest import count_forks, use_cpus
from gridlab import GridlabError, growth_slope, sweep, validate_params
from gridlab.montecarlo import (COLUMN_BLOCK, GROWTH_X0, _growth_probe, _median,
                                forked, usable_cpus)
from gridlab.rng import point_seed

# Every sweep here may fork; each test ends with all its children reaped.
pytestmark = pytest.mark.usefixtures("no_child_left")

GRID = [{"mu": -0.6}, {"mu": -0.1}, {"mu": 0.1}, {"mu": 0.9}]
FAST = dict(steps=500, burn_in=50, n_seeds=1, seed=1)


@pytest.mark.parametrize("grid, steps, burn_in, n_seeds, match", [
    (GRID, 100, 200, 2, "steps > burn_in >= 0"),
    (GRID, 100, 100, 2, "steps > burn_in >= 0"),
    (GRID, 100, -1, 2, "steps > burn_in >= 0"),
    (GRID, 100, 10, 0, "n_seeds"),
    # Not a point at the base lambda: a key outside PARAM_KEYS is named.
    ([{"mu": 0.2}, {"lam": 0.9, "mu": 0.2}], 500, 50, 2, "'lam'")],
    ids=["burn-in-over-steps", "burn-in-equals-steps", "negative-burn-in",
         "zero-seeds", "unknown-grid-key"])
def test_bad_horizon_or_seed_count_raises(p0, grid, steps, burn_in, n_seeds,
                                          match):
    # Per-point errors become rows; these must raise before any point runs.
    with pytest.raises(ValueError, match=match):
        sweep(p0, grid, steps=steps, burn_in=burn_in, n_seeds=n_seeds)


def test_workers_do_not_change_rows(p0, monkeypatch):
    # repr, because the mu <= -lambda row holds a NaN KS distance.  Nor
    # does the lockstep block size: with three seeds a point, blocks of 7
    # columns cut points apart.  The four points run in 1 to 4 processes.
    kwargs = dict(steps=2_000, burn_in=200, n_seeds=3, seed=7)
    use_cpus(monkeypatch, 1)
    want = repr(sweep(p0, GRID, **kwargs))
    assert "nan" in want
    for block in (1, 7, COLUMN_BLOCK):
        monkeypatch.setattr(gridlab.montecarlo, "COLUMN_BLOCK", block)
        for cpus in (1, 2, 3, 4):
            use_cpus(monkeypatch, cpus)
            assert repr(sweep(p0, GRID, **kwargs)) == want


def growth_peak_bytes(points, n_seeds):
    tracemalloc.start()
    try:
        _growth_probe(points, GROWTH_X0, 200, 500, n_seeds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_growth_memory_stays_one_block(p0):
    # One block of 256 columns over 500 steps holds its fit windows and
    # one time slice's noise and states: about 1.9 MB.  Four times the
    # columns, as more seeds or as more points, add only their slopes
    # (about 40 bytes a column), not another block.
    bound = 4_500_000
    one = growth_peak_bytes([(p0, 1)], COLUMN_BLOCK)
    more_seeds = growth_peak_bytes([(p0, 1)], 4 * COLUMN_BLOCK)
    more_points = growth_peak_bytes([(p0, s) for s in range(4)], COLUMN_BLOCK)
    assert one < bound and more_seeds < bound and more_points < bound
    assert max(more_seeds, more_points) < one + 100_000


@pytest.mark.parametrize("count", [0, 1, 2, 7, 8, 64, 65])
def test_median_has_numpys_bits(count):
    # Rounded to 0.1 so that middle values tie; np.median warns on no values.
    values = tuple((np.round(np.random.default_rng(count).normal(size=count), 1)
                    / 3.0).tolist())
    want = float(np.median(values)) if count else float("nan")
    assert _median(values).hex() == want.hex()


def test_pool_is_capped_at_grid_size(p0, monkeypatch):
    # One share per usable CPU, at most one per valid point, and this
    # process runs the first, so n CPUs run at most n processes: mu = 0.9
    # makes lambda + mu >= 1, an error row with nothing to run.
    grid = [{"mu": 0.1}, {"mu": 0.9}, {"mu": 0.2}]
    pids = count_forks(monkeypatch)
    forks = []
    for cpus in (1, 2, 3, 64):
        use_cpus(monkeypatch, cpus)
        rows = sweep(p0, grid, **FAST)
        assert [r.index for r in rows] == [0, 1, 2]
        assert rows[1].error and rows[2].result
        forks.append(len(pids))
        pids.clear()
    assert forks == [0, 1, 1, 1]
    # One valid point runs in this process, whatever the CPUs.
    sweep(p0, grid[:2], **FAST)
    assert pids == []


def test_usable_cpus_is_one_while_a_thread_runs(p0, monkeypatch):
    use_cpus(monkeypatch, 4)
    pids = count_forks(monkeypatch)
    assert usable_cpus() == 4
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert usable_cpus() == 1
        sweep(p0, GRID, **FAST)
    finally:
        release.set()
        thread.join()
    assert pids == []
    assert usable_cpus() == 4


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_usable_cpus_is_one_without_affinity_or_fork(p0, monkeypatch, missing):
    use_cpus(monkeypatch, 4)
    pids = count_forks(monkeypatch)
    monkeypatch.delattr(os, missing)
    assert usable_cpus() == 1
    sweep(p0, GRID, **FAST)
    assert pids == []


@pytest.mark.parametrize("working", [0, 1, 2])
def test_failed_fork_runs_the_share_here(p0, monkeypatch, working):
    # GRID's three valid points make three shares on four CPUs; forks
    # after the first `working` fail, and those shares run here.
    use_cpus(monkeypatch, 1)
    want = repr(sweep(p0, GRID, **FAST))
    use_cpus(monkeypatch, 4)
    pids = count_forks(monkeypatch, working=working)
    assert repr(sweep(p0, GRID, **FAST)) == want
    assert len(pids) == working


def share_job(k, n, fh):
    """A forked() job: share k of n writes "k/n;"."""
    fh.write(b"%d/%d;" % (k, n))


@pytest.mark.parametrize("working", [None, 0], ids=["forked", "fork-fails"])
def test_forked_returns_each_jobs_file(monkeypatch, working):
    # 5 units on 3 CPUs make 3 shares, written out in share order.  Where
    # os.fork fails, this process runs every share; a share notes in `ran`
    # only where it runs here.
    ran = []

    def job(k, n, fh):
        ran.append(k)
        share_job(k, n, fh)

    use_cpus(monkeypatch, 3)
    pids = count_forks(monkeypatch, working=working)
    out = io.BytesIO()
    assert forked("test", 5, job, out) == 3
    assert out.getvalue() == b"0/3;1/3;2/3;"
    assert (len(pids), ran) == ((2, [0]) if working is None else (0, [0, 1, 2]))


def test_forked_child_failure_names_its_job(monkeypatch):
    def job(k, n, fh):
        if k == 2:
            raise RuntimeError("share failed")
        share_job(k, n, fh)

    use_cpus(monkeypatch, 4)
    with pytest.raises(GridlabError, match=r"^the job share 3 of 4 failed in a "
                                           r"child process \(exit status 1\)$"):
        forked("the job", 4, job, io.BytesIO())


def test_forked_failure_here_kills_every_child(monkeypatch, tmp_path):
    # Share 0 raises in this process while the children sleep: each child
    # is killed, not waited for, and reaped (no_child_left), and no file
    # stays in `directory`.
    def job(k, n, fh):
        if k == 0:
            raise RuntimeError("share 0 failed")
        time.sleep(60)

    use_cpus(monkeypatch, 4)
    pids = count_forks(monkeypatch)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="share 0 failed"):
        forked("test", 4, job, io.BytesIO(), tmp_path)
    assert time.monotonic() - started < 30
    assert len(pids) == 3
    assert list(tmp_path.iterdir()) == []


def test_forked_copies_a_share_in_pieces(monkeypatch, tmp_path):
    # A child's 8 MB share reaches `out` through a bounded buffer: this
    # process never holds the whole share.
    size = 8 << 20

    def job(k, n, fh):
        fh.write(bytes(size) if k else b"")

    use_cpus(monkeypatch, 2)
    pids = count_forks(monkeypatch)
    with open(tmp_path / "out", "wb") as out:
        tracemalloc.start()
        try:
            forked("test", 2, job, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(pids) == 1
    assert (tmp_path / "out").stat().st_size == size
    assert peak < 1 << 20


def break_children(monkeypatch, fail):
    """Make every point's legs call ``fail()`` in a forked child; they
    run as before in this process."""
    parent, real = os.getpid(), gridlab.montecarlo._sweep_point

    def leg(*args, **kwargs):
        if os.getpid() != parent:
            fail()
        return real(*args, **kwargs)

    monkeypatch.setattr(gridlab.montecarlo, "_sweep_point", leg)


def test_failed_child_raises(p0, monkeypatch):
    def broken():
        raise RuntimeError("share failed")

    break_children(monkeypatch, broken)
    use_cpus(monkeypatch, 2)
    with pytest.raises(GridlabError, match=r"^sweep share 2 of 2 failed in a "
                                           r"child process \(exit status 1\)$"):
        sweep(p0, GRID, **FAST)


def test_child_killed_by_signal_raises(p0, monkeypatch):
    break_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    use_cpus(monkeypatch, 2)
    with pytest.raises(GridlabError, match=r"^sweep share 2 of 2 failed in a "
                                           r"child process \(exit status -9\)$"):
        sweep(p0, GRID, **FAST)


def test_failed_probe_reaps_every_child(p0, monkeypatch):
    def broken(*args):
        raise RuntimeError("probe failed")

    monkeypatch.setattr(gridlab.montecarlo, "_growth_probe", broken)
    use_cpus(monkeypatch, 4)
    pids = count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="probe failed"):
        sweep(p0, GRID, **FAST)
    assert len(pids) == 2  # one per valid point after the first


def test_seeds_used_leaves_out_excluded_growth_seeds():
    # gamma = 0.1: outside D1 the backlog shrinks tenfold per step, so on
    # some growth seeds it underflows to 0 inside the fit window [200, 500].
    p = validate_params(0.5, 0.4, 1.0, 1.0, 3.0, 1.0)
    growth = growth_slope(p, GROWTH_X0, 200, 500, 4, point_seed(0, 0) + 1)
    assert growth.excluded > 0
    [row] = sweep(p, [{}], steps=2_000, burn_in=200, n_seeds=4, seed=0)
    assert row.result.seeds_used == 4 - growth.excluded
