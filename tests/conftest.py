import os

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic and its runtime bounded.
settings.register_profile("tier1", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("tier1")

from gridlab import validate_params


@pytest.fixture
def no_child_left():
    """After the test, every forked child has been reaped: no zombie, no
    live child."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, n):
    """Make ``os.sched_getaffinity`` report n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch, working=None):
    """Patch os.fork with a wrapper; returns the list of child pids.

    After ``working`` successful forks, each further fork raises OSError.
    """
    real_fork, pids = os.fork, []

    def fork():
        if working is not None and len(pids) >= working:
            raise OSError(11, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def p0():
    """The reference parameter set used throughout the examples."""
    return validate_params(0.5, 0.1, 1.0, 1.0, 3.0, 1.0)


def random_params(rng: np.random.Generator, mu_sign=None, mu_min_abs=0.01):
    """A random valid parameter set, optionally with a fixed mu sign."""
    while True:
        lam = rng.uniform(0.05, 0.9)
        if mu_sign == "positive":
            mu = rng.uniform(mu_min_abs, min(0.95 - lam, 0.9))
        elif mu_sign == "negative":
            mu = -rng.uniform(mu_min_abs, max(lam - 0.01, mu_min_abs))
        else:
            mu = rng.uniform(-0.5, 0.95 - lam)
            if abs(mu) < mu_min_abs:
                continue
        if lam + mu >= 0.95 or mu <= -0.9:
            continue
        zeta = rng.uniform(0.1, 3.0)
        xi = rng.uniform(0.1, 3.0)
        r_star = zeta + rng.uniform(0.1, 5.0)
        sigma = rng.uniform(0.1, 2.0)
        return validate_params(lam, mu, zeta, xi, r_star, sigma)


def random_state(rng: np.random.Generator, p, region=None):
    """A random state, optionally constrained to one region."""
    z = rng.uniform(0.0, 50.0)
    if region is None:
        r = rng.uniform(-50.0, p.r_star + p.xi + 50.0)
    elif region == "D1":
        r = rng.uniform(-50.0, -1e-9)
    elif region == "D2":
        r = rng.uniform(0.0, p.r_star - p.zeta)
    elif region == "D3":
        r = rng.uniform(p.r_star - p.zeta, p.r_star + p.xi)
    else:
        r = rng.uniform(p.r_star + p.xi, p.r_star + p.xi + 50.0)
    return (float(r), float(z))
