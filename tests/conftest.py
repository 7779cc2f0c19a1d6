import dataclasses
import functools
import threading

import numpy as np
import pytest

from saddlescape.problems import StochasticProblem, make_multiplicative_saddle


WATCHDOG_S = 60  # each watched test takes a few seconds at most


def watched(test):
    """Run ``test`` on a helper thread and fail it if it is still running
    after WATCHDOG_S: a broken hand-off with the zeroth-order direction
    producer blocks a multi-block batch instead of raising.  Every test
    that runs a batch of two or more direction blocks wears it."""
    @functools.wraps(test)
    def watched_test(*args, **kwargs):
        raised = []

        def body():
            try:
                test(*args, **kwargs)
            except BaseException as exc:  # raised again in the test's thread
                raised.append(exc)

        helper = threading.Thread(target=body, name=f"watched-{test.__name__}", daemon=True)
        helper.start()
        helper.join(WATCHDOG_S)
        if helper.is_alive():
            pytest.fail(f"{test.__name__} still running after {WATCHDOG_S} s", pytrace=False)
        if raised:
            raise raised[0]
    return watched_test


class OracleCounter:
    """Counts sample_* invocations (one per seed) behind a wrapped problem."""

    def __init__(self):
        self.value = 0
        self.grad = 0
        self.hess = 0

    @property
    def total(self):
        return self.value + self.grad + self.hess


def counting_problem(p: StochasticProblem):
    """Wrap a problem so every oracle invocation is tallied per sample."""
    counter = OracleCounter()

    def value_batch(points, seeds):
        counter.value += len(seeds)
        return p.sample_value_batch(points, seeds)

    grad_batch = None
    if p.has_grad_oracle:
        def grad_batch(points, seeds):
            counter.grad += len(seeds)
            return p.sample_grad_batch(points, seeds)

    hess_batch = None
    if p.has_hess_oracle:
        def hess_batch(points, seeds):
            counter.hess += len(seeds)
            return p.sample_hess_batch(points, seeds)

    wrapped = dataclasses.replace(
        p,
        sample_value_batch=value_batch,
        sample_grad_batch=grad_batch,
        sample_hess_batch=hess_batch,
    )
    return wrapped, counter


def constant_problem(d: int, value: float = 3.25) -> StochasticProblem:
    """F(x, xi) == value for every x and seed (degenerate test oracle)."""
    base = make_multiplicative_saddle(d=d, neg_count=1, rho=1.0, quartic_coeff=0.0)

    def value_batch(points, seeds):
        return np.full(len(seeds), value)

    return dataclasses.replace(
        base,
        name=f"constant({value})",
        exact_value=lambda x: value if np.ndim(x) == 1 else np.full(len(x), value),
        exact_grad=lambda x: np.zeros(np.shape(x)),
        exact_hess=lambda x: np.zeros(np.shape(x) + (d,)),
        sample_value_batch=value_batch,
        sample_grad_batch=None,
        sample_hess_batch=None,
    )


@pytest.fixture
def quad_saddle_2d():
    """Deterministic 2-d quadratic saddle (rho = 1, no quartic)."""
    return make_multiplicative_saddle(d=2, neg_count=1, rho=1.0, quartic_coeff=0.0)


@pytest.fixture
def sgc_saddle_10d():
    """The benchmark instance: d=10, rho=2, quartic-regularized."""
    return make_multiplicative_saddle(d=10, neg_count=1, rho=2.0, quartic_coeff=0.008)
