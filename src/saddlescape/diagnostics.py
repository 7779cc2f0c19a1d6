"""Ground-truth certification of approximate local minimizers.

A point is an epsilon-local minimizer when

    max( sqrt(||grad f(x)||), -lambda_min(hess f(x)) / L_H ) <= sqrt(epsilon)

with derivatives of the *expected* function f and the problem's declared
Hessian-Lipschitz constant.  Certification therefore runs on the exact
oracles only and consumes no stochastic budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError, NumericalError
from .problems import StochasticProblem

DENSE_EIG_LIMIT = 512  # above this, fall back to an iterative eigensolver


@dataclass(frozen=True)
class SospCertificate:
    """Second-order stationarity score of a single point."""

    grad_norm: float
    lambda_min: float
    epsilon: float
    certified: bool
    score: float


@dataclass
class TraceRow:
    t: int
    f: float
    grad_norm: float
    lambda_min: float
    oracle_calls: int
    certified: bool
    h_norm: Optional[float] = None
    model_decrease: Optional[float] = None


@dataclass
class RunTrace:
    """Per-iteration diagnostics of one optimizer run.

    ``rows`` hold only the certified checkpoints (every ``certify_every``
    steps); ``total_oracle_calls`` is the full budget consumed by the run.
    For cubic-Newton runs, ``r_index`` is the uniformly drawn iterate of the
    in-expectation guarantee with its certificate and the budget consumed up
    to it.
    """

    seed: int
    algorithm: str
    config_echo: str
    rows: List[TraceRow] = field(default_factory=list)
    total_oracle_calls: int = 0
    r_index: Optional[int] = None
    r_certificate: Optional[SospCertificate] = None
    r_oracle_calls: Optional[int] = None

    def append(self, row: TraceRow) -> None:
        if self.rows:
            if row.t <= self.rows[-1].t:
                raise EvaluationError("trace rows must be ordered by t")
            if row.oracle_calls < self.rows[-1].oracle_calls:
                raise EvaluationError("oracle_calls must be nondecreasing")
        self.rows.append(row)

    def echo(self, key: str) -> str:
        """Value of the ``key = value`` line of ``config_echo``."""
        for line in self.config_echo.splitlines():
            name, sep, value = line.partition(" = ")
            if sep and name == key:
                return value
        raise ConfigurationError(f"trace config echo has no {key!r} line")

    def first_certified_calls(self) -> Optional[int]:
        """Oracle calls consumed up to the first certified row, if any."""
        for row in self.rows:
            if row.certified:
                return row.oracle_calls
        return None


def min_eigenvalue(H: np.ndarray):
    """Minimum eigenvalue and unit eigenvector of a symmetric matrix.

    Dense decomposition up to ``DENSE_EIG_LIMIT``; Lanczos with a
    deterministic start vector beyond that.  The returned pair satisfies
    ``||H v - lambda v|| <= 1e-8 ||H||``.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise NumericalError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(H).max()))
    # H - H.T is exactly antisymmetric, so its largest entry is its largest magnitude
    if float((H - H.T).max()) > 1e-10 * scale:
        raise ConfigurationError("matrix is not symmetric within tolerance")
    d = H.shape[0]
    if d <= DENSE_EIG_LIMIT:
        w, v = np.linalg.eigh(0.5 * (H + H.T))
        lam, vec = float(w[0]), v[:, 0].copy()
        norm = max(-lam, float(w[-1]))  # ||H||_2 from the ends of the ascending spectrum
    else:
        from scipy.sparse.linalg import eigsh

        v0 = np.cos(np.arange(d, dtype=np.float64))  # deterministic start
        w, v = eigsh(0.5 * (H + H.T), k=1, which="SA", v0=v0, tol=1e-12)
        lam, vec = float(w[0]), v[:, 0].copy()
        norm = float(np.linalg.norm(H, 2))
    # math.sqrt(v @ v) is np.linalg.norm(v) for a contiguous vector
    vec = vec / math.sqrt(vec @ vec)
    r = H @ vec - lam * vec
    resid = math.sqrt(r @ r)
    if resid > 1e-8 * max(norm, 1e-300):
        raise NumericalError(f"eigenpair residual {resid:.3e} exceeds 1e-8 * ||H||")
    return lam, vec


def certify(p: StochasticProblem, x, epsilon: float) -> SospCertificate:
    """Certify x against the epsilon-local-minimizer definition (exact oracles)."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigurationError(f"epsilon must be finite and positive, got {epsilon}")
    if p.meta.L_H <= 0:
        raise ConfigurationError("certification needs metadata L_H > 0")
    x = np.asarray(x, dtype=np.float64)
    g = np.ascontiguousarray(p.exact_grad(x), dtype=np.float64)
    grad_norm = math.sqrt(g @ g)
    lam, _ = min_eigenvalue(p.exact_hess(x))
    score = max(math.sqrt(grad_norm), -lam / p.meta.L_H)
    return SospCertificate(
        grad_norm=grad_norm,
        lambda_min=lam,
        epsilon=float(epsilon),
        certified=bool(score <= math.sqrt(epsilon)),
        score=float(score),
    )


def sosp_fraction(trace: RunTrace, burn_in_fraction: float) -> float:
    """Fraction of certified rows after discarding the burn-in prefix."""
    if not 0.0 <= burn_in_fraction <= 0.9:
        raise ConfigurationError(f"burn_in_fraction must be in [0, 0.9], got {burn_in_fraction}")
    if not trace.rows:
        raise EvaluationError("trace has no rows")
    t_final = trace.rows[-1].t
    cutoff = burn_in_fraction * t_final
    window = [row for row in trace.rows if row.t >= cutoff]
    if not window:
        raise EvaluationError("no rows remain after burn-in")
    return sum(row.certified for row in window) / len(window)
