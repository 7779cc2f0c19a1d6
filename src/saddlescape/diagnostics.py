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

    A (k, d, d) stack returns the (k,) eigenvalues and (k, d) eigenvectors,
    row i equal to the call on ``H[i]`` bit for bit: one ``eigh`` call up to
    the limit, one Lanczos run per matrix beyond it.  The checks hold per
    matrix, and the first matrix that fails one raises.  An empty stack
    returns (0,) eigenvalues and (0, d) eigenvectors; a 0 x 0 matrix has no
    eigenvalue and raises ``ConfigurationError``.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2]:
        raise ConfigurationError(f"expected a square matrix, got shape {H.shape}")
    stack = H if H.ndim == 3 else H[None]
    k, d = stack.shape[:2]
    if d == 0:
        raise ConfigurationError("a 0 x 0 matrix has no minimum eigenvalue")
    if k == 0:
        return np.empty(0), np.empty((0, d))
    transposed = stack.transpose(0, 2, 1)
    if stack.tobytes() == transposed.tobytes():
        # equal to its transpose bit for bit, as every exact Hessian here is:
        # its asymmetry is 0 and it is its own symmetrisation, so only
        # finiteness is left to check.  (A sum would screen it as fast, but
        # warns of overflow on finite entries near the float limit.)
        if not np.isfinite(stack).all():
            raise NumericalError("matrix has non-finite entries")
        sym = stack
    else:
        scale = np.abs(stack).reshape(k, -1).max(axis=1)
        if not math.isfinite(scale.max()):  # non-finite exactly when some entry is
            raise NumericalError("matrix has non-finite entries")
        # H - H.T is exactly antisymmetric, so its largest entry is its largest magnitude
        asym = (stack - transposed).reshape(k, -1).max(axis=1)
        if (asym > 1e-10 * np.maximum(scale, 1.0)).any():
            raise ConfigurationError("matrix is not symmetric within tolerance")
        # a stack that differs from its transpose only by +-0.0 is its own symmetrisation
        sym = 0.5 * (stack + transposed) if asym.any() else stack
    if d <= DENSE_EIG_LIMIT:
        w, v = np.linalg.eigh(sym)
        lam, vec = w[:, 0], v[:, :, 0].copy()
        norm = np.maximum(-lam, w[:, -1])  # ||H||_2 from the ends of the ascending spectrum
    else:
        from scipy.sparse.linalg import eigsh

        v0 = np.cos(np.arange(d, dtype=np.float64))  # deterministic start
        lam, vec, norm = np.empty(k), np.empty((k, d)), np.empty(k)
        for i, S in enumerate(sym):
            w, v = eigsh(S, k=1, which="SA", v0=v0, tol=1e-12)
            lam[i], vec[i] = w[0], v[:, 0]
            # ||H||_2 is the largest |eigenvalue|: one more Lanczos run, not an SVD
            norm[i] = abs(eigsh(S, k=1, which="LM", v0=v0, tol=1e-12, return_eigenvectors=False)[0])
    # one dot per row: v @ v, as np.linalg.norm(v) rounds
    vec /= np.sqrt(np.vecdot(vec, vec))[:, None]
    r = (stack @ vec[:, :, None])[:, :, 0]
    r -= lam[:, None] * vec
    resid = np.sqrt(np.vecdot(r, r))
    over = resid > 1e-8 * np.maximum(norm, 1e-300)
    if over.any():
        raise NumericalError(f"eigenpair residual {resid[over.argmax()]:.3e} exceeds 1e-8 * ||H||")
    return (float(lam[0]), vec[0]) if H.ndim == 2 else (lam, vec)


def certify(p: StochasticProblem, x, epsilon: float, *, grad_norm=None,
            lambda_min=None) -> SospCertificate:
    """Certify x against the epsilon-local-minimizer definition (exact oracles).

    ``grad_norm`` and ``lambda_min``, given together, are the floats
    ||grad f(x)|| and lambda_min(hess f(x)), computed by the caller with
    those of other points (``psgd._certify_points``); certify then checks
    and scores them without calling numpy.  Without them certify calls the
    exact oracles at x itself.  A non-finite gradient entry or eigenvalue
    raises ``NumericalError``: the score's ``max`` would keep its first
    argument past a NaN and could certify any point.  A given NaN norm
    stands for a gradient with a non-finite entry and raises the same error;
    an infinite norm, the square of finite entries overflowing, is scored
    and never certified.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigurationError(f"epsilon must be finite and positive, got {epsilon}")
    if not p.meta.L_H > 0:
        raise ConfigurationError("certification needs metadata L_H > 0")
    if (grad_norm is None) != (lambda_min is None):
        raise ConfigurationError("certify needs both grad_norm and lambda_min, or neither")
    if grad_norm is None:
        x = np.asarray(x, dtype=np.float64)
        g = np.ascontiguousarray(p.exact_grad(x), dtype=np.float64)
        lambda_min, _ = min_eigenvalue(p.exact_hess(x))
        grad_norm = math.sqrt(g @ g)
        # a finite norm screens the entries; an overflowing one leaves it to isfinite
        if not (math.isfinite(grad_norm) or np.isfinite(g).all()):
            grad_norm = math.nan
    grad_norm, lam = float(grad_norm), float(lambda_min)
    if not grad_norm >= 0:
        if math.isnan(grad_norm):
            raise NumericalError("certify got a non-finite gradient")
        raise ConfigurationError(f"grad_norm must be non-negative, got {grad_norm}")
    if not math.isfinite(lam):
        raise NumericalError(f"certify got a non-finite lambda_min ({lam})")
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
