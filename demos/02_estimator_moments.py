"""Moment diagnostics for the gradient and Hessian estimators.

Shows the variance-contraction identity for minibatch gradients under
strong growth, and the accuracy of the Gaussian-smoothing zeroth-order
estimators as a function of batch size.
"""

import numpy as np

from saddlescape import SeedStream, make_multiplicative_saddle, zo_gradient, zo_hessian
from saddlescape.estimators import grad_minibatch_trials, hess_minibatch_trials

p = make_multiplicative_saddle(d=10, neg_count=1, rho=2.0, quartic_coeff=0.0)
x = np.linspace(0.2, 1.4, 10)
gf = p.exact_grad(x)
gf2 = np.linalg.norm(gf) ** 2

print("=== minibatch gradient variance vs the (rho-1)/n1 bound ===")
for n1 in (1, 4, 16, 64):
    trials = grad_minibatch_trials(p, x, n1, 20_000, SeedStream(0).child(n1))
    measured = ((trials - gf) ** 2).sum(axis=1).mean()
    print(f"  n1={n1:3d}: measured {measured:9.4f}   bound {(2 - 1) / n1 * gf2:9.4f}")

print("\n=== zeroth-order gradient: smoothing leaves quadratics unbiased ===")
for n1 in (100, 1_000, 10_000, 100_000):
    est = zo_gradient(p, x, 1e-3, n1, SeedStream(1))
    print(f"  n1={n1:6d}: ||estimate - grad f|| = {np.linalg.norm(est.g - gf):.4f}   "
          f"({est.oracle_calls} value queries)")

print("\n=== zeroth-order Hessian: error decays like 1/sqrt(n2) ===")
p3 = make_multiplicative_saddle(d=3, neg_count=1, rho=1.0, quartic_coeff=0.0)
x3 = np.array([0.5, -0.2, 0.9])
H3 = p3.exact_hess(x3)
for n2 in (100, 1_000, 10_000):
    errs = [
        np.linalg.norm(zo_hessian(p3, x3, 1e-3, n2, SeedStream(2).child(n2, k)).H - H3)
        for k in range(30)
    ]
    print(f"  n2={n2:6d}: rms Frobenius error {np.sqrt(np.mean(np.square(errs))):.4f}")

print("\n=== second-order oracle minibatch: same scaling ===")
p5 = make_multiplicative_saddle(d=5, neg_count=1, rho=2.0, quartic_coeff=0.0)
x5 = np.linspace(0.2, 1.2, 5)
H5 = p5.exact_hess(x5)
for n2 in (10, 100, 1_000):
    trials = hess_minibatch_trials(p5, x5, n2, 200, SeedStream(3).child(n2))
    rms = np.sqrt(((trials - H5) ** 2).sum(axis=(1, 2)).mean())
    print(f"  n2={n2:5d}: rms error {rms:.4f}   (sigma2/sqrt(n2) = {p5.meta.sigma2 / np.sqrt(n2):.4f})")
