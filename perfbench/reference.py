"""Reference process: a fixed amount of work that does not use gexplab.

Usage: python reference.py

``run.py`` runs it right before every timed ``run-suite`` process and divides
the operation's wall time by this one's, so the ratio ``wall_rel`` cancels
the host's speed, which drifts by up to half over minutes on a shared
machine.  It imports the third-party modules the package imports and runs
a mix of what the package does with them: sparse LU solves, small Cholesky
regressions, einsum and elementwise passes over ensemble-sized arrays, and
pure-Python row formatting.  Nothing here may change between two commits
that are compared, or the ratio would move with it.
"""

import json

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import norm


def work() -> float:
    rng = np.random.default_rng(20260808)
    n = 257
    lap = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1]) * n * n
    solve = spla.splu((sp.identity(n) - 1e-4 * lap).tocsc()).solve
    u = np.exp(-np.outer(np.linspace(-4.0, 4.0, n) ** 2, np.linspace(0.5, 1.5, 8)))
    for _ in range(4000):
        u = solve(u + 1e-4 * np.tanh(u))

    basis = rng.standard_normal((3000, 6))
    gram = sla.cho_factor(basis.T @ basis)
    total = 0.0
    for i in range(900):
        total += float(sla.cho_solve(gram, basis.T @ np.sin(basis[:, i % 6] + i))[0])

    z = rng.standard_normal((24000, 8, 2))
    sigma = rng.standard_normal((8, 2, 2))
    for _ in range(3):
        z = np.tanh(np.einsum("nwd,wdk->nwk", z, sigma)) + 0.1 * norm.cdf(z)

    rows = [{"name": f"row[{i}]", "value": float(v), "passed": bool(v > 0)}
            for i, v in enumerate(np.sin(np.arange(15000)))]
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return float(u.sum() + total + z.mean()) + len(text)


if __name__ == "__main__":
    print(work())
