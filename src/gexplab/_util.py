"""Small shared helpers: seeding and worker pools."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Fixed purpose tags so every component derives an independent, reproducible
# stream from one master seed.
SEED_DRIVER = 11
SEED_HUNT = 23
SEED_SCHEDULES = 37
SEED_PROPERTY = 53


def child_seed(master_seed: int, purpose: int, index: int = 0) -> int:
    """Deterministic sub-seed for a named purpose under a master seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(purpose, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving input order; thread pool only when threads > 1.

    Workers must write disjoint state; reductions stay with the caller so
    results are bit-reproducible regardless of the thread count.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
