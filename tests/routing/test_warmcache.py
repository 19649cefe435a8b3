"""The warm solver cache changes no simulated result (DESIGN.md §12).

``fig4_sweep.run(reuse_solver=True)`` shares one
:class:`~repro.routing.warmcache.SolverCache` across its grid points, and
every ``cluster-static`` benchmark run routes through it; a hit must give
the rows a fresh solve gives.
"""

import pytest

from repro.experiments import fig4_sweep

SWEEP = dict(rates=(10.0, 20.0, 40.0), n_sensors=30, n_cycles=3, seed=4)


def _outcome(rows: list[dict]) -> list[tuple]:
    return [
        (row["energy_j"].hex(), row["delivered"], row["vector_slots"], row["scalar_slots"])
        for row in rows
    ]


@pytest.mark.parametrize("backup_k", [0, 1])
def test_reused_solves_give_the_rows_fresh_solves_give(backup_k):
    cached = fig4_sweep.run(**SWEEP, reuse_solver=True, backup_k=backup_k)
    fresh = fig4_sweep.run(**SWEEP, reuse_solver=False, backup_k=backup_k)
    assert _outcome(cached) == _outcome(fresh)
    # The first rate solves; each later rate routes from the cache.
    assert [row["solver_hits"] for row in cached] == [0, 1, 2]
