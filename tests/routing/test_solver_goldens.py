"""Golden digests of the routing solvers' outputs on 36 seeded clusters.

Each digest is a SHA-256 over the canonical repr of everything the min-max
solver and the backup sweep return for one cluster: the plain and the
energy-aware solve (``max_load``, ``loads``, ``capacities``,
``flow_paths`` and the three :class:`SolveStats` counts) and, for each of
the two solutions, ``compute_backup_routes`` at k = 1 and k = 2
(``backups`` and ``primary_interiors``).  A refactor of the flow network,
the probe search or the path walker that changes any output, or the
number of builds, probes or max-flow solves, changes a digest.

Regenerate a digest with ``solver_digest(n, seed)`` only when a change
is meant to move the solver's output, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.routing import compute_backup_routes, solve_min_max_load
from repro.topology import Cluster, uniform_square

GOLDEN = {
    (10, 0): "0d1e012c9e50f69e73690a9d3b5886262d451b20fcca8dca25ae86141d5a1af5",
    (10, 1): "d65d3701a80106d04dce04df6b2df68d80311f26dfcd6ec9b34bbb477faafd09",
    (10, 2): "c07f71ac6e404708ce0aab583ca2f5f8ed2f49837a0af450875cf5517b985200",
    (10, 3): "4ac6d33456ac573d2486f07b63525b32cdf059dae1e044041d3b726533f262b4",
    (10, 4): "1fb74c4a441ee5aca50a13c6f26961d32fd4b9422e886e4198234cfa4d1c3e89",
    (10, 5): "56ebe62303aab7031353261eddc953b2271dabeab8b38d1d8a16034e8336a0c6",
    (10, 6): "a256b6382bd7719273c1dd90dc356bdf5cd7137b103114e7c8964a91c9b83e28",
    (10, 7): "b9e7079538dbf0875d80840ee03c6cfbb2146c05b9e3a8710807706e38ce37a1",
    (10, 8): "fa925343388a6b7a05d3168f6a6e73307ac56bc452c7fd1a4288d8295c6628ef",
    (10, 9): "9c1b80613af5368d106529742f214d2a7fc053adfd3d62b0e0903ee300a2e8d7",
    (10, 10): "2584d77b4c19d0bf9ba3a450f52b3cf7467c5c0c364fae66f59fdb227d974d28",
    (10, 11): "163461ee96fd9a5f34aaf224e8f9771195acd178d4f3c9f3145a447bc2487c20",
    (30, 0): "dd04c1fa31095cc632c00e35c6b71f92b39b4994ed32281fbb624e4edc3037a4",
    (30, 1): "e35e14321de0e395f939e399783f4606d7d55ef3ff2c8102ad72fe9d892fadf2",
    (30, 2): "4367c55dc527ef5a0918367ca6062b0e38d052370ae505419893887d538bbe1e",
    (30, 3): "20875e1a91a1014426cc6b6aaca753c0b3ec63c4ed38f193567657f0ae05f7df",
    (30, 4): "f59daaad957e8d62a72c90b4e3adf48efc31313875db11c2fabf61979d7afad7",
    (30, 5): "5d15e5494096a552863f31fc81ea596e487eb02ea7d8c70a5920bf664ab670dd",
    (30, 6): "a613551762f65762084d53776c5c865c9857f4601babbd578f18ba6893451f56",
    (30, 7): "c9df439da0e0d268c92db6312be8dbe3800e82248a7694ac2a35dfb16f812e32",
    (30, 8): "6c82e991146fede634e65bc35d30309db9113cb0b05a2ffd7123e7d78589bb55",
    (30, 9): "c4be2056d343ee130dad8039638245213c073f5bb6924bb547cfcb8840e22b18",
    (30, 10): "7fc0e6147aa3f26ca150bb2c70ea6790c60b1d7f2af07062631e08b16e124c37",
    (30, 11): "c85de8f7b58dfb8e837da910f827d6181aba6ed7369c57141329e0b91b8a1b1d",
    (60, 0): "af9cfeb67974f6fb0a47b8047d2da041bfea03d18772c645d6b4e33db0b821af",
    (60, 1): "93c579903796f4c043c4058e791e591633381be2a533eec5f96101441d398132",
    (60, 2): "3c66cb370401a8fa75a6a8a3c0f4549965de0aa99110881007bce00e9e3495af",
    (60, 3): "4e622a24f061cec7ea4ee07725a296705181b3f41dfb66d5120857d45c341abe",
    (60, 4): "36f05472c697b1fea4c82b9858448e16ce881ade64957c0937f0b96519ae9dfa",
    (60, 5): "68314045a0c6bed1544d7b6f816959d5001bec71788b26b74db462638fc53e5c",
    (60, 6): "680be240cc6e13c5a75b8b7aa8ea8f4ff048a44bc1890dad4586dbcfd6184104",
    (60, 7): "8def9f9800789f4962bb46466fb407418686ba3b0af13013d625e0ddff974a14",
    (60, 8): "58e0a1f953948835b749e6014a3edb91c4485dedf90c06c1b6bc4b8899dcc072",
    (60, 9): "7c9aedb119ffdb8f3c72c68333475c5e2378e9967f5c0287b65e4b231f2285fe",
    (60, 10): "3b3dbf73b33efba2634fc3889ab81c562075426ff6b46678082336e589c63f18",
    (60, 11): "9a44c7213b9fc82991aa1dfd52dbffdb19adf8f53b2ff7d2462d3b8c1c631b2a",
}


def golden_cluster(n: int, seed: int) -> Cluster:
    """A seeded cluster with 0–3 packets and energy in [0.3, 1) per sensor."""
    dep = uniform_square(n, seed=seed)
    rng = np.random.default_rng(seed)
    packets = rng.integers(0, 4, size=n)
    c = Cluster.from_deployment(dep).with_packets(packets)
    c.energy[:] = rng.uniform(0.3, 1.0, size=n)
    return c


def _paths(paths) -> tuple:
    return tuple(tuple(int(node) for node in path) for path in paths)


def solver_outputs(cluster: Cluster) -> list:
    """The canonical, hashable view of every solver output on *cluster*."""
    out = []
    for energy_aware in (False, True):
        sol = solve_min_max_load(cluster, energy_aware=energy_aware)
        out.append(
            (
                energy_aware,
                repr(sol.max_load),
                [int(x) for x in sol.loads],
                [int(x) for x in sol.capacities],
                sorted(
                    (int(s), [(_paths([p])[0], int(u)) for p, u in alts])
                    for s, alts in sol.flow_paths.items()
                ),
                (sol.stats.builds, sol.stats.probes, sol.stats.max_flow_calls),
            )
        )
        for k in (1, 2):
            routes = compute_backup_routes(sol, k)
            out.append(
                (
                    k,
                    sorted((int(s), _paths(b)) for s, b in routes.backups.items()),
                    sorted(
                        (int(s), sorted(int(x) for x in nodes))
                        for s, nodes in routes.primary_interiors.items()
                    ),
                )
            )
    return out


def solver_digest(n: int, seed: int) -> str:
    canonical = repr(solver_outputs(golden_cluster(n, seed)))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("n,seed", sorted(GOLDEN))
def test_solver_outputs_match_golden(n, seed):
    assert solver_digest(n, seed) == GOLDEN[(n, seed)]
