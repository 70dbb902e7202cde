"""The pruned search's outputs, pinned.

Every winner (scheme, replication, stationary, simulated time bit for bit)
and every work count of ``search_partitionings`` on fixed workloads.  The
bounds only decide what is skipped, so a change to how (or how lazily) they
are computed must leave every pinned value as it is: a different visit order
would show as a different ``num_refined`` or ``num_simulated`` even where the
winners agree.
"""

import pytest

from repro.bench.workloads import (
    attention_workload,
    block_sparse_workload,
    mlp1_workload,
    mlp2_workload,
    moe_workload,
    tall_skinny_workload,
)
from repro.core.config import ExecutionConfig
from repro.planner.search import search_partitionings
from repro.topology.machines import h100_system, pvc_system, uniform_system

NO_CACHE = ExecutionConfig(simulate_only=True, cache_remote_tiles=False,
                           prefetch_depth=2)

#: name -> (machine, workload, top_k, config, winners, (candidates, simulated,
#: refined, pruned)).  Winners are (scheme, replication, stationary,
#: simulated time); the times are exact float literals.
PINNED = {
    "attn_uniform8_k1": (
        lambda: uniform_system(8), lambda: attention_workload(1024), 1, None,
        [("block", (8, 8, 1), "C", 2.4633110260869567e-05)],
        (288, 3, 4, 285)),
    "attn_pvc12_k3": (
        lambda: pvc_system(12), lambda: attention_workload(2048), 3, None,
        [("block", (12, 12, 1), "C", 2.9192157656579202e-05),
         ("outer", (12, 12, 1), "C", 2.9192157656579202e-05),
         ("traditional", (12, 12, 1), "C", 2.9192157656579202e-05)],
        (648, 3, 3, 645)),
    "mlp1_pvc12_k1": (
        lambda: pvc_system(12), lambda: mlp1_workload(1024), 1, None,
        [("column", (12, 12, 1), "A", 0.005389328603715763)],
        (648, 6, 6, 642)),
    "mlp2_h100_k3": (
        lambda: h100_system(8), lambda: mlp2_workload(512), 3, None,
        [("column", (8, 8, 1), "A", 0.001494506414432187),
         ("column", (8, 8, 1), "C", 0.001494506414432187),
         ("block", (8, 8, 1), "A", 0.001494506414432187)],
        (288, 6, 6, 282)),
    "mlp1_h100_k3": (
        lambda: h100_system(8), lambda: mlp1_workload(256), 3, None,
        [("column", (8, 8, 1), "A", 0.0008218051040103828),
         ("column", (8, 8, 1), "C", 0.0008218051040103828),
         ("block", (8, 8, 1), "A", 0.0008218051040103828)],
        (288, 6, 6, 282)),
    "tallskinny_uniform8_k1": (
        lambda: uniform_system(8), lambda: tall_skinny_workload(65536), 1, None,
        [("row", (8, 8, 1), "B", 0.0001244757815652174)],
        (288, 4, 4, 284)),
    "bsparse_uniform4_k3": (
        lambda: uniform_system(4),
        lambda: block_sparse_workload(2048, 4096, 4096, density=0.25, block_k=512,
                                      block_n=512, seed=3), 3, None,
        [("row", (4, 4, 1), "B", 0.00030345317286956526),
         ("row", (4, 4, 1), "C", 0.00030345317286956526),
         ("outer", (4, 4, 1), "C", 0.0003248102511304348)],
        (162, 4, 6, 158)),
    "moe_pvc12_k1": (
        lambda: pvc_system(12),
        lambda: moe_workload(4, 512, 2048, 1024, expert_tokens=[512, 40, 300, 7]),
        1, None,
        [("column", (12, 12, 1), "A", 4.31382530227892e-05)],
        (648, 4, 4, 644)),
    "mlp2_pvc12_nocache_k3": (
        lambda: pvc_system(12), lambda: mlp2_workload(2048), 3, NO_CACHE,
        [("column", (12, 12, 1), "A", 0.01085810337636468),
         ("column", (12, 12, 1), "C", 0.01085810337636468),
         ("block", (12, 12, 1), "A", 0.01085810337636468)],
        (648, 6, 6, 642)),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_search_outputs_are_pinned(name):
    machine, workload, top_k, config, winners, counts = PINNED[name]
    recommendations, stats = search_partitionings(machine(), workload(), top_k=top_k,
                                                  config=config)
    assert [(r.scheme.name, r.replication, r.stationary, r.simulated_time)
            for r in recommendations] == winners
    assert (stats.num_candidates, stats.num_simulated, stats.num_refined,
            stats.num_pruned) == counts
    # Every simulated or refined candidate had its table built, and a
    # built table is never built twice.
    assert stats.num_simulated <= stats.num_built <= stats.num_candidates
    assert stats.num_refined <= stats.num_built
