"""Module-level placement (paper Sec. V).

- :mod:`repro.core.placement.problem` — the placement instance and the
  :class:`Placement` decision object (the ``x_{m,n}`` of Eq. 4).
- :mod:`repro.core.placement.greedy` — Algorithm 1's greedy placement.
- :mod:`repro.core.placement.optimal` — exact optimum (the paper's
  "Upper" baseline): brute force at paper scale, dispatching to
  branch-and-bound by default; plus the energy-under-latency-budget
  counterpart (``energy_optimal_placement``, see ``docs/energy.md``).
- :mod:`repro.core.placement.bnb` — the branch-and-bound searches
  themselves (identical results, prune far past brute force's size cap).
- :mod:`repro.core.placement.replicas` — replica-set placement: host
  *sets* per module under cheapest-replica routing (greedy, brute, and
  exact branch-and-bound — see ``docs/placement.md``).
- :mod:`repro.core.placement.tensors` — precomputed cost and energy
  tensors shared by every solver and the serving hot path (see
  ``docs/performance.md``).
- :mod:`repro.core.placement.variants` — ablation orderings.
- :mod:`repro.core.placement.validation` — feasibility checks (Eq. 4d/4e).
"""

from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.greedy import greedy_placement, replicate_with_leftover
from repro.core.placement.optimal import energy_optimal_placement, optimal_placement
from repro.core.placement.bnb import branch_and_bound_placement, energy_branch_and_bound
from repro.core.placement.replicas import (
    replica_aware_greedy,
    replica_branch_and_bound,
    replica_brute_force,
    replica_optimal_placement,
)
from repro.core.placement.tensors import CostTensors, EnergyTensors
from repro.core.placement.validation import check_placement
from repro.core.placement.variants import (
    ascending_memory_placement,
    no_accumulation_placement,
    random_placement,
)

__all__ = [
    "Placement",
    "PlacementProblem",
    "greedy_placement",
    "replicate_with_leftover",
    "optimal_placement",
    "energy_optimal_placement",
    "branch_and_bound_placement",
    "energy_branch_and_bound",
    "replica_aware_greedy",
    "replica_branch_and_bound",
    "replica_brute_force",
    "replica_optimal_placement",
    "CostTensors",
    "EnergyTensors",
    "check_placement",
    "ascending_memory_placement",
    "no_accumulation_placement",
    "random_placement",
]
