"""Pure-Python reference implementations for differential testing.

The vectorized kernels in :mod:`repro.core` earn their speed with
whole-array index gymnastics that are easy to get subtly wrong; this
subpackage re-implements each primitive as straightforward, obviously-
correct Python over dictionaries and loops, using the *same* total orders
so the outputs are bit-identical.  The property-test suite runs both
implementations against random graphs and asserts exact agreement —
catching vectorization bugs that fixed unit tests would miss.
:func:`greedy_matching_ref` is the one oracle that shares no code with
its kernel: it derives the matching from the total order alone, by
sequential greedy.

These references are O(slow); never call them from the algorithm path.
"""

from repro.reference.scoring import modularity_scores_ref, conductance_scores_ref
from repro.reference.matching import locally_dominant_matching_ref
from repro.reference.greedy_matching import greedy_matching_ref
from repro.reference.contraction import contract_ref
from repro.reference.metrics import modularity_ref, coverage_ref

__all__ = [
    "modularity_scores_ref",
    "conductance_scores_ref",
    "locally_dominant_matching_ref",
    "greedy_matching_ref",
    "contract_ref",
    "modularity_ref",
    "coverage_ref",
]
