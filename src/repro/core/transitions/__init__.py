"""State-space transitions: SWA, FAC, DIS, MER, SPL (paper sections 2.2/3.3)."""

from repro.core.transitions.base import Transition
from repro.core.transitions.enumerate import candidate_transitions, successor_states
from repro.core.transitions.factorize import Distribute, Factorize, homologous
from repro.core.transitions.merge import Merge, Split, split_fully
from repro.core.transitions.swap import Swap

__all__ = [
    "Transition",
    "Swap",
    "Factorize",
    "Distribute",
    "Merge",
    "Split",
    "split_fully",
    "homologous",
    "candidate_transitions",
    "successor_states",
]
