"""Finite deterministic transition systems and what a blind agent can learn of them.

The package covers the full loop: represent finite deterministic transition
systems, refine partitions of their states to congruences, build quotients,
couple internal models to environments, decide surprise and bisimulation,
and reconstruct an environment up to isomorphism from action-observation
histories alone.
"""

from .core import (
    CheckError,
    DtsError,
    InputError,
    NotConnectedError,
    PreconditionError,
    StateMap,
    TransitionSystem,
    are_isomorphic,
    canonical_form,
    is_homomorphism,
    is_minimally_distinguishing,
    is_strongly_connected,
    star,
)
from .partitions import (
    Partition,
    fiber_partition,
    generated_closure,
    is_map_closed,
    is_refinement,
    is_sufficient,
    join_partitions,
    msr,
    msr_bruteforce,
    partition_from_labels,
    pointed_classes,
    pullback,
    pushforward,
    quotient,
)
from .coupling import (
    ProductSystem,
    are_bisimilar,
    couple,
    diamond,
    greatest_bisimulation,
    greatest_bisimulation_pairwise,
    has_nontrivial_autobisimulation,
    induced_label,
    is_surpriseless,
    with_induced_labels,
)
from .observations import BuildReport, EnvOracle, HistoryTrie
from .learner import (
    LearnReport,
    VerifyReport,
    bounded_indistinguishability,
    build_model,
    explore,
    learn,
    verify_learned,
)
from .envs import (
    ArmSpec,
    GenerationError,
    SplitMix64,
    make_arm,
    make_cycle,
    make_line,
    make_random,
)
from .fileio import (
    ParseError,
    parse_dts,
    parse_obstacles,
    parse_partition,
    to_dot,
    trie_to_dot,
    write_dts,
    write_partition,
)

__version__ = "0.1.0"
