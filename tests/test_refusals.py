"""Typed refusals that no other test reaches: each call raises its error with its message.

Every row is a call, the ``DtsError`` subclass it must raise and a fragment of
its message, so a refusal that moves, changes type or stops firing fails here.
"""

import pytest

from dtslearn import (
    ArmSpec,
    InputError,
    ParseError,
    Partition,
    PreconditionError,
    StateMap,
    TransitionSystem,
    are_isomorphic,
    couple,
    greatest_bisimulation,
    greatest_bisimulation_pairwise,
    is_refinement,
    is_sufficient,
    join_partitions,
    make_arm,
    make_cycle,
    make_line,
    make_random,
    msr,
    msr_bruteforce,
    parse_dts,
    pushforward,
    to_dot,
    with_induced_labels,
)
from dtslearn.envs import MAX_STATES

LINE = make_line(4)
ID3, ID4 = Partition.identity(3), Partition.identity(4)
TRANS = "trans 0 a 0\ntrans 1 a 1\n"


def dts(header):
    return parse_dts("dts\n" + header + TRANS)


def system(**fields):
    base = dict(n_states=2, n_actions=1, action_names=("a",), delta=((0,), (1,)))
    return TransitionSystem(**{**base, **fields})


def unreachable_internal_state():
    # internal state 1 has no way in from state 0, so the coupling never labels it
    blank = make_cycle(4, pointed=False)
    internal = TransitionSystem.from_tables(blank.action_names, [[0, 0], [1, 1]])
    return with_induced_labels(couple(blank, internal, 0, 0))


REFUSALS = {
    # parse_dts
    "states line": (lambda: dts("states\nactions a\n"), ParseError, "line 2: expected 'states N'"),
    "zero states": (lambda: dts("states 0\nactions a\n"), ParseError, "need at least one state"),
    "no actions line": (lambda: dts("states 2\ninit 0\n"), ParseError,
                        "line 3: expected 'actions' followed by action names"),
    "duplicate actions": (lambda: dts("states 2\nactions a a\n"), ParseError,
                          "action names must be distinct"),
    "label count": (lambda: dts("states 2\nactions a\nlabels x\n"), ParseError,
                    "line 4: expected one label per state (2)"),
    "init line": (lambda: dts("states 2\nactions a\ninit 0 1\n"), ParseError,
                  "line 4: expected 'init K'"),
    "init range": (lambda: dts("states 2\nactions a\ninit 2\n"), ParseError,
                   "line 4: initial state 2 is out of range"),
    # core
    "empty action name": (lambda: system(n_states=1, action_names=("",), delta=((0,),)),
                          InputError, "action names must be non-empty"),
    "labels per state": (lambda: system(labels=(0,), label_names=("x",)), InputError,
                         "labels must assign a value to every state"),
    "duplicate label names": (lambda: system(labels=(0, 1), label_names=("x", "x")),
                              InputError, "label names must be pairwise distinct"),
    "empty label name": (lambda: system(labels=(0, 0), label_names=("",)), InputError,
                         "label names must be non-empty"),
    "from_tables labels": (lambda: TransitionSystem.from_tables(("a",), [[0]], ["x", "y"]),
                           InputError, "state_labels must name one label per state"),
    "label_name_of unlabeled": (lambda: LINE.unlabeled().label_name_of(0), InputError,
                                "system is unlabeled"),
    "compose sizes": (lambda: StateMap(2, 2, (0, 1)).compose(StateMap(3, 3, (0, 1, 2))),
                      InputError, "sizes do not compose"),
    "inverse": (lambda: StateMap(2, 2, (0, 0)).inverse(), InputError,
                "only bijections can be inverted"),
    "no anchors": (lambda: are_isomorphic(system(), system()), InputError,
                   "anchored comparison needs initial states or explicit anchors"),
    # partitions over other state sets
    "join_partitions": (lambda: join_partitions(3, [ID3, ID4]), InputError,
                        "partitions are over different state sets"),
    "is_refinement": (lambda: is_refinement(ID3, ID4), InputError,
                      "partitions are over different state sets"),
    "pushforward": (lambda: pushforward(StateMap(3, 3, (0, 1, 2)), ID4), InputError,
                    "partition is not over the map's source"),
    "is_sufficient": (lambda: is_sufficient(LINE, ID3), InputError,
                      "partition is not over the system's states"),
    "msr": (lambda: msr(LINE, ID3), InputError, "partition is not over the system's states"),
    "msr_bruteforce": (lambda: msr_bruteforce(LINE, ID3), InputError,
                       "partition is not over the system's states"),
    # envs
    "make_line size": (lambda: make_line(MAX_STATES + 1), InputError,
                       f"refusing to build more than {MAX_STATES} states"),
    "make_cycle size": (lambda: make_cycle(MAX_STATES + 1), InputError,
                        f"refusing to build more than {MAX_STATES} states"),
    "make_arm grid": (lambda: make_arm(ArmSpec(3, 100, frozenset(), (0, 0, 0))), InputError,
                      f"refusing to build more than {MAX_STATES} states"),
    # 317^2 = 100,489 configurations: under the grid bound, over the state bound
    "make_arm free": (lambda: make_arm(ArmSpec(2, 317, frozenset(), (0, 0))), InputError,
                      f"refusing to build more than {MAX_STATES} states"),
    "obstacle joints": (lambda: ArmSpec(2, 5, frozenset({(1, 2, 3)}), (0, 0)), InputError,
                        "configuration (1, 2, 3) has the wrong number of joints"),
    "make_random empty": (lambda: make_random(0, 1, 0), InputError,
                          "need at least one state and one action"),
    # coupling
    "unreachable internal": (unreachable_internal_state, PreconditionError,
                             "internal states [1] are unreachable in the coupling"),
    "bisimulation alphabets": (lambda: greatest_bisimulation(LINE, make_cycle(4)), InputError,
                               "action alphabets differ"),
    # 257 · 256 = 65,792 pairs, over the cap of 65,536: refused before any flag is allocated
    "pairwise bisimulation size": (
        lambda: greatest_bisimulation_pairwise(make_line(257), make_line(256)), InputError,
        "the pairwise fixpoint is limited to 2^16 state pairs"),
    # fileio
    "to_dot partition": (lambda: to_dot(LINE, ID3), InputError,
                         "partition is not over the system's states"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)
