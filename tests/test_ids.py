"""The id rule: every state, action, node, depth and count argument is read by
``operator.index``, so numpy integers act as ints, and anything else, or an id
out of range, raises ``InputError``."""

import numpy as np
import pytest

from dtslearn import (
    ArmSpec,
    EnvOracle,
    InputError,
    Partition,
    SplitMix64,
    StateMap,
    TransitionSystem,
    are_bisimilar,
    are_isomorphic,
    bounded_indistinguishability,
    build_model,
    canonical_form,
    couple,
    diamond,
    explore,
    generated_closure,
    join_partitions,
    learn,
    make_cycle,
    make_line,
    parse_obstacles,
    star,
    verify_learned,
)

LINE = make_line(4)
MODEL = learn(LINE, 0, 12)[0]
TRIE = explore(LINE, 0, 2)  # 7 nodes; nodes 3..6 are leaves
DEEP = explore(LINE, 0, 6)
PROD = couple(LINE, LINE, 0, 0)
BLOCKS = Partition.from_block_of([0, 1, 1])


def _oracle_walk(x0):
    return EnvOracle(LINE, x0).walk([1, 1])


def _started(sessions):
    oracle = EnvOracle(LINE, 0)
    return oracle.start(sessions).tolist(), oracle.resets


def _learned(env, x0, max_depth, min_depth=2):
    model, report = learn(env, x0, max_depth, min_depth=min_depth)
    return model, report.depth_converged, [a.resets for a in report.attempts]


def _arm(joints=2, resolution=6, obstacle=(1, 1), click=(0, 0)):
    return ArmSpec(joints, resolution, frozenset({obstacle}), click)


# name: (call with the argument under test, a valid value, further bad values
# beyond a non-integral float, an integral float, a string and None)
CASES = {
    "star state": (lambda v: star(LINE, v, [1]), 2, (-1, 4)),
    "star action": (lambda v: star(LINE, 0, [1, v]), 1, (-1, 2)),
    "canonical_form anchor": (lambda v: canonical_form(LINE, v), 1, (-1, 4)),
    "are_isomorphic anchor_a": (lambda v: are_isomorphic(LINE, LINE, anchor_a=v), 0, (-1, 4)),
    "are_isomorphic anchor_b": (lambda v: are_isomorphic(LINE, LINE, anchor_b=v), 0, (-1, 4)),
    "label_name_of": (lambda v: LINE.label_name_of(v), 0, (-1, 4)),
    "from_tables delta": (lambda v: TransitionSystem.from_tables(("a", "b"), [[v, 1], [0, 1]]),
                          1, (-1, 2)),
    "from_tables initial": (lambda v: TransitionSystem.from_tables(("a",), [[0]], initial=v),
                            0, (-1, 1)),
    "TransitionSystem labels": (lambda v: TransitionSystem(2, 1, ("a",), ((0,), (1,)), (0, v),
                                                           ("x", "y")), 1, (-1, 2)),
    "TransitionSystem n_states": (lambda v: TransitionSystem(v, 1, ("a",), ((1,), (0,))).n_states,
                                  2, (-1, 1, 3)),
    "TransitionSystem n_actions": (lambda v: TransitionSystem(1, v, ("a", "b"), ((0, 0),)).n_actions,
                                   2, (-1, 1, 3)),
    "StateMap source_size": (lambda v: StateMap(v, 2, (0, 1)).source_size, 2, (-1, 1, 3)),
    "StateMap target_size": (lambda v: StateMap(2, v, (0, 1)).target_size, 2, (-1, 1)),
    "StateMap map": (lambda v: StateMap(2, 2, (0, v)), 1, (-1, 2)),
    "StateMap call": (lambda v: StateMap(3, 2, (0, 1, 1))(v), 2, (-1, 3)),
    "Partition n_states": (lambda v: Partition(v, 2, (0, 1)).n_states, 2, (-1, 1, 3)),
    "Partition n_blocks": (lambda v: Partition(2, v, (0, 1)).n_blocks, 2, (-1, 1, 3)),
    "Partition block_of": (lambda v: Partition(2, 2, (0, v)), 1, (-1, 2)),
    "Partition.from_blocks state": (lambda v: Partition.from_blocks(2, [[0], [v]]), 1, (-1, 2)),
    "Partition.from_blocks size": (lambda v: Partition.from_blocks(v, [[0], [1]]), 2, (-1,)),
    "Partition.identity": (lambda v: Partition.identity(v), 3, (-1,)),
    "Partition.single_block": (lambda v: Partition.single_block(v), 3, (-1,)),
    "Partition.together": (lambda v: BLOCKS.together(v, 2), 1, (-1, 3)),
    "generated_closure pair": (lambda v: generated_closure(3, [(0, v)]), 2, (-1, 3)),
    "generated_closure size": (lambda v: generated_closure(v, [(0, 1)]), 3, (-1,)),
    "join_partitions": (lambda v: join_partitions(v, []), 3, (-1,)),
    "couple x0": (lambda v: couple(LINE, LINE, v, 0).pairs, 1, (-1, 4)),
    "couple i0": (lambda v: couple(LINE, LINE, 0, v).pairs, 1, (-1, 4)),
    "diamond": (lambda v: diamond(PROD, [1, v]), 1, (-1, 2)),
    "are_bisimilar x0": (lambda v: are_bisimilar(LINE, LINE, v, 0), 1, (-1, 4)),
    "are_bisimilar i0": (lambda v: are_bisimilar(LINE, LINE, 0, v), 1, (-1, 4)),
    "EnvOracle x0": (_oracle_walk, 1, (-1, 4)),
    "EnvOracle.start": (_started, 3, (-1,)),
    "HistoryTrie.level_of": (lambda v: TRIE.level_of(v), 3, (-1, 7)),
    "HistoryTrie.observation": (lambda v: TRIE.observation(v), 3, (-1, 7)),
    "HistoryTrie.child node": (lambda v: TRIE.child(v, 1), 2, (-1, 7)),
    "HistoryTrie.child action": (lambda v: TRIE.child(0, v), 1, (-1, 2)),
    "HistoryTrie.parent": (lambda v: TRIE.parent(v), 4, (-1, 7)),
    "HistoryTrie.word_of": (lambda v: TRIE.word_of(v), 4, (-1, 7)),
    "HistoryTrie.node_at": (lambda v: TRIE.node_at([0, v]), 1, (-1, 2)),
    "explore x0": (lambda v: [lvl.tolist() for lvl in explore(LINE, v, 2).levels], 1, (-1, 4)),
    "explore depth": (lambda v: [lvl.tolist() for lvl in explore(LINE, 0, v).levels], 2, (-1,)),
    "bounded_indistinguishability": (lambda v: bounded_indistinguishability(DEEP, v), 2,
                                     (-1, 7)),
    "build_model": (lambda v: build_model(DEEP, v), 3, (-1, 7)),
    "learn x0": (lambda v: _learned(LINE, v, 8), 0, (-1, 4)),
    "learn max_depth": (lambda v: _learned(LINE, 0, v), 8, (-1,)),
    "learn min_depth": (lambda v: _learned(LINE, 0, 8, v), 4, ()),
    "verify_learned": (lambda v: verify_learned(LINE, v, MODEL), 0, (-1, 4)),
    "SplitMix64 seed": (lambda v: SplitMix64(v).next_u64(), 5, ()),
    "SplitMix64.below": (lambda v: SplitMix64(1).below(v), 3, (-1, 0)),
    # more than 2^25 outputs at once is refused before any array is allocated
    "SplitMix64.next_u64s": (lambda v: SplitMix64(1).next_u64s(v).tolist(), 3,
                             (-1, 2**25 + 1, 2**45)),
    "make_line": (lambda v: make_line(v), 4, (-1,)),
    "make_cycle": (lambda v: make_cycle(v), 4, (-1,)),
    "ArmSpec joints": (lambda v: _arm(joints=v), 2, (-1,)),
    "ArmSpec resolution": (lambda v: _arm(resolution=v), 6, (-1,)),
    "ArmSpec obstacle": (lambda v: _arm(obstacle=(1, v)), 5, (-1, 6)),
    "ArmSpec click": (lambda v: _arm(click=(0, v)), 5, (-1, 6)),
    "parse_obstacles joints": (lambda v: parse_obstacles("1 1\n", v, 4), 2, ()),
    "parse_obstacles resolution": (lambda v: parse_obstacles("1 1\n", 2, v), 4, ()),
}


# arguments where None asks for a default (the system's initial state)
NONE_IS_DEFAULT = {"are_isomorphic anchor_a", "are_isomorphic anchor_b", "from_tables initial",
                   "explore x0", "learn x0"}


@pytest.mark.parametrize("name", list(CASES))
def test_bad_ids_raise_input_error(name):
    call, good, more = CASES[name]
    nones = () if name in NONE_IS_DEFAULT else (None,)
    for bad in (good + 0.5, float(good), str(good)) + nones + more:
        with pytest.raises(InputError):
            call(bad)


@pytest.mark.parametrize("name", list(CASES))
def test_numpy_integers_act_as_ints(name):
    call, good, _ = CASES[name]
    expected = call(good)
    got = call(np.int64(good))
    assert got == expected
    assert type(got) is type(expected)


def test_table_entries_become_ints():
    sys = TransitionSystem.from_tables(("a", "b"), np.array([[0, 1], [1, 0]]),
                                       initial=np.int32(1))
    assert [type(t) for row in sys.delta for t in row] == [int] * 4
    assert type(sys.initial) is int
    assert all(type(b) is int for b in Partition(3, 2, np.array([0, 1, 1])).block_of)
    assert all(type(t) is int for t in StateMap(2, 2, np.array([1, 0])).map)


def test_zero_sessions_step_to_nothing():
    # start(0) begins an empty batch; an empty action list steps it, counting nothing
    oracle = EnvOracle(LINE, 0)
    assert oracle.start(0).tolist() == []
    for actions in ([], (), np.array([]), np.array([], dtype=np.int32), 1):
        out = oracle.step(actions)
        assert out.tolist() == [] and out.dtype == np.int32
    assert (oracle.resets, oracle.steps) == (0, 0)
    for actions in ([0], np.array([1, 0]), 2, 0.5):
        with pytest.raises(InputError):
            oracle.step(actions)
    oracle.start(2)
    for actions in ([], ()):
        with pytest.raises(InputError):
            oracle.step(actions)
    assert (oracle.resets, oracle.steps) == (2, 0)
