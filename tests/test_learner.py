import functools
import hashlib
import signal
import tracemalloc
from itertools import product
from time import perf_counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtslearn import (
    CheckError,
    EnvOracle,
    InputError,
    Partition,
    StateMap,
    TransitionSystem,
    are_isomorphic,
    bounded_indistinguishability,
    build_model,
    canonical_form,
    explore,
    learn,
    make_arm,
    make_cycle,
    make_line,
    make_random,
    msr,
    partition_from_labels,
    pullback,
    quotient,
    star,
    verify_learned,
)
from dtslearn import learner, observations, partitions
from dtslearn.envs import ArmSpec, SplitMix64
from dtslearn.observations import HistoryTrie, count_nodes

CW, CCW = 0, 1


def rowsort_bounded_indistinguishability(trie, horizon):
    """The row-sort rounds ``bounded_indistinguishability`` ran before its flat rounds.

    Each round stacks every level's classes next to its children's classes and
    re-ranks the rows of all levels together with ``np.unique(axis=0)``. Slow,
    but plainly Moore's k-step equivalence, so it serves as the reference.
    """
    m = trie.n_actions
    classes = [lvl.astype(np.int64) for lvl in trie.levels]
    for j in range(1, horizon + 1):
        rows = [np.column_stack([classes[d], classes[d + 1].reshape(-1, m)])
                for d in range(trie.depth - j + 1)]
        sizes = [len(r) for r in rows]
        _, inverse = np.unique(np.concatenate(rows), axis=0, return_inverse=True)
        classes = np.split(inverse.reshape(-1), np.cumsum(sizes)[:-1])
    return Partition.from_block_of(np.concatenate(classes[:trie.depth - horizon + 1]).tolist())


def trie_learn(env, x0, max_depth, min_depth=2):
    """``learn``'s deepening and stop rule over the complete trie at every depth.

    Exact but exponential in the depth, so it serves as the reference; returns
    the model and the depth it converged at (None if it did not).
    """
    prev, prev_depth = None, None
    for depth in range(2, max_depth + 1, 2):
        model, _ = build_model(explore(env, x0, depth), depth // 2)
        if model is None:
            prev, prev_depth = None, None
            continue
        model = canonical_form(model, model.initial)[0]
        if prev is not None and model == prev and prev_depth >= min_depth:
            return model, prev_depth
        prev, prev_depth = model, depth
    return prev, None


class ReplayCountingOracle(EnvOracle):
    """An oracle that spells out each session's word from its start and step calls.

    A session replays when its word equals, or is a prefix of, a word some
    earlier session of the run asked for: the oracle could tell the learner
    nothing new. ``replays()`` closes the last batch and returns the count.
    """

    def __init__(self, env, x0):
        super().__init__(env, x0)
        self.columns, self.sessions, self.replayed = [], 0, 0
        self.seen = set()  # every prefix of every word asked, as bytes of int8 actions

    def start(self, sessions):
        self.replays()
        out = super().start(sessions)
        self.sessions = len(out)
        return out

    def step(self, actions):
        out = super().step(actions)
        self.columns.append(np.broadcast_to(np.asarray(actions, dtype=np.int8), out.shape))
        return out

    def replays(self) -> int:
        words = np.column_stack(self.columns + [np.zeros((self.sessions, 0), dtype=np.int8)])
        self.columns, self.sessions = [], 0
        for word in words:
            word = word.tobytes()
            if word in self.seen:
                self.replayed += 1
                continue
            for i in range(len(word), -1, -1):  # seen is prefix-closed
                if word[:i] in self.seen:
                    break
                self.seen.add(word[:i])
        return self.replayed


class CallCountingOracle(EnvOracle):
    """An oracle that counts its start and step calls: the learner's batches."""

    def __init__(self, env, x0):
        super().__init__(env, x0)
        self.start_calls = self.step_calls = 0

    def start(self, sessions):
        self.start_calls += 1
        return super().start(sessions)

    def step(self, actions):
        self.step_calls += 1
        return super().step(actions)


def random_trie(rng, m, k, depth):
    """A complete trie whose every node sees one of ``k`` values at random."""
    levels = tuple(np.array([rng.below(k) for _ in range(m ** d)], dtype=np.int32)
                   for d in range(depth + 1))
    return HistoryTrie(m, depth, tuple(f"a{a}" for a in range(m)),
                       tuple(f"o{o}" for o in range(k)), levels)


def reach_map(env, x0, trie, upto_level):
    """The word-to-state map on trie nodes of depth at most ``upto_level``."""
    n = trie.offsets[upto_level + 1]
    return StateMap(n, env.n_states,
                    tuple(star(env, x0, trie.word_of(v)) for v in range(n)))


class TestExplore:
    def test_line_depth_two(self):
        trie = explore(make_line(4), 0, 2)
        assert trie.node_count == 7
        green = trie.label_names[trie.observation(0)]
        assert green == "green"
        assert trie.label_names[trie.observation(trie.node_at([0]))] == "green"
        assert trie.label_names[trie.observation(trie.node_at([1]))] == "white"

    def test_depth_zero(self):
        trie = explore(make_line(4), 0, 0)
        assert trie.node_count == 1
        assert trie.label_names[trie.observation(0)] == "green"

    def test_cycle_returns_to_the_click(self):
        trie = explore(make_cycle(4), 0, 4)
        around = trie.node_at([CW, CW, CW, CW])
        assert trie.label_names[trie.observation(around)] == "click"

    def test_node_count_formula(self):
        trie = explore(make_cycle(4), 0, 5)
        assert trie.node_count == count_nodes(2, 5) == 2 ** 6 - 1

    def test_node_budget_refuses_before_any_session(self):
        oracle = EnvOracle(make_random(3, 2, 5), 0)
        assert count_nodes(2, 25) == 2 ** 26 - 1 > learner.EXPLORE_NODE_BUDGET
        with pytest.raises(InputError, match="depth-25 trie over 2 actions exceeds the node budget"):
            explore(oracle, None, 25)
        assert (oracle.resets, oracle.steps) == (0, 0)

    def test_single_action_trie_is_a_path(self):
        env = TransitionSystem.from_tables(("spin",), [[1], [0]], ["on", "off"], 0)
        trie = explore(env, 0, 5)
        assert trie.node_count == 6
        assert [trie.observation(v) for v in range(6)] == [0, 1, 0, 1, 0, 1]

    def test_parent_child_are_inverse(self):
        trie = explore(make_line(4), 0, 3)
        for v in range(1, trie.node_count):
            parent, action = trie.parent(v)
            assert trie.child(parent, action) == v

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_words_and_nodes_correspond_in_bfs_order(self, m):
        trie = random_trie(SplitMix64(m), m, 2, 4)
        words = [w for d in range(5) for w in np.ndindex(*(m,) * d)]
        assert [trie.word_of(v) for v in range(trie.node_count)] == words
        assert [trie.node_at(w) for w in words] == list(range(trie.node_count))
        assert [trie.level_of(v) for v in range(trie.node_count)] == [len(w) for w in words]

    def test_navigation_rejects_leaves_and_foreign_nodes(self):
        trie = explore(make_line(4), 0, 2)
        with pytest.raises(InputError, match="leaf"):
            trie.child(trie.node_at([1, 0]), 0)
        with pytest.raises(InputError, match="action"):
            trie.child(0, 2)
        for bad in (-1, trie.node_count):
            for call in (trie.parent, trie.word_of, trie.observation, lambda v: trie.child(v, 0)):
                with pytest.raises(InputError, match="out of range"):
                    call(bad)

    def test_one_action_depths_are_bounded_by_levels(self):
        # one node per level: the node budget alone would allow a depth of 2^25 - 1,
        # a step call and an array per level, minutes and gigabytes before an answer
        env = make_random(3, 1, 5)
        t0 = perf_counter()
        for depth in (learner.EXPLORE_LEVEL_BUDGET, 1 << 18, (1 << 25) - 1, 10 ** 12):
            oracle = EnvOracle(env, 0)
            with pytest.raises(InputError, match="depth"):
                explore(oracle, None, depth)
            assert (oracle.resets, oracle.steps) == (0, 0)
        assert perf_counter() - t0 < 0.5

    def test_the_deepest_one_action_trie_of_a_learn(self):
        # learn fills one-action tries up to TRIE_NODES nodes: depth 16,383
        env, depth = make_random(3, 1, 5), learner.TRIE_NODES - 1
        assert count_nodes(1, depth) == learner.TRIE_NODES and depth == 16383
        trie = explore(env, 0, depth)
        assert (trie.depth, trie.node_count) == (depth, depth + 1)
        assert [int(lvl[0]) for lvl in trie.levels] == EnvOracle(env, 0).walk([0] * depth)

    def test_observations_match_env_walks(self):
        env = make_line(4)
        trie = explore(env, 0, 4)
        for v in range(trie.node_count):
            assert trie.observation(v) == env.labels[star(env, 0, trie.word_of(v))]

    def test_unlabeled_env_rejected(self):
        with pytest.raises(InputError):
            explore(make_line(4).unlabeled(), 0, 2)


def _trie(levels, n_actions=2, depth=2, labels=("x", "y")):
    return HistoryTrie(n_actions, depth, ("a", "b", "c")[:n_actions], labels, levels)


GOOD_LEVELS = ([0], [1, 0], [0, 1, 1, 0])


class TestHistoryTrieChecks:
    """A trie is built only from complete levels of observations in range."""

    @pytest.mark.parametrize("levels", [
        pytest.param(GOOD_LEVELS[:2], id="a level too few"),
        pytest.param(GOOD_LEVELS + ([0] * 8,), id="a level too many"),
        pytest.param(([0], [1, 0], [0, 1, 1]), id="a short level"),
        pytest.param(([0], [1, 0], [[0, 1], [1, 0]]), id="a level of rows"),
        pytest.param(([0], [1.0, 0.0], [0, 1, 1, 0]), id="float observations"),
        pytest.param(([0], [1, 0], [0, 1, -1, 0]), id="a negative observation"),
        pytest.param(([0], [1, 2], [0, 1, 1, 0]), id="an observation past the label names"),
        pytest.param(([0], ["1", "0"], [0, 1, 1, 0]), id="string observations"),
    ])
    def test_malformed_levels_raise_input_error(self, levels):
        with pytest.raises(InputError, match="levels"):
            _trie(tuple(np.array(lvl) for lvl in levels))

    def test_no_actions_raises_input_error(self):
        with pytest.raises(InputError, match="levels"):
            _trie(([0],), n_actions=0, depth=0)

    def test_action_names_must_match_the_action_count(self):
        with pytest.raises(InputError, match="action names"):
            HistoryTrie(2, 2, ("a",), ("x", "y"), GOOD_LEVELS)

    def test_short_level_is_refused_before_the_partition(self):
        # a short level must not reach the reshape in bounded_indistinguishability
        with pytest.raises(InputError):
            bounded_indistinguishability(_trie((np.array([0]), np.array([1, 0]),
                                                np.array([0, 1, 1]))), 1)

    def test_list_levels_are_accepted(self):
        trie = _trie(GOOD_LEVELS)
        assert [lvl.tolist() for lvl in trie.levels] == list(GOOD_LEVELS)
        assert bounded_indistinguishability(trie, 1) == Partition.from_block_of([0, 1, 0])

    def test_caller_arrays_stay_writable_and_apart(self):
        given = tuple(np.array(lvl, dtype=np.int32) for lvl in GOOD_LEVELS)
        trie = _trie(given)
        assert all(lvl.flags.writeable for lvl in given)
        assert not any(lvl.flags.writeable for lvl in trie.levels)
        given[2][0] = 1
        assert trie.observation(3) == 0

    def test_explored_levels_are_read_only(self):
        trie = explore(make_line(4), 0, 3)
        assert not any(lvl.flags.writeable for lvl in trie.levels)


class TestReachIsHomomorphism:
    def test_commutes_on_interior_nodes(self):
        env = make_line(4)
        trie = explore(env, 0, 4)
        fhat = reach_map(env, 0, trie, 4)
        for v in range(trie.offsets[4]):
            for a in range(2):
                assert env.delta[fhat(v)][a] == fhat(trie.child(v, a))


class TestBoundedIndistinguishability:
    def test_line_depth_six_horizon_three_has_four_classes(self):
        env = make_line(4)
        trie = explore(env, 0, 6)
        part = bounded_indistinguishability(trie, 3)
        assert part.n_states == trie.offsets[4]
        assert part.n_blocks == 4
        # the classes are exactly the fibers of the reach map
        fhat = reach_map(env, 0, trie, 3)
        for v in range(part.n_states):
            for w in range(v, part.n_states):
                assert part.together(v, w) == (fhat(v) == fhat(w))

    def test_horizon_zero_is_the_observation_partition(self):
        env = make_line(4)
        trie = explore(env, 0, 3)
        part = bounded_indistinguishability(trie, 0)
        for v in range(part.n_states):
            for w in range(part.n_states):
                assert part.together(v, w) == (trie.observation(v) == trie.observation(w))

    def test_blank_env_gives_a_single_class(self):
        trie = explore(make_cycle(4, pointed=False), 0, 6)
        for k in range(4):
            assert bounded_indistinguishability(trie, k).is_single_block

    def test_horizon_above_depth_rejected(self):
        trie = explore(make_line(4), 0, 2)
        with pytest.raises(InputError):
            bounded_indistinguishability(trie, 3)

    def test_matches_the_row_sort_rounds(self):
        rng = SplitMix64(404)
        for case in range(48):
            m, k = 1 + case % 4, 1 + case // 4 % 4  # every pair, with each source
            depth = (12, 9, 6, 5)[m - 1]
            if case // 16 % 2:
                trie = random_trie(rng, m, k, depth)
            else:
                n = 1 + rng.below(8)
                delta = [[rng.below(n) for _ in range(m)] for _ in range(n)]
                labels = [f"o{rng.below(k)}" for _ in range(n)]
                env = TransitionSystem.from_tables(
                    tuple(f"a{a}" for a in range(m)), delta, labels, 0)
                trie = explore(env, 0, depth)
            for horizon in range(depth + 1):
                assert bounded_indistinguishability(trie, horizon) == \
                    rowsort_bounded_indistinguishability(trie, horizon), (case, horizon)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_the_definition_word_by_word(self, m):
        # two nodes share a class iff every word of length at most h shows them the
        # same observation, each looked up by walking the word from the node
        rng = SplitMix64(1600 + m)
        depth = (9, 6, 4)[m - 1]
        for k in (1, 2, 3):
            trie = random_trie(rng, m, k, depth)
            for h in range(depth + 1):
                words = [w for j in range(h + 1) for w in product(range(m), repeat=j)]
                n = trie.offsets[depth - h + 1]
                seen = [tuple(trie.observation(trie.node_at(trie.word_of(v) + w)) for w in words)
                        for v in range(n)]
                part = bounded_indistinguishability(trie, h)
                assert part.n_states == n
                for v in range(n):
                    for w in range(v, n):
                        assert part.together(v, w) == (seen[v] == seen[w]), (k, h, v, w)

    def test_peak_memory_on_a_two_million_node_trie(self):
        # horizon 10 on 2^21 - 1 nodes holds the narrowed observations (2 MiB),
        # 2,047 continuation rows of 2,047 bytes and np.unique's two copies of
        # them: 14.06 MiB, pinned with 10% headroom, so that a temporary over
        # every node per round, or int64 observations, fails here
        trie = explore(make_random(9, 2, 5), 0, 20)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            part = bounded_indistinguishability(trie, 10)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert part.n_states == 2047
        assert peak <= 1.1 * 14.06 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"

    def test_never_finer_than_the_pulled_back_congruence(self):
        rng = SplitMix64(31)
        for _ in range(15):
            env = make_random(2 + rng.below(4), 2, rng.next_u64())
            n = env.n_states
            trie = explore(env, 0, 2 * n)
            part = bounded_indistinguishability(trie, n)
            fhat = reach_map(env, 0, trie, n)
            lifted = pullback(fhat, msr(env, partition_from_labels(env)))
            # congruent histories are never separated...
            for block in lifted.blocks():
                first = block[0]
                assert all(part.together(first, v) for v in block)
            # ...and at this depth and horizon the two coincide
            assert part == lifted


class TestBuildModel:
    def test_line_needs_depth_eight(self):
        env = make_line(4)
        model, report = build_model(explore(env, 0, 8), 4)
        assert report.ok
        assert model == env  # canonical construction reproduces the line exactly

    def test_line_depth_six_reports_missing_far_state(self):
        # the state three steps out has no history short enough to become a
        # model state, so the candidate is not closed at this depth
        env = make_line(4)
        model, report = build_model(explore(env, 0, 6), 3)
        assert model is None
        assert not report.closed
        assert report.consistent

    def test_blank_env_gives_the_one_state_model(self):
        model, report = build_model(explore(make_cycle(4, pointed=False), 0, 4), 2)
        assert report.ok
        assert model.n_states == 1
        assert model.delta == ((0, 0),)

    def test_too_shallow_to_build(self):
        trie = explore(make_line(4), 0, 1)
        model, report = build_model(trie, 1)
        assert model is None
        assert not report.closed
        assert "shallow" in report.detail

    def test_horizon_must_be_positive(self):
        with pytest.raises(InputError):
            build_model(explore(make_line(4), 0, 2), 0)


class TestLearn:
    def test_line_converges_by_depth_eight(self):
        env = make_line(4)
        model, report = learn(env, 0, 12)
        assert report.converged and report.depth_converged == 8
        assert model.n_states == 4
        result = verify_learned(env, 0, model)
        assert result.isomorphic and result.bisimilar and result.surpriseless

    def test_cycle_converges(self):
        env = make_cycle(4)
        model, report = learn(env, 0, 12)
        assert report.converged
        result = verify_learned(env, 0, model)
        assert result.isomorphic and result.bisimilar and result.surpriseless

    def test_blank_cycle_gives_bisimilar_point(self):
        env = make_cycle(4, pointed=False)
        model, report = learn(env, 0, 8)
        assert report.converged and model.n_states == 1
        result = verify_learned(env, 0, model)
        assert (result.isomorphic, result.bisimilar, result.surpriseless) == \
            (False, True, True)

    def test_depth_budget_exhaustion_is_reported(self):
        env = make_line(4)
        model, report = learn(env, 0, 4)
        assert not report.converged
        assert report.depth_converged is None

    def test_summary_reports_no_convergence(self):
        _, report = learn(make_line(4), 0, 4)
        assert report.summary().splitlines()[-2:] == [
            "no convergence by depth 4",
            f"oracle calls: {report.oracle_resets} resets, {report.oracle_steps} steps"]

    def test_learner_touches_only_the_oracle(self):
        env = make_line(4)
        oracle = EnvOracle(env, 0)
        model, report = learn(oracle, None, 12)
        assert model.n_states == 4
        assert (report.oracle_resets, report.oracle_steps) == \
            (oracle.resets, oracle.steps)
        assert report.oracle_resets > 0 and report.oracle_steps > 0

    def test_methods_agree(self, monkeypatch):
        # learn runs the trie only where it is small; with no such depths,
        # every candidate comes from the observation table
        rng = SplitMix64(32)
        systems = [make_random(2 + rng.below(5), 2, rng.next_u64(), pointed=bool(rng.below(2)))
                   for _ in range(15)]
        expected = [trie_learn(env, 0, 20) for env in systems]
        for trie_nodes in (learner.TRIE_NODES, 0):
            monkeypatch.setattr(learner, "TRIE_NODES", trie_nodes)
            for env, (model, depth) in zip(systems, expected):
                learned, report = learn(env, 0, 20)
                assert learned == model
                assert report.depth_converged == depth

    def test_depths_are_validated(self):
        env = make_line(4)
        for max_depth, min_depth in ((12.5, 2), ("12", 2), (1, 2), (12, 2.0), (12, None)):
            with pytest.raises(InputError):
                learn(env, 0, max_depth, min_depth=min_depth)
        # a bound whose smallest suite, the cover of a model at the bound, would
        # outgrow SUITE_WORDS fails before any oracle call
        oracle = EnvOracle(env, 0)
        with pytest.raises(InputError, match="bound"):
            learn(oracle, None, 10 ** 9, min_depth=10 ** 9)
        assert (oracle.resets, oracle.steps) == (0, 0)
        # the 4-state line's suites for 15, 20 or 30,000 states outgrow it; its
        # first table depth, 14, checks every representative, and deeper ones
        # would rebuild the same table: no certificate, however deep the budget
        for max_depth, floor in ((30, 30), (40, 40), (10 ** 9, 60000)):
            _, report = learn(oracle, None, max_depth, min_depth=floor)
            assert not report.converged and report.depth_stopped == 14
            assert "outgrows" in report.attempts[-1].detail
        _, report = learn(oracle, None, 4, min_depth=40)
        assert not report.converged

    def test_learned_quotient_matches_the_congruence_quotient(self):
        # arbitrary label maps: the learner recovers the environment up to
        # its own coarsest congruence, even without a pointed sensor; with
        # min_depth twice the state count the bound is the true size, and the
        # certificate makes the first model that passes its suite exact
        for n_actions, seed in ((2, 33), (2, 35), (3, 36), (4, 37)):
            rng = SplitMix64(seed)
            for _ in range(25):
                n = 2 + rng.below(5)
                env = make_random(n, n_actions, rng.next_u64())
                model, report = learn(env, 0, 2 * n + 6, min_depth=2 * n)
                assert report.converged
                reference, _ = quotient(env, msr(env, partition_from_labels(env)))
                assert are_isomorphic(model, reference, anchored=True)[0]

    def test_pointed_minimally_distinguishing_envs_are_recovered(self):
        rng = SplitMix64(34)
        for _ in range(100):
            n = 2 + rng.below(7)
            env = make_random(n, 2, rng.next_u64(),
                              require_min_dist=True, pointed=True)
            model, report = learn(env, 0, 2 * n + 6, min_depth=2 * n)
            assert report.converged
            assert are_isomorphic(env, model, anchored=True)[0]

    def test_early_agreement_can_mislead_without_the_depth_floor(self):
        # blank states that alias at low horizons stabilize a wrong small
        # model; under a bound of 8 states the certificate refutes it
        env = TransitionSystem.from_tables(
            ("u0", "u1"),
            [[0, 6], [3, 3], [0, 4], [4, 5], [2, 7], [5, 1], [5, 6], [6, 2]],
            ["click"] + ["blank"] * 7, 0)
        eager, report = learn(env, 0, 20)
        assert report.converged and eager.n_states == 2
        assert not are_isomorphic(env, eager, anchored=True)[0]
        patient, report = learn(env, 0, 22, min_depth=16)
        assert report.converged
        assert are_isomorphic(env, patient, anchored=True)[0]

    def test_per_depth_costs_add_up_to_the_totals(self):
        env = make_random(6, 3, 77)
        _, report = learn(env, 0, 14)
        assert sum(att.resets for att in report.attempts) == report.oracle_resets
        assert sum(att.steps for att in report.attempts) == report.oracle_steps
        assert all(att.seconds >= 0 for att in report.attempts)
        first = report.attempts[0]
        assert f"{first.resets} resets, {first.steps} steps" in report.summary()

    def test_attempts_read_back_as_recorded(self):
        # the report keeps its attempts packed in one array of numbers
        _, report = learn(make_random(6, 3, 77), 0, 14)
        atts = tuple(report.attempts)
        assert len(report.attempts) == len(atts) == 6
        assert report.attempts[-1] == atts[-1] and report.attempts[2:] == atts[2:]
        assert report.attempts == atts and hash(report.attempts) == hash(atts)
        assert [a.depth for a in atts] == list(range(2, 14, 2))
        assert [a.method for a in atts] == ["trie"] * 4 + ["table"] * 2
        for att in atts:
            assert isinstance(att, learner.DepthAttempt) and att.horizon == att.depth // 2
            assert [type(v) for v in (att.depth, att.ok, att.n_states, att.resets, att.steps,
                                      att.seconds)] == [int, bool, int, int, int, float]
        with pytest.raises(IndexError):
            report.attempts[6]

    def test_combination_lock_is_exact_only_with_the_depth_floor(self):
        # "r" advances, "w" resets, and only the last state clicks: one word
        # of length n - 1 tells the states apart. Shallow tries and the
        # table's sampled tests miss it and settle on one state; under a bound
        # of n states the suite of that state runs through r^(n-1) and refutes it
        n = 12
        env = TransitionSystem.from_tables(
            ("r", "w"), [[min(i + 1, n - 1), 0] for i in range(n)],
            ["blank"] * (n - 1) + ["click"], 0)
        eager, report = learn(env, 0, 2 * n + 6)
        assert report.converged and eager.n_states == 1
        patient, report = learn(env, 0, 2 * n + 6, min_depth=2 * n)
        assert report.converged
        assert are_isomorphic(env, patient, anchored=True)[0]

    def test_bounded_learns_match_the_trie_at_twice_the_bound(self):
        # with min_depth = 2n the run stops at the first depth whose suite
        # passes, often well before 2n, and still gives the exact model; the
        # sizes keep the reference's complete trie at depth 2n + 2 small
        rng = SplitMix64(38)
        for case in range(75):
            m = 2 + case % 3
            n = 2 + rng.below((7, 4, 3)[m - 2])
            env = make_random(n, m, rng.next_u64(), pointed=bool(rng.below(2)))
            expected, depth = trie_learn(env, 0, 2 * n + 2, min_depth=2 * n)
            assert depth == 2 * n
            model, report = learn(env, 0, 2 * n + 2, min_depth=2 * n)
            assert report.converged and report.bound == n, case
            assert model == expected, case

    def test_fourteen_state_lock_is_certified_within_a_second(self):
        n = 14
        env = TransitionSystem.from_tables(
            ("r", "w"), [[min(i + 1, n - 1), 0] for i in range(n)],
            ["blank"] * (n - 1) + ["click"], 0)
        t0 = perf_counter()
        model, report = learn(env, 0, 2 * n + 6, min_depth=2 * n)
        assert perf_counter() - t0 < 1.0
        assert report.converged and report.depth_converged <= 2 * n
        assert are_isomorphic(env, model, anchored=True)[0]
        summary = report.summary()
        assert report.oracle_resets < 17000  # depth 2's suite, then only words the tree lacks
        assert f"certified at depth {report.depth_converged}" in summary
        assert f"at most {n} states" in summary

    def test_table_cost_stays_polynomial_in_the_depth(self):
        # the full trie at depth 68 would need 2^34 sessions per word
        _, report = learn(make_line(80), 0, 68)
        assert not report.converged
        assert report.oracle_resets < 10 ** 6

    def test_table_learns_the_34_state_arm(self):
        spec = ArmSpec(joints=2, resolution=6, obstacles=frozenset({(1, 1), (4, 4)}),
                       click=(0, 0))
        env = make_arm(spec)
        assert env.n_states == 34
        model, report = learn(env, env.initial, 20)
        assert report.converged
        assert are_isomorphic(env, model, anchored=True, anchor_a=env.initial)[0]
        assert report.oracle_resets < 10 ** 6

    def test_34_state_arm_is_certified(self):
        spec = ArmSpec(joints=2, resolution=6, obstacles=frozenset({(1, 1), (4, 4)}),
                       click=(0, 0))
        env = make_arm(spec)
        model, report = learn(env, env.initial, 68, min_depth=68)
        assert report.converged and report.bound == 34
        assert are_isomorphic(env, model, anchored=True, anchor_a=env.initial)[0]
        assert report.oracle_resets < 10 ** 6

    def test_torus_group_action_is_recovered(self):
        spec = ArmSpec(joints=2, resolution=4, obstacles=frozenset(), click=(0, 0))
        env = make_arm(spec)
        assert env.n_states == 16
        model, report = learn(env, env.initial, 2 * 16 + 4)
        assert report.converged
        assert are_isomorphic(env, model, anchored=True)[0]

    def test_single_joint_arm_learns_like_a_cycle(self):
        spec = ArmSpec(joints=1, resolution=4, obstacles=frozenset(), click=(0,))
        env = make_arm(spec)
        model, report = learn(env, env.initial, 12)
        assert report.converged
        assert are_isomorphic(env, model, anchored=True)[0]

    def test_golden_digest(self):
        # models, stops and every depth's outcome, unbounded and under a bound of
        # n states; a refactor of the learner must keep them all
        digest = hashlib.sha256()
        for model, report in _digest_runs():
            records = [(a.depth, a.horizon, a.method, a.ok, a.n_states, a.detail)
                       for a in report.attempts]
            digest.update(repr((model, report.converged, report.depth_converged,
                                report.depth_stopped, report.bound, records)).encode())
        assert digest.hexdigest() == GOLDEN_LEARN_DIGEST

    def test_golden_oracle_counts(self):
        # every depth's resets and steps in the same learns: what the oracle was asked
        digest = hashlib.sha256()
        for _, report in _digest_runs():
            digest.update(repr([(a.resets, a.steps) for a in report.attempts]).encode())
        assert digest.hexdigest() == GOLDEN_COUNT_DIGEST

    def test_golden_batch_counts(self):
        # the oracle's start and step calls of each golden learn: the same batches as
        # when the learner left its last batch open, plus the one start of no sessions
        # that ends it
        batches = [(start, step) for _, _, (start, step) in _golden_learns()]
        assert batches == [(start + 1, step) for start, step in OPEN_LAST_BATCH_CALLS]

    @pytest.mark.parametrize("resolution, counts", [
        (6, (34, 75661, 805326, 113, 1011)),
        (7, (47, 100422, 1111481, 167, 1564)),
        (8, (62, 154954, 1879681, 271, 2721)),
    ])
    def test_arm_oracle_counts_and_batches(self, resolution, counts):
        # n states, resets, steps, then start and step calls with the last batch left open
        env = make_arm(ArmSpec(2, resolution, frozenset({(1, 1), (4, 4)}), (0, 0)))
        oracle = CallCountingOracle(env, env.initial)
        model, report = learn(oracle, None, 68)
        assert report.converged and are_isomorphic(env, model, anchored=True)[0]
        n, resets, steps, start_calls, step_calls = counts
        assert (env.n_states, report.oracle_resets, report.oracle_steps) == (n, resets, steps)
        assert (oracle.start_calls, oracle.step_calls) == (start_calls + 1, step_calls)

    def test_no_golden_learn_asks_more_than_with_a_separate_trie(self):
        for (_, report), (resets, steps) in zip(_digest_runs(), SEPARATE_TRIE_COUNTS, strict=True):
            assert report.oracle_resets <= resets and report.oracle_steps <= steps

    def test_no_word_is_asked_twice(self):
        # one observation tree holds every answer of a run: trie depths, tables and
        # suites all read it first, so no session repeats or shortens an earlier one
        probe = ReplayCountingOracle(make_line(4), 0)
        for word in ([1, 0], [1, 0, 1], [1, 0], [1], [0]):
            probe.walk(word)
        assert probe.replays() == 2  # the second [1, 0], and [1]
        n = 14  # the combination lock under a bound of n states
        lock = TransitionSystem.from_tables(
            ("r", "w"), [[min(i + 1, n - 1), 0] for i in range(n)],
            ["blank"] * (n - 1) + ["click"], 0)
        arm = make_arm(ArmSpec(2, 6, frozenset({(1, 1), (4, 4)}), (0, 0)))
        runs = [(lock, 0, 2 * n + 6, 2 * n), (arm, arm.initial, 68, 2)]
        rng = SplitMix64(41)
        for k in range(20):
            env = make_random(5 + k % 3, 2, rng.next_u64(), pointed=bool(k % 2))
            runs += [(env, 0, 2 * env.n_states + 6, floor) for floor in (2, 2 * env.n_states)]
        for env, x0, max_depth, min_depth in runs:
            oracle = ReplayCountingOracle(env, x0)
            _, report = learn(oracle, None, max_depth, min_depth=min_depth)
            assert report.oracle_resets > 0
            assert oracle.replays() == 0, (env.n_states, min_depth)


# sha256 of test_golden_digest's records
GOLDEN_LEARN_DIGEST = "3cfb52a451b1cdfd417a1d8fca176d7068cf77e166ae1e221db9c850872e5976"
# sha256 of test_golden_oracle_counts's records: 465,577 resets and 4,257,030 steps in all
GOLDEN_COUNT_DIGEST = "0e3562417d6b83e326c6bfd96d1bf5b17f8365c9e690e3b2cf62b5bd6c6cdbd3"
# (resets, steps) of each golden learn while the trie depths explored a trie of their
# own, apart from the table's tree: 490,919 resets and 4,441,067 steps in all
SEPARATE_TRIE_COUNTS = (
    (77804, 816934), (14637, 109320), (102601, 1123305), (22833, 191068), (7133, 45128),
    (4406, 25779), (272, 1056), (356, 1284), (6289, 38632), (4394, 25714), (7380, 57204),
    (828, 4754), (84, 456), (32, 116), (9027, 70555), (7425, 57402), (1364, 12744),
    (356, 2596), (5460, 61896), (1376, 12802), (12322, 106455), (7627, 58548), (10821, 75680),
    (4757, 27588), (8804, 68613), (7419, 57358), (9049, 70879), (7425, 57408), (7380, 57204),
    (837, 4774), (84, 456), (24, 84), (1364, 12744), (352, 2564), (84, 456), (23, 77),
    (819, 4716), (95, 350), (272, 1056), (36, 68), (7380, 57204), (837, 4778), (4368, 25632),
    (279, 1067), (7380, 57204), (841, 4803), (7233, 45112), (4406, 25773), (8804, 69071),
    (7419, 57370), (20, 72), (34, 106), (340, 2504), (114, 602), (8775, 68638), (7419, 57351),
    (84, 456), (23, 77), (8575, 66783), (7413, 57335), (6261, 39008), (4394, 25720),
    (5460, 61896), (1399, 12936), (6518, 70594), (9598, 103606), (21894, 259546))


# (start calls, step calls) of each golden learn while learn left its last batch open
OPEN_LAST_BATCH_CALLS = (
    (113, 1011), (83, 696), (167, 1564), (137, 1204), (5, 27), (3, 12), (2, 6), (3, 9), (5, 27),
    (3, 12), (4, 20), (3, 12), (3, 12), (2, 6), (6, 39), (4, 20), (5, 30), (4, 20), (6, 42),
    (5, 30), (17, 159), (5, 29), (12, 83), (4, 19), (6, 39), (4, 20), (6, 39), (4, 20), (4, 20),
    (3, 12), (3, 12), (2, 6), (5, 30), (4, 20), (3, 12), (2, 6), (3, 12), (2, 6), (2, 6),
    (1, 2), (4, 20), (3, 12), (3, 12), (2, 6), (4, 20), (3, 12), (5, 27), (3, 12), (6, 39),
    (4, 20), (2, 6), (3, 9), (4, 20), (3, 12), (6, 39), (4, 20), (3, 12), (2, 6), (6, 39),
    (4, 20), (5, 27), (3, 12), (6, 42), (5, 30), (19, 210), (26, 352), (33, 525)
)


@functools.cache
def _golden_learns():
    """The golden learns' models, reports and oracle (start, step) calls, run once."""
    runs = []
    for env, x0, bounded in _digest_learns():
        n = env.n_states
        oracle = CallCountingOracle(env, x0)
        model, report = learn(oracle, None, 2 * n + 6, min_depth=2 * n if bounded else 2)
        runs.append((model, report, (oracle.start_calls, oracle.step_calls)))
    return tuple(runs)


def _digest_runs():
    """The golden learns' models and reports."""
    return tuple((model, report) for model, report, _ in _golden_learns())


def _digest_learns():
    """(environment, start state, bounded) for the golden learn digest."""
    for res in (6, 7):  # the 34- and 47-state 2-joint arms
        env = make_arm(ArmSpec(2, res, frozenset({(1, 1), (4, 4)}), (0, 0)))
        yield env, env.initial, False
        yield env, env.initial, True
    rng = SplitMix64(40)
    for _ in range(30):
        env = make_random(2 + rng.below(6), 2 + rng.below(3), rng.next_u64(),
                          pointed=bool(rng.below(2)))
        yield env, 0, False
        yield env, 0, True
    for n in (10, 12, 14):  # combination locks: "r" advances, "w" resets
        env = TransitionSystem.from_tables(
            ("r", "w"), [[min(i + 1, n - 1), 0] for i in range(n)],
            ["blank"] * (n - 1) + ["click"], 0)
        yield env, 0, True


class TestRowCache:
    """The observation table's rows, kept across suffix additions."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 3), st.integers(0, 2 ** 64 - 1), st.booleans(),
           st.booleans())
    def test_cached_rows_match_fresh_walks(self, n, m, seed, pointed, bounded):
        # every depth from the table, so its rows are built, read and extended by suffixes
        env = make_random(n, m, seed, pointed=pointed)
        fresh = EnvOracle(env, 0)

        def obs(table, v, suffix):
            return fresh.walk(table._word(v) + suffix)[-1]

        tables, rows_of = [], observations._ObservationTable._rows

        def checked_rows(table, nodes):
            rows = rows_of(table, nodes)
            tables.append(table)
            for v, row in zip(nodes.tolist(), rows.tolist()):
                assert row == [obs(table, v, e) for e in table.suffixes]
            return rows

        with patch.object(learner, "TRIE_NODES", 0), \
                patch.object(observations._ObservationTable, "_rows", checked_rows):
            learn(EnvOracle(env, 0), None, 2 * n + 6, min_depth=2 * n if bounded else 2)
        table = tables[-1]
        for v, slot in table.slots.items():  # columns a node was not read under stay -1
            for e, seen in zip(table.suffixes, table.cache[slot].tolist()):
                assert seen in (-1, obs(table, v, e))


class _RecordedTable(observations._ObservationTable):
    """The observation table, with every instance a learn makes kept in ``made``."""

    made = []

    def __init__(self, oracle):
        super().__init__(oracle)
        self.made.append(self)


class TestObservationTree:
    """What the run's one tree keeps per node: its observation and its word's length."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2 ** 64 - 1), st.booleans(),
           st.booleans(), st.booleans())
    def test_every_node_holds_its_words_observation_and_length(self, n, m, seed, pointed,
                                                               bounded, tries):
        # with no trie depths every word is replayed by _ask, so a replay that writes the
        # wrong node, or skips one, leaves a node unobserved or observed wrong; with them,
        # filled levels become nodes a block at a time
        env = make_random(n, m, seed, pointed=pointed)
        _RecordedTable.made.clear()
        with patch.object(learner, "TRIE_NODES", learner.TRIE_NODES if tries else 0), \
                patch.object(learner, "_ObservationTable", _RecordedTable):
            learn(EnvOracle(env, 0), None, 2 * n + 6, min_depth=2 * n if bounded else 2)
        (table,) = _RecordedTable.made
        assert table.asked == table.size
        assert table.observed[0] == -1 and not table.tree[0].any()  # the blank node
        for v in range(1, table.size):
            word = table._word(v)
            assert table.observed[v] == env.labels[star(env, 0, word)], (v, word)
            assert table.length[v] == len(word), (v, word)

    def test_words_past_int16_lengths_are_refused(self):
        # one action, so a word of 32,767 actions is as many nodes, each added from its
        # parent, and one session replays it; a word one action longer would not fit the
        # int16 lengths and is refused before any session starts
        env, n = make_random(3, 1, 5), (1 << 15) - 1
        table = observations._ObservationTable(EnvOracle(env, 0))
        table._observe(np.ones(1, dtype=np.int64), np.zeros((1, n), dtype=np.int64),
                       np.array([n]))
        assert table.size == n + 2 and table.oracle.resets == 1
        assert table.length[1:n + 2].tolist() == list(range(n + 1))
        assert table.observed[1:n + 2].tolist() == EnvOracle(env, 0).walk([0] * n)
        with pytest.raises(InputError, match="32767 actions"):
            table._observe(np.array([n + 1]), np.zeros((1, 1), dtype=np.int64), np.array([1]))
        assert (table.size, table.oracle.resets) == (n + 2, 1)

    @pytest.mark.parametrize("resolution, mib", [(6, 8.19), (7, 8.82)])
    def test_peak_memory_of_the_arm_learns(self, resolution, mib):
        # the peaks read with int16 lengths, int32 codes and narrow observations kept apart
        # from the children; one (m + 2)-column int32 tree read 8.83 and 9.60 MiB, and
        # replay paths stacked to the full depth 11.32 and 13.03 MiB
        env = make_arm(ArmSpec(2, resolution, frozenset({(1, 1), (4, 4)}), (0, 0)))
        tracemalloc.start()
        try:
            _, report = learn(env, env.initial, 68)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak <= 1.05 * mib, peak


class TestCertificate:
    """The W-method suite that certifies a minimal model under a state bound."""

    @staticmethod
    def certify(env, model, bound):
        table = observations._ObservationTable(EnvOracle(env, 0))
        return table.certify(model, bound, [()])

    @pytest.fixture(autouse=True)
    def time_limit(self):
        """Each test ends within 60 s, so a broken split record that loops fails here."""
        def expire(signum, frame):
            raise TimeoutError("the test ran for more than 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_the_last_sigma_layer_is_needed(self):
        # the environment has one more state than the model, hidden behind
        # the cover word "y y": only one more step after it tells them apart
        env = TransitionSystem.from_tables(
            ("x", "y"), [[0, 1], [0, 2], [0, 0]], ["o", "i", "o"], 0)
        model = TransitionSystem.from_tables(("x", "y"), [[0, 1], [0, 0]], ["o", "i"], 0)
        assert self.certify(env, model, 3)[:2] == (False, (1, 1, 1))
        # under a bound of 2 the suite has no Σ layer, and the wrong bound lets it pass
        assert self.certify(env, model, 2)[:2] == (True, None)

    def test_every_separating_word_is_needed(self):
        env = TransitionSystem.from_tables(
            ("x", "y"), [[0, 3], [1, 2], [0, 2], [2, 1]], ["o", "i", "o", "o"], 0)
        model = TransitionSystem.from_tables(
            ("x", "y"), [[0, 1], [0, 2], [2, 0]], ["o", "o", "i"], 0)
        assert partitions._separating_words(model, [()]) == [(), (1,)]
        assert self.certify(env, model, 4)[:2] == (False, (1, 0, 1, 1))

    def test_separating_words_characterize_minimal_models(self):
        rng = SplitMix64(39)
        for _ in range(300):
            m = 1 + rng.below(3)
            env = make_random(1 + rng.below(9), m, rng.next_u64(), pointed=bool(rng.below(2)))
            model, _ = quotient(env, msr(env, partition_from_labels(env)))
            n = model.n_states

            def traces(words):
                return [tuple(tuple(model.labels[star(model, s, w[:i])] for i in range(len(w) + 1))
                              for w in words) for s in range(n)]

            drawn = [tuple(rng.below(m) for _ in range(rng.below(5)))
                     for _ in range(1 + rng.below(3))]
            for suffixes in ([()], drawn):
                words = partitions._separating_words(model, suffixes)
                assert words[:len(suffixes)] == suffixes and len(words) <= len(suffixes) + n - 1
                assert len(set(traces(words))) == n  # W characterizes the model
                for j in range(len(suffixes), len(words)):  # each added word splits a pair
                    before, after = traces(words[:j]), traces(words[:j + 1])
                    assert any(before[s] == before[t] and after[s] != after[t]
                               for s in range(n) for t in range(s))
            twin = TransitionSystem.from_tables(  # state n repeats state 0
                model.action_names, [*model.delta, model.delta[0]],
                [model.label_names[label] for label in (*model.labels, model.labels[0])], 0)
            with pytest.raises(CheckError, match="not minimal"):
                partitions._separating_words(twin, [()])

    def test_separating_words_of_the_254_state_arm_are_fast(self):
        # W of the arm as certify sees it, minimized and canonical: about 20 ms on a
        # 2-vCPU Xeon, where Moore rounds and a scan of all pairs took 0.3-0.5 s
        arm = make_arm(ArmSpec(2, 16, frozenset({(1, 1), (4, 4)}), (0, 0)))
        small, _ = quotient(arm, msr(arm, partition_from_labels(arm)))
        model = canonical_form(small, small.initial)[0]
        assert model.n_states == 254
        times = []
        for _ in range(3):
            start = perf_counter()
            partitions._separating_words(model, [()])
            times.append(perf_counter() - start)
        assert min(times) <= 0.1

    def test_a_bound_below_the_model_size_is_not_certified(self):
        env = make_line(4)
        model, _ = learn(env, 0, 12)
        assert self.certify(env, model, 3) == (False, None, "not certified: more than 3 states")
        assert self.certify(env, model, 4)[0]


class TestVerifyLearned:
    def test_wrong_model_fails_all_three(self):
        env = make_line(4)
        wrong = TransitionSystem.from_tables(
            ("L", "R"), [[0, 1], [0, 1]], ["white", "white"], 0)
        result = verify_learned(env, 0, wrong)
        assert (result.isomorphic, result.bisimilar, result.surpriseless) == \
            (False, False, False)

    def test_unlabeled_model_rejected(self):
        env = make_line(4)
        with pytest.raises(InputError):
            verify_learned(env, 0, env.unlabeled())


class TestOracle:
    def test_counts_resets_and_steps(self):
        oracle = EnvOracle(make_line(4), 0)
        oracle.start(5)
        oracle.step(1)
        oracle.step(np.zeros(5, dtype=np.int64))
        assert oracle.resets == 5
        assert oracle.steps == 10

    def test_walk_reports_labels_along_the_way(self):
        oracle = EnvOracle(make_line(4), 0)
        assert oracle.walk([1, 1, 0]) == [0, 1, 1, 1]
        # green, then white, white, white (back at state 1)

    def test_walk_rejects_bad_action_ids_before_starting(self):
        oracle = EnvOracle(make_line(4), 0)
        for word in ([1, 1, -1], [0, 2], [0, 1.0]):
            with pytest.raises(InputError, match="action ids"):
                oracle.walk(word)
        assert (oracle.resets, oracle.steps) == (0, 0)
        assert oracle.walk([]) == [0]

    def test_step_rejects_bad_action_ids_and_counts_nothing(self):
        oracle = EnvOracle(make_line(4), 0)
        oracle.start(3)
        for actions in (2, -1, np.array([0, 1, 2]), np.array([0, -1, 1]),
                        np.array([0.0, 1.0, 0.0]), np.array([0, 1])):
            with pytest.raises(InputError):
                oracle.step(actions)
        assert (oracle.resets, oracle.steps) == (3, 0)
        assert oracle.step(np.array([1, 1, 0])).tolist() == [1, 1, 0]
        assert oracle.steps == 3

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8,
                                       np.uint64, ">i4", ">u8"])
    def test_action_ids_of_every_width(self, dtype):
        # -1 wraps to the largest value of an unsigned type; both ends are refused, in
        # either byte order
        oracle = EnvOracle(make_line(4), 0)
        for bad in (-1, 2):
            with pytest.raises(InputError, match="action ids"):
                oracle.walk(np.array([1, bad]).astype(dtype))
        oracle.start(2)
        for bad in (-1, 2):
            with pytest.raises(InputError, match="action ids"):
                oracle.step(np.array([0, bad]).astype(dtype))
        assert (oracle.resets, oracle.steps) == (2, 0)
        assert oracle.step(np.array([1, 1], dtype=dtype)).tolist() == [1, 1]
        assert oracle.step(np.array(0, dtype=dtype)).tolist() == [0, 0]
        assert oracle.walk(np.array([1, 1, 0], dtype=dtype)) == [0, 1, 1, 1]

    def test_action_ids_past_a_narrow_signed_type(self):
        # 200 actions, more than int8 holds: a negative int8 or int16 id is still refused,
        # and every uint8 id below 200 is valid
        env = TransitionSystem.from_tables([f"a{a}" for a in range(200)], [[0] * 200], ["x"], 0)
        oracle = EnvOracle(env, 0)
        oracle.start(1)
        for bad in (np.array([-1], dtype=np.int8), np.array([-128], dtype=np.int8),
                    np.array([-1], dtype=np.int16), np.array([200], dtype=np.uint8)):
            with pytest.raises(InputError):
                oracle.step(bad)
        for good in (np.array([127], dtype=np.int8), np.array([199], dtype=np.uint8)):
            assert oracle.step(good).tolist() == [0]
        assert oracle.steps == 2

    def test_step_before_start_is_refused_and_counts_nothing(self):
        oracle = EnvOracle(make_line(4), 0)
        for actions in (1, np.array([1, 0])):
            with pytest.raises(InputError, match="start"):
                oracle.step(actions)
        assert (oracle.resets, oracle.steps) == (0, 0)
        oracle.start(2)
        assert oracle.step(np.array([1, 0])).tolist() == [1, 0]

    def test_an_oracle_refuses_a_start_state(self):
        # the oracle's hidden start state is fixed; an x0 next to it would be ignored
        oracle = EnvOracle(make_line(4), 0)
        with pytest.raises(InputError, match="x0"):
            learn(oracle, 3, 8)
        with pytest.raises(InputError, match="x0"):
            explore(oracle, 3, 2)
        assert (oracle.resets, oracle.steps) == (0, 0)
        model, report = learn(oracle, None, 12)
        assert report.converged and model.n_states == 4

    def test_learn_ends_its_last_batch(self):
        # a kept oracle holds no sessions, whether the run ends at a trie depth's
        # fill, in a certificate suite or in a table build
        arm = make_arm(ArmSpec(2, 6, frozenset({(1, 1), (4, 4)}), (0, 0)))
        env = make_random(6, 2, 7, pointed=True)
        for system, max_depth, min_depth in ((env, 18, 12), (env, 18, 2), (arm, 68, 2)):
            oracle = EnvOracle(system, system.initial)
            _, report = learn(oracle, None, max_depth, min_depth=min_depth)
            assert report.converged
            assert oracle._cur.size == 0
            assert (oracle.resets, oracle.steps) == (report.oracle_resets, report.oracle_steps)

    def test_exploration_costs_one_walk_per_leaf(self):
        env = make_line(4)
        oracle = EnvOracle(env, 0)
        depth = 6
        explore(oracle, None, depth)
        assert oracle.resets == 2 ** depth
        assert oracle.steps == depth * 2 ** depth
