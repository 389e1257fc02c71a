import tracemalloc
from collections import deque

import pytest

from dtslearn import (
    ArmSpec,
    InputError,
    PreconditionError,
    TransitionSystem,
    are_bisimilar,
    couple,
    diamond,
    greatest_bisimulation,
    has_nontrivial_autobisimulation,
    induced_label,
    is_surpriseless,
    learn,
    make_arm,
    make_cycle,
    make_line,
    make_random,
    msr,
    partition_from_labels,
    quotient,
    star,
    with_induced_labels,
)
from dtslearn.acceptance import _rand_partition
from dtslearn.envs import SplitMix64


def one_state(env, label=None):
    state_labels = [label] if label else None
    return TransitionSystem.from_tables(
        env.action_names, [[0] * env.n_actions], state_labels, initial=0)


def learned_model(env):
    model, report = learn(env, 0, max_depth=2 * env.n_states + 4)
    assert report.converged
    return model


class TestCouple:
    def test_env_with_its_own_copy_stays_diagonal(self):
        env = make_line(4)
        prod = couple(env, env.unlabeled(), 0, 0)
        assert prod.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_one_state_internal_tracks_the_env(self):
        env = make_line(4)
        prod = couple(env, one_state(env), 0, 0)
        assert len(prod.pairs) == 4

    def test_learned_model_pairs_form_a_bijection(self):
        env = make_line(4)
        prod = couple(env, learned_model(env), 0, 0)
        assert len(prod.pairs) == 4
        assert len({x for x, _ in prod.pairs}) == 4
        assert len({i for _, i in prod.pairs}) == 4

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            couple(make_line(4), one_state(make_cycle(4)), 0, 0)

    def test_unlabeled_env_rejected(self):
        env = make_line(4)
        with pytest.raises(InputError):
            couple(env.unlabeled(), one_state(env), 0, 0)


def reference_access_words(env, internal, x0, i0):
    """Each reachable pair's first BFS word, from explicit parent links; pairs in BFS order."""
    parent = {(x0, i0): None}
    queue = deque([(x0, i0)])
    order = []
    while queue:
        pair = queue.popleft()
        order.append(pair)
        x, i = pair
        for a in range(env.n_actions):
            nxt = (env.delta[x][a], internal.delta[i][a])
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    words = {}
    for pair in order:
        word, link = [], parent[pair]
        while link is not None:
            pair_above, a = link
            word.append(a)
            link = parent[pair_above]
        words[pair] = tuple(reversed(word))
    return order, words


def random_coupling(rng, kind):
    """An environment and an internal system as the surprise/bisimulation check draws them."""
    n = 2 + rng.below(5)
    env = make_random(n, 2, rng.next_u64(), pointed=bool(rng.below(2)))
    if kind == 0:
        return env, one_state(env), 0
    if kind == 1:
        model = learned_model(env)
        return env, model, model.initial
    internal, projection = quotient(env.unlabeled(), msr(env, _rand_partition(rng, n)))
    return env, internal, projection(0)


@pytest.fixture(scope="module")
def arm_and_quotient():
    arm = make_arm(ArmSpec(3, 30, frozenset(), (0, 0, 0)))
    return arm, quotient(arm, msr(arm, partition_from_labels(arm)))[0]


class TestAccessWords:
    def test_a_pair_entered_twice_takes_its_first_entry(self):
        # state 3 is entered from 1 and from 2, and 1 and 2 only from 0: a walk through
        # a later entry than the first would end, but spell b a, not a a
        env = TransitionSystem.from_tables(("a", "b"), [[1, 2], [3, 0], [3, 0], [0, 0]],
                                           ["x", "y", "y", "z"], initial=0)
        prod = couple(env, env, 0, 0)
        assert [prod.access_word(p) for p in range(4)] == [(), (0,), (1,), (0, 0)]

    def test_random_couplings_against_parent_links(self):
        rng = SplitMix64(25)
        outcomes = set()
        for k in range(60):
            env, internal, i0 = random_coupling(rng, k % 3)
            prod = couple(env, internal, 0, i0)
            order, words = reference_access_words(env, internal, 0, i0)
            assert prod.pairs == tuple(order)
            for p, pair in enumerate(prod.pairs):
                assert prod.access_word(p) == words[pair]
                assert diamond(prod, prod.access_word(p)) == pair
            outcomes.add((k % 3, is_surpriseless(prod)[0]))
        # every kind but the one-state internal (surprised unless the labels are uniform)
        # is seen surprised and not
        assert {(1, True), (2, True), (2, False), (0, False)} <= outcomes

    def test_out_of_range_pair(self):
        prod = couple(make_line(4), one_state(make_line(4)), 0, 0)
        for bad in (-1, 4):
            with pytest.raises(InputError, match="out of range"):
                prod.access_word(bad)

    def test_deep_witness_on_the_27000_state_arm(self, arm_and_quotient):
        # the internal system tracks joint 0 modulo 10, so only ten j0+ steps bring
        # its state 0 back, while the arm has moved off the click
        arm, _ = arm_and_quotient
        delta = [[(c // 900 % 10 * 900 + c % 900) for c in row] for row in arm.delta[:9000]]
        internal = TransitionSystem(9000, 6, arm.action_names, delta)
        prod = couple(arm, internal, 0, 0)
        assert len(prod.pairs) == 27_000
        assert is_surpriseless(prod) == (False, ((), (0,) * 10))


class TestPeakMemory:
    # the product keeps its pairs and its table, nothing the table determines: parent
    # links kept beside them took 8.0 MiB
    def test_couple_on_the_27000_state_arm(self, arm_and_quotient):
        arm, q = arm_and_quotient
        tracemalloc.start()
        try:
            prod = couple(arm, q, 0, 0)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert len(prod.pairs) == 27_000
        assert peak <= 7.6, peak

    # the union's rows stream into the refinement, whose index numpy builds as int64
    # arrays: about 15 MiB; the index as lists of boxed codes took 24.9 MiB, and a
    # stored union table 32.3 MiB
    def test_are_bisimilar_on_the_27000_state_arm(self, arm_and_quotient):
        arm, q = arm_and_quotient
        tracemalloc.start()
        try:
            bisimilar = are_bisimilar(arm, q, 0, 0)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert bisimilar
        assert peak <= 17, peak


class TestDiamond:
    def test_empty_sequence(self):
        env = make_line(4)
        prod = couple(env, one_state(env), 0, 0)
        assert diamond(prod, []) == (0, 0)

    def test_env_moves_internal_fixed(self):
        env = make_line(4)
        prod = couple(env, one_state(env), 0, 0)
        assert diamond(prod, [1]) == (1, 0)

    def test_matches_independent_walks(self):
        rng = SplitMix64(21)
        for _ in range(20):
            env = make_random(2 + rng.below(5), 2, rng.next_u64())
            internal = make_random(2 + rng.below(4), 2, rng.next_u64()).unlabeled()
            internal = TransitionSystem(internal.n_states, 2, env.action_names,
                                        internal.delta)
            prod = couple(env, internal, 0, 0)
            word = [rng.below(2) for _ in range(rng.below(8))]
            assert diamond(prod, word) == (star(env, 0, word), star(internal, 0, word))


class TestSurpriseless:
    def test_learned_model_is_surpriseless(self):
        env = make_line(4)
        prod = couple(env, learned_model(env), 0, 0)
        assert is_surpriseless(prod) == (True, None)

    def test_one_state_internal_is_surprised_with_witness(self):
        env = make_line(4)
        prod = couple(env, one_state(env), 0, 0)
        ok, witness = is_surpriseless(prod)
        assert not ok
        assert witness == ((), (1,))  # green at the start, white one step right

    def test_single_label_env_cannot_surprise(self):
        env = make_cycle(4, pointed=False)
        prod = couple(env, one_state(env), 0, 0)
        assert is_surpriseless(prod)[0]


class TestInducedLabel:
    def test_learned_model_labels(self):
        env = make_line(4)
        prod = couple(env, learned_model(env), 0, 0)
        mapping, unreachable = induced_label(prod)
        assert unreachable == ()
        names = [env.label_names[mapping(i)] for i in range(4)]
        assert names == ["green", "white", "white", "white"]

    def test_env_against_itself_recovers_its_own_labels(self):
        env = make_line(4)
        prod = couple(env, env, 0, 0)
        mapping, _ = induced_label(prod)
        assert mapping.map == env.labels

    def test_single_label_env_gives_constant(self):
        env = make_cycle(4, pointed=False)
        prod = couple(env, one_state(env), 0, 0)
        mapping, unreachable = induced_label(prod)
        assert unreachable == ()
        assert env.label_names[mapping(0)] == "blank"

    def test_surprised_coupling_rejected(self):
        env = make_line(4)
        prod = couple(env, one_state(env), 0, 0)
        with pytest.raises(PreconditionError, match="surprised"):
            induced_label(prod)


class TestGreatestBisimulation:
    def test_learned_model_relation_is_the_isomorphism_graph(self):
        env = make_line(4)
        model = learned_model(env)
        relation = greatest_bisimulation(env, model)
        assert relation == {(0, 0), (1, 1), (2, 2), (3, 3)}

    def test_contains_the_diagonal_against_itself(self):
        env = make_line(4)
        relation = greatest_bisimulation(env, env)
        assert {(s, s) for s in range(4)} <= relation

    def test_label_mismatch_excludes_the_green_state(self):
        env = make_line(4)
        relation = greatest_bisimulation(env, one_state(env, "white"))
        assert (0, 0) not in relation

    def test_unlabeled_internal_rejected(self):
        env = make_line(4)
        with pytest.raises(InputError):
            greatest_bisimulation(env, one_state(env))

    def test_maximality_exhaustively_on_small_systems(self):
        # adding any absent pair breaks the label or the step condition
        rng = SplitMix64(22)
        for _ in range(15):
            env = make_random(2 + rng.below(4), 2, rng.next_u64())
            internal = make_random(2 + rng.below(4), 2, rng.next_u64())
            internal = TransitionSystem(internal.n_states, 2, env.action_names,
                                        internal.delta, internal.labels,
                                        internal.label_names, internal.initial)
            relation = greatest_bisimulation(env, internal)
            for x in range(env.n_states):
                for i in range(internal.n_states):
                    if (x, i) in relation:
                        # the relation itself satisfies both closure conditions
                        assert env.label_name_of(x) == internal.label_name_of(i)
                        for a in range(2):
                            assert (env.delta[x][a], internal.delta[i][a]) in relation
                    else:
                        extended = relation | {(x, i)}
                        labels_ok = env.label_name_of(x) == internal.label_name_of(i)
                        steps_ok = all(
                            (env.delta[x][a], internal.delta[i][a]) in extended
                            for a in range(2))
                        assert not (labels_ok and steps_ok)


class TestBisimilar:
    def test_env_and_learned_model(self):
        env = make_line(4)
        model = learned_model(env)
        assert are_bisimilar(env, model, 0, 0)

    def test_blank_cycle_collapses_to_a_point(self):
        env = make_cycle(4, pointed=False)
        assert are_bisimilar(env, one_state(env, "blank"), 0, 0)

    def test_line_does_not_collapse(self):
        env = make_line(4)
        assert not are_bisimilar(env, one_state(env, "white"), 0, 0)


class TestAutobisimulation:
    def test_blank_cycle_rotates(self):
        assert has_nontrivial_autobisimulation(make_cycle(4, pointed=False))

    def test_line_is_rigid(self):
        assert not has_nontrivial_autobisimulation(make_line(4))

    def test_alternating_cycle_has_symmetry(self):
        delta = [[(i + 1) % 4, (i - 1) % 4] for i in range(4)]
        env = TransitionSystem.from_tables(("CW", "CCW"), delta,
                                           ["A", "B", "A", "B"])
        assert has_nontrivial_autobisimulation(env)

    def test_unlabeled_rejected(self):
        with pytest.raises(InputError):
            has_nontrivial_autobisimulation(make_line(4).unlabeled())


class TestTheoremBridge:
    def test_surpriseless_iff_bisimilar_under_induced_labels(self):
        rng = SplitMix64(23)
        for i in range(40):
            env = make_random(2 + rng.below(5), 2, rng.next_u64(),
                              pointed=bool(rng.below(2)))
            if i % 2 == 0:
                internal, i0 = one_state(env), 0
            else:
                from dtslearn import msr, quotient
                from dtslearn.partitions import Partition

                width = 1 + rng.below(env.n_states)
                raw = [rng.below(width) for _ in range(env.n_states)]
                stable = msr(env.unlabeled(), Partition.from_block_of(raw))
                internal, projection = quotient(env.unlabeled(), stable)
                i0 = projection(0)
            prod = couple(env, internal, 0, i0)
            quiet = is_surpriseless(prod)[0]
            if quiet:
                assert are_bisimilar(env, with_induced_labels(prod), 0, i0)
            else:
                with pytest.raises(PreconditionError):
                    induced_label(prod)

    def test_truncated_history_tree_never_surprises(self):
        # every finite action word is its own internal state, so no state
        # can be reached along two different histories
        rng = SplitMix64(24)
        for _ in range(10):
            env = make_random(2 + rng.below(5), 2, rng.next_u64())
            depth = 2 + rng.below(4)
            seen = {}
            queue = [((), 0)]
            while queue:
                word, x = queue.pop()
                assert seen.setdefault(word, env.labels[x]) == env.labels[x]
                if len(word) < depth:
                    for a in range(2):
                        queue.append((word + (a,), env.delta[x][a]))
