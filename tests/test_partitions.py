from itertools import product
from math import prod

import pytest

import dtslearn.partitions as partitions
from dtslearn import (
    CheckError,
    InputError,
    Partition,
    PreconditionError,
    StateMap,
    TransitionSystem,
    are_isomorphic,
    fiber_partition,
    generated_closure,
    is_map_closed,
    is_refinement,
    is_sufficient,
    join_partitions,
    make_cycle,
    make_line,
    make_random,
    msr,
    msr_bruteforce,
    partition_from_labels,
    pointed_classes,
    pullback,
    pushforward,
    quotient,
    star,
)
from dtslearn.acceptance import _random_cover, run_check
from dtslearn.envs import SplitMix64


def alternating_cycle(n):
    delta = [[(i + 1) % n, (i - 1) % n] for i in range(n)]
    labels = ["A" if i % 2 == 0 else "B" for i in range(n)]
    return TransitionSystem.from_tables(("CW", "CCW"), delta, labels, initial=0)


def rand_partition(rng, n):
    width = 1 + rng.below(n)
    return Partition.from_block_of([rng.below(width) for _ in range(n)])


class TestPartitionType:
    def test_canonical_numbering_enforced(self):
        with pytest.raises(InputError):
            Partition(3, 2, (1, 0, 0))
        with pytest.raises(InputError, match="numbered by smallest member"):
            Partition(3, 1, (0, -1, 0))
        with pytest.raises(InputError, match="n_blocks=3 but 2 blocks occur"):
            Partition(3, 3, (0, 1, 0))

    def test_from_block_of_canonicalizes(self):
        part = Partition.from_block_of([5, 2, 5, 9])
        assert part.block_of == (0, 1, 0, 2)

    def test_from_blocks_requires_cover(self):
        with pytest.raises(InputError):
            Partition.from_blocks(3, [[0, 1]])

    def test_from_blocks_requires_disjoint(self):
        with pytest.raises(InputError):
            Partition.from_blocks(2, [[0, 1], [1]])

    def test_public_constructors_still_validate(self):
        for build in (lambda: Partition(3, 2, (0, 2, 1)),
                      lambda: Partition(2, 2.0, (0, 1)),
                      lambda: Partition.from_block_of([]),
                      lambda: Partition.identity(0),
                      lambda: Partition.single_block(-1)):
            with pytest.raises(InputError):
                build()

    def test_blocks_roundtrip(self):
        part = Partition.from_blocks(4, [[0, 2], [1], [3]])
        assert part.blocks() == ((0, 2), (1,), (3,))


class TestPointedClasses:
    def test_line_label_partition_is_pointed(self):
        part = partition_from_labels(make_line(4))
        assert pointed_classes(part) == (0,)

    def test_single_block_has_no_points(self):
        assert pointed_classes(Partition.single_block(3)) == ()

    def test_identity_is_all_points(self):
        assert pointed_classes(Partition.identity(3)) == (0, 1, 2)


class TestFromLabels:
    def test_line(self):
        part = partition_from_labels(make_line(4))
        assert part.blocks() == ((0,), (1, 2, 3))

    def test_uniform_labels_give_one_block(self):
        part = partition_from_labels(make_cycle(4, pointed=False))
        assert part.is_single_block

    def test_distinct_labels_give_identity(self):
        sys = TransitionSystem.from_tables(("a",), [[1], [0]], ["x", "y"])
        assert partition_from_labels(sys).is_identity

    def test_unlabeled_system_is_an_error(self):
        with pytest.raises(InputError):
            partition_from_labels(make_line(4).unlabeled())


class TestGeneratedClosure:
    def test_transitive_chain(self):
        assert generated_closure(4, [(0, 1), (1, 2)]).blocks() == ((0, 1, 2), (3,))

    def test_no_pairs_gives_identity(self):
        assert generated_closure(3, []).is_identity

    def test_hand_union_find(self):
        part = generated_closure(5, [(0, 1), (2, 3), (3, 4), (1, 0)])
        assert part.blocks() == ((0, 1), (2, 3, 4))

    def test_out_of_range_pair(self):
        with pytest.raises(InputError):
            generated_closure(2, [(0, 2)])


class TestPullback:
    def test_depth_two_trie_fibers_split_by_color(self):
        # nodes of the depth-2 history tree over the line, mapped to the
        # state each word reaches; pulling back the label partition splits
        # the nodes by observed color
        env = make_line(4)
        words = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        reach = StateMap(7, 4, tuple(star(env, 0, w) for w in words))
        part = pullback(reach, partition_from_labels(env))
        green = [i for i, w in enumerate(words) if star(env, 0, w) == 0]
        assert part.blocks()[0] == tuple(green)
        assert part.n_blocks == 2

    def test_identity_through_injection(self):
        m = StateMap(3, 5, (4, 0, 2))
        assert pullback(m, Partition.identity(5)).is_identity

    def test_single_block_pulls_to_single_block(self):
        m = StateMap(3, 5, (4, 0, 2))
        assert pullback(m, Partition.single_block(5)).is_single_block

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            pullback(StateMap(3, 5, (4, 0, 2)), Partition.identity(4))


class TestPushforward:
    def test_quotient_projection_collapses_to_identity(self):
        env = alternating_cycle(4)
        e = Partition.from_blocks(4, [[0, 2], [1, 3]])
        _, projection = quotient(env, e)
        assert pushforward(projection, e).is_identity

    def test_bijection_renames_blocks(self):
        m = StateMap(3, 3, (2, 0, 1))
        e = Partition.from_blocks(3, [[0, 1], [2]])
        assert pushforward(m, e).blocks() == ((0, 2), (1,))

    def test_double_cover_of_cycle(self):
        # 8-state cover of the 4-cycle: (i, bit) with the bit flipping each move
        cycle = make_cycle(4, pointed=False)
        h = StateMap(8, 4, tuple(i // 2 for i in range(8)))
        evens_odds = Partition.from_block_of([(i // 2) % 2 for i in range(8)])
        pushed = pushforward(h, evens_odds)
        assert pushed.blocks() == ((0, 2), (1, 3))
        assert cycle.n_states == 4  # the base the cover projects onto

    def test_non_surjective_map_rejected(self):
        with pytest.raises(PreconditionError):
            pushforward(StateMap(2, 3, (0, 1)), Partition.single_block(2))

    def test_unclosed_partition_rejected(self):
        m = StateMap(3, 2, (0, 0, 1))
        with pytest.raises(PreconditionError):
            pushforward(m, Partition.identity(3))


class TestRefinement:
    def test_identity_refines_everything(self):
        rng = SplitMix64(5)
        for _ in range(10):
            n = 2 + rng.below(6)
            assert is_refinement(Partition.identity(n), rand_partition(rng, n))

    def test_one_block_coarsens_everything(self):
        rng = SplitMix64(6)
        for _ in range(10):
            n = 2 + rng.below(6)
            assert is_refinement(rand_partition(rng, n), Partition.single_block(n))

    def test_specific_pair(self):
        fine = Partition.from_blocks(4, [[0], [1, 2], [3]])
        coarse = Partition.from_blocks(4, [[0, 1, 2], [3]])
        assert is_refinement(fine, coarse)
        assert not is_refinement(coarse, fine)


class TestSufficiency:
    def test_identity_is_always_sufficient(self):
        assert is_sufficient(make_line(4), Partition.identity(4)) == (True, None)

    def test_single_block_is_always_sufficient(self):
        assert is_sufficient(make_line(4), Partition.single_block(4)) == (True, None)

    def test_line_label_partition_splits(self):
        # delta(1,L)=0 leaves the white block while delta(2,L)=1 stays
        env = make_line(4)
        ok, witness = is_sufficient(env, partition_from_labels(env))
        assert not ok
        assert witness == (1, 2, 0)

    def test_propagates_along_sequences(self):
        rng = SplitMix64(9)
        for _ in range(30):
            sys = make_random(2 + rng.below(6), 2, rng.next_u64())
            e = msr(sys, rand_partition(rng, sys.n_states))
            word = [rng.below(2) for _ in range(rng.below(8))]
            for block in e.blocks():
                landed = {e.block_of[star(sys, s, word)] for s in block}
                assert len(landed) == 1


class TestMsr:
    def test_line_labels_refine_to_identity(self):
        env = make_line(4)
        assert msr(env, partition_from_labels(env)).is_identity

    def test_identity_is_a_fixpoint(self):
        env = make_line(4)
        assert msr(env, Partition.identity(4)).is_identity

    def test_alternating_cycle_is_already_stable(self):
        rotor = TransitionSystem.from_tables(
            ("rot",), [[1], [2], [3], [0]], ["A", "B", "A", "B"])
        e = partition_from_labels(rotor)
        assert msr(rotor, e) == e
        assert msr_bruteforce(rotor, e) == e

    def test_result_is_sufficient_refinement(self):
        rng = SplitMix64(10)
        for _ in range(40):
            sys = make_random(2 + rng.below(6), 1 + rng.below(3), rng.next_u64())
            e = rand_partition(rng, sys.n_states)
            stable = msr(sys, e)
            assert is_refinement(stable, e)
            assert is_sufficient(sys, stable)[0]

    def test_agrees_with_bruteforce(self):
        rng = SplitMix64(12)
        for _ in range(40):
            sys = make_random(2 + rng.below(5), 1 + rng.below(3), rng.next_u64())
            e = rand_partition(rng, sys.n_states)
            assert msr(sys, e) == msr_bruteforce(sys, e)

    def test_bruteforce_examines_exactly_the_refinements(self, monkeypatch):
        # every partition of n states, from all n^n id tuples canonicalized
        def every_partition(n):
            return {Partition.from_block_of(ids) for ids in product(range(n), repeat=n)}

        bell = (1, 1, 2, 5, 15, 52)
        examined = []
        sufficient_ids = partitions._sufficient_ids

        def counting(delta, ids):
            examined.append(Partition.from_block_of(ids))
            return sufficient_ids(delta, ids)

        monkeypatch.setattr(partitions, "_sufficient_ids", counting)
        rng = SplitMix64(31)
        for i in range(20):
            n, m = 1 + i % 5, 1 + i // 10
            sys = make_random(n, m, rng.next_u64())
            everything = every_partition(n)
            assert len(everything) == bell[n]
            for e in everything:
                refinements = {p for p in everything if is_refinement(p, e)}
                coarsest = min((p for p in refinements if is_sufficient(sys, p)[0]),
                               key=lambda p: p.n_blocks)
                examined.clear()
                assert msr_bruteforce(sys, e) == coarsest
                assert set(examined) == refinements
                assert len(examined) == prod(bell[len(block)] for block in e.blocks())

    def test_raw_id_sufficiency_agrees_with_is_sufficient(self):
        # every id tuple over n states, canonical or not, on systems of 1-5 states
        rng = SplitMix64(33)
        for i in range(30):
            n, m = 1 + i % 5, 1 + rng.below(3)
            sys = make_random(n, m, rng.next_u64())
            for ids in product(range(n), repeat=n):
                expected = is_sufficient(sys, Partition.from_block_of(ids))[0]
                assert partitions._sufficient_ids(sys.delta, ids) == expected

    def test_acceptance_catches_a_raw_id_test_blind_to_the_last_action(self, monkeypatch):
        sufficient_ids = partitions._sufficient_ids
        monkeypatch.setattr(partitions, "_sufficient_ids",
                            lambda delta, ids: sufficient_ids([row[:-1] for row in delta], ids))
        result = run_check(4, 42)
        assert not result.ok
        assert "refinement disagrees with enumeration" in result.detail

    def test_bruteforce_refuses_two_coarsest_candidates(self, monkeypatch):
        # a stand-in keeping every split of three states into 2 or 3 blocks: no 2-block one is coarsest
        monkeypatch.setattr(partitions, "_sufficient_ids", lambda delta, ids: len(set(ids)) > 1)
        with pytest.raises(CheckError, match="no single coarsest element"):
            msr_bruteforce(make_cycle(3), Partition.single_block(3))

    def test_bruteforce_rejects_large_systems(self):
        sys = make_cycle(9)
        with pytest.raises(InputError):
            msr_bruteforce(sys, Partition.single_block(9))


class TestQuotient:
    def test_alternating_cycle_halves(self):
        env = alternating_cycle(4)
        q, projection = quotient(env, Partition.from_blocks(4, [[0, 2], [1, 3]]))
        assert q.n_states == 2
        assert q.delta == ((1, 1), (0, 0))
        assert [q.label_name_of(s) for s in range(2)] == ["A", "B"]
        assert projection.map == (0, 1, 0, 1)

    def test_quotient_by_identity_is_isomorphic(self):
        env = make_line(4)
        q, _ = quotient(env, Partition.identity(4))
        assert are_isomorphic(env, q, anchored=True)[0]

    def test_insufficient_partition_rejected_with_witness(self):
        env = make_line(4)
        with pytest.raises(PreconditionError, match="not sufficient"):
            quotient(env, partition_from_labels(env))

    def test_label_conflict_rejected(self):
        env = make_line(4)
        # {2,3} is closed under both actions but mixes labels with {0}
        e = Partition.from_blocks(4, [[0, 1], [2, 3]])
        ok, _ = is_sufficient(env.unlabeled(), e)
        if ok:
            with pytest.raises(PreconditionError, match="label"):
                quotient(env, e)

    def test_label_conflict_names_the_lowest_block_first(self):
        # one action into state 0, so every partition is sufficient. Block 0 = {0, 3}
        # differs at state 3 and block 1 = {1, 2} at state 2: the witness is the
        # lowest-numbered block's pair, not the lowest-numbered differing state
        env = TransitionSystem.from_tables(("a",), [[0]] * 4, ["p", "p", "q", "q"])
        with pytest.raises(PreconditionError) as info:
            quotient(env, Partition.from_blocks(4, [[0, 3], [1, 2]]))
        assert str(info.value) == ("partition is not label-closed: states 0 and 3 are "
                                   "equivalent but carry different labels")

    def test_label_conflict_witness_matches_a_block_by_block_scan(self):
        rng = SplitMix64(27)
        conflicts = 0
        for _ in range(300):
            n = 2 + rng.below(7)
            names = [("p", "q", "r")[rng.below(3)] for _ in range(n)]
            env = TransitionSystem.from_tables(("a",), [[0]] * n, names)
            e = rand_partition(rng, n)
            expected = None  # the first block with two labels, at its first odd state
            for block in e.blocks():
                odd = [s for s in block if names[s] != names[block[0]]]
                if odd:
                    expected = (f"partition is not label-closed: states {block[0]} and "
                                f"{odd[0]} are equivalent but carry different labels")
                    break
            if expected is None:
                q, _ = quotient(env, e)
                assert q.n_states == e.n_blocks
                continue
            conflicts += 1
            with pytest.raises(PreconditionError) as info:
                quotient(env, e)
            assert str(info.value) == expected
        assert conflicts > 100

    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("rooted", [True, False])
    def test_identity_quotient_is_the_system_itself(self, labeled, rooted, monkeypatch):
        rng = SplitMix64(28)
        for n in (1, 2, 5, 40):
            delta = [[rng.below(n) for _ in range(3)] for _ in range(n)]
            names = [("p", "q", "r")[rng.below(3)] for _ in range(n)] if labeled else None
            env = TransitionSystem.from_tables(("a", "b", "c"), delta, names,
                                               rng.below(n) if rooted else None)
            q, projection = quotient(env, Partition.identity(n))
            assert q is env and q.delta is env.delta
            assert projection == StateMap(n, n, tuple(range(n)))
            with monkeypatch.context() as patch:  # the general construction, block by block
                patch.setattr(Partition, "is_identity", property(lambda self: False))
                general = quotient(env, Partition.identity(n))
            assert general == (q, projection) and general[0] is not env

    def test_only_an_identity_of_the_right_size_is_passed_through(self):
        line = make_line(4)
        for e in (Partition.identity(5), Partition.identity(3)):
            with pytest.raises(InputError) as info:
                quotient(line, e)
            assert str(info.value) == "partition is not over the system's states"
        refused = {
            partition_from_labels(line): "partition is not sufficient: states 1 and 2 are "
                                         "equivalent but their successors under action 'L' are not",
            Partition.single_block(4): "partition is not label-closed: states 0 and 1 are "
                                       "equivalent but carry different labels",
        }
        for e, text in refused.items():
            with pytest.raises(PreconditionError) as info:
                quotient(line, e)
            assert str(info.value) == text

    def test_projection_is_homomorphism(self):
        from dtslearn import is_homomorphism

        rng = SplitMix64(14)
        for _ in range(20):
            sys = make_random(2 + rng.below(6), 2, rng.next_u64()).unlabeled()
            stable = msr(sys, rand_partition(rng, sys.n_states))
            q, projection = quotient(sys, stable)
            assert is_homomorphism(projection, sys, q)


class TestTransportLaws:
    def test_join_of_sufficient_is_sufficient(self):
        rng = SplitMix64(15)
        for _ in range(30):
            sys = make_random(2 + rng.below(6), 2, rng.next_u64())
            parts = [msr(sys, rand_partition(rng, sys.n_states)) for _ in range(2)]
            joined = join_partitions(sys.n_states, parts)
            assert is_sufficient(sys, joined)[0]

    def test_pullback_of_sufficient_is_sufficient(self):
        rng = SplitMix64(16)
        for _ in range(30):
            base = make_random(2 + rng.below(5), 2, rng.next_u64()).unlabeled()
            cover, h = _random_cover(base, rng)
            stable = msr(base, rand_partition(rng, base.n_states))
            assert is_sufficient(cover, pullback(h, stable))[0]

    def test_pushforward_of_sufficient_closed_is_sufficient(self):
        rng = SplitMix64(17)
        for _ in range(30):
            base = make_random(2 + rng.below(5), 2, rng.next_u64()).unlabeled()
            cover, h = _random_cover(base, rng)
            lifted = pullback(h, msr(base, rand_partition(rng, base.n_states)))
            assert is_map_closed(lifted, h)
            assert is_sufficient(base, pushforward(h, lifted))[0]

    def test_refinement_commutes_with_pullback(self):
        rng = SplitMix64(18)
        for _ in range(30):
            base = make_random(2 + rng.below(5), 2, rng.next_u64()).unlabeled()
            cover, h = _random_cover(base, rng)
            e1 = rand_partition(rng, base.n_states)
            assert msr(cover, pullback(h, e1)) == pullback(h, msr(base, e1))

    def test_quotients_along_pullback_are_isomorphic(self):
        rng = SplitMix64(19)
        for _ in range(20):
            base = make_random(2 + rng.below(5), 2, rng.next_u64()).unlabeled()
            cover, h = _random_cover(base, rng)
            stable = msr(base, rand_partition(rng, base.n_states))
            q_cover, _ = quotient(cover, pullback(h, stable))
            q_base, _ = quotient(base, stable)
            assert are_isomorphic(q_cover, q_base, anchored=True)[0]

    def test_pointed_partitions_refine_to_identity(self):
        rng = SplitMix64(20)
        for _ in range(30):
            n = 2 + rng.below(7)
            sys = make_random(n, 2, rng.next_u64(), require_min_dist=True)
            special = rng.below(n)
            e = Partition.from_block_of(
                [("pt",) if s == special else ("rest",) for s in range(n)])
            assert pointed_classes(e)
            assert msr(sys, e).is_identity

    def test_fibers_are_map_closed(self):
        m = StateMap(4, 2, (0, 1, 0, 1))
        assert is_map_closed(fiber_partition(m), m)

    def test_map_closed_is_the_fibers_refining(self):
        rng = SplitMix64(21)
        outcomes = set()
        for _ in range(300):
            n, k = 1 + rng.below(8), 1 + rng.below(4)
            m = StateMap(n, k, tuple(rng.below(k) for _ in range(n)))
            e = rand_partition(rng, n)
            closed = is_map_closed(e, m)
            assert closed == is_refinement(fiber_partition(m), e)
            outcomes.add(closed)
        assert outcomes == {True, False}

    def test_map_closed_refuses_a_partition_of_another_size(self):
        m = StateMap(3, 2, (0, 1, 0))
        for e in (Partition.identity(4), Partition.single_block(2)):
            with pytest.raises(InputError, match="^partitions are over different state sets$"):
                is_map_closed(e, m)
