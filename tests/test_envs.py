import hashlib
import tracemalloc
from itertools import product
from time import perf_counter

import numpy as np
import pytest

import dtslearn.core as core
import dtslearn.envs as envs
from dtslearn import (
    ArmSpec,
    InputError,
    NotConnectedError,
    SplitMix64,
    TransitionSystem,
    is_minimally_distinguishing,
    is_strongly_connected,
    make_arm,
    make_cycle,
    make_line,
    make_random,
    msr,
    partition_from_labels,
    pointed_classes,
)
from dtslearn.envs import GenerationError, _MAX_ATTEMPTS


def reference_make_random(n, m, seed, require_min_dist=False, pointed=False):
    """The one-candidate-at-a-time generator; returns the system and the winner's index."""
    rng = SplitMix64(seed)
    action_names = tuple(f"u{a}" for a in range(m))
    for index in range(envs._MAX_ATTEMPTS):
        cand = tuple(tuple(rng.below(n) for _ in range(m)) for _ in range(n))
        sys = TransitionSystem(n, m, action_names, cand)
        if require_min_dist and not is_minimally_distinguishing(sys)[0]:
            continue
        if not is_strongly_connected(sys):
            continue
        break
    else:
        raise GenerationError("budget exhausted")
    if pointed:
        state_labels = ["click"] + ["blank"] * (n - 1)
    else:
        state_labels = [("a", "b")[rng.below(2)] for _ in range(n)]
    return TransitionSystem.from_tables(action_names, cand, state_labels, initial=0), index


class TestSplitMix64:
    def test_known_stream(self):
        # reference values of the splitmix64 stream from seed 1234567
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_below_is_in_range(self):
        rng = SplitMix64(99)
        assert all(rng.below(7) < 7 for _ in range(100))

    def test_numpy_integer_seeds_give_the_python_stream(self):
        for seed in (np.int64(-5), np.uint64(2**64 - 1), np.int32(7)):
            rng, reference = SplitMix64(seed), SplitMix64(int(seed))
            assert [rng.next_u64() for _ in range(3)] == [reference.next_u64() for _ in range(3)]
            assert type(rng.state) is int
        with pytest.raises(InputError):
            SplitMix64(2.5)

    @pytest.mark.parametrize("seed", [0, 1234567, -1, 2**64 - 1, 2**70 + 5])
    def test_block_continues_the_scalar_stream(self, seed):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        assert block.next_u64() == scalar.next_u64()
        for count in (0, 1, 7, 300):
            out = block.next_u64s(count)
            assert out.dtype == np.uint64
            assert out.tolist() == [scalar.next_u64() for _ in range(count)]
            assert block.state == scalar.state


class TestLine:
    def test_four_state_line(self):
        env = make_line(4)
        assert env.delta == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert [env.label_name_of(s) for s in range(4)] == \
            ["green", "white", "white", "white"]
        assert env.initial == 0

    def test_two_state_line_ends_absorb(self):
        env = make_line(2)
        assert env.delta[0][0] == 0  # L at the left end
        assert env.delta[1][1] == 1  # R at the right end

    def test_structure_predicates(self):
        env = make_line(4)
        assert is_strongly_connected(env)
        assert is_minimally_distinguishing(env)[0]

    def test_too_small(self):
        with pytest.raises(InputError):
            make_line(1)


class TestCycle:
    def test_four_state_cycle(self):
        env = make_cycle(4)
        assert env.delta == ((1, 3), (2, 0), (3, 1), (0, 2))
        assert env.label_name_of(0) == "click"
        assert env.label_name_of(2) == "blank"

    def test_two_state_cycle_actions_coincide(self):
        env = make_cycle(2)
        assert env.delta == ((1, 1), (0, 0))

    def test_minimally_distinguishing_for_all_sizes(self):
        for n in (2, 3, 5, 8):
            assert is_minimally_distinguishing(make_cycle(n))[0]

    def test_blank_variant_is_uniform(self):
        env = make_cycle(5, pointed=False)
        assert partition_from_labels(env).is_single_block


class TestArm:
    def test_single_joint_matches_the_cycle(self):
        arm = make_arm(ArmSpec(1, 4, frozenset(), (0,)))
        cycle = make_cycle(4)
        assert arm.delta == cycle.delta
        assert arm.labels == cycle.labels
        assert arm.action_names == ("j0+", "j0-")

    def test_free_two_joint_torus(self):
        arm = make_arm(ArmSpec(2, 4, frozenset(), (0, 0)))
        assert arm.n_states == 16
        assert is_strongly_connected(arm)
        assert is_minimally_distinguishing(arm)[0]
        assert pointed_classes(partition_from_labels(arm)) == (0,)

    def test_obstacle_blocks_and_removes_a_state(self):
        arm = make_arm(ArmSpec(2, 4, frozenset({(1, 1)}), (0, 0)))
        assert arm.n_states == 15
        free = [(a, b) for a in range(4) for b in range(4) if (a, b) != (1, 1)]
        at = free.index((0, 1))
        assert arm.delta[at][0] == at  # moving joint 0 into (1,1) is blocked

    def test_arm_is_always_minimally_distinguishing(self):
        # free moves act bijectively on the torus; blocked ones self-loop
        rng = SplitMix64(77)
        built = 0
        while built < 20:
            joints = 1 + rng.below(2)
            resolution = 3 + rng.below(3)
            cells = resolution ** joints
            blocked = frozenset(
                tuple(rng.below(resolution) for _ in range(joints))
                for _ in range(rng.below(cells // 3)))
            click = tuple(rng.below(resolution) for _ in range(joints))
            if click in blocked:
                continue
            try:
                arm = make_arm(ArmSpec(joints, resolution, blocked, click))
            except NotConnectedError:
                continue
            assert is_minimally_distinguishing(arm)[0]
            built += 1

    def test_click_on_obstacle_rejected(self):
        with pytest.raises(InputError):
            ArmSpec(1, 4, frozenset({(0,)}), (0,))

    def test_disconnected_free_space_rejected(self):
        # the click cell is walled in by its four neighbors
        spec = ArmSpec(2, 3, frozenset({(1, 0), (2, 0), (0, 1), (0, 2)}), (0, 0))
        # (1, 1) is the first stranded configuration in lexicographic order
        with pytest.raises(NotConnectedError, match=r"\(0, 0\) cannot reach \(1, 1\)"):
            make_arm(spec)

    def test_resolution_floor(self):
        with pytest.raises(InputError):
            ArmSpec(1, 2, frozenset(), (0,))


class TestRandom:
    def test_single_state(self):
        env = make_random(1, 2, 5)
        assert env.delta == ((0, 0),)
        assert is_minimally_distinguishing(env)[0]

    def test_same_seed_same_system(self):
        a = make_random(5, 2, 12345)
        b = make_random(5, 2, 12345)
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        tables = {make_random(6, 2, seed).delta for seed in range(8)}
        assert len(tables) > 1

    def test_always_strongly_connected(self):
        for seed in range(30):
            assert is_strongly_connected(make_random(2 + seed % 6, 2, seed))

    def test_unchecked_build_equals_a_checked_one(self):
        # the winner is built without the constructor's checks; a checked build of the
        # same table and labels must be the same system, down to tuple rows of plain ints
        grid = product(range(1, 9), range(1, 4), (False, True), (False, True), (5, 2024, -7))
        for n, m, require_min_dist, pointed, seed in grid:
            env = make_random(n, m, seed, require_min_dist, pointed)
            names = [env.label_names[label] for label in env.labels]
            checked = TransitionSystem.from_tables(
                [f"u{a}" for a in range(m)], [list(row) for row in env.delta], names, 0)
            assert env == checked and hash(env) == hash(checked)
            assert type(env.delta) is tuple and type(env.action_names) is tuple
            assert {tuple} == set(map(type, env.delta))
            assert {int} == {type(t) for row in env.delta for t in row}

    def test_min_dist_flag_is_honored(self):
        for seed in range(20):
            env = make_random(5, 2, seed, require_min_dist=True)
            assert is_minimally_distinguishing(env)[0]

    def test_pointed_label_layout(self):
        env = make_random(6, 2, 3, pointed=True)
        part = partition_from_labels(env)
        assert pointed_classes(part)
        assert part.blocks()[0] == (0,)

    def test_pointed_min_dist_systems_are_chiral(self):
        for seed in range(30):
            env = make_random(2 + seed % 7, 2, seed * 17 + 1,
                              require_min_dist=True, pointed=True)
            assert msr(env, partition_from_labels(env)).is_identity

    def test_state_cap(self):
        with pytest.raises(InputError):
            make_random(200_000, 2, 1)

    def test_rejection_budget_error(self, monkeypatch):
        import dtslearn.envs as envs

        monkeypatch.setattr(envs, "_MAX_ATTEMPTS", 1)
        with pytest.raises(GenerationError):
            # one uniform draw essentially never lands on a minimally
            # distinguishing strongly connected 8-state table
            envs.make_random(8, 2, 0, require_min_dist=True)
        assert _MAX_ATTEMPTS == 1_000_000  # the module default is untouched

    def test_output_budget_fails_large_tables_promptly(self):
        # uniform 2-action tables of 120 states are almost never strongly
        # connected; the budget is 2^25 stream outputs, 139,810 such candidates
        t0 = perf_counter()
        with pytest.raises(GenerationError, match="139810 candidates of 240 stream outputs"):
            make_random(120, 2, 1)
        assert perf_counter() - t0 < 5.0
        with pytest.raises(GenerationError, match="^no admissible system found in 0 candidates"):
            make_random(100_000, 400, 1)  # not one candidate fits

    def test_large_draw_peak_memory_per_cell(self):
        # one 200,000-cell candidate: its draw, search and system, at about 50 bytes a cell
        n, m = 1000, 200
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            env = make_random(n, m, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert env.n_states == n and is_strongly_connected(env)
        assert peak / (n * m) <= 60

    def test_action_cap_raises_before_drawing(self):
        # 2^18 actions over 100 states would be one 26.2-million-cell candidate
        t0 = perf_counter()
        with pytest.raises(InputError, match=f"more than {envs.MAX_ACTIONS} actions"):
            make_random(100, 1 << 18, 1)
        assert perf_counter() - t0 < 0.1
        with pytest.raises(InputError):
            make_random(2, envs.MAX_ACTIONS + 1, 1)
        assert make_random(1, envs.MAX_ACTIONS, 1).n_actions == envs.MAX_ACTIONS


# sha256 of (delta, labels, label_names) over the grid below, computed with
# the one-candidate-at-a-time generator that the batched one replaced
GOLDEN_GRID_DIGEST = "a9938ce03f5cc994dff5e848d267ab6a1c72d344fa90fe9f7e57997b86866c14"
GOLDEN_GRID_SEEDS = (0, 3, 2024, -7)


class TestRandomStream:
    def test_golden_digest(self):
        digest = hashlib.sha256()
        grid = product(range(1, 10), range(1, 4), (False, True), (False, True), GOLDEN_GRID_SEEDS)
        for n, m, require_min_dist, pointed, seed in grid:
            env = make_random(n, m, seed, require_min_dist, pointed)
            digest.update(repr((env.delta, env.labels, env.label_names)).encode())
        assert digest.hexdigest() == GOLDEN_GRID_DIGEST

    def test_matches_the_reference_loop(self):
        rng = SplitMix64(2718)
        for _ in range(2000):
            m = 1 + rng.below(3)
            require_min_dist, pointed = bool(rng.below(2)), bool(rng.below(2))
            # the reference needs thousands of candidates for larger n under these
            n = 1 + rng.below(5 if require_min_dist or m == 1 else 8)
            seed = rng.next_u64() - 2**63
            env = make_random(n, m, seed, require_min_dist, pointed)
            assert env == reference_make_random(n, m, seed, require_min_dist, pointed)[0]

    def test_small_batches_match_the_reference_loop(self, monkeypatch):
        # a batch cap below one candidate's draws, and one of a few candidates
        for cap in (1, 40):
            monkeypatch.setattr(envs, "_BATCH_DRAWS", cap)
            for seed in range(-3, 12):
                for n, m, require_min_dist in ((7, 2, False), (5, 2, True), (4, 3, True)):
                    env = make_random(n, m, seed, require_min_dist)
                    assert env == reference_make_random(n, m, seed, require_min_dist)[0]

    def test_budget_boundary_is_the_winning_candidate(self, monkeypatch):
        env, index = reference_make_random(7, 2, 11, require_min_dist=True)
        assert index >= 20  # several batches, the last one cut short by the budget
        monkeypatch.setattr(envs, "_MAX_ATTEMPTS", index)
        with pytest.raises(GenerationError):
            make_random(7, 2, 11, require_min_dist=True)
        monkeypatch.setattr(envs, "_MAX_ATTEMPTS", index + 1)
        assert make_random(7, 2, 11, require_min_dist=True) == env


def _random_tables(rng, n, m, count):
    """Uniform tables, tables with many self-loops, and bijections on each action."""
    uniform = rng.integers(0, n, size=(count, n, m))
    stay = rng.random((count, n, m)) < 0.5
    loops = np.where(stay, np.arange(n)[:, None], uniform)
    perms = np.argsort(rng.random((count, m, n)), axis=2).transpose(0, 2, 1)
    return np.concatenate([uniform, loops, perms])


def _cut_off(table):
    """Whether some state of a 2-or-more-state table has no edge to, or none from, another state."""
    n = len(table)
    entered = {t for s, row in enumerate(table) for t in row if t != s}
    stuck = any(all(t == s for t in row) for s, row in enumerate(table))
    return n > 1 and (len(entered) < n or stuck)


def _reachability_closure(tables):
    """For each of the ``(K, n, m)`` tables, whether state i reaches state j, by matrix squaring."""
    k, n, m = tables.shape
    reach = np.zeros((k, n, n), dtype=np.int64)
    reach[np.arange(k)[:, None, None], np.arange(n)[:, None], tables] = 1
    reach |= np.eye(n, dtype=np.int64)
    for _ in range(n):
        reach = np.minimum(reach @ reach, 1)
    return reach.astype(bool)


class TestBatchFilters:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agree_with_the_core_predicates(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        tables = _random_tables(rng, n, m, 40)
        min_dist = envs._minimally_distinguishing(tables)
        moves = envs._moves_in_and_out(tables)
        names = tuple(f"u{a}" for a in range(m))
        for table, md, ok in zip(tables.tolist(), min_dist, moves):
            sys = TransitionSystem(n, m, names, table)
            assert md == is_minimally_distinguishing(sys)[0]
            # the precheck rejects exactly the tables with a cut-off state, never a connected one
            assert ok == (not _cut_off(table))
            assert ok or not is_strongly_connected(sys)

    def test_search_matches_brute_force_reachability(self):
        # every table of up to 4 states and 2 actions, 66,570 in all
        for n, m in product(range(1, 5), (1, 2)):
            tables = np.array(list(product(range(n), repeat=n * m))).reshape(-1, n, m)
            expected = _reachability_closure(tables).all(axis=(1, 2)).tolist()
            assert [core._strongly_connected(t) for t in tables.tolist()] == expected
            assert n == 1 or (any(expected) and not all(expected))
            if n <= 3:
                names = tuple(f"u{a}" for a in range(m))
                assert [is_strongly_connected(TransitionSystem(n, m, names, t))
                        for t in tables.tolist()] == expected

    def test_one_cycle_matches_the_core_search(self):
        # every one-action table of up to 6 states, 50,069 in all, and random tables and
        # permutations of up to 29, the largest make_random decides in numpy
        for n in range(1, 7):
            tables = np.array(list(product(range(n), repeat=n))).reshape(-1, n)
            expected = [core._strongly_connected([[t] for t in row]) for row in tables.tolist()]
            assert envs._one_cycle(tables).tolist() == expected
            assert sum(expected) == max(1, np.prod(range(1, n)))  # (n - 1)! cycles
        rng = np.random.default_rng(16)
        for n in range(7, 30):
            tables = np.concatenate([rng.integers(0, n, (50, n)),
                                     [rng.permutation(n) for _ in range(200)]])
            expected = [core._strongly_connected([[t] for t in row]) for row in tables.tolist()]
            assert envs._one_cycle(tables).tolist() == expected
            assert any(expected)


class TestRandomArguments:
    @pytest.mark.parametrize("args", [(3.5, 2, 1), (3, 2.0, 1), (3, 2, 1.5), (3, 2, "7")])
    def test_non_integers_raise_input_error(self, args):
        with pytest.raises(InputError):
            make_random(*args)

    def test_numpy_integers_are_accepted(self):
        assert make_random(np.int64(5), np.int32(2), np.uint64(7)) == make_random(5, 2, 7)
        assert make_random(4, 2, np.int64(-7)) == make_random(4, 2, -7)
