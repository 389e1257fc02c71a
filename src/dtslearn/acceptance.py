"""Acceptance suite: end-to-end checks behind ``dtslearn verify``.

Every check is deterministic given the seed and carries a wall-clock
budget. ``run_all`` prints one PASS/FAIL line per check and returns whether
everything passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from .core import (
    PreconditionError,
    StateMap,
    TransitionSystem,
    are_isomorphic,
    is_minimally_distinguishing,
    is_strongly_connected,
    require,
)
from .coupling import (
    are_bisimilar,
    couple,
    greatest_bisimulation_pairwise,
    has_nontrivial_autobisimulation,
    induced_label,
    is_surpriseless,
    with_induced_labels,
)
from .envs import ArmSpec, SplitMix64, make_arm, make_cycle, make_line, make_random
from .learner import LearnReport, learn, verify_learned
from .partitions import (
    Partition,
    fiber_partition,
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


def _rand_partition(rng: SplitMix64, n: int) -> Partition:
    width = 1 + rng.below(n)
    return Partition.from_block_of([rng.below(width) for _ in range(n)])


def _rand_map(rng: SplitMix64, n0: int, n1: int, surjective: bool = False) -> StateMap:
    if surjective:
        table = list(range(n1)) + [rng.below(n1) for _ in range(n0 - n1)]
    else:
        table = [rng.below(n1) for _ in range(n0)]
    return StateMap(n0, n1, tuple(table))


def _random_cover(base: TransitionSystem, rng: SplitMix64) -> tuple[TransitionSystem, StateMap]:
    """Split every base state into copies; the projection is an epimorphism."""
    copies = [1 + rng.below(3) for _ in range(base.n_states)]
    offset = [0]
    for c in copies:
        offset.append(offset[-1] + c)
    projection = [t for t in range(base.n_states) for _ in range(copies[t])]
    delta = []
    for s in range(offset[-1]):
        t = projection[s]
        delta.append(tuple(offset[base.delta[t][a]] + rng.below(copies[base.delta[t][a]])
                           for a in range(base.n_actions)))
    initial = None if base.initial is None else offset[base.initial]
    cover = TransitionSystem(offset[-1], base.n_actions, base.action_names,
                             tuple(delta), initial=initial)
    return cover, StateMap(offset[-1], base.n_states, tuple(projection))


def _refine_randomly(e: Partition, rng: SplitMix64) -> Partition:
    return Partition.from_block_of([(e.block_of[s], rng.below(2))
                                    for s in range(e.n_states)])


def _coarsen_randomly(e: Partition, rng: SplitMix64) -> Partition:
    width = 1 + rng.below(e.n_blocks)
    merge = [rng.below(width) for _ in range(e.n_blocks)]
    return Partition.from_block_of([merge[b] for b in e.block_of])


def _walkthrough(env: TransitionSystem, max_depth: int, by_depth: int) -> LearnReport:
    """Learn ``env`` from its initial state by ``by_depth``; the model must match it three ways."""
    model, report = learn(env, env.initial, max_depth=max_depth)
    require(report.converged, "learning did not stabilize")
    require(report.depth_converged <= by_depth, f"stabilized too late: {report.depth_converged}")
    require(model.n_states == env.n_states,
            f"{model.n_states}-state model, expected {env.n_states}")
    result = verify_learned(env, env.initial, model)
    require(result.isomorphic and result.bisimilar and result.surpriseless,
            f"model fails verification: {result}")
    return report


def _check_fig_line(seed: int) -> str:
    depth = _walkthrough(make_line(4), 12, 8).depth_converged
    return f"4-state model at depth {depth}, isomorphic/bisimilar/surpriseless"


def _check_fig_cycle(seed: int) -> str:
    return f"4-state model at depth {_walkthrough(make_cycle(4), 12, 8).depth_converged}"


def _check_arm(seed: int) -> str:
    spec = ArmSpec(joints=2, resolution=6,
                   obstacles=frozenset({(1, 1), (4, 4)}), click=(0, 0))
    env = make_arm(spec)
    require(env.n_states == 34, f"the arm has {env.n_states} states, expected 34")
    require(is_strongly_connected(env), "the arm is not strongly connected")
    require(is_minimally_distinguishing(env)[0], "the arm is not minimally distinguishing")
    require(pointed_classes(partition_from_labels(env)), "the arm's sensor is not pointed")
    report = _walkthrough(env, 68, 68)
    return (f"34-state arm recovered at depth {report.depth_converged} "
            f"({report.oracle_resets} resets, {report.oracle_steps} steps)")


def _check_msr_oracle(seed: int) -> str:
    rng = SplitMix64(seed)
    for i in range(200):
        n = 2 + rng.below(5)
        m = 1 + rng.below(3)
        sys_ = make_random(n, m, rng.next_u64())
        e = _rand_partition(rng, n)
        fast = msr(sys_, e)
        slow = msr_bruteforce(sys_, e)  # checks uniqueness internally
        require(fast == slow, f"instance {i}: refinement disagrees with enumeration")
    return "200 instances, bit-exact agreement"


def _check_commute(seed: int) -> str:
    rng = SplitMix64(seed)
    for i in range(100):
        n = 2 + rng.below(5)
        base = make_random(n, 2, rng.next_u64()).unlabeled()
        cover, h = _random_cover(base, rng)
        e1 = _rand_partition(rng, n)
        lifted = msr(cover, pullback(h, e1))
        e1_stable = msr(base, e1)
        require(lifted == pullback(h, e1_stable), f"instance {i}: commute failed")
        q_cover, _ = quotient(cover, pullback(h, e1_stable))
        q_base, _ = quotient(base, e1_stable)
        require(are_isomorphic(q_cover, q_base, anchored=True)[0],
                f"instance {i}: quotients not isomorphic")
    return "100 covers, refinement commutes and quotients agree"


def _check_pointed(seed: int) -> str:
    rng = SplitMix64(seed)
    for i in range(100):
        n = 2 + rng.below(7)
        m = 2 if n > 5 else 2 + rng.below(2)
        sys_ = make_random(n, m, rng.next_u64(), require_min_dist=True)
        special = rng.below(n)
        width = 1 + rng.below(max(n - 1, 1))
        e = Partition.from_block_of(
            [("pt",) if s == special else ("rest", rng.below(width)) for s in range(n)])
        require(pointed_classes(e), "generated partition is not pointed")
        require(msr(sys_, e).is_identity, f"instance {i}: refinement not the identity")
    return "100 pointed instances, all refine to the identity"


def _one_state_internal(env: TransitionSystem) -> TransitionSystem:
    return TransitionSystem(1, env.n_actions, env.action_names,
                            ((0,) * env.n_actions,), initial=0)


def _check_surprise_bisim(seed: int) -> str:
    rng = SplitMix64(seed)
    surprised = surpriseless = 0
    for i in range(100):
        n = 2 + rng.below(5)
        env = make_random(n, 2, rng.next_u64(), pointed=bool(rng.below(2)))
        kind = i % 3
        if kind == 0:
            internal, i0 = _one_state_internal(env), 0
        elif kind == 1:
            internal, report = learn(env, 0, max_depth=2 * n + 4)
            require(report.converged, f"instance {i}: learning did not stabilize")
            i0 = internal.initial
        else:
            stable = msr(env, _rand_partition(rng, n))
            internal, projection = quotient(env.unlabeled(), stable)
            i0 = projection(0)
        prod = couple(env, internal, 0, i0)
        quiet = is_surpriseless(prod)[0]
        if quiet:
            surpriseless += 1
            labeled = with_induced_labels(prod)
            bisimilar = are_bisimilar(env, labeled, 0, i0)
            require(bisimilar == ((0, i0) in greatest_bisimulation_pairwise(env, labeled)),
                    f"instance {i}: bisimilarity disagrees with the pairwise oracle")
            require(bisimilar, f"instance {i}: surpriseless but not bisimilar")
        else:
            surprised += 1
            try:
                induced_label(prod)
                accepted = True
            except PreconditionError:
                accepted = False
            require(not accepted,
                    f"instance {i}: surprised but the induced sensor map was accepted")
        if kind == 2:
            labels_uniform = is_refinement(stable, partition_from_labels(env))
            require(quiet == labels_uniform, f"instance {i}: quotient prediction failed")
    require(surprised and surpriseless, "the sample never exercised both outcomes")
    return f"100 couplings ({surpriseless} surpriseless, {surprised} surprised), all agree"


def _alternating_cycle(n: int) -> TransitionSystem:
    delta = [[(i + 1) % n, (i - 1) % n] for i in range(n)]
    labels = ["A" if i % 2 == 0 else "B" for i in range(n)]
    return TransitionSystem.from_tables(("CW", "CCW"), delta, labels, initial=0)


def _check_symmetry(seed: int) -> str:
    rng = SplitMix64(seed)
    with_symmetry = 0
    for i in range(100):
        kind = i % 4
        if kind == 0:
            sys_ = make_cycle(3 + rng.below(6), pointed=True)
        elif kind == 1:
            sys_ = make_cycle(2 + rng.below(7), pointed=False)
        elif kind == 2:
            sys_ = make_random(2 + rng.below(6), 2, rng.next_u64())
        else:
            sys_ = _alternating_cycle(4 + 2 * rng.below(3))
        found = has_nontrivial_autobisimulation(sys_)
        relation = greatest_bisimulation_pairwise(sys_, sys_)
        require(found == (len(relation) > sys_.n_states),
                f"instance {i}: symmetry detection disagrees with the pairwise oracle")
        require(msr(sys_, partition_from_labels(sys_)).pairs() == relation,
                f"instance {i}: coarsest congruence differs from the pairwise oracle")
        with_symmetry += found
    without = 100 - with_symmetry
    require(with_symmetry >= 20 and without >= 20, "sample too one-sided")
    return (f"100 systems ({with_symmetry} symmetric, {without} chiral), "
            "engine agrees with the pairwise oracle")


def _check_negative_control(seed: int) -> str:
    env = make_cycle(4, pointed=False)
    model, report = learn(env, 0, max_depth=8)
    require(report.converged, "learning did not stabilize")
    require(model.n_states == 1, f"{model.n_states}-state model, expected 1")
    result = verify_learned(env, 0, model)
    require(not result.isomorphic, "a blind cycle must not be recovered exactly")
    require(result.bisimilar and result.surpriseless,
            f"a blind cycle's model must be bisimilar and surpriseless: {result}")
    return "1-state model: bisimilar and surpriseless, not isomorphic"


def _check_union_laws(seed: int) -> str:
    rng = SplitMix64(seed)
    for i in range(100):
        n0 = 2 + rng.below(5)
        n1 = 2 + rng.below(4)
        base = make_random(n1, 2, rng.next_u64()).unlabeled()
        cover, hom = _random_cover(base, rng)
        anymap = _rand_map(rng, n0, n1)
        onto = _rand_map(rng, max(n0, n1), n1, surjective=True)

        # (1) every ingredient refines the join
        parts = [_rand_partition(rng, n0) for _ in range(3)]
        joined = join_partitions(n0, parts)
        require(all(is_refinement(p, joined) for p in parts), f"instance {i}: law (1)")
        # (2) the join of stable partitions is stable
        stable = [msr(cover, _rand_partition(rng, cover.n_states)) for _ in range(2)]
        require(is_sufficient(cover, join_partitions(cover.n_states, stable))[0],
                f"instance {i}: law (2)")
        # (3) common refinements of a partition join below it
        coarse = _rand_partition(rng, n0)
        finers = [_refine_randomly(coarse, rng) for _ in range(2)]
        require(is_refinement(join_partitions(n0, finers), coarse), f"instance {i}: law (3)")
        # (4) a common refinement refines the join
        fine = _rand_partition(rng, n0)
        coarser = [_coarsen_randomly(fine, rng) for _ in range(2)]
        require(is_refinement(fine, join_partitions(n0, coarser)), f"instance {i}: law (4)")
        # (5) joining map-closed partitions stays map-closed
        closed = [_coarsen_randomly(fiber_partition(anymap), rng) for _ in range(2)]
        require(is_map_closed(join_partitions(n0, closed), anymap), f"instance {i}: law (5)")
        # (6) the fibers refine every pulled-back partition
        e1 = _rand_partition(rng, n1)
        require(is_refinement(fiber_partition(anymap), pullback(anymap, e1)),
                f"instance {i}: law (6)")
        # (7) pushing a closed partition through a surjection stays a partition
        closed_onto = _coarsen_randomly(fiber_partition(onto), rng)
        pushforward(onto, closed_onto)  # construction validates
        # (8) between the fibers and a pullback, the image lands below
        grouped = Partition.from_block_of(
            [(e1.block_of[t], rng.below(2)) for t in range(n1)])
        sandwiched = pullback(onto, grouped)
        require(is_refinement(pushforward(onto, sandwiched), e1), f"instance {i}: law (8)")
        # (9) images of stable closed partitions stay stable
        e_base = msr(base, _rand_partition(rng, n1))
        lifted = pullback(hom, e_base)
        require(is_sufficient(cover, lifted)[0], f"instance {i}: law (9), lift")
        require(is_sufficient(base, pushforward(hom, lifted))[0], f"instance {i}: law (9), image")
        # (10) pullbacks of stable partitions along homomorphisms are stable
        require(is_sufficient(cover, pullback(hom, e_base))[0], f"instance {i}: law (10)")
        # (11) the fibers of a homomorphism are stable
        require(is_sufficient(cover, fiber_partition(hom))[0], f"instance {i}: law (11)")
    return "100 seeds, items (1)-(11) all hold"


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    ok: bool
    elapsed: float
    budget: float
    detail: str


_CHECKS = (
    ("line walkthrough", 1.0, _check_fig_line),
    ("cycle walkthrough", 1.0, _check_fig_cycle),
    ("robot arm recovery", 60.0, _check_arm),
    ("refinement vs enumeration", 30.0, _check_msr_oracle),
    ("refinement commutes with covers", 30.0, _check_commute),
    ("pointed refinement is identity", 30.0, _check_pointed),
    ("surpriseless equals bisimilar", 30.0, _check_surprise_bisim),
    ("symmetry detection", 30.0, _check_symmetry),
    ("negative control", 1.0, _check_negative_control),
    ("partition algebra laws", 30.0, _check_union_laws),
)


def run_check(index: int, seed: int) -> CheckResult:
    """Run one check (1-based index) with the given seed."""
    name, budget, fn = _CHECKS[index - 1]
    start = perf_counter()
    try:
        detail = fn(seed)
        ok = True
    except Exception as exc:  # report, never crash the table
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    elapsed = perf_counter() - start
    if ok and elapsed > budget:
        ok = False
        detail += f" [exceeded {budget:.0f}s budget]"
    return CheckResult(index, name, ok, elapsed, budget, detail)


def run_all(seed: int = 42) -> bool:
    """Run every check, print a PASS/FAIL table, return overall success."""
    results = [run_check(i, seed) for i in range(1, len(_CHECKS) + 1)]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.index:2d}  {r.name:<{width}}  "
              f"{r.elapsed:7.2f}s  {r.detail}")
    total = sum(r.elapsed for r in results)
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} checks passed in {total:.1f}s (seed {seed})")
    return passed == len(results)
