"""The benchmark's workloads: seeded inputs, timed tasks and correctness gates.

A workload is a set-up function, which turns the seed into inputs, and a
task list, which one timed pass runs in order, each task starting when the
previous one returns. Every task carries a gate that checks its output.

Calls into the library go through module attributes (``learner.learn``,
never a name imported from a module), so the tracer's wrappers see the
benchmark's own calls as well as the library's internal ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple

import dtslearn
from dtslearn import acceptance, core, coupling, envs, fileio, learner, partitions

COUNTS_FILE = Path(__file__).resolve().parent / "out" / "learn-arm-counts.json"


class GateError(Exception):
    """A task's output failed its correctness check."""


def gate(holds: bool, message: str):
    if not holds:
        raise GateError(message)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Workload:
    budget_s: float  # a task running longer than this counts as failed
    setup: Callable[[int], Any]
    tasks: Callable[[Any], list[Task]]


class CountingOracle(learner.EnvOracle):
    """The library's stepping oracle, with a tally of its own of what the learner asked.

    The tally is kept apart from the base class's counters so that the gate
    can check ``LearnReport`` against an independent count.
    """

    def __init__(self, env, x0):
        super().__init__(env, x0)
        self.start_calls = 0
        self.step_calls = 0
        self.sessions_started = 0
        self.sessions_stepped = 0
        self.step_s = 0.0

    def start(self, sessions):
        self.start_calls += 1
        self.sessions_started += sessions
        return super().start(sessions)

    def step(self, actions):
        t0 = perf_counter()
        out = super().step(actions)
        self.step_s += perf_counter() - t0
        self.step_calls += 1
        self.sessions_stepped += len(out)
        return out

    def tally(self) -> dict[str, float]:
        return {"start_calls": self.start_calls, "step_calls": self.step_calls,
                "sessions_started": self.sessions_started,
                "sessions_stepped": self.sessions_stepped, "step_s": self.step_s}


class Learned(NamedTuple):
    model: Any
    report: Any
    oracle: CountingOracle


def _learn_task(name: str, env, check, **options) -> Task:
    def run():
        oracle = CountingOracle(env, env.initial)
        model, report = learner.learn(oracle, None, **options)
        return Learned(model, report, oracle)
    return Task(name, run, check)


def _check_tally(out: Learned):
    gate(out.oracle.sessions_started == out.report.oracle_resets,
         f"report says {out.report.oracle_resets} resets, oracle saw {out.oracle.sessions_started}")
    gate(out.oracle.sessions_stepped == out.report.oracle_steps,
         f"report says {out.report.oracle_steps} steps, oracle saw {out.oracle.sessions_stepped}")


# --- learn-arm -------------------------------------------------------------

ARM_RESOLUTIONS = (6, 7)  # 34 and 47 free configurations
ARM_OBSTACLES = ((1, 1), (4, 4))
ARM_MAX_DEPTH = 68


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(dtslearn.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _same_counts_as_other_seeds(name: str, counts: list[int]):
    """Oracle counts of one arm must not depend on the seed: compare with earlier runs.

    Runs of the same library source in this checkout share a record keyed
    by the source digest; the first run of a source writes it.
    """
    record = json.loads(COUNTS_FILE.read_text()) if COUNTS_FILE.exists() else {}
    seen = record.setdefault(_source_digest(), {})
    if name in seen:
        gate(seen[name] == counts,
             f"{name}: {counts} resets/steps, but {seen[name]} on another seed")
        return
    seen[name] = counts
    COUNTS_FILE.parent.mkdir(exist_ok=True)
    tmp = COUNTS_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1))
    os.replace(tmp, COUNTS_FILE)


def setup_learn_arm(seed: int):
    """Both arms, with click and obstacles translated together by a seeded shift.

    Translation renumbers the states but leaves everything the learner can
    observe unchanged, so oracle counts are the same for every seed.
    """
    rng = envs.SplitMix64(seed)
    arms = []
    for res in ARM_RESOLUTIONS:
        shift = (rng.below(res), rng.below(res))

        def move(conf, res=res, shift=shift):
            return tuple((c + s) % res for c, s in zip(conf, shift))

        spec = envs.ArmSpec(2, res, frozenset(move(o) for o in ARM_OBSTACLES), move((0, 0)))
        arms.append(envs.make_arm(spec))
    return arms


def tasks_learn_arm(arms) -> list[Task]:
    tasks = []
    for env in arms:
        name = f"arm{env.n_states}"

        def check(out: Learned, env=env, name=name):
            _check_tally(out)
            gate(out.report.converged, f"{name}: learning did not converge")
            gate(core.are_isomorphic(env, out.model, anchored=True, anchor_a=env.initial)[0],
                 f"{name}: model is not isomorphic to the arm")
            _same_counts_as_other_seeds(name, [out.report.oracle_resets, out.report.oracle_steps])

        tasks.append(_learn_task(name, env, check, max_depth=ARM_MAX_DEPTH))
    return tasks


# --- learn-random ----------------------------------------------------------

RANDOM_SIZES = (5, 6, 7)
RANDOM_PER_SIZE = 34  # 102 learns per pass, so p90 has at least 10 samples above it


def setup_learn_random(seed: int):
    """Equal numbers of each size, half with a pointed sensor and half with random labels."""
    rng = envs.SplitMix64(seed)
    return [envs.make_random(n, 2, rng.next_u64(), pointed=k % 2 == 0)
            for k in range(RANDOM_PER_SIZE) for n in RANDOM_SIZES]


def tasks_learn_random(systems) -> list[Task]:
    tasks = []
    for i, env in enumerate(systems):
        name = f"random{i}.n{env.n_states}"

        def check(out: Learned, env=env, name=name):
            _check_tally(out)
            gate(out.report.converged, f"{name}: learning did not converge")
            expected = partitions.msr(env, partitions.partition_from_labels(env)).n_blocks
            gate(out.model.n_states == expected,
                 f"{name}: {out.model.n_states} model states, the quotient has {expected}")
            verdict = learner.verify_learned(env, env.initial, out.model)
            gate(verdict.bisimilar and verdict.surpriseless,
                 f"{name}: model is not bisimilar and surpriseless")

        n = env.n_states
        tasks.append(_learn_task(name, env, check, max_depth=2 * n + 6, min_depth=2 * n))
    return tasks


# --- analyze-large ---------------------------------------------------------

LINE_SIZES = (800, 1600)
BIG_ARM = (30, 30)  # 3 joints at resolution 30 with 30 obstacle cells: 26 970 states
SMALL_ARM = (10, 3)  # 3 joints at resolution 10 with 3 obstacle cells: 997 states


def _seeded_arm(rng: envs.SplitMix64, resolution: int, n_obstacles: int):
    obstacles: set[tuple[int, ...]] = set()
    while len(obstacles) < n_obstacles:
        cell = tuple(rng.below(resolution) for _ in range(3))
        if cell != (0, 0, 0):
            obstacles.add(cell)
    return envs.make_arm(envs.ArmSpec(3, resolution, frozenset(obstacles), (0, 0, 0)))


def setup_analyze_large(seed: int):
    """Systems and their .dts text; the timed pass starts from the text."""
    rng = envs.SplitMix64(seed)
    systems = {f"line{n}": envs.make_line(n) for n in LINE_SIZES}
    systems["arm"] = _seeded_arm(rng, *BIG_ARM)
    systems["arm_small"] = _seeded_arm(rng, *SMALL_ARM)
    return {name: (sys_, fileio.write_dts(sys_)) for name, sys_ in systems.items()}


def tasks_analyze_large(inputs) -> list[Task]:
    got: dict[str, Any] = {}

    def parse(name):
        def run():
            got[name] = fileio.parse_dts(inputs[name][1])
            return got[name]

        def check(parsed):
            gate(parsed == inputs[name][0], f"{name}: parsed system differs from the written one")
        return Task(f"parse.{name}", run, check)

    def refine(name):
        def run():
            got[f"msr.{name}"] = partitions.msr(got[name], partitions.partition_from_labels(got[name]))
            return got[f"msr.{name}"]

        def check(part):
            sys_ = inputs[name][0]
            gate(partitions.is_sufficient(sys_, part)[0], f"msr {name}: result is not stable")
            gate(partitions.is_refinement(part, partitions.partition_from_labels(sys_)),
                 f"msr {name}: result does not refine the labels")
            gate(part.is_identity, f"msr {name}: pointed system did not refine to the identity")
        return Task(f"msr.{name}", run, check)

    def symmetric(name):
        def check(found):
            gate(not found, f"{name}: found an autobisimulation")
        return Task(f"autobisim.{name}",
                    lambda: coupling.has_nontrivial_autobisimulation(got[name]), check)

    def canonical():
        arm = got["arm"]
        return core.canonical_form(arm, arm.initial)[0]

    def check_canonical(form):
        gate(core.canonical_form(form, form.initial)[0] == form, "canonical_form is not idempotent")

    def quotient():
        got["quotient"] = partitions.quotient(got["arm"], got["msr.arm"])
        return got["quotient"]

    def check_quotient(out):
        q, projection = out
        gate(q.n_states == got["msr.arm"].n_blocks, "quotient has the wrong size")
        gate(core.is_homomorphism(projection, inputs["arm"][0], q), "projection is not a homomorphism")

    def couple():
        arm, (q, projection) = got["arm"], got["quotient"]
        prod = coupling.couple(arm, q, arm.initial, projection(arm.initial))
        return coupling.is_surpriseless(prod)[0]

    def check_couple(quiet):
        gate(quiet, "coupling with the arm's own quotient is surprised")

    return [
        parse("line800"), refine("line800"),
        parse("line1600"), refine("line1600"),
        parse("arm"), refine("arm"),
        Task("canonical.arm", canonical, check_canonical),
        Task("quotient.arm", quotient, check_quotient),
        Task("couple.arm", couple, check_couple),
        symmetric("line1600"),
        parse("arm_small"), symmetric("arm_small"),
    ]


# --- acceptance ------------------------------------------------------------

# Check 3 is the arm, learn-arm's job. Check 6 spends most of its time in
# make_random(require_min_dist=True) on its dozen or so 8-state instances,
# so its time swings by about 30% from one suite seed to the next; the pass
# runs that generator call itself on many smaller instances instead.
ACCEPTANCE_CHECKS = (1, 2, 4, 5, 7, 8, 9, 10)
ACCEPTANCE_SEEDS_PER_PASS = 10
MIN_DIST_SIZE = 6
MIN_DIST_PER_PASS = 600


def setup_acceptance(seed: int):
    """Consecutive suite seeds (disjoint blocks for distinct seeds) and generator seeds."""
    first = seed * ACCEPTANCE_SEEDS_PER_PASS
    rng = envs.SplitMix64(seed)
    return (list(range(first, first + ACCEPTANCE_SEEDS_PER_PASS)),
            [rng.next_u64() for _ in range(MIN_DIST_PER_PASS)])


def tasks_acceptance(inputs) -> list[Task]:
    suite_seeds, generator_seeds = inputs

    def check_result(result):
        gate(result.ok, f"check {result.index} ({result.name}): {result.detail}")

    def check_generated(sys_):
        gate(core.is_strongly_connected(sys_), "generated system is not strongly connected")
        gate(core.is_minimally_distinguishing(sys_)[0],
             "generated system is not minimally distinguishing")

    checks = [Task(f"check{i}.seed{s}", lambda i=i, s=s: acceptance.run_check(i, s), check_result)
              for s in suite_seeds for i in ACCEPTANCE_CHECKS]
    generated = [Task(f"min_dist{j}", lambda s=s: envs.make_random(
                     MIN_DIST_SIZE, 2, s, require_min_dist=True), check_generated)
                 for j, s in enumerate(generator_seeds)]
    return checks + generated


WORKLOADS = {
    "learn-arm": Workload(60.0, setup_learn_arm, tasks_learn_arm),
    "learn-random": Workload(10.0, setup_learn_random, tasks_learn_random),
    "analyze-large": Workload(60.0, setup_analyze_large, tasks_analyze_large),
    "acceptance": Workload(60.0, setup_acceptance, tasks_acceptance),
}
