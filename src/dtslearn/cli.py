"""Command-line surface.

Exit codes: 0 on success or a true property, 1 when a queried property is
false or learning did not converge, 2 on any error, so shell pipelines can
branch on the distinction.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import (
    CheckError,
    DtsError,
    InputError,
    are_isomorphic,
    is_minimally_distinguishing,
    is_strongly_connected,
)
from .coupling import are_bisimilar, couple, has_nontrivial_autobisimulation, is_surpriseless
from .envs import ArmSpec, make_arm, make_cycle, make_line, make_random
from .fileio import (
    parse_dts,
    parse_obstacles,
    parse_partition,
    to_dot,
    write_dts,
    write_partition,
)
from .learner import learn
from .partitions import (
    msr,
    msr_bruteforce,
    partition_from_labels,
    pointed_classes,
    quotient,
)


def _load(path: str):
    return parse_dts(Path(path).read_text())


def _format_word(word, action_names) -> str:
    return " ".join(action_names[a] for a in word) if word else "[]"


def _initial_of(sys, what: str) -> int:
    if sys.initial is None:
        raise InputError(f"the {what} file carries no initial state")
    return sys.initial


def _cmd_gen(args) -> int:
    if args.env == "line":
        sys_ = make_line(args.n)
    elif args.env == "cycle":
        sys_ = make_cycle(args.n)
    elif args.env == "arm":
        obstacles = frozenset()
        if args.obstacles:
            obstacles = parse_obstacles(Path(args.obstacles).read_text(),
                                        args.joints, args.resolution)
        click = (0,) * args.joints
        sys_ = make_arm(ArmSpec(args.joints, args.resolution, obstacles, click))
    else:
        sys_ = make_random(args.n, args.actions, args.seed,
                           require_min_dist=args.min_dist, pointed=args.pointed)
    Path(args.out).write_text(write_dts(sys_))
    print(f"wrote {sys_.n_states}-state system to {args.out}")
    return 0


def _cmd_check(args) -> int:
    sys_ = _load(args.infile)
    if args.prop == "strongly-connected":
        holds = is_strongly_connected(sys_)
    elif args.prop == "min-dist":
        holds = is_minimally_distinguishing(sys_)[0]
    elif args.prop == "pointed":
        holds = bool(pointed_classes(partition_from_labels(sys_)))
    else:  # chiral
        holds = not has_nontrivial_autobisimulation(sys_)
    print(f"{args.prop}: {'true' if holds else 'false'}")
    return 0 if holds else 1


def _cmd_msr(args) -> int:
    sys_ = _load(args.infile)
    if args.partition:
        e = parse_partition(Path(args.partition).read_text())
    else:
        e = partition_from_labels(sys_)
    result = msr(sys_, e)
    if args.oracle:
        reference = msr_bruteforce(sys_, e)
        if result != reference:
            raise CheckError("refinement disagrees with the brute-force oracle")
        print("oracle agreement confirmed")
    Path(args.out).write_text(write_partition(result))
    print(f"wrote {result.n_blocks}-block partition to {args.out}")
    return 0


def _cmd_quotient(args) -> int:
    sys_ = _load(args.infile)
    e = parse_partition(Path(args.partition).read_text())
    q, _ = quotient(sys_, e)
    Path(args.out).write_text(write_dts(q))
    print(f"wrote {q.n_states}-state quotient to {args.out}")
    return 0


def _cmd_iso(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    result, _ = are_isomorphic(a, b, anchored=args.anchored)
    print("isomorphic" if result else "not isomorphic")
    return 0 if result else 1


def _cmd_bisim(args) -> int:
    env = _load(args.env)
    internal = _load(args.internal)
    result = are_bisimilar(env, internal, _initial_of(env, "environment"),
                           _initial_of(internal, "internal"))
    print("bisimilar" if result else "not bisimilar")
    return 0 if result else 1


def _cmd_surprise(args) -> int:
    env = _load(args.env)
    internal = _load(args.internal)
    prod = couple(env, internal, _initial_of(env, "environment"),
                  _initial_of(internal, "internal"))
    ok, witness = is_surpriseless(prod)
    if ok:
        print("surpriseless")
        return 0
    u, u2 = witness
    print(f"surprised, witness: {_format_word(u, env.action_names)} / "
          f"{_format_word(u2, env.action_names)}")
    return 1


def _cmd_learn(args) -> int:
    env = _load(args.env)
    x0 = args.x0 if args.x0 is not None else _initial_of(env, "environment")
    model, report = learn(env, x0, args.max_depth, min_depth=args.min_depth)
    print(report.summary())
    if model is not None and args.out:
        Path(args.out).write_text(write_dts(model))
        print(f"wrote {model.n_states}-state model to {args.out}")
    return 0 if report.converged else 1


def _cmd_dot(args) -> int:
    sys_ = _load(args.infile)
    part = None
    if args.partition:
        part = parse_partition(Path(args.partition).read_text())
    Path(args.out).write_text(to_dot(sys_, part))
    print(f"wrote DOT graph to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    return 0 if run_all(args.seed) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtslearn",
        description="Deterministic transition systems: generate, refine, "
                    "quotient, compare, and learn from observations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an environment")
    p.add_argument("--env", required=True, choices=["line", "cycle", "arm", "random"])
    p.add_argument("--n", type=int, default=4, help="states (line/cycle/random)")
    p.add_argument("--joints", type=int, default=2)
    p.add_argument("--resolution", type=int, default=6)
    p.add_argument("--obstacles", help="file of forbidden arm configurations")
    p.add_argument("--actions", type=int, default=2, help="actions (random)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-dist", action="store_true",
                   help="resample until minimally distinguishing (random)")
    p.add_argument("--pointed", action="store_true",
                   help="give state 0 the only distinguished label (random)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="decide a property of a system")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--prop", required=True,
                   choices=["strongly-connected", "min-dist", "pointed", "chiral"])
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("msr", help="coarsest action-stable refinement of a partition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--partition",
                   help="start from a partition file instead of the sensor partition")
    p.add_argument("--out", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute-force enumeration (n <= 8)")
    p.set_defaults(func=_cmd_msr)

    p = sub.add_parser("quotient", help="collapse a system by a partition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("iso", help="decide isomorphism of two systems")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--anchored", action="store_true",
                   help="compare from the initial states")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("bisim", help="decide bisimilarity of the initial states")
    p.add_argument("--env", required=True)
    p.add_argument("--internal", required=True)
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("surprise", help="decide surpriselessness of a coupling")
    p.add_argument("--env", required=True)
    p.add_argument("--internal", required=True)
    p.set_defaults(func=_cmd_surprise)

    p = sub.add_parser("learn", help="learn a model through the stepping oracle")
    p.add_argument("--env", required=True)
    p.add_argument("--x0", type=int)
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--min-depth", type=int, default=2,
                   help="4 or more: N = min-depth // 2 bounds the environment's states, and "
                        "learning stops at the first depth whose model a W-method suite "
                        "certifies for every environment of at most N states; below 4 "
                        "(the default 2): no bound, stop when two successive depths agree")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("dot", help="export a system as a DOT graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--partition")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DtsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
