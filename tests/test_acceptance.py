"""Acceptance gate: every check must pass, within its time budget, at seed 42."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dtslearn.acceptance import _CHECKS, run_all, run_check

SEED = 42

# the detail column of ``dtslearn verify`` per seed: every draw and count of the suite shows here
_COMMON = (
    "4-state model at depth 8, isomorphic/bisimilar/surpriseless",
    "4-state model at depth 6",
    "34-state arm recovered at depth 14 (75661 resets, 805326 steps)",
    "200 instances, bit-exact agreement",
    "100 covers, refinement commutes and quotients agree",
    "100 pointed instances, all refine to the identity",
)
PINNED_DETAILS = {
    42: _COMMON + (
        "100 couplings (58 surpriseless, 42 surprised), all agree",
        "100 systems (54 symmetric, 46 chiral), engine agrees with the pairwise oracle",
        "1-state model: bisimilar and surpriseless, not isomorphic",
        "100 seeds, items (1)-(11) all hold",
    ),
    7: _COMMON + (
        "100 couplings (60 surpriseless, 40 surprised), all agree",
        "100 systems (58 symmetric, 42 chiral), engine agrees with the pairwise oracle",
        "1-state model: bisimilar and surpriseless, not isomorphic",
        "100 seeds, items (1)-(11) all hold",
    ),
}
_ROW = re.compile(r"(PASS|FAIL) +(\d+) +.+? +\d+\.\d\ds  (.*)")


@pytest.mark.parametrize("index", range(1, len(_CHECKS) + 1),
                         ids=[name for name, _, _ in _CHECKS])
def test_acceptance_check(index):
    result = run_check(index, SEED)
    status = "PASS" if result.ok else "FAIL"
    print(f"{status}  {result.index:2d}  {result.name}  "
          f"{result.elapsed:.2f}s  {result.detail}")
    assert result.ok, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("seed", sorted(PINNED_DETAILS))
def test_verify_prints_the_pinned_details(seed, capsys):
    assert run_all(seed)
    *rows, summary = capsys.readouterr().out.splitlines()
    assert [_ROW.fullmatch(row).groups() for row in rows] == [
        ("PASS", str(i), detail) for i, detail in enumerate(PINNED_DETAILS[seed], 1)]
    assert re.fullmatch(rf"10/10 checks passed in \d+\.\ds \(seed {seed}\)", summary)


def test_suite_is_deterministic_for_a_seed():
    a = run_check(4, SEED)
    b = run_check(4, SEED)
    assert (a.ok, a.detail) == (b.ok, b.detail)


def test_surprised_coupling_accepted_by_induced_label_fails_check(monkeypatch):
    import dtslearn.acceptance

    monkeypatch.setattr(dtslearn.acceptance, "induced_label", lambda prod: None)
    result = run_check(7, SEED)
    assert not result.ok
    assert "surprised but the induced sensor map was accepted" in result.detail


_BROKEN_ENGINE = """
import sys
from dtslearn import acceptance, coupling, partitions

if not sys.flags.optimize:
    raise SystemExit("expected to run under python -O")
for index in (4, 8):
    print(index, acceptance.run_check(index, 42).ok)

def unrefined(n, n_actions, delta, block_of):
    return list(block_of), []

partitions._refine = coupling._refine = unrefined
for index in (4, 8):
    print(index, acceptance.run_check(index, 42).ok)
"""


def test_checks_catch_a_broken_engine_under_optimize_flag():
    """Gates must hold under ``python -O``, which strips ``assert`` statements."""
    import dtslearn

    src = str(Path(dtslearn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_ENGINE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:4] == ["4 True", "8 True", "4 False", "8 False"]
