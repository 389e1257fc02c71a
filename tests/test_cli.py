import pytest

from dtslearn import (
    TransitionSystem, make_cycle, make_line, parse_dts, parse_partition, write_dts)
from dtslearn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_line(self, tmp_path, capsys):
        out = tmp_path / "line.dts"
        code, _, _ = run(capsys, "gen", "--env", "line", "--n", "4", "--out", str(out))
        assert code == 0
        assert parse_dts(out.read_text()) == make_line(4)

    def test_arm_with_obstacle_file(self, tmp_path, capsys):
        obstacles = tmp_path / "obs.txt"
        obstacles.write_text("1 1\n4 4\n")
        out = tmp_path / "arm.dts"
        code, stdout, _ = run(capsys, "gen", "--env", "arm", "--joints", "2",
                              "--resolution", "6", "--obstacles", str(obstacles),
                              "--out", str(out))
        assert code == 0
        assert "34-state" in stdout

    def test_random_is_seed_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.dts", tmp_path / "b.dts"
        run(capsys, "gen", "--env", "random", "--n", "5", "--seed", "9",
            "--out", str(a))
        run(capsys, "gen", "--env", "random", "--n", "5", "--seed", "9",
            "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_bad_parameters_exit_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--env", "line", "--n", "1",
                           "--out", str(tmp_path / "x.dts"))
        assert code == 2
        assert "error" in err


class TestCheck:
    def test_chiral_line(self, tmp_path, capsys):
        path = tmp_path / "line.dts"
        path.write_text(write_dts(make_line(4)))
        assert run(capsys, "check", "--in", str(path), "--prop", "chiral")[0] == 0

    def test_blank_cycle_is_not_chiral(self, tmp_path, capsys):
        path = tmp_path / "cycle.dts"
        path.write_text(write_dts(make_cycle(4, pointed=False)))
        code, stdout, _ = run(capsys, "check", "--in", str(path), "--prop", "chiral")
        assert code == 1
        assert "false" in stdout

    def test_all_props_on_the_line(self, tmp_path, capsys):
        path = tmp_path / "line.dts"
        path.write_text(write_dts(make_line(4)))
        for prop in ("strongly-connected", "min-dist", "pointed"):
            assert run(capsys, "check", "--in", str(path), "--prop", prop)[0] == 0

    def test_unlabeled_pointed_check_errors(self, tmp_path, capsys):
        path = tmp_path / "bare.dts"
        path.write_text(write_dts(make_line(4).unlabeled()))
        assert run(capsys, "check", "--in", str(path), "--prop", "pointed")[0] == 2


class TestMsrAndQuotient:
    def test_msr_with_oracle(self, tmp_path, capsys):
        src = tmp_path / "line.dts"
        src.write_text(write_dts(make_line(4)))
        out = tmp_path / "part.txt"
        code, stdout, _ = run(capsys, "msr", "--in", str(src), "--out", str(out),
                              "--oracle")
        assert code == 0
        assert "oracle agreement" in stdout
        assert parse_partition(out.read_text()).is_identity

    def test_oracle_disagreement_exits_two(self, tmp_path, capsys, monkeypatch):
        import dtslearn.cli
        from dtslearn import Partition

        monkeypatch.setattr(dtslearn.cli, "msr",
                            lambda sys_, e: Partition.single_block(sys_.n_states))
        src = tmp_path / "line.dts"
        src.write_text(write_dts(make_line(4)))
        code, _, stderr = run(capsys, "msr", "--in", str(src), "--out",
                              str(tmp_path / "part.txt"), "--oracle")
        assert code == 2
        assert stderr.startswith("error:") and "oracle" in stderr

    def test_msr_from_partition_file(self, tmp_path, capsys):
        src = tmp_path / "cycle.dts"
        src.write_text(write_dts(make_cycle(4, pointed=False)))
        part = tmp_path / "start.txt"
        part.write_text("0 1 2 3\n")
        out = tmp_path / "stable.txt"
        assert run(capsys, "msr", "--in", str(src), "--partition", str(part),
                   "--out", str(out))[0] == 0
        assert parse_partition(out.read_text()).is_single_block

    def test_quotient_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "cycle.dts"
        src.write_text(write_dts(make_cycle(4, pointed=False)))
        part = tmp_path / "halves.txt"
        part.write_text("0 2\n1 3\n")
        out = tmp_path / "q.dts"
        assert run(capsys, "quotient", "--in", str(src), "--partition", str(part),
                   "--out", str(out))[0] == 0
        assert parse_dts(out.read_text()).n_states == 2

    def test_insufficient_partition_exits_two(self, tmp_path, capsys):
        src = tmp_path / "line.dts"
        src.write_text(write_dts(make_line(4)))
        part = tmp_path / "labels.txt"
        part.write_text("0\n1 2 3\n")
        code, _, err = run(capsys, "quotient", "--in", str(src),
                           "--partition", str(part), "--out",
                           str(tmp_path / "q.dts"))
        assert code == 2
        assert "not sufficient" in err


class TestEndToEnd:
    def test_gen_learn_iso_pipeline(self, tmp_path, capsys):
        env_file = tmp_path / "env.dts"
        model_file = tmp_path / "model.dts"
        assert run(capsys, "gen", "--env", "line", "--n", "4",
                   "--out", str(env_file))[0] == 0
        code, stdout, _ = run(capsys, "learn", "--env", str(env_file),
                              "--max-depth", "12", "--out", str(model_file))
        assert code == 0
        assert "converged at depth 8" in stdout
        assert "oracle calls" in stdout
        code, _, _ = run(capsys, "iso", "--a", str(env_file), "--b", str(model_file),
                         "--anchored")
        assert code == 0

    def test_min_depth_flag_rules_out_early_agreement(self, tmp_path, capsys):
        # the early-agreement system of the learner tests: blank states alias
        # at low horizons, so only the certificate under a bound of 8 states
        # gives the exact model
        env_file = tmp_path / "env.dts"
        env_file.write_text(write_dts(TransitionSystem.from_tables(
            ("u0", "u1"),
            [[0, 6], [3, 3], [0, 4], [4, 5], [2, 7], [5, 1], [5, 6], [6, 2]],
            ["click"] + ["blank"] * 7, 0)))
        for floor, isomorphic in ((None, 1), ("16", 0)):
            model_file = tmp_path / f"model{floor}.dts"
            flags = ["--min-depth", floor] if floor else []
            code, stdout, _ = run(capsys, "learn", "--env", str(env_file), "--max-depth", "22",
                                  *flags, "--out", str(model_file))
            assert code == 0 and "resets" in stdout.splitlines()[0]
            assert ("certified at depth" in stdout) == bool(floor)
            assert run(capsys, "iso", "--a", str(env_file), "--b", str(model_file),
                       "--anchored")[0] == isomorphic

    def test_surprise_witness_output(self, tmp_path, capsys):
        env_file = tmp_path / "env.dts"
        env_file.write_text(write_dts(make_line(4)))
        internal_file = tmp_path / "one.dts"
        internal_file.write_text(
            "dts\nstates 1\nactions L R\ninit 0\ntrans 0 L 0\ntrans 0 R 0\n")
        code, stdout, _ = run(capsys, "surprise", "--env", str(env_file),
                              "--internal", str(internal_file))
        assert code == 1
        assert "[] / R" in stdout

    def test_bisim_of_blank_cycle_and_point(self, tmp_path, capsys):
        env_file = tmp_path / "env.dts"
        env_file.write_text(write_dts(make_cycle(4, pointed=False)))
        point = tmp_path / "pt.dts"
        point.write_text("dts\nstates 1\nactions CW CCW\nlabels blank\ninit 0\n"
                         "trans 0 CW 0\ntrans 0 CCW 0\n")
        assert run(capsys, "bisim", "--env", str(env_file),
                   "--internal", str(point))[0] == 0

    def test_dot_export(self, tmp_path, capsys):
        env_file = tmp_path / "env.dts"
        env_file.write_text(write_dts(make_line(4)))
        out = tmp_path / "g.dot"
        assert run(capsys, "dot", "--in", str(env_file), "--out", str(out))[0] == 0
        assert out.read_text().count(" -> ") == 8

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["check", "--in", str(tmp_path / "nope.dts"),
                     "--prop", "chiral"])
        assert code == 2

    def test_unbounded_depth_floor_exits_two(self, tmp_path, capsys):
        # for a bound of 20 states the 4-state line's suite outgrows SUITE_WORDS
        # at every depth: no certificate, exit 1, once deeper depths can add
        # nothing; a bound whose smallest suite outgrows it is refused, exit 2
        env_file = tmp_path / "env.dts"
        env_file.write_text(write_dts(make_line(4)))
        code, out, _ = run(capsys, "learn", "--env", str(env_file), "--max-depth", "40",
                           "--min-depth", "40")
        assert code == 1
        assert "no certificate by depth 14 for every environment of at most 20 states" in out
        code, _, err = run(capsys, "learn", "--env", str(env_file), "--max-depth", "40",
                           "--min-depth", str(10 ** 9))
        assert code == 2 and "bound" in err


class TestVerifyDeterminism:
    def test_fast_checks_repeat_identically(self, capsys):
        from dtslearn.acceptance import run_check

        first = [run_check(i, 7) for i in (1, 2, 9)]
        second = [run_check(i, 7) for i in (1, 2, 9)]
        for a, b in zip(first, second):
            assert (a.ok, a.detail) == (b.ok, b.detail)
            assert a.ok
