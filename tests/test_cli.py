import glob
import hashlib
import os
import subprocess
import sys

import pytest

from tfan import ParseError, equal, make_cone
from tfan.cli import (
    format_poly,
    main,
    parse_cone_block,
    parse_poly,
    parse_problem,
    parse_sb_block,
    render_cone,
    render_polys,
)

from helpers import DOCTORED_FLAGS, P, XY, doctored_fig1_fans

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_IDEALS = sorted(glob.glob(os.path.join(REPO, "demos", "ideals", "*.ideal")))
CHECKS = ("coverage", "face-to-face", "lineality-ones", "facet-pairs")

FLIP_FILE = """\
ring t; x, y
prime 2
order weights (-1,1,1); tiebreak x > y
ideal
  2 - t
  x*y^2 - t^2*y^3
  x^2 - t^3*y^2
end
"""

FIG1_FILE = """\
ring t; x, y
order weights (-1,1,1); tiebreak x > y
ideal
  t*x^2 + x*y + t*y^2
end
"""

EX31_FILE = """\
ring t; x, y, z
order weights (-1,3,3,3); tiebreak x > y > z
ideal
  x - t^3*x + t^3*z - t^4*z
  y - t^3*y + t^2*z - t^4*z
end
"""


def run_cli(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "tfan.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


class TestParsing:
    def test_flip_file(self):
        pf = parse_problem(FLIP_FILE)
        assert pf.names == ("x", "y")
        assert pf.prime == 2
        assert len(pf.gens) == 3
        assert pf.weights == ((-1, 1, 1),)

    def test_non_homogeneous_generator(self):
        bad = FIG1_FILE.replace("t*x^2 + x*y + t*y^2", "x + t")
        with pytest.raises(ParseError, match="homogeneous"):
            parse_problem(bad)

    def test_empty_ideal(self):
        bad = "ring t; x, y\nideal\nend\n"
        with pytest.raises(ParseError, match="empty ideal"):
            parse_problem(bad)

    def test_unknown_variable(self):
        bad = FIG1_FILE.replace("x*y", "x*w")
        with pytest.raises(ParseError, match="unknown variable"):
            parse_problem(bad)

    def test_prime_requires_generator(self):
        bad = FLIP_FILE.replace("  2 - t\n", "")
        with pytest.raises(ParseError, match="p - t"):
            parse_problem(bad)

    def test_non_prime_is_parse_error(self, tmp_path, capsys):
        four = tmp_path / "four.ideal"
        four.write_text(FLIP_FILE.replace("prime 2", "prime 4").replace("  2 - t", "  4 - t"))
        assert main(["fan", str(four)]) == 2
        assert "parse error: 4 is not prime" in capsys.readouterr().err
        nine = tmp_path / "nine.ideal"
        nine.write_text(FIG1_FILE.replace("ideal\n", "prime 9\nideal\n  9 - t\n"))
        assert main(["fan", str(nine)]) == 2
        assert "parse error: 9 is not prime" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_check_samples_below_one_is_parse_error(self, tmp_path, capsys, samples):
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        with pytest.raises(SystemExit) as exc:
            main(["check", str(f), f"--samples={samples}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--samples: must be at least 1" in captured.err
        assert "PASS" not in captured.out

    def test_poly_round_trip(self):
        for s in ["2 - t", "x*y^2 - t^2*y^3", "-x^2 + t^3*y^2", "t", "-3"]:
            f = parse_poly(s, XY)
            assert parse_poly(format_poly(f, XY), XY) == f

    @pytest.mark.parametrize("bad", ["x^", "x^y", "x + ", "* x", "x @ y", "x 2"])
    def test_poly_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse_poly(bad, XY)

    def test_poly_merges_repeated_factors(self):
        assert parse_poly("x*x*t^2*t", XY) == parse_poly("t^3*x^2", XY)
        assert parse_poly("2*3*x", XY) == parse_poly("6*x", XY)


class TestBlocks:
    def test_sb_round_trip(self):
        els = (P("2 - t", XY), P("x*y^2 - t^2*y^3", XY))
        text = render_polys("SB", els, XY)
        assert parse_sb_block(text, XY) == els

    def test_cone_round_trip(self):
        hc = make_cone(4, ineqs=[(-3, 1, 0, -1), (-2, 0, 1, -1)], eqs=[(0, 1, -1, 0)])
        text = render_cone(hc)
        back = parse_cone_block(text)
        assert back == hc
        assert equal(back, hc)

    @pytest.mark.parametrize("text, message", [
        ("", "expected a block starting with 'CONE'"),
        ("CONE", "line 1: CONE line must look like 'CONE <count>'"),
        ("CONE x", "line 1: CONE count 'x' is not an integer"),
        ("CONE 0\nEND CONE", "line 1: CONE count 0 is below 1"),
        ("CONE 3\n  INEQ 1\n    1 0 0", "line 3: CONE block not closed with 'END CONE'"),
        ("CONE 3\n  INEQ 2\n    1 0 0\nEND CONE", "line 2: INEQ section declares 2 rows, found 1"),
        ("CONE 3\n  INEQ 2\n    1 0 0\n  EQ 0\nEND CONE",
         "line 2: INEQ section declares 2 rows, found 1"),
        ("CONE 3\n  INEQ 1\n    1 0\nEND CONE", "line 3: INEQ row has 2 entries, expected 3"),
        ("CONE 3\n  EQ 1\n    1 x 0\nEND CONE", "line 3: bad EQ row '1 x 0'"),
        ("CONE 3\n  FACETS 0\nEND CONE", "line 2: unknown CONE section 'FACETS'"),
    ])
    def test_malformed_cone_block_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_cone_block(text)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("text, message", [
        ("", "expected a block starting with 'SB'"),
        ("SB", "line 1: SB line must look like 'SB <count>'"),
        ("SB two\nEND SB", "line 1: SB count 'two' is not an integer"),
        ("SB 2\n  x", "line 2: SB block not closed with 'END SB'"),
        ("SB 2\n  x\nEND SB", "SB block declares 2 polynomials, found 1"),
        ("SB 1\n  x\n  y\nEND SB", "SB block declares 1 polynomials, found 2"),
    ])
    def test_malformed_sb_block_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_sb_block(text, XY)
        assert str(err.value).startswith(message)


class TestCommands:
    def test_initial_command(self, tmp_path):
        f = tmp_path / "ex31.ideal"
        f.write_text(EX31_FILE)
        res = run_cli(["initial", "--weight=-1,2,-1,1", str(f)])
        assert res.returncode == 0
        assert res.stdout.splitlines()[1:3] == ["  x", "  y + t^2*z"]

    def test_cone_command_rows(self, tmp_path):
        f = tmp_path / "ex31.ideal"
        f.write_text(EX31_FILE)
        res = run_cli(["cone", str(f), "--weight=-1,3,3,3"])
        assert res.returncode == 0
        assert "  INEQ 2" in res.stdout
        assert "    -3 1 0 -1" in res.stdout
        assert "    -2 0 1 -1" in res.stdout

    def test_fan_command_three_cones(self, tmp_path):
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        res = run_cli(["fan", str(f)])
        assert res.returncode == 0
        assert res.stdout.startswith("FAN 3")
        assert res.stdout.count("MAXCONE") == 3 + 3  # headers and END lines

    def test_parse_error_exit_code(self, tmp_path):
        f = tmp_path / "bad.ideal"
        f.write_text("ring t; x, y\nideal\n  x + t\nend\n")
        res = run_cli(["stdbasis", str(f)])
        assert res.returncode == 2
        assert "parse error" in res.stderr

    def test_computation_error_exit_code(self, tmp_path):
        # generic-stream member 17: initial reduction diverges without a prime
        f = tmp_path / "diverges.ideal"
        f.write_text("ring t; x, y, z\nideal\n  -x*y - x^2 + 3*t^2*z^2\n"
                     "  -3*t^2*z + 3*t*z\nend\n")
        res = run_cli(["inred", str(f)])
        assert res.returncode == 1
        assert "error: InredDiverged" in res.stderr
        assert "t-degree limit 48" in res.stderr

    def test_inred_command(self, tmp_path):
        f = tmp_path / "flip.ideal"
        f.write_text(FLIP_FILE)
        res = run_cli(["inred", str(f)])
        assert res.returncode == 0
        assert "t^3*y^4" in res.stdout

    def test_stdbasis_command(self, tmp_path):
        f = tmp_path / "flip.ideal"
        f.write_text(FLIP_FILE)
        res = run_cli(["stdbasis", str(f)])
        assert res.returncode == 0
        lines = [l.strip() for l in res.stdout.splitlines()]
        assert lines[0] == "SB 4"
        assert "t^3*y^4" in lines and "2 - t" in lines

    def test_slice_command(self, tmp_path):
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        res = run_cli(["slice", str(f), "--weight=-1,1,1", "--fix=t=-1"])
        assert res.returncode == 0
        assert "V-POLYHEDRON" in res.stdout
        assert "VERTICES 2" in res.stdout

    def test_slice_command_two_fixed_coordinates(self, tmp_path):
        f = tmp_path / "ex31.ideal"
        f.write_text(EX31_FILE)
        res = run_cli(["slice", str(f), "--weight=-1,3,3,3", "--fix=t=-1,z=1"])
        assert res.returncode == 0
        assert "VERTICES 1" in res.stdout
        assert "    -1 -2 -1 1" in res.stdout  # apex at w1=3w0+w3, w2=2w0+w3

    @pytest.mark.parametrize("path", DEMO_IDEALS,
                             ids=[os.path.basename(p)[:-6] for p in DEMO_IDEALS])
    def test_check_command(self, path):
        res = run_cli(["check", path, "--samples=50"])
        assert res.returncode == 0
        for name in ("fan-computed",) + CHECKS:
            assert f"PASS {name}" in res.stdout

    @pytest.mark.parametrize("broken", CHECKS)
    def test_check_command_fails_on_doctored_fan(self, tmp_path, capsys, monkeypatch,
                                                 broken):
        doctored = doctored_fig1_fans()[broken]
        monkeypatch.setattr("tfan.fan.groebner_fan", lambda *a, **k: doctored)
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        assert main(["check", str(f), "--samples=50"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("PASS fan-computed\n")
        for name in CHECKS:
            assert (f"FAIL {name}: " in out) == (name in DOCTORED_FLAGS[broken])
            assert (f"PASS {name}\n" in out) == (name not in DOCTORED_FLAGS[broken])

    def test_check_command_uses_weight(self, tmp_path, capsys):
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        assert main(["check", str(f), "--weight=1,1,1", "--samples=10"]) == 1
        captured = capsys.readouterr()
        assert "error: InvalidInput" in captured.err
        assert "PASS" not in captured.out
        assert main(["check", str(f), "--weight=-1,3,1", "--samples=10"]) == 0
        out = capsys.readouterr().out
        for name in ("fan-computed", "coverage", "face-to-face",
                     "lineality-ones", "facet-pairs"):
            assert f"PASS {name}" in out

    @pytest.mark.parametrize("command", ["fan", "check"])
    def test_threads_flag_rejected(self, tmp_path, capsys, command):
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        with pytest.raises(SystemExit) as exc:
            main([command, str(f), "--threads=4"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_max_steps_flag_rejected(self, capsys):
        # the step cap is the fixed division.STEP_CAP, not an option
        with pytest.raises(SystemExit) as exc:
            main(["fan", os.path.join(REPO, "demos", "ideals", "flip.ideal"),
                  "--max-steps=5"])
        assert exc.value.code == 2
        assert "--max-steps" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--prime=2", "--tiebreak=y>x"])
    def test_override_flags_rejected(self, capsys, flag):
        # the prime and the tiebreak come from the problem file only
        with pytest.raises(SystemExit) as exc:
            main(["fan", os.path.join(REPO, "demos", "ideals", "flip.ideal"), flag])
        assert exc.value.code == 2
        assert flag.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["cone", "--weight=-1,1/0,1"],
        ["slice", "--weight=-1,1,1", "--fix=t=abc"],
        ["slice", "--weight=-1,1,1", "--fix=t=1/0"],
        ["slice", "--weight=-1,1,1", "--fix=t"],
        ["slice", "--weight=-1,1,1", "--fix=t="],
    ], ids=["weight-zero-denominator", "fix-not-a-number", "fix-zero-denominator",
            "fix-without-equals", "fix-empty-value"])
    def test_bad_rational_argument_is_parse_error(self, tmp_path, capsys, args):
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        assert main([args[0], str(f), *args[1:]]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["stdbasis"], ["inred"], ["initial"], ["cone"], ["fan"],
        ["slice", "--fix=t=-1"], ["check", "--samples=10"],
    ], ids=lambda args: args[0])
    def test_empty_weight_is_parse_error(self, tmp_path, capsys, args):
        # an empty --weight= names no weight, and no command falls back to
        # the default weight for it
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        assert main([args[0], str(f), "--weight=", *args[1:]]) == 2
        assert "weight vector has length 0" in capsys.readouterr().err

    def test_zero_denominator_in_order_weights_is_parse_error(self, tmp_path, capsys):
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE.replace("(-1,1,1)", "(-1,1/0,1)"))
        assert main(["cone", str(f)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_in_process_main(self, tmp_path, capsys):
        f = tmp_path / "fig1.ideal"
        f.write_text(FIG1_FILE)
        assert main(["initial", "--weight=-1,1,1", str(f)]) == 0
        out = capsys.readouterr().out
        assert "x*y" in out


class TestDeterminism:
    def test_fan_bytes_identical_across_runs(self, tmp_path):
        f = tmp_path / "flip.ideal"
        f.write_text(FLIP_FILE)
        runs = [run_cli(["fan", str(f)]), run_cli(["fan", str(f)])]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout


# One weight per demo file (fig1, flip, linear, worked3) on a lower-dimensional
# class of its fan, so the cone commands also print cones with EQ rows.
NONGENERIC_WEIGHTS = ("-1,1,0", "-1,-1,1", "-1,1,1,1", "-1,2,-1,1")
CLI_SHA256 = "073bd1f700f29a041642a392eef9e92d2c63e45ee6e1974698c0044e2cc97732"


def test_cli_output_unchanged(capsys):
    """One sha256 over the exit code and output of every command on the demo files."""
    assert [os.path.basename(p) for p in DEMO_IDEALS] == [
        "fig1.ideal", "flip.ideal", "linear.ideal", "worked3.ideal"]
    digest = hashlib.sha256()
    for path, weight in zip(DEMO_IDEALS, NONGENERIC_WEIGHTS):
        name = os.path.basename(path)[:-len(".ideal")]
        runs = [["fan"], ["stdbasis"], ["inred"]]
        for w in ([], [f"--weight={weight}"]):
            runs += [["initial", *w], ["cone", *w], ["slice", *w, "--fix=t=-1"]]
        for args in runs:
            code = main([args[0], path, *args[1:]])
            out = capsys.readouterr()
            digest.update(f"{name} {' '.join(args)} {code}\n{out.out}{out.err}".encode())
    assert digest.hexdigest() == CLI_SHA256
