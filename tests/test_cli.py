"""End-to-end command-line tests; every invocation goes through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcong
from qcong import CATALOGUE, build_suite_context, count_ck
from qcong.catalogue import CLAIM_ROWS
from qcong.cli import main

EQ_2_2_RHS = "2*q*f[2]*f[4]/f[1]^2*B(-q) - q*omega(-q)"


@pytest.fixture(scope="module")
def ctx40():
    """A suite context whose identity and congruence orders are both 40."""
    return build_suite_context(40, 10, 0, n_congruence=40)


class TestExpand:
    def test_plain_dump(self, capsys):
        assert main(["expand", "q", "--order", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t0", "1\t1"]

    def test_json_dump(self, capsys):
        assert main(["expand", "1 + q", "--order", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"order": 3, "ring": "exact", "coeffs": ["1", "1", "0"]}

    def test_mod64_ring(self, capsys):
        assert main(["expand", "-1", "--order", "1", "--ring", "mod64"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"0\t{2**64 - 1}"

    def test_parse_error_exits_2(self, capsys):
        assert main(["expand", "f[", "--order", "5"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "integer" in err

    def test_nonunit_division_exits_2(self, capsys):
        assert main(["expand", "1/q", "--order", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["(" * 250 + "q" + ")" * 250,
                                        "+".join(["q"] * 600)],
                             ids=["nested", "chained"])
    def test_too_deep_expression_exits_2(self, capsys, source):
        assert main(["expand", source, "--order", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expression is nested or chained too deeply to evaluate\n"

    def test_zero_order_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["expand", "q", "--order", "0"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --order: expected an integer >= 1, got '0'" in captured.err

    def test_source_starting_with_minus(self, capsys):
        assert main(["expand", "-f[1]", "--order", "5"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "0\t-1", "1\t1", "2\t1", "3\t0", "4\t0"]
        assert main(["expand", "--order", "3", "--json", "--", "-q"]) == 0
        assert json.loads(capsys.readouterr().out)["coeffs"] == ["0", "-1", "0"]


class TestVerify:
    def test_equal_expressions_pass(self, capsys):
        assert main(["verify", "q", "q", "--order", "10"]) == 0
        assert capsys.readouterr().out.strip() == "pass"

    def test_unequal_expressions_fail_with_witness(self, capsys):
        assert main(["verify", "q", "q + q^2", "--order", "10"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("fail")
        witness = json.loads(out.split("witness:", 1)[1])
        assert witness == {"n": 2, "lhs": 0, "rhs": 1}

    def test_counting_series_display(self, capsys):
        assert main(["verify", "C", EQ_2_2_RHS, "--order", "80"]) == 0

    def test_congruence_mode(self, capsys):
        assert main(["verify", "f[1]^2", "f[2]", "--order", "60",
                     "--mod", "2"]) == 0
        assert main(["verify", "f[1]^2", "f[2]", "--order", "60",
                     "--mod", "4"]) == 1

    def test_mod64_requires_mod(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "q", "q", "--order", "10", "--ring", "mod64"])
        assert err.value.code == 2

    def test_zero_order_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "q", "q", "--order", "0"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --order: expected an integer >= 1, got '0'" in captured.err

    @pytest.mark.parametrize("ring", ["exact", "mod64"])
    @pytest.mark.parametrize("mod", ["0", "-4", "1"])
    def test_nonpositive_modulus_exits_2(self, capsys, ring, mod):
        # mod 1 would make any two series "congruent"
        with pytest.raises(SystemExit) as err:
            main(["verify", "f[1]", "f[1]", "--order", "5", "--mod", mod,
                  "--ring", ring])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --mod: expected an integer >= 2, got '{mod}'" in captured.err

    @pytest.mark.parametrize("ring", ["exact", "mod64"])
    def test_source_starting_with_minus(self, capsys, ring):
        # eq 2-24 as the paper writes it, with no "--" before the sources
        assert main(["verify", "q*D[8,7](C)", "-D[2,0](C)", "--order", "40",
                     "--mod", "4", "--ring", ring]) == 0
        assert capsys.readouterr().out.strip() == "pass"
        # options before, between and after the sources, "=" values and an
        # abbreviated option all parse as before
        assert main(["verify", "-f[1]", "-f[1] + q^9", "--ring=" + ring,
                     "--ord", "9", "--mod=2"]) == 0
        assert main(["verify", "--mod", "2", "-q", "--order", "5", "-q^2",
                     "--ring", ring]) == 1
        passed, failed = capsys.readouterr().out.splitlines()
        assert passed == "pass"
        assert json.loads(failed.split("witness:", 1)[1])["n"] == 1

    def test_mod64_with_mod_allowed(self, capsys):
        assert main(["verify", "f[1]^8", "f[2]^4", "--order", "60",
                     "--mod", "8", "--ring", "mod64"]) == 0

    @pytest.mark.parametrize("row", CLAIM_ROWS, ids=lambda row: row[0])
    def test_catalogue_row_by_hand(self, capsys, ctx40, row):
        claim_id, _, lhs, rhs, modulus, _ = row
        entry = next(e for e in CATALOGUE if e.claim_id == claim_id)
        want = entry.run(ctx40)[0].status
        argv = ["verify", "--order", "40"]
        if modulus is not None:
            argv += ["--mod", str(modulus)]
        # the "--" form, which still reads every later token as a source
        assert main(argv + ["--", lhs, rhs]) == (0 if want == "pass" else 1)
        assert capsys.readouterr().out.split()[0] == want


class TestCheck:
    def test_known_progression_passes(self, capsys):
        assert main(["check", "--series", "C", "--progression", "8,6",
                     "--mod", "8", "--nmax", "200"]) == 0
        assert capsys.readouterr().out.strip() == "pass"

    def test_failing_progression_prints_witness(self, capsys):
        assert main(["check", "--series", "C", "--progression", "8,4",
                     "--mod", "8", "--nmax", "200"]) == 1
        out = capsys.readouterr().out
        witness = json.loads(out.split("witness:", 1)[1])
        assert witness == {"n": 1, "argument": 12, "value": 284, "residue": 4}

    def test_ck_series_verdict_matches_enumeration(self, capsys):
        code = main(["check", "--series", "Ck:2", "--progression", "2,0",
                     "--mod", "2", "--nmax", "8"])
        expected = all(count_ck(2, 2 * n) % 2 == 0 for n in range(9))
        assert code == (0 if expected else 1)

    def test_bad_series_spec(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "--series", "Ck:0", "--progression", "8,6",
                  "--mod", "8", "--nmax", "10"])
        assert err.value.code == 2

    def test_negative_nmax_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "--series", "C", "--progression", "8,6",
                  "--mod", "8", "--nmax", "-1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --nmax: expected an integer >= 0, got '-1'" in captured.err

    def test_bad_progression_spec(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "--series", "C", "--progression", "8",
                  "--mod", "8", "--nmax", "10"])
        assert err.value.code == 2

    def test_power_of_two_above_2_64_uses_exact_ring(self, capsys):
        # MOD64 cannot reduce by 2^65, so the check runs in the exact ring
        assert main(["check", "--series", "C", "--progression", "8,4",
                     "--mod", str(2**65), "--nmax", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        witness = json.loads(captured.out.split("witness:", 1)[1])
        assert witness == {"n": 0, "argument": 4, "value": 8, "residue": 8}
        assert main(["check", "--series", "C", "--progression", "8,4",
                     "--mod", str(2**64), "--nmax", "10"]) == 1
        assert json.loads(capsys.readouterr().out.split("witness:", 1)[1]) \
            == witness


class TestRelation:
    def test_known_relation_passes(self, capsys):
        assert main(["relation", "--series", "C", "--lhs", "8,7",
                     "--rhs", "2,2", "--sign", "-", "--mod", "4",
                     "--nmax", "100"]) == 0
        assert capsys.readouterr().out.strip() == "pass"

    def test_plus_sign_self_relation(self, capsys):
        assert main(["relation", "--series", "C", "--lhs", "1,0",
                     "--rhs", "1,0", "--sign", "+", "--mod", "8",
                     "--nmax", "50"]) == 0

    def test_failing_relation(self, capsys):
        assert main(["relation", "--series", "C", "--lhs", "4,1",
                     "--rhs", "4,3", "--sign", "+", "--mod", "4",
                     "--nmax", "5"]) == 1
        witness = json.loads(capsys.readouterr().out.split("witness:", 1)[1])
        assert witness["n"] == 2 and witness["residue"] == 3

    def test_power_of_two_above_2_64_uses_exact_ring(self, capsys):
        # c(8n+7) = -c(2n+2) holds mod 4, and c(7) + c(2) = 40 mod 2^65
        assert main(["relation", "--series", "C", "--lhs", "8,7",
                     "--rhs", "2,2", "--sign", "-", "--mod", str(2**65),
                     "--nmax", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        witness = json.loads(captured.out.split("witness:", 1)[1])
        assert witness["n"] == 0 and witness["residue"] == 40
    def test_negative_nmax_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["relation", "--series", "C", "--lhs", "8,4", "--rhs", "2,2",
                  "--sign", "-", "--mod", "4", "--nmax", "-1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --nmax: expected an integer >= 0, got '-1'" in captured.err


class TestOracle:
    def test_limit_counts(self, capsys):
        assert main(["oracle", "--k", "limit", "--nmax", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{n}\t{c}" for n, c in
                         enumerate([0, 1, 2, 5, 8, 14, 24, 38, 58])]

    def test_finite_k_counts(self, capsys):
        assert main(["oracle", "--k", "2", "--nmax", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{n}\t{count_ck(2, n)}" for n in range(7)]

    def test_bad_k(self):
        with pytest.raises(SystemExit) as err:
            main(["oracle", "--k", "0", "--nmax", "5"])
        assert err.value.code == 2

    def test_negative_nmax_exits_2(self, capsys):
        # the flag is named, for a finite k and for the limit alike
        for k in ("2", "limit"):
            with pytest.raises(SystemExit) as err:
                main(["oracle", "--k", k, "--nmax", "-1"])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert ("argument --nmax: expected an integer >= 0, got '-1'"
                    in captured.err)


class TestScan:
    def test_finds_published_progressions(self, capsys):
        assert main(["scan", "--amax", "8", "--mods", "4,8",
                     "--nmax", "40"]) == 0
        out = capsys.readouterr().out
        assert "c(8n+4) == 0 mod 4" in out
        assert "c(8n+6) == 0 mod 8" in out
        assert "c(8n+4) == 0 mod 8" not in out

    def test_non_power_of_two_modulus_uses_exact_ring(self, capsys):
        assert main(["scan", "--amax", "3", "--mods", "3", "--nmax", "20"]) == 0

    def test_power_of_two_above_2_64_uses_exact_ring(self, capsys):
        # 2^65 divides no c(An+B) sampled here; mod 2 the scan finds these
        assert main(["scan", "--amax", "4", "--mods", f"2,{2**65}",
                     "--nmax", "10"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "c(2n+0) == 0 mod 2 for n <= 10",
            "c(4n+0) == 0 mod 2 for n <= 10",
            "c(4n+2) == 0 mod 2 for n <= 10"]

    @pytest.mark.parametrize("flag, bad, low", [("--amax", "0", 1), ("--amax", "-2", 1),
                                                ("--nmax", "-1", 0)])
    def test_out_of_range_bound_exits_2(self, capsys, flag, bad, low):
        argv = {"--amax": "8", "--mods": "4", "--nmax": "5", flag: bad}
        with pytest.raises(SystemExit) as err:
            main(["scan", *(x for item in argv.items() for x in item)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected an integer >= {low}, got '{bad}'" in captured.err


class TestSuite:
    def test_small_suite_passes_and_writes_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["suite", "--order-identity", "40", "--order-scan", "400",
                     "--kmax", "0", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eq-1-2" in out and "oracle-c-limit" in out
        assert ", 0 fail, " in out.splitlines()[-1]
        doc = json.loads(path.read_text())
        assert doc["order_identity"] == 40 and doc["order_scan"] == 400
        assert doc["k_max"] == 0
        assert all(c["status"] == "pass" for c in doc["claims"])
        ids = [c["id"] for c in doc["claims"]]
        assert "eq-2-13-k4-m5" in ids and "eq-2-27" in ids


    def test_small_orders_run_every_claim(self, capsys):
        # the oracle reads c(0..25) whatever the identity order; the scan
        # claims cannot be checked at order 3, hence exit 1
        assert main(["suite", "--order-identity", "3", "--order-scan", "3",
                     "--kmax", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = captured.out.splitlines()[-1]
        assert summary.startswith("55 claims: ") and ", 0 fail, " in summary

    def test_order_too_small_is_not_a_pass(self, capsys):
        assert main(["suite", "--order-identity", "20",
                     "--order-scan", "10"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == \
            "63 claims: 47 pass, 0 fail, 16 order-too-small"

    @pytest.mark.parametrize("flag, bad", [("--order-identity", "0"),
                                           ("--order-scan", "0"), ("--order-scan", "x")])
    def test_zero_order_exits_2_naming_the_flag(self, capsys, flag, bad):
        # rejected while parsing, before any shared series is built
        argv = {"--order-identity": "40", "--order-scan": "400", flag: bad}
        with pytest.raises(SystemExit) as err:
            main(["suite", *(x for item in argv.items() for x in item)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected an integer >= 1, got '{bad}'" in captured.err

    def test_negative_kmax_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["suite", "--order-identity", "40", "--order-scan", "400",
                  "--kmax", "-1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --kmax: expected an integer >= 0, got '-1'" in captured.err


def _python_dash_m_env() -> dict:
    """The environment in which `python -m qcong` imports this checkout."""
    src = str(Path(qcong.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_python_dash_m_runs_the_cli(self):
        # `python -m qcong` is the console script without installing it
        env = _python_dash_m_env()
        run = subprocess.run([sys.executable, "-m", "qcong", "oracle", "--k",
                              "limit", "--nmax", "4"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["0\t0", "1\t1", "2\t2", "3\t5",
                                           "4\t8"]
        bad = subprocess.run([sys.executable, "-m", "qcong", "oracle", "--k",
                              "limit", "--nmax", "-1"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert bad.returncode == 2
        assert "argument --nmax" in bad.stderr

    @pytest.mark.parametrize("argv", [
        ["expand", "q", "--order", str(10**15)],
        ["expand", "q", "--order", str(10**15), "--ring", "mod64"],
        ["check", "--series", "C", "--progression", "8,4", "--mod", "4",
         "--nmax", str(10**15)],
        ["scan", "--amax", str(10**8), "--mods", "2", "--nmax", str(10**8)],
    ])
    def test_order_too_large_to_allocate_exits_2(self, capsys, argv):
        # numpy refuses 10^15 coefficients and more at once, before any
        # memory is touched
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: order too large to allocate")

    def test_stdout_closed_early_exits_2_without_traceback(self):
        # 20000 lines overflow the pipe, so the writer sees the closed end
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcong", "expand", "C", "--order", "20000",
             "--ring", "mod64"], env=_python_dash_m_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "0\t0\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in err


class TestBadFlagValues:
    """A progression, modulus or moduli list out of range exits 2 and names
    its flag before any series is built."""

    CHECK = ["check", "--series", "C", "--nmax", "10"]
    RELATION = ["relation", "--series", "C", "--sign", "-", "--nmax", "10"]
    SCAN = ["scan", "--amax", "8", "--nmax", "10"]
    PAIR = "expected A,B with integers A >= 1 and B >= 0, got '{}'"
    MODULUS = "expected an integer >= 2, got '{}'"

    @pytest.fixture(autouse=True)
    def no_builds(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a series was built")
        for name in ("series_c", "series_ck", "evaluate"):
            monkeypatch.setattr(f"qcong.cli.{name}", refuse)

    @pytest.mark.parametrize("argv, flag, bad, want", [
        (CHECK + ["--mod", "8"], "--progression", "0,4", PAIR.format("0,4")),
        (CHECK + ["--mod", "8"], "--progression", "8,-1", PAIR.format("8,-1")),
        (RELATION + ["--rhs", "2,2", "--mod", "4"], "--lhs", "0,7", PAIR.format("0,7")),
        (RELATION + ["--lhs", "8,7", "--mod", "4"], "--rhs", "2,-2", PAIR.format("2,-2")),
        (CHECK + ["--progression", "8,6"], "--mod", "1", MODULUS.format("1")),
        (RELATION + ["--lhs", "8,7", "--rhs", "2,2"], "--mod", "0", MODULUS.format("0")),
        (SCAN, "--mods", "0,4", MODULUS.format("0")),
        (SCAN, "--mods", "4,x", MODULUS.format("x")),
    ])
    def test_exits_2_naming_the_flag(self, capsys, argv, flag, bad, want):
        with pytest.raises(SystemExit) as err:
            main([*argv, flag, bad])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: {want}" in captured.err
