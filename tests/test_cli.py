"""End-to-end command-line tests; every invocation goes through main()."""

import dataclasses
import errno
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qcong
from qcong import CATALOGUE, build_suite_context, count_ck
from qcong import qexpr
from qcong.catalogue import CLAIM_ROWS, EQ_2_3_ROWS
from qcong.cli import main
from qcong.qexpr import parse

EQ_2_2_RHS = "2*q*f[2]*f[4]/f[1]^2*B(-q) - q*omega(-q)"


@pytest.fixture(scope="module")
def ctx40():
    """A suite context whose identity and congruence orders are both 40, and
    whose scan C is as long as a congruence row reads it (8 * 40)."""
    return dataclasses.replace(build_suite_context(80, 320, 0), n_identity=40)


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


class TestLongIntegers:
    """qcong works in exact integers, so main lifts the limit of 4,300
    digits that Python puts on converting an int to or from a string."""

    def test_expand_prints_every_digit(self, capsys):
        assert main(["expand", "2^20000", "--order", "1"]) == 0
        n, value = capsys.readouterr().out.split("\t")
        assert (n, len(value.strip())) == ("0", 6021)
        assert int(value) == 2**20000

    def test_verify_reports_the_witness(self, capsys):
        assert main(["verify", "2^20000", "2^20000+1", "--order", "1"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("fail  witness: ")
        witness = json.loads(out.removeprefix("fail  witness: "))
        assert witness == {"n": 0, "lhs": 2**20000, "rhs": 2**20000 + 1}

    def test_long_literal_parses(self, capsys):
        digits = "7" * 5000
        assert main(["expand", f"{digits} - {digits}*q^0 + q", "--order", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t0", "1\t1"]


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

    @pytest.mark.parametrize("argv, message", [
        (["C", "C", "--ring", "mod64", "--mod", "3"],
         "error: modulus 3 must be a power of 2 dividing 2^64\n"),
        (["C", "f["], None),
        (["omega(q)", "f[4]*appell[0]"],
         "error: offset 5: appell[a] needs a >= 1\n"),
    ], ids=["unresolvable-modulus", "unparsable-rhs", "appell-index-0"])
    def test_bad_input_exits_2_before_building(self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kw):
            raise AssertionError("a side was built")
        monkeypatch.setattr("qcong.cli.evaluate", refuse)
        assert main(["verify", "--order", "300000", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        if message is not None:
            assert captured.err == message

    def test_mod64_with_mod_allowed(self, capsys):
        assert main(["verify", "f[1]^8", "f[2]^4", "--order", "60",
                     "--mod", "8", "--ring", "mod64"]) == 0

    @pytest.mark.parametrize("row", CLAIM_ROWS, ids=lambda row: row[0])
    def test_catalogue_row_by_hand(self, capsys, ctx40, row):
        # the suite checks a congruence row in the scan ring, and verify
        # here in the exact ring: reduction mod 2^8 keeps the verdict
        claim_id, _, lhs, rhs, modulus, _ = row
        entry = next(e for e in CATALOGUE if e.claim_id == claim_id)
        [rep] = entry.run(ctx40)
        want = rep.status
        assert want != "order-too-small"
        argv = ["verify", "--order", "40"]
        if modulus is not None:
            argv += ["--mod", str(modulus)]
        # the "--" form, which still reads every later token as a source
        assert main(argv + ["--", lhs, rhs]) == (0 if want == "pass" else 1)
        assert capsys.readouterr().out.split()[0] == want

    def test_eq_2_3_by_hand(self, capsys):
        # eq 2-3's rows, exactly and mod 2^64 past the FFT crossover, and the
        # textbook forms, which the rows rewrite to share f[2]^-1
        rows = [row[2:4] for row in EQ_2_3_ROWS.values()]
        assert rows == [("B(q)", "f[4]*(f[2]^-1)^2*appell[2]"),
                        ("omega(q)", "appell[3]*f[2]^-1")]
        for lhs, rhs in rows:
            assert main(["verify", lhs, rhs, "--order", "400"]) == 0
            assert main(["verify", lhs, rhs, "--order", "20000", "--ring",
                         "mod64", "--mod", "18446744073709551616"]) == 0
        for lhs, rhs in [("B(q)", "f[4]/f[2]^2*appell[2]"),
                         ("omega(q)", "appell[3]/f[2]")]:
            assert main(["verify", lhs, rhs, "--order", "400"]) == 0
        assert capsys.readouterr().out.split() == ["pass"] * 6
        # omega's form with B's quadratic is wrong from q^4 on
        assert main(["verify", "omega(q)", "appell[2]/f[2]", "--order", "400"]) == 1
        out = capsys.readouterr().out
        assert json.loads(out.split("witness:", 1)[1]) == {"n": 4, "lhs": 6, "rhs": 5}


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
        # the value is c(12) = 284 in the ring of the check, mod 2^8
        assert witness == {"n": 1, "value": 284 % 256, "residue": 4}

    def test_offset_past_the_step(self, capsys):
        # c(8n+12) is c(8(n+1)+4): divisible by 4, and first not by 8 at
        # n = 0, where c(12) = 284 (28 mod 2^8, the ring of the check)
        assert main(["check", "--series", "C", "--progression", "8,12",
                     "--mod", "4", "--nmax", "200"]) == 0
        assert main(["check", "--series", "C", "--progression", "8,12",
                     "--mod", "8", "--nmax", "200"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "pass"
        assert json.loads(out[1].split("witness:", 1)[1]) == {
            "n": 0, "value": 284 % 256, "residue": 4}

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
        assert witness == {"n": 0, "value": 8, "residue": 8}
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

    def test_series_is_built_once_as_deep_as_either_side_reads(self, capsys):
        calls = []
        real = qexpr._evaluate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qexpr, "_evaluate", lambda e, order, *args:
                       calls.append((e, order)) or real(e, order, *args))
            assert main(["relation", "--series", "C", "--lhs", "2,2",
                         "--rhs", "8,7", "--sign", "-", "--mod", "4",
                         "--nmax", "30"]) == 0
        # c(8n+7) at n = 30 is the deepest read: 8*30 + 7 + 1 coefficients
        assert [c for c in calls if c[0] == parse("C")] == [(parse("C"), 248)]

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from Linux's /proc")
    def test_limit_table_to_150_stays_under_64_mb(self):
        # the child reports its own peak RSS in KiB; its ru_maxrss would not
        # do, since Linux carries the spawning process's peak across exec
        code = ("import contextlib, io\n"
                "from qcong.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['oracle', '--k', 'limit', '--nmax', '150']) == 0\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                "           if line.startswith('VmHWM:')))\n")
        run = subprocess.run([sys.executable, "-c", code],
                             env=_python_dash_m_env(), capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 64 * 1024


class TestScan:
    def test_finds_published_progressions(self, capsys):
        assert main(["scan", "--amax", "8", "--mods", "4,8",
                     "--nmax", "40"]) == 0
        # every claim whole, one a line; c(8n+4) is not 0 mod 8
        assert capsys.readouterr().out.splitlines() == [
            "c(8n+4) == 0 mod 4 for n <= 40",
            "c(8n+6) == 0 mod 4 for n <= 40",
            "c(8n+6) == 0 mod 8 for n <= 40",
        ]

    def test_repeated_modulus_prints_each_claim_once(self, capsys):
        assert main(["scan", "--amax", "2", "--mods", "2,2", "--nmax", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["c(2n+0) == 0 mod 2 for n <= 3"]

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
            "63 claims: 39 pass, 0 fail, 24 order-too-small"

    def test_scan_order_below_four_identity_orders(self, capsys):
        # eq-a-1, eq-2-24 and eq 2-3 read the scan C to 8 * 200 at identity
        # order 400, and eq-2-18-1 to 1596: a scan of 1000 cannot check them
        assert main(["suite", "--order-identity", "400", "--order-scan", "1000",
                     "--kmax", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()[:-1]
        short = [line.split()[0] for line in lines
                 if line.split()[1] == "order-too-small"]
        assert short == ["eq-2-18-1", "eq-a-1", "eq-2-24", "eq-2-3"]

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

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_json_path_exits_2_before_building(
            self, tmp_path, capsys, monkeypatch, where):
        def refuse(*args, **kw):
            raise AssertionError("a series was built")
        monkeypatch.setattr("qcong.cli.build_suite_context", refuse)
        path = str(tmp_path / "nowhere" / "report.json"
                   if where == "missing-directory" else tmp_path)
        assert main(["suite", "--order-identity", "40", "--order-scan", "400",
                     "--json", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --json {path}: ")

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
        ["expand", "C", "--order", str(10**15)],
        ["expand", "Ck[2]", "--order", str(10**15)],
        ["expand", "pochinf[1,1,1]", "--order", str(10**15)],
    ])
    def test_order_too_large_to_allocate_exits_2(self, argv):
        # numpy refuses 10^15 coefficients and more at once, before any
        # memory is touched. The child's address space is capped at 2 GB, so
        # a builder that lists its steps before the kernel allocates fails
        # there, with a bare MemoryError, and not on the machine
        cap = (2 << 30, 2 << 30)
        run = subprocess.run([sys.executable, "-m", "qcong", *argv],
                             env=dict(_python_dash_m_env(), OPENBLAS_NUM_THREADS="1"),
                             preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.startswith("error: order too large to allocate")
        assert "Unable to allocate" in run.stderr

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


    def test_write_error_exits_2(self, capsys, monkeypatch):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(sys, "stdout", FullDisk())
        assert main(["expand", "q", "--order", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["expand", "q", "--order", "3"],
        ["suite", "--order-identity", "30", "--order-scan", "200", "--kmax",
         "0", "--json", "/dev/full"],
    ], ids=["stdout", "json"])
    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_full_disk_exits_2_without_traceback(self, argv, unbuffered):
        # only a subprocess sees the interpreter's own flush of stdout at
        # exit, which a buffered stdout retries with the unwritten output
        env = dict(_python_dash_m_env(), PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            run = subprocess.run([sys.executable, "-m", "qcong", *argv],
                                 env=env, stdout=full, stderr=subprocess.PIPE,
                                 text=True, timeout=60)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert run.stderr == (
            f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


class TestBadFlagValues:
    """A bad value of any flag exits 2 with one stderr line naming the flag,
    before any series is built."""

    CHECK = ["check", "--series", "C", "--nmax", "10"]
    RELATION = ["relation", "--series", "C", "--sign", "-", "--nmax", "10"]
    SCAN = ["scan", "--amax", "8", "--nmax", "10"]
    PROGRESSION = ["check", "--progression", "8,4", "--mod", "2", "--nmax", "3"]
    PAIR = "expected A,B with integers A >= 1 and B >= 0, got '{}'"
    MODULUS = "expected an integer >= 2, got '{}'"
    MODS = "expected comma-separated integers >= 2, got '{}'"
    INT = "expected an integer >= {}, got '{}'"
    K = "expected a k >= 1 or 'limit', got '{}'"
    SERIES = "expected C or Ck:K with K >= 1, got '{}'"

    @pytest.fixture(autouse=True)
    def no_builds(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a series was built")
        # every subcommand builds its series through evaluate
        monkeypatch.setattr("qcong.cli.evaluate", refuse)

    # every flag type's refusals, and one integer flag of each subcommand
    @pytest.mark.parametrize("argv, flag, bad, want", [
        (CHECK + ["--mod", "8"], "--progression", "0,4", PAIR.format("0,4")),
        (CHECK + ["--mod", "8"], "--progression", "8,-1", PAIR.format("8,-1")),
        (RELATION + ["--rhs", "2,2", "--mod", "4"], "--lhs", "0,7", PAIR.format("0,7")),
        (RELATION + ["--lhs", "8,7", "--mod", "4"], "--rhs", "2,-2", PAIR.format("2,-2")),
        (CHECK + ["--progression", "8,6"], "--mod", "1", MODULUS.format("1")),
        (RELATION + ["--lhs", "8,7", "--rhs", "2,2"], "--mod", "0", MODULUS.format("0")),
        (SCAN, "--mods", "0,4", MODS.format("0,4")),
        (SCAN, "--mods", "4,x", MODS.format("4,x")),
        (["oracle", "--nmax", "3"], "--k", "0", K.format("0")),
        (["oracle", "--nmax", "3"], "--k", "x", K.format("x")),
        (["oracle", "--nmax", "3"], "--k", "", K.format("")),
        (PROGRESSION, "--series", "Ck:0", SERIES.format("Ck:0")),
        (PROGRESSION, "--series", "Ck:x", SERIES.format("Ck:x")),
        (PROGRESSION, "--series", "D", SERIES.format("D")),
        (CHECK + ["--mod", "8"], "--progression", "8", PAIR.format("8")),
        (CHECK + ["--mod", "8"], "--progression", "8,4,2", PAIR.format("8,4,2")),
        (CHECK + ["--mod", "8"], "--progression", "x,1", PAIR.format("x,1")),
        (SCAN, "--mods", "4,,8", MODS.format("4,,8")),
        (["expand", "q"], "--order", "0", INT.format(1, "0")),
        (["verify", "q", "q"], "--order", "x", INT.format(1, "x")),
        (CHECK[:3] + ["--progression", "8,4", "--mod", "2"], "--nmax", "-1",
         INT.format(0, "-1")),
        (RELATION[:5] + ["--lhs", "8,7", "--rhs", "2,2", "--mod", "4"], "--nmax", "1.5",
         INT.format(0, "1.5")),
        (["suite"], "--kmax", "-1", INT.format(0, "-1")),
        (["oracle", "--k", "1"], "--nmax", "z", INT.format(0, "z")),
        (["scan", "--mods", "4", "--nmax", "3"], "--amax", "0", INT.format(1, "0")),
        # an integer is ASCII digits and nothing else, as the grammar's INT
        (["oracle", "--k", "1"], "--nmax", "\u0663", INT.format(0, "\u0663")),
        (["expand", "q"], "--order", "+3", INT.format(1, "+3")),
        (["expand", "q"], "--order", "1_000", INT.format(1, "1_000")),
        (["expand", "q"], "--order", " 3", INT.format(1, " 3")),
    ])
    def test_exits_2_naming_the_flag(self, capsys, argv, flag, bad, want):
        with pytest.raises(SystemExit) as err:
            main([*argv, flag, bad])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"qcong {argv[0]}: error: argument {flag}: {want}"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command, output lines) of every `$ qcong ...` line in README's sh
    blocks, its output being the lines up to the next `$` or the block's end."""
    examples, block = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            block = [] if line == "```sh" and block is None else None
        elif block is not None and line.startswith("$ qcong "):
            examples.append((line[2:], []))
        elif block is not None and examples and not line.startswith("$"):
            examples[-1][1].append(line)
    return examples


def matches(want: list[str], got: list[str]) -> bool:
    """got is want line by line, whitespace runs normalised, where a `...`
    line of want stands for any run of lines."""
    if not want:
        return not got
    if want[0] == "...":
        return any(matches(want[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and got[0].split() == want[0].split() and matches(want[1:], got[1:])


def test_readme_lists_its_examples():
    assert len(readme_examples()) == 13


@pytest.mark.parametrize("command, want", [pytest.param(command, want, id=command)
                                           for command, want in readme_examples()])
def test_readme_example(tmp_path, monkeypatch, capsys, command, want):
    # run where a --json report may be written, and compare what it prints
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(command)[1:])
    got = capsys.readouterr().out.splitlines()
    assert matches(want, got), "\n".join(got)
    assert code == (1 if any(line.startswith("fail") for line in want) else 0)
