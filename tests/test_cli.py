import itertools
import json
import os
import subprocess
import sys

import pytest

import cuntzfrac
from cuntzfrac import equivalence
from cuntzfrac.cli import main
from cuntzfrac.words import is_primitive

GOLDEN = "(-1+1*sqrt(5))/2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_periodic(self, capsys):
        code, out, _ = run(capsys, "expand", GOLDEN, "--periodic")
        assert code == 0
        assert out.strip() == "(1)"

    def test_terms(self, capsys):
        code, out, _ = run(capsys, "expand", "(-1+1*sqrt(3))/1", "--terms", "4")
        assert code == 0
        assert out.strip() == "1,2,1,2"

    def test_domain_exit(self, capsys):
        code, _, err = run(capsys, "expand", "(1+1*sqrt(5))/2", "--periodic")
        assert code == 3
        assert "domain error" in err

    def test_rational_exit(self, capsys):
        code, _, _ = run(capsys, "expand", "(1+1*sqrt(4))/2", "--periodic")
        assert code == 3

    def test_parse_exit(self, capsys):
        code, _, err = run(capsys, "expand", "not-a-surd", "--periodic")
        assert code == 2
        assert "parse error" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "expand", "(-1+1*sqrt(3))/1", "--periodic", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"initial": [], "period": [1, 2]}

    def test_zero_terms_is_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", GOLDEN, "--terms", "0")
        assert code == 2
        assert "parse error" in err

    def test_two_prime_radicand_does_not_factor(self):
        # sqrt(d) - floor(sqrt(d)) with d the product of two 20-digit primes:
        # expanding needs no factoring, so this returns at once instead of
        # running Pollard-Brent for hours; a child process bounds the wait
        d = 300000000000000001940000000000000002091
        surd = f"(-17320508075688772991+1*sqrt({d}))/1"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuntzfrac.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "cuntzfrac.cli", "expand", surd, "--terms", "8"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0
        assert done.stdout == "3,1,1,1,1,8,1,1\n"

    def test_two_prime_radicand_domain_error_does_not_factor(self):
        # the domain error message shows the value as given, so it exits 3 at
        # once instead of factoring the radicand for hours
        d = 300000000000000001940000000000000002091
        surd = f"(1+1*sqrt({d}))/1"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuntzfrac.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "cuntzfrac.cli", "expand", surd, "--terms", "8"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 3
        assert f"{surd} is not inside (0, 1)" in done.stderr


class TestSolve:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "solve", "(1)")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "(-1+1*sqrt(5))/2"
        assert "disc_poly: 5" in lines
        assert "disc_field: 5" in lines

    def test_triple(self, capsys):
        code, out, _ = run(capsys, "solve", "(1,2,3)", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["surd"] == {"a": "-4", "b": "1", "c": "3", "d": "37"}
        assert payload["disc_poly"] == "148"
        assert payload["disc_field"] == "37"
        assert payload["label"] == [1, 2, 3]

    def test_non_primitive_block_collapses(self, capsys):
        _, out_22, _ = run(capsys, "solve", "(2,2)")
        _, out_2, _ = run(capsys, "solve", "(2)")
        assert out_22 == out_2

    def test_parse_exit(self, capsys):
        code, _, _ = run(capsys, "solve", "(1,")
        assert code == 2

    def test_approx(self, capsys):
        code, out, _ = run(capsys, "solve", "(1)", "--approx", "6")
        assert code == 0
        assert "approx: 0.618033" in out

    def test_approx_beyond_int_text_limit(self, capsys):
        code, out, err = run(capsys, "solve", "(1,2,3)", "--approx", "5000")
        assert code == 0, err
        approx = out.splitlines()[-1]
        assert approx.startswith("approx: 0.6942541767660732")
        assert len(approx) == len("approx: 0.") + 5000

    def test_long_initial_block(self, capsys):
        # 5,000 initial quotients give coefficients of about 9,600 digits
        block = "9," * 5000 + "(1)"
        code, out, err = run(capsys, "solve", block, "--format", "json", "--approx", "30")
        assert code == 0, err
        payload = json.loads(out)
        assert len(payload["surd"]["a"]) > 9000
        assert payload["label"] == [1]
        assert payload["disc_poly"] == "5"
        assert payload["approx"] == "0.109772228646443655001137140881"  # (sqrt(85) - 9)/2
        code, out, err = run(capsys, "solve", block)
        assert code == 0, err
        surd = out.splitlines()[0]
        code, out, err = run(capsys, "expand", surd, "--periodic")
        assert code == 0, err
        assert out.strip() == block
        code, out, err = run(capsys, "tau", surd, "--format", "json")
        assert code == 0, err
        assert len(json.loads(out)["surd"]["c"]) > 9000

    def test_round_trip_through_expand(self, capsys):
        # all blocks of length <= 2 plus a deterministic stride of the longer
        # ones; the exhaustive library-level sweep lives in the acceptance suite
        blocks = []
        for k in range(1, 5):
            stride = 1 if k <= 2 else 29
            for i, period in enumerate(itertools.product(range(1, 10), repeat=k)):
                if i % stride or not is_primitive(period):
                    continue
                blocks.append(period)
        assert len(blocks) > 250
        for period in blocks:
            block = "(" + ",".join(map(str, period)) + ")"
            code, out, _ = run(capsys, "solve", block)
            assert code == 0
            surd = out.splitlines()[0]
            code, out, _ = run(capsys, "expand", surd, "--periodic")
            assert code == 0
            assert out.strip() == block


class TestEquiv:
    def test_equivalent(self, capsys):
        code, out, _ = run(capsys, "equiv", GOLDEN, "(3-1*sqrt(5))/2")
        assert code == 0
        assert out.splitlines()[0] == "equivalent"

    def test_exact_output(self, capsys):
        code, out, _ = run(capsys, "equiv", GOLDEN, "(-1+1*sqrt(3))/1")
        assert (code, out) == (1, "inequivalent\nlabel_left: (1)\nlabel_right: (1,2)\n")
        code, out, _ = run(capsys, "equiv", GOLDEN, "(3-1*sqrt(5))/2", "--format", "json")
        assert code == 0
        assert out == '{"equivalent": true, "label_left": [1], "label_right": [1]}\n'

    def test_expands_each_side_once(self, capsys, monkeypatch):
        calls = []
        expand = equivalence.cfe_periodic
        monkeypatch.setattr(equivalence, "cfe_periodic", lambda x: calls.append(x) or expand(x))
        code, _, _ = run(capsys, "equiv", GOLDEN, "(3-1*sqrt(5))/2")
        assert code == 0
        assert len(calls) == 2

    def test_domain_exit(self, capsys):
        code, _, err = run(capsys, "equiv", GOLDEN, "(1+1*sqrt(5))/2")
        assert code == 3
        assert "domain error" in err

    def test_inequivalent(self, capsys):
        code, out, _ = run(capsys, "equiv", GOLDEN, "(-1+1*sqrt(2))/1")
        assert code == 1
        assert out.splitlines()[0] == "inequivalent"

    def test_reflexive(self, capsys):
        code, out, _ = run(capsys, "equiv", GOLDEN, GOLDEN)
        assert code == 0
        assert "label_left: (1)" in out


class TestClassify:
    @pytest.mark.parametrize(
        "literal,expect",
        [(GOLDEN, "P(1)"), ("(-3+1*sqrt(13))/2", "P(3)"), ("(-1+1*sqrt(3))/1", "P(1,2)")],
    )
    def test_examples(self, capsys, literal, expect):
        code, out, _ = run(capsys, "classify", literal)
        assert code == 0
        assert out.strip() == expect


class TestTau:
    def test_fixed_point(self, capsys):
        code, out, _ = run(capsys, "tau", GOLDEN)
        assert code == 0
        assert out.strip() == GOLDEN

    def test_sqrt3(self, capsys):
        code, out, _ = run(capsys, "tau", "(-1+1*sqrt(3))/1")
        assert out.strip() == "(-1+1*sqrt(3))/2"

    def test_radicand_with_a_pseudoprime_cofactor(self, capsys):
        # d = p*p*q where p*q is a strong pseudoprime to every prime base below 41
        d = 399165290221**2 * 798330580441
        code, out, _ = run(capsys, "tau", f"(-356651580153298873+1*sqrt({d}))/1")
        assert code == 0
        assert out == "(-337898556993958631+399165290221*sqrt(798330580441))/347275068573628752\n"


class TestVerifyExamples:
    def test_full_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify-examples")
        assert code == 0
        assert "D=148" in out
        assert "field discriminant 37" in out
        assert "fail" not in out.lower()

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "verify-examples", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["failures"] == []
        assert payload["radicand_123"] == 148
        assert payload["field_discriminant_123"] == 37


class TestCorpus:
    def test_classify_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "surds.txt"
        corpus.write_text(
            "# class regressions\n"
            "(-1+1*sqrt(5))/2 => (1)\n"
            "(-1+1*sqrt(3))/1 => P(1,2)\n"
            "\n"
            "(-3+1*sqrt(13))/2\n"
        )
        code, out, _ = run(capsys, "corpus", str(corpus), "classify")
        assert code == 0
        assert "3 passed, 0 failed, 0 errors of 3 entries" in out
        results = json.loads((tmp_path / "surds.txt.results.json").read_text())
        assert [r["status"] for r in results] == ["pass", "pass", "pass"]

    def test_solve_corpus_with_failure_and_error(self, capsys, tmp_path):
        corpus = tmp_path / "blocks.txt"
        corpus.write_text(
            "(1) => (-1+1*sqrt(5))/2\n"
            "(2) => (-1+1*sqrt(5))/2\n"   # wrong expectation
            "garbage-line\n"
        )
        out_file = tmp_path / "res.json"
        code, out, _ = run(capsys, "corpus", str(corpus), "solve", "--out", str(out_file))
        assert code == 1
        assert "1 passed, 1 failed, 1 errors of 3 entries" in out
        results = json.loads(out_file.read_text())
        assert [r["status"] for r in results] == ["pass", "fail", "error"]
        assert results[2]["line"] == 3

    def test_expand_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "expand.txt"
        corpus.write_text("(-4+1*sqrt(37))/3 => (1,2,3)\n")
        code, out, _ = run(capsys, "corpus", str(corpus), "expand")
        assert code == 0

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", str(tmp_path / "nope.txt"), "solve")
        assert code == 2
        assert "cannot read corpus" in err


class TestJsonSchemas:
    """Every command's JSON payload keeps its documented key set."""

    def test_expand_terms(self, capsys):
        _, out, _ = run(capsys, "expand", GOLDEN, "--terms", "3", "--format", "json")
        assert set(json.loads(out)) == {"terms"}

    def test_expand_periodic(self, capsys):
        _, out, _ = run(capsys, "expand", GOLDEN, "--periodic", "--format", "json")
        assert set(json.loads(out)) == {"initial", "period"}

    def test_solve(self, capsys):
        _, out, _ = run(capsys, "solve", "(1)", "--format", "json", "--approx", "4")
        payload = json.loads(out)
        assert set(payload) == {"surd", "label", "disc_poly", "disc_field", "approx"}
        assert set(payload["surd"]) == {"a", "b", "c", "d"}

    def test_equiv(self, capsys):
        _, out, _ = run(capsys, "equiv", GOLDEN, GOLDEN, "--format", "json")
        assert set(json.loads(out)) == {"equivalent", "label_left", "label_right"}

    def test_classify(self, capsys):
        _, out, _ = run(capsys, "classify", GOLDEN, "--format", "json")
        assert set(json.loads(out)) == {"class", "word"}

    def test_tau(self, capsys):
        _, out, _ = run(capsys, "tau", GOLDEN, "--format", "json")
        assert set(json.loads(out)) == {"surd"}

    def test_verify_examples(self, capsys):
        _, out, _ = run(capsys, "verify-examples", "--format", "json")
        assert set(json.loads(out)) == {
            "passes", "radicand_123", "field_discriminant_123", "notes", "failures"
        }

    def test_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("(1)\n")
        _, out, _ = run(capsys, "corpus", str(corpus), "solve", "--format", "json")
        assert set(json.loads(out)) == {"entries", "pass", "fail", "error", "results"}


class TestParserExits:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_expand_requires_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", GOLDEN])
        assert exc.value.code == 2
