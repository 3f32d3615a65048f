import io
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

import cuntzfrac
from conftest import fresh
from cuntzfrac import (
    Cycle,
    PeriodicCFE,
    cfe_periodic,
    classify_surd,
    families,
    format_block,
    in_omega,
    minimal_period_normalize,
    normalize,
    surd_from_cfe,
)
from cuntzfrac import cli
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

    def test_label_read_off_the_parsed_block(self, capsys, monkeypatch):
        # the block is the expansion of the surd just built: no re-expansion
        want = [run(capsys, "solve", "2,1,(3,1,4)", "--format", f) for f in ("text", "json")]

        def refuse(x):
            raise AssertionError("solve re-expanded its own answer")

        monkeypatch.setattr("cuntzfrac.cuntz.cfe_periodic", refuse)
        monkeypatch.setattr("cuntzfrac.cli.cfe_periodic", refuse)
        got = [run(capsys, "solve", "2,1,(3,1,4)", "--format", f) for f in ("text", "json")]
        assert got == want
        assert want[0][1].splitlines()[1] == "label: (1,4,3)"

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
        expand = cfe_periodic
        monkeypatch.setattr("cuntzfrac.cuntz.cfe_periodic", lambda x: calls.append(x) or expand(x))
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

    def test_text_bytes(self, capsys):
        code, out, err = run(capsys, "verify-examples")
        assert (code, err) == (0, "")
        assert out == (
            "single-letter blocks, k=1..50: 50/50 pass\n"
            "two-letter blocks, j,k<=10: 100/100 pass\n"
            "three-letter blocks, entries<=5: 120/120 pass\n"
            "four-letter blocks, entries<=5: 600/600 pass\n"
            "triple (1,2,3): raw radicand D=148, solved surd (-4+1*sqrt(37))/3, "
            "field discriminant 37\n"
        )

    def test_json_bytes(self, capsys):
        code, out, err = run(capsys, "verify-examples", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (
            '{"failures": [], "field_discriminant_123": 37, "notes": [], '
            '"passes": [50, 100, 120, 600], "radicand_123": 148}\n'
        )

    def test_fresh_interpreter_matches_in_process(self, capsys):
        # the command imports the block families on first use, so a -S child
        # that has loaded nothing before it gives the in-process bytes
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuntzfrac.__file__)))
        for extra in ([], ["--format", "json"]):
            want = run(capsys, "verify-examples", *extra)
            done = subprocess.run(
                [sys.executable, "-S", "-m", "cuntzfrac.cli", "verify-examples", *extra],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert (done.returncode, done.stdout, done.stderr) == want
            assert want[0] == 0

    def test_closed_forms_are_the_folds(self):
        # the closed forms are identities, so the sweep needs no fallback: the
        # fold [[p, q], [r, s]] of each word's step matrices gives the
        # polynomial r*y^2 + (s-p)*y - q of the purely periodic number with
        # that period, its one root in (0, 1) as q, r > 0, and the closed
        # form's value is that root
        grid = ((families.triple_block_surd, 3, 12), (families.quad_block_surd, 4, 8))
        for closed_form, arity, top in grid:
            for tup in itertools.product(range(1, top + 1), repeat=arity):
                p, q, r, s = 1, 0, 0, 1
                for a in tup:
                    p, q, r, s = q, p + q * a, s, r + s * a
                g = math.gcd(r, s - p, q)
                x = closed_form(*tup)[0]
                poly = (x.c * x.c, -2 * x.a * x.c, x.a * x.a - x.b * x.b * x.d)
                h = math.gcd(*poly)
                assert tuple(k // h for k in poly) == (r // g, (s - p) // g, -q // g), tup
                assert in_omega(x), tup

    @pytest.mark.parametrize("name, tup, passes, failures", [
        # a drifting single closed form also fails the pair row j=k that
        # compares the collapsed pair against it
        ("single", (3,), [49, 99, 120, 600], [
            {"instance": "single k=3", "got": "P(1)", "expected": "P(3)"},
            {"instance": "pair j=k=3 collapses", "got": "(-3+1*sqrt(13))/2", "expected": "(-1+1*sqrt(5))/2"},
        ]),
        ("pair", (1, 2), [50, 99, 120, 600],
         [{"instance": "pair (j,k)=(1,2)", "got": "P(1)", "expected": "P(1,2)"}]),
        ("triple", (1, 1, 2), [50, 100, 119, 600],
         [{"instance": "triple (1, 1, 2)", "got": "P(1)", "expected": "P(1,1,2)"}]),
        ("quad", (1, 3, 1, 2), [50, 100, 120, 599],
         [{"instance": "quad (1, 3, 1, 2)", "got": "P(1)", "expected": "P(1,2,1,3)"}]),
    ], ids=["single", "pair", "triple", "quad"])
    def test_closed_form_drift_fails(self, capsys, monkeypatch, name, tup, passes, failures):
        # a closed form that drifts for one tuple fails that row: the sweep
        # exits 1 and lists it, in JSON and as the last line of its text
        constructor = getattr(families, f"{name}_block_surd")
        # the single and pair closed forms return the surd alone, the triple
        # and quad ones the surd and its raw radicand
        wrong = families.single_block_surd(1)
        if name in ("triple", "quad"):
            wrong = (wrong, 0)

        def drifting(*args):
            if args == tup:
                return wrong
            return constructor(*args)

        monkeypatch.setattr(families, f"{name}_block_surd", drifting)
        code, out, err = run(capsys, "verify-examples", "--format", "json")
        payload = json.loads(out)
        assert (code, err) == (1, "")
        assert payload["passes"] == passes
        assert payload["failures"] == failures
        assert payload["notes"] == []
        code, out, err = run(capsys, "verify-examples")
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == json.dumps(failures)

    def test_drift_the_inverse_construction_confirms_fails(self, capsys, monkeypatch):
        # the inverse construction gives (1, 1, 2) its class, yet a closed
        # form that drifts there still fails the row: nothing overrules it
        assert classify_surd(fresh(surd_from_cfe(PeriodicCFE((), (1, 1, 2))))) == Cycle((1, 1, 2))
        triple = families.triple_block_surd

        def drifting(*args):
            if args == (1, 1, 2):
                return families.single_block_surd(1), 0
            return triple(*args)

        monkeypatch.setattr(families, "triple_block_surd", drifting)
        code, out, err = run(capsys, "verify-examples")
        assert (code, err) == (1, "")
        assert "three-letter blocks, entries<=5: 119/120 pass" in out
        assert "inverse construction" not in out


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

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_results(self, capsys, tmp_path, where):
        # a results path that cannot be written is a usage error, not a traceback
        corpus = tmp_path / "c.txt"
        corpus.write_text("(1)\n")
        out_path = tmp_path / "nowhere" / "r.json" if where == "missing directory" else tmp_path
        code, out, err = run(capsys, "corpus", str(corpus), "solve", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("cannot write results: ") and str(out_path) in err

    def test_results_file_is_indent_2_json(self, capsys, tmp_path):
        # pass, fail and error lines; non-ASCII input; quotes and backslashes
        # in the error text, which repeats the input
        corpus = tmp_path / "mixed.txt"
        corpus.write_text(
            "(-1+1*sqrt(5))/2 => (1)\n"
            "(-1+1*sqrt(3))/1 => P(2)\n"
            "(-1+1*sqrt(5))/2\u00e9 => (1)  # trailing \u00e9\n"
            '(1+"x\\y)/2 => (1)\n'
            "\u221a5 \U0001f600\n",
            encoding="utf-8",
        )
        out_file = tmp_path / "res.json"
        code, _, _ = run(capsys, "corpus", str(corpus), "classify", "--out", str(out_file))
        assert code == 1
        text = out_file.read_text(encoding="utf-8")
        results = json.loads(text)
        assert [r["status"] for r in results] == ["pass", "fail", "error", "error", "error"]
        assert '\\"x\\\\y' in text and "\\u221a" in text
        assert text == json.dumps(results, indent=2)

    def test_comment_only_corpus_writes_an_empty_list(self, capsys, tmp_path):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("# nothing to run\n\n   # still nothing\n")
        code, out, _ = run(capsys, "corpus", str(corpus), "solve")
        assert code == 0
        assert "0 passed, 0 failed, 0 errors of 0 entries" in out
        assert (tmp_path / "empty.txt.results.json").read_text() == "[]"

    # _corpus_expected(mode, text, "") is the parse branch: no text is ""
    # once stripped, and no class text is one character shorter than ""

    @pytest.mark.parametrize("seed", range(4))
    def test_output_text_is_its_own_expected_value(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            top = rng.choice((3, 9, 40))
            initial = [rng.randint(1, top) for _ in range(rng.randint(0, 3))]
            period = [rng.randint(1, top) for _ in range(rng.randint(1, 6))]
            block = minimal_period_normalize(initial, period)
            for mode, payload in (("expand", str(surd_from_cfe(block))), ("solve", format_block(block)),
                                  ("classify", str(surd_from_cfe(block)))):
                out = cli._corpus_apply(mode, payload)
                assert cli._corpus_expected(mode, out, out) == cli._corpus_expected(mode, out, "") == out

    @pytest.mark.parametrize("word", [(1,), (1, 2), (1, 11), (1, 1, 11), (1, 12, 2, 1, 21), (3, 10**30, 3, 7)])
    def test_class_word_rotations_read_as_the_class(self, word):
        out = str(Cycle(word))
        for k in range(len(word)):
            v = ",".join(map(str, word[k:] + word[:k]))
            for text in (f"P({v})", f"({v})"):
                assert cli._corpus_expected("classify", text, out) == cli._corpus_expected("classify", text, "") == out

    @pytest.mark.parametrize("mode, lines, parser, records", [
        ("classify", [
            "(-21+5*sqrt(21))/2 => P(1,12)",  # same length, not a rotation
            "(-1+1*sqrt(3))/1 => ( 1, 2 )",
            "(-1+1*sqrt(3))/1 => P(1,2,1,2)",
            "(-1+1*sqrt(3))/1 => 7,(2,1)",
            "(-1+1*sqrt(3))/1 => P(01,2)",
        ], "parse_block", [
            ("P(1,21)", "P(1,12)", "fail"),
            ("P(1,2)", "P(1,2)", "pass"),
            ("P(1,2)", "P(1,2)", "pass"),
            ("P(1,2)", "P(1,2)", "pass"),
            ("P(1,2)", "P(1,2)", "pass"),
        ]),
        ("solve", [
            "(1,2) => (-2+2*sqrt(3))/2",
            "(1,2) => ( -1 + 1*sqrt(3) ) / 1",
            "(2,1) => (-1+1*sqrt(3))/1",
        ], "parse_surd", [
            ("(-1+1*sqrt(3))/1", "(-1+1*sqrt(3))/1", "pass"),
            ("(-1+1*sqrt(3))/1", "(-1+1*sqrt(3))/1", "pass"),
            ("(-1+1*sqrt(3))/2", "(-1+1*sqrt(3))/1", "fail"),
        ]),
        ("expand", [
            "(-1+1*sqrt(3))/1 => 1,(2,1)",
            "(-1+1*sqrt(3))/1 => ( 1, 2 )",
            "(-1+1*sqrt(3))/1 => (2,1)",
        ], "parse_block", [
            ("(1,2)", "(1,2)", "pass"),
            ("(1,2)", "(1,2)", "pass"),
            ("(1,2)", "(2,1)", "fail"),
        ]),
    ])
    def test_other_expected_forms_are_parsed(self, capsys, tmp_path, monkeypatch, mode, lines, parser, records):
        # the parser named is the one only the expected side calls in this mode
        calls = []
        real = getattr(cli, parser)
        monkeypatch.setattr(cli, parser, lambda text: calls.append(text) or real(text))
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(lines) + "\n")
        run(capsys, "corpus", str(corpus), mode)
        assert len(calls) == len(lines)
        results = json.loads((tmp_path / "c.txt.results.json").read_text())
        assert [(r["output"], r["expected"], r["status"]) for r in results] == records


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


class TestPlainReader:
    """cli._plain, the reader of plain command lines, against argparse: for
    every argv it declines, or it builds the namespace argparse builds."""

    VALUES = ["text", "json", "xml", "5", " 5", "-5", "x", "-", "", GOLDEN, "(1,2,3)", "solve", "classify"]

    def _argv(self, rng, commands):
        name = rng.choice([*commands, "bogus"])
        sub = commands.get(name, commands["classify"])

        def value(action):
            # a listed choice half the time, so that many argv are accepted
            return rng.choice(action.choices if action.choices and rng.random() < 0.5 else self.VALUES)

        units = [[value(a)] for a in sub._actions if not a.option_strings]
        for action in sub._actions:
            for option in action.option_strings:
                if rng.random() < 0.5 or option in ("-h", "--help") and rng.random() < 0.8:
                    continue
                form = rng.choice(["exact", "exact", "exact", "abbreviated", "joined"])
                if form == "abbreviated" and option.startswith("--"):
                    option = option[:rng.randrange(3, len(option))]
                token = value(action)
                if form == "joined":
                    units.append([f"{option}={token}"])
                else:
                    units.append([option] if action.nargs == 0 else [option, token])
        if units and rng.random() < 0.2:
            units.append(list(rng.choice(units)))  # a repeat, or an extra positional
        if units and rng.random() < 0.2:
            rng.choice(units).pop()  # a missing positional, option or value
        rng.shuffle(units)
        if rng.random() < 0.1:
            units.insert(rng.randrange(len(units) + 1), ["--"])
        return [name, *itertools.chain.from_iterable(units)]

    def test_declines_or_agrees_with_argparse(self, capsys):
        parser = cli.build_parser()
        commands = parser._subparsers._group_actions[0].choices
        assert set(commands) == set(cli._COMMANDS)
        rng = random.Random(25)
        agreed = declined = 0
        for _ in range(3000):
            argv = self._argv(rng, commands)
            got = cli._plain(argv)
            try:
                want = parser.parse_args(argv)
            except SystemExit:
                assert got is None, argv
                continue
            finally:
                capsys.readouterr()
            if got is None:
                declined += 1
            else:
                assert vars(got) == vars(want), argv
                agreed += 1
        # both outcomes are common, so neither check above is vacuous
        assert agreed > 300 and declined > 100, (agreed, declined)


class TestClosedStdout:
    """A reader of stdout that has gone is an output error, exit 2 with one
    line on stderr, not a traceback or an exit code of the interpreter's."""

    def _env(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuntzfrac.__file__)))
        env.pop("PYTHONUNBUFFERED", None)  # so a short answer waits for the flush
        return env

    @pytest.mark.parametrize("argv", [("classify", GOLDEN), ("classify", "-h")])
    def test_pipe_closed_before_the_answer(self, argv):
        # the answer is still buffered when the command returns (or argparse
        # exits after help), so the broken pipe shows at the flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "cuntzfrac.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=60, env=self._env())
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr.startswith(b"cannot write output: ") and done.stderr.count(b"\n") == 1

    def test_reader_leaves_mid_answer(self):
        # `expand ... --terms 200000 | head -c 10`: 400 kB is more than a pipe
        # holds, so the command is still writing when the reader leaves
        proc = subprocess.Popen([sys.executable, "-m", "cuntzfrac.cli", "expand", GOLDEN, "--terms", "200000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._env())
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
        finally:
            proc.stdout.close()
            proc.stderr.close()
            code = proc.wait(timeout=60)
        assert (head, code) == (b"1,1,1,1,1,", 2)
        assert err.startswith(b"cannot write output: ") and err.count(b"\n") == 1


class TestRepeatedCalls:
    """One process reuses one argument parser; each call must still answer
    as a fresh process does."""

    ARGVS = [
        ("expand", "(-1+1*sqrt(3))/1", "--periodic"),
        ("expand", "(-4+1*sqrt(37))/3", "--terms", "5", "--format", "json"),
        ("expand", GOLDEN),  # usage error: --terms or --periodic is required
        ("solve", "(1,2,3)", "--approx", "12"),
        ("solve", "(1,2,3)", "--format", "json"),
        ("classify", "(-1+1*sqrt(3))/1"),
        ("tau", "(-4+1*sqrt(37))/3", "--approx", "9", "--format", "json"),
        ("equiv", GOLDEN, "(-1+1*sqrt(2))/1"),
        ("classify", "not-a-surd"),
        ("tau", "(1+1*sqrt(5))/2"),
        ("solve", "(2)"),
        # argv that only argparse reads: =-joined, abbreviated, after --, a
        # usage error and help
        ("expand", "(-4+1*sqrt(37))/3", "--terms=5"),
        ("expand", "(-1+1*sqrt(3))/1", "--per"),
        ("classify", "--", "(-1+1*sqrt(3))/1"),
        ("classify", GOLDEN, "--format", "xml"),
        ("tau", "-h"),
    ]

    def _in_process(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_same_answers_as_fresh_processes(self, capsys, monkeypatch):
        # help is wrapped to $COLUMNS, or to the terminal's width where unset
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuntzfrac.__file__)))
        fresh = []
        for argv in self.ARGVS:
            done = subprocess.run(
                [sys.executable, "-m", "cuntzfrac.cli", *argv],
                capture_output=True, text=True, timeout=60, env=env,
            )
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert fresh[2][0] == 2 and "required" in fresh[2][2]
        assert {cli._plain(list(argv)) is None for argv in self.ARGVS} == {True, False}
        # each round builds the parser again at each argparse argv, and
        # gives the same answers both times
        for _ in range(2):
            got = [self._in_process(capsys, argv) for argv in self.ARGVS]
            assert got == fresh


class TestStdinLiteral:
    @pytest.mark.parametrize("argv", [
        ("expand", "(-1+1*sqrt(3))/1", "--periodic"),
        ("expand", "(-4+1*sqrt(37))/3", "--terms", "7", "--format", "json"),
        ("solve", "2,1,(3,1,4)"),
        ("solve", "(1,2,3)", "--format", "json", "--approx", "12"),
        ("classify", "(-1+1*sqrt(3))/1"),
        ("tau", "(-4+1*sqrt(37))/3", "--approx", "9"),
        ("equiv", GOLDEN, "(-1+1*sqrt(2))/1"),
        ("equiv", "(-1+1*sqrt(2))/1", "(-2+1*sqrt(8))/2", "--format", "json"),
        ("solve", "(1,"),
        ("classify", "(1+1*sqrt(5))/2"),
    ])
    def test_dash_reads_the_literal_from_stdin(self, capsys, monkeypatch, argv):
        want = run(capsys, *argv)
        literals = [i for i, a in enumerate(argv[1:3], 1) if not a.startswith("-")]
        for i in literals:
            monkeypatch.setattr(sys, "stdin", io.StringIO(f"  {argv[i]}\n"))
            assert run(capsys, *argv[:i], "-", *argv[i + 1:]) == want

    def test_equiv_reads_stdin_once(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN))
        code, out, err = run(capsys, "equiv", "-", "-")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")

    def test_block_longer_than_an_argument(self, capsys):
        # the block of sqrt(89151474086), about 10**5 quotients, is more text
        # than one command-line argument may hold (128 KiB on Linux)
        d = 89151474086
        block = format_block(cfe_periodic(normalize(-math.isqrt(d), 1, 1, d)))
        assert len(block.encode()) > 128 * 1024
        want = run(capsys, "solve", block)
        assert want[0] == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuntzfrac.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "cuntzfrac.cli", "solve", "-"],
            input=block, capture_output=True, text=True, timeout=60, env=env,
        )
        assert (done.returncode, done.stdout, done.stderr) == want
