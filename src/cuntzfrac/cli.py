"""Command line front end: expansion, inverse construction, equivalence,
classification, a closed-form verification sweep, and a corpus runner.

Exit codes: 0 success or equivalent, 1 assertion failure or inequivalent,
2 parse or usage error, or a corpus file that cannot be read or written,
3 domain error (rational input or value outside (0, 1)).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import families, words
from .cfe import (
    block_to_json,
    cfe_expand,
    cfe_periodic,
    format_block,
    parse_block,
    surd_from_cfe,
)
from .cuntz import Cycle, classify_surd, is_nonperiodic
from .equivalence import omega_class_label
from .surds import (
    DomainError,
    NotIrrational,
    ParseError,
    QuadraticSurd,
    ZeroDenominator,
    approx_decimal,
    field_discriminant,
    format_surd,
    gauss_tau,
    parse_surd,
    poly_discriminant,
    surd_to_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _maybe_approx(args, payload: dict, lines: list[str], x: QuadraticSurd) -> None:
    if args.approx is not None:
        val = approx_decimal(x, args.approx)
        payload["approx"] = val
        lines.append(f"approx: {val}")


def _word_text(w) -> str:
    return "(" + words._joined(w) + ")"


def _literal(text: str) -> str:
    # "-" reads the literal from stdin, for blocks past the size limit of one
    # command-line argument
    return sys.stdin.read().strip() if text == "-" else text


def cmd_expand(args) -> int:
    x = parse_surd(_literal(args.surd))
    if args.periodic:
        e = cfe_periodic(x)
        _emit(args, block_to_json(e), [format_block(e)])
    else:
        terms = cfe_expand(x, args.terms)
        _emit(args, {"terms": list(terms)}, [words._joined(terms)])
    return EXIT_OK


def cmd_solve(args) -> int:
    e = parse_block(_literal(args.block))
    x = surd_from_cfe(e)
    label = words.canonical_rotation(e.period)  # e is the expansion of x
    dp, df = poly_discriminant(x), field_discriminant(x)
    payload = {
        "surd": surd_to_json(x),
        "label": list(label),
        "disc_poly": str(dp),
        "disc_field": str(df),
    }
    lines = [format_surd(x), f"label: {_word_text(label)}", f"disc_poly: {dp}", f"disc_field: {df}"]
    _maybe_approx(args, payload, lines, x)
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_equiv(args) -> int:
    if args.left == args.right == "-":
        raise ParseError("only one of the two surds can be read from stdin")
    x, y = parse_surd(_literal(args.left)), parse_surd(_literal(args.right))
    lx, ly = omega_class_label(x), omega_class_label(y)
    eq = lx == ly  # equal labels are exactly modular equivalence
    verdict = "equivalent" if eq else "inequivalent"
    payload = {"equivalent": eq, "label_left": list(lx), "label_right": list(ly)}
    lines = [verdict, f"label_left: {_word_text(lx)}", f"label_right: {_word_text(ly)}"]
    _emit(args, payload, lines)
    return EXIT_OK if eq else EXIT_FAIL


def cmd_classify(args) -> int:
    x = parse_surd(_literal(args.surd))
    cls = classify_surd(x)
    _emit(args, {"class": str(cls), "word": list(cls.word)}, [str(cls)])
    return EXIT_OK


def cmd_tau(args) -> int:
    x = parse_surd(_literal(args.surd))
    t = gauss_tau(x)
    payload = {"surd": surd_to_json(t)}
    lines = [format_surd(t)]
    _maybe_approx(args, payload, lines, t)
    _emit(args, payload, lines)
    return EXIT_OK


def _verify_family(rows, failures) -> int:
    npass = 0
    for instance, got, want in rows:
        if got == want:
            npass += 1
        else:
            failures.append({"instance": instance, "got": str(got), "expected": str(want)})
    return npass


def cmd_verify_examples(args) -> int:
    failures: list[dict] = []

    rows = []
    for k in range(1, 51):
        rows.append((f"single k={k}", classify_surd(families.single_block_surd(k)), Cycle((k,))))
    n1 = _verify_family(rows, failures)
    lines = [f"single-letter blocks, k=1..50: {n1}/{len(rows)} pass"]

    rows = []
    for j in range(1, 11):
        for k in range(1, 11):
            x = families.pair_block_surd(j, k)
            if j == k:
                rows.append((f"pair j=k={k} collapses", x, families.single_block_surd(k)))
            else:
                rows.append((f"pair (j,k)=({j},{k})", classify_surd(x), Cycle((j, k))))
    n2 = _verify_family(rows, failures)
    lines.append(f"two-letter blocks, j,k<=10: {n2}/{len(rows)} pass")

    passes = [n1, n2]
    for name, arity, closed_form in (
        ("triple", 3, families.triple_block_surd),
        ("quad", 4, families.quad_block_surd),
    ):
        rows = []
        for tup in itertools.product(range(1, 6), repeat=arity):
            if not is_nonperiodic(tup):
                continue
            rows.append((f"{name} {tup}", classify_surd(closed_form(*tup)[0]), Cycle(tup)))
        passes.append(_verify_family(rows, failures))
        letters = "three" if arity == 3 else "four"
        lines.append(f"{letters}-letter blocks, entries<=5: {passes[-1]}/{len(rows)} pass")

    x123, d123 = families.triple_block_surd(1, 2, 3)
    lines.append(
        f"triple (1,2,3): raw radicand D={d123}, solved surd {format_surd(x123)}, "
        f"field discriminant {field_discriminant(x123)}"
    )

    payload = {
        "passes": passes,
        "radicand_123": d123,
        "field_discriminant_123": field_discriminant(x123),
        "notes": [],
        "failures": failures,
    }
    if failures:
        _emit(args, payload, lines + [json.dumps(failures)])
        return EXIT_FAIL
    _emit(args, payload, lines)
    return EXIT_OK


def _corpus_expected(mode: str, text: str) -> str:
    if mode == "expand":
        return format_block(parse_block(text))
    if mode == "solve":
        return format_surd(parse_surd(text))
    t = text.strip()
    if t.startswith("P(") and t.endswith(")"):
        t = t[1:]
    return str(Cycle._of(words.canonical_rotation(parse_block(t).period)))


def _corpus_apply(mode: str, payload: str) -> str:
    if mode == "expand":
        return format_block(cfe_periodic(parse_surd(payload)))
    if mode == "solve":
        return format_surd(surd_from_cfe(parse_block(payload)))
    return str(classify_surd(parse_surd(payload)))


def _results_json(results: list[dict]) -> str:
    # json.dumps(results, indent=2) in one pass of the C encoder, which any
    # indent turns off.  Records hold scalars only and strings escape their
    # newlines, so each raw newline is a separator: the item separator puts
    # the fields on their lines, and only a record boundary reads "},\n    {"
    if not results:
        return "[]"
    flat = json.dumps(results, separators=(",\n    ", ": "))
    return "[\n  {\n    " + flat[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]"


def cmd_corpus(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        print(f"cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_PARSE

    results = []
    counts = {"pass": 0, "fail": 0, "error": 0}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        payload, _, expected = (part.strip() for part in line.partition("=>"))
        record: dict = {"line": lineno, "input": payload}
        try:
            out = _corpus_apply(args.mode, payload)
            record["output"] = out
            if expected:
                want = _corpus_expected(args.mode, expected)
                record["expected"] = want
                record["status"] = "pass" if out == want else "fail"
            else:
                record["status"] = "pass"
        except (ParseError, DomainError, NotIrrational, ZeroDenominator, ValueError) as exc:
            record["status"] = "error"
            record["error"] = str(exc)
        counts[record["status"]] += 1
        results.append(record)

    out_path = args.out or (args.path + ".results.json")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(_results_json(results))
    except OSError as exc:
        print(f"cannot write results: {exc}", file=sys.stderr)
        return EXIT_PARSE

    total = sum(counts.values())
    summary = {"entries": total, **counts, "results": out_path}
    _emit(
        args,
        summary,
        [f"{counts['pass']} passed, {counts['fail']} failed, {counts['error']} errors of {total} entries",
         f"results: {out_path}"],
    )
    return EXIT_OK if counts["fail"] == 0 and counts["error"] == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--approx", type=int, metavar="DIGITS", default=None,
                        help="also print a decimal approximation, truncated toward -inf")

    parser = argparse.ArgumentParser(
        prog="cuntzfrac",
        description="Exact continued fractions for quadratic irrationals and "
                    "the cycle classes they classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common],
                       help="partial quotients of a surd in (0, 1)")
    p.add_argument("surd", help="surd literal, e.g. \"(-1+1*sqrt(5))/2\", or - for stdin")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--terms", type=int, metavar="N", help="first N quotients")
    group.add_argument("--periodic", action="store_true",
                       help="canonical initial block and period")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("solve", parents=[common],
                       help="surd in (0, 1) whose expansion is a given block")
    p.add_argument("block", help="block literal, e.g. \"(1,2,3)\" or \"2,1,(3)\", or - for stdin")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("equiv", parents=[common],
                       help="decide modular equivalence of two surds")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("classify", parents=[common],
                       help="cycle class P(...) of a surd in (0, 1)")
    p.add_argument("surd")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tau", parents=[common], help="apply the Gauss map once")
    p.add_argument("surd")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("verify-examples", parents=[common],
                       help="sweep the closed-form block families and check classes")
    p.set_defaults(func=cmd_verify_examples)

    p = sub.add_parser("corpus", parents=[common],
                       help="run expand/solve/classify over a line-oriented file")
    p.add_argument("path")
    p.add_argument("mode", choices=("expand", "solve", "classify"))
    p.add_argument("--out", default=None, help="results JSON path (default: <path>.results.json)")
    p.set_defaults(func=cmd_corpus)

    return parser


# one tree per process: the first call builds it, later calls reuse it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    # the command owns its process, so it lifts CPython's int<->str digit
    # limit for json.dumps of big int lists and the discriminants it prints;
    # the library itself never changes the limit
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, NotIrrational, ZeroDenominator) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        # bad argument values (e.g. --terms 0) count as usage errors
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
