"""Command line front end: expansion, inverse construction, equivalence,
classification, a closed-form verification sweep, and a corpus runner.

Exit codes: 0 success or equivalent, 1 assertion failure or inequivalent,
2 parse error, 3 domain error (rational input or value outside (0, 1)).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import families
from .cfe import (
    PeriodicCFE,
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
    unlimited_digits,
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
    return "(" + ",".join(map(str, w)) + ")"


def cmd_expand(args) -> int:
    x = parse_surd(args.surd)
    if args.periodic:
        e = cfe_periodic(x)
        _emit(args, block_to_json(e), [format_block(e)])
    else:
        terms = cfe_expand(x, args.terms)
        _emit(args, {"terms": list(terms)}, [",".join(map(str, terms))])
    return EXIT_OK


def cmd_solve(args) -> int:
    e = parse_block(args.block)
    x = surd_from_cfe(e)
    label = omega_class_label(x)
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
    x, y = parse_surd(args.left), parse_surd(args.right)
    lx, ly = omega_class_label(x), omega_class_label(y)
    eq = lx == ly  # equal labels are exactly modular equivalence
    verdict = "equivalent" if eq else "inequivalent"
    payload = {"equivalent": eq, "label_left": list(lx), "label_right": list(ly)}
    lines = [verdict, f"label_left: {_word_text(lx)}", f"label_right: {_word_text(ly)}"]
    _emit(args, payload, lines)
    return EXIT_OK if eq else EXIT_FAIL


def cmd_classify(args) -> int:
    x = parse_surd(args.surd)
    cls = classify_surd(x)
    _emit(args, {"class": str(cls), "word": list(cls.word)}, [str(cls)])
    return EXIT_OK


def cmd_tau(args) -> int:
    x = parse_surd(args.surd)
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
    notes: list[str] = []

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

    rows = []
    for tup in itertools.product(range(1, 6), repeat=3):
        if not is_nonperiodic(tup):
            continue
        x, _ = families.triple_block_surd(*tup)
        got = classify_surd(x)
        want = Cycle(tup)
        if got != want:
            # the expansion itself is authoritative when the closed form drifts
            oracle = classify_surd(surd_from_cfe(PeriodicCFE((), tup)))
            if oracle == want:
                notes.append(f"triple {tup}: closed form gave {got}, inverse construction confirms {want}")
                got = oracle
        rows.append((f"triple {tup}", got, want))
    n3 = _verify_family(rows, failures)
    lines.append(f"three-letter blocks, entries<=5: {n3}/{len(rows)} pass")

    rows = []
    for tup in itertools.product(range(1, 6), repeat=4):
        if not is_nonperiodic(tup):
            continue
        x, _ = families.quad_block_surd(*tup)
        got = classify_surd(x)
        want = Cycle(tup)
        if got != want:
            oracle = classify_surd(surd_from_cfe(PeriodicCFE((), tup)))
            if oracle == want:
                notes.append(f"quad {tup}: closed form gave {got}, inverse construction confirms {want}")
                got = oracle
        rows.append((f"quad {tup}", got, want))
    n4 = _verify_family(rows, failures)
    lines.append(f"four-letter blocks, entries<=5: {n4}/{len(rows)} pass")

    x123, d123 = families.triple_block_surd(1, 2, 3)
    lines.append(
        f"triple (1,2,3): raw radicand D={d123}, solved surd {format_surd(x123)}, "
        f"field discriminant {field_discriminant(x123)}"
    )
    lines.extend(notes)

    payload = {
        "passes": [n1, n2, n3, n4],
        "radicand_123": d123,
        "field_discriminant_123": field_discriminant(x123),
        "notes": notes,
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
    return str(Cycle(parse_block(t).period))


def _corpus_apply(mode: str, payload: str) -> str:
    if mode == "expand":
        return format_block(cfe_periodic(parse_surd(payload)))
    if mode == "solve":
        return format_surd(surd_from_cfe(parse_block(payload)))
    return str(classify_surd(parse_surd(payload)))


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
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)

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
    p.add_argument("surd", help="surd literal, e.g. \"(-1+1*sqrt(5))/2\"")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--terms", type=int, metavar="N", help="first N quotients")
    group.add_argument("--periodic", action="store_true",
                       help="canonical initial block and period")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("solve", parents=[common],
                       help="surd in (0, 1) whose expansion is a given block")
    p.add_argument("block", help="block literal, e.g. \"(1,2,3)\" or \"2,1,(3)\"")
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


@unlimited_digits  # answers and their JSON are printed at full precision
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
