"""Command line front end: expansion, inverse construction, equivalence,
classification, a closed-form verification sweep, and a corpus runner.

The seven commands are one table, _COMMANDS.  A plain command line (exact
option names, each once, values and positionals not starting with "-") is
read straight from it; help, abbreviations, --opt=value, -- and usage errors
go to an argparse tree built from the same table, so a one-shot command that
needs none of these never imports argparse.

Exit codes: 0 success or equivalent, 1 assertion failure or inequivalent,
2 parse or usage error, a corpus file that cannot be read or written, or
standard output closed by its reader, 3 domain error (rational input or
value outside (0, 1)).
"""

from __future__ import annotations

import itertools
import sys

from . import words
from .cfe import (
    block_to_json,
    cfe_expand,
    cfe_periodic,
    format_block,
    parse_block,
    surd_from_cfe,
)
from .cuntz import Cycle, classify_surd, is_nonperiodic
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
        import json  # here and in the other writers of JSON: start-up never loads it
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
    lx, ly = classify_surd(x).word, classify_surd(y).word
    eq = lx == ly  # equal class words are exactly modular equivalence
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


def cmd_verify_examples(args) -> int:
    from . import families  # no other command reads the block families
    single, pair, triple, quad = [], [], [], []
    for k in range(1, 51):
        single.append((f"single k={k}", classify_surd(families.single_block_surd(k)), Cycle((k,))))
    for j in range(1, 11):
        for k in range(1, 11):
            x = families.pair_block_surd(j, k)
            if j == k:
                pair.append((f"pair j=k={k} collapses", x, families.single_block_surd(k)))
            else:
                pair.append((f"pair (j,k)=({j},{k})", classify_surd(x), Cycle((j, k))))
    for rows, name, arity, closed_form in (
        (triple, "triple", 3, families.triple_block_surd),
        (quad, "quad", 4, families.quad_block_surd),
    ):
        for tup in itertools.product(range(1, 6), repeat=arity):
            if is_nonperiodic(tup):
                rows.append((f"{name} {tup}", classify_surd(closed_form(*tup)[0]), Cycle(tup)))

    passes, lines, failures = [], [], []
    for title, rows in (
        ("single-letter blocks, k=1..50", single),
        ("two-letter blocks, j,k<=10", pair),
        ("three-letter blocks, entries<=5", triple),
        ("four-letter blocks, entries<=5", quad),
    ):
        npass = 0
        for instance, got, want in rows:
            if got == want:
                npass += 1
            else:
                failures.append({"instance": instance, "got": str(got), "expected": str(want)})
        passes.append(npass)
        lines.append(f"{title}: {npass}/{len(rows)} pass")

    x123, d123 = families.triple_block_surd(1, 2, 3)
    df123 = field_discriminant(x123)
    lines.append(
        f"triple (1,2,3): raw radicand D={d123}, solved surd {format_surd(x123)}, "
        f"field discriminant {df123}"
    )
    payload = {
        "passes": passes,
        "radicand_123": d123,
        "field_discriminant_123": df123,
        "notes": [],
        "failures": failures,
    }
    if failures:
        import json
        lines.append(json.dumps(failures))
    _emit(args, payload, lines)
    return EXIT_FAIL if failures else EXIT_OK


def _corpus_expected(mode: str, text: str, out: str) -> str:
    # the canonical form of `text`, taken from `out` where that is exact: a
    # formatter's text reads back to itself; and a class word w is canonical
    # decimals between single commas, so a text as long as w that occurs
    # between commas in w,w is a rotation of w, whose least rotation is w
    t = text.strip()
    if t == out:
        return out
    if mode == "expand":
        return format_block(parse_block(text))
    if mode == "solve":
        return format_surd(parse_surd(text))
    if t.startswith("P(") and t.endswith(")"):
        t = t[1:]
    w = out[2:-1]
    if len(t) == len(out) - 1 and t[0] == "(" and t[-1] == ")" and f",{t[1:-1]}," in f",{w},{w},":
        return out
    return str(Cycle._trusted(words.canonical_rotation(parse_block(t).period)))


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
    import json
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
        payload, _, expected = line.partition("=>")
        payload, expected = payload.strip(), expected.strip()
        record: dict = {"line": lineno, "input": payload}
        try:
            out = _corpus_apply(args.mode, payload)
            record["output"] = out
            if expected:
                want = _corpus_expected(args.mode, expected, out)
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


# The seven commands, read by both the plain reader (_plain) and argparse
# (build_parser): name -> (handler, help, positionals, options, one_of).  A
# positional is (name, kind, help) and an option (name, kind, default, help,
# metavar); a kind is str, int, _FLAG (an option without a value) or a tuple
# of choices.  _SHARED options are on every command, and one_of asks for
# exactly one of the command's own options
_FLAG = bool
_SHARED = (
    ("--format", ("text", "json"), "text", "output format (default: text)", None),
    ("--approx", int, None, "also print a decimal approximation, truncated toward -inf", "DIGITS"),
)
_COMMANDS = {
    "expand": (cmd_expand, "partial quotients of a surd in (0, 1)",
               (("surd", str, "surd literal, e.g. \"(-1+1*sqrt(5))/2\", or - for stdin"),),
               (("--terms", int, None, "first N quotients", "N"),
                ("--periodic", _FLAG, False, "canonical initial block and period", None)), True),
    "solve": (cmd_solve, "surd in (0, 1) whose expansion is a given block",
              (("block", str, "block literal, e.g. \"(1,2,3)\" or \"2,1,(3)\", or - for stdin"),), (), False),
    "equiv": (cmd_equiv, "decide modular equivalence of two surds",
              (("left", str, None), ("right", str, None)), (), False),
    "classify": (cmd_classify, "cycle class P(...) of a surd in (0, 1)", (("surd", str, None),), (), False),
    "tau": (cmd_tau, "apply the Gauss map once", (("surd", str, None),), (), False),
    "verify-examples": (cmd_verify_examples, "sweep the closed-form block families and check classes",
                        (), (), False),
    "corpus": (cmd_corpus, "run expand/solve/classify over a line-oriented file",
               (("path", str, None), ("mode", ("expand", "solve", "classify"), None)),
               (("--out", str, None, "results JSON path (default: <path>.results.json)", None),), False),
}


def _value(kind, token: str):
    # the value argparse stores for `token`, or None where argparse refuses it
    if kind is int:
        try:
            return int(token)
        except ValueError:
            return None
    return token if kind is str or token in kind else None


class _Args:
    """The attributes of one plain command line, as argparse's Namespace has them."""


def _plain(argv):
    """The namespace argparse builds from `argv`, or None unless argv is a
    command name, then its positionals (not starting with "-", or "-") and
    exact option names, each once and followed by an accepted value that
    does not start with "-"."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    func, _, positionals, options, one_of = entry
    kinds = {opt[0]: opt[1] for opt in _SHARED + options}
    given: dict = {}
    tokens = []
    rest = iter(argv[1:])
    for token in rest:
        if not token.startswith("-") or token == "-":
            tokens.append(token)
        elif token not in kinds or token in given:
            return None
        elif kinds[token] is _FLAG:
            given[token] = True
        else:
            value = next(rest, "-")  # a missing value reads as a refused one
            given[token] = None if value.startswith("-") else _value(kinds[token], value)
            if given[token] is None:
                return None
    if len(tokens) != len(positionals) or one_of and sum(opt[0] in given for opt in options) != 1:
        return None
    args = _Args()
    args.command, args.func = argv[0], func
    for (name, kind, _), token in zip(positionals, tokens):
        if _value(kind, token) is None:
            return None
        setattr(args, name, token)
    for name, _, default, _, _ in _SHARED + options:
        setattr(args, name[2:], given.get(name, default))
    return args


def build_parser():
    """The argparse tree of the commands in _COMMANDS."""
    import argparse  # only help, abbreviations and usage errors need it

    def add(target, name, kind, default, text, metavar):
        if kind is _FLAG:
            target.add_argument(name, action="store_true", default=default, help=text)
        else:
            target.add_argument(name, type=int if kind is int else None, default=default, help=text,
                                metavar=metavar, choices=None if kind in (str, int) else kind)

    common = argparse.ArgumentParser(add_help=False)
    for option in _SHARED:
        add(common, *option)

    parser = argparse.ArgumentParser(
        prog="cuntzfrac",
        description="Exact continued fractions for quadratic irrationals and "
                    "the cycle classes they classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, positionals, options, one_of) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=text)
        for name, kind, about in positionals:
            p.add_argument(name, help=about, choices=None if kind is str else kind)
        group = p.add_mutually_exclusive_group(required=True) if one_of else p
        for option in options:
            add(group, *option)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # the command owns its process, so it lifts CPython's int<->str digit
    # limit for json.dumps of big int lists and the discriminants it prints;
    # the library itself never changes the limit
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        args = _plain(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
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
    try:
        try:
            code = main()
        finally:  # argparse's help exits with SystemExit, and its text is unflushed too
            sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader of stdout has gone (e.g. `| head`); point stdout at
        # devnull, so the flush at exit cannot fail again, and report it
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write output: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
