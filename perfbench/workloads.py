"""The four benchmark workloads: seeded input generation and the timed items.

Each workload has two halves.  ``generate_<name>(rng, scale)`` runs in the
benchmark's parent process before anything is timed; it returns JSON-able
inputs, every expected answer, and a table of input properties.
``items_<name>(inputs, workdir)`` runs in the measured child process and
returns a list of rounds, each a list of ``(run, arg, n)`` triples where
``run(arg)`` does ``n`` countable items of work and returns
``(answer, failed)``.  The timed loop cycles through the rounds, clearing the
factoring cache between them, so each round starts as cold as a fresh process.

Calls into the package always go through the module attribute
(``surds.parse_surd``), never through a name bound at import, so the tracer in
``tracing.py`` sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os

from cuntzfrac import cfe, cli, cuntz, equivalence, surds

# ---------------------------------------------------------------------------
# small exact helpers, independent of the package

def _is_primitive(w) -> bool:
    n = len(w)
    return all(w != w[k:] + w[:k] for k in range(1, n) if n % k == 0)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng, digits: int) -> int:
    while True:
        n = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        if _is_prime(n):
            return n


def _is_squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def _word_text(w) -> str:
    return ",".join(map(str, w))


def _block_text(initial, period) -> str:
    head = _word_text(initial) + "," if initial else ""
    return f"{head}({_word_text(period)})"


def _is_rotation(w, v) -> bool:
    return len(w) == len(v) and f",{_word_text(w)}," in f",{_word_text(v + v)},"


def _random_block(rng, max_period: int, max_initial: int, top: int):
    """A canonical (primitive period, unfoldable initial block) random block."""
    while True:
        period = tuple(rng.randint(1, top) for _ in range(rng.randint(1, max_period)))
        initial = tuple(rng.randint(1, top) for _ in range(rng.randint(0, max_initial)))
        if _is_primitive(period) and not (initial and initial[-1] == period[-1]):
            return initial, period


def _omega_surd(rng, d: int, b: int, cmax: int) -> tuple[int, int]:
    """Random (a, c) with 0 < (a + b*sqrt(d))/c < 1, c >= 1."""
    c = rng.randint(1, cmax)
    s = math.isqrt(b * b * d)
    return rng.randint(-s, c - s - 1), c


def _surd_text(a: int, b: int, c: int, d: int) -> str:
    return f"({a}{b:+d}*sqrt({d}))/{c}"


def _share(counts: dict, total: int) -> dict:
    return {k: round(v / total, 4) for k, v in counts.items()}


# ---------------------------------------------------------------------------
# corpus-short: cli corpus runs over short blocks with small radicands

CORPUS_MODES = ("expand", "solve", "classify")
CORPUS_RADICAND_LIMIT = 10**9


def generate_corpus_short(rng, scale: float) -> dict:
    lines = max(4, int(1000 * scale))
    files: dict[str, list[str]] = {}
    plen = {f"period.{lo}-{lo + 2}": 0 for lo in (1, 4, 7, 10)}
    for mode in CORPUS_MODES:
        out = []
        while len(out) < lines:
            initial, period = _random_block(rng, 12, 3, 9)
            x = cfe.surd_from_cfe(cfe.PeriodicCFE(initial, period))
            if x.d >= CORPUS_RADICAND_LIMIT:
                continue
            block, surd = _block_text(initial, period), surds.format_surd(x)
            out.append({
                "expand": f"{surd} => {block}",
                "solve": f"{block} => {surd}",
                "classify": f"{surd} => P({_word_text(period)})",
            }[mode])
            lo = (len(period) - 1) // 3 * 3 + 1
            plen[f"period.{lo}-{lo + 2}"] += 1
        files[mode] = out
    return {
        "files": files,
        "properties": {"lines_per_file": lines, **_share(plen, 3 * lines)},
    }


def _run_corpus(arg):
    mode, path, out_path, expected = arg
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["corpus", path, mode, "--out", out_path, "--format", "json"])
    passed = json.loads(out.getvalue())["pass"] if rc in (cli.EXIT_OK, cli.EXIT_FAIL) else 0
    with open(out_path, "rb") as fh:
        answer = hashlib.sha256(fh.read()).hexdigest()
    return answer, expected - passed


def items_corpus_short(inputs: dict, workdir: str) -> list:
    items = []
    for mode, lines in inputs["files"].items():
        path = os.path.join(workdir, f"{mode}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        items.append((_run_corpus, (mode, path, path + ".results.json", len(lines)), len(lines)))
    return [items]


# ---------------------------------------------------------------------------
# long-period: expand --periodic then solve on surds with periods 10^2..10^5

# Radicands d whose sqrt(d) has a period within 1% of 10^5, found by the same
# search as _long_case over d in [2e10, 1e11); searching at run time would
# cost seconds per case.
P1E5_RADICANDS = (
    89151474086, 27948437331, 66270301966, 56425793692, 92668633503, 97865307784,
    59514868851, 28256480332, 80093681159, 27787118959, 32871729409, 71153197444,
    63972255956, 31182980621, 35523442078, 49652395497,
)
# bucket -> (cases per round, radicands in which such periods are common).
# The counts put the latency median in the middle of the 10^3 cases and the
# 90th percentile in the middle of the 10^4 cases.
LONG_BUCKETS = {
    100: (7, range(10**5, 10**6)),
    1000: (26, range(10**7, 10**8)),
    10000: (6, range(10**8, 10**9)),
    100000: (1, P1E5_RADICANDS),
}
PERIOD_TOLERANCE = 0.02


def _sqrt_period(d: int, limit: int):
    """Period of sqrt(d) = [a0; (a1, ..., 2*a0)], or None when longer than limit."""
    a0 = math.isqrt(d)
    m, q, a, out = 0, 1, a0, []
    while len(out) <= limit:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        out.append(a)
        if a == 2 * a0:
            return tuple(out)
    return None


def _long_case(rng, target: int, radicands) -> dict:
    while True:
        d = rng.choice(radicands)
        if math.isqrt(d) ** 2 == d:
            continue
        period = _sqrt_period(d, int(target * (1 + PERIOD_TOLERANCE)))
        if period and len(period) >= target * (1 - PERIOD_TOLERANCE):
            break
    # entries <= 9 never equal the closing 2*a0 >= 632, so the block is canonical
    initial = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
    m = surds.UnimodularMatrix.identity()
    for a in initial:
        m = m @ cfe.cfe_step_matrix(a)
    x = surds.mobius_apply(m, surds.normalize(-math.isqrt(d), 1, 1, d))
    return {
        "text": surds.format_surd(x),
        "initial": list(initial),
        "period_len": len(period),
        "period_hash": hash(period),
        "disc": 4 * d,
        "bucket": target,
    }


def generate_long_period(rng, scale: float) -> dict:
    cases = []
    for target, (count, radicands) in LONG_BUCKETS.items():
        if scale < 1 and target > 1000:
            continue
        n = max(1, round(count * min(scale, 1.0)))
        cases.extend(_long_case(rng, target, radicands) for _ in range(n))
    rng.shuffle(cases)
    buckets = {f"bucket.p1e{len(str(t)) - 1}": sum(c["bucket"] == t for c in cases) for t in LONG_BUCKETS}
    return {"cases": cases, "properties": {"cases_per_round": len(cases), **_share(buckets, len(cases))}}


def _run_long(case):
    x = surds.parse_surd(case["text"])
    e = cfe.cfe_periodic(x)
    y = cfe.surd_from_cfe(cfe.parse_block(cfe.format_block(e)))
    label = equivalence.omega_class_label(y)
    ok = (
        y == x
        and list(e.initial) == case["initial"]
        and len(e.period) == case["period_len"]
        and hash(e.period) == case["period_hash"]
        and surds.poly_discriminant(y) == case["disc"]
        and _is_rotation(label, e.period)
    )
    return f"{surds.format_surd(y)}|{len(e.period)}|{hash(label)}", int(not ok)


def items_long_period(inputs: dict, workdir: str) -> list:
    return [[(_run_long, case, 1) for case in inputs["cases"]]]


# ---------------------------------------------------------------------------
# requests-mixed: single expand/tau/approx requests on two-prime radicands,
# and equiv requests on small radicands

REQUEST_KINDS = ("expand", "tau", "tau_approx", "equiv")
REQUEST_ROUNDS = 10
EXPAND_TERMS = 64
APPROX_DIGITS = 60


def _quotients(p: int, q: int, d: int, n: int) -> list[int]:
    """First n partial quotients of (p + sqrt(d))/q, with q | d - p*p."""
    s, out = math.isqrt(d), []
    for _ in range(n):
        a = (p + s) // q if q > 0 else -((p + s) // -q) - 1
        out.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return out


def _surd_request(rng, radicand: int, kind: str) -> dict:
    a, c = _omega_surd(rng, radicand, 1, 99)
    # 1/x = c/(a + sqrt(D)) = (-P + sqrt(D'))/Q', scaled so that Q' | D' - P*P
    p, q, d, s = a, c, radicand, 1
    if (d - p * p) % q:
        p, q, d, s = p * c, c * c, d * c * c, c
    p, q = -p, (d - p * p) // q
    terms = _quotients(p, q, d, EXPAND_TERMS)
    # quotients kept as text: the child holds ten rounds of requests in memory
    req = {"kind": kind, "text": _surd_text(a, 1, c, radicand), "terms": _word_text(terms)}
    if kind != "expand":
        # tau(x) = 1/x - a1 = (p - a1*q + sqrt(d))/q = (ta + s*sqrt(radicand))/tc
        ta, tb, tc = p - terms[0] * q, s, q
        if tc < 0:
            ta, tb, tc = -ta, -tb, -tc
        g = math.gcd(ta, tb, tc)
        ta, tb, tc = ta // g, tb // g, tc // g
        req["tau"] = _surd_text(ta, tb, tc, radicand)
        if kind == "tau_approx":
            scale = 10**APPROX_DIGITS
            root = math.isqrt(tb * tb * scale * scale * radicand)
            num = ta * scale + (root if tb > 0 else -root - 1)
            req["approx"] = "0." + str(num // tc).zfill(APPROX_DIGITS)
    return req


def _small_surd(rng) -> tuple[int, int, int, int]:
    while True:
        d = rng.randint(2, 999)
        if _is_squarefree(d):
            break
    b = rng.randint(1, 3)
    a, c = _omega_surd(rng, d, b, 30)
    return a, b, c, d


def _equiv_request(rng, equivalent: bool) -> dict:
    a, b, c, d = _small_surd(rng)
    left = _surd_text(a, b, c, d)
    if equivalent:
        m = surds.UnimodularMatrix.identity()
        for _ in range(rng.randint(3, 6)):
            step = rng.choice((surds.UnimodularMatrix(1, rng.randint(1, 5), 0, 1),
                               surds.UnimodularMatrix(0, 1, 1, 0)))
            m = m @ step
        x = surds.normalize(a, b, c, d)
        right = surds.format_surd(equivalence.apply_and_reduce(m, x))
    else:
        while True:
            a2, b2, c2, d2 = _small_surd(rng)
            if d2 != d:
                break
        right = _surd_text(a2, b2, c2, d2)
    return {"kind": "equiv", "left": left, "right": right, "equivalent": equivalent}


def _request_round(rng, n: int) -> tuple[list[dict], int]:
    kinds = []
    while len(kinds) < n:
        group = list(REQUEST_KINDS)
        rng.shuffle(group)
        kinds.extend(group)
    digit_pairs: list[tuple[int, int]] = []
    radicands: list[int] = []
    requests, repeated, surd_count, equiv_count = [], 0, 0, 0
    for kind in kinds[:n]:
        if kind == "equiv":
            requests.append(_equiv_request(rng, equiv_count % 2 == 0))
            equiv_count += 1
            continue
        if surd_count % 4 == 3:
            radicand = rng.choice(radicands)
            repeated += 1
        else:
            if not digit_pairs:
                digit_pairs = list(itertools.product(range(6, 10), repeat=2))
                rng.shuffle(digit_pairs)
            dp, dq = digit_pairs.pop()
            # distinct primes keep the radicand squarefree, and distinct
            # radicands make the planned repeats the only factoring-cache hits
            while True:
                radicand = _random_prime(rng, dp) * _random_prime(rng, dq)
                if math.isqrt(radicand) ** 2 != radicand and radicand not in radicands:
                    break
            radicands.append(radicand)
        surd_count += 1
        requests.append(_surd_request(rng, radicand, kind))
    return requests, repeated


def generate_requests_mixed(rng, scale: float) -> dict:
    # distinct rounds, so that a run's figures average over many radicands:
    # the factoring time of one radicand varies widely
    n = max(8, int(1600 * scale))
    rounds, repeated = [], 0
    for _ in range(REQUEST_ROUNDS if scale >= 1 else 1):
        requests, r = _request_round(rng, n)
        rounds.append(requests)
        repeated += r
    total = n * len(rounds)
    mix = {f"kind.{k}": sum(r["kind"] == k for rnd in rounds for r in rnd) for k in REQUEST_KINDS}
    return {
        "rounds": rounds,
        "properties": {
            "requests_per_round": n,
            "distinct_rounds": len(rounds),
            **_share(mix, total),
            "repeated_radicand": round(repeated / total, 4),
        },
    }


def _run_request(req):
    if req["kind"] == "equiv":
        x, y = surds.parse_surd(req["left"]), surds.parse_surd(req["right"])
        eq = equivalence.modular_equivalent(x, y)
        lx, ly = equivalence.omega_class_label(x), equivalence.omega_class_label(y)
        ok = eq == req["equivalent"] and (lx == ly) == req["equivalent"]
        return f"{eq}|{_word_text(lx)}|{_word_text(ly)}", int(not ok)
    x = surds.parse_surd(req["text"])
    if req["kind"] == "expand":
        terms = cfe.cfe_expand(x, EXPAND_TERMS)
        answer = _word_text(terms)
        return answer, int(answer != req["terms"])
    t = surds.gauss_tau(x)
    answer = surds.format_surd(t)
    # conjugacy: the Gauss map drops exactly the first partial quotient
    tail = _word_text(cfe.cfe_expand(t, EXPAND_TERMS - 1))
    ok = answer == req["tau"] and tail == req["terms"].split(",", 1)[1]
    if req["kind"] == "tau_approx":
        approx = surds.approx_decimal(t, APPROX_DIGITS)
        ok = ok and approx == req["approx"]
        answer += "|" + approx
    return answer, int(not ok)


def items_requests_mixed(inputs: dict, workdir: str) -> list:
    return [[(_run_request, req, 1) for req in rnd] for rnd in inputs["rounds"]]


# ---------------------------------------------------------------------------
# cuntz-sweep: relation sweeps, orbit decompositions and word-operator checks

RELATION_SWEEPS = ((3, 2), (3, 3), (4, 2), (3, 4), (5, 2), (4, 3))
ORBIT_SPACES = ((4, 3), (5, 2), (3, 4))


def _primitive_words_count(n: int, k: int) -> int:
    """Primitive words of length n over k letters (Moebius inversion)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * k ** (n // d)
    return total


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _space_counts(depth: int, k: int) -> tuple[int, int]:
    """(labels, orbits) of LabelSpace.full(depth, k): a primitive period of
    length n takes k**(depth - n) initial blocks; orbits are Lyndon words."""
    labels = sum(_primitive_words_count(n, k) * k ** (depth - n) for n in range(1, depth + 1))
    orbits = sum(_primitive_words_count(n, k) // n for n in range(1, depth + 1))
    return labels, orbits


# Sizes cycle through fixed shapes and only the symbols come from the seed, so
# every seed has the same cost profile.  The counts put the latency median in
# the middle of the intertwiner checks, whose cost is the most even.
WORD_OP_SHAPES = tuple(itertools.product(range(4), range(4), range(4), range(2)))  # |u.left|, |u.right|, |v.left|, |v.right|
LABEL_SHAPES = tuple((m, k) for m in range(4) for k in range(1, 4))  # |initial|, |period|
DFT_SHAPES = tuple((k, n) for k in range(1, 5) for n in range(2, 9))  # |word|, multiplicity
GP_LENGTHS = tuple(range(1, 7))
CUNTZ_COUNTS = {"word_op": 128, "intertwiner": 60, "dft": 56, "gp": 60}


def _random_word(rng, top: int, length: int) -> list[int]:
    return [rng.randint(1, top) for _ in range(length)]


def _random_primitive(rng, top: int, length: int) -> list[int]:
    while True:
        w = _random_word(rng, top, length)
        if _is_primitive(w):
            return w


def _random_label(rng, initial_len: int, period_len: int) -> dict:
    period = _random_primitive(rng, 3, period_len)
    initial = _random_word(rng, 3, initial_len)
    if initial and initial[-1] == period[-1]:
        initial[-1] = initial[-1] % 3 + 1  # canonical: the initial block cannot fold
    return {"initial": initial, "period": period}


def generate_cuntz_sweep(rng, scale: float) -> dict:
    checks = [{"kind": "relations", "depth": d, "alphabet": k} for d, k in RELATION_SWEEPS]
    for d, k in ORBIT_SPACES:
        labels, orbits = _space_counts(d, k)
        checks.append({"kind": "orbits", "depth": d, "alphabet": k, "labels": labels, "orbits": orbits})
    counts = {k: max(1, round(v * scale)) for k, v in CUNTZ_COUNTS.items()}
    if scale < 1:
        checks = checks[:1] + checks[len(RELATION_SWEEPS):len(RELATION_SWEEPS) + 1]
    for i in range(counts["word_op"]):
        ul, ur, vl, vr = WORD_OP_SHAPES[i % len(WORD_OP_SHAPES)]
        checks.append({
            "kind": "word_op",
            "u": [_random_word(rng, 3, ul), _random_word(rng, 3, ur)],
            "v": [_random_word(rng, 3, vl), _random_word(rng, 3, vr)],
            "label": _random_label(rng, *LABEL_SHAPES[i % len(LABEL_SHAPES)]),
        })
    for _ in range(counts["intertwiner"]):
        a, b, c, d = _small_surd(rng)
        checks.append({"kind": "intertwiner", "text": _surd_text(a, b, c, d),
                       "i": rng.randint(1, 9), "n": 32})
    for i in range(counts["dft"]):
        length, n = DFT_SHAPES[i % len(DFT_SHAPES)]
        checks.append({"kind": "dft", "word": _random_primitive(rng, 5, length), "n": n})
    for i in range(counts["gp"]):
        checks.append({"kind": "gp", "word": _random_primitive(rng, 5, GP_LENGTHS[i % len(GP_LENGTHS)]),
                       "depth": 8})
    rng.shuffle(checks)
    mix: dict[str, int] = {}
    for c in checks:
        mix[f"kind.{c['kind']}"] = mix.get(f"kind.{c['kind']}", 0) + 1
    return {"checks": checks, "properties": {"checks_per_round": len(checks), **_share(mix, len(checks))}}


def _apply(op, label):
    return None if label is None else cuntz.apply_word_op(op, label)


def _run_check(chk):
    kind = chk["kind"]
    if kind == "relations":
        bad = cuntz.verify_cuntz_relations(chk["depth"], chk["alphabet"])
        return f"relations|{len(bad)}", int(bool(bad))
    if kind == "orbits":
        space = cuntz.LabelSpace.full(chk["depth"], chk["alphabet"])
        orbits = cuntz.orbit_decompose(space)
        sizes = sum(len(v) for v in orbits.values())
        ok = len(space) == sizes == chk["labels"] and len(orbits) == chk["orbits"]
        return f"orbits|{len(orbits)}|{sizes}", int(not ok)
    if kind == "word_op":
        u, v = cuntz.WordOperator(*map(tuple, chk["u"])), cuntz.WordOperator(*map(tuple, chk["v"]))
        label = cfe.PeriodicCFE(tuple(chk["label"]["initial"]), tuple(chk["label"]["period"]))
        got = _apply(cuntz.word_op_mul(u, v), label)
        ok = got == _apply(u, _apply(v, label))
        return f"word_op|{got}", int(not ok)
    if kind == "intertwiner":
        ok = cuntz.intertwiner_check(surds.parse_surd(chk["text"]), chk["i"], chk["n"])
        return f"intertwiner|{ok}", int(not ok)
    if kind == "dft":
        entries = cuntz.cycle_dft_split(tuple(chk["word"]), chk["n"])
        ok = all(e.verdict == "pass" for e in entries[:-1]) and entries[-1].verdict == "reducible"
        return f"dft|{len(entries)}|{ok}", int(not ok)
    entries = cuntz.gp_vector_check(tuple(chk["word"]), chk["depth"])
    ok = all(e.verdict == "pass" for e in entries)
    return f"gp|{ok}", int(not ok)


def items_cuntz_sweep(inputs: dict, workdir: str) -> list:
    return [[(_run_check, chk, 1) for chk in inputs["checks"]]]


GENERATE = {
    "corpus-short": generate_corpus_short,
    "long-period": generate_long_period,
    "requests-mixed": generate_requests_mixed,
    "cuntz-sweep": generate_cuntz_sweep,
}
ITEMS = {
    "corpus-short": items_corpus_short,
    "long-period": items_long_period,
    "requests-mixed": items_requests_mixed,
    "cuntz-sweep": items_cuntz_sweep,
}
