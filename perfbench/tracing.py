"""Per-layer tracing from outside the package.

``Tracer`` wraps the public functions listed in ``TRACED`` and swaps each
wrapper into every ``cuntzfrac`` module whose namespace holds the original, so
calls from one module into another are caught as well as the benchmark's own.
Each call opens a span (name, start, parent); when it closes, its self time
(duration minus the time of the spans it caused) is added to the function's
total and its duration to the parent's child time.  Spans are folded into these sums as they close instead
of being stored, so memory stays flat over millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

TRACED = {
    "surds": ("squarefree_split", "normalize", "parse_surd", "format_surd", "approx_decimal",
              "gauss_tau", "mobius_apply", "poly_discriminant"),
    "cfe": ("cfe_periodic", "surd_from_cfe", "cfe_expand", "minimal_period_normalize",
            "parse_block", "format_block", "sigma_shift"),
    "words": ("failure_function", "least_rotation_index"),
    "equivalence": ("modular_equivalent", "omega_class_label", "apply_and_reduce"),
    "cuntz": ("classify_surd", "label_cons", "apply_word_op", "word_op_mul",
              "verify_cuntz_relations", "orbit_decompose", "cycle_dft_split",
              "gp_vector_check", "intertwiner_check"),
    "cli": ("main",),
}
MODULES = tuple(TRACED)
BUCKETS = (2, 3, 4, 5)  # period-length buckets 10^2 .. 10^5


def _bucket_metrics(stem: str, unit: str) -> list[tuple[str, str]]:
    return [(f"{stem}.p1e{k}", unit) for k in BUCKETS]


# every per-layer metric, in report order, with its unit
LAYER_METRICS = [
    ("surds.squarefree_split.calls", "count"),
    ("surds.squarefree_split.self_s", "s"),
    ("surds.squarefree_split.cache_hit_ratio", "ratio"),
    ("surds.approx_decimal.self_s", "s"),
    ("surds.gauss_tau.self_s", "s"),
    ("surds.normalize.calls", "count"),
    ("surds.normalize.self_s", "s"),
    ("surds.parse_surd.self_s", "s"),
    ("surds.format_surd.self_s", "s"),
    ("surds.mobius_apply.calls", "count"),
    ("surds.mobius_apply.self_s", "s"),
    ("cfe.cfe_periodic.calls", "count"),
    ("cfe.cfe_periodic.self_s", "s"),
    *_bucket_metrics("cfe.cfe_periodic.ns_per_quotient", "ns"),
    ("cfe.surd_from_cfe.calls", "count"),
    ("cfe.surd_from_cfe.self_s", "s"),
    *_bucket_metrics("cfe.surd_from_cfe.ns_per_quotient", "ns"),
    *_bucket_metrics("cfe.surd_from_cfe.fold_bits", "bits"),
    ("cfe.cfe_expand.self_s", "s"),
    ("cfe.minimal_period_normalize.calls", "count"),
    ("cfe.minimal_period_normalize.self_s", "s"),
    ("cfe.parse_block.self_s", "s"),
    ("cfe.format_block.self_s", "s"),
    ("cfe.sigma_shift.calls", "count"),
    ("cfe.sigma_shift.self_s", "s"),
    ("words.failure_function.calls", "count"),
    ("words.failure_function.self_s", "s"),
    ("words.least_rotation_index.calls", "count"),
    ("words.least_rotation_index.self_s", "s"),
    ("equivalence.modular_equivalent.calls", "count"),
    ("equivalence.modular_equivalent.self_s", "s"),
    ("equivalence.omega_class_label.calls", "count"),
    ("equivalence.cfe_periodic_per_equiv", "count"),
    ("cuntz.verify_cuntz_relations.self_s", "s"),
    ("cuntz.label_cons.calls", "count"),
    ("cuntz.label_cons.self_s", "s"),
    ("cuntz.apply_word_op.calls", "count"),
    ("cuntz.apply_word_op.self_s", "s"),
    ("cuntz.word_op_mul.calls", "count"),
    ("cuntz.word_op_mul.self_s", "s"),
    ("cuntz.orbit_decompose.self_s", "s"),
    ("cuntz.cycle_dft_split.self_s", "s"),
    ("cuntz.classify_surd.calls", "count"),
    ("cuntz.classify_surd.self_s", "s"),
    ("cli.main.self_s", "s"),
    *[(f"{m}.self_share", "ratio") for m in MODULES],
    ("trace.overhead_ratio", "ratio"),
]


def _bucket(period_len: int) -> int | None:
    k = round(math.log10(period_len))
    return k if k in BUCKETS else None


def _median(values: list[float]) -> float:
    v = sorted(values)
    n = len(v)
    return (v[(n - 1) // 2] + v[n // 2]) / 2 if v else 0.0


class Tracer:
    """Context manager: wraps the traced functions on entry, restores them on exit."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.samples: dict[str, list[float]] = {}  # per-bucket samples
        self.periodic_in_equiv = 0
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        homes = {m: importlib.import_module(f"cuntzfrac.{m}") for m in TRACED}
        modules = [m for name, m in sys.modules.items()
                   if name == "cuntzfrac" or name.startswith("cuntzfrac.")]
        for mod_name, funcs in TRACED.items():
            for func in funcs:
                original = getattr(homes[mod_name], func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        observe = {
            "cfe.cfe_periodic": self._observe_periodic,
            "cfe.surd_from_cfe": self._observe_inverse,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - span[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result, duration)
            return result

        return wrapper

    def _sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def _observe_periodic(self, args, e, duration: float) -> None:
        if any(span[0] == "equivalence.modular_equivalent" for span in self._stack):
            self.periodic_in_equiv += 1
        k = _bucket(len(e.period))
        if k is not None:
            quotients = len(e.initial) + len(e.period)
            self._sample(f"cfe.cfe_periodic.ns_per_quotient.p1e{k}", duration * 1e9 / quotients)

    def _observe_inverse(self, args, x, duration: float) -> None:
        e = args[0]
        k = _bucket(len(e.period))
        if k is not None:
            quotients = len(e.initial) + len(e.period)
            self._sample(f"cfe.surd_from_cfe.ns_per_quotient.p1e{k}", duration * 1e9 / quotients)
            # the fold's matrix entries lie between prod(a) and prod(a + 1);
            # log2 of prod(a) gives their bit size without redoing the fold
            self._sample(f"cfe.surd_from_cfe.fold_bits.p1e{k}", sum(map(math.log2, e.period)))

    def metrics(self, cache_hits: int, cache_lookups: int, overhead_ratio: float) -> dict[str, float]:
        """Every metric of LAYER_METRICS; 0 where the run made no such call.

        Bucketed metrics are medians over the calls in the bucket.
        """
        values: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        for key, samples in self.samples.items():
            values[key] = _median(samples)
        values["surds.squarefree_split.cache_hit_ratio"] = cache_hits / cache_lookups if cache_lookups else 0.0
        equiv_calls = self.stats["equivalence.modular_equivalent"][0]
        values["equivalence.cfe_periodic_per_equiv"] = self.periodic_in_equiv / equiv_calls if equiv_calls else 0.0
        traced_self = sum(s[1] for s in self.stats.values())
        for mod in MODULES:
            mod_self = sum(s[1] for n, s in self.stats.items() if n.startswith(mod + "."))
            values[f"{mod}.self_share"] = mod_self / traced_self if traced_self else 0.0
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values.get(name, 0) for name, _unit in LAYER_METRICS}
