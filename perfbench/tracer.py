"""Per-layer tracing of detpf from outside the library.

`Tracer.install()` replaces the public functions of each detpf module with
timing wrappers, both in the module that defines them and in every detpf
module that imported them by name, and wraps the operator dunders of
`Polynomial`, `IdentitySpec.guard_values` and each registered identity's
`sides` builder.  `uninstall()` puts every original back.

Spans live in memory as lists `[id, parent, op, name, start, end, attrs]`
and are written out by `write_spans` when the run ends.  A span named
`harness.verify` or `cli.main` that opens outside any other operation
starts a new operation id; every span inside it carries that id.  Self time
is a span's duration minus the durations of its direct children.

Worker processes of a process pool inherit the wrappers when they are
forked, but their spans stay in the worker and are not collected.
"""

import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict

from detpf import cli, harness, identities, linalg, lr, poly, symfunc, vandermonde
from detpf.poly import Polynomial

_OP_SPANS = ("harness.verify", "cli.main")


def _named(name):
    return lambda args: (name, None)


def _scalar_kind(values):
    return "poly" if any(isinstance(v, Polynomial) for v in values) else "rational"


def _det_span(args):
    m = args[0]
    return f"linalg.det.{_scalar_kind(m.data)}", {"dim": m.rows}


def _pfaffian_span(args):
    a = args[0]
    return f"linalg.pfaffian.{_scalar_kind(a.upper.values())}", {"dim": a.dim}


def _dim_named(name):
    """Span name plus the dimension of the first argument (a matrix, tensor or int)."""

    def before(args):
        first = args[0]
        dim = first if isinstance(first, int) else getattr(first, "rows", getattr(first, "dim", None))
        return name, {"dim": dim}

    return before


# (module, function name, args -> (span name, attrs))
_FUNCTIONS = [
    (linalg, "det", _det_span),
    (linalg, "pfaffian", _pfaffian_span),
    (linalg, "det_with_denominators", _dim_named("linalg.det_with_denominators")),
    (linalg, "pfaffian_with_denominators", _dim_named("linalg.pfaffian_with_denominators")),
    (linalg, "hyperpfaffian", _dim_named("linalg.hyperpfaffian")),
    (vandermonde, "build_V", _named("vandermonde.build")),
    (vandermonde, "build_W", _named("vandermonde.build")),
    (vandermonde, "build_U", _named("vandermonde.build")),
    (vandermonde, "build_V_shifted", _named("vandermonde.build")),
    (vandermonde, "build_DBC", _named("vandermonde.build")),
    (vandermonde, "fgh_sum", _named("vandermonde.fgh_sum")),
    (symfunc, "schur_jacobi_trudi", _named("symfunc.schur_jacobi_trudi")),
    (symfunc, "schur_bialternant", _named("symfunc.schur_bialternant")),
    (symfunc, "h_complete", _named("symfunc.h_complete")),
    (lr, "lr_bruteforce", _named("lr.lr_bruteforce")),
    (lr, "lr_via_pfaffian", _named("lr.lr_via_pfaffian")),
    (lr, "lr_rectangle_theorem", _named("lr.lr_rectangle_theorem")),
    (lr, "schur_expand", _named("lr.schur_expand")),
    (harness, "verify", _named("harness.verify")),
    (harness, "run_campaign", _named("harness.run_campaign")),
    (cli, "main", _named("cli.main")),
]

# add, sub and neg share one name: sub is add of a negation
_POLY_DUNDERS = {
    "__mul__": "poly.mul",
    "__rmul__": "poly.mul",
    "__add__": "poly.add",
    "__radd__": "poly.add",
    "__sub__": "poly.add",
    "__rsub__": "poly.add",
    "__neg__": "poly.add",
    "exact_div": "poly.exact_div",
    "text": "poly.text",
}

# every span name the tracer can emit; each gets .calls and .self_s metrics
SPAN_NAMES = (
    "poly.mul",
    "poly.add",
    "poly.exact_div",
    "poly.text",
    "linalg.det.rational",
    "linalg.det.poly",
    "linalg.pfaffian.rational",
    "linalg.pfaffian.poly",
    "linalg.det_with_denominators",
    "linalg.pfaffian_with_denominators",
    "linalg.hyperpfaffian",
    "vandermonde.build",
    "vandermonde.fgh_sum",
    "symfunc.schur_jacobi_trudi",
    "symfunc.schur_bialternant",
    "symfunc.h_complete",
    "lr.lr_bruteforce",
    "lr.lr_via_pfaffian",
    "lr.lr_rectangle_theorem",
    "lr.schur_expand",
    "identities.sides",
    "identities.guards",
    "harness.verify",
    "harness.run_campaign",
    "cli.main",
)


def _detpf_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "detpf"]


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.per_identity = defaultdict(Counter)
        self._stack = []
        self._op_span = None
        self._next_op = 0
        self._restore = []
        self._draws_since_guard = 0

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name, attrs=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        starts_op = self._op_span is None and name in _OP_SPANS
        if starts_op:
            op = self._next_op
            self._next_op += 1
        else:
            op = parent[2] if parent else None
        span = [len(self.spans), parent[0] if parent else None, op, name, 0.0, 0.0, attrs]
        if starts_op:
            self._op_span = span
        self.spans.append(span)
        stack.append(span)
        span[4] = time.perf_counter()
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()
        if span is self._op_span:
            self._op_span = None

    def _wrap(self, fn, before, after=None):
        """Wrap fn in a span named by `before(args)`; `after(span, args, result)` may annotate it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(*before(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    # -- hooks --------------------------------------------------------------

    def _after_mul(self, span, args, result):
        if not isinstance(result, Polynomial):
            return
        a, b = args
        b_terms = len(b.terms) if isinstance(b, Polynomial) else 1
        span[6] = {"pairs": len(a.terms) * b_terms, "out": len(result.terms)}

    def _after_expand(self, span, args, result):
        span[6] = {"peels": len(result)}

    def _count_draw(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters["harness.draws"] += 1
            tracer._draws_since_guard += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_guards(self, span, args, result):
        name = args[0].name
        accepted = all(g != 0 for g in result)
        per = self.per_identity[name]
        per["guard_attempts"] += 1
        per["draws"] += self._draws_since_guard
        if accepted:
            per["guard_accepts"] += 1
            per["accepted_draws"] += self._draws_since_guard
            self.counters["harness.guard.accepted_draws"] += self._draws_since_guard
        self._draws_since_guard = 0
        span[6] = {"identity": name, "accepted": accepted}

    def _sides_wrapper(self, spec):
        tracer = self

        def after(span, args, result):
            numeric = args[2]
            span[6] = {"identity": spec.name, "numeric": bool(numeric)}
            if not numeric:
                return
            vacuous = sum(1 for lhs, rhs in result if lhs == 0 and rhs == 0)
            per = tracer.per_identity[spec.name]
            per["pairs"] += len(result)
            per["vacuous_pairs"] += vacuous
            tracer.counters["identities.sides.pairs"] += len(result)
            tracer.counters["identities.sides.vacuous_pairs"] += vacuous

        return self._wrap(spec.sides, _named("identities.sides"), after)

    # -- install / uninstall ---------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        for module in _detpf_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, fname, before in _FUNCTIONS:
            original = getattr(module, fname)
            after = self._after_expand if fname == "schur_expand" else None
            self._replace_everywhere(original, self._wrap(original, before, after))
        self._replace_everywhere(poly.random_rational, self._count_draw(poly.random_rational))
        for attr, span_name in _POLY_DUNDERS.items():
            after = self._after_mul if span_name == "poly.mul" else None
            wrapper = self._wrap(Polynomial.__dict__[attr], _named(span_name), after)
            self._replace(Polynomial, attr, wrapper)
        spec_class = identities.IdentitySpec
        guards = self._wrap(spec_class.guard_values, _named("identities.guards"), self._after_guards)
        self._replace(spec_class, "guard_values", guards)
        registry = identities.REGISTRY
        for name in list(registry):
            spec = registry[name]
            self._restore.append((registry, name, spec))
            registry[name] = dataclasses.replace(spec, sides=self._sides_wrapper(spec))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, self seconds, and the mul/expand counters."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[5] - span[4]
        totals = {name: Counter() for name in SPAN_NAMES}
        for span, inner in zip(self.spans, child_time):
            t = totals[span[3]]
            t["calls"] += 1
            t["self_s"] += (span[5] - span[4]) - inner
            attrs = span[6]
            if attrs and span[3] == "poly.mul":
                t["term_pairs"] += attrs["pairs"]
                t["max_terms_out"] = max(t["max_terms_out"], attrs["out"])
            elif attrs and span[3] == "lr.schur_expand":
                t["peels"] += attrs["peels"]
        return totals

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end, attrs in self.spans:
                record = {"id": span_id, "parent": parent, "op": op, "name": name,
                          "start": start, "end": end}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
