"""Outside-in tracing of the lagrev layers.

install() replaces every public module-level function of the package, at
every module that binds it (the defining module included, so calls inside
a module are seen too), with a wrapper that records a span: label, start,
end, parent span, operation id, whether it raised, and a probe value for
the few calls whose arguments a layer metric needs.  Spans stay in memory
until the pass ends.  uninstall() puts the original objects back.

layer_metrics() turns one pass's spans into the per-layer metrics.  A
layer is a lagrev module; a span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("series", "quadint", "quadrature", "specfun", "realanalog",
          "inversion", "expr", "verify", "cli")

# Labels the per-layer metrics are built from.  A label that a commit no
# longer defines is reported as missing and its metrics read 0.
EXPECTED = (
    "series.lagrange_revert", "series.revert_exact", "series.compose",
    "quadint.beta_r", "specfun.inc_beta", "quadrature.quad_oracle",
    "specfun.hyp2f1", "specfun.appell_f1", "realanalog.hi_inverse",
    "realanalog.hi_of", "realanalog.modular_abscissa",
    "realanalog.f1_real_cross", "inversion.build_context",
    "inversion.F1_inverse", "inversion.F1_forward", "verify.run_suite",
    "cli.main",
)

REVERT_ORDERS = (16, 32, 48, 64)
EXACT_ORDERS = (16, 24, 32)

_ORIGINAL = "__perfbench_original__"

# span record fields
LABEL, START, END, PARENT, OP, RAISED, PROBE = range(7)


def _order_arg(args, kwargs):
    return kwargs["order"] if "order" in kwargs else args[1]


def _quad_branch(args, kwargs):
    x = kwargs["x"] if "x" in kwargs else args[0]
    return abs(complex(x)) > 0.8


# Per-call ratios: calls of the key made anywhere below a call of the value.
UNDER = {
    "series.compose": "series.lagrange_revert",
    "specfun.inc_beta": "quadint.beta_r",
    "realanalog.hi_of": "realanalog.hi_inverse",
    "realanalog.modular_abscissa": "realanalog.f1_real_cross",
    "inversion.F1_inverse": "inversion.F1_forward",
}

PROBES = {
    "series.lagrange_revert": _order_arg,
    "series.revert_exact": _order_arg,
    "specfun.inc_beta": _quad_branch,
}


def lagrev_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lagrev" or name.startswith("lagrev."))]


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if getattr(obj, "__module__", "").startswith("lagrev"):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patched: list = []  # (module, name, original)
        self.labels: set = set()

    def install(self) -> None:
        wrappers = {}
        for module in lagrev_modules():
            for name, fn in list(_public_functions(module)):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn)
                self._patched.append((module, name, fn))
                setattr(module, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def missing(self) -> list:
        return sorted(set(EXPECTED) - self.labels)

    def _wrap(self, fn):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        self.labels.add(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(label)
        counts_evals = label == "quadrature.quad_oracle"
        signature = inspect.signature(fn) if counts_evals else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, False, None]
            if probe is not None:
                try:
                    rec[PROBE] = probe(args, kwargs)
                except (IndexError, KeyError, TypeError, ValueError):
                    pass  # an argument list the probe cannot read; fn reports it
            if counts_evals:
                args, kwargs = _count_callables(signature, args, kwargs, rec)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper


def _count_callables(signature, args, kwargs, rec):
    """Wrap every callable argument of quad_oracle so that its
    evaluations are counted in rec[PROBE]."""
    bound = signature.bind(*args, **kwargs)
    rec[PROBE] = 0

    def counted(g):
        def h(*a, **k):
            rec[PROBE] += 1
            return g(*a, **k)
        return h

    for key, value in bound.arguments.items():
        if callable(value):
            bound.arguments[key] = counted(value)
    return bound.args, bound.kwargs


def wrapped_bindings() -> list:
    """Bindings that do not hold the original function object: a leftover
    wrapper, or a name rebound to something other than its definition."""
    bad = []
    for module in lagrev_modules():
        for name, fn in _public_functions(module):
            if hasattr(fn, _ORIGINAL):
                bad.append(f"{module.__name__}.{name}")
                continue
            home = sys.modules.get(fn.__module__)
            if home is not None and getattr(home, fn.__name__, fn) is not fn:
                bad.append(f"{module.__name__}.{name}")
    return bad


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]

    self_s = {layer: 0.0 for layer in LAYERS}
    calls, raised, total_s, durations = {}, {}, {}, {}
    under = {}  # label -> calls made below its UNDER ancestor
    ancestors: list = [()] * n  # watched ancestor labels of each span
    watched = set(UNDER.values())
    evals = 0
    quad_share = 0
    for i, rec in enumerate(spans):
        label = rec[LABEL]
        dur = rec[END] - rec[START]
        layer = label.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += dur - child[i]
        calls[label] = calls.get(label, 0) + 1
        raised[label] = raised.get(label, 0) + bool(rec[RAISED])
        total_s[label] = total_s.get(label, 0.0) + dur
        if label in ("series.lagrange_revert", "series.revert_exact"):
            durations.setdefault(label, []).append((rec[PROBE], dur))
        parent = rec[PARENT]
        anc = ancestors[parent] if parent >= 0 else ()
        if parent >= 0 and spans[parent][LABEL] in watched and spans[parent][LABEL] not in anc:
            anc = anc + (spans[parent][LABEL],)
        ancestors[i] = anc
        if label in UNDER and UNDER[label] in anc:
            under[label] = under.get(label, 0) + 1
        if label == "quadrature.quad_oracle":
            evals += rec[PROBE] or 0
        if label == "specfun.inc_beta" and rec[PROBE]:
            quad_share += 1

    def per(label):
        base = calls.get(UNDER[label], 0)
        return under.get(label, 0) / base if base else 0.0

    def median_ms(label, order):
        picked = [d for o, d in durations.get(label, []) if o == order]
        return 1e3 * statistics.median(picked) if picked else 0.0

    out = {
        "series.revert_s": total_s.get("series.lagrange_revert", 0.0),
    }
    for order in REVERT_ORDERS:
        out[f"series.revert_ms.n{order}"] = median_ms("series.lagrange_revert", order)
    out["series.revert_exact_s"] = total_s.get("series.revert_exact", 0.0)
    for order in EXACT_ORDERS:
        out[f"series.revert_exact_ms.n{order}"] = median_ms("series.revert_exact", order)
    quad_calls = calls.get("quadrature.quad_oracle", 0)
    inc_calls = calls.get("specfun.inc_beta", 0)
    out.update({
        "series.compose_per_revert": per("series.compose"),
        "series.self_s": self_s["series"],
        "quadint.beta_r_calls": calls.get("quadint.beta_r", 0),
        "quadint.beta_r_s": total_s.get("quadint.beta_r", 0.0),
        "quadint.inc_beta_per_beta_r": per("specfun.inc_beta"),
        "quadint.self_s": self_s["quadint"],
        "quadrature.calls": quad_calls,
        "quadrature.evals_per_call": evals / quad_calls if quad_calls else 0.0,
        "quadrature.fail": raised.get("quadrature.quad_oracle", 0),
        "quadrature.self_s": self_s["quadrature"],
        "specfun.calls": sum(c for lab, c in calls.items() if lab.startswith("specfun.")),
        "specfun.fail": sum(c for lab, c in raised.items() if lab.startswith("specfun.")),
        "specfun.inc_beta_s": total_s.get("specfun.inc_beta", 0.0),
        "specfun.hyp2f1_s": total_s.get("specfun.hyp2f1", 0.0),
        "specfun.appell_f1_s": total_s.get("specfun.appell_f1", 0.0),
        "specfun.inc_beta_quad_share": quad_share / inc_calls if inc_calls else 0.0,
        "specfun.self_s": self_s["specfun"],
        "realanalog.hi_inverse_calls": calls.get("realanalog.hi_inverse", 0),
        "realanalog.hi_of_per_hi_inverse": per("realanalog.hi_of"),
        "realanalog.modular_abscissa_per_cross": per("realanalog.modular_abscissa"),
        "realanalog.self_s": self_s["realanalog"],
        "inversion.build_context_s": total_s.get("inversion.build_context", 0.0),
        "inversion.f1_inverse_per_forward": per("inversion.F1_inverse"),
        "inversion.self_s": self_s["inversion"],
        "expr.self_s": self_s["expr"],
        "verify.self_s": self_s["verify"],
        "cli.self_s": self_s["cli"],
    })
    return out
