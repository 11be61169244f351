"""Span tracer that wraps the program's public functions from outside.

The program binds its functions into several modules with
``from .x import y`` (``w_mu_exact`` lives in cli, stationary and oracle;
``dressed_exponents`` in four modules), so `Tracer.install` replaces every
binding of each target object across ``dresslines.*`` and `Tracer.remove`
puts every one back.

Spans (name, start, end, parent, task id) are kept in memory for the task
in progress and folded into per-name aggregates when the task ends; the
spans of the first `keep_tasks` tasks are kept whole for writing out.
A span's self time is its duration minus its children's durations, less
the tracer's own per-span cost measured by `calibrate`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) of each wrapped object and how it is wrapped:
#   span: a span, optionally counting the points of one argument
#   measure: a span whose callable argument 0 is counted as a density callback
#   quad: no span; counts integrand calls
#   ivp: no span; sums sol.nfev
#   average: a span; counts elements returned by pointwise argument 0
TARGETS = (
    ("dresslines.cli", "main", "span", None),
    ("dresslines.cli", "load_config", "span", None),
    ("dresslines.dressed", "dressed_exponents", "span", None),
    ("dresslines.stationary", "w_mu_exact", "span", (3, "Omega_mu")),
    ("dresslines.stationary", "w_mu_weak", "span", (3, "Omega_mu")),
    ("dresslines.doppler", "voigt_density", "span", (1, "detuning")),
    ("dresslines.doppler", "weak_doublet_components", "span", None),
    ("dresslines.doppler", "strong_doublet_components", "span", None),
    ("dresslines.doppler", "triplet_components", "span", None),
    ("dresslines.doppler", "find_peak", "measure", None),
    ("dresslines.doppler", "fwhm", "measure", None),
    ("dresslines.doppler", "integrated_intensity", "measure", None),
    ("dresslines.doppler", "quad", "quad", None),
    ("dresslines.oracle", "certify", "span", None),
    ("dresslines.oracle", "w_mu_time_domain_grid", "span", None),
    ("dresslines.oracle", "velocity_average", "average", None),
    ("dresslines.oracle", "solve_ivp", "ivp", None),
    ("dresslines.oracle", "roots_hermite", "span", None),
)

ROOT = "task"


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr}"


def _points(args, kwargs, where):
    pos, key = where
    v = args[pos] if len(args) > pos else kwargs.get(key)
    size = getattr(v, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    def __init__(self, keep_tasks: int = 5):
        self.stack: list[int] = []
        self.spans: list[list] = []          # [name, t0, t1, parent, points, error]
        self.counts = defaultdict(int)
        self.agg: dict[str, list] = {}       # name -> [calls, self_ns, points, errors]
        self.kept: list[tuple] = []
        self.keep_tasks = keep_tasks
        self.tasks = 0
        self.task_id = -1
        self.inner_ns = 0.0                  # tracer cost inside a span's own interval
        self.outer_ns = 0.0                  # tracer cost a parent sees per child span
        self.child_ns = 0                    # root time a traced child process accounted for
        self.child_self_ns = 0.0             # self time that child reported
        self.task_self_ns: list[float] = []  # per task: summed self times
        self.task_ns: list[int] = []         # per task: root span duration
        self._patched: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, points=None, arg_wrap=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if arg_wrap is not None and args:
                args = (arg_wrap(args[0]),) + args[1:]
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   _points(args, kwargs, points) if points else 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, size=False):
        counts = self.counts

        def wrap(f):
            if getattr(f, "_perfbench_counter", None) == key:
                return f

            def counted(*a, **k):
                out = f(*a, **k)
                counts[key] += getattr(out, "size", 1) if size else 1
                return out

            counted._perfbench_counter = key
            return counted

        return wrap

    def _wrapper_for(self, name, kind, fn, points):
        if kind == "span":
            return self._span(name, fn, points)
        if kind == "measure":
            return self._span(name, fn, arg_wrap=self._counted("doppler.density_evals"))
        if kind == "average":
            counts, inner = self.counts, self._span(
                name, fn, arg_wrap=self._counted("oracle.velocity_average.integrand_evals", size=True))

            def average(*args, **kwargs):
                settings = args[5] if len(args) > 5 else kwargs.get("settings")
                if settings is not None and settings.doubling_check:
                    counts["oracle.doubling_reruns"] += 1
                return inner(*args, **kwargs)

            average.__wrapped__ = fn
            return average
        counts = self.counts
        if kind == "quad":
            counter = self._counted("doppler.quad.integrand_evals")

            def quad(func, *args, **kwargs):
                return fn(counter(func), *args, **kwargs)

            quad.__wrapped__ = fn
            return quad

        def ivp(*args, **kwargs):  # kind == "ivp"
            sol = fn(*args, **kwargs)
            counts["oracle.ode.nfev"] += int(sol.nfev)
            return sol

        ivp.__wrapped__ = fn
        return ivp

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every binding of every target across the loaded dresslines modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "dresslines" or n.startswith("dresslines.")) and m is not None]
        for mod_name, attr, kind, points in TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue            # a layer this process never imported, or one the program dropped
            wrapped = self._wrapper_for(span_name(mod_name, attr), kind, original, points)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapped)

    def remove(self):
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- tasks -----------------------------------------------------------------

    def begin_task(self, task_id: int):
        self.task_id = task_id
        self.stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter_ns(), 0, -1, 0, False])

    def end_task(self, error: bool = False):
        root = self.spans[self.stack.pop()]
        root[2] = time.perf_counter_ns()
        root[5] = error
        self.fold()

    def fold(self):
        """Turn the current task's spans into aggregates and clear them."""
        spans = self.spans
        child_ns = [0] * len(spans)
        n_children = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
                n_children[rec[3]] += 1
        child_ns[0] += self.child_ns
        task_self = self.child_self_ns
        self.child_ns, self.child_self_ns = 0, 0.0
        for i, (name, t0, t1, _, points, err) in enumerate(spans):
            own = t1 - t0 - child_ns[i] - n_children[i] * self.outer_ns
            if name != ROOT:
                own -= self.inner_ns
            own = max(own, 0.0)
            task_self += own
            a = self.agg.setdefault(name, [0, 0.0, 0, 0])
            a[0] += 1
            a[1] += own
            a[2] += points
            a[3] += err
        self.task_self_ns.append(task_self)
        self.task_ns.append(spans[0][2] - spans[0][1])
        if self.tasks < self.keep_tasks:
            self.kept.extend((self.task_id, *rec) for rec in spans)
        self.tasks += 1
        spans.clear()

    def merge(self, other: dict):
        """Add aggregates and counts exported by a traced child process.

        The child's top-level time counts as a child of the current root span.
        """
        self.child_ns += other["top_ns"]
        self.child_self_ns += sum(a[1] for a in other["agg"].values())
        for name, a in other["agg"].items():
            mine = self.agg.setdefault(name, [0, 0.0, 0, 0])
            for i, v in enumerate(a):
                mine[i] += v
        for key, v in other["counts"].items():
            self.counts[key] += v

    def export(self, top_ns: int) -> dict:
        return {"agg": self.agg, "counts": dict(self.counts), "top_ns": top_ns}

    # -- calibration -------------------------------------------------------------

    def calibrate(self, n: int = 20000):
        """Measure the per-span cost of the wrapper on a function that does nothing."""
        def noop():
            return None

        probe = Tracer(keep_tasks=0)
        wrapped = probe._span("noop", noop)
        clock = time.perf_counter_ns
        best_bare = best_wrapped = float("inf")
        inner = []
        for _ in range(5):
            t0 = clock()
            for _ in range(n):
                noop()
            best_bare = min(best_bare, clock() - t0)
            probe.begin_task(0)
            t0 = clock()
            for _ in range(n):
                wrapped()
            best_wrapped = min(best_wrapped, clock() - t0)
            inner.extend(r[2] - r[1] for r in probe.spans[1:])
            probe.spans.clear()
            probe.stack.clear()
        inner.sort()
        self.inner_ns = float(inner[len(inner) // 2])
        self.outer_ns = max((best_wrapped - best_bare) / n - self.inner_ns, 0.0)
