"""In-memory span tracing of the package's layers, installed from outside.

The tracer wraps each public function at the name its caller looks it up
under (for example `oracle.eig_values`, `wavefn_model2` as bound inside
`oracle` and `cli`, and `specfun.jacobi` as `spectra` reaches it), records a
span per call (name, start, end, parent, invocation id, work counts) and
restores every original on exit, so untraced calls in the same process run
the program unmodified.  Hook points a later version of the package no
longer has are listed in Hooks.missing; run.py then reports the traced run
as incorrect, so a lost measurement cannot read as a gain.
"""
import dataclasses
import functools
import statistics
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, invocation, work dict)
        self.invocation = None
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, work=None):
        """Return fn traced as a span called `name`; `work(args, kwargs, result, exc)` -> counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                counts = work(args, kwargs, result, exc) if work else None
                tracer.spans.append((sid, parent, name, t0, t1, tracer.invocation, counts))

        return traced


def _points(args, kwargs, result, exc):
    x = args[-1] if args else next(iter(kwargs.values()))
    return {"points": getattr(x, "size", 1)}


def _rows_of_matrix(args, kwargs, result, exc):
    m = args[0] if args else kwargs["m"]
    return {"rows": m.order}


def _rows_assembled(args, kwargs, result, exc):
    if exc is not None:
        return {"rows": 0}
    mats = result if isinstance(result, tuple) else (result,)
    return {"rows": sum(mat.order for mat in mats)}


def _integrate(args, kwargs, result, exc):
    if exc is not None:
        return {"panels": getattr(exc, "panels", 0), "diverged": 1}
    return {"panels": result.panels, "diverged": 0}


def _wavefn(args, kwargs, result, exc):
    return {"norm_finite": int(exc is None and bool(result.norm_finite))}


def _bytes(args, kwargs, result, exc):
    return {"bytes": len(result.encode("utf-8")) if isinstance(result, str) else 0}


def _write_bytes(args, kwargs, result, exc):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


_POTENTIAL_FACTORIES = (
    "a_u_model1", "a_u_model2", "da_u_model1", "da_u_model2", "midya_rhs",
    "v_eff_general", "v_eff_model1", "v_eff_model1_raw", "v_eff_model2", "v_eff_model2_raw",
)


class Hooks:
    """The set of (owner, attribute, replacement) patches for one package import."""

    def __init__(self, pkg, tracer: Tracer):
        self.patches = []
        self.missing = []
        self.tracer = tracer

        def hook(name, original_owner, attr, layer, work=None, owners=()):
            fn = getattr(original_owner, attr, None)
            if fn is None:
                self.missing.append(name)
                return
            wrapped = tracer.wrap(layer, fn, work)
            for owner in (original_owner,) + tuple(owners):
                if getattr(owner, attr, None) is fn:
                    self.patches.append((owner, attr, wrapped))

        sf, sp, ga, orc, cli = (getattr(pkg, n) for n in ("specfun", "spectra", "gauge", "oracle", "cli"))
        hook("specfun.jacobi", sf, "jacobi", "specfun.jacobi", _points)
        hook("specfun.x1_jacobi", sf, "x1_jacobi", "specfun.x1_jacobi")
        hook("specfun.integrate", sf, "integrate", "specfun.integrate", _integrate)
        for fname in ("wavefn_model1", "wavefn_model2"):
            hook(f"spectra.{fname}", sp, fname, "spectra.wavefn", _wavefn, owners=(orc, cli))
        for fname in ("build_sl_matrix", "compose_factorized"):
            hook(f"oracle.{fname}", orc, fname, "oracle.assemble", _rows_assembled)
        hook("oracle.eig_values", orc, "eig_values", "oracle.eig_values", _rows_of_matrix)
        hook("oracle.eig_lowest", orc, "eig_lowest", "oracle.eig_lowest", _rows_of_matrix)
        hook("oracle.verify_eigenpair", orc, "verify_eigenpair", "oracle.residual")
        hook("oracle.consistency_report", orc, "consistency_report", "oracle.report", owners=(cli,))
        report_cls = getattr(orc, "VerificationReport", None)
        if report_cls is None:
            self.missing.append("oracle.VerificationReport")
        else:
            hook("oracle.VerificationReport.as_dict", report_cls, "as_dict", "cli.serialize")
        hook("cli._atomic_write", cli, "_atomic_write", "cli.write", _write_bytes)
        json_mod = getattr(cli, "json", None)
        if json_mod is None:
            self.missing.append("cli.json")
        else:
            proxy = types.SimpleNamespace(**{k: getattr(json_mod, k) for k in dir(json_mod) if not k.startswith("__")})
            proxy.dumps = tracer.wrap("cli.serialize", json_mod.dumps, _bytes)
            self.patches.append((cli, "json", proxy))
        # Potentials are evaluated through the callables the factories return,
        # so each factory is wrapped to hand back a traced evaluator.
        for fname in _POTENTIAL_FACTORIES:
            fn = getattr(ga, fname, None)
            if fn is None:
                self.missing.append(f"gauge.{fname}")
                continue
            wrapped = self._traced_factory(fn)
            for owner in (ga, orc, cli):
                if getattr(owner, fname, None) is fn:
                    self.patches.append((owner, fname, wrapped))
        self.main = tracer.wrap("cli.main", cli.main)

    def _traced_factory(self, factory):
        tracer = self.tracer

        @functools.wraps(factory)
        def make(*args, **kwargs):
            pot = factory(*args, **kwargs)
            if dataclasses.is_dataclass(pot) and hasattr(pot, "fn"):
                return dataclasses.replace(pot, fn=tracer.wrap("gauge.potential", pot.fn, _points))
            return tracer.wrap("gauge.potential", pot, _points)

        return make

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self.patches]
        try:
            for owner, attr, repl in self.patches:
                setattr(owner, attr, repl)
            yield
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)


LAYER_METRICS = (
    # (metric name, span name, quantity, unit)
    ("specfun.jacobi.calls", "specfun.jacobi", "calls", "count"),
    ("specfun.jacobi.points", "specfun.jacobi", "points", "count"),
    ("specfun.jacobi.self_s", "specfun.jacobi", "self_s", "s"),
    ("specfun.x1_jacobi.calls", "specfun.x1_jacobi", "calls", "count"),
    ("specfun.x1_jacobi.self_s", "specfun.x1_jacobi", "self_s", "s"),
    ("specfun.integrate.calls", "specfun.integrate", "calls", "count"),
    ("specfun.integrate.panels", "specfun.integrate", "panels", "count"),
    ("specfun.integrate.diverged", "specfun.integrate", "diverged", "count"),
    ("specfun.integrate.self_s", "specfun.integrate", "self_s", "s"),
    ("spectra.wavefn.calls", "spectra.wavefn", "calls", "count"),
    ("spectra.wavefn.self_s", "spectra.wavefn", "self_s", "s"),
    ("gauge.potential.calls", "gauge.potential", "calls", "count"),
    ("gauge.potential.points", "gauge.potential", "points", "count"),
    ("gauge.potential.self_s", "gauge.potential", "self_s", "s"),
    ("oracle.eig_values.calls", "oracle.eig_values", "calls", "count"),
    ("oracle.eig_values.rows", "oracle.eig_values", "rows", "count"),
    ("oracle.eig_values.self_s", "oracle.eig_values", "self_s", "s"),
    ("oracle.eig_lowest.calls", "oracle.eig_lowest", "calls", "count"),
    ("oracle.eig_lowest.rows", "oracle.eig_lowest", "rows", "count"),
    ("oracle.eig_lowest.self_s", "oracle.eig_lowest", "self_s", "s"),
    ("oracle.assemble.calls", "oracle.assemble", "calls", "count"),
    ("oracle.assemble.rows", "oracle.assemble", "rows", "count"),
    ("oracle.assemble.self_s", "oracle.assemble", "self_s", "s"),
    ("oracle.residual.calls", "oracle.residual", "calls", "count"),
    ("oracle.residual.self_s", "oracle.residual", "self_s", "s"),
    ("oracle.report.self_s", "oracle.report", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.serialize.self_s", "cli.serialize", "self_s", "s"),
    ("cli.serialize.bytes", "cli.serialize", "bytes", "B"),
    ("cli.write.self_s", "cli.write", "self_s", "s"),
    ("cli.write.bytes", "cli.write", "bytes", "B"),
)


def per_pass_layers(spans, pass_of):
    """Per-pass totals of every layer quantity, as {metric: [value per pass]}.

    Self time is a span's duration minus the time its child spans cover
    (children of one span run one after another, so their durations add).
    """
    child = defaultdict(float)
    for sid, parent, name, t0, t1, inv, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    passes = sorted(set(pass_of.values()))
    totals = {p: defaultdict(float) for p in passes}
    for sid, parent, name, t0, t1, inv, counts in spans:
        tot = totals[pass_of[inv]]
        tot[(name, "calls")] += 1
        tot[(name, "self_s")] += (t1 - t0) - child[sid]
        for key, val in (counts or {}).items():
            tot[(name, key)] += val
    return {p: totals[p] for p in passes}


def layer_metrics(spans, pass_of, scales):
    """Median over passes of each LAYER_METRICS quantity, plus the norm-finite
    ratio; times of pass p are multiplied by scales[p]."""
    per_pass = per_pass_layers(spans, pass_of)
    out = {}
    for metric, layer, qty, unit in LAYER_METRICS:
        vals = [tot[(layer, qty)] * (scales[p] if unit == "s" else 1) for p, tot in per_pass.items()]
        val = statistics.median(vals) if vals else 0.0
        out[metric] = (int(val) if unit in ("count", "B") and val == int(val) else val, unit)
    ratios = []
    for tot in per_pass.values():
        calls = tot[("spectra.wavefn", "calls")]
        ratios.append(tot[("spectra.wavefn", "norm_finite")] / calls if calls else 0.0)
    out["spectra.norm_finite_ratio"] = (statistics.median(ratios) if ratios else 0.0, "1")
    return out


def parse_importtime(stderr_text):
    """(numpy_s, scipy_s, dirac_sphere_s) from `python -X importtime` output.

    numpy and scipy are the cumulative times of their outermost entries (the
    first import of each package, with everything it pulled in); the package
    figure is the self time of the dirac_sphere modules only.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(self_us), int(cum_us)))
    # entries are listed children first; walk backwards to see ancestors first
    stack = []
    numpy_us = scipy_us = own_us = 0
    for depth, name, self_us, cum_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = [n for _, n in stack]
        top = name.split(".")[0]
        if top in ("numpy", "scipy") and not any(a.split(".")[0] == top for a in ancestors):
            if top == "numpy":
                numpy_us += cum_us
            else:
                scipy_us += cum_us
        if top == "dirac_sphere":
            own_us += self_us
        stack.append((depth, name))
    return numpy_us / 1e6, scipy_us / 1e6, own_us / 1e6
