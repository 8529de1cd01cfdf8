#!/usr/bin/env python3
"""dirac-sphere benchmark: CLI wall time, warm compute time and oracle accuracy.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 32 --trace 0

Runs from the root of a source checkout and times the program only from
outside: fresh `python -m dirac_sphere.cli ...` processes, and warm in-process
`dirac_sphere.cli.main(argv)` calls.  One client, one invocation at a time
(a closed loop).  Each timed pass covers the workload's whole invocation
list in a seed-shuffled order; passes repeat until --seconds would be
exceeded.  Every invocation's output is checked (see checks.py), and every
time is scaled to a reference machine speed (see calibrate.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same
invocations in process only, alternating untraced and traced calls, and
prints the per-layer metrics.  The last stdout line is one JSON object.
Child processes and this process run single-threaded BLAS/OpenMP.
"""
import os

# Single-threaded baseline, set before numpy is imported anywhere.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SPAN_DIR = ROOT / ".bench_out"

SETUP_IMPORTS = 5  # timed fresh imports per run; setup_s is their median
PROFILE_IMPORTS = 3  # -X importtime runs per traced run
CHILD_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # samples required beyond the tail percentile
# Every run makes at least 2 passes, so verify-many-levels, which fits only
# 2 passes of its 8 invocations in a run, always has 32 warm samples and so a
# compute tail above p50 (see summarize and Workload.warm_reps).
MIN_PASSES = 2
SETUP = "setup"  # calibration key of the set-up phase (passes are 0, 1, ...)


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, cwd, timeout=CHILD_TIMEOUT_S):
    """Run `python <args>`; returns (exit code, wall s, peak RSS MB, stderr text)."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


def median(values):
    return statistics.median(values) if values else float("nan")


def summarize(samples, factor=None):
    """(p50, tail, tail percentile, n) of per-invocation times.

    samples is {name: [(raw s, phase)]}; factor maps a phase to the scale
    of its times (calibrate.py), or is None for raw times.  Workloads mix
    invocations whose costs differ several-fold, so a pooled median would
    sit on the gap between them.  p50 is each invocation's median of scaled
    times, averaged over the list.  The tail is p50 times the pooled
    percentile of every raw sample over its own invocation's raw median (a
    ratio the machine's speed cancels from, so the scaling adds no noise to
    it), at the highest integer percentile with at least TAIL_BEYOND samples
    beyond it.  With fewer than 2 * TAIL_BEYOND samples no percentile above
    the median qualifies, and the tail is p50.
    """
    samples = {name: v for name, v in samples.items() if v}
    if not samples:  # every invocation failed; the run reports correct = false
        return float("nan"), float("nan"), 50, 0
    p50 = statistics.fmean(
        median([t * (factor[p] if factor else 1.0) for t, p in v]) for v in samples.values()
    )
    ratios = []
    for v in samples.values():
        raw = [t for t, _ in v]
        mid = median(raw)
        ratios += [t / mid for t in raw]
    ratios.sort()
    n = len(ratios)
    q = max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))
    return p50, p50 * max(1.0, ratios[math.ceil(q * n / 100.0) - 1]), q, n


class Bench:
    def __init__(self, workload, seed, seconds, trace, work):
        self.workload = WORKLOADS[workload]
        self.seconds = seconds
        self.trace = trace
        self.work = Path(work)
        self.rng = random.Random(seed)
        self.baseline = {}  # invocation name -> report bytes, or None if it failed
        self.reports = {}  # invocation name -> decoded verify report
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first messages only
        self.configs = {}
        self.pkg = self.cli = None
        self.phase = SETUP  # SETUP or the index of the running pass
        self.kernel_s = defaultdict(list)  # phase -> calibration kernel times

    # -- inputs -------------------------------------------------------------
    def write_configs(self, invocations):
        cfg_dir = self.work / "configs"
        cfg_dir.mkdir(exist_ok=True)
        for inv in invocations:
            if inv.name not in self.configs:
                path = cfg_dir / f"{inv.name}.json"
                path.write_text(json.dumps(inv.config), encoding="utf-8")
                self.configs[inv.name] = str(path)

    def argv(self, inv, outdir):
        return ["verify", "--config", self.configs[inv.name], "--out", outdir]

    # -- machine speed (see calibrate.py) -----------------------------------
    def calibrate(self):
        t0 = perf_counter()
        calibrate.kernel()
        self.kernel_s[self.phase].append(perf_counter() - t0)

    def scales(self):
        """{phase: factor} that turns times measured in a phase into
        reference-speed seconds."""
        return {phase: calibrate.REFERENCE_S / median(times) for phase, times in self.kernel_s.items()}

    # -- one invocation -----------------------------------------------------
    def _outcome(self, inv, outdir, code, errtext, counted):
        """Check one invocation's report; returns True when it is correct."""
        try:
            if code != 0:
                raise checks.CheckError(f"{inv.name}: exit {code}: {errtext.strip()[-500:]}")
            data = checks.read_report(inv, outdir)
            if inv.name not in self.baseline:
                self.reports[inv.name] = checks.check_report(inv, data)
                self.baseline[inv.name] = data
            elif self.baseline[inv.name] is None:
                raise checks.CheckError(f"{inv.name}: first output of this config failed its checks")
            elif data != self.baseline[inv.name]:
                raise checks.CheckError(f"{inv.name}: output differs from the first run of this config")
            return True
        except (checks.CheckError, ValueError, KeyError, TypeError, OSError) as exc:
            self.baseline.setdefault(inv.name, None)
            self.failed += counted
            if len(self.failures) < 20:
                self.failures.append(str(exc))
            return False
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def inproc(self, inv, main, counted=True):
        """Warm in-process call; returns its wall time, or None if it failed."""
        outdir = tempfile.mkdtemp(dir=self.work)
        argv = self.argv(inv, outdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is a failed invocation, not a crashed benchmark
                code = "exception"
                err.write(traceback.format_exc())
            elapsed = perf_counter() - t0
        ok = self._outcome(inv, outdir, code, err.getvalue(), counted)
        self.attempted += counted
        return elapsed if ok else None

    def fresh(self, inv, counted=True):
        """Fresh-process call; returns (wall s, peak RSS MB), or None if it failed."""
        outdir = tempfile.mkdtemp(dir=self.work)
        code, wall, rss, errtext = run_child(["-m", "dirac_sphere.cli", *self.argv(inv, outdir)], self.work)
        ok = self._outcome(inv, outdir, code, errtext, counted)
        self.attempted += counted
        return (wall, rss) if ok else None

    # -- set-up -------------------------------------------------------------
    def import_cli(self):
        sys.path.insert(0, str(SRC))
        import dirac_sphere
        import dirac_sphere.cli

        if Path(dirac_sphere.__file__).resolve().parent != (SRC / "dirac_sphere").resolve():
            raise RuntimeError(f"imported dirac_sphere from {dirac_sphere.__file__}, not {SRC}")
        self.pkg = dirac_sphere
        self.cli = dirac_sphere.cli

    def fresh_imports(self, args, count):
        """Run `python <args>` count + 1 times (the first untimed, to warm the
        file cache), calibrating after each; returns the timed runs'
        (wall, stderr text)."""
        out = []
        for i in range(count + 1):
            code, wall, _, errtext = run_child(args, self.work)
            if code != 0:
                raise RuntimeError(f"python {' '.join(args)} failed: {errtext}")
            if i:
                out.append((wall, errtext))
            self.calibrate()
        return out

    def warm_up(self):
        """One untimed in-process call per invocation (it also captures the
        baseline outputs) and one untimed fresh process."""
        for inv in self.workload.invocations:
            self.inproc(inv, self.cli.main, counted=False)
        if not self.trace:
            self.fresh(self.workload.invocations[0], counted=False)

    # -- timed passes -------------------------------------------------------
    def passes(self, body):
        """Run body(order, pass index) over shuffled full passes until --seconds
        (at least MIN_PASSES); returns the count."""
        start, last, count = perf_counter(), 0.0, 0
        while count < MIN_PASSES or (perf_counter() - start) + last <= self.seconds:
            self.phase = count
            t0 = perf_counter()
            body(self.rng.sample(self.workload.invocations, len(self.workload.invocations)), count)
            last = perf_counter() - t0
            count += 1
        self.phase = SETUP
        return count

    def measure(self):
        """Timed passes of fresh and warm calls; samples are (raw s, pass)."""
        walls = {inv.name: [] for inv in self.workload.invocations}
        compute = {inv.name: [] for inv in self.workload.invocations}
        rss = []

        def body(order, _):
            for inv in order:
                res = self.fresh(inv)
                if res is not None:
                    walls[inv.name].append((res[0], self.phase))
                    rss.append(res[1])
                for _ in range(self.workload.warm_reps):
                    t = self.inproc(inv, self.cli.main)
                    if t is not None:
                        compute[inv.name].append((t, self.phase))
                self.calibrate()

        return walls, compute, rss, self.passes(body)

    def measure_traced(self, hooks):
        """Timed passes alternating untraced and traced warm calls."""
        untraced = {inv.name: [] for inv in self.workload.invocations}
        traced = {inv.name: [] for inv in self.workload.invocations}
        pass_of = {}  # invocation id -> pass

        def body(order, index):
            for inv in order:
                for _ in range(self.workload.warm_reps):
                    t = self.inproc(inv, self.cli.main)
                    if t is not None:
                        untraced[inv.name].append((t, index))
                    hooks.tracer.invocation = len(pass_of)
                    pass_of[hooks.tracer.invocation] = index
                    with hooks.installed():
                        t = self.inproc(inv, hooks.main)
                    if t is not None:
                        traced[inv.name].append((t, index))
                self.calibrate()

        return untraced, traced, pass_of, self.passes(body)

    # -- accuracy -----------------------------------------------------------
    def references(self, invocations):
        """Converged Model-I levels per (C1, k, branch), computed in set-up."""
        need = {}
        for inv in invocations:
            if inv.model1_key is not None:
                need[inv.model1_key] = max(need.get(inv.model1_key, 0), inv.levels)
        return {key: reference.model1_reference(self.pkg.gauge, *key, count) for key, count in need.items()}

    def oracle_error(self, invocations, refs):
        """Max |oracle - reference| over the Model-I levels of these reports."""
        err, rows = 0.0, []
        for inv in invocations:
            if inv.model1_key is None:
                rows.append(f"  {inv.name}: no reference (Model II does not converge in t)")
                continue
            levels, gap = refs[inv.model1_key]
            report = self.reports.get(inv.name)
            if report is None:
                continue
            for claim in report["report"]["claims"]:
                if claim["claim_id"].startswith("c.spectrum.m"):
                    n = int(claim["claim_id"].rsplit("m", 1)[1])
                    oracle = claim["details"]["oracle"]
                    diff = abs(oracle - float(levels[n]))
                    err = max(err, diff)
                    rows.append(
                        f"  {inv.name} level {n}: oracle {oracle:.7f} reference {levels[n]:.7f} "
                        f"|diff| {diff:.3e} (self-check {gap:.1e})"
                    )
        return err, rows

    def golden_diff(self):
        """Claims whose metric differs from the committed golden reports (information only)."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        diff = 0
        for name, report in self.reports.items():
            if report is None or name not in golden:
                continue
            got = {c["claim_id"]: c["metric"] for c in report["report"]["claims"]}
            want = golden[name]
            for cid in set(got) | set(want):
                a, b = got.get(cid), want.get(cid)
                both_nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
                diff += not (a == b or both_nan)
        return diff


def environment():
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas} "
        + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    )


def src_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "dirac_sphere").rglob("*.py"))
    )


def write_spans(tracer, workload):
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def untraced_metrics(bench):
    """End-to-end metrics, times scaled to the reference speed."""
    setup = [wall for wall, _ in bench.fresh_imports(["-c", "import dirac_sphere.cli"], SETUP_IMPORTS)]
    bench.import_cli()
    refs = bench.references(bench.workload.invocations)
    bench.warm_up()
    walls, compute, rss, n_passes = bench.measure()
    oracle_err, rows = bench.oracle_error(bench.workload.invocations, refs)
    print("reference (Chebyshev collocation in t = tanh w):")
    print("\n".join(rows))
    fail_ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    scales = bench.scales()
    wall_p50, wall_tail, wall_q, wall_n = summarize(walls, scales)
    comp_p50, comp_tail, comp_q, comp_n = summarize(compute, scales)
    raw_wall, raw_comp = summarize(walls), summarize(compute)
    print(f"passes: {n_passes}; fresh samples {wall_n} (tail = p{wall_q}), "
          f"in-process samples {comp_n} (tail = p{comp_q})")
    print(f"raw: setup_s={median(setup)!r} cmd_wall_s.p50={raw_wall[0]!r} cmd_wall_s.tail={raw_wall[1]!r} "
          f"compute_s.p50={raw_comp[0]!r} compute_s.tail={raw_comp[1]!r}")
    print(f"fail_ratio: {fail_ratio} ({bench.failed} of {bench.attempted}); "
          f"report.golden_diff: {bench.golden_diff()} (information only)")
    return {
        "setup_s": (median(setup) * scales[SETUP], "s"),
        "cmd_wall_s.p50": (wall_p50, "s"),
        "cmd_wall_s.tail": (wall_tail, "s"),
        "compute_s.p50": (comp_p50, "s"),
        "compute_s.tail": (comp_tail, "s"),
        "peak_rss_mb": (max(rss) if rss else float("nan"), "MB"),
        "oracle_err": (oracle_err, "1"),
        "pass_ratio": (1.0 - fail_ratio, "1"),
    }


def traced_metrics(bench):
    """Per-layer metrics, times scaled to the reference speed."""
    profile = bench.fresh_imports(["-X", "importtime", "-c", "import dirac_sphere.cli"], PROFILE_IMPORTS)
    numpy_s, scipy_s, own_s = (median(col) for col in zip(*(spans.parse_importtime(t) for _, t in profile)))
    bench.import_cli()
    bench.warm_up()
    hooks = spans.Hooks(bench.pkg, spans.Tracer())
    if hooks.missing:  # a lost measurement must not read as a gain
        bench.failures.append(f"trace: hook points not found: {', '.join(hooks.missing)}")
    untraced, traced, pass_of, n_passes = bench.measure_traced(hooks)
    path = write_spans(hooks.tracer, bench.workload.name)
    print(f"passes: {n_passes}; {len(hooks.tracer.spans)} spans written to {path.relative_to(ROOT)}")
    scales = bench.scales()
    metrics = spans.layer_metrics(hooks.tracer.spans, pass_of, scales)
    setup_scale = scales[SETUP]
    metrics["import.numpy_s"] = (numpy_s * setup_scale, "s")
    metrics["import.scipy_linalg_s"] = (scipy_s * setup_scale, "s")
    metrics["import.dirac_sphere_s"] = (own_s * setup_scale, "s")
    overhead = summarize(traced, scales)[0] - summarize(untraced, scales)[0]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["src.lines"] = (src_lines(), "count")
    metrics["report.golden_diff"] = (bench.golden_diff(), "count")
    return metrics


def run(args):
    work = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, args.trace, work)
        bench.write_configs(bench.workload.invocations)
        print(f"env: {environment()}")
        print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        metrics = traced_metrics(bench) if args.trace else untraced_metrics(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kernel = [t for v in bench.kernel_s.values() for t in v]
    print(f"calibration: kernel median {median(kernel)!r} s over {len(kernel)} runs "
          f"(reference {calibrate.REFERENCE_S} s)")
    for msg in bench.failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dirac_sphere" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'dirac_sphere' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
