"""Benchmark of the dresslines package: one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-cold, line-survey, dense-grid, certify (see README.md).
The package is taken from the checkout's own src/ directory.  One client
runs tasks in a closed loop, whole cycles of task slots, until --seconds
have passed.  The last line of standard output is the result JSON; the
line before it holds the run's fingerprint and details, which are also
written to .bench_out/ at the root of the checkout.

--trace 0 reports the end-to-end metrics, scaled to a reference host
speed (hostspeed.py; the unscaled figures are in the details line).
--trace 1 spends the first
half of the time untraced and the second half with every public function
of the package wrapped (tracer.py), and reports per-layer means per task.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "line-survey", "dense-grid", "certify")
# Tail percentile per workload: the highest of p50/p75/p90/p95/p99 with at
# least ten samples beyond it at the lowest task counts a 20 s run of this
# commit reached under load, fixed so that a faster or slower program is
# compared at the same rank.
TAIL_PCT = {"cli-cold": 50, "line-survey": 95, "dense-grid": 75, "certify": 75}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
REF_EVERY_S = 0.5

E2E_UNITS = {"setup_s": "s", "task_ms_p50": "ms", "task_ms_tail": "ms",
             "tasks_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, how it is computed from the trace)
LAYER_METRICS = {
    "import.dresslines_cli_ms": ("ms", ("import", "ms")),
    "import.scipy_integrate_ms": ("ms", ("import", "scipy_integrate_ms")),
    "import.modules_loaded": ("count", ("import", "modules")),
    "cli.load_config.calls": ("count", ("calls", "cli.load_config")),
    "cli.load_config.self_ms": ("ms", ("self_ms", "cli.load_config")),
    "cli.main.self_ms": ("ms", ("self_ms", "cli.main")),
    "cli.bytes_written": ("bytes", ("count", "cli.bytes_written")),
    "dressed.dressed_exponents.calls": ("count", ("calls", "dressed.dressed_exponents")),
    "dressed.dressed_exponents.self_ms": ("ms", ("self_ms", "dressed.dressed_exponents")),
    "stationary.w_mu_exact.calls": ("count", ("calls", "stationary.w_mu_exact")),
    "stationary.w_mu_exact.points": ("count", ("points", "stationary.w_mu_exact")),
    "stationary.w_mu_exact.self_ms": ("ms", ("self_ms", "stationary.w_mu_exact")),
    "stationary.w_mu_exact.ns_per_point": ("ns", ("ns_per_point", "stationary.w_mu_exact")),
    "stationary.w_mu_weak.ns_per_point": ("ns", ("ns_per_point", "stationary.w_mu_weak")),
    "doppler.voigt_density.calls": ("count", ("calls", "doppler.voigt_density")),
    "doppler.voigt_density.points": ("count", ("points", "doppler.voigt_density")),
    "doppler.voigt_density.self_ms": ("ms", ("self_ms", "doppler.voigt_density")),
    "doppler.voigt_density.ns_per_point": ("ns", ("ns_per_point", "doppler.voigt_density")),
    "doppler.components.self_ms": ("ms", ("self_ms", "doppler.weak_doublet_components",
                                          "doppler.strong_doublet_components",
                                          "doppler.triplet_components")),
    "doppler.find_peak.calls": ("count", ("calls", "doppler.find_peak")),
    "doppler.find_peak.self_ms": ("ms", ("self_ms", "doppler.find_peak")),
    "doppler.fwhm.calls": ("count", ("calls", "doppler.fwhm")),
    "doppler.fwhm.self_ms": ("ms", ("self_ms", "doppler.fwhm")),
    "doppler.integrated_intensity.calls": ("count", ("calls", "doppler.integrated_intensity")),
    "doppler.integrated_intensity.self_ms": ("ms", ("self_ms", "doppler.integrated_intensity")),
    "doppler.quad.integrand_evals": ("count", ("count", "doppler.quad.integrand_evals")),
    "doppler.density_evals_per_component": ("evals/component", ("density_per_component",)),
    "doppler.null_field_frac": ("fraction", ("null_field_frac",)),
    "oracle.certify.calls": ("count", ("calls", "oracle.certify")),
    "oracle.certify.self_ms": ("ms", ("self_ms", "oracle.certify")),
    "oracle.w_mu_time_domain_grid.self_ms": ("ms", ("self_ms", "oracle.w_mu_time_domain_grid")),
    "oracle.ode.nfev": ("count", ("count", "oracle.ode.nfev")),
    "oracle.velocity_average.calls": ("count", ("calls", "oracle.velocity_average")),
    "oracle.velocity_average.self_ms": ("ms", ("self_ms", "oracle.velocity_average")),
    "oracle.velocity_average.integrand_evals": (
        "count", ("count", "oracle.velocity_average.integrand_evals")),
    "oracle.node_gen_ms": ("ms", ("self_ms", "oracle.roots_hermite")),
    "oracle.doubling_reruns": ("count", ("count", "oracle.doubling_reruns")),
    "task.unwrapped_self_ms": ("ms", ("self_ms", "task")),
    "trace.overhead_pct": ("%", ("overhead_pct",)),
    "trace.self_sum_gap_pct": ("%", ("self_sum_gap_pct",)),
    "trace.self_sum_gap_raw_pct": ("%", ("self_sum_gap_raw_pct",)),
}


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(math.ceil(pct / 100.0 * len(s)) - 1, 0)]


def tasks_per_s(times) -> float:
    """Tasks per second of time spent inside tasks."""
    return len(times) / math.fsum(times)


def timed_loop(wl, seconds, first, tracer=None):
    """Closed loop over whole cycles until `seconds` have passed.

    Between tasks, at most every REF_EVERY_S, and once at the end, the
    host-speed reference unit is timed: `probes` holds (tasks done, ms).
    """
    times, failures, probes = [], [], []
    points = 0
    i = first
    start = time.perf_counter()
    last_ref = -math.inf
    while True:
        for _ in range(len(wl.cycle)):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                probes.append((len(times), hostspeed.reference_ms()))
                last_ref = time.perf_counter()
            wl.prepare(i)
            if tracer is not None:
                tracer.begin_task(i)
            t = time.perf_counter()
            try:
                points += wl.run(i)
                ok = True
            except Exception as e:  # a failed task is counted, the loop goes on
                failures.append((i, f"{type(e).__name__}: {e}"))
                ok = False
            times.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.end_task(not ok)
                if ok:
                    tracer.counts["cli.bytes_written"] += wl.bytes_written(i)
            i += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    probes.append((len(times), hostspeed.reference_ms()))
    return {"times": times, "failures": failures, "points": points, "probes": probes,
            "wall": wall, "next": i}


def run_child(args, work: Path, python_flags=()):
    p = subprocess.run([sys.executable, *python_flags, str(HERE / "child.py"), *args],
                       cwd=work, capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {p.stderr[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stderr


def import_probe(work: Path) -> dict:
    """Median over fresh interpreters of the cost of `import dresslines.cli`."""
    rows = []
    for _ in range(IMPORT_REPEATS):
        out, err = run_child(["import"], work, ("-X", "importtime"))
        m = re.search(r"\|\s*(\d+)\s*\|\s*scipy\.integrate\s*$", err, re.M)
        out["scipy_integrate_ms"] = int(m.group(1)) / 1e3 if m else 0.0
        rows.append(out)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def git_commit(root: Path) -> str:
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not found)"
    return p.stdout.strip() if p.returncode == 0 else "unknown (not a git checkout)"


def blas_threads():
    """Thread count OpenBLAS reports, when numpy's OpenBLAS can be asked."""
    import ctypes

    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        wheel_libs = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in [*wheel_libs.glob("lib*openblas*.so*"),
                    *Path(cfg["lib directory"]).glob("lib*openblas*.so*")]:
            so = ctypes.CDLL(str(lib))
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(so, fn):
                    return {"blas": f"{cfg.get('name')} {cfg.get('version')}",
                            "blas_threads": getattr(so, fn)()}
    except (KeyError, OSError, TypeError, ValueError):
        pass
    return {"blas": "unknown", "blas_threads": None}


def fingerprint(args, wl) -> dict:
    import numpy as np
    import scipy

    fp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
          "trace": args.trace, "nproc": os.cpu_count(),
          "cpus_allowed": len(os.sched_getaffinity(0)),
          "python": sys.version.split()[0], "numpy": np.__version__,
          "scipy": scipy.__version__, "git_commit": git_commit(ROOT),
          "thread_env": {k: os.environ.get(k) for k in (
              "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
          "cycle_length": len(wl.cycle), "pool": wl.pool}
    fp.update(blas_threads())
    fp.update(wl.fingerprint())
    return fp


def layer_metrics(tracer, tasks, imports, untraced, traced) -> dict:
    agg, counts = tracer.agg, tracer.counts
    n = max(tasks, 1)

    def a(name, i):
        return agg.get(name, [0, 0.0, 0, 0])[i]

    def value(spec):
        what, *names = spec
        if what == "import":
            return imports[names[0]]
        if what == "calls":
            return a(names[0], 0) / n
        if what == "self_ms":
            return sum(a(x, 1) for x in names) / 1e6 / n
        if what == "points":
            return a(names[0], 2) / n
        if what == "ns_per_point":
            pts = a(names[0], 2)
            return a(names[0], 1) / pts if pts else 0.0
        if what == "count":
            return counts.get(names[0], 0) / n
        if what == "density_per_component":
            comps = a("doppler.fwhm", 0)
            return counts.get("doppler.density_evals", 0) / comps if comps else 0.0
        if what == "null_field_frac":
            fields = a("doppler.fwhm", 0) + a("doppler.integrated_intensity", 0)
            nulls = a("doppler.fwhm", 3) + a("doppler.integrated_intensity", 3)
            return nulls / fields if fields else 0.0
        if what == "overhead_pct":
            u, t = (tasks_per_s(r["times"]) for r in (untraced, traced))
            return 100.0 * (u - t) / u
        # median over traced tasks of the summed self times against the
        # untraced task_ms_p50; "raw" sums without the per-span cost taken off
        # or negative self times clamped, which is the traced task's wall time
        per_task = tracer.task_self_ns if what == "self_sum_gap_pct" else tracer.task_ns
        untraced_p50 = 1e3 * statistics.median(untraced["times"])
        return 100.0 * (statistics.median(per_task) / 1e6 - untraced_p50) / untraced_p50

    return {name: {"value": value(spec), "unit": unit}
            for name, (unit, spec) in LAYER_METRICS.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t0 = T_START
    args = parse_args(argv)
    if not (ROOT / "src" / "dresslines" / "__init__.py").is_file():
        print(f"error: no dresslines source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        from workloads import WORKLOAD_CLASSES

        wl = WORKLOAD_CLASSES[args.workload](ROOT, work / "main", args.seed)
        wl.setup()
        setups = [(time.perf_counter() - t0, hostspeed.reference_ms(10))]

        tracer = None
        if args.trace:
            from tracer import Tracer

            untraced = timed_loop(wl, args.seconds / 2, 0)
            tracer = Tracer()
            tracer.calibrate()
            if wl.in_process:
                tracer.install()
            else:
                wl.tracer = tracer
            try:
                traced = timed_loop(wl, args.seconds / 2, untraced["next"], tracer)
            finally:
                tracer.remove()
            runs = [untraced, traced]
        else:
            runs = [timed_loop(wl, args.seconds, 0)]
        rss = wl.peak_rss_mb()

        gate_errors = {s: e for s, e in wl.check().items() if e}
        failed_tasks = {i for r in runs for i, _ in r["failures"]}
        attempted = sum(len(r["times"]) for r in runs)
        failed_tasks |= {i for i in range(attempted) if i % wl.pool in gate_errors}

        for k in range(0 if args.trace else SETUP_REPEATS - 1):
            out, _ = run_child(["setup", args.workload, str(args.seed), str(work / f"probe{k}")],
                               ROOT)
            setups.append((out["setup_s"], out["ref_ms"]))

        main_run = runs[0]
        times = main_run["times"]
        pct = TAIL_PCT[args.workload]
        raw = {"setup_s": statistics.median(t for t, _ in setups),
               "task_ms_p50": 1e3 * statistics.median(times),
               "task_ms_tail": 1e3 * percentile(times, pct),
               "tasks_per_s": tasks_per_s(times)}
        details = {
            "tail": {"percentile": pct, "samples": len(times),
                     "beyond": sum(t > percentile(times, pct) for t in times)},
            "setup_s_samples": setups,
            "ref_ms": {"median": statistics.median(r for _, r in main_run["probes"]),
                       "probes": len(main_run["probes"])},
            "unscaled": raw,
            "timed_wall_s": main_run["wall"],
            # a fixed multiple of tasks_per_s, since the loop runs whole cycles
            "points_per_s": main_run["points"] / math.fsum(times),
            "failures": [m for r in runs for _, m in r["failures"]][:10],
            "gate_errors": [m for errs in gate_errors.values() for m in errs][:10],
        }
        if args.trace:
            imports = import_probe(work)
            metrics = layer_metrics(tracer, len(traced["times"]), imports, untraced, traced)
            details["trace"] = {"tasks": len(traced["times"]), "untraced_tasks": len(untraced["times"]),
                                "span_cost_ns": {"inner": tracer.inner_ns, "outer": tracer.outer_ns}}
        else:
            scaled = (hostspeed.scaled_times(times, main_run["probes"]) if wl.host_scaled
                      else times)
            metrics = {
                "setup_s": statistics.median(t * hostspeed.REF_MS / r for t, r in setups),
                "task_ms_p50": 1e3 * statistics.median(scaled),
                "task_ms_tail": 1e3 * percentile(scaled, pct),
                "tasks_per_s": tasks_per_s(scaled),
                "peak_rss_mb": rss,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}

        report = {"fingerprint": fingerprint(args, wl), "details": details}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = dict(report, metrics=metrics)
        if tracer is not None:
            record["spans"] = {"fields": ["task", "name", "start_ns", "end_ns", "parent",
                                          "points", "error"],
                               "rows": tracer.kept}
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps(report))
        print(json.dumps({"correct": not failed_tasks, "attempted": attempted,
                          "failed": len(failed_tasks), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
