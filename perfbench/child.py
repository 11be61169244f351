"""Entry points the benchmark runs in fresh interpreters.

    child.py setup <workload> <seed> <work dir>
        One full set-up of the workload (import, inputs, warm-up); prints
        {"setup_s": ..., "ref_ms": ...}.  The clock starts before numpy is
        imported; ref_ms is the host-speed reference timed right after.
    child.py import
        Imports dresslines.cli; prints {"ms": ..., "modules": ...}.  Run
        under `python -X importtime` to also get scipy.integrate's share.
    child.py cli <trace json> <cli argv...>
        One traced CLI job; writes the tracer's aggregates to <trace json>
        and exits with the job's exit code.

The source tree of the checkout (../src) is put first on sys.path.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv):
    mode = argv[0]
    if mode == "setup":
        from workloads import WORKLOAD_CLASSES

        WORKLOAD_CLASSES[argv[1]](ROOT, Path(argv[3]), int(argv[2])).setup()
        setup_s = time.perf_counter() - T0
        import hostspeed

        print(json.dumps({"setup_s": setup_s, "ref_ms": hostspeed.reference_ms(10)}))
        return 0
    if mode == "import":
        before = len(sys.modules)
        t = time.perf_counter()
        import dresslines.cli  # noqa: F401
        print(json.dumps({"ms": 1e3 * (time.perf_counter() - t),
                          "modules": len(sys.modules) - before}))
        return 0
    if mode == "cli":
        from tracer import Tracer

        tracer = Tracer(keep_tasks=0)
        tracer.calibrate(2000)
        t_import = time.perf_counter_ns()
        from dresslines import cli
        import_ns = time.perf_counter_ns() - t_import
        tracer.agg["import.dresslines_cli"] = [1, float(import_ns), 0, 0]
        with tracer:
            t_main = time.perf_counter_ns()
            tracer.begin_task(0)
            rc = 1
            try:
                rc = cli.main(argv[2:])
            finally:
                tracer.end_task(rc != 0)
            main_ns = time.perf_counter_ns() - t_main
        Path(argv[1]).write_text(json.dumps(tracer.export(top_ns=import_ns + main_ns)))
        return rc
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
