"""The four workloads: set-up, one task, and the correctness gates.

Each workload runs its task slots in a fixed cycle (see inputs.py) and
draws the parameters of slot i from a pool generated at set-up; the pool
holds more tasks than a 20 s run completes at this commit, and only wraps
around on a faster program.  A task raises on any failure
(exception or non-zero exit code); the gates run after the timed loop.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import inputs
from inputs import rng_for

HERE = Path(__file__).resolve().parent


class TaskFailed(RuntimeError):
    pass


def src_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read_outputs(out_dir: Path, job, base, fmt):
    from gates import output_names

    return {name[len(base):]: (out_dir / name).read_text()
            for name in output_names(job, base, fmt)}


class Workload:
    name = ""
    cycle: list = []
    pool_cycles = 1
    in_process = True
    # task times are scaled to the reference host speed (hostspeed.py)
    host_scaled = True

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.work.mkdir(parents=True, exist_ok=True)
        self.executed: dict[int, int] = {}   # slot -> times run

    @property
    def pool(self) -> int:
        return len(self.cycle) * self.pool_cycles

    def slot(self, i: int) -> int:
        s = i % self.pool
        self.executed[s] = self.executed.get(s, 0) + 1
        return s

    def prepare(self, i: int):
        """Untimed work before task i; none by default."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def bytes_written(self, i: int) -> int:
        return 0

    def fingerprint(self) -> dict:
        return {}


class _CliJobs(Workload):
    """Shared by the two CLI workloads: generated job configs and their gates.

    The configs are generated at set-up but each file is written just
    before its first task, outside the task's time: on a disk where a file
    creation costs most of a millisecond, writing the whole pool would
    make the file system, not the program, the largest part of set-up.
    """

    def generate(self, count: int):
        rng = rng_for(self.name, self.seed)
        survey = inputs.survey_cycle()
        cfg_dir = self.work / "cfg"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = []        # (job, fmt, config dict, config path)
        for i in range(count):
            job, stratum, fmt = survey[i % len(survey)]
            cfg = inputs.survey_config(rng, job, stratum, f"t{i:05d}")
            self.jobs.append((job, fmt, cfg, cfg_dir / f"{cfg['label']}.json"))

    def write_config(self, g: int):
        _, _, cfg, path = self.jobs[g]
        if not path.exists():
            path.write_text(json.dumps(cfg, indent=1))

    def argv(self, g: int, out_dir: Path):
        job, fmt, _, path = self.jobs[g]
        return [job, "--config", str(path), "--out", str(out_dir), "--format", fmt,
                "--threads", "1"]

    def points(self, g: int) -> int:
        job, _, cfg, _ = self.jobs[g]
        return len(cfg["thetas"]) if job == "scan" else cfg["grid"]["count"]

    def check_job(self, g: int, out_dir: Path) -> list:
        from gates import check_cli_outputs

        job, fmt, cfg, path = self.jobs[g]
        try:
            files = _read_outputs(out_dir, job, path.stem, fmt)
        except OSError as e:
            return [f"{path.stem}: missing output ({e})"]
        return check_cli_outputs(cfg, fmt, files)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir())


class LineSurvey(_CliJobs):
    """In-process cli.main calls over a stratified parameter survey."""

    name = "line-survey"
    pool_cycles = 80

    def setup(self):
        from dresslines import cli

        self.cli = cli
        self.cycle = inputs.survey_cycle()
        self.generate(self.pool)
        self.out = self.work / "out"
        warm = self.work / "warm"
        for g in range(len(inputs.JOBS)):
            self.write_config(g)
            if cli.main(self.argv(g, warm)) != 0:
                raise TaskFailed("warm-up job failed")

    def prepare(self, i: int):
        self.write_config(i % self.pool)

    def run(self, i: int) -> int:
        g = self.slot(i)
        rc = self.cli.main(self.argv(g, self.out))
        if rc != 0:
            raise TaskFailed(f"cli.main exit {rc}")
        return self.points(g)

    def bytes_written(self, i: int) -> int:
        from gates import output_names

        job, fmt, _, path = self.jobs[i % self.pool]
        return sum((self.out / n).stat().st_size for n in output_names(job, path.stem, fmt))

    def check(self) -> dict:
        return {g: self.check_job(g, self.out) for g in self.executed}


class CliCold(_CliJobs):
    """A fresh interpreter per task: `python -m dresslines.cli <job>`.

    Each cycle runs the five generated jobs, then the two golden configs
    of tests/golden (read only; their outputs go to the work directory).
    """

    name = "cli-cold"
    pool_cycles = 12
    in_process = False
    GOLDEN = (("spectrum", "spectrum_golden",
               ("spectrum_golden.csv", "spectrum_golden_summary.json"), 61),
              ("scan", "scan_golden", ("scan_golden_scan.csv", "scan_golden_scan.json"), 3))

    def setup(self):
        n_jobs = len(inputs.JOBS)
        self.cycle = [("gen", j) for j in range(n_jobs)] + [("golden", j) for j in range(2)]
        self.generate(n_jobs * self.pool_cycles)
        self.golden = self.root / "tests" / "golden"
        self.env = src_env(self.root)
        self.tracer = None
        self.timed_rss = 0.0
        warm = self.work / "warm"
        if self._spawn(["spectrum", "--config", str(self.golden / "spectrum_golden.json"),
                        "--out", str(warm)])[0] != 0:
            raise TaskFailed("warm-up child failed")

    def task(self, s: int):
        """(job, argv, out dir, generated job index or None, golden index or None)."""
        kind, j = self.cycle[s % len(self.cycle)]
        out = self.work / "out" / str(s)
        if kind == "golden":
            job, stem = self.GOLDEN[j][:2]
            return job, [job, "--config", str(self.golden / f"{stem}.json"), "--out", str(out)], \
                out, None, j
        g = (s // len(self.cycle)) * len(inputs.JOBS) + j
        return self.jobs[g][0], self.argv(g, out), out, g, None

    def _spawn(self, argv, traced_out: Path | None = None):
        if traced_out is None:
            cmd = [sys.executable, "-m", "dresslines.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(traced_out), *argv]
        p = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
        with p.stderr:
            err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, err, usage.ru_maxrss / 1024.0

    def prepare(self, i: int):
        g = self.task(i % self.pool)[3]
        if g is not None:
            self.write_config(g)

    def run(self, i: int) -> int:
        s = self.slot(i)
        job, argv, out, g, golden = self.task(s)
        traced_out = self.work / "trace.json" if self.tracer is not None else None
        rc, err, rss = self._spawn(argv, traced_out)
        self.timed_rss = max(self.timed_rss, rss)
        if rc != 0:
            raise TaskFailed(f"{job} exit {rc}: {err.decode(errors='replace')[-300:]}")
        if traced_out is not None:
            self.tracer.merge(json.loads(traced_out.read_text()))
        return self.points(g) if golden is None else self.GOLDEN[golden][3]

    def bytes_written(self, i: int) -> int:
        return _dir_bytes(self.task(i % self.pool)[2])

    def peak_rss_mb(self) -> float:
        return self.timed_rss

    def check(self) -> dict:
        from dresslines import cli
        from gates import compare_bytes

        result = {}
        for s in self.executed:
            job, argv, out, g, golden = self.task(s)
            ref = self.work / "ref" / str(s)
            k = argv.index("--out")
            if cli.main(argv[:k + 1] + [str(ref)] + argv[k + 2:]) != 0:
                result[s] = [f"slot {s}: in-process reference run failed"]
                continue
            names = sorted(f.name for f in ref.iterdir())
            errs = compare_bytes(out, ref, names, "the in-process run")
            if sorted(f.name for f in out.iterdir()) != names:
                errs.append("output file set differs from the in-process run")
            if golden is not None:
                errs += compare_bytes(out, self.golden, self.GOLDEN[golden][2], "tests/golden")
            else:
                errs += self.check_job(g, out)
            result[s] = [f"slot {s}: {e}" for e in errs]
        return result


def dense_call(fn: str, p: dict, x):
    """One vectorized closed-form call of the dense-grid workload."""
    from dresslines import doppler, stationary
    from gates import build

    scheme, drive, probe, ens, kind = build(p)
    if fn == "w_mu_exact":
        return stationary.w_mu_exact(scheme, drive, probe, x)
    if fn == "w_mu_weak":
        return stationary.w_mu_weak(scheme, drive, probe, x)[0]
    if fn == "fluorescence_triplet":
        return doppler.fluorescence_triplet(scheme, drive, probe, ens, x)
    return getattr(doppler, fn)(scheme, drive, probe, ens, x, kind)


class DenseGrid(Workload):
    """One vectorized closed-form call per task on a 2^18 to 2^20 point grid."""

    name = "dense-grid"
    pool_cycles = 20
    # Its large-array numpy calls slow by 10-20% when the host is in its slow
    # state, while the reference unit slows by half, so scaling would add
    # the reference's swing instead of removing the host's.
    host_scaled = False

    def setup(self):
        import numpy as np

        import dresslines.doppler  # noqa: F401
        import dresslines.stationary  # noqa: F401

        self.cycle = inputs.dense_cycle()
        rng = rng_for(self.name, self.seed)
        self.params = [inputs.dense_params(rng, self.cycle[i % len(self.cycle)][0])
                       for i in range(self.pool)]
        h = inputs.DENSE_HALF_SPAN
        self.grids = {n: np.linspace(-h, h, n) for n in inputs.DENSE_SIZES}
        self.sample_at = {n: np.sort(rng.choice(n, 16, replace=False)) for n in self.grids}
        self.samples = {}
        small = np.linspace(-h, h, 4096)
        for s, (fn, n) in enumerate(self.cycle[:len(inputs.DENSE_FUNCS)]):
            dense_call(fn, self.params[s], small)

    def run(self, i: int) -> int:
        s = self.slot(i)
        fn, n = self.cycle[s % len(self.cycle)]
        out = dense_call(fn, self.params[s], self.grids[n])
        self.samples[s] = out[self.sample_at[n]]
        return n

    def check(self) -> dict:
        from gates import check_dense

        result = {}
        for s in self.executed:
            fn, n = self.cycle[s % len(self.cycle)]
            result[s] = check_dense(fn, self.params[s], self.grids[n][self.sample_at[n]],
                                    self.samples[s])
        return result

    def fingerprint(self) -> dict:
        return {"grid_sizes": list(inputs.DENSE_SIZES),
                "bytes_per_call_computed": {str(n): 16 * n for n in inputs.DENSE_SIZES},
                "bytes_note": "float64 grid read plus float64 density written; temporaries not counted"}


class Certify(Workload):
    """One oracle.certify call per task, stratified over ids and node tiers."""

    name = "certify"
    pool_cycles = 12

    def setup(self):
        from dresslines import oracle

        self.oracle = oracle
        self.cycle = list(inputs.CERTIFY_CYCLE)
        rng = rng_for(self.name, self.seed)
        self.params = [inputs.certify_params(rng, *self.cycle[i % len(self.cycle)])
                       for i in range(self.pool)]
        self.reports = {}
        # the warm-up sets do not depend on the seed, so every run's set-up
        # does the same work
        warm_rng = rng_for(self.name, 0)
        warm = inputs.certify_params(warm_rng, "eq3_2", 600, 1, True)
        oracle.certify("eq3_2", warm, inputs.CERTIFY_TOL["eq3_2"])
        warm = inputs.certify_params(warm_rng, "eq2_7", None, 3, False)
        oracle.certify("eq2_7", warm, inputs.CERTIFY_TOL["eq2_7"])

    def run(self, i: int) -> int:
        s = self.slot(i)
        cid = self.cycle[s % len(self.cycle)][0]
        report = self.oracle.certify(cid, self.params[s], inputs.CERTIFY_TOL[cid])
        self.reports[s] = report
        if not report.passed:
            raise TaskFailed(f"certify {cid} did not pass: {report.explanation}")
        return report.n_points

    def check(self) -> dict:
        from gates import check_report

        return {s: check_report(self.cycle[s % len(self.cycle)][0], self.reports[s])
                for s in self.executed if s in self.reports}

    def fingerprint(self) -> dict:
        return {"tolerances": inputs.CERTIFY_TOL,
                "cycle": [list(c) for c in inputs.CERTIFY_CYCLE]}


WORKLOAD_CLASSES = {c.name: c for c in (CliCold, LineSurvey, DenseGrid, Certify)}
