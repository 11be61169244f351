"""Tests of the benchmark's own code: input generation, tracer and gates.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gates  # noqa: E402
import inputs  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import LineSurvey, dense_call  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


# --- inputs -------------------------------------------------------------------

def _generated(workload, seed):
    rng = inputs.rng_for(workload, seed)
    if workload == "dense-grid":
        return [inputs.dense_params(rng, fn) for fn, _ in inputs.dense_cycle() * 2]
    if workload == "certify":
        return [inputs.certify_params(rng, *slot) for slot in inputs.CERTIFY_CYCLE * 2]
    return [inputs.survey_config(rng, job, stratum, f"t{i}")
            for i, (job, stratum, _) in enumerate(inputs.survey_cycle() * 2)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = json.dumps(_generated(workload, 7))
    assert a == json.dumps(_generated(workload, 7))
    assert a != json.dumps(_generated(workload, 8))


def test_same_seed_byte_identical_config_files(tmp_path):
    texts = []
    for run in ("a", "b"):
        wl = LineSurvey(ROOT, tmp_path / run, seed=3)
        wl.cycle = inputs.survey_cycle()
        wl.generate(40)
        for g in range(40):
            wl.write_config(g)
        texts.append([p.read_bytes() for *_, p in wl.jobs])
    assert texts[0] == texts[1]


def test_certify_sets_land_in_their_node_tier():
    from dresslines import doppler as dop
    from dresslines import oracle

    if not hasattr(oracle, "_auto_nodes"):
        pytest.skip("the oracle no longer picks Gauss-Hermite orders from a tier table")
    _auto_nodes, _build, _pole_distance = oracle._auto_nodes, oracle._build, oracle._pole_distance
    rng = inputs.rng_for("certify", 5)
    builders = {"eq3_2": dop.weak_doublet_components, "eq4_2": dop.strong_doublet_components}
    for cid, tier, count, _ in inputs.CERTIFY_CYCLE:
        if tier is None:
            continue
        p, scheme, drive, probe, ens, grid = _build(inputs.certify_params(rng, cid, tier, count, _))
        comps = (builders[cid](scheme, drive, probe, ens) if cid in builders
                 else dop.triplet_components(scheme, drive, probe, ens))
        d = _pole_distance([c.natural_halfwidth for c in comps], [c.doppler_scale for c in comps])
        assert _auto_nodes(d) == tier and grid.size == count


# --- tracer -------------------------------------------------------------------

def _fold(spans, inner=0.0, outer=0.0):
    t = Tracer()
    t.inner_ns, t.outer_ns = inner, outer
    t.spans.extend([list(s) for s in spans])
    t.fold()
    return {name: a[1] for name, a in t.agg.items()}, t


def test_self_time_of_a_nested_span_tree():
    #  task 0..100 > a 10..60 > b 20..30, c 35..55 > b 40..45 ; d 70..90
    spans = [[ROOT_SPAN, 0, 100, -1, 0, False],
             ["a", 10, 60, 0, 0, False],
             ["b", 20, 30, 1, 0, False],
             ["c", 35, 55, 1, 0, False],
             ["b", 40, 45, 3, 0, False],
             ["d", 70, 90, 0, 0, False]]
    self_ns, t = _fold(spans)
    assert self_ns == {ROOT_SPAN: 100 - 50 - 20, "a": 50 - 10 - 20, "b": 10 + 5,
                       "c": 20 - 5, "d": 20}
    assert sum(self_ns.values()) == 100
    assert t.task_self_ns == [100] and t.task_ns == [100]
    assert t.agg["b"][0] == 2 and not t.spans


def test_self_time_subtracts_the_calibrated_span_cost():
    spans = [[ROOT_SPAN, 0, 100, -1, 0, False],
             ["a", 10, 60, 0, 0, False],
             ["b", 20, 30, 1, 0, False]]
    self_ns, t = _fold(spans, inner=1.0, outer=2.0)
    # each span loses its own inner cost and its children's outer costs
    assert self_ns == {ROOT_SPAN: 100 - 50 - 2, "a": 50 - 10 - 1 - 2, "b": 10 - 1}
    assert t.task_self_ns == [sum(self_ns.values())] and t.task_ns == [100]


def _bindings():
    return {(name, key): value for name, m in sys.modules.items()
            if (name == "dresslines" or name.startswith("dresslines.")) and m is not None
            for key, value in vars(m).items() if callable(value)}


def test_every_binding_is_patched_and_restored(tmp_path):
    from dresslines import cli, oracle, stationary

    before = _bindings()
    tracer = Tracer()
    with tracer:
        for module in (cli, stationary, oracle):
            assert module.w_mu_exact is not before[(module.__name__, "w_mu_exact")]
        assert len({id(v) for (_, k), v in _bindings().items() if k == "dressed_exponents"}) == 1
        tracer.begin_task(0)
        assert cli.main(["spectrum", "--config", str(GOLDEN / "spectrum_golden.json"),
                         "--out", str(tmp_path)]) == 0
        tracer.end_task()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {n for n in tracer.agg}
    assert {"cli.main", "cli.load_config", "dressed.dressed_exponents",
            "stationary.w_mu_exact", "doppler.fwhm", "doppler.integrated_intensity"} <= names
    assert tracer.counts["doppler.quad.integrand_evals"] > 0
    assert tracer.counts["doppler.density_evals"] > tracer.counts["doppler.quad.integrand_evals"]


def test_bindings_restored_when_a_task_raises():
    from dresslines import oracle

    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer():
            oracle.certify("eq9_9", {}, 1e-6)
    assert all(_bindings()[k] is v for k, v in before.items())


# --- gates --------------------------------------------------------------------

def _dense(fn, seed=2):
    rng = inputs.rng_for("dense-grid", seed)
    p = inputs.dense_params(rng, fn)
    x = np.linspace(-inputs.DENSE_HALF_SPAN, inputs.DENSE_HALF_SPAN, 4097)[::256]
    return p, x, dense_call(fn, p, x)


@pytest.mark.parametrize("fn,bump", [("w_mu_exact", 1e-7), ("w_mu_weak", 1e-2),
                                     ("doppler_weak_doublet", 1e-7),
                                     ("doppler_strong_doublet", 1e-7),
                                     ("fluorescence_triplet", 1e-7)])
def test_dense_gate_passes_and_catches_a_perturbed_value(fn, bump):
    p, x, got = _dense(fn)
    assert gates.check_dense(fn, p, x, got) == []
    bad = got.copy()
    bad[int(np.argmax(bad))] *= 1.0 + bump
    assert gates.check_dense(fn, p, x, bad)


def _cli_run(tmp_path, job, stratum, fmt, seed=4):
    from dresslines import cli

    rng = inputs.rng_for("line-survey", seed)
    cfg = inputs.survey_config(rng, job, stratum, f"g{job}{stratum}")
    path = tmp_path / f"{cfg['label']}.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([job, "--config", str(path), "--out", str(tmp_path), "--format", fmt]) == 0
    return cfg, {name[len(cfg["label"]):]: (tmp_path / name).read_text()
                 for name in gates.output_names(job, cfg["label"], fmt)}


@pytest.mark.parametrize("job,stratum", [("spectrum", 0), ("spectrum", 1), ("doppler", 2),
                                         ("doublet", 3), ("triplet", 0)])
def test_cli_gates_catch_perturbed_outputs(tmp_path, job, stratum):
    cfg, files = _cli_run(tmp_path, job, stratum, "both")
    assert gates.check_cli_outputs(cfg, "both", files) == []

    header, *rows = files[".csv"].splitlines()
    x, w = rows[0].split(",")
    bad_csv = "\n".join([header, f"{x},{float(w) * (1 + 1e-6)!r}", *rows[1:]]) + "\n"
    assert gates.check_cli_outputs(cfg, "csv", {".csv": bad_csv})

    summary = json.loads(files["_summary.json"])
    comp = summary["components"][0]
    comp["center"] += 10.0 * max(1.0, comp["fwhm"] or 1.0)
    assert gates.check_cli_outputs(cfg, "json", {"_summary.json": json.dumps(summary)})


def test_scan_gate_catches_a_moved_center(tmp_path):
    cfg, files = _cli_run(tmp_path, "scan", 0, "both")
    assert gates.check_cli_outputs(cfg, "both", files) == []
    data = json.loads(files["_scan.json"])
    data["rows"][0]["center"] += 0.1
    assert gates.check_cli_outputs(cfg, "json", {"_scan.json": json.dumps(data)})
    header, first, *rest = files["_scan.csv"].splitlines()
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) + 0.1)
    bad = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert gates.check_cli_outputs(cfg, "csv", {"_scan.csv": bad})


def test_byte_gate_catches_a_changed_golden_output(tmp_path):
    names = ["spectrum_golden.csv", "spectrum_golden_summary.json"]
    for name in names:
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    assert gates.compare_bytes(tmp_path, GOLDEN, names, "golden") == []
    text = (tmp_path / names[0]).read_text()
    (tmp_path / names[0]).write_text(text.replace("e-", "E-", 1))
    assert gates.compare_bytes(tmp_path, GOLDEN, names, "golden")


def test_certify_gate_needs_a_passing_report():
    from dresslines import oracle

    rng = inputs.rng_for("certify", 9)
    p = inputs.certify_params(rng, "eq4_2", 600, 1, True)
    report = oracle.certify("eq4_2", p, inputs.CERTIFY_TOL["eq4_2"])
    assert gates.check_report("eq4_2", report) == []
    strict = oracle.certify("eq4_2", p, report.max_rel_dev / 2.0)
    assert gates.check_report("eq4_2", strict)


def test_lyapunov_reference_matches_the_weak_drive_limit():
    # Independent of the program: far off resonance the upper level is fed
    # by a_m ~ (G/Omega) exp(-gm t), so the probe line at Omega_mu = 0 has
    # density (G/Omega)^2 / (gm (gm + gl)) up to corrections of order Gamma/Omega.
    gm, gn, gl, G, Om = 1.0, 2.0, 0.5, 1e-3, 500.0
    w = gates.lyapunov_density(gm, gn, gl, G, Om, 1.0, [0.0])[0]
    assert w == pytest.approx((G / Om) ** 2 / (gm * (gm + gl)), rel=0.02)


# --- BENCHMARK.json -------------------------------------------------------------

def test_benchmark_json_names_the_metrics_the_runner_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_percentile_is_nearest_rank():
    import run

    values = list(range(1, 21))
    assert run.percentile(values, 50) == 10
    assert run.percentile(values, 95) == 19
    assert sum(v > run.percentile(values, 50) for v in values) == 10


def test_host_speed_scaling_uses_the_probes_around_each_task():
    import hostspeed

    ref = hostspeed.REF_MS
    # probes before task 0, before task 2 and after the last task (3)
    probes = [(0, ref), (2, 3 * ref), (3, ref)]
    assert hostspeed.scaled_times([1.0, 2.0, 4.0], probes) == [0.5, 1.0, 2.0]
    assert all(t > 0 for t in hostspeed.sample(2))
