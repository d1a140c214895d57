"""Tests of the benchmark itself: determinism, tracing and the checks.

Run from the root of the repository: ``python3 -m pytest perfbench -q``.
They take about a minute and a half on two cores.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lattice_rounds():
    """Two traced rounds and one untraced round of lattice_rayclass, seed 3."""
    return [run.run_round("lattice_rayclass", 3, trace=t) for t in (True, True, False)]


def test_same_seed_same_records_and_call_counts(lattice_rounds):
    a, b, _ = lattice_rounds
    assert run.digest(a["records"]) == run.digest(b["records"])
    counts = [{k: v["calls"] for k, v in r["trace"]["functions"].items()} for r in (a, b)]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 10_000


def test_traced_and_untraced_records_agree(lattice_rounds):
    traced, _, plain = lattice_rounds
    assert run.digest(traced["records"]) == run.digest(plain["records"])
    assert checks.check_lattice_rayclass(plain["records"], 3) == []


def test_layer_metrics_cover_every_module(lattice_rounds):
    metrics = run.layer_metrics(lattice_rounds[0]["trace"])
    for module in ("linalg", "ideals", "latticeav", "rayclass", "principal", "polar"):
        assert metrics[f"{module}.calls"] > 0 and metrics[f"{module}.self_s"] > 0
    assert metrics["stverify.calls"] == 0
    assert metrics["principal.fincke_pohst.calls"] > 0


def test_another_seed_changes_the_sampled_inputs():
    assert workloads.st_sweep_primes(1) != workloads.st_sweep_primes(2)
    for setup, key in ((workloads.setup_reflex_quartic, "elements"),
                       (workloads.setup_lattice_rayclass, "amult")):
        one, two = setup(1), setup(2)
        assert repr(one[key]) != repr(two[key])
        assert repr(one[key]) == repr(setup(1)[key])


def test_window_has_equal_ordinary_share_for_every_seed():
    for seed in range(5):
        window = [p for p in workloads.st_sweep_primes(seed) if p > workloads.ST_SMALL_BOUND]
        assert sorted(p % 12 for p in window) == sorted([1, 5, 7, 11] * workloads.ST_WINDOW_PER_CLASS)


def test_oracles():
    # class numbers of imaginary quadratic fields, from tables
    assert [checks.class_number(d) for d in (-3, -4, -20, -23, -47, -71, -84)] == [1, 1, 2, 3, 5, 7, 4]
    # #E(F_p) = p + 1 - a_p; y^2 = x^3 - x has a_p = 0 at p = 3 mod 4
    assert checks.legendre_trace(7, -1 % 7, 0) == 0
    assert checks.legendre_trace(13, -1 % 13, 0) in (6, -6, 4, -4)
    assert checks.unit_group_order(-4, 3) == 8 and checks.unit_group_order(-4, 5) == 16
    assert checks.unit_group_order(-4, 2) == 2 and checks.unit_group_order(-20, 5) == 20


def test_checks_pass_real_records_and_reject_wrong_ones():
    seed = 4
    records = run.run_round("st_sweep", seed)["records"]
    assert checks.check_st_sweep(records, seed) == []
    i = next(i for i, r in enumerate(records) if r.get("status") == "ordinary")
    wrong = [dict(r) for r in records]
    wrong[i]["a_p"] += 2
    problems = checks.check_st_sweep(wrong, seed)
    assert [op for op, _ in problems] == [wrong[i]["op"]]
    assert run.check_failures(wrong, problems) == 1
    assert checks.check_st_sweep(records[:-1], seed) != []


def test_riemann_check_rejects_elements_that_are_not_totally_imaginary(lattice_rounds):
    records = lattice_rounds[2]["records"]
    for field, alpha in (("Q(i)", ["1", "1"]), ("Q(zeta5)", ["0", "0", "0", "0"]),
                         ("Q(zeta5)", ["0", "1", "1", "1"])):
        wrong = [dict(r) for r in records]
        i = next(i for i, r in enumerate(wrong) if r["op"].startswith(f"riemann:{field}:"))
        wrong[i]["alpha"] = alpha
        assert [op for op, _ in checks.check_lattice_rayclass(wrong, 3)] == [wrong[i]["op"]]
    assert checks.check_lattice_rayclass([r for r in records if r["op"] != "riemann:Q(i):0"], 3)


def test_failed_ops_are_counted_and_the_round_goes_on():
    import worker

    fields = workloads.SURVEY_KNOWN_FAILURES + workloads.SURVEY_FIELDS[:1]
    records, attempted, failed = worker.run_ops(workloads.ops_cm_survey({"fields": fields}))
    assert [r["op"] for r in records] == [f"cm:{name}" for name, _ in fields]
    assert (attempted, failed) == (3, 2)
    assert ["error" in r for r in records] == [True, True, False]
    assert run.check_failures(records, checks.check_cm_survey(records, 1)) == 0


def test_exits_nonzero_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "st_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_scaled_clock_scales_by_the_reference_and_samples_on_a_timer(monkeypatch):
    import signal
    import time

    import hostspeed

    timings = []

    def slow_host(repeats=1):  # a host at half the nominal speed
        timings.append(repeats)
        return 2 * hostspeed.REF_NOMINAL_S

    monkeypatch.setattr(hostspeed, "time_reference", slow_host)
    clock = hostspeed.ScaledClock(sampling=True)
    end = time.perf_counter() + 4 * hostspeed.SAMPLE_S
    while time.perf_counter() < end:
        pass
    wall, scaled = clock.read()
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert wall >= 4 * hostspeed.SAMPLE_S and scaled == pytest.approx(wall / 2)
    assert len(timings) >= 4  # the first timing, timer samples and the read
    assert hostspeed.scale(3.0, 0.004, 0.006) == pytest.approx(3.0 * hostspeed.REF_NOMINAL_S / 0.005)
