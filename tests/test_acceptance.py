"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np

from pmurel.curves import (
    HardwareParams,
    InteractionParams,
    SoftwareParams,
    interaction_reliability_closed_form,
    pmu_reliability_curve,
    software_reliability,
)
from pmurel.fitting import effective_rate, fit_lambda1, fit_scan, sse
from pmurel.fuzzy import TriangularFuzzyNumber, alpha_cut
from pmurel.markov import (
    GeneratorMatrix,
    StateDistribution,
    build_unified_model,
    interaction_reliability_markov,
    transient_grid,
)
from pmurel.csvout import write_csv
from pmurel.simulate import ExposureTable, SimulationConfig, run_simulation

FAILURE_RATE = 0.6566
REPAIR_RATE = 22.2898
LAMBDA1 = 8.92e-4
LAMBDA2 = 3.92e-3
MISSION = 10.0

MC_CONFIG = SimulationConfig(
    failure_rate=FAILURE_RATE,
    repair_rate=REPAIR_RATE,
    mission_time=MISSION,
    n_replications=10000,
    master_seed=42,
    n_intervals=8,
)


def verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c1_crisp_availability_reproduction():
    closed = REPAIR_RATE / (FAILURE_RATE + REPAIR_RATE)
    start = time.perf_counter()
    summary = run_simulation(MC_CONFIG)
    elapsed = time.perf_counter() - start
    ok = (
        abs(closed - 0.971385) <= 1e-5
        and abs(summary.availability - closed) <= 0.002
        and elapsed < 10.0
    )
    verdict(
        "C1 crisp-availability",
        ok,
        f"closed={closed:.6f}, monte-carlo={summary.availability:.6f}, "
        f"runtime={elapsed:.2f}s",
    )


def test_c2_closed_form_vs_markov_transient():
    chain = build_unified_model({"UP->HD3": LAMBDA1, "HD3->F_INT": LAMBDA2})
    params = InteractionParams(lambda1=LAMBDA1, lambda2=LAMBDA2)
    worst = 0.0
    for t in (0.0, 10.0, 100.0, 500.0, 1000.0, 5000.0):
        gap = abs(
            interaction_reliability_markov(chain, t)
            - interaction_reliability_closed_form(params, t)
        )
        worst = max(worst, gap)
    spot = interaction_reliability_closed_form(params, 100.0)
    ok = worst <= 1e-8 and abs(spot - 0.98506) <= 1e-5
    verdict(
        "C2 two-rate-chain equivalence",
        ok,
        f"max |closed - transient| = {worst:.2e}, R(100) = {spot:.6f}",
    )


def test_c3_estimator_recovery(golden_section):
    times = tuple(1000.0 * i for i in range(1, 9))
    counts = tuple(t / 1500.0 for t in times)
    table = ExposureTable(counts, times)
    result = fit_lambda1(table, 2.0)
    brute = golden_section(lambda l1: sse(table, l1, 2.0 * l1), 1e-9, 1.0)
    rel_closed = abs(result.lambda1 - 1e-3) / 1e-3
    rel_brute = abs(brute - result.lambda1) / result.lambda1
    ok = rel_closed <= 1e-12 and result.sse <= 1e-18 and rel_brute <= 1e-8
    verdict(
        "C3 estimator-recovery",
        ok,
        f"lambda1={result.lambda1:.15g} (rel err {rel_closed:.1e}), "
        f"sse={result.sse:.1e}, brute-force rel gap {rel_brute:.1e}",
    )


def test_c4_ratio_under_identification():
    rng = np.random.default_rng(99)
    tables = [
        ExposureTable(
            tuple(t / 1500.0 for t in (1000.0 * i for i in range(1, 9))),
            tuple(1000.0 * i for i in range(1, 9)),
        ),
        run_simulation(
            SimulationConfig(
                failure_rate=FAILURE_RATE,
                repair_rate=REPAIR_RATE,
                mission_time=MISSION,
                n_replications=500,
                master_seed=11,
            )
        ).exposure,
    ]
    for _ in range(5):
        tables.append(
            ExposureTable(
                tuple(float(x) for x in rng.uniform(0.0, 10.0, size=8)),
                tuple(float(t) for t in rng.uniform(100.0, 5000.0, size=8)),
            )
        )
    worst = 0.0
    for table in tables:
        rates = [
            effective_rate(r.lambda1, r.lambda2)
            for r in fit_scan(table, [1.0, 2.0, 4.0])
        ]
        spread = (max(rates) - min(rates)) / max(rates)
        worst = max(worst, spread)
    ok = worst <= 1e-12
    verdict(
        "C4 ratio-under-identification",
        ok,
        f"worst relative spread of effective rates across G in {{1,2,4}}: {worst:.1e}",
    )


def test_c5_invariant_suites(tmp_path):
    rng = np.random.default_rng(20240817)
    failures = []

    # alpha-cut nesting: 50 random fuzzy numbers, 11 levels
    grid = [i / 10.0 for i in range(11)]
    for _ in range(50):
        center = float(rng.uniform(0.1, 50.0))
        f = TriangularFuzzyNumber(center, float(rng.uniform(0.0, 1.0)) * center)
        cuts = [alpha_cut(f, a) for a in grid]
        for inner, outer in zip(cuts[1:], cuts):
            if inner.lo < outer.lo or inner.hi > outer.hi:
                failures.append("alpha-cut nesting")

    # probability conservation on 50 random generators
    for _ in range(50):
        n = int(rng.integers(2, 9))
        states = tuple(f"S{i}" for i in range(n))
        m = rng.uniform(0.0, 3.0, size=(n, n))
        m[rng.random((n, n)) < 0.4] = 0.0
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        gen = GeneratorMatrix(states, m)
        init = StateDistribution(states, rng.dirichlet(np.ones(n)))
        out = transient_grid(gen, init, [float(rng.uniform(0.0, 10.0))])
        if abs(float(out.probs.sum()) - 1.0) > 1e-9:
            failures.append("probability conservation")

    # unit start and monotone decrease for all four curves, 20 parameter
    # sets; grid capped so steep Weibull draws stay clear of exp() underflow
    t_grid = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]
    for _ in range(20):
        hw = HardwareParams(float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.5, 3.0)))
        sw = SoftwareParams(
            float(rng.uniform(0.1, 50.0)),
            float(rng.uniform(0.01, 1.0)),
            float(rng.uniform(0.0, 10.0)),
        )
        l1 = float(rng.uniform(1e-4, 1e-2))
        inter = InteractionParams(l1, l1 * float(rng.uniform(1.0, 10.0)))
        # the columns R_hw, R_sw, R_int and R_pmu
        for values in list(zip(*pmu_reliability_curve(hw, sw, inter, t_grid)))[1:]:
            if values[0] != 1.0 or any(
                b > a + 1e-15 for a, b in zip(values, values[1:])
            ):
                failures.append("curve monotonicity")

    # Monte Carlo reproducibility: two runs compared as output bytes
    cfg = SimulationConfig(
        failure_rate=FAILURE_RATE,
        repair_rate=REPAIR_RATE,
        mission_time=MISSION,
        n_replications=2000,
        master_seed=42,
    )
    runs = {
        "a": run_simulation(cfg),
        "b": run_simulation(cfg),
    }
    blobs = {}
    for key, summary in runs.items():
        path = tmp_path / f"{key}.csv"
        write_csv(
            path,
            ["availability", "mean_failures", "availability_se", "mean_failures_se"],
            [
                (
                    summary.availability,
                    summary.mean_failures,
                    summary.availability_se,
                    summary.mean_failures_se,
                )
            ],
        )
        exposure_path = tmp_path / f"{key}_exposure.csv"
        write_csv(exposure_path, ["interval", "X_i", "T_i"], summary.exposure.rows())
        blobs[key] = path.read_bytes() + exposure_path.read_bytes()
    if blobs["a"] != blobs["b"]:
        failures.append("simulation reproducibility")

    ok = not failures
    verdict(
        "C5 invariant-suites",
        ok,
        "nesting, conservation, curve shape, reproducibility all hold"
        if ok
        else f"violations: {sorted(set(failures))}",
    )


def test_c6_renewal_theory_check():
    renewal = MISSION / (1.0 / FAILURE_RATE + 1.0 / REPAIR_RATE)
    summary = run_simulation(MC_CONFIG)
    rel = abs(summary.mean_failures - renewal) / renewal
    ok = rel <= 0.02 and abs(renewal - 6.378) < 1e-3
    verdict(
        "C6 renewal-mean-failures",
        ok,
        f"simulated {summary.mean_failures:.4f} vs renewal {renewal:.4f} "
        f"(rel gap {rel:.3%})",
    )


def test_c7_software_reliability_spot_check():
    value = software_reliability(
        SoftwareParams(total_faults=10.0, detection_rate=0.1, startup_time=5.0), 10.0
    )
    ok = abs(value - 0.02165) <= 1e-4
    verdict("C7 software-reliability spot", ok, f"R(10) = {value:.6f}")


def test_c8_campaign_matches_its_exact_expectations():
    # The campaign starts UP, so with a = lambda + mu its mission-average
    # availability is mu/a + lambda (1 - e^{-aT}) / (a^2 T) and its expected
    # failure count lambda T times that.  One 100k-mission campaign at a
    # fixed seed must lie within 4 of its own standard errors of both: a
    # bias in the times, such as a log that rounds one way, shows here long
    # before it reaches C1's or C6's tolerance.
    a = FAILURE_RATE + REPAIR_RATE
    availability = REPAIR_RATE / a - FAILURE_RATE * math.expm1(-a * MISSION) / (a * a * MISSION)
    failures = FAILURE_RATE * MISSION * availability
    summary = run_simulation(replace(MC_CONFIG, n_replications=100_000))
    z_availability = (summary.availability - availability) / summary.availability_se
    z_failures = (summary.mean_failures - failures) / summary.mean_failures_se
    ok = (
        round(availability, 7) == 0.9715102
        and round(failures, 5) == 6.37894
        and abs(z_availability) <= 4.0
        and abs(z_failures) <= 4.0
    )
    verdict(
        "C8 exact-expectations",
        ok,
        f"availability {summary.availability:.7f} vs {availability:.7f} (z {z_availability:+.2f}), "
        f"failures {summary.mean_failures:.5f} vs {failures:.5f} (z {z_failures:+.2f})",
    )


def test_c8_every_interval_matches_its_exact_expectation():
    # Started UP, a mission is up at time s with probability
    # A(s) = mu/a + (lambda/a) e^{-as}, a = lambda + mu, so its expected up
    # time in interval i is the integral of A over the interval and its
    # expected failure count there lambda times that.  Batch means of 20
    # campaigns of 5000 missions at fixed seeds must lie within 4 standard
    # errors of both, in every interval.
    from scipy.integrate import quad

    lam, mu = FAILURE_RATE, REPAIR_RATE
    a = lam + mu

    def availability(s):
        return mu / a + lam / a * math.exp(-a * s)

    def up_time(u, v):
        return mu / a * (v - u) + lam / (a * a) * (math.exp(-a * u) - math.exp(-a * v))

    edges = np.linspace(0.0, MISSION, MC_CONFIG.n_intervals + 1)
    intervals = list(zip(edges[:-1], edges[1:]))
    up = np.array([up_time(u, v) for u, v in intervals])
    quad_gap = max(abs(quad(availability, u, v, epsabs=0.0, epsrel=1e-13)[0] - e) / e
                   for (u, v), e in zip(intervals, up))

    n, seeds = 5000, range(1000, 1020)
    campaigns = [run_simulation(replace(MC_CONFIG, n_replications=n, master_seed=seed)) for seed in seeds]
    times = np.array([c.exposure.times for c in campaigns]) / n
    counts = np.array([c.exposure.counts for c in campaigns]) / n

    def largest_z(batches, expected):
        return float(np.max(np.abs(batches.mean(0) - expected) / (batches.std(0, ddof=1) / math.sqrt(len(seeds)))))

    z_times, z_counts = largest_z(times, up), largest_z(counts, lam * up)
    ok = quad_gap <= 1e-12 and z_times <= 4.0 and z_counts <= 4.0
    verdict(
        "C8 per-interval exposure",
        ok,
        f"largest |z| of T_i {z_times:.2f} and of X_i {z_counts:.2f} over {len(up)} intervals, "
        f"closed form vs quad {quad_gap:.1e}",
    )
