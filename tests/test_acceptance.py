"""Acceptance suite.

One test per shipped criterion; each prints a single pass/fail line
(visible with ``pytest -s``) and then asserts. Reference values are the
published case-study numbers at their stated tolerances.
"""

import itertools
import json
import math
import random

import numpy as np

from cattab.association import ScoreAssignment, odds, odds_ratio, pearson_correlation
from cattab.cli import main as cli_main
from cattab.distributions import (
    BinomialSpec,
    MultinomialSpec,
    binomial_pmf,
    multinomial_pmf,
    poisson_pmf,
    PoissonSpec,
)
from cattab.fixtures import (
    fixture_path,
    life_quality_survey,
    police_shootings,
    vaccine_trial,
)
from cattab.inference import (
    Sidedness,
    homogeneity_test,
    independence_test,
    log_likelihood,
    lr_test_proportion,
    mantel_haenszel_test,
    score_test_proportion,
    wald_ci,
)
from cattab.simulate import SamplingScheme, calibrate_null, coverage_wald_ci
from cattab.table import (
    ContingencyTable,
    conditional_probabilities,
    joint_probabilities,
)


def finish(number: int, description: str, checks: list[tuple[str, bool]]) -> None:
    failures = [name for name, ok in checks if not ok]
    status = "PASS" if not failures else "FAIL (" + ", ".join(failures) + ")"
    print(f"[acceptance] criterion {number:2d} {description}: {status}")
    assert not failures, f"criterion {number} failed: {failures}"


def close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol


def test_criterion_01_joint_and_marginal_estimates():
    est = joint_probabilities(police_shootings())
    checks = [
        ("joint[0,0]", close(est.joint[0, 0], 0.0172, 5e-4)),
        ("joint[0,1]", close(est.joint[0, 1], 0.5076, 5e-4)),
        ("joint[1,0]", close(est.joint[1, 0], 0.0272, 5e-4)),
        ("joint[1,1]", close(est.joint[1, 1], 0.4480, 5e-4)),
        ("row_marginal[0]", close(est.row_marginal[0], 0.5248, 5e-4)),
        ("row_marginal[1]", close(est.row_marginal[1], 0.4752, 5e-4)),
        ("col_marginal[0]", close(est.col_marginal[0], 0.0444, 5e-4)),
        ("col_marginal[1]", close(est.col_marginal[1], 0.9556, 5e-4)),
    ]
    finish(1, "joint/marginal estimates", checks)


def test_criterion_02_row_conditional_estimates():
    cond = conditional_probabilities(vaccine_trial(), "rows")
    expected = [[0.9878, 0.0122], [0.9993, 0.0007]]
    checks = [
        (f"conditional[{i},{j}]", close(cond[i, j], expected[i][j], 5e-5))
        for i in range(2) for j in range(2)
    ]
    finish(2, "row-conditional estimates", checks)


def test_criterion_03_odds_and_odds_ratios():
    shootings = police_shootings()
    ratio = odds_ratio(shootings, rows=(0, 1), cols=(1, 0))
    swapped = odds_ratio(shootings, rows=(0, 1), cols=(0, 1))
    vaccine = odds_ratio(vaccine_trial(), rows=(1, 0), cols=(0, 1))
    reciprocity = abs(swapped.estimate * ratio.estimate - 1.0)
    checks = [
        ("odds given men", close(odds(shootings, 0, 1, 1), 1.133, 1e-3)),
        ("odds given women", close(odds(shootings, 0, 1, 0), 0.632, 1e-3)),
        ("odds ratio", close(ratio.estimate, 1.792, 1e-3)),
        ("odds ratio swapped", close(swapped.estimate, 0.558, 1e-3)),
        ("vaccine odds ratio", close(vaccine.estimate, 17.01, 1e-2)),
        ("reciprocity", reciprocity <= 1e-12),
    ]
    finish(3, "odds and odds ratios", checks)


def test_criterion_04_correlations():
    binary = ScoreAssignment((1, 2), (1, 2))  # non-white=1, white=2; woman=1, man=2
    r_shootings = pearson_correlation(police_shootings(), binary)
    r_survey = pearson_correlation(life_quality_survey())
    checks = [
        ("2x2 correlation", close(r_shootings, -0.059, 1e-3)),
        ("5x5 correlation", close(r_survey, 0.599, 1e-3)),
    ]
    finish(4, "scored correlations", checks)


def test_criterion_05_independence_test():
    pearson, deviance, _ = independence_test(police_shootings())
    checks = [
        ("X2", close(pearson.statistic, 20.068, 5e-3)),
        ("G2", close(deviance.statistic, 20.137, 5e-3)),
        ("df", pearson.df == 1 and deviance.df == 1),
        ("pearson p < .01", pearson.p_value < 0.01),
        ("deviance p < .01", deviance.p_value < 0.01),
    ]
    finish(5, "independence test", checks)


def test_criterion_06_homogeneity_test():
    # The quoted G2 is 187.88, a one-digit slip of 187.98. The same
    # counts (15025,185,15199,11) that reproduce the quoted X2, df and p
    # give G2 = 2*sum(o*ln(o/e)) = 187.9798 in an exact 50-digit decimal
    # evaluation and in scipy's chi2_contingency(correction=False,
    # lambda_="log-likelihood"); test_inference.py checks both. No count
    # set within +-40 of each asymptomatic cell and +-3 of each case
    # count gives X2 = 155.47 and G2 = 187.88 together, and no rounding
    # of an intermediate (terms, o/e ratios, probabilities) gives 187.88.
    pearson, deviance, _ = homogeneity_test(vaccine_trial())
    checks = [
        ("X2", close(pearson.statistic, 155.47, 5e-2)),
        ("G2", close(deviance.statistic, 187.98, 5e-2)),
        ("df", pearson.df == 1),
        ("p < .01", pearson.p_value < 0.01 and deviance.p_value < 0.01),
    ]
    finish(6, "homogeneity test", checks)


def test_criterion_07_linear_association_test():
    res = mantel_haenszel_test(life_quality_survey())
    checks = [
        ("M2", close(res.statistic, 834.937, 1.0)),
        ("p < .01", res.p_value < 0.01),
        ("df", res.df == 1),
    ]
    finish(7, "linear association test", checks)


def test_criterion_08_proportion_inference():
    score_two = score_test_proportion(3, 10, 0.5)
    score_upper = score_test_proportion(3, 10, 0.5, Sidedness.UPPER)
    ci = wald_ci(3, 10, 0.95)
    checks = [
        ("score z", close(score_two.statistic, -1.265, 5e-4)),
        ("ci lower", close(ci.lower, 0.0159, 5e-4)),
        ("ci upper", close(ci.upper, 0.5841, 5e-4)),
        ("upper-tail p", close(score_upper.p_value, 0.897, 1e-3)),
        ("default two-sided p", close(score_two.p_value, 0.206, 1e-3)),
        ("default sidedness", score_two.sidedness is Sidedness.TWO_SIDED),
    ]
    finish(8, "proportion inference", checks)


def test_criterion_09_binomial_pmf():
    value = binomial_pmf(BinomialSpec(10, 0.2), 7)
    finish(9, "binomial pmf", [("P(7; 10, .2)", close(value, 0.000786432, 1e-9))])


def test_criterion_10_property_suite():
    checks = []

    # PMF normalization <= 1e-12 across the three families.
    binom = BinomialSpec(12, 0.37)
    binom_total = math.fsum(binomial_pmf(binom, y) for y in range(13))
    multi = MultinomialSpec(5, (0.5, 0.3, 0.2))
    multi_total = math.fsum(
        multinomial_pmf(multi, (a, b, 5 - a - b))
        for a, b in itertools.product(range(6), repeat=2) if a + b <= 5)
    pois = PoissonSpec(7.0)
    pois_total = math.fsum(poisson_pmf(pois, y) for y in range(250))
    checks.append(("pmf normalization", abs(binom_total - 1) <= 1e-12
                   and abs(multi_total - 1) <= 1e-12
                   and abs(pois_total - 1) <= 1e-12))

    # Two-category multinomial equals the binomial, relative 1e-14.
    pair = MultinomialSpec(10, (0.2, 0.8))
    single = BinomialSpec(10, 0.2)
    reduction = all(
        abs(multinomial_pmf(pair, (y, 10 - y)) - binomial_pmf(single, y))
        <= 1e-14 * binomial_pmf(single, y)
        for y in range(11))
    checks.append(("multinomial reduction", reduction))

    # Phi identity |r| = sqrt(X2/n) on 2x2 tables, within 1e-10.
    rng = random.Random(321)
    phi_ok = True
    for _ in range(50):
        counts = [[rng.randint(1, 80) for _ in range(2)] for _ in range(2)]
        table = ContingencyTable(counts, ("a", "b"), ("x", "y"))
        r = pearson_correlation(table)
        x2 = independence_test(table)[0].statistic
        phi_ok &= abs(abs(r) - math.sqrt(x2 / table.total())) <= 1e-10
    checks.append(("phi identity", phi_ok))

    # The ML estimate maximizes the log-likelihood over a fine grid.
    grid = [k / 1000 for k in range(1001)]
    argmax_ok = True
    for _ in range(50):
        n = rng.randint(1, 40)
        y = rng.randint(0, n)
        best = max(grid, key=lambda p: log_likelihood(p, y, n))
        argmax_ok &= abs(best - y / n) <= 5.0001e-4
    checks.append(("mle grid argmax", argmax_ok))

    # Unrestricted likelihood dominates the null-restricted one.
    lr_ok = True
    for _ in range(1000):
        n = rng.randint(1, 100)
        y = rng.randint(0, n)
        _, detail = lr_test_proportion(y, n, rng.uniform(0.01, 0.99))
        lr_ok &= detail.log_l1 >= detail.log_l0
    checks.append(("l1 >= l0", lr_ok))

    # df = (I-1)(J-1) on every fixture.
    df_ok = (independence_test(police_shootings())[0].df == 1
             and homogeneity_test(vaccine_trial())[0].df == 1
             and independence_test(life_quality_survey())[0].df == 16)
    checks.append(("df", df_ok))

    finish(10, "property suite", checks)


def test_criterion_11_monte_carlo_calibration():
    scheme = SamplingScheme.multinomial(500, np.full((2, 2), 0.25))
    report = calibrate_null(scheme, "pearson", 10000, seed=20260809)

    coverage_100 = coverage_wald_ci(0.5, 100, 0.95, 10000, seed=42)

    exact_10 = sum(binomial_pmf(BinomialSpec(10, 0.05), y)
                   for y in range(11)
                   if wald_ci(y, 10, 0.95).contains(0.05))
    mc_10 = coverage_wald_ci(0.05, 10, 0.95, 10000, seed=99)
    se_10 = math.sqrt(exact_10 * (1 - exact_10) / 10000)

    checks = [
        ("X2 null mean", abs(report.empirical_mean - 1.0) <= 0.05),
        ("rejection at .05",
         0.04 <= report.rejection_rates[0.05] <= 0.06),
        ("coverage n=100", 0.93 <= coverage_100 <= 0.97),
        ("exact vs MC coverage", abs(mc_10 - exact_10) <= 3 * se_10),
    ]
    finish(11, "Monte Carlo calibration", checks)


def test_criterion_12_cli_determinism(capsys):
    argv = ["test", "independence", "--input",
            str(fixture_path("police_shootings")), "--format", "json"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    payload = json.loads(first)
    checks = [
        ("byte-identical", first == second),
        ("X2 in report",
         close(payload["results"]["pearson"]["statistic"], 20.068, 5e-3)),
    ]
    finish(12, "CLI determinism", checks)
