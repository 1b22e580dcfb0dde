"""Acceptance gate: one test per criterion, at the pinned tolerances.

Each test prints its criterion's pass/fail line and asserts the verdict.
Criterion 6 compares finite-n trajectory means on complete 3-graphs with
the exact finite-n centers (binomial survival ratios) and reports how far
the paper's leading-order centers sit from them (about 0.196, 0.132 and
0.099 at the last step for n = 60, 90 and 120); that gap must strictly
shrink as n grows.
"""

import hashlib
import importlib
import math
import pathlib
import re

import pytest

from hypermatch import acceptance
from hypermatch.shifting import auto_anneal_params


# What ``verify`` prints per criterion at the full run sizes, with criterion
# 1's runtime cut off.  A change that alters a line updates it here.
DETAILS = {
    "1 exact-count oracle": "8 exact matches",
    "2 max-entropy solver symmetry": "max |h - closed form| = 3.55e-15, max residual = 4.44e-16",
    "3 Jensen sandwich": "100 instances, 0 violations; min slack lower 2.66e-15, upper 0.534",
    "4 shift correctness": (
        "1000 shifts; max vertex-sum drift 3.33e-16; min (gain - bound) = 0.000209"
    ),
    "5 anneal monotonicity and output contract": (
        "20 instances; "
        "validated regime: 0 shifts (vacuous), all clauses hold, search-exhausted rate 0/20; "
        "active regime: 16095 shifts, 1260 decreasing steps (reported), net entropy gain on 20/20, flag rate 0/20; "
        "validated-regime min D/n^(k-1) 4.793e+06 (weights are <= 1)"
    ),
    "6 greedy trajectory concentration": (
        "200 seeds; n=60: exact-center dev weight 5.3e-15, entropy 5.3e-15, degree 1.1e-16; "
        "asymptotic-center gap 0.196 -> ok; "
        "n=90: exact-center dev weight 4.7e-15, entropy 5.0e-15, degree 1.1e-16; "
        "asymptotic-center gap 0.132 -> ok; "
        "n=120: exact-center dev weight 5.2e-15, entropy 5.4e-15, degree 1.2e-16; "
        "asymptotic-center gap 0.099 -> ok; asymptotic-center gap strictly shrinking in n; "
        "largest across-seed relative spread: weight 5.4e-16, entropy 8.1e-16"
    ),
    "7 marginal-entropy inequality": (
        "19 instances; min(k h(marg) - ln Phi) = 3.296; min(h_solver - h(marg)) = 0"
    ),
    "8 entropy lower-bound certificate": (
        "50 instances; min solver margin 0.2726, min pull-back margin 0.2714; "
        "K_6 tightness gap 8.88e-16; max dual gap 5.27e-08"
    ),
    "9 residual trend": (
        "complete r/n: 0.2829, 0.1820, 0.1344, 0.1066, 0.0883 (strictly decreasing); "
        "near-complete r/n: n=6: 0.3005, n=9: 0.1824, n=12: 0.1346; "
        "complete r_cert/n: 0.2829, 0.1820, 0.1344, 0.1066, 0.0883; "
        "max |r - r_cert|/n 3.89e-16"
    ),
    "10 determinism": "7 subcommands run twice, byte-identical",
}
# sha256 of criterion 5's anneal steps at the full run size
TRACE_5 = "016b814e7e0e55441eec6772eae0f75dd36a76e3faec225c694b62ee4b684642"
# criterion 5 at ``verify --quick`` size
QUICK_5 = (
    "6 instances; "
    "validated regime: 0 shifts (vacuous), all clauses hold, search-exhausted rate 0/6; "
    "active regime: 3375 shifts, 232 decreasing steps (reported), net entropy gain on 6/6, flag rate 0/6; "
    "validated-regime min D/n^(k-1) 1.188e+07 (weights are <= 1)"
)


def _check(result):
    print(result.summary_line())
    assert result.passed, result.details
    assert re.sub(r" in \d+\.\d\ds$", "", result.details) == DETAILS[result.name]


def test_criterion_1_exact_count_oracle():
    _check(acceptance.criterion_1_exact_counts())


def test_criterion_2_max_entropy_solver():
    _check(acceptance.criterion_2_solver_on_complete())


def test_criterion_3_jensen_sandwich():
    _check(acceptance.criterion_3_jensen_sandwich())


def test_criterion_4_shift_correctness():
    _check(acceptance.criterion_4_shift_correctness())


def test_criterion_5_anneal_contract(monkeypatch):
    logs = []
    anneal = acceptance.anneal_and_shift

    def recorded(*args, **kwargs):
        x, log = anneal(*args, **kwargs)
        logs.append(log)
        return x, log

    monkeypatch.setattr(acceptance, "anneal_and_shift", recorded)
    result = acceptance.criterion_5_anneal_contract()
    _check(result)
    # at desk scale the validated regime makes no shift; the active one does
    assert "validated regime: 0 shifts (vacuous)," in result.details
    assert re.search(r"active regime: [1-9]\d* shifts,", result.details)
    # every step of the 40 anneal runs, in call order, pinned to the bit
    digest = hashlib.sha256()
    for log in logs:
        for s in log.steps:
            row = (s.e_ids, s.f_ids, repr(s.delta), repr(s.entropy_before),
                   repr(s.entropy_after), repr(s.bound))
            digest.update(repr(row).encode())
    assert len(logs) == 40
    assert digest.hexdigest() == TRACE_5


def test_criterion_5_quick_run_names_its_vacuous_regimes():
    # on the first 5 instances neither regime shifts, and the line says so
    line = acceptance.criterion_5_anneal_contract(instances=5).summary_line()
    assert "validated regime: 0 shifts (vacuous)," in line
    assert "active regime: 0 shifts (vacuous)," in line


@pytest.mark.parametrize("C", [1.0, 2.0])
def test_criterion_5_validated_threshold_is_above_every_weight(C):
    # gain ratio >= 1 with D = eps^-3k, delta = eps / (2 C^2 n^(k-1)) and
    # eta = (4/gamma) / C(n-1, k-1) >= (4/gamma) (k-1)! / n^(k-1) forces
    # eps^-(2k+1) >= 2^k C^(2(k-1)) ((4/gamma) (k-1)!)^k, so D/n^(k-1) is at
    # least that to the power 3k/(2k+1), over n^(k-1); above 1, no edge is heavy
    gamma = 0.5
    for G in acceptance._random_dirac_instances([9, 12, 15], 3, 2, 0.2, 0.95, 5000, 6):
        k, scale = G.k, float(G.n) ** (G.k - 1)
        params = auto_anneal_params(G, gamma, 0.9, C, max_steps=40000,
                                    require_positive_gain=True)
        base = 2**k * C ** (2 * (k - 1)) * ((4 / gamma) * math.factorial(k - 1)) ** k
        floor = base ** (3 * k / (2 * k + 1)) / scale
        assert floor > 1
        assert params.high_threshold(G) == params.D / scale >= floor


def test_criterion_6_greedy_concentration():
    _check(acceptance.criterion_6_greedy_concentration())


def test_criterion_7_marginal_inequalities():
    _check(acceptance.criterion_7_marginal_inequalities())


def test_criterion_8_entropy_bound_certificates():
    _check(acceptance.criterion_8_entropy_bound_certificates())


def test_criterion_9_residual_trend():
    result = acceptance.criterion_9_residual_trend()
    _check(result)
    # g(lambda) >= h*, and at the solver's potentials it is h* up to rounding
    assert re.search(r"complete r_cert/n: (\d\.\d{4}, ){4}\d\.\d{4};", result.details)
    assert _printed(result.details, "max |r - r_cert|/n") <= 1e-9


def test_criterion_10_determinism(capsys):
    result = acceptance.criterion_10_determinism()
    _check(result)
    # the inner CLI runs print nothing, so verify's output is its own lines
    assert capsys.readouterr().out == result.summary_line() + "\n"


def _printed(details, label):
    return float(re.search(re.escape(label) + r" ([-+.e\d]+)", details).group(1))


def test_criterion_5_prints_why_the_validated_regime_is_vacuous():
    # the smallest heavy threshold is above 1, so no weight is ever heavy
    details = acceptance.criterion_5_anneal_contract(instances=5).details
    assert _printed(details, "validated-regime min D/n^(k-1)") > 1


def test_criterion_6_prints_a_seed_free_spread_on_complete_graphs():
    # on K_n^(3) every run deletes 3 vertices a step: the residuals do not
    # depend on the seed, so the spread is rounding only
    details = acceptance.criterion_6_greedy_concentration(seeds=3).details
    spread = re.search(r"spread: weight ([-+.e\d]+), entropy ([-+.e\d]+)$", details)
    assert max(map(float, spread.groups())) <= 1e-12


def test_criterion_8_prints_its_largest_dual_gap():
    details = acceptance.criterion_8_entropy_bound_certificates(instances=4).details
    assert abs(_printed(details, "max dual gap")) <= 1e-6


def test_verify_quick_makes_active_regime_shifts(monkeypatch):
    # run_all(quick=True) is ``verify --quick``; only criterion 5 runs for real
    for name in dir(acceptance):
        if name.startswith("criterion_") and not name.startswith("criterion_5_"):
            monkeypatch.setattr(acceptance, name, lambda **kwargs: None)
    [result] = [r for r in acceptance.run_all(quick=True) if r is not None]
    assert result.name.startswith("5 ")
    assert int(re.search(r"active regime: (\d+) shifts", result.details).group(1)) > 0
    assert result.details == QUICK_5


ROOT = pathlib.Path(__file__).resolve().parent.parent
STATUSES = ("*asserted*", "*printed*", "*vacuous here*", "*refused here*")


def _ledger_rows():
    """The README claims ledger as (claim, stated by, checked by, status, figures) cells."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Claims ledger", 1)[1]
    lines = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("| ")]
    return [[cell.strip() for cell in line.strip("|").split(" | ")] for line in lines[1:]]


def _resolves(name: str) -> bool:
    if "::" in name:
        path, *scopes = name.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        return all(re.search(rf"^\s*(class|def) {scope}\b", text, re.M) for scope in scopes)
    module, *attrs = name.split(".")
    target = importlib.import_module(f"hypermatch.{module}")
    for attr in attrs:
        target = getattr(target, attr, None)
    return callable(target)


def test_claims_ledger_names_live_code_and_quotes_pinned_figures():
    rows = _ledger_rows()
    assert len(rows) >= 10 and all(len(row) == 5 for row in rows)
    pinned = list(DETAILS.values()) + [QUICK_5]
    for claim, stated, checked, status, figures in rows:
        stated_names, checked_names = re.findall(r"`([^`]+)`", stated), re.findall(r"`([^`]+)`", checked)
        assert len(stated_names) >= 1 and len(checked_names) >= 1, claim
        for name in stated_names + checked_names:
            assert _resolves(name), (claim, name)
        assert status.startswith(STATUSES), claim
        # the only numbers the ledger quotes are pinned figures
        assert not re.search(r"\d", status), claim
        for figure in re.findall(r"`([^`]+)`", figures):
            assert any(figure in line for line in pinned), (claim, figure)
        assert figures == "—" or figures.startswith("`"), claim

