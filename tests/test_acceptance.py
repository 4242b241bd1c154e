"""Acceptance gate: one test per headline criterion.

Every criterion maps to named entries of the verification report; the
report times each check, so the runtime budgets are enforced alongside
the numerical outcome. A criterion's runtime is the wall time of the
checks that produce its entries, each check counted once. Test names
double as the pass/fail lines of the acceptance run.
"""

import pytest

from gapbumps.verify import VerificationSession, run_verification

BUDGETS_S = {
    1: 10.0,
    2: 10.0,
    3: 20.0,
    4: 30.0,
    5: 60.0,
    6: 60.0,
    7: 60.0,
    8: 180.0,
    9: 30.0,
    10: 300.0,
    11: 300.0,
}


@pytest.fixture(scope="module")
def report():
    """One suite run: its entries, each check's wall time and producer."""
    return VerificationSession(seed=0).run_all()


def _criterion(report, number, names):
    entries = {e.name: e for e in report.entries}
    picked = [entries[n] for n in names]
    ok = all(e.passed for e in picked)
    spent = sum(report.seconds[c] for c in {report.producer[n] for n in names})
    label = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {label}  ({', '.join(names)}; {spent:.1f}s)")
    for e in picked:
        assert e.passed, f"{e.name}: measured {e.measured}, tolerance {e.tolerance}"
    assert spent < BUDGETS_S[number], f"criterion {number} took {spent:.1f}s"


def test_criterion_01_spectral_gap(report):
    _criterion(report, 1, ["spectral_gap"])


def test_criterion_02_band_consistency(report):
    _criterion(report, 2, ["band_consistency", "band_edges_regression"])


def test_criterion_03_norm_equivalence(report):
    _criterion(report, 3, ["norm_equivalence"])


def test_criterion_04_calculus_checks(report):
    _criterion(report, 4, ["calculus_fd"])


def test_criterion_05_nontrivial_solution(report):
    _criterion(report, 5, ["nontrivial_solution"])


def test_criterion_06_linking_sandwich(report):
    _criterion(report, 6, ["linking_sandwich", "sphere_level_stability"])


def test_criterion_07_reduction_identities(report):
    _criterion(
        report, 7, ["reduction_at_base", "degenerate_kernel", "reduced_gradient_fd"]
    )


def test_criterion_08_superposition_limit(report):
    _criterion(report, 8, ["superposition_limit"])


def test_criterion_09_interaction_decay(report):
    _criterion(report, 9, ["interaction_decay"])


def test_criterion_10_multibump_theorem(report):
    _criterion(
        report, 10, ["multibump_identity", "multibump_witnesses", "multibump_decay"]
    )


def test_criterion_11_multiplicity_witness(report):
    _criterion(report, 11, ["multiplicity_witness"])


def test_criterion_12_determinism(report):
    # a fresh session must reproduce the fixture's suite run byte for byte
    fresh = run_verification(seed=0, determinism=False)
    identical = fresh.to_json() == report.to_json()
    label = "PASS" if identical and fresh.passed else "FAIL"
    print(f"criterion 12: {label}  (determinism)")
    assert identical
    assert fresh.passed, [e.name for e in fresh.entries if not e.passed]


def test_every_report_entry_passes(report):
    failing = [e.name for e in report.entries if not e.passed]
    assert not failing, failing
