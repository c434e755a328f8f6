"""The paper's qualitative findings, asserted on the small-scale report.

``make report-check`` pins the small report's digits byte for byte; a
change to the characterization stream legitimately moves them.  These
tests pin what must survive such a change: the conclusions the report
draws, computed with exactly the settings of ``reproduce --scale small``.
"""

import pytest

from repro.eval import Harness, figure9, table2, table3
from repro.eval.reproduce import scale_settings

SEED = 1999


@pytest.fixture(scope="module")
def small():
    config, n_protos, n_fig9 = scale_settings("small", SEED)
    return Harness(config), n_protos, n_fig9


def test_table2_enhanced_model_beats_basic_on_cycle_error(small):
    """Table 2: stable-zero subclasses cut the cycle error where
    correlated operands leave many bits stable (data types III and V)."""
    harness, _, _ = small
    rows = {row.data_type: row for row in table2(harness)}
    for data_type in ("III", "V"):
        row = rows[data_type]
        assert row.cycle_error_enhanced < row.cycle_error_basic, data_type


def test_table3_regression_sets_track_instance_coefficients(small):
    """Table 3: every prototype subset's regressed coefficients stay
    within 10% of the instance characterization on average."""
    harness, n_protos, _ = small
    rows = table3(harness, n_prototype_patterns=n_protos)
    regressed = [row for row in rows if row.source != "inst"]
    assert {row.source for row in regressed} == {"ALL", "SEC", "THI"}
    for row in regressed:
        assert row.parameter_errors["avg"] <= 10.0, (row.kind, row.source)


def test_figure9_dbt_estimate_matches_extracted_distribution(small):
    """Figure 9: the analytic Hd distribution from the DBT word model
    is close to the one extracted from the bit stream."""
    _, _, n_fig9 = small
    assert figure9(n=n_fig9, seed=SEED).total_variation < 0.15
