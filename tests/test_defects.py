"""The defect matrix: each planted defect of ``defects.DEFECTS`` must fail
the rows it names; the ones the suite misses are strict expected failures,
so catching one of them is reported too."""

import pytest

from defects import DEFECTS, MISSED, SINUSOIDAL_FIELD
from gexplab import experiments
from gexplab.config import default_config, validate_config


def run_matrix_checks(monkeypatch, defect=None, field=None):
    """The failing "check:metric" rows and the representation's
    rel_rms_y[t=0] when gspde and representation run on the shipped config,
    on ``field`` if given, with ``defect`` planted."""
    cfg = default_config()
    cfg["suite"]["checks"] = ["gspde", "representation"]
    if field is not None:
        cfg["coefficient_field"] = field
    exp = validate_config(cfg)
    if defect is not None:
        defect.plant(monkeypatch, exp)
    rows, _ = experiments.run_suite(exp)
    y0 = next(r.value for r in rows if r.metric == "rel_rms_y[t=0]")
    return {f"{r.check}:{r.metric}" for r in rows if not r.passed}, y0


UNMUTATED = {}


def unmutated(field):
    """``run_matrix_checks`` on the unmutated program on ``field``, run once
    per field."""
    key = repr(field)
    if key not in UNMUTATED:
        UNMUTATED[key] = run_matrix_checks(None, field=field)
    return UNMUTATED[key]


@pytest.mark.parametrize("field,y0", [(None, 0.0146), (SINUSOIDAL_FIELD, 0.0167)],
                         ids=["shipped", "sinusoidal"])
def test_unmutated_program_fails_no_row(field, y0):
    failed, measured = unmutated(field)
    assert failed == set()
    assert measured == pytest.approx(y0, rel=0.01)


@pytest.mark.parametrize("defect", [
    pytest.param(d, id=d.name, marks=[pytest.mark.xfail(strict=True, raises=AssertionError,
                                                        reason=MISSED)] if d.missed else [])
    for d in DEFECTS])
def test_planted_defect_fails_its_rows(monkeypatch, defect):
    failed, y0 = run_matrix_checks(monkeypatch, defect, defect.field)
    # Not an assert: a defect that no longer plants must fail, not xfail.
    if y0 != pytest.approx(defect.rel_rms_y0, rel=0.01):
        pytest.fail(f"rel_rms_y[t=0] is {y0:.5f}, the entry records {defect.rel_rms_y0}")
    if y0 == unmutated(defect.field)[1]:
        pytest.fail("rel_rms_y[t=0] is the unmutated program's: the defect did not plant")
    assert set(defect.rows) <= failed, sorted(failed)
