"""Parity of the fitter with a fixture recorded on the ``small`` scenario.

``tests/data/fit_parity_small.json`` holds every distinct degree sequence the
figure suite fits for ``small`` at its preset seed, together with the fits a
term-by-term-normaliser fitter produced.  The closed-form-tail normalisers
and sufficient-statistic likelihoods must reproduce them: the same best
family, parameters within 1e-6 relative and log-likelihoods within 1e-8
relative.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.fitting import compare_distributions

FIXTURE = Path(__file__).parent / "data" / "fit_parity_small.json"
SEQUENCES = json.loads(FIXTURE.read_text())["sequences"]


def test_fixture_covers_the_figure_suite():
    assert len(SEQUENCES) >= 50
    assert {record["best_fit"] for record in SEQUENCES} >= {"lognormal", "power_law_with_cutoff"}


@pytest.mark.parametrize("record", SEQUENCES, ids=lambda r: f"n{sum(r['counts'])}-k{len(r['values'])}")
def test_fits_match_recorded_fixture(record):
    values = np.repeat(record["values"], record["counts"]).tolist()
    comparison = compare_distributions(values, xmin=record["xmin"], compute_ks=False)
    assert comparison.best_name == record["best_fit"]
    assert set(comparison.fits) == set(record["fits"])
    for name, expected in record["fits"].items():
        fit = comparison.fits[name]
        for parameter, value in expected["parameters"].items():
            assert fit.parameters()[parameter] == pytest.approx(value, rel=1e-6), (name, parameter)
        assert fit.log_likelihood == pytest.approx(expected["log_likelihood"], rel=1e-8), name
