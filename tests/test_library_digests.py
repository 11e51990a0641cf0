"""Library results pinned bit for bit.  The golden corpus pins the CLI's
artifacts; these sha256 digests pin what the library returns on 16384
nodes, where the CLI's configs do not go: a Monge-Ampere solution with its
detector values and fit coefficients, the headline b_R of
``logterm-pipeline`` with its error bar, one flow snapshot and the decay
certificate's slice ratios.  A change that claims to alter no arithmetic
must leave every digest as it is.  The digests were recorded with the
versions in ``tests/golden/manifest.json`` (``test_golden.py`` checks them);

    PYTHONPATH=src python tests/test_library_digests.py

prints the current ones.  Each result is a tuple of arrays, digested in
order; ``tests/golden/regen.py --against REV`` compares the arrays."""

import hashlib
import math

import numpy as np
import pytest

from cuspasym import fitting, parabolic
from cuspasym.elliptic import MongeAmpereProblem, solve_monge_ampere_radial
from cuspasym.geometry import ModelMetric
from cuspasym.headline import log_term_headline
from cuspasym.indexsets import IndexSet, IndexTerm
from cuspasym.radial import RadialField, RadialGrid, sample_terms

GRID = RadialGrid(-40.0, math.log(0.5), 16384)
FIT_SET = IndexSet(tuple(IndexTerm(z, k) for z, k in ((1, 0), (1, 1), (2, 0), (2, 1))), 2)

DIGESTS = {
    "ma-solution": "c7d4ffbdeda74b23248dbd00cfba871e89b9d7089f79ca47e76498735611574b",
    "ma-detector": "d8a2ba7df21a315a0726646e09f4683c52a99bc392c485dbb7d5fd1d2f8361d5",
    "ma-fit": "3231dc29fa75114ba07c095b30edfb27e18856d4af5bebfc837278967ccdd0d2",
    "ma-headline": "0de305da830fe95b92f0dedd8c01fb02da8b863053045b5eab08d778ef7533a3",
    "flow-snapshot": "7b1ebbc077093c3ab45edc2be4168e0e3474cf205cde61aabcd586ca6e019c4e",
    "decay-slice-ratios": "3088b9158a7695b02b5dd9163f79878a18267c361d533ee7bfb25cf54e4061b2",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _ma():
    u, report = solve_monge_ampere_radial(MongeAmpereProblem(ModelMetric(),
                                                             RadialField(GRID, 1.5 * GRID.x)))
    estimate = fitting.detect_log_term(u)
    fit = fitting.fit_polyhom(u, FIT_SET, fit_window=(1e-6, 1e-2))
    remainder = fitting.remainder_check(fit, u)
    return {"ma-solution": (u.values, report.residuals),
            "ma-detector": ([estimate.value, estimate.linear_value, estimate.uncertainty],
                            estimate.window_values),
            "ma-fit": ([fit.coefficients[tm] for tm in fit.terms],
                       [remainder.residual_sup, remainder.slope, *remainder.spread])}


def _headline():
    # logterm-pipeline's computation: the source sampled from its term list
    terms = [(1.5, 1.0, 0)]
    u, _ = solve_monge_ampere_radial(MongeAmpereProblem(ModelMetric(), sample_terms(terms, GRID)))
    result = log_term_headline(terms, u, 0.02)
    return {"ma-headline": ([result.extrapolated.value, result.extrapolated.uncertainty,
                             result.estimate.value, result.rel_error],
                            [b_tilde for _, b_tilde in result.grids])}


def _flow():
    # the conformal form of the benchmark's flow op, at fixed kappa and beta
    bump = np.exp(-((GRID.t + 20.0) / 3.0) ** 2)
    metric = ModelMetric(conformal=RadialField(GRID, 0.2 + 0.1 * bump))
    result = parabolic.run_flow(parabolic.FlowProblem(metric, T=0.04, dt=0.01,
                                                      output_times=[0.04]))
    return {"flow-snapshot": (result.states[-1].u.values, result.positivity_margin)}


def _decay():
    cert = parabolic.decay_certificate(GRID, 1.0, lambda x, t: np.ones_like(x), T=1.0, dt=1e-2)
    return {"decay-slice-ratios": (cert.slice_ratios,)}


#: each group of results, by the id its test runs under
RESULTS = {"ma": _ma, "headline": _headline, "flow": _flow, "decay": _decay}


@pytest.mark.parametrize("compute", RESULTS.values(), ids=RESULTS.keys())
def test_library_results_keep_their_digests(compute):
    for name, arrays in compute().items():
        assert _digest(*arrays) == DIGESTS[name], f"{name} changed bits"


if __name__ == "__main__":
    for compute in RESULTS.values():
        for name, arrays in compute().items():
            print(f"    {name!r}: {_digest(*arrays)!r},")
