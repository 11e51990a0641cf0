"""Library results pinned bit for bit.  The golden corpus pins the CLI's
artifacts; these sha256 digests pin what the library returns on 16384
nodes, where the CLI's configs do not go: a Monge-Ampere solution with its
detector values and fit coefficients, one flow snapshot and the decay
certificate's slice ratios.  A change that claims to alter no arithmetic
must leave every digest as it is.  The digests were recorded with the
versions in ``tests/golden/manifest.json`` (``test_golden.py`` checks them);

    PYTHONPATH=src python tests/test_library_digests.py

prints the current ones."""

import hashlib
import math

import numpy as np
import pytest

from cuspasym import fitting, parabolic
from cuspasym.elliptic import MongeAmpereProblem, solve_monge_ampere_radial
from cuspasym.geometry import ModelMetric
from cuspasym.indexsets import IndexSet, IndexTerm
from cuspasym.radial import RadialField, RadialGrid

GRID = RadialGrid(-40.0, math.log(0.5), 16384)
FIT_SET = IndexSet(tuple(IndexTerm(z, k) for z, k in ((1, 0), (1, 1), (2, 0), (2, 1))), 2)

DIGESTS = {
    "ma-solution": "fd1fe3503d57e651d26fed2478a8f77e5f9b2c61571448e9a88a931aa930ab52",
    "ma-detector": "47b443f0dde692c3eb1837a4086f130a65b9879bb455168292b9a0d822a81660",
    "ma-fit": "59eac94435610b6fe72880f061582ba8fba623df27cb386d6ded89c112840760",
    "flow-snapshot": "dd4b59b07b8ed02d716b4d5d2b84ddd49d35a626d1861c79fbbdf3b13ed839aa",
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
    return {"ma-solution": _digest(u.values, report.residuals),
            "ma-detector": _digest([estimate.value, estimate.linear_value,
                                    estimate.uncertainty], estimate.window_values),
            "ma-fit": _digest([fit.coefficients[tm] for tm in fit.terms],
                              [fit.residual_sup, fit.remainder_exponent, *fit.remainder_spread])}


def _flow():
    # the conformal form of the benchmark's flow op, at fixed kappa and beta
    bump = np.exp(-((GRID.t + 20.0) / 3.0) ** 2)
    metric = ModelMetric(conformal=RadialField(GRID, 0.2 + 0.1 * bump))
    result = parabolic.run_flow(parabolic.FlowProblem(metric, T=0.04, dt=0.01,
                                                      output_times=[0.04]))
    return {"flow-snapshot": _digest(result.states[-1].u.values, result.newton_residuals)}


def _decay():
    cert = parabolic.decay_certificate(GRID, 1.0, lambda x, t: np.ones_like(x), T=1.0, dt=1e-2)
    return {"decay-slice-ratios": _digest(cert.slice_ratios)}


@pytest.mark.parametrize("compute", [_ma, _flow, _decay], ids=["ma", "flow", "decay"])
def test_library_results_keep_their_digests(compute):
    for name, digest in compute().items():
        assert digest == DIGESTS[name], f"{name} changed bits"


if __name__ == "__main__":
    for compute in (_ma, _flow, _decay):
        for name, digest in compute().items():
            print(f"    {name!r}: {digest!r},")
