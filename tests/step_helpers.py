"""One-row step maps for the tests: projections and one-step saddle problems."""

from dataclasses import replace

import numpy as np

from opftrack.controller import ControllerParams, SaddleProblem, StepMap, VoltageCoupling


def one_step(inv, coupling, params, p_av, v_min, v_max):
    """The one-row ``StepMap`` of a single step: ``p_av`` (n_der,) and scalar limits."""
    row = np.asarray(p_av, dtype=float)[None]
    return StepMap(inv, coupling, params, row, np.asarray([v_min], float), np.asarray([v_max], float))


def one_row(inv, p_av):
    """A one-row ``StepMap`` of ``inv`` at availability ``p_av``, for its projection.

    The coupling, parameters and band are placeholders the projection does
    not read.
    """
    coupling = VoltageCoupling(np.zeros((1, 2 * inv.n_der)))
    return one_step(inv, coupling, ControllerParams(1.0, 1.0, 1.0), p_av, 0.0, 1.0)


def project(inv, u, p_av):
    """Projection of setpoints ``u`` (n_der, 2) onto the regions at ``p_av``."""
    return one_row(inv, p_av).project(0, u)


def project_jacobian(inv, u, p_av):
    """:func:`project`, plus the projection's Jacobian rows at ``u``."""
    return one_row(inv, p_av).project_jacobian(0, u)


def saddle(inv, p_av, coupling, c, v_min, v_max, params):
    """The one-step saddle problem at ``p_av``, offset ``c`` (M,) and the band.

    Its map is the unit-step map (``params`` at ``alpha = 1``), as the
    oracle steps it.
    """
    steps = one_step(inv, coupling, replace(params, alpha=1.0), p_av, v_min, v_max)
    return SaddleProblem(steps, 0, np.asarray(c, dtype=float))


def no_load_offset(net):
    """The metered magnitudes of the compiled feeder ``net`` with no load and every DER off."""
    return net.lm.a[net.feeder.monitored_indices()]
