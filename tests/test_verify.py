"""Mutation tests of the shared property checks.

``spdm verify`` and the acceptance suite run the same measurements from
``spdm.verify``.  Each mutation below breaks one property on purpose; it
must fail both the named ``spdm verify`` check and the acceptance
criterion built on the same measurement, and neither may fail without it.
"""

import dataclasses

import numpy as np
import pytest

import test_acceptance as acceptance
from spdm import groups, metrics, nets, verify


def wrong_compose_table(monkeypatch):
    build = groups._build_group

    def build_wrong(*args):
        g = build(*args)
        table = g.compose_table.copy()
        table[1, 1] = (table[1, 1] + 1) % len(g)
        return dataclasses.replace(g, compose_table=table)

    monkeypatch.setattr(groups, "_build_group", build_wrong)


def dense_kernel(monkeypatch):
    # expand every tied kernel to the same untied ramp of values
    monkeypatch.setattr(nets.TiedKernel, "expand", lambda self, params=None:
                        np.arange(1.0, self.size**2 + 1.0).reshape(self.size, self.size))


def frame_average_returns_base(monkeypatch):
    monkeypatch.setattr(groups.FrameAveragedField, "__call__",
                        lambda self, x, *args: self.base(x, *args))


def biased_nll(monkeypatch):
    nll = metrics.pf_ode_nll

    def biased(score, s, x0, grid, **kwargs):
        rep = nll(score, s, x0, grid, **kwargs)
        bias = 0.05  # nats per dim
        d = np.atleast_2d(x0).shape[1]
        return dataclasses.replace(rep, log_likelihood=rep.log_likelihood - bias * d,
                                   bits_per_dim=rep.bits_per_dim + bias / np.log(2.0))

    monkeypatch.setattr(metrics, "pf_ode_nll", biased)


# mutation -> (check function, check that must fail, acceptance criterion)
MUTATIONS = {
    "wrong_compose_table": (wrong_compose_table, verify.check_group_axioms,
                            "group_closure[C4-point]",
                            acceptance.test_criterion_01_group_axioms),
    "dense_kernel": (dense_kernel, verify.check_tied_kernels,
                     "tied_kernel_commutation",
                     acceptance.test_criterion_02_tied_kernels),
    "frame_average_returns_base": (frame_average_returns_base,
                                   verify.check_frame_averaging,
                                   "frame_averaging[point-C4]",
                                   acceptance.test_criterion_03_frame_averaging),
    "biased_nll": (biased_nll, verify.check_nll_consistency, "nll_closed_form",
                   acceptance.test_criterion_06_nll_accuracy_and_invariance),
}


def failed(check) -> set:
    return {r.name for r in check() if not r.passed}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_verify_check_and_acceptance(name, monkeypatch):
    mutate, check, check_name, criterion = MUTATIONS[name]
    assert failed(check) == set()
    criterion()
    mutate(monkeypatch)
    assert check_name in failed(check)
    with pytest.raises(AssertionError, match="^FAIL criterion"):
        criterion()
