"""The benchmark's tracer wraps hardylab from outside the package: it
replaces the estimators and ``refine_until`` in every hardylab module and
reads the estimates they return.  These tests run the estimators under it,
so a change to their signatures or results that would break a traced
benchmark run fails here first."""

import importlib.util
from pathlib import Path

import hardylab
from hardylab.registry import default_registry
from hardylab.reinhardt import polydisc
from hardylab.witnesses import fa_series

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_estimators_run_under_the_tracer():
    tracer = _tracer()
    prod = default_registry().get("prod-fa-0.9")
    with tracer.installed(hardylab):
        norms = hardylab.norms
        estimates = [
            norms.hardy_norm_disc(fa_series(0.9), 1.0, 1e-6, k_max=36,
                                  spike=0.9),
            norms.hardy_norm_reinhardt(prod.evaluator, 1.0, polydisc(2),
                                       spike=prod.spike),
            norms.bergman_norm_disc(lambda z: z, 1.0, 1e-6, spike=0.0)]
    assert all(est.converged for est in estimates)
    layers = tracer.per_layer(1)
    assert layers["norms.hardy_norm_disc.rungs_mean"]["value"] == 1.0
    # hardy_norm_disc and bergman_norm_disc refine through refine_until
    assert layers["trace.selfcheck_checked"]["value"] == 2
    assert layers["trace.selfcheck_mismatches"]["value"] == 0


def test_two_variable_volume_rule_runs_under_the_tracer():
    # the tensor-grid Bergman rule on the bidisc reports the points its
    # integrand sees, level by level
    tracer = _tracer()
    prod = default_registry().get("prod-fa-0.9")
    with tracer.installed(hardylab):
        est = hardylab.norms.bergman_norm_reinhardt(
            prod.partial_evaluator(4), 1.0, polydisc(2), tol=1e-3)
    assert est.converged
    layers = tracer.per_layer(1)
    assert layers["norms.bergman_norm_reinhardt.calls"]["value"] == 1
    assert layers["norms.bergman_norm_reinhardt.points"]["value"] > 0
    assert layers["trace.selfcheck_checked"]["value"] == 1
    assert layers["trace.selfcheck_mismatches"]["value"] == 0


def test_density_experiment_runs_under_the_tracer():
    # the traced bidisc table runs density_experiment through the tracer's
    # span wrapper, and its Hardy estimates through refine_until
    tracer = _tracer()
    fa09 = default_registry().get("fa-0.9")
    with tracer.installed(hardylab):
        rows = hardylab.reinhardt.density_experiment(
            fa09, polydisc(1), 1.0, (0.5,), norm_tol=1e-3)
    assert rows[0].converged and rows[0].met
    layers = tracer.per_layer(1)
    assert layers["reinhardt.density_experiment.calls"]["value"] == 1
    assert layers["trace.selfcheck_mismatches"]["value"] == 0


def test_products_under_the_tracer_count_their_points():
    # the tracer's integrand wrapper does not pass a product's terms on,
    # so a traced product takes the tensor grid: every point it evaluates
    # goes through the wrapper, and the self-check still holds
    tracer = _tracer()
    prod = default_registry().get("prod-fa-0.9")
    sn = prod.partial_evaluator(4)
    assert sn.terms is not None
    with tracer.installed(hardylab):
        norms = hardylab.norms
        est = norms.bergman_norm_reinhardt(sn, 1.0, polydisc(2), tol=1e-3)
        ok = norms.monotonicity_check(prod.evaluator, 1.0, [0.5, 0.5],
                                      [0.6, 0.7], spike=prod.spike)
    assert est.converged and ok
    layers = tracer.per_layer(1)
    assert layers["norms.monotonicity_check.points"]["value"] > 0
    assert layers["norms.bergman_norm_reinhardt.points"]["value"] > 0
    assert layers["trace.selfcheck_checked"]["value"] == 1
    assert layers["trace.selfcheck_mismatches"]["value"] == 0


def test_sums_of_products_under_the_tracer():
    # the tracer's integrand wrapper hides a sum's terms, as it hides a
    # product's, so a traced tail and the traced density
    # differences take the tensor grid: every point goes through the
    # wrapper, and the self-check still holds
    tracer = _tracer()
    prod = default_registry().get("prod-fa-0.9")
    tail = prod.tail_evaluator(16)
    assert tail.terms is not None
    with tracer.installed(hardylab):
        est = hardylab.norms.bergman_norm_reinhardt(tail, 1.0, polydisc(2),
                                                    tol=1e-3)
        rows = hardylab.reinhardt.density_experiment(
            prod, polydisc(2), 1.0, (0.5,), norm_tol=1e-3)
    assert est.converged
    assert rows[0].converged and rows[0].met
    layers = tracer.per_layer(1)
    assert layers["norms.bergman_norm_reinhardt.points"]["value"] > 0
    assert layers["norms.hardy_norm_reinhardt.points"]["value"] > 0
    assert layers["trace.selfcheck_checked"]["value"] == 1
    assert layers["trace.selfcheck_mismatches"]["value"] == 0
