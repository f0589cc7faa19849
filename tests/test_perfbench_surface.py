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
from hardylab.witnesses import WitnessFa

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
            norms.hardy_norm_disc(WitnessFa(0.9), 1.0, 1e-6, k_max=36,
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
