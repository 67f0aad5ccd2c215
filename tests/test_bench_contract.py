"""The benchmark's tracer contract, checked in the test suite.

perfbench traces rabe functions by patching every module binding of them
and checks each traced op against the scheme's cost model.  A renamed
function, a binding the tracer cannot reach, or an exponentiation moved out
of its span would first surface in a traced benchmark run; this test
catches it here.  It writes nothing into the checkout.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_traced_attack_ops_meet_the_cost_model(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    import spans
    import workloads

    w = workloads.make("attack-transparent", 1, str(tmp_path / "work"))
    w.setup()
    failures = []
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises if a traced binding escaped
        run.run_pass(w, failures, tracer=tracer, n_ops=4)
    finally:
        tracer.uninstall()
        w.close()
    checked, violations = spans.cost_model_check(tracer)
    assert failures == []
    assert checked > 0
    assert violations == []
