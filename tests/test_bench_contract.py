"""The benchmark's tracer contract, checked in the test suite.

perfbench traces rabe functions by patching every module binding of them
and checks each traced op against the scheme's cost model.  A renamed
function, a binding the tracer cannot reach, or an exponentiation moved out
of its span would first surface in a traced benchmark run; these tests
catch it here.  It writes nothing into the checkout.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _traced_run(tmp_path, monkeypatch, workload, n_ops):
    """(failed ops, ops checked against the cost model, violations) of one
    traced pass of n_ops ops."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    import spans
    import workloads

    w = workloads.make(workload, 1, str(tmp_path / "work"))
    w.setup()
    failures = []
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises if a traced binding escaped
        run.run_pass(w, failures, tracer=tracer, n_ops=n_ops)
    finally:
        tracer.uninstall()
        w.close()
    return (failures, *spans.cost_model_check(tracer))


def test_traced_attack_ops_meet_the_cost_model(tmp_path, monkeypatch):
    failures, checked, violations = _traced_run(tmp_path, monkeypatch, "attack-transparent", 4)
    assert failures == []
    assert checked > 0
    assert violations == []


def test_traced_real_attack_ops_meet_the_cost_model(tmp_path, monkeypatch):
    """One attack-real block (a game per target-set size 1-4 on BLS12-381),
    the one traced block here that runs keygen on the real backend: each
    keygen makes exactly the g2_mul calls its cost model expects."""
    failures, checked, violations = _traced_run(tmp_path, monkeypatch, "attack-real", 4)
    assert failures == []
    assert checked > 0
    assert violations == []


def test_traced_cli_ops_meet_the_cost_model(tmp_path, monkeypatch):
    """One cli-real block (20 commands on the real backend): the decode and
    write paths the CLI runs stay inside their spans."""
    failures, checked, violations = _traced_run(tmp_path, monkeypatch, "cli-real", 20)
    assert failures == []
    assert checked > 0
    assert violations == []
