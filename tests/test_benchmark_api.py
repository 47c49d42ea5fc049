"""The library surface the benchmark in perfbench/ calls.

perfbench changes only in its own commits, so a program change that breaks
a name, signature or return type it relies on would show only when the
benchmark runs.  These tests run its warm-up and one operation of each CLI
kind through its own modules, loaded read-only, and check every exported
name.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

import rnp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, read from source (no bytecode is written)."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # a @dataclass looks its module up there
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads = load("workloads")
check = load("check")
tracing = load("tracing")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warm_up(workload):
    workloads.warm_up(workload)


@pytest.mark.parametrize(
    "op",
    [
        workloads.PRESET_PLANS[1],
        workloads.sweep_argv(workloads.SWEEP_P_L[0], workloads.SWEEP_F[0], workloads.SWEEP_F[-1]),
    ],
    ids=["plan", "sweep"],
)
def test_operation_passes_the_benchmark_check(tmp_path, op):
    rc, text = workloads.run_op(op, str(tmp_path / "op.csv"))
    # Raises check.Mismatch on a wrong exit code, shape or value; None means
    # the operation had no reference to compare with.
    assert check.check(op, rc, text, check.load_refs()) is not None


def test_traced_operations_equal_untraced(tmp_path):
    # The benchmark's tracer wraps rnp functions by name and reads their
    # results (chain sizes, budgets); a traced run must give the same bytes.
    ops = [
        workloads.PRESET_PLANS[0],
        workloads.PRESET_PLANS[1],
        workloads.sweep_argv(workloads.SWEEP_P_L[0], workloads.SWEEP_F[0], workloads.SWEEP_F[-1]),
    ]
    untraced = [workloads.run_op(op, str(tmp_path / "op.csv")) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, want in zip(ops, untraced):
            with tracer.op(op[0]):
                assert workloads.run_op(op, str(tmp_path / "op.csv")) == want
    finally:
        tracer.restore()
    assert [rc for rc, _ in untraced] == [0, 0, 0]
    assert [s.attrs for s in tracer.spans if s.attrs and "error" in s.attrs] == []
    names = {s.name for s in tracer.spans}
    assert {"markov.build_chain", "markov.solve_budget", "measurement.optimal_m"} <= names
    assert all(s.attrs["states"] > 0 for s in tracer.spans if s.name == "markov.build_chain")


@pytest.mark.parametrize(
    "module", ["rnp", "rnp.model", "rnp.measurement", "rnp.timing", "rnp.pumping", "rnp.markov", "rnp.oracle"]
)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_stage_functions_exported():
    assert "search_schedule" in rnp.__all__
    assert "search_schedule" in rnp.pumping.__all__
    for name in ("build_chain", "solve_budget", "failure_probability", "expected_pairs", "plan"):
        assert name in rnp.__all__
        assert name in rnp.markov.__all__


def test_search_schedule_takes_a_column():
    # Raw pairs that share the noise model and one readout error in, one trace per row out.
    column = [rnp.ErrorParams(p_local=1e-6, p_init=0.05, p_meas=0.05, fidelity=f) for f in (0.9, 0.95)]
    traces = rnp.search_schedule(column, 1.2e-5, 15)
    assert [type(t) for t in traces] == [rnp.PumpTrace, rnp.PumpTrace]
    assert traces[1].schedule == rnp.PumpSchedule(4, 5)
    chain = rnp.build_chain(traces[1], rnp.RestartMode.FULL)
    assert rnp.failure_probability(chain, rnp.solve_budget(chain, traces[1].infidelity)) <= traces[1].infidelity
