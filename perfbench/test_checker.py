"""The benchmark's independent schedule checker accepts what the
compiler emits and rejects mutated schedules."""

import pytest

from checker import ScheduleRejected, check_result, check_schedule
from repro import Circuit, CompilerConfig, QCCDCompiler, l6_machine, linear_machine
from repro.batch import CompileJob
from repro.bench import random_circuit
from repro.compiler import greedy_initial_mapping
from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp


def compiled(config):
    machine = l6_machine()
    circuit = random_circuit(60, 400, seed=7)
    chains = greedy_initial_mapping(circuit, machine)
    result = QCCDCompiler(machine, config).compile(circuit, initial_chains=chains)
    return result, CompileJob(circuit, machine, config, initial_chains=chains)


@pytest.fixture(scope="module")
def this_work():
    return compiled(CompilerConfig.optimized())


@pytest.mark.parametrize(
    "config",
    [
        CompilerConfig.baseline(),
        CompilerConfig.optimized(),
        CompilerConfig.optimized().variant(post_passes=("default",)),
    ],
    ids=["baseline", "this-work", "this-work+passes"],
)
def test_accepts_compiled_schedules(config):
    result, job = compiled(config)
    assert check_result(result, job) == result.num_shuttles > 0


def replay(this_work, ops, num_shuttles=None):
    result, job = this_work
    if num_shuttles is None:
        num_shuttles = sum(isinstance(op, MoveOp) for op in ops)
    check_schedule(ops, job.machine, job.circuit, result.initial_chains, num_shuttles)


def test_rejects_dropped_merge(this_work):
    ops = list(this_work[0].schedule)
    first_merge = next(i for i, op in enumerate(ops) if isinstance(op, MergeOp))
    del ops[first_merge]
    with pytest.raises(ScheduleRejected, match="not (chained|in transit|there)"):
        replay(this_work, ops)


def test_rejects_gates_swapped_on_one_qubit(this_work):
    ops = list(this_work[0].schedule)
    # Two adjacent gates in one trap sharing a qubit: swapping them keeps
    # every placement legal, so only the order check can catch it.
    index = next(
        i
        for i in range(len(ops) - 1)
        if isinstance(ops[i], GateOp)
        and isinstance(ops[i + 1], GateOp)
        and ops[i].trap == ops[i + 1].trap
        and ops[i].gate != ops[i + 1].gate
        and set(ops[i].gate.qubits) & set(ops[i + 1].gate.qubits)
    )
    ops[index], ops[index + 1] = ops[index + 1], ops[index]
    with pytest.raises(ScheduleRejected, match="gate order changed"):
        replay(this_work, ops)


def test_rejects_overfilled_trap():
    machine = linear_machine(2, capacity=2, comm_capacity=0)
    circuit = Circuit(4).add("ms", 0, 2)
    ops = [SplitOp(0, 0), MoveOp(0, 0, 1), MergeOp(0, 1), GateOp(circuit[0], 1)]
    with pytest.raises(ScheduleRejected, match="capacity 2"):
        check_schedule(ops, machine, circuit, {0: [0, 1], 1: [2, 3]}, 1)


def test_rejects_move_off_the_topology():
    machine = linear_machine(3, capacity=4, comm_capacity=1)
    circuit = Circuit(2).add("ms", 0, 1)
    ops = [SplitOp(0, 0), MoveOp(0, 0, 2), MergeOp(0, 2), GateOp(circuit[0], 2)]
    with pytest.raises(ScheduleRejected, match="not an edge"):
        check_schedule(ops, machine, circuit, {0: [0], 1: [], 2: [1]}, 1)


def test_rejects_wrong_shuttle_count(this_work):
    result = this_work[0]
    with pytest.raises(ScheduleRejected, match="counted"):
        replay(this_work, list(result.schedule), result.num_shuttles + 1)


def test_rejects_dropped_gate(this_work):
    ops = list(this_work[0].schedule)
    last_gate = max(i for i, op in enumerate(ops) if isinstance(op, GateOp))
    del ops[last_gate]
    with pytest.raises(ScheduleRejected, match="differ from the circuit"):
        replay(this_work, ops)
