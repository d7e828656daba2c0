"""Independent schedule checker for the benchmark.

Replays a compiled schedule against the machine description and the
circuit it claims to implement, using none of the program's own replay
code (``repro.core``, ``repro.passes.verify``), so a fault shared by
the compiler and its kernel cannot certify itself.  It reads only the
plain data fields of the op classes (``ion``, ``trap``, ``src``,
``dst``, ``gate``, ``ion_a``/``ion_b``) and of the machine
(``traps[i].capacity``, ``topology.edges``).

Checked, op by op and at the end:

* every ion is in exactly one trap chain or in transit;
* no trap chain ever holds more ions than the trap's capacity;
* every move follows a topology edge, from where the ion is;
* every gate's qubits sit in the trap the gate names;
* the executed gate stream equals the circuit's gates as a multiset,
  with each qubit's gate order kept;
* the reported shuttle count equals the moves counted here.
"""

from __future__ import annotations

from collections import Counter, defaultdict


class ScheduleRejected(ValueError):
    """The schedule broke one of the checked properties."""


def check_schedule(schedule, machine, circuit, initial_chains, num_shuttles):
    """Replay ``schedule`` and raise :class:`ScheduleRejected` on the
    first violated property.  Returns the number of moves counted."""
    capacity = [spec.capacity for spec in machine.traps]
    edges = {frozenset(edge) for edge in machine.topology.edges}
    chains: dict[int, set[int]] = {t: set() for t in range(len(capacity))}
    where: dict[int, int] = {}  # ion -> trap holding it
    transit: dict[int, int] = {}  # ion -> trap it is next to, in transit
    for trap, chain in initial_chains.items():
        if not 0 <= trap < len(capacity):
            raise ScheduleRejected(f"initial chain on unknown trap {trap}")
        for ion in chain:
            if ion in where:
                raise ScheduleRejected(f"ion {ion} placed twice")
            where[ion] = trap
            chains[trap].add(ion)
        if len(chains[trap]) > capacity[trap]:
            raise ScheduleRejected(f"trap {trap} starts over capacity")
    missing = set(range(circuit.num_qubits)) - set(where)
    if missing:
        raise ScheduleRejected(f"qubits {sorted(missing)} have no ion")

    per_qubit: dict[int, list] = defaultdict(list)
    executed: Counter = Counter()
    moves = 0
    for step, op in enumerate(schedule):
        kind = type(op).__name__
        if kind == "GateOp":
            for qubit in op.gate.qubits:
                if where.get(qubit) != op.trap:
                    raise ScheduleRejected(
                        f"op {step}: gate {op.gate} in trap {op.trap} "
                        f"but qubit {qubit} is not there"
                    )
                per_qubit[qubit].append(op.gate)
            executed[op.gate] += 1
        elif kind == "SplitOp":
            if where.get(op.ion) != op.trap:
                raise ScheduleRejected(
                    f"op {step}: split of ion {op.ion} from trap "
                    f"{op.trap} where it is not chained"
                )
            chains[op.trap].discard(op.ion)
            del where[op.ion]
            transit[op.ion] = op.trap
        elif kind == "MoveOp":
            if transit.get(op.ion) != op.src:
                raise ScheduleRejected(
                    f"op {step}: move of ion {op.ion} from {op.src} "
                    f"but it is not in transit there"
                )
            if frozenset((op.src, op.dst)) not in edges:
                raise ScheduleRejected(
                    f"op {step}: move {op.src} -> {op.dst} is not an edge"
                )
            transit[op.ion] = op.dst
            moves += 1
        elif kind == "MergeOp":
            if transit.get(op.ion) != op.trap:
                raise ScheduleRejected(
                    f"op {step}: merge of ion {op.ion} into trap "
                    f"{op.trap} but it is not in transit there"
                )
            del transit[op.ion]
            where[op.ion] = op.trap
            chains[op.trap].add(op.ion)
            if len(chains[op.trap]) > capacity[op.trap]:
                raise ScheduleRejected(
                    f"op {step}: trap {op.trap} holds "
                    f"{len(chains[op.trap])} ions, capacity "
                    f"{capacity[op.trap]}"
                )
        elif kind == "SwapOp":
            for ion in (op.ion_a, op.ion_b):
                if where.get(ion) != op.trap:
                    raise ScheduleRejected(
                        f"op {step}: swap of ion {ion} in trap {op.trap} "
                        f"where it is not chained"
                    )
        else:
            raise ScheduleRejected(f"op {step}: unknown op kind {kind}")
    if transit:
        raise ScheduleRejected(
            f"schedule ends with ions {sorted(transit)} in transit"
        )

    if executed != Counter(circuit.gates):
        raise ScheduleRejected("executed gates differ from the circuit's")
    expected: dict[int, list] = defaultdict(list)
    for gate in circuit.gates:
        for qubit in gate.qubits:
            expected[qubit].append(gate)
    for qubit, gates in expected.items():
        if per_qubit[qubit] != gates:
            raise ScheduleRejected(f"qubit {qubit}: gate order changed")
    if moves != num_shuttles:
        raise ScheduleRejected(
            f"reported {num_shuttles} shuttles, counted {moves} moves"
        )
    return moves


def check_result(result, job):
    """Check a :class:`~repro.compiler.CompilationResult` of ``job``."""
    return check_schedule(
        result.schedule,
        job.machine,
        job.circuit,
        result.initial_chains,
        result.num_shuttles,
    )
