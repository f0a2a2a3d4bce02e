"""Oracle (clairvoyant) per-quantum scheduling — the upper bound.

The paper's earlier study derived "an upper-bound for the performance
improvement we can hope to achieve" (~30% over fixed ICOUNT, §1/§6) by
oracle-scheduling each quantum. We reproduce that bound directly: at each
quantum boundary, fork the full machine state, run the next quantum once
under every candidate policy, keep the policy that committed the most
instructions, and advance the real machine under it.

Forks are taken the way the batch engine takes them (``smt/batch.py``):
the machine is pickled once per boundary and each candidate's trial
unpickles its own copy — the round trip the batch engine's forks already
make, and several times cheaper than a ``copy.deepcopy`` per
candidate. It is still a full machine copy per candidate per quantum, so
the oracle is meant for the A3 bound experiment, not for sweeps.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, List

from repro.smt.pipeline import SMTProcessor

#: The policies the oracle tries at every boundary.
CANDIDATES = ("icount", "brcount", "l1misscount")


@dataclass
class OracleQuantum:
    """Outcome of one oracle-scheduled quantum."""

    index: int
    chosen: str
    committed: int


@dataclass
class OracleResult:
    """Full oracle run."""

    quanta: List[OracleQuantum] = field(default_factory=list)
    cycles: int = 0

    @property
    def committed(self) -> int:
        return sum(q.committed for q in self.quanta)

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def policy_usage(self) -> dict:
        """How often each policy won."""
        usage: dict = {}
        for q in self.quanta:
            usage[q.chosen] = usage.get(q.chosen, 0) + 1
        return usage


class OracleScheduler:
    """Clairvoyant per-quantum policy selection."""

    def run(self, processor: SMTProcessor, quanta: int) -> OracleResult:
        """Advance ``processor`` for ``quanta`` quanta, oracle-choosing the
        policy at every boundary. Mutates (and returns through) the live
        processor's stats; trial runs happen on unpickled copies."""
        result = OracleResult()
        q_cycles = processor.quantum_cycles
        for q in range(quanta):
            per_policy = {}
            blob = pickle.dumps(processor, pickle.HIGHEST_PROTOCOL)
            for name in CANDIDATES:
                trial = pickle.loads(blob)
                trial.set_policy(name)
                before = trial.stats.committed
                trial.run(q_cycles)
                per_policy[name] = trial.stats.committed - before
            chosen = max(per_policy, key=per_policy.get)
            processor.set_policy(chosen)
            before = processor.stats.committed
            processor.run(q_cycles)
            result.quanta.append(
                OracleQuantum(
                    index=q,
                    chosen=chosen,
                    committed=processor.stats.committed - before,
                )
            )
        result.cycles = quanta * q_cycles
        return result


def oracle_upper_bound(
    make_processor: Callable[[], SMTProcessor],
    quanta: int,
) -> dict:
    """Oracle IPC vs. fixed-ICOUNT IPC on identical machines/workloads.

    ``make_processor`` must build a *fresh, identically seeded* processor
    on each call so both runs see the same instruction streams.
    """
    oracle_proc = make_processor()
    oracle = OracleScheduler().run(oracle_proc, quanta)
    fixed_proc = make_processor()
    fixed_proc.set_policy("icount")
    fixed_proc.run(quanta * fixed_proc.quantum_cycles)
    fixed_ipc = fixed_proc.stats.ipc
    return {
        "oracle_ipc": oracle.ipc,
        "fixed_icount_ipc": fixed_ipc,
        "headroom": (oracle.ipc / fixed_ipc - 1.0) if fixed_ipc else 0.0,
        "policy_usage": oracle.policy_usage(),
    }
