"""repro — reproduction of *Dynamic Scheduling Issues in SMT Architectures*
(Shin, Lee, Gaudiot; IPPS 2003).

Quickstart::

    from repro import build_processor
    from repro.core.adts import ADTSController

    adts = ADTSController(heuristic="type3")
    proc = build_processor(mix="mix07", hook=adts, quantum_cycles=2048)
    stats = proc.run_quanta(16)
    print(stats.ipc, adts.summary())

Packages (each name is imported from the module that defines it):

* :mod:`repro.smt` — the SMT pipeline substrate;
* :mod:`repro.memory`, :mod:`repro.branch` — cache and predictor substrates;
* :mod:`repro.workloads` — SPEC2000-like synthetic workloads and the 13 mixes;
* :mod:`repro.policies` — the ten fetch policies of Table 1;
* :mod:`repro.core` — ADTS: detector thread, heuristics Type 1–4, oracle;
* :mod:`repro.fastmodel` — vectorized quantum-level model for wide sweeps;
* :mod:`repro.harness` — experiment runner regenerating every figure/table.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.smt.config import SMTConfig
from repro.smt.pipeline import SchedulerHook, SMTProcessor
from repro.workloads.mixes import get_mix
from repro.workloads.tracegen import make_generators

__version__ = "1.0.0"


def build_processor(
    mix: Union[str, Sequence[str]] = "mix01",
    num_threads: int = 8,
    seed: int = 0,
    config: Optional[SMTConfig] = None,
    policy: str = "icount",
    hook: Optional[SchedulerHook] = None,
    quantum_cycles: int = 8192,
) -> SMTProcessor:
    """Build a ready-to-run SMT processor for a named mix (or app list).

    Args:
        mix: a mix name (``mix01``..``mix13``) or an explicit sequence of
            application-profile names, one per thread.
        num_threads: contexts to populate; named mixes are down-sampled by
            random exclusion, the paper's §5 procedure.
        seed: root seed for all stochastic components.
        config: machine configuration (default: the paper-compatible 8-wide
            ICOUNT.2.8 machine).
        policy: initial fetch policy.
        hook: scheduler hook (e.g. an :class:`ADTSController`).
        quantum_cycles: scheduling-quantum length (paper: 8192).
    """
    apps, cfg = resolve_machine(mix, num_threads, seed, config)
    traces = make_generators(apps, seed=seed)
    return SMTProcessor(
        cfg, traces, policy=policy, hook=hook, quantum_cycles=quantum_cycles, seed=seed
    )


def resolve_machine(
    mix: Union[str, Sequence[str]],
    num_threads: int,
    seed: int,
    config: Optional[SMTConfig],
) -> Tuple[Tuple[str, ...], SMTConfig]:
    """The apps a run simulates and the machine it runs them on, as
    :func:`build_processor` and the batch engine both resolve them."""
    if isinstance(mix, str):
        apps = get_mix(mix).subset(num_threads, seed=seed)
    else:
        apps = tuple(mix)
    cfg = config or SMTConfig(num_threads=max(len(apps), 1))
    if cfg.num_threads < len(apps):
        raise ValueError("config.num_threads smaller than requested thread count")
    return apps, cfg
