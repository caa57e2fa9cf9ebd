"""Conventional load balancing within one core type.

The HMP scheduler "also performs traditional load balancing across the
same type of cores" (paper Section IV.B).  We implement the standard
runqueue-length balancer: repeatedly move one runnable task from the
busiest core to the idlest core of the group while their runnable counts
differ by two or more.  Ties are broken by core id for determinism.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import EventBus, TaskMigrated
from repro.sim.core import SimCore


def counts_balanced(counts: list[int]) -> bool:
    """True when one group's runnable counts differ by less than two.

    The balancer below only moves tasks when some pair of cores differs
    by >= 2, so a group whose counts satisfy this predicate is provably
    untouched by :func:`balance_cluster` — the HMP tick skips the pass
    on it, and the engine's busy fast-forward uses it to certify that
    whole spans need no balancing passes.
    """
    return len(counts) < 2 or max(counts) - min(counts) < 2


def least_loaded(cores: list[SimCore]) -> SimCore:
    """The enabled core with the fewest runnable tasks (load-then-id tiebreak)."""
    if not cores:
        raise ValueError("least_loaded() of empty core group")
    return min(cores, key=lambda c: (c.nr_running(), c.queued_load(), c.core_id))


def most_loaded(cores: list[SimCore]) -> SimCore:
    if not cores:
        raise ValueError("most_loaded() of empty core group")
    return max(cores, key=lambda c: (c.nr_running(), c.queued_load(), -c.core_id))


def balance_cluster(
    cores: list[SimCore], max_moves: int = 16, obs: Optional[EventBus] = None
) -> int:
    """Equalize runnable-task counts within one core group.

    Returns the number of tasks moved.  ``max_moves`` bounds the work per
    tick (the real balancer is similarly incremental).  Balance moves are
    same-cluster shuffles, not cluster migrations — they are reported on
    ``obs`` with reason ``"balance"`` but do **not** bump
    ``task.migrations``.
    """
    # Cheap pre-check: the loop below would pick src/dst maximizing and
    # minimizing (nr_running, ...) and stop immediately when the counts
    # differ by less than two — the common all-balanced tick.
    if counts_balanced([c.nr_running() for c in cores]):
        return 0
    moves = 0
    while moves < max_moves:
        src = most_loaded(cores)
        dst = least_loaded(cores)
        if src.nr_running() - dst.nr_running() < 2:
            break
        # Move the lightest runnable task: it disturbs cache affinity the
        # least and is what idle pull typically steals.
        task = min(src.runqueue, key=lambda t: (t.load.value, t.tid))
        src.dequeue(task)
        dst.enqueue(task)
        if obs is not None:
            obs.emit(TaskMigrated(
                task=task.name, tid=task.tid,
                src_core=src.core_id, dst_core=dst.core_id,
                reason="balance", load=task.load.value,
            ))
        moves += 1
    return moves
