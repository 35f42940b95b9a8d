"""Matching-based optimization for tasks with multi-data inputs (§IV-C).

Implements the paper's Algorithm 1, a stable-marriage-flavoured greedy
matching with reassignment:

1. matching value ``m_i^j = |d(p_i) ∩ d(t_j)|`` — bytes of task ``t_j``'s
   inputs co-located with process ``p_i`` (these are exactly the locality
   graph's edge weights);
2. while some process ``p_k`` holds fewer than its quota of tasks, it
   proposes to its best not-yet-considered task ``t_x``;
3. an unassigned ``t_x`` accepts; an assigned ``t_x`` is *stolen* iff
   ``p_k``'s matching value strictly exceeds the current owner's (the
   paper's cancellation / re-assignment event, Figure 6(b));
4. either way ``p_k`` marks ``t_x`` considered and never proposes to it
   again.

Each process considers each task at most once, so the loop runs at most
``m·n`` iterations — the paper's O(m·n) bound.  Like the stable marriage
it mirrors, the result is proposer-optimal: "our algorithm achieves the
optimal matching value from the perspective of each process".

The loop is a flat-array kernel.  A process's proposal sequence is its
positive-weight tasks by descending matching value (ties by ascending
id), then every other task in ascending id; it is never materialised.
The heads of all processes sit in one flat list, walked by a per-process
cursor, and the zero-value tail is counted upward past the process's
head ids (the same ids, ascending, in a second flat list).  Setup is
O(E log deg + m).  ``owner_w[task]`` keeps the matching value of the
holder's winning proposal, which is the holder's edge weight, so the
steal test and ``local_bytes`` need no weight lookup.  The seeded draw
of the next proposer is replayed from buffered raw words of the
function's private generator (:func:`_bounded_draws`): the same values
``Generator.integers`` returns, without a numpy call per proposal.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .assignment import Assignment, equal_quotas
from .bipartite import LocalityGraph
from .perf import SchedPerf, wall_clock

logger = logging.getLogger(__name__)

_MASK32 = 0xFFFFFFFF
#: Raw 64-bit words pulled from the generator per refill (two draws each,
#: short of a rejection).
_RAW_BLOCK = 1024


@dataclass(frozen=True, slots=True)
class MultiDataResult:
    """Outcome of Algorithm 1."""

    assignment: Assignment
    local_bytes: int
    reassignments: int
    proposals: int


def _uint32_words(bit_generator: np.random.BitGenerator, block: int) -> Iterator[int]:
    """A 64-bit bit generator's 32-bit outputs: each word's low, then high half."""
    while True:
        for word in bit_generator.random_raw(block).tolist():
            yield word & _MASK32
            yield word >> 32


def _bounded_draws(
    rng: np.random.Generator, block: int = _RAW_BLOCK
) -> Callable[[int], int]:
    """Return ``draw(k)``, equal to ``int(rng.integers(k))`` for ``1 <= k <= 2**32``.

    numpy draws an integer below ``k <= 2**32`` by Lemire's multiply-shift
    rejection over 32-bit outputs: ``k == 1`` consumes nothing; otherwise
    ``m = u32 * k`` is redrawn while its low 32 bits fall below
    ``(2**32 - k) % k``, and the draw is ``m >> 32``.  Replaying that from
    ``block`` raw words at a time avoids a numpy call per draw.  The
    prefetch advances ``rng``'s stream past the words drawn so far, so
    only a generator that nothing else draws from may be passed.
    """
    next_word = _uint32_words(rng.bit_generator, block).__next__

    def draw(k: int) -> int:
        if k == 1:
            return 0
        m = next_word() * k
        if m & _MASK32 < k:
            threshold = (_MASK32 - (k - 1)) % k
            while m & _MASK32 < threshold:
                m = next_word() * k
        return m >> 32

    return draw


def optimize_multi_data(
    graph: LocalityGraph,
    *,
    quotas: list[int] | None = None,
    seed: int = 0,
    perf: SchedPerf | None = None,
) -> MultiDataResult:
    """Run Algorithm 1 over a locality graph.

    ``quotas`` defaults to the paper's equal split (n/m tasks each).  The
    quota sum must be at least the number of tasks; the algorithm then always
    terminates with every task assigned (a deficient process that reaches an
    unassigned task always takes it).

    The paper leaves open which deficient process proposes next ("∃ p_k");
    here it is a draw seeded by ``seed``, uniform over the deficient
    processes.  The golden fixtures pin the result.
    """
    m, n = graph.num_processes, graph.num_tasks
    if quotas is None:
        quotas = equal_quotas(n, m)
    if len(quotas) != m:
        raise ValueError("quota list length != process count")
    if any(q < 0 for q in quotas):
        raise ValueError("quotas must be non-negative")
    if sum(quotas) < n:
        raise ValueError(f"total quota {sum(quotas)} < {n} tasks")

    t0 = wall_clock() if perf is not None else 0.0
    draw = _bounded_draws(np.random.default_rng(seed))

    # Per-process proposal order: tasks by descending matching value.  Tasks
    # with no co-located data (no edge) have value 0 and come last, ordered
    # by id — the process will still take them when nothing better remains,
    # which is how tasks outside the locality graph get owners.  Process
    # ``rank``'s head is ``head_task[row_start[rank]:row_end[rank]]``; the
    # same slice of ``head_skip`` holds those ids ascending.
    csr = graph.csr
    ptr, row_task, row_weight = csr.proc_ptr, csr.proc_task, csr.proc_weight
    head_task: list[int] = []
    head_w: list[int] = []
    head_skip: list[int] = []
    row_start = [0] * m
    row_end = [0] * m
    for rank in range(m):
        pairs = sorted(
            (-row_weight[j], row_task[j])
            for j in range(ptr[rank], ptr[rank + 1])
            if row_weight[j] > 0
        )
        row_start[rank] = len(head_task)
        head_task.extend([t for _, t in pairs])
        head_w.extend([-w for w, _ in pairs])
        head_skip.extend(sorted([t for _, t in pairs]))
        row_end[rank] = len(head_task)
    next_head = row_start[:]  # cursor into head_task / head_w
    next_skip = row_start[:]  # cursor into head_skip
    next_tail = [0] * m  # lowest tail id not yet proposed
    remaining = [n] * m  # tasks not yet proposed to

    owner = [-1] * n  # task -> rank
    owner_w = [0] * n  # task -> matching value of its holder
    need = quotas[:]  # rank -> tasks short of its quota
    reassignments = 0
    # Deficient processes; the seeded draw picks which proposes next.
    active = [rank for rank in range(m) if quotas[rank] > 0]
    while active:
        rank = active.pop(draw(len(active)))
        if need[rank] <= 0 or not remaining[rank]:
            continue  # full, or considered everything (stays deficient)
        remaining[rank] -= 1
        at = next_head[rank]
        if at < row_end[rank]:
            # highest remaining matching value
            next_head[rank] = at + 1
            task = head_task[at]
            w = head_w[at]
        else:
            s, end, task = next_skip[rank], row_end[rank], next_tail[rank]
            while s < end and head_skip[s] == task:
                s += 1
                task += 1
            next_skip[rank] = s
            next_tail[rank] = task + 1
            w = 0
        holder = owner[task]
        if holder < 0:
            owner[task] = rank
            owner_w[task] = w
            need[rank] -= 1
        elif owner_w[task] < w:
            owner[task] = rank
            owner_w[task] = w
            need[rank] -= 1
            need[holder] += 1
            reassignments += 1
            if need[holder] > 0:
                active.append(holder)
        if need[rank] > 0 and remaining[rank]:
            active.append(rank)
    proposals = m * n - sum(remaining)  # each proposal used up one candidate

    if -1 in owner:
        # Unreachable when quota sum >= n (see module docstring); guard for
        # defensive clarity.
        missing = [t for t in range(n) if owner[t] < 0]
        raise RuntimeError(f"algorithm terminated with unassigned tasks {missing[:5]}")

    assignment = Assignment.empty(m)
    for task in range(n):
        assignment.assign(owner[task], task)
    assignment.validate(n, quotas=quotas)

    local = sum(owner_w)
    if perf is not None:
        perf.solves += 1
        perf.solve_wall += wall_clock() - t0
    logger.info(
        "multi-data matching: %d tasks over %d processes, %d proposals, "
        "%d reassignments, local %d/%d bytes",
        n, m, proposals, reassignments, local, graph.total_bytes(),
    )
    return MultiDataResult(
        assignment=assignment,
        local_bytes=local,
        reassignments=reassignments,
        proposals=proposals,
    )
