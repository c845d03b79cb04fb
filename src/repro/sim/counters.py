"""Performance-event counter model.

Simulates the 46 performance events the paper samples with Simpleperf
on the LG V10: 9 kernel software events (counted exactly by the OS) and
37 PMU hardware events (counted by a limited set of registers; see
:mod:`repro.sim.pmu` for the multiplexing error that a register
shortage introduces).

The model's causal structure follows the paper's Section 3.3.1:

* **Scheduling/memory events** (context-switches, task-clock,
  cpu-clock, page-faults, minor-faults, cpu-migrations) are dictated by
  OS decisions — how long a thread ran, how often it blocked, how many
  fresh pages it touched.  They depend on the *role* of the thread
  during an operation, not on the operation's source code, which is why
  they discriminate soft hang bugs from UI work.
* **Microarchitectural events** (instructions, caches, branches, TLBs)
  scale with CPU time but carry a large per-API multiplier
  (:meth:`repro.apps.api.ApiSpec.uarch_profile`): each API "may have
  more or less instructions compared to UI-APIs", so these events
  correlate poorly with hang bugs.

Columnar core
-------------
The PMU block is a pure multiplicative DAG: every hardware count is a
base expression (of CPU time, the DVFS factor, and the per-API uarch
multipliers) times one lognormal noise factor.  :data:`_PMU_NODES`
spells that DAG out in the exact historical draw order, which lets the
model draw the whole noise vector with **one** pooled
``rng.lognormal(0, sigmas)`` call instead of 37 scalar draws.  numpy
``Generator`` fills array draws element-by-element from the same bit
stream a scalar loop would consume, so the pooled full-mode draw is
**bit-identical** to the historical scalar sequence — rendered outputs
do not change.  Lazy models restrict the pooled vector to the
dependency closure of the PMU events actually requested (partial-PMU
mode), and :meth:`CounterModel.segment_batch` extends the pooling
across all segments of an action for the engine's fleet-scale fast
path.  A *monitored* projection keeps the full-mode draws but stores
only the events its consumer reads; a kernel-only one makes every draw
after its migration draw with one standard-normal vector.  See
``docs/perf.md`` for the full determinism contract.
"""

import math
import sys

import numpy as np

from repro.base.kinds import ApiKind
from repro.sim import memory, scheduler

#: Kernel software events (exact counting, no PMU registers needed).
KERNEL_EVENTS = (
    "context-switches",
    "cpu-migrations",
    "page-faults",
    "minor-faults",
    "major-faults",
    "task-clock",
    "cpu-clock",
    "alignment-faults",
    "emulation-faults",
)

#: PMU hardware events (subject to register multiplexing).
PMU_EVENTS = (
    "cpu-cycles",
    "instructions",
    "cache-references",
    "cache-misses",
    "branch-instructions",
    "branch-misses",
    "stalled-cycles-frontend",
    "stalled-cycles-backend",
    "L1-dcache-loads",
    "L1-dcache-load-misses",
    "L1-dcache-stores",
    "L1-dcache-store-misses",
    "L1-icache-loads",
    "L1-icache-load-misses",
    "LLC-loads",
    "LLC-load-misses",
    "LLC-stores",
    "LLC-store-misses",
    "dTLB-loads",
    "dTLB-load-misses",
    "iTLB-loads",
    "iTLB-load-misses",
    "branch-loads",
    "branch-load-misses",
    "raw-l1-dcache",
    "raw-l1-dcache-refill",
    "raw-l1-icache",
    "raw-l1-icache-refill",
    "raw-l1-dtlb-refill",
    "raw-l1-itlb-refill",
    "raw-branch-pred",
    "raw-branch-mispred",
    "raw-mem-access",
    "raw-bus-access",
    "raw-bus-cycles",
    "raw-cpu-cycles",
    "raw-instruction-retired",
)

#: All 46 events, kernel first (mirrors the paper's "46 performance
#: events are available in total").
ALL_EVENTS = KERNEL_EVENTS + PMU_EVENTS

#: The three kernel events S-Checker ends up selecting.
FILTER_EVENTS = ("context-switches", "task-clock", "page-faults")

#: IPC scaling per operation kind (I/O code stalls; loops stream).
_KIND_IPC = {
    ApiKind.BLOCKING: 0.7,
    ApiKind.COMPUTE: 1.3,
    ApiKind.UI: 1.0,
    ApiKind.LIGHT: 1.0,
    # Wait-dominated kinds run little code of their own; what does run
    # (marshalling, wake-up paths) stalls like I/O code.
    ApiKind.ASYNC_WAIT: 0.6,
    ApiKind.IPC: 0.55,
}

#: Task-clock counter units (nanoseconds) per millisecond of CPU time:
#: the model converts a segment's CPU milliseconds *into* the
#: nanosecond-denominated task-clock value perf reports.
NS_PER_MS = 1e6

#: Lognormal shape of the per-action DVFS frequency factor.  The
#: governor holds one frequency across a short action, so the
#: :class:`~repro.sim.engine.ExecutionEngine` draws this once per
#: action and threads it into every segment; a direct
#: :meth:`CounterModel.segment_counts` caller that passes ``dvfs=None``
#: gets a per-segment fallback draw with the **same** sigma, so both
#: entry points sample the same frequency distribution.
DVFS_SIGMA = 0.7

#: Lognormal shapes of the task-clock jitter and of the cpu-clock
#: jitter on top of it.
TASK_CLOCK_SIGMA = 0.02
CPU_CLOCK_SIGMA = 0.01

#: Standard normals a kernel-only projection draws after its migration
#: draw, with the engine's DVFS factor: task-clock and cpu-clock
#: jitter, then the 37 PMU factors (one more, the DVFS factor, sits
#: between them when the caller passes ``dvfs=None``).
_PROJECTION_NORMALS = 2 + len(PMU_EVENTS)

#: Kernel events whose values require the scheduler switch model.
_SWITCH_EVENTS = frozenset({"context-switches", "cpu-migrations"})

#: Kernel events whose values require the page-fault model.
_FAULT_EVENTS = frozenset({"page-faults", "minor-faults", "major-faults"})

#: Kernel events derived from the segment's CPU time.
_CLOCK_EVENTS = frozenset({"task-clock", "cpu-clock"})


# --------------------------------------------------------------------------
# The PMU DAG.
#
# One entry per noise draw, in the exact order the historical scalar
# implementation consumed the rng: (event, sigma, deps, base).  ``base``
# computes the pre-noise value from already-evaluated node values ``v``
# and the environment ``e`` (works element-wise on scalars and numpy
# arrays alike); the node's count is ``base * lognormal(0, sigma)`` when
# the base is positive, else exactly 0.0 with the factor discarded.
# ``deps`` names the upstream nodes so a lazy model can restrict
# evaluation (and the pooled draw) to the dependency closure of the
# events it was asked for.
#
# Environment keys: ``cpu`` = cpu_ms * cycles_per_ms * dvfs, ``ipc`` =
# baseline_ipc * kind multiplier * uarch ipc, and the raw uarch
# multipliers ``branch`` / ``mem`` / ``cache`` / ``tlb``.
# --------------------------------------------------------------------------
_PMU_NODES = (
    ("cpu-cycles", 0.03, (),
     lambda v, e: e["cpu"]),
    ("instructions", 0.05, ("cpu-cycles",),
     lambda v, e: v["cpu-cycles"] * e["ipc"]),
    ("raw-cpu-cycles", 0.01, ("cpu-cycles",),
     lambda v, e: v["cpu-cycles"]),
    ("raw-instruction-retired", 0.01, ("instructions",),
     lambda v, e: v["instructions"]),
    ("branch-instructions", 0.05, ("instructions",),
     lambda v, e: v["instructions"] * 0.18 * e["branch"]),
    ("branch-misses", 0.10, ("branch-instructions",),
     lambda v, e: v["branch-instructions"] * 0.045),
    ("branch-loads", 0.02, ("branch-instructions",),
     lambda v, e: v["branch-instructions"]),
    ("branch-load-misses", 0.05, ("branch-misses",),
     lambda v, e: v["branch-misses"]),
    ("raw-branch-pred", 0.02, ("branch-instructions",),
     lambda v, e: v["branch-instructions"]),
    ("raw-branch-mispred", 0.05, ("branch-misses",),
     lambda v, e: v["branch-misses"]),
    ("L1-dcache-loads", 0.05, ("instructions",),
     lambda v, e: v["instructions"] * 0.28 * e["mem"]),
    ("L1-dcache-stores", 0.05, ("instructions",),
     lambda v, e: v["instructions"] * 0.12 * e["mem"]),
    ("L1-dcache-load-misses", 0.10, ("L1-dcache-loads",),
     lambda v, e: v["L1-dcache-loads"] * 0.030 * e["cache"]),
    ("L1-dcache-store-misses", 0.10, ("L1-dcache-stores",),
     lambda v, e: v["L1-dcache-stores"] * 0.020 * e["cache"]),
    ("raw-l1-dcache", 0.02, ("L1-dcache-loads", "L1-dcache-stores"),
     lambda v, e: v["L1-dcache-loads"] + v["L1-dcache-stores"]),
    ("raw-l1-dcache-refill", 0.05,
     ("L1-dcache-load-misses", "L1-dcache-store-misses"),
     lambda v, e: v["L1-dcache-load-misses"] + v["L1-dcache-store-misses"]),
    ("L1-icache-loads", 0.03, ("instructions",),
     lambda v, e: v["instructions"] * 0.95),
    ("L1-icache-load-misses", 0.12, ("L1-icache-loads",),
     lambda v, e: v["L1-icache-loads"] * 0.008 * e["cache"]),
    ("raw-l1-icache", 0.02, ("L1-icache-loads",),
     lambda v, e: v["L1-icache-loads"]),
    ("raw-l1-icache-refill", 0.05, ("L1-icache-load-misses",),
     lambda v, e: v["L1-icache-load-misses"]),
    ("LLC-loads", 0.08, ("L1-dcache-load-misses",),
     lambda v, e: v["L1-dcache-load-misses"] * 0.85),
    ("LLC-load-misses", 0.12, ("LLC-loads",),
     lambda v, e: v["LLC-loads"] * 0.30 * e["cache"]),
    ("LLC-stores", 0.08, ("L1-dcache-store-misses",),
     lambda v, e: v["L1-dcache-store-misses"] * 0.85),
    ("LLC-store-misses", 0.12, ("LLC-stores",),
     lambda v, e: v["LLC-stores"] * 0.25 * e["cache"]),
    ("cache-references", 0.04, ("LLC-loads", "LLC-stores"),
     lambda v, e: v["LLC-loads"] + v["LLC-stores"]),
    ("cache-misses", 0.06, ("LLC-load-misses", "LLC-store-misses"),
     lambda v, e: v["LLC-load-misses"] + v["LLC-store-misses"]),
    ("dTLB-load-misses", 0.12, ("L1-dcache-loads",),
     lambda v, e: v["L1-dcache-loads"] * 0.004 * e["tlb"]),
    ("iTLB-load-misses", 0.15, ("L1-icache-loads",),
     lambda v, e: v["L1-icache-loads"] * 0.001 * e["tlb"]),
    ("dTLB-loads", 0.02, ("L1-dcache-loads",),
     lambda v, e: v["L1-dcache-loads"]),
    ("iTLB-loads", 0.02, ("L1-icache-loads",),
     lambda v, e: v["L1-icache-loads"]),
    ("raw-l1-dtlb-refill", 0.05, ("dTLB-load-misses",),
     lambda v, e: v["dTLB-load-misses"]),
    ("raw-l1-itlb-refill", 0.05, ("iTLB-load-misses",),
     lambda v, e: v["iTLB-load-misses"]),
    ("stalled-cycles-frontend", 0.10, ("cpu-cycles",),
     lambda v, e: v["cpu-cycles"] * 0.15),
    ("stalled-cycles-backend", 0.12, ("cpu-cycles",),
     lambda v, e: v["cpu-cycles"] * 0.25 * e["cache"]),
    ("raw-mem-access", 0.03, ("L1-dcache-loads", "L1-dcache-stores"),
     lambda v, e: v["L1-dcache-loads"] + v["L1-dcache-stores"]),
    ("raw-bus-access", 0.08, ("cache-misses",),
     lambda v, e: v["cache-misses"] * 1.1),
    ("raw-bus-cycles", 0.05, ("cpu-cycles",),
     lambda v, e: v["cpu-cycles"] * 0.4),
)

_PMU_DEPS = {name: deps for name, _, deps, _ in _PMU_NODES}

#: Full-mode sigma vector, in draw order (one pooled draw per segment).
_PMU_SIGMAS_FULL = np.array([sigma for _, sigma, _, _ in _PMU_NODES])


def _positive(uarch):
    """True when every uarch multiplier is positive (the full-mode PMU
    block then draws all 37 factors for a positive cycle base)."""
    return (
        uarch["ipc"] > 0.0 and uarch["branch"] > 0.0
        and uarch["mem"] > 0.0 and uarch["cache"] > 0.0
        and uarch["tlb"] > 0.0
    )


def _pmu_closure(events):
    """Dependency closure of *events* over the PMU DAG."""
    needed = set()
    stack = [event for event in events if event in _PMU_DEPS]
    while stack:
        name = stack.pop()
        if name in needed:
            continue
        needed.add(name)
        stack.extend(_PMU_DEPS[name])
    return needed


class CounterModel:
    """Generates per-segment counts for the 46 events — or, in lazy
    mode, for just a requested subset.

    *events* restricts the model to the named events: the 9 kernel
    software events are cheap closed forms (a handful of scheduler and
    memory draws) and are always computed, while PMU hardware events
    are evaluated lazily — only the dependency closure of the requested
    PMU events is computed, with one pooled lognormal draw sized to
    that closure (partial-PMU mode), and kernel-only subsets perform no
    PMU draws at all.  This is the fleet-scale fast path: S-Checker's
    filter only ever reads :data:`FILTER_EVENTS` (three kernel events),
    so a filter-only model does an order-of-magnitude fewer RNG draws
    per segment.

    Lazy mode advances the per-action RNG stream differently from the
    full model (the skipped PMU draws never happen), so it is a
    *distinct* deterministic universe: reproducible for a given (seed,
    event set), but not sample-identical to ``events=None`` runs.

    *columnar* selects the pooled-draw implementation (the default).
    ``columnar=False`` retains the historical scalar-draw reference
    implementation; in full mode both produce bit-identical counts
    (the pooled vector consumes the rng exactly as the scalar sequence
    did), and the reference is kept as the baseline for the
    ``BENCH_*.json`` speedup trajectory and the bit-identity tests.

    *monitored* projects the full model onto the events its consumer
    reads (a deployed Hang Doctor reads only its filter events).  A
    projection is not a universe: every full-mode draw still happens,
    in full-mode order, so each kept value is bit-identical to the
    full model's; only the unread values are no longer built.  In a
    kernel-only projection every draw after the migration draw is a
    zero-mean lognormal, so it makes them all with one standard-normal
    call and computes only the clocks it keeps.  *monitored* applies
    to the full universe only, so
    combining it with *events* or ``columnar=False`` raises
    :class:`ValueError`.
    """

    def __init__(self, device, events=None, columnar=True, monitored=None):
        self.device = device
        self.columnar = bool(columnar)
        self.monitored = None
        self._kernel_projection = False
        if monitored is not None:
            monitored = tuple(monitored)
            unknown = [e for e in monitored if e not in ALL_EVENTS]
            if unknown:
                raise ValueError(f"unknown performance events: {unknown}")
            if events is not None:
                raise ValueError(
                    "monitored projects the full universe; it cannot be "
                    "combined with an events= universe"
                )
            if not self.columnar:
                raise ValueError(
                    "monitored projects the columnar full universe; the "
                    "columnar=False reference keeps every event"
                )
            self.monitored = monitored
            self._kernel_projection = set(monitored).isdisjoint(PMU_EVENTS)
            self._keeps_clock = not _CLOCK_EVENTS.isdisjoint(monitored)
            self._keeps_cpu_clock = "cpu-clock" in monitored
        if events is None:
            self.events = None
            self._want = None
            self._wants_pmu = True
        else:
            events = tuple(events)
            unknown = [e for e in events if e not in ALL_EVENTS]
            if unknown:
                raise ValueError(f"unknown performance events: {unknown}")
            self.events = events
            self._want = frozenset(events)
            self._wants_pmu = not self._want.isdisjoint(PMU_EVENTS)
        want = self._want
        # Event-subset masks, resolved once instead of per segment.
        self._need_switches = want is None or not want.isdisjoint(_SWITCH_EVENTS)
        self._need_faults = want is None or not want.isdisjoint(_FAULT_EVENTS)
        # The minor/major split costs two extra draw blocks; a model
        # asked only for "page-faults" totals can skip it (batch path).
        self._need_fault_split = want is None or not want.isdisjoint(
            ("minor-faults", "major-faults")
        )
        self._need_migrations = want is None or "cpu-migrations" in want
        self._need_clock = want is None or not want.isdisjoint(_CLOCK_EVENTS)
        self._need_cpu_clock = want is None or "cpu-clock" in want
        # Device constants the kernel block reads on every segment, and
        # the static per-device/kind products (exactly the historical
        # ``baseline_ipc * _KIND_IPC[kind]`` grouping, precomputed).
        self._quantum_ms = device.sched_quantum_ms
        self._vsync_ms = device.vsync_period_ms
        self._io_chunk_ms = device.io_wait_chunk_ms
        self._cores = device.cores
        self._cycles_per_ms = device.cycles_per_ms
        self._ipc_by_kind = {
            kind: device.baseline_ipc * mult for kind, mult in _KIND_IPC.items()
        }
        # Partial-PMU plan: the DAG nodes to evaluate (dependency
        # closure of the requested PMU events, in canonical draw order)
        # and the matching pooled sigma vector.
        if not self._wants_pmu:
            self._pmu_plan = ()
            self._pmu_sigmas = np.empty(0)
        elif want is None:
            self._pmu_plan = tuple(
                (name, base) for name, _, _, base in _PMU_NODES
            )
            self._pmu_sigmas = _PMU_SIGMAS_FULL
        else:
            needed = _pmu_closure(want)
            self._pmu_plan = tuple(
                (name, base) for name, _, _, base in _PMU_NODES
                if name in needed
            )
            self._pmu_sigmas = np.array(
                [sigma for name, sigma, _, _ in _PMU_NODES if name in needed]
            )

    # -- single-segment API ------------------------------------------------

    def segment_counts(self, *, kind, thread, wall_ms, cpu_ms, pages, uarch, rng,
                       wait_chunk_override=None, dvfs=None):
        """Sample event counts for one execution segment.

        Parameters
        ----------
        kind: :class:`~repro.base.kinds.ApiKind` of the driving operation.
        thread: timeline thread name the segment runs on.
        wall_ms / cpu_ms: wall duration and CPU time of the segment.
        pages: fresh memory pages the segment touches.
        uarch: per-API multipliers from :meth:`ApiSpec.uarch_profile`.
        rng: numpy Generator (one per action execution).

        Returns a dict over :data:`ALL_EVENTS`, or over the configured
        subset when the model was built with an *events* restriction
        or a *monitored* projection.

        When ``dvfs`` is None a per-segment frequency factor is drawn
        with :data:`DVFS_SIGMA` — the same sigma the engine uses for
        its per-action draw, so direct callers sample the same
        distribution the engine threads through (see :data:`DVFS_SIGMA`
        for the contract).
        """
        if not self.columnar:
            return self._segment_counts_reference(
                kind=kind, thread=thread, wall_ms=wall_ms, cpu_ms=cpu_ms,
                pages=pages, uarch=uarch, rng=rng,
                wait_chunk_override=wait_chunk_override, dvfs=dvfs,
            )
        # max(0.0, min(cpu_ms, wall_ms)), without two builtin calls.
        cpu_ms = wall_ms if wall_ms < cpu_ms else cpu_ms
        cpu_ms = cpu_ms if cpu_ms > 0.0 else 0.0
        counts = {}

        # --- kernel software events (OS-scheduling driven) ---
        # The scalar draw sequence is exactly the historical one
        # (switches, faults, migrations, clocks); a lazy model draws
        # only for the events it was asked for.
        if self._need_switches:
            involuntary, voluntary = scheduler.switch_rates(
                kind, thread, wall_ms, cpu_ms, self._quantum_ms,
                self._vsync_ms, self._io_chunk_ms, wait_chunk_override,
            )
            switches = rng.poisson(involuntary) + rng.poisson(voluntary)
            counts["context-switches"] = float(switches)
        if self._need_fault_split:
            faults = rng.poisson(pages) if pages > 0 else 0
            major = memory.major_faults(kind, faults, rng) if faults else 0
            counts["page-faults"] = float(faults)
            counts["minor-faults"] = float(faults - major)
            counts["major-faults"] = float(major)
        elif self._need_faults:
            # Totals only: the minor/major split draws exist solely to
            # apportion the total the poisson already fixed, so a lazy
            # model skips them (the segment_batch rule).
            counts["page-faults"] = (
                float(rng.poisson(pages)) if pages > 0 else 0.0
            )
        if self._need_switches and self._need_migrations:
            counts["cpu-migrations"] = float(
                scheduler.migrations(switches, self._cores, rng)
            )

        if self._kernel_projection and cpu_ms > 0.0 and (
            cpu_ms * self._cycles_per_ms * dvfs > 0.0 if dvfs is not None
            # A drawn DVFS factor exceeds exp(-0.7 * 13), the ziggurat's
            # largest normal, so only a subnormal cycle base could
            # underflow to zero under it.
            else cpu_ms * self._cycles_per_ms >= sys.float_info.min
        ) and _positive(uarch):
            # Kernel-only projection of a segment whose PMU block is all
            # positive: every draw left is a zero-mean lognormal (the two
            # clock jitters, the DVFS fallback, the 37 PMU factors), and
            # numpy's lognormal(0, sigma) is exp(0 + sigma * z) over the
            # same ziggurat normal.  One standard-normal vector therefore
            # advances the stream exactly as the full model's scalar and
            # pooled draws do; only the kept clocks are computed from it.
            normals = rng.standard_normal(
                _PROJECTION_NORMALS if dvfs is not None
                else _PROJECTION_NORMALS + 1
            )
            if self._keeps_clock:
                task_clock = cpu_ms * NS_PER_MS * math.exp(
                    TASK_CLOCK_SIGMA * normals.item(0)
                )
                counts["task-clock"] = task_clock
                if self._keeps_cpu_clock:
                    counts["cpu-clock"] = task_clock * math.exp(
                        CPU_CLOCK_SIGMA * normals.item(1)
                    )
            counts["alignment-faults"] = 0.0
            counts["emulation-faults"] = 0.0
            return {event: counts[event] for event in self.monitored}

        if self._need_clock:
            task_clock = cpu_ms * NS_PER_MS
            if task_clock > 0:
                task_clock = float(task_clock * rng.lognormal(
                    mean=0.0, sigma=TASK_CLOCK_SIGMA
                ))
            counts["task-clock"] = task_clock
            if self._need_cpu_clock:
                cpu_clock = task_clock
                if cpu_clock > 0:
                    cpu_clock = float(cpu_clock * rng.lognormal(
                        mean=0.0, sigma=CPU_CLOCK_SIGMA
                    ))
                counts["cpu-clock"] = cpu_clock
        counts["alignment-faults"] = 0.0
        counts["emulation-faults"] = 0.0

        if not self._wants_pmu:
            return {event: counts[event] for event in self.events}

        # --- PMU events (code-specific via per-API uarch profile) ---
        # DVFS: the governor varies clock frequency, so cycle-derived
        # counts decorrelate from task-clock (wall CPU time) — one
        # reason the paper's top events are all kernel events.  The
        # factor normally comes from the engine (one draw per action).
        if dvfs is None:
            dvfs = float(rng.lognormal(mean=0.0, sigma=DVFS_SIGMA))
        cpu_base = cpu_ms * self._cycles_per_ms * dvfs
        ipc = self._ipc_by_kind[kind] * uarch["ipc"]
        if self.events is None:
            if cpu_base > 0.0 and _positive(uarch):
                self._pmu_full(counts, cpu_base, ipc, uarch, rng)
            else:
                # Pathological inputs (a zero/negative multiplier from a
                # direct caller): replay the per-value scalar guards.
                self._pmu_reference(counts, cpu_base, ipc, uarch, rng)
            if self.monitored is not None:
                return {event: counts[event] for event in self.monitored}
            return counts

        # Partial-PMU mode: one pooled draw sized to the dependency
        # closure, consumed in canonical node order.  The factor for a
        # non-positive base is drawn and discarded, keeping the draw
        # count fixed per (event set) — the lazy-mode contract.
        factors = rng.lognormal(mean=0.0, sigma=self._pmu_sigmas).tolist()
        env = {
            "cpu": cpu_base, "ipc": ipc, "branch": uarch["branch"],
            "mem": uarch["mem"], "cache": uarch["cache"], "tlb": uarch["tlb"],
        }
        values = {}
        for index, (name, base_fn) in enumerate(self._pmu_plan):
            base = base_fn(values, env)
            values[name] = base * factors[index] if base > 0.0 else 0.0
        want = self._want
        for name in values:
            if name in want:
                counts[name] = values[name]
        return {event: counts[event] for event in self.events}

    def _pmu_full(self, counts, cpu_base, ipc, uarch, rng):
        """Full-mode PMU block: one pooled 37-factor draw, bit-identical
        to the historical scalar sequence (same stream consumption, same
        left-to-right float arithmetic)."""
        f = rng.lognormal(mean=0.0, sigma=_PMU_SIGMAS_FULL).tolist()
        cycles = cpu_base * f[0]
        instructions = cycles * ipc * f[1]
        counts["cpu-cycles"] = cycles
        counts["raw-cpu-cycles"] = cycles * f[2]
        counts["instructions"] = instructions
        counts["raw-instruction-retired"] = instructions * f[3]

        branch_instr = instructions * 0.18 * uarch["branch"] * f[4]
        branch_miss = branch_instr * 0.045 * f[5]
        counts["branch-instructions"] = branch_instr
        counts["branch-misses"] = branch_miss
        counts["branch-loads"] = branch_instr * f[6]
        counts["branch-load-misses"] = branch_miss * f[7]
        counts["raw-branch-pred"] = branch_instr * f[8]
        counts["raw-branch-mispred"] = branch_miss * f[9]

        l1d_loads = instructions * 0.28 * uarch["mem"] * f[10]
        l1d_stores = instructions * 0.12 * uarch["mem"] * f[11]
        l1d_load_miss = l1d_loads * 0.030 * uarch["cache"] * f[12]
        l1d_store_miss = l1d_stores * 0.020 * uarch["cache"] * f[13]
        counts["L1-dcache-loads"] = l1d_loads
        counts["L1-dcache-stores"] = l1d_stores
        counts["L1-dcache-load-misses"] = l1d_load_miss
        counts["L1-dcache-store-misses"] = l1d_store_miss
        counts["raw-l1-dcache"] = (l1d_loads + l1d_stores) * f[14]
        counts["raw-l1-dcache-refill"] = (l1d_load_miss + l1d_store_miss) * f[15]

        l1i_loads = instructions * 0.95 * f[16]
        l1i_miss = l1i_loads * 0.008 * uarch["cache"] * f[17]
        counts["L1-icache-loads"] = l1i_loads
        counts["L1-icache-load-misses"] = l1i_miss
        counts["raw-l1-icache"] = l1i_loads * f[18]
        counts["raw-l1-icache-refill"] = l1i_miss * f[19]

        llc_loads = l1d_load_miss * 0.85 * f[20]
        llc_load_miss = llc_loads * 0.30 * uarch["cache"] * f[21]
        llc_stores = l1d_store_miss * 0.85 * f[22]
        llc_store_miss = llc_stores * 0.25 * uarch["cache"] * f[23]
        counts["LLC-loads"] = llc_loads
        counts["LLC-load-misses"] = llc_load_miss
        counts["LLC-stores"] = llc_stores
        counts["LLC-store-misses"] = llc_store_miss
        counts["cache-references"] = (llc_loads + llc_stores) * f[24]
        cache_misses = (llc_load_miss + llc_store_miss) * f[25]
        counts["cache-misses"] = cache_misses

        dtlb_miss = l1d_loads * 0.004 * uarch["tlb"] * f[26]
        itlb_miss = l1i_loads * 0.001 * uarch["tlb"] * f[27]
        counts["dTLB-loads"] = l1d_loads * f[28]
        counts["dTLB-load-misses"] = dtlb_miss
        counts["iTLB-loads"] = l1i_loads * f[29]
        counts["iTLB-load-misses"] = itlb_miss
        counts["raw-l1-dtlb-refill"] = dtlb_miss * f[30]
        counts["raw-l1-itlb-refill"] = itlb_miss * f[31]

        counts["stalled-cycles-frontend"] = cycles * 0.15 * f[32]
        counts["stalled-cycles-backend"] = cycles * 0.25 * uarch["cache"] * f[33]
        counts["raw-mem-access"] = (l1d_loads + l1d_stores) * f[34]
        counts["raw-bus-access"] = cache_misses * 1.1 * f[35]
        counts["raw-bus-cycles"] = cycles * 0.4 * f[36]

    def _pmu_reference(self, counts, cpu_base, ipc, uarch, rng):
        """Historical scalar PMU block (per-value guards, one draw per
        positive value).  The columnar full path defers to this for
        pathological inputs; ``columnar=False`` models use it always."""

        def noisy(value, sigma):
            if value <= 0:
                return 0.0
            return float(value * rng.lognormal(mean=0.0, sigma=sigma))

        cycles = noisy(cpu_base, 0.03)
        instructions = noisy(cycles * ipc, 0.05)
        counts["cpu-cycles"] = cycles
        counts["raw-cpu-cycles"] = noisy(cycles, 0.01)
        counts["instructions"] = instructions
        counts["raw-instruction-retired"] = noisy(instructions, 0.01)

        branch_instr = noisy(instructions * 0.18 * uarch["branch"], 0.05)
        branch_miss = noisy(branch_instr * 0.045, 0.10)
        counts["branch-instructions"] = branch_instr
        counts["branch-misses"] = branch_miss
        counts["branch-loads"] = noisy(branch_instr, 0.02)
        counts["branch-load-misses"] = noisy(branch_miss, 0.05)
        counts["raw-branch-pred"] = noisy(branch_instr, 0.02)
        counts["raw-branch-mispred"] = noisy(branch_miss, 0.05)

        l1d_loads = noisy(instructions * 0.28 * uarch["mem"], 0.05)
        l1d_stores = noisy(instructions * 0.12 * uarch["mem"], 0.05)
        l1d_load_miss = noisy(l1d_loads * 0.030 * uarch["cache"], 0.10)
        l1d_store_miss = noisy(l1d_stores * 0.020 * uarch["cache"], 0.10)
        counts["L1-dcache-loads"] = l1d_loads
        counts["L1-dcache-stores"] = l1d_stores
        counts["L1-dcache-load-misses"] = l1d_load_miss
        counts["L1-dcache-store-misses"] = l1d_store_miss
        counts["raw-l1-dcache"] = noisy(l1d_loads + l1d_stores, 0.02)
        counts["raw-l1-dcache-refill"] = noisy(
            l1d_load_miss + l1d_store_miss, 0.05
        )

        l1i_loads = noisy(instructions * 0.95, 0.03)
        l1i_miss = noisy(l1i_loads * 0.008 * uarch["cache"], 0.12)
        counts["L1-icache-loads"] = l1i_loads
        counts["L1-icache-load-misses"] = l1i_miss
        counts["raw-l1-icache"] = noisy(l1i_loads, 0.02)
        counts["raw-l1-icache-refill"] = noisy(l1i_miss, 0.05)

        llc_loads = noisy(l1d_load_miss * 0.85, 0.08)
        llc_load_miss = noisy(llc_loads * 0.30 * uarch["cache"], 0.12)
        llc_stores = noisy(l1d_store_miss * 0.85, 0.08)
        llc_store_miss = noisy(llc_stores * 0.25 * uarch["cache"], 0.12)
        counts["LLC-loads"] = llc_loads
        counts["LLC-load-misses"] = llc_load_miss
        counts["LLC-stores"] = llc_stores
        counts["LLC-store-misses"] = llc_store_miss
        counts["cache-references"] = noisy(llc_loads + llc_stores, 0.04)
        counts["cache-misses"] = noisy(llc_load_miss + llc_store_miss, 0.06)

        dtlb_miss = noisy(l1d_loads * 0.004 * uarch["tlb"], 0.12)
        itlb_miss = noisy(l1i_loads * 0.001 * uarch["tlb"], 0.15)
        counts["dTLB-loads"] = noisy(l1d_loads, 0.02)
        counts["dTLB-load-misses"] = dtlb_miss
        counts["iTLB-loads"] = noisy(l1i_loads, 0.02)
        counts["iTLB-load-misses"] = itlb_miss
        counts["raw-l1-dtlb-refill"] = noisy(dtlb_miss, 0.05)
        counts["raw-l1-itlb-refill"] = noisy(itlb_miss, 0.05)

        counts["stalled-cycles-frontend"] = noisy(cycles * 0.15, 0.10)
        counts["stalled-cycles-backend"] = noisy(
            cycles * 0.25 * uarch["cache"], 0.12
        )
        counts["raw-mem-access"] = noisy(l1d_loads + l1d_stores, 0.03)
        counts["raw-bus-access"] = noisy(counts["cache-misses"] * 1.1, 0.08)
        counts["raw-bus-cycles"] = noisy(cycles * 0.4, 0.05)

    def _segment_counts_reference(self, *, kind, thread, wall_ms, cpu_ms,
                                  pages, uarch, rng,
                                  wait_chunk_override=None, dvfs=None):
        """The historical scalar implementation, retained verbatim as
        the reference for bit-identity tests and the ``BENCH_*.json``
        speedup baselines (``columnar=False``)."""
        device = self.device
        cpu_ms = max(0.0, min(cpu_ms, wall_ms))

        def noisy(value, sigma):
            if value <= 0:
                return 0.0
            return float(value * rng.lognormal(mean=0.0, sigma=sigma))

        counts = {}
        want = self._want

        switches = None
        if want is None or not want.isdisjoint(_SWITCH_EVENTS):
            switches = scheduler.segment_switches(
                kind, thread, wall_ms, cpu_ms, device, rng,
                chunk_override=wait_chunk_override,
            )
            counts["context-switches"] = float(switches.total)
        if want is None or not want.isdisjoint(_FAULT_EVENTS):
            faults = memory.segment_faults(kind, pages, rng)
            counts["page-faults"] = float(faults.total)
            counts["minor-faults"] = float(faults.minor)
            counts["major-faults"] = float(faults.major)
        if switches is not None and (want is None or "cpu-migrations" in want):
            counts["cpu-migrations"] = float(
                scheduler.cpu_migrations(switches, device, rng)
            )
        if want is None or not want.isdisjoint(_CLOCK_EVENTS):
            counts["task-clock"] = noisy(cpu_ms * NS_PER_MS, 0.02)
            if want is None or "cpu-clock" in want:
                counts["cpu-clock"] = noisy(counts["task-clock"], 0.01)
        counts["alignment-faults"] = 0.0
        counts["emulation-faults"] = 0.0

        if not self._wants_pmu:
            return {event: counts[event] for event in self.events}

        if dvfs is None:
            dvfs = float(rng.lognormal(mean=0.0, sigma=DVFS_SIGMA))
        cpu_base = cpu_ms * device.cycles_per_ms * dvfs
        ipc = device.baseline_ipc * _KIND_IPC[kind] * uarch["ipc"]
        self._pmu_reference(counts, cpu_base, ipc, uarch, rng)
        if self.events is not None:
            return {event: counts[event] for event in self.events}
        return counts

    # -- batched multi-segment API -----------------------------------------

    def segment_batch(self, segments, *, rng, dvfs=None):
        """Pooled-draw counts for a whole action's segments at once.

        *segments* is a sequence of ``(kind, thread, wall_ms, cpu_ms,
        pages, uarch, wait_chunk_override)`` tuples in timeline order.
        Returns one counts dict per segment, over the configured event
        subset.

        This is the engine's lazy-mode columnar core: instead of a few
        scalar draws per segment, the whole batch consumes a handful of
        draws pooled by distribution (one poisson call, one
        standard-normal call, one beta, one binomial — see the inline
        layout comment), so the per-segment RNG overhead is paid once
        per *action*.  The draw layout differs from per-segment
        :meth:`segment_counts` — both are lazy-mode universes,
        reproducible per (seed, event set, segment shapes) but not
        sample-identical to each other.

        Full models (``events=None``) must use :meth:`segment_counts`,
        whose scalar draw order is the byte-identity contract; calling
        this with a full model raises :class:`ValueError`.
        """
        if self.events is None:
            raise ValueError(
                "segment_batch is the lazy-mode core; full-mode counts "
                "must keep the per-segment scalar draw order "
                "(use segment_counts)"
            )
        count = len(segments)
        if count == 0:
            return []
        # Batches are one action's worth of segments (a handful), so
        # the per-segment arithmetic runs as plain Python — at this
        # size numpy's per-array overhead costs more than vectorized
        # arithmetic saves.  The RNG draws are pooled by *distribution*
        # across the whole batch in a fixed order: one poisson call
        # (involuntary switch rates | voluntary rates | page-fault
        # intensities), one standard-normal call (migration load
        # factors | task-clock jitter | cpu-clock jitter, as
        # exp(sigma*z) lognormals), one beta call (bursty-fault
        # fractions, drawn only when a minor/major split is requested),
        # one binomial call (fault splits | migrations) — absent blocks
        # drop out of the layout, which is what makes the sequence
        # fixed per (event set, batch shape).
        device = self.device
        need_switches = self._need_switches
        need_migrations = need_switches and self._need_migrations
        need_faults = self._need_faults
        need_clock = self._need_clock
        need_cpu_clock = need_clock and self._need_cpu_clock
        columns = {}

        # Single extraction pass: clamp CPU to wall and compute the
        # poisson rate blocks in one loop over the rows (the switch
        # rates are scheduler.segment_switches' rates, batched — the
        # single pass avoids materialising thread/override columns).
        quantum = device.sched_quantum_ms
        vsync = device.vsync_period_ms
        io_chunk = device.io_wait_chunk_ms
        render_thread = scheduler.RENDER_THREAD
        frame_cpu = scheduler.RENDER_FRAME_CPU_MS
        wakeups = scheduler.RENDER_WAKEUPS_PER_FRAME
        ui_kind = ApiKind.UI
        kinds = []
        cpu = []
        involuntary_rate = []
        voluntary_rate = []
        page_rate = []
        for kind, thread, w, c, p, _uarch, override in segments:
            c = 0.0 if c <= 0.0 else (c if c < w else w)
            kinds.append(kind)
            cpu.append(c)
            if need_switches:
                involuntary_rate.append(c / quantum)
                if thread == render_thread:
                    voluntary_rate.append((c / frame_cpu) * wakeups)
                else:
                    blocked = w - c
                    if kind is ui_kind:
                        chunk = vsync
                    elif override is not None:
                        chunk = override
                    else:
                        chunk = io_chunk
                    voluntary_rate.append(
                        blocked / chunk if blocked > 0.0 else 0.0
                    )
            if need_faults:
                page_rate.append(p if p > 0 else 0)

        # Pooled poisson draws.
        lams = involuntary_rate + voluntary_rate + page_rate
        draws = rng.poisson(lams).tolist() if lams else []
        cursor = 0
        if need_switches:
            involuntary = draws[:count]
            voluntary = draws[count:2 * count]
            cursor = 2 * count
            switch_total = [v + i for v, i in zip(voluntary, involuntary)]
            columns["context-switches"] = [float(t) for t in switch_total]
        if need_faults:
            fault_totals = draws[cursor:cursor + count]

        # Pooled normal draws (consumed as exp(sigma * z) lognormals).
        z_blocks = (
            (1 if need_migrations else 0)
            + (1 if need_clock else 0)
            + (1 if need_cpu_clock else 0)
        )
        zs = rng.standard_normal(z_blocks * count).tolist() if z_blocks else []
        cursor = 0
        if need_migrations:
            migration_z = zs[:count]
            cursor = count
        if need_clock:
            task_clock = [
                c * NS_PER_MS * math.exp(0.02 * z) if c > 0.0 else 0.0
                for c, z in zip(cpu, zs[cursor:cursor + count])
            ]
            cursor += count
            columns["task-clock"] = task_clock
            if need_cpu_clock:
                columns["cpu-clock"] = [
                    t * math.exp(0.01 * z) if t > 0.0 else 0.0
                    for t, z in zip(task_clock, zs[cursor:cursor + count])
                ]

        # Pooled beta draw, then one binomial call over fault splits
        # and migrations together.  A model that wants only fault
        # *totals* (no minor/major events) skips both blocks outright —
        # the split draws exist solely to apportion a total the poisson
        # already fixed.
        need_split = need_faults and self._need_fault_split
        if need_faults:
            columns["page-faults"] = [float(t) for t in fault_totals]
        binomial_ns = []
        binomial_ps = []
        if need_split:
            binomial_ns += fault_totals
            binomial_ps += memory.batch_fault_fractions(kinds, rng)
        if need_migrations:
            migration_base = 0.03 * device.cores
            binomial_ns += switch_total
            binomial_ps += [
                min(0.5, migration_base * math.exp(0.6 * z))
                for z in migration_z
            ]
        splits = (
            rng.binomial(binomial_ns, binomial_ps).tolist()
            if binomial_ns else []
        )
        cursor = 0
        if need_split:
            major = splits[:count]
            cursor = count
            columns["major-faults"] = [float(m) for m in major]
            columns["minor-faults"] = [
                float(t - m) for t, m in zip(fault_totals, major)
            ]
        if need_migrations:
            columns["cpu-migrations"] = [
                float(m) for m in splits[cursor:cursor + count]
            ]
        if not self._want.isdisjoint(("alignment-faults", "emulation-faults")):
            zeros = [0.0] * count
            columns["alignment-faults"] = zeros
            columns["emulation-faults"] = zeros

        if self._wants_pmu:
            if dvfs is None:
                dvfs = float(rng.lognormal(mean=0.0, sigma=DVFS_SIGMA))
            uarchs = [seg[5] for seg in segments]
            cycles_scale = self._cycles_per_ms * dvfs
            env = {
                "cpu": np.array([c * cycles_scale for c in cpu]),
                "ipc": np.array([
                    self._ipc_by_kind[kind] * uarch["ipc"]
                    for kind, uarch in zip(kinds, uarchs)
                ]),
                "branch": np.array([u["branch"] for u in uarchs]),
                "mem": np.array([u["mem"] for u in uarchs]),
                "cache": np.array([u["cache"] for u in uarchs]),
                "tlb": np.array([u["tlb"] for u in uarchs]),
            }
            factors = rng.lognormal(
                mean=0.0, sigma=self._pmu_sigmas,
                size=(count, len(self._pmu_sigmas)),
            )
            values = {}
            for index, (name, base_fn) in enumerate(self._pmu_plan):
                base = base_fn(values, env)
                values[name] = np.where(
                    base > 0.0, base * factors[:, index], 0.0
                )
            want = self._want
            for name, column in values.items():
                if name in want:
                    columns[name] = [float(v) for v in column]

        events = self.events
        cols = [columns[event] for event in events]
        return [
            dict(zip(events, row)) for row in zip(*cols)
        ]
