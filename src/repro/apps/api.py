"""API specifications.

Every operation an app can run on its main thread is described by an
:class:`ApiSpec`.  The spec captures the behavioural parameters the
simulator needs (duration distribution, CPU share, render-thread work,
memory footprint) and the *knowledge* parameters the detectors need
(whether the API is in the known-blocking database, whether its call
site is visible to an offline source scanner, whether it is a facade
over a hidden library call).

Kinds
-----
``UI``
    Must run on the main thread (layout, inflation, drawing).  Never a
    soft hang bug, even when slow: it generates heavy render-thread
    work.
``BLOCKING``
    I/O-ish API (file, camera, database, parsing) that can move to a
    worker thread.  A manifested call blocks the main thread — a soft
    hang bug.
``COMPUTE``
    Self-developed lengthy operation (heavy loop).  Pure CPU on the
    main thread; also a soft hang bug, but invisible to offline
    scanners that only search for well-known blocking API names.
``ASYNC_WAIT``
    Synchronous wait on an asynchronous result (``AsyncTask.get``,
    ``Future.get``).  Blocking the main thread on a worker's
    completion re-serializes the offloaded work — a soft hang bug.
``IPC``
    Synchronous binder round trip to a remote process.  Slow replies
    block the main thread — a soft hang bug.
``LIGHT``
    Cheap bookkeeping call; never hangs.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

from repro.base.frames import Frame
from repro.base.kinds import ApiKind
from repro.base.rng import stream

#: Class-name prefixes that Trace Analyzer treats as UI classes (the
#: paper: "UI-APIs are well known as they are grouped in a few classes,
#: e.g. View and Widget classes").
UI_CLASS_PREFIXES = (
    "android.view",
    "android.widget",
    "android.webkit",
    "android.text",
    "android.animation",
    "android.transition",
    "android.graphics.drawable",
    "android.app.Activity",
    "android.app.Fragment",
    "androidx.recyclerview.widget",
)


def is_ui_class(clazz):
    """True if *clazz* belongs to a UI package (must stay on main thread)."""
    return clazz.startswith(UI_CLASS_PREFIXES)


#: Kinds whose slow calls could run off the main thread — the soft hang
#: *bug* kinds.  UI work must stay on main and LIGHT calls never hang.
_MOVABLE_KINDS = (
    ApiKind.BLOCKING,
    ApiKind.COMPUTE,
    ApiKind.ASYNC_WAIT,
    ApiKind.IPC,
)


@dataclass(frozen=True)
class ApiSpec:
    """Static description of one API (or self-developed operation).

    Parameters mirror what the simulator and detectors need; see module
    docstring for the semantics of :attr:`kind`.
    """

    #: Leaf method name (what appears at the bottom of a stack trace).
    name: str
    #: Fully-qualified class of the leaf method.
    clazz: str
    kind: ApiKind
    #: Mean wall-clock duration of a *manifested* (slow) call, ms.
    mean_ms: float
    #: Lognormal shape of the duration distribution (sigma of log).
    sigma: float = 0.25
    #: Probability that a call manifests slow; otherwise it takes
    #: :attr:`fast_ms`.  Occasional bugs have manifest_prob < 1.
    manifest_prob: float = 1.0
    #: Duration of a non-manifested call, ms.
    fast_ms: float = 2.0
    #: Fraction of wall time the calling thread spends on-CPU (the rest
    #: is blocked on I/O / IPC).
    cpu_share: float = 0.6
    #: CPU work generated on the render thread, as a fraction of the
    #: operation's wall duration.  High for UI APIs, ~0 for blocking.
    render_share: float = 0.0
    #: Memory pages newly touched by a manifested call (drives faults).
    pages: int = 50
    #: Pages touched by a fast call.
    pages_fast: int = 5
    #: Average blocked milliseconds per voluntary context switch.  None
    #: uses the device default (short I/O chunks).  Calls that block
    #: once for a long stretch (mmap reads, single IPC round trips) set
    #: this high and therefore produce few voluntary switches.
    wait_chunk_ms: Optional[float] = None
    #: Whether the API is in the known-blocking database that offline
    #: scanners search for (ground truth of "known" vs "unknown").
    known_blocking: bool = False
    #: When the API is a facade over a third-party library, the visible
    #: call-site method differs from the leaf (e.g. cupboard ``get``
    #: hiding database ``insertWithOnConflict``).
    entry_name: Optional[str] = None
    entry_clazz: Optional[str] = None
    #: Whether the call site's source is visible to an offline scanner
    #: (False for closed-source / encrypted third-party libraries).
    source_visible: bool = True
    #: Library the API ships in, if any (for reporting).
    library: Optional[str] = None
    #: How likely the slow path is to manifest in a *test bed* relative
    #: to the wild, as a multiplier on :attr:`manifest_prob`.  Bugs
    #: triggered by real content (a heavy email, a large worksheet)
    #: rarely manifest on synthetic lab inputs — the paper's §4.6
    #: argument for running Hang Doctor in the wild.
    lab_manifest_scale: float = 1.0
    #: Bytes transferred on the network by a manifested call (0 for
    #: non-network operations).  Supports the paper's footnote-2
    #: extension: detecting network-on-main-thread bugs by monitoring
    #: the main thread's network activity.
    network_bytes: int = 0

    def __post_init__(self):
        if self.mean_ms <= 0:
            raise ValueError(f"{self.name}: mean_ms must be positive")
        if not 0.0 <= self.manifest_prob <= 1.0:
            raise ValueError(f"{self.name}: manifest_prob outside [0, 1]")
        if not 0.0 < self.cpu_share <= 1.0:
            raise ValueError(f"{self.name}: cpu_share outside (0, 1]")
        if self.render_share < 0:
            raise ValueError(f"{self.name}: render_share must be >= 0")
        if (self.entry_name is None) != (self.entry_clazz is None):
            raise ValueError(
                f"{self.name}: entry_name and entry_clazz must be set together"
            )
        if not 0.0 <= self.lab_manifest_scale <= 1.0:
            raise ValueError(
                f"{self.name}: lab_manifest_scale outside [0, 1]"
            )
        if self.network_bytes < 0:
            raise ValueError(f"{self.name}: network_bytes must be >= 0")

    @property
    def qualified_name(self):
        """``Class.method`` of the leaf frame."""
        return f"{self.clazz}.{self.name}"

    @property
    def is_ui(self):
        """True for operations that must stay on the main thread."""
        return self.kind is ApiKind.UI

    @property
    def can_hang(self):
        """True if a manifested call typically exceeds the 100 ms
        perceivable delay.  Short blocking calls (e.g. an 85 ms camera
        ``setParameters``) are movable in principle but are not soft
        hang bugs: they never produce a perceivable hang on their own.
        """
        if self.kind not in _MOVABLE_KINDS:
            return False
        return self.mean_ms >= 100.0

    def leaf_frame(self):
        """Stack frame of the executing leaf method."""
        file = self.clazz.rsplit(".", 1)[-1] + ".java"
        line = 25 + (hash_line(self.qualified_name) % 900)
        return Frame(clazz=self.clazz, method=self.name, file=file, line=line)

    def entry_frame(self):
        """Stack frame of the library facade, or None if not wrapped."""
        if self.entry_name is None:
            return None
        file = self.entry_clazz.rsplit(".", 1)[-1] + ".java"
        line = 25 + (hash_line(f"{self.entry_clazz}.{self.entry_name}") % 900)
        return Frame(
            clazz=self.entry_clazz, method=self.entry_name, file=file, line=line
        )

    def api_frames(self):
        """Frames this API contributes to a stack trace, outer to leaf."""
        entry = self.entry_frame()
        leaf = self.leaf_frame()
        return (entry, leaf) if entry is not None else (leaf,)

    def uarch_profile(self):
        """Per-API microarchitectural multipliers.

        Drawn once, deterministically from the API name.  These model
        the paper's observation that instruction/cache counts depend on
        the *specific* source code of an operation (hence correlate
        poorly with hang bugs), while scheduling events do not.
        """
        rng = stream("uarch", self.qualified_name)
        return {
            "ipc": float(rng.lognormal(mean=0.0, sigma=0.55)),
            "cache": float(rng.lognormal(mean=0.0, sigma=0.7)),
            "branch": float(rng.lognormal(mean=0.0, sigma=0.6)),
            "tlb": float(rng.lognormal(mean=0.0, sigma=0.7)),
            "mem": float(rng.lognormal(mean=0.0, sigma=0.6)),
        }

    def effective_manifest_prob(self, environment="wild"):
        """Manifestation probability in the given environment."""
        if environment == "wild":
            return self.manifest_prob
        if environment == "lab":
            return self.manifest_prob * self.lab_manifest_scale
        raise ValueError(f"unknown environment {environment!r}")

    def sample_duration_ms(self, rng, environment="wild"):
        """Sample one call's wall duration; returns (duration, manifested)."""
        probability = self.effective_manifest_prob(environment)
        manifested = bool(rng.random() < probability)
        if not manifested:
            jitter = rng.lognormal(mean=0.0, sigma=0.3)
            return max(0.05, self.fast_ms * jitter), False
        mu = math.log(self.mean_ms) - 0.5 * self.sigma**2
        return float(rng.lognormal(mean=mu, sigma=self.sigma)), True


@functools.lru_cache(maxsize=None)
def hash_line(text):
    """Stable small hash for synthesizing source line numbers (memoized:
    the same frame texts recur across corpus, scenario and plan builds)."""
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) % 1_000_003
    return value


def ui_api(name, clazz="android.view.View", mean_ms=60.0, **kwargs):
    """Build a UI API spec (heavy render-thread work, on main thread)."""
    defaults = dict(
        kind=ApiKind.UI,
        mean_ms=mean_ms,
        cpu_share=0.35,
        render_share=0.6,
        pages=80,
        pages_fast=10,
        manifest_prob=1.0,
        fast_ms=8.0,
    )
    defaults.update(kwargs)
    return ApiSpec(name=name, clazz=clazz, **defaults)


def blocking_api(name, clazz, mean_ms=300.0, known_blocking=False, **kwargs):
    """Build a blocking API spec (I/O-ish, movable off the main thread)."""
    defaults = dict(
        kind=ApiKind.BLOCKING,
        mean_ms=mean_ms,
        cpu_share=0.55,
        render_share=0.0,
        pages=900,
        pages_fast=20,
        known_blocking=known_blocking,
    )
    defaults.update(kwargs)
    return ApiSpec(name=name, clazz=clazz, **defaults)


def compute_op(name, clazz, mean_ms=250.0, **kwargs):
    """Build a self-developed lengthy operation (heavy loop)."""
    defaults = dict(
        kind=ApiKind.COMPUTE,
        mean_ms=mean_ms,
        cpu_share=0.97,
        render_share=0.0,
        pages=250,
        pages_fast=10,
        known_blocking=False,
    )
    defaults.update(kwargs)
    return ApiSpec(name=name, clazz=clazz, **defaults)


def async_wait_api(name, clazz, mean_ms=350.0, **kwargs):
    """Build a synchronous wait on an asynchronous result.

    Almost all the wall time is one long block on the worker's
    completion signal: minimal CPU, no render work, a tiny footprint,
    and a single long wait chunk (few voluntary switches) — the
    PersisDroid hang anatomy.
    """
    defaults = dict(
        kind=ApiKind.ASYNC_WAIT,
        mean_ms=mean_ms,
        cpu_share=0.08,
        render_share=0.0,
        pages=20,
        pages_fast=4,
        wait_chunk_ms=40.0,
        known_blocking=False,
    )
    defaults.update(kwargs)
    return ApiSpec(name=name, clazz=clazz, **defaults)


def ipc_api(name, clazz, mean_ms=280.0, known_blocking=False, **kwargs):
    """Build a synchronous binder IPC call (remote process does the
    work; the caller marshals, waits one long stretch, unmarshals)."""
    defaults = dict(
        kind=ApiKind.IPC,
        mean_ms=mean_ms,
        cpu_share=0.18,
        render_share=0.0,
        pages=60,
        pages_fast=8,
        wait_chunk_ms=30.0,
        known_blocking=known_blocking,
    )
    defaults.update(kwargs)
    return ApiSpec(name=name, clazz=clazz, **defaults)


def light_api(name, clazz="android.util.Log", mean_ms=1.0, **kwargs):
    """Build a cheap bookkeeping call (never hangs)."""
    defaults = dict(
        kind=ApiKind.LIGHT,
        mean_ms=mean_ms,
        sigma=0.2,
        cpu_share=0.9,
        render_share=0.0,
        pages=2,
        pages_fast=1,
        fast_ms=0.5,
    )
    defaults.update(kwargs)
    return ApiSpec(name=name, clazz=clazz, **defaults)
