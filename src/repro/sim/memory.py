"""Page-fault model.

A thread faults when it touches a page not currently mapped.  Blocking
operations (file reads, bitmap decodes, database queries) touch large
fresh buffers on the *main* thread; UI work touches most of its fresh
memory (textures, display lists) on the *render* thread.  The
main−render page-fault difference therefore separates soft hang bugs
from UI work — the third condition of the paper's filter (threshold
500).

Minor faults dominate (already-resident pages mapped on demand); major
faults (disk-backed) occur mainly for file-backed blocking I/O.
"""

from dataclasses import dataclass

from repro.base.kinds import ApiKind


@dataclass(frozen=True)
class FaultCounts:
    """Page faults for one segment, split minor/major."""

    minor: int
    major: int

    @property
    def total(self):
        """All page faults (minor + major)."""
        return self.minor + self.major


#: Fraction of faults that are major (disk-backed), per operation kind.
_MAJOR_FRACTION = {
    ApiKind.BLOCKING: 0.03,
    ApiKind.COMPUTE: 0.002,
    ApiKind.UI: 0.002,
    ApiKind.LIGHT: 0.0,
    # A waiting thread touches almost nothing; IPC replies land in
    # already-resident ashmem/binder buffers.
    ApiKind.ASYNC_WAIT: 0.0,
    ApiKind.IPC: 0.005,
}


def major_faults(kind, total, rng):
    """Sample how many of a segment's *total* page faults are major."""
    fraction = _MAJOR_FRACTION[kind]
    if fraction == 0.0:
        # binomial(total, 0) is 0 and consumes nothing from the stream.
        return 0
    # Major faults come in bursts (a cold file region pages in all at
    # once or not at all), so the fraction is heavily overdispersed.
    fraction = min(0.5, float(rng.beta(0.4, 0.4 / fraction - 0.4)))
    return int(rng.binomial(total, fraction))


def segment_faults(kind, pages, rng):
    """Sample page faults for a segment that touches *pages* new pages."""
    if pages <= 0:
        return FaultCounts(minor=0, major=0)
    total = int(rng.poisson(pages))
    if total == 0:
        return FaultCounts(minor=0, major=0)
    major = major_faults(kind, total, rng)
    return FaultCounts(minor=total - major, major=major)


def batch_fault_fractions(kinds, rng):
    """Major-fault fractions for a batch, one pooled beta draw over the
    segments whose kind produces major faults at all.  The caller pools
    the surrounding poisson and binomial draws with other draws of the
    same kind (the lazy-mode counterpart of :func:`segment_faults`)."""
    fractions = [0.0] * len(kinds)
    bursty = [
        (index, _MAJOR_FRACTION[kind])
        for index, kind in enumerate(kinds)
        if _MAJOR_FRACTION[kind] > 0
    ]
    if bursty:
        betas = rng.beta(
            0.4, [0.4 / fraction - 0.4 for _, fraction in bursty]
        ).tolist()
        for (index, _), beta in zip(bursty, betas):
            fractions[index] = beta if beta < 0.5 else 0.5
    return fractions
