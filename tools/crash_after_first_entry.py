#!/usr/bin/env python
"""Run the ``repro`` CLI and SIGKILL it right after its first journal entry.

A crash at a known point, for kill-and-resume checks: as soon as the
first ``ShardJournal.record`` call lands, the process SIGKILLs itself
(no cleanup, exactly a crashed box), so a ``--checkpoint`` run always
dies with a partial journal and prints nothing.  Its pool workers are
left to notice on their own that their parent is gone.  Exits with
status 137 (128 + SIGKILL) when the kill fired.

Usage::

    PYTHONPATH=src python tools/crash_after_first_entry.py \
        chaos --quick --checkpoint DIR --workers 2
"""

import os
import signal
import sys

from repro.checkpoint.journal import ShardJournal
from repro.cli import main

_record = ShardJournal.record


def _record_then_die(self, entries):
    landed = _record(self, entries)
    if landed:
        os.kill(os.getpid(), signal.SIGKILL)
    return landed


if __name__ == "__main__":
    ShardJournal.record = _record_then_die
    sys.exit(main(sys.argv[1:]))
