"""What every workload implements, and /proc readers for the process
under test."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional

from perfharness.spans import SpanRecorder
from perfharness.stats import Prober, RoundSample

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds ``pid`` has consumed: the scheduler's
    nanosecond run time summed over its threads
    (``/proc/<pid>/task/*/schedstat``), or where the kernel keeps none
    the 10 ms ticks of ``/proc/<pid>/stat`` — 3 % of a serve-paced
    round, which made that round's CPU per request read the same to the
    last digit run after run."""
    try:
        ran_ns = sum(
            int((task / "schedstat").read_text().split()[0])
            for task in Path(f"/proc/{pid}/task").iterdir()
        )
        if ran_ns > 0:
            return ran_ns / 1e9
    except (OSError, ValueError, IndexError):
        pass
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime and stime are
    # the 14th and 15th fields of the whole line.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


class Workload:
    """One named workload. ``setup`` may be called again after
    ``teardown``; set-up time is measured over several such cycles."""

    name = ""
    #: What one operation is, for the README and the printed table.
    operation = "query"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Output digests by label, printed so two commits compare exactly.
        self.digests: Dict[str, str] = {}

    def setup(self) -> None:
        """Build inputs from the seed and bring the system up, through
        a short warm-up: after this the first operation could be timed."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed full round so caches fill and lazy set-up finishes."""
        self.run_round(Prober(lambda: 0.0))

    def run_round(
        self, prober: Prober, recorder: Optional[SpanRecorder] = None
    ) -> RoundSample:
        """One round of the workload's fixed work; with ``recorder``,
        also record spans around the calls into each layer."""
        raise NotImplementedError

    def _check_digest(self, sample: RoundSample) -> RoundSample:
        """Every round must reproduce the first round's outputs; one
        that does not counts all its operations as failed."""
        reference = self.digests.setdefault(self.name, sample.digest)
        if sample.digest != reference:
            sample.failed = sample.ops
        return sample

    def verify(self) -> int:
        """Checks made once after measuring; returns operations found
        wrong (added to ``failed``)."""
        return 0

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process under test (this one by default)."""
        return peak_rss_mb(os.getpid())

    def teardown(self) -> None:
        """Stop every process started and drop every input built."""
