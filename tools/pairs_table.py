"""Judge alternating benchmark pairs: one row per bounded metric.

Reads the saved output of ``benchmarks/perf/run.py --workload W`` runs,
one file per run named ``<pair>-<side>.out`` with side ``ref`` or
``change`` (what ``make bench-pairs`` writes), and prints for every
end-to-end metric ``BENCHMARK.json`` bounds, and for ``failed_share``:
each side's median and quartiles over the pairs, the ratio of the
medians, in how many pairs the change was strictly better, and whether
the medians lie further apart than the reference side's interquartile
range. A gain claim needs the change better in at least nine of ten
pairs *and* that gap; then it says whether the digest lines were equal
in every pair. A run that exited nonzero is saved as
``<pair>-<side>.failed``: the table ends with the failed runs per side
and each one's last exception line, and a pair with a failed run counts
for neither side. ``ValueError: no round survived`` is labelled as the
stalled-host failure of the harness's ``reduce_rounds`` (every round's
client send lag over its bound), which either side can hit; any other
cause is a fault to look at.

    python3 tools/pairs_table.py DIR
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
RUN_NAME = re.compile(r"^(\d+)-(ref|change)\.(out|failed)$")
#: The unindented last line of a traceback, e.g. ``ValueError: message``.
EXCEPTION_LINE = re.compile(r"^[A-Za-z_][\w.]*(Error|Exception|Exit|Interrupt)\b(: .*)?$")
STALLED_HOST = "ValueError: no round survived"


def read_run(path: Path) -> Tuple[Dict[str, float], List[str]]:
    """A run's end-to-end values, ``failed_share`` included, and its
    digest lines (workload column dropped)."""
    lines = path.read_text().splitlines()
    last = json.loads(lines[-1])
    values = {name: row["value"] for name, row in last["metrics"].items()}
    values["failed_share"] = last["failed"] / max(last["attempted"], 1)
    digests = [line.split(None, 1)[1] for line in lines if " digest " in line]
    return values, digests


def failure_cause(path: Path) -> str:
    """A failed run's last exception line, labelled when it is the
    stalled-host failure."""
    lines = path.read_text().splitlines()
    raised = [line for line in lines if EXCEPTION_LINE.match(line)]
    if not raised:
        last = next((line for line in reversed(lines) if line.strip()), "")
        return f"no exception line; last line: {last.strip() or '(empty output)'}"
    if raised[-1] == STALLED_HOST:
        return f"{STALLED_HOST} (stalled host: reduce_rounds kept no round)"
    return raised[-1]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    runs: Dict[int, Dict[str, Tuple[Dict[str, float], List[str]]]] = {}
    failed: Dict[str, Dict[int, str]] = {"ref": {}, "change": {}}
    for path in sorted(Path(argv[1]).iterdir()):
        match = RUN_NAME.match(path.name)
        if match and match[3] == "failed":
            failed[match[2]][int(match[1])] = failure_cause(path)
        elif match:
            runs.setdefault(int(match[1]), {})[match[2]] = read_run(path)
    pairs = [sides for _, sides in sorted(runs.items()) if len(sides) == 2]
    failures = "\n".join(["failed runs: " + "; ".join(
        f"{side} {', '.join(f'pair {n}' for n in sorted(causes)) or 'none'}"
        for side, causes in failed.items()
    )] + [
        f"  {side} pair {n}: {cause}"
        for side, causes in failed.items()
        for n, cause in sorted(causes.items())
    ])
    if not pairs:
        print("no complete pair", file=sys.stderr)
        print(failures, file=sys.stderr)
        return 1
    spec = json.loads(SPEC.read_text())
    metrics = [(row["name"], row["better"]) for row in spec["end_to_end"]]
    metrics.append(("failed_share", "lower"))

    print(f"{len(pairs)} pairs; quartiles over pairs; a pair is won when the "
          "change is strictly better")
    print(f"{'metric':<16} {'better':<6} {'ref median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'chg/ref':>8} {'won':>8} "
          f"{'gap>ref IQR':>11}")
    for name, better in metrics:
        ref = [sides["ref"][0][name] for sides in pairs]
        change = [sides["change"][0][name] for sides in pairs]
        sign = 1.0 if better == "higher" else -1.0
        won = sum(sign * (c - r) > 0 for r, c in zip(ref, change))
        r1, rm, r3 = quartiles(ref)
        c1, cm, c3 = quartiles(change)
        ratio = f"{cm / rm:8.3f}" if rm else f"{'-':>8}"
        gap = "yes" if abs(cm - rm) > r3 - r1 else "no"
        print(f"{name:<16} {better:<6} "
              f"{f'{rm:.5g} [{r1:.5g}, {r3:.5g}]':>30} "
              f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>30} "
              f"{ratio} {f'{won}/{len(pairs)}':>8} {gap:>11}")
    equal = sum(sides["ref"][1] == sides["change"][1] for sides in pairs)
    print(f"digest lines equal in {equal} of {len(pairs)} pairs")
    print(failures)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
