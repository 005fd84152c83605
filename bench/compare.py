"""Compare sets of benchmark records, metric by metric and workload by
workload, against the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the JSON records that ``run.py --record`` writes,
one per run.  For every workload and metric it prints the median and
quartiles of each set and the spread (third minus first quartile, as a
share of the median).  Given two sets it also prints the change of the
median, signed so that a positive change is worse, and marks it:

* ``WORSE``      the change exceeds the metric's bound;
* ``unresolved`` the base set's own spread exceeds the bound, unless
  every new run is better than every base run;
* ``ok``         otherwise.

Under ``round_s`` it also lists the median share of each command (for
instance ``diameter json`` and ``bfs csv`` in graph-large).  Per-layer
metrics have no bound and are only listed.  The exit code is
1 when an end-to-end metric is WORSE, a spread exceeds its bound (setup
time excepted, as its bound covers only the median), or the share of
failed calls differs between the sets; else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory: str) -> dict:
    """{(workload, trace): [record, ...]} for the records in ``directory``."""
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def command_s(record: dict) -> dict[str, float]:
    """The record's round_s split by command and output format."""
    return {label: statistics.fmean(times) for label, times in record["command_round_s"].items()}


def failed_share(records: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in records), sum(r["attempted"] for r in records)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    bad = False
    for key in sorted(set(sets[0]) | set(sets[-1])):
        workload, trace = key
        groups = [s.get(key, []) for s in sets]
        if not all(groups):
            print(f"{workload} trace={trace}: missing from one set")
            bad = True
            continue
        shares = [failed_share(g) for g in groups]
        print(f"\n{workload} (trace={trace}, runs {'/'.join(str(len(g)) for g in groups)}, "
              f"failed {' / '.join(f'{f} of {a}' for f, a in shares)})")
        if len(shares) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("  failed share differs")
            bad = True
        for metric in SPEC["per_layer"] if trace else SPEC["end_to_end"]:
            name, bound = metric["name"], metric.get("bound")
            cols = []
            for g in groups:
                values = [r["metrics"][name]["value"] for r in g]
                q1, q2, q3 = quartiles(values)
                cols.append((values, q2, f"{q2:.6g} [{q1:.6g}, {q3:.6g}] spread {spread(values):.3f}"))
            verdict = ""
            if bound is not None:
                spreads = [spread(v) for v, _, _ in cols]
                if name != "setup_s" and max(spreads) > bound:
                    verdict = " SPREAD>bound"
                    bad = True
                if len(cols) == 2:
                    (base, m0, _), (new, m1, _) = cols
                    sign = 1 if metric["better"] == "lower" else -1
                    change = sign * (m1 - m0) / m0 if m0 else 0.0
                    better = (max(new) < min(base)) if sign == 1 else (min(new) > max(base))
                    if change > bound:
                        verdict += " WORSE"
                        bad = True
                    elif spreads[0] > bound and not better:
                        verdict += " unresolved"
                    else:
                        verdict += " ok"
                    verdict = f" change {change:+.3f} (bound {bound}){verdict}"
            print(f"  {name:32s} {metric['unit']:6s} " + "  |  ".join(c[2] for c in cols) + verdict)
        if not trace:
            splits = [[command_s(r) for r in g] for g in groups]
            for label in sorted({label for split in splits for c in split for label in c}):
                meds = [statistics.median(c.get(label, 0.0) for c in split) for split in splits]
                print(f"    round_s of {label:21s} s      median " + "  |  ".join(f"{m:.6g}" for m in meds))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
