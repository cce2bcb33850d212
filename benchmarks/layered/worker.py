"""One workload in one process: set-up, the timed closed loop, the oracle.

``run.py`` starts this file as a child so that ``setup_s`` and
``peak_rss_mb`` belong to one workload.  Closed loop, one client: a single
thread issues the next op when the previous one has returned.  The last
line of standard output is one JSON object.
"""

import time

#: Taken before ``repro`` is imported, so the import is part of ``setup_s``.
PROCESS_START = time.perf_counter()

import argparse
import json
import resource
import statistics
import sys
from typing import Dict, Optional

from repro.xmlstream.parser import parse_events
from workloads import WORKLOADS, Oracle, Workload, build_program


def cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def percentile(values, share: float) -> float:
    """Nearest-rank percentile; ``len(values) * (1 - share)`` samples lie beyond it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def fifths(values):
    """``values`` cut into five consecutive runs of equal length (fewer if short)."""
    count = max(1, min(5, len(values) // 2))
    return [values[i * len(values) // count : (i + 1) * len(values) // count] for i in range(count)]


class Ready:
    """A workload set up and warmed, with the time that took."""

    def __init__(self, workload: Workload, seed: int, started_at: float):
        began = time.perf_counter()
        self.fleet = workload.fleet()
        self.documents = workload.make_documents(seed)
        self.inputs_s = time.perf_counter() - began
        self.program = build_program(workload, self.fleet)
        for i in range(workload.warmup_ops):
            self.program.run(self.documents[i % len(self.documents)])
        # Making the inputs is the benchmark's cost, not the program's.
        self.setup_s = time.perf_counter() - started_at - self.inputs_s


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    max_ops: Optional[int] = None,
    started_at: Optional[float] = None,
) -> Dict[str, object]:
    """Run ops for ``seconds`` (or ``max_ops``) and return the end-to-end metrics."""
    ready = Ready(workload, seed, time.perf_counter() if started_at is None else started_at)
    program, documents = ready.program, ready.documents
    oracle = Oracle(workload, ready.fleet, seed)
    doc_bytes = [len(document.encode("utf-8")) for document in documents]

    walls, cpus, observed = [], [], []
    peak_buffer = 0
    clock = time.perf_counter
    loop_began = clock()
    while (clock() - loop_began < seconds) if max_ops is None else (len(walls) < max_ops):
        index = len(walls) % len(documents)
        document = documents[index]
        cpu_before = cpu_seconds()
        began = clock()
        try:
            results = program.run(document)
        except Exception as error:  # a failed op is a data point, not a crash
            results = None
            print(f"op {len(walls)} raised {error!r}", file=sys.stderr)
        walls.append(clock() - began)
        cpus.append(cpu_seconds() - cpu_before)
        # Clock stopped: reduce the outputs to digests for the oracle.
        if results is None:
            observed.append((index, None))
            continue
        observed.append((index, oracle.observe(results)))
        for key in oracle.keys:
            if key in results:
                peak_buffer = max(peak_buffer, results[key].peak_buffer_bytes)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # The oracle runs after the timed region so that its DOM trees are not
    # in peak_rss_mb.
    began = clock()
    oracle.compute(documents)
    events = [_count_events(document) for document in documents]
    prepare_s = ready.inputs_s + clock() - began
    failed = sum(
        1 for index, seen in observed if seen is None or not oracle.agrees(index, seen)
    )

    # Each timing metric is a median over the ops of one fifth of the run,
    # and the quietest fifth is reported: the machine's other tenants only
    # ever add time, in bursts of seconds to minutes, so the best fifth is
    # the nearest a run gets to the program's own time.
    ops = len(walls)
    op_events = [events[i % len(documents)] for i in range(ops)]
    op_megabytes = [doc_bytes[i % len(documents)] / 1e6 for i in range(ops)]
    median = statistics.median

    def quietest(per_op, pick=min, statistic=median):
        return pick(statistic(fifth) for fifth in fifths(per_op))

    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": ops,
        "failed": failed,
        "prepare_s": prepare_s,
        "setup_samples": workload.setup_samples,
        "metrics": {
            "setup_s": ready.setup_s,
            "events_per_s": quietest([n / wall for n, wall in zip(op_events, walls)], max),
            "mb_per_s": quietest([mb / wall for mb, wall in zip(op_megabytes, walls)], max),
            "pass_ms_p50": quietest(walls) * 1e3,
            "pass_ms_p90": quietest(walls, statistic=lambda block: percentile(block, 0.9)) * 1e3,
            "cpu_ms_per_mb": quietest([cpu / mb for cpu, mb in zip(cpus, op_megabytes)]) * 1e3,
            "peak_buffer_bytes": peak_buffer,
            "peak_rss_mb": peak_rss_kb / 1024,
            "failed_share": failed / ops,
        },
    }


def _count_events(document: str) -> int:
    return sum(1 for _ in parse_events(document))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("measure", "setup", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        report = {"setup_s": Ready(workload, args.seed, PROCESS_START).setup_s}
    elif args.mode == "measure":
        report = measure(workload, args.seed, args.seconds, started_at=PROCESS_START)
    else:
        from layers import trace

        report = trace(workload, args.seed, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
