"""Compare the three engines on the bibliography workload.

Run with::

    python examples/bibliography_comparison.py [num_books]

Runs every catalogued bibliography query (XMP-style Q1–Q6) on a generated
bibliography with the FluX engine, the projection baseline and the DOM
baseline, checks that all three produce identical results, and prints the
memory/runtime comparison tables — a small-scale version of experiments
T1/T2 (``benchmarks/bench_t1_memory_by_query.py``, ``bench_t2_runtime_by_query.py``).
"""

import sys

from repro import DomEngine, FluxEngine, ProjectionEngine
from repro.bench import BenchmarkHarness, format_table
from repro.workloads import BIB_DTD_STRONG, generate_bibliography, queries_for_workload


def main() -> None:
    num_books = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    document = generate_bibliography(num_books=num_books, seed=7)
    print(f"bibliography: {num_books} books, {len(document)} bytes\n")

    engines = {
        "flux": FluxEngine(BIB_DTD_STRONG),
        "projection": ProjectionEngine(BIB_DTD_STRONG),
        "dom": DomEngine(BIB_DTD_STRONG),
    }
    harness = BenchmarkHarness(engines)

    for spec in queries_for_workload("bib"):
        print(f"running {spec.key}: {spec.title}")
        harness.run(spec.xquery, document, spec.key, f"bib-{num_books}")
    print()

    print(format_table(harness.measurements, metric="peak_buffer_bytes",
                       title="peak buffer memory per query"))
    print()
    print(format_table(harness.measurements, metric="elapsed_seconds",
                       title="evaluation runtime per query"))
    print()
    print("(all engines produced identical outputs — the harness verifies this)")


if __name__ == "__main__":
    main()
