"""The layered benchmark of the streaming pipeline: one command, every metric.

    python3 benchmarks/layered/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
    python3 benchmarks/layered/run.py --aa

Each workload runs in a child process of its own (``worker.py``), so
``setup_s`` and ``peak_rss_mb`` belong to that workload.  Metric names, units
and regression bounds are read from ``BENCHMARK.json`` at the repository
root; this file only starts the children, prints what they measured and
checks it.  With ``--workload`` the last line of standard output is one
JSON object ``{correct, attempted, failed, metrics}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A count made by the program repeats exactly between runs of one seed.
EXACT_UNITS = ("count", "bytes")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child(mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Run ``worker.py`` to completion and return the JSON on its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """One timed run with tracing off, plus set-up-only children for ``setup_s``."""
    report = child("measure", workload, seed, seconds)
    setups = [report["metrics"]["setup_s"]]
    for _ in range(report["setup_samples"] - 1):
        setups.append(child("setup", workload, seed, seconds)["setup_s"])
    report["setups"] = setups
    report["metrics"]["setup_s"] = statistics.median(setups)
    report["correct"] = report["failed"] == 0
    return report


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    report = child("trace", workload, seed, seconds)
    report["correct"] = not report["problems"]
    return report


def driver_line(report: dict, named: Sequence[dict]) -> str:
    """The contract's result object: exactly the metrics ``BENCHMARK.json`` names."""
    units = {m["name"]: m["unit"] for m in named}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": report["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def print_end_to_end(spec: dict, report: dict) -> None:
    metrics = report["metrics"]
    print(
        f"== {report['workload']}  seed {report['seed']}  end to end, tracing off: "
        f"{report['attempted']} ops (samples of pass_ms), bench.prepare_s "
        f"{report['prepare_s']:.3f} s =="
    )
    for m in spec["end_to_end"]:
        print(
            f"  {m['name']:<20}{metrics[m['name']]:>16.6g} {m['unit']:<9} "
            f"{m['better']} is better, bound {m['bound']:.0%}"
        )
    print(
        f"  {'failed_share':<20}{metrics['failed_share']:>16.6g} {'ratio':<9} "
        f"{report['failed']} of {report['attempted']} ops raised or differed from DomEngine"
    )
    setups = ", ".join(f"{s:.3f}" for s in report["setups"])
    print(f"  setup_s is the median of {len(report['setups'])} set-ups: {setups}")


def print_traced(spec: dict, report: dict) -> None:
    metrics = report["metrics"]
    print(
        f"== {report['workload']}  seed {report['seed']}  per layer, traced: "
        f"{report['attempted']} ops, medians per op; spans in {report['trace_file']} =="
    )
    for m in spec["per_layer"]:
        print(f"  {m['name']:<32}{metrics[m['name']]:>16.6g} {m['unit']}")
    print(
        f"  parser.expat_ratio = {metrics['parser.expat_events_per_s']:.6g} expat callbacks/s "
        f"/ {metrics['parser.events_per_s']:.6g} events/s"
    )
    print(
        f"  engines.dom_ratio = {metrics['engines.flux_solo_s']:.6g} s FluX solo "
        f"/ {metrics['engines.dom_s']:.6g} s DomEngine"
    )
    shares = sorted(report["self_shares"].items(), key=lambda item: -item[1])
    print("  self time per op, share of the untraced op:")
    for layer, share in shares:
        print(f"    {layer:<24}{share:>8.1%}")
    print(f"  slowest layer: {report['slowest_layer']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


# ------------------------------------------------------------------ A/A control


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def run_aa(spec: dict, seed: int, seconds: float) -> int:
    """Two full sets of runs of this checkout, compared metric by metric."""
    names = [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, dict]] = []
    for order in (names, names[::-1]):
        reports = {}
        for name in order:
            print(f"A/A set {len(sets) + 1}: {name}", file=sys.stderr)
            end_to_end = run_end_to_end(name, seed, seconds)
            traced = run_traced(name, seed, seconds)
            reports[name] = {
                "correct": end_to_end["correct"] and traced["correct"],
                "metrics": {**traced["metrics"], **end_to_end["metrics"]},
            }
        sets.append(reports)

    print("# A/A baseline of the layered benchmark\n")
    print(
        f"Two full sets of runs of one checkout (`run.py --aa --seed {seed} --seconds "
        f"{seconds:g}`), the second set in reverse workload order.\n"
    )
    print(f"- nproc: {os.cpu_count()}")
    print(f"- CPU: {cpu_model()}")
    print(f"- Python: {platform.python_version()} ({platform.platform()})\n")
    bad = 0
    for name in names:
        first, second = sets[0][name], sets[1][name]
        print(f"## {name}\n")
        print("| metric | unit | set 1 | set 2 | gap | allowed | verdict |")
        print("|---|---|---:|---:|---:|---:|---|")
        rows = [(m, m["bound"]) for m in spec["end_to_end"]]
        rows += [(m, None) for m in spec["per_layer"]]
        rows.append(({"name": "failed_share", "unit": "ratio"}, 0.0))
        for m, bound in rows:
            a, b = first["metrics"][m["name"]], second["metrics"][m["name"]]
            gap = relative_gap(a, b)
            if m["unit"] in EXACT_UNITS:
                bound = 0.0
            ok = bound is None or gap <= bound
            allowed = "-" if bound is None else f"{bound:.0%}" if bound else "exact"
            bad += not ok
            print(
                f"| `{m['name']}` | {m['unit']} | {a:.6g} | {b:.6g} | {gap:.2%} | {allowed} "
                f"| {'ok' if ok else 'DISAGREES'} |"
            )
        print()
        if not (first["correct"] and second["correct"]):
            bad += 1
            print("A run of this workload failed its correctness checks.\n")
    print(f"Result: {'every metric agrees' if not bad else f'{bad} disagreements'}.")
    return 1 if bad else 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ------------------------------------------------------------------------- main


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="inputs are a function of the seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="timed seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the separate traced run that gives the per-layer metrics")
    parser.add_argument("--aa", action="store_true", help="A/A control: every workload twice, compared")
    args = parser.parse_args()

    if args.aa:
        return run_aa(spec, args.seed, args.seconds)
    correct = True
    for name in [args.workload] if args.workload else names:
        if args.trace:
            report = run_traced(name, args.seed, args.seconds)
            print_traced(spec, report)
            print(driver_line(report, spec["per_layer"]))
        else:
            report = run_end_to_end(name, args.seed, args.seconds)
            print_end_to_end(spec, report)
            print(driver_line(report, spec["end_to_end"]))
        correct = correct and report["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
