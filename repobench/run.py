"""Repository benchmark: cold full-scale counts, mixed read/write serving
and two-worker fan-out, end to end and per layer.

    python3 repobench/run.py --workload serve-mixed --seed 0 --seconds 30
    python3 repobench/run.py --workload all --trace 1

Each workload runs in its own process under a 4 GiB address-space cap,
so a plan that would exhaust memory fails one op with MemoryError
instead of getting the process killed.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the workload
once untraced and once traced, and reports the per-layer metrics of the
traced run plus the tracing overhead between the two.  Every answer is
checked against an oracle; a wrong one makes the command exit 1.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import uuid

from report import (CAP_BYTES, DEFAULT_SEED, HELD_OUT_SEED, OUT_DIR,
                    ROOT, host_facts, median)

WORKLOADS = ("oneshot-full", "serve-mixed", "dist-fanout")
#: set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"drives every input; {HELD_OUT_SEED} is kept "
                             f"out of tuning for re-checking a gain")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny stand-ins, for the self-test")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt one answer before the oracle check, "
                             "for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"repobench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))
    sys.path.insert(0, str(ROOT / "src"))
    workload = _workload_class(args.workload)
    result = traced(workload, args) if args.trace else untraced(workload,
                                                                args)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def _workload_class(name: str):
    from fanout import DistFanout
    from oneshot import OneshotFull
    from serving import ServeMixed

    return {cls.name: cls for cls in (OneshotFull, ServeMixed,
                                      DistFanout)}[name]


def untraced(workload, args) -> dict:
    from layers import E2E, E2E_EXTRA
    from report import percentile, vm_hwm_mb

    setups = []
    for variant in reversed(range(SETUP_REPEATS)):
        t0 = time.perf_counter()
        wl = workload(args.seed, args.seconds, args.smoke, variant)
        setups.append(time.perf_counter() - t0)
        if variant:
            wl.close()
    wl.warm()
    out = wl.run(args.seconds)
    out.e2e.setdefault("peak_rss_mb", vm_hwm_mb())
    wl.close()
    _check(wl, out, args)
    metrics = {
        "latency_p50_ms": percentile(out.latencies_ms, 50),
        "latency_p99_ms": percentile(out.latencies_ms, 99),
        **out.e2e,
        **wl.e2e(out),
        "setup_s": median(setups),
        "fail_share": (out.failed + out.wrong) / max(out.attempted, 1),
        "wrong_answers": out.wrong,
    }
    _header(args, out)
    for name, unit in {**E2E, **E2E_EXTRA}.items():
        if name in metrics:
            print(f"{name:<28} {metrics[name]:>14.4f} {unit}")
    _table(args, out, metrics)
    return _result(out, {name: {"value": metrics[name], "unit": unit}
                         for name, unit in E2E.items()})


def traced(workload, args) -> dict:
    from layers import METHODS, PER_LAYER, from_spans
    from report import percentile
    from repro import tracing
    from repro.obs.trace import render_summary, summarize

    base_wl = workload(args.seed, args.seconds, args.smoke, 0)
    base_wl.warm()
    base = base_wl.run(args.seconds)
    base_wl.close()
    _check(base_wl, base, args)

    wl = workload(args.seed, args.seconds, args.smoke, 1)
    wl.warm()
    with tracing() as recorder:
        out = wl.run(args.seconds, recorder=recorder)
    wl.close()
    _check(wl, out, args)
    records = recorder.records
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder.dump(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")

    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(from_spans(records, out.answered))
    for method in METHODS:
        layers[f"plan.picks.{method}"] = \
            out.served.get(method, 0) / max(out.answered, 1)
    layers.update({k: v for k, v in out.layers.items() if k in PER_LAYER})
    layers.update(wl.layer_metrics(out))
    layers["trace.overhead_share"] = \
        percentile(out.latencies_ms, 50) \
        / max(percentile(base.latencies_ms, 50), 1e-9) - 1.0

    _header(args, out)
    print(render_summary(summarize(records)))
    for name, unit in PER_LAYER.items():
        print(f"{name:<28} {layers[name]:>14.4f} {unit}")
    _table(args, out, {})
    out.attempted += base.attempted
    out.failed += base.failed
    out.wrong += base.wrong
    return _result(out, {name: {"value": float(layers[name]), "unit": unit}
                         for name, unit in PER_LAYER.items()})


def _check(wl, out, args) -> None:
    if args.plant_wrong and out.answers:
        out.answers[0]["count"] += 1
    wl.verify(out)


def _result(out, metrics: dict) -> dict:
    return {"correct": out.wrong == 0, "attempted": out.attempted,
            "failed": out.failed + out.wrong, "metrics": metrics}


def _header(args, out) -> None:
    facts = host_facts()
    print(f"# {out.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cpus={facts['usable_cpus']}/"
          f"{facts['host_cpus']} cap={facts['cap_mb']}MiB "
          f"attempted={out.attempted} failed={out.failed} "
          f"wrong={out.wrong} python={facts['python']} "
          f"numpy={facts['numpy']} commit={facts['commit'][:12]}")


def _table(args, out, metrics: dict) -> None:
    from report import append_run_table

    common = {"run_id": uuid.uuid4().hex[:12], "workload": out.workload,
              "seed": args.seed, "trace": args.trace, **host_facts()}
    run_row = {**common, "row": "run", "attempted": out.attempted,
               "failed": out.failed, **metrics}
    append_run_table([{**common, **row} for row in out.rows] + [run_row])


def run_all(args) -> int:
    """Every workload, each in its own process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--smoke"] * args.smoke + ["--plant-wrong"] * args.plant_wrong
        child = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        try:
            got = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] &= got["correct"]
        combined["attempted"] += got["attempted"]
        combined["failed"] += got["failed"]
        for metric, value in got["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
