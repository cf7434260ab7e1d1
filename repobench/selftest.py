"""Self-test of the benchmark: every workload on tiny stand-ins.

    python3 repobench/selftest.py

Runs all three workloads for one second each, untraced and traced, and
checks that every metric prints by name with its unit and that the last
line is the result object.  Then plants a wrong answer in each workload
and checks the oracle catches it (exit 1, ``correct`` false), and checks
that a directory holding only the benchmark fails without a result.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import E2E, E2E_EXTRA, PER_LAYER  # noqa: E402
from report import OUT_DIR, ROOT  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMOKE = ("--smoke", "--seconds", "1", "--seed", "5")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    child = subprocess.run([sys.executable, str(script), *args],
                           capture_output=True, text=True, cwd=cwd,
                           timeout=600)
    return child.returncode, child.stdout, child.stderr


def sections(stdout: str) -> dict[str, str]:
    """Each workload's printed block, keyed by workload name."""
    out = {}
    for block in re.split(r"^# ", stdout, flags=re.M)[1:]:
        out[block.split()[0]] = block
    return out


def check_metrics(stdout: str, expected: dict) -> None:
    blocks = sections(stdout)
    assert set(blocks) == set(WORKLOADS), f"missing workloads: {blocks}"
    for workload, block in blocks.items():
        for name, unit in expected.items():
            if name == "write_p50_ms" and workload != "serve-mixed":
                continue    # the only workload that writes
            line = re.search(rf"^{re.escape(name)} +\S+ {re.escape(unit)}$",
                             block, flags=re.M)
            assert line, f"{workload}: no line for {name} [{unit}]"
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    for workload in WORKLOADS:
        for name, unit in expected.items():
            if name in E2E_EXTRA:
                continue
            got = result["metrics"][f"{workload}.{name}"]
            assert got["unit"] == unit and isinstance(got["value"], float)


def main() -> int:
    code, stdout, stderr = bench("--workload", "all", "--trace", "0", *SMOKE)
    assert code == 0, stderr
    check_metrics(stdout, {**E2E, **E2E_EXTRA})
    print("untraced: every end-to-end metric printed with its unit")

    code, stdout, stderr = bench("--workload", "all", "--trace", "1", *SMOKE)
    assert code == 0, stderr
    check_metrics(stdout, PER_LAYER)
    print("traced: every per-layer metric printed with its unit")

    code, stdout, _ = bench("--workload", "all", "--plant-wrong", *SMOKE)
    assert code == 1, "a planted wrong answer must fail the run"
    assert not json.loads(stdout.strip().splitlines()[-1])["correct"]
    for workload, block in sections(stdout).items():
        wrong = re.search(r"^wrong_answers +(\S+)", block, flags=re.M)
        assert wrong and float(wrong.group(1)) >= 1, workload
    print("oracle: a planted wrong answer is caught in every workload")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, stdout, _ = bench("--workload", WORKLOADS[0], "--seed", "0",
                            "--seconds", "1", cwd=bare,
                            script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    assert code != 0 and not stdout.strip(), \
        "the benchmark alone must not produce a result"
    print("bare checkout: fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
