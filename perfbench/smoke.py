"""Smoke test of the benchmark harness on tiny workloads (about a minute).

    python3 -m pytest perfbench/smoke.py     # or: python3 perfbench/smoke.py

Run from the repository root. The file name keeps it out of a plain
``pytest`` run. It copies ``src/coact``, ``perfbench`` and ``BENCHMARK.json``
into ``.perfbench/smoke`` and runs every workload there with ``--tiny``,
untraced and traced, then checks the result line against BENCHMARK.json.
Without ``src/coact`` the harness must exit non-zero and print no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src" / "coact", dest / "src" / "coact",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def bench(cwd: Path, workload: str, trace: int, tiny=True):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_follows_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_tiny_workloads_report_every_metric():
    cwd = copy_checkout(ROOT / ".perfbench" / "smoke" / "checkout", with_src=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(cwd, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, proc.stderr
            assert result["attempted"] >= 1 and result["failed"] == 0
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace)


def test_fails_without_the_program():
    cwd = copy_checkout(ROOT / ".perfbench" / "smoke" / "bare", with_src=False)
    proc = bench(cwd, SPEC["workloads"][0]["name"], 0, tiny=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_spec_follows_contract, test_tiny_workloads_report_every_metric,
                 test_fails_without_the_program):
        test()
        print(f"{test.__name__}: ok")
