"""The DR-BW benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a fresh
interpreter with ``DRBW_JOBS`` cleared, so no warm in-memory state
crosses from one run into the next and training never forks a pool.

``--trace 0`` sets the workload up three times (twice without measuring)
and reports the median set-up time, then measures for ``S`` seconds and
prints the end-to-end metrics.  ``--trace 1`` measures ``S/2`` seconds
untraced and ``S/2`` seconds in a second interpreter with the layer
wrappers of ``perfbench/tracer.py`` installed, and prints the per-layer
metrics plus ``trace.overhead_pct``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every correctness check passed, 1 when one failed, 2 on a usage
error, a checkout without the program's sources, or a run that could not
finish (a workload interpreter failed or ran past the run's budget); the
last three print no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("detect-retrain", "detect-model", "serve-mix", "fleet-live")
#: Set-ups per untraced run; the median is reported as ``setup_s``.
SETUP_REPEATS = 3
#: Wall-clock budget for all interpreters one run starts: this margin
#: (set-ups and checks) plus ``RUN_BUDGET_PER_S`` times ``--seconds``.
RUN_MARGIN_S = 120.0
RUN_BUDGET_PER_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Also measured on some workloads, printed, and not gated; see README.
ALSO_UNITS = {
    "op_tail_ms": "ms",
    "served_p50_ms": "ms",
    "served_tail_ms": "ms",
    "open_late_max_ms": "ms",
    "windows_per_s": "1/s",
    "repeat_share": "share",
}


def layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "share"
    return "count"


def read_cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    # guest/guest_nice are already counted in user/nice.
    return ticks[7], sum(ticks[:8])


def host_facts(ticks0, ticks1) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": "unknown",
    }
    if (ROOT / ".git").exists():
        try:
            facts["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    if ticks0 and ticks1:
        steal = ticks1[0] - ticks0[0]
        total = ticks1[1] - ticks0[1]
        facts["steal_ticks"] = steal
        facts["steal_pct"] = 100.0 * steal / total if total else 0.0
    return facts


class RunError(Exception):
    """The run could not finish; it has no result to print."""


class Launcher:
    """Starts the workload interpreters of one run."""

    def __init__(self, args, work: str) -> None:
        self.args = args
        self.work = work
        self.budget = RUN_MARGIN_S + RUN_BUDGET_PER_S * args.seconds
        self.deadline = time.monotonic() + self.budget
        self.env = dict(os.environ)
        self.env.pop("DRBW_JOBS", None)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        # Anything that asks for a temporary file stays inside the checkout.
        self.env["TMPDIR"] = work
        self.count = 0

    def child(self, seconds: float, setup_only: bool = False, trace: bool = False) -> dict:
        self.count += 1
        work = os.path.join(self.work, f"child{self.count}")
        os.mkdir(work)
        cmd = [
            sys.executable, "-m", "perfbench.workload",
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", repr(seconds), "--work", work,
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        t0 = time.monotonic()
        # A session of its own, so the whole group (the workload and any
        # server it started) can be stopped together.
        proc = subprocess.Popen(
            [*cmd, "--t0", repr(t0)], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise RunError(f"the run took longer than its budget of {self.budget:g} s") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        if proc.returncode != 0:
            raise RunError(f"workload interpreter exited {proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])


def run(args, work: str) -> tuple[dict, list[dict]]:
    """Metrics and the raw child outputs of one run."""
    launcher = Launcher(args, work)
    if not args.trace:
        setups = [
            launcher.child(0.0, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        out = launcher.child(args.seconds)
        setups.append(out["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": out["ops_per_s"],
            "op_p50_ms": out["op_p50_ms"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        return metrics, [out]
    plain = launcher.child(args.seconds / 2)
    traced = launcher.child(args.seconds / 2, trace=True)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_pct"] = 100.0 * (plain["ops_per_s"] / traced["ops_per_s"] - 1.0)
    return metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="DR-BW benchmark: one workload, one run.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a DR-BW checkout", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    ticks0 = read_cpu_ticks()
    try:
        metrics, outs = run(args, work)
    except RunError as exc:
        print(f"perfbench: error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts = host_facts(ticks0, read_cpu_ticks())
    facts["numpy"] = outs[0]["numpy"]

    last = outs[-1]
    problems = [p for out in outs for p in out["problems"]]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, value in metrics.items():
        unit = END_TO_END.get(name) or layer_units(name)
        print(f"  {name:24s} {value:14.4f} {unit}")
    also = outs[0]["info"]
    for name, value in also.items():
        print(f"  {name:24s} {value:14.4f} {ALSO_UNITS[name]}  (also, not gated)")
    for out in outs:
        print(f"  ops {out['ops']} of {out['attempted']} attempted, "
              f"{out['failed']} failed, in {out['elapsed_s']:.3f} s")
        for err in out["errors"]:
            print(f"  failed: {err}")
    for prob in problems:
        print(f"  CHECK FAILED: {prob}")
    print("also " + json.dumps(also, sort_keys=True))
    print("host " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {
            name: {"value": value, "unit": END_TO_END.get(name) or layer_units(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
