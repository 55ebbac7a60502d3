"""pencurve benchmark: one workload, measured in fresh worker processes.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fit_scale --seed 1 --seconds 24 --trace 0

The worker imports pencurve from the checkout's src/ with every BLAS thread
pool set to one thread. Set-up time is timed from process start to the
worker's READY line, over several fresh processes, and the median is
reported. The last line of stdout is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import PER_LAYER, THREAD_VARS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fit_scale", "fit_exponents", "oracle_certify", "check_large")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("energy_gmean", "energy"), ("ok_share", "share"))
SETUP_SAMPLES = 5  # fresh processes timed to READY; the last one also measures
TIME_LIMIT = 170.0  # seconds for the whole run, set-ups included


class BenchError(Exception):
    pass


def _wait_ready(proc, deadline: float) -> None:
    """Block until the worker prints READY on stdout (read unbuffered, so select is exact)."""
    seen = b""
    fd = proc.stdout.fileno()
    while b"READY\n" not in seen:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("worker did not finish set-up in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(f"worker exited during set-up with code {proc.wait()}")
            seen = seen[-16:] + chunk


def _worker(args, workdir: Path, deadline: float, setup_only: bool, result: Path):
    """Run one worker; return its set-up seconds."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT)
    try:
        _wait_ready(proc, deadline)
        setup = time.monotonic() - t0
        proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup


def _rounded(values):
    return [_rounded(v) if isinstance(v, list) else round(v, 4) for v in values]


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build))
    try:
        result_path = workdir / "result.json"
        setups = [_worker(args, workdir, deadline, k < SETUP_SAMPLES - 1, result_path)
                  for k in range(SETUP_SAMPLES)]
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    rounds = {k: _rounded(v) for k, v in result["rounds"].items()}
    print(f"# rounds {json.dumps(rounds)} setup_s {json.dumps([round(s, 4) for s in setups])}")
    if args.trace:
        values = result["per_layer"]
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setups))
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise BenchError(f"non-finite metric in {metrics}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pencurve" / "__init__.py").is_file():
        print(f"error: no pencurve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
