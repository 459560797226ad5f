"""vkit benchmark: seeded CLI workloads driven as a closed loop.

    python3 perfbench/run.py --workload persist --seed 1 --seconds 40 --trace 0

Run from the repository root.  One client in this process calls
``vkit.cli.main(argv)`` on inputs generated from the seed; the next op
starts only when the previous one has finished and its outputs have been
checked against references that do not use vkit (``checks.py``).  Repeats
of an input must give byte-identical outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and then with the span recorder of ``spans.py`` installed,
and prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is the JSON result; the line before it is the run
metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import checks
import workloads
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
OUTPUT_FILES = {"persist": ("diagram.csv", "diagram.svg"),
                "straighten": ("certification.jsonl", "summary.json"),
                "spread": ("certification.jsonl", "summary.json"),
                "verify": ()}


def import_vkit():
    """Import vkit from this checkout's ``src``; exit 2 when it is missing."""
    if not (SRC / "vkit" / "cli.py").is_file():
        print(f"error: no vkit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vkit.cli
    import vkit.verify
    if Path(vkit.cli.__file__).resolve().parent != SRC / "vkit":
        print(f"error: imported vkit from {vkit.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return vkit.cli, [name for name, _ in vkit.verify.ALL_CHECKS]


def call_cli(cli, op) -> tuple[str, int]:
    """Run one op in-process; return its standard output and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(op.argv))
    return out.getvalue(), rc


class Runner:
    """Runs ops through the CLI, checks them and keeps the per-op record."""

    def __init__(self, cli, ops, check_names):
        self.cli, self.ops, self.check_names = cli, ops, check_names
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def run(self, i: int) -> float:
        op = self.ops[i % len(self.ops)]
        if op.out is not None:
            shutil.rmtree(op.out, ignore_errors=True)
        start = perf_counter()
        try:
            stdout, rc = call_cli(self.cli, op)
        except (Exception, SystemExit) as exc:      # any crash is a failed op
            elapsed, problems = perf_counter() - start, [f"raised {exc!r}"]
        else:
            elapsed = perf_counter() - start
            problems = checks.check_op(op, rc, stdout, self.check_names)
            digest = self._digest(op, rc, stdout)
            if digest != self.digests.setdefault(i % len(self.ops), digest):
                problems.append("output differs from an earlier run of the same input")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"op {i} ({op.argv[0]} {op.size}): " + "; ".join(problems))
        return elapsed

    @staticmethod
    def _digest(op, rc, stdout) -> str:
        h = hashlib.sha256(f"{rc}\n{stdout}".encode())
        for name in OUTPUT_FILES[op.kind]:
            path = op.out / name
            h.update(path.read_bytes() if path.is_file() else b"<missing>")
        return h.hexdigest()

    def loop(self, seconds: float) -> tuple[list[float], float]:
        """Closed loop from op 0 for ``seconds`` of wall time."""
        times = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            times.append(self.run(len(times)))
        return times, perf_counter() - start

    def traced_loop(self, seconds: float, recorder: Recorder) -> tuple[int, float]:
        """Each op untraced, then again traced; returns the op count and the
        traced-over-untraced wall-time ratio.  Running the pair back to back
        keeps machine drift out of the ratio."""
        plain = traced = 0.0
        i = 0
        start = perf_counter()
        while perf_counter() - start < seconds:
            t0 = perf_counter()
            self.run(i)
            t1 = perf_counter()
            recorder.install()
            try:
                t2 = perf_counter()
                self.run(i)
                recorder.end_op()
                t3 = perf_counter()
            finally:
                recorder.uninstall()
            plain += t1 - t0
            traced += t3 - t2
            i += 1
        return i, traced / plain


def tail(times: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing ``vkit.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import vkit.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, ops) -> dict:
    lines = sum(p.read_text().count("\n") for p in (SRC / "vkit").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "src_vkit_lines": lines, "input_sizes": sorted({op.size for op in ops}),
        "op_mix": dict(Counter(op.kind for op in ops)), "op_cycle": len(ops),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="vkit closed-loop CLI benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli, check_names = import_vkit()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = workloads.make_ops(args.workload, args.seed, work)
        meta = metadata(args, ops)
        runner = Runner(cli, ops, check_names)
        runner.run(0)                       # warm-up: lazy imports, first allocations
        if args.trace == 0:
            times, wall = runner.loop(seconds=args.seconds)
            tail_s, tail_pct, beyond = tail(times)
            metrics = {
                "ops_per_s": (len(times) / wall, "1/s"),
                "op_p50_s": (statistics.median(times), "s"),
                "op_tail_s": (tail_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
                "setup_s": (setup_seconds(), "s"),
            }
            meta.update(ops=len(times), tail_percentile=round(tail_pct, 2),
                        tail_samples_beyond=beyond)
        else:
            recorder = Recorder()
            n_ops, overhead = runner.traced_loop(args.seconds, recorder)
            metrics = recorder.metrics(n_ops, check_names)
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            spans_path = ROOT / ".perfbench_out" / f"trace-{args.workload}.csv"
            recorder.write(spans_path)
            meta.update(ops=n_ops, spans=len(recorder.spans),
                        spans_file=str(spans_path.relative_to(ROOT)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):     # still in use by another run
            work.parent.rmdir()

    meta.update(attempted=runner.attempted, failed=runner.failed,
                fail_ratio=runner.failed / runner.attempted)
    for line in runner.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
