"""Helpers shared by the perfbench workloads: timing, memory and the host stamp."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

now = time.perf_counter


class Pass:
    """One timed pass over a workload's operations."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.short_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.per_op: dict[str, float] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(why)


def median(values):
    return float(statistics.median(values))


def peak_rss_mib(children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _burn(n: int) -> None:
    total = 0
    for i in range(n):
        total += i * i


def _burn_child(barrier, n: int, out) -> None:
    barrier.wait()
    start = now()
    _burn(n)
    out.put((start, now()))


def cpu_burn_speedup(n: int = 2_000_000) -> float:
    """Measured speedup of two concurrent CPU burns over two sequential ones.

    ``nproc`` counts the CPUs the scheduler allows; a throttled or shared
    host can still run two processes barely faster than one.  Both legs
    run in forked children, so neither pays for imports.  Fork, not spawn:
    spawn-context locks start a resource-tracker process that outlives
    the benchmark.
    """
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()

    def leg(workers: int) -> float:
        barrier = ctx.Barrier(workers)
        procs = [ctx.Process(target=_burn_child, args=(barrier, n, out)) for _ in range(workers)]
        try:
            for p in procs:
                p.start()
            spans = [out.get(timeout=60) for _ in procs]
        finally:
            # Every child ends before the probe returns or raises.
            for p in procs:
                if p.is_alive():
                    p.join(timeout=60)
                if p.is_alive():
                    p.kill()
                    p.join()
        return max(e for _, e in spans) - min(s for s, _ in spans)

    one = leg(1)
    two = leg(2)
    out.close()
    out.join_thread()
    return 2.0 * one / two


def source_digest(root: Path) -> str:
    """Digest of every Python file under ``src/``.

    The benchmark runs from exported checkouts that are not git
    repositories, so this names the code that was measured when no git
    sha is available.
    """
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    """HEAD of ``root`` when it is itself a git work tree (not inside another)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def environment_stamp(root: Path) -> dict:
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "nproc": nproc(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "src_digest": source_digest(root),
        "cpu_burn_speedup_2proc": round(cpu_burn_speedup(), 3),
    }


def run_setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time of ``count`` fresh interpreters, each measured inside itself."""
    script = Path(__file__).resolve().parent / "run.py"
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(script), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples
