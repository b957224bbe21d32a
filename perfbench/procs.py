"""Child processes, timed and reaped with their resource use."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path


@dataclasses.dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


class Context:
    """The checkout under test: its root, the scratch directory the
    benchmark writes to, and the environment children get, which makes
    them import vbisnr from the checkout's ``src``."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, argv) -> Child:
        """Run one child process to completion and return its resource use.

        Output goes through files so that the child is reaped with
        ``os.wait4`` (which returns its rusage) and never blocks on a full
        pipe.
        """
        with open(self.work / "child.out", "w+b") as out, \
                open(self.work / "child.err", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(
                returncode=proc.returncode,
                wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0,
                stdout=out.read(),
                stderr=err.read(),
            )

    def time_import(self, module: str, importtime: bool = False,
                    marker: str = "") -> tuple[float, str]:
        """Seconds a fresh interpreter spends on ``import <module>``, and its
        stderr. With ``importtime`` the child runs under ``-X importtime``
        and writes ``marker`` to stderr just before the import."""
        code = ("import sys, time; sys.stderr.write(%r); t = time.perf_counter(); "
                "import %s; print(time.perf_counter() - t)" % (marker, module))
        flags = ["-X", "importtime"] if importtime else []
        child = self.run([sys.executable, *flags, "-c", code])
        stderr = child.stderr.decode(errors="replace")
        if child.returncode != 0:
            raise RuntimeError(f"import {module} failed: {stderr}")
        return float(child.stdout), stderr
