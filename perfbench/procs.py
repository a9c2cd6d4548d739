"""Handles on the two helper processes the benchmark starts and stops."""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: BLAS / OpenMP pools pinned to one thread in every process: the client,
#: the server and the fitting process then use at most one core each.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> dict[str, str]:
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return {name: os.environ[name] for name in THREAD_VARS}


class Child:
    """A Python helper speaking JSON lines over its stdin / stdout."""

    def __init__(self, script: str, args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def read_until(self, prefix: str) -> str:
        """Next stdout line starting with ``prefix`` (other lines are skipped)."""
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line
        raise RuntimeError(f"{self.proc.args[1]} exited with {self.proc.wait()}")

    def close(self, timeout: float = 20.0) -> dict:
        """Send ``stop``, read the final JSON line, and wait for the exit."""
        final: dict = {}
        try:
            self.send("stop")
            self.proc.stdin.close()
            for line in self.proc.stdout:
                if line.startswith("{"):
                    final = json.loads(line)
            self.proc.wait(timeout=timeout)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        return final


class Server(Child):
    """``server.py``: a GraphService following ``ref`` in ``registry``."""

    def __init__(self, src: str, registry: str, ref: str, *, trace: bool) -> None:
        args = ["--src", src, "--registry", registry, "--ref", ref]
        super().__init__("server.py", args + (["--trace"] if trace else []))
        self.port: int | None = None

    def wait_ready(self) -> int:
        self.port = int(self.read_until("PORT ").split()[1])
        return self.port


class LoadGen(Child):
    """``loadgen.py``: the one process that sends every TCP request."""

    def __init__(self, src: str, conns: int) -> None:
        super().__init__("loadgen.py", ["--src", src, "--conns", str(conns)])

    def connect(self, port: int) -> None:
        """Hand over the server's port and wait until every connection is open."""
        self.send(str(port))
        self.read_until("{")

    def submit(self, op: str, **fields) -> None:
        self.send(json.dumps({"op": op, **fields}))

    def result(self) -> dict:
        return json.loads(self.read_until("{"))

    def call(self, op: str, **fields) -> dict:
        self.submit(op, **fields)
        return self.result()
