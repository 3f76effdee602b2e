"""Launching, sampling and stopping the systems under test.

Every system under test is a fresh Python process (plus, for the cluster,
the backends it spawns) started from the checkout's ``src`` tree.  Byte
code is compiled before every measurement into a pycache prefix under
``.bench_build`` that the benchmark owns, so a process start times the
program's own start-up and never the compilation of its modules.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PYCACHE = BUILD / "pycache"
LOGS = BUILD / "logs"
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Everything a system under test imports, so priming compiles all of it:
#: the program's modules, the standard-library modules its serving paths
#: import lazily, and the benchmark's own in-process caller.
_PRIME = """
import compileall, encodings.idna, logging.handlers, selectors, signal, socketserver
import statistics, uuid
import repro.cli, repro.api, repro.service, repro.cluster, repro.obs.logs
from repro.core.engine import available_solvers
available_solvers()
compileall.compile_dir({src!r}, quiet=2)
compileall.compile_dir({bench!r}, quiet=2)
"""


def program_env() -> Dict[str, str]:
    """The environment of every system under test (and of the oracle)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def prime_bytecode() -> None:
    """Compile the program's byte code into the benchmark's pycache prefix.

    This is the benchmark's build step, run before every measurement: the
    first run in a checkout compiles everything, later runs recompile only
    the modules whose source changed since (``compileall`` and the import
    system both skip up-to-date byte code).
    """
    PYCACHE.mkdir(parents=True, exist_ok=True)
    env = program_env()
    del env["PYTHONDONTWRITEBYTECODE"]
    code = _PRIME.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=600)


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class Launched:
    """One launched system under test, in its own process group."""

    def __init__(self, argv: List[str], log_name: str, stdin: bool = False) -> None:
        LOGS.mkdir(parents=True, exist_ok=True)
        self.started = time.perf_counter()
        self._log = open(LOGS / f"{log_name}.log", "ab")
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        self.pids = [self.process.pid]

    def read_message(self, key: str, timeout: float = 120.0) -> object:
        """Read stdout lines until a JSON object carrying ``key`` arrives."""
        watchdog = threading.Timer(timeout, self._kill_group)
        watchdog.start()
        try:
            while True:
                line = self.process.stdout.readline()  # type: ignore[union-attr]
                if not line:
                    raise RuntimeError(
                        f"system under test exited before sending {key!r} "
                        f"(code {self.process.poll()}); see {self._log.name}"
                    )
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                if isinstance(payload, dict) and key in payload:
                    return payload[key]
        finally:
            watchdog.cancel()

    def send(self, text: str) -> None:
        self.process.stdin.write(text.encode() + b"\n")  # type: ignore[union-attr]
        self.process.stdin.flush()  # type: ignore[union-attr]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mib(self) -> float:
        return sum(peak_rss_mib(pid) for pid in self.pids)

    def _kill_group(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM, then SIGKILL the group; wait until all pids end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self._kill_group()
        self.process.wait()
        deadline = time.monotonic() + timeout
        while not all(_ended(pid) for pid in self.pids):
            if time.monotonic() > deadline:
                raise RuntimeError(f"processes {self.pids} did not end")
            time.sleep(0.05)
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self.process.stdin is not None:
            self.process.stdin.close()
        self._log.close()


def launch_server(command: str, args: List[str], log_name: str):
    """Start ``repro.cli serve``/``cluster`` on an ephemeral TCP port.

    Returns the launched system, the ``(host, port)`` it listens on and, for
    a cluster, its backends' addresses (their pids join the sampled pids).
    """
    launched = Launched(
        [sys.executable, "-m", "repro.cli", command, "--port", "0", *args], log_name
    )
    backends: List[Tuple[str, int]] = []
    try:
        if command == "cluster":
            for backend in launched.read_message("cluster")["backends"]:  # type: ignore[index]
                launched.pids.append(int(backend["pid"]))
                backends.append((backend["host"], int(backend["port"])))
        listening = launched.read_message("listening")
    except BaseException:
        launched.stop()
        raise
    return launched, (listening["host"], int(listening["port"])), backends  # type: ignore[index]


def calibration_cpu_s() -> float:
    """CPU seconds of a fixed pure-Python loop: machine speed, not a metric."""
    start = time.process_time()
    total = 0
    for i in range(4_000_000):
        total += i % 7
    return time.process_time() - start
