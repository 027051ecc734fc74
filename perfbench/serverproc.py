"""Run ``repro serve`` in its own process and tear it down reliably.

The untraced benchmark starts the real command line, ``python -m repro
serve``.  The traced run starts :mod:`launcher` instead, which installs
the tracer's wrappers in the server process and then calls the same
``repro.cli.main``.  Either way the server is stopped with SIGINT (the
command's own Ctrl-C path, which closes the database and its WAL), then
killed if it has not exited within a grace period.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

HERE = pathlib.Path(__file__).resolve().parent

_LISTENING = re.compile(r"^serving .* on ([0-9.]+):(\d+) ")


class ServerError(RuntimeError):
    """The server process failed to start or died."""


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """One ``repro serve`` process over ``database``.

    ``trace_out`` selects the traced launcher, which writes its spans and
    counters to that file when the server stops.  The server's standard
    error goes to ``server.log`` beside the database directory.
    """

    def __init__(
        self,
        src: pathlib.Path,
        database: pathlib.Path,
        trace_out: "Optional[pathlib.Path]" = None,
    ):
        serve = ["serve", "--database", str(database), "--port", "0"]
        if trace_out is None:
            self.argv: List[str] = [sys.executable, "-m", "repro", *serve]
        else:
            self.argv = [
                sys.executable, str(HERE / "launcher.py"),
                "--trace-out", str(trace_out), *serve,
            ]
        self._env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self._env.pop("PYTHONWARNINGS", None)
        self._log_path = database.parent / "server.log"
        self.proc: "Optional[subprocess.Popen]" = None
        self.host = "127.0.0.1"
        self.port = 0
        self.rss_mb = 0.0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        """Spawn the server and wait until it reports its listening port."""
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=self._env,
        )
        found = threading.Event()

        def watch() -> None:
            for raw in self.proc.stdout:
                match = _LISTENING.match(raw.decode("utf-8", "replace"))
                if match and not found.is_set():
                    self.host, self.port = match.group(1), int(match.group(2))
                    found.set()

        self._watcher = threading.Thread(target=watch, daemon=True)
        self._watcher.start()
        deadline = time.monotonic() + timeout
        while not found.wait(0.01):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise ServerError(f"server did not start: {self.log_tail()}")
        return self

    def stop(self, grace: float = 30.0) -> None:
        """Record peak RSS, then SIGINT, wait, and kill as a last resort."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.rss_mb = peak_rss_mb(self.proc.pid)
            except (OSError, ServerError):
                pass
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._watcher.join(5.0)
        self.proc.stdout.close()
        self._log.close()
        self.proc = None

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self._log_path.read_text(errors="replace")
        except OSError:
            return "(no log)"
        return "\n".join(text.splitlines()[-lines:])
