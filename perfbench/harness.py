"""Clients, the server process, and the measurement helpers the
workloads share.

Both clients expose ``call(op, payload) -> (seconds, response)``: the
wire client times one NDJSON line out and one line back over TCP and
returns the raw reply bytes; the in-process client times one
``PackageService.dispatch`` call and returns its dict.  One request is
in flight at a time in either case.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The repository checkout the benchmark runs from (parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, span dumps and logs; inside the checkout.
WORK = ROOT / ".perfbench"


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "service" / "engine.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU (the
    highest-numbered one it may use).

    One request is in flight at a time, so the client, the front-end and
    the shard worker never need to run at once.  Left free to move, they
    wake each other across vCPUs, and on a small shared VM such wake-ups
    made whole runs up to twice as slow at random.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fresh_dir(name: str) -> Path:
    """An empty directory under the scratch space."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics ----------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def hist_quantile(snapshot: dict | None, q: float) -> float:
    """A quantile of a program ``LogHistogram`` snapshot, interpolated
    inside the bucket the rank falls in (the snapshot's own p50 is the
    bucket's upper bound, a step function of the data)."""
    if not snapshot or not snapshot.get("count"):
        return 0.0
    from repro.obs.histogram import bucket_upper_s

    buckets = sorted((int(k), int(n)) for k, n in snapshot["buckets"].items())
    rank = q * snapshot["count"]
    seen = 0
    for index, n in buckets:
        if seen + n >= rank:
            lower = bucket_upper_s(index - 1)
            upper = bucket_upper_s(index)
            return (lower + (upper - lower) * (rank - seen) / n) * 1000.0
        seen += n
    return bucket_upper_s(buckets[-1][0]) * 1000.0


# -- processes -------------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def process_age_s(pid: int) -> float:
    """Seconds since ``pid`` was started (10 ms resolution)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / _CLK_TCK
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mib(pid: int) -> float:
    """High-water resident set (VmHWM) of ``pid``, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def worker_pids(parent: int) -> list[int]:
    """Child processes of ``parent`` (shard workers), not counting a
    multiprocessing resource tracker."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes().decode(errors="replace")
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == parent and "resource_tracker" not in cmdline:
            found.append(int(entry.name))
    return found


class Spill:
    """Responses written to a file as they arrive, read back for the
    checks: holding them in memory would make the in-process workloads'
    peak RSS grow with the run's throughput."""

    def __init__(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.path = WORK / f"responses-{os.getpid()}.ndjson"
        self._file = open(self.path, "w+b")
        self._end = 0

    def put(self, response) -> tuple[int, int]:
        data = (response if isinstance(response, bytes)
                else json.dumps(response).encode() + b"\n")
        self._file.seek(self._end)
        self._file.write(data)
        ref = (self._end, len(data))
        self._end += len(data)
        return ref

    def get(self, ref: tuple[int, int]) -> dict:
        self._file.seek(ref[0])
        return json.loads(self._file.read(ref[1]))

    def close(self) -> None:
        self._file.close()
        self.path.unlink(missing_ok=True)


# -- clients ---------------------------------------------------------------------

class InProcessClient:
    """Times ``PackageService.dispatch`` in this process."""

    def __init__(self, service, spans=None) -> None:
        self.service = service
        self.spans = spans

    def call(self, op: str, payload: dict, label: str = "") -> tuple[float, dict]:
        spans = self.spans
        if spans is None:
            started = time.perf_counter()
            response = self.service.dispatch(op, payload)
            return time.perf_counter() - started, response
        root = spans.begin_op(label or op)
        started = time.perf_counter()
        response = self.service.dispatch(op, payload)
        elapsed = time.perf_counter() - started
        spans.end_op(root)
        return elapsed, response

    @staticmethod
    def parse(response) -> dict:
        return response


class WireClient:
    """One NDJSON connection to ``python -m repro.service serve``."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, op: str, payload: dict, label: str = "") -> tuple[float, bytes]:
        line = json.dumps({"op": op, "request": payload}).encode() + b"\n"
        started = time.perf_counter()
        self.sock.sendall(line)
        reply = self.reader.readline()
        elapsed = time.perf_counter() - started
        if not reply:
            raise ConnectionError("server closed the connection")
        return elapsed, reply

    @staticmethod
    def parse(response) -> dict:
        return json.loads(response)

    def stats(self) -> dict:
        return self.parse(self.call("stats", {})[1])

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServerProcess:
    """``python -m repro.service serve`` on an ephemeral port.

    ``setup_s`` is the server process's age when it first answers a
    ``ping``: interpreter start, store population (city generation, LDA,
    arrays, segment write), shard-worker spawn and hydration.
    """

    def __init__(self, args: list[str], log_path: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
        )
        self._port: int | None = None
        self._ready = threading.Event()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        self.client: WireClient | None = None
        self.setup_s = 0.0

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._log.write(line)
            if self._port is None and line.startswith("listening on"):
                address = line.split()[2]
                self._port = int(address.rsplit(":", 1)[1].rstrip(","))
                self._ready.set()
        self._ready.set()

    def connect(self, timeout: float = 120.0) -> WireClient:
        if not self._ready.wait(timeout) or self._port is None:
            self.stop()
            raise RuntimeError(f"server did not start (see {self._log.name})")
        client = WireClient(self._port)
        reply = client.parse(client.call("ping", {})[1])
        self.setup_s = process_age_s(self.proc.pid)
        if not reply.get("ok"):
            raise RuntimeError(f"server ping failed: {reply}")
        self.client = client
        return client

    def peak_rss_mib(self) -> float:
        """Front-end plus shard workers."""
        pids = [self.proc.pid, *worker_pids(self.proc.pid)]
        return sum(peak_rss_mib(pid) for pid in pids)

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        self._log.close()
