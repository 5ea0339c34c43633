"""Client and load generator for the tuning daemon.

:class:`TuningClient` is a small blocking socket client (threads are the
concurrency story on the client side — the daemon is the async part).
:func:`run_load` drives N concurrent clients with a duplicate-heavy
request mix and reports aggregate requests/sec plus p50/p99 latency —
the workload shape the daemon is built for (fleets re-asking the same
question), used by ``make serve-smoke`` and
``benchmarks/test_perf_serve.py``.

Run directly::

    python -m repro.serve.client --port 9000 submit -k convolution -d nvidia
    python -m repro.serve.client --port 9000 load --clients 8 --requests 4
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.recipe import TuneSpec
from repro.serve import protocol


class ServerRejected(RuntimeError):
    """The daemon refused admission (carries the retry hint)."""

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(f"rejected: {reason} (retry after {retry_after_s}s)")
        self.reason = reason
        self.retry_after_s = retry_after_s


class TuningClient:
    """One blocking line-JSON connection to the daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, timeout=120.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self.sock.makefile("rb")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self.sock.close()

    def __enter__(self) -> "TuningClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- wire ------------------------------------------------------------------

    def send(self, obj: Dict[str, Any]) -> None:
        self.sock.sendall(protocol.encode(obj))

    def recv(self) -> Dict[str, Any]:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    # -- operations ------------------------------------------------------------

    def ping(self) -> bool:
        self.send({"op": "ping", "id": "ping"})
        return self.recv().get("type") == "pong"

    def stats(self) -> Dict[str, Any]:
        self.send({"op": "stats", "id": "stats"})
        reply = self.recv()
        return reply["stats"]

    def shutdown(self) -> None:
        self.send({"op": "shutdown", "id": "shutdown"})
        self.recv()  # "draining"

    def predict(
        self,
        kernel: str,
        device: str,
        config: Dict[str, int],
        n_train: int = TuneSpec.n_train,
        seed: int = TuneSpec.seed,
    ) -> Dict[str, Any]:
        self.send({
            "op": "predict", "id": "predict", "kernel": kernel,
            "device": device, "config": config, "n_train": n_train,
            "seed": seed,
        })
        reply = self.recv()
        if reply.get("type") == "error":
            raise RuntimeError(reply["error"])
        return reply

    def truth(self, kernel: str, device: str, index: int) -> Dict[str, Any]:
        self.send({
            "op": "truth", "id": "truth", "kernel": kernel,
            "device": device, "index": index,
        })
        reply = self.recv()
        if reply.get("type") == "error":
            raise RuntimeError(reply["error"])
        return reply

    def tune(
        self,
        kernel: str,
        device: str,
        n_train: int = TuneSpec.n_train,
        m_candidates: int = TuneSpec.m_candidates,
        seed: int = TuneSpec.seed,
        budget_s: Optional[float] = TuneSpec.budget_s,
        faults: Optional[str] = TuneSpec.faults,
        stream: bool = False,
        on_event=None,
        req_id: str = "tune",
    ) -> Dict[str, Any]:
        """Submit one campaign; blocks until the terminal response.

        Streamed ``event`` lines are passed to ``on_event`` as they
        arrive.  Raises :class:`ServerRejected` on admission refusal.
        """
        self.send(
            {
                "op": "tune",
                "id": req_id,
                "kernel": kernel,
                "device": device,
                "n_train": n_train,
                "m_candidates": m_candidates,
                "seed": seed,
                "budget_s": budget_s,
                "faults": faults,
                "stream": stream,
            }
        )
        while True:
            reply = self.recv()
            kind = reply.get("type")
            if kind == "event":
                if on_event is not None:
                    on_event(reply)
                continue
            if kind == "ack":
                continue
            if kind == "rejected":
                raise ServerRejected(
                    reply.get("reason", "?"), reply.get("retry_after_s", 1.0)
                )
            if kind == "error":
                raise RuntimeError(reply.get("error", "server error"))
            if kind == "result":
                return reply
            raise RuntimeError(f"unexpected reply type {kind!r}")

    def watch(
        self,
        kernel: str,
        device: str,
        n_train: int = 400,
        m_candidates: int = 40,
        seed: int = 0,
        steps: int = 120,
        interval_s: float = 30.0,
        retune_window: int = 32,
        drift: Optional[str] = None,
        faults: Optional[str] = None,
        stream: bool = True,
        on_event=None,
        req_id: str = "watch",
    ) -> Dict[str, Any]:
        """Run one online campaign; blocks until the terminal ``result``.

        Streamed ``event`` lines (drift alarms, re-tunes, spans) are
        passed to ``on_event`` as they arrive.  Raises
        :class:`ServerRejected` on admission refusal.
        """
        self.send(
            {
                "op": "watch",
                "id": req_id,
                "kernel": kernel,
                "device": device,
                "n_train": n_train,
                "m_candidates": m_candidates,
                "seed": seed,
                "steps": steps,
                "interval_s": interval_s,
                "retune_window": retune_window,
                "drift": drift,
                "faults": faults,
                "stream": stream,
            }
        )
        while True:
            reply = self.recv()
            kind = reply.get("type")
            if kind == "event":
                if on_event is not None:
                    on_event(reply)
                continue
            if kind == "ack":
                continue
            if kind == "rejected":
                raise ServerRejected(
                    reply.get("reason", "?"), reply.get("retry_after_s", 1.0)
                )
            if kind == "error":
                raise RuntimeError(reply.get("error", "server error"))
            if kind == "result":
                return reply
            raise RuntimeError(f"unexpected reply type {kind!r}")


# -- load generation -----------------------------------------------------------


def run_load(
    host: str,
    port: int,
    n_clients: int = 8,
    requests_per_client: int = 4,
    kernels=("convolution",),
    devices=("nvidia",),
    n_train: int = 400,
    m_candidates: int = 40,
    seeds=(0,),
    faults: Optional[str] = None,
    max_retries: int = 50,
) -> Dict[str, Any]:
    """Duplicate-heavy load: every client cycles the same small request
    grid, so the daemon sees mostly-identical asks — coalescing and the
    result cache carry the day.  Rejections honor ``retry_after_s`` up to
    ``max_retries`` times (bounded, so a wedged server fails loudly
    instead of hanging the generator).  Returns aggregate stats.
    """
    latencies: List[float] = []
    outcomes = {"ok": 0, "coalesced": 0, "cached": 0, "rejections": 0}
    errors: List[str] = []
    lock = threading.Lock()

    def worker(cid: int) -> None:
        try:
            with TuningClient(host, port) as client:
                for k in range(requests_per_client):
                    grid = k % (len(kernels) * len(devices) * len(seeds))
                    kernel = kernels[grid % len(kernels)]
                    device = devices[(grid // len(kernels)) % len(devices)]
                    seed = seeds[grid // (len(kernels) * len(devices))]
                    t0 = time.perf_counter()
                    retries = 0
                    while True:
                        try:
                            reply = client.tune(
                                kernel,
                                device,
                                n_train=n_train,
                                m_candidates=m_candidates,
                                seed=seed,
                                faults=faults,
                                req_id=f"c{cid}-r{k}",
                            )
                            break
                        except ServerRejected as rej:
                            retries += 1
                            if retries > max_retries:
                                raise
                            with lock:
                                outcomes["rejections"] += 1
                            time.sleep(min(rej.retry_after_s, 0.2))
                    dt = time.perf_counter() - t0
                    with lock:
                        latencies.append(dt)
                        outcomes["ok"] += 1
                        if reply.get("coalesced"):
                            outcomes["coalesced"] += 1
                        if reply.get("cached"):
                            outcomes["cached"] += 1
        except Exception as exc:  # pragma: no cover - surfaced in summary
            with lock:
                errors.append(f"client {cid}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(cid,), name=f"load-{cid}")
        for cid in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - t0

    latencies.sort()

    def pct(p: float) -> float:
        if not latencies:
            return float("nan")
        i = min(len(latencies) - 1, int(round(p * (len(latencies) - 1))))
        return latencies[i]

    total = n_clients * requests_per_client
    return {
        "clients": n_clients,
        "requests": total,
        "completed": outcomes["ok"],
        "coalesced": outcomes["coalesced"],
        "cached": outcomes["cached"],
        "rejections": outcomes["rejections"],
        "errors": errors,
        "wall_s": round(wall_s, 6),
        "req_per_s": round(outcomes["ok"] / wall_s, 3) if wall_s else 0.0,
        "p50_s": round(pct(0.50), 6),
        "p99_s": round(pct(0.99), 6),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="client / load generator for the tuning daemon",
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, required=True)
    sub = ap.add_subparsers(dest="mode", required=True)

    one = sub.add_parser("submit", help="submit one tune request")
    one.add_argument("-k", "--kernel", required=True)
    one.add_argument("-d", "--device", required=True)
    one.add_argument("-n", "--n-train", type=int, default=TuneSpec.n_train)
    one.add_argument("-m", "--m-candidates", type=int,
                     default=TuneSpec.m_candidates)
    one.add_argument("--seed", type=int, default=TuneSpec.seed)
    one.add_argument("--budget", type=float, default=None)
    one.add_argument("--faults", default=None)
    one.add_argument("--stream", action="store_true",
                     help="print campaign trace events as they happen")

    watch = sub.add_parser(
        "watch", help="run one online (drift-monitored) campaign"
    )
    watch.add_argument("-k", "--kernel", required=True)
    watch.add_argument("-d", "--device", required=True)
    watch.add_argument("-n", "--n-train", type=int, default=400)
    watch.add_argument("-m", "--m-candidates", type=int, default=40)
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument("--steps", type=int, default=120)
    watch.add_argument("--interval", type=float, default=30.0,
                       help="simulated seconds between monitoring probes")
    watch.add_argument("--retune-window", type=int, default=32)
    watch.add_argument("--drift", default=None,
                       help="drift profile spec (e.g. thermal-throttle)")
    watch.add_argument("--faults", default=None)
    watch.add_argument("--no-stream", action="store_true",
                       help="suppress the live event stream")

    load = sub.add_parser("load", help="run the duplicate-heavy load mix")
    load.add_argument("--clients", type=int, default=8)
    load.add_argument("--requests", type=int, default=4)
    load.add_argument("-n", "--n-train", type=int, default=400)
    load.add_argument("-m", "--m-candidates", type=int, default=40)
    load.add_argument("--faults", default=None)
    load.add_argument("--shutdown", action="store_true",
                      help="ask the daemon to drain afterwards")

    args = ap.parse_args(argv)
    if args.mode == "submit":
        with TuningClient(args.host, args.port) as client:
            reply = client.tune(
                args.kernel,
                args.device,
                n_train=args.n_train,
                m_candidates=args.m_candidates,
                seed=args.seed,
                budget_s=args.budget,
                faults=args.faults,
                stream=args.stream,
                on_event=lambda e: print(
                    f"[event] {e['record'].get('type')}: "
                    f"{e['record'].get('name')}",
                    file=sys.stderr,
                ),
            )
        print(json.dumps(reply, indent=2))
        return 0

    if args.mode == "watch":
        with TuningClient(args.host, args.port, timeout=600.0) as client:
            reply = client.watch(
                args.kernel,
                args.device,
                n_train=args.n_train,
                m_candidates=args.m_candidates,
                seed=args.seed,
                steps=args.steps,
                interval_s=args.interval,
                retune_window=args.retune_window,
                drift=args.drift,
                faults=args.faults,
                stream=not args.no_stream,
                on_event=lambda e: print(
                    f"[event] {e['record'].get('type')}: "
                    f"{e['record'].get('name')}",
                    file=sys.stderr,
                ),
            )
        print(json.dumps(reply, indent=2))
        return 0

    summary = run_load(
        args.host,
        args.port,
        n_clients=args.clients,
        requests_per_client=args.requests,
        n_train=args.n_train,
        m_candidates=args.m_candidates,
        faults=args.faults,
    )
    print(json.dumps(summary, indent=2))
    if args.shutdown:
        with TuningClient(args.host, args.port) as client:
            client.shutdown()
    return 1 if summary["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
