"""Closed-loop load generator for the tuning daemon (workload serve-mixed).

Each client thread owns one connection and waits for every reply before it
sends the next request.  A client sends a ``tune`` request whose key is
distinct from every other request (a fresh seed each time), so nothing
coalesces or hits the result cache, then a burst of ``predict`` requests
against the model that tune just cached.  Tune latency is split at the
``ack`` line: send -> ack is admission, ack -> result is execution.

This module uses only the standard library, so ``run.py`` can use it
without importing the program.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, Dict, List


class Connection:
    """One line-JSON connection to the daemon."""

    def __init__(self, port: int, timeout: float = 150.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._rfile = self.sock.makefile("rb")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self.sock.close()

    def send(self, obj: Dict) -> None:
        self.sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))

    def recv(self) -> Dict:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def call(self, obj: Dict) -> Dict:
        self.send(obj)
        return self.recv()


def wait_for_pong(port: int, deadline: float) -> bool:
    """Connect and ping until the daemon answers or ``deadline`` passes."""
    while time.monotonic() < deadline:
        try:
            conn = Connection(port, timeout=5.0)
        except OSError:
            time.sleep(0.005)
            continue
        try:
            return conn.call({"op": "ping", "id": "ping"}).get("type") == "pong"
        finally:
            conn.close()
    return False


def _client(
    cid: int,
    port: int,
    keys: Callable[[int, int], Dict],
    stop_at: float,
    max_tunes: float,
    out: Dict,
    lock: threading.Lock,
) -> None:
    tunes: List[Dict] = []
    predicts: List[Dict] = []
    errors: List[str] = []
    try:
        conn = Connection(port)
    except OSError as exc:
        with lock:
            out["errors"].append(f"client {cid}: connect failed: {exc}")
        return
    try:
        k = 0
        while k < max_tunes and time.monotonic() < stop_at:
            key = keys(cid, k)
            k += 1
            req = {
                "op": "tune", "id": f"c{cid}-t{k}",
                "kernel": key["kernel"], "device": key["device"],
                "n_train": key["n_train"], "m_candidates": key["m_candidates"],
                "seed": key["seed"], "stream": False,
            }
            rec = {"key": key, "t_send": time.monotonic()}
            conn.send(req)
            while True:
                reply = conn.recv()
                kind = reply.get("type")
                if kind == "ack":
                    rec["t_ack"] = time.monotonic()
                    rec["coalesced"] = bool(reply.get("coalesced"))
                    rec["cached"] = bool(reply.get("cached"))
                    continue
                if kind == "event":
                    continue
                rec["t_done"] = time.monotonic()
                rec["type"] = kind
                rec["reply"] = reply
                break
            tunes.append(rec)
            if kind != "result":
                errors.append(f"client {cid}: tune {key['seed']}: {reply}")
                continue
            for cfg in key["predict"]:
                t0 = time.monotonic()
                reply = conn.call({
                    "op": "predict", "id": f"c{cid}-p{k}",
                    "kernel": key["kernel"], "device": key["device"],
                    "n_train": key["n_train"], "seed": key["seed"],
                    "config": cfg["config"],
                })
                t1 = time.monotonic()
                ok = reply.get("type") == "prediction"
                predicts.append({
                    "key": key, "t_send": t0, "t_done": t1, "ok": ok,
                    "predicted_s": reply.get("predicted_time_s"),
                    "true_s": cfg["true_s"], "index": reply.get("index"),
                    "expect_index": cfg["index"],
                })
                if not ok:
                    errors.append(f"client {cid}: predict: {reply}")
    except (OSError, ValueError) as exc:
        errors.append(f"client {cid}: {type(exc).__name__}: {exc}")
    finally:
        conn.close()
        with lock:
            out["tunes"].extend(tunes)
            out["predicts"].extend(predicts)
            out["errors"].extend(errors)


def distinct_keys(
    base_seed: int,
    devices: List[str],
    predict: Dict[str, List[Dict]],
    n_train: int,
    m_candidates: int,
    n_clients: int = 2,
) -> Callable[[int, int], Dict]:
    """The serve-mixed request plan: convolution tunes with rotating
    devices and a seed no other request uses, each followed by a predict
    burst over that device's held-out configurations."""

    def keys(cid: int, k: int) -> Dict:
        j = k * n_clients + cid
        device = devices[j % len(devices)]
        return {
            "kernel": "convolution", "device": device, "n_train": n_train,
            "m_candidates": m_candidates, "seed": base_seed + j,
            "predict": predict[device],
        }

    return keys


def run_clients(
    port: int,
    keys: Callable[[int, int], Dict],
    seconds: float,
    n_clients: int = 2,
    max_tunes: float = float("inf"),
) -> Dict:
    """Drive ``n_clients`` closed-loop clients for ``seconds``, or until
    each client sent ``max_tunes`` tunes.

    ``keys(client, k)`` returns the k-th request of a client: kernel,
    device, n_train, m_candidates, seed and the ``predict`` burst (a list
    of ``{"config", "index", "true_s"}``).  Clients start no new tune once
    ``seconds`` have passed and finish the one in flight, so the window
    ends when the last reply arrives.
    """
    out: Dict[str, List] = {"tunes": [], "predicts": [], "errors": []}
    lock = threading.Lock()
    t0 = time.monotonic()
    threads = [
        threading.Thread(
            target=_client,
            args=(c, port, keys, t0 + seconds, max_tunes, out, lock),
            name=f"bench-client-{c}",
        )
        for c in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170.0)
    out["hung_clients"] = sum(t.is_alive() for t in threads)
    out["window_s"] = time.monotonic() - t0
    return out


def warm_up(port: int, keys: Callable[[int, int], Dict], n_clients: int = 2) -> Dict:
    """One untimed tune and predict burst per client, so the daemon's lazy
    set-up (imports, thread pools, BLAS threads) is done before the
    measured window.  ``keys`` must not share a key with the window."""
    return run_clients(port, keys, float("inf"), n_clients, max_tunes=1)

