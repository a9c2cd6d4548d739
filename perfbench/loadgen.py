"""Benchmark-owned TCP load generator: one process, open-loop schedules.

Started by ``run.py`` as its own process::

    python3 perfbench/loadgen.py --src SRC --conns C

It starts while the server is still starting.  The first line on standard
input is the server's port; it opens ``C`` connections to it, prints
``{"ready": true}`` and then executes commands, one JSON object per line
on standard input, answering each with one JSON line on standard output:

``{"op": "open_loop", "ref", "rate", "duration", "specs", "offset",
"answers"}``
    Send ``rate * duration`` requests on a fixed schedule (request ``i`` is
    due at ``t0 + i / rate``), round-robin over the connections, cycling
    through ``specs`` from ``offset``.  Each spec is ``{"kind", "items",
    "proto", "expect"}``: a resistance / neighbors / labels request over a
    list of items, sent as a JSON line (``proto="json"``) or a binary frame
    (``proto="frame"``).  Latency is measured from when a request was due,
    so a stall also delays every request behind it.  When a spec carries
    ``expect`` the answer is checked here; with ``answers`` set the raw
    answers and receive times come back for checking by the caller.
``{"op": "await_change", "ref", "pair", "old", "timeout"}``
    Poll one resistance pair every 2 ms until the server answers it with a
    value other than ``old``; returns when that answer arrived.
``{"op": "closed_loop", "ref", "specs", "duration", "proto", "offset"}``
    Each connection sends its next request as soon as the previous answer
    arrives, cycling through ``specs`` from ``offset``, all with protocol
    ``proto`` when given (else each spec's own); returns the completed
    count and rate.  Answers are checked against ``expect``.
``{"op": "stats"}``
    The server's ``GraphService.stats()`` via the TCP ``stats`` request.

All times are ``time.perf_counter()`` readings, which on Linux share one
monotonic clock across processes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from collections import deque

RTOL = 1e-9


class Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: deque = deque()
        self.sent = asyncio.Event()


def encode(spec: dict, ref: str, encode_frame) -> bytes:
    request = {"kind": spec["kind"], "artifact": ref}
    if spec["kind"] == "resistance":
        request["pairs"] = spec["items"]
    else:
        request["nodes"] = spec["items"]
    if spec["proto"] == "frame":
        return encode_frame(request, encoding=0)
    return json.dumps(request).encode() + b"\n"


def matches(answer, expect) -> bool:
    if answer is None or len(answer) != len(expect):
        return False
    for got, want in zip(answer, expect):
        if isinstance(want, list):
            if list(got) != want:
                return False
        elif abs(float(got) - want) > RTOL * abs(want) + 1e-12:
            return False
    return True


class LoadGenerator:
    def __init__(self, n_conns: int) -> None:
        from repro.serve.frames import encode_frame, read_frame

        self.port: int | None = None
        self.n_conns = n_conns
        self.conns: list[Connection] = []
        self._encode_frame = encode_frame
        self._read_frame = read_frame

    async def connect(self) -> None:
        for conn in self.conns:
            conn.writer.close()
        self.conns = []
        for _ in range(self.n_conns):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.conns.append(Connection(reader, writer))

    async def _read_reply(self, conn: Connection, proto: str):
        if proto == "frame":
            meta, array = await self._read_frame(conn.reader)
            if array is not None:
                meta["result"] = array.tolist()
            return meta
        return json.loads(await conn.reader.readline())

    async def open_loop(self, cmd: dict) -> dict:
        ref = cmd["ref"]
        specs = cmd["specs"]
        rate = float(cmd["rate"])
        n = max(1, int(round(rate * float(cmd["duration"]))))
        offset = int(cmd.get("offset", 0))
        want_answers = bool(cmd.get("answers", False))
        payloads = [encode(spec, ref, self._encode_frame) for spec in specs]
        due = [0.0] * n
        sent = [0.0] * n
        recv = [0.0] * n
        ok = [False] * n
        answers: list = [None] * n if want_answers else []
        errors: list[str] = []
        for conn in self.conns:
            conn.pending.clear()

        async def receive(conn: Connection, count: int) -> None:
            for _ in range(count):
                while not conn.pending:
                    conn.sent.clear()
                    await conn.sent.wait()
                i = conn.pending.popleft()
                spec = specs[(offset + i) % len(specs)]
                reply = await self._read_reply(conn, spec["proto"])
                recv[i] = time.perf_counter()
                result = reply.get("result") if reply.get("ok") else None
                if result is None:
                    if len(errors) < 5:
                        errors.append(str(reply.get("error")))
                    continue
                if want_answers:
                    answers[i] = result
                expect = spec.get("expect")
                ok[i] = expect is None or matches(result, expect)

        counts = [len(range(c, n, self.n_conns)) for c in range(self.n_conns)]
        receivers = [
            asyncio.ensure_future(receive(conn, counts[c]))
            for c, conn in enumerate(self.conns)
        ]
        t0 = time.perf_counter() + 0.002
        for i in range(n):
            due[i] = t0 + i / rate
        i = 0
        while i < n:
            now = time.perf_counter()
            if due[i] > now:
                await asyncio.sleep(due[i] - now)
                now = time.perf_counter()
            while i < n and due[i] <= now:
                conn = self.conns[i % self.n_conns]
                conn.writer.write(payloads[(offset + i) % len(payloads)])
                conn.pending.append(i)
                conn.sent.set()
                sent[i] = now
                i += 1
            await asyncio.sleep(0)
        timeout = float(cmd.get("timeout", 10.0))
        done, not_done = await asyncio.wait(receivers, timeout=timeout)
        for task in done:
            task.result()
        if not_done:
            for task in not_done:
                task.cancel()
            errors.append("timeout")
            await self.connect()
        latency_ms = [
            1e3 * (recv[k] - due[k]) if ok[k] else None for k in range(n)
        ]
        finished = [recv[k] for k in range(n) if recv[k] > 0]
        span = (max(finished) - t0) if finished else float("nan")
        return {
            "n": n,
            "ok": sum(ok),
            "latency_ms": latency_ms,
            "gen_lag_ms": [1e3 * (sent[k] - due[k]) for k in range(n)],
            "recv": recv if want_answers else [],
            "answers": answers,
            "achieved_rps": len(finished) / span if finished else 0.0,
            "errors": errors,
        }

    async def closed_loop(self, cmd: dict) -> dict:
        specs = cmd["specs"]
        if cmd.get("proto"):
            specs = [dict(spec, proto=cmd["proto"]) for spec in specs]
        payloads = [encode(spec, cmd["ref"], self._encode_frame) for spec in specs]
        offset = int(cmd.get("offset", 0))
        deadline = time.perf_counter() + float(cmd["duration"])
        counts = {"n": 0, "ok": 0}

        async def client(conn: Connection, start: int) -> None:
            k = start
            while time.perf_counter() < deadline:
                spec = specs[k % len(specs)]
                conn.writer.write(payloads[k % len(specs)])
                reply = await self._read_reply(conn, spec["proto"])
                counts["n"] += 1
                if reply.get("ok") and (
                    spec.get("expect") is None or matches(reply["result"], spec["expect"])
                ):
                    counts["ok"] += 1
                k += len(self.conns)

        t0 = time.perf_counter()
        await asyncio.gather(*(client(conn, offset + c) for c, conn in enumerate(self.conns)))
        return {**counts, "rps": counts["n"] / (time.perf_counter() - t0)}

    async def await_change(self, cmd: dict) -> dict:
        conn = self.conns[0]
        spec = {"kind": "resistance", "items": [cmd["pair"]], "proto": "json"}
        payload = encode(spec, cmd["ref"], self._encode_frame)
        deadline = time.perf_counter() + float(cmd.get("timeout", 30.0))
        old = cmd.get("old")
        while time.perf_counter() < deadline:
            conn.writer.write(payload)
            reply = await self._read_reply(conn, "json")
            now = time.perf_counter()
            if reply.get("ok"):
                value = reply["result"][0]
                if old is None or value != old:
                    return {"t": now, "value": value}
            await asyncio.sleep(0.002)
        return {"t": None, "value": None}

    async def stats(self) -> dict:
        conn = self.conns[0]
        conn.writer.write(json.dumps({"kind": "stats"}).encode() + b"\n")
        return (await self._read_reply(conn, "json"))["result"]


async def serve_commands(gen: LoadGenerator) -> None:
    loop = asyncio.get_running_loop()
    port = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
    if not port.isdigit():
        return  # stopped before the server was up
    gen.port = int(port)
    await gen.connect()
    print(json.dumps({"ready": True}), flush=True)
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line or line.strip() == "stop":
            break
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "open_loop":
            reply = await gen.open_loop(cmd)
        elif op == "closed_loop":
            reply = await gen.closed_loop(cmd)
        elif op == "await_change":
            reply = await gen.await_change(cmd)
        elif op == "stats":
            reply = await gen.stats()
        else:
            reply = {"error": f"unknown op {op!r}"}
        print(json.dumps(reply), flush=True)
    for conn in gen.conns:
        conn.writer.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--conns", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    asyncio.run(serve_commands(LoadGenerator(args.conns)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
