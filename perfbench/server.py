"""Benchmark-owned server launcher: one ``GraphService`` over TCP.

Started by ``run.py`` as its own process::

    python3 perfbench/server.py --src SRC --registry DIR --ref NAME@latest [--trace]

It builds a :class:`repro.serve.GraphService` on the registry, follows
``--ref`` with :meth:`GraphService.follow` (hot swap on every publish) and
serves it with :func:`repro.serve.serve_forever` on a free localhost port.
It prints ``PORT <n>`` once listening.  A ``stop`` line on standard input
(or end of input) shuts it down, after which it prints one JSON line with
its peak RSS, the swaps it made and, when traced, its per-layer span
summary.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading
import time

#: How often ``follow`` re-resolves the reference.  Each poll re-reads and
#: re-checksums the artifact (visible as ``artifacts.load_s``, a few ms per
#: poll); the wait for the next poll is a random part of every
#: ``publish_to_serve_s`` sample, so it is kept short.
POLL_INTERVAL_S = 0.01


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--ref", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from layertrace import SERVE_TARGETS, Tracer

    from repro.artifacts import ModelRegistry
    from repro.serve import GraphService, serve_forever

    tracer = Tracer()
    if args.trace:
        tracer.install(SERVE_TARGETS)
        tracer.enabled = True

    swaps: list[tuple[float, str]] = []

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        service = GraphService(registry=ModelRegistry(args.registry))
        ready = asyncio.Event()
        bound: list = []

        def control() -> None:
            for line in sys.stdin:
                if line.strip() == "stop":
                    break
            loop.call_soon_threadsafe(stop.set)

        follower = asyncio.ensure_future(
            service.follow(
                args.ref,
                poll_interval=POLL_INTERVAL_S,
                stop=stop,
                on_swap=lambda s: swaps.append((time.perf_counter(), s.checksum)),
            )
        )
        server = asyncio.ensure_future(
            serve_forever(service, port=0, ready=ready, bound_addresses=bound)
        )
        await ready.wait()
        print(f"PORT {bound[0][1]}", flush=True)
        threading.Thread(target=control, daemon=True).start()
        await stop.wait()
        await follower
        server.cancel()
        try:
            await server
        except asyncio.CancelledError:
            pass
        await service.aclose()

    asyncio.run(run())
    summary = tracer.summary() if args.trace else {}
    print(
        json.dumps({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "swaps": swaps,
            "trace": summary,
        }),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
