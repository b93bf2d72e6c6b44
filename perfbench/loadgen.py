"""HTTP load sent in-process through in-memory streams.

:func:`run_phase` is an open loop: requests arrive on a seeded Poisson
schedule regardless of how fast the server answers (independent
users), and each request's latency runs from the moment it was *due*,
not from when the generator got round to sending it.  A stall therefore
shows as latency on every request due during it, and
:attr:`RequestResult.late` reports how far behind its schedule the
generator itself ran.  :func:`run_closed` is a closed loop: a fixed
number of clients each send their next request when the last one is
answered, which finds the most the server completes per second.

Each request is handed to ``handle(reader, writer)`` -- the signature
of :meth:`repro.serve.http.HttpFrontend.handle` -- with an
:class:`asyncio.StreamReader` pre-fed with the raw HTTP request and a
:class:`MemoryWriter` that keeps the response bytes.  No sockets.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
from dataclasses import dataclass
from time import perf_counter


class MemoryWriter:
    """The part of :class:`asyncio.StreamWriter` a handler uses."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        #: ``perf_counter()`` of the first write (the response leaving)
        self.written_at: float | None = None

    def get_extra_info(self, name: str, default=None):
        """Peer address of a local client; ``default`` otherwise."""
        return ("127.0.0.1", 0) if name == "peername" else default

    def write(self, data: bytes) -> None:
        """Keep ``data``; stamp the first write."""
        if self.written_at is None:
            self.written_at = perf_counter()
        self.chunks.append(data)

    async def drain(self) -> None:
        """Nothing is buffered elsewhere."""

    def close(self) -> None:
        """Nothing to release."""

    async def wait_closed(self) -> None:
        """Nothing to wait for."""


def post_request(body: bytes) -> bytes:
    """A complete HTTP/1.1 ``POST /parse`` carrying ``body``."""
    head = (
        "POST /parse HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def split_response(raw: bytes) -> tuple[int, bytes]:
    """``(status, body)`` of a raw HTTP response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def body_digest(body: "str | bytes") -> str:
    """SHA-256 of a response body (UTF-8 when given as text)."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    return hashlib.sha256(body).hexdigest()


@dataclass
class RequestResult:
    """One request's schedule, outcome and timing (loop-clock seconds).

    A 200 answer is kept as the digest of its body only (the checks
    compare digests), so the responses a run collects do not add to
    the memory the program is measured by; other answers keep their
    body, which names the error.
    """

    index: int
    #: key of the body sent (as yielded by the ``bodies`` iterator)
    key: object
    due: float
    launched: float
    done: float
    status: int
    #: :func:`body_digest` of the response body
    digest: str
    #: the response body of a non-200 answer; empty for a 200
    body: str = ""

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its response."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent the request behind its schedule."""
        return self.launched - self.due

    @property
    def error_code(self) -> "str | None":
        """The typed error code of a non-200 JSON response."""
        if self.status == 200:
            return None
        try:
            return json.loads(self.body).get("code", str(self.status))
        except ValueError:
            return str(self.status)


@dataclass
class PhaseResult:
    """All requests of one fixed-rate phase."""

    #: requests per second: offered (open loop) or answered 200
    #: (closed loop)
    rate: float
    duration: float
    requests: list

    @property
    def ok(self) -> list:
        """Requests answered 200."""
        return [r for r in self.requests if r.status == 200]

    def latencies_ms(self) -> list[float]:
        """Per-request latency in ms; failed requests count as ``inf``."""
        return [
            r.latency * 1000.0 if r.status == 200 else float("inf")
            for r in self.requests
        ]


def poisson_schedule(rate: float, duration: float, rng: random.Random):
    """Due offsets (seconds) of a Poisson arrival process on ``[0, duration)``."""
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


async def _exchange(handle, body: bytes, on_request, index: int):
    """One ``POST /parse`` of ``body`` through ``handle``; ``(status,
    digest, error body)`` of the answer."""
    reader = asyncio.StreamReader()
    reader.feed_data(post_request(body))
    reader.feed_eof()
    writer = MemoryWriter()
    if on_request is not None:
        on_request(index, writer)
    await handle(reader, writer)
    status, text = split_response(b"".join(writer.chunks))
    error = "" if status == 200 else text.decode("utf-8")
    return status, body_digest(text), error


async def run_phase(handle, bodies, rate: float, duration: float,
                    rng: random.Random, *, on_request=None) -> PhaseResult:
    """Send one request per ``(key, body)`` drawn from the ``bodies``
    iterator, at ``rate`` req/s for ``duration`` s.

    ``on_request(index, writer)``, when given, runs inside each
    request's task before the handler does (the traced run uses it to
    bind the task to its request).
    """
    loop = asyncio.get_running_loop()
    offsets = poisson_schedule(rate, duration, rng)
    results: list[RequestResult | None] = [None] * len(offsets)
    tasks: list[asyncio.Task] = []

    async def one(i: int, key, due: float, launched: float,
                  body: bytes) -> None:
        answer = await _exchange(handle, body, on_request, i)
        results[i] = RequestResult(i, key, due, launched, loop.time(), *answer)

    start = loop.time() + 0.005
    for i, offset in enumerate(offsets):
        due = start + offset
        wait = due - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        key, body = next(bodies)
        tasks.append(loop.create_task(
            one(i, key, due, loop.time(), body)
        ))
    await asyncio.gather(*tasks)  # re-raises a handler crash
    return PhaseResult(rate, duration, results)


async def run_closed(handle, bodies, clients: int, total: int, *,
                     on_request=None) -> PhaseResult:
    """``total`` requests from ``clients`` closed-loop clients.

    Each client sends its next request as soon as the previous one is
    answered.  The result's ``rate`` is the 200 answers per second of
    the phase, and ``duration`` how long the ``total`` requests took.
    """
    loop = asyncio.get_running_loop()
    results: list[RequestResult] = []

    async def client() -> None:
        while len(results) < total:
            i = len(results)
            key, body = next(bodies)
            sent = loop.time()
            results.append(None)
            answer = await _exchange(handle, body, on_request, i)
            results[i] = RequestResult(i, key, sent, sent, loop.time(), *answer)

    start = loop.time()
    await asyncio.gather(*(client() for _ in range(clients)))
    duration = loop.time() - start
    ok = sum(r.status == 200 for r in results)
    return PhaseResult(ok / duration, duration, results)
