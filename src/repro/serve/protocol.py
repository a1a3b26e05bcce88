"""Newline-JSON request protocol for :class:`RumorBlockingService`.

One request per line, one response per line. Requests are JSON objects
with an ``op`` and an optional ``id`` (echoed back verbatim so clients
can pipeline):

``{"op": "query", "id": 1, "seeds": [3, 7], "budget": 4,
   "eps": 0.1, "delta": 0.05, "alpha": 0.8}``
    Answer a rumor-blocking question; ``budget`` omitted/null selects
    to the ``alpha`` protection target instead.

``{"op": "update", "id": 2, "insert": [[0, 5], [2, 9, 0.7]],
   "delete": [[1, 4]]}``
    Apply an edge-update batch; responds with the touched node ids and
    the new graph version.

``{"op": "stats", "id": 3}``
    Snapshot of the warm state.

``{"op": "shutdown", "id": 4}``
    Acknowledge and stop serving (the connection handler returns).

Responses carry ``{"id": ..., "ok": true, ...payload}`` on success and
``{"id": ..., "ok": false, "error": "..."}`` on failure; a failed
request never kills the server. A request line longer than
:data:`MAX_REQUEST_BYTES` is answered with such an error (``"id"`` is
null: the line is not parsed), the rest of it is skipped, and the
connection keeps serving. The same handler serves stdio
(``repro serve``) and unix-socket transports; every state-touching op
goes through the service's async wrappers, so concurrent connections
serialise on the service lock in arrival order.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Dict, Optional

from repro.serve.service import RumorBlockingService

__all__ = [
    "MAX_REQUEST_BYTES",
    "process_request",
    "handle_connection",
    "serve_stdio",
    "serve_unix_socket",
]

#: Longest request line the transports accept, newline excluded. A
#: 1 MiB line holds an update batch of tens of thousands of edges.
MAX_REQUEST_BYTES = 1 << 20


async def process_request(
    service: RumorBlockingService, request: Dict[str, object]
) -> Dict[str, object]:
    """Dispatch one decoded request; never raises on bad input."""
    if not isinstance(request, dict):
        return {"id": None, "ok": False, "error": "request must be a JSON object"}
    request_id = request.get("id")
    op = request.get("op")
    try:
        if op == "query":
            result = await service.query_async(
                request["seeds"],
                budget=request.get("budget"),
                alpha=request.get("alpha", 0.8),
                epsilon=request.get("eps", 0.1),
                delta=request.get("delta", 0.05),
            )
            return {"id": request_id, "ok": True, **result}
        if op == "update":
            touched = await service.apply_updates_async(
                request.get("insert", ()), request.get("delete", ())
            )
            return {
                "id": request_id,
                "ok": True,
                "touched": touched,
                "graph_version": service.graph.version,
            }
        if op == "stats":
            return {"id": request_id, "ok": True, **(await service.stats_async())}
        if op == "shutdown":
            return {"id": request_id, "ok": True, "shutdown": True}
        return {"id": request_id, "ok": False, "error": f"unknown op {op!r}"}
    except Exception as exc:  # noqa: BLE001 - protocol boundary
        return {
            "id": request_id,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
        }


async def _skip_rest_of_line(
    reader: asyncio.StreamReader, consumed: int
) -> None:
    """Drop an oversize line from ``reader``, through its newline (or EOF).

    ``consumed`` is the :class:`asyncio.LimitOverrunError` count: bytes
    still buffered that belong to the line.
    """
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.IncompleteReadError:
            return  # the stream ended inside the line
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


async def _read_request_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at EOF), or ``None`` for an oversize one.

    An oversize line is consumed whole, so the next call starts on the
    line after it.
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        line = exc.partial  # EOF; a last line may lack its newline
    except asyncio.LimitOverrunError as exc:
        await _skip_rest_of_line(reader, exc.consumed)
        return None
    if len(line.rstrip(b"\r\n")) > MAX_REQUEST_BYTES:
        return None  # the reader's own limit was larger than ours
    return line


async def handle_connection(
    service: RumorBlockingService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> bool:
    """Serve one newline-JSON stream until EOF or a shutdown op.

    Returns True when the client requested shutdown (the caller then
    stops the whole server, not just this connection).
    """
    while True:
        line = await _read_request_line(reader)
        if line is None:
            response: Dict[str, object] = {
                "id": None,
                "ok": False,
                "error": f"request line exceeds {MAX_REQUEST_BYTES} bytes; skipped",
            }
        else:
            line = line.strip()
            if not line:
                if reader.at_eof():
                    return False
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                response = {
                    "id": None,
                    "ok": False,
                    "error": f"invalid JSON: {exc}",
                }
            else:
                response = await process_request(service, request)
        writer.write((json.dumps(response, sort_keys=True) + "\n").encode("utf-8"))
        await writer.drain()
        if response.get("shutdown"):
            return True


async def serve_stdio(service: RumorBlockingService) -> None:
    """Serve newline-JSON requests on stdin/stdout until EOF or shutdown."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=MAX_REQUEST_BYTES)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    transport, protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, protocol, reader, loop)
    await handle_connection(service, reader, writer)


async def serve_unix_socket(
    service: RumorBlockingService, path: str
) -> None:
    """Serve on a unix socket; a shutdown op from any client stops it.

    Connections are handled concurrently; the service lock serialises
    their state-touching requests in arrival order. On shutdown every
    other open connection is closed (its client reads EOF) and its
    handler returns on its own before this coroutine does, so no handler
    is left to be cancelled at loop teardown.
    """
    done = asyncio.Event()
    handlers: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def _handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()  # a handler always runs in its own task
        handlers[task] = writer
        task.add_done_callback(lambda _task: handlers.pop(_task, None))
        try:
            if await handle_connection(service, reader, writer):
                done.set()
        except ConnectionError:
            pass  # the stream closed mid-request (the peer, or a shutdown)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    server = await asyncio.start_unix_server(
        _handler, path=path, limit=MAX_REQUEST_BYTES
    )
    async with server:
        await done.wait()
        server.close()  # accept no new connection while the others drain
        for writer in handlers.values():
            writer.close()
        await asyncio.gather(*handlers)
