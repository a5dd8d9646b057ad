"""Server side of the newline-delimited-JSON protocol.

Both TCP front-ends in this repo (:func:`repro.serve.service.run_server`
and :class:`repro.dist.coordinator.SweepCoordinator`) speak it: one JSON
object per line in, one ``{"ok": bool, ...}`` object per line out, every
error reported in-band so a bad request never costs the peer its
connection.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable

__all__ = ["serve_json_lines"]


async def serve_json_lines(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        dispatch: Callable[[dict], Awaitable[dict]]) -> None:
    """Answer requests on one connection until the peer hangs up.

    Each decoded line goes to ``await dispatch(payload)``, whose dict
    comes back as ``{"ok": true, **fields}``; whatever it raises (or an
    undecodable line) comes back as ``{"ok": false, "error": ...}``.  A
    line over the reader's ``limit`` (set it in
    :func:`asyncio.start_server`) is read to its end and discarded in
    limit-sized pieces, then answered with an error like any other bad
    request: the peer finishes sending before it reads the reply, and
    the framing is intact for its next request.
    """
    skipped = 0
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial      # EOF; maybe one unterminated line
                if not line or skipped:
                    break
            except asyncio.LimitOverrunError as exc:
                await reader.readexactly(exc.consumed)
                skipped += exc.consumed
                continue
            if skipped:
                response = {"ok": False, "error":
                            f"ValueError: request line of "
                            f"{skipped + len(line)} bytes exceeds this "
                            "server's line limit"}
                skipped = 0
            else:
                try:
                    response = {"ok": True,
                                **await dispatch(json.loads(line))}
                except Exception as exc:  # protocol boundary: report
                    response = {"ok": False,
                                "error": f"{type(exc).__name__}: {exc}"}
            writer.write((json.dumps(response) + "\n").encode())
            try:
                await writer.drain()
            except ConnectionError:
                break
    finally:
        writer.close()
