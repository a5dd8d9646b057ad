"""Wire protocol of the distributed sweep fabric.

The coordinator and its workers speak the same newline-delimited-JSON
idiom as the allocation-query service (:mod:`repro.serve.service`): one
JSON object per line in, one ``{"ok": bool, ...}`` object per line out,
every error reported in-band instead of killing the connection.  On top
of that, sweep points and their results — arbitrary picklable Python
objects — travel as base64-encoded pickles inside JSON string fields,
so the framing stays line-oriented and debuggable with ``nc``.

Ops (all requests carry ``"op"``):

``register``
    ``{"op": "register", "name": str, "jobs": int, "protocol": int}`` →
    ``worker_id``, grid ``total``, ``completed``, ``lease_size``,
    ``heartbeat_interval``, ``protocol``.
``lease``
    ``{"op": "lease", "worker_id": str, "max_points": int}`` →
    ``lease_id`` plus ``points`` (list of ``{"index", "hash", "spec"}``
    with the spec base64-pickled and ``hash`` its
    ``RunSpec.content_hash()`` on the coordinator — the worker
    recomputes it and refuses the point on a mismatch); an empty list
    carries either ``done: true`` (grid complete — exit) or
    ``retry_after`` seconds (everything is leased out — heartbeat and
    ask again).
``result``
    ``{"op": "result", "worker_id": str, "index": int, "hash": str,
    "payload": str}`` → ack with ``done`` and ``duplicate`` flags.
    The coordinator rejects a result whose hash does not match its
    manifest (a worker running a different grid or code revision).
``heartbeat``
    ``{"op": "heartbeat", "worker_id": str}`` → ack with ``done``;
    liveness for the coordinator's reaper.  Any op from a worker counts
    as a heartbeat — this one exists for idle/waiting workers.
``status``
    ``{"op": "status"}`` → the merged progress/ETA view (works from any
    connection; ``python -m repro sweep status`` is just this op).
``goodbye``
    ``{"op": "goodbye", "worker_id": str}`` → ack; outstanding leases
    return to the queue immediately instead of waiting for the reaper.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
from typing import Any, Dict, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "JsonLineConnection",
    "encode_payload",
    "decode_payload",
    "parse_hostport",
]

#: Bumped on incompatible wire changes; register fails on a mismatch so
#: a stale worker checkout dies loudly instead of corrupting a sweep.
#: Version 2: the point hash covers the ``repro`` source tree and the
#: worker checks it.
PROTOCOL_VERSION = 2


class ProtocolError(RuntimeError):
    """The peer answered, but with an in-band error (``ok: false``), or
    a worker refused a leased point its code keys differently."""


def encode_payload(obj: Any) -> str:
    """Pickle ``obj`` into a JSON-safe base64 string."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_payload(text: str) -> Any:
    """Inverse of :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def parse_hostport(text: str, default_port: int = 8653) -> "tuple[str, int]":
    """Parse ``HOST:PORT`` (or bare ``HOST``) into a (host, port) pair.

    An IPv6 host goes in brackets, ``[::1]:8653`` or ``[::1]``; the
    brackets are stripped.  An unbracketed host containing ``:`` is
    ambiguous and raises ``ValueError``.
    """
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or rest[:1] not in ("", ":"):
            raise ValueError(f"expected [HOST]:PORT, got {text!r}")
        if not rest:
            return host, default_port
        port_text = rest[1:]
    else:
        host, sep, port_text = text.rpartition(":")
        if not sep:
            return text, default_port
        if ":" in host:
            raise ValueError(
                f"an IPv6 host needs brackets ([HOST]:PORT), got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"expected HOST:PORT with a numeric port, got {text!r}")
    if not 0 < port < 65536:
        raise ValueError(f"port must be in [1, 65535], got {port}")
    return host or "127.0.0.1", port


class JsonLineConnection:
    """Synchronous client side of the JSON-lines protocol (the worker).

    One persistent TCP connection, strict request/response: the
    coordinator treats the connection itself as a liveness signal, so a
    worker keeps it open for its whole lifetime and an EOF tells the
    coordinator to requeue that worker's leases immediately.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one op and return the decoded ``ok: true`` response.

        Raises :class:`ProtocolError` on an in-band error and
        ``ConnectionError`` when the coordinator went away mid-exchange
        (the worker's reconnect loop catches the latter).
        """
        payload = dict(fields)
        payload["op"] = op
        try:
            self._file.write((json.dumps(payload) + "\n").encode())
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise ConnectionError(
                f"lost the coordinator during {op!r}: {exc}") from exc
        if not line:
            raise ConnectionError(
                f"coordinator closed the connection during {op!r}")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(
                f"undecodable response to {op!r}: {line[:200]!r}") from exc
        if not isinstance(response, dict) or not response.get("ok", False):
            error = response.get("error") if isinstance(response, dict) \
                else repr(response)
            raise ProtocolError(f"{op} rejected: {error}")
        return response

    def close(self) -> None:
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "JsonLineConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
