"""The repo's one wire format: newline-delimited JSON messages.

The fleet's coordinator/worker control plane frames every message the
same way: one JSON object per line, UTF-8, ``\\n``-terminated. ``json``
emits shortest-repr floats, so every float round-trips *exactly*.

Payloads that are not JSON-shaped (sweep cases, :class:`DseResult`\\ s)
ride inside messages as base64-encoded pickles via :func:`pack_blob` /
:func:`unpack_blob` — opaque to the framing, exact by construction.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
from typing import Any


class WireClosed(ConnectionError):
    """The peer closed the connection (EOF while a reply was expected)."""


def encode_message(message: dict) -> str:
    """One message -> one line (no trailing newline)."""
    return json.dumps(message, separators=(",", ":"))


def decode_message(line: str) -> dict:
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError(f"wire message must be a JSON object: {line!r}")
    return message


def pack_blob(obj: Any) -> str:
    """Arbitrary picklable object -> ASCII-safe string field."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_blob(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


class LineSocket:
    """A connected socket speaking newline-delimited JSON messages.

    Wraps the raw socket with buffered text files and exposes
    ``send(dict)`` / ``recv() -> dict | None`` (``None`` on EOF).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._rfile = sock.makefile("r", encoding="utf-8")
        self._wfile = sock.makefile("w", encoding="utf-8")

    @classmethod
    def connect(
        cls, host: str, port: int, timeout_s: float = 30.0
    ) -> "LineSocket":
        return cls(socket.create_connection((host, port), timeout=timeout_s))

    def send(self, message: dict) -> None:
        self._wfile.write(encode_message(message) + "\n")
        self._wfile.flush()

    def recv(self) -> dict | None:
        """Next message, or ``None`` once the peer has closed."""
        line = self._rfile.readline()
        if not line:
            return None
        return decode_message(line)

    def request(self, message: dict) -> dict:
        """``send`` then ``recv``, raising :class:`WireClosed` on EOF."""
        self.send(message)
        reply = self.recv()
        if reply is None:
            raise WireClosed("peer closed the connection mid-request")
        return reply

    def close(self) -> None:
        for handle in (self._rfile, self._wfile, self._sock):
            try:
                handle.close()
            except OSError:
                pass


__all__ = [
    "LineSocket",
    "WireClosed",
    "decode_message",
    "encode_message",
    "pack_blob",
    "unpack_blob",
]
