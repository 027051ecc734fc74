"""A frame connection for reading ``repro serve`` push frames as they arrive.

:class:`repro.client.TcpClient` waits on one request at a time.  The
subscriber must see push frames the moment they arrive, and time each one,
so the benchmark speaks the documented wire protocol directly —
:func:`repro.serving.protocol.encode_frame` to send,
:func:`repro.serving.protocol.read_frame_blocking` to receive — with
sending and receiving on different threads.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.serving.protocol import encode_frame, read_frame_blocking


class FrameConnection:
    """One TCP connection; :meth:`send` and :meth:`recv` are thread-safe
    with respect to each other (one sender lock, one reading thread)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._send_lock = threading.Lock()

    def send(self, message: dict) -> None:
        """Frame and send one message."""
        frame = encode_frame(message)
        with self._send_lock:
            self._sock.sendall(frame)

    def recv(self) -> "Optional[dict]":
        """Block for the next frame; ``None`` once the server closed."""
        try:
            return read_frame_blocking(self._reader)
        except (OSError, ValueError):
            return None

    def close(self) -> None:
        """Shut the socket down; a thread blocked in :meth:`recv` wakes up."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.close()
        self._sock.close()
