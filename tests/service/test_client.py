"""The client's one envelope reader, against a scripted one-shot server.

``Client.call`` is the first envelope ``Client.stream`` yields; these
tests drive the paths a real daemon never takes on purpose: hanging up
without an answer, and answering with a coded ``service-error``.
"""

import json
import socket
import threading

import pytest

from repro.service.client import Client, ServiceError
from repro.service.protocol import SERVICE_INFO_SCHEMA_NAME, envelope


class OneShotServer:
    """Accept one connection on a unix socket, read its request line,
    send ``reply`` (possibly nothing), then record whether the client
    hung up (``client_closed``) before closing the connection."""

    def __init__(self, path: str, reply: bytes, hang_up: bool = True):
        self.reply = reply
        self.hang_up = hang_up
        self.request = b""
        self.client_closed = False
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(1)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with self._listener:
            conn, _ = self._listener.accept()
            with conn:
                conn.settimeout(10)
                while not self.request.endswith(b"\n"):
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    self.request += chunk
                conn.sendall(self.reply)
                if not self.hang_up:
                    # keep the line open: only the client can end it
                    self.client_closed = conn.recv(1) == b""

    def join(self) -> None:
        self._thread.join(10)
        assert not self._thread.is_alive()


def _line(report) -> bytes:
    return json.dumps(report.to_json_dict()).encode("utf-8") + b"\n"


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "one-shot.sock")


class TestClientEnvelopeReader:
    def test_hangup_without_answer_is_service_error(self, socket_path):
        server = OneShotServer(socket_path, reply=b"")
        with pytest.raises(ServiceError, match="without answering"):
            Client(socket_path, timeout=10).call("ping")
        server.join()
        assert json.loads(server.request)["payload"]["op"] == "ping"

    def test_call_returns_the_first_envelope_and_closes(self, socket_path):
        reply = _line(envelope(SERVICE_INFO_SCHEMA_NAME, 1, {"ok": True}))
        server = OneShotServer(socket_path, reply=reply, hang_up=False)
        assert Client(socket_path, timeout=10).ping() is True
        server.join()
        assert server.client_closed
