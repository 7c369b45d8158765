"""The deterministic request/response server.

The *same* generator runs unmodified on a standard host, an ST-TCP
primary, and an ST-TCP backup — on the backup its socket writes go into a
suppressed shadow connection, which is the whole point of the design: no
server application changes (§4.1).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import ConnectionError_, ReproError
from repro.apps.protocol import (
    KIND_DATA,
    KIND_ECHO,
    KIND_UPLOAD,
    REQUEST_SIZE,
    decode_request,
    encode_request,
    response_payload,
    verify_upload,
)
from repro.net.addresses import IPAddress
from repro.tcp.listener import TCPListener
from repro.tcp.socket import TCPSocket
from repro.util.bytespan import concat


def connection_handler(
    host: Any, conn: TCPSocket, service_time: float = 0.0
) -> Generator:
    """Serve one connection: read fixed-size requests, answer each."""
    sim = host.sim
    response_stream_offset = 0
    upload_stream_offset = 0
    try:
        while True:
            first = yield conn.recv(REQUEST_SIZE)
            if first.length == 0:
                break  # orderly EOF
            record = first
            if record.length < REQUEST_SIZE:
                rest = yield conn.recv_exactly(REQUEST_SIZE - record.length)
                record = concat([record, rest])
            try:
                request = decode_request(record)
            except ValueError:
                # A malformed request (rogue or corrupted client): drop
                # the connection rather than the whole server.
                conn.abort()
                return
            if service_time > 0.0:
                yield sim.timeout(service_time)
            if request.kind == KIND_ECHO:
                yield conn.send(record)
            elif request.kind == KIND_DATA:
                payload = response_payload(request.response_size, response_stream_offset)
                response_stream_offset += request.response_size
                yield conn.send(payload)
            elif request.kind == KIND_UPLOAD:
                # Consume and verify the upload, then send a receipt with
                # the count of verified bytes.
                remaining = request.response_size
                verified_bytes = 0
                while remaining > 0:
                    chunk = yield conn.recv_exactly(min(65536, remaining))
                    if verify_upload(chunk, upload_stream_offset):
                        verified_bytes += chunk.length
                    upload_stream_offset += chunk.length
                    remaining -= chunk.length
                receipt = encode_request(KIND_UPLOAD, verified_bytes, request.request_id)
                yield conn.send(receipt)
            else:  # pragma: no cover - decode_request validates kinds
                raise ReproError(f"unhandled request kind {request.kind}")
    except ConnectionError_:
        return  # peer reset / vanished; nothing to clean beyond the socket
    finally:
        conn.close()


def request_response_server(
    host: Any,
    port: int,
    bind_ip: Optional[IPAddress] = None,
    service_time: float = 0.0,
    listener_box: Optional[list] = None,
) -> Generator:
    """Accept-loop process; spawns a handler per connection.

    ``listener_box``, when given, receives the listener object so tests
    can close it.
    """
    listener: TCPListener = host.tcp.listen(port, bind_ip)
    if listener_box is not None:
        listener_box.append(listener)
    try:
        while True:
            conn = yield listener.accept()
            host.spawn(
                connection_handler(host, conn, service_time),
                f"{host.name}.handler:{conn.remote_address[1]}",
            )
            del conn  # the handler's now: once closed, its TCB goes with it
    except ConnectionError_:
        return  # listener closed


def start_server(
    host: Any,
    port: int,
    bind_ip: Optional[IPAddress] = None,
    service_time: float = 0.0,
) -> Any:
    """Spawn the server process on ``host``; returns the process handle."""
    return host.spawn(
        request_response_server(host, port, bind_ip, service_time),
        f"{host.name}.server:{port}",
    )
