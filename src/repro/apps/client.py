"""The client side of the paper's applications.

Clients are *standard TCP* — nothing here knows about ST-TCP, which is the
transparency claim under test: the client must complete its run, with all
content verified, whether or not the primary crashes mid-run.
"""

from __future__ import annotations

from typing import Any, Generator, Tuple

from repro.apps.protocol import (
    KIND_DATA,
    KIND_ECHO,
    KIND_UPLOAD,
    REQUEST_SIZE,
    decode_request,
    encode_request,
    upload_payload,
    verify_response,
)
from repro.apps.workload import AppWorkload, RunResult
from repro.net.addresses import IPAddress
from repro.util.bytespan import span_equal

#: Read granularity for large responses.
RECV_CHUNK = 65536


def client_session(
    host: Any,
    server_addr: Tuple[IPAddress, int],
    workload: AppWorkload,
) -> Generator:
    """Run one complete client session; returns a :class:`RunResult`.

    Total time spans connection establishment through the last response
    byte (the paper's "total time for one run").  The socket is closed
    after timing stops, so TIME_WAIT never pollutes the measurement.
    """
    sim = host.sim
    start = sim.now
    trace = sim.trace
    timeline = []

    def checkpoint(total: int) -> None:
        """Progress checkpoint: the gap-analysis timeline plus the
        app/client_progress trace marker timeline reconstruction anchors
        the outage window on (same instants, so the windows agree)."""
        timeline.append((sim.now, total))
        if "app" in trace.categories:
            trace.emit(sim.now, "app", "client_progress", host=host.name, bytes=total)

    checkpoint(0)
    bytes_received = 0
    bytes_sent = 0
    exchanges_done = 0
    verified = True
    error = None
    sock = host.tcp.connect(server_addr)
    try:
        yield sock.wait_connected()
        data_stream_offset = 0
        upload_stream_offset = 0
        for request_id in range(workload.exchanges):
            if workload.upload:
                kind = KIND_UPLOAD
            elif workload.echo:
                kind = KIND_ECHO
            else:
                kind = KIND_DATA
            request = encode_request(kind, workload.response_size, request_id)
            yield sock.send(request)
            if workload.upload:
                remaining = workload.response_size
                while remaining > 0:
                    piece = min(RECV_CHUNK, remaining)
                    yield sock.send(upload_payload(piece, upload_stream_offset))
                    upload_stream_offset += piece
                    bytes_sent += piece
                    remaining -= piece
                    checkpoint(bytes_sent + bytes_received)
                receipt = yield sock.recv_exactly(REQUEST_SIZE)
                record = decode_request(receipt)
                if record.response_size != workload.response_size:
                    verified = False
                bytes_received += receipt.length
                checkpoint(bytes_sent + bytes_received)
            elif workload.echo:
                reply = yield sock.recv_exactly(REQUEST_SIZE)
                if not span_equal(reply, request):
                    verified = False
                bytes_received += reply.length
                checkpoint(bytes_received)
            else:
                remaining = workload.response_size
                while remaining > 0:
                    chunk = yield sock.recv_exactly(min(RECV_CHUNK, remaining))
                    if not verify_response(chunk, data_stream_offset):
                        verified = False
                    data_stream_offset += chunk.length
                    bytes_received += chunk.length
                    remaining -= chunk.length
                    checkpoint(bytes_received)
            exchanges_done += 1
    except Exception as exc:  # noqa: BLE001 - recorded in the result
        error = f"{type(exc).__name__}: {exc}"
    end = sim.now
    sock.close()
    return RunResult(
        workload=workload,
        start_time=start,
        end_time=end,
        exchanges_done=exchanges_done,
        bytes_received=bytes_received,
        bytes_sent=bytes_sent,
        verified=verified,
        timeline=timeline,
        error=error,
    )


def run_client(
    host: Any,
    server_addr: Tuple[IPAddress, int],
    workload: AppWorkload,
) -> Any:
    """Spawn a client session on ``host``; returns the process handle
    (its ``value`` is the :class:`RunResult`)."""
    return host.spawn(
        client_session(host, server_addr, workload),
        f"{host.name}.client.{workload.name}",
    )
