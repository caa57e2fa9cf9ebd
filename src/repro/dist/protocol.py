"""Wire protocol of the distributed sweep executor.

Framing: every message is ``>II`` (big-endian header-length,
blob-length) followed by a UTF-8 JSON header and an optional raw binary
blob.  JSON keeps the control plane dependency-free and debuggable; the
blob segment carries RLE trace payloads verbatim (numpy ``npz`` bytes,
identical to a ``trace.rle`` cache file) so binary data never pays
base64 inflation.

Message types (``header["type"]``):

==================  =========  ============================================
``hello``           w → c      worker id, ``repro.__version__``, pid, host
``welcome``         c → w      accepts; carries the heartbeat interval
``reject``          c → w      version mismatch or shutdown; carries reason
``job``             c → w      job id, per-spec wire specs, timeout
``ping``            w → c      heartbeat (idle and mid-job)
``result``          w → c      per-spec scalars + RLE blobs
``error``           w → c      job id, kind (``timeout``/``error``), detail
``bye``             c → w      drain and disconnect
==================  =========  ============================================

Version policy: the coordinator only accepts workers whose
``repro.__version__`` equals its own — the spec hash + version is the
global dedup/cache key, so a mixed-version cluster would silently mix
incompatible simulation semantics.

Every trace policy is wire-safe: a result carries an RLE trace or none,
so the reduce-at-source pipeline keeps it a few hundred bytes to a few
tens of KB.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional

from repro.runner.spec import RunResult
from repro.sim.traceio import LazyTrace, load_trace_rle_bytes, trace_rle_to_bytes

_FRAME_HEADER = struct.Struct(">II")

#: Upper bound on one frame segment — a corrupted length prefix must not
#: make the receiver allocate gigabytes.
MAX_SEGMENT_BYTES = 1 << 30


class ProtocolError(Exception):
    """Malformed frame or message sequence on a dist connection."""


def send_frame(sock: socket.socket, header: dict[str, Any], blob: bytes = b"") -> int:
    """Serialize and send one frame; returns bytes written."""
    payload = json.dumps(header, separators=(",", ":")).encode()
    frame = _FRAME_HEADER.pack(len(payload), len(blob)) + payload + blob
    sock.sendall(frame)
    return len(frame)


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[dict[str, Any], bytes]:
    """Receive one frame; raises ``ConnectionError`` on a closed peer.

    The returned header carries the frame's total on-wire size under the
    reserved ``"_nbytes"`` key (added receiver-side, never transmitted)
    so callers can account traffic without re-serializing.
    """
    prefix = _recv_exactly(sock, _FRAME_HEADER.size)
    json_len, blob_len = _FRAME_HEADER.unpack(prefix)
    if json_len > MAX_SEGMENT_BYTES or blob_len > MAX_SEGMENT_BYTES:
        raise ProtocolError(
            f"frame segment too large ({json_len}/{blob_len} bytes)"
        )
    try:
        header = json.loads(_recv_exactly(sock, json_len).decode())
    except ValueError as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from None
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError(f"frame header is not a typed mapping: {header!r}")
    blob = _recv_exactly(sock, blob_len) if blob_len else b""
    header["_nbytes"] = _FRAME_HEADER.size + json_len + blob_len
    return header, blob


# ---------------------------------------------------------------------------
# Result codec
# ---------------------------------------------------------------------------


def encode_results(results: list[RunResult]) -> tuple[list[dict[str, Any]], bytes]:
    """Encode a job's results as (per-result metadata, concatenated blob).

    Each result contributes its JSON scalars plus, for a traced result,
    its RLE npz bytes in the shared blob (``blob_len`` in the metadata
    delimits each slice).
    """
    metas: list[dict[str, Any]] = []
    blobs: list[bytes] = []
    for result in results:
        if result.trace is None:
            encoded, kind = b"", None
        else:
            encoded, kind = trace_rle_to_bytes(result.trace), "rle"
        metas.append(
            {"scalars": result.scalars(), "trace": kind, "blob_len": len(encoded)}
        )
        blobs.append(encoded)
    return metas, b"".join(blobs)


def decode_results(
    metas: list[dict[str, Any]], blob: bytes
) -> list[RunResult]:
    """Inverse of :func:`encode_results`."""
    results: list[RunResult] = []
    offset = 0
    for meta in metas:
        n = int(meta["blob_len"])
        trace: Optional[LazyTrace] = None
        if meta["trace"] == "rle":
            trace = load_trace_rle_bytes(blob[offset : offset + n])
        offset += n
        results.append(RunResult(trace=trace, **meta["scalars"]))
    if offset != len(blob):
        raise ProtocolError(
            f"result blob length mismatch: consumed {offset} of {len(blob)} bytes"
        )
    return results
