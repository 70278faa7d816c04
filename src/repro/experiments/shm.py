"""Shared-memory result transport for the sharded experiment executor.

Worker processes and the parent exchange two kinds of payload: job batches
and per-job results.  Both can contain numpy arrays whose bytes dominate
the pickle stream, so shipping them through a pipe costs a serialise + copy
+ deserialise per hop.  This module moves those bytes
through ``multiprocessing.shared_memory`` instead:

* the producer pickles the object with **protocol 5 out-of-band buffers**,
  so every contiguous ndarray is extracted as a raw buffer rather than
  embedded in the stream;
* stream and buffers are written once into a single shared-memory segment
  behind a compact typed header (magic, version, buffer table);
* only a tiny :class:`ShmSlot` descriptor (name + size) crosses the process
  boundary by pickle;
* the consumer maps the segment, re-inflates the object with the buffers
  copied out (so it outlives the segment), then closes and unlinks the
  mapping.

Ownership protocol: exactly one process unlinks each segment.  Results are
created by workers and unlinked by the parent after merging; job batches
are created by the parent and unlinked by the worker after unpacking.
Producers that fail mid-pack unlink their own segment before re-raising, so
a crash can never leak ``/dev/shm`` entries.

When shared memory is unavailable (``/dev/shm`` unmounted, permissions,
exotic platforms) the executor falls back transparently to plain pickle
payloads over the queue; :func:`shm_available` is the probe.
"""

from __future__ import annotations

import pickle
import secrets
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Optional

#: Prefix of every segment this module creates; tests (and emergency
#: cleanup) can glob ``/dev/shm/<prefix>*`` to find strays.
SHM_NAME_PREFIX = "rpshm-"

#: Magic + header version written at offset 0 of every segment.
_MAGIC = b"RPS1"

#: Header layout: magic, u32 buffer count, u64 stream length, then one u64
#: length per out-of-band buffer.  Stream and buffers follow, each aligned
#: to ``_ALIGN`` so mapped ndarrays keep natural alignment.
_HEAD = struct.Struct("<4sIQ")
_LEN = struct.Struct("<Q")
_ALIGN = 64


class ShmTransportError(RuntimeError):
    """A shared-memory segment was missing, truncated or corrupt."""


@dataclass(frozen=True)
class ShmSlot:
    """A picklable reference to one packed shared-memory segment.

    This is all that crosses the process boundary: the segment name and its
    total size (kept for accounting -- the consumer re-reads the real
    layout from the in-segment header).
    """

    name: str
    size: int


@dataclass(frozen=True)
class PackStats:
    """Byte accounting for one :func:`pack_object` call."""

    stream_bytes: int  #: pickle-stream bytes (in-band part)
    buffer_bytes: int  #: out-of-band ndarray bytes
    total_bytes: int   #: segment size including header + alignment padding


_available: Optional[bool] = None


def shm_available() -> bool:
    """Whether POSIX shared memory works here (probed once, then cached)."""
    global _available
    if _available is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _available = True
        except Exception:
            _available = False
    return _available


def _new_segment(size: int) -> shared_memory.SharedMemory:
    """Create a uniquely named segment (name collisions are retried)."""
    while True:
        name = f"{SHM_NAME_PREFIX}{secrets.token_hex(6)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=max(size, 1))
        except FileExistsError:  # pragma: no cover - 48-bit token collision
            continue


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_object(obj: Any) -> tuple[ShmSlot, PackStats]:
    """Serialise ``obj`` into a fresh shared-memory segment.

    The pickle stream is produced with protocol 5 and a buffer callback, so
    contiguous ndarrays leave the stream as raw out-of-band buffers; stream
    and buffers are written behind the typed header in one pass.  On any
    failure after the segment exists it is closed *and unlinked* before the
    exception propagates -- packing can never leak a segment.
    """
    buffers: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    try:
        buffer_bytes = sum(view.nbytes for view in views)
        header_len = _HEAD.size + _LEN.size * len(views)
        offset = _aligned(header_len)
        stream_at = offset
        offset = _aligned(offset + len(stream))
        buffer_at: list[int] = []
        for view in views:
            buffer_at.append(offset)
            offset = _aligned(offset + view.nbytes)
        segment = _new_segment(offset)
        try:
            memory = segment.buf
            memory[:_HEAD.size] = _HEAD.pack(_MAGIC, len(views), len(stream))
            cursor = _HEAD.size
            for view in views:
                memory[cursor:cursor + _LEN.size] = _LEN.pack(view.nbytes)
                cursor += _LEN.size
            memory[stream_at:stream_at + len(stream)] = stream
            for at, view in zip(buffer_at, views):
                memory[at:at + view.nbytes] = view
            slot = ShmSlot(name=segment.name, size=offset)
        except BaseException:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise
        segment.close()
    finally:
        for view in views:
            view.release()
        for buffer in buffers:
            buffer.release()
    return slot, PackStats(
        stream_bytes=len(stream), buffer_bytes=buffer_bytes, total_bytes=offset
    )


def unpack_object(slot: ShmSlot) -> Any:
    """Re-inflate the object packed into ``slot``'s segment, then destroy it.

    The out-of-band buffers are copied into process-private bytearrays, so
    the object outlives the segment, which is closed and unlinked before
    returning -- also when the segment turns out to be corrupt (the
    consumer owns it).

    Raises:
        ShmTransportError: the segment is missing or its header is corrupt.
    """
    try:
        segment = shared_memory.SharedMemory(name=slot.name)
    except FileNotFoundError as error:
        raise ShmTransportError(f"shared-memory segment {slot.name!r} is gone") from error
    try:
        memory = segment.buf
        if len(memory) < _HEAD.size:
            raise ShmTransportError(f"segment {slot.name!r} is truncated")
        magic, num_buffers, stream_len = _HEAD.unpack_from(memory, 0)
        if magic != _MAGIC:
            raise ShmTransportError(
                f"segment {slot.name!r} has bad magic {magic!r} (expected {_MAGIC!r})"
            )
        lengths = [
            _LEN.unpack_from(memory, _HEAD.size + index * _LEN.size)[0]
            for index in range(num_buffers)
        ]
        offset = _aligned(_HEAD.size + _LEN.size * num_buffers)
        with memory[offset:offset + stream_len] as stream_view:
            stream = bytes(stream_view)
        offset = _aligned(offset + stream_len)
        buffers = []
        for length in lengths:
            if offset + length > len(memory):
                raise ShmTransportError(f"segment {slot.name!r} is truncated")
            # Materialise into a private, writable buffer; the slice view is
            # released at once, before the mapping closes.
            with memory[offset:offset + length] as view:
                buffers.append(bytearray(view))
            offset = _aligned(offset + length)
        return pickle.loads(stream, buffers=buffers)
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - raced
            pass


def discard_segment(slot: ShmSlot) -> bool:
    """Unlink a segment without reading it; returns False when already gone.

    Used by pool teardown to reap in-flight segments whose consumer died
    before attaching -- the guarantee that a worker crash leaves no
    ``/dev/shm`` entries behind.
    """
    try:
        segment = shared_memory.SharedMemory(name=slot.name)
    except FileNotFoundError:
        return False
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with the consumer
        return False
    return True
