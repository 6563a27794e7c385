"""Length-prefixed pickle messages between the runner and its worker.

Arrays travel as out-of-band pickle buffers written straight from their
memory, so sending a result allocates no copy of it in the worker.  Only
messages written by this benchmark's own processes are ever unpickled.
"""

from __future__ import annotations

import pickle
import struct

_HEAD = struct.Struct("<QQ")
_LEN = struct.Struct("<Q")


def send(fh, obj) -> None:
    buffers: list = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    fh.write(_HEAD.pack(len(head), len(buffers)))
    fh.write(head)
    for buf in buffers:
        raw = buf.raw()
        fh.write(_LEN.pack(raw.nbytes))
        fh.write(raw)
    fh.flush()


def _read(fh, n: int) -> bytes:
    data = fh.read(n)
    if data is None or len(data) != n:
        raise EOFError("the other side closed the channel")
    return data


def recv(fh):
    head_len, count = _HEAD.unpack(_read(fh, _HEAD.size))
    head = _read(fh, head_len)
    buffers = [bytearray(_read(fh, _LEN.unpack(_read(fh, _LEN.size))[0])) for _ in range(count)]
    return pickle.loads(head, buffers=buffers)
