"""The lazyxml_server frame format (docs/SERVER.md), written apart from
the C++ client so that the benchmark trusts neither side's framing.

Request frames are encoded before a timed phase starts; response CRCs
are checked after it ends (`Conn.verify`), so a pure-Python CRC never
counts in a latency.
"""

import socket
import struct

_TABLE = []
for _i in range(256):
    _c = _i
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _TABLE.append(_c)


def crc32c(data) -> int:
    crc = 0xFFFFFFFF
    table = _TABLE
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def mask(crc: int) -> int:
    return ((((crc >> 15) | (crc << 17)) & 0xFFFFFFFF) + 0xA282EAD8) & 0xFFFFFFFF


MAGIC, VERSION, REQUEST, RESPONSE = 0x4C585731, 1, 1, 2
HEADER = struct.Struct("<IBBHII")


def frame(payload: bytes) -> bytes:
    return HEADER.pack(MAGIC, VERSION, REQUEST, 0, len(payload),
                       mask(crc32c(payload))) + payload


class WireError(Exception):
    pass


class Conn:
    """One blocking session. `call` sends a pre-encoded frame and returns
    the raw response payload; `unverified` keeps (payload, crc) pairs
    until `verify` checks them."""

    def __init__(self, path: str, timeout: float = 60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.unverified = []

    def close(self):
        self.sock.close()

    def _exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(min(n - len(buf), 1 << 20))
            if not chunk:
                raise WireError("server closed the connection")
            buf += chunk
        return bytes(buf)

    def call(self, req: bytes) -> bytes:
        self.sock.sendall(req)
        magic, ver, ftype, flags, n, crc = HEADER.unpack(self._exact(HEADER.size))
        if (magic, ver, ftype, flags) != (MAGIC, VERSION, RESPONSE, 0):
            raise WireError(f"bad response header {magic:#x}/{ver}/{ftype}/{flags}")
        payload = self._exact(n)
        self.unverified.append((payload, crc))
        return payload

    def verify(self):
        for payload, crc in self.unverified:
            if mask(crc32c(payload)) != crc:
                raise WireError("response CRC mismatch")
        self.unverified.clear()


def status(resp: bytes):
    """(ok, detail dict, body) of a response payload: 'OK COUNT 3 LISTED 3'
    gives {'COUNT': '3', 'LISTED': '3'}."""
    line, _, body = resp.partition(b"\n")
    line = line.decode()
    if line != "OK" and not line.startswith("OK "):
        return False, {"ERR": line}, body
    words = line.split()[1:]
    return True, dict(zip(words[0::2], words[1::2])), body
