"""Full and incremental task-state checkpoints with a canonical binary codec.

A checkpoint record is either a full snapshot of a task's field map or a
diff against the previous record. Records chain through sequence numbers;
``compose`` replays a full record plus its incremental lineage back into a
task state. The codec is canonical: every valid record has exactly one byte
representation, so equal records encode to identical bytes.

Binary layout (all integers big-endian):

    magic      4 bytes  ``MAF1``
    kind       1 byte   0x00 full, 0x01 incremental
    job_id     2-byte length + UTF-8 bytes
    seq        8 bytes
    base_seq   8 bytes
    count      4 bytes  number of field entries
    entry*     field_id (2) + value_type (1) + value_len (4) + value bytes
    crc32      4 bytes  over everything above (IEEE 802.3 polynomial)

Value types (two's complement throughout):

    0x01  int64        8 bytes
    0x02  int64 array  concatenated 8-byte elements
    0x03  byte string  the bytes themselves
    0x04  int32 array  concatenated 4-byte elements

Entries are sorted by ascending field_id; decoding rejects unordered or
duplicate entries.

Width rule: an array is written as 0x04 if and only if every element lies in
[-2**31, 2**31), the empty array included, and as 0x02 otherwise. Decoding
rejects a 0x02 entry whose elements all fit in int32, so every valid record
keeps exactly one byte form. Both array types decode to a tuple of ints.

The codec knows no task kinds. A field's logical type follows from its value
(int, list of ints, bytes), and a delta may not change it; an array that
changes width along a lineage keeps its type. Which fields a task has, and
how they relate, is checked by the task that owns the state
(``workload.SortTask``).

Each record is encoded once in its life: capture checks and packs the body
(arrays in bulk) and the record carries it for ``encode``, the store and
``compose``'s checksum check. A decoded record carries a view of the bytes its
CRC was checked over, so ``encode`` returns the bytes it was read from and
``compose`` only recomputes the CRC. A record assembled by hand, or rebuilt with
``dataclasses.replace``, carries no bytes: it is packed and checked when needed.

Images: a capture keeps, per field, the frozen value and the bytes it was
packed to in the last record that carried it (``images``). An incremental
record holds the fields whose values differ from their images. Given a report
of the indices the task wrote (``TaskState.touched``) under 1/``PATCH_RATIO``
of an array packed at 4 bytes an element, a capture copies the image's bytes,
checks and packs only those elements as ``_encode_value`` would, and swaps
them into the image's tuple. That tuple must equal the live array in one
compare, or the array is packed whole; so a record's bytes encode exactly its
ints, and the array changed if a touched element did. A touched element
outside int32, or an image packed at 8 bytes an element, takes the
whole-array path, which picks the width. An unreported element is taken by
value: a ``True`` written over a ``1`` is recorded as ``1``.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import sys
import weakref
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

MAGIC = b"MAF1"
KIND_FULL = 0x00
KIND_INCREMENTAL = 0x01

VT_INT64 = 0x01
VT_INT64_ARRAY = 0x02
VT_BYTES = 0x03
VT_INT32_ARRAY = 0x04

_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_U64_MAX = (1 << 64) - 1
_U16_MAX = (1 << 16) - 1
_pack_int32_into = struct.Struct(">i").pack_into
assert array("i").itemsize == 4, "array('i') must hold 4-byte elements"

# packing touched elements alone pays below 1/PATCH_RATIO of the array: the
# two paths cost the same between N/8 and N/5 (README, "Checkpoint cost")
PATCH_RATIO = 8

# Runtime (mutable) field values live in TaskState; records hold the frozen
# form with tuples instead of lists.
FieldValue = int | list[int] | bytes
FrozenValue = int | tuple[int, ...] | bytes
Payload = bytes | bytearray | memoryview
# per field: its frozen value and the bytes it was packed to, in its last record
Images = dict[int, tuple[FrozenValue, Payload]]


class CheckpointError(Exception):
    pass


class SchemaMismatch(CheckpointError):
    pass


class LineageBroken(CheckpointError):
    pass


class CodecError(CheckpointError):
    pass


class BadMagic(CodecError):
    pass


class Truncated(CodecError):
    pass


class ChecksumFailure(CodecError):
    pass


class MalformedRecord(CodecError):
    pass


@dataclass
class TaskState:
    """Mutable execution state of one resumable task: its field map."""

    job_id: str
    fields: dict[int, FieldValue]
    # per array field, the indices the task wrote since the last capture; a
    # field with no entry has no report. Not part of the state's value.
    touched: dict[int, set[int]] = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class FieldDelta:
    field_id: int
    new_value: FrozenValue


@dataclass(frozen=True)
class CheckpointRecord:
    job_id: str
    seq: int
    kind: int
    base_seq: int
    deltas: tuple[FieldDelta, ...]
    checksum: int
    # the body the record was packed to at capture or parsed from at decode; a
    # record rebuilt with other contents never carries bytes that do not match them
    _body: bytes | memoryview | None = field(default=None, init=False, repr=False,
                                             compare=False)


def _value_type(value: FieldValue | FrozenValue) -> str:
    """A value's logical type: an array is one type at either wire width."""
    if isinstance(value, int):
        return "int"
    if isinstance(value, (list, tuple)):
        return "array"
    return "bytes"


def _check_type_kept(fid: int, old: FrozenValue, new: FieldValue | FrozenValue) -> None:
    """A field keeps its value type along a lineage."""
    if _value_type(new) != _value_type(old):
        raise SchemaMismatch(f"field {fid}: a delta may not change the value type")


def _make_record(state: TaskState, seq: int, kind: int, images: Images) -> CheckpointRecord:
    """A record of ``state``, packed once: every field if ``kind`` is full, else
    the fields whose values differ from their images. A list becomes a tuple and
    the encoder checks the rest (a tuple is a record's array, never a state's)."""
    incremental = kind == KIND_INCREMENTAL
    if incremental and set(state.fields) != set(images):
        raise SchemaMismatch("field sets differ between state and last capture")
    deltas, entries = [], []
    for fid in sorted(state.fields):
        value, image = state.fields[fid], images.get(fid)
        packed = None
        if image and type(value) is list and fid in state.touched:
            packed = _patch_array(fid, value, image, state.touched[fid])
            if incremental and packed is image:
                continue
        if packed is not None:  # the touched-element path packs int32 images only
            frozen, payload = packed
            vt = VT_INT32_ARRAY
        else:
            if isinstance(value, tuple):
                raise SchemaMismatch(f"field {fid}: no value type for tuple")
            frozen = tuple(value) if isinstance(value, list) else value
            if incremental:
                if frozen == image[0]:
                    continue
                _check_type_kept(fid, image[0], frozen)
            vt, payload = _encode_value(fid, frozen)
        deltas.append(FieldDelta(fid, frozen))
        entries.append((fid, vt, payload))
    base_seq = seq - 1 if incremental else seq
    body = _encode_body(state.job_id, seq, kind, base_seq, entries)
    record = CheckpointRecord(job_id=state.job_id, seq=seq, kind=kind, base_seq=base_seq,
                              deltas=tuple(deltas), checksum=zlib.crc32(body))
    object.__setattr__(record, "_body", body)
    for delta, (_, _, payload) in zip(deltas, entries):  # the images follow the record
        images[delta.field_id] = (delta.new_value, payload)
    return record


def _patch_array(fid: int, live: list, image: tuple[tuple[int, ...], Payload],
                 touched: set[int]) -> tuple[tuple[int, ...], Payload] | None:
    """``live``'s record tuple and int32 bytes from its image and the touched
    indices: the image itself if no touched element changed, None when the
    report is too large to pay or misses a change, the image is packed at 8
    bytes an element, or a touched element needs them."""
    old, old_bytes = image
    n = len(old) if type(old) is tuple else 0
    if len(touched) * PATCH_RATIO >= n or len(live) != n or len(old_bytes) != 4 * n:
        return None
    new = list(old)
    buf = bytearray(old_bytes)
    changed = False
    for i in touched:
        if not 0 <= i < n:
            return None
        value = live[i]
        if type(value) is not int:
            raise SchemaMismatch(f"field {fid}: array element is not an int")
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise SchemaMismatch(f"field {fid}: array element out of int64 range")
        if not _INT32_MIN <= value <= _INT32_MAX:
            return None
        if value != old[i]:
            _pack_int32_into(buf, 4 * i, value)
            new[i] = value
            changed = True
    if new != live:
        return None
    return (tuple(new), buf) if changed else image


def capture_full(state: TaskState, seq: int, images: Images | None = None) -> CheckpointRecord:
    """Snapshot every field. The record is decoupled from the state:
    later mutations of the state do not show through."""
    return _make_record(state, seq, KIND_FULL, {} if images is None else images)


def capture_incremental(state: TaskState, images: Images, seq: int) -> CheckpointRecord:
    """Record exactly the fields whose values differ from their ``images``,
    each with the value type it had there."""
    if seq < 1:
        raise MalformedRecord("incremental records need seq >= 1")
    return _make_record(state, seq, KIND_INCREMENTAL, images)


def compose(full: CheckpointRecord, incrementals: Sequence[CheckpointRecord]) -> TaskState:
    """Rebuild a task state from a full record plus its incremental chain.

    The chain must be seq-contiguous: the first incremental's base_seq equals
    the full record's seq, and each later base_seq equals the previous seq.
    Every record's checksum is re-verified before its deltas are applied, and
    no delta may change a field's value type. Every value was checked when its
    record was packed at capture or parsed at decode (or is packed here, for a
    record with no bytes), so only each field's final value is copied out.
    """
    _checked_body(full)
    if full.kind != KIND_FULL:
        raise LineageBroken(f"base record {full.seq} is not a full checkpoint")
    values: dict[int, FrozenValue] = {d.field_id: d.new_value for d in full.deltas}

    prev_seq = full.seq
    for rec in incrementals:
        _checked_body(rec)
        if rec.job_id != full.job_id:
            raise LineageBroken(f"record {rec.seq} belongs to job {rec.job_id!r}")
        if rec.kind != KIND_INCREMENTAL:
            raise LineageBroken(f"record {rec.seq} in the chain is not incremental")
        if rec.base_seq != prev_seq:
            raise LineageBroken(
                f"record {rec.seq} chains from {rec.base_seq}, expected {prev_seq}")
        for d in rec.deltas:
            if d.field_id not in values:
                raise SchemaMismatch(f"delta for unknown field {d.field_id}")
            _check_type_kept(d.field_id, values[d.field_id], d.new_value)
            values[d.field_id] = d.new_value
        prev_seq = rec.seq
    return TaskState(full.job_id, {fid: list(v) if isinstance(v, tuple) else v
                                   for fid, v in values.items()})


def lineage_images(records: Sequence[CheckpointRecord]) -> Images:
    """Each field's value and the bytes it was packed to in the last of ``records``
    that carried it: the images a capture that continues the lineage diffs against."""
    images: Images = {}
    for rec in records:
        body = _checked_body(rec)
        off = 27 + struct.unpack_from(">H", body, 5)[0]  # past the header and job id
        for d in rec.deltas:
            (vlen,) = struct.unpack_from(">I", body, off + 3)
            images[d.field_id] = (d.new_value, body[off + 7:off + 7 + vlen])
            off += 7 + vlen
    return images


def _checked_body(record: CheckpointRecord) -> bytes | memoryview:
    """The record's body (packed now if it carries none) after checking its CRC."""
    body = record._body
    if body is None:
        body = _encode_body(record.job_id, record.seq, record.kind, record.base_seq,
                            [(d.field_id, *_encode_value(d.field_id, d.new_value))
                             for d in record.deltas])
    if zlib.crc32(body) != record.checksum:
        raise ChecksumFailure(f"record {record.seq} fails checksum validation")
    return body


def _encode_value(fid: int, value: FrozenValue) -> tuple[int, bytes]:
    """The value type and bytes of one field value. A field id or value the
    format cannot carry is SchemaMismatch; arrays are checked and packed in bulk,
    at 4 bytes an element when every element fits and at 8 otherwise."""
    if not 0 <= fid <= _U16_MAX:
        raise SchemaMismatch(f"field_id {fid} out of 16-bit range")
    if isinstance(value, bytes):
        return VT_BYTES, value
    if type(value) is int:
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise SchemaMismatch(f"field {fid}: value out of int64 range")
        return VT_INT64, struct.pack(">q", value)
    if type(value) is not tuple:
        raise SchemaMismatch(f"field {fid}: no value type for {type(value).__name__}")
    if value and set(map(type, value)) != {int}:
        raise SchemaMismatch(f"field {fid}: array element is not an int")
    try:
        vt, packed = VT_INT32_ARRAY, array("i", value)
    except OverflowError:
        try:
            vt, packed = VT_INT64_ARRAY, array("q", value)
        except OverflowError:
            raise SchemaMismatch(f"field {fid}: array element out of int64 range") from None
    if sys.byteorder == "little":
        packed.byteswap()
    return vt, packed.tobytes()


def _encode_body(job_id: str, seq: int, kind: int, base_seq: int,
                 entries: Sequence[tuple[int, int, Payload]]) -> bytes:
    jid = job_id.encode("utf-8")
    if len(jid) > _U16_MAX:
        raise MalformedRecord("job_id too long to encode")
    if not 0 <= seq <= _U64_MAX or not 0 <= base_seq <= _U64_MAX:
        raise MalformedRecord("sequence number out of 64-bit range")
    parts = [MAGIC, bytes([kind]), struct.pack(">H", len(jid)), jid,
             struct.pack(">QQI", seq, base_seq, len(entries))]
    for fid, vt, payload in entries:
        parts += (struct.pack(">HBI", fid, vt, len(payload)), payload)
    return b"".join(parts)


def encode(record: CheckpointRecord) -> bytes:
    return b"".join((_checked_body(record), struct.pack(">I", record.checksum)))


def _parse_record(buf: bytes, off: int) -> tuple[CheckpointRecord, int]:
    """The record at ``off`` and the offset past it. Its body is a view of ``buf``."""
    start = off
    view = memoryview(buf)

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(buf):
            raise Truncated(f"record needs {off + n - len(buf)} more bytes")
        piece = view[off:off + n]
        off += n
        return piece

    if take(4) != MAGIC:
        raise BadMagic("bad record magic")
    kind = take(1)[0]
    if kind not in (KIND_FULL, KIND_INCREMENTAL):
        raise MalformedRecord(f"unknown record kind 0x{kind:02x}")
    (jid_len,) = struct.unpack(">H", take(2))
    try:
        job_id = str(take(jid_len), "utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord("job_id is not valid UTF-8") from exc
    (seq,) = struct.unpack(">Q", take(8))
    (base_seq,) = struct.unpack(">Q", take(8))
    (count,) = struct.unpack(">I", take(4))

    deltas: list[FieldDelta] = []
    prev_fid = -1
    for _ in range(count):
        fid, vt, vlen = struct.unpack(">HBI", take(7))
        if fid <= prev_fid:
            raise MalformedRecord("field entries out of canonical order")
        prev_fid = fid
        raw = take(vlen)
        if vt == VT_INT64:
            if vlen != 8:
                raise MalformedRecord(f"int64 field {fid} has length {vlen}")
            value: FrozenValue = struct.unpack(">q", raw)[0]
        elif vt == VT_INT32_ARRAY:
            if vlen % 4:
                raise MalformedRecord(f"array field {fid} has ragged length {vlen}")
            value = struct.unpack(f">{vlen // 4}i", raw)
        elif vt == VT_INT64_ARRAY:
            if vlen % 8:
                raise MalformedRecord(f"array field {fid} has ragged length {vlen}")
            value = struct.unpack(f">{vlen // 8}q", raw)
            if not value or _INT32_MIN <= min(value) and max(value) <= _INT32_MAX:
                raise MalformedRecord(f"array field {fid} fits in int32 but is 8 bytes wide")
        elif vt == VT_BYTES:
            value = bytes(raw)
        else:
            raise MalformedRecord(f"unknown value type 0x{vt:02x}")
        deltas.append(FieldDelta(fid, value))

    (stated_crc,) = struct.unpack(">I", take(4))
    body = view[start:off - 4]
    if zlib.crc32(body) != stated_crc:
        raise ChecksumFailure("record bytes fail CRC-32 validation")
    if kind == KIND_FULL and base_seq != seq:
        raise MalformedRecord("full record must have base_seq == seq")
    if kind == KIND_INCREMENTAL and (seq == 0 or base_seq != seq - 1):
        raise MalformedRecord("incremental record must have base_seq == seq - 1")
    record = CheckpointRecord(job_id=job_id, seq=seq, kind=kind, base_seq=base_seq,
                              deltas=tuple(deltas), checksum=stated_crc)
    object.__setattr__(record, "_body", body)
    return record, off


def decode(data: bytes) -> CheckpointRecord:
    record, end = _parse_record(bytes(data), 0)
    if end != len(data):
        raise MalformedRecord(f"{len(data) - end} trailing bytes after record")
    return record


def decode_bundle(data: bytes) -> list[CheckpointRecord]:
    """Parse a concatenation of one or more records."""
    data = bytes(data)
    if not data:
        raise Truncated("empty bundle")
    records = []
    off = 0
    while off < len(data):
        record, off = _parse_record(data, off)
        records.append(record)
    return records


_SAFE_NAME = re.compile(r"[A-Za-z0-9._-]{1,80}")


def _close_all(fds: dict[str, int]) -> None:
    while fds:
        os.close(fds.popitem()[1])


class CheckpointStore:
    """Per-job append-only record files (``<job_id>.ckpt``). A job's first append
    opens its file, and later ones write through that descriptor until ``close``;
    what the store still holds is closed when it is collected."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._fds: dict[str, int] = {}  # job id -> its file, open for appending
        weakref.finalize(self, _close_all, self._fds)

    def path_for(self, job_id: str) -> Path:
        if _SAFE_NAME.fullmatch(job_id):
            name = job_id
        else:
            name = "j" + hashlib.sha256(job_id.encode("utf-8")).hexdigest()[:24]
        return self.root / f"{name}.ckpt"

    def append(self, record: CheckpointRecord) -> None:
        """Write the record at the end of its job's file, whole, or raise and leave
        the file as it was. The write is unbuffered: what returned is in the file."""
        fd = self._fds.get(record.job_id)
        if fd is None:
            fd = os.open(self.path_for(record.job_id), os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o666)
            self._fds[record.job_id] = fd
        data = memoryview(encode(record))
        size = len(data)
        try:
            while data:  # a short write leaves the rest for the next call
                data = data[os.write(fd, data):]
        except BaseException:  # leave no torn record: the file ends where this one began
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_END) - (size - len(data)))
            raise

    def close(self, job_id: str | None = None) -> None:
        """Close the job's file, or with no job every file the store holds; a later
        append opens it again."""
        if job_id is None:
            _close_all(self._fds)
        elif (fd := self._fds.pop(job_id, None)) is not None:
            os.close(fd)

    def load(self, job_id: str) -> list[CheckpointRecord]:
        """The job's records: none if its file is missing, or empty because its
        first append failed."""
        path = self.path_for(job_id)
        data = path.read_bytes() if path.exists() else b""
        return decode_bundle(data) if data else []
