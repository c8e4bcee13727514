import dataclasses
import errno
import os
import random
import struct
import tempfile
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jobmig import checkpoint as cp
from jobmig import harness
from jobmig import node as nd
from jobmig import workload

from conftest import (BLOB_COUNTER, BLOB_PAYLOAD, BLOB_VALUES, copy_state, images_of,
                      make_blob_state)


def sort_state(n=5, seed=42, job_id="j1", steps=0):
    task = workload.init_sort(n, seed, job_id=job_id)
    for _ in range(steps):
        task.step()
    return task.state


def field_diff(a: cp.TaskState, b: cp.TaskState) -> dict:
    """Independent delta oracle: diff two full captures field by field."""
    full_a = {d.field_id: d.new_value for d in cp.capture_full(a, 0).deltas}
    full_b = {d.field_id: d.new_value for d in cp.capture_full(b, 0).deltas}
    return {fid: full_b[fid] for fid in full_b if full_b[fid] != full_a[fid]}


class TestCaptureFull:
    def test_covers_every_schema_field(self):
        record = cp.capture_full(sort_state(n=5), 0)
        assert record.kind == cp.KIND_FULL
        assert record.base_seq == record.seq == 0
        assert sorted(d.field_id for d in record.deltas) == [
            workload.FIELD_ITER, workload.FIELD_ARRAY, workload.FIELD_DONE]

    def test_deep_copy_semantics(self):
        state = sort_state(n=5)
        record = cp.capture_full(state, 0)
        state.fields[workload.FIELD_ITER] = 1
        state.fields[workload.FIELD_ARRAY][0] = -99
        values = {d.field_id: d.new_value for d in record.deltas}
        assert values[workload.FIELD_ITER] == 0
        assert -99 not in values[workload.FIELD_ARRAY]

    def test_identical_states_encode_identically(self):
        a = cp.capture_full(sort_state(n=7, seed=3), 5)
        b = cp.capture_full(sort_state(n=7, seed=3), 5)
        assert cp.encode(a) == cp.encode(b)

    @pytest.mark.parametrize("value", [1.5, True, "text", (1, 2), [1, 2.0], [2**63], 2**63,
                                       -(2**63) - 1, bytearray(b"x"), None, [True], [1, True],
                                       [-(2**63) - 1], [1, "x"]])
    def test_unsupported_value_type_rejected(self, value):
        state = cp.TaskState(job_id="x", fields={1: value})
        with pytest.raises(cp.SchemaMismatch):
            cp.capture_full(state, 0)

    def test_field_id_out_of_range_rejected(self):
        with pytest.raises(cp.SchemaMismatch):
            cp.capture_full(cp.TaskState(job_id="x", fields={1 << 16: 0}), 0)

    def test_field_set_must_match_schema(self):
        # the codec carries any field map; the sort task rejects one that is not a sort
        state = sort_state()
        del state.fields[workload.FIELD_DONE]
        composed = cp.compose(cp.capture_full(state, 0), [])
        assert composed == state
        with pytest.raises(workload.UnknownWorkload):
            workload.SortTask(composed)


class TestCaptureIncremental:
    def test_unchanged_state_gives_empty_deltas(self):
        state = sort_state(n=6)
        record = cp.capture_incremental(state, images_of(state), 1)
        assert record.kind == cp.KIND_INCREMENTAL
        assert record.base_seq == 0
        assert record.deltas == ()

    def test_single_changed_field(self):
        prev = sort_state(n=500, seed=1, steps=249)
        cur = copy_state(prev)
        cur.fields[workload.FIELD_ITER] = 250
        record = cp.capture_incremental(cur, images_of(prev), 7)
        expected = field_diff(prev, cur)
        assert {d.field_id: d.new_value for d in record.deltas} == expected
        assert [d.field_id for d in record.deltas] == [workload.FIELD_ITER]
        assert record.deltas[0].new_value == 250

    def test_array_swap_touches_only_array_field(self):
        prev = sort_state(n=8, seed=9)
        cur = copy_state(prev)
        arr = cur.fields[workload.FIELD_ARRAY]
        arr[0], arr[3] = arr[3], arr[0]
        record = cp.capture_incremental(cur, images_of(prev), 1)
        assert {d.field_id: d.new_value for d in record.deltas} == field_diff(prev, cur)
        assert [d.field_id for d in record.deltas] == [workload.FIELD_ARRAY]

    def test_schema_mismatch(self):
        a = sort_state(job_id="a")
        b = make_blob_state(job_id="a")
        with pytest.raises(cp.SchemaMismatch):
            cp.capture_incremental(a, images_of(b), 1)

    @pytest.mark.parametrize("field_id,value", [
        (BLOB_COUNTER, b"\x00" * 8), (BLOB_VALUES, 7), (BLOB_PAYLOAD, [1, 2])])
    def test_value_type_change_rejected(self, field_id, value):
        before = make_blob_state()
        after = copy_state(before)
        after.fields[field_id] = value
        with pytest.raises(cp.SchemaMismatch):
            cp.capture_incremental(after, images_of(before), 1)


class TestCompose:
    def test_identity(self):
        state = sort_state(n=9, seed=5, steps=4)
        assert cp.compose(cp.capture_full(state, 3), []) == state

    def test_chain_equals_direct_capture(self):
        # brute-force oracle: re-run the task and full-capture at the end
        task = workload.init_sort(12, 77, job_id="chain")
        images = {}
        full = cp.capture_full(task.state, 0, images)
        incrementals = []
        for seq in range(1, 6):
            task.step()
            incrementals.append(cp.capture_incremental(task.state, images, seq))
        composed = cp.compose(full, incrementals)
        assert composed == task.state
        reference = workload.init_sort(12, 77, job_id="chain")
        for _ in range(5):
            reference.step()
        assert composed == reference.state

    def test_out_of_order_chain_rejected(self):
        task = workload.init_sort(10, 1, job_id="ooo")
        images = {}
        full = cp.capture_full(task.state, 0, images)
        incs = []
        for seq in (1, 2):
            task.step()
            incs.append(cp.capture_incremental(task.state, images, seq))
        with pytest.raises(cp.LineageBroken):
            cp.compose(full, [incs[1], incs[0]])

    def test_gap_in_chain_rejected(self):
        task = workload.init_sort(10, 1, job_id="gap")
        images = {}
        full = cp.capture_full(task.state, 0, images)
        task.step()
        with pytest.raises(cp.LineageBroken):
            cp.compose(full, [cp.capture_incremental(task.state, images, 5)])

    def test_incremental_as_base_rejected(self):
        state = sort_state()
        inc = cp.capture_incremental(state, images_of(state), 1)
        with pytest.raises(cp.LineageBroken):
            cp.compose(inc, [])

    def test_tampered_record_fails_checksum(self):
        record = cp.capture_full(sort_state(), 0)
        forged = cp.CheckpointRecord(job_id=record.job_id, seq=record.seq, kind=record.kind,
                                     base_seq=record.base_seq,
                                     deltas=(cp.FieldDelta(workload.FIELD_ITER, 42),)
                                     + record.deltas[1:],
                                     checksum=record.checksum)
        with pytest.raises(cp.ChecksumFailure):
            cp.compose(forged, [])
        # a copy with other contents does not keep the bytes the capture packed
        with pytest.raises(cp.ChecksumFailure):
            cp.compose(dataclasses.replace(record, deltas=forged.deltas), [])

    def decoded_lineage(self):
        task = workload.init_sort(40, 9, job_id="dec")
        images = {}
        records = [cp.capture_full(task.state, 0, images)]
        for seq in range(1, 4):
            task.step()
            records.append(cp.capture_incremental(task.state, images, seq))
            task.state.touched.clear()
        bundle = b"".join(cp.encode(r) for r in records)
        return task, images, bundle, cp.decode_bundle(bundle)

    def test_a_decoded_record_is_never_packed_again(self, monkeypatch):
        task, _, bundle, decoded = self.decoded_lineage()

        def no_packing(fid, value):
            raise AssertionError("a decoded record was packed again")

        monkeypatch.setattr(cp, "_encode_value", no_packing)
        assert cp.compose(decoded[0], decoded[1:]) == task.state
        encoded = [cp.encode(r) for r in decoded]
        assert all(type(b) is bytes for b in encoded)
        assert b"".join(encoded) == bundle

    def test_a_decoded_record_rebuilt_with_other_deltas_fails_checksum(self):
        _, _, _, decoded = self.decoded_lineage()
        full = decoded[0]
        forged = dataclasses.replace(
            full, deltas=(cp.FieldDelta(workload.FIELD_ITER, 7),) + full.deltas[1:])
        with pytest.raises(cp.ChecksumFailure):
            cp.compose(forged, [])
        with pytest.raises(cp.ChecksumFailure):
            cp.encode(forged)

    def test_lineage_images_equal_the_capture_images(self):
        task, images, _, decoded = self.decoded_lineage()
        adopted = cp.lineage_images(decoded)
        assert {fid: (v, bytes(b)) for fid, (v, b) in adopted.items()} \
            == {fid: (v, bytes(b)) for fid, (v, b) in images.items()}
        # a capture that continues the decoded lineage, through the touched-element
        # path, writes what one that continues the captured lineage does
        task.step()
        assert len(task.state.touched[workload.FIELD_ARRAY]) * cp.PATCH_RATIO < 40
        expected = cp.encode(cp.capture_incremental(task.state, images, 4))
        assert cp.encode(cp.capture_incremental(task.state, adopted, 4)) == expected
        assert type(adopted[workload.FIELD_ARRAY][1]) is bytearray  # patched, not repacked

    def test_done_flag_reconstructed(self):
        task = workload.init_sort(3, 8, job_id="d")
        while not task.done:
            task.step()
        composed = cp.compose(cp.capture_full(task.state, 0), [])
        assert composed == task.state
        assert workload.SortTask(composed).done is True

    @pytest.mark.parametrize("vt,raw", [(0x03, b"\x00" * 8), (0x04, struct.pack(">i", 5))])
    def test_delta_changing_value_type_rejected(self, vt, raw):
        # an incremental whose int64 counter arrives as another value type,
        # assembled by hand because capture_incremental refuses to write one
        full = cp.capture_full(make_blob_state(job_id="tc"), 0)
        body = b"MAF1" + bytes([cp.KIND_INCREMENTAL]) + struct.pack(">H", 2) + b"tc"
        body += struct.pack(">QQI", 1, 0, 1)
        body += struct.pack(">HBI", BLOB_COUNTER, vt, len(raw)) + raw
        inc = cp.decode(body + struct.pack(">I", zlib.crc32(body)))
        assert inc.deltas[0].field_id == BLOB_COUNTER
        with pytest.raises(cp.SchemaMismatch):
            cp.compose(full, [inc])


def pack_array(values) -> tuple[int, bytes] | None:
    """Element-wise reference packer: the value type and bytes of an array, 0x04
    with 4 bytes an element when every element fits in int32, else 0x02 with 8;
    None where the format has no encoding."""
    if any(type(v) is not int or not -(2**63) <= v < 2**63 for v in values):
        return None
    if all(-(2**31) <= v < 2**31 for v in values):
        return 0x04, b"".join(struct.pack(">i", v) for v in values)
    return 0x02, b"".join(struct.pack(">q", v) for v in values)


def reference_encode(record: cp.CheckpointRecord) -> bytes:
    """Element-wise reference encoding of a record's values."""
    jid = record.job_id.encode("utf-8")
    body = b"MAF1" + bytes([record.kind]) + struct.pack(">H", len(jid)) + jid
    body += struct.pack(">QQI", record.seq, record.base_seq, len(record.deltas))
    for d in record.deltas:
        if type(d.new_value) is bytes:
            vt, payload = 0x03, d.new_value
        elif type(d.new_value) is tuple:
            packed = pack_array(d.new_value)
            assert packed is not None, f"field {d.field_id} holds a value with no encoding"
            vt, payload = packed
        else:
            assert type(d.new_value) is int
            vt, payload = 0x01, struct.pack(">q", d.new_value)
        body += struct.pack(">HBI", d.field_id, vt, len(payload)) + payload
    return body + struct.pack(">I", zlib.crc32(body))


class TestTouchedPacking:
    """A capture with array images packs only the elements the task reported."""

    def state_with_image(self, n=64):
        state = cp.TaskState("t", {1: list(range(n)), 2: 0})
        images: cp.Images = {}
        cp.capture_full(state, 0, images)
        return state, images

    @given(n=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=2**32),
           interval=st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_runtime_records_match_element_wise_encoding(self, n, seed, interval):
        with tempfile.TemporaryDirectory() as tmp:
            runtime = nd.NodeRuntime("p", nd.VirtualClock(), tmp, step_cost_ms=Fraction(1))
            records = []
            append = runtime.store.append
            runtime.store.append = lambda rec: (records.append(rec), append(rec))[1]
            runtime.submit_job("j", "sort", {"n": n, "seed": seed},
                               checkpoint_interval=interval)
            entry = runtime.job("j")
            while entry.status == nd.ST_RUNNING:
                runtime.run_iteration("j")
            stored = runtime.store.path_for("j").read_bytes()
        assert stored == b"".join(reference_encode(rec) for rec in records)
        # every record holds the sort's state at its iteration
        ref = workload.init_sort(n, seed, job_id="j")
        values: dict = {}
        for rec in records:
            if rec.kind == cp.KIND_FULL:
                values = {}
            values.update((d.field_id, d.new_value) for d in rec.deltas)
            while ref.iterations_done < values[workload.FIELD_ITER]:
                ref.step()
            assert list(values[workload.FIELD_ARRAY]) == ref.state.fields[workload.FIELD_ARRAY]

    @pytest.mark.parametrize("kind", ["full", "incremental"])
    def test_report_missing_a_change_gives_exact_bytes(self, kind):
        state, images = self.state_with_image()
        arr = state.fields[1]
        arr[3], arr[40] = 77, 99
        state.touched = {1: {3}}  # index 40 changed without a report
        record = (cp.capture_full(state, 1, images) if kind == "full"
                  else cp.capture_incremental(state, images, 1))
        assert {d.field_id: d.new_value for d in record.deltas}[1] == tuple(arr)
        assert cp.encode(record) == reference_encode(record)
        assert images[1][0] == tuple(arr)
        assert bytes(images[1][1]) == pack_array(arr)[1]

    @pytest.mark.parametrize("value", [True, 1.5, 2**63, -(2**63) - 1])
    def test_bad_value_at_touched_index_rejected(self, value):
        state, images = self.state_with_image()
        state.fields[1][5] = value
        state.touched = {1: {5}}
        with pytest.raises(cp.SchemaMismatch):
            cp.capture_full(state, 1, images)
        assert images[1][0] == tuple(range(64))

    def test_unreported_element_is_taken_by_value(self):
        state, images = self.state_with_image()
        state.fields[1][1] = True  # equal to 1, and not reported
        state.fields[1][5] = -5
        state.touched = {1: {5}}
        record = cp.capture_full(state, 1, images)
        array = {d.field_id: d.new_value for d in record.deltas}[1]
        assert type(array[1]) is int and array[5] == -5
        assert cp.encode(record) == reference_encode(record)

    def test_touched_element_leaving_int32_repacks_the_array_at_8_bytes(self):
        state, images = self.state_with_image()
        state.fields[1][5] = 2**31
        state.touched = {1: {5}}
        record = cp.capture_incremental(state, images, 1)
        assert record.deltas == (cp.FieldDelta(1, tuple(state.fields[1])),)
        assert cp.encode(record) == reference_encode(record)
        assert pack_array(state.fields[1])[0] == 0x02
        assert bytes(images[1][1]) == pack_array(state.fields[1])[1]

    def test_eight_byte_image_back_in_range_packs_at_4_bytes(self):
        state = cp.TaskState("t", {1: list(range(64)), 2: 0})
        state.fields[1][9] = -(2**31) - 1
        images: cp.Images = {}
        full = cp.capture_full(state, 0, images)
        assert len(images[1][1]) == 8 * 64
        state.fields[1][9] = 9
        state.touched = {1: {9}}
        record = cp.capture_incremental(state, images, 1)
        assert record.deltas == (cp.FieldDelta(1, tuple(range(64))),)
        assert cp.encode(record) == reference_encode(record)
        assert bytes(images[1][1]) == pack_array(range(64))[1]
        # a width change along a lineage is not a type change
        assert cp.compose(full, [cp.decode(cp.encode(record))]) == state

    def test_touched_is_not_part_of_the_state(self):
        state = cp.TaskState("x", {1: [1, 2]})
        copy = copy_state(state)
        state.touched[1] = {0}
        assert state == copy
        assert copy.touched == {}


class TestCodec:
    @pytest.mark.parametrize("value", [(2**63,), 1.5], ids=["array-2**63", "float"])
    @pytest.mark.parametrize("call", [cp.encode, lambda r: cp.compose(r, [])],
                             ids=["encode", "compose"])
    def test_hand_assembled_bad_value_is_schema_mismatch(self, value, call):
        record = cp.CheckpointRecord(job_id="x", seq=0, kind=cp.KIND_FULL, base_seq=0,
                                     deltas=(cp.FieldDelta(1, value),), checksum=0)
        with pytest.raises(cp.SchemaMismatch):
            call(record)

    @given(st.lists(st.one_of(st.integers(min_value=-(2**63), max_value=2**63 - 1),
                              st.integers(min_value=-(2**31) - 2, max_value=2**31 + 1),
                              st.sampled_from([-(2**63), 2**63 - 1, -(2**63) - 1, 2**63,
                                               -(2**31), 2**31 - 1, -(2**31) - 1, 2**31,
                                               0, -1]), st.booleans()), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_bulk_array_encoding_matches_element_wise(self, values):
        state = cp.TaskState(job_id="arr", fields={7: values})
        packed = pack_array(values)
        if packed is None:
            with pytest.raises(cp.SchemaMismatch):
                cp.capture_full(state, 0)
            return
        vt, payload = packed
        body = b"MAF1" + bytes([cp.KIND_FULL]) + struct.pack(">H", 3) + b"arr"
        body += struct.pack(">QQI", 0, 0, 1) + struct.pack(">HBI", 7, vt, len(payload))
        body += payload
        assert cp.encode(cp.capture_full(state, 0)) == body + struct.pack(">I", zlib.crc32(body))
        data = body + struct.pack(">I", zlib.crc32(body))
        assert cp.encode(cp.decode(data)) == data

    def test_crc32_is_ieee_checkvalue(self):
        # standard check value for the IEEE 802.3 polynomial
        assert zlib.crc32(b"123456789") == 0xCBF43926

    def test_empty_delta_record_layout(self):
        state = sort_state(job_id="ab")
        record = cp.capture_incremental(state, images_of(state), 1)
        data = cp.encode(record)
        # magic(4) kind(1) idlen(2) id(2) seq(8) base(8) count(4) crc(4)
        assert len(data) == 33
        assert data[:4] == b"MAF1"
        assert data[4] == cp.KIND_INCREMENTAL
        assert int.from_bytes(data[21:25], "big") == 0

    def test_round_trip(self):
        state = sort_state(n=20, seed=123, steps=11)
        record = cp.capture_full(state, 9)
        assert cp.decode(cp.encode(record)) == record

    def test_bit_exact_reference_vector(self):
        """Hand-assembled wire bytes for a known full record."""
        import struct
        state = make_blob_state(job_id="ab", counter=-2, values=[1, -1], payload=b"hi", done=0)
        record = cp.capture_full(state, 5)

        expected = b"MAF1" + bytes([0x00])          # magic, kind=full
        expected += struct.pack(">H", 2) + b"ab"    # job id
        expected += struct.pack(">Q", 5) * 2        # seq, base_seq
        expected += struct.pack(">I", 4)            # entry count
        expected += struct.pack(">HBI", BLOB_COUNTER, 0x01, 8) + struct.pack(">q", -2)
        expected += struct.pack(">HBI", BLOB_VALUES, 0x04, 8) + struct.pack(">ii", 1, -1)
        expected += struct.pack(">HBI", BLOB_PAYLOAD, 0x03, 2) + b"hi"
        expected += struct.pack(">HBI", 13, 0x01, 8) + struct.pack(">q", 0)  # done field
        expected += struct.pack(">I", zlib.crc32(expected))
        assert cp.encode(record) == expected

    def test_bit_exact_int64_array_vector(self):
        """Hand-assembled wire bytes for an array that needs 8-byte elements."""
        state = cp.TaskState("ab", {7: [1, 2**31]})
        expected = b"MAF1" + bytes([0x00]) + struct.pack(">H", 2) + b"ab"
        expected += struct.pack(">QQI", 3, 3, 1)
        expected += struct.pack(">HBI", 7, 0x02, 16) + struct.pack(">qq", 1, 2**31)
        expected += struct.pack(">I", zlib.crc32(expected))
        assert cp.encode(cp.capture_full(state, 3)) == expected
        assert cp.decode(expected).deltas == (cp.FieldDelta(7, (1, 2**31)),)

    def test_flipped_byte_detected(self):
        data = bytearray(cp.encode(cp.capture_full(sort_state(n=6), 2)))
        data[10] ^= 0x40
        with pytest.raises(cp.CodecError):
            cp.decode(bytes(data))

    def test_bad_magic(self):
        data = b"XXXX" + cp.encode(cp.capture_full(sort_state(), 0))[4:]
        with pytest.raises(cp.BadMagic):
            cp.decode(data)

    def test_truncated(self):
        data = cp.encode(cp.capture_full(sort_state(), 0))
        with pytest.raises(cp.Truncated):
            cp.decode(data[:len(data) // 2])

    def test_trailing_bytes_rejected(self):
        data = cp.encode(cp.capture_full(sort_state(), 0))
        with pytest.raises(cp.MalformedRecord):
            cp.decode(data + b"\x00")

    def test_bundle_round_trip(self):
        task = workload.init_sort(10, 4, job_id="bundle")
        images = {}
        records = [cp.capture_full(task.state, 0, images)]
        for seq in range(1, 4):
            task.step()
            records.append(cp.capture_incremental(task.state, images, seq))
        bundle = b"".join(cp.encode(r) for r in records)
        assert cp.decode_bundle(bundle) == records

    def test_empty_bundle(self):
        with pytest.raises(cp.Truncated):
            cp.decode_bundle(b"")

    @pytest.mark.parametrize("vt,raw", [
        (0x02, b""), (0x02, struct.pack(">q", 2**31 - 1)),
        (0x02, struct.pack(">qq", 0, -(2**31))), (0x04, b"\x00" * 3), (0x04, b"\x00" * 6)],
        ids=["int64-empty", "int64-fits", "int64-fits-at-min", "int32-ragged-3",
             "int32-ragged-6"])
    def test_non_canonical_array_entry_rejected(self, vt, raw):
        body = b"MAF1" + bytes([cp.KIND_FULL]) + struct.pack(">H", 1) + b"x"
        body += struct.pack(">QQI", 0, 0, 1) + struct.pack(">HBI", 7, vt, len(raw)) + raw
        with pytest.raises(cp.MalformedRecord):
            cp.decode(body + struct.pack(">I", zlib.crc32(body)))


blob_values = st.fixed_dictionaries({
    BLOB_COUNTER: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    BLOB_VALUES: st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=16),
    BLOB_PAYLOAD: st.binary(max_size=64),
})


class TestProperties:
    @given(fields=blob_values, seq=st.integers(min_value=0, max_value=2**64 - 1),
           job_id=st.text(max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_identity(self, fields, seq, job_id):
        state = make_blob_state(job_id=job_id, counter=fields[BLOB_COUNTER],
                                values=fields[BLOB_VALUES], payload=fields[BLOB_PAYLOAD])
        record = cp.capture_full(state, seq)
        data = cp.encode(record)
        assert cp.decode(data) == record
        assert cp.encode(cp.decode(data)) == data

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_equivalence(self, seed):
        """Random mutation runs: initial full + per-step incrementals compose
        to exactly the final state."""
        rng = random.Random(seed)
        state = make_blob_state(job_id=f"mut-{seed}")
        images = {}
        full = cp.capture_full(state, 0, images)
        incrementals = []
        for seq in range(1, rng.randint(1, 200)):
            choice = rng.randrange(4)
            if choice == 0:
                state.fields[BLOB_COUNTER] = rng.randrange(-1000, 1000)
            elif choice == 1:
                state.fields[BLOB_VALUES] = [rng.randrange(100) for _ in range(rng.randrange(8))]
            elif choice == 2:
                state.fields[BLOB_PAYLOAD] = bytes(rng.randrange(256)
                                                   for _ in range(rng.randrange(16)))
            # choice 3: no mutation, empty delta
            incrementals.append(cp.capture_incremental(state, images, seq))
        assert cp.compose(full, incrementals) == state

    @given(fields=blob_values)
    @settings(max_examples=100, deadline=None)
    def test_minimality(self, fields):
        """No spurious deltas: every delta corresponds to an actual change."""
        before = make_blob_state(counter=fields[BLOB_COUNTER], values=fields[BLOB_VALUES],
                                 payload=fields[BLOB_PAYLOAD])
        after = copy_state(before)
        images = images_of(before)
        record = cp.capture_incremental(after, images, 1)
        assert record.deltas == ()
        after.fields[BLOB_COUNTER] = fields[BLOB_COUNTER] ^ 1
        record = cp.capture_incremental(after, images, 1)
        assert [d.field_id for d in record.deltas] == [BLOB_COUNTER]


class TestStore:
    def test_append_and_load(self, tmp_path):
        store = cp.CheckpointStore(tmp_path)
        task = workload.init_sort(6, 2, job_id="st-1")
        images = {}
        records = [cp.capture_full(task.state, 0, images)]
        task.step()
        records.append(cp.capture_incremental(task.state, images, 1))
        for r in records:
            store.append(r)
        loaded = store.load("st-1")
        assert loaded == records
        # a decoded record, encoded again on demand, gives the stored bytes
        assert b"".join(cp.encode(r) for r in loaded) == store.path_for("st-1").read_bytes()
        assert cp.compose(loaded[0], loaded[1:]) == cp.compose(records[0], records[1:])
        assert store.path_for("st-1").name == "st-1.ckpt"

    @pytest.mark.parametrize("before", [0, 1])
    def test_a_write_that_fails_midway_leaves_no_torn_record(self, tmp_path, monkeypatch,
                                                             before):
        store = cp.CheckpointStore(tmp_path)
        state = workload.init_sort(300, 2, job_id="torn").state
        records = [cp.capture_full(state, seq) for seq in range(before + 1)]
        for r in records[:before]:
            store.append(r)
        write, writes = os.write, []

        def write_100_then_fail(fd, data):  # a short write, then a full disk
            writes.append(len(data))
            if len(writes) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(fd, data[:100])

        monkeypatch.setattr(cp.os, "write", write_100_then_fail)
        with pytest.raises(OSError):
            store.append(records[-1])
        monkeypatch.undo()
        assert len(writes) == 2
        assert store.load("torn") == records[:before]
        store.append(records[-1])  # the retry lands whole, right after the last good record
        assert store.load("torn") == records

    def test_hostile_job_id_is_sanitized(self, tmp_path):
        store = cp.CheckpointStore(tmp_path)
        path = store.path_for("../../etc/passwd")
        assert path.parent == tmp_path
        assert path.name.startswith("j")

    def test_load_missing_job(self, tmp_path):
        assert cp.CheckpointStore(tmp_path).load("ghost") == []


def test_table1_row_stores_every_array_at_4_bytes(tmp_path):
    """One sim Table 1 row: every array entry the stores hold is 0x04 with 4·N
    bytes, and the stores are exactly as long as records built of such entries."""
    n = 1500
    harness.run_scenario2(n, 42, migrate_at=764, workdir=tmp_path)
    files = sorted(tmp_path.rglob("*.ckpt"))
    assert len(files) == 3  # scenario 2's source and target, and scenario 1's node
    arrays = expected_total = 0
    for path in files:
        data = path.read_bytes()
        off = 0
        while off < len(data):
            (jid_len,) = struct.unpack_from(">H", data, off + 5)
            off += 4 + 1 + 2 + jid_len + 8 + 8
            (count,) = struct.unpack_from(">I", data, off)
            size = 4 + 1 + 2 + jid_len + 8 + 8 + 4 + 4  # header, count and CRC
            off += 4
            for _ in range(count):
                fid, vt, vlen = struct.unpack_from(">HBI", data, off)
                if fid == workload.FIELD_ARRAY:
                    assert (vt, vlen) == (0x04, 4 * n), f"{path.name} at byte {off}"
                    arrays += 1
                else:
                    assert (vt, vlen) == (0x01, 8)
                size += 7 + (4 * n if fid == workload.FIELD_ARRAY else 8)
                off += 7 + vlen
            off += 4
            expected_total += size
    assert arrays > 0
    assert sum(path.stat().st_size for path in files) == expected_total
