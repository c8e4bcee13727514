import dataclasses
import random
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from jobmig import checkpoint as cp
from jobmig import workload

from conftest import BLOB_COUNTER, BLOB_PAYLOAD, BLOB_VALUES, make_blob_state


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
            workload.from_state(composed)


class TestCaptureIncremental:
    def test_unchanged_state_gives_empty_deltas(self):
        state = sort_state(n=6)
        record = cp.capture_incremental(state, state.copy(), 1)
        assert record.kind == cp.KIND_INCREMENTAL
        assert record.base_seq == 0
        assert record.deltas == ()

    def test_single_changed_field(self):
        prev = sort_state(n=500, seed=1, steps=249)
        cur = prev.copy()
        cur.fields[workload.FIELD_ITER] = 250
        record = cp.capture_incremental(cur, prev, 7)
        expected = field_diff(prev, cur)
        assert {d.field_id: d.new_value for d in record.deltas} == expected
        assert [d.field_id for d in record.deltas] == [workload.FIELD_ITER]
        assert record.deltas[0].new_value == 250

    def test_array_swap_touches_only_array_field(self):
        prev = sort_state(n=8, seed=9)
        cur = prev.copy()
        arr = cur.fields[workload.FIELD_ARRAY]
        arr[0], arr[3] = arr[3], arr[0]
        record = cp.capture_incremental(cur, prev, 1)
        assert {d.field_id: d.new_value for d in record.deltas} == field_diff(prev, cur)
        assert [d.field_id for d in record.deltas] == [workload.FIELD_ARRAY]

    def test_schema_mismatch(self):
        a = sort_state(job_id="a")
        b = make_blob_state(job_id="a")
        with pytest.raises(cp.SchemaMismatch):
            cp.capture_incremental(a, b, 1)

    def test_different_job_rejected(self):
        with pytest.raises(cp.SchemaMismatch):
            cp.capture_incremental(sort_state(job_id="a"), sort_state(job_id="b"), 1)

    @pytest.mark.parametrize("field_id,value", [
        (BLOB_COUNTER, b"\x00" * 8), (BLOB_VALUES, 7), (BLOB_PAYLOAD, [1, 2])])
    def test_value_type_change_rejected(self, field_id, value):
        before = make_blob_state()
        after = before.copy()
        after.fields[field_id] = value
        with pytest.raises(cp.SchemaMismatch):
            cp.capture_incremental(after, before, 1)


class TestCompose:
    def test_identity(self):
        state = sort_state(n=9, seed=5, steps=4)
        assert cp.compose(cp.capture_full(state, 3), []) == state

    def test_chain_equals_direct_capture(self):
        # brute-force oracle: re-run the task and full-capture at the end
        task = workload.init_sort(12, 77, job_id="chain")
        full = cp.capture_full(task.state, 0)
        incrementals = []
        prev = task.state.copy()
        for seq in range(1, 6):
            task.step()
            incrementals.append(cp.capture_incremental(task.state, prev, seq))
            prev = task.state.copy()
        composed = cp.compose(full, incrementals)
        assert composed == task.state
        reference = workload.init_sort(12, 77, job_id="chain")
        for _ in range(5):
            reference.step()
        assert composed == reference.state

    def test_out_of_order_chain_rejected(self):
        task = workload.init_sort(10, 1, job_id="ooo")
        full = cp.capture_full(task.state, 0)
        incs = []
        prev = task.state.copy()
        for seq in (1, 2):
            task.step()
            incs.append(cp.capture_incremental(task.state, prev, seq))
            prev = task.state.copy()
        with pytest.raises(cp.LineageBroken):
            cp.compose(full, [incs[1], incs[0]])

    def test_gap_in_chain_rejected(self):
        task = workload.init_sort(10, 1, job_id="gap")
        full = cp.capture_full(task.state, 0)
        prev = task.state.copy()
        task.step()
        with pytest.raises(cp.LineageBroken):
            cp.compose(full, [cp.capture_incremental(task.state, prev, 5)])

    def test_incremental_as_base_rejected(self):
        state = sort_state()
        inc = cp.capture_incremental(state, state.copy(), 1)
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

    def test_done_flag_reconstructed(self):
        task = workload.init_sort(3, 8, job_id="d")
        while not task.done:
            task.step()
        composed = cp.compose(cp.capture_full(task.state, 0), [])
        assert composed == task.state
        assert workload.from_state(composed).done is True

    @pytest.mark.parametrize("vt,raw", [(0x03, b"\x00" * 8), (0x02, struct.pack(">q", 5))])
    def test_delta_changing_value_type_rejected(self, vt, raw):
        # an incremental whose int64 counter arrives as another value type,
        # assembled by hand because capture_incremental refuses to write one
        full = cp.capture_full(make_blob_state(job_id="tc"), 0)
        body = b"MAF1" + bytes([cp.KIND_INCREMENTAL]) + struct.pack(">H", 2) + b"tc"
        body += struct.pack(">QQI", 1, 0, 1) + struct.pack(">HBI", BLOB_COUNTER, vt, 8) + raw
        inc = cp.decode(body + struct.pack(">I", zlib.crc32(body)))
        assert inc.deltas[0].field_id == BLOB_COUNTER
        with pytest.raises(cp.SchemaMismatch):
            cp.compose(full, [inc])


def pack_int64_array(values) -> bytes | None:
    """Element-wise reference packer: None where the format has no encoding."""
    out = b""
    for v in values:
        if type(v) is not int or not -(2**63) <= v < 2**63:
            return None
        out += struct.pack(">q", v)
    return out


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
                              st.sampled_from([-(2**63), 2**63 - 1, -(2**63) - 1, 2**63,
                                               0, -1]), st.booleans()), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_bulk_array_encoding_matches_element_wise(self, values):
        state = cp.TaskState(job_id="arr", fields={7: values})
        payload = pack_int64_array(values)
        if payload is None:
            with pytest.raises(cp.SchemaMismatch):
                cp.capture_full(state, 0)
            return
        body = b"MAF1" + bytes([cp.KIND_FULL]) + struct.pack(">H", 3) + b"arr"
        body += struct.pack(">QQI", 0, 0, 1) + struct.pack(">HBI", 7, 0x02, len(payload))
        body += payload
        assert cp.encode(cp.capture_full(state, 0)) == body + struct.pack(">I", zlib.crc32(body))

    def test_crc32_is_ieee_checkvalue(self):
        # standard check value for the IEEE 802.3 polynomial
        assert zlib.crc32(b"123456789") == 0xCBF43926

    def test_empty_delta_record_layout(self):
        state = sort_state(job_id="ab")
        record = cp.capture_incremental(state, state.copy(), 1)
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
        expected += struct.pack(">HBI", BLOB_VALUES, 0x02, 16) + struct.pack(">qq", 1, -1)
        expected += struct.pack(">HBI", BLOB_PAYLOAD, 0x03, 2) + b"hi"
        expected += struct.pack(">HBI", 13, 0x01, 8) + struct.pack(">q", 0)  # done field
        expected += struct.pack(">I", zlib.crc32(expected))
        assert cp.encode(record) == expected

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
        records = [cp.capture_full(task.state, 0)]
        prev = task.state.copy()
        for seq in range(1, 4):
            task.step()
            records.append(cp.capture_incremental(task.state, prev, seq))
            prev = task.state.copy()
        bundle = b"".join(cp.encode(r) for r in records)
        assert cp.decode_bundle(bundle) == records
        assert cp.split_bundle(bundle + b'{"k": 1}') == (bundle, b'{"k": 1}')
        assert cp.split_bundle(bundle) == (bundle, b"")
        # a torn last record stays with the records, where decoding rejects it
        assert cp.split_bundle(bundle[:-3]) == (bundle[:-3], b"")

    def test_empty_bundle(self):
        with pytest.raises(cp.Truncated):
            cp.decode_bundle(b"")


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
        full = cp.capture_full(state, 0)
        prev = state.copy()
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
            incrementals.append(cp.capture_incremental(state, prev, seq))
            prev = state.copy()
        assert cp.compose(full, incrementals) == state

    @given(fields=blob_values)
    @settings(max_examples=100, deadline=None)
    def test_minimality(self, fields):
        """No spurious deltas: every delta corresponds to an actual change."""
        before = make_blob_state(counter=fields[BLOB_COUNTER], values=fields[BLOB_VALUES],
                                 payload=fields[BLOB_PAYLOAD])
        after = before.copy()
        record = cp.capture_incremental(after, before, 1)
        assert record.deltas == ()
        after.fields[BLOB_COUNTER] = fields[BLOB_COUNTER] ^ 1
        record = cp.capture_incremental(after, before, 1)
        assert [d.field_id for d in record.deltas] == [BLOB_COUNTER]


class TestStore:
    def test_append_and_load(self, tmp_path):
        store = cp.CheckpointStore(tmp_path)
        task = workload.init_sort(6, 2, job_id="st-1")
        records = [cp.capture_full(task.state, 0)]
        prev = task.state.copy()
        task.step()
        records.append(cp.capture_incremental(task.state, prev, 1))
        for r in records:
            store.append(r)
        loaded = store.load("st-1")
        assert loaded == records
        # a decoded record, encoded again on demand, gives the stored bytes
        assert b"".join(cp.encode(r) for r in loaded) == store.path_for("st-1").read_bytes()
        assert cp.compose(loaded[0], loaded[1:]) == cp.compose(records[0], records[1:])
        assert store.path_for("st-1").name == "st-1.ckpt"

    def test_hostile_job_id_is_sanitized(self, tmp_path):
        store = cp.CheckpointStore(tmp_path)
        path = store.path_for("../../etc/passwd")
        assert path.parent == tmp_path
        assert path.name.startswith("j")

    def test_load_missing_job(self, tmp_path):
        assert cp.CheckpointStore(tmp_path).load("ghost") == []
