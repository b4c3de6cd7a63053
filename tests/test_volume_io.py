import dataclasses
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from volrank import baselines, errors, metrics, s3dsvd, tensor_core as tc, volume_io


class TestVolumeRoundtrip:
    def test_float64_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 6))
        path = tmp_path / "v.s3dv"
        volume_io.write_volume(path, x)
        assert np.array_equal(volume_io.read_volume(path), x)

    def test_parse_then_serialize_byte_identical(self):
        rng = np.random.default_rng(2)
        data = volume_io.volume_to_bytes(rng.standard_normal((3, 4, 5)))
        assert volume_io.volume_to_bytes(volume_io.volume_from_bytes(data)) == data

    def test_float32_representable_values_roundtrip_exactly(self, tmp_path):
        x = np.array([0.5, 0.25, 1.0, -2.0, 0.0, 3.5, 0.125, 8.0]).reshape(2, 2, 2)
        path = tmp_path / "v32.s3dv"
        volume_io.write_volume(path, x, dtype="float32")
        assert np.array_equal(volume_io.read_volume(path), x)

    def test_header_is_twenty_bytes(self):
        x = np.zeros((2, 3, 4))
        data = volume_io.volume_to_bytes(x)
        assert len(data) == 20 + 24 * 8
        assert data[:4] == b"S3DV"
        version, dtype_code = struct.unpack_from("<HH", data, 4)
        assert version == 1
        assert dtype_code == 1
        assert struct.unpack_from("<III", data, 8) == (2, 3, 4)

    def test_payload_is_mode3_fastest(self):
        x = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        data = volume_io.volume_to_bytes(x)
        flat = np.frombuffer(data, dtype="<f8", offset=20)
        assert np.array_equal(flat, np.arange(8.0))


class TestVolumeParseErrors:
    @staticmethod
    def _valid_bytes():
        return volume_io.volume_to_bytes(np.ones((2, 2, 2)))

    def test_bad_magic_names_offset_zero(self):
        data = b"XXXX" + self._valid_bytes()[4:]
        with pytest.raises(errors.ParseError) as exc:
            volume_io.volume_from_bytes(data)
        assert exc.value.offset == 0
        assert "magic" in str(exc.value)

    def test_unknown_version(self):
        data = bytearray(self._valid_bytes())
        struct.pack_into("<H", data, 4, 99)
        with pytest.raises(errors.ParseError) as exc:
            volume_io.volume_from_bytes(bytes(data))
        assert exc.value.offset == 4

    def test_unknown_dtype(self):
        data = bytearray(self._valid_bytes())
        struct.pack_into("<H", data, 6, 7)
        with pytest.raises(errors.ParseError) as exc:
            volume_io.volume_from_bytes(bytes(data))
        assert exc.value.offset == 6

    def test_truncated_payload(self):
        data = self._valid_bytes()[:-8]
        with pytest.raises(errors.ParseError) as exc:
            volume_io.volume_from_bytes(data)
        assert exc.value.offset is not None
        assert "offset" in str(exc.value)

    def test_zero_dim_names_offset_eight(self):
        data = bytearray(self._valid_bytes())
        struct.pack_into("<I", data, 12, 0)
        with pytest.raises(errors.ParseError) as exc:
            volume_io.volume_from_bytes(bytes(data))
        assert exc.value.offset == 8

    def test_short_header(self):
        with pytest.raises(errors.ParseError):
            volume_io.volume_from_bytes(b"S3DV\x01\x00")

    def test_non_finite_payload(self):
        data = bytearray(self._valid_bytes())
        struct.pack_into("<d", data, 20, float("nan"))
        with pytest.raises(errors.NumericError):
            volume_io.volume_from_bytes(bytes(data))


class TestModelRoundtrip:
    @staticmethod
    def _volume():
        return volume_io.gen_synthetic("blobs", (8, 9, 10), seed=3, blobs=4)

    def test_s3dsvd_byte_identical(self, tmp_path):
        model = s3dsvd.decompose(self._volume(), 5)
        data = volume_io.model_to_bytes(model)
        again = volume_io.model_from_bytes(data)
        assert volume_io.model_to_bytes(again) == data
        assert np.array_equal(again.core, model.core)
        assert np.array_equal(again.qsigma, model.qsigma)
        for f1, f2 in zip(again.factors, model.factors):
            assert np.array_equal(f1, f2)

    def test_tucker_byte_identical(self, tmp_path):
        model = baselines.tucker_decompose(self._volume(), 4)
        data = volume_io.model_to_bytes(model)
        again = volume_io.model_from_bytes(data)
        assert volume_io.model_to_bytes(again) == data
        assert np.array_equal(again.core, model.core)

    def test_cpd_byte_identical(self, tmp_path):
        model = baselines.cpd_decompose(self._volume(), 3, seed=11)
        data = volume_io.model_to_bytes(model)
        again = volume_io.model_from_bytes(data)
        assert volume_io.model_to_bytes(again) == data
        assert again.seed == 11
        assert np.array_equal(again.weights, model.weights)

    def test_file_roundtrip(self, tmp_path):
        model = s3dsvd.decompose(self._volume(), 4)
        path = tmp_path / "m.s3dm"
        volume_io.write_model(path, model)
        again = volume_io.read_model(path)
        assert volume_io.model_to_bytes(again) == volume_io.model_to_bytes(model)

    def test_prefix_read_matches_truncation(self):
        model = s3dsvd.decompose(self._volume(), 6)
        data = volume_io.model_to_bytes(model)
        for level in (1, 3, 6):
            prefix = volume_io.model_from_bytes(data, level=level)
            assert prefix.rank == level
            got = s3dsvd.reconstruct(prefix, level)
            want = s3dsvd.reconstruct(model, level)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_prefix_read_tucker(self):
        model = baselines.tucker_decompose(self._volume(), 5)
        data = volume_io.model_to_bytes(model)
        prefix = volume_io.model_from_bytes(data, level=2)
        assert isinstance(prefix, baselines.TuckerModel)
        assert prefix.rank == 2
        assert prefix.fit_history == ()
        got = baselines.tucker_reconstruct(prefix)
        want = baselines.tucker_reconstruct(model, 2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_prefix_read_rejected_for_cpd(self):
        model = baselines.cpd_decompose(self._volume(), 2, seed=0)
        data = volume_io.model_to_bytes(model)
        with pytest.raises(ValueError):
            volume_io.model_from_bytes(data, level=1)

    @pytest.mark.parametrize("method", ["s3dsvd", "tucker"])
    def test_level_reads_reserialize_as_hand_truncated_models(self, method):
        x = self._volume()
        if method == "s3dsvd":
            model = s3dsvd.decompose(x, 5)
        else:
            model = baselines.tucker_decompose(x, 5)
        data = volume_io.model_to_bytes(model)
        for j in range(1, 6):
            fields = dict(
                rank=j,
                factors=tuple(u[:, :j] for u in model.factors),
                core=model.core[:j, :j, :j],
            )
            want = volume_io.model_to_bytes(dataclasses.replace(model, **fields))
            got = volume_io.model_from_bytes(data, level=j)
            assert type(got) is type(model)
            assert volume_io.model_to_bytes(got) == want

    def test_writer_rejects_unknown_model_types(self):
        with pytest.raises(TypeError, match="object"):
            volume_io.model_to_bytes(object())

    def test_model_parse_errors(self):
        model = s3dsvd.decompose(self._volume(), 3)
        data = volume_io.model_to_bytes(model)
        with pytest.raises(errors.ParseError) as exc:
            volume_io.model_from_bytes(b"ZZZZ" + data[4:])
        assert exc.value.offset == 0
        bad_method = bytearray(data)
        struct.pack_into("<H", bad_method, 6, 9)
        with pytest.raises(errors.ParseError) as exc:
            volume_io.model_from_bytes(bytes(bad_method))
        assert exc.value.offset == 6
        with pytest.raises(errors.ParseError):
            volume_io.model_from_bytes(data[:-4])
        with pytest.raises(errors.ParseError):
            volume_io.model_from_bytes(data + b"\x00")


class TestGenSynthetic:
    def test_multirank_exact_recovery(self):
        x = volume_io.gen_synthetic("multirank", (20, 22, 24), seed=0, rho=4)
        model = s3dsvd.decompose(x, 4)
        assert metrics.rel_err(x, s3dsvd.reconstruct(model, 4)) < 1e-10

    def test_single_blob_is_rank_one(self):
        x = volume_io.gen_synthetic("blobs", (16, 18, 20), seed=1, blobs=1)
        model = s3dsvd.decompose(x, 1)
        assert metrics.rel_err(x, s3dsvd.reconstruct(model, 1)) < 1e-8

    def test_deterministic_per_seed(self):
        for kind in ("multirank", "blobs", "blobs_noisy"):
            a = volume_io.gen_synthetic(kind, (6, 7, 8), seed=5)
            b = volume_io.gen_synthetic(kind, (6, 7, 8), seed=5)
            assert np.array_equal(a, b)
        a = volume_io.gen_synthetic("blobs", (6, 7, 8), seed=5)
        b = volume_io.gen_synthetic("blobs", (6, 7, 8), seed=6)
        assert not np.array_equal(a, b)

    def test_blobs_range(self):
        x = volume_io.gen_synthetic("blobs", (12, 13, 14), seed=2)
        assert x.min() >= 0.0
        assert x.max() == 1.0

    def test_blobs_noisy_clipped(self):
        x = volume_io.gen_synthetic("blobs_noisy", (12, 13, 14), seed=2, noise=0.2)
        assert x.min() >= 0.0
        assert x.max() <= 1.0
        clean = volume_io.gen_synthetic("blobs", (12, 13, 14), seed=2)
        assert not np.array_equal(x, clean)

    def test_rho_exceeding_min_dims(self):
        with pytest.raises(ValueError):
            volume_io.gen_synthetic("multirank", (4, 8, 8), seed=0, rho=5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            volume_io.gen_synthetic("cubes", (4, 4, 4), seed=0)

    @pytest.mark.parametrize(
        "dims, kwargs",
        [((4, 4), {}), ((4, 4, 4), {"blobs": 0}), ((4, 4, 4), {"noise": -0.1})],
    )
    def test_invalid_blobs_arguments(self, dims, kwargs):
        with pytest.raises(ValueError):
            volume_io.gen_synthetic("blobs_noisy", dims, seed=0, **kwargs)


def _block_offsets(model):
    """Byte offset and float count of each named float block of a model file."""
    rank = model.rank
    blocks = [(f"factor matrix u{m}", n * rank) for m, n in enumerate(model.dims, 1)]
    if isinstance(model, baselines.CpModel):
        blocks.append(("weights", rank))
    else:
        blocks.append(("core tensor", rank**3))
        if isinstance(model, s3dsvd.S3dModel):
            blocks.append(("qsigma", rank))
    offsets, pos = {}, 24
    for what, count in blocks:
        offsets[what] = (pos, count)
        pos += 8 * count
    return offsets


def _fitted(method):
    x = volume_io.gen_synthetic("blobs", (5, 6, 7), seed=3, blobs=3)
    if method == "s3dsvd":
        return s3dsvd.decompose(x, 3)
    if method == "tucker":
        return baselines.tucker_decompose(x, 3)
    return baselines.cpd_decompose(x, 3, seed=1, max_iters=5)


PAYLOAD_BLOCKS = [
    (method, what)
    for method, names in (
        ("s3dsvd", ("core tensor", "qsigma")),
        ("tucker", ("core tensor",)),
        ("cpd", ("weights",)),
    )
    for what in ("factor matrix u1", "factor matrix u2", "factor matrix u3") + names
]


class TestModelPayloadFinite:
    @pytest.mark.parametrize("method,what", PAYLOAD_BLOCKS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_block_names_block_and_index(self, method, what, value):
        model = _fitted(method)
        data = bytearray(volume_io.model_to_bytes(model))
        pos, count = _block_offsets(model)[what]
        index = count - 1
        struct.pack_into("<d", data, pos + 8 * index, value)
        with pytest.raises(errors.NumericError) as exc:
            volume_io.model_from_bytes(bytes(data))
        assert str(exc.value) == (
            f"{what} contains a non-finite value at flat index {index}"
        )

    @pytest.mark.parametrize("method", ["s3dsvd", "tucker", "cpd"])
    def test_structure_is_judged_before_values(self, method):
        # A malformed file stays a ParseError, and a bad level a ValueError,
        # whatever values the file holds.
        model = _fitted(method)
        data = bytearray(volume_io.model_to_bytes(model))
        struct.pack_into("<d", data, 24, math.nan)
        for broken in (bytes(data[:-4]), bytes(data) + b"\x00"):
            with pytest.raises(errors.ParseError):
                volume_io.model_from_bytes(broken)
        with pytest.raises(ValueError) as exc:
            volume_io.model_from_bytes(bytes(data), level=9)
        assert not isinstance(exc.value, errors.NumericError)

    def test_level_read_checks_the_whole_file(self):
        model = _fitted("s3dsvd")
        data = bytearray(volume_io.model_to_bytes(model))
        pos, count = _block_offsets(model)["core tensor"]
        struct.pack_into("<d", data, pos + 8 * (count - 1), math.nan)
        with pytest.raises(errors.NumericError, match="core tensor"):
            volume_io.model_from_bytes(bytes(data), level=1)


def _planted(model, what, index):
    """A copy of ``model`` with entry ``index`` of block ``what``, in file order, set to inf."""
    if what.startswith("factor matrix u"):
        factors = [u.copy() for u in model.factors]
        u = factors[int(what[-1]) - 1]
        u[np.unravel_index(index, u.shape, order="F")] = math.inf
        return dataclasses.replace(model, factors=tuple(factors))
    name = {"core tensor": "core"}.get(what, what)
    block = getattr(model, name).copy()
    block[np.unravel_index(index, block.shape)] = math.inf
    return dataclasses.replace(model, **{name: block})


class TestWritersRejectNonFinite:
    # An s3dsvd qsigma is read off the core, so no model holds a bad one.
    @pytest.mark.parametrize(
        "method,what", [case for case in PAYLOAD_BLOCKS if case != ("s3dsvd", "qsigma")]
    )
    def test_model_writer_reports_as_the_reader_does(self, method, what):
        model = _fitted(method)
        data = bytearray(volume_io.model_to_bytes(model))
        pos, count = _block_offsets(model)[what]
        struct.pack_into("<d", data, pos + 8 * (count - 1), math.inf)
        with pytest.raises(errors.NumericError) as read:
            volume_io.model_from_bytes(bytes(data))
        with pytest.raises(errors.NumericError) as written:
            volume_io.model_to_bytes(_planted(model, what, count - 1))
        assert str(written.value) == str(read.value)

    def test_failed_writes_leave_no_file(self, tmp_path):
        model = _planted(_fitted("s3dsvd"), "core tensor", 0)
        with pytest.raises(errors.NumericError):
            volume_io.write_model(tmp_path / "m.s3dm", model)
        with pytest.raises(errors.NumericError):
            volume_io.write_volume(tmp_path / "v.s3dv", np.full((2, 2, 2), math.inf))
        with pytest.raises(errors.NumericError):
            volume_io.write_volume(tmp_path / "n.s3dv", np.full((2, 2, 2), math.nan))
        with pytest.raises(ValueError):
            volume_io.write_volume(tmp_path / "w.s3dv", np.zeros((2, 2, 2)), "int8")
        assert list(tmp_path.iterdir()) == []

    def test_volume_checks_run_shape_then_finite_then_dtype(self, tmp_path):
        with pytest.raises(errors.ShapeError):
            volume_io.write_volume(tmp_path / "a.s3dv", np.full((2, 2), math.nan), "int8")
        with pytest.raises(errors.NumericError):
            volume_io.write_volume(tmp_path / "b.s3dv", np.full((2, 2, 2), math.nan), "int8")
        assert list(tmp_path.iterdir()) == []


class TestWritersRejectBadShapes:
    # A model whose arrays disagree with its dims and rank would be written
    # as a file that reads back as another model, or not at all.
    @staticmethod
    def _volume():
        return volume_io.gen_synthetic("blobs", (4, 5, 6), seed=3, blobs=3)

    def _refused(self, tmp_path, model, message):
        with pytest.raises(errors.ShapeError) as exc:
            volume_io.write_model(tmp_path / "m.s3dm", model)
        assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_dims_that_disagree_with_the_factors(self, tmp_path):
        model = s3dsvd.decompose(self._volume(), 3)
        self._refused(
            tmp_path,
            dataclasses.replace(model, dims=(5, 4, 6)),
            "factor matrix u1 has shape (4, 3), expected (5, 3)",
        )

    def test_rank_that_disagrees_with_the_factors(self, tmp_path):
        model = baselines.tucker_decompose(self._volume(), 2)
        self._refused(
            tmp_path,
            dataclasses.replace(model, rank=3),
            "factor matrix u1 has shape (4, 2), expected (4, 3)",
        )

    @pytest.mark.parametrize("method", ["s3dsvd", "tucker", "cpd"])
    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_outside_the_dims(self, tmp_path, method, rank):
        model = dataclasses.replace(_fitted(method), dims=(4, 5, 6), rank=rank)
        self._refused(tmp_path, model, f"invalid dims (4, 5, 6) / rank {rank}")

    @pytest.mark.parametrize(
        "method,field,shape,message",
        [
            ("s3dsvd", "core", (3, 3), "core tensor has shape (3, 3), expected (3, 3, 3)"),
            ("s3dsvd", "core", (2, 2, 2), "core tensor has shape (2, 2, 2), expected (3, 3, 3)"),
            ("tucker", "core", (3, 3, 2), "core tensor has shape (3, 3, 2), expected (3, 3, 3)"),
            ("cpd", "weights", (2,), "weights has shape (2,), expected (3,)"),
        ],
    )
    def test_payload_block_of_the_wrong_shape(self, tmp_path, method, field, shape, message):
        model = dataclasses.replace(_fitted(method), **{field: np.ones(shape)})
        self._refused(tmp_path, model, message)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("rank", 3.0, "dims (4, 5, 6) / rank 3.0 must be integers"),
            ("dims", (4.0, 5, 6), "dims (4.0, 5, 6) / rank 3 must be integers"),
            ("rank", np.int64(3), None),
        ],
    )
    def test_header_fields_must_be_integers(self, tmp_path, field, value, message):
        # A float would pass the shape checks and fail in struct.pack.
        model = s3dsvd.decompose(self._volume(), 3)
        changed = dataclasses.replace(model, **{field: value})
        if message is None:
            assert volume_io.model_to_bytes(changed) == volume_io.model_to_bytes(model)
        else:
            self._refused(tmp_path, changed, message)

    def test_three_factors_are_required(self, tmp_path):
        model = _fitted("tucker")
        self._refused(
            tmp_path,
            dataclasses.replace(model, factors=model.factors[:2]),
            "expected 3 factor matrices, got 2",
        )

    def test_shape_is_judged_before_values(self, tmp_path):
        model = _planted(_fitted("s3dsvd"), "factor matrix u1", 0)
        self._refused(
            tmp_path,
            dataclasses.replace(model, core=model.core[:2, :2, :2]),
            "core tensor has shape (2, 2, 2), expected (3, 3, 3)",
        )


class TestWriteVolumeBytes:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("layout", ["c", "transposed", "big-endian", "float32-input"])
    def test_file_is_volume_to_bytes(self, tmp_path, dtype, layout):
        x = np.random.default_rng(4).standard_normal((3, 4, 5))
        x = {
            "c": x,
            "transposed": x.transpose(2, 0, 1),
            "big-endian": x.astype(">f8"),
            "float32-input": x.astype(np.float32),
        }[layout]
        path = tmp_path / "v.s3dv"
        volume_io.write_volume(path, x, dtype)
        assert path.read_bytes() == volume_io.volume_to_bytes(x, dtype)


def _malformed_volumes():
    good = volume_io.volume_to_bytes(np.ones((2, 3, 4)))
    cases = {
        "empty": b"",
        "short header": good[:19],
        "bad magic": b"XXXX" + good[4:],
        "truncated payload": good[:-8],
        "over-long payload": good + b"\0" * 8,
        "header only": good[:20],
    }
    for name, at, fmt, value in (
        ("version", 4, "<H", 99),
        ("dtype code", 6, "<H", 7),
        ("zero dim", 12, "<I", 0),
        ("float32 code on a float64 payload", 6, "<H", 0),
    ):
        data = bytearray(good)
        struct.pack_into(fmt, data, at, value)
        cases[name] = bytes(data)
    for dtype, fmt in (("float64", "<d"), ("float32", "<f")):
        data = bytearray(volume_io.volume_to_bytes(np.ones((2, 3, 4)), dtype))
        struct.pack_into(fmt, data, 20 + struct.calcsize(fmt) * 5, math.nan)
        cases[f"{dtype} nan at flat index 5"] = bytes(data)
    return cases


MALFORMED_VOLUMES = _malformed_volumes()


class TestReadVolume:
    @pytest.mark.parametrize("data", MALFORMED_VOLUMES.values(), ids=MALFORMED_VOLUMES)
    def test_file_is_rejected_as_its_bytes_are(self, tmp_path, data):
        path = tmp_path / "v.s3dv"
        path.write_bytes(data)
        with pytest.raises(errors.VolrankError) as want:
            volume_io.volume_from_bytes(data)
        with pytest.raises(type(want.value)) as got:
            volume_io.read_volume(path)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "offset", None) == getattr(want.value, "offset", None)

    def test_float64_file_is_held_once(self, tmp_path):
        # The payload array plus the finiteness mask (one byte per value):
        # reading the file's bytes and then copying them peaks above 2x.
        x = np.random.default_rng(6).standard_normal((64, 64, 64))
        path = tmp_path / "v.s3dv"
        volume_io.write_volume(path, x)
        tracemalloc.start()
        try:
            y = volume_io.read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(y, x)
        assert peak < 1.25 * x.nbytes

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_whole(self, tmp_path):
        x = np.random.default_rng(7).standard_normal((3, 4, 5))
        path = tmp_path / "v.fifo"
        os.mkfifo(path)
        writer = threading.Thread(
            target=path.write_bytes, args=(volume_io.volume_to_bytes(x),), daemon=True
        )
        writer.start()
        try:
            y = volume_io.read_volume(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(y, x)


class TestQsigmaIsCoreDiagonal:
    # A model reads qsigma off its core, so a file whose stored qsigma block
    # disagrees with the core is corrupt: the reader refuses it rather than
    # drop the block unchecked.
    MESSAGE = "qsigma differs from the core diagonal at index 2"

    @staticmethod
    def _mismatched():
        model = _fitted("s3dsvd")
        data = bytearray(volume_io.model_to_bytes(model))
        pos, count = _block_offsets(model)["qsigma"]
        struct.pack_into("<d", data, pos + 8 * (count - 1), 123.0)
        return model, bytes(data)

    @pytest.mark.parametrize("level", [None, 1])
    def test_reader_names_the_first_index(self, level):
        model, data = self._mismatched()
        assert model.rank == 3
        with pytest.raises(errors.NumericError) as exc:
            volume_io.model_from_bytes(data, level=level)
        assert str(exc.value) == self.MESSAGE

    def test_structure_level_and_finiteness_come_first(self):
        model, data = self._mismatched()
        with pytest.raises(errors.ParseError):
            volume_io.model_from_bytes(data + b"\x00")
        with pytest.raises(ValueError) as exc:
            volume_io.model_from_bytes(data, level=9)
        assert not isinstance(exc.value, errors.NumericError)
        nan = bytearray(data)
        struct.pack_into("<d", nan, 24, math.nan)
        with pytest.raises(errors.NumericError, match="factor matrix u1"):
            volume_io.model_from_bytes(bytes(nan))
