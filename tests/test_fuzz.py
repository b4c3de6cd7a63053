"""Property tests of the S3DV/S3DM parsers and the CLI on corrupted files.

Each input is a valid file cut short, with 1 to 16 bytes appended, with one
byte changed, with one float made NaN or infinite, or with its header's dims
and rank replaced by large values.  It must either parse into finite arrays
or be rejected with ``ParseError`` or ``NumericError``; the CLI must exit 0,
3 or 4 and never raise.  Large headers must be rejected before the parser
allocates anything of the size they claim.
"""

import contextlib
import io
import math
import os
import struct
import tempfile
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from volrank import baselines, cli, errors, s3dsvd, volume_io

FUZZ = settings(database=None, derandomize=True, deadline=None, max_examples=400)

VOLUME = volume_io.gen_synthetic("blobs", (5, 6, 7), seed=3, blobs=3)
VOLUMES = (
    volume_io.volume_to_bytes(VOLUME),
    volume_io.volume_to_bytes(VOLUME, dtype="float32"),
)
MODELS = (
    volume_io.model_to_bytes(s3dsvd.decompose(VOLUME, 3)),
    volume_io.model_to_bytes(baselines.tucker_decompose(VOLUME, 3)),
    volume_io.model_to_bytes(baselines.cpd_decompose(VOLUME, 3, seed=1, max_iters=5)),
)
REJECTED = (errors.ParseError, errors.NumericError)
# Far below the smallest claimed payload of a large header (8 * 2**20 bytes).
ALLOCATION_BOUND = 1 << 20


@st.composite
def corrupted(draw, files, header):
    """A file cut short, extended, with one byte flipped or with one float non-finite.

    Random flips almost never give a NaN or inf, so the last kind writes one
    at an 8-byte slot after the ``header``-byte header.
    """
    data = draw(st.sampled_from(files))
    kind = draw(st.sampled_from(["cut", "extend", "flip", "non-finite"]))
    if kind == "cut":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=16))
    changed = bytearray(data)
    if kind == "flip":
        changed[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    else:
        slot = draw(st.integers(0, (len(data) - header) // 8 - 1))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        struct.pack_into("<d", changed, header + 8 * slot, value)
    return bytes(changed)


@st.composite
def large_header(draw, files, fields):
    """A valid file whose first ``fields`` u32s after byte 8 are large."""
    data = bytearray(draw(st.sampled_from(files)))
    values = draw(st.lists(st.integers(1 << 20, (1 << 32) - 1), min_size=3, max_size=3))
    if fields == 4:
        values.append(draw(st.integers(1, min(values))))
    struct.pack_into(f"<{fields}I", data, 8, *values)
    return bytes(data)


def _arrays(model):
    arrays = list(model.factors)
    for name in ("core", "qsigma", "weights"):
        if hasattr(model, name):
            arrays.append(getattr(model, name))
    return arrays


def _parse_or_reject(parse, data):
    try:
        return parse(data)
    except REJECTED:
        return None


@FUZZ
@given(corrupted(VOLUMES, 20))
def test_volume_parses_finite_or_is_rejected(data):
    x = _parse_or_reject(volume_io.volume_from_bytes, data)
    if x is not None:
        assert np.isfinite(x).all()


@FUZZ
@given(corrupted(MODELS, 24))
def test_model_parses_finite_or_is_rejected(data):
    model = _parse_or_reject(volume_io.model_from_bytes, data)
    if model is not None:
        assert all(np.isfinite(a).all() for a in _arrays(model))


def _peak_while(parse, data):
    tracemalloc.start()
    try:
        _parse_or_reject(parse, data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(FUZZ, max_examples=40)
@given(large_header(VOLUMES, 3))
def test_large_volume_header_rejected_before_allocating(data):
    assert _peak_while(volume_io.volume_from_bytes, data) < ALLOCATION_BOUND
    try:
        volume_io.volume_from_bytes(data)
    except errors.ParseError:
        return
    raise AssertionError("a large volume header was accepted")


@settings(FUZZ, max_examples=40)
@given(large_header(MODELS, 4))
def test_large_model_header_rejected_before_allocating(data):
    assert _peak_while(volume_io.model_from_bytes, data) < ALLOCATION_BOUND
    try:
        volume_io.model_from_bytes(data)
    except errors.ParseError:
        return
    raise AssertionError("a large model header was accepted")


def test_allocation_bound_sees_a_payload_of_its_size():
    # The bound is meaningful only if tracemalloc sees numpy's payloads.
    big = volume_io.volume_to_bytes(np.ones((64, 64, 32)))
    assert _peak_while(volume_io.volume_from_bytes, big) > ALLOCATION_BOUND


@FUZZ
@given(
    target=st.sampled_from(["input", "model"]),
    data=st.data(),
)
def test_cli_metrics_exits_0_3_or_4(target, data):
    files = {"input": VOLUMES[0], "model": MODELS[data.draw(st.integers(0, 2))]}
    header = 20 if target == "input" else 24
    files[target] = data.draw(corrupted((files[target],), header))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["metrics", "--input", paths["input"], "--model",
                             paths["model"], "--k", "2", "--no-timing",
                             "--csv", os.path.join(tmp, "m.csv")])
    assert code in (0, 3, 4), err.getvalue()
    if code:
        assert err.getvalue().splitlines()[-1].startswith("volrank: error: ")
