import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carenet.dataset import (
    HyperCube,
    SpectraSet,
    encode_labels,
    read_container,
    read_cube,
    read_spectraset,
    spectraset_from_csv,
    spectraset_to_csv,
    subtype_one_hot,
    write_container,
    write_cube,
    write_spectraset,
)
from carenet.errors import DataError
from carenet.model import build_carenet, load_checkpoint, save_checkpoint
from carenet.spectral import RAW_AXIS, WavenumberAxis
from tests.conftest import rewrite_directory

AXIS = WavenumberAxis(1800.0, 900.0, 467)


def small_spectraset(n=3, rng=None):
    rng = rng or np.random.default_rng(0)
    return SpectraSet(
        spectra=rng.random((n, 467), dtype=np.float32),
        patient_id=np.arange(n, dtype=np.int32) + 1,
        core_id=np.arange(n, dtype=np.int32),
        row=np.zeros(n, dtype=np.int32),
        col=np.arange(n, dtype=np.int32),
        core_type=np.array(([1, 0] * n)[:n], dtype=np.int8),
        subtype=np.array(([2, -1] * n)[:n], dtype=np.int8),
        axis=AXIS,
    )


class TestEncodeLabels:
    def test_ca_her2(self):
        binary, one_hot = encode_labels("CA", "HER2")
        assert binary == 1
        np.testing.assert_array_equal(one_hot, [0, 0, 1, 0])

    def test_at_none(self):
        binary, one_hot = encode_labels("AT", None)
        assert binary == 0
        assert one_hot is None
        assert encode_labels("AT", "none")[1] is None

    def test_ca_without_subtype_rejected(self):
        with pytest.raises(DataError):
            encode_labels("CA", None)

    def test_at_with_subtype_rejected(self):
        with pytest.raises(DataError):
            encode_labels("AT", "LA")

    def test_one_hot_order(self):
        for i, name in enumerate(("LA", "LB", "HER2", "TNBC")):
            _, one_hot = encode_labels("CA", name)
            assert one_hot[i] == 1.0 and one_hot.sum() == 1.0

    def test_one_hot_matrix_rejects_at_codes(self):
        with pytest.raises(DataError):
            subtype_one_hot(np.array([0, -1]))


class TestContainer:
    def test_round_trip_bitwise(self, tmp_path, rng):
        arrays = {
            "a": rng.standard_normal((7, 5)).astype(np.float32),
            "b": rng.integers(0, 100, 13).astype(np.int32),
            "c": np.array([True, False, True]),
        }
        meta = {"kind": "test", "note": "payload"}
        path = tmp_path / "data.crns"
        write_container(path, arrays, meta)
        back, meta_back = read_container(path)
        assert meta_back == meta
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            np.testing.assert_array_equal(back[name], arr)

    def test_array_starts_are_64_byte_aligned(self, tmp_path):
        arrays = {"x": np.arange(5, dtype=np.int8), "y": np.arange(9, dtype=np.float64)}
        path = tmp_path / "data.crns"
        write_container(path, arrays, {})
        import json
        import struct

        raw = path.read_bytes()
        (dir_len,) = struct.unpack_from("<I", raw, 6)
        directory = json.loads(raw[10:10 + dir_len])
        for entry in directory["arrays"]:
            assert entry["offset"] % 64 == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "data.crns"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(DataError):
            read_container(path)

    def test_corrupt_directory_rejected(self, tmp_path):
        path = tmp_path / "data.crns"
        write_container(path, {"x": np.arange(4)}, {})
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF  # stomp inside the JSON directory
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            read_container(path)

    def test_shape_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "data.crns"
        write_container(path, {"x": np.arange(4, dtype=np.int64)}, {})
        # now disagrees with byte length
        rewrite_directory(path, lambda d: d["arrays"][0].update(shape=[5]))
        with pytest.raises(DataError):
            read_container(path)

    def test_payload_corruption_fails_crc(self, tmp_path):
        path = tmp_path / "data.crns"
        write_container(path, {"x": np.arange(64, dtype=np.float64)}, {})
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            read_container(path)


class TestSpectraSetIO:
    def test_round_trip(self, tmp_path):
        sset = small_spectraset()
        path = tmp_path / "set.crns"
        write_spectraset(sset, path)
        back = read_spectraset(path)
        np.testing.assert_array_equal(back.spectra, sset.spectra)
        np.testing.assert_array_equal(back.patient_id, sset.patient_id)
        np.testing.assert_array_equal(back.subtype, sset.subtype)
        assert back.axis == sset.axis

    def test_validation_enforced(self):
        with pytest.raises(DataError):
            SpectraSet(
                spectra=np.full((1, 467), 2.0, dtype=np.float32),  # outside [0,1]
                patient_id=[1], core_id=[0], row=[0], col=[0],
                core_type=[1], subtype=[0], axis=AXIS,
            )
        with pytest.raises(DataError):
            SpectraSet(
                spectra=np.zeros((1, 467), dtype=np.float32),
                patient_id=[1], core_id=[0], row=[0], col=[0],
                core_type=[0], subtype=[2],  # AT with a subtype
                axis=AXIS,
            )

    def test_nan_spectrum_rejected(self):
        spectra = np.full((2, 467), 0.5, dtype=np.float32)
        spectra[1, 100] = np.nan  # NaN compares False against both bounds
        with pytest.raises(DataError, match="finite"):
            SpectraSet(spectra=spectra, patient_id=[1, 1], core_id=[0, 0], row=[0, 1],
                       col=[0, 0], core_type=[1, 1], subtype=[0, 0], axis=AXIS)

    def test_mosaic_scale_round_trip_under_10s(self, tmp_path, rng):
        n = 320 * 320  # one full-size mosaic of single spectra
        sset = SpectraSet(
            spectra=rng.random((n, 467), dtype=np.float32),
            patient_id=np.ones(n, dtype=np.int32),
            core_id=np.zeros(n, dtype=np.int32),
            row=np.repeat(np.arange(320, dtype=np.int32), 320),
            col=np.tile(np.arange(320, dtype=np.int32), 320),
            core_type=np.ones(n, dtype=np.int8),
            subtype=np.zeros(n, dtype=np.int8),
            axis=AXIS,
        )
        assert len(sset) == 102_400
        path = tmp_path / "mosaic.crns"
        start = time.perf_counter()
        write_spectraset(sset, path)
        back = read_spectraset(path)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        np.testing.assert_array_equal(back.spectra, sset.spectra)


class TestCubeIO:
    def test_cube_round_trip_with_ground_truth(self, tmp_path):
        from carenet.synthgen import SynthConfig, gen_panel

        panel = gen_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=8, seed=2))
        cube = panel.cubes[0]
        truth = panel.ground_truth[0]
        path = tmp_path / "cube.crns"
        write_cube(cube, path, ground_truth=truth)
        back, extras = read_cube(path)
        np.testing.assert_array_equal(back.intensities, cube.intensities)
        assert back.core_type == cube.core_type and back.subtype == cube.subtype
        np.testing.assert_array_equal(extras["gt_role"], truth.role)
        np.testing.assert_array_equal(extras["gt_spike"], truth.spike.astype(np.uint8))

    def test_spectra_matrix_count(self):
        cube = HyperCube(np.zeros((12, 9, RAW_AXIS.n_points), dtype=np.float32),
                         RAW_AXIS, 0, 1, "AT", "none")
        assert cube.n_spectra == 108
        assert cube.spectra_matrix().shape == (108, RAW_AXIS.n_points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_intensity_rejected(self, bad):
        data = np.ones((3, 4, RAW_AXIS.n_points), dtype=np.float32)
        data[2, 1, 7] = bad
        with pytest.raises(DataError, match="finite"):
            HyperCube(data, RAW_AXIS, 0, 1, "AT", "none")

    def test_validation_makes_no_cube_sized_temporary(self):
        data = np.ones((36, 36, RAW_AXIS.n_points), dtype=np.float32)
        assert data.nbytes > 8e6
        tracemalloc.start()
        try:
            HyperCube(data, RAW_AXIS, 0, 1, "AT", "none")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000, peak  # an isfinite mask alone is a quarter of the cube

    def test_ca_requires_subtype(self):
        with pytest.raises(DataError):
            HyperCube(np.zeros((2, 2, RAW_AXIS.n_points)), RAW_AXIS, 0, 1, "CA", "none")


class TestCsv:
    def test_round_trip_exact_float32(self, tmp_path, rng):
        sset = small_spectraset(rng=rng)
        path = tmp_path / "set.csv"
        spectraset_to_csv(sset, path)
        back = spectraset_from_csv(path)
        np.testing.assert_array_equal(back.spectra, sset.spectra)
        np.testing.assert_array_equal(back.core_type, sset.core_type)
        np.testing.assert_array_equal(back.subtype, sset.subtype)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("something,else\n1,2\n")
        with pytest.raises(DataError):
            spectraset_from_csv(path)

    # cell index in a data row: 0-3 ids, 4 core type, 5 subtype, 6.. intensities
    @pytest.mark.parametrize("cell,value", [(5, "LC"), (1, "2.5"), (40, "abc")],
                             ids=["unknown-subtype", "non-integer-id", "non-numeric-intensity"])
    def test_bad_cell_names_its_row(self, tmp_path, cell, value):
        path = tmp_path / "set.csv"
        spectraset_to_csv(small_spectraset(), path)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")  # the first data row: a CA core of subtype HER2
        cells[cell] = value
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="row 2 "):
            spectraset_from_csv(path)


def _edited_container(path, edit, n=4):
    write_container(path, {"x": np.arange(n, dtype=np.int64)}, {"kind": "test"})
    rewrite_directory(path, edit)
    return lambda: read_container(path)


def _entry(**fields):
    return lambda directory: directory["arrays"][0].update(fields)


def _duplicate_name(path):
    """Two arrays, both renamed "a" in the directory."""
    write_container(path, {"a": np.arange(4), "b": np.arange(10, 14)}, {"kind": "test"})
    rewrite_directory(path, lambda d: [e.update(name="a") for e in d["arrays"]])
    return lambda: read_container(path)


def _cube_with_core_id(path, core_id):
    write_cube(HyperCube(np.zeros((2, 2, RAW_AXIS.n_points), dtype=np.float32),
                         RAW_AXIS, 0, 1, "AT", "none"), path)
    rewrite_directory(path, lambda d: d["meta"].update(core_id=core_id))
    return lambda: read_cube(path)


def _edited_checkpoint(path, edit):
    """A well-formed container whose checkpoint arrays edit(arrays) has changed."""
    save_checkpoint(build_carenet("type"), path)
    arrays, meta = read_container(path)
    edit(arrays)
    write_container(path, arrays, meta)
    return lambda: load_checkpoint(path)


def _first_array(change):
    def edit(arrays):
        name = next(iter(arrays))
        arrays[name] = change(arrays[name])
    return edit


def _spectraset_as_checkpoint(path):
    write_spectraset(small_spectraset(), path)
    return lambda: load_checkpoint(path)


@pytest.mark.parametrize("make", [
    pytest.param(lambda p: _edited_container(p, _entry(dtype="|O")), id="object-dtype"),
    # one bit away from "<f4"; numpy's dtype parser raises SyntaxError for it
    pytest.param(lambda p: _edited_container(p, _entry(dtype=",f4")), id="dtype-syntax-error"),
    # 8 * (2**62 + 1) * 4 wraps round to the 32 bytes on disk in int64 arithmetic
    pytest.param(lambda p: _edited_container(p, _entry(shape=[2**62 + 1, 4])),
                 id="shape-overflows-int64"),
    pytest.param(lambda p: _edited_container(p, _entry(shape=[-2, 0]), n=0),
                 id="negative-dim-next-to-zero"),
    pytest.param(lambda p: _edited_container(p, lambda d: d.update(arrays=5)),
                 id="arrays-not-a-list"),
    pytest.param(lambda p: _edited_container(p, lambda d: d.update(arrays=[7])),
                 id="entry-not-an-object"),
    pytest.param(_duplicate_name, id="duplicate-array-name"),
    pytest.param(lambda p: _cube_with_core_id(p, "seven"), id="non-integer-core-id"),
    pytest.param(_spectraset_as_checkpoint, id="checkpoint-from-spectraset"),
    pytest.param(lambda p: _edited_checkpoint(p, lambda a: a.popitem()),
                 id="checkpoint-missing-parameter"),
    pytest.param(lambda p: _edited_checkpoint(p, lambda a: a.update(extra=np.zeros(1, "<f4"))),
                 id="checkpoint-extra-array"),
    pytest.param(lambda p: _edited_checkpoint(p, _first_array(lambda v: v.astype(np.float64))),
                 id="checkpoint-float64-parameter"),
    pytest.param(lambda p: _edited_checkpoint(p, _first_array(lambda v: v.reshape(-1))),
                 id="checkpoint-wrong-shape"),
])
def test_malformed_input_is_data_error(tmp_path, make):
    read = make(tmp_path / "bad.bin")
    with pytest.raises(DataError):
        read()


def test_oversized_declared_shape_is_rejected_before_allocation(tmp_path):
    # a 1e12-byte array whose length matches its shape, in a file of a few hundred bytes
    read = _edited_container(tmp_path / "huge.bin",
                             _entry(shape=[125_000_000_000], length=10**12))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="past end of file"):
            read()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# damaged files: every read either succeeds or raises DataError

READERS = {"cube": read_cube, "spectraset": read_spectraset, "checkpoint": load_checkpoint}


@pytest.fixture(scope="module")
def pristine_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(3)
    cube = HyperCube(rng.random((2, 3, RAW_AXIS.n_points), dtype=np.float32),
                     RAW_AXIS, 4, 2, "CA", "LB")
    truth = SimpleNamespace(role=np.ones((2, 3)), spike=np.zeros((2, 3)))
    write_cube(cube, root / "cube", ground_truth=truth)
    write_spectraset(small_spectraset(), root / "spectraset")
    save_checkpoint(build_carenet("subtype", seed=1), root / "checkpoint")
    return root, {kind: (root / kind).read_bytes() for kind in READERS}


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_file_reads_or_raises_data_error(pristine_files, kind, data):
    root, originals = pristine_files
    raw = bytearray(originals[kind])
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        # half the flips land in the header: a payload flip only ever meets the CRC
        header_bits = 8 * (10 + int.from_bytes(raw[6:10], "little"))
        positions = st.integers(0, header_bits - 1) | st.integers(0, 8 * len(raw) - 1)
        for bit in data.draw(st.lists(positions, min_size=1, max_size=3), label="bits"):
            raw[bit // 8] ^= 1 << (bit % 8)
    path = root / f"damaged-{kind}"
    path.write_bytes(bytes(raw))
    try:
        READERS[kind](path)
    except DataError:
        pass
