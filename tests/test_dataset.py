import json
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carenet.dataset import (
    SUBTYPES,
    HyperCube,
    SpectraSet,
    read_container,
    read_cube,
    read_spectraset,
    subtype_one_hot,
    write_container,
    write_cube,
    write_spectraset,
)
from carenet.errors import DataError
from carenet.model import CarenetModel, load_checkpoint, save_checkpoint
from carenet.spectral import BIOFINGERPRINT_BAND, RAW_AXIS, WavenumberAxis, band_slice, sub_axis
from tests.conftest import collect_panel, rewrite_directory, traced_peak

AXIS = WavenumberAxis(1800.0, 900.0, 467)


def small_spectraset(n=3):
    return SpectraSet(
        spectra=np.random.default_rng(0).random((n, 467), dtype=np.float32),
        patient_id=np.arange(n, dtype=np.int32) + 1,
        core_id=np.arange(n, dtype=np.int32),
        row=np.zeros(n, dtype=np.int32),
        col=np.arange(n, dtype=np.int32),
        core_type=np.array(([1, 0] * n)[:n], dtype=np.int8),
        subtype=np.array(([2, -1] * n)[:n], dtype=np.int8),
        axis=AXIS,
    )


class TestEncodeLabels:
    def test_one_hot_order(self):
        for i, name in enumerate(("LA", "LB", "HER2", "TNBC")):
            one_hot = subtype_one_hot(np.array([SUBTYPES.index(name)]))[0]
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
        back, meta_back = read_container(path, "test")
        assert meta_back == meta
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            np.testing.assert_array_equal(back[name], arr)

    def test_big_endian_arrays_are_written_little_endian(self, tmp_path, rng):
        native = {"f": rng.standard_normal((7, 5)).astype("<f4"),
                  "i": rng.integers(-100, 100, 13).astype("<i4")}
        swapped = {name: arr.astype(arr.dtype.newbyteorder(">")) for name, arr in native.items()}
        assert all(arr.dtype.byteorder == ">" for arr in swapped.values())
        write_container(tmp_path / "big.crns", swapped, {"kind": "test"})
        write_container(tmp_path / "little.crns", native, {"kind": "test"})
        assert (tmp_path / "big.crns").read_bytes() == (tmp_path / "little.crns").read_bytes()
        back, _ = read_container(tmp_path / "big.crns", "test")
        for name, arr in swapped.items():
            assert back[name].dtype == native[name].dtype
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
            read_container(path, "test")

    def test_corrupt_directory_rejected(self, tmp_path):
        path = tmp_path / "data.crns"
        write_container(path, {"x": np.arange(4)}, {"kind": "test"})
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF  # stomp inside the JSON directory
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            read_container(path, "test")

    def test_shape_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "data.crns"
        write_container(path, {"x": np.arange(4, dtype=np.int64)}, {"kind": "test"})
        # now disagrees with byte length
        rewrite_directory(path, lambda d: d["arrays"][0].update(shape=[5]))
        with pytest.raises(DataError):
            read_container(path, "test")

    def test_payload_corruption_fails_crc(self, tmp_path):
        path = tmp_path / "data.crns"
        write_container(path, {"x": np.arange(64, dtype=np.float64)}, {"kind": "test"})
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            read_container(path, "test")


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
        from carenet.synthgen import SynthConfig

        panel = collect_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=8, seed=2))
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
        _, peak = traced_peak(HyperCube, data, RAW_AXIS, 0, 1, "AT", "none")
        assert peak < 500_000, peak  # an isfinite mask alone is a quarter of the cube

    def test_ca_requires_subtype(self):
        with pytest.raises(DataError):
            HyperCube(np.zeros((2, 2, RAW_AXIS.n_points)), RAW_AXIS, 0, 1, "CA", "none")

    @pytest.mark.parametrize("ids", [(2**32 + 3, 1), (0, 2**40 + 7), (-2**31 - 1, 1)])
    def test_id_outside_int32_rejected(self, ids):
        data = np.zeros((2, 2, RAW_AXIS.n_points), dtype=np.float32)
        with pytest.raises(DataError, match="does not fit in int32"):
            HyperCube(data, RAW_AXIS, *ids, "AT", "none")
        HyperCube(data, RAW_AXIS, -1, -1, "H2O", "none")  # the H2O image's ids fit


def _payload_start(path, name):
    """File offset of an array's first byte in a CRNS file."""
    raw = path.read_bytes()
    dir_len = int.from_bytes(raw[6:10], "little")
    entry = next(e for e in json.loads(raw[10:10 + dir_len])["arrays"] if e["name"] == name)
    return (10 + dir_len + 63) // 64 * 64 + entry["offset"]


class TestBandRead:
    # 31 x 29 pixels of 6320 bytes: five 1 MiB blocks, the last one partial
    @pytest.fixture
    def cube_path(self, tmp_path):
        rng = np.random.default_rng(5)
        cube = HyperCube(rng.random((31, 29, RAW_AXIS.n_points), dtype=np.float32),
                         RAW_AXIS, 3, 2, "CA", "HER2")
        truth = SimpleNamespace(role=rng.integers(0, 3, (31, 29)),
                                spike=rng.integers(0, 2, (31, 29)))
        write_cube(cube, tmp_path / "cube.crns", ground_truth=truth)
        return tmp_path / "cube.crns"

    def test_equals_full_read_sliced_bitwise(self, cube_path):
        full, full_extras = read_cube(cube_path)
        band, band_extras = read_cube(cube_path, BIOFINGERPRINT_BAND)
        sel = band_slice(RAW_AXIS, BIOFINGERPRINT_BAND)
        assert band.intensities.shape == (31, 29, 467)
        assert band.intensities.tobytes() == full.intensities[..., sel].tobytes()
        assert band.axis == sub_axis(full.axis, sel)
        identity = (band.core_id, band.patient_id, band.core_type, band.subtype)
        assert identity == (3, 2, "CA", "HER2")
        assert band_extras.keys() == full_extras.keys()
        for name, value in full_extras.items():
            assert band_extras[name].tobytes() == value.tobytes()

    def test_holds_the_band_and_one_block(self, cube_path):
        (band, _), peak = traced_peak(read_cube, cube_path, BIOFINGERPRINT_BAND)
        # 2.9 MB: the band's 1.7 MB plus the block buffer, never the cube's 5.7 MB
        assert peak < band.intensities.nbytes + (1 << 20) + 200_000, peak

    @pytest.mark.parametrize("damage", ["crc", "nan", "inf", "-inf", "truncated"])
    def test_damage_outside_the_band_is_data_error(self, cube_path, damage):
        # pixel 0, point 0: 3950 cm^-1, far outside the biofingerprint
        if damage == "crc":
            raw = bytearray(cube_path.read_bytes())
            raw[_payload_start(cube_path, "intensities")] ^= 0x01
            cube_path.write_bytes(bytes(raw))
        elif damage == "truncated":
            raw = cube_path.read_bytes()
            cube_path.write_bytes(raw[:_payload_start(cube_path, "intensities") + 4])
        else:
            arrays, meta = read_container(cube_path, "hypercube")
            arrays["intensities"][0, 0, 0] = float(damage)
            write_container(cube_path, arrays, meta)  # with the CRC of the new bytes
        for band in (None, BIOFINGERPRINT_BAND):
            with pytest.raises(DataError):
                read_cube(cube_path, band)

    @pytest.mark.parametrize("edit", [
        lambda d: d["arrays"][0].update(shape=[31 * 29, RAW_AXIS.n_points]),
        lambda d: d["meta"]["axis"].update(n_points=467),
        lambda d: d["meta"].pop("axis"),
        lambda d: d["meta"]["axis"].update(start_wn=1500.0),
    ], ids=["two-dimensional", "axis-disagrees", "no-axis", "band-off-axis"])
    def test_cube_that_does_not_fit_its_axis_is_data_error(self, cube_path, edit):
        rewrite_directory(cube_path, edit)
        with pytest.raises(DataError):
            read_cube(cube_path, BIOFINGERPRINT_BAND)

    def test_only_a_float_array_can_be_cut(self, tmp_path):
        path = tmp_path / "ints.crns"
        write_container(path, {"x": np.arange(12).reshape(3, 4)}, {"kind": "test"})
        with pytest.raises(DataError, match="floating-point"):
            read_container(path, "test", lambda meta, shapes: {"x": slice(1, 3)})
        whole = read_container(path, "test")[0]["x"]
        assert whole.tobytes() == np.arange(12).reshape(3, 4).tobytes()


def _edited_container(path, edit, n=4):
    write_container(path, {"x": np.arange(n, dtype=np.int64)}, {"kind": "test"})
    rewrite_directory(path, edit)
    return lambda: read_container(path, "test")


def _entry(**fields):
    return lambda directory: directory["arrays"][0].update(fields)


def _duplicate_name(path):
    """Two arrays, both renamed "a" in the directory."""
    write_container(path, {"a": np.arange(4), "b": np.arange(10, 14)}, {"kind": "test"})
    rewrite_directory(path, lambda d: [e.update(name="a") for e in d["arrays"]])
    return lambda: read_container(path, "test")


def _edited_cube(path, edit):
    """A 2 x 2 cube whose directory meta edit(meta) has changed."""
    write_cube(HyperCube(np.zeros((2, 2, RAW_AXIS.n_points), dtype=np.float32),
                         RAW_AXIS, 0, 1, "AT", "none"), path)
    rewrite_directory(path, lambda d: edit(d["meta"]))
    return lambda: read_cube(path)


def _edited_checkpoint(path, edit):
    """A well-formed container whose checkpoint arrays edit(arrays) has changed."""
    save_checkpoint(CarenetModel("type"), path)
    arrays, meta = read_container(path, "checkpoint")
    edit(arrays)
    write_container(path, arrays, meta)
    return lambda: load_checkpoint(path)


def _edited_spectraset(path, edit):
    """A well-formed container whose spectra-set arrays and meta edit(arrays, meta)
    has changed."""
    write_spectraset(small_spectraset(), path)
    arrays, meta = read_container(path, "spectraset")
    edit(arrays, meta)
    write_container(path, arrays, meta)
    return lambda: read_spectraset(path)


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
    pytest.param(lambda p: _edited_cube(p, lambda m: m.update(core_id="seven")),
                 id="non-integer-core-id"),
    # identity and axis fields that int() and float() would cast: 3.9 reads as
    # core 3, "7" as patient 7, true as core 1, "3950" as 3950.0
    pytest.param(lambda p: _edited_cube(p, lambda m: m.update(core_id=3.9)),
                 id="float-core-id-in-cube"),
    pytest.param(lambda p: _edited_cube(p, lambda m: m.update(patient_id="7")),
                 id="string-patient-id-in-cube"),
    pytest.param(lambda p: _edited_cube(p, lambda m: m.update(core_id=True)),
                 id="bool-core-id-in-cube"),
    pytest.param(lambda p: _edited_cube(p, lambda m: m["axis"].update(start_wn="3950")),
                 id="string-start-wn-in-cube"),
    # ids a SpectraSet's int32 would wrap: 2**32 + 3 to core 3, 2**40 + 7 to patient 7
    pytest.param(lambda p: _edited_cube(p, lambda m: m.update(core_id=2**32 + 3)),
                 id="core-id-past-int32-in-cube"),
    pytest.param(lambda p: _edited_cube(p, lambda m: m.update(patient_id=2**40 + 7)),
                 id="patient-id-past-int32-in-cube"),
    # float() of an integer past float64's range raises OverflowError
    pytest.param(lambda p: _edited_cube(p, lambda m: m["axis"].update(start_wn=10**400)),
                 id="start-wn-beyond-float64-in-cube"),
    pytest.param(_spectraset_as_checkpoint, id="checkpoint-from-spectraset"),
    pytest.param(lambda p: _edited_checkpoint(p, lambda a: a.popitem()),
                 id="checkpoint-missing-parameter"),
    pytest.param(lambda p: _edited_checkpoint(p, lambda a: a.update(extra=np.zeros(1, "<f4"))),
                 id="checkpoint-extra-array"),
    pytest.param(lambda p: _edited_checkpoint(p, _first_array(lambda v: v.astype(np.float64))),
                 id="checkpoint-float64-parameter"),
    pytest.param(lambda p: _edited_checkpoint(p, _first_array(lambda v: v.reshape(-1))),
                 id="checkpoint-wrong-shape"),
    pytest.param(lambda p: _edited_spectraset(p, lambda a, m: a["spectra"].put(0, np.nan)),
                 id="nan-spectrum"),
    pytest.param(lambda p: _edited_spectraset(p, lambda a, m: m["axis"].update(n_points=467.5)),
                 id="non-integer-n-points"),
    pytest.param(lambda p: _edited_spectraset(p, lambda a, m: m["axis"].update(end_wn="900")),
                 id="string-end-wn"),
    # row fields SpectraSet would cast: 2**31 + 1 wraps round, 0.9 truncates to 0
    pytest.param(lambda p: _edited_spectraset(
        p, lambda a, m: a.update(patient_id=a["patient_id"].astype(np.int64) + 2**31)),
        id="wide-patient-id"),
    pytest.param(lambda p: _edited_spectraset(p, lambda a, m: a.update(core_id=a["core_id"] + 0.9)),
                 id="float-core-id"),
    pytest.param(lambda p: _edited_spectraset(
        p, lambda a, m: m.update(subtype_order=list(reversed(SUBTYPES)))),
        id="reordered-subtypes"),
])
def test_malformed_input_is_data_error(tmp_path, make):
    path = tmp_path / "bad.bin"
    read = make(path)
    with pytest.raises(DataError) as info:
        read()
    assert str(path) in str(info.value)


def test_oversized_declared_shape_is_rejected_before_allocation(tmp_path):
    # a 1e12-byte array whose length matches its shape, in a file of a few hundred bytes
    read = _edited_container(tmp_path / "huge.bin",
                             _entry(shape=[125_000_000_000], length=10**12))

    def rejected():
        with pytest.raises(DataError, match="past end of file"):
            read()

    _, peak = traced_peak(rejected)
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# damaged files: every read either succeeds or raises DataError

READERS = {"cube": read_cube, "spectraset": read_spectraset, "checkpoint": load_checkpoint,
           "cube-band": lambda path: read_cube(path, BIOFINGERPRINT_BAND)}


# the kind each reader wants
KINDS = {"cube": "hypercube", "cube-band": "hypercube", "spectraset": "spectraset",
         "checkpoint": "checkpoint"}


@pytest.fixture(scope="module")
def one_file_per_kind(tmp_path_factory):
    """A file of each kind, named by it; reading the cube (1.6 MB) or the spectra
    set (1.9 MB) whole would exceed the 1 MB bound below."""
    root = tmp_path_factory.mktemp("kinds")
    write_cube(HyperCube(np.zeros((16, 16, RAW_AXIS.n_points), dtype=np.float32),
                         RAW_AXIS, 0, 1, "AT", "none"), root / "hypercube")
    write_spectraset(small_spectraset(1000), root / "spectraset")
    save_checkpoint(CarenetModel("type"), root / "checkpoint")
    return root


@pytest.mark.parametrize("reader,found", [
    (reader, found) for reader in sorted(READERS) for found in sorted(set(KINDS.values()))
    if found != KINDS[reader]])
def test_another_kind_is_refused_before_any_array_is_read(one_file_per_kind, reader, found):
    path = one_file_per_kind / found

    def refused():
        with pytest.raises(DataError) as info:
            READERS[reader](path)
        return str(info.value)

    message, peak = traced_peak(refused)
    assert peak < 1_000_000, peak
    assert str(path) in message
    assert repr(found) in message and repr(KINDS[reader]) in message


@pytest.fixture(scope="module")
def pristine_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(3)
    cube = HyperCube(rng.random((2, 3, RAW_AXIS.n_points), dtype=np.float32),
                     RAW_AXIS, 4, 2, "CA", "LB")
    truth = SimpleNamespace(role=np.ones((2, 3)), spike=np.zeros((2, 3)))
    write_cube(cube, root / "cube", ground_truth=truth)
    write_cube(cube, root / "cube-band", ground_truth=truth)
    write_spectraset(small_spectraset(), root / "spectraset")
    save_checkpoint(CarenetModel("subtype", seed=1), root / "checkpoint")
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
