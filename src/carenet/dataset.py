"""Persistent containers for cubes, preprocessed spectra and model checkpoints,
plus label codecs.

The on-disk format ("CRNS") is a single file holding named arrays:

    bytes 0-3   magic "CRNS"
    bytes 4-5   version, u16 little-endian
    bytes 6-9   directory length, u32 little-endian
    directory   UTF-8 JSON: {"arrays": [...], "meta": {...}}
    payload     arrays back to back, each start 64-byte aligned

Each directory entry records name, dtype (numpy string, little-endian),
shape, offset (relative to the 64-byte-aligned payload start), byte length,
and a CRC32. Readers must reject mismatched magic/version, duplicate names,
overlapping or short entries, and CRC failures. The meta "kind" names what a container
holds: "hypercube" and "spectraset" here, "checkpoint" in model.py. A spectra
set's container holds its ROW_FIELDS arrays in that order and with their
dtypes, with the axis and the label code orders (CORE_TYPES, SUBTYPES) in
the meta, and a read requires those dtypes and orders. `label_codes` turns
a core's label names into the codes its rows carry.

Reading takes the kind its caller expects, and the kind is part of the
directory check: a file of another kind is refused once its directory has
parsed, before any array is read. Reading then checks every directory entry
(dtype, shape, extent against the file size) before it allocates anything.
Each array streams in blocks of whole rows (its last axis) of about 1 MiB,
and every block's bytes feed a running CRC32. A full read fills the array's
own `np.empty` buffer in place, so each array is one allocation, never a
copy of the file. A cut read keeps only a slice of the last axis: blocks
land in one reused buffer, their values are checked finite there, and the
slice is copied out. Writing takes the CRC of, and writes, each array's own
buffer.

Every reader error names its file: a typed reader builds its object under
`errors.parsing`, which prefixes the path to a DataError and turns a field
of the wrong type or shape into one.

Band reads: `read_cube(path, band)` is a cut read of `intensities` that
keeps the band's points, on the sub-axis `sub_axis(axis, band_slice(axis,
band))`. Preprocessing only looks at the 1800-900 cm^-1 biofingerprint (467
of the 1580 raw points), so it reads cubes this way and never holds a whole
cube. The dropped points still pass the CRC and finiteness checks: a damaged
or non-finite value outside the band is a DataError, as in a full read.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, json_int, json_number, parsing
from .spectral import Band, WavenumberAxis, band_slice, sub_axis

__all__ = [
    "CORE_TYPES",
    "SUBTYPES",
    "SUBTYPE_NONE",
    "HyperCube",
    "SpectraSet",
    "PatientRecord",
    "ROW_FIELDS",
    "label_codes",
    "subtype_one_hot",
    "write_container",
    "read_container",
    "write_spectraset",
    "read_spectraset",
    "write_cube",
    "read_cube",
]

MAGIC = b"CRNS"
VERSION = 1
_ALIGN = 64
_BLOCK_BYTES = 1 << 20  # a streamed read's block: about 1 MiB of whole rows

CORE_TYPES = ("AT", "CA")
SUBTYPES = ("LA", "LB", "HER2", "TNBC")
SUBTYPE_NONE = -1

# a SpectraSet's per-row fields and their dtypes, in container order
ROW_FIELDS = {
    "spectra": np.float32,     # (n, p) in [0, 1]
    "patient_id": np.int32,
    "core_id": np.int32,
    "row": np.int32,
    "col": np.int32,
    "core_type": np.int8,      # 0=AT 1=CA
    "subtype": np.int8,        # 0..3, or -1 for AT
}


def label_codes(core_type: str, subtype: str) -> tuple[int, int]:
    """(core type, subtype) codes of a core's labels: "CA" is 1, a subtype its
    index in SUBTYPES, "none" is SUBTYPE_NONE."""
    if core_type not in CORE_TYPES:
        raise DataError(f"unknown core type {core_type!r}")
    if subtype != "none" and subtype not in SUBTYPES:
        raise DataError(f"unknown subtype {subtype!r}")
    return (CORE_TYPES.index(core_type),
            SUBTYPE_NONE if subtype == "none" else SUBTYPES.index(subtype))


def subtype_one_hot(codes: np.ndarray) -> np.ndarray:
    """One-hot matrix for an array of subtype codes (0..3); -1 rows rejected."""
    codes = np.asarray(codes)
    if np.any((codes < 0) | (codes >= len(SUBTYPES))):
        raise DataError("subtype codes must be in 0..3 for one-hot encoding")
    return np.eye(len(SUBTYPES), dtype=np.float32)[codes]


# ---------------------------------------------------------------------------
# data model


@dataclass
class HyperCube:
    """One imaged core: rows x cols x wavenumbers plus identity metadata."""

    intensities: np.ndarray
    axis: WavenumberAxis
    core_id: int
    patient_id: int
    core_type: str  # CA | AT | H2O (environment image)
    subtype: str    # LA | LB | HER2 | TNBC | none

    def __post_init__(self):
        self.intensities = np.asarray(self.intensities)
        if self.intensities.ndim != 3:
            raise DataError("cube intensities must be rows x cols x points")
        if self.intensities.shape[2] != self.axis.n_points:
            raise DataError("cube spectral dimension does not match axis")
        if self.intensities.shape[0] < 1 or self.intensities.shape[1] < 1:
            raise DataError("cube must have at least one pixel")
        # NaN propagates through min and max and an infinity is one of them,
        # so two reductions check finiteness with no cube-sized bool temporary
        if not (np.isfinite(self.intensities.min()) and np.isfinite(self.intensities.max())):
            raise DataError("cube intensities must be finite")
        if self.core_type not in CORE_TYPES + ("H2O",):
            raise DataError(f"unknown core type {self.core_type!r}")
        for name in ("core_id", "patient_id"):
            # a SpectraSet casts ids to int32, and a wrapped id could be another core's
            bounds = np.iinfo(ROW_FIELDS[name])
            if not bounds.min <= getattr(self, name) <= bounds.max:
                raise DataError(f"{name} {getattr(self, name)} does not fit in {bounds.dtype}")
        if self.core_type == "CA":
            if self.subtype not in SUBTYPES:
                raise DataError("CA cubes must carry a subtype")
        elif self.subtype != "none":
            raise DataError(f"{self.core_type} cubes must carry subtype 'none'")

    @property
    def rows(self) -> int:
        return self.intensities.shape[0]

    @property
    def cols(self) -> int:
        return self.intensities.shape[1]

    @property
    def n_spectra(self) -> int:
        return self.rows * self.cols

    def spectra_matrix(self) -> np.ndarray:
        """(rows*cols, n_points) view of the cube, row-major pixel order."""
        return self.intensities.reshape(self.n_spectra, self.axis.n_points)


@dataclass
class SpectraSet:
    """Preprocessed spectra with per-spectrum labels and pixel provenance.

    The row fields are ROW_FIELDS, each with n entries.
    """

    spectra: np.ndarray
    patient_id: np.ndarray
    core_id: np.ndarray
    row: np.ndarray
    col: np.ndarray
    core_type: np.ndarray
    subtype: np.ndarray
    axis: WavenumberAxis

    def __post_init__(self):
        for name, dtype in ROW_FIELDS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

        n = self.spectra.shape[0]
        if self.spectra.ndim != 2 or self.spectra.shape[1] != self.axis.n_points:
            raise DataError("spectra must be (n, axis.n_points)")
        for name in ROW_FIELDS:
            if name != "spectra" and getattr(self, name).shape != (n,):
                raise DataError(f"{name} must have one entry per spectrum")
        if n:  # finiteness by min/max, as in HyperCube
            lo, hi = self.spectra.min(), self.spectra.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DataError("spectra must be finite")
            if lo < 0.0 or hi > 1.0:
                raise DataError("spectra must lie in [0, 1] after min-max normalization")
        at = self.core_type == 0
        if np.any(self.subtype[at] != SUBTYPE_NONE) or np.any(self.subtype[~at] == SUBTYPE_NONE):
            raise DataError("subtype must be 'none' exactly for AT spectra")
        if np.any((self.subtype != SUBTYPE_NONE)
                  & ((self.subtype < 0) | (self.subtype >= len(SUBTYPES)))):
            raise DataError("subtype codes must be -1 or 0..3")

    def __len__(self) -> int:
        return self.spectra.shape[0]

    def select(self, mask: np.ndarray) -> "SpectraSet":
        return SpectraSet(**{name: getattr(self, name)[mask] for name in ROW_FIELDS},
                          axis=self.axis)


@dataclass(frozen=True)
class PatientRecord:
    """One patient: a cancer core and an adjacent-tissue core."""

    patient_id: int
    subtype: str
    ca_core_id: int
    at_core_id: int

    def __post_init__(self):
        if self.subtype not in SUBTYPES:
            raise DataError(f"unknown subtype {self.subtype!r}")


# ---------------------------------------------------------------------------
# CRNS container


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _le_dtype(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.byteorder == ">":
        return arr.astype(arr.dtype.newbyteorder("<"))
    return arr


def _bytes(arr: np.ndarray) -> np.ndarray:
    """The buffer of a C-contiguous array as a flat uint8 view (no copy)."""
    return arr.reshape(-1).view(np.uint8)


def write_container(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write named arrays plus a JSON metadata block to a CRNS file."""
    entries = []
    payload = []
    rel = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(_le_dtype(np.asarray(arr)))
        view = _bytes(arr)
        entries.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": rel,
            "length": view.size,
            "crc32": zlib.crc32(view),
        })
        payload.append((rel, view))
        rel = _align(rel + view.size)

    directory = json.dumps({"arrays": entries, "meta": meta},
                           separators=(",", ":"), sort_keys=True).encode("utf-8")
    header = MAGIC + struct.pack("<H", VERSION) + struct.pack("<I", len(directory)) + directory
    data_start = _align(len(header))

    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(b"\x00" * (data_start - len(header)))
        pos = 0
        for rel_off, view in payload:
            fh.write(b"\x00" * (rel_off - pos))
            fh.write(view)
            pos = rel_off + view.size


def read_container(path, kind: str, cut=None) -> tuple[dict[str, np.ndarray], dict]:
    """Read a CRNS file of `kind` back into (arrays, meta); validates structure and CRCs.

    A meta "kind" other than `kind` is a DataError before any array is read.
    `cut(meta, shapes)`, when given, is called once the directory has passed
    its checks, with each array's declared shape by name. It returns
    {name: slice}: each named array keeps only that slice of its last axis.
    """
    try:
        with open(path, "rb") as fh:
            return _read_open_container(fh, path, kind, cut)
    except OSError as exc:
        raise DataError(f"{path}: cannot read container ({exc})") from exc


def _read_open_container(fh, path, kind, cut) -> tuple[dict[str, np.ndarray], dict]:
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(10)
    if len(head) < 10 or head[:4] != MAGIC:
        raise DataError(f"{path}: not a CRNS container")
    (version,) = struct.unpack_from("<H", head, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    (dir_len,) = struct.unpack_from("<I", head, 6)
    if 10 + dir_len > size:
        raise DataError(f"{path}: truncated directory")
    with parsing(path, "directory"):  # a UnicodeDecodeError is a ValueError
        directory = json.loads(fh.read(dir_len).decode("utf-8"))
        entries, meta = directory["arrays"], directory["meta"]
        if not isinstance(entries, list) or not isinstance(meta, dict):
            raise DataError("directory arrays must be a list and its meta an object")
        if meta.get("kind") != kind:
            raise DataError(f"container holds {meta.get('kind')!r}, not {kind!r}")

    parsed = []
    names = set()
    for entry in entries:
        try:
            name = str(entry["name"])
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
            parsed.append((int(entry["offset"]), int(entry["length"]), int(entry["crc32"]),
                           name, dtype, shape))
        except Exception as exc:  # np.dtype(",f4") raises SyntaxError, not ValueError
            raise DataError(f"{path}: malformed directory entry ({exc!r})") from exc
        if name in names:
            raise DataError(f"{path}: two arrays are named {name!r}")
        names.add(name)
    parsed.sort(key=lambda e: e[0])

    # every extent is checked against the file size before the first allocation
    data_start = _align(10 + dir_len)
    prev_end = -1
    for offset, length, _, name, dtype, shape in parsed:
        # raw bytes read into object fields would be taken as PyObject pointers;
        # zero-size and subarray dtypes would allocate other than declared
        if dtype.hasobject or dtype.itemsize == 0 or dtype.subdtype is not None:
            raise DataError(f"{path}: array {name!r} has dtype {dtype}, "
                            "which cannot be read from raw bytes")
        if any(s < 0 for s in shape):
            raise DataError(f"{path}: array {name!r} has a negative dimension {shape}")
        # exact integer size: an int64 product could wrap round to the byte length
        if dtype.itemsize * math.prod(shape) != length:
            raise DataError(f"{path}: array {name!r} declared shape disagrees with byte length")
        if offset < 0 or offset < prev_end:
            raise DataError(f"{path}: array {name!r} overlaps a previous array")
        if data_start + offset + length > size:
            raise DataError(f"{path}: array {name!r} extends past end of file")
        prev_end = offset + length

    with parsing(path, kind):
        cuts = cut(meta, {e[3]: e[5] for e in parsed}) if cut else {}
    arrays: dict[str, np.ndarray] = {}
    for offset, length, crc, name, dtype, shape in parsed:
        fh.seek(data_start + offset)
        arrays[name] = _read_array(fh, path, name, dtype, shape, crc, cuts.get(name))
    return arrays, meta


def _read_array(fh, path, name, dtype, shape, crc, keep) -> np.ndarray:
    """One array from the file position, in blocks of whole rows of its last axis.

    Without `keep` each block is read straight into the result. With it, each
    block goes into one reused buffer, is checked finite (a dropped value
    meets no later check), and only its `keep` columns are copied out.
    """
    width = shape[-1] if shape else 1
    n_rows = math.prod(shape) // width if width else 0
    if keep is not None:
        if dtype.kind != "f":
            raise DataError(f"{path}: array {name!r} has dtype {dtype}, "
                            "but only a floating-point array can be cut")
        shape = shape[:-1] + (len(range(width)[keep]),)
    try:
        out = np.empty(shape, dtype=dtype)
    except ValueError as exc:  # a zero-size shape with a dimension numpy cannot index
        raise DataError(f"{path}: array {name!r} cannot be read as {dtype} {shape} "
                        f"({exc})") from exc
    rows = out.reshape(n_rows, out.shape[-1] if shape else 1)
    step = max(1, _BLOCK_BYTES // max(1, width * dtype.itemsize))
    buffer = None if keep is None else np.empty((min(step, n_rows), width), dtype=dtype)
    running = 0
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        block = rows[start:stop] if keep is None else buffer[:stop - start]
        view = _bytes(block)
        if fh.readinto(view) != view.size:
            raise DataError(f"{path}: array {name!r} extends past end of file")
        running = zlib.crc32(view, running)
        if keep is not None:
            # NaN propagates through min and max and an infinity is one of them
            if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                raise DataError(f"{path}: array {name!r} holds non-finite values")
            rows[start:stop] = block[:, keep]
    if running != crc:
        raise DataError(f"{path}: array {name!r} failed its CRC32 check")
    return out


def _axis_meta(axis: WavenumberAxis) -> dict:
    return {"start_wn": axis.start_wn, "end_wn": axis.end_wn, "n_points": axis.n_points}


def _axis_from_meta(meta: dict) -> WavenumberAxis:
    return WavenumberAxis(json_number(meta["start_wn"]), json_number(meta["end_wn"]),
                          json_int(meta["n_points"]))


def write_spectraset(sset: SpectraSet, path) -> None:
    arrays = {name: getattr(sset, name) for name in ROW_FIELDS}
    meta = {
        "kind": "spectraset",
        "axis": _axis_meta(sset.axis),
        "core_type_order": list(CORE_TYPES),
        "subtype_order": list(SUBTYPES),
    }
    write_container(path, arrays, meta)


def read_spectraset(path) -> SpectraSet:
    arrays, meta = read_container(path, "spectraset")
    with parsing(path, "spectraset"):
        if (meta["core_type_order"] != list(CORE_TYPES)
                or meta["subtype_order"] != list(SUBTYPES)):
            raise DataError("label code orders differ from CORE_TYPES and SUBTYPES")
        for name, dtype in ROW_FIELDS.items():
            if arrays[name].dtype != dtype:  # SpectraSet would cast it silently
                raise DataError(f"array {name!r} is {arrays[name].dtype}, "
                                f"not {np.dtype(dtype)}")
        return SpectraSet(**{name: arrays[name] for name in ROW_FIELDS},
                          axis=_axis_from_meta(meta["axis"]))


def write_cube(cube: HyperCube, path, ground_truth=None) -> None:
    """Persist a hypercube; generator ground truth rides along when given."""
    arrays = {"intensities": cube.intensities}
    meta = {
        "kind": "hypercube",
        "axis": _axis_meta(cube.axis),
        "core_id": cube.core_id,
        "patient_id": cube.patient_id,
        "core_type": cube.core_type,
        "subtype": cube.subtype,
    }
    if ground_truth is not None:
        arrays["gt_role"] = np.asarray(ground_truth.role, dtype=np.int8)
        arrays["gt_spike"] = np.asarray(ground_truth.spike, dtype=np.uint8)
        meta["ground_truth"] = {"roles": {"slide": 0, "tissue": 1, "paraffin": 2}}
    write_container(path, arrays, meta)


def read_cube(path, band: Band | None = None) -> tuple[HyperCube, dict[str, np.ndarray]]:
    """Read a hypercube; returns (cube, extras) with any gt_* arrays in extras.

    Given a band, this is a band read (see the module docstring): the cube
    holds only the band's points, on the band's sub-axis.
    """
    axis = None  # the cube's axis, which cut reads from the meta

    def cut(meta, shapes):
        nonlocal axis
        axis = _axis_from_meta(meta["axis"])
        if band is None:
            return {}
        shape = shapes["intensities"]
        # a zero-size cube could declare any point count, and band_slice spans the axis
        if len(shape) != 3 or shape[2] != axis.n_points or 0 in shape:
            raise DataError(f"cube intensities {shape} do not fit the axis")
        keep = band_slice(axis, band)
        axis = sub_axis(axis, keep)
        return {"intensities": keep}

    arrays, meta = read_container(path, "hypercube", cut)
    with parsing(path, "hypercube"):
        cube = HyperCube(
            intensities=arrays["intensities"],
            axis=axis,
            core_id=json_int(meta["core_id"]),
            patient_id=json_int(meta["patient_id"]),
            core_type=meta["core_type"],
            subtype=meta["subtype"],
        )
    extras = {k: v for k, v in arrays.items() if k.startswith("gt_")}
    return cube, extras

