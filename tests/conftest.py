import json
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def central_difference(f, x, h=1e-3):
    """Central finite-difference gradient of scalar f at x, element by element.

    Deliberately naive: this is the independent oracle the engine's reverse
    mode is checked against.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def traced_peak(fn, *args):
    """(fn(*args), the peak of traced Python allocations while it ran, in bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def relative_error(approx, exact):
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(approx), np.abs(exact)), 1e-8)
    return float(np.max(np.abs(approx - exact) / denom))


def count_params(model) -> int:
    """Total trainable parameter count of a model."""
    return int(sum(p.value.size for p in model.parameters()))


def rewrite_directory(path, edit):
    """Rewrite a CRNS file's JSON directory in place; edit(directory) mutates it.

    The payload moves to the new 64-byte-aligned start and its CRCs are kept,
    so a reader gets past every check that does not look at the edited field.
    """
    raw = Path(path).read_bytes()
    (dir_len,) = struct.unpack_from("<I", raw, 6)
    directory = json.loads(raw[10:10 + dir_len])
    payload = raw[(10 + dir_len + 63) // 64 * 64:]
    edit(directory)
    new_dir = json.dumps(directory, separators=(",", ":"), sort_keys=True).encode()
    header = raw[:6] + struct.pack("<I", len(new_dir)) + new_dir
    Path(path).write_bytes(header + b"\x00" * (-len(header) % 64) + payload)


def collect_panel(config):
    """A whole panel in memory: gen_panel's cubes kept as they are emitted.

    The result has `patients`, `cubes` and `ground_truth` (both by core id)
    and `h2o_cube`.
    """
    from carenet.synthgen import gen_panel

    panel = SimpleNamespace(cubes={}, ground_truth={}, h2o_cube=None)

    def keep(cube, truth):
        if truth is None:
            panel.h2o_cube = cube
        else:
            panel.cubes[cube.core_id] = cube
            panel.ground_truth[cube.core_id] = truth

    panel.patients = gen_panel(config, keep)
    return panel


def write_panel(panel, directory):
    """Write a generated panel's cubes; returns (core paths in core-id order, H2O path)."""
    from carenet.dataset import write_cube

    directory = Path(directory)
    core_paths = []
    for core_id in sorted(panel.cubes):
        core_paths.append(directory / f"core_{core_id:04d}.crns")
        write_cube(panel.cubes[core_id], core_paths[-1])
    write_cube(panel.h2o_cube, directory / "h2o.crns")
    return core_paths, directory / "h2o.crns"
