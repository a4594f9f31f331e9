import numpy as np
import pytest

from carenet.errors import DataError, PipelineError
from carenet.model import (
    BLOCKS_PER_STAGE,
    INPUT_LENGTH,
    STAGE_FILTERS,
    build_carenet,
    load_checkpoint,
    save_checkpoint,
)
from tests.conftest import count_params


def architecture_param_count_oracle(head_units: int) -> int:
    """Layer-by-layer count from the architecture definition alone.

    Walks the same stage table the builder uses but tallies parameters with
    plain conv/dense arithmetic, independent of any Param bookkeeping.
    """

    def conv(out_c, in_c, k):
        return out_c * in_c * k + out_c

    total = conv(16, 1, 7)  # stem
    in_ch = 16
    for stage, filters in enumerate(STAGE_FILTERS):
        for block in range(BLOCKS_PER_STAGE):
            stride = 2 if stage > 0 and block == 0 else 1
            total += conv(filters, in_ch, 3)      # first conv of the block
            total += conv(filters, filters, 3)    # second conv
            if stride != 1 or in_ch != filters:
                total += conv(filters, in_ch, 1)  # projection shortcut
            in_ch = filters
    total += in_ch * head_units + head_units      # dense head
    return total


class TestArchitecture:
    def test_binary_parameter_count(self):
        model = build_carenet("type")
        assert count_params(model) == architecture_param_count_oracle(1)
        assert count_params(model) == 241_057

    def test_subtype_parameter_count(self):
        model = build_carenet("subtype")
        assert count_params(model) == architecture_param_count_oracle(4)
        assert count_params(model) == 241_444

    def test_trunks_identical_across_heads(self):
        type_model = build_carenet("type")
        subtype_model = build_carenet("subtype")
        n_type = sum(p.value.size for p in type_model.trunk_parameters())
        n_subtype = sum(p.value.size for p in subtype_model.trunk_parameters())
        assert n_type == n_subtype

    def test_single_dense_count(self):
        from carenet.nn import Dense

        layer = Dense(128, 1)
        assert sum(p.value.size for p in layer.params()) == 129

    def test_length_propagation(self):
        model = build_carenet("type", seed=1)
        x = np.zeros((1, 1, INPUT_LENGTH), dtype=np.float32)
        h = model.stem_relu.forward(model.stem.forward(x))
        lengths = [h.shape[2]]
        for block in model.blocks:
            h = block.forward(h)
            lengths.append(h.shape[2])
        # 467 -> 234 (stem) -> stages: 234, 234, 117, 117, 59, 59, 30, 30
        assert lengths == [234, 234, 234, 117, 117, 59, 59, 30, 30]

    def test_zero_init_binary_output_is_half(self):
        model = build_carenet("type", seed=0)
        for p in model.parameters():
            p.value = np.zeros_like(p.value)
        out = model.forward(np.zeros((2, 1, INPUT_LENGTH), dtype=np.float32))
        np.testing.assert_array_equal(out, 0.5)

    def test_zero_weight_network_gradients_stop_at_head_bias(self, rng):
        # dead ReLU activations: only the head bias can receive gradient
        model = build_carenet("type", seed=0)
        for p in model.parameters():
            p.value = np.zeros_like(p.value)
        x = rng.random((3, 1, INPUT_LENGTH)).astype(np.float32)
        from carenet.nn import bce_loss

        probs = model.forward(x)
        _, grad = bce_loss(probs[:, 0], np.array([1.0, 0.0, 1.0]))
        model.backward(grad[:, None])
        assert np.any(model.dense.b.grad != 0.0)
        for param in model.trunk_parameters():
            np.testing.assert_array_equal(param.grad, 0.0)
        np.testing.assert_array_equal(model.dense.w.grad, 0.0)

    def test_same_seed_same_parameters(self):
        a = build_carenet("subtype", seed=9)
        b = build_carenet("subtype", seed=9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_different_seed_differs(self):
        a = build_carenet("type", seed=1)
        b = build_carenet("type", seed=2)
        assert any(not np.array_equal(pa.value, pb.value)
                   for pa, pb in zip(a.parameters(), b.parameters()))

    def test_forward_deterministic(self, rng):
        model = build_carenet("type", seed=4)
        x = rng.standard_normal((3, 1, INPUT_LENGTH)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x), model.forward(x))

    def test_unknown_head_rejected(self):
        with pytest.raises(DataError):
            build_carenet("both")

    def test_trunk_output_is_channels_last_memory(self, rng):
        # every layer hands on a (batch, channels, length) view of
        # (batch, length, channels) memory; a C-ordered map here would mean
        # some layer copies or transposes between convolutions
        model = build_carenet("type", seed=0)
        feats = model.trunk_forward(rng.random((3, INPUT_LENGTH)).astype(np.float32))
        assert feats.shape == (3, 128, 30)
        assert feats.transpose(0, 2, 1).flags.c_contiguous

    def test_probability_shapes(self, rng):
        x = rng.standard_normal((5, 1, INPUT_LENGTH)).astype(np.float32)
        assert build_carenet("type", seed=0).forward(x).shape == (5, 1)
        probs = build_carenet("subtype", seed=0).forward(x)
        assert probs.shape == (5, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestCheckpoints:
    def test_round_trip_forward_bit_identical(self, tmp_path, rng):
        model = build_carenet("subtype", seed=7)
        x = rng.standard_normal((4, 1, INPUT_LENGTH)).astype(np.float32)
        before = model.forward(x)
        path = tmp_path / "model.crnm"
        save_checkpoint(model, path, metadata={"seed": 7, "fold": 2, "epoch": 13})
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.forward(x), before)
        assert meta == {"seed": 7, "fold": 2, "epoch": 13}

    def test_truncated_file_rejected(self, tmp_path):
        model = build_carenet("type", seed=1)
        path = tmp_path / "model.crnm"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_corrupt_blob_fails_crc(self, tmp_path):
        model = build_carenet("type", seed=1)
        path = tmp_path / "model.crnm"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_head_mismatch_rejected(self, tmp_path):
        model = build_carenet("type", seed=1)
        path = tmp_path / "model.crnm"
        save_checkpoint(model, path)
        with pytest.raises(DataError):
            load_checkpoint(path, expect_head="subtype")

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bogus.crnm"
        path.write_bytes(b"HELLO WORLD, definitely not a checkpoint")
        with pytest.raises(DataError):
            load_checkpoint(path)


class TestReplayMode:
    def test_float64_replay_matches_float32_closely(self, rng):
        model = build_carenet("type", seed=3)
        replay = model.astype(np.float64)
        x = rng.standard_normal((2, 1, INPUT_LENGTH)).astype(np.float32)
        p32 = model.forward(x)
        p64 = replay.forward(x.astype(np.float64))
        assert replay.parameters()[0].value.dtype == np.float64
        np.testing.assert_allclose(p32, p64, atol=1e-4)


class TestForwardOnlyPass:
    @pytest.mark.parametrize("head", ["type", "subtype"])
    def test_backward_after_forward_only_pass_raises(self, head, rng):
        model = build_carenet(head, seed=3)
        x = rng.standard_normal((3, 1, INPUT_LENGTH)).astype(np.float32)
        grad = np.ones((3, model.n_classes), dtype=np.float32)
        model.forward(x)
        model.backward(grad)  # the caching pass leaves what backward needs
        model.forward(x, cache=False)
        with pytest.raises(PipelineError):
            model.backward(grad)
