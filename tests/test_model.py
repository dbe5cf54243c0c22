"""Forward passes, analytic gradients, init, and checkpoint files."""

import numpy as np
import pytest

import oracles
from sqkit import (
    AlignNetParams,
    CheckpointError,
    HeadParams,
    ValidationError,
    Workspace,
    alignnet_backward,
    alignnet_raw,
    clip_score,
    copy_params,
    head_backward,
    head_raw,
    init_alignnet,
    init_head,
    load_params,
    save_params,
    zero_grads,
)
from sqkit.inference import predict_clipped


def params_equal(a, b):
    """Bitwise equality of two parameter sets of the same kind."""
    if type(a) is not type(b):
        return False
    if isinstance(a, AlignNetParams) and a.dataset_ids != b.dataset_ids:
        return False
    da, db = a.as_dict(), b.as_dict()
    return all(da[k].shape == db[k].shape and np.array_equal(da[k], db[k]) for k in da)


def head_arrays(rng, dim, hidden):
    return {
        "w1": rng.normal(size=(dim, hidden)),
        "b1": rng.normal(size=hidden),
        "w2": rng.normal(size=hidden),
        "b2": rng.normal(size=()),
    }


def alignnet_arrays(rng, dim, hidden, embed_dim, decoder_hidden, n_sets):
    return {
        "w1": rng.normal(size=(dim, hidden)),
        "b1": rng.normal(size=hidden),
        "table": rng.normal(size=(n_sets, embed_dim)),
        "v1": rng.normal(size=(hidden + embed_dim, decoder_hidden)),
        "c1": rng.normal(size=decoder_hidden),
        "v2": rng.normal(size=decoder_hidden),
        "c2": rng.normal(size=()),
    }


class TestHeadForward:
    def test_zero_weights_yield_output_bias(self):
        params = HeadParams(w1=np.zeros((4, 3)), b1=np.zeros(3), w2=np.zeros(3), b2=np.asarray(3.2))
        # Power-of-two frame count keeps the mean of identical values exact.
        frames = np.random.default_rng(0).normal(size=(4, 4))
        assert head_raw(params, frames) == 3.2

    def test_duplicating_frames_leaves_mean_unchanged(self):
        rng = np.random.default_rng(1)
        params = init_head(5, 4, seed=7)
        frames = rng.normal(size=(3, 5))
        doubled = np.concatenate([frames, frames])
        assert head_raw(params, doubled) == pytest.approx(head_raw(params, frames), rel=1e-14)

    def test_frame_order_invariance(self):
        rng = np.random.default_rng(2)
        params = init_head(5, 4, seed=7)
        frames = rng.normal(size=(8, 5))
        shuffled = frames[rng.permutation(8)]
        assert head_raw(params, shuffled) == pytest.approx(head_raw(params, frames), rel=1e-13)

    def test_clipping_to_score_range(self):
        high = HeadParams(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=np.asarray(7.5))
        low = HeadParams(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=np.asarray(0.2))
        frames = np.zeros((3, 2))
        assert head_raw(high, frames) == 7.5
        assert clip_score(head_raw(high, frames)) == 5.0
        assert clip_score(head_raw(low, frames)) == 1.0
        assert clip_score(3.25) == 3.25

    def test_a_nan_raw_is_refused_not_clipped(self):
        # max(1.0, nan) is 1.0: unchecked, a NaN parameter would score every utterance 1.0.
        params = init_head(4, 3, seed=0).with_arrays({"b2": np.asarray(np.nan)})
        with pytest.raises(ValidationError, match="NaN"):
            predict_clipped(params, np.zeros((2, 4)))
        with pytest.raises(ValidationError, match="NaN"):
            clip_score(float("nan"))
        assert clip_score(float("inf")) == 5.0 and clip_score(-float("inf")) == 1.0

    def test_wrong_dim_rejected(self):
        params = init_head(5, 4, seed=0)
        from sqkit import ValidationError

        with pytest.raises(ValidationError):
            head_raw(params, np.zeros((3, 6)))


class TestAlignNetForward:
    def test_identical_table_rows_collapse_dataset_dependence(self):
        rng = np.random.default_rng(3)
        base = init_alignnet(5, ("a", "b", "c"), seed=1, hidden=4, embed_dim=3, decoder_hidden=4)
        shared_row = rng.normal(size=3)
        params = base.with_arrays({"table": np.tile(shared_row, (3, 1))})
        frames = rng.normal(size=(4, 5))
        outs = {alignnet_raw(params, frames, ds) for ds in ("a", "b", "c")}
        assert len(outs) == 1

    def test_zero_weights_yield_decoder_bias(self):
        base = init_alignnet(4, ("x",), seed=2, hidden=3, embed_dim=2, decoder_hidden=3)
        params = base.with_arrays(
            {k: np.zeros_like(v) for k, v in base.as_dict().items() if k != "c2"}
        ).with_arrays({"c2": np.asarray(2.75)})
        frames = np.random.default_rng(4).normal(size=(5, 4))
        assert alignnet_raw(params, frames, "x") == 2.75

    def test_unknown_dataset_id_raises(self):
        params = init_alignnet(4, ("x", "y"), seed=3, hidden=3, embed_dim=2, decoder_hidden=3)
        with pytest.raises(KeyError):
            alignnet_raw(params, np.zeros((2, 4)), "z")

    def test_clipped_score_inside_range(self):
        params = init_alignnet(4, ("x",), seed=4, hidden=3, embed_dim=2, decoder_hidden=3)
        frames = np.random.default_rng(5).normal(size=(3, 4))
        assert 1.0 <= clip_score(alignnet_raw(params, frames, "x")) <= 5.0

    def test_duplicate_dataset_ids_rejected(self):
        from sqkit import ValidationError

        with pytest.raises(ValidationError):
            init_alignnet(4, ("x", "x"), seed=0)


class TestPackedForward:
    """The packed forward, which the backward kernels run as their first
    half, over random packed batches against the written-out reference
    forward of each utterance alone."""

    @staticmethod
    def batches(rng, dim):
        """(frames, lengths) draws: a single one-frame utterance, a single
        longer one, and mixed batches that hold one-frame utterances."""
        yield rng.normal(size=(1, dim)), [1]
        yield rng.normal(size=(7, dim)), [7]
        for _ in range(20):
            lengths = rng.integers(1, 9, size=int(rng.integers(2, 7)))
            lengths[rng.integers(0, len(lengths))] = 1
            yield rng.normal(size=(int(lengths.sum()), dim)), lengths.tolist()

    @staticmethod
    def split(frames, lengths):
        return np.split(frames, np.cumsum(lengths)[:-1])

    @staticmethod
    def raws(backward, params, frames, **kwargs):
        """The raw scores backward's forward half hands to its loss."""
        seen = []

        def record(raws):
            seen.append(raws.copy())
            return 0.0, np.zeros_like(raws)

        backward(params, frames, loss=record, **kwargs)
        return seen[0]

    def test_head_matches_the_reference(self):
        rng = np.random.default_rng(40)
        for frames, lengths in self.batches(rng, 6):
            params = HeadParams(**head_arrays(rng, 6, 5))
            want = [oracles.head_raw_reference(params, f) for f in self.split(frames, lengths)]
            got = self.raws(head_backward, params, frames, lengths=lengths)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_alignnet_matches_the_reference(self):
        rng = np.random.default_rng(41)
        ids = ("a", "b", "c")
        for frames, lengths in self.batches(rng, 6):
            params = AlignNetParams(**alignnet_arrays(rng, 6, 5, 3, 4, len(ids)), dataset_ids=ids)
            rows = rng.integers(0, len(ids), size=len(lengths))
            utterances = zip(self.split(frames, lengths), rows)
            want = [oracles.alignnet_raw_reference(params, f, ids[r]) for f, r in utterances]
            got = self.raws(alignnet_backward, params, frames, lengths=lengths, rows=rows)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestInit:
    def test_head_deterministic_per_seed(self):
        a = init_head(10, 6, seed=42)
        b = init_head(10, 6, seed=42)
        c = init_head(10, 6, seed=43)
        assert params_equal(a, b)
        assert not params_equal(a, c)

    def test_head_glorot_bounds_and_zero_biases(self):
        params = init_head(30, 20, seed=9)
        assert np.max(np.abs(params.w1)) <= np.sqrt(6.0 / 50)
        assert np.max(np.abs(params.w2)) <= np.sqrt(6.0 / 21)
        assert np.all(params.b1 == 0.0) and params.b2 == 0.0

    def test_alignnet_glorot_bounds(self):
        ids = tuple(f"d{i}" for i in range(8))
        params = init_alignnet(30, ids, seed=9, hidden=20, embed_dim=6, decoder_hidden=10)
        assert np.max(np.abs(params.w1)) <= np.sqrt(6.0 / 50)
        assert np.max(np.abs(params.table)) <= np.sqrt(6.0 / 14)
        assert np.max(np.abs(params.v1)) <= np.sqrt(6.0 / 36)
        assert np.max(np.abs(params.v2)) <= np.sqrt(6.0 / 11)
        assert np.all(params.c1 == 0.0) and params.c2 == 0.0

    def test_alignnet_deterministic_per_seed(self):
        a = init_alignnet(7, ("p", "q"), seed=5, hidden=4, embed_dim=3, decoder_hidden=4)
        b = init_alignnet(7, ("p", "q"), seed=5, hidden=4, embed_dim=3, decoder_hidden=4)
        assert params_equal(a, b)

    def test_weights_are_not_constant(self):
        params = init_head(10, 6, seed=1)
        assert np.std(params.w1) > 0.0


class TestHeadGradients:
    def test_backward_matches_forward(self):
        rng = np.random.default_rng(10)
        arrays = head_arrays(rng, 5, 4)
        frames = rng.normal(size=(4, 5))
        params = HeadParams(**arrays)
        raw, _ = head_backward(params, frames)
        assert raw == head_raw(params, frames)  # one forward half: the same bits

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dim = int(rng.integers(5, 9))
            hidden = int(rng.integers(4, 7))
            t = int(rng.integers(3, 7))

            def draw():
                return head_arrays(rng, dim, hidden), rng.normal(size=(t, dim))

            def preacts(candidate):
                arrays, frames = candidate
                return [frames @ arrays["w1"] + arrays["b1"]]

            arrays, frames = oracles.draw_clear_of_kinks(draw, preacts)
            params = HeadParams(**arrays)
            _, grads = head_backward(params, frames)
            worst = oracles.check_gradients(
                lambda a: oracles.head_raw_reference(HeadParams(**a), frames), arrays, grads
            )
            assert worst < 1e-4


class TestAlignNetGradients:
    def test_backward_matches_forward(self):
        rng = np.random.default_rng(12)
        arrays = alignnet_arrays(rng, 5, 4, 3, 4, 2)
        params = AlignNetParams(**arrays, dataset_ids=("a", "b"))
        frames = rng.normal(size=(3, 5))
        raw, _ = alignnet_backward(params, frames, "b")
        assert raw == alignnet_raw(params, frames, "b")  # one forward half: the same bits

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(13)
        ids = ("a", "b", "c")
        for _ in range(8):
            dim = int(rng.integers(5, 9))
            hidden = int(rng.integers(4, 7))
            t = int(rng.integers(3, 6))
            target = ids[int(rng.integers(0, 3))]

            def draw():
                return alignnet_arrays(rng, dim, hidden, 3, 4, 3), rng.normal(size=(t, dim))

            def preacts(candidate):
                arrays, frames = candidate
                params = AlignNetParams(**arrays, dataset_ids=ids)
                row = arrays["table"][params.row_index(target)]
                pre1 = frames @ arrays["w1"] + arrays["b1"]
                trunk = np.maximum(pre1, 0.0)
                fused = np.concatenate([trunk, np.tile(row, (t, 1))], axis=1)
                return [pre1, fused @ arrays["v1"] + arrays["c1"]]

            arrays, frames = oracles.draw_clear_of_kinks(draw, preacts)
            params = AlignNetParams(**arrays, dataset_ids=ids)
            _, grads = alignnet_backward(params, frames, target)
            worst = oracles.check_gradients(
                lambda a: oracles.alignnet_raw_reference(AlignNetParams(**a, dataset_ids=ids), frames, target),
                arrays,
                grads,
            )
            assert worst < 1e-4

    def test_only_the_active_table_row_gets_gradient(self):
        rng = np.random.default_rng(14)
        params = AlignNetParams(**alignnet_arrays(rng, 4, 3, 2, 3, 3), dataset_ids=("a", "b", "c"))
        _, grads = alignnet_backward(params, rng.normal(size=(3, 4)), "b")
        assert np.all(grads["table"][[0, 2]] == 0.0)


class TestPackedKernels:
    """One packed call over a batch of unequal utterances (one of a single
    frame) against central differences of the summed per-utterance loss."""

    LENGTHS = (4, 1, 3, 2)
    IDS = ("a", "b", "c")
    ROWS = (2, 0, 2, 1)  # row 2 twice: its gradient must add up, not overwrite
    TARGETS = np.array([2.0, -1.0, 0.5, 3.0])
    WEIGHTS = np.array([1.0, 0.5, 2.0, 1.5])

    def loss(self, raws):
        err = raws - self.TARGETS
        return float(np.sum(self.WEIGHTS * err**2)), 2.0 * self.WEIGHTS * err

    def split(self, frames):
        return np.split(frames, np.cumsum(self.LENGTHS)[:-1])

    def test_head_finite_differences(self):
        rng = np.random.default_rng(15)
        dim, hidden = 5, 4

        def draw():
            return head_arrays(rng, dim, hidden), rng.normal(size=(sum(self.LENGTHS), dim))

        arrays, frames = oracles.draw_clear_of_kinks(draw, lambda c: [c[1] @ c[0]["w1"] + c[0]["b1"]])
        value, grads = head_backward(HeadParams(**arrays), frames, lengths=self.LENGTHS, loss=self.loss)

        def total(a):
            raws = [oracles.head_raw_reference(HeadParams(**a), f) for f in self.split(frames)]
            return self.loss(np.array(raws))[0]

        assert value == pytest.approx(total(arrays), rel=1e-14)
        assert oracles.check_gradients(total, arrays, grads) < 1e-4

    def test_alignnet_finite_differences(self):
        rng = np.random.default_rng(16)
        dim, hidden, embed_dim, decoder_hidden = 5, 4, 3, 4
        ids = [self.IDS[r] for r in self.ROWS]

        def draw():
            return (
                alignnet_arrays(rng, dim, hidden, embed_dim, decoder_hidden, len(self.IDS)),
                rng.normal(size=(sum(self.LENGTHS), dim)),
            )

        def preacts(candidate):
            arrays, frames = candidate
            pre1 = frames @ arrays["w1"] + arrays["b1"]
            embeds = np.repeat(arrays["table"][list(self.ROWS)], self.LENGTHS, axis=0)
            fused = np.concatenate([np.maximum(pre1, 0.0), embeds], axis=1)
            return [pre1, fused @ arrays["v1"] + arrays["c1"]]

        arrays, frames = oracles.draw_clear_of_kinks(draw, preacts)
        params = AlignNetParams(**arrays, dataset_ids=self.IDS)
        value, grads = alignnet_backward(params, frames, lengths=self.LENGTHS, rows=self.ROWS, loss=self.loss)

        def total(a):
            p = AlignNetParams(**a, dataset_ids=self.IDS)
            raws = [oracles.alignnet_raw_reference(p, f, d) for f, d in zip(self.split(frames), ids)]
            return self.loss(np.array(raws))[0]

        assert value == pytest.approx(total(arrays), rel=1e-14)
        assert oracles.check_gradients(total, arrays, grads) < 1e-4

    def test_reused_workspace_gives_the_same_gradients(self):
        rng = np.random.default_rng(17)
        params = AlignNetParams(**alignnet_arrays(rng, 5, 4, 3, 4, 3), dataset_ids=self.IDS)
        frames = rng.normal(size=(sum(self.LENGTHS), 5))
        work = Workspace(rows=2)
        for lengths, rows in (((10,), (1,)), (self.LENGTHS, self.ROWS), ((2, 3), (0, 0))):
            batch = frames[: sum(lengths)]
            fresh = alignnet_backward(params, batch, lengths=lengths, rows=rows)
            reused = alignnet_backward(params, batch, lengths=lengths, rows=rows, work=work)
            assert fresh[0] == reused[0]
            for name in fresh[1]:
                np.testing.assert_array_equal(fresh[1][name], reused[1][name])

    def test_loss_error_propagates(self):
        params = init_head(3, 2, seed=0)

        def reject(raws):
            raise RuntimeError("rejected")

        with pytest.raises(RuntimeError, match="rejected"):
            head_backward(params, np.ones((3, 3)), lengths=[1, 2], loss=reject)

    @pytest.mark.parametrize("lengths", [[], [3], [2, 0, 2], [[4]]])
    def test_lengths_must_cover_the_frames(self, lengths):
        with pytest.raises(ValidationError, match="lengths"):
            head_backward(init_head(3, 2, seed=0), np.ones((4, 3)), lengths=lengths)

    @pytest.mark.parametrize("rows", [[0], [0, 3], [-1, 0]])
    def test_rows_must_index_the_table(self, rows):
        params = init_alignnet(3, self.IDS, seed=0, hidden=2, embed_dim=2, decoder_hidden=2)
        with pytest.raises(ValidationError, match="table row"):
            alignnet_backward(params, np.ones((4, 3)), lengths=[2, 2], rows=rows)


class TestCheckpointFiles:
    def test_head_round_trip_bit_exact(self, tmp_path):
        params = init_head(6, 4, seed=21)
        path = tmp_path / "head.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert isinstance(loaded, HeadParams)
        assert params_equal(loaded, params)

    def test_alignnet_round_trip_preserves_ids(self, tmp_path):
        ids = ("bvcc", "tencent", "nisqa-é")
        params = init_alignnet(6, ids, seed=22, hidden=4, embed_dim=3, decoder_hidden=4)
        path = tmp_path / "align.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert isinstance(loaded, AlignNetParams)
        assert loaded.dataset_ids == ids
        assert params_equal(loaded, params)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_params(path)

    @pytest.mark.parametrize("name, value", [("b2", np.nan), ("w1", np.inf)])
    def test_a_non_finite_value_is_rejected_naming_the_file_and_array(self, tmp_path, name, value):
        params = init_head(4, 3, seed=0)
        bad = params.as_dict()[name].copy()
        bad.flat[0] = value
        path = tmp_path / "params.ckpt"
        save_params(params.with_arrays({name: bad}), path)
        with pytest.raises(CheckpointError, match=f"{path}: non-finite values in {name}$"):
            load_params(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_head(6, 4, seed=23)
        path = tmp_path / "cut.bin"
        save_params(params, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CheckpointError):
            load_params(path)


class TestParamUtilities:
    def test_copy_is_equal_but_independent(self):
        params = init_head(5, 3, seed=30)
        clone = copy_params(params)
        assert params_equal(clone, params)
        clone.w1[0, 0] += 1.0
        assert not params_equal(clone, params)

    def test_kinds_never_compare_equal(self):
        head = init_head(5, 3, seed=31)
        align = init_alignnet(5, ("a",), seed=31, hidden=3, embed_dim=2, decoder_hidden=3)
        assert not params_equal(head, align)

    def test_zero_grads_shapes(self):
        params = init_alignnet(5, ("a", "b"), seed=32, hidden=3, embed_dim=2, decoder_hidden=3)
        grads = zero_grads(params)
        for name, arr in params.as_dict().items():
            assert grads[name].shape == arr.shape
            assert np.all(grads[name] == 0.0)
