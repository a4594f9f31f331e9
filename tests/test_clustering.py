import numpy as np
import pytest

from carenet.clustering import (
    kmeans,
    order_clusters_by_area,
    select_paraffin,
    select_tissue,
    write_masks_pgm,
)
from carenet.errors import DataError, NumericalError
from carenet.synthgen import SynthConfig
from tests.conftest import collect_panel, traced_peak


def exhaustive_two_partition(points):
    """Global optimum over all 2-partitions: the WCSS oracle for small inputs."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    best_wcss = np.inf
    best_assign = None
    for bits in range(1, 2 ** (n - 1)):  # point 0 fixed in cluster 0, halves the space
        assign = np.array([(bits >> i) & 1 for i in range(n)])
        wcss = 0.0
        for c in (0, 1):
            members = points[assign == c]
            if members.size:
                wcss += ((members - members.mean(axis=0)) ** 2).sum()
        if wcss < best_wcss:
            best_wcss = wcss
            best_assign = assign
    return best_assign, best_wcss


def assignment_wcss(points, assign, k):
    points = np.asarray(points, dtype=np.float64)
    total = 0.0
    for c in range(k):
        members = points[assign == c]
        if members.size:
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


class TestKmeans:
    def test_two_blobs_split_exactly(self):
        rng = np.random.default_rng(0)
        blob_a = 0.0 + rng.uniform(-0.01, 0.01, 6)
        blob_b = 10.0 + rng.uniform(-0.01, 0.01, 6)
        points = np.concatenate([blob_a, blob_b])[:, None]
        result = kmeans(points, 2, seed=1)
        oracle_assign, oracle_wcss = exhaustive_two_partition(points)
        # compare up to label swap
        ours = result.assignments
        match = np.array_equal(ours, oracle_assign) or np.array_equal(1 - ours, oracle_assign)
        assert match
        assert assignment_wcss(points, ours, 2) == oracle_wcss

    def test_k1_returns_mean(self, rng):
        points = rng.standard_normal((20, 3))
        result = kmeans(points, 1, seed=0)
        assert set(np.unique(result.assignments)) == {0}
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0))

    def test_identical_points_rejected(self):
        points = np.ones((10, 2))
        with pytest.raises(NumericalError):
            kmeans(points, 2, seed=0)

    def test_deterministic_per_seed(self, rng):
        points = rng.standard_normal((50, 4))
        a = kmeans(points, 3, seed=9)
        b = kmeans(points, 3, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_wcss_never_increases(self, rng):
        for seed in range(5):
            points = np.concatenate([
                rng.standard_normal((30, 2)),
                rng.standard_normal((30, 2)) + 3.0,
            ])
            result = kmeans(points, 2, seed=seed)
            diffs = np.diff(result.wcss_path)
            assert np.all(diffs <= 1e-9)

    def test_oracle_on_random_separated_instances(self, rng):
        for trial in range(5):
            a = rng.uniform(-0.5, 0.5, (6, 2))
            b = rng.uniform(-0.5, 0.5, (6, 2)) + 8.0
            points = np.concatenate([a, b])
            result = kmeans(points, 2, seed=trial)
            _, oracle_wcss = exhaustive_two_partition(points)
            assert assignment_wcss(points, result.assignments, 2) == pytest.approx(
                oracle_wcss, rel=1e-12
            )

    def test_centroids_are_the_gathered_means_bitwise(self, rng):
        # members over several row blocks: the blocked mean keeps numpy's
        # summation order, so the masks do not move
        points = np.concatenate([rng.standard_normal((3000, 8)),
                                 rng.standard_normal((2200, 8)) + 4.0])
        result = kmeans(points, 2, seed=3)
        for c in range(2):
            want = points[result.assignments == c].mean(axis=0)
            assert result.centroids[c].tobytes() == want.tobytes()

    def test_update_gathers_no_cluster(self, rng):
        points = np.concatenate([rng.standard_normal((10000, 200)),
                                 rng.standard_normal((10000, 200)) + 3.0])
        result, peak = traced_peak(kmeans, points, 2, 0)
        gathered = np.bincount(result.assignments).min() * points.shape[1] * 8
        assert peak < 0.5 * gathered, peak / gathered


def all_valid(assign):
    return np.ones(len(assign), dtype=bool)


class TestOrderClusters:
    def test_swaps_when_cluster0_larger(self):
        assign = np.array([0, 0, 1, 1])
        areas = np.array([5.0, 5.0, 1.0, 1.0])
        labels = order_clusters_by_area(assign, areas, all_valid(assign))[0]
        np.testing.assert_array_equal(labels, [1, 1, 0, 0])

    def test_keeps_when_ordered(self):
        assign = np.array([0, 0, 1, 1])
        areas = np.array([1.0, 1.0, 5.0, 5.0])
        labels = order_clusters_by_area(assign, areas, all_valid(assign))[0]
        np.testing.assert_array_equal(labels, assign)

    def test_tie_keeps_labels(self):
        assign = np.array([0, 1])
        areas = np.array([2.0, 2.0])
        labels = order_clusters_by_area(assign, areas, all_valid(assign))[0]
        np.testing.assert_array_equal(labels, assign)

    def test_cluster_without_valid_row_has_infinite_contrast(self):
        assign = np.array([0, 0, 1, 1])
        areas = np.array([1.0, 1.0, 5.0, 5.0])
        valid = np.array([False, False, True, True])
        assert order_clusters_by_area(assign, areas, valid)[1] == np.inf

    def test_rejected_mean_near_zero_has_infinite_contrast(self):
        assign = np.array([0, 0, 1, 1])
        areas = np.array([1e-13, -1e-13 / 2, 5.0, 5.0])  # cluster-0 mean 2.5e-14
        assert order_clusters_by_area(assign, areas, all_valid(assign))[1] == np.inf

    def test_contrast_after_swap_is_selected_over_rejected_magnitude(self):
        assign = np.array([0, 0, 1, 1])
        areas = np.array([6.0, 10.0, -1.0, -3.0])  # means 8 and -2: swapped
        labels, contrast = order_clusters_by_area(assign, areas, all_valid(assign))
        np.testing.assert_array_equal(labels, [1, 1, 0, 0])
        assert contrast == 8.0 / 2.0

    def test_excluded_row_changes_neither_order_nor_contrast(self):
        assign = np.array([0, 0, 1, 1, 0])
        areas = np.array([1.0, 1.0, 4.0, 6.0, 1e9])
        valid = np.array([True, True, True, True, False])
        labels, contrast = order_clusters_by_area(assign, areas, valid)
        np.testing.assert_array_equal(labels, assign)
        assert contrast == 5.0


@pytest.fixture(scope="module")
def panel():
    return collect_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=24, seed=11))


class TestSelectors:

    def test_tissue_mask_matches_ground_truth(self, panel):
        for core_id, cube in panel.cubes.items():
            truth = panel.ground_truth[core_id]
            mask = select_tissue(cube)
            accuracy = (mask.mask == truth.tissue_mask).mean()
            assert accuracy >= 0.99
            assert mask.plausible

    def test_paraffin_mask_matches_ground_truth(self, panel):
        for core_id, cube in panel.cubes.items():
            truth = panel.ground_truth[core_id]
            tissue = select_tissue(cube)
            paraffin = select_paraffin(cube, tissue)
            accuracy = (paraffin.mask == truth.paraffin_mask).mean()
            assert accuracy >= 0.99
            assert not (paraffin.mask & tissue.mask).any()

    def test_all_tissue_mask_yields_empty_paraffin(self, panel):
        cube = next(iter(panel.cubes.values()))
        from carenet.clustering import PixelMask

        all_tissue = PixelMask(np.ones((cube.rows, cube.cols), dtype=bool), "tissue")
        paraffin = select_paraffin(cube, all_tissue)
        assert not paraffin.mask.any()
        assert paraffin.low_coverage

    def test_zero_cube_degenerate(self):
        from carenet.dataset import HyperCube
        from carenet.spectral import RAW_AXIS

        cube = HyperCube(np.zeros((4, 4, RAW_AXIS.n_points), dtype=np.float32),
                         RAW_AXIS, 0, 0, "AT", "none")
        with pytest.raises(NumericalError):
            select_tissue(cube)

    def test_pure_paraffin_cube_flagged_implausible(self):
        # no amide signal anywhere: the clusters differ only by noise, so the
        # area contrast collapses toward 1 and the mask must come back flagged
        config = SynthConfig(n_patients=(1, 0, 0, 0), image_size=24, seed=13,
                             noise_sigma=0.002)
        panel = collect_panel(config)
        cube = panel.cubes[0]
        flat = cube.spectra_matrix().copy()
        paraffin_like = panel.ground_truth[0].paraffin_mask.ravel()
        donor = flat[paraffin_like][0]
        rng = np.random.default_rng(0)
        flat[:] = donor + rng.normal(0, 2e-4, flat.shape).astype(np.float32)
        from carenet.dataset import HyperCube

        pure = HyperCube(flat.reshape(cube.intensities.shape), cube.axis, 0, 0, "AT", "none")
        mask = select_tissue(pure)
        assert not mask.plausible

    def test_no_paraffin_cube_flagged_implausible(self):
        # tissue disc kept, paraffin ring replaced by slide-like spectra
        panel = collect_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=24, seed=17))
        cube = panel.cubes[0]
        truth = panel.ground_truth[0]
        flat = cube.spectra_matrix().copy()
        slide_like = truth.role.ravel() == 0
        donors = flat[slide_like]
        ring = truth.paraffin_mask.ravel()
        rng = np.random.default_rng(1)
        flat[ring] = donors[rng.integers(0, donors.shape[0], ring.sum())]
        from carenet.dataset import HyperCube

        cube2 = HyperCube(flat.reshape(cube.intensities.shape), cube.axis, 0, 0, "AT", "none")
        tissue = select_tissue(cube2)
        paraffin = select_paraffin(cube2, tissue)
        assert not paraffin.plausible

    def test_determinism(self, panel):
        cube = next(iter(panel.cubes.values()))
        a = select_tissue(cube, seed=3)
        b = select_tissue(cube, seed=3)
        np.testing.assert_array_equal(a.mask, b.mask)


class TestPgmExport:
    def test_round_trip_bytes(self, tmp_path):
        tissue = np.zeros((4, 5), dtype=bool)
        paraffin = np.zeros((4, 5), dtype=bool)
        tissue[1, 2] = True
        paraffin[2, 3] = True
        from carenet.clustering import PixelMask

        path = tmp_path / "masks.pgm"
        write_masks_pgm(path, PixelMask(tissue, "tissue"), PixelMask(paraffin, "paraffin"))
        raw = path.read_bytes()
        header, rest = raw.split(b"\n255\n", 1)
        assert header == b"P5\n5 4"
        image = np.frombuffer(rest, dtype=np.uint8).reshape(4, 5)
        assert image[1, 2] == 255
        assert image[2, 3] == 128
        assert image.sum() == 255 + 128

    def test_overlapping_masks_rejected(self, tmp_path):
        from carenet.clustering import PixelMask

        both = np.ones((2, 2), dtype=bool)
        with pytest.raises(DataError):
            write_masks_pgm(tmp_path / "x.pgm", PixelMask(both, "tissue"),
                            PixelMask(both, "paraffin"))
