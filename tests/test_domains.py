import math

import numpy as np
import pytest

from gradshift import diffcore as dc
from gradshift import domains as dom

# chi-squared critical values at p=0.001 for the dfs used below
CHI2_P001 = {1: 10.828, 3: 16.266, 5: 20.515, 9: 27.877}


def sorted_w1(a, b):
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


class TestRotatingMoons:
    def test_endpoint_angles(self):
        # t=0 unrotated; t=T-1 rotated by exactly total_degrees: un-rotating
        # each clean domain by its scheduled angle must land class 0 back on
        # the unit upper half-circle
        T, n = 5, 400
        seq = dom.make_rotating_moons(T, n, total_degrees=120.0,
                                      noise_sigma=0.0, seed=3)
        c0_first = seq.domains[0].features[seq.domains[0].labels == 0]
        assert np.max(np.abs(np.linalg.norm(c0_first, axis=1) - 1.0)) < 1e-9
        assert c0_first[:, 1].min() >= -1e-12
        for t in (1, T - 1):
            ang = math.radians(120.0) * t / (T - 1)
            undo = np.array([[math.cos(-ang), math.sin(-ang)],
                             [-math.sin(-ang), math.cos(-ang)]])
            d = seq.domains[t]
            c0 = d.features[d.labels == 0] @ undo
            assert np.max(np.abs(np.linalg.norm(c0, axis=1) - 1.0)) < 1e-9
            assert c0[:, 1].min() >= -1e-9
        # smaller un-rotation for the last domain does NOT land it back
        under = math.radians(60.0)
        undo = np.array([[math.cos(-under), math.sin(-under)],
                         [-math.sin(-under), math.cos(-under)]])
        last = seq.domains[T - 1]
        c0 = last.features[last.labels == 0] @ undo
        assert c0[:, 1].min() < -0.1

    def test_class1_apex(self):
        seq = dom.make_rotating_moons(2, 4000, total_degrees=0.0,
                                      noise_sigma=0.0, seed=7)
        c1 = seq.domains[0].features[seq.domains[0].labels == 1]
        assert c1[:, 1].min() >= -0.5 - 1e-12
        assert abs(c1[:, 1].min() - (-0.5)) < 1e-3  # apex (1,-0.5) is reached

    def test_label_proportions(self):
        seq = dom.make_rotating_moons(4, 10000, seed=11)
        for d in seq.domains:
            frac = np.mean(d.labels == 0)
            assert abs(frac - 0.5) < 0.02

    def test_t_too_small(self):
        with pytest.raises(ValueError):
            dom.make_rotating_moons(1, 10)

    def test_deterministic(self):
        a = dom.make_rotating_moons(3, 50, seed=9)
        b = dom.make_rotating_moons(3, 50, seed=9)
        for da, db in zip(a.domains, b.domains):
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.labels, db.labels)


class TestShiftingGaussians:
    def test_zero_drift(self):
        seq = dom.make_shifting_gaussians(3, 2000, shift_per_step=0.0,
                                          class_means=[[0.0]], sigma=0.5, seed=1)
        w = sorted_w1(seq.domains[0].features[:, 0], seq.domains[1].features[:, 0])
        assert w < 0.05

    def test_delta_true_recorded(self):
        seq = dom.make_shifting_gaussians(4, 10, shift_per_step=0.3, seed=0)
        assert seq.delta_true == 0.3

    def test_empirical_class_conditional_w1(self):
        # exact sorted-coupling W1 on generated 1-D samples vs the known 0.3
        seq = dom.make_shifting_gaussians(3, 2000, shift_per_step=0.3,
                                          class_means=[[-2.0], [2.0]],
                                          sigma=0.5, seed=5)
        for t in range(2):
            a, b = seq.domains[t], seq.domains[t + 1]
            for y in range(2):
                xa = a.features[a.labels == y, 0]
                xb = b.features[b.labels == y, 0]
                m = min(len(xa), len(xb))
                w = sorted_w1(xa[:m], xb[:m])
                assert abs(w - 0.3) < 0.05

    def test_direction_cycle(self):
        seq = dom.make_shifting_gaussians(
            5, 10, shift_per_step=1.0, class_means=[[0.0, 0.0]], sigma=0.0,
            seed=0, direction_cycle=[[0, 1], [1, 0], [0, -1], [-1, 0]])
        centers = [d.features.mean(axis=0) for d in seq.domains]
        for a, b in zip(centers, centers[1:]):
            assert abs(np.linalg.norm(b - a) - 1.0) < 1e-9
        assert np.allclose(centers[0], [0, 0])
        assert np.allclose(centers[2], [1, 1])

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            dom.make_shifting_gaussians(3, 10, sigma=-1.0)

    def test_label_marginal_chi2(self):
        seq = dom.make_shifting_gaussians(4, 1500, shift_per_step=0.1,
                                          class_means=[[-1.0], [1.0]], seed=8)
        counts = np.array([[np.sum(d.labels == y) for y in range(2)]
                           for d in seq.domains], dtype=float)
        col = counts.sum(axis=0)
        row = counts.sum(axis=1)
        expected = np.outer(row, col) / counts.sum()
        stat = float(((counts - expected) ** 2 / expected).sum())
        df = (counts.shape[0] - 1) * (counts.shape[1] - 1)
        assert stat < CHI2_P001[df]


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        seq = dom.make_shifting_gaussians(3, 25, shift_per_step=0.2,
                                          class_means=[[-1.0, 0.0], [1.0, 0.5]],
                                          sigma=0.3, seed=2)
        p = tmp_path / "seq.csv"
        dom.save_sequence(seq, p)
        back = dom.load_sequence(p)
        assert back.T == seq.T and back.k == seq.k and back.d == seq.d
        assert back.delta_true == seq.delta_true
        for a, b in zip(seq.domains, back.domains):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_hand_written_csv(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("t,y,x0,x1\n0,0,0.0,1.0\n0,1,1.0,0.0\n1,0,0.5,0.5\n")
        seq = dom.load_sequence(p)
        assert seq.T == 2 and seq.d == 2 and seq.k == 2
        assert seq.domains[0].n == 2 and seq.domains[1].n == 1

    def test_label_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y,x0\n0,0,0.0\n0,2,1.0\n1,0,0.5\n")
        meta = tmp_path / "bad.meta.json"
        meta.write_text('{"k": 2}')
        with pytest.raises(dom.SequenceFormatError, match="label id"):
            dom.load_sequence(p)

    def test_bad_field_count_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y,x0,x1\n0,0,0.0,1.0\n0,1,1.0\n")
        with pytest.raises(dom.SequenceFormatError, match=":3"):
            dom.load_sequence(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(f"t,y,x0,x1\n0,0,0.0,1.0\n0,1,1.0,{value}\n1,0,0.5,0.5\n")
        with pytest.raises(dom.SequenceFormatError,
                           match=r"bad\.csv:3: non-finite feature value$"):
            dom.load_sequence(p)

    def test_unsorted_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y,x0\n1,0,0.0\n0,0,1.0\n0,1,1.0\n1,1,1.0\n")
        with pytest.raises(dom.SequenceFormatError, match="sorted"):
            dom.load_sequence(p)


class TestSplitHoldout:
    def test_fraction_half(self):
        seq = dom.make_rotating_moons(3, 100, seed=4)
        tr, ev = dom.split_holdout(seq, 0.5, seed=1)
        for dtr, dev, dall in zip(tr.domains, ev.domains, seq.domains):
            assert dtr.n + dev.n == dall.n
            assert abs(dtr.n - dev.n) <= 2  # one per class at most
            for y in range(2):
                n_tr = np.sum(dtr.labels == y)
                n_ev = np.sum(dev.labels == y)
                assert abs(n_tr - n_ev) <= 1

    def test_disjoint(self):
        seq = dom.make_shifting_gaussians(2, 60, seed=6)
        tr, ev = dom.split_holdout(seq, 0.3, seed=2)
        for dtr, dev in zip(tr.domains, ev.domains):
            rows_tr = {tuple(r) for r in dtr.features}
            rows_ev = {tuple(r) for r in dev.features}
            assert not rows_tr & rows_ev

    def test_deterministic(self):
        seq = dom.make_rotating_moons(2, 40, seed=0)
        a = dom.split_holdout(seq, 0.25, seed=5)
        b = dom.split_holdout(seq, 0.25, seed=5)
        assert np.array_equal(a[0].domains[0].features, b[0].domains[0].features)

    def test_tiny_class_rejected(self):
        batch = dom.DomainBatch(0, np.zeros((3, 1)), np.array([0, 0, 1]), 2)
        batch2 = dom.DomainBatch(1, np.ones((3, 1)), np.array([0, 1, 1]), 2)
        seq = dom.DomainSequence([batch, batch2])
        with pytest.raises(ValueError, match="need >= 2"):
            dom.split_holdout(seq, 0.5, seed=0)

    def test_bad_fraction(self):
        seq = dom.make_rotating_moons(2, 20, seed=0)
        with pytest.raises(ValueError):
            dom.split_holdout(seq, 1.5, seed=0)
