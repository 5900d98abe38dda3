import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_shift_along_first_axis(self):
        # sigma 0: every point of domain t is its class mean plus (t*shift, 0)
        means = [[-1.5, 0.25], [2.0, -3.0]]
        seq = dom.make_shifting_gaussians(5, 12, shift_per_step=0.375,
                                          class_means=means, sigma=0.0, seed=0)
        for d in seq.domains:
            want = np.asarray(means)[d.labels] + [d.t * 0.375, 0.0]
            assert np.array_equal(d.features, want)

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


TINY_CSV = "t,y,x0,x1\n0,0,0.0,1.0\n0,1,1.0,0.0\n1,0,0.5,0.5\n"
_TINY = TINY_CSV.encode()


def _splice(base: bytes, i: int, junk: bytes) -> bytes:
    return base[:i] + junk + base[i:]


# a valid file with junk spliced in, or any bytes; a sidecar that is absent,
# any bytes, or a JSON object whose k is any JSON value
SEQUENCE_CSV = st.one_of(
    st.binary(max_size=120),
    st.builds(_splice, st.just(_TINY), st.integers(0, len(_TINY)),
              st.binary(min_size=1, max_size=6)),
    st.builds(_splice, st.just(_TINY), st.integers(0, len(_TINY)),
              st.sampled_from([b"-", b"9" * 20, b",", b"\n", b"nan", b"1e999",
                               b"\r", b"_", b"\xe2\x80\xa8"])))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
SIDECAR = st.one_of(
    st.none(),
    st.binary(max_size=40),
    st.builds(lambda k: json.dumps({"k": k}).encode(), _JSON))


def reference_load(path):
    """A list of values and a tuple for each row, then one array per domain:
    the per-row reference for the typed-column `dom.load_sequence`, with its
    checks, in its order and with its messages. Returns (domains, meta), each
    domain a (t, labels, features, k) tuple. It reads the lines as the
    loader does, so that an undecodable byte names the same position."""
    try:
        with path.open(encoding="utf-8") as f:
            lines = [line for raw in f for line in raw.splitlines()]
    except UnicodeDecodeError as e:
        raise dom.SequenceFormatError(f"{path}: {e}") from None
    if not lines:
        raise dom.SequenceFormatError(f"{path}: empty file")
    header = lines[0].strip().split(",")
    if header[:2] != ["t", "y"] or any(h != f"x{i}" for i, h in enumerate(header[2:])):
        raise dom.SequenceFormatError(f"{path}:1: bad header {lines[0]!r}")
    d = len(header) - 2
    if d < 1:
        raise dom.SequenceFormatError(f"{path}:1: no feature columns")
    rows, last_t = {}, -1
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 2:
            raise dom.SequenceFormatError(
                f"{path}:{ln}: expected {d + 2} fields, got {len(parts)}")
        try:
            t, y, feats = int(parts[0]), int(parts[1]), [float(v) for v in parts[2:]]
        except ValueError as e:
            raise dom.SequenceFormatError(f"{path}:{ln}: {e}") from None
        if not all(map(math.isfinite, feats)):
            raise dom.SequenceFormatError(f"{path}:{ln}: non-finite feature value")
        if t < 0 or y < 0:
            raise dom.SequenceFormatError(f"{path}:{ln}: t and y must be non-negative")
        if t < last_t:
            raise dom.SequenceFormatError(f"{path}:{ln}: rows not sorted by t")
        last_t = t
        rows.setdefault(t, []).append((y, feats))
    if not rows:
        raise dom.SequenceFormatError(f"{path}: no data rows")
    meta, mpath = {}, path.with_suffix(".meta.json")
    if mpath.exists():
        try:
            meta = json.loads(mpath.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as e:
            raise dom.SequenceFormatError(f"{mpath}: {e}") from None
        if not isinstance(meta, dict):
            raise dom.SequenceFormatError(f"{mpath}: not a JSON object")
    top = max(y for rs in rows.values() for y, _ in rs)
    k = meta.pop("k", top + 1)
    if type(k) is not int or not top < k <= np.iinfo(np.int64).max:
        raise dom.SequenceFormatError(
            f"{path}: k must be an int above every label id (max {top}) "
            f"and below 2**63, got k={k!r}")
    ts = sorted(rows)
    if ts != list(range(len(ts))):
        raise dom.SequenceFormatError(f"{path}: domain indices {ts} not consecutive from 0")
    return [(t, np.array([y for y, _ in rows[t]], dtype=np.int64),
             np.array([f for _, f in rows[t]], dtype=np.float64), k)
            for t in ts], meta


def assert_loads_as_reference(path):
    """`dom.load_sequence` gives the reference's bits, or its error."""
    try:
        want = reference_load(path)
    except dom.SequenceFormatError as e:
        with pytest.raises(dom.SequenceFormatError) as got:
            dom.load_sequence(path)
        assert str(got.value) == str(e)
        return
    seq = dom.load_sequence(path)
    doms, meta = want
    assert seq.meta == meta and seq.T == len(doms)
    for b, (t, ys, xs, k) in zip(seq.domains, doms):
        assert (b.t, b.k) == (t, k)
        for got, ref in ((b.labels, ys), (b.features, xs)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def save_drift_file(path, means, n):
    """A file of the drift benchmark's shape: 4 domains of n points in two
    classes, with its sidecar."""
    dom.save_sequence(dom.make_shifting_gaussians(
        4, n, shift_per_step=0.3, class_means=means, sigma=0.5, seed=2204), path)


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_file_bytes_as_per_value_repr(self, tmp_path, d):
        # a column formatted by one list repr writes the bytes of one
        # repr(float(v)) per value, signed zeros and extremes included
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2,
                   1.0, -2.5e-17, 123456789.125]
        rng = np.random.default_rng(d)
        domains = []
        for t in range(2):
            n = len(special) + 5
            x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-20, 20, (n, d))
            x[:len(special), t % d] = special
            domains.append(dom.DomainBatch(t, x, rng.integers(0, 3, n), 3))
        seq = dom.DomainSequence(domains, {"note": "bytes"})
        p = tmp_path / "seq.csv"
        dom.save_sequence(seq, p)
        want = ["t,y," + ",".join(f"x{i}" for i in range(d))]
        for b in domains:
            for i in range(b.n):
                feats = ",".join(repr(float(v)) for v in b.features[i])
                want.append(f"{b.t},{b.labels[i]},{feats}")
        assert p.read_bytes() == ("\n".join(want) + "\n").encode()
        back = dom.load_sequence(p)
        for a, b in zip(domains, back.domains):
            assert a.features.tobytes() == b.features.tobytes()

    def test_lines_split_as_str_splitlines(self, tmp_path):
        # chunks of whole lines, joined and split once, give the lines that
        # splitting each line gives: form feeds, file separators, line
        # separators and blank lines inside a file, across chunk ends
        p = tmp_path / "seq.csv"
        block = ("t,y,x0\n\n0,0,1.5\x0c0,1,2.5\n0,1,\x1c3.5\n \n"
                 "1,0,4.5\u20281,1,5.5\r\n\r1,0,6.5\n")
        p.write_text(block * 5000 + "2,1,7.5", encoding="utf-8", newline="")
        with p.open(encoding="utf-8") as f:
            want = [line for raw in f for line in raw.splitlines()]
        assert p.stat().st_size > 16 * (1 << 14)
        assert list(dom._lines(p)) == want
        assert want[:9] == ["t,y,x0", "", "0,0,1.5", "0,1,2.5", "0,1,",
                            "3.5", " ", "1,0,4.5", "1,1,5.5"]
        assert want[-1] == "2,1,7.5"

    def test_lines_reject_non_utf8_naming_the_path(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_bytes(b"t,y,x0\n0,0,1.0\n" * 9000 + b"0,1,\xc3(\n")
        with pytest.raises(dom.SequenceFormatError,
                           match=f"^{re.escape(str(p))}: 'utf-8' codec can't "
                                 "decode byte 0xc3"):
            list(dom._lines(p))

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

    @pytest.mark.parametrize("sidecar, error", [
        (b'{"k": "2"}', "k must be an int"),
        (b'{"k": 2.5}', "k must be an int"),
        (b'{"k": true}', "k must be an int"),
        (b'{"k": 1}', r"above every label id \(max 1\)"),
        (b'{"k": 9223372036854775808}', "below 2"),
        (b"[2]", "not a JSON object"),
        (b'{"k": 2', "Expecting"),
        (b'{"k": 2}\xff', "can't decode byte 0xff"),
        (b"[" * 100000, "recursion"),
    ], ids=["str", "float", "bool", "small", "huge", "list", "json", "utf8",
            "nested"])
    def test_bad_sidecar_rejected(self, tmp_path, sidecar, error):
        p = tmp_path / "bad.csv"
        p.write_text(TINY_CSV)
        (tmp_path / "bad.meta.json").write_bytes(sidecar)
        with pytest.raises(dom.SequenceFormatError, match=error):
            dom.load_sequence(p)

    @pytest.mark.parametrize("raw, error", [
        (b"t,y,x0\n0,0,0.\xff\n", "can't decode byte 0xff"),
        (b"t,y,x0\n0,0,0.0\n0,9223372036854775807,1.0\n", "below 2"),
    ], ids=["utf8", "label"])
    def test_bad_csv_rejected(self, tmp_path, raw, error):
        p = tmp_path / "bad.csv"
        p.write_bytes(raw)
        with pytest.raises(dom.SequenceFormatError, match=error):
            dom.load_sequence(p)

    @settings(max_examples=200, deadline=None)
    @given(csv=SEQUENCE_CSV, sidecar=SIDECAR)
    def test_arbitrary_bytes(self, tmp_path_factory, csv, sidecar):
        p = tmp_path_factory.mktemp("fuzz") / "s.csv"
        p.write_bytes(csv)
        if sidecar is not None:
            p.with_suffix(".meta.json").write_bytes(sidecar)
        assert_loads_as_reference(p)

    @pytest.mark.parametrize("means, n", [([[-2.0], [2.0]], 4000),
                                          ([[-2.0, 0.0], [2.0, 0.0]], 500)],
                             ids=["1d", "2d"])
    def test_benchmark_shapes_as_reference(self, tmp_path, means, n):
        p = tmp_path / "seq.csv"
        save_drift_file(p, means, n)
        assert_loads_as_reference(p)
        p.with_suffix(".meta.json").unlink()       # k from the labels
        assert_loads_as_reference(p)

    @pytest.mark.parametrize("sidecar", [None, b'{"k": 5, "note": [1]}'],
                             ids=["no_sidecar", "sidecar_k"])
    def test_blank_lines_as_reference(self, tmp_path, sidecar):
        p = tmp_path / "seq.csv"
        p.write_text("t,y,x0,x1\n\n0,0,0.0,1.0\n  \n0,1,1.0,-0.0\n\n"
                     "1,3,0.5,0.5\n1,0,2.5,1e-300\n2,1,-3.0,4.0\n\n")
        if sidecar is not None:
            p.with_suffix(".meta.json").write_bytes(sidecar)
        assert_loads_as_reference(p)

    def test_peak_memory(self, tmp_path):
        # the benchmark's 16,000-row 1-D file (370 KB), read one line at a
        # time into typed columns, peaks at 0.27 MiB traced: no copy of its
        # text or of its lines is held
        p = tmp_path / "seq.csv"
        save_drift_file(p, [[-2.0], [2.0]], 4000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dom.load_sequence(p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 19

    @pytest.mark.parametrize("rows", [
        "0,0,0.0,1.0\n\n0,1,1.0,0.0\n1,0,0.5,0.5\n",
        "0,0,0.0,1.0\n0,1,1.0\n",
        "0,0,0.0,1.0\n\n0,1,x,0.0\n",
        "1,0,0.0,1.0\n0,1,1.0,0.0\n"],
        ids=["valid", "fields", "value", "unsorted"])
    def test_crlf_as_lf(self, tmp_path, rows):
        # \r\n line ends load to the same bits, or fail with the same
        # message on the same line, as \n ones
        outcomes = []
        for end in ("\n", "\r\n"):
            p = tmp_path / f"{len(end)}" / "seq.csv"
            p.parent.mkdir()
            p.write_bytes(("t,y,x0,x1\n" + rows).replace("\n", end).encode())
            try:
                seq = dom.load_sequence(p)
            except dom.SequenceFormatError as e:
                outcomes.append(str(e).replace(str(p), "PATH"))
            else:
                outcomes.append([(b.t, b.labels.tobytes(), b.features.tobytes())
                                 for b in seq.domains])
        assert outcomes[0] == outcomes[1]

    def test_undecodable_byte_mid_file(self, tmp_path):
        # past the first block the reader decodes: the same error type,
        # naming the file
        p = tmp_path / "seq.csv"
        save_drift_file(p, [[-2.0], [2.0]], 4000)
        raw = p.read_bytes()
        p.write_bytes(raw[:200000] + b"\xff" + raw[200000:])
        with pytest.raises(dom.SequenceFormatError,
                           match=f"^{re.escape(str(p))}: 'utf-8' codec can't "
                                 "decode byte 0xff"):
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
