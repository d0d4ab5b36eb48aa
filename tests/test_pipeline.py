import re
import time
import warnings

import numpy as np
import pytest

from oracles import (
    exact_rank_sum_p,
    reference_rank_sum,
    reference_fgn,
    reference_load_dataset,
    reference_read_feature_csv,
)
from wavescale import (
    ConfigurationError,
    EstimationError,
    FeatureMatrix,
    IngestionError,
    MethodConfig,
    SpectraDataset,
    WindowGrid,
    balance_classes,
    extract_features,
    fbm_from_fgn,
    fisher_scores,
    load_dataset,
    make_windows,
    rank_sum_test,
    select_top,
    two_class_fbm_dataset,
    window_mz_ranges,
)
from wavescale.pipeline import (
    _normal_rank_sum,
    balance_feature_rows,
    read_feature_csv,
    write_screen_csv,
    write_window_metadata_csv,
)


# ---------------------------------------------------------------- windows

def test_window_grid_nci_geometry():
    grid = make_windows(15153, 1024, 500)
    assert grid.count == 29
    assert grid.windows[0] == (0, 1024)
    # window 6 covers 1-based bins 2501..3524, window 20 covers 9501..10524
    assert grid.windows[5] == (2500, 3524)
    assert grid.windows[19] == (9500, 10524)
    assert grid.windows[-1] == (14000, 15024)


def test_window_grid_small_cases():
    assert make_windows(1024, 1024, 500).count == 1
    grid = make_windows(2048, 1024, 1024)
    assert grid.windows == ((0, 1024), (1024, 2048))


def test_window_grid_errors():
    with pytest.raises(ConfigurationError):
        make_windows(100, 1024, 500)
    with pytest.raises(ConfigurationError):
        make_windows(2048, 1024, 0)


def test_a_hand_built_grid_derives_its_windows(tmp_path):
    # extraction, the grid-end check and windows.csv read one geometry:
    # the windows that length, stride and count give
    grid = WindowGrid(512, 512, 2)
    assert grid.windows == ((0, 512), (512, 1024))
    ds = two_class_fbm_dataset(n_per_class=2, n_bins=2048, seed=5)
    ds = SpectraDataset(ds.intensities, ds.labels, ds.sample_ids,
                        mz_values=np.linspace(100.0, 300.0, 2048))
    full = make_windows(2048, 512, 512)
    for method in ("dwt", "wang", "jones"):
        got = extract_features(ds, method, grid)
        want = extract_features(ds, method, full)
        np.testing.assert_array_equal(got.slopes, want.slopes[:, :2])
        np.testing.assert_array_equal(got.hurst, want.hurst[:, :2])
    write_window_metadata_csv(grid, ds.mz_values, tmp_path / "grid.csv")
    write_window_metadata_csv(full, ds.mz_values, tmp_path / "full.csv")
    rows = (tmp_path / "grid.csv").read_text().splitlines()
    assert rows == (tmp_path / "full.csv").read_text().splitlines()[:3]
    assert [r.split(",")[1:3] for r in rows[1:]] == [["1", "512"],
                                                     ["513", "1024"]]


# -------------------------------------------------------------- ingestion

def _write_matrix(tmp_path, ids, mz, intens, name="matrix.csv"):
    lines = ["mz," + ",".join(ids)]
    for i, m in enumerate(mz):
        lines.append(",".join([repr(float(m))]
                              + [repr(float(v)) for v in intens[:, i]]))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_labels(tmp_path, mapping, name="labels.csv"):
    lines = ["sample_id,label"] + [f"{k},{v}" for k, v in mapping.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_matrix_toy(tmp_path):
    ids = ["s1", "s2", "s3"]
    mz = np.array([100.0, 200.0, 300.0, 400.0])
    intens = np.arange(12.0).reshape(3, 4)
    mpath = _write_matrix(tmp_path, ids, mz, intens)
    lpath = _write_labels(tmp_path, {"s1": "case", "s2": "control", "s3": "1"})
    ds = load_dataset(mpath, lpath)
    assert ds.n_samples == 3 and ds.n_bins == 4
    np.testing.assert_allclose(ds.intensities, intens)
    np.testing.assert_allclose(ds.mz_values, mz)
    np.testing.assert_array_equal(ds.labels, [1, 0, 1])
    assert ds.sample_ids == ("s1", "s2", "s3")


def test_missing_label_names_the_id(tmp_path):
    mpath = _write_matrix(tmp_path, ["a", "b"], [1.0, 2.0],
                          np.zeros((2, 2)))
    lpath = _write_labels(tmp_path, {"a": "case"})
    with pytest.raises(IngestionError, match="b"):
        load_dataset(mpath, lpath)


def test_unknown_label_named(tmp_path):
    mpath = _write_matrix(tmp_path, ["a"], [1.0], np.zeros((1, 1)))
    lpath = _write_labels(tmp_path, {"a": "sick"})
    with pytest.raises(IngestionError, match="sick"):
        load_dataset(mpath, lpath)


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("mz,s1,s2\n1.0,2.0\n", encoding="utf-8")
    lpath = _write_labels(tmp_path, {"s1": 1, "s2": 0})
    with pytest.raises(IngestionError, match="row 2"):
        load_dataset(path, lpath)


def test_per_sample_directory_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ids = ["p1", "p2"]
    mz = np.linspace(100, 900, 16)
    intens = rng.uniform(0, 50, size=(2, 16))
    mpath = _write_matrix(tmp_path, ids, mz, intens)
    lpath = _write_labels(tmp_path, {"p1": "case", "p2": "control"})

    ddir = tmp_path / "samples"
    ddir.mkdir()
    manifest = ["sample_id,filename"]
    for s, sid in enumerate(ids):
        body = ["M/Z,Intensity"] + [
            f"{repr(float(m))},{repr(float(v))}"
            for m, v in zip(mz, intens[s])]
        (ddir / f"{sid}.csv").write_text("\n".join(body) + "\n",
                                         encoding="utf-8")
        manifest.append(f"{sid},{sid}.csv")
    (ddir / "manifest.csv").write_text("\n".join(manifest) + "\n",
                                       encoding="utf-8")

    from_matrix = load_dataset(mpath, lpath)
    from_dir = load_dataset(ddir, lpath)
    np.testing.assert_allclose(from_dir.intensities, from_matrix.intensities)
    np.testing.assert_allclose(from_dir.mz_values, from_matrix.mz_values)
    np.testing.assert_array_equal(from_dir.labels, from_matrix.labels)
    assert from_dir.sample_ids == from_matrix.sample_ids


def test_mismatched_sample_grid_rejected(tmp_path):
    ddir = tmp_path / "samples"
    ddir.mkdir()
    (ddir / "manifest.csv").write_text(
        "sample_id,filename\na,a.csv\nb,b.csv\n", encoding="utf-8")
    (ddir / "a.csv").write_text("1.0,5.0\n2.0,6.0\n", encoding="utf-8")
    (ddir / "b.csv").write_text("1.0,5.0\n2.5,6.0\n", encoding="utf-8")
    lpath = _write_labels(tmp_path, {"a": 1, "b": 0})
    with pytest.raises(IngestionError, match="b.csv"):
        load_dataset(ddir, lpath)


# ------------------------------------------- reader vs. csv reference

def _number_text(rng, n):
    """Decimal forms the parser must read exactly like Python's float()."""
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
    forms = [repr, "{:.6g}".format, "{:.3e}".format, " {:+.12f} ".format]
    return [forms[i % 4](float(v)) for i, v in enumerate(vals)] \
        + ["-0.0", "5e-324", "1e308", "17"]


def _write_layout(tmp_path, layout, newline="\n"):
    rng = np.random.default_rng(2)
    ids = ["a", "b", "c"]
    n = 24
    mz = [repr(float(v)) for v in np.sort(rng.uniform(700, 12000, n))]
    cells = np.array(_number_text(rng, 3 * n - 4)).reshape(3, n)
    _write_labels(tmp_path, {"a": "case", "b": "control", "c": "0"})
    if layout == "matrix":
        lines = ["mz," + ",".join(ids)] + [
            ",".join([mz[i]] + list(cells[:, i])) for i in range(n)]
        path = tmp_path / "matrix.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        return path
    path = tmp_path / "samples"
    path.mkdir()
    (path / "manifest.csv").write_bytes(newline.join(
        ["sample_id,filename"] + [f"{sid},{sid}.csv" for sid in ids]
        + [""]).encode())
    for s, sid in enumerate(ids):
        head = [] if layout == "dir-bare" else ["M/Z,Intensity"]
        body = head + [f"{m},{v}" for m, v in zip(mz, cells[s])]
        (path / f"{sid}.csv").write_bytes((newline.join(body) + newline).encode())
    return path


@pytest.mark.parametrize("layout,newline", [
    ("matrix", "\n"), ("matrix", "\r\n"), ("dir", "\n"), ("dir", "\r\n"),
    ("dir-bare", "\n")])
def test_reader_matches_csv_reference_bitwise(tmp_path, layout, newline):
    path = _write_layout(tmp_path, layout, newline)
    labels = tmp_path / "labels.csv"
    ds = load_dataset(path, labels)
    ids, ref_labels, mz, intens = reference_load_dataset(path, labels)
    assert ds.sample_ids == tuple(ids)
    assert ds.labels.tobytes() == ref_labels.tobytes()
    for got, want in ((ds.mz_values, mz), (ds.intensities, intens)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("layout", ["dir", "dir-bare", "matrix"])
def test_byte_order_mark_is_not_data(tmp_path, layout):
    """A UTF-8 byte-order mark opening a file, as spreadsheets write
    "CSV UTF-8", is dropped: copies of the inputs with one load equal to
    the originals."""
    path = _write_layout(tmp_path, layout)
    labels = tmp_path / "labels.csv"
    bom = tmp_path / "bom"
    for src in [labels, *(path.iterdir() if path.is_dir() else [path])]:
        dst = bom / src.relative_to(tmp_path)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
    want = load_dataset(path, labels)
    got = load_dataset(bom / path.name, bom / "labels.csv")
    assert got.sample_ids == want.sample_ids
    for a, b in ((got.labels, want.labels), (got.mz_values, want.mz_values),
                 (got.intensities, want.intensities)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_feature_csv_reader_matches_csv_reference_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    slopes = np.array([float(v) for v in _number_text(rng, 36)]).reshape(4, 10)
    fm = FeatureMatrix(method="dwt", slopes=slopes,
                       hurst=np.full_like(slopes, np.nan),
                       labels=np.array([1, 0, 1, 0], dtype=np.int8),
                       sample_ids=("p", "q", "r", "s"))
    path = tmp_path / "features.csv"
    fm.write_csv(path)
    back = read_feature_csv(path)
    ids, labels, ref = reference_read_feature_csv(path)
    assert back.sample_ids == tuple(ids) == fm.sample_ids
    assert back.labels.tobytes() == labels.tobytes() == fm.labels.tobytes()
    assert back.slopes.tobytes() == ref.tobytes() == slopes.tobytes()


def _write_sample_dir(tmp_path, bodies):
    """A per-sample directory with one file per ``bodies`` entry, in order,
    and its labels file; (directory, labels path)."""
    path = tmp_path / "d"
    path.mkdir()
    (path / "manifest.csv").write_text("sample_id,filename\n" + "".join(
        f"{sid},{sid}.csv\n" for sid in bodies), encoding="utf-8")
    for sid, body in bodies.items():
        (path / f"{sid}.csv").write_bytes(body.encode())
    return path, _write_labels(tmp_path, {sid: s % 2
                                          for s, sid in enumerate(bodies)})


_GRID = ["700.0", "700.25", "701.125"]


def _sample_text(mz, values, header="mz,intensity", newline="\n"):
    lines = [header] if header else []
    lines += [f"{m},{v}" for m, v in zip(mz, values)]
    return newline.join(lines) + newline


@pytest.mark.parametrize("later", [
    _sample_text(_GRID, [4.0, 5.5, -6.25]),
    _sample_text(["700.00", "700.250", "701.1250000000001"], [4.0, 5.5, -6.25]),
    _sample_text(["7.0e2", "700.25", "701.125000000000"], [4.0, 5.5, -6.25]),
    _sample_text(_GRID, [4.0, 5.5, -6.25], header=None),
    _sample_text(_GRID, [4.0, 5.5, -6.25], header="M/Z , Intensity"),
    _sample_text(_GRID, [4.0, 5.5, -6.25], newline="\r\n"),
    _sample_text(_GRID, [4.0, 5.5, -6.25]).rstrip("\n"),
], ids=["same-text", "within-tolerance", "longer-field", "no-header",
        "other-header", "crlf", "no-final-newline"])
@pytest.mark.parametrize("first_header", ["mz,intensity", None],
                         ids=["first-header", "first-bare"])
def test_sample_dir_matches_csv_reference_bitwise(tmp_path, later,
                                                  first_header):
    """A later file is read by one np.loadtxt call when its m/z text
    repeats the first file's, and by the full reader otherwise; either
    way the arrays are the reference's, bit for bit."""
    path, labels = _write_sample_dir(tmp_path, {
        "a": _sample_text(_GRID, [1.5, 2.5, 3.5], header=first_header),
        "b": later, "c": _sample_text(_GRID, [0.1, 1e-300, 7.0])})
    ds = load_dataset(path, labels)
    ids, ref_labels, mz, intens = reference_load_dataset(path, labels)
    assert ds.sample_ids == tuple(ids)
    assert ds.labels.tobytes() == ref_labels.tobytes()
    assert ds.mz_values.tobytes() == mz.tobytes()
    assert ds.intensities.tobytes() == intens.tobytes()


def _spy_readers(monkeypatch):
    """Lists that collect the file names _read_csv is called with: those
    it parses as floats (every field of a sample file, m/z included) and
    those it reads with another dtype (the m/z fields as bytes)."""
    import wavescale.pipeline as pipeline

    floats, other = [], []
    real = pipeline._read_csv

    def spy(path, *args, dtype=float, **kwargs):
        (floats if dtype is float else other).append(path.name)
        return real(path, *args, dtype=dtype, **kwargs)

    monkeypatch.setattr(pipeline, "_read_csv", spy)
    return floats, other


def test_sample_dir_parses_a_repeated_grid_once(tmp_path, monkeypatch):
    """Only the first sample file has its m/z values parsed as floats when
    every later file repeats its m/z text."""
    floats, other = _spy_readers(monkeypatch)
    path, labels = _write_sample_dir(tmp_path, {
        sid: _sample_text(_GRID, [s, 2.0 * s, -1.0])
        for s, sid in enumerate("abcd")})
    load_dataset(path, labels)
    assert floats == ["labels.csv", "manifest.csv", "a.csv"]
    assert other == ["a.csv", "b.csv", "c.csv", "d.csv"]


@pytest.mark.parametrize("header", ["mz,intensity", None],
                         ids=["header", "bare"])
def test_byte_order_marks_keep_the_repeated_grid_reader(tmp_path, monkeypatch,
                                                        header):
    """Sample files that open with a byte-order mark still share one
    parse of the m/z grid, and its first bin is kept."""
    floats, other = _spy_readers(monkeypatch)
    path, labels = _write_sample_dir(tmp_path, {
        sid: "\ufeff" + _sample_text(_GRID, [s, 2.0 * s, -1.0], header=header)
        for s, sid in enumerate("abcd")})
    ds = load_dataset(path, labels)
    assert floats == ["labels.csv", "manifest.csv", "a.csv"]
    assert other == ["a.csv", "b.csv", "c.csv", "d.csv"]
    assert ds.mz_values.tolist() == [700.0, 700.25, 701.125]
    assert ds.intensities[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("first_header, later_header", [
    ("mz,intensity", None), (None, "mz,intensity")],
    ids=["first-header", "later-header"])
def test_header_presence_keeps_the_repeated_grid_reader(
        tmp_path, monkeypatch, first_header, later_header):
    """A later file with or without the header line the first file lacks
    or has still repeats its m/z grid, and reads as the reference does."""
    floats, other = _spy_readers(monkeypatch)
    path, labels = _write_sample_dir(tmp_path, {
        "a": _sample_text(_GRID, [1.5, 2.5, 3.5], header=first_header),
        "b": _sample_text(_GRID, [4.0, 5.5, -6.25], header=later_header),
        "c": _sample_text(_GRID, [0.1, 1e-300, 7.0], header=first_header)})
    ds = load_dataset(path, labels)
    assert floats == ["labels.csv", "manifest.csv", "a.csv"]
    assert other == ["a.csv", "b.csv", "c.csv"]
    _, _, mz, intens = reference_load_dataset(path, labels)
    assert ds.mz_values.tobytes() == mz.tobytes()
    assert ds.intensities.tobytes() == intens.tobytes()


def test_sample_dir_reads_the_rest_in_full_after_a_grid_miss(tmp_path,
                                                            monkeypatch):
    """Once a later file's m/z text differs from the first file's, the
    files after it have their m/z values parsed as floats too."""
    floats, other = _spy_readers(monkeypatch)
    bodies = {sid: _sample_text(_GRID, [s, 2.0 * s, -1.0])
              for s, sid in enumerate("abcde")}
    bodies["c"] = _sample_text(["700.00", "700.25", "701.125"], [1, 2, 3])
    path, labels = _write_sample_dir(tmp_path, bodies)
    ds = load_dataset(path, labels)
    assert floats == ["labels.csv", "manifest.csv", "a.csv", "c.csv", "d.csv",
                      "e.csv"]
    assert other == ["a.csv", "b.csv", "c.csv"]
    assert ds.intensities.tobytes() == reference_load_dataset(
        path, labels)[3].tobytes()


@pytest.mark.parametrize("first", [
    _sample_text(["\u2003700.0"] + _GRID[1:], [1.5, 2.5, 3.5]),
    _sample_text(_GRID[:2] + ["701.125\u3000"], [1.5, 2.5, 3.5]),
], ids=["leading", "trailing"])
def test_sample_dir_without_a_bytes_grid_reads_every_file_as_floats(
        tmp_path, monkeypatch, first):
    """A first file whose m/z fields parse as numbers but not as latin-1
    bytes (a wide Unicode space) gives no m/z bytes to compare, so every
    later file has its m/z values parsed as floats, as the reference's."""
    floats, other = _spy_readers(monkeypatch)
    path, labels = _write_sample_dir(tmp_path, {
        "a": first, "b": _sample_text(_GRID, [4.0, 5.5, -6.25]),
        "c": _sample_text(_GRID, [0.1, 1e-300, 7.0])})
    ds = load_dataset(path, labels)
    assert floats == ["labels.csv", "manifest.csv", "a.csv", "b.csv", "c.csv"]
    assert other == ["a.csv"]
    _, _, mz, intens = reference_load_dataset(path, labels)
    assert ds.mz_values.tobytes() == mz.tobytes()
    assert ds.intensities.tobytes() == intens.tobytes()


@pytest.mark.parametrize("later, message", [
    ("mz,intensity\n\n\n", r"b\.csv: row 2 is blank$"),
    ("mz,intensity\n", r"b\.csv: no data rows after row 1$"),
], ids=["blank-body", "header-only"])
def test_later_file_without_data_warns_nothing(tmp_path, later, message):
    path, labels = _write_sample_dir(tmp_path, {
        "a": _sample_text(_GRID[:2], [1.0, 2.0]), "b": later})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IngestionError, match=message):
            load_dataset(path, labels)


_LABELS = "sample_id,label\na,1\nb,0\n"
_SAMPLE = "mz,intensity\n1.0,5.0\n2.0,6.0\n"

# (case, files, what to load, message): every rejection names the file and
# the 1-based row, and a bad number also its column.
_REJECTIONS = [
    ("bad number", {"m.csv": "mz,a,b\n1.0,2.0,3.0\n2.0,x,4.0\n"}, "m.csv",
     r"m\.csv: row 3 column 2: non-numeric value 'x'"),
    # numpy quotes a value holding a ' with double quotes
    ("quote in a number", {"m.csv": "mz,a,b\n1.0,2.0,3.0\n2.0,it's,4.0\n"},
     "m.csv", r"""m\.csv: row 3 column 2: non-numeric value "it's"$"""),
    ("bad feature", {"f.csv": "sample_id,label,w01,w02\na,1,0.5,0.25\n"
                              "b,0,0.1,oops\n"}, "features",
     r"f\.csv: row 3 column 4: non-numeric value 'oops'"),
    ("header wider", {"m.csv": "mz,a,b,c\n1.0,2.0,3.0\n"}, "m.csv",
     r"m\.csv: row 2 has 3 columns, expected 4"),
    ("header narrower", {"m.csv": "mz,a\n1.0,2.0,3.0\n"}, "m.csv",
     r"m\.csv: row 2 has 3 columns, expected 2"),
    ("sample header wider", {"d/a.csv": "mz,intensity,note\n1.0,5.0\n"},
     "d", r"a\.csv: row 1 has 3 columns, expected 2"),
    ("ragged row", {"m.csv": "mz,a,b\n1.0,2.0,3.0\n2.0,3.0\n"}, "m.csv",
     r"m\.csv: row 3 has 2 columns, expected 3"),
    ("ragged manifest", {"d/manifest.csv": "sample_id,filename\na,a.csv,x\n"},
     "d", r"manifest\.csv: row 2 has 3 columns, expected 2"),
    ("blank line", {"m.csv": "mz,a,b\n1.0,2.0,3.0\n\n2.0,3.0,4.0\n"},
     "m.csv", r"m\.csv: row 3 is blank"),
    ("blank sample line", {"d/a.csv": "1.0,5.0\n   \n2.0,6.0\n"}, "d",
     r"a\.csv: row 2 is blank"),
    ("blank labels line", {"labels.csv": "sample_id,label\na,1\n\nb,0\n"},
     "m.csv", r"labels\.csv: row 3 is blank"),
    ("empty data block", {"m.csv": "mz,a,b\n"}, "m.csv",
     r"m\.csv: no data rows after row 1"),
    ("empty file", {"m.csv": ""}, "m.csv",
     r"m\.csv: no data rows after row 1"),
    ("grid mismatch", {"d/b.csv": "mz,intensity\n1.0,5.0\n2.5,6.0\n"}, "d",
     r"b\.csv: row 3: m/z grid does not match the first sample's"),
    ("bin count", {"d/b.csv": _SAMPLE + "3.0,7.0\n"}, "d",
     r"b\.csv: row 4: m/z grid .*\(3 bins, expected 2\)"),
    ("missing label", {"labels.csv": "sample_id,label\na,1\n"}, "m.csv",
     r"m\.csv: row 1 column 3: no label for 'b'"),
    ("duplicate column", {"m.csv": "mz,a,a\n1.0,2.0,3.0\n"}, "m.csv",
     r"m\.csv: row 1 column 3: duplicate sample id 'a'"),
    ("duplicate manifest row",
     {"d/manifest.csv": "sample_id,filename\na,a.csv\na,b.csv\n"}, "d",
     r"manifest\.csv: row 3: duplicate sample id 'a'"),
    ("duplicate label", {"labels.csv": _LABELS + "a,0\n"}, "m.csv",
     r"labels\.csv: row 4: duplicate sample id 'a'"),
    ("unknown label", {"labels.csv": "sample_id,label\na,1\nb,sick\n"},
     "m.csv", r"labels\.csv: row 3: sample 'b' has unknown label 'sick'"),
    ("labels header", {"labels.csv": "id,label\na,1\nb,0\n"}, "m.csv",
     r"labels\.csv: row 1: expected a header starting sample_id,label"),
    # faults in a later sample file, whose m/z text repeats the first's
    ("later blank line", {"d/b.csv": "mz,intensity\n1.0,5.0\n\n2.0,6.0\n"},
     "d", r"b\.csv: row 3 is blank$"),
    ("later trailing blank line", {"d/b.csv": _SAMPLE + "\n"}, "d",
     r"b\.csv: row 4 is blank$"),
    ("later whitespace line",
     {"d/b.csv": "mz,intensity\n1.0,5.0\n  \n2.0,6.0\n"}, "d",
     r"b\.csv: row 3 is blank$"),
    ("later header only", {"d/b.csv": "mz,intensity\n"}, "d",
     r"b\.csv: no data rows after row 1$"),
    ("later 3-field row",
     {"d/b.csv": "mz,intensity\n1.0,5.0,7.0\n2.0,6.0\n"}, "d",
     r"b\.csv: row 2 has 3 columns, expected 2$"),
    ("later data row for a header",
     {"d/b.csv": "0.5,4.0\n1.0,5.0\n2.0,6.0\n"}, "d",
     r"b\.csv: row 1: m/z grid .*\(3 bins, expected 2\)$"),
    ("later 3-field header",
     {"d/b.csv": "mz,intensity,x\n1.0,5.0\n2.0,6.0\n"}, "d",
     r"b\.csv: row 1 has 3 columns, expected 2$"),
    ("later bad intensity", {"d/b.csv": "mz,intensity\n1.0,5.0\n2.0,x\n"},
     "d", r"b\.csv: row 3 column 2: non-numeric value 'x'$"),
    ("later quote in an intensity",
     {"d/b.csv": "mz,intensity\n1.0,5.0\n2.0,it's\n"}, "d",
     r"""b\.csv: row 3 column 2: non-numeric value "it's"$"""),
    ("later NUL in m/z", {"d/b.csv": "mz,intensity\n1.0,5.0\n2.0\0,6.0\n"},
     "d", r"b\.csv: row 3 column 1: non-numeric value '2\.0\\\\x00'$"),
    ("later form feed", {"d/b.csv": "mz,intensity\n1.0,5.0\x0c\n2.0,6.0\n"},
     "d", r"b\.csv: row 3 is blank$"),
    # np.loadtxt sees one line where the reader sees two, so the first
    # file's m/z text would hold one field and b.csv would match it
    ("first form feed", {"d/a.csv": "mz,intensity\n1.0,5.0\x0c2.0,6.0\n",
                         "d/b.csv": "mz,intensity\n1.0,7.0\n"}, "d",
     r"b\.csv: row 3: m/z grid .*\(1 bins, expected 2\)$"),
    # "2.000001" cut to the width of the first file's longest field, 3,
    # would read "2.0"
    ("later longer m/z field",
     {"d/b.csv": "mz,intensity\n1.0,5.0\n2.000001,6.0\n"}, "d",
     r"b\.csv: row 3: m/z grid does not match the first sample's"),
]


@pytest.mark.parametrize("files,target,message",
                         [c[1:] for c in _REJECTIONS],
                         ids=[c[0] for c in _REJECTIONS])
def test_ingest_rejection_names_file_and_row(tmp_path, files, target,
                                            message):
    defaults = {"m.csv": "mz,a,b\n1.0,2.0,3.0\n2.0,3.0,4.0\n",
                "labels.csv": _LABELS,
                "d/manifest.csv": "sample_id,filename\na,a.csv\nb,b.csv\n",
                "d/a.csv": _SAMPLE, "d/b.csv": _SAMPLE}
    for name, text in {**defaults, **files}.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(IngestionError, match=message):
        if target == "features":
            read_feature_csv(tmp_path / "f.csv")
        else:
            load_dataset(tmp_path / target, tmp_path / "labels.csv")


def test_repeated_matrix_column_fails_fast(tmp_path):
    """A 20 000-column matrix whose last id repeats the first is refused in
    one pass over the ids, in well under the quadratic scan's seconds."""
    n = 20_000
    ids = [f"s{c}" for c in range(n - 1)] + ["s0"]
    (tmp_path / "m.csv").write_text(
        "mz," + ",".join(ids) + "\n1.0," + ",".join(["2.0"] * n) + "\n",
        encoding="utf-8")
    labels = _write_labels(tmp_path, {sid: c % 2
                                      for c, sid in enumerate(ids[:-1])})
    start = time.perf_counter()
    with pytest.raises(IngestionError, match=re.escape(
            f"m.csv: row 1 column {n + 1}: duplicate sample id 's0'")):
        load_dataset(tmp_path / "m.csv", labels)
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("manifest, message", [
    ("a,a.csv\nb,b.csv\na,c.csv\n",
     r"manifest\.csv: row 4: duplicate sample id 'a'$"),
    ("a,a.csv\nz,b.csv\n",
     r"manifest\.csv: row 3: no label for 'z' in .*labels\.csv$"),
    ("a,a.csv\nz,b.csv\na,c.csv\n",
     r"manifest\.csv: row 3: no label for 'z' in .*labels\.csv$"),
], ids=["repeated", "unlabeled", "unlabeled-before-repeated"])
def test_manifest_ids_are_checked_before_any_sample_file_is_read(
        tmp_path, monkeypatch, manifest, message):
    floats, other = _spy_readers(monkeypatch)
    path, labels = _write_sample_dir(tmp_path, {
        sid: _SAMPLE for sid in "abc"})
    (path / "manifest.csv").write_text("sample_id,filename\n" + manifest,
                                       encoding="utf-8")
    with pytest.raises(IngestionError, match=message):
        load_dataset(path, labels)
    assert floats == ["labels.csv", "manifest.csv"] and other == []


@pytest.mark.parametrize("target", ["m.csv", "d"])
def test_a_bad_labels_file_wins_over_a_bad_data_file(tmp_path, target):
    """The labels file is read first, so its fault is the one reported."""
    (tmp_path / "labels.csv").write_text("sample_id,label\na,sick\n",
                                         encoding="utf-8")
    (tmp_path / "m.csv").write_text("mz,a\n1.0,x\n", encoding="utf-8")
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "manifest.csv").write_text("id\n", encoding="utf-8")
    with pytest.raises(IngestionError,
                       match=r"labels\.csv: row 2: .*unknown label 'sick'"):
        load_dataset(tmp_path / target, tmp_path / "labels.csv")


def test_non_finite_intensity_rejected_with_sample_and_bin():
    x = np.zeros((2, 4))
    x[1, 2] = np.inf
    with pytest.raises(IngestionError, match=r"sample 'b' bin 3: .*inf"):
        SpectraDataset(intensities=x, labels=np.array([1, 0]),
                       sample_ids=("a", "b"))


def test_non_finite_intensity_rejected_at_load(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("mz,a,b\n1.0,2.0,3.0\n2.0,4.0,nan\n", encoding="utf-8")
    lpath = _write_labels(tmp_path, {"a": 1, "b": 0})
    with pytest.raises(IngestionError, match=r"sample 'b' bin 2: .*nan"):
        load_dataset(path, lpath)


def test_non_finite_slope_rejected_with_sample_and_window(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("sample_id,label,w01,w02\na,1,0.5,0.25\nb,0,-inf,0.1\n",
                    encoding="utf-8")
    with pytest.raises(IngestionError,
                       match=r"f\.csv: row 3: sample 'b' window 1 .*-inf"):
        read_feature_csv(path)


def test_descending_mz_axis_rejected():
    with pytest.raises(IngestionError, match="not ascending at bin 3"):
        SpectraDataset(intensities=np.zeros((1, 4)), labels=np.array([1]),
                       sample_ids=("a",),
                       mz_values=np.array([1.0, 3.0, 2.0, 4.0]))


def test_synthetic_paths_match_the_direct_generator_bitwise():
    ds = two_class_fbm_dataset(n_per_class=2, hurst_control=0.3,
                               hurst_case=0.7, n_bins=300, seed=5)
    expected = []
    for label, hurst in ((0, 0.3), (1, 0.7)):
        for i in range(2):
            rng = np.random.default_rng(
                np.random.SeedSequence(5, spawn_key=(label, i)))
            expected.append(fbm_from_fgn(reference_fgn(hurst, 512, rng))[:300])
    assert ds.intensities.tobytes() == np.vstack(expected).tobytes()


# ----------------------------------------------------------------- fisher

def _features_from(slopes, labels):
    slopes = np.asarray(slopes, dtype=float)
    return FeatureMatrix(
        method="dwt", slopes=slopes, hurst=np.full_like(slopes, np.nan),
        labels=np.asarray(labels, dtype=np.int8),
        sample_ids=tuple(f"s{i}" for i in range(len(labels))))


def test_fisher_arithmetic():
    # class means 1.0 vs 0.0, each sample variance 0.5 -> F = 1
    fm = _features_from([[1.5], [0.5], [-0.5], [0.5]], [1, 1, 0, 0])
    assert fisher_scores(fm)[0] == pytest.approx(1.0, rel=1e-12)


def test_fisher_identical_distributions_zero():
    fm = _features_from([[2.0], [3.0], [2.0], [3.0]], [1, 1, 0, 0])
    assert fisher_scores(fm)[0] == pytest.approx(0.0, abs=1e-12)


def test_fisher_invariances():
    rng = np.random.default_rng(1)
    slopes = rng.standard_normal((12, 5))
    labels = np.array([1, 0] * 6)
    base = fisher_scores(_features_from(slopes, labels))
    perm = rng.permutation(12)
    shuffled = fisher_scores(_features_from(slopes[perm], labels[perm]))
    np.testing.assert_allclose(shuffled, base, rtol=1e-12)
    shifted = fisher_scores(_features_from(slopes + 7.5, labels))
    np.testing.assert_allclose(shifted, base, rtol=1e-9)


def test_fisher_single_class_rejected():
    fm = _features_from([[1.0], [2.0], [3.0]], [1, 1, 1])
    with pytest.raises(EstimationError):
        fisher_scores(fm)


def test_fisher_zero_denominator_flagged():
    fm = _features_from([[1.0], [1.0], [0.0], [0.0]], [1, 1, 0, 0])
    with pytest.warns(RuntimeWarning):
        scores = fisher_scores(fm)
    assert np.isinf(scores[0])


# -------------------------------------------------------------- selection

def test_select_top_examples():
    np.testing.assert_array_equal(select_top(np.array([3.0, 1.0, 2.0]), 2),
                                  [0, 2])
    np.testing.assert_array_equal(select_top(np.array([3.0, 1.0, 2.0]), 3),
                                  [0, 2, 1])
    np.testing.assert_array_equal(select_top(np.array([2.0, 2.0]), 1), [0])


def test_select_top_full_is_permutation():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(29)
    sel = select_top(scores, 29)
    assert sorted(sel) == list(range(29))


def test_select_top_bounds():
    with pytest.raises(ConfigurationError):
        select_top(np.array([1.0]), 0)
    with pytest.raises(ConfigurationError):
        select_top(np.array([1.0]), 2)


def test_select_top_ranks_each_row_of_split_scores():
    """(c, W) scores are ranked row by row, each row as its own call."""
    rng = np.random.default_rng(6)
    scores = np.round(rng.standard_normal((7, 29)), 1)  # rounding ties
    scores[2] = 0.0
    scores[3, ::4] = np.inf
    for p in (1, 5, 29):
        np.testing.assert_array_equal(
            select_top(scores, p), [select_top(row, p) for row in scores])
    with pytest.raises(ConfigurationError, match=r"p must be in 1\.\.29"):
        select_top(scores, 30)


# --------------------------------------------------------------- rank sum

def test_rank_sum_identical_multisets():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    _, p = rank_sum_test(a, a.copy())
    assert p == pytest.approx(1.0, abs=1e-9)


def test_rank_sum_disjoint_ranges():
    a = np.arange(20.0)
    b = np.arange(100.0, 120.0)
    _, p = rank_sum_test(a, b)
    assert p < 0.001


def test_rank_sum_monotone_invariance():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(10)
    b = rng.standard_normal(12) + 0.5
    s1, p1 = rank_sum_test(a, b)
    s2, p2 = rank_sum_test(np.exp(a), np.exp(b))
    assert s1 == s2
    assert p1 == pytest.approx(p2, abs=1e-12)


def test_rank_sum_matches_scipy_asymptotic():
    # independent implementation of the same approximation, incl. ties
    from scipy.stats import mannwhitneyu
    rng = np.random.default_rng(5)
    for trial in range(20):
        a = np.round(rng.standard_normal(11), 1)  # rounding induces ties
        b = np.round(rng.standard_normal(9) + 0.3, 1)
        _, p = rank_sum_test(a, b)
        ref = mannwhitneyu(a, b, alternative="two-sided",
                           method="asymptotic", use_continuity=True).pvalue
        assert p == pytest.approx(ref, abs=1e-10), trial


def test_rank_sum_undersized():
    with pytest.raises(EstimationError):
        rank_sum_test([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_rank_sum_sorted_search_equals_the_tie_scan():
    """The sorted-search midranks give bitwise the statistic and p-value of
    a scan over the sorted values, with ties, signed zeros and infinities
    in the samples and with every value equal."""
    rng = np.random.default_rng(7)
    specials = np.array([0.0, -0.0, np.inf, -np.inf])
    for trial in range(300):
        na, nb = rng.integers(5, 20, size=2)
        pooled = np.round(rng.standard_normal(na + nb), rng.integers(0, 3))
        pooled[rng.random(na + nb) < 0.1] = rng.choice(specials)
        if trial % 25 == 0:
            pooled[:] = pooled[0]
        a, b = pooled[:na], pooled[na:]
        assert repr(_normal_rank_sum(a, b)) == repr(
            reference_rank_sum(a, b)), trial


def test_rank_sum_refuses_nan():
    with pytest.raises(EstimationError, match="NaN"):
        rank_sum_test([1.0, 2.0, np.nan, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_rank_sum_normal_approx_vs_exact_enumeration():
    # 4 vs 4 without ties: enumeration of all 70 assignments is the
    # oracle.  The continuity-corrected normal approximation tracks it to
    # 0.031 in the worst outcome class and much tighter in the tails.
    import itertools
    vals = np.arange(1.0, 9.0)
    worst = 0.0
    for combo in itertools.combinations(range(8), 4):
        a = vals[list(combo)]
        b = vals[[i for i in range(8) if i not in combo]]
        _, p_norm = _normal_rank_sum(a, b)
        p_exact = exact_rank_sum_p(a, b)
        diff = abs(p_norm - p_exact)
        worst = max(worst, diff)
        assert diff < 0.031, (a.tolist(), p_norm, p_exact)
        if p_exact <= 0.21:  # decision-relevant tail
            assert diff < 0.007
    assert worst > 0.01  # the oracle is genuinely exercising the gap


# ---------------------------------------------------------------- balance

def _toy_dataset(n_case, n_ctrl, n_bins=8, seed=0):
    rng = np.random.default_rng(seed)
    n = n_case + n_ctrl
    return SpectraDataset(
        intensities=rng.standard_normal((n, n_bins)),
        labels=np.array([1] * n_case + [0] * n_ctrl, dtype=np.int8),
        sample_ids=tuple(f"s{i}" for i in range(n)),
        mz_values=np.arange(n_bins, dtype=float))


def test_balance_large_to_small():
    ds = _toy_dataset(162, 91)
    bal = balance_classes(ds, seed=11)
    assert (bal.labels == 1).sum() == 91
    assert (bal.labels == 0).sum() == 91
    # kept rows preserve original data
    for i, sid in enumerate(bal.sample_ids):
        src = int(sid[1:])
        np.testing.assert_array_equal(bal.intensities[i],
                                      ds.intensities[src])


def test_balance_already_equal_is_identity():
    ds = _toy_dataset(10, 10)
    assert balance_classes(ds, seed=5) is ds


def test_balance_deterministic():
    ds = _toy_dataset(30, 12)
    b1 = balance_classes(ds, seed=3)
    b2 = balance_classes(ds, seed=3)
    assert b1.sample_ids == b2.sample_ids
    assert b1.sample_ids != balance_classes(ds, seed=4).sample_ids


# -------------------------------------------------------------- mz ranges

def test_window_mz_ranges_values():
    grid = make_windows(64, 16, 16)
    mz = np.linspace(100.0, 163.0, 64)
    ranges = window_mz_ranges(grid, mz)
    assert ranges[0] == (1, pytest.approx(100.0), pytest.approx(115.0))
    assert ranges[-1][0] == 4


def test_window_mz_ranges_unsorted_rejected():
    grid = make_windows(8, 4, 4)
    with pytest.raises(IngestionError,
                       match="m/z axis is not ascending at bin 3$"):
        window_mz_ranges(grid, np.array([1.0, 3.0, 2.0, 4.0, 5, 6, 7, 8]))


@pytest.mark.parametrize("mz, bin_", [
    ([1.0, np.nan, 3.0, 4.0], 2), ([np.nan, 2.0, 3.0, 4.0], 2),
    ([1.0, 2.0, 3.0, np.nan], 4)], ids=["nan-inner", "nan-first", "nan-last"])
def test_window_mz_ranges_takes_the_dataset_rule(mz, bin_):
    """An axis the dataset refuses is refused here too, naming the bin."""
    message = f"m/z axis is not ascending at bin {bin_}$"
    with pytest.raises(IngestionError, match=message):
        SpectraDataset(np.zeros((2, 4)), np.array([0, 1]), ("a", "b"),
                       np.array(mz))
    with pytest.raises(IngestionError, match=message):
        window_mz_ranges(make_windows(4, 2, 2), mz)


def test_window_mz_ranges_without_axis():
    grid = make_windows(8, 4, 4)
    assert window_mz_ranges(grid, None) == [(1, None, None), (2, None, None)]


# ------------------------------------------------------------- extraction

@pytest.fixture(scope="module")
def small_two_class():
    return two_class_fbm_dataset(n_per_class=6, n_bins=1536, seed=21)


def _small_config(method):
    return MethodConfig(method, 512, depth=9 if method != "jones" else 8)


@pytest.mark.parametrize("method", ["dwt", "wang", "jones"])
def test_extract_two_class_separation(small_two_class, method):
    grid = make_windows(small_two_class.n_bins, 512, 512)
    fm = extract_features(small_two_class, method, grid,
                          _small_config(method))
    assert fm.slopes.shape == (12, 3)
    assert not np.isnan(fm.slopes).any()
    case = fm.slopes[fm.labels == 1]
    ctrl = fm.slopes[fm.labels == 0]
    # class-wise mean slopes differ in every window by construction
    assert (np.abs(case.mean(axis=0) - ctrl.mean(axis=0)) > 0.05).all()


def test_extract_deterministic_and_thread_invariant(small_two_class):
    grid = make_windows(small_two_class.n_bins, 512, 512)
    cfg = _small_config("wang")
    f1 = extract_features(small_two_class, "wang", grid, cfg, threads=1)
    f2 = extract_features(small_two_class, "wang", grid, cfg, threads=3)
    np.testing.assert_array_equal(f1.slopes, f2.slopes)
    np.testing.assert_array_equal(f1.hurst, f2.hurst)


def test_extract_constant_row_fails_with_context():
    ds = SpectraDataset(
        intensities=np.ones((2, 512)),
        labels=np.array([1, 0], dtype=np.int8),
        sample_ids=("flat1", "flat2"))
    grid = make_windows(512, 512, 512)
    with pytest.raises(EstimationError, match="flat1.*window 1"):
        with pytest.warns(RuntimeWarning):
            extract_features(ds, "dwt", grid, _small_config("dwt"))


def test_extract_rejects_a_grid_past_the_dataset(monkeypatch):
    """A grid made for more bins than the dataset holds would give fewer
    slope columns than windows; it is refused before any transform."""
    import wavescale.estimators as estimators

    ds = two_class_fbm_dataset(n_per_class=2, n_bins=2048)
    monkeypatch.setattr(estimators, "packet_cascade", None)
    with pytest.raises(ConfigurationError, match=re.escape(
            "window grid ends at bin 4096, past the dataset's 2048 bins")):
        extract_features(ds, "dwt", make_windows(4096, 1024, 512))


def test_extract_rejects_bad_window_len(small_two_class):
    grid = make_windows(small_two_class.n_bins, 500, 500)
    with pytest.raises(ConfigurationError):
        extract_features(small_two_class, "dwt", grid, _small_config("dwt"))


def test_extract_refuses_a_config_made_for_other_windows(small_two_class):
    grid = make_windows(small_two_class.n_bins, 512, 512)
    for method, config, made_for in [
            ("dwt", MethodConfig("dwt", 256), "dwt on 256-bin"),
            ("wang", _small_config("dwt"), "dwt on 512-bin")]:
        with pytest.raises(ConfigurationError, match=re.escape(
                f"method_config is for {made_for} windows, not {method} on "
                "512-bin windows")):
            extract_features(small_two_class, method, grid, config)


def test_extract_resolves_the_plan_once(small_two_class, monkeypatch):
    """The MethodConfig resolves and checks its plan when made; extraction
    resolves no level request again for each sample."""
    import wavescale.estimators as estimators

    config = MethodConfig("wang", 512, "haar", 9, ((1, 2, (5, 6, 7)),))
    grid = make_windows(small_two_class.n_bins, 512, 512)
    want = extract_features(small_two_class, "wang", grid, config)

    def fail(*args, **kwargs):
        raise AssertionError("checked again during extraction")

    monkeypatch.setattr(estimators, "resolve_levels", fail)
    got = extract_features(small_two_class, "wang", grid, config)
    assert got.slopes.tobytes() == want.slopes.tobytes()


def test_level_plan_changes_fit(small_two_class):
    """A level plan changes a dwt fit; jones, which fits the whole best
    basis, refuses one when its MethodConfig is made."""
    grid = make_windows(small_two_class.n_bins, 512, 512)
    full = extract_features(small_two_class, "dwt", grid,
                            _small_config("dwt"))
    plan = ((1, 3, (4, 5, 6, 7, 8)),)
    planned = extract_features(
        small_two_class, "dwt", grid,
        MethodConfig("dwt", 512, "haar", 9, plan))
    assert not np.allclose(full.slopes, planned.slopes)
    with pytest.raises(ConfigurationError, match=re.escape(
            "levels entry 0 (window length 512, depth 8): jones fits the "
            "whole best basis and takes no level request")):
        MethodConfig("jones", 512, "symmlet4", 8, plan)


@pytest.mark.parametrize("lo, hi, message", [
    (3, 1, "windows must satisfy 1 <= lo <= hi, got [3, 1]"),
    (0, 4, "windows must satisfy 1 <= lo <= hi, got [0, 4]"),
    (2.5, 4, "window bound 2.5 is not an integer"),
    (1, 4.0, "window bound 4.0 is not an integer"),
    (True, 4, "window bound True is not an integer"),
    ("x", 4, "window bound 'x' is not an integer"),
], ids=["reversed", "zero", "float", "float-integral", "bool", "string"])
def test_plan_window_bounds_checked_before_any_transform(lo, hi, message):
    """A library plan entry's windows are integers 1 <= lo <= hi, as a
    config's are, refused when the MethodConfig is made, before any input
    is read."""
    plan = ((lo, hi, (7, 8)), (5, 6, (6, 7)))
    with pytest.raises(ConfigurationError,
                       match="^" + re.escape(f"levels entry 0: {message}")
                       + "$"):
        MethodConfig("wang", 512, "haar", 9, plan)
    MethodConfig("wang", 512, "haar", 9,
                 ((np.int64(1), np.int32(4), (7, 8)),))


def test_method_config_defaults():
    dwt = MethodConfig("dwt")
    assert (dwt.window_len, dwt.family, dwt.depth) == (1024, "haar", 10)
    jones = MethodConfig("jones")
    assert (jones.family, jones.depth) == ("symmlet4", 9)
    named = MethodConfig("wang", dataset_tag="ovarian-8-7-02")
    assert named.level_plan[0] == (1, 15, (7, 8, 9))
    assert named.levels_for(16) == (5, 6, 7, 8, 9)
    assert named.levels_for(30) is None
    # a known tag selects no plan for jones; an unknown one fails for every
    # method
    assert MethodConfig("jones", dataset_tag="ovarian-8-7-02") == jones
    for method in ("dwt", "wang", "jones"):
        with pytest.raises(ConfigurationError,
                           match="unknown dataset tag 'bogus'; known tags: "
                                 "ovarian-4-3-02, ovarian-8-7-02"):
            MethodConfig(method, dataset_tag="bogus")


# ------------------------------------------------------------ csv outputs

def test_feature_csv_round_trip(tmp_path, small_two_class):
    grid = make_windows(small_two_class.n_bins, 512, 512)
    fm = extract_features(small_two_class, "wang", grid, _small_config("wang"))
    path = tmp_path / "features.csv"
    fm.write_csv(path)
    back = read_feature_csv(path)
    np.testing.assert_allclose(back.slopes, fm.slopes, rtol=1e-15)
    np.testing.assert_array_equal(back.labels, fm.labels)
    assert back.sample_ids == fm.sample_ids


def test_window_metadata_csv(tmp_path):
    grid = make_windows(15153, 1024, 500)
    mz = np.linspace(700.0, 12000.0, 15153)
    path = tmp_path / "windows.csv"
    write_window_metadata_csv(grid, mz, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window,first_index,last_index,mz_lo,mz_hi"
    assert len(lines) == 30
    sixth = lines[6].split(",")
    assert sixth[:3] == ["6", "2501", "3524"]


def test_screen_csv(tmp_path, small_two_class):
    grid = make_windows(small_two_class.n_bins, 512, 512)
    fm = extract_features(small_two_class, "wang", grid, _small_config("wang"))
    path = tmp_path / "screen.csv"
    write_screen_csv(fm, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        p = float(line.split(",")[2])
        assert p < 0.05  # strongly separated construction


def test_balance_feature_rows_matches_dataset_balance(small_two_class):
    grid = make_windows(small_two_class.n_bins, 512, 512)
    fm = extract_features(small_two_class, "wang", grid, _small_config("wang"))
    unbalanced = FeatureMatrix(
        method=fm.method, slopes=fm.slopes[:-2], hurst=fm.hurst[:-2],
        labels=fm.labels[:-2], sample_ids=fm.sample_ids[:-2])
    bal = balance_feature_rows(unbalanced, seed=9)
    assert (bal.labels == 1).sum() == (bal.labels == 0).sum()
