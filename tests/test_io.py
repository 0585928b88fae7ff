"""Round-trip fidelity of the CSV measure format, and the CSV writers'
bytes against a ``csv.writer`` reference."""

import csv
import io
import json

import numpy as np
import pytest

from duores import io as dio
from duores.core import Measure, enumerate_states, num_states
from duores.io import (
    measure_from_csv,
    measure_to_csv,
    write_json,
    write_station_trajectory_csv,
    write_timed_measure_csv,
)


def _random_measure(K, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(num_states(K)))
    return Measure(p / p.sum(), K)


@pytest.mark.parametrize("K", [1, 2, 4])
def test_csv_roundtrip_is_bit_exact(tmp_path, K):
    m = _random_measure(K, seed=100 + K)
    path = tmp_path / "m.csv"
    measure_to_csv(m, path)
    back = measure_from_csv(path)
    assert back.K == K
    assert np.array_equal(back.probs, m.probs)


def test_csv_roundtrip_awkward_floats(tmp_path):
    # repr round-trips every double, including ones with no short decimal form
    p = np.zeros(num_states(1))
    p[0] = 0.1
    p[1] = 1.0 / 3.0
    p[2] = 1e-300
    p[3] = 1.0 - p[:3].sum()
    m = Measure(p, 1)
    path = tmp_path / "m.csv"
    measure_to_csv(m, path)
    assert np.array_equal(measure_from_csv(path).probs, p)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d,prob\n0,0,0,0,1.0\n")
    with pytest.raises(ValueError):
        measure_from_csv(path)


def test_csv_refuses_an_empty_file_by_name(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")  # was a StopIteration from the csv reader
    with pytest.raises(ValueError, match=r"empty\.csv has no header: the file is empty"):
        measure_from_csv(path)


def test_csv_rejects_wrong_row_count(tmp_path):
    m = _random_measure(1, seed=3)
    path = tmp_path / "m.csv"
    measure_to_csv(m, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        measure_from_csv(path)


def test_csv_rejects_out_of_order_rows(tmp_path):
    m = _random_measure(1, seed=4)
    path = tmp_path / "m.csv"
    measure_to_csv(m, path)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        measure_from_csv(path)


@pytest.mark.parametrize("row, message", [
    ("0,0,1,0,0.2", r"row 1 state \['0', '0', '1', '0'\] out of enumeration order"),
    ("0,0,0,1", r"row 1 has 4 fields, not 5"),  # was an IndexError
    ("0,0,0,99999999999999999999,0.2", r"a state count does not fit in 64 bits"),
])
def test_csv_names_the_first_malformed_row(tmp_path, row, message):
    path = tmp_path / "m.csv"
    path.write_text("w,x,y,z,prob\n0,0,0,0,0.2\n" + row + "\n"
                    "0,0,1,0,0.2\n0,1,0,0,0.2\n1,0,0,0,0.2\n")
    with pytest.raises(ValueError, match=message):
        measure_from_csv(path)


def test_timed_measure_csv_refuses_times_and_measures_of_unequal_lengths(tmp_path):
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match="^times and measures differ in length$"):
        write_timed_measure_csv([0.0, 1.0], [Measure.uniform(1)], path)
    assert not path.exists()


def test_timed_measure_csv_layout(tmp_path):
    m0 = Measure.point((0, 0, 1, 0), 1)
    m1 = Measure.uniform(1)
    path = tmp_path / "traj.csv"
    write_timed_measure_csv([0.0, 0.5], [m0, m1], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,w,x,y,z,prob"
    assert len(lines) == 1 + 2 * num_states(1)
    t_col = [float(row.split(",")[0]) for row in lines[1:]]
    assert t_col == [0.0] * 5 + [0.5] * 5


def test_station_trajectory_csv_layout(tmp_path):
    counts = np.array([[0, 0, 1, 0], [1, 0, 0, 0]], dtype=np.int64)
    path = tmp_path / "stations.csv"
    write_station_trajectory_csv([(0.0, counts)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,station,w,x,y,z"
    assert lines[1] == "0.0,0,0,0,1,0"
    assert lines[2] == "0.0,1,1,0,0,0"


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def test_write_json_sanitizes_numpy_scalars(tmp_path):
    # np.float64 infinities were written as the bare token Infinity and
    # np.bool_ raised TypeError
    path = tmp_path / "report.json"
    write_json(
        {"a": np.float64(0.5), "b": np.int64(3), "c": [np.float64(1.0)], "d": float("inf"),
         "e": np.float64("-inf"), "f": np.array([np.nan]), "g": np.bool_(True)},
        path,
    )
    data = json.loads(path.read_text(), parse_constant=_not_json)
    assert data["a"] == 0.5
    assert data["b"] == 3
    assert data["c"] == [1.0]
    assert data["d"] == "inf"
    assert data["e"] == "-inf" and data["f"] == ["nan"]
    assert data["g"] is True


# ------------------------------------------------------------
# Byte-golden writers: the bytes csv.writer wrote one row at a time
# ------------------------------------------------------------

def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def _reference_measure_csv(m):
    return _csv_bytes(["w", "x", "y", "z", "prob"],
                      ([st.w, st.x, st.y, st.z, repr(float(p))]
                       for st, p in zip(enumerate_states(m.K), m.probs)))


def _reference_timed_csv(times, measures):
    return _csv_bytes(["t", "w", "x", "y", "z", "prob"],
                      ([repr(float(t)), st.w, st.x, st.y, st.z, repr(float(p))]
                       for t, m in zip(times, measures)
                       for st, p in zip(enumerate_states(m.K), m.probs)))


def _reference_station_csv(snapshots):
    return _csv_bytes(["t", "station", "w", "x", "y", "z"],
                      ([repr(float(t)), i, int(w), int(x), int(y), int(z)]
                       for t, counts in snapshots
                       for i, (w, x, y, z) in enumerate(counts)))


def _awkward_measure(K, seed):
    """A random measure with a 1e-300 entry and two subnormal ones."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(num_states(K)))
    p[-1], p[-2], p[-3] = 1e-300, 5e-324, 2.5e-310
    p[0] += 1.0 - p.sum()
    return Measure(p, K)


_TIMES = [0.0, 0.1 + 0.2, 1e-7, np.float64(2.5), 1.0 / 3.0]


@pytest.mark.parametrize("K", [1, 3, 15])
def test_measure_csv_bytes_match_csv_writer(tmp_path, K):
    for m in (_awkward_measure(K, 40 + K), Measure.uniform(K), Measure.point((0, 0, K, 0), K)):
        path = tmp_path / "m.csv"
        measure_to_csv(m, path)
        assert path.read_bytes() == _reference_measure_csv(m)


@pytest.mark.parametrize("K", [1, 3, 15])
def test_timed_measure_csv_bytes_match_csv_writer(tmp_path, K):
    measures = [_awkward_measure(K, 50 + K + i) for i in range(len(_TIMES))]
    path = tmp_path / "traj.csv"
    write_timed_measure_csv(_TIMES, measures, path)
    assert path.read_bytes() == _reference_timed_csv(_TIMES, measures)


def test_timed_measure_csv_bytes_with_capacities_mixed_in_one_file(tmp_path):
    assert 3 * dio._CHUNK < num_states(15) < 4 * dio._CHUNK  # a K = 15 block spans 4 chunks
    measures = [_awkward_measure(K, 60 + K) for K in (3, 15, 1, 3, 15)]
    path = tmp_path / "traj.csv"
    write_timed_measure_csv(_TIMES, measures, path)
    assert path.read_bytes() == _reference_timed_csv(_TIMES, measures)
    assert path.read_bytes().count(b"\r\n") == 1 + sum(num_states(m.K) for m in measures)


def test_station_csv_bytes_match_csv_writer(tmp_path):
    # more stations than one chunk of rows, and an exact chunk multiple
    rng = np.random.default_rng(70)
    sizes = [2 * dio._CHUNK + 3, dio._CHUNK, 1]
    snapshots = [(t, rng.integers(0, 6, size=(n, 4))) for t, n in zip(_TIMES, sizes)]
    snapshots.append((7, [[1, 0, 2, 0], [0, 3, 0, 1]]))  # plain lists and an int time
    path = tmp_path / "stations.csv"
    write_station_trajectory_csv(snapshots, path)
    assert path.read_bytes() == _reference_station_csv(snapshots)
