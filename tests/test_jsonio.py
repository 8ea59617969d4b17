"""File formats: matrix, spectrum, state JSON, curve CSV, canonical dumps."""

import json

import numpy as np
import pytest

from conftest import random_hermitian
from gaplab import jsonio
from gaplab.sampling import derive_rng
from gaplab.scenarios import random_density, random_hamiltonian


def test_matrix_round_trip(tmp_path):
    rng = derive_rng(600)
    M = random_hermitian(5, rng) + 1j * np.eye(5)
    path = tmp_path / "m.json"
    jsonio.save_matrix(path, M)
    back = jsonio.load_matrix(path)
    assert np.abs(back - M).max() == 0.0
    obj = json.loads(path.read_text())
    assert set(obj) == {"rows", "cols", "entries"}
    assert len(obj["entries"]) == 25


def test_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        jsonio.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        jsonio.matrix_from_json({"rows": 1, "cols": 1, "entries": [[1.0]]})


@pytest.mark.parametrize(
    "reader, obj, named",
    [
        (jsonio.matrix_from_json, {"rows": 1, "cols": 1, "entries": {"re": 1.0}}, "'entries'"),
        (jsonio.matrix_from_json, {"rows": 1, "cols": 1, "entries": 1.0}, "'entries'"),
        (jsonio.matrix_from_json, {"rows": 1, "cols": 1, "entries": [{"re": 1.0}]}, "'entries'"),
        (jsonio.spectrum_from_json, {"eigenvalues": [0.0], "blocks": 1}, "'blocks'"),
        (jsonio.spectrum_from_json, {"eigenvalues": {"a": 0.0}, "blocks": []}, "'eigenvalues'"),
        (jsonio.states_from_json, {"states": [[[1.0, 0.0]]]}, "states JSON"),
    ],
    ids=["entries-object", "entries-number", "entries-objects", "blocks-number", "eigenvalues-object",
         "states-object"],
)
def test_readers_refuse_wrongly_typed_json_with_a_value_error(reader, obj, named):
    with pytest.raises(ValueError, match=named):
        reader(obj)


def test_spectrum_round_trip(tmp_path):
    rng = derive_rng(601)
    spec = random_hamiltonian(6, [2, 1, 3], rng)
    path = tmp_path / "spec.json"
    jsonio.save_spectrum(path, spec)
    back = jsonio.load_spectrum(path)
    assert np.abs(back.values - spec.values).max() == 0.0
    for a, b in zip(back.blocks, spec.blocks):
        assert np.abs(a - b).max() <= 1e-15


def test_spectrum_rejects_bad_blocks():
    obj = {
        "eigenvalues": [0.0, 1.0],
        "blocks": [
            jsonio.matrix_to_json(np.array([[1.0], [1.0]])),  # not unit norm
            jsonio.matrix_to_json(np.array([[0.0], [1.0]])),
        ],
    }
    with pytest.raises(ValueError):
        jsonio.spectrum_from_json(obj)


def test_spectrum_rejects_unsorted_values():
    eye = np.eye(2)
    obj = {
        "eigenvalues": [1.0, 0.0],
        "blocks": [jsonio.matrix_to_json(eye[:, :1]), jsonio.matrix_to_json(eye[:, 1:])],
    }
    with pytest.raises(ValueError):
        jsonio.spectrum_from_json(obj)


def test_states_round_trip(tmp_path):
    rng = derive_rng(602)
    states = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    path = tmp_path / "states.json"
    jsonio.save_states(path, states)
    back = jsonio.load_states(path)
    assert np.abs(back - states).max() == 0.0
    single = jsonio.states_from_json(jsonio.states_to_json(states[0]))
    assert single.shape == (1, 4)


def test_density_load(tmp_path):
    rng = derive_rng(603)
    rho = random_density(4, rng)
    path = tmp_path / "rho.json"
    jsonio.save_matrix(path, rho.matrix())
    back = jsonio.load_density(path)
    assert np.abs(back.matrix() - rho.matrix()).max() <= 1e-10


def test_curve_csv_format(tmp_path):
    path = tmp_path / "curve.csv"
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([1.0 + 0.0j, 0.25 - 0.125j, -1.0 / 3.0 + 0.0j])
    jsonio.write_curve_csv(path, times, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_expectation,im_expectation"
    assert len(lines) == 4
    t, re, im = (float(x) for x in lines[2].split(","))
    assert (t, re, im) == (0.5, 0.25, -0.125)
    # 17 significant digits round-trip doubles exactly.
    assert float(lines[3].split(",")[1]) == -1.0 / 3.0


def test_canonical_dumps_are_stable():
    a = jsonio.dumps_canonical({"b": 1, "a": [np.float64(0.5), np.int64(2)]})
    b = jsonio.dumps_canonical({"a": [0.5, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_canonical_dumps_reject_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps_canonical({"x": float("nan")})
    with pytest.raises(ValueError):
        jsonio.dumps_canonical({"x": np.inf})
    with pytest.raises(ValueError):
        jsonio.dumps_canonical({"x": 1.0 + 2.0j})


def test_canonical_dumps_name_the_path_of_a_non_finite_value():
    payload = {"checks": [{"bound": 1.0}, {"detail": {"cells": np.array([0.5, np.inf])}}]}
    with pytest.raises(ValueError, match=r"at checks\[1\]\.detail\.cells\[1\] "):
        jsonio.dumps_canonical(payload)
    with pytest.raises(ValueError, match="at the top level"):
        jsonio.dumps_canonical(np.nan)
