"""Fuzz the scenario-config boundary of `gaplab run`.

A small valid config has one key replaced by an arbitrary JSON value: a
field of ``scenarios.FIELDS``, a whole section, or an unknown key.  The run
must end with exit 0, 1 or 2 and never raise.  Every number drawn lies in
[-16, 16] (plus NaN and the infinities), so no mutated size asks for a
large allocation.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import cli
from gaplab.scenarios import FIELDS

BASE = {
    "schema": "gaplab-scenario/1",
    "dimension": 6,
    "seed": 3,
    "hamiltonian": {"kind": "random"},
    "rho": {"kind": "random"},
    "observable": {"kind": "random_projector"},
    "mc": {"n_states": 8, "n_times": 4},
    "horizons": [4.0],
    "kappas": [1.0],
    "concentration": {"n_states": 8, "scaling_dims": [4, 8]},
}

PATHS = [path for path, *_ in FIELDS]
SECTIONS = sorted({path.rpartition(".")[0] for path in PATHS} - {""})


def _names(kind) -> list:
    if isinstance(kind, list):
        return _names(kind[0])
    return [c for c in kind if isinstance(c, str)] if isinstance(kind, tuple) else []


#: Every string a choice field allows, so a mutation can switch kinds.
NAMES = sorted({name for _, kind, *_ in FIELDS for name in _names(kind)})
KEYS = sorted({path.rpartition(".")[2] for path in PATHS} | set(SECTIONS))

numbers = (
    st.integers(-16, 16)
    | st.floats(-16.0, 16.0)
    | st.sampled_from([math.nan, math.inf, -math.inf])
)
scalars = st.none() | st.booleans() | numbers | st.text(max_size=6) | st.sampled_from(NAMES)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
# (section, key); section "" is the top level
targets = (
    st.sampled_from([tuple(path.rpartition(".")[::2]) for path in PATHS])
    | st.sampled_from([("", section) for section in SECTIONS])
    | st.tuples(st.sampled_from(["", *SECTIONS]), st.text(min_size=1, max_size=6))
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(target=targets, value=json_values)
def test_one_mutated_key_exits_0_1_or_2(target, value):
    section, key = target
    config = json.loads(json.dumps(BASE))
    holder = config.setdefault(section, {}) if section else config
    holder[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(config))
        rc = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "report.json")])
    assert rc in (0, 1, 2)
