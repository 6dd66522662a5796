"""The parameter records are named tuples that check their fields however
they are built: keyword or positional arguments, `_replace`, `_make`,
unpickling and `copy`."""
import copy
import pickle
import re

import pytest

from rfvlc import McOptions, RfParams, SweepSpec, SystemConfig, VlcParams

RF = RfParams(k_factor=3.162, branches=2, avg_snr=5.0)
VLC = VlcParams(semi_angle=60.0, height=2.0, area=1e-4, fov=60.0, refractive_index=1.5,
                filter_gain=1.0, responsivity=0.4, conv_efficiency=0.8, noise_psd=1e-21,
                bandwidth=2e7, optical_power=0.25)

# (valid record, field, bad value, the message it raises)
CASES = [
    (RF, "avg_snr", 0.0, "avg_snr must be finite and > 0, got 0.0"),
    (VLC, "fov", 120.0, "fov must be in (0, 90] degrees, got 120.0"),
    (SystemConfig(rf=RF, vlc=VLC, outage_threshold=1.0), "outage_threshold", -1.0,
     "outage_threshold must be finite and > 0, got -1.0"),
    (SweepSpec(axis="rf_avg_snr_db", start=0.0, stop=20.0, points=5, quantity="outage"),
     "points", 1, "points must be an integer >= 2, got 1"),
    (McOptions(trials=20_000, seed=7, workers=2), "trials", 50,
     "trials must be an integer >= 1000, got 50"),
]
IDS = [type(case[0]).__name__ for case in CASES]


def _values(record, field, value):
    return [value if name == field else old for name, old in zip(record._fields, record)]


BUILDS = {
    "keyword": lambda r, f, v: type(r)(**{**r._asdict(), f: v}),
    "positional": lambda r, f, v: type(r)(*_values(r, f, v)),
    "replace": lambda r, f, v: r._replace(**{f: v}),
    "make": lambda r, f, v: type(r)._make(_values(r, f, v)),
    # a tuple of the bad values, unchecked, then rebuilt the checked way
    "unpickle": lambda r, f, v: pickle.loads(pickle.dumps(tuple.__new__(type(r), _values(r, f, v)))),
    "copy": lambda r, f, v: copy.copy(tuple.__new__(type(r), _values(r, f, v))),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
@pytest.mark.parametrize("record, field, bad, message", CASES, ids=IDS)
def test_every_build_checks(record, field, bad, message, build):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(record, field, bad)


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
@pytest.mark.parametrize("record, field", [case[:2] for case in CASES], ids=IDS)
def test_every_build_keeps_a_valid_record(record, field, build):
    assert build(record, field, getattr(record, field)) == record


@pytest.mark.parametrize("record", [case[0] for case in CASES], ids=IDS)
def test_round_trips_and_immutability(record):
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert again == record and type(again) is type(record)
    with pytest.raises(ValueError, match="unexpected field names"):
        record._replace(no_such_field=1)
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.no_such_field = 1
