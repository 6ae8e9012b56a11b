from collections import Counter
from datetime import date

import pytest

from alp.errors import ConfigurationError
from alp.geo import haversine_m, utc_day
from alp.metrics import PoiClusteringParams, extract_pois
from alp.synth import SynthSpec, generate_synthetic_dataset


class TestGenerator:
    def test_planted_pois_are_recovered(self):
        syn = generate_synthetic_dataset(SynthSpec(users=1, days=1, pois_per_user=2,
                                                   dwell_minutes=30.0, seed=1))
        (trace,) = syn.dataset.traces
        pois = extract_pois(trace, PoiClusteringParams())
        assert len(pois) == 2
        planted = syn.true_pois[trace.user]
        for poi in zip(pois.lat.tolist(), pois.lon.tolist()):
            assert min(haversine_m(*poi, p.lat, p.lon) for p in planted) < 50.0

    def test_full_day_record_count(self):
        syn = generate_synthetic_dataset(SynthSpec(users=1, days=1, pois_per_user=2,
                                                   sample_period_s=30.0, seed=2))
        assert syn.dataset.total_records() == 2880

    def test_same_seed_reproduces_dataset(self):
        spec = SynthSpec(users=2, days=1, pois_per_user=3, seed=9)
        assert generate_synthetic_dataset(spec) == generate_synthetic_dataset(spec)

    def test_different_seeds_differ(self):
        a = generate_synthetic_dataset(SynthSpec(seed=1))
        b = generate_synthetic_dataset(SynthSpec(seed=2))
        assert a != b

    def test_trip_style_ends_before_midnight(self):
        padded = generate_synthetic_dataset(SynthSpec(users=1, days=1, pois_per_user=3, seed=3))
        trip = generate_synthetic_dataset(SynthSpec(users=1, days=1, pois_per_user=3, seed=3,
                                                    pad_to_day_end=False))
        assert trip.dataset.total_records() < padded.dataset.total_records()
        # the itinerary itself is identical, so planted POIs still appear
        (trace,) = trip.dataset.traces
        assert len(extract_pois(trace, PoiClusteringParams())) == 3

    @pytest.mark.parametrize("kwargs", [{"dwell_minutes": 1000.0}, {"speed_mps": 0.01}],
                             ids=["dwell", "transit"])
    def test_a_segment_that_outlasts_its_day_ends_at_midnight(self, kwargs):
        # A dwell of 1,000-2,000 min, or a transit of at least 1 km at 1 cm/s,
        # fills the rest of the day; the next day starts its own itinerary.
        syn = generate_synthetic_dataset(SynthSpec(days=2, pad_to_day_end=False, seed=1, **kwargs))
        (trace,) = syn.dataset.traces
        assert Counter(map(utc_day, trace.time_ms.tolist())) == {date(2024, 1, 1): 2880, date(2024, 1, 2): 2880}

    def test_poi_separation(self):
        syn = generate_synthetic_dataset(SynthSpec(users=3, pois_per_user=4, seed=4))
        for points in syn.true_pois.values():
            for i, a in enumerate(points):
                for b in points[i + 1:]:
                    assert haversine_m(a.lat, a.lon, b.lat, b.lon) >= 1000.0 - 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"users": 0}, {"days": 0}, {"pois_per_user": 0},
        {"dwell_minutes": 0}, {"speed_mps": -1}, {"sample_period_s": 0},
    ])
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SynthSpec(**kwargs)

    def test_too_many_pois_for_extent(self):
        with pytest.raises(ConfigurationError, match="cannot place 60 POIs"):
            generate_synthetic_dataset(SynthSpec(pois_per_user=60, seed=5))
