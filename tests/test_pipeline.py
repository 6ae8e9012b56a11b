import csv
import io
from collections import Counter
from datetime import date

import pytest

from alp.errors import AlpError, ConfigurationError, DatasetLoadError
from alp.geo import CellGrid, Dataset, Trace, utc_day
from alp.io import load_dataset, parse_timestamp_ms, write_dataset_csv, write_json, write_rows_csv
from alp.lppm import MECHANISMS, LppmConfig
from alp.metrics import EVALUATORS, PoiClusteringParams, bind_evaluators, median_of_k, prepare_replicates
from alp.optimizer import (AnnealingSchedule, AnnealResult, Objective, ObjectiveCost, anneal,
                           parse_objectives)
from alp.pipeline import (
    Report,
    ReportRow,
    RunConfig,
    cdf_points,
    evaluate,
    protect,
    run_offline,
    run_online,
    split_daily_batches,
)
from alp.rng import RandomStream
from alp.synth import SynthSpec, generate_synthetic_dataset

from conftest import applied
from oracles import csv_write_dataset

DAY_MS = 86_400_000


class TestTimestampParsing:
    def test_epoch_seconds(self):
        assert parse_timestamp_ms("1700000000") == 1_700_000_000_000

    def test_epoch_millis(self):
        assert parse_timestamp_ms("1700000000123") == 1_700_000_000_123

    def test_iso(self):
        assert parse_timestamp_ms("1970-01-02T00:00:00Z") == DAY_MS
        assert parse_timestamp_ms("1970-01-02 00:00:00+00:00") == DAY_MS
        assert parse_timestamp_ms("1970-01-02T01:00:00+01:00") == DAY_MS
        assert parse_timestamp_ms("1970-01-02T00:00:00") == DAY_MS  # naive means UTC

    @pytest.mark.parametrize("text", ["253402300800000", "-99999999999", "-62135596800001"])
    def test_epoch_outside_the_calendar_is_out_of_range(self, text):
        # past 9999-12-31 UTC, year -1198 in epoch seconds, and 1 ms before 0001-01-01
        with pytest.raises(ValueError) as err:
            parse_timestamp_ms(text)
        assert str(err.value) == f"timestamp '{text}' out of range"

    @pytest.mark.parametrize("text", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"])
    def test_iso_outside_the_calendar_is_out_of_range(self, text):
        with pytest.raises(ValueError) as err:
            parse_timestamp_ms(text)
        assert str(err.value) == f"timestamp '{text}' out of range"

    def test_calendar_bounds_are_inclusive(self):
        assert utc_day(parse_timestamp_ms("253402300799999")) == date(9999, 12, 31)
        assert utc_day(parse_timestamp_ms("9999-12-31T23:59:59.999Z")) == date(9999, 12, 31)
        assert utc_day(parse_timestamp_ms("0001-01-01T00:00:00Z")) == date(1, 1, 1)
        assert utc_day(parse_timestamp_ms("-62135596800000")) == date(1, 1, 1)


class TestLoadDataset:
    def write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return path

    def test_two_rows_one_user(self, tmp_path):
        path = self.write(tmp_path, "user,timestamp,lat,lon\nu1,1000,45.0,5.0\nu1,2000,45.1,5.1\n")
        dataset = load_dataset(path)
        assert len(dataset.traces) == 1
        assert len(dataset.traces[0]) == 2

    def test_rows_out_of_order_are_sorted(self, tmp_path):
        path = self.write(tmp_path, "user,timestamp,lat,lon\nu1,2000,45.1,5.1\nu1,1000,45.0,5.0\n")
        trace = load_dataset(path).traces[0]
        assert trace.time_ms.tolist() == [1_000_000, 2_000_000]

    def test_bad_latitude_names_line(self, tmp_path):
        path = self.write(tmp_path, "user,timestamp,lat,lon\nu1,1000,45.0,5.0\nu1,2000,95.0,5.0\n")
        with pytest.raises(DatasetLoadError, match="line 3"):
            load_dataset(path)

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "u1,1000,45.0,5.0\n")
        with pytest.raises(DatasetLoadError, match="header"):
            load_dataset(path)

    def test_multiple_problems_all_reported(self, tmp_path):
        path = self.write(tmp_path,
                          "user,timestamp,lat,lon\n,1000,45,5\nu1,notatime,45,5\nu1,1000,45,999\n")
        with pytest.raises(DatasetLoadError) as err:
            load_dataset(path)
        assert len(err.value.problems) == 3

    @pytest.mark.parametrize("lat,lon,message", [
        ("nan", "5.0", "coordinates must be finite"),
        ("45.0", "inf", "coordinates must be finite"),
        ("45.0", "-inf", "coordinates must be finite"),
        ("90.0001", "5.0", "latitude 90.0001 outside [-90, 90]"),
        ("45.0", "-180", "longitude -180.0 outside (-180, 180]"),
    ])
    def test_bad_coordinates_name_their_line(self, tmp_path, lat, lon, message):
        path = self.write(tmp_path, f"user,timestamp,lat,lon\nu1,1000,45.0,5.0\nu1,2000,{lat},{lon}\n")
        with pytest.raises(DatasetLoadError, match="line 3") as err:
            load_dataset(path)
        assert err.value.problems == [(3, message)]

    def test_boundary_coordinates_accepted(self, tmp_path):
        path = self.write(tmp_path, "user,timestamp,lat,lon\n"
                                    "u1,1000,90,180\nu1,2000,-90,-179.999\nu1,3000,0,180.0\n")
        trace = load_dataset(path).traces[0]
        assert trace.lat.tolist() == [90.0, -90.0, 0.0]
        assert trace.lon.tolist() == [180.0, -179.999, 180.0]

    def test_lines_count_the_lines_of_multi_line_records(self, tmp_path):
        # quoted users span lines 2-3 and 5-6; a record is numbered by its first line
        path = self.write(tmp_path, 'user,timestamp,lat,lon\n"a\nb",1000,45,5\nc,2000,95,5\n'
                                    '"d\n",notatime,45,5\ne,3000,45,5\n')
        with pytest.raises(DatasetLoadError) as err:
            load_dataset(path)
        assert err.value.problems == [(4, "latitude 95.0 outside [-90, 90]"),
                                      (5, "Invalid isoformat string: 'notatime'")]

    def test_mixed_problems_reported_in_line_order(self, tmp_path):
        path = self.write(tmp_path, "user,timestamp,lat,lon\n"
                                    "u1,1000,45,5\n"
                                    "u1,2000,95,5\n"
                                    ",1000,45,5\n"
                                    "u1,3000,45,-180\n"
                                    "u1,notatime,45,5\n"
                                    "u1,4000,nan,5\n"
                                    "u1,5000,abc,5\n"
                                    "u1,6000,45\n"
                                    "u1,99999999999999999999,45,5\n"
                                    "u2,7000,-91,5\n")
        with pytest.raises(DatasetLoadError) as err:
            load_dataset(path)
        assert err.value.problems == [
            (3, "latitude 95.0 outside [-90, 90]"),
            (4, "empty user id"),
            (5, "longitude -180.0 outside (-180, 180]"),
            (6, "Invalid isoformat string: 'notatime'"),
            (7, "coordinates must be finite"),
            (8, "could not convert string to float: 'abc'"),
            (9, "expected 4 fields, got 3"),
            (10, "timestamp '99999999999999999999' out of range"),
            (11, "latitude -91.0 outside [-90, 90]"),
        ]

    def test_blank_rows_skipped_but_a_blank_user_reported(self, tmp_path):
        path = self.write(tmp_path, "user,timestamp,lat,lon\n"
                                    "u1,1000,45,5\n"
                                    ",,,\n"
                                    " , \t,  , \n"
                                    "\n"
                                    '" ",1000,45,5\n'
                                    "u1,2000,45,5\n")
        with pytest.raises(DatasetLoadError) as err:
            load_dataset(path)
        assert err.value.problems == [(6, "empty user id")]
        path = self.write(tmp_path, "user,timestamp,lat,lon\nu1,1000,45,5\n,,,\n , ,\t, \n")
        assert load_dataset(path).traces[0].time_ms.tolist() == [1_000_000]

    def test_oversized_field_names_its_line(self, tmp_path):
        path = self.write(tmp_path, "user,timestamp,lat,lon\nu1,1000,45,5\nu1,2000,95,5\n"
                                    + "x" * 200_000 + ",3000,45,5\nu1,4000,45,5\n")
        with pytest.raises(DatasetLoadError) as err:
            load_dataset(path)
        limit = csv.field_size_limit()  # read, not changed
        assert err.value.problems == [(3, "latitude 95.0 outside [-90, 90]"),
                                      (4, f"field larger than field limit ({limit})")]
        assert str(err.value) == (f"{path}: 2 malformed row(s): line 3: latitude 95.0 outside "
                                  f"[-90, 90]; line 4: field larger than field limit ({limit})")

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_undecodable_byte_names_its_line(self, tmp_path, bom):
        # far enough down that the reader's read-ahead decodes it early
        rows = b"".join(b"u1,%d,45,5\n" % (1000 + i) for i in range(2000))
        raw = bom + b"user,timestamp,lat,lon\n" + rows + b"caf\xe9,9000,45,5\nu1,9999,45,5\n"
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        with pytest.raises(DatasetLoadError) as err:
            load_dataset(path)
        at = raw.index(b"\xe9")
        assert err.value.problems == [
            (2002, f"'utf-8' codec can't decode byte 0xe9 in position {at}: invalid continuation byte")]

    def test_users_grouped_and_sorted_stably(self, tmp_path):
        path = self.write(tmp_path, "user,timestamp,lat,lon\n"
                                    "b,2000,1,1\na,3000,2,2\nb,1000,3,3\nb,2000,4,4\na,1000,5,5\n")
        traces = load_dataset(path).traces
        assert [t.user for t in traces] == ["a", "b"]
        assert traces[0].time_ms.tolist() == [1_000_000, 3_000_000]
        assert traces[0].lat.tolist() == [5.0, 2.0]
        assert traces[1].time_ms.tolist() == [1_000_000, 2_000_000, 2_000_000]
        assert traces[1].lat.tolist() == [3.0, 1.0, 4.0]
        # the loader and the constructor's merge apply one rule
        rows = [("b", 2000, 1), ("a", 3000, 2), ("b", 1000, 3), ("b", 2000, 4), ("a", 1000, 5)]
        assert load_dataset(path) == Dataset([Trace(u, [x], [x], [t * 1000]) for u, t, x in rows])

    def test_synth_write_load_write_is_byte_identical(self, tmp_path):
        syn = generate_synthetic_dataset(SynthSpec(users=3, days=2, seed=11,
                                                   sample_period_s=300.0))
        first = write_dataset_csv(syn.dataset, tmp_path / "first.csv")
        second = write_dataset_csv(load_dataset(first), tmp_path / "second.csv")
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("users", [
        ("u000",),
        ("a,b", 'say "hi"', "{x}", "}{", "two\nlines", "cr\rlf", " pad ", "{0}{1!r}%s"),
    ], ids=["plain", "awkward"])
    def test_writer_bytes_match_csv_writer(self, tmp_path, users):
        # 30 s sampling over 2 days: 5,760 rows per user, more than one write chunk
        base = generate_synthetic_dataset(SynthSpec(users=len(users), days=2, seed=5))
        dataset = Dataset(tuple(Trace(user, t.lat, t.lon, t.time_ms)
                                for user, t in zip(users, base.dataset)))
        expected = io.StringIO(newline="")
        csv_write_dataset(dataset, expected)
        path = write_dataset_csv(dataset, tmp_path / "out.csv")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_round_trip_through_writer(self, tmp_path):
        syn = generate_synthetic_dataset(SynthSpec(users=2, days=1, seed=3,
                                                   sample_period_s=600.0))
        path = write_dataset_csv(syn.dataset, tmp_path / "synth.csv")
        again = load_dataset(path)
        assert again == syn.dataset

    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path):
        path = write_json({"x": 1}, tmp_path / "r.json")
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json({"x": object()}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


class TestDailyBatches:
    def trace(self, times_ms, user="u"):
        return Trace(user, [45.0] * len(times_ms), [5.0] * len(times_ms), times_ms)

    def test_two_days(self):
        batches = split_daily_batches(self.trace([0, 1000, DAY_MS + 5]))
        assert [day for day, _ in batches] == [date(1970, 1, 1), date(1970, 1, 2)]
        assert [len(batch) for _, batch in batches] == [2, 1]
        assert [batch.user for _, batch in batches] == ["u", "u"]

    def test_empty_trace(self):
        assert split_daily_batches(Trace("u")) == []

    @pytest.mark.parametrize("times_ms, days", [
        ([DAY_MS - 1, DAY_MS], [date(1970, 1, 1), date(1970, 1, 2)]),
        ([-1, 0], [date(1969, 12, 31), date(1970, 1, 1)]),  # day numbers -1 and 0
    ])
    def test_midnight_starts_new_day(self, times_ms, days):
        batches = split_daily_batches(self.trace(times_ms))
        assert [day for day, _ in batches] == days

    def test_no_empty_batches_with_day_gaps(self):
        batches = split_daily_batches(self.trace([0, 3 * DAY_MS]))
        assert [day for day, _ in batches] == [date(1970, 1, 1), date(1970, 1, 4)]


class TestCdfPoints:
    def test_duplicates(self):
        assert cdf_points([1, 2, 2, 4]) == [(1, 0.25), (2, 0.75), (4, 1.0)]

    def test_singleton(self):
        assert cdf_points([3.5]) == [(3.5, 1.0)]

    def test_empty(self):
        assert cdf_points([]) == []

    def test_monotone_and_ends_at_one(self, gen):
        values = gen.normal(size=200).tolist()
        points = cdf_points(values)
        assert points[-1][1] == 1.0
        assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(points, points[1:]))


class TestReportSummary:
    def test_summary_is_derived_from_the_rows(self):
        """Two users, two days each, two parameters (given ``b`` first)."""
        def row(user, day, a, b, metrics):
            return ReportRow(user, date(2024, 1, day), LppmConfig("geo-i", {"b": b, "a": a}),
                             dict(zip(EVALUATORS, metrics)), 0.0)

        rows = (row("u000", 1, 0.5, 30.0, (0.2, 10.0, 0.5)), row("u000", 2, 0.25, 10.0, (0.2, 30.0, 1.0)),
                row("u001", 1, 1.0, 20.0, (0.6, 20.0, 0.5)), row("u001", 2, 1.0, 50.0, (0.4, 10.0, 0.75)))
        summary = Report(rows, {"lppm": "geo-i"}, Dataset()).summary_payload("rows.csv")
        assert list(EVALUATORS) == ["pois", "distortion", "coverage"]
        assert summary["run_config"] == {"lppm": "geo-i"}
        assert summary["rows_file"] == "rows.csv"
        assert summary["cdf"] == {"pois": [(0.2, 0.5), (0.4, 0.75), (0.6, 1.0)],
                                  "distortion": [(10.0, 0.5), (20.0, 0.75), (30.0, 1.0)],
                                  "coverage": [(0.5, 0.5), (0.75, 0.75), (1.0, 1.0)]}
        assert list(summary["param_cdf"]) == ["a", "b"]
        assert summary["param_cdf"] == {"a": [(0.25, 0.25), (0.5, 0.5), (1.0, 1.0)],
                                        "b": [(10.0, 0.25), (20.0, 0.5), (30.0, 0.75), (50.0, 1.0)]}
        assert list(summary["per_user_param_range"]) == ["a", "b"]
        assert summary["per_user_param_range"] == {"a": {"u000": 0.25, "u001": 0.0},
                                                   "b": {"u000": 20.0, "u001": 30.0}}


@pytest.fixture(scope="module")
def trip_dataset():
    return generate_synthetic_dataset(SynthSpec(users=1, days=2, pois_per_user=4,
                                                dwell_minutes=20.0, speed_mps=8.0,
                                                pad_to_day_end=False, seed=17)).dataset


@pytest.fixture(scope="module")
def three_day_dataset():
    return generate_synthetic_dataset(SynthSpec(users=1, days=3, pois_per_user=3,
                                                dwell_minutes=20.0, speed_mps=8.0,
                                                pad_to_day_end=False, seed=19)).dataset


class TestRunConfig:
    def test_adaptive_modes_reject_assignment(self, trip_dataset):
        # run_offline searches the domains; only run_online has a static baseline
        config = RunConfig(lppm_name="geo-i", static_assignment={"epsilon": 0.01})
        with pytest.raises(ConfigurationError,
                           match="offline mode searches domains; drop the static assignment"):
            run_offline(trip_dataset, config)

    @pytest.mark.parametrize("k", [0, -1, 2, 4])
    def test_bad_robust_k_rejected_on_construction(self, k):
        with pytest.raises(ConfigurationError) as err:
            RunConfig("geo-i", robust_k=k)
        assert str(err.value) == f"robust_k must be an odd integer >= 1, got {k}"

    def test_unknown_objective_rejected_on_construction(self):
        with pytest.raises(ConfigurationError) as err:
            RunConfig("promesse", objectives=(Objective("pois", True), Objective("nope", False)))
        assert str(err.value) == "unknown evaluator 'nope'; registered: coverage, distortion, pois"

    @pytest.mark.parametrize("spec, name", [
        ("min:pois,max:pois", "pois"),
        ("min:pois,min:pois", "pois"),
        ("min:distortion,max:coverage,max:distortion:scale=9", "distortion"),
    ])
    def test_repeated_evaluator_rejected_on_construction(self, spec, name):
        with pytest.raises(ConfigurationError) as err:
            RunConfig("geo-i", objectives=parse_objectives(spec))
        assert str(err.value) == f"objectives name evaluator {name!r} twice"

    def test_empty_objectives_rejected_on_construction(self):
        with pytest.raises(ConfigurationError) as err:
            RunConfig("geo-i", objectives=())
        assert str(err.value) == "at least one objective is required"

    @pytest.mark.parametrize("job", [evaluate, protect], ids=["evaluate", "protect"])
    def test_static_jobs_reject_a_config_without_assignment(self, trip_dataset, job):
        # the mirror of run_offline's check: these jobs run a fixed configuration
        with pytest.raises(ConfigurationError) as err:
            job(trip_dataset, RunConfig("geo-i"))
        assert str(err.value) == "this job runs a fixed configuration; give a static assignment"


class TestStaticJobs:
    """evaluate and protect draw from each user's offline root ``(seed, user, "offline")``,
    the streams the offline search scores and publishes that user on."""

    @pytest.fixture(scope="class")
    def two_users(self):
        return generate_synthetic_dataset(SynthSpec(users=2, days=1, pois_per_user=2,
                                                    sample_period_s=120.0, pad_to_day_end=False,
                                                    seed=23)).dataset

    def test_protect_draws_each_user_from_the_offline_protect_stream(self, two_users):
        static = LppmConfig("geo-i", {"epsilon": 0.01})
        expected = Dataset(applied(static, t, RandomStream(4).child(t.user, "offline", "cost", "rep", 0))
                           for t in two_users)
        protected = protect(two_users, RunConfig("geo-i", static_assignment=static.assignment, seed=4))
        assert [t.user for t in protected] == ["u000", "u001"]
        assert protected == expected

    def test_evaluate_is_median_of_k_on_the_offline_cost_stream(self, two_users):
        static = LppmConfig("geo-i", {"epsilon": 0.01})
        poi_params = PoiClusteringParams(max_diameter_m=150.0)
        config = RunConfig("geo-i", static_assignment=static.assignment, seed=4, robust_k=5,
                           cell_size_m=100.0, poi_params=poi_params)
        grid = CellGrid(100.0, two_users.mean_latitude())

        def medians(t):
            replicates = prepare_replicates("geo-i", t, 5, RandomStream(4).child(t.user, "offline", "cost"))
            return median_of_k(bind_evaluators(EVALUATORS, t, poi_params, grid), static, replicates)

        expected = [(t.user, medians(t)) for t in two_users]
        assert [user for user, _ in expected] == ["u000", "u001"]
        assert evaluate(two_users, config) == expected


class TestOneScorePerState:
    """Every state of a unit is scored on the same replicates, whichever command scores it."""

    def test_each_replicate_is_drawn_once_per_unit(self, monkeypatch):
        # The benchmark's online-geoi input at seed 811: 4 units whose searches
        # score 62 distinct states on k = 1 replicate (62 applies), then
        # publish each unit's replicate once more. Every state reuses the
        # replicate prepared on rep/0, and publishing draws no stream of its
        # own, so each unit draws only cost/rep/0 and its chain, once each.
        import alp.metrics
        import alp.pipeline

        dataset = generate_synthetic_dataset(SynthSpec(users=4, days=1, pois_per_user=3, sample_period_s=240,
                                                       seed=811)).dataset
        drawn = Counter()
        real_generator = RandomStream.generator
        monkeypatch.setattr(RandomStream, "generator", lambda self: drawn.update([self.label]) or real_generator(self))
        calls = Counter()

        def counted(name, fn):
            return lambda *args: calls.update([name]) or fn(*args)

        monkeypatch.setattr(alp.metrics, "extract_pois", counted("extract_pois", alp.metrics.extract_pois))
        apply = counted("apply_lppm", alp.metrics.apply_lppm)
        monkeypatch.setattr(alp.metrics, "apply_lppm", apply)
        monkeypatch.setattr(alp.pipeline, "apply_lppm", apply)
        run_online(dataset, RunConfig("geo-i", seed=811, schedule=AnnealingSchedule(t_min=0.2)))
        assert drawn == {f"u00{i}/2024-01-01/{label}": 1 for i in range(4)
                         for label in ("cost/rep/0", "anneal/chain")}
        assert calls == {"extract_pois": 70, "apply_lppm": 66}

    @pytest.fixture(scope="class")
    def two_users(self):
        return generate_synthetic_dataset(SynthSpec(users=2, days=2, pois_per_user=3,
                                                    sample_period_s=600.0, seed=61)).dataset

    @pytest.fixture(scope="class")
    def offline(self, two_users):
        return run_offline(two_users, RunConfig("geo-i", seed=7))

    def test_static_baseline_rescores_each_tuned_row_exactly(self, two_users):
        tuned = run_online(two_users, RunConfig("geo-i", seed=7))
        assert len(tuned.rows) == 4
        for row in tuned.rows:
            static = run_online(two_users, RunConfig("geo-i", static_assignment=row.config.assignment,
                                                     seed=7))
            (again,) = [r for r in static.rows if (r.user, r.day) == (row.user, row.day)]
            assert again.config == row.config
            assert again.cost == row.cost
            assert again.metrics == row.metrics

    def test_evaluate_gives_the_medians_the_offline_search_scored(self, two_users, offline):
        objectives = offline.run_config["objectives"]
        assert len(offline.rows) == 2
        for row in offline.rows:
            config = RunConfig("geo-i", static_assignment=row.config.assignment, seed=7)
            medians = dict(evaluate(two_users, config))[row.user]
            cost = 0.0
            for o in objectives:
                n = min(medians[o["evaluator"]], o["scale"]) / o["scale"]
                cost += n if o["direction"] == "min" else 1.0 - n
            assert cost == row.cost

    def test_protect_publishes_the_offline_trace(self, two_users, offline):
        for row, published in zip(offline.rows, offline.protected):
            config = RunConfig("geo-i", static_assignment=row.config.assignment, seed=7)
            (trace,) = [t for t in protect(two_users, config) if t.user == row.user]
            assert trace == published

    def test_a_repeated_state_gets_the_identical_cost(self, two_users):
        day, raw = split_daily_batches(next(iter(two_users)))[0]
        config = RunConfig("geo-i", seed=7)
        grid = CellGrid(config.cell_size_m, two_users.mean_latitude())
        bound = bind_evaluators(EVALUATORS, raw, config.poi_params, grid)
        root = RandomStream(7).child(raw.user, day)
        cost_fn = ObjectiveCost(config.objectives, bound,
                                prepare_replicates("geo-i", raw, config.robust_k, root.child("cost")))
        calls = []

        def recorded(state):
            calls.append((tuple(sorted(state.assignment.items())), cost_fn(state)))
            return calls[-1][1]

        anneal("geo-i", MECHANISMS["geo-i"].domains, recorded, config.schedule, root.child("anneal"),
               n_objectives=len(config.objectives))
        assert len(calls) == 111
        states = {state for state, _ in calls}
        assert len(states) < len(calls)  # some state is visited more than once
        assert len(set(calls)) == len(states)


class TestPublishedTraceMeetsItsCost:
    """At the default k, a unit publishes the replicate its search scored, so a row's cost is
    the cost of the trace written, and ``evaluate`` scores the trace ``protect`` writes."""

    @pytest.fixture(scope="class")
    def two_users(self):
        return generate_synthetic_dataset(SynthSpec(users=2, days=2, pois_per_user=3, seed=811)).dataset

    @staticmethod
    def objective_sum(objectives, metrics):
        total = 0.0
        for o in objectives:
            n = min(metrics[o.evaluator_name], o.scale) / o.scale
            total += n if o.minimise else 1.0 - n
        return total

    @pytest.mark.parametrize("job", [run_online, run_offline], ids=["online", "offline"])
    def test_each_tuned_row_costs_what_its_metrics_cost(self, two_users, job):
        config = RunConfig("geo-i", seed=811)
        report = job(two_users, config)
        assert len(report.rows) == (4 if job is run_online else 2)
        for row in report.rows:
            assert row.cost == self.objective_sum(config.objectives, row.metrics)

    def test_offline_metrics_score_the_published_trace(self, two_users):
        config = RunConfig("geo-i", seed=811)
        report = run_offline(two_users, config)
        grid = CellGrid(config.cell_size_m, two_users.mean_latitude())
        for row, raw, published in zip(report.rows, two_users, report.protected, strict=True):
            bound = bind_evaluators(EVALUATORS, raw, config.poi_params, grid)
            assert {name: score(published) for name, score in bound.items()} == row.metrics

    def test_evaluate_scores_the_trace_protect_writes(self, two_users):
        config = RunConfig("geo-i", static_assignment={"epsilon": 0.005}, seed=811)
        grid = CellGrid(config.cell_size_m, two_users.mean_latitude())
        expected = [(raw.user, {name: score(published) for name, score in
                                bind_evaluators(EVALUATORS, raw, config.poi_params, grid).items()})
                    for raw, published in zip(two_users, protect(two_users, config), strict=True)]
        assert evaluate(two_users, config) == expected


class TestRunOffline:
    def test_report_shape_and_determinism(self, trip_dataset, tmp_path):
        config = RunConfig(lppm_name="promesse", seed=11)
        report = run_offline(trip_dataset, config)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.day is None
        assert set(row.metrics) == {"pois", "distortion", "coverage"}

        again = run_offline(trip_dataset, config)
        paths = []
        for name, rep in (("a", report), ("b", again)):
            rows_path = write_rows_csv(rep.rows, tmp_path / f"{name}.csv")
            json_path = write_json(rep.summary_payload("rows.csv"), tmp_path / f"{name}.json")
            paths.append((rows_path.read_bytes(), json_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_promesse_hides_planted_pois(self, trip_dataset):
        config = RunConfig(lppm_name="promesse", seed=11)
        report = run_offline(trip_dataset, config)
        assert report.rows[0].metrics["pois"] == 0.0


class TestRunOnline:
    def test_one_row_per_batch_and_param_range(self, three_day_dataset):
        config = RunConfig(lppm_name="promesse", seed=5)
        report = run_online(three_day_dataset, config)
        assert len(report.rows) == 3
        chosen = [row.config.assignment["alpha"] for row in report.rows]
        expected_range = max(chosen) - min(chosen)
        assert report.summary_payload()["per_user_param_range"]["alpha"]["u000"] == pytest.approx(expected_range)
        assert set(report.summary_payload()["param_cdf"]) == {"alpha"}

    @pytest.mark.parametrize("use_best", [True, False])
    def test_row_reports_the_chosen_state_with_its_cost(self, three_day_dataset, monkeypatch,
                                                        use_best):
        best, final = LppmConfig("promesse", {"alpha": 100.0}), LppmConfig("promesse", {"alpha": 300.0})
        result = AnnealResult(best, 0.25, final, 0.75, iterations=1, cost_trace=((1.0, 0.75),))
        monkeypatch.setattr("alp.pipeline.anneal", lambda *args, **kwargs: result)
        report = run_online(three_day_dataset, RunConfig("promesse", seed=5, use_best=use_best))
        expected = (best, 0.25) if use_best else (final, 0.75)
        assert [(row.config, row.cost) for row in report.rows] == [expected] * 3

    def test_static_baseline_constant_choice(self, three_day_dataset):
        config = RunConfig(lppm_name="geo-i",
                           static_assignment={"epsilon": 0.01}, seed=5)
        report = run_online(three_day_dataset, config)
        assert len(report.rows) == 3
        assert all(row.config.assignment == {"epsilon": 0.01} for row in report.rows)
        assert report.summary_payload()["per_user_param_range"]["epsilon"]["u000"] == 0.0

    def test_rows_match_non_empty_batches(self, three_day_dataset):
        config = RunConfig(lppm_name="promesse", seed=5)
        report = run_online(three_day_dataset, config)
        keys = [(trace.user, day) for trace in three_day_dataset
                for day, _ in split_daily_batches(trace)]
        assert len(report.rows) == len(keys)
        assert [(r.user, r.day) for r in report.rows] == keys

    def test_round_trip_audit(self, three_day_dataset):
        # every row's metrics must be re-derivable from its recorded config
        config = RunConfig(lppm_name="promesse", seed=5)
        report = run_online(three_day_dataset, config)
        from alp.geo import CellGrid

        grid = CellGrid(config.cell_size_m, three_day_dataset.mean_latitude())
        batches = {(trace.user, day): batch
                   for trace in three_day_dataset
                   for day, batch in split_daily_batches(trace)}
        for row in report.rows:
            raw = batches[(row.user, row.day)]
            rng = RandomStream(config.seed).child(row.user, row.day.isoformat(), "protect")
            protected = applied(row.config, raw, rng)
            for name in ("pois", "distortion", "coverage"):
                bound = EVALUATORS[name].bind(raw, config.poi_params, grid)
                assert bound(protected) == row.metrics[name]

    def test_each_unit_binds_each_evaluator_once(self, three_day_dataset, monkeypatch):
        import alp.metrics

        binds = Counter()
        def counted_bind(self, raw, poi_params, grid, bind=alp.metrics.Evaluator.bind):
            binds[self.name, int(raw.time_ms[0])] += 1
            return bind(self, raw, poi_params, grid)

        monkeypatch.setattr(alp.metrics.Evaluator, "bind", counted_bind)
        config = RunConfig(lppm_name="geo-i", seed=5,
                           schedule=AnnealingSchedule(t_min=0.5))
        report = run_online(three_day_dataset, config)
        assert len(binds) == 3 * len(report.rows) == 9
        assert set(binds.values()) == {1}

    @pytest.mark.parametrize("lppm, assignment", [("geo-i", {"epsilon": 0.01}),
                                                  ("promesse", {"alpha": 200.0})])
    def test_protected_is_one_trace_per_user(self, tmp_path, lppm, assignment):
        dataset = generate_synthetic_dataset(SynthSpec(users=2, days=2, pad_to_day_end=False,
                                                       sample_period_s=300.0, seed=23)).dataset
        report = run_online(dataset, RunConfig(lppm, static_assignment=assignment, seed=5))
        assert [trace.user for trace in report.protected] == ["u000", "u001"]
        batches = [batch for trace in dataset for _, batch in split_daily_batches(trace)]
        units = [applied(row.config, batch, RandomStream(5).child(row.user, row.day.isoformat(), "cost", "rep", 0))
                 for row, batch in zip(report.rows, batches, strict=True)]
        assert len(units) == 4
        expected = io.StringIO(newline="")
        csv_write_dataset(units, expected)
        path = write_dataset_csv(report.protected, tmp_path / "protected.csv")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


class TestFailingUnit:
    def test_online_names_the_user_and_day(self, three_day_dataset):
        config = RunConfig("promesse", static_assignment={"alpha": 1e-300})
        with pytest.raises(AlpError) as err:
            run_online(three_day_dataset, config)
        assert str(err.value) == "user 'u000', day 2024-01-01: Maximum allowed size exceeded"
        assert isinstance(err.value.__cause__, ValueError)

    def test_offline_names_the_user(self, trip_dataset, monkeypatch):
        import alp.pipeline

        def failing(*args):
            raise ConfigurationError("no bind")

        monkeypatch.setattr(alp.pipeline, "bind_evaluators", failing)
        with pytest.raises(AlpError) as err:
            run_offline(trip_dataset, RunConfig("geo-i"))
        assert str(err.value) == "user 'u000': no bind"
