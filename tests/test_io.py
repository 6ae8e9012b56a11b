"""The CSV loader's two readers: numpy's C reader, which reads a file only
where it gives exactly the row loop's result, and the row loop, the reference
(``csv.reader``, ``parse_timestamp_ms`` and ``float``). The generated texts
are in ``test_properties.py``; these are the named cases."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from alp import io as alp_io
from alp.geo import TIME_RANGE_MS
from alp.io import load_dataset, parse_timestamp_ms, write_dataset_csv
from alp.synth import SynthSpec, generate_synthetic_dataset

from conftest import load_outcome, row_loaded

HEADER = "user,timestamp,lat,lon\n"
EPOCH_EDGES = [10**11 - 1, 10**11, -(10**11 - 1), -(10**11),
               TIME_RANGE_MS[0], TIME_RANGE_MS[0] - 1, TIME_RANGE_MS[1], TIME_RANGE_MS[1] + 1,
               TIME_RANGE_MS[0] // 1000, TIME_RANGE_MS[0] // 1000 - 1,  # the lower end in seconds
               -(2**63), 2**63 - 1]


def _write(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _refuse(text):
    raise AssertionError(f"the row loop read {text!r}")


@pytest.fixture
def no_row_loop(monkeypatch):
    """Fail any read that reaches the row loop's timestamp parser."""
    monkeypatch.setattr(alp_io, "parse_timestamp_ms", _refuse)


class TestReadersAgree:
    @pytest.mark.parametrize("text", [
        HEADER + "u,1000,2\x1c,5\n",  # numpy reads 2, float() rejects it
        HEADER + "u,5\U00010112,45,5\n",  # numpy reads the digits as 65812
        HEADER + "u,1000,45,5\n" + "x" * 200_000 + ",2000,45,5\n",
        HEADER + "x" * 100_000 + "\x0b" + "x" * 100_000 + ",2000,45,5\n",  # one csv line
        HEADER + '"' + "x\n" * 100_000 + '",2000,45,5\n',  # a field of short lines
        HEADER + 'u,"' + " \n" * 100_000 + '2000",45,5\n',
        HEADER + "u,-9223372036854775808,45,5\n",  # no |t| < 1e11 by overflow
        HEADER + "u,9223372036854775808,45,5\n",
        HEADER + "u,1970-01-02T00:00:00Z,45,5\n",
        HEADER + ",1000,45,5\n \t,2000,45,5\n",
        HEADER + "u,1000,95,5\nu,2000,nan,5\nu,3000,45,-180\n",
        HEADER + "u,1000,45\n",
        "\ufeff" + HEADER + "u,1000,45,5\n",
        "User, Timestamp ,lat,lon\nu,1000,45,5\n",
        "user,timestamp,lat,lon\ru,1000,45,5\ru,2000,45,5\r",
        HEADER + '"",3000,45,5\n',
        HEADER + "u,1000,45,5x\n",
        HEADER + "v,1e0000000000000000000,45,5\n",
        HEADER + '"two\nlines",1000,45,5\n"cr\rlf",2000,45,5\n',
        HEADER + '"a,b",1000,45,5\n"say ""hi""",2000,45,5\n"""",3000,45,5\n"u",4000,45,5\n',
    ], ids=["information-separator", "aegean-digit", "oversized-field", "vertical-tab-in-a-long-line",
            "oversized-quoted-field", "oversized-quoted-timestamp", "int64-min", "int64-overflow",
            "iso-timestamp", "empty-users", "bad-coordinates", "three-fields", "bom", "loose-header",
            "lone-cr", "quoted-empty-user", "trailing-letter", "float-timestamp",
            "quoted-users-over-lines", "quoted-users"])
    def test_the_row_loop_decides(self, tmp_path, text):
        path = _write(tmp_path, text)
        assert alp_io._read_columns(path) is None
        assert load_outcome(load_dataset, path) == load_outcome(row_loaded, path)

    @pytest.mark.parametrize("text", [
        HEADER,
        HEADER + "\n\r\n\n",
        HEADER.rstrip("\n"),
    ], ids=["header-only", "blank-lines-only", "no-line-end"])
    def test_a_file_without_rows_warns_nothing(self, tmp_path, text):
        path = _write(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # np.loadtxt warns on a file without data
            assert load_outcome(load_dataset, path) == load_outcome(row_loaded, path) == []
        assert caught == []

    @pytest.mark.parametrize("text", [
        HEADER + "u,1000,45,5\n",
        HEADER + "u,1000,45,5",
        HEADER.replace("\n", "\r\n") + "u,1000,45,5\r\nu,2000,45.5,5.5\r\n",
        HEADER + "a,3000,1,1\n a ,1000,2,2\n\ta\t,2000,3,3\nb,1000,4,4\na,1000,5,5\n",
        HEADER + "u,1000,45,5\n\nu,2000,-0,-0.0\n\r\nv,+0100,.5,5.\n",
        HEADER + "u, 1000 ,\t45\t,\x0b5\x0c\n",
    ], ids=["single-row", "single-row-no-line-end", "crlf", "users-merged-by-strip",
            "blank-lines", "padded-fields"])
    def test_the_c_reader_reads_what_the_row_loop_reads(self, tmp_path, monkeypatch, text):
        path = _write(tmp_path, text)
        want = load_outcome(row_loaded, path)
        monkeypatch.setattr(alp_io, "parse_timestamp_ms", _refuse)
        assert load_outcome(load_dataset, path) == want


class TestFastPath:
    def test_a_synth_written_file_skips_the_row_loop(self, tmp_path, no_row_loop):
        syn = generate_synthetic_dataset(SynthSpec(users=3, days=1, seed=11, sample_period_s=300.0))
        path = write_dataset_csv(syn.dataset, tmp_path / "synth.csv")
        assert load_dataset(path) == syn.dataset

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd paths for pipes")
    @pytest.mark.parametrize("data", [
        (HEADER + "u,1000,45,5\nv,2000,45.5,5.5\nu,500,44,4\n").encode(),
        (HEADER + "u,1970-01-02T00:00:00Z,45,5\n").encode(),
        HEADER.encode() + b"u\xff,1000,45,5\n",
    ], ids=["c-reader-text", "row-loop-text", "bad-utf-8"])
    def test_a_pipe_reads_as_a_file_does(self, tmp_path, data):
        # A pipe can be read only once, as with --input <(zcat traces.csv.gz).
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, data)  # smaller than any pipe buffer
            os.close(write_fd)
            pipe = f"/dev/fd/{read_fd}"
            from_pipe = load_outcome(load_dataset, pipe)
        finally:
            os.close(read_fd)
        from_file = load_outcome(load_dataset, path)
        if isinstance(from_file, tuple):  # an error's message, which names the input, and problems
            from_pipe = (from_pipe[0].replace(pipe, str(path), 1), from_pipe[1])
        assert from_pipe == from_file

    def test_protect_imports_no_module_the_row_loop_did_not(self, tmp_path):
        # np.loadtxt given a path imports gzip; the loader hands it an open file.
        data = tmp_path / "d.csv"
        script = (
            "import sys\n"
            "from alp.cli import main\n"
            f"assert main(['synth', '--users', '1', '--sample-period', '600', '--out', {str(data)!r}]) == 0\n"
            "before = set(sys.modules)\n"
            f"assert main(['protect', '--input', {str(data)!r}, '--lppm', 'geo-i',"
            " '--param', 'epsilon=0.01']) == 0\n"
            "print('gzip' in sys.modules, *sorted(set(sys.modules) - before))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds this alp
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        gzip, *added = result.stdout.splitlines()[-1].split()
        assert gzip == "False"
        assert set(added) <= {"encodings.utf_8_sig"}  # the row loop's BOM-aware decoder


class TestEpochRule:
    @pytest.mark.parametrize("value", EPOCH_EDGES)
    def test_the_columns_read_an_epoch_as_parse_timestamp_ms_does(self, value):
        try:
            want = parse_timestamp_ms(str(value))
        except ValueError:
            want = None
        time_ms = alp_io._epoch_ms(np.array([value], dtype=np.int64))
        assert (int(time_ms[0]) if alp_io._in_time_range(time_ms)[0] else None) == want

    @pytest.mark.parametrize("value", EPOCH_EDGES)
    def test_a_file_of_each_edge_reads_as_the_row_loop_reads_it(self, tmp_path, value):
        path = _write(tmp_path, HEADER + f"u,{value},45,5\n")
        assert load_outcome(load_dataset, path) == load_outcome(row_loaded, path)
