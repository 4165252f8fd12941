"""Tests for the ``glove`` command-line tool."""

import random

import pytest

from repro.cli import main
from repro.core import kernels


@pytest.fixture
def raw_csv(tmp_path):
    path = tmp_path / "raw.csv"
    code = main(
        ["generate", "synth-civ", "--users", "30", "--days", "2", "--seed", "4",
         "-o", str(path)]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_creates_file(self, raw_csv):
        assert raw_csv.exists()
        header = raw_csv.read_text().splitlines()[0]
        assert header == "uid,t_min,x_m,y_m"

    def test_rejects_unknown_preset(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "paris", "-o", str(tmp_path / "x.csv")])


class TestMeasure:
    def test_reports_statistics(self, raw_csv, capsys):
        assert main(["measure", str(raw_csv), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "2-gap" in out
        assert "radius of gyration" in out

    def test_k_too_large(self, raw_csv, capsys):
        assert main(["measure", str(raw_csv), "-k", "999"]) == 2


class TestAnonymizeAndAttack:
    def test_full_workflow(self, raw_csv, tmp_path, capsys):
        published = tmp_path / "published.csv"
        code = main(
            ["anonymize", str(raw_csv), "-k", "2",
             "--suppress", "15000", "360", "-o", str(published)]
        )
        assert code == 0
        assert published.exists()
        out = capsys.readouterr().out
        assert "anonymized" in out

        code = main(["attack", str(raw_csv), str(published), "-k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SAFE" in out

    def test_attack_flags_unsafe_publication(self, raw_csv, capsys):
        # "Publishing" the raw file itself must be flagged unsafe.
        code = main(["attack", str(raw_csv), str(raw_csv), "-k", "2"])
        out = capsys.readouterr().out
        assert code == 4
        assert "UNSAFE" in out

    def test_no_reshape_option(self, raw_csv, tmp_path):
        published = tmp_path / "pub2.csv"
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--no-reshape", "-o", str(published)]
        ) == 0


class TestInfo:
    def test_event_file(self, raw_csv, capsys):
        assert main(["info", str(raw_csv)]) == 0
        out = capsys.readouterr().out
        assert "fingerprint length" in out
        assert "minimum anonymity-set size: 1" in out
        tier = kernels.COMPILED_TIER or f"none ({kernels.FALLBACK_REASON})"
        assert f"kernel tier: {tier}\n" in out

    def test_published_file(self, raw_csv, tmp_path, capsys):
        published = tmp_path / "pub.csv"
        main(["anonymize", str(raw_csv), "-k", "2", "-o", str(published)])
        capsys.readouterr()
        assert main(["info", str(published)]) == 0
        out = capsys.readouterr().out
        assert "minimum anonymity-set size: 2" in out


#: Malformed event CSVs and where each error must point:
#: ``error: <path><where>``.
_MALFORMED = {
    "bad-header": ("a,b,c\n1,2,3\n", ": unexpected event CSV header"),
    "short-row": ("uid,t_min,x_m,y_m\nu1,0,1.0\n", ":2: "),
    "non-numeric": ("uid,t_min,x_m,y_m\nu1,0,1.0,2.0\nu1,abc,1.0,2.0\n", ":3: "),
    "nan": ("uid,t_min,x_m,y_m\nu1,0,nan,2.0\n", ": user u1: "),
    "empty": ("", ": empty file"),
    "header-only": ("uid,t_min,x_m,y_m\n", ": no rows"),
    "not-utf8": ("uid,t_min,x_m,y_m\nu\xe91,0,1.0,2.0\n", ": 'utf-8' codec"),
}

#: Every subcommand that reads a dataset file, with its other arguments.
_READING_COMMANDS = {
    "measure": ["-k", "2"],
    "anonymize": ["-k", "2", "-o", "{out}"],
    "stream": ["-k", "2", "--window", "180", "-o", "{out}"],
    "attack": ["{path}", "-k", "2"],
    "info": [],
}


class TestMalformedInput:
    """A malformed CSV exits 2 naming the file (and line), never a traceback."""

    @pytest.mark.parametrize("command", list(_READING_COMMANDS))
    @pytest.mark.parametrize("case", list(_MALFORMED))
    def test_exits_two_naming_the_file(self, tmp_path, capsys, case, command):
        text, where = _MALFORMED[case]
        path = tmp_path / f"{case}.csv"
        path.write_bytes(text.encode("latin-1"))
        extra = [
            arg.format(path=path, out=tmp_path / "out.csv")
            for arg in _READING_COMMANDS[command]
        ]
        with pytest.raises(SystemExit) as exc:
            main([command, str(path)] + extra)
        assert exc.value.code == 2
        assert f"error: {path}{where}" in capsys.readouterr().err


#: Every subcommand that needs k users, with its other arguments.
_NEEDS_K_USERS = {
    "measure": ["-k", "2"],
    "anonymize": ["-k", "2", "-o", "{out}"],
    "anonymize-sharded": ["-k", "2", "--backend", "sharded", "-o", "{out}"],
    "stream": ["-k", "2", "--window", "180", "-o", "{out}"],
    "attack": ["--method", "glove", "-k", "2"],
}


@pytest.mark.parametrize("case", list(_NEEDS_K_USERS))
def test_fewer_users_than_k_exits_two(tmp_path, capsys, case):
    # A well-formed file that cannot reach k: an input error, not a crash.
    path = tmp_path / "one-user.csv"
    path.write_text("uid,t_min,x_m,y_m\nu1,0,1.0,2.0\nu1,5,3.0,4.0\n")
    extra = [arg.format(out=tmp_path / "out.csv") for arg in _NEEDS_K_USERS[case]]
    assert main([case.split("-")[0], str(path)] + extra) == 2
    assert f"error: {path}: " in capsys.readouterr().err


#: A setting given NaN or infinity, and the name its error must give.
_NON_FINITE = {
    "suppress-nan": (["anonymize", "--suppress", "nan", "360"], "spatial_threshold_m"),
    "max-lag-inf": (["stream", "--window", "720", "--max-lag", "inf"], "max-lag"),
    "window-nan": (["stream", "--window", "nan"], "window"),
    "max-lag-nan": (["stream", "--window", "720", "--max-lag", "nan"], "max-lag"),
    "nwa-period-nan": (["anonymize", "--method", "nwa", "--period", "nan"], "period_min"),
    "grid-nan": (
        ["anonymize", "--method", "generalization", "--grid", "nan", "60"],
        "generalization bins",
    ),
    "w4m-delta-inf": (["anonymize", "--method", "w4m-lc", "--delta", "inf"], "delta_m"),
    "stream-suppress-nan": (
        ["stream", "--window", "720", "--suppress", "360", "nan"],
        "temporal_threshold_min",
    ),
    "feed-jitter-nan": (["stream", "--window", "720", "--feed-jitter", "nan"], "feed-jitter"),
}


@pytest.mark.parametrize("case", list(_NON_FINITE))
def test_non_finite_setting_exits_two_naming_it(raw_csv, tmp_path, capsys, case):
    # NaN fails every comparison, so a `<= 0` check lets it through to
    # the run, whose error then blames the input file.
    (command, *flags), setting = _NON_FINITE[case]
    try:
        code = main(
            [command, str(raw_csv), "-k", "2", *flags, "-o", str(tmp_path / "out.csv")]
        )
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {setting}" in err
    assert str(raw_csv) not in err


#: An integer setting below its range, and the name its error must give.
_OUT_OF_RANGE = {
    "measure-k-1": (["measure", "{raw}", "-k", "1"], "k"),
    "measure-k-0": (["measure", "{raw}", "-k", "0"], "k"),
    "attack-locations-0": (
        ["attack", "{raw}", "--method", "glove", "-k", "2", "--locations", "0"],
        "locations",
    ),
    "attack-points-negative": (
        ["attack", "{raw}", "--method", "glove", "-k", "2", "--points", "-1"],
        "points",
    ),
    "generate-users-0": (["generate", "synth-civ", "--users", "0", "-o", "{out}"], "users"),
    "generate-days-0": (["generate", "synth-civ", "--days", "0", "-o", "{out}"], "days"),
}


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
def test_out_of_range_integer_exits_two_naming_it(raw_csv, tmp_path, capsys, case):
    argv, setting = _OUT_OF_RANGE[case]
    out = tmp_path / "out.csv"
    try:
        code = main([arg.format(raw=raw_csv, out=out) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert f"error: {setting} must be at least" in capsys.readouterr().err
    assert not out.exists()


#: Well-formed inputs for the byte-mutation fuzz: four users, and their
#: k=2 publication.
_FUZZ_EVENTS = (
    "uid,t_min,x_m,y_m\n"
    "u1,361,612700.0,22300.0\nu1,529,612200.0,17200.0\nu1,663,612200.0,17200.0\n"
    "u2,12,1000.0,2000.0\nu2,70,1500.0,2500.0\nu2,900,400.0,0.0\n"
    "u3,300,611600.0,23000.0\nu3,700,611900.0,21000.0\n"
    "u4,20,1200.0,1900.0\nu4,880,600.0,100.0\nu4,1300,-50.5,7.25\n"
)
_FUZZ_FINGERPRINTS = (
    "uid,count,x,dx,y,dy,t,dt\n"
    "u1+u3,2,611600.000,1100.000,17200.000,5800.000,300.000,61.000\n"
    "u1+u3,2,611900.000,300.000,17200.000,3800.000,663.000,37.000\n"
    "u2+u4,2,1000.000,500.000,1900.000,600.000,12.000,58.000\n"
    "u2+u4,2,-50.500,650.500,0.000,100.000,880.000,420.000\n"
)

#: The fuzz's commands; ``{path}`` is the mutated file.
_FUZZ_COMMANDS = {
    "info": [],
    "measure": ["-k", "2"],
    "anonymize": ["-k", "2", "-o", "{out}"],
    "stream": ["-k", "2", "--window", "180", "-o", "{out}"],
    "attack": ["--method", "glove", "-k", "2"],
}


def _mutate(rng, text):
    """One byte deletion, insertion, truncation, duplicated line or
    swapped field pair."""
    data = text.encode()
    kind = rng.choice(["delete", "insert", "truncate", "duplicate", "swap"])
    pos = rng.randrange(len(data))
    if kind == "delete":
        return data[:pos] + data[pos + 1 :]
    if kind == "insert":
        return data[:pos] + bytes([rng.choice(b",\n.-+e9 x\"\xff\x00")]) + data[pos:]
    if kind == "truncate":
        return data[:pos]
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    if kind == "duplicate":
        return b"\n".join(lines[: i + 1] + lines[i:])
    fields = lines[i].split(b",")
    a, b = rng.randrange(len(fields)), rng.randrange(len(fields))
    fields[a], fields[b] = fields[b], fields[a]
    return b"\n".join(lines[:i] + [b",".join(fields)] + lines[i + 1 :])


@pytest.mark.parametrize(
    "kind,text",
    [("events", _FUZZ_EVENTS), ("fingerprints", _FUZZ_FINGERPRINTS)],
    ids=["events", "fingerprints"],
)
def test_byte_mutation_fuzz_exits_zero_or_two(tmp_path, capsys, kind, text):
    """Mutated inputs exit 0, or 2 naming the file: never a traceback or 3.

    A fixed seed and 40 mutants per file kind keep the run deterministic
    and bounded (200 runs a kind).
    """
    rng = random.Random(f"glove-cli-fuzz-{kind}")
    for n in range(40):
        path = tmp_path / f"{kind}-{n}.csv"
        path.write_bytes(_mutate(rng, text))
        for command, extra in _FUZZ_COMMANDS.items():
            argv = [command, str(path)]
            argv += [arg.format(out=tmp_path / "out.csv") for arg in extra]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 2), (argv, path.read_bytes(), err)
            assert "Traceback" not in err, (argv, err)
            if code == 2:
                assert f"error: {path}" in err, (argv, path.read_bytes(), err)


class TestComputeFlags:
    """The --backend / --workers / --chunk / --no-prune substrate flags."""

    def test_anonymize_backend_selection(self, raw_csv, tmp_path, capsys):
        if not kernels.COMPILED_AVAILABLE:
            pytest.skip("no accelerated kernel binding")
        outputs = {}
        for backend in ("numpy", "compiled", "auto"):
            published = tmp_path / f"pub-{backend}.csv"
            code = main(
                ["anonymize", str(raw_csv), "-k", "2",
                 "--backend", backend, "-o", str(published)]
            )
            assert code == 0
            outputs[backend] = published.read_text()
        # Backend choice must never change the published bytes.
        assert outputs["numpy"] == outputs["compiled"] == outputs["auto"]

    def test_anonymize_no_prune_identical(self, raw_csv, tmp_path, capsys):
        pruned = tmp_path / "pruned.csv"
        full = tmp_path / "full.csv"
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--backend", "numpy",
             "-o", str(pruned)]
        ) == 0
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--backend", "numpy",
             "--no-prune", "--chunk", "32", "-o", str(full)]
        ) == 0
        assert pruned.read_text() == full.read_text()

    def test_measure_accepts_backend(self, raw_csv, capsys):
        assert main(["measure", str(raw_csv), "-k", "2", "--backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "2-gap" in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--kernel-threads", "2"), ("--artifact-backend", "sqlite")],
        ids=["kernel-threads", "artifact-backend"],
    )
    def test_retired_flag_exits_2(self, raw_csv, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "-k", "2", flag, value,
                  "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestShardedBackend:
    """The sharded tier end-to-end through the CLI."""

    def test_anonymize_sharded_end_to_end(self, raw_csv, tmp_path, capsys):
        published = tmp_path / "pub-sharded.csv"
        code = main(
            ["anonymize", str(raw_csv), "-k", "2", "--backend", "sharded",
             "--shards", "3", "-o", str(published)]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["info", str(published)]) == 0
        out = capsys.readouterr().out
        assert "minimum anonymity-set size: 2" in out

    def test_single_shard_byte_identical_to_numpy(self, raw_csv, tmp_path):
        one_shard = tmp_path / "one-shard.csv"
        unsharded = tmp_path / "unsharded.csv"
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--backend", "sharded",
             "--shards", "1", "-o", str(one_shard)]
        ) == 0
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--backend", "numpy",
             "-o", str(unsharded)]
        ) == 0
        assert one_shard.read_bytes() == unsharded.read_bytes()

    def test_shard_strategy_flag(self, raw_csv, tmp_path):
        published = tmp_path / "pub-hash.csv"
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--backend", "sharded",
             "--shards", "2", "--shard-strategy", "hash", "-o", str(published)]
        ) == 0
        assert published.exists()

    def test_measure_accepts_sharded(self, raw_csv, capsys):
        assert main(["measure", str(raw_csv), "-k", "2", "--backend", "sharded"]) == 0
        out = capsys.readouterr().out
        assert "2-gap" in out


class TestPipelineFlags:
    """The --artifact-dir / --no-cache artifact-store flags."""

    def test_generate_accepts_scenario_name(self, tmp_path, capsys):
        # The "smoke" scenario is synth-civ at 30 users / 2 days / seed 4
        # — the exact scale of the raw_csv fixture.
        from_scenario = tmp_path / "scenario.csv"
        from_preset = tmp_path / "preset.csv"
        assert main(["generate", "smoke", "-o", str(from_scenario)]) == 0
        assert main(
            ["generate", "synth-civ", "--users", "30", "--days", "2", "--seed", "4",
             "-o", str(from_preset)]
        ) == 0
        assert from_scenario.read_bytes() == from_preset.read_bytes()

    def test_generate_flags_override_scenario(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        assert main(["generate", "smoke", "--users", "10", "-o", str(small)]) == 0
        uids = {line.split(",")[0] for line in small.read_text().splitlines()[1:]}
        assert 0 < len(uids) <= 10  # scenario's 30 users overridden

    def test_anonymize_artifact_dir_reuses_cache(self, raw_csv, tmp_path, capsys):
        store = tmp_path / "store"
        first = tmp_path / "pub1.csv"
        second = tmp_path / "pub2.csv"
        for out in (first, second):
            assert main(
                ["anonymize", str(raw_csv), "-k", "2",
                 "--artifact-dir", str(store), "-o", str(out)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()
        assert list(store.rglob("*.pkl"))  # the glove artifact landed

    def test_no_cache_writes_nothing_and_matches(self, raw_csv, tmp_path, monkeypatch):
        store = tmp_path / "store"
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(store))
        cached = tmp_path / "cached.csv"
        fresh = tmp_path / "fresh.csv"
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "-o", str(cached)]
        ) == 0
        populated = sorted(store.rglob("*.pkl"))
        assert populated
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--no-cache", "-o", str(fresh)]
        ) == 0
        assert cached.read_bytes() == fresh.read_bytes()
        # --no-cache must not have touched the store.
        assert sorted(store.rglob("*.pkl")) == populated

    def test_measure_accepts_pipeline_flags(self, raw_csv, tmp_path, capsys):
        assert main(
            ["measure", str(raw_csv), "-k", "2",
             "--artifact-dir", str(tmp_path / "store")]
        ) == 0
        assert "2-gap" in capsys.readouterr().out


class TestStream:
    """The ``glove stream`` subcommand end-to-end."""

    def test_windowed_run_end_to_end(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "windows.csv"
        code = main(
            ["stream", str(raw_csv), "-k", "2", "--window", "720",
             "--max-lag", "60", "-o", str(out)]
        )
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "streamed" in text
        assert "throughput" in text
        assert "window 0" in text

    def test_single_window_byte_identical_to_anonymize(self, raw_csv, tmp_path):
        streamed = tmp_path / "streamed.csv"
        batch = tmp_path / "batch.csv"
        assert main(
            ["stream", str(raw_csv), "-k", "2", "--window", "999999999",
             "--no-carry-over", "-o", str(streamed)]
        ) == 0
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "-o", str(batch)]
        ) == 0
        assert streamed.read_bytes() == batch.read_bytes()

    def test_single_window_byte_identical_on_sharded_backend(self, raw_csv, tmp_path):
        streamed = tmp_path / "streamed.csv"
        batch = tmp_path / "batch.csv"
        assert main(
            ["stream", str(raw_csv), "-k", "2", "--window", "999999999",
             "--no-carry-over", "--backend", "sharded", "-o", str(streamed)]
        ) == 0
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--backend", "sharded",
             "-o", str(batch)]
        ) == 0
        assert streamed.read_bytes() == batch.read_bytes()

    def test_published_windows_are_k_anonymous(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "windows.csv"
        assert main(
            ["stream", str(raw_csv), "-k", "2", "--window", "720",
             "--suppress", "15000", "360", "-o", str(out)]
        ) == 0
        capsys.readouterr()
        # Group counts survive the CSV round trip; every published
        # group hides at least 2 subscribers.
        from repro.cdr.io import read_fingerprints_csv

        published = read_fingerprints_csv(out)
        assert len(published) > 0
        assert all(fp.count >= 2 for fp in published)

    def test_under_populated_window_without_carry_exits_2(self, raw_csv, tmp_path, capsys):
        # 30 users cannot fill k=25 inside 6 h windows; without
        # carry-over this is a clean error, not a traceback.
        code = main(
            ["stream", str(raw_csv), "-k", "25", "--window", "360",
             "--no-carry-over", "-o", str(tmp_path / "x.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "carry-over" in err

    def test_sliding_and_jitter_flags(self, raw_csv, tmp_path):
        out = tmp_path / "sliding.csv"
        assert main(
            ["stream", str(raw_csv), "-k", "2", "--window", "720",
             "--slide", "360", "--max-lag", "30", "--feed-jitter", "15",
             "--feed-seed", "3", "-o", str(out)]
        ) == 0
        assert out.exists()


class TestStreamFlagValidation:
    """Invalid windowing flags must exit 2, like --workers/--shards."""

    @pytest.mark.parametrize("value", ["0", "-720"])
    def test_window_rejected(self, raw_csv, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["stream", str(raw_csv), "-k", "2", "--window", value,
                  "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "window must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-60"])
    def test_slide_rejected(self, raw_csv, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["stream", str(raw_csv), "-k", "2", "--window", "720",
                  "--slide", value, "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "slide must be positive" in capsys.readouterr().err

    def test_slide_exceeding_window_rejected(self, raw_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", str(raw_csv), "-k", "2", "--window", "360",
                  "--slide", "720", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "slide must not exceed window" in capsys.readouterr().err

    def test_negative_max_lag_rejected(self, raw_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", str(raw_csv), "-k", "2", "--window", "720",
                  "--max-lag", "-1", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "max-lag must be non-negative" in capsys.readouterr().err

    def test_negative_feed_jitter_rejected(self, raw_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", str(raw_csv), "-k", "2", "--window", "720",
                  "--feed-jitter", "-1", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "feed-jitter must be non-negative" in capsys.readouterr().err

    def test_stream_rejects_bad_compute_flags(self, raw_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", str(raw_csv), "-k", "2", "--window", "720",
                  "--workers", "0", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "workers must be at least 1" in capsys.readouterr().err


class TestMethodAxis:
    """The --method axis of the anonymize and attack subcommands."""

    def test_glove_method_byte_identical_to_default(self, raw_csv, tmp_path):
        implicit = tmp_path / "implicit.csv"
        explicit = tmp_path / "explicit.csv"
        assert main(["anonymize", str(raw_csv), "-k", "2", "-o", str(implicit)]) == 0
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "--method", "glove",
             "-o", str(explicit)]
        ) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_w4m_end_to_end(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "w4m.csv"
        code = main(
            ["anonymize", str(raw_csv), "-k", "2", "--method", "w4m-lc",
             "--delta", "2000", "--trash", "0.1", "-o", str(out)]
        )
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "W4M-LC" in text
        assert "created" in text

    def test_nwa_and_generalization_run(self, raw_csv, tmp_path):
        for method, extra in (("nwa", ["--period", "120"]),
                              ("generalization", ["--grid", "2500", "60"])):
            out = tmp_path / f"{method}.csv"
            assert main(
                ["anonymize", str(raw_csv), "--method", method, *extra,
                 "-o", str(out)]
            ) == 0
            assert out.exists()

    def test_attack_with_method_anonymizes_then_attacks(self, raw_csv, capsys):
        assert main(["attack", str(raw_csv), "--method", "glove", "-k", "2"]) == 0
        text = capsys.readouterr().out
        assert "GLOVE" in text and "SAFE" in text

    def test_attack_rejects_published_file_plus_method(self, raw_csv, capsys):
        code = main(["attack", str(raw_csv), str(raw_csv), "--method", "glove"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_attack_rejects_method_flags_with_published_file(self, raw_csv, capsys):
        # Method options only make sense when the attack anonymizes;
        # silently ignoring them against a published file would hide
        # user error.
        code = main(["attack", str(raw_csv), str(raw_csv), "--delta", "2000"])
        assert code == 2
        assert "--delta" in capsys.readouterr().err


class TestMethodFlagValidation:
    """Unknown --method and invalid per-method options exit 2."""

    def test_unknown_method_rejected(self, raw_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "--method", "gpu",
                  "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-2000"])
    def test_non_positive_delta_rejected(self, raw_csv, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "--method", "w4m-lc",
                  "--delta", value, "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "delta_m must be positive" in capsys.readouterr().err

    def test_invalid_trash_fraction_rejected(self, raw_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "--method", "nwa",
                  "--trash", "1.5", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "trash_fraction" in capsys.readouterr().err

    def test_non_positive_grid_rejected(self, raw_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "--method", "generalization",
                  "--grid", "0", "60", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_flag_of_other_method_rejected(self, raw_csv, tmp_path, capsys):
        # --period belongs to nwa; --suppress belongs to glove.
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "--method", "w4m-lc",
                  "--period", "30", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--period only applies" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "--method", "nwa",
                  "--suppress", "15000", "360", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--suppress only applies" in capsys.readouterr().err

    def test_attack_validates_method_options_too(self, raw_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", str(raw_csv), "--method", "w4m-lc", "--delta", "-1"])
        assert exc.value.code == 2
        assert "delta_m must be positive" in capsys.readouterr().err


class TestComputeFlagValidation:
    """Invalid substrate flags must exit 2 with a clear message."""

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_workers_rejected(self, raw_csv, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "-k", "2", "--workers", value,
                  "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_shards_rejected(self, raw_csv, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "-k", "2", "--backend", "sharded",
                  "--shards", value, "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "shards must be at least 1" in capsys.readouterr().err

    def test_unknown_shard_strategy_rejected(self, raw_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", str(raw_csv), "-k", "2", "--backend", "sharded",
                  "--shard-strategy", "geo", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_rejects_unknown_backend(self, raw_csv, tmp_path, capsys):
        for name in ("gpu", "process"):
            with pytest.raises(SystemExit) as exc:
                main(
                    ["anonymize", str(raw_csv), "-k", "2", "--backend", name,
                     "-o", str(tmp_path / "x.csv")]
                )
            assert exc.value.code == 2
            assert "compiled" in capsys.readouterr().err
