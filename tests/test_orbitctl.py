"""Tests for the record format and the orbitctl command-line interface."""

import dataclasses
import json
import math
import os
import pathlib
import re
import shlex

import numpy as np
import pytest

import actionorbits as ao
from actionorbits import (
    OrbitRecord,
    RecordError,
    build_choreography,
    build_crisscross,
    build_cubic_family,
    designated_scale,
    export_table,
    load_record,
    make_record,
    record_to_model,
    save_record,
    verify_record,
)
from actionorbits import cli
from actionorbits.cli import main

TWO_PI = 2.0 * math.pi

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="session")
def circle_record(tmp_path_factory):
    """A converged two-body record produced through the CLI itself."""
    path = str(tmp_path_factory.mktemp("records") / "circle.json")
    assert main(["seed", "--family", "choreography", "--n", "2",
                 "--k-max", "9", "--out", path]) == 0
    assert main(["minimize", path]) == 0
    return path


def _tampered(path, tmp_path, edit):
    """Load raw JSON, apply ``edit``, and write it back unvalidated."""
    data = json.loads(open(path).read())
    edit(data)
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(data))
    return str(out)


def _exits_as_record_error(path, capsys):
    capsys.readouterr()
    for command in ("verify", "minimize", "export-table"):
        code = main([command, path, "--max-iters", "1"]
                    if command == "minimize" else [command, path])
        err = capsys.readouterr().err
        assert code == 1, command
        assert "record error:" in err, command


# builder models to re-tag as custom: a scalar generator read at three
# offsets, three coupled vector generators, one shared vector curve
CUSTOM_SOURCES = {
    "cubic-m3": lambda: build_cubic_family(3, k_max=9),
    "crisscross-123": lambda: build_crisscross((1.0, 2.0, 3.0), k_max=9),
    "choreography": lambda: build_choreography(3, k_max=9),
}


class TestRecordRoundTrip:
    def test_save_load_preserves_everything(self, circle, tmp_path):
        model, result = circle
        record = make_record(model, result.params, result,
                             ao.DescentSchedule.preconditioned(0.05))
        path = str(tmp_path / "orbit.json")
        save_record(record, path)
        loaded = load_record(path)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(record)
        assert loaded.converged
        assert loaded.outcome == "converged"
        assert loaded.descent["rule"] == "preconditioned"

    def test_no_stray_temp_files(self, circle, tmp_path):
        model, result = circle
        record = make_record(model, result.params, result)
        save_record(record, str(tmp_path / "orbit.json"))
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_model_rebuild_matches(self, circle, tmp_path):
        model, result = circle
        record = make_record(model, result.params, result)
        path = str(tmp_path / "orbit.json")
        save_record(record, path)
        model2, params2 = record_to_model(load_record(path))
        assert np.allclose(params2.values, result.params.values)
        t = np.linspace(0.0, TWO_PI, 13)
        assert np.allclose(ao.sample_positions(model2, params2, t),
                           ao.sample_positions(model, result.params, t))

    @pytest.mark.parametrize("name", list(CUSTOM_SOURCES))
    def test_custom_family_round_trips(self, name, tmp_path):
        # a model tagged custom is stored with its generators, bindings and
        # symmetries spelled out, and must come back sampling the same bytes
        model, params = CUSTOM_SOURCES[name]()
        model = dataclasses.replace(model, family=ao.Family(kind="custom"))
        rng = np.random.default_rng(11)
        params = params.with_values(params.values
                                    + 0.05 * rng.normal(size=len(params)))
        path = str(tmp_path / "custom.json")
        save_record(make_record(model, params), path)
        model2, params2 = record_to_model(load_record(path))
        assert model2.family.kind == "custom"
        t = np.linspace(0.0, TWO_PI, 13)
        assert (ao.sample_positions(model2, params2, t).tobytes()
                == ao.sample_positions(model, params, t).tobytes())
        assert len(model2.bindings) == len(model.bindings)
        for b2, b in zip(model2.bindings, model.bindings):
            assert (b2.generator, b2.phase, b2.mass) == (b.generator, b.phase,
                                                          b.mass)
            assert np.array_equal(b2.transform.matrix, b.transform.matrix)
        assert len(model2.symmetries) == len(model.symmetries)
        for s2, s in zip(model2.symmetries, model.symmetries):
            assert (s2.time_shift, s2.time_reversal) == (s.time_shift,
                                                          s.time_reversal)
            assert np.array_equal(s2.transform.matrix, s.transform.matrix)

    def test_invalid_save_leaves_no_file(self, circle, tmp_path):
        model, result = circle
        record = make_record(model, result.params, result)
        record.schema_version = 99
        with pytest.raises(RecordError):
            save_record(record, str(tmp_path / "bad.json"))
        assert os.listdir(tmp_path) == []


class TestRecordValidation:
    @pytest.fixture()
    def record_path(self, circle, tmp_path):
        model, result = circle
        path = str(tmp_path / "orbit.json")
        save_record(make_record(model, result.params, result), path)
        return path

    def test_unknown_field_rejected(self, record_path, tmp_path):
        bad = _tampered(record_path, tmp_path,
                        lambda d: d.update(surprise=1))
        with pytest.raises(RecordError, match="surprise"):
            load_record(bad)

    def test_missing_field_rejected(self, record_path, tmp_path):
        bad = _tampered(record_path, tmp_path,
                        lambda d: d.pop("values"))
        with pytest.raises(RecordError, match="values"):
            load_record(bad)

    def test_version_mismatch_rejected(self, record_path, tmp_path):
        bad = _tampered(record_path, tmp_path,
                        lambda d: d.update(schema_version=2))
        with pytest.raises(RecordError, match="schema version"):
            load_record(bad)

    def test_truncated_file_reports_byte_offset(self, record_path, tmp_path):
        raw = open(record_path).read()[:200]
        bad = tmp_path / "truncated.json"
        bad.write_text(raw)
        with pytest.raises(RecordError, match="byte offset"):
            load_record(str(bad))

    def test_non_object_rejected(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(RecordError, match="JSON object"):
            load_record(str(bad))

    def test_converged_requires_residual(self, record_path, tmp_path):
        bad = _tampered(record_path, tmp_path,
                        lambda d: d.update(residual=None))
        with pytest.raises(RecordError, match="residual"):
            load_record(bad)

    def test_converged_requires_certificate(self, record_path, tmp_path):
        bad = _tampered(record_path, tmp_path,
                        lambda d: d.update(residual=1e-3))
        with pytest.raises(RecordError, match="certificate"):
            load_record(bad)

    def test_values_must_be_finite(self, record_path, tmp_path):
        bad = _tampered(record_path, tmp_path,
                        lambda d: d["values"].__setitem__(0, None))
        with pytest.raises(RecordError, match="finite"):
            load_record(bad)

    @pytest.mark.parametrize("field, value", [
        ("k_max", 7.5), ("k_max", "7"), ("potential.alpha", "x"),
        ("values", 3), ("family", [1]), ("scale", math.nan),
        ("grad_norm", math.inf)])
    def test_malformed_field_is_record_error(self, tmp_path, capsys, field,
                                             value):
        seed = str(tmp_path / "seed.json")
        assert main(["seed", "--family", "cubic", "--m", "1", "--k-max", "9",
                     "--out", seed]) == 0

        def edit(d):
            *path, key = field.split(".")
            for name in path:
                d = d[name]
            d[key] = value

        bad = _tampered(seed, tmp_path, edit)
        _exits_as_record_error(bad, capsys)

    @pytest.mark.parametrize("family, key, value", [
        ("cubic", "m", 2), ("cubic", "m", 0), ("cubic", "m", True),
        ("cubic", "m", 1.0), ("crisscross", "masses", [1.0, -1.0, 1.0]),
        ("crisscross", "masses", [1, True, 1]),
        ("crisscross", "masses", "1,1,1"),
        ("choreography", "parity", "prime"), ("choreography", "parity", 1),
        ("choreography", "n", True), ("choreography", "n", 2.5)])
    def test_family_the_builder_refuses_is_record_error(
            self, tmp_path, capsys, family, key, value):
        # an edited family must not load as another orbit or exit as a
        # collision: it is a malformed record
        seed = str(tmp_path / "seed.json")
        size = {"cubic": ["--m", "1"], "choreography": ["--n", "2"]}
        assert main(["seed", "--family", family, *size.get(family, []),
                     "--k-max", "9", "--out", seed]) == 0
        bad = _tampered(seed, tmp_path,
                        lambda d: d["family"].__setitem__(key, value))
        _exits_as_record_error(bad, capsys)

    @pytest.mark.parametrize("source, edit", [
        ("cubic-m3", lambda f: f["generators"][0].pop("k_max")),
        ("cubic-m3", lambda f: f["generators"][0].__setitem__("k_max", 9.5)),
        ("cubic-m3", lambda f: f["generators"][0].__setitem__("offsets",
                                                              [0.0])),
        ("choreography", lambda f: f["generators"][0].pop("coords")),
        ("choreography", lambda f: f["generators"][0]["coords"].pop()),
        ("cubic-m3", lambda f: f.__setitem__("generators", {"a": 1})),
        ("cubic-m3", lambda f: f["bindings"][0].__setitem__("generator",
                                                            "0")),
        ("cubic-m3", lambda f: f["bindings"][0].__setitem__(
            "matrix", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])),
        ("cubic-m3", lambda f: f.__setitem__("bindings", [1])),
        ("cubic-m3", lambda f: f["symmetries"][0].__setitem__(
            "time_reversal", "yes"))],
        ids=["no-k_max", "float-k_max", "one-offset", "no-coords",
             "two-coords", "generators-object", "string-generator",
             "string-matrix", "int-binding", "string-time_reversal"])
    def test_malformed_custom_entry_is_record_error(self, tmp_path, capsys,
                                                    source, edit):
        # every generator, binding and symmetry of a custom family is
        # type-checked, so an edited one exits 1 and never as a traceback
        model, params = CUSTOM_SOURCES[source]()
        model = dataclasses.replace(model, family=ao.Family(kind="custom"))
        seed = str(tmp_path / "custom.json")
        save_record(make_record(model, params), seed)
        bad = _tampered(seed, tmp_path, lambda d: edit(d["family"]))
        _exits_as_record_error(bad, capsys)

    def test_custom_k_max_must_match_its_generators(self, tmp_path, capsys):
        # a custom record stores k_max beside its generators' own; an edited
        # one used to load and head the exported table as "# k_max: 99"
        model, params = CUSTOM_SOURCES["cubic-m3"]()
        model = dataclasses.replace(model, family=ao.Family(kind="custom"))
        seed = str(tmp_path / "custom.json")
        save_record(make_record(model, params), seed)
        bad = _tampered(seed, tmp_path, lambda d: d.__setitem__("k_max", 99))
        with pytest.raises(RecordError, match="k_max 99"):
            record_to_model(load_record(bad))
        _exits_as_record_error(bad, capsys)

    def test_length_mismatch_rejected(self, record_path, tmp_path):
        bad = _tampered(record_path, tmp_path,
                        lambda d: d["values"].append(0.0))
        with pytest.raises(RecordError, match="length"):
            load_record(bad)

    def test_family_layout_mismatch_rejected(self, record_path, tmp_path):
        def edit(d):
            # drop one slot/value pair: no longer the family's layout
            d["layout"]["slots"] = d["layout"]["slots"][:-1]
            d["values"] = d["values"][:-1]
            d["family"] = {"kind": "cubic", "m": 1}
            d["converged"] = False
            d["residual"] = None
        bad = _tampered(record_path, tmp_path, edit)
        with pytest.raises(RecordError):
            record_to_model(load_record(bad))


class TestVerifyRecord:
    def test_converged_record_verifies(self, circle, tmp_path):
        model, result = circle
        record = make_record(model, result.params, result)
        ok, recomputed = verify_record(record)
        assert ok
        assert recomputed == pytest.approx(record.residual, rel=1e-6)

    def test_understated_residual_fails(self, circle):
        model, result = circle
        record = make_record(model, result.params, result)
        record.residual = record.residual / 10.0
        record.converged = False  # keep the record structurally valid
        ok, _ = verify_record(record)
        assert not ok


class TestDesignatedScale:
    def test_cubic_uses_leading_sine(self):
        model, params = build_cubic_family(1, k_max=9)
        params = params.with_values(params.values * -0.37)
        assert designated_scale(model, params) == pytest.approx(-0.37)

    def test_crisscross_is_physical(self):
        model, params = build_crisscross(k_max=9)
        assert designated_scale(model, params) == 1.0


class TestExportTable:
    def test_cubic_table_is_normalized(self):
        model, params = build_cubic_family(1, k_max=9)
        params = params.with_values(params.values * 0.5)
        record = make_record(model, params)
        text = export_table(record)
        lines = text.strip().split("\n")
        assert lines[0] == "# family: cubic m=1"
        assert lines[1] == "# scale: 0.5"
        assert lines[2] == "# k_max: 9"
        assert lines[4].split() == ["k", "a"]
        first = lines[5].split()
        assert first == ["1", "1.00000"]
        assert len(lines) == 5 + 5  # harmonics 1..9

    def test_crisscross_table_has_three_columns(self):
        model, params = build_crisscross(k_max=9)
        record = make_record(model, params)
        lines = export_table(record).strip().split("\n")
        assert lines[4].split() == ["k", "a_1", "b_1", "a_3"]
        first = lines[5].split()
        assert first == ["1", "1.00000", "0.00000", "-1.00000"]

    def test_zero_scale_rejected(self):
        model, params = build_cubic_family(1, k_max=9)
        params = params.with_values(np.zeros(len(params)))
        record = make_record(model, params)
        with pytest.raises(RecordError, match="normalize"):
            export_table(record)


class TestCliSeed:
    def test_seed_writes_a_record(self, tmp_path, capsys):
        path = str(tmp_path / "seed.json")
        code = main(["seed", "--family", "cubic", "--m", "1",
                     "--k-max", "9", "--out", path])
        assert code == 0
        assert "family=cubic" in capsys.readouterr().out
        record = load_record(path)
        assert record.family == {"kind": "cubic", "m": 1}
        assert not record.converged

    def test_even_occupancy_exits_collision(self, tmp_path, capsys):
        code = main(["seed", "--family", "cubic", "--m", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "collision" in capsys.readouterr().err

    def test_cubic_without_m_is_usage_error(self, tmp_path, capsys):
        code = main(["seed", "--family", "cubic",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "--m" in capsys.readouterr().err

    def test_crisscross_mass_parsing(self, tmp_path):
        path = str(tmp_path / "cc.json")
        assert main(["seed", "--family", "crisscross", "--masses", "1:2:3",
                     "--k-max", "9", "--out", path]) == 0
        record = load_record(path)
        assert record.family["masses"] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("family", [["cubic", "--m", "1"], ["crisscross"]])
    def test_k_max_below_one_is_usage_error(self, tmp_path, capsys, family):
        code = main(["seed", "--family", *family, "--k-max", "0",
                     "--out", str(tmp_path / "x.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "k_max" in captured.err
        assert "Traceback" not in captured.err
        assert not os.path.exists(tmp_path / "x.json")

    def test_wrong_mass_count(self, tmp_path, capsys):
        code = main(["seed", "--family", "crisscross", "--masses", "1,2",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "three masses" in capsys.readouterr().err


class TestCliUsageErrors:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seed", "--family", "cubic", "--frob", "1"])
        assert exc.value.code == 1

    def test_perturb_takes_no_step_size(self, circle_record, capsys):
        # the tracker steps adaptively; a script still passing --dt must
        # fail loudly rather than have its step silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["perturb", circle_record, "--dx", "1e-4", "--dt", "0.01"])
        assert exc.value.code == 1
        assert "--dt" in capsys.readouterr().err

    def test_no_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_missing_record_file(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_record_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, ')
        code = main(["export-table", str(bad)])
        assert code == 1
        assert "byte offset" in capsys.readouterr().err

    def test_conflicting_schedules(self, circle_record, capsys):
        code = main(["minimize", circle_record, "--dtau", "1e-4",
                     "--table", "1=1e-3"])
        assert code == 1


class TestCliMinimize:
    def test_pipeline_converges(self, circle_record, capsys, tmp_path):
        # circle_record already ran seed + minimize; spot-check the output
        record = load_record(circle_record)
        assert record.converged
        assert record.residual <= ao.RESIDUAL_CERTIFICATE
        a = abs(record.values[0])
        assert a == pytest.approx(2.0 ** (-2.0 / 3.0), abs=1e-8)

    def test_iteration_budget_exhaustion_exits_four(self, circle_record,
                                                    tmp_path, capsys):
        out = str(tmp_path / "partial.json")
        # reset to the seed values first so it cannot converge in 3 steps
        seed = str(tmp_path / "seed.json")
        assert main(["seed", "--family", "choreography", "--n", "2",
                     "--k-max", "9", "--out", seed]) == 0
        code = main(["minimize", seed, "--max-iters", "3", "--out", out])
        assert code == 4
        record = load_record(out)
        assert record.outcome == "max_iters"
        assert not record.converged

    def test_custom_table_schedule(self, tmp_path, capsys):
        seed = str(tmp_path / "seed.json")
        assert main(["seed", "--family", "choreography", "--n", "2",
                     "--k-max", "5", "--out", seed]) == 0
        table = "1=0.02,3=0.002,5=8e-4"
        code = main(["minimize", seed, "--table", table])
        assert code == 0
        assert load_record(seed).converged

    @pytest.mark.parametrize("option", [
        ["--escape-radius", "-1"], ["--escape-radius", "0"],
        ["--escape-radius", "nan"], ["--grad-tol", "nan"],
        ["--grad-tol", "-1"], ["--max-iters", "-5"]], ids="=".join)
    def test_bad_stop_option_is_usage_error(self, circle_record, tmp_path,
                                            capsys, option):
        out = tmp_path / "out.json"
        code = main(["minimize", circle_record, *option, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "minimize:" not in captured.out
        assert not out.exists()

    def test_log_every_prints_progress_to_stderr(self, tmp_path, capsys):
        seed = str(tmp_path / "seed.json")
        assert main(["seed", "--family", "choreography", "--n", "2",
                     "--k-max", "5", "--out", seed]) == 0
        quiet, loud = str(tmp_path / "quiet.json"), str(tmp_path / "loud.json")
        capsys.readouterr()
        assert main(["minimize", seed, "--max-iters", "12",
                     "--out", quiet]) == 4
        plain = capsys.readouterr()
        assert main(["minimize", seed, "--max-iters", "12", "--out", loud,
                     "--log-every", "5"]) == 4
        logged = capsys.readouterr()
        # the same iterates through the library's callback, in the format
        # the progress lines have always had
        model, params = record_to_model(load_record(seed))
        grid = ao.QuadratureGrid.for_kmax(model.k_max)
        expected = []

        def keep(iteration, current, S, grad_norm):
            if iteration % 5 == 0:
                dist = ao.min_pair_distance(
                    ao.sample_positions(model, current, grid))
                expected.append(f"iter={iteration} S={S:.12e} "
                                f"grad_norm={grad_norm:.3e} min_dist={dist:.3e}")

        ao.run(model, params, stop=ao.StopRule(max_iters=12), callback=keep)
        assert [e.split()[0] for e in expected] == ["iter=0", "iter=5",
                                                    "iter=10"]
        assert logged.err.splitlines() == expected
        assert plain.err == ""
        assert logged.out.replace(loud, quiet) == plain.out
        assert (pathlib.Path(loud).read_bytes()
                == pathlib.Path(quiet).read_bytes())

    def test_minimize_overwrites_in_place(self, tmp_path):
        seed = str(tmp_path / "seed.json")
        assert main(["seed", "--family", "choreography", "--n", "2",
                     "--k-max", "9", "--out", seed]) == 0
        assert main(["minimize", seed]) == 0
        assert load_record(seed).converged


class TestReadmeQuickStart:
    def test_transcript_matches_the_cli(self, tmp_path, monkeypatch, capsys):
        # the CLI quick start: one sh block of commands, then the output
        # block they print, where a line "..." skips any number of lines
        section = README.read_text().split("## Quick start (CLI)")[1]
        commands, expected = re.findall(r"```\w*\n(.*?)```", section,
                                        re.S)[:2]
        monkeypatch.chdir(tmp_path)
        for line in commands.splitlines():
            program, *argv = shlex.split(line)
            assert program == "orbitctl"
            assert main(argv) == 0, line
        printed = capsys.readouterr().out.splitlines()
        at = 0
        for chunk in expected.rstrip("\n").split("\n...\n"):
            lines = chunk.splitlines()
            starts = [i for i in range(at, len(printed) - len(lines) + 1)
                      if printed[i:i + len(lines)] == lines]
            assert starts, f"README lines not printed in order: {lines}"
            at = starts[0] + len(lines)


class TestCliVerify:
    def test_converged_record_passes(self, circle_record, capsys):
        code = main(["verify", circle_record])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("ok") == 3

    def test_uncertified_record_fails(self, tmp_path, capsys):
        # cubic m=3 at k_max=27 stops on the gradient with a residual of
        # 2.6e-5, above the certificate, so minimize refuses to certify it
        path = str(tmp_path / "m3.json")
        assert main(["seed", "--family", "cubic", "--m", "3",
                     "--out", path]) == 0
        assert main(["minimize", path]) == 4
        capsys.readouterr()
        code = main(["verify", path])
        out = capsys.readouterr().out
        assert code == 4
        residual_line = out.splitlines()[0]
        assert "FAIL (exceeds the certificate 1.0e-05)" in residual_line

    @pytest.mark.parametrize("family", [
        ["--family", "choreography", "--n", "2"],
        ["--family", "cubic", "--m", "3"]], ids=["circle", "cubic-m3"])
    def test_seed_failing_the_certificate_skips_return_error(
            self, tmp_path, capsys, monkeypatch, family):
        # far from an orbit the adaptive return map crawls: the cubic m=3
        # seed kept it stepping for minutes, so verify must not start it
        def never(model, params):
            raise AssertionError("return_error ran on a failed residual")

        monkeypatch.setattr(cli, "return_error", never)
        seed = str(tmp_path / "seed.json")
        assert main(["seed", *family, "--k-max", "9", "--out", seed]) == 0
        capsys.readouterr()
        code = main(["verify", seed])
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL (exceeds the certificate" in out.splitlines()[0]
        assert out.splitlines()[-1] == ("return_error: not run "
                                        "(residual fails the certificate)")


class TestCliPerturb:
    def test_small_perturbation_is_bounded(self, circle_record, capsys):
        code = main(["perturb", circle_record, "--dz", "1e-4",
                     "--periods", "3"])
        assert code == 0
        assert "verdict=bounded" in capsys.readouterr().out

    def test_huge_perturbation_exits_three(self, circle_record, capsys,
                                           tmp_path):
        out = str(tmp_path / "section.txt")
        code = main(["perturb", circle_record, "--dx", "0.4",
                     "--envelope", "0.05", "--periods", "3",
                     "--out", out])
        assert code == 3
        assert "verdict=exited" in capsys.readouterr().out
        header = open(out).readline()
        assert header.startswith("# t x1 y1 z1")

    def test_body_index_out_of_range(self, circle_record, capsys):
        code = main(["perturb", circle_record, "--body", "9", "--dx", "1e-4"])
        assert code == 1

    def test_empty_horizon_is_usage_error(self, circle_record, capsys):
        code = main(["perturb", circle_record, "--dx", "0.5",
                     "--periods", "0"])
        assert code == 1
        assert "verdict" not in capsys.readouterr().out


    @pytest.mark.parametrize("argv", [
        ["perturb", "--dx", "1e-4", "--periods", "1", "--samples", "0"],
        ["perturb", "--dx", "1e-4", "--periods", "inf"],
        ["export-traj", "--stride", "0"],
        ["export-traj", "--dt", "0"],
        ["export-traj", "--dt", "-1"],
        ["export-traj", "--periods", "inf"],
        ["export-traj", "--dt", "1e-320", "--periods", "1"],
        ["perturb", "--dx", "1e-3", "--envelope", "nan"],
        ["perturb", "--dx", "1e-3", "--envelope", "-1"],
        ["perturb", "--dx", "nan"]])
    def test_bad_step_option_is_usage_error(self, circle_record, capsys,
                                            argv):
        command, *options = argv
        code = main([command, circle_record, *options])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "verdict" not in captured.out


class TestCliObserve:
    def test_column_layout(self, circle_record, capsys):
        assert main(["observe", circle_record, "--samples", "16"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "# t E Jx Jy Jz I I_eig1 I_eig2 I_eig3 Q_max"
        data = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
        assert data.shape == (16, 10)
        # energy is constant along a converged orbit
        assert np.ptp(data[:, 1]) < 1e-9

    def test_out_file(self, circle_record, tmp_path):
        out = str(tmp_path / "obs.txt")
        assert main(["observe", circle_record, "--samples", "8",
                     "--out", out]) == 0
        assert open(out).readline().startswith("# t E")


class TestCliExport:
    def test_export_table_stdout(self, circle_record, capsys):
        assert main(["export-table", circle_record]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# family: choreography n=2")
        assert "# scale:" in out

    def test_export_traj_columns(self, circle_record, capsys):
        assert main(["export-traj", circle_record, "--periods", "0.5",
                     "--dt", str(TWO_PI / 100), "--stride", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("# t x1 y1 z1 vx1 vy1 vz1")
        width = len(lines[1].split())
        assert width == 1 + 6 * 2 + 4
        for ln in lines[1:]:
            assert len(ln.split()) == width
