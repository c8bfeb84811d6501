import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pmqcc import rate_lower, rate_pmqcc
from pmqcc.cli import MAX_PARTIES, PROTOCOLS, _dump_json, _fields, _fmt, build_channel, build_protocol, main
from pmqcc.decoy import n_cut_for

TABLE_CONFIG = {
    "parties": 3,
    "distance_km": 50.0,
    "alpha_db_per_km": 0.2,
    "detector_efficiency": 0.65,
    "dark_count": 7.2e-8,
    "f": 1.16,
    "slices": 13,
    "mu": 0.1333,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRateCommand:
    def test_benchmark_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        code, out, _ = run_cli(["rate", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(2.6989e-7, rel=1e-3)
        assert payload["protocol"] == "pmqcc"
        assert len(payload["marginal_qbers"]) == 2
        assert not payload["clamped"]

    def test_floats_use_12_significant_digits(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        code, out, _ = run_cli(["rate", cfg], capsys)
        assert '"rate": 2.69891996567e-07' in out

    def test_sanity_two_party_zero_distance(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {**TABLE_CONFIG, "parties": 2, "distance_km": 0.0, "dark_count": 0.0, "slices": 14},
        )
        code, out, _ = run_cli(["rate", cfg], capsys)
        assert code == 0
        assert json.loads(out)["rate"] > 0.0

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "bogus_knob": 1})
        code, _, err = run_cli(["rate", cfg], capsys)
        assert code == 2
        assert "bogus_knob" in json.loads(err)["error"]["message"]

    def test_infinite_channel_value_exits_2(self, tmp_path, capsys):
        # an infinite loss at 0 km made eta NaN, which surfaced as a NaN
        # passed to binary_entropy; the config now fails as it is read
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "alpha_db_per_km": float("inf"), "distance_km": 0})
        code, out, err = run_cli(["rate", cfg], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "config numbers must be finite, got Infinity"

    @pytest.mark.parametrize("change,protocol", [
        pytest.param({"f": float("inf")}, "pmqcc", id="f"),
        pytest.param({"mu": float("inf")}, "pmqcc", id="mu"),
        pytest.param({"decoys": [float("inf"), 0.02, 0.001, 0]}, "decoy-lower", id="decoy"),
    ])
    def test_infinite_protocol_value_exits_2(self, tmp_path, capsys, change, protocol):
        # an infinite f was echoed as `inf`, which is not JSON, an infinite
        # mu surfaced as a NaN passed to binary_entropy, and an infinite
        # decoy as an OverflowError traceback; the records reject each one
        # too, but the config now fails as it is read
        cfg = write_config(tmp_path, {**TABLE_CONFIG, **change})
        code, out, err = run_cli(["rate", cfg, "--protocol", protocol], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "config numbers must be finite, got Infinity"

    @pytest.mark.parametrize("text, message", [
        pytest.param(None, "cannot read config {path}: [Errno 2]", id="no-file"),
        pytest.param('{"parties": 3,', "cannot read config {path}: Expecting", id="invalid-json"),
        pytest.param("[3, 50.0]", "config must be a JSON object", id="array"),
        pytest.param(json.dumps({k: v for k, v in TABLE_CONFIG.items() if k != "mu"}),
                     "config is missing required keys: ['mu']", id="missing-key"),
        # json.load reads NaN and overflowing literals as floats, and rate
        # echoed this unread key as nan or inf, which is not JSON
        pytest.param(json.dumps(TABLE_CONFIG)[:-1] + ', "mode": NaN}',
                     "config numbers must be finite, got NaN", id="nan"),
        pytest.param(json.dumps(TABLE_CONFIG)[:-1] + ', "mode": 1e400}',
                     "config numbers must be finite, got 1e400", id="overflowing-literal"),
        # json.load reads integer literals as ints, which ended in an
        # OverflowError traceback once converted to floats, or past 4300
        # digits in a plain ValueError from json.load itself
        *(pytest.param(json.dumps({**TABLE_CONFIG, key: value}).replace('"BIG"', digits),
                       f"config numbers must be finite, got an integer of {len(digits.lstrip('-'))} digits",
                       id=f"overflowing-integer-{name}")
          for name, key, value, digits in [
              ("mu", "mu", "BIG", "1" + "0" * 400),
              ("decoy", "decoys", ["BIG", 0.02, 0.001, 0], "1" + "0" * 400),
              ("distance", "distance_km", "BIG", "-1" + "0" * 400),
              ("parties", "parties", "BIG", "1" + "0" * 400),
              ("5000-digits", "mu", "BIG", "1" + "0" * 4999),
          ]),
    ])
    def test_config_that_cannot_be_read_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(["rate", str(path)], capsys)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(message.format(path=path))

    @pytest.mark.parametrize("parties", [1e30, 1e9, 100_001])
    def test_too_many_parties_exit_2(self, tmp_path, capsys, parties):
        # 1e30 ended in an OverflowError traceback, and 1e9 would have
        # needed ~160 GB; the cap fires before any branch is built
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "parties": parties})
        code, out, err = run_cli(["rate", cfg], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "ConfigError", "message": f"parties must be at most 100000, got {parties!r}",
        }

    def test_party_cap_admits_its_bound(self):
        assert build_protocol({**TABLE_CONFIG, "parties": MAX_PARTIES}).n_parties == 100_000

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "dark_count": 1.5})
        code, _, err = run_cli(["rate", cfg], capsys)
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("change,key", [
        pytest.param({"parties": 3.7}, "parties", id="fractional-parties"),
        pytest.param({"slices": 13.9}, "slices", id="fractional-slices"),
        pytest.param({"parties": "x"}, "parties", id="string-parties"),
        pytest.param({"decoys": 0.1}, "decoys", id="decoys-not-a-list"),
        pytest.param({"distance_km": "ten"}, "distance_km", id="string-distance"),
        # rate reads no seed, but every command checks the whole file
        pytest.param({"seed": 1.5}, "seed", id="fractional-seed"),
    ])
    def test_config_type_error_names_the_key(self, tmp_path, capsys, change, key):
        cfg = write_config(tmp_path, {**TABLE_CONFIG, **change})
        code, out, err = run_cli(["rate", cfg], capsys)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"{key} must be")

    def test_integral_floats_count_as_integers(self, tmp_path, capsys):
        # 3.0 and 13.0 are the integers 3 and 13; only the echoed config differs
        exact = run_cli(["rate", write_config(tmp_path, TABLE_CONFIG)], capsys)
        integral = run_cli(["rate", write_config(tmp_path, {**TABLE_CONFIG, "parties": 3.0,
                                                             "slices": 13.0})], capsys)
        assert integral[0] == exact[0] == 0
        drop_config = lambda out: {k: v for k, v in json.loads(out).items() if k != "config"}
        assert drop_config(integral[1]) == drop_config(exact[1])

    def test_decoy_lower_needs_four_intensities(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {**TABLE_CONFIG, "decoys": [0.0204583, 0.0182017, 9.27216e-5]}
        )
        code, _, err = run_cli(["rate", cfg, "--protocol", "decoy-lower"], capsys)
        assert code == 3
        assert "vacuum" in json.loads(err)["error"]["message"]

    def test_decoy_lower_anchor(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                **TABLE_CONFIG,
                "distance_km": 150.0,
                "mu": 0.104815,
                "decoys": [0.0204583, 0.0182017, 9.27216e-5, 0.0],
            },
        )
        code, out, _ = run_cli(["rate", cfg, "--protocol", "decoy-lower"], capsys)
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(1.7327e-11, rel=5e-3)

    def test_underflowing_decoys_exit_3(self, tmp_path, capsys):
        # the ladder's sign guard divided by an underflowed t_max**k, first
        # in a ZeroDivisionError traceback and then with exit 3; the rung
        # takes no such power, and these decoys certify a clamped 0
        cfg = write_config(tmp_path, {
            **TABLE_CONFIG, "parties": 6, "distance_km": 10.0, "mu": 0.1,
            "decoys": [1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 0.0],
        })
        code, out, err = run_cli(["rate", cfg, "--protocol", "decoy-lower"], capsys)
        assert (code, err) == (0, "")
        certified, exact = json.loads(out), json.loads(run_cli(["rate", cfg], capsys)[1])
        assert (certified["rate"], certified["clamped"]) == (0.0, True)
        assert certified["rate"] <= exact["rate"]

    @pytest.mark.parametrize("mu", [0.0857, 1e-3])
    def test_two_slices_exit_2(self, tmp_path, capsys, mu):
        # the closed-form misalignment is no probability at M = 2: this
        # point used to report a positive rate at pair QBER 0.99, and low mu
        # failed inside the marginal QBER
        cfg = write_config(
            tmp_path,
            {**TABLE_CONFIG, "parties": 2, "distance_km": 100.0, "mu": mu,
             "dark_count": 1e-4, "slices": 2},
        )
        code, out, err = run_cli(["rate", cfg], capsys)
        assert (code, out) == (2, "")
        assert "slice_count >= 3" in json.loads(err)["error"]["message"]

    def test_reduced_protocol(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "mu": 0.1059, "boundaries": ["right"]})
        code, out, _ = run_cli(["rate", cfg, "--protocol", "reduced"], capsys)
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(1.7060e-7, rel=1e-3)

    def test_each_protocol_prints_the_rate_its_row_names(self, tmp_path, capsys):
        # with both ends marked broken, only reduced reads them: pmqcc and
        # pmqcc-star rate the symmetric chain, decoy-lower bounds it
        cfg = {**GOLDEN_N3, "boundaries": ["left", "right"]}
        path = write_config(tmp_path, cfg)
        pp, ch = build_protocol(cfg), build_channel(cfg)
        expected = {
            "pmqcc": rate_pmqcc(pp, ch),
            "pmqcc-star": rate_pmqcc(pp, ch, sliced=False),
            "reduced": rate_pmqcc(pp, ch, boundaries=(True, True)),
            "decoy-lower": rate_lower(pp, ch),
        }
        assert set(expected) == set(PROTOCOLS)
        for protocol, report in expected.items():
            code, out, err = run_cli(["rate", path, "--protocol", protocol], capsys)
            assert (code, err) == (0, "")
            assert out == _dump_json({"protocol": protocol, **_fields(report), "config": cfg}) + "\n"
        assert 0.0 < expected["reduced"].rate < expected["pmqcc"].rate
        assert 0.0 < expected["decoy-lower"].rate < expected["pmqcc"].rate

    # t**2 at t = 2 mu = 1.4e154 overflows: rate ended in an OverflowError
    # traceback (exit 1), and curve aborted its whole run; t = 2e308 is
    # inf itself, and e^-t t^2 was nan (exit 2 from binary_entropy)
    @pytest.mark.parametrize("mu", [7e153, 1e308])
    def test_decoy_lower_past_the_float_range_of_the_poisson_weight(self, tmp_path, capsys, mu):
        cfg = write_config(tmp_path, {**GOLDEN_N3, "mu": mu})
        code, out, err = run_cli(["rate", cfg, "--protocol", "decoy-lower"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["rate"], payload["phase_error"]) == (0.0, 0.5)
        code, out, err = run_cli(["curve", cfg, "--protocol", "decoy-lower", "--l-min", "0",
                                  "--l-max", "100", "--l-step", "50"], capsys)
        assert (code, err) == (0, "")
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == [_fmt(0.0)] * 3

    def test_exits_cleanly_across_the_domain(self, tmp_path, capsys):
        # finite configs drawn far past the physical range: every protocol
        # computes a finite report or fails with a typed error (exit 2 or 3)
        rng = random.Random(2026)
        failures = []
        for _ in range(200):
            parties = rng.randint(2, 20)
            top, ratio = 10.0 ** rng.uniform(-6, 0), rng.uniform(0.05, 0.7)
            cfg = {
                **TABLE_CONFIG,
                "parties": parties,
                "mu": 10.0 ** rng.uniform(-300, 300),
                "slices": rng.randint(3, 64),
                "distance_km": rng.uniform(0.0, 1e5),
                "detector_efficiency": rng.uniform(0.01, 1.0),
                "dark_count": rng.uniform(0.0, 0.999),
                "decoys": [top * ratio**k for k in range(n_cut_for(parties) + 1)] + [0.0],
                "boundaries": rng.choice([[], ["left"], ["right"], ["left", "right"]]),
            }
            path = write_config(tmp_path, cfg)
            for protocol in PROTOCOLS:
                try:
                    code, out, _ = run_cli(["rate", path, "--protocol", protocol], capsys)
                except Exception as exc:
                    failures.append((protocol, cfg, repr(exc)))
                    continue
                if code not in (0, 2, 3) or "nan" in out or "inf" in out:
                    failures.append((protocol, cfg, code, out))
                elif code == 0 and not 0.0 <= json.loads(out)["gain"] <= 1.0:
                    failures.append((protocol, cfg, out))
        assert failures == []


class TestCurveCommand:
    def test_single_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        code, out, _ = run_cli(
            ["curve", cfg, "--l-min", "50", "--l-max", "50", "--l-step", "10"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L_km,rate,gain,qber_max,phase_error,mu,M,flag"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[1]) == pytest.approx(2.6989e-7, rel=1e-3)
        assert fields[7] == "ok"

    def test_round_trip_12_digits(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        _, out, _ = run_cli(
            ["curve", cfg, "--l-min", "40", "--l-max", "60", "--l-step", "10"], capsys
        )
        for line in out.strip().splitlines()[1:]:
            fields = line.split(",")
            for field in fields[:6]:
                value = float(field)
                assert f"{value:.11e}" == field
            assert fields[6] == str(int(fields[6]))  # M stays an integer

    def test_bad_range_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        code, _, _ = run_cli(
            ["curve", cfg, "--l-min", "80", "--l-max", "50", "--l-step", "10"], capsys
        )
        assert code == 2
        # non-finite bounds: an infinite l-max never ended the row loop, a NaN
        # l-step printed one row and a NaN l-min only the header, with exit 0
        for l_min, l_max, l_step in (("0", "inf", "10"), ("0", "50", "nan"), ("nan", "50", "10"),
                                     ("-inf", "50", "10"), ("0", "50", "inf")):
            code, out, err = run_cli(
                ["curve", cfg, f"--l-min={l_min}", f"--l-max={l_max}", f"--l-step={l_step}"], capsys
            )
            assert (code, out) == (2, "")
            assert json.loads(err)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("l_min,l_max,l_step,message", [
        ("0", "1e300", "1e280", "the distance range needs more than 100000 rows"),
        ("1e300", "1e300", "1", "an l-step of 1.0 leaves the distance 1e+300 unchanged"),
    ])
    def test_unbounded_row_count_exits_2(self, tmp_path, l_min, l_max, l_step, message):
        # both ran until they were killed: too many rows, and a step too
        # small to move the distance
        cfg = write_config(tmp_path, TABLE_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "pmqcc.cli", "curve", cfg,
             f"--l-min={l_min}", f"--l-max={l_max}", f"--l-step={l_step}"],
            capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert json.loads(proc.stderr)["error"] == {"type": "ConfigError", "message": message}

    @pytest.mark.parametrize("l_min,l_max,message", [
        ("0", "100000", "the distance range needs more than 100000 rows"),
        ("1e16", "2e16", "an l-step of 1.0 leaves the distance 1e+16 unchanged"),
    ])
    def test_row_guards_at_their_edges_exit_2(self, tmp_path, capsys, l_min, l_max, message):
        # in process, at each guard's edge: 100 001 rows of 1 km, and the
        # first power of ten where 1 km is below half an ulp of the distance
        cfg = write_config(tmp_path, TABLE_CONFIG)
        code, out, err = run_cli(["curve", cfg, "--l-min", l_min, "--l-max", l_max, "--l-step", "1"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "ConfigError", "message": message}

    @pytest.mark.parametrize("optimize,change,protocol", [
        pytest.param("none", {"mu": -0.1}, "pmqcc", id="negative-mu"),
        pytest.param("none", {"slices": 2}, "pmqcc", id="two-slices"),
        pytest.param("none", {"boundaries": "right"}, "pmqcc", id="boundaries-not-a-list"),
        pytest.param("signal", {"f": 0.5}, "pmqcc", id="signal-f-below-1"),
        pytest.param("signal", {"signal_phase_misalignment": 0.7}, "pmqcc", id="signal-misalignment"),
        pytest.param("signal", {"parties": 1}, "pmqcc", id="signal-one-party"),
        pytest.param("signal", {"decoys": [0.01, 0.02, 0.0]}, "decoy-lower",
                     id="signal-decoys-increasing"),
        pytest.param("signal", {"decoys": [0.02, 0.0, 0.01]}, "pmqcc", id="signal-decoys-inner-zero"),
        # rate rejects the channel before it looks at the decoy set
        pytest.param("none", {"detector_efficiency": 1.5, "decoys": [0.02, 0.01, 0.001]},
                     "decoy-lower", id="bad-detector-and-no-vacuum"),
        pytest.param("signal", {"detector_efficiency": 1.5, "decoys": [0.02, 0.01, 0.001]},
                     "decoy-lower", id="signal-bad-detector-and-no-vacuum"),
        # and the protocol and the channel before it parses the boundaries
        pytest.param("signal", {"f": 0.5, "boundaries": "right"}, "pmqcc",
                     id="signal-f-below-1-and-bad-boundaries"),
        pytest.param("signal", {"detector_efficiency": 1.5, "boundaries": "right"}, "pmqcc",
                     id="signal-bad-detector-and-bad-boundaries"),
        # values of the wrong type: a fractional integer used to be truncated
        # (N=3, M=13), the others ended in a traceback and exit 1
        pytest.param("none", {"parties": 3.7}, "pmqcc", id="fractional-parties"),
        pytest.param("signal", {"parties": 3.7}, "pmqcc", id="signal-fractional-parties"),
        pytest.param("none", {"slices": 13.9}, "pmqcc", id="fractional-slices"),
        pytest.param("none", {"parties": "x"}, "pmqcc", id="string-parties"),
        pytest.param("none", {"decoys": 0.1}, "pmqcc", id="decoys-not-a-list"),
        pytest.param("signal", {"decoys": [0.02, "0.01", 0.0]}, "decoy-lower",
                     id="signal-decoys-string-entry"),
        pytest.param("none", {"distance_km": "ten"}, "pmqcc", id="string-distance"),
        pytest.param("none", {"mu": True}, "pmqcc", id="boolean-mu"),
        # curve checked the slice count before the boundaries, rate after
        pytest.param("none", {"slices": 2, "boundaries": "right"}, "pmqcc",
                     id="two-slices-and-bad-boundaries"),
        # rate ran the decoy ladder (exit 3, decoys too close) before it
        # checked the slice count, curve the other way round
        pytest.param("none", {"slices": 2, "decoys": [0.02, 0.019999, 0.001, 0.0]}, "decoy-lower",
                     id="two-slices-and-close-decoys"),
        # optimize built no record of the config: it ran on these
        pytest.param("none", {"mu": float("inf")}, "pmqcc", id="infinite-mu"),
        pytest.param("signal", {"decoys": [0.01, 0.02, 0.0]}, "pmqcc",
                     id="signal-decoys-increasing-pmqcc"),
        # a branch gain above 1: rate printed "gain": 3.238 (exit 0), while
        # decoy-lower rejected its decoy gains
        pytest.param("none", {"dark_count": 0.9}, "pmqcc", id="dark-count-above-half"),
        pytest.param("none", {"dark_count": 0.9}, "decoy-lower", id="dark-count-above-half-decoy-lower"),
    ])
    def test_config_that_rate_rejects_exits_2(self, tmp_path, capsys, optimize, change, protocol):
        # this used to exit 0 with every row flagged error:ParameterError
        # (or error:ConfigError) and the message lost
        cfg = write_config(tmp_path, {**TABLE_CONFIG, **change})
        rate = run_cli(["rate", cfg, "--protocol", protocol], capsys)
        curve = run_cli(["curve", cfg, "--protocol", protocol, "--l-min", "0", "--l-max", "20",
                         "--l-step", "10", "--optimize", optimize], capsys)
        # the optimize target that reads what curve reads: the config's mu
        # and M unless the signal is searched
        objective = [] if protocol == "decoy-lower" else ["--protocol", protocol]
        target = "signal" if optimize == "signal" else "decoys"
        opt = run_cli(["optimize", cfg, "--target", target, *objective], capsys)
        assert rate[:2] == (2, "")
        assert curve == rate
        assert opt == rate

    @pytest.mark.parametrize("optimize", ["none", "signal"])
    @pytest.mark.parametrize("decoys, error", [
        pytest.param([0.0204583, 0.0182017, 9.27216e-5], "InsufficientIntensitiesError", id="no-vacuum"),
        pytest.param([0.0204583, 0.0182017, 0.0], "InsufficientIntensitiesError", id="two-nonzero"),
        pytest.param([0.02, 0.019999, 0.001, 0.0], "DegenerateGeometryError", id="close-decoys"),
        # e**1600 overflows at any distance.  t_max**28 underflowed and
        # t**162 overflowed in per-order sign guards, which rejected the
        # next two sets; the rung takes neither power, and each certifies
        # a clamped 0 (error None)
        pytest.param([1e-12, 5e-13, 1e-13, 0.0], None, id="tiny-decoys"),
        pytest.param([40.0, 30.0, 20.0, 0.0], None, id="power-overflow"),
        pytest.param([800.0, 700.0, 600.0, 0.0], "DegenerateGeometryError", id="exp-overflow"),
        # t_max = 6e-160 puts the rung's factor 2! * 2**1056 past the float range
        pytest.param([3e-160, 2e-160, 1e-160, 0.0], "DegenerateGeometryError", id="factor-overflow"),
    ])
    def test_decoy_set_that_rate_rejects_exits_3(self, tmp_path, capsys, optimize, decoys, error):
        # this used to exit 0 with every row flagged error:<type>
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "decoys": decoys})
        rate = run_cli(["rate", cfg, "--protocol", "decoy-lower"], capsys)
        curve = run_cli(["curve", cfg, "--protocol", "decoy-lower", "--l-min", "0", "--l-max", "20",
                         "--l-step", "10", "--optimize", optimize], capsys)
        # optimize runs no decoy-lower rate on the configured decoys (its
        # decoy target searches them): it accepts the config as rate does
        # under its own --protocol, pmqcc
        target = "signal" if optimize == "signal" else "decoys"
        opt = run_cli(["optimize", cfg, "--target", target], capsys)
        pmqcc = run_cli(["rate", cfg], capsys)
        assert (opt[0], opt[2]) == (pmqcc[0], pmqcc[2]) == (0, "")
        if error is None:
            assert (rate[0], rate[2], curve[0], curve[2]) == (0, "", 0, "")
            certified = json.loads(rate[1])
            assert (certified["rate"], certified["clamped"]) == (0.0, True)
            assert certified["rate"] <= json.loads(pmqcc[1])["rate"]
            assert [row.split(",")[1::6] for row in curve[1].splitlines()[1:]] == [
                ["0.00000000000e+00", "clamped"]] * 3
            return
        assert rate[:2] == (3, "")
        assert json.loads(rate[2])["error"]["type"] == error
        assert curve == rate

    def test_decoy_set_is_checked_before_the_boundaries(self, tmp_path, capsys):
        # rate --protocol decoy-lower never reads the boundaries
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "decoys": [0.0204583, 0.0182017, 9.27216e-5],
                                      "boundaries": "right"})
        rate = run_cli(["rate", cfg, "--protocol", "decoy-lower"], capsys)
        curve = run_cli(["curve", cfg, "--protocol", "decoy-lower", "--l-min", "0", "--l-max", "20",
                         "--l-step", "10", "--optimize", "signal"], capsys)
        assert rate[:2] == (3, "")
        assert curve == rate
        # so with a valid decoy set both run; the signal search of curve used
        # to parse the boundaries and exit 2
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "decoys": [0.0204583, 0.0182017, 9.27216e-5, 0.0],
                                      "boundaries": "right"})
        rate = run_cli(["rate", cfg, "--protocol", "decoy-lower"], capsys)
        curve = run_cli(["curve", cfg, "--protocol", "decoy-lower", "--l-min", "0", "--l-max", "20",
                         "--l-step", "10", "--optimize", "signal"], capsys)
        assert (rate[0], rate[2]) == (curve[0], curve[2]) == (0, "")
        assert [row.split(",")[-1] for row in curve[1].splitlines()[1:]] == ["ok"] * 3

    def test_distance_dependent_error_keeps_row_flag(self, tmp_path, capsys):
        # without dark counts the signal gain vanishes once eta underflows,
        # so the decoy bound is undefined at that distance alone
        cfg = write_config(tmp_path, {
            **TABLE_CONFIG, "dark_count": 0.0, "mu": 0.104815,
            "decoys": [0.0204583, 0.0182017, 9.27216e-5, 0.0],
        })
        code, out, err = run_cli(["curve", cfg, "--protocol", "decoy-lower", "--l-min", "0",
                                  "--l-max", "100000", "--l-step", "100000"], capsys)
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert rows[0].endswith(",13,ok")
        assert rows[1].endswith(",0,error:ParameterError")

    def test_ill_conditioned_rung_keeps_row_flag(self, tmp_path, capsys):
        # the Y_4 rung cancels 1.1e9-fold at 200 km, where a cancellation
        # guard used to flag the row error:DegenerateGeometryError; its
        # rounding term now leaves no rate there, and the 0 km row certifies
        cfg = write_config(tmp_path, {
            **TABLE_CONFIG, "parties": 5, "mu": 0.1,
            "decoys": [0.005, 0.00495, 0.0049005, 0.004851495, 0.00480298, 0.0],
        })
        code, out, err = run_cli(["curve", cfg, "--protocol", "decoy-lower", "--l-min", "0",
                                  "--l-max", "200", "--l-step", "200"], capsys)
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert rows[0].endswith(",13,ok")
        assert rows[1].startswith("2.00000000000e+02,0.00000000000e+00,")
        assert rows[1].endswith(",13,clamped")

    def test_optimized_point_matches_benchmark(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {k: v for k, v in TABLE_CONFIG.items() if k not in ("mu", "slices")})
        code, out, _ = run_cli(
            ["curve", cfg, "--l-min", "50", "--l-max", "50", "--l-step", "10",
             "--optimize", "signal"],
            capsys,
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[1]) == pytest.approx(2.6989e-7, rel=2e-3)
        assert fields[6] == "13"

    def test_optimized_curve_matches_benchmark_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {k: v for k, v in TABLE_CONFIG.items() if k not in ("mu", "slices")})
        _, out, _ = run_cli(
            ["curve", cfg, "--l-min", "50", "--l-max", "150", "--l-step", "50",
             "--optimize", "signal"],
            capsys,
        )
        reference = {50.0: 2.6989e-7, 100.0: 2.5332e-9, 150.0: 2.2928e-11}
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        for fields in rows:
            assert float(fields[1]) == pytest.approx(reference[float(fields[0])], rel=3e-2)

    def test_decoy_lower_curve_keeps_config_decoys(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {**{k: v for k, v in TABLE_CONFIG.items() if k not in ("mu", "slices")},
             "decoys": [0.0204583, 0.0182017, 9.27216e-5, 0.0]},
        )
        code, out, _ = run_cli(
            ["curve", cfg, "--l-min", "150", "--l-max", "150", "--l-step", "10",
             "--protocol", "decoy-lower", "--optimize", "signal"],
            capsys,
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert fields[7] == "ok"
        assert float(fields[1]) > 0.0

    @pytest.mark.parametrize("protocol", ["pmqcc", "pmqcc-star", "reduced"])
    def test_decoy_optimization_needs_decoy_lower(self, tmp_path, capsys, protocol):
        cfg = write_config(tmp_path, GOLDEN_N3)
        code, out, err = run_cli(
            ["curve", cfg, "--l-min", "50", "--l-max", "50", "--l-step", "10",
             "--protocol", protocol, "--optimize", "signal+decoys"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ConfigError"

    def test_four_party_curve_slope(self, tmp_path, capsys):
        from pmqcc import scaling_exponent

        cfg = write_config(
            tmp_path,
            {**{k: v for k, v in TABLE_CONFIG.items() if k not in ("mu", "slices")}, "parties": 4},
        )
        _, out, _ = run_cli(
            ["curve", cfg, "--l-min", "50", "--l-max", "150", "--l-step", "50",
             "--optimize", "signal"],
            capsys,
        )
        points = []
        for line in out.strip().splitlines()[1:]:
            fields = line.split(",")
            points.append((float(fields[0]), float(fields[1])))
        assert scaling_exponent(points) == pytest.approx(-0.060, abs=0.003)


class TestSimulateCommand:
    CONFIG = {
        "parties": 3,
        "distance_km": 10.0,
        "alpha_db_per_km": 0.2,
        "detector_efficiency": 0.65,
        "dark_count": 7.2e-8,
        "slices": 14,
        "mu": 0.1333,
        "seed": 99,
        "rounds": 120_000,
        "mode": "forced-matching",
    }

    def test_byte_identical_runs_and_workers(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        _, out1, _ = run_cli(["simulate", cfg], capsys)
        _, out2, _ = run_cli(["simulate", cfg], capsys)
        _, out3, _ = run_cli(["simulate", cfg, "--workers", "4"], capsys)
        assert out1 == out2 == out3

    def test_sigma_distances_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        code, out, _ = run_cli(["simulate", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["tally"]["success"] > 0
        assert payload["comparison"]["gain"]["sigma"] <= 3.0
        for m in ("2", "3"):
            assert payload["comparison"]["pair_qber"][m]["sigma"] <= 3.0

    def test_analytic_pair_qbers_are_exact(self, tmp_path, capsys):
        # adjacent branches share a party's in-slice phase, so the pair
        # QBERs are not those of independent branches (about 2 % off here)
        from tests.transfer_matrix import expected_tally

        cfg = write_config(tmp_path, {**self.CONFIG, "parties": 5, "distance_km": 0.0,
                                      "slices": 4, "mu": 0.3, "rounds": 20_000})
        code, out, _ = run_cli(["simulate", cfg], capsys)
        assert code == 0
        comparison = json.loads(out)["comparison"]
        expect = expected_tally(5, 0.65 * 0.3, 7.2e-8, 4, k=2048)
        assert comparison["gain"]["analytic"] == pytest.approx(expect["success"], rel=1e-6)
        for p, q in expect["pair_error"].items():
            assert comparison["pair_qber"][str(p)]["analytic"] == pytest.approx(q, rel=1e-6)

    def test_out_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        out_path = tmp_path / "tally.json"
        code, out, _ = run_cli(["simulate", cfg, "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        payload = json.loads(out_path.read_text())
        assert payload["tally"]["sent"] == self.CONFIG["rounds"]

    def test_zero_successes_exit_3(self, tmp_path, capsys):
        # no dark counts and ~7e-9 photons per branch: no round succeeds,
        # so the tally has no gain or pair QBERs to compare
        cfg = write_config(tmp_path, {**self.CONFIG, "distance_km": 100.0, "mu": 1e-6,
                                      "dark_count": 0.0, "rounds": 1000})
        code, out, err = run_cli(["simulate", cfg], capsys)
        assert (code, out) == (3, "")
        assert err == (
            '{\n  "error": {\n    "message": "tally holds no successful events to estimate from",\n'
            '    "type": "InsufficientDataError"\n  }\n}\n'
        )

    def test_more_than_32_parties_exit_2(self, tmp_path, capsys):
        # up to the config's own cap, simulate names its 32-party limit
        for parties in (33, 70, 100_000):
            cfg = write_config(tmp_path, {**self.CONFIG, "parties": parties, "slices": 56})
            code, out, err = run_cli(["simulate", cfg], capsys)
            assert code == 2 and out == ""
            assert "at most 32 parties" in err


@pytest.mark.parametrize(
    "command",
    [
        ["rate"],
        ["curve", "--l-min", "0", "--l-max", "20", "--l-step", "10"],
        ["optimize", "--target", "signal"],
        ["simulate"],
    ],
    ids=["rate", "curve", "optimize", "simulate"],
)
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path, {**TABLE_CONFIG, "distance_km": 0.0, "slices": 14, "seed": 7, "rounds": 20_000}
    )
    out_path = tmp_path / "missing" / "result.txt"
    code, out, err = run_cli([command[0], cfg, *command[1:], "--out", str(out_path)], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert str(out_path) in error["message"]


@pytest.mark.parametrize(
    "command",
    [
        ["rate"],
        ["curve", "--l-min", "0", "--l-max", "20", "--l-step", "10"],
        ["optimize", "--target", "signal"],
        ["simulate"],
    ],
    ids=["rate", "curve", "optimize", "simulate"],
)
def test_overflowing_party_count_exits_2(tmp_path, capsys, command):
    # rate, curve and optimize ended in an OverflowError traceback, and
    # simulate in its own 32-party message
    cfg = write_config(tmp_path, {**TABLE_CONFIG, "parties": 1e30, "seed": 7, "rounds": 20_000})
    code, out, err = run_cli([command[0], cfg, *command[1:]], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "ConfigError", "message": "parties must be at most 100000, got 1e+30",
    }


class TestOptimizeCommand:
    def test_signal_target(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {k: v for k, v in TABLE_CONFIG.items() if k not in ("mu", "slices")}
        )
        code, out, _ = run_cli(["optimize", cfg, "--target", "signal"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["M"] == 13
        assert payload["mu"] == pytest.approx(0.1333, abs=5e-3)

    def test_decoy_search_at_eighteen_parties_exits_0(self, tmp_path, capsys):
        # N=18 needs 19 decoys; a geometric decoy set has any length,
        # and at 50 km no decoy set certifies a positive rate
        cfg = write_config(tmp_path, {**TABLE_CONFIG, "parties": 18})
        code, out, err = run_cli(["optimize", cfg, "--target", "decoys"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["flagged_zero"] is True
        code, out, err = run_cli(["curve", cfg, "--protocol", "decoy-lower", "--l-min", "0",
                                  "--l-max", "0", "--l-step", "10", "--optimize", "signal+decoys"], capsys)
        assert (code, err) == (0, "")
        # the decoy search failed: the row keeps the signal search's optimum
        at_0_km = write_config(tmp_path, {**TABLE_CONFIG, "parties": 18, "distance_km": 0.0}, "at0.json")
        signal = json.loads(run_cli(["optimize", at_0_km, "--target", "signal"], capsys)[1])
        assert out.splitlines()[1].split(",") == [
            *[_fmt(0.0)] * 5, _fmt(signal["mu"]), str(signal["M"]), "infeasible"
        ]

    @pytest.mark.parametrize("protocol,optimize", [
        ("pmqcc", "signal"), ("decoy-lower", "signal"), ("decoy-lower", "signal+decoys"),
    ])
    def test_failed_signal_search_gives_a_zero_row(self, tmp_path, capsys, protocol, optimize):
        cfg = write_config(tmp_path, GOLDEN_N3)
        code, out, err = run_cli(["curve", cfg, "--protocol", protocol, "--l-min", "10000",
                                  "--l-max", "10000", "--l-step", "10", "--optimize", optimize], capsys)
        assert (code, err) == (0, "")
        # no mu or M is known: the row prints 0 for both
        assert out.splitlines()[1].split(",") == [_fmt(10000), *[_fmt(0)] * 5, "0", "infeasible"]

    @pytest.mark.parametrize("protocol", ["reduced", "pmqcc-star"])
    def test_decoy_search_refuses_what_it_cannot_certify(self, tmp_path, capsys, protocol):
        # the search certifies the symmetric pmqcc chain: these protocols
        # used to print the bytes of --protocol pmqcc
        cfg = write_config(tmp_path, {**GOLDEN_N3, "distance_km": 150.0, "mu": 0.104815,
                                      "boundaries": ["left", "right"]})
        code, out, err = run_cli(["optimize", cfg, "--target", "decoys", "--protocol", protocol], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ConfigError"
        assert run_cli(["optimize", cfg, "--target", "decoys"], capsys)[0] == 0

    def test_infeasible_flagged_zero_exit_0(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {**{k: v for k, v in TABLE_CONFIG.items() if k not in ("mu", "slices")},
             "distance_km": 10_000.0},
        )
        code, out, _ = run_cli(["optimize", cfg, "--target", "signal"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["flagged_zero"] is True
        assert payload["best_rate"] == 0.0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "pmqcc.cli", "rate", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rate"] == pytest.approx(2.6989e-7, rel=1e-3)

    @pytest.mark.parametrize("command", [
        ["rate"],
        ["curve", "--l-min", "50", "--l-max", "50", "--l-step", "10", "--optimize", "signal"],
        ["simulate"],
    ])
    def test_leaves_scipy_unimported(self, tmp_path, command):
        assert loaded_after(tmp_path, command, "scipy") == []

    @pytest.mark.parametrize("command", [
        [],
        ["rate", "--protocol", "pmqcc"],
        ["rate", "--protocol", "pmqcc-star"],
        ["rate", "--protocol", "reduced"],
        ["curve", "--l-min", "50", "--l-max", "50", "--l-step", "10", "--optimize", "signal"],
        ["optimize", "--target", "signal"],
        ["simulate"],
        ["rate", "--protocol", "decoy-lower"],
        ["optimize", "--target", "decoys"],
        ["curve", "--protocol", "decoy-lower", "--l-min", "50", "--l-max", "50", "--l-step", "10",
         "--optimize", "signal+decoys"],
    ], ids=["import", "rate-pmqcc", "rate-pmqcc-star", "rate-reduced", "curve-signal",
            "optimize-signal", "simulate", "rate-decoy-lower", "optimize-decoys",
            "curve-signal+decoys"])
    def test_leaves_numpy_unimported(self, tmp_path, command):
        assert loaded_after(tmp_path, command, "numpy") == []

    def test_import_loads_no_layer(self, tmp_path):
        assert loaded_after(tmp_path, [], "pmqcc") == ["pmqcc"]

    def test_submodule_attribute_loads_that_layer(self):
        # no import statement names the submodule: pmqcc.__getattr__ loads it
        code = ("import json, sys, pmqcc; assert pmqcc.montecarlo is sys.modules['pmqcc.montecarlo'];"
                " print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'pmqcc')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["pmqcc", "pmqcc.core", "pmqcc.montecarlo"]

    @pytest.mark.parametrize("protocol", ["pmqcc", "pmqcc-star", "reduced"])
    def test_rate_loads_only_the_rate_layers(self, tmp_path, protocol):
        assert loaded_after(tmp_path, ["rate", "--protocol", protocol], "pmqcc") == [
            "pmqcc", "pmqcc.cli", "pmqcc.core", "pmqcc.interference", "pmqcc.keyrate"
        ]

    @pytest.mark.parametrize("command", [
        ["optimize", "--target", "signal"],
        ["curve", "--l-min", "50", "--l-max", "50", "--l-step", "10", "--optimize", "signal"],
        ["curve", "--protocol", "reduced", "--l-min", "50", "--l-max", "50", "--l-step", "10",
         "--optimize", "signal"],
    ], ids=["optimize-signal", "curve-signal", "curve-reduced-signal"])
    def test_signal_search_loads_no_decoy_layer(self, tmp_path, command):
        assert loaded_after(tmp_path, command, "pmqcc") == [
            "pmqcc", "pmqcc.cli", "pmqcc.core", "pmqcc.interference", "pmqcc.keyrate", "pmqcc.optimize"
        ]

    def test_simulate_loads_only_the_simulator_layers(self, tmp_path):
        assert loaded_after(tmp_path, ["simulate"], "pmqcc") == [
            "pmqcc", "pmqcc.cli", "pmqcc.core", "pmqcc.montecarlo"
        ]

    @pytest.mark.parametrize("command", [
        ["rate", "--protocol", "pmqcc"],
        ["rate", "--protocol", "decoy-lower"],
        ["curve", "--l-min", "50", "--l-max", "50", "--l-step", "10"],
        ["curve", "--protocol", "decoy-lower", "--l-min", "50", "--l-max", "50", "--l-step", "10",
         "--optimize", "signal+decoys"],
        ["optimize", "--target", "signal"],
        ["optimize", "--target", "decoys"],
        ["simulate", "--workers", "2"],
        ["simulate-heavy", "--workers", "2"],
    ], ids=["rate", "rate-decoy-lower", "curve", "curve-signal+decoys", "optimize-signal",
            "optimize-decoys", "simulate", "simulate-heavy"])
    def test_leaves_dataclasses_unimported(self, tmp_path, command):
        # nor inspect, which records do not need to write their __init__;
        # numpy imports it itself, so the numpy kernel's run is not asked
        packages = ["dataclasses"] if command[0] == "simulate-heavy" else ["dataclasses", "inspect"]
        for package in packages:
            assert loaded_beyond_startup(tmp_path, command, package) == []

    def test_thread_pool_only_for_the_numpy_kernel(self, tmp_path):
        assert loaded_beyond_startup(tmp_path, ["simulate", "--workers", "2"], "concurrent") == []
        # the probe sees the pool where the numpy kernel starts one
        heavy = loaded_after(tmp_path, ["simulate-heavy", "--workers", "2"], "concurrent")
        assert "concurrent.futures" in heavy


def loaded_beyond_startup(tmp_path, command: list, package: str) -> list:
    """``loaded_after`` less the modules that ``python -c pass`` loads
    (through ``site``, say), which no command can be blamed for."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, check=True,
    )
    startup = set(proc.stdout.split())
    return [m for m in loaded_after(tmp_path, command, package) if m not in startup]


# the decoy-lower anchor: a decoy set the estimator accepts, 150 km
DECOY_CONFIG = {
    **TABLE_CONFIG, "distance_km": 150.0, "mu": 0.104815,
    "decoys": [0.0204583, 0.0182017, 9.27216e-5, 0.0],
}


# above the numpy kernel's threshold: ~167 000 expected candidates at N=4
HEAVY_SIMULATE_CONFIG = {
    **TestSimulateCommand.CONFIG, "parties": 4, "distance_km": 0.0, "detector_efficiency": 1.0,
    "dark_count": 0.01, "slices": 2, "mu": 3.0, "rounds": 200_000, "mode": "full-random",
}


def loaded_after(tmp_path, command: list, package: str) -> list:
    """Modules of ``package`` loaded in a fresh interpreter after
    ``import pmqcc`` and, unless ``command`` is empty, after running that
    command on a config that it accepts (``simulate-heavy`` is ``simulate``
    on a config that takes the numpy kernel)."""
    if command[:1] == ["simulate"]:
        config = TestSimulateCommand.CONFIG
    elif command[:1] == ["simulate-heavy"]:
        command = ["simulate", *command[1:]]
        config = HEAVY_SIMULATE_CONFIG
    elif any("decoy" in arg for arg in command):
        config = DECOY_CONFIG
    else:
        config = TABLE_CONFIG
    lines = ["import json", "import sys", "import pmqcc"]
    if command:
        argv = [command[0], write_config(tmp_path, config), *command[1:], "--out", str(tmp_path / "out")]
        lines += ["from pmqcc.cli import main", f"assert main({argv!r}) == 0"]
    lines.append(f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))")
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Byte-for-byte CLI outputs, recorded from the program before the rate
# pipeline was folded into one assembly; any refactor must keep them.
GOLDEN_DIR = Path(__file__).with_name("golden")
GOLDEN_N3 = {
    **TABLE_CONFIG,
    "decoys": [0.0204583, 0.0182017, 9.27216e-5, 0.0],
    "signal_phase_misalignment": 0.015,
    "boundaries": ["right"],
}
GOLDEN_N5 = {
    **TABLE_CONFIG,
    "parties": 5,
    "distance_km": 20.0,
    "mu": 0.05,
    "decoys": [0.025, 0.0125, 0.00625, 0.003125, 0.00025, 0.0],
    "boundaries": ["left", "right"],
}
GOLDEN_RANGES = {3: ("0", "300", "75"), 5: ("0", "60", "20")}
GOLDEN_PROTOCOLS = ("pmqcc", "pmqcc-star", "reduced", "decoy-lower")


def golden_cases() -> dict:
    """Case name -> (config, command, arguments after the config path)."""
    cases = {}
    for n, cfg in ((3, GOLDEN_N3), (5, GOLDEN_N5)):
        l_min, l_max, l_step = GOLDEN_RANGES[n]
        for protocol in GOLDEN_PROTOCOLS:
            cases[f"rate-n{n}-{protocol}"] = (cfg, "rate", ["--protocol", protocol])
            cases[f"curve-n{n}-{protocol}"] = (
                cfg, "curve",
                ["--protocol", protocol, "--l-min", l_min, "--l-max", l_max, "--l-step", l_step],
            )
    optimized = [(p, "signal") for p in GOLDEN_PROTOCOLS] + [("decoy-lower", "signal+decoys")]
    for protocol, target in optimized:
        cases[f"curve-optimized-{protocol}-{target}"] = (
            GOLDEN_N3, "curve",
            ["--protocol", protocol, "--l-min", "50", "--l-max", "150", "--l-step", "100",
             "--optimize", target],
        )
    far = {**GOLDEN_N3, "distance_km": 150.0, "mu": 0.104815}
    for target in ("signal", "decoys"):
        cases[f"optimize-{target}"] = (far, "optimize", ["--target", target])
    # simulate on either kernel: the stdlib one below the crossover, in
    # either mode, and the numpy one on the first pinned numpy tally
    simulate = TestSimulateCommand.CONFIG
    cases["simulate-forced-matching"] = (simulate, "simulate", [])
    cases["simulate-full-random"] = ({**simulate, "mode": "full-random"}, "simulate", [])
    cases["simulate-numpy"] = (
        {**simulate, "distance_km": 0.0, "mu": 1.0, "seed": 2718, "rounds": 1_000_000}, "simulate", []
    )
    return cases


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_bytes(name, tmp_path, capsys):
    cfg, command, rest = golden_cases()[name]
    code, out, err = run_cli([command, write_config(tmp_path, cfg), *rest], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    if command != "curve":
        json.loads(out, parse_constant=reject_constant)


def reject_constant(name: str):
    """A strict JSON parser's answer to ``NaN`` and ``Infinity``."""
    raise ValueError(f"{name} is not JSON")
