import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import itertools
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnp import ErrorParams, NoiseKind, cli, plan, pumping, timing
from rnp.measurement import optimal_m
from rnp.timing import PhysicalTimings

SMALL_SWEEP = [
    "sweep",
    "--p-l-points", "3",
    "--f-points", "2",
    "--f-min", "0.94",
    "--f-max", "0.97",
    "--p-l-min", "1e-6",
    "--p-l-max", "1e-4",
]


#: Exact `rnp plan --preset PRESET --restart-mode MODE` stdout.
FROZEN_PLANS = {
    ("ion-depolarizing", "full"): (
        '{"schedule": {"n_b": 4, "n_p": 5}, "delta_min": 4.587048821061343e-06, '
        '"n_tot_budget": 703, "expected_pairs": 76.84246740177285, '
        '"eps_fail": 4.507532080047995e-06, "eps_E": 9.094580901109338e-06, '
        '"t_robust_ent": 0.00024009306274727258, "t_C": 0.00024295691841214948, '
        '"gamma": 3.480071084503609e-05, "p_cnot_raw": 0.15000200000000005}\n'
    ),
    ("ion-depolarizing", "level"): (
        '{"schedule": {"n_b": 4, "n_p": 5}, "delta_min": 4.587048821061343e-06, '
        '"n_tot_budget": 83, "expected_pairs": 36.46832907448624, '
        '"eps_fail": 4.2491252274802455e-06, "eps_E": 8.836174048541589e-06, '
        '"t_robust_ent": 0.00011394471204300245, "t_C": 0.00011680856770787936, '
        '"gamma": 3.454230399246834e-05, "p_cnot_raw": 0.15000200000000005}\n'
    ),
    ("nv-dephasing", "full"): (
        '{"schedule": {"n_b": 0, "n_p": 5}, "delta_min": 2.033060938345685e-06, '
        '"n_tot_budget": 43, "expected_pairs": 7.279689205597533, '
        '"eps_fail": 1.5573806196242334e-06, "eps_E": 3.5904415579699186e-06, '
        '"t_robust_ent": 2.2745272715954555e-05, "t_C": 2.5609128380831463e-05, '
        '"gamma": 2.929657150189667e-05, "p_cnot_raw": 0.15000200000000005}\n'
    ),
    ("nv-dephasing", "level"): (
        '{"schedule": {"n_b": 0, "n_p": 5}, "delta_min": 2.033060938345685e-06, '
        '"n_tot_budget": 12, "expected_pairs": 6.3185411961994875, '
        '"eps_fail": 1.010429527264075e-06, "eps_E": 3.04349046560976e-06, '
        '"t_robust_ent": 1.9742181103561887e-05, "t_C": 2.2606036768438795e-05, '
        '"gamma": 2.8749620409536515e-05, "p_cnot_raw": 0.15000200000000005}\n'
    ),
}

#: The CLI's default timing flags.
TIMINGS = PhysicalTimings(0.05, 0.2, 10e-9, 10.0, 0.1e-6)

#: md5 of the default `rnp sweep --restart-mode MODE` CSV.
FROZEN_SWEEP_MD5 = {
    "full": "5cc561754c4f3a7ed760edc6cada3efd",
    "level": "06c74c0588ab5010fbd3c893e6a3ad90",
}

#: md5 of the p_L, F, n_b, n_p and n_tot_budget columns (header included) of
#: the default `rnp sweep --restart-mode MODE --noise NOISE` CSV: its
#: integers apart from its floats, so a change that moves last bits on
#: purpose cannot hide a schedule or budget change behind a float re-pin.
FROZEN_SWEEP_INTEGERS_MD5 = {
    ("full", "depolarizing"): "f71a75c0651a68cb7b133ea99800dbfe",
    ("full", "dephasing"): "cc4125f916404089f69e81837cdbe128",
    ("level", "depolarizing"): "789c699013fd3950963ea629670ac689",
    ("level", "dephasing"): "ad5462e530488c9ca080012ab7974adb",
}


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeasure:
    def test_headline_point(self, capsys):
        code, out, _ = run_cli(capsys, ["measure", "--p-i", "0.05", "--p-m", "0.05", "--p-l", "1e-4", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 6
        assert 6.4e-4 <= payload["eps_m"] <= 9.6e-4

    def test_error_free(self, capsys):
        code, out, _ = run_cli(capsys, ["measure", "--p-i", "0", "--p-m", "0", "--p-l", "0", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 0
        assert payload["eps_m"] == 0.0

    def test_bad_flag_exits_2_and_names_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["measure", "--p-m", "1.5"])
        assert exc.value.code == 2
        assert "--p-m" in capsys.readouterr().err

    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, ["measure"])
        _, json_out, _ = run_cli(capsys, ["measure", "--json"])
        payload = json.loads(json_out)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"m* = {payload['m']}",
            f"eps_M = {payload['eps_m']!r}",
            f"t_robust_meas = {payload['t_robust_meas_s']!r} s",
        ]

    @pytest.mark.parametrize("m_max", ["515", "-1", "100000"])
    def test_m_max_out_of_range_exits_2(self, capsys, m_max):
        # 515 repetitions would overflow the vote's binomial tail.
        with pytest.raises(SystemExit) as exc:
            cli.main(["measure", "--m-max", m_max])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        rule = f"--m-max must be an integer in [0, 514], got {m_max}"
        assert err.splitlines()[-1] == f"rnp measure: error: argument --m-max: {rule}"
        assert "Traceback" not in err

    def test_no_majority_vote_exits_3(self, capsys):
        # Each flag is a valid probability, but their sum leaves no vote.
        code, out, err = run_cli(capsys, ["measure", "--p-i", "0.5", "--p-m", "0.5"])
        assert (code, out) == (3, "")
        assert err.startswith("invalid parameter: ")


class TestFlagErrors:
    # Each flag type rejects text that is not a number, and a number out of
    # its range, with exit 2 and a message naming the flag.
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["plan", "--f", "abc"], "argument --f: --f must be a number, got 'abc'"),
            (["plan", "--f", "nan"], "argument --f: --f must lie in [0, 1], got nan"),
            (["plan", "--tau", "x"], "argument --tau: --tau must be a number, got 'x'"),
            (["plan", "--tau", "inf"], "argument --tau: --tau must lie in (0, inf), got inf"),
            (["plan", "--bound", "1.5"], "argument --bound: --bound must be an integer in [0, 64], got '1.5'"),
            (["plan", "--bound", "-1"], "argument --bound: --bound must be an integer in [0, 64], got -1"),
            (["plan", "--bound", "65"], "argument --bound: --bound must be an integer in [0, 64], got 65"),
            (["plan", "--bound", "100000"], "argument --bound: --bound must be an integer in [0, 64], got 100000"),
            (
                ["plan", "--noise", "x"],
                "argument --noise: --noise must be 'depolarizing' or 'dephasing', got 'x'",
            ),
            (
                ["plan", "--restart-mode", "x"],
                "argument --restart-mode: --restart-mode must be 'full' or 'level', got 'x'",
            ),
        ],
    )
    def test_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"rnp plan: error: {message}"

    @pytest.mark.parametrize("bound", ["-1", "65"])
    def test_sweep_bound_range(self, capsys, bound):
        # The PumpSchedule cap, as for plan: no larger schedule exists.
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--bound", bound])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"rnp sweep: error: argument --bound: --bound must be an integer in [0, 64], got {bound}"
        )

    @pytest.mark.parametrize("command", ["plan", "sweep"])
    @pytest.mark.parametrize("text", ["full_restart", "level_restart", "FULL", "Level"])
    def test_restart_mode_has_one_spelling_per_value(self, capsys, command, text):
        # Only 'full' and 'level' parse; the enum values are not aliases.
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--restart-mode", text])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"rnp {command}: error: argument --restart-mode: "
            f"--restart-mode must be 'full' or 'level', got {text!r}"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--t-mem", "1"],
            ["sweep", "--t-mem", "1e-12"],
            ["sweep", "--p-l", "0.5"],
            ["pump", "--p-i", "0.4"],
            ["pump", "--p-m", "0.3"],
        ],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        # A command takes no flag that changes none of its output.  Sweep's
        # --p-l is not a prefix of its --p-l-min/max/points either.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("rnp") and "error: " in err and argv[1] in err


    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--pre", "nv-dephasing", "--rest", "level"],
            ["sweep", "--p-l-p", "1", "--f-p", "1"],
        ],
    )
    def test_flag_prefixes_are_rejected(self, capsys, argv):
        # Only whole flag names parse, so adding a flag cannot change what
        # an abbreviation means.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " in capsys.readouterr().err


def _numeric_flags():
    """(command, flag, action) of every flag whose type is not an enum word."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.type not in (None, cli._noise_kind, cli._restart_mode):
                yield command, action.option_strings[0], action


class TestFlagTypes:
    # Every numeric flag's type is the one factory's: the library's check,
    # given the flag's name.  So each flag takes exactly its check's range
    # and rejects the rest with exit 2 and the library's message.
    def test_every_numeric_flag_comes_from_the_factory(self):
        flags = list(_numeric_flags())
        assert len(flags) == 39
        for _, flag, action in flags:
            assert isinstance(action.type, functools.partial) and action.type.func is cli._parse, flag
            check, _, name = action.type.args
            assert check in (cli._check_int, cli._check_real) and name == flag

    def test_timing_flags_take_the_timing_ranges(self):
        inputs = {"--tau": "tau", "--eta": "eta", "--cavity-c": "purcell_c", "--t-local": "t_local", "--t-mem": "t_mem"}
        for _, flag, action in _numeric_flags():
            if flag in inputs:
                assert action.type.args[:2] == (cli._check_real, timing.RANGES[inputs[flag]]), flag

    @pytest.mark.parametrize("command,flag", [(c, f) for c, f, _ in _numeric_flags()])
    def test_ends_past_ends_and_non_numbers(self, capsys, command, flag):
        # Tries lo, hi, one value past each end, nan, inf and a non-number.
        action = {f: a for c, f, a in _numeric_flags() if c == command}[flag]
        check, bounds, _ = action.type.args
        limits = inspect.signature(check).bind(flag, None, *bounds)
        limits.apply_defaults()
        lo, hi = limits.arguments["lo"], limits.arguments["hi"]
        left, right = limits.arguments.get("ends", "[]")
        if check is cli._check_int:
            parse, rule = int, f"be an integer in [{lo}, {hi}]"
            texts = [str(v) for v in (lo, hi, lo - 1, hi + 1)]
        else:
            parse, rule = float, f"lie in {left}{lo:g}, {hi:g}{right}"
            texts = [repr(v) for v in (lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))]
        for text in texts + ["nan", "inf", "x"]:
            argv = [command, f"{flag}={text}"]
            try:
                value = parse(text)
            except ValueError:
                message = f"{flag} must {rule if parse is int else 'be a number'}, got {text!r}"
            else:
                if lo < value < hi or value == lo and left == "[" or value == hi and right == "]":
                    got = getattr(cli.build_parser().parse_args(argv), action.dest)
                    assert type(got) is parse and got == value, argv
                    continue
                message = f"{flag} must {rule}, got {value!r}"
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
            assert capsys.readouterr().err.splitlines()[-1] == f"rnp {command}: error: argument {flag}: {message}"


class TestPump:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, ["pump", "--n-b", "2", "--n-p", "1", "--f", "0.9"])
        assert code == 0
        assert "final infidelity" in out

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, ["pump", "--n-b", "1", "--n-p", "1", "--json"])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 3  # two steps plus the summary
        assert lines[0]["kind"] == "bit"
        assert lines[1]["kind"] == "phase"
        assert "infidelity" in lines[-1]

    @pytest.mark.parametrize("flag", ["--n-b", "--n-p"])
    def test_schedule_past_the_cap_exits_2(self, capsys, flag):
        # A schedule holds at most 64 steps of each kind, as --bound searches.
        with pytest.raises(SystemExit) as exc:
            cli.main(["pump", flag, "65"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"rnp pump: error: argument {flag}: {flag} must be an integer in [0, 64], got 65"
        )

    def test_standard_scheme(self, capsys):
        code, out, _ = run_cli(capsys, ["pump", "--standard-steps", "4", "--json"])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        kinds = [l["kind"] for l in lines[:-1]]
        assert kinds == ["bit", "phase", "bit", "phase"]

    def test_standard_scheme_runs_up_to_its_cap(self, capsys):
        code, out, _ = run_cli(capsys, ["pump", "--standard-steps", "128", "--json"])
        assert code == 0
        kinds = [json.loads(line).get("kind") for line in out.splitlines()[:-1]]
        assert kinds == ["bit", "phase"] * 64

    def test_standard_steps_past_the_cap_exits_2(self, capsys):
        # 64 steps of each kind is the most a trace's schedule holds.
        with pytest.raises(SystemExit) as exc:
            cli.main(["pump", "--standard-steps", "129"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "rnp pump: error: argument --standard-steps: --standard-steps must be an integer in [0, 128], got 129"
        )

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--n-b", "9"], "--n-b"),
            (["--n-p", "2"], "--n-p"),
            (["--n-b", "2", "--n-p", "2"], "--n-b or --n-p"),
        ],
    )
    def test_schedule_flags_contradict_standard_steps(self, capsys, flags, named):
        # The alternating scheme has no (n_b, n_p) schedule; a flag that sets
        # one is an error, not ignored.  Even the default values count.
        assert run_cli(capsys, ["pump", "--standard-steps", "1", *flags]) == (
            2,
            "",
            "rnp pump: error: --standard-steps runs the alternating scheme, which has no "
            f"(n_b, n_p) schedule, and takes no {named}\n",
        )

    def test_default_schedule_is_two_and_two(self, capsys):
        assert run_cli(capsys, ["pump"]) == run_cli(capsys, ["pump", "--n-b", "2", "--n-p", "2"])
        _, out, _ = run_cli(capsys, ["pump", "--json"])
        kinds = [json.loads(line).get("kind") for line in out.splitlines()[:-1]]
        assert kinds == ["bit", "bit", "phase", "phase"]


class TestPlan:
    def test_json_fields_exact(self, capsys):
        code, out, _ = run_cli(capsys, ["plan", "--preset", "nv-dephasing"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "schedule",
            "delta_min",
            "n_tot_budget",
            "expected_pairs",
            "eps_fail",
            "eps_E",
            "t_robust_ent",
            "t_C",
            "gamma",
            "p_cnot_raw",
        }
        assert set(payload["schedule"]) == {"n_b", "n_p"}

    def test_unpurifiable_exits_3(self, capsys):
        code, _, err = run_cli(capsys, ["plan", "--f", "0.4"])
        assert code == 3
        assert "unpurifiable fidelity" in err

    def test_useless_link_exits_3(self, capsys):
        # Every flag is valid, but the composed effective gate error is 1.008.
        argv = ["plan", "--noise", "dephasing", "--f", "0.51", "--p-l", "1e-2"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("no useful link: the effective gate error exceeds 1 at these inputs: 1.008")

    @pytest.mark.parametrize(
        "preset,same",
        [
            ("ion-depolarizing", ["--t-mem", "10"]),
            ("nv-dephasing", ["--noise", "dephasing", "--t-mem", "1"]),
        ],
    )
    def test_preset_keeps_explicit_flags(self, capsys, preset, same):
        # A preset sets the noise model and the default memory time only.
        flags = ["--f", "0.9", "--p-l", "1e-4"]
        code, out, _ = run_cli(capsys, ["plan", "--preset", preset, *flags])
        assert code == 0
        assert run_cli(capsys, ["plan", *flags, *same]) == (0, out, "")
        assert out != FROZEN_PLANS[preset, "full"]

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_matching_noise_is_accepted(self, capsys, preset):
        noise = cli.PRESETS[preset]["noise"].value
        assert run_cli(capsys, ["plan", "--preset", preset, "--noise", noise]) == (
            0,
            FROZEN_PLANS[preset, "full"],
            "",
        )

    @pytest.mark.parametrize(
        "preset,noise", [("ion-depolarizing", "dephasing"), ("nv-dephasing", "depolarizing")]
    )
    def test_contradicting_noise_exits_2(self, capsys, preset, noise):
        code, out, err = run_cli(capsys, ["plan", "--preset", preset, "--noise", noise])
        assert (code, out) == (2, "")
        assert err == (
            f"rnp plan: error: --noise {noise} contradicts --preset {preset}, "
            f"which sets --noise {cli.PRESETS[preset]['noise'].value}\n"
        )

    @pytest.mark.parametrize(
        "flags,err",
        [
            # The flag parsers accept each; the timing model needs a finite
            # optical time (tau = 1e308 overflows it).
            (["--tau", "1e308"], "t_init must lie in (0, inf), got inf"),
            # ln(1 - eta) is 0 for eta <= 2**-54.
            (["--eta", "1e-17"], "eta must exceed 2**-54, where 1 - eta rounds to 1, got 1e-17"),
            # tau = 1e307 leaves t_init finite but overflows the pair time.
            (["--tau", "1e307"], "t_ent must lie in (0, inf), got inf"),
            # --p-m also feeds ErrorParams, which takes 0 (measure does).
            (["--p-m", "0"], "p_meas must lie in (0, 1), got 0.0"),
        ],
    )
    def test_timing_domain_exits_3(self, capsys, flags, err):
        assert run_cli(capsys, ["plan", *flags]) == (3, "", f"invalid parameter: {err}\n")

    @pytest.mark.parametrize(
        "flag,text,err",
        [
            ("--cavity-c", "0.5", "--cavity-c must lie in [1, inf), got 0.5"),
            ("--eta", "0", "--eta must lie in (0, 1), got 0.0"),
            ("--eta", "1", "--eta must lie in (0, 1), got 1.0"),
        ],
    )
    def test_timing_ranges_exit_2_at_the_flag(self, capsys, flag, text, err):
        # The flags take their ranges from timing.RANGES, so these stop at
        # the flag, before PhysicalTimings.
        with pytest.raises(SystemExit) as exc:
            cli.main(["plan", flag, text])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"rnp plan: error: argument {flag}: {err}"

    def test_p_cnot_raw_is_clamped_to_one(self, capsys):
        # (1 - F) + 2 p_L + 2 p_M = 0.1 + 0.002 + 0.9 = 1.002 before the clamp.
        argv = ["plan", "--p-l", "1e-3", "--f", "0.9", "--p-m", "0.45", "--p-i", "0"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["p_cnot_raw"] == 1.0

    def test_noise_defaults_to_depolarizing_without_a_preset(self, capsys):
        flags = ["--f", "0.9", "--p-l", "1e-4"]
        assert run_cli(capsys, ["plan", *flags]) == run_cli(capsys, ["plan", *flags, "--noise", "depolarizing"])

    def test_memory_warning_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, ["plan", "--preset", "ion-depolarizing", "--t-mem", "1e-3"])
        assert (code, out) == (0, FROZEN_PLANS["ion-depolarizing", "full"])
        assert err == (
            "warning: t_C/t_mem = 0.243 exceeds 0.01; "
            "the clock cycle is not far below the storage memory time\n"
        )

    @pytest.mark.parametrize("ratio,quoted", [(0.1, "0.1"), (2.5e-3, "0.0025"), (0.5, None)])
    def test_memory_warning_quotes_its_threshold(self, capsys, monkeypatch, ratio, quoted):
        # The warning names the ratio memory_check tests, not a copy of it.
        monkeypatch.setattr(timing, "DEFAULT_MEMORY_RATIO", ratio)
        code, out, err = run_cli(capsys, ["plan", "--preset", "ion-depolarizing", "--t-mem", "1e-3"])
        assert (code, out) == (0, FROZEN_PLANS["ion-depolarizing", "full"])
        assert err == (
            ""
            if quoted is None
            else f"warning: t_C/t_mem = 0.243 exceeds {quoted}; the clock cycle is not far below the storage memory time\n"
        )

    def test_plan_reproducible(self, capsys):
        code1, out1, _ = run_cli(capsys, ["plan", "--preset", "ion-depolarizing"])
        code2, out2, _ = run_cli(capsys, ["plan", "--preset", "ion-depolarizing"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_broken_stdout_exits_4(self, capsys, monkeypatch):
        # Every command writes stdout; a reader that goes away (`| head -c 80`)
        # is an I/O error, exit 4.
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", BrokenPipe())
        assert cli.main(["plan"]) == 4
        assert capsys.readouterr().err == "I/O error: [Errno 32] Broken pipe\n"


#: The exit-3 messages the README documents for valid flags above F = 1/2.
DOCUMENTED_EXIT_3 = (
    "budget search failed: no budget up to 1000000 reaches failure probability ",
    "no useful link: the effective gate error exceeds 1 at these inputs: ",
)


class TestPlanDomain:
    # Across the validated domain, a plan gives a sound answer or a documented
    # exit, and gives it in bounded time.
    F_GRID = ("0.5000001", "0.51", "0.6", "0.75", "0.85", "0.9", "0.95", "0.99", "0.999999", "1.0")
    P_L_GRID = ("0", "1e-15", "1e-9", "1e-6", "1e-3", "1e-2")

    @pytest.mark.parametrize("noise", ["depolarizing", "dephasing"])
    @pytest.mark.parametrize("mode", ["full", "level"])
    def test_answer_or_documented_exit(self, capsys, noise, mode):
        for f, p_l in itertools.product(self.F_GRID, self.P_L_GRID):
            argv = ["plan", "--f", f, "--p-l", p_l, "--noise", noise, "--restart-mode", mode]
            start = time.perf_counter()
            code, out, err = run_cli(capsys, argv)
            assert time.perf_counter() - start < 2.0, argv
            assert code in (0, 3), argv
            if code == 3:
                assert err.startswith(DOCUMENTED_EXIT_3), (argv, err)
                continue
            r = json.loads(out)
            schedule = r["schedule"]
            assert r["eps_fail"] <= r["delta_min"], argv
            assert r["expected_pairs"] >= (schedule["n_b"] + 1) * (schedule["n_p"] + 1), argv
            assert r["gamma"] >= r["eps_E"], argv


class TestSweep:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run_cli(capsys, SMALL_SWEEP)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "p_L,F,noise,n_b,n_p,delta_min,eps_fail,eps_E,n_tot_budget,"
            "expected_pairs,t_C_s,gamma"
        )
        assert len(lines) == 1 + 3 * 2

    def test_rows_ordered_p_l_major(self, capsys):
        _, out, _ = run_cli(capsys, SMALL_SWEEP)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        p_ls = [float(r[0]) for r in rows]
        assert p_ls == sorted(p_ls)
        f_first_block = [float(r[1]) for r in rows[:2]]
        assert f_first_block == sorted(f_first_block)

    def test_byte_identical_across_runs(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(SMALL_SWEEP + ["--out", str(out_a)]) == 0
        assert cli.main(SMALL_SWEEP + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_readout_plan_once_per_p_l(self, capsys, monkeypatch):
        # optimal_m depends on p_init, p_meas and p_local, not on F.
        calls = []
        real = cli.optimal_m

        def counting(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(cli, "optimal_m", counting)
        code, out, _ = run_cli(capsys, SMALL_SWEEP)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 3 * 2
        assert len(calls) == 3

    @pytest.mark.parametrize("f_points", ["1", "4", "10"])
    @pytest.mark.parametrize("p_l_points", [1, 3])
    def test_one_search_per_p_l_column(self, capsys, monkeypatch, p_l_points, f_points):
        # One map application per step of the bound-6 grid for every row of
        # every p_L value: the rows fit one search slice.
        calls = []
        real = pumping._pump

        def counting(start, op, steps):
            calls.extend([start[0].size] * steps)
            return real(start, op, steps)

        monkeypatch.setattr(pumping, "_pump", counting)
        argv = ["sweep", "--p-l-points", str(p_l_points), "--f-points", f_points, "--bound", "6"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(out.splitlines()) == 1 + p_l_points * int(f_points)
        n = p_l_points * int(f_points)
        assert calls == [n] * 6 + [7 * n] * 6

    @pytest.mark.parametrize("mode", ["full", "level"])
    def test_one_search_call_per_sweep(self, capsys, monkeypatch, mode):
        # The whole default grid is one search_schedule call, rows p_L-major,
        # each with its own p_L's readout error.
        calls = []
        real = cli.search_schedule

        def recording(rows, meas_flip, bound):
            calls.append((list(rows), list(meas_flip), bound))
            return real(rows, meas_flip, bound)

        monkeypatch.setattr(cli, "search_schedule", recording)
        code, out, _ = run_cli(capsys, ["sweep", "--restart-mode", mode])
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == FROZEN_SWEEP_MD5[mode]
        ((rows, flips, bound),) = calls
        assert bound == 15
        assert [(p.p_local, p.fidelity) for p in rows] == [
            tuple(map(float, line.split(",")[:2])) for line in out.splitlines()[1:]
        ]
        assert flips == [optimal_m(p, timings=TIMINGS).error_prob for p in rows]

    @pytest.mark.parametrize("noise", ["depolarizing", "dephasing"])
    def test_default_sweep_map_applications(self, capsys, monkeypatch, noise):
        # The 130 rows, of 13 p_L values, are three search slices of 64, 64
        # and 2 rows: 3 * 30 map applications, or 3 * 15 for dephased rows.
        calls = []
        real = pumping._pump

        def counting(start, op, steps):
            calls.extend([start[0].size] * steps)
            return real(start, op, steps)

        monkeypatch.setattr(pumping, "_pump", counting)
        code, _, _ = run_cli(capsys, ["sweep", "--noise", noise])
        assert code == 0
        if noise == "depolarizing":
            assert len(calls) == 90
            assert calls == ([64] * 15 + [16 * 64] * 15) * 2 + [2] * 15 + [16 * 2] * 15
        else:
            assert len(calls) == 45
            assert calls == [64] * 15 * 2 + [2] * 15

    def test_repeated_p_l_shares_map_applications(self, capsys, monkeypatch):
        # Two equal p_L points are one run of rows: one map application per
        # step of the bound-15 grid for all four rows, each row still the
        # plan of its point.
        calls = []
        real = pumping._pump

        def counting(start, op, steps):
            calls.extend([start[0].size] * steps)
            return real(start, op, steps)

        monkeypatch.setattr(pumping, "_pump", counting)
        argv = ["sweep", "--p-l-min", "1e-4", "--p-l-max", "1e-4", "--p-l-points", "2", "--f-points", "2"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 4 and rows[:2] == rows[2:]
        assert calls == [4] * 15 + [64] * 15
        for row, f in zip(rows, (0.9, 0.99)):
            r = plan(ErrorParams(p_local=1e-4, p_init=0.05, p_meas=0.05, fidelity=f), TIMINGS)
            assert row.split(",")[3:] == [
                str(r.schedule.n_b), str(r.schedule.n_p), repr(r.delta_min), repr(r.eps_fail), repr(r.eps_E),
                str(r.n_tot_budget), repr(r.expected_pairs), repr(r.t_C), repr(r.gamma),
            ]

    @settings(max_examples=25, deadline=None)
    @given(
        p_l=st.tuples(*[st.floats(min_value=-6.0, max_value=-3.0)] * 2).map(sorted),
        p_l_points=st.integers(min_value=1, max_value=2),
        f=st.tuples(*[st.floats(min_value=0.9, max_value=0.99)] * 2),
        f_points=st.integers(min_value=1, max_value=4),
        mode=st.sampled_from(["full", "level"]),
        noise=st.sampled_from(["depolarizing", "dephasing"]),
    )
    def test_rows_equal_single_plans(self, p_l, p_l_points, f, f_points, mode, noise):
        # A sweep row is the plan of its point, field for field.
        argv = [
            "sweep", "--p-l-min", repr(10.0 ** p_l[0]), "--p-l-max", repr(10.0 ** p_l[1]),
            "--p-l-points", str(p_l_points), "--f-min", repr(f[0]), "--f-max", repr(f[1]),
            "--f-points", str(f_points), "--restart-mode", mode, "--noise", noise,
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        assert len(rows) == p_l_points * f_points
        timings = PhysicalTimings(0.05, 0.2, 10e-9, 10.0, 0.1e-6)
        for row in rows:
            p = ErrorParams(
                p_local=float(row[0]), p_init=0.05, p_meas=0.05, fidelity=float(row[1]), noise=NoiseKind(noise)
            )
            r = plan(p, timings, restart_mode=cli._restart_mode(mode))
            assert row == [
                repr(p.p_local), repr(p.fidelity), noise, str(r.schedule.n_b), str(r.schedule.n_p),
                repr(r.delta_min), repr(r.eps_fail), repr(r.eps_E), str(r.n_tot_budget),
                repr(r.expected_pairs), repr(r.t_C), repr(r.gamma),
            ]

    def test_rows_fail_in_row_order(self, capsys):
        # F = 0.85 hits the budget cap before F = 0.45 is found unpurifiable.
        argv = ["sweep", "--f-min", "0.85", "--f-max", "0.45", "--f-points", "2", "--p-l-points", "1"]
        assert run_cli(capsys, argv) == (
            3,
            "",
            "budget search failed: no budget up to 1000000 reaches failure probability 1.652576305841158e-05\n",
        )

    def test_invalid_row_ends_the_sweep(self, capsys):
        # The column stops at its first invalid row; the rows before it are
        # composed, then the sweep exits 3 without writing any of them.
        argv = ["sweep", "--f-min", "0.99", "--f-max", "0.5", "--f-points", "2", "--p-l-points", "1"]
        assert run_cli(capsys, argv) == (
            3,
            "",
            "unpurifiable fidelity: fidelity must exceed 0.5 for purification, got 0.5\n",
        )

    def test_column_longer_than_a_slice_equals_single_plans(self, capsys):
        # One search per p_L column, however many search slices it spans.
        n_f = pumping.SEARCH_SLICE + 5
        argv = ["sweep", "--p-l-points", "1", "--f-min", "0.9", "--f-max", "0.999", "--f-points", str(n_f)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == n_f
        timings = PhysicalTimings(0.05, 0.2, 10e-9, 10.0, 0.1e-6)
        for row in rows:
            p = ErrorParams(p_local=float(row[0]), p_init=0.05, p_meas=0.05, fidelity=float(row[1]))
            r = plan(p, timings)
            assert row == [
                repr(p.p_local), repr(p.fidelity), "depolarizing", str(r.schedule.n_b), str(r.schedule.n_p),
                repr(r.delta_min), repr(r.eps_fail), repr(r.eps_E), str(r.n_tot_budget),
                repr(r.expected_pairs), repr(r.t_C), repr(r.gamma),
            ]

    def test_long_column_fails_at_its_first_row(self, capsys):
        # 140 rows falling from F = 0.99 to 0.4: the valid rows span two
        # search slices, and the first row already hits the budget cap.
        argv = ["sweep", "--f-min", "0.99", "--f-max", "0.4", "--f-points", "140", "--p-l-points", "1"]
        assert run_cli(capsys, argv) == (
            3,
            "",
            "budget search failed: no budget up to 1000000 reaches failure probability 1.0558720064088658e-05\n",
        )

    def test_unwritable_path_exits_4(self, capsys):
        code, _, err = run_cli(capsys, SMALL_SWEEP + ["--out", "/nonexistent-dir/x.csv"])
        assert code == 4
        assert "cannot write" in err


class TestVerify:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--trials", "4000", "--seed", "7"])
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    @pytest.mark.parametrize(
        "flag,text,rule",
        [
            ("--trials", "0", "must be an integer in [1, 4294967296]"),
            ("--trials", "-3", "must be an integer in [1, 4294967296]"),
            ("--trials", "4294967297", "must be an integer in [1, 4294967296]"),
            ("--seed", "-1", "must be an integer in [0, 18446744073709551615]"),
            ("--seed", "18446744073709551616", "must be an integer in [0, 18446744073709551615]"),
        ],
    )
    def test_trials_and_seed_outside_the_philox_words_exit_2(self, capsys, flag, text, rule):
        # A trial id is one 32-bit Philox counter word and the seed its two
        # key words, so a larger value would alias another stream.  Nothing
        # runs: the oracle grid does not start.
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", flag, text])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"rnp verify: error: argument {flag}: {flag} {rule}, got {text}"

    def test_seeded_reproducibility(self, capsys):
        code1, out1, _ = run_cli(capsys, ["verify", "--trials", "2000", "--seed", "9"])
        code2, out2, _ = run_cli(capsys, ["verify", "--trials", "2000", "--seed", "9"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_tampered_recurrence_exits_1(self, capsys, monkeypatch):
        import rnp.cli as cli_mod
        from rnp.model import BellDiagonalState

        real = cli_mod.pump_step

        def tampered(target, fresh, kind, p_l, eps_m):
            rec = real(target, fresh, kind, p_l, eps_m)
            skewed = [c + 0.001 for c in rec.state_after_success.as_tuple()]
            total = sum(skewed)
            return type(rec)(
                kind=rec.kind,
                state_before=rec.state_before,
                success_prob=rec.success_prob,
                state_after_success=BellDiagonalState.from_vector([c / total for c in skewed]),
            )

        monkeypatch.setattr(cli_mod, "pump_step", tampered)
        code, out, err = run_cli(capsys, ["verify", "--trials", "500", "--seed", "7"])
        assert code == 1
        assert "FAIL" in out
        assert "oracle-equivalence" in err


class TestFrozenOutputs:
    # Refactors keep every output byte; these pin the bytes they must keep.
    @pytest.mark.parametrize("preset,mode", sorted(FROZEN_PLANS))
    def test_plan_stdout(self, capsys, preset, mode):
        code, out, _ = run_cli(capsys, ["plan", "--preset", preset, "--restart-mode", mode])
        assert code == 0
        assert out == FROZEN_PLANS[preset, mode]

    @pytest.mark.parametrize("mode", sorted(FROZEN_SWEEP_MD5))
    def test_default_sweep_csv(self, tmp_path, mode):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--restart-mode", mode, "--out", str(out)]) == 0
        assert hashlib.md5(out.read_bytes()).hexdigest() == FROZEN_SWEEP_MD5[mode]

    @pytest.mark.parametrize("mode,noise", sorted(FROZEN_SWEEP_INTEGERS_MD5))
    def test_default_sweep_schedules_and_budgets(self, capsys, mode, noise):
        code, out, _ = run_cli(capsys, ["sweep", "--restart-mode", mode, "--noise", noise])
        assert code == 0
        columns = "".join(",".join(line.split(",")[i] for i in (0, 1, 3, 4, 8)) + "\n" for line in out.splitlines())
        assert hashlib.md5(columns.encode()).hexdigest() == FROZEN_SWEEP_INTEGERS_MD5[mode, noise]


class TestSharedParser:
    # main parses with one parser per process; no call may see another's state.
    def test_parser_is_shared(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_builds_no_parser_after_the_first(self, capsys, monkeypatch, tmp_path):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *a, **kw):
            built.append(kw.get("prog"))
            real_init(self, *a, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert cli.main(["measure", "--json"]) == 0
        assert len(built) == 6  # the top-level parser and its five subcommands
        built.clear()
        calls = (
            ["plan", "--preset", "nv-dephasing"],
            SMALL_SWEEP + ["--out", str(tmp_path / "s.csv")],
            ["measure", "--p-l", "1e-4", "--json"],
            ["verify", "--trials", "200"],
            ["plan", "--f", "0.9"],
        )
        for argv in calls:
            cli.main(argv)
        capsys.readouterr()
        assert built == []

    def test_no_state_leaks_across_calls(self, capsys):
        # The reference for `plan --f 0.9` comes from a parser of its own.
        args = cli.build_parser.__wrapped__().parse_args(["plan", "--f", "0.9"])
        assert args.func(args) == 0
        fresh_f09 = capsys.readouterr().out
        code, out, _ = run_cli(capsys, ["plan", "--preset", "nv-dephasing", "--restart-mode", "level"])
        assert (code, out) == (0, FROZEN_PLANS["nv-dephasing", "level"])
        with pytest.raises(SystemExit) as exc:
            cli.main(["plan", "--f", "2"])
        assert exc.value.code == 2
        assert "--f" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, ["plan", "--f", "0.9"])
        assert (code, out) == (0, fresh_f09)
        code, out, _ = run_cli(capsys, ["plan", "--preset", "ion-depolarizing", "--restart-mode", "full"])
        assert (code, out) == (0, FROZEN_PLANS["ion-depolarizing", "full"])
