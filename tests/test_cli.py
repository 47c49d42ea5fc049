import argparse
import contextlib
import hashlib
import io
import itertools
import json
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
        '{"schedule": {"n_b": 4, "n_p": 5}, "delta_min": 4.5870488210613475e-06, '
        '"n_tot_budget": 703, "expected_pairs": 76.84246740177291, '
        '"eps_fail": 4.507532080048091e-06, "eps_E": 9.09458090110944e-06, '
        '"t_robust_ent": 0.00024009306274727274, "t_C": 0.00024295691841214964, '
        '"gamma": 3.4800710845036194e-05, "p_cnot_raw": 0.15000200000000005}\n'
    ),
    ("ion-depolarizing", "level"): (
        '{"schedule": {"n_b": 4, "n_p": 5}, "delta_min": 4.5870488210613475e-06, '
        '"n_tot_budget": 83, "expected_pairs": 36.46832907448625, '
        '"eps_fail": 4.24912522748031e-06, "eps_E": 8.836174048541656e-06, '
        '"t_robust_ent": 0.00011394471204300247, "t_C": 0.00011680856770787939, '
        '"gamma": 3.454230399246841e-05, "p_cnot_raw": 0.15000200000000005}\n'
    ),
    ("nv-dephasing", "full"): (
        '{"schedule": {"n_b": 0, "n_p": 5}, "delta_min": 2.0330609383456856e-06, '
        '"n_tot_budget": 43, "expected_pairs": 7.279689205597535, '
        '"eps_fail": 1.5573806196242555e-06, "eps_E": 3.590441557969941e-06, '
        '"t_robust_ent": 2.2745272715954562e-05, "t_C": 2.560912838083147e-05, '
        '"gamma": 2.9296571501896695e-05, "p_cnot_raw": 0.15000200000000005}\n'
    ),
    ("nv-dephasing", "level"): (
        '{"schedule": {"n_b": 0, "n_p": 5}, "delta_min": 2.0330609383456856e-06, '
        '"n_tot_budget": 12, "expected_pairs": 6.318541196199488, '
        '"eps_fail": 1.0104295272640828e-06, "eps_E": 3.043490465609768e-06, '
        '"t_robust_ent": 1.974218110356189e-05, "t_C": 2.2606036768438798e-05, '
        '"gamma": 2.874962040953652e-05, "p_cnot_raw": 0.15000200000000005}\n'
    ),
}

#: The CLI's default timing flags.
TIMINGS = PhysicalTimings(0.05, 0.2, 10e-9, 10.0, 0.1e-6)

#: md5 of the default `rnp sweep --restart-mode MODE` CSV.
FROZEN_SWEEP_MD5 = {
    "full": "f743fe09a65db2529c18411486372bcb",
    "level": "d0f768e5e0fab0d59d3c313fbeedff5e",
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
            (["plan", "--f", "abc"], "argument --f: --f expects a number, got 'abc'"),
            (["plan", "--f", "nan"], "argument --f: --f must lie in [0, 1], got nan"),
            (["plan", "--tau", "x"], "argument --tau: --tau expects a number, got 'x'"),
            (["plan", "--tau", "inf"], "argument --tau: --tau must be positive and finite, got inf"),
            (["plan", "--bound", "1.5"], "argument --bound: --bound expects an integer, got '1.5'"),
            (["plan", "--bound", "-1"], "argument --bound: --bound must be >= 0, got -1"),
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

    def test_schedule_past_the_cap_exits_3(self, capsys):
        assert run_cli(capsys, ["pump", "--n-b", "65"]) == (
            3,
            "",
            "invalid parameter: n_b unreasonably large (65); cap is 64\n",
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
            "rnp pump: error: argument --standard-steps: --standard-steps must lie in [0, 128], got 129"
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
            # The flag parsers accept both; the timing model needs C >= 1
            # and a finite optical time (tau = 1e308 overflows it).
            (["--cavity-c", "0.5"], "purcell_c must be >= 1, got 0.5"),
            (["--tau", "1e308"], "t_init must be positive and finite, got inf"),
            # ln(1 - eta) is 0 for eta <= 2**-54.
            (["--eta", "1e-17"], "eta must exceed 2**-54, where 1 - eta rounds to 1, got 1e-17"),
            # tau = 1e307 leaves t_init finite but overflows the pair time.
            (["--tau", "1e307"], "t_ent must be positive and finite, got inf"),
        ],
    )
    def test_timing_domain_exits_3(self, capsys, flags, err):
        assert run_cli(capsys, ["plan", *flags]) == (3, "", f"invalid parameter: {err}\n")

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
        # 2 * bound kernel calls per p_L value, whatever the number of F values.
        calls = []
        real = pumping._step_rows

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(pumping, "_step_rows", counting)
        argv = ["sweep", "--p-l-points", str(p_l_points), "--f-points", f_points, "--bound", "6"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(out.splitlines()) == 1 + p_l_points * int(f_points)
        assert len(calls) == p_l_points * 2 * 6

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

    def test_repeated_p_l_shares_kernel_calls(self, capsys, monkeypatch):
        # Two equal p_L points are one run of rows: 2 * bound kernel calls
        # for all four rows, each row still the plan of its point.
        calls = []
        real = pumping._step_rows

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(pumping, "_step_rows", counting)
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
            "budget search failed: no budget up to 1000000 reaches failure probability 1.6525763058411588e-05\n",
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
            "budget search failed: no budget up to 1000000 reaches failure probability 1.0558720064088672e-05\n",
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
            ("--trials", "0", "must lie in [1, 4294967296]"),
            ("--trials", "-3", "must lie in [1, 4294967296]"),
            ("--trials", "4294967297", "must lie in [1, 4294967296]"),
            ("--seed", "-1", "must lie in [0, 18446744073709551615]"),
            ("--seed", "18446744073709551616", "must lie in [0, 18446744073709551615]"),
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
