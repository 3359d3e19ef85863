import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pfest
from pfest import CoverageProfile
from pfest.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main

BERN = ["--family", "bernoulli", "--params", "p=0.5,eps=0.25"]


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_block(heading, language):
    """The first ``language`` code block under README's ``heading``."""
    return re.search(rf"## {heading}\n.*?```{language}\n(.*?)```", README, re.S).group(1)


def test_readme_quick_start_runs():
    exec(compile(_readme_block("Library quick start", "python"), "README.md", "exec"), {})


README_COMMANDS = [
    line.split()[1:]
    for line in _readme_block("CLI", "sh").replace("\\\n", " ").splitlines()
    if line.startswith("pfest ") and not line.startswith("pfest experiment")
]


def test_readme_cli_block_covers_every_command_but_experiment():
    assert {argv[0] for argv in README_COMMANDS} == {"coverage", "plan", "estimate", "sample"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_cli_example_exits_ok(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert (code, err) == (EXIT_OK, "")


def test_plan_exits_ok(capsys):
    code, out, _ = _run(
        capsys, ["plan", *BERN, "--eps", "0.25", "--delta", "0.1", "--method", "coverage"]
    )
    assert code == EXIT_OK
    assert out.startswith("plan method=coverage n=1253 M=17.0")


def test_estimate_exits_ok(capsys):
    code, out, _ = _run(
        capsys,
        ["estimate", *BERN, "--method", "mom", "--eps", "0.25", "--delta", "0.1",
         "--seed", "7", "--trials", "3"],
    )
    assert code == EXIT_OK
    assert out.startswith("estimate method=mom n=1253 ")
    assert "success_freq=1.0" in out


def test_tv_plan_past_slope_at_infinity_is_infeasible(capsys):
    # D_tv = 0.125, so the growth argument 6 D / eps = 3 passes f'(inf) = 1/2
    code, out, err = _run(
        capsys, ["plan", *BERN, "--eps", "0.25", "--method", "fdiv:tv"]
    )
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert "infeasible plan" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", *BERN, "--eps", "0.25", "--method", "bogus"],
        ["plan", "--family", "bernoulli", "--params", "p0.5", "--eps", "0.25"],
        ["estimate", "--family", "bernoulli", "--params", "p=0.5,eps", "--method",
         "mom", "--eps", "0.25", "--seed", "1"],
        ["estimate", *BERN, "--method", "snis", "--g", "0,1", "--plan", "coverage",
         "--eps", "0.25", "--seed", "1"],
        # non-finite grid bounds are rejected before the CSV header is written
        ["coverage", *BERN, "--grid", "0:inf:3"],
        ["coverage", *BERN, "--grid", "nan:1:3"],
        # plans of 2^63 draws or more: the count engine's histograms
        # cannot hold them
        ["estimate", "--family", "bernoulli", "--params", "p=1e-300,eps=0.25",
         "--eps", "0.2", "--method", "quantile", "--seed", "1"],
        ["estimate", "--family", "bernoulli", "--params", "p=1e-300,eps=0.25",
         "--eps", "0.2", "--method", "mom", "--seed", "1"],
        # the race's eps is checked before the profile query reads eps / 3
        ["sample", *BERN, "--eps", "5", "--seed", "1"],
        ["plan", *BERN, "--eps", "5", "--method", "sampling"],
        # (alpha - 1)^6 and D pass the float range; the pair has no
        # singular mass
        ["plan", *BERN, "--eps", "0.25", "--method", "fdiv:renyi:alpha=1e60"],
        # the winner counts of 2^63 races or more: numpy's multinomial
        # counts are int64
        ["sample", *BERN, "--eps", "0.25", "--seed", "1", "--trials", str(2**63)],
        # the trial count is checked before the plan, which is infeasible here
        ["estimate", *BERN, "--method", "mom", "--plan", "fdiv:tv", "--eps", "0.3",
         "--seed", "1", "--trials", "0"],
        # likewise for the races: this pair's plan is refused for its
        # singular mass
        ["sample", "--family", "point_mass", "--params", "q=0.5", "--eps", "0.3",
         "--seed", "1", "--trials", "0"],
        # --g entries that float() rejects
        *(
            ["plan", *BERN, "--eps", "0.25", "--method", "is", "--g", g]
            for g in ("1__0,1", "1j,1", "0x1p3,1", "0,,1", "1, ,2", "1,")
        ),
    ],
    ids=["unknown-method", "malformed-params", "params-without-value",
         "snis-with-plan", "grid-inf", "grid-nan", "counts-past-int64-quantile",
         "counts-past-int64-mom", "sample-eps", "plan-sampling-eps",
         "renyi-overflow", "trials-past-int64", "estimate-no-trials",
         "sample-no-trials",
         "g-double-underscore",
         "g-complex", "g-hex", "g-empty-entry", "g-blank-entry", "g-trailing-comma"],
)
def test_bad_input_exits_one_with_message(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("pfest: error: ")
    assert err.count("\n") == 1


NON_NUMERIC_PARAM = "pfest: error: family parameter 'support' must be a number, got 'true'\n"


def test_a_non_numeric_family_parameter_is_named(capsys, tmp_path):
    argv = ["plan", "--family", "random_finite", "--params", "support=true", "--eps", "0.3"]
    assert _run(capsys, argv) == (EXIT_ERROR, "", NON_NUMERIC_PARAM)
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\nkind = success_curve\nfamily = random_finite\n"
        "eps_grid = 0.5\ndelta = 0.1\ntrials = 1\nmaster_seed = 1\n"
        f"output_path = {tmp_path / 'out.csv'}\n\n[family_params]\nsupport = true\n"
    )
    assert _run(capsys, ["experiment", "--config", str(path)]) == (
        EXIT_ERROR, "", NON_NUMERIC_PARAM
    )


@pytest.mark.parametrize("grid", ["0:inf:3", "nan:1:3", "1:2", "2:1:3"])
def test_coverage_checks_the_grid_before_building_the_profile(capsys, monkeypatch, grid):
    def no_profile(pair):
        raise AssertionError("profile built before the grid was checked")

    monkeypatch.setattr(CoverageProfile, "from_pair", no_profile)
    code, out, err = _run(
        capsys,
        ["coverage", "--family", "random_finite", "--params", "support=4096,seed=1",
         "--grid", grid],
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("pfest: error: ") and "grid" in err


def test_mean_estimate_sums_left_to_right(capsys):
    # these three estimates round differently under math.fsum, as sum()
    # adds floats from Python 3.12 on
    code, out, err = _run(
        capsys,
        ["estimate", "--family", "random_finite", "--params", "support=12,seed=3",
         "--method", "mom", "--eps", "0.25", "--seed", "4", "--trials", "3",
         "--out", "-"],
    )
    assert (code, err) == (EXIT_OK, "")
    head, _, *rows = out.splitlines()
    estimates = [float(row.split(",")[2]) for row in rows]
    total = 0.0
    for est in estimates:
        total += est
    assert math.fsum(estimates) != total
    assert f" mean_estimate={total / len(estimates)!r} " in head


def test_kl_plan_past_float_range_prints_an_integer(capsys):
    # gamma is about e^689, a float; n = 8 gamma ln(1e300) / 4.36e-7 is not
    code, out, err = _run(
        capsys,
        ["plan", "--family", "bernoulli", "--params", "p=0.5,eps=0.01",
         "--eps", "4.36e-7", "--delta", "1e-300", "--method", "fdiv:kl"],
    )
    assert (code, err) == (EXIT_OK, "")
    n = int(re.search(r" n=(\d+) ", out).group(1))
    assert n > sys.float_info.max


def test_is_plan_past_float_range_prints_an_integer(capsys):
    # M is about 6e304 for the target eps delta / 6; n = 6 M / eps is not
    code, out, err = _run(
        capsys,
        ["plan", *BERN, "--eps", "1e-4", "--delta", "1e-300", "--method", "is",
         "--g", "0,1"],
    )
    assert (code, err) == (EXIT_OK, "")
    n = int(re.search(r" n=(\d+) ", out).group(1))
    assert n > sys.float_info.max


TWO_POINT = ["--family", "two_point_mu", "--params", "p=0.25"]


@pytest.mark.parametrize(
    "argv,n",
    [
        (["--eps", "0.5", "--delta", "1e-308", "--method", "quantile"], 102225),
        (["--eps", "0.5", "--delta", "5e-324", "--method", "coverage"], 381154),
        (["--eps", "1e-308", "--method", "sampling"], 5683),
    ],
    ids=["quantile", "coverage", "sampling"],
)
def test_log_term_past_float_range_is_feasible(capsys, argv, n):
    # 2 / delta, 1 / delta and 3 / eps pass the float range; their logs do not
    code, out, err = _run(capsys, ["plan", *TWO_POINT, *argv])
    assert (code, err) == (EXIT_OK, "")
    assert f" n={n} " in out


@pytest.mark.parametrize("method", ["is", "snis"])
def test_importance_target_underflow_names_the_target(capsys, method):
    code, out, err = _run(
        capsys,
        ["plan", *BERN, "--eps", "1e-300", "--delta", "1e-300", "--method", method,
         "--g", "1,1"],
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("pfest: error: eps * delta / 6 underflows to 0.0")


@pytest.fixture
def tiny_mu_pair(tmp_path):
    """A ratio of 3.6e307: the race's n = 2 M ln(3/eps) passes the float
    range although M does not."""
    path = tmp_path / "tiny_mu.json"
    pfest.save_pair(pfest.make_finite_pair([2.5e-308, 1.0], [0.9, 0.1], 1.0), path)
    return ["--pair", str(path)]


def test_sampling_plan_past_float_range_prints_an_integer(capsys, tiny_mu_pair):
    code, out, err = _run(
        capsys, ["plan", *tiny_mu_pair, "--eps", "0.1", "--method", "sampling"]
    )
    assert (code, err) == (EXIT_OK, "")
    n = int(re.search(r" n=(\d+) ", out).group(1))
    assert n > sys.float_info.max


def test_race_past_float_range_exits_one_with_message(capsys, tiny_mu_pair):
    _, plan, _ = _run(
        capsys, ["plan", *tiny_mu_pair, "--eps", "0.1", "--method", "sampling"]
    )
    n = re.search(r" n=(\d+) ", plan).group(1)
    code, out, err = _run(capsys, ["sample", *tiny_mu_pair, "--eps", "0.1", "--seed", "1"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("pfest: error: ")
    assert err.count("\n") == 1
    assert f" n={n} " in err
    # repeated races hold their winner law, not n draws, so they run
    code, out, err = _run(
        capsys, ["sample", *tiny_mu_pair, "--eps", "0.1", "--seed", "1", "--trials", "2"]
    )
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(f"sample trials=2 n={n} ")
    assert " null_races=0 " in out


def test_race_out_of_memory_exits_one_with_message(capsys, monkeypatch):
    def no_memory(pair, u):
        raise MemoryError

    # the single race draws its atoms here, and runs out on its n draws;
    # the repeated races build their winner law here, over the S atoms
    for name, extra, message in (
        ("draw_atoms", [], "races of n=7 draws do not fit in memory"),
        ("race_law", ["--trials", "2"],
         "the race law over S=2 atoms does not fit in memory"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(pfest.sampler, name, no_memory)
            code, out, err = _run(
                capsys, ["sample", *BERN, "--eps", "0.25", "--seed", "1", *extra]
            )
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"pfest: error: {message}\n"


def test_coverage_divides_by_tiny_levels_exactly(capsys):
    # IC_M = M for M <= 1 on this pair, so IC_M / M is 1.0 however small M is
    code, out, err = _run(capsys, ["coverage", *BERN, "--grid", "0:1e-305:3"])
    assert (code, err) == (EXIT_OK, "")
    ratios = [row.split(",")[3] for row in out.splitlines()[1:]]
    assert ratios == ["inf", "1.0", "1.0"]


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


@pytest.mark.parametrize("argv", [
    ["plan", "--eps", "0.25"],
    ["estimate", "--method", "mom", "--eps", "0.25", "--seed", "1"],
    ["coverage", "--grid", "0:1:3"],
])
def test_out_of_memory_exits_one_with_message(capsys, monkeypatch, argv):
    monkeypatch.setattr(pfest.harness, "make_random_pair", _no_memory)
    code, out, err = _run(
        capsys, [*argv, "--family", "random_finite", "--params", "support=1e12"]
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "pfest: error: out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_out_of_memory_in_a_grid_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(pfest.cli.np, "linspace", _no_memory)
    code, out, err = _run(capsys, ["coverage", *BERN, "--grid", "0:1:1000000000000"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("pfest: error: out of memory: ") and err.count("\n") == 1


def test_out_of_memory_in_an_experiment_exits_one(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(pfest.harness, "make_random_pair", _no_memory)
    path = tmp_path / "wide.ini"
    pfest.harness.save_config(pfest.harness.ExperimentConfig(
        kind="success_curve", eps_grid=(0.5,), delta=0.1, trials=1, master_seed=1,
        output_path=str(tmp_path / "out.csv"), family="random_finite",
        family_params=(("support", 10**12),),
    ), path)
    code, out, err = _run(capsys, ["experiment", "--config", str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("pfest: error: out of memory: ") and err.count("\n") == 1


def test_pair_file_not_an_object_exits_one(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1,2]")
    assert _run(capsys, ["coverage", "--pair", str(path), "--grid", "0:1:2"]) == (
        EXIT_ERROR, "", "pfest: error: pair document must be a JSON object, got list\n"
    )


@pytest.mark.parametrize("doc, message", [
    ('{"mu":[0.5,0.5],"nu":[0.5,0.5],"z":null}', "field 'z' must be a number, got NoneType"),
    ('{"mu":[0.5,0.5],"nu":[0.5,0.5],"z":[1]}', "field 'z' must be a number, got list"),
    ('{"mu":{"a":1},"nu":[0.5,0.5],"z":1}', "field 'mu' must be a list of numbers, got dict"),
    ('{"mu":[0.5,0.5],"nu":["a",0.5],"z":1}', "field 'nu' must be a list of numbers, got list"),
    ('{"mu":[0.5,0.5],"nu":[0.5,0.5],"z":"x"}', "field 'z' must be a number, got str"),
    ('{"mu":[0.5,0.5],"nu":[0.5,[0.5,1]],"z":1}',
     "field 'nu' must be a list of numbers, got list"),
], ids=["z-null", "z-list", "mu-object", "nu-string", "z-string", "nu-ragged"])
def test_pair_file_with_a_field_of_the_wrong_type_exits_one(capsys, tmp_path, doc, message):
    path = tmp_path / "pair.json"
    path.write_text(doc)
    assert _run(capsys, ["plan", "--pair", str(path), "--eps", "0.3"]) == (
        EXIT_ERROR, "", f"pfest: error: pair document {message}\n"
    )


def test_pair_with_a_density_past_the_float_range_exits_one(capsys, tmp_path):
    path = tmp_path / "huge_lambda.json"
    path.write_text(json.dumps({"mu": [1e-300, 1 - 1e-300], "nu": [0.5, 0.5], "z": 1e10}))
    code, out, err = _run(capsys, ["plan", "--pair", str(path), "--eps", "0.25"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("pfest: error: z_true * ratio at atom 0 passes the float range")
    assert err.count("\n") == 1


def test_pair_with_a_ratio_past_the_float_range_exits_one(capsys, tmp_path):
    path = tmp_path / "huge_ratio.json"
    path.write_text(json.dumps({"mu": [1e-320, 1.0], "nu": [0.5, 0.5], "z": 1.0}))
    assert _run(capsys, ["plan", "--pair", str(path), "--eps", "0.25"]) == (
        EXIT_ERROR, "",
        "pfest: error: ratio at atom 0 passes the float range: nu 0.5 / mu 1e-320\n",
    )


def test_repeated_in_process_calls_print_the_same(capsys):
    argv = ["plan", *BERN, "--eps", "0.2", "--delta", "0.01", "--method", "fdiv:kl"]
    first = _run(capsys, argv)
    _run(capsys, ["estimate", *BERN, "--method", "quantile", "--eps", "0.5",
                  "--seed", "3", "--trials", "2"])
    assert _run(capsys, argv) == first
    assert first[0] == EXIT_OK


@pytest.mark.parametrize(
    "argv,profiles",
    [
        (["plan", *BERN, "--eps", "0.25", "--method", "fdiv:kl"], 0),
        (["estimate", *BERN, "--method", "mom", "--plan", "fdiv:kl", "--eps", "0.25",
          "--seed", "1"], 0),
        (["plan", *BERN, "--eps", "0.25", "--method", "coverage"], 1),
    ],
    ids=["plan-fdiv", "estimate-fdiv", "plan-coverage"],
)
def test_plans_build_only_the_profiles_they_read(capsys, monkeypatch, argv, profiles):
    calls = []
    original = CoverageProfile.from_pair
    monkeypatch.setattr(
        CoverageProfile, "from_pair",
        lambda pair, **kw: calls.append(pair) or original(pair, **kw),
    )
    assert _run(capsys, argv)[0] == EXIT_OK
    assert len(calls) == profiles


def test_output_does_not_depend_on_blas_threads():
    # OpenBLAS splits dot products past 10 000 elements across threads;
    # on a support of 50 000 the divergence, the weighted pair's E_nu[g]
    # and the SNIS sums (n = 14 275) all pass that length. On a machine
    # with one CPU both runs use one thread and the test cannot fail.
    wide = ["--family", "random_finite", "--params", "support=50000,seed=3",
            "--eps", "0.25"]
    g = ",".join(str(1 + i % 3) for i in range(50_000))
    argvs = [
        ["plan", *wide, "--method", "fdiv:kl"],
        ["plan", *wide, "--method", "is", "--g", g],
        ["estimate", *wide, "--method", "snis", "--g", g, "--seed", "1",
         "--trials", "2", "--out", "-"],
    ]
    script = (
        "import json, sys\n"
        "from pfest.cli import main\n"
        "for argv in json.load(sys.stdin):\n"
        "    assert main(argv) == 0\n"
    )
    src = str(Path(pfest.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script], input=json.dumps(argvs), env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 6  # two plans, the estimate, 3 CSV lines


COMMAND_ARGVS = {
    "coverage": ["coverage", *BERN, "--grid", "0.5:2:2"],
    "plan": ["plan", *BERN, "--eps", "0.25"],
    "estimate": ["estimate", *BERN, "--method", "mom", "--eps", "0.25", "--seed", "1"],
    "sample": ["sample", *BERN, "--eps", "0.25", "--seed", "1"],
    "experiment": ["experiment", "--config", "missing.ini"],
}


@pytest.mark.parametrize("command", list(COMMAND_ARGVS))
def test_a_command_is_parsed_once(capsys, monkeypatch, command):
    # the top-level parser would parse the tokens, then hand them to the
    # command's parser to parse again: two calls
    calls = []
    original = pfest.cli._Parser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(pfest.cli._Parser, "parse_known_args", counted)
    _run(capsys, COMMAND_ARGVS[command])
    assert calls == [f"pfest {command}"]


@pytest.mark.parametrize("argv, message", [
    ([], "pfest: error: the following arguments are required: command"),
    (["bogus"], "pfest: error: argument command: invalid choice: 'bogus' (choose "
     "from 'coverage', 'plan', 'estimate', 'sample', 'experiment')"),
    (["--"], "pfest: error: the following arguments are required: command"),
], ids=["no-arguments", "unknown-command", "double-dash"])
def test_no_command_is_a_top_level_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == message
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: pfest [-h] {coverage,plan,estimate,sample,experiment}")


def _help(capsys, parse):
    with pytest.raises(SystemExit) as exc:
        parse()
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    return out


def test_top_level_help_lists_the_commands(capsys):
    out = _help(capsys, lambda: main(["-h"]))
    assert out.startswith("usage: pfest [-h] {coverage,plan,estimate,sample,experiment}")
    for command in COMMAND_ARGVS:
        assert f"\n    {command} " in out
    assert _help(capsys, lambda: main(["--help"])) == out


@pytest.mark.parametrize("command", list(COMMAND_ARGVS))
def test_command_help_is_what_the_top_level_parser_prints(capsys, command):
    # the top-level route hands "<command> -h" to the same command parser
    direct = _help(capsys, lambda: main([command, "-h"]))
    routed = _help(capsys, lambda: pfest.cli.build_parser().parse_args([command, "-h"]))
    assert direct == routed
    assert direct.startswith(f"usage: pfest {command} [-h]")


def test_a_stray_option_is_named_by_the_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", *BERN, "--eps", "0.25", "--bogus"])
    assert exc.value.code == "pfest plan: error: unrecognized arguments: --bogus"
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: pfest plan [-h] ")


def test_main_reads_the_process_arguments(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pfest", "plan", *BERN, "--eps", "0.2"])
    code, out, err = _run(capsys, None)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("plan method=coverage n=1958 ")
