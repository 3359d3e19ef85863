"""Byte-exact pins of CLI output and sweep fingerprints.

Every value below was recorded from the CLI and the harness as they
stand; a change that alters a plan, a random stream, an output format
or an exit code fails here first.
"""

import pytest

from pfest.cli import main
from pfest.harness import (
    ExperimentConfig,
    run_phase_transition,
    run_sampling_vs_counting,
    run_success_curve,
    table_fingerprint,
)

BERN = ["--family", "bernoulli", "--params", "p=0.5,eps=0.25"]
ACC = ["--eps", "0.25", "--delta", "0.1"]
EST = [*ACC, "--seed", "7", "--trials", "3", "--out", "-"]
CONSTS_IS = "constants=icov_target_divisor=6.0;plan_constant=6.0"

PLANS = {
    "coverage": "plan method=coverage n=1253 M=17.0 eps=0.25 delta=0.1 "
    "constants=icov_slack=4.0;plan_constant=8.0\n",
    "quantile": "plan method=quantile n=270 M=1.25 eps=0.25 delta=0.1 "
    "constants=cov_slack=4.0;plan_constant=18.0\n",
    "is": f"plan method=is n=11520 M=480.0 eps=0.25 delta=0.1 {CONSTS_IS}\n",
    "snis": f"plan method=snis n=11520 M=480.0 eps=0.25 delta=0.1 {CONSTS_IS}\n",
    "sampling": "plan method=sampling n=7 M=1.25 eps=0.25\n",
    "fdiv:kl": "plan method=fdiv:kl n=346 M=4.686200500174247 eps=0.25 "
    "delta=0.1 constants=c_threshold=1.0;gamma_mult=6.0;plan_constant=8.0 "
    "f=kl D=0.031583942401963216\n",
    "fdiv:chi2": "plan method=fdiv:chi2 n=295 M=3.1861406616345076 eps=0.25 "
    "delta=0.1 constants=c_threshold=1.0;gamma_mult=6.0;plan_constant=8.0 "
    "f=chi2 D=0.0625\n",
}

ESTIMATES = {
    "mom-coverage": (
        ["--method", "mom", "--plan", "coverage"],
        "estimate method=mom n=1253 M=17.0 trials=3 eps=0.25 delta=0.1 "
        "mean_estimate=0.9987179487179487 success_freq=1.0\n"
        "trial,n,estimate,rel_error,success\r\n"
        "0,1235,1.0115384615384615,0.011538461538461497,true\r\n"
        "1,1235,0.9884615384615385,0.011538461538461497,true\r\n"
        "2,1235,0.9961538461538462,0.0038461538461538325,true\r\n",
    ),
    "mom-fdiv:kl": (
        ["--method", "mom", "--plan", "fdiv:kl"],
        "estimate method=mom n=346 M=4.686200500174247 trials=3 eps=0.25 "
        "delta=0.1 mean_estimate=1.0 success_freq=1.0\n"
        "trial,n,estimate,rel_error,success\r\n"
        "0,342,1.0,0.0,true\r\n"
        "1,342,1.0277777777777777,0.02777777777777768,true\r\n"
        "2,342,0.9722222222222222,0.02777777777777779,true\r\n",
    ),
    "quantile": (
        ["--method", "quantile"],
        "estimate method=quantile n=270 M=1.25 trials=3 eps=0.25 delta=0.1 "
        "mean_estimate=1.25 success_freq=1.0\n"
        "trial,n,estimate,rel_error,success\r\n"
        "0,270,1.25,0.25,true\r\n"
        "1,270,1.25,0.25,true\r\n"
        "2,270,1.25,0.25,true\r\n",
    ),
    "snis": (
        ["--method", "snis", "--g", "0,1"],
        "estimate method=snis n=11520 M=480.0 trials=3 eps=0.25 delta=0.1 "
        "mean_estimate=0.6257531682840337 success_freq=1.0\n"
        "trial,n,estimate,rel_error,success\r\n"
        "0,11520,0.6232079242332088,0.0028673212268659045,true\r\n"
        "1,11520,0.6235340109460517,0.0023455824863173546,true\r\n"
        "2,11520,0.6305175696728406,0.008828111476544897,true\r\n",
    ),
}

# SNIS of a constant g near the float maximum, whose weighted sums pass
# the float range: the estimate is the constant
SNIS_NEAR_FLOAT_MAX = (
    ["estimate", *BERN, "--eps", "0.25", "--method", "snis", "--g", "1e308,1e308",
     "--seed", "1"],
    "estimate method=snis n=6120 M=255.0 trials=1 eps=0.25 delta=0.1 "
    "mean_estimate=1e+308 success_freq=1.0\n",
)

COVERAGE_HEADER = "M,cov,icov,icov_over_M,trunc_second_moment\r\n"
BERN_COVERAGE = (
    COVERAGE_HEADER + "0.0,1.0,0.0,inf,0.0\r\n"
    "0.5,1.0,0.5,1.0,0.0\r\n"
    "1.0,0.625,0.90625,0.90625,0.28125\r\n"
    "1.5,0.0,1.0625,0.7083333333333334,1.0625\r\n"
    "2.0,0.0,1.0625,0.53125,1.0625\r\n"
)

# (argv, stdout) of the commands that print a table or a race
TABLES = {
    "coverage-bernoulli": (["coverage", *BERN, "--grid", "0:2:5"], BERN_COVERAGE),
    # a singular mass: the coverage never falls below q, and M = 0 reads inf
    "coverage-point-mass": (
        ["coverage", "--family", "point_mass", "--params", "q=0.3",
         "--grid", "0:2:3"],
        COVERAGE_HEADER + "0.0,1.0,0.0,inf,0.0\r\n"
        "1.0,0.3,0.7899999999999999,0.7899999999999999,0.48999999999999994\r\n"
        "2.0,0.3,1.0899999999999999,0.5449999999999999,0.48999999999999994\r\n",
    ),
    "sample-one-race": (
        ["sample", *BERN, "--eps", "0.25", "--seed", "7"],
        "sample atom=1 n=7 M=1.25 eps=0.25 best_score=0.7752512788313172\n",
    ),
    "sample-trials": (
        ["sample", *BERN, "--eps", "0.25", "--seed", "7", "--trials", "50"],
        "sample trials=50 n=7 M=1.25 eps=0.25 empirical_tv=0.08499999999999999 "
        "null_races=0 freqs=0.46,0.54\n",
    ),
}

# (argv, stdout, bytes written to the --out file)
OUT_FILES = {
    "coverage": (["coverage", *BERN, "--grid", "0:2:5"], "", BERN_COVERAGE),
    "estimate": (
        ["estimate", *BERN, "--method", "mom", *ACC, "--seed", "7", "--trials", "3"],
        ESTIMATES["mom-coverage"][1].split("\n", 1)[0] + "\n",
        ESTIMATES["mom-coverage"][1].split("\n", 1)[1],
    ),
}

TV_INFEASIBLE = (
    "pfest: infeasible plan: tv: growth inverse is infinite at 3; the "
    "generator grows too slowly for this accuracy (linear regime)\n"
)

# (argv, exit code, stdout, stderr) for the error paths and the quirks
# the method dispatch must keep: the plan is computed before --trials is
# checked, only mom takes --plan, and only the methods that read a g
# table take --g.
OUTCOMES = {
    "plan-infeasible": (
        ["plan", *BERN, "--eps", "0.25", "--method", "fdiv:tv"],
        2, "", TV_INFEASIBLE,
    ),
    "plan-unknown": (
        ["plan", *BERN, "--eps", "0.25", "--method", "bogus"],
        1, "", "pfest: error: unknown plan method 'bogus'\n",
    ),
    "plan-needs-g": (
        ["plan", *BERN, "--eps", "0.25", "--method", "snis"],
        1, "", "pfest: error: --g values are required for this method\n",
    ),
    "plan-g-size": (
        ["plan", *BERN, "--eps", "0.25", "--method", "is", "--g", "1"],
        1, "", "pfest: error: --g has 1 entries, support has 2\n",
    ),
    "plan-g-not-a-number": (
        ["plan", *BERN, "--eps", "0.25", "--method", "snis", "--g", "0,a"],
        1, "", "pfest: error: --g value for atom 1 must be a number, got 'a'\n",
    ),
    "plan-g-empty-entry": (
        ["plan", *BERN, "--eps", "0.25", "--method", "snis", "--g", "0,,1"],
        1, "", "pfest: error: --g value for atom 1 must be a number, got ''\n",
    ),
    "estimate-unknown-plan": (
        ["estimate", *BERN, "--method", "mom", "--plan", "bogus",
         "--eps", "0.25", "--seed", "1"],
        1, "", "pfest: error: unknown plan 'bogus'\n",
    ),
    "estimate-needs-g": (
        ["estimate", *BERN, "--method", "snis", "--eps", "0.25", "--seed", "1"],
        1, "", "pfest: error: --g values are required for this method\n",
    ),
    "estimate-trials-before-plan": (
        ["estimate", *BERN, "--method", "mom", "--plan", "fdiv:tv",
         "--eps", "0.25", "--seed", "1", "--trials", "0"],
        1, "", "pfest: error: --trials must be >= 1, got 0\n",
    ),
    "sample-trials-before-plan": (
        ["sample", "--family", "point_mass", "--params", "q=0.5", "--eps", "0.3",
         "--seed", "1", "--trials", "0"],
        1, "", "pfest: error: --trials must be >= 1, got 0\n",
    ),
    "estimate-bad-trials": (
        ["estimate", *BERN, "--method", "mom", "--eps", "0.25", "--seed", "1",
         "--trials", "0"],
        1, "", "pfest: error: --trials must be >= 1, got 0\n",
    ),
    "estimate-quantile-rejects-plan": (
        ["estimate", *BERN, "--method", "quantile", "--plan", "bogus",
         "--eps", "0.25", "--seed", "1"],
        1, "", "pfest: error: estimator 'quantile' runs on its own 'quantile' "
        "plan; only mom takes a plan\n",
    ),
    "plan-coverage-rejects-g": (
        ["plan", *BERN, "--eps", "0.25", "--method", "coverage", "--g", "bogus"],
        1, "", "pfest: error: method 'coverage' reads no --g table\n",
    ),
    "plan-level-past-float-range": (
        ["plan", *BERN, "--eps", "1e-10", "--delta", "1e-300", "--method", "is",
         "--g", "0,1"],
        2, "", "pfest: infeasible plan: the truncation level passes the float "
        "range; no finite sample size meets this plan\n",
    ),
    "params-unknown-key": (
        ["plan", "--family", "random_finite", "--params", "suport=12,seed=3",
         "--eps", "0.25"],
        1, "", "pfest: error: family 'random_finite' takes parameters "
        "['support', 'seed', 'z']; unknown: ['suport']\n",
    ),
    "params-non-integer-support": (
        ["plan", "--family", "random_finite", "--params", "support=2.7,seed=3",
         "--eps", "0.25"],
        1, "", "pfest: error: support_size must be an integer, got 2.7\n",
    ),
    "estimate-quantile-rejects-g": (
        ["estimate", *BERN, "--method", "quantile", "--g", "x",
         "--eps", "0.25", "--seed", "1"],
        1, "", "pfest: error: method 'quantile' reads no --g table\n",
    ),
    "estimate-seed-past-64-bits": (
        ["estimate", *BERN, "--method", "mom", "--eps", "0.25",
         "--seed", str(2**64)],
        1, "", f"pfest: error: seed must be a 64-bit unsigned integer, got {2**64}\n",
    ),
    "sample-eps-past-three": (
        ["sample", *BERN, "--eps", "5", "--seed", "1"],
        1, "", "pfest: error: eps must be in (0, 3), got 5.0\n",
    ),
    "plan-renyi-divergence-overflow": (
        ["plan", *BERN, "--eps", "0.25", "--method", "fdiv:renyi:alpha=1e40"],
        1, "", "pfest: error: renyi(alpha=1e+40): the divergence is finite but "
        "passes the float range on this pair\n",
    ),
    "plan-sampling-bad-delta": (
        ["plan", *BERN, "--eps", "0.25", "--delta", "7", "--method", "sampling"],
        1, "", "pfest: error: delta must be in (0, 1), got 7.0\n",
    ),
    "sample-seed-past-64-bits": (
        ["sample", *BERN, "--eps", "0.25", "--seed", str(2**64)],
        1, "", f"pfest: error: seed must be a 64-bit unsigned integer, got {2**64}\n",
    ),
}


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("method", list(PLANS))
def test_plan_stdout(capsys, method):
    g = ["--g", "0,1"] if method in ("is", "snis") else []
    assert _run(capsys, ["plan", *BERN, *ACC, "--method", method, *g]) == (
        0, PLANS[method], ""
    )


@pytest.mark.parametrize("name", list(ESTIMATES))
def test_estimate_stdout(capsys, name):
    args, expected = ESTIMATES[name]
    assert _run(capsys, ["estimate", *BERN, *args, *EST]) == (0, expected, "")


def test_snis_estimate_of_a_g_near_the_float_maximum(capsys):
    argv, expected = SNIS_NEAR_FLOAT_MAX
    assert _run(capsys, argv) == (0, expected, "")
    fields = dict(word.split("=") for word in expected.split()[1:])
    assert abs(float(fields["mean_estimate"]) - 1e308) <= 1e-12 * 1e308
    assert fields["success_freq"] == "1.0"


@pytest.mark.parametrize("name", list(TABLES))
def test_table_and_race_stdout(capsys, name):
    argv, expected = TABLES[name]
    assert _run(capsys, argv) == (0, expected, "")


@pytest.mark.parametrize("name", list(OUT_FILES))
def test_out_file_bytes(capsys, tmp_path, name):
    argv, stdout, body = OUT_FILES[name]
    path = tmp_path / "out.csv"
    assert _run(capsys, [*argv, "--out", str(path)]) == (0, stdout, "")
    assert path.read_bytes() == body.encode("utf-8")


@pytest.mark.parametrize("name", list(OUTCOMES))
def test_cli_outcome(capsys, name):
    argv, code, out, err = OUTCOMES[name]
    assert _run(capsys, argv) == (code, out, err)


FINGERPRINT_CONFIGS = {
    "success_curve": (
        run_success_curve,
        ExperimentConfig(
            kind="success_curve",
            eps_grid=(0.5, 0.25),
            delta=0.1,
            trials=40,
            master_seed=20260814,
            output_path="curve.csv",
            family="bernoulli",
            family_params=(("p", 0.5), ("eps", 0.25)),
        ),
        "f92d89183b61ad7ddf5ded91ee43914923056e927c468b0b56919224d78dc826",
    ),
    "phase_transition": (
        run_phase_transition,
        ExperimentConfig(
            kind="phase_transition",
            eps_grid=(0.5, 0.1),
            delta=0.1,
            trials=1,
            master_seed=20260814,
            output_path="phase.csv",
            f_names=("tv", "kl"),
            d_value=0.5,
        ),
        "804c56f3881759cdbc34944bbe974ff6192fb3dd9de1d22f6cb214734ce2fa6b",
    ),
    "sampling_vs_counting": (
        run_sampling_vs_counting,
        ExperimentConfig(
            kind="sampling_vs_counting",
            eps_grid=(0.5,),
            delta=1.0 / 3.0,
            trials=80,
            master_seed=11,
            output_path="svc.csv",
            family="two_point_mu",
            family_params=(("p", 0.25),),
        ),
        "9d53112ad808ce22d0fdaa294b61f0a879bdaedb412b18115f17656e5a9c70d1",
    ),
}


@pytest.mark.parametrize("kind", list(FINGERPRINT_CONFIGS))
def test_criterion_10_fingerprint_pinned(kind):
    # The configs of the criterion-10 determinism check in
    # test_acceptance.py, pinned to the hex values of their tables.
    run, config, expected = FINGERPRINT_CONFIGS[kind]
    assert table_fingerprint(run(config)) == expected
