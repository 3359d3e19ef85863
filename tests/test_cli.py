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
    ],
    ids=["unknown-method", "malformed-params", "params-without-value",
         "snis-with-plan", "grid-inf", "grid-nan"],
)
def test_bad_input_exits_one_with_message(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("pfest: error: ")
    assert err.count("\n") == 1


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
        CoverageProfile, "from_pair", lambda pair: calls.append(pair) or original(pair)
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
