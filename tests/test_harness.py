import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfest import (
    ConfigError,
    ExperimentConfig,
    SweepTable,
    build_family,
    config_from_text,
    config_to_text,
    csv_fingerprint,
    emit_csv,
    load_config,
    read_csv,
    run_experiment,
    run_phase_transition,
    run_sampling_vs_counting,
    run_success_curve,
    save_config,
    table_fingerprint,
)
from pfest.harness import _minimal_n

BERN_CONFIG = ExperimentConfig(
    kind="success_curve",
    family="bernoulli",
    family_params=(("p", 0.5), ("eps", 0.25)),
    eps_grid=(0.5,),
    delta=0.1,
    trials=50,
    master_seed=20260814,
    output_path="out.csv",
)


def test_build_family_variants():
    assert build_family("bernoulli", {"p": 0.5, "eps": 0.25}).support_size == 2
    assert build_family("two_point_mu", {"p": 0.25}).ratio_cache[1] == 4.0
    assert build_family("point_mass", {"q": 0.3}).singular_mass == pytest.approx(0.3)
    rnd = build_family("random_finite", {"support": 9, "seed": 3})
    assert rnd.support_size == 9
    with pytest.raises(ConfigError):
        build_family("gaussian", {})
    with pytest.raises(ConfigError):
        build_family("bernoulli", {"p": 0.5})


def test_build_family_rejects_unknown_parameters(tmp_path):
    with pytest.raises(ConfigError, match=r"\['support', 'seed', 'z'\]; unknown: \['suport'\]"):
        build_family("random_finite", {"suport": 12, "seed": 3})
    with pytest.raises(ConfigError, match=r"unknown: \['zz'\]"):
        build_family("bernoulli", {"p": 0.5, "eps": 0.25, "zz": 3})
    config = config_from_text(
        "[experiment]\nkind = success_curve\neps_grid = 0.5\ndelta = 0.1\n"
        "trials = 2\nmaster_seed = 1\noutput_path = out.csv\n"
        "family = two_point_mu\n\n[family_params]\np = 0.25\nq = 0.5\n"
    )
    with pytest.raises(ConfigError, match=r"takes parameters \['p', 'z'\]"):
        run_experiment(config)


def test_config_roundtrip():
    cfg = ExperimentConfig(
        kind="success_curve",
        family="bernoulli",
        family_params=(("p", 0.5), ("eps", 0.1)),
        eps_grid=(0.5, 0.25, 0.1),
        delta=0.05,
        trials=200,
        master_seed=987654321,
        output_path="results/run.csv",
        n_override=64,
    )
    assert config_from_text(config_to_text(cfg)) == cfg


@pytest.mark.parametrize("key", ["trials", "master_seed", "n_override"])
@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3"])
def test_a_config_count_or_seed_that_is_not_an_integer_is_named(key, bad):
    fields = dict(kind="success_curve", family="bernoulli", eps_grid=(0.5,), delta=0.1,
                  trials=2, master_seed=7, output_path="out.csv")
    with pytest.raises(ConfigError, match=f"^{key} must be an integer, got {bad!r}$"):
        ExperimentConfig(**{**fields, key: bad})
    # an integer-valued float is read as its int
    whole = ExperimentConfig(**{**fields, key: 3.0})
    assert type(getattr(whole, key)) is int and whole == ExperimentConfig(**{**fields, key: 3})


def test_config_roundtrip_via_file(tmp_path):
    cfg = ExperimentConfig(
        kind="phase_transition",
        f_names=("tv", "renyi:alpha=3"),
        eps_grid=(0.1,),
        delta=0.1,
        trials=1,
        master_seed=7,
        output_path="t.csv",
        d_value=0.5,
    )
    path = tmp_path / "exp.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


_KINDS = ("success_curve", "phase_transition", "sampling_vs_counting")
_WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_REAL = st.floats(allow_nan=False, allow_infinity=False)
_D_VALUE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(_KINDS))
    phase = kind == "phase_transition"
    return ExperimentConfig(
        kind=kind,
        eps_grid=tuple(draw(st.lists(_UNIT, min_size=1, max_size=4))),
        delta=draw(_UNIT),
        trials=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        output_path=draw(
            st.text(alphabet="abcxyz0123456789/._-", min_size=1, max_size=12)
        ),
        family=draw((st.just("") | _WORD) if phase else _WORD),
        family_params=tuple(
            draw(st.dictionaries(_WORD, st.integers() | _REAL, max_size=3)).items()
        ),
        f_names=tuple(
            draw(
                st.lists(
                    st.text(alphabet="abklrt23:=_", min_size=1, max_size=10),
                    min_size=int(phase),
                    max_size=3,
                )
            )
        ),
        n_override=draw(st.none() | st.integers(1, 2**40)),
        d_value=draw(_D_VALUE if phase else st.none() | _D_VALUE),
    )


@given(_configs())
def test_config_text_roundtrip_property(cfg):
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_param_types_survive():
    text = "\n".join(
        [
            "[experiment]",
            "kind = success_curve",
            "family = random_finite",
            "eps_grid = 0.5,0.1",
            "delta = 0.1",
            "trials = 20",
            "master_seed = 5",
            "output_path = o.csv",
            "",
            "[family_params]",
            "support = 12",
            "seed = 4",
        ]
    )
    cfg = config_from_text(text)
    # ints stay ints so seeds and sizes do not go through float
    assert cfg.params_dict == {"support": 12, "seed": 4}
    assert isinstance(cfg.params_dict["seed"], int)
    assert cfg.eps_grid == (0.5, 0.1)


@pytest.mark.parametrize(
    "mutation",
    [
        ("kind = success_curve", "kind = success_curve\nbogus_key = 1"),
        ("[family_params]", "[mystery]"),
        ("delta = 0.1", "delta = maybe"),
        ("kind = success_curve", "kind = warp_drive"),
        ("eps_grid = 0.5,0.1", "eps_grid = 0.5,1.5"),
        ("trials = 20", "trials = 0"),
    ],
)
def test_config_rejects_malformed(mutation):
    base = "\n".join(
        [
            "[experiment]",
            "kind = success_curve",
            "family = bernoulli",
            "eps_grid = 0.5,0.1",
            "delta = 0.1",
            "trials = 20",
            "master_seed = 5",
            "output_path = o.csv",
            "",
            "[family_params]",
            "p = 0.5",
            "eps = 0.25",
        ]
    )
    old, new = mutation
    with pytest.raises(ConfigError):
        config_from_text(base.replace(old, new))


def test_readme_config_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Experiment configs.*?```ini\n(.*?)```", readme, re.S)
    assert config_from_text(block.group(1)) == ExperimentConfig(
        kind="success_curve",
        family="bernoulli",
        family_params=(("p", 0.5), ("eps", 0.25)),
        eps_grid=(0.5, 0.25, 0.1),
        delta=0.1,
        trials=200,
        master_seed=20260814,
        output_path="curve.csv",
    )


def test_config_inline_comment_needs_whitespace():
    cfg = config_from_text(
        "[experiment]\n"
        "kind = phase_transition ; plan-only\n"
        "f_names = tv;kl\n"
        "eps_grid = 0.5\n"
        "delta = 0.1\n"
        "trials = 1\n"
        "master_seed = 0\n"
        "output_path = o.csv\n"
        "d_value = 0.5\t; tabs count as whitespace\n"
    )
    assert cfg.kind == "phase_transition"
    assert cfg.f_names == ("tv;kl",)
    assert cfg.d_value == 0.5


def test_config_missing_required_key():
    with pytest.raises(ConfigError, match="missing keys"):
        config_from_text("[experiment]\nkind = success_curve\n")


def test_config_requires_family_or_fnames():
    with pytest.raises(ConfigError, match="family"):
        ExperimentConfig(
            kind="success_curve",
            eps_grid=(0.5,),
            delta=0.1,
            trials=1,
            master_seed=0,
            output_path="x.csv",
        )
    with pytest.raises(ConfigError, match="f_names"):
        ExperimentConfig(
            kind="phase_transition",
            eps_grid=(0.5,),
            delta=0.1,
            trials=1,
            master_seed=0,
            output_path="x.csv",
            d_value=0.5,
        )


def test_sweep_table_column():
    table = SweepTable(columns=("a", "b"), rows=((1, 2.5), (3, 4.5)))
    assert table.column("b") == [2.5, 4.5]
    with pytest.raises(ValueError):
        table.column("c")


def test_emit_read_roundtrip(tmp_path):
    table = SweepTable(
        columns=("n", "value", "flag", "note"),
        rows=((3, 0.1 + 0.2, True, "ok"), (4, float("nan"), False, "")),
        metadata=(("kind", "demo"), ("delta", "0.1")),
    )
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    back = read_csv(path)
    assert back.columns == table.columns
    assert back.metadata == table.metadata
    # repr round-trip keeps the exact double
    assert float(back.rows[0][1]) == 0.1 + 0.2
    assert back.rows[0][2] == "true"
    assert math.isnan(float(back.rows[1][1]))


def test_emit_read_large_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    rows = tuple((i, float(v)) for i, v in enumerate(rng.random(10_000)))
    table = SweepTable(columns=("i", "x"), rows=rows)
    path = tmp_path / "big.csv"
    emit_csv(table, path)
    back = read_csv(path)
    assert len(back.rows) == 10_000
    assert all(float(b[1]) == r[1] for b, r in zip(back.rows, rows))


def test_emit_header_only(tmp_path):
    table = SweepTable(columns=("a", "b"), rows=())
    path = tmp_path / "empty.csv"
    emit_csv(table, path)
    back = read_csv(path)
    assert back.columns == ("a", "b")
    assert back.rows == ()


def test_read_rejects_headerless(tmp_path):
    path = tmp_path / "meta_only.csv"
    path.write_text("# kind=demo\r\n")
    with pytest.raises(ValueError, match="no header"):
        read_csv(path)


def test_fingerprint_ignores_wallclock():
    a = SweepTable(columns=("eps", "wallclock_ms"), rows=((0.5, 12.0), (0.1, 99.0)))
    b = SweepTable(columns=("eps", "wallclock_ms"), rows=((0.5, 55.5), (0.1, 1.25)))
    assert table_fingerprint(a) == table_fingerprint(b)
    c = SweepTable(columns=("eps", "wallclock_ms"), rows=((0.25, 12.0), (0.1, 99.0)))
    assert table_fingerprint(a) != table_fingerprint(c)


def test_fingerprint_ignores_the_format_tag():
    # a tag bump with no row moved moves no fingerprint; a row cell does
    rows = ((0.5, 3), (0.1, 7))
    a = SweepTable(("eps", "n"), rows, (("format", "pfest-sweep-v4"), ("kind", "demo")))
    b = SweepTable(("eps", "n"), rows, (("format", "pfest-sweep-v5"), ("kind", "demo")))
    assert table_fingerprint(a) == table_fingerprint(b)
    c = SweepTable(("eps", "n"), ((0.5, 3), (0.1, 8)), b.metadata)
    assert table_fingerprint(b) != table_fingerprint(c)
    d = SweepTable(("eps", "n"), rows, (("format", "pfest-sweep-v5"), ("kind", "other")))
    assert table_fingerprint(b) != table_fingerprint(d)


def test_csv_fingerprint_matches_table(tmp_path):
    table = run_success_curve(BERN_CONFIG)
    path = tmp_path / "run.csv"
    emit_csv(table, path)
    assert csv_fingerprint(path) == table_fingerprint(table)


def test_success_curve_planned_row():
    table = run_success_curve(BERN_CONFIG)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["n_planned"] == 314
    assert row["n_used"] == 304  # 19 groups of 16
    assert row["success_freq"] == 1.0
    assert row["mean_rel_error"] == 0.015
    assert row["reason"] == ""
    assert ("mom_group_rate", "8.0") in table.metadata


def test_success_curve_override_starves_the_median():
    cfg = ExperimentConfig(
        kind="success_curve",
        family="bernoulli",
        family_params=(("p", 0.5), ("eps", 0.25)),
        eps_grid=(0.1,),
        delta=0.1,
        trials=50,
        master_seed=20260814,
        output_path="out.csv",
        n_override=19,
    )
    table = run_success_curve(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    # one draw per group: the median is a single ratio, never within 10%
    assert row["n_used"] == 19
    assert row["success_freq"] == 0.0
    assert row["mean_rel_error"] == pytest.approx(0.25)


def test_success_curve_singular_family_reports_reason():
    cfg = ExperimentConfig(
        kind="success_curve",
        family="point_mass",
        family_params=(("q", 0.3),),
        eps_grid=(0.5,),
        delta=0.1,
        trials=5,
        master_seed=1,
        output_path="out.csv",
    )
    table = run_success_curve(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    assert math.isnan(row["success_freq"])
    assert row["n_planned"] == 0
    assert "absolutely continuous" in row["reason"]


def test_runners_check_kind():
    with pytest.raises(ConfigError):
        run_phase_transition(BERN_CONFIG)
    with pytest.raises(ConfigError):
        run_sampling_vs_counting(BERN_CONFIG)


def test_phase_transition_rows():
    cfg = ExperimentConfig(
        kind="phase_transition",
        f_names=("tv", "kl"),
        eps_grid=(0.5, 0.1),
        delta=0.1,
        trials=1,
        master_seed=3,
        output_path="out.csv",
        d_value=0.5,
    )
    table = run_phase_transition(cfg)
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    assert len(rows) == 4
    tv_rows = [r for r in rows if r["f_name"] == "tv"]
    kl_rows = [r for r in rows if r["f_name"] == "kl"]
    assert all(not r["feasible"] and r["reason"] for r in tv_rows)
    assert all(r["feasible"] and r["n_planned"] > 0 for r in kl_rows)
    assert all(r["regime"] == "linear" for r in tv_rows)
    assert {r["gamma_argument"] for r in rows} == {6.0, 30.0}


def test_sampling_vs_counting_row():
    cfg = ExperimentConfig(
        kind="sampling_vs_counting",
        family="two_point_mu",
        family_params=(("p", 0.25),),
        eps_grid=(0.5,),
        delta=1 / 3,
        trials=80,
        master_seed=11,
        output_path="out.csv",
    )
    table = run_sampling_vs_counting(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["m_sampler"] == 4.0
    assert row["sampler_n_empirical"] >= 1
    assert row["estimator_n_empirical"] > row["sampler_n_empirical"]
    assert row["n_ratio"] == row["estimator_n_empirical"] / row["sampler_n_empirical"]
    assert row["reason"] == ""


def test_minimal_n_bisection():
    calls = []

    def probe(n):
        calls.append(n)
        return n >= 37

    assert _minimal_n(probe) == 37
    assert _minimal_n(lambda n: False, cap=64) == 0
    assert _minimal_n(lambda n: True) == 1


def test_run_experiment_dispatch():
    table = run_experiment(BERN_CONFIG)
    assert table.columns[0] == "family"


_CONSTANTS_METADATA = (
    ("mom_group_rate", "8.0"),
    ("coverage_plan_constant", "8.0"),
    ("fdiv_plan_constant", "8.0"),
    ("fdiv_gamma_mult", "6.0"),
    ("quantile_plan_constant", "18.0"),
    ("quantile_gamma_mult", "4.0"),
    ("is_plan_constant", "6.0"),
    ("sampling_plan_constant", "2.0"),
)


def test_success_curve_header_pinned():
    # Empty family_params still echo as an empty value right after the
    # family; n_override follows, and output_path never appears.
    cfg = ExperimentConfig(
        kind="success_curve",
        eps_grid=(0.5, 0.25),
        delta=0.1,
        trials=3,
        master_seed=9,
        output_path="rf.csv",
        family="random_finite",
        n_override=40,
    )
    assert run_success_curve(cfg).metadata == (
        ("format", "pfest-sweep-v6"),
        ("kind", "success_curve"),
        ("eps_grid", "0.5,0.25"),
        ("delta", "0.1"),
        ("trials", "3"),
        ("master_seed", "9"),
        ("family", "random_finite"),
        ("family_params", ""),
        ("n_override", "40"),
        *_CONSTANTS_METADATA,
    )


def test_phase_transition_header_pinned():
    cfg = ExperimentConfig(
        kind="phase_transition",
        eps_grid=(0.5,),
        delta=0.2,
        trials=1,
        master_seed=0,
        output_path="p.csv",
        f_names=("kl", "renyi:alpha=3"),
        d_value=0.5,
    )
    assert run_phase_transition(cfg).metadata == (
        ("format", "pfest-sweep-v6"),
        ("kind", "phase_transition"),
        ("eps_grid", "0.5"),
        ("delta", "0.2"),
        ("trials", "1"),
        ("master_seed", "0"),
        ("f_names", "kl,renyi:alpha=3"),
        ("d_value", "0.5"),
        *_CONSTANTS_METADATA,
    )
