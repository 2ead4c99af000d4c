import json
import multiprocessing
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmatch import adversaries, campaigns, generators, serial
from ncmatch.cli import main
from ncmatch.errors import BadSubset, InvalidInstance, NcmatchError, RationalTooLarge
from ncmatch.geometry import BNM, CIRCLE, CONVEX, GENERAL, MNM


# ---------------------------------------------------------------------------
# generators


def test_random_circle_deterministic_and_valid():
    a = generators.random_circle_instance(6, MNM, 42)
    b = generators.random_circle_instance(6, MNM, 42)
    assert [p.angle for p in a.points] == [p.angle for p in b.points]
    assert a.geometry == CIRCLE and a.n == 6


def test_random_convex_polygon_is_strictly_convex():
    for seed in range(1, 20, 2):
        inst = generators.random_convex_polygon_instance(5, BNM, seed)
        assert inst.geometry == CONVEX
        assert inst.points[0].color == "blue"


def test_random_general_has_distinct_x():
    inst = generators.random_general_instance(8, 3)
    xs = [p.x for p in inst.points]
    assert len(set(xs)) == len(xs)
    assert inst.geometry == GENERAL


# ---------------------------------------------------------------------------
# JSON round trips


def test_instance_roundtrip_is_bit_exact(tmp_path):
    ai = adversaries.markov_instance(10, 3)
    path = tmp_path / "inst.json"
    serial.dump_instance(path, ai)
    back = serial.load_instance(path)
    assert [p.angle for p in back.instance.points] == [
        p.angle for p in ai.instance.points
    ]
    assert [p.x for p in back.instance.points] == [p.x for p in ai.instance.points]
    assert back.parent == ai.parent
    assert back.coins_f == ai.coins_f
    assert back.meta["seed"] == 3


def test_bnm_roundtrip_keeps_sigma(tmp_path):
    ai = adversaries.bnm_red_instance((2, 1, 4, 3))
    path = tmp_path / "perm.json"
    serial.dump_instance(path, ai)
    back = serial.load_instance(path)
    assert back.hidden_perm == (2, 1, 4, 3)
    assert back.instance.kind == BNM


def test_loader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInstance):
        serial.load_instance(path)
    path.write_text(json.dumps({"kind": "MNM", "geometry": "circle", "points": [
        {"x": "1/2", "y": "1/2"}
    ]}))
    with pytest.raises(InvalidInstance):
        serial.load_instance(path)


def test_rational_parsing():
    assert serial.parse_rational("3/4") == Fraction(3, 4)
    assert serial.parse_rational(5) == Fraction(5)
    with pytest.raises(InvalidInstance):
        serial.parse_rational("1/0")
    with pytest.raises(InvalidInstance):
        serial.parse_rational("x")


@pytest.mark.parametrize("text", ["1e400", "2.5", " 3/4"])
def test_rational_parsing_takes_only_the_written_form(text):
    with pytest.raises(InvalidInstance, match="bad rational literal"):
        serial.parse_rational(text)


def test_run_on_a_coordinate_with_an_exponent_exits_2(tmp_path):
    doc = serial.instance_to_json(generators.random_general_instance(2, 0))
    doc["points"][0]["x"] = "1e400"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run", "sorted", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "InvalidInstance: bad rational literal '1e400'"}
    assert res.stdout == ""


def test_polygon_instance_roundtrip_and_svg(tmp_path):
    from ncmatch import svg

    inst = generators.random_convex_polygon_instance(4, MNM, 5)
    path = tmp_path / "poly.json"
    serial.dump_instance(path, inst)
    back = serial.load_instance(path)
    assert [(p.x, p.y) for p in back.instance.points] == [
        (p.x, p.y) for p in inst.points
    ]
    assert back.instance.geometry == CONVEX
    rendered = svg.render_svg(inst)
    assert rendered.startswith("<svg") and rendered.endswith("</svg>")


# ---------------------------------------------------------------------------
# CLI


def test_cli_generate_run_bt(tmp_path):
    runner = CliRunner()
    out = tmp_path / "fig2.json"
    res = runner.invoke(
        main, ["generate", "bnm-perm", "--sigma", "2,1,4,3", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["run", "bt", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["matched"] == 8
    assert report["perfect"] is True
    assert report["bits_read"] == report["bits_written"] == 4
    assert report["meta"]["family"] == "bnm-perm"


def test_cli_generate_markov_rerun_identical(tmp_path):
    runner = CliRunner()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = runner.invoke(
            main, ["generate", "markov", "--n", "50", "--seed", "7", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
    assert json.loads(a.read_text())["points"] == json.loads(b.read_text())["points"]


def test_cli_run_greedy_on_markov_reports_unmatched(tmp_path):
    runner = CliRunner()
    out = tmp_path / "m.json"
    runner.invoke(main, ["generate", "markov", "--n", "30", "--seed", "1", "--out", str(out)])
    res = runner.invoke(main, ["run", "greedy", str(out)])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["matched"] + report["unmatched"] == 60
    assert report["bits_read"] == 0


def test_cli_svg_is_presentation_only(tmp_path):
    runner = CliRunner()
    out = tmp_path / "i.json"
    svg_path = tmp_path / "render.svg"
    runner.invoke(
        main,
        ["generate", "random-convex", "--n", "4", "--kind", "MNM", "--seed", "2", "--out", str(out)],
    )
    r1 = runner.invoke(main, ["run", "asap", str(out), "--svg", str(svg_path)])
    assert r1.exit_code == 0
    assert svg_path.exists() and svg_path.read_text().startswith("<svg")
    svg_path.unlink()
    r2 = runner.invoke(main, ["run", "asap", str(out)])
    a = json.loads(r1.output)
    b = json.loads(r2.output)
    a.pop("svg")
    assert a == b


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    # bad params -> 2
    res = runner.invoke(main, ["generate", "bnm-perm", "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    res = runner.invoke(
        main, ["generate", "bnm-perm", "--sigma", "2,3,1", "--out", str(tmp_path / "x.json")]
    )
    assert res.exit_code == 2  # non-avoiding sigma rejected
    # precondition mismatch -> 3
    gen = tmp_path / "g.json"
    runner.invoke(main, ["generate", "random-general", "--n", "3", "--out", str(gen)])
    res = runner.invoke(main, ["run", "asap", str(gen)])
    assert res.exit_code == 3
    res = runner.invoke(main, ["run", "bt", str(gen)])
    assert res.exit_code == 3


def test_cli_verify_catalan_and_rate(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["verify", "catalan-bijections", "--n", "6"])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["ok"] is True
    assert all(r["measured"] == 132 for r in summary["results"])
    res = runner.invoke(main, ["verify", "rate-table"])
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"] is True


def test_cli_verify_bnm_lb(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["verify", "bnm-lb", "--n", "2"])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["results"][0]["measured"] == 2


def test_cli_verify_coupling_small():
    runner = CliRunner()
    res = runner.invoke(
        main, ["verify", "coupling", "--n", "40", "--trials", "300", "--seed", "5"]
    )
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["ok"] is True


@pytest.mark.parametrize(
    "check, params",
    [
        ("bnm-lb", {"n": 3}),
        ("mnm-lb", {"k": 2, "deep": True}),
        ("catalan-bijections", {"n": 8}),
    ],
)
def test_cli_verify_defaults_without_a_size_option(check, params):
    res = CliRunner().invoke(main, ["verify", check])
    summary = json.loads(res.output)
    assert summary["params"] == params
    assert res.exit_code == (0 if summary["ok"] else 1)


def test_cli_verify_mnm_lb_passes_at_its_default():
    # every member of the k = 2 family has a prior that completes
    res = CliRunner().invoke(main, ["verify", "mnm-lb"])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["ok"] is True
    (entry,) = [r for r in summary["results"] if r["name"] == "members with perfect completion"]
    assert entry["measured"] == 99


def test_cli_verify_coupling_defaults_to_two_hundred_pairs(monkeypatch):
    monkeypatch.delenv("NCMATCH_WORKERS", raising=False)
    res = CliRunner().invoke(main, ["verify", "coupling", "--trials", "300", "--seed", "5"])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["params"] == {"n": 200, "trials": 300, "seed": 5, "workers": 1}


def test_cli_verify_catalan_bijections_fails_fast_past_the_cap():
    # C_12 = 208 012 trees and words would be counted before the capped
    # 231-avoiding enumeration if it ran last
    start = time.perf_counter()
    res = CliRunner().invoke(main, ["verify", "catalan-bijections", "--n", "12"])
    elapsed = time.perf_counter() - start
    assert res.exit_code == 2
    assert "CapExceeded" in res.output
    assert elapsed < 0.5


def test_cli_verify_bnm_lb_fails_fast_past_the_cap():
    # C_10 = 16 796 family members were built before the 64-member cap check
    start = time.perf_counter()
    res = CliRunner().invoke(main, ["verify", "bnm-lb", "--n", "10"])
    elapsed = time.perf_counter() - start
    assert res.exit_code == 2
    assert "CapExceeded" in res.output
    assert elapsed < 0.5


def test_cli_verify_bnm_lb_results_at_n_3():
    res = CliRunner().invoke(main, ["verify", "bnm-lb", "--n", "3"])
    assert res.exit_code == 0, res.output
    assert [(r["name"], r["measured"]) for r in json.loads(res.output)["results"]] == [
        ("cover(all avoiding sigma, n=3)", 5),
        ("cover below factorial count", True),
        ("cover of the {231, 213} pair", 1),
    ]


def test_run_maps_every_ncmatch_error_to_a_json_error(tmp_path):
    # x fields that disagree with the angles make sorted name a partner the
    # engine refuses: an IllegalMatch, which exits 2 with a JSON error
    path = tmp_path / "shuffled.json"
    serial.dump_instance(path, generators.random_circle_instance(3, MNM, 0))
    doc = json.loads(path.read_text())
    xs = [p["x"] for p in doc["points"]]
    random.Random(0).shuffle(xs)
    for p, x in zip(doc["points"], xs):
        p["x"] = x
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run", "sorted", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {
        "error": "IllegalMatch: arrival 6 tried to match unavailable point 4"
    }


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the process count asked
    for and maps in this process."""

    started: list = []

    def __init__(self, processes):
        self.started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args, chunksize):
        return [fn(a) for a in args]


@pytest.mark.parametrize("trials, processes", [(100, [2]), (64, []), (600, [8])])
def test_coupling_starts_no_more_workers_than_chunks(monkeypatch, trials, processes):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    many = campaigns.check_coupling(n=6, trials=trials, seed=2, workers=8)
    assert _RecordingPool.started == processes
    one = campaigns.check_coupling(n=6, trials=trials, seed=2, workers=1)
    assert many["params"] == {**one["params"], "workers": 8}
    assert many["results"] == one["results"]


def test_coupling_over_a_real_pool_of_two_matches_one_process():
    # three chunks of trials, so two worker processes start
    two = campaigns.check_coupling(n=10, trials=130, seed=3, workers=2)
    one = campaigns.check_coupling(n=10, trials=130, seed=3, workers=1)
    assert two["params"]["workers"] == 2
    assert two["results"] == one["results"]


def test_python_dash_m_runs_the_cli():
    src = Path(adversaries.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "ncmatch", "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ncmatch, version 0.1.0"


# ---------------------------------------------------------------------------
# malformed input: typed errors only


_json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.sampled_from(["", "1/2", "0", "3/0", "x", "blue", "red", MNM, BNM, CIRCLE, CONVEX]),
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["x", "y", "angle", "color", "kind", "points", "n", "j"]),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=12,
)
_point_doc = st.dictionaries(
    st.sampled_from(["x", "y", "angle", "color"]), _json_value, max_size=4
)
_instance_doc = st.fixed_dictionaries(
    {
        "kind": st.one_of(st.sampled_from([MNM, BNM]), _json_value),
        "geometry": st.one_of(st.sampled_from([CIRCLE, CONVEX, GENERAL]), _json_value),
        "points": st.one_of(st.lists(st.one_of(_point_doc, _json_value), max_size=6), _json_value),
    },
    optional={
        "n": _json_value,
        "annotations": st.one_of(
            st.dictionaries(
                st.sampled_from(["parent", "fake", "coins_f", "coins_r", "sigma", "j", "intervals"]),
                _json_value,
                max_size=4,
            ),
            _json_value,
        ),
        "meta": _json_value,
    },
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_instance_doc, _json_value))
def test_loader_fuzz_raises_only_typed_errors(doc):
    try:
        serial.instance_from_json(doc)
    except NcmatchError:
        pass


@pytest.mark.parametrize(
    "points",
    [[{"y": "0/1", "color": None}, {"x": "1/1", "y": "0/1", "color": None}], "ab", [1, 2]],
    ids=["point-without-x", "points-string", "points-ints"],
)
def test_loader_rejects_malformed_points(tmp_path, points):
    doc = {"kind": MNM, "geometry": GENERAL, "points": points}
    with pytest.raises(InvalidInstance):
        serial.instance_from_json(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run", "bt", str(path)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output and "InvalidInstance" in res.output


def test_loader_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(InvalidInstance):
        serial.load_instance(path)


def test_format_rational_names_the_digit_limit():
    with pytest.raises(RationalTooLarge, match="digits"):
        serial.format_rational(Fraction(1, 10**5000))


def test_generate_markov_past_the_digit_limit_exits_2_without_a_file(tmp_path):
    out = tmp_path / "m.json"
    res = CliRunner().invoke(
        main, ["generate", "markov", "--n", "11000", "--seed", "1", "--out", str(out)]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "RationalTooLarge" in res.output
    assert not out.exists()


# ---------------------------------------------------------------------------
# `ncmatch generate` dispatch through cli.FAMILIES

_FAMILY_CALLS = {
    "bnm-perm": (["--sigma", "2,1,4,3"], lambda: adversaries.bnm_red_instance((2, 1, 4, 3))),
    "mnm-family": (
        ["--k", "2", "--j", "2", "--intervals", "1,5"],
        lambda: adversaries.mnm_family_instance(2, 2, [1, 5]),
    ),
    "markov": (["--n", "9", "--seed", "4"], lambda: adversaries.markov_instance(9, 4)),
    "random-convex": (
        ["--n", "5", "--kind", "BNM", "--seed", "3"],
        lambda: generators.random_convex_instance(5, BNM, 3),
    ),
    "random-general": (
        ["--n", "4", "--seed", "2"],
        lambda: generators.random_general_instance(4, 2),
    ),
}


@pytest.mark.parametrize("family", list(_FAMILY_CALLS))
def test_generate_writes_the_file_of_a_direct_builder_call(tmp_path, family):
    from ncmatch import __version__
    from ncmatch.cli import FAMILIES

    assert set(FAMILIES) == set(_FAMILY_CALLS)
    args, build = _FAMILY_CALLS[family]
    out, ref = tmp_path / "cli.json", tmp_path / "ref.json"
    res = CliRunner().invoke(main, ["generate", family, *args, "--out", str(out)])
    assert res.exit_code == 0, res.output
    seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 0
    meta = {"family": family, "seed": seed, "generator": f"ncmatch-{__version__}"}
    serial.dump_instance(ref, build(), meta=meta)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "family, args, message",
    [
        ("bnm-perm", [], "bnm-perm needs --sigma"),
        ("mnm-family", [], "mnm-family needs --k and --j"),
        ("mnm-family", ["--k", "2"], "mnm-family needs --j"),
        ("markov", [], "markov needs --n"),
        ("random-convex", [], "random-convex needs --n"),
        ("random-general", ["--seed", "3"], "random-general needs --n"),
    ],
)
def test_generate_names_the_missing_options(tmp_path, family, args, message):
    out = tmp_path / "x.json"
    res = CliRunner().invoke(main, ["generate", family, *args, "--out", str(out)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": f"InvalidInstance: {message}"}
    assert not out.exists()


@pytest.mark.parametrize(
    "family, args, message",
    [
        ("random-general", ["--n", "2", "--kind", "BNM"], "random-general does not take --kind"),
        ("markov", ["--n", "3", "--kind", "BNM"], "markov does not take --kind"),
        ("bnm-perm", ["--sigma", "1,2", "--n", "5"], "bnm-perm does not take --n"),
        # a given value equal to the default still counts as given
        ("bnm-perm", ["--sigma", "1,2", "--seed", "0"], "bnm-perm does not take --seed"),
        ("mnm-family", ["--kind", "MNM"], "mnm-family does not take --kind"),
    ],
)
def test_generate_rejects_options_its_family_ignores(tmp_path, family, args, message):
    out = tmp_path / "x.json"
    res = CliRunner().invoke(main, ["generate", family, *args, "--out", str(out)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": f"InvalidInstance: {message}"}
    assert not out.exists()


@pytest.mark.parametrize("j, intervals", [("1", "1,1"), ("2", "5,1,5")])
def test_generate_rejects_repeated_interval_ids(tmp_path, j, intervals):
    out = tmp_path / "f.json"
    args = ["--k", "2", "--j", j, "--intervals", intervals, "--out", str(out)]
    res = CliRunner().invoke(main, ["generate", "mnm-family", *args])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"].startswith("BadSubset: interval ids repeat")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["greedy", "--unknown-n", "--tie-break", "max"], "greedy does not take --unknown-n"),
        (["bt", "--tie-break", "min"], "bt does not take --tie-break"),
        (["sorted", "--unknown-n"], "sorted does not take --unknown-n"),
    ],
)
def test_run_rejects_options_its_algorithm_ignores(run_files, args, message):
    alg, *options = args
    res = CliRunner().invoke(main, ["run", alg, str(run_files / "gen.json"), *options])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": f"InvalidInstance: {message}"}
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["rate-table", "--n", "5"], "rate-table does not take --n"),
        (["bnm-lb", "--k", "2"], "bnm-lb does not take --k"),
        (["mnm-lb", "--seed", "1"], "mnm-lb does not take --seed"),
        (["catalan-bijections", "--trials", "3"], "catalan-bijections does not take --trials"),
        (["coupling", "--n", "40", "--k", "3"], "coupling does not take --k"),
    ],
)
def test_verify_rejects_options_its_campaign_ignores(args, message):
    res = CliRunner().invoke(main, ["verify", *args])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": f"InvalidInstance: {message}"}
    assert res.stdout == ""


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    # every generate and run line of the README's CLI block, in order, so
    # the option rule cannot break documented usage
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [
        shlex.split(line) for line in block.splitlines()
        if line.startswith(("ncmatch generate ", "ncmatch run "))
    ]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for _ncmatch, *args in lines:
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, (args, res.output)
    assert (tmp_path / "perm.svg").exists()


# ---------------------------------------------------------------------------
# `ncmatch run` dispatch through engine.ALGORITHMS

_REPORT = (
    '{{"algorithm": "{alg}", "kind": "{kind}", "geometry": "{geometry}", "n": {n}, '
    '"matched": {matched}, "unmatched": {unmatched}, "perfect": {perfect}, '
    '"bits_written": {bits}, "bits_read": {bits}, "violations": {{"crossings": 0, '
    '"color": 0, "duplicate_endpoints": 0}}, "meta": {meta}}}\n'
)


@pytest.fixture
def run_files(tmp_path):
    runner = CliRunner()
    for name, args in {
        "bnm": ["random-convex", "--n", "6", "--kind", "BNM", "--seed", "3"],
        "mnm": ["random-convex", "--n", "6", "--kind", "MNM", "--seed", "4"],
        "gen": ["random-general", "--n", "6", "--seed", "5"],
        "mk": ["markov", "--n", "8", "--seed", "2"],
    }.items():
        res = runner.invoke(main, ["generate", *args, "--out", str(tmp_path / f"{name}.json")])
        assert res.exit_code == 0, res.output
    return tmp_path


def test_cli_run_choices_come_from_the_registry():
    from ncmatch.engine import ALGORITHMS

    res = CliRunner().invoke(main, ["run", "--help"])
    assert res.exit_code == 0
    assert "{" + "|".join(ALGORITHMS) + "}" in res.output
    assert "{bt|asap|sorted|greedy}" in res.output
    res = CliRunner().invoke(main, ["run", "bogus", "x.json"])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args, file, fields",
    [
        (["bt"], "bnm", dict(kind="BNM", geometry="convex", n=6, matched=12, bits=8, seed=3)),
        (["asap"], "mnm", dict(kind="MNM", geometry="circle", n=6, matched=12, bits=8, seed=4)),
        (
            ["asap", "--unknown-n", "--tie-break", "max"],
            "mnm",
            dict(kind="MNM", geometry="circle", n=6, matched=12, bits=13, seed=4),
        ),
        (["sorted"], "gen", dict(kind="MNM", geometry="general", n=6, matched=12, bits=18, seed=5)),
        (["greedy"], "mk", dict(kind="MNM", geometry="circle", n=8, matched=14, bits=0, seed=2)),
    ],
)
def test_cli_run_reports_are_byte_identical(run_files, args, file, fields):
    from ncmatch import __version__

    alg, *options = args
    res = CliRunner().invoke(main, ["run", alg, str(run_files / f"{file}.json"), *options])
    assert res.exit_code == 0, res.output
    n, matched, seed = fields["n"], fields["matched"], fields["seed"]
    family = {"bnm": "random-convex", "mnm": "random-convex", "gen": "random-general"}
    if file == "mk":
        meta = {"family": "markov", "n": n, "seed": seed, "rng": "python-random-mt19937"}
    else:
        meta = {"family": family[file], "seed": seed}
    meta["generator"] = f"ncmatch-{__version__}"
    assert res.stdout == _REPORT.format(
        alg=alg, kind=fields["kind"], geometry=fields["geometry"], n=n, matched=matched,
        unmatched=2 * n - matched, perfect=json.dumps(matched == 2 * n),
        bits=fields["bits"], meta=json.dumps(meta),
    )


@pytest.mark.parametrize(
    "alg, file, error",
    [
        ("bt", "mnm", "InvalidInstance: this algorithm runs on BNM instances"),
        ("asap", "gen", "NotConvex: this algorithm needs points in convex position"),
        ("asap", "bnm", "InvalidInstance: this algorithm runs on MNM instances"),
        ("sorted", "bnm", "InvalidInstance: x-sorted matching runs on MNM instances"),
    ],
)
def test_cli_run_precondition_failures_exit_3(run_files, alg, file, error):
    res = CliRunner().invoke(main, ["run", alg, str(run_files / f"{file}.json")])
    assert res.exit_code == 3
    assert res.stderr == json.dumps({"error": error}) + "\n"


# ---------------------------------------------------------------------------
# bad sizes and unwritable paths: exit 2 with a JSON error


@pytest.mark.parametrize("family", ["random-convex", "random-general"])
@pytest.mark.parametrize("n", [0, -1])
# random-convex draws a circle on even seeds and a polygon on odd ones
@pytest.mark.parametrize("seed", [0, 1])
def test_cli_generate_rejects_sizes_below_one(tmp_path, family, n, seed):
    out = tmp_path / "x.json"
    res = CliRunner().invoke(
        main, ["generate", family, "--n", str(n), "--seed", str(seed), "--out", str(out)]
    )
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "ValueError: need n >= 1"}
    assert not out.exists()


@pytest.mark.parametrize("args", [["--trials", "0"], ["--n", "1", "--trials", "50"]])
def test_cli_verify_coupling_without_a_y_coin_exits_2(args):
    res = CliRunner().invoke(main, ["verify", "coupling", *args])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"].startswith("ValueError: no Y coin")
    assert res.stdout == ""


def test_cli_generate_to_a_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "x.json"
    res = CliRunner().invoke(main, ["generate", "random-general", "--n", "2", "--out", str(out)])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"].startswith("FileNotFoundError: ")


def test_cli_run_svg_to_a_missing_directory_exits_2(tmp_path):
    gen, svg_out = tmp_path / "g.json", tmp_path / "missing" / "x.svg"
    runner = CliRunner()
    res = runner.invoke(main, ["generate", "random-general", "--n", "2", "--out", str(gen)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["run", "sorted", str(gen), "--svg", str(svg_out)])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"].startswith("FileNotFoundError: ")
    assert res.stdout == ""


def test_loader_quotes_a_declared_n_of_the_wrong_type():
    doc = serial.instance_to_json(generators.random_circle_instance(1, MNM, 0))
    doc["n"] = "1"
    with pytest.raises(InvalidInstance, match=r"^declared n='1' but instance has n=1$"):
        serial.instance_from_json(doc)


@pytest.mark.parametrize(
    "field, value",
    [("x", True), ("y", False), ("n", True), ("n", 1.0)],
    ids=["x-true", "y-false", "n-true", "n-float"],
)
def test_cli_run_rejects_json_booleans_and_floats_as_integers(tmp_path, field, value):
    # bool subclasses int and 1.0 == 1, so neither may slip through as a number
    doc = serial.instance_to_json(generators.random_general_instance(1, 0))
    if field == "n":
        doc["n"] = value
    else:
        doc["points"][0][field] = value
    with pytest.raises(InvalidInstance):
        serial.instance_from_json(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run", "greedy", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"].startswith("InvalidInstance: ")
