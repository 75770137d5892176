import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from mixwave import cli, io, params
from mixwave.cli import ConfigError, main, read_config_file, resolve_config
from mixwave.evolve import StepControl
from mixwave.experiments import GATES, LifespanRecord, LifespanReport, gate
from mixwave.params import OperatorParams, theorem_hypotheses
from mixwave.torus import Grid, read_snapshot, write_snapshot


def run_cli(args):
    return main(args)


class TestConfigResolution:
    def test_minimal_flags(self):
        cfg = resolve_config(["exponents", "--a", "1", "--b", "1",
                              "--sigma", "0.5", "--n", "1", "--p", "1.5"])
        assert cfg["command"] == "exponents"
        assert cfg["sigma"] == 0.5
        assert cfg["p"] == 1.5

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# scenario\ncommand = exponents\na = 1\nb = 1\nsigma = 0.5\nn = 1\np = 1.5\n")
        cfg = resolve_config(["--config", str(path), "--p", "3.0"])
        assert cfg["p"] == 3.0
        assert cfg["a"] == 1.0

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        for key in ("whatever", "tol"):     # tol gave way to experiments.GATES
            path.write_text(f"command = exponents\n{key} = 3\n")
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                read_config_file(str(path))

    def test_non_utf8_config_file_named(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"command = exponents\na = 1\xff\n")
        with pytest.raises(ConfigError, match="run.cfg: config file is not UTF-8"):
            read_config_file(str(path))
        assert run_cli(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "run.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("word, value", [
        ("yes", True), ("on", True), ("1", True), ("true", True),
        ("no", False), ("off", False), ("0", False), ("false", False)])
    def test_config_file_booleans(self, tmp_path, word, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"command = solve\nlinear = {word}\n")
        assert read_config_file(str(path))["linear"] is value

    def test_config_file_bad_boolean_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("command = solve\na = 1\nb = 1\nsigma = 0.5\nn = 1\nlinear = maybe\n")
        assert run_cli(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "invalid value for key 'linear': 'maybe'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("command = exponents\n# a comment\na 1\n")
        assert run_cli(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"{path}:3: expected key = value" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert run_cli(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err and "absent.cfg" in err

    def test_missing_b_named(self):
        with pytest.raises(ConfigError, match="missing required key 'b'"):
            resolve_config(["exponents", "--a", "1", "--sigma", "0.5", "--n", "1"])

    def test_sigma_one_excluded(self):
        with pytest.raises(ConfigError, match=r"out-of-range key 'sigma': must be "
                                              r"positive and not 1, got 1\.0"):
            resolve_config(["exponents", "--a", "1", "--b", "1",
                            "--sigma", "1", "--n", "1"])

    @pytest.mark.parametrize("t_end", ["nan", "inf", "-inf", "0", "-2"])
    def test_t_end_positive_and_finite(self, t_end):
        # validation only: a solve with such a horizon is never started
        with pytest.raises(ConfigError, match="out-of-range key 't_end'"):
            resolve_config(["solve", "--a", "1", "--b", "1", "--sigma", "0.5",
                            "--n", "1", f"--t-end={t_end}"])

    def test_t_end_nan_exits_2(self, tmp_path, capsys):
        code = run_cli(["exponents", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--t-end", "nan", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'t_end'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--eps", "eps"), ("--box-l", "box_l"),
                                           ("--threshold", "threshold"),
                                           ("--k-scale", "k_scale")])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_float_named(self, flag, key, raw):
        with pytest.raises(ConfigError, match=f"out-of-range key '{key}': must be finite"):
            resolve_config(["solve", "--a", "1", "--b", "1", "--sigma", "0.5",
                            "--n", "1", f"{flag}={raw}"])

    def test_non_finite_config_file_value_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = solve\na = 1\nb = inf\nsigma = 0.5\nn = 1\n")
        with pytest.raises(ConfigError, match="out-of-range key 'b': must be finite"):
            read_config_file(str(path))

    @pytest.mark.parametrize("flag, key", [("--eps", "eps"), ("--box-l", "box_l")])
    def test_non_finite_solve_exits_2(self, tmp_path, capsys, flag, key):
        # before the check, --eps nan ran and reported a blow-up at t = 0
        bad = "nan" if key == "eps" else "inf"
        code = run_cli(["solve", "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                        "--p", "1.5", "--grid-n", "64", "--t-end", "1.0",
                        flag, bad, "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert f"'{key}'" in captured.err
        assert "blew_up" not in captured.out
        assert not (tmp_path / "o").exists()

    def test_out_of_range_named(self):
        with pytest.raises(ConfigError, match="out-of-range key 'threshold'"):
            resolve_config(["solve", "--a", "1", "--b", "1", "--sigma", "0.5",
                            "--n", "1", "--threshold", "10"])

    @pytest.mark.parametrize("command, flag, raw, message", [
        ("lifespan-sweep", "--eps-list", "nan,0.5,5", "out-of-range key 'eps_list'"),
        ("lifespan-sweep", "--eps-list", "0,0.5", "out-of-range key 'eps_list'"),
        ("lifespan-sweep", "--eps-list", "0.1,-1", "out-of-range key 'eps_list'"),
        ("lifespan-sweep", "--eps-list", "0.1,abc", "invalid value for key 'eps_list'"),
        ("blowup-functional", "--r-list", "nan,2,5", "out-of-range key 'r_list'"),
        ("blowup-functional", "--r-list", "2,inf", "out-of-range key 'r_list'"),
        ("blowup-functional", "--r-list", "0,2,5", "out-of-range key 'r_list'"),
        ("linear-decay", "--s-list", "0,inf", "out-of-range key 's_list'"),
        ("linear-decay", "--s-list", "0,x", "invalid value for key 's_list'"),
        ("solve", "--width", "0", "out-of-range key 'width'"),
        ("solve", "--width", "-1", "out-of-range key 'width'"),
        ("blowup-functional", "--k-scale", "-1", "out-of-range key 'k_scale'"),
        ("blowup-functional", "--k-scale", "0", "out-of-range key 'k_scale'"),
        ("fraclap-check", "--l-eval", "-1e6", "out-of-range key 'l_eval'"),
        ("solve", "--dt-max", "0", "out-of-range key 'dt_max': must be positive, got 0.0"),
        ("solve", "--safety", "0", "out-of-range key 'safety': must be in (0, 1], got 0.0"),
        ("solve", "--safety", "1.5", "out-of-range key 'safety'"),
        ("kernels", "--seed", "-1", "out-of-range key 'seed'"),
        ("solve", "--sigma", "-0.5", "out-of-range key 'sigma': must be positive"),
        ("solve", "--n", "0", "out-of-range key 'n': must be a positive integer"),
        ("solve", "--p", "1", "out-of-range key 'p': must exceed 1"),
        ("lifespan-sweep", "--eps-list", "1,1,2,4,8,10",
         "out-of-range key 'eps_list': entries must be distinct"),
        ("blowup-functional", "--r-list", "2,2,3,4,6.5",
         "out-of-range key 'r_list': entries must be distinct"),
        ("solve", "--grid-n", "100", "out-of-range key 'grid_n': must be a power of two >= 64"),
        ("solve", "--grid-n", "32", "out-of-range key 'grid_n'"),
        ("profile", "--box-l", "-1", "out-of-range key 'box_l': must be positive"),
        ("solve", "--box-l", "0", "out-of-range key 'box_l'"),
        ("solve", "--dt-max", "1e-300", "out-of-range key 'dt_max': a step of 1e-300"),
        ("profile", "--dt-max", "1e-300", "out-of-range key 'dt_max'"),
        ("blowup-functional", "--dt-max", "1e-300", "out-of-range key 'dt_max'"),
        ("solve", "--t-end", "1e17", "out-of-range key 'dt_max': a step of 0.05 does not "
                                    "advance the clock at t_end = 1e+17"),
        ("blowup-functional", "--t-end", "3e14", "out-of-range key 'dt_max': a step of 0.02"),
        ("linear-decay", "--s-list", "0,0", "out-of-range key 's_list': entries must be distinct"),
        ("linear-decay", "--s-list", "0,-0.5",
         "out-of-range key 's_list': entries must be nonnegative, got -0.5"),
        ("exponents", "--s-list", "0,0.7",
         "out-of-range key 's_list': entries must be <= sigma_min = 0.5 for exponents, "
         "got 0.7"),
        ("blowup-functional", "--r-list", "1,2",
         "out-of-range key 'r_list': must span at least half a decade, got '1,2'"),
        ("blowup-functional", "--r-list", "5",
         "out-of-range key 'r_list': must contain at least two radii, got '5'"),
        ("lifespan-sweep", "--eps-list", "0.1,0.2",
         "out-of-range key 'eps_list': must span at least one decade, got '0.1,0.2'"),
        ("lifespan-sweep", "--eps-list", "0.1",
         "out-of-range key 'eps_list': must contain at least two values, got '0.1'"),
        ("lifespan-sweep", "--p", "4", "out-of-range key 'p': must be <= p_crit = 2.0, got 4.0"),
    ])
    def test_list_and_width_ranges_exit_2(self, tmp_path, capsys, command, flag, raw,
                                          message):
        code = run_cli([command, "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                        "--p", "1.5", "--grid-n", "64", "--t-end", "1.0",
                        f"{flag}={raw}", "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, message", [
        ("a = -1", "out-of-range key 'a': must be positive, got -1.0"),
        ("grid_n = 100", "out-of-range key 'grid_n': must be a power of two >= 64"),
        ("s_list = 0,0", "out-of-range key 's_list': entries must be distinct"),
        ("sigma = 1", "out-of-range key 'sigma': must be positive and not 1, got 1.0"),
    ])
    def test_config_file_range_error_names_file_and_line(self, tmp_path, capsys, line,
                                                         message):
        path = tmp_path / "run.cfg"
        path.write_text(f"command = solve\n# a comment\n{line}\n")
        code = run_cli(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {path}:3: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # l_eval 1e15 asks for a 2^57-point grid: 1 EiB per array and 64 PiB
        # for its window, beyond any 64-bit address space, so the first
        # allocation fails at once; it used to end in a raw traceback, exit 1
        code = run_cli(["fraclap-check", "--a", "1", "--b", "1", "--sigma", "1.5",
                        "--n", "1", "--l-eval", "1e15", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["o", "o/new/deeper"])
    def test_exit_2_keeps_an_output_directory_that_existed(self, tmp_path, capsys, out):
        # the directories the call made are removed, the one it found is kept
        (tmp_path / "o").mkdir()
        code = run_cli(["solve", "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                        "--p", "2", "--grid-n", "64", "--eps", "1e9",
                        "--out", str(tmp_path / out)])
        assert code == 2
        assert "at or over the blow-up threshold" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["o"]
        assert list((tmp_path / "o").iterdir()) == []

    def test_unknown_command_in_config_file_exits_2(self, tmp_path, capsys):
        # the command-line parser checks the positional command; a config
        # file's is checked once the keys are merged
        path = tmp_path / "run.cfg"
        path.write_text("command = bogus\na = 1\nb = 1\nsigma = 0.5\nn = 1\n")
        code = run_cli(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: unknown command 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, raw", [
        ("exponents", "t_end", "5"),
        ("kernels", "p", "2"),
        ("linear-decay", "eps", "0.5"),
        ("profile", "seed", "3"),
        ("solve", "r_list", "2,5"),
        ("lifespan-sweep", "width", "3"),
        ("blowup-functional", "s_list", "0.1"),
        ("fraclap-check", "grid_n", "64"),      # set in the config file
    ])
    def test_key_the_command_does_not_read_exits_2(self, tmp_path, capsys, command,
                                                   key, raw):
        # such a key used to run at its default and be recorded with the set value
        argv = [command, "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                "--out", str(tmp_path / "o")]
        if command == "fraclap-check":
            (tmp_path / "run.cfg").write_text(f"{key} = {raw}\n")
            argv.append(f"--config={tmp_path / 'run.cfg'}")
        else:
            argv.append(f"--{key.replace('_', '-')}={raw}")
        if command == "lifespan-sweep":
            # the sweep's own rules want a sub-critical p and a decade of eps
            argv += ["--p", "1.5", "--eps-list", "0.1,1"]
        assert run_cli(argv) == 2
        assert f"key '{key}' is not read by command '{command}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, raw", [("grid_n", "64"), ("box_l", "20"),
                                          ("t_end", "5"), ("dt_max", "0.01"),
                                          ("threshold", "1e4"), ("width", "2"),
                                          ("eps", "1.0")])
    def test_run_key_with_stored_snapshots_exits_2(self, tmp_path, capsys, key, raw):
        # the stored snapshots fix the grid, the horizon and the data; such a
        # key used to be accepted and recorded without effect
        argv = ["blowup-functional", "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                "--snapshots-dir", str(tmp_path / "run"), f"--{key.replace('_', '-')}={raw}",
                "--out", str(tmp_path / "o")]
        assert run_cli(argv) == 2
        assert (f"key '{key}' is not read by command 'blowup-functional' with snapshots_dir"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()
        # the keys of the stored-snapshot mode itself are accepted
        cfg = resolve_config(argv[:-3] + ["--p", "2", "--r-list", "2,8", "--k-scale", "2"])
        assert cfg["snapshots_dir"] == str(tmp_path / "run")

    @pytest.mark.parametrize("eps", ["1e7", "1e300"])
    def test_data_over_threshold_exit_2(self, tmp_path, capsys, eps):
        # data already at the threshold are an input error, not a blow-up at t = 0
        code = run_cli(["solve", "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                        "--p", "2", "--grid-n", "64", "--eps", eps,
                        "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert "at or over the blow-up threshold" in captured.err
        assert "blew_up" not in captured.out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, args, radius", [
        ("linear-decay", ["--sigma", "50"], "r = 1117.82"),
        ("solve", ["--sigma", "200", "--grid-n", "64", "--box-l", "10", "--t-end", "1"],
         "r = 5.96903"),
        ("solve", ["--sigma", "0.5", "--grid-n", "64", "--box-l", "1e-152", "--t-end", "1"],
         "r = 6.9115e+153"),
        ("profile", ["--sigma", "200", "--grid-n", "64", "--box-l", "10", "--t-end", "1"],
         "r = 5.96903"),
        ("blowup-functional", ["--sigma", "200", "--grid-n", "64", "--box-l", "10",
                               "--t-end", "1"], "r = 5.96903"),
        ("kernels", ["--sigma", "200"], "r = 5.93304"),
    ])
    def test_symbol_overflow_exits_2(self, tmp_path, capsys, command, args, radius):
        # an infinite symbol used to give NaN kernels: a traceback, a fake
        # blow-up at the first step or NaN residuals
        code = run_cli([command, "--a", "1", "--b", "1", "--n", "1", *args,
                        "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert (f"error: kernel_eval: d*(t/2)^2 overflows to -inf at radius {radius}"
                in captured.err)
        assert "blew_up" not in captured.out
        assert not (tmp_path / "o").exists()

    def test_s_list_bound_holds_for_exponents_only(self):
        # the exponents hold for s <= sigma_min; linear-decay fits any order
        argv = ["--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1", "--s-list", "0.7"]
        with pytest.raises(ConfigError, match="out-of-range key 's_list'"):
            resolve_config(["exponents", *argv])
        assert resolve_config(["linear-decay", *argv])["s_list"] == "0.7"


def test_output_dir_keeps_what_the_failing_body_wrote(tmp_path):
    # only empty directories go: a file written before the error keeps its
    # directory and every parent of it
    with pytest.raises(RuntimeError):
        with io.output_dir(str(tmp_path / "a" / "b" / "c")):
            (tmp_path / "a" / "b" / "partial.csv").write_text("t\n")
            raise RuntimeError("after the first file")
    assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["partial.csv"]


@pytest.mark.parametrize("key", [k for k, row in cli.CONFIG_KEYS.items() if row[1] is not None])
def test_each_default_passes_its_own_row(key):
    # defaults are never parsed, so this is what keeps them in range
    default = cli.CONFIG_KEYS[key][1]
    assert cli._parse_value(key, str(default)) == default


# each key whose range rule is a library record's, and that rule
_LIBRARY_RULES = {
    "a": lambda: OperatorParams.RULES["a"],
    "b": lambda: OperatorParams.RULES["b"],
    "sigma": lambda: OperatorParams.RULES["sigma"],
    "n": lambda: OperatorParams.RULES["n"],
    "p": lambda: params.P_RULES["p"],
    "grid_n": lambda: Grid.RULES["N"],
    "box_l": lambda: Grid.RULES["L"],
    "t_end": lambda: StepControl.RULES["t_end"],
    "dt_max": lambda: StepControl.RULES["dt_max"],
    "safety": lambda: StepControl.RULES["safety"],
    "threshold": lambda: StepControl.RULES["blowup_threshold"],
}


@pytest.mark.parametrize("key", _LIBRARY_RULES)
def test_config_row_holds_the_library_rule(key):
    assert cli.CONFIG_KEYS[key][2] is _LIBRARY_RULES[key]()


def test_readme_lists_the_keys_each_command_reads():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    table = {}
    for command, cell in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.M):
        table[command] = [k for group in re.findall(r"`([^`]*)`", cell)
                          for k in group.split(", ")]
    assert table == {name: list(keys) for name, (_, _, keys) in cli.COMMANDS.items()}
    prose = " ".join(section.split())
    stored = re.search(r"reads only `([^`]*)`", prose).group(1).split(", ")
    assert stored == list(cli.STORED_SNAPSHOT_KEYS)
    others = re.search(r"setting `([^`]*)` or `([^`]*)` there is a config error", prose)
    skipped = others.group(1).split(", ") + [others.group(2)]
    assert skipped == [k for k in cli.COMMANDS["blowup-functional"][2] if k not in stored]


def test_help_states_each_range_rule():
    text = " ".join(cli.build_parser().format_help().split())
    for key, (_, _, rule, _) in cli.CONFIG_KEYS.items():
        if rule:
            help_line = text.split(f"--{key.replace('_', '-')} {key.upper()} ", 1)[1]
            assert f"must {rule[1]}" in help_line.split(" --", 1)[0], key


_VALUE_KEYS = [k for k, (typ, _, _, _) in cli.CONFIG_KEYS.items()
               if k != "command" and typ is not bool]
_BOOL_KEYS = [k for k, (typ, _, _, _) in cli.CONFIG_KEYS.items() if typ is bool]
_RAW_VALUES = hst.one_of(
    hst.text(max_size=20),
    hst.floats().map(repr),
    hst.integers().map(str),
    hst.sampled_from(["nan", "-inf", "1e999", "0", "-1", "1", "0.5", "1,2", ",",
                      "0.5,abc", "true", "off", "exponents"]))
_CONFIG_BYTES = hst.one_of(
    hst.binary(max_size=300),
    hst.lists(hst.tuples(hst.sampled_from([*cli.CONFIG_KEYS, "bogus"]), _RAW_VALUES),
              max_size=12).map(
        lambda kv: "\n".join(f"{k} = {v}" for k, v in kv).encode("utf-8", "replace")))


def _cfg_keys(name, defs):
    """The cfg["..."] keys that function `name` of cli.py reads, with those of
    the cli.py functions it passes cfg to."""
    keys = set()
    for sub in ast.walk(defs[name]):
        if (isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "cfg"
                and isinstance(sub.slice, ast.Constant)):
            keys.add(sub.slice.value)
        elif (isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in defs
              and any(getattr(arg, "id", None) == "cfg" for arg in sub.args)):
            keys |= _cfg_keys(sub.func.id, defs)
    return keys


def test_each_command_declares_exactly_the_keys_it_reads():
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, (command, _, keys) in cli.COMMANDS.items():
        read = _cfg_keys(command.__name__, defs) - set(cli.COMMON_KEYS)
        assert len(set(keys)) == len(keys) and set(keys) == read, name


def test_stored_snapshot_mode_declares_exactly_the_keys_it_reads():
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    del defs["_archived_run"]      # the run that stored snapshots stand in for
    read = _cfg_keys("cmd_blowup_functional", defs) - set(cli.COMMON_KEYS)
    keys = cli.STORED_SNAPSHOT_KEYS
    assert len(set(keys)) == len(keys) and set(keys) == read


class TestResolveConfigProperties:
    """Random flag values and config-file bytes end in a ConfigError or in
    argparse's usage error, never in another exception."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=hst.data())
    def test_random_input_raises_only_config_errors(self, tmp_path, data):
        argv = []
        command = data.draw(hst.one_of(
            hst.none(), hst.sampled_from(tuple(cli.COMMANDS)),
            hst.text(max_size=12).filter(lambda s: not s.startswith("-"))))
        if command is not None:
            argv.append(command)
        for key in _VALUE_KEYS:
            raw = data.draw(hst.one_of(hst.none(), _RAW_VALUES), label=key)
            if raw is not None:
                argv.append(f"--{key.replace('_', '-')}={raw}")
        for key in _BOOL_KEYS:
            if data.draw(hst.booleans(), label=key):
                argv.append(f"--{key.replace('_', '-')}")
        if data.draw(hst.booleans(), label="config file"):
            path = tmp_path / "run.cfg"
            path.write_bytes(data.draw(_CONFIG_BYTES, label="config bytes"))
            argv.append(f"--config={path}")
        try:
            resolve_config(argv)
        except ConfigError:
            pass
        except SystemExit as exc:
            assert exc.code == 2


class TestCommands:
    def test_exponents_minimal(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["exponents", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "1.5", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "p_crit=2.0" in printed
        assert "lifespan_exp=-1.0" in printed
        payload = json.loads((out / "exponents.json").read_text())
        assert payload["exponents"][0]["p_crit"] == 2.0
        assert payload["exponents"][0]["lifespan_exp"] == -1.0
        assert payload["config"]["sigma"] == 0.5   # reproducibility closure

    def test_exponents_supercritical_prints_undefined(self, tmp_path, capsys):
        code = run_cli(["exponents", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "3.0", "--out", str(tmp_path / "o")])
        assert code == 0
        assert "lifespan_exp=undefined" in capsys.readouterr().out

    def test_sigma_one_exit_code(self, tmp_path, capsys):
        code = run_cli(["exponents", "--a", "1", "--b", "1", "--sigma", "1",
                        "--n", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "out-of-range key 'sigma': must be positive and not 1" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, below):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        code = run_cli(["exponents", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--out", str(blocker.joinpath(*below))])
        assert code == 2
        assert "io error" in capsys.readouterr().err

    def test_kernels_smoke(self, tmp_path):
        out = tmp_path / "k"
        code = run_cli(["kernels", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--out", str(out)])
        assert code == 0
        rows = (out / "kernels.csv").read_text().splitlines()
        assert rows[0] == "r,t,k0,k1,dk0,dk1"
        assert len(rows) == 2001
        rep = json.loads((out / "kernel_report.json").read_text())
        assert rep["pass"] is True
        assert rep["identity_residual_dk1"] <= GATES["kernel_identity"][1]

    def test_kernels_deterministic(self, tmp_path):
        out = tmp_path / "k"
        args = ["kernels", "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                "--seed", "7", "--out", str(out)]
        assert run_cli(args) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("kernels.csv", "kernel_report.json")}
        assert run_cli(args) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_lifespan_single_epsilon_exit_2(self, tmp_path, capsys):
        code = run_cli(["lifespan-sweep", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "1.5", "--eps-list", "1.0",
                        "--grid-n", "256", "--box-l", "30",
                        "--out", str(tmp_path / "o")])
        assert code == 2
        assert "at least two" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_lifespan_keeps_zero_blowup_time(self, tmp_path, monkeypatch):
        # a member that blew up at t = 0.0 is a usable record, not a missing one
        records = [LifespanRecord(1.25, 0.0, (0.0, 0.0)),
                   LifespanRecord(0.25, 3.5, (3.0, 3.5)),
                   LifespanRecord(0.125, None, (None, None), flagged="no blow-up")]
        report = LifespanReport(records, -1.0, -1.0, None, None)
        monkeypatch.setattr(cli, "lifespan_sweep", lambda *args, **kwargs: report)
        out = tmp_path / "l"
        code = run_cli(["lifespan-sweep", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "1.5", "--eps-list", "1.25,0.25,0.125",
                        "--out", str(out)])
        assert code == 0
        rows = (out / "lifespan.csv").read_text().splitlines()
        assert rows == ["eps,t_blowup,band_low,band_high,flag",
                        "1.25,0.0,0.0,0.0,", "0.25,3.5,3.0,3.5,",
                        "0.125,nan,nan,nan,no blow-up"]
        assert not list(out.glob("*.dat"))

    @pytest.mark.parametrize("sigma, p", [(0.5, 1.5), (0.5, 2.0), (0.18, 1.36), (1.5, 1.5)])
    def test_lifespan_json_notes_are_the_banner(self, tmp_path, monkeypatch, capsys, sigma, p):
        # p = 1.36 is critical at sigma = 0.18 but lies above the computed
        # p_crit = 1.3599999999999999
        report = LifespanReport([LifespanRecord(0.5, 1.0, (1.0, 1.0))], -1.0, -1.0, None, None)
        monkeypatch.setattr(cli, "lifespan_sweep", lambda *args, **kwargs: report)
        out = tmp_path / "l"
        code = run_cli(["lifespan-sweep", "--a", "1", "--b", "1", "--sigma", str(sigma),
                        "--n", "1", "--p", str(p), "--eps-list", "0.5,5", "--out", str(out)])
        assert code == 0
        notes = theorem_hypotheses(OperatorParams(1.0, 1.0, sigma, 1), p)
        assert any("blow-up range" in note for note in notes)
        payload = json.loads((out / "lifespan.json").read_text())
        assert payload["hypothesis_notes"] == notes
        printed = capsys.readouterr().out.splitlines()
        assert printed[:len(notes)] == [f"[outside theorem hypotheses] {n}" for n in notes]

    def test_lifespan_critical_case_is_exploratory(self, tmp_path, capsys):
        # p = p_crit = 2: no slope gate, and two records are too few for the
        # exploratory fit of log T against eps^-(p-1)
        out = tmp_path / "c"
        code = run_cli(["lifespan-sweep", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "2", "--eps-list", "0.5,5",
                        "--grid-n", "64", "--box-l", "20", "--t-end", "5",
                        "--threshold", "1000", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "lifespan.json").read_text())
        assert payload["critical_fit_slope"] is None
        assert payload["pass"] is True
        assert "slope" not in payload
        assert "critical-case linear fit residual" in capsys.readouterr().out

    def test_truncated_snapshot_header_exit_2(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        for name in ("data_u0.bin", "data_u1.bin", "snap_00000.bin"):
            (snaps / name).write_bytes(b"MWSN" + b"\x01\x00\x00\x00\x01")
        code = run_cli(["blowup-functional", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "1.5", "--snapshots-dir", str(snaps),
                        "--out", str(tmp_path / "o")])
        assert code == 2
        assert "truncated snapshot header" in capsys.readouterr().err

    def test_solve_writes_series_and_summary(self, tmp_path):
        out = tmp_path / "s"
        code = run_cli(["solve", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "3.0", "--eps", "0.01",
                        "--grid-n", "256", "--box-l", "40", "--t-end", "2.0",
                        "--snapshots", "--out", str(out)])
        assert code == 0
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header == "t,l2,hs,linf,l1,mass,nonlinear_mass"
        summary = json.loads((out / "run.json").read_text())
        assert summary["status"] == "completed"
        assert summary["config"]["t_end"] == 2.0
        assert (out / "data_u0.bin").exists()
        assert (out / "final_slice.csv").exists()
        assert any(name.startswith("snap_") for name in os.listdir(out))

    def test_solve_with_step_below_clock_resolution_ends(self, tmp_path):
        # the step is about 1e-241, which the clock resolves near t = 0; in a
        # subprocess with a timeout, so a regression fails instead of hanging
        out = tmp_path / "s"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "mixwave.cli", "solve", "--a", "1", "--b", "1",
             "--sigma", "0.5", "--n", "1", "--p", "400", "--eps", "10",
             "--grid-n", "64", "--t-end", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "run.json").read_text())
        assert summary["status"] == "blew_up"
        assert summary["diagnostics"]["steps"] == 1
        assert any("step size underflow" in w for w in summary["diagnostics"]["warnings"])

    def test_linear_decay_csv_contract(self, tmp_path):
        out = tmp_path / "d"
        code = run_cli(["linear-decay", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--s-list", "0", "--out", str(out)])
        assert code == 0
        lines = (out / "decay_s0.csv").read_text().splitlines()
        assert lines[0] == "t,norm,scaled_norm,s,sigma,n"
        payload = json.loads((out / "linear_decay.json").read_text())
        fit = payload["fits"][0]
        assert {"slope", "target", "deviation", "tolerance", "pass"} <= set(fit)
        assert fit["tolerance"] == GATES["decay_slope_l2"][1]
        assert set(fit["margins"]) == {"decay_slope_l2"}
        assert not list(out.glob("*.dat"))

    def test_linear_decay_file_per_order(self, tmp_path):
        # each order gets its own file, named by repr(s) without a trailing .0
        out = tmp_path / "d"
        code = run_cli(["linear-decay", "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                        "--s-list", "0,0.5,0.1234561,0.1234562", "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.glob("decay_s*.csv")) == [
            "decay_s0.1234561.csv", "decay_s0.1234562.csv", "decay_s0.5.csv", "decay_s0.csv"]

    def test_profile_linear_smoke(self, tmp_path):
        out = tmp_path / "p"
        code = run_cli(["profile", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "3.0", "--eps", "0.1", "--linear",
                        "--grid-n", "512", "--box-l", "50", "--t-end", "5.0",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "profile.json").read_text())
        assert payload["theta"] == pytest.approx(0.2, abs=1e-9)
        assert gate("profile_ratio", payload["terminal_ratio"], 1.0)[0]
        assert (out / "profile_error.csv").exists()
        assert not list(out.glob("*.dat"))

    def test_profile_prints_plain_floats(self, tmp_path, capsys):
        # the nonlinear run extrapolates a mass tail from numpy arrays
        out = tmp_path / "p"
        code = run_cli(["profile", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "3.0", "--eps", "0.1",
                        "--grid-n", "512", "--box-l", "50", "--t-end", "50.0",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "profile.json").read_text())
        assert payload["tail_correction"] > 0
        assert capsys.readouterr().out == (f"theta={payload['theta']!r} "
                                           f"ratio={payload['terminal_ratio']!r} -> pass\n")

    def test_fraclap_check_smoke(self, tmp_path):
        out = tmp_path / "f"
        code = run_cli(["fraclap-check", "--a", "1", "--b", "1", "--sigma", "1.5",
                        "--n", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "fraclap.json").read_text())
        assert gate("fraclap_change", payload["relative_change"])[0]

    def test_blowup_functional_from_stored_snapshots(self, tmp_path):
        solve_out = tmp_path / "solve"
        code = run_cli(["solve", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", "1", "--p", "1.5", "--eps", "1.0",
                        "--grid-n", "512", "--box-l", "50", "--t-end", "50.0",
                        "--snapshots", "--out", str(solve_out)])
        assert code == 0
        func_out = tmp_path / "func"
        code = run_cli(["blowup-functional", "--a", "1", "--b", "1",
                        "--sigma", "0.5", "--n", "1", "--p", "1.5",
                        "--snapshots-dir", str(solve_out), "--out", str(func_out)])
        assert code == 0
        payload = json.loads((func_out / "blowup_functional.json").read_text())
        assert payload["j_tilde_le_j"] is True
        assert gate("j4_exponent", payload["exponents"]["j4"], payload["targets"]["j4"])[0]
        # radii given as r_list are swept as given, in place of the default seven
        code = run_cli(["blowup-functional", "--a", "1", "--b", "1",
                        "--sigma", "0.5", "--n", "1", "--p", "1.5",
                        "--snapshots-dir", str(solve_out),
                        "--r-list", "1.5,5", "--out", str(func_out)])
        assert code == 0
        payload = json.loads((func_out / "blowup_functional.json").read_text())
        assert payload["radii"] == [1.5, 5.0]


class TestStoredSnapshotChecks:
    """blowup-functional --snapshots-dir needs one grid across data_u0.bin,
    data_u1.bin and every snap_*.bin, of the dimension the key n names."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("stored") / "run"
        code = run_cli(["solve", "--a", "1", "--b", "1", "--sigma", "0.5", "--n", "1",
                        "--p", "1.5", "--eps", "1.0", "--grid-n", "256", "--box-l", "50",
                        "--t-end", "0.5", "--snapshots", "--out", str(out)])
        assert code == 0
        return out

    @staticmethod
    def _functional(snaps, tmp_path, n="1"):
        return run_cli(["blowup-functional", "--a", "1", "--b", "1", "--sigma", "0.5",
                        "--n", n, "--p", "1.5",
                        "--snapshots-dir", str(snaps), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("grid", [Grid(1, 256, 10.0), Grid(1, 128, 50.0)],
                             ids=["other-L", "other-N"])
    def test_data_u1_on_another_grid_exits_2(self, stored, tmp_path, capsys, grid):
        snaps = shutil.copytree(stored, tmp_path / "snaps")
        _, t, u1 = read_snapshot(snaps / "data_u1.bin")
        write_snapshot(snaps / "data_u1.bin", grid, t, u1[:grid.N])
        assert self._functional(snaps, tmp_path) == 2
        assert "data_u1.bin has a different grid" in capsys.readouterr().err

    def test_n_other_than_the_stored_dimension_exits_2(self, stored, tmp_path, capsys):
        assert self._functional(stored, tmp_path, n="2") == 2
        assert ("key 'n' is 2, but the snapshots in" in capsys.readouterr().err)

    def test_stray_snap_file_is_not_read(self, stored, tmp_path):
        # only snap_*.bin files are snapshots; this one used to fail on its magic
        snaps = shutil.copytree(stored, tmp_path / "snaps")
        summary = tmp_path / "o" / "blowup_functional.json"
        code = self._functional(snaps, tmp_path)
        clean = summary.read_bytes()
        (snaps / "snap_notes.txt").write_text("hi\n")
        assert self._functional(snaps, tmp_path) == code
        assert summary.read_bytes() == clean

    def test_no_snapshot_files_exits_2(self, stored, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        for name in ("data_u0.bin", "data_u1.bin"):
            shutil.copy(stored / name, snaps / name)
        assert self._functional(snaps, tmp_path) == 2
        assert f"no snap_*.bin files in '{snaps}'" in capsys.readouterr().err
