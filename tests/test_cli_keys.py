"""The CLI's key table: kinds, bounds and a generated sweep of bad values.

Every command runs in-process against tiny inputs in a fresh working
directory, so a value that names a file (``--out=x``) lands there.
"""

import json
import re
import signal

import pytest

from contagion import cli
from contagion.cli import dispatch

# each key of every command takes each of these as a flag and as a config value
BAD_VALUES = ["x", True, 2.5, -1, 0, None, [1], {}, "nan", 1e308, -0.5]

# the experiment config every experiment run reads
EXPERIMENT = {"graph": {"n": 20, "r": 2, "embed_dim": 3, "seed": 1}, "runs_per_node": 1,
              "node_selection": "sample:2", "params": {"max_steps": 5}}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One small input file of each kind the commands read."""
    d = tmp_path_factory.mktemp("inputs")
    files = {name: str(d / name) for name in
             ("g.json", "runs.jsonl", "trust.tsv", "ratings.tsv", "model.json", "t.csv")}
    users = [f"u{i}" for i in range(8)]
    with open(files["trust.tsv"], "w") as fh:
        fh.writelines(f"{u}\t{users[(i + j) % 8]}\n" for i, u in enumerate(users) for j in (1, 2))
    with open(files["ratings.tsv"], "w") as fh:
        fh.writelines(f"{users[(p + t) % 8]}\tp{p}\t{t}\n" for p in range(4) for t in range(3))
    with open(files["t.csv"], "w") as fh:
        fh.write("v,w\n1,2\n3,4\n")
    for argv in (["netgen", "--nodes", "20", "--embed-dim", "3", "--out", files["g.json"]],
                 ["simulate", "--graph", files["g.json"], "--runs", "2", "--max-steps", "5",
                  "--out", files["runs.jsonl"]],
                 ["learn", "--trust", files["trust.tsv"], "--ratings", files["ratings.tsv"],
                  "--steps", "0", "--out", files["model.json"]]):
        assert dispatch(argv) == 0
    return files


def base_keys(command, files) -> dict:
    """The keys of a small valid run of ``command``; each run list stays
    below 4 items, so ``pool_map`` runs it serially."""
    learner = {"trust": files["trust.tsv"], "ratings": files["ratings.tsv"]}
    return {
        "netgen": {"nodes": 12, "embed-dim": 3, "out": "g.json"},
        "simulate": {"graph": files["g.json"], "runs": 2, "max-steps": 5, "out": "runs.jsonl"},
        "baseline": {"graph": files["g.json"], "model": "ic", "runs": 2, "out": "runs.jsonl"},
        "analyze": {"runs": files["runs.jsonl"], "graph": files["g.json"], "report": "r.json"},
        "experiment": {"rq": 1, "out-dir": "results"},
        "learn": {**learner, "steps": 0, "out": "model.json"},
        "learn-eval": {"model": files["model.json"], **learner, "out": "eval.json"},
        "optimize": {"graph": files["g.json"], "seed-node": 5, "khop": 1, "beam": 1, "rounds": 0,
                     "sims": 1, "top-deg": 1, "max-steps": 5, "out": "best.json"},
        "plot": {"table": files["t.csv"], "kind": "hist", "out": "plot.svg"},
    }[command]


def flag_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


class Runner:
    """Runs ``command`` with its base keys as flags, one key replaced by a
    flag or moved into a config file; each config file gets a new name."""

    def __init__(self, command, files, cwd):
        self.command, self.base, self.cwd, self.made = command, base_keys(command, files), cwd, 0

    def __call__(self, key=None, value=None, where="flag") -> int:
        flags = {k: v for k, v in self.base.items() if k != key or where == "flag"}
        if key is not None and where == "flag":
            flags[key] = value
        argv = [self.command] + [f"--{k}={flag_text(v)}" for k, v in flags.items()]
        config = dict(EXPERIMENT) if self.command == "experiment" else {}
        if key is not None and where == "config":
            config[key] = value
        if config:
            self.made += 1
            path = self.cwd / f"cfg{self.made}.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        return dispatch(argv)


class Hang(Exception):
    pass


def _hang(signum, frame):
    raise Hang("still running after 10 s")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_key_takes_bad_values_without_a_traceback(inputs, tmp_path, monkeypatch, capsys,
                                                        command):
    # each case exits 0 or 2: never a traceback, never a hang
    monkeypatch.chdir(tmp_path)
    run = Runner(command, inputs, tmp_path)
    assert run() == 0
    faults = []
    previous = signal.signal(signal.SIGALRM, _hang)
    try:
        for key in cli.COMMANDS[command][1]:
            for value in BAD_VALUES:
                for where in ("flag", "config"):
                    signal.setitimer(signal.ITIMER_REAL, 10)
                    try:
                        code = run(key.name, value, where)
                    except Exception as err:  # a traceback is the finding
                        code = f"{type(err).__name__}: {err}"[:200]
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    if code not in (0, 2):
                        faults.append((key.name, value, where, code))
    finally:
        signal.signal(signal.SIGALRM, previous)
    capsys.readouterr()
    assert faults == []


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_names_every_key_the_manifest_records(inputs, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert Runner(command, inputs, tmp_path)() == 0
    recorded = json.loads(next(tmp_path.rglob("manifest.json")).read_text())["config"]
    capsys.readouterr()
    assert dispatch([command, "--help"]) == 0
    text = capsys.readouterr().out
    flags = {key.name for key in cli.COMMANDS[command][1]}
    assert flags <= set(recorded)
    # the experiment config's own keys are listed under --config
    missing = [k for k in recorded
               if not re.search(rf"--{k}\b" if k in flags else rf"\b{k}\b", text)]
    assert missing == []


# every path key a config file can set; open() reads an integer as a file
# descriptor (1 is stdout, 0 stdin), and other non-strings raised TypeError
PATH_KEYS = (
    [(command, "out") for command in ("netgen", "simulate", "baseline", "learn", "learn-eval",
                                      "optimize", "plot")]
    + [(command, "graph") for command in ("simulate", "baseline", "analyze", "learn",
                                          "learn-eval", "optimize")]
    + [("analyze", "runs"), ("analyze", "report"), ("learn", "trust"), ("learn", "ratings"),
       ("learn-eval", "model"), ("learn-eval", "trust"), ("plot", "table")]
)


@pytest.mark.parametrize("value", [1, True, 0, -1, 2.5, [1], {}, ""])
@pytest.mark.parametrize("command, key", PATH_KEYS)
def test_path_key_takes_only_a_file_name(inputs, tmp_path, monkeypatch, capsys, command, key,
                                         value):
    monkeypatch.chdir(tmp_path)
    assert Runner(command, inputs, tmp_path)(key, value, "config") == 2
    assert f"error: {key}: expected a file name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg1.json"]


@pytest.mark.parametrize("command, key", [
    ("simulate", "gamma"), ("simulate", "lambda"), ("simulate", "viral-fraction"),
    ("baseline", "p"), ("baseline", "theta"), ("learn", "lr"), ("optimize", "perturb"),
    ("learn-eval", "test-fraction"),
])
def test_float_key_refuses_a_boolean(inputs, tmp_path, monkeypatch, capsys, command, key):
    # float(true) is 1.0; an int key already refused it
    monkeypatch.chdir(tmp_path)
    assert Runner(command, inputs, tmp_path)(key, True, "config") == 2
    assert f"error: {key}: expected float, got True" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg1.json"]


@pytest.mark.parametrize("command, key, value, where", [
    ("simulate", "runs", 10**8, "flag"),
    ("baseline", "runs", 10**6 + 1, "config"),
    ("optimize", "sims", 10**9, "flag"),
    ("optimize", "rounds", 1e308, "config"),
    ("learn", "steps", 1e308, "config"),
    ("plot", "bins", 1e308, "config"),
    ("plot", "bins", 10**6 + 1, "flag"),
])
def test_loop_counts_above_the_ceiling_exit_2(inputs, tmp_path, monkeypatch, capsys, command, key,
                                              value, where):
    # these ran for minutes or asked numpy for an array it cannot size
    monkeypatch.chdir(tmp_path)
    assert Runner(command, inputs, tmp_path)(key, value, where) == 2
    assert f"error: {key}: must be <= 1000000, got " in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if not p.name.startswith("cfg")]


def test_analyze_refuses_a_runs_file_as_the_graph(inputs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = inputs["runs.jsonl"]
    assert dispatch(["analyze", "--runs", runs, "--graph", runs, "--report", "r.json"]) == 2
    assert f"error: graph: {runs}: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _outputs(directory) -> dict:
    """Every file a run wrote, by relative path; manifests and configs aside."""
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*"))
            if p.is_file() and p.name != "manifest.json" and not p.name.startswith("cfg")}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_base_key_can_come_from_the_config(inputs, tmp_path, monkeypatch, capsys, command):
    # the same keys as flags or from --config give the same outputs
    run = Runner(command, inputs, tmp_path / "flag")
    config = {**run.base, **(EXPERIMENT if command == "experiment" else {})}
    written = []
    for cwd in (tmp_path / "flag", tmp_path / "config"):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        if cwd.name == "flag":
            code = run()
        else:
            (cwd / "cfg.json").write_text(json.dumps(config))
            code = dispatch([command, "--config", str(cwd / "cfg.json")])
        assert code == 0, capsys.readouterr().err
        written.append(_outputs(cwd))
    assert written[0] and written[0] == written[1]
