"""Corruption fuzz of the files that one command stores and another reads.

Each node of a stored object, one at a time, is set to each of a set of JSON
values or deleted; then a seeded ``random.Random`` changes a few nodes at
once. The objects are the first record of three quick-start runs, which
``report --runs`` and ``score`` read, and the first entry of a generate and of
a ppl cache, which a warm ``eval`` reads.

- A records file is read, or refused with one ``dataset error:`` line.
- A cache entry is used or fetched again: the warm ``eval`` finishes, and the
  records file it writes reads back.

Everything runs in-process through ``cli.main`` on the stub backend.
"""

import copy
import json
import math
import random
from pathlib import Path

import pytest

from omnieval.cli import main
from omnieval.runner import read_records

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
VALUES = [5, 1.5, "x", [], {}, None, True, [5], ["x"], {"a": 1}, math.nan]
DELETE = object()
SEED = 15
DRAWS = 30  # random changes of several nodes, per stored object

# name -> (config, dataset, extra eval flags)
RUNS = {
    "text": (ROOT / "configs" / "stub_text_demo.json", DATA / "text_fixture_dataset.json", []),
    "generate": (ROOT / "configs" / "stub_demo.json", DATA / "fixture_dataset.json", []),
    "ppl": (ROOT / "configs" / "stub_demo.json", DATA / "fixture_dataset.json", ["--mode", "ppl", "--limit", "5"]),
}


def node_paths(node, prefix=()):
    """The path of each node under the JSON value ``node``, parents first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def changed(obj, path, value):
    """A copy of ``obj`` with the node at ``path`` set to ``value`` or deleted,
    or None when an earlier change took that node away."""
    obj = copy.deepcopy(obj)
    parent = obj
    try:
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        return None
    return obj


def variants(obj):
    """Each single change of ``obj``, then DRAWS seeded changes of two to four nodes."""
    paths = list(node_paths(obj))
    for path in paths:
        for value in VALUES + [DELETE]:
            yield changed(obj, path, value)
    rng = random.Random(SEED)
    for _ in range(DRAWS):
        damaged = obj
        for path in rng.sample(paths, rng.randint(2, min(4, len(paths)))):
            damaged = changed(damaged, path, rng.choice(VALUES + [DELETE])) or damaged
        yield damaged


def eval_run(tmp_path, name, cache=None):
    """``eval`` of the run ``name`` into a fresh output directory; its records file."""
    config, dataset, flags = RUNS[name]
    out = tmp_path / "out"
    assert main(["eval", "--config", str(config), "--dataset", str(dataset), "--output", str(out),
                 "--cache", str(cache or tmp_path / "cache")] + flags) == 0
    return next(out.rglob("records.jsonl"))


def run(argv, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", list(RUNS))
def test_damaged_record_is_read_or_refused_in_one_line(tmp_path, capsys, name):
    records = eval_run(tmp_path, name)
    first, *rest = records.read_bytes().splitlines(keepends=True)
    dataset = RUNS[name][1]
    tried = 0
    for record in variants(json.loads(first)):
        records.write_bytes(json.dumps(record).encode("utf-8") + b"\n" + b"".join(rest))
        # score exits 3 when the damage made the record an errored one
        for argv, codes in ((["report", "--runs", str(records.parent)], (0,)),
                            (["score", "--records", str(records), "--dataset", str(dataset)], (0, 3))):
            code, err = run(argv, capsys)
            assert "Traceback" not in err, (argv[0], record, err)
            if code == 2:
                assert err.startswith(f"dataset error: {records}, line 1: not a record: "), (argv[0], record, err)
                assert err.count("\n") == 1, (argv[0], record, err)
            else:
                assert code in codes, (argv[0], record, code, err)
        tried += 1
    assert tried > len(VALUES) * 9  # every node of the record was changed


@pytest.mark.parametrize("name", ["generate", "ppl"])
def test_damaged_cache_entry_is_used_or_fetched_again(tmp_path, capsys, name):
    eval_run(tmp_path, name)
    lines = (tmp_path / "cache" / "responses.jsonl").read_bytes().split(b"\n")
    assert lines[0] == b""  # every entry starts with a line break
    for i, entry in enumerate(variants(json.loads(lines[1]))):
        cache = tmp_path / f"cache-{i}"
        cache.mkdir()
        (cache / "responses.jsonl").write_bytes(b"\n".join([b"", json.dumps(entry).encode("utf-8")] + lines[2:]))
        records = eval_run(tmp_path / f"run-{i}", name, cache)
        read_records(records)  # what the warm eval wrote reads back
