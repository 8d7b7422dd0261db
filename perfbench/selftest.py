"""Self-tests of the benchmark's checks: each plants one fault in a small real
run of omnieval and expects the check that guards against it to fail, next to
a control run that must pass.

    python3 perfbench/selftest.py

Run from the root of a checkout. They take seconds, run omnieval on a few
dozen items, and are not collected by the repository's pytest suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from omnieval import cli  # noqa: E402


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workdir:
    """A small workload written out for in-process omnieval calls."""

    def __init__(self, name: str, items: int):
        self.built = workloads.build(name, 7, items=items)
        self.dir = Path(tempfile.mkdtemp(prefix="perfbench-selftest-", dir=BENCH / ".work"))
        self.dataset = self.dir / "dataset.json"
        self.dataset.write_text(json.dumps(self.built["dataset"]))
        self.plan = self.dir / "plan.json"
        self.plan.write_text(json.dumps(self.built["plan"]))
        self.records = self.dir / "runs" / name / workloads.MODEL / "records.jsonl"

    def write_config(self, server_url: str | None = None, **changes) -> None:
        config = json.loads(json.dumps(self.built["config"]))
        for desc in (config["backend"], config.get("extractor")):
            if desc is not None and server_url:
                desc["base_url"] = server_url
        config.update(changes)
        (self.dir / "config.json").write_text(json.dumps(config))

    def eval(self, *extra: str) -> int:
        argv = ["eval", "--config", str(self.dir / "config.json"), "--dataset", str(self.dataset),
                "--cache", str(self.dir / "cache"), "--output", str(self.dir / "runs"), *extra]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def read_records(self) -> list[dict]:
        return [json.loads(line) for line in self.records.read_text().splitlines()]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class StubChecks(unittest.TestCase):
    def setUp(self):
        (BENCH / ".work").mkdir(exist_ok=True)
        self.w = Workdir("gen_stub_large", 40)
        self.addCleanup(self.w.close)

    def test_planted_wrong_answer(self):
        self.w.write_config()
        self.w.eval()
        expected = self.w.built["expected"]
        self.assertEqual(checks.check_records(self.w.read_records(), expected), [])

        victim = next(e for e in expected if e["qtype"] == "single_choice" and e["status"] == "extracted")
        letters = workloads.LETTERS[: len(next(r for r in self.w.built["dataset"]["data"]
                                             if r["id"] == victim["id"])["choices"])]
        wrong = next(c for c in letters if c != victim["value"])
        self.w.built["config"]["backend"]["scripted"][victim["id"]] = f"The answer is ({wrong})."
        self.w.write_config()
        shutil.rmtree(self.w.dir / "cache")
        self.w.eval()
        problems = checks.check_records(self.w.read_records(), expected)
        self.assertEqual(len(problems), 1)
        self.assertIn(victim["id"], problems[0])

    def test_warm_rerun_with_different_bytes(self):
        self.w.write_config()
        self.w.eval()
        cold = sha256(self.w.records)
        self.w.eval()
        self.assertEqual(checks.check_same_bytes(cold, sha256(self.w.records)), [])

        # a cached reply changed behind omnieval's back changes the warm records
        shard = sorted((self.w.dir / "cache").glob("*.jsonl"))[0]
        lines = shard.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["response"]["text"] = workloads.HOPELESS
        shard.write_text("\n".join([json.dumps(entry)] + lines[1:]) + "\n")
        self.w.eval()
        self.assertEqual(len(checks.check_same_bytes(cold, sha256(self.w.records))), 1)


class ServerChecks(unittest.TestCase):
    def setUp(self):
        (BENCH / ".work").mkdir(exist_ok=True)
        self.w = Workdir("gen_http_fast", 30)
        self.addCleanup(self.w.close)
        self.server = run.Server(self.w.plan, delay_ms=20, slots=os.cpu_count() or 2)
        self.addCleanup(self.server.stop)

    def test_request_during_warm_phase(self):
        self.w.write_config(self.server.url)
        self.w.eval()
        s1 = self.server.stats()
        self.w.eval()
        s2 = self.server.stats()
        problems, failed = checks.check_server_warm(checks.server_diff(s1, s2), self.w.built["n_extract"])
        self.assertEqual(problems, [])
        self.assertEqual(failed, self.w.built["n_extract"])  # uncached extractor calls

        shutil.rmtree(self.w.dir / "cache")  # the warm rerun now reaches the model
        self.w.eval()
        s3 = self.server.stats()
        problems, _ = checks.check_server_warm(checks.server_diff(s2, s3), self.w.built["n_extract"])
        self.assertEqual(len(problems), 1)

    def test_in_flight_above_concurrency_limit(self):
        self.w.write_config(self.server.url, concurrency_limit=1)
        self.w.eval()
        self.assertEqual(checks.check_in_flight(self.server.stats()["in_flight_max"], 1), [])

        shutil.rmtree(self.w.dir / "cache")
        self.w.eval("--concurrency", "2")  # more requests in flight than the limit checked
        self.assertEqual(len(checks.check_in_flight(self.server.stats()["in_flight_max"], 1)), 1)


if __name__ == "__main__":
    unittest.main()
