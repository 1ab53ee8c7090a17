"""Node-key semantics: determinism, restart invariance, sensitivity.

Satellite property (hypothesis): a node digest is a pure function of
(inputs, seed, scale, code-version) — invariant across process restarts
and worker counts, and changed by exactly the inputs that matter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import version
from repro.graph.core import ArtifactGraph, campaign_params
from repro.synthesis.world import WorldConfig

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Every statically-registered node plus the on-demand feature nodes.
ALL_NODES = (
    "lists",
    "archive",
    "crawl",
    "coverage",
    "live",
    "corpus",
    "features:all:u1",
    "features:keyword:u0",
)


def fake_world(seed=1702, **config):
    """campaign_params only reads .seed/.config — no real world needed."""
    return SimpleNamespace(seed=seed, config=WorldConfig(**config))


def graph_for(seed=1702, **config) -> ArtifactGraph:
    return ArtifactGraph(campaign_params(fake_world(seed, **config)))


def all_keys(graph: ArtifactGraph):
    return {name: graph.key(name) for name in ALL_NODES}


worlds = st.builds(
    fake_world,
    seed=st.integers(min_value=0, max_value=2**31),
    n_sites=st.integers(min_value=50, max_value=5000),
    live_top=st.integers(min_value=500, max_value=100_000),
)


class TestDeterminism:
    def test_two_graphs_same_params_same_keys(self):
        assert all_keys(graph_for()) == all_keys(graph_for())

    def test_key_is_memoized(self):
        graph = graph_for()
        assert graph.key("coverage") is graph.key("coverage")

    @settings(max_examples=25, deadline=None)
    @given(world=worlds)
    def test_keys_are_pure_functions_of_the_campaign(self, world):
        left = ArtifactGraph(campaign_params(world))
        right = ArtifactGraph(campaign_params(world))
        assert all_keys(left) == all_keys(right)

    @settings(max_examples=15, deadline=None)
    @given(world=worlds, delta=st.integers(min_value=1, max_value=1000))
    def test_seed_change_invalidates_everything(self, world, delta):
        base = all_keys(ArtifactGraph(campaign_params(world)))
        shifted = fake_world(world.seed + delta, n_sites=world.config.n_sites,
                             live_top=world.config.live_top)
        changed = all_keys(ArtifactGraph(campaign_params(shifted)))
        for name in ALL_NODES:
            assert base[name] != changed[name], name

    @settings(max_examples=15, deadline=None)
    @given(world=worlds, delta=st.integers(min_value=1, max_value=1000))
    def test_scale_change_invalidates_everything(self, world, delta):
        # Scale arrives at the graph as world sizing (n_sites/live_top).
        base = all_keys(ArtifactGraph(campaign_params(world)))
        resized = fake_world(world.seed, n_sites=world.config.n_sites + delta,
                             live_top=world.config.live_top)
        changed = all_keys(ArtifactGraph(campaign_params(resized)))
        for name in ALL_NODES:
            assert base[name] != changed[name], name


class TestWorkerAndKnobInvariance:
    def test_workers_pool_dataplane_stay_out_of_keys(self, monkeypatch):
        base = all_keys(graph_for())
        monkeypatch.setenv("REPRO_WORKERS", "8")
        monkeypatch.setenv("REPRO_DATA_PLANE", "1")
        monkeypatch.setenv("REPRO_RULE_STATS", "1")
        assert all_keys(graph_for()) == base

    def test_fault_seed_enters_ingest_keys(self, monkeypatch):
        base = all_keys(graph_for())
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        faulted = all_keys(graph_for())
        assert faulted["crawl"] != base["crawl"]
        assert faulted["live"] != base["live"]
        assert faulted["lists"] == base["lists"]
        assert faulted["archive"] == base["archive"]

    def test_list_patch_enters_only_list_derived_keys(self, monkeypatch, tmp_path):
        base = all_keys(graph_for())
        patch = tmp_path / "patch.txt"
        patch.write_text("||extra-tracker.example/ad.js\n")
        monkeypatch.setenv("REPRO_LIST_PATCH", str(patch))
        patched = all_keys(graph_for())
        for invalidated in ("lists", "coverage", "live", "corpus", "features:all:u1"):
            assert patched[invalidated] != base[invalidated], invalidated
        for untouched in ("archive", "crawl"):
            assert patched[untouched] == base[untouched], untouched
        # Editing the patch file re-keys again.
        patch.write_text("||extra-tracker.example/other.js\n")
        assert all_keys(graph_for())["lists"] != patched["lists"]


class TestCodeVersionSensitivity:
    def test_editing_a_scope_rekeys_only_its_nodes(self, tmp_path, monkeypatch):
        (tmp_path / "filterlist").mkdir()
        (tmp_path / "filterlist" / "rules.py").write_text("A = 1\n")
        (tmp_path / "wayback").mkdir()
        (tmp_path / "wayback" / "crawler.py").write_text("B = 1\n")
        monkeypatch.setattr(version, "package_root", lambda: tmp_path)
        version.reset_scope_cache()
        try:
            before = all_keys(graph_for())
            (tmp_path / "filterlist" / "rules.py").write_text("A = 2\n")
            version.reset_scope_cache()
            after = all_keys(graph_for())
        finally:
            version.reset_scope_cache()
        # filterlist is a declared scope of lists/coverage/live/corpus...
        for name in ("lists", "coverage", "live", "corpus"):
            assert after[name] != before[name], name
        # ...but not of the archive; features depend on corpus's key, so
        # they re-key transitively.
        assert after["archive"] == before["archive"]
        assert after["features:all:u1"] != before["features:all:u1"]


class TestRestartInvariance:
    def test_keys_survive_process_restart_and_hash_seed(self):
        """The acceptance property: keys are byte-stable across processes."""
        script = (
            "import json, sys\n"
            "sys.path.insert(0, {src!r})\n"
            "from tests.graph.test_keys import all_keys, graph_for\n"
            "print(json.dumps(all_keys(graph_for())))\n"
        ).format(src=SRC)
        here = all_keys(graph_for())
        for hash_seed in ("0", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = SRC + os.pathsep + str(Path(SRC).parent)
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(Path(SRC).parent),
            )
            assert completed.returncode == 0, completed.stderr
            assert json.loads(completed.stdout) == here


class TestExperimentRegistration:
    def test_register_experiment_reads_driver_attrs(self):
        import repro.experiments.fig5 as fig5

        graph = graph_for()
        spec = graph.register_experiment("fig5", fig5)
        assert spec.name == "exp:fig5"
        assert spec.deps == ("crawl",)
        assert "experiments/fig5.py" in spec.code
        key = graph.key("exp:fig5")
        assert len(key) == 64

    def test_unknown_dependency_fails_at_register_time(self):
        graph = graph_for()
        bad = SimpleNamespace(GRAPH_DEPS=("no_such_stage",), GRAPH_CODE=())
        try:
            graph.register_experiment("bad", bad)
        except KeyError as exc:
            assert "no_such_stage" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")

    def test_volatile_callable_is_resolved(self, monkeypatch, tmp_path):
        import repro.experiments.rulereport as rulereport

        graph = graph_for()
        assert graph.register_experiment("rulereport", rulereport).volatile is False
        monkeypatch.setenv("REPRO_RULE_STATS_DIR", str(tmp_path))
        graph2 = graph_for()
        assert graph2.register_experiment("rulereport", rulereport).volatile is True
