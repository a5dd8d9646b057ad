"""The registry-dispatch CI gate (benchmarks/check_registry_gate.py)."""

import importlib
import importlib.util
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_registry_gate",
    pathlib.Path(__file__).parent.parent / "benchmarks"
    / "check_registry_gate.py")
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

REPO_SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


class TestGateOnRepo:
    def test_repo_tree_is_clean(self):
        """The registry is the single dispatch path in this tree."""
        assert gate.scan(REPO_SRC) == []

    def test_main_exit_codes(self, capsys):
        assert gate.main([str(REPO_SRC)]) == 0
        assert "registry gate OK" in capsys.readouterr().out
        assert gate.main(["/no/such/dir"]) == 2

    @pytest.mark.parametrize("module,name", [
        ("repro.fluid.dynamics", "make_fluid_algorithm"),
        ("repro.fluid.equilibrium", "allocation_rule"),
        ("repro.fluid", "make_fluid_algorithm"),
    ])
    def test_no_algorithm_lookup_outside_the_registry(self, module, name):
        """The gate has no algorithm rule because the per-layer name
        lookups are gone: importing one is an ImportError."""
        assert not hasattr(importlib.import_module(module), name)


class TestGateDetection:
    def _scan_one(self, tmp_path, text):
        module = tmp_path / "experiments" / "mod.py"
        module.parent.mkdir(exist_ok=True)
        module.write_text(text)
        return gate.scan(tmp_path)

    def test_comments_ignored(self, tmp_path):
        assert self._scan_one(
            tmp_path, "# old: RoundRobinScheduler()\n") == []


class TestSchedulerAxisDetection:
    _scan_one = TestGateDetection._scan_one

    def test_concrete_class_construction_flagged(self, tmp_path):
        hits = self._scan_one(
            tmp_path, "policy = RoundRobinScheduler()\n")
        assert len(hits) == 1 and hits[0][1] == 1

    def test_concrete_class_import_flagged(self, tmp_path):
        hits = self._scan_one(
            tmp_path,
            "from repro.sim.packet_scheduler import MinRttScheduler\n")
        assert len(hits) == 1

    def test_sim_package_reexport_import_flagged(self, tmp_path):
        hits = self._scan_one(
            tmp_path,
            "from ..sim import (\n"
            "    Simulator,\n"
            "    RedundantScheduler,\n"
            ")\n")
        assert len(hits) == 1 and hits[0][1] == 1

    def test_base_class_import_allowed(self, tmp_path):
        """Typing against the abstract base is not dispatch."""
        assert self._scan_one(
            tmp_path,
            "from ..sim.packet_scheduler import PacketScheduler\n") == []

    def test_make_scheduler_is_the_sanctioned_path(self, tmp_path):
        assert self._scan_one(
            tmp_path,
            "from ..core.registry import make_scheduler\n"
            "policy = make_scheduler('qaware')\n") == []

    def test_defining_modules_exempt(self, tmp_path):
        for relative in ("core/registry.py", "sim/packet_scheduler.py",
                         "sim/__init__.py"):
            module = tmp_path / relative
            module.parent.mkdir(exist_ok=True)
            module.write_text("policy = QueueAwareScheduler()\n")
        assert gate.scan(tmp_path) == []
