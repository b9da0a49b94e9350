"""The ``kernel`` engine's two implementations: selection, errors, and
batch identity.

Covers the engine-name contract (a removed or unknown engine name raises
:class:`ConfigError` listing the legal names; both engines are always
selectable, the kernel falling back to Python when the compiled artifact
cannot load) and, where the artifact loads, ``simulate_batch``/
``batchplan`` equivalence between the compiled and the Python kernel,
plus thread safety of the compiled kernel's output buffers.
Toolchain-less environments run the fallback paths and skip the
compiled ones -- never fail.
"""

import sys
import threading
from unittest import mock

import pytest

from repro.config import MachineConfig, SimulationConfig
from repro.cpu import engine, nativebuild
from repro.cpu.batch import simulate_batch
from repro.cpu.pipeline import simulate
from repro.errors import ConfigError
from repro.frontend import tracestore
from repro.harness import batchplan, experiment, simcache
from repro.harness.experiment import clear_baseline_cache, run_experiment
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program

HAVE_NATIVE = nativebuild.native_available()

SIM = SimulationConfig(max_instructions=150_000)

#: Engine names earlier versions accepted; each must now be refused.
REMOVED = ("batched", "numpy", "native")


@pytest.fixture(autouse=True)
def _clean_state():
    tracestore.clear()
    clear_baseline_cache()
    yield
    engine.set_sim_backend(None)
    nativebuild.reset_probe()
    tracestore.clear()
    clear_baseline_cache()


@pytest.fixture()
def _no_native(monkeypatch):
    """Environment where the compiled kernel cannot load."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    nativebuild.reset_probe()
    yield
    nativebuild.reset_probe()


def _python_kernel():
    """Force the Python kernel for the duration of a ``with`` block."""
    return mock.patch.object(nativebuild, "load", lambda: None)


def _assert_lists_legal_names(message):
    assert "reference" in message and "kernel" in message


class TestEngineErrors:
    def test_unknown_backend_lists_legal_names(self):
        with pytest.raises(ConfigError) as err:
            engine.set_sim_backend("turbo")
        assert "turbo" in str(err.value)
        _assert_lists_legal_names(str(err.value))
        assert engine.SIM_BACKENDS == ("reference", "kernel")

    def test_native_unavailable_names_backend_and_remedy(self, _no_native):
        with pytest.raises(ConfigError) as err:
            engine.set_sim_backend("native")
        message = str(err.value)
        assert "native" in message
        _assert_lists_legal_names(message)

    def test_env_resolution_raises_too(self, monkeypatch, _no_native):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "native")
        engine.set_sim_backend(None)
        with pytest.raises(ConfigError) as err:
            engine.backend()
        assert "REPRO_SIM_BACKEND='native'" in str(err.value)
        _assert_lists_legal_names(str(err.value))

    def test_numpy_unavailable_names_remedy(self):
        # No alias shim: every removed engine name gets the ConfigError.
        for name in REMOVED:
            with pytest.raises(ConfigError) as err:
                engine.set_sim_backend(name)
            assert repr(name) in str(err.value)
            _assert_lists_legal_names(str(err.value))

    def test_available_backends_excludes_unloadable(self, _no_native):
        # Without the artifact the kernel engine stays selectable and
        # runs its Python implementation.
        engine.set_sim_backend("kernel")
        assert engine.kernel_impl() == "python"
        program = get_program("mcf", "train")
        trace, _ = tracestore.get_trace(program, SIM.max_instructions)
        assert simulate(trace).committed == len(trace)

    def test_cli_reports_unavailable_backend(self, _no_native, capsys):
        from repro.cli import main

        code = main(["list", "--sim-backend", "native"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        _assert_lists_legal_names(captured.err)

    def test_native_error_reports_reason(self, _no_native):
        assert not nativebuild.native_available()
        assert "REPRO_NATIVE=0" in nativebuild.native_error()


@pytest.mark.skipif(not HAVE_NATIVE, reason="compiled kernel unavailable")
class TestNativeAvailable:
    def test_probe_is_memoized(self):
        first = nativebuild.load()
        assert first is not None
        assert nativebuild.load() is first
        assert nativebuild.native_error() is None

    def test_available_backends_includes_native(self):
        assert engine.kernel_impl() == "c"

    def test_simulate_batch_matches_per_config_batched(self):
        # Compiled batch vs per-config runs on the Python kernel.
        program = get_program("mcf", "train")
        trace, _ = tracestore.get_trace(program, SIM.max_instructions)
        configs = [
            MachineConfig(memory_latency=lat) for lat in (100, 200, 500)
        ]
        engine.set_sim_backend("kernel")
        with _python_kernel():
            expected = [simulate(trace, config) for config in configs]
        got = simulate_batch(trace, configs)
        assert got == expected

    def test_two_threads_share_a_trace(self):
        # The C call releases the GIL and ``repro serve`` runs jobs on
        # worker threads: two configs simulated concurrently over one
        # trace must each get exactly their sequential result (the
        # missed-load / per-PC miss streams come back through per-call
        # output buffers).
        program = get_program("mcf", "train")
        trace, _ = tracestore.get_trace(program, SIM.max_instructions)
        base = MachineConfig()
        configs = (
            base.scaled_l2(128 * 1024, 10),
            base.scaled_l2(512 * 1024, 15),
        )
        engine.set_sim_backend("kernel")
        expected = [simulate(trace, config) for config in configs]
        rounds = 5
        # Two threads per config: more workers than a 2-core host.
        slots = (0, 1, 0, 1)
        results = [[] for _ in slots]
        errors = []

        def worker(i):
            try:
                for _ in range(rounds):
                    results[i].append(simulate(trace, configs[slots[i]]))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(slots))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for i, slot in enumerate(slots):
            assert len(results[i]) == rounds
            for stats in results[i]:
                assert stats == expected[slot]


@pytest.mark.skipif(not HAVE_NATIVE, reason="compiled kernel unavailable")
class TestNativePrewarm:
    class _Job:
        def __init__(self, benchmark, machine):
            self._keys = [(benchmark, "train", machine, SIM)]

        def baseline_keys(self):
            return list(self._keys)

    def _jobs(self):
        return [
            self._Job("mcf", MachineConfig(memory_latency=lat))
            for lat in (100, 200)
        ]

    def _prewarmed_rows(self):
        with simcache.disabled():
            stats = batchplan.prewarm(self._jobs())
            assert stats["simulated"] == 2
            for job in self._jobs():
                for key in job.baseline_keys():
                    assert experiment.baseline_cached(*key)
            return [
                run_experiment(
                    "mcf",
                    target=Target.LATENCY,
                    machine=MachineConfig(memory_latency=lat),
                    sim=SIM,
                )
                for lat in (100, 200)
            ]

    def test_prewarm_adoption_identical_to_batched(self):
        # The baselines prewarmed on the compiled kernel must be the
        # exact stats the Python kernel adopts, and the per-cell
        # experiment must still be served from the adopted baseline.
        engine.set_sim_backend("kernel")
        with _python_kernel():
            python_rows = self._prewarmed_rows()
        tracestore.clear()
        clear_baseline_cache()
        native_rows = self._prewarmed_rows()
        for python_row, native_row in zip(python_rows, native_rows):
            assert native_row.provenance["baseline"] == "batch"
            assert native_row.baseline == python_row.baseline
            assert native_row.optimized == python_row.optimized
            assert native_row.metrics == python_row.metrics
