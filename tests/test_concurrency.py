"""Thread-safety: linearizable resolves, allocation, and kernel mutation."""

import threading

import pytest

from ipcconfine import ConfinementEngine, ReferenceEngine, SimKernel, VmRegistry
from ipcconfine.errors import (
    AlreadyExists,
    CategoryMismatch,
    InvalidHandle,
    InvalidName,
    NotFound,
    NotLoaded,
)
from ipcconfine.model import HOST, Intent, PORT, ProcessRef, SYNC, Scope, VmId


def run_threads(workers):
    threads = [threading.Thread(target=fn) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestEngineStress:
    HOSTS = [rf"\srv\h{i:03d}" for i in range(50)]
    PRIVATES = [rf"\app\p{i:03d}" for i in range(50)]

    def _sequence(self, thread_id, length):
        pool = self.HOSTS + self.PRIVATES
        return [pool[(i * 7 + thread_id * 13) % len(pool)] for i in range(length)]

    def test_counters_exact_under_contention(self):
        engine = ConfinementEngine()
        engine.load_long_list(self.HOSTS)
        procs = [ProcessRef(pid, VmId(1 + pid % 2)) for pid in range(10, 14)]
        sequences = [self._sequence(t, 500) for t in range(4)]

        def worker(proc, names):
            def run():
                for name in names:
                    engine.resolve(proc, name, PORT, Intent.OPEN)
            return run

        run_threads([worker(procs[t], sequences[t]) for t in range(4)])

        flat = [n for seq in sequences for n in seq]
        host_resolves = sum(1 for n in flat if n in set(self.HOSTS))
        distinct_hosts = len({n for n in flat if n in set(self.HOSTS)})
        c = engine.counters
        assert c.conservation_holds()
        assert c.resolves_total == 2000
        # atomic resolve: exactly one long hit per distinct host name
        assert c.long_hits == distinct_hosts
        assert c.short_hits == host_resolves - distinct_hosts
        assert c.long_misses == len(flat) - host_resolves
        assert c.host_passthroughs == host_resolves
        assert set(engine.snapshot().short_list) == {n for n in flat if n in set(self.HOSTS)}

    def test_seal_race_keeps_invariants(self):
        engine = ConfinementEngine()
        engine.load_long_list(self.HOSTS)
        procs = [ProcessRef(pid, VmId(1 + pid % 3)) for pid in range(20, 26)]
        barrier = threading.Barrier(7)

        def resolver(proc, offset):
            def run():
                barrier.wait()
                for i in range(300):
                    name = (self.HOSTS + self.PRIVATES)[(i + offset) % 100]
                    engine.resolve(proc, name, PORT, Intent.OPEN)
            return run

        def sealer():
            barrier.wait()
            engine.seal_host_objects()

        run_threads([resolver(procs[t], t * 17) for t in range(6)] + [sealer])
        c = engine.counters
        assert c.conservation_holds()
        assert engine.sealed
        snap = engine.snapshot()
        assert set(snap.short_list) <= set(self.HOSTS)
        assert len(snap.short_list) == len(set(snap.short_list))

    def test_global_tables_race(self):
        engine = ConfinementEngine()
        engine.load_long_list([])
        procs = [ProcessRef(pid, VmId(1 + pid % 2)) for pid in range(30, 34)]

        def worker(proc):
            def run():
                for i in range(100):
                    engine.resolve(proc, rf"\g\obj{i:03d}", PORT,
                                   Intent.CREATE, Scope.GLOBAL)
                    engine.resolve(proc, rf"\g\obj{i:03d}", PORT, Intent.OPEN)
            return run

        run_threads([worker(p) for p in procs])
        snap = engine.snapshot()
        expected = frozenset(rf"\g\obj{i:03d}" for i in range(100))
        assert snap.global_tables == {1: expected, 2: expected}
        assert engine.counters.global_table_hits == 800


class TestRegistryStress:
    def test_parallel_allocation_is_linearizable(self):
        registry = VmRegistry()
        vms, procs = [], []
        lock = threading.Lock()

        def allocator(t):
            def run():
                for i in range(25):
                    vm = registry.vm_create(f"ip-{t}-{i}")
                    proc = registry.process_spawn(vm)
                    with lock:
                        vms.append(vm)
                        procs.append(proc)
            return run

        run_threads([allocator(t) for t in range(16)])
        ids = sorted(vm.id for vm in vms)
        pids = sorted(p.pid for p in procs)
        assert ids == list(range(1, 401))
        assert pids == list(range(1, 401))


class TestKernelStress:
    def test_single_winner_for_concurrent_create(self):
        registry = VmRegistry()
        engine = ConfinementEngine()
        engine.load_long_list([])
        kernel = SimKernel(registry, engine)
        vm = registry.vm_create("10.0.0.2")
        procs = [registry.process_spawn(vm) for _ in range(8)]
        results = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def creator(proc):
            def run():
                barrier.wait()
                try:
                    handle = kernel.create_object(proc, r"\app\shared", PORT)
                    with lock:
                        results.append(handle)
                except AlreadyExists:
                    with lock:
                        results.append(None)
            return run

        run_threads([creator(p) for p in procs])
        winners = [r for r in results if r is not None]
        assert len(winners) == 1
        assert winners[0].object.refcount == 1

    def test_parallel_create_close_distinct_names(self):
        registry = VmRegistry()
        engine = ConfinementEngine()
        engine.load_long_list([])
        kernel = SimKernel(registry, engine)
        vm = registry.vm_create("10.0.0.2")
        procs = [registry.process_spawn(vm) for _ in range(6)]

        def churner(t, proc):
            def run():
                for i in range(50):
                    handle = kernel.create_object(proc, rf"\app\t{t}-{i}", PORT)
                    kernel.close(handle)
            return run

        run_threads([churner(t, p) for t, p in enumerate(procs)])
        assert kernel.objects() == {}
        assert engine.counters.conservation_holds()

    def test_host_and_vms_share_message_bus(self):
        registry = VmRegistry()
        engine = ConfinementEngine()
        engine.load_long_list([])
        kernel = SimKernel(registry, engine)
        vm = registry.vm_create("10.0.0.2")
        receiver = registry.process_spawn(vm)
        senders = [registry.process_spawn(vm) for _ in range(4)]
        hosts = [registry.process_spawn(HOST) for _ in range(2)]

        def sending(proc):
            def run():
                for i in range(100):
                    kernel.send_message(proc, receiver, "WindowsMessage", b"x")
            return run

        run_threads([sending(p) for p in senders + hosts])
        # only same-VM senders land; host senders are all blocked
        assert len(kernel.inbox(receiver)) == 400
        assert engine.counters.denials == 200


def free_in_another_thread(lock) -> bool:
    """True if a second thread can take ``lock`` at once. The locks are
    re-entrant, so the thread that raised could take one it still holds."""
    got = []

    def probe():
        acquired = lock.acquire(blocking=False)
        if acquired:
            lock.release()
        got.append(acquired)

    run_threads([probe])
    return got == [True]


class TestLockRelease:
    """Each critical section that takes its lock with explicit calls
    releases it when an error is raised inside it."""

    @pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
    @pytest.mark.parametrize("name", ["no-leading-backslash", r"\vm7\x"])
    def test_resolve_releases_on_invalid_name(self, engine_class, name):
        engine = engine_class()
        engine.load_long_list([r"\srv\alpha"])
        proc = ProcessRef(10, VmId(1))
        with pytest.raises(InvalidName):
            engine.resolve(proc, name, PORT, Intent.OPEN)
        assert free_in_another_thread(engine._lock)

    @pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
    def test_resolve_releases_on_not_loaded(self, engine_class):
        engine = engine_class()
        with pytest.raises(NotLoaded):
            engine.resolve(ProcessRef(10, VmId(1)), r"\srv\alpha", PORT, Intent.OPEN)
        assert free_in_another_thread(engine._lock)

    @pytest.fixture
    def kernel_proc(self):
        registry = VmRegistry()
        engine = ConfinementEngine()
        engine.load_long_list([])
        kernel = SimKernel(registry, engine)
        return kernel, registry.process_spawn(registry.vm_create("10.0.0.2"))

    def test_create_releases_on_already_exists(self, kernel_proc):
        kernel, proc = kernel_proc
        kernel.create_object(proc, r"\app\a", PORT)
        with pytest.raises(AlreadyExists):
            kernel.create_object(proc, r"\app\a", PORT)
        assert free_in_another_thread(kernel._lock)
        assert free_in_another_thread(kernel.engine._lock)

    def test_create_releases_on_category_mismatch(self, kernel_proc):
        kernel, proc = kernel_proc
        kernel.create_object(proc, r"\app\a", PORT)
        with pytest.raises(CategoryMismatch):
            kernel.create_object(proc, r"\app\a", SYNC)
        assert free_in_another_thread(kernel._lock)

    def test_open_releases_on_not_found(self, kernel_proc):
        kernel, proc = kernel_proc
        with pytest.raises(NotFound):
            kernel.open_object(proc, r"\app\missing", PORT)
        assert free_in_another_thread(kernel._lock)
        assert free_in_another_thread(kernel.engine._lock)

    def test_open_releases_on_category_mismatch(self, kernel_proc):
        kernel, proc = kernel_proc
        kernel.create_object(proc, r"\app\a", PORT)
        with pytest.raises(CategoryMismatch):
            kernel.open_object(proc, r"\app\a", SYNC)
        assert free_in_another_thread(kernel._lock)

    def test_close_releases_on_invalid_handle(self, kernel_proc):
        kernel, proc = kernel_proc
        handle = kernel.create_object(proc, r"\app\a", PORT)
        kernel.close(handle)
        with pytest.raises(InvalidHandle):
            kernel.close(handle)
        assert free_in_another_thread(kernel._lock)
