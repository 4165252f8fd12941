"""The native greedy loop against its Python reference (DESIGN.md D9, "The loop").

On the compiled tier :func:`repro.core.glove._greedy_merge` runs the
whole loop of Alg. 1 as one ``kernels.greedy_merge`` call and replays its
merge log.  Its reference is ``_python_greedy_merge``, which these tests
run on a second fresh compiled engine over the same fingerprints: the
two must agree on the finished order, the leftover, every committed
slot's bytes, uid and members, the resident arrays, every counter but
the crossings, and the pair memo's entries.  The native loop makes one
crossing.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _ckernel, kernels
from repro.core.config import ComputeConfig, GloveConfig, StretchConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import DISPATCH_COUNTERS, CompiledBackend, StretchEngine
from repro.core.fingerprint import Fingerprint
from repro.core.glove import (
    GloveStats,
    _greedy_merge,
    _native_greedy_merge,
    _python_greedy_merge,
    glove,
)
from repro.core.reshape import ATOL
from repro.core.sample import T, X, Y
from tests.core.test_kernel_parity import _config_args, _one_ulp_engine, _resident_bytes
from tests.properties.test_differential import (
    REGIMES,
    SKEWED_STRETCH,
    hostile_populations,
)

pytestmark = pytest.mark.skipif(
    not kernels.COMPILED_AVAILABLE, reason="no accelerated kernel binding"
)


def _run(loop, fps, config, compute, prepare=None):
    """Everything the loop leaves behind on a fresh engine, and its crossings."""
    stats = GloveStats(n_input_fingerprints=len(fps))
    with StretchEngine(fps, stretch=config.stretch, compute=compute) as engine:
        assert type(engine.backend) is CompiledBackend
        if prepare is not None:
            prepare(engine)
        finished, leftover, _ = loop(engine, fps, config, stats)
        store = engine.store
        counters = dict(zip(DISPATCH_COUNTERS, engine.backend.dispatch_counters()))
        crossings = counters.pop("n_boundary_crossings")
        state = {
            "finished": finished,
            "leftover": leftover,
            "slots": [
                (
                    fp.uid, fp.members, fp.count, fp.data.tobytes(),
                    store.data[s, : store.lengths[s]].tobytes(),
                    int(store.lengths[s]), int(store.counts[s]), bool(store.alive[s]),
                )
                for s, fp in enumerate(store.fps[: store.size])
            ],
            "loop": (stats.n_merges, stats.n_exact_evaluations, stats.n_pruned_evaluations),
            "counters": counters,
            "memo": engine._memo.entries(),
        }
        if prepare is None:
            state["resident"] = _resident_bytes(engine)
    return state, crossings


def _assert_loops_agree(fps, config, compute, prepare=None):
    native, native_crossings = _run(_native_greedy_merge, fps, config, compute, prepare)
    python, _ = _run(_python_greedy_merge, fps, config, compute, prepare)
    for key in python:
        assert native[key] == python[key], key
    assert native_crossings == 1
    return native


def _configs(k, reshape, skewed):
    stretch = SKEWED_STRETCH if skewed else StretchConfig()
    return GloveConfig(k=k, reshape=reshape, stretch=stretch)


class TestLoopParity:
    @given(
        hostile_populations(),
        st.sampled_from([2, 3]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_hostile_regimes(self, dataset, k, reshape, pruning, skewed):
        if len(dataset) < k:
            return
        _assert_loops_agree(
            list(dataset), _configs(k, reshape, skewed),
            ComputeConfig(backend="compiled", pruning=pruning),
        )

    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_hostile_regimes_at_scale(self, regime, data):
        # 30-40 users: several build blocks, probes whose sweeps run
        # past the first few candidates, and memo recalls.
        dataset = data.draw(hostile_populations(30, 40, regimes=(regime,)))
        k = data.draw(st.sampled_from([2, 3]))
        reshape, pruning, skewed = (data.draw(st.booleans()) for _ in range(3))
        _assert_loops_agree(
            list(dataset), _configs(k, reshape, skewed),
            ComputeConfig(backend="compiled", pruning=pruning),
        )

    def test_seeded_population(self, small_civ):
        for k in (2, 3, 5):
            _assert_loops_agree(
                list(small_civ), GloveConfig(k=k), ComputeConfig(backend="compiled")
            )

    def test_inadmissible_level1_bound(self):
        # The population whose level-1 bound exceeds an exact effort by
        # an ulp: the native loop takes the blocked build's decisions.
        fps = list(_one_ulp_engine("compiled").store.fps[:4])
        _assert_loops_agree(fps, GloveConfig(k=2), ComputeConfig(backend="compiled"))


def _group(uid, t, count, x=0.0):
    rows = np.zeros((2, 6))
    rows[:, X] = x
    rows[:, Y] = x / 2
    rows[:, T] = (t, t + 30.0)
    return Fingerprint(uid, rows, count=count, members=[f"{uid}-{i}" for i in range(count)])


class TestLoopEdges:
    COMPUTE = ComputeConfig(backend="compiled")

    def test_no_pending_slot(self):
        fps = [_group(f"g{i}", 60.0 * i, 2) for i in range(3)]
        state = _assert_loops_agree(fps, GloveConfig(k=2), self.COMPUTE)
        assert state["finished"] == [0, 1, 2]
        assert state["leftover"] is None
        assert state["loop"] == (0, 0, 0)

    def test_one_pending_slot(self):
        fps = [_group("a", 0.0, 2), _group("b", 10.0, 1), _group("c", 20.0, 3)]
        state = _assert_loops_agree(fps, GloveConfig(k=2), self.COMPUTE)
        assert state["finished"] == [0, 2]
        assert state["leftover"] == 1
        assert state["loop"][0] == 0
        # The build still dispatches the lone probe, with no target.
        assert state["counters"]["n_probe_dispatches"] == 1

    def test_two_pending_slots(self):
        fps = [_group("a", 0.0, 1), _group("b", 10.0, 2), _group("c", 20.0, 1, x=50.0)]
        state = _assert_loops_agree(fps, GloveConfig(k=2), self.COMPUTE)
        assert state["finished"] == [1, 3]
        assert state["leftover"] is None
        assert state["slots"][3][0] == "a+c"
        assert state["loop"][0] == 1

    def test_final_product_left_pending(self):
        # Three single users and k = 4: two merges leave a three-member
        # product pending, and glove() folds it into the finished group.
        fps = [_group("g", 500.0, 4, x=9e3)] + [
            _group(f"u{i}", 10.0 * i, 1, x=100.0 * i) for i in range(3)
        ]
        config = GloveConfig(k=4)
        state = _assert_loops_agree(fps, config, self.COMPUTE)
        assert state["loop"][0] == 2
        assert state["finished"] == [0]
        assert state["leftover"] == 5
        assert state["slots"][5][6] == 3
        result = glove(FingerprintDataset(fps), config, self.COMPUTE)
        assert result.stats.leftover_merged
        assert [fp.count for fp in result.dataset] == [7]

    def test_store_growth_before_the_loop(self):
        # Earlier products fill the fresh store, so the loop's products
        # need room the engine grows first; the slots and counters still
        # match the Python loop, which grows on demand.
        fps = [_group(f"u{i}", 10.0 * i, 1, x=100.0 * i) for i in range(4)]

        def prepare(engine):
            for a, b in ((0, 1), (2, 3), (0, 2), (1, 3)):
                engine.merge_step(a, b)
            assert engine.store.size == engine.store.capacity

        state = _assert_loops_agree(fps, GloveConfig(k=2), self.COMPUTE, prepare)
        assert state["loop"][0] == 2


class TestLoopDispatch:
    def test_unsharded_glove_makes_one_crossing_per_loop(self, small_civ):
        for k in (2, 3, 4, 5):
            result = glove(small_civ, GloveConfig(k=k), ComputeConfig(backend="compiled"))
            stats = result.stats
            assert stats.n_boundary_crossings == 1 + int(stats.leftover_merged), k
            assert stats.n_probe_dispatches == stats.n_batched_probes > 0

    @given(hostile_populations(), st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_crossings_on_hostile_populations(self, dataset, k):
        if len(dataset) < k:
            return
        stats = glove(dataset, GloveConfig(k=k), ComputeConfig(backend="compiled")).stats
        assert stats.n_boundary_crossings == 1 + int(stats.leftover_merged)

    def test_numpy_tier_runs_the_python_loop(self, small_civ):
        fps = list(small_civ)
        with StretchEngine(fps, compute=ComputeConfig(backend="numpy")) as engine:
            with mock.patch.object(kernels, "greedy_merge") as native:
                _greedy_merge(engine, fps, GloveConfig(k=2), GloveStats())
            native.assert_not_called()

    def test_compiled_subclass_runs_the_python_loop(self, small_civ):
        # A subclass may redefine the bounded pair, which the native
        # loop would bypass.
        class Subclass(CompiledBackend):
            pass

        fps = list(small_civ)
        with StretchEngine(fps, compute=ComputeConfig(backend="compiled")) as engine:
            engine.backend.__class__ = Subclass
            _greedy_merge(engine, fps, GloveConfig(k=2), GloveStats())
            assert engine.backend.n_boundary_crossings > 1


class TestLoopValidation:
    """The wrapper checks its per-call arrays before taking addresses (D9)."""

    @staticmethod
    def _engine_and_state(n=4):
        fps = [_group(f"u{i}", 10.0 * i, 1, x=100.0 * i) for i in range(n)]
        engine = StretchEngine(fps, compute=ComputeConfig(backend="compiled"))
        cap = engine.store.capacity
        pending = np.zeros(cap, dtype=np.uint8)
        pending[:n] = 1
        return engine, pending, np.full(cap, np.inf), np.full(cap, -1, dtype=np.int64)

    @staticmethod
    def _call(engine, pending, best_val, best_idx, size=None):
        return kernels.greedy_merge(
            engine._resident, engine.store.size if size is None else size, 2,
            pending, best_val, best_idx, True, ATOL, True, *_config_args(engine.stretch),
        )

    @pytest.mark.parametrize(
        "name,corrupt",
        [
            ("pending", lambda a: a.astype(bool)),
            ("pending", lambda a: a[:-1]),
            ("best_val", lambda a: a.astype(np.float32)),
            ("best_val", lambda a: np.repeat(a, 2)[::2]),
            ("best_idx", lambda a: a.astype(np.int32)),
            ("best_idx", lambda a: np.append(a, -1)),
        ],
        ids=[
            "bool-pending", "short-pending", "float32-best", "strided-best",
            "int32-index", "long-index",
        ],
    )
    def test_rejects_bad_state_arrays(self, name, corrupt):
        engine, *arrays = self._engine_and_state()
        names = ("pending", "best_val", "best_idx")
        arrays[names.index(name)] = corrupt(arrays[names.index(name)])
        with pytest.raises(ValueError, match=f"{name} must be a C-contiguous, writable"):
            self._call(engine, *arrays)

    def test_rejects_read_only_state(self):
        engine, pending, best_val, best_idx = self._engine_and_state()
        best_val.flags.writeable = False
        with pytest.raises(ValueError, match="best_val must be"):
            self._call(engine, pending, best_val, best_idx)

    def test_rejects_unfilled_pending_slot(self):
        engine, pending, best_val, best_idx = self._engine_and_state()
        pending[engine.store.size] = 1
        with pytest.raises(ValueError, match="slot ids"):
            self._call(engine, pending, best_val, best_idx)

    def test_rejects_a_store_without_room(self):
        engine, pending, best_val, best_idx = self._engine_and_state()
        cap = engine.store.capacity
        # Three products from slot cap - 2 on would pass the capacity,
        # and a product at slot 2 would overwrite a pending slot.
        for size in (cap - 2, 2):
            with pytest.raises(ValueError, match="free slots"):
                self._call(engine, pending, best_val, best_idx, size=size)

    def test_failed_allocation_raises_memory_error(self):
        engine, *arrays = self._engine_and_state()
        with mock.patch.object(_ckernel.LIB, "glove_greedy_merge", return_value=-1):
            with pytest.raises(MemoryError):
                self._call(engine, *arrays)
