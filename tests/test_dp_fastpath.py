"""Golden-equivalence tests for the vectorized MadPipe-DP fast path.

The vectorized solver (:func:`repro.algorithms.madpipe_dp.madpipe_dp`)
must return *identical* results — same ``dp_period``, same allocation,
same ``effective_period``, same reachable-state count — as the
kept-for-reference recursive implementation
(:func:`repro.algorithms.madpipe_dp_reference.madpipe_dp_reference`),
across randomized chains, platforms, targets and grids — including
Hypothesis-drawn instances and probes that share one warm workspace.
Its pruning counters must match a per-candidate pure-Python count.
Likewise the parallel experiment harness must reproduce the serial results, and the
JSONL result cache must round-trip and migrate the legacy format.
"""

from __future__ import annotations

import importlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.madpipe_dp import Discretization, algorithm1, madpipe_dp
from repro.algorithms.madpipe_dp_reference import madpipe_dp_reference
from repro.core import Platform
from repro.experiments import ResultCache, load_results, run_grid, save_results
from repro.models import random_chain, uniform_chain

INF = float("inf")
EPS = 1e-9
COARSE = Discretization.coarse()
#: ``random_chain(10, seed=4, decay=0.2)`` on three GPUs of this many GB
#: at T̂ = U/2 under a cap of 0.6·U: the DP reaches ~100 states in either
#: mode but no terminal one, so the probe is infeasible (dead)
DEAD_MEMORY_GB = 0.5


def assert_identical(fast, ref):
    assert fast.dp_period == ref.dp_period
    assert fast.effective_period == ref.effective_period
    assert fast.states == ref.states
    assert (fast.allocation is None) == (ref.allocation is None)
    if fast.allocation is not None:
        assert fast.allocation.stages == ref.allocation.stages
        assert fast.allocation.special == ref.allocation.special


class TestGoldenEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_chains(self, seed):
        chain = random_chain(8 + 3 * seed, seed=seed, decay=0.1 + 0.05 * seed)
        u = chain.total_compute()
        platform = Platform.of(2 + seed % 3, 0.5 * (1 + seed % 4), 12)
        for target in (u / platform.n_procs, u / 2, u):
            fast = madpipe_dp(chain, platform, target, grid=COARSE)
            ref = madpipe_dp_reference(chain, platform, target, grid=COARSE)
            assert_identical(fast, ref)

    @pytest.mark.parametrize("n_t,n_m,n_v", [(2, 2, 2), (9, 3, 5), (25, 7, 15)])
    def test_grid_shapes(self, n_t, n_m, n_v):
        chain = random_chain(10, seed=42, decay=0.2)
        platform = Platform.of(3, 1.0, 12)
        grid = Discretization(n_t, n_m, n_v)
        target = chain.total_compute() / 2
        assert_identical(
            madpipe_dp(chain, platform, target, grid=grid),
            madpipe_dp_reference(chain, platform, target, grid=grid),
        )

    def test_contiguous_mode(self):
        chain = random_chain(12, seed=3, decay=0.25)
        platform = Platform.of(4, 2.0, 12)
        target = chain.total_compute() / 4
        assert_identical(
            madpipe_dp(chain, platform, target, grid=COARSE, allow_special=False),
            madpipe_dp_reference(
                chain, platform, target, grid=COARSE, allow_special=False
            ),
        )

    def test_period_cap(self):
        chain = random_chain(12, seed=5, decay=0.15)
        platform = Platform.of(4, 2.0, 12)
        u = chain.total_compute()
        for cap in (u * 0.6, u * 0.9, INF):
            assert_identical(
                madpipe_dp(chain, platform, u / 3, grid=COARSE, period_cap=cap),
                madpipe_dp_reference(
                    chain, platform, u / 3, grid=COARSE, period_cap=cap
                ),
            )

    def test_infeasible_instances(self):
        chain = uniform_chain(8, u_f=1.0, u_b=2.0, weights=2**22, activation=2**23)
        tiny = Platform.of(2, 2**20 / 2**30, 12)
        fast = madpipe_dp(chain, tiny, chain.total_compute(), grid=COARSE)
        ref = madpipe_dp_reference(chain, tiny, chain.total_compute(), grid=COARSE)
        assert not fast.feasible
        assert_identical(fast, ref)

    @pytest.mark.parametrize("allow_special", [True, False])
    def test_dead_probe(self, allow_special):
        """No terminal state is reachable: the probe ends after discovery,
        with the reference's period, state count and (no) allocation."""
        chain = random_chain(10, seed=4, decay=0.2)
        platform = Platform.of(3, DEAD_MEMORY_GB, 12)
        u = chain.total_compute()
        kw = dict(grid=COARSE, period_cap=0.6 * u, allow_special=allow_special)
        fast = madpipe_dp(chain, platform, u / 2, **kw)
        assert not fast.feasible and fast.states > 1
        assert_identical(fast, madpipe_dp_reference(chain, platform, u / 2, **kw))

    @pytest.mark.parametrize("allow_special", [True, False])
    def test_levels_past_forward_budget(self, monkeypatch, allow_special):
        """With no byte budget the value sweep re-expands every level
        instead of taking discovery's expansion: same answer, same
        counters."""
        chain = random_chain(12, seed=5, decay=0.15)
        platform = Platform.of(4, 2.0, 12)
        u = chain.total_compute()
        kw = dict(grid=COARSE, period_cap=0.9 * u, allow_special=allow_special)
        kept = madpipe_dp(chain, platform, u / 3, **kw)
        dp_module = importlib.import_module("repro.algorithms.madpipe_dp")
        monkeypatch.setattr(dp_module, "_FORWARD_BUDGET", 0)
        redone = madpipe_dp(chain, platform, u / 3, **kw)
        assert kept.feasible
        assert_identical(redone, kept)
        assert (redone.pruned_cap, redone.pruned_mem) == (kept.pruned_cap, kept.pruned_mem)
        assert_identical(redone, madpipe_dp_reference(chain, platform, u / 3, **kw))

    def test_single_processor_roots(self):
        """P=1 with the special processor makes the root a p==0 state."""
        chain = random_chain(6, seed=9)
        platform = Platform.of(1, 8.0, 12)
        target = chain.total_compute()
        assert_identical(
            madpipe_dp(chain, platform, target, grid=COARSE),
            madpipe_dp_reference(chain, platform, target, grid=COARSE),
        )

    def test_algorithm1_binary_search(self):
        """The full T̂ search lands on the same optimum either way."""
        chain = random_chain(14, seed=11, decay=0.2)
        platform = Platform.of(4, 1.5, 12)
        fast = algorithm1(chain, platform, iterations=6, grid=COARSE)
        ref = algorithm1(
            chain, platform, iterations=6, grid=COARSE, dp=madpipe_dp_reference
        )
        assert fast.period == ref.period
        assert fast.target == ref.target
        assert fast.history == ref.history
        if fast.allocation is not None:
            assert fast.allocation.stages == ref.allocation.stages
            assert fast.allocation.special == ref.allocation.special

    def test_diagnostics_populated(self):
        chain = random_chain(10, seed=1)
        platform = Platform.of(3, 1.0, 12)
        res = madpipe_dp(
            chain,
            platform,
            chain.total_compute() / 2,
            grid=COARSE,
            period_cap=chain.total_compute(),
        )
        assert res.states > 0
        assert res.wall_time_s > 0
        assert res.pruned_mem >= 0 and res.pruned_cap >= 0
        a1 = algorithm1(chain, platform, iterations=3, grid=COARSE)
        assert a1.states > 0
        assert a1.wall_time_s > 0


def python_prune_counts(chain, platform, target, grid, period_cap, allow_special):
    """``(states, pruned_cap, pruned_mem)`` of ``MadPipe-DP(T̂)`` by a plain
    walk of the reachable state graph, one count per rejected
    ``(state, k, processor)`` candidate: a candidate over the period cap
    is cap-pruned, one under the cap that does not fit in memory is
    memory-pruned.  Transitions follow the naive reference formulas."""
    L, M, beta = chain.L, platform.memory, platform.bandwidth
    t_max = chain.total_compute()
    t_step = t_max / (grid.n_t - 1)
    m_step = M / (grid.n_m - 1)
    v_step = (t_max + chain.total_comm(beta)) / (grid.n_v - 1)
    cumU, cumW = chain._cum_u.tolist(), chain._cum_w.tolist()
    cumA, act = chain._cum_a_in.tolist(), chain._act.tolist()

    def ceil(x):
        return math.ceil(x - 1e-9)

    def mem(k, l, g):
        m = 3.0 * (cumW[l] - cumW[k - 1]) + g * (cumA[l] - cumA[k - 1])
        if k > 1:
            m += 2.0 * act[k - 1]
        if l < L:
            m += 2.0 * act[l]
        return m

    def oplus(x, y):
        cx = ceil(x / target)
        return x + y if cx == ceil((x + y) / target) else target * cx + y

    root = (L, platform.n_procs - 1 if allow_special else platform.n_procs, 0, 0, 0)
    seen, todo = {root}, [root]
    pruned_cap = pruned_mem = 0
    while todo:
        l, p, it, im, iv = todo.pop()
        if p == 0:
            continue
        t_P, m_P, V = it * t_step, im * m_step, iv * v_step
        for k in range(l, 0, -1):
            U = cumU[l] - cumU[k - 1]
            comm = 2.0 * act[k - 1] / beta if k > 1 else 0.0
            g = max(1, ceil((V + U) / target))
            iv2 = min(ceil(oplus(oplus(V, U), comm) / v_step), grid.n_v - 1)
            kids = []
            if U >= period_cap:
                pruned_cap += 1
            elif mem(k, l, g) > M + EPS:
                pruned_mem += 1
            else:
                kids.append((k - 1, p - 1, it, im, iv2))
            if allow_special:
                t2, m2 = t_P + U, m_P + mem(k, l, g - 1)
                if t2 >= period_cap:
                    pruned_cap += 1
                elif m2 > M + EPS:
                    pruned_mem += 1
                else:
                    it2 = min(ceil(t2 / t_step), grid.n_t - 1)
                    im2 = min(ceil(m2 / m_step), grid.n_m - 1)
                    kids.append((k - 1, p, it2, im2, iv2))
            for kid in kids:
                if kid[0] > 0 and kid not in seen:
                    seen.add(kid)
                    todo.append(kid)
    return len(seen), pruned_cap, pruned_mem


class TestPruningCounters:
    @pytest.mark.parametrize("allow_special", [True, False])
    def test_counts_per_candidate(self, allow_special):
        """On a live probe and on a dead one, whose counters come from
        the discovery pass alone."""
        chain = random_chain(10, seed=4, decay=0.2)
        u = chain.total_compute()
        cap = 0.6 * u
        for memory_gb in (1.0, DEAD_MEMORY_GB):
            platform = Platform.of(3, memory_gb, 12)
            res = madpipe_dp(
                chain, platform, u / 2, grid=COARSE, period_cap=cap,
                allow_special=allow_special,
            )
            expected = python_prune_counts(
                chain, platform, u / 2, COARSE, cap, allow_special
            )
            assert (res.states, res.pruned_cap, res.pruned_mem) == expected
            assert res.pruned_cap > 0 and res.pruned_mem > 0
            assert res.feasible == (memory_gb != DEAD_MEMORY_GB)


@st.composite
def dp_instances(draw):
    chain = random_chain(
        draw(st.integers(1, 10)),
        seed=draw(st.integers(0, 2**16)),
        decay=draw(st.sampled_from([0.0, 0.1, 0.3])),
    )
    platform = Platform.of(
        draw(st.integers(1, 5)), draw(st.sampled_from([0.3, 0.6, 1.0, 2.0, 8.0])), 12
    )
    grid = Discretization(
        draw(st.integers(2, 9)), draw(st.integers(2, 5)), draw(st.integers(2, 9))
    )
    return chain, platform, grid


class TestGoldenProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        dp_instances(),
        st.floats(0.1, 1.2),
        st.one_of(st.just(INF), st.floats(0.3, 1.5)),
        st.booleans(),
    )
    def test_matches_reference(self, instance, target, cap, allow_special):
        chain, platform, grid = instance
        u = chain.total_compute()
        kw = dict(grid=grid, period_cap=cap * u, allow_special=allow_special)
        assert_identical(
            madpipe_dp(chain, platform, target * u, **kw),
            madpipe_dp_reference(chain, platform, target * u, **kw),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        dp_instances(),
        st.lists(
            st.tuples(
                st.floats(0.1, 1.2), st.sampled_from([0.3, 1.0, 4.0]), st.booleans()
            ),
            min_size=2,
            max_size=4,
        ),
    )
    def test_shared_workspace_matches_cold(self, instance, probes):
        """Probes at different targets, memories and restrictions share
        one workspace (as a warm sweep's phase-1 and contiguous searches
        do, under two packed-key layouts) and still equal cold
        evaluations."""
        chain, platform, grid = instance
        u = chain.total_compute()
        workspace: dict = {}
        for target, memory_gb, allow_special in probes:
            plat = Platform.of(platform.n_procs, memory_gb, 12)
            kw = dict(grid=grid, period_cap=u, allow_special=allow_special)
            warm = madpipe_dp(chain, plat, target * u, workspace=workspace, **kw)
            cold = madpipe_dp(chain, plat, target * u, **kw)
            assert_identical(warm, cold)
            assert (warm.pruned_cap, warm.pruned_mem) == (
                cold.pruned_cap, cold.pruned_mem
            )


class TestParallelHarness:
    GRID_ARGS = (("resnet50",), (2,), (6.0, 10.0), (12.0,))
    GRID_KW = dict(
        algorithms=("pipedream", "madpipe"),
        grid=COARSE,
        iterations=3,
        ilp_time_limit=10.0,
    )

    def test_parallel_matches_serial(self):
        serial = run_grid(*self.GRID_ARGS, **self.GRID_KW)
        parallel = run_grid(*self.GRID_ARGS, n_workers=2, **self.GRID_KW)
        assert [r.key for r in serial] == [r.key for r in parallel]
        for a, b in zip(serial, parallel):
            assert a.dp_period == b.dp_period
            assert a.valid_period == b.valid_period
            assert a.n_stages == b.n_stages

    def test_parallel_uses_and_fills_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c.jsonl", flush_every=3)
        first = run_grid(*self.GRID_ARGS, n_workers=2, cache=cache, **self.GRID_KW)
        assert len(cache) == len(first)
        # a fresh cache over the same file replays without recomputing
        replay_cache = ResultCache(tmp_path / "c.jsonl")
        replayed = run_grid(
            *self.GRID_ARGS, n_workers=2, cache=replay_cache, **self.GRID_KW
        )
        assert [r.key for r in replayed] == [r.key for r in first]
        assert all(r.runtime_s == s.runtime_s for r, s in zip(replayed, first))


def mk(network, p, m, b, algo, dp, valid):
    from repro.experiments import RunResult

    return RunResult(
        network=network,
        n_procs=p,
        memory_gb=m,
        bandwidth_gbps=b,
        algorithm=algo,
        dp_period=dp,
        valid_period=valid,
        n_stages=p,
        runtime_s=0.1,
        sequential=1.0,
    )


class TestJSONLCache:
    def test_append_only_io(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        for i in range(5):
            cache.put(mk("net", 2, float(i), 12.0, "madpipe", 0.5, 0.6))
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["network"] == "net" for line in lines)

    def test_batched_flush(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path, flush_every=10)
        for i in range(4):
            cache.put(mk("net", 2, float(i), 12.0, "madpipe", 0.5, 0.6))
        assert not path.exists() or not path.read_text().strip()
        cache.flush()
        assert len(path.read_text().splitlines()) == 4

    def test_legacy_migration(self, tmp_path):
        path = tmp_path / "legacy.json"
        old = [mk("net", 2, float(i), 12.0, "madpipe", 0.5, INF) for i in range(3)]
        save_results(old, path)
        assert path.read_text().lstrip().startswith("[")
        cache = ResultCache(path)
        assert len(cache) == 3
        assert cache.get(old[0].key).valid_period == INF
        cache.put(mk("net", 4, 1.0, 12.0, "madpipe", 0.4, 0.5))
        assert not path.read_text().lstrip().startswith("[")
        assert len(load_results(path)) == 4
        # read-only opens never rewrite the legacy file
        save_results(old, path)
        ResultCache(path).flush()
        assert path.read_text().lstrip().startswith("[")

    def test_duplicate_keys_keep_latest(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        cache.put(mk("net", 2, 4.0, 12.0, "madpipe", 0.5, 0.6))
        cache.put(mk("net", 2, 4.0, 12.0, "madpipe", 0.4, 0.45))
        reopened = ResultCache(path)
        assert len(reopened) == 1
        assert reopened.get(("net", 2, 4.0, 12.0, "madpipe")).valid_period == 0.45

    def test_load_results_sniffs_both_formats(self, tmp_path):
        rows = [mk("n", 2, 1.0, 12.0, "madpipe", 0.5, 0.6)]
        legacy, jsonl = tmp_path / "a.json", tmp_path / "b.jsonl"
        save_results(rows, legacy)
        ResultCache(jsonl).put(rows[0])
        assert load_results(legacy)[0].key == load_results(jsonl)[0].key
