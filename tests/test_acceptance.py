"""End-to-end checks of the shipped guarantees, one test per guarantee.

Every test records a single PASS/FAIL line with the measured numbers;
conftest replays them in a summary section, so a plain `pytest -v`
doubles as a report. Tolerances are pinned; oracle values come from
tests/oracles.py or from closed-form constructions, never from the code
under test.
"""
import time
from dataclasses import replace

import numpy as np

from gwnet import (Coupling, FrechetParams, GeodesicRep, GwParams,
                   MeasureNetwork, TangentDataset, aligned_distance, blow_up,
                   default_sbm_spec, distortion_matrix, evaluate, exp_map,
                   featurize,
                   frechet_gradient, frechet_mean, generate_sbm,
                   geodesic_aligned, gw_distance, log_map, random_vertex,
                   sbm_compression_experiment, solve_gw, support_size_sweep,
                   tangent_pca, vectorize_at_base)
from gwnet.gw import _cross

from conftest import (REPORT_LINES, psd_network, random_network,
                      uniform_network)
from oracles import (brute_min_gw, dense_weighted_pca,
                     expansion_coupling_target, fd_gradient, gw_objective,
                     half_sample_block_means, marginal_gradient,
                     relabeled_gap)


def _report(name: str, ok: bool, detail: str) -> bool:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    REPORT_LINES.append(line)
    return ok


def _mixed_coupling(rng, p, q) -> np.ndarray:
    t = rng.random()
    return t * np.outer(p, q) + (1 - t) * random_vertex(p, q, rng)


def test_distortion_forms_agree_at_scale():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n, m = rng.integers(2, 9), rng.integers(2, 9)
        X = random_network(rng, n, uniform_mu=False)
        Y = random_network(rng, m, uniform_mu=False)
        C = _mixed_coupling(rng, X.mu, Y.mu)
        a = np.sqrt(gw_objective(X.omega, Y.omega, C))
        b = distortion_matrix(X, Y, C)
        worst = max(worst, abs(a - b) / abs(a))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    assert _report("distortion forms", ok,
                   f"max rel {worst:.3e} over 200 pairs, {elapsed:.2f}s")


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n, m = rng.integers(2, 6), rng.integers(2, 6)
        X = random_network(rng, n, uniform_mu=False)
        Y = random_network(rng, m, uniform_mu=False)
        C = _mixed_coupling(rng, X.mu, Y.mu)
        A, B = X.omega, Y.omega
        # the gradient solve_gw steps along, plus the marginal terms it
        # leaves out because they are constant on the polytope
        g = marginal_gradient(A, B, C) - 2.0 * _cross(A, B, C)
        worst = max(worst, np.abs(g - fd_gradient(X.omega, Y.omega, C)).max())
    ok = worst <= 1e-5
    assert _report("gradient vs finite differences", ok,
                   f"max abs {worst:.3e} over 50 instances")


def test_one_node_example_end_to_end(one_node, two_swap):
    d = gw_distance(one_node, two_swap)
    dist_ok = abs(d - 0.353553) <= 1e-6

    C, _ = solve_gw(one_node, two_swap)
    pair = blow_up(one_node, two_swap, C)
    blow_ok = (np.array_equal(pair.omega_xhat, np.ones((2, 2)))
               and np.array_equal(pair.mu_hat, [0.5, 0.5]))

    result = frechet_mean([pair.base_network(), two_swap])
    Z = MeasureNetwork(np.array([[0.5, 1.0], [1.0, 0.5]]),
                       np.array([0.5, 0.5]))
    dm = gw_distance(result.network, Z, GwParams(restarts=8))
    mean_ok = dm <= 1e-6

    ok = dist_ok and blow_ok and mean_ok
    assert _report("one-node example end to end", ok,
                   f"d={d:.9f}, blow-up exact={blow_ok}, "
                   f"mean-to-target d={dm:.2e}")


def test_geodesic_interpolation_distances():
    rng = np.random.default_rng(102)
    ts = [0.0, 0.25, 0.5, 0.75, 1.0]
    small_shapes = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (2, 6),
                    (3, 4), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (2, 6),
                    (2, 2), (3, 3), (3, 4), (2, 4), (2, 5), (2, 6)]
    worst = 0.0
    for n, m in small_shapes:
        X = psd_network(rng, n)
        Y = psd_network(rng, m)
        # both endpoints are symmetric PSD, so the vertex sweep is a true
        # global oracle and the interpolation below is a genuine geodesic
        val, V = brute_min_gw(X.omega, Y.omega, X.mu, Y.mu)
        d = np.sqrt(max(val, 0.0)) / 2.0
        pair = blow_up(X, Y, Coupling(V, X.mu, Y.mu))
        g = GeodesicRep(pair, aligned_distance(pair))
        worst = max(worst, abs(g.half_length - d))
        for a in range(len(ts)):
            for b in range(a + 1, len(ts)):
                s, t = ts[a], ts[b]
                A, B = evaluate(g, s), evaluate(g, t)
                measured = gw_distance(A, B, GwParams(given=np.diag(A.mu)))
                worst = max(worst, abs(measured - (t - s) * d))

    worst_ub = 0.0
    for n, m in [(4, 5), (5, 5), (4, 6), (5, 6), (6, 6)]:
        X = random_network(rng, n, uniform_mu=False)
        Y = random_network(rng, m, uniform_mu=False)
        g = geodesic_aligned(X, Y, GwParams(restarts=4, rng_seed=0))
        for a in range(len(ts)):
            for b in range(a + 1, len(ts)):
                s, t = ts[a], ts[b]
                A, B = evaluate(g, s), evaluate(g, t)
                measured = gw_distance(A, B, GwParams(given=np.diag(A.mu)))
                worst_ub = max(worst_ub,
                               measured - (t - s) * g.half_length)
    ok = worst <= 1e-6 and worst_ub <= 1e-6
    assert _report("geodesic interpolation", ok,
                   f"max |measured - expected| {worst:.3e} on 20 oracle "
                   f"pairs, max upper-bound excess {worst_ub:.3e} on larger "
                   f"pairs")


def test_exp_undoes_log_across_random_pairs():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        n, m = rng.integers(2, 6), rng.integers(2, 6)
        X = random_network(rng, n, uniform_mu=False)
        Y = random_network(rng, m, uniform_mu=False)
        C, _ = solve_gw(X, Y, GwParams(restarts=2, rng_seed=0))
        v, pair = log_map(X, Y, C)
        Z = exp_map(v)
        C = expansion_coupling_target(Y, pair)
        d = gw_distance(Y, Z, GwParams(given=C.matrix))
        worst = max(worst, d)
    ok = worst <= 1e-7
    assert _report("exp/log round trip", ok,
                   f"max distance back {worst:.3e} over 50 pairs")


def test_mean_gradient_vanishes_and_descent_returns():
    rng = np.random.default_rng(104)
    A = random_network(rng, 4)
    members = [A.with_omega(A.omega + 0.05 * rng.standard_normal((4, 4)))
               for _ in range(3)]
    mean_net = A.with_omega(np.mean([m.omega for m in members], axis=0))
    params = FrechetParams(gw=GwParams(given=np.diag(A.mu)))
    grad = frechet_gradient(members, mean_net, params)
    exact_zero = not grad.gradient.any()

    seed = mean_net.with_omega(mean_net.omega
                               + 0.02 * rng.standard_normal((4, 4)))
    result = frechet_mean(members, params, seed=seed)
    gap = abs(result.loss - grad.loss)
    ok = exact_zero and gap <= 1e-6
    assert _report("mean stationarity", ok,
                   f"gradient at mean exactly zero={exact_zero}, "
                   f"loss gap after descent {gap:.2e}")


def test_block_mean_recovery_across_seeds():
    # The method promises half the block means of each draw, not of the
    # law: at 20-node blocks and variance 5 every sample block mean carries
    # about 0.056 of standard error after halving, so the share of runs
    # within 0.1 of means/2 (about 3 in 20) is printed, not gated.
    spec = default_sbm_spec()
    t0 = time.perf_counter()
    report = sbm_compression_experiment(spec, n_runs=20, bound=0.1,
                                        rng_seed=0)
    elapsed = time.perf_counter() - t0
    matched = 0
    worst = 0.0
    for r, run in enumerate(report.runs):
        draw = replace(spec, rng_seed=spec.rng_seed + 1000 * r)
        oracle = half_sample_block_means(generate_sbm(draw).omega)
        gap = relabeled_gap(run.recovered, oracle)
        oracle_dev = relabeled_gap(oracle, spec.means / 2.0)
        dev_gap = abs(run.max_deviation - oracle_dev)
        worst = max(worst, gap, dev_gap)
        matched += gap <= 1e-9 and dev_gap <= 1e-9
    devs = [r.max_deviation for r in report.runs]
    ok = matched >= 19 and elapsed < 120.0
    assert _report("block mean recovery", ok,
                   f"{matched}/20 runs match half the sample block means "
                   f"(need >= 19), max gap {worst:.1e}; "
                   f"{report.pass_count}/20 within 0.1 of means/2 "
                   f"(not gated), deviations "
                   f"{min(devs):.3f}..{max(devs):.3f}, {elapsed:.1f}s")


def test_support_growth_stays_linear():
    sizes = (5, 10, 20, 40)
    rows = support_size_sweep(sizes=sizes, trials=20, rng_seed=0)
    medians = []
    bound_ok = True
    for n in sizes:
        med = float(np.median([r["support_size"] for r in rows
                               if r["n"] == n]))
        medians.append(med)
        bound_ok = bound_ok and med <= 2 * n - 1
    slope = float(np.polyfit(sizes, medians, 1)[0])
    ok = bound_ok and (1.0 - 1e-9) <= slope <= 3.0
    assert _report("support growth", ok,
                   f"medians {dict(zip(sizes, medians))}, slope {slope:.3f}")


def test_weighted_pca_against_dense_oracle():
    rng = np.random.default_rng(105)
    base = uniform_network(rng.standard_normal((3, 3)))
    weights = np.outer(base.mu, base.mu).ravel()

    direction = rng.standard_normal(9)
    coeffs = np.array([-1.0, -0.4, 0.3, 1.1])
    ds1 = TangentDataset(base=base, vectors=np.outer(coeffs, direction),
                         weights=weights)
    r1 = tangent_pca(ds1)
    first_gap = abs(r1.explained_variance_ratios[0] - 1.0)
    rank_one_ok = r1.num_components == 1 and first_gap <= 1e-9

    rows = 0.3 * rng.standard_normal((5, 9))
    ds2 = TangentDataset(base=base, vectors=rows, weights=weights)
    r2 = tangent_pca(ds2)
    _, comps, ratios = dense_weighted_pca(rows, weights)
    comp_gap = 0.0
    for mine, ref in zip(r2.components, comps):
        comp_gap = max(comp_gap, min(np.abs(mine - ref).max(),
                                     np.abs(mine + ref).max()))
    ratio_gap = float(np.abs(r2.explained_variance_ratios - ratios).max())
    ok = rank_one_ok and comp_gap <= 1e-8 and ratio_gap <= 1e-9
    assert _report("weighted tangent directions", ok,
                   f"rank-1 first ratio off by {first_gap:.1e}, component "
                   f"gap {comp_gap:.1e}, ratio gap {ratio_gap:.1e}")


def test_feature_inner_products_match_tangent_geometry():
    rng = np.random.default_rng(106)
    A = random_network(rng, 3)
    nets = [A.with_omega(A.omega + 0.05 * rng.standard_normal((3, 3)))
            for _ in range(5)]
    ds = vectorize_at_base(A, nets, GwParams(given=np.diag(A.mu)))
    F = featurize(ds)
    gap = float(np.abs(F @ F.T
                       - (ds.vectors * ds.weights) @ ds.vectors.T).max())
    ok = gap <= 1e-9
    assert _report("feature inner products", ok,
                   f"max Gram deviation {gap:.3e} over 5 networks")
