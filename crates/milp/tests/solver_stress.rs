//! Stress and edge-case tests of the MILP solver beyond the unit tests:
//! structured problem families with known optima, warm-start behaviour,
//! priorities, and limit semantics. The `Kernel::DenseTableau` oracle,
//! which solves every node LP cold on the dense tableau, checks the
//! production search's optima and its warm-start savings.

use rr_milp::{
    cmp, solve_with_stats, solve_with_stats_hinted, Kernel, LinExpr, Model, Sense, SolveError,
    SolverOptions, Status,
};

/// max Σx_i over a cube cut by one diagonal plane — LP corner is
/// fractional, integer optimum known.
fn diagonal_cut(n: usize, cap: f64) -> (Model, Vec<rr_milp::VarId>) {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n).map(|_| m.add_integer(0.0, 1.0)).collect();
    let mut sum = LinExpr::new();
    for &v in &vars {
        sum += LinExpr::var(v);
    }
    m.set_objective(sum.clone());
    m.add_constraint(sum, cmp::LE, cap);
    (m, vars)
}

#[test]
fn diagonal_cut_optimum_is_floor() {
    for n in [4usize, 8, 16] {
        let cap = n as f64 - 0.5;
        let (m, _) = diagonal_cut(n, cap);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - (n as f64 - 1.0)).abs() < 1e-6);
    }
}

#[test]
fn equality_knapsack() {
    // 3a + 5b + 7c == 19, minimize a + b + c → (0,1,2) → 3.
    let mut m = Model::new(Sense::Minimize);
    let a = m.add_integer(0.0, 10.0);
    let b = m.add_integer(0.0, 10.0);
    let c = m.add_integer(0.0, 10.0);
    m.set_objective(a + b + LinExpr::var(c));
    m.add_constraint(3.0 * a + 5.0 * b + 7.0 * c, cmp::EQ, 19.0);
    let sol = m.solve().unwrap();
    assert!((sol.objective - 3.0).abs() < 1e-6, "obj {}", sol.objective);
    let lhs = 3.0 * sol[a] + 5.0 * sol[b] + 7.0 * sol[c];
    assert!((lhs - 19.0).abs() < 1e-6);
}

#[test]
fn warm_start_is_used_when_nodes_run_out() {
    // With zero B&B exploration room, the hint is the only incumbent.
    let (m, vars) = diagonal_cut(10, 9.5);
    let opts = SolverOptions {
        max_nodes: 1,
        ..Default::default()
    };
    // All-zeros is feasible but poor; the solver must return *something*.
    let hint: Vec<_> = vars.iter().map(|&v| (v, 0.0)).collect();
    let (sol, _) = solve_with_stats_hinted(&m, &opts, &hint).unwrap();
    assert!(sol.objective >= -1e-9);
    // And an infeasible hint must be ignored, not crash: request 1s
    // everywhere (violates the ≤ 9.5 row).
    let bad_hint: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    match solve_with_stats_hinted(&m, &opts, &bad_hint) {
        Ok((sol, _)) => assert!(sol.objective <= 9.0 + 1e-6),
        Err(SolveError::IterationLimit) => {} // no incumbent found in 1 node
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn priorities_steer_branching() {
    // Two symmetric fractional variables; the high-priority one must be
    // branched first. We can't observe the tree directly, but priorities
    // must not change the optimum.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_integer(0.0, 3.0);
    let y = m.add_integer(0.0, 3.0);
    m.set_objective(x + LinExpr::var(y));
    m.add_constraint(2.0 * x + 2.0 * y, cmp::LE, 9.0);
    m.set_priority(x, 10);
    let sol = m.solve().unwrap();
    assert!((sol.objective - 4.0).abs() < 1e-6);
}

#[test]
fn gap_tolerance_accepts_near_optimal() {
    let (m, _) = diagonal_cut(12, 11.5);
    let opts = SolverOptions {
        gap_tol: 0.2, // 20%: the first decent incumbent ends the search
        ..Default::default()
    };
    let sol = m.solve_with(&opts).unwrap();
    // Within 20% of the LP bound 11.5.
    assert!(sol.objective >= 11.5 * 0.8 - 1.0);
}

#[test]
fn time_limit_is_respected() {
    use std::time::{Duration, Instant};
    // A knapsack family with many near-ties explores a big tree.
    let mut m = Model::new(Sense::Maximize);
    let n = 24;
    let mut obj = LinExpr::new();
    let mut row = LinExpr::new();
    for i in 0..n {
        let v = m.add_integer(0.0, 1.0);
        obj += (100.0 + (i % 7) as f64 * 0.01) * v;
        row += (100.0 + (i % 5) as f64 * 0.013) * v;
    }
    m.set_objective(obj);
    m.add_constraint(row, cmp::LE, 100.0 * (n as f64) / 2.0 + 0.37);
    let opts = SolverOptions {
        time_limit: Some(Duration::from_millis(300)),
        max_nodes: usize::MAX,
        ..Default::default()
    };
    let t0 = Instant::now();
    let _ = m.solve_with(&opts);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "time limit ignored: {:?}",
        t0.elapsed()
    );
}

#[test]
fn unused_variables_default_to_bounds() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_continuous(2.0, 9.0);
    let _unused = m.add_integer(-3.0, 5.0);
    m.set_objective(LinExpr::var(x));
    let sol = m.solve().unwrap();
    assert!((sol[x] - 2.0).abs() < 1e-7);
}

#[test]
fn empty_model_solves_trivially() {
    let m = Model::new(Sense::Minimize);
    let sol = m.solve().unwrap();
    assert_eq!(sol.objective, 0.0);
}

#[test]
fn mixed_equalities_and_bounds_with_negative_coefficients() {
    // min 3x − 2y s.t. x − y == -2, x + y >= 4, 0 ≤ x ≤ 10, 0 ≤ y ≤ 10
    // → y = x + 2, x + x + 2 ≥ 4 → x ≥ 1 → obj = 3x − 2x − 4 = x − 4 → x=1.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_continuous(0.0, 10.0);
    let y = m.add_continuous(0.0, 10.0);
    m.set_objective(3.0 * x - 2.0 * y);
    m.add_constraint(x - y, cmp::EQ, -2.0);
    m.add_constraint(x + y, cmp::GE, 4.0);
    let sol = m.solve().unwrap();
    assert!((sol[x] - 1.0).abs() < 1e-6);
    assert!((sol[y] - 3.0).abs() < 1e-6);
    assert!((sol.objective - (-3.0)).abs() < 1e-6);
}

/// The near-tie knapsack family from `time_limit_is_respected`, sized to
/// need real branching without taking seconds.
fn near_tie_knapsack(n: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let mut obj = LinExpr::new();
    let mut row = LinExpr::new();
    for i in 0..n {
        let v = m.add_integer(0.0, 1.0);
        obj += (100.0 + (i % 7) as f64 * 0.01) * v;
        row += (100.0 + (i % 5) as f64 * 0.013) * v;
    }
    m.set_objective(obj);
    m.add_constraint(row, cmp::LE, 100.0 * (n as f64) / 2.0 + 0.37);
    m
}

/// A multi-row MILP shaped like the retiming formulations: difference
/// constraints `x_u − x_v ≤ w` over a ring plus coupling knapsack rows —
/// node LPs need real simplex work, which is where warm starts pay.
fn ring_difference_milp(n: usize, rows: usize) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n).map(|_| m.add_integer(0.0, 6.0)).collect();
    let mut obj = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        obj += ((i % 4 + 1) as f64) * v;
    }
    m.set_objective(obj);
    for i in 0..n {
        let j = (i + 1) % n;
        m.add_constraint(vars[i] - vars[j], cmp::LE, ((i % 3) as f64) - 0.5);
    }
    for r in 0..rows {
        let mut row = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            row += (((i + r) % 5 + 1) as f64) * v;
        }
        m.add_constraint(row, cmp::GE, 2.5 * n as f64 + r as f64);
    }
    m
}

/// The warm-start regression: over this file's instance family, the
/// production search (warm-started nodes) must (a) agree on the optimum
/// with the `Kernel::DenseTableau` request, which solves every node
/// two-phase from scratch on the tableau, (b) actually warm-start most nodes, and (c)
/// spend no more simplex pivots in total than the cold oracle search.
/// (On single-row toys a cold boxed solve is nearly free, so the
/// per-instance comparison carries a small absolute slack; the family
/// total — dominated by the realistic multi-row instances — must hold
/// strictly.)
#[test]
fn warm_start_spends_fewer_pivots_than_cold_start() {
    let instances: Vec<(&str, Model)> = vec![
        ("diagonal_cut_8", diagonal_cut(8, 7.5).0),
        ("diagonal_cut_16", diagonal_cut(16, 15.5).0),
        ("near_tie_knapsack_10", near_tie_knapsack(10)),
        ("near_tie_knapsack_14", near_tie_knapsack(14)),
        ("ring_difference_12x6", ring_difference_milp(12, 6)),
        ("ring_difference_18x9", ring_difference_milp(18, 9)),
        ("equality_knapsack", {
            let mut m = Model::new(Sense::Minimize);
            let a = m.add_integer(0.0, 10.0);
            let b = m.add_integer(0.0, 10.0);
            let c = m.add_integer(0.0, 10.0);
            m.set_objective(a + b + LinExpr::var(c));
            m.add_constraint(3.0 * a + 5.0 * b + 7.0 * c, cmp::EQ, 19.0);
            m
        }),
    ];
    // The gap settings stay at defaults so both runs take identical
    // branching decisions whenever the node LPs agree.
    let warm_opts = SolverOptions::default();
    let cold_opts = SolverOptions {
        kernel: Kernel::DenseTableau,
        ..Default::default()
    };
    let mut total_warm = 0usize;
    let mut total_cold = 0usize;
    for (name, m) in &instances {
        let (sol_w, st_w) = solve_with_stats(m, &warm_opts).unwrap();
        let (sol_c, st_c) = solve_with_stats(m, &cold_opts).unwrap();
        assert!(
            (sol_w.objective - sol_c.objective).abs() < 1e-6,
            "{name}: warm obj {} vs cold obj {}",
            sol_w.objective,
            sol_c.objective
        );
        assert!(
            st_w.simplex_iters <= st_c.simplex_iters + 32,
            "{name}: warm start spent {} pivots, cold start only {}",
            st_w.simplex_iters,
            st_c.simplex_iters
        );
        total_warm += st_w.simplex_iters;
        total_cold += st_c.simplex_iters;
        if st_w.nodes > 1 {
            assert!(
                st_w.warm_solves > 0,
                "{name}: multi-node search never warm-started"
            );
        }
    }
    assert!(
        total_warm <= total_cold,
        "family total: warm {total_warm} vs cold {total_cold}"
    );
}

/// The dense tableau stays available as a cross-validation oracle on
/// this file's instances.
#[test]
fn dense_oracle_agrees_on_stress_instances() {
    let oracle = SolverOptions {
        kernel: Kernel::DenseTableau,
        ..Default::default()
    };
    for (m, expect) in [
        (diagonal_cut(8, 7.5).0, 7.0),
        (near_tie_knapsack(10), 500.03),
    ] {
        let revised = m.solve().unwrap().objective;
        let dense = m.solve_with(&oracle).unwrap().objective;
        assert!(
            (revised - dense).abs() < 1e-6,
            "revised {revised} vs dense {dense}"
        );
        assert!(
            (revised - expect).abs() < 0.5,
            "objective {revised} far from expected {expect}"
        );
    }
}

#[test]
fn big_m_coefficients_stay_stable() {
    // The retiming MILPs mix ±1 with τ* ≈ 5000 coefficients; check a
    // caricature: indicator-style big-M rows.
    let big = 5_000.0;
    let mut m = Model::new(Sense::Minimize);
    let z = m.add_integer(0.0, 1.0);
    let x = m.add_continuous(0.0, f64::INFINITY);
    m.set_objective(10.0 * z + LinExpr::var(x));
    // x ≥ 7 − big·z : picking z=1 relaxes the row but costs 10.
    m.add_constraint(x + big * z, cmp::GE, 7.0);
    let sol = m.solve().unwrap();
    assert_eq!(sol.int_value(z), 0);
    assert!((sol[x] - 7.0).abs() < 1e-5);
}
