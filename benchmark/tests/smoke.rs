//! The smoke run, in process: every workload at its smoke size, both
//! passes, checked against the metric lists in `BENCHMARK.json`.

use srsf_benchmark::json::Json;
use srsf_benchmark::spec::Spec;
use srsf_benchmark::workload::{run_end_to_end, run_layers, workloads};

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let spec = Spec::embedded();
    for w in workloads(true) {
        let rec = run_end_to_end(&w, 3, 0.2);
        assert_eq!(rec.failed, 0, "{}: {:?}", w.name, rec.notes);
        assert!(rec.attempted >= 5 + 5 + 20 + 5, "{}", w.name);
        for def in &spec.end_to_end {
            let v = rec.metric(&def.name);
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{} {} = {v:?}",
                w.name,
                def.name
            );
        }
        // relres <= 100 tol, in digits.
        assert!(
            rec.metric("residual_digits").unwrap() >= -(100.0 * w.case.tol).log10(),
            "{}",
            w.name
        );
        // The results record survives a round trip with its raw samples.
        let json = rec.to_json();
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
        let samples = json.get("samples").unwrap();
        assert!(samples.get("solve_s").unwrap().as_arr().len() >= 200);
        assert_eq!(
            samples.get("setup_s").unwrap().as_arr().len(),
            samples.get("setup_rung_s").unwrap().as_arr().len(),
            "both rungs are built the same number of times"
        );
    }
}

#[test]
fn the_per_layer_pass_separates_the_workloads() {
    let spec = Spec::embedded();
    let table = workloads(true);
    let layers = |name: &str| {
        let w = table.iter().find(|w| w.name == name).unwrap();
        let rec = run_layers(w, 3, 0.2);
        assert_eq!(rec.failed, 0, "{name}: {:?}", rec.notes);
        for def in &spec.per_layer {
            assert!(
                rec.metric(&def.name).is_some_and(f64::is_finite),
                "{name} {}",
                def.name
            );
        }
        assert_eq!(rec.traced && rec.trace.is_some(), w.case.ranks == 1);
        move |metric: &str| rec.metric(metric).unwrap()
    };

    // The grid route (symbol table, Toeplitz operator) opens on the grid
    // and stays shut on scattered points. At 64-point leaves and below the
    // program's own cost model keeps the FFT application itself cold, so
    // `fft_block_applies` cannot carry this check; it must still be zero
    // where there is no grid.
    let grid = layers("laplace_grid");
    assert_eq!(grid("core.compress.symbol_table"), 1.0);
    assert!(grid("fft.toeplitz_apply_s") > 0.0);
    assert_eq!(grid("special.hankel_ns_per_eval"), 0.0);
    assert_eq!(grid("runtime.comm_words_per_solve"), 0.0);
    assert!(grid("core.colored.setup_s") > 0.0);

    let scattered = layers("laplace_scattered");
    assert_eq!(scattered("core.compress.symbol_table"), 0.0);
    assert_eq!(scattered("core.compress.fft_block_applies"), 0.0);
    assert_eq!(scattered("fft.toeplitz_apply_s"), 0.0);
    assert!(scattered("core.compress.dense_block_applies") > 0.0);

    let helmholtz = layers("helmholtz_grid");
    assert!(helmholtz("special.hankel_ns_per_eval") > 0.0);
    assert!(helmholtz("kernels.ns_per_eval") > grid("kernels.ns_per_eval"));

    let dist = layers("laplace_dist4");
    for metric in [
        "runtime.comm_words_per_solve",
        "runtime.comm_msgs_per_solve",
        "runtime.comm_words_setup",
        "runtime.wait_s_max_rank",
        "core.distributed.phase.interior_s",
        "core.distributed.serve.upward_s",
        "runtime.comm.bytes",
    ] {
        assert!(dist(metric) > 0.0, "{metric}");
        assert_eq!(helmholtz(metric), 0.0, "{metric}");
    }
}
