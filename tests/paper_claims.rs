//! The paper's headline claims, asserted end-to-end at reduced scale.
//!
//! Absolute numbers differ from the paper (our substrate is a simulator,
//! not Titan); these tests pin the *shapes*: who wins, in which
//! direction, and that the crossovers exist.

use canopus_bench::ablation;
use canopus_bench::blobs;
use canopus_bench::endtoend;
use canopus_bench::fig5;
use canopus_bench::fig6;
use canopus_data::{cfd_dataset_sized, genasis_dataset_sized, xgc1_dataset_sized};
use canopus_refactor::Estimator;

/// Claim (Fig. 5 / Motivation 2): storing base + deltas compresses
/// better than storing all levels directly.
#[test]
fn claim_delta_preconditioning_wins() {
    let ds = genasis_dataset_sized(40, 120, 42);
    let rows = fig5::compression_comparison(&ds, 4, 1e-3, Estimator::Mean);
    for row in &rows[1..] {
        assert!(
            row.canopus_normalized < row.direct_normalized,
            "N={}: {row:?}",
            row.total_levels
        );
    }
    // And the advantage grows with more levels.
    assert!(rows[3].improvement() > rows[1].improvement());
}

/// Claim (Fig. 6b): as compute gets cheaper relative to storage, the
/// refactoring overhead fades and I/O dominates the write.
#[test]
fn claim_refactoring_cost_shrinks_with_compute() {
    let ds = xgc1_dataset_sized(16, 80, 42);
    let rows = fig6::write_breakdown(&ds);
    let compute_frac = |r: &fig6::WriteBreakdownRow| r.decimation_frac + r.delta_compress_frac;
    assert!(compute_frac(&rows[0]) > compute_frac(&rows[1]));
    assert!(compute_frac(&rows[1]) > compute_frac(&rows[2]));
}

/// Claim (§IV-D / Fig. 8): "most blobs in the full accuracy data can
/// still be detected using a moderately reduced accuracy" — high overlap
/// at moderate decimation, information loss at extreme decimation.
#[test]
fn claim_blobs_survive_moderate_decimation() {
    let ds = xgc1_dataset_sized(24, 120, 42);
    let rows = blobs::blob_quality(&ds, 4);
    let config1: Vec<_> = rows.iter().filter(|r| r.config == "Config1").collect();
    // Full accuracy detects blobs at all.
    assert!(config1[0].metrics.count >= 4);
    // Moderate decimation (ratios 2, 4) keeps high overlap.
    for r in &config1[1..3] {
        assert!(
            r.overlap >= 0.6,
            "ratio {}: overlap {}",
            r.ratio_label,
            r.overlap
        );
    }
}

/// Claim (Fig. 8b): the averaging effect of edge collapsing makes
/// surviving blobs *expand* before they disappear.
#[test]
fn claim_blobs_expand_under_decimation() {
    let ds = xgc1_dataset_sized(24, 120, 42);
    let rows = blobs::blob_quality(&ds, 4);
    let config1: Vec<_> = rows.iter().filter(|r| r.config == "Config1").collect();
    let d0 = config1[0].metrics.avg_diameter;
    let expanded = config1[1..]
        .iter()
        .filter(|r| r.metrics.count > 0)
        .any(|r| r.metrics.avg_diameter > d0);
    assert!(
        expanded,
        "some decimated level should show larger average blobs: {:?}",
        config1
            .iter()
            .map(|r| (r.ratio_label.clone(), r.metrics.avg_diameter))
            .collect::<Vec<_>>()
    );
}

/// Claim (Fig. 9a): end-to-end exploratory analysis accelerates as
/// accuracy is traded for speed; the paper reports up to an order of
/// magnitude. At reduced scale we require a clear monotone win in the
/// pipeline I/O+decompress+restore cost. I/O is simulated and the same on
/// every run; decompress and restore are wall clock, so each ratio row
/// takes its best of three runs, which keeps scheduler noise on a
/// sub-millisecond phase from reordering the rows.
#[test]
fn claim_analysis_accelerates_with_reduced_accuracy() {
    let ds = xgc1_dataset_sized(16, 80, 42);
    let runs: Vec<_> = (0..3)
        .map(|_| endtoend::end_to_end(&ds, 4, false))
        .collect();
    let pipeline: Vec<f64> = (0..runs[0].len())
        .map(|i| {
            let best = |phase: fn(&endtoend::EndToEndRow) -> f64| {
                runs.iter()
                    .map(|rows| phase(&rows[i]))
                    .fold(f64::INFINITY, f64::min)
            };
            runs[0][i].io_secs + best(|r| r.decompress_secs) + best(|r| r.restore_secs)
        })
        .collect();
    let baseline = pipeline[0];
    let deepest = *pipeline.last().expect("rows");
    assert!(
        deepest < baseline / 4.0,
        "deep base should cut pipeline cost hard: {deepest} vs {baseline}"
    );
    // Monotone through the ratios.
    for pair in pipeline[1..].windows(2) {
        assert!(pair[1] <= pair[0] * 1.05);
    }
}

/// Claim (Fig. 9b): restoring *full* accuracy through Canopus still beats
/// reading raw full accuracy from the slow tier ("reduce the data
/// analysis time by up to 50%").
#[test]
fn claim_full_restore_beats_raw_read() {
    let ds = cfd_dataset_sized(45, 36, 42);
    let rows = endtoend::end_to_end(&ds, 3, false);
    let baseline = rows[0].full_restore_secs;
    let best = rows[1..]
        .iter()
        .map(|r| r.full_restore_secs)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best < baseline * 0.7,
        "best Canopus restore {best} should be >30% under baseline {baseline}"
    );
}

/// Claim (§III-C2): deltas are smoother than the levels they encode.
#[test]
fn claim_deltas_are_smoother() {
    for ds in [
        xgc1_dataset_sized(24, 120, 7),
        genasis_dataset_sized(30, 90, 7),
        cfd_dataset_sized(40, 32, 7),
    ] {
        for row in ablation::smoothness(&ds, 3) {
            assert!(
                row.delta_std < row.level_std,
                "{} level {}: delta std {} !< level std {}",
                ds.name,
                row.level,
                row.delta_std,
                row.level_std
            );
        }
    }
}

/// Claim (§III-E2): the stored mapping makes restoration point location
/// far cheaper than a brute-force search.
#[test]
fn claim_stored_mapping_accelerates_restoration() {
    let ds = xgc1_dataset_sized(16, 80, 42);
    let row = ablation::mapping_ablation(&ds);
    assert!(row.speedup > 2.0, "speedup only {:.1}x", row.speedup);
}

/// Claim (Fig. 9): on the Titan-like testbed, data movement — not
/// decompression or restoration — dominates the full-restore pipeline.
/// The paper's panel (b) bars are almost entirely retrieval time at
/// every decimation ratio; here the shared metrics registry provides the
/// evidence: per-row snapshots must show simulated I/O as the largest
/// read phase.
#[test]
fn claim_io_dominates_full_restore() {
    let ds = xgc1_dataset_sized(16, 80, 42);
    let rows = endtoend::end_to_end(&ds, 3, false);

    // The raw baseline is essentially pure I/O on the read path (the
    // raw-codec decode contributes only a sliver of wall time).
    let baseline_frac = rows[0].metrics.read_io_fraction();
    assert!(
        baseline_frac > 0.99,
        "baseline read is almost pure I/O, got fraction {baseline_frac}"
    );

    for row in &rows[1..] {
        let snap = &row.metrics;
        let breakdown = snap.read_breakdown();
        let (top_phase, top_frac) = breakdown
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty breakdown")
            .clone();
        assert_eq!(
            top_phase,
            canopus_obs::names::READ_IO,
            "ratio {}: I/O must be the top read phase, got {breakdown:?}",
            row.ratio_label
        );
        assert!(
            top_frac > 0.5,
            "ratio {}: I/O fraction {top_frac} should dominate ({breakdown:?})",
            row.ratio_label
        );
        // And the snapshot agrees with the row's own phase timing: the
        // registry saw at least the panel-(a) simulated I/O seconds.
        assert!(
            snap.timer(canopus_obs::names::READ_IO).sim_secs >= row.io_secs * 0.99,
            "ratio {}: registry I/O {}s < row I/O {}s",
            row.ratio_label,
            snap.timer(canopus_obs::names::READ_IO).sim_secs,
            row.io_secs
        );
    }
}
