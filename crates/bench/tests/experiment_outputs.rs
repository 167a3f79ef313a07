//! Golden digests of the twelve experiment binaries' stdout.
//!
//! Every experiment prints its tables on stdout and its timings on stderr,
//! so stdout is the same bytes on every run of the same code. This test
//! runs each binary and compares a 64-bit FNV-1a digest of its stdout with
//! the value recorded when the test was written. Together the twelve cover
//! every training configuration the experiments use (corpora, cluster
//! radii, least-squares backends, consequent orders, epoch budgets), not
//! only the two `train_pen` calls `tests/training_golden.rs` pins, so a
//! change that moves any printed number fails here. Record new digests only
//! for a change that is meant to move the numbers, and regenerate
//! EXPERIMENTS.md with it.
//!
//! The binaries take ~15 s in a release build and minutes in a debug one,
//! so the test is ignored by default; run it with
//!
//! ```sh
//! cargo test --release -p cqm-bench --test experiment_outputs -- --ignored
//! ```

use std::process::Command;

/// Each binary with the FNV-1a digest of its stdout.
const EXPERIMENTS: [(&str, &str, u64); 12] = [
    (
        "ablation_cluster",
        env!("CARGO_BIN_EXE_ablation_cluster"),
        0xbd0a_7e17_e4e7_4219,
    ),
    (
        "ablation_consequent",
        env!("CARGO_BIN_EXE_ablation_consequent"),
        0x9df8_941b_0105_d3b9,
    ),
    (
        "ablation_cues",
        env!("CARGO_BIN_EXE_ablation_cues"),
        0x25c4_3484_b833_88a4,
    ),
    (
        "ablation_hybrid",
        env!("CARGO_BIN_EXE_ablation_hybrid"),
        0x4386_1890_8d9e_f675,
    ),
    (
        "ablation_lsq",
        env!("CARGO_BIN_EXE_ablation_lsq"),
        0x3736_dc92_6a31_c85a,
    ),
    ("fig5", env!("CARGO_BIN_EXE_fig5"), 0xf85f_7364_c62e_2484),
    ("fig6", env!("CARGO_BIN_EXE_fig6"), 0x67f3_28bc_e782_409f),
    (
        "fusion_experiment",
        env!("CARGO_BIN_EXE_fusion_experiment"),
        0xe6b8_1829_45bb_0cb8,
    ),
    (
        "improvement",
        env!("CARGO_BIN_EXE_improvement"),
        0xee20_f94a_2642_2de6,
    ),
    (
        "large_set",
        env!("CARGO_BIN_EXE_large_set"),
        0xe664_9080_0f75_7409,
    ),
    (
        "summary",
        env!("CARGO_BIN_EXE_summary"),
        0x9829_55dd_8f5b_d548,
    ),
    (
        "threshold_balance",
        env!("CARGO_BIN_EXE_threshold_balance"),
        0x6f25_d829_c9af_b08e,
    ),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
#[ignore = "runs all twelve experiments; ~15 s in release, use --release -- --ignored"]
fn experiment_stdout_is_pinned() {
    let mut moved = Vec::new();
    for (name, exe, want) in EXPERIMENTS {
        let out = Command::new(exe)
            .output()
            .unwrap_or_else(|e| panic!("{name}: could not run {exe}: {e}"));
        assert!(
            out.status.success(),
            "{name} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let got = fnv1a(&out.stdout);
        if got != want {
            moved.push(format!("{name}: {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(moved.is_empty(), "stdout moved:\n{}", moved.join("\n"));
}
