//! The AwareOffice over the wire: a CQM inference service end to end.
//!
//! Trains the AwarePen stack, starts a `cqm-serve` server on an ephemeral
//! port, and runs an office session through it twice — request by request
//! and as one batch — comparing every answer bit-for-bit against the
//! in-process `CqmSystem` path (the `aware_office` reference). The server
//! is then drained to a checkpoint and a second instance warm-starts from
//! it, proving the restart serves the identical model.
//!
//! ```sh
//! cargo run --release --example served_office
//! ```
//!
//! The final `SUMMARY` line is machine-readable (scripts/check.sh greps
//! for `match=ok`).

use cqm::appliance::pen::train_pen;
use cqm::core::model::CqmModel;
use cqm::core::normalize::Quality;
use cqm::core::pipeline::{CqmSystem, QualifiedClassification};
use cqm::sensors::{Scenario, SensorNode};
use cqm::serve::{ClientConfig, CqmClient, CqmServer, ModelSource, ServedModel, ServerConfig};

/// Bit-level equality: same class, same decision, and the quality is the
/// same `f64` down to the last bit (or ε on both sides).
fn identical(a: &QualifiedClassification, b: &QualifiedClassification) -> bool {
    let quality_same = match (a.quality, b.quality) {
        (Quality::Value(x), Quality::Value(y)) => x.to_bits() == y.to_bits(),
        (Quality::Epsilon, Quality::Epsilon) => true,
        _ => false,
    };
    a.class == b.class && quality_same && a.decision == b.decision
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== served office: the CQM pipeline over TCP ==");
    println!("training the pen...");
    let build = train_pen(2026, 1)?;
    // The in-process reference and the served model share one training run.
    let reference = CqmSystem::from_trained(build.classifier.clone(), &build.trained_cqm)?;
    let served = ServedModel::new(
        build.classifier.clone(),
        CqmModel::from_trained(&build.trained_cqm, "served office"),
    )?;

    let checkpoint = std::env::temp_dir().join(format!("served_office_{}.ck", std::process::id()));
    let server = CqmServer::start(
        ModelSource::Fresh(served),
        ServerConfig {
            checkpoint: Some(checkpoint.clone()),
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("serving on {addr}");

    // One office session, classified over the wire.
    let mut node = SensorNode::with_seed(909);
    let scenario = Scenario::balanced_session()?.then(&Scenario::write_think_write()?);
    let windows = node.run_scenario(&scenario)?;
    println!("classifying {} windows through the service\n", windows.len());

    let mut client = CqmClient::connect(addr, ClientConfig::default())?;
    let mut accepted = 0usize;
    let mut discarded = 0usize;
    let mut epsilon = 0usize;
    let mut mismatches = 0usize;
    for w in &windows {
        let over_wire = client.classify(&w.cues)?;
        let in_process = reference.classify_with_quality(&w.cues)?;
        if !identical(&over_wire, &in_process) {
            mismatches += 1;
        }
        match over_wire.quality {
            Quality::Value(_) => {}
            Quality::Epsilon => epsilon += 1,
        }
        if over_wire.decision.is_accept() {
            accepted += 1;
        } else {
            discarded += 1;
        }
    }

    // The same windows again, as one atomic batch — the server answers it
    // through its batch path, which must be invisible in the answers.
    let rows: Vec<Vec<f64>> = windows.iter().map(|w| w.cues.clone()).collect();
    let batched = client.classify_batch(&rows)?;
    let mut batch_mismatches = 0usize;
    for (w, over_wire) in windows.iter().zip(&batched) {
        let in_process = reference.classify_with_quality(&w.cues)?;
        if !identical(over_wire, &in_process) {
            batch_mismatches += 1;
        }
    }

    let health = client.health()?;
    println!(
        "server health: {} requests, {} rows classified, queue highwater {}",
        health.requests, health.rows_classified, health.queue_highwater
    );
    println!(
        "decisions: {accepted} accepted, {discarded} discarded ({epsilon} of them epsilon)"
    );
    println!(
        "bit-for-bit vs in-process: {} single mismatches, {batch_mismatches} batch mismatches",
        mismatches
    );

    // Drain to the checkpoint and warm-start a second instance from it.
    drop(client);
    server.shutdown()?;
    let restarted = CqmServer::start(
        ModelSource::WarmStart(checkpoint.clone()),
        ServerConfig::default(),
    )?;
    let mut client = CqmClient::connect(restarted.local_addr(), ClientConfig::default())?;
    let snapshot = client.snapshot()?;
    println!(
        "\nwarm restart: checkpoint_seq={} warm_started={}",
        snapshot.checkpoint_seq, snapshot.warm_started
    );
    let mut restart_mismatches = 0usize;
    for w in windows.iter().take(20) {
        let over_wire = client.classify(&w.cues)?;
        let in_process = reference.classify_with_quality(&w.cues)?;
        if !identical(&over_wire, &in_process) {
            restart_mismatches += 1;
        }
    }
    println!("restarted server answers: {restart_mismatches} mismatches over 20 windows");
    drop(client);
    restarted.shutdown()?;
    std::fs::remove_file(&checkpoint)?;

    let all_match = mismatches == 0 && batch_mismatches == 0 && restart_mismatches == 0;
    let warm_ok = snapshot.warm_started && snapshot.checkpoint_seq == 1;
    println!(
        "\nSUMMARY windows={} accepted={accepted} discarded={discarded} epsilon={epsilon} \
         warm_seq={} match={}",
        windows.len(),
        snapshot.checkpoint_seq,
        if all_match && warm_ok { "ok" } else { "FAILED" },
    );
    if !(all_match && warm_ok) {
        return Err("served answers diverged from the in-process path".into());
    }
    Ok(())
}
