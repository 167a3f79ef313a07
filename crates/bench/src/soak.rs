//! What the three soak binaries (`chaosbench`, `fleetbench`, `adaptbench`)
//! share: the model they serve, the retrying client they drive it through
//! the chaos proxy with, and which failures count as typed.

// lint: allow(PANIC_IN_LIB, file) -- soak set-up: abort loudly on a set-up failure instead of degrading

use std::net::SocketAddr;
use std::time::Duration;

use cqm_classify::FisClassifier;
use cqm_core::model::{CqmModel, MODEL_VERSION};
use cqm_core::QualityMeasure;
use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};
use cqm_serve::{ClientConfig, CqmClient, ServeError, ServedModel};

/// Hand-built two-class model over one cue in [0, 1]: class 0 near cue 0,
/// class 1 near cue 1, quality high on the diagonal. The soaks measure the
/// transport, routing, swap and adaptation machinery, not the kernels, so
/// no ANFIS training; `threshold` is the knob that tells models apart.
pub fn tiny_model(threshold: f64, note: &str) -> ServedModel {
    let g = |mu: f64, s: f64| MembershipFunction::gaussian(mu, s).expect("gaussian");
    let class_fis = TskFis::new(vec![
        TskRule::new(vec![g(0.0, 0.3)], vec![0.0, 0.0]).expect("rule"),
        TskRule::new(vec![g(1.0, 0.3)], vec![0.0, 1.0]).expect("rule"),
    ])
    .expect("class fis");
    let classifier = FisClassifier::from_fis(class_fis, 2).expect("classifier");
    let quality_fis = TskFis::new(vec![
        TskRule::new(vec![g(0.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 1.0]).expect("rule"),
        TskRule::new(vec![g(1.0, 0.25), g(1.0, 0.25)], vec![0.0, 0.0, 1.0]).expect("rule"),
        TskRule::new(vec![g(0.0, 0.25), g(1.0, 0.25)], vec![0.0, 0.0, 0.0]).expect("rule"),
        TskRule::new(vec![g(1.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 0.0]).expect("rule"),
    ])
    .expect("quality fis");
    let model = CqmModel {
        version: MODEL_VERSION,
        measure: QualityMeasure::new(quality_fis).expect("measure"),
        threshold,
        note: note.into(),
    };
    ServedModel::new(classifier, model).expect("served model")
}

/// A retrying client for a chaos proxy at `addr`: 300 ms per attempt, up to
/// 8 retries with 2–40 ms backoff, 20 s per call.
pub fn chaos_client(addr: SocketAddr, session: u64) -> CqmClient {
    CqmClient::connect(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_millis(300),
            retries: 8,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(40),
            call_deadline: Duration::from_secs(20),
            session_id: Some(session),
            seed: 7,
            ..ClientConfig::default()
        },
    )
    .expect("connect through chaos proxy")
}

/// Whether a soak accounts `e` as a typed failure: a refusal from the
/// server, or a transport failure the client reported. Any other error is
/// a bug in the soak and fails the run.
pub fn is_typed_failure(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Remote(_)
            | ServeError::RetriesExhausted { .. }
            | ServeError::Io { .. }
            | ServeError::Timeout(_)
            | ServeError::Protocol(_)
            | ServeError::ConnectionClosed
            | ServeError::Decode(_)
    )
}
