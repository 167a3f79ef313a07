//! Chaos → determinism → warm-restart integration suite for `cqm-serve`.
//!
//! The contract under test (ISSUE: networked inference service):
//!
//! * malformed input — torn frames, truncated frames, flipped bytes,
//!   oversized length prefixes — surfaces as typed wire errors or clean
//!   disconnects, **never** a panic, and never takes the server down for
//!   other clients (mirrors `tests/recovery.rs` for the journal);
//! * the same requests produce **bit-identical** responses at any worker
//!   count and from any mix of concurrent connections;
//! * overload produces typed `Overloaded` answers, not hangs or drops;
//! * a drain-then-checkpoint shutdown warm-starts a second instance that
//!   answers bit-identically and resumes the checkpoint sequence.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Duration;

use cqm::classify::FisClassifier;
use cqm::core::model::{CqmModel, MODEL_VERSION};
use cqm::core::normalize::Quality;
use cqm::core::pipeline::{CqmSystem, QualifiedClassification};
use cqm::core::QualityMeasure;
use cqm::fuzzy::{MembershipFunction, TskFis, TskRule};
use cqm::serve::protocol::{
    encode_frame, encode_frame_with_version, read_frame, FrameRead, Request, RequestId, Response,
};
use cqm::serve::{
    AdmissionPolicy, ClientConfig, CqmClient, CqmServer, ModelSource, ServedModel, ServerConfig,
    ServeError, WireErrorKind,
};

/// Hand-built two-class model over one cue in [0, 1]: cheap enough that
/// every test can build its own server (no ANFIS training in this suite).
fn tiny_model() -> ServedModel {
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
        threshold: 0.5,
        note: "serve chaos suite".into(),
    };
    ServedModel::new(classifier, model).expect("served model")
}

/// The in-process reference the served answers must match bit-for-bit.
fn reference_system(model: &ServedModel) -> CqmSystem<FisClassifier> {
    CqmSystem::new(
        model.classifier().clone(),
        model.model().measure.clone(),
        model.model().filter().expect("threshold"),
    )
    .expect("reference system")
}

fn start_default() -> CqmServer {
    CqmServer::start(ModelSource::Fresh(tiny_model()), ServerConfig::default()).expect("start")
}

fn client(addr: SocketAddr) -> CqmClient {
    CqmClient::connect(addr, ClientConfig::default()).expect("connect")
}

/// Deterministic probe cues spread over (and slightly past) the covered
/// range, so the set exercises accepts, discards and both classes.
fn probe_cues(n: usize) -> Vec<Vec<f64>> {
    (0..n).map(|i| vec![-0.1 + 1.2 * i as f64 / n as f64]).collect()
}

fn assert_bit_identical(a: &QualifiedClassification, b: &QualifiedClassification, tag: &str) {
    assert_eq!(a.class, b.class, "{tag}: class");
    assert_eq!(a.decision, b.decision, "{tag}: decision");
    match (a.quality, b.quality) {
        (Quality::Value(x), Quality::Value(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: quality bits");
        }
        (x, y) => assert_eq!(x, y, "{tag}: quality variant"),
    }
}

/// Send raw bytes, close the write side, and collect whatever the server
/// answers before hanging up. Returns the typed goodbye if one arrived.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // The server may rightfully hang up mid-send (e.g. it already refused
    // a corrupted length prefix); a failed write/half-close is then part
    // of the chaos, not a test failure.
    if stream.write_all(bytes).is_err() {
        return None;
    }
    if stream.shutdown(Shutdown::Write).is_err() {
        return None;
    }
    match read_frame::<_, Response>(&mut stream) {
        Ok(FrameRead::Frame(response)) => Some(response),
        // A torn exchange may race the goodbye; EOF and transport errors
        // are acceptable — the assertions below only require that the
        // server itself stays up.
        Ok(FrameRead::Eof) | Ok(FrameRead::Idle) | Err(_) => None,
    }
}

/// After any chaos, the server must still answer a clean client.
fn assert_still_serving(addr: SocketAddr, reference: &CqmSystem<FisClassifier>) {
    let mut c = client(addr);
    let served = c.classify(&[0.9]).expect("server still serving");
    let expected = reference.classify_with_quality(&[0.9]).expect("reference");
    assert_bit_identical(&served, &expected, "post-chaos probe");
}

#[test]
fn truncated_frames_never_kill_the_server() {
    let model = tiny_model();
    let reference = reference_system(&model);
    let server = start_default();
    let addr = server.local_addr();

    let frame = encode_frame(&Request::Classify {
        id: RequestId {
            session: 500,
            request: 1,
        },
        tenant: None,
        cues: vec![0.5],
    })
    .expect("encode");
    // Every strict prefix of a valid frame: header cut short, payload cut
    // short, empty connection.
    for cut in [0, 1, 4, 11, 12, 13, frame.len() / 2, frame.len() - 1] {
        assert!(cut < frame.len());
        let goodbye = send_raw(addr, &frame[..cut]);
        if let Some(Response::Error { error }) = goodbye {
            assert_eq!(error.kind, WireErrorKind::BadRequest, "cut={cut}");
        }
    }
    assert_still_serving(addr, &reference);
    let health = server.shutdown().expect("shutdown");
    // Mid-frame EOFs are session errors; an empty connection (cut=0) is a
    // clean EOF and must NOT be counted as one.
    assert!(health.session_errors >= 6, "health: {health:?}");
}

#[test]
fn corrupt_frame_fuzzing_yields_typed_errors() {
    let model = tiny_model();
    let reference = reference_system(&model);
    let server = start_default();
    let addr = server.local_addr();

    let frame = encode_frame(&Request::Classify {
        id: RequestId {
            session: 501,
            request: 1,
        },
        tenant: None,
        cues: vec![0.25],
    })
    .expect("encode");
    // Flip one byte at a time across the whole frame — length prefix,
    // version, CRC and payload alike. No flip may panic the server or
    // produce a silently-wrong classification: every answer must be a
    // typed error (or a dropped torn exchange).
    for i in 0..frame.len() {
        let mut corrupted = frame.clone();
        corrupted[i] ^= 0x40;
        match send_raw(addr, &corrupted) {
            Some(Response::Error { error }) => {
                // Every flip is a malformed-frame goodbye, one in the
                // version word (bytes 4..8) included: the CRC is checked
                // before a foreign version is believed.
                assert_eq!(error.kind, WireErrorKind::BadRequest, "flip at {i}");
            }
            Some(other) => panic!("flip at {i} produced a non-error answer: {other:?}"),
            None => {}
        }
    }
    assert_still_serving(addr, &reference);
    server.shutdown().expect("shutdown");
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    let model = tiny_model();
    let reference = reference_system(&model);
    let server = start_default();
    let addr = server.local_addr();

    // A header announcing a payload far beyond MAX_FRAME_LEN. The server
    // must refuse from the 12 header bytes alone — the gigabyte is never
    // allocated, let alone awaited.
    let mut header = Vec::new();
    header.extend_from_slice(&(1u32 << 30).to_le_bytes());
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    let goodbye = send_raw(addr, &header).expect("typed rejection");
    let Response::Error { error } = goodbye else {
        panic!("expected an error, got {goodbye:?}");
    };
    assert_eq!(error.kind, WireErrorKind::BadRequest);
    assert!(
        error.detail.contains("caps"),
        "detail should name the cap: {}",
        error.detail
    );
    assert_still_serving(addr, &reference);
    server.shutdown().expect("shutdown");
}

#[test]
fn concurrent_clients_get_bit_identical_answers_at_any_worker_count() {
    let model = tiny_model();
    let reference = reference_system(&model);
    let cues = probe_cues(24);
    let expected: Vec<QualifiedClassification> = cues
        .iter()
        .map(|c| reference.classify_with_quality(c).expect("reference"))
        .collect();

    for workers in [1usize, 4] {
        let server = CqmServer::start(
            ModelSource::Fresh(tiny_model()),
            ServerConfig {
                workers,
                micro_batch: 4,
                ..ServerConfig::default()
            },
        )
        .expect("start");
        let addr = server.local_addr();

        let clients = 4usize;
        let barrier = Barrier::new(clients);
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    let mut c = client(addr);
                    barrier.wait();
                    // Interleave singles and batches so micro-batching has
                    // mixed work to fold.
                    for (i, cue) in cues.iter().enumerate() {
                        let served = c.classify(cue).expect("classify");
                        assert_bit_identical(&served, &expected[i], &format!("workers={workers} row={i}"));
                    }
                    let batched = c.classify_batch(&cues).expect("batch");
                    assert_eq!(batched.len(), expected.len());
                    for (i, served) in batched.iter().enumerate() {
                        assert_bit_identical(served, &expected[i], &format!("workers={workers} batch row={i}"));
                    }
                });
            }
        });

        let health = server.shutdown().expect("shutdown");
        assert_eq!(
            health.rows_classified,
            (clients * cues.len() * 2) as u64,
            "workers={workers}"
        );
        assert_eq!(health.session_errors, 0, "workers={workers}");
    }
}

#[test]
fn batch_requests_are_atomic_and_survivable() {
    let model = tiny_model();
    let reference = reference_system(&model);
    let server = start_default();
    let mut c = client(server.local_addr());

    // A NaN row never even reaches the wire: the v4 encoder refuses
    // non-finite cues, so the client fails at encode time with a typed
    // local error.
    let err = c
        .classify_batch(&[vec![0.2], vec![f64::NAN]])
        .expect_err("NaN row");
    assert!(matches!(err, ServeError::Decode(_)), "got {err}");

    // One bad (wrong-dimension) row rejects the whole batch with a typed
    // remote error...
    let err = c
        .classify_batch(&[vec![0.2], vec![0.3, 0.4], vec![0.8]])
        .expect_err("dimension mismatch row");
    match err {
        ServeError::Remote(e) => assert_eq!(e.kind, WireErrorKind::BadRequest),
        other => panic!("expected a typed remote error, got {other}"),
    }
    // ...and the connection survives to serve the corrected batch.
    let ok = c
        .classify_batch(&[vec![0.2], vec![0.8]])
        .expect("clean batch");
    assert_eq!(ok.len(), 2);
    let expected = reference.classify_with_quality(&[0.8]).expect("reference");
    assert_bit_identical(&ok[1], &expected, "batch after failure");
    server.shutdown().expect("shutdown");
}

#[test]
fn frames_sent_in_one_write_are_answered_in_order() {
    let model = tiny_model();
    let reference = reference_system(&model);
    let server = start_default();

    // Two classify frames in one write_all: the session's buffered reader
    // may take both in one read, and must answer the second from its
    // buffer rather than wait on the socket for it.
    let cues = [vec![0.1], vec![0.9]];
    let mut bytes = Vec::new();
    for (request, cue) in (1..).zip(&cues) {
        let frame = encode_frame(&Request::Classify {
            id: RequestId {
                session: 900,
                request,
            },
            tenant: None,
            cues: cue.clone(),
        })
        .expect("encode");
        bytes.extend_from_slice(&frame);
    }
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&bytes).expect("write both frames");
    for (i, cue) in cues.iter().enumerate() {
        let expected = reference.classify_with_quality(cue).expect("reference");
        match read_frame::<_, Response>(&mut stream).expect("read answer") {
            FrameRead::Frame(Response::Classified { result }) => {
                assert_bit_identical(&result, &expected, &format!("answer {i}"));
            }
            other => panic!("answer {i}: expected Classified, got {other:?}"),
        }
    }
    drop(stream);
    let health = server.shutdown().expect("shutdown");
    assert_eq!(health.rows_classified, 2);
    assert_eq!(health.session_errors, 0);
}

#[test]
fn overload_produces_typed_answers_and_the_server_recovers() {
    let model = tiny_model();
    let reference = reference_system(&model);
    let server = CqmServer::start(
        ModelSource::Fresh(tiny_model()),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            micro_batch: 1,
            admission: AdmissionPolicy::Reject,
            // Each micro-batch takes ~100 ms, so concurrent requests pile
            // up against the 1-slot queue.
            eval_delay: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.local_addr();

    let clients = 6usize;
    let barrier = Barrier::new(clients);
    let outcomes: Vec<Result<QualifiedClassification, ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = CqmClient::connect(
                        addr,
                        ClientConfig {
                            retries: 0, // surface Overloaded instead of absorbing it
                            ..ClientConfig::default()
                        },
                    )
                    .expect("connect");
                    barrier.wait();
                    c.classify(&[0.75])
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });

    let mut answered = 0usize;
    let mut overloaded = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok(result) => {
                answered += 1;
                let expected = reference.classify_with_quality(&[0.75]).expect("reference");
                assert_bit_identical(&result, &expected, "answered under load");
            }
            Err(ServeError::Remote(e)) => {
                assert_eq!(e.kind, WireErrorKind::Overloaded);
                overloaded += 1;
            }
            Err(other) => panic!("overload must stay typed, got {other}"),
        }
    }
    assert!(answered >= 1, "someone must get through");
    assert!(overloaded >= 1, "the 1-slot queue must shed under 6 clients");

    // Overload is a condition, not a failure: the drained server has
    // rejected counters but zero session errors, and still serves.
    assert_still_serving(addr, &reference);
    let health = server.shutdown().expect("shutdown");
    assert!(health.rejected >= overloaded as u64);
    assert_eq!(health.session_errors, 0);
}

#[test]
fn warm_restart_resumes_sequence_and_answers_bitwise() {
    let dir = std::env::temp_dir().join(format!("cqm_serve_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ck = dir.join("serve.ckpt");
    let model = tiny_model();
    let reference = reference_system(&model);
    let cues = probe_cues(12);

    let first = CqmServer::start(
        ModelSource::Fresh(tiny_model()),
        ServerConfig {
            checkpoint: Some(ck.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("start fresh");
    let mut c = client(first.local_addr());
    let first_answers: Vec<QualifiedClassification> = cues
        .iter()
        .map(|cue| c.classify(cue).expect("first generation"))
        .collect();
    drop(c);
    first.shutdown().expect("first shutdown");
    assert!(ck.exists(), "shutdown must write the checkpoint");

    // Generation 2: warm-started, sequence advanced, same answers.
    let second = CqmServer::start(
        ModelSource::WarmStart(ck.clone()),
        ServerConfig {
            checkpoint: Some(ck.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("warm start");
    let mut c = client(second.local_addr());
    let info = c.snapshot().expect("snapshot");
    assert!(info.warm_started);
    assert_eq!(info.checkpoint_seq, 1);
    for (i, cue) in cues.iter().enumerate() {
        let served = c.classify(cue).expect("second generation");
        assert_bit_identical(&served, &first_answers[i], &format!("generation 2 row {i}"));
        let expected = reference.classify_with_quality(cue).expect("reference");
        assert_bit_identical(&served, &expected, &format!("generation 2 vs in-process row {i}"));
    }
    drop(c);
    second.shutdown().expect("second shutdown");

    // Generation 3 sees the advanced sequence.
    let third = CqmServer::start(ModelSource::WarmStart(ck.clone()), ServerConfig::default())
        .expect("third start");
    let mut c = client(third.local_addr());
    assert_eq!(c.snapshot().expect("snapshot").checkpoint_seq, 2);
    drop(c);
    third.shutdown().expect("third shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_restart_survives_kills_mid_handshake_and_mid_batch() {
    let dir = std::env::temp_dir().join(format!("cqm_serve_kill_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ck = dir.join("serve.ckpt");
    let model = tiny_model();
    let reference = reference_system(&model);
    let cues = probe_cues(8);

    let first = CqmServer::start(
        ModelSource::Fresh(tiny_model()),
        ServerConfig {
            checkpoint: Some(ck.clone()),
            // Short frame deadline so the torn connections below cannot
            // park the drain for the default ten seconds.
            frame_deadline: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    )
    .expect("start fresh");
    let addr = first.local_addr();

    // Answer something real first, so the restart has work to reproduce.
    let mut c = client(addr);
    let first_answers: Vec<QualifiedClassification> = cues
        .iter()
        .map(|cue| c.classify(cue).expect("first generation"))
        .collect();
    drop(c);

    // Kill #1 lands mid-handshake: a connection that has sent only part
    // of a frame *header* when the shutdown begins.
    let mut mid_handshake = TcpStream::connect(addr).expect("connect");
    let frame = encode_frame(&Request::Classify {
        id: RequestId {
            session: 600,
            request: 1,
        },
        tenant: None,
        cues: vec![0.5],
    })
    .expect("encode");
    mid_handshake.write_all(&frame[..5]).expect("partial header");
    mid_handshake.flush().expect("flush");

    // Kill #2 lands mid-batch: a ClassifyBatch frame torn halfway through
    // its payload — the analogue of a torn record at the journal boundary.
    let mut mid_batch = TcpStream::connect(addr).expect("connect");
    let batch_frame = encode_frame(&Request::ClassifyBatch {
        id: RequestId {
            session: 600,
            request: 2,
        },
        tenant: None,
        rows: cues.clone(),
    })
    .expect("encode batch");
    let cut = batch_frame.len() / 2;
    mid_batch.write_all(&batch_frame[..cut]).expect("partial batch");
    mid_batch.flush().expect("flush");

    // Wait for the frame deadline to cut both torn connections off while
    // the server is still live — shutting down immediately would race the
    // acceptor: a connection still in the kernel backlog when draining
    // begins is dropped unanswered instead of counted.
    let mut probe = client(addr);
    let waited = std::time::Instant::now();
    let health = loop {
        let h = probe.health().expect("health probe");
        if h.session_errors >= 2 || waited.elapsed() > Duration::from_secs(10) {
            break h;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        health.session_errors >= 2,
        "both torn connections are session errors: {health:?}"
    );
    drop(probe);
    drop(mid_handshake);
    drop(mid_batch);

    // The drain still writes the checkpoint.
    first.shutdown().expect("shutdown with torn connections");
    assert!(ck.exists(), "checkpoint written despite torn connections");

    // The restarted generation warm-starts and answers bit-identically.
    let second = CqmServer::start(
        ModelSource::WarmStart(ck.clone()),
        ServerConfig::default(),
    )
    .expect("warm start after torn shutdown");
    let mut c = client(second.local_addr());
    let info = c.snapshot().expect("snapshot");
    assert!(info.warm_started);
    assert_eq!(info.checkpoint_seq, 1);
    for (i, cue) in cues.iter().enumerate() {
        let served = c.classify(cue).expect("second generation");
        assert_bit_identical(&served, &first_answers[i], &format!("post-kill row {i}"));
        let expected = reference.classify_with_quality(cue).expect("reference");
        assert_bit_identical(&served, &expected, &format!("post-kill vs in-process row {i}"));
    }
    drop(c);
    second.shutdown().expect("second shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_checkpoint_tail_is_a_typed_error_never_a_silent_fallback() {
    let dir = std::env::temp_dir().join(format!("cqm_serve_torn_ck_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ck = dir.join("serve.ckpt");

    let first = CqmServer::start(
        ModelSource::Fresh(tiny_model()),
        ServerConfig {
            checkpoint: Some(ck.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("start fresh");
    first.shutdown().expect("shutdown");
    let bytes = std::fs::read(&ck).expect("checkpoint bytes");
    assert!(bytes.len() > 16);

    // Tear the tail off — the crash-mid-write shape a journal boundary
    // leaves behind.
    std::fs::write(&ck, &bytes[..bytes.len() - 7]).expect("torn write");

    // WarmStart refuses with a typed error, not a panic...
    let Err(err) = CqmServer::start(ModelSource::WarmStart(ck.clone()), ServerConfig::default())
    else {
        panic!("torn checkpoint must refuse");
    };
    assert!(matches!(err, ServeError::Persist(_)), "got {err}");

    // ...and WarmStartOr also refuses: corruption is never silently
    // papered over by the fallback (only a *missing* file is).
    let Err(err) = CqmServer::start(
        ModelSource::WarmStartOr {
            path: ck.clone(),
            fallback: Box::new(tiny_model()),
        },
        ServerConfig::default(),
    ) else {
        panic!("torn checkpoint must refuse even with a fallback");
    };
    assert!(matches!(err, ServeError::Persist(_)), "got {err}");

    // Restoring the intact bytes restores the warm start.
    std::fs::write(&ck, &bytes).expect("restore");
    let second = CqmServer::start(ModelSource::WarmStart(ck.clone()), ServerConfig::default())
        .expect("intact checkpoint warm-starts");
    second.shutdown().expect("second shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn outdated_client_version_gets_typed_refusal_from_the_server() {
    // Version negotiation, server side: a frame stamped with the retired
    // v2 (or an unknown future v9) must be answered with the dedicated
    // `UnsupportedVersion` refusal naming the build's window — not a
    // generic bad-request, not a silent hangup, and never a crash.
    let model = tiny_model();
    let reference = reference_system(&model);
    let server = CqmServer::start(ModelSource::Fresh(model), ServerConfig::default())
        .expect("start");
    let addr = server.local_addr();

    for stale in [2u32, 9u32] {
        let frame = encode_frame_with_version(
            stale,
            &Request::Classify {
                id: RequestId {
                    session: 700,
                    request: u64::from(stale),
                },
                tenant: None,
                cues: vec![0.5],
            },
        )
        .expect("encode");
        match send_raw(addr, &frame) {
            Some(Response::Error { error }) => {
                assert_eq!(error.kind, WireErrorKind::UnsupportedVersion, "v{stale}");
                assert!(
                    error.detail.contains(&format!("version {stale}")),
                    "refusal must name the offending version: {}",
                    error.detail
                );
            }
            other => panic!("v{stale} frame got {other:?}, want a typed refusal"),
        }
    }
    assert_still_serving(addr, &reference);
    let health = server.shutdown().expect("shutdown");
    assert_eq!(health.version_rejections, 2, "health: {health:?}");
}

#[test]
fn outdated_server_version_fails_the_client_fast_without_retries() {
    // Version negotiation, client side: an answer stamped v2 surfaces as
    // `ServeError::ProtocolVersion { found: 2 }` on the *first* attempt.
    // A version mismatch is deterministic — retrying would re-fail — so
    // it must not be treated as a transient transport fault.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake_v2_server = std::thread::spawn(move || {
        let (mut stream, _peer) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // Consume the (valid v4) request, then answer in yesterday's
        // dialect.
        match read_frame::<_, Request>(&mut stream) {
            Ok(FrameRead::Frame(_)) => {}
            other => panic!("fake server expected a request, got {other:?}"),
        }
        let reply = encode_frame_with_version(2, &Response::ShuttingDown).expect("encode v2");
        stream.write_all(&reply).expect("write v2 reply");
        stream.flush().expect("flush");
        // Hold the socket open until the client has parsed the header, so
        // the failure is the version check, not a racing disconnect.
        std::thread::sleep(Duration::from_millis(200));
    });

    let mut c = CqmClient::connect(
        addr,
        ClientConfig {
            retries: 3,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let err = c.classify(&[0.5]).expect_err("v2 answer must fail");
    match err {
        ServeError::ProtocolVersion { found, supported } => {
            assert_eq!(found, 2);
            assert!(supported >= 3);
        }
        other => panic!("want ProtocolVersion, got {other}"),
    }
    assert_eq!(c.last_attempts(), 1, "version mismatch must not be retried");
    fake_v2_server.join().expect("fake server");
}
