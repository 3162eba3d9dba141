//! Proving-service throughput benchmarks (suite `service`, history file
//! `target/bench-history/service.json`).
//!
//! Spins up a [`ProvingService`] over one μ = 14 SRS with the three PR 4
//! workloads registered as sessions, then measures sustained multi-client
//! throughput: `serve/<jobs>jobs-<clients>clients` submits interleaved
//! jobs from concurrent client threads (mixed priorities, all sessions)
//! and waits for every proof. The final [`ServiceMetrics`] snapshot —
//! queue depth, wave occupancy, per-session p50/p99 latency, proofs/sec,
//! MSM rollups — is persisted to `target/bench-history/service-metrics.json`
//! so CI archives the service's operational profile next to its timings.
//!
//! The `serve-tcp/*` scenarios run the same shape through the real
//! loopback transport — one `NetServer`, 4 `NetClient` threads each on
//! its own authenticated `127.0.0.1` socket — so the wire-protocol and
//! socket overhead shows up next to the in-process numbers; the TCP
//! service's metrics (including the per-session p99 and connection
//! counters) land in `target/bench-history/service-tcp-metrics.json`.
//!
//! The `serve/fault-1-in-8` scenario injects a deterministic
//! wave-panic rate through the service's fault plan and measures serving
//! throughput with supervision absorbing the failures; its failure and
//! restart counters land in
//! `target/bench-history/service-fault-metrics.json`.
//!
//! The `serve/repeat-4jobs/trace-{off,on}` pair measures the structured
//! tracing tax: the `trace-on` service records the full span tree of every
//! job (queue wait, wave, protocol steps, MSM passes) and its phase-level
//! latency histograms land in
//! `target/bench-history/service-trace-phases.json`.
//!
//! The `serve/skewed-resubmit/cache-{off,on}` pair measures the session
//! lifecycle machinery under skewed load: a session-capacity-bounded
//! store (LRU eviction live) serving identical resubmissions of one hot
//! session, with and without the proof cache. The cache-on service's
//! metrics — session lifecycle counters, proof-cache hit/miss/bytes —
//! are persisted to `target/bench-history/service-session-metrics.json`.
//!
//! [`ServiceMetrics`]: zkspeed_svc::ServiceMetrics

use std::sync::Arc;
use std::time::Duration;

use zkspeed_hyperplonk::workloads::WorkloadSpec;
use zkspeed_hyperplonk::Witness;
use zkspeed_net::{ClientConfig, NetClient, NetServer, ServerConfig};
use zkspeed_pcs::{PrecomputeBudget, Srs};
use zkspeed_rt::bench::{history_dir, Harness};
use zkspeed_rt::pool;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::{SeedableRng, ToJson};
use zkspeed_svc::{Priority, ProvingService, ServiceConfig};

fn main() {
    let mut rng = StdRng::seed_from_u64(33);
    let srs = Arc::new(Srs::try_setup(14, &mut rng, &**pool::global()).expect("μ=14 setup fits"));
    let repeat_srs = Arc::clone(&srs);

    let threads = zkspeed_rt::par::env_threads();
    let config = ServiceConfig::default()
        .with_shards(if threads >= 4 { 2 } else { 1 })
        .with_threads_per_shard((threads / 2).max(1))
        .with_wave_size(4)
        .with_queue_capacity(64);
    let service = Arc::new(ProvingService::start(srs, config));

    let mut sessions: Vec<([u8; 32], Witness)> = Vec::new();
    for spec in WorkloadSpec::test_suite() {
        let (circuit, witness) = spec.build(&mut rng);
        let digest = service
            .register_circuit(circuit)
            .expect("workload fits μ=14 SRS");
        sessions.push((digest, witness));
    }

    let mut h = Harness::new("service");
    for (jobs, clients) in [(4usize, 2usize), (8, 4)] {
        h.bench(format!("serve/{jobs}jobs-{clients}clients"), || {
            let workers: Vec<_> = (0..clients)
                .map(|client| {
                    let service = Arc::clone(&service);
                    let sessions = sessions.clone();
                    std::thread::spawn(move || {
                        let per_client = jobs / clients;
                        let ids: Vec<u64> = (0..per_client)
                            .map(|i| {
                                let (digest, witness) = &sessions[(client + i) % sessions.len()];
                                let priority = Priority::ALL[(client + i) % 3];
                                service
                                    .submit(digest, witness.clone(), priority)
                                    .expect("parking submit succeeds")
                            })
                            .collect();
                        for id in ids {
                            service.wait(id).expect("job completes");
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().expect("client thread");
            }
        });
    }
    // Loopback-TCP scenario: the same fan-in through the real transport —
    // every witness and proof crosses an authenticated 127.0.0.1 socket as
    // wire frames, so the delta against `serve/*` is the protocol + socket
    // overhead.
    let tcp_server = {
        let mut tcp_rng = StdRng::seed_from_u64(34);
        let tcp_srs =
            Arc::new(Srs::try_setup(14, &mut tcp_rng, &**pool::global()).expect("μ=14 setup fits"));
        let tcp_service = ProvingService::start(
            tcp_srs,
            ServiceConfig::default()
                .with_shards(if threads >= 4 { 2 } else { 1 })
                .with_threads_per_shard((threads / 2).max(1))
                .with_wave_size(4)
                .with_queue_capacity(64),
        );
        NetServer::bind(
            tcp_service,
            ServerConfig::new("127.0.0.1:0")
                .with_auth_token(b"bench-token")
                .with_idle_timeout(Duration::from_secs(300)),
        )
        .expect("bind loopback")
    };
    let tcp_addr = tcp_server.local_addr();
    let tcp_sessions: Vec<([u8; 32], Vec<u8>)> = {
        let mut admin = NetClient::connect(tcp_addr, b"bench-token", ClientConfig::default())
            .expect("bench client connects");
        let mut out = Vec::new();
        let mut tcp_rng = StdRng::seed_from_u64(35);
        for spec in WorkloadSpec::test_suite() {
            let (circuit, witness) = spec.build(&mut tcp_rng);
            let (digest, _) = admin
                .register_circuit(&circuit.to_bytes())
                .expect("workload fits μ=14 SRS");
            out.push((digest, witness.to_bytes()));
        }
        out
    };
    {
        let (jobs, clients) = (8usize, 4usize);
        h.bench(format!("serve-tcp/{jobs}jobs-{clients}clients"), || {
            let workers: Vec<_> = (0..clients)
                .map(|client_id| {
                    let sessions = tcp_sessions.clone();
                    std::thread::spawn(move || {
                        let mut client =
                            NetClient::connect(tcp_addr, b"bench-token", ClientConfig::default())
                                .expect("bench client connects");
                        let per_client = jobs / clients;
                        let ids: Vec<u64> = (0..per_client)
                            .map(|i| {
                                let (digest, witness) = &sessions[(client_id + i) % sessions.len()];
                                let priority = Priority::ALL[(client_id + i) % 3];
                                client
                                    .submit(*digest, priority, witness)
                                    .expect("tcp submit succeeds")
                            })
                            .collect();
                        for id in ids {
                            client
                                .wait(id, Duration::from_secs(600))
                                .expect("tcp job completes");
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().expect("tcp client thread");
            }
        });
    }
    let tcp_metrics = tcp_server.service().metrics();
    println!(
        "tcp service metrics: {} proofs, {:.2} proofs/s over {} connections",
        tcp_metrics.completed, tcp_metrics.proofs_per_second, tcp_metrics.connections.total
    );
    if let Some(dir) = history_dir() {
        let path = dir.join("service-tcp-metrics.json");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tcp_metrics.to_json().pretty().as_bytes()));
        match written {
            Ok(()) => println!("tcp service metrics: wrote {}", path.display()),
            Err(e) => eprintln!(
                "tcp service metrics: could not write {}: {e}",
                path.display()
            ),
        }
    }
    tcp_server.shutdown();

    // Repeated-commit scenario: one session proving the same circuit over
    // and over — the serving pattern the precomputed commit tables target.
    // The `-on` service pays the table build once at registration (outside
    // the timed region, like any session preprocess); every timed proof
    // then commits through the zero-doubling table engine.
    let (repeat_circuit, repeat_witness) = WorkloadSpec::test_suite()[0].build(&mut rng);
    for (label, precompute) in [
        ("precompute-off", PrecomputeBudget::disabled()),
        ("precompute-on", PrecomputeBudget::unlimited()),
    ] {
        let repeat_config = ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(threads.max(1))
            .with_wave_size(4)
            .with_precompute(precompute);
        let repeat_svc = ProvingService::start(Arc::clone(&repeat_srs), repeat_config);
        let digest = repeat_svc
            .register_circuit(repeat_circuit.clone())
            .expect("workload fits μ=14 SRS");
        h.bench(format!("serve/repeat-4jobs/{label}"), || {
            let ids: Vec<u64> = (0..4)
                .map(|_| {
                    repeat_svc
                        .submit(&digest, repeat_witness.clone(), Priority::Normal)
                        .expect("parking submit succeeds")
                })
                .collect();
            for id in ids {
                repeat_svc.wait(id).expect("job completes");
            }
        });
        let m = repeat_svc.metrics();
        let session = m.sessions.first().expect("one registered session");
        println!(
            "repeat-commit {label}: {} proofs, {:.2} proofs/s, table bytes {}, build {:.1} ms",
            m.completed,
            m.proofs_per_second,
            session.precompute_table_bytes,
            session.precompute_build_ms
        );
    }
    // Tracing-overhead scenario: the same repeat-4jobs shape with the span
    // recorder off and on. The `trace-on` run records a full span tree per
    // job (queue wait, wave, the five protocol steps, per-MSM passes); the
    // median ratio against `trace-off` is the tracing tax, which the
    // acceptance criteria pin under 2%. The traced service's phase
    // histograms land in `service-trace-phases.json` so CI tracks the
    // step-level latency profile run over run.
    let mut trace_medians = [0u128; 2];
    for (idx, label) in ["trace-off", "trace-on"].into_iter().enumerate() {
        let sink = zkspeed_rt::trace::TraceSink::enabled();
        let mut trace_config = ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(threads.max(1))
            .with_wave_size(4);
        if idx == 1 {
            trace_config = trace_config.with_trace(sink.clone());
        }
        let trace_svc = ProvingService::start(Arc::clone(&repeat_srs), trace_config);
        let digest = trace_svc
            .register_circuit(repeat_circuit.clone())
            .expect("workload fits μ=14 SRS");
        h.bench(format!("serve/repeat-4jobs/{label}"), || {
            let ids: Vec<u64> = (0..4)
                .map(|_| {
                    trace_svc
                        .submit(&digest, repeat_witness.clone(), Priority::Normal)
                        .expect("parking submit succeeds")
                })
                .collect();
            for id in ids {
                trace_svc.wait(id).expect("job completes");
            }
        });
        trace_medians[idx] = h.last_median_ns().unwrap_or(0);
        if idx == 1 {
            let m = trace_svc.metrics();
            println!(
                "trace-on: {} events recorded ({} dropped), prove_total count {}",
                sink.event_count(),
                sink.dropped_events(),
                m.phases.prove_total.count()
            );
            if let Some(dir) = history_dir() {
                let path = dir.join("service-trace-phases.json");
                let doc = zkspeed_rt::JsonValue::Object(vec![
                    (
                        "phases".into(),
                        zkspeed_rt::JsonValue::Object(
                            m.phases
                                .named()
                                .iter()
                                .map(|(name, hist)| (name.to_string(), hist.to_json()))
                                .collect(),
                        ),
                    ),
                    (
                        "queue_wait_ms".into(),
                        zkspeed_rt::JsonValue::Object(
                            ["high", "normal", "low"]
                                .iter()
                                .zip(m.queue_waits.iter())
                                .map(|(class, hist)| (class.to_string(), hist.to_json()))
                                .collect(),
                        ),
                    ),
                    (
                        "trace_events".into(),
                        zkspeed_rt::JsonValue::UInt(sink.event_count() as u64),
                    ),
                ]);
                let written = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, doc.pretty().as_bytes()));
                match written {
                    Ok(()) => println!("trace phases: wrote {}", path.display()),
                    Err(e) => eprintln!("trace phases: could not write {}: {e}", path.display()),
                }
            }
        }
    }
    if trace_medians[0] > 0 && trace_medians[1] > 0 {
        let overhead = trace_medians[1] as f64 / trace_medians[0] as f64 - 1.0;
        println!(
            "trace overhead: {:+.2}% median wall time (acceptance target < 2%)",
            overhead * 100.0
        );
    }
    // Skewed-resubmission scenario: a fleet-shaped store (session capacity
    // below the registered count, so LRU eviction is live) serving a hot
    // session whose clients resubmit identical (circuit, witness) pairs —
    // the workload the proof cache targets. `cache-off` proves every
    // submission; `cache-on` proves once and answers the rest from the
    // cache, so the throughput ratio is the cache's win.
    for (label, cache_bytes) in [("cache-off", 0u64), ("cache-on", 1u64 << 20)] {
        let skew_config = ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(threads.max(1))
            .with_wave_size(4)
            .with_session_capacity(2)
            .with_proof_cache_bytes(cache_bytes);
        let skew_svc = ProvingService::start(Arc::clone(&repeat_srs), skew_config);
        let mut skew_rng = StdRng::seed_from_u64(36);
        // Three registered sessions against a capacity of two: the first
        // is LRU-evicted, so the persisted metrics show the lifecycle
        // machinery working. The hot session is the last registered (never
        // the eviction victim).
        let mut hot = None;
        for spec in WorkloadSpec::test_suite() {
            let (circuit, witness) = spec.build(&mut skew_rng);
            let digest = skew_svc
                .register_circuit(circuit)
                .expect("workload fits μ=14 SRS");
            hot = Some((digest, witness));
        }
        let (hot_digest, hot_witness) = hot.expect("suite is non-empty");
        h.bench(format!("serve/skewed-resubmit/{label}"), || {
            let ids: Vec<u64> = (0..12)
                .map(|_| {
                    skew_svc
                        .submit(&hot_digest, hot_witness.clone(), Priority::Normal)
                        .expect("parking submit succeeds")
                })
                .collect();
            for id in ids {
                skew_svc.wait(id).expect("job completes");
            }
        });
        let m = skew_svc.metrics();
        println!(
            "skewed-resubmit {label}: {} submitted, {} proved, cache {} hits / {} misses, \
             {} sessions evicted",
            m.submitted,
            m.completed,
            m.proof_cache.hits,
            m.proof_cache.misses,
            m.lifecycle.evictions
        );
        if cache_bytes > 0 {
            if let Some(dir) = history_dir() {
                let path = dir.join("service-session-metrics.json");
                let written = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, m.to_json().pretty().as_bytes()));
                match written {
                    Ok(()) => println!("session metrics: wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("session metrics: could not write {}: {e}", path.display())
                    }
                }
            }
        }
    }
    // Fault-injected scenario: ~1 in 8 waves panics (deterministic seed),
    // wave size 1 so the rate maps directly onto jobs. Measures serving
    // throughput *with the supervision machinery absorbing failures* —
    // failed jobs are collected like successes, just without a proof. The
    // survivor service's failure/restart counters are persisted to
    // `service-fault-metrics.json` so CI tracks the chaos profile run over
    // run.
    let fault_svc = {
        let fault_plan =
            zkspeed_rt::faults::FaultPlan::parse("wave-panic~8:seed=88").expect("valid spec");
        let fault_config = ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(threads.max(1))
            .with_wave_size(1)
            .with_faults(Arc::new(fault_plan));
        ProvingService::start(Arc::clone(&repeat_srs), fault_config)
    };
    {
        let digest = fault_svc
            .register_circuit(repeat_circuit.clone())
            .expect("workload fits μ=14 SRS");
        h.bench("serve/fault-1-in-8", || {
            let ids: Vec<u64> = (0..8)
                .map(|_| {
                    fault_svc
                        .submit(&digest, repeat_witness.clone(), Priority::Normal)
                        .expect("parking submit succeeds")
                })
                .collect();
            for id in ids {
                match fault_svc.wait(id) {
                    Ok(_) | Err(zkspeed_svc::ServiceError::JobFailed(_)) => {}
                    Err(e) => panic!("unexpected outcome under fault plan: {e}"),
                }
            }
        });
    }
    h.finish();

    let fault_metrics = fault_svc.metrics();
    println!(
        "fault service metrics: {} proofs, {} failed ({} wave panics, {} restarts)",
        fault_metrics.completed,
        fault_metrics.failed,
        fault_metrics.supervision.wave_panics,
        fault_metrics.supervision.worker_restarts
    );
    if let Some(dir) = history_dir() {
        let path = dir.join("service-fault-metrics.json");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, fault_metrics.to_json().pretty().as_bytes()));
        match written {
            Ok(()) => println!("fault service metrics: wrote {}", path.display()),
            Err(e) => eprintln!(
                "fault service metrics: could not write {}: {e}",
                path.display()
            ),
        }
    }

    // Persist the operational metrics next to the timing history.
    let metrics = service.metrics();
    println!(
        "service metrics: {} proofs, {:.2} proofs/s, mean wave occupancy {:.2}",
        metrics.completed, metrics.proofs_per_second, metrics.mean_wave_occupancy
    );
    if let Some(dir) = history_dir() {
        let path = dir.join("service-metrics.json");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, metrics.to_json().pretty().as_bytes()));
        match written {
            Ok(()) => println!("service metrics: wrote {}", path.display()),
            Err(e) => eprintln!("service metrics: could not write {}: {e}", path.display()),
        }
    }
}
