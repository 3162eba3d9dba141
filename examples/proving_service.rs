//! The proving service end to end **over real loopback TCP**: one
//! long-running [`ProvingService`] behind a [`NetServer`] on an ephemeral
//! `127.0.0.1` port, the three real-circuit workloads (hash-chain,
//! Merkle-membership, state-transition) registered as sessions, and four
//! concurrent [`NetClient`]s — each with its own authenticated socket —
//! submitting interleaved jobs at mixed priorities. Every circuit, witness
//! and proof crosses the process boundary as canonical frames on the wire,
//! metrics are scraped over the same socket, and the server drains
//! gracefully at the end.
//!
//! Run with: `cargo run --release --example proving_service`

use std::time::{Duration, Instant};

use zkspeed::prelude::*;

const TOKEN: &[u8] = b"example-token";

/// `(session digest, serialized witness-or-proof bytes)` pairs shuttled
/// between the client threads and the verifier loop.
type DigestBytes = Vec<([u8; 32], Vec<u8>)>;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);

    let t0 = Instant::now();
    let srs = Srs::try_setup(14, &mut rng, &Serial)?;
    println!(
        "universal setup (μ = 14, fixed-base tables): {:.2} s",
        t0.elapsed().as_secs_f64()
    );

    let system = ProofSystem::setup(srs);
    let service = system.serve(
        ServiceConfig::default()
            .with_wave_size(4)
            .with_queue_capacity(64),
    );
    println!(
        "service started: {} shard(s) × {} thread(s), queue capacity {}/shard",
        service.shard_count(),
        service.config().threads_per_shard,
        service.config().queue_capacity
    );

    let server = NetServer::bind(
        service,
        ServerConfig::new("127.0.0.1:0").with_auth_token(TOKEN),
    )?;
    let addr = server.local_addr();
    println!("listening on {addr}\n");

    // Register the three workloads as sessions, over the wire.
    let mut admin = NetClient::connect(addr, TOKEN, ClientConfig::default())?;
    println!(
        "connected to {} (protocol v{})",
        admin.server_id(),
        admin.protocol()
    );
    let mut sessions = Vec::new();
    for spec in WorkloadSpec::test_suite() {
        let (circuit, witness) = spec.build(&mut rng);
        let (digest, num_vars) = admin.register_circuit(&circuit.to_bytes())?;
        println!(
            "registered {:<40} μ={num_vars} session {}…",
            spec.name(),
            hex(&digest[..6])
        );
        sessions.push((digest, witness));
    }

    // Four clients, 24 interleaved jobs, each over its own TCP connection.
    const CLIENTS: usize = 4;
    const JOBS_PER_CLIENT: usize = 6;
    println!("\nserving {CLIENTS} clients × {JOBS_PER_CLIENT} jobs over TCP …");
    let t1 = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let sessions: DigestBytes = sessions
                .iter()
                .map(|(digest, witness)| (*digest, witness.to_bytes()))
                .collect();
            std::thread::spawn(move || -> Result<DigestBytes, NetError> {
                let mut client = NetClient::connect(addr, TOKEN, ClientConfig::default())?;
                let jobs: Vec<(u64, [u8; 32])> = sessions
                    .iter()
                    .cycle()
                    .skip(id)
                    .take(JOBS_PER_CLIENT)
                    .enumerate()
                    .map(|(i, (digest, witness))| {
                        let priority = Priority::ALL[(id + i) % 3];
                        Ok((client.submit(*digest, priority, witness)?, *digest))
                    })
                    .collect::<Result<_, NetError>>()?;
                jobs.into_iter()
                    .map(|(job, digest)| Ok((digest, client.wait(job, Duration::from_secs(120))?)))
                    .collect()
            })
        })
        .collect();

    let mut proofs = 0usize;
    for worker in workers {
        for (digest, proof_bytes) in worker.join().expect("client thread")? {
            let vk = server
                .service()
                .verifying_key(&digest)
                .expect("registered session");
            let proof = Proof::from_bytes(&proof_bytes)?;
            zkspeed::hyperplonk::verify(&vk, &proof)?;
            proofs += 1;
        }
    }
    let elapsed = t1.elapsed().as_secs_f64();
    println!(
        "served and verified {proofs} proofs in {elapsed:.2} s ({:.2} proofs/s)\n",
        proofs as f64 / elapsed
    );

    // The operational picture, scraped over the wire like an operator
    // would. The registration connection idled out during proving (the
    // server reaps idle sockets), so scrape on a fresh one.
    drop(admin);
    let mut scraper = NetClient::connect(addr, TOKEN, ClientConfig::default())?;
    let json = scraper.metrics()?;
    println!("metrics endpoint returned {} bytes of JSON", json.len());
    let metrics = server.service().metrics();
    println!(
        "waves: {} (mean occupancy {:.2}, max {}), peak queue depth {}, connections {} (open {})",
        metrics.waves,
        metrics.mean_wave_occupancy,
        metrics.max_wave_occupancy,
        metrics.peak_queue_depth,
        metrics.connections.total,
        metrics.connections.open
    );
    for session in &metrics.sessions {
        println!(
            "session {}…  jobs {:>3}  p50 {:>8.1} ms  p99 {:>8.1} ms",
            hex(&session.digest[..6]),
            session.jobs_completed,
            session.p50_ms,
            session.p99_ms
        );
    }

    // Graceful drain: finish anything in flight, join every thread.
    drop(scraper);
    let final_metrics = server.shutdown();
    println!(
        "\ndrained: {} proofs served over {} connections",
        final_metrics.completed, final_metrics.connections.total
    );
    Ok(())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
