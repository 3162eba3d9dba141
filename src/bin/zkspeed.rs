//! `zkspeed` — the operator CLI for the proving stack.
//!
//! Offline artifact tooling plus the networked service front-end:
//!
//! | subcommand | what it does |
//! |---|---|
//! | `setup`   | generate a universal SRS and write it to a file |
//! | `compile` | build a named workload circuit (+ witness) as canonical bytes |
//! | `prove`   | prove a witness against a circuit, offline, file-based |
//! | `verify`  | verify a proof against a circuit, offline, file-based |
//! | `serve`   | host a `ProvingService` on a TCP socket |
//! | `submit`  | drive a remote server: register, submit, collect, scrape metrics |
//! | `sessions`| list a remote server's sessions (state, μ, shard, bytes) |
//! | `trace`   | pull a remote server's Chrome trace-event dump (Perfetto-loadable) |
//!
//! Every artifact on disk is a canonical encoding (magic + version header),
//! so files produced here interoperate with the library APIs and the wire
//! protocol byte-for-byte. Run `zkspeed help` for per-subcommand flags.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use zkspeed::hyperplonk::workloads::{
    HashChainSpec, MerkleSpec, StateTransitionSpec, WorkloadSpec,
};
use zkspeed::hyperplonk::{Circuit, Proof, Witness};
use zkspeed::pcs::Srs;
use zkspeed::rt::codec::Decode;
use zkspeed::rt::pool;
use zkspeed::rt::rngs::StdRng;
use zkspeed::rt::trace::TraceSink;
use zkspeed::rt::SeedableRng;
use zkspeed::svc::{Priority, ProvingService, ServiceConfig};
use zkspeed::ProofSystem;
use zkspeed_net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig};

const USAGE: &str = "zkspeed — operator CLI for the zkSpeed proving stack

USAGE: zkspeed <SUBCOMMAND> [FLAGS]

SUBCOMMANDS:
  setup    --mu N --out FILE [--seed N]
           Generate a universal SRS for circuits up to 2^N gates.

  compile  --workload NAME --out FILE [--witness-out FILE] [--seed N]
           [--links N] [--rounds N] [--depth N] [--transfers N] [--balance-bits N]
           Build a workload circuit (hash-chain | merkle | state-transition)
           as canonical bytes; prints the circuit digest.

  prove    --srs FILE --circuit FILE --witness FILE --out FILE
           Preprocess and prove offline; writes canonical proof bytes.

  verify   --srs FILE --circuit FILE --proof FILE
           Preprocess and verify offline; exits 0 iff the proof verifies.

  serve    --srs FILE [--addr HOST:PORT] [--auth-token T] [--ready-file FILE]
           [--max-connections N] [--idle-timeout-ms N] [--drain-grace-ms N]
           [--shards N] [--session-capacity N] [--session-byte-budget N]
           [--metrics-out FILE] [--trace] [--trace-out FILE]
           Host a ProvingService over TCP. With --addr 127.0.0.1:0 the bound
           address goes to --ready-file (and stdout). Runs until a client
           sends Shutdown, then drains gracefully and writes final metrics.
           --session-capacity / --session-byte-budget bound the provisioned
           session working set (LRU eviction; 0 = unlimited);
           --trace records a structured span trace of every job (pull it
           live with `zkspeed trace`); --trace-out implies --trace and also
           writes the final Chrome trace-event JSON on shutdown.

  submit   --addr HOST:PORT --circuit FILE --witness FILE [--auth-token T]
           [--jobs N] [--priority high|normal|low] [--proof-out FILE]
           [--wait-ms N] [--deadline-ms N] [--metrics] [--metrics-out FILE]
           [--shutdown]
           Register the circuit, submit N jobs, wait for every proof.
           --deadline-ms sets a per-job server-side deadline (0 = server
           default); --metrics scrapes the server's ServiceMetrics JSON
           afterwards; --shutdown asks the server to drain when done.

  sessions --addr HOST:PORT [--auth-token T]
           List the server's sessions: digest, μ, lifecycle state
           (active/evicted), shard, resident bytes, jobs completed.

  trace    --addr HOST:PORT [--auth-token T] [--out FILE]
           Pull the server's Chrome trace-event dump (a snapshot of every
           span recorded so far). Load the JSON in Perfetto / chrome://tracing.
           Empty-but-valid when the server runs without --trace.

Every subcommand rejects a flag not listed for it.

EXIT CODES:
  0  success
  1  usage, I/O or transport error
  2  a job failed on the server (JobFailed)
  3  --wait-ms elapsed before the job finished
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result: Result<(), CmdError> = match cmd.as_str() {
        "setup" => cmd_setup(rest).map_err(CmdError::from),
        "compile" => cmd_compile(rest).map_err(CmdError::from),
        "prove" => cmd_prove(rest).map_err(CmdError::from),
        "verify" => cmd_verify(rest).map_err(CmdError::from),
        "serve" => cmd_serve(rest).map_err(CmdError::from),
        "submit" => cmd_submit(rest),
        "sessions" => cmd_sessions(rest).map_err(CmdError::from),
        "trace" => cmd_trace(rest).map_err(CmdError::from),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(CmdError::from(format!(
            "unknown subcommand `{other}` (try `zkspeed help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zkspeed {cmd}: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

/// A failed subcommand: message plus process exit code, so scripts can tell
/// a failed job (2) or an expired wait (3) from plumbing errors (1).
struct CmdError {
    msg: String,
    code: u8,
}

impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        Self { msg, code: 1 }
    }
}

/// The flags each subcommand reads, as `USAGE` lists them.
const FLAGS: &[(&str, &str)] = &[
    ("setup", "mu out seed"),
    (
        "compile",
        "workload out witness-out seed links rounds depth transfers balance-bits",
    ),
    ("prove", "srs circuit witness out"),
    ("verify", "srs circuit proof"),
    (
        "serve",
        "srs addr auth-token ready-file max-connections idle-timeout-ms drain-grace-ms shards \
         session-capacity session-byte-budget metrics-out trace trace-out",
    ),
    (
        "submit",
        "addr circuit witness auth-token jobs priority proof-out wait-ms deadline-ms metrics \
         metrics-out shutdown",
    ),
    ("sessions", "addr auth-token"),
    ("trace", "addr auth-token out"),
];

/// Minimal `--flag value` / `--flag` parser over one subcommand's args.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parses `args` of subcommand `cmd`, rejecting any flag it does not
    /// read: a mistyped or retired flag must not be silently ignored.
    fn parse(cmd: &str, args: &[String]) -> Result<Self, String> {
        let known = FLAGS
            .iter()
            .find(|(name, _)| *name == cmd)
            .map(|(_, flags)| *flags)
            .expect("every subcommand lists its flags");
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if !known.split_whitespace().any(|flag| flag == name) {
                return Err(format!(
                    "unknown flag `--{name}` for {cmd} (it takes --{})",
                    known.replace(' ', ", --")
                ));
            }
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    Some(v.clone())
                }
                _ => None,
            };
            pairs.push((name.to_string(), value));
            i += 1;
        }
        Ok(Self { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name} VALUE"))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
            None => Ok(default),
        }
    }
}

fn read_file(path: &str, what: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {what} from {path}: {e}"))
}

/// Reads and decodes the artifact file the `--<flag>` option names.
fn load<T: Decode>(flags: &Flags, flag: &str, what: &str) -> Result<T, String> {
    let bytes = read_file(flags.require(flag)?, what)?;
    T::from_bytes(&bytes).map_err(|e| format!("bad {what} file: {e}"))
}

fn write_file(path: &str, bytes: &[u8], what: &str) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {what} to {path}: {e}"))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn cmd_setup(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("setup", args)?;
    let mu: usize = flags
        .require("mu")?
        .parse()
        .map_err(|_| "--mu must be an integer".to_string())?;
    let out = flags.require("out")?;
    let seed: u64 = flags.parse_num("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = Srs::try_setup(mu, &mut rng, &**pool::global()).map_err(|e| e.to_string())?;
    let bytes = srs.to_bytes();
    write_file(out, &bytes, "SRS")?;
    println!("setup: μ={mu} SRS ({} bytes) -> {out}", bytes.len());
    Ok(())
}

fn workload_from_flags(flags: &Flags) -> Result<WorkloadSpec, String> {
    let name = flags.require("workload")?;
    let rounds: usize = flags.parse_num("rounds", 1)?;
    match name {
        "hash-chain" => Ok(WorkloadSpec::HashChain(HashChainSpec {
            links: flags.parse_num("links", 2)?,
            rounds,
        })),
        "merkle" => Ok(WorkloadSpec::MerkleMembership(MerkleSpec {
            depth: flags.parse_num("depth", 1)?,
            rounds,
        })),
        "state-transition" => Ok(WorkloadSpec::StateTransition(StateTransitionSpec {
            transfers: flags.parse_num("transfers", 4)?,
            balance_bits: flags.parse_num("balance-bits", 16)?,
        })),
        other => Err(format!(
            "unknown workload `{other}` (expected hash-chain, merkle, or state-transition)"
        )),
    }
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("compile", args)?;
    let spec = workload_from_flags(&flags)?;
    let out = flags.require("out")?;
    let seed: u64 = flags.parse_num("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (circuit, witness) = spec.build(&mut rng);
    let digest = circuit.digest();
    let bytes = circuit.to_bytes();
    write_file(out, &bytes, "circuit")?;
    println!(
        "compile: {} μ={} ({} bytes) -> {out}",
        spec.name(),
        circuit.num_vars(),
        bytes.len()
    );
    println!("digest: {}", hex(&digest));
    if let Some(witness_out) = flags.get("witness-out") {
        let wbytes = witness.to_bytes();
        write_file(witness_out, &wbytes, "witness")?;
        println!("witness: {} bytes -> {witness_out}", wbytes.len());
    }
    Ok(())
}

fn load_system(flags: &Flags) -> Result<(ProofSystem, Circuit), String> {
    let srs: Srs = load(flags, "srs", "SRS")?;
    let circuit: Circuit = load(flags, "circuit", "circuit")?;
    Ok((ProofSystem::setup(srs), circuit))
}

fn cmd_prove(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("prove", args)?;
    let out = flags.require("out")?;
    let (system, circuit) = load_system(&flags)?;
    let witness: Witness = load(&flags, "witness", "witness")?;
    let (prover, _verifier) = system.preprocess(circuit).map_err(|e| e.to_string())?;
    let proof = prover.prove(&witness).map_err(|e| e.to_string())?;
    let bytes = proof.to_bytes();
    write_file(out, &bytes, "proof")?;
    println!("prove: proof ({} bytes) -> {out}", bytes.len());
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("verify", args)?;
    let proof: Proof = load(&flags, "proof", "proof")?;
    let (system, circuit) = load_system(&flags)?;
    let (_prover, verifier) = system.preprocess(circuit).map_err(|e| e.to_string())?;
    verifier
        .verify(&proof)
        .map_err(|e| format!("proof REJECTED: {e}"))?;
    println!("verify: OK");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("serve", args)?;
    let srs: Srs = load(&flags, "srs", "SRS")?;
    let mut config = ServiceConfig::default();
    let default_shards = config.shards;
    if flags.get("shards").is_some() {
        config = config.with_shards(flags.parse_num("shards", default_shards)?);
    }
    config = config
        .with_session_capacity(flags.parse_num("session-capacity", 0)?)
        .with_session_byte_budget(flags.parse_num("session-byte-budget", 0)?);
    // Keep a handle on the sink so the final dump works after the server
    // (which owns the service) has shut down — TraceSink clones share state.
    let trace_sink = if flags.has("trace") || flags.has("trace-out") {
        let sink = TraceSink::enabled();
        config = config.with_trace(sink.clone());
        Some(sink)
    } else {
        None
    };
    let service = ProvingService::start(Arc::new(srs), config);

    let server_config = ServerConfig::new(flags.get("addr").unwrap_or("127.0.0.1:0"))
        .with_auth_token(flags.get("auth-token").unwrap_or("").as_bytes())
        .with_max_connections(flags.parse_num("max-connections", 64)?)
        .with_idle_timeout(Duration::from_millis(
            flags.parse_num("idle-timeout-ms", 30_000)?,
        ))
        .with_drain_grace(Duration::from_millis(
            flags.parse_num("drain-grace-ms", 5_000)?,
        ));
    let server = NetServer::bind(service, server_config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    println!("serve: listening on {addr}");
    if let Some(ready_file) = flags.get("ready-file") {
        // Atomic rename so a polling client never reads a half-written
        // address.
        let tmp = format!("{ready_file}.tmp");
        write_file(&tmp, addr.to_string().as_bytes(), "ready file")?;
        std::fs::rename(&tmp, ready_file)
            .map_err(|e| format!("cannot publish ready file {ready_file}: {e}"))?;
    }

    server.wait_for_shutdown_request();
    println!("serve: shutdown requested, draining");
    let metrics = server.shutdown();
    let json = zkspeed::rt::ToJson::to_json(&metrics).pretty();
    if let Some(path) = flags.get("metrics-out") {
        write_file(path, json.as_bytes(), "final metrics")?;
        println!("serve: final metrics -> {path}");
    } else {
        println!("{json}");
    }
    if let Some(sink) = trace_sink {
        let trace_json = sink.chrome_trace_json();
        if let Some(path) = flags.get("trace-out") {
            write_file(path, trace_json.as_bytes(), "trace dump")?;
            println!(
                "serve: trace ({} events, {} dropped) -> {path}",
                sink.event_count(),
                sink.dropped_events()
            );
        }
    }
    println!(
        "serve: drained ({} proofs, {} connections served)",
        metrics.completed, metrics.connections.total
    );
    Ok(())
}

fn parse_priority(s: &str) -> Result<Priority, String> {
    match s {
        "high" => Ok(Priority::High),
        "normal" => Ok(Priority::Normal),
        "low" => Ok(Priority::Low),
        other => Err(format!(
            "--priority: expected high|normal|low, got `{other}`"
        )),
    }
}

fn cmd_submit(args: &[String]) -> Result<(), CmdError> {
    let flags = Flags::parse("submit", args)?;
    let addr = flags.require("addr")?;
    let token = flags.get("auth-token").unwrap_or("");
    let mut client = NetClient::connect(addr, token.as_bytes(), ClientConfig::default())
        .map_err(|e| format!("connect to {addr} failed: {e}"))?;
    println!(
        "submit: connected to {} (protocol v{})",
        client.server_id(),
        client.protocol()
    );

    if let (None, None) = (flags.get("circuit"), flags.get("witness")) {
        // Metrics-scrape / shutdown-only invocations need no artifacts.
        return Ok(finish_submit(&flags, &mut client, 0)?);
    }

    let circuit_bytes = read_file(flags.require("circuit")?, "circuit")?;
    let witness_bytes = read_file(flags.require("witness")?, "witness")?;
    let jobs: usize = flags.parse_num("jobs", 1)?;
    let priority = parse_priority(flags.get("priority").unwrap_or("normal"))?;
    let wait_ms: u64 = flags.parse_num("wait-ms", 120_000)?;
    let deadline_ms: u64 = flags.parse_num("deadline-ms", 0)?;

    let (digest, num_vars) = client
        .register_circuit(&circuit_bytes)
        .map_err(|e| format!("register failed: {e}"))?;
    println!("submit: registered μ={num_vars} circuit {}", hex(&digest));

    let ids: Vec<u64> = (0..jobs)
        .map(|_| client.submit_with_deadline(digest, priority, &witness_bytes, deadline_ms))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("submit failed: {e}"))?;
    let mut first_proof: Option<Vec<u8>> = None;
    for id in ids {
        let proof = client
            .wait(id, Duration::from_millis(wait_ms))
            .map_err(|e| CmdError {
                code: match &e {
                    NetError::JobFailed { .. } => 2,
                    NetError::TimedOut => 3,
                    _ => 1,
                },
                msg: format!("job {id} failed: {e}"),
            })?;
        println!("submit: job {id} proof ready ({} bytes)", proof.len());
        first_proof.get_or_insert(proof);
    }
    if let (Some(path), Some(proof)) = (flags.get("proof-out"), first_proof.as_ref()) {
        write_file(path, proof, "proof")?;
        println!("submit: proof -> {path}");
    }
    Ok(finish_submit(&flags, &mut client, jobs)?)
}

fn cmd_sessions(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("sessions", args)?;
    let addr = flags.require("addr")?;
    let token = flags.get("auth-token").unwrap_or("");
    let mut client = NetClient::connect(addr, token.as_bytes(), ClientConfig::default())
        .map_err(|e| format!("connect to {addr} failed: {e}"))?;
    let sessions = client
        .sessions()
        .map_err(|e| format!("session listing failed: {e}"))?;
    println!(
        "sessions: {} known ({} active)",
        sessions.len(),
        sessions
            .iter()
            .filter(|s| s.state == zkspeed::svc::SessionState::Active)
            .count()
    );
    for s in &sessions {
        println!(
            "  {}  μ={:<2} {:<7} shard={} resident={}B completed={}",
            hex(&s.digest),
            s.num_vars,
            s.state.label(),
            s.shard,
            s.resident_bytes,
            s.jobs_completed
        );
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("trace", args)?;
    let addr = flags.require("addr")?;
    let token = flags.get("auth-token").unwrap_or("");
    let mut client = NetClient::connect(addr, token.as_bytes(), ClientConfig::default())
        .map_err(|e| format!("connect to {addr} failed: {e}"))?;
    let json = client
        .trace()
        .map_err(|e| format!("trace pull failed: {e}"))?;
    if let Some(path) = flags.get("out") {
        write_file(path, json.as_bytes(), "trace dump")?;
        println!("trace: {} bytes -> {path}", json.len());
    } else {
        println!("{json}");
    }
    Ok(())
}

fn finish_submit(flags: &Flags, client: &mut NetClient, jobs: usize) -> Result<(), String> {
    if flags.has("metrics") {
        let json = client
            .metrics()
            .map_err(|e| format!("metrics scrape failed: {e}"))?;
        if let Some(path) = flags.get("metrics-out") {
            write_file(path, json.as_bytes(), "metrics")?;
            println!("submit: metrics -> {path}");
        } else {
            println!("{json}");
        }
    }
    if flags.has("shutdown") {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        println!("submit: server acknowledged shutdown");
    }
    if jobs > 0 {
        println!("submit: {jobs} job(s) complete");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rejects_the_retired_cache_flag() {
        let args = ["--srs", "s.bin", "--proof-cache-bytes", "1"].map(String::from);
        let err = Flags::parse("serve", &args)
            .err()
            .expect("unknown flag must be an error");
        assert!(err.contains("unknown flag `--proof-cache-bytes`"), "{err}");
        assert!(err.contains("for serve"), "{err}");
    }

    /// Each subcommand's `USAGE` synopsis, as `(name, flags it lists)`.
    /// A synopsis is the block's first line and the `[--flag …]` lines
    /// after it; the prose below may mention other subcommands' flags.
    fn usage_blocks() -> Vec<(String, Vec<String>)> {
        let body = USAGE
            .split("SUBCOMMANDS:")
            .nth(1)
            .and_then(|rest| rest.split("EXIT CODES:").next())
            .expect("USAGE has a SUBCOMMANDS section");
        let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
        let mut in_synopsis = false;
        for line in body.lines() {
            if line.starts_with("  ") && !line.starts_with("   ") {
                let name = line.split_whitespace().next().expect("subcommand name");
                blocks.push((name.to_string(), Vec::new()));
                in_synopsis = true;
            } else if !line.trim_start().starts_with('[') {
                in_synopsis = false;
            }
            let Some((_, flags)) = blocks.last_mut().filter(|_| in_synopsis) else {
                continue;
            };
            for part in line.split("--").skip(1) {
                let flag = part
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                flags.push(flag);
            }
        }
        blocks
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_subcommand_accepts() {
        let blocks = usage_blocks();
        assert_eq!(blocks.len(), FLAGS.len());
        for ((cmd, mut documented), (name, accepted)) in blocks.into_iter().zip(FLAGS) {
            assert_eq!(cmd, *name, "USAGE and FLAGS order the subcommands alike");
            let all: Vec<String> = documented.iter().map(|f| format!("--{f}")).collect();
            assert!(Flags::parse(&cmd, &all).is_ok(), "{cmd} rejects its USAGE");
            let mut accepted: Vec<&str> = accepted.split_whitespace().collect();
            accepted.sort_unstable();
            documented.sort_unstable();
            documented.dedup();
            assert_eq!(documented, accepted, "{cmd}: USAGE and FLAGS differ");
        }
    }
}
