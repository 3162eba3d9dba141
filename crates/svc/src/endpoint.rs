//! The in-process wire endpoint: [`ProvingService::handle_frame`] and
//! [`ProvingService::handle_request`], which map each wire request onto
//! the service handle and each outcome onto a wire response.

use std::fmt;
use std::time::Duration;

use zkspeed_hyperplonk::Witness;
use zkspeed_rt::codec::Reader;
use zkspeed_rt::ToJson;

use crate::jobs::JobPhase;
use crate::metrics::bump;
use crate::service::{JobSpec, ProvingService, ServiceError};
use crate::wire::{RejectCode, Request, Response, SessionRow};

impl ProvingService {
    /// The in-process wire endpoint: decodes one request frame, serves it,
    /// and returns the encoded response frame. Malformed input never
    /// panics — it answers with a `Rejected` response instead, like a
    /// socket server would.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let mut reader = Reader::new(frame);
        let request = reader.frame().and_then(|payload| {
            reader.finish()?;
            Request::from_bytes(payload)
        });
        match request {
            Ok(request) => self.handle_request(request),
            Err(e) => reject(RejectCode::Malformed, &e),
        }
        .to_frame()
    }

    /// Serves one already-decoded request. Transport layers that decode
    /// frames themselves (and intercept `Hello` for authentication) call
    /// this directly; [`ProvingService::handle_frame`] is the whole-frame
    /// convenience wrapper.
    ///
    /// `Hello` here answers unconditionally with `HelloOk` — the service
    /// itself holds no auth secret; token checking is the transport's job.
    /// `Shutdown` flips the service into drain mode and answers
    /// `ShuttingDown`.
    pub fn handle_request(&self, request: Request) -> Response {
        match request {
            Request::Hello { .. } => Response::HelloOk {
                protocol: zkspeed_rt::codec::VERSION,
                server: format!("zkspeed-svc/{}", env!("CARGO_PKG_VERSION")),
            },
            Request::Shutdown => {
                self.begin_drain();
                Response::ShuttingDown
            }
            Request::SubmitCircuit { circuit } => match self.register_circuit_bytes(&circuit) {
                Ok((digest, num_vars)) => Response::CircuitRegistered {
                    digest,
                    num_vars: num_vars as u32,
                },
                Err(e @ ServiceError::Decode(_)) => reject(RejectCode::Malformed, &e),
                Err(e @ ServiceError::Draining) => reject(RejectCode::Draining, &e),
                Err(e) => reject(RejectCode::Unsupported, &e),
            },
            Request::SubmitJob {
                circuit,
                priority,
                deadline_ms,
                witness,
            } => {
                let witness = match Witness::from_bytes(&witness) {
                    Ok(witness) => witness,
                    Err(e) => {
                        bump(&self.shared.metrics.rejected_invalid);
                        return reject(RejectCode::Malformed, &e);
                    }
                };
                let mut spec = JobSpec::new(priority);
                if deadline_ms > 0 {
                    spec = spec.with_deadline(Duration::from_millis(deadline_ms));
                }
                match self.try_submit(&circuit, witness, spec) {
                    Ok(job) => Response::JobAccepted { job },
                    Err(e @ ServiceError::QueueFull) => reject(RejectCode::QueueFull, &e),
                    Err(e @ ServiceError::UnknownCircuit) => reject(RejectCode::UnknownCircuit, &e),
                    Err(e @ ServiceError::SessionEvicted) => reject(RejectCode::SessionEvicted, &e),
                    Err(e @ (ServiceError::Draining | ServiceError::Shutdown)) => {
                        reject(RejectCode::Draining, &e)
                    }
                    Err(e) => reject(RejectCode::WitnessMismatch, &e),
                }
            }
            // `JobStatus` parks until the job settles, its deadline passes
            // or `WAIT_POLL` runs out, so a client re-sends at once instead
            // of sleeping between polls. A finished job streams its proof
            // back in the same cycle and stays in the retention ring, so a
            // client whose answer was torn in transit polls again and gets
            // the same bytes (see [`ProvingService::wait`]). The proof-byte
            // copy happens outside the jobs lock so one large delivery
            // cannot stall submitters and shard workers.
            Request::JobStatus { job } => match self.shared.jobs.poll(job) {
                None => reject(RejectCode::UnknownJob, &ServiceError::UnknownJob),
                Some(phase @ (JobPhase::Queued | JobPhase::Running)) => Response::Status {
                    job,
                    state: phase.state(),
                },
                Some(JobPhase::Done(proof)) => Response::ProofReady {
                    job,
                    proof: proof.to_vec(),
                },
                Some(JobPhase::Failed(reason)) => Response::JobFailed { job, reason },
            },
            Request::Metrics => Response::Metrics {
                json: self.metrics().to_json().pretty(),
            },
            Request::ListSessions => Response::SessionList {
                sessions: self
                    .shared
                    .store
                    .snapshot()
                    .into_iter()
                    .map(|row| SessionRow {
                        digest: row.digest,
                        num_vars: row.num_vars as u32,
                        state: row.state,
                        shard: row.shard as u32,
                        resident_bytes: row.resident_bytes,
                        jobs_completed: row.jobs_completed,
                    })
                    .collect(),
            },
            Request::GetTrace => Response::TraceDump {
                json: self.trace_json(),
            },
        }
    }
}

fn reject(code: RejectCode, err: &dyn fmt::Display) -> Response {
    Response::Rejected {
        code,
        detail: err.to_string(),
    }
}
