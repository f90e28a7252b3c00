//! The shard server: one [`SurveillanceService`] behind a TCP front door.
//!
//! Plain blocking `std::net`, like every other thread in the workspace: a
//! fixed set of [`CONN_THREADS`] connection threads each loop `accept()` →
//! serve that one connection (read a frame, dispatch it under the one
//! state lock, write the response) until the peer hangs up. The set is
//! fixed, not spawned per connection, because the span recorder keeps one
//! ring per recording thread for the life of the process: a fixed set
//! bounds threads, span lanes and open connections at once, and excess
//! connections wait in the listen backlog. The traffic is a handful of
//! long-lived router connections making strictly request→response calls.
//!
//! Malformed input never kills the server: torn frames wait for more
//! bytes, anything else typed by [`DecodeError`](crate::DecodeError) gets
//! an error frame and the connection is closed (a desynced length-prefixed
//! stream cannot be re-synchronized safely). A failed `accept` is logged
//! and retried.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use sbgt_engine::obs::Scrape;
use sbgt_engine::{SharedEngine, SpanKind, SpanMeta, TraceContext, TraceLevel};
use sbgt_service::{
    CohortCheckpoint, ServiceConfig, ServiceError, ShedReason, SurveillanceService,
};

use crate::frame::{read_frame, ObsFrame, Request, Response};

/// Size of the fixed connection-thread set: the most connections served
/// at once (a fabric shard holds one per router, plus a scraper and an
/// occasional probe).
pub const CONN_THREADS: usize = 16;

/// Pause before retrying `accept` after it failed twice in a row, so a
/// persistent failure (`EMFILE`) cannot spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// A running shard server. Owns the connection threads and, with them,
/// the service; dropping the handle does **not** stop the server — send
/// [`Request::Shutdown`] and then [`ShardServer::join`], or call
/// [`ShardServer::shutdown`].
pub struct ShardServer {
    front: Arc<FrontDoor>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ShardServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`), start the service, and spawn
    /// the connection threads.
    pub fn bind(
        addr: &str,
        engine: SharedEngine,
        config: ServiceConfig,
    ) -> io::Result<ShardServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Tag the recorder with the OS pid so spans exported over the wire
        // identify which process produced them in a merged fleet trace.
        engine.obs().set_process_tag(u64::from(std::process::id()));
        let service = SurveillanceService::start(engine.clone(), config)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let front = Arc::new(FrontDoor {
            listener,
            addr: local,
            state: Mutex::new(ServerState {
                engine,
                service: Some(service),
            }),
            stopping: AtomicBool::new(false),
            serving: Mutex::new(std::array::from_fn(|_| None)),
        });
        let mut server = ShardServer {
            front,
            threads: Vec::with_capacity(CONN_THREADS),
        };
        for slot in 0..CONN_THREADS {
            let front = Arc::clone(&server.front);
            let spawned = thread::Builder::new()
                .name(format!("sbgt-conn-{slot}"))
                .spawn(move || front.accept_loop(slot));
            match spawned {
                Ok(thread) => server.threads.push(thread),
                Err(e) => {
                    let _ = server.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(server)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.addr
    }

    /// Stop the server — what [`Request::Shutdown`] does over the wire, and
    /// possible even while every connection thread is taken — then wait
    /// for it to exit.
    pub fn shutdown(self) -> io::Result<()> {
        self.front.stop();
        self.join()
    }

    /// Wait for every connection thread to exit (after a wire-side
    /// `Shutdown`). The service and the listener are dropped before this
    /// returns.
    pub fn join(self) -> io::Result<()> {
        let mut panicked = false;
        for thread in self.threads {
            panicked |= thread.join().is_err();
        }
        if panicked {
            return Err(io::Error::other("shard connection thread panicked"));
        }
        Ok(())
    }
}

struct ServerState {
    engine: SharedEngine,
    /// `None` once drained — the shard then refuses work.
    service: Option<SurveillanceService>,
}

/// Dispatch one decoded request, under the state lock. Blocking verbs
/// (`Drain`) are terminal, so stalling every other connection on them is
/// acceptable by design.
fn handle(state: &mut ServerState, request: Request) -> (Response, bool) {
    let mut shutdown = false;
    let response = match request {
        Request::Ping => Response::Pong,
        Request::Submit {
            tenant,
            specimens,
            trace,
        } => match &state.service {
            None => drained_error(),
            Some(service) => {
                let obs = state.engine.obs();
                let _span = obs.span(
                    TraceLevel::Spans,
                    SpanKind::Service,
                    "net:submit",
                    SpanMeta {
                        task: tenant,
                        ..SpanMeta::default()
                    },
                );
                stamp_inbound_trace(state, trace, SpanMeta::default());
                let mut accepted = 0u32;
                let mut shed = 0u32;
                let mut reason = None;
                for specimen in specimens {
                    match service.try_submit_tagged(tenant, specimen) {
                        Ok(()) => accepted += 1,
                        Err(ServiceError::Shed(r)) => {
                            shed += 1;
                            reason.get_or_insert(r);
                        }
                        Err(other) => {
                            return (
                                Response::Error {
                                    message: other.to_string(),
                                },
                                false,
                            )
                        }
                    }
                }
                Response::Accepted {
                    accepted,
                    shed,
                    reason,
                }
            }
        },
        Request::PlaceCohort { spec, trace } => match &state.service {
            None => drained_error(),
            Some(service) => {
                let obs = state.engine.obs();
                let _span = obs.span(
                    TraceLevel::Spans,
                    SpanKind::Service,
                    "net:place",
                    SpanMeta::for_cohort(spec.id),
                );
                stamp_inbound_trace(state, trace, SpanMeta::for_cohort(spec.id));
                match service.place_cohort(spec) {
                    Ok(()) => Response::Accepted {
                        accepted: 1,
                        shed: 0,
                        reason: None,
                    },
                    Err(ServiceError::Shed(reason)) => Response::Accepted {
                        accepted: 0,
                        shed: 1,
                        reason: Some(reason),
                    },
                    Err(other) => Response::Error {
                        message: other.to_string(),
                    },
                }
            }
        },
        Request::PollReports => match &state.service {
            None => Response::Reports {
                reports: Vec::new(),
            },
            Some(service) => Response::Reports {
                reports: service.take_completed(),
            },
        },
        Request::Stats => Response::Stats {
            prometheus: state.engine.render_prometheus(),
        },
        Request::Drain => match state.service.take() {
            None => drained_error(),
            Some(service) => {
                service.begin_drain();
                let checkpoint = service.suspend();
                Response::Drained {
                    reports: checkpoint.completed,
                    checkpoints: checkpoint
                        .cohorts
                        .iter()
                        .map(CohortCheckpoint::to_bytes)
                        .collect(),
                }
            }
        },
        Request::Handoff { checkpoints, trace } => match &state.service {
            None => drained_error(),
            Some(service) => {
                let obs = state.engine.obs();
                let _span = obs.span(
                    TraceLevel::Spans,
                    SpanKind::Service,
                    "net:handoff",
                    SpanMeta::default(),
                );
                stamp_inbound_trace(state, trace, SpanMeta::default());
                let mut accepted = 0u32;
                let mut shed = 0u32;
                let mut reason: Option<ShedReason> = None;
                for blob in &checkpoints {
                    let ckpt = match CohortCheckpoint::from_bytes(blob) {
                        Ok(ckpt) => ckpt,
                        Err(e) => {
                            return (
                                Response::Error {
                                    message: format!("handoff checkpoint rejected: {e}"),
                                },
                                false,
                            )
                        }
                    };
                    match service.adopt_cohort(&ckpt) {
                        Ok(()) => {
                            accepted += 1;
                            // One mark per adopted cohort: the relocated
                            // cohort's first span on its new process, under
                            // the same deterministic per-cohort trace id.
                            if obs.enabled_at(TraceLevel::Spans) {
                                obs.mark(
                                    obs.intern("net:adopt"),
                                    SpanMeta::for_cohort(ckpt.spec.id),
                                );
                            }
                        }
                        Err(ServiceError::Shed(r)) => {
                            shed += 1;
                            reason.get_or_insert(r);
                        }
                        Err(other) => {
                            return (
                                Response::Error {
                                    message: other.to_string(),
                                },
                                false,
                            )
                        }
                    }
                }
                Response::Accepted {
                    accepted,
                    shed,
                    reason,
                }
            }
        },
        Request::Shutdown => {
            shutdown = true;
            Response::Pong
        }
        Request::ObsExport => obs_export(state),
    };
    (response, shutdown)
}

/// Stamp an inbound trace context onto this process's span stream (at
/// `Full` verbosity) so a merged fleet trace can check that the sender
/// and the shard agree on the work's trace id.
fn stamp_inbound_trace(state: &ServerState, trace: Option<TraceContext>, meta: SpanMeta) {
    if let Some(ctx) = trace {
        let obs = state.engine.obs();
        if obs.enabled_at(TraceLevel::Full) {
            obs.mark_value(obs.intern("net:trace-inherit"), ctx.trace_id, meta);
        }
    }
}

/// Build the shard's [`Response::ObsFrame`]: the engine's scrape moved in
/// as is (scalar samples with the registry's own `f64` bits, histograms
/// native so the fleet merge is [`sbgt_engine::LogHistogram::merge`]),
/// plus the span-ring snapshot the scrape was taken against and the name
/// table.
fn obs_export(state: &ServerState) -> Response {
    let obs = state.engine.obs();
    let ring = obs.snapshot();
    let Scrape { samples, hists } = state.engine.metrics().scrape(Some(&ring));
    Response::ObsFrame {
        frame: ObsFrame {
            process_tag: ring.process_tag,
            samples,
            hists,
            names: obs.name_table(),
            lanes: ring.lanes,
        },
    }
}

fn drained_error() -> Response {
    Response::Error {
        message: "shard drained: no service attached".to_string(),
    }
}

/// What the connection threads share.
struct FrontDoor {
    listener: TcpListener,
    addr: SocketAddr,
    state: Mutex<ServerState>,
    /// Set once by [`FrontDoor::stop`]; every thread checks it before each
    /// `accept` and before serving what `accept` returned.
    stopping: AtomicBool,
    /// Per connection thread, a handle on the stream it is serving, so
    /// `stop` can wake it out of a blocked `read`.
    serving: Mutex<[Option<TcpStream>; CONN_THREADS]>,
}

/// A panic under one of the front door's locks must not take the other
/// connections down with it: both guarded values are valid at every step
/// (the only mutations are whole-`Option` stores), so recover the guard.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FrontDoor {
    /// One connection thread: accept, serve that connection to its end,
    /// repeat. Only the stop flag ends the loop — a failed `accept`
    /// (`ECONNABORTED`, `EMFILE`) is logged and retried.
    fn accept_loop(&self, slot: usize) {
        let mut failures = 0u32;
        while !self.stopping.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    failures = 0;
                    // A peer that resets mid-setup only loses its own
                    // connection.
                    let _ = self.serve(slot, stream);
                }
                Err(e) => {
                    if failures == 0 {
                        eprintln!("sbgt-conn-{slot}: accept failed, retrying: {e}");
                    } else {
                        thread::sleep(ACCEPT_RETRY);
                    }
                    failures += 1;
                }
            }
        }
    }

    /// Serve one connection until the peer hangs up, the stream desyncs,
    /// or the server stops.
    fn serve(&self, slot: usize, mut stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true)?;
        // Publish the stream, *then* check the flag: `stop` sets the flag
        // and then walks the slots, so either it finds this stream or this
        // thread sees the flag — a read is never left blocked past a stop.
        lock(&self.serving)[slot] = Some(stream.try_clone()?);
        if !self.stopping.load(Ordering::SeqCst) {
            self.frame_loop(&mut stream);
        }
        lock(&self.serving)[slot] = None;
        Ok(())
    }

    fn frame_loop(&self, stream: &mut TcpStream) {
        let mut inbuf = Vec::new();
        loop {
            let request = match read_frame(stream, &mut inbuf, Request::decode) {
                Ok(request) => request,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // A desynced stream cannot be re-framed: answer with
                    // the typed error and close.
                    let message = e.to_string();
                    let _ = stream.write_all(&Response::Error { message }.encode());
                    return;
                }
                // The peer hung up, or `stop` closed the stream under us.
                Err(_) => return,
            };
            let (response, stop) = handle(&mut lock(&self.state), request);
            let written = stream.write_all(&response.encode());
            if stop {
                self.stop();
            }
            if stop || written.is_err() {
                return;
            }
        }
    }

    /// Stop the server: wake every thread blocked in `read` by closing its
    /// stream, and every thread blocked in `accept` by dialling it a
    /// connection, which it drops on seeing the flag.
    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        for stream in lock(&self.serving).iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // At most CONN_THREADS threads are in `accept`, and each takes at
        // most one connection after the flag is set; dials nobody accepts
        // are reset when the last thread drops the listener.
        for _ in 0..CONN_THREADS {
            let _ = TcpStream::connect(self.addr);
        }
    }
}
