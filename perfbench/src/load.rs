//! The closed loop of `vo_discovery`: a fixed
//! number of users per connection, each sending its next query as soon
//! as the previous one is answered.

use crate::driver::{Driver, Inbound};
use crate::grid::{Oracle, Query};
use crate::layers::Tracer;
use crate::window::Recorder;
use gis_netsim::SimRng;
use gis_proto::{GripReply, ResultCode};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// A query not answered within this is a failure.
pub const DEADLINE: Duration = Duration::from_secs(2);

struct Pending {
    query: usize,
    sent: Instant,
    /// Sent inside the measured window (counted), or during warm-up.
    counted: bool,
    traced: Option<u64>,
}

/// Replies kept for the per-layer codec measurements.
pub const KEEP_REPLIES: usize = 256;

pub struct ClosedLoop<'a> {
    pub driver: &'a mut Driver,
    pub pool: &'a [Query],
    pub rng: SimRng,
    /// Users per connection.
    pub depth: usize,
    pub live: &'a dyn Oracle,
    /// Sample of answered replies (for the codec layer).
    pub kept: Vec<GripReply>,
    /// When set, an owner-path request (an anonymous bind) goes out on
    /// connection 0 at this interval, so the service's inbox-wait
    /// histogram sees traffic.
    pub owner_probe: Option<Duration>,
    /// Queries sent, warm-up included.
    pub sent: u64,
}

impl<'a> ClosedLoop<'a> {
    pub fn new(
        driver: &'a mut Driver,
        pool: &'a [Query],
        rng: SimRng,
        depth: usize,
        live: &'a dyn Oracle,
    ) -> ClosedLoop<'a> {
        ClosedLoop {
            driver,
            pool,
            rng,
            depth,
            live,
            kept: Vec::new(),
            owner_probe: None,
            sent: 0,
        }
    }

    fn send(
        &mut self,
        conn: usize,
        counted: bool,
        tracer: &mut Option<&mut Tracer>,
        pending: &mut HashMap<(usize, u64), Pending>,
    ) {
        self.sent += 1;
        let query = self.rng.range_u64(0, self.pool.len() as u64) as usize;
        let ctx = tracer.as_mut().and_then(|t| t.next_ctx());
        let id = self.driver.search(conn, self.pool[query].spec.clone(), ctx);
        pending.insert(
            (conn, id),
            Pending {
                query,
                sent: Instant::now(),
                counted,
                traced: ctx.map(|c| c.trace.0),
            },
        );
    }

    /// Run until `window` ends: warm-up until `rec`'s window starts, then
    /// measure. Queries in flight at the end are waited for (bounded by
    /// [`DEADLINE`]) and counted.
    pub fn run(
        &mut self,
        warmup: Duration,
        rec: &mut Recorder,
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<()> {
        let warm_end = Instant::now() + warmup;
        let mut pending: HashMap<(usize, u64), Pending> = HashMap::new();
        for conn in 0..self.driver.conns() {
            for _ in 0..self.depth {
                self.send(conn, false, &mut tracer, &mut pending);
            }
        }
        let mut measuring = false;
        let mut got: Vec<Inbound> = Vec::new();
        let mut next_sweep = Instant::now() + Duration::from_millis(100);
        let mut probes: Vec<u64> = Vec::new();
        let mut next_probe = Instant::now();
        loop {
            let now = Instant::now();
            if !measuring && now >= warm_end {
                rec.restart(now);
                measuring = true;
            }
            let closing = measuring && rec.done(now);
            if closing && pending.is_empty() {
                break;
            }
            rec.tick(now);
            got.clear();
            self.driver.poll(Duration::from_millis(20), &mut got)?;
            let woke = Instant::now();
            if let Some(every) = self.owner_probe {
                if woke >= next_probe && !closing {
                    next_probe = woke + every;
                    probes.push(self.driver.bind(0));
                }
            }
            for Inbound { conn, reply, .. } in got.drain(..) {
                if conn == 0 && probes.contains(&reply.id()) {
                    probes.retain(|&id| id != reply.id());
                    continue;
                }
                let Some(p) = pending.remove(&(conn, reply.id())) else {
                    continue; // answered after its deadline
                };
                let ok = match &reply {
                    GripReply::SearchResult { code, entries, .. } => {
                        *code == ResultCode::Success
                            && self.pool[p.query].check(entries, self.live, p.sent, woke)
                    }
                    _ => false,
                };
                if let (Some(t), Some(id)) = (tracer.as_mut(), p.traced) {
                    t.client_span(id, woke - p.sent);
                }
                if p.counted {
                    if ok {
                        rec.answered(woke, woke - p.sent);
                    } else {
                        rec.fail();
                    }
                }
                if ok && self.kept.len() < KEEP_REPLIES {
                    self.kept.push(reply);
                }
                if !closing {
                    let counted = measuring && !rec.done(Instant::now());
                    if counted {
                        rec.op(Instant::now());
                    }
                    self.send(conn, counted, &mut tracer, &mut pending);
                }
            }
            if measuring && !rec.done(woke) {
                rec.late(Instant::now() - woke);
            }
            if woke >= next_sweep {
                next_sweep = woke + Duration::from_millis(100);
                let expired: Vec<(usize, u64)> = pending
                    .iter()
                    .filter(|(_, p)| woke - p.sent > DEADLINE)
                    .map(|(k, _)| *k)
                    .collect();
                for key in expired {
                    let p = pending.remove(&key).expect("listed above");
                    if p.counted {
                        rec.fail();
                    }
                    if !closing {
                        self.send(key.0, measuring, &mut tracer, &mut pending);
                        if measuring {
                            rec.op(woke);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
