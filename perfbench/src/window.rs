//! The measured window: latency samples, per-segment throughput and
//! CPU, generator lateness and failures.

use crate::stats::{median, percentile, process_cpu};
use std::time::{Duration, Instant};

/// Segments per window. A closed loop's throughput, latency percentiles
/// and CPU per operation are the median over segments: on a shared
/// two-core machine the noise is time-local, and a median of segments
/// rides over a bad second.
const SEGMENTS: usize = 10;

pub struct Recorder {
    start: Instant,
    end: Instant,
    seg_len: Duration,
    /// Latency of every answered query, µs, by segment.
    seg_lat: Vec<Vec<f64>>,
    /// Generator lateness of every scheduled send, ms.
    pub late_ms: Vec<f64>,
    seg_done: Vec<u64>,
    seg_ops: Vec<u64>,
    /// Process CPU at each segment boundary crossed so far.
    seg_cpu: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
    /// Open loop: throughput is answers over the span from the first
    /// send to the last answer (segments would only echo the schedule),
    /// and its few answers per segment are pooled for the percentiles.
    open_loop: bool,
    first_op: Option<Instant>,
    last_answer: Option<Instant>,
}

/// End-to-end figures of one window.
#[derive(Default)]
pub struct Figures {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_op: f64,
}

impl Recorder {
    pub fn new(length: Duration) -> Recorder {
        let start = Instant::now();
        Recorder {
            start,
            end: start + length,
            seg_len: length / SEGMENTS as u32,
            seg_lat: vec![Vec::new(); SEGMENTS],
            late_ms: Vec::new(),
            seg_done: vec![0; SEGMENTS],
            seg_ops: vec![0; SEGMENTS],
            seg_cpu: vec![process_cpu()],
            attempted: 0,
            failed: 0,
            open_loop: false,
            first_op: None,
            last_answer: None,
        }
    }

    /// A recorder for an open-loop schedule.
    pub fn open_loop(length: Duration) -> Recorder {
        Recorder {
            open_loop: true,
            ..Recorder::new(length)
        }
    }

    /// Start the window now (after warm-up).
    pub fn restart(&mut self, now: Instant) {
        let length = self.end - self.start;
        self.start = now;
        self.end = now + length;
        self.seg_cpu = vec![process_cpu()];
    }

    pub fn done(&self, now: Instant) -> bool {
        now >= self.end
    }

    fn segment(&self, at: Instant) -> usize {
        let i = at.saturating_duration_since(self.start).as_nanos() / self.seg_len.as_nanos();
        (i as usize).min(SEGMENTS - 1)
    }

    /// Call often: takes a CPU reading at each segment boundary.
    pub fn tick(&mut self, now: Instant) {
        while self.seg_cpu.len() <= SEGMENTS
            && now >= self.start + self.seg_len * self.seg_cpu.len() as u32
        {
            self.seg_cpu.push(process_cpu());
        }
    }

    /// A client operation (query, registration) was sent.
    pub fn op(&mut self, now: Instant) {
        self.attempted += 1;
        self.first_op.get_or_insert(now);
        let s = self.segment(now);
        self.seg_ops[s] += 1;
    }

    /// A registration was sent: it costs CPU but has no answer to check.
    pub fn grrp(&mut self, now: Instant) {
        let s = self.segment(now);
        self.seg_ops[s] += 1;
    }

    /// A query was answered correctly after `latency`.
    pub fn answered(&mut self, now: Instant, latency: Duration) {
        let s = self.segment(now);
        self.seg_done[s] += 1;
        self.last_answer = Some(now);
        self.seg_lat[s].push(latency.as_secs_f64() * 1e6);
    }

    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn late(&mut self, late: Duration) {
        self.late_ms.push(late.as_secs_f64() * 1e3);
    }

    pub fn figures(&mut self) -> Figures {
        self.tick(self.end.max(Instant::now()));
        let secs = self.seg_len.as_secs_f64();
        let qps: Vec<f64> = self.seg_done.iter().map(|&n| n as f64 / secs).collect();
        let cpu: Vec<f64> = (0..SEGMENTS)
            .filter(|&s| self.seg_ops[s] > 0)
            .map(|s| {
                (self.seg_cpu[s + 1] - self.seg_cpu[s]).as_secs_f64() * 1e6 / self.seg_ops[s] as f64
            })
            .collect();
        let (p50_us, p99_us) = if self.open_loop {
            let all: Vec<f64> = self.seg_lat.concat();
            (percentile(&all, 0.5), percentile(&all, 0.99))
        } else {
            let per =
                |p: f64| -> Vec<f64> { self.seg_lat.iter().map(|l| percentile(l, p)).collect() };
            (median(&per(0.5)), median(&per(0.99)))
        };
        let qps = match (self.open_loop, self.first_op, self.last_answer) {
            (true, Some(first), Some(last)) if last > first => {
                self.seg_done.iter().sum::<u64>() as f64 / (last - first).as_secs_f64()
            }
            _ => median(&qps),
        };
        // An open loop's segments hold few, unevenly spread writes; CPU
        // per operation is taken over the whole window instead.
        let cpu_us_per_op = match (self.open_loop, self.seg_cpu.first(), self.seg_cpu.last()) {
            (true, Some(first), Some(last)) => {
                (*last - *first).as_secs_f64() * 1e6
                    / self.seg_ops.iter().sum::<u64>().max(1) as f64
            }
            _ => median(&cpu),
        };
        Figures {
            qps,
            p50_us,
            p99_us,
            cpu_us_per_op,
        }
    }
}
