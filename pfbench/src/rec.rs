//! The recorder every call into `Session` goes through: it times the call,
//! keeps the latency sample, and — in a traced run — records the root span
//! and, for one call in [`SAMPLE_EVERY`] of each kind, the inputs needed to
//! replay the call's stages afterwards.

use crate::counters::AllocWindow;
use crate::refview::ViewSpec;
use crate::stats::MIB;
use parafile::Partition;
use std::sync::Arc;
use std::time::Instant;

/// One call in this many, per kind, is replayed stage by stage.
pub const SAMPLE_EVERY: u64 = 64;

/// The kinds of call a workload makes into `Session`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `set_view` of a partition the plan cache has not seen.
    SetViewCold,
    /// `set_view` of a partition set before (LRU hit, re-shipped, re-audited).
    SetViewWarm,
    Write,
    Read,
    /// `write_batch`.
    Batch,
    Flush,
    Probe,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::SetViewCold,
        Kind::SetViewWarm,
        Kind::Write,
        Kind::Read,
        Kind::Batch,
        Kind::Flush,
        Kind::Probe,
    ];

    /// Root span name.
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::SetViewCold | Kind::SetViewWarm => "session.set_view",
            Kind::Write => "session.write",
            Kind::Read => "session.read",
            Kind::Batch => "session.write_batch",
            Kind::Flush => "session.flush",
            Kind::Probe => "session.probe",
        }
    }
}

/// The view a call went through: enough to rebuild every stage input.
#[derive(Debug)]
pub struct ViewCtx {
    pub spec: ViewSpec,
    pub logical: Partition,
    pub element: usize,
    pub physical: Arc<Partition>,
}

/// A sampled call: its root span plus the inputs of its stages.
#[derive(Debug, Clone)]
pub struct OpDesc {
    pub op: u64,
    pub kind: Kind,
    pub view: Arc<ViewCtx>,
    /// View interval of a write or read (`0, 0` for a view-set).
    pub lo: u64,
    pub hi: u64,
    pub dur_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct RootSpan {
    pub kind: Kind,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Rec {
    epoch: Instant,
    tracing: bool,
    /// First op id of this recorder (threads get disjoint ranges).
    next_op: u64,
    lat_us: [Vec<f64>; Kind::ALL.len()],
    pub spans: Vec<RootSpan>,
    pub sampled: Vec<OpDesc>,
    /// Duration of the most recent timed call.
    pub last_ns: u64,
    /// Set when the most recent timed call was picked for replay.
    to_sample: Option<(u64, Kind, u64)>,
    // Accumulators of the round in progress.
    busy_ns: u64,
    write_acc: (u64, u64),
    read_acc: (u64, u64),
    // One value per finished round.
    pub round_ms: Vec<f64>,
    pub write_mib_s: Vec<f64>,
    pub read_mib_s: Vec<f64>,
    /// Logical operations issued (a `write_batch` entry counts as one).
    pub attempted: u64,
    /// Those that returned an error, came back short or refused, or whose
    /// bytes differ from the serial reference.
    pub failed: u64,
    /// User payload bytes written plus read.
    pub payload_bytes: u64,
    pub errors: Vec<String>,
}

impl Rec {
    pub fn new(epoch: Instant, tracing: bool, thread: u64) -> Self {
        Self {
            epoch,
            tracing,
            next_op: thread << 48,
            lat_us: Default::default(),
            spans: Vec::new(),
            sampled: Vec::new(),
            last_ns: 0,
            to_sample: None,
            busy_ns: 0,
            write_acc: (0, 0),
            read_acc: (0, 0),
            round_ms: Vec::new(),
            write_mib_s: Vec::new(),
            read_mib_s: Vec::new(),
            attempted: 0,
            failed: 0,
            payload_bytes: 0,
            errors: Vec::new(),
        }
    }

    /// Times one call into `Session`.
    pub fn timed<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let counting = self.tracing.then(AllocWindow::open);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        drop(counting);
        let ns = (end - start).as_nanos() as u64;
        self.last_ns = ns;
        self.busy_ns += ns;
        self.attempted += 1;
        let samples = &mut self.lat_us[kind as usize];
        if self.tracing {
            let op = self.next_op;
            self.next_op += 1;
            let start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans.push(RootSpan { kind, op, start_ns, end_ns: start_ns + ns });
            self.to_sample =
                (samples.len() as u64).is_multiple_of(SAMPLE_EVERY).then_some((op, kind, ns));
        }
        samples.push(ns as f64 / 1e3);
        out
    }

    /// Supplies the replay inputs of the call just timed (the view it went
    /// through and its interval); kept if that call was picked for replay.
    pub fn replayable(&mut self, view: &Arc<ViewCtx>, lo: u64, hi: u64) {
        if let Some((op, kind, dur_ns)) = self.to_sample.take() {
            self.sampled.push(OpDesc { op, kind, view: Arc::clone(view), lo, hi, dur_ns });
        }
    }

    /// Credits `bytes` of user payload to the write throughput of this
    /// round, over the duration of the call just timed.
    pub fn wrote(&mut self, bytes: u64) {
        self.write_acc.0 += bytes;
        self.write_acc.1 += self.last_ns;
        self.payload_bytes += bytes;
    }

    /// Counts `bytes` of user payload written without crediting the
    /// throughput metric.
    pub fn wrote_uncredited(&mut self, bytes: u64) {
        self.payload_bytes += bytes;
    }

    pub fn read(&mut self, bytes: u64) {
        self.read_acc.0 += bytes;
        self.read_acc.1 += self.last_ns;
        self.payload_bytes += bytes;
    }

    /// `ops - 1` further logical operations rode on the call just timed.
    pub fn batched(&mut self, ops: u64) {
        self.attempted += ops.saturating_sub(1);
    }

    /// Records a failed operation unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Closes the round. `wall_ns` is its barrier-to-barrier wall time when
    /// several threads share the round; a single thread's round is the time
    /// it spent blocked in its calls, which leaves the benchmark's own
    /// checking out.
    pub fn end_round(&mut self, wall_ns: Option<u64>) {
        self.round_ms.push(wall_ns.unwrap_or(self.busy_ns) as f64 / 1e6);
        for (acc, out) in [
            (&mut self.write_acc, &mut self.write_mib_s),
            (&mut self.read_acc, &mut self.read_mib_s),
        ] {
            if acc.1 > 0 {
                out.push(acc.0 as f64 / MIB / (acc.1 as f64 / 1e9));
            }
            *acc = (0, 0);
        }
        self.busy_ns = 0;
    }

    pub fn latencies(&self, kind: Kind) -> &[f64] {
        &self.lat_us[kind as usize]
    }

    /// Moves everything a second load-generating thread recorded into this
    /// recorder, leaving `other` empty (its buffers keep their capacity, so
    /// a per-round hand-over allocates nothing).
    pub fn absorb(&mut self, other: &mut Rec) {
        for (mine, theirs) in self.lat_us.iter_mut().zip(&mut other.lat_us) {
            mine.append(theirs);
        }
        self.spans.append(&mut other.spans);
        self.sampled.append(&mut other.sampled);
        self.round_ms.append(&mut other.round_ms);
        self.write_mib_s.append(&mut other.write_mib_s);
        self.read_mib_s.append(&mut other.read_mib_s);
        self.attempted += std::mem::take(&mut other.attempted);
        self.failed += std::mem::take(&mut other.failed);
        self.payload_bytes += std::mem::take(&mut other.payload_bytes);
        self.errors.append(&mut other.errors);
    }
}
