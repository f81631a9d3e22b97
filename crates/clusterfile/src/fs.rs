//! The Clusterfile file system proper.

use crate::storage::{StorageBackend, SubfileStore};
use crate::timing::{IoTimings, ViewSetTimings, WriteTimings};
use clustersim::{Cluster, ClusterConfig, Delivery, NodeId};
use parafile::engine::{CompiledPlan, CompiledView, PlanEngine, SegmentReplay};
use parafile::model::Partition;
use parafile::redist::Projection;
use parafile::Mapper;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies an open file.
pub type FileId = usize;

/// Fixed I/O-node cost to process one request (kernel entry, request
/// parsing, buffer management) — 10 µs of a 2002-era CPU.
const IO_REQUEST_OVERHEAD_NS: u64 = 10_000;

/// Modeled compute-node cost to map one access interval's extremities onto
/// a subfile (the paper's `t_m` is a few µs per subfile on its hardware).
const MAPPING_CPU_NS: u64 = 3_000;

/// What the I/O nodes do with written data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Stage into the buffer cache only (the paper's `t^bc` columns).
    BufferCache,
    /// Stage into the cache and write through to disk (`t^disk` columns).
    WriteThrough,
}

/// Static configuration of a Clusterfile deployment.
#[derive(Debug, Clone)]
pub struct ClusterfileConfig {
    /// Number of compute nodes (node ids `0..compute_nodes`).
    pub compute_nodes: usize,
    /// Number of I/O nodes (node ids `compute_nodes..compute_nodes+io_nodes`).
    pub io_nodes: usize,
    /// Hardware models.
    pub hardware: ClusterConfig,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Stagger each compute node's per-subfile write loop to start at
    /// subfile `compute mod io_nodes` instead of subfile 0. With many
    /// concurrent writers this avoids every round hammering the same I/O
    /// node — matters when the network models receive-link contention.
    pub stagger_writes: bool,
}

impl ClusterfileConfig {
    /// The paper's deployment: four compute nodes and four I/O nodes on the
    /// Myrinet/IDE testbed.
    #[must_use]
    pub fn paper_deployment(policy: WritePolicy) -> Self {
        Self {
            compute_nodes: 4,
            io_nodes: 4,
            hardware: ClusterConfig::paper_testbed(8),
            write_policy: policy,
            stagger_writes: false,
        }
    }
}

/// Messages exchanged between compute and I/O nodes (public only because it
/// parameterizes the [`Cluster`] accessor; applications never construct it).
#[allow(missing_docs)]
pub enum Message {
    /// `PROJ_S(V∩S)` shipped to the subfile's I/O node at view-set time.
    ViewProjection { file: FileId, compute: usize, subfile: usize, projection: Projection },
    /// A write request: interval extremities on the subfile plus payload.
    WriteReq {
        file: FileId,
        compute: usize,
        subfile: usize,
        l_s: u64,
        r_s: u64,
        contiguous: bool,
        payload: Vec<u8>,
    },
    /// Write acknowledgment.
    WriteAck,
    /// A read request for `[l_s, r_s]` of the subfile.
    ReadReq { file: FileId, compute: usize, subfile: usize, l_s: u64, r_s: u64, contiguous: bool },
    /// Read response: the gathered subfile bytes.
    ReadData { file: FileId, subfile: usize, payload: Vec<u8> },
    /// Two-phase collective exchange: data destined for `subfile`, shipped
    /// to its aggregator compute node with subfile-linear unpack runs.
    Exchange { file: FileId, subfile: usize, runs: Vec<(u64, u64)>, payload: Vec<u8> },
    /// Aggregated contiguous write of a whole assembled region.
    RawWrite { file: FileId, subfile: usize, offset: u64, payload: Vec<u8> },
}

struct ViewState {
    view: Partition,
    element: usize,
    /// The engine-compiled view plan: per subfile, `PROJ_V` (kept at the
    /// compute node), the perfect-match flag, and the zero-allocation
    /// segment replay tables. Shared via `Arc` with the engine's cache.
    plan: Arc<CompiledView>,
    timings: ViewSetTimings,
}

struct FileState {
    physical: Partition,
    len: u64,
    /// Subfile contents, indexed by subfile (= I/O node offset).
    subfiles: Vec<SubfileStore>,
    /// Views keyed by compute node.
    views: HashMap<usize, ViewState>,
    /// `PROJ_S(V∩S)` held at the I/O nodes, keyed by (compute, subfile),
    /// lowered to a replay table once on arrival.
    io_projections: HashMap<(usize, usize), SegmentReplay>,
}

/// A Clusterfile instance: a set of files over a simulated cluster.
pub struct Clusterfile {
    cluster: Cluster<Message>,
    config: ClusterfileConfig,
    files: Vec<FileState>,
    io_timings: Vec<IoTimings>,
    /// Scratch area where in-flight reads assemble their results.
    read_buffers: HashMap<usize, (u64, Vec<u8>)>,
    /// Per-compute queues of write requests not yet issued: the write loop
    /// is sequential per subfile (send a request, wait for its ack, move to
    /// the next subfile), as in the paper's pseudocode.
    pending_writes: HashMap<usize, std::collections::VecDeque<QueuedWrite>>,
    /// Staging area for in-flight two-phase collective writes, keyed by
    /// file: one assembly buffer per subfile, held at the aggregators.
    collective_staging: HashMap<FileId, Vec<Vec<u8>>>,
    /// Accumulated real scatter time of in-flight reads, per compute node.
    read_scatter_real: HashMap<usize, Duration>,
    /// Where subfile bytes live (memory by default, or real files).
    storage: StorageBackend,
    /// Plan engine scoped to this deployment: one compilation path and plan
    /// cache per simulated cluster, so measured view-set times (`t_i`)
    /// reflect this instance's history rather than unrelated deployments in
    /// the same process.
    engine: PlanEngine,
}

/// A prepared per-subfile write request awaiting its turn.
struct QueuedWrite {
    file: FileId,
    subfile: usize,
    l_s: u64,
    r_s: u64,
    contiguous: bool,
    payload: Vec<u8>,
}

impl Clusterfile {
    /// Boots a Clusterfile deployment.
    ///
    /// # Panics
    /// Panics if the hardware node count doesn't cover compute + I/O nodes.
    #[must_use]
    pub fn new(config: ClusterfileConfig) -> Self {
        assert!(
            config.hardware.nodes >= config.compute_nodes + config.io_nodes,
            "hardware must provide every compute and I/O node"
        );
        let io_timings = vec![IoTimings::default(); config.io_nodes];
        Self {
            cluster: Cluster::new(config.hardware),
            config,
            files: Vec::new(),
            io_timings,
            read_buffers: HashMap::new(),
            pending_writes: HashMap::new(),
            collective_staging: HashMap::new(),
            read_scatter_real: HashMap::new(),
            storage: StorageBackend::Memory,
            engine: PlanEngine::new(),
        }
    }

    /// The deployment's plan engine (compiled-plan cache statistics).
    #[must_use]
    pub fn plan_engine(&self) -> &PlanEngine {
        &self.engine
    }

    /// Selects the storage backend for files created **after** this call
    /// (existing files keep their stores). [`StorageBackend::Directory`]
    /// puts one real file per subfile under the given directory.
    pub fn set_storage_backend(&mut self, backend: StorageBackend) {
        self.storage = backend;
    }

    fn io_node(&self, subfile: usize) -> NodeId {
        self.config.compute_nodes + subfile
    }

    /// The underlying simulator (for clocks, stats and failure injection).
    #[must_use]
    pub fn cluster(&self) -> &Cluster<Message> {
        &self.cluster
    }

    /// Mutable access to the simulator (failure injection in tests).
    pub fn cluster_mut(&mut self) -> &mut Cluster<Message> {
        &mut self.cluster
    }

    /// Accumulated per-I/O-node timings (paper's Table 2 source).
    #[must_use]
    pub fn io_timings(&self) -> &[IoTimings] {
        &self.io_timings
    }

    /// Creates a file physically partitioned by `physical` (one element per
    /// I/O node), `len` bytes long, zero-filled.
    ///
    /// # Panics
    /// Panics if the physical partition's element count differs from the
    /// I/O node count.
    pub fn create_file(&mut self, physical: Partition, len: u64) -> FileId {
        assert_eq!(physical.element_count(), self.config.io_nodes, "one subfile per I/O node");
        let file_id = self.files.len();
        let subfiles = (0..self.config.io_nodes)
            .map(|s| {
                let sub_len = physical.element_len(s, len).expect("subfile index valid");
                SubfileStore::create(&self.storage, file_id, s, sub_len)
                    .expect("subfile store creation")
            })
            .collect();
        self.files.push(FileState {
            physical,
            len,
            subfiles,
            views: HashMap::new(),
            io_projections: HashMap::new(),
        });
        self.files.len() - 1
    }

    /// File length in bytes.
    #[must_use]
    pub fn file_len(&self, file: FileId) -> u64 {
        self.files[file].len
    }

    /// A subfile's current contents (test/diagnostic accessor).
    #[must_use]
    pub fn subfile(&mut self, file: FileId, subfile: usize) -> Vec<u8> {
        self.files[file].subfiles[subfile].read_all().expect("read subfile")
    }

    /// The host path backing a subfile, when file-backed storage is in use.
    #[must_use]
    pub fn subfile_path(&self, file: FileId, subfile: usize) -> Option<std::path::PathBuf> {
        self.files[file].subfiles[subfile].path().map(|p| p.to_path_buf())
    }

    /// The file's current physical partition.
    #[must_use]
    pub fn physical_partition(&self, file: FileId) -> &Partition {
        &self.files[file].physical
    }

    /// Fills the file's logical contents byte-by-byte from `f(file_offset)`
    /// (test/setup helper; writes through the physical mapping directly).
    pub fn fill_file(&mut self, file: FileId, f: impl Fn(u64) -> u8) {
        let st = &mut self.files[file];
        for s in 0..st.subfiles.len() {
            let m = Mapper::new(&st.physical, s);
            let len = st.subfiles[s].len();
            let data: Vec<u8> = (0..len).map(|y| f(m.unmap(y))).collect();
            st.subfiles[s].replace(data).expect("fill subfile");
        }
    }

    /// Swaps the file onto a new physical partition by applying a
    /// redistribution plan built from the old one. Views become stale and
    /// are dropped. Returns the bytes moved.
    ///
    /// Simulated network costs of the subfile shuffle are estimated
    /// separately by [`crate::relayout_cost`]; this method performs the real
    /// data movement.
    pub fn apply_relayout(
        &mut self,
        file: FileId,
        new_physical: Partition,
        plan: &CompiledPlan,
    ) -> u64 {
        assert_eq!(new_physical.element_count(), self.config.io_nodes, "one subfile per I/O node");
        let st = &mut self.files[file];
        let old: Vec<Vec<u8>> =
            st.subfiles.iter_mut().map(|s| s.read_all().expect("read subfile")).collect();
        let mut new_bufs: Vec<Vec<u8>> = (0..new_physical.element_count())
            .map(|s| {
                vec![
                    0u8;
                    new_physical.element_len(s, st.len).expect("subfile index valid") as usize
                ]
            })
            .collect();
        let moved = plan.apply_parallel(&old, &mut new_bufs, st.len);
        for (s, buf) in new_bufs.into_iter().enumerate() {
            st.subfiles[s].replace(buf).expect("relayout subfile");
        }
        st.physical = new_physical;
        st.views.clear();
        st.io_projections.clear();
        moved
    }

    /// Assembles the file's linear contents from the subfiles.
    #[must_use]
    pub fn file_contents(&mut self, file: FileId) -> Vec<u8> {
        let st = &mut self.files[file];
        let mut out = vec![0u8; st.len as usize];
        for s in 0..st.subfiles.len() {
            let m = Mapper::new(&st.physical, s);
            let data = st.subfiles[s].read_all().expect("read subfile");
            for (y, &b) in data.iter().enumerate() {
                let x = m.unmap(y as u64);
                if x < st.len {
                    out[x as usize] = b;
                }
            }
        }
        out
    }

    /// Sets compute node `compute`'s view on `file` to element `element` of
    /// the logical partition `logical`.
    ///
    /// Runs the paper's view-set protocol: intersect the view with every
    /// subfile, keep `PROJ_V` locally, ship `PROJ_S` to the I/O nodes.
    /// Returns the measured intersection/projection cost (`t_i`).
    pub fn set_view(
        &mut self,
        compute: usize,
        file: FileId,
        logical: &Partition,
        element: usize,
    ) -> ViewSetTimings {
        let physical = self.files[file].physical.clone();
        let start = Instant::now();
        let plan =
            self.engine.compile_view(logical, element, &physical).expect("element indices valid");
        let t_i = start.elapsed();
        let timings = ViewSetTimings { t_i, intersecting_subfiles: plan.intersecting_subfiles() };

        // Simulated cost: a *modeled* 2002-era CPU time (a fixed base plus a
        // per-FALLS-node cost), keeping the simulation deterministic; the
        // measured wall-clock is reported separately in the timings.
        self.cluster.compute(compute, 50_000 + 2_000 * plan.work_nodes() as u64);
        for s in 0..self.config.io_nodes {
            let proj = &plan.access(s).proj_sub;
            if proj.is_empty() {
                continue;
            }
            let approx_bytes = 16 + 32 * proj.set.node_count() as u64;
            self.cluster.send(
                compute,
                self.io_node(s),
                approx_bytes,
                Message::ViewProjection { file, compute, subfile: s, projection: proj.clone() },
            );
        }
        self.drain();

        self.files[file]
            .views
            .insert(compute, ViewState { view: logical.clone(), element, plan, timings });
        timings
    }

    /// The view-set timings recorded for a compute node's view.
    #[must_use]
    pub fn view_timings(&self, compute: usize, file: FileId) -> Option<ViewSetTimings> {
        self.files[file].views.get(&compute).map(|v| v.timings)
    }

    /// Writes `data` to the view interval `[lo_v, hi_v]` of `compute`'s view
    /// on `file`, following the paper's write pseudocode. Returns the
    /// compute-node timing breakdown.
    pub fn write(
        &mut self,
        compute: usize,
        file: FileId,
        lo_v: u64,
        hi_v: u64,
        data: &[u8],
    ) -> WriteTimings {
        let (mut timings, first_send) = self.begin_write(compute, file, lo_v, hi_v, data);
        self.drain();
        timings.t_w_sim_ns += self.cluster.clock(compute).saturating_sub(first_send);
        timings
    }

    /// Issues several writes (one per compute node) before processing any
    /// I/O, modelling the paper's concurrent writers. Returns one breakdown
    /// per operation, with `t_w` measured from each compute node's first
    /// request to its last acknowledgment.
    pub fn write_group(
        &mut self,
        file: FileId,
        ops: &[(usize, u64, u64, Vec<u8>)],
    ) -> Vec<WriteTimings> {
        let mut send_clocks = Vec::with_capacity(ops.len());
        let mut timings: Vec<WriteTimings> = ops
            .iter()
            .map(|(compute, lo, hi, data)| {
                let (t, first_send) = self.begin_write(*compute, file, *lo, *hi, data);
                send_clocks.push(first_send);
                t
            })
            .collect();
        self.drain();
        for ((compute, ..), (t, sent)) in ops.iter().zip(timings.iter_mut().zip(send_clocks)) {
            t.t_w_sim_ns += self.cluster.clock(*compute).saturating_sub(sent);
        }
        timings
    }

    /// The compute-node half of a write: mapping, gathering, and issuing the
    /// first per-subfile request (the rest follow ack-by-ack, matching the
    /// paper's sequential per-subfile write loop). Returns the breakdown
    /// plus the compute clock at the first request send — the paper
    /// measures `t_w` "between sending the first write request ... and
    /// receiving the last acknowledgment".
    fn begin_write(
        &mut self,
        compute: usize,
        file: FileId,
        lo_v: u64,
        hi_v: u64,
        data: &[u8],
    ) -> (WriteTimings, u64) {
        assert_eq!(data.len() as u64, hi_v - lo_v + 1, "data must cover the interval");
        let st = &self.files[file];
        let vs = st.views.get(&compute).expect("view must be set before writing");
        let physical = &st.physical;
        let view = &vs.view;
        let mv = Mapper::new(view, vs.element);

        let mut t_m = Duration::ZERO;
        let mut t_g = Duration::ZERO;
        let mut sim_cpu_ns = 0u64;
        let mut sends: Vec<(usize, u64, u64, bool, Vec<u8>)> = Vec::new();
        #[allow(unused_mut)]
        let mut all_contiguous = true;

        for s in 0..self.config.io_nodes {
            let replay = vs.plan.replay(s);
            if replay.is_empty() {
                continue;
            }
            let covered = replay.bytes_between(lo_v, hi_v);
            if covered == 0 {
                continue;
            }
            let perfect_match = vs.plan.access(s).perfect_match;

            // t_m: map the access interval extremities onto the subfile
            // (lines 3–4 of the paper's pseudocode). Free when view and
            // subfile perfectly overlap — the paper reports t_m = 0 there.
            let (l_s, r_s) = if perfect_match {
                (lo_v, hi_v)
            } else {
                let m_start = Instant::now();
                let ms = Mapper::new(physical, s);
                let x_lo = mv.unmap(lo_v);
                let x_hi = mv.unmap(hi_v);
                let l_s = ms.map_next(x_lo);
                let r_s = ms.map_prev(x_hi).expect("subfile holds data in range");
                t_m += m_start.elapsed();
                (l_s, r_s)
            };

            // Gather, unless the projection covers the interval contiguously
            // (lines 6–10).
            let contiguous = covered == hi_v - lo_v + 1;
            let payload = if contiguous {
                data.to_vec()
            } else {
                all_contiguous = false;
                // The buffer is touched before the clock starts: first-touch
                // page faults are the allocator's cost, not the gather's, and
                // at 1 MiB they would outweigh the copy itself.
                // (A non-zero fill: a zeroed allocation maps untouched pages.)
                let mut buf = vec![0xFF_u8; covered as usize];
                let g_start = Instant::now();
                let (mut at, mut seg_count) = (0usize, 0u64);
                replay.for_each_between(lo_v, hi_v, |seg| {
                    let a = (seg.l() - lo_v) as usize;
                    let n = seg.len() as usize;
                    buf[at..at + n].copy_from_slice(&data[a..a + n]);
                    at += n;
                    seg_count += 1;
                });
                t_g += g_start.elapsed();
                sim_cpu_ns += self.cluster.config().cache.write_fragmented_ns(covered, seg_count);
                buf
            };
            if !perfect_match {
                sim_cpu_ns += MAPPING_CPU_NS;
            }
            sends.push((s, l_s, r_s, contiguous, payload));
        }

        // Advance the compute node's clock by the *modeled* CPU cost of the
        // mapping and gather phases (memcpy at 2002-era bandwidth plus a
        // fixed mapping cost), keeping the simulation deterministic; the
        // measured wall-clock goes into the returned timings.
        self.cluster.compute(compute, sim_cpu_ns);
        let first_send = self.cluster.clock(compute);
        let messages = sends.len() as u64;
        let bytes_sent: u64 = sends.iter().map(|(.., p)| p.len() as u64).sum();
        if self.config.stagger_writes && !sends.is_empty() {
            // Rotate the per-subfile loop so concurrent writers start on
            // different I/O nodes.
            let start = compute % self.config.io_nodes;
            let pivot = sends.iter().position(|(s, ..)| *s >= start).unwrap_or(0);
            sends.rotate_left(pivot);
        }
        let mut queue: std::collections::VecDeque<QueuedWrite> = sends
            .into_iter()
            .map(|(subfile, l_s, r_s, contiguous, payload)| QueuedWrite {
                file,
                subfile,
                l_s,
                r_s,
                contiguous,
                payload,
            })
            .collect();
        if let Some(first) = queue.pop_front() {
            self.issue_write(compute, first);
        }
        if !queue.is_empty() {
            self.pending_writes.insert(compute, queue);
        }
        (WriteTimings { t_m, t_g, t_w_sim_ns: 0, messages, bytes_sent, all_contiguous }, first_send)
    }

    /// Puts one prepared request on the wire.
    fn issue_write(&mut self, compute: usize, w: QueuedWrite) {
        let wire = 24 + w.payload.len() as u64;
        self.cluster.send(
            compute,
            self.io_node(w.subfile),
            wire,
            Message::WriteReq {
                file: w.file,
                compute,
                subfile: w.subfile,
                l_s: w.l_s,
                r_s: w.r_s,
                contiguous: w.contiguous,
                payload: w.payload,
            },
        );
    }

    /// Reads the view interval `[lo_v, hi_v]` of `compute`'s view on `file`.
    /// The read path is the reverse-symmetric of the write path: I/O nodes
    /// gather from their subfiles, the compute node scatters into the
    /// result buffer.
    pub fn read(&mut self, compute: usize, file: FileId, lo_v: u64, hi_v: u64) -> Vec<u8> {
        self.read_timed(compute, file, lo_v, hi_v).0
    }

    /// Like [`Clusterfile::read`] but also returns the timing breakdown —
    /// the read path is the reverse-symmetric of the write path, so the
    /// breakdown mirrors [`WriteTimings`]: `t_m` for extremity mapping,
    /// `t_g` for the compute-side scatter into the result buffer, and the
    /// simulated completion time from first request to last data arrival.
    pub fn read_timed(
        &mut self,
        compute: usize,
        file: FileId,
        lo_v: u64,
        hi_v: u64,
    ) -> (Vec<u8>, WriteTimings) {
        let st = &self.files[file];
        let vs = st.views.get(&compute).expect("view must be set before reading");
        let mv = Mapper::new(&vs.view, vs.element);
        let mut requests = Vec::new();
        let mut t_m = Duration::ZERO;
        let mut sim_cpu_ns = 0u64;
        for s in 0..self.config.io_nodes {
            let replay = vs.plan.replay(s);
            if replay.is_empty() {
                continue;
            }
            let covered = replay.bytes_between(lo_v, hi_v);
            if covered == 0 {
                continue;
            }
            let contiguous = covered == hi_v - lo_v + 1;
            let (l_s, r_s) = if vs.plan.access(s).perfect_match {
                (lo_v, hi_v)
            } else {
                let m_start = Instant::now();
                let ms = Mapper::new(&st.physical, s);
                let l_s = ms.map_next(mv.unmap(lo_v));
                let r_s = ms.map_prev(mv.unmap(hi_v)).expect("subfile holds data in range");
                t_m += m_start.elapsed();
                sim_cpu_ns += MAPPING_CPU_NS;
                (l_s, r_s)
            };
            requests.push((s, l_s, r_s, contiguous));
        }
        self.cluster.compute(compute, sim_cpu_ns);
        self.read_buffers.insert(compute, (lo_v, vec![0u8; (hi_v - lo_v + 1) as usize]));
        let first_send = self.cluster.clock(compute);
        let messages = requests.len() as u64;
        for (s, l_s, r_s, contiguous) in requests {
            self.cluster.send(
                compute,
                self.io_node(s),
                24,
                Message::ReadReq { file, compute, subfile: s, l_s, r_s, contiguous },
            );
        }
        self.drain();
        let buf = self.read_buffers.remove(&compute).expect("read buffer present").1;
        let timings = WriteTimings {
            t_m,
            t_g: self.read_scatter_real.remove(&compute).unwrap_or_default(),
            t_w_sim_ns: self.cluster.clock(compute).saturating_sub(first_send),
            messages,
            bytes_sent: buf.len() as u64,
            all_contiguous: messages <= 1,
        };
        (buf, timings)
    }

    /// Processes queued messages until the cluster goes idle.
    fn drain(&mut self) {
        while let Some(delivery) = self.cluster.step() {
            self.handle(delivery);
        }
    }

    fn handle(&mut self, d: Delivery<Message>) {
        match d.msg {
            Message::ViewProjection { file, compute, subfile, projection } => {
                // Registering the projection costs a small fixed overhead.
                self.cluster.compute(d.to, 1_000);
                self.files[file]
                    .io_projections
                    .insert((compute, subfile), SegmentReplay::new(&projection));
            }
            Message::WriteReq { file, compute, subfile, l_s, r_s, contiguous, payload } => {
                self.serve_write(d.to, file, compute, subfile, l_s, r_s, contiguous, &payload);
                self.cluster.send(d.to, compute, 16, Message::WriteAck);
            }
            Message::WriteAck => {
                // The ack unblocks the compute node's sequential write loop:
                // issue the next per-subfile request, if any.
                let compute = d.to;
                if let Some(queue) = self.pending_writes.get_mut(&compute) {
                    let next = queue.pop_front();
                    if queue.is_empty() {
                        self.pending_writes.remove(&compute);
                    }
                    if let Some(w) = next {
                        self.issue_write(compute, w);
                    }
                }
            }
            Message::ReadReq { file, compute, subfile, l_s, r_s, contiguous } => {
                let payload = self.serve_read(d.to, file, compute, subfile, l_s, r_s, contiguous);
                let wire = 16 + payload.len() as u64;
                self.cluster.send(
                    d.to,
                    compute,
                    wire,
                    Message::ReadData { file, subfile, payload },
                );
            }
            Message::ReadData { file, subfile, payload } => {
                self.absorb_read_data(d.to, file, subfile, &payload);
            }
            Message::Exchange { file, subfile, runs, payload } => {
                // Aggregator side of the two-phase exchange: unpack the
                // received runs into the subfile staging buffer.
                let cost = self
                    .config
                    .hardware
                    .cache
                    .write_fragmented_ns(payload.len() as u64, runs.len() as u64);
                self.cluster.compute(d.to, cost);
                let staging =
                    self.collective_staging.get_mut(&file).expect("collective write in flight");
                let buf = &mut staging[subfile];
                let mut pos = 0usize;
                for (off, len) in runs {
                    buf[off as usize..(off + len) as usize]
                        .copy_from_slice(&payload[pos..pos + len as usize]);
                    pos += len as usize;
                }
            }
            Message::RawWrite { file, subfile, offset, payload } => {
                let io = d.to;
                self.files[file].subfiles[subfile].write_at(offset, &payload).expect("raw write");
                let bytes = payload.len() as u64;
                self.cluster.compute(io, IO_REQUEST_OVERHEAD_NS);
                let mut cost =
                    IO_REQUEST_OVERHEAD_NS + self.cluster.cache_write_fragmented(io, bytes, 1);
                if self.config.write_policy == WritePolicy::WriteThrough {
                    cost += self.cluster.disk_flush(io, offset, bytes, 1);
                }
                self.io_timings[subfile].absorb(&IoTimings {
                    t_s_sim_ns: cost,
                    t_s_real: Duration::ZERO,
                    fragments: 1,
                    bytes,
                    requests: 1,
                });
                self.cluster.send(io, d.from, 16, Message::WriteAck);
            }
        }
    }

    /// Registers the staging buffers of an in-flight collective write.
    pub(crate) fn begin_collective(&mut self, file: FileId, buffers: Vec<Vec<u8>>) {
        self.collective_staging.insert(file, buffers);
    }

    /// Removes and returns the staging buffers of a collective write.
    pub(crate) fn take_collective(&mut self, file: FileId) -> Vec<Vec<u8>> {
        self.collective_staging.remove(&file).expect("collective write in flight")
    }

    /// The configuration (shared with the collective module).
    #[must_use]
    pub fn config(&self) -> &ClusterfileConfig {
        &self.config
    }

    /// Node id of subfile `s`'s I/O node.
    #[must_use]
    pub fn io_node_id(&self, s: usize) -> NodeId {
        self.io_node(s)
    }

    /// Processes queued messages until idle (crate-internal alias used by
    /// the collective module).
    pub(crate) fn drain_public(&mut self) {
        self.drain();
    }

    /// I/O-node side of a write (the paper's second pseudocode fragment):
    /// if `PROJ_S(V∩S)` is contiguous between the extremities the data is
    /// written in one block, otherwise it is scattered.
    #[allow(clippy::too_many_arguments)]
    fn serve_write(
        &mut self,
        io: NodeId,
        file: FileId,
        compute: usize,
        subfile: usize,
        l_s: u64,
        r_s: u64,
        _contiguous_hint: bool,
        payload: &[u8],
    ) {
        let FileState { io_projections, subfiles, .. } = &mut self.files[file];
        let replay =
            io_projections.get(&(compute, subfile)).expect("projection shipped at view-set time");
        let expect = replay.bytes_between(l_s, r_s);
        assert_eq!(payload.len() as u64, expect, "scatter size mismatch");
        let real_start = Instant::now();
        let mut pos = 0usize;
        let mut fragments = 0u64;
        replay.for_each_between(l_s, r_s, |seg| {
            let len = seg.len() as usize;
            subfiles[subfile]
                .write_at(seg.l(), &payload[pos..pos + len])
                .expect("scatter subfile bytes");
            pos += len;
            fragments += 1;
        });
        let t_s_real = real_start.elapsed();

        // Simulated storage costs: fixed request handling plus the staging
        // copy (plus the write-back flush under write-through).
        let bytes = payload.len() as u64;
        self.cluster.compute(io, IO_REQUEST_OVERHEAD_NS);
        let mut t_s_sim =
            IO_REQUEST_OVERHEAD_NS + self.cluster.cache_write_fragmented(io, bytes, fragments);
        if self.config.write_policy == WritePolicy::WriteThrough {
            t_s_sim += self.cluster.disk_flush(io, l_s, bytes, fragments);
        }
        let acc = &mut self.io_timings[subfile];
        acc.absorb(&IoTimings { t_s_sim_ns: t_s_sim, t_s_real, fragments, bytes, requests: 1 });
    }

    /// I/O-node side of a read: gather the requested subfile bytes.
    #[allow(clippy::too_many_arguments)]
    fn serve_read(
        &mut self,
        io: NodeId,
        file: FileId,
        compute: usize,
        subfile: usize,
        l_s: u64,
        r_s: u64,
        _contiguous_hint: bool,
    ) -> Vec<u8> {
        let FileState { io_projections, subfiles, .. } = &mut self.files[file];
        let replay =
            io_projections.get(&(compute, subfile)).expect("projection shipped at view-set time");
        let mut buf = Vec::with_capacity(replay.bytes_between(l_s, r_s) as usize);
        let mut seg_count = 0u64;
        replay.for_each_between(l_s, r_s, |seg| {
            let base = buf.len();
            buf.resize(base + seg.len() as usize, 0);
            subfiles[subfile].read_into(seg.l(), &mut buf[base..]).expect("gather subfile bytes");
            seg_count += 1;
        });
        // Reading from the cache costs request handling plus one copy per
        // gathered fragment.
        self.cluster.compute(io, IO_REQUEST_OVERHEAD_NS);
        self.cluster.cache_write_fragmented(io, buf.len() as u64, seg_count);
        buf
    }

    /// Compute-node side of a read response: scatter into the result buffer.
    fn absorb_read_data(&mut self, compute: NodeId, file: FileId, subfile: usize, payload: &[u8]) {
        let st = &self.files[file];
        let vs = st.views.get(&compute).expect("view set");
        let (lo_v, buf) = self.read_buffers.get_mut(&compute).expect("read in flight");
        let hi_v = *lo_v + buf.len() as u64 - 1;
        let start = Instant::now();
        let mut pos = 0usize;
        let mut seg_count = 0u64;
        let lo = *lo_v;
        vs.plan.replay(subfile).for_each_between(lo, hi_v, |seg| {
            let len = seg.len() as usize;
            let a = (seg.l() - lo) as usize;
            buf[a..a + len].copy_from_slice(&payload[pos..pos + len]);
            pos += len;
            seg_count += 1;
        });
        assert_eq!(pos, payload.len(), "read payload size mismatch");
        *self.read_scatter_real.entry(compute).or_default() += start.elapsed();
        // Modeled CPU for the scatter copy.
        let cost = self.config.hardware.cache.write_fragmented_ns(payload.len() as u64, seg_count);
        self.cluster.compute(compute, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arraydist::matrix::MatrixLayout;

    fn deployment(policy: WritePolicy) -> Clusterfile {
        Clusterfile::new(ClusterfileConfig::paper_deployment(policy))
    }

    fn matrix_file(fs: &mut Clusterfile, n: u64, physical: MatrixLayout) -> (FileId, Partition) {
        let phys = physical.partition(n, n, 1, 4);
        let file = fs.create_file(phys, n * n);
        let logical = MatrixLayout::RowBlocks.partition(n, n, 1, 4);
        (file, logical)
    }

    fn pattern_byte(x: u64) -> u8 {
        (x.wrapping_mul(131).wrapping_add(17) % 251) as u8
    }

    /// End-to-end: all four compute nodes write their full row-block views;
    /// the assembled file must equal the expected pattern — for every
    /// physical layout.
    #[test]
    fn full_write_roundtrip_all_layouts() {
        for layout in MatrixLayout::all() {
            let mut fs = deployment(WritePolicy::BufferCache);
            let n = 32;
            let (file, logical) = matrix_file(&mut fs, n, layout);
            for c in 0..4usize {
                fs.set_view(c, file, &logical, c);
            }
            let ops: Vec<(usize, u64, u64, Vec<u8>)> = (0..4usize)
                .map(|c| {
                    let m = Mapper::new(&logical, c);
                    let len = logical.element_len(c, n * n).unwrap();
                    let data: Vec<u8> = (0..len).map(|y| pattern_byte(m.unmap(y))).collect();
                    (c, 0, len - 1, data)
                })
                .collect();
            let timings = fs.write_group(file, &ops);
            assert_eq!(timings.len(), 4);
            let contents = fs.file_contents(file);
            for (x, &b) in contents.iter().enumerate() {
                assert_eq!(b, pattern_byte(x as u64), "layout {layout:?}, byte {x}");
            }
        }
    }

    #[test]
    fn read_returns_written_data() {
        let mut fs = deployment(WritePolicy::BufferCache);
        let n = 16;
        let (file, logical) = matrix_file(&mut fs, n, MatrixLayout::ColumnBlocks);
        for c in 0..4usize {
            fs.set_view(c, file, &logical, c);
        }
        let len = logical.element_len(0, n * n).unwrap();
        let data: Vec<u8> = (0..len as usize).map(|i| (i % 251) as u8).collect();
        fs.write(0, file, 0, len - 1, &data);
        let back = fs.read(0, file, 0, len - 1);
        assert_eq!(back, data);
        // Partial interval read.
        let back = fs.read(0, file, 10, 33);
        assert_eq!(back, &data[10..=33]);
    }

    #[test]
    fn matched_layout_takes_fast_paths() {
        let mut fs = deployment(WritePolicy::BufferCache);
        let n = 16;
        let (file, logical) = matrix_file(&mut fs, n, MatrixLayout::RowBlocks);
        fs.set_view(0, file, &logical, 0);
        let len = logical.element_len(0, n * n).unwrap();
        let data = vec![7u8; len as usize];
        let t = fs.write(0, file, 0, len - 1, &data);
        assert!(t.all_contiguous, "row view on row subfiles is a perfect match");
        assert_eq!(t.t_g, Duration::ZERO, "no gather for a perfect match");
        assert_eq!(t.messages, 1, "exactly one subfile intersects");
        assert_eq!(fs.io_timings()[0].fragments, 1);
    }

    #[test]
    fn mismatched_layout_gathers_and_fragments() {
        let mut fs = deployment(WritePolicy::BufferCache);
        let n = 16;
        let (file, logical) = matrix_file(&mut fs, n, MatrixLayout::ColumnBlocks);
        fs.set_view(0, file, &logical, 0);
        let len = logical.element_len(0, n * n).unwrap();
        let data = vec![7u8; len as usize];
        let t = fs.write(0, file, 0, len - 1, &data);
        assert!(!t.all_contiguous);
        assert_eq!(t.messages, 4, "row view scatters over all four column subfiles");
        // Although the *view* side fragments (one gather piece per row),
        // one compute node's rows land contiguously inside each column
        // subfile, so the I/O side writes a single fragment per request.
        let frags: u64 = fs.io_timings().iter().map(|t| t.fragments).sum();
        assert_eq!(frags, 4, "one contiguous landing zone per subfile");
        assert!(t.t_g > Duration::ZERO, "the view side had to gather");
    }

    #[test]
    fn write_through_costs_more_than_cache() {
        let n = 64;
        let run = |policy| {
            let mut fs = deployment(policy);
            let (file, logical) = matrix_file(&mut fs, n, MatrixLayout::SquareBlocks);
            fs.set_view(0, file, &logical, 0);
            let len = logical.element_len(0, n * n).unwrap();
            let data = vec![1u8; len as usize];
            fs.write(0, file, 0, len - 1, &data);
            fs.io_timings().iter().map(|t| t.t_s_sim_ns).sum::<u64>()
        };
        let bc = run(WritePolicy::BufferCache);
        let disk = run(WritePolicy::WriteThrough);
        assert!(disk > bc * 2, "write-through must pay disk time ({disk} vs {bc})");
    }

    #[test]
    fn slow_io_node_bounds_write_completion() {
        let n = 64;
        let run = |slow: Option<NodeId>| {
            let mut fs = deployment(WritePolicy::BufferCache);
            let (file, logical) = matrix_file(&mut fs, n, MatrixLayout::ColumnBlocks);
            if let Some(node) = slow {
                fs.cluster_mut().slow_down(node, 50);
            }
            fs.set_view(0, file, &logical, 0);
            let len = logical.element_len(0, n * n).unwrap();
            let data = vec![1u8; len as usize];
            fs.write(0, file, 0, len - 1, &data).t_w_sim_ns
        };
        let nominal = run(None);
        let degraded = run(Some(5)); // io node 1
        assert!(
            degraded > nominal * 5,
            "a slow I/O server must bound the write ({degraded} vs {nominal})"
        );
    }

    /// The paper presents only the write path "because the write and read
    /// are reverse symmetrical" — check the symmetry holds in the model:
    /// matched layouts take single-message fast paths in both directions,
    /// and read/write completions are within 2× of each other.
    #[test]
    fn read_write_symmetry() {
        let n = 64u64;
        for layout in MatrixLayout::all() {
            let mut fs = deployment(WritePolicy::BufferCache);
            let (file, logical) = matrix_file(&mut fs, n, layout);
            fs.set_view(0, file, &logical, 0);
            let len = logical.element_len(0, n * n).unwrap();
            let data = vec![9u8; len as usize];
            let w = fs.write(0, file, 0, len - 1, &data);
            let (back, r) = fs.read_timed(0, file, 0, len - 1);
            assert_eq!(back, data);
            assert_eq!(r.messages, w.messages, "layout {layout:?}");
            let ratio = r.t_w_sim_ns as f64 / w.t_w_sim_ns as f64;
            assert!(
                (0.4..2.5).contains(&ratio),
                "layout {layout:?}: read {} vs write {} ns",
                r.t_w_sim_ns,
                w.t_w_sim_ns
            );
            if layout == MatrixLayout::RowBlocks {
                assert_eq!(r.t_m, Duration::ZERO);
            }
        }
    }

    /// Staggered write loops land the same bytes, just in a different
    /// request order.
    #[test]
    fn staggered_writes_preserve_contents() {
        let n = 32u64;
        let mut config = ClusterfileConfig::paper_deployment(WritePolicy::BufferCache);
        config.stagger_writes = true;
        let mut fs = Clusterfile::new(config);
        let file = fs.create_file(MatrixLayout::ColumnBlocks.partition(n, n, 1, 4), n * n);
        let logical = MatrixLayout::RowBlocks.partition(n, n, 1, 4);
        let ops: Vec<(usize, u64, u64, Vec<u8>)> = (0..4usize)
            .map(|c| {
                fs.set_view(c, file, &logical, c);
                let m = Mapper::new(&logical, c);
                let len = logical.element_len(c, n * n).unwrap();
                let data: Vec<u8> = (0..len).map(|y| pattern_byte(m.unmap(y))).collect();
                (c, 0, len - 1, data)
            })
            .collect();
        fs.write_group(file, &ops);
        let contents = fs.file_contents(file);
        for (x, &b) in contents.iter().enumerate() {
            assert_eq!(b, pattern_byte(x as u64), "byte {x}");
        }
    }

    #[test]
    fn view_timings_are_recorded() {
        let mut fs = deployment(WritePolicy::BufferCache);
        let (file, logical) = matrix_file(&mut fs, 16, MatrixLayout::SquareBlocks);
        let t = fs.set_view(2, file, &logical, 2);
        assert_eq!(t.intersecting_subfiles, 2, "a row block spans one grid row = 2 tiles");
        assert_eq!(fs.view_timings(2, file), Some(t));
        assert!(fs.view_timings(0, file).is_none());
    }

    #[test]
    #[should_panic(expected = "view must be set")]
    fn write_without_view_panics() {
        let mut fs = deployment(WritePolicy::BufferCache);
        let (file, _) = matrix_file(&mut fs, 16, MatrixLayout::RowBlocks);
        fs.write(0, file, 0, 0, &[0]);
    }
}
